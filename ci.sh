#!/usr/bin/env bash
# Repo CI gate: formatting, lints (warnings are errors), docs, full test
# suite, the source-contract analyzer (mvml-analyze --validate), the
# campaign smoke + telemetry cross-validation gate, the serve TCP smoke
# gate, the serve chaos smoke gate (wire-fault totality + rejuvenation
# availability vs the DSPN model, byte-stable across reruns and shard
# counts), and the perf-regression gate (which also cross-checks the serve
# summary's deterministic accounting against the committed baseline),
# and the analytic DSPN artefacts gate (results/* re-derived from the
# Fig. 2/3 DSPNs, byte-compared).
#
# Every gate runs through the harness below: each one prints a one-line
# `gate <name>: ok (<seconds>s)` summary when it passes, and the script
# fails fast naming the gate that broke (`ci.sh: gate '<name>' FAILED`).
#
# Knobs:
#   GATES="..."  run only the named gates (space- or comma-separated).
#                Known names: fmt clippy docs test analyze dspn_artefacts
#                campaign serve chaos perf tsan miri.
#                Example: GATES="fmt,clippy,test".
#                Unset/empty = the full default lane (tsan/miri only when
#                their knobs below ask for them).
#   PERF_GATE=0  skip the perf-regression gate (it re-measures the NN and
#                petri benchmarks, ~minutes, and compares against the
#                committed `results/BENCH_*.json` — which are host-specific,
#                so skip it on hosts the baselines weren't measured on).
#   MIRI=1       additionally run the nn kernel/thread-pool suite under miri
#                to catch undefined behaviour in the unsafe SIMD microkernel
#                layer and the pool's fork-join (`nn::gemm`/`nn::quant`/
#                `nn::parallel` — see the unsafe census in analyze-policy.toml). Slow tests opt out via
#                #[cfg_attr(miri, ignore)]; a dedicated miri-sized parity
#                test stays in.
#   TSAN=1       additionally run the threaded suites (the nn pool unit
#                tests, the avsim replay-determinism test and the serve and
#                avsim pool-reuse tests) under ThreadSanitizer.
#                Needs a nightly toolchain with the rust-src component
#                (-Zbuild-std); skips gracefully when unavailable.
set -euo pipefail
cd "$(dirname "$0")"

# ---------------------------------------------------------------------------
# Gate harness: run_gate times a gate_<name> function, prints the one-line
# summary, and the EXIT trap names the gate when anything inside it fails.
# ---------------------------------------------------------------------------
KNOWN_GATES="fmt clippy docs test analyze dspn_artefacts campaign serve chaos perf tsan miri"
CURRENT_GATE=""
GATE_T0=0

on_exit() {
  local status=$?
  if [[ $status -ne 0 && -n "$CURRENT_GATE" ]]; then
    echo "ci.sh: gate '$CURRENT_GATE' FAILED (exit $status, $((SECONDS - GATE_T0))s in)" >&2
  fi
}
trap on_exit EXIT

run_gate() {
  local name=$1
  CURRENT_GATE=$name
  GATE_T0=$SECONDS
  "gate_$name"
  echo "gate $name: ok ($((SECONDS - GATE_T0))s)"
  CURRENT_GATE=""
}

gate_fmt() {
  cargo fmt --all --check
}

gate_clippy() {
  cargo clippy --workspace --all-targets -- -D warnings
}

gate_docs() {
  # Docs are part of the contract: broken intra-doc links and undocumented
  # public items fail the gate. First-party crates only — the offline
  # dependency stand-ins aren't held to the same bar. The crate list is
  # derived from the workspace metadata so new crates are covered the day
  # they are added (a hard-coded list once silently skipped one).
  local doc_crates
  doc_crates=$(cargo metadata --no-deps --format-version 1 | python3 -c '
import json, sys
for p in json.load(sys.stdin)["packages"]:
    if "/offline/" not in p["manifest_path"]:
        print(p["name"])
')
  # shellcheck disable=SC2046  # intentional word-splitting into -p pairs
  RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q \
    $(printf -- '-p %s ' $doc_crates)
}

gate_test() {
  cargo test --workspace -q
}

gate_analyze() {
  # Source-contract gate: the static analyzer re-scans the workspace against
  # analyze-policy.toml and byte-compares with the committed artifact, so a
  # new violation, a stale mvml-allow, an un-cataloged `unsafe`, or a stale
  # results/ANALYSIS_source.json all fail here. Rule catalog: DESIGN.md §11.
  echo "== mvml-analyze: source contracts vs results/ANALYSIS_source.json =="
  # Dev profile on purpose: it reuses the build from the test gate, so the
  # whole gate is a quick re-scan + byte-compare.
  cargo run -q -p mvml-analyze -- --validate
}

gate_dspn_artefacts() {
  # Analytic DSPN artefacts gate: every committed result that comes from
  # solving the Fig. 2/3 DSPNs is regenerated and byte-compared with
  # results/, so a solver or reachability change that moves any printed
  # digit fails here. Discrete-event-simulated values do not reproduce
  # from the committed files (table5's simulated column, NSCALE's
  # des_cross_check simulated/half_width/within_ci), so those cells are
  # masked on both sides. ext_transient is analytic and was generated with
  # `3000 8`; ext_ablations mixes in a simulated table and is not compared.
  # Table II (the trained classifiers' accuracies, the p/p'/α they feed into
  # the DSPNs, and the int8 Δp) is deterministic for any thread count and is
  # compared whole.
  echo "== dspn artefacts: analytic results/* re-derived from the DSPNs =="
  local dir="target/dspn-artefacts"
  rm -rf "$dir"
  mkdir -p "$dir"
  cargo build -q --release -p mvml-bench --bin fig4_sweeps \
    --bin table3_states --bin table5_reliability --bin nscale --bin ext_transient \
    --bin table2_accuracy
  target/release/table2_accuracy >"$dir/table2_accuracy.txt" 2>/dev/null
  cmp "$dir/table2_accuracy.txt" results/table2_accuracy.txt
  target/release/fig4_sweeps all 13 >"$dir/fig4_sweeps.csv" 2>/dev/null
  cmp "$dir/fig4_sweeps.csv" results/fig4_sweeps.csv
  target/release/table3_states >"$dir/table3_states.txt" 2>/dev/null
  cmp "$dir/table3_states.txt" results/table3_states.txt
  target/release/ext_transient 3000 8 >"$dir/ext_transient.txt" 2>/dev/null
  cmp "$dir/ext_transient.txt" results/ext_transient.txt
  target/release/table5_reliability --simulate \
    >"$dir/table5_reliability.txt" 2>/dev/null
  # nscale writes results/NSCALE_core.json relative to its working directory.
  (cd "$dir" && "$OLDPWD/target/release/nscale" >/dev/null 2>&1)
  python3 - "$dir" <<'PY'
import re, sys
fresh_dir = sys.argv[1]

def compare(name, fresh, committed, mask):
    a, b = mask(fresh), mask(committed)
    if a != b:
        sys.exit(f"{name}: analytic content differs from results/{name}")

def simulated_cells(text):
    # "| 0.851756 ± 0.003973    |" -> "| <simulated> |"
    return re.sub(r"\| \d+\.\d+ ± \d+\.\d+ *\|", "| <simulated> |", text)

def des_fields(text):
    return re.sub(r'"(simulated|half_width|within_ci)":[^,}]*', r'"\1":<des>', text)

for name, path, mask in [
    ("table5_reliability.txt", "table5_reliability.txt", simulated_cells),
    ("NSCALE_core.json", "results/NSCALE_core.json", des_fields),
]:
    fresh = open(f"{fresh_dir}/{path}", encoding="utf-8").read()
    committed = open(f"results/{name}", encoding="utf-8").read()
    compare(name, fresh, committed, mask)
print("table2_accuracy, fig4_sweeps, table3_states, ext_transient, table5 + nscale (analytic): byte-identical")
PY
  rm -rf "$dir"
}

gate_campaign() {
  # Runtime-fault smoke gate: a reduced two-seed campaign must run end to end
  # with telemetry, its report must pass schema/invariant validation, the
  # JSONL stream must tally exactly with the report, and — because telemetry
  # is observe-only — a telemetry-disabled rerun must produce a byte-identical
  # report. The wall-clock of both runs is printed so recording overhead
  # stays visible (the stream rides on the same deterministic computation).
  echo "== campaign smoke: 2-seed runtime fault-injection mini campaign =="
  local smoke_out="target/campaign-smoke.json"
  local smoke_tel="target/campaign-smoke.jsonl"
  local smoke_off="target/campaign-smoke-notelemetry.json"
  local t0 t_on t_off
  t0=$SECONDS
  cargo run -q --release -p mvml-bench --bin campaign -- \
    --smoke --out "$smoke_out" --telemetry "$smoke_tel" >/dev/null
  t_on=$((SECONDS - t0))
  cargo run -q --release -p mvml-bench --bin campaign -- \
    --validate "$smoke_out" --telemetry "$smoke_tel"
  t0=$SECONDS
  cargo run -q --release -p mvml-bench --bin campaign -- \
    --smoke --out "$smoke_off" --no-telemetry >/dev/null
  t_off=$((SECONDS - t0))
  cmp "$smoke_out" "$smoke_off" \
    || { echo "telemetry perturbed the campaign report" >&2; return 1; }
  echo "telemetry-on ${t_on}s vs telemetry-off ${t_off}s; reports byte-identical"
  rm -f "$smoke_out" "$smoke_tel" "$smoke_off"
}

gate_serve() {
  # Serve smoke gate: boot the TCP inference server on an ephemeral port,
  # drive a two-tenant mini load over the wire, and shut it down cleanly.
  # The final report must pass schema validation, the telemetry JSONL must be
  # non-empty valid JSON, and the *committed* results/BENCH_serve.json must
  # still parse against the bench schema (the perf gate later cross-checks
  # its deterministic half against a fresh run).
  echo "== serve smoke: 2-tenant TCP round trip on an ephemeral port =="
  local port_file="target/serve-smoke.port"
  local report="target/serve-smoke-report.json"
  local tel="target/serve-smoke.jsonl"
  rm -f "$port_file" "$report" "$tel"
  cargo build -q --release -p mvml-serve
  target/release/serve --shards 2 --port-file "$port_file" \
    --report-out "$report" --telemetry-out "$tel" &
  local serve_pid=$!
  for _ in $(seq 1 100); do
    [[ -s "$port_file" ]] && break
    kill -0 "$serve_pid" 2>/dev/null || { echo "serve died before binding" >&2; return 1; }
    sleep 0.1
  done
  [[ -s "$port_file" ]] || { echo "serve never wrote its port file" >&2; return 1; }
  local port
  port=$(<"$port_file")
  target/release/serve_load --connect "127.0.0.1:${port}" \
    --requests 6 --shutdown >/dev/null
  wait "$serve_pid" || { echo "serve exited non-zero" >&2; return 1; }
  python3 - "$report" "$tel" results/BENCH_serve.json <<'PY'
import json, sys
report_path, tel_path, bench_path = sys.argv[1:]
report = json.load(open(report_path))
assert report["schema"] == "mvml-serve-report-v2", report["schema"]
names = [t["tenant"] for t in report["tenants"]]
assert names == sorted(names) and len(names) >= 2, names
for t in report["tenants"]:
    assert t["decided"] + t["skipped"] + t["no_output"] + t["dropped"] == t["requests"], t
    assert t["slo_misses"] == t["skipped"] + t["no_output"] + t["dropped"], t
    assert t["requests"] == 6, t  # every admitted request is accounted
lines = [json.loads(l) for l in open(tel_path) if l.strip()]
assert lines, "telemetry stream is empty"
bench = json.load(open(bench_path))
assert bench["schema"] == "mvml-serve-bench-v2", bench["schema"]
assert {s["scenario"] for s in bench["scenarios"]} >= {"healthy", "faulted"}
for s in bench["scenarios"]:
    assert s["report"]["schema"] == "mvml-serve-report-v2", s["scenario"]
    for t in s["report"]["tenants"]:
        lat = t["round_latency"]
        assert lat["p50_rounds"] <= lat["p99_rounds"] <= lat["max_rounds"], t
print(f"serve report ok ({sum(t['requests'] for t in report['tenants'])} requests, "
      f"{len(lines)} telemetry records); committed BENCH_serve.json ok")
PY
  rm -f "$port_file" "$report" "$tel"
}

gate_chaos() {
  # Chaos smoke gate: the wire-chaos + rejuvenation campaign must be fully
  # deterministic — two smoke reruns AND a different shard count must emit
  # byte-identical artifacts — with zero transport panics, no leaked server
  # threads, every cell's measured availability within the stated tolerance
  # of its DSPN prediction, and the bystander tenant untouched.
  echo "== serve chaos smoke: wire faults + rejuvenation vs the DSPN model =="
  local a="target/chaos-smoke-a.json"
  local b="target/chaos-smoke-b.json"
  local s1="target/chaos-smoke-s1.json"
  cargo build -q --release -p mvml-serve
  target/release/serve_chaos --smoke --out "$a" >/dev/null
  target/release/serve_chaos --smoke --out "$b" >/dev/null
  target/release/serve_chaos --smoke --shards 1 --out "$s1" >/dev/null
  cmp "$a" "$b" \
    || { echo "chaos artifact is not stable across reruns" >&2; return 1; }
  cmp "$a" "$s1" \
    || { echo "chaos artifact depends on the shard count" >&2; return 1; }
  python3 - "$a" <<'PY'
import json, sys
chaos = json.load(open(sys.argv[1]))
assert chaos["schema"] == "mvml-serve-chaos-v1", chaos["schema"]
wire = chaos["wire"]
assert wire["all_clean"] and wire["transport_panics"] == 0, wire
assert wire["threads_joined"], wire
assert sum(r["injected"] for r in wire["census"]) == wire["injected"] > 0, wire
cells = chaos["cells"]
bad = [c["label"] for c in cells if not c["within_tolerance"]]
assert cells and not bad, bad
assert all(c["bystander_clean"] for c in cells), "bystander perturbed"
h = chaos["headline"]
assert h["proactive_availability"] >= h["reactive_availability"], h
print(f"chaos smoke ok ({wire['injected']} wire faults, {len(cells)} cells, "
      f"proactive gain {h['proactive_gain']:+.4f})")
PY
  rm -f "$a" "$b" "$s1"
}

gate_perf() {
  # Perf-regression gate: re-measure the benchmark summaries and fail when
  # any tracked metric loses >25% of its committed-baseline throughput, when
  # an absolute NN invariant breaks (int8 fast path below the 4× floor, the
  # Auto conv router losing to a fixed path, negative multi-core GEMM or 3v
  # perception scaling), or when the serve summary's deterministic accounting drifts
  # from the committed baseline.
  if [[ "${PERF_GATE:-1}" != "1" ]]; then
    echo "PERF_GATE=0: skipping the perf-regression gate"
    return 0
  fi
  echo "== perf gate: fresh benchmark summaries vs committed baselines =="
  cargo run -q --release -p mvml-bench --bin bench_summary -- \
    --out-dir target/perf-fresh >/dev/null
  cargo run -q --release -p mvml-serve --bin serve_load -- \
    --out target/perf-fresh/BENCH_serve.json >/dev/null
  cargo run -q --release -p mvml-bench --bin perf_gate -- \
    --baseline-dir results --fresh-dir target/perf-fresh
}

gate_tsan() {
  if cargo +nightly --version >/dev/null 2>&1 \
    && rustup component list --toolchain nightly 2>/dev/null \
       | grep -q '^rust-src.*(installed)'; then
    local host_target
    host_target=$(rustc -vV | sed -n 's/^host: //p')
    echo "== tsan: nn thread pool + avsim/serve pool users =="
    RUSTFLAGS="-Zsanitizer=thread" cargo +nightly test -q \
      -Zbuild-std --target "$host_target" -p mvml-nn --lib --tests
    RUSTFLAGS="-Zsanitizer=thread" cargo +nightly test -q \
      -Zbuild-std --target "$host_target" -p mvml-avsim --lib \
      replay_is_identical_for_any_thread_count
    RUSTFLAGS="-Zsanitizer=thread" cargo +nightly test -q \
      -Zbuild-std --target "$host_target" -p mvml-avsim -p mvml-serve \
      --test pool_reuse
  else
    echo "TSAN requested but nightly + rust-src are unavailable; skipping." >&2
    echo "(install with: rustup toolchain install nightly --component rust-src)" >&2
  fi
}

gate_miri() {
  if cargo miri --version >/dev/null 2>&1; then
    echo "== miri: nn kernel + thread-pool suite =="
    # -Zmiri-ignore-leaks: the persistent pool's workers live for the whole
    # process and are never joined, so they are still parked at exit.
    MIRIFLAGS="${MIRIFLAGS:--Zmiri-strict-provenance -Zmiri-ignore-leaks}" cargo miri test -p mvml-nn
  else
    echo "MIRI requested but the miri component is not installed; skipping." >&2
    echo "(the SIMD microkernels carry real unsafe now — see the census in" >&2
    echo " analyze-policy.toml; install with: rustup component add miri)" >&2
  fi
}

# ---------------------------------------------------------------------------
# Gate selection: GATES picks an explicit subset; otherwise the default lane
# runs, with tsan/miri appended only when their knobs opt in.
# ---------------------------------------------------------------------------
if [[ -n "${GATES:-}" ]]; then
  SELECTED="${GATES//,/ }"
  for g in $SELECTED; do
    case " $KNOWN_GATES " in
      *" $g "*) ;;
      *) echo "ci.sh: unknown gate '$g' (known: $KNOWN_GATES)" >&2; exit 2 ;;
    esac
  done
else
  SELECTED="fmt clippy docs test analyze dspn_artefacts campaign serve chaos perf"
  [[ "${TSAN:-0}" == "1" ]] && SELECTED+=" tsan"
  [[ "${MIRI:-0}" == "1" ]] && SELECTED+=" miri"
fi

for g in $SELECTED; do
  run_gate "$g"
done
echo "ci.sh: all gates passed (${SECONDS}s total)"
