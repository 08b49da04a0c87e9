//! Measured autotuning for the GEMM dispatch layer.
//!
//! [`Tuning`] collects every *safely tunable* knob of the
//! [`crate::gemm`] kernel: cache block sizes (`MC`, `NC`), the stream-path
//! row cutoff and the parallel fan-out threshold. None of these change
//! numeric results — the per-element accumulation order is pinned by the
//! fixed `KC` constant and the KC-blocked loop order in `gemm` (see its
//! determinism note) — so a host is free to tune them aggressively without
//! invalidating any committed, byte-compared artifact. The
//! [`crate::layers::Conv2d`] direct-vs-GEMM route is deliberately *not*
//! here: the two paths sum in different orders, so its thresholds are
//! constants in `layers::conv`.
//!
//! Three sources feed [`active`], in priority order:
//!
//! 1. a scoped [`with_tuning`] override (tests, the autotuner itself),
//! 2. a tuning file named by the `MVML_TUNE` environment variable,
//! 3. the built-in [`Tuning::default`], chosen to be good on common
//!    x86-64/aarch64 hosts.
//!
//! The persistence format ([`Tuning::to_config_string`] /
//! [`Tuning::parse_config`]) is deterministic: keys sorted, one
//! `key = value` per line, so re-running the autotuner on an identical
//! host produces a byte-identical file. Missing keys parse as their
//! defaults (forward compatibility); unknown keys are errors (typos fail
//! loudly).
//!
//! [`autotune`] performs the actual measurement: it times candidate block
//! sizes and the stream/packed crossover on representative shapes,
//! returning the winning [`Tuning`] plus the raw samples for reporting.

use crate::gemm;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Safely tunable parameters of the GEMM kernel.
///
/// Every field may vary per host without changing any computed value; see
/// the module docs for why.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Tuning {
    /// Rows of packed `A` per cache block (`MC`).
    pub mc: usize,
    /// Columns of packed `B` per cache block (`NC`).
    pub nc: usize,
    /// Largest `m` routed to the stream path (packed `A`, in-place `B`).
    /// `0` disables the stream path entirely.
    pub stream_max_rows: usize,
    /// Minimum `m·k·n` before a GEMM fans out over the shared pool. It
    /// gates top-level GEMMs only (training, benchmark rows): a GEMM
    /// inside another fan-out (a serve shard, a perception version) has a
    /// thread budget of 1 and always runs inline.
    pub parallel_macs: usize,
}

impl Default for Tuning {
    fn default() -> Self {
        Tuning {
            mc: 64,
            nc: 256,
            stream_max_rows: 8,
            parallel_macs: 1 << 17,
        }
    }
}

impl Tuning {
    /// Renders the deterministic persistence format: a comment header,
    /// then one `key = value` line per field in sorted key order.
    pub fn to_config_string(&self) -> String {
        format!(
            "# mvml-nn tuning (written by nn::tune; read via MVML_TUNE)\n\
             mc = {}\n\
             nc = {}\n\
             parallel_macs = {}\n\
             stream_max_rows = {}\n",
            self.mc, self.nc, self.parallel_macs, self.stream_max_rows,
        )
    }

    /// Parses the persistence format. Blank lines and `#` comments are
    /// skipped; missing keys keep their defaults; unknown keys and
    /// malformed values are errors.
    pub fn parse_config(text: &str) -> Result<Tuning, String> {
        let mut t = Tuning::default();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("line {}: expected `key = value`", lineno + 1))?;
            let value: usize = value
                .trim()
                .parse()
                .map_err(|e| format!("line {}: bad value: {e}", lineno + 1))?;
            match key.trim() {
                "mc" => t.mc = value,
                "nc" => t.nc = value,
                "stream_max_rows" => t.stream_max_rows = value,
                "parallel_macs" => t.parallel_macs = value,
                other => return Err(format!("line {}: unknown key `{other}`", lineno + 1)),
            }
        }
        if t.mc == 0 || t.nc == 0 {
            return Err("mc and nc must be positive".to_string());
        }
        Ok(t)
    }
}

/// Scoped override state for [`with_tuning`].
static OVERRIDE: Mutex<Option<Tuning>> = Mutex::new(None);
/// Fast-path flag: true only while a [`with_tuning`] scope is active.
static OVERRIDE_ACTIVE: AtomicBool = AtomicBool::new(false);
/// Serializes [`with_tuning`] callers (same discipline as
/// [`crate::parallel::with_thread_count`]; not reentrant).
static GUARD: Mutex<()> = Mutex::new(());

/// The tuning every GEMM dispatch decision resolves on call: an
/// active [`with_tuning`] override, else the process default (`MVML_TUNE`
/// file when set, built-in defaults otherwise).
///
/// # Panics
///
/// Panics on first call if `MVML_TUNE` names an unreadable or malformed
/// file — a misconfigured perf knob should fail loudly, not silently run
/// untuned.
pub fn active() -> Tuning {
    if OVERRIDE_ACTIVE.load(Ordering::Relaxed) {
        if let Some(t) = *OVERRIDE.lock().unwrap_or_else(|e| e.into_inner()) {
            return t;
        }
    }
    static DEFAULT: OnceLock<Tuning> = OnceLock::new();
    *DEFAULT.get_or_init(|| match std::env::var("MVML_TUNE") {
        Ok(path) => {
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("MVML_TUNE={path}: cannot read: {e}"));
            Tuning::parse_config(&text)
                .unwrap_or_else(|e| panic!("MVML_TUNE={path}: parse error: {e}"))
        }
        Err(_) => Tuning::default(),
    })
}

/// Restores the previous override even if the closure panics.
struct RestoreTuning(Option<Tuning>);

impl Drop for RestoreTuning {
    fn drop(&mut self) {
        *OVERRIDE.lock().unwrap_or_else(|e| e.into_inner()) = self.0;
        OVERRIDE_ACTIVE.store(self.0.is_some(), Ordering::SeqCst);
    }
}

/// Runs `f` with [`active`] forced to `t`. Process-wide (affects
/// concurrent GEMMs), serialized against other `with_tuning` callers, and
/// **not reentrant** — nesting deadlocks by design rather than silently
/// interleaving overrides. Numeric results never depend on the tuning
/// (conv routing included: its thresholds are constants), so cross-thread
/// interference is a performance effect only.
pub fn with_tuning<R>(t: Tuning, f: impl FnOnce() -> R) -> R {
    let _guard = GUARD.lock().unwrap_or_else(|e| e.into_inner());
    let prev = {
        let mut slot = OVERRIDE.lock().unwrap_or_else(|e| e.into_inner());
        let prev = *slot;
        *slot = Some(t);
        prev
    };
    OVERRIDE_ACTIVE.store(true, Ordering::SeqCst);
    let _restore = RestoreTuning(prev);
    f()
}

/// One timing observation taken by [`autotune`].
#[derive(Clone, Debug)]
pub struct Sample {
    /// Which decision this sample informs (e.g. `"block(mc=64,nc=256)"`).
    pub label: String,
    /// Nanoseconds per iteration, best-of-repeats.
    pub ns_per_iter: f64,
}

/// The result of a measurement run: the winning [`Tuning`] plus every
/// raw sample, for reporting and for the perf-bench job summary.
#[derive(Clone, Debug)]
pub struct AutotuneOutcome {
    /// The tuning the measurements selected.
    pub tuning: Tuning,
    /// All observations, in measurement order.
    pub samples: Vec<Sample>,
}

/// Times `f` over `iters` iterations after a short warmup, best of three
/// repeats (robust to scheduler noise without long runs).
fn time_ns<R>(iters: usize, mut f: impl FnMut() -> R) -> f64 {
    std::hint::black_box(f());
    std::hint::black_box(f());
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(f());
        }
        let ns = t.elapsed().as_nanos() as f64 / iters as f64;
        if ns < best {
            best = ns;
        }
    }
    best
}

fn fill(len: usize, seed: u64) -> Vec<f32> {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            ((x >> 40) as f32 / (1u64 << 24) as f32) - 0.5
        })
        .collect()
}

/// Measures this host and returns the tuning it prefers.
///
/// `budget_iters` scales every timing loop; `12` is a good quick setting
/// (~a second), larger values average out more scheduler noise. The
/// search is greedy and per-knob: cache blocks first (packed path),
/// then the stream/packed row crossover.
pub fn autotune(budget_iters: usize) -> AutotuneOutcome {
    let iters = budget_iters.max(3);
    let mut samples = Vec::new();
    let mut chosen = Tuning::default();

    // --- MC × NC cache blocks, packed path, single thread ---
    let (m, k, n) = (192, 256, 192);
    let a = fill(m * k, 1);
    let b = fill(k * n, 2);
    let mut c = vec![0.0f32; m * n];
    let mut best = f64::INFINITY;
    for mc in [32, 64, 128] {
        for nc in [128, 256, 512] {
            let t = Tuning {
                mc,
                nc,
                stream_max_rows: 0,
                parallel_macs: usize::MAX,
            };
            let ns = with_tuning(t, || time_ns(iters, || gemm::gemm(m, k, n, &a, &b, &mut c)));
            samples.push(Sample {
                label: format!("block(mc={mc},nc={nc})"),
                ns_per_iter: ns,
            });
            if ns < best {
                best = ns;
                chosen.mc = mc;
                chosen.nc = nc;
            }
        }
    }

    // --- stream/packed crossover: largest m where streaming B wins ---
    // Shape family matches inference-time im2col products: a handful of
    // output rows against a wide column dimension.
    let (k, n) = (128, 2048);
    let b = fill(k * n, 3);
    let mut cutoff = 0usize;
    for m in [2usize, 4, 6, 8, 12, 16, 24] {
        let a = fill(m * k, 4 + m as u64);
        let mut c = vec![0.0f32; m * n];
        let stream = with_tuning(
            Tuning {
                stream_max_rows: m,
                parallel_macs: usize::MAX,
                ..chosen
            },
            || time_ns(iters, || gemm::gemm(m, k, n, &a, &b, &mut c)),
        );
        let packed = with_tuning(
            Tuning {
                stream_max_rows: 0,
                parallel_macs: usize::MAX,
                ..chosen
            },
            || time_ns(iters, || gemm::gemm(m, k, n, &a, &b, &mut c)),
        );
        samples.push(Sample {
            label: format!("stream(m={m})"),
            ns_per_iter: stream,
        });
        samples.push(Sample {
            label: format!("packed(m={m})"),
            ns_per_iter: packed,
        });
        if stream <= packed {
            cutoff = m;
        } else {
            break;
        }
    }
    chosen.stream_max_rows = cutoff.max(1);

    AutotuneOutcome {
        tuning: chosen,
        samples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_round_trips_byte_identically() {
        let t = Tuning {
            mc: 128,
            nc: 512,
            stream_max_rows: 6,
            parallel_macs: 99,
        };
        let text = t.to_config_string();
        let back = Tuning::parse_config(&text).expect("round trip");
        assert_eq!(back, t);
        // Deterministic rendering: render(parse(render(t))) == render(t).
        assert_eq!(back.to_config_string(), text);
    }

    #[test]
    fn parse_defaults_missing_and_rejects_unknown() {
        let t = Tuning::parse_config("# only one key\nmc = 32\n").expect("partial config");
        assert_eq!(t.mc, 32);
        assert_eq!(t.nc, Tuning::default().nc);
        assert!(Tuning::parse_config("bogus_key = 1\n").is_err());
        assert!(Tuning::parse_config("mc = fast\n").is_err());
        assert!(Tuning::parse_config("mc = 0\n").is_err());
        assert!(Tuning::parse_config("just words\n").is_err());
    }

    #[test]
    fn with_tuning_overrides_and_restores() {
        let base = active();
        let forced = Tuning {
            stream_max_rows: 77,
            ..base
        };
        let seen = with_tuning(forced, active);
        assert_eq!(seen.stream_max_rows, 77);
        assert_eq!(active(), base);
    }

    #[test]
    fn with_tuning_restores_on_panic() {
        let base = active();
        let result = std::panic::catch_unwind(|| {
            with_tuning(
                Tuning {
                    stream_max_rows: 55,
                    ..base
                },
                || panic!("boom"),
            )
        });
        assert!(result.is_err());
        assert_eq!(active(), base);
    }
}
