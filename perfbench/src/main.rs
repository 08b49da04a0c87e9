//! The repository benchmark: four workloads over the public APIs of
//! `mvml-serve`, `mvml-core`, `mvml-avsim`, `mvml-nn` and `mvml-petri`.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload avsim-drive --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no spans recorded.
//! `--trace 1` is the separate traced run: the named workload alternates
//! untraced and traced operations on the same inputs (the difference is the
//! tracing overhead), the other three workloads run traced for a short
//! phase each, and every NN model's layers are timed one by one, so every
//! per-layer metric is reported by every traced run. Spans are kept in
//! memory and written to `perfbench/traces/` when the run ends.
//!
//! Human-readable lines go to standard error; the last line of standard
//! output is the JSON result.

mod avsim_drive;
mod dspn_sweep;
mod measure;
mod nn_layers;
mod serve_batch;
mod serve_tcp;
mod signs;

use measure::{Outcome, Tracer};
use std::fmt::Write as _;
use std::process::ExitCode;

const WORKLOADS: [&str; 4] = ["serve-tcp", "serve-batch", "avsim-drive", "dspn-sweep"];
/// Seconds each other workload runs for in a traced run.
const COMPANION_SECONDS: f64 = 1.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => return Err(format!("bad argument {flag} {value}")),
        }
    }
    Ok(Args {
        workload: workload
            .ok_or("--workload must be one of serve-tcp, serve-batch, avsim-drive, dspn-sweep")?,
        seed: seed.ok_or("--seed must be a whole number")?,
        seconds: seconds.ok_or("--seconds must be a positive number")?,
        trace: trace.ok_or("--trace must be 0 or 1")?,
    })
}

fn measure(workload: &str, seed: u64, seconds: f64) -> Outcome {
    match workload {
        "serve-tcp" => serve_tcp::measure(seed, seconds),
        "serve-batch" => serve_batch::measure(seed, seconds),
        "avsim-drive" => avsim_drive::measure(seed, seconds),
        _ => dspn_sweep::measure(seed, seconds),
    }
}

fn trace(workload: &str, seed: u64, seconds: f64, own: bool, tr: &mut Tracer) -> Outcome {
    match workload {
        "serve-tcp" => serve_tcp::trace(seed, seconds, own, tr),
        "serve-batch" => serve_batch::trace(seed, seconds, own, tr),
        "avsim-drive" => avsim_drive::trace(seed, seconds, own, tr),
        _ => dspn_sweep::trace(seed, seconds, own, tr),
    }
}

/// The traced run: the named workload first, then the others briefly,
/// then the NN layer probe. Correctness and counts come from all of them.
fn traced(args: &Args) -> Outcome {
    let mut merged = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let mut spans = String::new();
    let order = std::iter::once(args.workload.as_str())
        .chain(WORKLOADS.into_iter().filter(|w| *w != args.workload));
    for w in order {
        let own = w == args.workload;
        let mut tr = Tracer::new(true);
        let seconds = if own { args.seconds } else { COMPANION_SECONDS };
        let out = trace(w, args.seed, seconds, own, &mut tr);
        tr.write_jsonl(&mut spans, w);
        if own {
            merged.attempted = out.attempted;
            merged.failed = out.failed;
        }
        merged.correct &= out.correct;
        merged.errors.extend(out.errors);
        merged.metrics.extend(out.metrics);
    }
    let mut tr = Tracer::new(true);
    let out = nn_layers::trace(args.seed, &mut tr);
    tr.write_jsonl(&mut spans, "nn-layers");
    merged.metrics.extend(out.metrics);

    let dir = std::path::Path::new("perfbench/traces");
    let path = dir.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, spans)) {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
    }
    merged
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Crash faults are injected panics caught inside the runtime.
    mvml_serve::install_quiet_panic_hook();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {} | nproc {nproc}, detected threads {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        mvml_nn::parallel::thread_count()
    );
    let out = if args.trace {
        traced(&args)
    } else {
        measure(&args.workload, args.seed, args.seconds)
    };

    let mut correct = out.correct;
    let mut json = String::new();
    for m in &out.metrics {
        eprintln!(
            "{:<40} {:>14.6} {:<10} (n={})",
            m.name, m.value, m.unit, m.samples
        );
        if !m.value.is_finite() {
            correct = false;
            eprintln!("perfbench: metric {} is not finite", m.name);
        }
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        if !json.is_empty() {
            json.push(',');
        }
        let _ = write!(
            json,
            "\"{}\":{{\"value\":{value:?},\"unit\":\"{}\"}}",
            m.name, m.unit
        );
    }
    for e in &out.errors {
        eprintln!("perfbench: correctness check failed: {e}");
    }
    eprintln!(
        "attempted {} failed {} correct {correct}",
        out.attempted, out.failed
    );
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{json}}}}}",
        out.attempted.max(1),
        out.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
