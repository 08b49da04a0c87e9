//! Measures this host's preferred GEMM tuning (`mvml_nn::tune`) and
//! writes the deterministic tuning file consumed via `MVML_TUNE`, plus a
//! per-candidate sample table for the perf-bench job summary.
//!
//! Usage (what the CI perf-bench lane runs):
//!   cargo run --release -p mvml-bench --bin autotune -- \
//!       --out target/perf-fresh/TUNE_host.txt
//!
//! The persistence format is byte-deterministic for a given winning
//! tuning (sorted keys, one `key = value` per line), so re-running on an
//! identical host converges to an identical file. The tuning only moves
//! GEMM cache block sizes and dispatch thresholds — never any computed
//! value; the conv direct-vs-GEMM route, which does change bits, is fixed
//! in `mvml_nn::layers::conv` — so adopting (or discarding) the file cannot
//! invalidate committed, byte-compared artifacts.

// Experiment drivers, not library code: when a measurement or file write
// fails there is no caller to recover, so aborting loudly via
// unwrap/expect is the right behaviour (workspace policy sets these
// lints to warn; CI promotes warnings to errors).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use mvml_bench::format::render_table;
use mvml_nn::tune::{autotune, Tuning};

fn main() {
    let mut out = String::from("target/perf-fresh/TUNE_host.txt");
    let mut iters = 12usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out = args.next().expect("--out needs a path"),
            "--iters" => {
                iters = args
                    .next()
                    .expect("--iters needs a count")
                    .parse()
                    .expect("--iters must be a positive integer");
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }

    println!("autotuning GEMM blocks and stream crossover ({iters} iters/candidate)...");
    let outcome = autotune(iters);

    let rows: Vec<Vec<String>> = outcome
        .samples
        .iter()
        .map(|s| vec![s.label.clone(), format!("{:.0}", s.ns_per_iter)])
        .collect();
    println!("{}", render_table(&["candidate", "ns/iter"], &rows));

    let default = Tuning::default();
    let chosen = outcome.tuning;
    println!(
        "chosen: mc={} nc={} stream_max_rows={}{}",
        chosen.mc,
        chosen.nc,
        chosen.stream_max_rows,
        if chosen == default {
            " (matches built-in defaults)"
        } else {
            ""
        }
    );

    if let Some(dir) = std::path::Path::new(&out).parent() {
        std::fs::create_dir_all(dir).expect("output dir");
    }
    std::fs::write(&out, chosen.to_config_string()).expect("write tuning file");
    println!("wrote {out} (adopt with MVML_TUNE={out})");
}
