//! Emits `results/BENCH_petri.json` and `results/BENCH_nn.json` (or the
//! same files under `--out-dir <dir>` — the perf gate measures into a
//! scratch directory and compares against the committed baselines).
//!
//! The petri summary times tangible reachability and the steady-state
//! backends (dense elimination vs Gauss–Seidel) on the same chain — the
//! six-version proactive net at Erlang-8 — recording the exploration time,
//! each backend's solve time, residual and state count, plus DES
//! throughput on the unexpanded net.
//!
//! The NN summary covers kernel-level and pipeline-level timings for the
//! GEMM rewrite — direct-vs-GEMM convolution, the blocked GEMM at several
//! worker counts, and single- vs three-version perception FPS at several
//! worker counts (the Table VIII overhead angle).
//!
//! Numbers are medians of wall-clock samples on the current host; the host
//! core count is recorded alongside so single-core results (where extra
//! worker threads cannot help wall-clock) read honestly.

// Experiment drivers, not library code: when a solver or file write
// fails there is no caller to recover, so aborting loudly via
// unwrap/expect is the right behaviour (workspace policy sets these
// lints to warn; CI promotes warnings to errors).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use mvml_bench::summary::{nn_summary, petri_summary};

fn main() {
    let mut out_dir = String::from("results");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out-dir" => out_dir = args.next().expect("--out-dir needs a path"),
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    std::fs::create_dir_all(&out_dir).expect("output dir");

    println!("timing DSPN reachability and steady-state backends (6v proactive, Erlang-8)...");
    let petri = petri_summary();
    if let Some(ns) = petri.reach_ns {
        println!("reachability: {ns:.2e} ns/explore");
    }
    for row in &petri.steady_state_solves {
        println!(
            "{} over {} states: {:.2e} ns/solve, residual {:.2e}",
            row.backend, row.states, row.ns_per_solve, row.residual
        );
    }
    println!(
        "des 100k s horizon: {:.2e} ns/run",
        petri.des_simulate_100k_s_ns
    );
    let json = serde_json::to_string(&petri).expect("serialise petri summary");
    let petri_path = format!("{out_dir}/BENCH_petri.json");
    std::fs::write(&petri_path, json).expect("write BENCH_petri.json");
    println!("wrote {petri_path}");

    println!("training detector bank (reduced schedule)...");
    let summary = nn_summary();

    println!(
        "host: {} cores detected, {} workers effective{}",
        summary.host_cores,
        summary.default_threads,
        summary
            .thread_cap
            .map_or(String::new(), |c| format!(" (MVML_THREADS={c})"))
    );
    for row in &summary.conv_forward_batch32 {
        println!(
            "{}: direct {:.0} ns, gemm {:.0} ns, auto {:.0} ns, speedup {:.2}x",
            row.shape, row.direct_ns, row.gemm_ns, row.auto_ns, row.speedup
        );
    }
    for row in &summary.gemm_256x256x256 {
        println!(
            "gemm 256^3 @ {} threads: {:.0} ns/iter",
            row.threads, row.ns_per_iter
        );
    }
    for row in &summary.perception_fps {
        println!(
            "perception @ {} threads: 1v {:.1} fps, 3v {:.1} fps, cost factor {:.2}",
            row.threads, row.single_v_fps, row.three_v_fps, row.three_v_cost_factor
        );
    }
    if let Some(row) = &summary.perception_int8 {
        println!(
            "perception int8 fast path: 1v {:.1} fps, 3v {:.1} fps, {:.2}x vs f32 @1t",
            row.single_v_fps, row.three_v_fps, row.speedup_vs_f32
        );
    }

    let json = serde_json::to_string(&summary).expect("serialise summary");
    let nn_path = format!("{out_dir}/BENCH_nn.json");
    std::fs::write(&nn_path, json).expect("write BENCH_nn.json");
    println!("wrote {nn_path}");
}
