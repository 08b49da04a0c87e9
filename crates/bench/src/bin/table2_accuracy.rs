//! Regenerates the paper's **Table II**: test accuracy of the three model
//! versions, healthy and compromised, plus the derived parameters
//! `p`, `p'`, `α` (Eqs. 6–9).
//!
//! Paper setting: AlexNet / ResNet50 / LeNet trained on GTSRB, compromised
//! via PyTorchFI `random_weight_inj(1, -10, 30)` with per-model seeds.
//! Here: the three diverse architectures of `mvml-nn` trained on the
//! synthetic sign dataset, compromised the same way (see DESIGN.md for the
//! substitution argument).
//!
//! Usage: `cargo run -p mvml-bench --release --bin table2_accuracy [--quick]`

// Experiment drivers, not library code: when a solver or file write
// fails there is no caller to recover, so aborting loudly via
// unwrap/expect is the right behaviour (workspace policy sets these
// lints to warn; CI promotes warnings to errors).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use mvml_bench::calibrate::{calibrate, quantization_impact, CalibrationConfig};
use mvml_bench::format::{f, render_table};
use mvml_core::reliability::state_reliability;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let cfg = if quick {
        CalibrationConfig::quick()
    } else {
        CalibrationConfig::default()
    };
    eprintln!(
        "calibrating: {} classes x {} train/class, {} epochs{}",
        cfg.sign.classes,
        cfg.train_per_class,
        cfg.train.epochs,
        if quick { " (quick mode)" } else { "" }
    );
    let cal = calibrate(&cfg);

    println!("Table II — accuracy of healthy and compromised models\n");
    let paper = [
        ("AlexNet", 0.960095012, 0.755423595),
        ("ResNet50", 0.920981789, 0.772050673),
        ("LeNet", 0.930245447, 0.751306413),
    ];
    let rows: Vec<Vec<String>> = cal
        .models
        .iter()
        .zip(paper)
        .map(|(m, (paper_name, ph, pc))| {
            vec![
                format!("{} (paper: {paper_name})", m.name),
                f(m.healthy_accuracy, 4),
                f(m.compromised_accuracy, 4),
                format!("{}", m.injection_seed),
                format!("{ph:.4} / {pc:.4}"),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "Model",
                "Acc. healthy",
                "Acc. compromised",
                "inj. seed",
                "paper (H / C)"
            ],
            &rows
        )
    );

    println!("Derived reliability-model parameters (paper values in brackets):\n");
    println!("  p      = {:.9}   [0.062892584]  (Eq. 6)", cal.p);
    println!("  p'     = {:.9}   [0.240406440]  (Eq. 7)", cal.p_prime);
    println!(
        "  α12/13/23 = {:.4} / {:.4} / {:.4}              (Eq. 8)",
        cal.alpha_pairs[0], cal.alpha_pairs[1], cal.alpha_pairs[2]
    );
    println!("  α      = {:.9}   [0.369952542]  (Eq. 9)", cal.alpha);

    // Int8 deployment: compile each calibrated model into the int8 plan the
    // fast path runs (activation scales from the training split), re-measure
    // accuracy, and fold the measured drop into p/p' so the speed/reliability
    // trade-off of the fast path is visible in the same DSPN terms.
    println!("\nInt8 post-training quantization (nn::quant) — measured impact:\n");
    let impact = quantization_impact(&cal, 64);
    let qrows: Vec<Vec<String>> = impact
        .rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                f(r.f32_accuracy, 4),
                f(r.int8_accuracy, 4),
                f(r.f32_accuracy - r.int8_accuracy, 4),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["Model", "Acc. f32", "Acc. int8", "drop"], &qrows)
    );
    let params = cal.system_params();
    let qparams = impact.system_params(&cal);
    let r_f32 = state_reliability(3, 0, &params);
    let r_int8 = state_reliability(3, 0, &qparams);
    println!(
        "  Δp     = {:.9}  (mean accuracy drop, floored at 0)",
        impact.delta_p
    );
    println!(
        "  all-healthy 3v reliability: f32 {:.9} -> int8 {:.9} (Δ {:+.2e})",
        r_f32,
        r_int8,
        r_int8 - r_f32
    );
}
