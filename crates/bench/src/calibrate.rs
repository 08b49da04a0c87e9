//! The Table II calibration pipeline: train three diverse classifiers on
//! the synthetic sign dataset, produce compromised versions by seed-searched
//! weight injection, and derive the reliability-model parameters
//! `p`, `p'`, `α` (the paper's Eqs. 6–9).

use mvml_core::SystemParams;
use mvml_faultinject::{random_weight_inj, undo};
use mvml_nn::metrics::{alpha_mean, alpha_pair, error_set};
use mvml_nn::models::three_versions;
use mvml_nn::parallel;
use mvml_nn::quant::{activation_scales, Int8Plan};
use mvml_nn::signs::{generate, SignConfig};
use mvml_nn::train::{train_classifier, TrainConfig};
use mvml_nn::{Dataset, Sequential};

/// Configuration of the calibration run.
#[derive(Debug, Clone)]
pub struct CalibrationConfig {
    /// Dataset generator settings.
    pub sign: SignConfig,
    /// Training samples per class.
    pub train_per_class: usize,
    /// Test samples per class.
    pub test_per_class: usize,
    /// Classifier training hyper-parameters.
    pub train: TrainConfig,
    /// PyTorchFI injection range for compromised versions (the paper's
    /// `(-10, 30)` on layer 1).
    pub injection_range: (f32, f32),
    /// Accuracy band a compromised version must land in (the paper's
    /// compromised models cluster around 0.75).
    pub target_band: (f64, f64),
    /// Seed-search budget per model.
    pub max_seeds: u64,
    /// Evaluation batch size.
    pub batch: usize,
}

impl Default for CalibrationConfig {
    fn default() -> Self {
        CalibrationConfig {
            sign: SignConfig::default(),
            train_per_class: 120,
            test_per_class: 50,
            train: TrainConfig {
                epochs: 24,
                batch_size: 128,
                lr: 0.06,
                lr_decay: 0.93,
                ..TrainConfig::default()
            },
            injection_range: (-10.0, 30.0),
            target_band: (0.60, 0.85),
            max_seeds: 400,
            batch: 128,
        }
    }
}

impl CalibrationConfig {
    /// A much smaller configuration for tests and the quickstart example.
    pub fn quick() -> Self {
        CalibrationConfig {
            sign: SignConfig {
                classes: 10,
                ..SignConfig::default()
            },
            train_per_class: 40,
            test_per_class: 20,
            train: TrainConfig {
                epochs: 6,
                batch_size: 64,
                lr: 0.08,
                ..TrainConfig::default()
            },
            target_band: (0.30, 0.92),
            max_seeds: 150,
            ..CalibrationConfig::default()
        }
    }
}

/// Per-model calibration result (one row of the paper's Table II).
#[derive(Debug, Clone)]
pub struct ModelCalibration {
    /// Architecture name.
    pub name: String,
    /// Test accuracy of the healthy model.
    pub healthy_accuracy: f64,
    /// Test accuracy after the seed-selected weight fault.
    pub compromised_accuracy: f64,
    /// The injection seed that produced the compromised version.
    pub injection_seed: u64,
}

/// Full calibration output: the Table II rows plus the derived parameters.
#[derive(Debug, Clone)]
pub struct Calibration {
    /// Per-model results in `three_versions` order.
    pub models: Vec<ModelCalibration>,
    /// Healthy output-failure probability `p` (Eq. 6).
    pub p: f64,
    /// Compromised output-failure probability `p'` (Eq. 7).
    pub p_prime: f64,
    /// Pairwise dependencies `α_{1,2}, α_{1,3}, α_{2,3}` (Eq. 8).
    pub alpha_pairs: [f64; 3],
    /// Mean dependency `α` (Eq. 9).
    pub alpha: f64,
    /// The trained healthy models (for downstream empirical checks).
    pub trained_models: Vec<Sequential>,
    /// The training set (int8 activation calibration draws from it).
    pub train: Dataset,
    /// The held-out test set.
    pub test: Dataset,
}

impl Calibration {
    /// The calibrated parameters merged into a [`SystemParams`] (timing
    /// parameters keep the paper's Table IV defaults).
    pub fn system_params(&self) -> SystemParams {
        SystemParams {
            p: self.p,
            p_prime: self.p_prime,
            alpha: self.alpha,
            ..SystemParams::paper_table_iv()
        }
    }
}

/// Runs the full calibration pipeline.
///
/// # Panics
///
/// Panics if the seed search cannot land a compromised version inside the
/// target band for some model (widen the band or the seed budget).
pub fn calibrate(cfg: &CalibrationConfig) -> Calibration {
    let train = generate(&cfg.sign, cfg.sign.classes * cfg.train_per_class, 0xA11CE);
    let test = generate(&cfg.sign, cfg.sign.classes * cfg.test_per_class, 0xB0B);

    let models = three_versions(cfg.sign.image_size, cfg.sign.classes, cfg.train.seed);
    // Each version trains and seed-searches independently against the shared
    // (read-only) datasets, so the three calibrations fan out over the
    // shared pool; `parallel::map` preserves model order, so the result is
    // identical for any thread count.
    let calibrated = parallel::map(models, |mut model| {
        let name = model.model_name().to_string();
        let _ = train_classifier(&mut model, &train, &cfg.train);
        let errors = error_set(&mut model, &test, cfg.batch);
        let healthy_accuracy =
            1.0 - errors.iter().filter(|&&e| e).count() as f64 / errors.len() as f64;

        let (lo, hi) = cfg.injection_range;
        let (band_lo, band_hi) = cfg.target_band;
        // The search evaluates hundreds of candidate seeds; score them on a
        // subsample of the test set, then re-measure the winner on the full
        // set (the subsample only has to be accurate enough to hit a wide
        // band).
        let search_len = (test.len() / 4).clamp(1, 512);
        let search_idx: Vec<usize> = (0..search_len).collect();
        let (search_x, search_y) = test.batch(&search_idx);
        let search_set = Dataset::new(search_x, search_y, test.num_classes());
        let batch = cfg.batch;
        let subsample_accuracy = |m: &mut Sequential| {
            let errs = error_set(m, &search_set, batch);
            1.0 - errs.iter().filter(|&&e| e).count() as f64 / errs.len() as f64
        };
        // Most single-weight faults are either harmless or catastrophic;
        // landing inside the band can take many seeds (the paper needed
        // seed 183 for LeNet). If the budget runs out, fall back to the
        // seed whose degraded accuracy came closest to the band centre
        // while still clearly below healthy.
        let centre = (band_lo + band_hi) / 2.0;
        let mut nearest: Option<(u64, f64)> = None;
        let mut found = None;
        for seed in 0..cfg.max_seeds {
            let record = random_weight_inj(&mut model, 0, lo, hi, seed);
            let accuracy = subsample_accuracy(&mut model);
            undo(&mut model, &record);
            // A valid compromised version must be inside the band AND
            // clearly below the healthy accuracy (wide bands may include
            // the healthy level for weakly-trained quick configs).
            if accuracy >= band_lo && accuracy <= band_hi.min(healthy_accuracy - 0.03) {
                found = Some((seed, accuracy));
                break;
            }
            if accuracy < healthy_accuracy - 0.03
                && nearest.is_none_or(|(_, best)| (accuracy - centre).abs() < (best - centre).abs())
            {
                nearest = Some((seed, accuracy));
            }
        }
        let (seed, _) = found.or(nearest).unwrap_or_else(|| {
            panic!("no injection seed degraded `{name}` below its healthy accuracy")
        });
        let found = mvml_faultinject::SeedSearchResult {
            seed,
            accuracy: 0.0,
        };
        // Re-measure the chosen seed over the full test set.
        let record = random_weight_inj(&mut model, 0, lo, hi, found.seed);
        let errs = error_set(&mut model, &test, batch);
        let compromised_accuracy =
            1.0 - errs.iter().filter(|&&e| e).count() as f64 / errs.len() as f64;
        undo(&mut model, &record);
        let row = ModelCalibration {
            name,
            healthy_accuracy,
            compromised_accuracy,
            injection_seed: found.seed,
        };
        (model, row, errors)
    });
    let mut models = Vec::with_capacity(calibrated.len());
    let mut rows = Vec::with_capacity(calibrated.len());
    let mut healthy_error_sets = Vec::with_capacity(calibrated.len());
    for (model, row, errors) in calibrated {
        models.push(model);
        rows.push(row);
        healthy_error_sets.push(errors);
    }

    let p = 1.0 - rows.iter().map(|r| r.healthy_accuracy).sum::<f64>() / rows.len() as f64;
    let p_prime =
        1.0 - rows.iter().map(|r| r.compromised_accuracy).sum::<f64>() / rows.len() as f64;
    let alpha_pairs = [
        alpha_pair(&healthy_error_sets[0], &healthy_error_sets[1]),
        alpha_pair(&healthy_error_sets[0], &healthy_error_sets[2]),
        alpha_pair(&healthy_error_sets[1], &healthy_error_sets[2]),
    ];
    let alpha = alpha_mean(&healthy_error_sets);

    Calibration {
        models: rows,
        p,
        p_prime,
        alpha_pairs,
        alpha,
        trained_models: models,
        train,
        test,
    }
}

/// One model's measured int8 quantization cost.
#[derive(Debug, Clone)]
pub struct QuantizedModelRow {
    /// Architecture name.
    pub name: String,
    /// Healthy f32 test accuracy (from the Table II calibration).
    pub f32_accuracy: f64,
    /// Test accuracy of the model's [`Int8Plan`].
    pub int8_accuracy: f64,
}

/// The measured accuracy cost of int8 post-training quantization,
/// expressed as the Δp it adds to the reliability model's output-failure
/// probability — the campaign hook that keeps the int8 fast path honest:
/// its speedup enters the benchmarks, so its accuracy drop must enter the
/// DSPN reliability numbers.
#[derive(Debug, Clone)]
pub struct QuantizationImpact {
    /// Per-model accuracies, `three_versions` order.
    pub rows: Vec<QuantizedModelRow>,
    /// Mean accuracy drop, floored at zero: `max(0, acc_f32 − acc_int8)`.
    pub delta_p: f64,
}

impl QuantizationImpact {
    /// The calibrated parameters with the quantization penalty folded into
    /// both failure probabilities — what `core::reliability` consumes when
    /// modelling the int8 deployment.
    pub fn system_params(&self, base: &Calibration) -> SystemParams {
        SystemParams {
            p: (base.p + self.delta_p).min(1.0),
            p_prime: (base.p_prime + self.delta_p).min(1.0),
            ..base.system_params()
        }
    }
}

/// Compiles each calibrated model into an [`Int8Plan`] — the engine the
/// int8 fast path runs — and re-measures its test accuracy, returning the
/// measured Δp. Activation scales are calibrated on the first
/// `calibration_samples` *training* inputs, so the scored test split stays
/// unseen.
///
/// # Panics
///
/// Panics if `calibration_samples` is zero.
pub fn quantization_impact(cal: &Calibration, calibration_samples: usize) -> QuantizationImpact {
    assert!(calibration_samples > 0, "need calibration inputs");
    let idx: Vec<usize> = (0..calibration_samples.min(cal.train.len())).collect();
    let (calib_x, _) = cal.train.batch(&idx);
    let shape: Vec<usize> = std::iter::once(1)
        .chain(cal.test.sample_shape().iter().copied())
        .collect();
    let sample_len: usize = shape.iter().product();
    let rows: Vec<QuantizedModelRow> = cal
        .trained_models
        .iter()
        .zip(&cal.models)
        .map(|(model, row)| {
            let scales = activation_scales(model, std::slice::from_ref(&calib_x));
            let mut plan = Int8Plan::compile(model, &scales, &shape);
            let correct = cal
                .test
                .images()
                .as_slice()
                .chunks_exact(sample_len)
                .zip(cal.test.labels())
                .filter(|(x, &want)| plan.predict(x) == want)
                .count();
            QuantizedModelRow {
                name: row.name.clone(),
                f32_accuracy: row.healthy_accuracy,
                int8_accuracy: correct as f64 / cal.test.len() as f64,
            }
        })
        .collect();
    let mean_f32 = rows.iter().map(|r| r.f32_accuracy).sum::<f64>() / rows.len() as f64;
    let mean_int8 = rows.iter().map(|r| r.int8_accuracy).sum::<f64>() / rows.len() as f64;
    QuantizationImpact {
        rows,
        delta_p: (mean_f32 - mean_int8).max(0.0),
    }
}

/// Applies each model's calibrated compromise fault, runs `f`, and restores
/// the pristine weights. Used by the empirical Table III cross-check.
pub fn with_compromised<R>(
    calibration: &Calibration,
    compromised: &[bool],
    mut models: Vec<Sequential>,
    f: impl FnOnce(&mut [Sequential]) -> R,
) -> R {
    assert_eq!(compromised.len(), models.len());
    let mut records = Vec::new();
    for (i, (&c, model)) in compromised.iter().zip(models.iter_mut()).enumerate() {
        if c {
            let (lo, hi) = (-10.0, 30.0);
            records.push((
                i,
                random_weight_inj(model, 0, lo, hi, calibration.models[i].injection_seed),
            ));
        }
    }
    let result = f(&mut models);
    for (i, rec) in records {
        undo(&mut models[i], &rec);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_calibration_produces_sane_parameters() {
        let cfg = CalibrationConfig {
            train_per_class: 25,
            test_per_class: 12,
            train: TrainConfig {
                epochs: 4,
                batch_size: 64,
                lr: 0.08,
                ..TrainConfig::default()
            },
            ..CalibrationConfig::quick()
        };
        let cal = calibrate(&cfg);
        assert_eq!(cal.models.len(), 3);
        assert!(cal.p > 0.0 && cal.p < 0.6, "p = {}", cal.p);
        assert!(cal.p_prime > cal.p, "p' = {} vs p = {}", cal.p_prime, cal.p);
        assert!((0.0..=1.0).contains(&cal.alpha), "alpha = {}", cal.alpha);
        for r in &cal.models {
            assert!(
                r.compromised_accuracy < r.healthy_accuracy + 1e-9,
                "fault must not improve accuracy: {r:?}"
            );
        }
        let params = cal.system_params();
        assert!(params.validate().is_ok(), "{:?}", params.validate());
        // alpha is the mean of the pairs
        let mean = cal.alpha_pairs.iter().sum::<f64>() / 3.0;
        assert!((cal.alpha - mean).abs() < 1e-12);

        // The int8 campaign hook: quantization may cost accuracy, the
        // penalty lands in Δp, and the shifted parameters stay valid for
        // the reliability model.
        let impact = quantization_impact(&cal, 32);
        assert_eq!(impact.rows.len(), 3);
        for r in &impact.rows {
            assert!(
                (r.f32_accuracy - r.int8_accuracy).abs() < 0.25,
                "int8 accuracy diverged: {r:?}"
            );
        }
        assert!(
            (0.0..=0.25).contains(&impact.delta_p),
            "Δp = {}",
            impact.delta_p
        );
        let qparams = impact.system_params(&cal);
        assert!(qparams.validate().is_ok(), "{:?}", qparams.validate());
        assert!(qparams.p >= params.p && qparams.p_prime >= params.p_prime);
    }
}
