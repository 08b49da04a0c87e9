//! Throughput-oriented perception: each detector compiled once into an
//! allocation-free [`mvml_nn::quant::Int8Plan`], fed by the [`FastNoise`]
//! sensor model.
//!
//! This is the *product fast path* for latency-critical deployments. It is
//! numerically approximate — activations and weights are symmetric int8,
//! the sensor noise is an Irwin–Hall Gaussian approximation — but
//! behaviourally equivalent to the reference pipeline: the same health
//! process gates module participation, the same voter fuses proposals, and
//! the accuracy cost of quantization is *measured* on the same int8 engine
//! (as a Δp fed into `mvml_core::reliability`; see `mvml-bench`'s
//! calibration) rather than assumed away.
//!
//! The reference f32 path ([`crate::perception::MultiVersionPerception`])
//! stays the default
//! for every committed, byte-compared artifact and for fault-injection
//! campaigns (weight-level fault planting needs the f32 weights). The fast
//! path is benchmarked by the `dtype=int8` rows of `BENCH_nn.json` and
//! perf-gated against the pre-SIMD f32 baseline.
//!
//! # Pipeline
//!
//! Per frame and operational module, allocation-free after construction
//! except for the proposed [`DetectionSet`]:
//!
//! 1. [`FastNoise::apply_quantized`] draws the sensor view straight into
//!    the detector plan's int8 input at the fixed scale `1/127` (the
//!    sensor range is `[0, 1]` by construction).
//! 2. The detector runs as one [`Int8Plan`] compiled by
//!    [`detector_plan`]: each 3×3 convolution is an int8 im2col +
//!    `gemm_i8(oc, ic·9, H·W)` (`H·W` columns, all vector lanes live),
//!    requantized with bias and ReLU fused to the next layer's calibrated
//!    scale; the 1×1 head reads the compact activations directly.
//! 3. The head's logits are dequantized once and thresholded.

use crate::bev::{FastNoise, CELLS};
use crate::detector::DetectionSet;
use crate::perception::{vote_detections, DetectorBank, PerceptionConfig, PerceptionFrame};
use mvml_core::rejuvenation::{ProcessConfig, StateProcess, TimedEvent};
use mvml_core::ModuleState;
use mvml_nn::quant::{activation_scales, Int8Plan};
use mvml_nn::{Sequential, Tensor};

/// Compiles one detector into an [`Int8Plan`] over a `[1, 1, CELLS,
/// CELLS]` sensor grid. The input scale is the sensor's fixed `1/127`
/// (the plan reads its input at `scales[0]` because the detector starts
/// with a conv); the hidden activation scales are calibrated by running
/// `calibration` inputs through the f32 model.
///
/// # Panics
///
/// Panics if `calibration` is empty, or as [`Int8Plan::compile`] if the
/// model does not take one `CELLS×CELLS` plane.
pub fn detector_plan(model: &Sequential, calibration: &[Tensor]) -> Int8Plan {
    assert!(
        !calibration.is_empty(),
        "fastpath: activation calibration needs at least one input"
    );
    let mut scales = activation_scales(model, calibration);
    scales[0] = 1.0 / 127.0;
    Int8Plan::compile(model, &scales, &[1, 1, CELLS, CELLS])
}

/// The fast multi-version perception system: quantized detectors gated by
/// the same health/rejuvenation [`StateProcess`] as the reference path,
/// fused by the same voter.
///
/// Differences from [`MultiVersionPerception`], by design:
///
/// * no weight-level fault injection or runtime fault plans — campaigns
///   that plant faults use the reference f32 path (the fast path's weights
///   are derived artifacts; see [`refresh`](Self::refresh));
/// * the sensor model is [`FastNoise`] (approximate Gaussian, own RNG
///   stream);
/// * telemetry recording is not wired in.
///
/// [`MultiVersionPerception`]: crate::perception::MultiVersionPerception
pub struct FastPerception {
    detectors: Vec<Int8Plan>,
    process: StateProcess,
    noise: FastNoise,
    cfg: PerceptionConfig,
    frame: u64,
}

impl std::fmt::Debug for FastPerception {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "FastPerception(versions={}, states={:?})",
            self.detectors.len(),
            self.process.states()
        )
    }
}

impl FastPerception {
    /// Quantizes the first `cfg.versions` detectors of `bank` and wires
    /// them to a fresh health process.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.versions` is 0 or exceeds the bank size, or if
    /// `calibration` is empty (see [`detector_plan`]).
    pub fn new(
        bank: &DetectorBank,
        cfg: PerceptionConfig,
        process_cfg: ProcessConfig,
        seed: u64,
        calibration: &[Tensor],
    ) -> Self {
        assert!(
            cfg.versions >= 1 && cfg.versions <= bank.len(),
            "versions must be in 1..={}",
            bank.len()
        );
        let detectors = bank.models()[..cfg.versions]
            .iter()
            .map(|m| detector_plan(m, calibration))
            .collect();
        FastPerception {
            detectors,
            process: StateProcess::new(cfg.versions, process_cfg, seed),
            noise: FastNoise::new(seed ^ 0xC0FF_EE00),
            cfg,
            frame: 0,
        }
    }

    /// Current module health states.
    pub fn states(&self) -> &[ModuleState] {
        self.process.states()
    }

    /// Advances the health/rejuvenation process by `dt` seconds. Weight
    /// state needs no repair on rejuvenation — the quantized weights are
    /// never mutated in place — so this is a pure process step.
    pub fn advance(&mut self, dt: f64) -> Vec<TimedEvent> {
        self.process.advance(dt)
    }

    /// Re-quantizes the detectors' weights from `bank`, keeping their
    /// calibrated activation scales ([`Int8Plan::requantize`]) — for
    /// callers that retrain or repair the f32 bank.
    ///
    /// # Panics
    ///
    /// Panics if the bank no longer covers the configured version count.
    pub fn refresh(&mut self, bank: &DetectorBank) {
        assert!(self.detectors.len() <= bank.len(), "bank shrank");
        for (plan, model) in self.detectors.iter_mut().zip(bank.models()) {
            plan.requantize(model);
        }
    }

    /// Runs one perception frame over the clean grid: every operational
    /// module draws its own sensor view, infers in int8, and proposes a
    /// detection set; the shared voter fuses the proposals.
    pub fn perceive(&mut self, clean_grid: &Tensor) -> PerceptionFrame {
        let states: Vec<ModuleState> = self.process.states().to_vec();
        self.frame += 1;
        let mut macs = 0u64;
        let mut proposals: Vec<Option<DetectionSet>> = vec![None; self.detectors.len()];
        let clean = clean_grid.as_slice();
        let logit_threshold = (self.cfg.threshold / (1.0 - self.cfg.threshold)).ln();
        for (i, plan) in self.detectors.iter_mut().enumerate() {
            if !states[i].is_operational() {
                continue;
            }
            macs += plan.macs();
            self.noise.apply_quantized(
                clean,
                self.cfg.noise_sigma,
                self.cfg.clutter,
                plan.input_mut(),
            );
            let cells = plan
                .run()
                .iter()
                .enumerate()
                .filter(|(_, &logit)| logit > logit_threshold)
                .map(|(cell, _)| {
                    #[allow(clippy::cast_possible_truncation)]
                    {
                        cell as u16
                    }
                });
            proposals[i] = Some(cells.collect());
        }
        let verdict = vote_detections(&proposals, self.cfg.agreement_tolerance);
        PerceptionFrame {
            verdict,
            states,
            macs,
            events: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bev::{add_sensor_noise, rasterize};
    use crate::detector::DetectorTrainConfig;
    use crate::geometry::Vec2;
    use crate::world::ObjectTruth;
    use mvml_core::{SystemParams, Verdict};
    use mvml_nn::Layer;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn quiet_process() -> ProcessConfig {
        ProcessConfig {
            params: SystemParams {
                mttc: 1e12,
                mttf: 1e12,
                ..SystemParams::carla_case_study()
            },
            proactive: false,
            compromised_priority: 2.0 / 3.0,
            proportional_selection: false,
            per_module_clocks: true,
        }
    }

    fn scene() -> Tensor {
        rasterize(
            Vec2::new(0.0, 0.0),
            0.0,
            &[ObjectTruth {
                position: Vec2::new(20.0, 0.0),
                heading: 0.0,
            }],
        )
    }

    fn trained_bank() -> DetectorBank {
        let cfg = DetectorTrainConfig {
            scenes: 24,
            epochs: 1,
            ..DetectorTrainConfig::default()
        };
        DetectorBank::train(&cfg)
    }

    fn calibration_frames(n: usize) -> Vec<Tensor> {
        let clean = scene();
        let mut rng = StdRng::seed_from_u64(11);
        (0..n)
            .map(|_| add_sensor_noise(&clean, 0.08, 0.002, &mut rng))
            .collect()
    }

    #[test]
    fn quantized_logits_track_the_f32_model() {
        let bank = trained_bank();
        let calib = calibration_frames(6);
        let mut q = detector_plan(&bank.models()[0], &calib);
        let mut f = bank.models()[0].clone();
        let mut worst = 0.0f32;
        let mut scale = 0.0f32;
        for frame in &calib {
            // Feed the f32 model the *quantized-and-dequantized* input the
            // int8 path sees, so the comparison isolates kernel error.
            let xq: Vec<i8> = frame
                .as_slice()
                .iter()
                .map(|&v| (v * 127.0).round() as i8)
                .collect();
            let xdq: Vec<f32> = xq.iter().map(|&q| f32::from(q) / 127.0).collect();
            let reference = f.forward(&Tensor::from_vec(&[1, 1, CELLS, CELLS], xdq), false);
            q.input_mut().copy_from_slice(&xq);
            for (&a, &b) in q.run().iter().zip(reference.as_slice()) {
                worst = worst.max((a - b).abs());
                scale = scale.max(b.abs());
            }
        }
        // Two quantized 3x3 layers plus the head accumulate bounded error;
        // anything past ~15% of the logit range means mis-wired scales.
        assert!(
            worst <= 0.15 * scale.max(1.0),
            "worst |Δlogit| {worst} vs range {scale}"
        );
    }

    #[test]
    fn fast_perception_is_deterministic_per_seed() {
        let bank = trained_bank();
        let calib = calibration_frames(2);
        let cfg = PerceptionConfig {
            versions: 1,
            ..PerceptionConfig::default()
        };
        let clean = scene();
        let mut a = FastPerception::new(&bank, cfg, quiet_process(), 5, &calib);
        let mut b = FastPerception::new(&bank, cfg, quiet_process(), 5, &calib);
        for _ in 0..5 {
            assert_eq!(a.perceive(&clean).verdict, b.perceive(&clean).verdict);
        }
    }

    #[test]
    fn fast_perception_votes_and_reports_macs() {
        let bank = trained_bank();
        let calib = calibration_frames(2);
        let cfg = PerceptionConfig {
            versions: 3,
            ..PerceptionConfig::default()
        };
        let clean = scene();
        let mut p = FastPerception::new(&bank, cfg, quiet_process(), 5, &calib);
        assert_eq!(p.states().len(), 3);
        let frame = p.perceive(&clean);
        assert!(matches!(frame.verdict, Verdict::Output(_) | Verdict::Skip));
        assert!(frame.macs > 0);
        let _ = p.advance(0.05);
        // refresh (requantize-on-mutation) keeps the system runnable.
        p.refresh(&bank);
        let _ = p.perceive(&clean);
    }
}
