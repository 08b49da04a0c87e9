//! Pins the int8 detector path bit for bit.
//!
//! A digest covers the `f32::to_bits` logits the quantized yolomini-s/m/l
//! detectors produce on fixed pre-quantized sensor frames, and a second one
//! covers the `FastPerception` verdict sequence (1 and 3 versions, 50 frames,
//! with the health process advancing between frames). Both are checked under
//! the scalar kernel and under the kernel this host detects. Any change to
//! weight or activation scales, the folded requantization constants, the
//! im2col lowering or the logit dequantization changes a digest, so work on
//! the int8 engine must leave this table untouched.

use mvml_avsim::bev::{add_sensor_noise, rasterize, FastNoise, CELLS};
use mvml_avsim::detector::DetectorTrainConfig;
use mvml_avsim::fastpath::{detector_plan, FastPerception};
use mvml_avsim::geometry::Vec2;
use mvml_avsim::world::ObjectTruth;
use mvml_avsim::{DetectorBank, PerceptionConfig};
use mvml_core::rejuvenation::ProcessConfig;
use mvml_core::Verdict;
use mvml_nn::gemm::{active_kernel, with_kernel, Kernel};
use mvml_nn::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Logit digest per detector variant, in bank order.
const LOGITS: [(&str, u64); 3] = [
    ("yolomini-s", 8468919350693880283),
    ("yolomini-m", 18294649671494322021),
    ("yolomini-l", 15235212306515262436),
];

/// Verdict-sequence digest per version count.
const VERDICTS: [(usize, u64); 2] = [(1, 9871747730015543784), (3, 16549347248864478507)];

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn scene() -> Tensor {
    rasterize(
        Vec2::new(0.0, 0.0),
        0.0,
        &[
            ObjectTruth {
                position: Vec2::new(20.0, 0.0),
                heading: 0.0,
            },
            ObjectTruth {
                position: Vec2::new(35.0, 4.0),
                heading: 0.5,
            },
        ],
    )
}

fn bank() -> DetectorBank {
    DetectorBank::train(&DetectorTrainConfig {
        scenes: 24,
        epochs: 1,
        ..DetectorTrainConfig::default()
    })
}

fn calibration() -> Vec<Tensor> {
    let clean = scene();
    let mut rng = StdRng::seed_from_u64(11);
    (0..4)
        .map(|_| add_sensor_noise(&clean, 0.08, 0.002, &mut rng))
        .collect()
}

/// Three pre-quantized sensor frames at scale 1/127.
fn frames() -> Vec<Vec<i8>> {
    let clean = scene();
    let mut noise = FastNoise::new(3);
    (0..3)
        .map(|_| {
            let mut xq = vec![0i8; CELLS * CELLS];
            noise.apply_quantized(clean.as_slice(), 0.08, 0.002, &mut xq);
            xq
        })
        .collect()
}

fn logit_digests(bank: &DetectorBank, calib: &[Tensor]) -> Vec<(&'static str, u64)> {
    let frames = frames();
    bank.models()
        .iter()
        .zip(LOGITS)
        .map(|(model, (name, _))| {
            assert_eq!(model.model_name(), name);
            let mut plan = detector_plan(model, calib);
            let mut d = Digest::new();
            for xq in &frames {
                plan.input_mut().copy_from_slice(xq);
                let logits = plan.run();
                d.word(logits.len() as u64);
                for v in logits {
                    d.word(u64::from(v.to_bits()));
                }
            }
            (name, d.0)
        })
        .collect()
}

fn verdict_digests(bank: &DetectorBank, calib: &[Tensor]) -> Vec<(usize, u64)> {
    let clean = scene();
    VERDICTS
        .iter()
        .map(|&(versions, _)| {
            let cfg = PerceptionConfig {
                versions,
                // Wide enough that the lightly trained bank agrees on some
                // frames, so the sequence mixes outputs and skips.
                agreement_tolerance: 24,
                ..PerceptionConfig::default()
            };
            let mut p = FastPerception::new(bank, cfg, ProcessConfig::carla(true), 9, calib);
            let mut d = Digest::new();
            for _ in 0..50 {
                let frame = p.perceive(&clean);
                for s in &frame.states {
                    d.word(*s as u64);
                }
                d.word(frame.macs);
                match frame.verdict {
                    Verdict::Output(set) => {
                        d.word(1);
                        d.word(set.len() as u64);
                        for cell in set.iter() {
                            d.word(u64::from(cell));
                        }
                    }
                    Verdict::Skip => d.word(2),
                    Verdict::NoModules => d.word(3),
                }
                let _ = p.advance(0.2);
            }
            (versions, d.0)
        })
        .collect()
}

#[test]
fn int8_detector_path_matches_the_pinned_digests() {
    let bank = bank();
    let calib = calibration();
    for kernel in [Kernel::Scalar, active_kernel()] {
        let (logits, verdicts) = with_kernel(kernel, || {
            (logit_digests(&bank, &calib), verdict_digests(&bank, &calib))
        });
        assert_eq!(logits, LOGITS, "logit digests, kernel {}", kernel.name());
        assert_eq!(
            verdicts,
            VERDICTS,
            "verdict digests, kernel {}",
            kernel.name()
        );
    }
}
