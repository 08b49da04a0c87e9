//! Perception fans its versions out over the shared thread pool, which is
//! started once: after warm-up, ticks spawn no OS thread. This test lives
//! in its own binary so no concurrently running test can grow the pool.

use mvml_avsim::bev::rasterize;
use mvml_avsim::detector::{yolo_mini, VARIANTS};
use mvml_avsim::geometry::Vec2;
use mvml_avsim::{DetectorBank, MultiVersionPerception, PerceptionConfig};
use mvml_core::rejuvenation::ProcessConfig;
use mvml_nn::parallel::{threads_started, with_thread_count};

#[test]
fn fifty_ticks_spawn_no_thread_after_warm_up() {
    // Untrained full-size variants: the forwards cost what trained ones do.
    let models = VARIANTS
        .iter()
        .zip(0u64..)
        .map(|((name, channels), seed)| yolo_mini(name, *channels, seed))
        .collect();
    let bank = DetectorBank::from_models(models);
    let scene = rasterize(Vec2::new(0.0, 0.0), 0.0, &[]);
    with_thread_count(2, || {
        let cfg = PerceptionConfig::default();
        let mut perception =
            MultiVersionPerception::new(&bank, cfg, ProcessConfig::carla(false), 5);
        for _ in 0..5 {
            let _ = perception.perceive(&scene);
        }
        let warm = threads_started();
        assert!(warm <= 2, "the pool never outgrows the budget: {warm}");
        for _ in 0..50 {
            let _ = perception.perceive(&scene);
        }
        assert_eq!(threads_started(), warm, "a tick spawned a thread");
    });
}
