//! Shards run as jobs on the shared thread pool, which is started once:
//! after warm-up, rounds spawn no OS thread, and nested GEMMs inside a
//! shard run inline. This test lives in its own binary so no concurrently
//! running test can grow the pool.

use mvml_nn::parallel::{threads_started, with_thread_count};
use mvml_serve::loadgen::{run_scenario, ArrivalMode, LoadPlan};
use mvml_serve::tenant::{ModelSpec, TenantConfig};
use mvml_serve::ServiceConfig;

#[test]
fn two_hundred_rounds_on_two_shards_spawn_no_thread() {
    let trained = |name: &str, seed: u64| TenantConfig {
        model: ModelSpec::Trained {
            classes: 8,
            image_size: 32,
            train_samples: 64,
            epochs: 1,
            seed,
        },
        ..TenantConfig::passthrough(name, 8)
    };
    let tenants = vec![
        trained("alpha", 1),
        trained("beta", 2),
        TenantConfig::passthrough("gamma", 4),
    ];
    let cfg = ServiceConfig {
        seed: 3,
        shards: 2,
        ..ServiceConfig::default()
    };
    let run = |rounds| {
        let mode = ArrivalMode::Closed { per_round: 4 };
        run_scenario("pool", tenants.clone(), cfg, &LoadPlan { rounds, mode }, 3)
            .expect("scenario runs");
    };
    with_thread_count(2, || {
        run(10);
        let warm = threads_started();
        assert!(warm <= 2, "the pool never outgrows the budget: {warm}");
        run(200);
        assert_eq!(threads_started(), warm, "a round spawned a thread");
    });
}
