//! The service's determinism contract, property-tested: a fixed seed and
//! request trace must produce a byte-identical [`ServiceReport`] — across
//! repeated runs *and* across shard counts — and the telemetry replay must
//! be content-identical (sequence, scopes, events; wall-clock timings
//! excluded) regardless of how tenants were partitioned over shards. The
//! thread budget (`MVML_THREADS`) must not move a byte of it either.

use mvml_nn::parallel::with_thread_count;
use mvml_obs::{content_streams_eq, TelemetryRecord};
use mvml_serve::loadgen::{build_trace, ArrivalMode, LoadPlan, TraceItem};
use mvml_serve::tenant::{
    AgingSpec, FaultSpec, FaultSpecKind, ModelSpec, ProactiveSpec, TenantConfig,
};
use mvml_serve::{Service, ServiceConfig};
use proptest::prelude::*;

/// The tenant roster every case runs: three pass-through tenants, one of
/// them optionally faulted.
fn roster(classes: &[usize], fault: Option<FaultSpec>) -> Vec<TenantConfig> {
    let names = ["alpha", "beta", "gamma"];
    let mut tenants: Vec<TenantConfig> = names
        .iter()
        .zip(classes)
        .map(|(name, k)| TenantConfig::passthrough(name, *k))
        .collect();
    if let Some(fault) = fault {
        tenants[0].fault = Some(fault);
    }
    tenants
}

/// Runs the full trace to completion, returning the serialized report and
/// the tenant-ordered telemetry replay.
#[allow(clippy::expect_used)] // test harness
fn run(
    tenants: &[TenantConfig],
    trace: &[Vec<TraceItem>],
    seed: u64,
    shards: usize,
    max_batch: usize,
) -> (String, Vec<TelemetryRecord>) {
    let cfg = ServiceConfig {
        seed,
        shards,
        max_batch,
        record_telemetry: true,
        telemetry_capacity: 16384,
        ..ServiceConfig::default()
    };
    let mut service = Service::new(tenants.to_vec(), cfg).expect("assemble service");
    for round in trace {
        for item in round {
            let shape = tenants
                .iter()
                .find(|t| t.name == item.tenant)
                .map(|t| t.model.sample_shape())
                .expect("trace tenant exists");
            service
                .submit(&item.tenant, item.id, &shape, item.pixels.clone())
                .expect("admit");
        }
        service.run_round().expect("round");
    }
    while service.pending() > 0 {
        service.run_round().expect("round");
    }
    let (report, records) = service.finish();
    mvml_serve::validate_report(&report).expect("internally consistent");
    (serde_json::to_string(&report).expect("serialise"), records)
}

fn fault_for(sel: u8, rate: f64, module: Option<usize>) -> FaultSpec {
    let kind = match sel % 4 {
        0 => FaultSpecKind::Crash,
        1 => FaultSpecKind::Latency,
        2 => FaultSpecKind::NanCorrupt,
        _ => FaultSpecKind::Stale,
    };
    FaultSpec { kind, rate, module }
}

/// Thread budget × shard count. One pool sizes every fan-out — the shard
/// jobs and, at set-up, the training GEMMs — and neither count may change
/// the report. Trained tenants put real GEMMs inside the shard jobs.
#[test]
fn reports_are_bytewise_stable_across_thread_and_shard_counts() {
    mvml_serve::install_quiet_panic_hook();
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
        trained("aging", 5)
            .with_aging(AgingSpec {
                compromise_rate: 0.05,
                crash_rate: 0.02,
            })
            .with_proactive(ProactiveSpec {
                period_rounds: 4,
                refresh_rounds: 1,
            }),
        trained("crashy", 6).with_fault(FaultSpec {
            kind: FaultSpecKind::Crash,
            rate: 0.2,
            module: None,
        }),
        TenantConfig::passthrough("plain", 4),
    ];
    let plan = LoadPlan {
        rounds: 10,
        mode: ArrivalMode::Closed { per_round: 3 },
    };
    let trace = build_trace(&tenants, &plan, 7);
    let (reference, _) = with_thread_count(1, || run(&tenants, &trace, 7, 1, 4));
    for threads in [1, 2, 4] {
        for shards in [1, 2, 4] {
            let (json, _) = with_thread_count(threads, || run(&tenants, &trace, 7, shards, 4));
            assert_eq!(json, reference, "threads = {threads}, shards = {shards}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Same seed + same trace ⇒ byte-identical reports and
    /// content-identical telemetry, for every shard layout of the same
    /// three tenants.
    #[test]
    fn reports_are_bytewise_stable_across_runs_and_shard_counts(
        seed in 0u64..1_000_000,
        rounds in 1u64..6,
        per_round in 1usize..4,
        max_batch in 1usize..5,
        fault_sel in 0u8..4,
        fault_rate in 0.0f64..1.0,
        fault_module in proptest::option::of(0usize..3),
    ) {
        mvml_serve::install_quiet_panic_hook();
        let fault = Some(fault_for(fault_sel, fault_rate, fault_module));
        let tenants = roster(&[4, 3, 5], fault);
        let plan = LoadPlan { rounds, mode: ArrivalMode::Closed { per_round } };
        let trace = build_trace(&tenants, &plan, seed);

        let (base_json, base_records) = run(&tenants, &trace, seed, 1, max_batch);
        // Re-run at the same shard count: bytewise reproducible.
        let (again_json, again_records) = run(&tenants, &trace, seed, 1, max_batch);
        prop_assert_eq!(&base_json, &again_json);
        prop_assert!(content_streams_eq(&base_records, &again_records));

        // Re-shard: the report may not mention the layout, and telemetry
        // replay order is tenant order, so both must be unchanged.
        for shards in [2usize, 3] {
            let (sharded_json, sharded_records) =
                run(&tenants, &trace, seed, shards, max_batch);
            prop_assert_eq!(&base_json, &sharded_json);
            prop_assert!(
                content_streams_eq(&base_records, &sharded_records),
                "telemetry diverged at shards = {}",
                shards
            );
        }
    }

    /// Open-loop arrivals hit the same invariants: the queue (not the
    /// shard layout) decides batch composition.
    #[test]
    fn open_loop_traces_reshard_identically(
        seed in 0u64..1_000_000,
        rounds in 1u64..5,
        mean in 1usize..4,
    ) {
        mvml_serve::install_quiet_panic_hook();
        let tenants = roster(&[2, 6, 3], None);
        let plan = LoadPlan { rounds, mode: ArrivalMode::Open { mean_per_round: mean } };
        let trace = build_trace(&tenants, &plan, seed);
        let (one, _) = run(&tenants, &trace, seed, 1, 2);
        let (three, _) = run(&tenants, &trace, seed, 3, 2);
        prop_assert_eq!(one, three);
    }
}
