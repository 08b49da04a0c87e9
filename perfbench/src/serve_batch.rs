//! `serve-batch`: the in-process `mvml-serve` service — `submit` plus
//! `run_round` — with four tenants on two shards and open, seeded arrivals
//! of 0–8 requests per tenant per round, so batch shapes change from round
//! to round. One tenant ages with proactive rejuvenation, one suffers crash
//! faults, two are healthy. No codec is involved.

use crate::measure::{peak_rss_mb, repeated_setup, secs, BestOf, Outcome, Rng, Samples, Tracer};
use crate::signs::{request_pools, tenant, IMAGE, POOL};
use mvml_core::NVersionSystem;
use mvml_nn::Tensor;
use mvml_serve::tenant::{build_system, TenantConfig};
use mvml_serve::{
    validate_report, AgingSpec, FaultSpec, FaultSpecKind, ProactiveSpec, RoundAnswer, Service,
    ServiceConfig, ServiceReport,
};
use std::collections::BTreeMap;
use std::time::Instant;

const MAX_ARRIVALS: usize = 8;
/// Rounds of pre-generated arrivals. Runs cycle through them, so every
/// round's arrivals repeat each `TRACE_ROUNDS` rounds.
const TRACE_ROUNDS: usize = 256;
/// Most arrivals one round can have (four tenants).
const ROUND_ARRIVALS: usize = 4 * MAX_ARRIVALS;
const WARMUP_ROUNDS: usize = 20;
/// The report after this many rounds is compared with a reference service.
const PREFIX_ROUNDS: u64 = 150;
const SETUP_REPS: usize = 3;
/// Traced rounds whose batches are classified again on replicas.
const REPLAY_ROUNDS: usize = 300;
/// Untraced/traced pairs of phases in the traced run of this workload.
const TRACE_CHUNKS: usize = 8;

fn tenants(seed: u64) -> Vec<TenantConfig> {
    let trained = |i: u64, name: &str| tenant(name, seed.wrapping_mul(37).wrapping_add(i));
    vec![
        trained(0, "aging")
            .with_aging(AgingSpec {
                compromise_rate: 0.02,
                crash_rate: 0.01,
            })
            .with_proactive(ProactiveSpec {
                period_rounds: 40,
                refresh_rounds: 2,
            }),
        trained(1, "crashy").with_fault(FaultSpec {
            kind: FaultSpecKind::Crash,
            rate: 0.01,
            module: None,
        }),
        trained(2, "healthy-a"),
        trained(3, "healthy-b"),
    ]
}

fn config(seed: u64, shards: usize) -> ServiceConfig {
    ServiceConfig {
        seed,
        shards,
        max_batch: 8,
        ..ServiceConfig::default()
    }
}

/// A request waiting for its round.
struct Pending {
    tenant: usize,
    sample: usize,
    round: u64,
    /// Slot of the request in the arrival cycle: the same key on every
    /// repetition of its round's arrivals.
    key: usize,
    at: Instant,
}

struct Rig {
    cfgs: Vec<TenantConfig>,
    /// Per tenant (config order): pre-generated request samples.
    pools: Vec<Vec<Vec<f32>>>,
    /// Per round: `(tenant, pool index)` arrivals.
    arrivals: Vec<Vec<(usize, usize)>>,
    service: Service,
    next_id: u64,
    pending: BTreeMap<u64, Pending>,
    /// The report once the service has run `PREFIX_ROUNDS` rounds.
    prefix: Option<ServiceReport>,
}

fn setup(seed: u64) -> Rig {
    let cfgs = tenants(seed);
    let pools = request_pools(&cfgs, seed.wrapping_add(200));
    let mut rng = Rng::new(seed, 7);
    let arrivals = (0..TRACE_ROUNDS)
        .map(|_| {
            let mut round = Vec::new();
            for t in 0..cfgs.len() {
                for _ in 0..rng.below(MAX_ARRIVALS + 1) {
                    round.push((t, rng.below(POOL)));
                }
            }
            round
        })
        .collect();
    let service = Service::new(cfgs.clone(), config(seed, 2)).expect("service builds");
    let mut rig = Rig {
        cfgs,
        pools,
        arrivals,
        service,
        next_id: 0,
        pending: BTreeMap::new(),
        prefix: None,
    };
    for _ in 0..WARMUP_ROUNDS {
        rig.round(&mut Tracer::new(false), None);
    }
    rig
}

impl Rig {
    /// Submits the next round's arrivals and runs the round. Returns every
    /// answer with its request, the instant the round ended, and the
    /// number of refused submissions.
    fn round(
        &mut self,
        tr: &mut Tracer,
        parent: Option<usize>,
    ) -> (Vec<(Pending, RoundAnswer)>, Instant, u64) {
        let r = self.service.rounds();
        let slot = r as usize % TRACE_ROUNDS;
        let mut refused = 0;
        for (j, &(tenant, sample)) in self.arrivals[slot].iter().enumerate() {
            let id = self.next_id;
            self.next_id += 1;
            let pixels = self.pools[tenant][sample].clone();
            let name = &self.cfgs[tenant].name;
            let service = &mut self.service;
            let at = Instant::now();
            let res = tr.span("service.submit", parent, id, || {
                service.submit(name, id, &[1, IMAGE, IMAGE], pixels)
            });
            match res {
                Ok(()) => {
                    self.pending.insert(
                        id,
                        Pending {
                            tenant,
                            sample,
                            round: r,
                            key: slot * ROUND_ARRIVALS + j,
                            at,
                        },
                    );
                }
                Err(_) => refused += 1,
            }
        }
        let service = &mut self.service;
        let answers = tr
            .span("service.round", parent, r, || service.run_round())
            .expect("round runs");
        let done = Instant::now();
        if self.service.rounds() == PREFIX_ROUNDS {
            self.prefix = Some(self.service.report());
        }
        let answered = answers
            .into_iter()
            .filter_map(|a| self.pending.remove(&a.id).map(|p| (p, a)))
            .collect();
        (answered, done, refused)
    }
}

/// Replays the arrivals of the first `rounds` rounds through a fresh
/// single-shard service and returns its report.
fn reference_report(rig: &Rig, seed: u64, rounds: u64) -> ServiceReport {
    let mut service = Service::new(rig.cfgs.clone(), config(seed, 1)).expect("reference builds");
    let mut id = 0u64;
    for r in 0..rounds {
        for &(t, sample) in &rig.arrivals[r as usize % TRACE_ROUNDS] {
            let pixels = rig.pools[t][sample].clone();
            let _ = service.submit(&rig.cfgs[t].name, id, &[1, IMAGE, IMAGE], pixels);
            id += 1;
        }
        service.run_round().expect("reference round runs");
    }
    service.report()
}

/// What a timed phase measured.
struct Phase {
    /// Submit → end of the answering round, ms; refused requests `+inf`.
    latency_ms: Samples,
    attempted: u64,
    failed: u64,
    decided: u64,
    /// Each request slot's best latency over the arrival cycles.
    best: BestOf,
    /// Each round slot's best time (submits plus the round), ms.
    best_round: BestOf,
    /// Rounds each request waited in the queue.
    queue_wait: Samples,
    /// Requests per non-empty tenant batch.
    batch_sizes: Samples,
    /// Per round: the loop span and each tenant's batch as pool indices.
    batches: Vec<(usize, BTreeMap<usize, Vec<usize>>)>,
}

impl Phase {
    fn new() -> Phase {
        Phase {
            latency_ms: Samples::new(),
            attempted: 0,
            failed: 0,
            decided: 0,
            best: BestOf::new(),
            best_round: BestOf::new(),
            queue_wait: Samples::new(),
            batch_sizes: Samples::new(),
            batches: Vec::new(),
        }
    }

    fn absorb(&mut self, p: Phase) {
        self.latency_ms.extend(&p.latency_ms);
        self.attempted += p.attempted;
        self.failed += p.failed;
        self.decided += p.decided;
        self.queue_wait.extend(&p.queue_wait);
        self.batch_sizes.extend(&p.batch_sizes);
        self.batches.extend(p.batches);
    }
}

fn phase(rig: &mut Rig, seconds: f64, tr: &mut Tracer) -> Phase {
    let mut p = Phase::new();
    let start = Instant::now();
    while secs(start) < seconds {
        let slot = rig.service.rounds() as usize % TRACE_ROUNDS;
        let t0 = Instant::now();
        let loop_span = tr.open("service.loop", None, rig.service.rounds());
        let (answered, done, refused) = rig.round(tr, Some(loop_span));
        tr.close(loop_span);
        p.best_round.record(slot, t0.elapsed().as_secs_f64() * 1e3);
        p.attempted += answered.len() as u64 + refused;
        p.failed += refused;
        for _ in 0..refused {
            p.latency_ms.push(f64::INFINITY);
        }
        let mut batches: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (req, answer) in &answered {
            let ms = (done - req.at).as_secs_f64() * 1e3;
            p.latency_ms.push(ms);
            p.best.record(req.key, ms);
            p.decided += u64::from(answer.verdict.is_decisive());
            p.queue_wait.push((answer.round - req.round) as f64);
            batches.entry(req.tenant).or_default().push(req.sample);
        }
        for b in batches.values() {
            p.batch_sizes.push(b.len() as f64);
        }
        if tr.enabled() {
            p.batches.push((loop_span, batches));
        }
    }
    p
}

fn check(rig: &Rig, seed: u64, out: &mut Outcome) {
    if let Err(e) = validate_report(&rig.service.report()) {
        out.fail(format!("serve-batch: report invalid: {e}"));
    }
    let (rounds, got) = match &rig.prefix {
        Some(report) => (PREFIX_ROUNDS, report.clone()),
        None => (rig.service.rounds(), rig.service.report()),
    };
    if reference_report(rig, seed, rounds) != got {
        out.fail(format!(
            "serve-batch: report after {rounds} rounds differs from the single-shard reference"
        ));
    }
}

pub fn measure(seed: u64, seconds: f64) -> Outcome {
    let (mut rig, setup_s) = repeated_setup(SETUP_REPS, || setup(seed));
    let p = phase(&mut rig, seconds, &mut Tracer::new(false));
    let mut out = Outcome {
        correct: true,
        attempted: p.attempted,
        failed: p.failed,
        ..Outcome::default()
    };
    check(&rig, seed, &mut out);
    out.metric("setup_s", setup_s.median(), "s", setup_s.len());
    out.metric("peak_rss_mb", peak_rss_mb(), "MB", 1);
    // Requests of every round slot seen, per second of their best times.
    let (mut requests, mut best_ms) = (0, 0.0);
    for (slot, ms) in p.best_round.seen() {
        requests += rig.arrivals[slot].len();
        best_ms += ms;
    }
    let best = p.best.samples();
    out.metric(
        "ops_per_s",
        requests as f64 / (best_ms / 1e3),
        "op/s",
        p.attempted as usize,
    );
    out.metric("p50_ms", best.median(), "ms", best.len());
    out.metric("tail_ms", best.quantile(0.99), "ms", best.len());
    out
}

/// Classifies every tenant batch of every traced round again on a fresh
/// replica of the tenant's system, outside the round, to split the round
/// into inference and the service's own work. Returns per-round self time.
fn replay_rounds(rig: &Rig, p: &Phase, tr: &mut Tracer) -> Samples {
    let mut systems: Vec<NVersionSystem> = rig
        .cfgs
        .iter()
        .map(|c| build_system(c).expect("replica builds"))
        .collect();
    let round_us: BTreeMap<usize, f64> = tr
        .spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "service.round")
        .filter_map(|(i, s)| s.parent.map(|loop_span| (loop_span, tr.spans[i].us())))
        .collect();
    let mut self_us = Samples::new();
    for (loop_span, batches) in p.batches.iter().take(REPLAY_ROUNDS) {
        // Shards run in parallel: the round waits for its slowest shard.
        let mut per_shard: BTreeMap<usize, f64> = BTreeMap::new();
        for (&t, samples) in batches {
            let mut data = Vec::with_capacity(samples.len() * IMAGE * IMAGE);
            for &s in samples {
                data.extend_from_slice(&rig.pools[t][s]);
            }
            let x = Tensor::from_vec(&[samples.len(), 1, IMAGE, IMAGE], data);
            let name = if samples.len() == 8 {
                "system.classify_b8"
            } else {
                "system.classify"
            };
            let system = &mut systems[t];
            tr.span(name, None, *loop_span as u64, || {
                system.classify_batch_detailed(&x)
            });
            let us = tr.spans.last().map_or(0.0, |s| s.us());
            let shard = rig.service.shard_of(&rig.cfgs[t].name).unwrap_or(0);
            *per_shard.entry(shard).or_default() += us;
        }
        if let Some(round) = round_us.get(loop_span) {
            self_us.push(round - per_shard.values().copied().fold(0.0, f64::max));
        }
    }
    self_us
}

/// The traced run. For the named workload, short untraced and traced
/// phases alternate, the untraced ones being the overhead baseline.
pub fn trace(seed: u64, seconds: f64, own: bool, tr: &mut Tracer) -> Outcome {
    let mut rig = setup(seed);
    let rejuvenations = |r: &Rig| -> u64 {
        r.service
            .report()
            .tenants
            .iter()
            .map(|t| t.rejuvenations)
            .sum()
    };
    let rej0 = rejuvenations(&rig);
    let chunks = if own { TRACE_CHUNKS } else { 1 };
    let chunk_s = seconds / (chunks * if own { 2 } else { 1 }) as f64;
    let mut base_ms = Samples::new();
    let mut p = Phase::new();
    for _ in 0..chunks {
        if own {
            base_ms.extend(&phase(&mut rig, chunk_s, &mut Tracer::new(false)).latency_ms);
        }
        p.absorb(phase(&mut rig, chunk_s, tr));
    }
    let rej1 = rejuvenations(&rig);
    let mut out = Outcome {
        correct: true,
        attempted: p.attempted,
        failed: p.failed,
        ..Outcome::default()
    };
    check(&rig, seed, &mut out);
    let self_us = replay_rounds(&rig, &p, tr);

    let submit = tr.durations_us("service.submit");
    let round = tr.durations_us("service.round");
    let b8 = tr.durations_us("system.classify_b8");
    out.metric("service.submit_us", submit.median(), "us", submit.len());
    out.metric("service.round_us", round.median(), "us", round.len());
    out.metric(
        "service.round_p99_us",
        round.quantile(0.99),
        "us",
        round.len(),
    );
    out.metric(
        "service.round_self_us",
        self_us.median(),
        "us",
        self_us.len(),
    );
    out.metric(
        "service.round_coverage",
        tr.coverage("service.loop"),
        "ratio",
        round.len(),
    );
    out.metric(
        "service.batch_size_mean",
        p.batch_sizes.mean(),
        "count",
        p.batch_sizes.len(),
    );
    out.metric(
        "service.queue_wait_rounds_p99",
        p.queue_wait.quantile(0.99),
        "rounds",
        p.queue_wait.len(),
    );
    out.metric(
        "service.decisive_ratio",
        p.decided as f64 / p.attempted.max(1) as f64,
        "ratio",
        p.attempted as usize,
    );
    out.metric("service.rejuvenations", (rej1 - rej0) as f64, "count", 1);
    out.metric("system.classify_b8_us", b8.median(), "us", b8.len());
    if own {
        let untraced = base_ms.median();
        out.metric(
            "trace.overhead_pct",
            100.0 * (p.latency_ms.median() - untraced) / untraced,
            "%",
            p.latency_ms.len(),
        );
    }
    out
}
