//! `avsim-drive`: the paper's closed-loop driving tick over all eight
//! case-study routes with proactive rejuvenation, driven from public calls
//! (`advance`, `rasterize`, `perceive`, `nearest_obstacle_on_path`,
//! `AccPlanner::plan`, `World::step`). Three detector forwards per tick at
//! batch 1 on the BEV grid; no serve layer is involved.

use crate::measure::{peak_rss_mb, repeated_setup, secs, BestOf, Outcome, Samples, Tracer};
use mvml_avsim::bev::{add_sensor_noise, rasterize};
use mvml_avsim::detector::decode;
use mvml_avsim::perception::vote_detections;
use mvml_avsim::planner::{AccPlanner, ObstacleAhead, PlannerConfig};
use mvml_avsim::runner::nearest_obstacle_on_path;
use mvml_avsim::{
    all_routes, run_route, DetectorBank, DetectorTrainConfig, MultiVersionPerception, RouteSpec,
    RunConfig, RunMetrics, World,
};
use mvml_core::rejuvenation::StateEvent;
use mvml_core::Verdict;
use mvml_nn::{Layer, Sequential};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::time::Instant;

const SETUP_REPS: usize = 3;
const WARMUP_TICKS: usize = 100;
/// Traced runs replay the inside of `perceive` on every n-th tick.
const REPLAY_EVERY: usize = 4;

/// The reduced-training bank: the standard architectures (so the same
/// compute per forward) trained on fewer scenes for a short set-up.
fn bank(seed: u64) -> DetectorBank {
    DetectorBank::train(&DetectorTrainConfig {
        scenes: 200,
        epochs: 2,
        seed: seed.wrapping_add(38),
        ..DetectorTrainConfig::default()
    })
}

fn run_config(seed: u64, route: &RouteSpec) -> RunConfig {
    RunConfig::case_study(true, seed.wrapping_mul(1000).wrapping_add(route.id as u64))
}

/// The counts a driven route must share with `runner::run_route`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counts {
    frames: usize,
    collision_frames: usize,
    first_collision: Option<usize>,
    skipped_frames: usize,
    no_output_frames: usize,
    completed: bool,
    macs: u64,
    fault_events: u64,
}

impl From<&RunMetrics> for Counts {
    fn from(m: &RunMetrics) -> Self {
        Counts {
            frames: m.frames,
            collision_frames: m.collision_frames,
            first_collision: m.first_collision,
            skipped_frames: m.skipped_frames,
            no_output_frames: m.no_output_frames,
            completed: m.completed,
            macs: m.macs,
            fault_events: m.fault_events,
        }
    }
}

/// Per-tick tallies of the traced run.
#[derive(Default)]
struct Tallies {
    forwards: u64,
    rejuvenations: u64,
    /// Per tick: perceive µs minus the replayed noise, forward, decode and
    /// vote µs.
    perceive_self_us: Samples,
}

/// Replays what `perceive` does inside, call by call, on pristine copies
/// of the detectors: one noisy sensor view, forward and decode per
/// operational module, then the vote. Returns the µs the replay took.
struct Replay {
    models: Vec<Sequential>,
    rng: StdRng,
}

impl Replay {
    fn run(
        &mut self,
        clean: &mvml_nn::Tensor,
        operational: &[bool],
        cfg: &RunConfig,
        tr: &mut Tracer,
        tick: u64,
    ) -> f64 {
        let p = cfg.perception;
        let first = tr.spans.len();
        let mut proposals = Vec::new();
        for (i, model) in self.models.iter_mut().enumerate() {
            if !operational[i] {
                proposals.push(None);
                continue;
            }
            let rng = &mut self.rng;
            let noisy = tr.span("avsim.sensor_noise", None, tick, || {
                add_sensor_noise(clean, p.noise_sigma, p.clutter, rng)
            });
            let logits = tr.span("avsim.forward", None, tick, || model.forward(&noisy, false));
            let set = tr.span("avsim.decode", None, tick, || decode(&logits, p.threshold));
            proposals.push(Some(set));
        }
        tr.span("avsim.vote", None, tick, || {
            vote_detections(&proposals, p.agreement_tolerance)
        });
        tr.spans[first..].iter().map(|s| s.us()).sum()
    }
}

/// Drives one route tick by tick, timing each tick (and, when traced,
/// each call in it).
fn drive(
    route: &RouteSpec,
    bank: &DetectorBank,
    cfg: &RunConfig,
    max_ticks: usize,
    ticks_ms: &mut Samples,
    tr: &mut Tracer,
    mut replay: Option<(&mut Replay, &mut Tallies)>,
) -> Counts {
    let mut world = World::new(route);
    let path = route.path();
    let mut perception = MultiVersionPerception::new(bank, cfg.perception, cfg.process, cfg.seed);
    let planner_cfg = PlannerConfig::for_target_speed(route.target_speed);
    let mut planner = AccPlanner::new(planner_cfg);
    let mut c = Counts {
        frames: 0,
        collision_frames: 0,
        first_collision: None,
        skipped_frames: 0,
        no_output_frames: 0,
        completed: false,
        macs: 0,
        fault_events: 0,
    };
    for frame in 0..cfg.max_frames.min(max_ticks) {
        let req = (route.id as u64) << 32 | frame as u64;
        let t0 = Instant::now();
        let tick = tr.open("avsim.tick", None, req);
        let events = tr.span("avsim.advance", Some(tick), req, || {
            perception.advance(cfg.dt)
        });
        let clean = tr.span("avsim.rasterize", Some(tick), req, || {
            let ego = world.ego();
            rasterize(ego.position(), ego.heading(), &world.ground_truth())
        });
        let perceive_span = tr.open("avsim.perceive", Some(tick), req);
        let output = perception.perceive(&clean);
        tr.close(perceive_span);
        let perceived: Verdict<ObstacleAhead> = tr.span("avsim.nearest", Some(tick), req, || {
            let ego = world.ego();
            match &output.verdict {
                Verdict::Output(d) => Verdict::Output(nearest_obstacle_on_path(
                    d,
                    ego.position(),
                    ego.heading(),
                    &path,
                    ego.arc_position(),
                    planner_cfg.corridor,
                    60.0,
                )),
                Verdict::Skip => Verdict::Skip,
                Verdict::NoModules => Verdict::NoModules,
            }
        });
        let accel = tr.span("avsim.plan", Some(tick), req, || {
            planner.plan(&perceived, world.ego().speed())
        });
        tr.span("avsim.world_step", Some(tick), req, || {
            world.step(accel, cfg.dt)
        });
        let collides = world.ego_collides();
        let completed = world.route_completed();
        tr.close(tick);
        ticks_ms.push(t0.elapsed().as_secs_f64() * 1e3);

        c.frames = frame + 1;
        c.macs += output.macs;
        c.fault_events += output.events.len() as u64;
        match &output.verdict {
            Verdict::Skip => c.skipped_frames += 1,
            Verdict::NoModules => c.no_output_frames += 1,
            Verdict::Output(_) => {}
        }
        if collides {
            c.collision_frames += 1;
            c.first_collision.get_or_insert(frame + 1);
        }
        if let Some((replay, tallies)) = replay.as_mut() {
            let operational: Vec<bool> = output.states.iter().map(|s| s.is_operational()).collect();
            tallies.forwards += operational.iter().filter(|&&o| o).count() as u64;
            tallies.rejuvenations += events
                .iter()
                .filter(|e| {
                    matches!(
                        e.event,
                        StateEvent::Recovered { .. } | StateEvent::ProactiveCompleted { .. }
                    )
                })
                .count() as u64;
            if frame % REPLAY_EVERY == 0 {
                let inner = replay.run(&clean, &operational, cfg, tr, req);
                let perceive_us = tr.spans[perceive_span].us();
                tallies.perceive_self_us.push(perceive_us - inner);
            }
        }
        if completed {
            c.completed = true;
            break;
        }
    }
    c
}

struct Rig {
    bank: DetectorBank,
    routes: Vec<RouteSpec>,
}

fn setup(seed: u64) -> Rig {
    let bank = bank(seed);
    let routes = all_routes();
    let cfg = run_config(seed, &routes[0]);
    let mut ticks = Samples::new();
    drive(
        &routes[0],
        &bank,
        &cfg,
        WARMUP_TICKS,
        &mut ticks,
        &mut Tracer::new(false),
        None,
    );
    Rig { bank, routes }
}

struct Phase {
    ticks_ms: Samples,
    /// Each tick's best time over the passes (every pass drives the same
    /// ticks: same routes, same seeds).
    best: BestOf,
    /// Every completed route pass: route index → counts.
    passes: Vec<(usize, Counts)>,
}

/// Drives the routes in order, whole routes at a time, until `seconds`
/// have passed.
fn phase(rig: &Rig, seed: u64, seconds: f64) -> Phase {
    let mut p = Phase {
        ticks_ms: Samples::new(),
        best: BestOf::new(),
        passes: Vec::new(),
    };
    let mut off = Tracer::new(false);
    let start = Instant::now();
    let mut i = 0;
    while secs(start) < seconds {
        let r = i % rig.routes.len();
        let route = &rig.routes[r];
        let cfg = run_config(seed, route);
        let first = p.ticks_ms.len();
        let counts = drive(
            route,
            &rig.bank,
            &cfg,
            usize::MAX,
            &mut p.ticks_ms,
            &mut off,
            None,
        );
        for (frame, &ms) in p.ticks_ms.values()[first..].iter().enumerate() {
            p.best.record(r * cfg.max_frames + frame, ms);
        }
        p.passes.push((r, counts));
        i += 1;
    }
    p
}

/// Every pass must reproduce `runner::run_route` for its route and seed.
fn check(rig: &Rig, seed: u64, passes: &[(usize, Counts)], out: &mut Outcome) {
    let mut expected: BTreeMap<usize, Counts> = BTreeMap::new();
    for (r, counts) in passes {
        let route = &rig.routes[*r];
        let want = *expected.entry(*r).or_insert_with(|| {
            Counts::from(&run_route(route, &rig.bank, &run_config(seed, route)))
        });
        if *counts != want {
            out.fail(format!(
                "avsim-drive: route {} drove {counts:?}, run_route gives {want:?}",
                route.id
            ));
            return;
        }
    }
}

pub fn measure(seed: u64, seconds: f64) -> Outcome {
    let (rig, setup_s) = repeated_setup(SETUP_REPS, || setup(seed));
    let p = phase(&rig, seed, seconds);
    let ticks = p.ticks_ms.len();
    let mut out = Outcome {
        correct: true,
        attempted: ticks as u64,
        ..Outcome::default()
    };
    check(&rig, seed, &p.passes, &mut out);
    out.metric("setup_s", setup_s.median(), "s", setup_s.len());
    out.metric("peak_rss_mb", peak_rss_mb(), "MB", 1);
    let (p50, tail, rate) = p.best.report(0.9);
    out.metric("ops_per_s", rate, "op/s", ticks);
    out.metric("p50_ms", p50, "ms", ticks);
    out.metric("tail_ms", tail, "ms", ticks);
    out
}

/// The traced run drives each route traced, replaying the inside of
/// `perceive`; for the named workload each route is first driven untraced
/// too (same seed, so the same ticks) as the overhead baseline.
pub fn trace(seed: u64, seconds: f64, own: bool, tr: &mut Tracer) -> Outcome {
    let rig = setup(seed);
    let mut replay = Replay {
        models: rig.bank.models().to_vec(),
        rng: StdRng::seed_from_u64(seed),
    };
    let mut tallies = Tallies::default();
    let (mut base_ms, mut ticks_ms) = (Samples::new(), Samples::new());
    let mut passes = Vec::new();
    let start = Instant::now();
    let mut i = 0;
    while secs(start) < seconds {
        let r = i % rig.routes.len();
        let route = &rig.routes[r];
        let cfg = run_config(seed, route);
        if own {
            drive(
                route,
                &rig.bank,
                &cfg,
                usize::MAX,
                &mut base_ms,
                &mut Tracer::new(false),
                None,
            );
        }
        let hook = Some((&mut replay, &mut tallies));
        let counts = drive(route, &rig.bank, &cfg, usize::MAX, &mut ticks_ms, tr, hook);
        passes.push((r, counts));
        i += 1;
    }
    let ticks = ticks_ms.len();
    let mut out = Outcome {
        correct: true,
        attempted: ticks as u64,
        ..Outcome::default()
    };
    check(&rig, seed, &passes, &mut out);

    let passes = passes.iter().map(|(_, c)| c);
    let frames: usize = passes.clone().map(|c| c.frames).sum();
    let skipped: usize = passes.clone().map(|c| c.skipped_frames).sum();
    let macs: u64 = passes.map(|c| c.macs).sum();
    for name in [
        "advance",
        "rasterize",
        "perceive",
        "sensor_noise",
        "forward",
        "decode",
        "vote",
        "nearest",
        "plan",
        "world_step",
    ] {
        let d = tr.durations_us(&format!("avsim.{name}"));
        out.metric(&format!("avsim.{name}_us"), d.median(), "us", d.len());
    }
    let perceive = tr.durations_us("avsim.perceive");
    out.metric(
        "avsim.perceive_p99_us",
        perceive.quantile(0.99),
        "us",
        perceive.len(),
    );
    out.metric(
        "avsim.perceive_self_us",
        tallies.perceive_self_us.median(),
        "us",
        tallies.perceive_self_us.len(),
    );
    out.metric(
        "avsim.tick_coverage",
        tr.coverage("avsim.tick"),
        "ratio",
        ticks,
    );
    out.metric(
        "avsim.forwards_per_tick",
        tallies.forwards as f64 / ticks as f64,
        "count",
        ticks,
    );
    out.metric(
        "avsim.macs_per_tick",
        macs as f64 / frames.max(1) as f64,
        "MAC",
        frames,
    );
    out.metric(
        "avsim.skip_ratio",
        skipped as f64 / frames.max(1) as f64,
        "ratio",
        frames,
    );
    out.metric(
        "avsim.rejuvenations",
        tallies.rejuvenations as f64,
        "count",
        1,
    );
    if own {
        let untraced = base_ms.median();
        out.metric(
            "trace.overhead_pct",
            100.0 * (ticks_ms.median() - untraced) / untraced,
            "%",
            ticks,
        );
    }
    out
}
