//! `dspn-sweep`: `core::dspn::expected_system_reliability` over the Fig. 3
//! proactive nets, n = 2..6, across the six Fig. 4 parameter panels, with
//! the Gauss–Seidel backend and the default Erlang-k. The only workload
//! that touches `petri`: net construction, Erlang expansion, reachability,
//! the steady-state solve and the reward.

use crate::measure::{peak_rss_mb, repeated_setup, secs, BestOf, Outcome, Samples, Tracer};
use mvml_core::analysis::{linspace, SweepVariable};
use mvml_core::dspn::{expected_system_reliability, with_proactive, SolveOptions};
use mvml_core::reliability::state_reliability;
use mvml_core::{StateReliability, SystemParams, SystemState};
use mvml_petri::reach::explore;
use mvml_petri::solve::solve_graph;
use mvml_petri::{erlang_expand, ExpectedReward, SolutionMethod};
use std::time::Instant;

const PANELS: [SweepVariable; 6] = [
    SweepVariable::RejuvenationInterval,
    SweepVariable::RejuvenationDuration,
    SweepVariable::MeanTimeToCompromise,
    SweepVariable::Alpha,
    SweepVariable::HealthyInaccuracy,
    SweepVariable::CompromisedInaccuracy,
];
const POINTS_PER_PANEL: usize = 5;
const N_RANGE: std::ops::RangeInclusive<u32> = 2..=6;
const SETUP_REPS: usize = 3;
/// Proactive E[R] at the Table IV parameters with Erlang-16, n = 2..6, as
/// `results/NSCALE_core.json` records them.
const NSCALE_ERLANG_K: u32 = 16;
const NSCALE: [f64; 5] = [
    0.96895818538576,
    0.9540369750771233,
    0.9880710065081505,
    0.9794596270784953,
    0.9946476865021019,
];

fn options() -> SolveOptions {
    SolveOptions {
        method: SolutionMethod::GaussSeidel,
        ..SolveOptions::default()
    }
}

/// One grid point: the module count and the parameter set.
#[derive(Clone, Copy)]
struct Point {
    n: u32,
    params: SystemParams,
}

/// The grid plus each point's E[R] from the warm-up pass.
struct Rig {
    points: Vec<Point>,
    expected: Vec<f64>,
}

fn setup(seed: u64) -> Rig {
    // The seed rotates the order the grid is visited in.
    let base = SystemParams::paper_table_iv();
    let mut points = Vec::new();
    for variable in PANELS {
        let (lo, hi) = variable.paper_range();
        for x in linspace(lo, hi, POINTS_PER_PANEL) {
            for n in N_RANGE {
                points.push(Point {
                    n,
                    params: variable.apply(&base, x),
                });
            }
        }
    }
    let shift = (seed as usize) % points.len();
    points.rotate_left(shift);
    let opts = options();
    let expected = points
        .iter()
        .map(|p| expected_system_reliability(p.n, true, &p.params, &opts).expect("point solves"))
        .collect();
    Rig { points, expected }
}

struct Phase {
    point_ms: Samples,
    /// `(point index, E[R])` of every timed solve.
    values: Vec<(usize, f64)>,
    /// Each point's best time over the passes.
    best: BestOf,
}

fn phase(rig: &Rig, seconds: f64) -> Phase {
    let opts = options();
    let mut p = Phase {
        point_ms: Samples::new(),
        values: Vec::new(),
        best: BestOf::new(),
    };
    let start = Instant::now();
    let mut i = 0;
    while secs(start) < seconds {
        let k = i % rig.points.len();
        let point = rig.points[k];
        let t0 = Instant::now();
        let value =
            expected_system_reliability(point.n, true, &point.params, &opts).expect("point solves");
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        p.point_ms.push(ms);
        p.best.record(k, ms);
        p.values.push((k, value));
        i += 1;
    }
    p
}

/// Phase-by-phase result of one point: E[R] by the generic reward, E[R] by
/// the closed forms (n ≤ 3 only), tangible states and the balance residual.
struct Phased {
    value: f64,
    closed_form: Option<f64>,
    states: usize,
    residual: f64,
}

/// Solves one point phase by phase, as `expected_system_reliability` does,
/// timing each phase when `tr` is enabled.
fn solve_phased(
    point: &Point,
    erlang_k: u32,
    closed_form: bool,
    tr: &mut Tracer,
    req: u64,
) -> Phased {
    let opts = options();
    let params = point.params;
    let mv = tr
        .span("dspn.build", None, req, || with_proactive(point.n, &params))
        .expect("net builds");
    let net = tr
        .span("petri.erlang", None, req, || {
            erlang_expand(&mv.net, erlang_k)
        })
        .expect("expands");
    let graph = tr
        .span("petri.reach", None, req, || {
            explore(&net, &opts.solver.reach)
        })
        .expect("explores");
    let solution = tr
        .span("petri.solve", None, req, || {
            solve_graph(&graph, &opts.method, &opts.solver)
        })
        .expect("solves");
    let (pmh, pmc, pmf, pmr) = (mv.pmh, mv.pmc, mv.pmf, mv.pmr.expect("proactive net"));
    let model = StateReliability::new(&params);
    let value = tr.span("dspn.reward", None, req, || {
        solution.expected_reward(|m| {
            model.reliability_of(SystemState::new(
                m[pmh] as usize,
                m[pmc] as usize,
                (m[pmf] + m[pmr]) as usize,
            ))
        })
    });
    let closed_form = (closed_form && point.n <= 3).then(|| {
        solution.expected_reward(|m| state_reliability(m[pmh] as usize, m[pmc] as usize, &params))
    });
    Phased {
        value,
        closed_form,
        states: solution.info().states,
        residual: solution.info().residual,
    }
}

/// Timed values repeat the warm-up value bit for bit; n ≤ 3 points match
/// the closed-form reward, and the Table IV points match `nscale`, to 1e-9.
fn check(rig: &Rig, p: &Phase, out: &mut Outcome) {
    for &(k, value) in &p.values {
        if value.to_bits() != rig.expected[k].to_bits() {
            out.fail(format!(
                "dspn-sweep: point {k} gave {value}, first solve {}",
                rig.expected[k]
            ));
            return;
        }
    }
    let mut off = Tracer::new(false);
    for (k, point) in rig.points.iter().enumerate().filter(|(_, p)| p.n <= 3) {
        let phased = solve_phased(point, SolveOptions::default().erlang_k, true, &mut off, 0);
        let matches = phased
            .closed_form
            .is_some_and(|cf| (cf - rig.expected[k]).abs() <= 1e-9);
        if !matches {
            out.fail(format!(
                "dspn-sweep: point {k} (n = {}) E[R] {} vs closed form {:?}",
                point.n, rig.expected[k], phased.closed_form
            ));
            return;
        }
    }
    let table_iv = SystemParams::paper_table_iv();
    let opts = SolveOptions {
        erlang_k: NSCALE_ERLANG_K,
        ..options()
    };
    for (n, want) in N_RANGE.zip(NSCALE) {
        let got =
            expected_system_reliability(n, true, &table_iv, &opts).expect("nscale point solves");
        if (got - want).abs() > 1e-9 {
            out.fail(format!("dspn-sweep: n = {n} E[R] {got} vs nscale {want}"));
            return;
        }
    }
}

pub fn measure(seed: u64, seconds: f64) -> Outcome {
    let (rig, setup_s) = repeated_setup(SETUP_REPS, || setup(seed));
    let p = phase(&rig, seconds);
    let points = p.point_ms.len();
    let mut out = Outcome {
        correct: true,
        attempted: points as u64,
        ..Outcome::default()
    };
    check(&rig, &p, &mut out);
    out.metric("setup_s", setup_s.median(), "s", setup_s.len());
    out.metric("peak_rss_mb", peak_rss_mb(), "MB", 1);
    let (p50, tail, rate) = p.best.report(0.9);
    out.metric("ops_per_s", rate, "op/s", points);
    out.metric("p50_ms", p50, "ms", points);
    out.metric("tail_ms", tail, "ms", points);
    out
}

/// The traced run solves each point phase by phase; for the named
/// workload each point is first solved untraced by the library call too,
/// as the overhead baseline.
pub fn trace(seed: u64, seconds: f64, own: bool, tr: &mut Tracer) -> Outcome {
    let rig = setup(seed);
    let opts = options();
    let k = opts.erlang_k;
    let (mut base_ms, mut point_ms) = (Samples::new(), Samples::new());
    let mut states_n6 = 0;
    let mut residual_max: f64 = 0.0;
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let start = Instant::now();
    let mut i = 0;
    while secs(start) < seconds {
        let idx = i % rig.points.len();
        let point = &rig.points[idx];
        if own {
            let t0 = Instant::now();
            let _ = expected_system_reliability(point.n, true, &point.params, &opts);
            base_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        let t0 = Instant::now();
        let phased = solve_phased(point, k, false, tr, idx as u64);
        point_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        if phased.value.to_bits() != rig.expected[idx].to_bits() {
            out.fail(format!(
                "dspn-sweep: phased point {idx} gave {}, library {}",
                phased.value, rig.expected[idx]
            ));
        }
        if point.n == 6 {
            states_n6 = phased.states;
        }
        residual_max = residual_max.max(phased.residual);
        i += 1;
    }
    out.attempted = point_ms.len() as u64;

    for name in [
        "dspn.build",
        "petri.erlang",
        "petri.reach",
        "petri.solve",
        "dspn.reward",
    ] {
        let d = tr.durations_us(name);
        out.metric(&format!("{name}_us"), d.median(), "us", d.len());
    }
    for name in ["petri.reach", "petri.solve"] {
        let mut d = Samples::new();
        for s in tr
            .spans
            .iter()
            .filter(|s| s.name == name && rig.points[s.req as usize].n == 6)
        {
            d.push(s.us());
        }
        out.metric(&format!("{name}_n6_us"), d.median(), "us", d.len());
    }
    out.metric("petri.tangible_states", states_n6 as f64, "count", 1);
    out.metric(
        "petri.solve_residual",
        residual_max,
        "ratio",
        point_ms.len(),
    );
    if own {
        let untraced = base_ms.median();
        out.metric(
            "trace.overhead_pct",
            100.0 * (point_ms.median() - untraced) / untraced,
            "%",
            point_ms.len(),
        );
    }
    out
}
