//! Exact steady-state solution of the embedded CTMC.

use crate::error::PetriError;
use crate::marking::Marking;
use crate::model::Net;
use crate::reach::{explore, ReachOptions, ReachabilityGraph};
use crate::reward::{Distribution, ExpectedReward};
use crate::solve::{solve_graph, SolutionMethod};

/// Options for [`steady_state_with`].
#[derive(Debug, Clone)]
pub struct SolverOptions {
    /// Reachability exploration budget.
    pub reach: ReachOptions,
    /// Chains up to this size are solved by dense Gaussian elimination;
    /// larger ones by sparse Gauss–Seidel.
    pub dense_threshold: usize,
    /// Convergence tolerance for the iterative solver.
    pub tolerance: f64,
    /// Sweep budget for the iterative solver.
    pub max_sweeps: usize,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            reach: ReachOptions::default(),
            dense_threshold: 400,
            tolerance: 1e-13,
            max_sweeps: 200_000,
        }
    }
}

/// The stationary distribution of a net over its tangible markings.
#[derive(Debug)]
pub struct SteadyState(Distribution);

impl SteadyState {
    /// Assembles a solution from markings and probabilities by state id.
    pub(crate) fn new(markings: Vec<Marking>, probs: Vec<f64>) -> Self {
        SteadyState(Distribution::new(markings.into(), probs))
    }

    /// Number of tangible markings.
    pub fn state_count(&self) -> usize {
        self.0.state_count()
    }

    /// Iterates over `(marking, probability)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&Marking, f64)> {
        self.0.iter()
    }

    /// Stationary probability of the exact marking `m` (0 if unreachable).
    /// The first call builds a marking → state id index; later calls are
    /// O(1) instead of a scan over the (possibly Erlang-expanded,
    /// thousands-of-states) space.
    pub fn probability_of_marking(&self, m: &Marking) -> f64 {
        self.0.probability_of_marking(m)
    }
}

impl ExpectedReward for SteadyState {
    fn expected_reward<F: Fn(&Marking) -> f64>(&self, reward: F) -> f64 {
        self.0.expected_reward(reward)
    }
}

/// Solves `net` for its stationary distribution with default options.
///
/// The net must contain no deterministic transitions (expand them with
/// [`crate::erlang_expand`] first) and its tangible CTMC must be ergodic.
///
/// # Errors
///
/// Propagates reachability errors ([`PetriError::StateSpaceTooLarge`],
/// [`PetriError::ImmediateCycle`], …) and solver failures
/// ([`PetriError::SolverDiverged`]).
pub fn steady_state(net: &Net) -> Result<SteadyState, PetriError> {
    steady_state_with(net, &SolverOptions::default())
}

/// Solves `net` for its stationary distribution with explicit options.
///
/// # Errors
///
/// See [`steady_state`].
pub fn steady_state_with(net: &Net, opts: &SolverOptions) -> Result<SteadyState, PetriError> {
    let graph = explore(net, &opts.reach)?;
    steady_state_of_graph(&graph, opts)
}

/// Solves a pre-computed reachability graph (the [`SolutionMethod::Auto`]
/// backend policy; use [`crate::solve_graph`] to pick a backend explicitly
/// or to inspect the residual).
///
/// # Errors
///
/// See [`steady_state`].
pub fn steady_state_of_graph(
    graph: &ReachabilityGraph,
    opts: &SolverOptions,
) -> Result<SteadyState, PetriError> {
    let solution = solve_graph(graph, &SolutionMethod::Auto, opts)?;
    Ok(solution
        .into_steady_state()
        .expect("analytic backend yields a steady state"))
}

#[cfg(test)]
// Exact float assertions are deliberate here: the expected values are
// produced by the same deterministic arithmetic being tested.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use crate::model::{NetBuilder, ServerSemantics};

    /// M/M/1/K queue: arrivals rate λ while fewer than K jobs, service μ.
    /// Closed form: π_i ∝ ρ^i with ρ = λ/μ.
    fn mm1k(lambda: f64, mu: f64, k: u32) -> Net {
        let mut b = NetBuilder::new("mm1k");
        let free = b.place("free", k);
        let busy = b.place("busy", 0);
        let arrive = b.exponential("arrive", lambda);
        let serve = b.exponential("serve", mu);
        b.input_arc(free, arrive, 1).unwrap();
        b.output_arc(arrive, busy, 1).unwrap();
        b.input_arc(busy, serve, 1).unwrap();
        b.output_arc(serve, free, 1).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn mm1k_matches_closed_form() {
        let (lambda, mu, k) = (0.7, 1.0, 4u32);
        let net = mm1k(lambda, mu, k);
        let ss = steady_state(&net).unwrap();
        let rho: f64 = lambda / mu;
        let norm: f64 = (0..=k).map(|i| rho.powi(i as i32)).sum();
        let busy = net.place_by_name("busy").unwrap();
        for i in 0..=k {
            let expected = rho.powi(i as i32) / norm;
            let got = ss
                .iter()
                .find(|(m, _)| m[busy] == i)
                .map(|(_, p)| p)
                .unwrap();
            assert!((got - expected).abs() < 1e-12, "i={i}: {got} vs {expected}");
        }
    }

    #[test]
    fn erlang_loss_like_model_with_infinite_server() {
        // K independent machines failing at rate λ each and repaired (one at
        // a time) at rate μ: the machine-repair model. Check against direct
        // birth–death closed form:
        //   up i machines: failure rate i λ, repair rate μ (single repairman)
        let (lambda, mu, k) = (0.2, 1.5, 3u32);
        let mut b = NetBuilder::new("machine-repair");
        let up = b.place("up", k);
        let down = b.place("down", 0);
        let fail = b.exponential_with("fail", lambda, ServerSemantics::Infinite);
        let repair = b.exponential("repair", mu);
        b.input_arc(up, fail, 1).unwrap();
        b.output_arc(fail, down, 1).unwrap();
        b.input_arc(down, repair, 1).unwrap();
        b.output_arc(repair, up, 1).unwrap();
        let net = b.build().unwrap();

        // Birth–death on number down: j -> j+1 at (k-j)λ, j -> j-1 at μ.
        let mut unnorm = vec![1.0f64];
        for j in 0..k {
            let birth = f64::from(k - j) * lambda;
            let prev = unnorm[j as usize];
            unnorm.push(prev * birth / mu);
        }
        let norm: f64 = unnorm.iter().sum();

        let ss = steady_state(&net).unwrap();
        let down_p = net.place_by_name("down").unwrap();
        for j in 0..=k {
            let expected = unnorm[j as usize] / norm;
            let got = ss
                .iter()
                .find(|(m, _)| m[down_p] == j)
                .map(|(_, p)| p)
                .unwrap();
            assert!((got - expected).abs() < 1e-12);
        }
    }

    #[test]
    fn sparse_and_dense_paths_agree() {
        let net = mm1k(0.9, 1.3, 60);
        let dense = steady_state_with(
            &net,
            &SolverOptions {
                dense_threshold: 1_000,
                ..SolverOptions::default()
            },
        )
        .unwrap();
        let sparse = steady_state_with(
            &net,
            &SolverOptions {
                dense_threshold: 0,
                ..SolverOptions::default()
            },
        )
        .unwrap();
        assert_eq!(dense.state_count(), sparse.state_count());
        for (a, b) in dense.iter().zip(sparse.iter()) {
            assert_eq!(a.0, b.0);
            assert!((a.1 - b.1).abs() < 1e-9);
        }
    }

    #[test]
    fn probabilities_sum_to_one() {
        let ss = steady_state(&mm1k(0.3, 0.9, 10)).unwrap();
        let total: f64 = ss.iter().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn expected_reward_and_marking_lookup() {
        let net = mm1k(1.0, 1.0, 2);
        let ss = steady_state(&net).unwrap();
        let busy = net.place_by_name("busy").unwrap();
        // ρ=1 → uniform over 3 states; E[#busy] = 1.
        let mean_busy = ss.expected_reward(|m| f64::from(m[busy]));
        assert!((mean_busy - 1.0).abs() < 1e-12);
        let p_empty = ss.probability(|m| m[busy] == 0);
        assert!((p_empty - 1.0 / 3.0).abs() < 1e-12);
        let m = Marking::new(vec![2, 0]);
        assert!((ss.probability_of_marking(&m) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(ss.probability_of_marking(&Marking::new(vec![9, 9])), 0.0);
    }
}
