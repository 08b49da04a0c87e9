//! Small linear-algebra helpers for steady-state solution.
//!
//! Two solvers are provided for the global balance equations `πQ = 0`,
//! `Σπ = 1` of an ergodic CTMC:
//!
//! * [`solve_dense`] — exact Gaussian elimination with partial pivoting on
//!   the transposed generator; used for small chains and as the ground truth
//!   in tests.
//! * [`solve_gauss_seidel`] — sparse Gauss–Seidel sweeps; used for the
//!   Erlang-expanded rejuvenation models whose state spaces reach a few
//!   thousand states.

use crate::error::PetriError;

/// A sparse CTMC generator in compressed sparse row form over *incoming*
/// edges: state `j`'s inflows `(i, q_ij)`, `i != j`, are
/// `source[k], rate[k]` for `k` in `start[j]..start[j + 1]`, ordered by
/// source state and then by the source's edge order.
#[derive(Debug, Clone)]
pub struct SparseGenerator {
    start: Vec<usize>,
    source: Vec<u32>,
    rate: Vec<f64>,
    /// Total exit rate of each state (`-q_jj`).
    exit: Vec<f64>,
}

impl SparseGenerator {
    /// Builds the incoming-edge representation from outgoing-edge lists.
    ///
    /// # Panics
    ///
    /// Panics if there are more than `u32::MAX` states.
    pub fn from_outgoing(edges: &[Vec<(usize, f64)>]) -> Self {
        let n = edges.len();
        // Self-loops leave the state unchanged and are irrelevant to the
        // stationary distribution of a CTMC.
        let off_diagonal = || {
            edges
                .iter()
                .enumerate()
                .flat_map(|(i, out)| out.iter().map(move |&(j, r)| (i, j, r)))
                .filter(|&(i, j, _)| i != j)
        };
        let mut start = vec![0usize; n + 1];
        for (_, j, _) in off_diagonal() {
            start[j + 1] += 1;
        }
        for j in 0..n {
            start[j + 1] += start[j];
        }
        let mut fill = start[..n].to_vec();
        let mut source = vec![0u32; start[n]];
        let mut rate = vec![0.0f64; start[n]];
        let mut exit = vec![0.0; n];
        for (i, j, r) in off_diagonal() {
            exit[i] += r;
            source[fill[j]] = u32::try_from(i).expect("state ids fit in u32");
            rate[fill[j]] = r;
            fill[j] += 1;
        }
        SparseGenerator {
            start,
            source,
            rate,
            exit,
        }
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        self.exit.len()
    }

    /// Returns `true` if the generator has no states.
    pub fn is_empty(&self) -> bool {
        self.exit.is_empty()
    }

    /// Probability flow into state `j` under `pi`, `Σ_i pi[i] q_ij`, summed
    /// in inflow order.
    fn inflow(&self, j: usize, pi: &[f64]) -> f64 {
        let edges = self.start[j]..self.start[j + 1];
        self.source[edges.clone()]
            .iter()
            .zip(&self.rate[edges])
            .map(|(&i, &q)| pi[i as usize] * q)
            .sum()
    }
}

/// Solves `πQ = 0, Σπ = 1` by dense Gaussian elimination.
///
/// `edges[i]` lists outgoing `(j, q_ij)` pairs.
///
/// # Errors
///
/// Returns [`PetriError::SolverDiverged`] if the system is singular beyond
/// numerical tolerance (e.g. a reducible chain).
pub fn solve_dense(edges: &[Vec<(usize, f64)>]) -> Result<Vec<f64>, PetriError> {
    let n = edges.len();
    if n == 0 {
        return Ok(Vec::new());
    }
    if n == 1 {
        return Ok(vec![1.0]);
    }
    // Build A = Q^T, then overwrite the last row with the normalisation
    // Σπ = 1.  Solve A x = e_last.
    let mut a = vec![0.0f64; n * n];
    for (i, out) in edges.iter().enumerate() {
        let mut exit = 0.0;
        for &(j, r) in out {
            // Self-loops do not change the state; skip them entirely.
            if i != j {
                exit += r;
                a[j * n + i] += r; // A[j][i] = q_ij
            }
        }
        a[i * n + i] -= exit;
    }
    for j in 0..n {
        a[(n - 1) * n + j] = 1.0;
    }
    let mut b = vec![0.0f64; n];
    b[n - 1] = 1.0;

    // Gaussian elimination with partial pivoting.
    for col in 0..n {
        let mut pivot = col;
        let mut best = a[col * n + col].abs();
        for row in (col + 1)..n {
            let v = a[row * n + col].abs();
            if v > best {
                best = v;
                pivot = row;
            }
        }
        if best < 1e-300 {
            return Err(PetriError::SolverDiverged {
                iterations: 0,
                residual: best,
            });
        }
        if pivot != col {
            for k in 0..n {
                a.swap(col * n + k, pivot * n + k);
            }
            b.swap(col, pivot);
        }
        let d = a[col * n + col];
        for row in (col + 1)..n {
            let f = a[row * n + col] / d;
            if f == 0.0 {
                continue;
            }
            for k in col..n {
                a[row * n + k] -= f * a[col * n + k];
            }
            b[row] -= f * b[col];
        }
    }
    let mut x = vec![0.0f64; n];
    for row in (0..n).rev() {
        let mut s = b[row];
        for k in (row + 1)..n {
            s -= a[row * n + k] * x[k];
        }
        x[row] = s / a[row * n + row];
    }
    // Clamp tiny negatives produced by roundoff and renormalise.
    let mut sum = 0.0;
    for v in &mut x {
        if *v < 0.0 && *v > -1e-9 {
            *v = 0.0;
        }
        sum += *v;
    }
    if !(sum.is_finite()) || sum <= 0.0 {
        return Err(PetriError::SolverDiverged {
            iterations: 0,
            residual: sum,
        });
    }
    for v in &mut x {
        *v /= sum;
    }
    Ok(x)
}

/// Solves `πQ = 0, Σπ = 1` by Gauss–Seidel sweeps over the sparse generator.
///
/// # Errors
///
/// Returns [`PetriError::SolverDiverged`] if the residual does not fall
/// below `tol` within `max_sweeps` sweeps, or if an absorbing state (zero
/// exit rate) is present.
pub fn solve_gauss_seidel(
    gen: &SparseGenerator,
    tol: f64,
    max_sweeps: usize,
) -> Result<Vec<f64>, PetriError> {
    let n = gen.len();
    if n == 0 {
        return Ok(Vec::new());
    }
    if n == 1 {
        return Ok(vec![1.0]);
    }
    for (j, &e) in gen.exit.iter().enumerate() {
        if e <= 0.0 {
            return Err(PetriError::InvalidParameter {
                what: format!("state {j} is absorbing; steady state requires an ergodic chain"),
            });
        }
    }
    let mut pi = vec![1.0 / n as f64; n];
    for sweep in 1..=max_sweeps {
        let mut max_rel_change = 0.0f64;
        for j in 0..n {
            let new = gen.inflow(j, &pi) / gen.exit[j];
            let denom = new.abs().max(1e-300);
            let change = (new - pi[j]).abs() / denom;
            if change > max_rel_change {
                max_rel_change = change;
            }
            pi[j] = new;
        }
        let sum: f64 = pi.iter().sum();
        if sum <= 0.0 || !sum.is_finite() {
            return Err(PetriError::SolverDiverged {
                iterations: sweep,
                residual: sum,
            });
        }
        for v in &mut pi {
            *v /= sum;
        }
        if max_rel_change < tol {
            // Final residual check on the balance equations.
            let residual = balance_residual(gen, &pi);
            if residual < tol.sqrt().max(1e-8) {
                return Ok(pi);
            }
        }
    }
    let residual = balance_residual(gen, &pi);
    if residual < 1e-8 {
        return Ok(pi);
    }
    Err(PetriError::SolverDiverged {
        iterations: max_sweeps,
        residual,
    })
}

/// Maximum absolute violation of the global balance equations, normalised
/// by the largest probability flow in the chain.
///
/// A chain-global accuracy measure suited to *reporting* solution quality:
/// the per-state relative measure of [`balance_residual`] saturates near 1
/// for states of negligible probability (where a direct solver's roundoff
/// dwarfs the state's own tiny flows), even when the distribution is
/// accurate to machine precision everywhere it matters.
pub fn global_balance_residual(gen: &SparseGenerator, pi: &[f64]) -> f64 {
    let mut worst_violation = 0.0f64;
    let mut max_flow = 0.0f64;
    for j in 0..gen.len() {
        let inflow = gen.inflow(j, pi);
        let outflow = pi[j] * gen.exit[j];
        worst_violation = worst_violation.max((inflow - outflow).abs());
        max_flow = max_flow.max(inflow.abs()).max(outflow.abs());
    }
    if max_flow > 0.0 {
        worst_violation / max_flow
    } else {
        worst_violation
    }
}

/// Maximum per-state *relative* violation of the global balance equations
/// (the iterative solver's convergence criterion).
pub fn balance_residual(gen: &SparseGenerator, pi: &[f64]) -> f64 {
    let mut worst = 0.0f64;
    for j in 0..gen.len() {
        let inflow = gen.inflow(j, pi);
        let outflow = pi[j] * gen.exit[j];
        let scale = inflow.abs().max(outflow.abs()).max(1e-300);
        let v = (inflow - outflow).abs() / scale;
        if v > worst {
            worst = v;
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two-state chain: 0 -(a)-> 1, 1 -(b)-> 0; π0 = b/(a+b).
    fn two_state(a: f64, b: f64) -> Vec<Vec<(usize, f64)>> {
        vec![vec![(1, a)], vec![(0, b)]]
    }

    #[test]
    fn dense_two_state() {
        let pi = solve_dense(&two_state(0.01, 1.0)).unwrap();
        assert!((pi[0] - 1.0 / 1.01).abs() < 1e-12);
        assert!((pi[1] - 0.01 / 1.01).abs() < 1e-12);
    }

    #[test]
    fn gauss_seidel_matches_dense() {
        // Random-ish 5-state ring with extra chords.
        let edges = vec![
            vec![(1, 2.0), (3, 0.5)],
            vec![(2, 1.0)],
            vec![(3, 4.0), (0, 0.25)],
            vec![(4, 1.5)],
            vec![(0, 3.0), (2, 0.1)],
        ];
        let dense = solve_dense(&edges).unwrap();
        let gs =
            solve_gauss_seidel(&SparseGenerator::from_outgoing(&edges), 1e-14, 100_000).unwrap();
        for (d, g) in dense.iter().zip(&gs) {
            assert!((d - g).abs() < 1e-9, "dense={d} gs={g}");
        }
    }

    #[test]
    fn gauss_seidel_handles_stiff_rates() {
        // Rates spanning seven orders of magnitude (the paper's models mix
        // 1/1523 s⁻¹ compromise rates with 2 s⁻¹ repairs).
        let edges = vec![vec![(1, 6.57e-4)], vec![(2, 6.57e-4)], vec![(0, 2.0)]];
        let dense = solve_dense(&edges).unwrap();
        let gs =
            solve_gauss_seidel(&SparseGenerator::from_outgoing(&edges), 1e-14, 100_000).unwrap();
        for (d, g) in dense.iter().zip(&gs) {
            assert!((d - g).abs() < 1e-10);
        }
    }

    #[test]
    fn singleton_chain() {
        assert_eq!(solve_dense(&[vec![]]).unwrap(), vec![1.0]);
        let gen = SparseGenerator::from_outgoing(&[vec![]]);
        assert_eq!(solve_gauss_seidel(&gen, 1e-12, 10).unwrap(), vec![1.0]);
    }

    #[test]
    fn empty_chain() {
        assert!(solve_dense(&[]).unwrap().is_empty());
        let gen = SparseGenerator::from_outgoing(&[]);
        assert!(gen.is_empty());
        assert!(solve_gauss_seidel(&gen, 1e-12, 10).unwrap().is_empty());
    }

    #[test]
    fn absorbing_state_rejected_by_gs() {
        let edges = vec![vec![(1, 1.0)], vec![]];
        let gen = SparseGenerator::from_outgoing(&edges);
        assert!(matches!(
            solve_gauss_seidel(&gen, 1e-12, 10),
            Err(PetriError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn probabilities_sum_to_one_and_are_nonnegative() {
        let edges = vec![
            vec![(1, 1.0), (2, 2.0)],
            vec![(0, 0.5), (2, 0.5)],
            vec![(0, 1.0)],
        ];
        for pi in [
            solve_dense(&edges).unwrap(),
            solve_gauss_seidel(&SparseGenerator::from_outgoing(&edges), 1e-14, 100_000).unwrap(),
        ] {
            let sum: f64 = pi.iter().sum();
            assert!((sum - 1.0).abs() < 1e-12);
            assert!(pi.iter().all(|&p| p >= 0.0));
        }
    }

    #[test]
    fn global_residual_tracks_solution_quality() {
        let edges = vec![
            vec![(1, 2.0), (3, 0.5)],
            vec![(2, 1.0)],
            vec![(3, 4.0), (0, 0.25)],
            vec![(4, 1.5)],
            vec![(0, 3.0), (2, 0.1)],
        ];
        let gen = SparseGenerator::from_outgoing(&edges);
        let pi = solve_dense(&edges).unwrap();
        assert!(global_balance_residual(&gen, &pi) < 1e-12);
        // A deliberately wrong distribution violates balance badly.
        let uniform = vec![0.2; 5];
        assert!(global_balance_residual(&gen, &uniform) > 1e-2);
        // Degenerate inputs do not divide by zero.
        assert!(global_balance_residual(&gen, &[0.0; 5]) < f64::EPSILON);
    }

    #[test]
    fn self_loops_are_ignored_in_balance() {
        // A self loop contributes to exit and inflow identically; the solver
        // must not double count. Model: q_00 self loop plus real edge.
        let edges = vec![vec![(0, 5.0), (1, 1.0)], vec![(0, 1.0)]];
        let pi = solve_dense(&edges).unwrap();
        // With the self-loop removed this is the symmetric two-state chain…
        // except exit(0) includes the loop. Steady state of a CTMC is
        // invariant under self-loops, so π = (0.5, 0.5).
        assert!((pi[0] - 0.5).abs() < 1e-9, "pi={pi:?}");
    }
}
