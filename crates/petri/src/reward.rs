//! Reward evaluation over stationary (or time-averaged) distributions.
//!
//! The paper assigns a reliability `R_{i,j,k}` to each system state and
//! computes the expected system reliability as `E[R] = Σ π_{i,j,k} R_{i,j,k}`
//! (its Eq. 3). [`ExpectedReward`] is exactly that operation, abstracted over
//! whether `π` came from an exact CTMC solution or a simulation.

use crate::marking::{Marking, MarkingHash};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Types that carry a probability (or time-fraction) distribution over
/// markings and can integrate a reward function against it.
pub trait ExpectedReward {
    /// Expected value of `reward` under the distribution (the paper's Eq. 3).
    fn expected_reward<F: Fn(&Marking) -> f64>(&self, reward: F) -> f64;

    /// Probability mass of markings satisfying `pred`.
    fn probability<F: Fn(&Marking) -> bool>(&self, pred: F) -> f64 {
        self.expected_reward(|m| if pred(m) { 1.0 } else { 0.0 })
    }
}

/// A probability distribution over tangible markings: the shared body of
/// [`crate::SteadyState`] and [`crate::TransientSolution`].
///
/// Rewards iterate the markings in state-id order. The marking → state id
/// index serves only [`Distribution::probability_of_marking`], so it is
/// built on the first such lookup rather than on every solve.
#[derive(Debug)]
pub(crate) struct Distribution {
    /// Tangible markings by state id; transient solutions at several time
    /// points share one copy.
    markings: Arc<[Marking]>,
    probs: Vec<f64>,
    // mvml-allow(determinism): lookup-only index; rewards iterate `markings`, never this map
    index: OnceLock<HashMap<Marking, usize, MarkingHash>>,
}

impl Distribution {
    pub(crate) fn new(markings: Arc<[Marking]>, probs: Vec<f64>) -> Self {
        debug_assert_eq!(markings.len(), probs.len());
        Distribution {
            markings,
            probs,
            index: OnceLock::new(),
        }
    }

    pub(crate) fn state_count(&self) -> usize {
        self.markings.len()
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = (&Marking, f64)> {
        self.markings.iter().zip(self.probs.iter().copied())
    }

    /// Probability of the exact marking `m` (0 if unreachable).
    pub(crate) fn probability_of_marking(&self, m: &Marking) -> f64 {
        let index = self.index.get_or_init(|| {
            self.markings
                .iter()
                .enumerate()
                .map(|(i, m)| (m.clone(), i))
                .collect()
        });
        index.get(m).map_or(0.0, |&i| self.probs[i])
    }
}

impl ExpectedReward for Distribution {
    fn expected_reward<F: Fn(&Marking) -> f64>(&self, reward: F) -> f64 {
        self.iter().map(|(m, p)| p * reward(m)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fixed(Vec<(Marking, f64)>);

    impl ExpectedReward for Fixed {
        fn expected_reward<F: Fn(&Marking) -> f64>(&self, reward: F) -> f64 {
            self.0.iter().map(|(m, p)| p * reward(m)).sum()
        }
    }

    #[test]
    fn probability_is_indicator_reward() {
        let d = Fixed(vec![
            (Marking::new(vec![1]), 0.25),
            (Marking::new(vec![2]), 0.75),
        ]);
        assert!((d.probability(|m| m.get(0) == 2) - 0.75).abs() < 1e-15);
        assert!((d.expected_reward(|m| f64::from(m.get(0))) - 1.75).abs() < 1e-15);
    }

    #[test]
    fn lazy_index_finds_every_state_and_only_those() {
        let markings: Vec<Marking> = (0..50u32).map(|i| Marking::new(vec![i, 49 - i])).collect();
        let probs: Vec<f64> = (0..50).map(|i| f64::from(i) / 1225.0).collect();
        let d = Distribution::new(markings.clone().into(), probs.clone());
        assert!(d.index.get().is_none(), "no index before the first lookup");
        for (m, &p) in markings.iter().zip(&probs) {
            assert_eq!(d.probability_of_marking(m).to_bits(), p.to_bits(), "{m}");
        }
        assert_eq!(d.index.get().map(HashMap::len), Some(50));
        for unreachable in [vec![50, 0], vec![0, 0], vec![1, 2, 3], vec![]] {
            let m = Marking::new(unreachable);
            assert_eq!(
                d.probability_of_marking(&m).to_bits(),
                0.0f64.to_bits(),
                "{m}"
            );
        }
        assert_eq!(d.state_count(), 50);
        assert_eq!(d.iter().count(), 50);
    }
}
