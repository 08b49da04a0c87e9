//! Shared enabling / firing logic used by both the reachability explorer and
//! the discrete-event simulator.

use crate::marking::Marking;
use crate::model::{Net, ServerSemantics, Timing};

/// Returns `true` if transition `t` is enabled in `marking`.
pub(crate) fn is_enabled(net: &Net, t: usize, marking: &Marking) -> bool {
    let tr = &net.transitions[t];
    for &(p, w) in &tr.inputs {
        if marking.get(p) < w {
            return false;
        }
    }
    for &(p, w) in &tr.inhibitors {
        if marking.get(p) >= w {
            return false;
        }
    }
    if let Some(guard) = &tr.guard {
        if !guard(marking) {
            return false;
        }
    }
    true
}

/// Enabling degree: how many times `t` could fire concurrently from
/// `marking`, ignoring guards and inhibitors (which gate but do not scale).
pub(crate) fn enabling_degree(net: &Net, t: usize, marking: &Marking) -> u32 {
    let tr = &net.transitions[t];
    tr.inputs
        .iter()
        .map(|&(p, w)| marking.get(p) / w)
        .min()
        .unwrap_or(0)
}

/// Effective firing rate of an (enabled) exponential transition in `marking`,
/// taking server semantics into account. Returns `None` for non-exponential
/// transitions.
pub(crate) fn effective_rate(net: &Net, t: usize, marking: &Marking) -> Option<f64> {
    match &net.transitions[t].timing {
        Timing::Exponential { rate, semantics } => {
            let base = rate.eval(marking);
            let degree = match semantics {
                ServerSemantics::Single => 1,
                ServerSemantics::Infinite => enabling_degree(net, t, marking),
                ServerSemantics::KServer(k) => enabling_degree(net, t, marking).min(*k),
            };
            Some(base * f64::from(degree.max(1)))
        }
        _ => None,
    }
}

/// Fires transition `t` from `marking`, producing the successor marking.
///
/// Assumes `t` is enabled; token counts are debited then credited.
pub(crate) fn fire(net: &Net, t: usize, marking: &Marking) -> Marking {
    let mut next = marking.clone();
    fire_in_place(net, t, &mut next);
    next
}

/// [`fire`] without the allocation: turns `marking` into its successor.
pub(crate) fn fire_in_place(net: &Net, t: usize, marking: &mut Marking) {
    let tr = &net.transitions[t];
    for &(p, w) in &tr.inputs {
        marking.set(p, marking.get(p) - w);
    }
    for &(p, w) in &tr.outputs {
        marking.set(p, marking.get(p) + w);
    }
}

/// The set of enabled immediate transitions at the *highest* enabled
/// priority, together with their weights in `marking`.
pub(crate) fn enabled_immediates(net: &Net, marking: &Marking) -> Vec<(usize, f64)> {
    let mut best_priority = None;
    let mut result: Vec<(usize, u32, f64)> = Vec::new();
    for (i, tr) in net.transitions.iter().enumerate() {
        if let Timing::Immediate { priority, weight } = &tr.timing {
            if is_enabled(net, i, marking) {
                let w = weight.eval(marking);
                if w > 0.0 {
                    result.push((i, *priority, w));
                    best_priority =
                        Some(best_priority.map_or(*priority, |b: u32| b.max(*priority)));
                }
            }
        }
    }
    let Some(best) = best_priority else {
        return Vec::new();
    };
    result
        .into_iter()
        .filter(|&(_, p, _)| p == best)
        .map(|(i, _, w)| (i, w))
        .collect()
}

/// Enabled timed (exponential or deterministic) transitions in `marking`.
pub(crate) fn enabled_timed(net: &Net, marking: &Marking) -> Vec<usize> {
    net.transitions
        .iter()
        .enumerate()
        .filter(|(_, tr)| !tr.timing.is_immediate())
        .filter(|(i, _)| is_enabled(net, *i, marking))
        .map(|(i, _)| i)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{NetBuilder, ServerSemantics};

    fn simple_net() -> Net {
        // p0(2) --t0(exp, infinite server, rate 0.5)--> p1
        // t1 immediate: p1 -> p0, inhibited by p0 >= 3, guarded p1 >= 1
        let mut b = NetBuilder::new("n");
        let p0 = b.place("p0", 2);
        let p1 = b.place("p1", 0);
        let t0 = b.exponential_with("t0", 0.5, ServerSemantics::Infinite);
        let t1 = b.immediate("t1");
        b.input_arc(p0, t0, 1).unwrap();
        b.output_arc(t0, p1, 1).unwrap();
        b.input_arc(p1, t1, 1).unwrap();
        b.output_arc(t1, p0, 1).unwrap();
        b.inhibitor_arc(p0, t1, 3).unwrap();
        b.guard(t1, |m| m.get(1) >= 1).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn enabling_and_degree() {
        let net = simple_net();
        let m = Marking::new(vec![2, 0]);
        assert!(is_enabled(&net, 0, &m));
        assert!(!is_enabled(&net, 1, &m)); // p1 empty
        assert_eq!(enabling_degree(&net, 0, &m), 2);
        assert_eq!(effective_rate(&net, 0, &m), Some(1.0)); // 0.5 * 2 servers
    }

    #[test]
    fn inhibitor_disables() {
        let net = simple_net();
        let m = Marking::new(vec![3, 1]);
        // guard satisfied (p1 >= 1) but p0 >= 3 inhibits t1
        assert!(!is_enabled(&net, 1, &m));
        let m2 = Marking::new(vec![2, 1]);
        assert!(is_enabled(&net, 1, &m2));
    }

    #[test]
    fn firing_moves_tokens() {
        let net = simple_net();
        let m = Marking::new(vec![2, 0]);
        let m2 = fire(&net, 0, &m);
        assert_eq!(m2.as_slice(), &[1, 1]);
        let m3 = fire(&net, 1, &m2);
        assert_eq!(m3.as_slice(), &[2, 0]);
    }

    #[test]
    fn immediates_respect_priority() {
        let mut b = NetBuilder::new("prio");
        let p = b.place("p", 1);
        let lo = b.immediate_with("lo", 1, 1.0);
        let hi = b.immediate_with("hi", 2, 3.0);
        b.input_arc(p, lo, 1).unwrap();
        b.input_arc(p, hi, 1).unwrap();
        // outputs so build() passes (self-loop)
        b.output_arc(lo, p, 1).unwrap();
        b.output_arc(hi, p, 1).unwrap();
        let net = b.build().unwrap();
        let enabled = enabled_immediates(&net, &Marking::new(vec![1]));
        assert_eq!(enabled, vec![(hi.index(), 3.0)]);
    }

    #[test]
    fn zero_weight_immediate_is_skipped() {
        let mut b = NetBuilder::new("w0");
        let p = b.place("p", 1);
        let t = b.immediate_with("t", 1, 0.0);
        b.input_arc(p, t, 1).unwrap();
        b.output_arc(t, p, 1).unwrap();
        let net = b.build().unwrap();
        assert!(enabled_immediates(&net, &Marking::new(vec![1])).is_empty());
    }

    #[test]
    fn timed_enumeration() {
        let net = simple_net();
        assert_eq!(enabled_timed(&net, &Marking::new(vec![2, 0])), vec![0]);
        assert_eq!(
            enabled_timed(&net, &Marking::new(vec![0, 2])),
            Vec::<usize>::new()
        );
    }
}
