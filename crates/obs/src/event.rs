//! The telemetry event taxonomy and its record envelope.
//!
//! Events are **pure data**: plain counts, indices and labels that are a
//! deterministic function of the seeded computation being observed. Any
//! wall-clock measurement travels next to the event in the envelope's
//! `timing` field, so determinism checks can mask it out (see
//! [`TelemetryRecord::content_eq`]).

use serde::{Deserialize, Serialize};

/// What the runtime guard concluded about one module's proposal on one
/// frame (the per-module half of a hardened classification round).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GuardVerdict {
    /// The module produced a well-formed, on-time proposal.
    Accepted,
    /// The module panicked mid-inference; the guard contained it.
    Panicked,
    /// The answer arrived after the deadline budget and was discarded.
    DeadlineMissed,
    /// The proposal contained non-finite values; the affected samples were
    /// withheld from the voter (0 when sanitization is disabled and the
    /// corrupted values were allowed through).
    NonFinite {
        /// Samples of the batch that carried non-finite values.
        samples: usize,
    },
    /// A wedged module replayed its previous output buffer.
    StaleReplay,
    /// The module produced nothing at all (e.g. a stale fault with an
    /// empty replay buffer).
    NoOutput,
}

impl GuardVerdict {
    /// `true` when this verdict counts as a *detected* runtime fault —
    /// the same subset `mvml-core`'s fault log tallies (panics, deadline
    /// misses, non-finite outputs with at least one withheld sample).
    pub fn is_detected_fault(&self) -> bool {
        match self {
            GuardVerdict::Panicked | GuardVerdict::DeadlineMissed => true,
            GuardVerdict::NonFinite { samples } => *samples > 0,
            GuardVerdict::Accepted | GuardVerdict::StaleReplay | GuardVerdict::NoOutput => false,
        }
    }
}

/// The voter's decision, stripped of its payload type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum VoterOutcome {
    /// An agreement class met the rule's support requirement.
    Output {
        /// The winning class index for classification voters; `None` for
        /// voters over richer payloads (e.g. fused detection sets).
        class: Option<usize>,
    },
    /// Proposals diverged; the voter safely skipped.
    Skip,
    /// No operational module proposed anything.
    NoModules,
}

/// Which of the paper's decision rules applied, by operational-module count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum VotingRule {
    /// Three or more proposals: majority wins, full divergence skips.
    R1,
    /// Two proposals: agreement required, otherwise skip.
    R2,
    /// One proposal: pass-through.
    R3,
    /// No proposals at all.
    None,
}

impl VotingRule {
    /// The rule that governs a round with `proposing` live proposals.
    pub fn for_proposal_count(proposing: usize) -> Self {
        match proposing {
            0 => VotingRule::None,
            1 => VotingRule::R3,
            2 => VotingRule::R2,
            _ => VotingRule::R1,
        }
    }
}

/// One structured telemetry event.
///
/// The variants cover every layer of the stack the roadmap's perf and
/// scaling work needs to observe: the hardened classification path, the
/// voter, the watchdog/rejuvenation loop, the DSPN solvers, the thread
/// pool, and the closed-loop simulator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TelemetryEvent {
    /// One module's inference on one frame, as judged by the runtime guard.
    /// Latency, when measured, rides in the record's `timing` field.
    ModuleInference {
        /// Module index.
        module: usize,
        /// Frame counter at inference time.
        frame: u64,
        /// What the guard concluded.
        verdict: GuardVerdict,
    },
    /// One voter decision (one sample of one frame).
    VoterDecision {
        /// Frame counter at decision time.
        frame: u64,
        /// Sample index within the frame's batch.
        sample: usize,
        /// The decision.
        outcome: VoterOutcome,
        /// Decision rule in effect (determined by `proposing`).
        rule: VotingRule,
        /// Modules whose proposal reached the voter.
        proposing: usize,
        /// Support of the winning agreement class (0 on skip/no-modules).
        agreeing: usize,
        /// Modules whose proposal was withheld or missing (non-operational
        /// modules plus guard-withheld samples).
        withheld: usize,
    },
    /// The watchdog escalated a module to non-functional.
    WatchdogEscalation {
        /// Module index.
        module: usize,
        /// Frame counter at escalation time.
        frame: u64,
        /// Faults observed within the sliding window at escalation.
        faults_in_window: u32,
    },
    /// A rejuvenation began (reactive repair or proactive refresh).
    RejuvenationStarted {
        /// Module index.
        module: usize,
        /// `true` for the time-triggered proactive path.
        proactive: bool,
    },
    /// A rejuvenation completed; the module re-deployed pristine.
    RejuvenationCompleted {
        /// Module index.
        module: usize,
    },
    /// A steady-state solver run (TimeNET's role). Wall time rides in the
    /// record's `timing` field.
    SolverRun {
        /// Net name (e.g. `mvml-3v-proactive`).
        model: String,
        /// Backend that actually produced the answer.
        backend: String,
        /// Tangible states (analytic) or distinct markings (simulation).
        states: usize,
        /// Backend-reported accuracy (balance residual or CI half-width).
        residual: f64,
    },
    /// A thread-pool fan-out (queue + execution, timed as one unit).
    PoolRun {
        /// Call-site label.
        label: String,
        /// Items mapped.
        items: usize,
        /// Thread budget of the fan-out (1 when nested inside another).
        workers: usize,
    },
    /// One closed-loop simulator stage on one tick (perception, planner).
    Tick {
        /// Stage label.
        stage: String,
        /// Frame counter.
        frame: u64,
    },
}

impl TelemetryEvent {
    /// Stable lower-case label of the variant, for summaries and logs.
    pub fn kind(&self) -> &'static str {
        match self {
            TelemetryEvent::ModuleInference { .. } => "module-inference",
            TelemetryEvent::VoterDecision { .. } => "voter-decision",
            TelemetryEvent::WatchdogEscalation { .. } => "watchdog-escalation",
            TelemetryEvent::RejuvenationStarted { .. } => "rejuvenation-started",
            TelemetryEvent::RejuvenationCompleted { .. } => "rejuvenation-completed",
            TelemetryEvent::SolverRun { .. } => "solver-run",
            TelemetryEvent::PoolRun { .. } => "pool-run",
            TelemetryEvent::Tick { .. } => "tick",
        }
    }
}

/// Wall-clock measurements attached to a record. **Never** part of content
/// equality: two runs of the same seeded experiment produce records that
/// differ only here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Timing {
    /// Monotonic duration of the observed operation, nanoseconds.
    pub duration_ns: u64,
}

/// The envelope written to every sink: one event plus its provenance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TelemetryRecord {
    /// Monotonically increasing per-recorder sequence number.
    pub seq: u64,
    /// Slash-separated scope the emitting recorder was operating under
    /// (e.g. `grid/nan-corruption/r1.00/hardened/seed11`).
    pub scope: String,
    /// The event payload (deterministic content).
    pub event: TelemetryEvent,
    /// Optional wall-clock measurements (non-deterministic; excluded from
    /// [`TelemetryRecord::content_eq`]).
    pub timing: Option<Timing>,
}

impl TelemetryRecord {
    /// Equality with the `timing` field masked out — the comparison the
    /// determinism contract is stated in.
    pub fn content_eq(&self, other: &TelemetryRecord) -> bool {
        self.seq == other.seq && self.scope == other.scope && self.event == other.event
    }
}

/// [`TelemetryRecord::content_eq`] lifted to whole streams.
pub fn content_streams_eq(a: &[TelemetryRecord], b: &[TelemetryRecord]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.content_eq(y))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(seq: u64, timing: Option<Timing>) -> TelemetryRecord {
        TelemetryRecord {
            seq,
            scope: "test".to_string(),
            event: TelemetryEvent::Tick {
                stage: "perception".to_string(),
                frame: seq,
            },
            timing,
        }
    }

    #[test]
    fn content_equality_masks_timing_only() {
        let a = record(0, Some(Timing { duration_ns: 10 }));
        let b = record(0, Some(Timing { duration_ns: 99 }));
        let c = record(0, None);
        assert!(a.content_eq(&b) && a.content_eq(&c));
        assert_ne!(a, b, "full equality still sees timing");
        let d = record(1, None);
        assert!(!a.content_eq(&d), "sequence numbers are content");
        assert!(content_streams_eq(
            &[a.clone(), d.clone()],
            &[b, record(1, None)]
        ));
        assert!(!content_streams_eq(
            std::slice::from_ref(&a),
            &[a.clone(), d]
        ));
    }

    #[test]
    fn detected_fault_subset_matches_fault_log_semantics() {
        assert!(GuardVerdict::Panicked.is_detected_fault());
        assert!(GuardVerdict::DeadlineMissed.is_detected_fault());
        assert!(GuardVerdict::NonFinite { samples: 2 }.is_detected_fault());
        assert!(!GuardVerdict::NonFinite { samples: 0 }.is_detected_fault());
        assert!(!GuardVerdict::Accepted.is_detected_fault());
        assert!(!GuardVerdict::StaleReplay.is_detected_fault());
        assert!(!GuardVerdict::NoOutput.is_detected_fault());
    }

    #[test]
    fn voting_rule_by_proposal_count() {
        assert_eq!(VotingRule::for_proposal_count(0), VotingRule::None);
        assert_eq!(VotingRule::for_proposal_count(1), VotingRule::R3);
        assert_eq!(VotingRule::for_proposal_count(2), VotingRule::R2);
        assert_eq!(VotingRule::for_proposal_count(3), VotingRule::R1);
        assert_eq!(VotingRule::for_proposal_count(9), VotingRule::R1);
    }

    #[test]
    fn event_kinds_are_stable() {
        let solver = TelemetryEvent::SolverRun {
            model: "m".into(),
            backend: "dense".into(),
            states: 10,
            residual: 1e-14,
        };
        assert_eq!(solver.kind(), "solver-run");
        let vote = TelemetryEvent::VoterDecision {
            frame: 0,
            sample: 0,
            outcome: VoterOutcome::Output { class: Some(3) },
            rule: VotingRule::R1,
            proposing: 3,
            agreeing: 2,
            withheld: 0,
        };
        assert_eq!(vote.kind(), "voter-decision");
    }
}
