//! Error types for model construction and execution.

use crate::ids::{ManagerId, OsmId, StateId};
use crate::observe::StallHistogram;
use crate::token::{Primitive, Token};
use std::error::Error;
use std::fmt;

/// Errors detected while building a [`crate::StateMachineSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The spec declares no states.
    NoStates {
        /// Spec name.
        spec: String,
    },
    /// No initial state was declared.
    NoInitialState {
        /// Spec name.
        spec: String,
    },
    /// An edge or the initial declaration references a state that does not exist.
    UnknownState {
        /// Spec name.
        spec: String,
        /// The out-of-range state id.
        state: StateId,
    },
    /// An allocate or inquire names [`crate::IdentExpr::AnyHeld`]: `held`
    /// picks among the tokens an OSM holds, which only a release or a
    /// discard can do.
    HeldRequest {
        /// Spec name.
        spec: String,
        /// Name of the offending edge.
        edge: String,
        /// The offending primitive.
        primitive: Primitive,
    },
    /// A state has more out-edges than
    /// [`crate::StateMachineSpec::MAX_OUT_EDGES`].
    TooManyOutEdges {
        /// Spec name.
        spec: String,
        /// Name of the state.
        state: String,
        /// Its number of out-edges.
        count: usize,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::NoStates { spec } => write!(f, "spec `{spec}` declares no states"),
            SpecError::NoInitialState { spec } => {
                write!(f, "spec `{spec}` declares no initial state")
            }
            SpecError::UnknownState { spec, state } => {
                write!(f, "spec `{spec}` references unknown state {state}")
            }
            SpecError::HeldRequest {
                spec,
                edge,
                primitive,
            } => write!(
                f,
                "spec `{spec}` edge `{edge}`: {primitive} names `held`, \
                 which only a release or a discard can"
            ),
            SpecError::TooManyOutEdges { spec, state, count } => write!(
                f,
                "spec `{spec}` state `{state}` has {count} out-edges, more than {}",
                crate::StateMachineSpec::MAX_OUT_EDGES
            ),
        }
    }
}

impl Error for SpecError {}

/// How the stall watchdog classified a lack of forward progress
/// (see [`crate::Machine::set_stall_limit`]).
///
/// A true resource *deadlock* (a cycle in the wait-for graph) is reported
/// separately as [`ModelError::Deadlock`]; the watchdog catches the stalls
/// the wait-for graph cannot prove.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallKind {
    /// No OSM has transitioned for the stall bound, and no wait-for cycle
    /// exists — typically a resource that is denied without an owner (a
    /// blackholed or mis-configured manager).
    Wedged,
    /// Transitions keep occurring but no OSM has returned to its initial
    /// state (completed) within the bound.
    Livelock,
    /// At least one in-flight OSM has been pinned in the same state for the
    /// bound while other OSMs kept completing.
    Starvation,
}

impl fmt::Display for StallKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StallKind::Wedged => write!(f, "wedged"),
            StallKind::Livelock => write!(f, "livelock"),
            StallKind::Starvation => write!(f, "starvation"),
        }
    }
}

/// One reason an OSM cannot take an outgoing edge: the first failing
/// primitive of that edge's condition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaitCause {
    /// The manager that denied the primitive.
    pub manager: ManagerId,
    /// The manager's human-readable name.
    pub manager_name: String,
    /// The denied primitive, rendered (e.g. `alloc(mgr3,#0)`).
    pub primitive: String,
    /// The OSM currently owning the contested token, if the manager tracks
    /// ownership (absent for ownerless denials such as blocked releases).
    pub owner: Option<OsmId>,
}

impl fmt::Display for WaitCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} denied by `{}`", self.primitive, self.manager_name)?;
        if let Some(owner) = self.owner {
            write!(f, " (held by {owner})")?;
        }
        Ok(())
    }
}

/// Diagnostic record of one blocked OSM inside a [`StallReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockedOsm {
    /// The blocked OSM.
    pub osm: OsmId,
    /// Name of the spec it instantiates.
    pub spec: String,
    /// Name of the state it is pinned in.
    pub state: String,
    /// Tokens it currently holds.
    pub held: Vec<Token>,
    /// Why each of its enabled outgoing edges cannot fire (first failing
    /// primitive per edge; empty if an edge was momentarily satisfiable).
    pub waiting_on: Vec<WaitCause>,
}

impl fmt::Display for BlockedOsm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({}) in `{}`", self.osm, self.spec, self.state)?;
        for cause in &self.waiting_on {
            write!(f, "; {cause}")?;
        }
        Ok(())
    }
}

/// Structured diagnostics attached to [`ModelError::Stalled`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StallReport {
    /// The watchdog's classification.
    pub kind: StallKind,
    /// Control step at which the watchdog fired.
    pub cycle: u64,
    /// How many cycles the condition has persisted.
    pub stalled_for: u64,
    /// The armed stall bound (cycles without qualifying progress) that
    /// fired — the per-run step budget handed to
    /// [`crate::Machine::set_stall_limit`]. Lets supervisors distinguish
    /// "tripped a tight budget" from "tripped a generous one" without
    /// carrying the configuration separately.
    pub budget: u64,
    /// The blocked OSMs, with the primitives and managers they wait on.
    pub blocked: Vec<BlockedOsm>,
    /// The stall-cause histogram accumulated up to the stall, when
    /// [`crate::Machine::enable_stall_attribution`] was on.
    pub attribution: Option<StallHistogram>,
}

impl fmt::Display for StallReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} detected at control step {} ({} cycles without progress; budget {})",
            self.kind, self.cycle, self.stalled_for, self.budget
        )?;
        for b in &self.blocked {
            write!(f, "\n  {b}")?;
        }
        if let Some(attr) = &self.attribution {
            write!(f, "\n{attr}")?;
        }
        Ok(())
    }
}

/// Errors raised while executing a machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// A cyclic resource dependency among OSMs was detected — the paper's
    /// pathological scheduling deadlock (§3.4); the director aborts.
    Deadlock {
        /// Control step at which the cycle was detected.
        cycle: u64,
        /// The OSMs forming the wait-for cycle.
        osms: Vec<OsmId>,
    },
    /// The stall watchdog detected a lack of forward progress that is not a
    /// provable wait-for cycle (enabled via
    /// [`crate::Machine::set_stall_limit`]).
    Stalled(Box<StallReport>),
    /// The end-of-run token audit found tokens whose manager-side and
    /// OSM-side ownership records disagree (debug builds only; see
    /// [`crate::Machine::audit_tokens`]).
    TokenLeak {
        /// Cycle at which the audit ran.
        cycle: u64,
        /// Human-readable description of every violation.
        problems: Vec<String>,
    },
    /// [`crate::Machine::checkpoint`] (or the undo checkpoint
    /// [`crate::Machine::restore`] takes first) met a manager or shared
    /// state that does not implement checkpointing.
    SnapshotUnsupported {
        /// Name (and id) of the offending manager, or the shared state.
        manager: String,
    },
    /// [`crate::Machine::restore`] was given a checkpoint that does not fit
    /// the machine (damaged bytes, wrong shape, or a component rejected its
    /// section). The machine is left exactly as it was.
    SnapshotMismatch {
        /// What failed to match.
        what: String,
    },
    /// Registering another entity would exhaust its 32-bit id space
    /// (previously the id silently truncated past `u32::MAX`). Returned by
    /// the `try_add*` registration APIs; the infallible ones panic with this
    /// message instead.
    CapacityExceeded {
        /// The kind of entity being registered ("OSM", "token manager", ...).
        what: &'static str,
        /// The maximum number of instances the id space admits.
        limit: u64,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::Deadlock { cycle, osms } => {
                write!(f, "scheduling deadlock at control step {cycle} involving ")?;
                for (i, o) in osms.iter().enumerate() {
                    if i > 0 {
                        write!(f, " -> ")?;
                    }
                    write!(f, "{o}")?;
                }
                Ok(())
            }
            ModelError::Stalled(report) => write!(f, "{report}"),
            ModelError::TokenLeak { cycle, problems } => {
                write!(f, "token leak detected at control step {cycle}:")?;
                for p in problems {
                    write!(f, "\n  {p}")?;
                }
                Ok(())
            }
            ModelError::SnapshotUnsupported { manager } => {
                write!(f, "manager {manager} does not support checkpointing")
            }
            ModelError::SnapshotMismatch { what } => {
                write!(f, "checkpoint does not match this machine: {what}")
            }
            ModelError::CapacityExceeded { what, limit } => {
                write!(
                    f,
                    "cannot register another {what}: the id space admits at most {limit}"
                )
            }
        }
    }
}

impl Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_error_display() {
        let e = SpecError::NoInitialState { spec: "p".into() };
        assert_eq!(e.to_string(), "spec `p` declares no initial state");
        let e = SpecError::UnknownState {
            spec: "p".into(),
            state: StateId(9),
        };
        assert!(e.to_string().contains("s9"));
    }

    #[test]
    fn model_error_display_lists_cycle() {
        let e = ModelError::Deadlock {
            cycle: 12,
            osms: vec![OsmId(0), OsmId(1)],
        };
        let s = e.to_string();
        assert!(s.contains("12"));
        assert!(s.contains("osm0 -> osm1"));
    }

    #[test]
    fn stall_report_display_names_manager_and_owner() {
        let report = StallReport {
            kind: StallKind::Starvation,
            cycle: 40,
            stalled_for: 25,
            budget: 25,
            blocked: vec![BlockedOsm {
                osm: OsmId(2),
                spec: "pipe".into(),
                state: "E".into(),
                held: vec![Token::new(ManagerId(1), 0)],
                waiting_on: vec![WaitCause {
                    manager: ManagerId(3),
                    manager_name: "buffer".into(),
                    primitive: "alloc(mgr3,#0)".into(),
                    owner: Some(OsmId(5)),
                }],
            }],
            attribution: None,
        };
        let e = ModelError::Stalled(Box::new(report));
        let s = e.to_string();
        assert!(s.contains("starvation"), "{s}");
        assert!(s.contains("buffer"), "{s}");
        assert!(s.contains("osm5"), "{s}");
        assert!(s.contains("`E`"), "{s}");
    }

    #[test]
    fn token_leak_display_lists_problems() {
        let e = ModelError::TokenLeak {
            cycle: 9,
            problems: vec!["osm1 holds mgr0·0 which its manager does not acknowledge".into()],
        };
        let s = e.to_string();
        assert!(s.contains("control step 9"));
        assert!(s.contains("mgr0·0"));
    }
}
