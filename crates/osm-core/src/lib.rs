//! # osm-core — the Operation State Machine microprocessor modeling formalism
//!
//! A from-scratch implementation of the OSM computation model from
//! *"Flexible and Formal Modeling of Microprocessors with Application to
//! Retargetable Simulation"* (Qin & Malik, DATE 2003).
//!
//! The model separates a microprocessor into two interacting layers:
//!
//! * the **operation layer**, where every in-flight machine operation is a
//!   state machine (an *OSM*) whose states are execution steps and whose
//!   edges carry guard conditions — conjunctions of token-transaction
//!   primitives from the Λ language (`allocate`, `inquire`, `release`,
//!   `discard`);
//! * the **hardware layer**, where disciplined hardware units interact under
//!   a discrete-event model of computation, and units that interface with
//!   operations implement the *token manager interface* ([`TokenManager`]).
//!
//! A [`Machine`] owns both layers plus the *director*, which ranks the OSMs
//! at every control step and runs the paper's sequential scheduling
//! algorithm (Fig. 3). Control steps embed into discrete-event time at clock
//! edges through [`DeKernel`] (Fig. 4) or the cycle-driven [`Machine::step`].
//!
//! ## Modeling a pipeline in four idioms (paper §4)
//!
//! * **Structure hazard** — each stage is an [`ExclusivePool`] with one
//!   occupancy token; two operations cannot hold it at once.
//! * **Data hazard** — a [`RegScoreboard`] grants *register-update* tokens
//!   to writers; readers' `inquire`s on the value token fail until release.
//! * **Variable latency** — the stage pool *refuses the release* of its
//!   token ([`ExclusivePool::block_release`]) until e.g. a cache miss
//!   resolves.
//! * **Control hazard** — a [`ResetManager`] accepts inquiries only from
//!   OSMs armed for squash, enabling high-priority reset edges that discard
//!   all tokens.
//!
//! ## Example
//!
//! ```
//! use osm_core::{Machine, SpecBuilder, ExclusivePool, IdentExpr, InertBehavior};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut machine: Machine<()> = Machine::new(());
//! let fetch = machine.add_manager(ExclusivePool::new("fetch", 1));
//! let decode = machine.add_manager(ExclusivePool::new("decode", 1));
//!
//! let mut b = SpecBuilder::new("op");
//! let i = b.state("I");
//! let f = b.state("F");
//! let d = b.state("D");
//! b.initial(i);
//! b.edge(i, f).allocate(fetch, IdentExpr::Const(0));
//! b.edge(f, d)
//!     .release(fetch, IdentExpr::AnyHeld)
//!     .allocate(decode, IdentExpr::Const(0));
//! b.edge(d, i).release(decode, IdentExpr::AnyHeld);
//! let spec = b.build()?;
//!
//! // Two in-flight operations compete for the stages.
//! machine.add_osm(&spec, InertBehavior);
//! machine.add_osm(&spec, InertBehavior);
//! machine.run(4)?;
//! assert_eq!(machine.stats.transitions, 7);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod director;
mod error;
pub mod export;
mod extract;
mod fault;
mod ids;
mod kernel;
mod machine;
mod manager;
pub mod observe;
mod osm;
pub mod persist;
mod pools;
mod spec;
mod stats;
mod token;
mod trace;
mod verify;

pub use director::{RestartPolicy, SchedulerMode, StepOutcome};
pub use error::{BlockedOsm, ModelError, SpecError, StallKind, StallReport, WaitCause};
pub use fault::{FaultHandle, FaultInjector, FaultKind, FaultPlan, FaultRule, FaultStats};
pub use extract::{
    enumerate_paths, inquire_step, release_step, reservation_table, OperationPath,
    ReservationTable,
};
pub use ids::{EdgeId, ManagerId, OsmId, SlotId, StateId};
pub use kernel::{DeKernel, EventFn, EventScheduler};
pub use machine::{HardwareLayer, Machine, CHECKPOINT_MAGIC, CHECKPOINT_VERSION};
pub use persist::{ByteReader, ByteWriter};
pub use manager::{ManagerSnapshot, ManagerTable, TokenManager};
pub use observe::{
    EventLog, ManagerUtilization, MetricsReport, ObservedEvent, OsmStallCause, StallCause,
    StallEvent, StallHistogram, StallTracker, StateOccupancy, TokenEvent, TokenOpKind,
    TokenOutcome, TransitionEvent,
};
pub use osm::{set_slot, Behavior, InertBehavior, Osm, OsmView, TransitionCtx, IDLE_AGE};
pub use pools::{CountingPool, ExclusivePool, RegScoreboard, ResetManager};
pub use spec::{Edge, EdgeHandle, SpecBuilder, StateMachineSpec};
pub use stats::Stats;
pub use token::{HeldToken, IdentExpr, Primitive, Token, TokenIdent};
pub use trace::{Trace, TraceEvent};
pub use verify::{verify_spec, SpecIssue};
