//! Observability: token-transaction tracing, stall-cause attribution and
//! derived metrics.
//!
//! The paper's central claim is that every pipeline phenomenon — structure,
//! data and control hazards, variable latency — reduces to token
//! transactions (the Λ primitives `allocate`/`inquire`/`release`/`discard`).
//! This module makes that causal story visible while a machine runs:
//!
//! * every primitive *attempt* made by the director during edge evaluation
//!   is reported as a [`TokenEvent`] with its grant/deny outcome (plus an
//!   [`TokenOutcome::Aborted`] event when a tentatively granted two-phase
//!   transaction is rolled back because a later primitive of the same
//!   condition failed);
//! * every committed transition is a [`TransitionEvent`];
//! * every control step in which an in-flight OSM fails to leave its state
//!   charges the blocking `(manager, primitive)` pair of its
//!   highest-priority enabled edge as a [`StallEvent`], and the
//!   [`StallTracker`] aggregates those charges into per-OSM and per-manager
//!   histograms — "why is IPC 0.7" becomes "34% of stall cycles waiting on
//!   the forward-file inquire".
//!
//! The machine owns every sink in one record: the transition
//! [`crate::Trace`], the digest that determinism and equivalence checks
//! compare, the [`StallTracker`], the [`EventLog`], the one list of
//! committed transitions, and the metrics behind [`MetricsReport`]. Each
//! is switched on by its own `Machine::enable_*` method
//! ([`crate::Machine::enable_observability`] turns on all but the trace).
//! The director folds each committed transition into the trace on
//! the commit path of both of its instantiations, so a traced run pays one
//! digest fold per commit. It runs its tracked instantiation only while the
//! stall tracker, the event log or the metrics are on; without them it runs
//! one that contains no event-emission or attribution code.

use crate::ids::{EdgeId, ManagerId, OsmId, StateId};
use crate::manager::ManagerTable;
use crate::token::{Primitive, Token, TokenIdent};
use crate::trace::Trace;
use std::collections::BTreeMap;
use std::fmt;

/// Which Λ primitive a [`TokenEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TokenOpKind {
    /// `allocate`: request exclusive ownership.
    Allocate,
    /// `inquire`: read-only availability test.
    Inquire,
    /// `release`: offer to return a held token.
    Release,
    /// `discard`: unconditional drop (commit time only; never denied).
    Discard,
}

impl TokenOpKind {
    /// Index 0..4, for fixed-size accumulator arrays.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// All four kinds, in declaration order.
    pub const ALL: [TokenOpKind; 4] = [
        TokenOpKind::Allocate,
        TokenOpKind::Inquire,
        TokenOpKind::Release,
        TokenOpKind::Discard,
    ];
}

impl fmt::Display for TokenOpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenOpKind::Allocate => write!(f, "alloc"),
            TokenOpKind::Inquire => write!(f, "inq"),
            TokenOpKind::Release => write!(f, "rel"),
            TokenOpKind::Discard => write!(f, "disc"),
        }
    }
}

impl Primitive {
    /// The transaction kind of this primitive.
    pub fn kind(&self) -> TokenOpKind {
        match self {
            Primitive::Allocate { .. } => TokenOpKind::Allocate,
            Primitive::Inquire { .. } => TokenOpKind::Inquire,
            Primitive::Release { .. } => TokenOpKind::Release,
            Primitive::Discard { .. } => TokenOpKind::Discard,
        }
    }
}

/// Outcome of one primitive attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenOutcome {
    /// The manager granted the transaction (tentatively, for two-phase ops).
    Granted,
    /// The manager denied the transaction; the edge condition failed here.
    ///
    /// Exactly one `Denied` event is emitted per failed edge evaluation (the
    /// first failing primitive), so across a run the number of `Denied`
    /// events equals [`crate::Stats::condition_failures`].
    Denied,
    /// A previously `Granted` two-phase transaction was rolled back because
    /// a later primitive of the same condition failed.
    Aborted,
}

impl fmt::Display for TokenOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenOutcome::Granted => write!(f, "granted"),
            TokenOutcome::Denied => write!(f, "denied"),
            TokenOutcome::Aborted => write!(f, "aborted"),
        }
    }
}

/// One observed token-transaction attempt (paper §3.3, made visible).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TokenEvent {
    /// Control step of the attempt.
    pub cycle: u64,
    /// The requesting OSM.
    pub osm: OsmId,
    /// The edge whose condition contained the primitive.
    pub edge: EdgeId,
    /// The manager addressed.
    pub manager: ManagerId,
    /// Which primitive.
    pub op: TokenOpKind,
    /// The resolved identifier presented to the manager.
    pub ident: TokenIdent,
    /// The token involved, when one exists (granted allocations, releases
    /// and discards; `None` for inquiries and identifier-level denials).
    pub token: Option<Token>,
    /// Grant, denial, or two-phase rollback.
    pub outcome: TokenOutcome,
}

/// One committed OSM transition (the event-log superset of
/// [`crate::TraceEvent`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransitionEvent {
    /// Control step at which the transition committed.
    pub cycle: u64,
    /// The transitioning OSM.
    pub osm: OsmId,
    /// Index of the OSM's spec in the machine's spec table.
    pub spec: u32,
    /// The committed edge.
    pub edge: EdgeId,
    /// Source state.
    pub from: StateId,
    /// Destination state.
    pub to: StateId,
    /// True if the transition left the initial state (an operation issued).
    pub started: bool,
    /// True if the transition returned to the initial state (an operation
    /// completed end to end).
    pub completed: bool,
}

/// One stall charge: an in-flight OSM failed to leave its state this control
/// step, blocked first by `op` on `manager`.
///
/// At most one stall event is emitted per `(osm, control step)`; the blamed
/// primitive is the first failing primitive of the OSM's highest-priority
/// enabled edge during its final scan of the step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StallEvent {
    /// Control step of the charge.
    pub cycle: u64,
    /// The stalled OSM.
    pub osm: OsmId,
    /// Index of the OSM's spec in the machine's spec table.
    pub spec: u32,
    /// The state it could not leave.
    pub state: StateId,
    /// The blocking manager.
    pub manager: ManagerId,
    /// The blocking primitive kind.
    pub op: TokenOpKind,
    /// The identifier the blocking primitive presented.
    pub ident: TokenIdent,
}

/// One entry of an [`EventLog`]: the union of all observed event kinds, in
/// commit order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObservedEvent {
    /// A token-transaction attempt.
    Token(TokenEvent),
    /// A committed transition.
    Transition(TransitionEvent),
    /// A stall charge.
    Stall(StallEvent),
}

impl ObservedEvent {
    /// The control step of the event.
    pub fn cycle(&self) -> u64 {
        match self {
            ObservedEvent::Token(e) => e.cycle,
            ObservedEvent::Transition(e) => e.cycle,
            ObservedEvent::Stall(e) => e.cycle,
        }
    }
}

/// The full event stream, recorded for the exporters in [`crate::export`]
/// (Chrome trace, pipeline diagram).
///
/// By default the log grows without bound; [`EventLog::with_capacity`]
/// switches it to a ring that keeps only the most recent events (long runs,
/// flight-recorder style). [`EventLog::dropped`] reports how many events
/// fell out of the window.
#[derive(Debug, Default, Clone)]
pub struct EventLog {
    events: Vec<ObservedEvent>,
    /// Ring capacity; `None` = unbounded.
    capacity: Option<usize>,
    /// Ring write index (oldest retained event when the ring has wrapped).
    next: usize,
    total: u64,
}

impl EventLog {
    /// Creates an unbounded log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a ring log retaining only the most recent `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        EventLog {
            capacity: Some(capacity.max(1)),
            ..Self::default()
        }
    }

    fn push(&mut self, ev: ObservedEvent) {
        self.total += 1;
        match self.capacity {
            Some(cap) if self.events.len() == cap => {
                self.events[self.next] = ev;
                self.next = (self.next + 1) % cap;
            }
            _ => self.events.push(ev),
        }
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total number of events ever recorded (retained + dropped).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of events dropped out of the ring window.
    pub fn dropped(&self) -> u64 {
        self.total - self.events.len() as u64
    }

    /// Retained events in commit order (oldest first).
    pub fn iter(&self) -> impl Iterator<Item = &ObservedEvent> {
        let (tail, head) = self.events.split_at(self.next);
        head.iter().chain(tail.iter())
    }

    /// Retained token events in commit order.
    pub fn token_events(&self) -> impl Iterator<Item = &TokenEvent> {
        self.iter().filter_map(|e| match e {
            ObservedEvent::Token(t) => Some(t),
            _ => None,
        })
    }

    /// Retained transition events in commit order.
    pub fn transitions(&self) -> impl Iterator<Item = &TransitionEvent> {
        self.iter().filter_map(|e| match e {
            ObservedEvent::Transition(t) => Some(t),
            _ => None,
        })
    }

    /// Retained stall events in commit order.
    pub fn stalls(&self) -> impl Iterator<Item = &StallEvent> {
        self.iter().filter_map(|e| match e {
            ObservedEvent::Stall(s) => Some(s),
            _ => None,
        })
    }
}

/// Per-(manager, outcome, kind) accumulators of a [`MetricsCollector`].
#[derive(Debug, Default, Clone, Copy)]
struct ManagerAccum {
    granted: [u64; 4],
    denied: [u64; 4],
    aborted: [u64; 4],
    /// Committed tokens currently out (grants minus rollbacks/returns).
    outstanding: i64,
    /// Σ outstanding over cycles (average-held numerator).
    held_area: u64,
}

/// Per-(spec, state) accumulators of a [`MetricsCollector`].
#[derive(Debug, Default, Clone, Copy)]
struct StateAccum {
    cycles: u64,
    entries: u64,
}

/// Throughput-window length of the derived metrics, in cycles.
const WINDOW: u64 = 1024;

/// Folds the event stream into derived metrics: per-state occupancy,
/// per-manager grant/deny/utilization counters and retired-operations
/// throughput windows. Rendered by [`crate::Machine::metrics_report`].
///
/// Enable it before the first [`crate::Machine::step`]; occupancy of the
/// prefix of a run before it cannot be reconstructed.
#[derive(Debug, Default)]
pub(crate) struct MetricsCollector {
    /// Per-OSM `(state, entered_cycle)`, learned lazily from transitions.
    cur: Vec<Option<(StateId, u64)>>,
    states: BTreeMap<(u32, StateId), StateAccum>,
    managers: BTreeMap<ManagerId, ManagerAccum>,
    windows: Vec<u64>,
    cycles: u64,
    transitions: u64,
    completions: u64,
    restarts: u64,
}

impl MetricsCollector {
    /// Token denials observed (equals
    /// [`crate::Stats::condition_failures`] when on for a whole run).
    fn denials(&self) -> u64 {
        self.managers
            .values()
            .map(|a| a.denied.iter().sum::<u64>())
            .sum()
    }

    /// Token grants observed (including later-aborted two-phase grants).
    fn grants(&self) -> u64 {
        self.managers
            .values()
            .map(|a| a.granted.iter().sum::<u64>())
            .sum()
    }

    fn token(&mut self, ev: &TokenEvent) {
        let a = self.managers.entry(ev.manager).or_default();
        let k = ev.op.index();
        match ev.outcome {
            TokenOutcome::Granted => {
                a.granted[k] += 1;
                match ev.op {
                    TokenOpKind::Allocate => a.outstanding += 1,
                    TokenOpKind::Release | TokenOpKind::Discard => a.outstanding -= 1,
                    TokenOpKind::Inquire => {}
                }
            }
            TokenOutcome::Denied => a.denied[k] += 1,
            TokenOutcome::Aborted => {
                a.aborted[k] += 1;
                match ev.op {
                    TokenOpKind::Allocate => a.outstanding -= 1,
                    TokenOpKind::Release => a.outstanding += 1,
                    TokenOpKind::Inquire | TokenOpKind::Discard => {}
                }
            }
        }
    }

    fn transition(&mut self, ev: &TransitionEvent) {
        if self.cur.len() <= ev.osm.index() {
            self.cur.resize(ev.osm.index() + 1, None);
        }
        let since = match self.cur[ev.osm.index()] {
            // A missed prior transition (mid-run install) would misattribute
            // the residency; transitions are delivered for every commit, so
            // `state` always matches `ev.from` once seen.
            Some((_, entered)) => entered,
            None => 0,
        };
        let acc = self.states.entry((ev.spec, ev.from)).or_default();
        acc.cycles += ev.cycle.saturating_sub(since);
        let dst = self.states.entry((ev.spec, ev.to)).or_default();
        dst.entries += 1;
        self.cur[ev.osm.index()] = Some((ev.to, ev.cycle));
        self.transitions += 1;
        if ev.completed {
            self.completions += 1;
            let w = (ev.cycle / WINDOW) as usize;
            if self.windows.len() <= w {
                self.windows.resize(w + 1, 0);
            }
            self.windows[w] += 1;
        }
    }

    /// Closes one control step; `restarts` is its number of Fig. 3
    /// outer-loop restarts (summed over a run, [`crate::Stats::restarts`]).
    pub(crate) fn end_cycle(&mut self, restarts: u32) {
        self.cycles += 1;
        self.restarts += u64::from(restarts);
        for a in self.managers.values_mut() {
            if a.outstanding > 0 {
                a.held_area += a.outstanding as u64;
            }
        }
    }
}

/// The machine's observability sinks, in one record: everything the
/// director reports to. Each sink stays off (`None`) until the machine
/// enables it.
///
/// The three sinks only the tracked director feeds are boxed, so a
/// machine with them off stays small: 160 more bytes of inline `Option`s
/// in every `Machine` measured about 3% off the untracked SA-1100
/// director's speed (`perf`, `sim_kcps`).
#[derive(Debug, Default)]
pub(crate) struct Sinks {
    /// The transition trace; both director instantiations fold every
    /// commit into it.
    pub(crate) trace: Option<Trace>,
    /// Stall-cause attribution.
    pub(crate) stalls: Option<Box<StallTracker>>,
    /// The full event stream.
    pub(crate) log: Option<Box<EventLog>>,
    /// Derived metrics.
    pub(crate) metrics: Option<Box<MetricsCollector>>,
}

impl Sinks {
    /// True while an event sink (the log or the metrics) is on; events are
    /// built only then.
    pub(crate) fn events(&self) -> bool {
        self.log.is_some() || self.metrics.is_some()
    }

    /// True while the director must run its tracked instantiation.
    pub(crate) fn tracking(&self) -> bool {
        self.stalls.is_some() || self.events()
    }

    /// Delivers one event to the log and the metrics.
    pub(crate) fn record(&mut self, ev: ObservedEvent) {
        if let Some(m) = &mut self.metrics {
            match &ev {
                ObservedEvent::Token(t) => m.token(t),
                ObservedEvent::Transition(t) => m.transition(t),
                ObservedEvent::Stall(_) => {}
            }
        }
        if let Some(log) = &mut self.log {
            log.push(ev);
        }
    }
}

/// Stall-cause attribution (enable with
/// [`crate::Machine::enable_stall_attribution`]).
///
/// Every control step, each OSM that failed to leave its state charges one
/// cycle to the `(manager, primitive kind)` pair that first blocked its
/// highest-priority enabled edge. The per-OSM and per-manager histograms
/// answer "where do the stall cycles go" online, and the stall watchdog
/// embeds them in its [`crate::StallReport`] instead of re-probing.
#[derive(Debug, Default, Clone)]
pub struct StallTracker {
    per_osm: BTreeMap<(OsmId, ManagerId, TokenOpKind), u64>,
    per_manager: BTreeMap<(ManagerId, TokenOpKind), u64>,
    /// Control steps in which *no* OSM transitioned; equals
    /// [`crate::Stats::idle_steps`] when enabled for a whole run.
    pub global_stall_cycles: u64,
    /// Total charges (one per stalled OSM per cycle).
    pub charged: u64,
}

impl StallTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn charge(&mut self, osm: OsmId, manager: ManagerId, op: TokenOpKind) {
        *self.per_osm.entry((osm, manager, op)).or_insert(0) += 1;
        *self.per_manager.entry((manager, op)).or_insert(0) += 1;
        self.charged += 1;
    }

    /// Per-`(osm, manager, primitive)` charge counts.
    pub fn per_osm(&self) -> impl Iterator<Item = (OsmId, ManagerId, TokenOpKind, u64)> + '_ {
        self.per_osm.iter().map(|(&(o, m, k), &c)| (o, m, k, c))
    }

    /// Per-`(manager, primitive)` charge counts.
    pub fn per_manager(&self) -> impl Iterator<Item = (ManagerId, TokenOpKind, u64)> + '_ {
        self.per_manager.iter().map(|(&(m, k), &c)| (m, k, c))
    }

    /// Cycles charged to one OSM, total.
    pub fn osm_total(&self, osm: OsmId) -> u64 {
        self.per_osm
            .iter()
            .filter(|((o, _, _), _)| *o == osm)
            .map(|(_, &c)| c)
            .sum()
    }

    /// Renders the histogram with manager names resolved.
    pub fn histogram(&self, managers: &ManagerTable) -> StallHistogram {
        let name = |m: ManagerId| {
            managers
                .try_get(m)
                .map(|mm| mm.name().to_owned())
                .unwrap_or_else(|| format!("<unknown {m}>"))
        };
        StallHistogram {
            global_stall_cycles: self.global_stall_cycles,
            charged: self.charged,
            by_manager: self
                .per_manager
                .iter()
                .map(|(&(m, k), &c)| StallCause {
                    manager: m,
                    manager_name: name(m),
                    op: k,
                    cycles: c,
                })
                .collect(),
            by_osm: self
                .per_osm
                .iter()
                .map(|(&(o, m, k), &c)| OsmStallCause {
                    osm: o,
                    cause: StallCause {
                        manager: m,
                        manager_name: name(m),
                        op: k,
                        cycles: c,
                    },
                })
                .collect(),
        }
    }
}

/// One aggregated stall cause: cycles charged to a `(manager, primitive)` pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StallCause {
    /// The blocking manager.
    pub manager: ManagerId,
    /// Its human-readable name.
    pub manager_name: String,
    /// The blocking primitive kind.
    pub op: TokenOpKind,
    /// Cycles charged.
    pub cycles: u64,
}

impl fmt::Display for StallCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}({}): {} cycles",
            self.op, self.manager_name, self.cycles
        )
    }
}

/// One per-OSM stall-cause entry of a [`StallHistogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OsmStallCause {
    /// The stalled OSM.
    pub osm: OsmId,
    /// The cause and charge count.
    pub cause: StallCause,
}

/// A rendered stall-cause histogram (manager names resolved), embedded in
/// [`crate::StallReport`] and [`MetricsReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StallHistogram {
    /// Control steps with zero transitions machine-wide (equals
    /// [`crate::Stats::idle_steps`] when tracked for a whole run).
    pub global_stall_cycles: u64,
    /// Total `(osm, cycle)` charges.
    pub charged: u64,
    /// Charges aggregated per `(manager, primitive)`, heaviest first is NOT
    /// guaranteed — entries are in `(manager, op)` order.
    pub by_manager: Vec<StallCause>,
    /// Charges per `(osm, manager, primitive)`.
    pub by_osm: Vec<OsmStallCause>,
}

impl fmt::Display for StallHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "stall causes ({} charges, {} machine-wide idle steps):",
            self.charged, self.global_stall_cycles
        )?;
        let mut sorted: Vec<&StallCause> = self.by_manager.iter().collect();
        sorted.sort_by_key(|c| std::cmp::Reverse(c.cycles));
        for c in sorted {
            let pct = if self.charged == 0 {
                0.0
            } else {
                100.0 * c.cycles as f64 / self.charged as f64
            };
            writeln!(f, "  {:>5.1}% {c}", pct)?;
        }
        Ok(())
    }
}

/// Per-state occupancy entry of a [`MetricsReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct StateOccupancy {
    /// Spec (operation class) name.
    pub spec: String,
    /// State name.
    pub state: String,
    /// Total OSM-cycles spent in the state.
    pub occupancy_cycles: u64,
    /// Number of entries into the state.
    pub entries: u64,
    /// Mean residency per entry, in cycles.
    pub mean_residency: f64,
}

/// Per-manager utilization entry of a [`MetricsReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct ManagerUtilization {
    /// Manager name.
    pub name: String,
    /// Granted counts per primitive kind `[alloc, inq, rel, disc]`.
    pub granted: [u64; 4],
    /// Denied counts per primitive kind.
    pub denied: [u64; 4],
    /// Two-phase rollbacks per primitive kind.
    pub aborted: [u64; 4],
    /// Mean committed tokens held per cycle.
    pub avg_held: f64,
}

/// Structured metrics rendered by [`crate::Machine::metrics_report`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsReport {
    /// Control steps covered.
    pub cycles: u64,
    /// Committed transitions.
    pub transitions: u64,
    /// Operation completions (returns to the initial state).
    pub completions: u64,
    /// Total token grants (including later-aborted two-phase grants).
    pub token_grants: u64,
    /// Total token denials; reconciles with
    /// [`crate::Stats::condition_failures`].
    pub token_denials: u64,
    /// Director outer-loop restart events (see [`crate::Stats::restarts`]).
    pub restarts: u64,
    /// Per-state occupancy, in `(spec, state)` order.
    pub states: Vec<StateOccupancy>,
    /// Per-manager utilization, in manager-id order.
    pub managers: Vec<ManagerUtilization>,
    /// Throughput-window length in cycles.
    pub window: u64,
    /// Completions per consecutive window.
    pub throughput: Vec<u64>,
    /// Stall-cause histogram, when stall attribution was enabled.
    pub stalls: Option<StallHistogram>,
}

impl MetricsReport {
    pub(crate) fn build<S: 'static>(
        collector: &MetricsCollector,
        machine: &crate::Machine<S>,
    ) -> MetricsReport {
        let specs = machine.specs();
        let states = collector
            .states
            .iter()
            .map(|(&(spec_idx, state), acc)| {
                let (spec, state_name) = match specs.get(spec_idx as usize) {
                    Some(s) => (s.name().to_owned(), s.state_name(state).to_owned()),
                    None => (format!("<spec{spec_idx}>"), format!("{state}")),
                };
                StateOccupancy {
                    spec,
                    state: state_name,
                    occupancy_cycles: acc.cycles,
                    entries: acc.entries,
                    mean_residency: if acc.entries == 0 {
                        0.0
                    } else {
                        acc.cycles as f64 / acc.entries as f64
                    },
                }
            })
            .collect();
        let managers = collector
            .managers
            .iter()
            .map(|(&id, acc)| ManagerUtilization {
                name: machine
                    .managers
                    .try_get(id)
                    .map(|m| m.name().to_owned())
                    .unwrap_or_else(|| format!("<unknown {id}>")),
                granted: acc.granted,
                denied: acc.denied,
                aborted: acc.aborted,
                avg_held: if collector.cycles == 0 {
                    0.0
                } else {
                    acc.held_area as f64 / collector.cycles as f64
                },
            })
            .collect();
        MetricsReport {
            cycles: collector.cycles,
            transitions: collector.transitions,
            completions: collector.completions,
            token_grants: collector.grants(),
            token_denials: collector.denials(),
            restarts: collector.restarts,
            states,
            managers,
            window: WINDOW,
            throughput: collector.windows.clone(),
            stalls: machine.stall_histogram(),
        }
    }
}

impl fmt::Display for MetricsReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let per_cycle = if self.cycles == 0 {
            0.0
        } else {
            self.completions as f64 / self.cycles as f64
        };
        writeln!(
            f,
            "metrics over {} cycles: {} transitions, {} completions ({per_cycle:.3}/cycle), {} grants, {} denials",
            self.cycles, self.transitions, self.completions, self.token_grants, self.token_denials,
        )?;
        writeln!(f, "state occupancy:")?;
        for s in &self.states {
            writeln!(
                f,
                "  {:<12} {:<12} {:>10} osm-cycles, {:>8} entries, {:>7.2} mean residency",
                s.spec, s.state, s.occupancy_cycles, s.entries, s.mean_residency
            )?;
        }
        writeln!(f, "manager utilization:")?;
        for m in &self.managers {
            writeln!(
                f,
                "  {:<14} alloc {:>8}/{:<8} inq {:>8}/{:<8} rel {:>8}/{:<8} disc {:>6}  avg held {:.3}",
                m.name,
                m.granted[0],
                m.denied[0],
                m.granted[1],
                m.denied[1],
                m.granted[2],
                m.denied[2],
                m.granted[3],
                m.avg_held
            )?;
        }
        if let Some(st) = &self.stalls {
            write!(f, "{st}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tok(cycle: u64, op: TokenOpKind, outcome: TokenOutcome) -> TokenEvent {
        TokenEvent {
            cycle,
            osm: OsmId(0),
            edge: EdgeId(0),
            manager: ManagerId(0),
            op,
            ident: TokenIdent(0),
            token: None,
            outcome,
        }
    }

    #[test]
    fn event_log_ring_keeps_most_recent() {
        let mut log = EventLog::with_capacity(3);
        for c in 0..5 {
            log.push(ObservedEvent::Token(tok(
                c,
                TokenOpKind::Allocate,
                TokenOutcome::Granted,
            )));
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.total(), 5);
        assert_eq!(log.dropped(), 2);
        let cycles: Vec<u64> = log.iter().map(|e| e.cycle()).collect();
        assert_eq!(cycles, vec![2, 3, 4]);
    }

    #[test]
    fn event_log_unbounded_keeps_everything() {
        let mut log = EventLog::new();
        for c in 0..5 {
            log.push(ObservedEvent::Token(tok(
                c,
                TokenOpKind::Inquire,
                TokenOutcome::Denied,
            )));
        }
        assert_eq!(log.len(), 5);
        assert_eq!(log.dropped(), 0);
        assert_eq!(log.token_events().count(), 5);
        assert_eq!(log.transitions().count(), 0);
    }

    #[test]
    fn metrics_collector_counts_outcomes_and_outstanding() {
        let mut m = MetricsCollector::default();
        m.token(&tok(0, TokenOpKind::Allocate, TokenOutcome::Granted));
        m.token(&tok(0, TokenOpKind::Inquire, TokenOutcome::Denied));
        m.end_cycle(0);
        assert_eq!(m.grants(), 1);
        assert_eq!(m.denials(), 1);
        let a = m.managers[&ManagerId(0)];
        assert_eq!(a.outstanding, 1);
        assert_eq!(a.held_area, 1);
        // A rollback returns the token.
        m.token(&tok(1, TokenOpKind::Allocate, TokenOutcome::Aborted));
        assert_eq!(m.managers[&ManagerId(0)].outstanding, 0);
    }

    #[test]
    fn stall_tracker_histograms_sum() {
        let mut t = StallTracker::new();
        t.charge(OsmId(0), ManagerId(1), TokenOpKind::Inquire);
        t.charge(OsmId(0), ManagerId(1), TokenOpKind::Inquire);
        t.charge(OsmId(2), ManagerId(0), TokenOpKind::Allocate);
        assert_eq!(t.charged, 3);
        assert_eq!(t.osm_total(OsmId(0)), 2);
        let per_mgr: Vec<_> = t.per_manager().collect();
        assert_eq!(
            per_mgr,
            vec![
                (ManagerId(0), TokenOpKind::Allocate, 1),
                (ManagerId(1), TokenOpKind::Inquire, 2),
            ]
        );
    }

    #[test]
    fn primitive_kind_mapping() {
        let p = Primitive::Discard {
            manager: None,
            ident: crate::token::IdentExpr::AnyHeld,
        };
        assert_eq!(p.kind(), TokenOpKind::Discard);
        assert_eq!(TokenOpKind::Allocate.to_string(), "alloc");
    }
}
