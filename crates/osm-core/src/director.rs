//! The director: ranking and the sequential scheduling algorithm of Fig. 3.
//!
//! At each control step the director ranks every OSM, then serves them in
//! rank order. For each OSM it evaluates the outgoing edges of the current
//! state in descending static-priority order; the first edge whose condition
//! (a conjunction of Λ primitives) is satisfied commits atomically and the
//! OSM transitions — at most once per control step. After a transition the
//! director may restart its outer loop from the highest-ranked remaining OSM
//! so that operations blocked on just-freed resources are served within the
//! same control step ([`RestartPolicy::Restart`], the paper's Fig. 3
//! behaviour).

use crate::error::{BlockedOsm, ModelError, WaitCause};
use crate::ids::{EdgeId, ManagerId, OsmId};
use crate::manager::ManagerTable;
use crate::observe::{
    Observer, StallEvent, StallTracker, TokenEvent, TokenOpKind, TokenOutcome, TransitionEvent,
};
use crate::osm::{Osm, OsmView, TransitionCtx, IDLE_AGE};
use crate::spec::{Edge, StateMachineSpec};
use crate::stats::Stats;
use crate::token::{HeldToken, IdentExpr, Primitive, Token, TokenIdent};
use crate::trace::{Trace, TraceEvent};
use std::sync::Arc;

/// Whether the director restarts its outer loop after a transition (Fig. 3).
///
/// The paper's case studies note that with age ranking no senior operation
/// depends on a junior one, so the restart can be skipped without changing
/// behaviour ([`RestartPolicy::NoRestart`]); the ablation benchmark measures
/// the cost difference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RestartPolicy {
    /// Restart from the highest-ranked remaining OSM after every transition.
    #[default]
    Restart,
    /// Continue scanning past the transitioned OSM.
    NoRestart,
}

/// Which scheduling implementation the director runs
/// ([`crate::Machine::set_scheduler_mode`]).
///
/// Both modes execute the same abstract algorithm (Fig. 3 under the
/// configured [`RestartPolicy`]) and commit identical transitions in
/// identical order — the transition trace digest is mode-invariant, which is
/// how the fast path is validated. They differ only in how much work they do
/// to discover the next transition, so effort counters
/// ([`crate::Stats::condition_failures`], [`crate::Stats::vetoed_edges`])
/// legitimately differ between modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerMode {
    /// Sensitivity-driven scheduling: OSMs blocked on managers whose dirty
    /// epoch has not moved are skipped without re-evaluating their edge
    /// conditions, and the per-step rank sort is replaced by an
    /// incrementally maintained ready list. Requires age ranking (the
    /// default policy); with a custom [`Ranker`] the director silently runs
    /// the reference scheduler.
    #[default]
    Fast,
    /// The literal Fig. 3 reference scheduler (full re-rank, sort and
    /// re-evaluation every step) — the oracle the fast path is checked
    /// against.
    Seed,
}

/// Ranks OSMs at the beginning of each control step (paper §3.4).
///
/// Smaller rank = served earlier. Ties are broken by [`OsmId`] so the
/// schedule is always a total order (determinism).
pub trait Ranker<S>: Send + 'static {
    /// Computes the rank of one OSM.
    fn rank(&self, view: &OsmView<'_>, shared: &S) -> u64;
}

/// The paper's case-study policy: rank by age, i.e. the order in which the
/// OSMs last left the initial state (seniors first); idle OSMs last.
#[derive(Debug, Clone, Copy, Default)]
pub struct AgeRanker;

impl<S> Ranker<S> for AgeRanker {
    fn rank(&self, view: &OsmView<'_>, _shared: &S) -> u64 {
        view.age
    }
}

/// The closure type boxed inside a [`FnRanker`].
pub type RankFn<S> = dyn Fn(&OsmView<'_>, &S) -> u64 + Send;

/// Rank by a closure (ablation experiments, multithreading policies).
pub struct FnRanker<S>(pub Box<RankFn<S>>);

impl<S> std::fmt::Debug for FnRanker<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("FnRanker(..)")
    }
}

impl<S: 'static> Ranker<S> for FnRanker<S> {
    fn rank(&self, view: &OsmView<'_>, shared: &S) -> u64 {
        (self.0)(view, shared)
    }
}

/// Result of one control step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepOutcome {
    /// Number of OSM transitions committed this step.
    pub transitions: u32,
    /// Of those, how many returned an OSM to its initial state (operation
    /// completions — the stall watchdog's notion of end-to-end progress).
    pub completions: u32,
}

/// A prepared (but not yet committed) transaction of one edge condition.
#[derive(Debug, Clone, Copy)]
enum PreparedOp {
    Alloc {
        manager: ManagerId,
        ident: TokenIdent,
        token: Token,
    },
    Release {
        manager: ManagerId,
        buffer_index: usize,
        token: Token,
    },
}

/// A discard to apply if the edge commits.
#[derive(Debug, Clone, Copy)]
enum DiscardSpec {
    /// Discard every held token (optionally restricted to one manager).
    All(Option<ManagerId>),
    /// Discard the held token requested under `ident` from `manager`.
    One(ManagerId, TokenIdent),
}

/// Maximum number of distinct blocking managers a [`SensEntry`] can track;
/// an OSM blocked on more is simply re-evaluated every step.
const MAX_SENS: usize = 4;

/// Tombstone value in the fast scheduler's ready list (never a valid id:
/// registration caps ids below `u32::MAX`).
const TOMBSTONE: OsmId = OsmId(u32::MAX);

/// Persistent per-OSM sensitivity record of the fast scheduler: everything
/// needed to prove, without re-evaluating edge conditions, that a blocked
/// OSM still cannot move.
///
/// The record is sound to skip on because a failed edge evaluation is a pure
/// function of (a) the OSM's state, slots and buffer — which only change on
/// the OSM's own transitions, invalidating the record, (b) the behavior veto
/// mask — re-checked cheaply on every skip test, and (c) the internal state
/// of the managers contacted up to the first failing primitive of each
/// enabled edge — guarded by the recorded dirty epochs.
#[derive(Debug, Clone, Copy, Default)]
struct SensEntry {
    /// Record reflects a real evaluation of the current residence in
    /// `state`; cleared on every transition of the OSM.
    valid: bool,
    /// The OSM's previous evaluation also ended blocked in `state`.
    /// Recording is deferred until the second consecutive blocked
    /// evaluation: dense machines (whose blocked episodes last a cycle or
    /// two) then never pay the recording bookkeeping, while sparse ones
    /// amortize it over a long skip run anyway.
    armed: bool,
    /// False when the record cannot justify skipping (more than [`MAX_SENS`]
    /// blocking managers, a manager-less failing primitive, >64 out-edges).
    skippable: bool,
    /// The state the OSM was blocked in when the record was taken.
    state: crate::ids::StateId,
    /// Behavior veto bitmap over the state's out-edges (bit k = edge k
    /// vetoed) at record time.
    veto_mask: u64,
    /// Number of live entries in `mgrs`/`epochs`.
    n: u8,
    /// Distinct managers whose denial blocked the enabled edges.
    mgrs: [ManagerId; MAX_SENS],
    /// Their dirty epochs at record time.
    epochs: [u64; MAX_SENS],
    /// First failing primitive of the highest-priority enabled edge at the
    /// most recent real evaluation (stall-cause attribution for steps where
    /// the OSM is skipped).
    fail: Option<(Primitive, TokenIdent)>,
}

/// Reusable per-step scratch buffers: the director's hot loop runs without
/// heap allocation in steady state (the paper's efficiency claim depends on
/// the control step being cheap).
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    pub(crate) list: Vec<(u64, OsmId)>,
    ops: Vec<PreparedOp>,
    discards: Vec<DiscardSpec>,
    used: Vec<usize>,
    removed: Vec<usize>,
    wait_edges: Vec<(OsmId, OsmId)>,
    /// First failing primitive of the most recent failed `try_condition`,
    /// with its resolved identifier (stall diagnostics).
    fail: Option<(Primitive, TokenIdent)>,
    /// Per-OSM first failing primitive of the OSM's most recent edge scan
    /// this step (stall-cause attribution; maintained only when observers or
    /// a [`StallTracker`] are active).
    first_fail: Vec<Option<(Primitive, TokenIdent)>>,
    // --- persistent fast-scheduler state (SchedulerMode::Fast) ---
    /// Monotonic step counter ("this step" watermark for `moved`); not the
    /// machine cycle, which can rewind on checkpoint restore.
    step_seq: u64,
    /// True while `active` reflects the in-flight OSM population.
    sched_valid: bool,
    /// In-flight OSMs in age order (ages are assigned monotonically at
    /// dispatch, so insertion keeps the list sorted); completed entries are
    /// tombstoned and compacted lazily.
    active: Vec<OsmId>,
    /// Number of tombstones currently in `active`.
    active_dead: usize,
    /// Per-OSM `step_seq` of the OSM's most recent transition.
    moved: Vec<u64>,
    /// Per-OSM sensitivity records.
    sens: Vec<SensEntry>,
    /// `ManagerTable::generation()` at the last idle-step deadlock
    /// diagnostic scan; lets the fast path prove the scan would find the
    /// same (empty) wait-for graph again and skip it.
    last_diag_generation: u64,
    /// Skips granted by [`can_skip`] in the current adaptation window.
    adapt_skips: u64,
    /// Full OSM evaluations performed in the current adaptation window.
    adapt_evals: u64,
    /// Control steps elapsed in the current adaptation window.
    adapt_steps: u32,
    /// Steps left on the reference scheduler before the fast path is probed
    /// again (see [`ADAPT_WINDOW`]); 0 = fast path active.
    pub(crate) adapt_cooldown: u32,
    // --- per-step resume bookkeeping (RestartPolicy::Restart) ---
    /// Service positions of the unmoved (hence blocked) OSMs below the
    /// cursor, ascending.
    blocked: Vec<usize>,
    /// Lowest position in `blocked` whose proof any commit may break (no
    /// valid record, unskippable, or a vetoed edge); [`NO_POS`] if none.
    unproven: usize,
    /// Per manager: the lowest position in `blocked` whose skip proof rests
    /// on it, and its epoch at that proof; position [`NO_POS`] if none.
    wake: Vec<(usize, u64)>,
    /// Managers with a live `wake` registration.
    wake_mgrs: Vec<ManagerId>,
    /// `ManagerTable::generation()` when `wake` was last checked.
    wake_generation: u64,
}

/// "No position" marker of the resume bookkeeping.
const NO_POS: usize = usize::MAX;

/// Length (in control steps) of the fast path's self-observation window.
/// At the end of each window, if the skips granted did not outnumber the
/// full evaluations performed, the sensitivity machinery is not paying for
/// its bookkeeping — the machine is dense — and scheduling falls back to
/// the reference loop for [`ADAPT_COOLDOWN`] steps before probing again.
/// Both schedulers are cycle-exact, so adaptation never changes a trace.
const ADAPT_WINDOW: u32 = 128;
/// Steps spent on the reference scheduler after an unproductive window;
/// the fast path re-probes afterwards in case the workload turned sparse.
/// Dense machines thus pay the fast-path overhead on ~3% of their steps.
const ADAPT_COOLDOWN: u32 = 4096;

impl Scratch {
    /// Discards all persistent fast-scheduler state; the next fast control
    /// step rebuilds it from the machine. Called on any machine mutation
    /// that can invalidate it (checkpoint restore, ranker/mode changes).
    pub(crate) fn invalidate_schedule(&mut self) {
        self.sched_valid = false;
        self.sens.clear();
        self.moved.clear();
        self.active.clear();
        self.active_dead = 0;
        self.last_diag_generation = u64::MAX;
        self.adapt_skips = 0;
        self.adapt_evals = 0;
        self.adapt_steps = 0;
        self.adapt_cooldown = 0;
    }

    /// Starts a step's resume bookkeeping with nothing registered.
    fn begin_resume(&mut self, managers: &ManagerTable) {
        self.blocked.clear();
        self.unproven = NO_POS;
        for m in self.wake_mgrs.drain(..) {
            self.wake[m.index()].0 = NO_POS;
        }
        self.wake.resize(managers.len(), (NO_POS, 0));
        self.wake_generation = managers.generation();
    }

    /// Registers OSM `oi`, just found blocked at service position `pos`. A
    /// valid, skippable record with no vetoed edge stays a proof until one
    /// of its recorded managers' epochs moves: a veto that appears later can
    /// only disable an edge that was failing anyway. Any other record may
    /// be broken by any commit.
    #[inline]
    fn register_blocked(&mut self, pos: usize, oi: usize) {
        self.blocked.push(pos);
        let e = &self.sens[oi];
        if !(e.valid && e.skippable && e.veto_mask == 0) {
            self.unproven = self.unproven.min(pos);
            return;
        }
        for (&m, &epoch) in e.mgrs.iter().zip(&e.epochs).take(e.n as usize) {
            // A dangling manager id never changes: nothing to register.
            if let Some(w) = self.wake.get_mut(m.index()) {
                if w.0 == NO_POS {
                    *w = (pos, epoch);
                    self.wake_mgrs.push(m);
                }
            }
        }
    }

    /// Where the scan resumes after the OSM at `pos` committed: the lowest
    /// registered position whose proof the commit may have broken (unproven,
    /// or registered under a manager whose epoch moved), else `pos + 1`.
    /// Registrations from the resume point up are dropped, as the scan
    /// visits those positions again.
    fn resume_after_commit(&mut self, pos: usize, managers: &ManagerTable) -> usize {
        let mut resume = self.unproven.min(pos + 1);
        let generation = managers.generation();
        if generation != self.wake_generation {
            self.wake_generation = generation;
            for &m in &self.wake_mgrs {
                let (at, epoch) = self.wake[m.index()];
                if managers.epoch(m) != epoch {
                    resume = resume.min(at);
                }
            }
        }
        if resume <= pos {
            let keep = self.blocked.partition_point(|&p| p < resume);
            self.blocked.truncate(keep);
            self.unproven = NO_POS;
            let wake = &mut self.wake;
            self.wake_mgrs.retain(|m| {
                let w = &mut wake[m.index()].0;
                let keep = *w < resume;
                if !keep {
                    *w = NO_POS;
                }
                keep
            });
        }
        resume
    }
}

/// Emits one token event to every observer.
#[inline]
fn emit_token(observers: &mut [Box<dyn Observer>], ev: TokenEvent) {
    for o in observers.iter_mut() {
        o.on_token_op(&ev);
    }
}

/// Resolution of an [`IdentExpr`] against an OSM's slots.
enum Resolved {
    Ident(TokenIdent),
    /// Slot holds [`TokenIdent::NONE`]: the primitive is vacuous.
    Vacuous,
    AnyHeld,
}

#[inline]
fn resolve(expr: IdentExpr, slots: &[TokenIdent]) -> Resolved {
    match expr {
        IdentExpr::Const(v) if TokenIdent(v).is_none() => Resolved::Vacuous,
        IdentExpr::Const(v) => Resolved::Ident(TokenIdent(v)),
        IdentExpr::Slot(s) => {
            let ident = slots.get(s.index()).copied().unwrap_or(TokenIdent::NONE);
            if ident.is_none() {
                Resolved::Vacuous
            } else {
                Resolved::Ident(ident)
            }
        }
        IdentExpr::AnyHeld => Resolved::AnyHeld,
    }
}

/// Evaluates `edge`'s condition for `osm`, tentatively applying
/// transactions into `scratch` (cleared on entry). Returns true when the
/// condition is satisfied; on failure every prepared transaction is aborted
/// and the blocking owners are appended to `scratch.wait_edges`.
///
/// Monomorphized over `OBS` so the no-observer instantiation carries zero
/// event-emission code in the per-primitive loop — the disabled path is
/// byte-for-byte the pre-observability hot loop. Callers must pass
/// `OBS = !observers.is_empty()` (an `OBS = false` call ignores `observers`).
fn try_condition<S, const OBS: bool>(
    osm: &Osm<S>,
    edge: &Edge,
    managers: &mut ManagerTable,
    scratch: &mut Scratch,
    collect_waits: bool,
    observers: &mut [Box<dyn Observer>],
    cycle: u64,
) -> bool {
    scratch.ops.clear();
    scratch.discards.clear();
    scratch.used.clear();
    scratch.fail = None;
    let mut failed = false;
    let observing = OBS;
    // One TokenEvent per manager contact; every failure path below emits
    // exactly one Denied event, so denied-event counts reconcile with
    // `Stats::condition_failures`.
    let token_ev = |op, ident, token, outcome| TokenEvent {
        cycle,
        osm: osm.id,
        edge: edge.id,
        manager: ManagerId(0), // overwritten by every caller
        op,
        ident,
        token,
        outcome,
    };

    'prims: for prim in &edge.condition {
        match *prim {
            Primitive::Allocate { manager, ident } => match resolve(ident, &osm.slots) {
                Resolved::Vacuous => {}
                Resolved::AnyHeld => {
                    debug_assert!(false, "allocate cannot use AnyHeld");
                    if observing {
                        emit_token(
                            observers,
                            TokenEvent {
                                manager,
                                ..token_ev(
                                    TokenOpKind::Allocate,
                                    TokenIdent::NONE,
                                    None,
                                    TokenOutcome::Denied,
                                )
                            },
                        );
                    }
                    scratch.fail = Some((*prim, TokenIdent::NONE));
                    failed = true;
                    break 'prims;
                }
                Resolved::Ident(id) => {
                    // A dangling manager id in the spec is a modeling error;
                    // it surfaces as a never-satisfied condition, not a panic.
                    let granted = managers
                        .try_probe_mut(manager)
                        .and_then(|m| m.prepare_allocate(osm.id, id));
                    if observing {
                        let outcome = if granted.is_some() {
                            TokenOutcome::Granted
                        } else {
                            TokenOutcome::Denied
                        };
                        emit_token(
                            observers,
                            TokenEvent {
                                manager,
                                ..token_ev(TokenOpKind::Allocate, id, granted, outcome)
                            },
                        );
                    }
                    match granted {
                        Some(token) => scratch.ops.push(PreparedOp::Alloc {
                            manager,
                            ident: id,
                            token,
                        }),
                        None => {
                            if collect_waits {
                                let owner =
                                    managers.try_get(manager).and_then(|m| m.owner_of(id));
                                if let Some(owner) = owner {
                                    if owner != osm.id {
                                        scratch.wait_edges.push((osm.id, owner));
                                    }
                                }
                            }
                            scratch.fail = Some((*prim, id));
                            failed = true;
                            break 'prims;
                        }
                    }
                }
            },
            Primitive::Inquire { manager, ident } => match resolve(ident, &osm.slots) {
                Resolved::Vacuous => {}
                Resolved::AnyHeld => {
                    debug_assert!(false, "inquire cannot use AnyHeld");
                    if observing {
                        emit_token(
                            observers,
                            TokenEvent {
                                manager,
                                ..token_ev(
                                    TokenOpKind::Inquire,
                                    TokenIdent::NONE,
                                    None,
                                    TokenOutcome::Denied,
                                )
                            },
                        );
                    }
                    scratch.fail = Some((*prim, TokenIdent::NONE));
                    failed = true;
                    break 'prims;
                }
                Resolved::Ident(id) => {
                    let ok = managers
                        .try_get(manager)
                        .is_some_and(|m| m.inquire(osm.id, id));
                    if observing {
                        let outcome = if ok {
                            TokenOutcome::Granted
                        } else {
                            TokenOutcome::Denied
                        };
                        emit_token(
                            observers,
                            TokenEvent {
                                manager,
                                ..token_ev(TokenOpKind::Inquire, id, None, outcome)
                            },
                        );
                    }
                    if !ok {
                        if collect_waits {
                            let owner = managers.try_get(manager).and_then(|m| m.owner_of(id));
                            if let Some(owner) = owner {
                                if owner != osm.id {
                                    scratch.wait_edges.push((osm.id, owner));
                                }
                            }
                        }
                        scratch.fail = Some((*prim, id));
                        failed = true;
                        break 'prims;
                    }
                }
            },
            Primitive::Release { manager, ident } => {
                let target = match resolve(ident, &osm.slots) {
                    Resolved::Vacuous => continue,
                    Resolved::AnyHeld => None,
                    Resolved::Ident(id) => Some(id),
                };
                let found = osm.buffer.iter().enumerate().position(|(i, held)| {
                    !scratch.used.contains(&i)
                        && held.token.manager == manager
                        && target.is_none_or(|id| held.ident == id)
                });
                match found {
                    Some(i) => {
                        let token = osm.buffer[i].token;
                        let accepted = managers
                            .try_probe_mut(manager)
                            .is_some_and(|m| m.prepare_release(osm.id, token));
                        if observing {
                            let outcome = if accepted {
                                TokenOutcome::Granted
                            } else {
                                TokenOutcome::Denied
                            };
                            emit_token(
                                observers,
                                TokenEvent {
                                    manager,
                                    ..token_ev(
                                        TokenOpKind::Release,
                                        osm.buffer[i].ident,
                                        Some(token),
                                        outcome,
                                    )
                                },
                            );
                        }
                        if accepted {
                            scratch.used.push(i);
                            scratch.ops.push(PreparedOp::Release {
                                manager,
                                buffer_index: i,
                                token,
                            });
                        } else {
                            scratch.fail = Some((*prim, osm.buffer[i].ident));
                            failed = true;
                            break 'prims;
                        }
                    }
                    None => {
                        // Releasing a token the OSM does not hold is a model
                        // inconsistency; treat as an unsatisfied condition.
                        let ident = target.unwrap_or(TokenIdent::NONE);
                        if observing {
                            emit_token(
                                observers,
                                TokenEvent {
                                    manager,
                                    ..token_ev(
                                        TokenOpKind::Release,
                                        ident,
                                        None,
                                        TokenOutcome::Denied,
                                    )
                                },
                            );
                        }
                        scratch.fail = Some((*prim, ident));
                        failed = true;
                        break 'prims;
                    }
                }
            }
            Primitive::Discard { manager, ident } => match resolve(ident, &osm.slots) {
                Resolved::Vacuous => {}
                Resolved::AnyHeld => scratch.discards.push(DiscardSpec::All(manager)),
                Resolved::Ident(id) => {
                    if let Some(m) = manager {
                        scratch.discards.push(DiscardSpec::One(m, id));
                    } else {
                        scratch.discards.push(DiscardSpec::All(None));
                    }
                }
            },
        }
    }

    if failed {
        // Manager ids here are in range: each op's prepare succeeded above.
        for op in scratch.ops.iter().rev() {
            match *op {
                PreparedOp::Alloc {
                    manager,
                    ident,
                    token,
                } => {
                    managers.probe_mut(manager).abort_allocate(osm.id, token);
                    if observing {
                        emit_token(
                            observers,
                            TokenEvent {
                                manager,
                                ..token_ev(
                                    TokenOpKind::Allocate,
                                    ident,
                                    Some(token),
                                    TokenOutcome::Aborted,
                                )
                            },
                        );
                    }
                }
                PreparedOp::Release {
                    manager,
                    buffer_index,
                    token,
                } => {
                    managers.probe_mut(manager).abort_release(osm.id, token);
                    if observing {
                        emit_token(
                            observers,
                            TokenEvent {
                                manager,
                                ..token_ev(
                                    TokenOpKind::Release,
                                    osm.buffer[buffer_index].ident,
                                    Some(token),
                                    TokenOutcome::Aborted,
                                )
                            },
                        );
                    }
                }
            }
        }
        false
    } else {
        true
    }
}

/// Commits the satisfied plan held in `scratch`: finalizes transactions and
/// updates the buffer.
fn commit_plan<S, const OBS: bool>(
    osm: &mut Osm<S>,
    scratch: &mut Scratch,
    managers: &mut ManagerTable,
    observers: &mut [Box<dyn Observer>],
    cycle: u64,
    edge: EdgeId,
) {
    let observing = OBS;
    scratch.removed.clear();
    for op in &scratch.ops {
        match *op {
            PreparedOp::Alloc {
                manager,
                ident,
                token,
            } => {
                managers.get_mut(manager).commit_allocate(osm.id, token);
                osm.buffer.push(HeldToken { ident, token });
            }
            PreparedOp::Release {
                manager,
                buffer_index,
                token,
            } => {
                managers.get_mut(manager).commit_release(osm.id, token);
                scratch.removed.push(buffer_index);
            }
        }
    }
    scratch.removed.sort_unstable_by(|a, b| b.cmp(a));
    for &i in &scratch.removed {
        osm.buffer.remove(i);
    }
    for spec in &scratch.discards {
        let mut i = 0;
        while i < osm.buffer.len() {
            let held = osm.buffer[i];
            let matches = match *spec {
                DiscardSpec::All(None) => true,
                DiscardSpec::All(Some(m)) => held.token.manager == m,
                DiscardSpec::One(m, id) => held.token.manager == m && held.ident == id,
            };
            if matches {
                managers
                    .get_mut(held.token.manager)
                    .discard(osm.id, held.token);
                if observing {
                    emit_token(
                        observers,
                        TokenEvent {
                            cycle,
                            osm: osm.id,
                            edge,
                            manager: held.token.manager,
                            op: TokenOpKind::Discard,
                            ident: held.ident,
                            token: Some(held.token),
                            outcome: TokenOutcome::Granted,
                        },
                    );
                }
                osm.buffer.remove(i);
            } else {
                i += 1;
            }
        }
    }
}

/// Runs one control step over all OSMs (the Fig. 3 algorithm).
///
/// Monomorphized over `TRACKING`: callers pass `TRACKING = true` exactly
/// when observers are registered or a [`StallTracker`] is attached, and
/// `TRACKING = false` otherwise. The false instantiation contains no
/// event-emission or attribution code at all, so an uninstrumented machine
/// runs the pre-observability hot loop (one branch per cycle picks the
/// instantiation). `trace`, when present, receives every committed
/// transition in both instantiations.
///
/// # Errors
/// Returns [`ModelError::Deadlock`] if `deadlock_check` is on, no OSM
/// transitioned, and the blocked OSMs form a wait-for cycle.
#[allow(clippy::too_many_arguments)]
pub(crate) fn control_step<S: 'static, const TRACKING: bool>(
    osms: &mut [Osm<S>],
    specs: &[std::sync::Arc<crate::spec::StateMachineSpec>],
    managers: &mut ManagerTable,
    shared: &mut S,
    ranker: &dyn Ranker<S>,
    age_ranking: bool,
    policy: RestartPolicy,
    deadlock_check: bool,
    cycle: u64,
    age_counter: &mut u64,
    stats: &mut Stats,
    observers: &mut [Box<dyn Observer>],
    mut stalls: Option<&mut StallTracker>,
    mut trace: Option<&mut Trace>,
    scratch: &mut Scratch,
) -> Result<StepOutcome, ModelError> {
    // Rank all OSMs; stable order by (rank, id) guarantees determinism.
    // The paper's age policy is the common case and needs no view.
    scratch.list.clear();
    scratch.wait_edges.clear();
    // Stall attribution needs the first failing primitive of the
    // highest-priority enabled edge for every OSM still blocked at the end
    // of the step; `first_fail` collects it during the scan so no second
    // probe pass is needed.
    debug_assert_eq!(TRACKING, stalls.is_some() || !observers.is_empty());
    if TRACKING {
        scratch.first_fail.clear();
        scratch.first_fail.resize(osms.len(), None);
    }
    if age_ranking {
        for osm in osms.iter() {
            scratch.list.push((osm.age, osm.id));
        }
    } else {
        for osm in osms.iter() {
            scratch.list.push((ranker.rank(&osm.view(), shared), osm.id));
        }
    }
    scratch.list.sort_unstable_by_key(|&(rank, id)| (rank, id));
    let mut list = std::mem::take(&mut scratch.list);

    let mut transitions: u32 = 0;
    let mut completions: u32 = 0;
    let mut step_restarts: u32 = 0;

    let mut i = 0;
    while i < list.len() {
        let id = list[i].1;
        let osm = &mut osms[id.index()];
        let spec_idx = osm.spec_idx;
        let spec = &specs[spec_idx as usize];
        let mut moved = false;
        if TRACKING {
            scratch.first_fail[id.index()] = None;
        }

        for &eid in spec.out_edges(osm.state) {
            let edge = spec.edge(eid);
            if !osm.behavior.edge_enabled(edge, &osm.view(), shared) {
                stats.vetoed_edges += 1;
                continue;
            }
            let satisfied = if TRACKING && !observers.is_empty() {
                try_condition::<S, true>(osm, edge, managers, scratch, false, observers, cycle)
            } else {
                try_condition::<S, false>(osm, edge, managers, scratch, false, &mut [], cycle)
            };
            if satisfied {
                {
                    if TRACKING && !observers.is_empty() {
                        commit_plan::<S, true>(osm, scratch, managers, observers, cycle, eid);
                    } else {
                        commit_plan::<S, false>(osm, scratch, managers, &mut [], cycle, eid);
                    }
                    let from = osm.state;
                    osm.state = edge.dst;
                    let initial = spec.initial();
                    if from == initial && edge.dst != initial {
                        osm.age = *age_counter;
                        *age_counter += 1;
                    } else if edge.dst == initial {
                        osm.age = IDLE_AGE;
                        completions += 1;
                        debug_assert!(
                            osm.buffer.is_empty(),
                            "OSM {} returned to initial state still holding tokens: {:?}",
                            osm.id,
                            osm.buffer
                        );
                    }
                    osm.last_move_cycle = cycle;
                    let mut ctx = TransitionCtx {
                        osm: osm.id,
                        from,
                        to: edge.dst,
                        cycle,
                        tag: osm.tag,
                        slots: &mut osm.slots,
                        buffer: &osm.buffer,
                        managers,
                        shared,
                    };
                    osm.behavior.on_transition(edge, &mut ctx);
                    if let Some(t) = trace.as_deref_mut() {
                        t.push(TraceEvent {
                            cycle,
                            osm: id,
                            edge: eid,
                            from,
                            to: edge.dst,
                        });
                    }
                    if TRACKING && !observers.is_empty() {
                        let ev = TransitionEvent {
                            cycle,
                            osm: id,
                            spec: spec_idx,
                            edge: eid,
                            from,
                            to: edge.dst,
                            started: from == initial && edge.dst != initial,
                            completed: edge.dst == initial,
                        };
                        for o in observers.iter_mut() {
                            o.on_transition(&ev);
                        }
                    }
                    stats.transitions += 1;
                    transitions += 1;
                    moved = true;
                    break;
                }
            } else {
                stats.condition_failures += 1;
                if TRACKING && scratch.first_fail[id.index()].is_none() {
                    scratch.first_fail[id.index()] = scratch.fail;
                }
            }
        }

        if moved {
            list.remove(i);
            match policy {
                RestartPolicy::Restart => {
                    // Every committed transition re-enters the Fig. 3 outer
                    // loop from the top; when OSMs remain unserved that
                    // rescan actually happens and is counted — including
                    // transitions at i == 0, which the counter previously
                    // missed (`Stats::restarts` = rescans performed).
                    if !list.is_empty() {
                        stats.restarts += 1;
                        step_restarts += 1;
                    }
                    i = 0;
                }
                RestartPolicy::NoRestart => {
                    // The removed element's successor slid into position i.
                }
            }
        } else {
            i += 1;
        }
    }

    // Everything still in `list` failed to leave its state this step; charge
    // the first blocking (manager, primitive) pair recorded during the scan.
    if TRACKING {
        for &(_, id) in &list {
            let Some((prim, ident)) = scratch.first_fail[id.index()] else {
                continue;
            };
            let Some(manager) = prim.manager() else {
                continue;
            };
            let op = prim.kind();
            if let Some(t) = stalls.as_deref_mut() {
                t.charge(id, manager, op);
            }
            if !observers.is_empty() {
                let osm = &osms[id.index()];
                let ev = StallEvent {
                    cycle,
                    osm: id,
                    spec: osm.spec_idx,
                    state: osm.state,
                    manager,
                    op,
                    ident,
                };
                for o in observers.iter_mut() {
                    o.on_stall(&ev);
                }
            }
        }
    }

    let mut deadlock: Option<ModelError> = None;
    if transitions == 0 {
        stats.idle_steps += 1;
        if TRACKING {
            if let Some(t) = stalls {
                t.global_stall_cycles += 1;
            }
        }
        if deadlock_check {
            if let Some(cycle_osms) =
                deadlock_diagnostic_scan(osms, specs, managers, shared, scratch, cycle)
            {
                deadlock = Some(ModelError::Deadlock {
                    cycle,
                    osms: cycle_osms,
                });
            }
        }
    }

    if TRACKING && deadlock.is_none() {
        for o in observers.iter_mut() {
            o.on_cycle_end(cycle, transitions, completions, step_restarts);
        }
    }

    // Restore the ranking buffer on *every* exit — previously the taken
    // `list` was dropped on the deadlock return, silently losing the
    // per-step allocation.
    scratch.list = list;
    scratch.list.clear();
    match deadlock {
        Some(err) => Err(err),
        None => Ok(StepOutcome {
            transitions,
            completions,
        }),
    }
}

/// Rebuilds the fast scheduler's persistent state from the machine: every
/// sensitivity record is dropped and the in-flight ready list is re-derived
/// from OSM ages. Runs after [`Scratch::invalidate_schedule`] or whenever the
/// OSM population changed size.
fn rebuild_schedule<S>(osms: &[Osm<S>], scratch: &mut Scratch) {
    let n = osms.len();
    scratch.moved.clear();
    scratch.moved.resize(n, 0);
    scratch.sens.clear();
    scratch.sens.resize(n, SensEntry::default());
    scratch.active.clear();
    scratch.active_dead = 0;
    scratch.last_diag_generation = u64::MAX;
    // Reuse the ranking buffer to sort the in-flight population by
    // (age, id); monotonic dispatch ages keep it sorted from here on.
    scratch.list.clear();
    for osm in osms {
        if osm.age != IDLE_AGE {
            scratch.list.push((osm.age, osm.id));
        }
    }
    scratch.list.sort_unstable();
    scratch.active.extend(scratch.list.iter().map(|&(_, id)| id));
    scratch.list.clear();
    scratch.sched_valid = true;
}

/// Decides whether a blocked OSM can be skipped without re-evaluating its
/// edge conditions: its sensitivity record must still describe the current
/// residence, the behavior veto mask must be unchanged (re-computed here —
/// vetoes may read time-dependent shared state), and every recorded blocking
/// manager must still be at its recorded dirty epoch.
#[inline]
fn can_skip<S: 'static>(
    osm: &Osm<S>,
    spec: &StateMachineSpec,
    managers: &ManagerTable,
    shared: &S,
    sens: &SensEntry,
) -> bool {
    if !sens.valid || !sens.skippable || sens.state != osm.state {
        return false;
    }
    // Epochs first: a handful of u64 compares. When the check fails it is
    // almost always here (a recorded manager got dirtied), so rejecting
    // before the veto-mask recompute saves its closure calls.
    for j in 0..sens.n as usize {
        if managers.epoch(sens.mgrs[j]) != sens.epochs[j] {
            return false;
        }
    }
    let out = spec.out_edges(osm.state);
    if out.len() > 64 {
        return false;
    }
    let mut mask: u64 = 0;
    for (k, &eid) in out.iter().enumerate() {
        let edge = spec.edge(eid);
        if !osm.behavior.edge_enabled(edge, &osm.view(), shared) {
            mask |= 1 << k;
        }
    }
    mask == sens.veto_mask
}

/// What [`serve_osm_fast`] did with one OSM.
struct Served {
    moved: bool,
    completed: bool,
    dispatched: bool,
}

/// Serves one OSM exactly as the reference scheduler's inner loop does —
/// same edge order, same transition bookkeeping, same counters — and, when
/// the OSM stays blocked, records its sensitivity entry so later steps can
/// skip it.
// Deliberately NOT inlined into the two fast-path call sites: the inlined
// body bloats the stepping loop enough to wreck the codegen of the
// (far hotter) skip checks — measured ~1.5x on the sparse benchmark. The
// call overhead only shows on dense machines, and those fall back to the
// reference scheduler via the adaptation window anyway.
#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn serve_osm_fast<S: 'static, const TRACKING: bool>(
    osms: &mut [Osm<S>],
    id: OsmId,
    specs: &[Arc<StateMachineSpec>],
    managers: &mut ManagerTable,
    shared: &mut S,
    cycle: u64,
    age_counter: &mut u64,
    stats: &mut Stats,
    observers: &mut [Box<dyn Observer>],
    trace: Option<&mut Trace>,
    scratch: &mut Scratch,
) -> Served {
    let oi = id.index();
    let osm = &mut osms[oi];
    let spec_idx = osm.spec_idx;
    let spec = &specs[spec_idx as usize];
    if TRACKING {
        scratch.first_fail[oi] = None;
    }

    // Record only on the second consecutive blocked evaluation in the same
    // state (see [`SensEntry::armed`]); the first one just arms.
    let record = {
        let e = &scratch.sens[oi];
        (e.valid || e.armed) && e.state == osm.state
    };

    let out = spec.out_edges(osm.state);
    let mut veto_mask: u64 = 0;
    let mut skippable = out.len() <= 64;
    let mut mgrs = [ManagerId(0); MAX_SENS];
    let mut nm: usize = 0;
    let mut sens_fail: Option<(Primitive, TokenIdent)> = None;

    for (k, &eid) in out.iter().enumerate() {
        let edge = spec.edge(eid);
        if !osm.behavior.edge_enabled(edge, &osm.view(), shared) {
            stats.vetoed_edges += 1;
            if record && k < 64 {
                veto_mask |= 1 << k;
            }
            continue;
        }
        let satisfied = if TRACKING && !observers.is_empty() {
            try_condition::<S, true>(osm, edge, managers, scratch, false, observers, cycle)
        } else {
            try_condition::<S, false>(osm, edge, managers, scratch, false, &mut [], cycle)
        };
        if satisfied {
            if TRACKING && !observers.is_empty() {
                commit_plan::<S, true>(osm, scratch, managers, observers, cycle, eid);
            } else {
                commit_plan::<S, false>(osm, scratch, managers, &mut [], cycle, eid);
            }
            let from = osm.state;
            osm.state = edge.dst;
            let initial = spec.initial();
            let dispatched = from == initial && edge.dst != initial;
            let completed = edge.dst == initial;
            if dispatched {
                osm.age = *age_counter;
                *age_counter += 1;
            } else if completed {
                osm.age = IDLE_AGE;
                debug_assert!(
                    osm.buffer.is_empty(),
                    "OSM {} returned to initial state still holding tokens: {:?}",
                    osm.id,
                    osm.buffer
                );
            }
            osm.last_move_cycle = cycle;
            let mut ctx = TransitionCtx {
                osm: osm.id,
                from,
                to: edge.dst,
                cycle,
                tag: osm.tag,
                slots: &mut osm.slots,
                buffer: &osm.buffer,
                managers,
                shared,
            };
            osm.behavior.on_transition(edge, &mut ctx);
            if let Some(t) = trace {
                t.push(TraceEvent {
                    cycle,
                    osm: id,
                    edge: eid,
                    from,
                    to: edge.dst,
                });
            }
            if TRACKING && !observers.is_empty() {
                let ev = TransitionEvent {
                    cycle,
                    osm: id,
                    spec: spec_idx,
                    edge: eid,
                    from,
                    to: edge.dst,
                    started: dispatched,
                    completed,
                };
                for o in observers.iter_mut() {
                    o.on_transition(&ev);
                }
            }
            stats.transitions += 1;
            scratch.sens[oi].valid = false;
            scratch.sens[oi].armed = false;
            return Served {
                moved: true,
                completed,
                dispatched,
            };
        }
        stats.condition_failures += 1;
        if TRACKING && scratch.first_fail[oi].is_none() {
            scratch.first_fail[oi] = scratch.fail;
        }
        if record {
            if sens_fail.is_none() {
                sens_fail = scratch.fail;
            }
            match scratch.fail.and_then(|(p, _)| p.manager()) {
                Some(m) => {
                    if !mgrs[..nm].contains(&m) {
                        if nm < MAX_SENS {
                            mgrs[nm] = m;
                            nm += 1;
                        } else {
                            skippable = false;
                        }
                    }
                }
                None => skippable = false,
            }
        }
    }

    // Blocked. First time in this state: arm only — the record is taken on
    // the next blocked evaluation, so one-cycle stalls never pay for it.
    let entry = &mut scratch.sens[oi];
    if !record {
        entry.valid = false;
        entry.armed = true;
        entry.state = osm.state;
        return Served {
            moved: false,
            completed: false,
            dispatched: false,
        };
    }
    // Persist the sensitivity record. Epochs are read after the scan — the
    // scan itself only probes (prepare/abort), which never bumps an epoch,
    // so they reflect exactly the state just evaluated.
    entry.valid = true;
    entry.armed = true;
    entry.skippable = skippable;
    entry.state = osm.state;
    entry.veto_mask = veto_mask;
    entry.n = nm as u8;
    entry.mgrs = mgrs;
    for (j, &m) in mgrs.iter().enumerate().take(nm) {
        entry.epochs[j] = managers.epoch(m);
    }
    entry.fail = sens_fail;
    Served {
        moved: false,
        completed: false,
        dispatched: false,
    }
}

/// Charges one end-of-step blocked OSM to its first failing (manager,
/// primitive) pair — the fast path's equivalent of the reference scheduler's
/// residual-list attribution pass.
fn charge_blocked<S>(
    osms: &[Osm<S>],
    oi: usize,
    first_fail: &[Option<(Primitive, TokenIdent)>],
    stalls: &mut Option<&mut StallTracker>,
    observers: &mut [Box<dyn Observer>],
    cycle: u64,
) {
    let Some((prim, ident)) = first_fail[oi] else {
        return;
    };
    let Some(manager) = prim.manager() else {
        return;
    };
    let op = prim.kind();
    let osm = &osms[oi];
    if let Some(t) = stalls.as_deref_mut() {
        t.charge(osm.id, manager, op);
    }
    if !observers.is_empty() {
        let ev = StallEvent {
            cycle,
            osm: osm.id,
            spec: osm.spec_idx,
            state: osm.state,
            manager,
            op,
            ident,
        };
        for o in observers.iter_mut() {
            o.on_stall(&ev);
        }
    }
}

/// Runs one control step with the sensitivity-driven fast scheduler
/// ([`SchedulerMode::Fast`]); requires age ranking.
///
/// Serves OSMs in the same total order as [`control_step`] under age
/// ranking — in-flight OSMs seniors-first (the incrementally maintained
/// `active` list), then idle OSMs by id — but skips, without touching their
/// edge conditions, every blocked OSM whose sensitivity record still proves
/// it cannot move (see [`SensEntry`]). A skipped OSM contributes no token
/// events and no effort counters (`condition_failures`, `vetoed_edges`), so
/// the one-Denied-per-condition-failure reconciliation is preserved; its
/// stall attribution is charged from the persisted record instead.
///
/// Under [`RestartPolicy::Restart`] one cursor walks the service order and
/// every unmoved OSM below it is proven blocked against the current state.
/// After a commit, instead of rescanning from the top, the cursor resumes at
/// the lowest blocked OSM whose proof the commit may have broken, or past
/// the OSM that moved (see [`Scratch::resume_after_commit`]). That performs
/// the rescan's evaluations in its order and drops only its repeated skip
/// proofs, which are still counted as skips for the adaptation window.
///
/// # Errors
/// Returns [`ModelError::Deadlock`] exactly as the reference scheduler does;
/// the idle-step diagnostic scan is elided only when nothing was evaluated
/// this step and no manager epoch moved since the last scan — conditions
/// under which the scan would provably rebuild the same (acyclic) wait-for
/// graph.
#[allow(clippy::too_many_arguments)]
pub(crate) fn control_step_fast<S: 'static, const TRACKING: bool>(
    osms: &mut [Osm<S>],
    specs: &[std::sync::Arc<crate::spec::StateMachineSpec>],
    managers: &mut ManagerTable,
    shared: &mut S,
    policy: RestartPolicy,
    deadlock_check: bool,
    cycle: u64,
    age_counter: &mut u64,
    stats: &mut Stats,
    observers: &mut [Box<dyn Observer>],
    mut stalls: Option<&mut StallTracker>,
    mut trace: Option<&mut Trace>,
    scratch: &mut Scratch,
) -> Result<StepOutcome, ModelError> {
    let n = osms.len();
    scratch.wait_edges.clear();
    debug_assert_eq!(TRACKING, stalls.is_some() || !observers.is_empty());
    if TRACKING {
        scratch.first_fail.clear();
        scratch.first_fail.resize(n, None);
    }

    if !scratch.sched_valid || scratch.moved.len() != n {
        rebuild_schedule(osms, scratch);
    }
    scratch.step_seq += 1;
    let seq = scratch.step_seq;

    if scratch.active_dead * 2 > scratch.active.len() {
        scratch.active.retain(|&id| id != TOMBSTONE);
        scratch.active_dead = 0;
    }

    let mut transitions: u32 = 0;
    let mut completions: u32 = 0;
    let mut step_restarts: u32 = 0;
    let mut moved_count: usize = 0;
    let mut any_evaluated = false;
    let mut step_skips: u64 = 0;
    let mut step_evals: u64 = 0;

    // Service positions: `0..in_flight` are the in-flight OSMs, seniors
    // first (== the reference list's age-ranked prefix); `in_flight + oi`
    // is idle OSM `oi` (== its IDLE_AGE tail, where ties break by id).
    // `active` only grows within a step, and what it gains has moved, so a
    // position names the same OSM for the whole step.
    let mut active = std::mem::take(&mut scratch.active);
    let in_flight = active.len();
    let restart = policy == RestartPolicy::Restart;
    if restart {
        scratch.begin_resume(managers);
    }
    let mut pos = 0;
    while pos < in_flight + n {
        let (id, oi) = if pos < in_flight {
            let id = active[pos];
            if id == TOMBSTONE {
                pos += 1;
                continue;
            }
            (id, id.index())
        } else {
            let oi = pos - in_flight;
            if osms[oi].age != IDLE_AGE {
                pos += 1;
                continue;
            }
            (osms[oi].id, oi)
        };
        if scratch.moved[oi] == seq {
            pos += 1;
            continue;
        }
        let spec = &specs[osms[oi].spec_idx as usize];
        if can_skip(&osms[oi], spec, managers, shared, &scratch.sens[oi]) {
            if TRACKING {
                scratch.first_fail[oi] = scratch.sens[oi].fail;
            }
            step_skips += 1;
        } else {
            any_evaluated = true;
            step_evals += 1;
            let served = serve_osm_fast::<S, TRACKING>(
                osms,
                id,
                specs,
                managers,
                shared,
                cycle,
                age_counter,
                stats,
                observers,
                trace.as_deref_mut(),
                scratch,
            );
            if served.moved {
                scratch.moved[oi] = seq;
                moved_count += 1;
                transitions += 1;
                debug_assert!(
                    pos >= in_flight || !served.dispatched,
                    "in-flight OSM cannot dispatch"
                );
                if served.completed {
                    completions += 1;
                    // An idle OSM completes by an initial-state self-loop,
                    // without ever joining `active`.
                    if pos < in_flight {
                        active[pos] = TOMBSTONE;
                        scratch.active_dead += 1;
                    }
                } else if served.dispatched {
                    // Joins the in-flight list. Its age is the largest
                    // assigned so far, so pushing keeps the list sorted.
                    active.push(id);
                }
                if restart {
                    if moved_count < n {
                        stats.restarts += 1;
                        step_restarts += 1;
                    }
                    // Fig. 3 rescans from the top here. Every blocked OSM
                    // below the resume point would pass its skip proof again,
                    // so the rescan is cut short and they count as skips.
                    pos = scratch.resume_after_commit(pos, managers);
                    step_skips += scratch.blocked.len() as u64;
                    continue;
                }
                pos += 1;
                continue;
            }
        }
        if restart {
            scratch.register_blocked(pos, oi);
        }
        pos += 1;
    }

    // Everything unmoved is blocked; charge its first blocking (manager,
    // primitive) pair — for skipped OSMs, from the persisted record — in the
    // same residual order the reference scheduler charges.
    if TRACKING {
        for &id in active.iter() {
            if id == TOMBSTONE {
                continue;
            }
            let oi = id.index();
            if scratch.moved[oi] == seq {
                continue;
            }
            charge_blocked(osms, oi, &scratch.first_fail, &mut stalls, observers, cycle);
        }
        for oi in 0..n {
            if osms[oi].age != IDLE_AGE || scratch.moved[oi] == seq {
                continue;
            }
            charge_blocked(osms, oi, &scratch.first_fail, &mut stalls, observers, cycle);
        }
    }

    let mut deadlock: Option<ModelError> = None;
    if transitions == 0 {
        stats.idle_steps += 1;
        if TRACKING {
            if let Some(t) = stalls {
                t.global_stall_cycles += 1;
            }
        }
        if deadlock_check {
            let generation = managers.generation();
            // When every OSM was skipped and no manager epoch has moved
            // since the last diagnostic scan, that scan would rebuild the
            // exact same wait-for graph it already proved acyclic — elide it.
            if any_evaluated || generation != scratch.last_diag_generation {
                if let Some(cycle_osms) =
                    deadlock_diagnostic_scan(osms, specs, managers, shared, scratch, cycle)
                {
                    deadlock = Some(ModelError::Deadlock {
                        cycle,
                        osms: cycle_osms,
                    });
                } else {
                    scratch.last_diag_generation = generation;
                }
            }
        }
    }

    if TRACKING && deadlock.is_none() {
        for o in observers.iter_mut() {
            o.on_cycle_end(cycle, transitions, completions, step_restarts);
        }
    }

    scratch.active = active;

    // Adaptation: if a whole window of steps produced fewer skips than full
    // evaluations, the sensitivity bookkeeping costs more than it saves —
    // fall back to the reference scheduler and re-probe later. Cycle
    // behavior is unaffected (both schedulers are exact); only effort
    // counters can differ.
    scratch.adapt_skips += step_skips;
    scratch.adapt_evals += step_evals;
    scratch.adapt_steps += 1;
    if scratch.adapt_steps >= ADAPT_WINDOW {
        let fall_back = scratch.adapt_skips < scratch.adapt_evals;
        scratch.adapt_skips = 0;
        scratch.adapt_evals = 0;
        scratch.adapt_steps = 0;
        if fall_back {
            scratch.invalidate_schedule();
            scratch.adapt_cooldown = ADAPT_COOLDOWN;
        }
    }

    match deadlock {
        Some(err) => Err(err),
        None => Ok(StepOutcome {
            transitions,
            completions,
        }),
    }
}

/// Second evaluation pass over every OSM on a globally idle step, this time
/// recording which OSMs own the blocking tokens (lazy wait-for-graph
/// construction); returns the OSMs of a wait-for cycle if one exists.
///
/// Conditions all failed in the scheduling pass and nothing has changed, so
/// they fail again — the pass is side-effect free (with a defensive rollback
/// for release builds). Runs with no observers: emitting events here would
/// break the one-Denied-per-condition-failure reconciliation.
fn deadlock_diagnostic_scan<S: 'static>(
    osms: &mut [Osm<S>],
    specs: &[Arc<StateMachineSpec>],
    managers: &mut ManagerTable,
    shared: &S,
    scratch: &mut Scratch,
    cycle: u64,
) -> Option<Vec<OsmId>> {
    for osm in osms.iter_mut() {
        let spec = &specs[osm.spec_idx as usize];
        for &eid in spec.out_edges(osm.state) {
            let edge = spec.edge(eid);
            if !osm.behavior.edge_enabled(edge, &osm.view(), shared) {
                continue;
            }
            let satisfied =
                try_condition::<S, false>(osm, edge, managers, scratch, true, &mut [], cycle);
            debug_assert!(!satisfied, "idle step re-evaluation succeeded");
            if satisfied {
                // Roll back defensively in release builds.
                for op in scratch.ops.iter().rev() {
                    match *op {
                        PreparedOp::Alloc { manager, token, .. } => {
                            managers.probe_mut(manager).abort_allocate(osm.id, token)
                        }
                        PreparedOp::Release { manager, token, .. } => {
                            managers.probe_mut(manager).abort_release(osm.id, token)
                        }
                    }
                }
            }
        }
    }
    find_wait_cycle(&scratch.wait_edges)
}

/// Probes `edge` for `osm` and reports why it cannot fire right now, or
/// `None` if it is momentarily satisfiable. Every tentative transaction is
/// aborted before returning, so the probe is side-effect free on managers
/// honoring the two-phase protocol.
fn probe_edge<S>(
    osm: &Osm<S>,
    edge: &Edge,
    managers: &mut ManagerTable,
    scratch: &mut Scratch,
) -> Option<WaitCause> {
    if try_condition::<S, false>(osm, edge, managers, scratch, false, &mut [], 0) {
        // Satisfiable: roll the tentative transactions back (this is only a
        // probe, not a scheduling pass).
        for op in scratch.ops.iter().rev() {
            match *op {
                PreparedOp::Alloc { manager, token, .. } => {
                    managers.probe_mut(manager).abort_allocate(osm.id, token);
                }
                PreparedOp::Release { manager, token, .. } => {
                    managers.probe_mut(manager).abort_release(osm.id, token);
                }
            }
        }
        return None;
    }
    let (prim, ident) = scratch.fail.take()?;
    let manager = prim.manager()?;
    let manager_name = managers
        .try_get(manager)
        .map(|m| m.name().to_owned())
        .unwrap_or_else(|| format!("<unknown {manager}>"));
    let owner = managers
        .try_get(manager)
        .and_then(|m| m.owner_of(ident))
        .filter(|&o| o != osm.id);
    Some(WaitCause {
        manager,
        manager_name,
        primitive: prim.to_string(),
        owner,
    })
}

/// Builds the [`BlockedOsm`] diagnostics of a stall report: for every OSM
/// accepted by `include`, probes each enabled outgoing edge and records the
/// first failing primitive. Side-effect free (probing prepares then aborts).
pub(crate) fn diagnose_blocked<S: 'static>(
    osms: &[Osm<S>],
    specs: &[Arc<StateMachineSpec>],
    managers: &mut ManagerTable,
    shared: &S,
    scratch: &mut Scratch,
    include: &mut dyn FnMut(&Osm<S>) -> bool,
) -> Vec<BlockedOsm> {
    let mut blocked = Vec::new();
    for osm in osms {
        if !include(osm) {
            continue;
        }
        let spec = &specs[osm.spec_idx as usize];
        let mut waiting_on = Vec::new();
        for &eid in spec.out_edges(osm.state) {
            let edge = spec.edge(eid);
            if !osm.behavior.edge_enabled(edge, &osm.view(), shared) {
                continue;
            }
            if let Some(cause) = probe_edge(osm, edge, managers, scratch) {
                waiting_on.push(cause);
            }
        }
        blocked.push(BlockedOsm {
            osm: osm.id,
            spec: spec.name().to_owned(),
            state: spec.state_name(osm.state).to_owned(),
            held: osm.buffer.iter().map(|h| h.token).collect(),
            waiting_on,
        });
    }
    blocked
}

/// Finds a cycle in the wait-for graph, if any, returning its nodes.
///
/// The search starts from the lowest waiting OSM and follows edges in the
/// order the scan recorded them, so the same graph always reports the same
/// cycle: the report becomes a job's failure message, which canonical farm
/// reports and journals compare byte for byte.
fn find_wait_cycle(edges: &[(OsmId, OsmId)]) -> Option<Vec<OsmId>> {
    use std::collections::BTreeMap;
    let mut adj: BTreeMap<OsmId, Vec<OsmId>> = BTreeMap::new();
    for &(a, b) in edges {
        adj.entry(a).or_default().push(b);
    }

    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        White,
        Gray,
        Black,
    }
    let mut marks: BTreeMap<OsmId, Mark> = adj.keys().map(|&k| (k, Mark::White)).collect();

    fn dfs(
        node: OsmId,
        adj: &BTreeMap<OsmId, Vec<OsmId>>,
        marks: &mut BTreeMap<OsmId, Mark>,
        stack: &mut Vec<OsmId>,
    ) -> Option<Vec<OsmId>> {
        marks.insert(node, Mark::Gray);
        stack.push(node);
        if let Some(next) = adj.get(&node) {
            for &n in next {
                match marks.get(&n).copied().unwrap_or(Mark::Black) {
                    Mark::Gray => {
                        let start = stack.iter().position(|&x| x == n).unwrap_or(0);
                        return Some(stack[start..].to_vec());
                    }
                    Mark::White => {
                        if let Some(c) = dfs(n, adj, marks, stack) {
                            return Some(c);
                        }
                    }
                    Mark::Black => {}
                }
            }
        }
        stack.pop();
        marks.insert(node, Mark::Black);
        None
    }

    let nodes: Vec<OsmId> = adj.keys().copied().collect();
    let mut stack = Vec::new();
    for n in nodes {
        if marks.get(&n) == Some(&Mark::White) {
            if let Some(c) = dfs(n, &adj, &mut marks, &mut stack) {
                return Some(c);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wait_cycle_detected() {
        let edges = vec![(OsmId(0), OsmId(1)), (OsmId(1), OsmId(0))];
        let cyc = find_wait_cycle(&edges).expect("cycle");
        assert_eq!(cyc.len(), 2);
    }

    #[test]
    fn no_cycle_in_chain() {
        let edges = vec![(OsmId(0), OsmId(1)), (OsmId(1), OsmId(2))];
        assert!(find_wait_cycle(&edges).is_none());
    }

    #[test]
    fn self_wait_is_a_cycle() {
        // An OSM blocked on a token it cannot obtain from itself would be a
        // modeling error; the detector reports it.
        let edges = vec![(OsmId(3), OsmId(3))];
        let cyc = find_wait_cycle(&edges).expect("self cycle");
        assert_eq!(cyc, vec![OsmId(3)]);
    }

    #[test]
    fn empty_graph_has_no_cycle() {
        assert!(find_wait_cycle(&[]).is_none());
    }
}
