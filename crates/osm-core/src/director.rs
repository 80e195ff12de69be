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
use crate::machine::Machine;
use crate::manager::ManagerTable;
use crate::observe::{
    ObservedEvent, Sinks, StallEvent, TokenEvent, TokenOpKind, TokenOutcome, TransitionEvent,
};
use crate::osm::{Osm, OsmView, TransitionCtx, IDLE_AGE};
use crate::spec::{Edge, StateMachineSpec};
use crate::token::{HeldToken, IdentExpr, Primitive, Token, TokenIdent};
use crate::trace::TraceEvent;

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
    /// incrementally maintained ready list. On dense stretches, where skip
    /// proofs do not pay for their bookkeeping, the same ready list is
    /// walked with proofs switched off (see `ADAPT_WINDOW` in the director
    /// source). Requires age ranking (the default policy); under a custom
    /// ranker ([`crate::Machine::set_ranker`]) the director silently runs
    /// the reference scheduler.
    #[default]
    Fast,
    /// The literal Fig. 3 reference scheduler (full re-rank, sort and
    /// re-evaluation every step) — the oracle the fast path is checked
    /// against.
    Seed,
}

/// A custom ranking policy (paper §3.4), installed with
/// [`crate::Machine::set_ranker`]: the rank of one OSM at the beginning of
/// a control step. Smaller rank = served earlier; ties are broken by
/// [`OsmId`] so the schedule is always a total order (determinism). Without
/// one the director ranks by age, the paper's case-study policy: the order
/// in which the OSMs last left the initial state (seniors first), idle OSMs
/// last.
pub(crate) type RankFn<S> = dyn Fn(&OsmView<'_>, &S) -> u64 + Send;

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

/// A set of token-buffer positions: a bitmask for the first 64, and a
/// list for the rest (a buffer of more than 64 tokens is rare).
#[derive(Debug, Default)]
struct Positions {
    low: u64,
    high: Vec<usize>,
}

impl Positions {
    fn clear(&mut self) {
        self.low = 0;
        self.high.clear();
    }

    #[inline]
    fn contains(&self, i: usize) -> bool {
        if i < 64 {
            self.low >> i & 1 != 0
        } else {
            self.high.contains(&i)
        }
    }

    #[inline]
    fn insert(&mut self, i: usize) {
        if i < 64 {
            self.low |= 1 << i;
        } else {
            self.high.push(i);
        }
    }

    fn is_empty(&self) -> bool {
        self.low == 0 && self.high.is_empty()
    }
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
/// the OSM's own transitions, invalidating the record, (b) the behavior's
/// enabled-edge mask — re-checked on every skip test, with one hook call in
/// a state with a vetoable edge, and (c) the internal state of the managers
/// contacted up to the first failing primitive of each enabled edge —
/// guarded by the recorded dirty epochs.
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
    /// blocking managers, or a manager-less failing primitive).
    skippable: bool,
    /// The state the OSM was blocked in when the record was taken.
    state: crate::ids::StateId,
    /// The clear bits of the behavior's [`crate::Behavior::enabled_edges`]
    /// answer at record time, over the state's out-edges (bit k = edge k
    /// vetoed).
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
    /// Buffer positions the prepared plan releases.
    released: Positions,
    /// Wait-for edges (waiter, owner) of the idle-step diagnostic scan.
    wait_edges: Vec<(OsmId, OsmId)>,
    /// Per-OSM mark byte of the wait-for cycle search.
    wait_marks: Vec<u8>,
    /// Explicit depth-first stack of the wait-for cycle search: each node
    /// with the index of its next edge to follow.
    wait_stack: Vec<(OsmId, usize)>,
    /// First failing primitive of the most recent failed `try_condition`,
    /// with its resolved identifier (stall diagnostics).
    fail: Option<(Primitive, TokenIdent)>,
    /// Per-OSM first failing primitive of the OSM's most recent edge scan
    /// this step (stall-cause attribution; maintained only by the tracked
    /// instantiation).
    first_fail: Vec<Option<(Primitive, TokenIdent)>>,
    // --- persistent fast-scheduler state (SchedulerMode::Fast) ---
    /// Monotonic step counter ("this step" watermark for `moved`); not the
    /// machine cycle, which can rewind on checkpoint restore.
    step_seq: u64,
    /// True while `active` reflects the in-flight OSM population.
    pub(crate) sched_valid: bool,
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
    /// `ManagerTable::generation()` at the last idle-step deadlock scan
    /// that found no cycle; lets a fast step that evaluated nothing prove
    /// the scan would find the same acyclic wait-for graph again and skip
    /// it (see [`idle_step_deadlock`]).
    last_diag_generation: u64,
    /// Skips granted by [`can_skip`] in the current adaptation window.
    adapt_skips: u64,
    /// Full OSM evaluations performed in the current adaptation window.
    adapt_evals: u64,
    /// Control steps elapsed in the current adaptation window.
    adapt_steps: u32,
    /// Proof-free steps left before skip proofs are probed again (see
    /// [`ADAPT_WINDOW`]); 0 = proofs on.
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
/// its bookkeeping — the machine is dense — and the fast path switches skip
/// proofs off for [`ADAPT_COOLDOWN`] steps before probing again. It keeps
/// its ready list meanwhile: falling back to the reference loop instead
/// would sort the whole population every step and shift its list on every
/// commit. Proof-free steps are cycle-exact, so adaptation never changes a
/// trace.
const ADAPT_WINDOW: u32 = 128;
/// Proof-free steps after an unproductive window; proofs are re-probed
/// afterwards in case the workload turned sparse. Dense machines thus pay
/// the proof bookkeeping on ~3% of their steps.
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

/// Resolution of an [`IdentExpr`] against an OSM's slots.
enum Resolved {
    Ident(TokenIdent),
    /// Slot holds [`TokenIdent::NONE`]: the primitive is vacuous.
    Vacuous,
    /// `held`, which only a release or a discard names
    /// ([`crate::SpecBuilder::build`] refuses it in a request).
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

/// Reports one primitive attempt by `osm` on `edge` to the event sinks:
/// the director's one token-event emission point. The untracked
/// instantiation compiles it away; the tracked one builds the event only
/// while the log or the metrics are on.
#[inline(always)]
fn emit<const TRACKING: bool>(
    sinks: &mut Sinks,
    (cycle, osm, edge): (u64, OsmId, EdgeId),
    manager: ManagerId,
    op: TokenOpKind,
    ident: TokenIdent,
    token: Option<Token>,
    outcome: TokenOutcome,
) {
    if TRACKING && sinks.events() {
        sinks.record(ObservedEvent::Token(TokenEvent {
            cycle,
            osm,
            edge,
            manager,
            op,
            ident,
            token,
            outcome,
        }));
    }
}

/// `Granted` or `Denied`.
fn outcome(granted: bool) -> TokenOutcome {
    if granted {
        TokenOutcome::Granted
    } else {
        TokenOutcome::Denied
    }
}

/// Evaluates `edge`'s condition for `osm`, tentatively applying
/// transactions into `scratch` (cleared on entry). Returns true when the
/// condition is satisfied; on failure every prepared transaction is aborted
/// and `scratch.fail` names the first failing primitive.
///
/// Every manager contact is one token event, and a failed condition emits
/// exactly one `Denied` event, so denied-event counts reconcile with
/// [`crate::Stats::condition_failures`]. Only the `TRACKING` instantiation
/// reports to `sinks`.
fn try_condition<S, const TRACKING: bool>(
    osm: &Osm<S>,
    edge: &Edge,
    managers: &mut ManagerTable,
    scratch: &mut Scratch,
    sinks: &mut Sinks,
    cycle: u64,
) -> bool {
    scratch.ops.clear();
    scratch.discards.clear();
    scratch.released.clear();
    scratch.fail = None;
    let at = (cycle, osm.id, edge.id);
    for prim in &edge.condition {
        let op = prim.kind();
        match *prim {
            // `SpecBuilder::build` refuses `held` in an allocate or inquire.
            // The request arms stay `match`es: as `let ... else`, they turned
            // this match into a jump table, ~4% slower on ADL machines.
            Primitive::Allocate { manager, ident } => match resolve(ident, &osm.slots) {
                Resolved::Vacuous | Resolved::AnyHeld => {}
                Resolved::Ident(id) => {
                    // A dangling manager id in the spec is a modeling error;
                    // it surfaces as a never-satisfied condition, not a panic.
                    let token = managers
                        .try_probe_mut(manager)
                        .and_then(|m| m.prepare_allocate(osm.id, id));
                    emit::<TRACKING>(sinks, at, manager, op, id, token, outcome(token.is_some()));
                    match token {
                        Some(token) => scratch.ops.push(PreparedOp::Alloc {
                            manager,
                            ident: id,
                            token,
                        }),
                        None => {
                            scratch.fail = Some((*prim, id));
                            break;
                        }
                    }
                }
            },
            Primitive::Inquire { manager, ident } => match resolve(ident, &osm.slots) {
                Resolved::Vacuous | Resolved::AnyHeld => {}
                Resolved::Ident(id) => {
                    let ok = managers
                        .try_get(manager)
                        .is_some_and(|m| m.inquire(osm.id, id));
                    emit::<TRACKING>(sinks, at, manager, op, id, None, outcome(ok));
                    if !ok {
                        scratch.fail = Some((*prim, id));
                        break;
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
                    !scratch.released.contains(i)
                        && held.token.manager == manager
                        && target.is_none_or(|id| held.ident == id)
                });
                let Some(i) = found else {
                    // Releasing a token the OSM does not hold is a model
                    // inconsistency; treat as an unsatisfied condition.
                    let ident = target.unwrap_or(TokenIdent::NONE);
                    emit::<TRACKING>(sinks, at, manager, op, ident, None, TokenOutcome::Denied);
                    scratch.fail = Some((*prim, ident));
                    break;
                };
                let held = osm.buffer[i];
                let accepted = managers
                    .try_probe_mut(manager)
                    .is_some_and(|m| m.prepare_release(osm.id, held.token));
                let (ident, token) = (held.ident, Some(held.token));
                emit::<TRACKING>(sinks, at, manager, op, ident, token, outcome(accepted));
                if !accepted {
                    scratch.fail = Some((*prim, held.ident));
                    break;
                }
                scratch.released.insert(i);
                scratch.ops.push(PreparedOp::Release {
                    manager,
                    buffer_index: i,
                    token: held.token,
                });
            }
            Primitive::Discard { manager, ident } => match resolve(ident, &osm.slots) {
                Resolved::Vacuous => {}
                Resolved::AnyHeld => scratch.discards.push(DiscardSpec::All(manager)),
                Resolved::Ident(id) => scratch.discards.push(match manager {
                    Some(m) => DiscardSpec::One(m, id),
                    None => DiscardSpec::All(None),
                }),
            },
        }
    }
    if scratch.fail.is_none() {
        return true;
    }
    abort_plan::<S, TRACKING>(osm, scratch, managers, sinks, at);
    false
}

/// Aborts, newest first, the transactions `try_condition` prepared: on a
/// failed condition, or on a satisfied one that is only being probed. The
/// `TRACKING` instantiation reports each rollback as an `Aborted` event.
#[inline]
fn abort_plan<S, const TRACKING: bool>(
    osm: &Osm<S>,
    scratch: &Scratch,
    managers: &mut ManagerTable,
    sinks: &mut Sinks,
    at: (u64, OsmId, EdgeId),
) {
    // Manager ids here are in range: each op's prepare succeeded.
    for op in scratch.ops.iter().rev() {
        let (manager, kind, ident, token) = match *op {
            PreparedOp::Alloc {
                manager,
                ident,
                token,
            } => {
                managers.probe_mut(manager).abort_allocate(osm.id, token);
                (manager, TokenOpKind::Allocate, ident, token)
            }
            PreparedOp::Release {
                manager,
                buffer_index,
                token,
            } => {
                managers.probe_mut(manager).abort_release(osm.id, token);
                let ident = osm.buffer[buffer_index].ident;
                (manager, TokenOpKind::Release, ident, token)
            }
        };
        emit::<TRACKING>(
            sinks,
            at,
            manager,
            kind,
            ident,
            Some(token),
            TokenOutcome::Aborted,
        );
    }
}

/// Commits the satisfied plan held in `scratch`: finalizes transactions and
/// updates the buffer. Released tokens leave the buffer, and so do
/// discarded ones, each in one order-preserving pass.
fn commit_plan<S, const TRACKING: bool>(
    osm: &mut Osm<S>,
    scratch: &Scratch,
    managers: &mut ManagerTable,
    sinks: &mut Sinks,
    at: (u64, OsmId, EdgeId),
) {
    let id = osm.id;
    for op in &scratch.ops {
        match *op {
            PreparedOp::Alloc {
                manager,
                ident,
                token,
            } => {
                managers.get_mut(manager).commit_allocate(id, token);
                osm.buffer.push(HeldToken { ident, token });
            }
            PreparedOp::Release { manager, token, .. } => {
                managers.get_mut(manager).commit_release(id, token);
            }
        }
    }
    // Released positions index the buffer as it was before the plan's
    // allocations were appended.
    if !scratch.released.is_empty() {
        let mut i = 0;
        osm.buffer.retain(|_| {
            i += 1;
            !scratch.released.contains(i - 1)
        });
    }
    for spec in &scratch.discards {
        osm.buffer.retain(|held| {
            let matches = match *spec {
                DiscardSpec::All(None) => true,
                DiscardSpec::All(Some(m)) => held.token.manager == m,
                DiscardSpec::One(m, ident) => held.token.manager == m && held.ident == ident,
            };
            if matches {
                let manager = held.token.manager;
                managers.get_mut(manager).discard(id, held.token);
                emit::<TRACKING>(
                    sinks,
                    at,
                    manager,
                    TokenOpKind::Discard,
                    held.ident,
                    Some(held.token),
                    TokenOutcome::Granted,
                );
            }
            !matches
        });
    }
}

/// What one scheduling pass did; [`Machine::control_step`] ends the step
/// from it the same way for both schedulers.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct StepWork {
    /// Transitions committed.
    pub(crate) transitions: u32,
    /// Of those, returns to the initial state.
    pub(crate) completions: u32,
    /// Fig. 3 restarts counted ([`crate::Stats::restarts`]).
    pub(crate) restarts: u32,
    /// Whether any OSM's edges were evaluated rather than skipped on a
    /// proof (see [`Machine::idle_step_deadlock`]).
    pub(crate) evaluated: bool,
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

/// The bits of the first `n` out-edges of a state (`n` ≤
/// [`crate::StateMachineSpec::MAX_OUT_EDGES`]), the ones an enabled-edge
/// mask speaks for.
#[inline]
fn first_bits(n: usize) -> u64 {
    u64::MAX.checked_shr(64 - n as u32).unwrap_or(0)
}

/// The indices of `mask`'s set bits, lowest first: the out-edges an
/// enabled-edge mask leaves open, in priority order.
#[inline]
fn set_bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let k = mask.trailing_zeros() as usize;
        (mask != 0).then(|| {
            mask &= mask - 1;
            k
        })
    })
}

/// The out-edges of `osm`'s current state, within `all` (the state's
/// [`first_bits`]), that its behavior leaves enabled. `declared` is the
/// state's entry in the machine's veto table: the behavior is asked only
/// when it is nonzero, and its answer is read only at the declared bits;
/// the others count as enabled.
#[inline]
fn enabled_edges<S: 'static>(
    osm: &Osm<S>,
    spec: &StateMachineSpec,
    shared: &S,
    declared: u64,
    all: u64,
) -> u64 {
    if declared == 0 {
        return all;
    }
    let answer = osm.behavior.enabled_edges(spec, &osm.view(), shared);
    (answer | !declared) & all
}

/// What [`Machine::serve_osm`] did with one OSM.
struct Served {
    moved: bool,
    completed: bool,
    dispatched: bool,
}

impl Served {
    const BLOCKED: Served = Served {
        moved: false,
        completed: false,
        dispatched: false,
    };
}

/// Probes `edge` for `osm` without reporting to any sink: every tentative
/// transaction is aborted before returning, so the probe is side-effect
/// free on managers honoring the two-phase protocol. Returns the edge's
/// first failing primitive with its resolved identifier, or `None` if the
/// edge could fire right now.
fn probe_edge<S>(
    osm: &Osm<S>,
    edge: &Edge,
    managers: &mut ManagerTable,
    scratch: &mut Scratch,
) -> Option<(Primitive, TokenIdent)> {
    let none = &mut Sinks::default();
    if try_condition::<S, false>(osm, edge, managers, scratch, none, 0) {
        abort_plan::<S, false>(osm, scratch, managers, none, (0, osm.id, edge.id));
        return None;
    }
    scratch.fail.take()
}

/// The director's passes over the machine's OSMs, managers and hardware
/// layer; [`Machine::control_step`] picks the pass and ends the step.
// The passes and the two blocked-OSM reports stay out of line: inlined, all
// their instantiations land in `Machine::step`, which grew from about 300
// to about 3,600 instructions.
impl<S: 'static> Machine<S> {
    /// Runs one control step's scheduling pass with the reference
    /// scheduler: the literal Fig. 3 loop. It ranks every OSM, sorts by
    /// `(rank, id)` and serves the list in order through
    /// [`Machine::serve_osm`]; an OSM that moves leaves the list, and under
    /// [`RestartPolicy::Restart`] the scan restarts from the top. This loop
    /// order is all that sets it apart from [`Machine::fast_pass`] (whose
    /// oracle it is); serving, stall charging and the step's end are shared.
    /// Runs under [`SchedulerMode::Seed`] and under any custom ranker.
    ///
    /// Monomorphized over `TRACKING`: [`Machine::control_step`] picks
    /// `TRACKING = true` exactly when stall attribution, the event log or
    /// the metrics are on, and `TRACKING = false` otherwise. The false
    /// instantiation contains no event-emission or attribution code at all,
    /// so an uninstrumented machine runs the pre-observability hot loop (one
    /// branch per cycle picks the instantiation). The trace, when on,
    /// receives every committed transition in both instantiations.
    #[inline(never)]
    pub(crate) fn reference_pass<const TRACKING: bool>(&mut self) -> StepWork {
        debug_assert_eq!(TRACKING, self.sinks.tracking());
        if TRACKING {
            self.scratch.first_fail.clear();
            self.scratch.first_fail.resize(self.osms.len(), None);
        }
        // Rank all OSMs; the paper's age policy is the common case and needs
        // no view. Ids are unique, so sorting by (rank, id) is a total order.
        let mut list = std::mem::take(&mut self.scratch.list);
        match &self.ranker {
            None => list.extend(self.osms.iter().map(|osm| (osm.age, osm.id))),
            Some(rank) => list.extend(
                self.osms
                    .iter()
                    .map(|osm| (rank(&osm.view(), &self.shared), osm.id)),
            ),
        }
        list.sort_unstable();

        // The reference loop skips no OSM, so an idle step is always scanned
        // for deadlock.
        let mut work = StepWork {
            evaluated: true,
            ..StepWork::default()
        };
        let restart = self.restart == RestartPolicy::Restart;
        let mut i = 0;
        while i < list.len() {
            let served = self.serve_osm::<TRACKING, false>(list[i].1);
            if !served.moved {
                i += 1;
                continue;
            }
            work.transitions += 1;
            work.completions += u32::from(served.completed);
            list.remove(i);
            // Under `Restart` every commit re-enters the outer loop from the
            // top, and a rescan that happens (OSMs remain unserved) counts
            // once. Under `NoRestart` the removed OSM's successor slid into
            // place `i`.
            if restart {
                if !list.is_empty() {
                    self.stats.restarts += 1;
                    work.restarts += 1;
                }
                i = 0;
            }
        }

        // Everything still listed failed to leave its state this step.
        if TRACKING {
            for &(_, id) in &list {
                self.charge_blocked(id.index());
            }
        }
        list.clear();
        self.scratch.list = list;
        work
    }

    /// Runs one control step's scheduling pass with the sensitivity-driven
    /// fast scheduler ([`SchedulerMode::Fast`]); requires age ranking.
    ///
    /// Serves OSMs in the same total order as [`Machine::reference_pass`]
    /// under age ranking — in-flight OSMs seniors-first (the incrementally
    /// maintained `active` list), then idle OSMs by id — but skips, without
    /// touching their edge conditions, every blocked OSM whose sensitivity
    /// record still proves it cannot move (see [`SensEntry`]). A skipped OSM
    /// contributes no token events and no effort counters
    /// (`condition_failures`, `vetoed_edges`), so the
    /// one-Denied-per-condition-failure reconciliation is preserved; its
    /// stall attribution is charged from the persisted record instead.
    ///
    /// Under [`RestartPolicy::Restart`] one cursor walks the service order
    /// and every unmoved OSM below it is proven blocked against the current
    /// state. After a commit, instead of rescanning from the top, the cursor
    /// resumes at the lowest blocked OSM whose proof the commit may have
    /// broken, or past the OSM that moved (see
    /// [`Scratch::resume_after_commit`]). That performs the rescan's
    /// evaluations in its order and drops only its repeated skip proofs,
    /// which are still counted as skips for the adaptation window.
    ///
    /// With `PROOFS` off (the cooldown after an unproductive
    /// [`ADAPT_WINDOW`]) the step walks the same service order but evaluates
    /// every unmoved OSM, reads and writes no sensitivity entry and does no
    /// window accounting. Under `Restart` every blocked OSM is then
    /// unproven, so each commit resumes at the lowest blocked position:
    /// Fig. 3's literal rescan, with exactly the reference scheduler's
    /// evaluations and effort counters, but without its per-step rank sort
    /// and per-commit list shift.
    #[inline(never)]
    pub(crate) fn fast_pass<const TRACKING: bool, const PROOFS: bool>(&mut self) -> StepWork {
        let n = self.osms.len();
        debug_assert_eq!(TRACKING, self.sinks.tracking());
        if TRACKING {
            self.scratch.first_fail.clear();
            self.scratch.first_fail.resize(n, None);
        }

        if !self.scratch.sched_valid || self.scratch.moved.len() != n {
            rebuild_schedule(&self.osms, &mut self.scratch);
        }
        self.scratch.step_seq += 1;
        let seq = self.scratch.step_seq;

        if self.scratch.active_dead * 2 > self.scratch.active.len() {
            self.scratch.active.retain(|&id| id != TOMBSTONE);
            self.scratch.active_dead = 0;
        }

        let mut work = StepWork::default();
        let mut step_skips: u64 = 0;
        let mut step_evals: u64 = 0;

        // Service positions: `0..in_flight` are the in-flight OSMs, seniors
        // first (== the reference list's age-ranked prefix); `in_flight + oi`
        // is idle OSM `oi` (== its IDLE_AGE tail, where ties break by id).
        // `active` only grows within a step, and what it gains has moved, so
        // a position names the same OSM for the whole step.
        let mut active = std::mem::take(&mut self.scratch.active);
        let in_flight = active.len();
        let restart = self.restart == RestartPolicy::Restart;
        if restart {
            self.scratch.begin_resume(&self.managers);
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
                if self.osms[oi].age != IDLE_AGE {
                    pos += 1;
                    continue;
                }
                (self.osms[oi].id, oi)
            };
            if self.scratch.moved[oi] == seq {
                pos += 1;
                continue;
            }
            if PROOFS && self.can_skip(oi) {
                if TRACKING {
                    self.scratch.first_fail[oi] = self.scratch.sens[oi].fail;
                }
                step_skips += 1;
            } else {
                work.evaluated = true;
                step_evals += 1;
                let served = if PROOFS {
                    self.serve_osm_fast::<TRACKING>(id)
                } else {
                    self.serve_osm::<TRACKING, false>(id)
                };
                if served.moved {
                    self.scratch.moved[oi] = seq;
                    work.transitions += 1;
                    debug_assert!(
                        pos >= in_flight || !served.dispatched,
                        "in-flight OSM cannot dispatch"
                    );
                    if served.completed {
                        work.completions += 1;
                        // An idle OSM completes by an initial-state self-loop,
                        // without ever joining `active`.
                        if pos < in_flight {
                            active[pos] = TOMBSTONE;
                            self.scratch.active_dead += 1;
                        }
                    } else if served.dispatched {
                        // Joins the in-flight list. Its age is the largest
                        // assigned so far, so pushing keeps the list sorted.
                        active.push(id);
                    }
                    if restart {
                        if (work.transitions as usize) < n {
                            self.stats.restarts += 1;
                            work.restarts += 1;
                        }
                        // Fig. 3 rescans from the top here. Every blocked OSM
                        // below the resume point would pass its skip proof
                        // again, so the rescan is cut short and they count as
                        // skips.
                        pos = self.scratch.resume_after_commit(pos, &self.managers);
                        if PROOFS {
                            step_skips += self.scratch.blocked.len() as u64;
                        }
                        continue;
                    }
                    pos += 1;
                    continue;
                }
            }
            if restart {
                if PROOFS {
                    self.scratch.register_blocked(pos, oi);
                } else {
                    self.scratch.unproven = self.scratch.unproven.min(pos);
                }
            }
            pos += 1;
        }

        // Everything unmoved is blocked; charge its first blocking (manager,
        // primitive) pair — for skipped OSMs, from the persisted record — in
        // the order of the reference scheduler's leftover list.
        if TRACKING {
            for &id in active.iter() {
                if id == TOMBSTONE || self.scratch.moved[id.index()] == seq {
                    continue;
                }
                self.charge_blocked(id.index());
            }
            for oi in 0..n {
                if self.osms[oi].age != IDLE_AGE || self.scratch.moved[oi] == seq {
                    continue;
                }
                self.charge_blocked(oi);
            }
        }

        let scratch = &mut self.scratch;
        scratch.active = active;

        // Adaptation: if a whole window of steps produced fewer skips than
        // full evaluations, the sensitivity bookkeeping costs more than it
        // saves — switch proofs off and re-probe later. The ready list stays
        // valid; the records go stale while proof-free steps ignore them, so
        // they are dropped here. Cycle behavior is unaffected (both ways are
        // exact); only effort counters can differ.
        if PROOFS {
            scratch.adapt_skips += step_skips;
            scratch.adapt_evals += step_evals;
            scratch.adapt_steps += 1;
            if scratch.adapt_steps >= ADAPT_WINDOW {
                let fall_back = scratch.adapt_skips < scratch.adapt_evals;
                scratch.adapt_skips = 0;
                scratch.adapt_evals = 0;
                scratch.adapt_steps = 0;
                if fall_back {
                    scratch.sens.fill(SensEntry::default());
                    scratch.adapt_cooldown = ADAPT_COOLDOWN;
                }
            }
        }
        work
    }

    /// Decides whether blocked OSM `oi` can be skipped without re-evaluating
    /// its edge conditions: its sensitivity record must still describe the
    /// current residence, the behavior's veto mask must be unchanged
    /// (re-asked here — vetoes may read time-dependent shared state), and
    /// every recorded blocking manager must still be at its recorded dirty
    /// epoch. Only a state with a vetoable edge costs a hook call.
    #[inline]
    fn can_skip(&self, oi: usize) -> bool {
        let osm = &self.osms[oi];
        let sens = &self.scratch.sens[oi];
        if !sens.valid || !sens.skippable || sens.state != osm.state {
            return false;
        }
        // Epochs first: a handful of u64 compares. When the check fails it is
        // almost always here (a recorded manager got dirtied), so rejecting
        // before the veto hook saves its call.
        for j in 0..sens.n as usize {
            if self.managers.epoch(sens.mgrs[j]) != sens.epochs[j] {
                return false;
            }
        }
        let spec = &self.specs[osm.spec_idx as usize];
        let all = first_bits(spec.out_edges(osm.state).len());
        let declared = self.vetoable[osm.spec_idx as usize][osm.state.index()];
        all & !enabled_edges(osm, spec, &self.shared, declared, all) == sens.veto_mask
    }

    /// Serves the OSM at `id` with skip proofs on: [`Machine::serve_osm`]
    /// behind a call boundary.
    // Deliberately NOT inlined into the stepping loop: the inlined body
    // bloats it enough to wreck the codegen of the (far hotter) skip checks
    // — measured ~1.5x on the sparse benchmark. Proof-free steps have no
    // skip checks and call the body inlined instead.
    #[inline(never)]
    fn serve_osm_fast<const TRACKING: bool>(&mut self, id: OsmId) -> Served {
        self.serve_osm::<TRACKING, true>(id)
    }

    /// Serves one OSM: the inner loop of Fig. 3 for both schedulers.
    /// Evaluates the current state's out-edges in priority order and commits
    /// the first satisfied one: the plan, the state and age update,
    /// `on_transition`, the trace fold and the [`TransitionEvent`] all happen
    /// here and only here. With `PROOFS`, a transition clears the OSM's
    /// sensitivity entry and a blocked evaluation records it so later steps
    /// can skip the OSM; without, the entries are neither read nor written.
    #[inline(always)]
    fn serve_osm<const TRACKING: bool, const PROOFS: bool>(&mut self, id: OsmId) -> Served {
        let Machine {
            osms,
            specs,
            vetoable,
            managers,
            shared,
            cycle,
            age_counter,
            stats,
            sinks,
            scratch,
            ..
        } = self;
        let cycle = *cycle;
        let oi = id.index();
        let osm = &mut osms[oi];
        let spec_idx = osm.spec_idx;
        let spec = &specs[spec_idx as usize];
        if TRACKING {
            scratch.first_fail[oi] = None;
        }

        // Record only on the second consecutive blocked evaluation in the same
        // state (see [`SensEntry::armed`]); the first one just arms.
        let record = PROOFS && {
            let e = &scratch.sens[oi];
            (e.valid || e.armed) && e.state == osm.state
        };

        // At most one veto call, in a state with a vetoable edge; the scan
        // walks the edges left enabled, and the vetoed edges it passes over
        // count as `vetoed_edges`.
        let out = spec.out_edges(osm.state);
        let all = first_bits(out.len());
        let declared = vetoable[spec_idx as usize][osm.state.index()];
        let enabled = enabled_edges(osm, spec, shared, declared, all);
        let veto_mask = all & !enabled;
        let mut skippable = true;
        let mut mgrs = [ManagerId(0); MAX_SENS];
        let mut nm: usize = 0;
        let mut sens_fail: Option<(Primitive, TokenIdent)> = None;

        for k in set_bits(enabled) {
            let eid = out[k];
            let edge = spec.edge(eid);
            // An empty condition holds and commits nothing: no primitive to
            // try, no plan to commit.
            let fires = edge.condition.is_empty() || {
                let ok = try_condition::<S, TRACKING>(osm, edge, managers, scratch, sinks, cycle);
                if ok {
                    commit_plan::<S, TRACKING>(osm, scratch, managers, sinks, (cycle, id, eid));
                }
                ok
            };
            if fires {
                stats.vetoed_edges += u64::from((veto_mask & ((1 << k) - 1)).count_ones());
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
                if let Some(t) = &mut sinks.trace {
                    t.push(TraceEvent {
                        cycle,
                        osm: id,
                        edge: eid,
                        from,
                        to: edge.dst,
                    });
                }
                if TRACKING && sinks.events() {
                    sinks.record(ObservedEvent::Transition(TransitionEvent {
                        cycle,
                        osm: id,
                        spec: spec_idx,
                        edge: eid,
                        from,
                        to: edge.dst,
                        started: dispatched,
                        completed,
                    }));
                }
                stats.transitions += 1;
                if PROOFS {
                    scratch.sens[oi].valid = false;
                    scratch.sens[oi].armed = false;
                }
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

        stats.vetoed_edges += u64::from(veto_mask.count_ones());
        if !PROOFS {
            return Served::BLOCKED;
        }
        // Blocked. First time in this state: arm only — the record is taken on
        // the next blocked evaluation, so one-cycle stalls never pay for it.
        let entry = &mut scratch.sens[oi];
        if !record {
            entry.valid = false;
            entry.armed = true;
            entry.state = osm.state;
            return Served::BLOCKED;
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
        Served::BLOCKED
    }

    /// Charges OSM `oi`, blocked at the end of the step, to its first
    /// failing (manager, primitive) pair; both schedulers charge every
    /// blocked OSM through it.
    fn charge_blocked(&mut self, oi: usize) {
        let Some((prim, ident)) = self.scratch.first_fail[oi] else {
            return;
        };
        let Some(manager) = prim.manager() else {
            return;
        };
        let op = prim.kind();
        let osm = &self.osms[oi];
        if let Some(t) = &mut self.sinks.stalls {
            t.charge(osm.id, manager, op);
        }
        if self.sinks.events() {
            self.sinks.record(ObservedEvent::Stall(StallEvent {
                cycle: self.cycle,
                osm: osm.id,
                spec: osm.spec_idx,
                state: osm.state,
                manager,
                op,
                ident,
            }));
        }
    }

    /// The deadlock verdict of a step in which no OSM moved, for both
    /// schedulers: a second evaluation pass over every OSM through
    /// [`Machine::probe_osm`], recording which OSMs own the blocking tokens
    /// (lazy wait-for-graph construction), and [`ModelError::Deadlock`] if
    /// that graph has a cycle. Only a denied allocate or inquire names an
    /// owner to wait on.
    ///
    /// The pass is elided when the step `evaluated` nothing (the fast
    /// scheduler skipped every OSM on a proof) and no manager epoch moved
    /// since the last pass found no cycle: it would rebuild the same acyclic
    /// graph. The reference scheduler always evaluates, so it always scans.
    ///
    /// Conditions all failed in the scheduling pass and nothing has changed,
    /// so they fail again — the pass is side-effect free (the probe rolls
    /// back even a satisfied condition). It reports to no sink: emitting
    /// events here would break the one-Denied-per-condition-failure
    /// reconciliation.
    #[inline(never)]
    pub(crate) fn idle_step_deadlock(&mut self, evaluated: bool) -> Result<(), ModelError> {
        let generation = self.managers.generation();
        if !evaluated && generation == self.scratch.last_diag_generation {
            return Ok(());
        }
        let mut waits = std::mem::take(&mut self.scratch.wait_edges);
        waits.clear();
        for oi in 0..self.osms.len() {
            let waiter = self.osms[oi].id;
            self.probe_osm(oi, |managers, fail| {
                debug_assert!(fail.is_some(), "idle step re-evaluation succeeded");
                // Only a denied allocate or inquire names the owner it waits
                // on.
                let Some((
                    Primitive::Allocate { manager, .. } | Primitive::Inquire { manager, .. },
                    ident,
                )) = fail
                else {
                    return;
                };
                let owner = managers.try_get(manager).and_then(|m| m.owner_of(ident));
                if let Some(owner) = owner.filter(|&o| o != waiter) {
                    waits.push((waiter, owner));
                }
            });
        }
        let scratch = &mut self.scratch;
        let found = find_wait_cycle(&waits, &mut scratch.wait_marks, &mut scratch.wait_stack);
        scratch.wait_edges = waits;
        match found {
            Some(osms) => Err(ModelError::Deadlock {
                cycle: self.cycle,
                osms,
            }),
            None => {
                scratch.last_diag_generation = generation;
                Ok(())
            }
        }
    }

    /// The one probe walk behind both blocked-OSM reports (the deadlock
    /// scan and the stall diagnosis): probes each out-edge of OSM `oi` that
    /// its behavior enables, in priority order, with [`probe_edge`] and
    /// hands `blocked` the edge's first failing primitive and identifier,
    /// or `None` if the edge could fire.
    fn probe_osm(
        &mut self,
        oi: usize,
        mut blocked: impl FnMut(&ManagerTable, Option<(Primitive, TokenIdent)>),
    ) {
        let Machine {
            osms,
            specs,
            vetoable,
            managers,
            shared,
            scratch,
            ..
        } = self;
        let osm = &osms[oi];
        let spec = &specs[osm.spec_idx as usize];
        let out = spec.out_edges(osm.state);
        let declared = vetoable[osm.spec_idx as usize][osm.state.index()];
        let enabled = enabled_edges(osm, spec, shared, declared, first_bits(out.len()));
        for k in set_bits(enabled) {
            let fail = probe_edge(osm, spec.edge(out[k]), managers, scratch);
            blocked(managers, fail);
        }
    }

    /// Builds the [`BlockedOsm`] diagnostics of a stall report: for every
    /// OSM accepted by `include`, the first failing primitive of each
    /// enabled outgoing edge ([`Machine::probe_osm`]), with the manager's
    /// name and the token's other owner, if any. Side-effect free (probing
    /// prepares then aborts).
    #[inline(never)]
    pub(crate) fn diagnose_blocked(
        &mut self,
        mut include: impl FnMut(&Osm<S>) -> bool,
    ) -> Vec<BlockedOsm> {
        let mut blocked = Vec::new();
        for oi in 0..self.osms.len() {
            if !include(&self.osms[oi]) {
                continue;
            }
            let waiter = self.osms[oi].id;
            let mut waiting_on = Vec::new();
            self.probe_osm(oi, |managers, fail| {
                let Some((prim, ident)) = fail else {
                    return;
                };
                let Some(manager) = prim.manager() else {
                    return;
                };
                let found = managers.try_get(manager);
                waiting_on.push(WaitCause {
                    manager,
                    manager_name: found
                        .map(|m| m.name().to_owned())
                        .unwrap_or_else(|| format!("<unknown {manager}>")),
                    primitive: prim.to_string(),
                    owner: found
                        .and_then(|m| m.owner_of(ident))
                        .filter(|&o| o != waiter),
                });
            });
            let osm = &self.osms[oi];
            let spec = &self.specs[osm.spec_idx as usize];
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
}

/// Mark bytes of the wait-for cycle search.
const WHITE: u8 = 0;
const GRAY: u8 = 1;
const BLACK: u8 = 2;

/// Finds a cycle in the wait-for graph, if any, returning its nodes.
///
/// `edges` must be grouped by source in ascending id order, each source's
/// edges in recorded order: the diagnostic scan visits OSMs by id, so it
/// records them that way. The search starts from the lowest waiting OSM and
/// follows edges in that order, so the same graph always reports the same
/// cycle: the report becomes a job's failure message, which canonical farm
/// reports and journals compare byte for byte.
///
/// The graph is searched in place; `marks` and `stack` are reused scratch,
/// so only a returned cycle allocates.
fn find_wait_cycle(
    edges: &[(OsmId, OsmId)],
    marks: &mut Vec<u8>,
    stack: &mut Vec<(OsmId, usize)>,
) -> Option<Vec<OsmId>> {
    debug_assert!(
        edges.windows(2).all(|w| w[0].0 <= w[1].0),
        "wait-for edges not grouped by source"
    );
    let &(last, _) = edges.last()?;
    // A node past the last source has no out-edges, so it reads as black.
    marks.clear();
    marks.resize(last.index() + 1, WHITE);
    stack.clear();
    let first_edge = |node: OsmId| {
        let i = edges.partition_point(|&(from, _)| from < node);
        (edges.get(i).is_some_and(|&(from, _)| from == node)).then_some(i)
    };
    let mut root_edge = 0;
    while let Some(&(root, _)) = edges.get(root_edge) {
        if marks[root.index()] == WHITE {
            marks[root.index()] = GRAY;
            stack.push((root, root_edge));
            while let Some(top) = stack.last_mut() {
                let (node, next) = *top;
                let Some(&(_, to)) = edges.get(next).filter(|&&(from, _)| from == node) else {
                    marks[node.index()] = BLACK;
                    stack.pop();
                    continue;
                };
                top.1 += 1;
                match marks.get(to.index()).copied().unwrap_or(BLACK) {
                    GRAY => {
                        let at = stack.iter().position(|&(n, _)| n == to).unwrap_or(0);
                        return Some(stack[at..].iter().map(|&(n, _)| n).collect());
                    }
                    WHITE => match first_edge(to) {
                        Some(i) => {
                            marks[to.index()] = GRAY;
                            stack.push((to, i));
                        }
                        None => marks[to.index()] = BLACK,
                    },
                    _ => {}
                }
            }
        }
        root_edge += edges[root_edge..].partition_point(|&(from, _)| from == root);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::StateId;
    use crate::machine::HardwareLayer;
    use crate::osm::{Behavior, InertBehavior};
    use crate::pools::ExclusivePool;
    use crate::spec::SpecBuilder;
    use crate::trace::Trace;
    use crate::SchedulerMode;
    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use std::sync::{Arc, Mutex};

    /// Shared state of the veto machines: `go` is open on two cycles in
    /// three.
    #[derive(Default)]
    struct Gate {
        open: bool,
    }
    impl HardwareLayer for Gate {
        fn clock(&mut self, cycle: u64, _: &mut ManagerTable) {
            self.open = !cycle.is_multiple_of(3);
        }
    }

    /// Vetoes `go` while the gate is shut and logs the state of every
    /// `enabled_edges` call. With `DECLARED` it declares only `go`
    /// vetoable; without, it keeps the default declaration, every edge.
    struct Counted<const DECLARED: bool>(Arc<Mutex<Vec<StateId>>>);
    impl<const DECLARED: bool> Behavior<Gate> for Counted<DECLARED> {
        fn vetoable_edges(spec: &StateMachineSpec, state: StateId) -> u64 {
            if DECLARED {
                spec.edge_mask(state, |e| e.name == "go")
            } else {
                u64::MAX
            }
        }
        fn enabled_edges(&self, spec: &StateMachineSpec, view: &OsmView<'_>, gate: &Gate) -> u64 {
            self.0.lock().unwrap().push(view.state);
            spec.edge_mask(view.state, |e| e.name != "go" || gate.open)
        }
        fn on_transition(&mut self, _: &Edge, _: &mut TransitionCtx<'_, Gate>) {}
    }

    /// Four OSMs contend for one pool unit: `enter` (I -> W, empty), `go`
    /// (W -> D, takes the unit, vetoed while the gate is shut) and `leave`
    /// (D -> I, returns it). Only `W` has a vetoable edge.
    fn counted_machine<const DECLARED: bool>(
        mode: SchedulerMode,
        calls: &Arc<Mutex<Vec<StateId>>>,
    ) -> Machine<Gate> {
        let mut m: Machine<Gate> = Machine::new(Gate::default());
        m.set_scheduler_mode(mode);
        let unit = m.add_manager(ExclusivePool::new("unit", 1));
        let mut b = SpecBuilder::new("op");
        let i = b.state("I");
        let w = b.state("W");
        let d = b.state("D");
        b.initial(i);
        b.edge(i, w).named("enter");
        b.edge(w, d).named("go").allocate(unit, IdentExpr::Const(0));
        b.edge(d, i)
            .named("leave")
            .release(unit, IdentExpr::AnyHeld);
        let spec = b.build().unwrap();
        for _ in 0..4 {
            m.add_osm(&spec, Counted::<DECLARED>(Arc::clone(calls)));
        }
        m
    }

    /// What a run of `m` shows: vetoed edges, condition failures, token
    /// events (tracked runs only) and the trace digest.
    fn veto_run(mut m: Machine<Gate>, tracked: bool) -> (u64, u64, Vec<TokenEvent>, u64) {
        m.enable_trace_with(Trace::digest_only());
        if tracked {
            m.enable_event_log();
        }
        m.run(60).unwrap();
        let events = m
            .event_log()
            .map(|log| log.token_events().copied().collect())
            .unwrap_or_default();
        let digest = m.trace_digest().unwrap();
        let stats = &m.stats;
        (stats.vetoed_edges, stats.condition_failures, events, digest)
    }

    #[test]
    fn a_behavior_is_asked_only_in_states_with_a_declared_edge() {
        for mode in [SchedulerMode::Seed, SchedulerMode::Fast] {
            for tracked in [false, true] {
                let (declared_calls, default_calls) = (Arc::default(), Arc::default());
                let declared = veto_run(counted_machine::<true>(mode, &declared_calls), tracked);
                let default = veto_run(counted_machine::<false>(mode, &default_calls), tracked);
                assert_eq!(declared, default, "{mode:?} tracked={tracked}");
                assert!(declared.0 > 0, "{mode:?}: the gate never vetoed");
                assert_eq!(tracked, !declared.2.is_empty());
                let w = StateId(1);
                let declared_calls = declared_calls.lock().unwrap();
                assert!(declared_calls.contains(&w), "{mode:?}: never asked in W");
                assert!(
                    declared_calls.iter().all(|&s| s == w),
                    "{mode:?}: asked outside W"
                );
                let default_calls = default_calls.lock().unwrap();
                assert!(
                    default_calls.iter().any(|&s| s != w),
                    "{mode:?}: the default declaration was asked only in W"
                );
            }
        }
    }

    #[test]
    fn an_osm_holding_more_than_64_tokens_releases_and_discards_in_order() {
        let p_idents = |skip: &[u64]| (0..64).filter(|k| !skip.contains(k)).collect::<Vec<_>>();
        for mode in [SchedulerMode::Seed, SchedulerMode::Fast] {
            let mut m: Machine<()> = Machine::new(());
            m.set_scheduler_mode(mode);
            let p = m.add_manager(ExclusivePool::new("P", 64));
            let q = m.add_manager(ExclusivePool::new("Q", 8));
            let mut b = SpecBuilder::new("hoard");
            let i = b.state("I");
            let h = b.state("H");
            let j = b.state("J");
            b.initial(i);
            // Buffer positions 0..64 hold P0..P63, and 64..70 hold Q0..Q5.
            let mut grab = b.edge(i, h).named("grab");
            for k in 0..64 {
                grab = grab.allocate(p, IdentExpr::Const(k));
            }
            for k in 0..6 {
                grab = grab.allocate(q, IdentExpr::Const(k));
            }
            // The second `Q[held]` must pass over position 64, which the
            // first one took.
            b.edge(h, j)
                .named("drop")
                .release(q, IdentExpr::AnyHeld)
                .release(q, IdentExpr::AnyHeld)
                .release(p, IdentExpr::Const(3))
                .release(q, IdentExpr::Const(4))
                .discard(q, IdentExpr::Const(5));
            b.edge(j, i).named("done").discard_all();
            let spec = b.build().unwrap();
            let op = m.add_osm(&spec, InertBehavior);
            let held = |m: &Machine<()>| {
                let idents = |manager: ManagerId| {
                    let buffer = m.osm(op).buffer().iter();
                    buffer
                        .filter(|h| h.token.manager == manager)
                        .map(|h| h.ident.0)
                        .collect::<Vec<_>>()
                };
                (idents(p), idents(q))
            };
            m.step().unwrap();
            assert_eq!(held(&m), (p_idents(&[]), (0..6).collect()), "{mode:?}");
            m.step().unwrap();
            assert_eq!(held(&m), (p_idents(&[3]), vec![2, 3]), "{mode:?}");
            let managers = m.osm(op).buffer().iter().map(|h| h.token.manager);
            assert!(managers.is_sorted(), "{mode:?}: the buffer lost its order");
            let pool = |id| m.managers.downcast::<ExclusivePool>(id);
            assert_eq!(pool(p).free_count(), 1, "{mode:?}");
            assert_eq!(pool(q).free_count(), 6, "{mode:?}");
            m.step().unwrap();
            assert!(m.osm(op).buffer().is_empty(), "{mode:?}");
            let pool = |id| m.managers.downcast::<ExclusivePool>(id);
            assert_eq!((pool(p).free_count(), pool(q).free_count()), (64, 8));
            assert!(m.audit_tokens().is_empty(), "{mode:?}");
        }
    }

    #[test]
    fn an_empty_guard_commits_with_its_transition_event_and_no_token_event() {
        for mode in [SchedulerMode::Seed, SchedulerMode::Fast] {
            let mut m: Machine<()> = Machine::new(());
            m.set_scheduler_mode(mode);
            m.enable_event_log();
            let unit = m.add_manager(ExclusivePool::new("unit", 1));
            let mut b = SpecBuilder::new("op");
            let i = b.state("I");
            let w = b.state("W");
            b.initial(i);
            let enter = b.edge(i, w).named("enter").id();
            // `go` is denied (the holder has the unit), so the empty `back`
            // below it commits after a failed condition.
            let go = b
                .edge(w, i)
                .named("go")
                .priority(1)
                .allocate(unit, IdentExpr::Const(0))
                .id();
            let back = b.edge(w, i).named("back").id();
            let spec = b.build().unwrap();
            let mut b = SpecBuilder::new("holder");
            let i = b.state("I");
            let h = b.state("H");
            b.initial(i);
            b.edge(i, h).allocate(unit, IdentExpr::Const(0));
            let holder = b.build().unwrap();
            m.add_osm(&holder, InertBehavior);
            let op = m.add_osm(&spec, InertBehavior);
            m.run(2).unwrap();
            let log = m.event_log().unwrap();
            let moves: Vec<_> = log.transitions().filter(|t| t.osm == op).copied().collect();
            let event = |cycle, edge, from, to, started, completed| TransitionEvent {
                cycle,
                osm: op,
                spec: 1,
                edge,
                from,
                to,
                started,
                completed,
            };
            assert_eq!(
                moves,
                [
                    event(0, enter, i, w, true, false),
                    event(1, back, w, i, false, true)
                ],
                "{mode:?}"
            );
            let tokens: Vec<_> = log.token_events().filter(|t| t.osm == op).collect();
            assert_eq!(tokens.len(), 1, "{mode:?}: {tokens:?}");
            assert_eq!(
                (tokens[0].edge, tokens[0].outcome),
                (go, TokenOutcome::Denied)
            );
        }
    }

    /// [`find_wait_cycle`] with fresh scratch.
    fn wait_cycle(edges: &[(OsmId, OsmId)]) -> Option<Vec<OsmId>> {
        find_wait_cycle(edges, &mut Vec::new(), &mut Vec::new())
    }

    /// The map-based recursive search the in-place one replaced: the oracle
    /// for which cycle a graph reports.
    fn wait_cycle_oracle(edges: &[(OsmId, OsmId)]) -> Option<Vec<OsmId>> {
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

    #[test]
    fn wait_cycle_detected() {
        let edges = vec![(OsmId(0), OsmId(1)), (OsmId(1), OsmId(0))];
        let cyc = wait_cycle(&edges).expect("cycle");
        assert_eq!(cyc.len(), 2);
    }

    #[test]
    fn no_cycle_in_chain() {
        let edges = vec![(OsmId(0), OsmId(1)), (OsmId(1), OsmId(2))];
        assert!(wait_cycle(&edges).is_none());
    }

    #[test]
    fn self_wait_is_a_cycle() {
        // An OSM blocked on a token it cannot obtain from itself would be a
        // modeling error; the detector reports it.
        let edges = vec![(OsmId(3), OsmId(3))];
        let cyc = wait_cycle(&edges).expect("self cycle");
        assert_eq!(cyc, vec![OsmId(3)]);
    }

    #[test]
    fn empty_graph_has_no_cycle() {
        assert!(wait_cycle(&[]).is_none());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        // Random graphs in the scan's edge order (stably sorted by source),
        // owners past the last waiter included: the in-place search reports
        // exactly the oracle's cycle, on fresh and on reused scratch.
        #[test]
        fn in_place_wait_cycle_search_matches_the_map_oracle(
            raw in prop::collection::vec((0u32..10, 0u32..14), 0..40),
            warm in prop::collection::vec((0u32..14, 0u32..14), 0..20),
        ) {
            let sorted = |raw: &[(u32, u32)]| {
                let mut edges: Vec<(OsmId, OsmId)> =
                    raw.iter().map(|&(a, b)| (OsmId(a), OsmId(b))).collect();
                edges.sort_by_key(|&(a, _)| a);
                edges
            };
            let edges = sorted(&raw);
            let expected = wait_cycle_oracle(&edges);
            prop_assert_eq!(wait_cycle(&edges), expected.clone());
            let (mut marks, mut stack) = (Vec::new(), Vec::new());
            find_wait_cycle(&sorted(&warm), &mut marks, &mut stack);
            prop_assert_eq!(find_wait_cycle(&edges, &mut marks, &mut stack), expected);
        }
    }
}
