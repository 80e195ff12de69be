//! The machine: managers + OSMs + director configuration + shared hardware state.

use crate::director::{RankFn, RestartPolicy, SchedulerMode, Scratch, StepOutcome};
use crate::error::{ModelError, StallKind, StallReport};
use crate::ids::{ManagerId, OsmId, StateId};
use crate::manager::{ManagerSnapshot, ManagerTable, TokenManager};
use crate::observe::{EventLog, MetricsReport, Sinks, StallHistogram, StallTracker};
use crate::osm::{Behavior, Osm, OsmView};
use crate::persist::{fnv1a, fnv_mix, unseal, ByteReader, ByteWriter, FNV_OFFSET};
use crate::spec::StateMachineSpec;
use crate::stats::Stats;
use crate::token::{HeldToken, Token, TokenIdent};
use crate::trace::Trace;
use std::sync::Arc;

/// The hardware layer of a processor model (paper §4).
///
/// The shared state `S` of a [`Machine`] implements this trait; its
/// [`clock`](HardwareLayer::clock) hook runs once per cycle *before* the OSM
/// control step, modeling the interval between control steps in which
/// "hardware modules communicate with one another and exchange information
/// with their TMIs". Typical work: advance cache-miss timers, unblock stage
/// releases, update branch predictors.
///
/// The state is also where a model keeps its manager handles, and
/// [`halted`](HardwareLayer::halted) is the one halting predicate every
/// runner stops on: a model's `run_to_halt` and the farm's chunked runs both
/// call [`Machine::run_until`] with it.
pub trait HardwareLayer {
    /// Advances the hardware layer by one clock, with TMI access.
    fn clock(&mut self, cycle: u64, managers: &mut ManagerTable) {
        let _ = (cycle, managers);
    }

    /// True once the modeled program has run to its end. The default
    /// `false` suits machines without a program, such as ADL-synthesized
    /// ones: they run until their cycle budget is spent.
    fn halted(&self) -> bool {
        false
    }

    /// Writes the state's mutable part as its checkpoint section. Static
    /// configuration (manager ids, tables fixed at construction) stays out:
    /// [`HardwareLayer::decode_state`] keeps it from the machine being
    /// restored. The default `None` declares the state non-checkpointable,
    /// making [`Machine::checkpoint`] fail with
    /// [`ModelError::SnapshotUnsupported`].
    fn encode_state(&self) -> Option<Vec<u8>> {
        None
    }

    /// Restores a section written by [`HardwareLayer::encode_state`] on a
    /// machine of the same construction. Returns `false`, leaving the state
    /// unchanged, if the section is malformed or does not fit this state;
    /// the default refuses everything.
    fn decode_state(&mut self, bytes: &[u8]) -> bool {
        let _ = bytes;
        false
    }
}

/// The unit state carries nothing: its checkpoint section is empty.
impl HardwareLayer for () {
    fn encode_state(&self) -> Option<Vec<u8>> {
        Some(Vec::new())
    }

    fn decode_state(&mut self, bytes: &[u8]) -> bool {
        bytes.is_empty()
    }
}

/// A complete OSM machine model.
///
/// `S` is the model's shared hardware-layer state. A machine owns the
/// [`ManagerTable`] (hardware layer interface), all [`Osm`] instances
/// (operation layer), and the director configuration.
///
/// ```
/// use osm_core::{Machine, SpecBuilder, ExclusivePool, IdentExpr, InertBehavior};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut m: Machine<()> = Machine::new(());
/// let stage = m.add_manager(ExclusivePool::new("stage", 1));
/// let mut b = SpecBuilder::new("op");
/// let i = b.state("I");
/// let s = b.state("S");
/// b.initial(i);
/// b.edge(i, s).allocate(stage, IdentExpr::Const(0));
/// b.edge(s, i).release(stage, IdentExpr::AnyHeld);
/// let spec = b.build()?;
/// let op = m.add_osm(&spec, InertBehavior);
/// m.step()?;
/// assert_eq!(m.osm(op).state_name(), "S");
/// # Ok(())
/// # }
/// ```
pub struct Machine<S> {
    /// The token managers (public for hardware-layer data access).
    pub managers: ManagerTable,
    pub(crate) osms: Vec<Osm<S>>,
    pub(crate) specs: Vec<Arc<StateMachineSpec>>,
    /// Shared hardware-layer state.
    pub shared: S,
    /// The custom ranking policy; `None` is the paper's age ranking, the
    /// only one [`SchedulerMode::Fast`] serves.
    pub(crate) ranker: Option<Box<RankFn<S>>>,
    pub(crate) sched_mode: SchedulerMode,
    pub(crate) restart: RestartPolicy,
    pub(crate) cycle: u64,
    pub(crate) age_counter: u64,
    /// Stall watchdog bound (`None` = off); see [`Machine::set_stall_limit`].
    pub(crate) stall_limit: Option<u64>,
    pub(crate) last_transition_cycle: u64,
    pub(crate) last_completion_cycle: u64,
    /// Scheduler statistics.
    pub stats: Stats,
    /// The observability sinks; all off = the zero-cost untracked director.
    pub(crate) sinks: Sinks,
    /// The director's reusable buffers and persistent fast-scheduler state.
    pub(crate) scratch: Scratch,
}

impl<S: 'static> Machine<S> {
    /// Creates a machine around the given shared state, with the paper's
    /// defaults: age ranking and Fig. 3 restart semantics. Deadlock
    /// detection is always on.
    pub fn new(shared: S) -> Self {
        Machine {
            managers: ManagerTable::new(),
            osms: Vec::new(),
            specs: Vec::new(),
            shared,
            ranker: None,
            sched_mode: SchedulerMode::default(),
            restart: RestartPolicy::Restart,
            cycle: 0,
            age_counter: 0,
            stall_limit: None,
            last_transition_cycle: 0,
            last_completion_cycle: 0,
            stats: Stats::new(),
            sinks: Sinks::default(),
            scratch: Scratch::default(),
        }
    }

    /// Installs a token manager.
    ///
    /// # Panics
    /// Panics if the 32-bit manager id space is exhausted; use
    /// [`Machine::try_add_manager`] to handle that as an error.
    pub fn add_manager<M: TokenManager>(&mut self, manager: M) -> ManagerId {
        match self.try_add_manager(manager) {
            Ok(id) => id,
            Err(e) => panic!("{e}"),
        }
    }

    /// Installs a token manager, reporting id-space exhaustion as
    /// [`ModelError::CapacityExceeded`] instead of silently truncating the
    /// id.
    ///
    /// # Errors
    /// [`ModelError::CapacityExceeded`] when no further manager id exists.
    pub fn try_add_manager<M: TokenManager>(&mut self, manager: M) -> Result<ManagerId, ModelError> {
        self.managers.try_add(manager)
    }

    /// Instantiates one OSM of class `spec` with the given behavior.
    ///
    /// # Panics
    /// Panics if the 32-bit OSM or spec id space is exhausted; use
    /// [`Machine::try_add_osm_tagged`] to handle that as an error.
    pub fn add_osm<B: Behavior<S>>(&mut self, spec: &Arc<StateMachineSpec>, behavior: B) -> OsmId {
        self.add_osm_tagged(spec, behavior, 0)
    }

    /// Instantiates one OSM with a thread tag (§6 multithreading extension).
    ///
    /// # Panics
    /// Panics if the 32-bit OSM or spec id space is exhausted; use
    /// [`Machine::try_add_osm_tagged`] to handle that as an error.
    pub fn add_osm_tagged<B: Behavior<S>>(
        &mut self,
        spec: &Arc<StateMachineSpec>,
        behavior: B,
        tag: u64,
    ) -> OsmId {
        match self.try_add_osm_tagged(spec, behavior, tag) {
            Ok(id) => id,
            Err(e) => panic!("{e}"),
        }
    }

    /// Instantiates one OSM with a thread tag, reporting id-space exhaustion
    /// as [`ModelError::CapacityExceeded`] instead of silently truncating
    /// the OSM or spec index (`len as u32` previously wrapped registrations
    /// past `u32::MAX` onto existing ids).
    ///
    /// # Errors
    /// [`ModelError::CapacityExceeded`] when no further OSM or spec id
    /// exists.
    pub fn try_add_osm_tagged<B: Behavior<S>>(
        &mut self,
        spec: &Arc<StateMachineSpec>,
        behavior: B,
        tag: u64,
    ) -> Result<OsmId, ModelError> {
        let id = OsmId(crate::ids::checked_id(self.osms.len(), "OSM")?);
        let spec_idx = match self.specs.iter().position(|s| Arc::ptr_eq(s, spec)) {
            Some(k) => k as u32,
            None => {
                let idx = crate::ids::checked_id(self.specs.len(), "state-machine spec")?;
                self.specs.push(spec.clone());
                idx
            }
        };
        self.osms
            .push(Osm::new(id, spec.clone(), spec_idx, tag, Box::new(behavior)));
        Ok(id)
    }

    /// Borrows an OSM.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn osm(&self, id: OsmId) -> &Osm<S> {
        &self.osms[id.index()]
    }

    /// Number of OSM instances.
    pub fn osm_count(&self) -> usize {
        self.osms.len()
    }

    /// Iterates over all OSMs.
    pub fn osms(&self) -> impl Iterator<Item = &Osm<S>> {
        self.osms.iter()
    }

    /// Replaces the paper's age ranking with `rank` (paper §3.4): the rank
    /// of an OSM at the beginning of each control step, smaller served
    /// earlier, ties broken by [`crate::OsmId`].
    ///
    /// A custom ranker makes the director fall back to the reference
    /// scheduler even under [`SchedulerMode::Fast`] — the fast path's
    /// incremental ready list is only sound for age ranking.
    pub fn set_ranker<F>(&mut self, rank: F)
    where
        F: Fn(&OsmView<'_>, &S) -> u64 + Send + 'static,
    {
        self.ranker = Some(Box::new(rank));
        self.scratch.invalidate_schedule();
    }

    /// Sets the director restart policy.
    pub fn set_restart_policy(&mut self, policy: RestartPolicy) {
        self.restart = policy;
    }

    /// Selects the scheduling implementation (see [`SchedulerMode`]);
    /// [`SchedulerMode::Fast`] is the default.
    pub fn set_scheduler_mode(&mut self, mode: SchedulerMode) {
        if self.sched_mode != mode {
            self.sched_mode = mode;
            self.scratch.invalidate_schedule();
        }
    }

    /// The current scheduling implementation.
    pub fn scheduler_mode(&self) -> SchedulerMode {
        self.sched_mode
    }

    /// Arms (or with `None` disarms) the stall watchdog: if no qualifying
    /// progress happens for `limit` consecutive cycles while at least one
    /// OSM is in flight, [`Machine::step`] returns
    /// [`ModelError::Stalled`] with a structured [`StallReport`] naming the
    /// blocked OSMs and the primitives/managers they wait on.
    ///
    /// The watchdog distinguishes three conditions, checked in this order:
    /// no transition at all for `limit` cycles ([`StallKind::Wedged`] — the
    /// stalls the wait-for-graph deadlock detector cannot prove); no OSM
    /// returning to its initial state for `limit` cycles
    /// ([`StallKind::Livelock`]); and an individual in-flight OSM pinned in
    /// one state for `limit` cycles while others keep moving
    /// ([`StallKind::Starvation`]).
    ///
    /// Pick `limit` comfortably above the worst-case natural latency of one
    /// operation (cache-miss chains included), or healthy long-latency runs
    /// will be reported as stalls.
    pub fn set_stall_limit(&mut self, limit: Option<u64>) {
        self.stall_limit = limit.filter(|&l| l > 0);
    }

    /// The armed stall bound, if any.
    pub fn stall_limit(&self) -> Option<u64> {
        self.stall_limit
    }

    /// True if the event log or the metrics are on: the sinks that receive
    /// token, transition and stall events.
    pub fn has_observers(&self) -> bool {
        self.sinks.events()
    }

    /// Starts folding every committed transition into a fresh [`Trace`]
    /// digest. The list of transitions is the event log's
    /// ([`Machine::enable_event_log`]).
    ///
    /// The director folds each commit into the trace on the commit path of
    /// both its instantiations, so a traced machine still runs the
    /// untracked director and [`Machine::has_observers`] stays false.
    pub fn enable_trace(&mut self) {
        self.enable_trace_with(Trace::digest_only());
    }

    /// Starts folding transitions into the given [`Trace`], e.g. one
    /// resumed from a checkpoint ([`Trace::digest_only_resumed`]). No-op if
    /// a trace is already being recorded.
    pub fn enable_trace_with(&mut self, trace: Trace) {
        self.sinks.trace.get_or_insert(trace);
    }

    /// The trace recorded so far, if tracing is enabled.
    pub fn trace(&self) -> Option<&Trace> {
        self.sinks.trace.as_ref()
    }

    /// Takes the recorded trace, disabling tracing.
    pub fn take_trace(&mut self) -> Option<Trace> {
        self.sinks.trace.take()
    }

    /// Turns on the event log, the metrics and stall-cause attribution:
    /// everything the exporters in [`crate::export`] render. Call before
    /// the first step for reports that reconcile exactly with [`Stats`].
    pub fn enable_observability(&mut self) {
        self.enable_event_log();
        self.enable_metrics();
        self.enable_stall_attribution();
    }

    /// Starts recording the full event stream into an unbounded [`EventLog`]
    /// (feed for the [`crate::export`] exporters).
    pub fn enable_event_log(&mut self) {
        self.sinks.log.get_or_insert_with(Default::default);
    }

    /// Starts recording the event stream into a ring [`EventLog`] retaining
    /// only the most recent `capacity` events. No-op if a log is already
    /// being recorded.
    pub fn enable_event_log_ring(&mut self, capacity: usize) {
        self.sinks
            .log
            .get_or_insert_with(|| Box::new(EventLog::with_capacity(capacity)));
    }

    /// The event log recorded so far, if enabled.
    pub fn event_log(&self) -> Option<&EventLog> {
        self.sinks.log.as_deref()
    }

    /// Takes the recorded event log, disabling it.
    pub fn take_event_log(&mut self) -> Option<EventLog> {
        self.sinks.log.take().map(|log| *log)
    }

    /// Starts folding events into derived metrics (per-state occupancy,
    /// per-manager utilization, throughput windows of 1,024 cycles).
    pub fn enable_metrics(&mut self) {
        self.sinks.metrics.get_or_insert_with(Default::default);
    }

    /// Renders the structured [`MetricsReport`], if metrics are enabled.
    /// Includes the stall-cause histogram when attribution is also on.
    pub fn metrics_report(&self) -> Option<MetricsReport> {
        let metrics = self.sinks.metrics.as_ref()?;
        Some(MetricsReport::build(metrics, self))
    }

    /// Starts stall-cause attribution: every cycle an in-flight OSM fails
    /// to leave its state, the blocking `(manager, primitive)` pair is
    /// charged into the [`StallTracker`] histograms and into the watchdog's
    /// [`StallReport`].
    pub fn enable_stall_attribution(&mut self) {
        self.sinks.stalls.get_or_insert_with(Default::default);
    }

    /// The stall-cause attribution collected so far, if enabled.
    pub fn stall_attribution(&self) -> Option<&StallTracker> {
        self.sinks.stalls.as_deref()
    }

    /// The stall-cause histogram with manager names resolved (where the
    /// stall cycles went), if stall attribution is enabled.
    pub fn stall_histogram(&self) -> Option<StallHistogram> {
        let stalls = self.sinks.stalls.as_ref()?;
        Some(stalls.histogram(&self.managers))
    }

    /// The machine's spec table, indexed by [`Osm::spec_index`] /
    /// the `spec` field of observed events.
    pub fn specs(&self) -> &[Arc<StateMachineSpec>] {
        &self.specs
    }

    /// The current cycle (number of completed [`Machine::step`]s).
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The running digest of the recorded trace, read **without**
    /// disabling tracing (unlike [`Machine::take_trace`]). A probe point
    /// for mid-run equivalence checks: a differential harness can compare
    /// two runs' digests at a checkpoint cut and keep both running.
    /// `None` when tracing is not enabled.
    pub fn trace_digest(&self) -> Option<u64> {
        self.trace().map(Trace::digest)
    }

    /// An FNV-1a fingerprint of the machine's operation-layer state: the
    /// cycle plus, per OSM in id order, its spec index, current state, age,
    /// tag, identifier slots and buffered tokens (identifier, owning
    /// manager, raw value). Two machines with equal fingerprints are in the
    /// same architectural operation state — the probe differential oracles
    /// use to compare a restored checkpoint against the uninterrupted run,
    /// or the `Seed` and `Fast` schedulers at a mid-run cut, without
    /// taking a full [`Machine::checkpoint`].
    ///
    /// Hardware-layer manager internals are deliberately excluded (they are
    /// not generically hashable); token conservation ties them to the
    /// buffers that *are* covered, and [`Machine::audit_tokens`] checks that
    /// tie dynamically.
    pub fn state_fingerprint(&self) -> u64 {
        let mut hash = FNV_OFFSET;
        let mut mix = |v: u64| hash = fnv_mix(hash, v.to_le_bytes());
        mix(self.cycle);
        mix(self.osms.len() as u64);
        for osm in &self.osms {
            mix(u64::from(osm.spec_index()));
            mix(osm.state().index() as u64);
            mix(osm.age());
            mix(osm.tag());
            mix(osm.slots().len() as u64);
            for slot in osm.slots() {
                mix(slot.0);
            }
            mix(osm.buffer().len() as u64);
            for held in osm.buffer() {
                mix(held.ident.0);
                mix(u64::from(held.token.manager.0));
                mix(held.token.raw);
            }
        }
        hash
    }

    /// Token-conservation audit: every token a manager believes is owned
    /// must sit in exactly that owner's buffer, and every buffered token of
    /// an auditable manager must be acknowledged by it. This is the dynamic
    /// counterpart of the static checks in [`crate::verify_spec`]; tests run
    /// it between control steps.
    ///
    /// # Panics
    /// Never panics; violations are returned as human-readable strings.
    pub fn audit_tokens(&self) -> Vec<String> {
        let mut problems = Vec::new();
        let mut audited: Vec<bool> = vec![false; self.managers.len()];
        for (id, manager) in self.managers.iter() {
            let Some(owned) = manager.owned_tokens() else {
                continue;
            };
            audited[id.index()] = true;
            for (token, owner) in owned {
                let held = self
                    .osms
                    .get(owner.index())
                    .map(|osm| osm.buffer().iter().any(|h| h.token == token))
                    .unwrap_or(false);
                if !held {
                    problems.push(format!(
                        "manager {} says {owner} owns {token}, but it is not in that OSM's buffer",
                        manager.name()
                    ));
                }
            }
        }
        for osm in self.osms() {
            for held in osm.buffer() {
                let id = held.token.manager;
                if !audited.get(id.index()).copied().unwrap_or(false) {
                    continue;
                }
                let acknowledged = self
                    .managers
                    .get(id)
                    .owned_tokens()
                    .map(|owned| owned.iter().any(|(t, o)| *t == held.token && *o == osm.id()))
                    .unwrap_or(true);
                if !acknowledged {
                    problems.push(format!(
                        "{} holds {} which its manager does not acknowledge",
                        osm.id(),
                        held.token
                    ));
                }
            }
        }
        problems
    }

    /// Runs the OSM layer only: one director control step (Fig. 3) at the
    /// current cycle, without advancing the hardware layer. The DE kernel
    /// uses this at clock edges; most users call [`Machine::step`].
    ///
    /// The configured scheduler runs the step's scheduling pass; the step
    /// then ends here, the same way for both: a step without transitions
    /// counts as an idle step (and a global stall cycle when stall
    /// attribution is on) and gets the deadlock check, and the metrics
    /// close the step unless it deadlocked.
    ///
    /// # Errors
    /// Returns [`ModelError::Deadlock`] if no OSM transitioned and the
    /// blocked OSMs form a wait-for cycle.
    pub fn control_step(&mut self) -> Result<StepOutcome, ModelError> {
        // One branch per cycle picks the monomorphized director: the
        // TRACKING=false instantiation carries no observability code at all.
        // The transition trace is folded in on the commit path of both, so
        // recording it never selects the tracked one.
        // The fast scheduler requires age ranking; the reference scheduler
        // runs only when asked for or under a custom ranker.
        let tracking = self.sinks.tracking();
        let work = if self.sched_mode == SchedulerMode::Fast && self.ranker.is_none() {
            // Adaptive proofs: after an unproductive skip window the fast
            // path walks its ready list proof-free for a while (see
            // `ADAPT_COOLDOWN` in director.rs). Identical cycle behavior
            // either way — the cooldown only decides whether blocked OSMs
            // may be skipped.
            let proofs = self.scratch.adapt_cooldown == 0;
            if !proofs {
                self.scratch.adapt_cooldown -= 1;
            }
            match (tracking, proofs) {
                (false, true) => self.fast_pass::<false, true>(),
                (false, false) => self.fast_pass::<false, false>(),
                (true, true) => self.fast_pass::<true, true>(),
                (true, false) => self.fast_pass::<true, false>(),
            }
        } else if tracking {
            self.reference_pass::<true>()
        } else {
            self.reference_pass::<false>()
        };
        if work.transitions == 0 {
            self.stats.idle_steps += 1;
            if let Some(t) = &mut self.sinks.stalls {
                t.global_stall_cycles += 1;
            }
            self.idle_step_deadlock(work.evaluated)?;
        }
        if let Some(m) = &mut self.sinks.metrics {
            m.end_cycle(work.restarts);
        }
        Ok(StepOutcome {
            transitions: work.transitions,
            completions: work.completions,
        })
    }

    /// Feeds one step's outcome into the watchdog trackers and, if armed,
    /// checks the stall bound. `now` is the cycle the step ran at.
    fn watchdog_check(&mut self, outcome: StepOutcome, now: u64) -> Result<(), ModelError> {
        if outcome.transitions > 0 {
            self.last_transition_cycle = now;
        }
        if outcome.completions > 0 {
            self.last_completion_cycle = now;
        }
        let Some(limit) = self.stall_limit else {
            return Ok(());
        };
        // With every OSM idle the machine is merely out of work, not stuck.
        if self.osms.iter().all(|o| o.is_idle()) {
            return Ok(());
        }
        let idle_for = now.saturating_sub(self.last_transition_cycle);
        let no_completion_for = now.saturating_sub(self.last_completion_cycle);
        let (kind, stalled_for) = if idle_for >= limit {
            (StallKind::Wedged, idle_for)
        } else if no_completion_for >= limit {
            (StallKind::Livelock, no_completion_for)
        } else {
            let worst_pin = self
                .osms
                .iter()
                .filter(|o| !o.is_idle())
                .map(|o| now.saturating_sub(o.last_move_cycle()))
                .max()
                .unwrap_or(0);
            if worst_pin < limit {
                return Ok(());
            }
            (StallKind::Starvation, worst_pin)
        };
        let blocked = self.diagnose_blocked(|o| match kind {
            // Starvation singles out the pinned OSMs; the other kinds report
            // every in-flight OSM.
            StallKind::Starvation => {
                !o.is_idle() && now.saturating_sub(o.last_move_cycle()) >= limit
            }
            StallKind::Wedged | StallKind::Livelock => !o.is_idle(),
        });
        Err(ModelError::Stalled(Box::new(StallReport {
            kind,
            cycle: now,
            stalled_for,
            budget: limit,
            blocked,
            // When attribution is on, embed the stall-cause histogram that
            // led up to the stall — no separate probe pass required.
            attribution: self.stall_histogram(),
        })))
    }

    /// Debug-build token-conservation check run at the end of
    /// [`Machine::run`]/[`Machine::run_until`].
    fn leak_check(&self) -> Result<(), ModelError> {
        if cfg!(debug_assertions) {
            let problems = self.audit_tokens();
            if !problems.is_empty() {
                return Err(ModelError::TokenLeak {
                    cycle: self.cycle,
                    problems,
                });
            }
        }
        Ok(())
    }
}

impl<S: HardwareLayer + 'static> Machine<S> {
    /// Captures a cycle-accurate checkpoint of the whole machine as the
    /// sealed `OSMCKPT1` byte string, the one checkpoint form in memory and
    /// on disk: OSM states, ages, token buffers and identifier slots,
    /// behavior state, manager state, shared hardware-layer state,
    /// statistics and scheduler counters. The transition trace is not
    /// captured. [`Machine::restore`] reads the bytes back into this
    /// machine or any other of the same construction.
    ///
    /// Layout: [`CHECKPOINT_MAGIC`], [`CHECKPOINT_VERSION`], the counters
    /// and statistics, an empty list (once named counters; a reader refuses
    /// a non-empty one), the shared state's section
    /// ([`HardwareLayer::encode_state`]), per OSM its record and behavior
    /// section (tag 0 for a stateless behavior), per manager its
    /// [`TokenManager::snapshot_state`] section, and finally a
    /// [`crate::persist::fnv1a`] seal over everything before it.
    ///
    /// # Errors
    /// [`ModelError::SnapshotUnsupported`] if the shared state or any
    /// installed manager does not implement checkpointing.
    pub fn checkpoint(&self) -> Result<Vec<u8>, ModelError> {
        Ok(self.write_checkpoint()?.into_sealed_bytes(fnv1a))
    }

    /// Rewinds the machine to bytes written by [`Machine::checkpoint`] on a
    /// machine of the same construction. Re-running from the restored state
    /// reproduces the original continuation transition-for-transition. The
    /// same bytes can be restored any number of times. The transition trace
    /// is not rewound.
    ///
    /// Restoring is all-or-nothing: on any error the machine is left
    /// exactly as it was.
    ///
    /// # Errors
    /// [`ModelError::SnapshotMismatch`] if the bytes are damaged, truncated
    /// or from a differently built machine, or a component rejects its
    /// section; [`ModelError::SnapshotUnsupported`] if this machine cannot
    /// be checkpointed (restoring first takes an undo checkpoint).
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), ModelError> {
        let payload =
            unseal(bytes, fnv1a).ok_or_else(|| mismatch("checkpoint seal invalid or missing"))?;
        // Sections apply one component at a time, so a section rejected
        // late would leave the earlier ones applied; the undo image rolls
        // them back.
        let undo = self.write_checkpoint()?.into_bytes();
        let applied = self.read_checkpoint(payload);
        if applied.is_err() {
            self.read_checkpoint(&undo)
                .expect("a machine accepts the checkpoint it just wrote");
        }
        // Every OSM state and age was rewritten; the fast scheduler's ready
        // list and sensitivity records no longer describe the machine.
        self.scratch.invalidate_schedule();
        applied
    }

    /// Everything [`Machine::checkpoint`] writes except the seal.
    fn write_checkpoint(&self) -> Result<ByteWriter, ModelError> {
        let shared = self
            .shared
            .encode_state()
            .ok_or_else(|| ModelError::SnapshotUnsupported {
                manager: "shared hardware-layer state".to_owned(),
            })?;
        let mut w = ByteWriter::new();
        w.put_bytes(CHECKPOINT_MAGIC);
        w.put_u32(CHECKPOINT_VERSION);
        let s = &self.stats;
        for v in [
            self.cycle,
            self.age_counter,
            self.last_transition_cycle,
            self.last_completion_cycle,
            s.cycles,
            s.transitions,
            s.condition_failures,
            s.vetoed_edges,
            s.idle_steps,
            s.restarts,
        ] {
            w.put_u64(v);
        }
        // Once a list of named counters; always empty now.
        w.put_u32(0);
        w.put_bytes(&shared);
        w.put_u32(self.osms.len() as u32);
        for osm in &self.osms {
            w.put_u32(osm.state.0);
            w.put_u64(osm.age);
            w.put_u64(osm.tag);
            w.put_u64(osm.last_move_cycle);
            w.put_seq(&osm.buffer, |w, held| {
                w.put_u64(held.ident.0);
                w.put_u32(held.token.manager.0);
                w.put_u64(held.token.raw);
            });
            w.put_seq(&osm.slots, |w, slot| w.put_u64(slot.0));
            match osm.behavior.snapshot() {
                None => w.put_u8(0),
                Some(section) => {
                    w.put_u8(1);
                    w.put_bytes(&section);
                }
            }
        }
        w.put_u32(self.managers.len() as u32);
        for (id, manager) in self.managers.iter() {
            let section =
                manager
                    .snapshot_state()
                    .ok_or_else(|| ModelError::SnapshotUnsupported {
                        manager: format!("{} ({id})", manager.name()),
                    })?;
            w.put_bytes(section.as_bytes());
        }
        Ok(w)
    }

    /// Applies an unsealed checkpoint payload in stream order. Each
    /// component refuses a bad section without changing, but the ones
    /// before it are applied by then; [`Machine::restore`] rolls back.
    fn read_checkpoint(&mut self, payload: &[u8]) -> Result<(), ModelError> {
        let truncated = || mismatch("checkpoint truncated");
        let mut r = ByteReader::new(payload);
        if r.take_bytes().ok_or_else(truncated)? != CHECKPOINT_MAGIC {
            return Err(mismatch("not a checkpoint (bad magic)"));
        }
        let version = r.take_u32().ok_or_else(truncated)?;
        if version != CHECKPOINT_VERSION {
            return Err(mismatch(format!(
                "checkpoint format version {version} (this build reads {CHECKPOINT_VERSION})"
            )));
        }
        let mut counters = [0u64; 10];
        for c in &mut counters {
            *c = r.take_u64().ok_or_else(truncated)?;
        }
        if r.take_u32().ok_or_else(truncated)? != 0 {
            return Err(mismatch("checkpoint carries named counters, which `Stats` no longer keeps"));
        }
        let mut stats = Stats::new();
        [
            self.cycle,
            self.age_counter,
            self.last_transition_cycle,
            self.last_completion_cycle,
            stats.cycles,
            stats.transitions,
            stats.condition_failures,
            stats.vetoed_edges,
            stats.idle_steps,
            stats.restarts,
        ] = counters;
        self.stats = stats;
        if !self
            .shared
            .decode_state(r.take_bytes().ok_or_else(truncated)?)
        {
            return Err(mismatch("shared hardware-layer state rejected its section"));
        }
        let osm_count = r.take_u32().ok_or_else(truncated)? as usize;
        if osm_count != self.osms.len() {
            return Err(mismatch(format!(
                "checkpoint has {osm_count} OSMs, machine has {}",
                self.osms.len()
            )));
        }
        let manager_count = self.managers.len();
        for osm in &mut self.osms {
            let state = StateId(r.take_u32().ok_or_else(truncated)?);
            let age = r.take_u64().ok_or_else(truncated)?;
            let tag = r.take_u64().ok_or_else(truncated)?;
            let last_move_cycle = r.take_u64().ok_or_else(truncated)?;
            let buffer = r
                .take_vec(|r| {
                    let ident = TokenIdent(r.take_u64()?);
                    let manager = ManagerId(r.take_u32()?);
                    let raw = r.take_u64()?;
                    Some(HeldToken {
                        ident,
                        token: Token::new(manager, raw),
                    })
                })
                .ok_or_else(truncated)?;
            let slots = r
                .take_vec(|r| r.take_u64().map(TokenIdent))
                .ok_or_else(truncated)?;
            let section = match r.take_u8().ok_or_else(truncated)? {
                0 => None,
                1 => Some(r.take_bytes().ok_or_else(truncated)?),
                tag => return Err(mismatch(format!("unknown behavior section tag {tag}"))),
            };
            if state.index() >= osm.spec.state_count()
                || buffer
                    .iter()
                    .any(|h| h.token.manager.index() >= manager_count)
            {
                return Err(mismatch(format!(
                    "{} has a state or token its machine does not",
                    osm.id
                )));
            }
            if !osm.behavior.restore(section) {
                return Err(mismatch(format!(
                    "behavior of {} rejected its section",
                    osm.id
                )));
            }
            osm.state = state;
            osm.age = age;
            osm.tag = tag;
            osm.buffer = buffer;
            osm.slots = slots;
            osm.last_move_cycle = last_move_cycle;
        }
        let count = r.take_u32().ok_or_else(truncated)? as usize;
        if count != manager_count {
            return Err(mismatch(format!(
                "checkpoint has {count} managers, machine has {manager_count}"
            )));
        }
        for i in 0..manager_count {
            let section = ManagerSnapshot::new(r.take_bytes().ok_or_else(truncated)?.to_vec());
            // In range: `i` indexes the registration-checked manager table.
            let id = ManagerId(i as u32);
            let manager = self.managers.get_mut(id);
            if !manager.restore_state(&section) {
                return Err(mismatch(format!(
                    "manager {} ({id}) rejected its section",
                    manager.name()
                )));
            }
        }
        if !r.is_done() {
            return Err(mismatch("trailing bytes after the last checkpoint section"));
        }
        Ok(())
    }
}

fn mismatch(what: impl Into<String>) -> ModelError {
    ModelError::SnapshotMismatch { what: what.into() }
}

/// Magic bytes opening every checkpoint.
pub const CHECKPOINT_MAGIC: &[u8] = b"OSMCKPT1";
/// Current checkpoint format version.
pub const CHECKPOINT_VERSION: u32 = 1;

impl<S: HardwareLayer + 'static> Machine<S> {
    /// Advances one full cycle: hardware layer clock, manager clock hooks,
    /// then the OSM control step (paper Fig. 4 embedding, cycle-driven form).
    ///
    /// # Errors
    /// Returns [`ModelError::Deadlock`] on a detected wait-for cycle.
    pub fn step(&mut self) -> Result<StepOutcome, ModelError> {
        self.shared.clock(self.cycle, &mut self.managers);
        self.managers.clock_all(self.cycle);
        let outcome = self.control_step()?;
        self.watchdog_check(outcome, self.cycle)?;
        self.cycle += 1;
        self.stats.cycles += 1;
        Ok(outcome)
    }

    /// Runs `n` cycles. In debug builds a token-conservation audit runs at
    /// the end and surfaces any inconsistency as [`ModelError::TokenLeak`].
    ///
    /// # Errors
    /// Propagates the first [`ModelError`].
    pub fn run(&mut self, n: u64) -> Result<(), ModelError> {
        for _ in 0..n {
            self.step()?;
        }
        self.leak_check()
    }

    /// Runs until `stop` returns true or `max_cycles` elapse; returns the
    /// number of cycles executed. Ends with the same debug-build leak audit
    /// as [`Machine::run`]. A run to an absolute cycle `c` passes
    /// `c.saturating_sub(machine.cycle())` and, to stop at the program's
    /// end, `|m| m.shared.halted()` ([`HardwareLayer::halted`]).
    ///
    /// # Errors
    /// Propagates the first [`ModelError`].
    pub fn run_until<F>(&mut self, max_cycles: u64, mut stop: F) -> Result<u64, ModelError>
    where
        F: FnMut(&Machine<S>) -> bool,
    {
        let start = self.cycle;
        while self.cycle - start < max_cycles {
            if stop(self) {
                break;
            }
            self.step()?;
        }
        self.leak_check()?;
        Ok(self.cycle - start)
    }
}

impl<S: std::fmt::Debug> std::fmt::Debug for Machine<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("cycle", &self.cycle)
            .field("managers", &self.managers)
            .field("osms", &self.osms.len())
            .field("shared", &self.shared)
            .finish()
    }
}

// Compile-time Send audit: a machine whose shared hardware-layer state is
// `Send` must itself be `Send`, so whole simulation jobs can be sharded
// across worker threads. Every trait object a machine can own — managers,
// behaviors, rankers, fault controls — is constrained to uphold
// this; a regression in any of them fails here, not in a downstream crate.
// (Checkpoints are plain bytes.)
const _: () = {
    const fn assert_send<T: Send>() {}
    const fn machine_is_send<S: Send + 'static>() {
        assert_send::<Machine<S>>();
    }
    machine_is_send::<()>();
    assert_send::<crate::FaultHandle>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::SlotId;
    use crate::osm::{InertBehavior, TransitionCtx};
    use crate::pools::{ExclusivePool, RegScoreboard};
    use crate::spec::{Edge, SpecBuilder};
    use crate::token::{IdentExpr, TokenIdent};

    /// Three-stage loop: I -> A -> B -> I over two exclusive stages.
    fn pipeline_spec(ma: ManagerId, mb: ManagerId) -> Arc<StateMachineSpec> {
        let mut b = SpecBuilder::new("pipe");
        let i = b.state("I");
        let a = b.state("A");
        let bb = b.state("B");
        b.initial(i);
        b.edge(i, a).named("enter").allocate(ma, IdentExpr::Const(0));
        b.edge(a, bb)
            .named("advance")
            .release(ma, IdentExpr::AnyHeld)
            .allocate(mb, IdentExpr::Const(0));
        b.edge(bb, i).named("leave").release(mb, IdentExpr::AnyHeld);
        b.build().unwrap()
    }

    #[test]
    fn single_osm_walks_pipeline() {
        let mut m: Machine<()> = Machine::new(());
        let ma = m.add_manager(ExclusivePool::new("A", 1));
        let mb = m.add_manager(ExclusivePool::new("B", 1));
        let spec = pipeline_spec(ma, mb);
        let op = m.add_osm(&spec, InertBehavior);
        assert_eq!(m.osm(op).state_name(), "I");
        m.step().unwrap();
        assert_eq!(m.osm(op).state_name(), "A");
        assert_eq!(m.osm(op).buffer().len(), 1);
        m.step().unwrap();
        assert_eq!(m.osm(op).state_name(), "B");
        m.step().unwrap();
        assert_eq!(m.osm(op).state_name(), "I");
        assert!(m.osm(op).buffer().is_empty());
        assert_eq!(m.stats.transitions, 3);
        assert_eq!(m.cycle(), 3);
    }

    #[test]
    fn two_osms_pipeline_in_order_and_structure_hazard_resolves() {
        let mut m: Machine<()> = Machine::new(());
        let ma = m.add_manager(ExclusivePool::new("A", 1));
        let mb = m.add_manager(ExclusivePool::new("B", 1));
        let spec = pipeline_spec(ma, mb);
        let o0 = m.add_osm(&spec, InertBehavior);
        let o1 = m.add_osm(&spec, InertBehavior);
        // Step 1: only one can enter A (one occupancy token).
        m.step().unwrap();
        let in_a = [o0, o1]
            .iter()
            .filter(|&&o| m.osm(o).state_name() == "A")
            .count();
        assert_eq!(in_a, 1);
        // Step 2: senior advances to B, junior takes A *in the same step*
        // (release visible within the step).
        m.step().unwrap();
        assert_eq!(m.osm(o0).state_name(), "B");
        assert_eq!(m.osm(o1).state_name(), "A");
    }

    #[test]
    fn age_ranking_keeps_seniors_first() {
        let mut m: Machine<()> = Machine::new(());
        let ma = m.add_manager(ExclusivePool::new("A", 1));
        let mb = m.add_manager(ExclusivePool::new("B", 1));
        let spec = pipeline_spec(ma, mb);
        // Insert in reverse id order relative to fetch: both idle, id ties
        // break toward o0; o0 becomes senior.
        let o0 = m.add_osm(&spec, InertBehavior);
        let o1 = m.add_osm(&spec, InertBehavior);
        m.run(2).unwrap();
        assert!(m.osm(o0).age() < m.osm(o1).age());
        assert_eq!(m.osm(o0).state_name(), "B");
    }

    /// Two OSMs each hold one stage and want the other's: a wait cycle.
    /// Returns the OSMs the deadlock report names.
    fn crossed_allocation_deadlock() -> Vec<OsmId> {
        let mut m: Machine<()> = Machine::new(());
        let ma = m.add_manager(ExclusivePool::new("A", 1));
        let mb = m.add_manager(ExclusivePool::new("B", 1));
        // Class 1: I -> A (take A), A -> Z (want B without releasing A).
        let spec_ab = {
            let mut b = SpecBuilder::new("ab");
            let i = b.state("I");
            let a = b.state("A");
            let z = b.state("Z");
            b.initial(i);
            b.edge(i, a).allocate(ma, IdentExpr::Const(0));
            b.edge(a, z).allocate(mb, IdentExpr::Const(0));
            b.build().unwrap()
        };
        let spec_ba = {
            let mut b = SpecBuilder::new("ba");
            let i = b.state("I");
            let a = b.state("B");
            let z = b.state("Z");
            b.initial(i);
            b.edge(i, a).allocate(mb, IdentExpr::Const(0));
            b.edge(a, z).allocate(ma, IdentExpr::Const(0));
            b.build().unwrap()
        };
        m.add_osm(&spec_ab, InertBehavior);
        m.add_osm(&spec_ba, InertBehavior);
        // Step 1: each takes its first stage.
        m.step().unwrap();
        // Step 2: both blocked on each other -> deadlock.
        match m.step().unwrap_err() {
            ModelError::Deadlock { osms, .. } => osms,
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn deadlock_detected_on_cyclic_dependency() {
        assert_eq!(crossed_allocation_deadlock().len(), 2);
    }

    #[test]
    fn deadlock_report_is_the_same_on_every_construction() {
        // The report is a farm job's failure message, compared byte for
        // byte across runs; it must not depend on hash iteration order.
        let first = crossed_allocation_deadlock();
        for _ in 0..63 {
            assert_eq!(crossed_allocation_deadlock(), first);
        }
    }

    #[test]
    fn behavior_slots_drive_dynamic_identifiers() {
        // An OSM that allocates a register-update token whose register index
        // is decided by the behavior at the previous transition.
        struct Decode {
            dest: usize,
        }
        impl Behavior<()> for Decode {
            fn on_transition(&mut self, edge: &Edge, ctx: &mut TransitionCtx<'_, ()>) {
                if edge.name == "enter" {
                    ctx.set_slot(SlotId(0), RegScoreboard::update_ident(self.dest));
                }
            }
        }
        let mut m: Machine<()> = Machine::new(());
        let stage = m.add_manager(ExclusivePool::new("stage", 2));
        let rf = m.add_manager(RegScoreboard::new("regs", 8));
        let spec = {
            let mut b = SpecBuilder::new("op");
            let i = b.state("I");
            let d = b.state("D");
            let e = b.state("E");
            b.initial(i);
            b.edge(i, d).named("enter").allocate(stage, IdentExpr::ANY);
            b.edge(d, e)
                .named("issue")
                .allocate(rf, IdentExpr::Slot(SlotId(0)));
            b.build().unwrap()
        };
        let o0 = m.add_osm(&spec, Decode { dest: 3 });
        let o1 = m.add_osm(&spec, Decode { dest: 3 });
        m.run(2).unwrap();
        // Senior OSM got the reg-3 update token; junior stalls in D (WAW).
        assert_eq!(m.osm(o0).state_name(), "E");
        assert_eq!(m.osm(o1).state_name(), "D");
        let rfm: &RegScoreboard = m.managers.downcast(rf);
        assert_eq!(rfm.writer_of(3), Some(o0));
    }

    #[test]
    fn trace_records_transitions() {
        let mut m: Machine<()> = Machine::new(());
        let ma = m.add_manager(ExclusivePool::new("A", 1));
        let mb = m.add_manager(ExclusivePool::new("B", 1));
        let spec = pipeline_spec(ma, mb);
        m.add_osm(&spec, InertBehavior);
        m.enable_trace();
        m.run(3).unwrap();
        let trace = m.take_trace().unwrap();
        assert_eq!(trace.total(), 3);
        assert!(m.trace().is_none());
    }

    #[test]
    fn run_until_stops_on_predicate() {
        let mut m: Machine<()> = Machine::new(());
        let ma = m.add_manager(ExclusivePool::new("A", 1));
        let mb = m.add_manager(ExclusivePool::new("B", 1));
        let spec = pipeline_spec(ma, mb);
        let op = m.add_osm(&spec, InertBehavior);
        let ran = m
            .run_until(100, |m| m.osm(op).state_name() == "B")
            .unwrap();
        assert_eq!(ran, 2);
        assert_eq!(m.osm(op).state_name(), "B");
    }

    #[test]
    fn watchdog_reports_wedged_stall_with_diagnosis() {
        use crate::error::StallKind;
        let mut m: Machine<()> = Machine::new(());
        let ma = m.add_manager(ExclusivePool::new("A", 1));
        // Capacity-0 pool: allocation can never succeed and there is no
        // owner, so the wait-for-graph deadlock detector stays silent.
        let broken = m.add_manager(ExclusivePool::new("broken", 0));
        let spec = {
            let mut b = SpecBuilder::new("op");
            let i = b.state("I");
            let a = b.state("A");
            let z = b.state("Z");
            b.initial(i);
            b.edge(i, a).allocate(ma, IdentExpr::Const(0));
            b.edge(a, z).allocate(broken, IdentExpr::ANY);
            b.build().unwrap()
        };
        let op = m.add_osm(&spec, InertBehavior);
        m.set_stall_limit(Some(5));
        let err = m.run(100).unwrap_err();
        match err {
            ModelError::Stalled(report) => {
                assert_eq!(report.kind, StallKind::Wedged);
                assert!(report.stalled_for >= 5);
                assert_eq!(report.blocked.len(), 1);
                let b = &report.blocked[0];
                assert_eq!(b.osm, op);
                assert_eq!(b.state, "A");
                assert_eq!(b.held.len(), 1);
                assert_eq!(b.waiting_on.len(), 1);
                assert_eq!(b.waiting_on[0].manager_name, "broken");
                assert!(b.waiting_on[0].primitive.starts_with("alloc"));
            }
            other => panic!("expected stall, got {other:?}"),
        }
    }

    #[test]
    fn watchdog_reports_livelock_when_nothing_completes() {
        use crate::error::StallKind;
        let mut m: Machine<()> = Machine::new(());
        // Condition-free A<->B bounce: transitions every cycle, but the OSM
        // never returns to its initial state.
        let spec = {
            let mut b = SpecBuilder::new("bounce");
            let i = b.state("I");
            let a = b.state("A");
            let bb = b.state("B");
            b.initial(i);
            b.edge(i, a);
            b.edge(a, bb);
            b.edge(bb, a);
            b.build().unwrap()
        };
        m.add_osm(&spec, InertBehavior);
        m.set_stall_limit(Some(6));
        let err = m.run(100).unwrap_err();
        match err {
            ModelError::Stalled(report) => {
                assert_eq!(report.kind, StallKind::Livelock);
                // The bouncing OSM is in flight, but each probed edge is
                // momentarily satisfiable, so it reports no wait causes.
                assert_eq!(report.blocked.len(), 1);
                assert!(report.blocked[0].waiting_on.is_empty());
            }
            other => panic!("expected livelock, got {other:?}"),
        }
    }

    #[test]
    fn watchdog_reports_starvation_of_pinned_osm() {
        use crate::error::StallKind;
        let mut m: Machine<()> = Machine::new(());
        let ma = m.add_manager(ExclusivePool::new("A", 1));
        let mb = m.add_manager(ExclusivePool::new("B", 1));
        let hold_spec = {
            let mut b = SpecBuilder::new("hold");
            let i = b.state("I");
            let h = b.state("H");
            b.initial(i);
            b.edge(i, h).allocate(ma, IdentExpr::Const(0));
            b.edge(h, i).release(ma, IdentExpr::AnyHeld);
            b.build().unwrap()
        };
        let loop_spec = {
            let mut b = SpecBuilder::new("loop");
            let i = b.state("I");
            let l = b.state("L");
            b.initial(i);
            b.edge(i, l).allocate(mb, IdentExpr::Const(0));
            b.edge(l, i).release(mb, IdentExpr::AnyHeld);
            b.build().unwrap()
        };
        let pinned = m.add_osm(&hold_spec, InertBehavior);
        m.add_osm(&loop_spec, InertBehavior);
        m.set_stall_limit(Some(8));
        m.step().unwrap(); // both enter their stage
        // Pin the holder: its release is refused from now on (a completion
        // signal that never arrives), while the looper keeps retiring.
        m.managers
            .downcast_mut::<ExclusivePool>(ma)
            .block_release(0, true);
        let err = m.run(100).unwrap_err();
        match err {
            ModelError::Stalled(report) => {
                assert_eq!(report.kind, StallKind::Starvation);
                assert_eq!(report.blocked.len(), 1);
                let b = &report.blocked[0];
                assert_eq!(b.osm, pinned);
                assert_eq!(b.state, "H");
                assert_eq!(b.waiting_on.len(), 1);
                assert_eq!(b.waiting_on[0].manager_name, "A");
                assert!(b.waiting_on[0].primitive.starts_with("rel"));
                assert_eq!(b.waiting_on[0].owner, None); // own token, filtered
            }
            other => panic!("expected starvation, got {other:?}"),
        }
    }

    #[test]
    fn watchdog_silent_on_healthy_and_idle_machines() {
        let mut m: Machine<()> = Machine::new(());
        let ma = m.add_manager(ExclusivePool::new("A", 1));
        let mb = m.add_manager(ExclusivePool::new("B", 1));
        let spec = pipeline_spec(ma, mb);
        m.add_osm(&spec, InertBehavior);
        m.set_stall_limit(Some(4));
        // The operation loops I->A->B->I forever: completions keep coming.
        m.run(50).unwrap();
        // An all-idle machine (no OSMs at all) never trips the watchdog.
        let mut empty: Machine<()> = Machine::new(());
        empty.set_stall_limit(Some(1));
        empty.run(10).unwrap();
    }

    #[test]
    fn checkpoint_restore_replays_identically() {
        let build = |m: &mut Machine<()>| {
            let ma = m.add_manager(ExclusivePool::new("A", 1));
            let mb = m.add_manager(ExclusivePool::new("B", 1));
            let spec = pipeline_spec(ma, mb);
            let o0 = m.add_osm(&spec, InertBehavior);
            let o1 = m.add_osm(&spec, InertBehavior);
            (o0, o1)
        };
        let mut m: Machine<()> = Machine::new(());
        let (o0, o1) = build(&mut m);
        m.run(2).unwrap();
        let ckpt = m.checkpoint().unwrap();
        assert!(unseal(&ckpt, fnv1a).is_some(), "checkpoints are sealed");
        let observe = |m: &mut Machine<()>| {
            let mut log = Vec::new();
            for _ in 0..4 {
                m.step().unwrap();
                log.push((
                    m.osm(o0).state_name().to_owned(),
                    m.osm(o1).state_name().to_owned(),
                    m.stats.transitions,
                ));
            }
            log
        };
        let first = observe(&mut m);
        m.restore(&ckpt).unwrap();
        assert_eq!(m.cycle(), 2);
        let second = observe(&mut m);
        assert_eq!(first, second);
        // A checkpoint survives multiple restores.
        m.restore(&ckpt).unwrap();
        assert_eq!(observe(&mut m), first);
    }

    #[test]
    fn restore_rejects_wrong_shape() {
        let mut a: Machine<()> = Machine::new(());
        let ma = a.add_manager(ExclusivePool::new("A", 1));
        let mb = a.add_manager(ExclusivePool::new("B", 1));
        let spec = pipeline_spec(ma, mb);
        a.add_osm(&spec, InertBehavior);
        let ckpt = a.checkpoint().unwrap();

        let mut b: Machine<()> = Machine::new(());
        let ba = b.add_manager(ExclusivePool::new("A", 1));
        let bb = b.add_manager(ExclusivePool::new("B", 1));
        let spec2 = pipeline_spec(ba, bb);
        b.add_osm(&spec2, InertBehavior);
        b.add_osm(&spec2, InertBehavior);
        match b.restore(&ckpt) {
            Err(ModelError::SnapshotMismatch { .. }) => {}
            other => panic!("expected mismatch, got {other:?}"),
        }
    }

    /// Reads past a checkpoint payload's magic, version, counters, the
    /// empty named-counter list and shared section; returns the OSM count
    /// that follows.
    fn skip_to_osm_records(r: &mut ByteReader<'_>) -> u32 {
        r.take_bytes().unwrap();
        r.take_u32().unwrap();
        for _ in 0..10 {
            r.take_u64().unwrap();
        }
        r.take_vec(|r| Some((r.take_str()?, r.take_u64()?)))
            .unwrap();
        r.take_bytes().unwrap();
        r.take_u32().unwrap()
    }

    /// Appends a [`crate::persist::fnv1a`] seal to `payload`.
    fn reseal(mut payload: Vec<u8>) -> Vec<u8> {
        let seal = crate::persist::fnv1a(&payload);
        payload.extend(seal.to_le_bytes());
        payload
    }

    /// Re-seals `ckpt` with the sections of managers `from..` replaced by
    /// `sections`: the payload is copied up to the manager sections, then
    /// rewritten, then sealed again.
    fn with_manager_sections(ckpt: &[u8], from: usize, sections: &[Vec<u8>]) -> Vec<u8> {
        let payload = unseal(ckpt, fnv1a).expect("sealed");
        let mut r = ByteReader::new(payload);
        for _ in 0..skip_to_osm_records(&mut r) {
            r.take_u32().unwrap();
            for _ in 0..3 {
                r.take_u64().unwrap();
            }
            r.take_vec(|r| Some((r.take_u64()?, r.take_u32()?, r.take_u64()?)))
                .unwrap();
            r.take_vec(ByteReader::take_u64).unwrap();
            if r.take_u8().unwrap() == 1 {
                r.take_bytes().unwrap();
            }
        }
        let managers = r.take_u32().unwrap() as usize;
        let mut out = payload[..payload.len() - r.remaining() - 4].to_vec();
        let mut w = ByteWriter::new();
        w.put_u32(managers as u32);
        for i in 0..managers {
            let kept = r.take_bytes().unwrap();
            w.put_bytes(if i < from { kept } else { &sections[i - from] });
        }
        out.extend(w.into_bytes());
        reseal(out)
    }

    /// An `ExclusivePool` section: `slots` free tokens, `blocked` flags.
    fn exclusive_section(slots: usize, blocked: usize) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u8(b'X');
        w.put_seq(0..slots, |w, _| w.put_u8(0));
        w.put_seq(0..blocked, |w, _| w.put_bool(false));
        w.into_bytes()
    }

    /// A `RegScoreboard` section: `values` zero registers, `writers` free.
    fn scoreboard_section(values: usize, writers: usize) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u8(b'S');
        w.put_seq(0..values, |w, _| w.put_u64(0));
        w.put_seq(0..writers, |w, _| w.put_u8(0));
        w.into_bytes()
    }

    #[test]
    fn restore_refuses_short_pool_vectors_without_panicking() {
        let build = || {
            let mut m: Machine<()> = Machine::new(());
            let a = m.add_manager(ExclusivePool::new("A", 2));
            let regs = m.add_manager(RegScoreboard::new("regs", 4));
            (m, a, regs)
        };
        let (m, ..) = build();
        let ckpt = m.checkpoint().unwrap();
        // The well-formed sections restore; each short vector is refused.
        let good = with_manager_sections(
            &ckpt,
            0,
            &[exclusive_section(2, 2), scoreboard_section(4, 4)],
        );
        build().0.restore(&good).unwrap();
        for bad in [
            [exclusive_section(2, 1), scoreboard_section(4, 4)],
            [exclusive_section(2, 2), scoreboard_section(4, 0)],
        ] {
            let (mut m, a, regs) = build();
            match m.restore(&with_manager_sections(&ckpt, 0, &bad)) {
                Err(ModelError::SnapshotMismatch { .. }) => {}
                other => panic!("expected mismatch, got {other:?}"),
            }
            m.managers
                .downcast_mut::<ExclusivePool>(a)
                .block_release(1, true);
            assert!(!m.managers.downcast::<RegScoreboard>(regs).is_busy(0));
        }
    }

    #[test]
    fn rejected_restore_leaves_the_machine_exactly_as_it_was() {
        let build = || {
            let mut m: Machine<()> = Machine::new(());
            let a = m.add_manager(ExclusivePool::new("A", 1));
            m.add_manager(RegScoreboard::new("regs", 4));
            let mut b = SpecBuilder::new("hold");
            let i = b.state("I");
            let h = b.state("H");
            b.initial(i);
            b.edge(i, h).allocate(a, IdentExpr::Const(0));
            b.edge(h, i).release(a, IdentExpr::AnyHeld);
            let spec = b.build().unwrap();
            m.add_osm(&spec, InertBehavior);
            m.managers
                .downcast_mut::<ExclusivePool>(a)
                .block_release(0, true);
            (m, a)
        };
        let (mut source, a) = build();
        source.run(3).unwrap();
        assert_eq!(
            source.managers.downcast::<ExclusivePool>(a).owner(0),
            Some(OsmId(0))
        );
        let good = source.checkpoint().unwrap();
        // The scoreboard section comes last, after pool A's was accepted.
        let bad = with_manager_sections(&good, 1, &[scoreboard_section(3, 3)]);

        let (mut fresh, _) = build();
        let fingerprint = fresh.state_fingerprint();
        let before = fresh.checkpoint().unwrap();
        assert!(matches!(
            fresh.restore(&bad),
            Err(ModelError::SnapshotMismatch { .. })
        ));
        assert_eq!(fresh.state_fingerprint(), fingerprint);
        assert!(
            fresh.audit_tokens().is_empty(),
            "{:?}",
            fresh.audit_tokens()
        );
        assert_eq!(fresh.checkpoint().unwrap(), before);
        // The machine is still usable, and still accepts the good bytes.
        fresh.restore(&good).unwrap();
        assert_eq!(fresh.state_fingerprint(), source.state_fingerprint());
        assert!(fresh.audit_tokens().is_empty());
    }

    #[test]
    fn restore_refuses_named_counters() {
        let mut m: Machine<()> = Machine::new(());
        let ma = m.add_manager(ExclusivePool::new("A", 1));
        let mb = m.add_manager(ExclusivePool::new("B", 1));
        m.add_osm(&pipeline_spec(ma, mb), InertBehavior);
        m.run(2).unwrap();
        let good = m.checkpoint().unwrap();
        // Splice one named counter into the empty list after the counters.
        let payload = unseal(&good, fnv1a).expect("sealed");
        let mut r = ByteReader::new(payload);
        r.take_bytes().unwrap();
        r.take_u32().unwrap();
        for _ in 0..10 {
            r.take_u64().unwrap();
        }
        let at = r.position();
        assert_eq!(r.take_u32(), Some(0), "the list is written empty");
        let mut w = ByteWriter::new();
        w.put_raw(&payload[..at]);
        w.put_seq([("retired", 5u64)], |w, (name, value)| {
            w.put_str(name);
            w.put_u64(value);
        });
        w.put_raw(&payload[at + 4..]);
        let bad = reseal(w.into_bytes());

        let fingerprint = m.state_fingerprint();
        match m.restore(&bad) {
            Err(ModelError::SnapshotMismatch { what }) => assert!(what.contains("named")),
            other => panic!("expected mismatch, got {other:?}"),
        }
        assert_eq!(m.state_fingerprint(), fingerprint);
        assert_eq!(m.checkpoint().unwrap(), good);
    }

    #[test]
    fn restore_refuses_an_osm_state_its_spec_does_not_have() {
        let build = || {
            let mut m: Machine<()> = Machine::new(());
            let ma = m.add_manager(ExclusivePool::new("A", 1));
            let mb = m.add_manager(ExclusivePool::new("B", 1));
            m.add_osm(&pipeline_spec(ma, mb), InertBehavior);
            m
        };
        let ckpt = build().checkpoint().unwrap();
        // The first OSM record opens with its state index.
        let mut payload = unseal(&ckpt, fnv1a).unwrap().to_vec();
        let mut r = ByteReader::new(&payload);
        assert_eq!(skip_to_osm_records(&mut r), 1);
        let at = payload.len() - r.remaining();
        payload[at..at + 4].copy_from_slice(&7u32.to_le_bytes());

        let mut m = build();
        assert!(matches!(
            m.restore(&reseal(payload)),
            Err(ModelError::SnapshotMismatch { .. })
        ));
        assert_eq!(m.osm(OsmId(0)).state_name(), "I");
        m.run(3).unwrap();
    }

    #[test]
    fn checkpoint_fails_on_unsnapshotable_manager() {
        struct Opaque;
        impl TokenManager for Opaque {
            fn name(&self) -> &str {
                "opaque"
            }
            fn prepare_allocate(&mut self, _: OsmId, _: TokenIdent) -> Option<crate::token::Token> {
                None
            }
            fn inquire(&self, _: OsmId, _: TokenIdent) -> bool {
                false
            }
            fn prepare_release(&mut self, _: OsmId, _: crate::token::Token) -> bool {
                false
            }
            fn commit_allocate(&mut self, _: OsmId, _: crate::token::Token) {}
            fn abort_allocate(&mut self, _: OsmId, _: crate::token::Token) {}
            fn commit_release(&mut self, _: OsmId, _: crate::token::Token) {}
            fn abort_release(&mut self, _: OsmId, _: crate::token::Token) {}
            fn discard(&mut self, _: OsmId, _: crate::token::Token) {}
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
                self
            }
        }
        let mut m: Machine<()> = Machine::new(());
        m.add_manager(Opaque);
        match m.checkpoint() {
            Err(ModelError::SnapshotUnsupported { manager }) => {
                assert!(manager.contains("opaque"));
            }
            other => panic!("expected unsupported, got {other:?}"),
        }
    }

    /// Builds the two-OSM cyclic-dependency machine used by the deadlock
    /// tests above.
    fn deadlock_machine() -> Machine<()> {
        let mut m: Machine<()> = Machine::new(());
        let ma = m.add_manager(ExclusivePool::new("A", 1));
        let mb = m.add_manager(ExclusivePool::new("B", 1));
        let spec_ab = {
            let mut b = SpecBuilder::new("ab");
            let i = b.state("I");
            let a = b.state("A");
            let z = b.state("Z");
            b.initial(i);
            b.edge(i, a).allocate(ma, IdentExpr::Const(0));
            b.edge(a, z).allocate(mb, IdentExpr::Const(0));
            b.build().unwrap()
        };
        let spec_ba = {
            let mut b = SpecBuilder::new("ba");
            let i = b.state("I");
            let a = b.state("B");
            let z = b.state("Z");
            b.initial(i);
            b.edge(i, a).allocate(mb, IdentExpr::Const(0));
            b.edge(a, z).allocate(ma, IdentExpr::Const(0));
            b.build().unwrap()
        };
        m.add_osm(&spec_ab, InertBehavior);
        m.add_osm(&spec_ba, InertBehavior);
        m
    }

    #[test]
    fn scratch_list_survives_deadlock_return() {
        // Regression: the reference scheduler used to drop its taken ranking
        // buffer on the early deadlock return, so every later step
        // re-allocated it from scratch.
        let mut m = deadlock_machine();
        m.set_scheduler_mode(SchedulerMode::Seed);
        m.step().unwrap();
        assert!(matches!(m.step(), Err(ModelError::Deadlock { .. })));
        assert!(
            m.scratch.list.capacity() >= m.osm_count(),
            "ranking buffer was dropped on the deadlock return"
        );
        assert!(m.scratch.list.is_empty());
    }

    /// Two-state loop with condition-free edges: every OSM transitions every
    /// control step.
    fn free_loop_spec() -> Arc<StateMachineSpec> {
        let mut b = SpecBuilder::new("free");
        let i = b.state("I");
        let a = b.state("A");
        b.initial(i);
        b.edge(i, a);
        b.edge(a, i);
        b.build().unwrap()
    }

    #[test]
    fn restarts_count_rescans_including_first_position() {
        // Two always-moving OSMs under Restart: each step, the transition of
        // the first-served OSM (position 0 — previously never counted)
        // leaves one OSM unserved and rescans, the second empties the list
        // and does not. Exactly one rescan per step, in both modes.
        for mode in [SchedulerMode::Fast, SchedulerMode::Seed] {
            let mut m: Machine<()> = Machine::new(());
            let spec = free_loop_spec();
            m.add_osm(&spec, InertBehavior);
            m.add_osm(&spec, InertBehavior);
            m.set_scheduler_mode(mode);
            m.enable_metrics();
            m.run(10).unwrap();
            assert_eq!(m.stats.restarts, 10, "{mode:?}");
            let report = m.metrics_report().unwrap();
            assert_eq!(report.restarts, 10, "{mode:?} observer disagrees");
        }
        // NoRestart performs no rescans at all.
        let mut m: Machine<()> = Machine::new(());
        let spec = free_loop_spec();
        m.add_osm(&spec, InertBehavior);
        m.add_osm(&spec, InertBehavior);
        m.set_restart_policy(RestartPolicy::NoRestart);
        m.run(10).unwrap();
        assert_eq!(m.stats.restarts, 0);
    }

    #[test]
    fn fast_and_seed_schedulers_are_cycle_exact() {
        let run = |mode: SchedulerMode| {
            let mut m: Machine<()> = Machine::new(());
            let ma = m.add_manager(ExclusivePool::new("A", 1));
            let mb = m.add_manager(ExclusivePool::new("B", 1));
            let spec = pipeline_spec(ma, mb);
            for _ in 0..4 {
                m.add_osm(&spec, InertBehavior);
            }
            m.set_scheduler_mode(mode);
            m.enable_trace();
            m.run(60).unwrap();
            let digest = m.take_trace().unwrap().digest();
            (
                digest,
                m.stats.transitions,
                m.stats.restarts,
                m.stats.idle_steps,
            )
        };
        assert_eq!(run(SchedulerMode::Fast), run(SchedulerMode::Seed));
    }

    #[test]
    fn scheduler_mode_can_switch_mid_run() {
        let reference = {
            let mut m: Machine<()> = Machine::new(());
            let ma = m.add_manager(ExclusivePool::new("A", 1));
            let mb = m.add_manager(ExclusivePool::new("B", 1));
            let spec = pipeline_spec(ma, mb);
            for _ in 0..3 {
                m.add_osm(&spec, InertBehavior);
            }
            m.set_scheduler_mode(SchedulerMode::Seed);
            m.enable_trace();
            m.run(30).unwrap();
            m.take_trace().unwrap().digest()
        };
        let mut m: Machine<()> = Machine::new(());
        let ma = m.add_manager(ExclusivePool::new("A", 1));
        let mb = m.add_manager(ExclusivePool::new("B", 1));
        let spec = pipeline_spec(ma, mb);
        for _ in 0..3 {
            m.add_osm(&spec, InertBehavior);
        }
        m.enable_trace();
        m.run(10).unwrap();
        m.set_scheduler_mode(SchedulerMode::Seed);
        m.run(10).unwrap();
        m.set_scheduler_mode(SchedulerMode::Fast);
        m.run(10).unwrap();
        assert_eq!(m.take_trace().unwrap().digest(), reference);
    }

    #[test]
    fn fast_scheduler_wakes_on_manager_clock_refill() {
        use crate::pools::CountingPool;
        // A per-cycle bandwidth pool wakes blocked OSMs purely through its
        // clock hook (the dirty-returning `TokenManager::clock` path): with
        // one unit per cycle, the junior OSM is denied at cycle 0 and must
        // be re-evaluated — not skipped — once the pool refills.
        let mut m: Machine<()> = Machine::new(());
        let bw = m.add_manager(CountingPool::per_cycle("bw", 1));
        let spec = {
            let mut b = SpecBuilder::new("op");
            let i = b.state("I");
            let a = b.state("A");
            b.initial(i);
            b.edge(i, a).allocate(bw, IdentExpr::Const(0));
            b.build().unwrap()
        };
        let o0 = m.add_osm(&spec, InertBehavior);
        let o1 = m.add_osm(&spec, InertBehavior);
        m.step().unwrap();
        assert_eq!(m.osm(o0).state_name(), "A");
        assert_eq!(m.osm(o1).state_name(), "I");
        m.step().unwrap();
        assert_eq!(m.osm(o1).state_name(), "A", "refill did not wake the OSM");
    }

    #[test]
    fn fast_scheduler_wakes_on_external_manager_mutation() {
        // Mutating a manager from outside the control step (here through
        // `downcast_mut`) must invalidate the skip records of OSMs blocked
        // on it.
        let mut m: Machine<()> = Machine::new(());
        let ma = m.add_manager(ExclusivePool::new("A", 1));
        let spec = {
            let mut b = SpecBuilder::new("hold");
            let i = b.state("I");
            let h = b.state("H");
            b.initial(i);
            b.edge(i, h).allocate(ma, IdentExpr::Const(0));
            b.edge(h, i).release(ma, IdentExpr::AnyHeld);
            b.build().unwrap()
        };
        let op = m.add_osm(&spec, InertBehavior);
        m.step().unwrap();
        assert_eq!(m.osm(op).state_name(), "H");
        m.managers
            .downcast_mut::<ExclusivePool>(ma)
            .block_release(0, true);
        m.run(5).unwrap(); // blocked — and skipped after the first denial
        assert_eq!(m.osm(op).state_name(), "H");
        assert!(m.stats.idle_steps >= 5);
        m.managers
            .downcast_mut::<ExclusivePool>(ma)
            .block_release(0, false);
        m.step().unwrap();
        assert_eq!(m.osm(op).state_name(), "I", "unblock did not wake the OSM");
    }

    /// Per step: the state fingerprint and the state names of OSMs 0 and 1.
    type StepLog = Vec<(u64, String, String)>;

    /// Runs `steps` cycles of `build()` under `mode` (default `Restart`
    /// policy) with a digest trace, on the tracked director instantiation
    /// (stall attribution on) when `tracked`. Returns the step log, the
    /// trace digest and the edge evaluations that failed or were vetoed.
    fn run_logged<S: HardwareLayer + 'static>(
        build: &dyn Fn() -> Machine<S>,
        mode: SchedulerMode,
        tracked: bool,
        steps: u64,
    ) -> (StepLog, u64, u64) {
        let mut m = build();
        m.set_scheduler_mode(mode);
        m.enable_trace_with(Trace::digest_only());
        if tracked {
            m.enable_stall_attribution();
        }
        let mut log = Vec::new();
        for _ in 0..steps {
            m.step().unwrap();
            log.push((
                m.state_fingerprint(),
                m.osm(OsmId(0)).state_name().to_owned(),
                m.osm(OsmId(1)).state_name().to_owned(),
            ));
        }
        let effort = m.stats.condition_failures + m.stats.vetoed_edges;
        (log, m.trace_digest().expect("trace enabled"), effort)
    }

    /// Checks, tracked and untracked, that the fast scheduler matches the
    /// seed one step for step, that the senior OSM 0 leaves `wait` in the
    /// very cycle (index `cycle`) the junior OSM 1 reaches `woken`, and that
    /// the fast path skipped evaluations on the way.
    fn assert_senior_wakes_in_step<S: HardwareLayer + 'static>(
        build: &dyn Fn() -> Machine<S>,
        wait: &str,
        woken: &str,
        cycle: usize,
    ) {
        for tracked in [false, true] {
            let (fast, fast_digest, fast_evals) =
                run_logged(build, SchedulerMode::Fast, tracked, 12);
            let (seed, seed_digest, seed_evals) =
                run_logged(build, SchedulerMode::Seed, tracked, 12);
            assert_eq!(fast, seed, "tracked={tracked}");
            assert_eq!(fast_digest, seed_digest, "tracked={tracked}");
            assert!(fast_evals < seed_evals, "fast path never skipped");
            assert_eq!(
                (fast[cycle - 1].1.as_str(), fast[cycle].2.as_str()),
                (wait, woken)
            );
            assert_ne!(
                fast[cycle].1, wait,
                "senior did not move in the junior's cycle"
            );
        }
    }

    #[test]
    fn restart_wakes_senior_denied_earlier_in_the_step() {
        // The senior waits for the pool unit the junior holds for three
        // cycles. From its second denial on it is skipped on a proof that
        // rests on the pool; the junior's release later in the same step
        // moves the pool's epoch, and the senior must take the unit at
        // once, as Fig. 3's rescan would.
        let build = || {
            let mut m: Machine<()> = Machine::new(());
            let pool = m.add_manager(ExclusivePool::new("P", 1));
            let senior = {
                let mut b = SpecBuilder::new("senior");
                let i = b.state("I");
                let w = b.state("W");
                let d = b.state("D");
                b.initial(i);
                b.edge(i, w);
                b.edge(w, d).allocate(pool, IdentExpr::Const(0));
                b.edge(d, i).release(pool, IdentExpr::AnyHeld);
                b.build().unwrap()
            };
            let junior = {
                let mut b = SpecBuilder::new("junior");
                let i = b.state("I");
                let h1 = b.state("H1");
                let h2 = b.state("H2");
                let h3 = b.state("H3");
                b.initial(i);
                b.edge(i, h1).allocate(pool, IdentExpr::Const(0));
                b.edge(h1, h2);
                b.edge(h2, h3);
                b.edge(h3, i).release(pool, IdentExpr::AnyHeld);
                b.build().unwrap()
            };
            m.add_osm(&senior, InertBehavior);
            m.add_osm(&junior, InertBehavior);
            m
        };
        assert_senior_wakes_in_step(&build, "W", "I", 3);
    }

    #[test]
    fn vetoed_edges_counts_the_clear_bits_the_scan_passes() {
        // `op` waits in `W`, whose out-edges in priority order are `high`,
        // `mid` (which needs the pool) and `low`. Its mask enables only
        // `mid`: a blocked scan passes both vetoes, a commit of `mid` only
        // the one above it. Mask bits past the out-degree count for nothing,
        // set or clear.
        struct EnableIn(StateId, u64);
        impl Behavior<()> for EnableIn {
            fn enabled_edges(
                &self,
                _: &StateMachineSpec,
                view: &crate::osm::OsmView<'_>,
                _: &(),
            ) -> u64 {
                if view.state == self.0 {
                    self.1
                } else {
                    u64::MAX
                }
            }
            fn on_transition(&mut self, _: &Edge, _: &mut TransitionCtx<'_, ()>) {}
        }
        for mask in [0b010, !0b101] {
            for mode in [SchedulerMode::Seed, SchedulerMode::Fast] {
                let mut m: Machine<()> = Machine::new(());
                m.set_scheduler_mode(mode);
                let pool = m.add_manager(ExclusivePool::new("P", 1));
                // Holds the pool for cycles 1 and 2, releasing it in 3.
                let holder = {
                    let mut b = SpecBuilder::new("holder");
                    let i = b.state("I");
                    let h1 = b.state("H1");
                    let h2 = b.state("H2");
                    b.initial(i);
                    b.edge(i, h1).allocate(pool, IdentExpr::Const(0));
                    b.edge(h1, h2);
                    b.edge(h2, i).release(pool, IdentExpr::AnyHeld);
                    b.build().unwrap()
                };
                let op = {
                    let mut b = SpecBuilder::new("op");
                    let i = b.state("I");
                    let w = b.state("W");
                    let d = b.state("D");
                    b.initial(i);
                    b.edge(i, w);
                    b.edge(w, i).named("low");
                    b.edge(w, d)
                        .named("mid")
                        .priority(1)
                        .allocate(pool, IdentExpr::Const(0));
                    b.edge(w, i).named("high").priority(2);
                    b.edge(d, i).release(pool, IdentExpr::AnyHeld);
                    b.build().unwrap()
                };
                let w = op.find_state("W").unwrap();
                m.add_osm(&holder, InertBehavior);
                let x = m.add_osm(&op, EnableIn(w, mask));
                let mut step = |expect_state: &str| {
                    let before = m.stats.vetoed_edges;
                    m.step().unwrap();
                    assert_eq!(m.osm(x).state_name(), expect_state, "{mode:?} {mask:#x}");
                    m.stats.vetoed_edges - before
                };
                assert_eq!(step("W"), 0, "{mode:?} {mask:#x}: entering W");
                assert_eq!(step("W"), 2, "{mode:?} {mask:#x}: blocked in W");
                assert_eq!(step("D"), 1, "{mode:?} {mask:#x}: `mid` commits");
            }
        }
    }

    #[test]
    fn restart_wakes_senior_whose_veto_a_junior_lifted() {
        // The senior's only way on is vetoed until a shared flag is set,
        // which the junior's `open` transition does. No manager epoch moves,
        // so only the vetoed edge in the senior's record can wake it.
        #[derive(Default)]
        struct Flag {
            open: bool,
        }
        impl HardwareLayer for Flag {}
        struct Gated;
        impl Behavior<Flag> for Gated {
            fn enabled_edges(
                &self,
                spec: &StateMachineSpec,
                view: &crate::osm::OsmView<'_>,
                shared: &Flag,
            ) -> u64 {
                spec.edge_mask(view.state, |edge| edge.name != "go" || shared.open)
            }
            fn on_transition(&mut self, _: &Edge, _: &mut TransitionCtx<'_, Flag>) {}
        }
        struct Opener;
        impl Behavior<Flag> for Opener {
            fn on_transition(&mut self, edge: &Edge, ctx: &mut TransitionCtx<'_, Flag>) {
                if edge.name == "open" {
                    ctx.shared.open = true;
                }
            }
        }
        let build = || {
            let mut m: Machine<Flag> = Machine::new(Flag::default());
            let gated = {
                let mut b = SpecBuilder::new("gated");
                let i = b.state("I");
                let w = b.state("W");
                let d = b.state("D");
                b.initial(i);
                b.edge(i, w);
                b.edge(w, d).named("go");
                b.edge(d, i);
                b.build().unwrap()
            };
            let opener = {
                let mut b = SpecBuilder::new("opener");
                let i = b.state("I");
                let j1 = b.state("J1");
                let j2 = b.state("J2");
                b.initial(i);
                b.edge(i, j1);
                b.edge(j1, j2);
                b.edge(j2, i).named("open");
                b.build().unwrap()
            };
            m.add_osm(&gated, Gated);
            m.add_osm(&opener, Opener);
            m
        };
        assert_senior_wakes_in_step(&build, "W", "I", 2);
    }

    /// The costliest generated ADL machine of the contended benchmark suite
    /// (`fuzz_e1e861ebac7dd8c8`, built here by hand), with 122 OSMs
    /// round-robin over its two classes. Every `op1` wedges in `S1`; each
    /// cycle all 61 `op0`s move, each move a Fig. 3 restart.
    fn contended_machine() -> Machine<()> {
        use crate::pools::CountingPool;
        let mut m: Machine<()> = Machine::new(());
        let m0 = m.add_manager(CountingPool::per_cycle("m0", 2));
        let m1 = m.add_manager(CountingPool::per_cycle("m1", 1));
        let m2 = m.add_manager(ExclusivePool::new("m2", 1));
        let op0 = {
            let mut b = SpecBuilder::new("op0");
            let s0 = b.state("S0");
            let s1 = b.state("S1");
            b.initial(s0);
            b.edge(s0, s1)
                .named("e0")
                .inquire(m2, IdentExpr::Const(0))
                .inquire(m0, IdentExpr::ANY);
            b.edge(s1, s0).named("e1");
            b.build().unwrap()
        };
        let op1 = {
            let mut b = SpecBuilder::new("op1");
            let s0 = b.state("S0");
            let s1 = b.state("S1");
            let s2 = b.state("S2");
            b.initial(s0);
            b.edge(s0, s1).named("e0");
            b.edge(s1, s2)
                .named("e1")
                .allocate(m1, IdentExpr::ANY)
                .release(m1, IdentExpr::AnyHeld);
            b.edge(s2, s0).named("e2");
            b.edge(s2, s0).named("b2").priority(-1);
            b.build().unwrap()
        };
        for k in 0..122 {
            m.add_osm(if k % 2 == 0 { &op0 } else { &op1 }, InertBehavior);
        }
        m
    }

    #[test]
    fn contended_machine_stays_on_the_fast_path() {
        // The resumed scan still counts the skip proofs Fig. 3's rescans
        // would have repeated; without them this machine's adaptation
        // window sees more evaluations than skips and switches proofs off.
        let mut m = contended_machine();
        m.run(1_000).unwrap();
        assert_eq!(m.stats.transitions, 61_000 + 61);
        assert_eq!(m.scratch.adapt_cooldown, 0, "skip proofs switched off");
    }

    #[test]
    fn dense_machine_switches_skip_proofs_off_on_its_ready_list() {
        use crate::pools::CountingPool;
        // One dispatch per cycle through a per-cycle pool: the refill at
        // every clock invalidates each waiter's record, so every waiter is
        // evaluated every cycle and the skip machinery cannot pay for itself.
        let mut m: Machine<()> = Machine::new(());
        let bw = m.add_manager(CountingPool::per_cycle("bw", 1));
        let spec = {
            let mut b = SpecBuilder::new("op");
            let i = b.state("I");
            let a = b.state("A");
            b.initial(i);
            b.edge(i, a)
                .allocate(bw, IdentExpr::ANY)
                .discard(bw, IdentExpr::AnyHeld);
            b.edge(a, i);
            b.build().unwrap()
        };
        for _ in 0..16 {
            m.add_osm(&spec, InertBehavior);
        }
        // The unproductive window switches proofs off but keeps the ready
        // list: the schedule is never invalidated, across the boundary or
        // in the proof-free steps after it.
        m.step().unwrap();
        for _ in 1..1_000 {
            assert!(m.scratch.sched_valid, "cycle {}", m.cycle());
            m.step().unwrap();
        }
        assert!(m.scratch.sched_valid, "schedule invalidated");
        assert!(
            m.scratch.adapt_cooldown > 0,
            "dense machine kept its skip proofs on"
        );
    }

    /// Shared state of [`dense_restart_machine`]: commits so far.
    #[derive(Default)]
    struct Commits(u64);
    impl HardwareLayer for Commits {}

    /// Counts every commit, and vetoes `issue` for one OSM id in five, the
    /// one picked rotating with each commit.
    struct RotatingVeto;
    impl Behavior<Commits> for RotatingVeto {
        fn enabled_edges(
            &self,
            spec: &StateMachineSpec,
            view: &crate::osm::OsmView<'_>,
            shared: &Commits,
        ) -> u64 {
            let vetoed = (u64::from(view.id.0) + shared.0).is_multiple_of(5);
            spec.edge_mask(view.state, |edge| edge.name != "issue" || !vetoed)
        }
        fn on_transition(&mut self, _: &Edge, ctx: &mut TransitionCtx<'_, Commits>) {
            ctx.shared.0 += 1;
        }
    }

    /// A dense `Restart` machine: 48 OSMs cycle `I -> A -> B -> I`, and a
    /// per-cycle pool lets 15 of them leave `A` each cycle. So 45 OSMs move
    /// every cycle, and the 3 left waiting in `A` are served again after
    /// every later commit of the step. `scheduler_smoke` runs the same
    /// machine, with inert behaviors, as ADL source.
    fn dense_restart_machine(vetoes: bool) -> Machine<Commits> {
        use crate::pools::CountingPool;
        let mut m: Machine<Commits> = Machine::new(Commits::default());
        let bw = m.add_manager(CountingPool::per_cycle("bw", 15));
        let spec = {
            let mut b = SpecBuilder::new("op");
            let i = b.state("I");
            let a = b.state("A");
            let done = b.state("B");
            b.initial(i);
            b.edge(i, a).named("go");
            b.edge(a, done)
                .named("issue")
                .allocate(bw, IdentExpr::ANY)
                .discard(bw, IdentExpr::AnyHeld);
            b.edge(done, i).named("done");
            b.build().unwrap()
        };
        for _ in 0..48 {
            if vetoes {
                m.add_osm(&spec, RotatingVeto);
            } else {
                m.add_osm(&spec, InertBehavior);
            }
        }
        m
    }

    #[test]
    fn dense_restart_machine_runs_proof_free_in_lockstep_with_seed() {
        for vetoes in [false, true] {
            let mut fast = dense_restart_machine(vetoes);
            let mut seed = dense_restart_machine(vetoes);
            seed.set_scheduler_mode(SchedulerMode::Seed);
            let effort = |m: &Machine<Commits>| (m.stats.condition_failures, m.stats.vetoed_edges);
            let (mut proof_free_steps, mut blocked, mut failures) = (0u64, 0u64, 0u64);
            for _ in 0..2_000 {
                let proof_free = fast.scratch.adapt_cooldown > 0;
                let (fast_before, seed_before) = (effort(&fast), effort(&seed));
                let moved = fast.step().unwrap().transitions;
                seed.step().unwrap();
                let cycle = seed.cycle();
                assert_eq!(
                    fast.state_fingerprint(),
                    seed.state_fingerprint(),
                    "vetoes {vetoes}, cycle {cycle}"
                );
                if cycle == 1_000 {
                    assert!(
                        fast.scratch.adapt_cooldown > 0,
                        "vetoes {vetoes}: proofs on"
                    );
                }
                if proof_free {
                    // Proof-free steps do exactly the reference scheduler's
                    // evaluations.
                    let (fast_after, seed_after) = (effort(&fast), effort(&seed));
                    let delta = |after: (u64, u64), before: (u64, u64)| {
                        (after.0 - before.0, after.1 - before.1)
                    };
                    assert_eq!(
                        delta(fast_after, fast_before),
                        delta(seed_after, seed_before),
                        "vetoes {vetoes}, cycle {cycle}: effort differs from Seed"
                    );
                    proof_free_steps += 1;
                    blocked += 48 - u64::from(moved);
                    failures += seed_after.0 - seed_before.0;
                }
            }
            assert!(
                proof_free_steps > 1_500,
                "vetoes {vetoes}: {proof_free_steps}"
            );
            // The restarts re-evaluated the waiting OSMs, many times a step.
            assert!(
                failures > 4 * blocked,
                "vetoes {vetoes}: {failures} <= 4 * {blocked}"
            );
            assert_eq!(fast.stats.restarts, seed.stats.restarts);
            assert_eq!(vetoes, seed.stats.vetoed_edges > 0);
        }
    }

    #[test]
    fn proofs_back_on_after_a_cooldown_trust_no_record_from_before_it() {
        // `x` waits in `W` for P[slot 0], which `y` holds for good, and from
        // its second denial on is skipped on a record resting on P. Sixteen
        // free-running fillers make the window unproductive (under
        // `NoRestart`, so their commits count no rescan skips). In the
        // cooldown, `x` bails out and re-enters `W` for P[1], which is
        // free, with `grab` vetoed until proofs are back on. By then no
        // epoch has moved and the veto mask is the recorded one again: only
        // dropping the records at the window's end stops the stale skip
        // that would leave `x` waiting where Seed moves it.
        #[derive(Default, Clone, Copy)]
        struct Gates {
            bail: bool,
            grab_vetoed: bool,
            next: u64,
        }
        impl HardwareLayer for Gates {}
        struct Gated;
        impl Behavior<Gates> for Gated {
            fn enabled_edges(
                &self,
                spec: &StateMachineSpec,
                view: &crate::osm::OsmView<'_>,
                gates: &Gates,
            ) -> u64 {
                spec.edge_mask(view.state, |edge| match edge.name.as_str() {
                    "bail" => gates.bail,
                    "grab" => !gates.grab_vetoed,
                    _ => true,
                })
            }
            fn on_transition(&mut self, edge: &Edge, ctx: &mut TransitionCtx<'_, Gates>) {
                if edge.name == "enter" {
                    ctx.set_slot(SlotId(0), TokenIdent(ctx.shared.next));
                }
            }
        }
        let build = || {
            let mut m: Machine<Gates> = Machine::new(Gates::default());
            let p = m.add_manager(ExclusivePool::new("P", 2));
            let holder = {
                let mut b = SpecBuilder::new("y");
                let i = b.state("I");
                let h = b.state("H");
                b.initial(i);
                b.edge(i, h).allocate(p, IdentExpr::Const(0));
                b.build().unwrap()
            };
            let waiter = {
                let mut b = SpecBuilder::new("x");
                let i = b.state("I");
                let w = b.state("W");
                let d = b.state("D");
                b.initial(i);
                b.edge(i, w).named("enter");
                b.edge(w, d)
                    .named("grab")
                    .allocate(p, IdentExpr::Slot(SlotId(0)));
                b.edge(w, i).named("bail");
                b.edge(d, i).release(p, IdentExpr::AnyHeld);
                b.build().unwrap()
            };
            let filler = {
                let mut b = SpecBuilder::new("filler");
                let i = b.state("I");
                let a = b.state("A");
                b.initial(i);
                b.edge(i, a);
                b.edge(a, i);
                b.build().unwrap()
            };
            m.add_osm(&holder, Gated);
            let x = m.add_osm(&waiter, Gated);
            for _ in 0..16 {
                m.add_osm(&filler, InertBehavior);
            }
            m.set_restart_policy(RestartPolicy::NoRestart);
            (m, x)
        };
        let (mut fast, x) = build();
        let (mut seed, _) = build();
        seed.set_scheduler_mode(SchedulerMode::Seed);
        let step = |fast: &mut Machine<Gates>, seed: &mut Machine<Gates>, gates: Gates| {
            fast.shared = gates;
            seed.shared = gates;
            fast.step().unwrap();
            seed.step().unwrap();
            assert_eq!(
                fast.state_fingerprint(),
                seed.state_fingerprint(),
                "cycle {}",
                seed.cycle()
            );
        };
        while fast.scratch.adapt_cooldown == 0 {
            assert!(fast.cycle() < 1_000, "skip proofs stayed on");
            step(&mut fast, &mut seed, Gates::default());
        }
        assert_eq!(fast.osm(x).state_name(), "W");
        let bail = Gates {
            bail: true,
            next: 1,
            ..Gates::default()
        };
        step(&mut fast, &mut seed, bail);
        assert_eq!(fast.osm(x).state_name(), "I");
        while fast.scratch.adapt_cooldown > 0 {
            let hold = Gates {
                grab_vetoed: true,
                next: 1,
                ..Gates::default()
            };
            step(&mut fast, &mut seed, hold);
        }
        assert_eq!(fast.osm(x).state_name(), "W");
        step(&mut fast, &mut seed, Gates::default());
        assert_eq!(seed.osm(x).state_name(), "D");
    }

    #[test]
    fn fallible_registration_reports_ok_ids() {
        let mut m: Machine<()> = Machine::new(());
        let ma = m.try_add_manager(ExclusivePool::new("A", 1)).unwrap();
        let mb = m.try_add_manager(ExclusivePool::new("B", 1)).unwrap();
        assert_eq!(ma, ManagerId(0));
        assert_eq!(mb, ManagerId(1));
        let spec = pipeline_spec(ma, mb);
        let o0 = m.try_add_osm_tagged(&spec, InertBehavior, 7).unwrap();
        assert_eq!(o0, OsmId(0));
        assert_eq!(m.osm(o0).tag(), 7);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn run_surfaces_token_leak_in_debug_builds() {
        use crate::token::Token;
        // A manager that claims an ownership no OSM's buffer backs up.
        struct Liar;
        impl TokenManager for Liar {
            fn name(&self) -> &str {
                "liar"
            }
            fn prepare_allocate(&mut self, _: OsmId, _: TokenIdent) -> Option<Token> {
                None
            }
            fn inquire(&self, _: OsmId, _: TokenIdent) -> bool {
                false
            }
            fn prepare_release(&mut self, _: OsmId, _: Token) -> bool {
                false
            }
            fn commit_allocate(&mut self, _: OsmId, _: Token) {}
            fn abort_allocate(&mut self, _: OsmId, _: Token) {}
            fn commit_release(&mut self, _: OsmId, _: Token) {}
            fn abort_release(&mut self, _: OsmId, _: Token) {}
            fn discard(&mut self, _: OsmId, _: Token) {}
            fn owned_tokens(&self) -> Option<Vec<(Token, OsmId)>> {
                Some(vec![(Token::new(ManagerId(0), 0), OsmId(0))])
            }
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
                self
            }
        }
        let mut m: Machine<()> = Machine::new(());
        m.add_manager(Liar);
        match m.run(1) {
            Err(ModelError::TokenLeak { problems, .. }) => {
                assert!(!problems.is_empty());
            }
            other => panic!("expected token leak, got {other:?}"),
        }
    }

    #[test]
    fn trace_digest_probes_without_detaching() {
        let mut m: Machine<()> = Machine::new(());
        let ma = m.add_manager(ExclusivePool::new("A", 1));
        let mb = m.add_manager(ExclusivePool::new("B", 1));
        let spec = pipeline_spec(ma, mb);
        m.add_osm(&spec, InertBehavior);
        assert_eq!(m.trace_digest(), None, "no trace installed yet");
        m.enable_trace_with(Trace::digest_only());
        let empty = m.trace_digest().expect("trace installed");
        m.run(2).unwrap();
        let mid = m.trace_digest().expect("probe mid-run");
        assert_ne!(mid, empty, "digest advances with transitions");
        m.run(1).unwrap();
        // The probe never detached the sink: take_trace still returns it,
        // and its final digest continues from the probed prefix.
        let final_digest = m.trace_digest().unwrap();
        assert_eq!(m.take_trace().unwrap().digest(), final_digest);
    }

    #[test]
    fn state_fingerprint_tracks_operation_state_and_survives_restore() {
        let build = || {
            let mut m: Machine<()> = Machine::new(());
            let ma = m.add_manager(ExclusivePool::new("A", 1));
            let mb = m.add_manager(ExclusivePool::new("B", 1));
            let spec = pipeline_spec(ma, mb);
            m.add_osm(&spec, InertBehavior);
            m.add_osm(&spec, InertBehavior);
            m
        };
        let mut a = build();
        let mut b = build();
        assert_eq!(a.state_fingerprint(), b.state_fingerprint());
        a.run(3).unwrap();
        assert_ne!(
            a.state_fingerprint(),
            b.state_fingerprint(),
            "fingerprint must distinguish different operation states"
        );
        b.run(3).unwrap();
        assert_eq!(a.state_fingerprint(), b.state_fingerprint());
        // checkpoint → restore into a fresh machine reproduces the
        // fingerprint exactly (the probe a cut-point oracle compares).
        let ckpt = a.checkpoint().unwrap();
        let mut c = build();
        c.restore(&ckpt).unwrap();
        assert_eq!(c.state_fingerprint(), a.state_fingerprint());
        a.run(1).unwrap();
        c.run(1).unwrap();
        assert_eq!(c.state_fingerprint(), a.state_fingerprint());
    }
}
