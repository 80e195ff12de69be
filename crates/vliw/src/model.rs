//! The OSM model of the VLIW core, plus a functional IR interpreter used as
//! its golden reference.
//!
//! The paper notes that "VLIW architectures have simpler pipeline control,
//! they can be easily modeled by OSM as well" (§6) — and indeed this model
//! needs only three stage managers and a reset manager: there are no operand
//! tokens at all, because the scheduler (the compiler) already guaranteed
//! independence. What remains is exactly what hardware still owes a VLIW:
//! structure (stage) tokens, variable memory latency, and control-hazard
//! squashing.

use crate::schedule::{Bundle, VliwProgram};
use memsys::{MemSystem, MemSystemConfig};
use minirisc::{retire, CpuState, Flow, Instr, IssError, Memory, SparseMemory};
use osm_core::{
    Behavior, ByteReader, ByteWriter, Edge, ExclusivePool, HardwareLayer, IdentExpr, Machine,
    ManagerId, ManagerTable, ModelError, OsmId, OsmView, ResetManager, RestartPolicy, SpecBuilder,
    StateId, StateMachineSpec, TransitionCtx,
};
use std::sync::Arc;

/// Where bundles live in the (simulated) address space.
pub const CODE_BASE: u32 = 0x1000;
/// Where the data segment is loaded.
pub const DATA_BASE: u32 = 0x10000;

/// Timing configuration.
#[derive(Debug, Clone, Copy)]
pub struct VliwConfig {
    /// Memory subsystem (bundle fetch = one 8-byte access).
    pub mem: MemSystemConfig,
    /// Operation slots (must exceed the 3-stage depth).
    pub osm_count: usize,
}

impl Default for VliwConfig {
    fn default() -> Self {
        VliwConfig {
            mem: MemSystemConfig::strongarm_like(),
            osm_count: 6,
        }
    }
}

/// Result of a VLIW run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VliwResult {
    /// Cycles until the halting bundle retired.
    pub cycles: u64,
    /// Retired operations (both slots, NOPs excluded).
    pub retired_ops: u64,
    /// Retired bundles.
    pub retired_bundles: u64,
    /// Squashed wrong-path bundles.
    pub squashed: u64,
    /// Exit code.
    pub exit_code: u32,
    /// Output bytes.
    pub output: Vec<u8>,
    /// Why the run stopped early: an unknown syscall, in the ISS's words
    /// at the slot's address in the bundle stream, or a taken control
    /// transfer without a bundle target.
    pub error: Option<String>,
}

impl VliwResult {
    /// Cycles per retired operation (< 1 shows slot parallelism paying off).
    pub fn cpo(&self) -> f64 {
        if self.retired_ops == 0 {
            0.0
        } else {
            self.cycles as f64 / self.retired_ops as f64
        }
    }
}

/// Runs the program functionally (one bundle at a time) — the golden
/// reference for the timing model.
///
/// # Panics
/// Panics if the program runs more than `max_bundles` bundles (no halt).
pub fn interpret(program: &VliwProgram, max_bundles: u64) -> VliwResult {
    let mut cpu = CpuState::new(0);
    let mut mem = SparseMemory::new();
    for (k, w) in program.data.iter().enumerate() {
        mem.write_u32(DATA_BASE + 4 * k as u32, *w);
    }
    let mut pc = 0usize;
    let mut retired_ops = 0u64;
    let mut retired_bundles = 0u64;
    let mut output = Vec::new();
    let mut exit_code = 0u32;
    let mut error = None;
    let mut steps = 0u64;
    'run: while pc < program.bundles.len() {
        steps += 1;
        assert!(steps <= max_bundles, "VLIW program does not halt");
        let bundle = program.bundles[pc];
        let mut next = pc + 1;
        for (slot, &instr) in bundle.slots.iter().enumerate() {
            if slot == 1 && !bundle.is_pair() {
                break;
            }
            retired_ops += 1;
            let flow = retire(instr, &mut cpu, &mut mem, &mut output).flow;
            match flow {
                Flow::Next => continue,
                Flow::Taken(_) => match program.targets.get(&pc) {
                    Some(&target) => {
                        next = target;
                        continue;
                    }
                    None => error = Some(untargeted(pc)),
                },
                Flow::Halt => {}
                Flow::Exit(code) => exit_code = code,
                Flow::Fault(e) => error = Some(slot_error(e, pc, slot as u32)),
            }
            retired_bundles += 1;
            break 'run;
        }
        retired_bundles += 1;
        pc = next;
    }
    VliwResult {
        cycles: 0,
        retired_ops,
        retired_bundles,
        squashed: 0,
        exit_code,
        output,
        error,
    }
}

/// The ISS's error for slot `slot` of bundle `idx`, addressed at the slot
/// in the bundle stream.
fn slot_error(mut e: IssError, idx: usize, slot: u32) -> String {
    if let IssError::BadSyscall { pc, .. } = &mut e {
        *pc = CODE_BASE + 8 * idx as u32 + 4 * slot;
    }
    e.to_string()
}

/// The error of a taken control transfer in bundle `idx` that the
/// scheduler recorded no bundle target for: a `jalr` (its register target
/// is no bundle index) or a branch or `jal` added with [`VliwIr::push`].
///
/// [`VliwIr::push`]: crate::VliwIr::push
fn untargeted(idx: usize) -> String {
    format!(
        "at {:#010x}: taken control transfer without a bundle target",
        CODE_BASE + 8 * idx as u32
    )
}

/// What each edge of the spec means (precomputed so the hot path never
/// string-matches edge names).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VliwEdgeKind {
    Fetch,
    ResetF,
    Exec,
    Wb,
    Retire,
}

/// Shared hardware state of the VLIW model.
#[derive(Debug, Clone)]
pub struct VliwShared {
    /// Architectural state.
    pub cpu: CpuState,
    /// Functional memory (data segment).
    pub mem: SparseMemory,
    /// Timing memory subsystem.
    pub memsys: MemSystem,
    program: Arc<VliwProgram>,
    next_bundle: usize,
    stop_fetch: bool,
    /// True once the halting bundle has retired.
    pub halted: bool,
    /// Program exit code.
    pub exit_code: u32,
    output: Vec<u8>,
    /// First error: an unknown syscall, in the ISS's words at the slot's
    /// address in the bundle stream.
    pub error: Option<String>,
    young: Vec<OsmId>,
    /// Retired operations.
    pub retired_ops: u64,
    retired_bundles: u64,
    squashed: u64,
    fetch_timer: u32,
    exec_timer: u32,
    /// Manager handles (fault-injection targets and inspection).
    pub ids: VliwManagers,
    /// Kind of each spec edge, by `EdgeId` index.
    edge_kinds: Vec<VliwEdgeKind>,
}

/// Manager handles (exposed for fault injection and inspection).
#[derive(Debug, Clone, Copy)]
pub struct VliwManagers {
    /// Fetch stage.
    pub mf: ManagerId,
    /// Execute stage.
    pub me: ManagerId,
    /// Writeback stage.
    pub mw: ManagerId,
    /// Reset manager (squash).
    pub reset: ManagerId,
}

impl HardwareLayer for VliwShared {
    fn clock(&mut self, _cycle: u64, managers: &mut ManagerTable) {
        let pool: &mut ExclusivePool = managers.downcast_mut(self.ids.mf);
        pool.block_release(0, self.fetch_timer > 0);
        self.fetch_timer = self.fetch_timer.saturating_sub(1);
        let pool: &mut ExclusivePool = managers.downcast_mut(self.ids.me);
        pool.block_release(0, self.exec_timer > 0);
        self.exec_timer = self.exec_timer.saturating_sub(1);
    }

    fn halted(&self) -> bool {
        self.halted
    }

    /// All mutable shared state. The bundle program, manager handles and
    /// edge tables stay with the machine.
    fn encode_state(&self) -> Option<Vec<u8>> {
        let mut w = ByteWriter::new();
        w.put_bytes(&self.cpu.export_state());
        w.put_bytes(&self.mem.export_state());
        w.put_bytes(&self.memsys.export_state());
        w.put_u64(self.next_bundle as u64);
        w.put_bool(self.stop_fetch);
        w.put_bool(self.halted);
        w.put_u32(self.exit_code);
        w.put_bytes(&self.output);
        w.put_seq(&self.young, |w, osm| w.put_u32(osm.0));
        w.put_u64(self.retired_ops);
        w.put_u64(self.retired_bundles);
        w.put_u64(self.squashed);
        w.put_u32(self.fetch_timer);
        w.put_u32(self.exec_timer);
        // Last and only when recorded: error-free sections keep the layout
        // they had before errors were recorded.
        if let Some(e) = &self.error {
            w.put_str(e);
        }
        Some(w.into_bytes())
    }

    /// Decodes into a copy of the current state (which supplies the
    /// program the bundle cursor must fit) and installs it only if the
    /// whole section parses.
    fn decode_state(&mut self, bytes: &[u8]) -> bool {
        let mut s = self.clone();
        let parsed = ByteReader::read_all(bytes, |r| {
            (s.cpu.import_state(r.take_bytes()?)
                && s.mem.import_state(r.take_bytes()?)
                && s.memsys.import_state(r.take_bytes()?))
            .then_some(())?;
            s.next_bundle = usize::try_from(r.take_u64()?)
                .ok()
                .filter(|&next| next <= s.program.bundles.len())?;
            s.stop_fetch = r.take_bool()?;
            s.halted = r.take_bool()?;
            s.exit_code = r.take_u32()?;
            s.output = r.take_bytes()?.to_vec();
            s.young = r.take_vec(|r| r.take_u32().map(OsmId))?;
            s.retired_ops = r.take_u64()?;
            s.retired_bundles = r.take_u64()?;
            s.squashed = r.take_u64()?;
            s.fetch_timer = r.take_u32()?;
            s.exec_timer = r.take_u32()?;
            s.error = if r.is_done() {
                None
            } else {
                Some(r.take_str()?.to_owned())
            };
            Some(())
        });
        if parsed.is_some() {
            *self = s;
        }
        parsed.is_some()
    }
}

fn build_spec(ids: VliwManagers) -> Arc<StateMachineSpec> {
    let mut b = SpecBuilder::new("vliw-bundle");
    let i = b.state("I");
    let f = b.state("F");
    let e = b.state("E");
    let w = b.state("W");
    b.initial(i);
    b.edge(i, f).named("fetch").allocate(ids.mf, IdentExpr::Const(0));
    b.edge(f, i)
        .named("reset_f")
        .priority(10)
        .inquire(ids.reset, IdentExpr::Const(0))
        .discard_all();
    b.edge(f, e)
        .named("exec")
        .release(ids.mf, IdentExpr::AnyHeld)
        .allocate(ids.me, IdentExpr::Const(0));
    b.edge(e, w)
        .named("wb")
        .release(ids.me, IdentExpr::AnyHeld)
        .allocate(ids.mw, IdentExpr::Const(0));
    b.edge(w, i).named("retire").release(ids.mw, IdentExpr::AnyHeld);
    b.build().expect("static spec is valid")
}

fn edge_kind(edge: &Edge) -> VliwEdgeKind {
    match edge.name.as_str() {
        "fetch" => VliwEdgeKind::Fetch,
        "reset_f" => VliwEdgeKind::ResetF,
        "exec" => VliwEdgeKind::Exec,
        "wb" => VliwEdgeKind::Wb,
        "retire" => VliwEdgeKind::Retire,
        other => unreachable!("unknown edge `{other}`"),
    }
}

/// Classifies the spec's edges once, by `EdgeId` index.
fn classify_edges(spec: &StateMachineSpec) -> Vec<VliwEdgeKind> {
    spec.edges().map(edge_kind).collect()
}

#[derive(Debug, Default)]
struct BundleOp {
    idx: usize,
    is_halting: bool,
    /// Control transfer resolved in E, applied at W (late branch resolve).
    redirect: Option<usize>,
    ops: u64,
    /// Bundle count of the program the op was built for: construction
    /// config, not checkpointed; bounds what a restore may accept.
    bundles: usize,
}

impl BundleOp {
    fn run_slot(&mut self, slot: u32, instr: Instr, ctx: &mut TransitionCtx<'_, VliwShared>) {
        self.ops += 1;
        let s = &mut *ctx.shared;
        let retired = retire(instr, &mut s.cpu, &mut s.mem, &mut s.output);
        if let Some(addr) = retired.mem_addr {
            s.exec_timer = s.memsys.data_penalty(addr);
        }
        let error = match retired.flow {
            Flow::Next => None,
            // Control transfers target the bundle the scheduler resolved.
            Flow::Taken(_) => match s.program.targets.get(&self.idx) {
                Some(&target) => {
                    self.redirect = Some(target);
                    None
                }
                None => Some(untargeted(self.idx)),
            },
            Flow::Halt => {
                self.is_halting = true;
                None
            }
            Flow::Exit(code) => {
                s.exit_code = code;
                None
            }
            Flow::Fault(e) => Some(slot_error(e, self.idx, slot)),
        };
        let stop_now = error.is_some() || matches!(retired.flow, Flow::Exit(_));
        if let Some(e) = error {
            s.error.get_or_insert(e);
        }
        // `halt` stops fetch at writeback; an exit or an error stops it now.
        if stop_now {
            self.is_halting = true;
            s.stop_fetch = true;
            squash_young(ctx);
        }
    }
}

fn squash_young(ctx: &mut TransitionCtx<'_, VliwShared>) {
    let reset: &mut ResetManager = ctx.managers.downcast_mut(ctx.shared.ids.reset);
    for &osm in &ctx.shared.young {
        reset.arm(osm);
    }
}

impl Behavior<VliwShared> for BundleOp {
    fn snapshot(&self) -> Option<Vec<u8>> {
        let mut w = ByteWriter::new();
        w.put_u64(self.idx as u64);
        w.put_bool(self.is_halting);
        match self.redirect {
            None => w.put_bool(false),
            Some(t) => {
                w.put_bool(true);
                w.put_u64(t as u64);
            }
        }
        w.put_u64(self.ops);
        Some(w.into_bytes())
    }

    /// Refuses a bundle index past the program (index 0 of an empty one
    /// aside) and a redirect target past its end, the bound
    /// `VliwShared::decode_state` puts on `next_bundle`.
    fn restore(&mut self, section: Option<&[u8]>) -> bool {
        let bundles = self.bundles;
        let parsed = section.and_then(|bytes| {
            ByteReader::read_all(bytes, |r| {
                let idx = usize::try_from(r.take_u64()?)
                    .ok()
                    .filter(|&idx| idx < bundles || idx == 0)?;
                let is_halting = r.take_bool()?;
                let redirect = if r.take_bool()? {
                    let target = usize::try_from(r.take_u64()?).ok();
                    Some(target.filter(|&target| target <= bundles)?)
                } else {
                    None
                };
                Some(BundleOp {
                    idx,
                    is_halting,
                    redirect,
                    ops: r.take_u64()?,
                    bundles,
                })
            })
        });
        let Some(op) = parsed else {
            return false;
        };
        *self = op;
        true
    }

    /// Fetch is the only edge the model vetoes.
    fn vetoable_edges(spec: &StateMachineSpec, state: StateId) -> u64 {
        spec.edge_mask(state, |e| edge_kind(e) == VliwEdgeKind::Fetch)
    }

    fn enabled_edges(&self, _: &StateMachineSpec, _: &OsmView<'_>, shared: &VliwShared) -> u64 {
        // Fetch stops at the halting bundle and at the end of the stream:
        // every declared edge, the fetch edges, is vetoed.
        if !shared.stop_fetch && shared.next_bundle < shared.program.bundles.len() {
            u64::MAX
        } else {
            0
        }
    }

    fn on_transition(&mut self, edge: &Edge, ctx: &mut TransitionCtx<'_, VliwShared>) {
        match ctx.shared.edge_kinds[edge.id.index()] {
            VliwEdgeKind::Fetch => {
                self.idx = ctx.shared.next_bundle;
                self.is_halting = false;
                self.redirect = None;
                self.ops = 0;
                ctx.shared.next_bundle += 1;
                ctx.shared.young.push(ctx.osm);
                let addr = CODE_BASE + 8 * self.idx as u32;
                let penalty = ctx.shared.memsys.fetch_penalty(addr);
                ctx.shared.fetch_timer = penalty;
            }
            VliwEdgeKind::Exec => {
                let osm = ctx.osm;
                ctx.shared.young.retain(|o| *o != osm);
                let bundle: Bundle = ctx.shared.program.bundles[self.idx];
                self.run_slot(0, bundle.slots[0], ctx);
                if bundle.is_pair() && !self.is_halting {
                    self.run_slot(1, bundle.slots[1], ctx);
                }
            }
            VliwEdgeKind::Wb => {
                // Late control resolution: redirects and the halt take
                // effect one stage after execute, squashing the wrong-path
                // bundle that entered the pipe in the window.
                if let Some(target) = self.redirect.take() {
                    ctx.shared.next_bundle = target;
                    squash_young(ctx);
                }
                if self.is_halting {
                    ctx.shared.stop_fetch = true;
                    squash_young(ctx);
                }
            }
            VliwEdgeKind::Retire => {
                ctx.shared.retired_ops += self.ops;
                ctx.shared.retired_bundles += 1;
                if self.is_halting {
                    ctx.shared.halted = true;
                }
            }
            VliwEdgeKind::ResetF => {
                let osm = ctx.osm;
                ctx.shared.young.retain(|o| *o != osm);
                ctx.shared.squashed += 1;
                ctx.shared.fetch_timer = 0;
                let pool: &mut ExclusivePool = ctx.managers.downcast_mut(ctx.shared.ids.mf);
                pool.block_release(0, false);
                let reset: &mut ResetManager = ctx.managers.downcast_mut(ctx.shared.ids.reset);
                reset.disarm(osm);
            }
        }
    }
}

/// The OSM-based VLIW simulator, a model runner of the same shape as every
/// OSM model's: build it, run it to halt, read the result. Stepping,
/// checkpoints, fault injection and the stall watchdog are the
/// [`Machine`]'s; the manager handles are `machine().shared.ids`.
pub struct VliwSim {
    machine: Machine<VliwShared>,
}

impl std::fmt::Debug for VliwSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VliwSim")
            .field("cycle", &self.machine.cycle())
            .finish()
    }
}

impl VliwSim {
    /// Builds the model around `program`.
    pub fn new(cfg: VliwConfig, program: &VliwProgram) -> Self {
        let mut mem = SparseMemory::new();
        for (k, w) in program.data.iter().enumerate() {
            mem.write_u32(DATA_BASE + 4 * k as u32, *w);
        }
        let mut managers = ManagerTable::new();
        let ids = VliwManagers {
            mf: managers.add(ExclusivePool::new("fetch", 1)),
            me: managers.add(ExclusivePool::new("exec", 1)),
            mw: managers.add(ExclusivePool::new("writeback", 1)),
            reset: managers.add(ResetManager::new("reset")),
        };
        let spec = build_spec(ids);
        let edge_kinds = classify_edges(&spec);
        let shared = VliwShared {
            cpu: CpuState::new(0),
            mem,
            memsys: MemSystem::new(cfg.mem),
            program: Arc::new(program.clone()),
            next_bundle: 0,
            stop_fetch: false,
            halted: false,
            exit_code: 0,
            output: Vec::new(),
            error: None,
            young: Vec::new(),
            retired_ops: 0,
            retired_bundles: 0,
            squashed: 0,
            fetch_timer: 0,
            exec_timer: 0,
            ids,
            edge_kinds,
        };
        let mut machine = Machine::new(shared);
        machine.managers = managers;
        for _ in 0..cfg.osm_count.max(4) {
            let op = BundleOp {
                bundles: program.bundles.len(),
                ..BundleOp::default()
            };
            machine.add_osm(&spec, op);
        }
        machine.set_restart_policy(RestartPolicy::NoRestart);
        VliwSim { machine }
    }

    /// The underlying machine (stepping, checkpoints, stats, the metrics
    /// and stall reports).
    pub fn machine(&self) -> &Machine<VliwShared> {
        &self.machine
    }

    /// Mutable access to the underlying machine (scheduler-mode selection,
    /// the stall watchdog, fault injection through its `managers`,
    /// checkpoint restore, observability switches, A/B experiments).
    pub fn machine_mut(&mut self) -> &mut Machine<VliwShared> {
        &mut self.machine
    }

    /// Unwraps the underlying machine (manager handles stay in
    /// `shared.ids`).
    pub fn into_machine(self) -> Machine<VliwShared> {
        self.machine
    }

    /// Runs until the halting bundle retires or the machine reaches cycle
    /// `max_cycles`.
    ///
    /// # Errors
    /// Propagates [`ModelError`] (deadlock, a tripped stall watchdog).
    pub fn run_to_halt(&mut self, max_cycles: u64) -> Result<VliwResult, ModelError> {
        let budget = max_cycles.saturating_sub(self.machine.cycle());
        self.machine.run_until(budget, |m| m.shared.halted())?;
        Ok(self.result())
    }

    /// Snapshot of the current result counters.
    pub fn result(&self) -> VliwResult {
        let s = &self.machine.shared;
        VliwResult {
            cycles: self.machine.cycle(),
            retired_ops: s.retired_ops,
            retired_bundles: s.retired_bundles,
            squashed: s.squashed,
            exit_code: s.exit_code,
            output: s.output.clone(),
            error: s.error.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{ilp_loop, schedule};

    /// The veto rule one edge at a time: the oracle of the fetch-bit masks.
    fn fetch_edge_rule(kind: VliwEdgeKind, shared: &VliwShared) -> bool {
        kind != VliwEdgeKind::Fetch
            || (!shared.stop_fetch && shared.next_bundle < shared.program.bundles.len())
    }

    #[test]
    fn enabled_edges_match_the_per_edge_rule_everywhere() {
        let program = schedule(&ilp_loop(2, 2), vec![]);
        let n = program.bundles.len();
        let mut sim = VliwSim::new(VliwConfig::default(), &program);
        let spec = Arc::clone(&sim.machine.specs()[0]);
        let shared = &mut sim.machine.shared;
        for (stop_fetch, next_bundle) in [(false, 0), (false, n - 1), (false, n), (true, 0)] {
            shared.stop_fetch = stop_fetch;
            shared.next_bundle = next_bundle;
            for state in spec.states() {
                let view = OsmView {
                    id: OsmId(0),
                    state,
                    age: 0,
                    tag: 0,
                    slots: &[],
                    buffer: &[],
                };
                let all = spec.edge_mask(state, |_| true);
                let rule = spec.edge_mask(state, |e| {
                    fetch_edge_rule(shared.edge_kinds[e.id.index()], shared)
                });
                // The answer as the director reads it: only at the declared
                // bits.
                let answer = BundleOp::default().enabled_edges(&spec, &view, shared);
                let declared = BundleOp::vetoable_edges(&spec, state);
                assert_eq!(
                    (answer | !declared) & all,
                    rule,
                    "state {} stop_fetch {stop_fetch} next_bundle {next_bundle} of {n}",
                    spec.state_name(state)
                );
            }
        }
    }
}
