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
use minirisc::{effective_address, execute, CpuState, Instr, Memory, Outcome, Reg, SparseMemory};
use osm_core::{
    Behavior, ByteReader, ByteWriter, Edge, ExclusivePool, FaultHandle, FaultInjector, FaultPlan,
    HardwareLayer, IdentExpr, Machine, ManagerId, ManagerTable, ModelError, OsmId, OsmView,
    ResetManager, RestartPolicy, SpecBuilder, StateMachineSpec, TransitionCtx,
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
            match instr {
                Instr::Halt => {
                    retired_bundles += 1;
                    break 'run;
                }
                Instr::Syscall => {
                    let nr = cpu.gpr(Reg(10));
                    let arg = cpu.gpr(Reg(11));
                    match nr {
                        minirisc::syscalls::EXIT => {
                            exit_code = arg;
                            retired_bundles += 1;
                            break 'run;
                        }
                        minirisc::syscalls::PUTCHAR => output.push(arg as u8),
                        minirisc::syscalls::PUTUINT => {
                            output.extend_from_slice(arg.to_string().as_bytes())
                        }
                        other => panic!("unknown syscall {other}"),
                    }
                }
                Instr::Branch { cond, rs1, rs2, .. } => {
                    if cond.eval(cpu.gpr(rs1), cpu.gpr(rs2)) {
                        next = program.targets[&pc];
                    }
                }
                Instr::Jal { .. } => next = program.targets[&pc],
                other => {
                    let out = execute(other, &mut cpu, &mut mem);
                    debug_assert_eq!(out, Outcome::Next, "non-control op in bundle");
                }
            }
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
    }
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
    young: Vec<OsmId>,
    /// Retired operations.
    pub retired_ops: u64,
    retired_bundles: u64,
    squashed: u64,
    fetch_timer: u32,
    exec_timer: u32,
    ids: VliwManagers,
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

    /// All mutable shared state. The bundle program and manager handles
    /// stay with the machine.
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

#[derive(Debug, Default)]
struct BundleOp {
    idx: usize,
    is_halting: bool,
    /// Control transfer resolved in E, applied at W (late branch resolve).
    redirect: Option<usize>,
    ops: u64,
}

impl BundleOp {
    fn run_slot(&mut self, instr: Instr, ctx: &mut TransitionCtx<'_, VliwShared>) {
        self.ops += 1;
        match instr {
            Instr::Halt => {
                self.is_halting = true;
            }
            Instr::Syscall => {
                let nr = ctx.shared.cpu.gpr(Reg(10));
                let arg = ctx.shared.cpu.gpr(Reg(11));
                match nr {
                    minirisc::syscalls::EXIT => {
                        self.is_halting = true;
                        ctx.shared.exit_code = arg;
                        ctx.shared.stop_fetch = true;
                        squash_young(ctx);
                    }
                    minirisc::syscalls::PUTCHAR => ctx.shared.output.push(arg as u8),
                    minirisc::syscalls::PUTUINT => ctx
                        .shared
                        .output
                        .extend_from_slice(arg.to_string().as_bytes()),
                    other => panic!("unknown syscall {other}"),
                }
            }
            Instr::Branch { cond, rs1, rs2, .. } => {
                let taken = cond.eval(ctx.shared.cpu.gpr(rs1), ctx.shared.cpu.gpr(rs2));
                if taken {
                    self.redirect = Some(ctx.shared.program.targets[&self.idx]);
                }
            }
            Instr::Jal { .. } => {
                self.redirect = Some(ctx.shared.program.targets[&self.idx]);
            }
            other => {
                if let Some(addr) = effective_address(other, &ctx.shared.cpu) {
                    ctx.shared.exec_timer = ctx.shared.memsys.data_penalty(addr);
                }
                let out = execute(other, &mut ctx.shared.cpu, &mut ctx.shared.mem);
                debug_assert_eq!(out, Outcome::Next);
            }
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

    fn restore(&mut self, section: Option<&[u8]>) -> bool {
        let parsed = section.and_then(|bytes| {
            ByteReader::read_all(bytes, |r| {
                let idx = r.take_u64()? as usize;
                let is_halting = r.take_bool()?;
                let redirect = if r.take_bool()? {
                    Some(r.take_u64()? as usize)
                } else {
                    None
                };
                Some(BundleOp {
                    idx,
                    is_halting,
                    redirect,
                    ops: r.take_u64()?,
                })
            })
        });
        let Some(op) = parsed else {
            return false;
        };
        *self = op;
        true
    }

    fn edge_enabled(&self, edge: &Edge, _view: &OsmView<'_>, shared: &VliwShared) -> bool {
        edge.name != "fetch"
            || (!shared.stop_fetch && shared.next_bundle < shared.program.bundles.len())
    }

    fn on_transition(&mut self, edge: &Edge, ctx: &mut TransitionCtx<'_, VliwShared>) {
        match edge.name.as_str() {
            "fetch" => {
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
            "exec" => {
                let osm = ctx.osm;
                ctx.shared.young.retain(|o| *o != osm);
                let bundle: Bundle = ctx.shared.program.bundles[self.idx];
                self.run_slot(bundle.slots[0], ctx);
                if bundle.is_pair() && !self.is_halting {
                    self.run_slot(bundle.slots[1], ctx);
                }
            }
            "wb" => {
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
            "retire" => {
                ctx.shared.retired_ops += self.ops;
                ctx.shared.retired_bundles += 1;
                if self.is_halting {
                    ctx.shared.halted = true;
                }
            }
            "reset_f" => {
                let osm = ctx.osm;
                ctx.shared.young.retain(|o| *o != osm);
                ctx.shared.squashed += 1;
                ctx.shared.fetch_timer = 0;
                let pool: &mut ExclusivePool = ctx.managers.downcast_mut(ctx.shared.ids.mf);
                pool.block_release(0, false);
                let reset: &mut ResetManager = ctx.managers.downcast_mut(ctx.shared.ids.reset);
                reset.disarm(osm);
            }
            other => unreachable!("unknown edge `{other}`"),
        }
    }
}

/// The OSM-based VLIW simulator.
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
            young: Vec::new(),
            retired_ops: 0,
            retired_bundles: 0,
            squashed: 0,
            fetch_timer: 0,
            exec_timer: 0,
            ids: VliwManagers {
                mf: ManagerId(u32::MAX),
                me: ManagerId(u32::MAX),
                mw: ManagerId(u32::MAX),
                reset: ManagerId(u32::MAX),
            },
        };
        let mut machine = Machine::new(shared);
        let ids = VliwManagers {
            mf: machine.add_manager(ExclusivePool::new("fetch", 1)),
            me: machine.add_manager(ExclusivePool::new("exec", 1)),
            mw: machine.add_manager(ExclusivePool::new("writeback", 1)),
            reset: machine.add_manager(ResetManager::new("reset")),
        };
        machine.shared.ids = ids;
        let spec = build_spec(ids);
        for _ in 0..cfg.osm_count.max(4) {
            machine.add_osm(&spec, BundleOp::default());
        }
        machine.set_restart_policy(RestartPolicy::NoRestart);
        VliwSim { machine }
    }

    /// The underlying machine.
    pub fn machine(&self) -> &Machine<VliwShared> {
        &self.machine
    }

    /// Mutable access to the underlying machine (scheduler-mode selection,
    /// observer installation, A/B experiments).
    pub fn machine_mut(&mut self) -> &mut Machine<VliwShared> {
        &mut self.machine
    }

    /// Unwraps the underlying machine.
    pub fn into_machine(self) -> Machine<VliwShared> {
        self.machine
    }

    /// Manager handles (targets for [`VliwSim::inject_faults`]).
    pub fn ids(&self) -> VliwManagers {
        self.machine.shared.ids
    }

    /// Captures a full mid-run checkpoint as sealed bytes (see
    /// [`osm_core::Machine::checkpoint`]).
    ///
    /// # Errors
    /// [`osm_core::ModelError::SnapshotUnsupported`] if a manager without
    /// checkpoint support was installed.
    pub fn checkpoint(&self) -> Result<Vec<u8>, ModelError> {
        self.machine.checkpoint()
    }

    /// Rewinds the simulator to bytes written by [`VliwSim::checkpoint`]
    /// on a simulator built over the same program and configuration;
    /// all-or-nothing.
    ///
    /// # Errors
    /// [`osm_core::ModelError::SnapshotMismatch`] if the bytes are damaged
    /// or were taken from a differently configured machine.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), ModelError> {
        self.machine.restore(bytes)
    }

    /// Installs a deterministic fault injector in front of manager
    /// `target` (any of the handles in [`VliwSim::ids`]) and returns the
    /// operator handle for it.
    pub fn inject_faults(&mut self, target: ManagerId, plan: FaultPlan) -> FaultHandle {
        FaultInjector::install(&mut self.machine.managers, target, plan)
    }

    /// Arms the stall watchdog: if no OSM makes progress for `cycles`
    /// consecutive cycles (see [`osm_core::Machine::set_stall_limit`]),
    /// stepping fails with a diagnosed [`osm_core::ModelError::Stalled`].
    pub fn set_stall_limit(&mut self, cycles: Option<u64>) {
        self.machine.set_stall_limit(cycles);
    }

    /// True once the halting bundle has retired (chunked run loops use
    /// this to distinguish halt from an exhausted per-chunk cycle target).
    pub fn halted(&self) -> bool {
        self.machine.shared.halted
    }

    /// Runs until the halting bundle retires or `max_cycles` pass.
    ///
    /// # Errors
    /// Propagates [`ModelError`] (deadlock).
    pub fn run_to_halt(&mut self, max_cycles: u64) -> Result<VliwResult, ModelError> {
        while !self.machine.shared.halted && self.machine.cycle() < max_cycles {
            self.machine.step()?;
        }
        let s = &self.machine.shared;
        Ok(VliwResult {
            cycles: self.machine.cycle(),
            retired_ops: s.retired_ops,
            retired_bundles: s.retired_bundles,
            squashed: s.squashed,
            exit_code: s.exit_code,
            output: s.output.clone(),
        })
    }
}
