//! The OSM-based StrongARM micro-architecture model (paper §5.1, Figs. 5/6).
//!
//! Five pipeline stages — fetch (F), decode (D), execute (E), buffer (B),
//! write-back (W) — each an [`ExclusivePool`] with one occupancy token; the
//! combined register file + forwarding network ([`RegForwardFile`]); a
//! multiplier module; and a reset manager for control hazards. The memory
//! subsystem (caches, TLBs, bus) lives purely in the hardware layer and has
//! no TMI, exactly as in the paper.
//!
//! Timing idioms used (paper §4):
//! * structure hazards — stage occupancy tokens;
//! * data hazards — register-update tokens + value-token inquiries, with the
//!   forwarding network answering inquiries early;
//! * variable latency — cache-miss penalties block the stage token's release;
//! * control hazards — high-priority reset edges gated by the reset manager.

use crate::config::{SaConfig, SimResult};
use crate::forward::RegForwardFile;
use minirisc::{
    Memory,
    decode, effective_address, encode, execute, CpuState, Instr, InstrClass, Outcome, Program,
    Reg, SparseMemory,
};
use memsys::MemSystem;
use osm_core::{
    export, Behavior, ByteReader, ByteWriter, Edge, ExclusivePool, FaultHandle, FaultInjector,
    FaultPlan, HardwareLayer, IdentExpr, Machine, ManagerId, ManagerTable, MetricsReport,
    ModelError, OsmView, ResetManager, RestartPolicy, SlotId, SpecBuilder, StallHistogram,
    StateMachineSpec, TokenIdent, TransitionCtx,
};
use std::sync::Arc;

/// Identifier slot: first source operand (value token).
pub const S_SRC1: SlotId = SlotId(0);
/// Identifier slot: second source operand (value token).
pub const S_SRC2: SlotId = SlotId(1);
/// Identifier slot: destination register (update token).
pub const S_DEST: SlotId = SlotId(2);
/// Identifier slot: multiplier occupancy (set only for mul/div class).
pub const S_MULT: SlotId = SlotId(3);

/// Handles to all token managers of the model.
#[derive(Debug, Clone, Copy)]
pub struct SaManagers {
    /// Fetch-stage occupancy.
    pub mf: ManagerId,
    /// Decode-stage occupancy.
    pub md: ManagerId,
    /// Execute-stage occupancy.
    pub me: ManagerId,
    /// Buffer-stage occupancy.
    pub mb: ManagerId,
    /// Write-back-stage occupancy.
    pub mw: ManagerId,
    /// Combined register file + forwarding network.
    pub rff: ManagerId,
    /// Multiplier module.
    pub mult: ManagerId,
    /// Reset (squash) manager.
    pub reset: ManagerId,
}

impl Default for SaManagers {
    fn default() -> Self {
        let nil = ManagerId(u32::MAX);
        SaManagers {
            mf: nil,
            md: nil,
            me: nil,
            mb: nil,
            mw: nil,
            rff: nil,
            mult: nil,
            reset: nil,
        }
    }
}

/// What each edge of the spec means (precomputed so the hot path never
/// string-matches edge names).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SaEdgeKind {
    Fetch,
    ResetF,
    ResetD,
    Decode,
    Issue,
    Mem,
    Wb,
    Retire,
}

/// Shared hardware-layer state of the StrongARM model.
#[derive(Debug, Clone)]
pub struct SaShared {
    /// Architectural register state (values live here; the token manager
    /// tracks only in-flight-writer status — a representation choice with
    /// identical transaction semantics to keeping values inside `m_r`).
    pub cpu: CpuState,
    /// Functional memory.
    pub mem: SparseMemory,
    /// Timing memory subsystem (no TMI; hardware layer only).
    pub memsys: MemSystem,
    /// Next PC the fetch stage will fetch from.
    pub next_fetch_pc: u32,
    /// Fetch disabled (after halt/exit reached execute).
    pub stop_fetch: bool,
    /// The halting operation has retired; simulation is complete.
    pub halted: bool,
    /// Exit code (from the exit syscall).
    pub exit_code: u32,
    /// Program output bytes.
    pub output: Vec<u8>,
    /// First right-path anomaly (unknown syscall, undecodable instruction).
    pub error: Option<String>,
    /// Operations currently in F or D (squashable on a control transfer).
    young: Vec<osm_core::OsmId>,
    /// Retired instructions.
    pub retired: u64,
    /// Squashed wrong-path operations.
    pub squashed: u64,
    fetch_timer: u32,
    bstage_timer: u32,
    mult_timer: u32,
    edge_kinds: Vec<SaEdgeKind>,
    ids: SaManagers,
    cfg: SaConfig,
}

impl SaShared {
    fn new(cfg: SaConfig, program: &Program) -> Self {
        let mut mem = SparseMemory::new();
        program.load_into(&mut mem);
        SaShared {
            cpu: CpuState::new(program.entry),
            mem,
            memsys: MemSystem::new(cfg.mem),
            next_fetch_pc: program.entry,
            stop_fetch: false,
            halted: false,
            exit_code: 0,
            output: Vec::new(),
            error: None,
            young: Vec::new(),
            retired: 0,
            squashed: 0,
            fetch_timer: 0,
            bstage_timer: 0,
            mult_timer: 0,
            edge_kinds: Vec::new(),
            ids: SaManagers::default(),
            cfg,
        }
    }

    fn squash_young(&mut self, managers: &mut ManagerTable) {
        let reset: &mut ResetManager = managers.downcast_mut(self.ids.reset);
        for &osm in &self.young {
            reset.arm(osm);
        }
    }
}

impl HardwareLayer for SaShared {
    fn clock(&mut self, _cycle: u64, managers: &mut ManagerTable) {
        // Variable latency: while a timer runs, the corresponding stage (or
        // multiplier) refuses to release its token (paper §4).
        let pool: &mut ExclusivePool = managers.downcast_mut(self.ids.mf);
        pool.block_release(0, self.fetch_timer > 0);
        self.fetch_timer = self.fetch_timer.saturating_sub(1);

        let pool: &mut ExclusivePool = managers.downcast_mut(self.ids.mb);
        pool.block_release(0, self.bstage_timer > 0);
        self.bstage_timer = self.bstage_timer.saturating_sub(1);

        let pool: &mut ExclusivePool = managers.downcast_mut(self.ids.mult);
        pool.block_release(0, self.mult_timer > 0);
        self.mult_timer = self.mult_timer.saturating_sub(1);
    }

    /// All mutable hardware-layer state: CPU, memories, fetch redirection,
    /// timers, result counters. Static configuration (manager ids, edge
    /// classification, `SaConfig`) stays with the machine.
    fn encode_state(&self) -> Option<Vec<u8>> {
        let mut w = ByteWriter::new();
        w.put_bytes(&self.cpu.export_state());
        w.put_bytes(&self.mem.export_state());
        w.put_bytes(&self.memsys.export_state());
        w.put_u32(self.next_fetch_pc);
        w.put_bool(self.stop_fetch);
        w.put_bool(self.halted);
        w.put_u32(self.exit_code);
        w.put_bytes(&self.output);
        match &self.error {
            None => w.put_bool(false),
            Some(e) => {
                w.put_bool(true);
                w.put_str(e);
            }
        }
        w.put_seq(&self.young, |w, osm| w.put_u32(osm.0));
        w.put_u64(self.retired);
        w.put_u64(self.squashed);
        w.put_u32(self.fetch_timer);
        w.put_u32(self.bstage_timer);
        w.put_u32(self.mult_timer);
        Some(w.into_bytes())
    }

    /// Decodes into a copy of the current state (which supplies the static
    /// configuration and the memory-subsystem geometry the section must
    /// match) and installs it only if the whole section parses.
    fn decode_state(&mut self, bytes: &[u8]) -> bool {
        let mut s = self.clone();
        let parsed = ByteReader::read_all(bytes, |r| {
            (s.cpu.import_state(r.take_bytes()?)
                && s.mem.import_state(r.take_bytes()?)
                && s.memsys.import_state(r.take_bytes()?))
            .then_some(())?;
            s.next_fetch_pc = r.take_u32()?;
            s.stop_fetch = r.take_bool()?;
            s.halted = r.take_bool()?;
            s.exit_code = r.take_u32()?;
            s.output = r.take_bytes()?.to_vec();
            s.error = if r.take_bool()? {
                Some(r.take_str()?.to_owned())
            } else {
                None
            };
            s.young = r.take_vec(|r| r.take_u32().map(osm_core::OsmId))?;
            s.retired = r.take_u64()?;
            s.squashed = r.take_u64()?;
            s.fetch_timer = r.take_u32()?;
            s.bstage_timer = r.take_u32()?;
            s.mult_timer = r.take_u32()?;
            Some(())
        });
        if parsed.is_some() {
            *self = s;
        }
        parsed.is_some()
    }
}

/// Builds the Fig. 6 state machine over the given managers.
pub fn build_spec(ids: SaManagers) -> Arc<StateMachineSpec> {
    let mut b = SpecBuilder::new("sa1100-op");
    let i = b.state("I");
    let f = b.state("F");
    let d = b.state("D");
    let e = b.state("E");
    let bb = b.state("B");
    let w = b.state("W");
    b.initial(i);

    b.edge(i, f).named("fetch").allocate(ids.mf, IdentExpr::Const(0));
    // Reset edges carry a higher static priority than the normal flow.
    b.edge(f, i)
        .named("reset_f")
        .priority(10)
        .inquire(ids.reset, IdentExpr::Const(0))
        .discard_all();
    b.edge(f, d)
        .named("decode")
        .release(ids.mf, IdentExpr::AnyHeld)
        .allocate(ids.md, IdentExpr::Const(0));
    b.edge(d, i)
        .named("reset_d")
        .priority(10)
        .inquire(ids.reset, IdentExpr::Const(0))
        .discard_all();
    b.edge(d, e)
        .named("issue")
        .release(ids.md, IdentExpr::AnyHeld)
        .allocate(ids.me, IdentExpr::Const(0))
        .allocate(ids.mult, IdentExpr::Slot(S_MULT))
        .inquire(ids.rff, IdentExpr::Slot(S_SRC1))
        .inquire(ids.rff, IdentExpr::Slot(S_SRC2))
        .allocate(ids.rff, IdentExpr::Slot(S_DEST));
    b.edge(e, bb)
        .named("mem")
        .release(ids.me, IdentExpr::AnyHeld)
        .release(ids.mult, IdentExpr::Slot(S_MULT))
        .allocate(ids.mb, IdentExpr::Const(0));
    b.edge(bb, w)
        .named("wb")
        .release(ids.mb, IdentExpr::AnyHeld)
        .allocate(ids.mw, IdentExpr::Const(0));
    b.edge(w, i)
        .named("retire")
        .release(ids.mw, IdentExpr::AnyHeld)
        .release(ids.rff, IdentExpr::Slot(S_DEST));
    b.build().expect("static spec is valid")
}

/// Per-operation behavior: decodes, initializes token identifiers, executes
/// semantics at E, and drives the hazard idioms.
#[derive(Debug, Default)]
struct SaOp {
    pc: u32,
    instr: Instr,
    mem_addr: Option<u32>,
    is_halting: bool,
}

impl SaOp {
    fn handle_outcome(
        &mut self,
        outcome: Outcome,
        ctx: &mut TransitionCtx<'_, SaShared>,
    ) {
        match outcome {
            Outcome::Next => {}
            Outcome::Taken(target) => {
                ctx.shared.next_fetch_pc = target;
                ctx.shared.squash_young(ctx.managers);
            }
            Outcome::Halt => {
                self.is_halting = true;
                ctx.shared.stop_fetch = true;
                ctx.shared.squash_young(ctx.managers);
            }
            Outcome::Syscall => {
                let nr = ctx.shared.cpu.gpr(Reg(10));
                let arg = ctx.shared.cpu.gpr(Reg(11));
                match nr {
                    minirisc::syscalls::EXIT => {
                        self.is_halting = true;
                        ctx.shared.exit_code = arg;
                        ctx.shared.stop_fetch = true;
                        ctx.shared.squash_young(ctx.managers);
                    }
                    minirisc::syscalls::PUTCHAR => ctx.shared.output.push(arg as u8),
                    minirisc::syscalls::PUTUINT => ctx
                        .shared
                        .output
                        .extend_from_slice(arg.to_string().as_bytes()),
                    other => {
                        if ctx.shared.error.is_none() {
                            ctx.shared.error =
                                Some(format!("unknown syscall {other} at {:#010x}", self.pc));
                        }
                        self.is_halting = true;
                        ctx.shared.stop_fetch = true;
                        ctx.shared.squash_young(ctx.managers);
                    }
                }
            }
        }
    }
}

fn classify_edges(spec: &StateMachineSpec) -> Vec<SaEdgeKind> {
    spec.edges()
        .map(|e| match e.name.as_str() {
            "fetch" => SaEdgeKind::Fetch,
            "reset_f" => SaEdgeKind::ResetF,
            "reset_d" => SaEdgeKind::ResetD,
            "decode" => SaEdgeKind::Decode,
            "issue" => SaEdgeKind::Issue,
            "mem" => SaEdgeKind::Mem,
            "wb" => SaEdgeKind::Wb,
            "retire" => SaEdgeKind::Retire,
            other => unreachable!("unknown edge `{other}`"),
        })
        .collect()
}

impl Behavior<SaShared> for SaOp {
    fn snapshot(&self) -> Option<Vec<u8>> {
        let mut w = ByteWriter::new();
        w.put_u32(self.pc);
        // `instr` always comes from `decode` (or is the NOP), and every
        // decoded instruction re-encodes.
        w.put_u32(encode(self.instr).expect("decoded instructions re-encode"));
        match self.mem_addr {
            None => w.put_bool(false),
            Some(a) => {
                w.put_bool(true);
                w.put_u32(a);
            }
        }
        w.put_bool(self.is_halting);
        Some(w.into_bytes())
    }

    fn restore(&mut self, section: Option<&[u8]>) -> bool {
        let parsed = section.and_then(|bytes| {
            ByteReader::read_all(bytes, |r| {
                let pc = r.take_u32()?;
                let instr = decode(r.take_u32()?).ok()?;
                let mem_addr = if r.take_bool()? {
                    Some(r.take_u32()?)
                } else {
                    None
                };
                Some(SaOp {
                    pc,
                    instr,
                    mem_addr,
                    is_halting: r.take_bool()?,
                })
            })
        });
        let Some(op) = parsed else {
            return false;
        };
        *self = op;
        true
    }

    fn edge_enabled(&self, edge: &Edge, _view: &OsmView<'_>, shared: &SaShared) -> bool {
        // Fetch stops once the halting operation has executed.
        shared.edge_kinds[edge.id.index()] != SaEdgeKind::Fetch || !shared.stop_fetch
    }

    fn on_transition(&mut self, edge: &Edge, ctx: &mut TransitionCtx<'_, SaShared>) {
        match ctx.shared.edge_kinds[edge.id.index()] {
            SaEdgeKind::Fetch => {
                self.pc = ctx.shared.next_fetch_pc;
                ctx.shared.next_fetch_pc = ctx.shared.next_fetch_pc.wrapping_add(4);
                self.is_halting = false;
                self.mem_addr = None;
                ctx.shared.young.push(ctx.osm);
                let penalty = ctx.shared.memsys.fetch_penalty(self.pc);
                ctx.shared.fetch_timer = penalty;
            }
            SaEdgeKind::Decode => {
                let word = ctx.shared.mem.read_u32(self.pc);
                self.instr = decode(word).unwrap_or(Instr::NOP);
                // Initialize all allocation and inquiry identifiers (§4).
                let sources = self.instr.sources();
                let src_ident = |k: usize| {
                    sources
                        .get(k)
                        .map(|r| RegForwardFile::value_ident(r.flat_index()))
                        .unwrap_or(TokenIdent::NONE)
                };
                ctx.set_slot(S_SRC1, src_ident(0));
                ctx.set_slot(S_SRC2, src_ident(1));
                ctx.set_slot(
                    S_DEST,
                    self.instr
                        .dest()
                        .map(|r| RegForwardFile::update_ident(r.flat_index()))
                        .unwrap_or(TokenIdent::NONE),
                );
                let uses_mult = matches!(
                    self.instr.class(),
                    InstrClass::IntMul | InstrClass::IntDiv
                );
                ctx.set_slot(
                    S_MULT,
                    if uses_mult {
                        TokenIdent(0)
                    } else {
                        TokenIdent::NONE
                    },
                );
            }
            SaEdgeKind::Issue => {
                // The operation leaves the squashable front of the pipeline.
                let osm = ctx.osm;
                ctx.shared.young.retain(|o| *o != osm);
                // Address generation precedes execution (the base register
                // may be overwritten by the instruction itself).
                self.mem_addr = effective_address(self.instr, &ctx.shared.cpu);
                ctx.shared.cpu.pc = self.pc;
                let outcome = execute(self.instr, &mut ctx.shared.cpu, &mut ctx.shared.mem);
                self.handle_outcome(outcome, ctx);
                match self.instr.class() {
                    InstrClass::IntMul => ctx.shared.mult_timer = ctx.shared.cfg.mul_extra,
                    InstrClass::IntDiv => ctx.shared.mult_timer = ctx.shared.cfg.div_extra,
                    _ => {}
                }
                // Non-load results are forwardable as soon as E computes them.
                if self.instr.class() != InstrClass::Load {
                    if let Some(dest) = self.instr.dest() {
                        let rff: &mut RegForwardFile = ctx.managers.downcast_mut(ctx.shared.ids.rff);
                        rff.mark_ready(dest.flat_index());
                    }
                }
            }
            SaEdgeKind::Mem => {
                if let Some(addr) = self.mem_addr.take() {
                    let penalty = ctx.shared.memsys.data_penalty(addr);
                    ctx.shared.bstage_timer = penalty;
                }
            }
            SaEdgeKind::Wb => {
                // Load results become forwardable once the D-cache access in
                // B completes — the classic 1-cycle load-use penalty.
                if self.instr.class() == InstrClass::Load {
                    if let Some(dest) = self.instr.dest() {
                        let rff: &mut RegForwardFile = ctx.managers.downcast_mut(ctx.shared.ids.rff);
                        rff.mark_ready(dest.flat_index());
                    }
                }
            }
            SaEdgeKind::Retire => {
                ctx.shared.retired += 1;
                if self.is_halting {
                    ctx.shared.halted = true;
                }
            }
            kind @ (SaEdgeKind::ResetF | SaEdgeKind::ResetD) => {
                let osm = ctx.osm;
                ctx.shared.young.retain(|o| *o != osm);
                ctx.shared.squashed += 1;
                if kind == SaEdgeKind::ResetF {
                    // Abandon the in-flight instruction fetch.
                    ctx.shared.fetch_timer = 0;
                    let pool: &mut ExclusivePool = ctx.managers.downcast_mut(ctx.shared.ids.mf);
                    pool.block_release(0, false);
                }
                let reset: &mut ResetManager = ctx.managers.downcast_mut(ctx.shared.ids.reset);
                reset.disarm(osm);
            }
        }
    }
}

/// The OSM-based StrongARM simulator.
pub struct SaOsmSim {
    machine: Machine<SaShared>,
    /// Manager handles (exposed for inspection in tests and examples).
    pub ids: SaManagers,
    spec: Arc<StateMachineSpec>,
}

impl std::fmt::Debug for SaOsmSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SaOsmSim")
            .field("cycle", &self.machine.cycle())
            .field("retired", &self.machine.shared.retired)
            .finish()
    }
}

impl SaOsmSim {
    /// Builds the model and loads `program`.
    pub fn new(cfg: SaConfig, program: &Program) -> Self {
        let shared = SaShared::new(cfg, program);
        let mut machine = Machine::new(shared);
        let ids = SaManagers {
            mf: machine.add_manager(ExclusivePool::new("fetch", 1)),
            md: machine.add_manager(ExclusivePool::new("decode", 1)),
            me: machine.add_manager(ExclusivePool::new("execute", 1)),
            mb: machine.add_manager(ExclusivePool::new("buffer", 1)),
            mw: machine.add_manager(ExclusivePool::new("writeback", 1)),
            rff: machine.add_manager(RegForwardFile::new("regfile+fwd", 64, cfg.forwarding)),
            mult: machine.add_manager(ExclusivePool::new("multiplier", 1)),
            reset: machine.add_manager(ResetManager::new("reset")),
        };
        machine.shared.ids = ids;
        let spec = build_spec(ids);
        machine.shared.edge_kinds = classify_edges(&spec);
        for _ in 0..cfg.osm_count.max(6) {
            machine.add_osm(&spec, SaOp::default());
        }
        // The paper's case studies rank by age and skip the outer-loop
        // restart (§5): with seniors served first it changes nothing.
        machine.set_restart_policy(RestartPolicy::NoRestart);
        SaOsmSim { machine, ids, spec }
    }

    /// The underlying machine (for tracing, stats, manager inspection).
    pub fn machine(&self) -> &Machine<SaShared> {
        &self.machine
    }

    /// Mutable access to the underlying machine.
    pub fn machine_mut(&mut self) -> &mut Machine<SaShared> {
        &mut self.machine
    }

    /// Unwraps the underlying machine (manager handles stay in
    /// `shared.ids`).
    pub fn into_machine(self) -> Machine<SaShared> {
        self.machine
    }

    /// The operation state machine spec (Fig. 6).
    pub fn spec(&self) -> &Arc<StateMachineSpec> {
        &self.spec
    }

    /// Advances one cycle.
    ///
    /// # Errors
    /// Propagates [`ModelError`] (deadlock).
    pub fn step(&mut self) -> Result<(), ModelError> {
        self.machine.step().map(|_| ())
    }

    /// Runs until the program halts or `max_cycles` elapse.
    ///
    /// # Errors
    /// Returns [`ModelError`] on deadlock; reaching `max_cycles` is reported
    /// through the result's `cycles == max_cycles` with `halted` false in
    /// the shared state.
    pub fn run_to_halt(&mut self, max_cycles: u64) -> Result<SimResult, ModelError> {
        while !self.machine.shared.halted && self.machine.cycle() < max_cycles {
            self.machine.step()?;
        }
        Ok(self.result())
    }

    /// Captures a full checkpoint of the simulator (OSM states, token
    /// managers, CPU/memory state, timers) as sealed bytes (see
    /// [`osm_core::Machine::checkpoint`]). Restoring them with
    /// [`SaOsmSim::restore`], here or in a freshly built simulator of the
    /// same construction, replays the continuation cycle-for-cycle.
    ///
    /// # Errors
    /// [`ModelError::SnapshotUnsupported`] if a manager without checkpoint
    /// support was installed.
    pub fn checkpoint(&self) -> Result<Vec<u8>, ModelError> {
        self.machine.checkpoint()
    }

    /// Rewinds the simulator to bytes written by [`SaOsmSim::checkpoint`];
    /// all-or-nothing.
    ///
    /// # Errors
    /// [`ModelError::SnapshotMismatch`] if the bytes are damaged or were
    /// taken from a differently configured simulator.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), ModelError> {
        self.machine.restore(bytes)
    }

    /// Installs a deterministic fault injector in front of manager
    /// `target` (any of the handles in [`SaOsmSim::ids`]) and returns the
    /// operator handle for it.
    pub fn inject_faults(&mut self, target: ManagerId, plan: FaultPlan) -> FaultHandle {
        FaultInjector::install(&mut self.machine.managers, target, plan)
    }

    /// Arms the stall watchdog: if no OSM makes progress for `cycles`
    /// consecutive cycles (see [`osm_core::Machine::set_stall_limit`]),
    /// stepping fails with a diagnosed [`ModelError::Stalled`].
    pub fn set_stall_limit(&mut self, cycles: Option<u64>) {
        self.machine.set_stall_limit(cycles);
    }

    /// Turns on the full observability stack: token-event log, derived
    /// metrics, and stall-cause attribution. Call before the first step for
    /// reports that reconcile exactly with [`osm_core::Stats`].
    pub fn enable_observability(&mut self) {
        self.machine.enable_event_log();
        self.machine.enable_metrics();
        self.machine.enable_stall_attribution();
    }

    /// Structured metrics (state occupancy, manager utilization, throughput
    /// windows), if metrics are enabled.
    pub fn metrics_report(&self) -> Option<MetricsReport> {
        self.machine.metrics_report()
    }

    /// Stall-cause histogram (where the stall cycles went), if stall
    /// attribution is enabled.
    pub fn stall_histogram(&self) -> Option<StallHistogram> {
        self.machine
            .stall_attribution()
            .map(|t| t.histogram(&self.machine.managers))
    }

    /// Chrome `chrome://tracing` / Perfetto JSON of the recorded event log,
    /// if the event log is enabled.
    pub fn chrome_trace(&self) -> Option<String> {
        export::chrome_trace_for(&self.machine)
    }

    /// Textual per-cycle pipeline diagram of cycles `[from, to)`, if the
    /// event log is enabled.
    pub fn pipeline_diagram(&self, from: u64, to: u64) -> Option<String> {
        export::pipeline_diagram_for(&self.machine, from, to)
    }

    /// Snapshot of the current result counters.
    pub fn result(&self) -> SimResult {
        let s = &self.machine.shared;
        SimResult {
            cycles: self.machine.cycle(),
            retired: s.retired,
            squashed: s.squashed,
            exit_code: s.exit_code,
            output: s.output.clone(),
            icache_misses: s.memsys.icache.stats.misses,
            dcache_misses: s.memsys.dcache.stats.misses,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minirisc::assemble;

    fn run(src: &str, cfg: SaConfig) -> (SimResult, SaOsmSim) {
        let p = assemble(src, 0x1000).expect("assembles");
        let mut sim = SaOsmSim::new(cfg, &p);
        let r = sim.run_to_halt(1_000_000).expect("no deadlock");
        assert!(sim.machine.shared.halted, "program did not halt");
        (r, sim)
    }

    const SUM_LOOP: &str = "
        li r1, 10
        li r2, 0
    loop:
        add r2, r2, r1
        addi r1, r1, -1
        bne r1, r0, loop
        li r10, 0
        add r11, r2, r0
        syscall
    ";

    #[test]
    fn sum_loop_functional_result_matches_iss() {
        let (r, _) = run(SUM_LOOP, SaConfig::paper());
        assert_eq!(r.exit_code, 55);
        // Functional cross-check against the ISS.
        let p = assemble(SUM_LOOP, 0x1000).unwrap();
        let mut iss = minirisc::Iss::with_program(SparseMemory::new(), &p);
        iss.run(100_000).unwrap();
        assert_eq!(iss.exit_code, 55);
        assert_eq!(r.retired, iss.retired);
    }

    #[test]
    fn pipeline_reaches_steady_state_cpi_near_one() {
        // A hot loop of independent ops: icache-warm CPI should approach 1
        // (the loop branch adds a small squash overhead per iteration).
        let mut src = String::from("li r1, 200\nloop:\n");
        for k in 0..14 {
            src.push_str(&format!("addi r{}, r0, 1\n", 2 + (k % 8)));
        }
        src.push_str("addi r1, r1, -1\nbne r1, r0, loop\nhalt\n");
        let (r, _) = run(&src, SaConfig::paper());
        assert!(r.cpi() < 1.35, "cpi {} too high", r.cpi());
    }

    #[test]
    fn taken_branches_squash_wrong_path() {
        let (r, _) = run(SUM_LOOP, SaConfig::paper());
        // 9 taken branches (10-iteration countdown loop). A branch
        // resolves in E while exactly one wrong-path fetch sits in F (the
        // redirect is visible to fetch within the same control step), so
        // one operation is squashed per taken branch — plus one more fetched
        // past the final exit syscall.
        assert_eq!(r.squashed, 10);
    }

    #[test]
    fn data_hazard_stalls_without_forwarding() {
        let dep_chain = "
            li r1, 1
            add r2, r1, r1
            add r3, r2, r2
            add r4, r3, r3
            add r5, r4, r4
            halt
        ";
        let (fwd, _) = run(dep_chain, SaConfig::paper());
        let cfg = SaConfig {
            forwarding: false,
            ..SaConfig::paper()
        };
        let (nofwd, _) = run(dep_chain, cfg);
        assert!(
            nofwd.cycles > fwd.cycles + 4,
            "no-forwarding ({}) should be slower than forwarding ({})",
            nofwd.cycles,
            fwd.cycles
        );
        assert_eq!(fwd.exit_code, nofwd.exit_code);
    }

    #[test]
    fn multiplier_occupies_execute() {
        let muls = "
            li r1, 7
            mul r2, r1, r1
            mul r3, r2, r1
            halt
        ";
        let (r, _) = run(muls, SaConfig::paper());
        let alus = "
            li r1, 7
            add r2, r1, r1
            add r3, r2, r1
            halt
        ";
        let (r2, _) = run(alus, SaConfig::paper());
        assert!(r.cycles > r2.cycles, "muls {} vs adds {}", r.cycles, r2.cycles);
    }

    #[test]
    fn cache_misses_stall_fetch() {
        // Same miss penalties, tiny geometry: more misses, more cycles.
        let mut small = SaConfig::paper();
        small.mem.icache.sets = 4;
        small.mem.icache.ways = 1;
        small.mem.dcache.sets = 4;
        small.mem.dcache.ways = 1;
        let big_loop = "
            li r1, 50
            la r2, buf
        loop:
            lw r3, 0(r2)
            lw r4, 512(r2)
            lw r5, 1024(r2)
            addi r2, r2, 4
            addi r1, r1, -1
            bne r1, r0, loop
            halt
        buf:
            .space 2048
        ";
        let p = minirisc::assemble(big_loop, 0x1000).unwrap();
        let mut small_sim = SaOsmSim::new(small, &p);
        let small_r = small_sim.run_to_halt(1_000_000).unwrap();
        let mut big_sim = SaOsmSim::new(SaConfig::paper(), &p);
        let big_r = big_sim.run_to_halt(1_000_000).unwrap();
        assert!(small_r.dcache_misses > big_r.dcache_misses);
        assert!(small_r.cycles > big_r.cycles);
    }

    #[test]
    fn load_use_has_one_cycle_penalty() {
        let load_use = "
            la r1, data
            lw r2, 0(r1)
            add r3, r2, r2   ; immediately uses the load
            halt
        data:
            .word 21
        ";
        let load_gap = "
            la r1, data
            lw r2, 0(r1)
            add r4, r0, r0   ; filler
            add r3, r2, r2
            halt
        data:
            .word 21
        ";
        let (use_now, _) = run(load_use, SaConfig::paper());
        let (gap, _) = run(load_gap, SaConfig::paper());
        // The filler hides the load-use bubble: same cycle count.
        assert_eq!(use_now.cycles, gap.cycles);
    }

    #[test]
    fn memory_traffic_program_works() {
        let (r, _) = run(
            "
            la r1, buf
            li r2, 8
            li r3, 0
        fill:
            sw r2, 0(r1)
            addi r1, r1, 4
            addi r2, r2, -1
            bne r2, r0, fill
            la r1, buf
            li r2, 8
        sum:
            lw r4, 0(r1)
            add r3, r3, r4
            addi r1, r1, 4
            addi r2, r2, -1
            bne r2, r0, sum
            li r10, 0
            add r11, r3, r0
            syscall
        buf:
            .space 32
        ",
            SaConfig::paper(),
        );
        assert_eq!(r.exit_code, 36); // 8+7+...+1
        assert!(r.dcache_misses > 0);
    }

    #[test]
    fn output_syscalls_captured() {
        let (r, _) = run(
            "
            li r10, 1
            li r11, 79 ; 'O'
            syscall
            li r10, 2
            li r11, 7
            syscall
            halt
        ",
            SaConfig::paper(),
        );
        assert_eq!(r.output_string(), "O7");
    }

    #[test]
    fn restart_policy_produces_identical_timing() {
        let p = assemble(SUM_LOOP, 0x1000).unwrap();
        let mut a = SaOsmSim::new(SaConfig::paper(), &p);
        let ra = a.run_to_halt(100_000).unwrap();
        let mut b = SaOsmSim::new(SaConfig::paper(), &p);
        b.machine_mut().set_restart_policy(RestartPolicy::Restart);
        let rb = b.run_to_halt(100_000).unwrap();
        assert_eq!(ra, rb);
    }

    #[test]
    fn spec_matches_figure6_shape() {
        let spec = build_spec(SaManagers::default());
        assert_eq!(spec.state_count(), 6);
        // 6 normal flow edges + 2 reset edges.
        assert_eq!(spec.edge_count(), 8);
        let f = spec.find_state("F").unwrap();
        // Reset edge first (higher priority).
        let out = spec.out_edges(f);
        assert_eq!(spec.edge(out[0]).name, "reset_f");
    }

    #[test]
    fn checkpoint_restore_replays_pipeline_exactly() {
        let p = assemble(SUM_LOOP, 0x1000).unwrap();
        let mut sim = SaOsmSim::new(SaConfig::paper(), &p);
        // Run into the middle of the loop, checkpoint with operations in
        // flight in every stage, then finish.
        for _ in 0..12 {
            sim.step().unwrap();
        }
        let ckpt = sim.checkpoint().unwrap();
        let reference = sim.run_to_halt(100_000).unwrap();
        assert_eq!(reference.exit_code, 55);
        // Rewind and re-run: bit-identical result, including timing.
        sim.restore(&ckpt).unwrap();
        assert_eq!(sim.machine().cycle(), 12);
        assert!(!sim.machine().shared.halted);
        let replay = sim.run_to_halt(100_000).unwrap();
        assert_eq!(replay, reference);
    }

    #[test]
    fn injected_cache_port_faults_stall_then_recover() {
        let p = assemble(SUM_LOOP, 0x1000).unwrap();
        let mut clean = SaOsmSim::new(SaConfig::paper(), &p);
        let reference = clean.run_to_halt(100_000).unwrap();

        let mut sim = SaOsmSim::new(SaConfig::paper(), &p);
        // Must exceed the worst-case natural stall (cold TLB walk + cache
        // miss + bus is ~60 cycles in the paper configuration).
        sim.set_stall_limit(Some(200));
        // Permanently deny the buffer stage (the D-cache port) from cycle 5:
        // the pipeline wedges and the watchdog must catch it.
        let handle = sim.inject_faults(
            sim.ids.mb,
            FaultPlan::new(0xBAD_5EED).blackhole(5, u64::MAX),
        );
        let ckpt = sim.checkpoint().unwrap(); // last known-good state
        let err = sim.run_to_halt(100_000).unwrap_err();
        let ModelError::Stalled(report) = err else {
            panic!("expected stall, got other error");
        };
        assert!(!report.blocked.is_empty());
        assert!(report
            .blocked
            .iter()
            .any(|b| b.waiting_on.iter().any(|w| w.manager_name == "buffer")));
        // Operator repairs the fault and rewinds to the checkpoint.
        handle.disable();
        assert!(handle.stats().total() > 0);
        sim.restore(&ckpt).unwrap();
        let recovered = sim.run_to_halt(100_000).unwrap();
        assert_eq!(recovered.exit_code, reference.exit_code);
        assert_eq!(recovered.retired, reference.retired);
        assert_eq!(recovered.output, reference.output);
    }

    #[test]
    fn checkpoint_restores_into_fresh_sim_replays_exactly() {
        let p = assemble(SUM_LOOP, 0x1000).unwrap();
        let mut sim = SaOsmSim::new(SaConfig::paper(), &p);
        for _ in 0..12 {
            sim.step().unwrap();
        }
        let bytes = sim.checkpoint().unwrap();
        let reference = sim.run_to_halt(100_000).unwrap();
        drop(sim); // the original is gone — restore must work from bytes alone

        let mut fresh = SaOsmSim::new(SaConfig::paper(), &p);
        fresh.restore(&bytes).unwrap();
        assert_eq!(fresh.machine().cycle(), 12);
        let replay = fresh.run_to_halt(100_000).unwrap();
        assert_eq!(replay, reference);

        // Tampered bytes are rejected by the seal.
        let mut bad = bytes.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x40;
        let mut victim = SaOsmSim::new(SaConfig::paper(), &p);
        assert!(victim.restore(&bad).is_err());
        // A differently-configured machine refuses the checkpoint.
        let mut other = SaOsmSim::new(
            SaConfig {
                forwarding: false,
                ..SaConfig::paper()
            },
            &p,
        );
        assert!(other.restore(&bytes).is_err());
    }

    #[test]
    fn deterministic_across_runs() {
        let p = assemble(SUM_LOOP, 0x1000).unwrap();
        let mut a = SaOsmSim::new(SaConfig::paper(), &p);
        a.machine_mut().enable_trace();
        let ra = a.run_to_halt(100_000).unwrap();
        let ta = a.machine_mut().take_trace().unwrap();
        let mut b = SaOsmSim::new(SaConfig::paper(), &p);
        b.machine_mut().enable_trace();
        let rb = b.run_to_halt(100_000).unwrap();
        let tb = b.machine_mut().take_trace().unwrap();
        assert_eq!(ra, rb);
        assert_eq!(ta.digest(), tb.digest());
    }
}
