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
use memsys::MemSystem;
use minirisc::{
    decode, encode, retire, CpuState, Flow, Instr, InstrClass, Memory, Program, SparseMemory,
};
use osm_core::{
    Behavior, ByteReader, ByteWriter, Edge, ExclusivePool, HardwareLayer, IdentExpr, Machine,
    ManagerId, ManagerTable, ModelError, OsmView, ResetManager, RestartPolicy, SlotId, SpecBuilder,
    StateId, StateMachineSpec, TokenIdent, TransitionCtx,
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

impl SaManagers {
    /// Installs the model's managers in `managers`: the five stage pools,
    /// a register file with forwarding network over `regs` registers, the
    /// multiplier and the reset manager.
    pub(crate) fn install(managers: &mut ManagerTable, regs: usize, forwarding: bool) -> Self {
        SaManagers {
            mf: managers.add(ExclusivePool::new("fetch", 1)),
            md: managers.add(ExclusivePool::new("decode", 1)),
            me: managers.add(ExclusivePool::new("execute", 1)),
            mb: managers.add(ExclusivePool::new("buffer", 1)),
            mw: managers.add(ExclusivePool::new("writeback", 1)),
            rff: managers.add(RegForwardFile::new("regfile+fwd", regs, forwarding)),
            mult: managers.add(ExclusivePool::new("multiplier", 1)),
            reset: managers.add(ResetManager::new("reset")),
        }
    }
}

/// Variable latency (paper §4): while a timer runs, its stage (or the
/// multiplier) refuses to release its token.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct StageTimers {
    /// Instruction-fetch miss penalty, held by the fetch stage.
    pub(crate) fetch: u32,
    /// Data-access miss penalty, held by the buffer stage.
    pub(crate) bstage: u32,
    /// Extra multiply/divide cycles, held by the multiplier.
    pub(crate) mult: u32,
}

impl StageTimers {
    /// The hardware-layer clock: applies each timer to its pool, then
    /// counts it down.
    pub(crate) fn clock(&mut self, ids: &SaManagers, managers: &mut ManagerTable) {
        let pool: &mut ExclusivePool = managers.downcast_mut(ids.mf);
        pool.block_release(0, self.fetch > 0);
        self.fetch = self.fetch.saturating_sub(1);

        let pool: &mut ExclusivePool = managers.downcast_mut(ids.mb);
        pool.block_release(0, self.bstage > 0);
        self.bstage = self.bstage.saturating_sub(1);

        let pool: &mut ExclusivePool = managers.downcast_mut(ids.mult);
        pool.block_release(0, self.mult > 0);
        self.mult = self.mult.saturating_sub(1);
    }
}

/// What each edge of the spec means (precomputed so the hot path never
/// string-matches edge names).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SaEdgeKind {
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
    /// First right-path error: an unknown syscall, in the ISS's words
    /// (undecodable words decode as NOPs and are not errors).
    pub error: Option<String>,
    /// Operations currently in F or D (squashable on a control transfer).
    pub(crate) young: Vec<osm_core::OsmId>,
    /// Retired instructions.
    pub retired: u64,
    /// Squashed wrong-path operations.
    pub squashed: u64,
    pub(crate) timers: StageTimers,
    pub(crate) edge_kinds: Vec<SaEdgeKind>,
    /// Manager handles (fault-injection targets and inspection).
    pub ids: SaManagers,
    pub(crate) cfg: SaConfig,
}

impl SaShared {
    pub(crate) fn new(
        cfg: SaConfig,
        program: &Program,
        ids: SaManagers,
        spec: &StateMachineSpec,
    ) -> Self {
        let edge_kinds = classify_edges(spec);
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
            timers: StageTimers::default(),
            edge_kinds,
            ids,
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
        self.timers.clock(&self.ids, managers);
    }

    fn halted(&self) -> bool {
        self.halted
    }

    /// All mutable hardware-layer state: CPU, memories, fetch redirection,
    /// timers, result counters. Static configuration (manager ids, edge
    /// classification and fetch bits, `SaConfig`) stays with the machine.
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
        w.put_u32(self.timers.fetch);
        w.put_u32(self.timers.bstage);
        w.put_u32(self.timers.mult);
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
            s.timers.fetch = r.take_u32()?;
            s.timers.bstage = r.take_u32()?;
            s.timers.mult = r.take_u32()?;
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

/// The tag is part of every register-token identifier (§6): thread `tag`'s
/// register `r` is identifier `tag * 64 + r`, so at the single-threaded
/// model's tag 0 it is `r` itself.
fn thread_reg(tag: u64, r: usize) -> usize {
    tag as usize * 64 + r
}

/// Per-operation behavior: decodes, initializes token identifiers, executes
/// semantics at E, and drives the hazard idioms. It reads and writes the
/// architectural state of its own thread, which is the one in `SaShared`
/// whenever it runs (the SMT core swaps it in first).
#[derive(Debug, Default)]
pub(crate) struct SaOp {
    pc: u32,
    instr: Instr,
    mem_addr: Option<u32>,
    is_halting: bool,
}

fn edge_kind(edge: &Edge) -> SaEdgeKind {
    match edge.name.as_str() {
        "fetch" => SaEdgeKind::Fetch,
        "reset_f" => SaEdgeKind::ResetF,
        "reset_d" => SaEdgeKind::ResetD,
        "decode" => SaEdgeKind::Decode,
        "issue" => SaEdgeKind::Issue,
        "mem" => SaEdgeKind::Mem,
        "wb" => SaEdgeKind::Wb,
        "retire" => SaEdgeKind::Retire,
        other => unreachable!("unknown edge `{other}`"),
    }
}

pub(crate) fn classify_edges(spec: &StateMachineSpec) -> Vec<SaEdgeKind> {
    spec.edges().map(edge_kind).collect()
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

    /// The bits of `state`'s fetch edges: fetch is the only edge a stopped
    /// front end vetoes.
    fn vetoable_edges(spec: &StateMachineSpec, state: StateId) -> u64 {
        spec.edge_mask(state, |e| edge_kind(e) == SaEdgeKind::Fetch)
    }

    fn enabled_edges(&self, _: &StateMachineSpec, _: &OsmView<'_>, shared: &SaShared) -> u64 {
        // Fetch stops once the halting operation has executed: every
        // declared edge, the fetch edges, is vetoed.
        if shared.stop_fetch {
            0
        } else {
            u64::MAX
        }
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
                ctx.shared.timers.fetch = penalty;
            }
            SaEdgeKind::Decode => {
                let word = ctx.shared.mem.read_u32(self.pc);
                self.instr = decode(word).unwrap_or(Instr::NOP);
                // Initialize all allocation and inquiry identifiers (§4).
                let (tag, sources) = (ctx.tag, self.instr.sources());
                let src_ident = |k: usize| {
                    sources
                        .get(k)
                        .map(|r| RegForwardFile::value_ident(thread_reg(tag, r.flat_index())))
                        .unwrap_or(TokenIdent::NONE)
                };
                ctx.set_slot(S_SRC1, src_ident(0));
                ctx.set_slot(S_SRC2, src_ident(1));
                ctx.set_slot(
                    S_DEST,
                    self.instr
                        .dest()
                        .map(|r| RegForwardFile::update_ident(thread_reg(tag, r.flat_index())))
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
                let s = &mut *ctx.shared;
                s.cpu.pc = self.pc;
                let retired = retire(self.instr, &mut s.cpu, &mut s.mem, &mut s.output);
                self.mem_addr = retired.mem_addr;
                match retired.flow {
                    Flow::Next => {}
                    Flow::Taken(target) => s.next_fetch_pc = target,
                    Flow::Halt => self.is_halting = true,
                    Flow::Exit(code) => {
                        self.is_halting = true;
                        s.exit_code = code;
                    }
                    Flow::Fault(e) => {
                        self.is_halting = true;
                        s.error.get_or_insert_with(|| e.to_string());
                    }
                }
                // A redirect or the program's end squashes the front end.
                if retired.flow != Flow::Next {
                    s.stop_fetch |= self.is_halting;
                    s.squash_young(ctx.managers);
                }
                match self.instr.class() {
                    InstrClass::IntMul => ctx.shared.timers.mult = ctx.shared.cfg.mul_extra,
                    InstrClass::IntDiv => ctx.shared.timers.mult = ctx.shared.cfg.div_extra,
                    _ => {}
                }
                // Non-load results are forwardable as soon as E computes them.
                if self.instr.class() != InstrClass::Load {
                    if let Some(dest) = self.instr.dest() {
                        let rff: &mut RegForwardFile = ctx.managers.downcast_mut(ctx.shared.ids.rff);
                        rff.mark_ready(thread_reg(ctx.tag, dest.flat_index()));
                    }
                }
            }
            SaEdgeKind::Mem => {
                if let Some(addr) = self.mem_addr.take() {
                    let penalty = ctx.shared.memsys.data_penalty(addr);
                    ctx.shared.timers.bstage = penalty;
                }
            }
            SaEdgeKind::Wb => {
                // Load results become forwardable once the D-cache access in
                // B completes — the classic 1-cycle load-use penalty.
                if self.instr.class() == InstrClass::Load {
                    if let Some(dest) = self.instr.dest() {
                        let rff: &mut RegForwardFile = ctx.managers.downcast_mut(ctx.shared.ids.rff);
                        rff.mark_ready(thread_reg(ctx.tag, dest.flat_index()));
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
                    ctx.shared.timers.fetch = 0;
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
///
/// A model runner of the same shape as every other simulator in the
/// workspace: build it with [`SaOsmSim::new`], run it with
/// [`SaOsmSim::run_to_halt`], read [`SaOsmSim::result`]. Everything else —
/// stepping, checkpoints, fault injection, the stall watchdog, the
/// observability switches — is the [`Machine`]'s; the manager handles are
/// `machine().shared.ids` and the Fig. 6 spec is `machine().specs()[0]`.
pub struct SaOsmSim {
    machine: Machine<SaShared>,
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
        let mut managers = ManagerTable::new();
        let ids = SaManagers::install(&mut managers, 64, cfg.forwarding);
        let spec = build_spec(ids);
        let mut machine = Machine::new(SaShared::new(cfg, program, ids, &spec));
        machine.managers = managers;
        for _ in 0..cfg.osm_count.max(6) {
            machine.add_osm(&spec, SaOp::default());
        }
        // The paper's case studies rank by age and skip the outer-loop
        // restart (§5): with seniors served first it changes nothing.
        machine.set_restart_policy(RestartPolicy::NoRestart);
        SaOsmSim { machine }
    }

    /// The underlying machine (stepping, checkpoints, stats, manager
    /// inspection, the metrics and stall reports; `osm_core::export`
    /// renders its event log).
    pub fn machine(&self) -> &Machine<SaShared> {
        &self.machine
    }

    /// Mutable access to the underlying machine (scheduler mode, the stall
    /// watchdog, fault injection through its `managers`, checkpoint
    /// restore, the observability switches such as
    /// [`Machine::enable_observability`]).
    pub fn machine_mut(&mut self) -> &mut Machine<SaShared> {
        &mut self.machine
    }

    /// Unwraps the underlying machine (manager handles stay in
    /// `shared.ids`).
    pub fn into_machine(self) -> Machine<SaShared> {
        self.machine
    }

    /// Runs until the program halts or the machine reaches cycle
    /// `max_cycles` (an absolute cycle, so a restored machine keeps its
    /// budget).
    ///
    /// # Errors
    /// Returns [`ModelError`] on deadlock or a tripped stall watchdog;
    /// reaching `max_cycles` is reported through the result's
    /// `cycles == max_cycles` with `halted` false in the shared state.
    pub fn run_to_halt(&mut self, max_cycles: u64) -> Result<SimResult, ModelError> {
        let budget = max_cycles.saturating_sub(self.machine.cycle());
        self.machine.run_until(budget, |m| m.shared.halted())?;
        Ok(self.result())
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
            error: s.error.clone(),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use minirisc::assemble;
    use osm_core::{FaultInjector, FaultPlan};

    /// The veto rule one edge at a time, for a front end that has stopped or
    /// not: the oracle of the fetch-bit masks.
    fn fetch_edge_rule(kind: SaEdgeKind, stop_fetch: bool) -> bool {
        kind != SaEdgeKind::Fetch || !stop_fetch
    }

    /// The edges an `enabled_edges` answer leaves enabled, as the director
    /// reads it (only at the bits the behavior `declared` vetoable), in
    /// every state against the per-edge rule, for both values of the fetch
    /// gate.
    pub(crate) fn assert_fetch_masks_match_the_rule(
        spec: &StateMachineSpec,
        kinds: &[SaEdgeKind],
        declared: impl Fn(StateId) -> u64,
        mut enabled: impl FnMut(StateId, bool) -> u64,
    ) {
        for state in spec.states() {
            let all = spec.edge_mask(state, |_| true);
            for stop_fetch in [false, true] {
                let rule =
                    spec.edge_mask(state, |e| fetch_edge_rule(kinds[e.id.index()], stop_fetch));
                let read = (enabled(state, stop_fetch) | !declared(state)) & all;
                let name = spec.state_name(state);
                assert_eq!(read, rule, "state {name} stop_fetch {stop_fetch}");
            }
        }
    }

    #[test]
    fn enabled_edges_match_the_per_edge_rule_everywhere() {
        let p = assemble("halt\n", 0x1000).unwrap();
        let mut sim = SaOsmSim::new(SaConfig::paper(), &p);
        let spec = Arc::clone(&sim.machine.specs()[0]);
        let kinds = sim.machine.shared.edge_kinds.clone();
        let shared = &mut sim.machine.shared;
        let declared = |state| SaOp::vetoable_edges(&spec, state);
        assert_fetch_masks_match_the_rule(&spec, &kinds, declared, |state, stop_fetch| {
            shared.stop_fetch = stop_fetch;
            let view = OsmView {
                id: osm_core::OsmId(0),
                state,
                age: 0,
                tag: 0,
                slots: &[],
                buffer: &[],
            };
            SaOp::default().enabled_edges(&spec, &view, shared)
        });
    }

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
        let p = assemble("halt\n", 0).unwrap();
        let sim = SaOsmSim::new(SaConfig::paper(), &p);
        let spec = &sim.machine().specs()[0];
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
        sim.machine_mut().run(12).unwrap();
        let ckpt = sim.machine().checkpoint().unwrap();
        let reference = sim.run_to_halt(100_000).unwrap();
        assert_eq!(reference.exit_code, 55);
        // Rewind and re-run: bit-identical result, including timing.
        sim.machine_mut().restore(&ckpt).unwrap();
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
        let machine = sim.machine_mut();
        machine.set_stall_limit(Some(200));
        // Permanently deny the buffer stage (the D-cache port) from cycle 5:
        // the pipeline wedges and the watchdog must catch it.
        let buffer = machine.shared.ids.mb;
        let plan = FaultPlan::new(0xBAD_5EED).blackhole(5, u64::MAX);
        let handle = FaultInjector::install(&mut machine.managers, buffer, plan);
        let ckpt = machine.checkpoint().unwrap(); // last known-good state
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
        sim.machine_mut().restore(&ckpt).unwrap();
        let recovered = sim.run_to_halt(100_000).unwrap();
        assert_eq!(recovered.exit_code, reference.exit_code);
        assert_eq!(recovered.retired, reference.retired);
        assert_eq!(recovered.output, reference.output);
    }

    #[test]
    fn checkpoint_restores_into_fresh_sim_replays_exactly() {
        let p = assemble(SUM_LOOP, 0x1000).unwrap();
        let mut sim = SaOsmSim::new(SaConfig::paper(), &p);
        sim.machine_mut().run(12).unwrap();
        let bytes = sim.machine().checkpoint().unwrap();
        let reference = sim.run_to_halt(100_000).unwrap();
        drop(sim); // the original is gone — restore must work from bytes alone

        let mut fresh = SaOsmSim::new(SaConfig::paper(), &p);
        fresh.machine_mut().restore(&bytes).unwrap();
        assert_eq!(fresh.machine().cycle(), 12);
        let replay = fresh.run_to_halt(100_000).unwrap();
        assert_eq!(replay, reference);

        // Tampered bytes are rejected by the seal.
        let mut bad = bytes.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x40;
        let mut victim = SaOsmSim::new(SaConfig::paper(), &p);
        assert!(victim.machine_mut().restore(&bad).is_err());
        // A differently-configured machine refuses the checkpoint.
        let mut other = SaOsmSim::new(
            SaConfig {
                forwarding: false,
                ..SaConfig::paper()
            },
            &p,
        );
        assert!(other.machine_mut().restore(&bytes).is_err());
    }

    #[test]
    fn restored_run_stops_at_the_absolute_cycle_budget() {
        // `run_to_halt` takes an absolute cycle while `Machine::run_until`
        // counts cycles from where the machine stands: a run resumed from a
        // checkpoint cut at `cut` must still stop at cycle `stop`.
        let p = assemble(SUM_LOOP, 0x1000).unwrap();
        let (cut, stop) = (12, 30);
        let mut sim = SaOsmSim::new(SaConfig::paper(), &p);
        sim.machine_mut().run(cut).unwrap();
        let bytes = sim.machine().checkpoint().unwrap();

        let mut restored = SaOsmSim::new(SaConfig::paper(), &p);
        restored.machine_mut().restore(&bytes).unwrap();
        let resumed = restored.run_to_halt(stop).unwrap();
        assert!(
            !restored.machine().shared.halted,
            "the budget ends short of the halt"
        );
        assert_eq!(resumed.cycles, stop);
        let fresh = SaOsmSim::new(SaConfig::paper(), &p)
            .run_to_halt(stop)
            .unwrap();
        assert_eq!(resumed, fresh);
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
