//! A two-thread SMT variant of the StrongARM pipeline — the paper's
//! multithreading extension (§6): "each OSM carries a tag indicating the
//! thread that it belongs to. The tags are used as part of the identifiers
//! for token transactions and may contribute to the ranking of the OSMs."
//!
//! Both points are taken literally:
//!
//! * one [`RegForwardFile`] serves both threads; thread `t`'s register `r`
//!   is identifier `t * 64 + r` — the tag is part of the token identifier;
//! * fetch arbitration is a tag-aware ranking policy: among idle OSMs the
//!   cycle's preferred thread ranks first (round-robin), while in-flight
//!   operations keep ordinary age order.
//!
//! The pipeline stages, multiplier and caches are *shared* (true SMT): one
//! thread's bubbles (taken-branch squashes, data-hazard stalls) are filled
//! by the other thread's operations.

use crate::config::SaConfig;
use crate::forward::RegForwardFile;
use crate::osm_model::{
    build_spec, classify_edges, fetch_bits, SaEdgeKind, SaManagers, StageTimers, S_DEST, S_MULT,
    S_SRC1, S_SRC2,
};
use memsys::MemSystem;
use minirisc::{decode, retire, CpuState, Flow, Instr, InstrClass, Memory, Program, SparseMemory};
use osm_core::{
    Behavior, Edge, ExclusivePool, HardwareLayer, Machine, ManagerTable, ModelError, OsmId,
    OsmView, ResetManager, RestartPolicy, StateId, StateMachineSpec, TokenIdent, TransitionCtx,
    IDLE_AGE,
};

/// Per-thread architectural and front-end state.
#[derive(Debug)]
struct ThreadState {
    cpu: CpuState,
    next_fetch_pc: u32,
    stop_fetch: bool,
    halted: bool,
    exit_code: u32,
    output: Vec<u8>,
    young: Vec<OsmId>,
    retired: u64,
    squashed: u64,
    /// First error: an unknown syscall, in the ISS's words.
    error: Option<String>,
}

impl ThreadState {
    fn new(entry: u32) -> Self {
        ThreadState {
            cpu: CpuState::new(entry),
            next_fetch_pc: entry,
            stop_fetch: false,
            halted: false,
            exit_code: 0,
            output: Vec::new(),
            young: Vec::new(),
            retired: 0,
            squashed: 0,
            error: None,
        }
    }

    fn result(&self) -> SmtThreadResult {
        SmtThreadResult {
            retired: self.retired,
            squashed: self.squashed,
            exit_code: self.exit_code,
            output: self.output.clone(),
            error: self.error.clone(),
        }
    }
}

/// Shared hardware state of the SMT core.
#[derive(Debug)]
pub struct SmtShared {
    threads: [ThreadState; 2],
    /// Shared functional memory (both programs loaded at distinct bases).
    pub mem: SparseMemory,
    /// Shared caches and TLBs.
    pub memsys: MemSystem,
    /// Thread preferred by this cycle's fetch arbitration.
    pub preferred: u64,
    timers: StageTimers,
    edge_kinds: Vec<SaEdgeKind>,
    ids: SaManagers,
    cfg: SaConfig,
}

impl HardwareLayer for SmtShared {
    fn clock(&mut self, cycle: u64, managers: &mut ManagerTable) {
        self.preferred = cycle % 2;
        self.timers.clock(&self.ids, managers);
    }

    /// Halted once both threads are.
    fn halted(&self) -> bool {
        self.threads.iter().all(|t| t.halted)
    }
}

/// The tag is part of every register-token identifier (§6).
fn thread_reg(tag: u64, flat: usize) -> usize {
    tag as usize * 64 + flat
}

#[derive(Debug, Default)]
struct SmtOp {
    pc: u32,
    instr: Instr,
    mem_addr: Option<u32>,
    is_halting: bool,
}

impl Behavior<SmtShared> for SmtOp {
    fn vetoable_edges(spec: &StateMachineSpec, state: StateId) -> u64 {
        fetch_bits(spec, state)
    }

    fn enabled_edges(&self, _: &StateMachineSpec, view: &OsmView<'_>, shared: &SmtShared) -> u64 {
        // Each thread's fetch stops once its halting operation has executed:
        // every declared edge, the fetch edges, is vetoed.
        if shared.threads[view.tag as usize].stop_fetch {
            0
        } else {
            u64::MAX
        }
    }

    fn on_transition(&mut self, edge: &Edge, ctx: &mut TransitionCtx<'_, SmtShared>) {
        let tag = ctx.tag as usize;
        match ctx.shared.edge_kinds[edge.id.index()] {
            SaEdgeKind::Fetch => {
                let thread = &mut ctx.shared.threads[tag];
                self.pc = thread.next_fetch_pc;
                thread.next_fetch_pc = thread.next_fetch_pc.wrapping_add(4);
                self.is_halting = false;
                self.mem_addr = None;
                thread.young.push(ctx.osm);
                let penalty = ctx.shared.memsys.fetch_penalty(self.pc);
                ctx.shared.timers.fetch = penalty;
            }
            SaEdgeKind::Decode => {
                let word = ctx.shared.mem.read_u32(self.pc);
                self.instr = decode(word).unwrap_or(Instr::NOP);
                let sources = self.instr.sources();
                let tag = ctx.tag;
                let src = |k: usize| {
                    sources
                        .get(k)
                        .map(|r| RegForwardFile::value_ident(thread_reg(tag, r.flat_index())))
                        .unwrap_or(TokenIdent::NONE)
                };
                ctx.set_slot(S_SRC1, src(0));
                ctx.set_slot(S_SRC2, src(1));
                let dest = self
                    .instr
                    .dest()
                    .map(|r| RegForwardFile::update_ident(thread_reg(ctx.tag, r.flat_index())))
                    .unwrap_or(TokenIdent::NONE);
                ctx.set_slot(S_DEST, dest);
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
                let osm = ctx.osm;
                // Execute against this thread's architectural state.
                let (threads, mem) = (&mut ctx.shared.threads, &mut ctx.shared.mem);
                let thread = &mut threads[tag];
                thread.young.retain(|o| *o != osm);
                thread.cpu.pc = self.pc;
                let retired = retire(self.instr, &mut thread.cpu, mem, &mut thread.output);
                self.mem_addr = retired.mem_addr;
                match retired.flow {
                    Flow::Next => {}
                    Flow::Taken(target) => thread.next_fetch_pc = target,
                    Flow::Halt => self.is_halting = true,
                    Flow::Fault(e) => {
                        self.is_halting = true;
                        thread.error.get_or_insert_with(|| e.to_string());
                    }
                    Flow::Exit(code) => {
                        self.is_halting = true;
                        thread.exit_code = code;
                    }
                }
                // A redirect or the thread's end squashes its front end.
                if retired.flow != Flow::Next {
                    thread.stop_fetch |= self.is_halting;
                    let reset: &mut ResetManager = ctx.managers.downcast_mut(ctx.shared.ids.reset);
                    for &osm in &thread.young {
                        reset.arm(osm);
                    }
                }
                match self.instr.class() {
                    InstrClass::IntMul => ctx.shared.timers.mult = ctx.shared.cfg.mul_extra,
                    InstrClass::IntDiv => ctx.shared.timers.mult = ctx.shared.cfg.div_extra,
                    _ => {}
                }
                if self.instr.class() != InstrClass::Load {
                    if let Some(dest) = self.instr.dest() {
                        let rff: &mut RegForwardFile =
                            ctx.managers.downcast_mut(ctx.shared.ids.rff);
                        rff.mark_ready(thread_reg(ctx.tag, dest.flat_index()));
                    }
                }
            }
            SaEdgeKind::Mem => {
                if let Some(addr) = self.mem_addr.take() {
                    ctx.shared.timers.bstage = ctx.shared.memsys.data_penalty(addr);
                }
            }
            SaEdgeKind::Wb => {
                if self.instr.class() == InstrClass::Load {
                    if let Some(dest) = self.instr.dest() {
                        let rff: &mut RegForwardFile =
                            ctx.managers.downcast_mut(ctx.shared.ids.rff);
                        rff.mark_ready(thread_reg(ctx.tag, dest.flat_index()));
                    }
                }
            }
            SaEdgeKind::Retire => {
                let thread = &mut ctx.shared.threads[tag];
                thread.retired += 1;
                if self.is_halting {
                    thread.halted = true;
                }
            }
            kind @ (SaEdgeKind::ResetF | SaEdgeKind::ResetD) => {
                let osm = ctx.osm;
                let thread = &mut ctx.shared.threads[tag];
                thread.young.retain(|o| *o != osm);
                thread.squashed += 1;
                if kind == SaEdgeKind::ResetF {
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

/// Per-thread results of an SMT run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmtThreadResult {
    /// Retired instructions.
    pub retired: u64,
    /// Squashed wrong-path operations.
    pub squashed: u64,
    /// Exit code.
    pub exit_code: u32,
    /// Output bytes.
    pub output: Vec<u8>,
    /// Why the ISS refused the instruction that stopped the thread (an
    /// unknown syscall), if it refused one.
    pub error: Option<String>,
}

/// Result of an SMT run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmtResult {
    /// Cycles until both threads halted.
    pub cycles: u64,
    /// Per-thread results.
    pub threads: [SmtThreadResult; 2],
}

/// The two-thread SMT StrongARM simulator, a model runner of the same
/// shape as [`crate::SaOsmSim`]: everything beyond building, running and
/// the result is the [`Machine`]'s.
pub struct SmtSim {
    machine: Machine<SmtShared>,
}

impl std::fmt::Debug for SmtSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SmtSim")
            .field("cycle", &self.machine.cycle())
            .finish()
    }
}

impl SmtSim {
    /// Builds the SMT core with one program per thread (the programs must
    /// occupy disjoint address ranges — both are loaded into the shared
    /// memory).
    pub fn new(cfg: SaConfig, programs: [&Program; 2]) -> Self {
        let mut mem = SparseMemory::new();
        programs[0].load_into(&mut mem);
        programs[1].load_into(&mut mem);
        let mut managers = ManagerTable::new();
        // 128 registers: thread tag selects the upper half (§6).
        let ids = SaManagers::install(&mut managers, 128, cfg.forwarding);
        let spec = build_spec(ids);
        let edge_kinds = classify_edges(&spec);
        let shared = SmtShared {
            threads: programs.map(|p| ThreadState::new(p.entry)),
            mem,
            memsys: MemSystem::new(cfg.mem),
            preferred: 0,
            timers: StageTimers::default(),
            edge_kinds,
            ids,
            cfg,
        };
        let mut machine = Machine::new(shared);
        machine.managers = managers;
        for tag in 0..2u64 {
            for _ in 0..cfg.osm_count.max(6) / 2 + 1 {
                machine.add_osm_tagged(&spec, SmtOp::default(), tag);
            }
        }
        // Tag-aware ranking: in-flight ops by age; among idle OSMs the
        // preferred thread of the cycle fetches first (round-robin).
        machine.set_ranker(|view: &OsmView<'_>, shared: &SmtShared| {
            if view.age != IDLE_AGE {
                view.age
            } else if view.tag == shared.preferred {
                IDLE_AGE - 1
            } else {
                IDLE_AGE
            }
        });
        machine.set_restart_policy(RestartPolicy::NoRestart);
        SmtSim { machine }
    }

    /// The underlying machine.
    pub fn machine(&self) -> &Machine<SmtShared> {
        &self.machine
    }

    /// Mutable access to the underlying machine (scheduler-mode selection,
    /// observability switches, A/B experiments).
    pub fn machine_mut(&mut self) -> &mut Machine<SmtShared> {
        &mut self.machine
    }

    /// Unwraps the underlying machine.
    pub fn into_machine(self) -> Machine<SmtShared> {
        self.machine
    }

    /// Runs until both threads halt or the machine reaches cycle
    /// `max_cycles`.
    ///
    /// # Errors
    /// Propagates [`ModelError`] (deadlock).
    pub fn run_to_halt(&mut self, max_cycles: u64) -> Result<SmtResult, ModelError> {
        let budget = max_cycles.saturating_sub(self.machine.cycle());
        self.machine.run_until(budget, |m| m.shared.halted())?;
        Ok(self.result())
    }

    /// Snapshot of the current result counters.
    pub fn result(&self) -> SmtResult {
        SmtResult {
            cycles: self.machine.cycle(),
            threads: self
                .machine
                .shared
                .threads
                .each_ref()
                .map(ThreadState::result),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::osm_model::SaOsmSim;
    use minirisc::assemble;
    use osm_core::SchedulerMode;

    const LOOP_A: &str = "
        li r1, 60
        li r2, 0
    loop:
        add r2, r2, r1
        addi r1, r1, -1
        bne r1, r0, loop
        li r10, 0
        andi r11, r2, 8191
        syscall
    ";

    const LOOP_B: &str = "
        li r1, 40
        li r3, 1
    loop:
        mul r3, r3, r1
        andi r3, r3, 1023
        addi r1, r1, -1
        bne r1, r0, loop
        li r10, 0
        add r11, r3, r0
        syscall
    ";

    fn programs() -> (minirisc::Program, minirisc::Program) {
        (
            assemble(LOOP_A, 0x1000).unwrap(),
            assemble(LOOP_B, 0x4000).unwrap(),
        )
    }

    #[test]
    fn enabled_edges_match_the_per_edge_rule_everywhere() {
        use crate::osm_model::tests::assert_fetch_masks_match_the_rule;
        let (pa, pb) = programs();
        let mut smt = SmtSim::new(SaConfig::paper(), [&pa, &pb]);
        let spec = smt.machine().specs()[0].clone();
        let shared = &mut smt.machine_mut().shared;
        let kinds = shared.edge_kinds.clone();
        let declared = |state| SmtOp::vetoable_edges(&spec, state);
        for tag in 0..2 {
            assert_fetch_masks_match_the_rule(&spec, &kinds, declared, |state, stop| {
                // The other thread's gate reads the opposite: only the
                // OSM's own thread counts.
                shared.threads[tag].stop_fetch = stop;
                shared.threads[1 - tag].stop_fetch = !stop;
                let view = OsmView {
                    id: OsmId(0),
                    state,
                    age: 0,
                    tag: tag as u64,
                    slots: &[],
                    buffer: &[],
                };
                SmtOp::default().enabled_edges(&spec, &view, shared)
            });
        }
    }

    #[test]
    fn both_threads_complete_with_correct_results() {
        let (pa, pb) = programs();
        let mut smt = SmtSim::new(SaConfig::paper(), [&pa, &pb]);
        let r = smt.run_to_halt(1_000_000).expect("no deadlock");

        // Single-thread golden results.
        let a = SaOsmSim::new(SaConfig::paper(), &pa)
            .run_to_halt(1_000_000)
            .expect("runs");
        let b = SaOsmSim::new(SaConfig::paper(), &pb)
            .run_to_halt(1_000_000)
            .expect("runs");
        assert_eq!(r.threads[0].exit_code, a.exit_code);
        assert_eq!(r.threads[1].exit_code, b.exit_code);
        assert_eq!(r.threads[0].retired, a.retired);
        assert_eq!(r.threads[1].retired, b.retired);
    }

    #[test]
    fn smt_beats_back_to_back_execution() {
        let (pa, pb) = programs();
        let mut smt = SmtSim::new(SaConfig::paper(), [&pa, &pb]);
        let r = smt.run_to_halt(1_000_000).expect("no deadlock");
        let a = SaOsmSim::new(SaConfig::paper(), &pa)
            .run_to_halt(1_000_000)
            .expect("runs");
        let b = SaOsmSim::new(SaConfig::paper(), &pb)
            .run_to_halt(1_000_000)
            .expect("runs");
        // Interleaving fills each thread's squash/stall bubbles with the
        // other thread's work.
        assert!(
            r.cycles < a.cycles + b.cycles,
            "SMT {} vs serial {}",
            r.cycles,
            a.cycles + b.cycles
        );
    }

    #[test]
    fn threads_are_isolated_through_tagged_identifiers() {
        // Both programs hammer the same architectural registers; tags keep
        // their tokens (and values) apart.
        let (pa, pb) = programs();
        let mut smt = SmtSim::new(SaConfig::paper(), [&pa, &pb]);
        let r = smt.run_to_halt(1_000_000).expect("no deadlock");
        assert_eq!(r.threads[0].exit_code, 1830); // sum 1..60
        assert_ne!(r.threads[0].exit_code, r.threads[1].exit_code);
    }

    #[test]
    fn timing_and_digest_are_pinned() {
        // The only named model on the reference Fig. 3 loop under a custom
        // ranker, which it runs in both scheduler modes. Its cycles,
        // per-thread retired and squashed counts and transition digest on
        // the two loops are pinned, so any change to its timing shows.
        let (pa, pb) = programs();
        for mode in [SchedulerMode::Seed, SchedulerMode::Fast] {
            let mut smt = SmtSim::new(SaConfig::paper(), [&pa, &pb]);
            smt.machine_mut().set_scheduler_mode(mode);
            smt.machine_mut().enable_trace();
            let r = smt.run_to_halt(1_000_000).expect("no deadlock");
            let threads = r.threads.each_ref().map(|t| (t.retired, t.squashed));
            let digest = smt.machine().trace_digest().expect("trace on");
            assert_eq!(
                (r.cycles, threads, digest),
                (629, [(185, 21), (165, 0)], 0xe948_8fb2_018a_471b),
                "{mode:?}"
            );
        }
    }

    #[test]
    fn deterministic() {
        let (pa, pb) = programs();
        let a = SmtSim::new(SaConfig::paper(), [&pa, &pb])
            .run_to_halt(1_000_000)
            .expect("runs");
        let b = SmtSim::new(SaConfig::paper(), [&pa, &pb])
            .run_to_halt(1_000_000)
            .expect("runs");
        assert_eq!(a, b);
    }
}
