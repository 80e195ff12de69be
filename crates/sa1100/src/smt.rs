//! A two-thread SMT variant of the StrongARM pipeline — the paper's
//! multithreading extension (§6): "each OSM carries a tag indicating the
//! thread that it belongs to. The tags are used as part of the identifiers
//! for token transactions and may contribute to the ranking of the OSMs."
//!
//! Both points are taken literally, on the single-threaded model's own
//! operation:
//!
//! * one [`RegForwardFile`](crate::RegForwardFile) serves both threads;
//!   thread `t`'s register `r` is identifier `t * 64 + r`, since the
//!   StrongARM operation names every register through its OSM's tag;
//! * fetch arbitration is a tag-aware ranking policy: among idle OSMs the
//!   cycle's preferred thread ranks first (round-robin), while in-flight
//!   operations keep ordinary age order.
//!
//! The pipeline stages, multiplier and caches are *shared* (true SMT): one
//! thread's bubbles (taken-branch squashes, data-hazard stalls) are filled
//! by the other thread's operations. The shared state is the StrongARM's
//! [`SaShared`], which holds the running thread's context in place, plus
//! the other thread's context, parked. An operation of the parked thread
//! swaps the two contexts before it transitions, so the one StrongARM
//! operation serves both threads unchanged.

use crate::config::SaConfig;
use crate::osm_model::{build_spec, SaManagers, SaOp, SaShared};
use minirisc::{CpuState, Program};
use osm_core::{
    Behavior, Edge, HardwareLayer, Machine, ManagerTable, ModelError, OsmId, OsmView,
    RestartPolicy, StateId, StateMachineSpec, TransitionCtx, IDLE_AGE,
};

/// The per-thread fields of [`SaShared`]: a parked thread's architectural
/// and front-end state.
#[derive(Debug)]
struct ThreadContext {
    cpu: CpuState,
    next_fetch_pc: u32,
    stop_fetch: bool,
    halted: bool,
    exit_code: u32,
    output: Vec<u8>,
    error: Option<String>,
    young: Vec<OsmId>,
    retired: u64,
    squashed: u64,
}

impl ThreadContext {
    fn new(entry: u32) -> Self {
        ThreadContext {
            cpu: CpuState::new(entry),
            next_fetch_pc: entry,
            stop_fetch: false,
            halted: false,
            exit_code: 0,
            output: Vec::new(),
            error: None,
            young: Vec::new(),
            retired: 0,
            squashed: 0,
        }
    }

    /// Exchanges this context with the one running in `core`. Every field
    /// of `SaShared` is named here: one added later fails to compile until
    /// it is sorted into per-thread (swapped) or shared (`_`).
    fn swap_with(&mut self, core: &mut SaShared) {
        let SaShared {
            cpu,
            mem: _,
            memsys: _,
            next_fetch_pc,
            stop_fetch,
            halted,
            exit_code,
            output,
            error,
            young,
            retired,
            squashed,
            timers: _,
            edge_kinds: _,
            ids: _,
            cfg: _,
        } = core;
        std::mem::swap(cpu, &mut self.cpu);
        std::mem::swap(next_fetch_pc, &mut self.next_fetch_pc);
        std::mem::swap(stop_fetch, &mut self.stop_fetch);
        std::mem::swap(halted, &mut self.halted);
        std::mem::swap(exit_code, &mut self.exit_code);
        std::mem::swap(output, &mut self.output);
        std::mem::swap(error, &mut self.error);
        std::mem::swap(young, &mut self.young);
        std::mem::swap(retired, &mut self.retired);
        std::mem::swap(squashed, &mut self.squashed);
    }
}

/// Shared hardware state of the SMT core: the StrongARM's shared state,
/// whose per-thread fields belong to the running thread, and the other
/// thread's context.
#[derive(Debug)]
pub struct SmtShared {
    /// Memory, caches, stage timers and manager handles for both threads,
    /// and the running thread's context.
    core: SaShared,
    /// The context of the thread that is not running.
    parked: ThreadContext,
    /// Tag of the thread whose context is in `core`.
    running: u64,
    /// Thread preferred by this cycle's fetch arbitration.
    pub preferred: u64,
}

impl HardwareLayer for SmtShared {
    fn clock(&mut self, cycle: u64, managers: &mut ManagerTable) {
        self.preferred = cycle % 2;
        self.core.clock(cycle, managers);
    }

    /// Halted once both threads are.
    fn halted(&self) -> bool {
        self.core.halted && self.parked.halted
    }
}

/// The StrongARM operation on the thread of its OSM's tag.
#[derive(Debug, Default)]
struct SmtOp(SaOp);

impl Behavior<SmtShared> for SmtOp {
    fn vetoable_edges(spec: &StateMachineSpec, state: StateId) -> u64 {
        SaOp::vetoable_edges(spec, state)
    }

    fn enabled_edges(&self, _: &StateMachineSpec, view: &OsmView<'_>, shared: &SmtShared) -> u64 {
        // Each thread's fetch stops once its halting operation has executed:
        // every declared edge, the fetch edges, is vetoed.
        let stop_fetch = if view.tag == shared.running {
            shared.core.stop_fetch
        } else {
            shared.parked.stop_fetch
        };
        if stop_fetch {
            0
        } else {
            u64::MAX
        }
    }

    fn on_transition(&mut self, edge: &Edge, ctx: &mut TransitionCtx<'_, SmtShared>) {
        let shared = &mut *ctx.shared;
        if shared.running != ctx.tag {
            shared.parked.swap_with(&mut shared.core);
            shared.running = ctx.tag;
        }
        let mut core = TransitionCtx {
            osm: ctx.osm,
            from: ctx.from,
            to: ctx.to,
            cycle: ctx.cycle,
            tag: ctx.tag,
            slots: &mut *ctx.slots,
            buffer: ctx.buffer,
            managers: &mut *ctx.managers,
            shared: &mut shared.core,
        };
        self.0.on_transition(edge, &mut core);
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
        let mut managers = ManagerTable::new();
        // 128 registers: thread tag selects the upper half (§6).
        let ids = SaManagers::install(&mut managers, 128, cfg.forwarding);
        let spec = build_spec(ids);
        let mut core = SaShared::new(cfg, programs[0], ids, &spec);
        programs[1].load_into(&mut core.mem);
        let shared = SmtShared {
            core,
            parked: ThreadContext::new(programs[1].entry),
            running: 0,
            preferred: 0,
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
        let SmtShared {
            core,
            parked,
            running,
            ..
        } = &self.machine.shared;
        let running_thread = SmtThreadResult {
            retired: core.retired,
            squashed: core.squashed,
            exit_code: core.exit_code,
            output: core.output.clone(),
            error: core.error.clone(),
        };
        let parked_thread = SmtThreadResult {
            retired: parked.retired,
            squashed: parked.squashed,
            exit_code: parked.exit_code,
            output: parked.output.clone(),
            error: parked.error.clone(),
        };
        let mut threads = [running_thread, parked_thread];
        threads.rotate_left(*running as usize);
        SmtResult {
            cycles: self.machine.cycle(),
            threads,
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
        let kinds = shared.core.edge_kinds.clone();
        let declared = |state| SmtOp::vetoable_edges(&spec, state);
        for running in 0..2 {
            shared.running = running;
            for tag in 0..2 {
                assert_fetch_masks_match_the_rule(&spec, &kinds, declared, |state, stop| {
                    // The other thread's gate reads the opposite: only the
                    // OSM's own thread counts, running or parked.
                    let own_runs = tag == running;
                    shared.core.stop_fetch = stop == own_runs;
                    shared.parked.stop_fetch = stop != own_runs;
                    let view = OsmView {
                        id: OsmId(0),
                        state,
                        age: 0,
                        tag,
                        slots: &[],
                        buffer: &[],
                    };
                    SmtOp::default().enabled_edges(&spec, &view, shared)
                });
            }
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

    /// A 40-trip store/load loop through the scratch word at 0x8000.
    const STORE_LOAD: &str = "
        li r4, 0
        li r1, 40
        li r2, 0x8000
    loop:
        sw r1, 0(r2)
        lw r3, 0(r2)
        add r4, r4, r3
        addi r1, r1, -1
        bne r1, r0, loop
        li r10, 0
        add r11, r4, r0
        syscall
    ";

    #[test]
    fn a_faulting_thread_leaves_the_other_running() {
        // Thread 1 stops on an unknown syscall while thread 0 runs its loop
        // to the end: each thread ends as it does alone, and only thread 1
        // carries the ISS's error. Both threads' contexts keep their own
        // error, front-end gate and squashes across the swaps.
        let pa = assemble(STORE_LOAD, 0x1000).unwrap();
        let pb = assemble("li r5, 3\nli r10, 7\nsyscall\n", 0x4000).unwrap();
        let mut iss = minirisc::Iss::with_program(minirisc::SparseMemory::new(), &pb);
        let message = iss.run(100).expect_err("syscall 7 is unknown").to_string();
        let solo = [&pa, &pb].map(|p| {
            SaOsmSim::new(SaConfig::paper(), p)
                .run_to_halt(100_000)
                .expect("runs")
        });
        let mut digests = Vec::new();
        for mode in [SchedulerMode::Seed, SchedulerMode::Fast] {
            let mut smt = SmtSim::new(SaConfig::paper(), [&pa, &pb]);
            smt.machine_mut().set_scheduler_mode(mode);
            smt.machine_mut().enable_trace();
            let r = smt.run_to_halt(100_000).expect("no deadlock");
            for (thread, alone) in r.threads.iter().zip(&solo) {
                assert_eq!(
                    (thread.exit_code, &thread.output, thread.retired),
                    (alone.exit_code, &alone.output, alone.retired),
                    "{mode:?}"
                );
                assert_eq!(thread.error, alone.error, "{mode:?}");
            }
            assert_eq!(r.threads[0].error, None, "{mode:?}");
            assert_eq!(r.threads[1].error, Some(message.clone()), "{mode:?}");
            let threads = r.threads.each_ref().map(|t| (t.retired, t.squashed));
            assert_eq!((r.cycles, threads), (482, [(207, 40), (3, 0)]), "{mode:?}");
            digests.push(smt.machine().trace_digest().expect("trace on"));
        }
        assert_eq!(digests[0], digests[1], "Seed and Fast digests");
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
