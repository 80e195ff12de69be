//! An independent, hand-sequenced cycle-accurate reference simulator.
//!
//! This model implements the same 5-stage timing specification as the OSM
//! model but in the classic ad-hoc style of SimpleScalar: explicit pipeline
//! latches advanced oldest-stage-first each cycle, with all hazards resolved
//! by hand-written control code. It shares **no** scheduling code with the
//! OSM model (only the functional [`minirisc::retire`] and the `memsys`
//! timing models), so agreement between the two is meaningful validation —
//! it plays the role of the iPAQ hardware and of SimpleScalar-ARM in the
//! paper's Table 1 / §5.1 comparisons.
//!
//! When standing in for real hardware it can additionally model detail that
//! the micro-architecture models abstract away (a periodic DRAM-refresh
//! stall), producing the small systematic timing differences the paper
//! attributes to unavailable memory-subsystem documentation.

use crate::config::{SaConfig, SimResult};
use memsys::MemSystem;
use minirisc::{decode, retire, CpuState, Flow, Instr, InstrClass, Memory, Program, SparseMemory};

#[derive(Debug, Clone, Copy)]
struct RefOp {
    pc: u32,
    instr: Instr,
    mem_addr: Option<u32>,
    dest: Option<usize>,
    is_halting: bool,
}

impl RefOp {
    fn fetched(pc: u32) -> Self {
        RefOp {
            pc,
            instr: Instr::NOP,
            mem_addr: None,
            dest: None,
            is_halting: false,
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct BusyBit {
    busy: bool,
    ready: bool,
}

/// The hand-sequenced reference simulator.
#[derive(Debug)]
pub struct RefSim {
    cfg: SaConfig,
    cpu: CpuState,
    mem: SparseMemory,
    memsys: MemSystem,
    next_fetch_pc: u32,
    stop_fetch: bool,
    halted: bool,
    exit_code: u32,
    output: Vec<u8>,
    /// First right-path error: an unknown syscall, in the ISS's words.
    pub error: Option<String>,
    f: Option<RefOp>,
    d: Option<RefOp>,
    e: Option<RefOp>,
    b: Option<RefOp>,
    w: Option<RefOp>,
    fetch_timer: u32,
    e_timer: u32,
    b_timer: u32,
    branch_stall: u32,
    taken_count: u32,
    busy: [BusyBit; 64],
    cycle: u64,
    retired: u64,
    squashed: u64,
}

impl RefSim {
    /// Builds the reference simulator and loads `program`.
    pub fn new(cfg: SaConfig, program: &Program) -> Self {
        let mut mem = SparseMemory::new();
        program.load_into(&mut mem);
        RefSim {
            cfg,
            cpu: CpuState::new(program.entry),
            mem,
            memsys: MemSystem::new(cfg.mem),
            next_fetch_pc: program.entry,
            stop_fetch: false,
            halted: false,
            exit_code: 0,
            output: Vec::new(),
            error: None,
            f: None,
            d: None,
            e: None,
            b: None,
            w: None,
            fetch_timer: 0,
            e_timer: 0,
            b_timer: 0,
            branch_stall: 0,
            taken_count: 0,
            busy: [BusyBit::default(); 64],
            cycle: 0,
            retired: 0,
            squashed: 0,
        }
    }

    /// True once the halting instruction has retired.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Current cycle count.
    pub fn cycles(&self) -> u64 {
        self.cycle
    }

    fn squash_front(&mut self) {
        if self.f.take().is_some() {
            self.squashed += 1;
            self.fetch_timer = 0;
        }
        if let Some(op) = self.d.take() {
            self.squashed += 1;
            // Wrong-path operations in D have not allocated a destination.
            debug_assert!(op.dest.is_none() || !self.busy[op.dest.unwrap()].busy);
        }
    }

    fn sources_ready(&self, instr: &Instr) -> bool {
        instr.sources().iter().all(|r| {
            let bit = self.busy[r.flat_index()];
            !bit.busy || (self.cfg.forwarding && bit.ready)
        })
    }

    fn execute_op(&mut self, op: &mut RefOp) {
        self.cpu.pc = op.pc;
        let retired = retire(op.instr, &mut self.cpu, &mut self.mem, &mut self.output);
        op.mem_addr = retired.mem_addr;
        match retired.flow {
            Flow::Next => {}
            Flow::Taken(target) => {
                self.next_fetch_pc = target;
                if self.cfg.hw_branch_stall_every > 0 {
                    self.taken_count += 1;
                    if self.taken_count.is_multiple_of(self.cfg.hw_branch_stall_every) {
                        self.branch_stall = 1;
                    }
                }
            }
            Flow::Halt => op.is_halting = true,
            Flow::Exit(code) => {
                op.is_halting = true;
                self.exit_code = code;
            }
            Flow::Fault(e) => {
                op.is_halting = true;
                self.error.get_or_insert_with(|| e.to_string());
            }
        }
        // A redirect or the program's end squashes the front end.
        if retired.flow != Flow::Next {
            self.stop_fetch |= op.is_halting;
            self.squash_front();
        }
        self.e_timer = match op.instr.class() {
            InstrClass::IntMul => self.cfg.mul_extra,
            InstrClass::IntDiv => self.cfg.div_extra,
            _ => 0,
        };
        if op.instr.class() != InstrClass::Load {
            if let Some(d) = op.dest {
                self.busy[d].ready = true;
            }
        }
    }

    /// Advances one cycle, processing stages oldest-first so that a freed
    /// stage can be refilled within the same cycle (mirroring the OSM
    /// director's senior-first service order).
    pub fn step(&mut self) {
        self.cycle += 1;
        // The "hardware proxy" refresh stall: the whole core freezes.
        if self.cfg.refresh_interval > 0 && self.cycle.is_multiple_of(self.cfg.refresh_interval) {
            return;
        }

        // W: retire.
        if let Some(op) = self.w.take() {
            self.retired += 1;
            if let Some(d) = op.dest {
                self.busy[d] = BusyBit::default();
            }
            if op.is_halting {
                self.halted = true;
            }
        }

        // B -> W.
        if self.b.is_some() {
            if self.b_timer > 0 {
                self.b_timer -= 1;
            } else if self.w.is_none() {
                let op = self.b.take().expect("checked");
                // Load results become forwardable once the D-cache access
                // completes (1-cycle load-use penalty).
                if op.instr.class() == InstrClass::Load {
                    if let Some(d) = op.dest {
                        self.busy[d].ready = true;
                    }
                }
                self.w = Some(op);
            }
        }

        // E -> B.
        if self.e.is_some() {
            if self.e_timer > 0 {
                self.e_timer -= 1;
            } else if self.b.is_none() {
                let op = self.e.take().expect("checked");
                self.b_timer = match op.mem_addr {
                    Some(addr) => self.memsys.data_penalty(addr),
                    None => 0,
                };
                self.b = Some(op);
            }
        }

        // D -> E (issue): operand + destination checks, then execute.
        if let Some(op) = self.d {
            if self.e.is_none()
                && self.sources_ready(&op.instr)
                && op
                    .instr
                    .dest()
                    .is_none_or(|r| !self.busy[r.flat_index()].busy)
            {
                let mut op = self.d.take().expect("checked");
                op.dest = op.instr.dest().map(|r| r.flat_index());
                if let Some(d) = op.dest {
                    self.busy[d] = BusyBit {
                        busy: true,
                        ready: false,
                    };
                }
                self.execute_op(&mut op);
                self.e = Some(op);
            }
        }

        // F -> D (decode).
        if self.f.is_some() {
            if self.fetch_timer > 0 {
                self.fetch_timer -= 1;
            } else if self.d.is_none() {
                let mut op = self.f.take().expect("checked");
                let word = self.mem.read_u32(op.pc);
                op.instr = decode(word).unwrap_or(Instr::NOP);
                self.d = Some(op);
            }
        }

        // Fetch.
        if self.f.is_none() && !self.stop_fetch {
            let pc = self.next_fetch_pc;
            self.next_fetch_pc = pc.wrapping_add(4);
            self.fetch_timer =
                self.memsys.fetch_penalty(pc) + std::mem::take(&mut self.branch_stall);
            self.f = Some(RefOp::fetched(pc));
        }
    }

    /// Runs until halt or `max_cycles`.
    pub fn run_to_halt(&mut self, max_cycles: u64) -> SimResult {
        while !self.halted && self.cycle < max_cycles {
            self.step();
        }
        self.result()
    }

    /// Snapshot of the current result counters.
    pub fn result(&self) -> SimResult {
        SimResult {
            cycles: self.cycle,
            retired: self.retired,
            squashed: self.squashed,
            exit_code: self.exit_code,
            output: self.output.clone(),
            icache_misses: self.memsys.icache.stats.misses,
            dcache_misses: self.memsys.dcache.stats.misses,
            error: self.error.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minirisc::assemble;

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

    fn run(src: &str, cfg: SaConfig) -> SimResult {
        let p = assemble(src, 0x1000).expect("assembles");
        let mut sim = RefSim::new(cfg, &p);
        let r = sim.run_to_halt(1_000_000);
        assert!(sim.halted(), "did not halt");
        r
    }

    #[test]
    fn functional_result_matches_iss() {
        let r = run(SUM_LOOP, SaConfig::paper());
        assert_eq!(r.exit_code, 55);
        let p = assemble(SUM_LOOP, 0x1000).unwrap();
        let mut iss = minirisc::Iss::with_program(SparseMemory::new(), &p);
        iss.run(100_000).unwrap();
        assert_eq!(r.retired, iss.retired);
    }

    #[test]
    fn refresh_stall_slows_the_hardware_proxy() {
        let base = run(SUM_LOOP, SaConfig::paper());
        let hw = run(
            SUM_LOOP,
            SaConfig {
                refresh_interval: 50,
                ..SaConfig::paper()
            },
        );
        assert!(hw.cycles > base.cycles);
        assert_eq!(hw.exit_code, base.exit_code);
    }

    #[test]
    fn forwarding_ablation_slows_dependent_chain() {
        let chain = "
            li r1, 1
            add r2, r1, r1
            add r3, r2, r2
            add r4, r3, r3
            halt
        ";
        let fwd = run(chain, SaConfig::paper());
        let nofwd = run(
            chain,
            SaConfig {
                forwarding: false,
                ..SaConfig::paper()
            },
        );
        assert!(nofwd.cycles > fwd.cycles);
    }
}
