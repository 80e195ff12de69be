//! The functional instruction-set simulator (ISS).
//!
//! The paper builds its micro-architecture models *on top of* existing ISSs
//! (§5); this interpreted ISS plays that role for MiniRISC-32. It executes
//! programs instruction-at-a-time with no timing, handles the syscall layer,
//! and exposes per-step events so lock-step co-simulation (used to validate
//! the micro-architecture models' functional behaviour) is possible.
//!
//! Its execute-and-syscall step, [`retire`], is public: every executor in
//! the workspace retires instructions through it, so the syscall ABI and
//! its errors are written once.

use crate::encode::{decode, DecodeError};
use crate::exec::{effective_address, execute, CpuState, Outcome};
use crate::instr::Instr;
use crate::mem::Memory;
use crate::persist::{put_bytes, put_u32, put_u64, put_u8, StateReader};
use crate::program::Program;
use crate::reg::Reg;
use std::error::Error;
use std::fmt;

/// Syscall numbers (in `r10`; argument in `r11`).
pub mod syscalls {
    /// Terminate; exit code in `r11`.
    pub const EXIT: u32 = 0;
    /// Append the low byte of `r11` to the output stream.
    pub const PUTCHAR: u32 = 1;
    /// Append `r11` as decimal text to the output stream.
    pub const PUTUINT: u32 = 2;
}

/// Errors during ISS execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IssError {
    /// The fetched word does not decode.
    Decode {
        /// Faulting PC.
        pc: u32,
        /// Underlying decode error.
        cause: DecodeError,
    },
    /// Unknown syscall number.
    BadSyscall {
        /// Faulting PC.
        pc: u32,
        /// The number found in `r10`.
        number: u32,
    },
    /// `run` hit its step budget before the program halted.
    StepLimit {
        /// The budget that was exhausted.
        limit: u64,
    },
}

impl fmt::Display for IssError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IssError::Decode { pc, cause } => write!(f, "at {pc:#010x}: {cause}"),
            IssError::BadSyscall { pc, number } => {
                write!(f, "at {pc:#010x}: unknown syscall {number}")
            }
            IssError::StepLimit { limit } => write!(f, "step limit {limit} exhausted"),
        }
    }
}

impl Error for IssError {}

/// What one retired instruction did (for co-simulation and tracing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Executed {
    /// Address the instruction was fetched from.
    pub pc: u32,
    /// The decoded instruction.
    pub instr: Instr,
    /// Control-transfer target if the instruction redirected fetch.
    pub taken: Option<u32>,
    /// Effective address of a memory instruction.
    pub mem_addr: Option<u32>,
}

/// Where the machine goes after an instruction retires (see [`retire`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// Fall through to the next instruction.
    Next,
    /// Control transfers to the given address.
    Taken(u32),
    /// `halt` retired: the program ends (exit code 0).
    Halt,
    /// The exit syscall retired: the program ends with this exit code.
    Exit(u32),
    /// An unknown syscall: the machine stops with this
    /// [`IssError::BadSyscall`].
    Fault(IssError),
}

/// The architectural effect of one retired instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Retired {
    /// Where the machine goes next.
    pub flow: Flow,
    /// Effective address of a memory instruction, generated before it
    /// executes (the instruction may overwrite its base register).
    pub mem_addr: Option<u32>,
}

/// Executes `instr` at `cpu.pc`, then its syscall if it is one: the
/// execute-and-syscall step of [`Iss::step`], shared by every executor.
/// Output syscalls append to `output`; an unknown syscall changes nothing.
/// Does **not** advance `pc`.
pub fn retire<M: Memory>(
    instr: Instr,
    cpu: &mut CpuState,
    mem: &mut M,
    output: &mut Vec<u8>,
) -> Retired {
    let mem_addr = effective_address(instr, cpu);
    let flow = match execute(instr, cpu, mem) {
        Outcome::Next => Flow::Next,
        Outcome::Taken(target) => Flow::Taken(target),
        Outcome::Halt => Flow::Halt,
        Outcome::Syscall => {
            let arg = cpu.gpr(Reg(11));
            match cpu.gpr(Reg(10)) {
                syscalls::EXIT => Flow::Exit(arg),
                syscalls::PUTCHAR => {
                    output.push(arg as u8);
                    Flow::Next
                }
                syscalls::PUTUINT => {
                    output.extend_from_slice(arg.to_string().as_bytes());
                    Flow::Next
                }
                number => Flow::Fault(IssError::BadSyscall { pc: cpu.pc, number }),
            }
        }
    };
    Retired { flow, mem_addr }
}

/// The interpreted instruction-set simulator.
#[derive(Debug, Clone)]
pub struct Iss<M> {
    /// Architectural state.
    pub cpu: CpuState,
    /// The memory (plain [`crate::SparseMemory`] or a timing hierarchy).
    pub mem: M,
    /// True once `halt` or an exit syscall retires.
    pub halted: bool,
    /// Exit code from the exit syscall (0 for `halt`).
    pub exit_code: u32,
    /// Retired instruction count.
    pub retired: u64,
    /// Bytes written through output syscalls.
    pub output: Vec<u8>,
}

impl<M: Memory> Iss<M> {
    /// Creates an ISS over `mem`, starting at `entry`.
    pub fn new(mem: M, entry: u32) -> Self {
        Iss {
            cpu: CpuState::new(entry),
            mem,
            halted: false,
            exit_code: 0,
            retired: 0,
            output: Vec::new(),
        }
    }

    /// Convenience: load `program` into `mem` and start at its entry point.
    pub fn with_program(mut mem: M, program: &Program) -> Self {
        program.load_into(&mut mem);
        Self::new(mem, program.entry)
    }

    /// Executes one instruction.
    ///
    /// # Errors
    /// Returns [`IssError::Decode`] or [`IssError::BadSyscall`]. A failed
    /// step changes nothing: the ISS stays unhalted at the faulting
    /// instruction, and stepping again fails the same way. After a halt,
    /// further `step`s return the halt state unchanged.
    pub fn step(&mut self) -> Result<Executed, IssError> {
        let pc = self.cpu.pc;
        if self.halted {
            return Ok(Executed {
                pc,
                instr: Instr::Halt,
                taken: None,
                mem_addr: None,
            });
        }
        let word = self.mem.read_u32(pc);
        let instr = decode(word).map_err(|cause| IssError::Decode { pc, cause })?;
        let Retired { flow, mem_addr } =
            retire(instr, &mut self.cpu, &mut self.mem, &mut self.output);
        let taken = match flow {
            Flow::Next => {
                self.cpu.pc = pc.wrapping_add(4);
                None
            }
            Flow::Taken(t) => {
                self.cpu.pc = t;
                Some(t)
            }
            Flow::Halt => {
                self.halted = true;
                None
            }
            Flow::Exit(code) => {
                self.halted = true;
                self.exit_code = code;
                None
            }
            Flow::Fault(e) => return Err(e),
        };
        self.retired += 1;
        Ok(Executed {
            pc,
            instr,
            taken,
            mem_addr,
        })
    }

    /// Runs until halt or `max_steps`.
    ///
    /// # Errors
    /// Returns [`IssError::StepLimit`] if the budget is exhausted, or any
    /// step error.
    pub fn run(&mut self, max_steps: u64) -> Result<u64, IssError> {
        let start = self.retired;
        while !self.halted {
            if self.retired - start >= max_steps {
                return Err(IssError::StepLimit { limit: max_steps });
            }
            self.step()?;
        }
        Ok(self.retired - start)
    }

    /// The output stream as UTF-8 (lossy).
    pub fn output_string(&self) -> String {
        String::from_utf8_lossy(&self.output).into_owned()
    }
}

impl Iss<crate::mem::SparseMemory> {
    /// Serializes the complete simulator state (CPU, sparse memory, halt
    /// latch, exit code, retired count, output stream) so an interrupted
    /// functional run can continue from the exact instruction boundary.
    pub fn export_state(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_bytes(&mut out, &self.cpu.export_state());
        put_bytes(&mut out, &self.mem.export_state());
        put_u8(&mut out, self.halted as u8);
        put_u32(&mut out, self.exit_code);
        put_u64(&mut out, self.retired);
        put_bytes(&mut out, &self.output);
        out
    }

    /// Restores state written by [`Iss::export_state`]. All-or-nothing:
    /// returns `false` and leaves `self` untouched on any malformed input.
    pub fn import_state(&mut self, bytes: &[u8]) -> bool {
        let mut r = StateReader::new(bytes);
        let (Some(cpu_bytes), Some(mem_bytes)) = (r.take_bytes(), r.take_bytes()) else {
            return false;
        };
        let (Some(halted), Some(exit_code), Some(retired), Some(output)) =
            (r.take_u8(), r.take_u32(), r.take_u64(), r.take_bytes())
        else {
            return false;
        };
        if halted > 1 || !r.is_done() {
            return false;
        }
        let mut cpu = self.cpu.clone();
        let mut mem = crate::mem::SparseMemory::new();
        if !cpu.import_state(cpu_bytes) || !mem.import_state(mem_bytes) {
            return false;
        }
        self.cpu = cpu;
        self.mem = mem;
        self.halted = halted == 1;
        self.exit_code = exit_code;
        self.retired = retired;
        self.output = output.to_vec();
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::mem::SparseMemory;

    fn run_asm(src: &str) -> Iss<SparseMemory> {
        let p = assemble(src, 0x1000).expect("assembles");
        let mut iss = Iss::with_program(SparseMemory::new(), &p);
        iss.run(1_000_000).expect("runs");
        iss
    }

    #[test]
    fn computes_a_sum_loop() {
        let iss = run_asm(
            "
            li r1, 10      ; n
            li r2, 0       ; acc
        loop:
            add r2, r2, r1
            addi r1, r1, -1
            bne r1, r0, loop
            li r10, 0      ; exit
            add r11, r2, r0
            syscall
        ",
        );
        assert!(iss.halted);
        assert_eq!(iss.exit_code, 55);
    }

    #[test]
    fn halt_stops_without_syscall() {
        let iss = run_asm("li r1, 1\nhalt\n");
        assert!(iss.halted);
        assert_eq!(iss.exit_code, 0);
        assert_eq!(iss.retired, 2);
    }

    #[test]
    fn putchar_and_putuint_build_output() {
        let iss = run_asm(
            "
            li r10, 1
            li r11, 72    ; 'H'
            syscall
            li r10, 2
            li r11, 42
            syscall
            halt
        ",
        );
        assert_eq!(iss.output_string(), "H42");
    }

    #[test]
    fn memory_program_store_load() {
        let iss = run_asm(
            "
            la r1, buf
            li r2, 1234
            sw r2, 0(r1)
            lw r3, 0(r1)
            li r10, 0
            add r11, r3, r0
            syscall
        buf:
            .space 4
        ",
        );
        assert_eq!(iss.exit_code, 1234);
    }

    #[test]
    fn function_call_and_return() {
        let iss = run_asm(
            "
            li r1, 20
            call double
            li r10, 0
            add r11, r1, r0
            syscall
        double:
            add r1, r1, r1
            ret
        ",
        );
        assert_eq!(iss.exit_code, 40);
    }

    #[test]
    fn bad_syscall_reported() {
        let p = assemble("li r10, 99\nsyscall\n", 0).unwrap();
        let mut iss = Iss::with_program(SparseMemory::new(), &p);
        let e = iss.run(100).unwrap_err();
        assert!(matches!(e, IssError::BadSyscall { number: 99, .. }));
    }

    #[test]
    fn a_failed_step_changes_nothing_and_fails_again() {
        let p = assemble("li r10, 7\nsyscall\n", 0x1000).unwrap();
        let mut iss = Iss::with_program(SparseMemory::new(), &p);
        iss.step().unwrap();
        let cpu = iss.cpu.clone();
        let e = iss.step().unwrap_err();
        assert_eq!(e.to_string(), "at 0x00001004: unknown syscall 7");
        assert!(!iss.halted);
        assert_eq!((&iss.cpu, iss.retired), (&cpu, 1));
        assert_eq!(iss.step().unwrap_err(), e);
    }

    #[test]
    fn steps_report_branch_targets() {
        let p = assemble(
            "
            li r1, 2
        loop:
            addi r1, r1, -1
            bne r1, r0, loop
            halt
        ",
            0,
        )
        .unwrap();
        let target = p.symbol("loop").unwrap();
        let mut iss = Iss::with_program(SparseMemory::new(), &p);
        let s = iss.step().unwrap(); // li
        assert_eq!((s.pc, s.taken), (0, None));
        assert_eq!(iss.step().unwrap().taken, None); // addi
        assert_eq!(iss.step().unwrap().taken, Some(target)); // bne taken
        assert_eq!(iss.cpu.pc, target);
        iss.step().unwrap(); // addi
        assert_eq!(iss.step().unwrap().taken, None); // bne not taken
        let s = iss.step().unwrap();
        assert_eq!((s.instr, s.taken), (Instr::Halt, None));
        assert!(iss.halted);
        assert_eq!(iss.retired, 6);
    }

    #[test]
    fn memory_steps_report_effective_addresses() {
        let p = assemble("la r1, d\nlw r2, 0(r1)\nhalt\nd:\n.word 5\n", 0).unwrap();
        let mut iss = Iss::with_program(SparseMemory::new(), &p);
        assert_eq!(iss.step().unwrap().mem_addr, None);
        iss.step().unwrap(); // ori half of la
        let s = iss.step().unwrap(); // lw
        assert_eq!(s.mem_addr, Some(p.symbol("d").unwrap()));
    }

    #[test]
    fn decode_error_reported() {
        let mut mem = SparseMemory::new();
        mem.write_u32(0, 0xFF00_0000);
        let mut iss = Iss::new(mem, 0);
        let e = iss.step().unwrap_err();
        assert!(matches!(e, IssError::Decode { pc: 0, .. }));
    }

    #[test]
    fn step_limit_reported() {
        let p = assemble("loop: j loop\n", 0).unwrap();
        let mut iss = Iss::with_program(SparseMemory::new(), &p);
        let e = iss.run(10).unwrap_err();
        assert!(matches!(e, IssError::StepLimit { limit: 10 }));
    }

    #[test]
    fn steps_after_halt_are_inert() {
        let mut iss = run_asm("halt\n");
        let retired = iss.retired;
        iss.step().unwrap();
        assert_eq!(iss.retired, retired);
    }

    #[test]
    fn state_round_trip_continues_mid_run() {
        let p = assemble(
            "
            li r1, 10      ; n
            li r2, 0       ; acc
        loop:
            add r2, r2, r1
            addi r1, r1, -1
            bne r1, r0, loop
            li r10, 2      ; putuint
            add r11, r2, r0
            syscall
            li r10, 0      ; exit
            syscall
        ",
            0x1000,
        )
        .unwrap();
        let mut reference = Iss::with_program(SparseMemory::new(), &p);
        reference.run(1000).unwrap();

        let mut head = Iss::with_program(SparseMemory::new(), &p);
        for _ in 0..7 {
            head.step().unwrap();
        }
        let bytes = head.export_state();
        drop(head);

        // A fresh ISS over a fresh memory, rebuilt purely from the bytes.
        let mut tail = Iss::new(SparseMemory::new(), 0);
        assert!(tail.import_state(&bytes));
        assert_eq!(tail.retired, 7);
        tail.run(1000).unwrap();
        assert_eq!(tail.retired, reference.retired);
        assert_eq!(tail.exit_code, reference.exit_code);
        assert_eq!(tail.output, reference.output);
        assert_eq!(tail.cpu, reference.cpu);
    }

    #[test]
    fn import_rejects_damage() {
        let p = assemble("li r1, 1\nhalt\n", 0).unwrap();
        let mut iss = Iss::with_program(SparseMemory::new(), &p);
        iss.step().unwrap();
        let bytes = iss.export_state();
        let before = iss.cpu.clone();

        assert!(!iss.import_state(&bytes[..bytes.len() - 1]));
        let mut long = bytes.clone();
        long.push(0);
        assert!(!iss.import_state(&long));
        // Corrupt r0 (first GPR of the length-prefixed CPU section).
        let mut bad = bytes.clone();
        bad[4] = 1;
        assert!(!iss.import_state(&bad));
        assert_eq!(iss.cpu, before);
    }

    #[test]
    fn sparse_memory_export_is_canonical() {
        // Same contents, different insertion order → identical bytes.
        let mut a = SparseMemory::new();
        a.write_u32(0x1000, 7);
        a.write_u32(0x9000, 9);
        let mut b = SparseMemory::new();
        b.write_u32(0x9000, 9);
        b.write_u32(0x1000, 7);
        assert_eq!(a.export_state(), b.export_state());

        let mut c = SparseMemory::new();
        assert!(c.import_state(&a.export_state()));
        assert_eq!(c.read_u32(0x9000), 9);
        assert_eq!(c.page_count(), 2);
        assert!(!c.import_state(&a.export_state()[..10]));
    }

    #[test]
    fn fp_program_runs() {
        let iss = run_asm(
            "
            li r1, 3
            li r2, 4
            cvtsw f1, r1
            cvtsw f2, r2
            fmul f3, f1, f2
            cvtws r3, f3
            li r10, 0
            add r11, r3, r0
            syscall
        ",
        );
        assert_eq!(iss.exit_code, 12);
    }
}
