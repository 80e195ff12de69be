//! # minirisc — the MiniRISC-32 instruction set substrate
//!
//! A from-scratch 32-bit load/store ISA standing in for the ARM and PowerPC
//! binaries of the OSM paper's evaluation (the substitution is documented in
//! the repository's `DESIGN.md`). The crate provides:
//!
//! * the instruction set ([`Instr`]) with decode metadata
//!   ([`Instr::class`], [`Instr::dest`], [`Instr::sources`]) that
//!   micro-architecture models use to initialize OSM token identifiers;
//! * binary [`encode`]/[`decode`];
//! * a two-pass [`assemble`]r with labels, directives and pseudo-instructions;
//! * the architectural state ([`CpuState`]) and one-instruction functional
//!   [`execute`] shared by every simulator in the workspace;
//! * a functional instruction-set simulator ([`Iss`]) with a syscall layer,
//!   whose execute-and-syscall step [`retire`] every executor retires
//!   instructions through;
//! * the [`Memory`] abstraction and a [`SparseMemory`] backing store.
//!
//! ```
//! use minirisc::{assemble, Iss, SparseMemory};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = assemble("li r11, 7\nli r10, 0\nsyscall\n", 0x1000)?;
//! let mut iss = Iss::with_program(SparseMemory::new(), &program);
//! iss.run(1000)?;
//! assert_eq!(iss.exit_code, 7);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod asm;
mod encode;
mod exec;
mod instr;
mod iss;
mod mem;
mod persist;
mod program;
mod reg;

pub use asm::{assemble, AsmError};
pub use encode::{decode, encode, DecodeError, EncodeError};
pub use exec::{effective_address, execute, CpuState, Outcome};
pub use instr::{AluOp, BranchCond, FpCmpCond, FpuOp, Instr, InstrClass, MemWidth, MulOp};
pub use iss::{retire, syscalls, Executed, Flow, Iss, IssError, Retired};
pub use mem::{Memory, SparseMemory};
pub use program::Program;
pub use reg::{ArchReg, FReg, Reg};
