//! Architectural state and single-instruction functional execution.
//!
//! [`execute`] is the single source of truth for MiniRISC semantics: the
//! functional ISS, the OSM micro-architecture models and the hardware-centric
//! baselines all reach it through the ISS's retire step ([`crate::retire`]),
//! so their *functional* behaviour is identical by construction and
//! validation compares only *timing*.

use crate::instr::{AluOp, Instr, MemWidth, MulOp};
use crate::mem::Memory;
use crate::persist::{put_u32, StateReader};
use crate::reg::{FReg, Reg};

/// Architectural register state.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuState {
    gpr: [u32; 32],
    fpr: [f32; 32],
    /// Program counter (address of the instruction being executed).
    pub pc: u32,
}

impl CpuState {
    /// Creates a zeroed CPU with the given entry point.
    pub fn new(entry: u32) -> Self {
        CpuState {
            gpr: [0; 32],
            fpr: [0.0; 32],
            pc: entry,
        }
    }

    /// Reads a GPR (`r0` always reads zero).
    #[inline]
    pub fn gpr(&self, r: Reg) -> u32 {
        if r.is_zero() {
            0
        } else {
            self.gpr[r.index()]
        }
    }

    /// Writes a GPR (writes to `r0` are ignored).
    #[inline]
    pub fn set_gpr(&mut self, r: Reg, v: u32) {
        if !r.is_zero() {
            self.gpr[r.index()] = v;
        }
    }

    /// Reads an FPR.
    #[inline]
    pub fn fpr(&self, r: FReg) -> f32 {
        self.fpr[r.index()]
    }

    /// Writes an FPR.
    #[inline]
    pub fn set_fpr(&mut self, r: FReg, v: f32) {
        self.fpr[r.index()] = v;
    }

    /// Serializes the register file and PC as a fixed-size little-endian
    /// byte string (FPRs by their IEEE-754 bit patterns, so NaN payloads
    /// round-trip exactly).
    pub fn export_state(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32 * 4 + 32 * 4 + 4);
        for v in self.gpr {
            put_u32(&mut out, v);
        }
        for v in self.fpr {
            put_u32(&mut out, v.to_bits());
        }
        put_u32(&mut out, self.pc);
        out
    }

    /// Restores state written by [`CpuState::export_state`]. Returns `false`
    /// — leaving `self` untouched — on any size mismatch or a nonzero `r0`.
    pub fn import_state(&mut self, bytes: &[u8]) -> bool {
        let mut r = StateReader::new(bytes);
        let mut gpr = [0u32; 32];
        for slot in &mut gpr {
            let Some(v) = r.take_u32() else { return false };
            *slot = v;
        }
        if gpr[0] != 0 {
            return false; // r0 is architecturally zero
        }
        let mut fpr = [0f32; 32];
        for slot in &mut fpr {
            let Some(v) = r.take_u32() else { return false };
            *slot = f32::from_bits(v);
        }
        let Some(pc) = r.take_u32() else { return false };
        if !r.is_done() {
            return false;
        }
        self.gpr = gpr;
        self.fpr = fpr;
        self.pc = pc;
        true
    }
}

impl Default for CpuState {
    fn default() -> Self {
        CpuState::new(0)
    }
}

/// Control-flow outcome of executing one instruction. The caller advances
/// the PC: [`Outcome::Next`] means `pc + 4`, [`Outcome::Taken`] carries the
/// target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Fall through to the next instruction.
    Next,
    /// Control transfers to the given address.
    Taken(u32),
    /// The machine halts.
    Halt,
    /// An environment call; the platform handles it, then falls through.
    Syscall,
}

fn alu(op: AluOp, a: u32, b: u32) -> u32 {
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::And => a & b,
        AluOp::Or => a | b,
        AluOp::Xor => a ^ b,
        AluOp::Sll => a.wrapping_shl(b & 31),
        AluOp::Srl => a.wrapping_shr(b & 31),
        AluOp::Sra => ((a as i32).wrapping_shr(b & 31)) as u32,
        AluOp::Slt => ((a as i32) < (b as i32)) as u32,
        AluOp::Sltu => (a < b) as u32,
    }
}

fn mul(op: MulOp, a: u32, b: u32) -> u32 {
    match op {
        MulOp::Mul => a.wrapping_mul(b),
        MulOp::Mulh => (((a as i32 as i64) * (b as i32 as i64)) >> 32) as u32,
        MulOp::Div => {
            let (a, b) = (a as i32, b as i32);
            if b == 0 {
                u32::MAX
            } else if a == i32::MIN && b == -1 {
                a as u32 // overflow wraps
            } else {
                (a / b) as u32
            }
        }
        MulOp::Rem => {
            let (a, b) = (a as i32, b as i32);
            if b == 0 {
                a as u32
            } else if a == i32::MIN && b == -1 {
                0
            } else {
                (a % b) as u32
            }
        }
    }
}

/// The effective address of a memory instruction, or `None` for non-memory
/// instructions. Micro-architecture models use this at their address-
/// generation stage.
pub fn effective_address(instr: Instr, cpu: &CpuState) -> Option<u32> {
    match instr {
        Instr::Load { rs1, offset, .. }
        | Instr::Store { rs1, offset, .. }
        | Instr::FpLoad { rs1, offset, .. }
        | Instr::FpStore { rs1, offset, .. } => {
            Some(cpu.gpr(rs1).wrapping_add(offset as u32))
        }
        _ => None,
    }
}

/// Executes one instruction at `cpu.pc`, applying register and memory side
/// effects, and returns the control-flow outcome. Does **not** advance `pc`.
pub fn execute<M: Memory>(instr: Instr, cpu: &mut CpuState, mem: &mut M) -> Outcome {
    match instr {
        Instr::Halt => return Outcome::Halt,
        Instr::Syscall => return Outcome::Syscall,
        Instr::Alu { op, rd, rs1, rs2 } => {
            let v = alu(op, cpu.gpr(rs1), cpu.gpr(rs2));
            cpu.set_gpr(rd, v);
        }
        Instr::AluImm { op, rd, rs1, imm } => {
            let v = alu(op, cpu.gpr(rs1), imm as u32);
            cpu.set_gpr(rd, v);
        }
        Instr::Lui { rd, imm } => cpu.set_gpr(rd, imm << 13),
        Instr::Mul { op, rd, rs1, rs2 } => {
            let v = mul(op, cpu.gpr(rs1), cpu.gpr(rs2));
            cpu.set_gpr(rd, v);
        }
        Instr::Load {
            width,
            unsigned,
            rd,
            rs1,
            offset,
        } => {
            let addr = cpu.gpr(rs1).wrapping_add(offset as u32);
            let v = match (width, unsigned) {
                (MemWidth::Word, _) => mem.read_u32(addr),
                (MemWidth::Half, true) => mem.read_u16(addr) as u32,
                (MemWidth::Half, false) => mem.read_u16(addr) as i16 as i32 as u32,
                (MemWidth::Byte, true) => mem.read_u8(addr) as u32,
                (MemWidth::Byte, false) => mem.read_u8(addr) as i8 as i32 as u32,
            };
            cpu.set_gpr(rd, v);
        }
        Instr::Store {
            width,
            rs2,
            rs1,
            offset,
        } => {
            let addr = cpu.gpr(rs1).wrapping_add(offset as u32);
            let v = cpu.gpr(rs2);
            match width {
                MemWidth::Word => mem.write_u32(addr, v),
                MemWidth::Half => mem.write_u16(addr, v as u16),
                MemWidth::Byte => mem.write_u8(addr, v as u8),
            }
        }
        Instr::Branch {
            cond,
            rs1,
            rs2,
            offset,
        } => {
            if cond.eval(cpu.gpr(rs1), cpu.gpr(rs2)) {
                return Outcome::Taken(cpu.pc.wrapping_add(offset as u32));
            }
        }
        Instr::Jal { rd, offset } => {
            cpu.set_gpr(rd, cpu.pc.wrapping_add(4));
            return Outcome::Taken(cpu.pc.wrapping_add(offset as u32));
        }
        Instr::Jalr { rd, rs1, offset } => {
            let target = cpu.gpr(rs1).wrapping_add(offset as u32) & !3;
            cpu.set_gpr(rd, cpu.pc.wrapping_add(4));
            return Outcome::Taken(target);
        }
        Instr::Fpu { op, fd, fs1, fs2 } => {
            let (a, b) = (cpu.fpr(fs1), cpu.fpr(fs2));
            let v = match op {
                crate::instr::FpuOp::FAdd => a + b,
                crate::instr::FpuOp::FSub => a - b,
                crate::instr::FpuOp::FMul => a * b,
                crate::instr::FpuOp::FDiv => a / b,
            };
            cpu.set_fpr(fd, v);
        }
        Instr::FpCmp {
            cond,
            rd,
            fs1,
            fs2,
        } => {
            let v = cond.eval(cpu.fpr(fs1), cpu.fpr(fs2)) as u32;
            cpu.set_gpr(rd, v);
        }
        Instr::CvtSW { fd, rs1 } => cpu.set_fpr(fd, cpu.gpr(rs1) as i32 as f32),
        Instr::CvtWS { rd, fs1 } => cpu.set_gpr(rd, cpu.fpr(fs1) as i32 as u32),
        Instr::FpLoad { fd, rs1, offset } => {
            let addr = cpu.gpr(rs1).wrapping_add(offset as u32);
            cpu.set_fpr(fd, f32::from_bits(mem.read_u32(addr)));
        }
        Instr::FpStore { fs2, rs1, offset } => {
            let addr = cpu.gpr(rs1).wrapping_add(offset as u32);
            mem.write_u32(addr, cpu.fpr(fs2).to_bits());
        }
    }
    Outcome::Next
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{BranchCond, FpCmpCond, FpuOp};
    use crate::mem::SparseMemory;

    fn setup() -> (CpuState, SparseMemory) {
        (CpuState::new(0x1000), SparseMemory::new())
    }

    #[test]
    fn r0_reads_zero_and_ignores_writes() {
        let (mut cpu, mut mem) = setup();
        cpu.set_gpr(Reg(0), 99);
        assert_eq!(cpu.gpr(Reg(0)), 0);
        let out = execute(
            Instr::AluImm {
                op: AluOp::Add,
                rd: Reg(0),
                rs1: Reg(0),
                imm: 5,
            },
            &mut cpu,
            &mut mem,
        );
        assert_eq!(out, Outcome::Next);
        assert_eq!(cpu.gpr(Reg(0)), 0);
    }

    #[test]
    fn alu_semantics() {
        assert_eq!(alu(AluOp::Add, u32::MAX, 1), 0);
        assert_eq!(alu(AluOp::Sub, 3, 5), (-2i32) as u32);
        assert_eq!(alu(AluOp::Sra, 0x8000_0000, 31), 0xFFFF_FFFF);
        assert_eq!(alu(AluOp::Srl, 0x8000_0000, 31), 1);
        assert_eq!(alu(AluOp::Slt, (-1i32) as u32, 0), 1);
        assert_eq!(alu(AluOp::Sltu, (-1i32) as u32, 0), 0);
        assert_eq!(alu(AluOp::Sll, 1, 33), 2); // shift amount masked
    }

    #[test]
    fn mul_div_edge_cases() {
        assert_eq!(mul(MulOp::Mul, 0x1_0000, 0x1_0000), 0);
        assert_eq!(mul(MulOp::Mulh, 0x1_0000, 0x1_0000), 1);
        assert_eq!(mul(MulOp::Div, 7, 0), u32::MAX);
        assert_eq!(mul(MulOp::Rem, 7, 0), 7);
        assert_eq!(mul(MulOp::Div, i32::MIN as u32, (-1i32) as u32), i32::MIN as u32);
        assert_eq!(mul(MulOp::Rem, i32::MIN as u32, (-1i32) as u32), 0);
        assert_eq!(mul(MulOp::Mulh, (-2i32) as u32, 3), u32::MAX); // -6 >> 32
    }

    #[test]
    fn load_store_widths_and_sign_extension() {
        let (mut cpu, mut mem) = setup();
        cpu.set_gpr(Reg(1), 0x2000);
        mem.write_u32(0x2000, 0xFFFF_FF80);
        for (instr, expect) in [
            (
                Instr::Load {
                    width: MemWidth::Byte,
                    unsigned: false,
                    rd: Reg(2),
                    rs1: Reg(1),
                    offset: 0,
                },
                0xFFFF_FF80u32,
            ),
            (
                Instr::Load {
                    width: MemWidth::Byte,
                    unsigned: true,
                    rd: Reg(2),
                    rs1: Reg(1),
                    offset: 0,
                },
                0x80,
            ),
            (
                Instr::Load {
                    width: MemWidth::Half,
                    unsigned: false,
                    rd: Reg(2),
                    rs1: Reg(1),
                    offset: 0,
                },
                0xFFFF_FF80,
            ),
            (
                Instr::Load {
                    width: MemWidth::Word,
                    unsigned: false,
                    rd: Reg(2),
                    rs1: Reg(1),
                    offset: 0,
                },
                0xFFFF_FF80,
            ),
        ] {
            execute(instr, &mut cpu, &mut mem);
            assert_eq!(cpu.gpr(Reg(2)), expect, "{instr}");
        }
        cpu.set_gpr(Reg(3), 0xAB);
        execute(
            Instr::Store {
                width: MemWidth::Byte,
                rs2: Reg(3),
                rs1: Reg(1),
                offset: 4,
            },
            &mut cpu,
            &mut mem,
        );
        assert_eq!(mem.read_u8(0x2004), 0xAB);
    }

    #[test]
    fn branches_are_pc_relative() {
        let (mut cpu, mut mem) = setup();
        cpu.set_gpr(Reg(1), 5);
        cpu.set_gpr(Reg(2), 5);
        let out = execute(
            Instr::Branch {
                cond: BranchCond::Eq,
                rs1: Reg(1),
                rs2: Reg(2),
                offset: -8,
            },
            &mut cpu,
            &mut mem,
        );
        assert_eq!(out, Outcome::Taken(0x0FF8));
        let out = execute(
            Instr::Branch {
                cond: BranchCond::Ne,
                rs1: Reg(1),
                rs2: Reg(2),
                offset: -8,
            },
            &mut cpu,
            &mut mem,
        );
        assert_eq!(out, Outcome::Next);
    }

    #[test]
    fn jal_links_and_jumps() {
        let (mut cpu, mut mem) = setup();
        let out = execute(
            Instr::Jal {
                rd: Reg(31),
                offset: 16,
            },
            &mut cpu,
            &mut mem,
        );
        assert_eq!(out, Outcome::Taken(0x1010));
        assert_eq!(cpu.gpr(Reg(31)), 0x1004);
        cpu.set_gpr(Reg(5), 0x3001); // misaligned base gets masked
        let out = execute(
            Instr::Jalr {
                rd: Reg(0),
                rs1: Reg(5),
                offset: 2,
            },
            &mut cpu,
            &mut mem,
        );
        assert_eq!(out, Outcome::Taken(0x3000));
    }

    #[test]
    fn fp_ops_and_conversion() {
        let (mut cpu, mut mem) = setup();
        cpu.set_gpr(Reg(1), 7);
        execute(Instr::CvtSW { fd: FReg(1), rs1: Reg(1) }, &mut cpu, &mut mem);
        assert_eq!(cpu.fpr(FReg(1)), 7.0);
        cpu.set_fpr(FReg(2), 2.0);
        execute(
            Instr::Fpu {
                op: FpuOp::FDiv,
                fd: FReg(3),
                fs1: FReg(1),
                fs2: FReg(2),
            },
            &mut cpu,
            &mut mem,
        );
        assert_eq!(cpu.fpr(FReg(3)), 3.5);
        execute(Instr::CvtWS { rd: Reg(4), fs1: FReg(3) }, &mut cpu, &mut mem);
        assert_eq!(cpu.gpr(Reg(4)), 3); // truncation
        execute(
            Instr::FpCmp {
                cond: FpCmpCond::Lt,
                rd: Reg(5),
                fs1: FReg(2),
                fs2: FReg(1),
            },
            &mut cpu,
            &mut mem,
        );
        assert_eq!(cpu.gpr(Reg(5)), 1);
    }

    #[test]
    fn fp_load_store_roundtrip_bits() {
        let (mut cpu, mut mem) = setup();
        cpu.set_gpr(Reg(1), 0x4000);
        cpu.set_fpr(FReg(1), 1.5);
        execute(
            Instr::FpStore {
                fs2: FReg(1),
                rs1: Reg(1),
                offset: 0,
            },
            &mut cpu,
            &mut mem,
        );
        execute(
            Instr::FpLoad {
                fd: FReg(2),
                rs1: Reg(1),
                offset: 0,
            },
            &mut cpu,
            &mut mem,
        );
        assert_eq!(cpu.fpr(FReg(2)), 1.5);
    }

    #[test]
    fn effective_address_for_memory_ops_only() {
        let mut cpu = CpuState::new(0);
        cpu.set_gpr(Reg(1), 100);
        let i = Instr::Load {
            width: MemWidth::Word,
            unsigned: false,
            rd: Reg(2),
            rs1: Reg(1),
            offset: -4,
        };
        assert_eq!(effective_address(i, &cpu), Some(96));
        assert_eq!(effective_address(Instr::NOP, &cpu), None);
    }

    #[test]
    fn halt_and_syscall_outcomes() {
        let (mut cpu, mut mem) = setup();
        assert_eq!(execute(Instr::Halt, &mut cpu, &mut mem), Outcome::Halt);
        assert_eq!(execute(Instr::Syscall, &mut cpu, &mut mem), Outcome::Syscall);
    }
}
