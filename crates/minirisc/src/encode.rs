//! Binary encoding and decoding of MiniRISC-32 instructions.
//!
//! All instructions are 32 bits:
//!
//! ```text
//! R-type:  | op(8) | A(5) | B(5) | C(5) |  pad(9)  |
//! I-type:  | op(8) | A(5) | B(5) |     imm14       |
//! J-type:  | op(8) | A(5) |        imm19           |
//! ```
//!
//! Branch and `jal` offsets are stored in units of 4 bytes (instructions),
//! extending their reach; `jalr`, loads and stores use byte offsets.

use crate::instr::{AluOp, BranchCond, FpCmpCond, FpuOp, Instr, MemWidth, MulOp};
use crate::reg::{FReg, Reg};
use std::error::Error;
use std::fmt;

const OP_HALT: u8 = 0x00;
const OP_SYSCALL: u8 = 0x01;
const OP_ALU: u8 = 0x10;
const OP_ALUI: u8 = 0x20;
const OP_LUI: u8 = 0x2F;
const OP_MUL: u8 = 0x30;
const OP_LW: u8 = 0x40;
const OP_LH: u8 = 0x41;
const OP_LHU: u8 = 0x42;
const OP_LB: u8 = 0x43;
const OP_LBU: u8 = 0x44;
const OP_SW: u8 = 0x48;
const OP_SH: u8 = 0x49;
const OP_SB: u8 = 0x4A;
const OP_BRANCH: u8 = 0x50;
const OP_JAL: u8 = 0x58;
const OP_JALR: u8 = 0x59;
const OP_FPU: u8 = 0x60;
const OP_FCMP: u8 = 0x68;
const OP_CVTSW: u8 = 0x6C;
const OP_CVTWS: u8 = 0x6D;
const OP_FLW: u8 = 0x70;
const OP_FSW: u8 = 0x71;

/// Errors from [`encode`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodeError {
    /// An immediate does not fit its field.
    ImmOutOfRange {
        /// The offending value.
        value: i64,
        /// Field width in bits.
        bits: u32,
    },
    /// A branch/jump offset is not a multiple of 4.
    MisalignedOffset {
        /// The offending offset.
        offset: i32,
    },
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeError::ImmOutOfRange { value, bits } => {
                write!(f, "immediate {value} does not fit in {bits} bits")
            }
            EncodeError::MisalignedOffset { offset } => {
                write!(f, "control-flow offset {offset} is not a multiple of 4")
            }
        }
    }
}

impl Error for EncodeError {}

/// Errors from [`decode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Unknown opcode byte.
    BadOpcode {
        /// The opcode field.
        opcode: u8,
        /// The full word.
        word: u32,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::BadOpcode { opcode, word } => {
                write!(f, "unknown opcode {opcode:#04x} in word {word:#010x}")
            }
        }
    }
}

impl Error for DecodeError {}

fn imm14(v: i32) -> Result<u32, EncodeError> {
    if (-(1 << 13)..(1 << 13)).contains(&v) {
        Ok((v as u32) & 0x3FFF)
    } else {
        Err(EncodeError::ImmOutOfRange {
            value: v as i64,
            bits: 14,
        })
    }
}

fn imm19s(v: i32) -> Result<u32, EncodeError> {
    if (-(1 << 18)..(1 << 18)).contains(&v) {
        Ok((v as u32) & 0x7FFFF)
    } else {
        Err(EncodeError::ImmOutOfRange {
            value: v as i64,
            bits: 19,
        })
    }
}

fn word_offset14(offset: i32) -> Result<u32, EncodeError> {
    if offset % 4 != 0 {
        return Err(EncodeError::MisalignedOffset { offset });
    }
    imm14(offset / 4)
}

fn word_offset19(offset: i32) -> Result<u32, EncodeError> {
    if offset % 4 != 0 {
        return Err(EncodeError::MisalignedOffset { offset });
    }
    imm19s(offset / 4)
}

fn sext14(v: u32) -> i32 {
    ((v & 0x3FFF) as i32) << 18 >> 18
}

fn sext19(v: u32) -> i32 {
    ((v & 0x7FFFF) as i32) << 13 >> 13
}

fn pack(op: u8, a: u8, b: u8, low: u32) -> u32 {
    ((op as u32) << 24) | ((a as u32 & 31) << 19) | ((b as u32 & 31) << 14) | (low & 0x3FFF)
}

fn pack_j(op: u8, a: u8, imm19: u32) -> u32 {
    ((op as u32) << 24) | ((a as u32 & 31) << 19) | (imm19 & 0x7FFFF)
}

fn pack_r(op: u8, a: u8, b: u8, c: u8) -> u32 {
    pack(op, a, b, (c as u32 & 31) << 9)
}

/// Encodes an instruction to its 32-bit word.
///
/// # Errors
/// Returns [`EncodeError`] if an immediate or offset does not fit.
pub fn encode(instr: Instr) -> Result<u32, EncodeError> {
    Ok(match instr {
        Instr::Halt => pack(OP_HALT, 0, 0, 0),
        Instr::Syscall => pack(OP_SYSCALL, 0, 0, 0),
        Instr::Alu { op, rd, rs1, rs2 } => pack_r(OP_ALU + op.code(), rd.0, rs1.0, rs2.0),
        Instr::AluImm { op, rd, rs1, imm } => {
            pack(OP_ALUI + op.code(), rd.0, rs1.0, imm14(imm)?)
        }
        Instr::Lui { rd, imm } => {
            if imm >= 1 << 19 {
                return Err(EncodeError::ImmOutOfRange {
                    value: imm as i64,
                    bits: 19,
                });
            }
            pack_j(OP_LUI, rd.0, imm)
        }
        Instr::Mul { op, rd, rs1, rs2 } => pack_r(OP_MUL + op.code(), rd.0, rs1.0, rs2.0),
        Instr::Load {
            width,
            unsigned,
            rd,
            rs1,
            offset,
        } => {
            let op = match (width, unsigned) {
                (MemWidth::Word, _) => OP_LW,
                (MemWidth::Half, false) => OP_LH,
                (MemWidth::Half, true) => OP_LHU,
                (MemWidth::Byte, false) => OP_LB,
                (MemWidth::Byte, true) => OP_LBU,
            };
            pack(op, rd.0, rs1.0, imm14(offset)?)
        }
        Instr::Store {
            width,
            rs2,
            rs1,
            offset,
        } => {
            let op = match width {
                MemWidth::Word => OP_SW,
                MemWidth::Half => OP_SH,
                MemWidth::Byte => OP_SB,
            };
            pack(op, rs2.0, rs1.0, imm14(offset)?)
        }
        Instr::Branch {
            cond,
            rs1,
            rs2,
            offset,
        } => pack(OP_BRANCH + cond.code(), rs1.0, rs2.0, word_offset14(offset)?),
        Instr::Jal { rd, offset } => pack_j(OP_JAL, rd.0, word_offset19(offset)?),
        Instr::Jalr { rd, rs1, offset } => pack(OP_JALR, rd.0, rs1.0, imm14(offset)?),
        Instr::Fpu { op, fd, fs1, fs2 } => pack_r(OP_FPU + op.code(), fd.0, fs1.0, fs2.0),
        Instr::FpCmp {
            cond,
            rd,
            fs1,
            fs2,
        } => pack_r(OP_FCMP + cond.code(), rd.0, fs1.0, fs2.0),
        Instr::CvtSW { fd, rs1 } => pack(OP_CVTSW, fd.0, rs1.0, 0),
        Instr::CvtWS { rd, fs1 } => pack(OP_CVTWS, rd.0, fs1.0, 0),
        Instr::FpLoad { fd, rs1, offset } => pack(OP_FLW, fd.0, rs1.0, imm14(offset)?),
        Instr::FpStore { fs2, rs1, offset } => pack(OP_FSW, fs2.0, rs1.0, imm14(offset)?),
    })
}

/// Decodes a 32-bit word to an instruction.
///
/// # Errors
/// Returns [`DecodeError::BadOpcode`] for unknown opcodes.
pub fn decode(word: u32) -> Result<Instr, DecodeError> {
    let op = (word >> 24) as u8;
    let a = ((word >> 19) & 31) as u8;
    let b = ((word >> 14) & 31) as u8;
    let c = ((word >> 9) & 31) as u8;
    let i14 = sext14(word);
    let i19 = sext19(word);

    Ok(match op {
        OP_HALT => Instr::Halt,
        OP_SYSCALL => Instr::Syscall,
        _ if (OP_ALU..OP_ALU + 10).contains(&op) => Instr::Alu {
            op: AluOp::ALL[(op - OP_ALU) as usize],
            rd: Reg(a),
            rs1: Reg(b),
            rs2: Reg(c),
        },
        _ if (OP_ALUI..OP_ALUI + 10).contains(&op) => Instr::AluImm {
            op: AluOp::ALL[(op - OP_ALUI) as usize],
            rd: Reg(a),
            rs1: Reg(b),
            imm: i14,
        },
        OP_LUI => Instr::Lui {
            rd: Reg(a),
            imm: word & 0x7FFFF,
        },
        _ if (OP_MUL..OP_MUL + 4).contains(&op) => Instr::Mul {
            op: MulOp::ALL[(op - OP_MUL) as usize],
            rd: Reg(a),
            rs1: Reg(b),
            rs2: Reg(c),
        },
        OP_LW | OP_LH | OP_LHU | OP_LB | OP_LBU => {
            let (width, unsigned) = match op {
                OP_LW => (MemWidth::Word, false),
                OP_LH => (MemWidth::Half, false),
                OP_LHU => (MemWidth::Half, true),
                OP_LB => (MemWidth::Byte, false),
                _ => (MemWidth::Byte, true),
            };
            Instr::Load {
                width,
                unsigned,
                rd: Reg(a),
                rs1: Reg(b),
                offset: i14,
            }
        }
        OP_SW | OP_SH | OP_SB => {
            let width = match op {
                OP_SW => MemWidth::Word,
                OP_SH => MemWidth::Half,
                _ => MemWidth::Byte,
            };
            Instr::Store {
                width,
                rs2: Reg(a),
                rs1: Reg(b),
                offset: i14,
            }
        }
        _ if (OP_BRANCH..OP_BRANCH + 6).contains(&op) => Instr::Branch {
            cond: BranchCond::ALL[(op - OP_BRANCH) as usize],
            rs1: Reg(a),
            rs2: Reg(b),
            offset: i14 * 4,
        },
        OP_JAL => Instr::Jal {
            rd: Reg(a),
            offset: i19 * 4,
        },
        OP_JALR => Instr::Jalr {
            rd: Reg(a),
            rs1: Reg(b),
            offset: i14,
        },
        _ if (OP_FPU..OP_FPU + 4).contains(&op) => Instr::Fpu {
            op: FpuOp::ALL[(op - OP_FPU) as usize],
            fd: FReg(a),
            fs1: FReg(b),
            fs2: FReg(c),
        },
        _ if (OP_FCMP..OP_FCMP + 3).contains(&op) => Instr::FpCmp {
            cond: FpCmpCond::ALL[(op - OP_FCMP) as usize],
            rd: Reg(a),
            fs1: FReg(b),
            fs2: FReg(c),
        },
        OP_CVTSW => Instr::CvtSW {
            fd: FReg(a),
            rs1: Reg(b),
        },
        OP_CVTWS => Instr::CvtWS {
            rd: Reg(a),
            fs1: FReg(b),
        },
        OP_FLW => Instr::FpLoad {
            fd: FReg(a),
            rs1: Reg(b),
            offset: i14,
        },
        OP_FSW => Instr::FpStore {
            fs2: FReg(a),
            rs1: Reg(b),
            offset: i14,
        },
        _ => return Err(DecodeError::BadOpcode { opcode: op, word }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(i: Instr) {
        let w = encode(i).expect("encodable");
        let back = decode(w).expect("decodable");
        assert_eq!(i, back, "word {w:#010x}");
    }

    #[test]
    fn roundtrip_representatives() {
        roundtrip(Instr::Halt);
        roundtrip(Instr::Syscall);
        for op in AluOp::ALL {
            roundtrip(Instr::Alu {
                op,
                rd: Reg(1),
                rs1: Reg(2),
                rs2: Reg(31),
            });
            roundtrip(Instr::AluImm {
                op,
                rd: Reg(31),
                rs1: Reg(0),
                imm: -8192,
            });
        }
        for op in MulOp::ALL {
            roundtrip(Instr::Mul {
                op,
                rd: Reg(9),
                rs1: Reg(10),
                rs2: Reg(11),
            });
        }
        for cond in BranchCond::ALL {
            roundtrip(Instr::Branch {
                cond,
                rs1: Reg(1),
                rs2: Reg(2),
                offset: -32768,
            });
        }
        for op in FpuOp::ALL {
            roundtrip(Instr::Fpu {
                op,
                fd: FReg(1),
                fs1: FReg(2),
                fs2: FReg(3),
            });
        }
        for cond in FpCmpCond::ALL {
            roundtrip(Instr::FpCmp {
                cond,
                rd: Reg(4),
                fs1: FReg(5),
                fs2: FReg(6),
            });
        }
        roundtrip(Instr::Lui {
            rd: Reg(7),
            imm: 0x7FFFF,
        });
        roundtrip(Instr::Jal {
            rd: Reg(31),
            offset: 4 * ((1 << 18) - 1),
        });
        roundtrip(Instr::Jalr {
            rd: Reg(1),
            rs1: Reg(2),
            offset: 8191,
        });
        roundtrip(Instr::CvtSW {
            fd: FReg(1),
            rs1: Reg(2),
        });
        roundtrip(Instr::CvtWS {
            rd: Reg(3),
            fs1: FReg(4),
        });
        roundtrip(Instr::FpLoad {
            fd: FReg(1),
            rs1: Reg(2),
            offset: -4,
        });
        roundtrip(Instr::FpStore {
            fs2: FReg(3),
            rs1: Reg(4),
            offset: 4,
        });
        for (w, u) in [
            (MemWidth::Word, false),
            (MemWidth::Half, false),
            (MemWidth::Half, true),
            (MemWidth::Byte, false),
            (MemWidth::Byte, true),
        ] {
            roundtrip(Instr::Load {
                width: w,
                unsigned: u,
                rd: Reg(5),
                rs1: Reg(6),
                offset: 124,
            });
        }
        for w in [MemWidth::Word, MemWidth::Half, MemWidth::Byte] {
            roundtrip(Instr::Store {
                width: w,
                rs2: Reg(5),
                rs1: Reg(6),
                offset: -124,
            });
        }
    }

    #[test]
    fn imm_range_checked() {
        let e = encode(Instr::AluImm {
            op: AluOp::Add,
            rd: Reg(1),
            rs1: Reg(2),
            imm: 8192,
        });
        assert!(matches!(e, Err(EncodeError::ImmOutOfRange { bits: 14, .. })));
        let e = encode(Instr::Lui {
            rd: Reg(1),
            imm: 1 << 19,
        });
        assert!(matches!(e, Err(EncodeError::ImmOutOfRange { bits: 19, .. })));
    }

    #[test]
    fn misaligned_branch_rejected() {
        let e = encode(Instr::Branch {
            cond: BranchCond::Eq,
            rs1: Reg(1),
            rs2: Reg(2),
            offset: 6,
        });
        assert!(matches!(e, Err(EncodeError::MisalignedOffset { offset: 6 })));
        let e = encode(Instr::Jal {
            rd: Reg(0),
            offset: 2,
        });
        assert!(matches!(e, Err(EncodeError::MisalignedOffset { .. })));
    }

    #[test]
    fn bad_opcode_decodes_to_error() {
        let e = decode(0xFF00_0000);
        assert!(matches!(e, Err(DecodeError::BadOpcode { opcode: 0xFF, .. })));
        assert!(decode(0xFF00_0000).unwrap_err().to_string().contains("0xff"));
    }

    #[test]
    fn branch_offsets_scale_by_four() {
        let w = encode(Instr::Branch {
            cond: BranchCond::Ne,
            rs1: Reg(1),
            rs2: Reg(2),
            offset: -4,
        })
        .unwrap();
        // imm field holds -1.
        assert_eq!(w & 0x3FFF, 0x3FFF);
    }
}
