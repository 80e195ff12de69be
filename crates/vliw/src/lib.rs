//! # vliw — the VLIW demonstration of paper §6
//!
//! "Since Very Long Instruction Word (VLIW) architectures have simpler
//! pipeline control, they can be easily modeled by OSM as well." This crate
//! substantiates that sentence end to end:
//!
//! * [`schedule`] — a miniature VLIW compiler: pairs independent MiniRISC
//!   operations into two-slot [`Bundle`]s, keeps branch targets at bundle
//!   boundaries, pads with NOPs.
//! * [`VliwSim`] — the OSM model of the core: three stage managers plus a
//!   reset manager are *all* the hardware needs, because the scheduler (not
//!   tokens) guarantees operand independence.
//! * [`interpret`] — a functional reference for validating both.
//!
//! ```
//! use minirisc::{AluOp, Instr, Reg};
//! use vliw::{interpret, schedule, VliwConfig, VliwIr, VliwSim};
//!
//! # fn main() -> Result<(), osm_core::ModelError> {
//! let mut ir = VliwIr::new();
//! ir.push(Instr::AluImm { op: AluOp::Add, rd: Reg(11), rs1: Reg(0), imm: 9 });
//! ir.push(Instr::AluImm { op: AluOp::Add, rd: Reg(10), rs1: Reg(0), imm: 0 });
//! ir.push(Instr::Syscall);
//! let program = schedule(&ir, vec![]);
//! let golden = interpret(&program, 1_000);
//! let timed = VliwSim::new(VliwConfig::default(), &program).run_to_halt(10_000)?;
//! assert_eq!(timed.exit_code, golden.exit_code);
//! assert_eq!(timed.exit_code, 9);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod model;
mod schedule;

pub use model::{
    interpret, VliwConfig, VliwManagers, VliwResult, VliwShared, VliwSim, CODE_BASE, DATA_BASE,
};
pub use schedule::{schedule, Bundle, VliwIr, VliwProgram};

#[cfg(test)]
mod tests {
    use super::*;
    use minirisc::{AluOp, BranchCond, Instr, MemWidth, Reg};

    fn addi(rd: u8, rs1: u8, imm: i32) -> Instr {
        Instr::AluImm {
            op: AluOp::Add,
            rd: Reg(rd),
            rs1: Reg(rs1),
            imm,
        }
    }

    fn exit_with(ir: &mut VliwIr, reg: u8) {
        ir.push(addi(10, 0, 0));
        ir.push(Instr::Alu {
            op: AluOp::Add,
            rd: Reg(11),
            rs1: Reg(reg),
            rs2: Reg(0),
        });
        ir.push(Instr::Syscall);
    }

    /// A countdown loop with a body of independent adds.
    fn ilp_loop(iters: i32, body: usize) -> VliwIr {
        let mut ir = VliwIr::new();
        ir.push(addi(1, 0, iters));
        let top = ir.instrs.len();
        for k in 0..body {
            ir.push(addi(2 + (k % 6) as u8, 0, k as i32));
        }
        ir.push(addi(1, 1, -1));
        ir.branch(
            Instr::Branch {
                cond: BranchCond::Ne,
                rs1: Reg(1),
                rs2: Reg(0),
                offset: 0,
            },
            top,
        );
        exit_with(&mut ir, 1);
        ir
    }

    #[test]
    fn model_matches_interpreter_functionally() {
        let program = schedule(&ilp_loop(20, 8), vec![]);
        let golden = interpret(&program, 100_000);
        let timed = VliwSim::new(VliwConfig::default(), &program)
            .run_to_halt(1_000_000)
            .expect("no deadlock");
        assert_eq!(timed.exit_code, golden.exit_code);
        assert_eq!(timed.retired_ops, golden.retired_ops);
        assert_eq!(timed.retired_bundles, golden.retired_bundles);
        assert_eq!(timed.output, golden.output);
    }

    #[test]
    fn slot_parallelism_beats_scalar_bundling() {
        let ir = ilp_loop(50, 8);
        let packed = schedule(&ir, vec![]);
        // Scalar baseline: one operation per bundle, same control targets.
        let scalar = VliwProgram {
            bundles: ir
                .instrs
                .iter()
                .map(|&i| Bundle {
                    slots: [i, Instr::NOP],
                })
                .collect(),
            data: vec![],
            targets: ir.targets.iter().map(|(&f, &t)| (f, t)).collect(),
        };
        let fast = VliwSim::new(VliwConfig::default(), &packed)
            .run_to_halt(1_000_000)
            .expect("runs");
        let slow = VliwSim::new(VliwConfig::default(), &scalar)
            .run_to_halt(1_000_000)
            .expect("runs");
        assert_eq!(fast.exit_code, slow.exit_code);
        assert!(
            fast.cycles * 5 < slow.cycles * 4,
            "packed {} vs scalar {}",
            fast.cycles,
            slow.cycles
        );
        assert!(fast.cpo() < 1.0, "cycles/op {} shows slot parallelism", fast.cpo());
    }

    #[test]
    fn taken_branches_squash_bundles() {
        let program = schedule(&ilp_loop(10, 2), vec![]);
        let r = VliwSim::new(VliwConfig::default(), &program)
            .run_to_halt(1_000_000)
            .expect("runs");
        assert!(r.squashed >= 9, "taken back-edges squash: {}", r.squashed);
    }

    #[test]
    fn data_segment_loads_and_stores_work() {
        let mut ir = VliwIr::new();
        // r1 = DATA_BASE; store 77; load it back.
        ir.push(Instr::Lui {
            rd: Reg(1),
            imm: DATA_BASE >> 13,
        });
        ir.push(addi(2, 0, 77));
        ir.push(Instr::Store {
            width: MemWidth::Word,
            rs2: Reg(2),
            rs1: Reg(1),
            offset: 4,
        });
        ir.push(Instr::Load {
            width: MemWidth::Word,
            unsigned: false,
            rd: Reg(3),
            rs1: Reg(1),
            offset: 4,
        });
        // Also read the pre-initialized data word 0.
        ir.push(Instr::Load {
            width: MemWidth::Word,
            unsigned: false,
            rd: Reg(4),
            rs1: Reg(1),
            offset: 0,
        });
        ir.push(Instr::Alu {
            op: AluOp::Add,
            rd: Reg(5),
            rs1: Reg(3),
            rs2: Reg(4),
        });
        exit_with(&mut ir, 5);
        let program = schedule(&ir, vec![23]);
        let golden = interpret(&program, 1_000);
        assert_eq!(golden.exit_code, 100);
        let mut sim = VliwSim::new(VliwConfig::default(), &program);
        let timed = sim.run_to_halt(100_000).expect("runs");
        assert_eq!(timed.exit_code, 100);
        assert!(sim.machine().shared.memsys.dcache.stats.accesses >= 3);
    }

    #[test]
    fn checkpoint_restores_into_fresh_sim_replays_exactly() {
        // Checkpoint mid-loop with branch squashes in flight, then restore
        // into a freshly-built simulator from bytes alone.
        let program = schedule(&ilp_loop(20, 4), vec![]);
        let mut sim = VliwSim::new(VliwConfig::default(), &program);
        for _ in 0..30 {
            sim.machine_mut().step().unwrap();
        }
        let bytes = sim.checkpoint().unwrap();
        let reference = sim.run_to_halt(1_000_000).unwrap();
        drop(sim);

        let mut fresh = VliwSim::new(VliwConfig::default(), &program);
        fresh.restore(&bytes).unwrap();
        assert_eq!(fresh.machine().cycle(), 30);
        let replay = fresh.run_to_halt(1_000_000).unwrap();
        assert_eq!(replay, reference);

        // Damaged bytes are rejected by the seal.
        let mut bad = bytes.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x10;
        let mut victim = VliwSim::new(VliwConfig::default(), &program);
        assert!(victim.restore(&bad).is_err());
    }

    #[test]
    fn checkpoint_rewinds_the_same_sim() {
        let program = schedule(&ilp_loop(12, 3), vec![]);
        let mut sim = VliwSim::new(VliwConfig::default(), &program);
        for _ in 0..10 {
            sim.machine_mut().step().unwrap();
        }
        let ckpt = sim.checkpoint().unwrap();
        let reference = sim.run_to_halt(1_000_000).unwrap();
        sim.restore(&ckpt).unwrap();
        assert_eq!(sim.machine().cycle(), 10);
        let replay = sim.run_to_halt(1_000_000).unwrap();
        assert_eq!(replay, reference);
    }

    #[test]
    fn deterministic() {
        let program = schedule(&ilp_loop(15, 5), vec![]);
        let a = VliwSim::new(VliwConfig::default(), &program)
            .run_to_halt(1_000_000)
            .expect("runs");
        let b = VliwSim::new(VliwConfig::default(), &program)
            .run_to_halt(1_000_000)
            .expect("runs");
        assert_eq!(a, b);
    }
}
