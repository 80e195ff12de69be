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
pub use schedule::{ilp_loop, schedule, Bundle, VliwIr, VliwProgram};

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
        let bytes = sim.machine().checkpoint().unwrap();
        let reference = sim.run_to_halt(1_000_000).unwrap();
        drop(sim);

        let mut fresh = VliwSim::new(VliwConfig::default(), &program);
        fresh.machine_mut().restore(&bytes).unwrap();
        assert_eq!(fresh.machine().cycle(), 30);
        let replay = fresh.run_to_halt(1_000_000).unwrap();
        assert_eq!(replay, reference);

        // Damaged bytes are rejected by the seal.
        let mut bad = bytes.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x10;
        let mut victim = VliwSim::new(VliwConfig::default(), &program);
        assert!(victim.machine_mut().restore(&bad).is_err());
    }

    #[test]
    fn checkpoint_rewinds_the_same_sim() {
        let program = schedule(&ilp_loop(12, 3), vec![]);
        let mut sim = VliwSim::new(VliwConfig::default(), &program);
        for _ in 0..10 {
            sim.machine_mut().step().unwrap();
        }
        let ckpt = sim.machine().checkpoint().unwrap();
        let reference = sim.run_to_halt(1_000_000).unwrap();
        sim.machine_mut().restore(&ckpt).unwrap();
        assert_eq!(sim.machine().cycle(), 10);
        let replay = sim.run_to_halt(1_000_000).unwrap();
        assert_eq!(replay, reference);
    }

    /// `ckpt` resealed with every bundle op's bundle index set to `idx`.
    fn with_bundle_index(ckpt: &[u8], idx: u64) -> Vec<u8> {
        use osm_core::persist::{fnv1a, unseal, ByteReader, ByteWriter};
        let payload = unseal(ckpt, fnv1a).expect("sealed");
        let mut out = payload.to_vec();
        let mut r = ByteReader::new(payload);
        r.take_bytes().unwrap();
        r.take_u32().unwrap();
        for _ in 0..10 {
            r.take_u64().unwrap();
        }
        r.take_vec(|r| Some((r.take_str()?, r.take_u64()?)))
            .unwrap();
        r.take_bytes().unwrap();
        for _ in 0..r.take_u32().unwrap() {
            r.take_u32().unwrap();
            for _ in 0..3 {
                r.take_u64().unwrap();
            }
            r.take_vec(|r| Some((r.take_u64()?, r.take_u32()?, r.take_u64()?)))
                .unwrap();
            r.take_vec(ByteReader::take_u64).unwrap();
            assert_eq!(r.take_u8(), Some(1), "a bundle op always has a section");
            let section = r.take_bytes().unwrap();
            // The section opens with the bundle index.
            let at = r.position() - section.len();
            out[at..at + 8].copy_from_slice(&idx.to_le_bytes());
        }
        let mut w = ByteWriter::new();
        w.put_raw(&out);
        w.into_sealed_bytes(fnv1a)
    }

    #[test]
    fn restore_refuses_a_bundle_index_past_the_program() {
        let program = schedule(&ilp_loop(20, 4), vec![]);
        let mut sim = VliwSim::new(VliwConfig::default(), &program);
        for _ in 0..30 {
            sim.machine_mut().step().unwrap();
        }
        let good = sim.machine().checkpoint().unwrap();
        let reference = VliwSim::new(VliwConfig::default(), &program)
            .run_to_halt(1_000_000)
            .unwrap();
        for idx in [program.bundles.len() as u64, u64::MAX] {
            let err = sim
                .machine_mut()
                .restore(&with_bundle_index(&good, idx))
                .expect_err("a bundle index past the program");
            assert!(
                matches!(err, osm_core::ModelError::SnapshotMismatch { .. }),
                "{err:?}"
            );
            assert_eq!(
                sim.machine().checkpoint().unwrap(),
                good,
                "machine unchanged"
            );
        }
        // The run goes on from where the refused restore found it.
        assert_eq!(sim.run_to_halt(1_000_000).unwrap(), reference);
    }

    #[test]
    fn unknown_syscall_halts_and_its_error_survives_a_checkpoint() {
        let mut ir = VliwIr::new();
        ir.push(addi(10, 0, 7));
        ir.push(Instr::Syscall);
        exit_with(&mut ir, 1);
        let program = schedule(&ir, vec![]);
        let golden = interpret(&program, 1_000);
        assert_eq!((golden.exit_code, golden.retired_bundles), (0, 2));

        let mut sim = VliwSim::new(VliwConfig::default(), &program);
        while sim.machine().shared.error.is_none() {
            sim.machine_mut().step().unwrap();
        }
        assert!(
            !sim.machine().shared.halted,
            "the faulting bundle has not retired yet"
        );
        let ckpt = sim.machine().checkpoint().unwrap();
        let reference = sim.run_to_halt(1_000).unwrap();
        assert_eq!(reference.exit_code, golden.exit_code);
        assert_eq!(reference.retired_bundles, golden.retired_bundles);
        let error = sim.machine().shared.error.clone();
        // The syscall sits alone in bundle 1.
        assert_eq!(error.as_deref(), Some("at 0x00001008: unknown syscall 7"));

        let mut fresh = VliwSim::new(VliwConfig::default(), &program);
        fresh.machine_mut().restore(&ckpt).unwrap();
        assert_eq!(fresh.machine().shared.error, error);
        assert_eq!(fresh.run_to_halt(1_000).unwrap(), reference);
    }

    #[test]
    fn untargeted_control_transfers_halt_with_an_error() {
        // A `jalr` jumps to a register value, which names no bundle; a
        // branch added with `push` has no recorded target either. Each
        // sits alone in bundle 1, which retires and ends the run.
        let always = Instr::Branch {
            cond: BranchCond::Eq,
            rs1: Reg(0),
            rs2: Reg(0),
            offset: 8,
        };
        let jalr = Instr::Jalr {
            rd: Reg(0),
            rs1: Reg(1),
            offset: 0,
        };
        for transfer in [jalr, always] {
            let mut ir = VliwIr::new();
            ir.push(addi(1, 0, 0x40));
            ir.push(transfer);
            exit_with(&mut ir, 1);
            let program = schedule(&ir, vec![]);
            let expected = Some("at 0x00001008: taken control transfer without a bundle target");

            let golden = interpret(&program, 1_000);
            assert_eq!(golden.error.as_deref(), expected, "{transfer:?}");
            assert_eq!((golden.retired_ops, golden.retired_bundles), (2, 2));

            let mut sim = VliwSim::new(VliwConfig::default(), &program);
            let timed = sim.run_to_halt(1_000).expect("no deadlock");
            assert!(sim.machine().shared.halted, "{transfer:?}: the run halts");
            assert_eq!(timed.error.as_deref(), expected, "{transfer:?}");
            assert_eq!(
                (timed.retired_ops, timed.retired_bundles, timed.exit_code),
                (golden.retired_ops, golden.retired_bundles, golden.exit_code),
                "{transfer:?}"
            );
        }
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
