//! Property-based tests (proptest) over the core invariants:
//!
//! * instruction encode/decode round-trips;
//! * assembler parses the disassembler's output back to the same instruction;
//! * random programs behave identically on the ISS, both StrongARM
//!   simulators and both PPC-750 simulators (functional equivalence), with
//!   deterministic, pairwise-equal timing;
//! * the OSM director is deterministic (trace digests repeat);
//! * the fast scheduler matches the seed one with no observers attached
//!   (the untracked director that plain `Machine::run` users execute).

use osm_fuzz::{generate, GenConfig};
use osm_repro::minirisc::{
    assemble, decode, encode, AluOp, BranchCond, FpCmpCond, FpuOp, FReg, Instr, Iss, MemWidth,
    MulOp, Reg, SparseMemory,
};
use osm_repro::osm_core::{
    FaultInjector, HardwareLayer, InertBehavior, Machine, ManagerId, RestartPolicy, SchedulerMode,
};
use osm_repro::ppc750::{PpcConfig, PpcOsmSim, PpcPortSim};
use osm_repro::sa1100::{RefSim, SaConfig, SaOsmSim};
use osm_repro::vliw::{schedule, VliwConfig, VliwIr, VliwSim};
use osm_repro::workloads::random_program;
use proptest::prelude::*;

fn reg() -> impl Strategy<Value = Reg> {
    (0u8..32).prop_map(Reg)
}

fn freg() -> impl Strategy<Value = FReg> {
    (0u8..32).prop_map(FReg)
}

fn imm14() -> impl Strategy<Value = i32> {
    -8192i32..8192
}

fn instr() -> impl Strategy<Value = Instr> {
    prop_oneof![
        Just(Instr::Halt),
        Just(Instr::Syscall),
        (prop::sample::select(&AluOp::ALL[..]), reg(), reg(), reg())
            .prop_map(|(op, rd, rs1, rs2)| Instr::Alu { op, rd, rs1, rs2 }),
        // No Sub-immediate: the ISA convention is a negative AddI (the
        // assembler's `subi` pseudo), so the canonical form excludes it.
        (
            prop::sample::select(&AluOp::ALL[..]).prop_filter("no subi", |op| *op != AluOp::Sub),
            reg(),
            reg(),
            imm14()
        )
            .prop_map(|(op, rd, rs1, imm)| Instr::AluImm { op, rd, rs1, imm }),
        (reg(), 0u32..(1 << 19)).prop_map(|(rd, imm)| Instr::Lui { rd, imm }),
        (prop::sample::select(&MulOp::ALL[..]), reg(), reg(), reg())
            .prop_map(|(op, rd, rs1, rs2)| Instr::Mul { op, rd, rs1, rs2 }),
        (
            prop::sample::select(&[MemWidth::Byte, MemWidth::Half, MemWidth::Word][..]),
            any::<bool>(),
            reg(),
            reg(),
            imm14()
        )
            .prop_map(|(width, unsigned, rd, rs1, offset)| Instr::Load {
                width,
                unsigned,
                rd,
                rs1,
                offset
            }),
        (
            prop::sample::select(&[MemWidth::Byte, MemWidth::Half, MemWidth::Word][..]),
            reg(),
            reg(),
            imm14()
        )
            .prop_map(|(width, rs2, rs1, offset)| Instr::Store {
                width,
                rs2,
                rs1,
                offset
            }),
        (
            prop::sample::select(&BranchCond::ALL[..]),
            reg(),
            reg(),
            -8192i32..8192
        )
            .prop_map(|(cond, rs1, rs2, w)| Instr::Branch {
                cond,
                rs1,
                rs2,
                offset: w * 4
            }),
        (reg(), -200000i32..200000).prop_map(|(rd, w)| Instr::Jal { rd, offset: w * 4 }),
        (reg(), reg(), imm14()).prop_map(|(rd, rs1, offset)| Instr::Jalr { rd, rs1, offset }),
        (prop::sample::select(&FpuOp::ALL[..]), freg(), freg(), freg())
            .prop_map(|(op, fd, fs1, fs2)| Instr::Fpu { op, fd, fs1, fs2 }),
        (
            prop::sample::select(&FpCmpCond::ALL[..]),
            reg(),
            freg(),
            freg()
        )
            .prop_map(|(cond, rd, fs1, fs2)| Instr::FpCmp { cond, rd, fs1, fs2 }),
        (freg(), reg()).prop_map(|(fd, rs1)| Instr::CvtSW { fd, rs1 }),
        (reg(), freg()).prop_map(|(rd, fs1)| Instr::CvtWS { rd, fs1 }),
        (freg(), reg(), imm14()).prop_map(|(fd, rs1, offset)| Instr::FpLoad { fd, rs1, offset }),
        (freg(), reg(), imm14()).prop_map(|(fs2, rs1, offset)| Instr::FpStore {
            fs2,
            rs1,
            offset
        }),
    ]
}

/// An instruction's sub-word load variants print identically when the width
/// makes `unsigned` meaningless; normalize before comparing round-trips.
fn normalize(i: Instr) -> Instr {
    match i {
        Instr::Load {
            width: MemWidth::Word,
            rd,
            rs1,
            offset,
            ..
        } => Instr::Load {
            width: MemWidth::Word,
            unsigned: false,
            rd,
            rs1,
            offset,
        },
        other => other,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn encode_decode_round_trip(i in instr()) {
        let i = normalize(i);
        let word = encode(i).expect("strategy stays in range");
        prop_assert_eq!(normalize(decode(word).expect("decodes")), i);
    }

    #[test]
    fn assembler_parses_disassembly(i in instr()) {
        let i = normalize(i);
        let text = i.to_string();
        let p = assemble(&text, 0).unwrap_or_else(|e| panic!("`{text}`: {e}"));
        prop_assert_eq!(p.words.len(), 1);
        prop_assert_eq!(normalize(decode(p.words[0]).expect("decodes")), i);
    }

    #[test]
    fn decode_is_idempotent_under_reencoding(word in any::<u32>()) {
        if let Ok(i) = decode(word) {
            if let Ok(again) = encode(i) {
                prop_assert_eq!(decode(again).expect("canonical decodes"), i);
            }
        }
    }
}

/// Named regression tests for cases proptest once shrank to (see
/// `properties.proptest-regressions`). Each pins the triaged verdict so the
/// persisted seed can never silently regress into a different failure.
mod regressions {
    use super::*;

    /// Shrunk case `AluImm { op: Sub, rd: Reg(0), rs1: Reg(0), imm: 0 }`
    /// (cc 693fbce3…): `assembler_parses_disassembly` failed because the
    /// instruction displays as `subi r0, r0, 0` and `subi` is a *pseudo* —
    /// the ISA has no Sub-immediate encoding, so the assembler lowers it to
    /// a negative `addi`. Verdict: blessed. The in-memory variant can
    /// represent a Sub-immediate but it is non-canonical; the strategy
    /// excludes it (`prop_filter("no subi", ..)`), and these tests pin the
    /// intended canonicalization.
    #[test]
    fn subi_shrink_case_still_roundtrips_through_encode_decode() {
        // The raw encoding layer was never the bug: Sub-immediate packs and
        // unpacks exactly.
        let i = Instr::AluImm {
            op: AluOp::Sub,
            rd: Reg(0),
            rs1: Reg(0),
            imm: 0,
        };
        let word = encode(i).expect("Sub-immediate has an encoding slot");
        assert_eq!(decode(word).expect("decodes"), i);
    }

    #[test]
    fn subi_display_assembles_to_canonical_negative_addi() {
        for (rd, rs1, imm) in [(0u8, 0u8, 0i32), (3, 4, 5), (1, 2, -17), (7, 7, 8191)] {
            let sub = Instr::AluImm {
                op: AluOp::Sub,
                rd: Reg(rd),
                rs1: Reg(rs1),
                imm,
            };
            let text = sub.to_string();
            assert!(text.starts_with("subi"), "display changed: {text}");
            let p = assemble(&text, 0).unwrap_or_else(|e| panic!("`{text}`: {e}"));
            assert_eq!(p.words.len(), 1);
            let lowered = decode(p.words[0]).expect("decodes");
            assert_eq!(
                lowered,
                Instr::AluImm {
                    op: AluOp::Add,
                    rd: Reg(rd),
                    rs1: Reg(rs1),
                    imm: -imm,
                },
                "`{text}` must lower to the canonical negative addi"
            );
        }
    }

    #[test]
    fn subi_lowering_is_semantically_equivalent() {
        // x - imm == x + (-imm): the lowering the assembler performs is
        // meaning-preserving, which is why blessing (not "fixing" the
        // assembler to emit a phantom SubI) was the right call.
        let program_text = "addi r1, r0, 100\nsubi r2, r1, 42\nhalt\n";
        let p = assemble(program_text, 0).expect("assembles");
        let mut iss = Iss::with_program(SparseMemory::new(), &p);
        iss.run(100).expect("runs");
        assert_eq!(iss.cpu.gpr(Reg(2)), 58);
    }

    #[test]
    fn subi_of_minimum_immediate_overflows_cleanly() {
        // The one place the pseudo genuinely cannot lower: -(-8192) = 8192
        // does not fit the 14-bit immediate, so assembly must fail with a
        // range diagnostic rather than wrap.
        assert!(assemble("subi r1, r2, -8192\n", 0).is_err());
    }
}

/// A VLIW countdown loop with `body` independent adds per iteration (the
/// same shape as the vliw crate's own `ilp_loop` fixture).
fn vliw_ilp_loop(iters: i32, body: usize) -> VliwIr {
    let addi = |rd: u8, rs1: u8, imm: i32| Instr::AluImm {
        op: AluOp::Add,
        rd: Reg(rd),
        rs1: Reg(rs1),
        imm,
    };
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
    ir.push(addi(10, 0, 0));
    ir.push(Instr::Alu {
        op: AluOp::Add,
        rd: Reg(11),
        rs1: Reg(1),
        rs2: Reg(0),
    });
    ir.push(Instr::Syscall);
    ir
}

proptest! {
    // Full-simulator cases are expensive; fewer, bigger cases.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn random_programs_equivalent_on_every_simulator(seed in 0u64..10_000, len in 10usize..60) {
        let w = random_program(seed, len);
        let program = w.program();

        let mut iss = Iss::with_program(SparseMemory::new(), &program);
        iss.run(20_000_000).expect("ISS terminates");

        let mut sa = SaOsmSim::new(SaConfig::paper(), &program);
        let sa_r = sa.run_to_halt(50_000_000).expect("no deadlock");
        let sr_r = RefSim::new(SaConfig::paper(), &program).run_to_halt(50_000_000);
        let mut po = PpcOsmSim::new(PpcConfig::paper(), &program);
        let po_r = po.run_to_halt(50_000_000).expect("no deadlock");
        let pp_r = PpcPortSim::new(PpcConfig::paper(), &program).run_to_halt(50_000_000);

        prop_assert_eq!(sa_r.exit_code, iss.exit_code);
        prop_assert_eq!(sr_r.exit_code, iss.exit_code);
        prop_assert_eq!(po_r.exit_code, iss.exit_code);
        prop_assert_eq!(pp_r.exit_code, iss.exit_code);
        prop_assert_eq!(sa_r.retired, iss.retired);
        prop_assert_eq!(po_r.retired, iss.retired);
        prop_assert_eq!(sa_r.cycles, sr_r.cycles);
        prop_assert_eq!(po_r.cycles, pp_r.cycles);
    }

    #[test]
    fn token_conservation_holds_throughout_execution(seed in 0u64..10_000) {
        // The dynamic counterpart of the static verifier: at every cycle of
        // a random program, every committed-owned token of every auditable
        // manager sits in exactly its owner's buffer.
        let w = random_program(seed, 30);
        let program = w.program();
        let mut sim = SaOsmSim::new(SaConfig::paper(), &program);
        let mut cycles = 0u64;
        while !sim.machine().shared.halted && cycles < 200_000 {
            sim.step().expect("no deadlock");
            cycles += 1;
            if cycles.is_multiple_of(7) {
                let problems = sim.machine().audit_tokens();
                prop_assert!(problems.is_empty(), "cycle {}: {:?}", cycles, problems);
            }
        }
        prop_assert!(sim.machine().shared.halted);
    }

    #[test]
    fn fast_scheduler_is_cycle_exact_on_random_programs(seed in 0u64..10_000, len in 10usize..50) {
        // The sensitivity-driven fast path must be observationally identical
        // to the seed scheduler: same transition trace (digest), same cycle
        // count, same retirement, same restart count — on both case-study
        // machines, on both director instantiations (`tracked` adds stall
        // attribution).
        let w = random_program(seed, len);
        let program = w.program();
        for tracked in [false, true] {
            let sa = |mode: SchedulerMode| {
                let mut sim = SaOsmSim::new(SaConfig::paper(), &program);
                sim.machine_mut().set_scheduler_mode(mode);
                sim.machine_mut().enable_trace();
                if tracked {
                    sim.machine_mut().enable_stall_attribution();
                }
                let r = sim.run_to_halt(50_000_000).expect("no deadlock");
                let stats = sim.machine().stats.clone();
                let digest = sim.machine_mut().take_trace().expect("trace on").digest();
                (digest, r.cycles, r.retired, r.exit_code,
                 stats.transitions, stats.restarts, stats.idle_steps)
            };
            prop_assert_eq!(sa(SchedulerMode::Fast), sa(SchedulerMode::Seed));
            let ppc = |mode: SchedulerMode| {
                let mut sim = PpcOsmSim::new(PpcConfig::paper(), &program);
                sim.machine_mut().set_scheduler_mode(mode);
                sim.machine_mut().enable_trace();
                if tracked {
                    sim.machine_mut().enable_stall_attribution();
                }
                let r = sim.run_to_halt(50_000_000).expect("no deadlock");
                let stats = sim.machine().stats.clone();
                let digest = sim.machine_mut().take_trace().expect("trace on").digest();
                (digest, r.cycles, r.retired, r.exit_code,
                 stats.transitions, stats.restarts, stats.idle_steps)
            };
            prop_assert_eq!(ppc(SchedulerMode::Fast), ppc(SchedulerMode::Seed));
        }
    }

    #[test]
    fn restart_policy_is_neutral_under_age_ranking(seed in 0u64..10_000) {
        // Paper §4: with seniority (age) ranking, a transition can only free
        // resources wanted by *junior* operations that are still ahead in
        // the current scan — so the post-transition rescan never finds new
        // work and Restart ≡ NoRestart, transition for transition. Checked
        // on both director instantiations (`tracked` adds stall attribution).
        let w = random_program(seed, 25);
        let program = w.program();
        for tracked in [false, true] {
            let run = |policy: RestartPolicy, mode: SchedulerMode| {
                let mut sim = SaOsmSim::new(SaConfig::paper(), &program);
                sim.machine_mut().set_restart_policy(policy);
                sim.machine_mut().set_scheduler_mode(mode);
                sim.machine_mut().enable_trace();
                if tracked {
                    sim.machine_mut().enable_stall_attribution();
                }
                sim.run_to_halt(50_000_000).expect("no deadlock");
                let restarts = sim.machine().stats.restarts;
                (sim.machine_mut().take_trace().expect("trace on").digest(), restarts)
            };
            let (d_restart, _) = run(RestartPolicy::Restart, SchedulerMode::Fast);
            let (d_norestart, n0) = run(RestartPolicy::NoRestart, SchedulerMode::Fast);
            prop_assert_eq!(d_restart, d_norestart);
            prop_assert_eq!(n0, 0);
            let (d_seed, _) = run(RestartPolicy::Restart, SchedulerMode::Seed);
            prop_assert_eq!(d_restart, d_seed);
        }
    }

    #[test]
    fn fast_scheduler_is_cycle_exact_on_vliw(iters in 3i32..25, body in 1usize..9) {
        let ir = vliw_ilp_loop(iters, body);
        let program = schedule(&ir, vec![]);
        for tracked in [false, true] {
            let run = |mode: SchedulerMode| {
                let mut sim = VliwSim::new(VliwConfig::default(), &program);
                sim.machine_mut().set_scheduler_mode(mode);
                sim.machine_mut().enable_trace();
                if tracked {
                    sim.machine_mut().enable_stall_attribution();
                }
                let r = sim.run_to_halt(1_000_000).expect("no deadlock");
                let digest = sim.machine_mut().take_trace().expect("trace on").digest();
                (digest, r)
            };
            prop_assert_eq!(run(SchedulerMode::Fast), run(SchedulerMode::Seed));
        }
    }

    #[test]
    fn director_traces_are_deterministic(seed in 0u64..10_000) {
        let w = random_program(seed, 25);
        let program = w.program();
        let digest = |(
        )| {
            let mut sim = SaOsmSim::new(SaConfig::paper(), &program);
            sim.machine_mut().enable_trace();
            sim.run_to_halt(50_000_000).expect("no deadlock");
            sim.machine_mut().take_trace().expect("trace on").digest()
        };
        prop_assert_eq!(digest(()), digest(()));
    }
}

/// Steps `fast` under the fast scheduler and `seed` under the seed one in
/// lockstep until `done(&fast)` or `max_steps`, with no observers or stall
/// tracker attached, so both run the untracked director. The state
/// fingerprints must agree after every step, and so must the mode-invariant
/// counters at the end.
fn untracked_lockstep<S: HardwareLayer + 'static>(
    mut fast: Machine<S>,
    mut seed: Machine<S>,
    max_steps: u64,
    done: impl Fn(&Machine<S>) -> bool,
) -> Result<(), TestCaseError> {
    fast.set_scheduler_mode(SchedulerMode::Fast);
    seed.set_scheduler_mode(SchedulerMode::Seed);
    for _ in 0..max_steps {
        if done(&fast) {
            break;
        }
        let (a, b) = (fast.step(), seed.step());
        prop_assert_eq!(&a, &b, "cycle {}", seed.cycle());
        prop_assert_eq!(
            fast.state_fingerprint(),
            seed.state_fingerprint(),
            "cycle {}",
            seed.cycle()
        );
        if a.is_err() {
            break;
        }
    }
    let counters = |m: &Machine<S>| (m.stats.transitions, m.stats.restarts, m.stats.idle_steps);
    prop_assert_eq!(counters(&fast), counters(&seed));
    Ok(())
}

/// A generated ADL machine (default `Restart` policy) with its fault plan,
/// if any, installed on manager 0.
fn adl_machine(case: &osm_fuzz::FuzzCase) -> Machine<()> {
    let synth = osm_repro::osm_adl::load(&case.source).expect("generated source loads");
    let mut m: Machine<()> = Machine::new(());
    synth.install_managers(&mut m);
    for k in 0..case.osms as usize {
        m.add_osm(&synth.specs[k % synth.specs.len()].1, InertBehavior);
    }
    if let Some(plan) = &case.faults {
        if !m.managers.is_empty() {
            FaultInjector::install(&mut m.managers, ManagerId(0), plan.clone());
        }
    }
    m
}

proptest! {
    // Generated machines are cheap; a wrong resume after a restart shows
    // in a few percent of them, so many cases are drawn.
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn untracked_fast_scheduler_matches_seed_on_generated_machines(
        seed in any::<u64>(),
        crowded in any::<bool>(),
    ) {
        // `crowded` draws more classes and OSMs, so that juniors often
        // free what a blocked senior waits for within one step.
        let config = if crowded {
            GenConfig { classes: (2, 3), osms: (4, 16), ..GenConfig::default() }
        } else {
            GenConfig::default()
        };
        let case = generate(seed, &config);
        untracked_lockstep(adl_machine(&case), adl_machine(&case), case.max_cycles, |_| false)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn untracked_fast_scheduler_matches_seed_on_random_programs(
        seed in 0u64..10_000,
        len in 10usize..40,
    ) {
        let program = random_program(seed, len).program();
        for policy in [RestartPolicy::Restart, RestartPolicy::NoRestart] {
            let sa = || {
                let mut m = SaOsmSim::new(SaConfig::paper(), &program).into_machine();
                m.set_restart_policy(policy);
                m
            };
            untracked_lockstep(sa(), sa(), 5_000_000, |m| m.shared.halted)?;
            let ppc = || {
                let mut m = PpcOsmSim::new(PpcConfig::paper(), &program).into_machine();
                m.set_restart_policy(policy);
                m
            };
            untracked_lockstep(ppc(), ppc(), 5_000_000, |m| m.shared.halted)?;
        }
    }
}
