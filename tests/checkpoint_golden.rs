//! Golden checkpoint test: checkpoint → restore → **continue with
//! observability** must replay the uninterrupted run's tail exactly.
//!
//! The reference run records a full trace from cycle 0. A second identical
//! run is checkpointed mid-flight and discarded; a third simulator restores
//! the checkpoint, only *then* enables tracing (plus the rest of the
//! observability stack), and runs to halt. Its digest must equal the digest
//! of the reference trace's tail — every transition at or after the
//! checkpoint cycle. This pins down two properties at once: restore is
//! exact, and late-attached observers see the identical event stream a
//! from-boot observer would have seen for those cycles.
//!
//! A second check pins the checkpoint encoding itself: the sealed bytes of
//! five checkpoints (SA-1100 with and without faults, PPC-750, VLIW and an
//! ADL machine) must keep the length and FNV-1a-64 recorded in
//! `tests/golden/checkpoint_bytes.txt`, so files written by earlier builds
//! stay readable.

use osm_repro::minirisc::{AluOp, BranchCond, Instr, Program, Reg};
use osm_repro::osm_core::persist::fnv;
use osm_repro::osm_core::{FaultPlan, InertBehavior, Machine, SchedulerMode, Trace, TraceMode};
use osm_repro::ppc750::{PpcConfig, PpcOsmSim};
use osm_repro::sa1100::{SaConfig, SaOsmSim};
use osm_repro::vliw::{schedule, VliwConfig, VliwIr, VliwSim};
use osm_repro::workloads::{mediabench, random_program, specint_mix};

const MAX: u64 = 200_000;

/// Digest of the events at or after `cut` — what a digest-only trace
/// attached at cycle `cut` would have accumulated.
fn tail_digest(full: &Trace, cut: u64) -> u64 {
    let mut tail = Trace::digest_only();
    for ev in full.events().filter(|ev| ev.cycle >= cut) {
        tail.push(*ev);
    }
    tail.digest()
}

fn golden_case(program: &Program, ckpt_at: u64, faults: Option<FaultPlan>, mode: SchedulerMode) {
    // Reference: uninterrupted, full trace from boot.
    let mut reference = SaOsmSim::new(SaConfig::paper(), program);
    reference.machine_mut().set_scheduler_mode(mode);
    reference
        .machine_mut()
        .enable_trace_with(Trace::with_mode(TraceMode::Full));
    let target = reference.ids.mf;
    if let Some(plan) = &faults {
        reference.inject_faults(target, plan.clone());
    }
    let ref_result = reference.run_to_halt(MAX).expect("reference run completes");
    assert!(reference.machine().shared.halted, "reference must halt");
    let ref_trace = reference
        .machine_mut()
        .take_trace()
        .expect("trace was enabled");

    // Interrupted: identical run, checkpointed mid-flight, then dropped.
    let mut interrupted = SaOsmSim::new(SaConfig::paper(), program);
    interrupted.machine_mut().set_scheduler_mode(mode);
    if let Some(plan) = &faults {
        let target = interrupted.ids.mf;
        interrupted.inject_faults(target, plan.clone());
    }
    for _ in 0..ckpt_at {
        assert!(!interrupted.machine().shared.halted, "checkpoint too late");
        interrupted.step().expect("pre-checkpoint step");
    }
    let cut = interrupted.machine().cycle();
    let ckpt = interrupted.checkpoint().expect("checkpoint");
    drop(interrupted);

    // Restored: fresh sim, restore, and only now attach observability.
    let mut restored = SaOsmSim::new(SaConfig::paper(), program);
    restored.machine_mut().set_scheduler_mode(mode);
    if let Some(plan) = &faults {
        let target = restored.ids.mf;
        restored.inject_faults(target, plan.clone());
    }
    restored.restore(&ckpt).expect("restore");
    assert_eq!(restored.machine().cycle(), cut, "restore rewinds the clock");
    restored.machine_mut().enable_trace_with(Trace::digest_only());
    restored.enable_observability();
    let rest_result = restored.run_to_halt(MAX).expect("restored run completes");
    assert!(restored.machine().shared.halted, "restored run must halt");

    // The continuation's digest is the reference tail's digest, bit for bit.
    let rest_trace = restored.machine_mut().take_trace().unwrap();
    assert_eq!(
        rest_trace.digest(),
        tail_digest(&ref_trace, cut),
        "restored-run trace must equal the uninterrupted run's tail (cut at cycle {cut})"
    );
    // And the architectural outcome is unchanged.
    assert_eq!(rest_result.exit_code, ref_result.exit_code);
    assert_eq!(
        reference.machine().cycle(),
        restored.machine().cycle(),
        "both runs halt on the same cycle"
    );
    // The late-attached metrics cover exactly the continuation.
    let metrics = restored.metrics_report().expect("observability enabled");
    assert_eq!(metrics.transitions, rest_trace.total());
}

#[test]
fn restored_specint_run_matches_uninterrupted_tail() {
    golden_case(&specint_mix().program(), 1_000, None, SchedulerMode::Fast);
}

#[test]
fn restored_run_matches_tail_under_fault_injection() {
    golden_case(
        &specint_mix().program(),
        800,
        Some(FaultPlan::new(0xC4E7).deny_allocate(0.02).deny_inquire(0.01)),
        SchedulerMode::Fast,
    );
}

#[test]
fn restored_run_matches_tail_in_seed_mode() {
    golden_case(&specint_mix().program(), 1_000, None, SchedulerMode::Seed);
}

#[test]
fn restored_random_program_runs_match_tails_at_many_cut_points() {
    for (seed, ckpt_at) in [(1u64, 50u64), (2, 500), (3, 1_500), (4, 37)] {
        golden_case(
            &random_program(seed, 120).program(),
            ckpt_at,
            None,
            SchedulerMode::Fast,
        );
    }
}

/// The contended machine of `scheduler_smoke` (122 inert OSMs over two
/// classes and three pools).
const CONTENDED_SOURCE: &str = "machine fuzz_e1e861ebac7dd8c8 {
    manager m0 : counting(2, per_cycle);
    manager m1 : counting(1, per_cycle);
    manager m2 : exclusive(1);
    osm op0 {
        states S0, S1;
        initial S0;
        edge e0 : S0 -> S1 { inquire m2[0]; inquire m0[any]; }
        edge e1 : S1 -> S0 { }
    }
    osm op1 {
        states S0, S1, S2;
        initial S0;
        edge e0 : S0 -> S1 { }
        edge e1 : S1 -> S2 { allocate m1[any]; release m1[held]; }
        edge e2 : S2 -> S0 { }
        edge b2 : S2 -> S0 priority -1 { }
    }
}";

/// A VLIW countdown loop: 40 iterations of six independent adds.
fn vliw_ilp_program() -> osm_repro::vliw::VliwProgram {
    let addi = |rd: u8, rs1: u8, imm: i32| Instr::AluImm {
        op: AluOp::Add,
        rd: Reg(rd),
        rs1: Reg(rs1),
        imm,
    };
    let mut ir = VliwIr::new();
    ir.push(addi(1, 0, 40));
    let top = ir.instrs.len();
    for k in 0..6u8 {
        ir.push(addi(2 + k, 0, i32::from(k)));
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
    schedule(&ir, vec![])
}

/// `case cut_cycle byte_len fnv1a64` for one checkpoint.
fn golden_line(case: &str, cut: u64, bytes: &[u8]) -> String {
    format!("{case} {cut} {} {:016x}", bytes.len(), fnv(bytes))
}

#[test]
fn checkpoint_bytes_match_the_pinned_golden() {
    const CUT: u64 = 3_000;
    let gsm = mediabench()
        .into_iter()
        .find(|w| w.name == "gsm/dec")
        .expect("gsm/dec workload")
        .program();
    let mut got = Vec::new();

    let mut sa = SaOsmSim::new(SaConfig::paper(), &gsm);
    for _ in 0..CUT {
        sa.step().unwrap();
    }
    got.push(golden_line(
        "sa1100/gsm-dec",
        sa.machine().cycle(),
        &sa.checkpoint().unwrap(),
    ));

    let mut sa = SaOsmSim::new(SaConfig::paper(), &gsm);
    let fetch = sa.ids.mf;
    sa.inject_faults(
        fetch,
        FaultPlan::new(0xC4E7)
            .deny_allocate(0.02)
            .deny_inquire(0.01),
    );
    for _ in 0..CUT {
        sa.step().unwrap();
    }
    got.push(golden_line(
        "sa1100/gsm-dec+faults",
        sa.machine().cycle(),
        &sa.checkpoint().unwrap(),
    ));

    let mut ppc = PpcOsmSim::new(PpcConfig::paper(), &gsm);
    for _ in 0..CUT {
        ppc.machine_mut().step().unwrap();
    }
    got.push(golden_line(
        "ppc750/gsm-dec",
        ppc.machine().cycle(),
        &ppc.checkpoint().unwrap(),
    ));

    let mut vliw = VliwSim::new(VliwConfig::default(), &vliw_ilp_program());
    for _ in 0..50 {
        vliw.machine_mut().step().unwrap();
    }
    got.push(golden_line(
        "vliw/ilp-40x6",
        vliw.machine().cycle(),
        &vliw.checkpoint().unwrap(),
    ));

    let synth = osm_repro::osm_adl::load(CONTENDED_SOURCE).expect("contended source loads");
    let mut adl: Machine<()> = Machine::new(());
    synth.install_managers(&mut adl);
    for k in 0..122 {
        adl.add_osm(&synth.specs[k % synth.specs.len()].1, InertBehavior);
    }
    adl.run(500).unwrap();
    got.push(golden_line(
        "adl/contended-122",
        adl.cycle(),
        &adl.checkpoint().unwrap(),
    ));

    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/checkpoint_bytes.txt"
    );
    let golden = std::fs::read_to_string(path).expect("golden file");
    let want: Vec<&str> = golden.lines().filter(|l| !l.starts_with('#')).collect();
    assert_eq!(got, want, "checkpoint encoding changed");
}
