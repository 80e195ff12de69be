//! Golden checkpoint test: checkpoint → restore → **continue with
//! observability** must replay the uninterrupted run's tail exactly.
//!
//! A run is checkpointed mid-flight and then runs on to halt with a digest
//! trace attached right after the checkpoint: that digest covers exactly
//! the transitions at or after the cut, the expected tail. A second
//! simulator restores the checkpoint, only *then* enables tracing (plus the
//! rest of the observability stack), and runs to halt. Its digest must
//! equal the expected tail. This pins down two properties at once: restore
//! is exact, and late-attached observers see the identical event stream a
//! from-boot observer would have seen for those cycles.
//!
//! A second check pins the checkpoint encoding itself: the sealed bytes of
//! eight checkpoints (SA-1100 with and without faults, PPC-750, VLIW and an
//! ADL machine, then SA-1100, PPC-750 and the ADL machine again under the
//! reference scheduler) must keep the length and FNV-1a-64 recorded in
//! `tests/golden/checkpoint_bytes.txt`, so files written by earlier builds
//! stay readable.

use osm_repro::minirisc::Program;
use osm_repro::osm_core::persist::fnv;
use osm_repro::osm_core::{FaultInjector, FaultPlan, SchedulerMode};
use osm_repro::ppc750::{PpcConfig, PpcOsmSim};
use osm_repro::sa1100::{SaConfig, SaOsmSim};
use osm_repro::vliw::{ilp_loop, schedule, VliwConfig, VliwSim};
use osm_repro::workloads::{mediabench, random_program, specint_mix};

mod common;

const MAX: u64 = 200_000;

fn golden_case(program: &Program, ckpt_at: u64, faults: Option<FaultPlan>, mode: SchedulerMode) {
    let build = || {
        let mut sim = SaOsmSim::new(SaConfig::paper(), program);
        sim.machine_mut().set_scheduler_mode(mode);
        if let Some(plan) = &faults {
            let machine = sim.machine_mut();
            let target = machine.shared.ids.mf;
            FaultInjector::install(&mut machine.managers, target, plan.clone());
        }
        sim
    };

    // Uninterrupted: checkpointed mid-flight (which leaves the run as it
    // is), then traced from the cut to halt.
    let mut uninterrupted = build();
    for _ in 0..ckpt_at {
        assert!(
            !uninterrupted.machine().shared.halted,
            "checkpoint too late"
        );
        uninterrupted
            .machine_mut()
            .step()
            .expect("pre-checkpoint step");
    }
    let cut = uninterrupted.machine().cycle();
    let ckpt = uninterrupted.machine().checkpoint().expect("checkpoint");
    uninterrupted.machine_mut().enable_trace();
    let ref_result = uninterrupted
        .run_to_halt(MAX)
        .expect("uninterrupted run completes");
    assert!(
        uninterrupted.machine().shared.halted,
        "uninterrupted run must halt"
    );
    let tail = uninterrupted
        .machine_mut()
        .take_trace()
        .expect("trace attached");

    // Restored: fresh sim, restore, and only now attach observability.
    let mut restored = build();
    restored.machine_mut().restore(&ckpt).expect("restore");
    assert_eq!(restored.machine().cycle(), cut, "restore rewinds the clock");
    restored.machine_mut().enable_trace();
    restored.machine_mut().enable_observability();
    let rest_result = restored.run_to_halt(MAX).expect("restored run completes");
    assert!(restored.machine().shared.halted, "restored run must halt");

    // The continuation's digest is the uninterrupted tail's, bit for bit.
    let rest_trace = restored.machine_mut().take_trace().unwrap();
    assert_eq!(
        rest_trace, tail,
        "restored-run trace must equal the uninterrupted run's tail (cut at cycle {cut})"
    );
    // And the architectural outcome is unchanged.
    assert_eq!(rest_result.exit_code, ref_result.exit_code);
    assert_eq!(
        uninterrupted.machine().cycle(),
        restored.machine().cycle(),
        "both runs halt on the same cycle"
    );
    // The late-attached metrics cover exactly the continuation.
    let metrics = restored
        .machine()
        .metrics_report()
        .expect("observability enabled");
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

/// `case cut_cycle byte_len fnv1a64` for one checkpoint.
fn golden_line(case: &str, cut: u64, bytes: &[u8]) -> String {
    format!("{case} {cut} {} {:016x}", bytes.len(), fnv(bytes))
}

/// Where the SA-1100 and PPC-750 golden checkpoints are cut.
const CUT: u64 = 3_000;

/// SA-1100 on `program` under `mode`, optionally with fetch-side faults,
/// checkpointed after [`CUT`] cycles.
fn sa_line(case: &str, program: &Program, mode: SchedulerMode, faults: bool) -> String {
    let mut sa = SaOsmSim::new(SaConfig::paper(), program);
    sa.machine_mut().set_scheduler_mode(mode);
    let machine = sa.machine_mut();
    if faults {
        let fetch = machine.shared.ids.mf;
        let plan = FaultPlan::new(0xC4E7)
            .deny_allocate(0.02)
            .deny_inquire(0.01);
        FaultInjector::install(&mut machine.managers, fetch, plan);
    }
    for _ in 0..CUT {
        machine.step().unwrap();
    }
    golden_line(case, machine.cycle(), &machine.checkpoint().unwrap())
}

/// PPC-750 on `program` under `mode`, checkpointed after [`CUT`] cycles.
fn ppc_line(case: &str, program: &Program, mode: SchedulerMode) -> String {
    let mut ppc = PpcOsmSim::new(PpcConfig::paper(), program);
    ppc.machine_mut().set_scheduler_mode(mode);
    for _ in 0..CUT {
        ppc.machine_mut().step().unwrap();
    }
    golden_line(
        case,
        ppc.machine().cycle(),
        &ppc.machine().checkpoint().unwrap(),
    )
}

/// The contended ADL machine under `mode`, checkpointed after 500 cycles.
fn adl_line(case: &str, mode: SchedulerMode) -> String {
    let mut adl = common::contended_machine(mode);
    adl.run(500).unwrap();
    golden_line(case, adl.cycle(), &adl.checkpoint().unwrap())
}

/// The `SchedulerMode::Seed` lines pin the reference scheduler on its own,
/// not only against `Fast`: a checkpoint carries every `Stats` counter, so
/// they also pin its effort counters, idle steps and restarts.
#[test]
fn checkpoint_bytes_match_the_pinned_golden() {
    let gsm = mediabench()
        .into_iter()
        .find(|w| w.name == "gsm/dec")
        .expect("gsm/dec workload")
        .program();
    let (fast, seed) = (SchedulerMode::Fast, SchedulerMode::Seed);
    let mut vliw = VliwSim::new(VliwConfig::default(), &schedule(&ilp_loop(40, 6), vec![]));
    for _ in 0..50 {
        vliw.machine_mut().step().unwrap();
    }
    let got = vec![
        sa_line("sa1100/gsm-dec", &gsm, fast, false),
        sa_line("sa1100/gsm-dec+faults", &gsm, fast, true),
        ppc_line("ppc750/gsm-dec", &gsm, fast),
        golden_line(
            "vliw/ilp-40x6",
            vliw.machine().cycle(),
            &vliw.machine().checkpoint().unwrap(),
        ),
        adl_line("adl/contended-122", fast),
        sa_line("sa1100/gsm-dec+seed", &gsm, seed, false),
        ppc_line("ppc750/gsm-dec+seed", &gsm, seed),
        adl_line("adl/contended-122+seed", seed),
    ];

    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/checkpoint_bytes.txt"
    );
    let golden = std::fs::read_to_string(path).expect("golden file");
    let want: Vec<&str> = golden.lines().filter(|l| !l.starts_with('#')).collect();
    assert_eq!(got, want, "checkpoint encoding changed");
}
