//! Integration tests of the observability layer: golden-file exporter
//! output on a small deterministic pipeline, metrics goldens of the
//! tracked director on the contended ADL machine under both schedulers and
//! on SA-1100 and PPC-750 running `gsm/dec`, a property test that the
//! recorded token-event stream replays to the same `Stats` the director
//! counted live, proof that turning the sinks on never changes which
//! transitions commit, and a check that the transition trace digests
//! exactly the transitions the event log reports.
//!
//! Regenerate the golden files after an intentional exporter change with:
//! `BLESS=1 cargo test --test observability`

use osm_repro::minirisc::{AluOp, BranchCond, Instr, Reg};
use osm_repro::osm_adl::{parse as parse_adl, synthesize};
use osm_repro::osm_core::{
    self, ExclusivePool, IdentExpr, InertBehavior, Machine, SchedulerMode, SpecBuilder,
    TokenOutcome, Trace, TraceEvent,
};
use osm_repro::ppc750::{PpcConfig, PpcOsmSim};
use osm_repro::sa1100::{SaConfig, SaOsmSim};
use osm_repro::simfarm::{AttemptSpan, FarmSchedule, JobSpan, JobTiming, WorkerTelemetry};
use osm_repro::vliw::{schedule, VliwConfig, VliwIr, VliwSim};
use osm_repro::workloads::{mediabench, random_program};
use proptest::prelude::*;

mod common;

/// The quickstart's five-stage pipeline (paper Figs. 5/6): `osms`
/// operations competing for one occupancy token per stage.
fn pipeline_machine(osms: usize) -> Machine<()> {
    let mut machine: Machine<()> = Machine::new(());
    let stages: Vec<_> = ["IF", "ID", "EX", "BF", "WB"]
        .iter()
        .map(|name| machine.add_manager(ExclusivePool::new(*name, 1)))
        .collect();
    let mut b = SpecBuilder::new("op");
    let states: Vec<_> = ["I", "F", "D", "E", "B", "W"]
        .iter()
        .map(|n| b.state(*n))
        .collect();
    b.initial(states[0]);
    b.edge(states[0], states[1])
        .named("e0")
        .allocate(stages[0], IdentExpr::Const(0));
    for k in 1..5 {
        b.edge(states[k], states[k + 1])
            .named(format!("e{k}"))
            .release(stages[k - 1], IdentExpr::AnyHeld)
            .allocate(stages[k], IdentExpr::Const(0));
    }
    b.edge(states[5], states[0])
        .named("e5")
        .release(stages[4], IdentExpr::AnyHeld);
    let spec = b.build().expect("spec is valid");
    for _ in 0..osms {
        machine.add_osm(&spec, InertBehavior);
    }
    machine
}

/// Compares `actual` against the golden file, or rewrites the file when the
/// `BLESS` environment variable is set.
fn assert_golden(actual: &str, name: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {} ({e}); run with BLESS=1", name));
    assert_eq!(actual, golden, "{name} drifted; re-bless if intentional");
}

#[test]
fn chrome_trace_matches_golden_file() {
    let mut machine = pipeline_machine(3);
    machine.enable_event_log();
    machine.enable_stall_attribution();
    machine.run(12).expect("no deadlock");
    let json = osm_core::export::chrome_trace_for(&machine).expect("event log enabled");
    assert_golden(&json, "chrome_trace.json");
}

#[test]
fn pipeline_diagram_matches_golden_file() {
    let mut machine = pipeline_machine(3);
    machine.enable_event_log();
    machine.run(12).expect("no deadlock");
    let diagram =
        osm_core::export::pipeline_diagram_for(&machine, 0, 12).expect("event log enabled");
    assert_golden(&diagram, "pipeline_diagram.txt");
}

/// A window narrower than the log: the legend names only the states drawn
/// in it, not every state the log saw entered.
#[test]
fn pipeline_diagram_legend_names_only_the_window_states() {
    let mut machine = pipeline_machine(3);
    machine.enable_event_log();
    machine.run(12).expect("no deadlock");
    let diagram =
        osm_core::export::pipeline_diagram_for(&machine, 0, 2).expect("event log enabled");
    assert_eq!(
        diagram,
        "pipeline diagram, cycles 0..2:\n  osm0 |FD|\n  osm1 |?F|\n  osm2 |??|\n   D = op.D\n   F = op.F\n"
    );
}

#[test]
fn metrics_json_matches_golden_file() {
    let mut machine = pipeline_machine(3);
    machine.enable_event_log();
    machine.enable_metrics();
    machine.enable_stall_attribution();
    machine.run(12).expect("no deadlock");
    let report = machine.metrics_report().expect("metrics enabled");
    assert_golden(&osm_core::export::metrics_json(&report), "metrics.json");
}

/// The reference scheduler's tracked path, pinned on its own rather than
/// only against `Fast`: the contended machine under `SchedulerMode::Seed`
/// with metrics and stall attribution on.
#[test]
fn contended_seed_metrics_json_matches_golden_file() {
    let mut machine = common::contended_machine(SchedulerMode::Seed);
    machine.enable_metrics();
    machine.enable_stall_attribution();
    machine.run(500).expect("no deadlock");
    let report = machine.metrics_report().expect("metrics enabled");
    assert_golden(
        &osm_core::export::metrics_json(&report),
        "contended_seed_metrics.json",
    );
}

/// The `Fast` counterpart of the Seed golden above, on the same machine.
/// It also pins the stall charges that skipped OSMs take from their
/// sensitivity records.
#[test]
fn contended_fast_metrics_json_matches_golden_file() {
    let mut machine = common::contended_machine(SchedulerMode::Fast);
    machine.enable_metrics();
    machine.enable_stall_attribution();
    machine.run(500).expect("no deadlock");
    let report = machine.metrics_report().expect("metrics enabled");
    assert_golden(
        &osm_core::export::metrics_json(&report),
        "contended_fast_metrics.json",
    );
}

/// The MediaBench `gsm/dec` kernel, the named models' golden workload.
fn gsm_dec() -> osm_repro::minirisc::Program {
    mediabench()
        .into_iter()
        .find(|w| w.name == "gsm/dec")
        .expect("gsm/dec workload")
        .program()
}

/// Cycles the named models run for their metrics goldens.
const NAMED_MODEL_CYCLES: u64 = 3_000;

/// SA-1100's token stream on a real kernel: `gsm/dec` with every sink on.
#[test]
fn sa1100_metrics_json_matches_golden_file() {
    let mut sim = SaOsmSim::new(SaConfig::paper(), &gsm_dec());
    sim.machine_mut().enable_observability();
    sim.machine_mut()
        .run(NAMED_MODEL_CYCLES)
        .expect("no deadlock");
    let report = sim.machine().metrics_report().expect("metrics enabled");
    assert_golden(
        &osm_core::export::metrics_json(&report),
        "sa1100_metrics.json",
    );
}

/// PPC-750's token stream on a real kernel: `gsm/dec` with every sink on.
#[test]
fn ppc750_metrics_json_matches_golden_file() {
    let mut sim = PpcOsmSim::new(PpcConfig::paper(), &gsm_dec());
    sim.machine_mut().enable_observability();
    sim.machine_mut()
        .run(NAMED_MODEL_CYCLES)
        .expect("no deadlock");
    let report = sim.machine().metrics_report().expect("metrics enabled");
    assert_golden(
        &osm_core::export::metrics_json(&report),
        "ppc750_metrics.json",
    );
}

/// A tiny deterministic ILP kernel for the §6 VLIW model: a 4-iteration
/// accumulation loop with three independent ops per body, packed into
/// two-slot bundles. Small enough that the full event log stays a few
/// hundred events.
fn vliw_kernel_sim() -> VliwSim {
    let addi = |rd: u8, rs1: u8, imm: i32| Instr::AluImm {
        op: AluOp::Add,
        rd: Reg(rd),
        rs1: Reg(rs1),
        imm,
    };
    let mut ir = VliwIr::new();
    ir.push(addi(1, 0, 4)); // loop counter
    let top = ir.instrs.len();
    ir.push(addi(2, 0, 3));
    ir.push(addi(3, 0, 5));
    ir.push(Instr::Alu {
        op: AluOp::Add,
        rd: Reg(4),
        rs1: Reg(2),
        rs2: Reg(3),
    });
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
    ir.push(Instr::Syscall);
    VliwSim::new(VliwConfig::default(), &schedule(&ir, vec![]))
}

#[test]
fn vliw_chrome_trace_matches_golden_file() {
    let mut sim = vliw_kernel_sim();
    sim.machine_mut().enable_event_log();
    sim.machine_mut().enable_stall_attribution();
    sim.run_to_halt(10_000).expect("no deadlock");
    let json = osm_core::export::chrome_trace_for(sim.machine()).expect("event log enabled");
    assert_golden(&json, "vliw_chrome_trace.json");
}

#[test]
fn vliw_metrics_json_matches_golden_file() {
    let mut sim = vliw_kernel_sim();
    sim.machine_mut().enable_event_log();
    sim.machine_mut().enable_metrics();
    sim.machine_mut().enable_stall_attribution();
    sim.run_to_halt(10_000).expect("no deadlock");
    let report = sim.machine().metrics_report().expect("metrics enabled");
    assert_golden(&osm_core::export::metrics_json(&report), "vliw_metrics.json");
}

/// The MiniRISC-32 substrate runs as a plain ISS with no OSM layer, so
/// there is nothing for the token-event exporters to observe there.
/// Instead the MiniRISC golden covers the retargetable path (§7): the
/// declarative five-stage pipeline description synthesized by `osm-adl`,
/// instantiated with inert behaviors — pure structure and timing.
const MINIRISC_PIPELINE_ADL: &str = "
    machine minirisc5 {
        manager fetch     : exclusive(1);
        manager decode    : exclusive(1);
        manager execute   : exclusive(1);
        manager buffer    : exclusive(1);
        manager writeback : exclusive(1);

        osm op {
            states I, F, D, E, B, W;
            initial I;
            edge e0 : I -> F { allocate fetch[0]; }
            edge e1 : F -> D { release fetch[held]; allocate decode[0]; }
            edge e2 : D -> E { release decode[held]; allocate execute[0]; }
            edge e3 : E -> B { release execute[held]; allocate buffer[0]; }
            edge e4 : B -> W { release buffer[held]; allocate writeback[0]; }
            edge e5 : W -> I { release writeback[held]; }
        }
    }
";

fn minirisc_adl_machine(osms: usize) -> Machine<()> {
    let decl = parse_adl(MINIRISC_PIPELINE_ADL).expect("ADL parses");
    let synth = synthesize(&decl).expect("ADL synthesizes");
    let mut machine: Machine<()> = Machine::new(());
    synth.install_managers(&mut machine);
    let spec = synth.spec("op").expect("declared");
    for _ in 0..osms {
        machine.add_osm(spec, InertBehavior);
    }
    machine
}

#[test]
fn minirisc_adl_chrome_trace_matches_golden_file() {
    let mut machine = minirisc_adl_machine(3);
    machine.enable_event_log();
    machine.enable_stall_attribution();
    machine.run(14).expect("no deadlock");
    let json = osm_core::export::chrome_trace_for(&machine).expect("event log enabled");
    assert_golden(&json, "minirisc_chrome_trace.json");
}

#[test]
fn minirisc_adl_metrics_json_matches_golden_file() {
    let mut machine = minirisc_adl_machine(3);
    machine.enable_event_log();
    machine.enable_metrics();
    machine.enable_stall_attribution();
    machine.run(14).expect("no deadlock");
    let report = machine.metrics_report().expect("metrics enabled");
    assert_golden(
        &osm_core::export::metrics_json(&report),
        "minirisc_metrics.json",
    );
}

/// A hand-built farm schedule with fixed timestamps: two workers running a
/// serial-equivalent three-job sweep, with one steal and one retried
/// attempt. Exercising `trace_json` on synthetic data keeps the golden
/// deterministic — a live schedule's timestamps are wall-clock.
fn fixed_farm_schedule() -> FarmSchedule {
    let timing = |setup: u64, sim: u64, teardown: u64| JobTiming {
        setup_ns: setup,
        sim_ns: sim,
        teardown_ns: teardown,
    };
    let attempt = |n: u32, start: u64, end: u64, healthy: bool| AttemptSpan {
        attempt: n,
        start_ns: start,
        end_ns: end,
        timing: timing(1_000, end - start - 2_000, 1_000),
        healthy,
    };
    FarmSchedule {
        jobs_total: 3,
        wall_ns: 9_000_000,
        workers: vec![
            WorkerTelemetry {
                worker: 0,
                busy_ns: 7_000_000,
                idle_ns: 1_500_000,
                own_pops: 2,
                steals: 0,
                jobs_completed: 2,
            },
            WorkerTelemetry {
                worker: 1,
                busy_ns: 4_000_000,
                idle_ns: 4_500_000,
                own_pops: 0,
                steals: 1,
                jobs_completed: 1,
            },
        ],
        spans: vec![
            JobSpan {
                index: 0,
                name: "golden/job#0".to_owned(),
                worker: 0,
                stolen: false,
                started_ns: 100_000,
                finished_ns: 3_100_000,
                attempts: vec![attempt(1, 100_000, 3_100_000, true)],
                outcome: "halted".to_owned(),
                cycles: 4_096,
            },
            JobSpan {
                index: 1,
                name: "golden/job#1".to_owned(),
                worker: 0,
                stolen: false,
                started_ns: 3_200_000,
                finished_ns: 7_200_000,
                attempts: vec![
                    attempt(1, 3_200_000, 5_200_000, false),
                    attempt(2, 5_200_000, 7_200_000, true),
                ],
                outcome: "halted".to_owned(),
                cycles: 2_048,
            },
            JobSpan {
                index: 2,
                name: "golden/job#2".to_owned(),
                worker: 1,
                stolen: true,
                started_ns: 200_000,
                finished_ns: 4_200_000,
                attempts: vec![attempt(1, 200_000, 4_200_000, true)],
                outcome: "budget".to_owned(),
                cycles: 8_192,
            },
        ],
    }
}

#[test]
fn farm_schedule_trace_matches_golden_file() {
    assert_golden(&fixed_farm_schedule().trace_json(), "farm_schedule_trace.json");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The recorded token-event stream replays to the very numbers the
    /// director counted live: one Denied event per condition failure, one
    /// TransitionEvent per committed transition, one completion flag per
    /// operation retirement, and the stall tracker's global counter equals
    /// `Stats::idle_steps`.
    #[test]
    fn token_event_log_replays_to_stats(osms in 1usize..8, cycles in 1u64..48) {
        let mut machine = pipeline_machine(osms);
        machine.enable_event_log();
        machine.enable_stall_attribution();
        machine.run(cycles).expect("no deadlock");

        let stats = &machine.stats;
        let log = machine.event_log().expect("event log enabled");
        let denied = log
            .token_events()
            .filter(|e| e.outcome == TokenOutcome::Denied)
            .count() as u64;
        prop_assert_eq!(denied, stats.condition_failures);

        let transitions = log.transitions().count() as u64;
        prop_assert_eq!(transitions, stats.transitions);

        let completions = log.transitions().filter(|t| t.completed).count() as u64;
        let idle: u64 = machine.osms().filter(|o| o.is_idle()).count() as u64;
        // Every OSM idle at the end has completed exactly once more than it
        // is mid-flight; completions counted from the log must agree with
        // starts minus in-flight operations.
        let starts = log.transitions().filter(|t| t.started).count() as u64;
        prop_assert_eq!(starts - completions, osms as u64 - idle);

        let tracker = machine.stall_attribution().expect("attribution enabled");
        prop_assert_eq!(tracker.global_stall_cycles, stats.idle_steps);
    }

    /// Attaching the full observability stack must not change a single
    /// committed transition: cycle counts, statistics, architectural result,
    /// and the transition trace digest all match an unobserved run.
    #[test]
    fn observers_do_not_change_committed_transitions(seed in 0u64..200) {
        let program = random_program(seed, 160).program();
        let cfg = SaConfig::paper();

        let mut plain = SaOsmSim::new(cfg, &program);
        plain.machine_mut().enable_trace();
        let plain_result = plain.run_to_halt(30_000).expect("no deadlock");

        let mut observed = SaOsmSim::new(cfg, &program);
        observed.machine_mut().enable_trace();
        observed.machine_mut().enable_observability();
        let observed_result = observed.run_to_halt(30_000).expect("no deadlock");

        prop_assert_eq!(plain_result.cycles, observed_result.cycles);
        prop_assert_eq!(plain_result.exit_code, observed_result.exit_code);
        prop_assert_eq!(plain_result.squashed, observed_result.squashed);
        prop_assert_eq!(
            plain.machine().stats.transitions,
            observed.machine().stats.transitions
        );
        prop_assert_eq!(
            plain.machine().stats.condition_failures,
            observed.machine().stats.condition_failures
        );
        let plain_trace = plain.machine_mut().take_trace().expect("trace enabled");
        let observed_trace = observed.machine_mut().take_trace().expect("trace enabled");
        prop_assert_eq!(plain_trace.digest(), observed_trace.digest());
    }
}

/// The event log is the one record of transitions, and the trace is their
/// digest: the director folds each commit into the trace where it records
/// the `TransitionEvent`. On one model under both scheduler modes this
/// checks that the log's transitions, folded into a fresh trace, give the
/// digest and count of a trace kept on the same run; that a traced run
/// ends exactly like an untraced one (statistics, cycle count, `result`);
/// and that a trace turns on no event sink (`has_observers` stays false),
/// so the run stays on the uninstrumented director.
fn check_recording_paths<T, S: 'static, R: std::fmt::Debug + PartialEq>(
    model: &str,
    build: impl Fn() -> T,
    machine: impl Fn(&mut T) -> &mut Machine<S>,
    run: impl Fn(&mut T) -> R,
) {
    for mode in [SchedulerMode::Seed, SchedulerMode::Fast] {
        let prepared = |setup: &dyn Fn(&mut Machine<S>)| {
            let mut sim = build();
            machine(&mut sim).set_scheduler_mode(mode);
            setup(machine(&mut sim));
            sim
        };

        let mut plain = prepared(&|_| {});
        let plain_result = run(&mut plain);
        let mut digest = prepared(&|m| m.enable_trace());
        assert!(
            !machine(&mut digest).has_observers(),
            "{model} {mode:?}: a trace installed an observer"
        );
        let digest_result = run(&mut digest);
        assert_eq!(digest_result, plain_result, "{model} {mode:?}: result");
        let (plain, digest) = (machine(&mut plain), machine(&mut digest));
        assert_eq!(digest.cycle(), plain.cycle(), "{model} {mode:?}: cycles");
        assert_eq!(
            format!("{:?}", digest.stats),
            format!("{:?}", plain.stats),
            "{model} {mode:?}: stats"
        );

        let mut logged = prepared(&|m| {
            m.enable_trace();
            m.enable_event_log();
        });
        assert_eq!(run(&mut logged), plain_result, "{model} {mode:?}: result");
        let logged = machine(&mut logged);
        let trace = logged.take_trace().expect("trace enabled");
        let log = logged.take_event_log().expect("event log enabled");
        let mut from_log = Trace::digest_only();
        for t in log.transitions() {
            from_log.push(TraceEvent {
                cycle: t.cycle,
                osm: t.osm,
                edge: t.edge,
                from: t.from,
                to: t.to,
            });
        }
        assert!(from_log.total() > 0, "{model} {mode:?}: nothing committed");
        assert_eq!(from_log, trace, "{model} {mode:?}: trace vs event log");
        assert_eq!(
            digest.take_trace(),
            Some(trace),
            "{model} {mode:?}: trace with vs without the event log"
        );
    }
}

#[test]
fn trace_matches_event_log_and_leaves_runs_unchanged() {
    let program = random_program(5, 160).program();
    check_recording_paths(
        "SA-1100",
        || SaOsmSim::new(SaConfig::paper(), &program),
        SaOsmSim::machine_mut,
        |sim| sim.run_to_halt(30_000).expect("halts"),
    );
    check_recording_paths(
        "PPC-750",
        || PpcOsmSim::new(PpcConfig::paper(), &program),
        PpcOsmSim::machine_mut,
        |sim| sim.run_to_halt(30_000).expect("halts"),
    );
    check_recording_paths("VLIW", vliw_kernel_sim, VliwSim::machine_mut, |sim| {
        sim.run_to_halt(10_000).expect("halts")
    });
    check_recording_paths(
        "ADL",
        || {
            let synth = osm_repro::osm_adl::load(MINIRISC_PIPELINE_ADL).expect("ADL loads");
            let mut machine: Machine<()> = Machine::new(());
            synth.install_managers(&mut machine);
            let spec = synth.spec("op").expect("declared");
            for _ in 0..6 {
                machine.add_osm(spec, InertBehavior);
            }
            machine
        },
        |m| m,
        |m| {
            m.run(60).expect("no deadlock");
            m.state_fingerprint()
        },
    );
}
