//! Property-based tests of the resilience layer: arbitrary seeded fault
//! plans never panic the simulator and always terminate inside the closed
//! error taxonomy; fault streams are deterministic per seed; and
//! checkpoint → restore → re-run reproduces the original continuation
//! exactly, faults and all.

use osm_repro::minirisc::Program;
use osm_repro::osm_core::{FaultInjector, FaultKind, FaultPlan, FaultRule, ModelError};
use osm_repro::sa1100::{SaConfig, SaOsmSim};
use osm_repro::workloads::random_program;
use proptest::prelude::*;

/// Cycle cap for every faulty run: a fault that silences fetch forever
/// leaves the machine legitimately idling, so the cap (not the watchdog)
/// bounds those runs.
const CYCLE_CAP: u64 = 50_000;
/// Above the worst-case natural stall (~60 cycles cold miss + TLB walk).
const STALL_LIMIT: u64 = 300;

const ALL_KINDS: [FaultKind; 6] = [
    FaultKind::DenyAllocate,
    FaultKind::DenyInquire,
    FaultKind::DeferRelease,
    FaultKind::DropToken,
    FaultKind::CorruptToken,
    FaultKind::Blackhole,
];

fn fault_rule() -> impl Strategy<Value = FaultRule> {
    (
        prop::sample::select(&ALL_KINDS[..]),
        0.0f64..1.0,
        prop::option::of((0u64..2_000, 1u64..2_000)),
    )
        .prop_map(|(kind, p, window)| {
            let rule = FaultRule::new(kind, p);
            match window {
                Some((start, len)) => rule.between(start, start + len),
                None => rule,
            }
        })
}

fn fault_plan() -> impl Strategy<Value = FaultPlan> {
    (any::<u64>(), prop::collection::vec(fault_rule(), 1..4)).prop_map(|(seed, rules)| {
        rules
            .into_iter()
            .fold(FaultPlan::new(seed), |plan, r| plan.rule(r))
    })
}

/// A simulator of `program` with the stall watchdog armed and `plan`
/// injected in front of manager `which`: any of the five stage pools or the
/// multiplier (index into this order).
fn faulty_sim(program: &Program, plan: FaultPlan, which: usize) -> SaOsmSim {
    let mut sim = SaOsmSim::new(SaConfig::paper(), program);
    let machine = sim.machine_mut();
    machine.set_stall_limit(Some(STALL_LIMIT));
    let ids = machine.shared.ids;
    let target = [ids.mf, ids.md, ids.me, ids.mb, ids.mw, ids.mult][which % 6];
    FaultInjector::install(&mut machine.managers, target, plan);
    sim
}

/// Runs `sim` to halt or the cap and folds the outcome into a comparable,
/// closed-taxonomy summary. Panics (failing the property) on any error
/// outside the taxonomy.
fn run_summary(mut sim: SaOsmSim) -> String {
    match sim.run_to_halt(CYCLE_CAP) {
        Ok(r) => format!(
            "ok cycles={} retired={} exit={} halted={}",
            r.cycles,
            r.retired,
            r.exit_code,
            sim.machine().shared.halted
        ),
        Err(ModelError::Stalled(report)) => format!(
            "stalled kind={} for={} blocked={}",
            report.kind,
            report.stalled_for,
            report.blocked.len()
        ),
        Err(ModelError::Deadlock { cycle, osms }) => {
            format!("deadlock cycle={cycle} osms={}", osms.len())
        }
        Err(ModelError::TokenLeak { cycle, problems }) => {
            format!("leak cycle={cycle} problems={}", problems.len())
        }
        Err(other) => panic!("error outside the fault taxonomy: {other}"),
    }
}

proptest! {
    // Full-simulator cases are expensive; fewer, bigger cases.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Arbitrary fault plans: no panic, bounded termination, closed taxonomy.
    #[test]
    fn arbitrary_fault_plans_never_panic(
        seed in 0u64..10_000,
        plan in fault_plan(),
        which in 0usize..6,
    ) {
        let program = random_program(seed, 25).program();
        // Any summary is acceptable; producing one means we terminated
        // inside the taxonomy without panicking.
        let _ = run_summary(faulty_sim(&program, plan, which));
    }

    /// The same seed and plan produce bit-identical fault streams: two
    /// independent runs end in the same outcome.
    #[test]
    fn same_seed_fault_runs_are_deterministic(
        seed in 0u64..10_000,
        plan in fault_plan(),
        which in 0usize..6,
    ) {
        let program = random_program(seed, 20).program();
        let run = || run_summary(faulty_sim(&program, plan.clone(), which));
        prop_assert_eq!(run(), run());
    }

    /// checkpoint → restore → re-run is exact, including the injector's
    /// RNG stream: the replayed continuation ends exactly like the original.
    #[test]
    fn checkpoint_restore_rerun_is_deterministic(
        seed in 0u64..10_000,
        plan_seed in any::<u64>(),
        deny_p in 0.0f64..0.2,
        ckpt_at in 1u64..400,
        which in 0usize..6,
    ) {
        let program = random_program(seed, 20).program();
        let plan = FaultPlan::new(plan_seed)
            .deny_allocate(deny_p)
            .deny_inquire(deny_p / 2.0);
        let mut sim = faulty_sim(&program, plan.clone(), which);
        for _ in 0..ckpt_at {
            if sim.machine().shared.halted || sim.machine_mut().step().is_err() {
                // Stalled/leaked before the checkpoint point: nothing to
                // compare, the case degenerates (still panic-free).
                return Ok(());
            }
        }
        let ckpt = sim.machine().checkpoint().expect("all managers snapshot");
        let first = run_summary(sim);
        // `run_summary` consumed the simulator; rebuild and fast-forward via
        // a fresh run to the same checkpoint is NOT allowed (the plan's RNG
        // stream position matters) — so restore into a new identical sim.
        let mut replay = faulty_sim(&program, plan, which);
        replay.machine_mut().restore(&ckpt).expect("checkpoint restores");
        prop_assert_eq!(run_summary(replay), first);
    }
}
