//! The N-way differential oracle.
//!
//! Every generated machine runs across the full equivalence matrix the
//! repository already ships, and the oracle hard-fails on any divergence
//! in digest, cycle count, retirement count, or outcome:
//!
//! 1. **Scheduler modes** — `SchedulerMode::Seed` vs `Fast` (PR 3's
//!    sensitivity fast path must be observationally invisible).
//! 2. **Observability** — event log + metrics + stall attribution on vs
//!    off (observers must not perturb the schedule). Every farm job records
//!    a digest trace, which the machine owns rather than an observer, so
//!    this leg compares the tracked director instantiation against the
//!    untracked one.
//! 3. **Farm parallelism** — `run_serial` vs `run_parallel` at 1, 2 and 8
//!    workers over the whole batch (work stealing must not change any
//!    job's result, only who runs it).
//! 4. **Checkpoint cuts** — checkpoint at a case-chosen cycle (the sealed
//!    byte string, the same codec the farm writes to disk), restore it
//!    into a fresh machine, continue: the continuation must replay the
//!    uninterrupted run's trace tail bit-for-bit, agree on the mid-run
//!    [`osm_core::Machine::state_fingerprint`] at the cut, and end in the
//!    identical final state.
//!
//! Legs 1–3 ride the simulation farm (`ModelKind::Adl` jobs), so the
//! fuzzer exercises the same dispatch path production sweeps use; leg 4
//! drives `osm-core` directly through the public probe points added for
//! mid-run cuts.

use crate::gen::FuzzCase;
use osm_core::{
    FaultInjector, InertBehavior, Machine, ManagerId, SchedulerMode, Trace, TraceMode,
};
use simfarm::{run_parallel, run_serial, JobResult, SimJob};

/// One leg's observable result, in comparison form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LegResult {
    /// Transition-trace digest.
    pub digest: u64,
    /// Final cycle count.
    pub cycles: u64,
    /// Retired transitions.
    pub retired: u64,
    /// Outcome label (`halted`, `budget-exhausted`, `stalled: …`, ...).
    pub outcome: String,
}

impl LegResult {
    fn of(result: &JobResult) -> LegResult {
        LegResult {
            digest: result.digest,
            cycles: result.cycles,
            retired: result.retired,
            outcome: result.outcome.label(),
        }
    }
}

/// A detected divergence between two legs that must agree. Any divergence
/// is a bug in the model stack (or the oracle), never acceptable noise.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// The diverging case.
    pub case: String,
    /// The reference leg.
    pub left: String,
    /// The leg that disagreed.
    pub right: String,
    /// What differed, with both values.
    pub detail: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} vs {}: {}",
            self.case, self.left, self.right, self.detail
        )
    }
}

/// One case's verdict when every leg agreed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaseVerdict {
    /// Case label.
    pub name: String,
    /// The agreed digest (reference leg: Fast scheduler, no observability).
    pub digest: u64,
    /// The agreed cycle count.
    pub cycles: u64,
    /// The agreed outcome label.
    pub outcome: String,
    /// The checkpoint cut the restore leg replayed at, or `None` when the
    /// run was too short to cut (zero executed cycles).
    pub cut: Option<u64>,
}

/// The four farm-leg variants of a case, in fixed comparison order.
const VARIANTS: [(&str, SchedulerMode, bool); 4] = [
    ("fast", SchedulerMode::Fast, false),
    ("seed", SchedulerMode::Seed, false),
    ("fast+obs", SchedulerMode::Fast, true),
    ("seed+obs", SchedulerMode::Seed, true),
];

/// Worker counts for the parallel legs.
const WORKERS: [usize; 3] = [1, 2, 8];

/// Builds the farm jobs for one case: every scheduler × observability
/// variant. Stall budgets are disabled — generated machines have no halt
/// concept and may legitimately wedge; the cycle budget bounds every leg.
pub fn case_jobs(case: &FuzzCase) -> Vec<SimJob> {
    VARIANTS
        .iter()
        .map(|(tag, scheduler, observability)| {
            let mut job = SimJob::adl(
                format!("{}/{tag}", case.name),
                case.source.clone(),
                case.osms,
                case.max_cycles,
            );
            job.scheduler = *scheduler;
            job.observability = *observability;
            job.stall_budget = None;
            job.faults = case.faults.clone();
            job
        })
        .collect()
}

/// Runs the full differential matrix over a batch of cases. Returns the
/// per-case verdicts plus every divergence found (empty = all equivalences
/// held). The batch is deterministic: same cases, same verdict list,
/// bit for bit.
pub fn check_cases(cases: &[FuzzCase]) -> (Vec<CaseVerdict>, Vec<Divergence>) {
    let mut divergences = Vec::new();

    // All farm variants of all cases, as one job list — the exact shape a
    // production sweep would run.
    let jobs: Vec<SimJob> = cases.iter().flat_map(case_jobs).collect();
    let serial = run_serial(&jobs);

    // Leg 3: parallel execution must reproduce the serial results
    // element-wise at every worker count.
    for workers in WORKERS {
        let parallel = match run_parallel(&jobs, workers) {
            Ok(results) => results,
            Err(e) => {
                divergences.push(Divergence {
                    case: "<farm>".into(),
                    left: "serial".into(),
                    right: format!("parallel@{workers}"),
                    detail: format!("farm error: {e}"),
                });
                continue;
            }
        };
        for (job, (s, p)) in jobs.iter().zip(serial.iter().zip(&parallel)) {
            if LegResult::of(s) != LegResult::of(p) {
                divergences.push(Divergence {
                    case: job.name.clone(),
                    left: "serial".into(),
                    right: format!("parallel@{workers}"),
                    detail: format!("{:?} vs {:?}", LegResult::of(s), LegResult::of(p)),
                });
            }
        }
    }

    // Legs 1+2: within each case the four variants must agree.
    let mut verdicts = Vec::with_capacity(cases.len());
    for (i, case) in cases.iter().enumerate() {
        let legs = &serial[i * VARIANTS.len()..(i + 1) * VARIANTS.len()];
        let reference = LegResult::of(&legs[0]);
        for (leg, (tag, _, _)) in legs.iter().zip(&VARIANTS).skip(1) {
            let got = LegResult::of(leg);
            if got != reference {
                divergences.push(Divergence {
                    case: case.name.clone(),
                    left: VARIANTS[0].0.into(),
                    right: (*tag).into(),
                    detail: format!("{reference:?} vs {got:?}"),
                });
            }
        }

        // Leg 4: checkpoint → restore at the case's cut.
        let cut = match checkpoint_leg(case, &reference, &mut divergences) {
            Ok(cut) => cut,
            Err(d) => {
                divergences.push(d);
                None
            }
        };

        verdicts.push(CaseVerdict {
            name: case.name.clone(),
            digest: reference.digest,
            cycles: reference.cycles,
            outcome: reference.outcome,
            cut,
        });
    }

    (verdicts, divergences)
}

/// Builds the direct (non-farm) machine for a case: Fast scheduler, fault
/// plan installed on manager 0, no trace yet.
fn build_machine(case: &FuzzCase) -> Machine<()> {
    let synth = osm_adl::load(&case.source).expect("oracle cases carry verified source");
    let mut machine: Machine<()> = Machine::new(());
    synth.install_managers(&mut machine);
    for k in 0..case.osms {
        let (_, spec) = &synth.specs[(k as usize) % synth.specs.len()];
        machine.add_osm(spec, InertBehavior);
    }
    machine.set_scheduler_mode(SchedulerMode::Fast);
    if let Some(plan) = &case.faults {
        if !machine.managers.is_empty() {
            FaultInjector::install(&mut machine.managers, ManagerId(0), plan.clone());
        }
    }
    machine
}

/// Steps `steps` cycles, returning the first model error's rendering.
fn drive(machine: &mut Machine<()>, steps: u64) -> Option<String> {
    for _ in 0..steps {
        if let Err(e) = machine.step() {
            return Some(e.to_string());
        }
    }
    None
}

/// Digest of the events at or after `cut` — what a digest-only trace
/// attached at cycle `cut` would have accumulated.
fn tail_digest(full: &Trace, cut: u64) -> u64 {
    let mut tail = Trace::digest_only();
    for ev in full.events().filter(|ev| ev.cycle >= cut) {
        tail.push(*ev);
    }
    tail.digest()
}

/// The checkpoint/restore equivalence leg. Returns the cut cycle used
/// (`None` when the run executed zero cycles and there was nothing to
/// cut), pushing any divergence found.
fn checkpoint_leg(
    case: &FuzzCase,
    farm_reference: &LegResult,
    divergences: &mut Vec<Divergence>,
) -> Result<Option<u64>, Divergence> {
    let diverge = |right: &str, detail: String| Divergence {
        case: case.name.clone(),
        left: "uninterrupted".into(),
        right: right.into(),
        detail,
    };

    // Reference: uninterrupted, full trace from cycle 0.
    let mut reference = build_machine(case);
    reference.enable_trace_with(Trace::with_mode(TraceMode::Full));
    let ref_err = drive(&mut reference, case.max_cycles);
    let ref_cycles = reference.cycle();
    let ref_fingerprint = reference.state_fingerprint();
    let ref_trace = reference.take_trace().expect("trace enabled");

    // Cross-family check: the farm's `adl` runner and the direct driver
    // must agree on the full-run digest whenever both complete healthily.
    if ref_err.is_none()
        && farm_reference.outcome == "budget-exhausted"
        && farm_reference.digest != ref_trace.digest()
    {
        return Err(diverge(
            "farm/fast",
            format!(
                "farm digest {:016x} != direct digest {:016x}",
                farm_reference.digest,
                ref_trace.digest()
            ),
        ));
    }

    if ref_cycles == 0 {
        return Ok(None);
    }
    // Clamp the requested cut into the cycles that actually executed.
    let cut = 1 + case.cut % ref_cycles;

    // Interrupted: identical machine, checkpointed at the cut, dropped.
    let mut interrupted = build_machine(case);
    if let Some(e) = drive(&mut interrupted, cut) {
        return Err(diverge(
            "interrupted",
            format!("error `{e}` before cut {cut}, which the reference passed"),
        ));
    }
    let cut_fingerprint = interrupted.state_fingerprint();
    let ckpt = match interrupted.checkpoint() {
        Ok(c) => c,
        Err(e) => return Err(diverge("interrupted", format!("checkpoint failed: {e}"))),
    };
    drop(interrupted);

    // Restored: fresh machine, restore, late-attach a digest trace,
    // continue to the same budget.
    let mut restored = build_machine(case);
    if let Err(e) = restored.restore(&ckpt) {
        return Err(diverge("restored", format!("restore failed: {e}")));
    }
    if restored.cycle() != cut {
        return Err(diverge(
            "restored",
            format!("restore rewound to cycle {}, expected {cut}", restored.cycle()),
        ));
    }
    if restored.state_fingerprint() != cut_fingerprint {
        divergences.push(diverge(
            "restored",
            format!(
                "state fingerprint at cut {cut}: {:016x} != {:016x}",
                restored.state_fingerprint(),
                cut_fingerprint
            ),
        ));
    }
    restored.enable_trace_with(Trace::digest_only());
    let rest_err = drive(&mut restored, case.max_cycles - cut);

    if rest_err != ref_err {
        divergences.push(diverge(
            "restored",
            format!("outcome {ref_err:?} vs {rest_err:?} (cut {cut})"),
        ));
    }
    if restored.cycle() != ref_cycles {
        divergences.push(diverge(
            "restored",
            format!("final cycle {} vs {ref_cycles} (cut {cut})", restored.cycle()),
        ));
    }
    let expected_tail = tail_digest(&ref_trace, cut);
    let got_tail = restored.trace_digest().expect("trace attached");
    if got_tail != expected_tail {
        divergences.push(diverge(
            "restored",
            format!("tail digest {got_tail:016x} != {expected_tail:016x} (cut {cut})"),
        ));
    }
    if restored.state_fingerprint() != ref_fingerprint {
        divergences.push(diverge(
            "restored",
            format!(
                "final state fingerprint {:016x} != {:016x} (cut {cut})",
                restored.state_fingerprint(),
                ref_fingerprint
            ),
        ));
    }
    Ok(Some(cut))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate_batch, GenConfig};

    #[test]
    fn small_batch_has_zero_divergences() {
        let cases = generate_batch(0x05ED, 8, &GenConfig::default());
        let (verdicts, divergences) = check_cases(&cases);
        assert!(divergences.is_empty(), "{divergences:#?}");
        assert_eq!(verdicts.len(), 8);
        for v in &verdicts {
            assert_eq!(v.outcome, "budget-exhausted", "{}: {}", v.name, v.outcome);
        }
    }

    #[test]
    fn verdicts_are_deterministic() {
        let cases = generate_batch(0xBEE, 4, &GenConfig::default());
        let (a, _) = check_cases(&cases);
        let (b, _) = check_cases(&cases);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.digest, y.digest);
            assert_eq!(x.cycles, y.cycles);
            assert_eq!(x.cut, y.cut);
        }
    }
}
