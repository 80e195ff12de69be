//! The farm workload: a mixed in-process sweep over all five model kinds.
//!
//! The farm's layers are measured from outside: `run_farm` as a whole, its
//! own `FarmObserver` schedule on the traced pass, and the public journal
//! and report functions re-run over the sweep's own results.

use crate::harness::{secs, timed_passes, Opts, Pass, Recorder, Scratch};
use crate::sim::{add_stats, adl_suite, stats_metrics};
use crate::stats::{tail_percentile, Summary};
use osm_core::Stats;
use osm_fuzz::GenConfig;
use simfarm::{
    read_journal, run_farm, run_serial, FarmObserver, FarmOptions, FarmReport, FarmSchedule,
    JobResult, JournalWriter, ModelKind, SimJob, WorkloadSpec,
};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Farm worker threads (the benchmark host has two cores).
const WORKERS: usize = 2;

/// Cycle budget of the program jobs: far above their length, so every one
/// runs to its halt instruction.
const JOB_MAX_CYCLES: u64 = 2_000_000;

/// Jobs per MiniRISC model in the mixed sweep; the VLIW and ADL models get
/// half as many each.
fn mixed_per_kind(opts: &Opts) -> u64 {
    if opts.quick {
        2
    } else {
        20
    }
}

/// The mixed sweep: `random:400` programs on the PPC-750, SA-1100 and
/// MiniRISC ISS, `ilp:2000:8` VLIW loops and screened ADL machines. Jobs
/// are listed longest kind first (the farm deals them round-robin, so both
/// workers still see every kind): a sweep then ends on short jobs, and
/// which worker finishes last moves its wall time little.
fn mixed_jobs(opts: &Opts, adl: &[crate::sim::AdlMachine], adl_cycles: u64) -> Vec<SimJob> {
    let (block, (iters, body)) = if opts.quick {
        (24, (100, 4))
    } else {
        (400, (2000, 8))
    };
    let per_kind = mixed_per_kind(opts);
    let program = |model: ModelKind, i: u64| {
        let mut job = SimJob::new(
            model,
            WorkloadSpec::Random { block_len: block },
            JOB_MAX_CYCLES,
        );
        job.seed = opts.seed.wrapping_mul(1_000).wrapping_add(i);
        job.name = format!("{}#{}", job.name, job.seed);
        job
    };
    let mut jobs: Vec<SimJob> = (0..per_kind)
        .map(|i| program(ModelKind::Ppc750, i))
        .collect();
    jobs.extend(
        adl.iter()
            .enumerate()
            .map(|(k, m)| SimJob::adl(format!("adl#{k}"), m.source.clone(), m.osms, adl_cycles)),
    );
    jobs.extend((0..per_kind).map(|i| program(ModelKind::Sa1100, i)));
    let ilp = WorkloadSpec::Ilp { iters, body };
    jobs.extend((0..adl.len()).map(|_| SimJob::new(ModelKind::Vliw, ilp.clone(), JOB_MAX_CYCLES)));
    jobs.extend((0..per_kind).map(|i| program(ModelKind::MiniRiscIss, i)));
    jobs
}

/// One sweep's inputs: the jobs and a fresh journal.
struct Sweep {
    jobs: Vec<SimJob>,
    journal: JournalWriter,
    journal_path: PathBuf,
}

impl Sweep {
    /// A sweep of `jobs` journaled at `journal_path`.
    fn new(jobs: Vec<SimJob>, journal_path: PathBuf) -> Sweep {
        let journal = JournalWriter::create(&journal_path, &jobs).expect("journal is creatable");
        Sweep {
            jobs,
            journal,
            journal_path,
        }
    }

    /// Runs every job on [`WORKERS`] workers; returns the results in job
    /// order and, when an observer was given, the farm's schedule.
    fn run(self, observer: Option<FarmObserver>) -> (Vec<JobResult>, Option<FarmSchedule>) {
        let run = run_farm(
            &self.jobs,
            WORKERS,
            FarmOptions {
                journal: Some(self.journal),
                observer,
                ..FarmOptions::default()
            },
        )
        .expect("the farm completes");
        let schedule = run.schedule.clone();
        (run.into_results().expect("every job completes"), schedule)
    }
}

/// In-process farm, 2 workers, journal on.
pub fn mixed(opts: &Opts, rec: &mut Recorder, root: u64) {
    let scratch = Scratch::new("farm_mixed").expect("scratch directory is creatable");
    let adl_cycles = if opts.quick { 300 } else { 5_000 };
    let config = GenConfig {
        osms: if opts.quick { (4, 8) } else { (8, 48) },
        fault_chance: (0, 1),
        ..GenConfig::default()
    };

    let oracle = rec.begin("oracle pass", Some(root));
    let wanted = mixed_per_kind(opts).div_ceil(2) as usize;
    let (adl, tried) = adl_suite(opts.seed, wanted, &config, adl_cycles, adl_cycles / 2);
    rec.check(adl.len() == wanted, || {
        format!(
            "only {} of {wanted} ADL machines survived screening ({tried} tried)",
            adl.len()
        )
    });
    if adl.len() < wanted {
        rec.end(oracle);
        return;
    }
    let serial = run_serial(&mixed_jobs(opts, &adl, adl_cycles));
    for r in &serial {
        rec.check(r.is_ok(), || {
            format!("{}: serial oracle outcome {}", r.name, r.outcome.label())
        });
    }
    rec.end(oracle);

    let sweep = |tag: String| {
        let journal = scratch.path().join(format!("{tag}.journal"));
        Sweep::new(mixed_jobs(opts, &adl, adl_cycles), journal)
    };
    let setup = |pass_no: usize| sweep(format!("pass-{pass_no}"));
    let untraced_s = timed_passes(opts, rec, root, setup, |rec, sweep| {
        let start = Instant::now();
        let (results, _) = sweep.run(None);
        let run_s = secs(start);
        check_against(rec, &serial, &results);
        totals(run_s, &results)
    });
    if opts.trace {
        let results = traced_sweep(rec, root, &scratch, sweep("traced".into()), untraced_s);
        check_against(rec, &serial, &results);
    }
}

/// The traced pass: one more sweep, with the farm's own observer attached.
/// Its schedule yields the queue and supervision metrics and a span per
/// job; the journal and report layers are re-run over what it left behind.
/// Returns its results for the caller's oracle.
fn traced_sweep(
    rec: &mut Recorder,
    root: u64,
    scratch: &Scratch,
    sweep: Sweep,
    untraced_s: f64,
) -> Vec<JobResult> {
    let traced = rec.begin("traced pass", Some(root));
    let jobs = sweep.jobs.clone();
    let journal = sweep.journal_path.clone();
    let observer = FarmObserver::new();
    let offset = rec.now_ns();
    let run = rec.begin("run", Some(traced));
    let start = Instant::now();
    let (results, schedule) = sweep.run(Some(observer));
    rec.sample("trace.overhead_ratio", secs(start) / untraced_s);
    rec.end(run);
    let schedule = schedule.expect("observer attached");
    schedule_metrics(rec, &schedule, run, offset, jobs.len());
    record_layers(rec, traced, scratch.path(), &jobs, &results, &journal);
    rec.end(traced);
    let mut stats = Stats::new();
    for s in results.iter().filter_map(|r| r.stats.as_ref()) {
        add_stats(&mut stats, s);
    }
    stats_metrics(rec, &stats);
    results
}

/// Each result must equal the serial oracle's digest, cycles and outcome.
fn check_against(rec: &mut Recorder, serial: &[JobResult], results: &[JobResult]) {
    rec.check(serial.len() == results.len(), || {
        "result count differs".into()
    });
    for (s, r) in serial.iter().zip(results) {
        rec.check(
            s.digest == r.digest && s.cycles == r.cycles && s.outcome == r.outcome,
            || format!("{}: differs from the serial oracle", r.name),
        );
    }
}

fn totals(run_s: f64, results: &[JobResult]) -> Pass {
    Pass {
        run_s,
        cycles: results.iter().map(|r| r.cycles).sum(),
        retired: results.iter().map(|r| r.retired).sum(),
        jobs: results.iter().filter(|r| r.is_ok()).count() as u64,
    }
}

/// Queue and supervision metrics from the farm's own schedule, plus one
/// span per job (with its setup/simulate/teardown phases laid out from the
/// attempt's start) on its worker's track.
fn schedule_metrics(
    rec: &mut Recorder,
    schedule: &FarmSchedule,
    run: u64,
    offset: u64,
    jobs: usize,
) {
    let job_ms: Vec<f64> = schedule
        .spans
        .iter()
        .map(|s| s.wall_ns() as f64 / 1e6)
        .collect();
    if !job_ms.is_empty() {
        rec.sample("simfarm.job_ms_p50", Summary::of(&job_ms).median);
        let (pct, tail) = tail_percentile(&job_ms);
        rec.sample("simfarm.job_ms_tail", tail);
        rec.sample("simfarm.job_ms_tail_pct", pct);
    }
    let per_job = |f: fn(&simfarm::JobTiming) -> u64| {
        let ns: u64 = schedule
            .spans
            .iter()
            .flat_map(|s| &s.attempts)
            .map(|a| f(&a.timing))
            .sum();
        ns as f64 / 1e6 / jobs.max(1) as f64
    };
    rec.sample("simfarm.setup_ms_per_job", per_job(|t| t.setup_ns));
    rec.sample("simfarm.sim_ms_per_job", per_job(|t| t.sim_ns));
    rec.sample("simfarm.teardown_ms_per_job", per_job(|t| t.teardown_ns));
    let workers = schedule.workers.len().max(1) as f64;
    let utilization: f64 = schedule.workers.iter().map(|w| w.utilization()).sum();
    rec.sample("simfarm.worker_utilization", utilization / workers);
    let steals: u64 = schedule.workers.iter().map(|w| w.steals).sum();
    rec.sample("simfarm.steals", steals as f64);
    let attempts: usize = schedule.spans.iter().map(|s| s.attempts.len().max(1)).sum();
    rec.sample(
        "simfarm.attempts_per_job",
        attempts as f64 / jobs.max(1) as f64,
    );

    for span in &schedule.spans {
        let tid = 1 + span.worker as u64;
        let job = rec.span_at(
            span.name.clone(),
            Some(run),
            tid,
            offset + span.started_ns,
            offset + span.finished_ns,
        );
        for attempt in &span.attempts {
            let mut at = offset + attempt.start_ns;
            let t = attempt.timing;
            for (phase, ns) in [
                ("setup", t.setup_ns),
                ("simulate", t.sim_ns),
                ("teardown", t.teardown_ns),
            ] {
                if ns > 0 {
                    rec.span_at(phase, Some(job), tid, at, at + ns);
                    at += ns;
                }
            }
        }
    }
}

/// Re-runs the journal and report layers over the sweep's own results:
/// `JournalWriter::record` per result into a scratch journal,
/// `read_journal` of the sweep's journal, and
/// `FarmReport::consolidate` + `canonical_json`.
fn record_layers(
    rec: &mut Recorder,
    parent: u64,
    scratch: &Path,
    jobs: &[SimJob],
    results: &[JobResult],
    sweep_journal: &Path,
) {
    let span = rec.begin("journal.record", Some(parent));
    let mut writer =
        JournalWriter::create(scratch.join("rerun.journal"), jobs).expect("journal is creatable");
    let start = Instant::now();
    let recorded = results
        .iter()
        .enumerate()
        .all(|(i, r)| writer.record(i, r).is_ok());
    let record_s = secs(start);
    rec.end(span);
    rec.check(recorded, || "journal re-record failed".into());
    rec.sample(
        "simfarm.journal.record_us",
        record_s * 1e6 / results.len().max(1) as f64,
    );

    let span = rec.begin("journal.read", Some(parent));
    let start = Instant::now();
    let replay = read_journal(sweep_journal, jobs);
    rec.sample("simfarm.journal.read_ms", secs(start) * 1e3);
    rec.end(span);
    rec.check(replay.is_ok_and(|r| r.len() == jobs.len()), || {
        "the sweep journal does not replay every job".into()
    });

    let span = rec.begin("report.consolidate", Some(parent));
    let start = Instant::now();
    let json = FarmReport::consolidate(results.to_vec(), WORKERS, 0.0).canonical_json();
    rec.sample("simfarm.report.consolidate_ms", secs(start) * 1e3);
    rec.end(span);
    rec.check(!json.is_empty(), || "empty canonical report".into());
}
