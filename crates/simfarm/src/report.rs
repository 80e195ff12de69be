//! Deterministic result aggregation: the consolidated farm report.
//!
//! Results arrive from the farm already re-assembled in job-index order
//! ([`crate::run_parallel`]'s contract), and every merge below folds them in
//! that order, so the rendered report — text or JSON — is byte-identical
//! across runs and worker counts. 64-bit digests travel as hex strings in
//! the JSON form because JSON numbers are doubles.
//!
//! Two renderings exist: the operator one ([`fmt::Display`] / `to_json`),
//! which includes the worker count and wall time, and the **canonical** one
//! ([`FarmReport::canonical_text`] / [`FarmReport::canonical_json`]), which
//! scrubs those two environment-dependent fields. The canonical renderings
//! are the byte-identity contract: equal for the same job list whether the
//! sweep ran on 1 worker or 8, uninterrupted or killed-and-resumed. (Jobs
//! with wall-clock deadlines are the documented exception — see
//! [`crate::SimJob::deadline_ms`].)

use crate::job::{JobOutcome, JobResult};
use crate::observe::FarmSchedule;
use crate::queue::SweepRun;
use bench::json::Json;
use osm_core::Stats;
use std::collections::BTreeMap;
use std::fmt;

/// Stall cycles charged to a `(manager, primitive)` pair: one job's in
/// [`crate::JobMetrics::stalls`], and in [`FarmReport::stall_causes`] the
/// sum across every job that ran with observability. The sum is a pure fold
/// of per-job results in job-index order, so it is deterministic and
/// **canonical-safe** (unlike the wall-clock material in
/// [`FarmReport::timing_json`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetStallCause {
    /// Manager name as the model registered it.
    pub manager: String,
    /// The denied Λ-primitive (`alloc`/`inq`/`rel`/`disc`).
    pub op: String,
    /// Stall cycles charged across the whole sweep.
    pub cycles: u64,
}

/// The consolidated product of one sweep.
#[derive(Debug, Clone)]
pub struct FarmReport {
    /// Per-job results, in job-index order.
    pub jobs: Vec<JobResult>,
    /// Scheduler statistics summed over the OSM jobs, in job-index order.
    pub total_stats: Stats,
    /// Simulated cycles summed over every job.
    pub total_cycles: u64,
    /// Retired instructions/operations summed over every job.
    pub total_retired: u64,
    /// Jobs whose outcome is unhealthy (failed, panicked, stalled,
    /// deadline-exceeded or quarantined).
    pub failures: usize,
    /// Jobs the supervisor quarantined (a subset of `failures`).
    pub quarantined: usize,
    /// Jobs whose final outcome was a hard kill under process isolation
    /// ([`JobOutcome::Killed`], directly or as the last quarantined
    /// attempt). A subset of `failures`; a pure fold of outcomes, so
    /// canonical like the other counts.
    pub killed: usize,
    /// Jobs that restored from a durable mid-job checkpoint
    /// ([`JobResult::restored_from`]). Operational provenance — how the
    /// sweep got here, not what it computed — so the canonical renderings
    /// scrub it, exactly like `restored`.
    pub checkpoint_restores: usize,
    /// Jobs restored from a sweep journal instead of run in this process
    /// (0 for a fresh sweep).
    pub restored: usize,
    /// Jobs that never completed because the sweep was cancelled.
    pub pending: usize,
    /// Worker threads the sweep ran on (1 = serial).
    pub workers: usize,
    /// Wall-clock seconds for the whole sweep (0.0 when not measured).
    pub wall_seconds: f64,
    /// Fleet stall-cause roll-up: stall cycles by `(manager, primitive)`,
    /// folded from per-job metrics in job-index order, sorted by name.
    /// Empty when no job ran with observability. Deterministic.
    pub stall_causes: Vec<FleetStallCause>,
    /// The farm observer's schedule, when the sweep ran with one attached.
    /// Wall-clock derived and nondeterministic: rendered only by the
    /// operator [`fmt::Display`] and [`FarmReport::timing_json`], never by
    /// the canonical renderings.
    pub schedule: Option<FarmSchedule>,
}

impl FarmReport {
    /// Folds per-job results (already in job-index order) into the
    /// consolidated report.
    pub fn consolidate(jobs: Vec<JobResult>, workers: usize, wall_seconds: f64) -> FarmReport {
        let mut total_stats = Stats::new();
        let mut total_cycles = 0u64;
        let mut total_retired = 0u64;
        let mut failures = 0usize;
        let mut quarantined = 0usize;
        let mut killed = 0usize;
        let mut checkpoint_restores = 0usize;
        let mut causes: BTreeMap<(String, String), u64> = BTreeMap::new();
        for job in &jobs {
            total_cycles += job.cycles;
            total_retired += job.retired;
            if !job.is_ok() {
                failures += 1;
            }
            if matches!(job.outcome, JobOutcome::Quarantined { .. }) {
                quarantined += 1;
            }
            let was_killed = match &job.outcome {
                JobOutcome::Killed { .. } => true,
                JobOutcome::Quarantined { last, .. } => {
                    matches!(last.as_ref(), JobOutcome::Killed { .. })
                }
                _ => false,
            };
            if was_killed {
                killed += 1;
            }
            if job.restored_from.is_some() {
                checkpoint_restores += 1;
            }
            if let Some(stats) = &job.stats {
                total_stats.cycles += stats.cycles;
                total_stats.transitions += stats.transitions;
                total_stats.condition_failures += stats.condition_failures;
                total_stats.vetoed_edges += stats.vetoed_edges;
                total_stats.idle_steps += stats.idle_steps;
                total_stats.restarts += stats.restarts;
            }
            for cause in job.metrics.iter().flat_map(|m| &m.stalls) {
                *causes
                    .entry((cause.manager.clone(), cause.op.clone()))
                    .or_insert(0) += cause.cycles;
            }
        }
        let stall_causes = causes
            .into_iter()
            .map(|((manager, op), cycles)| FleetStallCause { manager, op, cycles })
            .collect();
        FarmReport {
            jobs,
            total_stats,
            total_cycles,
            total_retired,
            failures,
            quarantined,
            killed,
            checkpoint_restores,
            restored: 0,
            pending: 0,
            workers,
            wall_seconds,
            stall_causes,
            schedule: None,
        }
    }

    /// Folds a (possibly partial) supervised sweep: completed results in
    /// job-index order, with the restored and pending counts carried over.
    /// Deterministic for the same set of completed jobs regardless of how
    /// the sweep was interrupted.
    pub fn consolidate_sweep(run: &SweepRun, workers: usize, wall_seconds: f64) -> FarmReport {
        let restored = run.restored;
        let pending = run.pending().len();
        let jobs: Vec<JobResult> = run.completed.values().cloned().collect();
        let mut report = FarmReport::consolidate(jobs, workers, wall_seconds);
        report.restored = restored;
        report.pending = pending;
        report.schedule = run.schedule.clone();
        report
    }

    /// Simulated cycles per wall-clock second (the farm's headline
    /// throughput number); 0 when wall time was not measured.
    pub fn cycles_per_second(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            0.0
        } else {
            self.total_cycles as f64 / self.wall_seconds
        }
    }

    /// A copy with the environment-dependent fields (worker count, wall
    /// time, restored-from-journal count, observer schedule) scrubbed; the
    /// basis of the byte-identity gates. The deterministic roll-ups
    /// (`stall_causes`) survive — they are pure folds of job results.
    ///
    /// Also scrubbed: per-job attempt counts and checkpoint-restore
    /// provenance. A job killed mid-run (worker crash, `kill -9`) and then
    /// retried or resumed reaches the *same* final result as an
    /// uninterrupted run, but via more attempts and a mid-job restore —
    /// operational history, not computation, so it must not move a
    /// canonical byte.
    fn canonical(&self) -> FarmReport {
        let mut c = self.clone();
        c.workers = 0;
        c.wall_seconds = 0.0;
        c.restored = 0;
        c.checkpoint_restores = 0;
        c.schedule = None;
        for job in &mut c.jobs {
            job.attempts = 0;
            job.restored_from = None;
        }
        c
    }

    /// The canonical text rendering: byte-identical across worker counts
    /// and across interrupted-then-resumed vs uninterrupted sweeps of the
    /// same job list.
    pub fn canonical_text(&self) -> String {
        self.canonical().to_string()
    }

    /// The canonical JSON rendering (same contract as
    /// [`FarmReport::canonical_text`]).
    pub fn canonical_json(&self) -> String {
        self.canonical().to_json().to_string()
    }

    /// The report as a JSON document (digests as 16-digit hex strings).
    pub fn to_json(&self) -> Json {
        let jobs = self
            .jobs
            .iter()
            .map(|job| {
                let mut obj = BTreeMap::new();
                obj.insert("name".into(), Json::Str(job.name.clone()));
                obj.insert("model".into(), Json::Str(job.model.name().into()));
                obj.insert("workload".into(), Json::Str(job.workload.clone()));
                obj.insert("outcome".into(), Json::Str(job.outcome.label()));
                obj.insert("attempts".into(), Json::Num(f64::from(job.attempts)));
                obj.insert("cycles".into(), Json::lossless_u64(job.cycles));
                obj.insert("retired".into(), Json::lossless_u64(job.retired));
                obj.insert("exit_code".into(), Json::Num(f64::from(job.exit_code)));
                obj.insert("digest".into(), Json::Str(format!("{:016x}", job.digest)));
                if let Some(cycle) = job.restored_from {
                    obj.insert("restored_from".into(), Json::lossless_u64(cycle));
                }
                if let Some(stats) = &job.stats {
                    obj.insert("transitions".into(), Json::lossless_u64(stats.transitions));
                    obj.insert("idle_steps".into(), Json::lossless_u64(stats.idle_steps));
                }
                if let Some(metrics) = &job.metrics {
                    let mut m = BTreeMap::new();
                    m.insert("completions".into(), Json::lossless_u64(metrics.completions));
                    m.insert("token_grants".into(), Json::lossless_u64(metrics.token_grants));
                    m.insert(
                        "token_denials".into(),
                        Json::lossless_u64(metrics.token_denials),
                    );
                    obj.insert("metrics".into(), Json::Obj(m));
                }
                if let Some(faults) = &job.fault_stats {
                    obj.insert("faults_injected".into(), Json::lossless_u64(faults.total()));
                }
                Json::Obj(obj)
            })
            .collect();
        let mut totals = BTreeMap::new();
        totals.insert("cycles".into(), Json::lossless_u64(self.total_cycles));
        totals.insert("retired".into(), Json::lossless_u64(self.total_retired));
        totals.insert(
            "transitions".into(),
            Json::lossless_u64(self.total_stats.transitions),
        );
        totals.insert("failures".into(), Json::Num(self.failures as f64));
        totals.insert("quarantined".into(), Json::Num(self.quarantined as f64));
        totals.insert("killed".into(), Json::Num(self.killed as f64));
        totals.insert("pending".into(), Json::Num(self.pending as f64));
        let mut root = BTreeMap::new();
        root.insert("jobs".into(), Json::Arr(jobs));
        root.insert("totals".into(), Json::Obj(totals));
        root.insert("workers".into(), Json::Num(self.workers as f64));
        root.insert("restored".into(), Json::Num(self.restored as f64));
        root.insert(
            "checkpoint_restores".into(),
            Json::Num(self.checkpoint_restores as f64),
        );
        root.insert("wall_seconds".into(), Json::Num(self.wall_seconds));
        // Omitted (not 0) when wall time was never measured: a sweep
        // consolidated with `wall_seconds: 0.0` has no throughput to claim.
        if self.wall_seconds > 0.0 {
            root.insert(
                "cycles_per_second".into(),
                Json::Num(self.cycles_per_second()),
            );
        }
        if !self.stall_causes.is_empty() {
            root.insert("stall_causes".into(), self.stall_causes_json());
        }
        Json::Obj(root)
    }

    fn stall_causes_json(&self) -> Json {
        Json::Arr(
            self.stall_causes
                .iter()
                .map(|c| {
                    let mut obj = BTreeMap::new();
                    obj.insert("manager".into(), Json::Str(c.manager.clone()));
                    obj.insert("op".into(), Json::Str(c.op.clone()));
                    obj.insert("cycles".into(), Json::lossless_u64(c.cycles));
                    Json::Obj(obj)
                })
                .collect(),
        )
    }

    /// The fleet timing rendering: per-worker utilization, per-job wall
    /// time with setup/sim/teardown breakdown, and wall-time / cycles-per-
    /// second histograms across jobs. **Explicitly non-canonical** — every
    /// number here is wall-clock derived and varies run to run; the
    /// rendering exists for operators and dashboards, never for the
    /// byte-identity gates. `None` when the sweep ran without a
    /// [`crate::FarmObserver`]. Validated against
    /// `schemas/farm_metrics.schema.json` in CI.
    pub fn timing_json(&self) -> Option<Json> {
        let schedule = self.schedule.as_ref()?;
        let workers = schedule
            .workers
            .iter()
            .map(|w| {
                let mut obj = BTreeMap::new();
                obj.insert("worker".into(), Json::Num(w.worker as f64));
                obj.insert("busy_ms".into(), Json::Num(w.busy_ns as f64 / 1e6));
                obj.insert("idle_ms".into(), Json::Num(w.idle_ns as f64 / 1e6));
                obj.insert("own_pops".into(), Json::Num(w.own_pops as f64));
                obj.insert("steals".into(), Json::Num(w.steals as f64));
                obj.insert(
                    "jobs_completed".into(),
                    Json::Num(w.jobs_completed as f64),
                );
                obj.insert("utilization".into(), Json::Num(w.utilization()));
                Json::Obj(obj)
            })
            .collect();
        let mut wall_ms = Vec::new();
        let mut rates = Vec::new();
        let jobs = schedule
            .spans
            .iter()
            .map(|span| {
                let ms = span.wall_ns() as f64 / 1e6;
                wall_ms.push(ms);
                let mut obj = BTreeMap::new();
                obj.insert("index".into(), Json::Num(span.index as f64));
                obj.insert("name".into(), Json::Str(span.name.clone()));
                obj.insert("worker".into(), Json::Num(span.worker as f64));
                obj.insert("stolen".into(), Json::Bool(span.stolen));
                obj.insert("outcome".into(), Json::Str(span.outcome.clone()));
                obj.insert("wall_ms".into(), Json::Num(ms));
                obj.insert(
                    "attempts".into(),
                    Json::Num(span.attempts.len().max(1) as f64),
                );
                let timing = span
                    .attempts
                    .iter()
                    .map(|a| a.timing)
                    .fold(crate::observe::JobTiming::default(), |mut acc, t| {
                        acc.setup_ns += t.setup_ns;
                        acc.sim_ns += t.sim_ns;
                        acc.teardown_ns += t.teardown_ns;
                        acc
                    });
                obj.insert("setup_ms".into(), Json::Num(timing.setup_ns as f64 / 1e6));
                obj.insert("sim_ms".into(), Json::Num(timing.sim_ns as f64 / 1e6));
                obj.insert(
                    "teardown_ms".into(),
                    Json::Num(timing.teardown_ns as f64 / 1e6),
                );
                obj.insert("cycles".into(), Json::lossless_u64(span.cycles));
                if span.wall_ns() > 0 {
                    let rate = span.cycles as f64 / (span.wall_ns() as f64 / 1e9);
                    rates.push(rate);
                    obj.insert("cycles_per_sec".into(), Json::Num(rate));
                }
                Json::Obj(obj)
            })
            .collect();
        let mut histograms = BTreeMap::new();
        histograms.insert(
            "job_wall_ms".into(),
            histogram_json(&wall_ms, &[0.1, 1.0, 10.0, 100.0, 1_000.0, 10_000.0, 60_000.0]),
        );
        histograms.insert(
            "job_cycles_per_sec".into(),
            histogram_json(&rates, &[1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9]),
        );
        let mut root = BTreeMap::new();
        root.insert("nondeterministic".into(), Json::Bool(true));
        root.insert(
            "wall_seconds".into(),
            Json::Num(schedule.wall_ns as f64 / 1e9),
        );
        root.insert("jobs_total".into(), Json::Num(schedule.jobs_total as f64));
        root.insert("workers".into(), Json::Arr(workers));
        root.insert("jobs".into(), Json::Arr(jobs));
        root.insert("histograms".into(), Json::Obj(histograms));
        root.insert("stall_causes".into(), self.stall_causes_json());
        Some(Json::Obj(root))
    }

    /// The concise human summary the CLI prints by default: headline,
    /// quarantine list, totals, throughput, top fleet stall causes, and
    /// (when the sweep was observed) the per-worker utilization table. The
    /// full per-job table stays on [`fmt::Display`] (`--json` for the
    /// machine form).
    pub fn summary_text(&self) -> String {
        let mut out = String::new();
        self.write_text(&mut out, false)
            .expect("writing to a String cannot fail");
        out
    }

    /// The one writer of both text renderings. `full` is the
    /// [`fmt::Display`] form: it adds the per-job table and lists every
    /// fleet stall cause by name, where the summary lists the top three by
    /// cycles.
    fn write_text(&self, out: &mut impl fmt::Write, full: bool) -> fmt::Result {
        writeln!(
            out,
            "simfarm: {} jobs on {} worker(s), {:.2}s wall, {} failure(s)",
            self.jobs.len(),
            self.workers,
            self.wall_seconds,
            self.failures
        )?;
        if self.restored > 0 || self.pending > 0 {
            writeln!(
                out,
                "resume: {} restored from journal, {} pending",
                self.restored, self.pending
            )?;
        }
        if self.checkpoint_restores > 0 {
            writeln!(
                out,
                "checkpoints: {} job(s) resumed mid-job from durable checkpoints",
                self.checkpoint_restores
            )?;
        }
        if full {
            writeln!(
                out,
                "{:<28} {:<10} {:>10} {:>10} {:>5}  digest",
                "job", "model", "cycles", "retired", "exit"
            )?;
            for job in &self.jobs {
                writeln!(
                    out,
                    "{:<28} {:<10} {:>10} {:>10} {:>5}  {:016x}{}",
                    job.name,
                    job.model,
                    job.cycles,
                    job.retired,
                    job.exit_code,
                    job.digest,
                    marker(&job.outcome)
                )?;
                if !job.outcome.is_healthy() {
                    writeln!(out, "    outcome: {}", job.outcome.label())?;
                }
            }
        }
        if self.quarantined > 0 {
            writeln!(out, "quarantine: {} job(s)", self.quarantined)?;
            for job in &self.jobs {
                if matches!(job.outcome, JobOutcome::Quarantined { .. }) {
                    writeln!(out, "    {} — {}", job.name, job.outcome.label())?;
                }
            }
        }
        if self.killed > 0 {
            writeln!(out, "killed: {} job(s) died under process isolation", self.killed)?;
        }
        writeln!(
            out,
            "totals: {} cycles, {} retired, {} transitions",
            self.total_cycles, self.total_retired, self.total_stats.transitions
        )?;
        if self.wall_seconds > 0.0 {
            writeln!(out, "throughput: {:.0} simulated cycles/s", self.cycles_per_second())?;
        }
        if !self.stall_causes.is_empty() {
            let mut causes: Vec<&FleetStallCause> = self.stall_causes.iter().collect();
            if full {
                writeln!(out, "stall causes (fleet):")?;
            } else {
                causes.sort_by(|a, b| {
                    b.cycles
                        .cmp(&a.cycles)
                        .then_with(|| (&a.manager, &a.op).cmp(&(&b.manager, &b.op)))
                });
                causes.truncate(3);
                writeln!(out, "stall causes (fleet, top {}):", causes.len())?;
            }
            for cause in causes {
                writeln!(out, "    {}({}): {} cycles", cause.op, cause.manager, cause.cycles)?;
            }
        }
        if let Some(schedule) = &self.schedule {
            writeln!(out, "workers (timing, non-canonical):")?;
            for w in &schedule.workers {
                writeln!(
                    out,
                    "    worker {}: {:>5.1}% busy, {} job(s) ({} own, {} stolen)",
                    w.worker,
                    w.utilization() * 100.0,
                    w.jobs_completed,
                    w.own_pops,
                    w.steals
                )?;
            }
        }
        Ok(())
    }
}

/// Bucket counts for `values` against ascending upper bounds `le`, plus an
/// overflow bucket (`counts.len() == le.len() + 1`).
fn histogram_json(values: &[f64], le: &[f64]) -> Json {
    let mut counts = vec![0u64; le.len() + 1];
    for &v in values {
        let slot = le.iter().position(|&bound| v <= bound).unwrap_or(le.len());
        counts[slot] += 1;
    }
    let mut obj = BTreeMap::new();
    obj.insert(
        "le".into(),
        Json::Arr(le.iter().map(|&b| Json::Num(b)).collect()),
    );
    obj.insert(
        "counts".into(),
        Json::Arr(counts.into_iter().map(|c| Json::Num(c as f64)).collect()),
    );
    Json::Obj(obj)
}

/// One-word table marker for a job's outcome.
fn marker(outcome: &JobOutcome) -> &'static str {
    match outcome {
        JobOutcome::Halted => "",
        JobOutcome::BudgetExhausted => " (budget)",
        JobOutcome::Failed(_) => " (FAILED)",
        JobOutcome::Panicked { .. } => " (PANICKED)",
        JobOutcome::Killed { .. } => " (KILLED)",
        JobOutcome::Stalled(_) => " (STALLED)",
        JobOutcome::DeadlineExceeded { .. } => " (DEADLINE)",
        JobOutcome::Quarantined { .. } => " (QUARANTINED)",
    }
}

impl fmt::Display for FarmReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_text(f, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{run_job, SimJob};
    use crate::queue::{run_farm, run_serial, FarmOptions};

    #[test]
    fn report_renders_and_serializes_deterministically() {
        let jobs: Vec<SimJob> = (0..3)
            .map(|i| SimJob::minirisc_random(i, 32, 20_000))
            .collect();
        let a = FarmReport::consolidate(run_serial(&jobs), 1, 0.0);
        let b = FarmReport::consolidate(run_serial(&jobs), 1, 0.0);
        assert_eq!(a.to_json().to_string(), b.to_json().to_string());
        assert_eq!(a.to_string(), b.to_string());
        // The JSON round-trips through the bench parser.
        let parsed = bench::json::parse(&a.to_json().to_string()).unwrap();
        assert_eq!(
            parsed.get("jobs").unwrap().as_arr().unwrap().len(),
            3
        );
    }

    #[test]
    fn totals_sum_stats_across_osm_jobs() {
        let job = SimJob::new(
            crate::job::ModelKind::Vliw,
            crate::job::WorkloadSpec::Ilp { iters: 20, body: 4 },
            100_000,
        );
        let r1 = run_job(&job);
        let r2 = run_job(&job);
        let transitions = r1.stats.as_ref().unwrap().transitions;
        let report = FarmReport::consolidate(vec![r1, r2], 1, 0.0);
        assert_eq!(report.total_stats.transitions, 2 * transitions);
        assert_eq!(report.failures, 0);
        assert_eq!(report.quarantined, 0);
    }

    #[test]
    fn canonical_renderings_scrub_environment_fields() {
        let jobs: Vec<SimJob> = (0..2)
            .map(|i| SimJob::minirisc_random(i, 32, 20_000))
            .collect();
        let fast = FarmReport::consolidate(run_serial(&jobs), 1, 0.123);
        let wide = FarmReport::consolidate(run_serial(&jobs), 8, 9.876);
        assert_ne!(fast.to_string(), wide.to_string());
        assert_eq!(fast.canonical_text(), wide.canonical_text());
        assert_eq!(fast.canonical_json(), wide.canonical_json());
    }

    #[test]
    fn quarantined_jobs_get_their_own_section() {
        let mut chaos = SimJob::chaos_panic("boom");
        chaos.retries = 0;
        let jobs = vec![SimJob::minirisc_random(0, 32, 20_000), chaos];
        let report = FarmReport::consolidate(run_serial(&jobs), 1, 0.0);
        assert_eq!(report.failures, 1);
        assert_eq!(report.quarantined, 1);
        let text = report.to_string();
        assert!(text.contains("quarantine: 1 job(s)"), "{text}");
        assert!(text.contains("panicked"), "{text}");
        let json = report.to_json().to_string();
        assert!(json.contains("\"quarantined\":1"), "{json}");
    }

    #[test]
    fn json_omits_cycles_per_second_when_wall_unmeasured() {
        let jobs = vec![SimJob::minirisc_random(0, 32, 20_000)];
        let results = run_serial(&jobs);
        let unmeasured = FarmReport::consolidate(results.clone(), 1, 0.0);
        let json = unmeasured.to_json().to_string();
        assert!(
            !json.contains("cycles_per_second"),
            "unmeasured wall must omit the field, not claim 0: {json}"
        );
        let measured = FarmReport::consolidate(results, 1, 2.0);
        let parsed = bench::json::parse(&measured.to_json().to_string()).unwrap();
        let rate = parsed.get("cycles_per_second").unwrap().as_num().unwrap();
        assert!((rate - measured.total_cycles as f64 / 2.0).abs() < 1e-9);
    }

    /// Regression: the text renderings (`Display`, `summary_text`) must
    /// mirror the JSON side's guard and omit the throughput line entirely
    /// when wall time was never measured — `total_cycles / 0.0` would
    /// otherwise print `inf` cycles/s.
    #[test]
    fn text_paths_omit_throughput_when_wall_unmeasured() {
        let jobs = vec![SimJob::minirisc_random(0, 32, 20_000)];
        let results = run_serial(&jobs);
        let unmeasured = FarmReport::consolidate(results.clone(), 1, 0.0);
        assert_eq!(unmeasured.cycles_per_second(), 0.0);
        for text in [unmeasured.to_string(), unmeasured.summary_text()] {
            assert!(!text.contains("throughput"), "{text}");
            assert!(!text.contains("inf"), "{text}");
        }
        let measured = FarmReport::consolidate(results, 1, 2.0);
        assert!(measured.to_string().contains("throughput:"));
        assert!(measured.summary_text().contains("throughput:"));
    }

    /// Regression: u64 counters above 2^53 must survive the JSON rendering
    /// losslessly (hex-string fallback) instead of silently rounding
    /// through `f64`.
    #[test]
    fn json_counters_above_2_pow_53_stay_lossless() {
        let big = (1u64 << 53) + 1; // odd: rounds to 2^53 under `as f64`
        let mut result = run_job(&SimJob::minirisc_random(0, 32, 20_000));
        result.cycles = big;
        let mut report = FarmReport::consolidate(vec![result], 1, 0.0);
        report.total_cycles = big;
        report.stall_causes = vec![FleetStallCause {
            manager: "mf".into(),
            op: "alloc".into(),
            cycles: big,
        }];
        let parsed = bench::json::parse(&report.to_json().to_string()).unwrap();
        let job = &parsed.get("jobs").unwrap().as_arr().unwrap()[0];
        assert_eq!(job.get("cycles").unwrap().lossless_as_u64(), Some(big));
        assert_eq!(
            parsed.get("totals").unwrap().get("cycles").unwrap().lossless_as_u64(),
            Some(big)
        );
        let cause = &parsed.get("stall_causes").unwrap().as_arr().unwrap()[0];
        assert_eq!(cause.get("cycles").unwrap().lossless_as_u64(), Some(big));
        // Small counters keep the plain-number spelling (schema back-compat).
        assert!(matches!(
            parsed.get("totals").unwrap().get("retired").unwrap(),
            Json::Num(_)
        ));
    }

    #[test]
    fn stall_causes_fold_across_jobs_and_stay_canonical() {
        let mut job = SimJob::new(
            crate::job::ModelKind::Sa1100,
            crate::job::WorkloadSpec::Named("specint".into()),
            20_000,
        );
        job.observability = true;
        let r = run_job(&job);
        assert!(r.metrics.as_ref().is_some_and(|m| !m.stalls.is_empty()));
        let single = FarmReport::consolidate(vec![r.clone()], 1, 0.0);
        let double = FarmReport::consolidate(vec![r.clone(), r], 1, 0.0);
        assert!(!single.stall_causes.is_empty(), "specint on SA-1100 stalls");
        assert_eq!(single.stall_causes.len(), double.stall_causes.len());
        for (s, d) in single.stall_causes.iter().zip(&double.stall_causes) {
            assert_eq!(s.manager, d.manager);
            assert_eq!(s.op, d.op);
            assert_eq!(2 * s.cycles, d.cycles, "{}({})", s.op, s.manager);
        }
        // The roll-up is deterministic, so it lives in the canonical text.
        assert!(single.canonical_text().contains("stall causes (fleet):"));
        assert!(single.canonical_json().contains("\"stall_causes\""));
    }

    #[test]
    fn timing_json_exists_only_with_a_schedule_and_stays_out_of_canonical() {
        let jobs: Vec<SimJob> = (0..3)
            .map(|i| SimJob::minirisc_random(i, 32, 20_000))
            .collect();
        let plain = FarmReport::consolidate(run_serial(&jobs), 1, 0.0);
        assert!(plain.timing_json().is_none());

        let run = run_farm(
            &jobs,
            2,
            FarmOptions {
                observer: Some(crate::observe::FarmObserver::new()),
                ..FarmOptions::default()
            },
        )
        .unwrap();
        let observed = FarmReport::consolidate_sweep(&run, 2, 0.5);
        let timing = observed.timing_json().expect("schedule attached");
        let parsed = bench::json::parse(&timing.to_string()).unwrap();
        assert_eq!(parsed.get("nondeterministic").unwrap().as_bool(), Some(true));
        assert_eq!(parsed.get("jobs").unwrap().as_arr().unwrap().len(), 3);
        let hist = parsed.get("histograms").unwrap().get("job_wall_ms").unwrap();
        let le = hist.get("le").unwrap().as_arr().unwrap().len();
        let counts = hist.get("counts").unwrap().as_arr().unwrap();
        assert_eq!(counts.len(), le + 1, "overflow bucket");
        let total: f64 = counts.iter().map(|c| c.as_num().unwrap()).sum();
        assert_eq!(total as usize, 3, "every job lands in one bucket");
        // The operator rendering shows the utilization table; the canonical
        // one must not (timing is nondeterministic).
        assert!(observed.to_string().contains("workers (timing, non-canonical):"));
        assert!(!observed.canonical_text().contains("non-canonical"));
        assert_eq!(observed.canonical_text(), plain.canonical_text());
        assert_eq!(observed.canonical_json(), plain.canonical_json());
    }

    #[test]
    fn summary_text_is_concise_and_covers_quarantine() {
        let mut chaos = SimJob::chaos_panic("boom");
        chaos.retries = 0;
        let jobs = vec![SimJob::minirisc_random(0, 32, 20_000), chaos];
        let report = FarmReport::consolidate(run_serial(&jobs), 2, 1.5);
        let summary = report.summary_text();
        assert!(summary.starts_with("simfarm: 2 jobs on 2 worker(s)"), "{summary}");
        assert!(summary.contains("quarantine: 1 job(s)"), "{summary}");
        assert!(summary.contains("throughput:"), "{summary}");
        // Unlike Display, no per-job digest table.
        assert!(!summary.contains("digest"), "{summary}");
    }

    #[test]
    fn partial_sweep_consolidates_with_pending_count() {
        let jobs: Vec<SimJob> = (0..4)
            .map(|i| SimJob::minirisc_random(i, 32, 20_000))
            .collect();
        let oracle = run_serial(&jobs);
        let completed: BTreeMap<usize, JobResult> =
            oracle.iter().take(2).cloned().enumerate().collect();
        let cancel = crate::supervise::CancelToken::new();
        cancel.cancel();
        let run = run_farm(
            &jobs,
            2,
            FarmOptions {
                cancel,
                completed,
                ..FarmOptions::default()
            },
        )
        .unwrap();
        let report = FarmReport::consolidate_sweep(&run, 2, 0.0);
        assert_eq!(report.jobs.len(), 2);
        assert_eq!(report.pending, 2);
        assert_eq!(report.restored, 2);
        assert!(report.to_string().contains("2 restored from journal, 2 pending"));
    }
}
