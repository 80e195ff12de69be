//! Farm-scope observability: per-job lifecycle spans and per-worker
//! telemetry, recorded *outside* the canonical determinism contract.
//!
//! PR 2 made every machine observable; this module makes the **farm**
//! observable. A [`FarmObserver`] handed to [`crate::run_farm`] (via
//! [`crate::FarmOptions::observer`]) records, per job, when it started on
//! which worker, whether it arrived by steal, each supervised attempt's
//! setup/sim/teardown timing breakdown, and the outcome — and, per worker,
//! busy/idle time, own-deque pops vs steals, and jobs completed. The
//! product is a [`FarmSchedule`], renderable as a Chrome/Perfetto trace
//! ([`FarmSchedule::trace_json`]: workers as tracks, jobs as slices, steals
//! and retries as instants) and folded into
//! [`crate::FarmReport::timing_json`].
//!
//! ## Cost model
//!
//! Everything here is wall-clock derived and therefore **nondeterministic**
//! — none of it may leak into `canonical_text()`/`canonical_json()`. The
//! observer records per *job* (a whole simulation, typically 10⁴–10⁶
//! cycles), never per cycle: one `Instant::now()` pair per phase boundary
//! and one short mutex-protected push per completed job. Workers run one
//! loop either way; with no observer attached it reads no clock, and
//! nothing is added inside the simulation itself. The `farm_mixed`
//! benchmark workload and the `simfarm_smoke` speedup floor keep this
//! honest.

use osm_core::export::{json_escape, TraceJsonBuilder};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Per-attempt phase timing breakdown, in nanoseconds on the observer's
/// clock. `setup` covers workload resolution, machine construction and
/// fault installation; `sim` is the run loop itself; `teardown` is digest
/// extraction and result assembly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobTiming {
    /// Workload resolve + machine build + fault install.
    pub setup_ns: u64,
    /// The chunked run loop.
    pub sim_ns: u64,
    /// Digest/stats extraction and result assembly.
    pub teardown_ns: u64,
}

impl JobTiming {
    /// Total attributed time across the three phases.
    pub fn total_ns(&self) -> u64 {
        self.setup_ns
            .saturating_add(self.sim_ns)
            .saturating_add(self.teardown_ns)
    }
}

/// One supervised attempt as observed on a worker. A panicked attempt keeps
/// its span (the crash is part of the schedule) but reports a zero phase
/// breakdown — its phases never completed.
#[derive(Debug, Clone)]
pub struct AttemptSpan {
    /// 1-based attempt number within the job's supervision loop.
    pub attempt: u32,
    /// Attempt start, ns since the observer's epoch.
    pub start_ns: u64,
    /// Attempt end, ns since the observer's epoch.
    pub end_ns: u64,
    /// Phase breakdown (zeroed when the attempt panicked).
    pub timing: JobTiming,
    /// Whether this attempt came back healthy.
    pub healthy: bool,
}

/// The full lifecycle of one job on the farm: which worker ran it, how it
/// got there, when, and what each attempt did.
#[derive(Debug, Clone)]
pub struct JobSpan {
    /// Job index in the sweep.
    pub index: usize,
    /// Job label.
    pub name: String,
    /// Worker that executed the job.
    pub worker: usize,
    /// True when the job was stolen from another worker's deque rather than
    /// popped from this worker's own.
    pub stolen: bool,
    /// Execution start, ns since the observer's epoch.
    pub started_ns: u64,
    /// Execution end, ns since the observer's epoch.
    pub finished_ns: u64,
    /// Every supervised attempt, in order.
    pub attempts: Vec<AttemptSpan>,
    /// The final outcome's label (see [`crate::JobOutcome::label`]).
    pub outcome: String,
    /// Cycles the final attempt executed.
    pub cycles: u64,
}

impl JobSpan {
    /// Wall time the job occupied its worker.
    pub fn wall_ns(&self) -> u64 {
        self.finished_ns.saturating_sub(self.started_ns)
    }

    /// Retries beyond the first attempt.
    pub fn retries(&self) -> usize {
        self.attempts.len().saturating_sub(1)
    }
}

/// Counters one worker accumulates over a sweep.
#[derive(Debug, Clone, Default)]
pub struct WorkerTelemetry {
    /// Worker index.
    pub worker: usize,
    /// Time spent executing jobs, ns.
    pub busy_ns: u64,
    /// Time spent between jobs (queue scans, waiting out the drain), ns.
    pub idle_ns: u64,
    /// Jobs popped from the worker's own deque.
    pub own_pops: u64,
    /// Jobs stolen from other workers' deques.
    pub steals: u64,
    /// Jobs this worker completed (== `own_pops + steals`).
    pub jobs_completed: u64,
}

impl WorkerTelemetry {
    /// Busy fraction of the worker's observed lifetime, in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        let total = self.busy_ns.saturating_add(self.idle_ns);
        if total == 0 {
            0.0
        } else {
            self.busy_ns as f64 / total as f64
        }
    }
}

/// Everything a [`FarmObserver`] recorded about one sweep: job spans (by
/// job index), worker telemetry (by worker index), and the sweep's wall
/// time on the observer's clock. All of it is timing-derived and
/// nondeterministic; restored-from-journal jobs have no span (they did not
/// run in this process).
#[derive(Debug, Clone, Default)]
pub struct FarmSchedule {
    /// Total jobs in the sweep (spans may be fewer: restored jobs).
    pub jobs_total: usize,
    /// Sweep wall time, ns from observer creation to [`FarmObserver::finish`].
    pub wall_ns: u64,
    /// Per-worker counters, sorted by worker index.
    pub workers: Vec<WorkerTelemetry>,
    /// Per-job spans, sorted by job index.
    pub spans: Vec<JobSpan>,
}

impl FarmSchedule {
    /// Renders the schedule as a Chrome/Perfetto trace: one process
    /// ("simfarm"), one thread track per worker, a complete ("X") slice per
    /// job, and instant events marking steals and retries. Validated
    /// against `schemas/farm_trace.schema.json` in CI (`farm_trace_smoke`).
    pub fn trace_json(&self) -> String {
        let mut trace = TraceJsonBuilder::new();
        trace.process_name(0, "simfarm");
        let mut workers: Vec<usize> = self.workers.iter().map(|w| w.worker).collect();
        for span in &self.spans {
            if !workers.contains(&span.worker) {
                workers.push(span.worker);
            }
        }
        workers.sort_unstable();
        for &w in &workers {
            trace.thread_name(0, w as u64, &format!("worker {w}"));
        }
        for span in &self.spans {
            let ts = span.started_ns / 1_000;
            let dur = span.wall_ns() / 1_000;
            trace.complete(
                &span.name,
                0,
                span.worker as u64,
                ts,
                dur,
                &format!(
                    r#"{{"index":{},"outcome":"{}","attempts":{},"cycles":{}}}"#,
                    span.index,
                    json_escape(&span.outcome),
                    span.attempts.len().max(1),
                    span.cycles
                ),
            );
            if span.stolen {
                trace.instant(
                    "steal",
                    0,
                    span.worker as u64,
                    ts,
                    &format!(r#"{{"job":"{}"}}"#, json_escape(&span.name)),
                );
            }
            for attempt in span.attempts.iter().skip(1) {
                trace.instant(
                    "retry",
                    0,
                    span.worker as u64,
                    attempt.start_ns / 1_000,
                    &format!(
                        r#"{{"job":"{}","attempt":{}}}"#,
                        json_escape(&span.name),
                        attempt.attempt
                    ),
                );
            }
        }
        trace.finish(&[
            ("jobs_total", self.jobs_total as u64),
            ("jobs_recorded", self.spans.len() as u64),
            ("workers", workers.len() as u64),
        ])
    }
}

/// The shared collector the farm threads record into. Cloning shares the
/// underlying schedule; [`FarmObserver::finish`] extracts it. All
/// timestamps are nanoseconds since the observer's construction, so one
/// observer spans exactly one sweep.
#[derive(Debug, Clone)]
pub struct FarmObserver {
    epoch: Instant,
    inner: Arc<Mutex<FarmSchedule>>,
}

impl Default for FarmObserver {
    fn default() -> FarmObserver {
        FarmObserver::new()
    }
}

/// Locks the schedule, adopting poisoning the same way the farm's deques
/// do: the protected value is plain data with no invariant a mid-push
/// unwind could break.
fn lock_schedule(m: &Mutex<FarmSchedule>) -> std::sync::MutexGuard<'_, FarmSchedule> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl FarmObserver {
    /// A fresh observer; its epoch (timestamp zero) is *now*.
    pub fn new() -> FarmObserver {
        FarmObserver {
            epoch: Instant::now(),
            inner: Arc::new(Mutex::new(FarmSchedule::default())),
        }
    }

    /// Nanoseconds since the observer's epoch.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records one completed job span (called from worker threads).
    pub(crate) fn record_span(&self, span: JobSpan) {
        lock_schedule(&self.inner).spans.push(span);
    }

    /// Records one worker's final counters (called as each worker exits).
    pub(crate) fn record_worker(&self, telemetry: WorkerTelemetry) {
        lock_schedule(&self.inner).workers.push(telemetry);
    }

    /// Stamps the wall time and extracts the schedule, with spans sorted by
    /// job index and workers by worker index (recording order is
    /// completion order, which is nondeterministic even for the renderings
    /// that are allowed to be timing-dependent — sorting keeps the *shape*
    /// stable).
    pub fn finish(&self, jobs_total: usize) -> FarmSchedule {
        let mut schedule = std::mem::take(&mut *lock_schedule(&self.inner));
        schedule.jobs_total = jobs_total;
        schedule.wall_ns = self.now_ns();
        schedule.spans.sort_by_key(|s| s.index);
        schedule.workers.sort_by_key(|w| w.worker);
        schedule
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-built two-worker schedule with fixed timestamps (timing is
    /// nondeterministic at runtime; tests pin the rendering instead).
    pub(crate) fn fixed_schedule() -> FarmSchedule {
        FarmSchedule {
            jobs_total: 3,
            wall_ns: 9_000_000,
            workers: vec![
                WorkerTelemetry {
                    worker: 0,
                    busy_ns: 6_000_000,
                    idle_ns: 2_000_000,
                    own_pops: 2,
                    steals: 0,
                    jobs_completed: 2,
                },
                WorkerTelemetry {
                    worker: 1,
                    busy_ns: 4_000_000,
                    idle_ns: 4_000_000,
                    own_pops: 0,
                    steals: 1,
                    jobs_completed: 1,
                },
            ],
            spans: vec![
                JobSpan {
                    index: 0,
                    name: "a".into(),
                    worker: 0,
                    stolen: false,
                    started_ns: 0,
                    finished_ns: 4_000_000,
                    attempts: vec![AttemptSpan {
                        attempt: 1,
                        start_ns: 0,
                        end_ns: 4_000_000,
                        timing: JobTiming {
                            setup_ns: 500_000,
                            sim_ns: 3_000_000,
                            teardown_ns: 500_000,
                        },
                        healthy: true,
                    }],
                    outcome: "halted".into(),
                    cycles: 1000,
                },
                JobSpan {
                    index: 1,
                    name: "b".into(),
                    worker: 1,
                    stolen: true,
                    started_ns: 1_000_000,
                    finished_ns: 5_000_000,
                    attempts: vec![
                        AttemptSpan {
                            attempt: 1,
                            start_ns: 1_000_000,
                            end_ns: 3_000_000,
                            timing: JobTiming::default(),
                            healthy: false,
                        },
                        AttemptSpan {
                            attempt: 2,
                            start_ns: 3_000_000,
                            end_ns: 5_000_000,
                            timing: JobTiming::default(),
                            healthy: false,
                        },
                    ],
                    outcome: "quarantined after 2 attempt(s); last: panicked: chaos".into(),
                    cycles: 0,
                },
                JobSpan {
                    index: 2,
                    name: "c".into(),
                    worker: 0,
                    stolen: false,
                    started_ns: 4_200_000,
                    finished_ns: 6_200_000,
                    attempts: vec![AttemptSpan {
                        attempt: 1,
                        start_ns: 4_200_000,
                        end_ns: 6_200_000,
                        timing: JobTiming {
                            setup_ns: 200_000,
                            sim_ns: 1_700_000,
                            teardown_ns: 100_000,
                        },
                        healthy: true,
                    }],
                    outcome: "budget-exhausted".into(),
                    cycles: 2000,
                },
            ],
        }
    }

    #[test]
    fn trace_json_carries_workers_jobs_and_instants() {
        let json = fixed_schedule().trace_json();
        assert!(json.contains(r#""name":"worker 0""#), "{json}");
        assert!(json.contains(r#""name":"worker 1""#), "{json}");
        // Job slices are X events on the owning worker's tid.
        assert!(json.contains(r#""name":"a","ph":"X","pid":0,"tid":0,"ts":0,"dur":4000"#));
        assert!(json.contains(r#""name":"b","ph":"X","pid":0,"tid":1,"ts":1000,"dur":4000"#));
        // The stolen job and the retry surface as instants.
        assert!(json.contains(r#""name":"steal","ph":"i""#));
        assert!(json.contains(r#""name":"retry","ph":"i""#));
        assert!(json.contains(r#""attempt":2"#));
        assert!(json.contains(r#""jobs_total":3"#));
        assert!(json.contains(r#""jobs_recorded":3"#));
        assert!(json.contains(r#""workers":2"#));
    }

    #[test]
    fn observer_finish_sorts_and_stamps() {
        let obs = FarmObserver::new();
        obs.record_span(JobSpan {
            index: 2,
            name: "late".into(),
            worker: 1,
            stolen: false,
            started_ns: 10,
            finished_ns: 20,
            attempts: vec![],
            outcome: "halted".into(),
            cycles: 1,
        });
        obs.record_span(JobSpan {
            index: 0,
            name: "early".into(),
            worker: 0,
            stolen: true,
            started_ns: 0,
            finished_ns: 5,
            attempts: vec![],
            outcome: "halted".into(),
            cycles: 1,
        });
        obs.record_worker(WorkerTelemetry {
            worker: 1,
            ..WorkerTelemetry::default()
        });
        obs.record_worker(WorkerTelemetry {
            worker: 0,
            ..WorkerTelemetry::default()
        });
        let schedule = obs.finish(4);
        assert_eq!(schedule.jobs_total, 4);
        assert_eq!(schedule.spans[0].index, 0);
        assert_eq!(schedule.spans[1].index, 2);
        assert_eq!(schedule.workers[0].worker, 0);
        assert_eq!(schedule.workers[1].worker, 1);
        assert_eq!(schedule.spans[0].wall_ns(), 5);
    }

    #[test]
    fn utilization_is_a_busy_fraction() {
        let w = WorkerTelemetry {
            worker: 0,
            busy_ns: 3,
            idle_ns: 1,
            ..WorkerTelemetry::default()
        };
        assert!((w.utilization() - 0.75).abs() < 1e-12);
        assert_eq!(WorkerTelemetry::default().utilization(), 0.0);
    }
}
