//! The supervised work-stealing farm: `std::thread` workers over per-worker
//! deques.
//!
//! Each worker owns a deque of job indices. It pops work from the **front**
//! of its own deque and, when empty, steals from the **back** of the other
//! workers' deques (classic Arora-Blumofe-Plotkin discipline, here with
//! mutexed `VecDeque`s since jobs are coarse — whole simulations — and the
//! queue is touched once per job, not per task). Results are delivered
//! through a channel tagged with the job index; the coordinating thread
//! drains it *while workers run*, journaling each completed job and
//! re-assembling results into job order, so aggregation is independent of
//! completion order.
//!
//! ## Supervision
//!
//! Every job runs through [`run_job_supervised`]: panics are caught and
//! typed, unhealthy jobs are retried and quarantined, stall budgets and
//! wall deadlines are enforced inside the job itself. Worker threads
//! therefore never unwind out of the farm. Deques are locked
//! poison-tolerantly anyway (`Mutex` poisoning only flags that a panic
//! happened mid-critical-section; a `VecDeque<usize>` has no invariant a
//! failed `pop` can break), so even a hypothetical unwind leaves the other
//! workers draining the queue instead of cascading
//! `PoisonError` unwraps across the farm. A job slot that still comes back
//! empty (a worker died without reporting) surfaces as the typed
//! [`FarmError::MissingResult`] — the seed's `panic!("job {idx} produced no
//! result")` assembly hole, demoted from crash to error.

use crate::checkpoint::CheckpointCtl;
use crate::error::FarmError;
use crate::exec::{self, ProcessIsolation};
use crate::job::{JobResult, SimJob};
use crate::journal::JournalWriter;
use crate::observe::{FarmObserver, FarmSchedule, JobSpan, WorkerTelemetry};
use crate::supervise::{run_job_supervised, run_job_supervised_with, CancelToken};
use std::collections::{BTreeMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::sync::Mutex;

/// What a worker reports to the coordinator: a completed job, or durable
/// mid-job progress (a checkpoint was sealed at `cycle`) to be journaled
/// as a partial record.
enum Msg {
    Result(usize, Box<JobResult>),
    Partial(usize, u64),
}

/// Everything optional a supervised sweep can carry: a cancellation token,
/// previously-completed results to skip (durable resume), a journal to
/// record completions into, and a completion hook.
#[derive(Default)]
pub struct FarmOptions {
    /// Cooperative cancellation: once cancelled, workers finish their
    /// in-flight jobs, the journal is flushed, and [`run_farm`] returns a
    /// partial [`SweepRun`] with `cancelled = true`.
    pub cancel: CancelToken,
    /// Results restored from a sweep journal, by job index; these jobs are
    /// **not** re-run. Produced by [`JournalWriter::resume`] /
    /// [`crate::read_journal`].
    pub completed: BTreeMap<usize, JobResult>,
    /// When present, every newly completed job is appended (and flushed)
    /// the moment it arrives, in completion order.
    pub journal: Option<JournalWriter>,
    /// Called on the coordinating thread for each newly completed job, in
    /// completion order (after the journal append). Tests and CLIs hook
    /// progress and kill-switches here.
    #[allow(clippy::type_complexity)]
    pub on_result: Option<Box<dyn FnMut(usize, &JobResult)>>,
    /// Farm-scope observability: when present, workers record per-job
    /// lifecycle spans and per-worker telemetry into it, and the finished
    /// [`FarmSchedule`] is attached to the returned [`SweepRun`]. When
    /// absent the workers read no clock — results are bit-identical either
    /// way (timing never feeds back into execution).
    pub observer: Option<FarmObserver>,
    /// Directory for durable mid-job checkpoints. When present, every job
    /// that opted in ([`SimJob::checkpoint_every`]) seals a checkpoint on
    /// cadence, the coordinator journals a partial-progress record per
    /// seal, and a resumed (or retried) job restores from its last durable
    /// checkpoint instead of cycle 0. `None` disables mid-job
    /// checkpointing entirely.
    pub checkpoint_dir: Option<PathBuf>,
    /// When present, every job attempt runs in a re-exec'd subprocess
    /// under the given resource budgets ([`crate::exec`]); hard crashes
    /// become [`crate::JobOutcome::Killed`]. `None` (the default) runs
    /// jobs in-process on the worker threads.
    pub isolation: Option<ProcessIsolation>,
}

impl std::fmt::Debug for FarmOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FarmOptions")
            .field("cancelled", &self.cancel.is_cancelled())
            .field("completed", &self.completed.len())
            .field("journal", &self.journal)
            .field("on_result", &self.on_result.is_some())
            .field("observer", &self.observer.is_some())
            .field("checkpoint_dir", &self.checkpoint_dir)
            .field("isolation", &self.isolation.is_some())
            .finish()
    }
}

/// The product of a supervised sweep: completed results by job index, plus
/// what happened around them.
#[derive(Debug)]
pub struct SweepRun {
    /// Total jobs in the sweep (completed + pending).
    pub jobs_total: usize,
    /// Completed results by job index (restored + newly run).
    pub completed: BTreeMap<usize, JobResult>,
    /// How many of `completed` were restored from the journal rather than
    /// run in this process.
    pub restored: usize,
    /// True if the sweep was cancelled before every job completed; the
    /// journal (if any) holds everything in `completed`, so a later
    /// `--resume` picks up exactly the pending jobs.
    pub cancelled: bool,
    /// What the [`FarmObserver`] recorded, when one was attached. Purely
    /// timing-derived — never part of any canonical rendering.
    pub schedule: Option<FarmSchedule>,
}

impl SweepRun {
    /// Job indices that did not complete (non-empty only after
    /// cancellation).
    pub fn pending(&self) -> Vec<usize> {
        (0..self.jobs_total)
            .filter(|idx| !self.completed.contains_key(idx))
            .collect()
    }

    /// True when every job completed.
    pub fn is_complete(&self) -> bool {
        self.completed.len() == self.jobs_total
    }

    /// Unwraps a *complete* run into results in job-index order. A hole in
    /// an un-cancelled run is the farm's broken assembly invariant,
    /// surfaced as [`FarmError::MissingResult`]; calling this on a
    /// cancelled partial run reports its first pending job the same way.
    pub fn into_results(mut self) -> Result<Vec<JobResult>, FarmError> {
        let mut out = Vec::with_capacity(self.jobs_total);
        for idx in 0..self.jobs_total {
            match self.completed.remove(&idx) {
                Some(result) => out.push(result),
                None => {
                    return Err(FarmError::MissingResult {
                        index: idx,
                        name: String::new(),
                    })
                }
            }
        }
        Ok(out)
    }
}

/// Locks a worker deque, recovering from poisoning: the protected value is
/// a plain `VecDeque<usize>` with no invariant a mid-`pop` unwind could
/// break, so a poisoned lock is safe to adopt. This is what keeps one
/// worker's panic from cascading `PoisonError` panics across every other
/// worker that later touches the deque.
fn lock_deque(m: &Mutex<VecDeque<usize>>) -> std::sync::MutexGuard<'_, VecDeque<usize>> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Runs every job on the calling thread, in job order, under full
/// supervision (crash isolation, retries, quarantine). The oracle the
/// parallel farm is checked against (`simfarm_smoke` asserts digest parity).
pub fn run_serial(jobs: &[SimJob]) -> Vec<JobResult> {
    jobs.iter().map(run_job_supervised).collect()
}

/// Runs the job list across `workers` threads with work stealing and
/// returns the results **in job-index order** regardless of completion
/// order. Every job is supervised — a panicking, stalling or overrunning
/// job becomes its typed [`crate::JobOutcome`], never a dead farm.
///
/// This is the plain entry point; [`run_farm`] is the full one (journal,
/// resume, cancellation). `workers` is clamped to `[1, jobs.len()]`.
pub fn run_parallel(jobs: &[SimJob], workers: usize) -> Result<Vec<JobResult>, FarmError> {
    run_farm(jobs, workers, FarmOptions::default())?.into_results()
}

/// The supervised sweep: work-stealing execution of every job not already
/// in `options.completed`, with per-completion journaling and cooperative
/// cancellation.
///
/// Jobs are distributed round-robin across the worker deques up front
/// (good initial balance for homogeneous sweeps); stealing rebalances
/// heterogeneous ones. The coordinating thread (the caller's) drains the
/// result channel concurrently: each arriving result is appended to the
/// journal, handed to `on_result`, and slotted by index. A journal append
/// failure cancels the sweep (workers finish in-flight jobs) and surfaces
/// as `Err` — results are never silently dropped while the journal claims
/// otherwise.
pub fn run_farm(
    jobs: &[SimJob],
    workers: usize,
    options: FarmOptions,
) -> Result<SweepRun, FarmError> {
    let FarmOptions {
        cancel,
        completed,
        mut journal,
        mut on_result,
        observer,
        checkpoint_dir,
        isolation,
    } = options;
    let mut completed: BTreeMap<usize, JobResult> = completed
        .into_iter()
        .filter(|(idx, _)| *idx < jobs.len())
        .collect();
    let restored = completed.len();
    let pending: Vec<usize> = (0..jobs.len())
        .filter(|idx| !completed.contains_key(idx))
        .collect();
    if pending.is_empty() {
        return Ok(SweepRun {
            jobs_total: jobs.len(),
            completed,
            restored,
            cancelled: cancel.is_cancelled(),
            schedule: observer.map(|obs| obs.finish(jobs.len())),
        });
    }
    let workers = workers.clamp(1, pending.len());

    let deques: Vec<Mutex<VecDeque<usize>>> = (0..workers)
        .map(|w| {
            Mutex::new(
                pending
                    .iter()
                    .copied()
                    .skip(w)
                    .step_by(workers)
                    .collect::<VecDeque<usize>>(),
            )
        })
        .collect();
    let (tx, rx) = mpsc::channel::<Msg>();

    let mut journal_error: Option<FarmError> = None;
    std::thread::scope(|scope| {
        for me in 0..workers {
            let tx = tx.clone();
            let deques = &deques;
            let cancel = cancel.clone();
            let observer = observer.clone();
            let ckpt_dir = checkpoint_dir.as_deref();
            let isolation = isolation.as_ref();
            scope.spawn(move || {
                let observer = observer.as_ref();
                worker(
                    deques, me, &cancel, &tx, jobs, ckpt_dir, isolation, observer,
                )
            });
        }
        drop(tx);

        // Drain while the workers run: journal + hook + slot, in completion
        // order. The loop ends when the last worker drops its sender.
        for msg in rx {
            let (idx, result) = match msg {
                Msg::Partial(idx, cycle) => {
                    // Partial progress is advisory (the checkpoint file is
                    // already durable); a failing journal still cancels —
                    // the account must not silently diverge from disk.
                    if journal_error.is_none() {
                        if let Some(journal) = journal.as_mut() {
                            if let Err(e) = journal.record_partial(idx, cycle) {
                                journal_error = Some(e.into());
                                cancel.cancel();
                            }
                        }
                    }
                    continue;
                }
                Msg::Result(idx, result) => (idx, *result),
            };
            if journal_error.is_none() {
                if let Some(journal) = journal.as_mut() {
                    if let Err(e) = journal.record(idx, &result) {
                        journal_error = Some(e.into());
                        cancel.cancel();
                    }
                }
            }
            if let Some(hook) = on_result.as_mut() {
                hook(idx, &result);
            }
            completed.insert(idx, result);
        }
    });

    if let Some(e) = journal_error {
        return Err(e);
    }
    let run = SweepRun {
        jobs_total: jobs.len(),
        completed,
        restored,
        cancelled: cancel.is_cancelled(),
        schedule: observer.map(|obs| obs.finish(jobs.len())),
    };
    if !run.cancelled && !run.is_complete() {
        // A worker died without reporting — the assembly invariant is
        // broken. Typed error, not a panic (satellite of the seed's
        // `panic!("job {idx} produced no result")`).
        let index = run.pending()[0];
        return Err(FarmError::MissingResult {
            index,
            name: jobs[index].name.clone(),
        });
    }
    Ok(run)
}

/// Builds the optional checkpoint controller for one in-process job,
/// wiring its save notifications to the coordinator as partial-progress
/// messages.
fn job_ckpt_ctl<'a>(
    jobs: &[SimJob],
    idx: usize,
    ckpt_dir: Option<&Path>,
    tx: &'a mpsc::Sender<Msg>,
) -> Option<CheckpointCtl<'a>> {
    let dir = ckpt_dir?;
    Some(
        CheckpointCtl::new(&jobs[idx], idx, dir)?
            .with_notify(move |cycle| {
                let _ = tx.send(Msg::Partial(idx, cycle));
            }),
    )
}

/// A worker's loop: pop or steal the next job, run it supervised (in a
/// child process under `isolation`, otherwise on this thread) and report
/// the result. With an observer attached it also keeps busy/idle and
/// pop-vs-steal telemetry and records one [`JobSpan`] per job; the clock is
/// read only at job and attempt boundaries, and the results are
/// bit-identical either way.
#[allow(clippy::too_many_arguments)]
fn worker(
    deques: &[Mutex<VecDeque<usize>>],
    me: usize,
    cancel: &CancelToken,
    tx: &mpsc::Sender<Msg>,
    jobs: &[SimJob],
    ckpt_dir: Option<&Path>,
    isolation: Option<&ProcessIsolation>,
    obs: Option<&FarmObserver>,
) {
    let now_ns = || obs.map_or(0, FarmObserver::now_ns);
    let mut telemetry = WorkerTelemetry {
        worker: me,
        ..WorkerTelemetry::default()
    };
    let mut idle_mark = now_ns();
    while !cancel.is_cancelled() {
        let Some((idx, stolen)) = next_job(deques, me) else { break };
        let started_ns = now_ns();
        telemetry.idle_ns += started_ns.saturating_sub(idle_mark);
        if stolen {
            telemetry.steals += 1;
        } else {
            telemetry.own_pops += 1;
        }
        let (result, attempts) = match isolation {
            Some(iso) => exec::run_child_supervised(
                iso,
                jobs,
                idx,
                ckpt_dir,
                &mut |cycle| {
                    let _ = tx.send(Msg::Partial(idx, cycle));
                },
                obs,
            ),
            None => {
                let mut ctl = job_ckpt_ctl(jobs, idx, ckpt_dir, tx);
                run_job_supervised_with(&jobs[idx], ctl.as_mut(), obs)
            }
        };
        let finished_ns = now_ns();
        telemetry.busy_ns += finished_ns.saturating_sub(started_ns);
        telemetry.jobs_completed += 1;
        idle_mark = finished_ns;
        if let Some(obs) = obs {
            obs.record_span(JobSpan {
                index: idx,
                name: result.name.clone(),
                worker: me,
                stolen,
                started_ns,
                finished_ns,
                attempts,
                outcome: result.outcome.label(),
                cycles: result.cycles,
            });
        }
        if tx.send(Msg::Result(idx, Box::new(result))).is_err() {
            break;
        }
    }
    if let Some(obs) = obs {
        telemetry.idle_ns += now_ns().saturating_sub(idle_mark);
        obs.record_worker(telemetry);
    }
}

/// Pops the next index: own deque front first, then steal from the back of
/// the other deques (scanning cyclically from the right neighbour). The
/// flag reports whether the job was stolen. Returns `None` only when every
/// deque is empty — no job generates new jobs, so that is a stable
/// termination condition. Poisoned deques are adopted, not propagated (see
/// [`lock_deque`]).
fn next_job(deques: &[Mutex<VecDeque<usize>>], me: usize) -> Option<(usize, bool)> {
    if let Some(idx) = lock_deque(&deques[me]).pop_front() {
        return Some((idx, false));
    }
    let n = deques.len();
    for offset in 1..n {
        let victim = (me + offset) % n;
        if let Some(idx) = lock_deque(&deques[victim]).pop_back() {
            return Some((idx, true));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobOutcome, SimJob};

    fn jobs(n: u64) -> Vec<SimJob> {
        (0..n).map(|i| SimJob::minirisc_random(i, 32, 20_000)).collect()
    }

    #[test]
    fn parallel_matches_serial_digests_in_order() {
        let js = jobs(8);
        let serial = run_serial(&js);
        let parallel = run_parallel(&js, 4).unwrap();
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.name, p.name, "results must come back in job order");
            assert_eq!(s.digest, p.digest);
            assert_eq!(s.cycles, p.cycles);
        }
    }

    #[test]
    fn more_workers_than_jobs_is_fine() {
        let js = jobs(2);
        let results = run_parallel(&js, 16).unwrap();
        assert_eq!(results.len(), 2);
        assert!(results.iter().all(|r| r.is_ok()));
    }

    #[test]
    fn empty_job_list_yields_empty_results() {
        assert!(run_parallel(&[], 4).unwrap().is_empty());
    }

    #[test]
    fn stealing_drains_unbalanced_deques() {
        // 9 jobs on 8 workers: worker 0 gets two, everyone else one; the
        // extra job is stolen or run — either way all 9 results arrive.
        let js = jobs(9);
        let results = run_parallel(&js, 8).unwrap();
        assert_eq!(results.len(), 9);
        assert!(results.iter().all(|r| r.is_ok()));
    }

    #[test]
    fn poisoned_deque_is_adopted_not_cascaded() {
        // Regression for the seed's `.lock().unwrap()`: poison a deque the
        // way a worker panic mid-critical-section would, then show both the
        // lock helper and the full steal scan still drain it.
        let deques: Vec<Mutex<VecDeque<usize>>> = vec![
            Mutex::new(VecDeque::new()),
            Mutex::new(VecDeque::from([7usize, 8])),
        ];
        let caught = std::panic::catch_unwind(|| {
            let _guard = deques[1].lock().unwrap();
            panic!("worker died holding the deque lock");
        });
        assert!(caught.is_err());
        assert!(deques[1].is_poisoned());
        assert_eq!(lock_deque(&deques[1]).front(), Some(&7));
        // Worker 0's steal path crosses the poisoned mutex.
        assert_eq!(next_job(&deques, 0), Some((8, true)));
        assert_eq!(next_job(&deques, 1), Some((7, false)));
        assert_eq!(next_job(&deques, 0), None);
    }

    #[test]
    fn panicking_job_does_not_kill_the_farm() {
        // One chaos job in the middle of a healthy sweep: the farm returns
        // every result, the chaos job typed and quarantined.
        let mut js = jobs(5);
        let mut chaos = SimJob::chaos_panic("boom#2");
        chaos.retries = 0;
        js.insert(2, chaos);
        let results = run_parallel(&js, 4).unwrap();
        assert_eq!(results.len(), 6);
        assert!(matches!(
            &results[2].outcome,
            JobOutcome::Quarantined { attempts: 1, last }
                if matches!(last.as_ref(), JobOutcome::Panicked { .. })
        ));
        for (i, r) in results.iter().enumerate() {
            if i != 2 {
                assert!(r.is_ok(), "job {i}: {:?}", r.outcome);
            }
        }
    }

    #[test]
    fn cancellation_is_cooperative_and_resumable_in_memory() {
        // Cancel after the second completion. How many jobs slip through
        // before the workers observe the token is timing-dependent, so the
        // assertions are about the *contract*: the run reports cancelled,
        // at least the two seen completions are present, and resuming from
        // whatever completed reproduces the uninterrupted sweep exactly.
        let js = jobs(6);
        let cancel = CancelToken::new();
        let hook_cancel = cancel.clone();
        let mut seen = 0usize;
        let first = run_farm(
            &js,
            2,
            FarmOptions {
                cancel,
                on_result: Some(Box::new(move |_, _| {
                    seen += 1;
                    if seen == 2 {
                        hook_cancel.cancel();
                    }
                })),
                ..FarmOptions::default()
            },
        )
        .unwrap();
        assert!(first.cancelled);
        assert!(first.completed.len() >= 2, "{}", first.completed.len());
        assert_eq!(first.completed.len() + first.pending().len(), 6);

        let second = run_farm(
            &js,
            2,
            FarmOptions {
                completed: first.completed,
                ..FarmOptions::default()
            },
        )
        .unwrap();
        assert!(second.is_complete());
        assert!(!second.cancelled);

        let resumed = second.into_results().unwrap();
        let oracle = run_serial(&js);
        for (r, o) in resumed.iter().zip(&oracle) {
            assert_eq!(r.digest, o.digest);
            assert_eq!(r.name, o.name);
        }
    }

    #[test]
    fn partial_resume_skips_restored_jobs_deterministically() {
        // Hand the farm the first three results as "already completed":
        // only the remaining three run, and the assembled sweep equals the
        // uninterrupted oracle job-for-job.
        let js = jobs(6);
        let oracle = run_serial(&js);
        let completed: BTreeMap<usize, JobResult> = oracle
            .iter()
            .take(3)
            .cloned()
            .enumerate()
            .collect();
        let run = run_farm(
            &js,
            2,
            FarmOptions {
                completed,
                ..FarmOptions::default()
            },
        )
        .unwrap();
        assert_eq!(run.restored, 3);
        assert!(run.is_complete());
        let results = run.into_results().unwrap();
        for (r, o) in results.iter().zip(&oracle) {
            assert_eq!(r.digest, o.digest);
            assert_eq!(r.cycles, o.cycles);
        }
    }

    #[test]
    fn observed_farm_records_a_span_per_job_and_consistent_telemetry() {
        let mut js = jobs(5);
        let mut chaos = SimJob::chaos_panic("boom#5");
        chaos.retries = 1;
        js.push(chaos);
        let observer = FarmObserver::new();
        let run = run_farm(
            &js,
            2,
            FarmOptions {
                observer: Some(observer),
                ..FarmOptions::default()
            },
        )
        .unwrap();
        let schedule = run.schedule.as_ref().expect("observer attached");
        assert_eq!(schedule.jobs_total, 6);
        assert_eq!(schedule.spans.len(), 6, "one span per executed job");
        // Spans come back sorted by job index, with matching names.
        for (i, span) in schedule.spans.iter().enumerate() {
            assert_eq!(span.index, i);
            assert_eq!(span.name, js[i].name);
            assert!(span.finished_ns >= span.started_ns);
            assert!(!span.attempts.is_empty());
        }
        // The chaos job shows its retry in the span.
        assert_eq!(schedule.spans[5].attempts.len(), 2);
        assert!(schedule.spans[5].outcome.starts_with("quarantined"));
        // Worker counters reconcile with the spans.
        let completed: u64 = schedule.workers.iter().map(|w| w.jobs_completed).sum();
        assert_eq!(completed, 6);
        for w in &schedule.workers {
            assert_eq!(w.own_pops + w.steals, w.jobs_completed);
        }
        // Determinism: results equal the unobserved serial oracle.
        let oracle = run_serial(&js);
        for (idx, o) in oracle.iter().enumerate() {
            let r = &run.completed[&idx];
            assert_eq!(r.digest, o.digest);
            assert_eq!(r.outcome, o.outcome);
        }
    }

    #[test]
    fn missing_result_is_a_typed_error() {
        let run = SweepRun {
            jobs_total: 3,
            completed: BTreeMap::from([(0usize, run_serial(&jobs(1)).remove(0))]),
            restored: 0,
            cancelled: false,
            schedule: None,
        };
        match run.into_results() {
            Err(FarmError::MissingResult { index: 1, .. }) => {}
            other => panic!("expected MissingResult, got {other:?}"),
        }
    }
}
