//! Supervision: crash isolation, deterministic retries, quarantine, and
//! cooperative cancellation.
//!
//! [`run_job_supervised`] is the only way the farm executes a job. It wraps
//! the raw [`run_job`] in [`std::panic::catch_unwind`] so a panicking job
//! becomes a typed [`JobOutcome::Panicked`] instead of unwinding through
//! `std::thread::scope` and killing the whole sweep, re-runs unhealthy jobs
//! up to the job's retry bound, and quarantines jobs that stay unhealthy.
//! Because jobs are deterministic, the whole attempt sequence — and
//! therefore the final [`JobResult`] — is a pure function of the
//! [`SimJob`], independent of worker count and scheduling.

use crate::checkpoint::CheckpointCtl;
use crate::job::{run_job_with, JobOutcome, JobResult, SimJob};
use crate::observe::{AttemptSpan, FarmObserver, JobTiming};
use std::any::Any;
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Once};

/// A cooperative cancellation token shared between the farm and its
/// operator (CLI signal timers, tests, embedding services). Cancelling does
/// **not** abort in-flight jobs — workers finish what they started, the
/// journal is flushed, and the sweep exits in a resumable state; workers
/// simply stop taking new jobs.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests graceful shutdown. Idempotent.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// True once [`CancelToken::cancel`] has been called (on any clone).
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// Renders a panic payload: the common `&str`/`String` payloads verbatim,
/// anything else as a fixed placeholder (payloads need not be printable).
fn payload_string(payload: Box<dyn Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => match payload.downcast::<&'static str>() {
            Ok(s) => (*s).to_owned(),
            Err(_) => "<non-string panic payload>".to_owned(),
        },
    }
}

thread_local! {
    /// Armed while this thread runs a supervised attempt: the quiet panic
    /// hook stores the captured backtrace here instead of printing.
    static PANIC_CAPTURE: RefCell<Option<Option<String>>> = const { RefCell::new(None) };
}

/// Installs the farm's process-global quiet panic hook (once, idempotent).
///
/// The default hook prints `thread '...' panicked at ...` plus a backtrace
/// to stderr — with a fleet of workers deliberately absorbing chaos-job
/// panics that interleaves into operator-facing noise for events the farm
/// fully contains. The quiet hook checks a thread-local arm flag: for a
/// supervised attempt it captures the backtrace (honoring `RUST_BACKTRACE`)
/// into the flag for [`JobOutcome::Panicked`] and prints nothing; panics on
/// any *unarmed* thread (real bugs in the farm itself) still reach the
/// previously-installed hook untouched.
fn install_quiet_panic_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let armed = PANIC_CAPTURE.with(|slot| {
                let mut slot = slot.borrow_mut();
                match slot.as_mut() {
                    Some(capture) => {
                        use std::backtrace::{Backtrace, BacktraceStatus};
                        let bt = Backtrace::capture();
                        *capture = (bt.status() == BacktraceStatus::Captured)
                            .then(|| bt.to_string());
                        true
                    }
                    None => false,
                }
            });
            if !armed {
                previous(info);
            }
        }));
    });
}

/// Runs `f` with the quiet panic hook armed for this thread, returning its
/// value or the rendered panic payload plus the backtrace captured at the
/// panic site.
fn quiet_catch<T>(f: impl FnOnce() -> T) -> Result<T, (String, Option<String>)> {
    install_quiet_panic_hook();
    PANIC_CAPTURE.with(|slot| *slot.borrow_mut() = Some(None));
    let result = catch_unwind(AssertUnwindSafe(f));
    let captured = PANIC_CAPTURE.with(|slot| slot.borrow_mut().take()).flatten();
    result.map_err(|payload| (payload_string(payload), captured))
}

/// One crash-isolated attempt: a panic anywhere inside the job runner is
/// caught (silently — see [`install_quiet_panic_hook`]) and reported as
/// [`JobOutcome::Panicked`] with the payload and captured backtrace.
/// `timing` receives the setup/sim/teardown breakdown; a panicking attempt
/// reports zeros.
pub(crate) fn run_attempt(
    job: &SimJob,
    ctl: Option<&mut CheckpointCtl<'_>>,
    mut timing: Option<&mut JobTiming>,
) -> JobResult {
    match quiet_catch(AssertUnwindSafe(|| {
        run_job_with(job, ctl, timing.as_deref_mut())
    })) {
        Ok(result) => result,
        Err((payload, backtrace)) => {
            if let Some(timing) = timing {
                *timing = JobTiming::default();
            }
            JobResult::aborted(job, JobOutcome::Panicked { payload, backtrace })
        }
    }
}

/// The retry/quarantine loop under every supervised path: up to
/// `1 + job.retries` attempts, quarantine once every attempt came back
/// unhealthy. `attempt_fn` must already be crash-isolated. With a `clock`
/// (the farm observer), each attempt gets a phase-timing slot and is
/// recorded as an [`AttemptSpan`] timestamped on that clock; without one,
/// no clock is read and no spans are returned.
pub(crate) fn supervise(
    job: &SimJob,
    clock: Option<&FarmObserver>,
    mut attempt_fn: impl FnMut(Option<&mut JobTiming>) -> JobResult,
) -> (JobResult, Vec<AttemptSpan>) {
    let attempts_allowed = job.retries.saturating_add(1);
    let mut spans = Vec::new();
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        let mut result = match clock {
            None => attempt_fn(None),
            Some(clock) => {
                let start_ns = clock.now_ns();
                let mut timing = JobTiming::default();
                let result = attempt_fn(Some(&mut timing));
                spans.push(AttemptSpan {
                    attempt,
                    start_ns,
                    end_ns: clock.now_ns(),
                    timing,
                    healthy: result.outcome.is_healthy(),
                });
                result
            }
        };
        result.attempts = attempt;
        if result.outcome.is_healthy() {
            return (result, spans);
        }
        if attempt >= attempts_allowed {
            result.outcome = JobOutcome::Quarantined {
                attempts: attempt,
                last: Box::new(result.outcome),
            };
            return (result, spans);
        }
    }
}

/// Runs one job under full supervision: crash isolation, up to
/// `1 + job.retries` deterministic attempts, and quarantine once every
/// attempt came back unhealthy. The returned result carries the attempt
/// count; a quarantined result keeps the last attempt's machine output
/// (cycles, digest, stats) with its outcome wrapped in
/// [`JobOutcome::Quarantined`].
pub fn run_job_supervised(job: &SimJob) -> JobResult {
    run_job_supervised_with(job, None, None).0
}

/// [`run_job_supervised`] as a farm worker runs it in-process: under an
/// optional durable checkpoint controller — every attempt restores from the
/// job's last valid checkpoint (so a retry after a mid-job crash continues
/// from where the machine durably stood, not from cycle 0) and keeps
/// sealing new ones — and, given the farm observer's `clock`, with one
/// [`AttemptSpan`] per attempt.
pub(crate) fn run_job_supervised_with(
    job: &SimJob,
    mut ctl: Option<&mut CheckpointCtl<'_>>,
    clock: Option<&FarmObserver>,
) -> (JobResult, Vec<AttemptSpan>) {
    supervise(job, clock, |timing| run_attempt(job, ctl.as_deref_mut(), timing))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{ModelKind, WorkloadSpec};

    #[test]
    fn cancel_token_propagates_across_clones() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!b.is_cancelled());
        a.cancel();
        assert!(b.is_cancelled());
        a.cancel(); // idempotent
        assert!(a.is_cancelled());
    }

    #[test]
    fn panicking_job_is_caught_and_quarantined() {
        let mut job = SimJob::chaos_panic("boom");
        job.retries = 2;
        let r = run_job_supervised(&job);
        match &r.outcome {
            JobOutcome::Quarantined { attempts, last } => {
                assert_eq!(*attempts, 3);
                match last.as_ref() {
                    JobOutcome::Panicked { payload, .. } => {
                        assert!(payload.contains("chaos:panic"), "{payload}")
                    }
                    other => panic!("expected Panicked, got {other:?}"),
                }
            }
            other => panic!("expected Quarantined, got {other:?}"),
        }
        assert_eq!(r.attempts, 3);
        assert!(!r.is_ok());
    }

    #[test]
    fn healthy_job_takes_one_attempt() {
        let job = SimJob::minirisc_random(1, 32, 10_000);
        let r = run_job_supervised(&job);
        assert_eq!(r.attempts, 1);
        assert!(r.is_ok());
    }

    #[test]
    fn panic_equality_ignores_the_captured_backtrace() {
        let with = JobOutcome::Panicked {
            payload: "boom".into(),
            backtrace: Some("0: frame_at_0x1234".into()),
        };
        let without = JobOutcome::Panicked {
            payload: "boom".into(),
            backtrace: None,
        };
        assert_eq!(with, without, "backtraces are ASLR-dependent diagnostics");
        assert_eq!(with.label(), "panicked: boom", "label excludes the backtrace");
    }

    #[test]
    fn quiet_catch_passes_values_and_payloads_through() {
        assert_eq!(quiet_catch(|| 41 + 1).unwrap(), 42);
        let (payload, _backtrace) =
            quiet_catch(|| -> u32 { panic!("expected-test-panic") }).unwrap_err();
        assert_eq!(payload, "expected-test-panic");
        // The arm flag is disarmed again: a later catch starts clean.
        let (payload, _) = quiet_catch(|| -> u32 { panic!("second") }).unwrap_err();
        assert_eq!(payload, "second");
    }

    #[test]
    fn failed_job_is_retried_then_quarantined_deterministically() {
        let mut job = SimJob::new(
            ModelKind::Sa1100,
            WorkloadSpec::Named("no-such-workload".into()),
            1000,
        );
        job.retries = 1;
        let a = run_job_supervised(&job);
        let b = run_job_supervised(&job);
        assert_eq!(a.outcome, b.outcome);
        assert!(matches!(
            &a.outcome,
            JobOutcome::Quarantined { attempts: 2, last } if matches!(last.as_ref(), JobOutcome::Failed(_))
        ));
    }
}
