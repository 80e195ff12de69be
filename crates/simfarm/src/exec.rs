//! Opt-in subprocess isolation: each job attempt runs in a re-exec'd child
//! process under resource budgets, so *hard* crashes — SIGSEGV, the
//! allocator aborting on OOM, a runaway loop burning its CPU budget, an
//! operator's `kill -9` — become typed [`JobOutcome`]s feeding the normal
//! retry/quarantine machinery instead of dead worker threads.
//!
//! ## Protocol
//!
//! The parent spawns its own binary as `simfarm --run-one <manifest>
//! <index>` through a `sh` shim that applies `ulimit -v` (address space)
//! and `ulimit -t` (CPU seconds) before `exec`ing the child. The child
//! runs exactly **one** attempt of the job — the retry/quarantine loop
//! stays in the parent, so the attempt sequence is identical to in-process
//! supervision — and writes one result frame to stdout, framed exactly
//! like a sweep journal record. A child killed mid-write leaves a torn
//! tail, tolerated exactly like a torn journal. Mid-job progress travels
//! only through the job's checkpoint file
//! ([`crate::SimJob::checkpoint_every`]), which the child seals on cadence
//! and the next attempt restores from.
//!
//! ## Outcome mapping
//!
//! * clean exit + final result frame → that [`JobResult`], verbatim;
//! * exit by signal (resource budget, crash, `kill -9`) →
//!   [`JobOutcome::Killed`] with the signal number;
//! * wall-clock overrun past the hard kill bound (twice the job's
//!   cooperative [`crate::SimJob::deadline_ms`], plus grace) → the parent
//!   SIGKILLs the child and reports [`JobOutcome::DeadlineExceeded`] at the
//!   cycle of the job's checkpoint file (0 without one) — the deadline is
//!   now *enforced*, not just requested;
//! * a requested budget that `ulimit` refused (the shim exits with a
//!   reserved code and never starts the child) → [`JobOutcome::Failed`]
//!   naming the budget;
//! * anything else (spawn failure, exit without a result frame) →
//!   [`JobOutcome::Failed`].
//!
//! In-process execution remains the default; a sweep's canonical report is
//! byte-identical across isolation modes (crash-free sweeps produce the
//! same results, and kill-then-retry provenance is scrubbed from canonical
//! renderings).

use crate::checkpoint::CheckpointCtl;
use crate::job::{JobOutcome, JobResult, SimJob};
use crate::journal;
use crate::observe::{AttemptSpan, FarmObserver};
use crate::supervise::{run_attempt, supervise};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

/// Extra wall-clock grace (ms) past `2 × deadline_ms` before the parent
/// hard-kills a child: covers process spawn, manifest re-parse and
/// checkpoint restore, so the cooperative in-child deadline always gets a
/// chance to fire first and report its typed outcome.
const HARD_KILL_GRACE_MS: u64 = 2_000;

/// How a worker executes its jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IsolationMode {
    /// Jobs run on the worker thread itself (the default): fastest, with
    /// soft-failure isolation only (panics caught, stalls budgeted,
    /// deadlines cooperative).
    #[default]
    InProcess,
    /// Every job attempt runs in a re-exec'd subprocess under resource
    /// budgets; hard crashes become [`JobOutcome::Killed`].
    Process,
}

impl IsolationMode {
    /// Parses the CLI/manifest spelling (`"in-process"` or `"process"`).
    pub fn parse(s: &str) -> Option<IsolationMode> {
        match s {
            "in-process" => Some(IsolationMode::InProcess),
            "process" => Some(IsolationMode::Process),
            _ => None,
        }
    }

    /// The canonical spelling [`IsolationMode::parse`] accepts.
    pub fn name(self) -> &'static str {
        match self {
            IsolationMode::InProcess => "in-process",
            IsolationMode::Process => "process",
        }
    }
}

/// Everything the parent needs to run jobs in isolated subprocesses: the
/// binary to re-exec (it must understand `--run-one`), the manifest file
/// the child re-derives the job list from, and the optional resource
/// budgets applied via `ulimit` before the child starts.
#[derive(Debug, Clone)]
pub struct ProcessIsolation {
    /// Binary to spawn (normally [`std::env::current_exe`]).
    pub exe: PathBuf,
    /// Sweep manifest the child loads job `<index>` from; must produce the
    /// same job list the parent is sweeping.
    pub manifest: PathBuf,
    /// Address-space budget in MiB (`ulimit -v`); an allocation beyond it
    /// aborts the child, surfacing as [`JobOutcome::Killed`].
    pub memory_limit_mb: Option<u64>,
    /// CPU budget in seconds (`ulimit -t`); a child burning past it is
    /// killed by the kernel, surfacing as [`JobOutcome::Killed`].
    pub cpu_limit_secs: Option<u64>,
}

impl ProcessIsolation {
    /// Isolation via the currently running binary and the given manifest,
    /// with no resource budgets.
    ///
    /// # Errors
    /// Propagates [`std::env::current_exe`]'s failure.
    pub fn current_exe(manifest: impl Into<PathBuf>) -> io::Result<ProcessIsolation> {
        Ok(ProcessIsolation {
            exe: std::env::current_exe()?,
            manifest: manifest.into(),
            memory_limit_mb: None,
            cpu_limit_secs: None,
        })
    }
}

/// The exit signal of a child, when it was killed by one.
#[cfg(unix)]
fn exit_signal(status: &ExitStatus) -> Option<i32> {
    use std::os::unix::process::ExitStatusExt;
    status.signal()
}

#[cfg(not(unix))]
fn exit_signal(_status: &ExitStatus) -> Option<i32> {
    None
}

/// Exit codes the spawn shim reserves for a requested budget that `ulimit`
/// refused to apply: the child is never started, so a budget can fail but
/// never be silently dropped.
const MEMORY_BUDGET_EXIT: i32 = 121;
const CPU_BUDGET_EXIT: i32 = 122;

/// The `sh` shim that applies the address-space (`mem_kb`, `ulimit -v`) and
/// CPU (`cpu_secs`, `ulimit -t`) budgets and then `exec`s the arguments
/// appended to the returned command. An empty budget is not applied; one
/// that `ulimit` refuses exits with its reserved code instead of running
/// the child unbounded.
fn budget_shim(mem_kb: &str, cpu_secs: &str) -> Command {
    let mut cmd = Command::new("sh");
    cmd.arg("-c")
        .arg(format!(
            "[ -z \"$1\" ] || ulimit -v \"$1\" 2>/dev/null || exit {MEMORY_BUDGET_EXIT}; \
             [ -z \"$2\" ] || ulimit -t \"$2\" 2>/dev/null || exit {CPU_BUDGET_EXIT}; \
             shift 2; exec \"$@\""
        ))
        .arg("sh")
        .arg(mem_kb)
        .arg(cpu_secs);
    cmd
}

/// The typed failure for a child the shim refused to start because a
/// budget could not be applied, if that is how it exited.
fn unapplied_budget(status: &ExitStatus) -> Option<JobOutcome> {
    let budget = match status.code() {
        Some(MEMORY_BUDGET_EXIT) => "memory (ulimit -v)",
        Some(CPU_BUDGET_EXIT) => "cpu (ulimit -t)",
        _ => return None,
    };
    Some(JobOutcome::Failed(format!(
        "isolated worker not started: its {budget} budget could not be applied"
    )))
}

/// Spawns one child attempt and waits for it, hard-killing on wall-clock
/// overrun. Returns the exit status, the raw stdout bytes, and whether the
/// parent had to kill the child.
fn spawn_and_collect(
    iso: &ProcessIsolation,
    job: &SimJob,
    index: usize,
    ckpt_dir: Option<&Path>,
) -> io::Result<(ExitStatus, Vec<u8>, bool)> {
    let mem_kb = iso
        .memory_limit_mb
        .map_or_else(String::new, |mb| mb.saturating_mul(1024).to_string());
    let cpu_secs = iso
        .cpu_limit_secs
        .map_or_else(String::new, |s| s.to_string());
    let mut cmd = budget_shim(&mem_kb, &cpu_secs);
    cmd.arg(&iso.exe)
        .arg("--run-one")
        .arg(&iso.manifest)
        .arg(index.to_string());
    if let Some(dir) = ckpt_dir {
        cmd.arg("--checkpoint-dir").arg(dir);
    }
    cmd.stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    let mut child = cmd.spawn()?;

    // Drain stdout on a side thread so a chatty child never deadlocks
    // against a full pipe while the parent only polls for exit.
    let mut out = child.stdout.take().expect("stdout was piped");
    let reader = std::thread::spawn(move || {
        let mut bytes = Vec::new();
        let _ = out.read_to_end(&mut bytes);
        bytes
    });

    let hard_limit = job.deadline_ms.map(|ms| {
        Duration::from_millis(ms.saturating_mul(2).saturating_add(HARD_KILL_GRACE_MS))
    });
    let started = Instant::now();
    let mut hard_killed = false;
    let status = loop {
        if let Some(status) = child.try_wait()? {
            break status;
        }
        if let Some(limit) = hard_limit {
            if !hard_killed && started.elapsed() >= limit {
                hard_killed = true;
                let _ = child.kill();
            }
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    let stdout = reader.join().unwrap_or_default();
    Ok((status, stdout, hard_killed))
}

/// One subprocess-isolated attempt of job `index`: spawn, budget, collect,
/// and map the exit to a typed [`JobResult`] (see the module docs for the
/// mapping).
pub(crate) fn run_child_attempt(
    iso: &ProcessIsolation,
    jobs: &[SimJob],
    index: usize,
    ckpt_dir: Option<&Path>,
) -> JobResult {
    let job = &jobs[index];
    let (status, stdout, hard_killed) = match spawn_and_collect(iso, job, index, ckpt_dir) {
        Ok(collected) => collected,
        Err(e) => {
            return JobResult::aborted(
                job,
                JobOutcome::Failed(format!("isolated worker spawn failed: {e}")),
            )
        }
    };

    if hard_killed {
        // The furthest the job provably got is its last durable checkpoint.
        let cycles = ckpt_dir
            .and_then(|dir| CheckpointCtl::new(job, index, dir))
            .and_then(|ctl| ctl.load())
            .map_or(0, |ckpt| ckpt.cycle);
        let mut result = JobResult::aborted(
            job,
            JobOutcome::DeadlineExceeded {
                cycles,
                deadline_ms: job.deadline_ms.unwrap_or(0),
            },
        );
        result.cycles = cycles;
        return result;
    }
    if let Some(signal) = exit_signal(&status) {
        return JobResult::aborted(job, JobOutcome::Killed { signal });
    }
    if let Some(outcome) = unapplied_budget(&status) {
        return JobResult::aborted(job, outcome);
    }
    // A frame for some other job is ignored, never adopted.
    let final_result = journal::parse_record_stream(&stdout, jobs)
        .ok()
        .and_then(|mut results| results.remove(&index));
    match final_result {
        Some(result) => result,
        None => JobResult::aborted(
            job,
            JobOutcome::Failed(format!(
                "isolated worker exited ({status}) without reporting a result"
            )),
        ),
    }
}

/// The full supervised run of job `index` with subprocess isolation: the
/// in-parent retry/quarantine loop over [`run_child_attempt`]s. Each retry
/// spawns a fresh child, which restores from the job's last durable
/// checkpoint — so a child killed mid-job resumes, it does not start over.
/// Given the farm observer's `clock`, each spawned child is recorded as an
/// [`AttemptSpan`]; its setup/simulate/teardown breakdown lives inside the
/// child and is not reported back, so the span's [`crate::JobTiming`] is
/// zero.
pub(crate) fn run_child_supervised(
    iso: &ProcessIsolation,
    jobs: &[SimJob],
    index: usize,
    ckpt_dir: Option<&Path>,
    clock: Option<&FarmObserver>,
) -> (JobResult, Vec<AttemptSpan>) {
    supervise(&jobs[index], clock, |_| {
        run_child_attempt(iso, jobs, index, ckpt_dir)
    })
}

// ---------------------------------------------------------------------------
// Child side
// ---------------------------------------------------------------------------

fn run_one(args: &[String]) -> Result<(), String> {
    const USAGE: &str = "usage: simfarm --run-one <manifest> <index> [--checkpoint-dir <dir>]";
    let mut manifest_path: Option<&str> = None;
    let mut index: Option<usize> = None;
    let mut ckpt_dir: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--checkpoint-dir" => {
                ckpt_dir = Some(PathBuf::from(
                    it.next().ok_or("--checkpoint-dir needs a path")?,
                ));
            }
            other if manifest_path.is_none() => manifest_path = Some(other),
            other if index.is_none() => {
                index = Some(
                    other
                        .parse::<usize>()
                        .map_err(|_| format!("bad job index `{other}`"))?,
                );
            }
            other => return Err(format!("unexpected argument `{other}`\n{USAGE}")),
        }
    }
    let manifest_path = manifest_path.ok_or(USAGE)?;
    let index = index.ok_or(USAGE)?;
    let text = std::fs::read_to_string(manifest_path)
        .map_err(|e| format!("{manifest_path}: {e}"))?;
    let manifest = crate::manifest::parse_manifest(&text).map_err(|e| e.to_string())?;
    let job = manifest.jobs.get(index).ok_or_else(|| {
        format!(
            "job index {index} out of range ({} jobs in {manifest_path})",
            manifest.jobs.len()
        )
    })?;

    let mut ctl = ckpt_dir
        .as_deref()
        .and_then(|dir| CheckpointCtl::new(job, index, dir));
    let result = run_attempt(job, ctl.as_mut(), None);

    let frame = journal::record_bytes(index, &result).map_err(|e| e.to_string())?;
    let mut stdout = io::stdout().lock();
    stdout
        .write_all(&frame)
        .and_then(|()| stdout.flush())
        .map_err(|e| e.to_string())?;
    Ok(())
}

/// The `simfarm --run-one` entry point: runs exactly one attempt of one
/// manifest job, speaking the result protocol on stdout (see the module
/// docs). Returns the process exit code — `0` whenever the attempt itself
/// completed, healthy or not (unhealthy outcomes travel in-band; a nonzero
/// exit means the *harness* failed, e.g. a missing manifest).
pub fn run_one_main(args: &[String]) -> i32 {
    match run_one(args) {
        Ok(()) => 0,
        Err(message) => {
            eprintln!("simfarm --run-one: {message}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isolation_mode_spellings_round_trip() {
        for mode in [IsolationMode::InProcess, IsolationMode::Process] {
            assert_eq!(IsolationMode::parse(mode.name()), Some(mode));
        }
        assert_eq!(IsolationMode::parse("container"), None);
        assert_eq!(IsolationMode::default(), IsolationMode::InProcess);
    }

    #[test]
    fn run_one_rejects_bad_invocations() {
        assert_eq!(run_one_main(&[]), 2, "missing arguments");
        assert_eq!(
            run_one_main(&["/no/such/manifest.json".into(), "0".into()]),
            2,
            "missing manifest file"
        );
        assert_eq!(
            run_one_main(&["m.json".into(), "not-a-number".into()]),
            2,
            "bad index"
        );
    }

    #[test]
    fn a_budget_the_shell_rejects_fails_instead_of_running_unbounded() {
        let run = |mem_kb: &str, cpu_secs: &str| {
            budget_shim(mem_kb, cpu_secs)
                .arg("true")
                .status()
                .expect("sh spawns")
        };
        let status = run("not-a-number", "");
        assert_eq!(status.code(), Some(MEMORY_BUDGET_EXIT));
        assert!(
            matches!(unapplied_budget(&status), Some(JobOutcome::Failed(m)) if m.contains("memory")),
            "{status}"
        );
        let status = run("", "-1");
        assert_eq!(status.code(), Some(CPU_BUDGET_EXIT));
        assert!(
            matches!(unapplied_budget(&status), Some(JobOutcome::Failed(m)) if m.contains("cpu")),
            "{status}"
        );
        // No budget requested: nothing is applied and the child runs.
        let status = run("", "");
        assert!(status.success(), "{status}");
        assert!(unapplied_budget(&status).is_none());
    }

    #[test]
    fn spawn_failure_is_a_typed_failed_outcome_not_a_crash() {
        let jobs = vec![SimJob::minirisc_random(0, 32, 1_000)];
        let iso = ProcessIsolation {
            exe: PathBuf::from("/no/such/binary"),
            manifest: PathBuf::from("/no/such/manifest.json"),
            memory_limit_mb: None,
            cpu_limit_secs: None,
        };
        // `sh` itself spawns fine and then fails to exec the missing
        // binary, so this surfaces as a child that exits without a result.
        let result = run_child_attempt(&iso, &jobs, 0, None);
        assert!(
            matches!(&result.outcome, JobOutcome::Failed(_)),
            "{:?}",
            result.outcome
        );
    }

    /// A child that outlives the hard kill bound is SIGKILLed, and the
    /// attempt reports the cycle of the job's checkpoint file — the furthest
    /// the job durably got — or 0 without one. The stand-in child is a
    /// script that `exec`s `sleep`, so the kill closes the stdout pipe.
    #[cfg(unix)]
    #[test]
    fn a_hard_killed_child_reports_its_checkpoint_cycle() {
        use crate::checkpoint::{self, JobCheckpoint};
        use std::os::unix::fs::PermissionsExt;

        let dir = std::env::temp_dir().join(format!("simfarm-hard-kill-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let exe = dir.join("sleeper.sh");
        std::fs::write(&exe, "#!/bin/sh\nexec sleep 30\n").unwrap();
        std::fs::set_permissions(&exe, std::fs::Permissions::from_mode(0o755)).unwrap();
        let iso = ProcessIsolation {
            exe,
            manifest: dir.join("unused.json"),
            memory_limit_mb: None,
            cpu_limit_secs: None,
        };
        // Hard limit: 2 × 1 ms + grace, about 2 s.
        let mut job = SimJob::minirisc_random(0, 32, 1_000_000);
        job.deadline_ms = Some(1);
        job.checkpoint_every = 1_000;
        let jobs = vec![job];
        let file = checkpoint::encode(
            checkpoint::job_checkpoint_digest(&jobs[0]),
            &JobCheckpoint {
                cycle: 4_096,
                trace_hash: 0xfeed,
                trace_total: 77,
                machine: Vec::new(),
            },
        );
        let path = checkpoint::checkpoint_path(&dir, 0);
        checkpoint::store(&path, &file).unwrap();

        let result = run_child_attempt(&iso, &jobs, 0, Some(&dir));
        assert_eq!(
            result.outcome,
            JobOutcome::DeadlineExceeded {
                cycles: 4_096,
                deadline_ms: 1
            }
        );
        assert_eq!(result.cycles, 4_096);

        std::fs::remove_file(&path).unwrap();
        let result = run_child_attempt(&iso, &jobs, 0, Some(&dir));
        assert_eq!(
            result.outcome,
            JobOutcome::DeadlineExceeded {
                cycles: 0,
                deadline_ms: 1
            }
        );
        assert_eq!(result.cycles, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
