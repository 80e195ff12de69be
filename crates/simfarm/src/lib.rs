//! # simfarm — a supervised, sharded parallel simulation farm over the OSM models
//!
//! Every OSM machine instance is fully independent: a simulation *job*
//! (model × workload × config × seed × observability flags) owns its whole
//! [`osm_core::Machine`], so a sweep of jobs shards perfectly across
//! threads. This crate provides:
//!
//! * [`SimJob`] — one self-contained simulation over any of the four machine
//!   models (SA-1100 OSM, PPC-750 OSM, MiniRISC ISS, VLIW OSM), carrying its
//!   own supervision bounds (stall budget, wall deadline, retry count);
//! * [`run_parallel`] / [`run_farm`] — a work-stealing `std::thread` farm
//!   executing a job list across worker threads under full supervision:
//!   panics are caught and typed ([`JobOutcome::Panicked`]), wedged jobs are
//!   diagnosed by the stall watchdog ([`JobOutcome::Stalled`]), overruns hit
//!   wall deadlines ([`JobOutcome::DeadlineExceeded`]), and persistently
//!   unhealthy jobs are retried then quarantined
//!   ([`JobOutcome::Quarantined`]) — one poison job never takes down a
//!   sweep;
//! * [`run_serial`] — the single-thread oracle the farm is checked against;
//! * [`JournalWriter`] / [`read_journal`] — an append-only, digest-checked
//!   sweep journal: each completed job is recorded atomically, so a killed
//!   sweep resumes (`simfarm --resume`) skipping everything already done,
//!   tolerating torn trailing writes and rejecting corrupt records;
//! * [`CancelToken`] — cooperative cancellation: workers finish in-flight
//!   jobs, the journal is flushed, and the sweep exits resumable;
//! * [`CheckpointCtl`] — durable mid-job checkpoints: jobs with
//!   [`SimJob::checkpoint_every`] set seal a versioned, digest-checked
//!   snapshot every N cycles (temp file + fsync + atomic rename) — the
//!   sweep's only record of mid-job progress — and restore after a crash
//!   to finish with a digest identical to an uninterrupted run's;
//! * [`ProcessIsolation`] — opt-in hard-crash isolation: every job attempt
//!   runs in a re-exec'd `simfarm --run-one` child under optional `ulimit`
//!   memory/CPU budgets, so SIGKILL/OOM/aborts surface as the typed
//!   [`JobOutcome::Killed`] and feed the ordinary retry/quarantine ladder
//!   instead of taking the coordinator down;
//! * [`FarmReport`] — deterministic aggregation: per-job FNV trace digests,
//!   [`osm_core::Stats`] and [`JobMetrics`] merged in **job-index order**,
//!   regardless of completion order, plus a fleet stall-cause roll-up
//!   folded from the per-job metrics;
//! * [`FarmObserver`] / [`FarmSchedule`] — opt-in farm-scope observability:
//!   per-job lifecycle spans (worker, steal, attempts, setup/simulate/
//!   teardown split) and per-worker telemetry, exportable as a
//!   Chrome/Perfetto trace ([`FarmSchedule::trace_json`]) and fleet timing
//!   JSON ([`FarmReport::timing_json`]) — all explicitly **non-canonical**,
//!   so canonical renderings stay byte-identical with it on or off;
//! * [`ProgressMeter`] — throttled live progress line, heartbeat snapshots
//!   and contextual farm notices, all on stderr.
//!
//! ## The determinism argument
//!
//! Sharding is at *job* granularity: a job's machine is constructed, run and
//! torn down entirely on one worker thread, and no two jobs share any
//! mutable state. Token transactions therefore never interleave across
//! threads — each director runs its sequential Fig. 3 schedule exactly as it
//! would alone — so every per-job trace digest is bit-identical to the same
//! job's serial-run digest, and the canonical report rendering
//! ([`FarmReport::canonical_text`]) is byte-identical however the jobs were
//! scheduled — across worker counts, and across killed-and-resumed vs
//! uninterrupted sweeps. Supervision preserves this: retries re-run the
//! same deterministic job, quarantine decisions depend only on outcomes,
//! and the journal stores results losslessly. The single documented
//! exception is the wall-clock deadline ([`SimJob::deadline_ms`]), which is
//! host-speed dependent by nature. The `simfarm_smoke`, `chaos_smoke` and
//! `crash_smoke` binaries enforce these equivalences in CI — the last one
//! under SIGKILL of a worker child mid-job and of the coordinator
//! mid-sweep.
//!
//! ## Quickstart
//!
//! ```
//! use simfarm::{run_parallel, run_serial, FarmReport, SimJob};
//!
//! let jobs: Vec<SimJob> = (0..4)
//!     .map(|i| SimJob::minirisc_random(i, 64, 20_000))
//!     .collect();
//! let serial = run_serial(&jobs);
//! let parallel = run_parallel(&jobs, 4).unwrap();
//! for (s, p) in serial.iter().zip(&parallel) {
//!     assert_eq!(s.digest, p.digest);
//! }
//! let report = FarmReport::consolidate(parallel, 4, 0.0);
//! assert_eq!(report.jobs.len(), 4);
//! ```

#![warn(missing_docs)]

pub mod checkpoint;
mod error;
pub mod exec;
mod job;
pub mod journal;
mod manifest;
pub mod observe;
mod progress;
mod queue;
mod report;
mod supervise;

pub use checkpoint::{CheckpointCtl, JobCheckpoint};
pub use error::{FarmError, JournalError};
pub use exec::{IsolationMode, ProcessIsolation};
pub use job::{
    run_job, run_job_with, JobMetrics, JobOutcome, JobResult, ModelKind, SimJob, StallSummary,
    WorkloadSpec, DEFAULT_RETRIES, DEFAULT_STALL_BUDGET,
};
pub use journal::{read_journal, JournalWriter};
pub use manifest::{parse_manifest, Manifest, ManifestError};
pub use observe::{
    AttemptSpan, FarmObserver, FarmSchedule, JobSpan, JobTiming, WorkerTelemetry,
};
pub use progress::ProgressMeter;
pub use queue::{run_farm, run_parallel, run_serial, FarmOptions, SweepRun};
pub use report::{FarmReport, FleetStallCause};
pub use supervise::{run_job_supervised, CancelToken};
