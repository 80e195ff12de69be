//! The job abstraction: one self-contained simulation, runnable on any
//! thread, producing a deterministic [`JobResult`].
//!
//! Supervision hooks live here too: every job carries a stall budget
//! (armed on the model's PR-1 watchdog, on by default), an optional
//! wall-clock deadline enforced cooperatively between run chunks, and a
//! retry bound used by [`crate::run_job_supervised`]. Everything except the
//! wall-clock deadline is a pure function of the [`SimJob`], which is what
//! the farm's determinism-under-failure guarantee rests on.

use crate::checkpoint::{CheckpointCtl, JobCheckpoint};
use crate::observe::JobTiming;
use crate::report::FleetStallCause;
use minirisc::{Iss, SparseMemory};
use osm_core::persist::{fnv, fnv_mix, FNV_OFFSET};
use osm_core::{
    FaultHandle, FaultInjector, FaultPlan, FaultStats, HardwareLayer, InertBehavior, Machine,
    ManagerId, MetricsReport, ModelError, SchedulerMode, StallKind, Stats, Trace,
};
use ppc750::{PpcConfig, PpcOsmSim, PpcShared};
use sa1100::{SaConfig, SaOsmSim, SaShared};
use std::fmt;
use std::time::{Duration, Instant};
use vliw::{ilp_loop, schedule, VliwConfig, VliwShared, VliwSim};
use workloads::{kernels40, mediabench, random_program, specint_mix, Workload};

/// Default stall budget armed on every OSM job: comfortably above any
/// natural no-progress stretch of the bundled models (worst observed is a
/// few hundred cycles under aggressive blackhole faults), far below typical
/// cycle budgets, so a wedged or livelocked job is diagnosed instead of
/// pinning a worker until its whole cycle budget drains.
pub const DEFAULT_STALL_BUDGET: u64 = 25_000;

/// Default retry bound: one deterministic re-run before quarantine.
pub const DEFAULT_RETRIES: u32 = 1;

/// Cycles run between cooperative deadline/cancellation checks.
const DEADLINE_CHUNK: u64 = 2048;

/// Which machine model a [`SimJob`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// The SA-1100 StrongARM OSM pipeline model.
    Sa1100,
    /// The PPC-750 out-of-order superscalar OSM model.
    Ppc750,
    /// The MiniRISC interpreted instruction-set simulator (no OSM layer).
    MiniRiscIss,
    /// The VLIW OSM model.
    Vliw,
    /// A machine synthesized on the fly from an inline ADL description
    /// carried by [`WorkloadSpec::AdlMachine`]. This is how generated
    /// machines (the `osm-fuzz` differential fuzzer, corpus replays) ride
    /// the farm's serial/parallel matrix as first-class jobs.
    Adl,
}

impl ModelKind {
    /// Manifest spelling of the model name.
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::Sa1100 => "sa1100",
            ModelKind::Ppc750 => "ppc750",
            ModelKind::MiniRiscIss => "minirisc",
            ModelKind::Vliw => "vliw",
            ModelKind::Adl => "adl",
        }
    }

    /// Parses a manifest model name.
    pub fn parse(s: &str) -> Option<ModelKind> {
        match s {
            "sa1100" => Some(ModelKind::Sa1100),
            "ppc750" => Some(ModelKind::Ppc750),
            "minirisc" => Some(ModelKind::MiniRiscIss),
            "vliw" => Some(ModelKind::Vliw),
            "adl" => Some(ModelKind::Adl),
            _ => None,
        }
    }
}

impl fmt::Display for ModelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What program a [`SimJob`] runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkloadSpec {
    /// A named workload from the `workloads` crate (`"specint"`, a
    /// mediabench name, or a `"k40/..."` kernel).
    Named(String),
    /// A seeded random MiniRISC program (`"random:<block_len>"` in
    /// manifests); the generator seed is the job's `seed`.
    Random {
        /// Straight-line block length handed to the generator.
        block_len: usize,
    },
    /// A synthetic VLIW countdown loop with a body of independent adds,
    /// [`vliw::ilp_loop`] (`"ilp:<iters>:<body>"` in manifests). The only workload form the
    /// VLIW model accepts (it executes bundled IR, not MiniRISC assembly).
    Ilp {
        /// Loop iterations.
        iters: i32,
        /// Independent operations per iteration.
        body: usize,
    },
    /// A job that panics the moment it runs (`"chaos:panic"` in manifests).
    /// Exists so chaos manifests and the supervision tests can exercise
    /// crash isolation deterministically; [`run_job`] panics with a fixed,
    /// job-named payload, and the supervised runner turns that into
    /// [`JobOutcome::Panicked`].
    ChaosPanic,
    /// An inline ADL machine description for the [`ModelKind::Adl`] model:
    /// the source text is parsed and synthesized at run time, `osms`
    /// instances are spawned round-robin across the declared classes (with
    /// the inert behavior — the workload *is* the machine structure), and
    /// the machine is driven to the job's cycle budget. Constructed
    /// programmatically (by the `osm-fuzz` harness and corpus replays);
    /// there is no manifest spelling carrying inline source, so
    /// [`WorkloadSpec::parse`] never produces it and [`WorkloadSpec::spelling`]
    /// renders a digest-based label (`adl:<osms>@<source-digest>`) that
    /// keeps sweep journals bound to the exact source text.
    AdlMachine {
        /// The machine description (ADL source text).
        source: String,
        /// How many OSM instances to spawn (round-robin over classes).
        osms: u32,
    },
}

impl WorkloadSpec {
    /// Parses the manifest spelling (see the variant docs).
    pub fn parse(s: &str) -> Result<WorkloadSpec, String> {
        if s == "chaos:panic" {
            return Ok(WorkloadSpec::ChaosPanic);
        }
        if let Some(rest) = s.strip_prefix("random:") {
            let block_len = rest
                .parse::<usize>()
                .map_err(|_| format!("bad random workload `{s}`: expected `random:<len>`"))?;
            return Ok(WorkloadSpec::Random { block_len });
        }
        if let Some(rest) = s.strip_prefix("ilp:") {
            let mut parts = rest.splitn(2, ':');
            let parse = |p: Option<&str>| p.and_then(|v| v.parse::<i64>().ok());
            match (parse(parts.next()), parse(parts.next())) {
                (Some(iters), Some(body)) if iters > 0 && body > 0 => {
                    return Ok(WorkloadSpec::Ilp {
                        iters: iters as i32,
                        body: body as usize,
                    });
                }
                _ => return Err(format!("bad ilp workload `{s}`: expected `ilp:<iters>:<body>`")),
            }
        }
        Ok(WorkloadSpec::Named(s.to_owned()))
    }

    /// The manifest spelling. [`WorkloadSpec::AdlMachine`] has no inline
    /// manifest form; its spelling is a stable digest-based label binding
    /// journals and reports to the exact source text.
    pub fn spelling(&self) -> String {
        match self {
            WorkloadSpec::Named(n) => n.clone(),
            WorkloadSpec::Random { block_len } => format!("random:{block_len}"),
            WorkloadSpec::Ilp { iters, body } => format!("ilp:{iters}:{body}"),
            WorkloadSpec::ChaosPanic => "chaos:panic".to_owned(),
            WorkloadSpec::AdlMachine { source, osms } => {
                format!("adl:{osms}@{:016x}", fnv(source.as_bytes()))
            }
        }
    }

    fn resolve(&self, seed: u64) -> Result<Workload, String> {
        match self {
            WorkloadSpec::Random { block_len } => Ok(random_program(seed, *block_len)),
            WorkloadSpec::Ilp { .. } => {
                Err("ilp workloads only run on the vliw model".to_owned())
            }
            WorkloadSpec::ChaosPanic => {
                Err("chaos:panic never resolves to a program".to_owned())
            }
            WorkloadSpec::AdlMachine { .. } => {
                Err("adl workloads only run on the adl model".to_owned())
            }
            WorkloadSpec::Named(name) => {
                if name == "specint" {
                    return Ok(specint_mix());
                }
                mediabench()
                    .into_iter()
                    .chain(kernels40())
                    .find(|w| w.name == *name)
                    .ok_or_else(|| format!("unknown workload `{name}`"))
            }
        }
    }
}

/// One self-contained simulation: model × workload × config × seed ×
/// observability flags × supervision bounds. Jobs are `Send + Sync` (plain
/// data) and [`run_job`] builds, runs and tears down the whole machine on
/// the calling thread, which is what makes job-level sharding deterministic.
#[derive(Debug, Clone)]
pub struct SimJob {
    /// Human-readable job label (defaults to `model/workload#index` when
    /// built from a manifest).
    pub name: String,
    /// Which machine model to run.
    pub model: ModelKind,
    /// What program to run.
    pub workload: WorkloadSpec,
    /// Seed for seeded workloads (`random:`) — also mixed into the job name
    /// by the manifest loader so sweeps over seeds stay distinguishable.
    pub seed: u64,
    /// Cycle (ISS: instruction) budget.
    pub max_cycles: u64,
    /// Director scheduling mode (OSM models; ignored by the ISS).
    pub scheduler: SchedulerMode,
    /// Enable metrics and stall attribution and attach what the farm keeps
    /// of them, [`JobMetrics`], to the result. No event log is recorded:
    /// the result carries only that record.
    pub observability: bool,
    /// Optional fault plan, installed in front of the model's fetch-side
    /// manager (SA-1100: fetch stage; PPC-750: fetch queue; VLIW: fetch
    /// stage; ignored by the ISS, which has no token managers).
    pub faults: Option<FaultPlan>,
    /// Stall budget armed on the model's watchdog
    /// ([`osm_core::Machine::set_stall_limit`]): a livelocked or wedged job
    /// yields [`JobOutcome::Stalled`] after this many cycles without
    /// progress instead of pinning a worker for its whole cycle budget.
    /// `Some(`[`DEFAULT_STALL_BUDGET`]`)` by default; `None` disarms
    /// (manifest spelling `"stall_budget": 0`). Ignored by the ISS, whose
    /// steps always retire an instruction.
    pub stall_budget: Option<u64>,
    /// Optional wall-clock deadline in milliseconds, checked cooperatively
    /// every few thousand cycles; an overrunning job yields
    /// [`JobOutcome::DeadlineExceeded`]. Unlike every other field this
    /// depends on host speed, so deadline outcomes are *not* deterministic —
    /// keep deadline jobs out of byte-identity gates.
    pub deadline_ms: Option<u64>,
    /// How many times [`crate::run_job_supervised`] re-runs an unhealthy job
    /// before quarantining it ([`DEFAULT_RETRIES`] by default). Jobs are
    /// deterministic, so retries only help against environmental flakes
    /// (and bound the cost of poison jobs either way).
    pub retries: u32,
    /// Durable mid-job checkpoint cadence in cycles (ISS: instructions);
    /// `0` (the default) disables checkpointing. When set and the farm runs
    /// with a checkpoint directory, the job's machine state is sealed to
    /// disk every `checkpoint_every` cycles
    /// ([`crate::checkpoint`]), and an interrupted job restarts from its
    /// last checkpoint with a digest identical to an uninterrupted run.
    /// Like the wall deadline this is *operational*, not behavioral — it is
    /// deliberately excluded from [`crate::journal::jobs_digest`], so
    /// changing the cadence neither orphans a journal nor a checkpoint.
    /// Ignored (with a warning at manifest level) for observability jobs:
    /// metrics and stall attribution are not part of a machine checkpoint.
    pub checkpoint_every: u64,
}

impl SimJob {
    /// A plain job with no observability and no faults; stall watchdog
    /// armed at [`DEFAULT_STALL_BUDGET`], no wall deadline,
    /// [`DEFAULT_RETRIES`] retries.
    pub fn new(model: ModelKind, workload: WorkloadSpec, max_cycles: u64) -> SimJob {
        SimJob {
            name: format!("{model}/{}", workload.spelling()),
            model,
            workload,
            seed: 0,
            max_cycles,
            scheduler: SchedulerMode::Fast,
            observability: false,
            faults: None,
            stall_budget: Some(DEFAULT_STALL_BUDGET),
            deadline_ms: None,
            retries: DEFAULT_RETRIES,
            checkpoint_every: 0,
        }
    }

    /// Convenience: a seeded random-program ISS job (used in doctests and
    /// smoke checks).
    pub fn minirisc_random(seed: u64, block_len: usize, max_steps: u64) -> SimJob {
        let mut job = SimJob::new(
            ModelKind::MiniRiscIss,
            WorkloadSpec::Random { block_len },
            max_steps,
        );
        job.seed = seed;
        job.name = format!("{}#{}", job.name, seed);
        job
    }

    /// Convenience: a job whose only act is to panic (crash-isolation
    /// tests and chaos manifests).
    pub fn chaos_panic(name: impl Into<String>) -> SimJob {
        let mut job = SimJob::new(ModelKind::MiniRiscIss, WorkloadSpec::ChaosPanic, 1);
        job.name = name.into();
        job
    }

    /// Convenience: an inline-ADL machine job spawning `osms` operation
    /// instances (round-robin over the declared classes). This is how the
    /// model fuzzer rides the farm's serial/parallel matrix.
    pub fn adl(
        name: impl Into<String>,
        source: impl Into<String>,
        osms: u32,
        max_cycles: u64,
    ) -> SimJob {
        let mut job = SimJob::new(
            ModelKind::Adl,
            WorkloadSpec::AdlMachine {
                source: source.into(),
                osms,
            },
            max_cycles,
        );
        job.name = name.into();
        job
    }
}

/// Deterministic summary of a watchdog stall, carried by
/// [`JobOutcome::Stalled`]. The scalar fields mirror
/// [`osm_core::StallReport`]; `detail` preserves the report's full
/// rendering (blocked OSMs, denied primitives, attribution) so the farm
/// report and the sweep journal reproduce it byte-for-byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StallSummary {
    /// The watchdog's classification.
    pub kind: StallKind,
    /// Control step at which the watchdog fired.
    pub cycle: u64,
    /// How many cycles the condition had persisted.
    pub stalled_for: u64,
    /// The armed stall budget that fired.
    pub budget: u64,
    /// The full [`osm_core::StallReport`] rendering.
    pub detail: String,
}

/// How a job finished.
///
/// Equality is manual: the nondeterministic diagnostic ride-alongs on
/// [`JobOutcome::Panicked`] (captured backtrace) are ignored, so outcome
/// comparisons — and everything built on them: retry decisions, byte-identity
/// gates, journal round-trip tests — stay deterministic.
#[derive(Debug, Clone)]
pub enum JobOutcome {
    /// The program ran to its halt instruction within the budget.
    Halted,
    /// The cycle/step budget elapsed before halt.
    BudgetExhausted,
    /// The model failed (deadlock, decode error, bad workload, ...). The
    /// message is the model error's rendering.
    Failed(String),
    /// The job panicked; the worker caught the unwind and isolated it.
    Panicked {
        /// The panic payload, rendered (`<non-string panic payload>` when
        /// the payload was not a string).
        payload: String,
        /// Backtrace captured by the farm's quiet panic hook at panic time
        /// (honoring `RUST_BACKTRACE`, `None` when disabled). Diagnostic
        /// only: ASLR makes it nondeterministic, so it is excluded from
        /// equality, from [`JobOutcome::label`], and from the sweep journal.
        backtrace: Option<String>,
    },
    /// An isolated worker subprocess died to a signal (resource-budget
    /// abort, OOM kill, a hard deadline SIGKILL, a real native crash)
    /// before delivering a result. Only produced by the process-isolation
    /// executor — in-process jobs can't lose their host and live.
    Killed {
        /// The fatal signal number (e.g. 6 = SIGABRT, 9 = SIGKILL).
        signal: i32,
    },
    /// The stall watchdog fired: no forward progress within the job's
    /// [`SimJob::stall_budget`].
    Stalled(StallSummary),
    /// The wall-clock [`SimJob::deadline_ms`] elapsed before halt or cycle
    /// budget. The only non-deterministic outcome (host-speed dependent).
    DeadlineExceeded {
        /// Cycles completed when the deadline was detected.
        cycles: u64,
        /// The configured deadline, for the record.
        deadline_ms: u64,
    },
    /// The job stayed unhealthy through every allowed attempt and was
    /// quarantined; `last` is the final attempt's outcome.
    Quarantined {
        /// Attempts made (1 + retries).
        attempts: u32,
        /// Outcome of the last attempt.
        last: Box<JobOutcome>,
    },
}

impl PartialEq for JobOutcome {
    fn eq(&self, other: &JobOutcome) -> bool {
        use JobOutcome::*;
        match (self, other) {
            (Halted, Halted) | (BudgetExhausted, BudgetExhausted) => true,
            (Failed(a), Failed(b)) => a == b,
            // Backtraces are diagnostic ride-alongs, deliberately ignored.
            (Panicked { payload: a, .. }, Panicked { payload: b, .. }) => a == b,
            (Killed { signal: a }, Killed { signal: b }) => a == b,
            (Stalled(a), Stalled(b)) => a == b,
            (
                DeadlineExceeded { cycles: ca, deadline_ms: da },
                DeadlineExceeded { cycles: cb, deadline_ms: db },
            ) => ca == cb && da == db,
            (
                Quarantined { attempts: aa, last: la },
                Quarantined { attempts: ab, last: lb },
            ) => aa == ab && la == lb,
            _ => false,
        }
    }
}

impl Eq for JobOutcome {}

impl JobOutcome {
    /// True for the two outcomes that complete a job's work (ran to halt,
    /// or consumed its whole cycle budget). Everything else is grounds for
    /// retry and quarantine.
    pub fn is_healthy(&self) -> bool {
        matches!(self, JobOutcome::Halted | JobOutcome::BudgetExhausted)
    }

    /// One-line rendering used by the farm report (text and JSON) and the
    /// sweep journal. Stable and deterministic for every variant except
    /// `DeadlineExceeded` (whose cycle count is host-speed dependent).
    pub fn label(&self) -> String {
        match self {
            JobOutcome::Halted => "halted".into(),
            JobOutcome::BudgetExhausted => "budget-exhausted".into(),
            JobOutcome::Failed(msg) => format!("failed: {msg}"),
            JobOutcome::Panicked { payload, .. } => format!("panicked: {payload}"),
            JobOutcome::Killed { signal } => format!("killed: signal {signal}"),
            JobOutcome::Stalled(s) => {
                format!("stalled: {} at cycle {} (budget {})", s.kind, s.cycle, s.budget)
            }
            JobOutcome::DeadlineExceeded { cycles, deadline_ms } => {
                format!("deadline-exceeded: {deadline_ms}ms elapsed at cycle {cycles}")
            }
            JobOutcome::Quarantined { attempts, last } => {
                format!("quarantined after {attempts} attempt(s); last: {}", last.label())
            }
        }
    }
}

/// The deterministic product of one job. Everything here is a pure function
/// of the [`SimJob`] — independent of which thread ran it and of what else
/// was running — which is what the farm's digest-parity guarantee rests on.
/// (Exception: [`JobOutcome::DeadlineExceeded`], see [`SimJob::deadline_ms`].)
#[derive(Debug, Clone)]
pub struct JobResult {
    /// The job's label.
    pub name: String,
    /// The model that ran.
    pub model: ModelKind,
    /// Workload spelling.
    pub workload: String,
    /// How the run ended.
    pub outcome: JobOutcome,
    /// Cycles executed (ISS: instructions retired).
    pub cycles: u64,
    /// Instructions (VLIW: operations) retired.
    pub retired: u64,
    /// Program exit code.
    pub exit_code: u32,
    /// FNV-1a digest: the machine's transition-trace digest for OSM models,
    /// or a digest over every executed `(pc, taken)` pair for the ISS. Equal
    /// digests mean behaviorally identical runs.
    pub digest: u64,
    /// Attempts the supervised runner made (1 when the first try sufficed;
    /// always 1 from bare [`run_job`]).
    pub attempts: u32,
    /// Cycle this run restored a durable mid-job checkpoint from, when it
    /// did ([`SimJob::checkpoint_every`]). Operational provenance, not
    /// machine output: the digest/stats are identical either way, so the
    /// canonical report renderings scrub it.
    pub restored_from: Option<u64>,
    /// Scheduler statistics (OSM models only).
    pub stats: Option<Stats>,
    /// The job's observability record, when it asked for observability:
    /// the farm's own record, written to the journal and read back whole.
    pub metrics: Option<JobMetrics>,
    /// Injected-fault counters, when the job carried a fault plan.
    pub fault_stats: Option<FaultStats>,
}

/// What the farm keeps of a job's metrics and stall attribution: the
/// counters the farm report renders and the stall cycles its fleet roll-up
/// folds. The journal carries the whole record, so a resumed or
/// process-isolated sweep renders exactly what the in-process one does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobMetrics {
    /// Operation completions (returns to the initial state).
    pub completions: u64,
    /// Token grants (including later-aborted two-phase grants).
    pub token_grants: u64,
    /// Token denials.
    pub token_denials: u64,
    /// Stall cycles by `(manager, primitive)`, in the machine's
    /// `(manager id, primitive)` order.
    pub stalls: Vec<FleetStallCause>,
}

impl JobMetrics {
    /// Keeps the farm's part of a machine's metrics report.
    fn of(report: MetricsReport) -> JobMetrics {
        JobMetrics {
            completions: report.completions,
            token_grants: report.token_grants,
            token_denials: report.token_denials,
            stalls: report
                .stalls
                .into_iter()
                .flat_map(|h| h.by_manager)
                .map(|c| FleetStallCause {
                    manager: c.manager_name,
                    op: c.op.to_string(),
                    cycles: c.cycles,
                })
                .collect(),
        }
    }
}

impl JobResult {
    /// A result with no machine output — the job never got far enough to
    /// produce any (bad workload, panic before the first cycle, ...).
    pub(crate) fn aborted(job: &SimJob, outcome: JobOutcome) -> JobResult {
        JobResult {
            name: job.name.clone(),
            model: job.model,
            workload: job.workload.spelling(),
            outcome,
            cycles: 0,
            retired: 0,
            exit_code: 0,
            digest: 0,
            attempts: 1,
            restored_from: None,
            stats: None,
            metrics: None,
            fault_stats: None,
        }
    }

    fn failed(job: &SimJob, message: String) -> JobResult {
        JobResult::aborted(job, JobOutcome::Failed(message))
    }

    /// True if the job ran to completion or budget without a model error,
    /// panic, stall, deadline overrun or quarantine.
    pub fn is_ok(&self) -> bool {
        self.outcome.is_healthy()
    }
}

/// Wall-clock deadline tracker for the cooperative chunked run loop.
struct Deadline {
    at: Option<Instant>,
    ms: u64,
}

impl Deadline {
    fn start(deadline_ms: Option<u64>) -> Deadline {
        Deadline {
            at: deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms)),
            ms: deadline_ms.unwrap_or(0),
        }
    }

    fn expired(&self) -> bool {
        self.at.is_some_and(|at| Instant::now() >= at)
    }
}

/// Phase-boundary stopwatch for [`run_job_with`]: records into its target
/// only when one is attached, so a run without timing never touches the
/// clock.
struct PhaseTimer<'a> {
    out: Option<(&'a mut JobTiming, Instant)>,
}

impl<'a> PhaseTimer<'a> {
    fn new(out: Option<&'a mut JobTiming>) -> PhaseTimer<'a> {
        PhaseTimer {
            out: out.map(|timing| (timing, Instant::now())),
        }
    }

    fn lap(&mut self, phase: impl FnOnce(&mut JobTiming) -> &mut u64) {
        if let Some((timing, mark)) = self.out.as_mut() {
            let now = Instant::now();
            let elapsed = u64::try_from((now - *mark).as_nanos()).unwrap_or(u64::MAX);
            let slot = phase(timing);
            *slot = slot.saturating_add(elapsed);
            *mark = now;
        }
    }

    /// Closes the setup phase (workload resolve + machine build + faults).
    fn setup_done(&mut self) {
        self.lap(|t| &mut t.setup_ns);
    }

    /// Closes the simulation phase (the chunked run loop).
    fn sim_done(&mut self) {
        self.lap(|t| &mut t.sim_ns);
    }

    /// Closes the teardown phase (digest/stats extraction, assembly).
    fn teardown_done(&mut self) {
        self.lap(|t| &mut t.teardown_ns);
    }
}

/// Maps a model error to its typed outcome (watchdog stalls get their own
/// variant; everything else keeps the rendered message).
fn outcome_from_model_error(e: ModelError) -> JobOutcome {
    match e {
        ModelError::Stalled(report) => JobOutcome::Stalled(StallSummary {
            kind: report.kind,
            cycle: report.cycle,
            stalled_for: report.stalled_for,
            budget: report.budget,
            detail: report.to_string(),
        }),
        other => JobOutcome::Failed(other.to_string()),
    }
}

/// The slice length jobs are driven in: [`DEADLINE_CHUNK`] cycles, or the
/// checkpoint cadence when that is finer — a `checkpoint_every` below the
/// chunk size must still produce save points (short fuzz-generated machines
/// run their whole budget inside one chunk otherwise).
fn checkpoint_stride(ctl: &Option<&mut CheckpointCtl>) -> u64 {
    ctl.as_ref()
        .map(|c| c.cadence().min(DEADLINE_CHUNK))
        .unwrap_or(DEADLINE_CHUNK)
        .max(1)
}

/// Runs one job to completion on the calling thread.
///
/// Never panics on bad input — unknown workloads and model errors are
/// reported through the typed [`JobOutcome`] variants — with one deliberate
/// exception: a [`WorkloadSpec::ChaosPanic`] job panics by design, which is
/// what [`crate::run_job_supervised`] (and therefore the farm) catches and
/// isolates. Arms the job's stall budget on the model watchdog and checks
/// the wall deadline cooperatively.
pub fn run_job(job: &SimJob) -> JobResult {
    run_job_with(job, None, None)
}

/// [`run_job`] with the farm's two optional riders:
///
/// * `ctl`, a durable checkpoint controller: the run restores from the
///   controller's last valid checkpoint (if any), re-seeds the trace digest
///   so the final digest equals an uninterrupted run's, and seals fresh
///   checkpoints every [`SimJob::checkpoint_every`] cycles;
/// * `timing`, which receives the setup/sim/teardown wall-time breakdown
///   (restore lands in setup, checkpoint I/O in sim). The clock is read
///   only at the three phase boundaries, never inside the simulation, and
///   the [`JobResult`] is bit-identical to an untimed run's.
///
/// With both `None` this *is* [`run_job`].
pub fn run_job_with(
    job: &SimJob,
    ctl: Option<&mut CheckpointCtl>,
    timing: Option<&mut JobTiming>,
) -> JobResult {
    if matches!(job.workload, WorkloadSpec::ChaosPanic) {
        panic!("chaos:panic workload fired (job `{}`)", job.name);
    }
    let timer = PhaseTimer::new(timing);
    match job.model {
        ModelKind::Sa1100 => drive::<Machine<SaShared>>(job, timer, ctl),
        ModelKind::Ppc750 => drive::<Machine<PpcShared>>(job, timer, ctl),
        ModelKind::MiniRiscIss => drive::<IssRun>(job, timer, ctl),
        ModelKind::Vliw => drive::<Machine<VliwShared>>(job, timer, ctl),
        ModelKind::Adl => drive::<Machine<()>>(job, timer, ctl),
    }
}

/// The one model driver: build the simulator, restore its last durable
/// checkpoint, advance it in [`checkpoint_stride`] slices — so the wall
/// deadline is checked, and checkpoints come due, between slices — and
/// assemble the [`JobResult`].
fn drive<M: Simulator>(
    job: &SimJob,
    mut timer: PhaseTimer<'_>,
    mut ctl: Option<&mut CheckpointCtl>,
) -> JobResult {
    let (mut sim, faults) = match M::build(job) {
        Ok(built) => built,
        Err(message) => return JobResult::failed(job, message),
    };
    let restored_from = sim.resume(ctl.as_deref().and_then(CheckpointCtl::load));
    if let (Some(ctl), Some(cycle)) = (ctl.as_deref_mut(), restored_from) {
        ctl.mark_restored(cycle);
    }
    timer.setup_done();
    let stride = checkpoint_stride(&ctl);
    let deadline = Deadline::start(job.deadline_ms);
    let mut progress = (0, 0);
    let outcome = loop {
        let target = sim.cycle().saturating_add(stride).min(job.max_cycles);
        let halted = match sim.advance(target) {
            Ok(halted) => halted,
            Err(outcome) => break outcome,
        };
        progress = sim.progress();
        let cycle = sim.cycle();
        if let Some(ctl) = ctl.as_deref_mut() {
            if !halted && cycle < job.max_cycles && ctl.due(cycle) {
                if let Some((trace_hash, trace_total, machine)) = sim.snapshot() {
                    ctl.save(cycle, trace_hash, trace_total, &machine);
                }
            }
        }
        if halted {
            break JobOutcome::Halted;
        }
        if cycle >= job.max_cycles {
            break JobOutcome::BudgetExhausted;
        }
        if deadline.expired() {
            break JobOutcome::DeadlineExceeded {
                cycles: cycle,
                deadline_ms: deadline.ms,
            };
        }
    };
    timer.sim_done();
    if M::LIVE_PROGRESS {
        progress = sim.progress();
    }
    let (digest, stats, metrics) = sim.finish();
    let result = JobResult {
        name: job.name.clone(),
        model: job.model,
        workload: job.workload.spelling(),
        outcome,
        cycles: sim.cycle(),
        retired: progress.0,
        exit_code: progress.1,
        digest,
        attempts: 1,
        restored_from,
        stats,
        metrics,
        fault_stats: faults.map(|h| h.stats()),
    };
    timer.teardown_done();
    result
}

/// A simulator [`drive`] can run: every OSM model as a [`Machine`] over its
/// [`OsmModel`] shared state, and the ISS as an [`IssRun`].
trait Simulator: Sized {
    /// Whether the result's `(retired, exit_code)` is read from the final
    /// state (`true`), or frozen at the last chunk that completed without
    /// error and `(0, 0)` when the first chunk failed (`false`).
    const LIVE_PROGRESS: bool;

    /// Resolves the job's workload and builds the simulator with the job's
    /// scheduler, stall budget, observability and fault plan armed. `Err`
    /// carries the failure message.
    fn build(job: &SimJob) -> Result<(Self, Option<FaultHandle>), String>;

    /// Restores `ckpt` if the simulator accepts it, then starts the run's
    /// digest — continued from the checkpoint when restored. Returns the
    /// restored cycle.
    fn resume(&mut self, ckpt: Option<JobCheckpoint>) -> Option<u64>;

    /// Cycles (ISS: instructions) run so far.
    fn cycle(&self) -> u64;

    /// Runs until `target` cycles or halt; `Ok(true)` once halted.
    fn advance(&mut self, target: u64) -> Result<bool, JobOutcome>;

    /// Instructions retired and the program's exit code so far.
    fn progress(&self) -> (u64, u32);

    /// The running digest state and the encoded machine, for a checkpoint:
    /// `(trace_hash, trace_total, machine)`. `None` if the state cannot be
    /// encoded (the save is skipped).
    fn snapshot(&self) -> Option<(u64, u64, Vec<u8>)>;

    /// Ends the run: the final digest, scheduler stats and metrics.
    fn finish(&mut self) -> (u64, Option<Stats>, Option<JobMetrics>);
}

/// What the farm needs to know about one OSM model beyond its [`Machine`],
/// keyed by the model's shared hardware state (which also carries the
/// state's checkpoint codec, [`HardwareLayer::encode_state`], and its
/// halting predicate, [`HardwareLayer::halted`]).
trait OsmModel: HardwareLayer + Sized + 'static {
    /// See [`Simulator::LIVE_PROGRESS`].
    const LIVE_PROGRESS: bool = false;

    /// Resolves the job's workload and builds the machine, plus the
    /// fetch-side manager a fault plan is installed in front of (`None`
    /// when the machine has no managers).
    fn build(job: &SimJob) -> Result<(Machine<Self>, Option<ManagerId>), String>;

    /// Instructions retired and the program's exit code so far.
    fn progress(machine: &Machine<Self>) -> (u64, u32);
}

impl<S: OsmModel> Simulator for Machine<S> {
    const LIVE_PROGRESS: bool = S::LIVE_PROGRESS;

    fn build(job: &SimJob) -> Result<(Self, Option<FaultHandle>), String> {
        let (mut machine, fetch) = S::build(job)?;
        machine.set_scheduler_mode(job.scheduler);
        machine.set_stall_limit(job.stall_budget);
        if job.observability {
            machine.enable_metrics();
            machine.enable_stall_attribution();
        }
        let faults = fetch
            .zip(job.faults.clone())
            .map(|(target, plan)| FaultInjector::install(&mut machine.managers, target, plan));
        Ok((machine, faults))
    }

    fn resume(&mut self, ckpt: Option<JobCheckpoint>) -> Option<u64> {
        // Faults are installed by now, so the manager shapes match. A
        // rejected checkpoint leaves the machine untouched (restore is
        // all-or-nothing), so the job then simply runs from the start.
        let ckpt = ckpt.filter(|c| self.restore(&c.machine).is_ok());
        self.enable_trace_with(match &ckpt {
            Some(c) => Trace::digest_only_resumed(c.trace_hash, c.trace_total),
            None => Trace::digest_only(),
        });
        ckpt.map(|c| c.cycle)
    }

    fn cycle(&self) -> u64 {
        Machine::cycle(self)
    }

    fn advance(&mut self, target: u64) -> Result<bool, JobOutcome> {
        let remaining = target.saturating_sub(Machine::cycle(self));
        self.run_until(remaining, |m| m.shared.halted())
            .map_err(outcome_from_model_error)?;
        Ok(self.shared.halted())
    }

    fn progress(&self) -> (u64, u32) {
        S::progress(self)
    }

    fn snapshot(&self) -> Option<(u64, u64, Vec<u8>)> {
        let machine = self.checkpoint().ok()?;
        let trace = self.trace()?;
        Some((trace.digest(), trace.total(), machine))
    }

    fn finish(&mut self) -> (u64, Option<Stats>, Option<JobMetrics>) {
        let digest = self.take_trace().map_or(0, |t| t.digest());
        let metrics = self.metrics_report().map(JobMetrics::of);
        (digest, Some(self.stats.clone()), metrics)
    }
}

impl OsmModel for SaShared {
    fn build(job: &SimJob) -> Result<(Machine<Self>, Option<ManagerId>), String> {
        let program = job.workload.resolve(job.seed)?.program();
        let machine = SaOsmSim::new(SaConfig::paper(), &program).into_machine();
        let fetch = machine.shared.ids.mf;
        Ok((machine, Some(fetch)))
    }

    fn progress(machine: &Machine<Self>) -> (u64, u32) {
        (machine.shared.retired, machine.shared.exit_code)
    }
}

impl OsmModel for PpcShared {
    fn build(job: &SimJob) -> Result<(Machine<Self>, Option<ManagerId>), String> {
        let program = job.workload.resolve(job.seed)?.program();
        let machine = PpcOsmSim::new(PpcConfig::paper(), &program).into_machine();
        let fetch_queue = machine.shared.ids.fq;
        Ok((machine, Some(fetch_queue)))
    }

    fn progress(machine: &Machine<Self>) -> (u64, u32) {
        (machine.shared.retired, machine.shared.oracle.exit_code)
    }
}

/// VLIW jobs run the synthetic [`WorkloadSpec::Ilp`] loop; `retired`
/// counts operations.
impl OsmModel for VliwShared {
    fn build(job: &SimJob) -> Result<(Machine<Self>, Option<ManagerId>), String> {
        let WorkloadSpec::Ilp { iters, body } = job.workload else {
            return Err(format!(
                "the vliw model needs an `ilp:<iters>:<body>` workload, got `{}`",
                job.workload.spelling()
            ));
        };
        let program = schedule(&ilp_loop(iters, body), vec![]);
        let machine = VliwSim::new(VliwConfig::default(), &program).into_machine();
        let fetch = machine.shared.ids.mf;
        Ok((machine, Some(fetch)))
    }

    fn progress(machine: &Machine<Self>) -> (u64, u32) {
        (machine.shared.retired_ops, machine.shared.exit_code)
    }
}

/// Inline-ADL machines: the source is loaded and `osms` instances are
/// spawned round-robin over the declared classes with the inert behavior —
/// the workload *is* the machine structure. They never halt, so healthy
/// runs exhaust their budget; `retired` counts transitions (read at the end
/// of the run). Faults install on the first declared manager, mirroring
/// the fetch-side convention of the named models; the unit shared state's
/// checkpoint section is empty.
impl OsmModel for () {
    const LIVE_PROGRESS: bool = true;

    fn build(job: &SimJob) -> Result<(Machine<Self>, Option<ManagerId>), String> {
        let WorkloadSpec::AdlMachine { source, osms } = &job.workload else {
            return Err(format!(
                "the adl model needs an inline `WorkloadSpec::AdlMachine` workload, got `{}`",
                job.workload.spelling()
            ));
        };
        let synth = osm_adl::load(source).map_err(|e| format!("adl load failed: {e}"))?;
        if synth.specs.is_empty() {
            return Err("adl machine declares no osm classes".to_owned());
        }
        let mut machine = Machine::new(());
        synth.install_managers(&mut machine);
        for k in 0..*osms as usize {
            let (_, spec) = &synth.specs[k % synth.specs.len()];
            machine.add_osm(spec, InertBehavior);
        }
        let fetch = (!machine.managers.is_empty()).then_some(ManagerId(0));
        Ok((machine, fetch))
    }

    fn progress(machine: &Machine<Self>) -> (u64, u32) {
        (machine.stats.transitions, 0)
    }
}

/// The ISS as a [`Simulator`]: it steps one instruction at a time and folds
/// every executed `(pc, taken)` pair into an FNV-1a digest (the ISS has no
/// transition trace). It has no token managers, so the scheduler, stall
/// budget, observability and fault plan do not apply. A checkpoint carries
/// the complete simulator state, with the digest in the trace fields.
struct IssRun {
    iss: Iss<SparseMemory>,
    digest: u64,
}

impl Simulator for IssRun {
    const LIVE_PROGRESS: bool = true;

    fn build(job: &SimJob) -> Result<(Self, Option<FaultHandle>), String> {
        let program = job.workload.resolve(job.seed)?.program();
        let iss = Iss::with_program(SparseMemory::new(), &program);
        Ok((
            IssRun {
                iss,
                digest: FNV_OFFSET,
            },
            None,
        ))
    }

    fn resume(&mut self, ckpt: Option<JobCheckpoint>) -> Option<u64> {
        let ckpt = ckpt.filter(|c| self.iss.import_state(&c.machine))?;
        self.digest = ckpt.trace_hash;
        Some(ckpt.cycle)
    }

    fn cycle(&self) -> u64 {
        self.iss.retired
    }

    fn advance(&mut self, target: u64) -> Result<bool, JobOutcome> {
        while !self.iss.halted && self.iss.retired < target {
            let executed = self
                .iss
                .step()
                .map_err(|e| JobOutcome::Failed(e.to_string()))?;
            self.digest = fnv_mix(self.digest, executed.pc.to_le_bytes());
            self.digest = fnv_mix(self.digest, executed.taken.unwrap_or(0).to_le_bytes());
        }
        Ok(self.iss.halted)
    }

    fn progress(&self) -> (u64, u32) {
        (self.iss.retired, self.iss.exit_code)
    }

    fn snapshot(&self) -> Option<(u64, u64, Vec<u8>)> {
        Some((self.digest, self.iss.retired, self.iss.export_state()))
    }

    fn finish(&mut self) -> (u64, Option<Stats>, Option<JobMetrics>) {
        (self.digest, None, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_spec_parses_all_forms() {
        assert_eq!(
            WorkloadSpec::parse("random:128").unwrap(),
            WorkloadSpec::Random { block_len: 128 }
        );
        assert_eq!(
            WorkloadSpec::parse("ilp:500:8").unwrap(),
            WorkloadSpec::Ilp { iters: 500, body: 8 }
        );
        assert_eq!(
            WorkloadSpec::parse("k40/x").unwrap(),
            WorkloadSpec::Named("k40/x".into())
        );
        assert_eq!(
            WorkloadSpec::parse("chaos:panic").unwrap(),
            WorkloadSpec::ChaosPanic
        );
        assert!(WorkloadSpec::parse("random:x").is_err());
        assert!(WorkloadSpec::parse("ilp:0:0").is_err());
    }

    #[test]
    fn unknown_workload_fails_cleanly() {
        let job = SimJob::new(
            ModelKind::Sa1100,
            WorkloadSpec::Named("no-such-workload".into()),
            1000,
        );
        let r = run_job(&job);
        assert!(matches!(r.outcome, JobOutcome::Failed(_)));
    }

    #[test]
    fn iss_job_is_deterministic() {
        let job = SimJob::minirisc_random(7, 48, 50_000);
        let a = run_job(&job);
        let b = run_job(&job);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.retired, b.retired);
        assert_ne!(a.digest, 0);
    }

    const ADL_PIPE: &str = "
        machine pipe {
            manager mf : exclusive(1);
            manager mx : counting(2);
            osm op {
                states I, F, X;
                initial I;
                edge fetch : I -> F { allocate mf[0]; }
                edge issue : F -> X { allocate mx[any]; release mf[held]; }
                edge done : X -> I { release mx[held]; }
            }
        }
    ";

    #[test]
    fn adl_job_runs_and_is_deterministic_across_scheduler_modes() {
        let mut seed_job = SimJob::adl("pipe", ADL_PIPE, 4, 200);
        seed_job.scheduler = SchedulerMode::Seed;
        let mut fast_job = seed_job.clone();
        fast_job.scheduler = SchedulerMode::Fast;
        let a = run_job(&seed_job);
        let b = run_job(&fast_job);
        assert_eq!(a.outcome, JobOutcome::BudgetExhausted);
        assert_eq!(b.outcome, JobOutcome::BudgetExhausted);
        assert_eq!(a.cycles, 200);
        assert_ne!(a.digest, 0);
        assert_eq!(a.digest, b.digest, "Seed and Fast diverged on an ADL job");
        assert!(a.retired > 0);
    }

    #[test]
    fn adl_job_observability_and_faults_ride_along() {
        let mut job = SimJob::adl("pipe-obs", ADL_PIPE, 2, 100);
        job.observability = true;
        job.faults = Some(osm_core::FaultPlan::new(9).deny_allocate(0.5));
        let r = run_job(&job);
        assert_eq!(r.outcome, JobOutcome::BudgetExhausted);
        assert!(r.metrics.is_some());
        assert!(r.fault_stats.is_some());
        // Fault plans are deterministic too.
        let r2 = run_job(&job);
        assert_eq!(r.digest, r2.digest);
    }

    /// A job result carries only its metrics record, so an observability
    /// job must not grow an event log nobody reads.
    #[test]
    fn observability_jobs_record_metrics_but_no_event_log() {
        let mut job = SimJob::new(
            ModelKind::Sa1100,
            WorkloadSpec::Named("specint".into()),
            2_000,
        );
        job.observability = true;
        let (mut machine, _) = <Machine<SaShared> as Simulator>::build(&job).expect("builds");
        assert!(machine.event_log().is_none(), "an event log was recorded");
        assert!(machine.stall_attribution().is_some());
        machine.advance(job.max_cycles).expect("runs");
        let (_, _, metrics) = machine.finish();
        let metrics = metrics.expect("metrics enabled");
        assert!(metrics.completions > 0);
        assert!(!metrics.stalls.is_empty(), "stall attribution rides along");
    }

    #[test]
    fn adl_job_rejects_bad_source_and_wrong_workload() {
        let bad = SimJob::adl("broken", "machine oops {", 1, 10);
        let r = run_job(&bad);
        match r.outcome {
            JobOutcome::Failed(msg) => assert!(msg.contains("adl load failed"), "{msg}"),
            other => panic!("expected Failed, got {other:?}"),
        }
        let mismatched = SimJob::new(ModelKind::Adl, WorkloadSpec::Random { block_len: 8 }, 10);
        let r = run_job(&mismatched);
        assert!(matches!(r.outcome, JobOutcome::Failed(_)));
        // And the inline workload refuses to resolve for program models.
        let cross = SimJob::new(
            ModelKind::MiniRiscIss,
            WorkloadSpec::AdlMachine {
                source: ADL_PIPE.into(),
                osms: 1,
            },
            10,
        );
        let r = run_job(&cross);
        assert!(matches!(r.outcome, JobOutcome::Failed(_)));
    }

    #[test]
    fn adl_workload_spelling_is_digest_stable() {
        let a = WorkloadSpec::AdlMachine {
            source: ADL_PIPE.into(),
            osms: 4,
        };
        let b = WorkloadSpec::AdlMachine {
            source: ADL_PIPE.into(),
            osms: 4,
        };
        assert_eq!(a.spelling(), b.spelling());
        assert!(a.spelling().starts_with("adl:4@"));
        let c = WorkloadSpec::AdlMachine {
            source: format!("{ADL_PIPE} "),
            osms: 4,
        };
        assert_ne!(a.spelling(), c.spelling(), "source changes must change the spelling");
    }

    #[test]
    fn vliw_ilp_job_halts() {
        let mut job = SimJob::new(
            ModelKind::Vliw,
            WorkloadSpec::Ilp { iters: 50, body: 6 },
            100_000,
        );
        job.observability = true;
        let r = run_job(&job);
        assert_eq!(r.outcome, JobOutcome::Halted);
        assert!(r.metrics.is_some());
        assert!(r.stats.is_some());
    }

    #[test]
    fn sa_job_digest_matches_between_runs_with_faults() {
        let mut job = SimJob::new(
            ModelKind::Sa1100,
            WorkloadSpec::Named("specint".into()),
            20_000,
        );
        job.faults = Some(FaultPlan::new(0xFA0).deny_allocate(0.02));
        let a = run_job(&job);
        let b = run_job(&job);
        assert!(a.is_ok(), "{:?}", a.outcome);
        assert_eq!(a.digest, b.digest);
        assert_eq!(
            a.fault_stats.unwrap().total(),
            b.fault_stats.unwrap().total()
        );
    }

    #[test]
    fn blackholed_job_yields_typed_stall_not_a_pinned_worker() {
        // A permanent blackhole on the fetch stage wedges the pipeline; the
        // default-armed watchdog must convert that into a typed, fully
        // deterministic Stalled outcome long before max_cycles.
        let mut job = SimJob::new(
            ModelKind::Sa1100,
            WorkloadSpec::Named("specint".into()),
            50_000_000,
        );
        job.stall_budget = Some(500);
        job.faults = Some(FaultPlan::new(1).blackhole(100, u64::MAX));
        let a = run_job(&job);
        let b = run_job(&job);
        match (&a.outcome, &b.outcome) {
            (JobOutcome::Stalled(sa), JobOutcome::Stalled(sb)) => {
                assert_eq!(sa, sb, "stall summaries must be deterministic");
                assert_eq!(sa.budget, 500);
                assert!(sa.detail.contains("budget 500"), "{}", sa.detail);
            }
            other => panic!("expected deterministic stalls, got {other:?}"),
        }
        assert!(a.cycles < 100_000, "watchdog fired late: {}", a.cycles);
    }

    #[test]
    fn deadline_job_reports_overrun() {
        // Host-speed dependent by design: a multi-billion-cycle VLIW loop
        // with a tiny wall deadline must come back as DeadlineExceeded, not
        // run to budget.
        let mut job = SimJob::new(
            ModelKind::Vliw,
            WorkloadSpec::Ilp { iters: 2_000_000_000, body: 4 },
            u64::MAX / 2,
        );
        job.deadline_ms = Some(5);
        let r = run_job(&job);
        assert!(
            matches!(r.outcome, JobOutcome::DeadlineExceeded { .. }),
            "{:?}",
            r.outcome
        );
    }

    #[test]
    fn outcome_labels_are_stable() {
        assert_eq!(JobOutcome::Halted.label(), "halted");
        assert_eq!(
            JobOutcome::Failed("boom".into()).label(),
            "failed: boom"
        );
        let q = JobOutcome::Quarantined {
            attempts: 2,
            last: Box::new(JobOutcome::Panicked {
                payload: "chaos".into(),
                backtrace: None,
            }),
        };
        assert_eq!(q.label(), "quarantined after 2 attempt(s); last: panicked: chaos");
        assert!(!q.is_healthy());
        assert!(JobOutcome::BudgetExhausted.is_healthy());
        let k = JobOutcome::Killed { signal: 9 };
        assert_eq!(k.label(), "killed: signal 9");
        assert!(!k.is_healthy());
    }
}
