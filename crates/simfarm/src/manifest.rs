//! JSON sweep manifests: the `simfarm` CLI's input format.
//!
//! ```json
//! {
//!   "workers": 4,
//!   "defaults": { "max_cycles": 100000, "scheduler": "fast", "observability": false },
//!   "jobs": [
//!     { "model": "sa1100", "workload": "specint" },
//!     { "model": "minirisc", "workload": "random:64", "seed": 3 },
//!     { "model": "vliw", "workload": "ilp:500:8",
//!       "faults": { "seed": 7, "deny_allocate": 0.02 } }
//!   ]
//! }
//! ```
//!
//! Every job field except `model` and `workload` is optional and falls back
//! to the `defaults` object, then to built-in defaults (`max_cycles` 100000,
//! scheduler `fast`, observability off, seed 0, no faults).
//!
//! ## Supervision knobs
//!
//! Three more per-job fields (also honored in `defaults`) configure the
//! supervised farm:
//!
//! * `"stall_budget"` — cycles without forward progress before the PR-1
//!   watchdog declares the job stalled. Armed at
//!   [`crate::DEFAULT_STALL_BUDGET`] when omitted; `0` disarms the
//!   watchdog entirely.
//! * `"deadline_ms"` — wall-clock deadline per job, in milliseconds
//!   (`0` = none, the default). Host-speed dependent by nature; keep it out
//!   of manifests whose reports must be byte-reproducible.
//! * `"retries"` — how many times an unhealthy job is deterministically
//!   re-run before quarantine ([`crate::DEFAULT_RETRIES`] when omitted).
//!
//! ## Hard-crash survival knobs
//!
//! * `"checkpoint_every"` (per-job and in `defaults`) — durable mid-job
//!   checkpoint cadence in cycles; `0` (the default) disables
//!   checkpointing ([`crate::SimJob::checkpoint_every`]). Ignored for
//!   observability jobs.
//! * `"isolation"` (top level) — `"in-process"` (default) or `"process"`:
//!   run every job attempt in a re-exec'd subprocess so hard crashes
//!   become typed outcomes ([`crate::exec`]). CLI flags override.
//! * `"memory_limit_mb"` / `"cpu_limit_secs"` (top level) — resource
//!   budgets applied to each isolated subprocess (`0` = unlimited, the
//!   default). Meaningful only with `"isolation": "process"`.

use crate::exec::IsolationMode;
use crate::job::{ModelKind, SimJob, WorkloadSpec, DEFAULT_RETRIES, DEFAULT_STALL_BUDGET};
use bench::json::{parse, Json};
use osm_core::{FaultPlan, SchedulerMode};
use std::fmt;

/// A parsed sweep manifest.
#[derive(Debug, Clone)]
pub struct Manifest {
    /// Worker-thread count requested by the manifest (CLI flags override).
    pub workers: Option<usize>,
    /// Top-level `"farm_observability"` flag: attach a
    /// [`crate::FarmObserver`] to the sweep (worker telemetry, job spans,
    /// farm-trace export). Off by default — the disabled farm reads no
    /// clock. Distinct from per-job
    /// `"observability"`, which enables the *machine*-level event log and
    /// metrics inside each job.
    pub farm_observability: bool,
    /// Top-level `"isolation"` knob: how workers execute job attempts
    /// (CLI flags override). [`IsolationMode::InProcess`] by default.
    pub isolation: IsolationMode,
    /// Top-level `"memory_limit_mb"`: address-space budget per isolated
    /// subprocess (`None` = unlimited).
    pub memory_limit_mb: Option<u64>,
    /// Top-level `"cpu_limit_secs"`: CPU budget per isolated subprocess
    /// (`None` = unlimited).
    pub cpu_limit_secs: Option<u64>,
    /// The job list, in manifest order.
    pub jobs: Vec<SimJob>,
}

/// A manifest rejection, with enough context to fix the file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestError {
    /// What was wrong.
    pub message: String,
}

impl ManifestError {
    fn new(message: impl Into<String>) -> ManifestError {
        ManifestError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ManifestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "manifest error: {}", self.message)
    }
}

impl std::error::Error for ManifestError {}

/// Per-job fallbacks from the manifest's `defaults` object.
#[derive(Debug, Clone, Copy)]
struct Defaults {
    max_cycles: u64,
    scheduler: SchedulerMode,
    observability: bool,
    stall_budget: Option<u64>,
    deadline_ms: Option<u64>,
    retries: u32,
    checkpoint_every: u64,
}

impl Default for Defaults {
    fn default() -> Defaults {
        Defaults {
            max_cycles: 100_000,
            scheduler: SchedulerMode::Fast,
            observability: false,
            stall_budget: Some(DEFAULT_STALL_BUDGET),
            deadline_ms: None,
            retries: DEFAULT_RETRIES,
            checkpoint_every: 0,
        }
    }
}

/// Parses a `stall_budget`/`deadline_ms`-style knob: an integer where `0`
/// means "off" (`None`).
fn zero_is_off(v: &Json, ctx: &str) -> Result<Option<u64>, ManifestError> {
    let n = v
        .as_u64()
        .ok_or_else(|| ManifestError::new(format!("{ctx} must be a non-negative integer")))?;
    Ok(if n == 0 { None } else { Some(n) })
}

/// Parses a manifest document into a job list.
pub fn parse_manifest(text: &str) -> Result<Manifest, ManifestError> {
    let root = parse(text).map_err(|e| ManifestError::new(e.to_string()))?;
    let Json::Obj(_) = &root else {
        return Err(ManifestError::new(format!(
            "top level must be an object, found {}",
            root.type_name()
        )));
    };

    let workers = match root.get("workers") {
        None => None,
        Some(v) => Some(
            v.as_u64()
                .ok_or_else(|| ManifestError::new("`workers` must be a positive integer"))
                .and_then(|w| {
                    if w == 0 {
                        Err(ManifestError::new("`workers` must be at least 1"))
                    } else {
                        Ok(w as usize)
                    }
                })?,
        ),
    };

    let farm_observability = match root.get("farm_observability") {
        None => false,
        Some(v) => v.as_bool().ok_or_else(|| {
            ManifestError::new("`farm_observability` must be a boolean")
        })?,
    };

    let mut defaults = Defaults::default();
    if let Some(d) = root.get("defaults") {
        if let Some(mc) = d.get("max_cycles") {
            defaults.max_cycles = mc
                .as_u64()
                .ok_or_else(|| ManifestError::new("defaults.max_cycles must be an integer"))?;
        }
        if let Some(s) = d.get("scheduler") {
            defaults.scheduler = scheduler_mode(s, "defaults.scheduler")?;
        }
        if let Some(o) = d.get("observability") {
            defaults.observability = o
                .as_bool()
                .ok_or_else(|| ManifestError::new("defaults.observability must be a boolean"))?;
        }
        if let Some(v) = d.get("stall_budget") {
            defaults.stall_budget = zero_is_off(v, "defaults.stall_budget")?;
        }
        if let Some(v) = d.get("deadline_ms") {
            defaults.deadline_ms = zero_is_off(v, "defaults.deadline_ms")?;
        }
        if let Some(v) = d.get("retries") {
            defaults.retries = v
                .as_u64()
                .and_then(|n| u32::try_from(n).ok())
                .ok_or_else(|| ManifestError::new("defaults.retries must be a small integer"))?;
        }
        if let Some(v) = d.get("checkpoint_every") {
            defaults.checkpoint_every = v.as_u64().ok_or_else(|| {
                ManifestError::new("defaults.checkpoint_every must be a non-negative integer")
            })?;
        }
    }

    let isolation = match root.get("isolation") {
        None => IsolationMode::default(),
        Some(v) => v
            .as_str()
            .and_then(IsolationMode::parse)
            .ok_or_else(|| {
                ManifestError::new("`isolation` must be \"in-process\" or \"process\"")
            })?,
    };
    let memory_limit_mb = match root.get("memory_limit_mb") {
        None => None,
        Some(v) => zero_is_off(v, "`memory_limit_mb`")?,
    };
    let cpu_limit_secs = match root.get("cpu_limit_secs") {
        None => None,
        Some(v) => zero_is_off(v, "`cpu_limit_secs`")?,
    };

    let jobs_json = root
        .get("jobs")
        .ok_or_else(|| ManifestError::new("missing `jobs` array"))?
        .as_arr()
        .ok_or_else(|| ManifestError::new("`jobs` must be an array"))?;
    if jobs_json.is_empty() {
        return Err(ManifestError::new("`jobs` must not be empty"));
    }

    let jobs = jobs_json
        .iter()
        .enumerate()
        .map(|(index, j)| parse_job(j, index, defaults))
        .collect::<Result<Vec<SimJob>, ManifestError>>()?;

    Ok(Manifest {
        workers,
        farm_observability,
        isolation,
        memory_limit_mb,
        cpu_limit_secs,
        jobs,
    })
}

fn parse_job(j: &Json, index: usize, defaults: Defaults) -> Result<SimJob, ManifestError> {
    let ctx = |field: &str| format!("jobs[{index}].{field}");

    let model_name = j
        .get("model")
        .and_then(Json::as_str)
        .ok_or_else(|| ManifestError::new(format!("{} must be a string", ctx("model"))))?;
    let model = ModelKind::parse(model_name).ok_or_else(|| {
        ManifestError::new(format!(
            "{}: unknown model `{model_name}` (expected sa1100, ppc750, minirisc or vliw)",
            ctx("model")
        ))
    })?;

    let workload_name = j
        .get("workload")
        .and_then(Json::as_str)
        .ok_or_else(|| ManifestError::new(format!("{} must be a string", ctx("workload"))))?;
    let workload = WorkloadSpec::parse(workload_name)
        .map_err(|e| ManifestError::new(format!("{}: {e}", ctx("workload"))))?;

    let mut job = SimJob::new(model, workload, defaults.max_cycles);
    job.scheduler = defaults.scheduler;
    job.observability = defaults.observability;
    job.stall_budget = defaults.stall_budget;
    job.deadline_ms = defaults.deadline_ms;
    job.retries = defaults.retries;
    job.checkpoint_every = defaults.checkpoint_every;
    job.name = format!("{}/{}#{}", model.name(), workload_name, index);

    if let Some(v) = j.get("name") {
        job.name = v
            .as_str()
            .ok_or_else(|| ManifestError::new(format!("{} must be a string", ctx("name"))))?
            .to_owned();
    }
    if let Some(v) = j.get("seed") {
        job.seed = v
            .as_u64()
            .ok_or_else(|| ManifestError::new(format!("{} must be an integer", ctx("seed"))))?;
    }
    if let Some(v) = j.get("max_cycles") {
        job.max_cycles = v.as_u64().ok_or_else(|| {
            ManifestError::new(format!("{} must be an integer", ctx("max_cycles")))
        })?;
    }
    if let Some(v) = j.get("scheduler") {
        job.scheduler = scheduler_mode(v, &ctx("scheduler"))?;
    }
    if let Some(v) = j.get("observability") {
        job.observability = v
            .as_bool()
            .ok_or_else(|| ManifestError::new(format!("{} must be a boolean", ctx("observability"))))?;
    }
    if let Some(v) = j.get("stall_budget") {
        job.stall_budget = zero_is_off(v, &ctx("stall_budget"))?;
    }
    if let Some(v) = j.get("deadline_ms") {
        job.deadline_ms = zero_is_off(v, &ctx("deadline_ms"))?;
    }
    if let Some(v) = j.get("retries") {
        job.retries = v
            .as_u64()
            .and_then(|n| u32::try_from(n).ok())
            .ok_or_else(|| ManifestError::new(format!("{} must be a small integer", ctx("retries"))))?;
    }
    if let Some(v) = j.get("checkpoint_every") {
        job.checkpoint_every = v.as_u64().ok_or_else(|| {
            ManifestError::new(format!(
                "{} must be a non-negative integer",
                ctx("checkpoint_every")
            ))
        })?;
    }
    if let Some(v) = j.get("faults") {
        job.faults = Some(parse_faults(v, &ctx("faults"))?);
    }
    Ok(job)
}

fn scheduler_mode(v: &Json, ctx: &str) -> Result<SchedulerMode, ManifestError> {
    match v.as_str() {
        Some("fast") => Ok(SchedulerMode::Fast),
        Some("seed") => Ok(SchedulerMode::Seed),
        _ => Err(ManifestError::new(format!(
            "{ctx} must be \"fast\" or \"seed\""
        ))),
    }
}

fn parse_faults(v: &Json, ctx: &str) -> Result<FaultPlan, ManifestError> {
    let seed = match v.get("seed") {
        None => 0,
        Some(s) => s
            .as_u64()
            .ok_or_else(|| ManifestError::new(format!("{ctx}.seed must be an integer")))?,
    };
    let mut plan = FaultPlan::new(seed);
    let prob = |field: &str| -> Result<Option<f64>, ManifestError> {
        match v.get(field) {
            None => Ok(None),
            Some(p) => {
                let p = p.as_num().ok_or_else(|| {
                    ManifestError::new(format!("{ctx}.{field} must be a number"))
                })?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(ManifestError::new(format!(
                        "{ctx}.{field} must be a probability in [0, 1]"
                    )));
                }
                Ok(Some(p))
            }
        }
    };
    if let Some(p) = prob("deny_allocate")? {
        plan = plan.deny_allocate(p);
    }
    if let Some(p) = prob("deny_inquire")? {
        plan = plan.deny_inquire(p);
    }
    if let Some(p) = prob("defer_release")? {
        plan = plan.defer_release(p);
    }
    if let Some(p) = prob("drop_token")? {
        plan = plan.drop_token(p);
    }
    if let Some(p) = prob("corrupt_token")? {
        plan = plan.corrupt_token(p);
    }
    if let Some(b) = v.get("blackhole") {
        let arr = b
            .as_arr()
            .filter(|a| a.len() == 2)
            .ok_or_else(|| {
                ManifestError::new(format!("{ctx}.blackhole must be a [start, end] cycle pair"))
            })?;
        let start = arr[0]
            .as_u64()
            .ok_or_else(|| ManifestError::new(format!("{ctx}.blackhole[0] must be an integer")))?;
        let end = arr[1]
            .as_u64()
            .ok_or_else(|| ManifestError::new(format!("{ctx}.blackhole[1] must be an integer")))?;
        plan = plan.blackhole(start, end);
    }
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::ModelKind;

    #[test]
    fn full_manifest_parses() {
        let text = r#"{
            "workers": 4,
            "defaults": { "max_cycles": 50000, "scheduler": "seed", "observability": true },
            "jobs": [
                { "model": "sa1100", "workload": "specint" },
                { "model": "minirisc", "workload": "random:64", "seed": 3,
                  "scheduler": "fast", "observability": false },
                { "model": "vliw", "workload": "ilp:100:4",
                  "faults": { "seed": 7, "deny_allocate": 0.02, "blackhole": [100, 200] } }
            ]
        }"#;
        let m = parse_manifest(text).unwrap();
        assert_eq!(m.workers, Some(4));
        assert!(!m.farm_observability, "off unless requested");
        assert_eq!(m.jobs.len(), 3);
        assert_eq!(m.jobs[0].model, ModelKind::Sa1100);
        assert_eq!(m.jobs[0].max_cycles, 50_000);
        assert_eq!(m.jobs[0].scheduler, osm_core::SchedulerMode::Seed);
        assert!(m.jobs[0].observability);
        assert_eq!(m.jobs[0].name, "sa1100/specint#0");
        assert_eq!(m.jobs[1].seed, 3);
        assert_eq!(m.jobs[1].scheduler, osm_core::SchedulerMode::Fast);
        assert!(!m.jobs[1].observability);
        assert!(m.jobs[2].faults.is_some());
    }

    #[test]
    fn missing_jobs_is_an_error() {
        let err = parse_manifest(r#"{"workers": 2}"#).unwrap_err();
        assert!(err.message.contains("jobs"), "{err}");
    }

    #[test]
    fn bad_model_is_reported_with_index() {
        let err =
            parse_manifest(r#"{"jobs": [{"model": "z80", "workload": "specint"}]}"#).unwrap_err();
        assert!(err.message.contains("jobs[0]"), "{err}");
        assert!(err.message.contains("z80"), "{err}");
    }

    #[test]
    fn bad_probability_is_rejected() {
        let err = parse_manifest(
            r#"{"jobs": [{"model": "sa1100", "workload": "specint",
                          "faults": {"deny_allocate": 1.5}}]}"#,
        )
        .unwrap_err();
        assert!(err.message.contains("probability"), "{err}");
    }

    #[test]
    fn supervision_knobs_parse_with_defaults_and_overrides() {
        let text = r#"{
            "defaults": { "stall_budget": 5000, "retries": 3 },
            "jobs": [
                { "model": "sa1100", "workload": "specint" },
                { "model": "sa1100", "workload": "specint",
                  "stall_budget": 0, "deadline_ms": 250, "retries": 0 },
                { "model": "minirisc", "workload": "chaos:panic" }
            ]
        }"#;
        let m = parse_manifest(text).unwrap();
        assert_eq!(m.jobs[0].stall_budget, Some(5000));
        assert_eq!(m.jobs[0].deadline_ms, None);
        assert_eq!(m.jobs[0].retries, 3);
        assert_eq!(m.jobs[1].stall_budget, None, "0 disarms the watchdog");
        assert_eq!(m.jobs[1].deadline_ms, Some(250));
        assert_eq!(m.jobs[1].retries, 0);
        assert_eq!(
            m.jobs[2].workload,
            crate::job::WorkloadSpec::ChaosPanic,
            "chaos workloads are manifest-spellable"
        );
        // Untouched manifests keep the built-in supervision defaults.
        let plain =
            parse_manifest(r#"{"jobs":[{"model":"sa1100","workload":"specint"}]}"#).unwrap();
        assert_eq!(plain.jobs[0].stall_budget, Some(DEFAULT_STALL_BUDGET));
        assert_eq!(plain.jobs[0].retries, DEFAULT_RETRIES);
    }

    #[test]
    fn crash_survival_knobs_parse_with_defaults_and_overrides() {
        let text = r#"{
            "isolation": "process",
            "memory_limit_mb": 512,
            "cpu_limit_secs": 30,
            "defaults": { "checkpoint_every": 10000 },
            "jobs": [
                { "model": "sa1100", "workload": "specint" },
                { "model": "minirisc", "workload": "random:64",
                  "checkpoint_every": 0 },
                { "model": "vliw", "workload": "ilp:100:4",
                  "checkpoint_every": 2500 }
            ]
        }"#;
        let m = parse_manifest(text).unwrap();
        assert_eq!(m.isolation, IsolationMode::Process);
        assert_eq!(m.memory_limit_mb, Some(512));
        assert_eq!(m.cpu_limit_secs, Some(30));
        assert_eq!(m.jobs[0].checkpoint_every, 10_000, "defaults apply");
        assert_eq!(m.jobs[1].checkpoint_every, 0, "per-job opt-out");
        assert_eq!(m.jobs[2].checkpoint_every, 2_500, "per-job override");

        // Untouched manifests: in-process, unlimited, no checkpointing.
        let plain =
            parse_manifest(r#"{"jobs":[{"model":"sa1100","workload":"specint"}]}"#).unwrap();
        assert_eq!(plain.isolation, IsolationMode::InProcess);
        assert_eq!(plain.memory_limit_mb, None);
        assert_eq!(plain.cpu_limit_secs, None);
        assert_eq!(plain.jobs[0].checkpoint_every, 0);

        // Bad spellings are rejected with the field named.
        let err = parse_manifest(
            r#"{"isolation": "container",
                "jobs":[{"model":"sa1100","workload":"specint"}]}"#,
        )
        .unwrap_err();
        assert!(err.message.contains("isolation"), "{err}");
        let err = parse_manifest(
            r#"{"jobs":[{"model":"sa1100","workload":"specint",
                         "checkpoint_every": -3}]}"#,
        )
        .unwrap_err();
        assert!(err.message.contains("checkpoint_every"), "{err}");
    }

    #[test]
    fn farm_observability_flag_parses_and_rejects_non_booleans() {
        let m = parse_manifest(
            r#"{"farm_observability": true,
                "jobs":[{"model":"sa1100","workload":"specint"}]}"#,
        )
        .unwrap();
        assert!(m.farm_observability);
        let err = parse_manifest(
            r#"{"farm_observability": 1,
                "jobs":[{"model":"sa1100","workload":"specint"}]}"#,
        )
        .unwrap_err();
        assert!(err.message.contains("farm_observability"), "{err}");
    }

    #[test]
    fn fractional_workers_is_rejected() {
        let err = parse_manifest(r#"{"workers": 2.5, "jobs": []}"#).unwrap_err();
        assert!(err.message.contains("workers"), "{err}");
    }
}
