//! Golden pin of every model's `JobResult`: a fixed job set — healthy jobs
//! on all five model kinds, fault-injected, stalled, budget-exhausted and
//! failing jobs, and checkpointed jobs restored mid-run — rendered as the
//! sweep journal's record payload JSON, one line per job, and compared
//! byte-for-byte against `tests/golden/job_results.jsonl`.
//!
//! Regenerate after an intentional change to a model or to the journal
//! encoding with: `BLESS=1 cargo test -p simfarm --test job_results`

use osm_core::FaultPlan;
use simfarm::journal::record_bytes;
use simfarm::{run_job, run_job_with, CheckpointCtl, JobResult, ModelKind, SimJob, WorkloadSpec};
use std::path::PathBuf;

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

fn named(model: ModelKind, workload: &str, max_cycles: u64, name: &str) -> SimJob {
    let mut job = SimJob::new(model, WorkloadSpec::Named(workload.into()), max_cycles);
    job.name = name.into();
    job
}

/// Jobs run once by [`run_job`].
fn plain_jobs() -> Vec<SimJob> {
    let mut jobs = vec![
        named(ModelKind::Sa1100, "specint", 20_000, "sa1100/healthy"),
        named(ModelKind::Ppc750, "specint", 20_000, "ppc750/healthy"),
    ];
    let mut iss = SimJob::minirisc_random(7, 48, 50_000);
    iss.name = "minirisc/healthy".into();
    jobs.push(iss);
    let mut vliw = SimJob::new(
        ModelKind::Vliw,
        WorkloadSpec::Ilp { iters: 50, body: 6 },
        100_000,
    );
    vliw.name = "vliw/healthy-observed".into();
    vliw.observability = true;
    jobs.push(vliw);
    jobs.push(SimJob::adl("adl/healthy", ADL_PIPE, 4, 3_000));
    let mut adl = SimJob::adl("adl/faults-observed", ADL_PIPE, 2, 300);
    adl.observability = true;
    adl.faults = Some(FaultPlan::new(9).deny_allocate(0.5));
    jobs.push(adl);

    let mut faults = named(ModelKind::Sa1100, "specint", 20_000, "sa1100/faults");
    faults.faults = Some(FaultPlan::new(0xFA0).deny_allocate(0.02));
    jobs.push(faults);
    let mut stall = named(
        ModelKind::Sa1100,
        "specint",
        50_000_000,
        "sa1100/blackhole-stall",
    );
    stall.stall_budget = Some(500);
    stall.faults = Some(FaultPlan::new(1).blackhole(100, u64::MAX));
    jobs.push(stall);
    // Stalls in a later chunk: retired/exit_code come from the last chunk
    // that completed.
    let mut late = named(
        ModelKind::Sa1100,
        "specint",
        50_000_000,
        "sa1100/late-stall",
    );
    late.stall_budget = Some(500);
    late.faults = Some(FaultPlan::new(1).blackhole(5_000, u64::MAX));
    jobs.push(late);
    let mut adl_stall = SimJob::adl("adl/late-stall", ADL_PIPE, 4, 20_000);
    adl_stall.stall_budget = Some(200);
    adl_stall.faults = Some(FaultPlan::new(3).blackhole(3_000, u64::MAX));
    jobs.push(adl_stall);

    jobs.push(named(ModelKind::Sa1100, "specint", 3_000, "sa1100/budget"));
    jobs.push(named(ModelKind::Ppc750, "specint", 3_000, "ppc750/budget"));
    let mut iss_budget = SimJob::minirisc_random(3, 400, 1_000);
    iss_budget.name = "minirisc/budget".into();
    jobs.push(iss_budget);

    jobs.push(named(
        ModelKind::Sa1100,
        "no-such-workload",
        1_000,
        "sa1100/unknown-workload",
    ));
    jobs.push(SimJob::adl("adl/bad-source", "machine oops {", 1, 10));
    jobs.push(named(ModelKind::Vliw, "specint", 1_000, "vliw/not-ilp"));
    jobs
}

/// Jobs run twice under a checkpoint controller: the first run seals
/// checkpoints, the second restores the last one mid-run. Only the second
/// result is pinned.
fn checkpointed_jobs() -> Vec<SimJob> {
    let mut sa = named(ModelKind::Sa1100, "specint", 20_000, "sa1100/restored");
    sa.checkpoint_every = 3_000;
    let mut iss = SimJob::minirisc_random(1, 64, 200_000);
    iss.name = "minirisc/restored".into();
    iss.checkpoint_every = 500;
    let mut adl = SimJob::adl("adl/restored", ADL_PIPE, 4, 1_000);
    adl.checkpoint_every = 300;
    vec![sa, iss, adl]
}

/// A fresh scratch directory under the system temp dir, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("simfarm_golden_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn restored_run(job: &SimJob, index: usize, dir: &std::path::Path) -> JobResult {
    let mut ctl = CheckpointCtl::new(job, index, dir).expect("checkpointing enabled");
    run_job_with(job, Some(&mut ctl), None);
    let mut ctl = CheckpointCtl::new(job, index, dir).expect("checkpointing enabled");
    let result = run_job_with(job, Some(&mut ctl), None);
    assert!(
        result.restored_from.is_some(),
        "{}: did not restore",
        job.name
    );
    result
}

/// The journal record's JSON payload (between the length prefix and the
/// trailing digest).
fn payload(index: usize, result: &JobResult) -> String {
    let bytes = record_bytes(index, result).expect("record encodes");
    String::from_utf8(bytes[4..bytes.len() - 8].to_vec()).expect("payload is UTF-8")
}

#[test]
fn job_results_match_golden_file() {
    let scratch = Scratch::new("restored");
    let mut lines = Vec::new();
    for (index, job) in plain_jobs().iter().enumerate() {
        lines.push(payload(index, &run_job(job)));
    }
    let offset = lines.len();
    for (k, job) in checkpointed_jobs().iter().enumerate() {
        lines.push(payload(offset + k, &restored_run(job, k, &scratch.0)));
    }
    let actual = lines.join("\n") + "\n";

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/job_results.jsonl");
    if std::env::var_os("BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing {} ({e}); run with BLESS=1", path.display()));
    for (k, (a, g)) in actual.lines().zip(golden.lines()).enumerate() {
        assert_eq!(a, g, "job result {k} drifted from the golden file");
    }
    assert_eq!(
        actual, golden,
        "job result count drifted from the golden file"
    );
}
