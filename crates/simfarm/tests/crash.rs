//! Hard-crash survival integration tests: durable mid-job checkpoints
//! restore digest-identically on every machine model (including
//! fuzzer-generated ADL machines), process isolation preserves the
//! canonical report, the journal records completed jobs while checkpoint
//! files alone record mid-job progress, and supervised panics never leak
//! onto stderr.

use osm_fuzz::{generate, GenConfig};
use proptest::prelude::*;
use sa1100::{SaConfig, SaOsmSim};
use simfarm::{
    checkpoint, journal, parse_manifest, run_farm, run_job, run_job_with, CheckpointCtl,
    FarmOptions, FarmReport, JobCheckpoint, JournalWriter, ModelKind, ProcessIsolation, SimJob,
    WorkloadSpec,
};
use std::path::PathBuf;

fn vliw_ilp(iters: i32, body: usize, max_cycles: u64) -> SimJob {
    SimJob::new(ModelKind::Vliw, WorkloadSpec::Ilp { iters, body }, max_cycles)
}

fn specint(model: ModelKind, max_cycles: u64) -> SimJob {
    SimJob::new(model, WorkloadSpec::Named("specint".into()), max_cycles)
}

/// A fresh scratch directory under the system temp dir, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!(
            "simfarm_crash_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs `job` three ways — no checkpointing, checkpointing from scratch,
/// and restoring the checkpoint the second run left behind — and asserts
/// all three land on the same digest and cycle count.
fn assert_checkpoint_roundtrip(mut job: SimJob, checkpoint_every: u64) {
    let scratch = Scratch::new("roundtrip");
    job.checkpoint_every = checkpoint_every;

    let baseline = {
        let mut plain = job.clone();
        plain.checkpoint_every = 0;
        run_job(&plain)
    };
    assert!(
        baseline.outcome.is_healthy(),
        "baseline for {} unhealthy: {:?}",
        job.name,
        baseline.outcome
    );

    // First checkpointed run: same digest, leaves a sealed checkpoint.
    let mut ctl = CheckpointCtl::new(&job, 0, &scratch.0).expect("checkpointing enabled");
    let first = run_job_with(&job, Some(&mut ctl), None);
    assert_eq!(first.digest, baseline.digest, "{}: checkpointing changed the digest", job.name);
    assert_eq!(first.cycles, baseline.cycles, "{}", job.name);
    assert!(first.restored_from.is_none(), "{}: nothing to restore from yet", job.name);
    assert!(
        scratch.0.join("job-0.ckpt").exists(),
        "{}: no checkpoint sealed (ran {} cycles, every {})",
        job.name,
        first.cycles,
        checkpoint_every
    );

    // Second run restores mid-job and continues to the same digest.
    let mut ctl = CheckpointCtl::new(&job, 0, &scratch.0).expect("checkpointing enabled");
    let second = run_job_with(&job, Some(&mut ctl), None);
    let restored = second
        .restored_from
        .unwrap_or_else(|| panic!("{}: second run did not restore", job.name));
    assert!(restored > 0 && restored <= first.cycles, "{}: restore point {restored}", job.name);
    assert_eq!(second.digest, baseline.digest, "{}: restored run diverged", job.name);
    assert_eq!(second.cycles, baseline.cycles, "{}", job.name);
    assert_eq!(second.outcome, baseline.outcome, "{}", job.name);
}

#[test]
fn checkpoint_restore_is_digest_identical_on_every_model() {
    let mut sa = specint(ModelKind::Sa1100, 200_000);
    sa.name = "ckpt/sa1100".into();
    assert_checkpoint_roundtrip(sa, 500);

    let mut ppc = specint(ModelKind::Ppc750, 200_000);
    ppc.name = "ckpt/ppc750".into();
    assert_checkpoint_roundtrip(ppc, 500);

    let mut iss = SimJob::minirisc_random(1, 64, 200_000);
    iss.name = "ckpt/minirisc".into();
    assert_checkpoint_roundtrip(iss, 500);

    let mut vliw = vliw_ilp(2_000, 8, 1_000_000);
    vliw.name = "ckpt/vliw".into();
    assert_checkpoint_roundtrip(vliw, 1_000);
}

#[test]
fn checkpoint_restore_is_digest_identical_on_synthesized_adl_machines() {
    for seed in [0x00u64, 0x5eed, 0xfeed_beef, 0x0de5_cafe] {
        let case = generate(seed, &GenConfig::default());
        let mut job = SimJob::adl(case.name.clone(), case.source, case.osms, case.max_cycles);
        job.faults = case.faults;
        let every = (case.max_cycles / 4).max(1);
        assert_checkpoint_roundtrip(job, every);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any generated machine, any checkpoint cadence that lands at least
    /// one save strictly inside the run (a cadence equal to the whole
    /// budget never seals — the final state needs no checkpoint): restore
    /// → continue must reproduce the uninterrupted digest.
    #[test]
    fn prop_checkpoint_roundtrip_over_generated_machines(
        seed in any::<u64>(),
        every_frac in 2u64..8,
    ) {
        let case = generate(seed, &GenConfig::default());
        let mut job = SimJob::adl(case.name.clone(), case.source, case.osms, case.max_cycles);
        job.faults = case.faults;
        let every = (case.max_cycles / every_frac).max(1);
        assert_checkpoint_roundtrip(job, every);
    }
}

/// A checkpoint file that is intact and bound to the job, but whose machine
/// bytes the job's machine rejects (they come from an SA-1100 built without
/// forwarding, so the register file refuses its section after the stage
/// pools before it were already applied). Restore is all-or-nothing, so the
/// job must run from the start on an untouched machine and land on the
/// uninterrupted digest.
#[test]
fn rejected_machine_checkpoint_runs_the_job_from_the_start() {
    let scratch = Scratch::new("rejected");
    let mut job = specint(ModelKind::Sa1100, 200_000);
    job.name = "ckpt/rejected".into();
    job.checkpoint_every = 500;
    let baseline = {
        let mut plain = job.clone();
        plain.checkpoint_every = 0;
        run_job(&plain)
    };

    let program = workloads::specint_mix().program();
    let mut foreign = SaOsmSim::new(
        SaConfig {
            forwarding: false,
            ..SaConfig::paper()
        },
        &program,
    )
    .into_machine();
    for _ in 0..700 {
        foreign.step().expect("foreign run steps");
    }
    let machine = foreign.checkpoint().expect("foreign checkpoint");
    let rejected = SaOsmSim::new(SaConfig::paper(), &program)
        .into_machine()
        .restore(&machine)
        .expect_err("the job's machine must reject these bytes");
    assert!(rejected.to_string().contains("regfile+fwd"), "{rejected}");
    let file = checkpoint::encode(
        checkpoint::job_checkpoint_digest(&job),
        &JobCheckpoint {
            cycle: 700,
            trace_hash: 0x1234,
            trace_total: 99,
            machine,
        },
    );
    checkpoint::store(&checkpoint::checkpoint_path(&scratch.0, 0), &file).expect("store");

    let mut ctl = CheckpointCtl::new(&job, 0, &scratch.0).expect("checkpointing enabled");
    assert!(
        ctl.load().is_some(),
        "the file itself is valid for this job"
    );
    let result = run_job_with(&job, Some(&mut ctl), None);
    assert_eq!(result.restored_from, None);
    assert_eq!(result.digest, baseline.digest);
    assert_eq!(result.cycles, baseline.cycles);
    assert_eq!(result.outcome, baseline.outcome);
}

/// A sweep over checkpointing jobs journals exactly one result record per
/// job and nothing else; the vliw job's mid-job progress is in its
/// checkpoint file.
#[test]
fn checkpointing_jobs_journal_only_their_results() {
    let scratch = Scratch::new("results-only");
    let mut vliw = vliw_ilp(2_000, 8, 1_000_000);
    vliw.name = "results-only/vliw".into();
    vliw.checkpoint_every = 1_000;
    let iss = SimJob::minirisc_random(1, 64, 200_000);
    let jobs = vec![vliw, iss];

    let journal_path = scratch.0.join("sweep.journal");
    let writer = JournalWriter::create(&journal_path, &jobs).expect("create journal");
    let run = run_farm(
        &jobs,
        2,
        FarmOptions {
            journal: Some(writer),
            checkpoint_dir: Some(scratch.0.clone()),
            ..FarmOptions::default()
        },
    )
    .expect("farm run");
    assert!(run.is_complete());

    let bytes = std::fs::read(&journal_path).expect("read journal");
    let (completed, valid_len) = journal::parse_bytes(&bytes, &jobs).expect("replay");
    assert_eq!(valid_len as usize, bytes.len());
    assert_eq!(completed.len(), jobs.len());
    let records: usize = completed
        .iter()
        .map(|(&index, result)| journal::record_bytes(index, result).unwrap().len())
        .sum();
    assert_eq!(
        bytes.len(),
        journal::header_bytes(&jobs).unwrap().len() + records,
        "the journal holds the header and one result record per job"
    );
    let ctl = CheckpointCtl::new(&jobs[0], 0, &scratch.0).expect("vliw checkpoints");
    assert!(ctl.load().is_some(), "the vliw job sealed a checkpoint");
}

#[test]
fn process_isolation_preserves_the_canonical_report() {
    let manifest_path = concat!(env!("CARGO_MANIFEST_DIR"), "/chaos.example.json");
    let text = std::fs::read_to_string(manifest_path).expect("read chaos manifest");
    let jobs = parse_manifest(&text).expect("parse chaos manifest").jobs;

    let baseline = run_farm(&jobs, 2, FarmOptions::default()).expect("in-process run");
    let baseline = FarmReport::consolidate_sweep(&baseline, 2, 0.0);

    let iso = ProcessIsolation {
        exe: PathBuf::from(env!("CARGO_BIN_EXE_simfarm")),
        manifest: PathBuf::from(manifest_path),
        memory_limit_mb: None,
        cpu_limit_secs: None,
    };
    let isolated = run_farm(
        &jobs,
        2,
        FarmOptions {
            isolation: Some(iso),
            ..FarmOptions::default()
        },
    )
    .expect("isolated run");
    let isolated = FarmReport::consolidate_sweep(&isolated, 2, 0.0);

    assert_eq!(isolated.killed, 0, "no child should die in a clean sweep");
    assert_eq!(
        isolated.canonical_text(),
        baseline.canonical_text(),
        "canonical text must not depend on the isolation mode"
    );
    assert_eq!(isolated.canonical_json(), baseline.canonical_json());
}

#[test]
fn supervised_panics_stay_off_stderr() {
    let manifest_path = concat!(env!("CARGO_MANIFEST_DIR"), "/chaos.example.json");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_simfarm"))
        .arg(manifest_path)
        .env("RUST_BACKTRACE", "1")
        .output()
        .expect("run simfarm CLI");
    // The chaos manifest quarantines its poison jobs: exit code 1.
    assert_eq!(out.status.code(), Some(1), "expected the unhealthy-jobs exit code");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !stderr.contains("panicked at"),
        "a supervised panic leaked onto stderr:\n{stderr}"
    );
    // The panic is still fully reported — typed, on stdout.
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("poison/panicker"), "summary lost the poison job:\n{stdout}");
    assert!(stdout.contains("quarantine"), "summary lost the quarantine section:\n{stdout}");
}

/// A journal torn inside its only result record replays no job, and the
/// job's checkpoint file still carries its progress: a rerun restores from
/// it and lands on the same digest.
#[test]
fn a_torn_result_leaves_the_checkpoint_file_as_the_record_of_progress() {
    let scratch = Scratch::new("torn");
    let mut vliw = vliw_ilp(2_000, 8, 1_000_000);
    vliw.name = "torn/vliw".into();
    vliw.checkpoint_every = 1_000;
    let jobs = vec![vliw];

    let journal_path = scratch.0.join("sweep.journal");
    let writer = JournalWriter::create(&journal_path, &jobs).expect("create journal");
    let run = run_farm(
        &jobs,
        1,
        FarmOptions {
            journal: Some(writer),
            checkpoint_dir: Some(scratch.0.clone()),
            ..FarmOptions::default()
        },
    )
    .expect("farm run");
    assert!(run.is_complete());

    let bytes = std::fs::read(&journal_path).expect("read journal");
    let torn = &bytes[..bytes.len() - 3];
    let (completed, valid_len) = journal::parse_bytes(torn, &jobs).expect("torn journal parses");
    assert!(completed.is_empty(), "the only result record was torn off");
    let header_len = journal::header_bytes(&jobs).unwrap().len();
    assert_eq!(valid_len as usize, header_len);

    let mut ctl = CheckpointCtl::new(&jobs[0], 0, &scratch.0).expect("checkpointing enabled");
    let saved = ctl.load().expect("the checkpoint file survives");
    let rerun = run_job_with(&jobs[0], Some(&mut ctl), None);
    assert_eq!(rerun.restored_from, Some(saved.cycle));
    assert_eq!(rerun.digest, run.completed[&0].digest);
    assert_eq!(rerun.cycles, run.completed[&0].cycles);
}
