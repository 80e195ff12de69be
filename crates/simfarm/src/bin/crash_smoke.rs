//! `crash_smoke` — the CI gate for hard-crash survival.
//!
//! Where `chaos_smoke` covers *soft* failures (panics, stalls,
//! misconfiguration) contained in-process, this gate covers failures no
//! amount of `catch_unwind` survives: a worker process dying to SIGKILL
//! mid-job, and the coordinator itself dying to SIGKILL mid-sweep. It
//! enforces, in order:
//!
//! 1. **Isolation invariance**: a sweep run under `--isolation process`
//!    (every attempt in a re-exec'd `simfarm --run-one` child) produces
//!    canonical report renderings byte-identical to the in-process
//!    baseline.
//! 2. **Worker-kill absorption**: SIGKILL-ing an isolated worker child
//!    mid-job surfaces as a typed kill, the retry restores the job from
//!    its last durable mid-job checkpoint, and the final canonical report
//!    is byte-identical to the baseline. The journal must hold exactly one
//!    result record per job, and nothing else, although the victim ran
//!    more than one attempt: the checkpoint file is the only record of
//!    mid-job progress.
//! 3. **Coordinator-kill survival**: SIGKILL-ing the whole `simfarm`
//!    coordinator mid-sweep leaves a resumable journal + checkpoint
//!    directory; `--resume` completes the sweep and the canonical report
//!    is byte-identical to the baseline.
//!
//! Only meaningful on Unix (signals, `/proc`); exits 0 trivially
//! elsewhere.

use osm_core::persist::{fnv, ByteReader};
use simfarm::{
    journal, parse_manifest, run_farm, FarmOptions, FarmReport, JournalWriter, ProcessIsolation,
};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The sweep shared by every phase, written to disk so the re-exec'd
/// `--run-one` children parse the exact same jobs. Job 0 is the kill
/// victim: long enough (several seconds of simulated VLIW ILP) that the
/// killer thread always lands mid-job, checkpointing every 50k cycles so
/// the post-kill retry restores instead of starting over. The observed job
/// puts its stall causes in the canonical report, so the gates also cover
/// the fleet stall roll-up read back from journal frames.
const MANIFEST: &str = r#"{
  "workers": 2,
  "defaults": { "max_cycles": 50000000 },
  "jobs": [
    { "name": "crash/victim", "model": "vliw", "workload": "ilp:600000:8",
      "retries": 2, "checkpoint_every": 50000 },
    { "name": "crash/healthy-sa", "model": "sa1100", "workload": "specint" },
    { "name": "crash/healthy-iss", "model": "minirisc", "workload": "random:64", "seed": 5 },
    { "name": "crash/healthy-ppc", "model": "ppc750", "workload": "specint" },
    { "name": "crash/observed-sa", "model": "sa1100", "workload": "specint",
      "observability": true }
  ]
}"#;

fn fail(msg: &str) -> ExitCode {
    eprintln!("crash_smoke: FAIL — {msg}");
    ExitCode::FAILURE
}

/// The `simfarm` CLI binary, sitting next to this smoke binary in the
/// cargo target directory.
fn simfarm_exe() -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("cannot locate own exe: {e}"))?;
    let exe = me
        .parent()
        .ok_or("own exe has no parent directory")?
        .join(format!("simfarm{}", std::env::consts::EXE_SUFFIX));
    if !exe.exists() {
        return Err(format!(
            "{} not built — run `cargo build -p simfarm` first",
            exe.display()
        ));
    }
    Ok(exe)
}

/// Finds the pid of a live `simfarm --run-one` child working on the given
/// manifest, by scanning `/proc/<pid>/cmdline`.
fn find_run_one_child(manifest: &Path) -> Option<u32> {
    let manifest = manifest.to_string_lossy().into_owned();
    for entry in std::fs::read_dir("/proc").ok()?.flatten() {
        let name = entry.file_name();
        let Ok(pid) = name.to_string_lossy().parse::<u32>() else {
            continue;
        };
        let Ok(cmdline) = std::fs::read(format!("/proc/{pid}/cmdline")) else {
            continue;
        };
        let argv: Vec<&str> = cmdline
            .split(|&b| b == 0)
            .map(|s| std::str::from_utf8(s).unwrap_or(""))
            .collect();
        if argv.contains(&"--run-one") && argv.iter().any(|a| *a == manifest) {
            return Some(pid);
        }
    }
    None
}

/// SIGKILLs a pid. Spawns `kill` via the shell so no FFI is needed.
fn sigkill(pid: u32) {
    let _ = std::process::Command::new("sh")
        .arg("-c")
        .arg(format!("kill -9 {pid}"))
        .status();
}

fn main() -> ExitCode {
    if !cfg!(unix) {
        println!("crash_smoke: SKIP (requires Unix signals and /proc)");
        return ExitCode::SUCCESS;
    }
    let exe = match simfarm_exe() {
        Ok(exe) => exe,
        Err(msg) => return fail(&msg),
    };
    let dir = std::env::temp_dir().join(format!("crash_smoke_{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        return fail(&format!("cannot create {}: {e}", dir.display()));
    }
    let manifest_path = dir.join("sweep.json");
    if let Err(e) = std::fs::write(&manifest_path, MANIFEST) {
        return fail(&format!("cannot write manifest: {e}"));
    }
    let manifest = match parse_manifest(MANIFEST) {
        Ok(m) => m,
        Err(e) => return fail(&format!("manifest rejected: {e}")),
    };
    let jobs = manifest.jobs;
    println!("crash_smoke: {} jobs, victim = {}", jobs.len(), jobs[0].name);

    // Baseline: plain in-process run, no interference.
    let baseline = match run_farm(&jobs, 2, FarmOptions::default()) {
        Ok(run) => FarmReport::consolidate_sweep(&run, 2, 0.0),
        Err(e) => return fail(&format!("baseline run failed: {e}")),
    };
    if baseline.failures > 0 {
        return fail(&format!("baseline has {} failure(s)", baseline.failures));
    }
    let canon_text = baseline.canonical_text();
    let canon_json = baseline.canonical_json();
    println!("  baseline: {} jobs healthy, canonical captured", baseline.jobs.len());

    let isolation = |ckpt: &Path| {
        let mut iso = ProcessIsolation::current_exe(&manifest_path).unwrap();
        iso.exe = exe.clone();
        let _ = ckpt; // checkpoint dir travels via FarmOptions, not the iso config
        iso
    };

    // Gate 1: process isolation, unmolested — canonical must not move.
    let ckpt1 = dir.join("iso.ckpt");
    if let Err(e) = std::fs::create_dir_all(&ckpt1) {
        return fail(&format!("cannot create {}: {e}", ckpt1.display()));
    }
    let iso_run = match run_farm(
        &jobs,
        2,
        FarmOptions {
            isolation: Some(isolation(&ckpt1)),
            checkpoint_dir: Some(ckpt1.clone()),
            ..FarmOptions::default()
        },
    ) {
        Ok(run) => FarmReport::consolidate_sweep(&run, 2, 0.0),
        Err(e) => return fail(&format!("isolated run failed: {e}")),
    };
    if iso_run.canonical_text() != canon_text || iso_run.canonical_json() != canon_json {
        return fail("process-isolated canonical report differs from the in-process baseline");
    }
    println!("  isolation: canonical report byte-identical to in-process");

    // Gate 2: SIGKILL the victim's worker child mid-job. The killer waits
    // for the victim's first durable checkpoint, so the retry provably has
    // something to restore from; `retries: 2` absorbs the kill.
    let ckpt2 = dir.join("kill.ckpt");
    if let Err(e) = std::fs::create_dir_all(&ckpt2) {
        return fail(&format!("cannot create {}: {e}", ckpt2.display()));
    }
    let journal2 = dir.join("kill.journal");
    let writer = match JournalWriter::create(&journal2, &jobs) {
        Ok(w) => w,
        Err(e) => return fail(&format!("cannot create journal: {e}")),
    };
    let victim_ckpt = ckpt2.join("job-0.ckpt");
    let killer = {
        let manifest_path = manifest_path.clone();
        std::thread::spawn(move || {
            let deadline = Instant::now() + Duration::from_secs(60);
            while Instant::now() < deadline {
                if victim_ckpt.exists() {
                    if let Some(pid) = find_run_one_child(&manifest_path) {
                        sigkill(pid);
                        return Some(pid);
                    }
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            None
        })
    };
    let killed_run = match run_farm(
        &jobs,
        2,
        FarmOptions {
            isolation: Some(isolation(&ckpt2)),
            checkpoint_dir: Some(ckpt2.clone()),
            journal: Some(writer),
            ..FarmOptions::default()
        },
    ) {
        Ok(run) => FarmReport::consolidate_sweep(&run, 2, 0.0),
        Err(e) => return fail(&format!("worker-kill run failed: {e}")),
    };
    let Some(pid) = killer.join().unwrap_or(None) else {
        return fail("killer thread never saw a checkpointed --run-one child to kill");
    };
    if killed_run.jobs[0].attempts < 2 {
        return fail(&format!(
            "victim finished in {} attempt(s) — the SIGKILL of pid {pid} landed too late",
            killed_run.jobs[0].attempts
        ));
    }
    if killed_run.checkpoint_restores < 1 {
        return fail("post-kill retry did not restore from the durable checkpoint");
    }
    if killed_run.canonical_text() != canon_text || killed_run.canonical_json() != canon_json {
        return fail("worker-kill canonical report differs from the baseline");
    }
    let journal_bytes = match std::fs::read(&journal2) {
        Ok(b) => b,
        Err(e) => return fail(&format!("cannot read kill journal: {e}")),
    };
    let (completed, valid_len) = match journal::parse_bytes(&journal_bytes, &jobs) {
        Ok(replay) => replay,
        Err(e) => return fail(&format!("kill journal does not replay: {e}")),
    };
    if valid_len != journal_bytes.len() as u64 {
        return fail(&format!(
            "kill journal's valid prefix is {valid_len} of {} bytes",
            journal_bytes.len()
        ));
    }
    // The map keeps one result per job; counting the frames after the
    // header rules out a second record for any job.
    let header_len = journal::header_bytes(&jobs).map_or(0, |h| h.len());
    let mut frames = ByteReader::new(&journal_bytes[header_len..]);
    let mut records = 0;
    while let Ok(Some(_)) = frames.take_frame(fnv) {
        records += 1;
    }
    if completed.len() != jobs.len() || records != jobs.len() {
        return fail(&format!(
            "kill journal holds {records} record(s) for {} job(s); want exactly one result per job ({})",
            completed.len(),
            jobs.len()
        ));
    }
    println!(
        "  worker kill: pid {pid} SIGKILLed, {} attempt(s), {} checkpoint restore(s), canonical byte-identical",
        killed_run.jobs[0].attempts, killed_run.checkpoint_restores
    );

    // Gate 3: SIGKILL the whole coordinator mid-sweep, then resume from
    // the journal + checkpoint directory it left behind. The CLI derives
    // `<journal>.ckpt/` itself.
    let journal3 = dir.join("coord.journal");
    let ckpt3 = dir.join("coord.journal.ckpt");
    let mut coordinator = match std::process::Command::new(&exe)
        .arg(&manifest_path)
        .args(["--workers", "2", "--isolation", "process"])
        .arg("--journal")
        .arg(&journal3)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
    {
        Ok(child) => child,
        Err(e) => return fail(&format!("cannot spawn coordinator: {e}")),
    };
    let deadline = Instant::now() + Duration::from_secs(60);
    let victim_ckpt = ckpt3.join("job-0.ckpt");
    let mut armed = false;
    while Instant::now() < deadline {
        if let Ok(Some(status)) = coordinator.try_wait() {
            return fail(&format!(
                "coordinator finished ({status}) before the SIGKILL could land"
            ));
        }
        if victim_ckpt.exists() {
            armed = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    if !armed {
        let _ = coordinator.kill();
        return fail("coordinator never sealed the victim's first checkpoint");
    }
    if let Err(e) = coordinator.kill() {
        return fail(&format!("cannot SIGKILL coordinator: {e}"));
    }
    let _ = coordinator.wait();
    // Reap any orphaned --run-one children the dead coordinator left
    // behind before resuming, so they stop advancing checkpoints.
    while let Some(pid) = find_run_one_child(&manifest_path) {
        sigkill(pid);
        std::thread::sleep(Duration::from_millis(10));
    }
    let (writer, completed) = match JournalWriter::resume(&journal3, &jobs) {
        Ok(pair) => pair,
        Err(e) => return fail(&format!("cannot resume coordinator journal: {e}")),
    };
    println!(
        "  coordinator kill: journal replays {} completed",
        completed.len()
    );
    let resumed = match run_farm(
        &jobs,
        2,
        FarmOptions {
            completed,
            journal: Some(writer),
            checkpoint_dir: Some(ckpt3.clone()),
            ..FarmOptions::default()
        },
    ) {
        Ok(run) => run,
        Err(e) => return fail(&format!("resumed run failed: {e}")),
    };
    if !resumed.is_complete() {
        return fail("resumed run did not complete the sweep");
    }
    let resumed = FarmReport::consolidate_sweep(&resumed, 2, 0.0);
    if resumed.canonical_text() != canon_text || resumed.canonical_json() != canon_json {
        return fail("post-coordinator-kill canonical report differs from the baseline");
    }
    println!("  coordinator kill: resumed sweep canonical byte-identical");

    let _ = std::fs::remove_dir_all(&dir);
    println!("crash_smoke: PASS");
    ExitCode::SUCCESS
}
