//! `simfarm` — run a sweep manifest across worker threads, supervised.
//!
//! ```text
//! simfarm <manifest.json> [--workers N] [--serial] [--json] [--out FILE]
//!                         [--journal FILE | --resume FILE] [--max-wall SECS]
//!                         [--progress] [--heartbeat SECS]
//!                         [--farm-trace FILE] [--timing-out FILE]
//!                         [--isolation process|in-process]
//!                         [--mem-limit MB] [--cpu-limit SECS]
//!                         [--checkpoint-dir DIR]
//! simfarm --run-one <manifest.json> <job-index> [--checkpoint-dir DIR]
//! ```
//!
//! Prints a concise human summary to stdout by default; `--json` prints the
//! full report JSON instead, and `--out` additionally writes that JSON to a
//! file. All progress display goes to stderr, so stdout stays pipeable.
//!
//! * `--journal FILE` starts a fresh sweep journal: every completed job is
//!   appended (and flushed) the moment it finishes.
//! * `--resume FILE` replays an existing journal, skips every job already
//!   completed, and appends the rest. Torn trailing writes (a killed sweep)
//!   are tolerated; corrupt records and journals from a different manifest
//!   are rejected.
//! * `--max-wall SECS` cancels the sweep cooperatively after a wall-clock
//!   budget: in-flight jobs finish, the journal is flushed, and the run
//!   exits resumable. The cancellation notice carries elapsed-time and
//!   jobs-completed context through the progress channel.
//! * `--progress` draws a throttled live status line (jobs done/total,
//!   quarantined count, cycles/sec, ETA); `--heartbeat SECS` prints a
//!   snapshot line on a fixed interval instead/additionally (for logs that
//!   don't render `\r`).
//! * `--farm-trace FILE` writes the farm schedule as a Chrome/Perfetto
//!   trace (workers as tracks, jobs as slices, steals/retries as
//!   instants); `--timing-out FILE` writes the fleet timing JSON
//!   (utilization, per-job phase breakdown, histograms). Both imply farm
//!   observability, as does `"farm_observability": true` in the manifest.
//!   Timing output is explicitly **non-canonical**; the report renderings
//!   stay byte-identical with observability on or off.
//! * `--isolation process` runs every job attempt in a re-exec'd child
//!   process (`simfarm --run-one`), so hard crashes — aborts, OOM kills,
//!   stack overflows — are contained and surface as typed `killed`
//!   outcomes instead of taking the coordinator down. `--mem-limit MB`
//!   and `--cpu-limit SECS` apply `ulimit` budgets to each child;
//!   the flags override the manifest's `isolation` / `memory_limit_mb` /
//!   `cpu_limit_secs` knobs.
//! * Jobs with `checkpoint_every > 0` seal durable mid-job checkpoints.
//!   With `--journal`/`--resume` the checkpoint directory defaults to
//!   `<journal>.ckpt/`; `--checkpoint-dir DIR` overrides it (or enables
//!   checkpointing without a journal). On `--resume`, interrupted jobs
//!   restart from their last durable checkpoint instead of cycle 0 and
//!   report digests identical to an uninterrupted run.
//! * `--run-one` is the internal child-process entry point used by
//!   `--isolation process`; it runs one job attempt and writes its result
//!   to stdout as one journal record frame.
//!
//! Exit codes: `0` complete and healthy, `1` complete with unhealthy jobs
//! (failed/panicked/stalled/quarantined), `2` usage, `3` farm error (broken
//! assembly invariant, unusable journal), `5` cancelled before completion
//! (resume with `--resume`).

use simfarm::{
    parse_manifest, run_farm, FarmObserver, FarmOptions, FarmReport, IsolationMode, JournalWriter,
    ProcessIsolation, ProgressMeter,
};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn usage() -> ! {
    eprintln!(
        "usage: simfarm <manifest.json> [--workers N] [--serial] [--json] [--out FILE]\n\
         \x20                          [--journal FILE | --resume FILE] [--max-wall SECS]\n\
         \x20                          [--progress] [--heartbeat SECS]\n\
         \x20                          [--farm-trace FILE] [--timing-out FILE]\n\
         \x20                          [--isolation process|in-process]\n\
         \x20                          [--mem-limit MB] [--cpu-limit SECS]\n\
         \x20                          [--checkpoint-dir DIR]\n\
         \x20      simfarm --run-one <manifest.json> <job-index> [--checkpoint-dir DIR]"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    // Child-process mode must win before any other parsing: the coordinator
    // re-execs this same binary as `simfarm --run-one ...` for each isolated
    // job attempt.
    let raw: Vec<String> = std::env::args().collect();
    if raw.get(1).map(String::as_str) == Some("--run-one") {
        return ExitCode::from(simfarm::exec::run_one_main(&raw[2..]) as u8);
    }

    let mut manifest_path: Option<String> = None;
    let mut workers_flag: Option<usize> = None;
    let mut serial = false;
    let mut json = false;
    let mut out: Option<String> = None;
    let mut journal_path: Option<String> = None;
    let mut resume = false;
    let mut max_wall: Option<f64> = None;
    let mut progress = false;
    let mut heartbeat: Option<f64> = None;
    let mut farm_trace: Option<String> = None;
    let mut timing_out: Option<String> = None;
    let mut isolation_flag: Option<IsolationMode> = None;
    let mut mem_limit: Option<u64> = None;
    let mut cpu_limit: Option<u64> = None;
    let mut checkpoint_dir_flag: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workers" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n > 0 => workers_flag = Some(n),
                _ => usage(),
            },
            "--serial" => serial = true,
            "--json" => json = true,
            "--out" => match args.next() {
                Some(path) => out = Some(path),
                None => usage(),
            },
            "--journal" => match args.next() {
                Some(path) if journal_path.is_none() => journal_path = Some(path),
                _ => usage(),
            },
            "--resume" => match args.next() {
                Some(path) if journal_path.is_none() => {
                    journal_path = Some(path);
                    resume = true;
                }
                _ => usage(),
            },
            "--max-wall" => match args.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(s) if s > 0.0 => max_wall = Some(s),
                _ => usage(),
            },
            "--progress" => progress = true,
            "--heartbeat" => match args.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(s) if s > 0.0 => heartbeat = Some(s),
                _ => usage(),
            },
            "--farm-trace" => match args.next() {
                Some(path) => farm_trace = Some(path),
                None => usage(),
            },
            "--timing-out" => match args.next() {
                Some(path) => timing_out = Some(path),
                None => usage(),
            },
            "--isolation" => match args.next().as_deref().and_then(IsolationMode::parse) {
                Some(mode) => isolation_flag = Some(mode),
                None => usage(),
            },
            "--mem-limit" => match args.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(mb) if mb > 0 => mem_limit = Some(mb),
                _ => usage(),
            },
            "--cpu-limit" => match args.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(secs) if secs > 0 => cpu_limit = Some(secs),
                _ => usage(),
            },
            "--checkpoint-dir" => match args.next() {
                Some(dir) => checkpoint_dir_flag = Some(dir),
                None => usage(),
            },
            "--help" | "-h" => usage(),
            _ if manifest_path.is_none() && !arg.starts_with('-') => manifest_path = Some(arg),
            _ => usage(),
        }
    }
    let Some(manifest_path) = manifest_path else {
        usage();
    };

    let text = match std::fs::read_to_string(&manifest_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("simfarm: cannot read {manifest_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let manifest = match parse_manifest(&text) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("simfarm: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Precedence: --serial > --workers > manifest "workers" > hardware.
    let workers = if serial {
        1
    } else {
        workers_flag
            .or(manifest.workers)
            .unwrap_or_else(default_workers)
    };

    let mut options = FarmOptions::default();
    if let Some(path) = &journal_path {
        if resume {
            match JournalWriter::resume(path, &manifest.jobs) {
                Ok((writer, completed)) => {
                    eprintln!(
                        "simfarm: resuming from {path}: {} of {} job(s) already completed",
                        completed.len(),
                        manifest.jobs.len()
                    );
                    options.journal = Some(writer);
                    options.completed = completed;
                }
                Err(e) => {
                    eprintln!("simfarm: cannot resume {path}: {e}");
                    return ExitCode::from(3);
                }
            }
        } else {
            match JournalWriter::create(path, &manifest.jobs) {
                Ok(writer) => options.journal = Some(writer),
                Err(e) => {
                    eprintln!("simfarm: cannot create journal {path}: {e}");
                    return ExitCode::from(3);
                }
            }
        }
    }

    // Durable mid-job checkpoints: any job with `checkpoint_every > 0`
    // needs a directory to seal its state into. An explicit
    // `--checkpoint-dir` always wins; otherwise a journaled sweep derives
    // `<journal>.ckpt/` so `--resume` finds the same files again.
    let wants_checkpoints = manifest.jobs.iter().any(|j| j.checkpoint_every > 0);
    let checkpoint_dir: Option<PathBuf> = match (&checkpoint_dir_flag, &journal_path) {
        (Some(dir), _) => Some(PathBuf::from(dir)),
        (None, Some(journal)) if wants_checkpoints => Some(PathBuf::from(format!("{journal}.ckpt"))),
        _ => None,
    };
    if let Some(dir) = &checkpoint_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("simfarm: cannot create checkpoint dir {}: {e}", dir.display());
            return ExitCode::from(3);
        }
        options.checkpoint_dir = Some(dir.clone());
    }

    // Process isolation: the flag overrides the manifest knob; resource
    // budgets compose the same way. The child re-execs this very binary
    // with `--run-one`.
    let isolation_mode = isolation_flag.unwrap_or(manifest.isolation);
    if isolation_mode == IsolationMode::Process {
        match ProcessIsolation::current_exe(&manifest_path) {
            Ok(mut iso) => {
                iso.memory_limit_mb = mem_limit.or(manifest.memory_limit_mb);
                iso.cpu_limit_secs = cpu_limit.or(manifest.cpu_limit_secs);
                options.isolation = Some(iso);
            }
            Err(e) => {
                eprintln!("simfarm: cannot locate own executable for --isolation process: {e}");
                return ExitCode::from(3);
            }
        }
    }

    // Farm observability: asked for by the manifest, or implied by any flag
    // that needs the schedule. Off otherwise, keeping the farm on the plain
    // hot loop.
    let observe =
        manifest.farm_observability || farm_trace.is_some() || timing_out.is_some();
    if observe {
        options.observer = Some(FarmObserver::new());
    }

    // The progress meter exists whenever anything routes through it (live
    // line, heartbeat, wall-budget notices); the live redraw only with
    // `--progress`.
    let meter = ProgressMeter::new(manifest.jobs.len(), progress);
    meter.record_restored(options.completed.len());
    {
        let meter = meter.clone();
        options.on_result = Some(Box::new(move |_, result| meter.record(result)));
    }

    let heartbeat_stop = Arc::new(AtomicBool::new(false));
    let heartbeat_thread = heartbeat.map(|secs| {
        let meter = meter.clone();
        let stop = Arc::clone(&heartbeat_stop);
        std::thread::spawn(move || {
            let interval = Duration::from_secs_f64(secs);
            let mut next = Instant::now() + interval;
            while !stop.load(Ordering::Acquire) {
                if Instant::now() >= next {
                    meter.heartbeat();
                    next += interval;
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        })
    });

    if let Some(secs) = max_wall {
        let cancel = options.cancel.clone();
        let meter = meter.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_secs_f64(secs));
            meter.note(&format!(
                "wall budget ({secs}s) exhausted — cancelling cooperatively"
            ));
            cancel.cancel();
        });
    }

    let start = Instant::now();
    let run = match run_farm(&manifest.jobs, workers, options) {
        Ok(run) => run,
        Err(e) => {
            heartbeat_stop.store(true, Ordering::Release);
            eprintln!("simfarm: {e}");
            return ExitCode::from(3);
        }
    };
    let wall = start.elapsed().as_secs_f64();
    heartbeat_stop.store(true, Ordering::Release);
    if let Some(handle) = heartbeat_thread {
        let _ = handle.join();
    }
    meter.finish();
    let report = FarmReport::consolidate_sweep(&run, workers, wall);

    if json {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.summary_text());
    }
    if let Some(path) = out {
        if let Err(e) = std::fs::write(&path, format!("{}\n", report.to_json())) {
            eprintln!("simfarm: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(path) = farm_trace {
        match report.schedule.as_ref() {
            Some(schedule) => {
                if let Err(e) = std::fs::write(&path, schedule.trace_json()) {
                    eprintln!("simfarm: cannot write {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
            None => eprintln!("simfarm: no farm schedule recorded, skipping {path}"),
        }
    }
    if let Some(path) = timing_out {
        match report.timing_json() {
            Some(timing) => {
                if let Err(e) = std::fs::write(&path, format!("{timing}\n")) {
                    eprintln!("simfarm: cannot write {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
            None => eprintln!("simfarm: no farm schedule recorded, skipping {path}"),
        }
    }

    if run.cancelled && !run.is_complete() {
        let hint = journal_path
            .map(|p| format!(" (resume with --resume {p})"))
            .unwrap_or_default();
        eprintln!(
            "simfarm: cancelled with {} job(s) pending{hint}",
            report.pending
        );
        return ExitCode::from(5);
    }
    if report.failures > 0 {
        eprintln!("simfarm: {} unhealthy job(s)", report.failures);
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}
