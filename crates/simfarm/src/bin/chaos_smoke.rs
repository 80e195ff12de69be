//! `chaos_smoke` — the CI gate for the supervised farm.
//!
//! Runs a mixed sweep — healthy jobs alongside a panicking job, a
//! deterministically stalling job (permanent blackhole on the fetch stage,
//! tight stall budget), a misconfigured job and an ADL machine that
//! deadlocks — and enforces, in order:
//!
//! 1. **Typed containment**: every healthy job completes with its normal
//!    outcome; every poison job comes back with its precise typed outcome
//!    (quarantined panic / stall / failure / deadlock) instead of killing
//!    the sweep.
//! 2. **Byte-identity across worker counts**: the canonical report
//!    renderings (text and JSON) from 1-, 2- and 8-worker runs are equal
//!    byte for byte.
//! 3. **Byte-identity across interruption**: a journaled sweep cancelled
//!    mid-run and then resumed from its journal produces the same canonical
//!    renderings as an uninterrupted run.
//! 4. **Torn-tail tolerance**: truncating the journal mid-record loses only
//!    the torn record; replaying the valid prefix still resumes.

use osm_core::FaultPlan;
use simfarm::{
    journal, run_farm, CancelToken, FarmOptions, FarmReport, JournalWriter, ModelKind, SimJob,
    JobOutcome, WorkloadSpec,
};
use std::process::ExitCode;

fn jobs() -> Vec<SimJob> {
    let mut out = Vec::new();

    let mut healthy_sa = SimJob::new(
        ModelKind::Sa1100,
        WorkloadSpec::Named("specint".into()),
        200_000,
    );
    healthy_sa.name = "chaos/healthy-sa1100".into();
    out.push(healthy_sa);

    let mut chaos = SimJob::chaos_panic("chaos/panicker");
    chaos.retries = 1;
    out.push(chaos);

    let mut iss = SimJob::minirisc_random(7, 256, 500_000);
    iss.name = "chaos/healthy-iss".into();
    out.push(iss);

    // Permanent blackhole on the fetch stage + tight stall budget: wedges
    // deterministically, diagnosed by the watchdog, quarantined after
    // retry.
    let mut staller = SimJob::new(
        ModelKind::Sa1100,
        WorkloadSpec::Named("specint".into()),
        50_000_000,
    );
    staller.stall_budget = Some(500);
    staller.faults = Some(FaultPlan::new(1).blackhole(100, u64::MAX));
    staller.name = "chaos/staller".into();
    out.push(staller);

    let mut vliw = SimJob::new(
        ModelKind::Vliw,
        WorkloadSpec::Ilp { iters: 400, body: 6 },
        1_000_000,
    );
    vliw.name = "chaos/healthy-vliw".into();
    out.push(vliw);

    // Misconfigured: the VLIW model rejects non-ilp workloads; retried then
    // quarantined with the Failed message preserved.
    let mut broken = SimJob::new(
        ModelKind::Vliw,
        WorkloadSpec::Named("specint".into()),
        10_000,
    );
    broken.name = "chaos/misconfigured".into();
    out.push(broken);

    let mut ppc = SimJob::new(
        ModelKind::Ppc750,
        WorkloadSpec::Random { block_len: 600 },
        500_000,
    );
    ppc.seed = 3;
    ppc.name = "chaos/healthy-ppc".into();
    out.push(ppc);

    // Crossed allocations: each OSM holds one stage and waits for the
    // other's, a wait-for cycle the director reports as a deadlock. Its
    // message names the cycle, so the byte-identity gates below also pin
    // that the report does not vary from run to run.
    out.push(SimJob::adl(
        "chaos/deadlock",
        "machine dl { manager a : exclusive(1); manager b : exclusive(1); \
         osm ab { states I, A, Z; initial I; \
         edge take : I -> A { allocate a[0]; } edge want : A -> Z { allocate b[0]; } } \
         osm ba { states I, B, Z; initial I; \
         edge take : I -> B { allocate b[0]; } edge want : B -> Z { allocate a[0]; } } }",
        2,
        1_000,
    ));

    out
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("chaos_smoke: FAIL — {msg}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    // No custom panic hook: the farm's quiet hook captures supervised
    // panics (payload + backtrace) into the typed outcome and prints
    // nothing, so the CI log stays clean without help. Panics on unarmed
    // threads — real bugs — still print normally.
    let jobs = jobs();
    println!("chaos_smoke: {} jobs (4 healthy, 4 poison)", jobs.len());

    // Gate 1+2: run at three worker counts; check containment and
    // canonical byte-identity.
    let mut canonical: Option<(String, String)> = None;
    for workers in [1usize, 2, 8] {
        let run = match run_farm(&jobs, workers, FarmOptions::default()) {
            Ok(run) => run,
            Err(e) => return fail(&format!("farm error at {workers} workers: {e}")),
        };
        let report = FarmReport::consolidate_sweep(&run, workers, 0.0);
        let healthy = [0usize, 2, 4, 6];
        for idx in healthy {
            if !report.jobs[idx].is_ok() {
                return fail(&format!(
                    "healthy job {} unhealthy at {workers} workers: {}",
                    report.jobs[idx].name,
                    report.jobs[idx].outcome.label()
                ));
            }
        }
        let expect_quarantined = |idx: usize, what: &str, inner: &dyn Fn(&JobOutcome) -> bool| {
            match &report.jobs[idx].outcome {
                JobOutcome::Quarantined { last, .. } if inner(last) => Ok(()),
                other => Err(format!(
                    "job {} should be a quarantined {what}, got: {}",
                    report.jobs[idx].name,
                    other.label()
                )),
            }
        };
        for check in [
            expect_quarantined(1, "panic", &|o| matches!(o, JobOutcome::Panicked { .. })),
            expect_quarantined(3, "stall", &|o| matches!(o, JobOutcome::Stalled(_))),
            expect_quarantined(5, "failure", &|o| matches!(o, JobOutcome::Failed(_))),
            expect_quarantined(
                7,
                "deadlock",
                &|o| matches!(o, JobOutcome::Failed(msg) if msg.starts_with("scheduling deadlock")),
            ),
        ] {
            if let Err(msg) = check {
                return fail(&format!("{msg} ({workers} workers)"));
            }
        }
        let text = report.canonical_text();
        let json = report.canonical_json();
        match &canonical {
            None => {
                println!(
                    "  workers=1: {} failure(s), {} quarantined — canonical baseline captured",
                    report.failures, report.quarantined
                );
                canonical = Some((text, json));
            }
            Some((t0, j0)) => {
                if *t0 != text || *j0 != json {
                    return fail(&format!(
                        "canonical report at {workers} workers differs from the 1-worker baseline"
                    ));
                }
                println!("  workers={workers}: canonical report byte-identical");
            }
        }
    }
    let (canon_text, canon_json) = canonical.unwrap();

    // Gate 3: journaled, cancelled mid-run, resumed — canonical renderings
    // must match the uninterrupted baseline. How many jobs complete before
    // the cancel lands is timing-dependent; the byte-identity of the final
    // resumed report is not.
    let dir = std::env::temp_dir().join(format!("chaos_smoke_{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        return fail(&format!("cannot create {}: {e}", dir.display()));
    }
    let journal_path = dir.join("sweep.journal");
    let writer = match JournalWriter::create(&journal_path, &jobs) {
        Ok(w) => w,
        Err(e) => return fail(&format!("cannot create journal: {e}")),
    };
    let cancel = CancelToken::new();
    let hook_cancel = cancel.clone();
    let mut seen = 0usize;
    let first = match run_farm(
        &jobs,
        2,
        FarmOptions {
            cancel,
            journal: Some(writer),
            on_result: Some(Box::new(move |_, _| {
                seen += 1;
                if seen == 2 {
                    hook_cancel.cancel();
                }
            })),
            ..FarmOptions::default()
        },
    ) {
        Ok(run) => run,
        Err(e) => return fail(&format!("journaled run failed: {e}")),
    };
    println!(
        "  interrupted after {} of {} job(s) (cancelled={})",
        first.completed.len(),
        jobs.len(),
        first.cancelled
    );

    let (writer, completed) = match JournalWriter::resume(&journal_path, &jobs) {
        Ok(pair) => pair,
        Err(e) => return fail(&format!("resume failed: {e}")),
    };
    if completed.len() != first.completed.len() {
        return fail(&format!(
            "journal restored {} job(s), expected {}",
            completed.len(),
            first.completed.len()
        ));
    }
    let resumed = match run_farm(
        &jobs,
        2,
        FarmOptions {
            completed,
            journal: Some(writer),
            ..FarmOptions::default()
        },
    ) {
        Ok(run) => run,
        Err(e) => return fail(&format!("resumed run failed: {e}")),
    };
    if !resumed.is_complete() {
        return fail("resumed run did not complete");
    }
    let report = FarmReport::consolidate_sweep(&resumed, 2, 0.0);
    if report.canonical_text() != canon_text || report.canonical_json() != canon_json {
        return fail("resumed canonical report differs from the uninterrupted baseline");
    }
    println!("  kill-and-resume: canonical report byte-identical");

    // Gate 4: torn trailing write — drop bytes off the end of the journal
    // and replay; the valid prefix must parse with one fewer record and no
    // error.
    let bytes = match std::fs::read(&journal_path) {
        Ok(b) => b,
        Err(e) => return fail(&format!("cannot re-read journal: {e}")),
    };
    let (all, _) = match journal::parse_bytes(&bytes, &jobs) {
        Ok(r) => r,
        Err(e) => return fail(&format!("final journal does not parse: {e}")),
    };
    if all.len() != jobs.len() {
        return fail(&format!(
            "final journal holds {} record(s), expected {}",
            all.len(),
            jobs.len()
        ));
    }
    let torn = &bytes[..bytes.len() - 3];
    match journal::parse_bytes(torn, &jobs) {
        Ok((prefix, _)) if prefix.len() == jobs.len() - 1 => {
            println!("  torn tail: valid prefix of {} record(s) recovered", prefix.len());
        }
        Ok((prefix, _)) => {
            return fail(&format!(
                "torn journal recovered {} record(s), expected {}",
                prefix.len(),
                jobs.len() - 1
            ))
        }
        Err(e) => return fail(&format!("torn journal rejected instead of truncated: {e}")),
    }

    let _ = std::fs::remove_dir_all(&dir);
    println!("chaos_smoke: PASS");
    ExitCode::SUCCESS
}
