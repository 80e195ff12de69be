//! CI smoke check for the observability exporters: runs an instrumented
//! StrongARM kernel, re-parses the emitted Chrome trace and metrics JSON
//! with the crate's own strict parser, validates both against the
//! checked-in schemas under `schemas/`, and cross-checks the exported
//! numbers against the simulator's `Stats` (the reconciliation invariants
//! the observability layer guarantees).
//!
//! Run with: `cargo run --release -p bench --bin trace_smoke`
//! Optional: `-- --out-dir <dir>` also writes the two JSON files there.
//!
//! Exits non-zero on any schema violation or reconciliation mismatch.

use bench::json::{check_schema, parse, Json};
use osm_core::export;
use sa1100::{SaConfig, SaOsmSim};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::mediabench;

/// Ring capacity for the event log: bounds the trace JSON so the smoke
/// check parses in well under a second while still exercising the
/// ring/dropped-events path of the exporter.
const RING_EVENTS: usize = 65_536;

fn schema_dir() -> PathBuf {
    // crates/bench -> repository root.
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../schemas")
}

fn load_schema(name: &str) -> Json {
    let path = schema_dir().join(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    parse(&text).unwrap_or_else(|e| panic!("{name} is not valid JSON: {e}"))
}

fn expect_u64(doc: &Json, path: &[&str]) -> u64 {
    let mut v = doc;
    for key in path {
        v = v
            .get(key)
            .unwrap_or_else(|| panic!("missing `{}`", path.join(".")));
    }
    v.as_num()
        .unwrap_or_else(|| panic!("`{}` is not a number", path.join("."))) as u64
}

fn main() -> ExitCode {
    let mut out_dir: Option<PathBuf> = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--out-dir" => out_dir = Some(it.next().expect("--out-dir takes a path").into()),
            other => panic!("unknown flag {other}"),
        }
    }

    let w = mediabench().remove(0);
    println!("trace_smoke: instrumented {} on the SA-1100 OSM model", w.name);
    let mut sim = SaOsmSim::new(SaConfig::paper(), &w.program());
    sim.machine_mut().enable_event_log_ring(RING_EVENTS);
    sim.machine_mut().enable_metrics();
    sim.machine_mut().enable_stall_attribution();
    sim.run_to_halt(u64::MAX).expect("no deadlock");
    assert!(sim.machine().shared.halted, "kernel did not halt");

    let trace_text = export::chrome_trace_for(sim.machine()).expect("event log enabled");
    let report = sim.machine().metrics_report().expect("metrics enabled");
    let metrics_text = export::metrics_json(&report);
    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).expect("create out dir");
        std::fs::write(dir.join("trace.json"), &trace_text).expect("write trace.json");
        std::fs::write(dir.join("metrics.json"), &metrics_text).expect("write metrics.json");
        println!("wrote trace.json and metrics.json to {}", dir.display());
    }

    let mut failures = 0usize;
    let mut fail = |msg: String| {
        eprintln!("FAIL: {msg}");
        failures += 1;
    };

    // 1. Both documents must be strictly parseable JSON.
    let trace = match parse(&trace_text) {
        Ok(v) => Some(v),
        Err(e) => {
            fail(format!("chrome trace does not parse: {e}"));
            None
        }
    };
    let metrics = match parse(&metrics_text) {
        Ok(v) => Some(v),
        Err(e) => {
            fail(format!("metrics JSON does not parse: {e}"));
            None
        }
    };

    // 2. Schema validation against the checked-in schemas.
    if let Some(trace) = &trace {
        for p in check_schema(trace, &load_schema("chrome_trace.schema.json")) {
            fail(format!("chrome trace schema: {p}"));
        }
    }
    if let Some(metrics) = &metrics {
        for p in check_schema(metrics, &load_schema("metrics.schema.json")) {
            fail(format!("metrics schema: {p}"));
        }
    }

    // 3. Reconciliation: the exported numbers must agree exactly with the
    //    simulator's own Stats counters.
    let stats = &sim.machine().stats;
    let log = sim.machine().event_log().expect("event log enabled");
    if let Some(metrics) = &metrics {
        let denials = expect_u64(metrics, &["token_denials"]);
        if denials != stats.condition_failures {
            fail(format!(
                "token_denials {} != Stats::condition_failures {}",
                denials, stats.condition_failures
            ));
        }
        let stall_cycles = expect_u64(metrics, &["stalls", "global_stall_cycles"]);
        if stall_cycles != stats.idle_steps {
            fail(format!(
                "stalls.global_stall_cycles {} != Stats::idle_steps {}",
                stall_cycles, stats.idle_steps
            ));
        }
        let cycles = expect_u64(metrics, &["cycles"]);
        if cycles != sim.machine().cycle() {
            fail(format!(
                "metrics cycles {} != machine cycle {}",
                cycles,
                sim.machine().cycle()
            ));
        }
    }
    if let Some(trace) = &trace {
        let recorded = expect_u64(trace, &["otherData", "events_recorded"]);
        let dropped = expect_u64(trace, &["otherData", "events_dropped"]);
        if recorded != log.total() {
            fail(format!(
                "events_recorded {} != EventLog::total {}",
                recorded,
                log.total()
            ));
        }
        if dropped != log.dropped() {
            fail(format!(
                "events_dropped {} != EventLog::dropped {}",
                dropped,
                log.dropped()
            ));
        }
        let events = trace
            .get("traceEvents")
            .and_then(Json::as_arr)
            .unwrap_or(&[]);
        if events.is_empty() {
            fail("trace has no events".to_owned());
        }
        let metadata = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
            .count();
        if metadata == 0 {
            fail("trace has no process/thread metadata events".to_owned());
        }
        println!(
            "chrome trace: {} events ({} metadata), {} recorded, {} dropped by the ring",
            events.len(),
            metadata,
            recorded,
            dropped
        );
    }
    println!(
        "metrics: {} cycles, {} denials, {} idle steps — all reconciled against Stats",
        sim.machine().cycle(),
        stats.condition_failures,
        stats.idle_steps
    );

    if failures == 0 {
        println!("trace_smoke: OK");
        ExitCode::SUCCESS
    } else {
        eprintln!("trace_smoke: {failures} failure(s)");
        ExitCode::FAILURE
    }
}
