//! `perf` — one harness for simulator speed, end to end and per layer, over
//! four named workloads. See `README.md` next to this package.
//!
//! ```text
//! perf run [--seed N] [--reps R] [--seconds S] [--quick] [--workload W]...
//!      [--out FILE] [--trace-out FILE]
//! perf compare BASE.json NEW.json
//! perf --workload W [--seed N] [--reps R] [--seconds S] [--trace 0|1] [--quick]
//!      [--out FILE] [--trace-out FILE]
//! ```
//!
//! `perf run` measures each workload in a fresh child process of itself
//! (`perf --workload W ... --trace 1`), so peak RSS and warm host caches do
//! not leak between workloads. The single-workload form prints its metric
//! table and, as the last line of stdout, one JSON result object. Every
//! form exits non-zero when an oracle check fails.

mod catalog;
mod compare;
mod farm;
mod harness;
mod probe;
mod report;
mod sim;
mod stats;
mod tmi;

use catalog::Catalog;
use harness::{Opts, Recorder, Scratch};
use report::{Ledger, WorkloadReport};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage: perf run [--seed N] [--reps R] [--seconds S] [--quick] [--workload W]... [--out FILE] [--trace-out FILE]
       perf compare BASE.json NEW.json
       perf --workload W [--seed N] [--reps R] [--seconds S] [--trace 0|1] [--quick] [--out FILE] [--trace-out FILE]";

/// Parsed command-line flags shared by `run` and the single-workload form.
#[derive(Debug)]
struct Args {
    opts: Opts,
    workloads: Vec<String>,
    out: Option<String>,
    trace_out: Option<String>,
}

fn parse_args(args: &[String], catalog: &Catalog) -> Result<Args, String> {
    let mut parsed = Args {
        opts: Opts {
            seed: 1,
            reps: 5,
            seconds: 0.0,
            quick: false,
            trace: false,
        },
        workloads: Vec::new(),
        out: None,
        trace_out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            parsed.opts.quick = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |what: &str| -> Result<f64, String> {
            value
                .parse::<f64>()
                .ok()
                .filter(|v| v.is_finite() && *v >= 0.0)
                .ok_or_else(|| format!("{flag}: `{value}` is not a {what}"))
        };
        match flag.as_str() {
            "--seed" => {
                parsed.opts.seed = value
                    .parse()
                    .map_err(|_| format!("--seed: `{value}` is not an unsigned integer"))?;
            }
            "--reps" => {
                parsed.opts.reps = value
                    .parse::<usize>()
                    .ok()
                    .filter(|&r| r >= 1)
                    .ok_or_else(|| format!("--reps: `{value}` is not a positive integer"))?;
            }
            "--seconds" => parsed.opts.seconds = number("number of seconds")?,
            "--trace" => match value.as_str() {
                "0" => parsed.opts.trace = false,
                "1" => parsed.opts.trace = true,
                _ => return Err(format!("--trace: `{value}` is not 0 or 1")),
            },
            "--workload" => {
                if !catalog.workloads.contains(value) {
                    return Err(format!(
                        "unknown workload `{value}` (one of: {})",
                        catalog.workloads.join(", ")
                    ));
                }
                parsed.workloads.push(value.clone());
            }
            "--out" => parsed.out = Some(value.clone()),
            "--trace-out" => parsed.trace_out = Some(value.clone()),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(parsed)
}

/// Measures one workload in this process.
fn measure(name: &str, opts: &Opts) -> WorkloadReport {
    let mut rec = Recorder::new();
    let root = rec.begin(name, None);
    match name {
        "sa1100_mediabench" => sim::sa1100(opts, &mut rec, root),
        "ppc750_mediabench" => sim::ppc750(opts, &mut rec, root),
        "adl_contended" => sim::adl(opts, &mut rec, root),
        "farm_mixed" => farm::mixed(opts, &mut rec, root),
        other => unreachable!("workload `{other}` was validated against the catalog"),
    }
    rec.end(root);
    rec.finish()
}

fn write_file(path: &str, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))
}

/// The single-workload form: measure, print the table, write the outputs,
/// and end stdout with the result line.
fn single(args: &Args, catalog: &Catalog) -> Result<bool, String> {
    let [name] = args.workloads.as_slice() else {
        return Err("give exactly one --workload".into());
    };
    let report = measure(name, &args.opts);
    print!("{}", report.table(name, catalog));
    let ledger = Ledger {
        seed: args.opts.seed,
        reps: args.opts.reps,
        quick: args.opts.quick,
        workloads: BTreeMap::from([(name.clone(), report)]),
    };
    if let Some(path) = &args.out {
        write_file(path, &ledger.to_json_text(true))?;
    }
    if let Some(path) = &args.trace_out {
        write_file(path, &ledger.chrome_trace(catalog))?;
    }
    let report = &ledger.workloads[name];
    println!("{}", report.result_line(catalog, args.opts.trace));
    Ok(report.correct())
}

/// `perf run`: every requested workload in its own child process.
fn run(args: &Args, catalog: &Catalog) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate perf itself: {e}"))?;
    let scratch = Scratch::new("run").map_err(|e| format!("cannot create scratch dir: {e}"))?;
    let names = if args.workloads.is_empty() {
        catalog.workloads.clone()
    } else {
        args.workloads.clone()
    };
    let mut ledger = Ledger {
        seed: args.opts.seed,
        reps: args.opts.reps,
        quick: args.opts.quick,
        workloads: BTreeMap::new(),
    };
    for name in &names {
        let out = scratch.path().join(format!("{name}.json"));
        let mut child = Command::new(&exe);
        child
            .args(["--workload", name])
            .args(["--seed", &args.opts.seed.to_string()])
            .args(["--reps", &args.opts.reps.to_string()])
            .args(["--seconds", &args.opts.seconds.to_string()])
            .args(["--trace", "1"])
            .arg("--out")
            .arg(&out)
            .stdout(Stdio::null());
        if args.opts.quick {
            child.arg("--quick");
        }
        let status = child
            .status()
            .map_err(|e| format!("cannot start a child: {e}"))?;
        let report = std::fs::read_to_string(&out)
            .ok()
            .and_then(|text| Ledger::from_json_text(&text).ok())
            .and_then(|mut l| l.workloads.remove(name))
            .unwrap_or_else(|| WorkloadReport {
                attempted: 1,
                failed: 1,
                ..WorkloadReport::default()
            });
        if !status.success() && report.correct() {
            return Err(format!("{name}: child exited with {status}"));
        }
        print!("{}", report.table(name, catalog));
        ledger.workloads.insert(name.clone(), report);
    }
    println!("== paper speed ratios (OSM model over its baseline)");
    for (metric, workload, paper) in [
        (
            "sa1100.osm_over_ref",
            "sa1100_mediabench",
            "1.18x over SimpleScalar",
        ),
        (
            "ppc750.osm_over_port",
            "ppc750_mediabench",
            "4x over the SystemC model",
        ),
    ] {
        if let Some(m) = ledger
            .workloads
            .get(workload)
            .and_then(|r| r.metrics.get(metric))
        {
            println!(
                "  {metric:<22} {:>8.3}x   (paper: {paper})",
                m.summary.median
            );
        }
    }
    if let Some(path) = &args.trace_out {
        write_file(path, &ledger.chrome_trace(catalog))?;
    }
    if let Some(path) = &args.out {
        write_file(path, &ledger.to_json_text(false))?;
    }
    Ok(ledger.workloads.values().all(WorkloadReport::correct))
}

fn compare_files(args: &[String], catalog: &Catalog) -> Result<bool, String> {
    let [base, new] = args else {
        return Err("compare needs exactly two ledger files".into());
    };
    let read = |path: &String| -> Result<Ledger, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Ledger::from_json_text(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (text, regressed) = compare::compare(&read(base)?, &read(new)?, catalog);
    print!("{text}");
    Ok(!regressed)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().collect();
    let catalog = Catalog::builtin();
    let result = match raw.get(1).map(String::as_str) {
        Some("compare") => compare_files(&raw[2..], &catalog),
        Some("run") => parse_args(&raw[2..], &catalog).and_then(|a| run(&a, &catalog)),
        Some(_) => parse_args(&raw[1..], &catalog).and_then(|a| single(&a, &catalog)),
        None => Err("no command given".into()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("perf: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
