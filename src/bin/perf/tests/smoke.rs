//! Smoke test of the whole harness at 1/100 scale: `perf run --quick` runs
//! every workload and every oracle, emits only metrics `BENCHMARK.json`
//! declares (and every declared metric somewhere), writes a Chrome trace,
//! and compares clean against itself.

use bench::json::{parse, Json};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const BENCHMARK_JSON: &str = include_str!("../../../../BENCHMARK.json");

fn names(doc: &Json, list: &str) -> Vec<String> {
    doc.get(list)
        .and_then(Json::as_arr)
        .expect("list exists")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("named")
                .to_owned()
        })
        .collect()
}

fn perf(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perf"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("perf starts")
}

fn work_dir(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("target tmpdir is writable");
    dir
}

#[test]
fn quick_run_covers_every_workload_oracle_and_metric() {
    let catalog = parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let workloads = names(&catalog, "workloads");
    let end_to_end = names(&catalog, "end_to_end");
    let declared: BTreeSet<String> = end_to_end
        .iter()
        .cloned()
        .chain(names(&catalog, "per_layer"))
        .collect();

    let dir = work_dir("smoke");
    let out = perf(
        &dir,
        &[
            "run",
            "--seed",
            "3",
            "--reps",
            "1",
            "--quick",
            "--out",
            "ledger.json",
            "--trace-out",
            "trace.json",
        ],
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let ledger = parse(&std::fs::read_to_string(dir.join("ledger.json")).expect("ledger written"))
        .expect("ledger parses");
    let mut emitted = BTreeSet::new();
    for w in &workloads {
        let report = ledger
            .get("workloads")
            .and_then(|ws| ws.get(w))
            .unwrap_or_else(|| panic!("{w} missing from the ledger"));
        assert_eq!(report.get("correct"), Some(&Json::Bool(true)), "{w}");
        assert_eq!(
            report.get("failed").and_then(Json::as_num),
            Some(0.0),
            "{w}"
        );
        let Some(Json::Obj(metrics)) = report.get("metrics") else {
            panic!("{w}: metrics")
        };
        for name in metrics.keys() {
            assert!(
                declared.contains(name),
                "{w}: `{name}` is not in BENCHMARK.json"
            );
        }
        for name in &end_to_end {
            let value = metrics[name]
                .get("median")
                .and_then(Json::as_num)
                .expect("median");
            assert!(value > 0.0, "{w}: end-to-end metric {name} must never be 0");
        }
        emitted.extend(metrics.keys().cloned());
    }
    let missing: Vec<_> = declared.difference(&emitted).collect();
    assert!(
        missing.is_empty(),
        "declared but never emitted: {missing:?}"
    );

    let trace = parse(&std::fs::read_to_string(dir.join("trace.json")).expect("trace written"))
        .expect("trace parses");
    assert!(trace
        .get("traceEvents")
        .and_then(Json::as_arr)
        .is_some_and(|e| !e.is_empty()));

    let cmp = perf(&dir, &["compare", "ledger.json", "ledger.json"]);
    let text = String::from_utf8_lossy(&cmp.stdout);
    assert!(cmp.status.success(), "{text}");
    // One pass per workload leaves wide quartiles, so "unresolved" is fine.
    assert!(
        !text.contains("regressed") && !text.contains("improved"),
        "{text}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn single_workload_form_ends_stdout_with_the_result_line() {
    let catalog = parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let dir = work_dir("single");
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let out = perf(
            &dir,
            &[
                "--workload",
                "adl_contended",
                "--seed",
                "5",
                "--seconds",
                "0",
                "--reps",
                "1",
                "--trace",
                trace,
                "--quick",
            ],
        );
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        let line = stdout.lines().last().expect("stdout is not empty");
        let result = parse(line).expect("last line is JSON");
        let Json::Obj(top) = &result else {
            panic!("an object")
        };
        let keys: Vec<&str> = top.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
        let Some(Json::Obj(metrics)) = result.get("metrics") else {
            panic!("metrics")
        };
        let got: Vec<&String> = metrics.keys().collect();
        let mut want = names(&catalog, list);
        want.sort();
        assert_eq!(got, want.iter().collect::<Vec<_>>());
    }
    assert!(
        !dir.join(".perf_work").exists(),
        "scratch directories are removed"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
