//! What a run produces: per-workload metric summaries and spans, the ledger
//! file holding them, and their renderings (table, JSON, Chrome trace, and
//! the one-line result the benchmark contract asks for).

use crate::catalog::Catalog;
use crate::stats::Summary;
use bench::json::{parse, Json};
use osm_core::export::{json_escape, TraceJsonBuilder};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Ledger format tag.
const SCHEMA: &str = "perf-ledger/1";

/// One coarse span: a call into a layer, timed from outside.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Identifier, unique within its workload.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// What was called.
    pub name: String,
    /// Track: 0 for the harness thread, `1 + w` for farm worker `w`.
    pub tid: u64,
    /// Start, ns since the workload began.
    pub start_ns: u64,
    /// End, ns since the workload began.
    pub end_ns: u64,
}

/// One metric's unit and summary.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Unit, as the catalog declares it.
    pub unit: String,
    /// Median, quartiles and sample count.
    pub summary: Summary,
}

/// Everything one workload reported.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WorkloadReport {
    /// Operations and oracle checks attempted.
    pub attempted: u64,
    /// Of those, how many failed.
    pub failed: u64,
    /// Metrics by name.
    pub metrics: BTreeMap<String, Metric>,
    /// Coarse spans, in start order (empty in ledger files).
    pub spans: Vec<Span>,
}

impl WorkloadReport {
    /// True when every oracle check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The benchmark contract's result line: `correct`, `attempted`,
    /// `failed`, and each end-to-end metric (`trace = false`) or each
    /// per-layer metric (`trace = true`) by its median. A metric the
    /// workload does not exercise reads 0.
    pub fn result_line(&self, catalog: &Catalog, trace: bool) -> String {
        let defs = if trace {
            &catalog.per_layer
        } else {
            &catalog.end_to_end
        };
        let metrics = defs
            .iter()
            .map(|def| {
                let value = self
                    .metrics
                    .get(&def.name)
                    .map_or(0.0, |m| m.summary.median);
                let entry = obj([
                    ("value", Json::Num(value)),
                    ("unit", Json::Str(def.unit.clone())),
                ]);
                (def.name.clone(), entry)
            })
            .collect();
        obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .to_string()
    }

    fn to_json(&self, with_spans: bool) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, m)| {
                let s = m.summary;
                let entry = obj([
                    ("unit", Json::Str(m.unit.clone())),
                    ("n", Json::Num(s.n as f64)),
                    ("median", Json::Num(s.median)),
                    ("q1", Json::Num(s.q1)),
                    ("q3", Json::Num(s.q3)),
                ]);
                (name.clone(), entry)
            })
            .collect();
        let mut fields = vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ];
        if with_spans {
            let spans = self
                .spans
                .iter()
                .map(|s| {
                    obj([
                        ("id", Json::Num(s.id as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("name", Json::Str(s.name.clone())),
                        ("tid", Json::Num(s.tid as f64)),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                    ])
                })
                .collect();
            fields.push(("spans", Json::Arr(spans)));
        }
        obj(fields)
    }

    fn from_json(v: &Json) -> Result<WorkloadReport, String> {
        let num = |v: &Json, key: &str| {
            v.get(key)
                .and_then(Json::as_num)
                .ok_or_else(|| format!("missing number `{key}`"))
        };
        let mut report = WorkloadReport {
            attempted: num(v, "attempted")? as u64,
            failed: num(v, "failed")? as u64,
            ..WorkloadReport::default()
        };
        let Some(Json::Obj(metrics)) = v.get("metrics") else {
            return Err("missing `metrics` object".into());
        };
        for (name, m) in metrics {
            let unit = m
                .get("unit")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{name}: missing unit"))?;
            let summary = Summary {
                n: num(m, "n")? as usize,
                median: num(m, "median")?,
                q1: num(m, "q1")?,
                q3: num(m, "q3")?,
            };
            report.metrics.insert(
                name.clone(),
                Metric {
                    unit: unit.to_owned(),
                    summary,
                },
            );
        }
        for s in v.get("spans").and_then(Json::as_arr).unwrap_or(&[]) {
            report.spans.push(Span {
                id: num(s, "id")? as u64,
                parent: s.get("parent").and_then(Json::as_num).map(|p| p as u64),
                name: s
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("span without a name")?
                    .to_owned(),
                tid: num(s, "tid")? as u64,
                start_ns: num(s, "start_ns")? as u64,
                end_ns: num(s, "end_ns")? as u64,
            });
        }
        Ok(report)
    }

    /// Human-readable metric table, one metric per line, in catalog order
    /// (end-to-end first).
    pub fn table(&self, name: &str, catalog: &Catalog) -> String {
        let mut out = format!(
            "== {name}: {} ({} attempted, {} failed)\n",
            if self.correct() {
                "correct"
            } else {
                "INCORRECT"
            },
            self.attempted,
            self.failed
        );
        let _ = writeln!(
            out,
            "  {:<40} {:>12} {:>3} {:>14}  [{:>12}, {:>12}]",
            "metric", "unit", "n", "median", "q1", "q3"
        );
        for def in catalog.end_to_end.iter().chain(&catalog.per_layer) {
            if let Some(m) = self.metrics.get(&def.name) {
                let s = m.summary;
                let _ = writeln!(
                    out,
                    "  {:<40} {:>12} {:>3} {:>14.4}  [{:>12.4}, {:>12.4}]",
                    def.name, m.unit, s.n, s.median, s.q1, s.q3
                );
            }
        }
        out
    }
}

/// A ledger file: the reports of one `perf run` (or one workload).
#[derive(Debug, Clone, PartialEq)]
pub struct Ledger {
    /// Input seed.
    pub seed: u64,
    /// Minimum timed passes per workload.
    pub reps: usize,
    /// Whether the run used the 1/100-scale inputs.
    pub quick: bool,
    /// Reports by workload name.
    pub workloads: BTreeMap<String, WorkloadReport>,
}

impl Ledger {
    /// Serializes the ledger; spans are included only when asked for.
    pub fn to_json_text(&self, with_spans: bool) -> String {
        let workloads = self
            .workloads
            .iter()
            .map(|(name, r)| (name.clone(), r.to_json(with_spans)))
            .collect();
        let doc = obj([
            ("schema", Json::Str(SCHEMA.into())),
            ("seed", Json::Num(self.seed as f64)),
            ("reps", Json::Num(self.reps as f64)),
            ("quick", Json::Bool(self.quick)),
            ("workloads", Json::Obj(workloads)),
        ]);
        pretty(&doc)
    }

    /// Parses a ledger file.
    pub fn from_json_text(text: &str) -> Result<Ledger, String> {
        let doc = parse(text).map_err(|e| e.to_string())?;
        if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
            return Err(format!("not a `{SCHEMA}` document"));
        }
        let Some(Json::Obj(workloads)) = doc.get("workloads") else {
            return Err("missing `workloads` object".into());
        };
        Ok(Ledger {
            seed: doc
                .get("seed")
                .and_then(Json::as_u64)
                .ok_or("missing seed")?,
            reps: doc
                .get("reps")
                .and_then(Json::as_u64)
                .ok_or("missing reps")? as usize,
            quick: doc
                .get("quick")
                .and_then(Json::as_bool)
                .ok_or("missing quick")?,
            workloads: workloads
                .iter()
                .map(|(name, w)| {
                    WorkloadReport::from_json(w)
                        .map(|r| (name.clone(), r))
                        .map_err(|e| format!("{name}: {e}"))
                })
                .collect::<Result<_, _>>()?,
        })
    }

    /// Renders every workload's spans as one Chrome trace: a process per
    /// workload (in catalog order), a thread per track. Each slice carries
    /// its id, parent and self time (its duration minus the part of it
    /// that its children cover).
    pub fn chrome_trace(&self, catalog: &Catalog) -> String {
        let mut trace = TraceJsonBuilder::new();
        let mut spans = 0u64;
        for (pid, name) in catalog.workloads.iter().enumerate() {
            let Some(report) = self.workloads.get(name) else {
                continue;
            };
            let pid = pid as u64;
            trace.process_name(pid, name);
            let mut tids: Vec<u64> = report.spans.iter().map(|s| s.tid).collect();
            tids.sort_unstable();
            tids.dedup();
            for tid in tids {
                let lane = match tid {
                    0 => "harness".to_owned(),
                    w => format!("farm worker {}", w - 1),
                };
                trace.thread_name(pid, tid, &lane);
            }
            let self_ns = self_times(&report.spans);
            for s in &report.spans {
                let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
                trace.complete(
                    &s.name,
                    pid,
                    s.tid,
                    s.start_ns / 1_000,
                    (s.end_ns - s.start_ns) / 1_000,
                    &format!(
                        r#"{{"id":{},"parent":{parent},"self_us":{}}}"#,
                        s.id,
                        self_ns[&s.id] / 1_000
                    ),
                );
                spans += 1;
            }
        }
        trace.finish(&[("spans", spans), ("seed", self.seed)])
    }
}

/// Self time of every span: its duration minus the union of its children's
/// intervals (children on farm workers overlap one another).
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            let mut reach = s.start_ns;
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.id, (s.end_ns - s.start_ns).saturating_sub(covered))
        })
        .collect()
}

fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// Indents objects down to the per-metric level, so committed ledgers diff
/// line by line; deeper values stay compact.
fn pretty(doc: &Json) -> String {
    fn go(v: &Json, depth: usize, out: &mut String) {
        match v {
            Json::Obj(map) if depth < 4 && !map.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in map.iter().enumerate() {
                    out.push_str(&"  ".repeat(depth + 1));
                    let _ = write!(out, "\"{}\": ", json_escape(k));
                    go(v, depth + 1, out);
                    out.push_str(if i + 1 < map.len() { ",\n" } else { "\n" });
                }
                out.push_str(&"  ".repeat(depth));
                out.push('}');
            }
            other => {
                let _ = write!(out, "{other}");
            }
        }
    }
    let mut out = String::new();
    go(doc, 0, &mut out);
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> WorkloadReport {
        let mut r = WorkloadReport {
            attempted: 12,
            failed: 0,
            ..WorkloadReport::default()
        };
        r.metrics.insert(
            "sim_kcps".into(),
            Metric {
                unit: "kcycles/s".into(),
                summary: Summary::of(&[1834.125, 1901.5, 1877.0625, 1755.25, 1890.0]),
            },
        );
        r.metrics.insert(
            "setup_s".into(),
            Metric {
                unit: "s".into(),
                summary: Summary::of(&[0.012_345_678_9]),
            },
        );
        r.spans = vec![
            Span {
                id: 1,
                parent: None,
                name: "pass".into(),
                tid: 0,
                start_ns: 0,
                end_ns: 10_000,
            },
            Span {
                id: 2,
                parent: Some(1),
                name: "job a".into(),
                tid: 1,
                start_ns: 1_000,
                end_ns: 6_000,
            },
            Span {
                id: 3,
                parent: Some(1),
                name: "job b".into(),
                tid: 2,
                start_ns: 4_000,
                end_ns: 8_000,
            },
        ];
        r
    }

    #[test]
    fn ledger_json_round_trips() {
        let ledger = Ledger {
            seed: 7,
            reps: 5,
            quick: false,
            workloads: BTreeMap::from([("sa1100_mediabench".to_owned(), sample_report())]),
        };
        let back = Ledger::from_json_text(&ledger.to_json_text(true)).expect("parses");
        assert_eq!(back, ledger);
        let stripped = Ledger::from_json_text(&ledger.to_json_text(false)).expect("parses");
        assert!(stripped.workloads["sa1100_mediabench"].spans.is_empty());
        assert_eq!(
            stripped.workloads["sa1100_mediabench"].metrics,
            ledger.workloads["sa1100_mediabench"].metrics
        );
    }

    #[test]
    fn result_line_lists_every_catalog_metric() {
        let catalog = Catalog::builtin();
        for trace in [false, true] {
            let line = sample_report().result_line(&catalog, trace);
            let doc = parse(&line).expect("valid JSON");
            let Json::Obj(top) = &doc else {
                panic!("object")
            };
            let keys: Vec<&str> = top.keys().map(String::as_str).collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            let Some(Json::Obj(metrics)) = doc.get("metrics") else {
                panic!("metrics")
            };
            let defs = if trace {
                &catalog.per_layer
            } else {
                &catalog.end_to_end
            };
            assert_eq!(metrics.len(), defs.len());
            for def in defs {
                assert_eq!(
                    metrics[&def.name].get("unit").and_then(Json::as_str),
                    Some(&*def.unit)
                );
            }
        }
        let line = sample_report().result_line(&catalog, false);
        assert!(
            line.contains(r#""sim_kcps":{"unit":"kcycles/s","value":1877.0625}"#),
            "{line}"
        );
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let st = self_times(&sample_report().spans);
        // Children cover [1000, 8000) together: 7000 of the parent's 10000.
        assert_eq!(st[&1], 3_000);
        assert_eq!(st[&2], 5_000);
        assert_eq!(st[&3], 4_000);
    }
}
