//! The metric catalog: names, units, directions and regression bounds, read
//! from the repository's `BENCHMARK.json` (compiled in, so the binary and
//! the bounds it applies cannot drift apart).

use bench::json::{parse, Json};

/// The benchmark definition this binary was built against.
pub const BENCHMARK_JSON: &str = include_str!("../../../../BENCHMARK.json");

/// Metrics whose value is a pure function of the inputs. `perf compare`
/// requires them to be identical (`fail_ratio` may only go down), whatever
/// bound `BENCHMARK.json` could express.
pub const EXACT: [&str; 3] = ["sim_cycles", "sim_ipc", "fail_ratio"];

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// True when a higher value is better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may get worse
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parsed catalog.
#[derive(Debug, Clone)]
pub struct Catalog {
    /// Workload names, in declaration order.
    pub workloads: Vec<String>,
    /// End-to-end metrics (reported with tracing off).
    pub end_to_end: Vec<MetricDef>,
    /// Per-layer metrics (reported from the traced pass).
    pub per_layer: Vec<MetricDef>,
}

impl Catalog {
    /// The catalog compiled into this binary.
    pub fn builtin() -> Catalog {
        Catalog::parse(BENCHMARK_JSON).expect("BENCHMARK.json is well formed")
    }

    /// Parses a `BENCHMARK.json` document.
    pub fn parse(text: &str) -> Result<Catalog, String> {
        let root = parse(text).map_err(|e| e.to_string())?;
        let list = |key: &str| -> Result<&[Json], String> {
            root.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("`{key}` must be an array"))
        };
        let workloads = list("workloads")?
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .map(str::to_owned)
                    .ok_or_else(|| "workload without a name".to_owned())
            })
            .collect::<Result<_, _>>()?;
        let metrics = |key: &str| -> Result<Vec<MetricDef>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(Json::as_str)
                            .ok_or_else(|| format!("{key} entry without `{f}`"))
                    };
                    Ok(MetricDef {
                        name: field("name")?.to_owned(),
                        unit: field("unit")?.to_owned(),
                        higher_is_better: field("better")? == "higher",
                        bound: m.get("bound").and_then(Json::as_num),
                    })
                })
                .collect()
        };
        Ok(Catalog {
            workloads,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// Looks a metric up in either list.
    pub fn metric(&self, name: &str) -> Option<&MetricDef> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_catalog_is_consistent() {
        let c = Catalog::builtin();
        assert_eq!(c.workloads.len(), 4);
        assert!(c.end_to_end.iter().all(|m| m.bound.is_some()));
        assert!(c.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = c.metric("setup_s").expect("setup_s is declared");
        assert_eq!(setup.unit, "s");
        assert!(!setup.higher_is_better);
        let largest = c
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(largest),
            "setup_s carries the largest bound"
        );
        for exact in EXACT {
            assert!(c.metric(exact).is_some(), "{exact} is declared");
        }
        let mut names: Vec<&str> = c
            .end_to_end
            .iter()
            .chain(&c.per_layer)
            .map(|m| m.name.as_str())
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "metric names are unique");
    }
}
