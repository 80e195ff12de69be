//! `perf compare`: applies the bounds of `BENCHMARK.json` to two ledgers,
//! one verdict per (workload, metric) pair.

use crate::catalog::{Catalog, EXACT};
use crate::report::Ledger;
use crate::stats::Summary;
use std::fmt::Write as _;

/// The outcome for one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Ok,
    /// Worse than the base by more than the bound (exact metrics: changed).
    Regressed,
    /// Better than the base by more than the bound.
    Improved,
    /// The base's own quartile spread exceeds the bound: no claim either way.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Improved => "improved",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Relative change of the median, signed so that positive is worse.
fn worse_by(higher_is_better: bool, base: &Summary, new: &Summary) -> f64 {
    let delta = if base.median == 0.0 {
        if new.median == base.median {
            0.0
        } else {
            new.median.signum() * f64::INFINITY
        }
    } else {
        (new.median - base.median) / base.median.abs()
    };
    if higher_is_better {
        -delta
    } else {
        delta
    }
}

/// The verdict for a bounded metric.
pub fn bounded(higher_is_better: bool, bound: f64, base: &Summary, new: &Summary) -> Verdict {
    if base.rel_spread() > bound {
        return Verdict::Unresolved;
    }
    let worse = worse_by(higher_is_better, base, new);
    if worse > bound {
        Verdict::Regressed
    } else if -worse > bound {
        Verdict::Improved
    } else {
        Verdict::Ok
    }
}

/// The verdict for an exact metric: any change regresses, except a lower
/// failure ratio.
pub fn exact(name: &str, base: &Summary, new: &Summary) -> Verdict {
    if new.median == base.median {
        Verdict::Ok
    } else if name == "fail_ratio" && new.median < base.median {
        Verdict::Improved
    } else {
        Verdict::Regressed
    }
}

/// Renders the comparison of `base` (the parent) and `new`; the flag is
/// true when some pair regressed.
pub fn compare(base: &Ledger, new: &Ledger, catalog: &Catalog) -> (String, bool) {
    let mut out = String::new();
    if (base.seed, base.reps, base.quick) != (new.seed, new.reps, new.quick) {
        let _ = writeln!(
            out,
            "warning: runs differ in settings (seed {} vs {}, reps {} vs {}, quick {} vs {})",
            base.seed, new.seed, base.reps, new.reps, base.quick, new.quick
        );
    }
    let _ = writeln!(
        out,
        "{:<18} {:<14} {:>12} {:>27} {:>12} {:>27} {:>9} {:>6}  verdict",
        "workload", "metric", "base", "[q1, q3]", "new", "[q1, q3]", "delta", "bound"
    );
    let mut regressed = false;
    for workload in &catalog.workloads {
        let (Some(b), Some(n)) = (base.workloads.get(workload), new.workloads.get(workload)) else {
            let _ = writeln!(out, "{workload:<18} missing from one side");
            regressed = true;
            continue;
        };
        let bounded_defs = catalog
            .end_to_end
            .iter()
            .map(|d| (d.name.as_str(), d.bound));
        let exact_defs = EXACT.iter().map(|&name| (name, None));
        for (name, bound) in bounded_defs.chain(exact_defs) {
            let (Some(bm), Some(nm)) = (b.metrics.get(name), n.metrics.get(name)) else {
                continue;
            };
            let (bs, ns) = (bm.summary, nm.summary);
            let verdict = match bound {
                Some(bound) => {
                    let higher = catalog.metric(name).is_some_and(|d| d.higher_is_better);
                    bounded(higher, bound, &bs, &ns)
                }
                None => exact(name, &bs, &ns),
            };
            regressed |= verdict == Verdict::Regressed;
            let delta = if bs.median == 0.0 {
                0.0
            } else {
                (ns.median - bs.median) / bs.median * 100.0
            };
            let bound = bound.map_or("exact".to_owned(), |b| format!("{:.0}%", b * 100.0));
            let _ = writeln!(
                out,
                "{workload:<18} {name:<14} {:>12.4} [{:>12.4}, {:>12.4}] {:>12.4} [{:>12.4}, {:>12.4}] {delta:>+8.2}% {bound:>6}  {}",
                bs.median,
                bs.q1,
                bs.q3,
                ns.median,
                ns.q1,
                ns.q3,
                verdict.label()
            );
        }
    }
    (out, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(median: f64, q1: f64, q3: f64) -> Summary {
        Summary {
            n: 5,
            median,
            q1,
            q3,
        }
    }

    #[test]
    fn bounded_verdicts() {
        let base = s(100.0, 98.0, 102.0);
        // Throughput (higher is better), 10% bound.
        assert_eq!(bounded(true, 0.1, &base, &s(95.0, 94.0, 96.0)), Verdict::Ok);
        assert_eq!(
            bounded(true, 0.1, &base, &s(89.0, 88.0, 90.0)),
            Verdict::Regressed
        );
        assert_eq!(
            bounded(true, 0.1, &base, &s(111.0, 110.0, 112.0)),
            Verdict::Improved
        );
        // Setup time (lower is better): the same move reads the other way.
        assert_eq!(
            bounded(false, 0.1, &base, &s(111.0, 110.0, 112.0)),
            Verdict::Regressed
        );
        assert_eq!(
            bounded(false, 0.1, &base, &s(89.0, 88.0, 90.0)),
            Verdict::Improved
        );
        // A base whose quartiles spread wider than the bound decides nothing.
        let noisy = s(100.0, 90.0, 115.0);
        assert_eq!(
            bounded(true, 0.1, &noisy, &s(50.0, 49.0, 51.0)),
            Verdict::Unresolved
        );
    }

    #[test]
    fn exact_verdicts() {
        let base = s(1000.0, 1000.0, 1000.0);
        assert_eq!(exact("sim_cycles", &base, &base), Verdict::Ok);
        assert_eq!(
            exact("sim_cycles", &base, &s(999.0, 999.0, 999.0)),
            Verdict::Regressed
        );
        let zero = s(0.0, 0.0, 0.0);
        assert_eq!(exact("fail_ratio", &zero, &zero), Verdict::Ok);
        assert_eq!(
            exact("fail_ratio", &zero, &s(0.1, 0.1, 0.1)),
            Verdict::Regressed
        );
        assert_eq!(
            exact("fail_ratio", &s(0.1, 0.1, 0.1), &zero),
            Verdict::Improved
        );
    }
}
