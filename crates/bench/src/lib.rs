//! Shared helpers for the experiment harnesses (one binary per table or
//! figure of the paper — see `EXPERIMENTS.md` at the repository root).

#![warn(missing_docs)]

pub mod json;

use ppc750::{PpcConfig, PpcOsmSim, PpcPortSim, PpcResult};
use sa1100::{RefSim, SaConfig, SaOsmSim, SimResult};
use std::time::{Duration, Instant};
use workloads::Workload;

/// Cycle budget used by all harnesses (workloads finish well under it).
pub const MAX_CYCLES: u64 = 200_000_000;

/// Runs a workload on the OSM StrongARM model, returning result + wall time.
///
/// # Panics
/// Panics if the model deadlocks or fails to halt (harness-level invariant).
pub fn run_sa_osm(cfg: SaConfig, w: &Workload) -> (SimResult, Duration) {
    let program = w.program();
    let mut sim = SaOsmSim::new(cfg, &program);
    let t0 = Instant::now();
    let r = sim.run_to_halt(MAX_CYCLES).expect("no deadlock");
    let dt = t0.elapsed();
    assert!(
        sim.machine().shared.halted,
        "workload `{}` did not halt on the OSM model",
        w.name
    );
    (r, dt)
}

/// Runs a workload on the hand-sequenced reference simulator.
///
/// # Panics
/// Panics if the reference fails to halt.
pub fn run_sa_ref(cfg: SaConfig, w: &Workload) -> (SimResult, Duration) {
    let program = w.program();
    let mut sim = RefSim::new(cfg, &program);
    let t0 = Instant::now();
    let r = sim.run_to_halt(MAX_CYCLES);
    let dt = t0.elapsed();
    assert!(
        sim.halted(),
        "workload `{}` did not halt on the reference",
        w.name
    );
    (r, dt)
}

/// Runs a workload on the OSM PowerPC-750 model.
///
/// # Panics
/// Panics if the model deadlocks or fails to halt.
pub fn run_ppc_osm(cfg: PpcConfig, w: &Workload) -> (PpcResult, Duration) {
    let program = w.program();
    let mut sim = PpcOsmSim::new(cfg, &program);
    let t0 = Instant::now();
    let r = sim.run_to_halt(MAX_CYCLES).expect("no deadlock");
    let dt = t0.elapsed();
    assert!(
        sim.machine().shared.halted,
        "workload `{}` did not halt on the PPC OSM model",
        w.name
    );
    (r, dt)
}

/// Runs a workload on the port/signal PowerPC-750 baseline.
///
/// # Panics
/// Panics if the model fails to halt.
pub fn run_ppc_port(cfg: PpcConfig, w: &Workload) -> (PpcResult, Duration) {
    let program = w.program();
    let mut sim = PpcPortSim::new(cfg, &program);
    let t0 = Instant::now();
    let r = sim.run_to_halt(MAX_CYCLES);
    let dt = t0.elapsed();
    assert!(
        sim.halted(),
        "workload `{}` did not halt on the PPC port model",
        w.name
    );
    (r, dt)
}

/// Simulation throughput in cycles per second of wall time.
pub fn cycles_per_sec(cycles: u64, wall: Duration) -> f64 {
    if wall.as_secs_f64() == 0.0 {
        0.0
    } else {
        cycles as f64 / wall.as_secs_f64()
    }
}

/// Signed percentage difference of `b` relative to `a`.
pub fn pct_diff(a: u64, b: u64) -> f64 {
    if a == 0 {
        0.0
    } else {
        100.0 * (b as f64 - a as f64) / a as f64
    }
}

/// Prints an aligned text table: a header row then data rows.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (k, cell) in row.iter().enumerate() {
            if k < widths.len() {
                widths[k] = widths[k].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let mut out = String::new();
        for (k, cell) in cells.iter().enumerate() {
            out.push_str(&format!("{:<width$}  ", cell, width = widths[k]));
        }
        println!("{}", out.trim_end());
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Counts lines of code in a source string: non-blank, non-comment-only
/// lines, excluding everything from the `#[cfg(test)]` marker on (matching
/// the paper's "does not include comments and blank lines").
///
/// # Errors
/// The marker must open the file's trailing test module. Code after it (a
/// test-only item above production code) is an error rather than lines
/// silently left out of the count.
pub fn count_loc(source: &str) -> Result<usize, String> {
    let mut in_block_comment = false;
    let mut count = 0;
    let mut lines = source.lines();
    while let Some(line) = lines.next() {
        let t = line.trim();
        if let Some(rest) = t.strip_prefix("#[cfg(test)]") {
            return trailing_test_module(rest, lines).map(|()| count);
        }
        if in_block_comment {
            if t.contains("*/") {
                in_block_comment = false;
            }
            continue;
        }
        if t.is_empty() || t.starts_with("//") {
            continue;
        }
        if t.starts_with("/*") {
            if !t.contains("*/") {
                in_block_comment = true;
            }
            continue;
        }
        count += 1;
    }
    Ok(count)
}

/// Checks that the item a `#[cfg(test)]` marker starts (the rest of the
/// marker's line, then `lines`) is a module that ends the file: rustfmt
/// indents the module's body, so its top-level code lines are the opener
/// and, for a body in braces, the closing `}`.
fn trailing_test_module<'a>(
    rest: &'a str,
    lines: impl Iterator<Item = &'a str>,
) -> Result<(), String> {
    let top = lines.filter(|l| !l.starts_with(char::is_whitespace));
    let mut top = std::iter::once(rest)
        .chain(top)
        .map(str::trim)
        .filter(|t| !t.is_empty() && !t.starts_with("//"));
    let opener = top.next().unwrap_or_default();
    let is_mod = opener
        .trim_start_matches("pub(crate) ")
        .trim_start_matches("pub ")
        .starts_with("mod ");
    let ends_the_file = match opener.chars().last() {
        Some(';' | '}') => top.next().is_none(),
        Some('{') => top.next() == Some("}") && top.next().is_none(),
        _ => false,
    };
    if is_mod && ends_the_file {
        Ok(())
    } else {
        Err(format!(
            "the `#[cfg(test)]` item at `{opener}` is not the trailing test module: \
             code after it would go uncounted"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loc_counts_code_only() {
        let src = "\n// comment\nfn f() {\n    let x = 1; // trailing\n\n}\n/* block\n   comment */\nstruct S;\n#[cfg(test)]\nmod tests { fn never_counted() {} }\n";
        assert_eq!(count_loc(src), Ok(4)); // fn f() {, let, }, struct S;
    }

    #[test]
    fn loc_refuses_a_test_only_impl_above_production_code() {
        let src = "struct S;\n#[cfg(test)]\nimpl S {\n    fn probe(&self) -> u32 {\n        1\n    }\n}\nimpl S {\n    fn real(&self) {}\n}\n";
        assert!(count_loc(src).is_err());
        let src = "impl S {\n    #[cfg(test)]\n    fn probe(&self) {}\n    fn real(&self) {}\n}\n";
        assert!(count_loc(src).is_err());
    }

    #[test]
    fn loc_accepts_a_test_module_declaration_only_at_the_end() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests;\n";
        assert_eq!(count_loc(src), Ok(1));
        let src = "#[cfg(test)]\nmod tests;\nfn f() {}\n";
        assert!(count_loc(src).is_err());
    }

    #[test]
    fn loc_accepts_a_trailing_test_module() {
        let src = "fn f() {}\n\n#[cfg(test)]\npub(crate) mod tests {\n    use super::*;\n\n    #[test]\n    fn t() {}\n}\n// end\n";
        assert_eq!(count_loc(src), Ok(1));
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn g() {}\n";
        assert!(count_loc(src).is_err());
    }

    #[test]
    fn pct_diff_signs() {
        assert_eq!(pct_diff(100, 103), 3.0);
        assert_eq!(pct_diff(100, 97), -3.0);
        assert_eq!(pct_diff(0, 5), 0.0);
    }

    #[test]
    fn cycles_per_sec_zero_wall() {
        assert_eq!(cycles_per_sec(100, Duration::from_secs(0)), 0.0);
        assert!(cycles_per_sec(100, Duration::from_secs(1)) == 100.0);
    }
}
