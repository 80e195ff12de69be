//! The host-speed probe: a fixed piece of work, independent of the
//! repository's code, whose time says how fast the host runs right now.
//!
//! The benchmark host is a virtual machine that shares its cores, caches
//! and memory with other tenants. For minutes at a time it runs the
//! simulators 30–45% slower than when it is idle, while almost none of the
//! lost time shows as steal. So neither the wall clock nor the CPU clock
//! alone can tell a slower simulator from a busier host. Each timed pass is
//! therefore bracketed by two probe runs, and its time is scaled by how much
//! slower than [`REFERENCE_MS`] the probe ran around it.
//!
//! The probe is ordered-map and string work (insert, remove, range lookup,
//! formatting): allocation-heavy, pointer-chasing, branchy code like the
//! simulators' own. Among the probes tried (tight arithmetic, cache and
//! memory pointer chases, a bytecode interpreter, a large table of distinct
//! functions, a miniature pipeline model) its slowdown tracked the
//! simulators' most closely. It calls no code of the repository, so no
//! change to the simulators can move it.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// The probe's time on the benchmark host when it is idle, ms. Scaled host
/// times are the times that host would give when idle.
pub const REFERENCE_MS: f64 = 18.0;

/// Map operations per probe run.
const OPS: u32 = 100_000;

/// Runs the probe once; returns its wall time, ms.
pub fn probe_ms() -> f64 {
    let start = Instant::now();
    black_box(map_work(black_box(OPS)));
    start.elapsed().as_secs_f64() * 1e3
}

/// A pseudo-random mix of inserts (with a formatted value), removals and
/// range lookups over at most 4096 keys.
fn map_work(ops: u32) -> usize {
    let mut map = BTreeMap::new();
    let mut state = 7u64;
    let mut total = 0;
    for i in 0..ops {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let key = (state >> 40) as u32 & 4095;
        if state & 3 == 0 {
            map.remove(&key);
        } else {
            map.insert(key, format!("{i}:{key}"));
        }
        if let Some((_, v)) = map.range(key..).next() {
            total += v.len();
        }
    }
    total
}
