//! Criterion benchmark for the observability layer's cost model.
//!
//! The acceptance bar for the observer work is that the *disabled* path —
//! no observers registered, no stall tracker — costs < 2% versus the seed
//! simulator. It holds because the director is monomorphized over whether
//! any observer or the stall tracker is installed, and the uninstrumented
//! instantiation contains no event or attribution code at all. The
//! transition trace is not an observer: a digest trace keeps the run on the
//! uninstrumented director and adds one digest fold per committed
//! transition. The enabled rows quantify what each opt-in costs.
//!
//! Also carries the `Stats::incr` key micro-benchmark: interned
//! `&'static str` keys must not allocate on the hot path, unlike the
//! owned-string `incr_dyn` fallback.

use criterion::{criterion_group, criterion_main, Criterion};
use osm_core::{Stats, Trace};
use sa1100::{SaConfig, SaOsmSim};
use std::hint::black_box;
use workloads::mediabench_scaled;

fn observer_overhead(c: &mut Criterion) {
    // gsm/dec at scale 2: a few hundred thousand cycles per run.
    let w = mediabench_scaled(2).remove(0);
    let program = w.program();

    let mut group = c.benchmark_group("observer_overhead");
    group.sample_size(10);

    // The baseline everyone compares against: no observers, no tracker.
    group.bench_function("sa1100_osm_observers_off", |b| {
        b.iter(|| {
            let mut sim = SaOsmSim::new(SaConfig::paper(), &program);
            let r = sim.run_to_halt(u64::MAX).expect("runs");
            black_box(r.cycles)
        })
    });
    // The digest trace every farm job and equivalence oracle records: one
    // FNV fold per committed transition, on the uninstrumented director.
    group.bench_function("sa1100_osm_digest_trace", |b| {
        b.iter(|| {
            let mut sim = SaOsmSim::new(SaConfig::paper(), &program);
            sim.machine_mut().enable_trace_with(Trace::digest_only());
            let r = sim.run_to_halt(u64::MAX).expect("runs");
            black_box(r.cycles)
        })
    });
    // Stall attribution alone: per-failed-edge bookkeeping, no event storage.
    group.bench_function("sa1100_osm_stall_attribution", |b| {
        b.iter(|| {
            let mut sim = SaOsmSim::new(SaConfig::paper(), &program);
            sim.machine_mut().enable_stall_attribution();
            let r = sim.run_to_halt(u64::MAX).expect("runs");
            black_box(r.cycles)
        })
    });
    // Metrics collector: histogram accumulation per event, no storage.
    group.bench_function("sa1100_osm_metrics", |b| {
        b.iter(|| {
            let mut sim = SaOsmSim::new(SaConfig::paper(), &program);
            sim.machine_mut().enable_metrics();
            let r = sim.run_to_halt(u64::MAX).expect("runs");
            black_box(r.cycles)
        })
    });
    // The whole stack: ring event log + metrics + stall attribution. The
    // ring bounds memory so the bench measures event dispatch, not allocator
    // growth on a 100M-event vector.
    group.bench_function("sa1100_osm_full_ring64k", |b| {
        b.iter(|| {
            let mut sim = SaOsmSim::new(SaConfig::paper(), &program);
            sim.machine_mut().enable_event_log_ring(65_536);
            sim.machine_mut().enable_metrics();
            sim.machine_mut().enable_stall_attribution();
            let r = sim.run_to_halt(u64::MAX).expect("runs");
            black_box(r.cycles)
        })
    });
    group.finish();
}

fn stats_keys(c: &mut Criterion) {
    let mut group = c.benchmark_group("stats_keys");
    group.sample_size(10);

    // Interned path: after the first insert every call is a BTreeMap lookup
    // keyed by the borrowed `&'static str` — zero allocations.
    group.bench_function("incr_static", |b| {
        let mut stats = Stats::default();
        b.iter(|| {
            for _ in 0..1_000 {
                stats.incr(black_box("model.icache_miss"), 1);
            }
            black_box(stats.named().count())
        })
    });
    // Dynamic path: same lookup, but a miss pays a `to_owned`. Steady-state
    // cost should match incr_static since the key already exists.
    group.bench_function("incr_dyn_hit", |b| {
        let mut stats = Stats::default();
        stats.incr_dyn("model.icache_miss", 0);
        b.iter(|| {
            for _ in 0..1_000 {
                stats.incr_dyn(black_box("model.icache_miss"), 1);
            }
            black_box(stats.named().count())
        })
    });
    // Worst case before the Cow keys: an owned String allocated per call.
    group.bench_function("incr_dyn_fresh_string", |b| {
        b.iter(|| {
            let mut stats = Stats::default();
            for i in 0..1_000u32 {
                stats.incr_dyn(black_box(&format!("counter.{}", i % 4)), 1);
            }
            black_box(stats.named().count())
        })
    });
    group.finish();
}

criterion_group!(benches, observer_overhead, stats_keys);
criterion_main!(benches);
