//! Criterion benchmark for the observability layer's cost model.
//!
//! The acceptance bar for the observability work is that the *disabled*
//! path — no event log, no metrics, no stall attribution — costs < 2%
//! versus the seed simulator. It holds because the director is
//! monomorphized over whether any of those sinks is on, and the
//! uninstrumented instantiation contains no event or attribution code at
//! all. A digest trace keeps the run on the uninstrumented director and
//! adds one digest fold per committed transition. The enabled rows
//! quantify what each opt-in costs.

use criterion::{criterion_group, criterion_main, Criterion};
use osm_core::Trace;
use sa1100::{SaConfig, SaOsmSim};
use std::hint::black_box;
use workloads::mediabench_scaled;

fn observer_overhead(c: &mut Criterion) {
    // gsm/dec at scale 2: a few hundred thousand cycles per run.
    let w = mediabench_scaled(2).remove(0);
    let program = w.program();

    let mut group = c.benchmark_group("observer_overhead");
    group.sample_size(10);

    // The baseline everyone compares against: every sink off.
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

criterion_group!(benches, observer_overhead);
criterion_main!(benches);
