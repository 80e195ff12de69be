//! Ablations AB1/AB2: director restart policy and ranking policy.
//!
//! The paper notes (§5) that with age ranking and no senior-on-junior
//! resource dependences, the Fig. 3 outer-loop restart can be skipped.
//! This bench measures what the restart costs when enabled anyway, and what
//! a ranking policy change costs.

use criterion::{criterion_group, criterion_main, Criterion};
use osm_core::RestartPolicy;
use sa1100::{SaConfig, SaOsmSim};
use std::hint::black_box;
use workloads::mediabench_scaled;

fn director_ablation(c: &mut Criterion) {
    let w = mediabench_scaled(1).remove(2); // g721/dec: branchy
    let program = w.program();

    let mut group = c.benchmark_group("director_ablation");
    group.sample_size(10);

    group.bench_function("no_restart_age_rank", |b| {
        b.iter(|| {
            let mut sim = SaOsmSim::new(SaConfig::paper(), &program);
            sim.machine_mut().set_restart_policy(RestartPolicy::NoRestart);
            black_box(sim.run_to_halt(u64::MAX).expect("runs").cycles)
        })
    });
    group.bench_function("restart_age_rank", |b| {
        b.iter(|| {
            let mut sim = SaOsmSim::new(SaConfig::paper(), &program);
            sim.machine_mut().set_restart_policy(RestartPolicy::Restart);
            black_box(sim.run_to_halt(u64::MAX).expect("runs").cycles)
        })
    });
    group.bench_function("no_restart_fn_rank", |b| {
        b.iter(|| {
            let mut sim = SaOsmSim::new(SaConfig::paper(), &program);
            sim.machine_mut().set_ranker(|view, _| view.age);
            black_box(sim.run_to_halt(u64::MAX).expect("runs").cycles)
        })
    });
    group.finish();
}

criterion_group!(benches, director_ablation);
criterion_main!(benches);
