//! CI smoke check for the sensitivity-driven scheduler fast path.
//!
//! Two gates, checked on fixed workloads:
//!
//! 1. **Cycle exactness** — the fast scheduler and the seed scheduler must
//!    produce byte-identical transition traces (FNV digest over every
//!    transition event) on all four workload families: the synthetic
//!    sparse-waiter machine, the SA-1100 OSM model on a MediaBench kernel,
//!    the PPC-750 OSM model on the same MiniRISC program, and the VLIW
//!    lockstep core. Each of the four is checked twice: on the untracked
//!    director that `Machine::run` users get (a digest trace does not select
//!    the tracked one), and on the tracked one, with stall attribution on. Two
//!    ADL machines run untracked and are compared by
//!    `Machine::state_fingerprint` after every cycle: the contended machine
//!    (the costliest of `perf`'s `adl_contended` suite), and a dense
//!    `Restart` machine whose skip proofs do not pay, so after its first
//!    adaptation window the fast path runs proof-free.
//! 2. **No performance regression** — measured two ways on the sparse
//!    workload:
//!    * *Deterministic effort gate*: the number of edge evaluations the
//!      fast scheduler performs (`Stats::condition_failures` — exactly the
//!      work the sensitivity skip eliminates) is cycle-deterministic and
//!      host-independent, so it is compared against the committed
//!      `BENCH_3.json` baseline with a tight tolerance (default 2%).
//!    * *Wall-clock floor*: the seed/fast speedup (minimum-of-N wall
//!      clock) must stay above the 1.5x acceptance floor. Wall-clock
//!      ratios on shared CI hosts are ~15% noisy, which is why the 2%
//!      regression gate rides on the deterministic counter instead.
//!    * *Contended floor*: on the contended machine, where every cycle
//!      commits 61 transitions under Fig. 3 restarts, the seed/fast
//!      speedup (minimum-of-N) must stay above 4x.
//!
//! Run with: `cargo run --release -p bench --bin scheduler_smoke`
//! Flags:    `-- --bless` rewrites `BENCH_3.json` from this machine.
//! Env:      `SCHEDULER_SMOKE_TOLERANCE` overrides the relative tolerance
//!           on the effort gate (default 0.02, fail on >2% regression).
//!
//! Exits non-zero on digest mismatch, effort regression, or a speedup
//! below the floor.

use bench::json::parse;
use osm_core::{
    ExclusivePool, IdentExpr, InertBehavior, Machine, ManagerId, SchedulerMode, SpecBuilder,
    Trace,
};
use ppc750::{PpcConfig, PpcOsmSim};
use sa1100::{SaConfig, SaOsmSim};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use vliw::{ilp_loop, schedule, VliwConfig, VliwSim};
use workloads::mediabench;

const SPARSE_WAITERS: usize = 256;
const SPARSE_CYCLES: u64 = 30_000;
const SPARSE_PERIOD: u64 = 16;
/// Paired timing repetitions; the minimum is the low-noise estimator on a
/// shared CI host.
const TIMING_REPS: usize = 3;
/// Paired repetitions for the dense parity timing.
const DENSE_TIMING_REPS: usize = 25;
/// Absolute acceptance floor for the sparse speedup.
const SPEEDUP_FLOOR: f64 = 1.5;

/// The costliest machine of the `perf` benchmark's `adl_contended` suite
/// (seed 1, machine 5). Every `op1` wedges in `S1` (its release finds no
/// held token), so each cycle all 61 `op0`s move, each move a Fig. 3
/// restart, past 61 blocked OSMs.
const CONTENDED_SOURCE: &str = "machine fuzz_e1e861ebac7dd8c8 {
    manager m0 : counting(2, per_cycle);
    manager m1 : counting(1, per_cycle);
    manager m2 : exclusive(1);
    osm op0 {
        states S0, S1;
        initial S0;
        edge e0 : S0 -> S1 { inquire m2[0]; inquire m0[any]; }
        edge e1 : S1 -> S0 { }
    }
    osm op1 {
        states S0, S1, S2;
        initial S0;
        edge e0 : S0 -> S1 { }
        edge e1 : S1 -> S2 { allocate m1[any]; release m1[held]; }
        edge e2 : S2 -> S0 { }
        edge b2 : S2 -> S0 priority -1 { }
    }
}";
const CONTENDED_OSMS: usize = 122;
const CONTENDED_CYCLES: u64 = 5_000;

/// A dense `Restart` machine (osm-core's proof-free lockstep test, with
/// inert behaviors): 48 OSMs cycle `I -> A -> B -> I` and the per-cycle
/// `bw` lets 15 leave `A` each cycle, so 45 move every cycle and the 3 left
/// in `A` are served again after every later commit of the step.
const DENSE_RESTART_SOURCE: &str = "machine dense_restart {
    manager bw : counting(15, per_cycle);
    osm op {
        states I, A, B;
        initial I;
        edge go : I -> A { }
        edge issue : A -> B { allocate bw[any]; discard bw[held]; }
        edge done : B -> I { }
    }
}";
const DENSE_RESTART_OSMS: usize = 48;
const DENSE_RESTART_CYCLES: u64 = 5_000;
/// Acceptance floor for the contended speedup.
const CONTENDED_FLOOR: f64 = 4.0;

fn baseline_path() -> PathBuf {
    // crates/bench -> repository root.
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_3.json")
}

fn sparse_machine() -> Machine<()> {
    let mut m: Machine<()> = Machine::new(());
    let unit = m.add_manager(ExclusivePool::new("unit", 1));
    let spec = {
        let mut b = SpecBuilder::new("waiter");
        let i = b.state("I");
        let h = b.state("H");
        b.initial(i);
        b.edge(i, h).allocate(unit, IdentExpr::Const(0));
        b.edge(h, i).release(unit, IdentExpr::AnyHeld);
        b.build().unwrap()
    };
    for _ in 0..SPARSE_WAITERS {
        m.add_osm(&spec, InertBehavior);
    }
    m
}

/// Runs the sparse-waiter workload with a digest trace, on the tracked
/// director (stall attribution on) when `tracked`; returns (trace digest,
/// wall seconds, edge evaluations performed).
fn run_sparse(mode: SchedulerMode, tracked: bool) -> (u64, f64, u64) {
    let mut m = sparse_machine();
    m.set_scheduler_mode(mode);
    m.enable_trace_with(Trace::digest_only());
    if tracked {
        m.enable_stall_attribution();
    }
    let unit = ManagerId(0);
    m.managers
        .downcast_mut::<ExclusivePool>(unit)
        .block_release(0, true);
    let start = Instant::now();
    for t in 0..SPARSE_CYCLES {
        let open = t % SPARSE_PERIOD == SPARSE_PERIOD - 1;
        if open {
            m.managers
                .downcast_mut::<ExclusivePool>(unit)
                .block_release(0, false);
        }
        m.step().expect("no deadlock");
        if open {
            m.managers
                .downcast_mut::<ExclusivePool>(unit)
                .block_release(0, true);
        }
    }
    let secs = start.elapsed().as_secs_f64();
    let evals = m.stats.condition_failures;
    (m.take_trace().expect("trace on").digest(), secs, evals)
}

/// An ADL machine with `osms` inert OSMs round-robin over its classes, every
/// observability sink off.
fn adl_machine(source: &str, osms: usize, mode: SchedulerMode) -> Machine<()> {
    let synth = osm_adl::load(source).expect("inline source loads");
    let mut m: Machine<()> = Machine::new(());
    synth.install_managers(&mut m);
    for k in 0..osms {
        m.add_osm(&synth.specs[k % synth.specs.len()].1, InertBehavior);
    }
    m.set_scheduler_mode(mode);
    m
}

/// Steps an ADL machine in both modes in lockstep; returns the first cycle
/// after which their state fingerprints differ, if any.
fn fingerprint_divergence(source: &str, osms: usize, cycles: u64) -> Option<u64> {
    let mut fast = adl_machine(source, osms, SchedulerMode::Fast);
    let mut seed = adl_machine(source, osms, SchedulerMode::Seed);
    for _ in 0..cycles {
        fast.step().expect("no deadlock");
        seed.step().expect("no deadlock");
        if fast.state_fingerprint() != seed.state_fingerprint() {
            return Some(seed.cycle());
        }
    }
    None
}

/// Wall seconds for `CONTENDED_CYCLES` cycles of the contended machine.
fn run_contended(mode: SchedulerMode) -> f64 {
    let mut m = adl_machine(CONTENDED_SOURCE, CONTENDED_OSMS, mode);
    let start = Instant::now();
    m.run(CONTENDED_CYCLES).expect("no deadlock");
    start.elapsed().as_secs_f64()
}

struct DigestCheck {
    name: &'static str,
    tracked: bool,
    fast: u64,
    seed: u64,
}

fn main() -> ExitCode {
    let bless = std::env::args().skip(1).any(|a| a == "--bless");
    let tolerance: f64 = std::env::var("SCHEDULER_SMOKE_TOLERANCE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.02);

    // ----- Gate 1: digest equality on the four workload families. -----
    // Each family runs with a digest trace under both modes, `tracked`
    // adding stall attribution so that both director instantiations are
    // checked.
    let w = mediabench().remove(0);
    let program = w.program();
    let sa = |mode: SchedulerMode, tracked: bool| {
        let mut sim = SaOsmSim::new(SaConfig::paper(), &program);
        sim.machine_mut().set_scheduler_mode(mode);
        sim.machine_mut().enable_trace_with(Trace::digest_only());
        if tracked {
            sim.machine_mut().enable_stall_attribution();
        }
        sim.run_to_halt(u64::MAX).expect("runs");
        sim.machine_mut().take_trace().expect("trace on").digest()
    };
    let ppc = |mode: SchedulerMode, tracked: bool| {
        let mut sim = PpcOsmSim::new(PpcConfig::paper(), &program);
        sim.machine_mut().set_scheduler_mode(mode);
        sim.machine_mut().enable_trace_with(Trace::digest_only());
        if tracked {
            sim.machine_mut().enable_stall_attribution();
        }
        sim.run_to_halt(u64::MAX).expect("runs");
        sim.machine_mut().take_trace().expect("trace on").digest()
    };
    let vprog = schedule(&ilp_loop(40, 6), vec![]);
    let vl = |mode: SchedulerMode, tracked: bool| {
        let mut sim = VliwSim::new(VliwConfig::default(), &vprog);
        sim.machine_mut().set_scheduler_mode(mode);
        sim.machine_mut().enable_trace_with(Trace::digest_only());
        if tracked {
            sim.machine_mut().enable_stall_attribution();
        }
        sim.run_to_halt(1_000_000).expect("runs");
        sim.machine_mut().take_trace().expect("trace on").digest()
    };

    let mut checks: Vec<DigestCheck> = Vec::new();
    // Edge evaluations of the untracked sparse runs, for gate 2.
    let (mut fast_evals, mut seed_evals) = (0, 0);
    for tracked in [false, true] {
        let (fast, _, f_evals) = run_sparse(SchedulerMode::Fast, tracked);
        let (seed, _, s_evals) = run_sparse(SchedulerMode::Seed, tracked);
        if !tracked {
            (fast_evals, seed_evals) = (f_evals, s_evals);
        }
        checks.push(DigestCheck {
            name: "sparse_waiters",
            tracked,
            fast,
            seed,
        });
        checks.push(DigestCheck {
            name: "sa1100_mediabench",
            tracked,
            fast: sa(SchedulerMode::Fast, tracked),
            seed: sa(SchedulerMode::Seed, tracked),
        });
        checks.push(DigestCheck {
            name: "ppc750_minirisc",
            tracked,
            fast: ppc(SchedulerMode::Fast, tracked),
            seed: ppc(SchedulerMode::Seed, tracked),
        });
        checks.push(DigestCheck {
            name: "vliw_ilp_loop",
            tracked,
            fast: vl(SchedulerMode::Fast, tracked),
            seed: vl(SchedulerMode::Seed, tracked),
        });
    }

    // Untraced dense run, used further down for the parity timing.
    let sa_timed = |mode: SchedulerMode| {
        let mut sim = SaOsmSim::new(SaConfig::paper(), &program);
        sim.machine_mut().set_scheduler_mode(mode);
        let start = Instant::now();
        sim.run_to_halt(u64::MAX).expect("runs");
        start.elapsed().as_secs_f64()
    };

    let mut failed = false;
    for c in &checks {
        let ok = c.fast == c.seed;
        println!(
            "digest {:<20} {:<9} fast={:016x} seed={:016x}  {}",
            c.name,
            if c.tracked { "tracked" } else { "untracked" },
            c.fast,
            c.seed,
            if ok { "ok" } else { "MISMATCH" }
        );
        failed |= !ok;
    }
    for (name, source, osms, cycles) in [
        (
            "adl_contended",
            CONTENDED_SOURCE,
            CONTENDED_OSMS,
            CONTENDED_CYCLES,
        ),
        (
            "dense_restart",
            DENSE_RESTART_SOURCE,
            DENSE_RESTART_OSMS,
            DENSE_RESTART_CYCLES,
        ),
    ] {
        let divergence = fingerprint_divergence(source, osms, cycles);
        println!(
            "fingerprint {name:<14} fast==seed after each of {cycles} untracked cycles  {}",
            match divergence {
                None => "ok".to_owned(),
                Some(cycle) => format!("MISMATCH at cycle {cycle}"),
            }
        );
        failed |= divergence.is_some();
    }
    if failed {
        eprintln!("scheduler_smoke: FAIL — fast scheduler is not cycle-exact");
        return ExitCode::FAILURE;
    }

    // ----- Gate 2: no regression vs the committed baseline. -----
    // Timing runs are separate from the digest runs (untracked director)
    // and alternate modes pairwise; minimum-of-N is the estimator.
    let mut fast_min = f64::INFINITY;
    let mut seed_min = f64::INFINITY;
    for _ in 0..TIMING_REPS {
        let (_, f, _) = run_sparse(SchedulerMode::Fast, false);
        let (_, s, _) = run_sparse(SchedulerMode::Seed, false);
        fast_min = fast_min.min(f);
        seed_min = seed_min.min(s);
    }
    let speedup = seed_min / fast_min;
    println!(
        "sparse timing: seed {:.1} ms, fast {:.1} ms, speedup {:.2}x (min of {TIMING_REPS})",
        seed_min * 1e3,
        fast_min * 1e3,
        speedup
    );
    let (mut contended_fast, mut contended_seed) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..TIMING_REPS {
        contended_fast = contended_fast.min(run_contended(SchedulerMode::Fast));
        contended_seed = contended_seed.min(run_contended(SchedulerMode::Seed));
    }
    let contended_speedup = contended_seed / contended_fast;
    println!(
        "contended timing: seed {:.1} ms, fast {:.1} ms, speedup {contended_speedup:.2}x (min of {TIMING_REPS})",
        contended_seed * 1e3,
        contended_fast * 1e3,
    );

    // Dense parity: the fast path cannot help a machine whose OSMs move
    // almost every cycle, so the acceptance bar is "within noise of seed".
    // Informational only — wall-clock noise on shared hosts dwarfs 2%.
    let mut dense_fast_min = f64::INFINITY;
    let mut dense_seed_min = f64::INFINITY;
    let control = std::env::var_os("SCHED_SMOKE_AB_CONTROL").is_some();
    for _ in 0..DENSE_TIMING_REPS {
        let a = if control {
            SchedulerMode::Seed
        } else {
            SchedulerMode::Fast
        };
        dense_fast_min = dense_fast_min.min(sa_timed(a));
        dense_seed_min = dense_seed_min.min(sa_timed(SchedulerMode::Seed));
    }
    let dense_delta = (dense_fast_min / dense_seed_min - 1.0) * 100.0;
    println!(
        "dense timing (sa1100 {}): seed {:.1} ms, fast {:.1} ms, delta {dense_delta:+.1}% (min of {DENSE_TIMING_REPS})",
        w.name,
        dense_seed_min * 1e3,
        dense_fast_min * 1e3,
    );
    println!(
        "sparse effort: fast {fast_evals} edge evaluations, seed {seed_evals} \
         ({:.1}x fewer)",
        seed_evals as f64 / fast_evals.max(1) as f64
    );

    let path = baseline_path();
    if bless {
        let doc = format!(
            "{{\n  \"bench\": \"scheduler_fastpath\",\n  \"workload\": \"sparse_{SPARSE_WAITERS}_waiters_period_{SPARSE_PERIOD}\",\n  \"cycles\": {SPARSE_CYCLES},\n  \"fast_evals\": {fast_evals},\n  \"seed_evals\": {seed_evals},\n  \"seed_ms\": {:.3},\n  \"fast_ms\": {:.3},\n  \"speedup\": {:.3},\n  \"dense_workload\": \"sa1100_{}\",\n  \"dense_seed_ms\": {:.3},\n  \"dense_fast_ms\": {:.3},\n  \"dense_delta_pct\": {dense_delta:.2}\n}}\n",
            seed_min * 1e3,
            fast_min * 1e3,
            speedup,
            w.name,
            dense_seed_min * 1e3,
            dense_fast_min * 1e3,
        );
        std::fs::write(&path, doc).expect("write BENCH_3.json");
        println!("blessed {}", path.display());
        return ExitCode::SUCCESS;
    }

    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!(
                "scheduler_smoke: cannot read {} ({e}); run with --bless first",
                path.display()
            );
            return ExitCode::FAILURE;
        }
    };
    let doc = parse(&text).expect("BENCH_3.json is valid JSON");
    let base_fast_evals = doc
        .get("fast_evals")
        .and_then(|v| v.as_num())
        .expect("BENCH_3.json has a numeric `fast_evals`");
    let base_speedup = doc
        .get("speedup")
        .and_then(|v| v.as_num())
        .expect("BENCH_3.json has a numeric `speedup`");

    // Deterministic gate: the evaluation count is exact on a fixed
    // workload, so any increase beyond the tolerance is a genuine fast-path
    // regression (e.g. a skip condition that stopped firing), not noise.
    let eval_bar = base_fast_evals * (1.0 + tolerance);
    println!(
        "effort gate: fast_evals {fast_evals} vs baseline {base_fast_evals:.0} \
         (tolerance {:.0}%, bar {eval_bar:.0})",
        tolerance * 100.0
    );
    if (fast_evals as f64) > eval_bar {
        eprintln!(
            "scheduler_smoke: FAIL — fast scheduler performed {fast_evals} edge \
             evaluations, a >{:.0}% regression vs the committed {base_fast_evals:.0}",
            tolerance * 100.0
        );
        return ExitCode::FAILURE;
    }

    // Wall-clock floor: noisy, so only the acceptance floor is enforced;
    // the baseline speedup is printed for context.
    println!("speedup floor: measured {speedup:.2}x, floor {SPEEDUP_FLOOR}x, baseline {base_speedup:.2}x");
    if speedup < SPEEDUP_FLOOR {
        eprintln!(
            "scheduler_smoke: FAIL — sparse speedup {speedup:.2}x fell below the \
             {SPEEDUP_FLOOR}x acceptance floor (baseline {base_speedup:.2}x)"
        );
        return ExitCode::FAILURE;
    }
    println!("contended floor: measured {contended_speedup:.2}x, floor {CONTENDED_FLOOR}x");
    if contended_speedup < CONTENDED_FLOOR {
        eprintln!(
            "scheduler_smoke: FAIL — contended speedup {contended_speedup:.2}x fell below \
             the {CONTENDED_FLOOR}x acceptance floor"
        );
        return ExitCode::FAILURE;
    }
    println!("scheduler_smoke: ok");
    ExitCode::SUCCESS
}
