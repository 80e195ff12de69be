//! The single-simulation workloads: SA-1100 and PPC-750 OSM models over
//! MediaBench/SPECint stand-ins plus seeded random programs, and generated
//! ADL machines with inert behaviors.
//!
//! Every layer is measured from outside: `Workload::program()`,
//! `SaOsmSim::new`/`PpcOsmSim::new`, `osm_adl::load`, each
//! `Machine::step()` (driven by a loop identical to `run_to_halt`), and the
//! token managers through the [`crate::tmi`] decorator.

use crate::harness::{secs, timed_passes, Opts, Pass, Recorder};
use crate::tmi::{self, TmiSink, KINDS};
use minirisc::{Iss, Program, SparseMemory};
use osm_core::{HardwareLayer, InertBehavior, Machine, ModelError, SchedulerMode, Stats, Trace};
use osm_fuzz::{GenConfig, SplitMix64};
use ppc750::{PpcConfig, PpcOsmSim, PpcPortSim, PpcShared};
use sa1100::{RefSim, SaConfig, SaOsmSim, SaShared};
use std::time::Instant;
use workloads::{mediabench, random_program, specint_mix, Workload};

/// Cycle cap for one program: far above the longest shipped workload, so
/// reaching it means the model failed to halt.
const MAX_CYCLES: u64 = 200_000_000;

/// The programs of the dense workloads: the six MediaBench and the SPECint
/// stand-ins, plus four seeded random programs. Caches start empty: every
/// program runs from reset.
fn program_list(opts: &Opts) -> Vec<Workload> {
    if opts.quick {
        return vec![mediabench().swap_remove(0), random_program(opts.seed, 32)];
    }
    let mut list = mediabench();
    list.push(specint_mix());
    list.extend((0..4).map(|i| random_program(opts.seed.wrapping_add(i), 512)));
    list
}

/// One of the two case-study OSM models, seen through its public API.
trait Model {
    type Shared: HardwareLayer + 'static;
    type Sim;
    const BASELINE_KCPS: &'static str;
    const OSM_OVER_BASELINE: &'static str;
    fn build(program: &Program) -> Self::Sim;
    fn machine(sim: &Self::Sim) -> &Machine<Self::Shared>;
    fn machine_mut(sim: &mut Self::Sim) -> &mut Machine<Self::Shared>;
    fn halted(shared: &Self::Shared) -> bool;
    /// `(retired, exit code)`.
    fn outcome(shared: &Self::Shared) -> (u64, u32);
    /// `[(accesses, misses)]` of the I- and D-cache.
    fn caches(shared: &Self::Shared) -> [(u64, u64); 2];
    /// The paired baseline model: `(cycles, exit code, run seconds)`.
    fn baseline(program: &Program) -> (u64, u32, f64);
}

struct Sa;

impl Model for Sa {
    type Shared = SaShared;
    type Sim = SaOsmSim;
    const BASELINE_KCPS: &'static str = "sa1100.ref_kcps";
    const OSM_OVER_BASELINE: &'static str = "sa1100.osm_over_ref";
    fn build(program: &Program) -> SaOsmSim {
        SaOsmSim::new(SaConfig::paper(), program)
    }
    fn machine(sim: &SaOsmSim) -> &Machine<SaShared> {
        sim.machine()
    }
    fn machine_mut(sim: &mut SaOsmSim) -> &mut Machine<SaShared> {
        sim.machine_mut()
    }
    fn halted(shared: &SaShared) -> bool {
        shared.halted
    }
    fn outcome(shared: &SaShared) -> (u64, u32) {
        (shared.retired, shared.exit_code)
    }
    fn caches(shared: &SaShared) -> [(u64, u64); 2] {
        let (i, d) = (&shared.memsys.icache.stats, &shared.memsys.dcache.stats);
        [(i.accesses, i.misses), (d.accesses, d.misses)]
    }
    fn baseline(program: &Program) -> (u64, u32, f64) {
        let mut reference = RefSim::new(SaConfig::paper(), program);
        let start = Instant::now();
        let r = reference.run_to_halt(MAX_CYCLES);
        (r.cycles, r.exit_code, secs(start))
    }
}

struct Ppc;

impl Model for Ppc {
    type Shared = PpcShared;
    type Sim = PpcOsmSim;
    const BASELINE_KCPS: &'static str = "portsim.port_kcps";
    const OSM_OVER_BASELINE: &'static str = "ppc750.osm_over_port";
    fn build(program: &Program) -> PpcOsmSim {
        PpcOsmSim::new(PpcConfig::paper(), program)
    }
    fn machine(sim: &PpcOsmSim) -> &Machine<PpcShared> {
        sim.machine()
    }
    fn machine_mut(sim: &mut PpcOsmSim) -> &mut Machine<PpcShared> {
        sim.machine_mut()
    }
    fn halted(shared: &PpcShared) -> bool {
        shared.halted
    }
    fn outcome(shared: &PpcShared) -> (u64, u32) {
        (shared.retired, shared.oracle.exit_code)
    }
    fn caches(shared: &PpcShared) -> [(u64, u64); 2] {
        let (i, d) = (&shared.memsys.icache.stats, &shared.memsys.dcache.stats);
        [(i.accesses, i.misses), (d.accesses, d.misses)]
    }
    fn baseline(program: &Program) -> (u64, u32, f64) {
        let mut port = PpcPortSim::new(PpcConfig::paper(), program);
        let start = Instant::now();
        let r = port.run_to_halt(MAX_CYCLES);
        (r.cycles, r.exit_code, secs(start))
    }
}

/// The SA-1100 OSM model over [`program_list`].
pub fn sa1100(opts: &Opts, rec: &mut Recorder, root: u64) {
    dense::<Sa>(opts, rec, root);
}

/// The PPC-750 OSM model over the same programs.
pub fn ppc750(opts: &Opts, rec: &mut Recorder, root: u64) {
    dense::<Ppc>(opts, rec, root);
}

/// What a program's run must reproduce on every later pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Expected {
    cycles: u64,
    retired: u64,
    digest: u64,
}

/// Steps `machine` to halt with a loop identical to `run_to_halt`.
fn run_to_halt<S: HardwareLayer + 'static>(
    machine: &mut Machine<S>,
    halted: fn(&S) -> bool,
) -> Result<(), ModelError> {
    while !halted(&machine.shared) && machine.cycle() < MAX_CYCLES {
        machine.step()?;
    }
    Ok(())
}

/// Builds and runs one program under `mode` with a digest trace; returns
/// what it produced (`None` on a model error or no halt), its exit code and
/// the run's seconds.
fn digest_run<M: Model>(program: &Program, mode: SchedulerMode) -> (Option<Expected>, u32, f64) {
    let mut sim = M::build(program);
    let machine = M::machine_mut(&mut sim);
    machine.set_scheduler_mode(mode);
    machine.enable_trace_with(Trace::digest_only());
    let start = Instant::now();
    let ran = run_to_halt(machine, M::halted);
    let seconds = secs(start);
    let (retired, exit) = M::outcome(&machine.shared);
    let expected = (ran.is_ok() && M::halted(&machine.shared)).then(|| Expected {
        cycles: machine.cycle(),
        retired,
        digest: machine.trace_digest().unwrap_or(0),
    });
    (expected, exit, seconds)
}

fn dense<M: Model>(opts: &Opts, rec: &mut Recorder, root: u64) {
    // Oracle and warm-up: ISS, Seed and Fast (digest-traced), and the
    // paired baseline model, per program.
    let oracle = rec.begin("oracle pass", Some(root));
    let specs = program_list(opts);
    let mut expected = Vec::with_capacity(specs.len());
    let (mut seed_s, mut fast_s) = (0.0, 0.0);
    let (mut base_cycles, mut base_s) = (0u64, 0.0);
    let (mut iss_retired, mut iss_s) = (0u64, 0.0);
    for w in &specs {
        let span = rec.begin(format!("oracle {}", w.name), Some(oracle));
        let program = w.program();
        let mut iss = Iss::with_program(SparseMemory::new(), &program);
        let start = Instant::now();
        let iss_ok = iss.run(MAX_CYCLES).is_ok();
        iss_s += secs(start);
        iss_retired += iss.retired;
        let (seed, seed_exit, s) = digest_run::<M>(&program, SchedulerMode::Seed);
        let (fast, _, f) = digest_run::<M>(&program, SchedulerMode::Fast);
        let (cycles, base_exit, b) = M::baseline(&program);
        seed_s += s;
        fast_s += f;
        base_cycles += cycles;
        base_s += b;
        rec.check(iss_ok && iss.halted, || {
            format!("{}: ISS did not halt", w.name)
        });
        rec.check(seed.is_some(), || {
            format!("{}: Seed run did not halt", w.name)
        });
        rec.check(seed.map(|e| e.cycles) == Some(cycles), || {
            format!(
                "{}: OSM cycles {seed:?} differ from the baseline's {cycles}",
                w.name
            )
        });
        rec.check(
            seed_exit == iss.exit_code && base_exit == iss.exit_code,
            || {
                format!(
                    "{}: exit codes OSM {seed_exit}, baseline {base_exit}, ISS {}",
                    w.name, iss.exit_code
                )
            },
        );
        rec.check(fast == seed, || {
            format!("{}: Fast {fast:?} != Seed {seed:?}", w.name)
        });
        expected.push(seed.unwrap_or(Expected {
            cycles: 0,
            retired: 0,
            digest: 0,
        }));
        rec.end(span);
    }
    rec.end(oracle);

    let setup = |_| -> Vec<M::Sim> {
        program_list(opts)
            .iter()
            .map(|w| M::build(&w.program()))
            .collect()
    };
    let untraced_s = timed_passes(opts, rec, root, setup, |rec, mut sims| {
        let start = Instant::now();
        let ran: Vec<bool> = sims
            .iter_mut()
            .map(|sim| run_to_halt(M::machine_mut(sim), M::halted).is_ok())
            .collect();
        let mut p = Pass {
            run_s: secs(start),
            jobs: sims.len() as u64,
            ..Pass::default()
        };
        for ((sim, ok), (w, e)) in sims.iter().zip(ran).zip(specs.iter().zip(&expected)) {
            let m = M::machine(sim);
            let (retired, _) = M::outcome(&m.shared);
            p.cycles += m.cycle();
            p.retired += retired;
            rec.check(ok && m.cycle() == e.cycles && retired == e.retired, || {
                format!(
                    "{}: timed pass ran {} cycles, oracle {}",
                    w.name,
                    m.cycle(),
                    e.cycles
                )
            });
        }
        p
    });

    // The baselines and the OSM model's Fast run were timed program by
    // program in the oracle pass, so their ratio sees one host state.
    let kcps = base_cycles as f64 / base_s / 1e3;
    let osm_kcps = expected.iter().map(|e| e.cycles).sum::<u64>() as f64 / fast_s / 1e3;
    rec.sample(M::BASELINE_KCPS, kcps);
    rec.sample(M::OSM_OVER_BASELINE, osm_kcps / kcps);
    rec.sample("minirisc.iss_kips", iss_retired as f64 / iss_s / 1e3);
    rec.sample("osm-core.fast_over_seed", seed_s / fast_s);
    if !opts.trace {
        return;
    }

    // Traced pass: Fast scheduler with a digest trace, which must equal the
    // Seed oracle's. Two sub-passes, so neither instrument inflates what
    // the other measures: every step timed, then every manager wrapped in
    // the timing decorator.
    let traced = rec.begin("traced pass", Some(root));
    let (mut steps, mut decorated) = (StepTimes::default(), StepTimes::default());
    let sink = TmiSink::default();
    let mut stats = Stats::new();
    let mut caches = [(0u64, 0u64); 2];
    for decorate in [false, true] {
        let sub = rec.begin(SUB_PASSES[usize::from(decorate)], Some(traced));
        let setup = rec.begin("setup", Some(sub));
        let start = Instant::now();
        let specs = program_list(opts);
        let programs: Vec<Program> = specs.iter().map(Workload::program).collect();
        let assemble_ms = secs(start) * 1e3;
        let start = Instant::now();
        let mut sims: Vec<M::Sim> = programs.iter().map(M::build).collect();
        let build_ms = secs(start) * 1e3;
        for sim in &mut sims {
            let machine = M::machine_mut(sim);
            if decorate {
                tmi::instrument(&mut machine.managers, &sink, rec.timer_ns);
            }
            machine.enable_trace_with(Trace::digest_only());
        }
        rec.end(setup);
        let times = if decorate { &mut decorated } else { &mut steps };
        for ((sim, w), e) in sims.iter_mut().zip(&specs).zip(&expected) {
            let span = rec.begin(format!("run {}", w.name), Some(sub));
            let machine = M::machine_mut(sim);
            let ok = times.run(machine, rec.timer_ns, !decorate, |m| {
                M::halted(&m.shared) || m.cycle() >= MAX_CYCLES
            });
            rec.end(span);
            rec.check(ok && machine.trace_digest() == Some(e.digest), || {
                format!("{}: traced digest differs from the Seed oracle's", w.name)
            });
            if !decorate {
                add_stats(&mut stats, &machine.stats);
                for (total, (accesses, misses)) in caches.iter_mut().zip(M::caches(&machine.shared))
                {
                    total.0 += accesses;
                    total.1 += misses;
                }
            }
        }
        // Dropping the machines folds the decorators' counters into `sink`.
        drop(sims);
        rec.end(sub);
        if !decorate {
            rec.sample("workloads.assemble_ms", assemble_ms);
            rec.sample("model.build_ms", build_ms);
        }
    }
    rec.end(traced);
    rec.sample(
        "trace.overhead_ratio",
        (steps.wall_s + decorated.wall_s) / untraced_s,
    );
    rec.sample("memsys.icache_miss_ratio", ratio(caches[0].1, caches[0].0));
    rec.sample("memsys.dcache_miss_ratio", ratio(caches[1].1, caches[1].0));
    rec.sample(
        "memsys.accesses_per_cycle",
        ratio(caches[0].0 + caches[1].0, stats.cycles),
    );
    layer_metrics(rec, &stats, &mut steps, &sink, untraced_s);
}

/// Span names of the two traced sub-passes.
const SUB_PASSES: [&str; 2] = ["step-timed sub-pass", "decorated sub-pass"];

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Adds the scheduler counters of `s` to `total`.
pub fn add_stats(total: &mut Stats, s: &Stats) {
    total.cycles += s.cycles;
    total.transitions += s.transitions;
    total.condition_failures += s.condition_failures;
    total.vetoed_edges += s.vetoed_edges;
    total.idle_steps += s.idle_steps;
    total.restarts += s.restarts;
}

/// Host times of a traced sub-pass.
#[derive(Debug, Default)]
struct StepTimes {
    /// Each step's time with the timer cost removed, ns (when timed).
    ns: Vec<u32>,
    /// Wall time of the stepping loops, timers included.
    wall_s: f64,
}

impl StepTimes {
    /// Steps `machine` until `done`, timing every step when `time_each`;
    /// false on a model error.
    fn run<S: HardwareLayer + 'static>(
        &mut self,
        machine: &mut Machine<S>,
        timer_ns: u64,
        time_each: bool,
        done: impl Fn(&Machine<S>) -> bool,
    ) -> bool {
        let start = Instant::now();
        let mut ok = true;
        while ok && !done(machine) {
            if time_each {
                let t = Instant::now();
                ok = machine.step().is_ok();
                let ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
                self.ns
                    .push(u32::try_from(ns.saturating_sub(timer_ns)).unwrap_or(u32::MAX));
            } else {
                ok = machine.step().is_ok();
            }
        }
        self.wall_s += secs(start);
        ok
    }

    fn percentile(&mut self, p: f64) -> f64 {
        if self.ns.is_empty() {
            return 0.0;
        }
        let rank = ((p / 100.0 * self.ns.len() as f64).ceil() as usize).clamp(1, self.ns.len());
        *self.ns.select_nth_unstable(rank - 1).1 as f64
    }
}

/// The director's work counters, from the public `Stats`; an evaluation
/// is a committed transition, a failed condition or a vetoed edge.
pub fn stats_metrics(rec: &mut Recorder, stats: &Stats) {
    let cycles = stats.cycles.max(1) as f64;
    let evals = stats.transitions + stats.condition_failures + stats.vetoed_edges;
    rec.sample("osm-core.evals_per_cycle", evals as f64 / cycles);
    rec.sample(
        "osm-core.useful_eval_ratio",
        ratio(stats.transitions, evals),
    );
    rec.sample(
        "osm-core.transitions_per_cycle",
        stats.transitions as f64 / cycles,
    );
    rec.sample("osm-core.idle_step_ratio", stats.idle_steps as f64 / cycles);
    rec.sample(
        "osm-core.restarts_per_cycle",
        stats.restarts as f64 / cycles,
    );
}

/// The director and token-manager metrics of a traced pass. The director's
/// self time is the untraced pass's time per cycle minus the token
/// managers' time per cycle: the decorators' own cost stays out of both.
fn layer_metrics(
    rec: &mut Recorder,
    stats: &Stats,
    steps: &mut StepTimes,
    sink: &TmiSink,
    untraced_s: f64,
) {
    stats_metrics(rec, stats);
    rec.sample("osm-core.step_ns_p50", steps.percentile(50.0));
    rec.sample("osm-core.step_ns_p99", steps.percentile(99.0));
    let cycles = stats.cycles.max(1) as f64;
    let totals = sink.lock().expect("no decorator panicked").clone();
    let mut tmi_ns = 0.0;
    for kind in KINDS {
        let t = totals.get(kind).copied().unwrap_or_default();
        tmi_ns += t.ns as f64;
        rec.sample(
            &format!("tmi.{kind}.calls_per_cycle"),
            t.calls as f64 / cycles,
        );
        rec.sample(&format!("tmi.{kind}.ns_per_cycle"), t.ns as f64 / cycles);
        rec.sample(
            &format!("tmi.{kind}.deny_ratio"),
            ratio(t.denials, t.decisions),
        );
    }
    let director = (untraced_s * 1e9 - tmi_ns).max(0.0) / cycles;
    rec.sample("osm-core.director_self_ns_per_cycle", director);
}

/// One generated ADL machine that passed screening, with what every later
/// run of it must reproduce.
#[derive(Debug, Clone)]
pub struct AdlMachine {
    /// Canonical ADL source.
    pub source: String,
    /// OSM instances, spawned round-robin over the classes.
    pub osms: u32,
    /// Committed transitions over the full run.
    pub transitions: u64,
    /// Trace digest over the full run (Fast scheduler).
    pub digest: u64,
    /// Trace digest after the oracle prefix (Fast scheduler).
    pub prefix_digest: u64,
    /// Seconds the Fast scheduler took for the prefix.
    pub prefix_fast_s: f64,
}

/// Builds a synthesized machine: managers in declaration order, `osms`
/// instances round-robin over the classes, inert behaviors.
fn build_adl(synth: &osm_adl::SynthesizedMachine, osms: u32) -> Machine<()> {
    let mut machine: Machine<()> = Machine::new(());
    synth.install_managers(&mut machine);
    for k in 0..osms as usize {
        machine.add_osm(&synth.specs[k % synth.specs.len()].1, InertBehavior);
    }
    machine
}

/// Runs `osms` instances of `source` for `cycles` cycles (Fast scheduler,
/// digest trace) and keeps the machine only if it never errs and still
/// commits transitions in its last tenth (at most 1000 cycles): a wedged
/// machine measures nothing.
fn screen(source: &str, osms: u32, cycles: u64, prefix: u64) -> Option<AdlMachine> {
    let tail = (cycles / 10).min(1_000);
    let synth = osm_adl::load(source).ok()?;
    let mut machine = build_adl(&synth, osms);
    machine.enable_trace_with(Trace::digest_only());
    let start = Instant::now();
    machine.run(prefix).ok()?;
    let prefix_fast_s = secs(start);
    let prefix_digest = machine.trace_digest()?;
    machine.run(cycles - prefix - tail).ok()?;
    let before_tail = machine.stats.transitions;
    machine.run(tail).ok()?;
    (machine.stats.transitions > before_tail).then(|| AdlMachine {
        source: source.to_owned(),
        osms,
        transitions: machine.stats.transitions,
        digest: machine.trace_digest().unwrap_or(0),
        prefix_digest,
        prefix_fast_s,
    })
}

/// Generator seed of the machine structures. Generated machines differ in
/// host speed per cycle by up to 60x, so structures drawn per input seed
/// would swamp any change the ADL workloads are meant to show; the
/// structures are one fixed, screened suite instead, and the input seed
/// sets each machine's OSM population (within 4 of the generated count).
const SUITE_SEED: u64 = 0x05E1_EC7E;

/// The first `count` generated structures (bounded by `config`) that pass
/// [`screen`] at their generated OSM count, each populated per `seed`
/// (falling back to the generated count when the seeded one wedges).
/// Returns the machines and the number of structures tried.
pub fn adl_suite(
    seed: u64,
    count: usize,
    config: &GenConfig,
    cycles: u64,
    prefix: u64,
) -> (Vec<AdlMachine>, usize) {
    let mut structures = SplitMix64::new(SUITE_SEED);
    let mut populations = SplitMix64::new(seed);
    let mut kept = Vec::with_capacity(count);
    let mut tried = 0;
    while kept.len() < count && tried < 64 * count {
        tried += 1;
        let case = osm_fuzz::generate(structures.next_u64(), config);
        let Some(base) = screen(&case.source, case.osms, cycles, prefix) else {
            continue;
        };
        let osms = (case.osms + populations.below(9) as u32)
            .saturating_sub(4)
            .max(1);
        kept.push(screen(&case.source, osms, cycles, prefix).unwrap_or(base));
    }
    (kept, tried)
}

/// Eight generated ADL machines with 2–4 managers and 64–192 OSMs, 5k
/// cycles each, through `osm_adl::load`, `install_managers` and
/// `InertBehavior`.
pub fn adl(opts: &Opts, rec: &mut Recorder, root: u64) {
    let (count, cycles, prefix) = if opts.quick {
        (2, 600, 200)
    } else {
        (8, 5_000, 2_000)
    };
    let config = GenConfig {
        managers: (2, 4),
        osms: if opts.quick { (16, 32) } else { (64, 192) },
        fault_chance: (0, 1),
        ..GenConfig::default()
    };
    let oracle = rec.begin("oracle pass", Some(root));
    let (machines, tried) = adl_suite(opts.seed, count, &config, cycles, prefix);
    rec.check(machines.len() == count, || {
        format!(
            "only {} of {count} machines survived screening ({tried} tried)",
            machines.len()
        )
    });
    // Seed oracle on the prefix.
    let (mut seed_s, mut fast_s) = (0.0, 0.0);
    for (k, m) in machines.iter().enumerate() {
        let synth = osm_adl::load(&m.source).expect("screened machines load");
        let mut machine = build_adl(&synth, m.osms);
        machine.set_scheduler_mode(SchedulerMode::Seed);
        machine.enable_trace_with(Trace::digest_only());
        let start = Instant::now();
        let ran = machine.run(prefix);
        seed_s += secs(start);
        fast_s += m.prefix_fast_s;
        rec.check(
            ran.is_ok() && machine.trace_digest() == Some(m.prefix_digest),
            || format!("machine {k}: Seed prefix digest differs from Fast"),
        );
    }
    rec.end(oracle);
    rec.sample("osm-core.fast_over_seed", seed_s / fast_s);

    let setup = |_| -> Vec<Machine<()>> {
        machines
            .iter()
            .map(|m| build_adl(&osm_adl::load(&m.source).expect("screened"), m.osms))
            .collect()
    };
    let untraced_s = timed_passes(opts, rec, root, setup, |rec, mut built| {
        let start = Instant::now();
        let ran: Vec<bool> = built
            .iter_mut()
            .map(|machine| {
                (0..cycles)
                    .try_for_each(|_| machine.step().map(drop))
                    .is_ok()
            })
            .collect();
        let mut p = Pass {
            run_s: secs(start),
            jobs: built.len() as u64,
            ..Pass::default()
        };
        for (k, ((machine, ok), m)) in built.iter().zip(ran).zip(&machines).enumerate() {
            p.cycles += machine.cycle();
            p.retired += machine.stats.transitions;
            rec.check(ok && machine.stats.transitions == m.transitions, || {
                format!("machine {k}: timed pass diverged from the oracle")
            });
        }
        p
    });
    if !opts.trace {
        return;
    }

    // Traced pass, in the same two sub-passes as the dense workloads. The
    // prefix digest must equal the Seed oracle's, the full one the Fast
    // screening run's.
    let traced = rec.begin("traced pass", Some(root));
    let (mut steps, mut decorated) = (StepTimes::default(), StepTimes::default());
    let sink = TmiSink::default();
    let mut stats = Stats::new();
    for decorate in [false, true] {
        let sub = rec.begin(SUB_PASSES[usize::from(decorate)], Some(traced));
        let setup = rec.begin("setup", Some(sub));
        let start = Instant::now();
        let synths: Vec<_> = machines
            .iter()
            .map(|m| osm_adl::load(&m.source).expect("screened"))
            .collect();
        let load_ms = secs(start) * 1e3;
        let start = Instant::now();
        let mut built: Vec<Machine<()>> = synths
            .iter()
            .zip(&machines)
            .map(|(synth, m)| build_adl(synth, m.osms))
            .collect();
        let build_ms = secs(start) * 1e3;
        for machine in &mut built {
            if decorate {
                tmi::instrument(&mut machine.managers, &sink, rec.timer_ns);
            }
            machine.enable_trace_with(Trace::digest_only());
        }
        rec.end(setup);
        let times = if decorate { &mut decorated } else { &mut steps };
        for (k, (machine, m)) in built.iter_mut().zip(&machines).enumerate() {
            let span = rec.begin(format!("run machine {k}"), Some(sub));
            let ok = times.run(machine, rec.timer_ns, !decorate, |m| m.cycle() >= prefix);
            let prefix_ok = machine.trace_digest() == Some(m.prefix_digest);
            let ok = ok && times.run(machine, rec.timer_ns, !decorate, |m| m.cycle() >= cycles);
            rec.end(span);
            rec.check(
                ok && prefix_ok && machine.trace_digest() == Some(m.digest),
                || format!("machine {k}: traced digest differs from the oracle's"),
            );
            if !decorate {
                add_stats(&mut stats, &machine.stats);
            }
        }
        drop(built);
        rec.end(sub);
        if !decorate {
            rec.sample("osm-adl.load_ms", load_ms);
            rec.sample("model.build_ms", build_ms);
        }
    }
    rec.end(traced);
    rec.sample(
        "trace.overhead_ratio",
        (steps.wall_s + decorated.wall_s) / untraced_s,
    );
    layer_metrics(rec, &stats, &mut steps, &sink, untraced_s);
}
