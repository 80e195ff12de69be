//! The measurement loop every workload shares, and the recorder that
//! collects its samples, oracle checks and spans.

use crate::catalog::Catalog;
use crate::probe;
use crate::report::{Metric, Span, WorkloadReport};
use crate::stats::Summary;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// How a workload is sized and measured.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Input seed: the same seed gives the same programs, machines and jobs.
    pub seed: u64,
    /// Minimum number of timed passes.
    pub reps: usize,
    /// Minimum time spent in timed passes, seconds.
    pub seconds: f64,
    /// 1/100-scale inputs (smoke tests).
    pub quick: bool,
    /// Run the traced pass that yields the per-layer metrics.
    pub trace: bool,
}

/// What one timed pass's run did.
#[derive(Debug, Clone, Copy, Default)]
pub struct Pass {
    /// Host seconds spent simulating.
    pub run_s: f64,
    /// Simulated cycles (ISS: instructions).
    pub cycles: u64,
    /// Retired instructions (ADL machines: committed transitions).
    pub retired: u64,
    /// Completed programs or jobs.
    pub jobs: u64,
}

/// Collects one workload's samples, oracle checks and spans.
#[derive(Debug)]
pub struct Recorder {
    catalog: Catalog,
    epoch: Instant,
    samples: BTreeMap<String, Vec<f64>>,
    report: WorkloadReport,
    /// Calibrated cost of one `Instant::now()`, ns: removed from every
    /// fine-grained timing.
    pub timer_ns: u64,
}

impl Recorder {
    /// A recorder whose span clock starts now.
    pub fn new() -> Recorder {
        Recorder {
            catalog: Catalog::builtin(),
            epoch: Instant::now(),
            samples: BTreeMap::new(),
            report: WorkloadReport::default(),
            timer_ns: calibrate_timer_ns(),
        }
    }

    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span on the harness track; close it with [`Recorder::end`].
    pub fn begin(&mut self, name: impl Into<String>, parent: Option<u64>) -> u64 {
        let now = self.now_ns();
        self.span_at(name, parent, 0, now, now)
    }

    /// Closes a span opened by [`Recorder::begin`].
    pub fn end(&mut self, id: u64) {
        let now = self.now_ns();
        let index = usize::try_from(id - 1).expect("span ids index the span list");
        self.report.spans[index].end_ns = now;
    }

    /// Records a finished span measured elsewhere (farm job attempts).
    pub fn span_at(
        &mut self,
        name: impl Into<String>,
        parent: Option<u64>,
        tid: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let id = self.report.spans.len() as u64 + 1;
        self.report.spans.push(Span {
            id,
            parent,
            name: name.into(),
            tid,
            start_ns,
            end_ns,
        });
        id
    }

    /// Adds one sample of a catalog metric.
    ///
    /// # Panics
    /// On a name `BENCHMARK.json` does not declare, or a non-finite value:
    /// both are bugs in this harness.
    pub fn sample(&mut self, name: &str, value: f64) {
        assert!(
            self.catalog.metric(name).is_some(),
            "metric `{name}` is not declared in BENCHMARK.json"
        );
        assert!(value.is_finite(), "metric `{name}` is not finite: {value}");
        self.samples.entry(name.to_owned()).or_default().push(value);
    }

    /// Counts one attempted operation or oracle check; a failing one is
    /// reported on stderr and counted in `failed`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.report.attempted += 1;
        if !ok {
            self.report.failed += 1;
            eprintln!("perf: check failed: {}", what());
        }
    }

    /// The workload's report: every metric summarized, plus `fail_ratio`.
    pub fn finish(mut self) -> WorkloadReport {
        let attempted = self.report.attempted.max(1);
        let ratio = self.report.failed as f64 / attempted as f64;
        self.sample("fail_ratio", ratio);
        for (name, values) in &self.samples {
            let def = self.catalog.metric(name).expect("checked in sample()");
            self.report.metrics.insert(
                name.clone(),
                Metric {
                    unit: def.unit.clone(),
                    summary: Summary::of(values),
                },
            );
        }
        self.report
    }
}

/// Setups timed per pass: setup is short and its time noisy, so it is
/// sampled several times and reported as the median of all samples.
const SETUPS_PER_PASS: usize = 3;

/// Runs timed passes until both `opts.reps` passes and `opts.seconds`
/// seconds are done. A pass times `setup` (given the pass number; the
/// inputs of its last call feed the run) and hands the inputs to `run`,
/// which times the simulation itself and checks its outputs.
///
/// The host-speed probe runs before the first pass and after every pass.
/// Each pass's setup and run times are divided by its `host.slowdown`, the
/// mean of the two probe times around it over [`probe::REFERENCE_MS`], so
/// every end-to-end time is what the host would give when idle. Samples
/// every end-to-end metric (and the exact `sim_cycles`/`sim_ipc`) per
/// pass, then the process's peak RSS. Returns the median unscaled run
/// time, the base of `trace.overhead_ratio`.
pub fn timed_passes<I>(
    opts: &Opts,
    rec: &mut Recorder,
    parent: u64,
    mut setup: impl FnMut(usize) -> I,
    mut run: impl FnMut(&mut Recorder, I) -> Pass,
) -> f64 {
    let started = Instant::now();
    let mut run_s = Vec::new();
    let mut before = host_probe(rec, parent);
    while run_s.len() < opts.reps.max(1) || started.elapsed().as_secs_f64() < opts.seconds {
        let pass = rec.begin("timed pass", Some(parent));
        let span = rec.begin("setup", Some(pass));
        let mut inputs = None;
        let mut setup_s = [0.0; SETUPS_PER_PASS];
        for s in &mut setup_s {
            drop(inputs.take());
            let start = Instant::now();
            inputs = Some(setup(run_s.len() + 1));
            *s = secs(start);
        }
        rec.end(span);
        let span = rec.begin("run", Some(pass));
        let p = run(rec, inputs.expect("at least one setup ran"));
        rec.end(span);
        rec.end(pass);
        let after = host_probe(rec, parent);
        let slowdown = (before + after) / 2.0 / probe::REFERENCE_MS;
        before = after;
        rec.sample("host.slowdown", slowdown);
        for s in setup_s {
            rec.sample("setup_s", s / slowdown);
        }
        let idle_s = p.run_s / slowdown;
        rec.sample("sim_kcps", p.cycles as f64 / idle_s / 1e3);
        rec.sample("sim_kips", p.retired as f64 / idle_s / 1e3);
        rec.sample("jobs_per_s", p.jobs as f64 / idle_s);
        rec.sample("sim_cycles", p.cycles as f64);
        rec.sample("sim_ipc", p.retired as f64 / p.cycles.max(1) as f64);
        run_s.push(p.run_s);
    }
    match peak_rss_mb() {
        Some(mb) => rec.sample("peak_rss_mb", mb),
        None => rec.check(false, || {
            "VmHWM is not readable from /proc/self/status".into()
        }),
    }
    Summary::of(&run_s).median
}

/// Runs the host-speed probe once, in a span of its own; returns its ms.
fn host_probe(rec: &mut Recorder, parent: u64) -> f64 {
    let span = rec.begin("host probe", Some(parent));
    let ms = probe::probe_ms();
    rec.end(span);
    ms
}

/// Seconds elapsed since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Median cost of one `Instant::now()` read, ns (the interval between two
/// back-to-back reads).
fn calibrate_timer_ns() -> u64 {
    let mut deltas: Vec<u128> = (0..20_000)
        .map(|_| {
            let a = Instant::now();
            (Instant::now() - a).as_nanos()
        })
        .collect();
    deltas.sort_unstable();
    u64::try_from(deltas[deltas.len() / 2]).unwrap_or(u64::MAX)
}

/// The process's peak resident set (`VmHWM`), MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// A private working directory under `.perf_work/` in the current
/// directory, removed (with everything in it) when dropped.
#[derive(Debug)]
pub struct Scratch {
    path: PathBuf,
}

/// The directory all scratch directories live in.
const SCRATCH_ROOT: &str = ".perf_work";

impl Scratch {
    /// Creates `.perf_work/<pid>-<tag>`.
    pub fn new(tag: &str) -> std::io::Result<Scratch> {
        let path = Path::new(SCRATCH_ROOT).join(format!("{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(Scratch {
            path: path.canonicalize()?,
        })
    }

    /// The directory's absolute path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Succeeds only once the last concurrent user is gone.
        if let Some(root) = self.path.parent() {
            let _ = std::fs::remove_dir(root);
        }
    }
}
