//! The StrongARM case study end to end: assemble a MediaBench-like kernel,
//! run it on the OSM model and on the independent reference simulator, and
//! compare timing (the paper's Table 1 methodology in miniature).
//!
//! Run with: `cargo run --release --example strongarm_pipeline`
//!
//! Observability flags (all optional):
//!   --kernel <name>        kernel to instrument (default: the first)
//!   --trace-out <path>     write a Chrome `chrome://tracing`/Perfetto JSON
//!                          trace of the instrumented kernel
//!   --metrics-out <path>   write the machine-readable metrics JSON
//!   --pipeview <cycles>    print a textual pipeline diagram of the first N
//!                          cycles
//!
//! Metrics and stall attribution cover the whole instrumented run. The
//! event log does so only with `--trace-out`, which exports all of it;
//! with `--pipeview` alone it covers just the diagrammed cycles.
//!
//! Example: `cargo run --release --example strongarm_pipeline -- \
//!     --trace-out trace.json --pipeview 60`

use osm_repro::sa1100::{RefSim, SaConfig, SaOsmSim};
use osm_repro::workloads::mediabench;

struct Args {
    kernel: Option<String>,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    pipeview: Option<u64>,
}

fn parse_args() -> Args {
    let mut args = Args {
        kernel: None,
        trace_out: None,
        metrics_out: None,
        pipeview: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match flag.as_str() {
            "--kernel" => args.kernel = Some(value("--kernel")),
            "--trace-out" => args.trace_out = Some(value("--trace-out")),
            "--metrics-out" => args.metrics_out = Some(value("--metrics-out")),
            "--pipeview" => {
                args.pipeview = Some(
                    value("--pipeview")
                        .parse()
                        .expect("--pipeview takes a cycle count"),
                )
            }
            other => panic!("unknown flag {other} (see the example's doc comment)"),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let cfg = SaConfig::paper();
    println!("StrongARM SA-1100: OSM model vs hand-sequenced reference\n");
    println!(
        "{:<10} {:>12} {:>12} {:>8} {:>8} {:>9} {:>8}",
        "kernel", "OSM cycles", "ref cycles", "CPI", "squash", "i$ miss", "exit"
    );

    for w in mediabench() {
        let program = w.program();

        let mut osm = SaOsmSim::new(cfg, &program);
        let osm_result = osm.run_to_halt(100_000_000).expect("no deadlock");

        let mut reference = RefSim::new(cfg, &program);
        let ref_result = reference.run_to_halt(100_000_000);

        assert_eq!(
            osm_result.exit_code, ref_result.exit_code,
            "functional mismatch on {}",
            w.name
        );

        println!(
            "{:<10} {:>12} {:>12} {:>8.3} {:>8} {:>9} {:>8}",
            w.name,
            osm_result.cycles,
            ref_result.cycles,
            osm_result.cpi(),
            osm_result.squashed,
            osm_result.icache_misses,
            osm_result.exit_code,
        );
    }

    println!(
        "\nBoth simulators share only the functional ISA layer; matching cycle\n\
         counts validate the OSM model the way the paper's iPAQ comparison does."
    );

    let observing =
        args.trace_out.is_some() || args.metrics_out.is_some() || args.pipeview.is_some();
    if !observing {
        return;
    }

    // Re-run one kernel with the observability stack on and export.
    let kernels = mediabench();
    let w = match &args.kernel {
        Some(name) => kernels
            .iter()
            .find(|w| w.name == *name)
            .unwrap_or_else(|| panic!("unknown kernel `{name}`")),
        None => &kernels[0],
    };
    println!("\ninstrumented run: {}", w.name);
    let mut sim = SaOsmSim::new(cfg, &w.program());
    sim.machine_mut().enable_metrics();
    sim.machine_mut().enable_stall_attribution();
    let mut window_log = None;
    if args.trace_out.is_some() {
        sim.machine_mut().enable_event_log();
    } else if let Some(n) = args.pipeview {
        sim.machine_mut().enable_event_log();
        sim.run_to_halt(n).expect("no deadlock");
        window_log = sim.machine_mut().take_event_log();
    }
    sim.run_to_halt(100_000_000).expect("no deadlock");
    let events = match (sim.machine().event_log(), &window_log, args.pipeview) {
        (Some(log), ..) => format!("observed {} events over the whole run", log.total()),
        (None, Some(log), Some(n)) => format!("observed {} events in cycles 0..{n}", log.total()),
        _ => "recorded no event log".to_owned(),
    };

    let stats = &sim.machine().stats;
    let hist = sim
        .machine()
        .stall_histogram()
        .expect("attribution enabled");
    println!(
        "{events}; stall charges {}, idle steps {} (Stats::idle_steps {})",
        hist.charged, hist.global_stall_cycles, stats.idle_steps,
    );
    println!("{hist}");

    if let Some(n) = args.pipeview {
        let machine = sim.machine();
        let diagram = match &window_log {
            // The OSMs that first move after the window get their lane too.
            Some(log) => {
                let later: Vec<_> = machine
                    .osms()
                    .filter(|osm| osm.last_move_cycle() >= n)
                    .map(|osm| osm.id())
                    .collect();
                osm_core::export::pipeline_diagram(log, machine.specs(), &later, 0, n)
            }
            None => {
                osm_core::export::pipeline_diagram_for(machine, 0, n).expect("event log enabled")
            }
        };
        print!("{diagram}");
    }
    if let Some(path) = &args.trace_out {
        let json = osm_core::export::chrome_trace_for(sim.machine()).expect("event log enabled");
        std::fs::write(path, &json).expect("write trace file");
        println!("wrote Chrome trace to {path} ({} bytes); load it in chrome://tracing or ui.perfetto.dev", json.len());
    }
    if let Some(path) = &args.metrics_out {
        let report = sim.machine().metrics_report().expect("metrics enabled");
        let json = osm_core::export::metrics_json(&report);
        std::fs::write(path, &json).expect("write metrics file");
        println!("wrote metrics JSON to {path}");
    }
}
