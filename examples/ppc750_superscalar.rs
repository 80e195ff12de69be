//! The PowerPC 750 case study: dual-issue out-of-order execution with
//! reservation stations, rename buffers, branch prediction and in-order
//! completion — the Fig. 2 state machine in action, plus the comparison
//! against the hardware-centric port/signal model.
//!
//! Run with: `cargo run --release --example ppc750_superscalar`

use osm_repro::ppc750::{PpcConfig, PpcOsmSim, PpcPortSim};
use osm_repro::workloads::{mediabench, specint_mix};

fn main() {
    let cfg = PpcConfig::paper();
    println!("PowerPC 750: OSM model vs port/signal (SystemC-style) model\n");

    // Show the Fig. 2 spec shape once.
    let demo = mediabench().remove(0);
    let sim = PpcOsmSim::new(cfg, &demo.program());
    let spec = &sim.machine().specs()[0];
    println!(
        "operation state machine: {} states, {} edges (both the direct Q->E \
         dispatch paths\nand the Q->R->E reservation-station paths of Fig. 2)\n",
        spec.state_count(),
        spec.edge_count()
    );

    println!(
        "{:<12} {:>10} {:>10} {:>7} {:>7} {:>14} {:>8}",
        "benchmark", "OSM cyc", "port cyc", "diff", "CPI", "mispredict", "squash"
    );
    let mut workloads = mediabench();
    workloads.push(specint_mix());
    for w in workloads {
        let program = w.program();
        let mut osm = PpcOsmSim::new(cfg, &program);
        let o = osm.run_to_halt(100_000_000).expect("no deadlock");
        let mut port = PpcPortSim::new(cfg, &program);
        let p = port.run_to_halt(100_000_000);
        assert_eq!(o.exit_code, p.exit_code, "functional mismatch on {}", w.name);
        println!(
            "{:<12} {:>10} {:>10} {:>6.2}% {:>7.3} {:>8}/{:<5} {:>8}",
            w.name,
            o.cycles,
            p.cycles,
            100.0 * (p.cycles as f64 - o.cycles as f64) / o.cycles as f64,
            o.cpi(),
            o.mispredicts,
            o.branches,
            o.squashed,
        );
    }

    println!(
        "\nCPI < 1 shows dual issue at work; squashes come from the control-hazard\n\
         idiom (reset manager + high-priority reset edges, paper §4)."
    );
}
