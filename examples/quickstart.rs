//! Quickstart: model the paper's 5-stage pipeline example (Figs. 5/6) from
//! scratch with `osm-core` and watch operations flow through it.
//!
//! Run with: `cargo run --example quickstart`

use osm_repro::osm_core::{
    ExclusivePool, IdentExpr, InertBehavior, Machine, ModelError, SpecBuilder,
};

fn main() -> Result<(), ModelError> {
    // --- Hardware layer: five pipeline stages, one occupancy token each ---
    let mut machine: Machine<()> = Machine::new(());
    let stages: Vec<_> = ["IF", "ID", "EX", "BF", "WB"]
        .iter()
        .map(|name| machine.add_manager(ExclusivePool::new(*name, 1)))
        .collect();

    // --- Operation layer: the Fig. 6 state machine ------------------------
    let mut b = SpecBuilder::new("op");
    let states: Vec<_> = ["I", "F", "D", "E", "B", "W"]
        .iter()
        .map(|n| b.state(*n))
        .collect();
    b.initial(states[0]);
    // I -> F: allocate the fetch stage.
    b.edge(states[0], states[1])
        .named("e0")
        .allocate(stages[0], IdentExpr::Const(0));
    // F -> D -> E -> B -> W: release the stage behind, allocate the next.
    for k in 1..5 {
        b.edge(states[k], states[k + 1])
            .named(format!("e{k}"))
            .release(stages[k - 1], IdentExpr::AnyHeld)
            .allocate(stages[k], IdentExpr::Const(0));
    }
    // W -> I: release write-back; the OSM is free to carry a new operation.
    b.edge(states[5], states[0])
        .named("e5")
        .release(stages[4], IdentExpr::AnyHeld);
    let spec = b.build().expect("spec is valid");

    // Eight operations compete for the pipeline (more than its depth).
    for _ in 0..8 {
        machine.add_osm(&spec, InertBehavior);
    }

    machine.enable_event_log();
    println!("cycle | operations in each state");
    println!("------+--------------------------");
    for _ in 0..12 {
        machine.step()?;
        let mut names: Vec<&str> = machine.osms().map(|o| o.state_name()).collect();
        names.sort_unstable();
        println!("{:5} | {}", machine.cycle(), names.join(" "));
    }

    let log = machine.event_log().expect("event log enabled");
    println!(
        "\n{} transitions committed; first five:",
        log.transitions().count()
    );
    for ev in log.transitions().take(5) {
        println!(
            "  @{} {} {}: {} -> {}",
            ev.cycle, ev.osm, ev.edge, ev.from, ev.to
        );
    }
    println!(
        "\nsteady state: one operation per stage, one retiring per cycle \
         (transitions/cycle = {:.2})",
        machine.stats.transitions_per_cycle()
    );
    Ok(())
}
