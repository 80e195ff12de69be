//! Control hazards through the reset-manager idiom (paper §4): a branchy
//! program on the StrongARM model, with the event log's transitions showing
//! the speculative wrong-path operation taking its high-priority reset edge.
//!
//! Run with: `cargo run --example control_hazards`

use osm_repro::minirisc::assemble;
use osm_repro::sa1100::{SaConfig, SaOsmSim};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A loop whose branch direction alternates: maximally unfriendly to the
    // sequential-fetch front end.
    let program = assemble(
        "
            li r1, 8
            li r3, 0
        loop:
            andi r2, r1, 1
            beq r2, r0, even
            addi r3, r3, 100
        even:
            addi r3, r3, 1
            addi r1, r1, -1
            bne r1, r0, loop
            li r10, 0
            add r11, r3, r0
            syscall
        ",
        0x1000,
    )?;

    let mut sim = SaOsmSim::new(SaConfig::paper(), &program);
    sim.machine_mut().enable_event_log();
    let result = sim.run_to_halt(1_000_000)?;

    println!("exit code: {} (4 odd iterations x 100 + 8 x 1 = 408)", result.exit_code);
    println!(
        "cycles: {}, retired: {}, squashed wrong-path ops: {}\n",
        result.cycles, result.retired, result.squashed
    );

    // Show reset edges firing among the logged transitions.
    let log = sim.machine().event_log().expect("event log enabled");
    let spec = &sim.machine().specs()[0];
    println!("reset-edge transitions (speculative operations being killed):");
    let mut shown = 0;
    for ev in log.transitions() {
        let edge = spec.edge(ev.edge);
        if edge.name.starts_with("reset") {
            println!(
                "  cycle {:>3}: {} took `{}` ({} -> {})",
                ev.cycle,
                ev.osm,
                edge.name,
                spec.state_name(ev.from),
                spec.state_name(ev.to)
            );
            shown += 1;
            if shown == 8 {
                break;
            }
        }
    }
    println!(
        "\neach kill: the branch resolved in E, armed the reset manager, and the\n\
         wrong-path operation's priority-10 reset edge discarded its tokens."
    );
    Ok(())
}
