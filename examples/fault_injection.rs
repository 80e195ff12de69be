//! Resilience walk-through: deterministic fault injection, the stall
//! watchdog, and checkpoint/restore recovery on the StrongARM OSM model.
//!
//! The scenario: a fault injector sits in front of the buffer stage's token
//! manager (the D-cache port) and, from cycle 120 on, denies every token
//! transaction — a stuck-at fault on the port arbiter. The pipeline wedges;
//! the watchdog diagnoses *which* operations are blocked, in which states,
//! waiting on which managers; the operator repairs the fault, rewinds to the
//! last known-good checkpoint and completes the run — with a result that
//! matches the fault-free reference bit for bit.
//!
//! Run with: `cargo run --release --example fault_injection`

use osm_repro::osm_core::{FaultPlan, ModelError};
use osm_repro::sa1100::{SaConfig, SaOsmSim};

const KERNEL: &str = "
    li r1, 40
    li r2, 0
    la r3, buf
loop:
    add r2, r2, r1
    sw r2, 0(r3)
    lw r4, 0(r3)
    addi r3, r3, 4
    addi r1, r1, -1
    bne r1, r0, loop
    li r10, 0
    add r11, r2, r0
    syscall
buf:
    .space 256
";

/// Cycles between checkpoints.
const CKPT_PERIOD: u64 = 50;
/// Watchdog limit: must exceed the worst-case natural stall (cold TLB walk
/// + cache miss + bus is ~60 cycles in the paper configuration).
const STALL_LIMIT: u64 = 200;

fn main() {
    let program = minirisc::assemble(KERNEL, 0x1000).expect("kernel assembles");
    let cfg = SaConfig::paper();

    // Fault-free reference run.
    let mut clean = SaOsmSim::new(cfg, &program);
    let reference = clean.run_to_halt(1_000_000).expect("reference completes");
    println!("reference : {} cycles, {} retired, exit {}", reference.cycles, reference.retired, reference.exit_code);

    // Faulty run: blackhole the buffer stage (D-cache port) from cycle 120.
    let mut sim = SaOsmSim::new(cfg, &program);
    sim.set_stall_limit(Some(STALL_LIMIT));
    let plan = FaultPlan::new(0x5EED).blackhole(120, u64::MAX);
    let handle = sim.inject_faults(sim.ids.mb, plan);

    // A checkpoint is the sealed byte string `osm_core::Machine::checkpoint`
    // writes: the same bytes could go to disk and restore a fresh simulator.
    let mut last_good: Vec<u8> = sim.checkpoint().expect("checkpoint");
    let mut transitions_at_ckpt = 0u64;
    let stall = loop {
        match sim.step() {
            Ok(()) if sim.machine().shared.halted => {
                unreachable!("the injected fault cannot let the run complete")
            }
            Ok(()) => {
                let cycle = sim.machine().cycle();
                let transitions = sim.machine().stats.transitions;
                // Periodic checkpoint, kept only if the pipeline has made
                // progress since the previous one (i.e. it is known good).
                if cycle.is_multiple_of(CKPT_PERIOD) && transitions > transitions_at_ckpt {
                    last_good = sim.checkpoint().expect("checkpoint");
                    transitions_at_ckpt = transitions;
                }
            }
            Err(ModelError::Stalled(report)) => break report,
            Err(other) => panic!("unexpected simulator error: {other}"),
        }
    };

    println!("\nwatchdog  : {} at cycle {} (no progress for {} cycles)", stall.kind, stall.cycle, stall.stalled_for);
    for b in &stall.blocked {
        println!("  osm {:>2} [{}] in state {}", b.osm.0, b.spec, b.state);
        for w in &b.waiting_on {
            println!("      waiting: {w}");
        }
    }
    println!("faults    : {} injected so far", handle.stats().total());

    // Operator repair: disable the injector, rewind, re-run to completion.
    handle.disable();
    sim.restore(&last_good).expect("restore last good checkpoint");
    println!("\nrestored  : cycle {} (last known-good checkpoint)", sim.machine().cycle());
    let recovered = sim.run_to_halt(1_000_000).expect("recovered run completes");
    println!("recovered : {} cycles, {} retired, exit {}", recovered.cycles, recovered.retired, recovered.exit_code);

    assert_eq!(recovered.exit_code, reference.exit_code);
    assert_eq!(recovered.retired, reference.retired);
    assert_eq!(recovered.output, reference.output);
    println!("\nrecovered run matches the fault-free reference (exit code, retired instructions, output).");
}
