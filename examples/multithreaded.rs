//! The multithreading extension sketched in paper §6: "each OSM carries a
//! tag indicating the thread that it belongs to. The tags are used as part
//! of the identifiers for token transactions and may contribute to the
//! ranking of the OSMs."
//!
//! Two hardware threads share one 3-stage pipeline; each thread has its own
//! register scoreboard (the thread tag selects the manager), and a
//! tag-aware ranker arbitrates fetch between the threads round-robin.
//!
//! Run with: `cargo run --example multithreaded`

use osm_repro::osm_core::{
    Edge, ExclusivePool, IdentExpr, Machine, OsmView, SpecBuilder, TransitionCtx,
};

/// Shared state: per-thread fetch counters (how many ops each thread issued).
#[derive(Debug, Default)]
struct SmtState {
    issued: [u64; 2],
    preferred: u64, // thread to favour this cycle (flips each cycle)
}

impl osm_repro::osm_core::HardwareLayer for SmtState {
    fn clock(&mut self, cycle: u64, _managers: &mut osm_repro::osm_core::ManagerTable) {
        self.preferred = cycle % 2;
    }
}

struct CountIssue;

impl osm_repro::osm_core::Behavior<SmtState> for CountIssue {
    fn on_transition(&mut self, edge: &Edge, ctx: &mut TransitionCtx<'_, SmtState>) {
        if edge.name == "enter" {
            ctx.shared.issued[ctx.tag as usize] += 1;
        }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut machine: Machine<SmtState> = Machine::new(SmtState::default());
    let fetch = machine.add_manager(ExclusivePool::new("fetch", 1));
    let exec = machine.add_manager(ExclusivePool::new("exec", 1));

    let mut b = SpecBuilder::new("smt-op");
    let i = b.state("I");
    let f = b.state("F");
    let e = b.state("E");
    b.initial(i);
    b.edge(i, f).named("enter").allocate(fetch, IdentExpr::Const(0));
    b.edge(f, e)
        .named("exec")
        .release(fetch, IdentExpr::AnyHeld)
        .allocate(exec, IdentExpr::Const(0));
    b.edge(e, i).named("done").release(exec, IdentExpr::AnyHeld);
    let spec = b.build()?;

    // Four operation slots per thread, tagged with their thread id.
    for tag in 0..2u64 {
        for _ in 0..4 {
            machine.add_osm_tagged(&spec, CountIssue, tag);
        }
    }

    // Ranking: seniors first as usual, but among *idle* OSMs the preferred
    // thread of the cycle wins — round-robin fetch arbitration via tags.
    machine.set_ranker(|view: &OsmView<'_>, shared: &SmtState| {
        if view.age != u64::MAX {
            view.age // in-flight: ordinary age ranking
        } else if view.tag == shared.preferred {
            u64::MAX - 1 // idle, preferred thread: ahead of the other thread
        } else {
            u64::MAX
        }
    });

    machine.run(40)?;
    let s = &machine.shared;
    println!("after 40 cycles: thread0 issued {}, thread1 issued {}", s.issued[0], s.issued[1]);
    assert!((s.issued[0] as i64 - s.issued[1] as i64).abs() <= 1, "round-robin should be fair");
    println!("round-robin arbitration through tag-aware ranking: fair within one op\n");

    // The same idea at full scale: the two-thread SMT StrongARM, where the
    // thread tag is part of every register-token identifier.
    use osm_repro::minirisc::assemble;
    use osm_repro::sa1100::{SaConfig, SaOsmSim, SmtSim};
    let pa = assemble(
        "li r1, 200\nli r2, 0\nloop:\nadd r2, r2, r1\naddi r1, r1, -1\nbne r1, r0, loop\nli r10, 0\nandi r11, r2, 8191\nsyscall\n",
        0x1000,
    )?;
    let pb = assemble(
        "li r1, 150\nli r3, 1\nloop:\nmul r3, r3, r1\nandi r3, r3, 1023\nori r3, r3, 1\naddi r1, r1, -1\nbne r1, r0, loop\nli r10, 0\nadd r11, r3, r0\nsyscall\n",
        0x4000,
    )?;
    let smt = SmtSim::new(SaConfig::paper(), [&pa, &pb]).run_to_halt(1_000_000)?;
    let a = SaOsmSim::new(SaConfig::paper(), &pa).run_to_halt(1_000_000)?;
    let b = SaOsmSim::new(SaConfig::paper(), &pb).run_to_halt(1_000_000)?;
    println!(
        "SMT StrongARM: {} cycles for both threads (exit {}, {});\nback-to-back single-thread runs: {} + {} = {} cycles -> {:.2}x throughput",
        smt.cycles,
        smt.threads[0].exit_code,
        smt.threads[1].exit_code,
        a.cycles,
        b.cycles,
        a.cycles + b.cycles,
        (a.cycles + b.cycles) as f64 / smt.cycles as f64,
    );
    Ok(())
}
