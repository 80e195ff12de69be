//! Fixtures shared by several integration tests.

use osm_repro::osm_core::{InertBehavior, Machine, SchedulerMode};

/// The contended machine of `scheduler_smoke`: 122 inert OSMs over two
/// classes and three pools. Every `op1` wedges in `S1`, so each cycle all
/// 61 `op0`s move past 61 blocked OSMs, each move a Fig. 3 restart.
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

/// The contended machine under the default restart policy, run by `mode`.
pub fn contended_machine(mode: SchedulerMode) -> Machine<()> {
    let synth = osm_repro::osm_adl::load(CONTENDED_SOURCE).expect("contended source loads");
    let mut m: Machine<()> = Machine::new(());
    synth.install_managers(&mut m);
    for k in 0..122 {
        m.add_osm(&synth.specs[k % synth.specs.len()].1, InertBehavior);
    }
    m.set_scheduler_mode(mode);
    m
}
