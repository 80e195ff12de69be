//! Synthesis: turning a parsed ADL description into executable `osm-core`
//! structures — the "retargetable simulator generation" the paper proposes
//! as the next step (§7). The declarative part of a processor model (state
//! machines, conditions, managers) is generated; only instruction semantics
//! (behaviors) remain hand-written, matching the paper's observation that
//! ~60% of a model's source is synthesizable.

use crate::ast::{AdlIdent, AdlPrimitive, MachineDecl, ManagerKind};
use osm_core::{
    CountingPool, ExclusivePool, IdentExpr, Machine, ManagerId, Primitive, RegScoreboard,
    ResetManager, SlotId, SpecBuilder, SpecError, StateMachineSpec,
};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// Errors detected during semantic analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SynthError {
    /// An edge references a manager that was not declared.
    UnknownManager {
        /// OSM class name.
        osm: String,
        /// Edge name.
        edge: String,
        /// The missing manager.
        manager: String,
    },
    /// An edge or `initial` references an undeclared state.
    UnknownState {
        /// OSM class name.
        osm: String,
        /// The missing state.
        state: String,
    },
    /// Two managers share a name.
    DuplicateManager {
        /// The duplicated name.
        name: String,
    },
    /// One `states` list names the same state twice. `osm-core`'s
    /// `SpecBuilder` would silently deduplicate; in the declarative source
    /// a repeated name is always a typo, so it is rejected here.
    DuplicateState {
        /// OSM class name.
        osm: String,
        /// The duplicated state.
        state: String,
    },
    /// The spec failed to build (propagated from `osm-core`).
    Spec(SpecError),
}

impl fmt::Display for SynthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthError::UnknownManager { osm, edge, manager } => {
                write!(f, "osm `{osm}` edge `{edge}` uses undeclared manager `{manager}`")
            }
            SynthError::UnknownState { osm, state } => {
                write!(f, "osm `{osm}` references undeclared state `{state}`")
            }
            SynthError::DuplicateManager { name } => {
                write!(f, "manager `{name}` declared twice")
            }
            SynthError::DuplicateState { osm, state } => {
                write!(f, "osm `{osm}` declares state `{state}` twice")
            }
            SynthError::Spec(msg) => write!(f, "spec error: {msg}"),
        }
    }
}

impl Error for SynthError {}

/// A machine synthesized from an ADL description.
#[derive(Debug)]
pub struct SynthesizedMachine {
    /// Machine name.
    pub name: String,
    /// Manager declarations in id order (index = [`ManagerId`] value).
    pub managers: Vec<(String, ManagerKind)>,
    /// One validated spec per `osm` class.
    pub specs: Vec<(String, Arc<StateMachineSpec>)>,
}

impl SynthesizedMachine {
    /// Looks up a synthesized spec by class name.
    pub fn spec(&self, name: &str) -> Option<&Arc<StateMachineSpec>> {
        self.specs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| s)
    }

    /// The [`ManagerId`] a manager name was assigned.
    pub fn manager_id(&self, name: &str) -> Option<ManagerId> {
        self.managers
            .iter()
            .position(|(n, _)| n == name)
            .map(ManagerId::from)
    }

    /// Instantiates every declared manager into `machine`, in id order, and
    /// returns the name → id map.
    ///
    /// # Panics
    /// Panics if `machine` already has managers (the declaration order
    /// fixes the ids the specs were built against).
    pub fn install_managers<S: 'static>(
        &self,
        machine: &mut Machine<S>,
    ) -> BTreeMap<String, ManagerId> {
        assert!(
            machine.managers.is_empty(),
            "ADL manager ids assume an empty manager table"
        );
        let mut map = BTreeMap::new();
        for (name, kind) in &self.managers {
            let id = match *kind {
                ManagerKind::Exclusive(n) => {
                    machine.add_manager(ExclusivePool::new(name.clone(), n))
                }
                ManagerKind::Counting(n) => {
                    machine.add_manager(CountingPool::new(name.clone(), n))
                }
                ManagerKind::PerCycle(n) => {
                    machine.add_manager(CountingPool::per_cycle(name.clone(), n))
                }
                ManagerKind::Scoreboard(n) => {
                    machine.add_manager(RegScoreboard::new(name.clone(), n))
                }
                ManagerKind::Reset => machine.add_manager(ResetManager::new(name.clone())),
            };
            map.insert(name.clone(), id);
        }
        map
    }
}

fn ident_expr(ident: AdlIdent) -> IdentExpr {
    match ident {
        AdlIdent::Const(v) => IdentExpr::Const(v),
        AdlIdent::Any => IdentExpr::ANY,
        AdlIdent::Held => IdentExpr::AnyHeld,
        AdlIdent::Slot(s) => IdentExpr::Slot(SlotId(s)),
    }
}

/// Synthesizes a parsed machine description.
///
/// # Errors
/// Returns [`SynthError`] on semantic problems (unknown managers/states,
/// duplicate names, invalid specs).
pub fn synthesize(decl: &MachineDecl) -> Result<SynthesizedMachine, SynthError> {
    // Manager table (declaration order = ids).
    let mut seen = BTreeMap::new();
    for (k, m) in decl.managers.iter().enumerate() {
        if seen.insert(m.name.clone(), k).is_some() {
            return Err(SynthError::DuplicateManager {
                name: m.name.clone(),
            });
        }
    }
    let manager_id = |osm: &str, edge: &str, name: &str| -> Result<ManagerId, SynthError> {
        seen.get(name)
            .map(|&k| ManagerId::from(k))
            .ok_or_else(|| SynthError::UnknownManager {
                osm: osm.to_owned(),
                edge: edge.to_owned(),
                manager: name.to_owned(),
            })
    };

    let mut specs = Vec::new();
    for osm in &decl.osms {
        let mut b = SpecBuilder::new(osm.name.clone());
        let mut state_ids = BTreeMap::new();
        for s in &osm.states {
            if state_ids.insert(s.clone(), b.state(s.clone())).is_some() {
                return Err(SynthError::DuplicateState {
                    osm: osm.name.clone(),
                    state: s.clone(),
                });
            }
        }
        let lookup_state = |name: &str| -> Result<osm_core::StateId, SynthError> {
            state_ids
                .get(name)
                .copied()
                .ok_or_else(|| SynthError::UnknownState {
                    osm: osm.name.clone(),
                    state: name.to_owned(),
                })
        };
        b.initial(lookup_state(&osm.initial)?);
        for e in &osm.edges {
            let src = lookup_state(&e.src)?;
            let dst = lookup_state(&e.dst)?;
            let mut handle = b.edge(src, dst).named(e.name.clone()).priority(e.priority);
            for prim in &e.condition {
                handle = match prim {
                    AdlPrimitive::Allocate(m, id) => {
                        handle.allocate(manager_id(&osm.name, &e.name, m)?, ident_expr(*id))
                    }
                    AdlPrimitive::Inquire(m, id) => {
                        handle.inquire(manager_id(&osm.name, &e.name, m)?, ident_expr(*id))
                    }
                    AdlPrimitive::Release(m, id) => {
                        handle.release(manager_id(&osm.name, &e.name, m)?, ident_expr(*id))
                    }
                    AdlPrimitive::Discard(m, id) => {
                        handle.discard(manager_id(&osm.name, &e.name, m)?, ident_expr(*id))
                    }
                    AdlPrimitive::DiscardAll => handle.discard_all(),
                };
            }
            let _ = handle;
        }
        let spec = b.build().map_err(SynthError::Spec)?;
        specs.push((osm.name.clone(), spec));
    }

    Ok(SynthesizedMachine {
        name: decl.name.clone(),
        managers: decl
            .managers
            .iter()
            .map(|m| (m.name.clone(), m.kind))
            .collect(),
        specs,
    })
}

/// Exports a synthesized machine back to ADL text (pretty-printer). The
/// declarative model is fully recoverable: `parse(export(m))` synthesizes
/// an equivalent machine — the round-trip property the declarativeness
/// claim of the paper rests on (§6).
pub fn export(machine: &SynthesizedMachine) -> String {
    use std::fmt::Write;

    let mut out = String::new();
    let _ = writeln!(out, "machine {} {{", machine.name);
    for (name, kind) in &machine.managers {
        let _ = writeln!(out, "    manager {name} : {kind};");
    }
    for (name, spec) in &machine.specs {
        let _ = writeln!(out, "    osm {name} {{");
        let states: Vec<&str> = spec.states().map(|s| spec.state_name(s)).collect();
        let _ = writeln!(out, "        states {};", states.join(", "));
        let _ = writeln!(out, "        initial {};", spec.state_name(spec.initial()));
        for edge in spec.edges() {
            let _ = write!(
                out,
                "        edge {} : {} -> {}",
                edge.name,
                spec.state_name(edge.src),
                spec.state_name(edge.dst)
            );
            if edge.priority != 0 {
                let _ = write!(out, " priority {}", edge.priority);
            }
            let _ = write!(out, " {{ ");
            for prim in &edge.condition {
                let _ = write!(out, "{} ", format_primitive(machine, prim));
            }
            let _ = writeln!(out, "}}");
        }
        let _ = writeln!(out, "    }}");
    }
    out.push_str("}\n");
    out
}

fn format_primitive(machine: &SynthesizedMachine, prim: &Primitive) -> String {
    let mname = |id: ManagerId| -> String {
        machine
            .managers
            .get(id.index())
            .map(|(n, _)| n.clone())
            .unwrap_or_else(|| format!("m{}", id.0))
    };
    let fident = |e: IdentExpr| -> String {
        match e {
            IdentExpr::Const(v) if osm_core::TokenIdent(v).is_any() => "any".to_owned(),
            IdentExpr::Const(v) => v.to_string(),
            IdentExpr::Slot(s) => format!("slot {}", s.0),
            IdentExpr::AnyHeld => "held".to_owned(),
        }
    };
    match *prim {
        Primitive::Allocate { manager, ident } => {
            format!("allocate {}[{}];", mname(manager), fident(ident))
        }
        Primitive::Inquire { manager, ident } => {
            format!("inquire {}[{}];", mname(manager), fident(ident))
        }
        Primitive::Release { manager, ident } => {
            format!("release {}[{}];", mname(manager), fident(ident))
        }
        Primitive::Discard {
            manager: Some(m),
            ident,
        } => format!("discard {}[{}];", mname(m), fident(ident)),
        Primitive::Discard { manager: None, .. } => "discard all;".to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use osm_core::{HardwareLayer, InertBehavior};

    const PIPE: &str = "
        machine pipe {
            manager fa : exclusive(1);
            manager fb : exclusive(1);
            osm op {
                states I, A, B;
                initial I;
                edge enter : I -> A { allocate fa[0]; }
                edge move  : A -> B { release fa[held]; allocate fb[0]; }
                edge leave : B -> I { release fb[held]; }
            }
        }
    ";

    #[test]
    fn synthesized_machine_runs() {
        let decl = parse(PIPE).unwrap();
        let synth = synthesize(&decl).unwrap();
        let mut machine: Machine<()> = Machine::new(());
        let ids = synth.install_managers(&mut machine);
        assert_eq!(ids.len(), 2);
        let spec = synth.spec("op").unwrap();
        let o0 = machine.add_osm(spec, InertBehavior);
        let o1 = machine.add_osm(spec, InertBehavior);
        machine.run(2).unwrap();
        assert_eq!(machine.osm(o0).state_name(), "B");
        assert_eq!(machine.osm(o1).state_name(), "A");
    }

    #[test]
    fn synthesized_machine_never_halts_and_runs_its_whole_budget() {
        // ADL machines carry no program: the unit state's `halted()` stays
        // false, so a run to halt spends every cycle of its budget, also
        // when resumed part-way.
        fn halted<S: HardwareLayer>(machine: &Machine<S>) -> bool {
            machine.shared.halted()
        }
        let decl = parse(PIPE).unwrap();
        let synth = synthesize(&decl).unwrap();
        let mut machine: Machine<()> = Machine::new(());
        synth.install_managers(&mut machine);
        machine.add_osm(synth.spec("op").unwrap(), InertBehavior);
        assert_eq!(machine.run_until(7, halted).unwrap(), 7);
        assert_eq!(machine.run_until(13, halted).unwrap(), 13);
        assert_eq!(machine.cycle(), 20);
        assert!(!halted(&machine));
        assert!(machine.stats.transitions > 0);
    }

    #[test]
    fn synthesized_machine_checkpoints_through_bytes() {
        // ADL machines have unit shared state and core-pool managers only,
        // so the sealed byte format must round-trip them with an empty
        // shared section.
        let decl = parse(PIPE).unwrap();
        let synth = synthesize(&decl).unwrap();
        let build = || {
            let mut machine: Machine<()> = Machine::new(());
            synth.install_managers(&mut machine);
            let spec = synth.spec("op").unwrap();
            machine.add_osm(spec, InertBehavior);
            machine.add_osm(spec, InertBehavior);
            machine
        };
        let mut machine = build();
        machine.run(2).unwrap();
        let bytes = machine.checkpoint().unwrap();
        machine.run(3).unwrap();
        let reference: Vec<String> = machine
            .osms()
            .map(|o| o.state_name().to_owned())
            .collect();

        let mut fresh = build();
        fresh.restore(&bytes).unwrap();
        assert_eq!(fresh.cycle(), 2);
        fresh.run(3).unwrap();
        let replay: Vec<String> = fresh.osms().map(|o| o.state_name().to_owned()).collect();
        assert_eq!(replay, reference);
    }

    #[test]
    fn unknown_manager_rejected() {
        let src = "
            machine m {
                manager a : exclusive(1);
                osm op {
                    states I, X;
                    initial I;
                    edge e : I -> X { allocate nosuch[0]; }
                }
            }
        ";
        let e = synthesize(&parse(src).unwrap()).unwrap_err();
        assert!(matches!(e, SynthError::UnknownManager { .. }));
        assert!(e.to_string().contains("nosuch"));
    }

    #[test]
    fn unknown_state_rejected() {
        let src = "
            machine m {
                osm op {
                    states I;
                    initial I;
                    edge e : I -> Z { }
                }
            }
        ";
        let e = synthesize(&parse(src).unwrap()).unwrap_err();
        assert!(matches!(e, SynthError::UnknownState { .. }));
    }

    #[test]
    fn held_in_an_allocate_or_inquire_fails_to_load() {
        for op in ["allocate", "inquire"] {
            let src = format!(
                "machine m {{
                    manager s : exclusive(1);
                    osm op {{
                        states I, S;
                        initial I;
                        edge go : I -> S {{ {op} s[held]; }}
                        edge back : S -> I {{ release s[held]; }}
                    }}
                }}"
            );
            let e = crate::load(&src).unwrap_err();
            assert!(
                matches!(
                    &e,
                    crate::LoadError::Synth(SynthError::Spec(SpecError::HeldRequest { edge, .. }))
                        if edge == "go"
                ),
                "{op}: {e}"
            );
        }
    }

    #[test]
    fn a_state_with_more_than_64_out_edges_fails_to_load() {
        let src = |n: usize| {
            let edges: String = (0..n)
                .map(|k| format!("edge e{k} : I -> I {{ }}\n"))
                .collect();
            format!("machine m {{ osm op {{ states I; initial I; {edges} }} }}")
        };
        assert!(crate::load(&src(64)).is_ok());
        let e = crate::load(&src(65)).unwrap_err();
        assert_eq!(
            e.to_string(),
            "spec error: spec `op` state `I` has 65 out-edges, more than 64"
        );
        assert!(matches!(
            e,
            crate::LoadError::Synth(SynthError::Spec(SpecError::TooManyOutEdges {
                count: 65,
                ..
            }))
        ));
    }

    #[test]
    fn duplicate_manager_rejected() {
        let src = "
            machine m {
                manager a : exclusive(1);
                manager a : reset;
            }
        ";
        let e = synthesize(&parse(src).unwrap()).unwrap_err();
        assert!(matches!(e, SynthError::DuplicateManager { .. }));
    }

    #[test]
    fn export_round_trips() {
        let decl = parse(PIPE).unwrap();
        let synth = synthesize(&decl).unwrap();
        let text = export(&synth);
        let decl2 = parse(&text).unwrap();
        let synth2 = synthesize(&decl2).unwrap();
        assert_eq!(synth.name, synth2.name);
        assert_eq!(synth.managers, synth2.managers);
        let a = synth.spec("op").unwrap();
        let b = synth2.spec("op").unwrap();
        assert_eq!(a.state_count(), b.state_count());
        assert_eq!(a.edge_count(), b.edge_count());
        for (ea, eb) in a.edges().zip(b.edges()) {
            assert_eq!(ea.name, eb.name);
            assert_eq!(ea.priority, eb.priority);
            assert_eq!(ea.condition, eb.condition);
        }
    }
}
