//! State machine specifications: the declarative shape of an OSM class.
//!
//! A [`StateMachineSpec`] is the per-operation-class description from paper
//! §3.1: vertices are execution steps, edges carry guard conditions
//! (conjunctions of Λ [`Primitive`]s) and static priorities, and one state is
//! the *initial* state `I` in which the token buffer is empty. The spec is
//! shared (via [`std::sync::Arc`]) among all OSM instances of the class; it
//! is purely declarative, so the `osm-adl` crate can synthesize it from a
//! textual description.

use crate::error::SpecError;
use crate::ids::{EdgeId, ManagerId, StateId};
use crate::token::{IdentExpr, Primitive};
use std::sync::Arc;

/// One edge of a state machine specification.
#[derive(Debug, Clone)]
pub struct Edge {
    /// Index of this edge in the spec.
    pub id: EdgeId,
    /// Display name (defaults to `e<id>`).
    pub name: String,
    /// Source state.
    pub src: StateId,
    /// Destination state.
    pub dst: StateId,
    /// Static priority; among simultaneously satisfied outgoing edges the
    /// one with the *largest* priority wins (reset edges use high values).
    pub priority: i32,
    /// Guard condition: conjunction of Λ primitives.
    pub condition: Vec<Primitive>,
}

/// An immutable, validated state machine specification.
///
/// Build one with [`SpecBuilder`]:
///
/// ```
/// use osm_core::{SpecBuilder, IdentExpr, ManagerId};
///
/// # fn main() -> Result<(), osm_core::SpecError> {
/// let mf = ManagerId(0);
/// let mut b = SpecBuilder::new("demo");
/// let i = b.state("I");
/// let f = b.state("F");
/// b.initial(i);
/// b.edge(i, f).allocate(mf, IdentExpr::Const(0));
/// b.edge(f, i).release(mf, IdentExpr::AnyHeld);
/// let spec = b.build()?;
/// assert_eq!(spec.state_count(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct StateMachineSpec {
    name: String,
    states: Vec<String>,
    initial: StateId,
    edges: Vec<Edge>,
    /// Outgoing edges per state, sorted by descending priority (stable).
    out_edges: Vec<Vec<EdgeId>>,
}

impl StateMachineSpec {
    /// Most out-edges one state may have: a behavior's veto answer
    /// ([`crate::Behavior::enabled_edges`]) is one bit per out-edge of a
    /// `u64`.
    pub const MAX_OUT_EDGES: usize = 64;

    /// The spec's (class) name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The initial state `I` (token buffer empty).
    pub fn initial(&self) -> StateId {
        self.initial
    }

    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Name of state `s`.
    ///
    /// # Panics
    /// Panics if `s` is out of range.
    pub fn state_name(&self, s: StateId) -> &str {
        &self.states[s.index()]
    }

    /// Looks up a state by name.
    pub fn find_state(&self, name: &str) -> Option<StateId> {
        self.states.iter().position(|n| n == name).map(StateId::from)
    }

    /// The edge record for `e`.
    ///
    /// # Panics
    /// Panics if `e` is out of range.
    pub fn edge(&self, e: EdgeId) -> &Edge {
        &self.edges[e.index()]
    }

    /// Looks up an edge by name.
    pub fn find_edge(&self, name: &str) -> Option<EdgeId> {
        self.edges.iter().position(|e| e.name == name).map(EdgeId::from)
    }

    /// Outgoing edges of `s`, sorted by descending static priority.
    pub fn out_edges(&self, s: StateId) -> &[EdgeId] {
        &self.out_edges[s.index()]
    }

    /// The out-edges of `s` that `pick` accepts, as a mask in the layout of
    /// [`crate::Behavior::enabled_edges`]: bit k stands for
    /// `out_edges(s)[k]`. Models build their veto tables with it.
    pub fn edge_mask(&self, s: StateId, mut pick: impl FnMut(&Edge) -> bool) -> u64 {
        self.out_edges(s)
            .iter()
            .enumerate()
            .filter(|&(_, &e)| pick(self.edge(e)))
            .fold(0, |mask, (k, _)| mask | 1 << k)
    }

    /// Iterates over all edges.
    pub fn edges(&self) -> impl Iterator<Item = &Edge> {
        self.edges.iter()
    }

    /// Iterates over all state ids.
    pub fn states(&self) -> impl Iterator<Item = StateId> {
        (0..self.states.len() as u32).map(StateId)
    }

    /// Every manager referenced by any primitive of any edge.
    pub fn referenced_managers(&self) -> Vec<ManagerId> {
        let mut out: Vec<ManagerId> = self
            .edges
            .iter()
            .flat_map(|e| e.condition.iter().filter_map(Primitive::manager))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// Builder for [`StateMachineSpec`] ([C-BUILDER]).
#[derive(Debug)]
pub struct SpecBuilder {
    name: String,
    states: Vec<String>,
    initial: Option<StateId>,
    edges: Vec<Edge>,
}

impl SpecBuilder {
    /// Starts a spec named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        SpecBuilder {
            name: name.into(),
            states: Vec::new(),
            initial: None,
            edges: Vec::new(),
        }
    }

    /// Adds (or finds) a state named `name`.
    pub fn state(&mut self, name: impl Into<String>) -> StateId {
        let name = name.into();
        if let Some(pos) = self.states.iter().position(|s| *s == name) {
            return StateId::from(pos);
        }
        self.states.push(name);
        StateId::from(self.states.len() - 1)
    }

    /// Declares `s` the initial state.
    pub fn initial(&mut self, s: StateId) -> &mut Self {
        self.initial = Some(s);
        self
    }

    /// Adds an edge from `src` to `dst` (priority 0, empty condition) and
    /// returns a handle for configuring it.
    pub fn edge(&mut self, src: StateId, dst: StateId) -> EdgeHandle<'_> {
        let id = EdgeId::from(self.edges.len());
        self.edges.push(Edge {
            id,
            name: format!("e{}", id.0),
            src,
            dst,
            priority: 0,
            condition: Vec::new(),
        });
        EdgeHandle {
            builder: self,
            index: id.index(),
        }
    }

    /// Validates and freezes the spec.
    ///
    /// # Errors
    /// Returns [`SpecError`] if no state exists, the initial state was not
    /// declared, an edge references an out-of-range state, an allocate or
    /// inquire names [`IdentExpr::AnyHeld`], or a state has more than
    /// [`StateMachineSpec::MAX_OUT_EDGES`] out-edges.
    pub fn build(self) -> Result<Arc<StateMachineSpec>, SpecError> {
        if self.states.is_empty() {
            return Err(SpecError::NoStates {
                spec: self.name.clone(),
            });
        }
        let initial = self.initial.ok_or_else(|| SpecError::NoInitialState {
            spec: self.name.clone(),
        })?;
        if initial.index() >= self.states.len() {
            return Err(SpecError::UnknownState {
                spec: self.name.clone(),
                state: initial,
            });
        }
        for e in &self.edges {
            for s in [e.src, e.dst] {
                if s.index() >= self.states.len() {
                    return Err(SpecError::UnknownState {
                        spec: self.name.clone(),
                        state: s,
                    });
                }
            }
            // `held` picks among the tokens an OSM holds: a release or a
            // discard can name it, a request cannot.
            let held_request = e.condition.iter().find(|p| {
                matches!(
                    p,
                    Primitive::Allocate {
                        ident: IdentExpr::AnyHeld,
                        ..
                    } | Primitive::Inquire {
                        ident: IdentExpr::AnyHeld,
                        ..
                    }
                )
            });
            if let Some(&primitive) = held_request {
                return Err(SpecError::HeldRequest {
                    spec: self.name.clone(),
                    edge: e.name.clone(),
                    primitive,
                });
            }
        }
        let mut out_edges: Vec<Vec<EdgeId>> = vec![Vec::new(); self.states.len()];
        for e in &self.edges {
            out_edges[e.src.index()].push(e.id);
        }
        for (s, list) in out_edges.iter_mut().enumerate() {
            if list.len() > StateMachineSpec::MAX_OUT_EDGES {
                return Err(SpecError::TooManyOutEdges {
                    spec: self.name.clone(),
                    state: self.states[s].clone(),
                    count: list.len(),
                });
            }
            // Stable: equal priorities keep declaration order.
            list.sort_by_key(|id| std::cmp::Reverse(self.edges[id.index()].priority));
        }
        Ok(Arc::new(StateMachineSpec {
            name: self.name,
            states: self.states,
            initial,
            edges: self.edges,
            out_edges,
        }))
    }
}

/// Configuration handle for one just-added edge; methods chain.
#[derive(Debug)]
pub struct EdgeHandle<'a> {
    builder: &'a mut SpecBuilder,
    index: usize,
}

impl EdgeHandle<'_> {
    fn edge_mut(&mut self) -> &mut Edge {
        &mut self.builder.edges[self.index]
    }

    /// The id the edge was assigned.
    pub fn id(&self) -> EdgeId {
        EdgeId::from(self.index)
    }

    /// Names the edge (for traces and the ADL round-trip).
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.edge_mut().name = name.into();
        self
    }

    /// Sets the static priority (larger wins).
    pub fn priority(mut self, p: i32) -> Self {
        self.edge_mut().priority = p;
        self
    }

    /// Appends an arbitrary primitive to the condition.
    pub fn primitive(mut self, p: Primitive) -> Self {
        self.edge_mut().condition.push(p);
        self
    }

    /// Appends an `allocate` primitive.
    pub fn allocate(self, manager: ManagerId, ident: IdentExpr) -> Self {
        self.primitive(Primitive::Allocate { manager, ident })
    }

    /// Appends an `inquire` primitive.
    pub fn inquire(self, manager: ManagerId, ident: IdentExpr) -> Self {
        self.primitive(Primitive::Inquire { manager, ident })
    }

    /// Appends a `release` primitive.
    pub fn release(self, manager: ManagerId, ident: IdentExpr) -> Self {
        self.primitive(Primitive::Release { manager, ident })
    }

    /// Appends a `discard` primitive for one manager's held token(s).
    pub fn discard(self, manager: ManagerId, ident: IdentExpr) -> Self {
        self.primitive(Primitive::Discard {
            manager: Some(manager),
            ident,
        })
    }

    /// Appends a `discard` of *every* held token (reset edges).
    pub fn discard_all(self) -> Self {
        self.primitive(Primitive::Discard {
            manager: None,
            ident: IdentExpr::AnyHeld,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::SlotId;

    fn two_managers() -> (ManagerId, ManagerId) {
        (ManagerId(0), ManagerId(1))
    }

    #[test]
    fn build_simple_spec() {
        let (mf, md) = two_managers();
        let mut b = SpecBuilder::new("pipe");
        let i = b.state("I");
        let f = b.state("F");
        let d = b.state("D");
        b.initial(i);
        b.edge(i, f).named("fetch").allocate(mf, IdentExpr::Const(0));
        b.edge(f, d)
            .named("decode")
            .release(mf, IdentExpr::AnyHeld)
            .allocate(md, IdentExpr::Const(0));
        b.edge(d, i).named("done").discard_all();
        let spec = b.build().unwrap();
        assert_eq!(spec.name(), "pipe");
        assert_eq!(spec.state_count(), 3);
        assert_eq!(spec.edge_count(), 3);
        assert_eq!(spec.initial(), i);
        assert_eq!(spec.state_name(i), "I");
        assert_eq!(spec.find_state("D"), Some(d));
        assert_eq!(spec.find_state("Z"), None);
        assert_eq!(spec.find_edge("decode"), Some(EdgeId(1)));
        assert_eq!(spec.out_edges(i), &[EdgeId(0)]);
        assert_eq!(spec.edge(EdgeId(1)).condition.len(), 2);
        assert_eq!(spec.referenced_managers(), vec![mf, md]);
    }

    #[test]
    fn state_is_deduplicated_by_name() {
        let mut b = SpecBuilder::new("x");
        let a = b.state("A");
        let a2 = b.state("A");
        assert_eq!(a, a2);
        assert_eq!(b.states.len(), 1);
    }

    #[test]
    fn out_edges_sorted_by_priority_then_declaration() {
        let mut b = SpecBuilder::new("x");
        let a = b.state("A");
        let z = b.state("Z");
        b.initial(a);
        let e0 = b.edge(a, z).priority(0).id();
        let e1 = b.edge(a, z).priority(10).id();
        let e2 = b.edge(a, z).priority(10).id();
        let spec = b.build().unwrap();
        assert_eq!(spec.out_edges(a), &[e1, e2, e0]);
    }

    #[test]
    fn build_requires_initial_state() {
        let mut b = SpecBuilder::new("x");
        b.state("A");
        assert!(matches!(b.build(), Err(SpecError::NoInitialState { .. })));
    }

    #[test]
    fn build_requires_some_state() {
        let b = SpecBuilder::new("x");
        assert!(matches!(b.build(), Err(SpecError::NoStates { .. })));
    }

    #[test]
    fn slot_idents_allowed_in_conditions() {
        let mut b = SpecBuilder::new("x");
        let a = b.state("A");
        let z = b.state("Z");
        b.initial(a);
        b.edge(a, z).inquire(ManagerId(0), IdentExpr::Slot(SlotId(2)));
        let spec = b.build().unwrap();
        assert!(matches!(
            spec.edge(EdgeId(0)).condition[0],
            Primitive::Inquire {
                ident: IdentExpr::Slot(SlotId(2)),
                ..
            }
        ));
    }

    #[test]
    fn build_refuses_held_in_an_allocate_or_inquire() {
        for primitive in [
            Primitive::Allocate {
                manager: ManagerId(0),
                ident: IdentExpr::AnyHeld,
            },
            Primitive::Inquire {
                manager: ManagerId(0),
                ident: IdentExpr::AnyHeld,
            },
        ] {
            let mut b = SpecBuilder::new("x");
            let a = b.state("A");
            let z = b.state("Z");
            b.initial(a);
            b.edge(a, z).named("go").primitive(primitive);
            b.edge(z, a).release(ManagerId(0), IdentExpr::AnyHeld);
            assert_eq!(
                b.build().unwrap_err(),
                SpecError::HeldRequest {
                    spec: "x".into(),
                    edge: "go".into(),
                    primitive,
                }
            );
        }
    }

    #[test]
    fn build_caps_a_state_at_64_out_edges() {
        let spec = |n: usize| {
            let mut b = SpecBuilder::new("x");
            let a = b.state("A");
            b.initial(a);
            for _ in 0..n {
                b.edge(a, a);
            }
            b.build()
        };
        assert_eq!(spec(64).unwrap().out_edges(StateId(0)).len(), 64);
        assert_eq!(
            spec(65).unwrap_err(),
            SpecError::TooManyOutEdges {
                spec: "x".into(),
                state: "A".into(),
                count: 65,
            }
        );
    }

    #[test]
    fn edge_mask_sets_the_bits_of_the_picked_out_edges() {
        let mut b = SpecBuilder::new("x");
        let a = b.state("A");
        let z = b.state("Z");
        b.initial(a);
        b.edge(a, z).named("low");
        b.edge(a, z).named("high").priority(5);
        b.edge(a, a).named("loop");
        let spec = b.build().unwrap();
        // Out-edges in priority order: high, low, loop.
        assert_eq!(spec.edge_mask(a, |e| e.name == "low"), 0b010);
        assert_eq!(spec.edge_mask(a, |e| e.dst == z), 0b011);
        assert_eq!(spec.edge_mask(z, |_| true), 0);
    }

    #[test]
    fn default_edge_names_are_sequential() {
        let mut b = SpecBuilder::new("x");
        let a = b.state("A");
        b.initial(a);
        b.edge(a, a);
        b.edge(a, a);
        let spec = b.build().unwrap();
        assert_eq!(spec.edge(EdgeId(0)).name, "e0");
        assert_eq!(spec.edge(EdgeId(1)).name, "e1");
    }
}
