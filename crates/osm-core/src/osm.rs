//! OSM instances and operation behaviors.
//!
//! An [`Osm`] is one live state machine: current state, token buffer, and
//! the *dynamic identifier slots* that the operation initializes while
//! decoding (paper §4: "α can then decode the instruction and initialize all
//! its allocation and inquiry identifiers"). The instruction semantics and
//! timing side effects are supplied by a [`Behavior`] implementation.

use crate::ids::{OsmId, SlotId, StateId};
use crate::manager::ManagerTable;
use crate::spec::{Edge, StateMachineSpec};
use crate::token::{HeldToken, TokenIdent};
use std::sync::Arc;

/// Rank value of an OSM resting in its initial state: lowest priority.
pub const IDLE_AGE: u64 = u64::MAX;

/// Operation semantics attached to an OSM.
///
/// The generic parameter `S` is the machine's shared hardware-layer state
/// (memory system, program counter logic, statistic counters, ...).
pub trait Behavior<S>: Send + 'static {
    /// Veto hook: which out-edges of the OSM's current state may be tried.
    /// Lets one spec serve several instruction kinds (e.g. only multiply
    /// operations attempt the multiplier-allocating edge). Bit k enables
    /// `spec.out_edges(view.state)[k]`, the k-th edge in priority order
    /// ([`StateMachineSpec::edge_mask`] builds such masks); a clear bit
    /// vetoes the edge before its token condition is evaluated. Bits at or
    /// above the state's out-degree are ignored. The default enables every
    /// edge.
    ///
    /// The director calls it once per OSM it serves in a control step, and
    /// once per skip test and blocked-OSM probe. It must be a pure function
    /// of `self`, `view` and `shared`: the director may call it again, or
    /// not at all, without changing the run.
    fn enabled_edges(&self, spec: &StateMachineSpec, view: &OsmView<'_>, shared: &S) -> u64 {
        let _ = (spec, view, shared);
        u64::MAX
    }

    /// Invoked after `edge` committed (all primitives succeeded and were
    /// committed, the state was updated). This is where operations decode,
    /// compute, write results into managers, arm the reset manager, etc.
    fn on_transition(&mut self, edge: &Edge, ctx: &mut TransitionCtx<'_, S>);

    /// Writes the behavior's mutable state as its checkpoint section for
    /// [`crate::Machine::checkpoint`]. The default `None` declares the
    /// behavior stateless; behaviors carrying per-operation state (decoded
    /// instruction, computed address, ...) MUST override this and
    /// [`Behavior::restore`], or a restored run will silently diverge.
    fn snapshot(&self) -> Option<Vec<u8>> {
        None
    }

    /// Restores a section written by [`Behavior::snapshot`] (`None` for a
    /// stateless one): parses it completely, then applies it. Returns
    /// `false`, leaving the behavior unchanged, if the section is malformed
    /// or of the wrong kind. The stateless default accepts only `None`.
    fn restore(&mut self, section: Option<&[u8]>) -> bool {
        section.is_none()
    }
}

/// A no-op behavior, useful for pure-structure models and tests.
#[derive(Debug, Clone, Copy, Default)]
pub struct InertBehavior;

impl<S> Behavior<S> for InertBehavior {
    fn on_transition(&mut self, _edge: &Edge, _ctx: &mut TransitionCtx<'_, S>) {}
}

/// Read-only view of an OSM handed to veto hooks and rankers.
#[derive(Debug)]
pub struct OsmView<'a> {
    /// The OSM's id.
    pub id: OsmId,
    /// Current state.
    pub state: StateId,
    /// Age rank key ([`IDLE_AGE`] while in the initial state).
    pub age: u64,
    /// Thread tag (§6 multithreading extension; 0 for single-threaded models).
    pub tag: u64,
    /// Dynamic identifier slots.
    pub slots: &'a [TokenIdent],
    /// Token buffer.
    pub buffer: &'a [HeldToken],
}

/// Mutable context handed to [`Behavior::on_transition`].
pub struct TransitionCtx<'a, S> {
    /// The transitioning OSM.
    pub osm: OsmId,
    /// Source state of the committed edge.
    pub from: StateId,
    /// Destination state (the OSM is already in it).
    pub to: StateId,
    /// Current control step.
    pub cycle: u64,
    /// Thread tag of the OSM.
    pub tag: u64,
    /// The OSM's dynamic identifier slots (resize/assign freely).
    pub slots: &'a mut Vec<TokenIdent>,
    /// Tokens held *after* the transition.
    pub buffer: &'a [HeldToken],
    /// All token managers (downcast for hardware-layer data access).
    pub managers: &'a mut ManagerTable,
    /// Shared hardware-layer / processor state.
    pub shared: &'a mut S,
}

impl<S> std::fmt::Debug for TransitionCtx<'_, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TransitionCtx")
            .field("osm", &self.osm)
            .field("from", &self.from)
            .field("to", &self.to)
            .field("cycle", &self.cycle)
            .finish()
    }
}

impl<S> TransitionCtx<'_, S> {
    /// Assigns identifier slot `slot`, growing the slot vector as needed
    /// (new slots default to [`TokenIdent::NONE`]).
    pub fn set_slot(&mut self, slot: SlotId, ident: TokenIdent) {
        set_slot(self.slots, slot, ident);
    }

    /// Reads identifier slot `slot` ([`TokenIdent::NONE`] if never set).
    pub fn slot(&self, slot: SlotId) -> TokenIdent {
        self.slots
            .get(slot.index())
            .copied()
            .unwrap_or(TokenIdent::NONE)
    }
}

/// Assigns `slots[slot] = ident`, growing with [`TokenIdent::NONE`] padding.
pub fn set_slot(slots: &mut Vec<TokenIdent>, slot: SlotId, ident: TokenIdent) {
    if slots.len() <= slot.index() {
        slots.resize(slot.index() + 1, TokenIdent::NONE);
    }
    slots[slot.index()] = ident;
}

/// One live operation state machine.
pub struct Osm<S> {
    pub(crate) id: OsmId,
    pub(crate) spec: Arc<StateMachineSpec>,
    /// Index into the machine's spec table (director fast path).
    pub(crate) spec_idx: u32,
    pub(crate) state: StateId,
    pub(crate) buffer: Vec<HeldToken>,
    pub(crate) slots: Vec<TokenIdent>,
    pub(crate) age: u64,
    pub(crate) tag: u64,
    pub(crate) behavior: Box<dyn Behavior<S>>,
    /// Control step of this OSM's most recent committed transition
    /// (watchdog input; 0 until the first move).
    pub(crate) last_move_cycle: u64,
}

impl<S> Osm<S> {
    pub(crate) fn new(
        id: OsmId,
        spec: Arc<StateMachineSpec>,
        spec_idx: u32,
        tag: u64,
        behavior: Box<dyn Behavior<S>>,
    ) -> Self {
        let state = spec.initial();
        Osm {
            id,
            spec,
            spec_idx,
            state,
            buffer: Vec::new(),
            slots: Vec::new(),
            age: IDLE_AGE,
            tag,
            behavior,
            last_move_cycle: 0,
        }
    }

    /// The OSM's id.
    pub fn id(&self) -> OsmId {
        self.id
    }

    /// The spec this OSM instantiates.
    pub fn spec(&self) -> &Arc<StateMachineSpec> {
        &self.spec
    }

    /// Index of the spec in the machine's spec table (matches the `spec`
    /// field of observed events).
    pub fn spec_index(&self) -> u32 {
        self.spec_idx
    }

    /// Current state.
    pub fn state(&self) -> StateId {
        self.state
    }

    /// Name of the current state.
    pub fn state_name(&self) -> &str {
        self.spec.state_name(self.state)
    }

    /// True if resting in the initial state.
    pub fn is_idle(&self) -> bool {
        self.state == self.spec.initial()
    }

    /// Age rank key ([`IDLE_AGE`] while idle; otherwise the monotonic counter
    /// value assigned when the OSM last left the initial state).
    pub fn age(&self) -> u64 {
        self.age
    }

    /// Thread tag.
    pub fn tag(&self) -> u64 {
        self.tag
    }

    /// Control step of the most recent committed transition (0 if none yet).
    pub fn last_move_cycle(&self) -> u64 {
        self.last_move_cycle
    }

    /// Currently held tokens.
    pub fn buffer(&self) -> &[HeldToken] {
        &self.buffer
    }

    /// Dynamic identifier slots.
    pub fn slots(&self) -> &[TokenIdent] {
        &self.slots
    }

    /// Read-only view (for rankers and veto hooks).
    pub fn view(&self) -> OsmView<'_> {
        OsmView {
            id: self.id,
            state: self.state,
            age: self.age,
            tag: self.tag,
            slots: &self.slots,
            buffer: &self.buffer,
        }
    }

}

impl<S> std::fmt::Debug for Osm<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Osm")
            .field("id", &self.id)
            .field("spec", &self.spec.name())
            .field("state", &self.state_name())
            .field("age", &self.age)
            .field("tag", &self.tag)
            .field("buffer", &self.buffer)
            .field("slots", &self.slots)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SpecBuilder;

    fn spec() -> Arc<StateMachineSpec> {
        let mut b = SpecBuilder::new("t");
        let i = b.state("I");
        let f = b.state("F");
        b.initial(i);
        b.edge(i, f);
        b.build().unwrap()
    }

    #[test]
    fn new_osm_is_idle_with_empty_buffer() {
        let o: Osm<()> = Osm::new(OsmId(0), spec(), 0, 0, Box::new(InertBehavior));
        assert!(o.is_idle());
        assert_eq!(o.state_name(), "I");
        assert_eq!(o.age(), IDLE_AGE);
        assert!(o.buffer().is_empty());
        assert!(o.slots().is_empty());
        assert_eq!(o.view().id, OsmId(0));
    }

    #[test]
    fn set_slot_grows_with_none_padding() {
        let mut slots = Vec::new();
        set_slot(&mut slots, SlotId(2), TokenIdent(7));
        assert_eq!(
            slots,
            vec![TokenIdent::NONE, TokenIdent::NONE, TokenIdent(7)]
        );
        set_slot(&mut slots, SlotId(0), TokenIdent(1));
        assert_eq!(slots[0], TokenIdent(1));
    }

    #[test]
    fn debug_shows_state_name() {
        let o: Osm<()> = Osm::new(OsmId(3), spec(), 0, 0, Box::new(InertBehavior));
        let s = format!("{o:?}");
        assert!(s.contains("\"I\""));
        assert!(s.contains("OsmId(3)"));
    }
}
