//! The token manager interface (TMI) and the manager table.
//!
//! Each hardware module that interacts with operations implements
//! [`TokenManager`], the Rust rendering of the paper's TMI (§4). Because an
//! edge condition is a conjunction whose primitives must succeed and commit
//! *simultaneously*, the interface is two-phase: `prepare_*` tentatively
//! applies a transaction (so that later primitives of the same condition
//! observe it), and the director then either `commit_*`s or `abort_*`s every
//! prepared transaction of the condition atomically.

use crate::error::ModelError;
use crate::ids::{ManagerId, OsmId};
use crate::token::{Token, TokenIdent};
use std::any::Any;

/// One token manager's section of a machine checkpoint: the bytes its
/// [`TokenManager::snapshot_state`] wrote, opaque to everything but the
/// manager itself. [`crate::Machine::checkpoint`] stores them
/// length-prefixed; [`crate::Machine::restore`] hands them back to
/// [`TokenManager::restore_state`] on a manager of the same construction.
#[derive(Debug, Clone)]
pub struct ManagerSnapshot(Vec<u8>);

impl ManagerSnapshot {
    /// Wraps a section's bytes.
    pub fn new(bytes: Vec<u8>) -> Self {
        ManagerSnapshot(bytes)
    }

    /// The section's bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }
}

/// The token manager interface (TMI).
///
/// A manager controls one or more closely related tokens and implements the
/// resource-management policy of its hardware module. Managers may check the
/// identity (`OsmId`) of the requesting OSM when making decisions.
///
/// # Two-phase protocol
///
/// For every `prepare_allocate` that returns `Some(token)` and every
/// `prepare_release` that returns `true`, the director guarantees exactly one
/// matching `commit_*` or `abort_*` call before the end of the current edge
/// evaluation. Managers must treat prepared transactions as tentatively
/// applied: a token with a prepared allocation is unavailable to other
/// requests until aborted.
///
/// `inquire` is read-only and needs no second phase. `discard` requires no
/// permission and always succeeds; it is only invoked when an edge actually
/// commits.
pub trait TokenManager: Any + Send {
    /// Human-readable module name (used in traces and error messages).
    fn name(&self) -> &str;

    /// Called once when the manager is installed into a [`ManagerTable`],
    /// telling it the id under which it will mint tokens.
    fn attach(&mut self, id: ManagerId) {
        let _ = id;
    }

    /// Λ `allocate`: tentatively grant a token for `ident` to `osm`.
    ///
    /// Returns `None` if the token is not available to this OSM.
    fn prepare_allocate(&mut self, osm: OsmId, ident: TokenIdent) -> Option<Token>;

    /// Λ `inquire`: is the resource unit denoted by `ident` available to
    /// `osm` right now (without obtaining it)?
    fn inquire(&self, osm: OsmId, ident: TokenIdent) -> bool;

    /// Λ `release`: tentatively accept the return of `token` from `osm`.
    ///
    /// Returns `false` to refuse (e.g. a cache miss still in flight; the
    /// paper's variable-latency idiom, §4).
    fn prepare_release(&mut self, osm: OsmId, token: Token) -> bool;

    /// Finalize a prepared allocation: `osm` now owns `token`.
    fn commit_allocate(&mut self, osm: OsmId, token: Token);

    /// Undo a prepared allocation; the token becomes available again.
    fn abort_allocate(&mut self, osm: OsmId, token: Token);

    /// Finalize a prepared release: the token returns to the manager and is
    /// immediately available to other OSMs *within the same control step*.
    fn commit_release(&mut self, osm: OsmId, token: Token);

    /// Undo a prepared release; `osm` keeps the token.
    fn abort_release(&mut self, osm: OsmId, token: Token);

    /// Λ `discard`: `osm` drops `token` without permission. Always succeeds.
    fn discard(&mut self, osm: OsmId, token: Token);

    /// Current owner of the token denoted by `ident`, if the manager tracks
    /// ownership. Used by the director's deadlock detector to build the
    /// wait-for graph; returning `None` merely disables detection through
    /// this manager.
    fn owner_of(&self, ident: TokenIdent) -> Option<OsmId> {
        let _ = ident;
        None
    }

    /// Hardware-layer clock hook, invoked once per control step *before* the
    /// OSM scheduling pass (managers are hardware modules; paper §4).
    ///
    /// Returns `true` when the clock edge changed (or may have changed) any
    /// state that influences the manager's primitive decisions — the
    /// sensitivity-scheduling dirty bit. The fast director
    /// ([`crate::SchedulerMode::Fast`]) skips re-evaluating OSMs blocked on
    /// managers that reported no change, so returning `false` after a
    /// decision-relevant mutation makes blocked OSMs oversleep. The default
    /// no-op returns `false`. Returning `true` without a change is allowed
    /// and never changes a run, but it is not free: it breaks every skip
    /// proof that rests on this manager, so each OSM blocked on it is
    /// re-evaluated that cycle.
    fn clock(&mut self, cycle: u64) -> bool {
        let _ = cycle;
        false
    }

    /// Every `(token, owner)` pair the manager believes is committed-owned.
    /// Managers that do not track ownership return `None`, which merely
    /// exempts them from [`crate::Machine::audit_tokens`].
    fn owned_tokens(&self) -> Option<Vec<(Token, OsmId)>> {
        None
    }

    /// Writes the manager's mutable state as its checkpoint section (build
    /// it with [`crate::ByteWriter`], led by a kind byte so a section routed
    /// to the wrong manager is refused). The default `None` declares the
    /// manager non-checkpointable, making [`crate::Machine::checkpoint`]
    /// fail with [`crate::ModelError::SnapshotUnsupported`].
    fn snapshot_state(&self) -> Option<ManagerSnapshot> {
        None
    }

    /// Restores a section written by [`TokenManager::snapshot_state`] on a
    /// manager of the same construction: parses it completely, checks its
    /// shape against this manager, and only then applies it. Returns
    /// `false`, leaving the manager unchanged, on any malformed, foreign or
    /// wrong-shape section; the default refuses everything.
    fn restore_state(&mut self, snap: &ManagerSnapshot) -> bool {
        let _ = snap;
        false
    }

    /// Identity codec: a [`ManagerSnapshot`] already is its encoding.
    /// Nothing in the workspace calls or overrides it; it stays only because
    /// the `perf` benchmark's timing decorator still forwards it.
    #[doc(hidden)]
    fn encode_snapshot(&self, snap: &ManagerSnapshot) -> Option<Vec<u8>> {
        Some(snap.as_bytes().to_vec())
    }

    /// Identity codec; see [`TokenManager::encode_snapshot`].
    #[doc(hidden)]
    fn decode_snapshot(&self, bytes: &[u8]) -> Option<ManagerSnapshot> {
        Some(ManagerSnapshot::new(bytes.to_vec()))
    }

    /// Upcast for concrete-type access from behaviors.
    fn as_any(&self) -> &dyn Any;

    /// Mutable upcast for concrete-type access from behaviors.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// Owning table of all token managers of a machine, indexed by [`ManagerId`].
///
/// # Dirty tracking
///
/// The table keeps one monotonic *epoch* per manager, the foundation of the
/// director's sensitivity-driven fast path ([`crate::SchedulerMode::Fast`]):
/// an OSM blocked on a manager need not be re-evaluated until that manager's
/// epoch moves. Epochs are bumped conservatively on every path that can
/// change decision-relevant state — every mutable borrow handed out by the
/// public accessors ([`ManagerTable::get_mut`], [`ManagerTable::try_get_mut`],
/// [`ManagerTable::downcast_mut`], [`ManagerTable::wrap`]), every clock hook
/// that reports a change ([`TokenManager::clock`]), and explicitly by the
/// director on every committed transaction. The two-phase `prepare`/`abort`
/// traffic of failed edge evaluations is net state-neutral and deliberately
/// does *not* bump (the director uses internal non-bumping accessors for it).
#[derive(Default)]
pub struct ManagerTable {
    managers: Vec<Box<dyn TokenManager>>,
    /// Per-manager dirty epoch; parallel to `managers`.
    epochs: Vec<u64>,
    /// Bumped on every epoch bump of any manager: a cheap "anything changed
    /// since ...?" watermark for whole-table consumers.
    generation: u64,
}

impl ManagerTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs a manager, informs it of its id via [`TokenManager::attach`],
    /// and returns the id.
    ///
    /// # Panics
    /// Panics if the 32-bit manager id space is exhausted; use
    /// [`ManagerTable::try_add`] to handle that as a typed error.
    pub fn add<M: TokenManager>(&mut self, manager: M) -> ManagerId {
        match self.try_add(manager) {
            Ok(id) => id,
            Err(e) => panic!("{e}"),
        }
    }

    /// Installs a manager like [`ManagerTable::add`], but reports id-space
    /// exhaustion as [`ModelError::CapacityExceeded`] instead of panicking
    /// (previously the id silently wrapped past `u32::MAX`).
    pub fn try_add<M: TokenManager>(&mut self, manager: M) -> Result<ManagerId, ModelError> {
        let id = ManagerId(crate::ids::checked_id(self.managers.len(), "token manager")?);
        let mut boxed = Box::new(manager);
        boxed.attach(id);
        self.managers.push(boxed);
        self.epochs.push(1);
        self.generation += 1;
        Ok(id)
    }

    /// The dirty epoch of a manager: a counter that moves every time the
    /// manager's decision-relevant state may have changed. Out-of-range ids
    /// report a constant `0` (a dangling manager id never changes).
    #[inline]
    pub fn epoch(&self, id: ManagerId) -> u64 {
        self.epochs.get(id.index()).copied().unwrap_or(0)
    }

    /// The table-wide change watermark: bumped whenever *any* manager's
    /// epoch moves.
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Marks a manager dirty: its state may have changed in a way that can
    /// affect primitive decisions. Custom hardware layers mutating a manager
    /// through interior mutability (rather than through the table's mutable
    /// accessors, which mark automatically) must call this.
    #[inline]
    pub fn mark_dirty(&mut self, id: ManagerId) {
        if let Some(e) = self.epochs.get_mut(id.index()) {
            *e += 1;
            self.generation += 1;
        }
    }

    /// Number of installed managers.
    pub fn len(&self) -> usize {
        self.managers.len()
    }

    /// True if no managers are installed.
    pub fn is_empty(&self) -> bool {
        self.managers.is_empty()
    }

    /// Borrows a manager as the trait object.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    #[inline]
    pub fn get(&self, id: ManagerId) -> &dyn TokenManager {
        self.managers[id.index()].as_ref()
    }

    /// Mutably borrows a manager as the trait object, conservatively marking
    /// it dirty (the borrower may change decision-relevant state).
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    #[inline]
    pub fn get_mut(&mut self, id: ManagerId) -> &mut dyn TokenManager {
        self.mark_dirty(id);
        self.managers[id.index()].as_mut()
    }

    /// Mutably borrows a manager *without* marking it dirty. Reserved for
    /// the director's two-phase `prepare`/`abort` traffic, which is net
    /// state-neutral on managers honoring the protocol.
    #[inline]
    pub(crate) fn probe_mut(&mut self, id: ManagerId) -> &mut dyn TokenManager {
        self.managers[id.index()].as_mut()
    }

    /// Non-panicking, non-dirtying counterpart of
    /// [`ManagerTable::probe_mut`].
    #[inline]
    pub(crate) fn try_probe_mut(&mut self, id: ManagerId) -> Option<&mut dyn TokenManager> {
        self.managers.get_mut(id.index()).map(|m| m.as_mut())
    }

    /// Borrows a manager, or `None` if `id` is out of range (for callers
    /// evaluating untrusted specs, where a dangling id must surface as a
    /// failed condition rather than a panic).
    #[inline]
    pub fn try_get(&self, id: ManagerId) -> Option<&dyn TokenManager> {
        self.managers.get(id.index()).map(|m| m.as_ref())
    }

    /// Mutably borrows a manager (marking it dirty, like
    /// [`ManagerTable::get_mut`]), or `None` if `id` is out of range.
    #[inline]
    pub fn try_get_mut(&mut self, id: ManagerId) -> Option<&mut dyn TokenManager> {
        self.mark_dirty(id);
        self.managers.get_mut(id.index()).map(|m| m.as_mut())
    }

    /// Replaces the manager registered under `id` with whatever `wrapper`
    /// builds around it — the installation point for decorators such as
    /// [`crate::FaultInjector`]. The wrapper receives the currently
    /// installed (already attached) manager and must return its replacement.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn wrap<F>(&mut self, id: ManagerId, wrapper: F)
    where
        F: FnOnce(Box<dyn TokenManager>) -> Box<dyn TokenManager>,
    {
        self.mark_dirty(id);
        let slot = &mut self.managers[id.index()];
        let inner = std::mem::replace(slot, Box::new(NullManager));
        *slot = wrapper(inner);
    }

    /// Borrows a manager downcast to its concrete type.
    ///
    /// # Panics
    /// Panics if `id` is out of range or the manager is not a `M`.
    pub fn downcast<M: TokenManager>(&self, id: ManagerId) -> &M {
        self.managers[id.index()]
            .as_ref()
            .as_any()
            .downcast_ref::<M>()
            .unwrap_or_else(|| panic!("manager {id} is not a {}", std::any::type_name::<M>()))
    }

    /// Mutably borrows a manager downcast to its concrete type, marking it
    /// dirty like [`ManagerTable::get_mut`].
    ///
    /// # Panics
    /// Panics if `id` is out of range or the manager is not a `M`.
    pub fn downcast_mut<M: TokenManager>(&mut self, id: ManagerId) -> &mut M {
        self.mark_dirty(id);
        self.managers[id.index()]
            .as_mut()
            .as_any_mut()
            .downcast_mut::<M>()
            .unwrap_or_else(|| panic!("manager {id} is not a {}", std::any::type_name::<M>()))
    }

    /// Invokes every manager's [`TokenManager::clock`] hook, marking dirty
    /// each manager whose hook reports a decision-relevant change.
    pub fn clock_all(&mut self, cycle: u64) {
        for (i, m) in self.managers.iter_mut().enumerate() {
            if m.clock(cycle) {
                self.epochs[i] += 1;
                self.generation += 1;
            }
        }
    }

    /// Iterates over `(id, manager)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ManagerId, &dyn TokenManager)> {
        self.managers
            .iter()
            .enumerate()
            .map(|(i, m)| (ManagerId(i as u32), m.as_ref()))
    }
}

/// Placeholder briefly occupying a [`ManagerTable`] slot while
/// [`ManagerTable::wrap`] hands the real manager to its wrapper. Never
/// observable by callers; denies everything just in case.
struct NullManager;

impl TokenManager for NullManager {
    fn name(&self) -> &str {
        "<null>"
    }
    fn prepare_allocate(&mut self, _: OsmId, _: TokenIdent) -> Option<Token> {
        None
    }
    fn inquire(&self, _: OsmId, _: TokenIdent) -> bool {
        false
    }
    fn prepare_release(&mut self, _: OsmId, _: Token) -> bool {
        false
    }
    fn commit_allocate(&mut self, _: OsmId, _: Token) {}
    fn abort_allocate(&mut self, _: OsmId, _: Token) {}
    fn commit_release(&mut self, _: OsmId, _: Token) {}
    fn abort_release(&mut self, _: OsmId, _: Token) {}
    fn discard(&mut self, _: OsmId, _: Token) {}
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

impl std::fmt::Debug for ManagerTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list()
            .entries(self.managers.iter().map(|m| m.name()))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pools::ExclusivePool;

    #[test]
    fn table_add_and_lookup() {
        let mut table = ManagerTable::new();
        assert!(table.is_empty());
        let a = table.add(ExclusivePool::new("fetch", 1));
        let b = table.add(ExclusivePool::new("decode", 1));
        assert_eq!(table.len(), 2);
        assert_eq!(table.get(a).name(), "fetch");
        assert_eq!(table.get(b).name(), "decode");
        assert_eq!(a, ManagerId(0));
        assert_eq!(b, ManagerId(1));
    }

    #[test]
    fn downcast_roundtrip() {
        let mut table = ManagerTable::new();
        let a = table.add(ExclusivePool::new("fetch", 3));
        let pool: &ExclusivePool = table.downcast(a);
        assert_eq!(pool.capacity(), 3);
        let pool: &mut ExclusivePool = table.downcast_mut(a);
        assert_eq!(pool.capacity(), 3);
    }

    #[test]
    #[should_panic(expected = "is not a")]
    fn downcast_wrong_type_panics() {
        struct Other;
        impl TokenManager for Other {
            fn name(&self) -> &str {
                "other"
            }
            fn prepare_allocate(&mut self, _: OsmId, _: TokenIdent) -> Option<Token> {
                None
            }
            fn inquire(&self, _: OsmId, _: TokenIdent) -> bool {
                false
            }
            fn prepare_release(&mut self, _: OsmId, _: Token) -> bool {
                false
            }
            fn commit_allocate(&mut self, _: OsmId, _: Token) {}
            fn abort_allocate(&mut self, _: OsmId, _: Token) {}
            fn commit_release(&mut self, _: OsmId, _: Token) {}
            fn abort_release(&mut self, _: OsmId, _: Token) {}
            fn discard(&mut self, _: OsmId, _: Token) {}
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut table = ManagerTable::new();
        let id = table.add(Other);
        let _: &ExclusivePool = table.downcast(id);
    }

    #[test]
    fn try_get_is_total() {
        let mut table = ManagerTable::new();
        let a = table.add(ExclusivePool::new("fetch", 1));
        assert!(table.try_get(a).is_some());
        assert!(table.try_get(ManagerId(7)).is_none());
        assert!(table.try_get_mut(ManagerId(7)).is_none());
    }

    #[test]
    fn wrap_replaces_in_place_and_preserves_downcast() {
        use crate::fault::{FaultInjector, FaultPlan};
        let mut table = ManagerTable::new();
        let a = table.add(ExclusivePool::new("fetch", 2));
        table.wrap(a, |inner| {
            Box::new(FaultInjector::new(inner, FaultPlan::new(1)))
        });
        // Transparent downcast still reaches the wrapped pool.
        assert_eq!(table.downcast::<ExclusivePool>(a).capacity(), 2);
        assert_eq!(table.get(a).name(), "fetch");
    }

    #[test]
    fn iter_yields_ids_in_order() {
        let mut table = ManagerTable::new();
        table.add(ExclusivePool::new("a", 1));
        table.add(ExclusivePool::new("b", 1));
        let names: Vec<_> = table.iter().map(|(id, m)| (id.0, m.name().to_owned())).collect();
        assert_eq!(names, vec![(0, "a".to_owned()), (1, "b".to_owned())]);
    }
}
