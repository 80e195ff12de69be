//! Deterministic fault injection for token managers (see [`FaultInjector`]).

use crate::ids::{ManagerId, OsmId};
use crate::manager::{ManagerSnapshot, ManagerTable, TokenManager};
use crate::persist::{ByteReader, ByteWriter};
use crate::token::{Token, TokenIdent};
use std::any::Any;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};

/// High bit marker distinguishing corrupted token raws from real ones.
///
/// Real raws are small resource indices, so a corrupted raw is guaranteed to
/// be out of range for every built-in manager — which is exactly the point:
/// a corrupted token is unusable until the run is restored from a
/// checkpoint.
const CORRUPT_MASK: u64 = 1 << 63;

/// Kind byte leading an injector's checkpoint section.
const KIND_INJECTOR: u8 = b'F';

/// The kinds of faults a [`FaultRule`] can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// `prepare_allocate` returns `None` even if the manager would grant.
    DenyAllocate,
    /// `inquire` answers `false` even if the resource is available.
    DenyInquire,
    /// `prepare_release` refuses, keeping the token with its owner one or
    /// more extra cycles (models a stuck completion signal).
    DeferRelease,
    /// A granted token is silently aborted back into the manager and the
    /// requester sees a denial (models a lost grant message).
    DropToken,
    /// A granted token reaches the requester with a corrupted raw value; it
    /// can be squashed (discarded) but never cleanly released, so the owning
    /// OSM eventually wedges — the scenario checkpoint/restore recovers.
    CorruptToken,
    /// Deny every allocate and inquire, and defer every release, for the
    /// rule's window (models a module dropping off the interconnect).
    Blackhole,
}

/// One fault source: a kind, a firing probability and an optional
/// half-open cycle window `[start, end)` outside of which it is dormant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRule {
    /// What to inject.
    pub kind: FaultKind,
    /// Per-opportunity firing probability in `[0, 1]`; `1.0` fires on every
    /// opportunity inside the window.
    pub probability: f64,
    /// Active cycle window `[start, end)`, or `None` for always-active.
    pub window: Option<(u64, u64)>,
}

impl FaultRule {
    /// A rule active on every cycle.
    pub fn new(kind: FaultKind, probability: f64) -> Self {
        FaultRule {
            kind,
            probability,
            window: None,
        }
    }

    /// Restricts the rule to cycles `start..end`.
    pub fn between(mut self, start: u64, end: u64) -> Self {
        self.window = Some((start, end));
        self
    }

    fn active(&self, cycle: u64) -> bool {
        match self.window {
            None => true,
            Some((start, end)) => cycle >= start && cycle < end,
        }
    }
}

/// A seeded, reproducible collection of [`FaultRule`]s.
///
/// ```
/// use osm_core::FaultPlan;
/// let plan = FaultPlan::new(0xBAD5EED)
///     .deny_allocate(0.25)
///     .blackhole(100, 120);
/// assert_eq!(plan.rules().len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// An empty plan drawing randomness from `seed`.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            rules: Vec::new(),
        }
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The plan's rules, in evaluation order.
    pub fn rules(&self) -> &[FaultRule] {
        &self.rules
    }

    /// Adds an arbitrary rule.
    pub fn rule(mut self, rule: FaultRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Denies allocations with probability `p`.
    pub fn deny_allocate(self, p: f64) -> Self {
        self.rule(FaultRule::new(FaultKind::DenyAllocate, p))
    }

    /// Denies inquiries with probability `p`.
    pub fn deny_inquire(self, p: f64) -> Self {
        self.rule(FaultRule::new(FaultKind::DenyInquire, p))
    }

    /// Defers releases with probability `p`.
    pub fn defer_release(self, p: f64) -> Self {
        self.rule(FaultRule::new(FaultKind::DeferRelease, p))
    }

    /// Drops granted tokens with probability `p`.
    pub fn drop_token(self, p: f64) -> Self {
        self.rule(FaultRule::new(FaultKind::DropToken, p))
    }

    /// Corrupts granted tokens with probability `p`.
    pub fn corrupt_token(self, p: f64) -> Self {
        self.rule(FaultRule::new(FaultKind::CorruptToken, p))
    }

    /// Blackholes the manager for cycles `start..end`.
    pub fn blackhole(self, start: u64, end: u64) -> Self {
        self.rule(FaultRule::new(FaultKind::Blackhole, 1.0).between(start, end))
    }
}

/// Counters of faults actually injected, readable through [`FaultHandle::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Allocations denied (including blackholed ones).
    pub denied_allocates: u64,
    /// Inquiries answered `false` by fiat (including blackholed ones).
    pub denied_inquires: u64,
    /// Releases refused (including blackholed ones).
    pub deferred_releases: u64,
    /// Granted tokens dropped.
    pub dropped_tokens: u64,
    /// Granted tokens corrupted.
    pub corrupted_tokens: u64,
}

impl FaultStats {
    /// Total number of injected faults.
    pub fn total(&self) -> u64 {
        self.denied_allocates
            + self.denied_inquires
            + self.deferred_releases
            + self.dropped_tokens
            + self.corrupted_tokens
    }
}

/// Shared operator-facing switchboard of one injector.
#[derive(Debug, Default)]
struct FaultControl {
    disabled: bool,
    stats: FaultStats,
}

/// Remote control for an installed [`FaultInjector`].
///
/// Obtain it with [`FaultInjector::handle`] *before* boxing the injector
/// into a [`ManagerTable`] (the injector's transparent downcasting makes it
/// unreachable afterwards). Cloning hands out another control to the same
/// injector. The handle is `Send`, so a machine with installed injectors can
/// move to a worker thread while its controls stay behind.
#[derive(Debug, Clone)]
pub struct FaultHandle {
    control: Arc<Mutex<FaultControl>>,
}

impl FaultHandle {
    /// Stops injecting faults (the wrapped manager becomes transparent).
    /// Models the operator repairing the faulty module before a restore.
    pub fn disable(&self) {
        self.control.lock().unwrap().disabled = true;
    }

    /// Resumes injecting faults.
    pub fn enable(&self) {
        self.control.lock().unwrap().disabled = false;
    }

    /// Whether the injector is currently active.
    pub fn is_enabled(&self) -> bool {
        !self.control.lock().unwrap().disabled
    }

    /// Snapshot of the injection counters.
    pub fn stats(&self) -> FaultStats {
        self.control.lock().unwrap().stats
    }
}

/// A [`TokenManager`] decorator injecting deterministic faults per a
/// [`FaultPlan`].
///
/// It wraps any installed [`TokenManager`] and perturbs the
/// Λ-primitive traffic flowing through it according to a seeded
/// [`FaultPlan`]: allocations and inquiries can be denied, releases deferred,
/// granted tokens dropped or corrupted, and whole cycle windows blackholed.
///
/// Fault decisions are *stateless*: each one is a pure hash of the plan's
/// seed, the current cycle, the rule, the requesting OSM and the token
/// identifier. Two consequences the rest of the system leans on:
///
/// * a faulty run is exactly reproducible from the seed (and stays so across
///   checkpoint/restore — there is no stream position to lose);
/// * re-evaluating the same primitive within one cycle gives the same
///   answer, which the director's idle-step wait-for-graph pass requires
///   (it re-runs edge conditions assuming they are cycle-deterministic).
///
/// The injector is *transparent* to concrete-type access: its
/// `as_any`/`as_any_mut` forward to the wrapped manager, so hardware-layer
/// code that downcasts (e.g. a clock hook poking an
/// [`crate::ExclusivePool`]) keeps working after wrapping. The flip side is
/// that the injector itself cannot be found by downcasting; keep the
/// [`FaultHandle`] returned at installation time to steer it.
pub struct FaultInjector {
    inner: Box<dyn TokenManager>,
    plan: FaultPlan,
    cycle: u64,
    control: Arc<Mutex<FaultControl>>,
    /// Corrupted-raw → real-raw translations for tokens currently in flight.
    corrupt_map: Vec<(u64, u64)>,
}

impl fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultInjector")
            .field("inner", &self.inner.name())
            .field("plan", &self.plan)
            .field("cycle", &self.cycle)
            .finish()
    }
}

impl FaultInjector {
    /// Wraps `inner`, deriving all fault decisions from `plan`'s seed.
    pub fn new(inner: Box<dyn TokenManager>, plan: FaultPlan) -> Self {
        FaultInjector {
            inner,
            plan,
            cycle: 0,
            control: Arc::new(Mutex::new(FaultControl::default())),
            corrupt_map: Vec::new(),
        }
    }

    /// The remote control for this injector. Call before installing the
    /// injector into a [`ManagerTable`].
    pub fn handle(&self) -> FaultHandle {
        FaultHandle {
            control: Arc::clone(&self.control),
        }
    }

    /// Convenience: wraps the manager registered under `id` in `managers`
    /// in-place and returns the new injector's handle.
    pub fn install(managers: &mut ManagerTable, id: ManagerId, plan: FaultPlan) -> FaultHandle {
        let mut handle = None;
        managers.wrap(id, |inner| {
            let injector = FaultInjector::new(inner, plan);
            handle = Some(injector.handle());
            Box::new(injector)
        });
        handle.expect("ManagerTable::wrap always invokes the wrapper")
    }

    /// Stateless per-decision hash (splitmix64 finalizer over the mixed
    /// inputs). Stable for a given (cycle, rule, osm, salt): re-asking the
    /// same question in the same cycle gets the same answer.
    fn decision_hash(&self, rule_idx: usize, osm: OsmId, salt: u64) -> u64 {
        let mut z = self
            .plan
            .seed
            .wrapping_add(self.cycle.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add((rule_idx as u64).wrapping_mul(0xD1B5_4A32_D192_ED03))
            .wrapping_add((u64::from(osm.0)).wrapping_mul(0x8CB9_2BA7_2F3D_8DD7))
            .wrapping_add(salt.rotate_left(32));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Does any active rule of `kind` fire for this (osm, salt) opportunity
    /// this cycle? `salt` is the token identifier (or granted raw) so
    /// distinct resources fault independently.
    fn fires(&self, kind: FaultKind, osm: OsmId, salt: u64) -> bool {
        if self.control.lock().unwrap().disabled {
            return false;
        }
        self.plan.rules.iter().enumerate().any(|(idx, rule)| {
            rule.kind == kind
                && rule.active(self.cycle)
                && (rule.probability >= 1.0
                    || (rule.probability > 0.0
                        // 53 uniform bits → [0, 1).
                        && ((self.decision_hash(idx, osm, salt) >> 11) as f64)
                            * (1.0 / 9_007_199_254_740_992.0)
                            < rule.probability))
        })
    }

    fn blackholed(&self, osm: OsmId, salt: u64) -> bool {
        self.fires(FaultKind::Blackhole, osm, salt)
    }

    fn stats_mut(&self) -> MutexGuard<'_, FaultControl> {
        self.control.lock().unwrap()
    }

    /// Translates a possibly-corrupted raw back to the real one the inner
    /// manager minted. Returns the input unchanged when unknown.
    fn real_raw(&self, raw: u64) -> u64 {
        if raw & CORRUPT_MASK == 0 {
            return raw;
        }
        self.corrupt_map
            .iter()
            .find(|(c, _)| *c == raw)
            .map_or(raw, |&(_, r)| r)
    }

    fn forget_corrupt(&mut self, raw: u64) {
        if raw & CORRUPT_MASK != 0 {
            self.corrupt_map.retain(|(c, _)| *c != raw);
        }
    }
}

impl TokenManager for FaultInjector {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn attach(&mut self, id: ManagerId) {
        self.inner.attach(id);
    }

    fn prepare_allocate(&mut self, osm: OsmId, ident: TokenIdent) -> Option<Token> {
        if self.blackholed(osm, ident.0) || self.fires(FaultKind::DenyAllocate, osm, ident.0) {
            self.stats_mut().stats.denied_allocates += 1;
            return None;
        }
        let token = self.inner.prepare_allocate(osm, ident)?;
        if self.fires(FaultKind::DropToken, osm, token.raw) {
            // The grant is lost in transit: put it straight back and report
            // a denial. The inner manager sees a legal prepare/abort pair.
            self.inner.abort_allocate(osm, token);
            self.stats_mut().stats.dropped_tokens += 1;
            return None;
        }
        if self.fires(FaultKind::CorruptToken, osm, token.raw) {
            let corrupted = token.raw | CORRUPT_MASK;
            self.corrupt_map.push((corrupted, token.raw));
            self.stats_mut().stats.corrupted_tokens += 1;
            return Some(Token::new(token.manager, corrupted));
        }
        Some(token)
    }

    fn inquire(&self, osm: OsmId, ident: TokenIdent) -> bool {
        if self.blackholed(osm, ident.0) || self.fires(FaultKind::DenyInquire, osm, ident.0) {
            self.stats_mut().stats.denied_inquires += 1;
            return false;
        }
        self.inner.inquire(osm, ident)
    }

    fn prepare_release(&mut self, osm: OsmId, token: Token) -> bool {
        if self.blackholed(osm, token.raw) || self.fires(FaultKind::DeferRelease, osm, token.raw) {
            self.stats_mut().stats.deferred_releases += 1;
            return false;
        }
        // Deliberately NOT translated: a corrupted token cannot be cleanly
        // released — the inner manager rejects the out-of-range raw, the
        // owning OSM stalls, and the watchdog/audit surface the damage.
        self.inner.prepare_release(osm, token)
    }

    fn commit_allocate(&mut self, osm: OsmId, token: Token) {
        // Translated: the inner manager must record its own raw as owned so
        // it stays coherent (and squashes keep working) while the OSM holds
        // the corrupted alias.
        let raw = self.real_raw(token.raw);
        self.inner.commit_allocate(osm, Token::new(token.manager, raw));
    }

    fn abort_allocate(&mut self, osm: OsmId, token: Token) {
        let raw = self.real_raw(token.raw);
        self.inner.abort_allocate(osm, Token::new(token.manager, raw));
        self.forget_corrupt(token.raw);
    }

    fn commit_release(&mut self, osm: OsmId, token: Token) {
        self.inner.commit_release(osm, token);
    }

    fn abort_release(&mut self, osm: OsmId, token: Token) {
        self.inner.abort_release(osm, token);
    }

    fn discard(&mut self, osm: OsmId, token: Token) {
        let raw = self.real_raw(token.raw);
        self.inner.discard(osm, Token::new(token.manager, raw));
        self.forget_corrupt(token.raw);
    }

    fn owner_of(&self, ident: TokenIdent) -> Option<OsmId> {
        self.inner.owner_of(ident)
    }

    fn clock(&mut self, cycle: u64) -> bool {
        self.cycle = cycle;
        let _ = self.inner.clock(cycle);
        // Fault decisions are a function of the cycle, so the injector's
        // observable behavior can change on every clock edge regardless of
        // the wrapped manager: always dirty, or sensitivity scheduling would
        // let blocked OSMs sleep through an injected grant/deny flip.
        true
    }

    fn owned_tokens(&self) -> Option<Vec<(Token, OsmId)>> {
        self.inner.owned_tokens()
    }

    /// The section is the injector's clock and corruption map (so faulty
    /// runs stay reproducible across checkpoint/restore) wrapped around the
    /// inner manager's own section.
    fn snapshot_state(&self) -> Option<ManagerSnapshot> {
        let inner = self.inner.snapshot_state()?;
        let mut w = ByteWriter::new();
        w.put_u8(KIND_INJECTOR);
        w.put_u64(self.cycle);
        w.put_seq(&self.corrupt_map, |w, &(corrupted, real)| {
            w.put_u64(corrupted);
            w.put_u64(real);
        });
        w.put_bytes(inner.as_bytes());
        Some(ManagerSnapshot::new(w.into_bytes()))
    }

    fn restore_state(&mut self, snap: &ManagerSnapshot) -> bool {
        let parsed = ByteReader::read_all(snap.as_bytes(), |r| {
            r.expect_u8(KIND_INJECTOR)?;
            let cycle = r.take_u64()?;
            let corrupt_map = r.take_vec(|r| Some((r.take_u64()?, r.take_u64()?)))?;
            Some((cycle, corrupt_map, r.take_bytes()?))
        });
        let Some((cycle, corrupt_map, inner)) = parsed else {
            return false;
        };
        if !self
            .inner
            .restore_state(&ManagerSnapshot::new(inner.to_vec()))
        {
            return false;
        }
        self.cycle = cycle;
        self.corrupt_map = corrupt_map;
        // Operator state (enabled flag, fault counters) is intentionally NOT
        // restored: disabling faults then restoring must not re-arm them.
        true
    }

    // Transparent on purpose: hardware-layer clock hooks downcast managers
    // to concrete types; wrapping must not break them. The injector itself
    // is steered through its FaultHandle instead.
    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pools::ExclusivePool;

    fn wrapped_pool(plan: FaultPlan) -> (FaultInjector, FaultHandle) {
        let mut pool = ExclusivePool::new("pool", 2);
        pool.attach(ManagerId(0));
        let injector = FaultInjector::new(Box::new(pool), plan);
        let handle = injector.handle();
        (injector, handle)
    }

    #[test]
    fn passthrough_when_no_rules() {
        let (mut inj, handle) = wrapped_pool(FaultPlan::new(1));
        let t = inj.prepare_allocate(OsmId(0), TokenIdent::ANY).unwrap();
        inj.commit_allocate(OsmId(0), t);
        assert!(inj.prepare_release(OsmId(0), t));
        inj.commit_release(OsmId(0), t);
        assert_eq!(handle.stats().total(), 0);
    }

    #[test]
    fn deny_allocate_always_fires_at_p1() {
        let (mut inj, handle) = wrapped_pool(FaultPlan::new(2).deny_allocate(1.0));
        assert!(inj.prepare_allocate(OsmId(0), TokenIdent::ANY).is_none());
        assert_eq!(handle.stats().denied_allocates, 1);
        handle.disable();
        assert!(inj.prepare_allocate(OsmId(0), TokenIdent::ANY).is_some());
        assert_eq!(handle.stats().denied_allocates, 1);
    }

    #[test]
    fn blackhole_window_is_half_open() {
        let (mut inj, handle) = wrapped_pool(FaultPlan::new(3).blackhole(5, 7));
        inj.clock(4);
        assert!(inj.inquire(OsmId(0), TokenIdent::ANY));
        inj.clock(5);
        assert!(!inj.inquire(OsmId(0), TokenIdent::ANY));
        inj.clock(6);
        assert!(!inj.inquire(OsmId(0), TokenIdent::ANY));
        inj.clock(7);
        assert!(inj.inquire(OsmId(0), TokenIdent::ANY));
        assert_eq!(handle.stats().denied_inquires, 2);
    }

    #[test]
    fn corrupt_token_translates_on_discard_but_not_release() {
        let (mut inj, handle) = wrapped_pool(FaultPlan::new(4).corrupt_token(1.0));
        let t = inj.prepare_allocate(OsmId(0), TokenIdent::ANY).unwrap();
        assert_ne!(t.raw & CORRUPT_MASK, 0, "raw should carry corruption marker");
        inj.commit_allocate(OsmId(0), t);
        assert_eq!(handle.stats().corrupted_tokens, 1);
        // Inner pool recorded the REAL raw as owned.
        assert_eq!(
            inj.owned_tokens().unwrap(),
            vec![(Token::new(ManagerId(0), t.raw & !CORRUPT_MASK), OsmId(0))]
        );
        // A corrupted token cannot be released...
        assert!(!inj.prepare_release(OsmId(0), t));
        // ...but a squash-style discard frees the real slot.
        inj.discard(OsmId(0), t);
        assert_eq!(inj.owned_tokens().unwrap(), vec![]);
    }

    #[test]
    fn drop_token_leaves_inner_coherent() {
        let (mut inj, handle) = wrapped_pool(FaultPlan::new(5).drop_token(1.0));
        assert!(inj.prepare_allocate(OsmId(0), TokenIdent::ANY).is_none());
        assert_eq!(handle.stats().dropped_tokens, 1);
        handle.disable();
        // Both slots still available: the dropped grant was aborted back.
        let a = inj.prepare_allocate(OsmId(0), TokenIdent::ANY).unwrap();
        inj.commit_allocate(OsmId(0), a);
        let b = inj.prepare_allocate(OsmId(1), TokenIdent::ANY).unwrap();
        inj.commit_allocate(OsmId(1), b);
        assert_eq!(inj.owned_tokens().unwrap().len(), 2);
    }

    #[test]
    fn same_seed_same_fault_sequence() {
        let run = || {
            let (mut inj, _) = wrapped_pool(FaultPlan::new(42).deny_allocate(0.5));
            (0..64)
                .map(|i| {
                    inj.clock(i);
                    match inj.prepare_allocate(OsmId(0), TokenIdent::ANY) {
                        Some(t) => {
                            inj.abort_allocate(OsmId(0), t);
                            true
                        }
                        None => false,
                    }
                })
                .collect::<Vec<bool>>()
        };
        let a = run();
        assert_eq!(a, run());
        assert!(a.iter().any(|g| *g) && a.iter().any(|g| !*g));
    }

    #[test]
    fn decisions_are_stable_within_a_cycle() {
        // The director's idle-step wait-for-graph pass re-evaluates edge
        // conditions within one cycle and requires identical answers.
        let (mut inj, _) = wrapped_pool(FaultPlan::new(11).deny_inquire(0.5));
        for cycle in 0..32 {
            inj.clock(cycle);
            let first = inj.inquire(OsmId(3), TokenIdent(1));
            for _ in 0..4 {
                assert_eq!(inj.inquire(OsmId(3), TokenIdent(1)), first);
            }
        }
    }

    #[test]
    fn snapshot_restore_replays_fault_stream() {
        let (mut inj, _) = wrapped_pool(FaultPlan::new(9).deny_allocate(0.5));
        for i in 0..10 {
            inj.clock(i);
            if let Some(t) = inj.prepare_allocate(OsmId(0), TokenIdent::ANY) {
                inj.abort_allocate(OsmId(0), t);
            }
        }
        let snap = inj.snapshot_state().unwrap();
        let tail = |inj: &mut FaultInjector| {
            (10..26)
                .map(|cycle| {
                    inj.clock(cycle);
                    match inj.prepare_allocate(OsmId(0), TokenIdent::ANY) {
                        Some(t) => {
                            inj.abort_allocate(OsmId(0), t);
                            true
                        }
                        None => false,
                    }
                })
                .collect::<Vec<bool>>()
        };
        let first = tail(&mut inj);
        assert!(inj.restore_state(&snap));
        assert_eq!(first, tail(&mut inj));
        assert!(first.iter().any(|g| *g) && first.iter().any(|g| !*g));
    }
}
