//! A transparent timing decorator for token managers.
//!
//! Installed with the public [`ManagerTable::wrap`], it counts and times
//! every token-manager-interface primitive the director issues and
//! delegates everything else unchanged: the clock hook with its dirty bit,
//! `owner_of`, the snapshot hooks, and `as_any`/`as_any_mut` (so hardware
//! layers that downcast their managers keep working, as with
//! `FaultInjector`). The traced pass checks transparency: its trace digest
//! must equal the untraced oracle's.
//!
//! Counters live in the decorator and are folded into a shared [`TmiSink`]
//! when the machine drops its managers.

use osm_core::{
    CountingPool, ExclusivePool, ManagerId, ManagerSnapshot, ManagerTable, OsmId, RegScoreboard,
    ResetManager, Token, TokenIdent, TokenManager,
};
use std::any::Any;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Manager kinds reported separately, in report order.
pub const KINDS: [&str; 7] = [
    "ExclusivePool",
    "CountingPool",
    "RegScoreboard",
    "ResetManager",
    "RegForwardFile",
    "RenameFile",
    "ResultBus",
];

/// The kind name of a manager, found by downcasting its `as_any()`.
fn kind_of(manager: &dyn TokenManager) -> &'static str {
    let any = manager.as_any();
    if any.is::<ExclusivePool>() {
        "ExclusivePool"
    } else if any.is::<CountingPool>() {
        "CountingPool"
    } else if any.is::<RegScoreboard>() {
        "RegScoreboard"
    } else if any.is::<ResetManager>() {
        "ResetManager"
    } else if any.is::<sa1100::RegForwardFile>() {
        "RegForwardFile"
    } else if any.is::<ppc750::RenameFile>() {
        "RenameFile"
    } else if any.is::<ppc750::ResultBus>() {
        "ResultBus"
    } else {
        "Other"
    }
}

/// Totals for one manager kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindTotals {
    /// Primitive calls (prepare, commit, abort, inquire, discard).
    pub calls: u64,
    /// Time inside those calls, with the calibrated timer cost removed.
    pub ns: u64,
    /// Calls that decide something: `prepare_allocate`, `inquire` and
    /// `prepare_release`.
    pub decisions: u64,
    /// Decisions that said no.
    pub denials: u64,
}

impl KindTotals {
    fn add(&mut self, other: &KindTotals) {
        self.calls += other.calls;
        self.ns += other.ns;
        self.decisions += other.decisions;
        self.denials += other.denials;
    }
}

/// Where decorators deposit their counters, by kind.
pub type TmiSink = Arc<Mutex<BTreeMap<&'static str, KindTotals>>>;

/// Wraps every manager of `table` in a timing decorator reporting to
/// `sink`. `timer_ns` is the calibrated cost of one timer read, removed
/// from every timed call.
pub fn instrument(table: &mut ManagerTable, sink: &TmiSink, timer_ns: u64) {
    for index in 0..table.len() {
        let id = ManagerId(u32::try_from(index).expect("manager ids are u32"));
        table.wrap(id, |inner| {
            Box::new(Timed {
                kind: kind_of(inner.as_ref()),
                inner,
                totals: Cell::default(),
                timer_ns,
                sink: Arc::clone(sink),
            })
        });
    }
}

struct Timed {
    inner: Box<dyn TokenManager>,
    kind: &'static str,
    // `inquire` takes `&self`, hence a cell.
    totals: Cell<KindTotals>,
    timer_ns: u64,
    sink: TmiSink,
}

impl Timed {
    /// Counts one primitive call that started at `start`.
    #[inline]
    fn charge(&self, start: Instant) {
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let mut t = self.totals.get();
        t.calls += 1;
        t.ns += ns.saturating_sub(self.timer_ns);
        self.totals.set(t);
    }

    #[inline]
    fn decided(&self, granted: bool) {
        let mut t = self.totals.get();
        t.decisions += 1;
        t.denials += u64::from(!granted);
        self.totals.set(t);
    }
}

impl Drop for Timed {
    fn drop(&mut self) {
        // Never panic in drop: a poisoned sink only means another thread
        // panicked mid-update of plain counters.
        let mut sink = self.sink.lock().unwrap_or_else(|p| p.into_inner());
        sink.entry(self.kind).or_default().add(&self.totals.get());
    }
}

impl TokenManager for Timed {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn attach(&mut self, id: ManagerId) {
        self.inner.attach(id);
    }

    fn prepare_allocate(&mut self, osm: OsmId, ident: TokenIdent) -> Option<Token> {
        let start = Instant::now();
        let r = self.inner.prepare_allocate(osm, ident);
        self.charge(start);
        self.decided(r.is_some());
        r
    }

    fn inquire(&self, osm: OsmId, ident: TokenIdent) -> bool {
        let start = Instant::now();
        let r = self.inner.inquire(osm, ident);
        self.charge(start);
        self.decided(r);
        r
    }

    fn prepare_release(&mut self, osm: OsmId, token: Token) -> bool {
        let start = Instant::now();
        let r = self.inner.prepare_release(osm, token);
        self.charge(start);
        self.decided(r);
        r
    }

    fn commit_allocate(&mut self, osm: OsmId, token: Token) {
        let start = Instant::now();
        self.inner.commit_allocate(osm, token);
        self.charge(start);
    }

    fn abort_allocate(&mut self, osm: OsmId, token: Token) {
        let start = Instant::now();
        self.inner.abort_allocate(osm, token);
        self.charge(start);
    }

    fn commit_release(&mut self, osm: OsmId, token: Token) {
        let start = Instant::now();
        self.inner.commit_release(osm, token);
        self.charge(start);
    }

    fn abort_release(&mut self, osm: OsmId, token: Token) {
        let start = Instant::now();
        self.inner.abort_release(osm, token);
        self.charge(start);
    }

    fn discard(&mut self, osm: OsmId, token: Token) {
        let start = Instant::now();
        self.inner.discard(osm, token);
        self.charge(start);
    }

    fn owner_of(&self, ident: TokenIdent) -> Option<OsmId> {
        self.inner.owner_of(ident)
    }

    fn clock(&mut self, cycle: u64) -> bool {
        self.inner.clock(cycle)
    }

    fn owned_tokens(&self) -> Option<Vec<(Token, OsmId)>> {
        self.inner.owned_tokens()
    }

    fn snapshot_state(&self) -> Option<ManagerSnapshot> {
        self.inner.snapshot_state()
    }

    fn restore_state(&mut self, snap: &ManagerSnapshot) -> bool {
        self.inner.restore_state(snap)
    }

    fn encode_snapshot(&self, snap: &ManagerSnapshot) -> Option<Vec<u8>> {
        self.inner.encode_snapshot(snap)
    }

    fn decode_snapshot(&self, bytes: &[u8]) -> Option<ManagerSnapshot> {
        self.inner.decode_snapshot(bytes)
    }

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
    use osm_core::{IdentExpr, InertBehavior, Machine, SpecBuilder, Trace};

    fn pool_machine(timed: Option<&TmiSink>) -> Machine<()> {
        let mut m: Machine<()> = Machine::new(());
        let unit = m.add_manager(ExclusivePool::new("unit", 1));
        let mut b = SpecBuilder::new("op");
        let i = b.state("I");
        let h = b.state("H");
        b.initial(i);
        b.edge(i, h).allocate(unit, IdentExpr::Const(0));
        b.edge(h, i).release(unit, IdentExpr::AnyHeld);
        let spec = b.build().expect("valid spec");
        for _ in 0..3 {
            m.add_osm(&spec, InertBehavior);
        }
        if let Some(sink) = timed {
            instrument(&mut m.managers, sink, 0);
        }
        m.enable_trace_with(Trace::digest_only());
        m
    }

    #[test]
    fn decorator_is_transparent_and_counts_denials() {
        let mut plain = pool_machine(None);
        plain.run(50).expect("runs");
        let sink = TmiSink::default();
        let mut timed = pool_machine(Some(&sink));
        timed.run(50).expect("runs");
        assert_eq!(plain.trace_digest(), timed.trace_digest());
        // Downcasts still reach the wrapped pool.
        assert_eq!(
            timed
                .managers
                .downcast::<ExclusivePool>(ManagerId(0))
                .capacity(),
            1
        );
        drop(timed);
        let totals = sink.lock().expect("unpoisoned")["ExclusivePool"];
        assert!(totals.calls >= totals.decisions && totals.decisions > 0);
        assert!(totals.denials > 0, "three OSMs contend for one unit");
    }
}
