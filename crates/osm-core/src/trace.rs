//! The transition trace: a running digest of every committed transition,
//! the value model validation and determinism tests compare. The list of
//! transitions itself is kept in one place, the event log
//! ([`crate::EventLog::transitions`]).

use crate::ids::{EdgeId, OsmId, StateId};
use crate::persist::{trace_mix, FNV_OFFSET};

/// One committed state transition, as folded into a [`Trace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Control step at which the transition committed.
    pub cycle: u64,
    /// The transitioning OSM.
    pub osm: OsmId,
    /// The committed edge.
    pub edge: EdgeId,
    /// Source state.
    pub from: StateId,
    /// Destination state.
    pub to: StateId,
}

/// The digest of a machine run's committed transitions: how many there
/// were and a running hash over all of them, in O(1) memory.
///
/// The order of events within one control step reflects the director's
/// (deterministic) scheduling order, so two traces with equal digests imply
/// behaviourally identical runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Events ever pushed.
    total: u64,
    /// Running FNV-1a over every pushed event.
    hash: u64,
}

impl Trace {
    /// Creates an empty trace.
    pub fn digest_only() -> Self {
        Self::digest_only_resumed(FNV_OFFSET, 0)
    }

    /// Creates a trace that *continues* an earlier one: `total` events
    /// have already been folded into running digest `hash` (both read off
    /// the earlier trace via [`Trace::digest`] and [`Trace::total`]). A run
    /// restored from an on-disk checkpoint seeds its trace this way so the
    /// continuation's final digest equals an uninterrupted run's.
    pub fn digest_only_resumed(hash: u64, total: u64) -> Self {
        Trace { total, hash }
    }

    /// Folds an event into the running digest.
    pub fn push(&mut self, ev: TraceEvent) {
        self.total += 1;
        let mut h = self.hash;
        for v in [
            ev.cycle,
            ev.osm.0 as u64,
            ev.edge.0 as u64,
            ev.from.0 as u64,
            ev.to.0 as u64,
        ] {
            h = trace_mix(h, v.to_le_bytes());
        }
        self.hash = h;
    }

    /// Total number of events folded in.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// FNV-1a-style digest over every pushed event
    /// ([`crate::persist::trace_mix`], not the standard FNV prime); equal
    /// digests mean equal event streams (up to hash collision), handy for
    /// determinism property tests.
    pub fn digest(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cycle: u64, osm: u32) -> TraceEvent {
        TraceEvent {
            cycle,
            osm: OsmId(osm),
            edge: EdgeId(0),
            from: StateId(0),
            to: StateId(1),
        }
    }

    #[test]
    fn digest_distinguishes_traces() {
        let mut a = Trace::digest_only();
        a.push(ev(0, 0));
        let mut b = Trace::digest_only();
        b.push(ev(0, 1));
        assert_ne!(a.digest(), b.digest());
        let mut c = Trace::digest_only();
        c.push(ev(0, 0));
        assert_eq!(a.digest(), c.digest());
        assert_ne!(Trace::digest_only().digest(), a.digest());
    }

    #[test]
    fn resumed_digest_continues_mid_stream() {
        let mut full = Trace::digest_only();
        for c in 0..6 {
            full.push(ev(c, 1));
        }
        let mut head = Trace::digest_only();
        for c in 0..3 {
            head.push(ev(c, 1));
        }
        let mut tail = Trace::digest_only_resumed(head.digest(), head.total());
        for c in 3..6 {
            tail.push(ev(c, 1));
        }
        assert_eq!(tail.digest(), full.digest());
        assert_eq!(tail.total(), full.total());
    }
}
