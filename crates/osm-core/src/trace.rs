//! Transition tracing, used for model validation and determinism tests.

use crate::ids::{EdgeId, OsmId, StateId};
use crate::persist::{trace_mix, FNV_OFFSET};
use std::fmt;

/// One committed state transition.
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

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "@{} {} {}: {} -> {}",
            self.cycle, self.osm, self.edge, self.from, self.to
        )
    }
}

/// What a [`Trace`] retains of the events pushed into it.
///
/// The digest covers *every* pushed event in both modes (it is maintained
/// incrementally), so determinism tests comparing [`Trace::digest`] work
/// identically whether the run kept its events or not.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceMode {
    /// Keep every event (O(run-length) memory).
    #[default]
    Full,
    /// Keep no events, only the running digest and count.
    DigestOnly,
}

/// An ordered record of every committed transition of a machine run.
///
/// The order of events within one control step reflects the director's
/// (deterministic) scheduling order, so two traces with equal digests imply
/// behaviourally identical runs.
///
/// By default all events are retained; [`Trace::digest_only`] keeps none
/// but maintains the same running [`Trace::digest`] as a full trace of the
/// same run, so long-run determinism checks need O(1) memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    events: Vec<TraceEvent>,
    mode: TraceMode,
    /// Events ever pushed (retained or not).
    total: u64,
    /// Running FNV-1a over every pushed event.
    hash: u64,
}

impl Default for Trace {
    fn default() -> Self {
        Self::with_mode(TraceMode::Full)
    }
}

impl Trace {
    /// Creates an empty trace retaining every event.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty trace with the given retention mode.
    pub fn with_mode(mode: TraceMode) -> Self {
        Trace {
            events: Vec::new(),
            mode,
            total: 0,
            hash: FNV_OFFSET,
        }
    }

    /// Creates an empty digest-only trace (no events retained).
    pub fn digest_only() -> Self {
        Self::with_mode(TraceMode::DigestOnly)
    }

    /// Creates a digest-only trace that *continues* an earlier trace:
    /// `total` events have already been folded into running digest `hash`
    /// (both read off the earlier trace via [`Trace::digest`] and
    /// [`Trace::total`]). A run restored from an on-disk checkpoint seeds
    /// its trace this way so the continuation's final digest equals an
    /// uninterrupted run's.
    pub fn digest_only_resumed(hash: u64, total: u64) -> Self {
        Trace {
            events: Vec::new(),
            mode: TraceMode::DigestOnly,
            total,
            hash,
        }
    }

    /// The retention mode.
    pub fn mode(&self) -> TraceMode {
        self.mode
    }

    /// Appends an event (folding it into the running digest).
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
        if self.mode == TraceMode::Full {
            self.events.push(ev);
        }
    }

    /// Retained events in commit order. In [`TraceMode::DigestOnly`] this
    /// is always empty.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if no events are retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total number of events ever recorded (retained or not).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// FNV-1a-style digest over the *full* pushed event stream (independent
    /// of the retention mode; [`crate::persist::trace_mix`], not the
    /// standard FNV prime);
    /// equal digests mean equal traces (up to hash collision), handy for
    /// determinism property tests.
    pub fn digest(&self) -> u64 {
        self.hash
    }

    /// Retained events of one control step.
    pub fn step(&self, cycle: u64) -> impl Iterator<Item = &TraceEvent> {
        self.events().filter(move |e| e.cycle == cycle)
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for e in self.events() {
            writeln!(f, "{e}")?;
        }
        Ok(())
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
        let mut a = Trace::new();
        a.push(ev(0, 0));
        let mut b = Trace::new();
        b.push(ev(0, 1));
        assert_ne!(a.digest(), b.digest());
        let mut c = Trace::new();
        c.push(ev(0, 0));
        assert_eq!(a.digest(), c.digest());
        assert_ne!(Trace::new().digest(), a.digest());
    }

    #[test]
    fn step_filters_by_cycle() {
        let mut t = Trace::new();
        t.push(ev(0, 0));
        t.push(ev(1, 1));
        t.push(ev(1, 2));
        assert_eq!(t.step(1).count(), 2);
        assert_eq!(t.step(0).count(), 1);
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
    }

    #[test]
    fn display_one_line_per_event() {
        let mut t = Trace::new();
        t.push(ev(3, 7));
        assert_eq!(t.to_string(), "@3 osm7 e0: s0 -> s1\n");
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

    #[test]
    fn digest_only_mode_retains_nothing_but_digests_everything() {
        let mut full = Trace::new();
        let mut d = Trace::digest_only();
        for c in 0..5 {
            full.push(ev(c, 1));
            d.push(ev(c, 1));
        }
        assert!(d.is_empty());
        assert_eq!(d.len(), 0);
        assert_eq!(d.total(), 5);
        assert_eq!(d.digest(), full.digest());
        assert_eq!(d.mode(), TraceMode::DigestOnly);
    }
}
