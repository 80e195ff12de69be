//! Register renaming and result-broadcast token managers.
//!
//! The PPC 750 keeps architectural register files plus rename buffers; the
//! paper models them as TMI-enabled modules (§5.2). Two managers cooperate:
//!
//! * [`RenameFile`] — the rename map. Each architectural register carries a
//!   stack of in-flight writes (bounded by the rename-buffer counting
//!   pools). Dispatch-time *value inquiries* succeed when the newest write
//!   is complete (result sits in a rename buffer) or no write is in flight.
//! * [`ResultBus`] — completion broadcasting by *operation sequence number*.
//!   An operation parked in a reservation station captured the sequence
//!   numbers of its unready producers at dispatch; its issue edge inquires
//!   this manager until those producers have broadcast.

use osm_core::{ByteReader, ByteWriter, ManagerSnapshot, OsmId, Token, TokenIdent, TokenManager};
use std::any::Any;
use std::collections::BTreeSet;
use std::collections::VecDeque;

/// Kind byte of [`RenameFile`] checkpoint sections (rename **m**ap).
const KIND_RENAME_FILE: u8 = b'M';
/// Kind byte of [`ResultBus`] checkpoint sections.
const KIND_RESULT_BUS: u8 = b'B';

/// One in-flight write to an architectural register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WriteEntry {
    osm: OsmId,
    seq: u64,
    ready: bool,
}

/// The rename map manager.
#[derive(Debug)]
pub struct RenameFile {
    name: String,
    writes: Vec<VecDeque<WriteEntry>>,
}

impl RenameFile {
    /// Creates a rename map over `nregs` (flat-indexed) registers.
    pub fn new(name: impl Into<String>, nregs: usize) -> Self {
        RenameFile {
            name: name.into(),
            writes: (0..nregs).map(|_| VecDeque::new()).collect(),
        }
    }

    /// Value-token identifier of register `r` (for dispatch inquiries).
    pub fn value_ident(r: usize) -> TokenIdent {
        TokenIdent(r as u64)
    }

    /// Records a new in-flight write at dispatch (program order).
    pub fn begin_write(&mut self, r: usize, osm: OsmId, seq: u64) {
        self.writes[r].push_back(WriteEntry {
            osm,
            seq,
            ready: false,
        });
    }

    /// Marks the in-flight write `seq` to `r` complete (result available in
    /// a rename buffer and on the bypass).
    pub fn complete_write(&mut self, r: usize, seq: u64) {
        if let Some(e) = self.writes[r].iter_mut().find(|e| e.seq == seq) {
            e.ready = true;
        }
    }

    /// Retires the *oldest* in-flight write (result moves to the
    /// architectural file, the rename buffer frees).
    pub fn retire_write(&mut self, r: usize, seq: u64) {
        debug_assert_eq!(self.writes[r].front().map(|e| e.seq), Some(seq));
        self.writes[r].pop_front();
    }

    /// Removes a squashed (wrong-path) write.
    pub fn abort_write(&mut self, r: usize, seq: u64) {
        self.writes[r].retain(|e| e.seq != seq);
    }

    /// The newest unready producer of `r`, if any — what a dispatching
    /// consumer must wait for.
    pub fn pending_producer(&self, r: usize) -> Option<u64> {
        self.writes[r].back().filter(|e| !e.ready).map(|e| e.seq)
    }

    /// Number of in-flight writes to `r`.
    pub fn depth(&self, r: usize) -> usize {
        self.writes[r].len()
    }
}

impl TokenManager for RenameFile {
    fn name(&self) -> &str {
        &self.name
    }

    fn prepare_allocate(&mut self, _osm: OsmId, _ident: TokenIdent) -> Option<Token> {
        None // rename buffer capacity is modeled by counting pools
    }

    fn inquire(&self, osm: OsmId, ident: TokenIdent) -> bool {
        let r = ident.0 as usize;
        match self.writes.get(r).and_then(|w| w.back()) {
            None => true,
            Some(e) => e.ready || e.osm == osm,
        }
    }

    fn prepare_release(&mut self, _osm: OsmId, _token: Token) -> bool {
        false
    }

    fn commit_allocate(&mut self, _osm: OsmId, _token: Token) {}
    fn abort_allocate(&mut self, _osm: OsmId, _token: Token) {}
    fn commit_release(&mut self, _osm: OsmId, _token: Token) {}
    fn abort_release(&mut self, _osm: OsmId, _token: Token) {}
    fn discard(&mut self, _osm: OsmId, _token: Token) {}

    fn owner_of(&self, ident: TokenIdent) -> Option<OsmId> {
        self.writes
            .get(ident.0 as usize)
            .and_then(|w| w.back())
            .map(|e| e.osm)
    }

    fn snapshot_state(&self) -> Option<ManagerSnapshot> {
        let mut w = ByteWriter::new();
        w.put_u8(KIND_RENAME_FILE);
        w.put_seq(&self.writes, |w, stack| {
            w.put_seq(stack, |w, e| {
                w.put_u32(e.osm.0);
                w.put_u64(e.seq);
                w.put_bool(e.ready);
            });
        });
        Some(ManagerSnapshot::new(w.into_bytes()))
    }

    fn restore_state(&mut self, snap: &ManagerSnapshot) -> bool {
        let parsed = ByteReader::read_all(snap.as_bytes(), |r| {
            r.expect_u8(KIND_RENAME_FILE)?;
            let writes = r.take_vec(|r| {
                let stack = r.take_vec(|r| {
                    Some(WriteEntry {
                        osm: OsmId(r.take_u32()?),
                        seq: r.take_u64()?,
                        ready: r.take_bool()?,
                    })
                })?;
                Some(VecDeque::from(stack))
            })?;
            (writes.len() == self.writes.len()).then_some(writes)
        });
        let Some(writes) = parsed else {
            return false;
        };
        self.writes = writes;
        true
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The completion/result-broadcast manager.
#[derive(Debug)]
pub struct ResultBus {
    name: String,
    /// All sequence numbers below this are architecturally complete.
    floor: u64,
    done: BTreeSet<u64>,
}

impl ResultBus {
    /// Creates an empty bus.
    pub fn new(name: impl Into<String>) -> Self {
        ResultBus {
            name: name.into(),
            floor: 0,
            done: BTreeSet::new(),
        }
    }

    /// Identifier for waiting on producer `seq`.
    pub fn seq_ident(seq: u64) -> TokenIdent {
        TokenIdent(seq)
    }

    /// Broadcasts completion of `seq`.
    pub fn complete(&mut self, seq: u64) {
        self.done.insert(seq);
    }

    /// Raises the floor after in-order retirement up to (excluding) `seq`.
    pub fn retire_up_to(&mut self, seq: u64) {
        self.floor = self.floor.max(seq);
        let keep = self.done.split_off(&seq);
        self.done = keep;
    }

    /// Drops broadcasts above `seq` (squash: their numbers will be reused).
    pub fn squash_above(&mut self, seq: u64) {
        self.done = self.done.iter().copied().filter(|&s| s <= seq).collect();
    }

    /// True if `seq`'s result is available.
    pub fn is_done(&self, seq: u64) -> bool {
        seq < self.floor || self.done.contains(&seq)
    }
}

impl TokenManager for ResultBus {
    fn name(&self) -> &str {
        &self.name
    }

    fn prepare_allocate(&mut self, _osm: OsmId, _ident: TokenIdent) -> Option<Token> {
        None
    }

    fn inquire(&self, _osm: OsmId, ident: TokenIdent) -> bool {
        self.is_done(ident.0)
    }

    fn prepare_release(&mut self, _osm: OsmId, _token: Token) -> bool {
        false
    }

    fn commit_allocate(&mut self, _osm: OsmId, _token: Token) {}
    fn abort_allocate(&mut self, _osm: OsmId, _token: Token) {}
    fn commit_release(&mut self, _osm: OsmId, _token: Token) {}
    fn abort_release(&mut self, _osm: OsmId, _token: Token) {}
    fn discard(&mut self, _osm: OsmId, _token: Token) {}

    fn snapshot_state(&self) -> Option<ManagerSnapshot> {
        let mut w = ByteWriter::new();
        w.put_u8(KIND_RESULT_BUS);
        w.put_u64(self.floor);
        w.put_seq(&self.done, |w, &seq| w.put_u64(seq));
        Some(ManagerSnapshot::new(w.into_bytes()))
    }

    fn restore_state(&mut self, snap: &ManagerSnapshot) -> bool {
        let parsed = ByteReader::read_all(snap.as_bytes(), |r| {
            r.expect_u8(KIND_RESULT_BUS)?;
            Some((r.take_u64()?, r.take_vec(ByteReader::take_u64)?))
        });
        let Some((floor, done)) = parsed else {
            return false;
        };
        self.floor = floor;
        self.done = done.into_iter().collect();
        true
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rename_stack_tracks_newest_writer() {
        let mut rf = RenameFile::new("gpr", 8);
        assert!(rf.inquire(OsmId(9), RenameFile::value_ident(3)));
        rf.begin_write(3, OsmId(1), 10);
        assert!(!rf.inquire(OsmId(9), RenameFile::value_ident(3)));
        assert_eq!(rf.pending_producer(3), Some(10));
        // A second (newer) writer renames over it.
        rf.begin_write(3, OsmId(2), 11);
        assert_eq!(rf.pending_producer(3), Some(11));
        rf.complete_write(3, 11);
        assert!(rf.inquire(OsmId(9), RenameFile::value_ident(3)));
        assert_eq!(rf.pending_producer(3), None);
        // In-order retirement pops the oldest.
        rf.retire_write(3, 10);
        assert_eq!(rf.depth(3), 1);
        rf.retire_write(3, 11);
        assert_eq!(rf.depth(3), 0);
    }

    #[test]
    fn rename_own_write_does_not_block_self() {
        let mut rf = RenameFile::new("gpr", 8);
        rf.begin_write(2, OsmId(5), 1);
        assert!(rf.inquire(OsmId(5), RenameFile::value_ident(2)));
        assert!(!rf.inquire(OsmId(6), RenameFile::value_ident(2)));
    }

    #[test]
    fn rename_abort_removes_phantom_write() {
        let mut rf = RenameFile::new("gpr", 8);
        rf.begin_write(1, OsmId(1), 5);
        rf.begin_write(1, OsmId(2), 6); // phantom
        rf.abort_write(1, 6);
        assert_eq!(rf.pending_producer(1), Some(5));
        rf.complete_write(1, 5);
        assert!(rf.inquire(OsmId(9), RenameFile::value_ident(1)));
    }

    #[test]
    fn result_bus_floor_and_broadcasts() {
        let mut bus = ResultBus::new("bus");
        assert!(!bus.is_done(4));
        bus.complete(4);
        assert!(bus.is_done(4));
        bus.retire_up_to(5);
        assert!(bus.is_done(4)); // below floor
        assert!(!bus.is_done(6));
        bus.complete(7);
        bus.squash_above(6);
        assert!(!bus.is_done(7));
    }

    #[test]
    fn result_bus_inquire_matches_is_done() {
        let mut bus = ResultBus::new("bus");
        bus.complete(3);
        assert!(bus.inquire(OsmId(0), ResultBus::seq_ident(3)));
        assert!(!bus.inquire(OsmId(0), ResultBus::seq_ident(9)));
    }

    #[test]
    fn rename_snapshot_roundtrip() {
        let mut rf = RenameFile::new("gpr", 8);
        rf.begin_write(3, OsmId(1), 10);
        rf.begin_write(3, OsmId(2), 11);
        rf.complete_write(3, 11);
        rf.begin_write(5, OsmId(4), 12);
        let snap = rf.snapshot_state().unwrap();
        rf.retire_write(3, 10);
        rf.abort_write(3, 11);
        assert_eq!(rf.depth(3), 0);
        assert!(rf.restore_state(&snap));
        assert_eq!(rf.depth(3), 2);
        assert_eq!(rf.pending_producer(3), None); // 11 was complete
        let mut fresh = RenameFile::new("gpr", 8);
        assert!(fresh.restore_state(&snap));
        assert_eq!(fresh.depth(5), 1);
        assert_eq!(fresh.pending_producer(5), Some(12));
        // Wrong register count, truncation and a wrong kind byte are refused.
        let mut other = RenameFile::new("gpr", 4);
        assert!(!other.restore_state(&snap));
        let bytes = snap.as_bytes();
        assert!(!rf.restore_state(&ManagerSnapshot::new(bytes[..bytes.len() - 1].to_vec())));
        let mut wrong = bytes.to_vec();
        wrong[0] = KIND_RESULT_BUS;
        assert!(!rf.restore_state(&ManagerSnapshot::new(wrong)));
        assert_eq!(rf.depth(3), 2);
    }

    #[test]
    fn result_bus_snapshot_roundtrip() {
        let mut bus = ResultBus::new("bus");
        bus.complete(4);
        bus.complete(9);
        bus.retire_up_to(3);
        let snap = bus.snapshot_state().unwrap();
        bus.complete(7);
        bus.retire_up_to(8);
        assert!(bus.restore_state(&snap));
        assert!(bus.is_done(2)); // below restored floor
        assert!(bus.is_done(4));
        assert!(bus.is_done(9));
        assert!(!bus.is_done(7));
        let mut fresh = ResultBus::new("bus");
        assert!(fresh.restore_state(&snap));
        assert!(fresh.is_done(9));
        // Truncation and a foreign section are refused.
        let bytes = snap.as_bytes();
        assert!(!bus.restore_state(&ManagerSnapshot::new(bytes[..bytes.len() - 1].to_vec())));
        assert!(!bus.restore_state(&ManagerSnapshot::new(vec![0])));
    }
}
