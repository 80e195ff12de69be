//! The combined register file + forwarding network token manager.
//!
//! The paper's StrongARM model implements "the combined register file and
//! forwarding paths module" as one TMI (§5.1). Each register exposes
//!
//! * a **register-update token**: allocated by a writer at issue (D→E),
//!   released at write-back (W) — its exclusivity resolves WAW hazards;
//! * a **value token**: inquired by readers. The inquiry succeeds when the
//!   register has no in-flight writer, *or* — with forwarding enabled — when
//!   the in-flight writer has already computed its result (the writer's
//!   behavior calls [`RegForwardFile::mark_ready`] from its execute-stage
//!   commit action, modeling the bypass wires).
//!
//! Identifier space: flat register index `0..n` for value tokens; the same
//! index with [`UPDATE_BIT`] set for update tokens (see
//! [`RegForwardFile::value_ident`] / [`RegForwardFile::update_ident`]).

use osm_core::{
    ByteReader, ByteWriter, ManagerId, ManagerSnapshot, OsmId, Token, TokenIdent, TokenManager,
};
use std::any::Any;

/// Identifier bit distinguishing update tokens from value tokens.
pub const UPDATE_BIT: u64 = 1 << 32;

/// Kind byte leading this manager's checkpoint section, so a section
/// misrouted to a different manager kind is refused.
const KIND_FORWARD_FILE: u8 = b'W';

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WriterState {
    Free,
    Pending { osm: OsmId },
    Busy { osm: OsmId, ready: bool },
    Releasing { osm: OsmId, ready: bool },
}

/// The combined register-file/forwarding TMI.
#[derive(Debug)]
pub struct RegForwardFile {
    name: String,
    id: ManagerId,
    writers: Vec<WriterState>,
    forwarding: bool,
}

impl RegForwardFile {
    /// Creates a file of `nregs` registers; `forwarding` enables the bypass
    /// network (readers may proceed once the writer's result is computed).
    pub fn new(name: impl Into<String>, nregs: usize, forwarding: bool) -> Self {
        RegForwardFile {
            name: name.into(),
            id: ManagerId(u32::MAX),
            writers: vec![WriterState::Free; nregs],
            forwarding,
        }
    }

    /// Identifier of register `r`'s value token.
    pub fn value_ident(r: usize) -> TokenIdent {
        TokenIdent(r as u64)
    }

    /// Identifier of register `r`'s update token.
    pub fn update_ident(r: usize) -> TokenIdent {
        TokenIdent(r as u64 | UPDATE_BIT)
    }

    /// Marks register `r`'s in-flight result as computed (bypass available).
    /// Called by writer behaviors when their value becomes forwardable.
    pub fn mark_ready(&mut self, r: usize) {
        match &mut self.writers[r] {
            WriterState::Busy { ready, .. } | WriterState::Releasing { ready, .. } => {
                *ready = true;
            }
            _ => {}
        }
    }

    /// True if register `r` has an in-flight (committed) writer.
    pub fn is_busy(&self, r: usize) -> bool {
        !matches!(self.writers[r], WriterState::Free)
    }

    /// True if forwarding is enabled.
    pub fn forwarding(&self) -> bool {
        self.forwarding
    }

    fn split(ident: TokenIdent) -> Option<(bool, usize)> {
        if ident.is_none() || ident.is_any() {
            return None;
        }
        Some((ident.0 & UPDATE_BIT != 0, (ident.0 & !UPDATE_BIT) as usize))
    }
}

impl TokenManager for RegForwardFile {
    fn name(&self) -> &str {
        &self.name
    }

    fn attach(&mut self, id: ManagerId) {
        self.id = id;
    }

    fn prepare_allocate(&mut self, osm: OsmId, ident: TokenIdent) -> Option<Token> {
        let (update, r) = Self::split(ident)?;
        if !update || r >= self.writers.len() {
            return None;
        }
        if self.writers[r] == WriterState::Free {
            self.writers[r] = WriterState::Pending { osm };
            Some(Token::new(self.id, ident.0))
        } else {
            None
        }
    }

    fn inquire(&self, osm: OsmId, ident: TokenIdent) -> bool {
        let Some((update, r)) = Self::split(ident) else {
            return false;
        };
        if update || r >= self.writers.len() {
            return false; // update tokens are allocated, not inquired
        }
        match self.writers[r] {
            WriterState::Free => true,
            WriterState::Pending { osm: o }
            | WriterState::Busy { osm: o, .. }
            | WriterState::Releasing { osm: o, .. }
                if o == osm =>
            {
                // An operation never depends on its own update token.
                true
            }
            WriterState::Busy { ready, .. } | WriterState::Releasing { ready, .. } => {
                self.forwarding && ready
            }
            WriterState::Pending { .. } => false,
        }
    }

    fn prepare_release(&mut self, osm: OsmId, token: Token) -> bool {
        // Fully graceful on out-of-range registers: a fault injector may
        // hand an operation a corrupted token whose raw decodes past the
        // file; refusing (rather than panicking) turns that fault into an
        // observable stall.
        let Some((true, r)) = Self::split(TokenIdent(token.raw)) else {
            return false;
        };
        match self.writers.get(r) {
            Some(WriterState::Busy { osm: o, ready }) if *o == osm => {
                let ready = *ready;
                self.writers[r] = WriterState::Releasing { osm, ready };
                true
            }
            _ => false,
        }
    }

    fn commit_allocate(&mut self, osm: OsmId, token: Token) {
        if let Some((true, r)) = Self::split(TokenIdent(token.raw)) {
            let Some(slot) = self.writers.get_mut(r) else {
                debug_assert!(false, "commit_allocate of foreign token r{r}");
                return;
            };
            debug_assert_eq!(*slot, WriterState::Pending { osm });
            *slot = WriterState::Busy { osm, ready: false };
        }
    }

    fn abort_allocate(&mut self, osm: OsmId, token: Token) {
        if let Some((true, r)) = Self::split(TokenIdent(token.raw)) {
            let Some(slot) = self.writers.get_mut(r) else {
                debug_assert!(false, "abort_allocate of foreign token r{r}");
                return;
            };
            debug_assert_eq!(*slot, WriterState::Pending { osm });
            *slot = WriterState::Free;
        }
    }

    fn commit_release(&mut self, _osm: OsmId, token: Token) {
        if let Some((true, r)) = Self::split(TokenIdent(token.raw)) {
            let Some(slot) = self.writers.get_mut(r) else {
                debug_assert!(false, "commit_release of foreign token r{r}");
                return;
            };
            *slot = WriterState::Free;
        }
    }

    fn abort_release(&mut self, osm: OsmId, token: Token) {
        if let Some((true, r)) = Self::split(TokenIdent(token.raw)) {
            let Some(slot) = self.writers.get_mut(r) else {
                debug_assert!(false, "abort_release of foreign token r{r}");
                return;
            };
            if let WriterState::Releasing { ready, .. } = *slot {
                *slot = WriterState::Busy { osm, ready };
            }
        }
    }

    fn discard(&mut self, _osm: OsmId, token: Token) {
        // Graceful like `prepare_release`: squashing an operation that holds
        // a corrupted token must not bring the simulator down.
        if let Some((true, r)) = Self::split(TokenIdent(token.raw)) {
            if let Some(slot) = self.writers.get_mut(r) {
                *slot = WriterState::Free;
            }
        }
    }

    fn owner_of(&self, ident: TokenIdent) -> Option<OsmId> {
        let (_, r) = Self::split(ident)?;
        match self.writers.get(r)? {
            WriterState::Free => None,
            WriterState::Pending { osm }
            | WriterState::Busy { osm, .. }
            | WriterState::Releasing { osm, .. } => Some(*osm),
        }
    }

    /// The section carries the forwarding flag, so a restore onto a
    /// differently configured file is refused instead of silently changing
    /// hazard semantics.
    fn snapshot_state(&self) -> Option<ManagerSnapshot> {
        let mut w = ByteWriter::new();
        w.put_u8(KIND_FORWARD_FILE);
        w.put_bool(self.forwarding);
        w.put_seq(&self.writers, |w, writer| match *writer {
            WriterState::Free => w.put_u8(0),
            WriterState::Pending { osm } => {
                w.put_u8(1);
                w.put_u32(osm.0);
            }
            WriterState::Busy { osm, ready } => {
                w.put_u8(2);
                w.put_u32(osm.0);
                w.put_bool(ready);
            }
            WriterState::Releasing { osm, ready } => {
                w.put_u8(3);
                w.put_u32(osm.0);
                w.put_bool(ready);
            }
        });
        Some(ManagerSnapshot::new(w.into_bytes()))
    }

    fn restore_state(&mut self, snap: &ManagerSnapshot) -> bool {
        let parsed = ByteReader::read_all(snap.as_bytes(), |r| {
            r.expect_u8(KIND_FORWARD_FILE)?;
            let forwarding = r.take_bool()?;
            let writers = r.take_vec(|r| {
                Some(match r.take_u8()? {
                    0 => WriterState::Free,
                    1 => WriterState::Pending {
                        osm: OsmId(r.take_u32()?),
                    },
                    2 => WriterState::Busy {
                        osm: OsmId(r.take_u32()?),
                        ready: r.take_bool()?,
                    },
                    3 => WriterState::Releasing {
                        osm: OsmId(r.take_u32()?),
                        ready: r.take_bool()?,
                    },
                    _ => return None,
                })
            })?;
            (forwarding == self.forwarding && writers.len() == self.writers.len())
                .then_some(writers)
        });
        let Some(writers) = parsed else {
            return false;
        };
        self.writers = writers;
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

    fn file(forwarding: bool) -> RegForwardFile {
        let mut f = RegForwardFile::new("rf", 8, forwarding);
        f.attach(ManagerId(0));
        f
    }

    #[test]
    fn reader_blocks_until_release_without_forwarding() {
        let mut f = file(false);
        let w = OsmId(1);
        let t = f.prepare_allocate(w, RegForwardFile::update_ident(3)).unwrap();
        f.commit_allocate(w, t);
        assert!(!f.inquire(OsmId(2), RegForwardFile::value_ident(3)));
        f.mark_ready(3);
        // No forwarding: still blocked.
        assert!(!f.inquire(OsmId(2), RegForwardFile::value_ident(3)));
        assert!(f.prepare_release(w, t));
        f.commit_release(w, t);
        assert!(f.inquire(OsmId(2), RegForwardFile::value_ident(3)));
    }

    #[test]
    fn forwarding_unblocks_at_ready() {
        let mut f = file(true);
        let w = OsmId(1);
        let t = f.prepare_allocate(w, RegForwardFile::update_ident(3)).unwrap();
        f.commit_allocate(w, t);
        assert!(!f.inquire(OsmId(2), RegForwardFile::value_ident(3)));
        f.mark_ready(3);
        assert!(f.inquire(OsmId(2), RegForwardFile::value_ident(3)));
    }

    #[test]
    fn own_writer_does_not_block_self() {
        let mut f = file(false);
        let w = OsmId(1);
        let t = f.prepare_allocate(w, RegForwardFile::update_ident(5)).unwrap();
        f.commit_allocate(w, t);
        assert!(f.inquire(w, RegForwardFile::value_ident(5)));
    }

    #[test]
    fn waw_blocked() {
        let mut f = file(true);
        let t = f.prepare_allocate(OsmId(1), RegForwardFile::update_ident(2)).unwrap();
        f.commit_allocate(OsmId(1), t);
        assert!(f.prepare_allocate(OsmId(2), RegForwardFile::update_ident(2)).is_none());
        assert_eq!(f.owner_of(RegForwardFile::update_ident(2)), Some(OsmId(1)));
    }

    #[test]
    fn discard_clears_writer_and_ready() {
        let mut f = file(true);
        let t = f.prepare_allocate(OsmId(1), RegForwardFile::update_ident(2)).unwrap();
        f.commit_allocate(OsmId(1), t);
        f.mark_ready(2);
        f.discard(OsmId(1), t);
        assert!(!f.is_busy(2));
        assert!(f.inquire(OsmId(9), RegForwardFile::value_ident(2)));
    }

    #[test]
    fn abort_release_preserves_ready_flag() {
        let mut f = file(true);
        let w = OsmId(1);
        let t = f.prepare_allocate(w, RegForwardFile::update_ident(0)).unwrap();
        f.commit_allocate(w, t);
        f.mark_ready(0);
        assert!(f.prepare_release(w, t));
        f.abort_release(w, t);
        assert!(f.inquire(OsmId(2), RegForwardFile::value_ident(0)));
    }

    #[test]
    fn update_tokens_cannot_be_inquired_and_values_not_allocated() {
        let mut f = file(true);
        assert!(!f.inquire(OsmId(1), RegForwardFile::update_ident(1)));
        assert!(f.prepare_allocate(OsmId(1), RegForwardFile::value_ident(1)).is_none());
    }

    #[test]
    fn damaged_raw_is_refused_not_panicking() {
        let mut f = file(true);
        // A corrupted raw decoding far past the register file.
        let bogus = Token::new(ManagerId(0), (1 << 63) | UPDATE_BIT | 999_999);
        assert!(!f.prepare_release(OsmId(1), bogus));
        f.discard(OsmId(1), bogus); // must be a no-op, not an OOB panic
        assert!(f.inquire(OsmId(1), RegForwardFile::value_ident(0)));
    }

    #[test]
    fn snapshot_round_trips_every_writer_state() {
        let mut f = file(true);
        let t1 = f.prepare_allocate(OsmId(1), RegForwardFile::update_ident(1)).unwrap();
        f.commit_allocate(OsmId(1), t1);
        f.mark_ready(1);
        let t2 = f.prepare_allocate(OsmId(2), RegForwardFile::update_ident(2)).unwrap();
        f.commit_allocate(OsmId(2), t2);
        assert!(f.prepare_release(OsmId(2), t2)); // Releasing{ready: false}
        let _pending = f.prepare_allocate(OsmId(3), RegForwardFile::update_ident(3)).unwrap();

        let snap = f.snapshot_state().unwrap();
        let mut g = file(true);
        assert!(g.restore_state(&snap));
        assert!(g.inquire(OsmId(9), RegForwardFile::value_ident(1))); // ready survived
        assert!(!g.inquire(OsmId(9), RegForwardFile::value_ident(2)));
        assert!(g.is_busy(3)); // pending writer survived

        // Damage is refused, leaving the file unchanged.
        let bytes = snap.as_bytes();
        assert!(!g.restore_state(&ManagerSnapshot::new(bytes[..bytes.len() - 1].to_vec())));
        let mut wrong_kind = bytes.to_vec();
        wrong_kind[0] = b'X';
        assert!(!g.restore_state(&ManagerSnapshot::new(wrong_kind)));
        assert!(g.is_busy(3));
    }

    #[test]
    fn snapshot_roundtrip_restores_writer_states() {
        let mut f = file(true);
        let w = OsmId(1);
        let t = f.prepare_allocate(w, RegForwardFile::update_ident(3)).unwrap();
        f.commit_allocate(w, t);
        f.mark_ready(3);
        let snap = f.snapshot_state().unwrap();
        f.commit_release(w, t);
        assert!(!f.is_busy(3));
        assert!(f.restore_state(&snap));
        assert!(f.is_busy(3));
        assert!(f.inquire(OsmId(2), RegForwardFile::value_ident(3))); // ready survived
        // Shape/config mismatches are refused.
        let mut other = RegForwardFile::new("rf2", 4, true);
        other.attach(ManagerId(1));
        assert!(!other.restore_state(&snap));
        let mut noforward = RegForwardFile::new("rf3", 8, false);
        noforward.attach(ManagerId(2));
        assert!(!noforward.restore_state(&snap));
    }
}
