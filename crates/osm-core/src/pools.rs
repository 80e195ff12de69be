//! Reusable token-manager implementations.
//!
//! The paper observes that "TMIs of the same nature are very much alike and
//! code reuse can be exploited to a great extent" (§4). These pools cover the
//! recurring shapes:
//!
//! * [`ExclusivePool`] — N exclusively-owned tokens (pipeline-stage occupancy,
//!   function units, queue entries), with per-token release blocking for the
//!   variable-latency idiom.
//! * [`CountingPool`] — K interchangeable tokens, optionally refilled every
//!   cycle (issue/dispatch bandwidth, ports).
//! * [`RegScoreboard`] — a register file exposing *value tokens* (inquire-only
//!   reads) and *register-update tokens* (exclusive write permissions), the
//!   paper's data-hazard idiom.
//! * [`ResetManager`] — accepts inquiries only from OSMs armed for reset,
//!   the paper's control-hazard idiom.

use crate::ids::{ManagerId, OsmId};
use crate::manager::{ManagerSnapshot, TokenManager};
use crate::persist::{ByteReader, ByteWriter};
use crate::token::{Token, TokenIdent};
use std::any::Any;

// Leading kind byte of each pool's checkpoint section, so a section routed
// to the wrong manager kind is refused.
const KIND_EXCLUSIVE: u8 = b'X';
const KIND_COUNTING: u8 = b'C';
const KIND_SCOREBOARD: u8 = b'S';
const KIND_RESET: u8 = b'R';

fn put_slot(w: &mut ByteWriter, slot: &SlotState) {
    match slot {
        SlotState::Free => w.put_u8(0),
        SlotState::Pending(o) => {
            w.put_u8(1);
            w.put_u32(o.0);
        }
        SlotState::Owned(o) => {
            w.put_u8(2);
            w.put_u32(o.0);
        }
        SlotState::Releasing(o) => {
            w.put_u8(3);
            w.put_u32(o.0);
        }
    }
}

fn take_slot(r: &mut ByteReader<'_>) -> Option<SlotState> {
    Some(match r.take_u8()? {
        0 => SlotState::Free,
        1 => SlotState::Pending(OsmId(r.take_u32()?)),
        2 => SlotState::Owned(OsmId(r.take_u32()?)),
        3 => SlotState::Releasing(OsmId(r.take_u32()?)),
        _ => return None,
    })
}

/// Ownership state of one token in an [`ExclusivePool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotState {
    Free,
    /// Tentatively granted during condition evaluation.
    Pending(OsmId),
    Owned(OsmId),
    /// Tentatively released during condition evaluation.
    Releasing(OsmId),
}

/// A pool of `n` exclusively-owned tokens.
///
/// Identifier `i` names token `i`; [`TokenIdent::ANY`] requests any free
/// token. Most structure resources of a microprocessor (stage occupancy,
/// function units, buffer entries) are exclusive and map onto this pool.
///
/// Variable latency (paper §4) is modeled by [`ExclusivePool::block_release`]:
/// while a token's release is blocked, its owner's release requests are
/// turned down and the owning operation stalls in place.
#[derive(Debug)]
pub struct ExclusivePool {
    name: String,
    id: ManagerId,
    slots: Vec<SlotState>,
    release_blocked: Vec<bool>,
}

impl ExclusivePool {
    /// Creates a pool named `name` with `capacity` tokens.
    pub fn new(name: impl Into<String>, capacity: usize) -> Self {
        ExclusivePool {
            name: name.into(),
            id: ManagerId(u32::MAX),
            slots: vec![SlotState::Free; capacity],
            release_blocked: vec![false; capacity],
        }
    }

    /// Total number of tokens.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Number of tokens currently free (not pending, owned or releasing).
    pub fn free_count(&self) -> usize {
        self.slots.iter().filter(|s| **s == SlotState::Free).count()
    }

    /// Current owner of token `index`, if owned.
    pub fn owner(&self, index: usize) -> Option<OsmId> {
        match self.slots.get(index) {
            Some(SlotState::Owned(o)) | Some(SlotState::Releasing(o)) => Some(*o),
            _ => None,
        }
    }

    /// Blocks or unblocks release of token `index` (variable latency).
    ///
    /// # Panics
    /// Panics if `index` is out of range.
    pub fn block_release(&mut self, index: usize, blocked: bool) {
        self.release_blocked[index] = blocked;
    }

    /// True if release of token `index` is currently blocked.
    pub fn is_release_blocked(&self, index: usize) -> bool {
        self.release_blocked[index]
    }

    fn slot_index(&self, ident: TokenIdent) -> Option<usize> {
        if ident.is_any() {
            self.slots.iter().position(|s| *s == SlotState::Free)
        } else {
            let idx = ident.0 as usize;
            (idx < self.slots.len()).then_some(idx)
        }
    }
}

impl TokenManager for ExclusivePool {
    fn name(&self) -> &str {
        &self.name
    }

    fn attach(&mut self, id: ManagerId) {
        self.id = id;
    }

    fn prepare_allocate(&mut self, osm: OsmId, ident: TokenIdent) -> Option<Token> {
        let idx = self.slot_index(ident)?;
        if self.slots[idx] == SlotState::Free {
            self.slots[idx] = SlotState::Pending(osm);
            Some(Token::new(self.id, idx as u64))
        } else {
            None
        }
    }

    fn inquire(&self, _osm: OsmId, ident: TokenIdent) -> bool {
        if ident.is_any() {
            self.slots.contains(&SlotState::Free)
        } else {
            matches!(self.slots.get(ident.0 as usize), Some(SlotState::Free))
        }
    }

    fn prepare_release(&mut self, osm: OsmId, token: Token) -> bool {
        // Token raws arrive from OSM buffers and may be damaged (fault
        // injection): an out-of-range raw is an unreleasable token, never a
        // panic.
        let idx = token.raw as usize;
        if self.release_blocked.get(idx).copied().unwrap_or(false) {
            return false;
        }
        if self.slots.get(idx) == Some(&SlotState::Owned(osm)) {
            self.slots[idx] = SlotState::Releasing(osm);
            true
        } else {
            false
        }
    }

    fn commit_allocate(&mut self, osm: OsmId, token: Token) {
        // Commit/abort raws were validated by the matching prepare; an
        // out-of-range raw here is a protocol violation by a caller or a
        // buggy decorator — scream in debug builds, no-op in release.
        let Some(slot) = self.slots.get_mut(token.raw as usize) else {
            debug_assert!(false, "commit_allocate of foreign token {token}");
            return;
        };
        debug_assert_eq!(*slot, SlotState::Pending(osm));
        *slot = SlotState::Owned(osm);
    }

    fn abort_allocate(&mut self, osm: OsmId, token: Token) {
        let Some(slot) = self.slots.get_mut(token.raw as usize) else {
            debug_assert!(false, "abort_allocate of foreign token {token}");
            return;
        };
        debug_assert_eq!(*slot, SlotState::Pending(osm));
        *slot = SlotState::Free;
    }

    fn commit_release(&mut self, osm: OsmId, token: Token) {
        let Some(slot) = self.slots.get_mut(token.raw as usize) else {
            debug_assert!(false, "commit_release of foreign token {token}");
            return;
        };
        debug_assert_eq!(*slot, SlotState::Releasing(osm));
        *slot = SlotState::Free;
    }

    fn abort_release(&mut self, osm: OsmId, token: Token) {
        let Some(slot) = self.slots.get_mut(token.raw as usize) else {
            debug_assert!(false, "abort_release of foreign token {token}");
            return;
        };
        debug_assert_eq!(*slot, SlotState::Releasing(osm));
        *slot = SlotState::Owned(osm);
    }

    fn discard(&mut self, osm: OsmId, token: Token) {
        // Discards must always succeed (squash path) even for damaged
        // tokens; an unknown raw is silently ignored.
        let _ = osm;
        if let Some(slot) = self.slots.get_mut(token.raw as usize) {
            debug_assert!(matches!(
                *slot,
                SlotState::Owned(o) | SlotState::Releasing(o) if o == osm
            ));
            *slot = SlotState::Free;
        }
    }

    fn owner_of(&self, ident: TokenIdent) -> Option<OsmId> {
        if ident.is_any() || ident.is_none() {
            None
        } else {
            self.owner(ident.0 as usize)
        }
    }

    fn owned_tokens(&self) -> Option<Vec<(Token, OsmId)>> {
        Some(
            self.slots
                .iter()
                .enumerate()
                .filter_map(|(i, s)| match s {
                    SlotState::Owned(o) | SlotState::Releasing(o) => {
                        Some((Token::new(self.id, i as u64), *o))
                    }
                    _ => None,
                })
                .collect(),
        )
    }

    fn snapshot_state(&self) -> Option<ManagerSnapshot> {
        let mut w = ByteWriter::new();
        w.put_u8(KIND_EXCLUSIVE);
        w.put_seq(&self.slots, put_slot);
        w.put_seq(&self.release_blocked, |w, &b| w.put_bool(b));
        Some(ManagerSnapshot::new(w.into_bytes()))
    }

    fn restore_state(&mut self, snap: &ManagerSnapshot) -> bool {
        let capacity = self.slots.len();
        let parsed = ByteReader::read_all(snap.as_bytes(), |r| {
            r.expect_u8(KIND_EXCLUSIVE)?;
            let slots = r.take_vec(take_slot)?;
            let release_blocked = r.take_vec(ByteReader::take_bool)?;
            (slots.len() == capacity && release_blocked.len() == capacity)
                .then_some((slots, release_blocked))
        });
        let Some((slots, release_blocked)) = parsed else {
            return false;
        };
        self.slots = slots;
        self.release_blocked = release_blocked;
        true
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A pool of `capacity` interchangeable tokens.
///
/// Unlike [`ExclusivePool`], tokens carry no identity: any allocation
/// succeeds while some remain. With `refill_each_cycle`, the pool restores
/// full capacity at every clock and *does not* regain capacity on release
/// or discard within the cycle — the natural model for per-cycle bandwidth
/// limits such as "dispatch at most 2 instructions per cycle" (used by the
/// PowerPC 750 model). The idiom for consuming one bandwidth token on an
/// edge is `allocate(pool, ANY)` plus `discard(pool, AnyHeld)` in the same
/// condition: the commit acquires then immediately drops the token, leaving
/// the buffer clean while still debiting this cycle's budget.
#[derive(Debug)]
pub struct CountingPool {
    name: String,
    id: ManagerId,
    capacity: u64,
    available: u64,
    refill_each_cycle: bool,
}

impl CountingPool {
    /// Creates a pool with `capacity` tokens that are returned explicitly.
    pub fn new(name: impl Into<String>, capacity: u64) -> Self {
        CountingPool {
            name: name.into(),
            id: ManagerId(u32::MAX),
            capacity,
            available: capacity,
            refill_each_cycle: false,
        }
    }

    /// Creates a per-cycle bandwidth pool: capacity restored at every clock.
    pub fn per_cycle(name: impl Into<String>, capacity: u64) -> Self {
        CountingPool {
            refill_each_cycle: true,
            ..CountingPool::new(name, capacity)
        }
    }

    /// Tokens currently available.
    pub fn available(&self) -> u64 {
        self.available
    }

    /// Total capacity.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }
}

impl TokenManager for CountingPool {
    fn name(&self) -> &str {
        &self.name
    }

    fn attach(&mut self, id: ManagerId) {
        self.id = id;
    }

    fn prepare_allocate(&mut self, _osm: OsmId, _ident: TokenIdent) -> Option<Token> {
        if self.available > 0 {
            self.available -= 1;
            Some(Token::new(self.id, 0))
        } else {
            None
        }
    }

    fn inquire(&self, _osm: OsmId, _ident: TokenIdent) -> bool {
        self.available > 0
    }

    fn prepare_release(&mut self, _osm: OsmId, _token: Token) -> bool {
        true
    }

    fn commit_allocate(&mut self, _osm: OsmId, _token: Token) {}

    fn abort_allocate(&mut self, _osm: OsmId, _token: Token) {
        self.available = (self.available + 1).min(self.capacity);
    }

    fn commit_release(&mut self, _osm: OsmId, _token: Token) {
        if !self.refill_each_cycle {
            self.available = (self.available + 1).min(self.capacity);
        }
    }

    fn abort_release(&mut self, _osm: OsmId, _token: Token) {}

    fn discard(&mut self, _osm: OsmId, _token: Token) {
        if !self.refill_each_cycle {
            self.available = (self.available + 1).min(self.capacity);
        }
    }

    /// A per-cycle pool refills here, and is dirty only when the refill
    /// changed `available`: a full pool's waiters keep their skip proofs.
    fn clock(&mut self, _cycle: u64) -> bool {
        let refilled = self.refill_each_cycle && self.available != self.capacity;
        if refilled {
            self.available = self.capacity;
        }
        refilled
    }

    fn snapshot_state(&self) -> Option<ManagerSnapshot> {
        let mut w = ByteWriter::new();
        w.put_u8(KIND_COUNTING);
        w.put_u64(self.capacity);
        w.put_u64(self.available);
        w.put_bool(self.refill_each_cycle);
        Some(ManagerSnapshot::new(w.into_bytes()))
    }

    fn restore_state(&mut self, snap: &ManagerSnapshot) -> bool {
        let parsed = ByteReader::read_all(snap.as_bytes(), |r| {
            r.expect_u8(KIND_COUNTING)?;
            let capacity = r.take_u64()?;
            let available = r.take_u64()?;
            let refill_each_cycle = r.take_bool()?;
            (capacity == self.capacity && refill_each_cycle == self.refill_each_cycle)
                .then_some(available)
        });
        let Some(available) = parsed else {
            return false;
        };
        self.available = available;
        true
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Identifier-space tag selecting the *register-update* token kind of a
/// [`RegScoreboard`] (the low bits select the register).
const UPDATE_KIND_BIT: u64 = 1 << 32;

/// A register file manager in the style of the paper's `m_r` (§4): it holds
/// the architectural register values, *value tokens* that readers inquire
/// about, and *register-update tokens* that writers allocate at issue and
/// release (with the computed result) at write-back.
///
/// While a register's update token is outstanding, inquiries about its value
/// token fail, stalling dependent operations — the data-hazard idiom. Actual
/// data movement happens in the hardware layer: behaviors call
/// [`RegScoreboard::read`]/[`RegScoreboard::write`] from their commit actions.
#[derive(Debug)]
pub struct RegScoreboard {
    name: String,
    id: ManagerId,
    values: Vec<u64>,
    writer: Vec<SlotState>,
}

impl RegScoreboard {
    /// Creates a scoreboard for `nregs` registers, all values zero.
    pub fn new(name: impl Into<String>, nregs: usize) -> Self {
        RegScoreboard {
            name: name.into(),
            id: ManagerId(u32::MAX),
            values: vec![0; nregs],
            writer: vec![SlotState::Free; nregs],
        }
    }

    /// Identifier of register `r`'s value token (inquire-only).
    pub fn value_ident(r: usize) -> TokenIdent {
        TokenIdent(r as u64)
    }

    /// Identifier of register `r`'s update token (allocate/release).
    pub fn update_ident(r: usize) -> TokenIdent {
        TokenIdent(r as u64 | UPDATE_KIND_BIT)
    }

    /// Number of registers.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if the file has no registers.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Reads register `r` (hardware-layer access).
    pub fn read(&self, r: usize) -> u64 {
        self.values[r]
    }

    /// Writes register `r` (hardware-layer access, performed by the
    /// write-back commit action together with the update-token release).
    pub fn write(&mut self, r: usize, value: u64) {
        self.values[r] = value;
    }

    /// True if register `r` has an outstanding (committed) update token.
    pub fn is_busy(&self, r: usize) -> bool {
        !matches!(self.writer[r], SlotState::Free)
    }

    /// The OSM holding register `r`'s update token, if any.
    pub fn writer_of(&self, r: usize) -> Option<OsmId> {
        match self.writer[r] {
            SlotState::Owned(o) | SlotState::Releasing(o) | SlotState::Pending(o) => Some(o),
            SlotState::Free => None,
        }
    }

    fn split(ident: TokenIdent) -> Option<(bool, usize)> {
        if ident.is_none() || ident.is_any() {
            return None;
        }
        let update = ident.0 & UPDATE_KIND_BIT != 0;
        Some((update, (ident.0 & !UPDATE_KIND_BIT) as usize))
    }
}

impl TokenManager for RegScoreboard {
    fn name(&self) -> &str {
        &self.name
    }

    fn attach(&mut self, id: ManagerId) {
        self.id = id;
    }

    fn prepare_allocate(&mut self, osm: OsmId, ident: TokenIdent) -> Option<Token> {
        let (update, r) = Self::split(ident)?;
        if !update || r >= self.writer.len() {
            return None; // value tokens cannot be allocated, only inquired
        }
        if self.writer[r] == SlotState::Free {
            self.writer[r] = SlotState::Pending(osm);
            Some(Token::new(self.id, ident.0))
        } else {
            None
        }
    }

    fn inquire(&self, osm: OsmId, ident: TokenIdent) -> bool {
        let Some((update, r)) = Self::split(ident) else {
            return false;
        };
        if r >= self.writer.len() {
            return false;
        }
        match self.writer[r] {
            SlotState::Free => true,
            // An operation's own pending/held update token does not mask its
            // reads (it has not produced the value it will write yet, but it
            // also never reads its own destination as a source after rename).
            SlotState::Pending(o) | SlotState::Owned(o) | SlotState::Releasing(o) => {
                !update && o == osm
            }
        }
    }

    fn prepare_release(&mut self, osm: OsmId, token: Token) -> bool {
        // Raw may be damaged (fault injection): out-of-range registers are
        // simply unreleasable, never a panic.
        let Some((update, r)) = Self::split(TokenIdent(token.raw)) else {
            return false;
        };
        if update && self.writer.get(r) == Some(&SlotState::Owned(osm)) {
            self.writer[r] = SlotState::Releasing(osm);
            true
        } else {
            false
        }
    }

    fn commit_allocate(&mut self, osm: OsmId, token: Token) {
        if let Some((true, r)) = Self::split(TokenIdent(token.raw)) {
            // Raw validated by the matching prepare; out-of-range here is a
            // protocol violation — scream in debug, no-op in release.
            let Some(slot) = self.writer.get_mut(r) else {
                debug_assert!(false, "commit_allocate of foreign token {token}");
                return;
            };
            debug_assert_eq!(*slot, SlotState::Pending(osm));
            *slot = SlotState::Owned(osm);
        }
    }

    fn abort_allocate(&mut self, osm: OsmId, token: Token) {
        if let Some((true, r)) = Self::split(TokenIdent(token.raw)) {
            let Some(slot) = self.writer.get_mut(r) else {
                debug_assert!(false, "abort_allocate of foreign token {token}");
                return;
            };
            debug_assert_eq!(*slot, SlotState::Pending(osm));
            *slot = SlotState::Free;
        }
    }

    fn commit_release(&mut self, osm: OsmId, token: Token) {
        if let Some((true, r)) = Self::split(TokenIdent(token.raw)) {
            let Some(slot) = self.writer.get_mut(r) else {
                debug_assert!(false, "commit_release of foreign token {token}");
                return;
            };
            debug_assert_eq!(*slot, SlotState::Releasing(osm));
            *slot = SlotState::Free;
        }
    }

    fn abort_release(&mut self, osm: OsmId, token: Token) {
        if let Some((true, r)) = Self::split(TokenIdent(token.raw)) {
            let Some(slot) = self.writer.get_mut(r) else {
                debug_assert!(false, "abort_release of foreign token {token}");
                return;
            };
            debug_assert_eq!(*slot, SlotState::Releasing(osm));
            *slot = SlotState::Owned(osm);
        }
    }

    fn discard(&mut self, _osm: OsmId, token: Token) {
        // Discards always succeed, even for damaged raws (squash path).
        if let Some((true, r)) = Self::split(TokenIdent(token.raw)) {
            if let Some(slot) = self.writer.get_mut(r) {
                *slot = SlotState::Free;
            }
        }
    }

    fn owner_of(&self, ident: TokenIdent) -> Option<OsmId> {
        let (_, r) = Self::split(ident)?;
        if r < self.writer.len() {
            self.writer_of(r)
        } else {
            None
        }
    }

    fn snapshot_state(&self) -> Option<ManagerSnapshot> {
        let mut w = ByteWriter::new();
        w.put_u8(KIND_SCOREBOARD);
        w.put_seq(&self.values, |w, &v| w.put_u64(v));
        w.put_seq(&self.writer, put_slot);
        Some(ManagerSnapshot::new(w.into_bytes()))
    }

    fn restore_state(&mut self, snap: &ManagerSnapshot) -> bool {
        let nregs = self.values.len();
        let parsed = ByteReader::read_all(snap.as_bytes(), |r| {
            r.expect_u8(KIND_SCOREBOARD)?;
            let values = r.take_vec(ByteReader::take_u64)?;
            let writer = r.take_vec(take_slot)?;
            (values.len() == nregs && writer.len() == nregs).then_some((values, writer))
        });
        let Some((values, writer)) = parsed else {
            return false;
        };
        self.values = values;
        self.writer = writer;
        true
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The control-hazard manager of paper §4 (`m_reset`).
///
/// Reset edges carry an inquiry to this manager plus discard primitives; the
/// manager rejects inquiries from normal OSMs, so reset edges stay disabled.
/// When a mis-predicted branch resolves, the execute logic *arms* the
/// speculative OSMs; at the next control step their (high-priority) reset
/// edges fire, the tokens are discarded and the operations are killed.
#[derive(Debug, Default)]
pub struct ResetManager {
    name: String,
    armed: Vec<OsmId>,
}

impl ResetManager {
    /// Creates a reset manager with no OSMs armed.
    pub fn new(name: impl Into<String>) -> Self {
        ResetManager {
            name: name.into(),
            armed: Vec::new(),
        }
    }

    /// Arms `osm` for reset: its inquiries now succeed.
    pub fn arm(&mut self, osm: OsmId) {
        if !self.armed.contains(&osm) {
            self.armed.push(osm);
        }
    }

    /// Disarms `osm` (typically called from the reset edge's commit action).
    pub fn disarm(&mut self, osm: OsmId) {
        self.armed.retain(|o| *o != osm);
    }

    /// Disarms every OSM.
    pub fn disarm_all(&mut self) {
        self.armed.clear();
    }

    /// True if `osm` is armed.
    pub fn is_armed(&self, osm: OsmId) -> bool {
        self.armed.contains(&osm)
    }

    /// Number of armed OSMs.
    pub fn armed_count(&self) -> usize {
        self.armed.len()
    }
}

impl TokenManager for ResetManager {
    fn name(&self) -> &str {
        &self.name
    }

    fn prepare_allocate(&mut self, _osm: OsmId, _ident: TokenIdent) -> Option<Token> {
        None
    }

    fn inquire(&self, osm: OsmId, _ident: TokenIdent) -> bool {
        self.is_armed(osm)
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
        w.put_u8(KIND_RESET);
        w.put_seq(&self.armed, |w, o| w.put_u32(o.0));
        Some(ManagerSnapshot::new(w.into_bytes()))
    }

    fn restore_state(&mut self, snap: &ManagerSnapshot) -> bool {
        let parsed = ByteReader::read_all(snap.as_bytes(), |r| {
            r.expect_u8(KIND_RESET)?;
            r.take_vec(|r| r.take_u32().map(OsmId))
        });
        let Some(armed) = parsed else {
            return false;
        };
        self.armed = armed;
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

    fn attach<M: TokenManager>(mut m: M, id: u32) -> M {
        m.attach(ManagerId(id));
        m
    }

    #[test]
    fn exclusive_allocate_commit_cycle() {
        let mut p = attach(ExclusivePool::new("stage", 1), 0);
        let osm = OsmId(1);
        let tok = p.prepare_allocate(osm, TokenIdent(0)).expect("free token");
        assert_eq!(tok.manager, ManagerId(0));
        // Pending: not available to others.
        assert!(p.prepare_allocate(OsmId(2), TokenIdent(0)).is_none());
        assert!(!p.inquire(OsmId(2), TokenIdent(0)));
        p.commit_allocate(osm, tok);
        assert_eq!(p.owner(0), Some(osm));
        // Release round-trip.
        assert!(p.prepare_release(osm, tok));
        p.abort_release(osm, tok);
        assert_eq!(p.owner(0), Some(osm));
        assert!(p.prepare_release(osm, tok));
        p.commit_release(osm, tok);
        assert_eq!(p.owner(0), None);
        assert_eq!(p.free_count(), 1);
    }

    #[test]
    fn exclusive_abort_allocate_restores_token() {
        let mut p = attach(ExclusivePool::new("stage", 1), 0);
        let tok = p.prepare_allocate(OsmId(1), TokenIdent(0)).unwrap();
        p.abort_allocate(OsmId(1), tok);
        assert!(p.inquire(OsmId(2), TokenIdent(0)));
        assert!(p.prepare_allocate(OsmId(2), TokenIdent(0)).is_some());
    }

    #[test]
    fn exclusive_any_picks_free_slot() {
        let mut p = attach(ExclusivePool::new("units", 2), 0);
        let t0 = p.prepare_allocate(OsmId(1), TokenIdent::ANY).unwrap();
        p.commit_allocate(OsmId(1), t0);
        let t1 = p.prepare_allocate(OsmId(2), TokenIdent::ANY).unwrap();
        p.commit_allocate(OsmId(2), t1);
        assert_ne!(t0.raw, t1.raw);
        assert!(p.prepare_allocate(OsmId(3), TokenIdent::ANY).is_none());
    }

    #[test]
    fn exclusive_release_denied_while_blocked() {
        let mut p = attach(ExclusivePool::new("fetch", 1), 0);
        let tok = p.prepare_allocate(OsmId(1), TokenIdent(0)).unwrap();
        p.commit_allocate(OsmId(1), tok);
        p.block_release(0, true);
        assert!(!p.prepare_release(OsmId(1), tok));
        p.block_release(0, false);
        assert!(p.prepare_release(OsmId(1), tok));
    }

    #[test]
    fn exclusive_release_by_non_owner_fails() {
        let mut p = attach(ExclusivePool::new("fetch", 1), 0);
        let tok = p.prepare_allocate(OsmId(1), TokenIdent(0)).unwrap();
        p.commit_allocate(OsmId(1), tok);
        assert!(!p.prepare_release(OsmId(9), tok));
    }

    #[test]
    fn exclusive_discard_frees_token() {
        let mut p = attach(ExclusivePool::new("fetch", 1), 0);
        let tok = p.prepare_allocate(OsmId(1), TokenIdent(0)).unwrap();
        p.commit_allocate(OsmId(1), tok);
        p.discard(OsmId(1), tok);
        assert_eq!(p.free_count(), 1);
    }

    #[test]
    fn exclusive_out_of_range_ident() {
        let mut p = attach(ExclusivePool::new("fetch", 1), 0);
        assert!(p.prepare_allocate(OsmId(1), TokenIdent(5)).is_none());
        assert!(!p.inquire(OsmId(1), TokenIdent(5)));
    }

    #[test]
    fn exclusive_owner_of_reports_committed_owner() {
        let mut p = attach(ExclusivePool::new("fetch", 1), 0);
        assert_eq!(p.owner_of(TokenIdent(0)), None);
        let tok = p.prepare_allocate(OsmId(4), TokenIdent(0)).unwrap();
        p.commit_allocate(OsmId(4), tok);
        assert_eq!(p.owner_of(TokenIdent(0)), Some(OsmId(4)));
    }

    #[test]
    fn counting_pool_exhausts_and_returns() {
        let mut p = attach(CountingPool::new("ports", 2), 0);
        let a = p.prepare_allocate(OsmId(1), TokenIdent::ANY).unwrap();
        let _b = p.prepare_allocate(OsmId(2), TokenIdent::ANY).unwrap();
        assert!(p.prepare_allocate(OsmId(3), TokenIdent::ANY).is_none());
        assert!(!p.inquire(OsmId(3), TokenIdent::ANY));
        p.abort_allocate(OsmId(1), a);
        assert_eq!(p.available(), 1);
        assert!(p.inquire(OsmId(3), TokenIdent::ANY));
    }

    #[test]
    fn counting_pool_per_cycle_refills() {
        let mut p = attach(CountingPool::per_cycle("dispatch", 2), 0);
        let a = p.prepare_allocate(OsmId(1), TokenIdent::ANY).unwrap();
        p.commit_allocate(OsmId(1), a);
        let b = p.prepare_allocate(OsmId(2), TokenIdent::ANY).unwrap();
        p.commit_allocate(OsmId(2), b);
        assert_eq!(p.available(), 0);
        p.clock(1);
        assert_eq!(p.available(), 2);
    }

    #[test]
    fn counting_pool_clock_is_dirty_only_on_a_real_refill() {
        let mut p = attach(CountingPool::per_cycle("dispatch", 2), 0);
        assert!(!p.clock(1), "a full pool reported a refill");
        let a = p.prepare_allocate(OsmId(1), TokenIdent::ANY).unwrap();
        p.abort_allocate(OsmId(1), a);
        assert!(!p.clock(2), "an aborted grant left the pool full");
        let a = p.prepare_allocate(OsmId(1), TokenIdent::ANY).unwrap();
        p.commit_allocate(OsmId(1), a);
        assert!(p.clock(3), "the refill after a grant reported clean");
        assert!(!p.clock(4));

        let mut q = attach(CountingPool::new("ports", 2), 0);
        for cycle in 1..4 {
            assert!(!q.clock(cycle), "a pool that never refills reported dirty");
            let t = q.prepare_allocate(OsmId(1), TokenIdent::ANY).unwrap();
            q.commit_allocate(OsmId(1), t);
            if cycle % 2 == 0 {
                q.commit_release(OsmId(1), t);
            }
        }
        assert!(!q.clock(4));
    }

    #[test]
    fn counting_pool_release_capped_at_capacity() {
        let mut p = attach(CountingPool::new("ports", 1), 0);
        let t = Token::new(ManagerId(0), 0);
        p.commit_release(OsmId(1), t);
        assert_eq!(p.available(), 1);
    }

    #[test]
    fn scoreboard_data_hazard_blocks_reader() {
        let mut rf = attach(RegScoreboard::new("regs", 4), 0);
        let writer = OsmId(1);
        let reader = OsmId(2);
        let upd = rf
            .prepare_allocate(writer, RegScoreboard::update_ident(2))
            .expect("update token free");
        rf.commit_allocate(writer, upd);
        // Dependent reader stalls on the value token.
        assert!(!rf.inquire(reader, RegScoreboard::value_ident(2)));
        // Independent register still readable.
        assert!(rf.inquire(reader, RegScoreboard::value_ident(3)));
        // Write-back: release + data write.
        rf.write(2, 42);
        assert!(rf.prepare_release(writer, upd));
        rf.commit_release(writer, upd);
        assert!(rf.inquire(reader, RegScoreboard::value_ident(2)));
        assert_eq!(rf.read(2), 42);
    }

    #[test]
    fn scoreboard_waw_stalls_second_writer() {
        let mut rf = attach(RegScoreboard::new("regs", 4), 0);
        let t = rf
            .prepare_allocate(OsmId(1), RegScoreboard::update_ident(1))
            .unwrap();
        rf.commit_allocate(OsmId(1), t);
        assert!(rf
            .prepare_allocate(OsmId(2), RegScoreboard::update_ident(1))
            .is_none());
    }

    #[test]
    fn scoreboard_value_tokens_cannot_be_allocated() {
        let mut rf = attach(RegScoreboard::new("regs", 4), 0);
        assert!(rf
            .prepare_allocate(OsmId(1), RegScoreboard::value_ident(1))
            .is_none());
    }

    #[test]
    fn scoreboard_own_update_does_not_mask_own_read() {
        let mut rf = attach(RegScoreboard::new("regs", 4), 0);
        let t = rf
            .prepare_allocate(OsmId(1), RegScoreboard::update_ident(3))
            .unwrap();
        rf.commit_allocate(OsmId(1), t);
        assert!(rf.inquire(OsmId(1), RegScoreboard::value_ident(3)));
        assert!(!rf.inquire(OsmId(2), RegScoreboard::value_ident(3)));
    }

    #[test]
    fn scoreboard_discard_clears_writer() {
        let mut rf = attach(RegScoreboard::new("regs", 4), 0);
        let t = rf
            .prepare_allocate(OsmId(1), RegScoreboard::update_ident(0))
            .unwrap();
        rf.commit_allocate(OsmId(1), t);
        rf.discard(OsmId(1), t);
        assert!(!rf.is_busy(0));
    }

    #[test]
    fn scoreboard_owner_of_reports_writer() {
        let mut rf = attach(RegScoreboard::new("regs", 4), 0);
        let t = rf
            .prepare_allocate(OsmId(7), RegScoreboard::update_ident(1))
            .unwrap();
        rf.commit_allocate(OsmId(7), t);
        assert_eq!(rf.owner_of(RegScoreboard::update_ident(1)), Some(OsmId(7)));
        assert_eq!(rf.owner_of(RegScoreboard::value_ident(1)), Some(OsmId(7)));
    }

    #[test]
    fn exclusive_release_of_damaged_raw_is_refused_not_panic() {
        let mut p = attach(ExclusivePool::new("fetch", 1), 0);
        let damaged = Token::new(ManagerId(0), (1 << 63) | 5);
        assert!(!p.prepare_release(OsmId(1), damaged));
        p.discard(OsmId(1), damaged); // squash of damaged token: no-op
        assert_eq!(p.free_count(), 1);
    }

    #[test]
    fn scoreboard_release_of_damaged_raw_is_refused_not_panic() {
        let mut rf = attach(RegScoreboard::new("regs", 4), 0);
        let damaged = Token::new(ManagerId(0), UPDATE_KIND_BIT | (1 << 40));
        assert!(!rf.prepare_release(OsmId(1), damaged));
        rf.discard(OsmId(1), damaged);
    }

    #[test]
    fn exclusive_snapshot_roundtrip() {
        let mut p = attach(ExclusivePool::new("stage", 2), 0);
        let t = p.prepare_allocate(OsmId(3), TokenIdent(1)).unwrap();
        p.commit_allocate(OsmId(3), t);
        p.block_release(1, true);
        let snap = p.snapshot_state().unwrap();
        p.block_release(1, false);
        assert!(p.prepare_release(OsmId(3), t));
        p.commit_release(OsmId(3), t);
        assert_eq!(p.owner(1), None);
        assert!(p.restore_state(&snap));
        assert_eq!(p.owner(1), Some(OsmId(3)));
        assert!(p.is_release_blocked(1));
        // Wrong-shape snapshot refused.
        let other = attach(ExclusivePool::new("stage", 5), 0).snapshot_state().unwrap();
        assert!(!p.restore_state(&other));
    }

    #[test]
    fn counting_snapshot_roundtrip() {
        let mut p = attach(CountingPool::new("ports", 3), 0);
        let t = p.prepare_allocate(OsmId(1), TokenIdent::ANY).unwrap();
        p.commit_allocate(OsmId(1), t);
        let snap = p.snapshot_state().unwrap();
        p.commit_release(OsmId(1), t);
        assert_eq!(p.available(), 3);
        assert!(p.restore_state(&snap));
        assert_eq!(p.available(), 2);
        // A per-cycle pool's snapshot does not fit an explicit-return pool.
        let other = attach(CountingPool::per_cycle("bw", 3), 0).snapshot_state().unwrap();
        assert!(!p.restore_state(&other));
    }

    #[test]
    fn scoreboard_snapshot_roundtrip() {
        let mut rf = attach(RegScoreboard::new("regs", 4), 0);
        let t = rf
            .prepare_allocate(OsmId(1), RegScoreboard::update_ident(2))
            .unwrap();
        rf.commit_allocate(OsmId(1), t);
        rf.write(2, 99);
        let snap = rf.snapshot_state().unwrap();
        rf.write(2, 7);
        rf.discard(OsmId(1), t);
        assert!(rf.restore_state(&snap));
        assert_eq!(rf.read(2), 99);
        assert_eq!(rf.writer_of(2), Some(OsmId(1)));
    }

    #[test]
    fn reset_snapshot_roundtrip() {
        let mut m = ResetManager::new("reset");
        m.arm(OsmId(2));
        let snap = m.snapshot_state().unwrap();
        m.disarm_all();
        assert!(m.restore_state(&snap));
        assert!(m.is_armed(OsmId(2)));
    }

    #[test]
    fn reset_manager_gates_inquiries() {
        let mut m = ResetManager::new("reset");
        assert!(!m.inquire(OsmId(1), TokenIdent::NONE));
        m.arm(OsmId(1));
        m.arm(OsmId(1)); // idempotent
        assert!(m.inquire(OsmId(1), TokenIdent::NONE));
        assert!(!m.inquire(OsmId(2), TokenIdent::NONE));
        assert_eq!(m.armed_count(), 1);
        m.disarm(OsmId(1));
        assert!(!m.inquire(OsmId(1), TokenIdent::NONE));
        m.arm(OsmId(3));
        m.disarm_all();
        assert_eq!(m.armed_count(), 0);
    }
}
