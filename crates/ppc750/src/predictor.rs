//! Branch prediction hardware: a 2-bit-counter branch history table, and
//! the right-path fetch step both PPC-750 models share.
//!
//! The PPC 750 predicts conditional branches with a 512-entry BHT and caches
//! targets in a branch target instruction cache (BTIC). In this model
//! direct targets are computed at fetch (standing in for the BTIC), so only
//! the direction predictor carries state.

use minirisc::{decode, Executed, Instr, Iss, IssError, Memory, SparseMemory};
use osm_core::{ByteReader, ByteWriter};

/// A table of 2-bit saturating counters indexed by the instruction address.
#[derive(Debug, Clone)]
pub struct Bht {
    counters: Vec<u8>,
    mask: usize,
    /// Lookups performed.
    pub lookups: u64,
    /// Training updates performed.
    pub updates: u64,
}

impl Bht {
    /// Creates a BHT with `entries` counters (power of two), initialized to
    /// weakly-not-taken.
    ///
    /// # Panics
    /// Panics if `entries` is not a power of two.
    pub fn new(entries: usize) -> Self {
        assert!(entries.is_power_of_two(), "BHT entries must be a power of two");
        Bht {
            counters: vec![1; entries],
            mask: entries - 1,
            lookups: 0,
            updates: 0,
        }
    }

    fn index(&self, pc: u32) -> usize {
        ((pc >> 2) as usize) & self.mask
    }

    /// Predicts the direction of the branch at `pc`.
    pub fn predict(&mut self, pc: u32) -> bool {
        self.lookups += 1;
        self.counters[self.index(pc)] >= 2
    }

    /// Trains the counter with the actual direction.
    pub fn train(&mut self, pc: u32, taken: bool) {
        self.updates += 1;
        let idx = self.index(pc);
        let c = &mut self.counters[idx];
        if taken {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
    }

    /// Serializes the counters and statistics (table size is configuration
    /// and is excluded — the bytes restore only into an equally-sized BHT).
    pub fn export_state(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u32(self.counters.len() as u32);
        for &c in &self.counters {
            w.put_u8(c);
        }
        w.put_u64(self.lookups);
        w.put_u64(self.updates);
        w.into_bytes()
    }

    /// Restores state written by [`Bht::export_state`]. Returns `false` —
    /// leaving `self` untouched — on truncation, trailing garbage, a size
    /// mismatch, or an out-of-range counter value.
    pub fn import_state(&mut self, bytes: &[u8]) -> bool {
        let mut r = ByteReader::new(bytes);
        let Some(n) = r.take_u32() else { return false };
        if n as usize != self.counters.len() {
            return false;
        }
        let mut counters = Vec::with_capacity(self.counters.len());
        for _ in 0..n {
            let Some(c) = r.take_u8() else { return false };
            if c > 3 {
                return false;
            }
            counters.push(c);
        }
        let (Some(lookups), Some(updates)) = (r.take_u64(), r.take_u64()) else {
            return false;
        };
        if !r.is_done() {
            return false;
        }
        self.counters = counters;
        self.lookups = lookups;
        self.updates = updates;
        true
    }
}

/// What fetch learns about one right-path instruction.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RightPath {
    pub(crate) pc: u32,
    pub(crate) instr: Instr,
    /// Actual next PC.
    pub(crate) next_pc: u32,
    /// True if control transferred (`next_pc != pc + 4`).
    pub(crate) taken: bool,
    pub(crate) mem_addr: Option<u32>,
    /// Ends the program at retire: `halt`, the exit syscall, or an
    /// instruction the ISS refused.
    pub(crate) is_halting: bool,
    /// A conditional branch or indirect jump: a prediction event.
    pub(crate) predicted_event: bool,
    /// Where fetch goes next.
    pub(crate) predicted_next: u32,
    /// Why the ISS refused the instruction, if it did.
    pub(crate) error: Option<IssError>,
}

impl RightPath {
    /// Fetch predicted the control flow wrong.
    pub(crate) fn mispredicted(&self) -> bool {
        self.predicted_next != self.next_pc
    }
}

/// One right-path fetch: the ISS executes the instruction and the BHT
/// predicts the next fetch address. An instruction the ISS refuses (an
/// undecodable word, an unknown syscall) halts the machine; the ISS stays
/// at it, and an undecodable word enters the pipeline as `halt`.
pub(crate) fn fetch_right_path(oracle: &mut Iss<SparseMemory>, bht: &mut Bht) -> RightPath {
    let pc = oracle.cpu.pc;
    let (step, error) = match oracle.step() {
        Ok(step) => (step, None),
        Err(e) => {
            let instr = decode(oracle.mem.read_u32(pc)).unwrap_or(Instr::Halt);
            let step = Executed {
                pc,
                instr,
                taken: None,
                mem_addr: None,
            };
            (step, Some(e))
        }
    };
    let next_pc = step.taken.unwrap_or(pc.wrapping_add(4));
    let (predicted_event, predicted_next) = match step.instr {
        Instr::Branch { offset, .. } => {
            let stride = if bht.predict(pc) { offset as u32 } else { 4 };
            (true, pc.wrapping_add(stride))
        }
        // Indirect jumps predict fall-through.
        Instr::Jalr { .. } => (true, pc.wrapping_add(4)),
        // Anything else goes where it goes (`jal`'s target is known at fetch).
        _ => (false, next_pc),
    };
    RightPath {
        pc,
        instr: step.instr,
        next_pc,
        taken: next_pc != pc.wrapping_add(4),
        mem_addr: step.mem_addr,
        is_halting: oracle.halted || error.is_some(),
        predicted_event,
        predicted_next,
        error,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_saturate_and_flip() {
        let mut bht = Bht::new(16);
        let pc = 0x1000;
        assert!(!bht.predict(pc)); // weakly not-taken
        bht.train(pc, true);
        assert!(bht.predict(pc)); // counter 2
        bht.train(pc, true);
        bht.train(pc, true); // saturates at 3
        bht.train(pc, false);
        assert!(bht.predict(pc)); // 2: still taken
        bht.train(pc, false);
        bht.train(pc, false);
        assert!(!bht.predict(pc));
        assert_eq!(bht.updates, 6);
    }

    #[test]
    fn distinct_pcs_map_to_distinct_counters() {
        let mut bht = Bht::new(16);
        bht.train(0x1000, true);
        bht.train(0x1000, true);
        assert!(bht.predict(0x1000));
        assert!(!bht.predict(0x1004));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let _ = Bht::new(10);
    }
}
