//! The hardware-centric (port/signal) PowerPC-750 baseline model.
//!
//! This is the model the paper compares OSM against (§5.2): the same
//! micro-architecture expressed in the SystemC style — explicit modules
//! (front end, dispatcher, six execution units, rename unit, completion
//! unit) connected by dozens of typed signals, evaluated to convergence
//! through the `portsim` delta-cycle kernel every clock. All inter-module
//! communication goes through wires: head-of-queue buses, grant buses,
//! result broadcast buses, status lines. The kernel overhead of this
//! explicit communication (signal writes, convergence iterations, whole-bus
//! updates) is exactly what makes hardware-centric models slower than OSM
//! models — the speed ratio is measured by the `bench` crate.
//!
//! The timing policies mirror the OSM model so the two can be validated
//! against each other (the paper reports ≤3% differences between
//! independently written models; ours share policy helpers so the expected
//! difference is ~0, and any residual is reported by the accuracy harness).

use crate::config::{PpcConfig, PpcResult};
use crate::osm_model::{units_for, Unit, UNITS};
use crate::predictor::{fetch_right_path, Bht};
use crate::rename::{RenameFile, ResultBus};
use memsys::{Cache, Tlb};
use minirisc::{decode, ArchReg, Instr, InstrClass, Iss, Memory, Program, SparseMemory};
use osm_core::OsmId;
use portsim::{Module, PortKernel, Signal, SignalStore};
use std::collections::VecDeque;

/// One in-flight operation as it travels across the wires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PortOp {
    seq: u64,
    pc: u32,
    instr: Instr,
    phantom: bool,
    taken: bool,
    next_pc: u32,
    mispredicted: bool,
    predicted_event: bool,
    mem_addr: Option<u32>,
    is_halting: bool,
    ready_at: u64,
}

impl Default for PortOp {
    fn default() -> Self {
        PortOp {
            seq: 0,
            pc: 0,
            instr: Instr::NOP,
            phantom: false,
            taken: false,
            next_pc: 0,
            mispredicted: false,
            predicted_event: false,
            mem_addr: None,
            is_halting: false,
            ready_at: 0,
        }
    }
}

/// Where the dispatcher routed an operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Route {
    Direct(usize),
    Rs(usize),
}

/// One dispatch grant on the dispatch bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DispGrant {
    op: PortOp,
    route: Route,
    waits: [Option<u64>; 2],
    gdest: bool,
    fdest: bool,
}

/// Fetch redirect after a mispredicted branch resolves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Redirect {
    next_pc: u32,
    seq: u64,
}

/// Retirement notice on the retire bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RetireInfo {
    seq: u64,
    dest: Option<u8>,
}

/// All wires of the model (the paper notes the SystemC PPC model needs more
/// than 200 wires; the buses below carry equivalent fan-outs).
#[derive(Debug, Clone, Copy)]
struct Wires {
    fq_head: [Signal<Option<PortOp>>; 2],
    disp: [Signal<Option<DispGrant>>; 2],
    unit_free: [Signal<bool>; 6],
    rs_free: [Signal<bool>; 6],
    complete: [Signal<Option<PortOp>>; 6],
    reg_ready: Signal<[bool; 64]>,
    reg_pending: Signal<[Option<u64>; 64]>,
    gren_free: Signal<u64>,
    fren_free: Signal<u64>,
    cq_free: Signal<u64>,
    redirect: Signal<Option<Redirect>>,
    branch_train: Signal<Option<(u32, bool)>>,
    retire: [Signal<Option<RetireInfo>>; 2],
    now: Signal<u64>,
}

fn dest_flat(instr: &Instr) -> Option<u8> {
    instr.dest().map(|r| r.flat_index() as u8)
}

// ---------------------------------------------------------------------------
// Front end: fetcher + fetch queue + BHT + I-cache + ISS.
// ---------------------------------------------------------------------------

struct FrontEnd {
    w: Wires,
    cfg: PpcConfig,
    oracle: Iss<SparseMemory>,
    bht: Bht,
    icache: Cache,
    itlb: Tlb,
    fq: VecDeque<PortOp>,
    next_fetch_pc: u32,
    wrong_path: bool,
    stop_fetch: bool,
    fetch_stall: u32,
    fetch_seq: u64,
    now: u64,
    squashed: u64,
    /// First right-path error, in the ISS's words.
    error: Option<String>,
}

impl FrontEnd {
    fn fetch_one(&mut self) {
        let mut op = PortOp {
            seq: self.fetch_seq,
            ..PortOp::default()
        };
        self.fetch_seq += 1;
        if self.wrong_path {
            op.phantom = true;
            op.pc = self.next_fetch_pc;
            self.next_fetch_pc = op.pc.wrapping_add(4);
            let word = self.oracle.mem.read_u32(op.pc);
            op.instr = decode(word).unwrap_or(Instr::NOP);
        } else {
            let f = fetch_right_path(&mut self.oracle, &mut self.bht);
            if let Some(e) = f.error {
                self.error.get_or_insert_with(|| e.to_string());
            }
            op.pc = f.pc;
            op.instr = f.instr;
            op.next_pc = f.next_pc;
            op.taken = f.taken;
            op.mem_addr = f.mem_addr;
            op.is_halting = f.is_halting;
            op.predicted_event = f.predicted_event;
            op.mispredicted = f.mispredicted();
            self.stop_fetch |= f.is_halting;
            self.wrong_path |= op.mispredicted;
            self.next_fetch_pc = f.predicted_next;
        }
        let tlb = self.itlb.access(op.pc);
        let cache = match self.icache.access(op.pc) {
            memsys::CacheOutcome::Hit => 0,
            memsys::CacheOutcome::Miss { penalty } => penalty + self.cfg.mem.bus_latency,
        };
        let penalty = tlb + cache;
        if penalty > 0 {
            self.fetch_stall = penalty;
        }
        op.ready_at = self.now + 1 + penalty as u64;
        self.fq.push_back(op);
    }
}

impl Module for FrontEnd {
    fn name(&self) -> &str {
        "front-end"
    }

    fn eval(&mut self, signals: &mut SignalStore) {
        signals.write(self.w.fq_head[0], self.fq.front().copied());
        signals.write(self.w.fq_head[1], self.fq.get(1).copied());
        signals.write(self.w.now, self.now);
    }

    fn tick(&mut self, signals: &mut SignalStore) {
        // Pop dispatched head entries.
        for k in 0..2 {
            if signals.read(self.w.disp[k]).is_some() {
                self.fq.pop_front();
            }
        }
        // Apply a redirect from a resolved mispredicted branch. The
        // squashed entries free their queue slots within this cycle, just
        // as the OSM model's reset edges run before the idle fetchers in
        // the director's age order.
        if let Some(r) = signals.read(self.w.redirect) {
            self.wrong_path = false;
            self.next_fetch_pc = r.next_pc;
            self.fetch_seq = r.seq + 1;
            let before = self.fq.len();
            self.fq.retain(|op| !op.phantom);
            self.squashed += (before - self.fq.len()) as u64;
        }
        // Branch predictor training.
        if let Some((pc, taken)) = signals.read(self.w.branch_train) {
            self.bht.train(pc, taken);
        }
        let room = self.cfg.fetch_queue - self.fq.len();

        // Fetch.
        self.fetch_stall = self.fetch_stall.saturating_sub(1);
        for _ in 0..self.cfg.fetch_bw.min(room as u64) {
            if self.stop_fetch || self.fetch_stall > 0 {
                break;
            }
            self.fetch_one();
        }
        self.now += 1;
    }
}

// ---------------------------------------------------------------------------
// Dispatcher: in-order dual dispatch, direct-to-unit else reservation station.
// ---------------------------------------------------------------------------

struct Dispatcher {
    w: Wires,
    next_dispatch_seq: u64,
}

impl Module for Dispatcher {
    fn name(&self) -> &str {
        "dispatcher"
    }

    fn eval(&mut self, signals: &mut SignalStore) {
        let now = signals.read(self.w.now);
        let reg_ready = signals.read(self.w.reg_ready);
        let reg_pending = signals.read(self.w.reg_pending);
        let mut cq_free = signals.read(self.w.cq_free);
        let mut gren = signals.read(self.w.gren_free);
        let mut fren = signals.read(self.w.fren_free);
        let mut unit_free: [bool; 6] =
            std::array::from_fn(|u| signals.read(self.w.unit_free[u]));
        let mut rs_free: [bool; 6] = std::array::from_fn(|u| signals.read(self.w.rs_free[u]));

        let mut grants: [Option<DispGrant>; 2] = [None, None];
        // Intra-cycle rename overlay: the second dispatch of a cycle must
        // see the first one's destination as an in-flight (unready) write,
        // exactly as the OSM director's age-ordered service provides.
        let mut overlay: Option<(usize, u64)> = None;

        for (k, grant) in grants.iter_mut().enumerate() {
            let expected = self.next_dispatch_seq + k as u64;
            let Some(op) = signals.read(self.w.fq_head[k]) else {
                break;
            };
            if op.seq != expected || now < op.ready_at {
                break;
            }
            let gdest = matches!(op.instr.dest(), Some(ArchReg::Gpr(_)));
            let fdest = matches!(op.instr.dest(), Some(ArchReg::Fpr(_)));
            if cq_free == 0 || (gdest && gren == 0) || (fdest && fren == 0) {
                break;
            }
            let sources = op.instr.sources();
            let operands_ready = sources.iter().all(|r| {
                reg_ready[r.flat_index()] && overlay.is_none_or(|(d, _)| d != r.flat_index())
            });
            let mut route = None;
            // Direct dispatch into a unit: operands ready, unit free, its
            // reservation station empty (program order within the unit).
            if operands_ready {
                for &u in units_for(op.instr.class()) {
                    if unit_free[u.index()] && rs_free[u.index()] {
                        route = Some(Route::Direct(u.index()));
                        break;
                    }
                }
            }
            // Otherwise into the unit's reservation station.
            if route.is_none() {
                for &u in units_for(op.instr.class()) {
                    if rs_free[u.index()] {
                        route = Some(Route::Rs(u.index()));
                        break;
                    }
                }
            }
            let Some(route) = route else {
                break; // in-order dispatch: the head blocks the rest
            };
            let mut waits = [None, None];
            if let Route::Rs(_) = route {
                for (i, r) in sources.iter().take(2).enumerate() {
                    waits[i] = match overlay {
                        Some((d, seq)) if d == r.flat_index() => Some(seq),
                        _ => reg_pending[r.flat_index()],
                    };
                }
            }
            match route {
                Route::Direct(u) => unit_free[u] = false,
                Route::Rs(u) => rs_free[u] = false,
            }
            if let Some(dest) = op.instr.dest() {
                overlay = Some((dest.flat_index(), op.seq));
            }
            cq_free -= 1;
            if gdest {
                gren -= 1;
            }
            if fdest {
                fren -= 1;
            }
            *grant = Some(DispGrant {
                op,
                route,
                waits,
                gdest,
                fdest,
            });
        }
        signals.write(self.w.disp[0], grants[0]);
        signals.write(self.w.disp[1], grants[1]);
    }

    fn tick(&mut self, signals: &mut SignalStore) {
        for k in 0..2 {
            if signals.read(self.w.disp[k]).is_some() {
                self.next_dispatch_seq += 1;
            }
        }
        if let Some(r) = signals.read(self.w.redirect) {
            self.next_dispatch_seq = r.seq + 1;
        }
    }
}

// ---------------------------------------------------------------------------
// Execution unit (one instance per function unit): unit latch + RS latch.
// ---------------------------------------------------------------------------

struct ExecUnit {
    w: Wires,
    unit: Unit,
    cfg: PpcConfig,
    latch: Option<PortOp>,
    timer: u32,
    rs: Option<(PortOp, [Option<u64>; 2])>,
    /// LSU only: the data cache and TLB.
    dcache: Option<(Cache, Tlb)>,
    squashed: u64,
}

impl ExecUnit {
    fn start(&mut self, op: PortOp) {
        let mut extra = self.cfg.lat.of(op.instr.class()).saturating_sub(1);
        if let (Some((cache, tlb)), Some(addr)) = (self.dcache.as_mut(), op.mem_addr) {
            let t = tlb.access(addr);
            let c = match cache.access(addr) {
                memsys::CacheOutcome::Hit => 0,
                memsys::CacheOutcome::Miss { penalty } => penalty + self.cfg.mem.bus_latency,
            };
            extra += t + c;
        }
        self.timer = extra;
        self.latch = Some(op);
    }

    /// Waits satisfied, counting this cycle's broadcasts on the result bus.
    fn waits_done(&self, signals: &SignalStore, waits: &[Option<u64>; 2]) -> bool {
        waits.iter().all(|w| match w {
            None => true,
            Some(seq) => UNITS.iter().any(|u| {
                signals
                    .read(self.w.complete[u.index()])
                    .is_some_and(|c| c.seq == *seq)
            }),
        })
    }

    fn will_complete(&self) -> bool {
        self.latch.is_some() && self.timer == 0
    }
}

impl Module for ExecUnit {
    fn name(&self) -> &str {
        self.unit.name()
    }

    fn eval(&mut self, signals: &mut SignalStore) {
        let u = self.unit.index();
        let completing = if self.will_complete() {
            self.latch
        } else {
            None
        };
        signals.write(self.w.complete[u], completing);
        // Will the RS op issue this cycle? It needs the unit free (now or
        // by this cycle's completion) and its awaited producers broadcast.
        let unit_avail = self.latch.is_none() || completing.is_some();
        let issuing = match &self.rs {
            Some((_, waits)) => unit_avail && self.waits_done(signals, waits),
            None => false,
        };
        signals.write(self.w.unit_free[u], unit_avail && !issuing);
        signals.write(self.w.rs_free[u], self.rs.is_none() || issuing);
    }

    fn tick(&mut self, signals: &mut SignalStore) {
        let u = self.unit.index();
        // Completion leaves the unit.
        if self.will_complete() {
            self.latch = None;
        } else if self.timer > 0 {
            self.timer -= 1;
        }
        // Clear waits satisfied by this cycle's broadcasts.
        if let Some((_, waits)) = &mut self.rs {
            for w in waits.iter_mut() {
                if let Some(seq) = *w {
                    let done = UNITS.iter().any(|uu| {
                        signals
                            .read(self.w.complete[uu.index()])
                            .is_some_and(|c| c.seq == seq)
                    });
                    if done {
                        *w = None;
                    }
                }
            }
        }
        // Issue from the reservation station.
        if self.latch.is_none() {
            if let Some((_, waits)) = &self.rs {
                if waits.iter().all(Option::is_none) {
                    let (op, _) = self.rs.take().expect("checked");
                    self.start(op);
                }
            }
        }
        // Accept dispatch grants routed to this unit.
        for k in 0..2 {
            if let Some(g) = signals.read(self.w.disp[k]) {
                match g.route {
                    Route::Direct(d) if d == u => self.start(g.op),
                    Route::Rs(d) if d == u => self.rs = Some((g.op, g.waits)),
                    _ => {}
                }
            }
        }
        // Squash wrong-path occupants (visible from the next cycle, like
        // the OSM model's reset edges).
        if let Some(r) = signals.read(self.w.redirect) {
            if self.latch.is_some_and(|op| op.phantom && op.seq > r.seq) {
                self.latch = None;
                self.timer = 0;
                self.squashed += 1;
            }
            if self.rs.as_ref().is_some_and(|(op, _)| op.phantom && op.seq > r.seq) {
                self.rs = None;
                self.squashed += 1;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rename unit: rename map, rename-buffer counters, result bus.
// ---------------------------------------------------------------------------

struct RenameUnit {
    w: Wires,
    rename: RenameFile,
    bus: ResultBus,
    gren_free: u64,
    fren_free: u64,
    /// (seq, flat reg) of every in-flight write, for squash accounting.
    inflight: Vec<(u64, u8)>,
}

impl Module for RenameUnit {
    fn name(&self) -> &str {
        "rename"
    }

    fn eval(&mut self, signals: &mut SignalStore) {
        // Publish the scoreboard buses, projecting this cycle's completions.
        let completing: Vec<u64> = UNITS
            .iter()
            .filter_map(|u| signals.read(self.w.complete[u.index()]))
            .filter(|c| !c.phantom)
            .map(|c| c.seq)
            .collect();
        let mut ready = [false; 64];
        let mut pending = [None; 64];
        for r in 0..64 {
            match self.rename.pending_producer(r) {
                None => ready[r] = true,
                Some(seq) => {
                    if completing.contains(&seq) {
                        ready[r] = true;
                    } else {
                        pending[r] = Some(seq);
                    }
                }
            }
        }
        signals.write(self.w.reg_ready, ready);
        signals.write(self.w.reg_pending, pending);
        // Project this cycle's retirements: retiring operations free their
        // rename buffers before younger ops dispatch (in the OSM model the
        // director serves the retiring seniors first).
        let mut gren = self.gren_free;
        let mut fren = self.fren_free;
        for k in 0..2 {
            if let Some(r) = signals.read(self.w.retire[k]) {
                if let Some(d) = r.dest {
                    if d < 32 {
                        gren += 1;
                    } else {
                        fren += 1;
                    }
                }
            }
        }
        signals.write(self.w.gren_free, gren);
        signals.write(self.w.fren_free, fren);
    }

    fn tick(&mut self, signals: &mut SignalStore) {
        // Completions broadcast results.
        for u in UNITS {
            if let Some(op) = signals.read(self.w.complete[u.index()]) {
                if !op.phantom {
                    if let Some(d) = dest_flat(&op.instr) {
                        self.rename.complete_write(d as usize, op.seq);
                    }
                    self.bus.complete(op.seq);
                }
            }
        }
        // Retirements free rename buffers and architect the values.
        for k in 0..2 {
            if let Some(r) = signals.read(self.w.retire[k]) {
                if let Some(d) = r.dest {
                    self.rename.retire_write(d as usize, r.seq);
                    self.inflight.retain(|(s, _)| *s != r.seq);
                    if d < 32 {
                        self.gren_free += 1;
                    } else {
                        self.fren_free += 1;
                    }
                }
                self.bus.retire_up_to(r.seq + 1);
            }
        }
        // New dispatches rename their destinations.
        for k in 0..2 {
            if let Some(g) = signals.read(self.w.disp[k]) {
                if let Some(d) = dest_flat(&g.op.instr) {
                    self.rename
                        .begin_write(d as usize, OsmId(0), g.op.seq);
                    self.inflight.push((g.op.seq, d));
                }
                if g.gdest {
                    self.gren_free -= 1;
                }
                if g.fdest {
                    self.fren_free -= 1;
                }
            }
        }
        // Squash: undo phantom renames, refund their buffers.
        if let Some(r) = signals.read(self.w.redirect) {
            let dead: Vec<(u64, u8)> = self
                .inflight
                .iter()
                .copied()
                .filter(|(s, _)| *s > r.seq)
                .collect();
            for (s, d) in &dead {
                self.rename.abort_write(*d as usize, *s);
                if *d < 32 {
                    self.gren_free += 1;
                } else {
                    self.fren_free += 1;
                }
            }
            self.inflight.retain(|(s, _)| *s <= r.seq);
            self.bus.squash_above(r.seq);
        }
    }
}

// ---------------------------------------------------------------------------
// Completion unit: completion queue, in-order retirement, redirect source.
// ---------------------------------------------------------------------------

struct CompletionUnit {
    w: Wires,
    cfg: PpcConfig,
    /// Completed operations waiting to retire, kept sorted by seq.
    buffer: Vec<PortOp>,
    /// Seqs holding completion-queue entries (allocated at dispatch).
    active: Vec<u64>,
    next_retire_seq: u64,
    retired: u64,
    squashed: u64,
    branches: u64,
    mispredicts: u64,
    halted: bool,
}

impl Module for CompletionUnit {
    fn name(&self) -> &str {
        "completion"
    }

    fn eval(&mut self, signals: &mut SignalStore) {
        // Retire up to retire_bw oldest completed ops, strictly in order.
        let mut retires: [Option<RetireInfo>; 2] = [None, None];
        for (seq, slot) in
            (self.next_retire_seq..).zip(retires.iter_mut().take(self.cfg.retire_bw as usize))
        {
            let Some(op) = self.buffer.iter().find(|o| o.seq == seq) else {
                break;
            };
            *slot = Some(RetireInfo {
                seq,
                dest: dest_flat(&op.instr),
            });
        }
        signals.write(self.w.retire[0], retires[0]);
        signals.write(self.w.retire[1], retires[1]);
        let retiring = retires.iter().flatten().count() as u64;
        signals.write(
            self.w.cq_free,
            self.cfg.completion_queue as u64 - self.active.len() as u64 + retiring,
        );

        // A completing right-path control op resolves prediction.
        let mut redirect = None;
        let mut train = None;
        if let Some(op) = signals.read(self.w.complete[Unit::Bpu.index()]) {
            if !op.phantom {
                if op.instr.class() == InstrClass::Branch {
                    train = Some((op.pc, op.taken));
                }
                if op.mispredicted {
                    redirect = Some(Redirect {
                        next_pc: op.next_pc,
                        seq: op.seq,
                    });
                }
            }
        }
        signals.write(self.w.redirect, redirect);
        signals.write(self.w.branch_train, train);
    }

    fn tick(&mut self, signals: &mut SignalStore) {
        // Accept completions.
        for u in UNITS {
            if let Some(op) = signals.read(self.w.complete[u.index()]) {
                self.buffer.push(op);
                if !op.phantom && op.predicted_event {
                    self.branches += 1;
                    if op.mispredicted {
                        self.mispredicts += 1;
                    }
                }
            }
        }
        // Apply retirements.
        for k in 0..2 {
            if let Some(r) = signals.read(self.w.retire[k]) {
                let pos = self
                    .buffer
                    .iter()
                    .position(|o| o.seq == r.seq)
                    .expect("retiring op is in the buffer");
                let op = self.buffer.swap_remove(pos);
                self.active.retain(|&s| s != op.seq);
                self.next_retire_seq = r.seq + 1;
                self.retired += 1;
                if op.is_halting {
                    self.halted = true;
                }
            }
        }
        // New dispatches claim completion-queue entries.
        for k in 0..2 {
            if let Some(g) = signals.read(self.w.disp[k]) {
                self.active.push(g.op.seq);
            }
        }
        // Squash phantoms.
        if let Some(r) = signals.read(self.w.redirect) {
            let before = self.buffer.len();
            self.buffer.retain(|o| !(o.phantom && o.seq > r.seq));
            self.squashed += (before - self.buffer.len()) as u64;
            self.active.retain(|&s| s <= r.seq);
        }
    }
}

// ---------------------------------------------------------------------------
// The assembled simulator.
// ---------------------------------------------------------------------------

/// The port/signal PowerPC-750 simulator (SystemC-style baseline).
pub struct PpcPortSim {
    kernel: PortKernel,
    front: usize,
    units: [usize; 6],
    completion: usize,
    cfg: PpcConfig,
}

impl std::fmt::Debug for PpcPortSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PpcPortSim")
            .field("cycles", &self.kernel.stats.cycles)
            .finish()
    }
}

impl PpcPortSim {
    /// Builds the module graph and loads `program`.
    pub fn new(cfg: PpcConfig, program: &Program) -> Self {
        let mut kernel = PortKernel::new();
        let s = &mut kernel.signals;
        let w = Wires {
            fq_head: [s.signal("fq_head0", None), s.signal("fq_head1", None)],
            disp: [s.signal("disp0", None), s.signal("disp1", None)],
            unit_free: std::array::from_fn(|u| s.signal(format!("unit_free{u}"), true)),
            rs_free: std::array::from_fn(|u| s.signal(format!("rs_free{u}"), true)),
            complete: std::array::from_fn(|u| s.signal(format!("complete{u}"), None)),
            reg_ready: s.signal("reg_ready", [true; 64]),
            reg_pending: s.signal("reg_pending", [None; 64]),
            gren_free: s.signal("gren_free", cfg.gpr_rename),
            fren_free: s.signal("fren_free", cfg.fpr_rename),
            cq_free: s.signal("cq_free", cfg.completion_queue as u64),
            redirect: s.signal("redirect", None),
            branch_train: s.signal("branch_train", None),
            retire: [s.signal("retire0", None), s.signal("retire1", None)],
            now: s.signal("now", 0u64),
        };

        let oracle = Iss::with_program(SparseMemory::new(), program);
        let next_fetch_pc = oracle.cpu.pc;
        let front = kernel.add_module(FrontEnd {
            w,
            cfg,
            oracle,
            bht: Bht::new(cfg.bht_entries),
            icache: Cache::new(cfg.mem.icache),
            itlb: Tlb::new(cfg.mem.itlb),
            fq: VecDeque::new(),
            next_fetch_pc,
            wrong_path: false,
            stop_fetch: false,
            fetch_stall: 0,
            fetch_seq: 0,
            now: 0,
            squashed: 0,
            error: None,
        });
        kernel.add_module(Dispatcher {
            w,
            next_dispatch_seq: 0,
        });
        let units = UNITS.map(|unit| {
            kernel.add_module(ExecUnit {
                w,
                unit,
                cfg,
                latch: None,
                timer: 0,
                rs: None,
                dcache: (unit == Unit::Lsu)
                    .then(|| (Cache::new(cfg.mem.dcache), Tlb::new(cfg.mem.dtlb))),
                squashed: 0,
            })
        });
        kernel.add_module(RenameUnit {
            w,
            rename: RenameFile::new("rename", 64),
            bus: ResultBus::new("bus"),
            gren_free: cfg.gpr_rename,
            fren_free: cfg.fpr_rename,
            inflight: Vec::new(),
        });
        let completion = kernel.add_module(CompletionUnit {
            w,
            cfg,
            buffer: Vec::new(),
            active: Vec::new(),
            next_retire_seq: 0,
            retired: 0,
            squashed: 0,
            branches: 0,
            mispredicts: 0,
            halted: false,
        });
        PpcPortSim {
            kernel,
            front,
            units,
            completion,
            cfg,
        }
    }

    /// Number of hardware modules (paper compares module counts).
    pub fn module_count(&self) -> usize {
        self.kernel.module_count()
    }

    /// Kernel statistics (delta cycles, evals — the port-communication
    /// overhead the OSM model avoids).
    pub fn kernel_stats(&self) -> portsim::KernelStats {
        self.kernel.stats
    }

    /// Runs until the halting instruction retires or `max_cycles` elapse.
    pub fn run_to_halt(&mut self, max_cycles: u64) -> PpcResult {
        while !self.halted() && self.kernel.stats.cycles < max_cycles {
            self.kernel.step();
        }
        self.result()
    }

    /// True once the halting instruction retired.
    pub fn halted(&self) -> bool {
        self.kernel.module::<CompletionUnit>(self.completion).halted
    }

    /// One-line module state dump (for model-diff debugging).
    #[doc(hidden)]
    pub fn debug_state(&self) -> String {
        let front = self.kernel.module::<FrontEnd>(self.front);
        let completion = self.kernel.module::<CompletionUnit>(self.completion);
        let units: Vec<String> = self
            .units
            .iter()
            .map(|&i| {
                let u = self.kernel.module::<ExecUnit>(i);
                format!(
                    "{}:{}{}",
                    u.unit.name(),
                    u.latch.map(|o| o.seq.to_string()).unwrap_or_else(|| "-".into()),
                    u.rs.as_ref().map(|(o, _)| format!("/rs{}", o.seq)).unwrap_or_default()
                )
            })
            .collect();
        format!(
            "fq={} cbuf={} nret={} {}",
            front.fq.len(),
            completion.buffer.len(),
            completion.next_retire_seq,
            units.join(" ")
        )
    }

    /// Snapshot of the result counters.
    pub fn result(&self) -> PpcResult {
        let front = self.kernel.module::<FrontEnd>(self.front);
        let completion = self.kernel.module::<CompletionUnit>(self.completion);
        let lsu = self.kernel.module::<ExecUnit>(self.units[Unit::Lsu.index()]);
        let unit_squashes: u64 = self
            .units
            .iter()
            .map(|&i| self.kernel.module::<ExecUnit>(i).squashed)
            .sum();
        let _ = &self.cfg;
        PpcResult {
            cycles: self.kernel.stats.cycles,
            retired: completion.retired,
            squashed: front.squashed + completion.squashed + unit_squashes,
            branches: completion.branches,
            mispredicts: completion.mispredicts,
            exit_code: front.oracle.exit_code,
            output: front.oracle.output.clone(),
            icache_misses: front.icache.stats.misses,
            dcache_misses: lsu
                .dcache
                .as_ref()
                .map(|(c, _)| c.stats.misses)
                .unwrap_or(0),
            error: front.error.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::osm_model::PpcOsmSim;
    use minirisc::assemble;

    fn run_port(src: &str) -> PpcResult {
        let p = assemble(src, 0x1000).expect("assembles");
        let mut sim = PpcPortSim::new(PpcConfig::paper(), &p);
        let r = sim.run_to_halt(1_000_000);
        assert!(sim.halted(), "port model did not halt");
        r
    }

    fn run_osm(src: &str) -> PpcResult {
        let p = assemble(src, 0x1000).expect("assembles");
        let mut sim = PpcOsmSim::new(PpcConfig::paper(), &p);
        sim.run_to_halt(1_000_000).expect("no deadlock")
    }

    const SUM_LOOP: &str = "
        li r1, 10
        li r2, 0
    loop:
        add r2, r2, r1
        addi r1, r1, -1
        bne r1, r0, loop
        li r10, 0
        add r11, r2, r0
        syscall
    ";

    #[test]
    fn functional_result_matches_oracle() {
        let r = run_port(SUM_LOOP);
        assert_eq!(r.exit_code, 55);
    }

    #[test]
    fn agrees_with_osm_model_on_simple_loop() {
        let osm = run_osm(SUM_LOOP);
        let port = run_port(SUM_LOOP);
        assert_eq!(port.retired, osm.retired);
        assert_eq!(port.exit_code, osm.exit_code);
        let diff = (port.cycles as f64 - osm.cycles as f64).abs() / osm.cycles as f64;
        assert!(
            diff <= 0.03,
            "timing differs by {:.2}% (osm {}, port {})",
            diff * 100.0,
            osm.cycles,
            port.cycles
        );
    }

    #[test]
    fn agrees_with_osm_model_on_mispredicting_branches() {
        let src = "
            li r1, 60
            li r3, 0
        loop:
            andi r2, r1, 1
            beq r2, r0, even
            addi r3, r3, 1
        even:
            addi r1, r1, -1
            bne r1, r0, loop
            li r10, 0
            add r11, r3, r0
            syscall
        ";
        let osm = run_osm(src);
        let port = run_port(src);
        assert_eq!(port.exit_code, osm.exit_code);
        assert_eq!(port.retired, osm.retired);
        let diff = (port.cycles as f64 - osm.cycles as f64).abs() / osm.cycles as f64;
        assert!(
            diff <= 0.03,
            "timing differs by {:.2}% (osm {}, port {})",
            diff * 100.0,
            osm.cycles,
            port.cycles
        );
    }

    #[test]
    fn agrees_with_osm_model_on_memory_and_fp() {
        let src = "
            la r1, buf
            li r2, 24
            li r3, 1
            cvtsw f1, r3
        fill:
            sw r2, 0(r1)
            flw f2, 0(r1)
            fadd f1, f1, f2
            addi r1, r1, 4
            addi r2, r2, -1
            bne r2, r0, fill
            cvtws r4, f1
            li r10, 0
            add r11, r4, r0
            syscall
        buf:
            .space 96
        ";
        let osm = run_osm(src);
        let port = run_port(src);
        assert_eq!(port.exit_code, osm.exit_code);
        let diff = (port.cycles as f64 - osm.cycles as f64).abs() / osm.cycles as f64;
        assert!(
            diff <= 0.03,
            "timing differs by {:.2}% (osm {}, port {})",
            diff * 100.0,
            osm.cycles,
            port.cycles
        );
    }

    #[test]
    fn kernel_pays_delta_overhead() {
        let p = assemble(SUM_LOOP, 0x1000).unwrap();
        let mut sim = PpcPortSim::new(PpcConfig::paper(), &p);
        sim.run_to_halt(1_000_000);
        let stats = sim.kernel_stats();
        // Port communication costs multiple delta iterations per cycle.
        assert!(stats.delta_cycles >= 2 * stats.cycles);
        assert!(sim.module_count() >= 9);
    }
}
