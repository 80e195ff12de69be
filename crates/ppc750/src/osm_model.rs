//! The OSM-based PowerPC-750 micro-architecture model (paper §5.2, Fig. 2).
//!
//! A dual-issue, out-of-order superscalar: 6-entry fetch queue, six function
//! units (two integer units, FPU, load/store, system-register and branch
//! units) each with a one-entry reservation station, register rename
//! buffers, a 6-entry completion queue with in-order retirement, and branch
//! prediction with speculative fetch.
//!
//! Each operation follows the Fig. 2 state machine: `I → Q` (fetch queue),
//! then either `Q → E` *directly into a unit* when its operands and the unit
//! are available at dispatch, or `Q → R → E` through the unit's reservation
//! station — the multiple-outgoing-edge pattern the paper highlights as
//! inexpressible in L-charts. Completion (`E → C`) broadcasts results;
//! retirement (`C → I`) is in-order and dual-bandwidth. High-priority reset
//! edges from every speculative state squash wrong-path operations after a
//! mispredicted branch resolves.
//!
//! The paper built its micro-architecture models "based on existing ISSs"
//! (§5). In the out-of-order model this takes the classic oracle form: the
//! functional [`minirisc::Iss`] executes each *right-path* instruction at
//! fetch time, supplying the timing model with the decoded instruction, the
//! actual control-flow outcome (so mispredictions are known when the branch
//! resolves) and the memory address (for D-cache timing). Wrong-path
//! operations never touch the ISS — they exist only in the timing model.
//! Both PPC-750 models fetch through the same step,
//! `predictor::fetch_right_path`.

use crate::config::{PpcConfig, PpcResult};
use crate::predictor::{fetch_right_path, Bht};
use crate::rename::{RenameFile, ResultBus};
use memsys::MemSystem;
use minirisc::{decode, encode, Instr, InstrClass, Iss, Memory, Program, SparseMemory};
use osm_core::{
    Behavior, ByteReader, ByteWriter, CountingPool, Edge, ExclusivePool, HardwareLayer, IdentExpr,
    Machine, ManagerId, ManagerTable, ModelError, OsmId, OsmView, ResetManager, RestartPolicy,
    SlotId, SpecBuilder, StateMachineSpec, TokenIdent, TransitionCtx,
};
use std::sync::Arc;

/// Identifier slot: first source register (rename value inquiry).
pub const S_SRC1: SlotId = SlotId(0);
/// Identifier slot: second source register.
pub const S_SRC2: SlotId = SlotId(1);
/// Identifier slot: first awaited producer sequence number (RS path).
pub const S_WAIT1: SlotId = SlotId(2);
/// Identifier slot: second awaited producer sequence number.
pub const S_WAIT2: SlotId = SlotId(3);
/// Identifier slot: GPR rename buffer request (ANY or NONE).
pub const S_GREN: SlotId = SlotId(4);
/// Identifier slot: FPR rename buffer request (ANY or NONE).
pub const S_FREN: SlotId = SlotId(5);

/// The six function units of the PPC 750.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// Complex integer unit (also runs mul/div).
    Iu1,
    /// Simple integer unit.
    Iu2,
    /// Floating-point unit.
    Fpu,
    /// Load/store unit.
    Lsu,
    /// System register unit.
    Sru,
    /// Branch processing unit.
    Bpu,
}

/// All units, in a fixed order (indexes into the unit manager arrays).
pub const UNITS: [Unit; 6] = [Unit::Iu1, Unit::Iu2, Unit::Fpu, Unit::Lsu, Unit::Sru, Unit::Bpu];

impl Unit {
    /// Index into per-unit arrays.
    pub fn index(self) -> usize {
        UNITS.iter().position(|&u| u == self).expect("unit listed")
    }

    /// Short name.
    pub fn name(self) -> &'static str {
        match self {
            Unit::Iu1 => "iu1",
            Unit::Iu2 => "iu2",
            Unit::Fpu => "fpu",
            Unit::Lsu => "lsu",
            Unit::Sru => "sru",
            Unit::Bpu => "bpu",
        }
    }
}

/// The units an instruction class may execute on, in preference order.
pub fn units_for(class: InstrClass) -> &'static [Unit] {
    match class {
        InstrClass::IntAlu => &[Unit::Iu2, Unit::Iu1],
        InstrClass::IntMul | InstrClass::IntDiv => &[Unit::Iu1],
        InstrClass::Load | InstrClass::Store => &[Unit::Lsu],
        InstrClass::Branch | InstrClass::Jump => &[Unit::Bpu],
        InstrClass::FpAdd | InstrClass::FpMul | InstrClass::FpDiv => &[Unit::Fpu],
        InstrClass::System => &[Unit::Sru],
    }
}

/// What an edge of the spec means (precomputed so the hot path never
/// string-matches edge names).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EdgeKind {
    Fetch,
    ResetQ,
    ResetR,
    ResetE,
    ResetC,
    DispExec(Unit),
    DispRs(Unit),
    Issue(Unit),
    Comp(Unit),
    Retire,
}

/// One state's out-edges grouped by what can veto them, each group a mask
/// in the layout of [`Behavior::enabled_edges`] (bit k is the state's k-th
/// out-edge in priority order). Built once per model, so the veto hook is a
/// few ORs.
#[derive(Debug, Clone, Copy, Default)]
struct EdgeBits {
    /// Reset edges: never vetoed.
    reset: u64,
    /// Fetch: open while fetch runs and no I-cache miss stalls it.
    fetch: u64,
    /// Retirement: open to the right-path operation next in program order.
    retire: u64,
    /// Per unit: dispatch into it, directly or through its reservation
    /// station. Open to the operation next in program order, once it is
    /// ready, if its class runs on the unit.
    dispatch: [u64; 6],
    /// Per unit: issue from its reservation station and completion. Open
    /// to the operation dispatched to the unit.
    unit: [u64; 6],
}

impl EdgeBits {
    /// Groups each state's out-edges of `spec` by their `kinds`.
    fn of(spec: &StateMachineSpec, kinds: &[EdgeKind]) -> Vec<EdgeBits> {
        spec.states()
            .map(|s| {
                let mut b = EdgeBits::default();
                for (k, e) in spec.out_edges(s).iter().enumerate() {
                    let bit = 1 << k;
                    match kinds[e.index()] {
                        EdgeKind::Fetch => b.fetch |= bit,
                        EdgeKind::ResetQ
                        | EdgeKind::ResetR
                        | EdgeKind::ResetE
                        | EdgeKind::ResetC => b.reset |= bit,
                        EdgeKind::DispExec(u) | EdgeKind::DispRs(u) => b.dispatch[u.index()] |= bit,
                        EdgeKind::Issue(u) | EdgeKind::Comp(u) => b.unit[u.index()] |= bit,
                        EdgeKind::Retire => b.retire |= bit,
                    }
                }
                b
            })
            .collect()
    }
}

/// Handles to the model's token managers ("19 TMI-enabled modules", §5.2 —
/// here 22 counting the bandwidth pools).
#[derive(Debug, Clone, Copy)]
pub struct PpcManagers {
    /// Fetch queue entries.
    pub fq: ManagerId,
    /// Fetch bandwidth (per cycle).
    pub fbw: ManagerId,
    /// Dispatch bandwidth (per cycle).
    pub dbw: ManagerId,
    /// Retire bandwidth (per cycle).
    pub rbw: ManagerId,
    /// Completion queue entries.
    pub cq: ManagerId,
    /// GPR rename buffers.
    pub gren: ManagerId,
    /// FPR rename buffers.
    pub fren: ManagerId,
    /// The rename map.
    pub rename: ManagerId,
    /// The result broadcast bus.
    pub bus: ManagerId,
    /// Function units (indexed by [`Unit::index`]).
    pub units: [ManagerId; 6],
    /// Reservation stations (one entry each).
    pub rs: [ManagerId; 6],
    /// Reset manager.
    pub reset: ManagerId,
}

/// Shared hardware-layer state.
#[derive(Debug, Clone)]
pub struct PpcShared {
    /// The functional ISS, stepped once per right-path fetch (the oracle).
    pub oracle: Iss<SparseMemory>,
    /// First right-path error: an undecodable word or an unknown syscall,
    /// in the ISS's words.
    pub error: Option<String>,
    /// Timing memory subsystem.
    pub memsys: MemSystem,
    /// Branch history table.
    pub bht: Bht,
    /// Current cycle (updated by the hardware clock).
    pub now: u64,
    /// PC the fetch engine will fetch next (follows predictions).
    pub next_fetch_pc: u32,
    /// Fetching down a mispredicted path.
    pub wrong_path: bool,
    /// Fetch disabled (halting instruction fetched).
    pub stop_fetch: bool,
    /// The halting instruction retired.
    pub halted: bool,
    /// Next sequence number to assign at fetch.
    fetch_seq: u64,
    /// Sequence number that must dispatch next (in-order dispatch).
    pub next_dispatch_seq: u64,
    /// Sequence number that must retire next (in-order retirement).
    pub next_retire_seq: u64,
    /// Wrong-path operations currently in flight.
    phantoms: Vec<OsmId>,
    /// I-cache stall: cycles before fetch may continue.
    fetch_stall: u32,
    /// Per-unit completion timers (cycles the unit refuses release).
    unit_timer: [u32; 6],
    /// Retired instructions.
    pub retired: u64,
    /// Squashed wrong-path operations.
    pub squashed: u64,
    /// Prediction events (conditional branches + indirect jumps executed).
    pub branches: u64,
    /// Mispredictions among them.
    pub mispredicts: u64,
    edge_kinds: Vec<EdgeKind>,
    /// Per state: its out-edges grouped by what can veto them.
    edge_bits: Vec<EdgeBits>,
    /// Manager handles (fault-injection targets and inspection).
    pub ids: PpcManagers,
    cfg: PpcConfig,
}

impl HardwareLayer for PpcShared {
    fn clock(&mut self, cycle: u64, managers: &mut ManagerTable) {
        self.now = cycle;
        self.fetch_stall = self.fetch_stall.saturating_sub(1);
        for (k, unit) in self.ids.units.iter().enumerate() {
            let pool: &mut ExclusivePool = managers.downcast_mut(*unit);
            pool.block_release(0, self.unit_timer[k] > 0);
            self.unit_timer[k] = self.unit_timer[k].saturating_sub(1);
        }
    }

    fn halted(&self) -> bool {
        self.halted
    }

    /// All mutable shared state. Static wiring (`edge_kinds`, `edge_bits`,
    /// manager handles, configuration) stays with the machine.
    fn encode_state(&self) -> Option<Vec<u8>> {
        let mut w = ByteWriter::new();
        w.put_bytes(&self.encode_oracle());
        w.put_bytes(&self.memsys.export_state());
        w.put_bytes(&self.bht.export_state());
        w.put_u64(self.now);
        w.put_u32(self.next_fetch_pc);
        w.put_bool(self.wrong_path);
        w.put_bool(self.stop_fetch);
        w.put_bool(self.halted);
        w.put_u64(self.fetch_seq);
        w.put_u64(self.next_dispatch_seq);
        w.put_u64(self.next_retire_seq);
        w.put_seq(&self.phantoms, |w, osm| w.put_u32(osm.0));
        w.put_u32(self.fetch_stall);
        for t in self.unit_timer {
            w.put_u32(t);
        }
        w.put_u64(self.retired);
        w.put_u64(self.squashed);
        w.put_u64(self.branches);
        w.put_u64(self.mispredicts);
        Some(w.into_bytes())
    }

    /// Decodes into a copy of the current state (which supplies the static
    /// wiring and validates shapes: memory geometry, BHT size) and installs
    /// it only if the whole section parses.
    fn decode_state(&mut self, bytes: &[u8]) -> bool {
        let mut s = self.clone();
        let parsed = ByteReader::read_all(bytes, |r| {
            s.decode_oracle(r.take_bytes()?)?;
            (s.memsys.import_state(r.take_bytes()?) && s.bht.import_state(r.take_bytes()?))
                .then_some(())?;
            s.now = r.take_u64()?;
            s.next_fetch_pc = r.take_u32()?;
            s.wrong_path = r.take_bool()?;
            s.stop_fetch = r.take_bool()?;
            s.halted = r.take_bool()?;
            s.fetch_seq = r.take_u64()?;
            s.next_dispatch_seq = r.take_u64()?;
            s.next_retire_seq = r.take_u64()?;
            s.phantoms = r.take_vec(|r| r.take_u32().map(OsmId))?;
            s.fetch_stall = r.take_u32()?;
            for t in &mut s.unit_timer {
                *t = r.take_u32()?;
            }
            s.retired = r.take_u64()?;
            s.squashed = r.take_u64()?;
            s.branches = r.take_u64()?;
            s.mispredicts = r.take_u64()?;
            Some(())
        });
        if parsed.is_some() {
            *self = s;
        }
        parsed.is_some()
    }
}

impl PpcShared {
    /// The oracle section: the ISS's state and the recorded error.
    fn encode_oracle(&self) -> Vec<u8> {
        let o = &self.oracle;
        let mut w = ByteWriter::new();
        w.put_bytes(&o.cpu.export_state());
        w.put_bytes(&o.mem.export_state());
        w.put_bool(o.halted);
        w.put_u32(o.exit_code);
        w.put_bytes(&o.output);
        match &self.error {
            None => w.put_bool(false),
            Some(e) => {
                w.put_bool(true);
                w.put_str(e);
            }
        }
        w.put_u64(o.retired);
        w.into_bytes()
    }

    /// Reads a section written by `encode_oracle`; `None` on
    /// any damage (the caller discards the half-read copy).
    fn decode_oracle(&mut self, bytes: &[u8]) -> Option<()> {
        ByteReader::read_all(bytes, |r| {
            let o = &mut self.oracle;
            (o.cpu.import_state(r.take_bytes()?) && o.mem.import_state(r.take_bytes()?))
                .then_some(())?;
            o.halted = r.take_bool()?;
            o.exit_code = r.take_u32()?;
            o.output = r.take_bytes()?.to_vec();
            self.error = if r.take_bool()? {
                Some(r.take_str()?.to_owned())
            } else {
                None
            };
            o.retired = r.take_u64()?;
            Some(())
        })
    }
}

/// Builds the Fig. 2 state machine over the given managers.
pub fn build_spec(ids: &PpcManagers) -> Arc<StateMachineSpec> {
    let mut b = SpecBuilder::new("ppc750-op");
    let i = b.state("I");
    let q = b.state("Q");
    let r = b.state("R");
    let e = b.state("E");
    let c = b.state("C");
    b.initial(i);

    // Primitive order within a condition is semantically irrelevant (the
    // conjunction commits atomically) — cheaper/likelier-to-fail primitives
    // are listed first so failing conditions abort early.
    b.edge(i, q)
        .named("fetch")
        .allocate(ids.fbw, IdentExpr::ANY)
        .allocate(ids.fq, IdentExpr::ANY)
        .discard(ids.fbw, IdentExpr::AnyHeld);

    for (src, name) in [(q, "reset_q"), (r, "reset_r"), (e, "reset_e"), (c, "reset_c")] {
        b.edge(src, i)
            .named(name)
            .priority(20)
            .inquire(ids.reset, IdentExpr::Const(0))
            .discard_all();
    }

    // Direct dispatch into a unit (operands ready, unit free, its RS empty).
    // IU2 is declared before IU1 so simple integer ops prefer it.
    for unit in [Unit::Iu2, Unit::Iu1, Unit::Fpu, Unit::Lsu, Unit::Sru, Unit::Bpu] {
        b.edge(q, e)
            .named(format!("dispexec_{}", unit.name()))
            .priority(10)
            .allocate(ids.units[unit.index()], IdentExpr::Const(0))
            .inquire(ids.rs[unit.index()], IdentExpr::Const(0))
            .inquire(ids.rename, IdentExpr::Slot(S_SRC1))
            .inquire(ids.rename, IdentExpr::Slot(S_SRC2))
            .allocate(ids.cq, IdentExpr::ANY)
            .allocate(ids.gren, IdentExpr::Slot(S_GREN))
            .allocate(ids.fren, IdentExpr::Slot(S_FREN))
            .allocate(ids.dbw, IdentExpr::ANY)
            .discard(ids.dbw, IdentExpr::AnyHeld)
            .release(ids.fq, IdentExpr::AnyHeld);
    }

    // Dispatch into the unit's reservation station otherwise (same IU2-
    // before-IU1 preference as the direct path).
    for unit in [Unit::Iu2, Unit::Iu1, Unit::Fpu, Unit::Lsu, Unit::Sru, Unit::Bpu] {
        b.edge(q, r)
            .named(format!("disprs_{}", unit.name()))
            .priority(5)
            .allocate(ids.rs[unit.index()], IdentExpr::Const(0))
            .allocate(ids.cq, IdentExpr::ANY)
            .allocate(ids.gren, IdentExpr::Slot(S_GREN))
            .allocate(ids.fren, IdentExpr::Slot(S_FREN))
            .allocate(ids.dbw, IdentExpr::ANY)
            .discard(ids.dbw, IdentExpr::AnyHeld)
            .release(ids.fq, IdentExpr::AnyHeld);
    }

    // Issue from the reservation station once the awaited producers
    // broadcast and the unit frees.
    for unit in UNITS {
        b.edge(r, e)
            .named(format!("issue_{}", unit.name()))
            .inquire(ids.bus, IdentExpr::Slot(S_WAIT1))
            .inquire(ids.bus, IdentExpr::Slot(S_WAIT2))
            .allocate(ids.units[unit.index()], IdentExpr::Const(0))
            .release(ids.rs[unit.index()], IdentExpr::AnyHeld);
    }

    // Completion: leave the unit (held until the latency timer expires).
    for unit in UNITS {
        b.edge(e, c)
            .named(format!("comp_{}", unit.name()))
            .release(ids.units[unit.index()], IdentExpr::AnyHeld);
    }

    b.edge(c, i)
        .named("retire")
        .allocate(ids.rbw, IdentExpr::ANY)
        .discard(ids.rbw, IdentExpr::AnyHeld)
        .release(ids.cq, IdentExpr::AnyHeld)
        .release(ids.gren, IdentExpr::Slot(S_GREN))
        .release(ids.fren, IdentExpr::Slot(S_FREN));

    b.build().expect("static spec is valid")
}

fn classify_edges(spec: &StateMachineSpec) -> Vec<EdgeKind> {
    spec.edges()
        .map(|e| {
            let name = e.name.as_str();
            let unit_of = |s: &str| UNITS.into_iter().find(|u| u.name() == s).expect("unit");
            match name {
                "fetch" => EdgeKind::Fetch,
                "reset_q" => EdgeKind::ResetQ,
                "reset_r" => EdgeKind::ResetR,
                "reset_e" => EdgeKind::ResetE,
                "reset_c" => EdgeKind::ResetC,
                "retire" => EdgeKind::Retire,
                _ => {
                    if let Some(u) = name.strip_prefix("dispexec_") {
                        EdgeKind::DispExec(unit_of(u))
                    } else if let Some(u) = name.strip_prefix("disprs_") {
                        EdgeKind::DispRs(unit_of(u))
                    } else if let Some(u) = name.strip_prefix("issue_") {
                        EdgeKind::Issue(unit_of(u))
                    } else if let Some(u) = name.strip_prefix("comp_") {
                        EdgeKind::Comp(unit_of(u))
                    } else {
                        unreachable!("unknown edge `{name}`")
                    }
                }
            }
        })
        .collect()
}

/// Per-operation behavior.
#[derive(Debug, Default)]
struct PpcOp {
    seq: u64,
    pc: u32,
    instr: Instr,
    phantom: bool,
    /// Actual direction (right-path control transfers).
    taken: bool,
    /// Actual next PC (right-path).
    next_pc: u32,
    /// Did fetch predict this control transfer wrong?
    mispredicted: bool,
    /// Counts as a prediction event (conditional branch or indirect jump).
    predicted_event: bool,
    mem_addr: Option<u32>,
    is_halting: bool,
    unit: Option<Unit>,
    /// Earliest cycle dispatch may occur (I-cache fill).
    ready_at: u64,
}

impl PpcOp {
    /// Starts execution in `unit`: charges the unit's latency (plus D-cache
    /// penalty for right-path memory operations) to the unit release timer.
    fn start_execute(&mut self, unit: Unit, ctx: &mut TransitionCtx<'_, PpcShared>) {
        self.unit = Some(unit);
        let mut extra = ctx.shared.cfg.lat.of(self.instr.class()).saturating_sub(1);
        if let Some(addr) = self.mem_addr {
            extra += ctx.shared.memsys.data_penalty(addr);
        }
        ctx.shared.unit_timer[unit.index()] = extra;
    }

    fn dispatch_bookkeeping(&mut self, ctx: &mut TransitionCtx<'_, PpcShared>) {
        ctx.shared.next_dispatch_seq += 1;
        if let Some(dest) = self.instr.dest() {
            let rename: &mut RenameFile = ctx.managers.downcast_mut(ctx.shared.ids.rename);
            rename.begin_write(dest.flat_index(), ctx.osm, self.seq);
        }
    }

    /// Branch resolution at completion (right-path only).
    fn resolve_control(&mut self, ctx: &mut TransitionCtx<'_, PpcShared>) {
        if self.instr.class() == InstrClass::Branch {
            ctx.shared.bht.train(self.pc, self.taken);
        }
        if self.predicted_event {
            ctx.shared.branches += 1;
        }
        if self.mispredicted {
            ctx.shared.mispredicts += 1;
            // Kill the speculative operations (paper §4 control hazards).
            let reset: &mut ResetManager = ctx.managers.downcast_mut(ctx.shared.ids.reset);
            for &osm in &ctx.shared.phantoms {
                reset.arm(osm);
            }
            ctx.shared.wrong_path = false;
            ctx.shared.next_fetch_pc = self.next_pc;
            ctx.shared.fetch_seq = self.seq + 1;
            ctx.shared.next_dispatch_seq = self.seq + 1;
            let bus: &mut ResultBus = ctx.managers.downcast_mut(ctx.shared.ids.bus);
            bus.squash_above(self.seq);
        }
    }
}

impl Behavior<PpcShared> for PpcOp {
    fn snapshot(&self) -> Option<Vec<u8>> {
        let mut w = ByteWriter::new();
        w.put_u64(self.seq);
        w.put_u32(self.pc);
        // `instr` always comes from `decode` (or is the NOP), and every
        // decoded instruction re-encodes.
        w.put_u32(encode(self.instr).expect("decoded instructions re-encode"));
        w.put_bool(self.phantom);
        w.put_bool(self.taken);
        w.put_u32(self.next_pc);
        w.put_bool(self.mispredicted);
        w.put_bool(self.predicted_event);
        match self.mem_addr {
            None => w.put_bool(false),
            Some(a) => {
                w.put_bool(true);
                w.put_u32(a);
            }
        }
        w.put_bool(self.is_halting);
        // Unit as a tag: 0 = none, else 1 + index into `UNITS`.
        w.put_u8(self.unit.map_or(0, |u| u.index() as u8 + 1));
        w.put_u64(self.ready_at);
        Some(w.into_bytes())
    }

    fn restore(&mut self, section: Option<&[u8]>) -> bool {
        let parsed = section.and_then(|bytes| {
            ByteReader::read_all(bytes, |r| {
                let seq = r.take_u64()?;
                let pc = r.take_u32()?;
                let instr = decode(r.take_u32()?).ok()?;
                let phantom = r.take_bool()?;
                let taken = r.take_bool()?;
                let next_pc = r.take_u32()?;
                let mispredicted = r.take_bool()?;
                let predicted_event = r.take_bool()?;
                let mem_addr = if r.take_bool()? {
                    Some(r.take_u32()?)
                } else {
                    None
                };
                let is_halting = r.take_bool()?;
                let unit = match r.take_u8()? {
                    0 => None,
                    t => Some(*UNITS.get(t as usize - 1)?),
                };
                Some(PpcOp {
                    seq,
                    pc,
                    instr,
                    phantom,
                    taken,
                    next_pc,
                    mispredicted,
                    predicted_event,
                    mem_addr,
                    is_halting,
                    unit,
                    ready_at: r.take_u64()?,
                })
            })
        });
        let Some(op) = parsed else {
            return false;
        };
        *self = op;
        true
    }

    fn enabled_edges(&self, _: &StateMachineSpec, view: &OsmView<'_>, shared: &PpcShared) -> u64 {
        let bits = &shared.edge_bits[view.state.index()];
        let mut enabled = bits.reset;
        if !shared.stop_fetch && shared.fetch_stall == 0 {
            enabled |= bits.fetch;
        }
        if self.seq == shared.next_dispatch_seq && shared.now >= self.ready_at {
            for u in units_for(self.instr.class()) {
                enabled |= bits.dispatch[u.index()];
            }
        }
        if let Some(u) = self.unit {
            enabled |= bits.unit[u.index()];
        }
        if !self.phantom && self.seq == shared.next_retire_seq {
            enabled |= bits.retire;
        }
        enabled
    }

    fn on_transition(&mut self, edge: &Edge, ctx: &mut TransitionCtx<'_, PpcShared>) {
        let kind = ctx.shared.edge_kinds[edge.id.index()];
        match kind {
            EdgeKind::Fetch => {
                *self = PpcOp::default();
                self.seq = ctx.shared.fetch_seq;
                ctx.shared.fetch_seq += 1;
                ctx.set_slot(S_WAIT1, TokenIdent::NONE);
                ctx.set_slot(S_WAIT2, TokenIdent::NONE);

                if ctx.shared.wrong_path {
                    // Phantom: decode straight from memory, no ISS.
                    self.phantom = true;
                    self.pc = ctx.shared.next_fetch_pc;
                    ctx.shared.next_fetch_pc = self.pc.wrapping_add(4);
                    let word = ctx.shared.oracle.mem.read_u32(self.pc);
                    self.instr = decode(word).unwrap_or(Instr::NOP);
                    ctx.shared.phantoms.push(ctx.osm);
                } else {
                    let s = &mut *ctx.shared;
                    let f = fetch_right_path(&mut s.oracle, &mut s.bht);
                    if let Some(e) = f.error {
                        s.error.get_or_insert_with(|| e.to_string());
                    }
                    self.pc = f.pc;
                    self.instr = f.instr;
                    self.next_pc = f.next_pc;
                    self.taken = f.taken;
                    self.mem_addr = f.mem_addr;
                    self.is_halting = f.is_halting;
                    self.predicted_event = f.predicted_event;
                    self.mispredicted = f.mispredicted();
                    s.stop_fetch |= f.is_halting;
                    s.wrong_path |= self.mispredicted;
                    s.next_fetch_pc = f.predicted_next;
                }

                // Initialize dispatch-time identifiers (paper §4).
                let sources = self.instr.sources();
                let src = |k: usize| {
                    sources
                        .get(k)
                        .map(|r| RenameFile::value_ident(r.flat_index()))
                        .unwrap_or(TokenIdent::NONE)
                };
                ctx.set_slot(S_SRC1, src(0));
                ctx.set_slot(S_SRC2, src(1));
                let (g, f) = match self.instr.dest() {
                    Some(minirisc::ArchReg::Gpr(_)) => (TokenIdent::ANY, TokenIdent::NONE),
                    Some(minirisc::ArchReg::Fpr(_)) => (TokenIdent::NONE, TokenIdent::ANY),
                    None => (TokenIdent::NONE, TokenIdent::NONE),
                };
                ctx.set_slot(S_GREN, g);
                ctx.set_slot(S_FREN, f);

                // I-cache access; a miss stalls fetch and delays dispatch.
                let penalty = ctx.shared.memsys.fetch_penalty(self.pc);
                if penalty > 0 {
                    ctx.shared.fetch_stall = penalty;
                }
                self.ready_at = ctx.shared.now + 1 + penalty as u64;
            }
            EdgeKind::DispExec(unit) => {
                self.dispatch_bookkeeping(ctx);
                self.start_execute(unit, ctx);
            }
            EdgeKind::DispRs(unit) => {
                // Capture the producers to wait for *before* renaming the
                // destination (the instruction may read its own dest reg).
                let sources = self.instr.sources();
                {
                    let rename: &RenameFile = ctx.managers.downcast(ctx.shared.ids.rename);
                    let wait = |k: usize| {
                        sources
                            .get(k)
                            .and_then(|r| rename.pending_producer(r.flat_index()))
                            .map(ResultBus::seq_ident)
                            .unwrap_or(TokenIdent::NONE)
                    };
                    let w1 = wait(0);
                    let w2 = wait(1);
                    ctx.set_slot(S_WAIT1, w1);
                    ctx.set_slot(S_WAIT2, w2);
                }
                self.unit = Some(unit);
                self.dispatch_bookkeeping(ctx);
            }
            EdgeKind::Issue(unit) => {
                self.start_execute(unit, ctx);
            }
            EdgeKind::Comp(_) => {
                if !self.phantom {
                    if let Some(dest) = self.instr.dest() {
                        let rename: &mut RenameFile =
                            ctx.managers.downcast_mut(ctx.shared.ids.rename);
                        rename.complete_write(dest.flat_index(), self.seq);
                    }
                    let bus: &mut ResultBus = ctx.managers.downcast_mut(ctx.shared.ids.bus);
                    bus.complete(self.seq);
                    if self.instr.is_control() || self.mispredicted {
                        self.resolve_control(ctx);
                    }
                }
            }
            EdgeKind::Retire => {
                ctx.shared.next_retire_seq += 1;
                ctx.shared.retired += 1;
                if let Some(dest) = self.instr.dest() {
                    let rename: &mut RenameFile = ctx.managers.downcast_mut(ctx.shared.ids.rename);
                    rename.retire_write(dest.flat_index(), self.seq);
                }
                let bus: &mut ResultBus = ctx.managers.downcast_mut(ctx.shared.ids.bus);
                bus.retire_up_to(self.seq + 1);
                if self.is_halting {
                    ctx.shared.halted = true;
                }
            }
            EdgeKind::ResetQ | EdgeKind::ResetR | EdgeKind::ResetE | EdgeKind::ResetC => {
                let osm = ctx.osm;
                ctx.shared.squashed += 1;
                ctx.shared.phantoms.retain(|o| *o != osm);
                // Undo the rename if this phantom had dispatched.
                if !matches!(kind, EdgeKind::ResetQ) {
                    if let Some(dest) = self.instr.dest() {
                        let rename: &mut RenameFile =
                            ctx.managers.downcast_mut(ctx.shared.ids.rename);
                        rename.abort_write(dest.flat_index(), self.seq);
                    }
                }
                // Free the unit's latency timer if we died mid-execution.
                if matches!(kind, EdgeKind::ResetE) {
                    if let Some(unit) = self.unit {
                        ctx.shared.unit_timer[unit.index()] = 0;
                        let pool: &mut ExclusivePool =
                            ctx.managers.downcast_mut(ctx.shared.ids.units[unit.index()]);
                        pool.block_release(0, false);
                    }
                }
                let reset: &mut ResetManager = ctx.managers.downcast_mut(ctx.shared.ids.reset);
                reset.disarm(osm);
            }
        }
    }
}

/// The OSM-based PowerPC-750 simulator, a model runner of the same shape
/// as every OSM model's: build it, run it to halt, read the result.
/// Stepping, checkpoints, fault injection and the stall watchdog are the
/// [`Machine`]'s; the manager handles are `machine().shared.ids` and the
/// Fig. 2 spec is `machine().specs()[0]`.
pub struct PpcOsmSim {
    machine: Machine<PpcShared>,
}

impl std::fmt::Debug for PpcOsmSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PpcOsmSim")
            .field("cycle", &self.machine.cycle())
            .field("retired", &self.machine.shared.retired)
            .finish()
    }
}

impl PpcOsmSim {
    /// Builds the model and loads `program`.
    pub fn new(cfg: PpcConfig, program: &Program) -> Self {
        let mut managers = ManagerTable::new();
        let ids = PpcManagers {
            fq: managers.add(ExclusivePool::new("fetch-queue", cfg.fetch_queue)),
            fbw: managers.add(CountingPool::per_cycle("fetch-bw", cfg.fetch_bw)),
            dbw: managers.add(CountingPool::per_cycle("dispatch-bw", cfg.dispatch_bw)),
            rbw: managers.add(CountingPool::per_cycle("retire-bw", cfg.retire_bw)),
            cq: managers.add(ExclusivePool::new("completion-queue", cfg.completion_queue)),
            gren: managers.add(CountingPool::new("gpr-rename", cfg.gpr_rename)),
            fren: managers.add(CountingPool::new("fpr-rename", cfg.fpr_rename)),
            rename: managers.add(RenameFile::new("rename-map", 64)),
            bus: managers.add(ResultBus::new("result-bus")),
            units: UNITS.map(|u| managers.add(ExclusivePool::new(format!("unit-{}", u.name()), 1))),
            rs: UNITS.map(|u| managers.add(ExclusivePool::new(format!("rs-{}", u.name()), 1))),
            reset: managers.add(ResetManager::new("reset")),
        };
        let spec = build_spec(&ids);
        let edge_kinds = classify_edges(&spec);
        let oracle = Iss::with_program(SparseMemory::new(), program);
        let next_fetch_pc = oracle.cpu.pc;
        let shared = PpcShared {
            oracle,
            error: None,
            memsys: MemSystem::new(cfg.mem),
            bht: Bht::new(cfg.bht_entries),
            now: 0,
            next_fetch_pc,
            wrong_path: false,
            stop_fetch: false,
            halted: false,
            fetch_seq: 0,
            next_dispatch_seq: 0,
            next_retire_seq: 0,
            phantoms: Vec::new(),
            fetch_stall: 0,
            unit_timer: [0; 6],
            retired: 0,
            squashed: 0,
            branches: 0,
            mispredicts: 0,
            edge_bits: EdgeBits::of(&spec, &edge_kinds),
            edge_kinds,
            ids,
            cfg,
        };
        let mut machine = Machine::new(shared);
        machine.managers = managers;
        for _ in 0..cfg.osm_count.max(cfg.fetch_queue + cfg.completion_queue + 2) {
            machine.add_osm(&spec, PpcOp::default());
        }
        machine.set_restart_policy(RestartPolicy::NoRestart);
        PpcOsmSim { machine }
    }

    /// The underlying machine (stepping, checkpoints, stats, the metrics
    /// and stall reports; `osm_core::export` renders its event log).
    pub fn machine(&self) -> &Machine<PpcShared> {
        &self.machine
    }

    /// Mutable access to the machine (scheduler mode, the stall watchdog,
    /// fault injection through its `managers`, checkpoint restore, the
    /// observability switches such as [`Machine::enable_observability`]).
    pub fn machine_mut(&mut self) -> &mut Machine<PpcShared> {
        &mut self.machine
    }

    /// Unwraps the underlying machine (manager handles stay in
    /// `shared.ids`).
    pub fn into_machine(self) -> Machine<PpcShared> {
        self.machine
    }

    /// Runs until halt or until the machine reaches cycle `max_cycles`.
    ///
    /// # Errors
    /// Propagates [`ModelError`] (deadlock, a tripped stall watchdog).
    pub fn run_to_halt(&mut self, max_cycles: u64) -> Result<PpcResult, ModelError> {
        let budget = max_cycles.saturating_sub(self.machine.cycle());
        self.machine.run_until(budget, |m| m.shared.halted())?;
        Ok(self.result())
    }

    /// One-line scheduler state dump (for model-diff debugging).
    #[doc(hidden)]
    pub fn debug_state(&self) -> String {
        let mut counts = std::collections::BTreeMap::new();
        for osm in self.machine.osms() {
            *counts.entry(osm.state_name().to_owned()).or_insert(0u32) += 1;
        }
        format!(
            "disp={} ret={} states={:?}",
            self.machine.shared.next_dispatch_seq, self.machine.shared.next_retire_seq, counts
        )
    }

    /// Snapshot of the result counters.
    pub fn result(&self) -> PpcResult {
        let s = &self.machine.shared;
        PpcResult {
            cycles: self.machine.cycle(),
            retired: s.retired,
            squashed: s.squashed,
            branches: s.branches,
            mispredicts: s.mispredicts,
            exit_code: s.oracle.exit_code,
            output: s.oracle.output.clone(),
            icache_misses: s.memsys.icache.stats.misses,
            dcache_misses: s.memsys.dcache.stats.misses,
            error: s.error.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minirisc::assemble;

    fn run(src: &str) -> PpcResult {
        let p = assemble(src, 0x1000).expect("assembles");
        let mut sim = PpcOsmSim::new(PpcConfig::paper(), &p);
        let r = sim.run_to_halt(1_000_000).expect("no deadlock");
        assert!(sim.machine.shared.halted, "program did not halt");
        r
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
    fn functional_result_matches_iss() {
        let r = run(SUM_LOOP);
        assert_eq!(r.exit_code, 55);
        let p = assemble(SUM_LOOP, 0x1000).unwrap();
        let mut iss = minirisc::Iss::with_program(minirisc::SparseMemory::new(), &p);
        iss.run(100_000).unwrap();
        assert_eq!(r.retired, iss.retired);
        assert_eq!(r.output, iss.output);
    }

    #[test]
    fn undecodable_right_path_word_halts_with_the_iss_error() {
        let mut p = assemble("nop\n", 0x1000).unwrap();
        p.words.push(0xFF00_0000);
        let iss_error = minirisc::Iss::with_program(minirisc::SparseMemory::new(), &p)
            .run(10)
            .unwrap_err();
        let mut sim = PpcOsmSim::new(PpcConfig::paper(), &p);
        let r = sim.run_to_halt(10_000).expect("no deadlock");
        let shared = &sim.machine().shared;
        assert!(shared.halted);
        assert_eq!(shared.error, Some(iss_error.to_string()));
        // The nop, then the word as a halting op.
        assert_eq!(r.retired, 2);
        assert_eq!(shared.oracle.retired, 1);
    }

    #[test]
    fn dual_issue_beats_single_issue_shape() {
        // Independent ALU ops in a hot loop: IPC should exceed 1 (dual
        // dispatch across IU1/IU2).
        let mut src = String::from("li r1, 300\nloop:\n");
        for k in 0..12 {
            src.push_str(&format!("addi r{}, r0, {}\n", 2 + (k % 6), k));
        }
        src.push_str("addi r1, r1, -1\nbne r1, r0, loop\nhalt\n");
        let r = run(&src);
        assert!(
            r.cpi() < 0.95,
            "cpi {} should reflect dual issue",
            r.cpi()
        );
    }

    #[test]
    fn branch_predictor_learns_loop() {
        let r = run(SUM_LOOP);
        // The backward branch is taken 9 times; after two taken executions
        // the 2-bit counter predicts taken. Expect only a few mispredicts
        // (warm-up + final not-taken).
        assert!(r.branches >= 10);
        assert!(
            r.mispredicts <= 4,
            "too many mispredicts: {} of {}",
            r.mispredicts,
            r.branches
        );
        assert!(r.mispredicts >= 1);
    }

    #[test]
    fn mispredicts_squash_phantoms() {
        // Alternating branch direction defeats the 2-bit counter.
        let r = run(
            "
            li r1, 40
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
        ",
        );
        assert_eq!(r.exit_code, 20);
        assert!(r.squashed > 0, "alternating branch must squash");
        assert!(r.mispredicts > 5);
    }

    #[test]
    fn reservation_station_path_is_used() {
        // A dependency chain forces RS waiting; the machine must still
        // complete correctly.
        let r = run(
            "
            li r1, 1
            mul r2, r1, r1
            mul r3, r2, r2
            add r4, r3, r3
            li r10, 0
            add r11, r4, r0
            syscall
        ",
        );
        assert_eq!(r.exit_code, 2);
    }

    #[test]
    fn fp_and_int_units_overlap() {
        let fp_mixed = run(
            "
            li r1, 50
            li r2, 3
            cvtsw f1, r2
            cvtsw f2, r1
        loop:
            fmul f3, f1, f2
            addi r4, r4, 1
            addi r5, r5, 2
            addi r1, r1, -1
            bne r1, r0, loop
            halt
        ",
        );
        // FP multiply (4 cycles) overlaps integer work: CPI well under the
        // serial bound of (4+3+1)/5.
        assert!(fp_mixed.cpi() < 1.6, "cpi {}", fp_mixed.cpi());
    }

    #[test]
    fn in_order_retirement_and_completion_queue_bound() {
        // div (19 cycles) followed by many independent adds: the adds finish
        // early out of order but cannot retire past the div (completion
        // queue fills), bounding how far the frontend runs ahead.
        let r = run(
            "
            li r1, 9
            li r2, 3
            div r3, r1, r2
            addi r4, r0, 1
            addi r5, r0, 2
            addi r6, r0, 3
            addi r7, r0, 4
            addi r8, r0, 5
            addi r9, r0, 6
            addi r12, r0, 7
            addi r13, r0, 8
            li r10, 0
            add r11, r3, r0
            syscall
        ",
        );
        assert_eq!(r.exit_code, 3);
        // The div's latency dominates: total cycles must exceed it.
        assert!(r.cycles > 19);
    }

    #[test]
    fn load_store_traffic_is_correct() {
        let r = run(
            "
            la r1, buf
            li r2, 16
            li r3, 0
        fill:
            sw r2, 0(r1)
            addi r1, r1, 4
            addi r2, r2, -1
            bne r2, r0, fill
            la r1, buf
            li r2, 16
        sum:
            lw r4, 0(r1)
            add r3, r3, r4
            addi r1, r1, 4
            addi r2, r2, -1
            bne r2, r0, sum
            li r10, 0
            add r11, r3, r0
            syscall
        buf:
            .space 64
        ",
        );
        assert_eq!(r.exit_code, 136);
        assert!(r.dcache_misses > 0);
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run(SUM_LOOP);
        let b = run(SUM_LOOP);
        assert_eq!(a, b);
    }

    impl PpcOp {
        /// The veto rule one edge at a time: the oracle `enabled_edges`
        /// answers for a whole state at once.
        fn edge_rule(&self, kind: EdgeKind, shared: &PpcShared) -> bool {
            match kind {
                EdgeKind::Fetch => !shared.stop_fetch && shared.fetch_stall == 0,
                EdgeKind::DispExec(u) | EdgeKind::DispRs(u) => {
                    self.seq == shared.next_dispatch_seq
                        && shared.now >= self.ready_at
                        && units_for(self.instr.class()).contains(&u)
                }
                EdgeKind::Issue(u) | EdgeKind::Comp(u) => self.unit == Some(u),
                EdgeKind::Retire => !self.phantom && self.seq == shared.next_retire_seq,
                EdgeKind::ResetQ | EdgeKind::ResetR | EdgeKind::ResetE | EdgeKind::ResetC => true,
            }
        }
    }

    #[test]
    fn enabled_edges_match_the_per_edge_rule_everywhere() {
        // One instruction of every class.
        let p = assemble(
            "add r1, r2, r3\n mul r1, r2, r3\n div r1, r2, r3\n lw r1, 0(r2)\n \
             sw r1, 0(r2)\n x: beq r1, r2, x\n jal r31, x\n fadd f1, f2, f3\n \
             fmul f1, f2, f3\n fdiv f1, f2, f3\n syscall\n",
            0x1000,
        )
        .unwrap();
        let instrs: Vec<Instr> = p.words.iter().map(|&w| decode(w).unwrap()).collect();
        let classes: std::collections::BTreeSet<String> =
            instrs.iter().map(|i| format!("{:?}", i.class())).collect();
        assert_eq!(classes.len(), 11, "{classes:?}");

        let sim = PpcOsmSim::new(PpcConfig::paper(), &p);
        let spec = Arc::clone(&sim.machine().specs()[0]);
        let mut shared = sim.into_machine().shared;
        shared.now = 10;
        let mut checked = 0;
        // Every value the rule tells apart: fetch stopped or stalled, the
        // op (`seq` 7) next to dispatch or retire or not, a phantom or not,
        // `ready_at` before, at or after `now`.
        for case in 0..96u64 {
            let bit = |k: u32| case >> k & 1 == 1;
            shared.stop_fetch = bit(0);
            shared.fetch_stall = u32::from(bit(1));
            shared.next_dispatch_seq = 7 + u64::from(bit(2));
            shared.next_retire_seq = 7 + u64::from(bit(3));
            for unit in std::iter::once(None).chain(UNITS.map(Some)) {
                for &instr in &instrs {
                    let op = PpcOp {
                        seq: 7,
                        phantom: bit(4),
                        ready_at: 9 + (case >> 5),
                        unit,
                        instr,
                        ..PpcOp::default()
                    };
                    for state in spec.states() {
                        let view = OsmView {
                            id: OsmId(0),
                            state,
                            age: 0,
                            tag: 0,
                            slots: &[],
                            buffer: &[],
                        };
                        let rule = spec.edge_mask(state, |e| {
                            op.edge_rule(shared.edge_kinds[e.id.index()], &shared)
                        });
                        assert_eq!(
                            op.enabled_edges(&spec, &view, &shared),
                            rule,
                            "case {case} state {} unit {unit:?} class {:?}",
                            spec.state_name(state),
                            instr.class(),
                        );
                        checked += 1;
                    }
                }
            }
        }
        assert_eq!(checked, 96 * 7 * 11 * 5);
    }

    #[test]
    fn spec_is_figure2_shaped() {
        let p = assemble("halt\n", 0).unwrap();
        let sim = PpcOsmSim::new(PpcConfig::paper(), &p);
        let spec = &sim.machine().specs()[0];
        assert_eq!(spec.state_count(), 5);
        // fetch + 4 resets + 6 dispexec + 6 disprs + 6 issue + 6 comp + retire
        assert_eq!(spec.edge_count(), 30);
        // Q has both direct-to-unit and to-RS outgoing edges (Fig. 2's
        // multiple execution paths).
        let q = spec.find_state("Q").unwrap();
        assert!(spec.out_edges(q).len() >= 13);
    }

    #[test]
    fn checkpoint_restore_replays_exactly() {
        // Checkpoint mid-run, keep running, then rewind the same simulator
        // and verify the continuation is identical.
        let p = assemble(SUM_LOOP, 0x1000).unwrap();
        let mut sim = PpcOsmSim::new(PpcConfig::paper(), &p);
        sim.machine_mut().run(25).unwrap();
        let ckpt = sim.machine().checkpoint().unwrap();
        let reference = sim.run_to_halt(100_000).unwrap();
        sim.machine_mut().restore(&ckpt).unwrap();
        assert_eq!(sim.machine().cycle(), 25);
        let replay = sim.run_to_halt(100_000).unwrap();
        assert_eq!(replay, reference);
    }

    #[test]
    fn checkpoint_restores_into_fresh_sim_replays_exactly() {
        // Use the alternating-branch program so the checkpoint lands with
        // wrong-path phantoms, BHT training, rename traffic and squashes in
        // flight — the hardest state to round-trip through bytes.
        let src = "
            li r1, 40
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
        let p = assemble(src, 0x1000).unwrap();
        let mut sim = PpcOsmSim::new(PpcConfig::paper(), &p);
        sim.machine_mut().run(60).unwrap();
        let bytes = sim.machine().checkpoint().unwrap();
        let reference = sim.run_to_halt(1_000_000).unwrap();
        drop(sim); // the original is gone — restore must work from bytes alone

        let mut fresh = PpcOsmSim::new(PpcConfig::paper(), &p);
        fresh.machine_mut().restore(&bytes).unwrap();
        assert_eq!(fresh.machine().cycle(), 60);
        let replay = fresh.run_to_halt(1_000_000).unwrap();
        assert_eq!(replay, reference);

        // A flipped byte anywhere must be caught by the seal.
        let mut bad = bytes.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x40;
        let mut victim = PpcOsmSim::new(PpcConfig::paper(), &p);
        assert!(victim.machine_mut().restore(&bad).is_err());

        // A differently-configured machine refuses the bytes.
        let other_cfg = PpcConfig {
            bht_entries: 128,
            ..PpcConfig::paper()
        };
        let mut other = PpcOsmSim::new(other_cfg, &p);
        assert!(other.machine_mut().restore(&bytes).is_err());
    }

    #[test]
    fn jalr_always_mispredicts() {
        let r = run(
            "
            la r1, target
            jalr r31, 0(r1)
            nop
        target:
            halt
        ",
        );
        assert!(r.mispredicts >= 1);
        assert!(r.squashed >= 1);
    }
}
