//! The bundle scheduler — a miniature VLIW compiler back end.
//!
//! VLIW machines move hazard resolution from hardware to the compiler: the
//! scheduler pairs independent operations into two-slot bundles (slot 1
//! restricted to simple ALU work, as on most VLIWs), pads with NOPs where no
//! pair exists, keeps branch targets at bundle boundaries and re-targets
//! branches to bundle indices.
//!
//! Input programs are position-independent [`VliwIr`] code: branch targets
//! are instruction indices, and data lives in a separate segment the code
//! addresses absolutely (`li` of [`crate::DATA_BASE`]-relative addresses).

use minirisc::{AluOp, BranchCond, Instr, InstrClass, Reg};
use std::collections::BTreeMap;

/// VLIW intermediate representation: straight-line instructions with
/// index-based branch targets.
#[derive(Debug, Clone, Default)]
pub struct VliwIr {
    /// The instructions. Branch/jal offsets are *overwritten* by the
    /// scheduler; use [`VliwIr::branch`]/[`VliwIr::jump`] to record targets.
    pub instrs: Vec<Instr>,
    /// `instr index -> target instr index` for control transfers.
    pub targets: BTreeMap<usize, usize>,
}

impl VliwIr {
    /// Creates an empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a non-control instruction; returns its index.
    pub fn push(&mut self, i: Instr) -> usize {
        self.instrs.push(i);
        self.instrs.len() - 1
    }

    /// Appends a conditional branch to instruction index `target`.
    pub fn branch(&mut self, i: Instr, target: usize) -> usize {
        debug_assert!(matches!(i, Instr::Branch { .. }));
        let at = self.push(i);
        self.targets.insert(at, target);
        at
    }

    /// Appends an unconditional jump to instruction index `target`.
    pub fn jump(&mut self, i: Instr, target: usize) -> usize {
        debug_assert!(matches!(i, Instr::Jal { .. }));
        let at = self.push(i);
        self.targets.insert(at, target);
        at
    }
}

/// A countdown loop: `r1` counts `iters` iterations down to zero around a
/// body of `body` independent adds (into `r2`..`r7` in turn, immediate
/// `k % 4096` for the `k`-th), then exits through a syscall reporting `r1`
/// (0 on a completed countdown). The body pairs into full bundles, so the
/// loop is the workspace's slot-parallel (ILP) VLIW workload.
pub fn ilp_loop(iters: i32, body: usize) -> VliwIr {
    let addi = |rd: u8, rs1: u8, imm: i32| Instr::AluImm {
        op: AluOp::Add,
        rd: Reg(rd),
        rs1: Reg(rs1),
        imm,
    };
    let mut ir = VliwIr::new();
    ir.push(addi(1, 0, iters));
    let top = ir.instrs.len();
    for k in 0..body {
        ir.push(addi(2 + (k % 6) as u8, 0, (k % 4096) as i32));
    }
    ir.push(addi(1, 1, -1));
    ir.branch(
        Instr::Branch {
            cond: BranchCond::Ne,
            rs1: Reg(1),
            rs2: Reg(0),
            offset: 0,
        },
        top,
    );
    ir.push(addi(10, 0, 0));
    ir.push(Instr::Alu {
        op: AluOp::Add,
        rd: Reg(11),
        rs1: Reg(1),
        rs2: Reg(0),
    });
    ir.push(Instr::Syscall);
    ir
}

/// One two-slot bundle. Slot 1 is [`Instr::NOP`] when unpaired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bundle {
    /// The two operation slots.
    pub slots: [Instr; 2],
}

impl Bundle {
    /// True if slot 1 carries real work.
    pub fn is_pair(&self) -> bool {
        self.slots[1] != Instr::NOP
    }
}

/// A scheduled VLIW program: bundles plus the initial data segment.
#[derive(Debug, Clone, Default)]
pub struct VliwProgram {
    /// The bundle stream; control transfers target bundle indices.
    pub bundles: Vec<Bundle>,
    /// Initial contents of the data segment (at [`crate::DATA_BASE`]).
    pub data: Vec<u32>,
    /// `bundle index -> target bundle index` for the control op in slot 0.
    pub targets: BTreeMap<usize, usize>,
}

impl VliwProgram {
    /// Static operation count (NOP padding excluded).
    pub fn op_count(&self) -> usize {
        self.bundles
            .iter()
            .map(|b| 1 + usize::from(b.is_pair()))
            .sum()
    }

    /// NOP-padding fraction (the classic VLIW code-density cost).
    pub fn nop_fraction(&self) -> f64 {
        if self.bundles.is_empty() {
            return 0.0;
        }
        let nops = self.bundles.iter().filter(|b| !b.is_pair()).count();
        nops as f64 / (2 * self.bundles.len()) as f64
    }
}

fn is_slot1_eligible(i: &Instr) -> bool {
    matches!(i.class(), InstrClass::IntAlu)
}

/// True if `b` may share a bundle with `a` placed in slot 0 (no intra-bundle
/// RAW/WAW/WAR — VLIW slots read before any slot writes, but we keep the
/// stronger independence so sequential per-slot execution is equivalent).
fn independent(a: &Instr, b: &Instr) -> bool {
    let a_dest = a.dest();
    let b_dest = b.dest();
    if a_dest.is_some() && a_dest == b_dest {
        return false; // WAW
    }
    if let Some(d) = a_dest {
        if b.sources().contains(&d) {
            return false; // RAW
        }
    }
    if let Some(d) = b_dest {
        if a.sources().contains(&d) {
            return false; // WAR (order-sensitive under sequential slots)
        }
    }
    true
}

/// Schedules `ir` into two-slot bundles with `data` as the data segment.
///
/// Greedy pairing within basic blocks: a branch target always starts a new
/// bundle, control and memory operations occupy slot 0 alone or pair with a
/// following simple ALU op, and pairs must be independent.
pub fn schedule(ir: &VliwIr, data: Vec<u32>) -> VliwProgram {
    let n = ir.instrs.len();
    // Leaders: branch targets and fall-through successors of control ops.
    let mut leader = vec![false; n.max(1)];
    if n > 0 {
        leader[0] = true;
    }
    for (&from, &to) in &ir.targets {
        if to < n {
            leader[to] = true;
        }
        if from + 1 < n {
            leader[from + 1] = true;
        }
    }

    let mut bundles = Vec::new();
    let mut instr_to_bundle = vec![0usize; n];
    let mut control_from: BTreeMap<usize, usize> = BTreeMap::new(); // bundle -> instr idx
    let mut k = 0;
    while k < n {
        let first = ir.instrs[k];
        instr_to_bundle[k] = bundles.len();
        let mut second = Instr::NOP;
        let can_pair = k + 1 < n
            && !leader[k + 1]
            && !first.is_control()
            && is_slot1_eligible(&ir.instrs[k + 1])
            && independent(&first, &ir.instrs[k + 1]);
        if can_pair {
            second = ir.instrs[k + 1];
            instr_to_bundle[k + 1] = bundles.len();
        }
        if ir.targets.contains_key(&k) {
            control_from.insert(bundles.len(), k);
        }
        bundles.push(Bundle {
            slots: [first, second],
        });
        k += if can_pair { 2 } else { 1 };
    }

    // Re-target control transfers to bundle indices.
    let mut targets = BTreeMap::new();
    for (bundle, instr_idx) in control_from {
        let target_instr = ir.targets[&instr_idx];
        let target_bundle = if target_instr < n {
            instr_to_bundle[target_instr]
        } else {
            bundles.len() // jump past the end = halt-ish
        };
        targets.insert(bundle, target_bundle);
    }

    VliwProgram {
        bundles,
        data,
        targets,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minirisc::{AluOp, BranchCond, Reg};

    fn addi(rd: u8, rs1: u8, imm: i32) -> Instr {
        Instr::AluImm {
            op: AluOp::Add,
            rd: Reg(rd),
            rs1: Reg(rs1),
            imm,
        }
    }

    #[test]
    fn independent_ops_pair() {
        let mut ir = VliwIr::new();
        ir.push(addi(1, 0, 1));
        ir.push(addi(2, 0, 2));
        ir.push(addi(3, 0, 3));
        ir.push(addi(4, 0, 4));
        let p = schedule(&ir, vec![]);
        assert_eq!(p.bundles.len(), 2);
        assert!(p.bundles.iter().all(Bundle::is_pair));
        assert_eq!(p.nop_fraction(), 0.0);
        assert_eq!(p.op_count(), 4);
    }

    #[test]
    fn raw_dependence_splits_bundle() {
        let mut ir = VliwIr::new();
        ir.push(addi(1, 0, 1));
        ir.push(addi(2, 1, 1)); // reads r1
        let p = schedule(&ir, vec![]);
        assert_eq!(p.bundles.len(), 2);
        assert!(!p.bundles[0].is_pair());
        assert!(p.nop_fraction() > 0.0);
    }

    #[test]
    fn waw_and_war_split_bundles() {
        let mut ir = VliwIr::new();
        ir.push(addi(1, 0, 1));
        ir.push(addi(1, 0, 2)); // WAW on r1
        let p = schedule(&ir, vec![]);
        assert_eq!(p.bundles.len(), 2);
        let mut ir = VliwIr::new();
        ir.push(addi(2, 1, 0)); // reads r1
        ir.push(addi(1, 0, 5)); // writes r1 (WAR)
        let p = schedule(&ir, vec![]);
        assert_eq!(p.bundles.len(), 2);
    }

    #[test]
    fn branches_end_bundles_and_targets_are_leaders() {
        let mut ir = VliwIr::new();
        let top = ir.push(addi(1, 1, -1)); // index 0, loop head
        ir.push(addi(2, 0, 7));
        ir.branch(
            Instr::Branch {
                cond: BranchCond::Ne,
                rs1: Reg(1),
                rs2: Reg(0),
                offset: 0,
            },
            top,
        );
        let p = schedule(&ir, vec![]);
        // addi+addi pair (independent), then the branch alone.
        assert_eq!(p.bundles.len(), 2);
        assert!(!p.bundles[1].is_pair());
        assert_eq!(p.targets[&1], 0);
    }

    #[test]
    fn control_ops_never_take_slot1() {
        let mut ir = VliwIr::new();
        ir.push(addi(1, 0, 1));
        ir.jump(
            Instr::Jal {
                rd: Reg(0),
                offset: 0,
            },
            0,
        );
        let p = schedule(&ir, vec![]);
        assert_eq!(p.bundles.len(), 2, "jump must not pair into slot 1");
    }

    #[test]
    fn memory_op_may_lead_but_not_follow() {
        let lw = Instr::Load {
            width: minirisc::MemWidth::Word,
            unsigned: false,
            rd: Reg(3),
            rs1: Reg(1),
            offset: 0,
        };
        let mut ir = VliwIr::new();
        ir.push(lw);
        ir.push(addi(2, 0, 5));
        let p = schedule(&ir, vec![]);
        assert_eq!(p.bundles.len(), 1, "load pairs with a following ALU op");
        let mut ir = VliwIr::new();
        ir.push(addi(2, 0, 5));
        ir.push(lw);
        let p = schedule(&ir, vec![]);
        assert_eq!(p.bundles.len(), 2, "loads are slot-0 only");
    }
}
