//! The token manager interface's two-phase contract, checked on every
//! manager the workspace ships. The Fast scheduler's skip proofs and the
//! director's try-then-abort probe rest on two facts, stated on a manager's
//! checkpoint bytes (`snapshot_state`):
//!
//! 1. A prepare the manager refuses, or one followed by its abort, leaves
//!    the bytes unchanged: probing is free of side effects.
//! 2. A `clock` returns `true` exactly when it changes the bytes. Soundness:
//!    a changing clock reports dirty, so a blocked OSM whose proof rests on
//!    the manager is re-evaluated. Precision: a clock that changes nothing
//!    reports clean, so those proofs survive it.
//!
//! Clocks come with strictly increasing cycles, as the machine gives them;
//! a `FaultInjector` writes its cycle into its bytes, so each of its clocks
//! changes them.

use osm_repro::osm_core::{
    CountingPool, ExclusivePool, FaultInjector, FaultPlan, OsmId, RegScoreboard, ResetManager,
    Token, TokenIdent, TokenManager,
};
use osm_repro::ppc750::{RenameFile, ResultBus};
use osm_repro::sa1100::RegForwardFile;
use proptest::prelude::*;

/// One step of a random Λ sequence against a manager.
#[derive(Debug, Clone)]
enum Op {
    /// `allocate`: prepare, then commit or abort the grant.
    Allocate { osm: u32, ident: u64, commit: bool },
    /// `release` of a held token (by index, modulo the count): prepare,
    /// then commit or abort.
    Release { held: usize, commit: bool },
    /// `discard` of a held token.
    Discard { held: usize },
    /// A clock edge.
    Clock,
    /// A hardware-layer call on the manager, as behaviors and clock hooks
    /// make them (`arm`, `begin_write`, `block_release`, ...).
    Poke(u64),
}

/// Identifiers across the managers' spaces: `ANY`, small unit or register
/// numbers, and the same registers' update tokens (bit 32).
fn ident() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(TokenIdent::ANY.0),
        0u64..4,
        (0u64..4).prop_map(|r| r | 1 << 32),
    ]
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u32..3, ident(), any::<bool>()).prop_map(|(osm, ident, commit)| Op::Allocate {
            osm,
            ident,
            commit
        }),
        (0usize..8, any::<bool>()).prop_map(|(held, commit)| Op::Release { held, commit }),
        (0usize..8).prop_map(|held| Op::Discard { held }),
        Just(Op::Clock),
        any::<u64>().prop_map(Op::Poke),
    ]
}

/// The checkpoint bytes of `m`.
fn bytes(m: &dyn TokenManager) -> Vec<u8> {
    m.snapshot_state()
        .expect("every shipped manager checkpoints")
        .as_bytes()
        .to_vec()
}

/// Runs `ops` on `m`, applying `poke` for [`Op::Poke`], and checks both
/// facts at every prepare and every clock.
fn check_contract<M: TokenManager>(
    mut m: M,
    ops: &[Op],
    mut poke: impl FnMut(&mut M, u64),
) -> Result<(), TestCaseError> {
    let name = m.name().to_owned();
    let mut held: Vec<(OsmId, Token)> = Vec::new();
    let mut cycle = 0;
    for (at, op) in ops.iter().enumerate() {
        let before = bytes(&m);
        let unchanged = |m: &M, what: &str| {
            prop_assert!(
                bytes(m) == before,
                "{name}, op {at} {op:?}: {what} changed the checkpoint bytes"
            );
            Ok(())
        };
        match *op {
            Op::Allocate { osm, ident, commit } => {
                let osm = OsmId(osm);
                match m.prepare_allocate(osm, TokenIdent(ident)) {
                    Some(token) if commit => {
                        m.commit_allocate(osm, token);
                        held.push((osm, token));
                    }
                    Some(token) => {
                        m.abort_allocate(osm, token);
                        unchanged(&m, "prepare_allocate then abort_allocate")?;
                    }
                    None => unchanged(&m, "a refused prepare_allocate")?,
                }
            }
            Op::Release { held: k, commit } if !held.is_empty() => {
                let k = k % held.len();
                let (osm, token) = held[k];
                if !m.prepare_release(osm, token) {
                    unchanged(&m, "a refused prepare_release")?;
                } else if commit {
                    m.commit_release(osm, token);
                    held.remove(k);
                } else {
                    m.abort_release(osm, token);
                    unchanged(&m, "prepare_release then abort_release")?;
                }
            }
            Op::Discard { held: k } if !held.is_empty() => {
                let (osm, token) = held.remove(k % held.len());
                m.discard(osm, token);
            }
            Op::Release { .. } | Op::Discard { .. } => {}
            Op::Clock => {
                cycle += 1;
                let dirty = m.clock(cycle);
                let changed = bytes(&m) != before;
                prop_assert!(
                    dirty || !changed,
                    "{name}, op {at}: a clock changed the checkpoint bytes but reported clean"
                );
                prop_assert!(
                    changed || !dirty,
                    "{name}, op {at}: a clock reported dirty but left the checkpoint bytes unchanged"
                );
            }
            Op::Poke(v) => poke(&mut m, v),
        }
    }
    Ok(())
}

/// A fault plan that fires every kind of fault often.
fn faults(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .deny_allocate(0.25)
        .deny_inquire(0.25)
        .defer_release(0.25)
        .drop_token(0.25)
        .corrupt_token(0.25)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_token_manager_keeps_the_two_phase_contract(
        ops in prop::collection::vec(op(), 1..64),
        seed in any::<u64>(),
    ) {
        let reg = |v: u64| (v % 4) as usize;
        let osm = |v: u64| OsmId((v >> 8) as u32 % 3);
        check_contract(ExclusivePool::new("exclusive", 3), &ops, |m, v| {
            m.block_release((v % 3) as usize, v & 1 << 16 != 0)
        })?;
        check_contract(CountingPool::new("counting", 2), &ops, |_, _| {})?;
        check_contract(CountingPool::per_cycle("per-cycle", 2), &ops, |_, _| {})?;
        check_contract(RegScoreboard::new("scoreboard", 4), &ops, |m, v| m.write(reg(v), v))?;
        check_contract(ResetManager::new("reset"), &ops, |m, v| {
            if v & 1 << 16 != 0 {
                m.arm(osm(v))
            } else {
                m.disarm(osm(v))
            }
        })?;
        for forwarding in [false, true] {
            check_contract(RegForwardFile::new("forward", 4, forwarding), &ops, |m, v| {
                m.mark_ready(reg(v))
            })?;
        }
        let mut seq = 0;
        check_contract(RenameFile::new("rename", 4), &ops, |m, v| {
            let r = reg(v);
            match (v >> 16) % 3 {
                0 => {
                    seq += 1;
                    m.begin_write(r, osm(v), seq)
                }
                1 => m.complete_write(r, seq),
                _ => m.abort_write(r, seq),
            }
        })?;
        check_contract(ResultBus::new("bus"), &ops, |m, v| match (v >> 16) % 3 {
            0 => m.complete(v % 8),
            1 => m.retire_up_to(v % 8),
            _ => m.squash_above(v % 8),
        })?;
        // Around a pool that mints distinct tokens, and around one that
        // mints the same token many times.
        check_contract(
            FaultInjector::new(Box::new(ExclusivePool::new("faulty", 3)), faults(seed)),
            &ops,
            |_, _| {},
        )?;
        check_contract(
            FaultInjector::new(Box::new(CountingPool::new("faulty-counting", 2)), faults(seed)),
            &ops,
            |_, _| {},
        )?;
    }
}
