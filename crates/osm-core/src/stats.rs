//! Execution statistics for machines and processor models.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

/// Counters collected while a [`crate::Machine`] runs.
///
/// Besides the fixed scheduler counters, models register named counters
/// (retired instructions, cache hits, ...) through [`Stats::incr`]. Counter
/// names are interned `Cow<'static, str>` keys: the common case — a
/// `&'static str` name incremented every cycle — never allocates, and a
/// dynamically built name ([`Stats::incr_dyn`]) allocates only on the first
/// increment.
#[derive(Debug, Default, Clone)]
pub struct Stats {
    /// Completed control steps.
    pub cycles: u64,
    /// Committed state transitions across all OSMs.
    pub transitions: u64,
    /// Edge evaluations whose condition was not satisfied.
    ///
    /// An *effort* counter: it measures scheduling work done, not machine
    /// behaviour, so it legitimately differs between
    /// [`crate::SchedulerMode`]s (the fast path skips provably blocked
    /// evaluations).
    pub condition_failures: u64,
    /// Edge evaluations skipped by a behavior veto (an effort counter, like
    /// [`Stats::condition_failures`]).
    pub vetoed_edges: u64,
    /// Control steps in which no OSM transitioned (global stall steps).
    pub idle_steps: u64,
    /// Restart events of the Fig. 3 outer loop: under
    /// [`crate::RestartPolicy::Restart`], every committed transition after
    /// which unserved OSMs remain counts once (a transition that leaves no
    /// OSM unserved counts nothing). The reference scheduler performs each
    /// as a rescan from the top; the fast path resumes its scan instead
    /// (it re-checks only what the transition can have unblocked), but the
    /// count is the same, so it is mode-invariant across
    /// [`crate::SchedulerMode`]s. Always 0 under
    /// [`crate::RestartPolicy::NoRestart`].
    pub restarts: u64,
    named: BTreeMap<Cow<'static, str>, u64>,
}

impl Stats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `amount` to the named counter, creating it at zero if absent.
    /// Never allocates (the key is a `&'static str`).
    pub fn incr(&mut self, name: &'static str, amount: u64) {
        match self.named.get_mut(name) {
            Some(v) => *v += amount,
            None => {
                self.named.insert(Cow::Borrowed(name), amount);
            }
        }
    }

    /// Adds `amount` to a dynamically named counter. Allocates only on the
    /// counter's first increment; prefer [`Stats::incr`] on hot paths.
    pub fn incr_dyn(&mut self, name: &str, amount: u64) {
        match self.named.get_mut(name) {
            Some(v) => *v += amount,
            None => {
                self.named.insert(Cow::Owned(name.to_owned()), amount);
            }
        }
    }

    /// Reads a named counter (0 if never incremented).
    pub fn get(&self, name: &str) -> u64 {
        self.named.get(name).copied().unwrap_or(0)
    }

    /// Iterates over named counters in name order.
    pub fn named(&self) -> impl Iterator<Item = (&str, u64)> {
        self.named.iter().map(|(k, v)| (k.as_ref(), *v))
    }

    /// Transitions per cycle (0 if no cycles ran).
    pub fn transitions_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.transitions as f64 / self.cycles as f64
        }
    }

    /// Resets every counter to zero.
    pub fn reset(&mut self) {
        *self = Stats::default();
    }
}

impl fmt::Display for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "cycles:             {}", self.cycles)?;
        writeln!(f, "transitions:        {}", self.transitions)?;
        writeln!(f, "condition failures: {}", self.condition_failures)?;
        writeln!(f, "vetoed edges:       {}", self.vetoed_edges)?;
        writeln!(f, "idle steps:         {}", self.idle_steps)?;
        writeln!(f, "restarts:           {}", self.restarts)?;
        for (k, v) in self.named() {
            writeln!(f, "{k}: {v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_counters_accumulate() {
        let mut s = Stats::new();
        assert_eq!(s.get("retired"), 0);
        s.incr("retired", 2);
        s.incr("retired", 3);
        assert_eq!(s.get("retired"), 5);
        let all: Vec<_> = s.named().collect();
        assert_eq!(all, vec![("retired", 5)]);
    }

    #[test]
    fn dynamic_and_static_keys_share_one_namespace() {
        let mut s = Stats::new();
        s.incr("cache.l1.miss", 1);
        s.incr_dyn(&format!("cache.l{}.miss", 1), 2);
        assert_eq!(s.get("cache.l1.miss"), 3);
        assert_eq!(s.named().count(), 1);
    }

    #[test]
    fn transitions_per_cycle_handles_zero() {
        let mut s = Stats::new();
        assert_eq!(s.transitions_per_cycle(), 0.0);
        s.cycles = 4;
        s.transitions = 6;
        assert!((s.transitions_per_cycle() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn display_contains_counters() {
        let mut s = Stats::new();
        s.cycles = 7;
        s.incr("hits", 1);
        let text = s.to_string();
        assert!(text.contains("cycles:             7"));
        assert!(text.contains("hits: 1"));
    }

    #[test]
    fn reset_clears_everything() {
        let mut s = Stats::new();
        s.cycles = 1;
        s.incr("x", 9);
        s.reset();
        assert_eq!(s.cycles, 0);
        assert_eq!(s.get("x"), 0);
    }
}
