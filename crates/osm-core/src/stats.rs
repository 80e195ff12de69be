//! Execution statistics for machines and processor models.

use std::fmt;

/// The director's counters, collected while a [`crate::Machine`] runs.
///
/// Only the scheduler counts here. Models keep their own figures (retired
/// instructions, cache hits, ...) in their shared state, which their own
/// checkpoint sections carry.
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
}

impl Stats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        Self::default()
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
        writeln!(f, "restarts:           {}", self.restarts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        s.restarts = 2;
        let text = s.to_string();
        assert!(text.contains("cycles:             7"));
        assert!(text.ends_with("restarts:           2\n"));
    }

    #[test]
    fn reset_clears_everything() {
        let mut s = Stats::new();
        s.cycles = 1;
        s.restarts = 9;
        s.reset();
        assert_eq!(s.cycles, 0);
        assert_eq!(s.restarts, 0);
    }
}
