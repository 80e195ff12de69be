//! Configuration and result types shared by the OSM model and the reference
//! simulator, so the two can be compared field by field.

use memsys::MemSystemConfig;

/// Timing configuration of the StrongARM-like core.
#[derive(Debug, Clone, Copy)]
pub struct SaConfig {
    /// Memory subsystem geometry and latencies.
    pub mem: MemSystemConfig,
    /// Enable the forwarding (bypass) network.
    pub forwarding: bool,
    /// Extra execute-stage occupancy of a multiply beyond 1 cycle.
    pub mul_extra: u32,
    /// Extra execute-stage occupancy of a divide/remainder beyond 1 cycle.
    pub div_extra: u32,
    /// Number of OSM instances (in-flight operation slots). Must exceed the
    /// pipeline depth (5) for full throughput.
    pub osm_count: usize,
    /// Deterministic "DRAM refresh" stall inserted by the *hardware proxy*
    /// every this many cycles (0 = never). Used only by the reference
    /// simulator when it stands in for the iPAQ hardware of Table 1; it
    /// models timing detail absent from both micro-architecture models.
    pub refresh_interval: u64,
    /// The *hardware proxy* pays one extra refetch cycle on every `N`-th
    /// taken branch (0 = never). Only the reference simulator honours it —
    /// it stands in for branch-unit detail the micro-architecture models
    /// abstract away, making branch-dense benchmarks deviate more (the
    /// paper's Table 1 spread).
    pub hw_branch_stall_every: u32,
}

impl SaConfig {
    /// The configuration used by the paper-reproduction experiments.
    pub fn paper() -> Self {
        SaConfig {
            mem: MemSystemConfig::strongarm_like(),
            forwarding: true,
            mul_extra: 2,
            div_extra: 16,
            osm_count: 8,
            refresh_interval: 0,
            hw_branch_stall_every: 0,
        }
    }

    /// Small caches — more misses, good for exercising stall paths in tests.
    pub fn tiny_mem() -> Self {
        SaConfig {
            mem: memsys::MemSystemConfig::tiny(),
            ..Self::paper()
        }
    }
}

impl Default for SaConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// Outcome of running a program on either simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimResult {
    /// Total cycles simulated until the pipeline drained.
    pub cycles: u64,
    /// Retired (architecturally completed) instructions.
    pub retired: u64,
    /// Squashed wrong-path operations.
    pub squashed: u64,
    /// Program exit code.
    pub exit_code: u32,
    /// Program output bytes.
    pub output: Vec<u8>,
    /// Instruction-cache misses.
    pub icache_misses: u64,
    /// Data-cache misses.
    pub dcache_misses: u64,
    /// Why the ISS refused the instruction that stopped the run (an
    /// unknown syscall), if it refused one.
    pub error: Option<String>,
}

impl SimResult {
    /// Cycles per retired instruction.
    pub fn cpi(&self) -> f64 {
        if self.retired == 0 {
            0.0
        } else {
            self.cycles as f64 / self.retired as f64
        }
    }

    /// Output as lossy UTF-8.
    pub fn output_string(&self) -> String {
        String::from_utf8_lossy(&self.output).into_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpi_handles_zero() {
        let r = SimResult {
            cycles: 10,
            retired: 0,
            squashed: 0,
            exit_code: 0,
            output: Vec::new(),
            icache_misses: 0,
            dcache_misses: 0,
            error: None,
        };
        assert_eq!(r.cpi(), 0.0);
        let r = SimResult { retired: 5, ..r };
        assert_eq!(r.cpi(), 2.0);
    }

    #[test]
    fn presets_differ_in_cache_size() {
        assert!(SaConfig::paper().mem.icache.capacity() > SaConfig::tiny_mem().mem.icache.capacity());
    }
}
