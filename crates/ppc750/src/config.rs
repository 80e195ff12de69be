//! Configuration and result types shared by the OSM model and the
//! port/signal baseline model.

use memsys::MemSystemConfig;
use minirisc::InstrClass;

/// Per-class execute latencies (cycles of unit occupancy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Latencies {
    /// Simple integer ALU (both IUs).
    pub alu: u32,
    /// Multiply (IU1 only).
    pub mul: u32,
    /// Divide/remainder (IU1 only).
    pub div: u32,
    /// FP add/sub/compare/convert.
    pub fadd: u32,
    /// FP multiply.
    pub fmul: u32,
    /// FP divide.
    pub fdiv: u32,
    /// Load/store base latency (D-cache penalty added on top).
    pub lsu: u32,
    /// System register unit.
    pub sru: u32,
    /// Branch processing unit.
    pub bpu: u32,
}

impl Latencies {
    /// The execute latency of an instruction class: the one lookup both
    /// PPC-750 models charge, so their timing cannot drift apart.
    pub fn of(&self, class: InstrClass) -> u32 {
        match class {
            InstrClass::IntAlu => self.alu,
            InstrClass::IntMul => self.mul,
            InstrClass::IntDiv => self.div,
            InstrClass::FpAdd => self.fadd,
            InstrClass::FpMul => self.fmul,
            InstrClass::FpDiv => self.fdiv,
            InstrClass::Load | InstrClass::Store => self.lsu,
            InstrClass::System => self.sru,
            InstrClass::Branch | InstrClass::Jump => self.bpu,
        }
    }
}

impl Default for Latencies {
    fn default() -> Self {
        Latencies {
            alu: 1,
            mul: 3,
            div: 19,
            fadd: 3,
            fmul: 4,
            fdiv: 17,
            lsu: 2,
            sru: 2,
            bpu: 1,
        }
    }
}

/// Timing configuration of the PowerPC-750-like core.
#[derive(Debug, Clone, Copy)]
pub struct PpcConfig {
    /// Memory subsystem.
    pub mem: MemSystemConfig,
    /// Fetch queue entries (paper: 6).
    pub fetch_queue: usize,
    /// Completion queue entries (paper: 6).
    pub completion_queue: usize,
    /// GPR rename buffers (paper: 6).
    pub gpr_rename: u64,
    /// FPR rename buffers (paper: 6).
    pub fpr_rename: u64,
    /// Instructions fetched per cycle.
    pub fetch_bw: u64,
    /// Instructions dispatched per cycle (paper: dual issue).
    pub dispatch_bw: u64,
    /// Instructions retired per cycle.
    pub retire_bw: u64,
    /// Execute latencies.
    pub lat: Latencies,
    /// Branch history table entries (2-bit counters, power of two).
    pub bht_entries: usize,
    /// OSM instances (in-flight operation slots).
    pub osm_count: usize,
}

impl PpcConfig {
    /// The configuration used by the paper-reproduction experiments.
    pub fn paper() -> Self {
        PpcConfig {
            mem: MemSystemConfig::ppc750_like(),
            fetch_queue: 6,
            completion_queue: 6,
            gpr_rename: 6,
            fpr_rename: 6,
            fetch_bw: 2,
            dispatch_bw: 2,
            retire_bw: 2,
            lat: Latencies::default(),
            bht_entries: 512,
            osm_count: 14,
        }
    }
}

impl Default for PpcConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// Outcome of running a program on either PPC-750 simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PpcResult {
    /// Total cycles until the halting instruction retired.
    pub cycles: u64,
    /// Retired instructions.
    pub retired: u64,
    /// Squashed wrong-path operations.
    pub squashed: u64,
    /// Executed conditional branches + indirect jumps (prediction events).
    pub branches: u64,
    /// Mispredicted of those.
    pub mispredicts: u64,
    /// Program exit code.
    pub exit_code: u32,
    /// Program output bytes.
    pub output: Vec<u8>,
    /// I-cache misses.
    pub icache_misses: u64,
    /// D-cache misses.
    pub dcache_misses: u64,
    /// Why the ISS refused the instruction that stopped the program (an
    /// undecodable word or an unknown syscall), if it refused one.
    pub error: Option<String>,
}

impl PpcResult {
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
    fn paper_config_matches_spec_sheet() {
        let c = PpcConfig::paper();
        assert_eq!(c.fetch_queue, 6);
        assert_eq!(c.completion_queue, 6);
        assert_eq!(c.dispatch_bw, 2);
        assert_eq!(c.gpr_rename, 6);
    }

    #[test]
    fn cpi_computation() {
        let r = PpcResult {
            cycles: 100,
            retired: 80,
            squashed: 0,
            branches: 0,
            mispredicts: 0,
            exit_code: 0,
            output: Vec::new(),
            icache_misses: 0,
            dcache_misses: 0,
            error: None,
        };
        assert!((r.cpi() - 1.25).abs() < 1e-12);
    }
}
