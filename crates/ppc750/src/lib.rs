//! # ppc750 — the PowerPC 750 case study (paper §5.2)
//!
//! A dual-issue out-of-order superscalar modeled twice over the same
//! functional substrate:
//!
//! * [`PpcOsmSim`] — the OSM model: fetch queue, six function units with
//!   reservation stations, rename buffers and a completion queue are token
//!   managers; operations follow the Fig. 2 state machine with both the
//!   direct-to-unit and through-reservation-station dispatch paths.
//! * `PpcPortSim` (module `port_model`) — the hardware-centric baseline:
//!   the same micro-architecture expressed as port/signal-connected modules
//!   on the `portsim` kernel, standing in for the SystemC model the paper
//!   compares against.
//!
//! ```
//! use minirisc::assemble;
//! use ppc750::{PpcConfig, PpcOsmSim, PpcPortSim};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = assemble("li r11, 3\nli r10, 0\nsyscall\n", 0x1000)?;
//! let osm = PpcOsmSim::new(PpcConfig::paper(), &program).run_to_halt(100_000)?;
//! let port = PpcPortSim::new(PpcConfig::paper(), &program).run_to_halt(100_000);
//! assert_eq!(osm.exit_code, 3);
//! assert_eq!(osm.cycles, port.cycles);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod osm_model;
mod port_model;
mod predictor;
mod rename;

pub use config::{Latencies, PpcConfig, PpcResult};
pub use osm_model::{
    build_spec, units_for, PpcManagers, PpcOsmSim, PpcShared, Unit, S_FREN, S_GREN, S_SRC1,
    S_SRC2, S_WAIT1, S_WAIT2, UNITS,
};
pub use port_model::PpcPortSim;
pub use predictor::Bht;
pub use rename::{RenameFile, ResultBus};
