//! # sa1100 — the StrongARM case study (paper §5.1)
//!
//! Two cycle-accurate simulators of the same StrongARM-like 5-stage core
//! running MiniRISC-32:
//!
//! * [`SaOsmSim`] — built on the OSM formalism (`osm-core`): stages,
//!   register file + forwarding network, multiplier and reset manager are
//!   token managers; operations are state machines following Fig. 6 of the
//!   paper.
//! * [`RefSim`] — an independent hand-sequenced pipeline simulator in the
//!   SimpleScalar style, used as the validation ground truth ("iPAQ" stand-
//!   in) and as the speed baseline.
//!
//! Both retire instructions through the ISS's step ([`minirisc::retire`])
//! and share the memory timing models (`memsys`) but no scheduling code, so
//! their cycle-count agreement validates the OSM model the way Table 1 of
//! the paper does.
//!
//! [`SmtSim`] extends the OSM model to two hardware threads (paper §6) on
//! the same spec ([`build_spec`]), managers ([`SaManagers`]), shared state
//! ([`SaShared`]) and operation: thread tags become part of the
//! register-token identifiers and drive the fetch-arbitration ranking, and
//! the thread that is not running keeps its context parked beside the
//! shared state.
//!
//! ```
//! use minirisc::assemble;
//! use sa1100::{SaConfig, SaOsmSim, RefSim};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = assemble("li r11, 9\nli r10, 0\nsyscall\n", 0x1000)?;
//! let osm = SaOsmSim::new(SaConfig::paper(), &program).run_to_halt(10_000)?;
//! let reference = RefSim::new(SaConfig::paper(), &program).run_to_halt(10_000);
//! assert_eq!(osm.exit_code, 9);
//! assert_eq!(osm.cycles, reference.cycles);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod forward;
mod osm_model;
mod reference;
mod smt;

pub use config::{SaConfig, SimResult};
pub use forward::{RegForwardFile, UPDATE_BIT};
pub use osm_model::{build_spec, SaManagers, SaOsmSim, SaShared, S_DEST, S_MULT, S_SRC1, S_SRC2};
pub use reference::RefSim;
pub use smt::{SmtResult, SmtShared, SmtSim, SmtThreadResult};
