#![warn(missing_docs)]

//! Gate-level synthesis cost model (the paper's Table II substrate).
//!
//! The paper characterises three 64-bit Write Data Encoders with Cadence
//! Genus on TSMC 65 nm. Neither tool nor library is available offline,
//! so this crate substitutes a pipeline rebuilt from scratch:
//!
//! * [`library`] — a 65 nm-class standard-cell library (area in
//!   NAND2-equivalent units, logical-effort-style delays, leakage and
//!   per-toggle switching energy),
//! * [`netlist`] — structural gate netlists with single-driver
//!   validation and explicit timing-loop cut points (for the ring
//!   oscillator),
//! * [`modules`] — generators for the three WDE variants: XOR-array
//!   inversion, full-mux barrel shifter, and the proposed WDE with its
//!   aging controller (ring-oscillator TRBG, M-bit bias counter),
//! * [`sta`] — topological static timing analysis (critical path),
//! * [`power`] — switching-activity propagation (signal probabilities
//!   and transition densities) with dynamic + leakage power roll-up,
//! * [`report`] — the `characterize` entry point producing Table II
//!   rows,
//! * [`verilog`] — structural Verilog export, for users who want to
//!   push the designs through a real synthesis flow as the paper did.
//!
//! Absolute picoseconds and nanowatts are library-dependent and not
//! expected to match Genus; the *ordering* — barrel shifter an order of
//! magnitude above both inversion-based designs, the proposed WDE only
//! marginally above plain inversion — is the Table II result this model
//! reproduces.
//!
//! # Example
//!
//! ```
//! use dnnlife_synth::library::TechLibrary;
//! use dnnlife_synth::modules;
//! use dnnlife_synth::report::characterize;
//!
//! let lib = TechLibrary::tsmc65_like();
//! let inversion = characterize(&modules::inversion_wde(64), &lib);
//! let barrel = characterize(&modules::barrel_wde_full_mux(64), &lib);
//! assert!(barrel.area_cells > 10.0 * inversion.area_cells);
//! ```

pub mod library;
pub mod modules;
pub mod netlist;
pub mod power;
pub mod report;
pub mod sta;
pub mod verilog;

pub use library::{CellKind, TechLibrary};
pub use netlist::{NetId, Netlist};
pub use report::{characterize, Characterization};
