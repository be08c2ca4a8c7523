//! `anasim` — a small SPICE-class analogue circuit simulator.
//!
//! This crate is the analogue substrate for the `mixsig` workspace: it plays
//! the role HSPICE played in Cobley's 1996 ED&TC paper on on-chip testing of
//! mixed-signal macros. It provides:
//!
//! * a [`netlist::Netlist`] builder for transistor-level circuits
//!   (resistors, capacitors, inductors, independent sources with rich
//!   waveforms, level-1 MOSFETs, diodes, voltage-controlled switches and
//!   controlled sources),
//! * DC operating-point analysis ([`dc::dc_operating_point`]) using
//!   Newton–Raphson with `gmin` and source stepping fallbacks,
//! * AC small-signal analysis ([`ac::ac_analysis`]) via the complex MNA
//!   system linearised at the operating point,
//! * transient analysis ([`transient::TransientAnalysis`]) with backward
//!   Euler or trapezoidal integration, and
//! * a [`waveform::Waveform`] type for sampled results.
//!
//! # Example
//!
//! A resistive divider driven by a 5 V source:
//!
//! ```
//! use anasim::netlist::Netlist;
//! use anasim::source::SourceWaveform;
//!
//! # fn main() -> Result<(), anasim::AnalysisError> {
//! let mut nl = Netlist::new();
//! let vin = nl.node("in");
//! let out = nl.node("out");
//! nl.vsource("V1", vin, Netlist::GROUND, SourceWaveform::dc(5.0));
//! nl.resistor("R1", vin, out, 1e3);
//! nl.resistor("R2", out, Netlist::GROUND, 1e3);
//! let op = anasim::dc::dc_operating_point(&nl)?;
//! assert!((op.voltage(out) - 2.5).abs() < 1e-6);
//! # Ok(())
//! # }
//! ```

pub mod ac;
pub mod dc;
pub mod devices;
pub mod flight;
pub mod metrics;
pub mod mna;
pub mod netlist;
pub mod robust;
pub mod solver;
pub mod source;
pub mod spice;
pub mod sweep;
pub mod transient;
pub mod waveform;

mod error;

pub use error::{AnalysisError, BudgetKind};
