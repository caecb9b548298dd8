//! Sequential Boolean circuit infrastructure for the ARM2GC reproduction.
//!
//! This crate is the substitute for the paper's hardware-synthesis pipeline
//! (Verilog + Synopsys Design Compiler + TinyGarble technology libraries):
//!
//! * [`ir`] — the netlist IR: 2-input truth-table gates ([`Op`]),
//!   flip-flops with typed initialisation, per-cycle input streams and
//!   output scheduling,
//! * [`builder`] — a hardware-construction DSL ([`CircuitBuilder`]) with a
//!   GC-optimised standard library (free-XOR-aware adders, muxes,
//!   comparators, shifters, multipliers, memories),
//! * [`sim`] — a cleartext reference simulator used as the correctness
//!   oracle for every garbling engine,
//! * [`bench_circuits`] — generators for every benchmark circuit in the
//!   paper's evaluation (Sum, Compare, Hamming, Mult, MatrixMult,
//!   SHA3/Keccak-f\[1600\], AES-128),
//! * [`analysis`] — gate-count statistics (the paper's cost metric is the
//!   number of non-XOR gates),
//! * [`schedule`] — ASAP topological layer schedules
//!   ([`LayerSchedule`]): a circuit's depth and its widest nonlinear
//!   level.
//!
//! # Example
//!
//! ```
//! use arm2gc_circuit::{CircuitBuilder, Role};
//!
//! let mut b = CircuitBuilder::new("adder");
//! let x = b.inputs(Role::Alice, 8);
//! let y = b.inputs(Role::Bob, 8);
//! let (sum, _carry) = b.add(&x, &y);
//! b.outputs(&sum);
//! let c = b.build();
//! // Free-XOR full adders: one AND per bit (the unused top carry's AND
//! // is skipped by the engines at run time).
//! assert_eq!(c.non_xor_count(), 8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod bench_circuits;
pub mod builder;
pub mod ir;
pub mod netlist;
pub mod random;
pub mod schedule;
pub mod sim;
pub mod words;

pub use builder::{Bus, CircuitBuilder, Ram, RamConfig};
pub use ir::{Circuit, Dff, DffInit, Gate, Op, OutputMode, Role, WireId};
pub use schedule::LayerSchedule;
pub use sim::Simulator;
pub use words::{bits_to_u32, bits_to_u64, u32_to_bits, u64_to_bits};
