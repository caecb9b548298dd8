//! Garbling primitives and the batch drivers the session loop runs on.
//!
//! Implements Yao's garbling with all three standard optimisations the
//! paper assumes — free-XOR, row reduction and half-gates — plus the
//! schedulers that feed many independent gates through the wide AES
//! core at once. The two-party session itself lives in `arm2gc_core`:
//! one loop whose decision policy (SkipGate or the conventional-GC
//! baseline) decides what each cycle garbles.
//!
//! * [`halfgate`] — the two-ciphertext half-gate garbling primitive for
//!   any nonlinear 2-input gate, with batch entry points that hash many
//!   independent gates through the wide AES core per call,
//! * [`batch`] — the wavefront batchers (netlist-order walk) and the
//!   layered drivers (precomputed level schedule, any lane count),
//! * [`rows4`] — the unoptimised 4-row and GRR3 garbling baselines used
//!   by the ablation benchmarks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod halfgate;
pub mod rows4;

pub use arm2gc_circuit::LayerSchedule;
pub use batch::{EvalLayered, EvalWavefront, GarbleLayered, GarbleWavefront, WavefrontStats};
pub use halfgate::{EvalJob, GarbleJob, GarbledTable, HalfGateEvaluator, HalfGateGarbler};

use arm2gc_circuit::Circuit;

/// The paper's "w/o SkipGate" cost of a sequential run: every nonlinear
/// gate is garbled on every cycle (Tables 1, 4 and 5 baseline column).
pub fn static_non_xor_cost(circuit: &Circuit, cycles: usize) -> u128 {
    circuit.non_xor_count() as u128 * cycles as u128
}
