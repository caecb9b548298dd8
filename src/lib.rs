//! Facade crate for the ARM2GC workspace.
//!
//! Re-exports every subsystem crate under a short module name so examples
//! and downstream users can depend on a single crate:
//!
//! ```
//! use arm2gc::circuit::Circuit;
//! use arm2gc::core::{drive_garbler, SessionOptions};
//! use arm2gc::cpu::machine::GcMachine;
//! ```

pub use arm2gc_circuit as circuit;
pub use arm2gc_comm as comm;
pub use arm2gc_core as core;
pub use arm2gc_cpu as cpu;
pub use arm2gc_crypto as crypto;
pub use arm2gc_garble as garble;
pub use arm2gc_ot as ot;
pub use arm2gc_proto as proto;
pub use arm2gc_server as server;
