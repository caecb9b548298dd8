//! The ARM2GC wall-clock benchmark.
//!
//! Seven named workloads are timed from outside the crates, through
//! public entry points only: `SessionOptions` with `drive_garbler` /
//! `drive_evaluator`, `GcMachine`, the garbler service and its client,
//! and the probe entry points listed in `README.md`. Every session's
//! outputs are checked against the cleartext model. An untraced run
//! reports the end-to-end metrics; a separate traced run records spans
//! around each call and runs the per-crate probes.
//!
//! See `README.md` in this directory for every metric, every workload,
//! and which per-crate metric should move which end-to-end metric.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod json;
pub mod probes;
pub mod report;
pub mod run;
pub mod service;
pub mod session;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod workloads;

/// Length of a run's measured window when `--seconds` is not given; the
/// `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 10.0;
