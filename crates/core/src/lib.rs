//! **SkipGate** — the paper's primary contribution (§3), plus the
//! two-party protocol runner built around it.
//!
//! SkipGate wraps the sequential GC protocol and, each clock cycle,
//! classifies every gate by what the parties *publicly* know about its
//! inputs:
//!
//! * **category i** — two public inputs: computed locally, free;
//! * **category ii** — one public input: the gate collapses to a
//!   constant, a wire, or an inverter;
//! * **category iii** — two secret inputs carrying identical or inverted
//!   labels: collapses likewise;
//! * **category iv** — unrelated secret inputs: garbled normally
//!   (free-XOR for linear gates, half-gates otherwise) — *unless* its
//!   `label_fanout` drops to zero, in which case the garbled table is
//!   never sent (Alg. 4 line 18).
//!
//! The result: a public-input-heavy circuit like a garbled processor
//! costs only the gates that actually touch private data.
//!
//! # Implementation notes (relative to the paper's Algorithms 1–6)
//!
//! * Both parties run one *shared deterministic decision engine*
//!   ([`decide`]); Alice layers zero-labels and Bob active labels on top.
//!   This realises §3.3's "identical/inverted label" detection with a
//!   [`tag::SecretTag`] — an XOR-homomorphic fingerprint of each secret
//!   wire's free-XOR lineage — instead of comparing raw labels, which
//!   makes the two parties' category decisions equal *by construction*
//!   (the paper's Bob needs placeholder labels + a validity flag for the
//!   same purpose, Alg. 5 line 18).
//! * `label_fanout` bookkeeping (Alg. 6) is per-wire: constant-output
//!   categories release their secret inputs during the forward pass, and
//!   one backward sweep retires every gate whose output label ends the
//!   cycle unused. Because fanouts only ever decrease within a cycle,
//!   the surviving-table set is identical to the paper's
//!   garble-then-filter formulation.
//!
//! # Example
//!
//! ```
//! use arm2gc_circuit::{CircuitBuilder, Role};
//! use arm2gc_circuit::sim::PartyData;
//! use arm2gc_core::{run_two_party_opts, SessionOptions};
//!
//! // c = (a & a) — the paper's Table 3 "a = a op a" row: zero tables.
//! let mut b = CircuitBuilder::new("a_and_a");
//! let a = b.input(Role::Alice);
//! let out = b.and(a, a);
//! b.output(out);
//! let c = b.build();
//!
//! let alice = [PartyData::from_stream(vec![vec![true]])];
//! let bob = [PartyData::default()];
//! let public = [PartyData::default()];
//! let opts = SessionOptions::new();
//! let (alice_out, _bob_out) = run_two_party_opts(&c, &alice, &bob, &public, 1, &opts);
//! assert_eq!(alice_out.lanes[0].outputs[0], vec![true]);
//! assert_eq!(alice_out.lanes[0].stats.garbled_tables, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod decide;
pub mod drive;
pub mod engine;
pub mod options;
mod party;
pub mod state;
pub mod tag;

pub use decide::{CycleDecisions, DecideContext, DecisionCounts, GateDecision};
pub use drive::{drive_evaluator, drive_garbler, run_two_party_opts};
pub use engine::{
    shard_duplexes, InstancedOutcome, SkipGateOptions, SkipGateOutcome, SkipGateStats,
};
pub use options::{EngineKind, SessionOptions};
pub use state::WireVal;
pub use tag::{SecretTag, TagAllocator};

pub use arm2gc_garble::WavefrontStats;
pub use arm2gc_proto::{ConfigError, OtBackend, OtConfig, ProtoError as ProtocolError};
