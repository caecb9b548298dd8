//! Typed session/wire-protocol layer shared by both ARM2GC engines.
//!
//! The conventional-GC baseline (`arm2gc_garble`) and the SkipGate
//! protocol (`arm2gc_core`) speak the *same* two-party protocol: deliver
//! input labels (directly or via OT), stream garbled tables, exchange
//! decode bits. This crate factors that shared substrate out of the
//! engines:
//!
//! * [`wire`] — the versioned [`Message`] enum with explicit
//!   little-endian framing and a strict round-trip-tested codec;
//! * [`session`] — [`GarblerSession`] / [`EvaluatorSession`], owning the
//!   channel, PRG/Δ, OT endpoint and cost counters, with **pipelined
//!   table streaming**: the garbler's buffered sink sends a frame per
//!   [`TABLE_CHUNK_BYTES`](session::TABLE_CHUNK_BYTES) of tables while the evaluator pulls tables on
//!   demand, so garbling runs ahead of evaluation instead of
//!   rendezvousing once per clock cycle. Given shard channels, a session
//!   deals the same whole frames round-robin over them, frame `f` on
//!   shard `f mod n`; both parties stay single-threaded;
//! * [`config`] — [`ConfigError`], the typed rejection of a session
//!   configuration, and [`MAX_SHARDS`];
//! * [`endpoint`] — [`OtBackend`], pluggable selection between the
//!   insecure reference OT and the real Naor–Pinkas + IKNP stack;
//! * [`bits`] — the bit-packing helpers the codec and engines share.
//!
//! ```
//! use arm2gc_proto::{Message, SessionRole, PROTOCOL_VERSION};
//! let hello = Message::Hello { version: PROTOCOL_VERSION, role: SessionRole::Garbler };
//! assert_eq!(Message::decode(&hello.encode()).unwrap(), hello);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bits;
pub mod config;
pub mod endpoint;
pub mod session;
pub mod wire;

pub use config::{ConfigError, MAX_SHARDS};
pub use endpoint::{
    OtBackend, OtConfig, OtReceiverState, OtSenderState, ResumableOtReceiver, ResumableOtSender,
};
pub use session::{EvaluatorSession, GarblerSession, OtTunnel, SessionStats};
pub use wire::{Message, ProtoError, SessionRole, MAGIC, MIN_PROTOCOL_VERSION, PROTOCOL_VERSION};
