//! Multi-tenant garbler service on the unified session API.
//!
//! This crate turns the workspace's garbling engine into a long-lived
//! network service: one [`GarblerService`] accepts TCP connections,
//! performs the typed service preamble, and multiplexes hundreds of
//! concurrent evaluator sessions over a bounded worker pool. Each
//! session is a plain [`drive_garbler`](arm2gc_core::drive_garbler)
//! call parameterised by [`SessionOptions`](arm2gc_core::SessionOptions)
//! — the service adds tenancy, not protocol:
//!
//! * **Session multiplexing** — every accepted session runs as one job
//!   on a fixed pool of workers; excess sessions queue (bounded) and
//!   the rest get a typed "server busy" rejection.
//! * **Backpressure isolation** — each session writes through its own
//!   bounded [`QueuedChannel`], so one slow evaluator stalls only its
//!   own worker, never the accept loop or another tenant.
//! * **Failure containment** — a corrupt frame, disconnect, or elapsed
//!   deadline tears down exactly that session with one typed
//!   [`SessionError`], counted per reason in [`Metrics`]; co-tenants
//!   are untouched and the service keeps serving.
//! * **One connection per session** — the preamble and the whole
//!   protocol share the socket the client opened.
//! * **Deadlines end-to-end** — the preamble read, per-session socket
//!   io, and a drain window on graceful shutdown are all bounded.
//! * **Deterministic metrics** — the [`Metrics`] registry counts
//!   events and queue high-water marks only, never clocks, so CI pins
//!   service behaviour exactly; rates live in observers like the
//!   `load_gen` binary.
//!
//! The evaluator side lives in [`client`], including a deterministic
//! capped-backoff [`RetryPolicy`] for transient connection failures;
//! deterministic named [`workload`]s give both parties their inputs so
//! a session can be verified bit-for-bit against a solo run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod error;
pub mod metrics;
pub mod queue;
pub mod service;
pub mod workload;

pub use client::{
    connect, connect_with_retry, connect_with_token, run_session, run_session_resumed,
    run_session_with_retry, ClientError, Connection, OtResume, RetryPolicy, SessionRun,
};
pub use error::{FailureReason, SessionError};
pub use metrics::{Metrics, MetricsSnapshot};
pub use queue::QueuedChannel;
pub use service::{GarblerService, ServiceConfig, SessionRecord};
pub use workload::{resolve, Workload, FAMILIES};
