//! Typed session-configuration errors.
//!
//! Shard counts, instance counts and engine selection are *out-of-band
//! session configuration*: they decide how many channels a session
//! opens and which protocol variant it speaks, so they must be
//! validated **before** any protocol state exists. A bogus value — a
//! `--shards 0` from a CLI, a zero instance count in a service request
//! — used to surface as a downstream panic deep inside channel setup;
//! it is now a [`ConfigError`] at configuration-build time, which the
//! protocol layer carries as [`ProtoError::Config`](crate::wire::ProtoError::Config)
//! and the garbler service turns into a typed
//! [`ServiceReject`](crate::wire::Message::ServiceReject) frame.

use std::error::Error;
use std::fmt;

/// The largest shard count a session stripes its tables over: a
/// `TableShard` frame names its shard in one byte.
pub const MAX_SHARDS: usize = 255;

/// A session configuration rejected at build time.
#[non_exhaustive]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// The shard count was zero (a table stream needs at least one
    /// sub-stream).
    ZeroShards,
    /// The shard count exceeded [`MAX_SHARDS`] (shard ids travel as
    /// one byte).
    TooManyShards(usize),
    /// The instance (lane) count was zero.
    ZeroInstances,
    /// The instance count exceeded `u16::MAX` (the handshake announces
    /// it as one `u16`).
    TooManyInstances(usize),
    /// The classic baseline engine has no instanced mode; only the
    /// SkipGate engine batches lanes.
    BaselineInstanced,
    /// The number of per-lane input bundles disagreed with the
    /// configured instance count.
    LaneCount {
        /// Lanes the session was configured for.
        expected: usize,
        /// Input bundles actually supplied.
        got: usize,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroShards => write!(f, "shard count must be at least 1"),
            ConfigError::TooManyShards(n) => {
                write!(f, "shard count {n} exceeds the maximum of {MAX_SHARDS}")
            }
            ConfigError::ZeroInstances => write!(f, "instance count must be at least 1"),
            ConfigError::TooManyInstances(n) => {
                write!(f, "instance count {n} exceeds the maximum of {}", u16::MAX)
            }
            ConfigError::BaselineInstanced => {
                write!(f, "the baseline engine does not support instanced sessions")
            }
            ConfigError::LaneCount { expected, got } => write!(
                f,
                "session configured for {expected} instance(s) but {got} input lane(s) supplied"
            ),
        }
    }
}

impl Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_name_the_offending_knob() {
        assert!(ConfigError::ZeroShards.to_string().contains("shard"));
        assert!(ConfigError::TooManyShards(999).to_string().contains("999"));
        assert!(ConfigError::ZeroInstances.to_string().contains("instance"));
        assert!(ConfigError::TooManyInstances(70_000)
            .to_string()
            .contains("70000"));
        assert!(ConfigError::BaselineInstanced
            .to_string()
            .contains("baseline"));
        let e = ConfigError::LaneCount {
            expected: 8,
            got: 3,
        };
        assert!(e.to_string().contains('8') && e.to_string().contains('3'));
    }
}
