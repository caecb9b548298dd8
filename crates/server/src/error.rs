//! The typed failure taxonomy of the garbler service.
//!
//! Every torn-down session ends in exactly one [`SessionError`], kept
//! in its [`SessionRecord`](crate::SessionRecord) and folded into a
//! per-reason counter in the [`Metrics`](crate::Metrics) registry via
//! [`SessionError::reason`]. The taxonomy replaces the stringly
//! teardown of earlier revisions: the fault-matrix suite asserts the
//! *exact* variant each injected fault produces.

use std::fmt;
use std::io;

use arm2gc_comm::ChannelError;
use arm2gc_ot::OtError;
use arm2gc_proto::{ConfigError, ProtoError};

/// Why a service session tore down.
///
/// `#[non_exhaustive]`: future revisions may refine the taxonomy, so
/// match with a wildcard arm.
#[non_exhaustive]
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SessionError {
    /// A configured socket read/write deadline elapsed — the peer is
    /// alive-but-stalled (or gone without a reset).
    Timeout,
    /// The peer disconnected mid-session (orderly close, reset, or
    /// broken pipe).
    PeerDisconnect,
    /// The peer sent a frame that failed to decode; `tag` is the
    /// frame's leading tag byte.
    CorruptFrame {
        /// Tag byte of the undecodable frame.
        tag: u8,
    },
    /// Any other socket-level failure, with the original error kind.
    Io(io::ErrorKind),
    /// The session's configuration failed validation after acceptance
    /// (should be unreachable — requests are validated at the
    /// preamble).
    Config(ConfigError),
    /// The requested workload stopped resolving between acceptance and
    /// execution.
    Workload(String),
    /// A session-level protocol violation: frames decoded but their
    /// contents or order were invalid (wrong frame here, version
    /// mismatch, label-count mismatch, ...).
    Protocol(&'static str),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Timeout => f.write_str("session io deadline elapsed"),
            SessionError::PeerDisconnect => f.write_str("peer disconnected"),
            SessionError::CorruptFrame { tag } => {
                write!(f, "corrupt protocol frame (tag {tag})")
            }
            SessionError::Io(kind) => write!(f, "session io failure: {kind}"),
            SessionError::Config(e) => write!(f, "invalid session configuration: {e}"),
            SessionError::Workload(name) => write!(f, "workload {name:?} not resolvable"),
            SessionError::Protocol(m) => write!(f, "protocol violation: {m}"),
        }
    }
}

impl std::error::Error for SessionError {}

impl SessionError {
    /// The per-reason metrics bucket this error counts into.
    pub fn reason(&self) -> FailureReason {
        match self {
            SessionError::Timeout => FailureReason::Timeout,
            SessionError::PeerDisconnect => FailureReason::PeerDisconnect,
            SessionError::CorruptFrame { .. } => FailureReason::CorruptFrame,
            _ => FailureReason::Other,
        }
    }
}

impl From<ChannelError> for SessionError {
    fn from(e: ChannelError) -> Self {
        if e.is_disconnect() {
            return SessionError::PeerDisconnect;
        }
        match e {
            ChannelError::Timeout => SessionError::Timeout,
            ChannelError::Io(kind) => SessionError::Io(kind),
            ChannelError::Closed => SessionError::PeerDisconnect,
        }
    }
}

impl From<ProtoError> for SessionError {
    fn from(e: ProtoError) -> Self {
        match e {
            ProtoError::Channel(c) => c.into(),
            ProtoError::Ot(OtError::Channel(c)) => c.into(),
            ProtoError::Ot(OtError::Protocol(m)) => SessionError::Protocol(m),
            ProtoError::CorruptFrame { tag, .. } => SessionError::CorruptFrame { tag },
            ProtoError::Malformed(m) => SessionError::Protocol(m),
            ProtoError::Config(c) => SessionError::Config(c),
        }
    }
}

/// The failure buckets [`Metrics`](crate::Metrics) counts — a coarser
/// view of [`SessionError`] for exact accounting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureReason {
    /// Socket deadline elapsed.
    Timeout,
    /// Peer went away.
    PeerDisconnect,
    /// Undecodable frame.
    CorruptFrame,
    /// Everything else (io, config, workload, protocol violations).
    Other,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proto_errors_map_to_exact_variants() {
        assert_eq!(
            SessionError::from(ProtoError::Channel(ChannelError::Closed)),
            SessionError::PeerDisconnect
        );
        assert_eq!(
            SessionError::from(ProtoError::Channel(ChannelError::Timeout)),
            SessionError::Timeout
        );
        assert_eq!(
            SessionError::from(ProtoError::Channel(ChannelError::Io(
                io::ErrorKind::ConnectionReset
            ))),
            SessionError::PeerDisconnect
        );
        assert_eq!(
            SessionError::from(ProtoError::Channel(ChannelError::Io(
                io::ErrorKind::InvalidData
            ))),
            SessionError::Io(io::ErrorKind::InvalidData)
        );
        assert_eq!(
            SessionError::from(ProtoError::CorruptFrame {
                tag: 1,
                what: "bad magic"
            }),
            SessionError::CorruptFrame { tag: 1 }
        );
        assert_eq!(
            SessionError::from(ProtoError::Malformed("expected hello frame")),
            SessionError::Protocol("expected hello frame")
        );
        assert_eq!(
            SessionError::from(ProtoError::Ot(OtError::Channel(ChannelError::Timeout))),
            SessionError::Timeout
        );
    }

    #[test]
    fn reasons_bucket_the_taxonomy() {
        assert_eq!(SessionError::Timeout.reason(), FailureReason::Timeout);
        assert_eq!(
            SessionError::PeerDisconnect.reason(),
            FailureReason::PeerDisconnect
        );
        assert_eq!(
            SessionError::CorruptFrame { tag: 7 }.reason(),
            FailureReason::CorruptFrame
        );
        assert_eq!(
            SessionError::Workload("x".into()).reason(),
            FailureReason::Other
        );
    }
}
