//! The typed, versioned wire protocol spoken between the two parties.
//!
//! Every frame a session puts on a [`arm2gc_comm::Channel`] is one
//! encoded [`Message`]. The outer length framing belongs to the channel;
//! this module defines the *payload* layout — a one-byte tag followed by
//! a tag-specific body, all integers little-endian:
//!
//! | tag | message | body |
//! |-----|---------|------|
//! | `1` | [`Message::Hello`] | magic `u32`, version `u16`, role `u8` |
//! | `2` | [`Message::DirectLabels`] | 16-byte labels, back to back |
//! | `3` | [`Message::OtPayload`] | opaque OT sub-protocol bytes |
//! | `4` | [`Message::Tables`] | garbled-table bytes, back to back |
//! | `5` | [`Message::DecodeBits`] | bit count `u32`, packed bits |
//! | `6` | [`Message::Outputs`] | bit count `u32`, packed bits |
//! | `8` | [`Message::Instances`] | instance count `u16` |
//! | `9` | [`Message::ServiceRequest`] | shards `u8`, instances `u16`, OT resume token `u64`, workload utf-8 |
//! | `10` | [`Message::ServiceAccept`] | session id `u64`, resumed `u8` |
//! | `11` | [`Message::ServiceReject`] | reason utf-8 |
//! | `13` | [`Message::TableShard`] | shard id `u8`, garbled-table bytes |
//!
//! Tags 7 and 12 are retired and decode as unknown. Tag 7 carried a
//! table shard when each shard held a contiguous slice of every cycle's
//! tables; a `TableShard` now carries one whole frame of the striped
//! stream, so a peer of the old layout fails on its first shard frame
//! instead of decoding wrong outputs. Tag 12 attached a shard socket to
//! a service session.
//!
//! Decoding is strict: unknown tags, truncated bodies, bad magic and
//! inconsistent lengths all yield [`ProtoError::CorruptFrame`] (naming
//! the offending tag) — never a panic, and never an allocation sized by
//! attacker-controlled lengths beyond the frame already in hand. The
//! service preamble frames (tags 9–11) deliberately do *not*
//! range-check their shard/instance counts: the garbler service
//! validates them against [`crate::config::ConfigError`] so a bogus
//! request gets a typed [`Message::ServiceReject`] instead of a framing
//! error.

use std::error::Error;
use std::fmt;

use arm2gc_comm::ChannelError;
use arm2gc_crypto::Label;
use arm2gc_ot::OtError;

use crate::bits::{pack_bits, unpack_bits};
use crate::config::ConfigError;

/// Highest version spoken by this build; [`Message::Hello`] carries it.
/// Sessions negotiate the *lowest common* version with the peer and
/// reject only peers below [`MIN_PROTOCOL_VERSION`].
///
/// v2 added [`Message::Instances`] (cross-instance batched sessions);
/// single-instance sessions never send it, so v1 peers interoperate
/// unchanged. v3 added the service preamble frames
/// ([`Message::ServiceRequest`] and friends) spoken *before* the
/// handshake when connecting to the multi-tenant garbler service;
/// direct two-party sessions never send them, so v2 peers interoperate
/// unchanged. v4 extended the preamble with base-OT reuse — an OT
/// resume token in [`Message::ServiceRequest`] and a `resumed` flag in
/// [`Message::ServiceAccept`] — and fixed the Naor–Pinkas hash-tweak
/// schedule to a batch-persistent counter; v3 service preambles and
/// repeated base-OT batches do not interoperate, direct sessions again
/// do.
pub const PROTOCOL_VERSION: u16 = 4;

/// Oldest version this build still speaks. A peer advertising anything
/// `>= MIN_PROTOCOL_VERSION` is accepted; the session then runs at
/// `min(PROTOCOL_VERSION, peer_version)`.
pub const MIN_PROTOCOL_VERSION: u16 = 1;

/// Frame magic ("A2GC"), guarding against a non-ARM2GC peer.
pub const MAGIC: u32 = u32::from_le_bytes(*b"A2GC");

pub(crate) const TAG_HELLO: u8 = 1;
pub(crate) const TAG_DIRECT_LABELS: u8 = 2;
pub(crate) const TAG_OT_PAYLOAD: u8 = 3;
pub(crate) const TAG_TABLES: u8 = 4;
pub(crate) const TAG_DECODE_BITS: u8 = 5;
pub(crate) const TAG_OUTPUTS: u8 = 6;
pub(crate) const TAG_INSTANCES: u8 = 8;
pub(crate) const TAG_SERVICE_REQUEST: u8 = 9;
pub(crate) const TAG_SERVICE_ACCEPT: u8 = 10;
pub(crate) const TAG_SERVICE_REJECT: u8 = 11;
pub(crate) const TAG_TABLE_SHARD: u8 = 13;

/// Which side of the protocol a session plays.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionRole {
    /// Alice: garbles and streams tables.
    Garbler,
    /// Bob: evaluates the streamed tables.
    Evaluator,
}

impl SessionRole {
    /// The opposite role.
    pub fn peer(self) -> Self {
        match self {
            SessionRole::Garbler => SessionRole::Evaluator,
            SessionRole::Evaluator => SessionRole::Garbler,
        }
    }

    fn to_byte(self) -> u8 {
        match self {
            SessionRole::Garbler => 0,
            SessionRole::Evaluator => 1,
        }
    }

    fn from_byte(b: u8) -> Result<Self, &'static str> {
        match b {
            0 => Ok(SessionRole::Garbler),
            1 => Ok(SessionRole::Evaluator),
            _ => Err("unknown session role"),
        }
    }
}

/// Failures of the typed protocol layer (and of the engines built on it).
#[derive(Debug)]
pub enum ProtoError {
    /// Transport failure.
    Channel(ChannelError),
    /// Oblivious-transfer failure.
    Ot(OtError),
    /// A received frame failed to decode: `tag` is the frame's leading
    /// tag byte (or the claimed tag of an unknown frame) and `what`
    /// says which structural check failed. Produced by
    /// [`Message::decode`] — pinpointing the tag lets a service log
    /// and count *which* protocol step a hostile or corrupted peer
    /// broke at.
    CorruptFrame {
        /// The offending frame's tag byte.
        tag: u8,
        /// Which structural check failed.
        what: &'static str,
    },
    /// A session-level (not framing-level) protocol violation: the
    /// frames decoded fine but their contents or order were invalid —
    /// e.g. a version below the minimum, a role mismatch, an empty
    /// frame where one was required.
    Malformed(&'static str),
    /// The session configuration was rejected before any protocol state
    /// existed (see [`ConfigError`]).
    Config(ConfigError),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Channel(e) => write!(f, "protocol channel failure: {e}"),
            ProtoError::Ot(e) => write!(f, "protocol ot failure: {e}"),
            ProtoError::CorruptFrame { tag, what } => {
                write!(f, "corrupt protocol frame (tag {tag}): {what}")
            }
            ProtoError::Malformed(m) => write!(f, "malformed protocol message: {m}"),
            ProtoError::Config(e) => write!(f, "invalid session configuration: {e}"),
        }
    }
}

impl Error for ProtoError {}

impl From<ChannelError> for ProtoError {
    fn from(e: ChannelError) -> Self {
        ProtoError::Channel(e)
    }
}

impl From<OtError> for ProtoError {
    fn from(e: OtError) -> Self {
        ProtoError::Ot(e)
    }
}

impl From<ConfigError> for ProtoError {
    fn from(e: ConfigError) -> Self {
        ProtoError::Config(e)
    }
}

/// One typed protocol frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Message {
    /// Handshake: first frame each side sends.
    Hello {
        /// Protocol version (see [`PROTOCOL_VERSION`]).
        version: u16,
        /// The sender's role.
        role: SessionRole,
    },
    /// Input labels delivered directly (wires whose value Alice knows).
    DirectLabels(Vec<Label>),
    /// One message of an OT sub-protocol, tunnelled opaquely.
    OtPayload(Vec<u8>),
    /// A batch of garbled-table bytes from the streaming sink.
    Tables(Vec<u8>),
    /// Decode (colour) bits for the scheduled secret outputs.
    DecodeBits(Vec<bool>),
    /// Revealed output values, mirrored back by the evaluator.
    Outputs(Vec<bool>),
    /// One frame of a table stream striped over shard channels: frame
    /// `f` of the stream travels on shard `f mod n` (see
    /// [`crate::session`]).
    TableShard {
        /// The shard channel this frame travels on.
        shard: u8,
        /// Garbled-table bytes, back to back.
        tables: Vec<u8>,
    },
    /// Instance count of a cross-instance batched session, sent by the
    /// garbler right after the handshake — but only when the count is
    /// greater than one, so single-instance transcripts are unchanged.
    /// Requires protocol version ≥ 2.
    Instances(u16),
    /// Service preamble: an evaluator asks the multi-tenant garbler
    /// service for a session of the named workload with the given
    /// instance (lane) count. Spoken as the *first* frame on a fresh
    /// connection, before the [`Hello`] handshake; direct two-party
    /// sessions never send it. The counts are intentionally not
    /// range-checked here — the service rejects bogus values with a
    /// typed [`Message::ServiceReject`].
    ///
    /// [`Hello`]: Message::Hello
    ServiceRequest {
        /// Table sub-streams. A service session is one connection, so
        /// the service accepts only `1`; the byte keeps the frame
        /// layout of protocol v4.
        shards: u8,
        /// Lanes of a cross-instance batched session (1 = plain).
        instances: u16,
        /// Client-chosen base-OT reuse token; `0` opts out. A non-zero
        /// token asks the service to resume IKNP extension state cached
        /// from this client's previous session under the same token,
        /// skipping the base-OT setup. The token is an identifier, not
        /// a secret: resuming someone else's token only desyncs the OT
        /// transcript and fails the session.
        ot_token: u64,
        /// Name of the workload to serve (service-defined registry).
        workload: String,
    },
    /// Service preamble: the request was admitted under the returned
    /// session id. The garbler's [`Message::Hello`] follows on the same
    /// connection.
    ServiceAccept {
        /// Service-assigned session identifier.
        session: u64,
        /// Whether the service will resume cached IKNP state for the
        /// request's OT token. When `false` the client must run a fresh
        /// OT setup even if it holds receiver state from an earlier
        /// session (the cache entry may have been evicted).
        resumed: bool,
    },
    /// Service preamble: the request was refused (invalid
    /// configuration, unknown workload, or the service is saturated);
    /// the connection is then closed.
    ServiceReject {
        /// Human-readable refusal reason (from
        /// [`ConfigError`]'s `Display` for configuration errors).
        reason: String,
    },
}

impl Message {
    /// Serialises the frame payload (tag byte + body).
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Message::Hello { version, role } => {
                let mut out = Vec::with_capacity(8);
                out.push(TAG_HELLO);
                out.extend_from_slice(&MAGIC.to_le_bytes());
                out.extend_from_slice(&version.to_le_bytes());
                out.push(role.to_byte());
                out
            }
            Message::DirectLabels(labels) => {
                let mut out = Vec::with_capacity(1 + labels.len() * 16);
                out.push(TAG_DIRECT_LABELS);
                for l in labels {
                    out.extend_from_slice(&l.to_bytes());
                }
                out
            }
            Message::OtPayload(bytes) => prefixed(TAG_OT_PAYLOAD, bytes),
            Message::Tables(bytes) => prefixed(TAG_TABLES, bytes),
            Message::DecodeBits(bits) => encode_bits(TAG_DECODE_BITS, bits),
            Message::Outputs(bits) => encode_bits(TAG_OUTPUTS, bits),
            Message::TableShard { shard, tables } => {
                let mut out = Vec::with_capacity(2 + tables.len());
                out.push(TAG_TABLE_SHARD);
                out.push(*shard);
                out.extend_from_slice(tables);
                out
            }
            Message::Instances(n) => {
                let mut out = Vec::with_capacity(3);
                out.push(TAG_INSTANCES);
                out.extend_from_slice(&n.to_le_bytes());
                out
            }
            Message::ServiceRequest {
                shards,
                instances,
                ot_token,
                workload,
            } => {
                let mut out = Vec::with_capacity(12 + workload.len());
                out.push(TAG_SERVICE_REQUEST);
                out.push(*shards);
                out.extend_from_slice(&instances.to_le_bytes());
                out.extend_from_slice(&ot_token.to_le_bytes());
                out.extend_from_slice(workload.as_bytes());
                out
            }
            Message::ServiceAccept { session, resumed } => {
                let mut out = Vec::with_capacity(10);
                out.push(TAG_SERVICE_ACCEPT);
                out.extend_from_slice(&session.to_le_bytes());
                out.push(*resumed as u8);
                out
            }
            Message::ServiceReject { reason } => prefixed(TAG_SERVICE_REJECT, reason.as_bytes()),
        }
    }

    /// Parses a frame payload.
    ///
    /// # Errors
    /// [`ProtoError::CorruptFrame`] (naming the tag) on unknown tags,
    /// truncated bodies, bad magic or inconsistent lengths;
    /// [`ProtoError::Malformed`] only for an empty frame, which has no
    /// tag to attribute.
    pub fn decode(raw: &[u8]) -> Result<Message, ProtoError> {
        let (&tag, body) = raw
            .split_first()
            .ok_or(ProtoError::Malformed("empty frame"))?;
        Self::decode_body(tag, body).map_err(|what| ProtoError::CorruptFrame { tag, what })
    }

    /// Parses one frame body given its tag; errors name the failed
    /// structural check (the caller attributes them to the tag).
    fn decode_body(tag: u8, body: &[u8]) -> Result<Message, &'static str> {
        match tag {
            TAG_HELLO => {
                if body.len() != 7 {
                    return Err("hello frame size");
                }
                let magic = u32::from_le_bytes(body[0..4].try_into().expect("4 bytes"));
                if magic != MAGIC {
                    return Err("bad magic");
                }
                let version = u16::from_le_bytes(body[4..6].try_into().expect("2 bytes"));
                let role = SessionRole::from_byte(body[6])?;
                Ok(Message::Hello { version, role })
            }
            TAG_DIRECT_LABELS => {
                if body.len() % 16 != 0 {
                    return Err("direct labels not 16-byte aligned");
                }
                Ok(Message::DirectLabels(
                    body.chunks_exact(16)
                        .map(|c| Label::from_bytes(c.try_into().expect("16 bytes")))
                        .collect(),
                ))
            }
            TAG_OT_PAYLOAD => Ok(Message::OtPayload(body.to_vec())),
            TAG_TABLES => Ok(Message::Tables(body.to_vec())),
            TAG_DECODE_BITS => Ok(Message::DecodeBits(decode_bits(body)?)),
            TAG_OUTPUTS => Ok(Message::Outputs(decode_bits(body)?)),
            TAG_TABLE_SHARD => {
                let (&shard, tables) = body.split_first().ok_or("table shard frame too short")?;
                Ok(Message::TableShard {
                    shard,
                    tables: tables.to_vec(),
                })
            }
            TAG_INSTANCES => {
                if body.len() != 2 {
                    return Err("instances frame size");
                }
                let n = u16::from_le_bytes(body.try_into().expect("2 bytes"));
                if n == 0 {
                    return Err("zero instance count");
                }
                Ok(Message::Instances(n))
            }
            TAG_SERVICE_REQUEST => {
                if body.len() < 11 {
                    return Err("service request frame too short");
                }
                let shards = body[0];
                let instances = u16::from_le_bytes(body[1..3].try_into().expect("2 bytes"));
                let ot_token = u64::from_le_bytes(body[3..11].try_into().expect("8 bytes"));
                let workload = String::from_utf8(body[11..].to_vec())
                    .map_err(|_| "workload name not utf-8")?;
                Ok(Message::ServiceRequest {
                    shards,
                    instances,
                    ot_token,
                    workload,
                })
            }
            TAG_SERVICE_ACCEPT => {
                if body.len() != 9 {
                    return Err("service accept frame size");
                }
                let resumed = match body[8] {
                    0 => false,
                    1 => true,
                    _ => return Err("service accept resumed flag not 0/1"),
                };
                Ok(Message::ServiceAccept {
                    session: u64::from_le_bytes(body[0..8].try_into().expect("8 bytes")),
                    resumed,
                })
            }
            TAG_SERVICE_REJECT => Ok(Message::ServiceReject {
                reason: String::from_utf8(body.to_vec()).map_err(|_| "reject reason not utf-8")?,
            }),
            _ => Err("unknown frame tag"),
        }
    }
}

pub(crate) fn prefixed(tag: u8, bytes: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + bytes.len());
    out.push(tag);
    out.extend_from_slice(bytes);
    out
}

fn encode_bits(tag: u8, bits: &[bool]) -> Vec<u8> {
    let packed = pack_bits(bits);
    let mut out = Vec::with_capacity(5 + packed.len());
    out.push(tag);
    out.extend_from_slice(&(bits.len() as u32).to_le_bytes());
    out.extend_from_slice(&packed);
    out
}

fn decode_bits(body: &[u8]) -> Result<Vec<bool>, &'static str> {
    if body.len() < 4 {
        return Err("bit frame too short");
    }
    let n = u32::from_le_bytes(body[0..4].try_into().expect("4 bytes")) as usize;
    let packed = &body[4..];
    // The length check precedes any allocation, so a hostile bit count
    // cannot size a buffer beyond the frame already in hand.
    if packed.len() != n.div_ceil(8) {
        return Err("bit frame length mismatch");
    }
    // Canonical encodings only: padding bits in the last byte are zero.
    if n % 8 != 0 {
        if let Some(&last) = packed.last() {
            if last >> (n % 8) != 0 {
                return Err("nonzero bit-frame padding");
            }
        }
    }
    Ok(unpack_bits(packed, n))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: Message) {
        assert_eq!(Message::decode(&msg.encode()).expect("decode"), msg);
    }

    #[test]
    fn all_variants_roundtrip() {
        roundtrip(Message::Hello {
            version: PROTOCOL_VERSION,
            role: SessionRole::Garbler,
        });
        roundtrip(Message::Hello {
            version: 7,
            role: SessionRole::Evaluator,
        });
        roundtrip(Message::DirectLabels(vec![]));
        roundtrip(Message::DirectLabels(
            (0..5).map(|i| Label::from_u128(i * 37)).collect(),
        ));
        roundtrip(Message::OtPayload(vec![]));
        roundtrip(Message::OtPayload((0..255).collect()));
        roundtrip(Message::Tables(vec![9u8; 96]));
        roundtrip(Message::DecodeBits(vec![]));
        roundtrip(Message::DecodeBits(vec![true, false, true]));
        roundtrip(Message::Outputs((0..29).map(|i| i % 4 == 1).collect()));
        roundtrip(Message::TableShard {
            shard: 0,
            tables: vec![],
        });
        roundtrip(Message::TableShard {
            shard: 3,
            tables: vec![7u8; 64],
        });
        roundtrip(Message::Instances(2));
        roundtrip(Message::Instances(u16::MAX));
        roundtrip(Message::ServiceRequest {
            shards: 2,
            instances: 8,
            ot_token: 0xfeed_beef_cafe_0001,
            workload: "compare32:7".into(),
        });
        roundtrip(Message::ServiceRequest {
            shards: 0, // bogus counts survive the codec; the service rejects them
            instances: 0,
            ot_token: 0,
            workload: String::new(),
        });
        roundtrip(Message::ServiceAccept {
            session: 0,
            resumed: false,
        });
        roundtrip(Message::ServiceAccept {
            session: u64::MAX - 3,
            resumed: true,
        });
        roundtrip(Message::ServiceReject {
            reason: "shard count must be at least 1".into(),
        });
    }

    #[test]
    fn malformed_frames_error_cleanly() {
        let cases: &[&[u8]] = &[
            &[],                                         // empty
            &[99, 1, 2, 3],                              // unknown tag
            &[TAG_HELLO, 1, 2],                          // truncated hello
            &[TAG_HELLO, 0, 0, 0, 0, 1, 0, 0],           // bad magic
            &[TAG_DIRECT_LABELS, 1, 2, 3],               // not 16-byte aligned
            &[TAG_DECODE_BITS, 1],                       // too short for count
            &[TAG_DECODE_BITS, 9, 0, 0, 0, 0xff],        // says 9 bits, holds 8
            &[TAG_DECODE_BITS, 3, 0, 0, 0, 0xff],        // nonzero padding bits
            &[TAG_OUTPUTS, 1, 0, 0, 0, 0xff, 0xff],      // says 1 bit, holds 16
            &[TAG_OUTPUTS, 5, 0, 0, 0, 0b0010_0000],     // padding bit set
            &[TAG_TABLE_SHARD],                          // missing shard id
            &[TAG_INSTANCES, 4],                         // truncated count
            &[TAG_INSTANCES, 4, 0, 0],                   // oversized count
            &[TAG_INSTANCES, 0, 0],                      // zero instances
            &[TAG_SERVICE_REQUEST, 1, 8],                // truncated instances
            &[TAG_SERVICE_REQUEST, 1, 8, 0],             // missing ot token
            &[TAG_SERVICE_REQUEST, 1, 8, 0, 1, 2, 3, 4], // truncated ot token
            // workload not utf-8 (token present)
            &[TAG_SERVICE_REQUEST, 1, 8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xff],
            &[TAG_SERVICE_ACCEPT, 1, 2, 3], // short session id
            // resumed flag out of range
            &[TAG_SERVICE_ACCEPT, 1, 2, 3, 4, 5, 6, 7, 8, 2],
            // missing resumed flag (v3-sized accept)
            &[TAG_SERVICE_ACCEPT, 1, 2, 3, 4, 5, 6, 7, 8],
            &[TAG_SERVICE_REJECT, 0xc3, 0x28], // reason not utf-8
            &[12, 1, 2, 3, 4, 5, 6, 7, 8, 0],  // retired tag 12 (shard attach)
            &[7, 0, 1, 2, 3],                  // retired tag 7 (per-cycle table shard)
        ];
        for raw in cases {
            assert!(
                matches!(
                    Message::decode(raw),
                    Err(ProtoError::Malformed(_) | ProtoError::CorruptFrame { .. })
                ),
                "frame {raw:?} should be rejected"
            );
        }
    }

    #[test]
    fn corrupt_frames_name_their_tag() {
        assert!(matches!(
            Message::decode(&[TAG_HELLO, 1, 2]),
            Err(ProtoError::CorruptFrame {
                tag: TAG_HELLO,
                what: "hello frame size"
            })
        ));
        assert!(matches!(
            Message::decode(&[TAG_INSTANCES, 0, 0]),
            Err(ProtoError::CorruptFrame {
                tag: TAG_INSTANCES,
                what: "zero instance count"
            })
        ));
        assert!(matches!(
            Message::decode(&[99, 1, 2, 3]),
            Err(ProtoError::CorruptFrame {
                tag: 99,
                what: "unknown frame tag"
            })
        ));
        // Retired tags are unknown, never read as their old layout.
        for tag in [7, 12] {
            assert!(matches!(
                Message::decode(&[tag, 0, 1]),
                Err(ProtoError::CorruptFrame {
                    what: "unknown frame tag",
                    ..
                })
            ));
        }
        // An empty frame has no tag to attribute.
        assert!(matches!(
            Message::decode(&[]),
            Err(ProtoError::Malformed("empty frame"))
        ));
    }

    #[test]
    fn hello_rejects_bad_role_byte() {
        let mut raw = Message::Hello {
            version: 1,
            role: SessionRole::Garbler,
        }
        .encode();
        *raw.last_mut().expect("role byte") = 9;
        assert!(matches!(
            Message::decode(&raw),
            Err(ProtoError::CorruptFrame {
                tag: TAG_HELLO,
                what: "unknown session role"
            })
        ));
    }

    #[test]
    fn role_peer_flips() {
        assert_eq!(SessionRole::Garbler.peer(), SessionRole::Evaluator);
        assert_eq!(SessionRole::Evaluator.peer(), SessionRole::Garbler);
    }
}
