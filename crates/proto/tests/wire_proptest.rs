//! Property tests for the wire codec: arbitrary payloads round-trip,
//! and corrupted frames — truncated, bit-flipped, or with hostile
//! length fields — fail with a typed `Malformed`/`CorruptFrame` error:
//! never a panic, never an allocation sized by attacker-controlled
//! counts.

use arm2gc_crypto::Label;
use arm2gc_proto::bits::{pack_bits, unpack_bits};
use arm2gc_proto::{Message, ProtoError, SessionRole};
use proptest::prelude::*;

/// One representative frame of every variant, scaled by `seed` so the
/// fuzz explores different sizes and contents.
fn sample_frames(seed: u64) -> Vec<Message> {
    let n = (seed % 17) as usize;
    let bits: Vec<bool> = (0..n + 1).map(|i| (seed >> (i % 64)) & 1 == 1).collect();
    vec![
        Message::Hello {
            version: seed as u16,
            role: if seed & 1 == 0 {
                SessionRole::Garbler
            } else {
                SessionRole::Evaluator
            },
        },
        Message::DirectLabels(
            (0..n)
                .map(|i| Label::from_u128(seed as u128 + i as u128))
                .collect(),
        ),
        Message::Tables(vec![seed as u8; 32 * n]),
        Message::OtPayload(vec![seed as u8; n * 3]),
        Message::DecodeBits(bits.clone()),
        Message::Outputs(bits),
        Message::TableShard {
            shard: (seed % 4) as u8,
            tables: vec![seed as u8; 32 * n],
        },
        Message::Instances((seed % 7 + 1) as u16),
        Message::ServiceRequest {
            shards: (seed % 4 + 1) as u8,
            instances: (seed % 7 + 1) as u16,
            ot_token: seed.rotate_left(17),
            workload: format!("wl{}", seed % 100),
        },
        Message::ServiceAccept {
            session: seed,
            resumed: seed & 2 == 2,
        },
        Message::ServiceReject {
            reason: format!("reason {}", seed % 100),
        },
    ]
}

/// Decode must return a typed verdict on hostile input: success (the
/// corruption happened to keep the frame valid) or a clean
/// `Malformed`/`CorruptFrame` — panics and unrepresented errors fail
/// the property.
fn assert_clean_verdict(raw: &[u8]) -> Result<(), TestCaseError> {
    match Message::decode(raw) {
        Ok(_) | Err(ProtoError::Malformed(_)) => Ok(()),
        Err(ProtoError::CorruptFrame { tag, .. }) => {
            // The typed tag must be the frame's actual leading byte.
            prop_assert_eq!(tag, raw[0]);
            Ok(())
        }
        other => {
            prop_assert!(false, "unexpected decode result: {:?}", other);
            Ok(())
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary label vectors survive encode/decode.
    #[test]
    fn direct_labels_roundtrip(raw in proptest::collection::vec(any::<u128>(), 0..200)) {
        let msg = Message::DirectLabels(raw.iter().map(|&v| Label::from_u128(v)).collect());
        prop_assert_eq!(Message::decode(&msg.encode()).expect("decode"), msg);
    }

    /// Arbitrary table batches (any whole number of 32-byte tables)
    /// survive encode/decode.
    #[test]
    fn table_batches_roundtrip(tables in proptest::collection::vec(any::<[u8; 32]>(), 0..64)) {
        let bytes: Vec<u8> = tables.iter().flatten().copied().collect();
        let msg = Message::Tables(bytes);
        prop_assert_eq!(Message::decode(&msg.encode()).expect("decode"), msg);
    }

    /// Opaque OT payloads of any length survive encode/decode.
    #[test]
    fn ot_payloads_roundtrip(payload in proptest::collection::vec(any::<u8>(), 0..500)) {
        let msg = Message::OtPayload(payload);
        prop_assert_eq!(Message::decode(&msg.encode()).expect("decode"), msg);
    }

    /// Decode/output bit vectors of every length — multiples of 8 or
    /// not — survive encode/decode, both variants.
    #[test]
    fn bit_frames_roundtrip(seed in any::<u64>(), n in 0usize..200) {
        let bits: Vec<bool> = (0..n).map(|i| (seed >> (i % 64)) & 1 == 1).collect();
        let decode = Message::DecodeBits(bits.clone());
        prop_assert_eq!(Message::decode(&decode.encode()).expect("decode"), decode);
        let outputs = Message::Outputs(bits);
        prop_assert_eq!(Message::decode(&outputs.encode()).expect("decode"), outputs);
    }

    /// pack/unpack is the identity for every length.
    #[test]
    fn pack_unpack_identity(seed in any::<u128>(), n in 0usize..130) {
        let bits: Vec<bool> = (0..n).map(|i| (seed >> (i % 128)) & 1 == 1).collect();
        prop_assert_eq!(unpack_bits(&pack_bits(&bits), n), bits);
    }

    /// Hello frames round-trip for every version.
    #[test]
    fn hello_roundtrip(version: u16, evaluator: bool) {
        let role = if evaluator { SessionRole::Evaluator } else { SessionRole::Garbler };
        let msg = Message::Hello { version, role };
        prop_assert_eq!(Message::decode(&msg.encode()).expect("decode"), msg);
    }

    /// Truncating any valid frame of any variant — at any point past
    /// the tag byte — yields a typed error or a shorter valid frame of
    /// the same tag: never a panic.
    #[test]
    fn truncation_never_panics(seed in any::<u64>(), which in 0usize..11, cut in 1usize..2000) {
        let frames = sample_frames(seed);
        let mut encoded = frames[which % frames.len()].encode();
        let tag = encoded[0];
        encoded.truncate(cut.min(encoded.len()));
        match Message::decode(&encoded) {
            Ok(_) | Err(ProtoError::Malformed(_)) => {}
            Err(ProtoError::CorruptFrame { tag: t, .. }) => prop_assert_eq!(t, tag),
            other => prop_assert!(false, "unexpected decode result: {:?}", other),
        }
    }

    /// Flipping any single bit of any valid frame yields a typed
    /// verdict — never a panic. (The flip may land in opaque payload
    /// bytes and keep the frame valid; that is a success verdict.)
    #[test]
    fn bit_flips_never_panic(seed in any::<u64>(), which in 0usize..11, flip in any::<usize>()) {
        let frames = sample_frames(seed);
        let mut encoded = frames[which % frames.len()].encode();
        let bit = flip % (encoded.len() * 8);
        encoded[bit / 8] ^= 1 << (bit % 8);
        assert_clean_verdict(&encoded)?;
    }

    /// Arbitrary byte soup either decodes to *some* message or fails
    /// with a typed error — the decoder never panics on garbage.
    #[test]
    fn garbage_never_panics(raw in proptest::collection::vec(any::<u8>(), 0..200)) {
        if raw.is_empty() {
            prop_assert!(matches!(Message::decode(&raw), Err(ProtoError::Malformed(_))));
        } else {
            assert_clean_verdict(&raw)?;
        }
    }

    /// Hostile internal count fields (a bit count far beyond the
    /// actual payload) are rejected by arithmetic before any allocation
    /// sized by them could happen.
    #[test]
    fn hostile_counts_are_rejected(count in any::<u32>()) {
        // A DecodeBits frame claiming `count` bits but carrying none.
        let mut raw = Message::DecodeBits(Vec::new()).encode();
        raw[1..5].copy_from_slice(&count.to_le_bytes());
        if count == 0 {
            prop_assert_eq!(Message::decode(&raw).expect("decode"), Message::DecodeBits(Vec::new()));
        } else {
            prop_assert!(matches!(
                Message::decode(&raw),
                Err(ProtoError::CorruptFrame { .. })
            ));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// v4 preamble frames round-trip for every token/flag value.
    #[test]
    fn service_request_roundtrip(shards: u8, instances: u16, ot_token: u64, wl in 0u64..1000) {
        let msg = Message::ServiceRequest {
            shards,
            instances,
            ot_token,
            workload: format!("w{wl}"),
        };
        prop_assert_eq!(Message::decode(&msg.encode()).expect("decode"), msg);
    }

    /// Hostile ServiceRequest bodies — truncated tokens, non-utf-8
    /// workloads — fail with a typed error, never a panic.
    #[test]
    fn hostile_service_request_is_typed(body in proptest::collection::vec(any::<u8>(), 0..24)) {
        let mut raw = vec![9u8]; // TAG_SERVICE_REQUEST
        raw.extend_from_slice(&body);
        match Message::decode(&raw) {
            Ok(Message::ServiceRequest { .. }) => prop_assert!(body.len() >= 11),
            Err(ProtoError::CorruptFrame { tag, .. }) => prop_assert_eq!(tag, 9),
            other => prop_assert!(false, "unexpected decode result: {:?}", other),
        }
    }

    /// Hostile ServiceAccept bodies: only exactly 9 bytes with a 0/1
    /// resumed flag decode; everything else is a typed error.
    #[test]
    fn hostile_service_accept_is_typed(body in proptest::collection::vec(any::<u8>(), 0..16)) {
        let mut raw = vec![10u8]; // TAG_SERVICE_ACCEPT
        raw.extend_from_slice(&body);
        match Message::decode(&raw) {
            Ok(Message::ServiceAccept { resumed, .. }) => {
                prop_assert!(body.len() == 9 && body[8] == resumed as u8 && body[8] < 2);
            }
            Err(ProtoError::CorruptFrame { tag, .. }) => prop_assert_eq!(tag, 10),
            other => prop_assert!(false, "unexpected decode result: {:?}", other),
        }
    }
}

/// A bit-count field inconsistent with the payload is rejected, not
/// unpacked out of bounds.
#[test]
fn oversized_bit_count_is_malformed() {
    let mut raw = Message::DecodeBits(vec![true; 8]).encode();
    raw[1] = 200; // claim 200 bits, provide 1 byte
    assert!(matches!(
        Message::decode(&raw),
        Err(ProtoError::CorruptFrame { .. })
    ));
}
