//! A misbehaving peer must surface as a clean [`ProtocolError`], never a
//! panic: the classic-baseline evaluator is driven against hand-crafted
//! bad frames.

use arm2gc_circuit::sim::PartyData;
use arm2gc_circuit::{Circuit, CircuitBuilder, Role};
use arm2gc_comm::{duplex, Channel, MemChannel};
use arm2gc_core::{drive_evaluator, EngineKind, ProtocolError, SessionOptions};
use arm2gc_ot::InsecureOt;
use arm2gc_proto::{Message, SessionRole, MIN_PROTOCOL_VERSION, PROTOCOL_VERSION};

/// A circuit with no Bob inputs, so the evaluator needs no OT and every
/// abuse below hits the label-distribution path.
fn alice_only_circuit() -> Circuit {
    let mut b = CircuitBuilder::new("alice_only");
    let a = b.inputs(Role::Alice, 8);
    let o: Vec<_> = a.windows(2).map(|w| b.and(w[0], w[1])).collect();
    b.outputs(&o);
    b.build()
}

/// Drives the baseline evaluator for one cycle of `circuit` with no
/// inputs of its own.
fn evaluate(circuit: &Circuit, ch: &mut MemChannel) -> Result<(), ProtocolError> {
    let none = [PartyData::default()];
    let opts = SessionOptions::new().engine(EngineKind::Baseline);
    drive_evaluator(
        circuit,
        &none,
        &none,
        1,
        ch,
        Vec::new(),
        &mut InsecureOt,
        &opts,
    )
    .map(|_| ())
}

/// Plays garbler for the handshake, then hands the channel to `abuse`.
fn against_fake_garbler(abuse: impl FnOnce(&mut dyn Channel) + Send) -> Result<(), ProtocolError> {
    against_fake_garbler_at_version(PROTOCOL_VERSION, abuse)
}

/// [`against_fake_garbler`] with the fake peer's hello advertising
/// `version`.
fn against_fake_garbler_at_version(
    version: u16,
    abuse: impl FnOnce(&mut dyn Channel) + Send,
) -> Result<(), ProtocolError> {
    let circuit = alice_only_circuit();
    let (mut ca, mut cb) = duplex();
    std::thread::scope(|s| {
        s.spawn(move || {
            ca.send(
                &Message::Hello {
                    version,
                    role: SessionRole::Garbler,
                }
                .encode(),
            )
            .expect("hello");
            ca.recv().expect("peer hello");
            abuse(&mut ca);
        });
        evaluate(&circuit, &mut cb)
    })
}

fn assert_malformed(result: Result<(), ProtocolError>, what: &str) {
    match result {
        // Undecodable frames carry their tag (CorruptFrame); frames
        // that decode but are invalid here are session-level Malformed.
        Err(ProtocolError::Malformed(_) | ProtocolError::CorruptFrame { .. }) => {}
        other => panic!("{what}: expected Malformed/CorruptFrame, got {other:?}"),
    }
}

#[test]
fn garbage_frame_instead_of_labels() {
    assert_malformed(
        against_fake_garbler(|ch| {
            ch.send(&[0xde, 0xad, 0xbe, 0xef]).expect("garbage");
        }),
        "garbage frame",
    );
}

#[test]
fn tables_frame_where_labels_expected() {
    assert_malformed(
        against_fake_garbler(|ch| {
            ch.send(&Message::Tables(vec![0; 32]).encode())
                .expect("tables");
        }),
        "wrong frame type",
    );
}

#[test]
fn misaligned_direct_labels() {
    assert_malformed(
        against_fake_garbler(|ch| {
            // 17 bytes: not a whole number of labels.
            let mut raw = Message::DirectLabels(vec![]).encode();
            raw.extend_from_slice(&[0u8; 17]);
            ch.send(&raw).expect("misaligned");
        }),
        "misaligned labels",
    );
}

#[test]
fn truncated_label_vector() {
    // A valid frame carrying too few labels for the circuit.
    assert_malformed(
        against_fake_garbler(|ch| {
            ch.send(&Message::DirectLabels(vec![]).encode())
                .expect("empty labels");
        }),
        "too few labels",
    );
}

#[test]
fn incompatible_version_is_clean() {
    // Versions negotiate to the lowest common one, so a *newer* peer is
    // fine; only a peer below the supported minimum must be rejected.
    let circuit = alice_only_circuit();
    let (mut ca, mut cb) = duplex();
    let res = std::thread::scope(|s| {
        s.spawn(move || {
            ca.send(
                &Message::Hello {
                    version: MIN_PROTOCOL_VERSION - 1,
                    role: SessionRole::Garbler,
                }
                .encode(),
            )
            .expect("hello");
            // Drain the peer hello so the evaluator's reply send succeeds.
            let _ = ca.recv();
        });
        evaluate(&circuit, &mut cb)
    });
    assert_malformed(res, "incompatible version");
}

#[test]
fn newer_peer_version_is_compatible() {
    // A peer advertising a future version must get past the handshake
    // (the failure then comes from the missing label frame, not the
    // hello): lowest-common negotiation instead of exact match.
    assert_malformed(
        against_fake_garbler_at_version(PROTOCOL_VERSION + 40, |ch| {
            ch.send(&Message::DirectLabels(vec![]).encode())
                .expect("empty labels");
        }),
        "too few labels from a newer peer",
    );
}
