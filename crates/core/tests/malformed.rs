//! A misbehaving peer must surface as a clean [`ProtocolError`], never a
//! panic: the evaluator is driven against hand-crafted bad frames under
//! every engine and walk — the baseline, SkipGate on one lane and
//! SkipGate on two lanes. A shard channel that dies mid-stream must
//! fail both parties the same way.

use std::slice;

use arm2gc_circuit::bench_circuits;
use arm2gc_circuit::sim::PartyData;
use arm2gc_circuit::{Circuit, CircuitBuilder, Role};
use arm2gc_comm::{duplex, Channel, FaultChannel, FaultKind, FaultPlan, MemChannel};
use arm2gc_core::{
    drive_evaluator, drive_garbler, shard_duplexes, EngineKind, ProtocolError, SessionOptions,
};
use arm2gc_crypto::{Label, Prg};
use arm2gc_ot::InsecureOt;
use arm2gc_proto::{Message, SessionRole, MIN_PROTOCOL_VERSION, PROTOCOL_VERSION};

/// Alice inputs of [`alice_only_circuit`], one direct label each per
/// lane under every engine.
const ALICE_INPUTS: usize = 8;

/// A circuit with no Bob inputs, so the evaluator needs no OT and every
/// abuse below hits the label-distribution path.
fn alice_only_circuit() -> Circuit {
    let mut b = CircuitBuilder::new("alice_only");
    let a = b.inputs(Role::Alice, ALICE_INPUTS);
    let o: Vec<_> = a.windows(2).map(|w| b.and(w[0], w[1])).collect();
    b.outputs(&o);
    b.build()
}

/// The evaluator configurations every case runs against.
fn configs() -> [SessionOptions; 3] {
    [
        SessionOptions::new().engine(EngineKind::Baseline),
        SessionOptions::new(),
        SessionOptions::new().instances(2),
    ]
}

/// Drives the evaluator for one cycle of `circuit` with no inputs of
/// its own.
fn evaluate(
    circuit: &Circuit,
    ch: &mut MemChannel,
    opts: &SessionOptions,
) -> Result<(), ProtocolError> {
    let none = vec![PartyData::default(); opts.instances];
    drive_evaluator(
        circuit,
        &none,
        &none,
        1,
        ch,
        Vec::new(),
        &mut InsecureOt,
        opts,
    )
    .map(|_| ())
}

/// Runs `case` against every configuration: `abuse` gets the channel
/// after the handshake (and the lane announcement of a two-lane
/// session) and the lane count; every run must end malformed.
fn each_config(what: &str, abuse: impl Fn(&mut dyn Channel, usize) + Sync) {
    each_config_at_version(what, PROTOCOL_VERSION, abuse);
}

/// [`each_config`] with the fake peer's hello advertising `version`.
fn each_config_at_version(
    what: &str,
    version: u16,
    abuse: impl Fn(&mut dyn Channel, usize) + Sync,
) {
    for opts in configs() {
        let res = against_fake_garbler(&opts, version, |ch| abuse(ch, opts.instances));
        assert_malformed(res, &format!("{what} ({opts:?})"));
    }
}

/// Plays garbler for the handshake, announcing the lane count of a
/// multi-lane session, then hands the channel to `abuse`.
fn against_fake_garbler(
    opts: &SessionOptions,
    version: u16,
    abuse: impl FnOnce(&mut dyn Channel) + Send,
) -> Result<(), ProtocolError> {
    let circuit = alice_only_circuit();
    let (mut ca, mut cb) = duplex();
    let lanes = opts.instances;
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
            if lanes > 1 {
                ca.send(&Message::Instances(lanes as u16).encode())
                    .expect("lane count");
            }
            abuse(&mut ca);
        });
        evaluate(&circuit, &mut cb, opts)
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
    each_config("garbage frame", |ch, _| {
        ch.send(&[0xde, 0xad, 0xbe, 0xef]).expect("garbage");
    });
}

#[test]
fn tables_frame_where_labels_expected() {
    each_config("wrong frame type", |ch, _| {
        ch.send(&Message::Tables(vec![0; 32]).encode())
            .expect("tables");
    });
}

#[test]
fn misaligned_direct_labels() {
    each_config("misaligned labels", |ch, _| {
        // 17 bytes: not a whole number of labels.
        let mut raw = Message::DirectLabels(vec![]).encode();
        raw.extend_from_slice(&[0u8; 17]);
        ch.send(&raw).expect("misaligned");
    });
}

#[test]
fn truncated_label_vector() {
    // A valid frame carrying too few labels for the circuit.
    each_config("too few labels", |ch, _| {
        ch.send(&Message::DirectLabels(vec![]).encode())
            .expect("empty labels");
    });
}

#[test]
fn surplus_direct_labels() {
    // A valid frame carrying one label more than the circuit needs
    // (nine for the eight inputs of a one-lane session), caught by the
    // exact count check before any label is used.
    for opts in configs() {
        let surplus = opts.instances * ALICE_INPUTS + 1;
        let res = against_fake_garbler(&opts, PROTOCOL_VERSION, |ch| {
            ch.send(&Message::DirectLabels(vec![Label::ZERO; surplus]).encode())
                .expect("surplus labels");
        });
        assert!(
            matches!(res, Err(ProtocolError::Malformed("direct label count"))),
            "{opts:?}: {res:?}"
        );
    }
}

#[test]
fn incompatible_version_is_clean() {
    // Versions negotiate to the lowest common one, so a *newer* peer is
    // fine; only a peer below the supported minimum must be rejected.
    let circuit = alice_only_circuit();
    for opts in configs() {
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
            evaluate(&circuit, &mut cb, &opts)
        });
        assert_malformed(res, &format!("incompatible version ({opts:?})"));
    }
}

#[test]
fn newer_peer_version_is_compatible() {
    // A peer advertising a future version must get past the handshake
    // (the failure then comes from the missing label frame, not the
    // hello): lowest-common negotiation instead of exact match.
    each_config_at_version(
        "too few labels from a newer peer",
        PROTOCOL_VERSION + 40,
        |ch, _| {
            ch.send(&Message::DirectLabels(vec![]).encode())
                .expect("empty labels");
        },
    );
}

/// Shard 1 disconnects at its first frame, the stream's second: the
/// garbler's flush onto it returns a channel error, and the evaluator,
/// pulling that frame next, sees its channel close.
#[test]
fn dead_shard_channel_fails_both_parties_typed() {
    // 7,200 tables: frames of 2,048 tables go to shards 0, 1, 0, 1.
    let bc = bench_circuits::aes128([7; 16], [9; 16]);
    let opts = SessionOptions::new().shards(2);
    let (mut ca, mut cb) = duplex();
    let (mut g_shards, e_shards) = shard_duplexes(2);
    let dead = FaultPlan::new(1).on_send(0, FaultKind::Disconnect);
    let shard1 = g_shards.pop().expect("shard 1");
    g_shards.push(Box::new(FaultChannel::new(shard1, dead)));
    let (alice, bob) = std::thread::scope(|s| {
        let garbler = s.spawn(|| {
            let mut prg = Prg::from_seed([1; 16]);
            drive_garbler(
                &bc.circuit,
                slice::from_ref(&bc.alice),
                slice::from_ref(&bc.public),
                bc.cycles,
                &mut ca,
                g_shards,
                &mut InsecureOt,
                &mut prg,
                &opts,
            )
        });
        let bob = drive_evaluator(
            &bc.circuit,
            slice::from_ref(&bc.bob),
            slice::from_ref(&bc.public),
            bc.cycles,
            &mut cb,
            e_shards,
            &mut InsecureOt,
            &opts,
        );
        (garbler.join().expect("garbler must not panic"), bob)
    });
    assert!(
        matches!(alice, Err(ProtocolError::Channel(_))),
        "garbler: {alice:?}"
    );
    assert!(
        matches!(bob, Err(ProtocolError::Channel(_))),
        "evaluator: {bob:?}"
    );
}
