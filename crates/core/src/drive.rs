//! The two session drivers: [`drive_garbler`] and [`drive_evaluator`].
//!
//! One [`SessionOptions`] value selects everything a session can vary —
//! engine, shard count, lane count, OT backend, streaming. Both drivers
//! validate the configuration *first*: a zero shard or lane count is a
//! typed [`ConfigError`](crate::ConfigError) carried as
//! [`ProtocolError::Config`], raised before any protocol state exists.
//! Then they run the one session loop ([`crate::engine`]) as their
//! party: every lane count walks each cycle in netlist order, lanes
//! interleaved per gate.
//!
//! Inputs are always lane-shaped (`&[PartyData]`, one entry per
//! configured instance) and the result is always an
//! [`InstancedOutcome`]; a single-instance run is simply `lanes.len()
//! == 1`. This keeps one signature across every configuration.

use arm2gc_circuit::sim::PartyData;
use arm2gc_circuit::Circuit;
use arm2gc_comm::{duplex, Channel};
use arm2gc_crypto::Prg;
use arm2gc_ot::{OtReceiver, OtSender};
use arm2gc_proto::ProtoError as ProtocolError;

use crate::engine::{run_session, shard_duplexes, InstancedOutcome};
use crate::options::SessionOptions;
use crate::party::{Evaluator, Garbler};

/// Runs the garbler (Alice) side of a session described by `opts`.
///
/// `alices` and `publics` carry one [`PartyData`] per configured lane
/// (`opts.instances` entries each). The engine picks the decision
/// policy: [`EngineKind::Baseline`](crate::EngineKind::Baseline)
/// garbles every nonlinear gate (single lane only;
/// [`ConfigError::BaselineInstanced`](crate::ConfigError::BaselineInstanced) otherwise),
/// [`EngineKind::SkipGate`](crate::EngineKind::SkipGate) only what the
/// shared decision pass keeps. Every lane count walks the netlist,
/// streaming tables as they are hashed.
///
/// # Errors
/// [`ProtocolError::Config`] when `opts` fails validation or the lane
/// arrays disagree with `opts.instances`; otherwise propagates channel
/// and OT failures.
#[allow(clippy::too_many_arguments)]
pub fn drive_garbler(
    circuit: &Circuit,
    alices: &[PartyData],
    publics: &[PartyData],
    cycles: usize,
    ch: &mut dyn Channel,
    shard_chs: Vec<Box<dyn Channel>>,
    ot: &mut dyn OtSender,
    prg: &mut Prg,
    opts: &SessionOptions,
) -> Result<InstancedOutcome, ProtocolError> {
    run_session::<Garbler>(
        (ch, shard_chs, ot, prg),
        circuit,
        alices,
        publics,
        cycles,
        opts,
    )
}

/// Runs the evaluator (Bob) side of a session described by `opts`; the
/// mirror of [`drive_garbler`]. Both parties must drive with equal
/// `opts` (shard and lane counts are out-of-band session
/// configuration).
///
/// # Errors
/// [`ProtocolError::Config`] when `opts` fails validation or the lane
/// arrays disagree with `opts.instances`; otherwise propagates channel
/// and OT failures, and a garbler whose labels do not match the input
/// plan ([`ProtocolError::Malformed`]).
#[allow(clippy::too_many_arguments)]
pub fn drive_evaluator(
    circuit: &Circuit,
    bobs: &[PartyData],
    publics: &[PartyData],
    cycles: usize,
    ch: &mut dyn Channel,
    shard_chs: Vec<Box<dyn Channel>>,
    ot: &mut dyn OtReceiver,
    opts: &SessionOptions,
) -> Result<InstancedOutcome, ProtocolError> {
    run_session::<Evaluator>((ch, shard_chs, ot), circuit, bobs, publics, cycles, opts)
}

/// Convenience: drives both parties on two threads over in-memory
/// channels, each with a fresh entropy-seeded PRG and `opts.ot`
/// endpoints. Returns `(alice_outcome, bob_outcome)`.
///
/// # Panics
/// Panics if either party fails (test harness semantics), including on
/// configuration errors — validate `opts` first when a typed error is
/// wanted.
pub fn run_two_party_opts(
    circuit: &Circuit,
    alices: &[PartyData],
    bobs: &[PartyData],
    publics: &[PartyData],
    cycles: usize,
    opts: &SessionOptions,
) -> (InstancedOutcome, InstancedOutcome) {
    let (mut ca, mut cb) = duplex();
    let shards = opts.shard_config().expect("shard config");
    let (g_shards, e_shards) = shard_duplexes(shards);
    crossbeam::thread::scope(|s| {
        let garbler = s.spawn(move |_| {
            let mut prg = Prg::from_entropy();
            let mut ot = opts.ot.sender(opts.ot_config, &mut prg);
            drive_garbler(
                circuit,
                alices,
                publics,
                cycles,
                &mut ca,
                g_shards,
                ot.as_mut(),
                &mut prg,
                opts,
            )
            .expect("session garbler")
        });
        let mut prg = Prg::from_entropy();
        let mut ot = opts.ot.receiver(opts.ot_config, &mut prg);
        let bob_outcome = drive_evaluator(
            circuit,
            bobs,
            publics,
            cycles,
            &mut cb,
            e_shards,
            ot.as_mut(),
            opts,
        )
        .expect("session evaluator");
        (garbler.join().expect("garbler thread"), bob_outcome)
    })
    .unwrap_or_else(|e| std::panic::resume_unwind(e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use arm2gc_circuit::{CircuitBuilder, Role};
    use arm2gc_ot::InsecureOt;
    use arm2gc_proto::{ConfigError, ProtoError};

    fn tiny_circuit() -> Circuit {
        let mut b = CircuitBuilder::new("and2");
        let a = b.input(Role::Alice);
        let c = b.input(Role::Bob);
        let out = b.and(a, c);
        b.output(out);
        b.build()
    }

    #[test]
    fn both_drivers_reject_bad_counts_with_typed_errors() {
        let circuit = tiny_circuit();
        let lanes = [PartyData::from_stream(vec![vec![true]])];
        let (mut ca, _cb) = duplex();
        let mut prg = Prg::from_entropy();
        let mut ot_s = InsecureOt;
        let bad = SessionOptions::new().shards(0);
        let err = drive_garbler(
            &circuit,
            &lanes,
            &lanes,
            1,
            &mut ca,
            Vec::new(),
            &mut ot_s,
            &mut prg,
            &bad,
        )
        .unwrap_err();
        assert!(matches!(err, ProtoError::Config(ConfigError::ZeroShards)));

        let mut ot_r = InsecureOt;
        let bad = SessionOptions::new().instances(0);
        let err = drive_evaluator(
            &circuit,
            &lanes,
            &lanes,
            1,
            &mut ca,
            Vec::new(),
            &mut ot_r,
            &bad,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            ProtoError::Config(ConfigError::ZeroInstances)
        ));
    }

    #[test]
    fn lane_count_mismatch_is_a_typed_error() {
        let circuit = tiny_circuit();
        let lanes = [
            PartyData::from_stream(vec![vec![true]]),
            PartyData::from_stream(vec![vec![false]]),
        ];
        let (mut ca, _cb) = duplex();
        let mut prg = Prg::from_entropy();
        let mut ot_s = InsecureOt;
        let opts = SessionOptions::new().instances(4);
        let err = drive_garbler(
            &circuit,
            &lanes,
            &lanes,
            1,
            &mut ca,
            Vec::new(),
            &mut ot_s,
            &mut prg,
            &opts,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            ProtoError::Config(ConfigError::LaneCount {
                expected: 4,
                got: 2
            })
        ));
    }
}
