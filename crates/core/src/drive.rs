//! The two session drivers: [`drive_garbler`] and [`drive_evaluator`].
//!
//! One [`SessionOptions`] value selects everything a session can vary —
//! engine, shard count, lane count, OT backend, streaming — and the
//! drivers dispatch to the engine internals. The lane count also picks
//! the schedule: one lane walks each cycle in netlist order, several
//! lanes run the layered struct-of-arrays loop (see
//! [`crate::engine`]). Both drivers validate the configuration *first*:
//! a zero shard or lane count is a typed [`ConfigError`] carried as
//! [`ProtocolError::Config`], raised before any protocol state exists.
//!
//! Inputs are always lane-shaped (`&[PartyData]`, one entry per
//! configured instance) and the result is always an
//! [`InstancedOutcome`]; a single-instance run is simply `lanes.len()
//! == 1`. This keeps one signature across the whole mode matrix.

use arm2gc_circuit::sim::PartyData;
use arm2gc_circuit::Circuit;
use arm2gc_comm::{duplex, Channel};
use arm2gc_crypto::Prg;
use arm2gc_ot::{OtReceiver, OtSender};
use arm2gc_proto::{ConfigError, ProtoError as ProtocolError};

use crate::baseline;
use crate::engine::{
    evaluate_instanced, evaluate_netlist, garble_instanced, garble_netlist, shard_duplexes,
    InstancedOutcome, SkipGateOutcome,
};
use crate::options::{EngineKind, SessionOptions};

/// Checks the lane-shaped inputs against the configured instance count.
fn check_lanes(opts: &SessionOptions, got: usize) -> Result<(), ProtocolError> {
    if got != opts.instances {
        return Err(ConfigError::LaneCount {
            expected: opts.instances,
            got,
        }
        .into());
    }
    Ok(())
}

fn singleton(outcome: SkipGateOutcome) -> InstancedOutcome {
    let batching = outcome.batching;
    InstancedOutcome {
        lanes: vec![outcome],
        batching,
    }
}

/// Runs the garbler (Alice) side of a session described by `opts`.
///
/// `alices` and `publics` carry one [`PartyData`] per configured lane
/// (`opts.instances` entries each). Dispatch:
///
/// * [`EngineKind::Baseline`] — the classic engine, netlist walk
///   (single lane only; [`ConfigError::BaselineInstanced`] otherwise);
/// * [`EngineKind::SkipGate`], one lane — the netlist-order wavefront
///   walk, streaming tables as they are hashed;
/// * [`EngineKind::SkipGate`], several lanes — the cross-instance
///   layered walk.
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
    opts.validate()?;
    let shards = opts.shard_config()?;
    check_lanes(opts, alices.len())?;
    check_lanes(opts, publics.len())?;
    match (opts.engine, opts.instances) {
        (EngineKind::Baseline, _) => baseline::garble(
            circuit,
            &alices[0],
            &publics[0],
            cycles,
            ch,
            shard_chs,
            ot,
            prg,
            opts.stream,
            shards,
        )
        .map(singleton),
        (EngineKind::SkipGate, 1) => garble_netlist(
            circuit,
            &alices[0],
            &publics[0],
            cycles,
            ch,
            shard_chs,
            ot,
            prg,
            opts,
            shards,
        )
        .map(singleton),
        (EngineKind::SkipGate, _) => garble_instanced(
            circuit, alices, publics, cycles, ch, shard_chs, ot, prg, opts, shards,
        ),
    }
}

/// Runs the evaluator (Bob) side of a session described by `opts`; the
/// mirror of [`drive_garbler`]. Both parties must drive with equal
/// `opts` (shard and lane counts are out-of-band session
/// configuration).
///
/// # Errors
/// [`ProtocolError::Config`] when `opts` fails validation or the lane
/// arrays disagree with `opts.instances`; otherwise propagates channel
/// and OT failures.
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
    opts.validate()?;
    let shards = opts.shard_config()?;
    check_lanes(opts, bobs.len())?;
    check_lanes(opts, publics.len())?;
    match (opts.engine, opts.instances) {
        (EngineKind::Baseline, _) => {
            baseline::evaluate(circuit, &bobs[0], cycles, ch, shard_chs, ot, shards).map(singleton)
        }
        (EngineKind::SkipGate, 1) => evaluate_netlist(
            circuit,
            &bobs[0],
            &publics[0],
            cycles,
            ch,
            shard_chs,
            ot,
            opts,
            shards,
        )
        .map(singleton),
        (EngineKind::SkipGate, _) => evaluate_instanced(
            circuit, bobs, publics, cycles, ch, shard_chs, ot, opts, shards,
        ),
    }
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
    use arm2gc_proto::ProtoError;

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
