//! The two-party sequential GC protocol without SkipGate (the paper's
//! "conventional GC" baseline, §2.3), selected by
//! [`EngineKind::Baseline`](crate::options::EngineKind::Baseline).
//!
//! Alice garbles every gate of every cycle and streams the tables; Bob
//! evaluates them. Input labels are delivered up front: direct transfer
//! for wires whose value Alice knows (her inputs, constants and the
//! public input `p` — which this baseline deliberately treats as secret
//! data, exactly like the paper's "conventional GC" columns), and OT for
//! Bob's inputs.
//!
//! Each cycle is walked in netlist order through the wavefront batcher,
//! like a single-lane SkipGate session. Every cycle garbles the same
//! `non_xor_count` tables, so both parties derive the per-cycle shard
//! partition without coordination. The SkipGate-only counters of the
//! returned [`SkipGateStats`] are identically zero.

use arm2gc_circuit::sim::PartyData;
use arm2gc_circuit::{Circuit, DffInit, OutputMode, Role};
use arm2gc_comm::Channel;
use arm2gc_crypto::{Label, Prg};
use arm2gc_garble::{
    EvalWavefront, GarbleWavefront, GarbledTable, HalfGateEvaluator, HalfGateGarbler,
    WavefrontStats,
};
use arm2gc_ot::{OtReceiver, OtSender};
use arm2gc_proto::{
    EvaluatorSession, GarblerSession, ProtoError as ProtocolError, SessionStats, ShardConfig,
    StreamConfig,
};

use crate::engine::{SkipGateOutcome, SkipGateStats};

/// Garbler (Alice) side. `public` is the public input `p`; this engine
/// garbles it like private data (the whole point of the baseline).
/// Outputs are revealed to both parties.
#[allow(clippy::too_many_arguments)]
pub(crate) fn garble(
    circuit: &Circuit,
    alice: &PartyData,
    public: &PartyData,
    cycles: usize,
    ch: &mut dyn Channel,
    shard_chs: Vec<Box<dyn Channel>>,
    ot: &mut dyn OtSender,
    prg: &mut Prg,
    stream: StreamConfig,
    shards: ShardConfig,
) -> Result<SkipGateOutcome, ProtocolError> {
    let mut session = GarblerSession::establish_sharded(ch, shard_chs, ot, prg, stream, shards)?;
    let d = session.delta().as_label();
    let garbler = HalfGateGarbler::new(session.delta());
    let mut labels = vec![Label::ZERO; circuit.wire_count()];

    // --- Input label distribution -------------------------------------
    let mut direct: Vec<Label> = Vec::new();
    let mut ot_pairs: Vec<(Label, Label)> = Vec::new();

    for &(w, v) in circuit.consts() {
        let x0 = session.fresh_label();
        labels[w.index()] = x0;
        direct.push(if v { x0 ^ d } else { x0 });
    }
    for dff in circuit.dffs() {
        let x0 = session.fresh_label();
        labels[dff.q.index()] = x0;
        match dff.init {
            DffInit::Const(v) => direct.push(if v { x0 ^ d } else { x0 }),
            DffInit::Public(i) => {
                let v = public.init[i as usize];
                direct.push(if v { x0 ^ d } else { x0 });
            }
            DffInit::Alice(i) => {
                let v = alice.init[i as usize];
                direct.push(if v { x0 ^ d } else { x0 });
            }
            DffInit::Bob(_) => ot_pairs.push((x0, x0 ^ d)),
        }
    }
    // Fresh labels for every (cycle, input wire).
    let mut stream_labels: Vec<Vec<Label>> = Vec::with_capacity(cycles);
    for cycle in 0..cycles {
        let mut per_cycle = Vec::with_capacity(circuit.inputs().len());
        let mut idx = [0usize; 3];
        for input in circuit.inputs() {
            let x0 = session.fresh_label();
            per_cycle.push(x0);
            match input.role {
                Role::Alice => {
                    let v = alice.stream[cycle][idx[0]];
                    idx[0] += 1;
                    direct.push(if v { x0 ^ d } else { x0 });
                }
                Role::Public => {
                    let v = public.stream[cycle][idx[2]];
                    idx[2] += 1;
                    direct.push(if v { x0 ^ d } else { x0 });
                }
                Role::Bob => {
                    idx[1] += 1;
                    ot_pairs.push((x0, x0 ^ d));
                }
            }
        }
        stream_labels.push(per_cycle);
    }

    session.send_direct_labels(&direct)?;
    session.ot_send(&ot_pairs)?;

    // --- Cycle loop ----------------------------------------------------
    let mut wavefront = GarbleWavefront::new(circuit.wire_count());
    let non_xor = circuit.non_xor_count();
    let mut tweak = 0u64;
    let mut cycles_run = 0usize;
    let mut decode_bits: Vec<bool> = Vec::new();
    for (cycle, cycle_labels) in stream_labels.iter().enumerate() {
        session.begin_cycle(non_xor as usize);
        for (input, &x0) in circuit.inputs().iter().zip(cycle_labels) {
            labels[input.wire.index()] = x0;
        }
        for gate in circuit.gates() {
            let (a, b, out) = (gate.a.index(), gate.b.index(), gate.out.index());
            if gate.op.is_linear() {
                wavefront.linear(&garbler, &mut labels, gate.op, a, b, out);
            } else {
                wavefront.garble(&garbler, &mut labels, gate.op, a, b, out, tweak, &mut |t| {
                    session.push_table(&t.to_bytes())
                })?;
                tweak += 1;
            }
        }
        wavefront.flush(&garbler, &mut labels, &mut |t| {
            session.push_table(&t.to_bytes())
        })?;
        session.end_cycle()?;

        if matches!(circuit.output_mode(), OutputMode::PerCycle) {
            decode_bits.extend(circuit.outputs().iter().map(|w| labels[w.index()].colour()));
        }
        let next: Vec<Label> = circuit.dffs().iter().map(|f| labels[f.d.index()]).collect();
        for (dff, l) in circuit.dffs().iter().zip(next) {
            labels[dff.q.index()] = l;
        }
        cycles_run = cycle + 1;
    }
    if matches!(circuit.output_mode(), OutputMode::FinalOnly) {
        decode_bits.extend(circuit.outputs().iter().map(|w| labels[w.index()].colour()));
    }

    // --- Output revelation ---------------------------------------------
    let values = session.reveal_outputs(&decode_bits)?;
    Ok(outcome(
        circuit,
        values,
        session.stats(),
        cycles_run,
        wavefront.stats(),
    ))
}

/// Evaluator (Bob) side; the mirror of [`garble`].
pub(crate) fn evaluate(
    circuit: &Circuit,
    bob: &PartyData,
    cycles: usize,
    ch: &mut dyn Channel,
    shard_chs: Vec<Box<dyn Channel>>,
    ot: &mut dyn OtReceiver,
    shards: ShardConfig,
) -> Result<SkipGateOutcome, ProtocolError> {
    let evaluator = HalfGateEvaluator::new();
    let mut session =
        EvaluatorSession::establish_sharded(ch, shard_chs, ot, GarbledTable::BYTES, shards)?;
    let mut active = vec![Label::ZERO; circuit.wire_count()];

    // --- Input labels ----------------------------------------------------
    let mut direct = session.recv_direct_labels()?.into_iter();

    let mut choices: Vec<bool> = Vec::new();
    for dff in circuit.dffs() {
        if let DffInit::Bob(i) = dff.init {
            choices.push(bob.init[i as usize]);
        }
    }
    for cycle in 0..cycles {
        let mut bidx = 0usize;
        for input in circuit.inputs() {
            if input.role == Role::Bob {
                choices.push(bob.stream[cycle][bidx]);
                bidx += 1;
            }
        }
    }
    let mut ot_labels = session.ot_receive(&choices)?.into_iter();

    // Distribute in the same order the garbler produced.
    for &(w, _) in circuit.consts() {
        active[w.index()] = direct.next().ok_or(ProtocolError::Malformed("consts"))?;
    }
    for dff in circuit.dffs() {
        active[dff.q.index()] = match dff.init {
            DffInit::Bob(_) => ot_labels.next().ok_or(ProtocolError::Malformed("ot"))?,
            _ => direct.next().ok_or(ProtocolError::Malformed("dff"))?,
        };
    }
    let mut stream_active: Vec<Vec<Label>> = Vec::with_capacity(cycles);
    for _ in 0..cycles {
        let mut per_cycle = Vec::with_capacity(circuit.inputs().len());
        for input in circuit.inputs() {
            per_cycle.push(match input.role {
                Role::Bob => ot_labels.next().ok_or(ProtocolError::Malformed("ot2"))?,
                _ => direct.next().ok_or(ProtocolError::Malformed("stream"))?,
            });
        }
        stream_active.push(per_cycle);
    }

    // --- Cycle loop ----------------------------------------------------
    let mut wavefront = EvalWavefront::new(circuit.wire_count());
    let non_xor = circuit.non_xor_count();
    let mut tweak = 0u64;
    let mut cycles_run = 0usize;
    let mut my_colours: Vec<bool> = Vec::new();
    for (cycle, cycle_labels) in stream_active.iter().enumerate() {
        session.begin_cycle(non_xor as usize);
        for (input, &l) in circuit.inputs().iter().zip(cycle_labels) {
            active[input.wire.index()] = l;
        }
        for gate in circuit.gates() {
            let (a, b, out) = (gate.a.index(), gate.b.index(), gate.out.index());
            if gate.op.is_linear() {
                wavefront.linear(&evaluator, &mut active, gate.op, a, b, out);
            } else {
                let t = GarbledTable::from_bytes(session.next_table(GarbledTable::BYTES)?);
                wavefront.eval(&evaluator, &mut active, a, b, out, t, tweak);
                tweak += 1;
            }
        }
        wavefront.flush(&evaluator, &mut active);

        if matches!(circuit.output_mode(), OutputMode::PerCycle) {
            my_colours.extend(circuit.outputs().iter().map(|w| active[w.index()].colour()));
        }
        let next: Vec<Label> = circuit.dffs().iter().map(|f| active[f.d.index()]).collect();
        for (dff, l) in circuit.dffs().iter().zip(next) {
            active[dff.q.index()] = l;
        }
        cycles_run = cycle + 1;
    }
    if matches!(circuit.output_mode(), OutputMode::FinalOnly) {
        my_colours.extend(circuit.outputs().iter().map(|w| active[w.index()].colour()));
    }

    // --- Output revelation ----------------------------------------------
    let values = session.reveal_outputs(&my_colours)?;
    Ok(outcome(
        circuit,
        values,
        session.stats(),
        cycles_run,
        wavefront.stats(),
    ))
}

/// Packs a finished baseline run into the SkipGate outcome shape: the
/// revealed bits chunked per output read, and the session's protocol
/// counters.
fn outcome(
    circuit: &Circuit,
    values: Vec<bool>,
    s: SessionStats,
    cycles_run: usize,
    batching: WavefrontStats,
) -> SkipGateOutcome {
    let per = circuit.outputs().len();
    let outputs = if per == 0 {
        Vec::new()
    } else {
        values.chunks(per).map(|c| c.to_vec()).collect()
    };
    SkipGateOutcome {
        outputs,
        stats: SkipGateStats {
            garbled_tables: s.garbled_tables,
            table_bytes: s.table_bytes,
            ots: s.ots,
            cycles_run,
            ..SkipGateStats::default()
        },
        batching,
    }
}
