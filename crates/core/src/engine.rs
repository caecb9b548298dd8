//! The two-party SkipGate protocol (Algorithms 1 and 2).
//!
//! Differences from the classic baseline engine
//! ([`EngineKind::Baseline`](crate::options::EngineKind::Baseline)):
//!
//! * the public input `p` (constants, `Public` flip-flop initialisation,
//!   `Public` input streams) never gets labels — both parties track its
//!   values locally, for free;
//! * each cycle first runs the shared [`DecideContext`] pass, then Alice
//!   garbles / Bob evaluates only the surviving category-iv gates;
//! * when the circuit's halt wire becomes publicly 1, both parties stop
//!   without any extra communication;
//! * output bits on public wires are reported without interaction; only
//!   secret outputs go through the colour-bit exchange.
//!
//! # Schedules
//!
//! The lane count picks the schedule; there is no other knob. A
//! single-lane session walks each cycle in netlist order and batches
//! wavefronts on the fly (`garble_netlist` / `evaluate_netlist`):
//! tables stream out as they are hashed, so the evaluator overlaps with
//! the garbler and the working set stays one cycle's labels. An
//! instanced session executes a precomputed [`LayerSchedule`] across
//! all lanes (`garble_instanced` / `evaluate_instanced`): each
//! level hashes every lane's surviving gates in one batch, and a cycle
//! whose alias edges cross static levels is re-leveled
//! ([`LayerSchedule::relevel_cycle`]). Both walks emit tables in
//! netlist order, so the transcript never depends on the schedule.
//!
//! Transport is the shared typed session layer ([`arm2gc_proto`]): both
//! engines deliver labels, stream tables and reveal outputs through the
//! same [`GarblerSession`]/[`EvaluatorSession`] code paths, optionally
//! splitting the table stream across sub-channels ([`ShardConfig`]):
//! the SkipGate decision pass is shared and deterministic, so each
//! cycle's surviving-table count — and hence the per-cycle shard
//! partition — is known to both parties without coordination.

use arm2gc_circuit::sim::PartyData;
use arm2gc_circuit::{
    Circuit, CycleDep, CyclePatch, DffInit, LayerSchedule, Op, OutputMode, Role, WireId,
};
use arm2gc_comm::{duplex, Channel};
use arm2gc_crypto::{Label, Prg};
use arm2gc_garble::{
    EvalLayered, EvalWavefront, GarbleLayered, GarbleWavefront, GarbledTable, HalfGateEvaluator,
    HalfGateGarbler, WavefrontStats,
};
use arm2gc_ot::{OtReceiver, OtSender};
use arm2gc_proto::{EvaluatorSession, GarblerSession, ProtoError as ProtocolError, ShardConfig};

use crate::decide::{CycleDecisions, DecideContext, GateDecision};
use crate::options::SessionOptions;
use crate::state::WireVal;
use crate::tag::TagAllocator;

/// Cost accounting for a SkipGate run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SkipGateStats {
    /// Garbled tables actually transferred — the paper's "# of garbled
    /// non-XOR with SkipGate".
    pub garbled_tables: u64,
    /// Nonlinear gates skipped because their `label_fanout` hit zero.
    pub skipped_nonlinear: u64,
    /// Gates resolved to public constants (categories i–iii).
    pub public_gates: u64,
    /// Gates that acted as wires/inverters or aliases.
    pub pass_gates: u64,
    /// Free XOR/XNOR gates.
    pub free_xor: u64,
    /// Bytes of garbled tables sent.
    pub table_bytes: u64,
    /// OTs executed for Bob's inputs.
    pub ots: u64,
    /// Cycles executed (may stop early at a public halt).
    pub cycles_run: usize,
}

/// Result of a SkipGate protocol run.
#[derive(Clone, Debug)]
pub struct SkipGateOutcome {
    /// Output bits per scheduled read.
    pub outputs: Vec<Vec<bool>>,
    /// Cost counters.
    pub stats: SkipGateStats,
    /// How well the surviving nonlinear gates batched through the wide
    /// AES core (wavefronts for one lane, schedule levels for several).
    /// Not a protocol cost — identical transcripts can batch
    /// differently.
    pub batching: WavefrontStats,
}

impl SkipGateOutcome {
    /// The last (or only) output vector.
    ///
    /// # Panics
    /// Panics if the circuit has no outputs.
    pub fn final_output(&self) -> &[bool] {
        self.outputs.last().expect("no outputs")
    }
}

/// An output bit scheduled for revelation.
#[derive(Clone, Copy, Debug)]
enum OutBit {
    Known(bool),
    Secret, // consumes the next slot of the colour exchange
}

/// Shared (party-independent) protocol state.
struct Shared<'c> {
    circuit: &'c Circuit,
    ctx: DecideContext<'c>,
    states: Vec<WireVal>,
    alloc: TagAllocator,
    frames: Vec<Vec<OutBit>>,
    stats: SkipGateStats,
    /// Cycle-persistent scratch for the flip-flop state copy.
    dff_scratch: Vec<WireVal>,
}

impl<'c> Shared<'c> {
    fn new(circuit: &'c Circuit, filter_dead: bool) -> Self {
        let mut ctx = DecideContext::new(circuit);
        ctx.filter_dead = filter_dead;
        Self {
            circuit,
            ctx,
            states: vec![WireVal::Public(false); circuit.wire_count()],
            alloc: TagAllocator::new(),
            frames: Vec::new(),
            stats: SkipGateStats::default(),
            dff_scratch: Vec::new(),
        }
    }

    /// Initialises constant wires and flip-flop states; returns the wires
    /// (in deterministic order) that need Alice labels / Bob OT.
    fn init_states(&mut self, public: &PartyData) -> (Vec<WireId>, Vec<WireId>) {
        let mut alice_wires = Vec::new();
        let mut bob_wires = Vec::new();
        for &(w, v) in self.circuit.consts() {
            self.states[w.index()] = WireVal::Public(v);
        }
        for dff in self.circuit.dffs() {
            self.states[dff.q.index()] = match dff.init {
                DffInit::Const(v) => WireVal::Public(v),
                DffInit::Public(i) => WireVal::Public(public.init[i as usize]),
                DffInit::Alice(_) => {
                    alice_wires.push(dff.q);
                    WireVal::Secret(self.alloc.fresh())
                }
                DffInit::Bob(_) => {
                    bob_wires.push(dff.q);
                    WireVal::Secret(self.alloc.fresh())
                }
            };
        }
        (alice_wires, bob_wires)
    }

    /// Sets the per-cycle input wire states; secret wires get fresh tags.
    fn set_cycle_inputs(&mut self, cycle: usize, public: &PartyData) {
        let mut pidx = 0usize;
        for input in self.circuit.inputs() {
            self.states[input.wire.index()] = match input.role {
                Role::Public => {
                    let v = public.stream[cycle][pidx];
                    pidx += 1;
                    WireVal::Public(v)
                }
                Role::Alice | Role::Bob => WireVal::Secret(self.alloc.fresh()),
            };
        }
    }

    fn record_frame(&mut self) {
        let frame = self
            .circuit
            .outputs()
            .iter()
            .map(|w| match self.states[w.index()] {
                WireVal::Public(v) => OutBit::Known(v),
                WireVal::Secret(_) => OutBit::Secret,
            })
            .collect();
        self.frames.push(frame);
    }

    fn halted(&self) -> bool {
        self.circuit
            .halt_wire()
            .map(|w| self.states[w.index()] == WireVal::Public(true))
            .unwrap_or(false)
    }

    fn copy_dffs(&mut self) {
        let Shared {
            circuit,
            states,
            dff_scratch,
            ..
        } = self;
        dff_scratch.clear();
        dff_scratch.extend(circuit.dffs().iter().map(|d| states[d.d.index()]));
        for (dff, &v) in circuit.dffs().iter().zip(dff_scratch.iter()) {
            states[dff.q.index()] = v;
        }
    }

    fn absorb_counts(&mut self, counts: &crate::decide::DecisionCounts) {
        self.stats.public_gates += counts.public_out;
        self.stats.pass_gates += counts.pass + counts.aliased;
        self.stats.free_xor += counts.free_xor;
        self.stats.garbled_tables += counts.garbled;
        self.stats.skipped_nonlinear += counts.skipped_nonlinear;
    }

    /// Merges the secret-output values from the colour exchange with the
    /// publicly known bits.
    fn assemble_outputs(&self, secret_values: &[bool]) -> Vec<Vec<bool>> {
        let mut it = secret_values.iter();
        self.frames
            .iter()
            .map(|frame| {
                frame
                    .iter()
                    .map(|ob| match ob {
                        OutBit::Known(v) => *v,
                        OutBit::Secret => *it.next().expect("secret output slot"),
                    })
                    .collect()
            })
            .collect()
    }
}

/// Options for the SkipGate engines.
#[derive(Clone, Copy, Debug)]
pub struct SkipGateOptions {
    /// Keep Alg. 4 line 18's dead-gate filtering on (default). Turn off
    /// only for the ablation benchmark.
    pub filter_dead_gates: bool,
}

impl Default for SkipGateOptions {
    fn default() -> Self {
        Self {
            filter_dead_gates: true,
        }
    }
}

/// Per-cycle layering plan: fills `ordinals` with each gate's emission
/// slot (its index among `Garble` decisions in netlist order, or
/// `u32::MAX`) and prepares `patch` for the cycle. The decision pass
/// may alias a gate's output to *any* earlier-netlist wire — including
/// one produced at a deeper topological level — and for such a cycle
/// the static levels are re-leveled incrementally: only the aliased
/// gate and its transitively-late dependents move to deeper levels
/// ([`LayerSchedule::relevel_cycle`]); everything else keeps its static
/// slot. Both parties run identical decisions, so they compute the
/// identical patch without coordination. Emission slots are netlist
/// ordinals either way, so the wire transcript never depends on the
/// patch.
///
/// Returns whether the cycle was re-leveled (`patch` is the identity
/// otherwise).
fn layer_cycle_plan(
    sched: &LayerSchedule,
    circuit: &Circuit,
    decisions: &[GateDecision],
    ordinals: &mut Vec<u32>,
    patch: &mut CyclePatch,
) -> bool {
    ordinals.clear();
    ordinals.resize(decisions.len(), u32::MAX);
    let mut next = 0u32;
    let mut safe = true;
    for (gi, d) in decisions.iter().enumerate() {
        match *d {
            GateDecision::Garble => {
                ordinals[gi] = next;
                next += 1;
            }
            GateDecision::Alias { src, .. } => {
                safe &= sched.copy_is_level_safe(gi, src.index());
            }
            _ => {}
        }
    }
    if safe {
        patch.clear();
        return false;
    }
    sched.relevel_cycle(
        circuit,
        |gi| match decisions[gi] {
            GateDecision::PublicOut(_) | GateDecision::Skipped | GateDecision::SkippedFree => {
                CycleDep::Absent
            }
            GateDecision::Pass { from_a, .. } => {
                let g = &circuit.gates()[gi];
                CycleDep::Copy(if from_a { g.a } else { g.b }.index() as u32)
            }
            GateDecision::Alias { src, .. } => CycleDep::Copy(src.index() as u32),
            GateDecision::FreeXor { .. } | GateDecision::Garble => CycleDep::Inputs,
        },
        patch,
    )
}

/// Alice's side of a single-lane session (Algorithm 1): garbles only
/// what SkipGate keeps. Each cycle is walked in netlist order through
/// the wavefront batcher, which hands every table to the session as
/// soon as its wavefront is hashed, so the evaluator starts consuming a
/// cycle before the garbler has finished it.
#[allow(clippy::too_many_arguments)]
pub(crate) fn garble_netlist(
    circuit: &Circuit,
    alice: &PartyData,
    public: &PartyData,
    cycles: usize,
    ch: &mut dyn Channel,
    shard_chs: Vec<Box<dyn Channel>>,
    ot: &mut dyn OtSender,
    prg: &mut Prg,
    opts: &SessionOptions,
    shards: ShardConfig,
) -> Result<SkipGateOutcome, ProtocolError> {
    let mut session =
        GarblerSession::establish_sharded(ch, shard_chs, ot, prg, opts.stream, shards)?;
    let d = session.delta().as_label();
    let garbler = HalfGateGarbler::new(session.delta());
    let mut shared = Shared::new(circuit, opts.skipgate.filter_dead_gates);
    let mut labels = vec![Label::ZERO; circuit.wire_count()];

    // --- Input labels ---------------------------------------------------
    let (alice_wires, bob_wires) = shared.init_states(public);
    let mut direct = Vec::new();
    let mut ot_pairs = Vec::new();
    for (w, dff) in circuit
        .dffs()
        .iter()
        .filter(|f| matches!(f.init, DffInit::Alice(_)))
        .map(|f| (f.q, f))
    {
        let x0 = session.fresh_label();
        labels[w.index()] = x0;
        let DffInit::Alice(i) = dff.init else {
            unreachable!()
        };
        direct.push(if alice.init[i as usize] { x0 ^ d } else { x0 });
    }
    for dff in circuit
        .dffs()
        .iter()
        .filter(|f| matches!(f.init, DffInit::Bob(_)))
    {
        let x0 = session.fresh_label();
        labels[dff.q.index()] = x0;
        ot_pairs.push((x0, x0 ^ d));
    }
    debug_assert_eq!(alice_wires.len(), direct.len());
    debug_assert_eq!(bob_wires.len(), ot_pairs.len());

    // Per-cycle secret input labels, generated up front.
    let mut stream_labels: Vec<Vec<(WireId, Label)>> = Vec::with_capacity(cycles);
    for cycle in 0..cycles {
        let mut per_cycle = Vec::new();
        let mut aidx = 0usize;
        for input in circuit.inputs() {
            match input.role {
                Role::Alice => {
                    let x0 = session.fresh_label();
                    let v = alice.stream[cycle][aidx];
                    aidx += 1;
                    direct.push(if v { x0 ^ d } else { x0 });
                    per_cycle.push((input.wire, x0));
                }
                Role::Bob => {
                    let x0 = session.fresh_label();
                    ot_pairs.push((x0, x0 ^ d));
                    per_cycle.push((input.wire, x0));
                }
                Role::Public => {}
            }
        }
        stream_labels.push(per_cycle);
    }
    session.send_direct_labels(&direct)?;
    session.ot_send(&ot_pairs)?;

    // --- Cycle loop -------------------------------------------------------
    // Surviving gates are batched for the wide AES core by wavefronts
    // discovered inside the netlist-order walk; the table stream stays
    // byte-identical to a sequential walk.
    let mut wavefront = GarbleWavefront::new(circuit.wire_count());
    let mut tweak = 0u64;
    let mut decode_bits: Vec<bool> = Vec::new();
    let mut next_dffs: Vec<Label> = Vec::new();
    for (cycle, cycle_labels) in stream_labels.iter().enumerate() {
        shared.set_cycle_inputs(cycle, public);
        for &(w, x0) in cycle_labels {
            labels[w.index()] = x0;
        }
        let is_last = cycle + 1 == cycles;
        let decisions = {
            let Shared {
                ctx, states, alloc, ..
            } = &mut shared;
            ctx.decide_cycle(states, alloc, is_last)
        };
        shared.absorb_counts(&decisions.counts);
        session.begin_cycle(decisions.counts.garbled as usize);

        for (gate, decision) in circuit.gates().iter().zip(&decisions.decisions) {
            match *decision {
                GateDecision::PublicOut(_) | GateDecision::Skipped | GateDecision::SkippedFree => {}
                GateDecision::Pass { from_a, flip } => {
                    let src = if from_a { gate.a } else { gate.b };
                    wavefront.copy(&garbler, &mut labels, src.index(), gate.out.index(), flip);
                }
                GateDecision::Alias { src, flip } => {
                    wavefront.copy(&garbler, &mut labels, src.index(), gate.out.index(), flip);
                }
                GateDecision::FreeXor { flip } => {
                    wavefront.xor(
                        &garbler,
                        &mut labels,
                        gate.a.index(),
                        gate.b.index(),
                        gate.out.index(),
                        flip,
                    );
                }
                GateDecision::Garble => {
                    wavefront.garble(
                        &garbler,
                        &mut labels,
                        gate.op,
                        gate.a.index(),
                        gate.b.index(),
                        gate.out.index(),
                        tweak,
                        &mut |t| session.push_table(&t.to_bytes()),
                    )?;
                    tweak += 1;
                }
            }
        }
        wavefront.flush(&garbler, &mut labels, &mut |t| {
            session.push_table(&t.to_bytes())
        })?;
        session.end_cycle()?;

        if matches!(circuit.output_mode(), OutputMode::PerCycle) {
            shared.record_frame();
            decode_bits.extend(
                circuit
                    .outputs()
                    .iter()
                    .filter(|&w| shared.states[w.index()].is_secret())
                    .map(|w| labels[w.index()].colour()),
            );
        }
        let halted = shared.halted();

        // Flip-flop copies: states and labels.
        next_dffs.clear();
        next_dffs.extend(circuit.dffs().iter().map(|f| labels[f.d.index()]));
        for (dff, &l) in circuit.dffs().iter().zip(next_dffs.iter()) {
            labels[dff.q.index()] = l;
        }
        shared.copy_dffs();
        shared.stats.cycles_run = cycle + 1;
        if halted {
            break;
        }
    }
    if matches!(circuit.output_mode(), OutputMode::FinalOnly) {
        shared.record_frame();
        decode_bits.extend(
            circuit
                .outputs()
                .iter()
                .filter(|&w| shared.states[w.index()].is_secret())
                .map(|w| labels[w.index()].colour()),
        );
    }

    // --- Output revelation -------------------------------------------------
    let secret_values = session.reveal_outputs(&decode_bits)?;
    let outputs = shared.assemble_outputs(&secret_values);
    let mut stats = shared.stats;
    stats.ots = session.stats().ots;
    stats.table_bytes = session.stats().table_bytes;
    stats.garbled_tables = session.stats().garbled_tables;
    Ok(SkipGateOutcome {
        outputs,
        stats,
        batching: wavefront.stats(),
    })
}

/// Bob's side of a single-lane session (Algorithm 2), the mirror of
/// [`garble_netlist`]: evaluates only what SkipGate keeps, pulling
/// tables in gate order as the netlist walk reaches them.
///
/// Unlike the classic baseline, Bob needs the public input `p` — that is
/// the whole point of SkipGate.
#[allow(clippy::too_many_arguments)]
pub(crate) fn evaluate_netlist(
    circuit: &Circuit,
    bob: &PartyData,
    public: &PartyData,
    cycles: usize,
    ch: &mut dyn Channel,
    shard_chs: Vec<Box<dyn Channel>>,
    ot: &mut dyn OtReceiver,
    opts: &SessionOptions,
    shards: ShardConfig,
) -> Result<SkipGateOutcome, ProtocolError> {
    let evaluator = HalfGateEvaluator::new();
    let mut session =
        EvaluatorSession::establish_sharded(ch, shard_chs, ot, GarbledTable::BYTES, shards)?;
    let mut shared = Shared::new(circuit, opts.skipgate.filter_dead_gates);
    let mut active = vec![Label::ZERO; circuit.wire_count()];

    // --- Input labels -----------------------------------------------------
    let (alice_wires, bob_wires) = shared.init_states(public);
    let mut direct = session.recv_direct_labels()?.into_iter();
    for &w in &alice_wires {
        active[w.index()] = direct
            .next()
            .ok_or(ProtocolError::Malformed("alice dffs"))?;
    }

    let mut choices = Vec::new();
    for dff in circuit.dffs() {
        if let DffInit::Bob(i) = dff.init {
            choices.push(bob.init[i as usize]);
        }
    }
    // Per-cycle stream: walk in garbler order, collecting Bob choices and
    // Alice labels.
    let mut stream_slots: Vec<Vec<(WireId, Option<Label>)>> = Vec::with_capacity(cycles);
    for cycle in 0..cycles {
        let mut per_cycle = Vec::new();
        let mut bidx = 0usize;
        for input in circuit.inputs() {
            match input.role {
                Role::Alice => {
                    let l = direct.next().ok_or(ProtocolError::Malformed("stream"))?;
                    per_cycle.push((input.wire, Some(l)));
                }
                Role::Bob => {
                    choices.push(bob.stream[cycle][bidx]);
                    bidx += 1;
                    per_cycle.push((input.wire, None));
                }
                Role::Public => {}
            }
        }
        stream_slots.push(per_cycle);
    }
    let mut ot_iter = session.ot_receive(&choices)?.into_iter();
    for &w in &bob_wires {
        active[w.index()] = ot_iter.next().ok_or(ProtocolError::Malformed("bob ot"))?;
    }
    for per_cycle in &mut stream_slots {
        for (_, slot) in per_cycle.iter_mut() {
            if slot.is_none() {
                *slot = Some(ot_iter.next().ok_or(ProtocolError::Malformed("bob ot2"))?);
            }
        }
    }

    // --- Cycle loop ---------------------------------------------------------
    let mut wavefront = EvalWavefront::new(circuit.wire_count());
    let mut tweak = 0u64;
    let mut my_colours: Vec<bool> = Vec::new();
    let mut next_dffs: Vec<Label> = Vec::new();
    for (cycle, cycle_slots) in stream_slots.iter().enumerate() {
        shared.set_cycle_inputs(cycle, public);
        for &(w, l) in cycle_slots {
            active[w.index()] = l.expect("filled above");
        }
        let is_last = cycle + 1 == cycles;
        let decisions = {
            let Shared {
                ctx, states, alloc, ..
            } = &mut shared;
            ctx.decide_cycle(states, alloc, is_last)
        };
        shared.absorb_counts(&decisions.counts);
        session.begin_cycle(decisions.counts.garbled as usize);

        for (gate, decision) in circuit.gates().iter().zip(&decisions.decisions) {
            match *decision {
                GateDecision::PublicOut(_) | GateDecision::Skipped | GateDecision::SkippedFree => {}
                GateDecision::Pass { from_a, .. } => {
                    let src = if from_a { gate.a } else { gate.b };
                    wavefront.copy(&mut active, src.index(), gate.out.index());
                }
                GateDecision::Alias { src, .. } => {
                    wavefront.copy(&mut active, src.index(), gate.out.index());
                }
                GateDecision::FreeXor { .. } => {
                    wavefront.xor(
                        &mut active,
                        gate.a.index(),
                        gate.b.index(),
                        gate.out.index(),
                    );
                }
                GateDecision::Garble => {
                    let t = GarbledTable::from_bytes(session.next_table(GarbledTable::BYTES)?);
                    wavefront.eval(
                        &evaluator,
                        &mut active,
                        gate.a.index(),
                        gate.b.index(),
                        gate.out.index(),
                        t,
                        tweak,
                    );
                    tweak += 1;
                }
            }
        }
        wavefront.flush(&evaluator, &mut active);

        if matches!(circuit.output_mode(), OutputMode::PerCycle) {
            shared.record_frame();
            my_colours.extend(
                circuit
                    .outputs()
                    .iter()
                    .filter(|&w| shared.states[w.index()].is_secret())
                    .map(|w| active[w.index()].colour()),
            );
        }
        let halted = shared.halted();

        next_dffs.clear();
        next_dffs.extend(circuit.dffs().iter().map(|f| active[f.d.index()]));
        for (dff, &l) in circuit.dffs().iter().zip(next_dffs.iter()) {
            active[dff.q.index()] = l;
        }
        shared.copy_dffs();
        shared.stats.cycles_run = cycle + 1;
        if halted {
            break;
        }
    }
    if matches!(circuit.output_mode(), OutputMode::FinalOnly) {
        shared.record_frame();
        my_colours.extend(
            circuit
                .outputs()
                .iter()
                .filter(|&w| shared.states[w.index()].is_secret())
                .map(|w| active[w.index()].colour()),
        );
    }

    // --- Output revelation ----------------------------------------------
    let secret_values = session.reveal_outputs(&my_colours)?;
    let outputs = shared.assemble_outputs(&secret_values);
    let mut stats = shared.stats;
    stats.ots = session.stats().ots;
    stats.table_bytes = session.stats().table_bytes;
    stats.garbled_tables = session.stats().garbled_tables;
    Ok(SkipGateOutcome {
        outputs,
        stats,
        batching: wavefront.stats(),
    })
}

/// Result of one session, whichever driver ran it
/// ([`drive_garbler`](crate::drive::drive_garbler) /
/// [`drive_evaluator`](crate::drive::drive_evaluator)): one
/// [`SkipGateOutcome`] per lane, so a single-lane session is simply
/// `lanes.len() == 1`.
#[derive(Clone, Debug)]
pub struct InstancedOutcome {
    /// Per-lane outcomes. Outputs and protocol cost counters are
    /// exactly what `lanes.len()` independent sequential runs on the
    /// same inputs would produce. Each lane's `batching` is a copy of
    /// the session-wide [`InstancedOutcome::batching`]: batch widths
    /// are a property of the whole instanced run, not of one lane.
    pub lanes: Vec<SkipGateOutcome>,
    /// Session-wide batching occupancy. In an instanced session every
    /// level's surviving nonlinear gates across *all* active lanes hash
    /// in one batch, so `instances` is the lane count and batch widths
    /// grow up to N× over a single run; a single-lane session reports
    /// its wavefronts, with `levels` and `instances` both 0.
    pub batching: WavefrontStats,
}

/// One lane's per-cycle streamed-input slots: Alice labels arrive with
/// the direct batch; Bob slots start `None` and are filled from OT.
type LaneStreamSlots = Vec<Vec<(WireId, Option<Label>)>>;

/// Per-lane layering plan for one instanced cycle. Lanes diverge only
/// through their public inputs, so decision vectors usually agree;
/// when a lane's vector equals the cycle's first active lane's, the
/// plan is not recomputed — `reuse_first` marks it and the level walk
/// borrows the first lane's ordinals and patch instead.
struct LanePlan {
    ordinals: Vec<u32>,
    patch: CyclePatch,
    releveled: bool,
    reuse_first: bool,
}

/// Applies one lane's decision for gate `gi` against the
/// struct-of-arrays label store (wire `w`, lane `l` at `w * n + l`).
/// `Garble` gates enqueue into the shared instanced driver: the merged
/// slot (gate-major, lane-minor across active lanes) fixes the table's
/// position in the cycle's wire stream, while the tweak stays
/// lane-local (`lane_tweak` + the lane's netlist ordinal) so each
/// lane's tables are bit-identical to its sequential run.
#[allow(clippy::too_many_arguments)]
fn apply_instanced_garble(
    circuit: &Circuit,
    n: usize,
    lane: usize,
    d: Label,
    dec: &CycleDecisions,
    ordinals: &[u32],
    merged: &[u32],
    lane_tweak: u64,
    gi: usize,
    labels: &mut [Label],
    drv: &mut GarbleLayered,
) {
    let gate = &circuit.gates()[gi];
    let idx = |w: WireId| w.index() * n + lane;
    match dec.decisions[gi] {
        GateDecision::PublicOut(_) | GateDecision::Skipped | GateDecision::SkippedFree => {}
        GateDecision::Pass { from_a, flip } => {
            let src = if from_a { gate.a } else { gate.b };
            labels[idx(gate.out)] = labels[idx(src)] ^ if flip { d } else { Label::ZERO };
        }
        GateDecision::Alias { src, flip } => {
            labels[idx(gate.out)] = labels[idx(src)] ^ if flip { d } else { Label::ZERO };
        }
        GateDecision::FreeXor { flip } => {
            labels[idx(gate.out)] =
                labels[idx(gate.a)] ^ labels[idx(gate.b)] ^ if flip { d } else { Label::ZERO };
        }
        GateDecision::Garble => {
            let lane_slot = ordinals[gi] as usize;
            drv.garble(
                labels,
                gate.op,
                idx(gate.a),
                idx(gate.b),
                idx(gate.out),
                lane_tweak + lane_slot as u64,
                merged[gi * n + lane] as usize,
            );
        }
    }
}

/// Evaluator mirror of [`apply_instanced_garble`]: the merged slot
/// selects the lane's table from the cycle's up-front pull.
#[allow(clippy::too_many_arguments)]
fn apply_instanced_eval(
    circuit: &Circuit,
    n: usize,
    lane: usize,
    dec: &CycleDecisions,
    ordinals: &[u32],
    merged: &[u32],
    cycle_tables: &[GarbledTable],
    lane_tweak: u64,
    gi: usize,
    active: &mut [Label],
    drv: &mut EvalLayered,
) {
    let gate = &circuit.gates()[gi];
    let idx = |w: WireId| w.index() * n + lane;
    match dec.decisions[gi] {
        GateDecision::PublicOut(_) | GateDecision::Skipped | GateDecision::SkippedFree => {}
        GateDecision::Pass { from_a, .. } => {
            let src = if from_a { gate.a } else { gate.b };
            active[idx(gate.out)] = active[idx(src)];
        }
        GateDecision::Alias { src, .. } => {
            active[idx(gate.out)] = active[idx(src)];
        }
        GateDecision::FreeXor { .. } => {
            active[idx(gate.out)] = active[idx(gate.a)] ^ active[idx(gate.b)];
        }
        GateDecision::Garble => {
            let lane_slot = ordinals[gi] as usize;
            drv.eval(
                active,
                idx(gate.a),
                idx(gate.b),
                idx(gate.out),
                cycle_tables[merged[gi * n + lane] as usize],
                lane_tweak + lane_slot as u64,
            );
        }
    }
}

/// Alice's side of an instanced session: `alices.len()` independent
/// instances of the same circuit in one session. Lanes keep their own
/// inputs and SkipGate decisions but share one [`LayerSchedule`] and
/// one struct-of-arrays label store, so each level's surviving
/// nonlinear gates across every active lane hash through the wide AES
/// core in a single batch. Lanes halt independently; the session ends
/// when every lane has halted or the cycle budget runs out.
///
/// Wire format: the handshake announces the lane count
/// ([`arm2gc_proto::Message::Instances`], protocol v2); input labels,
/// OT pairs and output decode bits are concatenated lane-major; each
/// cycle's tables interleave gate-major/lane-minor. Lane 0 draws
/// exactly the labels and tweaks a single-lane session would, and at
/// one lane nothing is announced: the transcript is then byte-identical
/// to [`garble_netlist`] (pinned by this module's tests).
#[allow(clippy::too_many_arguments)]
pub(crate) fn garble_instanced(
    circuit: &Circuit,
    alices: &[PartyData],
    publics: &[PartyData],
    cycles: usize,
    ch: &mut dyn Channel,
    shard_chs: Vec<Box<dyn Channel>>,
    ot: &mut dyn OtSender,
    prg: &mut Prg,
    opts: &SessionOptions,
    shards: ShardConfig,
) -> Result<InstancedOutcome, ProtocolError> {
    let n = alices.len();
    debug_assert_eq!(n, publics.len(), "one public input set per lane");
    let mut session =
        GarblerSession::establish_instanced(ch, shard_chs, ot, prg, opts.stream, shards, n as u16)?;
    let d = session.delta().as_label();
    let garbler = HalfGateGarbler::new(session.delta());
    let mut lanes: Vec<Shared> = (0..n)
        .map(|_| Shared::new(circuit, opts.skipgate.filter_dead_gates))
        .collect();
    // Struct-of-arrays labels: wire `w`, lane `l` at `w * n + l`.
    let mut labels = vec![Label::ZERO; circuit.wire_count() * n];

    // --- Input labels, lane-major ----------------------------------------
    // Lane 0 draws exactly the labels a single-instance session would,
    // so the N=1 transcript is pinned byte-identical.
    let mut direct = Vec::new();
    let mut ot_pairs = Vec::new();
    let mut lane_ots = vec![0u64; n];
    let mut stream_labels: Vec<Vec<Vec<(WireId, Label)>>> = Vec::with_capacity(n);
    for (lane, shared) in lanes.iter_mut().enumerate() {
        let (_alice_wires, _bob_wires) = shared.init_states(&publics[lane]);
        let pairs_before = ot_pairs.len();
        for dff in circuit
            .dffs()
            .iter()
            .filter(|f| matches!(f.init, DffInit::Alice(_)))
        {
            let x0 = session.fresh_label();
            labels[dff.q.index() * n + lane] = x0;
            let DffInit::Alice(i) = dff.init else {
                unreachable!()
            };
            direct.push(if alices[lane].init[i as usize] {
                x0 ^ d
            } else {
                x0
            });
        }
        for dff in circuit
            .dffs()
            .iter()
            .filter(|f| matches!(f.init, DffInit::Bob(_)))
        {
            let x0 = session.fresh_label();
            labels[dff.q.index() * n + lane] = x0;
            ot_pairs.push((x0, x0 ^ d));
        }
        let mut per_lane = Vec::with_capacity(cycles);
        for cycle in 0..cycles {
            let mut per_cycle = Vec::new();
            let mut aidx = 0usize;
            for input in circuit.inputs() {
                match input.role {
                    Role::Alice => {
                        let x0 = session.fresh_label();
                        let v = alices[lane].stream[cycle][aidx];
                        aidx += 1;
                        direct.push(if v { x0 ^ d } else { x0 });
                        per_cycle.push((input.wire, x0));
                    }
                    Role::Bob => {
                        let x0 = session.fresh_label();
                        ot_pairs.push((x0, x0 ^ d));
                        per_cycle.push((input.wire, x0));
                    }
                    Role::Public => {}
                }
            }
            per_lane.push(per_cycle);
        }
        stream_labels.push(per_lane);
        lane_ots[lane] = (ot_pairs.len() - pairs_before) as u64;
    }
    session.send_direct_labels(&direct)?;
    session.ot_send(&ot_pairs)?;

    // --- Cycle loop -------------------------------------------------------
    let sched = LayerSchedule::of(circuit);
    let mut drv = GarbleLayered::new(sched.levels(), n);
    let mut plans: Vec<LanePlan> = (0..n)
        .map(|_| LanePlan {
            ordinals: Vec::new(),
            patch: CyclePatch::new(),
            releveled: false,
            reuse_first: false,
        })
        .collect();
    let mut decisions: Vec<Option<CycleDecisions>> = (0..n).map(|_| None).collect();
    let mut merged: Vec<u32> = Vec::new();
    let mut releveled_cycles = 0u64;
    let mut patched_gates = 0u64;
    // Per-lane tweak streams: disjoint by the lane tag in the high
    // bits, and lane 0's stream matches a sequential run exactly.
    let mut lane_tweaks: Vec<u64> = (0..n).map(|l| (l as u64) << 48).collect();
    let mut lane_active = vec![true; n];
    let mut decode_bits: Vec<Vec<bool>> = vec![Vec::new(); n];
    let mut next_dffs: Vec<Label> = Vec::new();
    // `cycle` indexes per-lane structures inside the lane loop, which
    // an enumerate over any single one of them cannot express.
    #[allow(clippy::needless_range_loop)]
    for cycle in 0..cycles {
        if !lane_active.iter().any(|&a| a) {
            break;
        }
        let is_last = cycle + 1 == cycles;
        for lane in 0..n {
            if !lane_active[lane] {
                decisions[lane] = None;
                continue;
            }
            let shared = &mut lanes[lane];
            shared.set_cycle_inputs(cycle, &publics[lane]);
            for &(w, x0) in &stream_labels[lane][cycle] {
                labels[w.index() * n + lane] = x0;
            }
            let dec = {
                let Shared {
                    ctx, states, alloc, ..
                } = shared;
                ctx.decide_cycle(states, alloc, is_last)
            };
            shared.absorb_counts(&dec.counts);
            decisions[lane] = Some(dec);
        }

        // Layering plans, with first-active-lane reuse when decision
        // vectors agree.
        let mut first: Option<usize> = None;
        for lane in 0..n {
            let Some(dec) = decisions[lane].as_ref() else {
                continue;
            };
            let reuse = first.is_some_and(|f| {
                decisions[f]
                    .as_ref()
                    .expect("first lane is active")
                    .decisions
                    == dec.decisions
            });
            plans[lane].reuse_first = reuse;
            if reuse {
                continue;
            }
            let plan = &mut plans[lane];
            plan.releveled = layer_cycle_plan(
                &sched,
                circuit,
                &dec.decisions,
                &mut plan.ordinals,
                &mut plan.patch,
            );
            if first.is_none() {
                first = Some(lane);
            }
        }
        let first = first.unwrap_or(0);
        let plan_of = |lane: usize, plans: &'_ [LanePlan]| -> usize {
            if plans[lane].reuse_first {
                first
            } else {
                lane
            }
        };
        let mut max_levels = sched.levels();
        for lane in 0..n {
            if decisions[lane].is_none() {
                continue;
            }
            let plan = &plans[plan_of(lane, &plans)];
            if plan.releveled {
                releveled_cycles += 1;
                patched_gates += plan.patch.moved_gates();
            }
            max_levels = max_levels.max(plan.patch.levels());
        }

        // Merged emission slots: gate-major, lane-minor over the
        // active lanes, reducing to plain netlist ordinals at N=1.
        let total: usize = decisions
            .iter()
            .flatten()
            .map(|dec| dec.counts.garbled as usize)
            .sum();
        session.begin_cycle(total);
        drv.begin_cycle(total);
        merged.clear();
        merged.resize(circuit.gates().len() * n, u32::MAX);
        let mut next_slot = 0u32;
        for gi in 0..circuit.gates().len() {
            for (lane, dec) in decisions.iter().enumerate() {
                if let Some(dec) = dec {
                    if matches!(dec.decisions[gi], GateDecision::Garble) {
                        merged[gi * n + lane] = next_slot;
                        next_slot += 1;
                    }
                }
            }
        }
        debug_assert_eq!(next_slot as usize, total);

        for level in 0..max_levels {
            for lane in 0..n {
                let Some(dec) = decisions[lane].as_ref() else {
                    continue;
                };
                let plan = &plans[plan_of(lane, &plans)];
                if level < sched.levels() {
                    for &gi in sched.level_gates(level) {
                        let gi = gi as usize;
                        if plan.patch.is_moved(gi) {
                            continue;
                        }
                        apply_instanced_garble(
                            circuit,
                            n,
                            lane,
                            d,
                            dec,
                            &plan.ordinals,
                            &merged,
                            lane_tweaks[lane],
                            gi,
                            &mut labels,
                            &mut drv,
                        );
                    }
                }
                for &gi in plan.patch.moved_at(level) {
                    apply_instanced_garble(
                        circuit,
                        n,
                        lane,
                        d,
                        dec,
                        &plan.ordinals,
                        &merged,
                        lane_tweaks[lane],
                        gi as usize,
                        &mut labels,
                        &mut drv,
                    );
                }
            }
            drv.end_level(&garbler, &mut labels);
        }
        drv.end_cycle(&mut |t| session.push_table(&t.to_bytes()))?;
        session.end_cycle()?;

        for lane in 0..n {
            let Some(dec) = decisions[lane].as_ref() else {
                continue;
            };
            lane_tweaks[lane] += dec.counts.garbled;
            let shared = &mut lanes[lane];
            if matches!(circuit.output_mode(), OutputMode::PerCycle) {
                shared.record_frame();
                decode_bits[lane].extend(
                    circuit
                        .outputs()
                        .iter()
                        .filter(|&w| shared.states[w.index()].is_secret())
                        .map(|w| labels[w.index() * n + lane].colour()),
                );
            }
            let halted = shared.halted();
            // Flip-flop copies happen on the halt cycle too, exactly
            // as in the sequential engines.
            next_dffs.clear();
            next_dffs.extend(
                circuit
                    .dffs()
                    .iter()
                    .map(|f| labels[f.d.index() * n + lane]),
            );
            for (dff, &l) in circuit.dffs().iter().zip(next_dffs.iter()) {
                labels[dff.q.index() * n + lane] = l;
            }
            shared.copy_dffs();
            shared.stats.cycles_run = cycle + 1;
            if halted {
                lane_active[lane] = false;
            }
        }
    }
    if matches!(circuit.output_mode(), OutputMode::FinalOnly) {
        for (lane, shared) in lanes.iter_mut().enumerate() {
            shared.record_frame();
            decode_bits[lane].extend(
                circuit
                    .outputs()
                    .iter()
                    .filter(|&w| shared.states[w.index()].is_secret())
                    .map(|w| labels[w.index() * n + lane].colour()),
            );
        }
    }

    // --- Output revelation: one lane-major colour exchange ----------------
    let all_bits: Vec<bool> = decode_bits.iter().flatten().copied().collect();
    let secret_values = session.reveal_outputs(&all_bits)?;
    let mut batching = drv.stats();
    batching.releveled_cycles = releveled_cycles;
    batching.patched_gates = patched_gates;
    let mut out_lanes = Vec::with_capacity(n);
    let mut off = 0usize;
    for (lane, shared) in lanes.into_iter().enumerate() {
        let take = decode_bits[lane].len();
        let outputs = shared.assemble_outputs(&secret_values[off..off + take]);
        off += take;
        let mut stats = shared.stats;
        stats.table_bytes = stats.garbled_tables * GarbledTable::BYTES as u64;
        stats.ots = lane_ots[lane];
        out_lanes.push(SkipGateOutcome {
            outputs,
            stats,
            batching,
        });
    }
    Ok(InstancedOutcome {
        lanes: out_lanes,
        batching,
    })
}

/// Bob's side of an instanced session; the mirror of
/// [`garble_instanced`]. Each cycle's merged table stream is pulled up
/// front and indexed by the shared gate-major/lane-minor slot
/// assignment, which both parties compute from the (deterministic,
/// public-data-only) decision pass without coordination.
#[allow(clippy::too_many_arguments)]
pub(crate) fn evaluate_instanced(
    circuit: &Circuit,
    bobs: &[PartyData],
    publics: &[PartyData],
    cycles: usize,
    ch: &mut dyn Channel,
    shard_chs: Vec<Box<dyn Channel>>,
    ot: &mut dyn OtReceiver,
    opts: &SessionOptions,
    shards: ShardConfig,
) -> Result<InstancedOutcome, ProtocolError> {
    let n = bobs.len();
    debug_assert_eq!(n, publics.len(), "one public input set per lane");
    let evaluator = HalfGateEvaluator::new();
    let mut session = EvaluatorSession::establish_instanced(
        ch,
        shard_chs,
        ot,
        GarbledTable::BYTES,
        shards,
        n as u16,
    )?;
    let mut lanes: Vec<Shared> = (0..n)
        .map(|_| Shared::new(circuit, opts.skipgate.filter_dead_gates))
        .collect();
    let mut active = vec![Label::ZERO; circuit.wire_count() * n];

    // --- Input labels, lane-major -----------------------------------------
    let mut direct = session.recv_direct_labels()?.into_iter();
    let mut choices = Vec::new();
    let mut lane_ots = vec![0u64; n];
    let mut bob_wires_by_lane: Vec<Vec<WireId>> = Vec::with_capacity(n);
    let mut stream_slots: Vec<LaneStreamSlots> = Vec::with_capacity(n);
    for (lane, shared) in lanes.iter_mut().enumerate() {
        let (alice_wires, bob_wires) = shared.init_states(&publics[lane]);
        for &w in &alice_wires {
            active[w.index() * n + lane] = direct
                .next()
                .ok_or(ProtocolError::Malformed("alice dffs"))?;
        }
        let before = choices.len();
        for dff in circuit.dffs() {
            if let DffInit::Bob(i) = dff.init {
                choices.push(bobs[lane].init[i as usize]);
            }
        }
        let mut per_lane = Vec::with_capacity(cycles);
        for cycle in 0..cycles {
            let mut per_cycle = Vec::new();
            let mut bidx = 0usize;
            for input in circuit.inputs() {
                match input.role {
                    Role::Alice => {
                        let l = direct.next().ok_or(ProtocolError::Malformed("stream"))?;
                        per_cycle.push((input.wire, Some(l)));
                    }
                    Role::Bob => {
                        choices.push(bobs[lane].stream[cycle][bidx]);
                        bidx += 1;
                        per_cycle.push((input.wire, None));
                    }
                    Role::Public => {}
                }
            }
            per_lane.push(per_cycle);
        }
        stream_slots.push(per_lane);
        bob_wires_by_lane.push(bob_wires);
        lane_ots[lane] = (choices.len() - before) as u64;
    }
    let mut ot_iter = session.ot_receive(&choices)?.into_iter();
    for (lane, bob_wires) in bob_wires_by_lane.iter().enumerate() {
        for &w in bob_wires {
            active[w.index() * n + lane] =
                ot_iter.next().ok_or(ProtocolError::Malformed("bob ot"))?;
        }
        for per_cycle in &mut stream_slots[lane] {
            for (_, slot) in per_cycle.iter_mut() {
                if slot.is_none() {
                    *slot = Some(ot_iter.next().ok_or(ProtocolError::Malformed("bob ot2"))?);
                }
            }
        }
    }

    // --- Cycle loop ---------------------------------------------------------
    let sched = LayerSchedule::of(circuit);
    let mut drv = EvalLayered::new(sched.levels(), n);
    let mut plans: Vec<LanePlan> = (0..n)
        .map(|_| LanePlan {
            ordinals: Vec::new(),
            patch: CyclePatch::new(),
            releveled: false,
            reuse_first: false,
        })
        .collect();
    let mut decisions: Vec<Option<CycleDecisions>> = (0..n).map(|_| None).collect();
    let mut merged: Vec<u32> = Vec::new();
    let mut cycle_tables: Vec<GarbledTable> = Vec::new();
    let mut releveled_cycles = 0u64;
    let mut patched_gates = 0u64;
    let mut lane_tweaks: Vec<u64> = (0..n).map(|l| (l as u64) << 48).collect();
    let mut lane_active = vec![true; n];
    let mut my_colours: Vec<Vec<bool>> = vec![Vec::new(); n];
    let mut next_dffs: Vec<Label> = Vec::new();
    // `cycle` indexes per-lane structures inside the lane loop, which
    // an enumerate over any single one of them cannot express.
    #[allow(clippy::needless_range_loop)]
    for cycle in 0..cycles {
        if !lane_active.iter().any(|&a| a) {
            break;
        }
        let is_last = cycle + 1 == cycles;
        for lane in 0..n {
            if !lane_active[lane] {
                decisions[lane] = None;
                continue;
            }
            let shared = &mut lanes[lane];
            shared.set_cycle_inputs(cycle, &publics[lane]);
            for &(w, l) in &stream_slots[lane][cycle] {
                active[w.index() * n + lane] = l.expect("filled above");
            }
            let dec = {
                let Shared {
                    ctx, states, alloc, ..
                } = shared;
                ctx.decide_cycle(states, alloc, is_last)
            };
            shared.absorb_counts(&dec.counts);
            decisions[lane] = Some(dec);
        }

        let mut first: Option<usize> = None;
        for lane in 0..n {
            let Some(dec) = decisions[lane].as_ref() else {
                continue;
            };
            let reuse = first.is_some_and(|f| {
                decisions[f]
                    .as_ref()
                    .expect("first lane is active")
                    .decisions
                    == dec.decisions
            });
            plans[lane].reuse_first = reuse;
            if reuse {
                continue;
            }
            let plan = &mut plans[lane];
            plan.releveled = layer_cycle_plan(
                &sched,
                circuit,
                &dec.decisions,
                &mut plan.ordinals,
                &mut plan.patch,
            );
            if first.is_none() {
                first = Some(lane);
            }
        }
        let first = first.unwrap_or(0);
        let plan_of = |lane: usize, plans: &'_ [LanePlan]| -> usize {
            if plans[lane].reuse_first {
                first
            } else {
                lane
            }
        };
        let mut max_levels = sched.levels();
        for lane in 0..n {
            if decisions[lane].is_none() {
                continue;
            }
            let plan = &plans[plan_of(lane, &plans)];
            if plan.releveled {
                releveled_cycles += 1;
                patched_gates += plan.patch.moved_gates();
            }
            max_levels = max_levels.max(plan.patch.levels());
        }

        let total: usize = decisions
            .iter()
            .flatten()
            .map(|dec| dec.counts.garbled as usize)
            .sum();
        session.begin_cycle(total);
        merged.clear();
        merged.resize(circuit.gates().len() * n, u32::MAX);
        let mut next_slot = 0u32;
        for gi in 0..circuit.gates().len() {
            for (lane, dec) in decisions.iter().enumerate() {
                if let Some(dec) = dec {
                    if matches!(dec.decisions[gi], GateDecision::Garble) {
                        merged[gi * n + lane] = next_slot;
                        next_slot += 1;
                    }
                }
            }
        }
        debug_assert_eq!(next_slot as usize, total);
        cycle_tables.clear();
        for _ in 0..total {
            cycle_tables.push(GarbledTable::from_bytes(
                session.next_table(GarbledTable::BYTES)?,
            ));
        }

        for level in 0..max_levels {
            for lane in 0..n {
                let Some(dec) = decisions[lane].as_ref() else {
                    continue;
                };
                let plan = &plans[plan_of(lane, &plans)];
                if level < sched.levels() {
                    for &gi in sched.level_gates(level) {
                        let gi = gi as usize;
                        if plan.patch.is_moved(gi) {
                            continue;
                        }
                        apply_instanced_eval(
                            circuit,
                            n,
                            lane,
                            dec,
                            &plan.ordinals,
                            &merged,
                            &cycle_tables,
                            lane_tweaks[lane],
                            gi,
                            &mut active,
                            &mut drv,
                        );
                    }
                }
                for &gi in plan.patch.moved_at(level) {
                    apply_instanced_eval(
                        circuit,
                        n,
                        lane,
                        dec,
                        &plan.ordinals,
                        &merged,
                        &cycle_tables,
                        lane_tweaks[lane],
                        gi as usize,
                        &mut active,
                        &mut drv,
                    );
                }
            }
            drv.end_level(&evaluator, &mut active);
        }

        for lane in 0..n {
            let Some(dec) = decisions[lane].as_ref() else {
                continue;
            };
            lane_tweaks[lane] += dec.counts.garbled;
            let shared = &mut lanes[lane];
            if matches!(circuit.output_mode(), OutputMode::PerCycle) {
                shared.record_frame();
                my_colours[lane].extend(
                    circuit
                        .outputs()
                        .iter()
                        .filter(|&w| shared.states[w.index()].is_secret())
                        .map(|w| active[w.index() * n + lane].colour()),
                );
            }
            let halted = shared.halted();
            next_dffs.clear();
            next_dffs.extend(
                circuit
                    .dffs()
                    .iter()
                    .map(|f| active[f.d.index() * n + lane]),
            );
            for (dff, &l) in circuit.dffs().iter().zip(next_dffs.iter()) {
                active[dff.q.index() * n + lane] = l;
            }
            shared.copy_dffs();
            shared.stats.cycles_run = cycle + 1;
            if halted {
                lane_active[lane] = false;
            }
        }
    }
    if matches!(circuit.output_mode(), OutputMode::FinalOnly) {
        for (lane, shared) in lanes.iter_mut().enumerate() {
            shared.record_frame();
            my_colours[lane].extend(
                circuit
                    .outputs()
                    .iter()
                    .filter(|&w| shared.states[w.index()].is_secret())
                    .map(|w| active[w.index() * n + lane].colour()),
            );
        }
    }

    // --- Output revelation ----------------------------------------------
    let all_bits: Vec<bool> = my_colours.iter().flatten().copied().collect();
    let secret_values = session.reveal_outputs(&all_bits)?;
    let mut batching = drv.stats();
    batching.releveled_cycles = releveled_cycles;
    batching.patched_gates = patched_gates;
    let mut out_lanes = Vec::with_capacity(n);
    let mut off = 0usize;
    for (lane, shared) in lanes.into_iter().enumerate() {
        let take = my_colours[lane].len();
        let outputs = shared.assemble_outputs(&secret_values[off..off + take]);
        off += take;
        let mut stats = shared.stats;
        stats.table_bytes = stats.garbled_tables * GarbledTable::BYTES as u64;
        stats.ots = lane_ots[lane];
        out_lanes.push(SkipGateOutcome {
            outputs,
            stats,
            batching,
        });
    }
    Ok(InstancedOutcome {
        lanes: out_lanes,
        batching,
    })
}

/// Connected shard-channel bundles for an in-process sharded run: one
/// [`duplex`] pair per shard (empty vectors when unsharded), garbler
/// ends first. Harnesses and tests building their own two-party runs
/// use this to mirror [`run_two_party_opts`](crate::drive::run_two_party_opts)'s
/// channel setup.
#[allow(clippy::type_complexity)]
pub fn shard_duplexes(shards: ShardConfig) -> (Vec<Box<dyn Channel>>, Vec<Box<dyn Channel>>) {
    let mut garbler: Vec<Box<dyn Channel>> = Vec::new();
    let mut evaluator: Vec<Box<dyn Channel>> = Vec::new();
    if shards.is_sharded() {
        for _ in 0..shards.shards {
            let (g, e) = duplex();
            garbler.push(Box::new(g));
            evaluator.push(Box::new(e));
        }
    }
    (garbler, evaluator)
}

/// Sanity helper used by docs/tests: a netlist must not contain
/// constant-valued gate ops (the builder never emits them).
pub fn assert_no_constant_gates(circuit: &Circuit) {
    for g in circuit.gates() {
        assert!(
            g.op != Op::FALSE && g.op != Op::TRUE,
            "constant gate in netlist"
        );
    }
}

#[cfg(test)]
mod tests {
    use std::sync::{Arc, Mutex};

    use arm2gc_circuit::bench_circuits::{self, BenchCircuit};
    use arm2gc_comm::ChannelError;
    use arm2gc_ot::InsecureOt;

    use super::*;

    /// Frames sent on one channel, in order.
    type Frames = Arc<Mutex<Vec<Vec<u8>>>>;

    /// A [`Channel`] recording every frame sent through it.
    struct Recording<C> {
        inner: C,
        sent: Frames,
    }

    impl<C: Channel> Channel for Recording<C> {
        fn send(&mut self, data: &[u8]) -> Result<(), ChannelError> {
            self.sent.lock().expect("lock").push(data.to_vec());
            self.inner.send(data)
        }

        fn recv(&mut self) -> Result<Vec<u8>, ChannelError> {
            self.inner.recv()
        }
    }

    fn recording<C: Channel>(inner: C, logs: &mut Vec<Frames>) -> Recording<C> {
        let sent = Frames::default();
        logs.push(Arc::clone(&sent));
        Recording { inner, sent }
    }

    /// Runs one single-lane session with fixed PRG seeds through the
    /// netlist walk or the layered walk at one lane, checks both
    /// parties agree, and returns the garbler's outcome plus its frames
    /// on the main channel and every shard sub-channel.
    fn session(
        bc: &BenchCircuit,
        shards: usize,
        layered: bool,
    ) -> (SkipGateOutcome, Vec<Vec<Vec<u8>>>) {
        let opts = SessionOptions::new().shards(shards);
        let shards = opts.shard_config().expect("shard count");
        let (ca, mut cb) = duplex();
        let mut logs = Vec::new();
        let mut ca = recording(ca, &mut logs);
        let (g_shards, e_shards) = shard_duplexes(shards);
        let g_shards: Vec<Box<dyn Channel>> = g_shards
            .into_iter()
            .map(|ch| Box::new(recording(ch, &mut logs)) as Box<dyn Channel>)
            .collect();
        let (alice, bob, public) = (
            std::slice::from_ref(&bc.alice),
            std::slice::from_ref(&bc.bob),
            std::slice::from_ref(&bc.public),
        );
        let (a, b) = std::thread::scope(|s| {
            let garbler = s.spawn(|| {
                let mut prg = Prg::from_seed([71; 16]);
                let (c, ot) = (&bc.circuit, &mut InsecureOt);
                if layered {
                    garble_instanced(
                        c, alice, public, bc.cycles, &mut ca, g_shards, ot, &mut prg, &opts, shards,
                    )
                    .map(|o| o.lanes.into_iter().next().expect("one lane"))
                } else {
                    garble_netlist(
                        c, &alice[0], &public[0], bc.cycles, &mut ca, g_shards, ot, &mut prg,
                        &opts, shards,
                    )
                }
                .expect("garbler")
            });
            let (c, ot) = (&bc.circuit, &mut InsecureOt);
            let b = if layered {
                evaluate_instanced(
                    c, bob, public, bc.cycles, &mut cb, e_shards, ot, &opts, shards,
                )
                .map(|o| o.lanes.into_iter().next().expect("one lane"))
            } else {
                evaluate_netlist(
                    c, &bob[0], &public[0], bc.cycles, &mut cb, e_shards, ot, &opts, shards,
                )
            }
            .expect("evaluator");
            (garbler.join().expect("garbler thread"), b)
        });
        assert_eq!(a.outputs, b.outputs, "{}: party outputs", bc.circuit.name());
        assert_eq!(a.outputs.concat(), bc.expected, "{}", bc.circuit.name());
        assert_eq!(a.batching, b.batching, "parties agree on batching");
        let frames = logs
            .iter()
            .map(|l| l.lock().expect("lock").clone())
            .collect();
        (a, frames)
    }

    /// The pin that licenses one loop per lane count: the layered walk
    /// at one lane sends the byte-identical frame sequence — main
    /// channel and every shard sub-channel — as the netlist walk, with
    /// equal outputs and cost counters. An instanced session's lane 0
    /// therefore garbles exactly what a single-lane session does.
    /// aes_128 re-levels every cycle, so patched schedules are covered.
    #[test]
    fn single_lane_layered_transcript_matches_netlist() {
        let circuits = [
            bench_circuits::sum(32, 0xdead_beef, 0x600d_f00d),
            bench_circuits::compare(32, 77, 999),
            bench_circuits::hamming(32, &[0x9e37_79b9], &[0x7f4a_7c15]),
            bench_circuits::mult(32, 0xdead_beef, 0x1234_5678),
            bench_circuits::matrix_mult(3, &[3, 1, 4, 1, 5, 9, 2, 6, 5], &[2; 9]),
            bench_circuits::aes128(
                core::array::from_fn(|i| i as u8),
                core::array::from_fn(|i| 16 + i as u8),
            ),
        ];
        for bc in &circuits {
            let name = bc.circuit.name();
            for shards in [1, 2] {
                let (netlist, tx_netlist) = session(bc, shards, false);
                let (layered, tx_layered) = session(bc, shards, true);
                assert_eq!(netlist.outputs, layered.outputs, "{name}");
                assert_eq!(netlist.stats, layered.stats, "{name}: cost counters");
                assert_eq!(
                    tx_netlist, tx_layered,
                    "{name}: transcripts differ at {shards} shards"
                );
                assert_eq!(netlist.batching.levels, 0, "{name}: netlist has no levels");
                assert_eq!(netlist.batching.releveled_cycles, 0);
                assert!(layered.batching.levels > 0, "{name}: layered levels");
                assert_eq!(
                    layered.batching.batched_gates,
                    netlist.batching.batched_gates
                );
                if name == "aes_128" {
                    assert_eq!(
                        layered.batching.releveled_cycles, bc.cycles as u64,
                        "every aes cycle re-levels"
                    );
                }
            }
        }
    }
}
