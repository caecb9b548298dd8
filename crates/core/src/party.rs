//! The two roles of a session: the garbler (Alice) and the evaluator
//! (Bob).
//!
//! [`crate::engine`] plans every cycle from public data only, so both
//! parties hold the same plan; a [`Party`] executes that plan on its own
//! side of the wire. The garbler draws zero-labels, hashes tables and
//! streams them; the evaluator receives active labels and evaluates the
//! tables it pulls. Each role owns its session and the batch driver of
//! the walk the lane count selected: a wavefront batcher for the
//! netlist walk, a layered driver for the level-by-level walk.

use arm2gc_circuit::sim::PartyData;
use arm2gc_circuit::{Gate, Op, WireId};
use arm2gc_comm::Channel;
use arm2gc_crypto::{Label, Prg};
use arm2gc_garble::{
    EvalLayered, EvalWavefront, GarbleLayered, GarbleWavefront, GarbledTable, HalfGateEvaluator,
    HalfGateGarbler, WavefrontStats,
};
use arm2gc_ot::{OtReceiver, OtSender};
use arm2gc_proto::{EvaluatorSession, GarblerSession, ProtoError, ShardConfig, StreamConfig};

use crate::engine::InputPlan;

/// The walk a session runs: its size (wires or levels) when the engine
/// picks it, a party's batch driver once established.
pub(crate) enum Walk<N, L> {
    /// One lane, gates in netlist order (a wavefront batcher).
    Netlist(N),
    /// Any lane count, gates level by level (a layered driver).
    Layered(L),
}

impl<N, L> Walk<N, L> {
    fn netlist(&mut self) -> &mut N {
        match self {
            Walk::Netlist(n) => n,
            Walk::Layered(_) => unreachable!("netlist gate in a layered walk"),
        }
    }

    fn layered(&mut self) -> &mut L {
        match self {
            Walk::Layered(l) => l,
            Walk::Netlist(_) => unreachable!("layered gate in a netlist walk"),
        }
    }
}

/// A gate's operation and the positions of its labels.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Pins {
    pub op: Op,
    pub a: usize,
    pub b: usize,
    pub out: usize,
}

impl Pins {
    /// `gate` with its wires placed in the label store by `at`.
    pub fn of(gate: &Gate, at: impl Fn(WireId) -> usize) -> Self {
        Self {
            op: gate.op,
            a: at(gate.a),
            b: at(gate.b),
            out: at(gate.out),
        }
    }
}

/// One party's execution of the shared cycle plan.
///
/// Label positions are flat indices into the session's struct-of-arrays
/// store (wire `w`, lane `l` at `w * lanes + l`); the netlist walk runs
/// one lane, so there they are plain wire indices.
pub(crate) trait Party: Sized {
    /// The endpoints a session is established over.
    type Ends;

    /// Opens a session of `lanes` lanes (handshake, lane announcement)
    /// and builds the driver of `walk`: a netlist walk over that many
    /// wires, or a layered walk over that many levels.
    fn establish(
        ends: Self::Ends,
        stream: StreamConfig,
        shards: ShardConfig,
        lanes: usize,
        walk: Walk<usize, usize>,
    ) -> Result<Self, ProtoError>;

    /// Delivers every label `plan` draws for `own.len()` lanes and
    /// returns this party's label per draw, in draw order.
    fn deliver(
        &mut self,
        plan: &InputPlan,
        own: &[PartyData],
        publics: &[PartyData],
    ) -> Result<Vec<Label>, ProtoError>;

    /// Starts a cycle garbling `tables` gates over every live lane.
    fn begin_cycle(&mut self, tables: usize) -> Result<(), ProtoError>;

    /// Finishes a cycle that visited `visits` gates: flushes the
    /// netlist walk's last wavefront or emits the layered walk's tables.
    fn end_cycle(&mut self, labels: &mut [Label], visits: u64) -> Result<(), ProtoError>;

    /// Netlist walk: `out = src` (a Pass or Alias), inverted if `flip`.
    fn copy(&mut self, labels: &mut [Label], src: usize, out: usize, flip: bool);

    /// Netlist walk: free XOR `out = a ⊕ b`, inverted if `flip`.
    fn xor(&mut self, labels: &mut [Label], g: Pins, flip: bool);

    /// Netlist walk: a gate that garbles, with its running `tweak`.
    fn garble(&mut self, labels: &mut [Label], g: Pins, tweak: u64) -> Result<(), ProtoError>;

    /// Layered walk: the label offset that inverts a wire's value (Δ
    /// for the garbler's zero-labels, nothing for active labels).
    fn mask(&self, flip: bool) -> Label;

    /// Layered walk: queues one lane of a gate that garbles into the
    /// current level; `slot` is its table's position in the cycle's
    /// merged table stream.
    fn enqueue(&mut self, labels: &[Label], g: Pins, tweak: u64, slot: usize);

    /// Layered walk: hashes the level's queued gates in one batch.
    fn end_level(&mut self, labels: &mut [Label]);

    /// Ends the session: exchanges this party's colour bits of the
    /// secret outputs for their values, and reports how its gates
    /// batched.
    fn finish(&mut self, colours: &[bool]) -> Result<(Vec<bool>, WavefrontStats), ProtoError>;
}

/// Alice: draws the zero-labels, garbles and streams the tables.
pub(crate) struct Garbler<'a> {
    session: GarblerSession<'a>,
    hg: HalfGateGarbler,
    walk: Walk<GarbleWavefront, GarbleLayered>,
}

impl<'a> Party for Garbler<'a> {
    type Ends = (
        &'a mut dyn Channel,
        Vec<Box<dyn Channel>>,
        &'a mut dyn OtSender,
        &'a mut Prg,
    );

    fn establish(
        (ch, shard_chs, ot, prg): Self::Ends,
        stream: StreamConfig,
        shards: ShardConfig,
        lanes: usize,
        walk: Walk<usize, usize>,
    ) -> Result<Self, ProtoError> {
        let n = lanes as u16;
        let session =
            GarblerSession::establish_instanced(ch, shard_chs, ot, prg, stream, shards, n)?;
        let hg = HalfGateGarbler::new(session.delta());
        let walk = match walk {
            Walk::Netlist(wires) => Walk::Netlist(GarbleWavefront::new(wires)),
            Walk::Layered(levels) => Walk::Layered(GarbleLayered::new(levels, lanes)),
        };
        Ok(Self { session, hg, walk })
    }

    fn deliver(
        &mut self,
        plan: &InputPlan,
        own: &[PartyData],
        publics: &[PartyData],
    ) -> Result<Vec<Label>, ProtoError> {
        let d = self.session.delta().as_label();
        let session = &mut self.session;
        let mut zeros =
            Vec::with_capacity(own.len() * (plan.per_lane(true) + plan.per_lane(false)));
        let (mut direct, mut ot_pairs) = (Vec::new(), Vec::new());
        plan.each(own.len(), |draw| {
            let x0 = session.fresh_label();
            zeros.push(x0);
            if draw.direct() {
                let bit = draw.bit(&own[draw.lane], &publics[draw.lane]);
                direct.push(if bit { x0 ^ d } else { x0 });
            } else {
                ot_pairs.push((x0, x0 ^ d));
            }
        });
        self.session.send_direct_labels(&direct)?;
        self.session.ot_send(&ot_pairs)?;
        Ok(zeros)
    }

    fn begin_cycle(&mut self, tables: usize) -> Result<(), ProtoError> {
        self.session.begin_cycle(tables);
        if let Walk::Layered(drv) = &mut self.walk {
            drv.begin_cycle(tables);
        }
        Ok(())
    }

    fn end_cycle(&mut self, labels: &mut [Label], visits: u64) -> Result<(), ProtoError> {
        let session = &mut self.session;
        let mut emit = |t: &GarbledTable| session.push_table(&t.to_bytes());
        match &mut self.walk {
            Walk::Netlist(wf) => wf.flush(&self.hg, labels, &mut emit)?,
            Walk::Layered(drv) => drv.end_cycle(&mut emit)?,
        }
        session.end_cycle(visits)
    }

    fn copy(&mut self, labels: &mut [Label], src: usize, out: usize, flip: bool) {
        self.walk.netlist().copy(&self.hg, labels, src, out, flip);
    }

    fn xor(&mut self, labels: &mut [Label], g: Pins, flip: bool) {
        self.walk
            .netlist()
            .xor(&self.hg, labels, g.a, g.b, g.out, flip);
    }

    fn garble(&mut self, labels: &mut [Label], g: Pins, tweak: u64) -> Result<(), ProtoError> {
        let session = &mut self.session;
        let mut emit = |t: &GarbledTable| session.push_table(&t.to_bytes());
        let wf = self.walk.netlist();
        wf.garble(&self.hg, labels, g.op, g.a, g.b, g.out, tweak, &mut emit)
    }

    fn mask(&self, flip: bool) -> Label {
        if flip {
            self.hg.delta().as_label()
        } else {
            Label::ZERO
        }
    }

    fn enqueue(&mut self, labels: &[Label], g: Pins, tweak: u64, slot: usize) {
        let drv = self.walk.layered();
        drv.garble(labels, g.op, g.a, g.b, g.out, tweak, slot);
    }

    fn end_level(&mut self, labels: &mut [Label]) {
        self.walk.layered().end_level(&self.hg, labels);
    }

    fn finish(&mut self, colours: &[bool]) -> Result<(Vec<bool>, WavefrontStats), ProtoError> {
        let batching = match &self.walk {
            Walk::Netlist(wf) => wf.stats(),
            Walk::Layered(drv) => drv.stats(),
        };
        Ok((self.session.reveal_outputs(colours)?, batching))
    }
}

/// Bob: receives the active labels and evaluates the tables he pulls.
pub(crate) struct Evaluator<'a> {
    session: EvaluatorSession<'a>,
    he: HalfGateEvaluator,
    walk: Walk<EvalWavefront, EvalLayered>,
    /// The layered walk's tables of the current cycle, in slot order.
    tables: Vec<GarbledTable>,
}

impl<'a> Party for Evaluator<'a> {
    type Ends = (
        &'a mut dyn Channel,
        Vec<Box<dyn Channel>>,
        &'a mut dyn OtReceiver,
    );

    fn establish(
        (ch, shard_chs, ot): Self::Ends,
        _stream: StreamConfig,
        shards: ShardConfig,
        lanes: usize,
        walk: Walk<usize, usize>,
    ) -> Result<Self, ProtoError> {
        let (align, n) = (GarbledTable::BYTES, lanes as u16);
        let session = EvaluatorSession::establish_instanced(ch, shard_chs, ot, align, shards, n)?;
        let walk = match walk {
            Walk::Netlist(wires) => Walk::Netlist(EvalWavefront::new(wires)),
            Walk::Layered(levels) => Walk::Layered(EvalLayered::new(levels, lanes)),
        };
        let (he, tables) = (HalfGateEvaluator::new(), Vec::new());
        Ok(Self {
            session,
            he,
            walk,
            tables,
        })
    }

    /// Checks the direct labels against the plan's exact count before
    /// any is used: a short or a surplus frame is malformed.
    fn deliver(
        &mut self,
        plan: &InputPlan,
        own: &[PartyData],
        publics: &[PartyData],
    ) -> Result<Vec<Label>, ProtoError> {
        let lanes = own.len();
        let direct = self.session.recv_direct_labels()?;
        if direct.len() != lanes * plan.per_lane(true) {
            return Err(ProtoError::Malformed("direct label count"));
        }
        let mut choices = Vec::new();
        plan.each(lanes, |draw| {
            if !draw.direct() {
                choices.push(draw.bit(&own[draw.lane], &publics[draw.lane]));
            }
        });
        let chosen = self.session.ot_receive(&choices)?;
        if chosen.len() != choices.len() {
            return Err(ProtoError::Malformed("ot label count"));
        }
        let mut labels = Vec::with_capacity(direct.len() + chosen.len());
        let (mut direct, mut chosen) = (direct.into_iter(), chosen.into_iter());
        plan.each(lanes, |draw| {
            let next = if draw.direct() {
                direct.next()
            } else {
                chosen.next()
            };
            labels.push(next.expect("label counts checked"));
        });
        Ok(labels)
    }

    fn begin_cycle(&mut self, tables: usize) -> Result<(), ProtoError> {
        self.session.begin_cycle(tables);
        if let Walk::Layered(_) = self.walk {
            self.tables.clear();
            for _ in 0..tables {
                let t = self.session.next_table(GarbledTable::BYTES)?;
                self.tables.push(GarbledTable::from_bytes(t));
            }
        }
        Ok(())
    }

    fn end_cycle(&mut self, labels: &mut [Label], _visits: u64) -> Result<(), ProtoError> {
        if let Walk::Netlist(wf) = &mut self.walk {
            wf.flush(&self.he, labels);
        }
        Ok(())
    }

    fn copy(&mut self, labels: &mut [Label], src: usize, out: usize, _flip: bool) {
        self.walk.netlist().copy(labels, src, out);
    }

    fn xor(&mut self, labels: &mut [Label], g: Pins, _flip: bool) {
        self.walk.netlist().xor(labels, g.a, g.b, g.out);
    }

    fn garble(&mut self, labels: &mut [Label], g: Pins, tweak: u64) -> Result<(), ProtoError> {
        let t = GarbledTable::from_bytes(self.session.next_table(GarbledTable::BYTES)?);
        let wf = self.walk.netlist();
        wf.eval(&self.he, labels, g.a, g.b, g.out, t, tweak);
        Ok(())
    }

    fn mask(&self, _flip: bool) -> Label {
        Label::ZERO
    }

    fn enqueue(&mut self, labels: &[Label], g: Pins, tweak: u64, slot: usize) {
        let table = self.tables[slot];
        self.walk
            .layered()
            .eval(labels, g.a, g.b, g.out, table, tweak);
    }

    fn end_level(&mut self, labels: &mut [Label]) {
        self.walk.layered().end_level(&self.he, labels);
    }

    fn finish(&mut self, colours: &[bool]) -> Result<(Vec<bool>, WavefrontStats), ProtoError> {
        let batching = match &self.walk {
            Walk::Netlist(wf) => wf.stats(),
            Walk::Layered(drv) => drv.stats(),
        };
        Ok((self.session.reveal_outputs(colours)?, batching))
    }
}
