//! The two roles of a session: the garbler (Alice) and the evaluator
//! (Bob).
//!
//! [`crate::engine`] plans every cycle from public data only, so both
//! parties hold the same plan; a [`Party`] executes that plan on its own
//! side of the wire. The garbler draws zero-labels, hashes tables and
//! streams them; the evaluator receives active labels and evaluates the
//! tables it pulls. Each role owns its session and one wavefront batcher
//! over every lane's labels, so the engine feeds it one gate and lane at
//! a time and tables stream as they are hashed.

use arm2gc_circuit::sim::PartyData;
use arm2gc_circuit::{Gate, Op, WireId};
use arm2gc_comm::Channel;
use arm2gc_crypto::{Label, Prg};
use arm2gc_garble::{
    EvalWavefront, GarbleWavefront, GarbledTable, HalfGateEvaluator, HalfGateGarbler,
    WavefrontStats,
};
use arm2gc_ot::{OtReceiver, OtSender};
use arm2gc_proto::{EvaluatorSession, GarblerSession, ProtoError};

use crate::engine::InputPlan;

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
/// store: wire `w`, lane `l` at `w * lanes + l`.
pub(crate) trait Party: Sized {
    /// The endpoints a session is established over.
    type Ends;

    /// Opens a session of `lanes` lanes (handshake, lane announcement)
    /// over `shards` table stripes and sizes its batcher for `wires`
    /// wires in every lane.
    fn establish(
        ends: Self::Ends,
        shards: usize,
        lanes: usize,
        wires: usize,
    ) -> Result<Self, ProtoError>;

    /// Delivers every label `plan` draws for `own.len()` lanes and
    /// returns this party's label per draw, in draw order.
    fn deliver(
        &mut self,
        plan: &InputPlan,
        own: &[PartyData],
        publics: &[PartyData],
    ) -> Result<Vec<Label>, ProtoError>;

    /// Finishes a cycle that visited `visits` gates: flushes the last
    /// wavefront.
    fn end_cycle(&mut self, labels: &mut [Label], visits: u64) -> Result<(), ProtoError>;

    /// `out = src` (a Pass or Alias), inverted if `flip`.
    fn copy(&mut self, labels: &mut [Label], src: usize, out: usize, flip: bool);

    /// Free XOR `out = a ⊕ b`, inverted if `flip`.
    fn xor(&mut self, labels: &mut [Label], g: Pins, flip: bool);

    /// A gate that garbles, with its lane's running `tweak`.
    fn garble(&mut self, labels: &mut [Label], g: Pins, tweak: u64) -> Result<(), ProtoError>;

    /// Ends the session: exchanges this party's colour bits of the
    /// secret outputs for their values, and reports how its gates
    /// batched.
    fn finish(&mut self, colours: &[bool]) -> Result<(Vec<bool>, WavefrontStats), ProtoError>;
}

/// A session of `shards` stripes needs one channel per shard, or none
/// when `shards` is 1 (its tables ride the main channel).
fn check_shard_channels(shards: usize, chs: &[Box<dyn Channel>]) -> Result<(), ProtoError> {
    if chs.len() != if shards > 1 { shards } else { 0 } {
        return Err(ProtoError::Malformed("shard channel count mismatch"));
    }
    Ok(())
}

/// Alice: draws the zero-labels, garbles and streams the tables.
pub(crate) struct Garbler<'a> {
    session: GarblerSession<'a>,
    hg: HalfGateGarbler,
    wf: GarbleWavefront,
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
        shards: usize,
        lanes: usize,
        wires: usize,
    ) -> Result<Self, ProtoError> {
        check_shard_channels(shards, &shard_chs)?;
        let session = GarblerSession::establish_instanced(ch, shard_chs, ot, prg, lanes as u16)?;
        let hg = HalfGateGarbler::new(session.delta());
        let wf = GarbleWavefront::new(wires * lanes);
        Ok(Self { session, hg, wf })
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

    fn end_cycle(&mut self, labels: &mut [Label], visits: u64) -> Result<(), ProtoError> {
        let session = &mut self.session;
        let mut emit = |t: &GarbledTable| session.push_table(&t.to_bytes());
        self.wf.flush(&self.hg, labels, &mut emit)?;
        session.end_cycle(visits)
    }

    fn copy(&mut self, labels: &mut [Label], src: usize, out: usize, flip: bool) {
        self.wf.copy(&self.hg, labels, src, out, flip);
    }

    fn xor(&mut self, labels: &mut [Label], g: Pins, flip: bool) {
        self.wf.xor(&self.hg, labels, g.a, g.b, g.out, flip);
    }

    fn garble(&mut self, labels: &mut [Label], g: Pins, tweak: u64) -> Result<(), ProtoError> {
        let session = &mut self.session;
        let mut emit = |t: &GarbledTable| session.push_table(&t.to_bytes());
        let (hg, wf) = (&self.hg, &mut self.wf);
        wf.garble(hg, labels, g.op, g.a, g.b, g.out, tweak, &mut emit)
    }

    fn finish(&mut self, colours: &[bool]) -> Result<(Vec<bool>, WavefrontStats), ProtoError> {
        Ok((self.session.reveal_outputs(colours)?, self.wf.stats()))
    }
}

/// Bob: receives the active labels and evaluates the tables he pulls.
pub(crate) struct Evaluator<'a> {
    session: EvaluatorSession<'a>,
    he: HalfGateEvaluator,
    wf: EvalWavefront,
}

impl<'a> Party for Evaluator<'a> {
    type Ends = (
        &'a mut dyn Channel,
        Vec<Box<dyn Channel>>,
        &'a mut dyn OtReceiver,
    );

    fn establish(
        (ch, shard_chs, ot): Self::Ends,
        shards: usize,
        lanes: usize,
        wires: usize,
    ) -> Result<Self, ProtoError> {
        check_shard_channels(shards, &shard_chs)?;
        let (align, n) = (GarbledTable::BYTES, lanes as u16);
        let session = EvaluatorSession::establish_instanced(ch, shard_chs, ot, align, n)?;
        let he = HalfGateEvaluator::new();
        let wf = EvalWavefront::new(wires * lanes);
        Ok(Self { session, he, wf })
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

    fn end_cycle(&mut self, labels: &mut [Label], _visits: u64) -> Result<(), ProtoError> {
        self.wf.flush(&self.he, labels);
        Ok(())
    }

    fn copy(&mut self, labels: &mut [Label], src: usize, out: usize, _flip: bool) {
        self.wf.copy(labels, src, out);
    }

    fn xor(&mut self, labels: &mut [Label], g: Pins, _flip: bool) {
        self.wf.xor(labels, g.a, g.b, g.out);
    }

    fn garble(&mut self, labels: &mut [Label], g: Pins, tweak: u64) -> Result<(), ProtoError> {
        let t = GarbledTable::from_bytes(self.session.next_table(GarbledTable::BYTES)?);
        self.wf.eval(&self.he, labels, g.a, g.b, g.out, t, tweak);
        Ok(())
    }

    fn finish(&mut self, colours: &[bool]) -> Result<(Vec<bool>, WavefrontStats), ProtoError> {
        Ok((self.session.reveal_outputs(colours)?, self.wf.stats()))
    }
}
