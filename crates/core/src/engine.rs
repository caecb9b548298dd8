//! The session loop (Algorithms 1 and 2): one loop for every engine,
//! lane count and party.
//!
//! Each cycle is *planned* from public data only, so both parties hold
//! the same plan without exchanging a byte, and *executed* by a party
//! role: the garbler hashes and streams the tables, the evaluator pulls
//! and evaluates them. The plan has three parts:
//!
//! * the **input plan**: every label the garbler draws, in draw order,
//!   with the source of its bit (a constant, the public input, Alice or
//!   Bob). The garbler walks it to draw labels and split them into
//!   direct labels and OT pairs; the evaluator walks it to split what
//!   it receives;
//! * the **decision policy**: SkipGate runs the shared [`DecideContext`]
//!   pass each cycle, so public wires never get labels and a public
//!   halt stops both parties; the conventional-GC baseline
//!   ([`EngineKind::Baseline`]) labels every wire and garbles every
//!   nonlinear gate, with one decision vector for every cycle;
//! * the **per-lane state**: wire knowledge, output frames, halting and
//!   the flip-flop copy of states and labels.
//!
//! Every lane count and both parties run one walk: the netlist in
//! order, over only the gates that move a label this cycle. Each lane's
//! decision pass lists its moving gates; the walk takes the sorted union
//! of the live lanes' lists and visits every gate's live lanes in turn,
//! through one wavefront batcher over the struct-of-arrays label store.
//! Tables stream out as they are hashed, gate-major and lane-minor, so
//! the evaluator overlaps with the garbler and a one-lane session is the
//! plain netlist walk. Each cycle's table count comes from the shared
//! plan, so both parties know its partition over the [`ShardConfig`]
//! sub-channels without coordination.

use arm2gc_circuit::sim::PartyData;
use arm2gc_circuit::{Circuit, DffInit, Op, OutputMode, Role, WireId};
use arm2gc_comm::{duplex, Channel};
use arm2gc_crypto::Label;
use arm2gc_garble::{GarbledTable, WavefrontStats};
use arm2gc_proto::{ConfigError, ProtoError as ProtocolError, ShardConfig};

use crate::decide::{CycleDecisions, DecideContext, DecisionCounts, GateDecision};
use crate::options::{EngineKind, SessionOptions};
use crate::party::{Party, Pins};
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
    /// AES core (the session's wavefronts). Not a protocol cost —
    /// identical transcripts can batch differently.
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
    /// Session-wide batching occupancy. Every lane of a ready gate joins
    /// the same wavefront, so batch widths grow up to N× over a single
    /// run; `instances` is the lane count.
    pub batching: WavefrontStats,
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

/// Where the bit behind a drawn input label comes from: the same four
/// places a flip-flop's initial value does (a constant, or an index
/// into the public, Alice's or Bob's data). Bob's labels go through OT,
/// every other label directly.
type Source = DffInit;

/// One label draw of an [`InputPlan`].
#[derive(Clone, Copy, Debug)]
pub(crate) struct Draw {
    /// The lane the label belongs to.
    pub lane: usize,
    /// `None` for the lane's initial draws, else the cycle it feeds.
    cycle: Option<usize>,
    src: Source,
}

impl Draw {
    /// Whether the garbler sends this label directly (not by OT).
    pub fn direct(&self) -> bool {
        !matches!(self.src, Source::Bob(_))
    }

    /// The draw's bit, read by a party that knows it: from `own` for
    /// Alice's or Bob's bits, from `public` for public ones.
    pub fn bit(&self, own: &PartyData, public: &PartyData) -> bool {
        let pick = |data: &PartyData, i: u32| match self.cycle {
            None => data.init[i as usize],
            Some(c) => data.stream[c][i as usize],
        };
        match self.src {
            Source::Const(v) => v,
            Source::Public(i) => pick(public, i),
            Source::Alice(i) | Source::Bob(i) => pick(own, i),
        }
    }
}

/// Every input label a session draws, derived by both parties from the
/// circuit and the policy. Each lane draws `init` once, then `cycle`
/// once per cycle; lanes draw in order, so lane 0 draws exactly what a
/// single-lane session would.
pub(crate) struct InputPlan {
    init: Vec<(WireId, Source)>,
    cycle: Vec<(WireId, Source)>,
    cycles: usize,
}

impl InputPlan {
    /// SkipGate labels only secret wires: Alice's flip-flops, then
    /// Bob's, then each cycle's secret inputs. The baseline labels every
    /// wire it starts from: constants, every flip-flop in order, then
    /// every input of each cycle.
    fn new(circuit: &Circuit, cycles: usize, label_public: bool) -> Self {
        let mut init = Vec::new();
        let dffs = circuit.dffs().iter().map(|d| (d.q, d.init));
        if label_public {
            init.extend(circuit.consts().iter().map(|&(w, v)| (w, Source::Const(v))));
            init.extend(dffs);
        } else {
            init.extend(dffs.clone().filter(|(_, s)| matches!(s, Source::Alice(_))));
            init.extend(dffs.filter(|(_, s)| matches!(s, Source::Bob(_))));
        }
        let mut seen = [0u32; 3];
        let mut cycle = Vec::new();
        for input in circuit.inputs() {
            let (k, src): (usize, fn(u32) -> Source) = match input.role {
                Role::Public => (0, Source::Public),
                Role::Alice => (1, Source::Alice),
                Role::Bob => (2, Source::Bob),
            };
            if label_public || input.role != Role::Public {
                cycle.push((input.wire, src(seen[k])));
            }
            seen[k] += 1;
        }
        Self {
            init,
            cycle,
            cycles,
        }
    }

    /// Calls `f` with every draw for `lanes` lanes, in draw order.
    pub fn each(&self, lanes: usize, mut f: impl FnMut(Draw)) {
        for lane in 0..lanes {
            for &(_, src) in &self.init {
                let cycle = None;
                f(Draw { lane, cycle, src });
            }
            for c in 0..self.cycles {
                for &(_, src) in &self.cycle {
                    let cycle = Some(c);
                    f(Draw { lane, cycle, src });
                }
            }
        }
    }

    /// Labels one lane draws that the garbler sends directly (`direct`)
    /// or through OT (`!direct`).
    pub fn per_lane(&self, direct: bool) -> usize {
        let count = |draws: &[(WireId, Source)]| {
            let by_ot = |(_, s): &&(WireId, Source)| matches!(s, Source::Bob(_));
            draws.iter().filter(|d| by_ot(d) != direct).count()
        };
        count(&self.init) + self.cycles * count(&self.cycle)
    }

    /// Writes `lane`'s labels for `cycle` (`None`: its initial draws)
    /// from `drawn`, the party's labels in draw order.
    fn apply(&self, drawn: &[Label], labels: &mut [Label], lane: &Lane, cycle: Option<usize>) {
        let mut from = lane.index * (self.init.len() + self.cycles * self.cycle.len());
        let draws = match cycle {
            None => &self.init,
            Some(c) => {
                from += self.init.len() + c * self.cycle.len();
                &self.cycle
            }
        };
        for (&(w, _), &l) in draws.iter().zip(&drawn[from..]) {
            labels[lane.at(w)] = l;
        }
    }
}

/// What the parties know about one lane, and what it has cost.
struct Lane {
    /// Position in the session; the lane's labels sit at `w * lanes +
    /// index` in the struct-of-arrays store.
    index: usize,
    lanes: usize,
    states: Vec<WireVal>,
    alloc: TagAllocator,
    /// The current cycle's decisions, decided into the last cycle's
    /// buffers.
    dec: CycleDecisions,
    /// Still running (a lane stops at a public halt).
    live: bool,
    /// Tweak of the lane's next garbled gate. Lanes are disjoint by the
    /// lane tag in the high bits; lane 0 counts from zero, like a
    /// single-lane session.
    tweak: u64,
    /// Output frames: public bits known, secret ones `None` until the
    /// colour exchange.
    frames: Vec<Vec<Option<bool>>>,
    /// This party's colour bits of the secret outputs, in frame order.
    colours: Vec<bool>,
    /// Flip-flop `d` states and labels, kept across cycles.
    next: Vec<(WireVal, Label)>,
    stats: SkipGateStats,
}

impl Lane {
    fn at(&self, w: WireId) -> usize {
        w.index() * self.lanes + self.index
    }

    /// Folds the current cycle's decision counts into the stats.
    fn count(&mut self) {
        let (c, s) = (&self.dec.counts, &mut self.stats);
        s.public_gates += c.public_out;
        s.pass_gates += c.pass + c.aliased;
        s.free_xor += c.free_xor;
        s.garbled_tables += c.garbled;
        s.skipped_nonlinear += c.skipped_nonlinear;
    }

    /// Records the output frame, and this party's colour bit for each
    /// secret output.
    fn record(&mut self, circuit: &Circuit, labels: &[Label]) {
        let frame = circuit.outputs().iter().map(|&w| {
            let known = self.states[w.index()].as_public();
            if known.is_none() {
                self.colours.push(labels[self.at(w)].colour());
            }
            known
        });
        let frame = frame.collect();
        self.frames.push(frame);
    }

    fn halted(&self, circuit: &Circuit) -> bool {
        circuit
            .halt_wire()
            .is_some_and(|w| self.states[w.index()] == WireVal::Public(true))
    }

    /// Copies every flip-flop's `d` state and label to its `q`.
    fn clock(&mut self, circuit: &Circuit, labels: &mut [Label]) {
        let mut next = std::mem::take(&mut self.next);
        next.clear();
        let d = circuit.dffs().iter().map(|f| f.d);
        next.extend(d.map(|d| (self.states[d.index()], labels[self.at(d)])));
        for (dff, &(v, l)) in circuit.dffs().iter().zip(&next) {
            self.states[dff.q.index()] = v;
            labels[self.at(dff.q)] = l;
        }
        self.next = next;
    }

    /// The lane's outcome, taking its secret outputs' values from the
    /// front of the session's lane-major `values`.
    fn outcome(
        self,
        values: &mut impl Iterator<Item = bool>,
        ots: u64,
        batching: WavefrontStats,
    ) -> SkipGateOutcome {
        let outputs = self
            .frames
            .iter()
            .map(|frame| {
                let bits = frame.iter().map(|bit| bit.or_else(|| values.next()));
                bits.map(|bit| bit.expect("secret output slot")).collect()
            })
            .collect();
        let mut stats = self.stats;
        stats.table_bytes = stats.garbled_tables * GarbledTable::BYTES as u64;
        stats.ots = ots;
        SkipGateOutcome {
            outputs,
            stats,
            batching,
        }
    }
}

/// What a cycle garbles, decided from public data alone.
enum Policy<'c> {
    /// SkipGate: constants and public inputs are tracked in the clear,
    /// and the shared decision pass decides every cycle.
    SkipGate(DecideContext<'c>),
    /// The conventional-GC baseline: every wire is secret, so nothing
    /// halts and every output is revealed; one decision vector serves
    /// every cycle.
    Baseline(CycleDecisions),
}

impl<'c> Policy<'c> {
    fn new(circuit: &'c Circuit, opts: &SessionOptions) -> Self {
        match opts.engine {
            EngineKind::SkipGate => {
                let mut ctx = DecideContext::new(circuit);
                ctx.filter_dead = opts.skipgate.filter_dead_gates;
                Policy::SkipGate(ctx)
            }
            EngineKind::Baseline => Policy::Baseline(baseline_decisions(circuit)),
        }
    }

    /// Lane `index` of `lanes`, starting from `public`'s flip-flop
    /// initialisation.
    fn lane(&self, circuit: &Circuit, index: usize, lanes: usize, public: &PartyData) -> Lane {
        let mut alloc = TagAllocator::new();
        let mut states = vec![WireVal::Public(false); circuit.wire_count()];
        let dec = match self {
            Policy::SkipGate(_) => {
                for &(w, v) in circuit.consts() {
                    states[w.index()] = WireVal::Public(v);
                }
                for dff in circuit.dffs() {
                    states[dff.q.index()] = match dff.init {
                        DffInit::Const(v) => WireVal::Public(v),
                        DffInit::Public(i) => WireVal::Public(public.init[i as usize]),
                        DffInit::Alice(_) | DffInit::Bob(_) => WireVal::Secret(alloc.fresh()),
                    };
                }
                CycleDecisions::default()
            }
            Policy::Baseline(dec) => {
                states.fill(WireVal::Secret(alloc.fresh()));
                dec.clone()
            }
        };
        Lane {
            index,
            lanes,
            states,
            alloc,
            dec,
            live: true,
            tweak: (index as u64) << 48,
            frames: Vec::new(),
            colours: Vec::new(),
            next: Vec::new(),
            stats: SkipGateStats::default(),
        }
    }

    /// Decides `lane`'s `cycle` (the baseline's decisions never change)
    /// and folds its counts into the lane.
    fn decide(
        &self,
        circuit: &Circuit,
        lane: &mut Lane,
        cycle: usize,
        public: &PartyData,
        last: bool,
    ) {
        if let Policy::SkipGate(ctx) = self {
            let mut pidx = 0usize;
            for input in circuit.inputs() {
                lane.states[input.wire.index()] = match input.role {
                    Role::Public => {
                        let v = public.stream[cycle][pidx];
                        pidx += 1;
                        WireVal::Public(v)
                    }
                    Role::Alice | Role::Bob => WireVal::Secret(lane.alloc.fresh()),
                };
            }
            ctx.decide_into(&mut lane.states, &mut lane.alloc, last, &mut lane.dec);
        }
        lane.count();
    }
}

/// The baseline's decisions, the same every cycle: nonlinear gates
/// garble, XOR/XNOR are free, BUF/NOT copy a label. Only `garbled` is
/// counted, so the SkipGate-only counters stay zero.
fn baseline_decisions(circuit: &Circuit) -> CycleDecisions {
    let decisions: Vec<GateDecision> = circuit
        .gates()
        .iter()
        .map(|g| match g.op {
            Op::XOR | Op::XNOR => GateDecision::FreeXor {
                flip: g.op == Op::XNOR,
            },
            Op::BUF_A | Op::NOT_A | Op::BUF_B | Op::NOT_B => GateDecision::Pass {
                from_a: matches!(g.op, Op::BUF_A | Op::NOT_A),
                flip: matches!(g.op, Op::NOT_A | Op::NOT_B),
            },
            op if op.is_linear() => {
                panic!("constant-valued gate {op} must not appear in a netlist")
            }
            _ => GateDecision::Garble,
        })
        .collect();
    let counts = DecisionCounts {
        garbled: circuit.non_xor_count(),
        ..DecisionCounts::default()
    };
    let moving = (0..decisions.len() as u32).collect();
    CycleDecisions {
        decisions,
        moving,
        counts,
    }
}

/// Walks one cycle over `gates` in netlist order, visiting each gate's
/// live lanes in turn. A lane's garbled gates take consecutive tweaks.
fn walk<P: Party>(
    party: &mut P,
    circuit: &Circuit,
    gates: &[u32],
    lanes: &mut [Lane],
    labels: &mut [Label],
) -> Result<(), ProtocolError> {
    for &gi in gates {
        let gi = gi as usize;
        let gate = &circuit.gates()[gi];
        for lane in lanes.iter_mut().filter(|l| l.live) {
            let at = |w: WireId| lane.at(w);
            match lane.dec.decisions[gi] {
                GateDecision::PublicOut(_) | GateDecision::Skipped | GateDecision::SkippedFree => {}
                GateDecision::Pass { from_a, flip } => {
                    let src = if from_a { gate.a } else { gate.b };
                    party.copy(labels, at(src), at(gate.out), flip);
                }
                GateDecision::Alias { src, flip } => {
                    party.copy(labels, at(src), at(gate.out), flip);
                }
                GateDecision::FreeXor { flip } => party.xor(labels, Pins::of(gate, at), flip),
                GateDecision::Garble => {
                    party.garble(labels, Pins::of(gate, at), lane.tweak)?;
                    lane.tweak += 1;
                }
            }
        }
    }
    Ok(())
}

/// Fills `gates` with the gates any live lane moves a label through
/// this cycle, ascending: the first live lane's list, merged with every
/// live lane's list that differs from it. `scratch` holds the merge.
fn moving_union(lanes: &[Lane], gates: &mut Vec<u32>, scratch: &mut Vec<u32>) {
    let mut lists = lanes.iter().filter(|l| l.live).map(|l| &l.dec.moving);
    gates.clear();
    let Some(first) = lists.next() else {
        return;
    };
    gates.extend_from_slice(first);
    for list in lists.filter(|&list| list != first) {
        merge_sorted(gates, list, scratch);
        std::mem::swap(gates, scratch);
    }
}

/// Writes the union of two ascending lists into `out`, ascending.
fn merge_sorted(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    out.clear();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        out.push(x.min(y));
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

/// Runs one session of `own.len()` lanes as party `P`: `own` and
/// `publics` hold one [`PartyData`] per lane. `opts` and the lane counts
/// are validated first.
///
/// Wire format: the handshake announces the lane count when it is more
/// than one ([`arm2gc_proto::Message::Instances`], protocol v2); input
/// labels, OT pairs and output colour bits are concatenated lane-major;
/// each cycle's tables interleave gate-major/lane-minor. Lane 0 draws
/// exactly the labels and tweaks a single-lane session would.
pub(crate) fn run_session<P: Party>(
    ends: P::Ends,
    circuit: &Circuit,
    own: &[PartyData],
    publics: &[PartyData],
    cycles: usize,
    opts: &SessionOptions,
) -> Result<InstancedOutcome, ProtocolError> {
    opts.validate()?;
    let shards = opts.shard_config()?;
    for got in [own.len(), publics.len()] {
        if got != opts.instances {
            let expected = opts.instances;
            return Err(ConfigError::LaneCount { expected, got }.into());
        }
    }
    let n = own.len();
    let policy = Policy::new(circuit, opts);
    let plan = InputPlan::new(circuit, cycles, matches!(policy, Policy::Baseline(_)));
    let mut party = P::establish(ends, opts.stream, shards, n, circuit.wire_count())?;
    let drawn = party.deliver(&plan, own, publics)?;

    let mut labels = vec![Label::ZERO; circuit.wire_count() * n];
    let mut lanes: Vec<Lane> = publics
        .iter()
        .enumerate()
        .map(|(li, public)| policy.lane(circuit, li, n, public))
        .collect();
    for lane in &lanes {
        plan.apply(&drawn, &mut labels, lane, None);
    }
    let (mut gates, mut scratch) = (Vec::new(), Vec::new());
    let per_cycle = matches!(circuit.output_mode(), OutputMode::PerCycle);
    for cycle in 0..cycles {
        if !lanes.iter().any(|l| l.live) {
            break;
        }
        let (mut tables, mut live) = (0, 0);
        for lane in lanes.iter_mut().filter(|l| l.live) {
            plan.apply(&drawn, &mut labels, lane, Some(cycle));
            let public = &publics[lane.index];
            policy.decide(circuit, lane, cycle, public, cycle + 1 == cycles);
            tables += lane.dec.counts.garbled as usize;
            live += 1;
        }
        party.begin_cycle(tables);
        moving_union(&lanes, &mut gates, &mut scratch);
        walk(&mut party, circuit, &gates, &mut lanes, &mut labels)?;
        party.end_cycle(&mut labels, (circuit.gates().len() * live) as u64)?;

        for lane in lanes.iter_mut().filter(|l| l.live) {
            if per_cycle {
                lane.record(circuit, &labels);
            }
            // Flip-flops copy on the halt cycle too.
            lane.live = !lane.halted(circuit);
            lane.clock(circuit, &mut labels);
            lane.stats.cycles_run = cycle + 1;
        }
    }
    if !per_cycle {
        for lane in &mut lanes {
            lane.record(circuit, &labels);
        }
    }

    // One lane-major colour exchange.
    let colours: Vec<bool> = lanes.iter().flat_map(|l| &l.colours).copied().collect();
    let (values, mut batching) = party.finish(&colours)?;
    batching.instances = n as u64;
    let ots = plan.per_lane(false) as u64;
    let mut values = values.into_iter();
    let lanes = lanes
        .into_iter()
        .map(|lane| lane.outcome(&mut values, ots, batching))
        .collect();
    Ok(InstancedOutcome { lanes, batching })
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

#[cfg(test)]
mod tests {
    use std::sync::{Arc, Mutex};

    use arm2gc_circuit::bench_circuits::{self, BenchCircuit};
    use arm2gc_comm::ChannelError;
    use arm2gc_crypto::Prg;
    use arm2gc_ot::InsecureOt;

    use super::*;
    use crate::party::{Evaluator, Garbler};

    fn first_lane(o: InstancedOutcome) -> SkipGateOutcome {
        o.lanes.into_iter().next().expect("one lane")
    }

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

    /// Runs one single-lane session with fixed PRG seeds, checks both
    /// parties agree, and returns the garbler's outcome plus its frames
    /// on the main channel and every shard sub-channel.
    fn session(bc: &BenchCircuit, shards: usize) -> (SkipGateOutcome, Vec<Vec<Vec<u8>>>) {
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
                let ends = (
                    &mut ca as &mut dyn Channel,
                    g_shards,
                    &mut InsecureOt as _,
                    &mut prg,
                );
                run_session::<Garbler>(ends, &bc.circuit, alice, public, bc.cycles, &opts)
                    .expect("garbler")
            });
            let ends = (&mut cb as &mut dyn Channel, e_shards, &mut InsecureOt as _);
            let b = run_session::<Evaluator>(ends, &bc.circuit, bob, public, bc.cycles, &opts)
                .expect("evaluator");
            (garbler.join().expect("garbler thread"), b)
        });
        let (a, b) = (first_lane(a), first_lane(b));
        assert_eq!(a.outputs, b.outputs, "{}: party outputs", bc.circuit.name());
        assert_eq!(a.outputs.concat(), bc.expected, "{}", bc.circuit.name());
        assert_eq!(a.batching, b.batching, "parties agree on batching");
        let frames = logs
            .iter()
            .map(|l| l.lock().expect("lock").clone())
            .collect();
        (a, frames)
    }

    /// Table frame boundaries depend on public counts only, and
    /// `compare_16384` (7 gates a cycle, 16,384 cycles) stays far below
    /// the work-based cycle flush threshold, so its garbler sends exactly
    /// the size-chunked `Tables` frames it always has.
    #[test]
    fn compare_16384_table_frame_count_is_pinned() {
        let bc = bench_circuits::compare(16384, u64::MAX, 3);
        let (_, frames) = session(&bc, 1);
        let tables = frames[0]
            .iter()
            .filter(|f| {
                matches!(
                    arm2gc_proto::Message::decode(f),
                    Ok(arm2gc_proto::Message::Tables(_))
                )
            })
            .count();
        assert_eq!(tables, 8, "garbler Tables frames");
    }
}
