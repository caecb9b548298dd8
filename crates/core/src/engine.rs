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
//! The lane count picks the walk. One lane walks each cycle in netlist
//! order and batches wavefronts on the fly: tables stream out as they
//! are hashed, so the evaluator overlaps with the garbler. Several
//! lanes execute a [`LayerSchedule`]: each level hashes every lane's
//! surviving gates in one batch, and a cycle whose alias edges cross
//! static levels is re-leveled ([`LayerSchedule::relevel_cycle`]). Both
//! walks emit tables in netlist order, so the transcript never depends
//! on the walk. Each cycle's table count comes from the shared plan, so
//! both parties know its partition over the [`ShardConfig`] sub-channels
//! without coordination.

use arm2gc_circuit::sim::PartyData;
use arm2gc_circuit::{
    Circuit, CycleDep, CyclePatch, DffInit, LayerSchedule, Op, OutputMode, Role, WireId,
};
use arm2gc_comm::{duplex, Channel};
use arm2gc_crypto::Label;
use arm2gc_garble::{GarbledTable, WavefrontStats};
use arm2gc_proto::{ConfigError, ProtoError as ProtocolError, ShardConfig};

use crate::decide::{CycleDecisions, DecideContext, DecisionCounts, GateDecision};
use crate::options::{EngineKind, SessionOptions};
use crate::party::{Party, Pins, Walk};
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
    /// The current cycle's decisions.
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
            // Free the last cycle's decisions before the pass allocates
            // this cycle's, so the two are never alive together.
            drop(std::mem::take(&mut lane.dec));
            lane.dec = ctx.decide_cycle(&mut lane.states, &mut lane.alloc, last);
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
    CycleDecisions { decisions, counts }
}

/// One lane's layering of one cycle. Lanes diverge only through their
/// public inputs, so decision vectors usually agree; when a lane's
/// vector equals the cycle's first planned lane's, `reuse` names that
/// lane and the level walk borrows its plan instead.
#[derive(Default)]
struct LanePlan {
    /// Each gate's netlist ordinal among the lane's garbled gates
    /// (`u32::MAX` for the rest): its tweak offset.
    ordinals: Vec<u32>,
    patch: CyclePatch,
    releveled: bool,
    reuse: Option<usize>,
}

impl LanePlan {
    /// Fills `ordinals` and prepares `patch` for `decisions`. The
    /// decision pass may alias a gate's output to *any* earlier-netlist
    /// wire — including one produced at a deeper topological level —
    /// and for such a cycle the static levels are re-leveled
    /// incrementally: only the aliased gate and its transitively-late
    /// dependents move to deeper levels
    /// ([`LayerSchedule::relevel_cycle`]). Both parties run identical
    /// decisions, so they compute the identical patch without
    /// coordination, and emission slots stay netlist ordinals.
    fn layer(&mut self, sched: &LayerSchedule, circuit: &Circuit, decisions: &[GateDecision]) {
        self.ordinals.clear();
        self.ordinals.resize(decisions.len(), u32::MAX);
        let mut next = 0u32;
        let mut safe = true;
        for (gi, d) in decisions.iter().enumerate() {
            match *d {
                GateDecision::Garble => {
                    self.ordinals[gi] = next;
                    next += 1;
                }
                GateDecision::Alias { src, .. } => {
                    safe &= sched.copy_is_level_safe(gi, src.index());
                }
                _ => {}
            }
        }
        if safe {
            self.patch.clear();
            self.releveled = false;
            return;
        }
        let dep = |gi: usize| match decisions[gi] {
            GateDecision::PublicOut(_) | GateDecision::Skipped | GateDecision::SkippedFree => {
                CycleDep::Absent
            }
            GateDecision::Pass { from_a, .. } => {
                let g = &circuit.gates()[gi];
                CycleDep::Copy(if from_a { g.a } else { g.b }.index() as u32)
            }
            GateDecision::Alias { src, .. } => CycleDep::Copy(src.index() as u32),
            GateDecision::FreeXor { .. } | GateDecision::Garble => CycleDep::Inputs,
        };
        self.releveled = sched.relevel_cycle(circuit, dep, &mut self.patch);
    }
}

/// The layered walk's cycle planner and executor, built only when the
/// session runs it.
struct Layering {
    sched: LayerSchedule,
    plans: Vec<LanePlan>,
    /// Levels to walk this cycle, re-leveled patches included.
    levels: usize,
    /// Each (gate, lane)'s slot in the cycle's table stream:
    /// gate-major, lane-minor over the live lanes, which reduces to
    /// plain netlist ordinals at one lane.
    merged: Vec<u32>,
    releveled_cycles: u64,
    patched_gates: u64,
}

impl Layering {
    fn new(circuit: &Circuit, lanes: usize) -> Self {
        Self {
            sched: LayerSchedule::of(circuit),
            plans: (0..lanes).map(|_| LanePlan::default()).collect(),
            levels: 0,
            merged: Vec::new(),
            releveled_cycles: 0,
            patched_gates: 0,
        }
    }

    fn plan_of(&self, lane: usize) -> &LanePlan {
        &self.plans[self.plans[lane].reuse.unwrap_or(lane)]
    }

    /// Plans the live lanes' cycle: per-lane layering (reusing the
    /// first lane's when decisions agree), the level count and the
    /// merged emission slots.
    fn plan(&mut self, circuit: &Circuit, lanes: &[Lane]) {
        let mut first: Option<usize> = None;
        self.levels = self.sched.levels();
        for lane in lanes.iter().filter(|l| l.live) {
            let dec = &lane.dec.decisions;
            let reuse = first.filter(|&f| lanes[f].dec.decisions == *dec);
            let plan = &mut self.plans[lane.index];
            plan.reuse = reuse;
            if reuse.is_none() {
                plan.layer(&self.sched, circuit, dec);
                first.get_or_insert(lane.index);
            }
            let plan = &self.plans[reuse.unwrap_or(lane.index)];
            if plan.releveled {
                self.releveled_cycles += 1;
                self.patched_gates += plan.patch.moved_gates();
            }
            self.levels = self.levels.max(plan.patch.levels());
        }
        let n = lanes.len();
        self.merged.clear();
        self.merged.resize(circuit.gates().len() * n, u32::MAX);
        let mut slot = 0u32;
        for gi in 0..circuit.gates().len() {
            for lane in lanes.iter().filter(|l| l.live) {
                if lane.dec.decisions[gi] == GateDecision::Garble {
                    self.merged[gi * n + lane.index] = slot;
                    slot += 1;
                }
            }
        }
    }

    /// Walks the planned cycle level by level over every live lane.
    fn walk<P: Party>(
        &self,
        party: &mut P,
        circuit: &Circuit,
        lanes: &[Lane],
        labels: &mut [Label],
    ) {
        for level in 0..self.levels {
            for lane in lanes.iter().filter(|l| l.live) {
                let plan = self.plan_of(lane.index);
                let fixed: &[u32] = if level < self.sched.levels() {
                    self.sched.level_gates(level)
                } else {
                    &[]
                };
                let unmoved = fixed
                    .iter()
                    .filter(|&&gi| !plan.patch.is_moved(gi as usize));
                for &gi in unmoved.chain(plan.patch.moved_at(level)) {
                    let gi = gi as usize;
                    let gate = &circuit.gates()[gi];
                    let at = |w: WireId| lane.at(w);
                    match lane.dec.decisions[gi] {
                        GateDecision::PublicOut(_)
                        | GateDecision::Skipped
                        | GateDecision::SkippedFree => {}
                        GateDecision::Pass { from_a, flip } => {
                            let src = if from_a { gate.a } else { gate.b };
                            labels[at(gate.out)] = labels[at(src)] ^ party.mask(flip);
                        }
                        GateDecision::Alias { src, flip } => {
                            labels[at(gate.out)] = labels[at(src)] ^ party.mask(flip);
                        }
                        GateDecision::FreeXor { flip } => {
                            let (a, b) = (labels[at(gate.a)], labels[at(gate.b)]);
                            labels[at(gate.out)] = a ^ b ^ party.mask(flip);
                        }
                        GateDecision::Garble => {
                            let tweak = lane.tweak + u64::from(plan.ordinals[gi]);
                            let slot = self.merged[gi * lanes.len() + lane.index];
                            party.enqueue(labels, Pins::of(gate, at), tweak, slot as usize);
                        }
                    }
                }
            }
            party.end_level(labels);
        }
    }
}

/// Walks one lane's cycle in netlist order, garbled gates taking
/// consecutive tweaks from the lane's.
fn netlist_walk<P: Party>(
    party: &mut P,
    circuit: &Circuit,
    lane: &Lane,
    labels: &mut [Label],
) -> Result<(), ProtocolError> {
    let mut tweak = lane.tweak;
    // Gate fields are read only in the arms that use them: most gates
    // of a public-heavy cycle decide `PublicOut`/`Skipped`.
    let pins = |gate| Pins::of(gate, WireId::index);
    for (gate, decision) in circuit.gates().iter().zip(&lane.dec.decisions) {
        match *decision {
            GateDecision::PublicOut(_) | GateDecision::Skipped | GateDecision::SkippedFree => {}
            GateDecision::Pass { from_a, flip } => {
                let src = if from_a { gate.a } else { gate.b };
                party.copy(labels, src.index(), gate.out.index(), flip);
            }
            GateDecision::Alias { src, flip } => {
                party.copy(labels, src.index(), gate.out.index(), flip);
            }
            GateDecision::FreeXor { flip } => party.xor(labels, pins(gate), flip),
            GateDecision::Garble => {
                party.garble(labels, pins(gate), tweak)?;
                tweak += 1;
            }
        }
    }
    Ok(())
}

/// Runs one session of `own.len()` lanes as party `P`: `own` and
/// `publics` hold one [`PartyData`] per lane. `opts` and the lane counts
/// are validated first. More than one lane runs the layered walk, which
/// needs the SkipGate policy; `force_layered` runs it for one lane too.
///
/// Wire format: the handshake announces the lane count when it is more
/// than one ([`arm2gc_proto::Message::Instances`], protocol v2); input
/// labels, OT pairs and output colour bits are concatenated lane-major;
/// each cycle's tables interleave gate-major/lane-minor. Lane 0 draws
/// exactly the labels and tweaks a single-lane session would, so a
/// one-lane session's transcript does not depend on the walk.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_session<P: Party>(
    ends: P::Ends,
    circuit: &Circuit,
    own: &[PartyData],
    publics: &[PartyData],
    cycles: usize,
    opts: &SessionOptions,
    force_layered: bool,
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
    let mut layering = (force_layered || n > 1).then(|| Layering::new(circuit, n));
    let walk = match &layering {
        None => Walk::Netlist(circuit.wire_count()),
        Some(l) => Walk::Layered(l.sched.levels()),
    };
    let mut party = P::establish(ends, opts.stream, shards, n, walk)?;
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
        if let Some(l) = &mut layering {
            l.plan(circuit, &lanes);
        }
        party.begin_cycle(tables)?;
        match &layering {
            Some(l) => l.walk(&mut party, circuit, &lanes, &mut labels),
            None => netlist_walk(&mut party, circuit, &lanes[0], &mut labels)?,
        }
        party.end_cycle(&mut labels, (circuit.gates().len() * live) as u64)?;

        for lane in lanes.iter_mut().filter(|l| l.live) {
            lane.tweak += lane.dec.counts.garbled;
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
    if let Some(l) = &layering {
        batching.releveled_cycles = l.releveled_cycles;
        batching.patched_gates = l.patched_gates;
    }
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
                let ends = (
                    &mut ca as &mut dyn Channel,
                    g_shards,
                    &mut InsecureOt as _,
                    &mut prg,
                );
                run_session::<Garbler>(ends, &bc.circuit, alice, public, bc.cycles, &opts, layered)
                    .expect("garbler")
            });
            let ends = (&mut cb as &mut dyn Channel, e_shards, &mut InsecureOt as _);
            let b =
                run_session::<Evaluator>(ends, &bc.circuit, bob, public, bc.cycles, &opts, layered)
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
        let (_, frames) = session(&bc, 1, false);
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
