//! The shared per-cycle decision engine (Algorithms 3–6 of the paper).
//!
//! Both parties run exactly this code on exactly the same data (public
//! wire values and secret tags), so their gate classifications and
//! skip decisions agree by construction. Alice then garbles the
//! surviving category-iv gates and Bob evaluates them.

use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

use arm2gc_circuit::ir::Unary;
use arm2gc_circuit::{Circuit, Op, OutputMode, WireId};

use crate::state::WireVal;
use crate::tag::TagAllocator;

/// Outcome of classifying one gate for one cycle.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GateDecision {
    /// Categories i / ii / iii with constant result: both parties computed
    /// the output locally; no labels involved.
    PublicOut(bool),
    /// The gate acts as a wire (or inverter) from one input to its
    /// output: labels flow through for free.
    Pass {
        /// Which input the label comes from (`true` = first input).
        from_a: bool,
        /// Whether the logical value is inverted on the way through.
        flip: bool,
    },
    /// Category-iv linear gate (XOR/XNOR on unrelated secrets): free.
    FreeXor {
        /// XNOR (inverted output).
        flip: bool,
    },
    /// A free-XOR result whose lineage cancelled down to an *existing*
    /// live wire (e.g. the output of a public-selector XOR-trick mux):
    /// both parties copy that wire's label instead of keeping the XOR
    /// operands alive. This generalises §3.3's identical-label detection
    /// from gate inputs to the whole cycle and is what lets a mux built
    /// as `f ⊕ (sel ∧ (t ⊕ f))` release the dead sub-circuit.
    Alias {
        /// The earlier wire carrying the same lineage.
        src: WireId,
        /// Label flip (Alice XORs Δ; Bob copies unchanged).
        flip: bool,
    },
    /// Category-iv nonlinear gate that must be garbled and transferred.
    Garble,
    /// Category-iv nonlinear gate whose `label_fanout` reached zero: its
    /// table is never sent (Alg. 4 line 18 / Alg. 5 line 18).
    Skipped,
    /// Pass/FreeXor gate whose output label ended the cycle unused; no
    /// labels are computed for it.
    SkippedFree,
}

impl GateDecision {
    /// Whether a party computes a label for the gate's output: Pass,
    /// Alias, FreeXor and Garble do; public and skipped gates do not.
    fn moves_label(&self) -> bool {
        matches!(
            self,
            GateDecision::Pass { .. }
                | GateDecision::Alias { .. }
                | GateDecision::FreeXor { .. }
                | GateDecision::Garble
        )
    }
}

/// Per-cycle classification counts (feeds the evaluation tables).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DecisionCounts {
    /// Gates resolved to a public constant (categories i–iii).
    pub public_out: u64,
    /// Gates acting as wires/inverters (categories ii–iii).
    pub pass: u64,
    /// Free XOR/XNOR gates garbled at zero cost.
    pub free_xor: u64,
    /// Free-XOR results aliased to an existing wire.
    pub aliased: u64,
    /// Nonlinear gates garbled and transferred.
    pub garbled: u64,
    /// Nonlinear gates skipped by fanout reduction.
    pub skipped_nonlinear: u64,
    /// Linear gates skipped by fanout reduction.
    pub skipped_free: u64,
}

/// All decisions for one cycle.
#[derive(Clone, Debug, Default)]
pub struct CycleDecisions {
    /// One decision per gate, in circuit order.
    pub decisions: Vec<GateDecision>,
    /// The gates whose decision moves a label (Pass, Alias, FreeXor and
    /// Garble), as ascending netlist indices: the only gates a party
    /// has to visit this cycle.
    pub moving: Vec<u32>,
    /// Aggregated counts.
    pub counts: DecisionCounts,
}

/// Hashes a tag-lineage key by folding its two halves: `lo ^ hi`.
///
/// Sound because every key is an XOR of splitmix64 outputs that both
/// parties derive from a counter ([`TagAllocator`]), never from wire
/// input, so the fold is already uniform and no peer can steer it. The
/// map still compares full `u128` keys, so two tags with equal folds
/// only share a bucket chain.
#[derive(Clone, Copy, Debug, Default)]
struct FoldTag;

/// The [`FoldTag`] hasher state.
#[derive(Default)]
struct FoldTagHasher(u64);

impl BuildHasher for FoldTag {
    type Hasher = FoldTagHasher;

    fn build_hasher(&self) -> FoldTagHasher {
        FoldTagHasher::default()
    }
}

impl Hasher for FoldTagHasher {
    fn write(&mut self, bytes: &[u8]) {
        // Only `u128` keys are hashed; this covers any other use.
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u128(&mut self, v: u128) {
        self.0 = v as u64 ^ (v >> 64) as u64;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Representative wire per live tag hash.
type RepMap = HashMap<u128, WireId, FoldTag>;

/// Buffers [`DecideContext::decide_cycle`] reuses from one cycle to
/// the next instead of reallocating them.
#[derive(Clone, Debug, Default)]
struct DecideScratch {
    /// This cycle's `label_fanout`, refilled from `base_fan`.
    fan: Vec<u32>,
    /// Earliest wire carrying each tag lineage this cycle.
    rep: RepMap,
}

/// Precomputed circuit metadata for the per-cycle decision passes.
///
/// One context serves every lane of a party: it holds no lane state,
/// only the circuit's static fanout and a scratch buffer that each
/// [`decide_cycle`](Self::decide_cycle) call refills from scratch.
#[derive(Clone, Debug)]
pub struct DecideContext<'c> {
    circuit: &'c Circuit,
    /// Static per-wire fanout from gate inputs only.
    base_fan: Vec<u32>,
    /// Flip-flop `d` wires, every cycle except (conditionally) the last.
    dff_d: Vec<WireId>,
    /// `d` wires of flip-flops whose `q` is a circuit output.
    output_dff_d: Vec<WireId>,
    /// Output wires that are not flip-flop `q`s.
    non_q_outputs: Vec<WireId>,
    /// Disable the dead-gate filter (ablation only).
    pub filter_dead: bool,
    /// Cycle-persistent `fan` and `rep`, dropped after a last cycle.
    scratch: RefCell<DecideScratch>,
}

impl<'c> DecideContext<'c> {
    /// Builds the context for `circuit`.
    pub fn new(circuit: &'c Circuit) -> Self {
        let mut base_fan = vec![0u32; circuit.wire_count()];
        for g in circuit.gates() {
            base_fan[g.a.index()] += 1;
            base_fan[g.b.index()] += 1;
        }
        let q_set: std::collections::HashSet<WireId> = circuit.dffs().iter().map(|d| d.q).collect();
        let output_set: std::collections::HashSet<WireId> =
            circuit.outputs().iter().copied().collect();
        Self {
            circuit,
            base_fan,
            dff_d: circuit.dffs().iter().map(|d| d.d).collect(),
            output_dff_d: circuit
                .dffs()
                .iter()
                .filter(|d| output_set.contains(&d.q))
                .map(|d| d.d)
                .collect(),
            non_q_outputs: circuit
                .outputs()
                .iter()
                .copied()
                .filter(|w| !q_set.contains(w))
                .collect(),
            filter_dead: true,
            scratch: RefCell::default(),
        }
    }

    /// Fills `fan` with this cycle's initial `label_fanout` (§3.2: gate
    /// fanout plus the cycle's sinks — scheduled outputs and flip-flop
    /// data inputs).
    fn init_fan(&self, fan: &mut Vec<u32>, is_last: bool) {
        fan.clear();
        fan.extend_from_slice(&self.base_fan);
        match self.circuit.output_mode() {
            OutputMode::PerCycle => {
                for w in self.circuit.outputs() {
                    fan[w.index()] += 1;
                }
            }
            OutputMode::FinalOnly if is_last => {
                for w in &self.output_dff_d {
                    fan[w.index()] += 1;
                }
                for w in &self.non_q_outputs {
                    fan[w.index()] += 1;
                }
            }
            OutputMode::FinalOnly => {}
        }
        if !is_last {
            for w in &self.dff_d {
                fan[w.index()] += 1;
            }
        }
    }

    /// Runs Phases 1 and 2's classification plus the recursive fanout
    /// reduction for one cycle, updating `states` with every gate's
    /// output knowledge.
    ///
    /// The fanout vector and the tag map are cleared and reused across
    /// calls, not reallocated; after an `is_last` cycle they are dropped,
    /// so a session does not hold them through its final garbling.
    pub fn decide_cycle(
        &self,
        states: &mut [WireVal],
        alloc: &mut TagAllocator,
        is_last: bool,
    ) -> CycleDecisions {
        let mut decided = CycleDecisions::default();
        self.decide_into(states, alloc, is_last, &mut decided);
        decided
    }

    /// [`decide_cycle`](Self::decide_cycle) into `out`, reusing its
    /// buffers, so a lane deciding every cycle allocates nothing per
    /// cycle.
    pub(crate) fn decide_into(
        &self,
        states: &mut [WireVal],
        alloc: &mut TagAllocator,
        is_last: bool,
        out: &mut CycleDecisions,
    ) {
        let mut scratch = self.scratch.borrow_mut();
        self.decide_with(&mut scratch, states, alloc, is_last, out);
        if is_last {
            *scratch = DecideScratch::default();
        }
    }

    fn decide_with(
        &self,
        scratch: &mut DecideScratch,
        states: &mut [WireVal],
        alloc: &mut TagAllocator,
        is_last: bool,
        out: &mut CycleDecisions,
    ) {
        let circuit = self.circuit;
        let DecideScratch { fan, rep } = scratch;
        self.init_fan(fan, is_last);
        let CycleDecisions {
            decisions,
            moving,
            counts,
        } = out;
        decisions.clear();
        decisions.reserve(circuit.gates().len());

        let release = |fan: &mut [u32], states: &[WireVal], w: WireId| {
            if states[w.index()].is_secret() {
                let f = &mut fan[w.index()];
                debug_assert!(*f > 0, "fanout underflow on {w}");
                *f = f.saturating_sub(1);
            }
        };

        // Representative wire per live tag hash: the earliest wire whose
        // label carries that lineage this cycle. Seeded from flip-flop
        // outputs and primary inputs (their labels are always valid).
        rep.clear();
        for dff in circuit.dffs() {
            if let WireVal::Secret(t) = states[dff.q.index()] {
                rep.entry(t.hash).or_insert(dff.q);
            }
        }
        for input in circuit.inputs() {
            if let WireVal::Secret(t) = states[input.wire.index()] {
                rep.entry(t.hash).or_insert(input.wire);
            }
        }

        // ---- Forward pass: categories i–iv -----------------------------
        for gate in circuit.gates() {
            let sa = states[gate.a.index()];
            let sb = states[gate.b.index()];
            let decision = match (sa, sb) {
                // Category i.
                (WireVal::Public(va), WireVal::Public(vb)) => {
                    GateDecision::PublicOut(gate.op.eval(va, vb))
                }
                // Category ii.
                (WireVal::Public(va), WireVal::Secret(_)) => match gate.op.restrict_a(va) {
                    Unary::Const(c) => {
                        release(fan, states, gate.b);
                        GateDecision::PublicOut(c)
                    }
                    Unary::Pass => GateDecision::Pass {
                        from_a: false,
                        flip: false,
                    },
                    Unary::Inv => GateDecision::Pass {
                        from_a: false,
                        flip: true,
                    },
                },
                (WireVal::Secret(_), WireVal::Public(vb)) => match gate.op.restrict_b(vb) {
                    Unary::Const(c) => {
                        release(fan, states, gate.a);
                        GateDecision::PublicOut(c)
                    }
                    Unary::Pass => GateDecision::Pass {
                        from_a: true,
                        flip: false,
                    },
                    Unary::Inv => GateDecision::Pass {
                        from_a: true,
                        flip: true,
                    },
                },
                (WireVal::Secret(ta), WireVal::Secret(tb)) => {
                    // Category iii: identical or inverted lineage.
                    let related = if ta.identical(tb) {
                        Some(gate.op.diagonal())
                    } else if ta.inverted_of(tb) {
                        Some(gate.op.antidiagonal())
                    } else {
                        None
                    };
                    match related {
                        Some(Unary::Const(c)) => {
                            release(fan, states, gate.a);
                            release(fan, states, gate.b);
                            GateDecision::PublicOut(c)
                        }
                        Some(Unary::Pass) => {
                            release(fan, states, gate.b);
                            GateDecision::Pass {
                                from_a: true,
                                flip: false,
                            }
                        }
                        Some(Unary::Inv) => {
                            release(fan, states, gate.b);
                            GateDecision::Pass {
                                from_a: true,
                                flip: true,
                            }
                        }
                        // Category iv.
                        None => match gate.op {
                            Op::XOR => GateDecision::FreeXor { flip: false },
                            Op::XNOR => GateDecision::FreeXor { flip: true },
                            Op::BUF_A => {
                                release(fan, states, gate.b);
                                GateDecision::Pass {
                                    from_a: true,
                                    flip: false,
                                }
                            }
                            Op::NOT_A => {
                                release(fan, states, gate.b);
                                GateDecision::Pass {
                                    from_a: true,
                                    flip: true,
                                }
                            }
                            Op::BUF_B => {
                                release(fan, states, gate.a);
                                GateDecision::Pass {
                                    from_a: false,
                                    flip: false,
                                }
                            }
                            Op::NOT_B => {
                                release(fan, states, gate.a);
                                GateDecision::Pass {
                                    from_a: false,
                                    flip: true,
                                }
                            }
                            _ => GateDecision::Garble,
                        },
                    }
                }
            };

            // Record the output's knowledge state; FreeXor results whose
            // lineage already lives on some earlier wire become aliases.
            let (decision, out_state) = match decision {
                GateDecision::PublicOut(v) => (decision, WireVal::Public(v)),
                GateDecision::Pass { from_a, flip } => {
                    let src = if from_a { sa } else { sb };
                    let tag = src.as_secret().expect("pass source must be secret");
                    (
                        decision,
                        WireVal::Secret(if flip { tag.inverted() } else { tag }),
                    )
                }
                GateDecision::FreeXor { flip } => {
                    let (ta, tb) = (
                        sa.as_secret().expect("xor input"),
                        sb.as_secret().expect("xor input"),
                    );
                    let mut t = ta.xor(tb);
                    t.flip ^= flip;
                    debug_assert_ne!(t.hash, 0, "cat-iv XOR of related tags");
                    match rep.get(&t.hash) {
                        Some(&src) if src != gate.out => {
                            let fr = states[src.index()]
                                .as_secret()
                                .expect("representative must be secret")
                                .flip;
                            release(fan, states, gate.a);
                            release(fan, states, gate.b);
                            fan[src.index()] += 1;
                            (
                                GateDecision::Alias {
                                    src,
                                    flip: fr ^ t.flip,
                                },
                                WireVal::Secret(t),
                            )
                        }
                        _ => (decision, WireVal::Secret(t)),
                    }
                }
                GateDecision::Garble => (decision, WireVal::Secret(alloc.fresh())),
                GateDecision::Alias { .. } | GateDecision::Skipped | GateDecision::SkippedFree => {
                    unreachable!()
                }
            };
            states[gate.out.index()] = out_state;
            if let WireVal::Secret(t) = out_state {
                rep.entry(t.hash).or_insert(gate.out);
            }
            decisions.push(decision);
        }

        // ---- Backward sweep: recursive fanout reduction (Alg. 6) -------
        if self.filter_dead {
            for (gi, gate) in circuit.gates().iter().enumerate().rev() {
                if fan[gate.out.index()] > 0 {
                    continue;
                }
                match decisions[gi] {
                    GateDecision::Pass { from_a, .. } => {
                        release(fan, states, if from_a { gate.a } else { gate.b });
                        decisions[gi] = GateDecision::SkippedFree;
                    }
                    GateDecision::FreeXor { .. } => {
                        release(fan, states, gate.a);
                        release(fan, states, gate.b);
                        decisions[gi] = GateDecision::SkippedFree;
                    }
                    GateDecision::Alias { src, .. } => {
                        release(fan, states, src);
                        decisions[gi] = GateDecision::SkippedFree;
                    }
                    GateDecision::Garble => {
                        release(fan, states, gate.a);
                        release(fan, states, gate.b);
                        decisions[gi] = GateDecision::Skipped;
                    }
                    GateDecision::PublicOut(_)
                    | GateDecision::Skipped
                    | GateDecision::SkippedFree => {}
                }
            }
        }

        *counts = DecisionCounts::default();
        moving.clear();
        for (gi, d) in decisions.iter().enumerate() {
            match d {
                GateDecision::PublicOut(_) => counts.public_out += 1,
                GateDecision::Pass { .. } => counts.pass += 1,
                GateDecision::FreeXor { .. } => counts.free_xor += 1,
                GateDecision::Alias { .. } => counts.aliased += 1,
                GateDecision::Garble => counts.garbled += 1,
                GateDecision::Skipped => counts.skipped_nonlinear += 1,
                GateDecision::SkippedFree => counts.skipped_free += 1,
            }
            if d.moves_label() {
                moving.push(gi as u32);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tag::SecretTag;
    use arm2gc_circuit::{CircuitBuilder, DffInit, Role};

    fn states_for(c: &Circuit, alloc: &mut TagAllocator) -> Vec<WireVal> {
        // All Alice/Bob inputs secret, public inputs = arbitrary values.
        let mut states = vec![WireVal::Public(false); c.wire_count()];
        for input in c.inputs() {
            states[input.wire.index()] = match input.role {
                Role::Public => WireVal::Public(true),
                _ => WireVal::Secret(alloc.fresh()),
            };
        }
        for &(w, v) in c.consts() {
            states[w.index()] = WireVal::Public(v);
        }
        states
    }

    /// Figure 1 of the paper: category i–ii rewrites.
    #[test]
    fn figure_1_phase1_examples() {
        let mut b = CircuitBuilder::new("fig1");
        let s = b.input(Role::Alice); // secret
        let p0 = b.constant(false);
        let p1 = b.constant(true);
        let g_and0 = b.and(p1, p0); // cat i: 1 AND 0 = 0
        let g_and_s0 = b.and(s, p0); // cat ii: S AND 0 = 0
        let g_and_s1 = b.and(s, p1); // cat ii: S AND 1 = wire
        let g_xor_s1 = b.xor(s, p1); // cat ii: S XOR 1 = inverter
        b.outputs(&[g_and0, g_and_s0, g_and_s1, g_xor_s1]);
        let c = b.build();

        let mut alloc = TagAllocator::new();
        let mut states = states_for(&c, &mut alloc);
        let ctx = DecideContext::new(&c);
        let res = ctx.decide_cycle(&mut states, &mut alloc, true);
        assert_eq!(res.decisions[0], GateDecision::PublicOut(false));
        assert_eq!(res.decisions[1], GateDecision::PublicOut(false));
        assert_eq!(
            res.decisions[2],
            GateDecision::Pass {
                from_a: true,
                flip: false
            }
        );
        assert_eq!(
            res.decisions[3],
            GateDecision::Pass {
                from_a: true,
                flip: true
            }
        );
        assert_eq!(res.counts.garbled, 0);
    }

    /// Figure 2 of the paper: category iii–iv rewrites.
    #[test]
    fn figure_2_phase2_examples() {
        let mut b = CircuitBuilder::new("fig2");
        let s = b.input(Role::Alice);
        let t = b.input(Role::Bob);
        let ns = b.not(s); // pass w/ flip
        let xor_same = b.xor(s, s); // cat iii: identical → public 0
        let xor_inv = b.xor(s, ns); // cat iii: inverted → public 1
        let and_same = b.and(s, s); // cat iii: identical → wire
        let and_unrelated = b.and(s, t); // cat iv: garble
        b.outputs(&[xor_same, xor_inv, and_same, and_unrelated]);
        let c = b.build();

        let mut alloc = TagAllocator::new();
        let mut states = states_for(&c, &mut alloc);
        let ctx = DecideContext::new(&c);
        let res = ctx.decide_cycle(&mut states, &mut alloc, true);
        // Gate order: ns, xor_same, xor_inv, and_same, and_unrelated.
        assert_eq!(res.decisions[1], GateDecision::PublicOut(false));
        assert_eq!(res.decisions[2], GateDecision::PublicOut(true));
        assert_eq!(
            res.decisions[3],
            GateDecision::Pass {
                from_a: true,
                flip: false
            }
        );
        assert_eq!(res.decisions[4], GateDecision::Garble);
        assert_eq!(res.counts.garbled, 1);
    }

    /// Figure 3 of the paper: recursive fanout reduction — a chain of
    /// garbleable gates whose only consumer is killed by a public 0 AND.
    #[test]
    fn figure_3_recursive_reduction() {
        let mut b = CircuitBuilder::new("fig3");
        let s1 = b.input(Role::Alice);
        let s2 = b.input(Role::Bob);
        let s3 = b.input(Role::Alice);
        let zero = b.constant(false);
        // A chain: g1 = s1 & s2; g2 = g1 | s3; g3 = g2 & 0 (public!).
        let g1 = b.and(s1, s2);
        let g2 = b.or(g1, s3);
        let g3 = b.and(g2, zero);
        // And a surviving gate to show selectivity.
        let live = b.and(s1, s3);
        b.outputs(&[g3, live]);
        let c = b.build();

        let mut alloc = TagAllocator::new();
        let mut states = states_for(&c, &mut alloc);
        let ctx = DecideContext::new(&c);
        let res = ctx.decide_cycle(&mut states, &mut alloc, true);
        // g3's public 0 kills g2, which recursively kills g1.
        assert_eq!(res.decisions[0], GateDecision::Skipped, "g1 skipped");
        assert_eq!(res.decisions[1], GateDecision::Skipped, "g2 skipped");
        assert_eq!(res.decisions[2], GateDecision::PublicOut(false));
        assert_eq!(res.decisions[3], GateDecision::Garble, "live gate garbles");
        assert_eq!(res.counts.garbled, 1);
        assert_eq!(res.counts.skipped_nonlinear, 2);
    }

    #[test]
    fn filter_can_be_disabled_for_ablation() {
        let mut b = CircuitBuilder::new("abl");
        let s1 = b.input(Role::Alice);
        let s2 = b.input(Role::Bob);
        let zero = b.constant(false);
        let g1 = b.and(s1, s2);
        let g2 = b.and(g1, zero);
        b.output(g2);
        let c = b.build();

        let mut alloc = TagAllocator::new();
        let mut states = states_for(&c, &mut alloc);
        let mut ctx = DecideContext::new(&c);
        ctx.filter_dead = false;
        let res = ctx.decide_cycle(&mut states, &mut alloc, true);
        assert_eq!(res.decisions[0], GateDecision::Garble);
        assert_eq!(res.counts.garbled, 1);
    }

    #[test]
    fn mux_with_public_selector_is_free() {
        // The paper's §3 illustrative example: a MUX whose selector is
        // public costs nothing; the unused sub-circuit is skipped.
        let mut b = CircuitBuilder::new("mux");
        let sel = b.input(Role::Public);
        let x0 = b.input(Role::Alice);
        let x1 = b.input(Role::Alice);
        let y = b.input(Role::Bob);
        // Two "sub-circuits": f0 = x0 & y (feeds input 0), f1 = x1 & y.
        let f0 = b.and(x0, y);
        let f1 = b.and(x1, y);
        let m = b.mux(sel, f1, f0);
        b.output(m);
        let c = b.build();

        let mut alloc = TagAllocator::new();
        let mut states = states_for(&c, &mut alloc); // sel = public true
        let ctx = DecideContext::new(&c);
        let res = ctx.decide_cycle(&mut states, &mut alloc, true);
        // With sel = 1 only f1 must be garbled; f0 is skipped and the MUX
        // itself is wires.
        assert_eq!(res.counts.garbled, 1);
        assert_eq!(res.counts.skipped_nonlinear, 1);
    }

    /// An 8-bit register updated each cycle through a public-selector
    /// mux between `state ∧ x` and `state ⊕ x` (`x` fresh from Bob), so
    /// cycles mix garbled, skipped, aliased and public gates.
    fn register_circuit() -> Circuit {
        let mut b = CircuitBuilder::new("register");
        let sel = b.input(Role::Public);
        let x = b.inputs(Role::Bob, 8);
        let q = b.dff_bus(8, |i| DffInit::Alice(i as u32));
        let and = b.and_bus(&q, &x);
        let xor = b.xor_bus(&q, &x);
        let next = b.mux_bus(sel, &and, &xor);
        b.connect_dff_bus(&q, &next);
        b.outputs(&q);
        b.build()
    }

    /// One lane's wire knowledge: fresh secret inputs each cycle, a
    /// public selector drawn from the lane's pattern.
    #[derive(Clone)]
    struct Lane {
        states: Vec<WireVal>,
        alloc: TagAllocator,
        pattern: u64,
    }

    impl Lane {
        fn new(c: &Circuit, pattern: u64) -> Self {
            let mut alloc = TagAllocator::new();
            let mut states = vec![WireVal::Public(false); c.wire_count()];
            for dff in c.dffs() {
                states[dff.q.index()] = WireVal::Secret(alloc.fresh());
            }
            Self {
                states,
                alloc,
                pattern,
            }
        }

        fn set_inputs(&mut self, c: &Circuit, cycle: usize) {
            for input in c.inputs() {
                self.states[input.wire.index()] = match input.role {
                    Role::Public => WireVal::Public(self.pattern >> (cycle % 64) & 1 == 1),
                    _ => WireVal::Secret(self.alloc.fresh()),
                };
            }
        }

        fn copy_dffs(&mut self, c: &Circuit) {
            let next: Vec<WireVal> = c.dffs().iter().map(|d| self.states[d.d.index()]).collect();
            for (dff, v) in c.dffs().iter().zip(next) {
                self.states[dff.q.index()] = v;
            }
        }
    }

    /// One context reused across cycles and two interleaved lanes —
    /// including cycles after an `is_last` call dropped its scratch —
    /// decides into reused buffers exactly what a fresh context per
    /// call decides, and lists exactly the gates that move a label.
    #[test]
    fn scratch_reuse_is_invisible() {
        let c = register_circuit();
        let ctx = DecideContext::new(&c);
        let mut lanes = [
            Lane::new(&c, 0x5a5a_0ff0_3c3c_9669),
            Lane::new(&c, 0x0123_4567_89ab_cdef),
        ];
        let mut garbled = 0;
        let mut reused = [CycleDecisions::default(), CycleDecisions::default()];
        for cycle in 0..40 {
            // Cycle 17 releases the scratch as a last cycle would; the
            // run goes on past it.
            let is_last = cycle == 17 || cycle == 39;
            for (lane, got) in lanes.iter_mut().zip(&mut reused) {
                lane.set_inputs(&c, cycle);
                let mut fresh = lane.clone();
                let want = DecideContext::new(&c).decide_cycle(
                    &mut fresh.states,
                    &mut fresh.alloc,
                    is_last,
                );
                ctx.decide_into(&mut lane.states, &mut lane.alloc, is_last, got);
                assert_eq!(got.decisions, want.decisions, "cycle {cycle}");
                assert_eq!(got.moving, want.moving, "cycle {cycle}");
                let listed: Vec<u32> = (0..c.gates().len() as u32)
                    .filter(|&gi| got.decisions[gi as usize].moves_label())
                    .collect();
                assert_eq!(got.moving, listed, "cycle {cycle}");
                assert_eq!(got.counts, want.counts, "cycle {cycle}");
                assert_eq!(lane.states, fresh.states, "cycle {cycle}");
                assert_eq!(lane.alloc.allocated(), fresh.alloc.allocated());
                garbled += got.counts.garbled;
                lane.copy_dffs(&c);
            }
        }
        assert!(garbled > 0, "the register garbles some cycles");
    }

    /// Tags whose halves fold to the same hash share a bucket chain but
    /// never each other's entry: the map compares full 128-bit keys.
    #[test]
    fn folded_hash_collisions_keep_their_own_wire() {
        let mut alloc = TagAllocator::new();
        let h = alloc.fresh().hash;
        let k = 0x0123_4567_89ab_cdef_u128;
        let g = h ^ (k << 64 | k);
        assert_ne!(h, g);
        assert_eq!(FoldTag.hash_one(h), FoldTag.hash_one(g));

        let mut rep = RepMap::default();
        rep.insert(h, WireId(1));
        rep.insert(g, WireId(2));
        assert_eq!(rep.get(&h), Some(&WireId(1)));
        assert_eq!(rep.get(&g), Some(&WireId(2)));

        // Through the decision pass: `x ⊕ z ⊕ z` and `y ⊕ z ⊕ z` cancel
        // back to `x` and `y`, whose tags fold alike; each aliases to
        // its own source.
        let mut b = CircuitBuilder::new("fold");
        let x = b.input(Role::Alice);
        let y = b.input(Role::Alice);
        let z = b.input(Role::Bob);
        let xz = b.xor(x, z);
        let xzz = b.xor(xz, z);
        let yz = b.xor(y, z);
        let yzz = b.xor(yz, z);
        b.outputs(&[xzz, yzz]);
        let c = b.build();
        let mut states = vec![WireVal::Public(false); c.wire_count()];
        for (w, hash) in [(x, h), (y, g), (z, alloc.fresh().hash)] {
            states[w.index()] = WireVal::Secret(SecretTag { hash, flip: false });
        }
        let res = DecideContext::new(&c).decide_cycle(&mut states, &mut alloc, true);
        assert_eq!(
            res.decisions[1],
            GateDecision::Alias {
                src: x,
                flip: false
            }
        );
        assert_eq!(
            res.decisions[3],
            GateDecision::Alias {
                src: y,
                flip: false
            }
        );
    }
}
