//! Precomputed topological layer schedules for the garbling hot loop.
//!
//! The wavefront batchers in `arm2gc-garble` discover parallelism *on
//! the fly* inside the netlist-order walk of one cycle (what a
//! single-lane session runs): a wavefront ends at the first gate that
//! consumes a label the current batch still owes. A [`LayerSchedule`]
//! instead levels the circuit once — ASAP (as-soon-as-possible)
//! topological levels — and is reused for every clock cycle of an
//! instanced session: every lane runs the *same* circuit every cycle,
//! so the cost of scheduling amortises to zero while every level's
//! nonlinear gates, across all lanes, hash through the wide AES core in
//! a single batch, however the netlist interleaves its dependency
//! chains.
//!
//! The schedule only reorders *computation*. Garbled tables still go on
//! the wire in exact netlist gate order ([`LayerSchedule::nonlinear_ordinal`]
//! gives each gate its emission slot), so a layer-scheduled run is
//! byte-identical to a sequential or wavefront run — the
//! strategy-equivalence suite in `arm2gc-bench` pins exactly that.

use crate::ir::Circuit;

/// A precomputed ASAP topological level schedule for one [`Circuit`].
///
/// Level `L` contains exactly the gates whose inputs are all produced
/// by levels `< L` (primary inputs, constants and flip-flop outputs are
/// level-0 sources), so all gates within one level are mutually
/// independent and may be computed in any order — including as one wide
/// hash batch. Within a level, gates are stored linear-first (then
/// nonlinear), each group in ascending netlist order.
#[derive(Clone, Debug)]
pub struct LayerSchedule {
    /// Gate indices, level-major.
    order: Vec<u32>,
    /// `order[bounds[l]..bounds[l + 1]]` is level `l`.
    bounds: Vec<u32>,
    /// Start of the nonlinear group inside each level's slice
    /// (relative to the level start).
    split: Vec<u32>,
    /// ASAP level of every gate (netlist-indexed).
    gate_level: Vec<u32>,
    /// Level of the value carried by every wire: 0 for sources,
    /// `gate_level + 1` for gate outputs.
    wire_level: Vec<u32>,
    /// Emission slot of every gate: its index among nonlinear gates in
    /// netlist order (`u32::MAX` for linear gates).
    ordinal: Vec<u32>,
    /// Nonlinear gates per cycle.
    non_xor: u32,
    /// Widest level, in gates.
    max_width: u32,
    /// Widest level, in nonlinear gates (= the largest possible hash
    /// batch a layered cycle can form).
    max_nonlinear_width: u32,
}

impl LayerSchedule {
    /// Levels `circuit` (one linear pass over the netlist).
    pub fn of(circuit: &Circuit) -> Self {
        let gates = circuit.gates();
        let mut wire_level = vec![0u32; circuit.wire_count()];
        let mut gate_level = vec![0u32; gates.len()];
        let mut ordinal = vec![u32::MAX; gates.len()];
        let mut non_xor = 0u32;
        let mut levels = 0u32;
        // Netlist order is topological, so one forward pass settles
        // every level.
        for (gi, g) in gates.iter().enumerate() {
            let l = wire_level[g.a.index()].max(wire_level[g.b.index()]);
            gate_level[gi] = l;
            wire_level[g.out.index()] = l + 1;
            levels = levels.max(l + 1);
            if !g.op.is_linear() {
                ordinal[gi] = non_xor;
                non_xor += 1;
            }
        }

        // Counting sort into level buckets: linear group first, then
        // nonlinear, both in ascending netlist order.
        let nl = levels as usize;
        let mut linear_count = vec![0u32; nl];
        let mut nonlinear_count = vec![0u32; nl];
        for (gi, g) in gates.iter().enumerate() {
            if g.op.is_linear() {
                linear_count[gate_level[gi] as usize] += 1;
            } else {
                nonlinear_count[gate_level[gi] as usize] += 1;
            }
        }
        let mut bounds = Vec::with_capacity(nl + 1);
        let mut split = Vec::with_capacity(nl);
        let mut max_width = 0u32;
        let mut max_nonlinear_width = 0u32;
        let mut start = 0u32;
        bounds.push(0);
        for l in 0..nl {
            let width = linear_count[l] + nonlinear_count[l];
            split.push(linear_count[l]);
            max_width = max_width.max(width);
            max_nonlinear_width = max_nonlinear_width.max(nonlinear_count[l]);
            start += width;
            bounds.push(start);
        }
        // Fill positions: linear gates from the level start, nonlinear
        // gates from the split point.
        let mut next_linear: Vec<u32> = (0..nl).map(|l| bounds[l]).collect();
        let mut next_nonlinear: Vec<u32> = (0..nl).map(|l| bounds[l] + split[l]).collect();
        let mut order = vec![0u32; gates.len()];
        for (gi, g) in gates.iter().enumerate() {
            let l = gate_level[gi] as usize;
            let slot = if g.op.is_linear() {
                let s = next_linear[l];
                next_linear[l] += 1;
                s
            } else {
                let s = next_nonlinear[l];
                next_nonlinear[l] += 1;
                s
            };
            order[slot as usize] = gi as u32;
        }

        Self {
            order,
            bounds,
            split,
            gate_level,
            wire_level,
            ordinal,
            non_xor,
            max_width,
            max_nonlinear_width,
        }
    }

    /// Number of topological levels (0 for a gate-free circuit).
    pub fn levels(&self) -> usize {
        self.bounds.len() - 1
    }

    /// All gate indices of level `l`, linear group first.
    pub fn level_gates(&self, l: usize) -> &[u32] {
        &self.order[self.bounds[l] as usize..self.bounds[l + 1] as usize]
    }

    /// Level `l` as `(linear, nonlinear)` gate-index slices.
    pub fn level_split(&self, l: usize) -> (&[u32], &[u32]) {
        self.level_gates(l).split_at(self.split[l] as usize)
    }

    /// ASAP level of gate `gi`.
    pub fn gate_level(&self, gi: usize) -> u32 {
        self.gate_level[gi]
    }

    /// Level of the value on wire `w` (0 = available at cycle start).
    pub fn wire_level(&self, w: usize) -> u32 {
        self.wire_level[w]
    }

    /// Emission slot of gate `gi`: its index among the circuit's
    /// nonlinear gates in netlist order, or `None` for linear gates.
    ///
    /// A layered cycle writes each garbled table into this slot and
    /// emits slots in ascending order, reproducing the netlist-order
    /// table stream exactly.
    pub fn nonlinear_ordinal(&self, gi: usize) -> Option<u32> {
        match self.ordinal[gi] {
            u32::MAX => None,
            o => Some(o),
        }
    }

    /// Nonlinear gates per cycle (= emission slots).
    pub fn non_xor_count(&self) -> u32 {
        self.non_xor
    }

    /// Widest level in gates.
    pub fn max_width(&self) -> u32 {
        self.max_width
    }

    /// Widest level in nonlinear gates — the largest hash batch a
    /// layered cycle can form on this circuit.
    pub fn max_nonlinear_width(&self) -> u32 {
        self.max_nonlinear_width
    }

    /// Whether a label copy from `src` into the output of gate `gi`
    /// respects this schedule: `src`'s value must be final by the time
    /// level `gate_level(gi)` executes.
    ///
    /// The SkipGate decision pass can alias a gate's output to *any*
    /// earlier-netlist wire, including one produced at a deeper level;
    /// engines check each cycle's aliases with this predicate and
    /// re-level the (rare) cycles where the static levels cannot honour
    /// such an edge ([`LayerSchedule::relevel_cycle`]).
    pub fn copy_is_level_safe(&self, gi: usize, src_wire: usize) -> bool {
        self.wire_level[src_wire] <= self.gate_level[gi]
    }

    /// Computes the per-cycle incremental re-leveling for a cycle whose
    /// effective dependencies (as classified by the shared SkipGate
    /// decision pass) do not all fit the static levels: every gate
    /// whose dependencies settle *later* than its static level — an
    /// alias edge into a deeper wire, or a transitive dependent of a
    /// gate that already moved — is pushed to the earliest level that
    /// satisfies them, and everything else keeps its static position.
    ///
    /// `dep` reports, per netlist gate index, which wires the gate's
    /// label computation actually reads this cycle (see [`CycleDep`]).
    /// The netlist is topological and alias sources always point at
    /// earlier-netlist wires, so one forward pass settles every
    /// effective level; because both parties derive `dep` from the
    /// identical decision vector, they compute the identical patch with
    /// zero coordination frames. Table emission is untouched — gates
    /// keep their netlist-ordinal emission slots, so the wire transcript
    /// stays byte-identical to a netlist-order walk.
    ///
    /// Returns `true` when at least one gate moved (`patch` is then
    /// non-identity); `false` leaves `patch` as the identity.
    pub fn relevel_cycle(
        &self,
        circuit: &Circuit,
        mut dep: impl FnMut(usize) -> CycleDep,
        patch: &mut CyclePatch,
    ) -> bool {
        let gates = circuit.gates();
        patch.reset(self);
        let mut levels = self.levels() as u32;
        for (gi, g) in gates.iter().enumerate() {
            let need = match dep(gi) {
                CycleDep::Absent => continue,
                CycleDep::Copy(src) => patch.eff_wire[src as usize],
                CycleDep::Inputs => patch.eff_wire[g.a.index()].max(patch.eff_wire[g.b.index()]),
            };
            // `need` is the earliest level at which every effective
            // input is final; static levels already satisfy plain
            // input edges, so only later-settling dependencies move a
            // gate.
            if need > self.gate_level[gi] {
                patch.moved_level[gi] = need;
                patch.moved.push(gi as u32);
                patch.eff_wire[g.out.index()] = need + 1;
                levels = levels.max(need + 1);
            }
        }
        if patch.moved.is_empty() {
            return false;
        }
        patch.identity = false;
        patch.levels = levels;
        patch.bucket_moved();
        true
    }
}

/// A gate's effective label dependencies for one cycle, as classified
/// by the (shared, deterministic) per-cycle decision pass — the input
/// to [`LayerSchedule::relevel_cycle`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CycleDep {
    /// No label is computed for this gate this cycle (public output or
    /// skipped gate); it never moves and nothing may depend on it.
    Absent,
    /// The output label is copied from one wire (a pass-through or an
    /// alias edge — the latter may point at *any* earlier-netlist
    /// wire, including one produced at a deeper level).
    Copy(u32),
    /// Both netlist inputs are read (free XOR or garbled gate) —
    /// exactly the dependencies the static levels already honour.
    Inputs,
}

/// A per-cycle patch over a [`LayerSchedule`]: the set of gates pushed
/// to deeper levels because this cycle's alias edges (or their
/// transitive dependents) settle later than the static levels allow.
///
/// The patch is *sparse*: untouched gates run at their static level in
/// the static order, moved gates are appended to their patched level
/// (netlist order within a level). Buffers are reused across cycles —
/// keep one `CyclePatch` per engine run and hand it to
/// [`LayerSchedule::relevel_cycle`] every cycle that needs it; call
/// [`CyclePatch::clear`] on cycles that fit the static schedule.
///
/// A `CyclePatch` is bound to the schedule/circuit of the last
/// `relevel_cycle` call; its queries are meaningful only against that
/// schedule.
#[derive(Clone, Debug, Default)]
pub struct CyclePatch {
    /// Effective per-wire levels for the current cycle (static values
    /// except for the outputs of moved gates).
    eff_wire: Vec<u32>,
    /// Patched level per gate; `u32::MAX` = kept its static level.
    moved_level: Vec<u32>,
    /// Moved gate indices in netlist order; bucketed by level into
    /// `moved_order`/`moved_bounds` once the pass completes.
    moved: Vec<u32>,
    /// Moved gates, level-major (netlist order within a level).
    moved_order: Vec<u32>,
    /// `moved_order[moved_bounds[l]..moved_bounds[l + 1]]` is level `l`.
    moved_bounds: Vec<u32>,
    /// Patched level count (max of static levels and moved gates + 1).
    levels: u32,
    identity: bool,
}

impl CyclePatch {
    /// A reusable, identity patch.
    pub fn new() -> Self {
        Self {
            identity: true,
            ..Self::default()
        }
    }

    /// Resets to the identity over `sched` (full rebuild of the
    /// effective maps; the patch is only rebuilt on the rare cycles
    /// whose alias edges cross levels, so simplicity wins over an
    /// incremental undo).
    fn reset(&mut self, sched: &LayerSchedule) {
        self.eff_wire.clear();
        self.eff_wire.extend_from_slice(&sched.wire_level);
        self.moved_level.clear();
        self.moved_level.resize(sched.gate_level.len(), u32::MAX);
        self.moved.clear();
        self.moved_order.clear();
        self.moved_bounds.clear();
        self.levels = 0;
        self.identity = true;
    }

    /// Counting sort of the moved gates into per-level buckets
    /// (stable, so netlist order is kept within each level).
    fn bucket_moved(&mut self) {
        let nl = self.levels as usize;
        self.moved_bounds.clear();
        self.moved_bounds.resize(nl + 1, 0);
        for &gi in &self.moved {
            self.moved_bounds[self.moved_level[gi as usize] as usize + 1] += 1;
        }
        for l in 0..nl {
            self.moved_bounds[l + 1] += self.moved_bounds[l];
        }
        self.moved_order.clear();
        self.moved_order.resize(self.moved.len(), 0);
        let mut next = self.moved_bounds.clone();
        for &gi in &self.moved {
            let l = self.moved_level[gi as usize] as usize;
            self.moved_order[next[l] as usize] = gi;
            next[l] += 1;
        }
    }

    /// Makes this the identity patch (every gate at its static level);
    /// the cheap path for cycles whose alias edges all fit the static
    /// schedule.
    pub fn clear(&mut self) {
        self.moved.clear();
        self.moved_order.clear();
        self.moved_bounds.clear();
        self.levels = 0;
        self.identity = true;
    }

    /// Whether the patch moves no gate (the static schedule applies
    /// unchanged).
    pub fn is_identity(&self) -> bool {
        self.identity
    }

    /// Patched level count — 0 for the identity patch (drive the cycle
    /// with `sched.levels().max(patch.levels())` levels).
    pub fn levels(&self) -> usize {
        self.levels as usize
    }

    /// Number of gates pushed off their static level this cycle.
    pub fn moved_gates(&self) -> u64 {
        if self.identity {
            0
        } else {
            self.moved.len() as u64
        }
    }

    /// Whether gate `gi` left its static level (skip it in the static
    /// walk; it reappears via [`CyclePatch::moved_at`]).
    pub fn is_moved(&self, gi: usize) -> bool {
        !self.identity && self.moved_level[gi] != u32::MAX
    }

    /// The gates appended to level `l` by this patch, in netlist order.
    pub fn moved_at(&self, l: usize) -> &[u32] {
        if self.identity || l + 1 >= self.moved_bounds.len() {
            return &[];
        }
        &self.moved_order[self.moved_bounds[l] as usize..self.moved_bounds[l + 1] as usize]
    }

    /// Gate `gi`'s level under this patch (static unless moved).
    pub fn effective_gate_level(&self, sched: &LayerSchedule, gi: usize) -> u32 {
        if self.identity || self.moved_level[gi] == u32::MAX {
            sched.gate_level(gi)
        } else {
            self.moved_level[gi]
        }
    }

    /// Wire `w`'s level under this patch (static unless its producing
    /// gate moved).
    pub fn effective_wire_level(&self, sched: &LayerSchedule, w: usize) -> u32 {
        if self.identity {
            sched.wire_level(w)
        } else {
            self.eff_wire[w]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CircuitBuilder, Op, Role};

    #[test]
    fn chain_levels_one_gate_each() {
        let mut b = CircuitBuilder::new("chain");
        let mut x = b.input(Role::Alice);
        let ys: Vec<_> = (0..5).map(|_| b.input(Role::Bob)).collect();
        for &y in &ys {
            x = b.and(x, y);
        }
        b.output(x);
        let c = b.build();
        let s = LayerSchedule::of(&c);
        assert_eq!(s.levels(), 5);
        assert_eq!(s.max_width(), 1);
        assert_eq!(s.max_nonlinear_width(), 1);
        for l in 0..5 {
            assert_eq!(s.level_gates(l), &[l as u32]);
        }
    }

    #[test]
    fn parallel_gates_share_one_level() {
        let mut b = CircuitBuilder::new("wide");
        let xs = b.inputs(Role::Alice, 8);
        let ys = b.inputs(Role::Bob, 8);
        let outs: Vec<_> = xs.iter().zip(&ys).map(|(&x, &y)| b.and(x, y)).collect();
        b.outputs(&outs);
        let c = b.build();
        let s = LayerSchedule::of(&c);
        assert_eq!(s.levels(), 1);
        assert_eq!(s.max_width(), 8);
        assert_eq!(s.max_nonlinear_width(), 8);
        assert_eq!(s.level_gates(0).len(), 8);
    }

    #[test]
    fn levels_respect_dependencies_and_partition() {
        // Mixed shape: two ANDs feeding a XOR feeding an AND.
        let mut b = CircuitBuilder::new("mix");
        let i = b.inputs(Role::Alice, 4);
        let j = b.inputs(Role::Bob, 4);
        let a0 = b.and(i[0], j[0]); // level 0
        let a1 = b.and(i[1], j[1]); // level 0
        let x = b.xor(a0, a1); // level 1 (linear)
        let top = b.and(x, i[2]); // level 2
        b.outputs(&[top, a0]);
        let c = b.build();
        let s = LayerSchedule::of(&c);
        assert_eq!(s.levels(), 3);
        let (lin0, non0) = s.level_split(0);
        assert!(lin0.is_empty());
        assert_eq!(non0, &[0, 1]);
        let (lin1, non1) = s.level_split(1);
        assert_eq!(lin1, &[2]);
        assert!(non1.is_empty());
        // Every gate appears exactly once, dependencies point backwards.
        let mut seen = vec![false; c.gates().len()];
        for l in 0..s.levels() {
            for &gi in s.level_gates(l) {
                assert!(!seen[gi as usize]);
                seen[gi as usize] = true;
                let g = c.gates()[gi as usize];
                assert!(s.wire_level(g.a.index()) <= l as u32);
                assert!(s.wire_level(g.b.index()) <= l as u32);
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn ordinals_recover_netlist_order() {
        let mut b = CircuitBuilder::new("ord");
        let i = b.inputs(Role::Alice, 3);
        let j = b.inputs(Role::Bob, 3);
        let a0 = b.and(i[0], j[0]);
        let x = b.xor(i[1], j[1]); // linear: no ordinal
        let a1 = b.and(x, j[2]);
        let a2 = b.gate(Op::OR, a0, a1);
        b.output(a2);
        let c = b.build();
        let s = LayerSchedule::of(&c);
        assert_eq!(s.non_xor_count(), 3);
        assert_eq!(s.nonlinear_ordinal(0), Some(0));
        assert_eq!(s.nonlinear_ordinal(1), None);
        assert_eq!(s.nonlinear_ordinal(2), Some(1));
        assert_eq!(s.nonlinear_ordinal(3), Some(2));
    }

    #[test]
    fn copy_safety_predicate() {
        let mut b = CircuitBuilder::new("safe");
        let i = b.input(Role::Alice);
        let j = b.input(Role::Bob);
        let a0 = b.and(i, j); // gate 0, level 0 → out level 1
        let a1 = b.and(a0, j); // gate 1, level 1 → out level 2
        b.outputs(&[a1]);
        let c = b.build();
        let s = LayerSchedule::of(&c);
        // Gate 1 (level 1) may copy from inputs (level 0) and from a0's
        // output (level 1), but gate 0 (level 0) cannot copy from
        // either gate output.
        assert!(s.copy_is_level_safe(1, i.index()));
        assert!(s.copy_is_level_safe(1, a0.index()));
        assert!(!s.copy_is_level_safe(0, a0.index()));
        assert!(!s.copy_is_level_safe(0, a1.index()));
    }

    /// Two parallel AND chains; gate 2 (static level 0) aliases the
    /// output of gate 1 (produced at level 2) — the crossing edge that
    /// used to force a whole-cycle fallback. Re-leveling must push gate
    /// 2 to level 2 and its dependent gate 3 to level 3, and leave the
    /// untouched chain at its static levels.
    #[test]
    fn relevel_pushes_crossing_alias_and_dependents() {
        let mut b = CircuitBuilder::new("cross");
        let i = b.inputs(Role::Alice, 2);
        let j = b.inputs(Role::Bob, 2);
        let g0 = b.and(i[0], j[0]); // gate 0, level 0, out level 1
        let g1 = b.and(g0, j[0]); // gate 1, level 1, out level 2
        let g2 = b.and(i[1], j[1]); // gate 2, level 0, out level 1
        let g3 = b.and(g2, j[1]); // gate 3, level 1, out level 2
        b.outputs(&[g1, g3]);
        let c = b.build();
        let s = LayerSchedule::of(&c);
        assert_eq!(s.levels(), 2);

        let mut patch = CyclePatch::new();
        // Cycle decisions: gates 0/1/3 compute both inputs, gate 2's
        // output is aliased to gate 1's output wire (level 2 > 0).
        let g1_out = c.gates()[1].out.index() as u32;
        let deps = move |gi: usize| match gi {
            2 => CycleDep::Copy(g1_out),
            _ => CycleDep::Inputs,
        };
        assert!(s.relevel_cycle(&c, deps, &mut patch));
        assert!(!patch.is_identity());
        assert_eq!(patch.moved_gates(), 2);
        assert_eq!(patch.levels(), 4);
        assert!(!patch.is_moved(0));
        assert!(!patch.is_moved(1));
        assert!(patch.is_moved(2));
        assert!(patch.is_moved(3));
        assert_eq!(patch.moved_at(0), &[] as &[u32]);
        assert_eq!(patch.moved_at(1), &[] as &[u32]);
        assert_eq!(patch.moved_at(2), &[2]);
        assert_eq!(patch.moved_at(3), &[3]);
        assert_eq!(patch.effective_gate_level(&s, 0), 0);
        assert_eq!(patch.effective_gate_level(&s, 1), 1);
        assert_eq!(patch.effective_gate_level(&s, 2), 2);
        assert_eq!(patch.effective_gate_level(&s, 3), 3);
        // Effective wire levels follow the moved producers.
        assert_eq!(patch.effective_wire_level(&s, g2.index()), 3);
        assert_eq!(patch.effective_wire_level(&s, g3.index()), 4);
        assert_eq!(patch.effective_wire_level(&s, g0.index()), 1);
        assert_eq!(patch.effective_wire_level(&s, g1.index()), 2);
        // Every non-absent gate still runs strictly after its
        // effective dependencies.
        for (gi, g) in c.gates().iter().enumerate() {
            let lvl = patch.effective_gate_level(&s, gi);
            let need = match deps(gi) {
                CycleDep::Absent => continue,
                CycleDep::Copy(w) => patch.effective_wire_level(&s, w as usize),
                CycleDep::Inputs => patch
                    .effective_wire_level(&s, g.a.index())
                    .max(patch.effective_wire_level(&s, g.b.index())),
            };
            assert!(lvl >= need, "gate {gi} at {lvl} needs {need}");
        }
    }

    /// Deps that already fit the static levels produce the identity
    /// patch, and a reused buffer recovers after a re-leveled cycle.
    #[test]
    fn relevel_identity_and_buffer_reuse() {
        let mut b = CircuitBuilder::new("reuse");
        let i = b.inputs(Role::Alice, 2);
        let j = b.inputs(Role::Bob, 2);
        let g0 = b.and(i[0], j[0]);
        let _g1 = b.and(g0, j[0]);
        let _g2 = b.and(i[1], j[1]);
        b.outputs(&[_g1, _g2]);
        let c = b.build();
        let s = LayerSchedule::of(&c);

        let mut patch = CyclePatch::new();
        assert!(patch.is_identity());
        assert_eq!(patch.moved_gates(), 0);
        assert!(!patch.is_moved(0));
        assert_eq!(patch.moved_at(0), &[] as &[u32]);

        // Static-fitting deps: no move.
        assert!(!s.relevel_cycle(&c, |_| CycleDep::Inputs, &mut patch));
        assert!(patch.is_identity());
        assert_eq!(patch.levels(), 0);

        // A crossing cycle dirties the buffer...
        let g1_out = c.gates()[1].out.index() as u32;
        assert!(s.relevel_cycle(
            &c,
            move |gi| if gi == 2 {
                CycleDep::Copy(g1_out)
            } else {
                CycleDep::Inputs
            },
            &mut patch
        ));
        assert!(patch.is_moved(2));

        // ...and the next identity cycle fully recovers, whether via
        // relevel or an explicit clear.
        assert!(!s.relevel_cycle(&c, |_| CycleDep::Inputs, &mut patch));
        assert!(patch.is_identity());
        assert!(!patch.is_moved(2));
        patch.clear();
        assert!(patch.is_identity());
    }

    /// Absent gates (public/skipped) neither move nor hold anything
    /// back: an alias into a deep wire moves only live dependents.
    #[test]
    fn relevel_ignores_absent_gates() {
        let mut b = CircuitBuilder::new("absent");
        let i = b.inputs(Role::Alice, 2);
        let j = b.inputs(Role::Bob, 2);
        let g0 = b.and(i[0], j[0]); // gate 0
        let _g1 = b.and(g0, j[0]); // gate 1 (deep src)
        let _g2 = b.and(i[1], j[1]); // gate 2: absent this cycle
        let _g3 = b.and(i[1], j[0]); // gate 3: aliases gate 1's out
        b.outputs(&[_g1, _g2, _g3]);
        let c = b.build();
        let s = LayerSchedule::of(&c);

        let mut patch = CyclePatch::new();
        let g1_out = c.gates()[1].out.index() as u32;
        assert!(s.relevel_cycle(
            &c,
            move |gi| match gi {
                2 => CycleDep::Absent,
                3 => CycleDep::Copy(g1_out),
                _ => CycleDep::Inputs,
            },
            &mut patch
        ));
        assert_eq!(patch.moved_gates(), 1);
        assert!(!patch.is_moved(2));
        assert!(patch.is_moved(3));
        assert_eq!(patch.effective_gate_level(&s, 3), 2);
    }
}
