//! Topological layer schedules: a static analysis of a circuit's
//! parallelism.
//!
//! A [`LayerSchedule`] levels the circuit once — ASAP (as-soon-as-
//! possible) topological levels — and reports its shape: the level
//! count (the circuit's depth) and the widest level in nonlinear gates
//! (the most hashes that could ever run side by side). The circuit
//! analysis and the benchmark probes read these numbers; the session
//! loop does not execute the schedule. It walks each cycle in netlist
//! order instead, where wires stay local, and lets the wavefront
//! batchers in `arm2gc-garble` find the parallelism on the fly.

use crate::ir::Circuit;

/// The ASAP topological level schedule of one [`Circuit`].
///
/// Level `L` contains exactly the gates whose inputs are all produced
/// by levels `< L` (primary inputs, constants and flip-flop outputs are
/// level-0 sources), so all gates within one level are mutually
/// independent. Within a level, gates are stored linear-first (then
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
    /// Nonlinear gates per cycle.
    non_xor: u32,
    /// Widest level, in gates.
    max_width: u32,
    /// Widest level, in nonlinear gates.
    max_nonlinear_width: u32,
}

impl LayerSchedule {
    /// Levels `circuit` (one linear pass over the netlist).
    pub fn of(circuit: &Circuit) -> Self {
        let gates = circuit.gates();
        let mut wire_level = vec![0u32; circuit.wire_count()];
        let mut gate_level = vec![0u32; gates.len()];
        let mut non_xor = 0u32;
        let mut levels = 0u32;
        // Netlist order is topological, so one forward pass settles
        // every level.
        for (gi, g) in gates.iter().enumerate() {
            let l = wire_level[g.a.index()].max(wire_level[g.b.index()]);
            gate_level[gi] = l;
            wire_level[g.out.index()] = l + 1;
            levels = levels.max(l + 1);
            non_xor += u32::from(!g.op.is_linear());
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

    /// Nonlinear gates per cycle.
    pub fn non_xor_count(&self) -> u32 {
        self.non_xor
    }

    /// Widest level in gates.
    pub fn max_width(&self) -> u32 {
        self.max_width
    }

    /// Widest level in nonlinear gates: the most hashes that could run
    /// side by side in one cycle of this circuit.
    pub fn max_nonlinear_width(&self) -> u32 {
        self.max_nonlinear_width
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CircuitBuilder, Role};

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
}
