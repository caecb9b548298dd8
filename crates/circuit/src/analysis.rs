//! Circuit statistics: the paper's cost metric (non-XOR gate counts) and
//! structural summaries used by the table harness.

use core::fmt;
use std::collections::BTreeMap;

use crate::ir::{Circuit, Role};
use crate::schedule::LayerSchedule;

/// Structural summary of a [`Circuit`].
#[derive(Clone, Debug)]
pub struct CircuitStats {
    /// Circuit name.
    pub name: String,
    /// Total wires.
    pub wires: usize,
    /// Total combinational gates.
    pub gates: usize,
    /// Nonlinear (garbled) gates per cycle.
    pub non_xor: u64,
    /// Linear (free) gates per cycle.
    pub xor: u64,
    /// Flip-flop count.
    pub dffs: usize,
    /// Gate count per mnemonic.
    pub by_op: BTreeMap<&'static str, usize>,
    /// Primary input count per role: (Alice, Bob, Public).
    pub inputs: (usize, usize, usize),
    /// Output wire count.
    pub outputs: usize,
    /// ASAP topological depth (levels per cycle).
    pub levels: usize,
    /// Widest topological level, in nonlinear gates — the most hashes
    /// that could run side by side in one cycle.
    pub widest_nonlinear_level: usize,
}

impl CircuitStats {
    /// Computes statistics for `c`.
    pub fn of(c: &Circuit) -> Self {
        let mut by_op = BTreeMap::new();
        for g in c.gates() {
            *by_op.entry(g.op.name()).or_insert(0) += 1;
        }
        let sched = LayerSchedule::of(c);
        Self {
            name: c.name().to_string(),
            wires: c.wire_count(),
            gates: c.gates().len(),
            non_xor: c.non_xor_count(),
            xor: c.xor_count(),
            dffs: c.dffs().len(),
            by_op,
            inputs: (
                c.inputs_of(Role::Alice).len(),
                c.inputs_of(Role::Bob).len(),
                c.inputs_of(Role::Public).len(),
            ),
            outputs: c.outputs().len(),
            levels: sched.levels(),
            widest_nonlinear_level: sched.max_nonlinear_width() as usize,
        }
    }
}

impl fmt::Display for CircuitStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}: {} wires, {} gates ({} non-XOR, {} free), {} DFFs, \
             {} levels (widest non-XOR level {})",
            self.name,
            self.wires,
            self.gates,
            self.non_xor,
            self.xor,
            self.dffs,
            self.levels,
            self.widest_nonlinear_level
        )?;
        write!(f, "  ops:")?;
        for (op, n) in &self.by_op {
            write!(f, " {op}={n}")?;
        }
        Ok(())
    }
}

/// Static fanout of every wire: how many gate inputs plus circuit outputs
/// plus flip-flop data inputs consume it. This is the `label_fanout`
/// initialisation value of the SkipGate algorithm (§3.2).
pub fn wire_fanouts(c: &Circuit) -> Vec<u32> {
    let mut fan = vec![0u32; c.wire_count()];
    for g in c.gates() {
        fan[g.a.index()] += 1;
        fan[g.b.index()] += 1;
    }
    for d in c.dffs() {
        fan[d.d.index()] += 1;
    }
    for w in c.outputs() {
        fan[w.index()] += 1;
    }
    fan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CircuitBuilder, Role};

    #[test]
    fn stats_counts() {
        let mut b = CircuitBuilder::new("t");
        let x = b.inputs(Role::Alice, 4);
        let y = b.inputs(Role::Bob, 4);
        let (s, _) = b.add(&x, &y);
        b.outputs(&s);
        let c = b.build();
        let st = CircuitStats::of(&c);
        assert_eq!(st.non_xor, 4);
        assert_eq!(st.inputs, (4, 4, 0));
        assert_eq!(st.outputs, 4);
        assert!(st.levels >= 1, "a gate-bearing circuit has levels");
        assert!(st.widest_nonlinear_level >= 1);
        assert!(st.to_string().contains("non-XOR"));
        assert!(st.to_string().contains("levels"));
    }

    #[test]
    fn fanout_upper_bound_from_paper() {
        // §3.4: F = Σ fanout ≤ 2n - m + q.
        let mut b = CircuitBuilder::new("t");
        let x = b.inputs(Role::Alice, 8);
        let y = b.inputs(Role::Bob, 8);
        let (s, _) = b.add(&x, &y);
        b.outputs(&s);
        let c = b.build();
        let total: u32 = wire_fanouts(&c).iter().sum();
        let n = c.gates().len() as u32;
        let m = c.inputs().len() as u32 + c.consts().len() as u32;
        let q = c.outputs().len() as u32;
        assert!(total <= 2 * n + q, "total={total} n={n} m={m} q={q}");
    }
}
