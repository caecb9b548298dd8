//! Wavefront and layer-scheduled batching for the engine hot loops.
//!
//! Half-gate labels are hash-derived, so the AES work of a cycle is
//! *chained* wherever one garbled gate feeds another. These schedulers
//! recover the parallelism that is actually there: gates are visited in
//! netlist order, label computations whose inputs are still pending are
//! deferred, and every maximal run of nonlinear gates with ready inputs
//! — one *wavefront* — is hashed through the wide AES core in a single
//! batch ([`HalfGateGarbler::garble_batch`] /
//! [`HalfGateEvaluator::eval_batch`]).
//!
//! Deferral only reorders *when* values are computed, never *what* is
//! computed: every gate sees exactly the labels and tweak it would see
//! in a strictly sequential walk, and tables are emitted/consumed in
//! gate order. The protocol transcript is byte-identical either way —
//! the pinned wire/stats tests enforce this.
//!
//! The session loop in `arm2gc-core` drives every cycle through these
//! types, whichever decision policy (SkipGate or the baseline) planned
//! it: a gate that garbles goes to `garble`/`eval`, a label copy
//! (SkipGate's Pass/Alias, the baseline's BUF/NOT) to `copy`, and a
//! free XOR/XNOR to `xor`.
//!
//! The wavefront types discover batches *within the netlist-order
//! walk*, which single-lane sessions run; the
//! [`GarbleLayered`]/[`EvalLayered`] drivers instead execute a
//! precomputed [`arm2gc_circuit::LayerSchedule`] level by level across
//! any number of lanes — every level's nonlinear gates hash in one
//! batch regardless of how the netlist interleaves dependency chains —
//! while still emitting tables in exact netlist gate order via per-gate
//! emission slots.

use arm2gc_circuit::Op;
use arm2gc_crypto::Label;

use crate::halfgate::{
    BatchScratch, EvalJob, GarbleJob, GarbledTable, HalfGateEvaluator, HalfGateGarbler,
};

/// A deferred label computation, replayed at flush time in gate order.
#[derive(Clone, Copy, Debug)]
enum Pending {
    /// `out = labels[src] (⊕ Δ if flip)` — a Pass, Alias or BUF/NOT.
    Copy { src: u32, out: u32, flip: bool },
    /// `out = labels[a] ⊕ labels[b] (⊕ Δ if flip)` — a free XOR/XNOR.
    Xor {
        a: u32,
        b: u32,
        out: u32,
        flip: bool,
    },
    /// `out = <next batched gate result>`.
    Gate { out: u32 },
}

/// Dirty-wire bookkeeping and the pending-op queue shared by both
/// party-side schedulers.
#[derive(Clone, Debug)]
struct Frontier {
    /// Wire → "its label is owed by the pending queue".
    dirty: Vec<bool>,
    /// Wires to clean at flush (cheaper than scanning `dirty`).
    touched: Vec<u32>,
    pending: Vec<Pending>,
    /// Running counters for benches/tests.
    batches: u64,
    batched_gates: u64,
    largest_batch: usize,
}

impl Frontier {
    fn new(wire_count: usize) -> Self {
        Self {
            dirty: vec![false; wire_count],
            touched: Vec::new(),
            pending: Vec::new(),
            batches: 0,
            batched_gates: 0,
            largest_batch: 0,
        }
    }

    fn is_dirty2(&self, a: usize, b: usize) -> bool {
        self.dirty[a] || self.dirty[b]
    }

    fn mark(&mut self, out: usize) {
        self.dirty[out] = true;
        self.touched.push(out as u32);
    }

    fn settle(&mut self, jobs: usize) {
        for &w in &self.touched {
            self.dirty[w as usize] = false;
        }
        self.touched.clear();
        self.pending.clear();
        self.batches += 1;
        self.batched_gates += jobs as u64;
        self.largest_batch = self.largest_batch.max(jobs);
    }
}

/// Statistics about how well a run's gates batched (benches, tests).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WavefrontStats {
    /// Flushes that did work (= wavefronts formed, or schedule levels
    /// that held at least one nonlinear gate; an empty flush/level is
    /// not counted).
    pub batches: u64,
    /// Nonlinear gates that went through batch hashing.
    pub batched_gates: u64,
    /// Largest single batch (wavefront or level).
    pub largest_batch: usize,
    /// Topological levels of the schedule driving the run — 0 for
    /// netlist-order wavefront runs, which have no level structure.
    pub levels: u64,
    /// Cycles a layer-scheduled run executed in netlist order instead,
    /// because the SkipGate decision pass aliased a wire across levels
    /// in a way the static schedule could not honour. Always 0 since
    /// per-cycle re-leveling replaced the fallback; kept as a
    /// regression guard (the bench gate fails on any nonzero value).
    pub fallback_cycles: u64,
    /// Cycles a layer-scheduled run patched with a per-cycle re-leveling
    /// because an alias edge crossed static levels, counted per lane.
    /// Always 0 for netlist-order runs.
    pub releveled_cycles: u64,
    /// Total gates pushed off their static level across all re-leveled
    /// cycles.
    pub patched_gates: u64,
    /// Circuit instances batched per cycle by a layer-scheduled run —
    /// 0 for netlist-order wavefront runs, which have no lane structure.
    pub instances: u64,
}

impl WavefrontStats {
    /// Mean nonlinear gates per formed batch (0.0 when nothing
    /// batched) — the per-level occupancy of a layered run.
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched_gates as f64 / self.batches as f64
        }
    }

    /// The amortization divisor: a cross-instance run spreads its work
    /// over `instances` lanes, a single run over 1.
    fn lanes(&self) -> u64 {
        self.instances.max(1)
    }

    /// Nonlinear gates batched per instance — equals `batched_gates`
    /// for single runs, `batched_gates / N` for an N-lane run (each
    /// lane contributes the same gate count as a sequential run).
    pub fn batched_gates_per_instance(&self) -> f64 {
        self.batched_gates as f64 / self.lanes() as f64
    }

    /// [`WavefrontStats::mean_batch`] amortized per instance: the batch
    /// width one instance would have needed on its own to match this
    /// run's AES occupancy. 0.0 (never NaN) when nothing batched.
    pub fn mean_batch_per_instance(&self) -> f64 {
        self.mean_batch() / self.lanes() as f64
    }

    /// Field-wise accumulation, for tallies over several runs or
    /// drivers.
    pub fn absorb(&mut self, other: WavefrontStats) {
        self.batches += other.batches;
        self.batched_gates += other.batched_gates;
        self.largest_batch = self.largest_batch.max(other.largest_batch);
        self.levels = self.levels.max(other.levels);
        self.fallback_cycles += other.fallback_cycles;
        self.releveled_cycles += other.releveled_cycles;
        self.patched_gates += other.patched_gates;
        self.instances = self.instances.max(other.instances);
    }
}

/// Garbler-side wavefront scheduler.
///
/// Call [`copy`](GarbleWavefront::copy)/[`xor`](GarbleWavefront::xor)/
/// [`garble`](GarbleWavefront::garble)
/// per gate in netlist order, and [`GarbleWavefront::flush`] at the end
/// of every cycle (before reading any output label). `emit` receives
/// each gate's table in gate order, exactly as the sequential loop
/// would have pushed them.
#[derive(Clone, Debug)]
pub struct GarbleWavefront {
    frontier: Frontier,
    jobs: Vec<GarbleJob>,
    results: Vec<(Label, GarbledTable)>,
    scratch: BatchScratch,
}

impl GarbleWavefront {
    /// A scheduler for a circuit with `wire_count` wires.
    pub fn new(wire_count: usize) -> Self {
        Self {
            frontier: Frontier::new(wire_count),
            jobs: Vec::new(),
            results: Vec::new(),
            scratch: BatchScratch::default(),
        }
    }

    /// Batching statistics accumulated so far.
    pub fn stats(&self) -> WavefrontStats {
        WavefrontStats {
            batches: self.frontier.batches,
            batched_gates: self.frontier.batched_gates,
            largest_batch: self.frontier.largest_batch,
            ..WavefrontStats::default()
        }
    }

    /// Label copy `out = labels[src] (⊕ Δ if flip)`.
    pub fn copy(
        &mut self,
        g: &HalfGateGarbler,
        labels: &mut [Label],
        src: usize,
        out: usize,
        flip: bool,
    ) {
        if self.frontier.dirty[src] {
            self.frontier.pending.push(Pending::Copy {
                src: src as u32,
                out: out as u32,
                flip,
            });
            self.frontier.mark(out);
        } else {
            labels[out] = labels[src] ^ self.flip_mask(g, flip);
        }
    }

    /// Free XOR `out = labels[a] ⊕ labels[b] (⊕ Δ if flip)`.
    pub fn xor(
        &mut self,
        g: &HalfGateGarbler,
        labels: &mut [Label],
        a: usize,
        b: usize,
        out: usize,
        flip: bool,
    ) {
        if self.frontier.is_dirty2(a, b) {
            self.frontier.pending.push(Pending::Xor {
                a: a as u32,
                b: b as u32,
                out: out as u32,
                flip,
            });
            self.frontier.mark(out);
        } else {
            labels[out] = labels[a] ^ labels[b] ^ self.flip_mask(g, flip);
        }
    }

    /// Nonlinear gate: joins the current wavefront, or — when an input
    /// is still owed by it — flushes first and starts the next one.
    ///
    /// # Errors
    /// Propagates `emit` failures from a triggered flush.
    #[allow(clippy::too_many_arguments)]
    pub fn garble<E>(
        &mut self,
        g: &HalfGateGarbler,
        labels: &mut [Label],
        op: Op,
        a: usize,
        b: usize,
        out: usize,
        tweak: u64,
        emit: &mut impl FnMut(&GarbledTable) -> Result<(), E>,
    ) -> Result<(), E> {
        if self.frontier.is_dirty2(a, b) {
            self.flush(g, labels, emit)?;
        }
        self.jobs.push(GarbleJob {
            op,
            a0: labels[a],
            b0: labels[b],
            tweak,
        });
        self.frontier
            .pending
            .push(Pending::Gate { out: out as u32 });
        self.frontier.mark(out);
        Ok(())
    }

    /// Hashes the queued wavefront in one batch and replays all
    /// deferred label computations in gate order, emitting tables as it
    /// goes. No-op when nothing is pending.
    ///
    /// # Errors
    /// Propagates `emit` failures.
    pub fn flush<E>(
        &mut self,
        g: &HalfGateGarbler,
        labels: &mut [Label],
        emit: &mut impl FnMut(&GarbledTable) -> Result<(), E>,
    ) -> Result<(), E> {
        if self.frontier.pending.is_empty() {
            return Ok(());
        }
        g.garble_batch_with(&self.jobs, &mut self.scratch, &mut self.results);
        let mut next = 0usize;
        for p in &self.frontier.pending {
            match *p {
                Pending::Copy { src, out, flip } => {
                    labels[out as usize] = labels[src as usize] ^ self.flip_mask(g, flip);
                }
                Pending::Xor { a, b, out, flip } => {
                    labels[out as usize] =
                        labels[a as usize] ^ labels[b as usize] ^ self.flip_mask(g, flip);
                }
                Pending::Gate { out } => {
                    let (c0, table) = self.results[next];
                    next += 1;
                    labels[out as usize] = c0;
                    emit(&table)?;
                }
            }
        }
        let jobs = self.jobs.len();
        self.jobs.clear();
        self.frontier.settle(jobs);
        Ok(())
    }

    fn flip_mask(&self, g: &HalfGateGarbler, flip: bool) -> Label {
        if flip {
            g.delta().as_label()
        } else {
            Label::ZERO
        }
    }
}

/// Evaluator-side wavefront scheduler; the mirror of
/// [`GarbleWavefront`]. Tables are handed in at enqueue time (pulled
/// from the stream in gate order) and hashed per wavefront at flush.
/// Unlike the garbler's methods there are no `flip` parameters — the
/// evaluator works on active labels, where Pass/Alias/XOR carry no Δ
/// correction.
#[derive(Clone, Debug)]
pub struct EvalWavefront {
    frontier: Frontier,
    jobs: Vec<EvalJob>,
    results: Vec<Label>,
    scratch: BatchScratch,
}

impl EvalWavefront {
    /// A scheduler for a circuit with `wire_count` wires.
    pub fn new(wire_count: usize) -> Self {
        Self {
            frontier: Frontier::new(wire_count),
            jobs: Vec::new(),
            results: Vec::new(),
            scratch: BatchScratch::default(),
        }
    }

    /// Batching statistics accumulated so far.
    pub fn stats(&self) -> WavefrontStats {
        WavefrontStats {
            batches: self.frontier.batches,
            batched_gates: self.frontier.batched_gates,
            largest_batch: self.frontier.largest_batch,
            ..WavefrontStats::default()
        }
    }

    /// Label copy `out = labels[src]`.
    pub fn copy(&mut self, labels: &mut [Label], src: usize, out: usize) {
        if self.frontier.dirty[src] {
            self.frontier.pending.push(Pending::Copy {
                src: src as u32,
                out: out as u32,
                flip: false,
            });
            self.frontier.mark(out);
        } else {
            labels[out] = labels[src];
        }
    }

    /// Free XOR `out = labels[a] ⊕ labels[b]`.
    pub fn xor(&mut self, labels: &mut [Label], a: usize, b: usize, out: usize) {
        if self.frontier.is_dirty2(a, b) {
            self.frontier.pending.push(Pending::Xor {
                a: a as u32,
                b: b as u32,
                out: out as u32,
                flip: false,
            });
            self.frontier.mark(out);
        } else {
            labels[out] = labels[a] ^ labels[b];
        }
    }

    /// Nonlinear gate with its table (already pulled from the stream,
    /// in gate order): joins the current wavefront, or flushes first
    /// when an input is still owed by it.
    #[allow(clippy::too_many_arguments)]
    pub fn eval(
        &mut self,
        e: &HalfGateEvaluator,
        labels: &mut [Label],
        a: usize,
        b: usize,
        out: usize,
        table: GarbledTable,
        tweak: u64,
    ) {
        if self.frontier.is_dirty2(a, b) {
            self.flush(e, labels);
        }
        self.jobs.push(EvalJob {
            a: labels[a],
            b: labels[b],
            table,
            tweak,
        });
        self.frontier
            .pending
            .push(Pending::Gate { out: out as u32 });
        self.frontier.mark(out);
    }

    /// Hashes the queued wavefront in one batch and replays all
    /// deferred label computations in gate order. No-op when nothing is
    /// pending.
    pub fn flush(&mut self, e: &HalfGateEvaluator, labels: &mut [Label]) {
        if self.frontier.pending.is_empty() {
            return;
        }
        e.eval_batch_with(&self.jobs, &mut self.scratch, &mut self.results);
        let mut next = 0usize;
        for p in &self.frontier.pending {
            match *p {
                Pending::Copy { src, out, .. } => {
                    labels[out as usize] = labels[src as usize];
                }
                Pending::Xor { a, b, out, .. } => {
                    labels[out as usize] = labels[a as usize] ^ labels[b as usize];
                }
                Pending::Gate { out } => {
                    labels[out as usize] = self.results[next];
                    next += 1;
                }
            }
        }
        let jobs = self.jobs.len();
        self.jobs.clear();
        self.frontier.settle(jobs);
    }
}

const ZERO_TABLE: GarbledTable = GarbledTable {
    tg: Label::ZERO,
    te: Label::ZERO,
};

/// Garbler-side layer-scheduled driver over one or more lanes.
///
/// Unlike [`GarbleWavefront`], gates arrive pre-grouped: the engine
/// walks a precomputed `LayerSchedule` and, per level, computes linear
/// labels directly and enqueues nonlinear gates here with
/// [`GarbleLayered::garble`]. [`end_level`](GarbleLayered::end_level)
/// hashes the level in one batch (every input label is final by
/// construction — levels only depend on earlier levels), and
/// [`end_cycle`](GarbleLayered::end_cycle) emits the buffered tables in
/// ascending emission slot, i.e. exact netlist gate order, keeping the
/// wire transcript byte-identical to a sequential walk.
///
/// With N lanes (N independent instances of the same circuit, distinct
/// inputs, shared schedule) labels live in one struct-of-arrays buffer,
/// wire-major: wire `w`'s lanes occupy indices `w*N .. w*N + N`, and
/// the engine passes those flat indices. It enqueues every active lane
/// of every nonlinear gate of a level before
/// [`end_level`](GarbleLayered::end_level), so one batch hash spans
/// `level width × N` jobs. Emission slots are merged across lanes
/// (gate-major, lane-minor), so `end_cycle` interleaves the lanes'
/// tables deterministically.
#[derive(Clone, Debug)]
pub struct GarbleLayered {
    jobs: Vec<GarbleJob>,
    /// `(output wire, emission slot)` per queued job.
    dests: Vec<(u32, u32)>,
    results: Vec<(Label, GarbledTable)>,
    /// Slot-indexed table buffer for the current cycle.
    tables: Vec<GarbledTable>,
    filled: usize,
    scratch: BatchScratch,
    levels: u64,
    instances: u64,
    batches: u64,
    batched_gates: u64,
    largest_batch: usize,
}

impl GarbleLayered {
    /// A driver batching `instances` lanes over a schedule with
    /// `levels` topological levels.
    pub fn new(levels: usize, instances: usize) -> Self {
        Self {
            jobs: Vec::new(),
            dests: Vec::new(),
            results: Vec::new(),
            tables: Vec::new(),
            filled: 0,
            scratch: BatchScratch::default(),
            levels: levels as u64,
            instances: instances as u64,
            batches: 0,
            batched_gates: 0,
            largest_batch: 0,
        }
    }

    /// Batching statistics accumulated so far, carrying the lane count.
    pub fn stats(&self) -> WavefrontStats {
        WavefrontStats {
            batches: self.batches,
            batched_gates: self.batched_gates,
            largest_batch: self.largest_batch,
            levels: self.levels,
            instances: self.instances,
            ..WavefrontStats::default()
        }
    }

    /// Starts a cycle that will garble `expected_tables` gates summed
    /// over every active lane.
    pub fn begin_cycle(&mut self, expected_tables: usize) {
        self.tables.clear();
        self.tables.resize(expected_tables, ZERO_TABLE);
        self.filled = 0;
    }

    /// Enqueues one lane of one nonlinear gate of the current level.
    /// `a`/`b`/`out` are flat label indices; `slot` is its emission
    /// position within the cycle (netlist order of garbled gates,
    /// lanes merged); `tweak` is the lane's own running tweak. Input
    /// labels are read now — the level invariant guarantees they are
    /// final.
    #[allow(clippy::too_many_arguments)]
    pub fn garble(
        &mut self,
        labels: &[Label],
        op: Op,
        a: usize,
        b: usize,
        out: usize,
        tweak: u64,
        slot: usize,
    ) {
        self.jobs.push(GarbleJob {
            op,
            a0: labels[a],
            b0: labels[b],
            tweak,
        });
        self.dests.push((out as u32, slot as u32));
    }

    /// Hashes the level's queued gates in one batch, writing output
    /// labels and parking each table in its emission slot. No-op on
    /// levels without nonlinear work.
    pub fn end_level(&mut self, g: &HalfGateGarbler, labels: &mut [Label]) {
        if self.jobs.is_empty() {
            return;
        }
        g.garble_batch_with(&self.jobs, &mut self.scratch, &mut self.results);
        for (&(out, slot), &(c0, table)) in self.dests.iter().zip(&self.results) {
            labels[out as usize] = c0;
            self.tables[slot as usize] = table;
        }
        self.batches += 1;
        self.batched_gates += self.jobs.len() as u64;
        self.largest_batch = self.largest_batch.max(self.jobs.len());
        self.filled += self.jobs.len();
        self.jobs.clear();
        self.dests.clear();
    }

    /// Emits the cycle's tables in ascending slot order — exactly the
    /// stream a netlist-order walk would have produced.
    ///
    /// # Panics
    /// Panics if the cycle garbled fewer gates than announced via
    /// [`GarbleLayered::begin_cycle`] (an engine-side scheduling bug).
    ///
    /// # Errors
    /// Propagates `emit` failures.
    pub fn end_cycle<E>(
        &mut self,
        emit: &mut impl FnMut(&GarbledTable) -> Result<(), E>,
    ) -> Result<(), E> {
        assert_eq!(
            self.filled,
            self.tables.len(),
            "layered cycle under-filled its emission slots"
        );
        for t in &self.tables {
            emit(t)?;
        }
        self.tables.clear();
        self.filled = 0;
        Ok(())
    }
}

/// Evaluator-side layer-scheduled driver over one or more lanes; the
/// mirror of [`GarbleLayered`]. The engine pulls the cycle's (merged)
/// tables from the stream up front (in netlist order — the byte
/// consumption is unchanged) and hands each lane of each gate its
/// table at enqueue time.
#[derive(Clone, Debug)]
pub struct EvalLayered {
    jobs: Vec<EvalJob>,
    outs: Vec<u32>,
    results: Vec<Label>,
    scratch: BatchScratch,
    levels: u64,
    instances: u64,
    batches: u64,
    batched_gates: u64,
    largest_batch: usize,
}

impl EvalLayered {
    /// A driver batching `instances` lanes over a schedule with
    /// `levels` topological levels.
    pub fn new(levels: usize, instances: usize) -> Self {
        Self {
            jobs: Vec::new(),
            outs: Vec::new(),
            results: Vec::new(),
            scratch: BatchScratch::default(),
            levels: levels as u64,
            instances: instances as u64,
            batches: 0,
            batched_gates: 0,
            largest_batch: 0,
        }
    }

    /// Batching statistics accumulated so far, carrying the lane count.
    pub fn stats(&self) -> WavefrontStats {
        WavefrontStats {
            batches: self.batches,
            batched_gates: self.batched_gates,
            largest_batch: self.largest_batch,
            levels: self.levels,
            instances: self.instances,
            ..WavefrontStats::default()
        }
    }

    /// Enqueues one lane of one garbled gate of the current level with
    /// its table; `a`/`b`/`out` are flat label indices.
    pub fn eval(
        &mut self,
        labels: &[Label],
        a: usize,
        b: usize,
        out: usize,
        table: GarbledTable,
        tweak: u64,
    ) {
        self.jobs.push(EvalJob {
            a: labels[a],
            b: labels[b],
            table,
            tweak,
        });
        self.outs.push(out as u32);
    }

    /// Hashes the level's queued gates in one batch and writes the
    /// output labels. No-op on levels without nonlinear work.
    pub fn end_level(&mut self, e: &HalfGateEvaluator, labels: &mut [Label]) {
        if self.jobs.is_empty() {
            return;
        }
        e.eval_batch_with(&self.jobs, &mut self.scratch, &mut self.results);
        for (&out, &l) in self.outs.iter().zip(&self.results) {
            labels[out as usize] = l;
        }
        self.batches += 1;
        self.batched_gates += self.jobs.len() as u64;
        self.largest_batch = self.largest_batch.max(self.jobs.len());
        self.jobs.clear();
        self.outs.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arm2gc_crypto::{Delta, Prg};
    use std::convert::Infallible;

    /// A run with zero formed batches (e.g. an all-public circuit where
    /// SkipGate eliminates every nonlinear gate) must report a clean
    /// 0.0 occupancy, not NaN or a divide-by-zero garbage value.
    #[test]
    fn mean_batch_of_zero_batches_is_zero() {
        let stats = WavefrontStats::default();
        assert_eq!(stats.batches, 0);
        assert_eq!(stats.mean_batch(), 0.0);
        assert!(!stats.mean_batch().is_nan());

        // Fresh drivers that never saw a gate report the same.
        assert_eq!(GarbleWavefront::new(4).stats().mean_batch(), 0.0);
        assert_eq!(EvalWavefront::new(4).stats().mean_batch(), 0.0);
        assert_eq!(GarbleLayered::new(3, 1).stats().mean_batch(), 0.0);
        assert_eq!(EvalLayered::new(3, 1).stats().mean_batch(), 0.0);

        // Absorbing empty stats keeps the invariant.
        let mut merged = WavefrontStats::default();
        merged.absorb(GarbleLayered::new(3, 1).stats());
        assert_eq!(merged.mean_batch(), 0.0);

        // Per-instance amortization guards the same way: a zero-batch
        // instanced run reports 0.0 everywhere, never NaN — with and
        // without a lane count.
        for instances in [0, 8] {
            let s = WavefrontStats {
                instances,
                ..WavefrontStats::default()
            };
            assert_eq!(s.mean_batch_per_instance(), 0.0);
            assert_eq!(s.batched_gates_per_instance(), 0.0);
            assert!(!s.mean_batch_per_instance().is_nan());
        }
        assert_eq!(GarbleLayered::new(3, 8).stats().mean_batch(), 0.0);
        assert_eq!(EvalLayered::new(3, 8).stats().instances, 8);
    }

    /// Per-instance amortized counters divide by the lane count (a lane
    /// count of 0 — single-run drivers — amortizes over 1), and
    /// `absorb` keeps the max lane count while summing gate counters.
    #[test]
    fn per_instance_amortization_and_absorb() {
        let single = WavefrontStats {
            batches: 10,
            batched_gates: 200,
            ..WavefrontStats::default()
        };
        assert_eq!(single.batched_gates_per_instance(), 200.0);
        assert_eq!(single.mean_batch_per_instance(), 20.0);

        let instanced = WavefrontStats {
            batches: 10,
            batched_gates: 800,
            instances: 4,
            ..WavefrontStats::default()
        };
        // Each of the 4 lanes contributed its sequential 200 gates.
        assert_eq!(instanced.batched_gates_per_instance(), 200.0);
        assert_eq!(instanced.mean_batch(), 80.0);
        assert_eq!(instanced.mean_batch_per_instance(), 20.0);

        let mut merged = WavefrontStats {
            instances: 4,
            ..WavefrontStats::default()
        };
        merged.absorb(instanced);
        merged.absorb(WavefrontStats {
            batches: 2,
            batched_gates: 8,
            ..WavefrontStats::default()
        });
        assert_eq!(merged.instances, 4, "absorb keeps the max lane count");
        assert_eq!(merged.batched_gates, 808);
        assert_eq!(merged.batches, 12);
    }

    /// One instanced cycle over 2 lanes with distinct input labels is
    /// byte-identical to two sequential layered runs: per-lane labels
    /// match, and the merged table stream is gate-major/lane-minor.
    #[test]
    fn instanced_lanes_match_sequential_layered_runs() {
        let mut prg = Prg::from_seed([79; 16]);
        let delta = Delta::random(&mut prg);
        let g = HalfGateGarbler::new(delta);
        const N: usize = 2;

        // Per-lane circuit: wires 0..2 inputs, 2 = AND(0,1), 3 = AND(2,0).
        let lane_inputs: Vec<[Label; 2]> =
            vec![[Label::random(&mut prg), Label::random(&mut prg)]; N]
                .into_iter()
                .enumerate()
                .map(|(i, mut l)| {
                    l[0] ^= Label::from_u128(i as u128);
                    l
                })
                .collect();

        // Sequential reference: each lane on its own layered driver.
        let mut seq_labels = Vec::new();
        let mut seq_tables: Vec<Vec<GarbledTable>> = Vec::new();
        for inputs in &lane_inputs {
            let mut labels = vec![Label::ZERO; 4];
            labels[..2].copy_from_slice(inputs);
            let mut ld = GarbleLayered::new(2, 1);
            ld.begin_cycle(2);
            ld.garble(&labels, Op::AND, 0, 1, 2, 0, 0);
            ld.end_level(&g, &mut labels);
            ld.garble(&labels, Op::AND, 2, 0, 3, 1, 1);
            ld.end_level(&g, &mut labels);
            let mut tables = Vec::new();
            ld.end_cycle(&mut |t: &GarbledTable| -> Result<(), Infallible> {
                tables.push(*t);
                Ok(())
            })
            .unwrap();
            seq_labels.push(labels);
            seq_tables.push(tables);
        }

        // Instanced run: SoA labels (wire-major), merged slots
        // gate-major/lane-minor, per-lane tweaks.
        let mut soa = vec![Label::ZERO; 4 * N];
        for (lane, inputs) in lane_inputs.iter().enumerate() {
            soa[lane] = inputs[0];
            soa[N + lane] = inputs[1];
        }
        let idx = |w: usize, lane: usize| w * N + lane;
        let mut di = GarbleLayered::new(2, N);
        di.begin_cycle(2 * N);
        for lane in 0..N {
            di.garble(
                &soa,
                Op::AND,
                idx(0, lane),
                idx(1, lane),
                idx(2, lane),
                0,
                lane,
            );
        }
        di.end_level(&g, &mut soa);
        for lane in 0..N {
            di.garble(
                &soa,
                Op::AND,
                idx(2, lane),
                idx(0, lane),
                idx(3, lane),
                1,
                N + lane,
            );
        }
        di.end_level(&g, &mut soa);
        let mut merged = Vec::new();
        di.end_cycle(&mut |t: &GarbledTable| -> Result<(), Infallible> {
            merged.push(*t);
            Ok(())
        })
        .unwrap();

        for lane in 0..N {
            for w in 0..4 {
                assert_eq!(
                    soa[idx(w, lane)],
                    seq_labels[lane][w],
                    "lane {lane} wire {w}"
                );
            }
            assert_eq!(merged[lane], seq_tables[lane][0]);
            assert_eq!(merged[N + lane], seq_tables[lane][1]);
        }
        let stats = di.stats();
        assert_eq!(stats.instances, N as u64);
        assert_eq!(stats.batched_gates, 2 * N as u64);
        assert_eq!(stats.largest_batch, N, "each level spans all lanes");
        assert_eq!(stats.batched_gates_per_instance(), 2.0);
    }

    /// A hand-built chained/parallel mix: four independent ANDs (one
    /// wavefront), a XOR over two of their outputs (deferred), then an
    /// AND fed by that XOR (forces a flush + second wavefront).
    #[test]
    fn wavefront_matches_sequential_walk() {
        let mut prg = Prg::from_seed([77; 16]);
        let delta = Delta::random(&mut prg);
        let g = HalfGateGarbler::new(delta);
        let e = HalfGateEvaluator::new();

        // Wires 0..8 inputs, 8..12 AND outs, 12 xor out, 13 final out.
        let mut labels = vec![Label::ZERO; 14];
        for l in labels.iter_mut().take(8) {
            *l = Label::random(&mut prg);
        }
        let seq_labels = {
            let mut seq = labels.clone();
            let mut tweak = 0u64;
            let mut tables = Vec::new();
            for i in 0..4 {
                let (c0, t) = g.garble(Op::AND, seq[2 * i], seq[2 * i + 1], tweak);
                tweak += 1;
                seq[8 + i] = c0;
                tables.push(t);
            }
            seq[12] = seq[8] ^ seq[9];
            let (c0, t) = g.garble(Op::AND, seq[12], seq[10], tweak);
            seq[13] = c0;
            tables.push(t);
            (seq, tables)
        };

        let mut wf = GarbleWavefront::new(14);
        let mut emitted = Vec::new();
        let mut emit = |t: &GarbledTable| -> Result<(), Infallible> {
            emitted.push(*t);
            Ok(())
        };
        let mut tweak = 0u64;
        for i in 0..4 {
            wf.garble(
                &g,
                &mut labels,
                Op::AND,
                2 * i,
                2 * i + 1,
                8 + i,
                tweak,
                &mut emit,
            )
            .unwrap();
            tweak += 1;
        }
        wf.xor(&g, &mut labels, 8, 9, 12, false);
        wf.garble(&g, &mut labels, Op::AND, 12, 10, 13, tweak, &mut emit)
            .unwrap();
        wf.flush(&g, &mut labels, &mut emit).unwrap();

        assert_eq!(labels, seq_labels.0);
        assert_eq!(emitted, seq_labels.1);
        let stats = wf.stats();
        assert_eq!(stats.batched_gates, 5);
        assert_eq!(stats.largest_batch, 4, "first wavefront holds 4 ANDs");

        // Evaluator mirror on the zero inputs.
        let mut active = seq_labels.0[..8].to_vec();
        active.resize(14, Label::ZERO);
        let mut ewf = EvalWavefront::new(14);
        let mut tweak = 0u64;
        for (i, &table) in emitted.iter().take(4).enumerate() {
            ewf.eval(&e, &mut active, 2 * i, 2 * i + 1, 8 + i, table, tweak);
            tweak += 1;
        }
        ewf.xor(&mut active, 8, 9, 12);
        ewf.eval(&e, &mut active, 12, 10, 13, emitted[4], tweak);
        ewf.flush(&e, &mut active);
        // Zero-label inputs evaluate to the zero labels everywhere.
        assert_eq!(active, seq_labels.0);
    }

    /// Two interleaved AND chains — netlist order A0, B0(A0), A1,
    /// B1(A1) — so level order (A0 A1 | B0 B1) differs from netlist
    /// order. The layered driver must still compute the sequential
    /// labels and emit tables in netlist order, via the emission slots.
    #[test]
    fn layered_reorders_computation_but_not_emission() {
        let mut prg = Prg::from_seed([78; 16]);
        let delta = Delta::random(&mut prg);
        let g = HalfGateGarbler::new(delta);
        let e = HalfGateEvaluator::new();

        // Wires 0..6 inputs; 6 = A0, 7 = B0, 8 = A1, 9 = B1.
        let mut labels = vec![Label::ZERO; 10];
        for l in labels.iter_mut().take(6) {
            *l = Label::random(&mut prg);
        }
        // Netlist-order reference walk (tweak = netlist position).
        let (seq_labels, seq_tables) = {
            let mut seq = labels.clone();
            let mut tables = Vec::new();
            let gates = [(0, 1, 6), (6, 2, 7), (3, 4, 8), (8, 5, 9)];
            for (i, &(a, b, out)) in gates.iter().enumerate() {
                let (c0, t) = g.garble(Op::AND, seq[a], seq[b], i as u64);
                seq[out] = c0;
                tables.push(t);
            }
            (seq, tables)
        };

        // Layered walk: level 0 = {A0 slot 0, A1 slot 2},
        // level 1 = {B0 slot 1, B1 slot 3}.
        let mut ld = GarbleLayered::new(2, 1);
        ld.begin_cycle(4);
        ld.garble(&labels, Op::AND, 0, 1, 6, 0, 0);
        ld.garble(&labels, Op::AND, 3, 4, 8, 2, 2);
        ld.end_level(&g, &mut labels);
        ld.garble(&labels, Op::AND, 6, 2, 7, 1, 1);
        ld.garble(&labels, Op::AND, 8, 5, 9, 3, 3);
        ld.end_level(&g, &mut labels);
        let mut emitted = Vec::new();
        ld.end_cycle(&mut |t: &GarbledTable| -> Result<(), Infallible> {
            emitted.push(*t);
            Ok(())
        })
        .unwrap();

        assert_eq!(labels, seq_labels, "layered labels match sequential");
        assert_eq!(emitted, seq_tables, "tables emitted in netlist order");
        let stats = ld.stats();
        assert_eq!(stats.batches, 2);
        assert_eq!(stats.batched_gates, 4);
        assert_eq!(stats.largest_batch, 2);
        assert_eq!(stats.levels, 2);
        assert!((stats.mean_batch() - 2.0).abs() < f64::EPSILON);

        // Evaluator mirror on the zero labels, same level order.
        let mut active = seq_labels[..6].to_vec();
        active.resize(10, Label::ZERO);
        let mut le = EvalLayered::new(2, 1);
        le.eval(&active, 0, 1, 6, emitted[0], 0);
        le.eval(&active, 3, 4, 8, emitted[2], 2);
        le.end_level(&e, &mut active);
        le.eval(&active, 6, 2, 7, emitted[1], 1);
        le.eval(&active, 8, 5, 9, emitted[3], 3);
        le.end_level(&e, &mut active);
        assert_eq!(active, seq_labels);
        assert_eq!(le.stats().batched_gates, 4);
    }
}
