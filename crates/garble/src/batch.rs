//! Wavefront batching for the engine hot loop.
//!
//! Half-gate labels are hash-derived, so the AES work of a cycle is
//! *chained* wherever one garbled gate feeds another. The wavefront
//! batchers recover the parallelism that is actually there: gates are
//! visited in netlist order, label computations whose inputs are still
//! pending are deferred, and every maximal run of nonlinear gates with
//! ready inputs — one *wavefront* — is hashed through the wide AES core
//! in a single batch ([`HalfGateGarbler::garble_batch`] /
//! [`HalfGateEvaluator::eval_batch`]).
//!
//! Deferral only reorders *when* values are computed, never *what* is
//! computed: every gate sees exactly the labels and tweak it would see
//! in a strictly sequential walk, and tables are emitted/consumed in
//! call order. The protocol transcript is byte-identical either way —
//! the pinned wire/stats tests enforce this.
//!
//! The session loop in `arm2gc-core` drives every cycle through these
//! types, whichever decision policy planned it and however many lanes
//! the session runs: a gate that garbles goes to `garble`/`eval`, a
//! label copy (SkipGate's Pass/Alias, the baseline's BUF/NOT) to
//! `copy`, and a free XOR/XNOR to `xor`. Label positions are flat
//! indices, so several lanes share one batcher over a struct-of-arrays
//! label store: visiting each gate's lanes in turn puts every lane of a
//! ready gate into the same wavefront, and emits tables gate-major,
//! lane-minor.

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
    /// Flushes that did work (= wavefronts formed; an empty flush is
    /// not counted).
    pub batches: u64,
    /// Nonlinear gates that went through batch hashing.
    pub batched_gates: u64,
    /// Largest single batch (wavefront).
    pub largest_batch: usize,
    /// Always 0: no walk re-levels a cycle. Kept only because the
    /// wall-clock benchmark harness reads it.
    pub releveled_cycles: u64,
    /// Lanes of the session these stats came from (0 from a bare
    /// batcher, which knows no lanes).
    pub instances: u64,
}

impl WavefrontStats {
    /// Mean nonlinear gates per formed batch (0.0 when nothing
    /// batched).
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched_gates as f64 / self.batches as f64
        }
    }

    /// The amortization divisor: a session spreads its work over
    /// `instances` lanes (at least 1).
    fn lanes(&self) -> u64 {
        self.instances.max(1)
    }

    /// Nonlinear gates batched per instance — `batched_gates / N` for
    /// an N-lane run (each lane contributes the same gate count as a
    /// sequential run).
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
        self.releveled_cycles += other.releveled_cycles;
        self.instances = self.instances.max(other.instances);
    }
}

/// Garbler-side wavefront scheduler.
///
/// Call [`copy`](GarbleWavefront::copy)/[`xor`](GarbleWavefront::xor)/
/// [`garble`](GarbleWavefront::garble)
/// per gate (and lane) in netlist order, and [`GarbleWavefront::flush`]
/// at the end of every cycle (before reading any output label). `emit`
/// receives each gate's table in call order, exactly as the sequential
/// loop would have pushed them.
#[derive(Clone, Debug)]
pub struct GarbleWavefront {
    frontier: Frontier,
    jobs: Vec<GarbleJob>,
    results: Vec<(Label, GarbledTable)>,
    scratch: BatchScratch,
}

impl GarbleWavefront {
    /// A scheduler over `wire_count` label positions (wires × lanes).
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
    /// A scheduler over `wire_count` label positions (wires × lanes).
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

        // Fresh batchers that never saw a gate report the same.
        assert_eq!(GarbleWavefront::new(4).stats().mean_batch(), 0.0);
        assert_eq!(EvalWavefront::new(4).stats().mean_batch(), 0.0);

        // Absorbing empty stats keeps the invariant.
        let mut merged = WavefrontStats::default();
        merged.absorb(GarbleWavefront::new(4).stats());
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
    }

    /// Per-instance amortized counters divide by the lane count (a lane
    /// count of 0 — a bare batcher's — amortizes over 1), and
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

    /// An `emit` sink appending every table to `tables`.
    fn collect(
        tables: &mut Vec<GarbledTable>,
    ) -> impl FnMut(&GarbledTable) -> Result<(), Infallible> + '_ {
        move |t| {
            tables.push(*t);
            Ok(())
        }
    }

    /// Two instanced lanes with distinct input labels interleaved
    /// through one batcher over a struct-of-arrays store equal two
    /// sequential single-lane runs, each hashed wavefront by wavefront:
    /// per-lane labels match on both sides, and the tables come out
    /// gate-major, lane-minor.
    #[test]
    fn instanced_lanes_match_sequential_layered_runs() {
        let mut prg = Prg::from_seed([79; 16]);
        let delta = Delta::random(&mut prg);
        let g = HalfGateGarbler::new(delta);
        let e = HalfGateEvaluator::new();
        const N: usize = 2;
        const WIRES: usize = 5;
        // Per lane: wires 0..2 inputs, 2 = AND(0,1), 3 = 2 ⊕ 0,
        // 4 = AND(3,1), which waits on the first wavefront.
        let gates = [(0, 1, 2), (2, 0, 3), (3, 1, 4)];
        let inputs: Vec<[Label; 2]> = (0..N)
            .map(|_| [Label::random(&mut prg), Label::random(&mut prg)])
            .collect();

        // Sequential reference: each lane alone, tweaks from 0.
        let mut seq_labels = Vec::new();
        let mut seq_tables = Vec::new();
        for lane in &inputs {
            let mut labels = vec![Label::ZERO; WIRES];
            labels[..2].copy_from_slice(lane);
            let mut tables = Vec::new();
            let mut emit = collect(&mut tables);
            let mut wf = GarbleWavefront::new(WIRES);
            let (a, b, out) = gates[0];
            wf.garble(&g, &mut labels, Op::AND, a, b, out, 0, &mut emit)
                .unwrap();
            let (a, b, out) = gates[1];
            wf.xor(&g, &mut labels, a, b, out, false);
            let (a, b, out) = gates[2];
            wf.garble(&g, &mut labels, Op::AND, a, b, out, 1, &mut emit)
                .unwrap();
            wf.flush(&g, &mut labels, &mut emit).unwrap();
            drop(emit);
            seq_labels.push(labels);
            seq_tables.push(tables);
        }

        // Interleaved: wire `w` of lane `l` at `w * N + l`, each gate's
        // lanes visited in turn.
        let at = |w: usize, lane: usize| w * N + lane;
        let mut soa = vec![Label::ZERO; WIRES * N];
        for (lane, pair) in inputs.iter().enumerate() {
            soa[at(0, lane)] = pair[0];
            soa[at(1, lane)] = pair[1];
        }
        let mut merged = Vec::new();
        let mut emit = collect(&mut merged);
        let mut wf = GarbleWavefront::new(WIRES * N);
        for (k, &(a, b, out)) in gates.iter().enumerate() {
            for lane in 0..N {
                let (a, b, out) = (at(a, lane), at(b, lane), at(out, lane));
                match k {
                    1 => wf.xor(&g, &mut soa, a, b, out, false),
                    _ => wf
                        .garble(&g, &mut soa, Op::AND, a, b, out, k as u64 / 2, &mut emit)
                        .unwrap(),
                }
            }
        }
        wf.flush(&g, &mut soa, &mut emit).unwrap();
        drop(emit);

        for lane in 0..N {
            for w in 0..WIRES {
                assert_eq!(
                    soa[at(w, lane)],
                    seq_labels[lane][w],
                    "lane {lane} wire {w}"
                );
            }
        }
        let gate_major: Vec<GarbledTable> = (0..2)
            .flat_map(|t| seq_tables.iter().map(move |lane| lane[t]))
            .collect();
        assert_eq!(merged, gate_major, "tables gate-major, lane-minor");
        let stats = wf.stats();
        assert_eq!(stats.batches, 2);
        assert_eq!(stats.batched_gates, 2 * N as u64);
        assert_eq!(stats.largest_batch, N, "each wavefront spans both lanes");

        // Evaluator mirror on the zero labels, same interleaving.
        let mut active = vec![Label::ZERO; WIRES * N];
        for lane in 0..N {
            for w in 0..2 {
                active[at(w, lane)] = soa[at(w, lane)];
            }
        }
        let mut ewf = EvalWavefront::new(WIRES * N);
        let mut tables = merged.iter();
        for (k, &(a, b, out)) in gates.iter().enumerate() {
            for lane in 0..N {
                let (a, b, out) = (at(a, lane), at(b, lane), at(out, lane));
                match k {
                    1 => ewf.xor(&mut active, a, b, out),
                    _ => {
                        let t = *tables.next().unwrap();
                        ewf.eval(&e, &mut active, a, b, out, t, k as u64 / 2);
                    }
                }
            }
        }
        ewf.flush(&e, &mut active);
        assert_eq!(active, soa, "zero-label inputs evaluate to the zero labels");
    }

    /// Two interleaved AND chains — netlist order A0, B0(A0), A1,
    /// B1(A1). The wavefront defers A1 into B0's batch, so labels are
    /// computed in the layers {A0} | {B0, A1} | {B1} rather than one
    /// gate at a time, yet every label equals the sequential walk's and
    /// tables are emitted (and consumed) in netlist order.
    #[test]
    fn layered_reorders_computation_but_not_emission() {
        let mut prg = Prg::from_seed([78; 16]);
        let delta = Delta::random(&mut prg);
        let g = HalfGateGarbler::new(delta);
        let e = HalfGateEvaluator::new();

        // Wires 0..6 inputs; 6 = A0, 7 = B0, 8 = A1, 9 = B1.
        let gates = [(0, 1, 6), (6, 2, 7), (3, 4, 8), (8, 5, 9)];
        let mut labels = vec![Label::ZERO; 10];
        for l in labels.iter_mut().take(6) {
            *l = Label::random(&mut prg);
        }
        // Netlist-order reference walk (tweak = netlist position).
        let (seq_labels, seq_tables) = {
            let mut seq = labels.clone();
            let mut tables = Vec::new();
            for (i, &(a, b, out)) in gates.iter().enumerate() {
                let (c0, t) = g.garble(Op::AND, seq[a], seq[b], i as u64);
                seq[out] = c0;
                tables.push(t);
            }
            (seq, tables)
        };

        let mut emitted = Vec::new();
        let mut emit = collect(&mut emitted);
        let mut wf = GarbleWavefront::new(10);
        for (i, &(a, b, out)) in gates.iter().enumerate() {
            wf.garble(&g, &mut labels, Op::AND, a, b, out, i as u64, &mut emit)
                .unwrap();
        }
        wf.flush(&g, &mut labels, &mut emit).unwrap();
        drop(emit);

        assert_eq!(labels, seq_labels, "wavefront labels match sequential");
        assert_eq!(emitted, seq_tables, "tables emitted in netlist order");
        let stats = wf.stats();
        assert_eq!(stats.batches, 3);
        assert_eq!(stats.batched_gates, 4);
        assert_eq!(stats.largest_batch, 2, "B0 and A1 hash together");
        assert!((stats.mean_batch() - 4.0 / 3.0).abs() < f64::EPSILON);

        // Evaluator mirror on the zero labels, tables in netlist order.
        let mut active = seq_labels[..6].to_vec();
        active.resize(10, Label::ZERO);
        let mut ewf = EvalWavefront::new(10);
        for (i, (&(a, b, out), &t)) in gates.iter().zip(&emitted).enumerate() {
            ewf.eval(&e, &mut active, a, b, out, t, i as u64);
        }
        ewf.flush(&e, &mut active);
        assert_eq!(active, seq_labels);
        let stats = ewf.stats();
        assert_eq!(stats.batches, 3);
        assert_eq!(stats.batched_gates, 4);
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
}
