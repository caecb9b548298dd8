//! Half-gate garbling (Zahur–Rosulek–Evans, "Two Halves Make a Whole").
//!
//! Any nonlinear 2-input gate factors as `((a⊕α) ∧ (b⊕β)) ⊕ γ`
//! ([`Op::and_form`]); the garbler absorbs α/β/γ into its label
//! bookkeeping, so the evaluator runs one op-independent formula and each
//! nonlinear gate costs exactly two ciphertexts (32 bytes).

use arm2gc_circuit::Op;
use arm2gc_crypto::{Delta, GarbleHash, HashScratch, Label};

/// A nonlinear gate queued for batch garbling.
#[derive(Clone, Copy, Debug)]
pub struct GarbleJob {
    /// Gate operation (must be nonlinear).
    pub op: Op,
    /// Zero-label of input `a`.
    pub a0: Label,
    /// Zero-label of input `b`.
    pub b0: Label,
    /// The gate's unique tweak.
    pub tweak: u64,
}

/// A nonlinear gate queued for batch evaluation.
#[derive(Clone, Copy, Debug)]
pub struct EvalJob {
    /// Active label of input `a`.
    pub a: Label,
    /// Active label of input `b`.
    pub b: Label,
    /// The gate's two-ciphertext table.
    pub table: GarbledTable,
    /// The gate's unique tweak.
    pub tweak: u64,
}

/// Reusable buffers for the batch garble/eval entry points.
#[derive(Clone, Debug, Default)]
pub struct BatchScratch {
    inputs: Vec<(Label, u64)>,
    hashes: Vec<Label>,
    hash: HashScratch,
}

/// The two ciphertexts of one garbled nonlinear gate.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct GarbledTable {
    /// Generator-half ciphertext.
    pub tg: Label,
    /// Evaluator-half ciphertext.
    pub te: Label,
}

impl GarbledTable {
    /// Size on the wire in bytes.
    pub const BYTES: usize = 32;

    /// Serialises the two ciphertexts.
    pub fn to_bytes(self) -> [u8; 32] {
        let mut out = [0u8; 32];
        out[..16].copy_from_slice(&self.tg.to_bytes());
        out[16..].copy_from_slice(&self.te.to_bytes());
        out
    }

    /// Deserialises two ciphertexts.
    pub fn from_bytes(b: &[u8]) -> Self {
        Self {
            tg: Label::from_bytes(b[..16].try_into().expect("16 bytes")),
            te: Label::from_bytes(b[16..32].try_into().expect("16 bytes")),
        }
    }
}

/// Garbler-side half-gate context.
#[derive(Clone, Debug)]
pub struct HalfGateGarbler {
    delta: Delta,
    hash: GarbleHash,
}

impl HalfGateGarbler {
    /// Creates a garbler with the global free-XOR offset `delta`.
    pub fn new(delta: Delta) -> Self {
        Self {
            delta,
            hash: GarbleHash::fixed(),
        }
    }

    /// The global offset.
    pub fn delta(&self) -> Delta {
        self.delta
    }

    /// The four hash inputs of one gate: `(a0', j0), (a1', j0),
    /// (b0', j1), (b1', j1)` where `x' = x ⊕ α/β·Δ` (the and-form
    /// zero-point swap).
    fn hash_points(&self, job: &GarbleJob) -> [(Label, u64); 4] {
        let (alpha, beta, _) = job.op.and_form();
        let d = self.delta.as_label();
        // Work with the labels of a' = a⊕α and b' = b⊕β: same label set,
        // swapped zero point.
        let a0p = if alpha { job.a0 ^ d } else { job.a0 };
        let b0p = if beta { job.b0 ^ d } else { job.b0 };
        let (j0, j1) = (
            job.tweak.wrapping_mul(2),
            job.tweak.wrapping_mul(2).wrapping_add(1),
        );
        [(a0p, j0), (a0p ^ d, j0), (b0p, j1), (b0p ^ d, j1)]
    }

    /// Combines one gate's four hashes into its output zero-label and
    /// table — the shared tail of the scalar and batch paths.
    fn combine(&self, job: &GarbleJob, h: [Label; 4]) -> (Label, GarbledTable) {
        let (alpha, beta, gamma) = job.op.and_form();
        let d = self.delta.as_label();
        let a0p = if alpha { job.a0 ^ d } else { job.a0 };
        let b0p = if beta { job.b0 ^ d } else { job.b0 };
        let pa = a0p.colour();
        let pb = b0p.colour();
        let [ha0, ha1, hb0, hb1] = h;

        // Generator half.
        let mut tg = ha0 ^ ha1;
        if pb {
            tg ^= d;
        }
        let mut wg = ha0;
        if pa {
            wg ^= tg;
        }

        // Evaluator half.
        let te = hb0 ^ hb1 ^ a0p;
        let mut we = hb0;
        if pb {
            we ^= te ^ a0p;
        }

        let mut c0 = wg ^ we;
        if gamma {
            c0 ^= d;
        }
        (c0, GarbledTable { tg, te })
    }

    /// Garbles a nonlinear `op` gate with input zero-labels `a0`, `b0`.
    /// Returns the output zero-label and the two-ciphertext table. `tweak`
    /// must be unique per garbled gate (two consecutive values are used).
    ///
    /// # Panics
    /// Panics if `op` is linear.
    pub fn garble(&self, op: Op, a0: Label, b0: Label, tweak: u64) -> (Label, GarbledTable) {
        let job = GarbleJob { op, a0, b0, tweak };
        let points = self.hash_points(&job);
        let h = points.map(|(l, t)| self.hash.hash(l, t));
        self.combine(&job, h)
    }

    /// Garbles a batch of *independent* nonlinear gates, hashing all of
    /// them through the wide AES pipeline together. Byte-identical to
    /// calling [`HalfGateGarbler::garble`] on each job in order.
    pub fn garble_batch(&self, jobs: &[GarbleJob]) -> Vec<(Label, GarbledTable)> {
        let mut out = Vec::new();
        self.garble_batch_with(jobs, &mut BatchScratch::default(), &mut out);
        out
    }

    /// Allocation-free [`HalfGateGarbler::garble_batch`]: clears and
    /// fills `out`, reusing `scratch` across calls.
    pub fn garble_batch_with(
        &self,
        jobs: &[GarbleJob],
        scratch: &mut BatchScratch,
        out: &mut Vec<(Label, GarbledTable)>,
    ) {
        out.clear();
        if let [job] = jobs {
            // Tiny wavefront: skip the batch buffers.
            out.push(self.garble(job.op, job.a0, job.b0, job.tweak));
            return;
        }
        scratch.inputs.clear();
        for job in jobs {
            scratch.inputs.extend(self.hash_points(job));
        }
        self.hash
            .hash_batch_with(&scratch.inputs, &mut scratch.hash, &mut scratch.hashes);
        for (job, h) in jobs.iter().zip(scratch.hashes.chunks_exact(4)) {
            out.push(self.combine(job, [h[0], h[1], h[2], h[3]]));
        }
    }
}

/// Evaluator-side half-gate context.
#[derive(Clone, Debug)]
pub struct HalfGateEvaluator {
    hash: GarbleHash,
}

impl Default for HalfGateEvaluator {
    fn default() -> Self {
        Self::new()
    }
}

impl HalfGateEvaluator {
    /// Creates an evaluator (fixed-key hash, no secrets).
    pub fn new() -> Self {
        Self {
            hash: GarbleHash::fixed(),
        }
    }

    /// Combines one gate's two hashes with its table — the shared tail
    /// of the scalar and batch paths.
    fn combine(job: &EvalJob, ha: Label, hb: Label) -> Label {
        let mut wg = ha;
        if job.a.colour() {
            wg ^= job.table.tg;
        }
        let mut we = hb;
        if job.b.colour() {
            we ^= job.table.te ^ job.a;
        }
        wg ^ we
    }

    /// Evaluates a garbled nonlinear gate on active labels `a`, `b`.
    /// The formula is independent of the gate's truth table — the garbler
    /// encoded it in the labels.
    pub fn eval(&self, a: Label, b: Label, table: &GarbledTable, tweak: u64) -> Label {
        let (j0, j1) = (tweak.wrapping_mul(2), tweak.wrapping_mul(2).wrapping_add(1));
        let ha = self.hash.hash(a, j0);
        let hb = self.hash.hash(b, j1);
        Self::combine(
            &EvalJob {
                a,
                b,
                table: *table,
                tweak,
            },
            ha,
            hb,
        )
    }

    /// Evaluates a batch of *independent* garbled gates, hashing all of
    /// them through the wide AES pipeline together. Byte-identical to
    /// calling [`HalfGateEvaluator::eval`] on each job in order.
    pub fn eval_batch(&self, jobs: &[EvalJob]) -> Vec<Label> {
        let mut out = Vec::new();
        self.eval_batch_with(jobs, &mut BatchScratch::default(), &mut out);
        out
    }

    /// Allocation-free [`HalfGateEvaluator::eval_batch`]: clears and
    /// fills `out`, reusing `scratch` across calls.
    pub fn eval_batch_with(
        &self,
        jobs: &[EvalJob],
        scratch: &mut BatchScratch,
        out: &mut Vec<Label>,
    ) {
        out.clear();
        if let [job] = jobs {
            out.push(self.eval(job.a, job.b, &job.table, job.tweak));
            return;
        }
        scratch.inputs.clear();
        for job in jobs {
            let (j0, j1) = (
                job.tweak.wrapping_mul(2),
                job.tweak.wrapping_mul(2).wrapping_add(1),
            );
            scratch.inputs.push((job.a, j0));
            scratch.inputs.push((job.b, j1));
        }
        self.hash
            .hash_batch_with(&scratch.inputs, &mut scratch.hash, &mut scratch.hashes);
        for (job, h) in jobs.iter().zip(scratch.hashes.chunks_exact(2)) {
            out.push(Self::combine(job, h[0], h[1]));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arm2gc_crypto::Prg;

    /// Exhaustive correctness: every nonlinear op × every input combo.
    #[test]
    fn all_nonlinear_ops_all_inputs() {
        let mut prg = Prg::from_seed([13; 16]);
        let delta = Delta::random(&mut prg);
        let g = HalfGateGarbler::new(delta);
        let e = HalfGateEvaluator::new();
        let d = delta.as_label();

        for tt in 0u8..16 {
            let op = Op::from_table(tt);
            if op.is_linear() {
                continue;
            }
            let a0 = Label::random(&mut prg);
            let b0 = Label::random(&mut prg);
            let (c0, table) = g.garble(op, a0, b0, tt as u64);
            for a in [false, true] {
                for b in [false, true] {
                    let la = if a { a0 ^ d } else { a0 };
                    let lb = if b { b0 ^ d } else { b0 };
                    let got = e.eval(la, lb, &table, tt as u64);
                    let want = if op.eval(a, b) { c0 ^ d } else { c0 };
                    assert_eq!(got, want, "op={op} a={a} b={b}");
                }
            }
        }
    }

    #[test]
    fn tweak_uniqueness_matters() {
        // Same gate garbled under two tweaks yields different tables.
        let mut prg = Prg::from_seed([14; 16]);
        let delta = Delta::random(&mut prg);
        let g = HalfGateGarbler::new(delta);
        let a0 = Label::random(&mut prg);
        let b0 = Label::random(&mut prg);
        let (_, t1) = g.garble(Op::AND, a0, b0, 1);
        let (_, t2) = g.garble(Op::AND, a0, b0, 2);
        assert_ne!(t1, t2);
    }

    /// Batch garbling/evaluation is byte-identical to the scalar calls,
    /// for every nonlinear op and a spread of batch sizes.
    #[test]
    fn batch_matches_scalar() {
        let mut prg = Prg::from_seed([16; 16]);
        let delta = Delta::random(&mut prg);
        let g = HalfGateGarbler::new(delta);
        let e = HalfGateEvaluator::new();
        let d = delta.as_label();

        let nonlinear: Vec<Op> = (0u8..16)
            .map(Op::from_table)
            .filter(|op| !op.is_linear())
            .collect();
        for n in [1usize, 2, 5, 8, 17] {
            let jobs: Vec<GarbleJob> = (0..n)
                .map(|i| GarbleJob {
                    op: nonlinear[i % nonlinear.len()],
                    a0: Label::random(&mut prg),
                    b0: Label::random(&mut prg),
                    tweak: 1000 + i as u64,
                })
                .collect();
            let batch = g.garble_batch(&jobs);
            let scalar: Vec<_> = jobs
                .iter()
                .map(|j| g.garble(j.op, j.a0, j.b0, j.tweak))
                .collect();
            assert_eq!(batch, scalar, "garble n={n}");

            // Evaluate each gate on a random input combination.
            let eval_jobs: Vec<EvalJob> = jobs
                .iter()
                .zip(&batch)
                .enumerate()
                .map(|(i, (j, (_, table)))| EvalJob {
                    a: if i % 2 == 0 { j.a0 } else { j.a0 ^ d },
                    b: if i % 3 == 0 { j.b0 } else { j.b0 ^ d },
                    table: *table,
                    tweak: j.tweak,
                })
                .collect();
            let got = e.eval_batch(&eval_jobs);
            let want: Vec<Label> = eval_jobs
                .iter()
                .map(|j| e.eval(j.a, j.b, &j.table, j.tweak))
                .collect();
            assert_eq!(got, want, "eval n={n}");
        }
    }

    #[test]
    fn table_roundtrip() {
        let mut prg = Prg::from_seed([15; 16]);
        let t = GarbledTable {
            tg: Label::random(&mut prg),
            te: Label::random(&mut prg),
        };
        assert_eq!(GarbledTable::from_bytes(&t.to_bytes()), t);
    }
}
