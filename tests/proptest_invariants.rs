//! Property-based tests (proptest) on the workspace's core invariants.
//!
//! Two tiers:
//!
//! * **fast** (default) — every property below runs a bounded number of
//!   cases (256, overridable with the `PROPTEST_CASES` environment
//!   variable) so `cargo test -q` stays interactive;
//! * **slow** — the `#[ignore]`d deep-fuzz properties at the bottom run
//!   far more and larger cases: `cargo test -- --ignored`, optionally
//!   with `PROPTEST_CASES=<n>` to push further.

use proptest::prelude::*;

use arm2gc::circuit::random::{random_circuit, random_inputs, RandomCircuitParams, TestRng};
use arm2gc::circuit::sim::{PartyData, Simulator};
use arm2gc::circuit::words::{bits_to_words, words_to_bits};
use arm2gc::circuit::{Circuit, CircuitBuilder, Op, OutputMode, Role};
use arm2gc::core::{run_two_party_opts, SessionOptions, SkipGateOutcome};
use arm2gc::crypto::{Aes128, Delta, GarbleHash, Label, Prg};
use arm2gc::garble::{HalfGateEvaluator, HalfGateGarbler};

/// `PROPTEST_CASES` (via `ProptestConfig::default`) wins over the tier's
/// bounded default, with both the real proptest and the offline shim.
fn cases_or(default_cases: u32) -> ProptestConfig {
    if std::env::var_os("PROPTEST_CASES").is_some() {
        ProptestConfig::default()
    } else {
        ProptestConfig::with_cases(default_cases)
    }
}

/// One single-lane in-process session under `opts`; returns each
/// party's outcome.
fn two_party_with(
    c: &Circuit,
    alice: &PartyData,
    bob: &PartyData,
    public: &PartyData,
    cycles: usize,
    opts: &SessionOptions,
) -> (SkipGateOutcome, SkipGateOutcome) {
    let lane = |p: &PartyData| [p.clone()];
    let (a, b) = run_two_party_opts(c, &lane(alice), &lane(bob), &lane(public), cycles, opts);
    (a.lanes[0].clone(), b.lanes[0].clone())
}

/// [`two_party_with`] under the default options.
fn two_party(
    c: &Circuit,
    alice: &PartyData,
    bob: &PartyData,
    public: &PartyData,
    cycles: usize,
) -> (SkipGateOutcome, SkipGateOutcome) {
    two_party_with(c, alice, bob, public, cycles, &SessionOptions::new())
}

proptest! {
    #![proptest_config(cases_or(256))]

    /// AES is a permutation: distinct plaintexts encrypt distinctly.
    #[test]
    fn aes_injective(key: [u8; 16], a: u128, b: u128) {
        prop_assume!(a != b);
        let aes = Aes128::new(key);
        prop_assert_ne!(aes.encrypt_u128(a), aes.encrypt_u128(b));
    }

    /// The garbling hash never collides across tweaks on the same label
    /// (within the tested domain) and is deterministic.
    #[test]
    fn garble_hash_tweak_separation(l: u128, t1 in 0u64..1000, t2 in 0u64..1000) {
        let h = GarbleHash::fixed();
        let label = Label::from_u128(l);
        if t1 == t2 {
            prop_assert_eq!(h.hash(label, t1), h.hash(label, t2));
        } else {
            prop_assert_ne!(h.hash(label, t1), h.hash(label, t2));
        }
    }

    /// Half-gate garble/eval correctness over random labels, all
    /// nonlinear ops, all input values.
    #[test]
    fn halfgate_correct(seed: [u8; 16], tt in 0u8..16, va: bool, vb: bool, tweak: u64) {
        let op = Op::from_table(tt);
        prop_assume!(!op.is_linear());
        let mut prg = Prg::from_seed(seed);
        let delta = Delta::random(&mut prg);
        let g = HalfGateGarbler::new(delta);
        let e = HalfGateEvaluator::new();
        let a0 = Label::random(&mut prg);
        let b0 = Label::random(&mut prg);
        let (c0, table) = g.garble(op, a0, b0, tweak);
        let d = delta.as_label();
        let la = if va { a0 ^ d } else { a0 };
        let lb = if vb { b0 ^ d } else { b0 };
        let got = e.eval(la, lb, &table, tweak);
        let want = if op.eval(va, vb) { c0 ^ d } else { c0 };
        prop_assert_eq!(got, want);
    }

    /// Word/bit conversion roundtrips.
    #[test]
    fn words_bits_roundtrip(ws in proptest::collection::vec(any::<u32>(), 0..20)) {
        prop_assert_eq!(bits_to_words(&words_to_bits(&ws)), ws);
    }

    /// SkipGate equals the cleartext simulator on random sequential
    /// circuits with random public/private inputs — the paper's
    /// correctness theorem (§3.5), tested adversarially.
    #[test]
    fn skipgate_matches_simulator(seed in 1u64..5000, cycles in 1usize..5) {
        let mut rng = TestRng::new(seed);
        let params = RandomCircuitParams {
            inputs: (2, 2, 2),
            dffs: 3,
            gates: 30,
            outputs: 4,
            output_mode: if seed % 2 == 0 { OutputMode::PerCycle } else { OutputMode::FinalOnly },
        };
        let c = random_circuit(&mut rng, params);
        let (a, b, p) = random_inputs(&mut rng, &c, cycles);
        let sim = Simulator::new(&c).run(&a, &b, &p, cycles);
        let (alice_out, bob_out) = two_party(&c, &a, &b, &p, cycles);
        prop_assert_eq!(&alice_out.outputs, &sim.outputs);
        prop_assert_eq!(&bob_out.outputs, &sim.outputs);
        // Cost sanity: never exceeds the static bound.
        let bound = c.non_xor_count() * cycles as u64;
        prop_assert!(alice_out.stats.garbled_tables <= bound);
    }

    /// Sharded evaluation is transport-only: on random sequential
    /// circuits, splitting the table stream across 2–4 sub-channels
    /// decodes the same outputs with identical cost stats as the
    /// unsharded run (and both match the cleartext simulator).
    #[test]
    fn sharded_run_matches_unsharded(seed in 1u64..5000, cycles in 1usize..5, shards in 2usize..5) {
        let mut rng = TestRng::new(seed);
        let params = RandomCircuitParams {
            inputs: (2, 2, 2),
            dffs: 3,
            gates: 30,
            outputs: 4,
            output_mode: if seed % 2 == 0 { OutputMode::PerCycle } else { OutputMode::FinalOnly },
        };
        let c = random_circuit(&mut rng, params);
        let (a, b, p) = random_inputs(&mut rng, &c, cycles);
        let sim = Simulator::new(&c).run(&a, &b, &p, cycles);
        let (alice1, bob1) = two_party(&c, &a, &b, &p, cycles);
        let opts = SessionOptions::new().shards(shards);
        let (alice_n, bob_n) = two_party_with(&c, &a, &b, &p, cycles, &opts);
        prop_assert_eq!(&alice_n.outputs, &sim.outputs);
        prop_assert_eq!(&bob_n.outputs, &sim.outputs);
        prop_assert_eq!(alice_n.outputs, alice1.outputs);
        prop_assert_eq!(bob_n.outputs, bob1.outputs);
        prop_assert_eq!(alice_n.stats, alice1.stats);
        prop_assert_eq!(bob_n.stats, bob1.stats);
    }

    /// The circuit adder agrees with machine arithmetic for arbitrary
    /// widths and operands (stdlib invariant).
    #[test]
    fn adder_matches_u64(a: u32, b: u32, width in 1usize..32) {
        let mask = if width == 32 { u32::MAX } else { (1 << width) - 1 };
        let (a, b) = (a & mask, b & mask);
        let mut bld = CircuitBuilder::new("prop_add");
        let xa = bld.inputs(Role::Alice, width);
        let xb = bld.inputs(Role::Bob, width);
        let (sum, carry) = bld.add(&xa, &xb);
        bld.outputs(&sum);
        bld.output(carry);
        let c = bld.build();
        let bits_a: Vec<bool> = (0..width).map(|i| (a >> i) & 1 == 1).collect();
        let bits_b: Vec<bool> = (0..width).map(|i| (b >> i) & 1 == 1).collect();
        let out = Simulator::new(&c).run_comb(&bits_a, &bits_b, &[]);
        let total = a as u64 + b as u64;
        for (i, &bit) in out.iter().enumerate() {
            prop_assert_eq!(bit, (total >> i) & 1 == 1, "bit {}", i);
        }
    }

    /// Multiplier invariant: mul_lo equals wrapping multiplication.
    #[test]
    fn mul_lo_matches_wrapping(a: u16, b: u16) {
        let mut bld = CircuitBuilder::new("prop_mul");
        let xa = bld.inputs(Role::Alice, 16);
        let xb = bld.inputs(Role::Bob, 16);
        let p = bld.mul_lo(&xa, &xb);
        bld.outputs(&p);
        let c = bld.build();
        let bits = |v: u16| (0..16).map(|i| (v >> i) & 1 == 1).collect::<Vec<_>>();
        let out = Simulator::new(&c).run_comb(&bits(a), &bits(b), &[]);
        let got: u16 = out.iter().enumerate().fold(0, |acc, (i, &bit)| acc | ((bit as u16) << i));
        prop_assert_eq!(got, a.wrapping_mul(b));
    }
}

// --- slow tier -----------------------------------------------------------
//
// Run with `cargo test -- --ignored` (and optionally `PROPTEST_CASES=<n>`).

proptest! {
    #![proptest_config(cases_or(20_000))]

    /// Deep version of `skipgate_matches_simulator`: bigger circuits,
    /// more flip-flops, longer runs, many more seeds.
    #[test]
    #[ignore = "slow tier: run with `cargo test -- --ignored`"]
    fn skipgate_matches_simulator_deep(seed in 1u64..1_000_000, cycles in 1usize..12) {
        let mut rng = TestRng::new(seed);
        let params = RandomCircuitParams {
            inputs: (4, 4, 4),
            dffs: 8,
            gates: 120,
            outputs: 8,
            output_mode: if seed % 2 == 0 { OutputMode::PerCycle } else { OutputMode::FinalOnly },
        };
        let c = random_circuit(&mut rng, params);
        let (a, b, p) = random_inputs(&mut rng, &c, cycles);
        let sim = Simulator::new(&c).run(&a, &b, &p, cycles);
        let (alice_out, bob_out) = two_party(&c, &a, &b, &p, cycles);
        prop_assert_eq!(&alice_out.outputs, &sim.outputs);
        prop_assert_eq!(&bob_out.outputs, &sim.outputs);
        let bound = c.non_xor_count() * cycles as u64;
        prop_assert!(alice_out.stats.garbled_tables <= bound);
    }
}
