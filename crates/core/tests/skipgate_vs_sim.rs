//! Differential and cost tests for the SkipGate engine.
//!
//! Correctness: SkipGate must produce exactly the simulator's outputs on
//! every circuit, with any mix of public and private data.
//! Cost: the surviving-table counts must reproduce the paper's Table 1/2
//! circuit rows.

use arm2gc_circuit::bench_circuits::{self, BenchCircuit};
use arm2gc_circuit::random::{random_circuit, random_inputs, RandomCircuitParams, TestRng};
use arm2gc_circuit::sim::PartyData;
use arm2gc_circuit::sim::Simulator;
use arm2gc_circuit::Circuit;
use arm2gc_circuit::OutputMode;
use arm2gc_core::{run_two_party_opts, SessionOptions, SkipGateOutcome};

/// One default single-lane session; returns each party's outcome.
fn two_party(
    c: &Circuit,
    alice: &PartyData,
    bob: &PartyData,
    public: &PartyData,
    cycles: usize,
) -> (SkipGateOutcome, SkipGateOutcome) {
    let lane = |p: &PartyData| [p.clone()];
    let opts = SessionOptions::new();
    let (a, b) = run_two_party_opts(c, &lane(alice), &lane(bob), &lane(public), cycles, &opts);
    (a.lanes[0].clone(), b.lanes[0].clone())
}

fn check(bc: &BenchCircuit) -> SkipGateOutcome {
    let sim = Simulator::new(&bc.circuit).run(&bc.alice, &bc.bob, &bc.public, bc.cycles);
    let (alice_out, bob_out) = two_party(&bc.circuit, &bc.alice, &bc.bob, &bc.public, bc.cycles);
    assert_eq!(alice_out.outputs, sim.outputs, "{}", bc.circuit.name());
    assert_eq!(bob_out.outputs, sim.outputs, "{}", bc.circuit.name());
    assert_eq!(
        alice_out.stats.garbled_tables, bob_out.stats.garbled_tables,
        "parties disagree on table count"
    );
    alice_out
}

/// Paper Table 1/2: Sum 32 → 31 garbled non-XORs (the final carry dies).
#[test]
fn sum_32_costs_31() {
    let out = check(&bench_circuits::sum(32, 0xdead_beef, 0x600d_f00d));
    assert_eq!(out.stats.garbled_tables, 31);
}

/// Paper Table 1/2: Sum 1024 → 1,023.
#[test]
fn sum_1024_costs_1023() {
    let out = check(&bench_circuits::sum(1024, u64::MAX, 12345));
    assert_eq!(out.stats.garbled_tables, 1023);
}

/// Paper Table 1/2: Compare 32 → 32 (SkipGate saves nothing here).
#[test]
fn compare_32_costs_32() {
    let out = check(&bench_circuits::compare(32, 77, 99));
    assert_eq!(out.stats.garbled_tables, 32);
}

/// Paper Table 1: Hamming 32: 160 static → 145 with SkipGate.
#[test]
fn hamming_32_costs_match_paper() {
    let out = check(&bench_circuits::hamming(32, &[0xffff_0000], &[0x00ff_ff00]));
    assert_eq!(out.stats.garbled_tables, 145);
}

/// Paper Table 1: Hamming 160: 1,120 static → 1,092 with SkipGate.
#[test]
fn hamming_160_costs_match_paper() {
    let a: Vec<u32> = (0..5).map(|i| 0x0135_7bdfu32.rotate_left(3 * i)).collect();
    let b: Vec<u32> = (0..5).map(|i| 0x8eca_8642u32.rotate_left(5 * i)).collect();
    let out = check(&bench_circuits::hamming(160, &a, &b));
    assert_eq!(out.stats.garbled_tables, 1092);
}

/// Paper Table 1/2: Mult 32 = 2,016 static; SkipGate trims the one dead
/// top carry.
#[test]
fn mult_32_costs() {
    let out = check(&bench_circuits::mult(32, 0xdead_beef, 0x1234_5678));
    assert!(
        out.stats.garbled_tables <= 2016 && out.stats.garbled_tables >= 2015,
        "got {}",
        out.stats.garbled_tables
    );
}

/// Paper Table 2 (ARM2GC column): MatrixMult3x3 32 = 27,369.
#[test]
fn matmul_3x3_costs_27369() {
    let a: Vec<u32> = (0..9).map(|i| i * 31 + 7).collect();
    let b: Vec<u32> = (0..9).map(|i| i * 17 + 3).collect();
    let out = check(&bench_circuits::matrix_mult(3, &a, &b));
    assert_eq!(out.stats.garbled_tables, 27_369);
}

/// Paper Table 1/2: SHA3-256 = 38,400 with SkipGate (24 × 1600 χ ANDs;
/// the public round controller vanishes). We measure 37,056: our run
/// reveals only the 256 digest bits, so in the final round the 1,344
/// χ ANDs outside the digest's cone die by fanout reduction — a strict
/// improvement over the paper's figure with identical semantics
/// (DESIGN.md, "Paper vs measured").
#[test]
fn sha3_256_costs_37056() {
    let out = check(&bench_circuits::sha3_256(b"skipgate"));
    assert_eq!(out.stats.garbled_tables, 23 * 1600 + 256);
    assert!(out.stats.garbled_tables <= 38_400);
}

/// Paper Table 1/2: AES-128 = 6,400 with the 32-AND S-box; ours is the
/// 36-AND tower S-box → 7,200 (controller still vanishes entirely).
#[test]
fn aes_128_costs_7200() {
    let key: Vec<u8> = (10..26).collect();
    let pt: Vec<u8> = (200..216).collect();
    let out = check(&bench_circuits::aes128(
        key.try_into().unwrap(),
        pt.try_into().unwrap(),
    ));
    assert_eq!(out.stats.garbled_tables, 7_200);
}

/// SkipGate must agree with the cleartext simulator on arbitrary random
/// sequential circuits with mixed public/private inputs.
#[test]
fn random_circuits_match_simulator() {
    let mut rng = TestRng::new(777);
    for i in 0..40 {
        let params = RandomCircuitParams {
            inputs: (2 + i % 3, 2, 1 + i % 3),
            dffs: 2 + i % 5,
            gates: 25 + 7 * (i % 6),
            outputs: 5,
            output_mode: if i % 2 == 0 {
                OutputMode::PerCycle
            } else {
                OutputMode::FinalOnly
            },
        };
        let c = random_circuit(&mut rng, params);
        let cycles = 1 + i % 6;
        let (a, b, p) = random_inputs(&mut rng, &c, cycles);
        let sim = Simulator::new(&c).run(&a, &b, &p, cycles);
        let (alice_out, bob_out) = two_party(&c, &a, &b, &p, cycles);
        assert_eq!(alice_out.outputs, sim.outputs, "alice, iteration {i}");
        assert_eq!(bob_out.outputs, sim.outputs, "bob, iteration {i}");
    }
}

/// SkipGate never sends more tables than the classic baseline.
#[test]
fn never_worse_than_baseline() {
    let mut rng = TestRng::new(31337);
    for i in 0..15 {
        let c = random_circuit(&mut rng, RandomCircuitParams::default());
        let cycles = 1 + i % 4;
        let (a, b, p) = random_inputs(&mut rng, &c, cycles);
        let (alice_out, _) = two_party(&c, &a, &b, &p, cycles);
        let baseline = arm2gc_garble::static_non_xor_cost(&c, cycles);
        assert!(
            (alice_out.stats.garbled_tables as u128) <= baseline,
            "iteration {i}: {} > {baseline}",
            alice_out.stats.garbled_tables
        );
    }
}

/// The halt wire stops both parties early without communication.
#[test]
fn public_halt_stops_early() {
    use arm2gc_circuit::sim::PartyData;
    use arm2gc_circuit::{CircuitBuilder, DffInit};

    let mut b = CircuitBuilder::new("halting");
    let cnt = b.dff_bus(8, |_| DffInit::Const(false));
    let (next, _) = b.inc(&cnt);
    b.connect_dff_bus(&cnt, &next);
    let halt = b.eq_const(&cnt, 5);
    b.set_halt(halt);
    b.outputs(&cnt);
    let c = b.build();

    let (alice_out, bob_out) = two_party(
        &c,
        &PartyData::default(),
        &PartyData::default(),
        &PartyData::default(),
        1000,
    );
    assert_eq!(alice_out.stats.cycles_run, 6);
    assert_eq!(bob_out.stats.cycles_run, 6);
    // The counter is public throughout: zero tables.
    assert_eq!(alice_out.stats.garbled_tables, 0);
    let sim = Simulator::new(&c).run(
        &PartyData::default(),
        &PartyData::default(),
        &PartyData::default(),
        1000,
    );
    assert_eq!(alice_out.outputs, sim.outputs);
}
