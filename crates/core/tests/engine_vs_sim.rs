//! Differential tests: the classic GC baseline engine must agree with
//! the cleartext simulator on every circuit, and its table count must
//! equal `cycles × non-XOR` (no gate is ever skipped in the baseline).

use arm2gc_circuit::bench_circuits::{self, BenchCircuit};
use arm2gc_circuit::random::{random_circuit, random_inputs, RandomCircuitParams, TestRng};
use arm2gc_circuit::sim::{PartyData, Simulator};
use arm2gc_circuit::{Circuit, OutputMode};
use arm2gc_comm::{duplex, Channel};
use arm2gc_core::{drive_evaluator, drive_garbler, EngineKind, SessionOptions, SkipGateOutcome};
use arm2gc_crypto::Prg;
use arm2gc_ot::{InsecureOt, OtReceiver, OtSender};

fn baseline() -> SessionOptions {
    SessionOptions::new().engine(EngineKind::Baseline)
}

/// Runs a baseline session over `ch_a`/`ch_b` with the given OT
/// endpoints; returns `(alice_outcome, bob_outcome)`.
#[allow(clippy::too_many_arguments)]
fn run_over(
    circuit: &Circuit,
    alice: &PartyData,
    bob: &PartyData,
    public: &PartyData,
    cycles: usize,
    ch_a: &mut (dyn Channel + Send),
    ot_a: &mut (dyn OtSender + Send),
    ch_b: &mut dyn Channel,
    ot_b: &mut dyn OtReceiver,
) -> (SkipGateOutcome, SkipGateOutcome) {
    let opts = baseline();
    let lane = |p: &PartyData| [p.clone()];
    std::thread::scope(|s| {
        let garbler = s.spawn(|| {
            let mut prg = Prg::from_seed([77; 16]);
            drive_garbler(
                circuit,
                &lane(alice),
                &lane(public),
                cycles,
                ch_a,
                Vec::new(),
                ot_a,
                &mut prg,
                &opts,
            )
            .expect("garbler")
        });
        let bob_out = drive_evaluator(
            circuit,
            &lane(bob),
            &lane(public),
            cycles,
            ch_b,
            Vec::new(),
            ot_b,
            &opts,
        )
        .expect("evaluator");
        let alice_out = garbler.join().expect("garbler thread");
        let first = |o: arm2gc_core::InstancedOutcome| o.lanes.into_iter().next().expect("lane");
        (first(alice_out), first(bob_out))
    })
}

fn run_protocol(
    circuit: &Circuit,
    alice: &PartyData,
    bob: &PartyData,
    public: &PartyData,
    cycles: usize,
) -> (SkipGateOutcome, SkipGateOutcome) {
    let (mut ca, mut cb) = duplex();
    run_over(
        circuit,
        alice,
        bob,
        public,
        cycles,
        &mut ca,
        &mut InsecureOt,
        &mut cb,
        &mut InsecureOt,
    )
}

fn check_bench(bc: &BenchCircuit) {
    let sim = Simulator::new(&bc.circuit).run(&bc.alice, &bc.bob, &bc.public, bc.cycles);
    let (alice_out, bob_out) = run_protocol(&bc.circuit, &bc.alice, &bc.bob, &bc.public, bc.cycles);
    assert_eq!(alice_out.outputs, sim.outputs, "{}", bc.circuit.name());
    assert_eq!(bob_out.outputs, sim.outputs, "{}", bc.circuit.name());
    // Baseline garbles every nonlinear gate every cycle.
    assert_eq!(
        alice_out.stats.garbled_tables,
        bc.circuit.non_xor_count() * bc.cycles as u64,
        "{}",
        bc.circuit.name()
    );
    assert_eq!(
        alice_out.stats.table_bytes,
        alice_out.stats.garbled_tables * 32
    );
}

#[test]
fn sum_32_matches_paper_baseline() {
    let bc = bench_circuits::sum(32, 0x8765_4321, 0x0fed_cba9);
    check_bench(&bc);
    // Paper Table 1: Sum 32 without SkipGate = 32 garbled non-XORs.
    assert_eq!(bc.circuit.non_xor_count() * bc.cycles as u64, 32);
}

#[test]
fn compare_32_matches_paper_baseline() {
    let bc = bench_circuits::compare(32, 1000, 2000);
    check_bench(&bc);
    assert_eq!(bc.circuit.non_xor_count() * bc.cycles as u64, 32);
}

#[test]
fn hamming_160_matches_paper_baseline() {
    let a: Vec<u32> = (0..5).map(|i| 0x9e37_79b9u32.wrapping_mul(i + 1)).collect();
    let b: Vec<u32> = (0..5).map(|i| 0x7f4a_7c15u32.wrapping_mul(i + 3)).collect();
    let bc = bench_circuits::hamming(160, &a, &b);
    check_bench(&bc);
    // Paper Table 1: Hamming 160 without SkipGate = 1,120.
    assert_eq!(bc.circuit.non_xor_count() * bc.cycles as u64, 1120);
}

#[test]
fn mult_32_matches_paper_baseline() {
    let bc = bench_circuits::mult(32, 0xdead_beef, 0x1234_5678);
    check_bench(&bc);
    assert_eq!(bc.circuit.non_xor_count(), 2016);
}

#[test]
fn aes_128_protocol_correct() {
    let key: Vec<u8> = (100..116).collect();
    let pt: Vec<u8> = (7..23).collect();
    let bc = bench_circuits::aes128(key.try_into().unwrap(), pt.try_into().unwrap());
    check_bench(&bc);
}

#[test]
fn matmul_3x3_protocol_correct() {
    let a: Vec<u32> = (0..9).map(|i| i * 1000 + 1).collect();
    let b: Vec<u32> = (0..9).map(|i| 77 * i + 13).collect();
    check_bench(&bench_circuits::matrix_mult(3, &a, &b));
}

#[test]
fn random_circuits_match_simulator() {
    let mut rng = TestRng::new(2026);
    for i in 0..25 {
        let mode = if i % 2 == 0 {
            OutputMode::PerCycle
        } else {
            OutputMode::FinalOnly
        };
        let params = RandomCircuitParams {
            inputs: (2 + i % 3, 2, 1 + i % 2),
            dffs: 3 + i % 4,
            gates: 30 + 5 * (i % 5),
            outputs: 4,
            output_mode: mode,
        };
        let c = random_circuit(&mut rng, params);
        let cycles = 1 + i % 5;
        let (a, b, p) = random_inputs(&mut rng, &c, cycles);
        let sim = Simulator::new(&c).run(&a, &b, &p, cycles);
        let (alice_out, bob_out) = run_protocol(&c, &a, &b, &p, cycles);
        assert_eq!(alice_out.outputs, sim.outputs, "iteration {i}");
        assert_eq!(bob_out.outputs, sim.outputs, "iteration {i}");
    }
}

#[test]
fn works_over_iknp_extension() {
    use arm2gc_ot::{IknpReceiver, IknpSender};
    let bc = bench_circuits::compare(32, 123, 456);
    let sim = Simulator::new(&bc.circuit).run(&bc.alice, &bc.bob, &bc.public, bc.cycles);

    let (mut ca, mut cb) = duplex();
    let (mut ot_a, mut ot_b) = std::thread::scope(|s| {
        let sender = s.spawn(|| {
            let mut setup_prg = Prg::from_seed([79; 16]);
            IknpSender::setup(&mut InsecureOt, &mut ca, &mut setup_prg).expect("iknp setup")
        });
        let mut setup_prg = Prg::from_seed([80; 16]);
        let receiver =
            IknpReceiver::setup(&mut InsecureOt, &mut cb, &mut setup_prg).expect("iknp setup");
        (sender.join().expect("setup thread"), receiver)
    });
    let (alice_out, bob_out) = run_over(
        &bc.circuit,
        &bc.alice,
        &bc.bob,
        &bc.public,
        bc.cycles,
        &mut ca,
        &mut ot_a,
        &mut cb,
        &mut ot_b,
    );
    assert_eq!(alice_out.outputs, sim.outputs);
    assert_eq!(bob_out.outputs, sim.outputs);
}
