//! Workspace-level integration tests: full protocol stacks spanning
//! every crate (crypto → ot → garble/core → cpu).

use arm2gc::circuit::bench_circuits;
use arm2gc::circuit::sim::{PartyData, Simulator};
use arm2gc::circuit::Circuit;
use arm2gc::comm::{duplex, Channel, CountingChannel};
use arm2gc::core::{
    drive_evaluator, drive_garbler, run_two_party_opts, EngineKind, SessionOptions,
    SkipGateOutcome, SkipGateStats,
};
use arm2gc::cpu::asm::{assemble, Program};
use arm2gc::cpu::machine::{CpuConfig, GcMachine, MachineRun};
use arm2gc::cpu::programs;
use arm2gc::crypto::Prg;
use arm2gc::ot::{IknpReceiver, IknpSender, MersenneGroup, NaorPinkasReceiver, NaorPinkasSender};

/// One single-lane in-process session under `opts`; returns each
/// party's outcome.
fn two_party(
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

/// One default single-lane SkipGate session of a CPU program.
fn garbled_run(
    machine: &GcMachine,
    program: &Program,
    alice: &[u32],
    bob: &[u32],
    max_cycles: usize,
) -> (MachineRun, SkipGateStats) {
    let (mut runs, outcome) = machine.run(
        program,
        &[alice.to_vec()],
        &[bob.to_vec()],
        max_cycles,
        &SessionOptions::new(),
    );
    (runs.remove(0), outcome.lanes[0].stats)
}

/// The complete real-crypto stack: Naor–Pinkas base OTs, IKNP extension,
/// SkipGate on a CPU program, with byte-counted channels.
#[test]
fn full_stack_cpu_run_with_real_ot() {
    let machine = GcMachine::new(CpuConfig::small());
    let program = assemble(&programs::sum32()).expect("assembles");
    let (a, b, p) = machine.party_data(&program, &[41], &[1]);

    let (ca, cb) = duplex();
    let (mut ca, stats_a) = CountingChannel::new(ca);
    let (mut cb, _stats_b) = CountingChannel::new(cb);
    let group = MersenneGroup::test_group();

    let circuit = machine.circuit().clone();
    let g2 = group.clone();
    let (a, b, p) = ([a], [b], [p]);
    let p2 = p.clone();
    let opts = SessionOptions::new();
    let garbler = std::thread::spawn(move || {
        let mut prg = Prg::from_seed([71; 16]);
        let mut setup = Prg::from_seed([72; 16]);
        let mut base = NaorPinkasReceiver::new(g2, Prg::from_seed([73; 16]));
        let mut ot = IknpSender::setup(&mut base, &mut ca, &mut setup).expect("iknp setup");
        drive_garbler(
            &circuit,
            &a,
            &p2,
            64,
            &mut ca,
            Vec::new(),
            &mut ot,
            &mut prg,
            &opts,
        )
        .expect("garbler")
    });

    let mut setup = Prg::from_seed([74; 16]);
    let mut base = NaorPinkasSender::new(group, Prg::from_seed([75; 16]));
    let mut ot = IknpReceiver::setup(&mut base, &mut cb, &mut setup).expect("iknp setup");
    let bob_out = drive_evaluator(
        machine.circuit(),
        &b,
        &p,
        64,
        &mut cb,
        Vec::new(),
        &mut ot,
        &opts,
    )
    .expect("evaluator");
    let alice_out = garbler.join().expect("garbler thread");
    let (alice_out, bob_out) = (&alice_out.lanes[0], &bob_out.lanes[0]);

    assert_eq!(alice_out.outputs, bob_out.outputs);
    let sum: u32 = alice_out.final_output()[..32]
        .iter()
        .enumerate()
        .fold(0, |acc, (i, &bit)| acc | ((bit as u32) << i));
    assert_eq!(sum, 42);
    // 31 tables à 32 bytes plus input labels and OT traffic.
    assert_eq!(alice_out.stats.garbled_tables, 31);
    assert!(stats_a.sent_bytes() > 31 * 32);
}

/// Byte accounting: SkipGate's table traffic must be exactly
/// `32 × garbled_tables`, dwarfed by the baseline's.
#[test]
fn communication_accounting_matches_tables() {
    let bc = bench_circuits::hamming(160, &[1, 2, 3, 4, 5], &[5, 4, 3, 2, 1]);
    let (alice_out, bob_out) = two_party(
        &bc.circuit,
        &bc.alice,
        &bc.bob,
        &bc.public,
        bc.cycles,
        &SessionOptions::new(),
    );
    assert_eq!(
        alice_out.stats.table_bytes,
        alice_out.stats.garbled_tables * 32
    );
    assert_eq!(alice_out.stats.table_bytes, bob_out.stats.table_bytes);
    assert_eq!(alice_out.stats.garbled_tables, 1092); // paper Table 1
}

/// The three executors (ISS, cleartext circuit sim, SkipGate protocol)
/// agree on a nontrivial program, and the protocol halts early exactly
/// like the ISS does.
#[test]
fn three_executors_agree_and_halt_together() {
    let machine = GcMachine::new(CpuConfig::small());
    let program = assemble(&programs::bubble_sort(6)).expect("assembles");
    let alice = [99u32, 5, 7, 300, 2, 2];
    let bob = [7u32; 6];

    let iss = machine.run_iss(&program, &alice, &bob, 100_000);
    let sim = machine.run_sim(&program, &alice, &bob, 100_000);
    let (skip, stats) = garbled_run(&machine, &program, &alice, &bob, 100_000);

    assert!(iss.halted);
    assert_eq!(sim.output, iss.output);
    assert_eq!(skip.output, iss.output);
    assert_eq!(sim.cycles, iss.cycles);
    assert_eq!(stats.cycles_run, iss.cycles);

    let mut expected: Vec<u32> = alice.iter().zip(&bob).map(|(a, b)| a ^ b).collect();
    expected.sort_unstable();
    assert_eq!(&skip.output[..6], &expected[..]);
}

/// Secret branches stay *correct* (just expensive): the gate-level
/// framework needs no special case for a secret program counter.
#[test]
fn secret_pc_remains_correct() {
    let machine = GcMachine::new(CpuConfig::small());
    // Branch on a secret comparison — Figure 6's anti-pattern.
    let program = assemble(
        "       ldr r0, [r8]
                ldr r1, [r9]
                cmp r0, r1
                blo less
                str r1, [r10]      ; min = b
                halt
         less:  str r0, [r10]      ; min = a
                halt",
    )
    .expect("assembles");

    for (a, b) in [(10u32, 20u32), (20, 10), (7, 7)] {
        let iss = machine.run_iss(&program, &[a], &[b], 8);
        let (aa, bb, pp) = machine.party_data(&program, &[a], &[b]);
        let opts = SessionOptions::new();
        let (alice_out, bob_out) = two_party(machine.circuit(), &aa, &bb, &pp, 8, &opts);
        assert_eq!(alice_out.outputs, bob_out.outputs);
        let out: u32 = alice_out.final_output()[..32]
            .iter()
            .enumerate()
            .fold(0, |acc, (i, &bit)| acc | ((bit as u32) << i));
        assert_eq!(out, iss.output[0], "min({a},{b})");
        assert_eq!(out, a.min(b));
    }
}

/// Baseline and SkipGate engines agree with the simulator and each
/// other on the same AES run.
#[test]
fn baseline_and_skipgate_agree_on_aes() {
    let key: Vec<u8> = (50..66).collect();
    let pt: Vec<u8> = (200..216).collect();
    let bc = bench_circuits::aes128(key.try_into().unwrap(), pt.try_into().unwrap());

    let sim = Simulator::new(&bc.circuit).run(&bc.alice, &bc.bob, &bc.public, bc.cycles);

    let run = |opts: &SessionOptions| {
        two_party(&bc.circuit, &bc.alice, &bc.bob, &bc.public, bc.cycles, opts)
    };
    let (skip_a, _) = run(&SessionOptions::new());
    assert_eq!(skip_a.outputs, sim.outputs);

    let (base_a, base_b) = run(&SessionOptions::new().engine(EngineKind::Baseline));
    assert_eq!(base_a.outputs, sim.outputs);
    assert_eq!(base_b.outputs, sim.outputs);

    // SkipGate strictly cheaper than the baseline on the same circuit.
    assert!(skip_a.stats.garbled_tables < base_a.stats.garbled_tables);
}

/// Slow tier (`cargo test -- --ignored`): the executor-agreement check
/// on a much larger sort — thousands of CPU cycles through the full
/// SkipGate protocol.
#[test]
#[ignore = "slow tier: run with `cargo test -- --ignored`"]
fn three_executors_agree_on_large_sort() {
    let machine = GcMachine::new(CpuConfig::small());
    let n = 16;
    let program = assemble(&programs::bubble_sort(n)).expect("assembles");
    let alice: Vec<u32> = (0..n as u32)
        .map(|i| i.wrapping_mul(2_654_435_761) ^ 0xa5a5)
        .collect();
    let bob: Vec<u32> = (0..n as u32).map(|i| i * 97 + 13).collect();

    let iss = machine.run_iss(&program, &alice, &bob, 1_000_000);
    let sim = machine.run_sim(&program, &alice, &bob, 1_000_000);
    let (skip, stats) = garbled_run(&machine, &program, &alice, &bob, 1_000_000);

    assert!(iss.halted);
    assert_eq!(sim.output, iss.output);
    assert_eq!(skip.output, iss.output);
    assert_eq!(sim.cycles, iss.cycles);
    assert_eq!(stats.cycles_run, iss.cycles);

    let mut expected: Vec<u32> = alice.iter().zip(&bob).map(|(a, b)| a ^ b).collect();
    expected.sort_unstable();
    assert_eq!(&skip.output[..n], &expected[..]);
}

/// Channels deliver arbitrary message sizes in order under threading.
#[test]
fn channel_stress() {
    let (mut a, mut b) = duplex();
    let t = std::thread::spawn(move || {
        for i in 0..200usize {
            let msg = vec![(i % 251) as u8; i * 7 % 1024];
            a.send(&msg).unwrap();
        }
    });
    for i in 0..200usize {
        let msg = b.recv().unwrap();
        assert_eq!(msg.len(), i * 7 % 1024);
        assert!(msg.iter().all(|&x| x == (i % 251) as u8));
    }
    t.join().unwrap();
}
