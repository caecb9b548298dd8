//! The OT endpoint is pluggable end to end: the same runs over the real
//! Naor–Pinkas + IKNP stack must produce the same outputs and the same
//! cost stats as over the insecure reference OT.

use arm2gc_bench::runner::{baseline_stats, run_stats, skipgate_stats};
use arm2gc_circuit::bench_circuits;
use arm2gc_core::{EngineKind, OtBackend, OtConfig, SessionOptions};
use arm2gc_cpu::asm::assemble;
use arm2gc_cpu::machine::{CpuConfig, GcMachine};
use arm2gc_cpu::programs;

#[test]
fn skipgate_circuit_over_naor_pinkas_iknp() {
    let bc = bench_circuits::compare(32, 123_456, 654_321);
    let insecure = skipgate_stats(&bc);
    let real = run_stats(&bc, &SessionOptions::new().ot(OtBackend::NaorPinkasIknp));
    // The OT backend is transparent to the cost model: same number of
    // logical OTs, same tables, same bytes.
    assert_eq!(insecure, real);
}

#[test]
fn baseline_circuit_over_naor_pinkas_iknp() {
    let bc = bench_circuits::sum(32, 777, 888);
    let insecure = baseline_stats(&bc);
    let real = run_stats(
        &bc,
        &SessionOptions::new()
            .engine(EngineKind::Baseline)
            .ot(OtBackend::NaorPinkasIknp)
            .ot_config(OtConfig::TEST),
    );
    assert_eq!(insecure, real);
}

/// The full garbled processor over the real OT stack, through the
/// pluggable `GcMachine` entry point: SkipGate runs a CPU program
/// end-to-end over Naor–Pinkas base OTs + IKNP extension and agrees
/// with the instruction-set simulator.
#[test]
fn cpu_program_over_naor_pinkas_iknp() {
    let machine = GcMachine::new(CpuConfig::small());
    let program = assemble(&programs::sum32()).expect("assembles");
    let (alice, bob) = (&[40u32][..], &[2u32][..]);

    let iss = machine.run_iss(&program, alice, bob, 100);
    assert!(iss.halted);

    let run = |opts: &SessionOptions| {
        let (mut runs, outcome) =
            machine.run(&program, &[alice.to_vec()], &[bob.to_vec()], 100, opts);
        (runs.remove(0), outcome.lanes[0].stats)
    };
    let (real, stats) = run(&SessionOptions::new().ot(OtBackend::NaorPinkasIknp));
    assert_eq!(real.output, iss.output);
    assert_eq!(real.cycles, iss.cycles);
    assert_eq!(real.output[0], 42);

    // Same cost as the insecure-OT run: the backend changes only *how*
    // labels transfer, not how many.
    let (_, insecure_stats) = run(&SessionOptions::new());
    assert_eq!(stats, insecure_stats);
}
