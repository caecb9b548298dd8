//! Quickstart: the millionaires' problem on the garbled processor.
//!
//! Alice and Bob each hold a (private) net worth; they learn who is
//! richer and nothing else. The comparison runs as a program on the
//! ARM2GC garbled CPU — the paper's Figure 4 flow end to end:
//! assemble (public `p`) → load private memories → SkipGate-garble.
//!
//! Run with: `cargo run --release --example quickstart`

use arm2gc::core::SessionOptions;
use arm2gc::cpu::asm::assemble;
use arm2gc::cpu::machine::{CpuConfig, GcMachine};

fn main() {
    // The "application": standard assembly, no crypto in sight.
    // (A C programmer would write `out[0] = a[0] > b[0];` — the paper's
    // gcc-arm flow; our assembler is the toolchain substitution.)
    let program = assemble(
        "ldr r0, [r8]      ; Alice's net worth
         ldr r1, [r9]      ; Bob's net worth
         cmp r0, r1
         sbc r2, r2, r2    ; r2 = borrow mask (a < b)
         and r2, r2, #1
         str r2, [r10]     ; 1 = Bob is richer, 0 = Alice
         halt",
    )
    .expect("program assembles");

    let alice_worth = 5_300_000u32;
    let bob_worth = 7_100_000u32;

    let machine = GcMachine::new(CpuConfig::small());
    let opts = SessionOptions::new();
    let (runs, outcome) = machine.run(
        &program,
        &[vec![alice_worth]],
        &[vec![bob_worth]],
        100,
        &opts,
    );
    let (run, stats) = (&runs[0], outcome.lanes[0].stats);

    println!("millionaires' problem on the garbled ARM2GC processor");
    println!(
        "  program: {} instructions (public input p)",
        program.text.len()
    );
    println!("  cycles executed: {}", run.cycles);
    println!(
        "  result: {} is richer",
        if run.output[0] == 1 { "Bob" } else { "Alice" }
    );
    println!();
    println!("cost (the paper's metric: garbled non-XOR gates):");
    println!("  garbled tables sent:     {}", stats.garbled_tables);
    println!("  tables skipped (dead):   {}", stats.skipped_nonlinear);
    println!("  gates computed publicly: {}", stats.public_gates);
    println!(
        "  conventional GC would garble: {} (the whole CPU, every cycle)",
        machine.baseline_cost(run.cycles)
    );
    assert_eq!(run.output[0], 1, "Bob is richer in this demo");
}
