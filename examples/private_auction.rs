//! A sealed-bid second-price auction on the garbled processor.
//!
//! Each party submits four sealed bids (e.g. two bidding consortia).
//! The program finds the highest and second-highest bid across all
//! eight without revealing any losing bid — a classic SFE application
//! (Naor–Pinkas–Sumner's auctions motivated row reduction itself).
//!
//! Every secret-dependent decision is a conditional move, so the
//! program counter stays public and SkipGate keeps the run cheap.
//!
//! Run with: `cargo run --release --example private_auction`

use arm2gc::core::SessionOptions;
use arm2gc::cpu::asm::assemble;
use arm2gc::cpu::machine::{CpuConfig, GcMachine};

fn main() {
    let program = assemble(
        "      ; r1 = highest, r2 = second highest
               mov r1, #0
               mov r2, #0
               mov r4, #0          ; index over 4 bids per party
        loop:  ldr r0, [r8, r4]    ; Alice's bid i
               bl consider
               ldr r0, [r9, r4]    ; Bob's bid i
               bl consider
               add r4, r4, #1
               teq r4, #4
               bne loop
               str r1, [r10]       ; winning (highest) bid
               str r2, [r10, #1]   ; clearing (second) price
               halt
        ; consider bid in r0 against (r1 = max, r2 = second).
        ; Branch-free: insert into the top-2 with conditional moves only,
        ; so the secret comparison never touches the program counter.
        consider:
               cmp r0, r2
               movhi r2, r0        ; r2 = max(r2, bid)
               cmp r2, r1
               movhi r3, r1        ; if out of order, swap r1/r2
               movhi r1, r2
               movhi r2, r3
               mov pc, lr",
    )
    .expect("auction program assembles");

    let alice_bids = [120u32, 90, 455, 230];
    let bob_bids = [310u32, 444, 100, 70];

    let machine = GcMachine::new(CpuConfig::small());
    let opts = SessionOptions::new();
    let (runs, outcome) = machine.run(
        &program,
        &[alice_bids.to_vec()],
        &[bob_bids.to_vec()],
        1_000,
        &opts,
    );
    let (run, stats) = (&runs[0], outcome.lanes[0].stats);

    println!("sealed-bid second-price auction (4 bids per party)");
    println!("  highest bid:    {}", run.output[0]);
    println!("  clearing price: {}", run.output[1]);
    println!(
        "  cycles: {}, garbled tables: {}",
        run.cycles, stats.garbled_tables
    );
    assert_eq!(run.output[0], 455);
    assert_eq!(run.output[1], 444);
}
