//! Privacy-preserving biometric matching (the paper's intro motivates
//! GC with exactly this kind of two-party analytics).
//!
//! A server holds an enrolled 512-bit iris template; a client holds a
//! fresh scan. They learn whether the Hamming distance is under the
//! acceptance threshold — and neither learns the other's template.
//! This uses the circuit-level pipeline (TinyGarble-style) rather than
//! the CPU: a Hamming core plus a threshold comparator.
//!
//! Run with: `cargo run --release --example biometric_match`

use arm2gc::circuit::sim::PartyData;
use arm2gc::circuit::{CircuitBuilder, DffInit, OutputMode, Role};
use arm2gc::core::{run_two_party_opts, SessionOptions};

const TEMPLATE_BITS: usize = 512;
const THRESHOLD: u64 = 120; // accept if fewer than 120 bits differ

fn main() {
    // Sequential Hamming core (one bit pair per cycle) + final compare.
    let width = 10; // counter width for up to 512
    let mut b = CircuitBuilder::new("iris_match");
    let ai = b.input(Role::Alice);
    let bi = b.input(Role::Bob);
    let x = b.xor(ai, bi);
    let counter = b.dff_bus(width, |_| DffInit::Const(false));
    let mut carry = x;
    let mut next = Vec::with_capacity(width);
    for (i, &c) in counter.iter().enumerate() {
        next.push(b.xor(c, carry));
        if i + 1 < width {
            carry = b.and(c, carry);
        }
    }
    b.connect_dff_bus(&counter, &next);
    let threshold = b.const_bus(THRESHOLD, width);
    let accept = b.lt_unsigned(&counter, &threshold);
    b.output(accept);
    b.set_output_mode(OutputMode::FinalOnly);
    let circuit = b.build();

    // Synthetic templates: ~100 differing bits (a genuine match).
    let enrolled: Vec<bool> = (0..TEMPLATE_BITS).map(|i| (i * 7) % 3 == 0).collect();
    let scan: Vec<bool> = enrolled
        .iter()
        .enumerate()
        .map(|(i, &bit)| if i % 5 == 0 { !bit } else { bit })
        .collect();
    let distance = enrolled.iter().zip(&scan).filter(|(a, b)| a != b).count();

    let alice = [PartyData::from_stream(
        enrolled.iter().map(|&v| vec![v]).collect(),
    )];
    let bob = [PartyData::from_stream(
        scan.iter().map(|&v| vec![v]).collect(),
    )];
    let public = [PartyData::default()];
    let opts = SessionOptions::new();
    let (out, _) = run_two_party_opts(&circuit, &alice, &bob, &public, TEMPLATE_BITS, &opts);
    let out = &out.lanes[0];

    println!("privacy-preserving iris match ({TEMPLATE_BITS}-bit templates)");
    println!("  true Hamming distance (neither party learns this): {distance}");
    println!(
        "  protocol output: {}",
        if out.final_output()[0] {
            "ACCEPT"
        } else {
            "REJECT"
        }
    );
    println!("  garbled tables: {}", out.stats.garbled_tables);
    assert_eq!(out.final_output()[0], distance < THRESHOLD as usize);
}
