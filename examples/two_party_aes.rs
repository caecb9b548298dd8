//! Two-party AES-128: Alice holds the key, Bob the plaintext; the
//! ciphertext is computed without either learning the other's input.
//! (The paper's AES benchmark, §5 — and the classic GC showpiece.)
//!
//! Also demonstrates running the protocol over the real OT stack
//! (Naor–Pinkas base OTs + IKNP extension) instead of the test OT.
//!
//! Run with: `cargo run --release --example two_party_aes`

use arm2gc::circuit::bench_circuits::aes128;
use arm2gc::comm::duplex;
use arm2gc::core::{drive_evaluator, drive_garbler, SessionOptions};
use arm2gc::crypto::{Aes128, Prg};
use arm2gc::ot::{IknpReceiver, IknpSender, MersenneGroup, NaorPinkasReceiver, NaorPinkasSender};

fn main() {
    let key: [u8; 16] = *b"sixteen byte key";
    let plaintext: [u8; 16] = *b"attack at dawn!!";

    let bc = aes128(key, plaintext);
    let circuit = &bc.circuit;
    println!("two-party AES-128 (Alice: key, Bob: plaintext)");
    println!(
        "  circuit: {} gates, {} non-XOR per round-cycle",
        circuit.gates().len(),
        circuit.non_xor_count()
    );

    // Real OT stack over the 1279-bit Mersenne group.
    let group = MersenneGroup::test_group(); // use ::standard() for full size
    let (mut ca, mut cb) = duplex();
    let g2 = group.clone();
    let public_b = [bc.public.clone()];
    let (alice_data, bob_data, public, cycles) = ([bc.alice], [bc.bob], [bc.public], bc.cycles);
    let opts = SessionOptions::new();

    let circuit_a = circuit.clone();
    let garbler = std::thread::spawn(move || {
        let mut prg = Prg::from_entropy();
        let mut setup = Prg::from_entropy();
        let mut base = NaorPinkasReceiver::new(g2, Prg::from_entropy());
        let mut ot = IknpSender::setup(&mut base, &mut ca, &mut setup).expect("iknp");
        drive_garbler(
            &circuit_a,
            &alice_data,
            &public,
            cycles,
            &mut ca,
            Vec::new(),
            &mut ot,
            &mut prg,
            &opts,
        )
        .expect("garbler")
    });

    let mut setup = Prg::from_entropy();
    let mut base = NaorPinkasSender::new(group, Prg::from_entropy());
    let mut ot = IknpReceiver::setup(&mut base, &mut cb, &mut setup).expect("iknp");
    let bob_out = drive_evaluator(
        circuit,
        &bob_data,
        &public_b,
        cycles,
        &mut cb,
        Vec::new(),
        &mut ot,
        &opts,
    )
    .expect("evaluator");
    let alice_out = garbler.join().expect("garbler thread");
    let (alice_out, bob_out) = (&alice_out.lanes[0], &bob_out.lanes[0]);
    assert_eq!(alice_out.outputs, bob_out.outputs);

    // Decode and verify against a local AES (only possible here because
    // this demo knows both inputs).
    let bits = alice_out.final_output();
    let mut ct = [0u8; 16];
    for (i, byte) in ct.iter_mut().enumerate() {
        for j in 0..8 {
            *byte |= (bits[8 * i + j] as u8) << j;
        }
    }
    let expected = Aes128::new(key).encrypt_block(plaintext);
    println!("  ciphertext: {}", hex(&ct));
    println!("  garbled tables: {}", alice_out.stats.garbled_tables);
    println!("  OTs executed:   {}", alice_out.stats.ots);
    assert_eq!(ct, expected, "garbled AES must match local AES");
    println!("  verified against local AES ✓");
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}
