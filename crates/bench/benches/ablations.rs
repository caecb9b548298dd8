//! Ablation benchmarks for the design choices DESIGN.md calls out:
//!
//! 1. **Garbling scheme** — classic 4-row vs GRR3 vs half-gates
//!    (bytes per AND and garbling time),
//! 2. **Dead-gate filtering** (Alg. 4 line 18) on vs off,
//! 3. **Linear-scan register file** — oblivious access cost vs the
//!    accessed subset size (§4.4's ORAM discussion).

use criterion::{criterion_group, criterion_main, Criterion};

use arm2gc_circuit::sim::PartyData;
use arm2gc_circuit::{Circuit, CircuitBuilder, DffInit, Op, RamConfig, Role};
use arm2gc_core::{run_two_party_opts, SessionOptions};
use arm2gc_crypto::{Delta, GarbleHash, Label, Prg};

/// Garbled tables of one single-cycle, single-lane session under `opts`.
fn tables(circuit: &Circuit, alice: &PartyData, bob: &PartyData, opts: &SessionOptions) -> u64 {
    let lane = |p: &PartyData| [p.clone()];
    let none = lane(&PartyData::default());
    let (out, _) = run_two_party_opts(circuit, &lane(alice), &lane(bob), &none, 1, opts);
    out.lanes[0].stats.garbled_tables
}

fn bench_garbling_schemes(c: &mut Criterion) {
    let mut prg = Prg::from_seed([5; 16]);
    let delta = Delta::random(&mut prg);
    let hash = GarbleHash::fixed();
    let a0 = Label::random(&mut prg);
    let b0 = Label::random(&mut prg);
    let c0 = Label::random(&mut prg);

    let mut g = c.benchmark_group("ablation_garbling_scheme");
    g.bench_function("rows4_64B", |b| {
        b.iter(|| arm2gc_garble::rows4::garble4(&hash, delta, Op::AND, a0, b0, c0, 3))
    });
    g.bench_function("grr3_48B", |b| {
        b.iter(|| arm2gc_garble::rows4::garble3(&hash, delta, Op::AND, a0, b0, 3))
    });
    let hg = arm2gc_garble::HalfGateGarbler::new(delta);
    g.bench_function("halfgate_32B", |b| b.iter(|| hg.garble(Op::AND, a0, b0, 3)));
    g.finish();

    // Communication comparison is deterministic; print once.
    println!("bytes per AND gate: 4-row = 64, GRR3 = 48, half-gates = 32");
}

fn bench_dead_gate_filter(c: &mut Criterion) {
    // A circuit with a large dead cone: only 1 of 64 AND outputs is used.
    let build = || {
        let mut b = CircuitBuilder::new("dead_cone");
        let xs = b.inputs(Role::Alice, 64);
        let ys = b.inputs(Role::Bob, 64);
        let ands = b.and_bus(&xs, &ys);
        let zero = b.constant(false);
        // Kill all but one AND with a public-0 mux chain.
        let mut acc = ands[0];
        for &w in &ands[1..] {
            let dead = b.and(w, zero);
            acc = b.xor(acc, dead);
        }
        b.output(acc);
        b.build()
    };
    let circuit = build();
    let alice = PartyData::from_stream(vec![vec![true; 64]]);
    let bob = PartyData::from_stream(vec![vec![false; 64]]);

    let mut g = c.benchmark_group("ablation_dead_gate_filter");
    g.sample_size(20);
    for (name, filter) in [("filter_on", true), ("filter_off", false)] {
        let opts = SessionOptions::new().filter_dead_gates(filter);
        g.bench_function(name, |b| b.iter(|| tables(&circuit, &alice, &bob, &opts)));
    }
    g.finish();

    let on = tables(&circuit, &alice, &bob, &SessionOptions::new());
    let off = tables(
        &circuit,
        &alice,
        &bob,
        &SessionOptions::new().filter_dead_gates(false),
    );
    println!("dead-gate filter: {on} tables with Alg.4-l18 filtering, {off} without");
}

fn bench_regfile_subset(c: &mut Criterion) {
    // §4.4: oblivious read cost scales with the accessed subset, not the
    // memory size, once SkipGate collapses the public part of the index.
    let mut g = c.benchmark_group("ablation_regfile_subset");
    g.sample_size(20);
    for secret_bits in [0usize, 1, 2, 3, 4] {
        // 16-register file; the low `secret_bits` of the index are
        // secret, the rest public — an oblivious access to a subset of
        // size 2^secret_bits.
        let mut b = CircuitBuilder::new(format!("regfile_{secret_bits}"));
        let ram = b.ram(
            RamConfig {
                words: 16,
                width: 32,
            },
            |w, i| DffInit::Alice((w * 32 + i) as u32),
        );
        let secret_idx = b.inputs(Role::Bob, secret_bits);
        let mut idx = secret_idx.clone();
        while idx.len() < 4 {
            let bit = b.constant(false);
            idx.push(bit);
        }
        let val = ram.read(&mut b, &idx);
        ram.connect_rom(&mut b);
        b.outputs(&val);
        let circuit = b.build();

        let alice = PartyData::from_init((0..512).map(|i| i % 3 == 0).collect());
        let bob = PartyData {
            init: vec![],
            stream: vec![vec![true; secret_bits]],
        };
        let opts = SessionOptions::new();
        println!(
            "oblivious regfile read, subset 2^{secret_bits}: {} tables",
            tables(&circuit, &alice, &bob, &opts)
        );
        g.bench_function(format!("subset_2pow{secret_bits}"), |bch| {
            bch.iter(|| tables(&circuit, &alice, &bob, &opts))
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_garbling_schemes,
    bench_dead_gate_filter,
    bench_regfile_subset
);
criterion_main!(benches);
