//! Shared measurement runners for the table binaries.

use arm2gc_circuit::bench_circuits::{self, BenchCircuit};
use arm2gc_circuit::random::TestRng;
use arm2gc_circuit::sim::PartyData;
use arm2gc_core::{
    run_two_party_opts, EngineKind, InstancedOutcome, SessionOptions, SkipGateStats,
};
use arm2gc_cpu::asm::{assemble, Program};
use arm2gc_cpu::machine::{CpuConfig, GcMachine};
use arm2gc_cpu::programs;

/// Measured circuit-level result: baseline vs SkipGate.
#[derive(Clone, Copy, Debug)]
pub struct CircuitMeasurement {
    /// Conventional sequential GC tables (garbled for real when
    /// feasible; identical to `cycles × non-XOR`).
    pub baseline: u128,
    /// SkipGate tables actually transferred.
    pub skipgate: u64,
}

/// Runs one session of a benchmark circuit under `opts` — the same
/// inputs in each of the `opts.instances` lanes — and verifies that
/// both parties agree and every lane's output matches the semantic
/// expectation. Returns the garbler's [`InstancedOutcome`]: per-lane
/// cost counters plus the session-wide batching occupancy.
pub fn run_session(bc: &BenchCircuit, opts: &SessionOptions) -> InstancedOutcome {
    let lanes = |p: &PartyData| vec![p.clone(); opts.instances];
    let (a, b) = run_two_party_opts(
        &bc.circuit,
        &lanes(&bc.alice),
        &lanes(&bc.bob),
        &lanes(&bc.public),
        bc.cycles,
        opts,
    );
    assert_eq!(a.batching, b.batching, "parties disagree on batching stats");
    for (lane, (la, lb)) in a.lanes.iter().zip(&b.lanes).enumerate() {
        assert_eq!(la.outputs, lb.outputs, "lane {lane}: party outputs differ");
        let got: Vec<bool> = la.outputs.concat();
        assert_eq!(got, bc.expected, "lane {lane}: output mismatch");
    }
    a
}

/// [`run_session`]'s first-lane cost counters.
pub fn run_stats(bc: &BenchCircuit, opts: &SessionOptions) -> SkipGateStats {
    run_session(bc, opts).lanes[0].stats
}

/// Runs a benchmark circuit under SkipGate (real two-party run) with
/// the default session configuration.
pub fn skipgate_stats(bc: &BenchCircuit) -> SkipGateStats {
    run_stats(bc, &SessionOptions::new())
}

/// Runs a benchmark circuit under the classic engine (real garbling)
/// with the default session configuration.
pub fn baseline_stats(bc: &BenchCircuit) -> SkipGateStats {
    run_stats(bc, &SessionOptions::new().engine(EngineKind::Baseline))
}

/// Measures one circuit both ways. `garble_baseline` controls whether
/// the baseline is actually executed (large circuits use the static
/// count, like the paper's processor rows).
pub fn measure_circuit(bc: &BenchCircuit, garble_baseline: bool) -> CircuitMeasurement {
    let skip = skipgate_stats(bc);
    let baseline = if garble_baseline {
        let stats = baseline_stats(bc);
        stats.garbled_tables as u128
    } else {
        arm2gc_garble::static_non_xor_cost(&bc.circuit, bc.cycles)
    };
    CircuitMeasurement {
        baseline,
        skipgate: skip.garbled_tables,
    }
}

/// All Table 1 benchmark circuits with deterministic inputs.
pub fn table1_circuits(quick: bool) -> Vec<BenchCircuit> {
    let mut rng = TestRng::new(20_260_611);
    let mut words = |n: usize| -> Vec<u32> { (0..n).map(|_| rng.next_u64() as u32).collect() };
    let mut out = vec![
        bench_circuits::sum(32, 0xdead_beef, 0x600d_f00d),
        bench_circuits::sum(1024, u64::MAX, 0x1234_5678),
        bench_circuits::compare(32, 77, 999),
        bench_circuits::compare(16384, u64::MAX, 3),
        bench_circuits::hamming(32, &words(1), &words(1)),
        bench_circuits::hamming(160, &words(5), &words(5)),
        bench_circuits::hamming(512, &words(16), &words(16)),
        bench_circuits::mult(32, 0xdead_beef, 0x1234_5678),
        bench_circuits::matrix_mult(3, &words(9), &words(9)),
    ];
    if !quick {
        out.push(bench_circuits::matrix_mult(5, &words(25), &words(25)));
        out.push(bench_circuits::matrix_mult(8, &words(64), &words(64)));
    }
    out.push(bench_circuits::sha3_256(b"arm2gc reproduction"));
    let key: Vec<u8> = (0..16).collect();
    let pt: Vec<u8> = (16..32).collect();
    out.push(bench_circuits::aes128(
        key.try_into().expect("16"),
        pt.try_into().expect("16"),
    ));
    out
}

/// A CPU workload: a program plus inputs and a cycle bound.
pub struct CpuWorkload {
    /// Display name matching the paper's tables.
    pub name: String,
    /// Machine geometry.
    pub config: CpuConfig,
    /// Assembled program.
    pub program: Program,
    /// Alice's input words.
    pub alice: Vec<u32>,
    /// Bob's input words.
    pub bob: Vec<u32>,
    /// Cycle bound (generous; the program halts earlier).
    pub max_cycles: usize,
}

impl CpuWorkload {
    /// Builds a workload from assembly source.
    pub fn new(
        name: impl Into<String>,
        config: CpuConfig,
        src: &str,
        alice: Vec<u32>,
        bob: Vec<u32>,
        max_cycles: usize,
    ) -> Self {
        Self {
            name: name.into(),
            config,
            program: assemble(src).expect("benchmark program assembles"),
            alice,
            bob,
            max_cycles,
        }
    }

    /// Runs under SkipGate on `machine` (must match `config`), verifying
    /// against the ISS, and returns `(cycles, stats)`.
    pub fn measure(&self, machine: &GcMachine) -> (usize, SkipGateStats) {
        let iss = machine.run_iss(&self.program, &self.alice, &self.bob, self.max_cycles);
        assert!(iss.halted, "{}: program did not halt", self.name);
        let (runs, outcome) = machine.run(
            &self.program,
            std::slice::from_ref(&self.alice),
            std::slice::from_ref(&self.bob),
            self.max_cycles,
            &SessionOptions::new(),
        );
        assert_eq!(
            runs[0].output, iss.output,
            "{}: protocol diverged",
            self.name
        );
        (runs[0].cycles, outcome.lanes[0].stats)
    }
}

/// The Table 2/4 CPU workloads. `quick` trims the largest sizes so the
/// harness stays interactive.
pub fn cpu_workloads(quick: bool) -> Vec<CpuWorkload> {
    let mut rng = TestRng::new(42_4242);
    let mut words = |n: usize| -> Vec<u32> { (0..n).map(|_| rng.next_u64() as u32).collect() };
    let small = CpuConfig::bench();
    let wide = CpuConfig {
        alice_words: 1024,
        bob_words: 1024,
        ..CpuConfig::bench()
    };
    let mut out = vec![
        CpuWorkload::new("Sum 32", small, &programs::sum32(), words(1), words(1), 100),
        CpuWorkload::new(
            "Sum 1024",
            small,
            &programs::sum_wide(32),
            words(32),
            words(32),
            2_000,
        ),
        CpuWorkload::new(
            "Compare 32",
            small,
            &programs::compare32(),
            words(1),
            words(1),
            100,
        ),
        CpuWorkload::new(
            "Hamming 32",
            small,
            &programs::hamming(1),
            words(1),
            words(1),
            200,
        ),
        CpuWorkload::new(
            "Hamming 160",
            small,
            &programs::hamming(5),
            words(5),
            words(5),
            2_000,
        ),
        CpuWorkload::new(
            "Hamming 512",
            small,
            &programs::hamming(16),
            words(16),
            words(16),
            4_000,
        ),
        CpuWorkload::new(
            "Mult 32",
            small,
            &programs::mult32(),
            words(1),
            words(1),
            100,
        ),
        CpuWorkload::new(
            "MatrixMult3x3 32",
            small,
            &programs::matmul(3),
            words(9),
            words(9),
            10_000,
        ),
    ];
    if !quick {
        out.push(CpuWorkload::new(
            "Compare 16384",
            wide,
            &programs::compare_wide(512),
            words(512),
            words(512),
            20_000,
        ));
        out.push(CpuWorkload::new(
            "MatrixMult5x5 32",
            small,
            &programs::matmul(5),
            words(25),
            words(25),
            40_000,
        ));
        out.push(CpuWorkload::new(
            "MatrixMult8x8 32",
            small,
            &programs::matmul(8),
            words(64),
            words(64),
            160_000,
        ));
    }
    out
}

/// The Table 5 complex-function workloads (XOR-shared inputs).
pub fn complex_workloads(quick: bool) -> Vec<CpuWorkload> {
    let mut rng = TestRng::new(55_555);
    let cfg = CpuConfig::bench();
    let n_sort = if quick { 8 } else { 32 };
    let nodes = 8; // 64 weighted edges, as in the paper
    const INF: u32 = 0x3f00_0000;
    let mut adj: Vec<u32> = (0..nodes * nodes)
        .map(|i| {
            let (u, v) = (i / nodes, i % nodes);
            if u == v {
                INF
            } else {
                1 + (rng.next_u64() % 97) as u32
            }
        })
        .collect();
    // Keep some edges missing for realism.
    for edge in adj.iter_mut() {
        if rng.below(3) == 0 {
            *edge = INF;
        }
    }
    let mut words = |n: usize| -> Vec<u32> { (0..n).map(|_| rng.next_u64() as u32).collect() };
    let bob_adj = words(nodes * nodes);
    let adj_share: Vec<u32> = adj.iter().zip(&bob_adj).map(|(a, b)| a ^ b).collect();

    let angle = (0.6f64 * (1u64 << 30) as f64) as u32;
    let x0 = (0.607_252_935 * (1u64 << 30) as f64) as u32;
    let cordic_bob = words(3);
    let cordic_alice = vec![x0 ^ cordic_bob[0], cordic_bob[1], angle ^ cordic_bob[2]];

    vec![
        CpuWorkload::new(
            format!("Bubble-Sort{n_sort} 32"),
            cfg,
            &programs::bubble_sort(n_sort),
            words(n_sort),
            words(n_sort),
            2_000_000,
        ),
        CpuWorkload::new(
            format!("Merge-Sort{n_sort} 32"),
            cfg,
            &programs::merge_sort(n_sort),
            words(n_sort),
            words(n_sort),
            2_000_000,
        ),
        CpuWorkload::new(
            "Dijkstra64 32",
            cfg,
            &programs::dijkstra(nodes),
            adj_share,
            bob_adj,
            200_000,
        ),
        CpuWorkload::new(
            "CORDIC 32",
            cfg,
            &programs::cordic(32),
            cordic_alice,
            cordic_bob,
            10_000,
        ),
    ]
}

/// Builds (and caches per call site) a machine for a config.
pub fn machine_for(config: CpuConfig) -> GcMachine {
    GcMachine::new(config)
}

/// The "a = a op a" demonstration circuit (Table 3's last data row):
/// a 32-bit value ANDed with itself. SkipGate sends zero tables.
pub fn a_op_a_measurement() -> u64 {
    use arm2gc_circuit::{CircuitBuilder, Role};
    let mut b = CircuitBuilder::new("a_and_a");
    let a = b.inputs(Role::Alice, 32);
    let o: Vec<_> = a.iter().map(|&w| b.and(w, w)).collect();
    b.outputs(&o);
    let c = b.build();
    let data = [PartyData::from_stream(vec![vec![true; 32]])];
    let none = [PartyData::default()];
    let (out, _) = run_two_party_opts(&c, &data, &none, &none, 1, &SessionOptions::new());
    out.lanes[0].stats.garbled_tables
}
