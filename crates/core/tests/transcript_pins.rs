//! Absolute transcript pins: every frame both parties send, on the main
//! channel and on every shard sub-channel, hashed into one 64-bit
//! digest per circuit × engine × lane count × shard count.
//!
//! The digests were recorded once and are compared against constants,
//! not against a second path of the same build, so any change to the
//! bytes on the wire — label draw order, table order or content, frame
//! boundaries, the output exchange — fails here. The AES backend must
//! not matter: the same constants hold under `ARM2GC_AES_BACKEND=sliced`.
//!
//! Sessions run with fixed [`Prg::from_seed`] seeds and [`InsecureOt`],
//! so nothing in a transcript is drawn from entropy.
//!
//! The Table 1 rows run lanes whose decisions are identical. Two more
//! sessions pin lanes that diverge: a three-lane random sequential
//! circuit with different public inputs per lane, and a two-lane
//! garbled CPU running two public programs that halt at different
//! cycles.

use std::sync::{Arc, Mutex};

use arm2gc_circuit::bench_circuits::{self, BenchCircuit};
use arm2gc_circuit::random::{random_circuit, random_inputs, RandomCircuitParams, TestRng};
use arm2gc_circuit::sim::{PartyData, Simulator};
use arm2gc_circuit::words::bits_to_words;
use arm2gc_circuit::{Circuit, OutputMode};
use arm2gc_comm::{duplex, Channel, ChannelError};
use arm2gc_core::{
    drive_evaluator, drive_garbler, shard_duplexes, EngineKind, InstancedOutcome, SessionOptions,
};
use arm2gc_cpu::asm::assemble;
use arm2gc_cpu::machine::{CpuConfig, GcMachine};
use arm2gc_cpu::programs;
use arm2gc_crypto::Prg;
use arm2gc_ot::InsecureOt;

/// Frames sent on one channel, in order.
type Frames = Arc<Mutex<Vec<Vec<u8>>>>;

/// A [`Channel`] recording every frame sent through it.
struct Recording<C> {
    inner: C,
    sent: Frames,
}

impl<C: Channel> Channel for Recording<C> {
    fn send(&mut self, data: &[u8]) -> Result<(), ChannelError> {
        self.sent.lock().expect("lock").push(data.to_vec());
        self.inner.send(data)
    }

    fn recv(&mut self) -> Result<Vec<u8>, ChannelError> {
        self.inner.recv()
    }
}

fn recording<C: Channel>(inner: C, logs: &mut Vec<Frames>) -> Recording<C> {
    let sent = Frames::default();
    logs.push(Arc::clone(&sent));
    Recording { inner, sent }
}

fn boxed_recordings(chs: Vec<Box<dyn Channel>>, logs: &mut Vec<Frames>) -> Vec<Box<dyn Channel>> {
    chs.into_iter()
        .map(|ch| Box::new(recording(ch, logs)) as Box<dyn Channel>)
        .collect()
}

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }
}

/// Folds channel logs into the digest: each channel's frame count, then
/// every frame's length and bytes.
fn absorb(h: &mut Fnv, logs: &[Frames]) {
    for log in logs {
        let frames = log.lock().expect("lock");
        h.write_u64(frames.len() as u64);
        for f in frames.iter() {
            h.write_u64(f.len() as u64);
            h.write(f);
        }
    }
}

/// One pinned configuration.
#[derive(Clone, Copy, Debug)]
struct Config {
    engine: EngineKind,
    lanes: usize,
    shards: usize,
}

const CONFIGS: [Config; 6] = [
    Config {
        engine: EngineKind::Baseline,
        lanes: 1,
        shards: 1,
    },
    Config {
        engine: EngineKind::Baseline,
        lanes: 1,
        shards: 2,
    },
    Config {
        engine: EngineKind::SkipGate,
        lanes: 1,
        shards: 1,
    },
    Config {
        engine: EngineKind::SkipGate,
        lanes: 1,
        shards: 2,
    },
    Config {
        engine: EngineKind::SkipGate,
        lanes: 2,
        shards: 1,
    },
    Config {
        engine: EngineKind::SkipGate,
        lanes: 2,
        shards: 2,
    },
];

/// Every lane's data for one session: Alice's, Bob's and the public
/// [`PartyData`], one entry per lane each.
struct Lanes {
    alices: Vec<PartyData>,
    bobs: Vec<PartyData>,
    publics: Vec<PartyData>,
}

/// Runs one session of `circuit` over `lanes`, and returns both
/// parties' outcomes and the digest of everything both parties sent.
fn session(
    circuit: &Circuit,
    lanes: &Lanes,
    cycles: usize,
    opts: &SessionOptions,
) -> (InstancedOutcome, InstancedOutcome, u64) {
    let shards = opts.shard_config().expect("shard count");
    let (ca, cb) = duplex();
    let (g_shards, e_shards) = shard_duplexes(shards);
    let mut g_logs = Vec::new();
    let mut e_logs = Vec::new();
    let mut ca = recording(ca, &mut g_logs);
    let mut cb = recording(cb, &mut e_logs);
    let g_shards = boxed_recordings(g_shards, &mut g_logs);
    let e_shards = boxed_recordings(e_shards, &mut e_logs);

    let (a, b): (InstancedOutcome, InstancedOutcome) = std::thread::scope(|s| {
        let garbler = s.spawn(|| {
            let mut prg = Prg::from_seed([0x5a; 16]);
            drive_garbler(
                circuit,
                &lanes.alices,
                &lanes.publics,
                cycles,
                &mut ca,
                g_shards,
                &mut InsecureOt,
                &mut prg,
                opts,
            )
            .expect("garbler")
        });
        let b = drive_evaluator(
            circuit,
            &lanes.bobs,
            &lanes.publics,
            cycles,
            &mut cb,
            e_shards,
            &mut InsecureOt,
            opts,
        )
        .expect("evaluator");
        (garbler.join().expect("garbler thread"), b)
    });
    let mut h = Fnv::new();
    absorb(&mut h, &g_logs);
    absorb(&mut h, &e_logs);
    (a, b, h.0)
}

/// Runs one session of `lanes` (the first `cfg.lanes` of them), checks
/// both parties decode every lane's expected output, and returns the
/// digest of everything both parties sent.
fn digest(lanes: &[BenchCircuit], cfg: Config) -> u64 {
    let lanes = &lanes[..cfg.lanes];
    let bc = &lanes[0];
    let opts = SessionOptions::new()
        .engine(cfg.engine)
        .instances(cfg.lanes)
        .shards(cfg.shards);
    let data = Lanes {
        alices: lanes.iter().map(|l| l.alice.clone()).collect(),
        bobs: lanes.iter().map(|l| l.bob.clone()).collect(),
        publics: lanes.iter().map(|l| l.public.clone()).collect(),
    };
    let (a, b, digest) = session(&bc.circuit, &data, bc.cycles, &opts);
    for (lane, want) in lanes.iter().enumerate() {
        let name = bc.circuit.name();
        assert_eq!(a.lanes[lane].outputs.concat(), want.expected, "{name}");
        assert_eq!(b.lanes[lane].outputs.concat(), want.expected, "{name}");
    }
    digest
}

/// Checks every configuration of one circuit against its pinned row
/// (in [`CONFIGS`] order), printing the whole measured row on mismatch.
fn check(lanes: &[BenchCircuit], pinned: [u64; 6]) {
    let got: Vec<u64> = CONFIGS.iter().map(|&cfg| digest(lanes, cfg)).collect();
    let name = lanes[0].circuit.name();
    let row: Vec<String> = got.iter().map(|d| format!("0x{d:016x}")).collect();
    for ((cfg, &want), &have) in CONFIGS.iter().zip(&pinned).zip(&got) {
        assert_eq!(
            have,
            want,
            "{name} {cfg:?}: transcript digest moved; measured row [{}]",
            row.join(", ")
        );
    }
}

#[test]
fn transcript_sum32() {
    check(
        &[
            bench_circuits::sum(32, 0xdead_beef, 0x600d_f00d),
            bench_circuits::sum(32, 0x0123_4567, 0x89ab_cdef),
        ],
        [
            0x6c6a1a812540a387,
            0x3967b6bdc472a340,
            0xa14c1377e9ec3f31,
            0xdb2a5251932df738,
            0xda945bdcbb85d06d,
            0xfbf05bc452b920d3,
        ],
    );
}

#[test]
fn transcript_compare32() {
    check(
        &[
            bench_circuits::compare(32, 77, 999),
            bench_circuits::compare(32, 4_000_000_000, 12),
        ],
        [
            0x444d974d5846a04d,
            0x75cc1e2fa667e2c4,
            0xceb381c5c895404a,
            0xccb7f4084ac44c2f,
            0xb7448db7b8f580d5,
            0xa8cd44cced5ba536,
        ],
    );
}

#[test]
fn transcript_hamming32() {
    check(
        &[
            bench_circuits::hamming(32, &[0x9e37_79b9], &[0x7f4a_7c15]),
            bench_circuits::hamming(32, &[0xffff_0000], &[0x0f0f_0f0f]),
        ],
        [
            0xabc731a2dff5f550,
            0xe4de4cfcce05a6af,
            0xf2130152069d662c,
            0x24dff973fbaab23e,
            0x50fa5b87819cf5e5,
            0x9098426669e3d7f8,
        ],
    );
}

#[test]
fn transcript_matrix_mult3() {
    check(
        &[
            bench_circuits::matrix_mult(3, &[3, 1, 4, 1, 5, 9, 2, 6, 5], &[2; 9]),
            bench_circuits::matrix_mult(3, &[7; 9], &[1, 2, 3, 4, 5, 6, 7, 8, 9]),
        ],
        [
            0x7c1e3d0e23feaf96,
            0x281e6bdb05e92458,
            0x803274393f6ca2f3,
            0x186136f3419eb2fc,
            0xb0ca6791c392ea32,
            0xb2a2d6f278d36f12,
        ],
    );
}

#[test]
fn transcript_aes128() {
    check(
        &[
            bench_circuits::aes128(
                core::array::from_fn(|i| i as u8),
                core::array::from_fn(|i| 16 + i as u8),
            ),
            bench_circuits::aes128([0xa5; 16], core::array::from_fn(|i| (i * 7) as u8)),
        ],
        [
            0x29f3bd4d53de5bf0,
            0x23e2949d13ec26b8,
            0x852528b1e912d8c1,
            0xa3dec2d11c943d98,
            0xfe37d317024c5b51,
            0x4c7531551b188b3e,
        ],
    );
}

/// Formats a measured digest row for a mismatch message.
fn row(got: &[u64]) -> String {
    let row: Vec<String> = got.iter().map(|d| format!("0x{d:016x}")).collect();
    format!("[{}]", row.join(", "))
}

/// Three lanes of one random sequential circuit, every input drawn per
/// lane, public ones included: the lanes' decision vectors diverge, so
/// each cycle garbles a different gate set per lane. Pinned at one and
/// two shards.
#[test]
fn transcript_random_divergent_lanes() {
    const LANES: usize = 3;
    const CYCLES: usize = 5;
    let mut rng = TestRng::new(0x00d1_7e26);
    let params = RandomCircuitParams {
        inputs: (4, 4, 4),
        dffs: 8,
        gates: 300,
        outputs: 8,
        output_mode: OutputMode::PerCycle,
    };
    let c = random_circuit(&mut rng, params);
    let drawn: Vec<_> = (0..LANES)
        .map(|_| random_inputs(&mut rng, &c, CYCLES))
        .collect();
    let lanes = Lanes {
        alices: drawn.iter().map(|l| l.0.clone()).collect(),
        bobs: drawn.iter().map(|l| l.1.clone()).collect(),
        publics: drawn.iter().map(|l| l.2.clone()).collect(),
    };
    let pinned = [0x35117edc0095cd01, 0x7fef19db981e160d];
    let mut got = Vec::new();
    for shards in [1, 2] {
        let opts = SessionOptions::new().instances(LANES).shards(shards);
        let (a, b, digest) = session(&c, &lanes, CYCLES, &opts);
        for (lane, (al, bo, pu)) in drawn.iter().enumerate() {
            let sim = Simulator::new(&c).run(al, bo, pu, CYCLES);
            assert_eq!(a.lanes[lane].outputs, sim.outputs, "lane {lane}");
            assert_eq!(b.lanes[lane].outputs, sim.outputs, "lane {lane}");
        }
        let tables: Vec<u64> = a.lanes.iter().map(|l| l.stats.garbled_tables).collect();
        assert!(
            tables.windows(2).any(|w| w[0] != w[1]),
            "lanes garble alike ({tables:?}): their decisions do not diverge"
        );
        got.push(digest);
    }
    assert_eq!(
        got,
        pinned,
        "random lanes: digests moved; measured row {}",
        row(&got)
    );
}

/// Two lanes of the small garbled CPU running different public programs
/// (`sum32` and one-word `hamming`), so the lanes' decisions differ
/// every cycle and the first lane halts while the second runs on.
/// Pinned at one and two shards.
#[test]
fn transcript_cpu_divergent_programs() {
    const MAX_CYCLES: usize = 64;
    let m = GcMachine::new(CpuConfig::small());
    let progs = [programs::sum32(), programs::hamming(1)];
    let (alice, bob) = ([0x9e37_79b9u32], [0x7f4a_7c15u32]);
    let mut lanes = Lanes {
        alices: Vec::new(),
        bobs: Vec::new(),
        publics: Vec::new(),
    };
    let mut want = Vec::new();
    for src in &progs {
        let prog = assemble(src).expect("assembles");
        let (a, b, p) = m.party_data(&prog, &alice, &bob);
        lanes.alices.push(a);
        lanes.bobs.push(b);
        lanes.publics.push(p);
        want.push(m.run_iss(&prog, &alice, &bob, MAX_CYCLES));
    }
    assert!(want.iter().all(|run| run.halted), "both programs halt");
    assert_ne!(want[0].cycles, want[1].cycles, "lanes halt apart");

    let pinned = [0xe5e806e82f3cebe9, 0x65123eab2d61fece];
    let mut got = Vec::new();
    let out_bits = m.config().out_words * 32;
    for shards in [1, 2] {
        let opts = SessionOptions::new().instances(2).shards(shards);
        let (a, b, digest) = session(m.circuit(), &lanes, MAX_CYCLES, &opts);
        for (lane, iss) in want.iter().enumerate() {
            for party in [&a, &b] {
                let run = &party.lanes[lane];
                let output = bits_to_words(&run.final_output()[..out_bits]);
                assert_eq!(output, iss.output, "lane {lane} output");
                assert_eq!(run.stats.cycles_run, iss.cycles, "lane {lane} cycles");
            }
        }
        got.push(digest);
    }
    assert_eq!(
        got,
        pinned,
        "cpu lanes: digests moved; measured row {}",
        row(&got)
    );
}
