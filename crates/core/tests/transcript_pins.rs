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

use std::sync::{Arc, Mutex};

use arm2gc_circuit::bench_circuits::{self, BenchCircuit};
use arm2gc_comm::{duplex, Channel, ChannelError};
use arm2gc_core::{
    drive_evaluator, drive_garbler, shard_duplexes, EngineKind, InstancedOutcome, SessionOptions,
};
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
    let shards = opts.shard_config().expect("shard count");
    let alices: Vec<_> = lanes.iter().map(|l| l.alice.clone()).collect();
    let bobs: Vec<_> = lanes.iter().map(|l| l.bob.clone()).collect();
    let publics: Vec<_> = lanes.iter().map(|l| l.public.clone()).collect();

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
                &bc.circuit,
                &alices,
                &publics,
                bc.cycles,
                &mut ca,
                g_shards,
                &mut InsecureOt,
                &mut prg,
                &opts,
            )
            .expect("garbler")
        });
        let b = drive_evaluator(
            &bc.circuit,
            &bobs,
            &publics,
            bc.cycles,
            &mut cb,
            e_shards,
            &mut InsecureOt,
            &opts,
        )
        .expect("evaluator");
        (garbler.join().expect("garbler thread"), b)
    });
    for (lane, want) in lanes.iter().enumerate() {
        let name = bc.circuit.name();
        assert_eq!(a.lanes[lane].outputs.concat(), want.expected, "{name}");
        assert_eq!(b.lanes[lane].outputs.concat(), want.expected, "{name}");
    }

    let mut h = Fnv::new();
    absorb(&mut h, &g_logs);
    absorb(&mut h, &e_logs);
    h.0
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
