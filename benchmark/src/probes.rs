//! Per-crate probes of the traced run.
//!
//! Each probe replays one layer's share of a workload's work through
//! that layer's public entry point, sized from the counters of one of
//! the workload's own sessions: cycles, tables, bytes, frames, OTs and
//! the mean batch width. A probe is an estimate of the layer's share,
//! not a measurement inside the session — in-engine timers are a later
//! issue — so the shares need not add up; `unattributed_frac` says by
//! how much they fall short.

use std::hint::black_box;
use std::net::TcpStream;
use std::time::Instant;

use arm2gc_circuit::sim::PartyData;
use arm2gc_circuit::{Circuit, DffInit, LayerSchedule, Op, Role};
use arm2gc_comm::{duplex, Channel, TcpChannel};
use arm2gc_core::{DecideContext, DecisionCounts, OtConfig, TagAllocator, WireVal};
use arm2gc_crypto::{Aes128, Delta, GarbleHash, Label, Prg};
use arm2gc_garble::{EvalJob, GarbleJob, HalfGateEvaluator, HalfGateGarbler};
use arm2gc_ot::{OtReceiver, OtSender};
use arm2gc_proto::{Message, ResumableOtReceiver, ResumableOtSender};

use crate::report::Metric;
use crate::session::Counters;
use crate::stats::median;

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

fn probe_prg() -> Prg {
    Prg::from_seed(*b"arm2gc-benchmark")
}

/// `circuit.*`: levelling the netlist with `LayerSchedule::of`, as every
/// instanced session does once.
pub fn circuit_level(circuit: &Circuit) -> Vec<Metric> {
    let mut times = Vec::new();
    let mut schedule = None;
    for _ in 0..3 {
        let (s, secs) = timed(|| LayerSchedule::of(circuit));
        times.push(secs);
        schedule = Some(s);
    }
    let s = schedule.expect("three schedules were built");
    vec![
        Metric::new("circuit.level_s", median(&times), "s"),
        Metric::new("circuit.levels", s.levels() as f64, "count"),
        Metric::new("circuit.gates", circuit.gates().len() as f64, "count"),
        Metric::new("circuit.non_xor", f64::from(s.non_xor_count()), "count"),
        Metric::new(
            "circuit.max_nonlinear_width",
            f64::from(s.max_nonlinear_width()),
            "count",
        ),
    ]
}

/// What a decision-only replay of one lane did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DecideReplay {
    /// Decisions summed over every executed cycle.
    pub counts: DecisionCounts,
    /// Cycles executed (stops at a public halt, like the engines).
    pub cycles: usize,
}

/// Replays the SkipGate decision pass of one lane — and nothing else —
/// for up to `cycles` cycles: `DecideContext::new` plus `decide_cycle`
/// per cycle, with the state initialisation, per-cycle public inputs,
/// public-halt check and flip-flop copy the engines perform rebuilt here
/// from `Circuit`'s public accessors. No labels, no tables, no channel.
pub fn decide_replay(circuit: &Circuit, public: &PartyData, cycles: usize) -> DecideReplay {
    let ctx = DecideContext::new(circuit);
    let mut alloc = TagAllocator::new();
    let mut states = vec![WireVal::Public(false); circuit.wire_count()];
    for &(w, v) in circuit.consts() {
        states[w.index()] = WireVal::Public(v);
    }
    for dff in circuit.dffs() {
        states[dff.q.index()] = match dff.init {
            DffInit::Const(v) => WireVal::Public(v),
            DffInit::Public(i) => WireVal::Public(public.init[i as usize]),
            DffInit::Alice(_) | DffInit::Bob(_) => WireVal::Secret(alloc.fresh()),
        };
    }
    let mut replay = DecideReplay::default();
    let mut next_q = Vec::with_capacity(circuit.dffs().len());
    for cycle in 0..cycles {
        let mut public_bits = public.stream.get(cycle).into_iter().flatten();
        for input in circuit.inputs() {
            states[input.wire.index()] = match input.role {
                Role::Public => WireVal::Public(
                    *public_bits
                        .next()
                        .expect("public stream covers every executed cycle"),
                ),
                Role::Alice | Role::Bob => WireVal::Secret(alloc.fresh()),
            };
        }
        let decided = ctx.decide_cycle(&mut states, &mut alloc, cycle + 1 == cycles);
        let c = decided.counts;
        replay.counts.public_out += c.public_out;
        replay.counts.pass += c.pass;
        replay.counts.free_xor += c.free_xor;
        replay.counts.aliased += c.aliased;
        replay.counts.garbled += c.garbled;
        replay.counts.skipped_nonlinear += c.skipped_nonlinear;
        replay.counts.skipped_free += c.skipped_free;
        replay.cycles = cycle + 1;
        let halted = circuit
            .halt_wire()
            .is_some_and(|w| states[w.index()] == WireVal::Public(true));
        next_q.clear();
        next_q.extend(circuit.dffs().iter().map(|d| states[d.d.index()]));
        for (dff, &v) in circuit.dffs().iter().zip(&next_q) {
            states[dff.q.index()] = v;
        }
        if halted {
            break;
        }
    }
    replay
}

/// `core.decide_*` and the decision counts: the replay over every lane
/// of one session.
pub fn core_decide(circuit: &Circuit, publics: &[PartyData], cycles: usize) -> Vec<Metric> {
    let mut counts = DecisionCounts::default();
    let mut visits = 0u64;
    let ((), secs) = timed(|| {
        for public in publics {
            let lane = decide_replay(circuit, public, cycles);
            visits += (lane.cycles * circuit.gates().len()) as u64;
            counts.public_out += lane.counts.public_out;
            counts.pass += lane.counts.pass + lane.counts.aliased;
            counts.free_xor += lane.counts.free_xor;
            counts.garbled += lane.counts.garbled;
            counts.skipped_nonlinear += lane.counts.skipped_nonlinear;
        }
    });
    let per_visit = |x: f64| if visits == 0 { 0.0 } else { x / visits as f64 };
    vec![
        Metric::new("core.decide_s", secs, "s"),
        Metric::new("core.decide_ns_per_gate", per_visit(secs * 1e9), "ns"),
        Metric::new("core.garbled", counts.garbled as f64, "count"),
        Metric::new(
            "core.skipped_nonlinear",
            counts.skipped_nonlinear as f64,
            "count",
        ),
        Metric::new("core.public_out", counts.public_out as f64, "count"),
        Metric::new("core.pass", counts.pass as f64, "count"),
        Metric::new("core.free_xor", counts.free_xor as f64, "count"),
        Metric::new("core.useful_frac", per_visit(counts.garbled as f64), "frac"),
    ]
}

/// The batch width the probes hash at: the session's own mean batch.
fn batch_width(counters: &Counters) -> usize {
    (counters.batching.mean_batch().round() as usize).max(1)
}

/// `garble.*`: the session's table count through
/// `HalfGateGarbler::garble_batch` and `HalfGateEvaluator::eval_batch`,
/// in batches of the session's mean batch width.
pub fn garble_batches(counters: &Counters) -> Vec<Metric> {
    let tables = counters.stats.garbled_tables as usize;
    let width = batch_width(counters);
    let mut prg = probe_prg();
    let garbler = HalfGateGarbler::new(Delta::random(&mut prg));
    let jobs: Vec<GarbleJob> = (0..tables)
        .map(|i| GarbleJob {
            op: Op::AND,
            a0: Label::random(&mut prg),
            b0: Label::random(&mut prg),
            tweak: i as u64,
        })
        .collect();
    let (garbled, garble_s) = timed(|| {
        let mut out = Vec::with_capacity(tables);
        for batch in jobs.chunks(width) {
            out.extend(garbler.garble_batch(batch));
        }
        out
    });
    // Evaluating on the zero-labels is a valid evaluation of each gate.
    let eval_jobs: Vec<EvalJob> = jobs
        .iter()
        .zip(&garbled)
        .map(|(job, &(_, table))| EvalJob {
            a: job.a0,
            b: job.b0,
            table,
            tweak: job.tweak,
        })
        .collect();
    let evaluator = HalfGateEvaluator::new();
    let ((), eval_s) = timed(|| {
        for batch in eval_jobs.chunks(width) {
            black_box(evaluator.eval_batch(batch));
        }
    });
    let per_table = if tables == 0 {
        0.0
    } else {
        garble_s * 1e9 / tables as f64
    };
    vec![
        Metric::new("garble.garble_batch_s", garble_s, "s"),
        Metric::new("garble.eval_batch_s", eval_s, "s"),
        Metric::new("garble.ns_per_table", per_table, "ns"),
    ]
}

/// `crypto.*`: one `hash2_batch` input per table at the session's batch
/// width, and the raw block rate of the detected AES backend.
pub fn crypto_hash(counters: &Counters) -> Vec<Metric> {
    let tables = counters.stats.garbled_tables as usize;
    let width = batch_width(counters);
    let mut prg = probe_prg();
    let inputs: Vec<(Label, Label, u64)> = (0..tables)
        .map(|i| (Label::random(&mut prg), Label::random(&mut prg), i as u64))
        .collect();
    let hash = GarbleHash::fixed();
    let ((), hash_s) = timed(|| {
        for batch in inputs.chunks(width) {
            black_box(hash.hash2_batch(batch));
        }
    });
    let aes = Aes128::new(*b"arm2gc-benchmark");
    let mut blocks: Vec<u128> = (0..4096).map(|_| prg.next_u128()).collect();
    let t = Instant::now();
    let mut encrypted = 0u64;
    while t.elapsed().as_secs_f64() < 0.05 {
        aes.encrypt_u128s(&mut blocks);
        encrypted += blocks.len() as u64;
    }
    black_box(&blocks);
    vec![
        Metric::new("crypto.hash2_batch_s", hash_s, "s"),
        Metric::new(
            "crypto.aes_blocks_per_s",
            encrypted as f64 / t.elapsed().as_secs_f64(),
            "1/s",
        ),
    ]
}

/// The frames a probe moves: as many as the session sent, each of the
/// session's mean frame size.
fn session_frames(counters: &Counters) -> (usize, usize) {
    let frames = counters.frames.max(1) as usize;
    (frames, (counters.wire_bytes as usize / frames).max(1))
}

/// `proto.*` framing: `Message::encode` and `Message::decode` of the
/// session's frame count at its mean frame size, as table frames.
pub fn proto_framing(counters: &Counters) -> Vec<Metric> {
    let (frames, size) = session_frames(counters);
    let message = Message::Tables(vec![0x5a; size]);
    let (encoded, encode_s) = timed(|| {
        let mut last = Vec::new();
        for _ in 0..frames {
            last = black_box(&message).encode();
        }
        last
    });
    let ((), decode_s) = timed(|| {
        for _ in 0..frames {
            black_box(Message::decode(black_box(&encoded)).expect("own encoding decodes"));
        }
    });
    vec![
        Metric::new("proto.encode_s", encode_s, "s"),
        Metric::new("proto.decode_s", decode_s, "s"),
        Metric::new("proto.frames", counters.frames as f64, "count"),
        Metric::new(
            "proto.bytes_per_frame",
            counters.wire_bytes as f64 / counters.frames.max(1) as f64,
            "B",
        ),
    ]
}

/// Sends `frames` frames of `size` bytes from a second thread and
/// receives them here; seconds until the last one arrived.
fn pump(mut tx: impl Channel, mut rx: impl Channel, frames: usize, size: usize) -> f64 {
    let payload = vec![0xa5u8; size];
    let ((), secs) = timed(|| {
        std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..frames {
                    tx.send(&payload).expect("receiver outlives the sender");
                }
            });
            for _ in 0..frames {
                black_box(rx.recv().expect("sender sends every frame"));
            }
        });
    });
    secs
}

/// `comm.*`: the session's frames over an in-memory duplex and over a
/// loopback `TcpChannel`.
///
/// # Panics
/// Panics if no loopback connection can be made.
pub fn comm_transport(counters: &Counters) -> Vec<Metric> {
    let (frames, size) = session_frames(counters);
    let (tx, rx) = duplex();
    let mem_s = pump(tx, rx, frames, size);
    let listener = TcpChannel::listener("127.0.0.1:0").expect("bind a loopback port");
    let addr = listener
        .local_addr()
        .expect("bound listener has an address");
    let tx = TcpChannel::from_stream(TcpStream::connect(addr).expect("loopback connect"))
        .expect("loopback channel");
    let rx = TcpChannel::from_stream(listener.accept().expect("loopback accept").0)
        .expect("loopback channel");
    let tcp_s = pump(tx, rx, frames, size);
    vec![
        Metric::new("comm.mem_send_s", mem_s, "s"),
        Metric::new("comm.tcp_send_s", tcp_s, "s"),
        Metric::new("comm.sent_msgs", counters.frames as f64, "count"),
        Metric::new("comm.sent_bytes", counters.wire_bytes as f64, "B"),
    ]
}

/// `ot.*`: fresh resumable endpoints over an in-memory duplex; the
/// first batch of the session's OT count pays the base setup, a second
/// batch on the warm endpoints pays extension only.
pub fn ot_stack(counters: &Counters, config: OtConfig) -> Vec<Metric> {
    let ots = counters.stats.ots.max(1) as usize;
    let mut prg = probe_prg();
    let pairs: Vec<(Label, Label)> = (0..ots)
        .map(|_| (Label::random(&mut prg), Label::random(&mut prg)))
        .collect();
    let choices: Vec<bool> = (0..ots).map(|_| prg.next_bool()).collect();
    let (mut to_receiver, mut to_sender) = duplex();
    let mut sender = ResumableOtSender::fresh(config, &mut prg);
    let mut receiver = ResumableOtReceiver::fresh(config, &mut prg);
    let mut batch_s = [0.0; 2];
    for secs in &mut batch_s {
        let ((), s) = timed(|| {
            std::thread::scope(|scope| {
                scope.spawn(|| sender.send(&mut to_receiver, &pairs).expect("ot sender"));
                let got = receiver
                    .receive(&mut to_sender, &choices)
                    .expect("ot receiver");
                for ((pair, &choice), label) in pairs.iter().zip(&choices).zip(&got) {
                    assert_eq!(*label, if choice { pair.1 } else { pair.0 }, "ot transfer");
                }
            });
        });
        *secs = s;
    }
    vec![
        Metric::new("ot.base_s", (batch_s[0] - batch_s[1]).max(0.0), "s"),
        Metric::new("ot.extend_s", batch_s[1], "s"),
        Metric::new("ot.ots", counters.stats.ots as f64, "count"),
        Metric::new("ot.base_setups", sender.base_setups() as f64, "count"),
        Metric::new("ot.extended", sender.extended() as f64, "count"),
    ]
}
