//! One complete two-party session, both parties in this process, driven
//! through `drive_garbler` / `drive_evaluator` and verified against the
//! cleartext model.

use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Instant;

use arm2gc_circuit::sim::PartyData;
use arm2gc_circuit::Circuit;
use arm2gc_comm::{duplex, Channel, CountingChannel, MemChannel, TcpChannel, TrafficStats};
use arm2gc_core::{
    drive_evaluator, drive_garbler, InstancedOutcome, SessionOptions, SkipGateStats, WavefrontStats,
};
use arm2gc_crypto::Prg;

use crate::trace::{in_span, Recorder, Under};

/// What one session computes on: one entry per lane, plus the output
/// bits the cleartext model says each lane must produce.
#[derive(Clone, Debug)]
pub struct Inputs {
    /// Alice's (the garbler's) data per lane.
    pub alices: Vec<PartyData>,
    /// Bob's (the evaluator's) data per lane.
    pub bobs: Vec<PartyData>,
    /// Public data per lane.
    pub publics: Vec<PartyData>,
    /// Expected output bits per lane, every output frame concatenated.
    pub expected: Vec<Vec<bool>>,
}

/// What a session runs: the netlist, its cycle budget and how.
#[derive(Clone, Copy, Debug)]
pub struct Job<'a> {
    /// The netlist every lane runs.
    pub circuit: &'a Circuit,
    /// Clock-cycle budget.
    pub cycles: usize,
    /// Session configuration, equal on both sides.
    pub opts: &'a SessionOptions,
    /// How the two parties are connected.
    pub transport: Transport<'a>,
}

/// How the two parties of a session are connected.
#[derive(Clone, Copy, Debug)]
pub enum Transport<'a> {
    /// In-memory [`duplex`] channels.
    Mem,
    /// A fresh loopback TCP connection per session: the garbler accepts
    /// on this listener, the evaluator connects to it.
    Tcp(&'a TcpListener),
}

/// The deterministic counters of one session (they repeat exactly for
/// equal inputs and code).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Counters {
    /// Payload bytes sent, both directions, every channel.
    pub wire_bytes: u64,
    /// Frames sent, both directions, every channel.
    pub frames: u64,
    /// The garbler's cost counters, summed over lanes (`cycles_run` is
    /// the longest lane).
    pub stats: SkipGateStats,
    /// The garbler's batching statistics for the whole session.
    pub batching: WavefrontStats,
}

/// A verified session.
#[derive(Clone, Copy, Debug)]
pub struct SessionReport {
    /// Wall seconds from before the channels exist to both parties'
    /// outputs decoded and verified.
    pub seconds: f64,
    /// What it cost.
    pub counters: Counters,
}

type Counted = (Box<dyn Channel>, Arc<TrafficStats>);

fn counted(ch: impl Channel + 'static) -> Counted {
    let (ch, stats) = CountingChannel::new(ch);
    (Box::new(ch), stats)
}

fn sum_lanes(outcome: &InstancedOutcome) -> SkipGateStats {
    let mut sum = SkipGateStats::default();
    for lane in &outcome.lanes {
        let s = &lane.stats;
        sum.garbled_tables += s.garbled_tables;
        sum.skipped_nonlinear += s.skipped_nonlinear;
        sum.public_gates += s.public_gates;
        sum.pass_gates += s.pass_gates;
        sum.free_xor += s.free_xor;
        sum.table_bytes += s.table_bytes;
        sum.ots += s.ots;
        sum.cycles_run = sum.cycles_run.max(s.cycles_run);
    }
    sum
}

/// Corrupts the expected outputs, to show that verification catches a
/// wrong result (`--break-expected`).
pub fn break_expected(expected: &mut [Vec<bool>]) {
    expected[0][0] ^= true;
}

/// Checks one party's decoded outputs against the cleartext model.
pub fn verify(
    party: &str,
    outcome: &InstancedOutcome,
    expected: &[Vec<bool>],
) -> Result<(), String> {
    if outcome.lanes.len() != expected.len() {
        return Err(format!(
            "{party}: {} lanes, expected {}",
            outcome.lanes.len(),
            expected.len()
        ));
    }
    for (lane, (got, want)) in outcome.lanes.iter().zip(expected).enumerate() {
        if &got.outputs.concat() != want {
            return Err(format!(
                "{party}: lane {lane} output differs from the cleartext model"
            ));
        }
    }
    Ok(())
}

/// Runs and verifies one session of `job` on `inputs`.
///
/// With `trace`, the session and each party's driver call are recorded
/// as spans (`session` → `core.garbler_s` ‖ `core.evaluator_s`) under
/// the given session id. `prg_seed` seeds both parties' label/OT
/// randomness, so a run is reproducible end to end.
///
/// # Errors
/// A description of the first failure: a transport or protocol error on
/// either side, or outputs that differ from `inputs.expected`.
pub fn run_session(
    job: &Job<'_>,
    inputs: &Inputs,
    trace: Option<(&Recorder, u64)>,
    prg_seed: u64,
) -> Result<SessionReport, String> {
    let start = Instant::now();
    let under = trace.map(|(rec, id)| (rec, None, id));
    in_span(under, "session", |under| {
        run_parties(job, inputs, under, prg_seed)
    })
    .map(|counters| SessionReport {
        seconds: start.elapsed().as_secs_f64(),
        counters,
    })
}

fn party_prg(prg_seed: u64, role: u64) -> Prg {
    let mut bytes = [0u8; 16];
    bytes[..8].copy_from_slice(&prg_seed.to_le_bytes());
    bytes[8..].copy_from_slice(&role.to_le_bytes());
    Prg::from_seed(bytes)
}

/// One party's end of the session's main channel, opened on that
/// party's own thread so a TCP accept and connect can meet.
enum End<'a> {
    Mem(MemChannel),
    Accept(&'a TcpListener),
    Connect(&'a TcpListener),
}

impl End<'_> {
    fn open(self) -> Result<Counted, String> {
        let stream = match self {
            End::Mem(ch) => return Ok(counted(ch)),
            End::Accept(listener) => listener.accept().map(|(stream, _)| stream),
            End::Connect(listener) => listener.local_addr().and_then(TcpStream::connect),
        }
        .map_err(|e| format!("loopback connection: {e}"))?;
        TcpChannel::from_stream(stream)
            .map(counted)
            .map_err(|e| format!("loopback connection: {e}"))
    }
}

fn run_parties(
    job: &Job<'_>,
    inputs: &Inputs,
    under: Under<'_>,
    prg_seed: u64,
) -> Result<Counters, String> {
    let Job {
        circuit,
        cycles,
        opts,
        transport,
    } = *job;
    let (g_end, e_end) = match transport {
        Transport::Mem => {
            let (g, e) = duplex();
            (End::Mem(g), End::Mem(e))
        }
        Transport::Tcp(listener) => (End::Accept(listener), End::Connect(listener)),
    };
    let mut g_shards: Vec<Box<dyn Channel>> = Vec::new();
    let mut e_shards: Vec<Box<dyn Channel>> = Vec::new();
    let mut shard_traffic: Vec<Arc<TrafficStats>> = Vec::new();
    if opts.shards > 1 {
        if !matches!(transport, Transport::Mem) {
            return Err("sharded sessions are only benchmarked in memory".to_string());
        }
        for _ in 0..opts.shards {
            let (g, e) = duplex();
            let (g, gs) = counted(g);
            let (e, es) = counted(e);
            g_shards.push(g);
            e_shards.push(e);
            shard_traffic.extend([gs, es]);
        }
    }

    // Each party runs on a thread of its own, started for the session. (With
    // the evaluator on the process's main thread, `hdl_compare16384` settled
    // on a different level in every process, up to 13 % apart; on fresh
    // threads its ten-run spread fell from 0.095 to 0.04.)
    type Party = Result<(InstancedOutcome, Arc<TrafficStats>), String>;
    let (alice, bob) = std::thread::scope(|s| {
        let garbler = s.spawn(move || -> Party {
            let (mut ch, traffic) = g_end.open()?;
            let mut prg = party_prg(prg_seed, 0);
            let mut ot = opts.ot.sender(opts.ot_config, &mut prg);
            let outcome = in_span(under, "core.garbler_s", |_| {
                drive_garbler(
                    circuit,
                    &inputs.alices,
                    &inputs.publics,
                    cycles,
                    ch.as_mut(),
                    g_shards,
                    ot.as_mut(),
                    &mut prg,
                    opts,
                )
            })
            .map_err(|e| format!("garbler: {e}"))?;
            Ok((outcome, traffic))
        });
        let evaluator = s.spawn(move || -> Party {
            let (mut ch, traffic) = e_end.open()?;
            let mut prg = party_prg(prg_seed, 1);
            let mut ot = opts.ot.receiver(opts.ot_config, &mut prg);
            let outcome = in_span(under, "core.evaluator_s", |_| {
                drive_evaluator(
                    circuit,
                    &inputs.bobs,
                    &inputs.publics,
                    cycles,
                    ch.as_mut(),
                    e_shards,
                    ot.as_mut(),
                    opts,
                )
            })
            .map_err(|e| format!("evaluator: {e}"))?;
            Ok((outcome, traffic))
        });
        // A party that fails drops its channel ends when its thread
        // returns, so the other sees the disconnect and neither join
        // can hang.
        let join = |party: std::thread::ScopedJoinHandle<'_, Party>, name: &str| {
            party
                .join()
                .unwrap_or_else(|_| Err(format!("{name} thread panicked")))
        };
        (join(garbler, "garbler"), join(evaluator, "evaluator"))
    });
    let (alice, g_main) = alice?;
    let (bob, e_main) = bob?;

    verify("garbler", &alice, &inputs.expected)?;
    verify("evaluator", &bob, &inputs.expected)?;

    let mut counters = Counters {
        stats: sum_lanes(&alice),
        batching: alice.batching,
        ..Counters::default()
    };
    for t in [&g_main, &e_main].into_iter().chain(&shard_traffic) {
        counters.wire_bytes += t.sent_bytes();
        counters.frames += t.sent_msgs();
    }
    Ok(counters)
}
