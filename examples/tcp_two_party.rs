//! Two-process deployment: garbler and evaluator in *separate OS
//! processes*, talking over TCP — the paper's evaluation setting, on
//! one machine.
//!
//! The parent process plays Alice (garbler): it binds an ephemeral
//! port, re-launches this same binary as the evaluator child, and runs
//! the SkipGate protocol over [`TcpChannel`] — versioned session
//! handshake, real Naor–Pinkas + IKNP OT, chunked table streaming. With
//! `--shards N` (the orchestrated default is 2) the garbled-table
//! stream is striped: the evaluator opens one extra socket per shard
//! and the garbler deals its table frames round-robin over them, frame
//! `f` on shard `f mod N`, from the one thread that garbles. Both
//! processes independently check the result against the cleartext
//! circuit simulator.
//!
//! Run with: `cargo run --release --example tcp_two_party`
//! (or manually: `... -- --role evaluator --addr HOST:PORT --shards N`
//! in a second terminal after starting
//! `... -- --role garbler --addr HOST:PORT --shards N`).
//!
//! The shard count is out-of-band session configuration (it decides
//! how many sockets each side opens before the protocol even starts),
//! so in manual mode both processes must be given the same `--shards`;
//! mismatched values leave one side waiting in socket setup. The
//! orchestrated mode passes the flag through to the child itself.
//!
//! With `--instances N` (> 1) the session runs in instanced mode: N
//! independent millionaires' comparisons — each lane with its own
//! inputs — garbled through one struct-of-arrays label store, so every
//! lane of a ready gate flows through the same batched AES call.
//! Like `--shards`, the lane count is out-of-band session
//! configuration and must match on both sides in manual mode.

use std::process::{Command, Stdio};

use arm2gc::circuit::bench_circuits::{self, BenchCircuit};
use arm2gc::circuit::sim::{PartyData, Simulator};
use arm2gc::comm::{Channel, TcpChannel};
use arm2gc::core::{
    drive_evaluator, drive_garbler, InstancedOutcome, OtBackend, OtConfig, SessionOptions,
};
use arm2gc::crypto::Prg;
use arm2gc::proto::PROTOCOL_VERSION;

/// Both processes derive the same per-lane workloads deterministically:
/// the millionaires' problem as a comparison circuit, one shared
/// circuit with distinct inputs per lane. Lane `k` raises Alice's
/// wealth by `k` million, so the winner flips across lanes and the
/// printed results show that each lane really computed on its own
/// inputs. (In a real deployment each party would of course load only
/// its own input.)
fn lane_workloads(instances: usize) -> Vec<BenchCircuit> {
    (0..instances)
        .map(|k| bench_circuits::compare(32, 5_300_000 + 1_000_000 * k as u64, 7_100_000))
        .collect()
}

/// What the in-process simulator says every lane's outputs must be.
fn check_against_simulator(who: &str, lanes: &[BenchCircuit], outcome: &InstancedOutcome) {
    for (bc, lane) in lanes.iter().zip(&outcome.lanes) {
        let sim = Simulator::new(&bc.circuit).run(&bc.alice, &bc.bob, &bc.public, bc.cycles);
        assert_eq!(
            lane.outputs, sim.outputs,
            "{who}: TCP protocol run disagrees with the in-process simulator"
        );
    }
}

fn garbler_side(mut ch: TcpChannel, shard_chs: Vec<Box<dyn Channel>>, opts: &SessionOptions) {
    let lanes = lane_workloads(opts.instances);
    let alices: Vec<PartyData> = lanes.iter().map(|bc| bc.alice.clone()).collect();
    let publics: Vec<PartyData> = lanes.iter().map(|bc| bc.public.clone()).collect();
    let mut prg = Prg::from_entropy();
    let mut ot = opts.ot.sender(opts.ot_config, &mut prg);
    let outcome = drive_garbler(
        &lanes[0].circuit,
        &alices,
        &publics,
        lanes[0].cycles,
        &mut ch,
        shard_chs,
        ot.as_mut(),
        &mut prg,
        opts,
    )
    .expect("garbler protocol run");
    check_against_simulator("garbler", &lanes, &outcome);
    let richer = |bob: bool| if bob { "Bob" } else { "Alice" };

    if opts.instances == 1 {
        let lane = &outcome.lanes[0];
        println!("two-process SkipGate over TCP (protocol v{PROTOCOL_VERSION})");
        println!(
            "  circuit: {} ({} cycles)",
            lanes[0].circuit.name(),
            lanes[0].cycles
        );
        let sockets = 1 + if opts.shards > 1 { opts.shards } else { 0 };
        println!(
            "  table-stream shards:  {} ({sockets} socket{})",
            opts.shards,
            if sockets > 1 { "s" } else { "" },
        );
        println!("  garbled tables sent: {}", lane.stats.garbled_tables);
        println!("  OTs executed:        {}", lane.stats.ots);
        println!("  result: {} is richer", richer(lane.final_output()[0]));
        println!("  verified against the in-process simulator ✓");
        return;
    }

    println!("two-process instanced SkipGate over TCP (protocol v{PROTOCOL_VERSION})");
    println!(
        "  circuit: {} ({} cycles), {} lanes",
        lanes[0].circuit.name(),
        lanes[0].cycles,
        opts.instances
    );
    println!(
        "  mean batch width:    {:.1} session-wide, {:.1} per instance",
        outcome.batching.mean_batch(),
        outcome.batching.mean_batch_per_instance()
    );
    for (k, lane) in outcome.lanes.iter().enumerate() {
        println!(
            "  lane {k}: {} is richer ({} tables, {} OTs)",
            richer(lane.final_output()[0]),
            lane.stats.garbled_tables,
            lane.stats.ots
        );
    }
    println!("  all lanes verified against the in-process simulator ✓");
}

fn evaluator_side(addr: &str, opts: &SessionOptions) {
    let lanes = lane_workloads(opts.instances);
    // Connection order fixes shard identity: main channel first, then
    // one socket per shard, in shard order.
    let mut ch = TcpChannel::connect(addr).expect("connect to garbler");
    let shard_chs = connect_shards(addr, opts.shards);
    let bobs: Vec<PartyData> = lanes.iter().map(|bc| bc.bob.clone()).collect();
    let publics: Vec<PartyData> = lanes.iter().map(|bc| bc.public.clone()).collect();
    let mut prg = Prg::from_entropy();
    let mut ot = opts.ot.receiver(opts.ot_config, &mut prg);
    let outcome = drive_evaluator(
        &lanes[0].circuit,
        &bobs,
        &publics,
        lanes[0].cycles,
        &mut ch,
        shard_chs,
        ot.as_mut(),
        opts,
    )
    .expect("evaluator protocol run");
    check_against_simulator("evaluator", &lanes, &outcome);
}

/// Opens the evaluator's per-shard sockets (none when unsharded).
fn connect_shards(addr: &str, shards: usize) -> Vec<Box<dyn Channel>> {
    if shards == 1 {
        return Vec::new();
    }
    (0..shards)
        .map(|k| {
            Box::new(TcpChannel::connect(addr).unwrap_or_else(|e| panic!("shard {k} socket: {e}")))
                as Box<dyn Channel>
        })
        .collect()
}

/// Accepts the garbler's per-shard sockets off `listener` (none when
/// unsharded). TCP queues connections in order, so the `k`-th accepted
/// socket is shard `k`.
fn accept_shards(listener: &std::net::TcpListener, shards: usize) -> Vec<Box<dyn Channel>> {
    if shards == 1 {
        return Vec::new();
    }
    (0..shards)
        .map(|k| {
            let (stream, _) = listener
                .accept()
                .unwrap_or_else(|e| panic!("accept shard {k}: {e}"));
            Box::new(TcpChannel::from_stream(stream).expect("wrap shard stream"))
                as Box<dyn Channel>
        })
        .collect()
}

fn arg_after(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// The session both processes run: `--shards` (default
/// `default_shards`) table-stream sockets, `--instances` lanes, over
/// the real Naor–Pinkas + IKNP OT stack (fast test group).
fn session_options(default_shards: usize) -> SessionOptions {
    let count = |flag: &str, default: usize| -> usize {
        let n = arg_after(flag)
            .map(|s| {
                s.parse()
                    .unwrap_or_else(|_| panic!("{flag} takes a positive integer"))
            })
            .unwrap_or(default);
        assert!(n >= 1, "{flag} takes a positive integer");
        n
    };
    SessionOptions::new()
        .shards(count("--shards", default_shards))
        .instances(count("--instances", 1))
        .ot(OtBackend::NaorPinkasIknp)
        .ot_config(OtConfig::TEST)
}

fn main() {
    match arg_after("--role").as_deref() {
        Some("evaluator") => {
            let addr = arg_after("--addr").expect("--addr required for the evaluator role");
            evaluator_side(&addr, &session_options(1));
        }
        Some("garbler") => {
            let addr = arg_after("--addr").expect("--addr required for the garbler role");
            let opts = session_options(1);
            let listener = TcpChannel::listener(&*addr).expect("bind");
            let (stream, _) = listener.accept().expect("accept");
            let main_ch = TcpChannel::from_stream(stream).expect("wrap stream");
            let shard_chs = accept_shards(&listener, opts.shards);
            garbler_side(main_ch, shard_chs, &opts);
        }
        Some(other) => panic!("unknown --role {other} (use garbler|evaluator)"),
        None => {
            // Orchestrate both processes: bind first so the child can
            // connect immediately, then spawn ourselves as evaluator.
            // The default exercises a sharded stream over two sockets.
            let opts = session_options(2);
            let listener = TcpChannel::listener("127.0.0.1:0").expect("bind ephemeral port");
            let addr = listener.local_addr().expect("local addr").to_string();
            let exe = std::env::current_exe().expect("own path");
            let mut child = Command::new(exe)
                .args(["--role", "evaluator", "--addr", &addr])
                .args(["--shards", &opts.shards.to_string()])
                .args(["--instances", &opts.instances.to_string()])
                .stdout(Stdio::inherit())
                .stderr(Stdio::inherit())
                .spawn()
                .expect("spawn evaluator process");

            let (stream, peer) = listener.accept().expect("accept");
            println!("evaluator process connected from {peer}");
            let main_ch = TcpChannel::from_stream(stream).expect("wrap stream");
            let shard_chs = accept_shards(&listener, opts.shards);
            garbler_side(main_ch, shard_chs, &opts);

            let status = child.wait().expect("wait for evaluator");
            assert!(status.success(), "evaluator process failed: {status}");
            println!("  evaluator process exited cleanly ✓");
        }
    }
}
