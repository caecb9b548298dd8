//! A striped table stream over real sockets, larger than their buffers.
//!
//! `matrix_mult(8, …)` garbles 522,304 tables (16.7 MB) in one cycle,
//! far more than loopback socket buffers hold. Over two shard sockets
//! the garbler deals its whole table frames round-robin and the
//! evaluator pulls them in the same order, so a send that blocks waits
//! only for the evaluator to read frames already sent: the session
//! finishes with one thread per party. Socket deadlines turn a
//! deadlock into a typed error, never a hang.
//!
//! Slow without optimisations; run it with
//! `cargo test --release -p arm2gc-core --test sharded_tcp -- --ignored`.

use std::net::TcpListener;
use std::slice;
use std::time::Duration;

use arm2gc_circuit::bench_circuits;
use arm2gc_comm::{Channel, TcpChannel};
use arm2gc_core::{drive_evaluator, drive_garbler, SessionOptions};
use arm2gc_crypto::Prg;
use arm2gc_ot::InsecureOt;

const SHARDS: usize = 2;

/// Read and write deadline of every socket: far beyond a healthy run,
/// which takes seconds.
const DEADLINE: Duration = Duration::from_secs(120);

fn with_deadline(ch: TcpChannel) -> TcpChannel {
    ch.set_read_timeout(Some(DEADLINE)).expect("read deadline");
    ch.set_write_timeout(Some(DEADLINE))
        .expect("write deadline");
    ch
}

#[test]
#[ignore = "slow without optimisations: run with `--release -- --ignored`"]
fn matmul8_two_shards_over_loopback_tcp() {
    let a: Vec<u32> = (0..64u32).map(|i| i.wrapping_mul(0x9e37_79b9)).collect();
    let b: Vec<u32> = (0..64u32)
        .map(|i| i.wrapping_mul(0x7f4a_7c15) ^ i)
        .collect();
    let bc = bench_circuits::matrix_mult(8, &a, &b);
    let opts = SessionOptions::new().shards(SHARDS);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local address");
    let (alice, bob) = std::thread::scope(|s| {
        let garbler = s.spawn(|| {
            // Accept order fixes shard identity: the main channel first,
            // then one socket per shard, in shard order.
            let accept = || {
                let (stream, _) = listener.accept().expect("accept");
                with_deadline(TcpChannel::from_stream(stream).expect("wrap socket"))
            };
            let mut ch = accept();
            let shard_chs = (0..SHARDS)
                .map(|_| Box::new(accept()) as Box<dyn Channel>)
                .collect();
            let mut prg = Prg::from_seed([0x42; 16]);
            drive_garbler(
                &bc.circuit,
                slice::from_ref(&bc.alice),
                slice::from_ref(&bc.public),
                bc.cycles,
                &mut ch,
                shard_chs,
                &mut InsecureOt,
                &mut prg,
                &opts,
            )
            .expect("garbler")
        });
        let connect = || with_deadline(TcpChannel::connect(addr).expect("connect"));
        let mut ch = connect();
        let shard_chs = (0..SHARDS)
            .map(|_| Box::new(connect()) as Box<dyn Channel>)
            .collect();
        let bob = drive_evaluator(
            &bc.circuit,
            slice::from_ref(&bc.bob),
            slice::from_ref(&bc.public),
            bc.cycles,
            &mut ch,
            shard_chs,
            &mut InsecureOt,
            &opts,
        )
        .expect("evaluator");
        (garbler.join().expect("garbler thread"), bob)
    });
    for party in [&alice, &bob] {
        assert_eq!(party.lanes[0].outputs.concat(), bc.expected);
        assert_eq!(party.lanes[0].stats.garbled_tables, 522_304);
    }
}
