//! End-to-end service tests over real loopback TCP: mixed-mode
//! sessions verified against solo runs, backpressure isolation under a
//! stalled evaluator, malformed-frame teardown, and typed rejections.

use std::net::TcpStream;
use std::time::{Duration, Instant};

use arm2gc_comm::{Channel, TcpChannel};
use arm2gc_core::{run_two_party_opts, SessionOptions};
use arm2gc_proto::Message;
use arm2gc_server::{client, workload, ClientError, GarblerService, ServiceConfig, SessionError};

/// Polls `cond` for up to five seconds.
fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn mixed_mode_sessions_match_solo_runs() {
    let svc =
        GarblerService::bind("127.0.0.1:0", ServiceConfig::new().workers(2)).expect("bind service");
    let addr = svc.local_addr();
    for (k, instances) in [1, 8].into_iter().enumerate() {
        let family = workload::FAMILIES[k % workload::FAMILIES.len()];
        let name = format!("{family}:{k}");
        let opts = SessionOptions::new().instances(instances);
        let run = client::run_session(addr, &name, &opts).expect("service session");
        let wl = workload::resolve(&name, instances).expect("known workload");
        let (solo_a, solo_b) = run_two_party_opts(
            &wl.circuit,
            &wl.alices,
            &wl.bobs,
            &wl.publics,
            wl.cycles,
            &opts,
        );
        assert_eq!(run.outcome.lanes.len(), instances, "{name}: lane count");
        for (lane, (got, want)) in run.outcome.lanes.iter().zip(&solo_b.lanes).enumerate() {
            assert_eq!(got.outputs, want.outputs, "{name} lane {lane}: outputs");
            assert_eq!(got.stats, want.stats, "{name} lane {lane}: cost counters");
            assert_eq!(
                got.outputs.concat(),
                wl.expected[lane],
                "{name} lane {lane}: cleartext model"
            );
        }
        // The service's per-session record carries the garbler-side
        // counters; those must equal the solo garbler's too.
        wait_until("session recorded", || svc.records().len() == k + 1);
        let record = &svc.records()[k];
        assert_eq!(record.workload, name);
        assert_eq!(record.instances, instances);
        let stats = record.result.as_ref().expect("session succeeded");
        let solo_stats: Vec<_> = solo_a.lanes.iter().map(|l| l.stats).collect();
        assert_eq!(*stats, solo_stats, "{name}: service vs solo garbler stats");
    }
    wait_until("all sessions complete", || {
        svc.metrics().sessions_completed == 2
    });
    let m = svc.metrics();
    assert_eq!(m.sessions_accepted, 2);
    assert_eq!(m.sessions_completed, 2);
    assert_eq!(m.sessions_failed, 0);
    assert_eq!(m.sessions_active, 0);
    assert!(m.tables_sent > 0);
    assert!(m.table_bytes_sent >= 32 * m.tables_sent);
    svc.shutdown();
}

#[test]
fn stalled_evaluator_does_not_block_other_sessions() {
    let svc =
        GarblerService::bind("127.0.0.1:0", ServiceConfig::new().workers(2)).expect("bind service");
    let addr = svc.local_addr();
    let opts = SessionOptions::new();

    // A client that completes the preamble and then stalls: its
    // garbler job starts, sends its hello through the bounded send
    // queue, and wedges waiting for a reply — holding one worker.
    let stalled = client::connect(addr, "compare32:99", &opts).expect("stalled preamble");
    wait_until("stalled session occupies a worker", || {
        svc.metrics().sessions_active >= 1
    });

    // Meanwhile other tenants come and go on the remaining worker.
    for k in 0..3 {
        let name = format!("sum32:{k}");
        let run = client::run_session(addr, &name, &opts).expect("concurrent session");
        let wl = workload::resolve(&name, 1).expect("known workload");
        assert_eq!(run.outcome.lanes[0].outputs.concat(), wl.expected[0]);
    }
    wait_until("other sessions complete around the stall", || {
        svc.metrics().sessions_completed == 3
    });
    let m = svc.metrics();
    assert_eq!(m.sessions_completed, 3);
    assert_eq!(m.sessions_failed, 0);
    assert!(
        m.sessions_active >= 1,
        "stalled session still holds its worker"
    );
    assert!(m.job_queue_high_water >= 1);
    assert!(
        m.send_queue_high_water >= 1,
        "stalled garbler queued frames"
    );

    // Unstall: the parked session still completes correctly.
    let wl = workload::resolve("compare32:99", 1).expect("known workload");
    let run = client::drive(stalled, &wl, &opts).expect("stalled session completes");
    assert_eq!(run.outcome.lanes[0].outputs.concat(), wl.expected[0]);
    wait_until("stalled session completes", || {
        svc.metrics().sessions_completed == 4
    });
    assert_eq!(svc.metrics().sessions_failed, 0);
    svc.shutdown();
}

#[test]
fn malformed_frame_tears_down_only_its_session() {
    let svc =
        GarblerService::bind("127.0.0.1:0", ServiceConfig::new().workers(2)).expect("bind service");
    let addr = svc.local_addr();
    let opts = SessionOptions::new();

    // Valid preamble, then garbage where the handshake belongs.
    let mut conn = client::connect(addr, "compare32:5", &opts).expect("preamble");
    let _hello = conn.main.recv().expect("garbler speaks first");
    conn.main
        .send(b"\xffnot a protocol frame")
        .expect("send garbage");
    wait_until("poisoned session torn down", || {
        svc.metrics().sessions_failed == 1
    });

    // Only that session died; the next one is served normally.
    let run = client::run_session(addr, "compare32:6", &opts).expect("service survives");
    let wl = workload::resolve("compare32:6", 1).expect("known workload");
    assert_eq!(run.outcome.lanes[0].outputs.concat(), wl.expected[0]);
    wait_until("clean session completes", || {
        svc.metrics().sessions_completed == 1
    });
    let m = svc.metrics();
    assert_eq!((m.sessions_failed, m.sessions_completed), (1, 1));
    assert_eq!(m.sessions_active, 0);

    let records = svc.records();
    assert_eq!(records.len(), 2);
    // The poisoned session's record names the exact typed reason: a
    // corrupt frame, attributed to the garbage tag byte it led with.
    assert_eq!(
        records[0].result.as_ref().unwrap_err(),
        &SessionError::CorruptFrame { tag: 0xff },
        "poisoned session recorded its reason"
    );
    assert_eq!(svc.metrics().failed_corrupt_frame, 1);
    assert!(records[1].result.is_ok());
    svc.shutdown();
}

#[test]
fn invalid_requests_get_typed_rejections() {
    let svc =
        GarblerService::bind("127.0.0.1:0", ServiceConfig::new().workers(1)).expect("bind service");
    let addr = svc.local_addr();

    let reject_reason = |frame: Vec<u8>| -> String {
        let mut ch =
            TcpChannel::from_stream(TcpStream::connect(addr).expect("connect")).expect("channel");
        ch.send(&frame).expect("send request");
        match Message::decode(&ch.recv().expect("verdict")).expect("decode verdict") {
            Message::ServiceReject { reason } => reason,
            other => panic!("expected ServiceReject, got {other:?}"),
        }
    };
    let request = |shards: u8, instances: u16, workload: &str| {
        reject_reason(
            Message::ServiceRequest {
                shards,
                instances,
                ot_token: 0,
                workload: workload.to_string(),
            }
            .encode(),
        )
    };

    assert!(request(0, 1, "compare32:1").contains("shard"));
    // A session is one connection: more shards would need more.
    assert!(request(2, 1, "compare32:1").contains("shard"));
    assert!(request(1, 0, "compare32:1").contains("instance"));
    assert!(request(1, 1, "aes512:1").contains("unknown workload"));
    assert!(reject_reason(b"\x00nonsense".to_vec()).contains("malformed"));
    // Tag 12 once attached a shard connection; it is no frame now.
    let attach = [12, 1, 0, 0, 0, 0, 0, 0, 0, 1].to_vec();
    assert!(reject_reason(attach).contains("malformed"));

    let m = svc.metrics();
    assert_eq!(m.sessions_rejected, 6);
    assert_eq!(m.sessions_accepted, 0);

    // The client validates locally too — a zero shard count never even
    // reaches the wire.
    let err = client::run_session(addr, "compare32:1", &SessionOptions::new().shards(0))
        .expect_err("local validation");
    assert!(matches!(err, ClientError::Config(_)), "got {err:?}");
    svc.shutdown();
}
