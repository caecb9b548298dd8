//! The fault matrix: every injection point × {instances 1, 8}, over
//! real loopback TCP.
//!
//! Each cell binds a fresh service, runs one session with a scripted
//! [`FaultPlan`] against it, and runs two clean co-tenant sessions of
//! the same mode alongside. The contract asserted per cell:
//!
//! 1. **No hang** — every cell finishes (the suite would time out in
//!    CI otherwise; deadlines bound every wait).
//! 2. **Exact typed reason** — the faulted session's record carries the
//!    precise [`SessionError`] variant its injection must produce.
//! 3. **Containment** — co-tenant outcomes are byte-identical to solo
//!    runs of the same workload.
//! 4. **Exact books** — accepted/completed/failed and the per-reason
//!    failure buckets account for every session, no more, no less.
//!
//! Alongside the matrix: regression tests for graceful drain shutdown
//! and the client's deterministic retry policy.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use arm2gc_comm::{FaultChannel, FaultKind, FaultPlan};
use arm2gc_core::{run_two_party_opts, InstancedOutcome, SessionOptions};
use arm2gc_crypto::Prg;
use arm2gc_server::{
    client, workload, ClientError, FailureReason, GarblerService, RetryPolicy, ServiceConfig,
    SessionError,
};

/// Tag byte of the `Hello` frame — the first protocol frame each side
/// sends, and the one every in-band injection in the matrix targets.
const TAG_HELLO: u8 = 1;

/// Socket deadline used by cells that need one (the stall cell) — long
/// enough that clean loopback co-tenants never trip it.
const IO_TIMEOUT: Duration = Duration::from_millis(400);

/// Polls `cond` for up to ten seconds — the per-cell no-hang bound.
fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The in-band injection points of the matrix. Each names the fault
/// applied to the evaluator's first protocol frame (its `Hello`) and
/// the exact typed reason the service must record.
#[derive(Clone, Copy, Debug)]
enum Inject {
    /// Flip a magic byte: the frame arrives, decodes to garbage.
    CorruptHello,
    /// Deliver a strict prefix of the frame body.
    TruncateHello,
    /// Deliver a prefix, then close — a write that died mid-frame.
    ShortWriteHello,
    /// Close instead of sending; the service sees a real disconnect.
    Disconnect,
    /// Swallow the frame; the service's read deadline elapses.
    SilentDrop,
}

impl Inject {
    const ALL: [Inject; 5] = [
        Inject::CorruptHello,
        Inject::TruncateHello,
        Inject::ShortWriteHello,
        Inject::Disconnect,
        Inject::SilentDrop,
    ];

    /// The scripted plan: frame 0 of the evaluator's send direction is
    /// its `Hello` (the garbler speaks first; the preamble is not
    /// wrapped).
    fn plan(self, seed: u64) -> FaultPlan {
        let kind = match self {
            // XOR the first magic byte: a full-size frame that fails
            // decode deterministically ("bad magic"). A seed-chosen
            // flip could land in an opaque byte and decode fine.
            Inject::CorruptHello => FaultKind::CorruptAt(vec![(1, 0xff)]),
            Inject::TruncateHello => FaultKind::Truncate,
            Inject::ShortWriteHello => FaultKind::ShortWrite,
            Inject::Disconnect => FaultKind::Disconnect,
            Inject::SilentDrop => FaultKind::DropFrame,
        };
        FaultPlan::new(seed).on_send(0, kind)
    }

    /// The exact typed reason the service must record for this cell.
    fn expected(self) -> SessionError {
        match self {
            Inject::CorruptHello | Inject::TruncateHello | Inject::ShortWriteHello => {
                SessionError::CorruptFrame { tag: TAG_HELLO }
            }
            Inject::Disconnect => SessionError::PeerDisconnect,
            Inject::SilentDrop => SessionError::Timeout,
        }
    }

    /// The metrics bucket the failure must land in.
    fn bucket(self) -> FailureReason {
        self.expected().reason()
    }
}

/// Connects a session, wraps its main channel in the faulted plan, and
/// drives the evaluator until the injected fault kills it. The drive's
/// error is the client's own view; the assertions live server-side.
fn run_faulted_session(
    addr: SocketAddr,
    name: &str,
    opts: &SessionOptions,
    plan: FaultPlan,
) -> std::thread::JoinHandle<()> {
    let conn = client::connect(addr, name, opts).expect("faulted session preamble");
    let wl = workload::resolve(name, opts.instances).expect("known workload");
    let opts = *opts;
    std::thread::spawn(move || {
        let mut main = FaultChannel::new(conn.main, plan);
        let mut prg = Prg::from_entropy();
        let mut ot = opts.ot.receiver(opts.ot_config, &mut prg);
        let _ = arm2gc_core::drive_evaluator(
            &wl.circuit,
            &wl.bobs,
            &wl.publics,
            wl.cycles,
            &mut main,
            Vec::new(),
            ot.as_mut(),
            &opts,
        );
    })
}

/// The per-lane-count solo baselines, computed once and shared by every
/// cell with that lane count.
fn solo_baseline(
    cache: &mut HashMap<usize, InstancedOutcome>,
    name: &str,
    instances: usize,
) -> InstancedOutcome {
    cache
        .entry(instances)
        .or_insert_with(|| {
            let wl = workload::resolve(name, instances).expect("known workload");
            let opts = SessionOptions::new().instances(instances);
            let (_, solo_b) = run_two_party_opts(
                &wl.circuit,
                &wl.alices,
                &wl.bobs,
                &wl.publics,
                wl.cycles,
                &opts,
            );
            solo_b
        })
        .clone()
}

/// One matrix cell: fault one session, verify typed teardown, clean
/// co-tenants, and exact accounting.
fn run_cell(inject: Inject, instances: usize, baselines: &mut HashMap<usize, InstancedOutcome>) {
    let cell = format!("{inject:?} x {instances} lanes");
    let svc = GarblerService::bind(
        "127.0.0.1:0",
        ServiceConfig::new().workers(2).io_timeout(Some(IO_TIMEOUT)),
    )
    .expect("bind service");
    let addr = svc.local_addr();
    let opts = SessionOptions::new().instances(instances);
    let clean_name = format!("sum32:{}", 10 + instances);

    // Fire the fault; seed fixed so a failing cell replays exactly.
    let faulted = run_faulted_session(addr, &clean_name, &opts, inject.plan(0xfau64));

    // Clean co-tenants run while the faulted session is live (or
    // failing) — containment means they never notice.
    let want = solo_baseline(baselines, &clean_name, instances);
    for k in 0..2 {
        let run = client::run_session(addr, &clean_name, &opts)
            .unwrap_or_else(|e| panic!("{cell}: co-tenant {k} failed: {e}"));
        assert_eq!(run.outcome.lanes.len(), want.lanes.len(), "{cell}: lanes");
        for (lane, (got, sol)) in run.outcome.lanes.iter().zip(&want.lanes).enumerate() {
            assert_eq!(got.outputs, sol.outputs, "{cell} lane {lane}: outputs");
            assert_eq!(got.stats, sol.stats, "{cell} lane {lane}: counters");
        }
    }

    wait_until("faulted session torn down", || {
        svc.metrics().sessions_failed == 1
    });
    wait_until("books settle", || {
        let m = svc.metrics();
        m.sessions_completed == 2 && m.sessions_active == 0
    });
    faulted.join().expect("faulted client thread exits");

    // Exact books: three accepted, two completed, one failed — in
    // exactly the expected bucket, all others empty.
    let m = svc.metrics();
    assert_eq!(m.sessions_accepted, 3, "{cell}: accepted");
    assert_eq!(m.sessions_rejected, 0, "{cell}: rejected");
    assert_eq!(m.sessions_completed, 2, "{cell}: completed");
    assert_eq!(m.sessions_failed, 1, "{cell}: failed");
    let buckets = [
        (FailureReason::Timeout, m.failed_timeout),
        (FailureReason::PeerDisconnect, m.failed_peer_disconnect),
        (FailureReason::CorruptFrame, m.failed_corrupt_frame),
        (FailureReason::Other, m.failed_other),
    ];
    for (reason, count) in buckets {
        let want = u64::from(reason == inject.bucket());
        assert_eq!(count, want, "{cell}: bucket {reason:?}");
    }

    // The faulted record names the exact typed reason.
    let records = svc.records();
    assert_eq!(records.len(), 3, "{cell}: records");
    let failed: Vec<_> = records.iter().filter(|r| r.result.is_err()).collect();
    assert_eq!(failed.len(), 1, "{cell}: one failed record");
    assert_eq!(
        failed[0].result.as_ref().unwrap_err(),
        &inject.expected(),
        "{cell}: typed reason"
    );
    assert_eq!(
        failed[0].instances, instances,
        "{cell}: failed record lanes"
    );
    svc.shutdown();
}

#[test]
fn fault_matrix_single_shard_single_lane() {
    let mut baselines = HashMap::new();
    for inject in Inject::ALL {
        run_cell(inject, 1, &mut baselines);
    }
}

#[test]
fn fault_matrix_single_shard_batched() {
    let mut baselines = HashMap::new();
    for inject in Inject::ALL {
        run_cell(inject, 8, &mut baselines);
    }
}

/// Graceful shutdown drains active sessions inside the window, then
/// refuses new ones.
#[test]
fn shutdown_drains_active_sessions() {
    let svc =
        GarblerService::bind("127.0.0.1:0", ServiceConfig::new().workers(2)).expect("bind service");
    let addr = svc.local_addr();

    // One live session: preamble done, evaluator deliberately held, so
    // its garbler job is active when the drain starts.
    let opts = SessionOptions::new();
    let stalled = client::connect(addr, "compare32:3", &opts).expect("live preamble");
    wait_until("live session active", || svc.metrics().sessions_active >= 1);
    assert_eq!(svc.metrics().sessions_accepted, 1);

    // Drain in a thread (it blocks on the active session), then drive
    // the held session to completion inside the window.
    let drain = std::thread::spawn(move || svc.shutdown_drain(Duration::from_secs(10)));
    let wl = workload::resolve("compare32:3", 1).expect("known workload");
    let run = client::drive(stalled, &wl, &opts).expect("live session completes");
    assert_eq!(run.outcome.lanes[0].outputs.concat(), wl.expected[0]);
    let drained = drain.join().expect("drain thread");
    assert!(drained, "active session finished inside the drain window");

    // New connections are refused outright.
    let err =
        client::run_session(addr, "sum32:1", &SessionOptions::new()).expect_err("service is gone");
    assert!(
        matches!(
            err,
            ClientError::Io(_) | ClientError::Closed | ClientError::Rejected(_)
        ),
        "got {err:?}"
    );
}

/// The retry policy gives up with a typed error carrying the attempt
/// count and last failure — and its backoff schedule is deterministic.
#[test]
fn connect_retry_gives_up_with_a_typed_error() {
    // Bind-then-drop: the port is (almost certainly) refusing.
    let addr = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        l.local_addr().expect("addr")
    };
    let policy = RetryPolicy {
        attempts: 3,
        base_delay: Duration::from_millis(1),
        max_delay: Duration::from_millis(4),
        seed: 7,
    };
    let t0 = Instant::now();
    let err = client::connect_with_retry(addr, "sum32:1", &SessionOptions::new(), &policy)
        .expect_err("nothing is listening");
    match err {
        ClientError::RetriesExhausted { attempts, last } => {
            assert_eq!(attempts, 3);
            assert!(last.is_transient(), "last error transient: {last:?}");
        }
        other => panic!("expected RetriesExhausted, got {other:?}"),
    }
    // All backoffs are bounded by max_delay; three attempts against a
    // refusing port finish promptly (no unbounded spin).
    assert!(t0.elapsed() < Duration::from_secs(5));
}

/// Permanent answers are not retried: a typed rejection surfaces
/// immediately, un-wrapped, after exactly one attempt.
#[test]
fn rejections_are_not_retried() {
    let svc =
        GarblerService::bind("127.0.0.1:0", ServiceConfig::new().workers(1)).expect("bind service");
    let addr = svc.local_addr();
    let policy = RetryPolicy::default();
    let err =
        client::run_session_with_retry(addr, "no-such-workload:1", &SessionOptions::new(), &policy)
            .expect_err("unknown workload");
    assert!(
        matches!(err, ClientError::UnknownWorkload(_)),
        "got {err:?}"
    );
    // Unknown workloads are caught locally; a server-side rejection is
    // equally final.
    let err =
        client::connect_with_retry(addr, "sum32:1", &SessionOptions::new().shards(0), &policy)
            .expect_err("invalid options");
    assert!(matches!(err, ClientError::Config(_)), "got {err:?}");
    assert_eq!(
        svc.metrics().sessions_rejected,
        0,
        "nothing bogus ever reached the wire"
    );
    svc.shutdown();
}
