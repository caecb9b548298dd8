//! Base-OT reuse across a client's sessions, over real loopback TCP.
//!
//! The contract: N sequential sessions under one resume token pay
//! exactly one Naor–Pinkas base-OT setup (pinned via the deterministic
//! `ot_base_setups` counter), produce outputs byte-identical to
//! fresh-setup runs, and an evicted or foreign token transparently
//! falls back to a fresh setup. Back-to-back sessions on one token never
//! resume a state the client does not hold. Hostile bytes at the OT
//! seam tear down exactly that session with a typed reason — the
//! service keeps serving.

use std::time::{Duration, Instant};

use arm2gc_comm::Channel;
use arm2gc_core::{run_two_party_opts, OtBackend, OtConfig, SessionOptions};
use arm2gc_proto::{Message, SessionRole, PROTOCOL_VERSION};
use arm2gc_server::{
    client, workload, ClientError, FailureReason, GarblerService, ServiceConfig, SessionError,
};

/// Polls `cond` for up to five seconds.
fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// A service running the real OT stack over the fast test group.
fn bind_np_service(config: ServiceConfig) -> GarblerService {
    GarblerService::bind(
        "127.0.0.1:0",
        config
            .ot(OtBackend::NaorPinkasIknp)
            .ot_config(OtConfig::TEST),
    )
    .expect("bind service")
}

fn np_opts() -> SessionOptions {
    SessionOptions::new()
        .ot(OtBackend::NaorPinkasIknp)
        .ot_config(OtConfig::TEST)
}

#[test]
fn sessions_on_one_token_pay_one_base_setup() {
    let svc = bind_np_service(ServiceConfig::new().workers(2));
    let addr = svc.local_addr();
    let opts = np_opts();
    let name = "compare32:7";
    let wl = workload::resolve(name, 1).expect("known workload");
    let (_, solo_b) = run_two_party_opts(
        &wl.circuit,
        &wl.alices,
        &wl.bobs,
        &wl.publics,
        wl.cycles,
        &opts,
    );

    let mut resume = client::OtResume::new(0xb0b);
    for k in 0..3 {
        let run = client::run_session_resumed(addr, name, &opts, &mut resume)
            .unwrap_or_else(|e| panic!("session {k}: {e}"));
        // Reused state never changes what the session computes.
        for (lane, want) in run.outcome.lanes.iter().zip(&solo_b.lanes) {
            assert_eq!(lane.outputs, want.outputs, "session {k}: outputs");
        }
        assert!(resume.state.is_some(), "session {k} banked receiver state");
        // Sequential reuse means waiting for the garbler to bank its
        // state before the next request checks the cache.
        wait_until("session recorded", || svc.records().len() == k + 1);
    }
    let m = svc.metrics();
    assert_eq!(m.sessions_completed, 3);
    // The tentpole number: three sessions, one base setup. Every OT
    // after the first session extends the cached IKNP columns.
    assert_eq!(m.ot_base_setups, 1, "one setup across the token's sessions");
    assert_eq!(m.ot_cache_evicted, 0);
    // `ot_extended` is a pure function of the workloads run: equal
    // per-session label counts, three sessions.
    assert_eq!(m.ot_extended % 3, 0);
    assert!(m.ot_extended > 0);
    svc.shutdown();
}

#[test]
fn distinct_tokens_and_token_zero_each_pay_their_own_setup() {
    let svc = bind_np_service(ServiceConfig::new().workers(2));
    let addr = svc.local_addr();
    let opts = np_opts();
    let name = "sum32:3";

    let mut first = client::OtResume::new(1);
    let mut second = client::OtResume::new(2);
    client::run_session_resumed(addr, name, &opts, &mut first).expect("token 1");
    client::run_session_resumed(addr, name, &opts, &mut second).expect("token 2");
    // Token 0 is the opt-out: nothing cached, nothing resumed.
    let mut none = client::OtResume::new(0);
    client::run_session_resumed(addr, name, &opts, &mut none).expect("token 0");
    assert!(none.state.is_none(), "token 0 banks no state");

    wait_until("sessions recorded", || svc.records().len() == 3);
    assert_eq!(svc.metrics().ot_base_setups, 3);
    svc.shutdown();
}

#[test]
fn evicted_state_falls_back_to_a_fresh_setup() {
    let svc = bind_np_service(
        ServiceConfig::new()
            .workers(1)
            .ot_cache_timeout(Some(Duration::from_millis(50))),
    );
    let addr = svc.local_addr();
    let opts = np_opts();
    let name = "compare32:9";

    let mut resume = client::OtResume::new(0xcafe);
    client::run_session_resumed(addr, name, &opts, &mut resume).expect("first session");
    wait_until("cache eviction", || svc.metrics().ot_cache_evicted == 1);

    // The service no longer holds the state; the accept comes back
    // un-resumed, the client drops its stale half, and both ends pay a
    // fresh setup — transparently.
    let run =
        client::run_session_resumed(addr, name, &opts, &mut resume).expect("post-eviction session");
    let wl = workload::resolve(name, 1).expect("known workload");
    let (_, solo_b) = run_two_party_opts(
        &wl.circuit,
        &wl.alices,
        &wl.bobs,
        &wl.publics,
        wl.cycles,
        &opts,
    );
    assert_eq!(run.outcome.lanes[0].outputs, solo_b.lanes[0].outputs);

    wait_until("sessions recorded", || svc.records().len() == 2);
    assert_eq!(svc.metrics().ot_base_setups, 2);
    svc.shutdown();
}

#[test]
fn failed_session_drops_state_on_both_ends() {
    let svc = bind_np_service(ServiceConfig::new().workers(2));
    let addr = svc.local_addr();
    let opts = np_opts();
    let mut resume = client::OtResume::new(0xdead);
    client::run_session_resumed(addr, "sum32:1", &opts, &mut resume).expect("first session");
    wait_until("first session recorded", || svc.records().len() == 1);

    // Fail the second session mid-protocol: complete the preamble with
    // the token, then disconnect. The service drops the checked-out
    // state instead of returning it.
    let conn = client::connect_with_token(addr, "sum32:1", &opts, resume.token).expect("preamble");
    assert!(conn.resumed, "second session checked the state out");
    drop(conn);
    wait_until("failed session recorded", || {
        svc.metrics().sessions_failed == 1
    });

    // Third session: the cache slot is empty again, so the accept is
    // un-resumed and the client's (still banked) state is discarded
    // for a fresh setup.
    client::run_session_resumed(addr, "sum32:1", &opts, &mut resume).expect("post-failure session");
    wait_until("sessions recorded", || {
        svc.metrics().sessions_completed == 2
    });
    // Session 1 paid a setup; session 2 died before any OT ran (0);
    // session 3 pays a *fresh* setup because the failure forfeited the
    // cached state — were it still cached, the total would stay 1.
    assert_eq!(
        svc.metrics().ot_base_setups,
        2,
        "failure forfeits the cached setup"
    );
    svc.shutdown();
}

/// The fault-matrix cell at the OT seam: a hostile client completes
/// the handshake, then feeds poison where the Naor–Pinkas `C` element
/// belongs. Each case must tear down exactly its own session with
/// [`SessionError::Protocol`] — never a panic, never another tenant.
#[test]
fn hostile_ot_wire_bytes_fail_typed_and_contained() {
    let svc = bind_np_service(ServiceConfig::new().workers(2));
    let addr = svc.local_addr();
    let opts = np_opts();
    let width = 16; // element width of the 127-bit test group

    let cases: &[(&str, Vec<u8>)] = &[
        // inv(0) = 0 under Fermat inversion — accepting a zero C would
        // collapse both pads to known values.
        ("zero C", vec![0u8; width]),
        ("wrong-width C", vec![7u8; 5]),
        ("empty C", Vec::new()),
        // 2^127 - 1 ≡ 0: reduces to the degenerate element.
        ("unreduced C", vec![0xff; width]),
    ];
    for (k, (what, poison)) in cases.iter().enumerate() {
        let mut conn = client::connect(addr, "sum32:1", &opts).expect("preamble");
        // Garbler speaks first; answer its hello, take the direct
        // labels, then poison the first OT frame.
        let hello = Message::decode(&conn.main.recv().expect("garbler hello")).expect("decode");
        assert!(matches!(hello, Message::Hello { .. }));
        conn.main
            .send(
                &Message::Hello {
                    version: PROTOCOL_VERSION,
                    role: SessionRole::Evaluator,
                }
                .encode(),
            )
            .expect("evaluator hello");
        let labels = Message::decode(&conn.main.recv().expect("direct labels")).expect("decode");
        assert!(matches!(labels, Message::DirectLabels(_)));
        conn.main
            .send(&Message::OtPayload(poison.clone()).encode())
            .expect("poison frame");
        wait_until(what, || svc.metrics().sessions_failed == k as u64 + 1);
        let records = svc.records();
        let record = records.last().expect("failed session recorded");
        assert!(
            matches!(record.result, Err(SessionError::Protocol(_))),
            "{what}: got {:?}",
            record.result
        );
    }

    // Containment: the service still completes an honest session, and
    // the books account for every one.
    client::run_session(addr, "sum32:1", &opts).expect("honest session after poison");
    wait_until("honest session recorded", || {
        svc.metrics().sessions_completed == 1
    });
    let m = svc.metrics();
    assert_eq!(m.sessions_failed, cases.len() as u64);
    assert_eq!(m.failed_other, cases.len() as u64);
    svc.shutdown();
}

/// A token on an [`OtBackend::Insecure`] service is carried but inert:
/// accepted, never resumed, no setups booked.
#[test]
fn insecure_backend_ignores_tokens() {
    let svc =
        GarblerService::bind("127.0.0.1:0", ServiceConfig::new().workers(1)).expect("bind service");
    let addr = svc.local_addr();
    let opts = SessionOptions::new();
    let conn = client::connect_with_token(addr, "sum32:1", &opts, 77).expect("preamble");
    assert!(!conn.resumed);
    drop(conn);
    let mut resume = client::OtResume::new(77);
    client::run_session_resumed(addr, "sum32:1", &opts, &mut resume).expect("session");
    assert!(resume.state.is_none());
    let _ = svc.metrics();
    assert_eq!(svc.metrics().ot_base_setups, 0);
    svc.shutdown();
}

/// `ClientError::ResumeDesync` is typed and permanent (never retried).
#[test]
fn resume_desync_is_a_typed_permanent_error() {
    let e = ClientError::ResumeDesync;
    assert!(!e.is_transient());
    assert!(e.to_string().contains("base-OT"));
    // The reason bucket for protocol-level teardown stays `Other`.
    assert_eq!(
        SessionError::Protocol("zero group element").reason(),
        FailureReason::Other
    );
}

/// Back-to-back resumed sessions on two tokens, every output checked
/// against the cleartext model. Each client reconnects as soon as its
/// evaluator finishes, so its next checkout races the garbler's
/// teardown of the previous session. A stale state cached after a newer
/// checkout would be resumed against the client's newer receiver state:
/// semi-honest IKNP cannot detect that mismatch, so it would show only
/// as wrong outputs.
#[test]
fn back_to_back_resumes_never_decode_wrong_outputs() {
    const TOKENS: u64 = 2;
    const SESSIONS: u64 = 200;
    let svc = bind_np_service(ServiceConfig::new().workers(2));
    let addr = svc.local_addr();
    let opts = np_opts();
    let failures: Vec<String> = std::thread::scope(|s| {
        let clients: Vec<_> = (1..=TOKENS)
            .map(|token| {
                let opts = &opts;
                s.spawn(move || {
                    let mut resume = client::OtResume::new(token);
                    let mut failures = Vec::new();
                    for i in 0..SESSIONS {
                        let family = workload::FAMILIES[(i % 2) as usize];
                        let name = format!("{family}:{}", token * 1000 + i);
                        let wl = workload::resolve(&name, 1).expect("known workload");
                        match client::run_session_resumed(addr, &name, opts, &mut resume) {
                            Ok(run) if run.outcome.lanes[0].outputs.concat() == wl.expected[0] => {}
                            Ok(_) => failures.push(format!("token {token} {name}: wrong output")),
                            Err(e) => failures.push(format!("token {token} {name}: {e}")),
                        }
                    }
                    failures
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread"))
            .collect()
    });
    assert!(
        failures.is_empty(),
        "{} of {} sessions failed: {failures:?}",
        failures.len(),
        TOKENS * SESSIONS
    );
    wait_until("sessions recorded", || {
        svc.metrics().sessions_completed == TOKENS * SESSIONS
    });
    svc.shutdown();
}
