//! Load generator for the garbler service.
//!
//! Binds an in-process [`GarblerService`] and hammers it with `N`
//! concurrent evaluator clients across a fixed mix of lane counts
//! (`instances ∈ {1,8}`, alternating workload families). Every
//! session's outputs and per-lane cost counters are checked
//! byte-for-byte against a solo in-process run of the same workload;
//! any divergence (or failed session) makes the process exit nonzero,
//! so CI can smoke-run it.
//!
//! `--ot np-iknp` switches the whole fleet to the real Naor–Pinkas +
//! IKNP stack (over the fast test group unless `--ot-group standard`),
//! and `--sessions N` runs N sequential sessions per client under one
//! base-OT reuse token each — the printed OT books then separate the
//! base setups paid from the OTs served by extending cached state.
//!
//! ```text
//! cargo run --release -p arm2gc-server --bin load_gen -- --clients 64 --workers 8
//! cargo run --release -p arm2gc-server --bin load_gen -- \
//!     --clients 16 --ot np-iknp --sessions 4
//! ```

use std::process::ExitCode;
use std::sync::mpsc;
use std::thread;
use std::time::Instant;

use arm2gc_core::{run_two_party_opts, OtBackend, OtConfig, SessionOptions};
use arm2gc_server::{client, workload, GarblerService, RetryPolicy, ServiceConfig};

/// The lane counts the clients cycle through.
const LANES: [usize; 2] = [1, 8];

struct Args {
    clients: usize,
    workers: usize,
    sessions: usize,
    ot: OtBackend,
    ot_config: OtConfig,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        clients: 64,
        workers: 8,
        sessions: 1,
        ot: OtBackend::Insecure,
        ot_config: OtConfig::TEST,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let mut raw = |name: &str| -> Result<String, String> {
            iter.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--clients" => {
                args.clients = raw("--clients")?
                    .parse()
                    .map_err(|e| format!("--clients: {e}"))?;
            }
            "--workers" => {
                args.workers = raw("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
            }
            "--sessions" => {
                args.sessions = raw("--sessions")?
                    .parse()
                    .map_err(|e| format!("--sessions: {e}"))?;
            }
            "--ot" => {
                args.ot = match raw("--ot")?.as_str() {
                    "insecure" => OtBackend::Insecure,
                    "np-iknp" => OtBackend::NaorPinkasIknp,
                    other => return Err(format!("--ot: unknown backend {other:?}")),
                };
            }
            "--ot-group" => {
                args.ot_config = match raw("--ot-group")?.as_str() {
                    "test" => OtConfig::TEST,
                    "standard" => OtConfig::STANDARD,
                    other => return Err(format!("--ot-group: unknown group {other:?}")),
                };
            }
            "--help" | "-h" => {
                return Err(
                    "usage: load_gen [--clients N] [--workers N] [--sessions N] \
                     [--ot insecure|np-iknp] [--ot-group test|standard]"
                        .to_string(),
                )
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.clients == 0 || args.workers == 0 || args.sessions == 0 {
        return Err("--clients, --workers and --sessions must be at least 1".to_string());
    }
    Ok(args)
}

/// One client's verdict: `Ok(lanes)` across its verified sessions.
fn run_client(addr: std::net::SocketAddr, k: usize, args: &Args) -> Result<usize, String> {
    let instances = LANES[k % LANES.len()];
    let family = workload::FAMILIES[k % workload::FAMILIES.len()];
    let name = format!("{family}:{k}");
    let opts = SessionOptions::new()
        .instances(instances)
        .ot(args.ot)
        .ot_config(args.ot_config);
    // Retry transient connect failures (a briefly saturated accept
    // backlog under hundreds of simultaneous clients) with a backoff
    // seeded per client so the herd spreads out deterministically.
    let policy = RetryPolicy {
        seed: k as u64,
        ..RetryPolicy::default()
    };
    let wl = workload::resolve(&name, instances).expect("known workload");
    let (_, solo) = run_two_party_opts(
        &wl.circuit,
        &wl.alices,
        &wl.bobs,
        &wl.publics,
        wl.cycles,
        &opts,
    );
    // Every client reuses one base-OT token across its sessions (inert
    // under the insecure backend).
    let mut resume = client::OtResume::new(k as u64 + 1);
    let mut lanes_verified = 0usize;
    for s in 0..args.sessions {
        let mut attempt = 0;
        let run = loop {
            match client::run_session_resumed(addr, &name, &opts, &mut resume) {
                Ok(run) => break run,
                // Only a session with no banked state is safely
                // retryable — once state exists, a transient failure
                // forfeits it server-side and the next attempt must
                // observe the un-resumed accept (which the call above
                // handles), so retry those too.
                Err(e) if e.is_transient() && attempt + 1 < policy.attempts => {
                    thread::sleep(policy.delay(attempt));
                    attempt += 1;
                }
                Err(e) => return Err(format!("client {k} ({name}) session {s}: {e}")),
            }
        };
        if run.outcome.lanes.len() != instances {
            return Err(format!(
                "client {k} ({name}) session {s}: lane count mismatch"
            ));
        }
        for (lane, (got, want)) in run.outcome.lanes.iter().zip(&solo.lanes).enumerate() {
            if got.outputs != want.outputs {
                return Err(format!(
                    "client {k} ({name}) session {s} lane {lane}: outputs diverge from solo run"
                ));
            }
            if got.stats != want.stats {
                return Err(format!(
                    "client {k} ({name}) session {s} lane {lane}: cost counters diverge"
                ));
            }
            if got.outputs.concat() != wl.expected[lane] {
                return Err(format!(
                    "client {k} ({name}) session {s} lane {lane}: wrong cleartext result"
                ));
            }
        }
        lanes_verified += instances;
    }
    Ok(lanes_verified)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let svc = match GarblerService::bind(
        "127.0.0.1:0",
        ServiceConfig::new()
            .workers(args.workers)
            .ot(args.ot)
            .ot_config(args.ot_config),
    ) {
        Ok(svc) => svc,
        Err(e) => {
            eprintln!("bind: {e}");
            return ExitCode::FAILURE;
        }
    };
    let addr = svc.local_addr();
    println!(
        "load_gen: {} clients x {} sessions over {} workers at {addr} \
         (lanes {LANES:?}, ot {:?})",
        args.clients, args.sessions, args.workers, args.ot
    );

    let start = Instant::now();
    let (tx, rx) = mpsc::channel();
    let args = std::sync::Arc::new(args);
    let handles: Vec<_> = (0..args.clients)
        .map(|k| {
            let tx = tx.clone();
            let args = std::sync::Arc::clone(&args);
            thread::spawn(move || {
                let _ = tx.send(run_client(addr, k, &args));
            })
        })
        .collect();
    drop(tx);

    let mut lanes_verified = 0usize;
    let mut failures = 0usize;
    for verdict in rx {
        match verdict {
            Ok(lanes) => lanes_verified += lanes,
            Err(msg) => {
                failures += 1;
                eprintln!("FAIL {msg}");
            }
        }
    }
    for h in handles {
        let _ = h.join();
    }
    let elapsed = start.elapsed();

    // Clients hold their full outcomes slightly before the garbler
    // side finishes its books — wait (bounded) for the records to
    // settle so the final accounting isn't racing a teardown.
    let want_sessions = args.clients * args.sessions;
    let settle = Instant::now() + std::time::Duration::from_secs(10);
    while Instant::now() < settle {
        let m = svc.metrics();
        if (m.sessions_completed + m.sessions_failed) as usize >= want_sessions {
            break;
        }
        thread::sleep(std::time::Duration::from_millis(10));
    }
    let m = svc.metrics();
    svc.shutdown();
    let secs = elapsed.as_secs_f64().max(f64::EPSILON);
    #[allow(clippy::cast_precision_loss)]
    let tables_per_sec = m.tables_sent as f64 / secs;
    println!(
        "sessions: {} accepted, {} completed, {} failed, {} rejected",
        m.sessions_accepted, m.sessions_completed, m.sessions_failed, m.sessions_rejected
    );
    println!(
        "failures: {} timeout, {} disconnect, {} corrupt, {} other, {} preamble-expired",
        m.failed_timeout,
        m.failed_peer_disconnect,
        m.failed_corrupt_frame,
        m.failed_other,
        m.rejected_preamble_timeout
    );
    println!(
        "queues:   job high-water {}, send high-water {} frames",
        m.job_queue_high_water, m.send_queue_high_water
    );
    println!(
        "ot:       {} base setups, {} OTs by extension, {} cached states evicted",
        m.ot_base_setups, m.ot_extended, m.ot_cache_evicted
    );
    println!(
        "volume:   {} tables ({} bytes) in {:.2}s -> {tables_per_sec:.0} tables/sec",
        m.tables_sent, m.table_bytes_sent, secs
    );
    println!("verified: {lanes_verified} lanes byte-equal to solo runs, {failures} failures");

    let all_completed = m.sessions_completed as usize == want_sessions;
    if failures == 0 && all_completed && m.sessions_failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
