//! The `svc_mix` workload: an in-process `GarblerService` under two
//! closed-loop client threads.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use arm2gc_comm::CountingChannel;
use arm2gc_core::{drive_evaluator, OtBackend, OtConfig, SessionOptions};
use arm2gc_crypto::Prg;
use arm2gc_proto::Message;
use arm2gc_server::{client, workload, GarblerService, MetricsSnapshot, ServiceConfig};

use crate::report::{in_per_layer_order, Metric, RunResult};
use crate::run::{
    end_to_end, generic_probes, repeat_setup, span_median, trace_summary, write_trace, Config,
    Tally, Window,
};
use crate::session::{break_expected, run_session, verify, Counters, Inputs, Job, Transport};
use crate::stats::{median, tail};
use crate::trace::{in_span, Recorder};
use crate::workloads::{SplitMix, Workload};

/// The session mix, cycled in this order by each client: workload
/// family × lanes per session.
const MIX: [(&str, usize); 4] = [
    ("compare32", 1),
    ("sum32", 1),
    ("compare32", 8),
    ("sum32", 8),
];

/// Closed-loop client threads.
const CLIENTS: usize = 2;

/// Service worker threads.
const WORKERS: usize = 2;

/// Most sessions one run starts, whatever its length: every session is a
/// fresh loopback connection that leaves a socket in TIME_WAIT, and the
/// ephemeral port range holds about 28,000.
const MAX_SESSIONS: usize = 20_000;

/// One measured session: whether it was traced, its kind (index into
/// [`MIX`]), and its wall seconds.
type Sample = (bool, usize, f64);

fn mix_opts(kind: usize) -> SessionOptions {
    SessionOptions::new().instances(MIX[kind].1)
}

/// A workload name of the given kind with a seed drawn from `rng`. The
/// seed always has six digits, so the preamble — and with it
/// `wire_bytes` — has one length whatever the run's seed.
fn mix_name(kind: usize, rng: &mut SplitMix) -> String {
    format!("{}:{}", MIX[kind].0, 100_000 + rng.next_u32() % 900_000)
}

fn bind(config: ServiceConfig) -> GarblerService {
    GarblerService::bind("127.0.0.1:0", config).expect("bind a loopback port")
}

/// Mean over the kinds present of the median of that kind's samples. A
/// plain median over the whole mix would sit on the gap between the
/// one-lane and the eight-lane sessions and jump between them.
fn mix_median(samples: &[(usize, f64)]) -> f64 {
    let medians: Vec<f64> = (0..MIX.len())
        .map(|kind| {
            samples
                .iter()
                .filter(|(k, _)| *k == kind)
                .map(|(_, s)| *s)
                .collect::<Vec<f64>>()
        })
        .filter(|of_kind| !of_kind.is_empty())
        .map(|of_kind| median(&of_kind))
        .collect();
    medians.iter().sum::<f64>() / medians.len().max(1) as f64
}

/// One client-observed session: resolve the name, connect (TCP connect,
/// preamble, admission), drive the evaluator, verify every lane.
fn client_session(
    addr: SocketAddr,
    name: &str,
    opts: &SessionOptions,
    cfg: &Config,
    trace: Option<(&Recorder, u64)>,
) -> Result<f64, String> {
    let started = Instant::now();
    let under = trace.map(|(rec, id)| (rec, None, id));
    in_span(under, "session", |under| {
        let mut wl = workload::resolve(name, opts.instances)
            .ok_or_else(|| format!("unknown workload {name}"))?;
        if cfg.break_expected {
            break_expected(&mut wl.expected);
        }
        let conn = in_span(under, "server.connect_s", |_| {
            client::connect(addr, name, opts)
        })
        .map_err(|e| format!("{name}: {e}"))?;
        let run = in_span(under, "server.drive_s", |_| client::drive(conn, &wl, opts))
            .map_err(|e| format!("{name}: {e}"))?;
        verify("client", &run.outcome, &wl.expected)
    })?;
    Ok(started.elapsed().as_secs_f64())
}

/// One session through the service with the client's socket wrapped in
/// a `CountingChannel`: bytes in both directions, preamble included,
/// and the table count.
fn counted_session(
    addr: SocketAddr,
    name: &str,
    kind: usize,
    cfg: &Config,
) -> Result<(f64, f64), String> {
    let opts = mix_opts(kind);
    let mut wl = workload::resolve(name, opts.instances)
        .ok_or_else(|| format!("unknown workload {name}"))?;
    if cfg.break_expected {
        break_expected(&mut wl.expected);
    }
    let conn = client::connect(addr, name, &opts).map_err(|e| format!("{name}: {e}"))?;
    let preamble = Message::ServiceRequest {
        shards: 1,
        instances: opts.instances as u16,
        ot_token: 0,
        workload: name.to_string(),
    }
    .encode()
    .len()
        + Message::ServiceAccept {
            session: conn.session,
            resumed: conn.resumed,
        }
        .encode()
        .len();
    let (mut ch, traffic) = CountingChannel::new(conn.main);
    let mut prg = Prg::from_seed([7; 16]);
    let mut ot = opts.ot.receiver(opts.ot_config, &mut prg);
    let outcome = drive_evaluator(
        &wl.circuit,
        &wl.bobs,
        &wl.publics,
        wl.cycles,
        &mut ch,
        Vec::new(),
        ot.as_mut(),
        &opts,
    )
    .map_err(|e| format!("{name}: {e}"))?;
    verify("client", &outcome, &wl.expected)?;
    let tables: u64 = outcome.lanes.iter().map(|l| l.stats.garbled_tables).sum();
    Ok((
        (traffic.sent_bytes() + traffic.recv_bytes()) as f64 + preamble as f64,
        tables as f64,
    ))
}

/// Waits (bounded) until the service has booked every session the
/// clients saw finish, then snapshots its metrics.
fn settled_metrics(svc: &GarblerService, sessions: u64) -> MetricsSnapshot {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let m = svc.metrics();
        if m.sessions_completed + m.sessions_failed >= sessions || Instant::now() >= deadline {
            return m;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Solo in-memory sessions of every kind of the mix: the mean of their
/// median times, and the counters of a mean session.
fn solo_mix(seed: u64, tally: &mut Tally) -> (f64, Counters) {
    let mut medians = Vec::new();
    let mut mean = Counters::default();
    for (kind, (family, _)) in MIX.iter().enumerate() {
        let opts = mix_opts(kind);
        let wl = workload::resolve(&format!("{family}:{seed}"), opts.instances)
            .expect("the mix names known families");
        let job = Job {
            circuit: &wl.circuit,
            cycles: wl.cycles,
            opts: &opts,
            transport: Transport::Mem,
        };
        let inputs = Inputs {
            alices: wl.alices,
            bobs: wl.bobs,
            publics: wl.publics,
            expected: wl.expected,
        };
        let reports: Vec<_> = (0..20)
            .filter_map(|i| tally.book(run_session(&job, &inputs, None, seed + i)))
            .collect();
        medians.push(median(
            &reports.iter().map(|r| r.seconds).collect::<Vec<_>>(),
        ));
        if let Some(r) = reports.first() {
            let c = &r.counters;
            mean.wire_bytes += c.wire_bytes;
            mean.frames += c.frames;
            mean.stats.garbled_tables += c.stats.garbled_tables;
            mean.stats.ots += c.stats.ots;
            mean.batching.batches += c.batching.batches;
            mean.batching.batched_gates += c.batching.batched_gates;
        }
    }
    let n = MIX.len() as u64;
    mean.wire_bytes /= n;
    mean.frames /= n;
    mean.stats.garbled_tables /= n;
    mean.stats.ots /= n;
    (medians.iter().sum::<f64>() / medians.len() as f64, mean)
}

/// The base-OT reuse side run: two clients, each with its own reuse
/// token, run 200 sessions over the real OT stack (fast test group).
/// Every session after a token's first should resume cached state; the
/// share that paid a base setup anyway is the miss fraction.
fn ot_reuse_miss_frac(seed: u64, tally: &mut Tally) -> f64 {
    const TOKENS: u64 = 2;
    const SESSIONS: u64 = 200;
    let svc = bind(
        ServiceConfig::new()
            .workers(WORKERS)
            .ot(OtBackend::NaorPinkasIknp)
            .ot_config(OtConfig::TEST),
    );
    let addr = svc.local_addr();
    let opts = SessionOptions::new()
        .ot(OtBackend::NaorPinkasIknp)
        .ot_config(OtConfig::TEST);
    let tallies: Vec<Tally> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..TOKENS)
            .map(|token| {
                let opts = &opts;
                s.spawn(move || {
                    let mut tally = Tally::default();
                    let mut resume = client::OtResume::new(token + 1);
                    for i in 0..SESSIONS {
                        let name = format!("{}:{}", MIX[(i % 2) as usize].0, seed + i);
                        let wl = workload::resolve(&name, 1).expect("known family");
                        tally.book(
                            client::run_session_resumed(addr, &name, opts, &mut resume)
                                .map_err(|e| format!("{name} (ot reuse): {e}"))
                                .and_then(|run| verify("client", &run.outcome, &wl.expected)),
                        );
                    }
                    tally
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread"))
            .collect()
    });
    for t in tallies {
        tally.absorb(t);
    }
    let m = settled_metrics(&svc, TOKENS * SESSIONS);
    svc.shutdown();
    m.ot_base_setups.saturating_sub(TOKENS) as f64 / (TOKENS * SESSIONS) as f64
}

/// Runs `svc_mix` as configured.
pub fn run(cfg: &Config) -> RunResult {
    let config = ServiceConfig::new().workers(WORKERS);
    let (svc, setup) = repeat_setup(cfg.quick, || bind(config), GarblerService::shutdown);
    let addr = svc.local_addr();
    let rec = Recorder::new();
    let mut tally = Tally::default();
    let mut notes = Vec::new();

    // The unmeasured pass: one session of each kind, counted. It also
    // warms the service up.
    let mut rng = SplitMix::new(cfg.seed, Workload::SvcMix as u64);
    let counted: Vec<(f64, f64)> = (0..MIX.len())
        .filter_map(|kind| {
            let name = mix_name(kind, &mut rng);
            tally.book(counted_session(addr, &name, kind, cfg))
        })
        .collect();
    let kinds = counted.len().max(1) as f64;
    let wire_bytes = counted.iter().map(|c| c.0).sum::<f64>() / kinds;
    let garbled_tables = counted.iter().map(|c| c.1).sum::<f64>() / kinds;

    // The measured window: each client starts its next session only when
    // the previous one has verified. A traced run traces every other
    // round of the mix, so both halves hold every kind.
    let per_client = if cfg.quick { 1 } else { MAX_SESSIONS / CLIENTS };
    let mut samples: Vec<Sample> = Vec::new();
    let window = Window::measure(|| {
        let started = Instant::now();
        let results: Vec<(Tally, Vec<Sample>)> = std::thread::scope(|s| {
            let clients: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let rec = &rec;
                    s.spawn(move || {
                        let mut rng = SplitMix::new(cfg.seed, 1000 + c as u64);
                        let mut tally = Tally::default();
                        let mut samples = Vec::new();
                        let mut i = 0usize;
                        while i < per_client
                            && (i == 0 || started.elapsed().as_secs_f64() < cfg.seconds)
                        {
                            let kind = i % MIX.len();
                            let traced = cfg.trace && (i / MIX.len()) % 2 == 0;
                            let name = mix_name(kind, &mut rng);
                            let id = (c * MAX_SESSIONS + i) as u64 + 1;
                            let outcome = client_session(
                                addr,
                                &name,
                                &mix_opts(kind),
                                cfg,
                                traced.then_some((rec, id)),
                            );
                            if let Some(secs) = tally.book(outcome) {
                                samples.push((traced, kind, secs));
                            }
                            i += 1;
                        }
                        (tally, samples)
                    })
                })
                .collect();
            clients
                .into_iter()
                .map(|c| c.join().expect("client thread"))
                .collect()
        });
        for (t, s) in results {
            tally.absorb(t);
            samples.extend(s);
        }
    });
    let m = settled_metrics(&svc, tally.attempted - tally.failed);
    svc.shutdown();

    let by_kind: Vec<(usize, f64)> = samples.iter().map(|&(_, k, s)| (k, s)).collect();
    let session_s = mix_median(&by_kind);
    let all: Vec<f64> = samples.iter().map(|s| s.2).collect();
    let metrics = if cfg.trace {
        let pick = |want: bool| -> Vec<(usize, f64)> {
            samples
                .iter()
                .filter(|s| s.0 == want)
                .map(|&(_, k, s)| (k, s))
                .collect()
        };
        // The traced/untraced split uses the same per-kind medians as
        // `session_s`.
        let spans = rec.spans();
        let mut found = trace_summary(
            all.len(),
            mix_median(&pick(true)),
            mix_median(&pick(false)),
            &window,
            &tally,
            &spans,
        );
        let (pct, tail_s) = tail(&all);
        let (solo_s, mean) = solo_mix(u64::from(rng.next_u32()), &mut tally);
        found.extend([
            Metric::new(
                "server.connect_s",
                span_median(&spans, "server.connect_s"),
                "s",
            ),
            Metric::new("server.drive_s", span_median(&spans, "server.drive_s"), "s"),
            Metric::new("server.overhead_s", session_s - solo_s, "s"),
            Metric::new("server.session_tail_s", tail_s, "s"),
            Metric::new("server.session_tail_pct", pct, "%"),
            Metric::new(
                "server.job_queue_high_water",
                m.job_queue_high_water as f64,
                "count",
            ),
            Metric::new(
                "server.send_queue_high_water",
                m.send_queue_high_water as f64,
                "count",
            ),
            Metric::new(
                "server.sessions_completed",
                m.sessions_completed as f64,
                "count",
            ),
            Metric::new("server.sessions_failed", m.sessions_failed as f64, "count"),
            Metric::new(
                "server.sessions_rejected",
                m.sessions_rejected as f64,
                "count",
            ),
            Metric::new(
                "server.ot_reuse_miss_frac",
                ot_reuse_miss_frac(u64::from(rng.next_u32()), &mut tally),
                "frac",
            ),
        ]);
        // The generic probes replay a mean session of the mix on the
        // one-lane comparator, over the transport the service uses.
        let wl = workload::resolve("compare32:0", 1).expect("known family");
        found.extend(generic_probes(
            &wl.circuit,
            &wl.publics,
            wl.cycles,
            &mix_opts(0),
            true,
            &mean,
            session_s,
        ));
        write_trace(cfg, &rec, &mut notes);
        in_per_layer_order(&found)
    } else {
        end_to_end(
            &setup,
            session_s,
            samples.len(),
            &window,
            wire_bytes,
            garbled_tables,
        )
    };

    let (pct, tail_s) = tail(&all);
    notes.push(format!(
        "session_s is the mean of the {} per-kind medians over {} samples; p{pct} = {tail_s:.6} s",
        MIX.len(),
        all.len()
    ));
    notes.push(format!(
        "service booked {} completed, {} failed, {} rejected; loopback, not a link",
        m.sessions_completed, m.sessions_failed, m.sessions_rejected
    ));
    if cfg.quick {
        notes.push(
            "quick mode: one measured session per client, numbers not comparable".to_string(),
        );
    }
    notes.extend(
        tally
            .first_failure
            .iter()
            .map(|e| format!("first failure: {e}")),
    );
    RunResult {
        workload: Workload::SvcMix.name(),
        attempted: tally.attempted,
        // The service books a failure the client also saw; count it once.
        failed: tally.failed.max(m.sessions_failed),
        metrics,
        notes,
    }
}
