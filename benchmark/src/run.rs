//! Runs one workload: set-up, warm-up, the measured closed loop, and —
//! in a traced run — the probes.

use std::path::PathBuf;
use std::time::Instant;

use arm2gc_circuit::sim::PartyData;
use arm2gc_circuit::Circuit;
use arm2gc_core::{OtBackend, SessionOptions};

use crate::probes;
use crate::report::{in_per_layer_order, Metric, RunResult};
use crate::session::{break_expected, run_session, Counters, Inputs, Job, SessionReport};
use crate::stats::{median, tail};
use crate::sys::{cpu_seconds, peak_rss_mb};
use crate::trace::{durations_s, self_times_s, Recorder, Span};
use crate::workloads::{build, draw_inputs, Netlist, SplitMix, System, Workload};

/// How a run is made.
#[derive(Clone, Debug)]
pub struct Config {
    /// Seed every input is drawn from.
    pub seed: u64,
    /// Length of the measured window in seconds.
    pub seconds: f64,
    /// Traced run: record spans, run the probes, report per-crate
    /// metrics in place of the end-to-end ones.
    pub trace: bool,
    /// One measured session and one set-up; numbers not comparable.
    pub quick: bool,
    /// Corrupt every expected output, to show that verification fails.
    pub break_expected: bool,
    /// Where a traced run writes its spans.
    pub trace_out: Option<PathBuf>,
}

/// Distinct input sets a run cycles through.
const POOL: usize = 4;

/// Set-ups are repeated until this many seconds have gone into them
/// (at least [`MIN_SETUPS`], at most [`MAX_SETUPS`]); `setup_s` is their
/// median.
const SETUP_BUDGET_S: f64 = 1.0;
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 200;

/// Builds the system under test repeatedly; returns the last build and
/// the seconds each build took. `teardown` disposes of the builds that
/// are not kept, outside the timing.
pub fn repeat_setup<T>(
    quick: bool,
    mut build: impl FnMut() -> T,
    mut teardown: impl FnMut(T),
) -> (T, Vec<f64>) {
    let started = Instant::now();
    let mut samples = Vec::new();
    loop {
        let t = Instant::now();
        let built = build();
        samples.push(t.elapsed().as_secs_f64());
        let enough = samples.len() >= MAX_SETUPS
            || (samples.len() >= MIN_SETUPS && started.elapsed().as_secs_f64() >= SETUP_BUDGET_S);
        if quick || enough {
            return (built, samples);
        }
        teardown(built);
    }
}

/// Counts sessions and remembers the first failure.
#[derive(Debug, Default)]
pub struct Tally {
    /// Sessions attempted.
    pub attempted: u64,
    /// Sessions that failed.
    pub failed: u64,
    /// Description of the first failure.
    pub first_failure: Option<String>,
}

impl Tally {
    /// Books one session; passes a success through.
    pub fn book<T>(&mut self, outcome: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match outcome {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                self.first_failure.get_or_insert(e);
                None
            }
        }
    }

    /// Folds another tally (from a client thread) into this one.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }
}

/// The measured window of a closed loop.
#[derive(Debug, Default)]
pub struct Window {
    /// Wall seconds the window took.
    pub wall_s: f64,
    /// Process CPU seconds (user + system, all threads) it used.
    pub cpu_s: f64,
    /// Peak resident set at its end, MB.
    pub peak_rss_mb: f64,
}

impl Window {
    /// Runs `body` as the measured window.
    pub fn measure(body: impl FnOnce()) -> Self {
        let cpu0 = cpu_seconds();
        let t = Instant::now();
        body();
        Self {
            wall_s: t.elapsed().as_secs_f64(),
            cpu_s: cpu_seconds() - cpu0,
            peak_rss_mb: peak_rss_mb(),
        }
    }
}

/// The end-to-end metrics every workload reports, in catalogue order.
pub fn end_to_end(
    setup: &[f64],
    session_s: f64,
    verified: usize,
    window: &Window,
    wire_bytes: f64,
    garbled_tables: f64,
) -> Vec<Metric> {
    let sessions = verified.max(1) as f64;
    vec![
        Metric::new("setup_s", median(setup), "s"),
        Metric::new("session_s", session_s, "s"),
        Metric::new("sessions_per_s", verified as f64 / window.wall_s, "1/s"),
        Metric::new("cpu_s", window.cpu_s / sessions, "s"),
        Metric::new("peak_rss_mb", window.peak_rss_mb, "MB"),
        Metric::new("wire_bytes", wire_bytes, "B"),
        Metric::new("garbled_tables", garbled_tables, "count"),
    ]
}

/// The per-crate metrics that every traced run derives from its own
/// measured window: the traced/untraced split, how far the two parties
/// overlapped, the failure share.
pub fn trace_summary(
    samples: usize,
    traced_s: f64,
    untraced_s: f64,
    window: &Window,
    tally: &Tally,
    spans: &[Span],
) -> Vec<Metric> {
    let overhead = if untraced_s > 0.0 {
        traced_s / untraced_s - 1.0
    } else {
        0.0
    };
    vec![
        Metric::new("session_samples", samples as f64, "count"),
        // Busy threads on average: 1 when the parties ran back to back,
        // 2 when garbler and evaluator were both busy throughout.
        Metric::new("core.parallelism", window.cpu_s / window.wall_s, "ratio"),
        Metric::new("traced_session_s", traced_s, "s"),
        Metric::new("untraced_session_s", untraced_s, "s"),
        Metric::new("trace_overhead_frac", overhead, "frac"),
        Metric::new(
            "failed_frac",
            tally.failed as f64 / tally.attempted.max(1) as f64,
            "frac",
        ),
        // What the harness itself adds around the calls it times:
        // channels, threads, verification (name resolution on svc_mix).
        Metric::new(
            "session_self_s",
            median(&self_times_s(spans, "session")),
            "s",
        ),
        Metric::new("spans", spans.len() as f64, "count"),
    ]
}

/// Median duration in seconds of the spans called `name`.
pub fn span_median(spans: &[Span], name: &str) -> f64 {
    median(&durations_s(spans, name))
}

/// The generic probes every workload runs, sized from `counters`, and
/// the share of `session_s` they leave unattributed.
///
/// The attributed time is the garbler's path — it is the party the
/// evaluator waits for: levelling (instanced sessions only), the
/// decision pass, garbling, frame encoding, the transport the session
/// used and, with the real OT stack, base setup and extension.
pub fn generic_probes(
    circuit: &Circuit,
    publics: &[PartyData],
    cycles: usize,
    opts: &SessionOptions,
    over_tcp: bool,
    counters: &Counters,
    session_s: f64,
) -> Vec<Metric> {
    let mut out = probes::circuit_level(circuit);
    out.extend(probes::core_decide(circuit, publics, cycles));
    out.extend(probes::garble_batches(counters));
    out.extend(probes::crypto_hash(counters));
    out.extend(probes::proto_framing(counters));
    out.extend(probes::comm_transport(counters));
    out.extend(probes::ot_stack(counters, opts.ot_config));
    out.extend([
        Metric::new("core.batches", counters.batching.batches as f64, "count"),
        Metric::new("core.mean_batch", counters.batching.mean_batch(), "count"),
        Metric::new(
            "core.releveled_cycles",
            counters.batching.releveled_cycles as f64,
            "count",
        ),
    ]);
    let get = |name: &str| out.iter().find(|m| m.name == name).map_or(0.0, |m| m.value);
    let mut attributed =
        get("core.decide_s") + get("garble.garble_batch_s") + get("proto.encode_s");
    if opts.instances > 1 {
        attributed += get("circuit.level_s");
    }
    attributed += get(if over_tcp {
        "comm.tcp_send_s"
    } else {
        "comm.mem_send_s"
    });
    if opts.ot == OtBackend::NaorPinkasIknp {
        attributed += get("ot.base_s") + get("ot.extend_s");
    }
    out.push(Metric::new("attributed_s", attributed, "s"));
    out.push(Metric::new(
        "unattributed_frac",
        if session_s > 0.0 {
            1.0 - attributed / session_s
        } else {
            0.0
        },
        "frac",
    ));
    out
}

/// Writes the recorder's spans where the configuration says.
pub fn write_trace(cfg: &Config, rec: &Recorder, notes: &mut Vec<String>) {
    let Some(path) = &cfg.trace_out else { return };
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(path, rec.to_json().to_pretty()) {
        Ok(()) => notes.push(format!("spans written to {}", path.display())),
        Err(e) => notes.push(format!("could not write {}: {e}", path.display())),
    }
}

/// Median wall time of `count` extra verified sessions of `job`.
fn extra_sessions(
    job: &Job<'_>,
    inputs: &Inputs,
    count: usize,
    seed: u64,
    tally: &mut Tally,
) -> f64 {
    let samples: Vec<f64> = (0..count)
        .filter_map(|i| tally.book(run_session(job, inputs, None, seed ^ (i as u64 + 1) << 32)))
        .map(|r| r.seconds)
        .collect();
    median(&samples)
}

/// Runs `workload` as configured.
pub fn run(workload: Workload, cfg: &Config) -> RunResult {
    if workload == Workload::SvcMix {
        return crate::service::run(cfg);
    }
    let (system, setup): (System, Vec<f64>) = repeat_setup(cfg.quick, || build(workload), drop);
    let mut rng = SplitMix::new(cfg.seed, workload as u64);
    let mut pool: Vec<Inputs> = (0..if cfg.quick { 1 } else { POOL })
        .map(|_| draw_inputs(workload, &system, &mut rng))
        .collect();
    if cfg.break_expected {
        for inputs in &mut pool {
            break_expected(&mut inputs.expected);
        }
    }
    let job = system.job();
    let rec = Recorder::new();
    let mut tally = Tally::default();
    let mut notes = Vec::new();

    // One unmeasured warm-up session: caches, allocator, lazy statics.
    // Quick mode skips it; its one session is not comparable anyway.
    if !cfg.quick {
        tally.book(run_session(&job, &pool[0], None, cfg.seed));
    }

    // The measured closed loop: one client, next session only after the
    // previous one verified. A traced run alternates traced and
    // untraced sessions so that the two medians share the window.
    let mut reports: Vec<(bool, SessionReport)> = Vec::new();
    let min_sessions = if cfg.trace { 2 } else { 1 };
    let window = Window::measure(|| {
        let started = Instant::now();
        let mut i = 0usize;
        while i < min_sessions || (!cfg.quick && started.elapsed().as_secs_f64() < cfg.seconds) {
            let traced = cfg.trace && i % 2 == 0;
            let id = i as u64 + 1;
            let outcome = run_session(
                &job,
                &pool[i % pool.len()],
                traced.then_some((&rec, id)),
                cfg.seed.wrapping_mul(0x1_0000_01b3).wrapping_add(id),
            );
            if let Some(report) = tally.book(outcome) {
                reports.push((traced, report));
            }
            i += 1;
        }
    });

    let all: Vec<f64> = reports.iter().map(|(_, r)| r.seconds).collect();
    let session_s = median(&all);
    let Some(counters) = reports.first().map(|(_, r)| r.counters) else {
        // Nothing verified, so nothing was measured.
        return RunResult {
            workload: workload.name(),
            attempted: tally.attempted,
            failed: tally.failed,
            metrics: Vec::new(),
            notes: tally.first_failure.into_iter().collect(),
        };
    };
    if reports
        .iter()
        .any(|(_, r)| r.counters.wire_bytes != counters.wire_bytes)
    {
        notes.push("wire_bytes differs between sessions of this run".to_string());
    }

    let metrics = if cfg.trace {
        let pick = |want: bool| -> Vec<f64> {
            reports
                .iter()
                .filter(|(t, _)| *t == want)
                .map(|(_, r)| r.seconds)
                .collect()
        };
        let spans = rec.spans();
        let mut found = trace_summary(
            all.len(),
            median(&pick(true)),
            median(&pick(false)),
            &window,
            &tally,
            &spans,
        );
        found.extend([
            Metric::new("core.garbler_s", span_median(&spans, "core.garbler_s"), "s"),
            Metric::new(
                "core.evaluator_s",
                span_median(&spans, "core.evaluator_s"),
                "s",
            ),
        ]);
        found.extend(generic_probes(
            job.circuit,
            &pool[0].publics,
            job.cycles,
            job.opts,
            system.listener.is_some(),
            &counters,
            session_s,
        ));
        found.extend(
            system
                .parts
                .iter()
                .map(|&(name, secs)| Metric::new(name, secs, "s")),
        );
        if let Netlist::Cpu(machine, program) = &system.netlist {
            let words = machine.config().alice_words.min(8);
            let (a, b): (Vec<u32>, Vec<u32>) =
                (0..words).map(|_| (rng.next_u32(), rng.next_u32())).unzip();
            let t = Instant::now();
            let iss = machine.run_iss(program, &a, &b, system.cycles);
            found.push(Metric::new("cpu.iss_s", t.elapsed().as_secs_f64(), "s"));
            found.push(Metric::new("cpu.cycles", iss.cycles as f64, "count"));
        }
        // Extra sessions in another configuration; kept to about a
        // second, and skipped where one session alone takes longer.
        let extra = ((1.0 / session_s) as usize).clamp(1, 20);
        if system.opts.instances > 1 {
            let solo_opts = SessionOptions::new().instances(1);
            let solo_job = Job {
                opts: &solo_opts,
                ..job
            };
            let lane0 = Inputs {
                alices: pool[0].alices[..1].to_vec(),
                bobs: pool[0].bobs[..1].to_vec(),
                publics: pool[0].publics[..1].to_vec(),
                expected: pool[0].expected[..1].to_vec(),
            };
            let solo_s = extra_sessions(&solo_job, &lane0, extra.max(5), cfg.seed, &mut tally);
            found.push(Metric::new(
                "core.lane_speedup",
                system.opts.instances as f64 * solo_s / session_s,
                "ratio",
            ));
        }
        if system.listener.is_none() && session_s < 3.0 {
            let sharded_opts = system.opts.shards(2);
            let sharded_job = Job {
                opts: &sharded_opts,
                ..job
            };
            let sharded_s = extra_sessions(&sharded_job, &pool[0], extra, cfg.seed, &mut tally);
            found.push(Metric::new(
                "proto.shards2_ratio",
                sharded_s / session_s,
                "ratio",
            ));
        }
        write_trace(cfg, &rec, &mut notes);
        in_per_layer_order(&found)
    } else {
        end_to_end(
            &setup,
            session_s,
            reports.len(),
            &window,
            counters.wire_bytes as f64,
            counters.stats.garbled_tables as f64,
        )
    };

    let (pct, tail_s) = tail(&all);
    notes.push(format!(
        "session_s is the median of {} samples; p{pct} = {tail_s:.6} s",
        all.len()
    ));
    if system.listener.is_some() {
        notes.push("loopback, not a link: no bandwidth or latency of a real network".to_string());
    }
    if cfg.quick {
        notes.push("quick mode: one measured session, numbers not comparable".to_string());
    }
    notes.extend(
        tally
            .first_failure
            .iter()
            .map(|e| format!("first failure: {e}")),
    );
    RunResult {
        workload: workload.name(),
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        notes,
    }
}
