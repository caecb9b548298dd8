//! The CI perf-regression gate: a deterministic cost report in JSON.
//!
//! Wall-clock numbers are useless as a CI gate (shared runners jitter
//! by 2×), but the paper's actual cost model — garbled tables, table
//! bytes, OTs — is exactly reproducible. [`report`] runs both engines
//! on the small Table 1 circuits and serialises every counter; CI diffs
//! the output against the checked-in baseline
//! (`crates/bench/baselines/BENCH_ci.json`) and fails on any drift.
//!
//! The report deliberately omits the shard count it was produced with:
//! sharding is transport-only, so the gate doubles as a CI-enforced
//! proof that counts are shard-invariant (the workflow runs it sharded
//! against the unsharded baseline). Since v2 the per-circuit `schedule`
//! object pins batching occupancy — level count, batch counts, widths —
//! so scheduling regressions are caught alongside cost regressions.
//! Since v4 every circuit also runs
//! through one *instanced* N=8 session (eight lanes, identical inputs)
//! and the report pins the per-instance amortized counters: per-lane
//! protocol costs must equal the sequential run exactly, while the
//! session-wide batch widths grow with the lane count. Since v5 the
//! report ends with a `service` section: four sequential sessions over
//! a real loopback garbler service (shards ∈ {1,2} × instances ∈
//! {1,8}), each pinned by its per-lane cost counters and a
//! `matches_solo` bit asserting byte-equality — outputs and counters on
//! both sides — against an in-process solo run of the same workload.
//! Since v6 the service section also carries a `failures` object: a
//! deterministic fault scenario (one injected fault per failure class —
//! corrupt frame, peer disconnect, io timeout, attach expiry) run
//! against a dedicated short-deadline loopback service, pinning the
//! per-reason failure counters so the typed teardown taxonomy is
//! CI-enforced alongside the cost model. Since v7 the report ends with
//! an `ot` section: three sequential sessions under one base-OT resume
//! token over a loopback service speaking the real Naor–Pinkas + IKNP
//! stack (fast test group), pinning `ot_base_setups == 1` — every OT
//! after the first session is served by extending the cached columns —
//! plus the deterministic extension count and a `matches_fresh` bit
//! asserting resumed sessions compute byte-identically to fresh ones.
//! Since v8 the schedule is a function of the lane count — a
//! single-lane session always walks the netlist — so the cost counters
//! come from the netlist runs, the single-lane `*_layered` occupancy
//! objects are gone, and the level schedule is pinned by the instanced
//! runs alone. Since v9 a `cpu` section pins the garbled processor's
//! SkipGate counters for `programs::hamming(5)` and
//! `programs::bubble_sort(8)` on `CpuConfig::bench()`: the per-cycle
//! decision pass over the CPU netlist is where the benchmark's CPU
//! workloads spend their time, so its counts must hold still while
//! that pass is optimised. Since v10 every lane count runs the one
//! netlist walk, lanes interleaved per gate: the occupancy objects drop
//! `fallback_cycles`, `releveled_cycles` and `patched_gates`, and an
//! instanced run's occupancy is the single-lane wavefronts with every
//! batch N× wider. The `schedule` object's `levels` and
//! `widest_nonlinear_level` remain a static analysis of the circuit.

use std::fmt::Write as _;

use arm2gc_circuit::LayerSchedule;
use arm2gc_comm::{Channel, TcpChannel};
use arm2gc_core::{
    run_two_party_opts, EngineKind, OtBackend, OtConfig, SessionOptions, ShardConfig,
};
use arm2gc_cpu::asm::assemble;
use arm2gc_cpu::machine::{CpuConfig, GcMachine};
use arm2gc_cpu::programs;
use arm2gc_garble::WavefrontStats;
use arm2gc_server::{client, workload, GarblerService, ServiceConfig};

use crate::runner::{run_session, table1_circuits};

/// Identifies the report layout; bump when fields change.
pub const SCHEMA: &str = "arm2gc-bench-ci/v10";

/// Lanes in the report's instanced runs.
pub const INSTANCES: usize = 8;

fn occupancy(w: &WavefrontStats) -> String {
    format!(
        "{{ \"batches\": {}, \"batched_gates\": {}, \"largest_batch\": {} }}",
        w.batches, w.batched_gates, w.largest_batch
    )
}

/// Builds the deterministic cost report for the small (quick) Table 1
/// circuits, running both engines at the given shard count.
///
/// The returned string is complete JSON, newline-terminated, with a
/// stable field order — suitable for byte-exact diffing.
pub fn report(shards: ShardConfig) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"{SCHEMA}\",");
    out.push_str(
        "  \"note\": \"deterministic gate/table/byte counts; wall-clock excluded by design\",\n",
    );
    out.push_str("  \"circuits\": [\n");
    let circuits = table1_circuits(true);
    let opts = SessionOptions::new().shards(shards.shards);
    for (i, bc) in circuits.iter().enumerate() {
        let skip_run = run_session(bc, &opts);
        let base_run = run_session(bc, &opts.engine(EngineKind::Baseline));
        let (skip_netlist, base_netlist) = (&skip_run.lanes[0], &base_run.lanes[0]);
        let base = base_netlist.stats;
        let skip = skip_netlist.stats;
        let sched = LayerSchedule::of(&bc.circuit);
        out.push_str("    {\n");
        let _ = writeln!(out, "      \"name\": \"{}\",", bc.circuit.name());
        let _ = writeln!(out, "      \"cycles\": {},", bc.cycles);
        let _ = writeln!(
            out,
            "      \"baseline\": {{ \"garbled_tables\": {}, \"table_bytes\": {}, \"ots\": {} }},",
            base.garbled_tables, base.table_bytes, base.ots
        );
        let _ = writeln!(
            out,
            "      \"skipgate\": {{ \"garbled_tables\": {}, \"table_bytes\": {}, \"ots\": {}, \
             \"skipped_nonlinear\": {}, \"public_gates\": {}, \"pass_gates\": {}, \
             \"free_xor\": {} }},",
            skip.garbled_tables,
            skip.table_bytes,
            skip.ots,
            skip.skipped_nonlinear,
            skip.public_gates,
            skip.pass_gates,
            skip.free_xor
        );
        let _ = writeln!(
            out,
            "      \"schedule\": {{ \"levels\": {}, \"widest_nonlinear_level\": {},",
            sched.levels(),
            sched.max_nonlinear_width()
        );
        let _ = writeln!(
            out,
            "        \"baseline_netlist\": {},",
            occupancy(&base_netlist.batching)
        );
        let _ = writeln!(
            out,
            "        \"skipgate_netlist\": {} }},",
            occupancy(&skip_netlist.batching)
        );
        let inst = run_session(bc, &opts.instances(INSTANCES));
        // Identical inputs in every lane, so lane 0 *is* the
        // per-instance cost (the runner asserts all lanes agree with
        // the sequential expectation).
        let lane = inst.lanes[0].stats;
        let _ = writeln!(
            out,
            "      \"instanced\": {{ \"instances\": {}, \"per_instance\": {{ \
             \"garbled_tables\": {}, \"table_bytes\": {}, \"ots\": {} }},",
            INSTANCES, lane.garbled_tables, lane.table_bytes, lane.ots
        );
        let _ = writeln!(out, "        \"occupancy\": {},", occupancy(&inst.batching));
        let _ = writeln!(
            out,
            "        \"batched_gates_per_instance\": {:.3}, \"mean_batch_per_instance\": {:.3} }}",
            inst.batching.batched_gates_per_instance(),
            inst.batching.mean_batch_per_instance()
        );
        out.push_str(if i + 1 == circuits.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  ],\n");
    out.push_str(&cpu_section(&opts));
    out.push_str(&service_section());
    out.push_str(&ot_section());
    out.push_str("}\n");
    out
}

/// Cycle budget of the `cpu` section's runs (both programs halt well
/// inside it).
const CPU_MAX_CYCLES: usize = 4096;

/// Runs `programs::hamming(5)` and `programs::bubble_sort(8)` on the
/// benchmark CPU geometry through one session each (verified against
/// the instruction-set simulator) and renders their SkipGate counters.
fn cpu_section(opts: &SessionOptions) -> String {
    let machine = GcMachine::new(CpuConfig::bench());
    let words = |n: usize, seed: u32| -> Vec<u32> {
        (0..n as u32)
            .map(|i| 0x9e37_79b9u32.wrapping_mul(seed + i).rotate_left(i))
            .collect()
    };
    let cases = [
        ("hamming(5)", programs::hamming(5), 5),
        ("bubble_sort(8)", programs::bubble_sort(8), 8),
    ];
    let mut out = String::new();
    out.push_str("  \"cpu\": {\n    \"config\": \"bench\",\n    \"programs\": [\n");
    for (k, (name, src, n)) in cases.iter().enumerate() {
        let program = assemble(src).expect("shipped program assembles");
        let (alice, bob) = (words(*n, 1), words(*n, 101));
        let iss = machine.run_iss(&program, &alice, &bob, CPU_MAX_CYCLES);
        assert!(iss.halted, "{name}: program did not halt");
        let (runs, outcome) = machine.run(
            &program,
            std::slice::from_ref(&alice),
            std::slice::from_ref(&bob),
            CPU_MAX_CYCLES,
            opts,
        );
        assert_eq!(runs[0].output, iss.output, "{name}: protocol diverged");
        let s = outcome.lanes[0].stats;
        let _ = writeln!(
            out,
            "      {{ \"program\": \"{name}\", \"garbled_tables\": {}, \
             \"skipped_nonlinear\": {}, \"public_gates\": {}, \"pass_gates\": {}, \
             \"free_xor\": {}, \"ots\": {}, \"cycles_run\": {} }}{}",
            s.garbled_tables,
            s.skipped_nonlinear,
            s.public_gates,
            s.pass_gates,
            s.free_xor,
            s.ots,
            s.cycles_run,
            if k + 1 == cases.len() { "" } else { "," }
        );
    }
    out.push_str("    ]\n  },\n");
    out
}

/// The modes the service section runs, matching the load generator's
/// mix.
const SERVICE_MODES: [(usize, usize); 4] = [(1, 1), (2, 1), (1, 8), (2, 8)];

/// Runs four sequential sessions over a real loopback garbler service
/// and renders the deterministic service-level counters: per-session
/// per-lane costs, a `matches_solo` bit (evaluator outputs/counters
/// *and* the service's garbler-side record both byte-equal to a solo
/// run), and the aggregate completion counters. Queue high-water marks
/// are deliberately absent — they depend on scheduling timing.
fn service_section() -> String {
    let svc = GarblerService::bind("127.0.0.1:0", ServiceConfig::new().workers(1))
        .expect("bind loopback garbler service");
    let addr = svc.local_addr();
    let wait_until = |what: &str, cond: &dyn Fn() -> bool| {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while !cond() {
            assert!(std::time::Instant::now() < deadline, "timed out: {what}");
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
    };
    let mut out = String::new();
    out.push_str("  \"service\": {\n    \"sessions\": [\n");
    for (k, &(session_shards, instances)) in SERVICE_MODES.iter().enumerate() {
        let family = workload::FAMILIES[k % workload::FAMILIES.len()];
        let name = format!("{family}:{k}");
        let opts = SessionOptions::new()
            .shards(session_shards)
            .instances(instances);
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
        wait_until("session record", &|| svc.records().len() == k + 1);
        let record = &svc.records()[k];
        let solo_garbler: Vec<_> = solo_a.lanes.iter().map(|l| l.stats).collect();
        let matches_solo = run.outcome.lanes.len() == instances
            && run
                .outcome
                .lanes
                .iter()
                .zip(&solo_b.lanes)
                .all(|(got, want)| got.outputs == want.outputs && got.stats == want.stats)
            && record.result.as_ref() == Ok(&solo_garbler);
        let lane = run.outcome.lanes[0].stats;
        let _ = writeln!(
            out,
            "      {{ \"workload\": \"{name}\", \"shards\": {session_shards}, \
             \"instances\": {instances}, \"per_lane\": {{ \"garbled_tables\": {}, \
             \"table_bytes\": {}, \"ots\": {} }}, \"matches_solo\": {matches_solo} }}{}",
            lane.garbled_tables,
            lane.table_bytes,
            lane.ots,
            if k + 1 == SERVICE_MODES.len() {
                ""
            } else {
                ","
            }
        );
    }
    wait_until("all service sessions complete", &|| {
        svc.metrics().sessions_completed == SERVICE_MODES.len() as u64
    });
    let m = svc.metrics();
    svc.shutdown();
    out.push_str("    ],\n");
    let _ = writeln!(
        out,
        "    \"sessions_completed\": {}, \"sessions_failed\": {}, \
         \"tables_sent\": {}, \"table_bytes_sent\": {},",
        m.sessions_completed, m.sessions_failed, m.tables_sent, m.table_bytes_sent
    );
    out.push_str(&failures_section());
    out.push_str("  },\n");
    out
}

/// Sessions the `ot` section runs under one resume token.
const OT_SESSIONS: usize = 3;

/// Runs [`OT_SESSIONS`] sequential sessions under one base-OT resume
/// token over a loopback service speaking the real Naor–Pinkas + IKNP
/// stack (fast test group) and renders the reuse books: every count is
/// deterministic, and the headline number — `ot_base_setups` — must
/// stay exactly 1, because every session after the first extends the
/// cached IKNP columns instead of paying a fresh setup.
fn ot_section() -> String {
    let svc = GarblerService::bind(
        "127.0.0.1:0",
        ServiceConfig::new()
            .workers(1)
            .ot(OtBackend::NaorPinkasIknp)
            .ot_config(OtConfig::TEST),
    )
    .expect("bind loopback OT service");
    let addr = svc.local_addr();
    let wait_until = |what: &str, cond: &dyn Fn() -> bool| {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while !cond() {
            assert!(std::time::Instant::now() < deadline, "timed out: {what}");
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
    };
    let opts = SessionOptions::new()
        .ot(OtBackend::NaorPinkasIknp)
        .ot_config(OtConfig::TEST);
    let name = "compare32:5";
    let wl = workload::resolve(name, 1).expect("known workload");
    let (_, solo_b) = run_two_party_opts(
        &wl.circuit,
        &wl.alices,
        &wl.bobs,
        &wl.publics,
        wl.cycles,
        &opts,
    );
    let mut resume = client::OtResume::new(0x0ddba11);
    let mut matches_fresh = true;
    for k in 0..OT_SESSIONS {
        let run = client::run_session_resumed(addr, name, &opts, &mut resume).expect("ot session");
        matches_fresh &= run
            .outcome
            .lanes
            .iter()
            .zip(&solo_b.lanes)
            .all(|(got, want)| got.outputs == want.outputs && got.stats == want.stats);
        // Sequential reuse: the garbler banks its state only after the
        // session record lands, so wait before the next preamble
        // checks the cache.
        wait_until("ot session record", &|| svc.records().len() == k + 1);
    }
    let m = svc.metrics();
    svc.shutdown();
    let mut out = String::new();
    out.push_str("  \"ot\": {\n");
    out.push_str(
        "    \"scenario\": \"three sequential sessions under one resume token over the \
         np-iknp stack (test group)\",\n",
    );
    let _ = writeln!(
        out,
        "    \"sessions\": {OT_SESSIONS}, \"ot_base_setups\": {}, \"ot_extended\": {},",
        m.ot_base_setups, m.ot_extended
    );
    let _ = writeln!(
        out,
        "    \"ot_cache_evicted\": {}, \"sessions_completed\": {}, \
         \"matches_fresh\": {matches_fresh}",
        m.ot_cache_evicted, m.sessions_completed
    );
    out.push_str("  }\n");
    out
}

/// Runs one injected fault per failure class against a dedicated
/// short-deadline loopback service and renders the per-reason failure
/// counters. Every count is an exact event count — the scenario is
/// deterministic by construction, so the baseline pins the typed
/// teardown taxonomy end to end.
fn failures_section() -> String {
    use arm2gc_proto::Message;
    use std::net::TcpStream;

    let deadline = std::time::Duration::from_millis(200);
    let svc = GarblerService::bind(
        "127.0.0.1:0",
        ServiceConfig::new()
            .workers(2)
            .io_timeout(Some(deadline))
            .attach_timeout(Some(deadline)),
    )
    .expect("bind fault-scenario service");
    let addr = svc.local_addr();
    let wait_for = |what: &str, cond: &dyn Fn(&arm2gc_server::MetricsSnapshot) -> bool| {
        let stop = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while !cond(&svc.metrics()) {
            assert!(std::time::Instant::now() < stop, "timed out: {what}");
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
    };
    let opts = SessionOptions::new();

    // Corrupt frame: a valid preamble, then garbage where the protocol
    // handshake belongs.
    let mut poisoned = client::connect(addr, "sum32:0", &opts).expect("poisoned preamble");
    let _ = poisoned.main.recv().expect("garbler hello");
    poisoned
        .main
        .send(b"\xffnot a protocol frame")
        .expect("send garbage");
    wait_for("corrupt-frame teardown", &|m| m.failed_corrupt_frame == 1);

    // Peer disconnect: a valid preamble, then the client vanishes.
    let vanishing = client::connect(addr, "sum32:0", &opts).expect("vanishing preamble");
    drop(vanishing);
    wait_for("disconnect teardown", &|m| m.failed_peer_disconnect == 1);

    // Io timeout: a valid preamble, then silence past the deadline.
    let silent = client::connect(addr, "sum32:0", &opts).expect("silent preamble");
    wait_for("timeout teardown", &|m| m.failed_timeout == 1);
    drop(silent);

    // Attach expiry: a sharded request whose sub-streams never arrive.
    let mut parked = TcpChannel::from_stream(TcpStream::connect(addr).expect("connect"))
        .expect("parked channel");
    parked
        .send(
            &Message::ServiceRequest {
                shards: 2,
                instances: 1,
                ot_token: 0,
                workload: "sum32:0".into(),
            }
            .encode(),
        )
        .expect("parked request");
    let _ = parked.recv().expect("parked accept");
    wait_for("attach expiry", &|m| m.rejected_attach_timeout == 1);

    let m = svc.metrics();
    svc.shutdown();
    let mut out = String::new();
    out.push_str("    \"failures\": {\n");
    out.push_str(
        "      \"scenario\": \"one injected fault per class over a dedicated \
         loopback service\",\n",
    );
    let _ = writeln!(
        out,
        "      \"sessions_failed\": {}, \"failed_timeout\": {}, \
         \"failed_peer_disconnect\": {}, \"failed_corrupt_frame\": {},",
        m.sessions_failed, m.failed_timeout, m.failed_peer_disconnect, m.failed_corrupt_frame
    );
    let _ = writeln!(
        out,
        "      \"failed_shutdown\": {}, \"failed_other\": {}, \
         \"rejected_attach_timeout\": {}",
        m.failed_shutdown, m.failed_other, m.rejected_attach_timeout
    );
    out.push_str("    }\n");
    out
}

/// Line-by-line comparison of a fresh report against a baseline;
/// returns the mismatching lines (empty = gate passes).
pub fn diff(baseline: &str, current: &str) -> Vec<String> {
    let mut out = Vec::new();
    let (b_lines, c_lines): (Vec<_>, Vec<_>) =
        (baseline.lines().collect(), current.lines().collect());
    let n = b_lines.len().max(c_lines.len());
    for i in 0..n {
        let b = b_lines.get(i).copied().unwrap_or("<missing>");
        let c = c_lines.get(i).copied().unwrap_or("<missing>");
        if b != c {
            out.push(format!(
                "line {}: baseline `{}` != current `{}`",
                i + 1,
                b,
                c
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diff_reports_changed_lines_only() {
        assert!(diff("a\nb\n", "a\nb\n").is_empty());
        let d = diff("a\nb\n", "a\nc\nd\n");
        assert_eq!(d.len(), 2);
        assert!(d[0].contains("line 2"));
        assert!(d[1].contains("<missing>"));
    }
}
