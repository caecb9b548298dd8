//! Self-tests of the benchmark that need real sessions: inputs and
//! counters repeat for a seed, another seed still verifies, a wrong
//! expected value is caught, the decision-only probe replays the real
//! work, and `BENCHMARK.json` lists what the harness emits.

use arm2gc_benchmark::json::{self, Value};
use arm2gc_benchmark::probes::decide_replay;
use arm2gc_benchmark::report::{END_TO_END, PER_LAYER};
use arm2gc_benchmark::run::{run, Config};
use arm2gc_benchmark::session::{run_session, Inputs};
use arm2gc_benchmark::workloads::{build, draw_inputs, SplitMix, Workload};
use arm2gc_benchmark::DEFAULT_SECONDS;

fn quick(seed: u64, trace: bool, break_expected: bool) -> Config {
    Config {
        seed,
        seconds: 0.2,
        trace,
        quick: true,
        break_expected,
        trace_out: None,
    }
}

fn bits(inputs: &Inputs) -> Vec<&Vec<bool>> {
    let parties = inputs
        .alices
        .iter()
        .chain(&inputs.bobs)
        .chain(&inputs.publics);
    parties
        .flat_map(|p| std::iter::once(&p.init).chain(&p.stream))
        .chain(&inputs.expected)
        .collect()
}

#[test]
fn a_seed_fixes_inputs_and_counters_and_another_seed_still_verifies() {
    for workload in [
        Workload::HdlCompare16384,
        Workload::HdlAes128X8,
        Workload::CpuHamming160,
    ] {
        let system = build(workload);
        let draw = |seed| draw_inputs(workload, &system, &mut SplitMix::new(seed, workload as u64));
        let (first, again, other) = (draw(1), draw(1), draw(2));
        assert_eq!(bits(&first), bits(&again), "{}: same seed", workload.name());
        assert_ne!(
            bits(&first),
            bits(&other),
            "{}: other seed",
            workload.name()
        );

        let job = system.job();
        let a = run_session(&job, &first, None, 11).expect("seed 1 verifies");
        let b = run_session(&job, &again, None, 12).expect("seed 1 verifies again");
        let c = run_session(&job, &other, None, 13).expect("seed 2 verifies");
        // Label randomness (the last argument) differs between the two
        // runs of seed 1; the counters must not.
        assert_eq!(a.counters, b.counters, "{}", workload.name());
        // Costs depend on the public inputs only, so another seed moves
        // neither the bytes nor the tables.
        assert_eq!(a.counters.wire_bytes, c.counters.wire_bytes);
        assert_eq!(
            a.counters.stats.garbled_tables,
            c.counters.stats.garbled_tables
        );
        assert!(a.counters.wire_bytes > 0 && a.counters.stats.garbled_tables > 0);
    }
}

#[test]
fn the_decision_replay_does_the_sessions_own_decision_work() {
    for workload in [Workload::CpuHamming160, Workload::HdlMatmul8] {
        let system = build(workload);
        let inputs = draw_inputs(workload, &system, &mut SplitMix::new(5, 0));
        let job = system.job();
        let session = run_session(&job, &inputs, None, 5)
            .expect("session verifies")
            .counters
            .stats;
        let replay = decide_replay(job.circuit, &inputs.publics[0], job.cycles);
        let name = workload.name();
        assert_eq!(replay.cycles, session.cycles_run, "{name}: cycles");
        assert_eq!(
            replay.counts.garbled, session.garbled_tables,
            "{name}: garbled"
        );
        assert_eq!(
            replay.counts.skipped_nonlinear, session.skipped_nonlinear,
            "{name}: skipped"
        );
        assert_eq!(
            replay.counts.public_out, session.public_gates,
            "{name}: public"
        );
        assert_eq!(
            replay.counts.pass + replay.counts.aliased,
            session.pass_gates,
            "{name}: pass"
        );
        assert_eq!(replay.counts.free_xor, session.free_xor, "{name}: free xor");
    }
}

#[test]
fn a_wrong_expected_value_fails_the_run() {
    for workload in [Workload::HdlAes128X8, Workload::SvcMix] {
        let good = run(workload, &quick(1, false, false));
        assert!(good.correct(), "{}: {:?}", workload.name(), good.notes);
        assert_eq!(good.failed, 0);
        let bad = run(workload, &quick(1, false, true));
        assert!(!bad.correct(), "{}", workload.name());
        assert_eq!(bad.failed, bad.attempted, "every session is checked");
        assert!(bad.notes.iter().any(|n| n.contains("cleartext model")));
    }
}

#[test]
fn untraced_runs_report_end_to_end_and_traced_runs_every_per_crate_metric() {
    for workload in [Workload::HdlCompare16384, Workload::SvcMix] {
        let untraced = run(workload, &quick(2, false, false));
        assert!(untraced.correct(), "{:?}", untraced.notes);
        let names: Vec<_> = untraced.metrics.iter().map(|m| m.name).collect();
        assert_eq!(names, END_TO_END.map(|m| m.name));
        for m in &untraced.metrics {
            let is_cpu = m.name == "cpu_s"; // 10 ms ticks: may read 0 on one quick session
            assert!(m.value > 0.0 || is_cpu, "{} is never 0", m.name);
        }

        let traced = run(workload, &quick(2, true, false));
        assert!(traced.correct(), "{:?}", traced.notes);
        let names: Vec<_> = traced.metrics.iter().map(|m| m.name).collect();
        assert_eq!(names, PER_LAYER.map(|m| m.0));
        let get = |name: &str| {
            traced
                .metrics
                .iter()
                .find(|m| m.name == name)
                .unwrap()
                .value
        };
        assert!(get("core.decide_s") > 0.0 && get("ot.base_s") > 0.0 && get("spans") >= 3.0);
        assert_eq!(get("ot.base_setups"), 1.0);
        assert_eq!(get("failed_frac"), 0.0);
        if workload == Workload::SvcMix {
            assert!(get("server.connect_s") > 0.0 && get("server.drive_s") > 0.0);
            assert!(get("server.sessions_completed") >= 6.0);
        } else {
            assert!(get("core.garbler_s") > 0.0 && get("core.evaluator_s") > 0.0);
            assert_eq!(get("core.garbled"), 16384.0);
        }
    }
}

#[test]
fn benchmark_json_lists_what_the_harness_emits() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the root"))
        .expect("BENCHMARK.json parses");
    let keys: Vec<_> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(
        doc.get("run_seconds").and_then(Value::as_f64),
        Some(DEFAULT_SECONDS)
    );
    assert_eq!(
        doc.get("paths"),
        Some(&Value::Arr(vec![Value::str("benchmark")]))
    );

    let str_of = |v: &Value, key: &str| v.get(key).and_then(Value::as_str).map(str::to_string);
    let workloads: Vec<_> = doc
        .get("workloads")
        .unwrap()
        .elements()
        .iter()
        .map(|w| (str_of(w, "name").unwrap(), str_of(w, "why").unwrap()))
        .collect();
    let ours: Vec<_> = Workload::ALL
        .iter()
        .map(|w| (w.name().to_string(), w.why().to_string()))
        .collect();
    assert_eq!(workloads, ours);

    let e2e: Vec<_> = doc
        .get("end_to_end")
        .unwrap()
        .elements()
        .iter()
        .map(|m| {
            (
                str_of(m, "name").unwrap(),
                str_of(m, "unit").unwrap(),
                str_of(m, "better").unwrap(),
                m.get("bound").and_then(Value::as_f64).unwrap(),
            )
        })
        .collect();
    let ours: Vec<_> = END_TO_END
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                m.unit.to_string(),
                m.better.word().to_string(),
                m.bound,
            )
        })
        .collect();
    assert_eq!(e2e, ours);

    let layers: Vec<_> = doc
        .get("per_layer")
        .unwrap()
        .elements()
        .iter()
        .map(|m| {
            (
                str_of(m, "name").unwrap(),
                str_of(m, "unit").unwrap(),
                str_of(m, "better").unwrap(),
            )
        })
        .collect();
    let ours: Vec<_> = PER_LAYER
        .iter()
        .map(|m| (m.0.to_string(), m.1.to_string(), m.2.word().to_string()))
        .collect();
    assert_eq!(layers, ours);
}
