//! CI perf-regression gate: emits the deterministic cost report
//! (`BENCH_ci.json`) and optionally diffs it against a checked-in
//! baseline.
//!
//! Usage: `bench_ci [--shards N] [--out PATH] [--check BASELINE]`
//!
//! * `--shards N` — run both engines over an N-way sharded table stream
//!   (the report is shard-invariant, so CI runs sharded against the
//!   unsharded baseline to enforce exactly that);
//! * `--out PATH` — write the JSON report to `PATH` (also printed when
//!   neither `--out` nor `--check` is given);
//! * `--check BASELINE` — compare against `BASELINE` and exit non-zero
//!   listing every drifted line.

use arm2gc_bench::ci;
use arm2gc_core::ShardConfig;

fn arg_after(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn main() {
    let shards = ShardConfig::new(
        arg_after("--shards")
            .map(|s| s.parse().expect("--shards takes a positive integer"))
            .unwrap_or(1),
    );
    let report = ci::report(shards);

    let out = arg_after("--out");
    if let Some(path) = &out {
        std::fs::write(path, &report).unwrap_or_else(|e| panic!("write {path}: {e}"));
        eprintln!("bench_ci: wrote {path} ({} bytes)", report.len());
    }

    match arg_after("--check") {
        Some(baseline_path) => {
            let baseline = std::fs::read_to_string(&baseline_path)
                .unwrap_or_else(|e| panic!("read baseline {baseline_path}: {e}"));
            let drift = ci::diff(&baseline, &report);
            if drift.is_empty() {
                println!(
                    "bench_ci: OK — cost counts match {baseline_path} (shards={})",
                    shards.shards
                );
            } else {
                eprintln!(
                    "bench_ci: FAIL — cost counts drifted from {baseline_path} \
                     ({} line(s)):",
                    drift.len()
                );
                for line in &drift {
                    eprintln!("  {line}");
                }
                eprintln!(
                    "If the change is intentional, regenerate the baseline with \
                     `cargo run --release -p arm2gc-bench --bin bench_ci -- --out {baseline_path}`"
                );
                std::process::exit(1);
            }
        }
        None if out.is_none() => print!("{report}"),
        None => {}
    }
}
