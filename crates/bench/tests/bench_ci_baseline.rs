//! The checked-in CI bench baseline must always match what the gate
//! regenerates, so baseline drift is caught by `cargo test` locally
//! before the `bench-gate` CI job ever runs.

use arm2gc_bench::ci;

const BASELINE: &str = include_str!("../baselines/BENCH_ci.json");

#[test]
fn checked_in_baseline_is_current() {
    let report = ci::report(1);
    let drift = ci::diff(BASELINE, &report);
    assert!(
        drift.is_empty(),
        "crates/bench/baselines/BENCH_ci.json is stale:\n{}\nregenerate with \
         `cargo run --release -p arm2gc-bench --bin bench_ci -- --out \
         crates/bench/baselines/BENCH_ci.json`",
        drift.join("\n")
    );
}

/// The instanced acceptance claim, pinned on the checked-in baseline:
/// matmul_3x3's N=8 session-wide mean batch width must be at least 5x
/// the width of a single-lane session (the netlist-order wavefront
/// walk, `skipgate_netlist`), and its per-instance amortized width must
/// not fall below it.
#[test]
fn baseline_pins_instanced_matmul_amortization() {
    let block = BASELINE
        .split("\"name\": ")
        .find(|b| b.starts_with("\"matmul_3x3_32\""))
        .expect("matmul_3x3_32 in the baseline");
    let field = |object: &str, key: &str| -> f64 {
        let obj = block
            .split(&format!("\"{object}\": {{"))
            .nth(1)
            .unwrap_or_else(|| panic!("{object} object in the matmul block"));
        let rest = obj
            .split(&format!("\"{key}\": "))
            .nth(1)
            .unwrap_or_else(|| panic!("{key} in {object}"));
        let digits: String = rest
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '.')
            .collect();
        digits.parse().expect("numeric field")
    };
    let single = field("skipgate_netlist", "batched_gates") / field("skipgate_netlist", "batches");
    let inst = field("occupancy", "batched_gates") / field("occupancy", "batches");
    assert_eq!(field("instanced", "instances"), 8.0);
    assert!(
        inst >= 5.0 * single,
        "instanced N=8 mean batch {inst:.1} not 5x the single-lane {single:.1}"
    );
    assert!(
        field("instanced", "mean_batch_per_instance") >= single,
        "amortized width fell below the single-lane width {single:.1}"
    );
}

#[test]
fn report_is_shard_invariant() {
    // The report omits the shard count on purpose: running the gate
    // sharded must produce byte-identical JSON.
    assert_eq!(ci::report(1), ci::report(3));
}
