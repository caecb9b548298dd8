//! Smoke test: the shipped examples build, and `quickstart` plus the
//! two-process `tcp_two_party` demo run to completion. Backed by real
//! `cargo` invocations so the check is the same one a user's first
//! `cargo run --example quickstart` performs.

use std::process::Command;

fn cargo() -> Command {
    // `cargo test` exports the path of the cargo that invoked it.
    let mut cmd = Command::new(env!("CARGO"));
    cmd.current_dir(env!("CARGO_MANIFEST_DIR")).arg("--offline");
    cmd
}

#[test]
fn examples_build() {
    let out = cargo()
        .args(["build", "--examples"])
        .output()
        .expect("spawn cargo");
    assert!(
        out.status.success(),
        "cargo build --examples failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn quickstart_runs_to_completion() {
    let out = cargo()
        .args(["run", "--example", "quickstart"])
        .output()
        .expect("spawn cargo");
    assert!(
        out.status.success(),
        "quickstart exited nonzero:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("garbled tables sent"),
        "quickstart printed unexpected output:\n{stdout}"
    );
}

#[test]
fn tcp_two_party_runs_both_processes() {
    let out = cargo()
        .args(["run", "--example", "tcp_two_party"])
        .output()
        .expect("spawn cargo");
    assert!(
        out.status.success(),
        "tcp_two_party exited nonzero:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("evaluator process exited cleanly"),
        "tcp_two_party printed unexpected output:\n{stdout}"
    );
}

#[test]
fn tcp_two_party_runs_instanced_lanes() {
    let out = cargo()
        .args([
            "run",
            "--example",
            "tcp_two_party",
            "--",
            "--instances",
            "3",
            "--shards",
            "3",
        ])
        .output()
        .expect("spawn cargo");
    assert!(
        out.status.success(),
        "tcp_two_party --instances 3 --shards 3 exited nonzero:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Lane 2 flips the millionaires' winner (Alice at 7.3M vs Bob's
    // 7.1M), proving each lane computed on its own inputs.
    assert!(
        stdout.contains("lane 0: Bob is richer") && stdout.contains("lane 2: Alice is richer"),
        "instanced lanes printed unexpected results:\n{stdout}"
    );
    assert!(
        stdout.contains("all lanes verified against the in-process simulator"),
        "instanced run did not verify all lanes:\n{stdout}"
    );
    assert!(
        stdout.contains("evaluator process exited cleanly"),
        "instanced run's evaluator did not exit cleanly:\n{stdout}"
    );
}
