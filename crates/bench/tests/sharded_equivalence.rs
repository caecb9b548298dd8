//! Sharding is transport-only: splitting the table stream across
//! sub-channels must not change *anything* the protocol computes — not
//! the decoded outputs (checked inside the runners against the
//! semantic expectation) and not a single cost counter.
//!
//! Every seed Table 1 benchmark circuit is run at shard counts 2 and 4
//! and compared field-for-field against the unsharded run.

use arm2gc_bench::runner::{baseline_stats, run_stats, skipgate_stats, table1_circuits};
use arm2gc_core::{EngineKind, OtBackend, SessionOptions};

#[test]
fn skipgate_sharding_preserves_outputs_and_stats() {
    for bc in &table1_circuits(true) {
        let name = bc.circuit.name().to_string();
        // The runner asserts both parties' outputs match the semantic
        // expectation, so output equivalence is checked inside every run
        // below; here we pin the stats.
        let unsharded = skipgate_stats(bc);
        for shards in [2, 4] {
            let sharded = run_stats(bc, &SessionOptions::new().shards(shards));
            assert_eq!(
                unsharded, sharded,
                "{name}: skipgate stats at {shards} shards"
            );
        }
    }
}

#[test]
fn baseline_sharding_preserves_outputs_and_stats() {
    for bc in &table1_circuits(true) {
        let name = bc.circuit.name().to_string();
        let unsharded = baseline_stats(bc);
        for shards in [2, 4] {
            let baseline = SessionOptions::new().engine(EngineKind::Baseline);
            let sharded = run_stats(bc, &baseline.shards(shards));
            assert_eq!(
                unsharded, sharded,
                "{name}: baseline stats at {shards} shards"
            );
        }
    }
}

/// Sharding composes with the rest of the session configuration: an
/// odd stripe count and the real OT stack behave identically sharded.
#[test]
fn sharding_composes_with_streaming_and_ot_backends() {
    let circuits = table1_circuits(true);
    for bc in &circuits[..3] {
        let name = bc.circuit.name().to_string();
        let base = run_stats(bc, &SessionOptions::new());
        let sharded = run_stats(bc, &SessionOptions::new().shards(3));
        assert_eq!(base, sharded, "{name}: 3-way sharding");
    }
    let bc = &circuits[2]; // compare_32: small enough for real OT
    let real_ot = SessionOptions::new().ot(OtBackend::NaorPinkasIknp);
    let base = run_stats(bc, &real_ot);
    let sharded = run_stats(bc, &real_ot.shards(2));
    assert_eq!(base, sharded, "sharding with the Naor-Pinkas + IKNP stack");
}
