//! Cost-stat regression guard: the session/streaming refactor (and any
//! future transport change) must not alter the paper's cost metrics.
//!
//! The expected values below were captured from the pre-session-layer
//! engines on every seed Table 1 benchmark circuit; table counts,
//! `table_bytes`, OT counts and cycle counts must stay *exactly* these,
//! whatever the framing or OT backend underneath.

use arm2gc_bench::runner::{baseline_stats, skipgate_stats, table1_circuits};

/// (name, tables, table_bytes, ots, cycles, skipped, public, pass, free_xor)
#[allow(clippy::type_complexity)]
const SKIPGATE_EXPECTED: &[(&str, u64, u64, u64, usize, u64, u64, u64, u64)] = &[
    ("sum_32", 31, 992, 32, 32, 1, 0, 3, 123),
    ("sum_1024", 1023, 32736, 1024, 1024, 1, 0, 3, 4091),
    ("compare_32", 32, 1024, 32, 32, 0, 0, 36, 93),
    (
        "compare_16384",
        16384,
        524288,
        16384,
        16384,
        0,
        0,
        16388,
        49149,
    ),
    ("hamming_32", 145, 4640, 32, 32, 0, 30, 6, 203),
    ("hamming_160", 1092, 34944, 160, 160, 0, 56, 8, 1404),
    ("hamming_512", 4563, 146016, 512, 512, 0, 90, 10, 5577),
    ("mult_32", 2016, 64512, 32, 1, 0, 0, 95, 3873),
    ("matmul_3x3_32", 27369, 875808, 288, 1, 855, 0, 2511, 51651),
    (
        "sha3_256", 37056, 1185792, 0, 24, 1344, 16224, 38592, 112576,
    ),
    ("aes_128", 7200, 230400, 128, 10, 0, 6224, 9244, 31440),
];

/// (name, tables, table_bytes, ots, cycles)
const BASELINE_EXPECTED: &[(&str, u64, u64, u64, usize)] = &[
    ("sum_32", 32, 1024, 32, 32),
    ("sum_1024", 1024, 32768, 1024, 1024),
    ("compare_32", 32, 1024, 32, 32),
    ("compare_16384", 16384, 524288, 16384, 16384),
    ("hamming_32", 160, 5120, 32, 32),
    ("hamming_160", 1120, 35840, 160, 160),
    ("hamming_512", 4608, 147456, 512, 512),
    ("mult_32", 2016, 64512, 32, 1),
    ("matmul_3x3_32", 28224, 903168, 288, 1),
    ("sha3_256", 43728, 1399296, 0, 24),
    ("aes_128", 11060, 353920, 128, 10),
];

#[test]
fn skipgate_stats_match_pre_refactor_values() {
    for bc in &table1_circuits(true) {
        let name = bc.circuit.name();
        let row = SKIPGATE_EXPECTED
            .iter()
            .find(|r| r.0 == name)
            .unwrap_or_else(|| panic!("no expected row for {name}"));
        let s = skipgate_stats(bc);
        assert_eq!(s.garbled_tables, row.1, "{name}: garbled_tables");
        assert_eq!(s.table_bytes, row.2, "{name}: table_bytes");
        assert_eq!(s.ots, row.3, "{name}: ots");
        assert_eq!(s.cycles_run, row.4, "{name}: cycles_run");
        assert_eq!(s.skipped_nonlinear, row.5, "{name}: skipped_nonlinear");
        assert_eq!(s.public_gates, row.6, "{name}: public_gates");
        assert_eq!(s.pass_gates, row.7, "{name}: pass_gates");
        assert_eq!(s.free_xor, row.8, "{name}: free_xor");
    }
}

#[test]
fn baseline_stats_match_pre_refactor_values() {
    for bc in &table1_circuits(true) {
        let name = bc.circuit.name();
        let row = BASELINE_EXPECTED
            .iter()
            .find(|r| r.0 == name)
            .unwrap_or_else(|| panic!("no expected row for {name}"));
        let s = baseline_stats(bc);
        assert_eq!(s.garbled_tables, row.1, "{name}: garbled_tables");
        assert_eq!(s.table_bytes, row.2, "{name}: table_bytes");
        assert_eq!(s.ots, row.3, "{name}: ots");
        assert_eq!(s.cycles_run, row.4, "{name}: cycles_run");
    }
}
