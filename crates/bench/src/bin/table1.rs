//! Regenerates **Table 1**: improvement by SkipGate on sequential
//! circuits generated by the TinyGarble-style synthesis flow.
//!
//! Both columns are measured with real two-party runs (the baseline
//! actually garbles every gate). Pass `--quick` to skip the two largest
//! matrix multiplications.

use arm2gc_bench::runner::{measure_circuit, table1_circuits};
use arm2gc_bench::{fmt_count, paper, Table};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let mut table = Table::new(
        "Table 1 — SkipGate on sequential circuits (garbled non-XOR gates)",
        &[
            "Function",
            "w/o SkipGate",
            "w/ SkipGate",
            "skipped",
            "improv.",
            "paper w/o",
            "paper w/",
        ],
    );
    for bc in table1_circuits(quick) {
        let garble_baseline = bc.circuit.non_xor_count() as u128 * bc.cycles as u128 <= 600_000;
        let m = measure_circuit(&bc, garble_baseline);
        let name = bc.circuit.name().to_string();
        let paper_row = paper::TABLE1
            .iter()
            .find(|r| normalise(r.name) == normalise(&name));
        let skipped = m.baseline.saturating_sub(m.skipgate as u128);
        let improv = if m.baseline > 0 {
            format!("{:.2}%", 100.0 * skipped as f64 / m.baseline as f64)
        } else {
            "-".into()
        };
        table.row(vec![
            name,
            fmt_count(m.baseline),
            fmt_count(m.skipgate as u128),
            fmt_count(skipped),
            improv,
            paper_row.map_or("-".into(), |r| fmt_count(r.without as u128)),
            paper_row.map_or("-".into(), |r| fmt_count(r.with as u128)),
        ]);
    }
    table.print();
    println!("note: shapes track the paper; absolute deltas are explained per-row in DESIGN.md");
}

fn normalise(name: &str) -> String {
    name.to_lowercase()
        .replace([' ', '_'], "")
        .replace("matmul", "matrixmult")
}
