//! Regenerates **Table 2**: ARM2GC (programs on the garbled processor)
//! vs the HDL-synthesis flow (direct circuits), both under SkipGate.
//!
//! AES-128 and SHA3-256 rows reuse the direct-circuit measurements: the
//! paper's C sources for those are bitsliced gate-by-gate translations
//! of the same netlists (see DESIGN.md, "Substitutions"), which we do not re-author
//! in assembly. Pass `--quick` for the small matrix sizes only.

use arm2gc_bench::runner::{cpu_workloads, machine_for, skipgate_stats, table1_circuits};
use arm2gc_bench::{fmt_count, paper, Table};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");

    // HDL column: direct circuits under SkipGate.
    let mut hdl: Vec<(String, u64)> = Vec::new();
    for bc in table1_circuits(quick) {
        let stats = skipgate_stats(&bc);
        hdl.push((bc.circuit.name().to_string(), stats.garbled_tables));
    }

    let mut table = Table::new(
        "Table 2 — ARM2GC (asm on the garbled CPU) vs HDL synthesis (both with SkipGate)",
        &[
            "Function",
            "TinyGarble-style (HDL)",
            "ARM2GC (CPU)",
            "overhead",
            "paper HDL",
            "paper ARM2GC",
        ],
    );

    let mut machines: Vec<(
        arm2gc_cpu::machine::CpuConfig,
        arm2gc_cpu::machine::GcMachine,
    )> = Vec::new();
    for w in cpu_workloads(quick) {
        let idx = match machines.iter().position(|(c, _)| *c == w.config) {
            Some(i) => i,
            None => {
                machines.push((w.config, machine_for(w.config)));
                machines.len() - 1
            }
        };
        let (_cycles, stats) = w.measure(&machines[idx].1);
        let hdl_count = hdl
            .iter()
            .find(|(n, _)| normalise(n) == normalise(&w.name))
            .map(|(_, c)| *c);
        let paper_row = paper::TABLE2
            .iter()
            .find(|r| normalise(r.name) == normalise(&w.name));
        let overhead = hdl_count
            .map(|h| {
                format!(
                    "{:+.2}%",
                    100.0 * (stats.garbled_tables as f64 - h as f64) / h as f64
                )
            })
            .unwrap_or_else(|| "-".into());
        table.row(vec![
            w.name.clone(),
            hdl_count.map_or("-".into(), |h| fmt_count(h as u128)),
            fmt_count(stats.garbled_tables as u128),
            overhead,
            paper_row.map_or("-".into(), |r| fmt_count(r.tinygarble as u128)),
            paper_row.map_or("-".into(), |r| fmt_count(r.arm2gc as u128)),
        ]);
    }
    // Circuit-substituted rows.
    for name in ["sha3_256", "aes_128"] {
        if let Some((n, c)) = hdl.iter().find(|(n, _)| n == name) {
            let paper_row = paper::TABLE2
                .iter()
                .find(|r| normalise(r.name) == normalise(n));
            table.row(vec![
                format!("{n} (circuit†)"),
                fmt_count(*c as u128),
                fmt_count(*c as u128),
                "0.00%".into(),
                paper_row.map_or("-".into(), |r| fmt_count(r.tinygarble as u128)),
                paper_row.map_or("-".into(), |r| fmt_count(r.arm2gc as u128)),
            ]);
        }
    }
    table.print();
    println!("† bitsliced-C substitution: measured on the direct circuit (DESIGN.md)");
}

fn normalise(name: &str) -> String {
    name.to_lowercase()
        .replace([' ', '_'], "")
        .replace("matmul", "matrixmult")
}
