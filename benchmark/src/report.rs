//! The metric catalogue and the shape of a run's result.
//!
//! `BENCHMARK.json` at the repository root lists the same names, units,
//! directions and bounds; a self-test keeps the two in step.

use crate::json::Value;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: reported by every workload, gated by `bound`.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// The end-to-end metrics, in reporting order. Bounds are fixed from
/// ten same-commit runs of every workload (`benchmark/spread.json`):
/// each is at least three times the widest spread seen for the metric
/// on any workload.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "session_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "sessions_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.15,
    },
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "wire_bytes",
        unit: "B",
        better: Better::Lower,
        bound: 0.001,
    },
    EndToEnd {
        name: "garbled_tables",
        unit: "count",
        better: Better::Lower,
        bound: 0.001,
    },
];

/// The per-crate metrics of the traced run: `(name, unit, better)`, in
/// reporting order. A metric that does not apply to a workload is
/// reported as 0 there.
pub const PER_LAYER: [(&str, &str, Better); 63] = [
    ("cpu.build_s", "s", Better::Lower),
    ("cpu.assemble_s", "s", Better::Lower),
    ("cpu.iss_s", "s", Better::Lower),
    ("cpu.cycles", "count", Better::Lower),
    ("circuit.level_s", "s", Better::Lower),
    ("circuit.levels", "count", Better::Lower),
    ("circuit.gates", "count", Better::Lower),
    ("circuit.non_xor", "count", Better::Lower),
    ("circuit.max_nonlinear_width", "count", Better::Higher),
    ("core.garbler_s", "s", Better::Lower),
    ("core.evaluator_s", "s", Better::Lower),
    ("core.parallelism", "ratio", Better::Higher),
    ("core.decide_s", "s", Better::Lower),
    ("core.decide_ns_per_gate", "ns", Better::Lower),
    ("core.garbled", "count", Better::Lower),
    ("core.skipped_nonlinear", "count", Better::Higher),
    ("core.public_out", "count", Better::Higher),
    ("core.pass", "count", Better::Higher),
    ("core.free_xor", "count", Better::Higher),
    ("core.useful_frac", "frac", Better::Higher),
    ("core.batches", "count", Better::Lower),
    ("core.mean_batch", "count", Better::Higher),
    ("core.releveled_cycles", "count", Better::Lower),
    ("core.lane_speedup", "ratio", Better::Higher),
    ("garble.garble_batch_s", "s", Better::Lower),
    ("garble.eval_batch_s", "s", Better::Lower),
    ("garble.ns_per_table", "ns", Better::Lower),
    ("crypto.hash2_batch_s", "s", Better::Lower),
    ("crypto.aes_blocks_per_s", "1/s", Better::Higher),
    ("proto.encode_s", "s", Better::Lower),
    ("proto.decode_s", "s", Better::Lower),
    ("proto.frames", "count", Better::Lower),
    ("proto.bytes_per_frame", "B", Better::Higher),
    ("proto.shards2_ratio", "ratio", Better::Lower),
    ("comm.mem_send_s", "s", Better::Lower),
    ("comm.tcp_send_s", "s", Better::Lower),
    ("comm.sent_msgs", "count", Better::Lower),
    ("comm.sent_bytes", "B", Better::Lower),
    ("ot.base_s", "s", Better::Lower),
    ("ot.extend_s", "s", Better::Lower),
    ("ot.ots", "count", Better::Lower),
    ("ot.base_setups", "count", Better::Lower),
    ("ot.extended", "count", Better::Lower),
    ("server.connect_s", "s", Better::Lower),
    ("server.drive_s", "s", Better::Lower),
    ("server.overhead_s", "s", Better::Lower),
    ("server.session_tail_s", "s", Better::Lower),
    ("server.session_tail_pct", "%", Better::Higher),
    ("server.job_queue_high_water", "count", Better::Lower),
    ("server.send_queue_high_water", "count", Better::Lower),
    ("server.sessions_completed", "count", Better::Higher),
    ("server.sessions_failed", "count", Better::Lower),
    ("server.sessions_rejected", "count", Better::Lower),
    ("server.ot_reuse_miss_frac", "frac", Better::Lower),
    ("session_samples", "count", Better::Higher),
    ("traced_session_s", "s", Better::Lower),
    ("untraced_session_s", "s", Better::Lower),
    ("trace_overhead_frac", "frac", Better::Lower),
    ("attributed_s", "s", Better::Higher),
    ("unattributed_frac", "frac", Better::Lower),
    ("failed_frac", "frac", Better::Lower),
    ("session_self_s", "s", Better::Lower),
    ("spans", "count", Better::Lower),
];

/// One measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, from the catalogue.
    pub name: &'static str,
    /// The value as measured, with all its digits.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self { name, value, unit }
    }
}

/// What one run of one workload produced.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Workload name.
    pub workload: &'static str,
    /// Sessions attempted, warm-up and probe sessions included; every
    /// one is verified against the cleartext model.
    pub attempted: u64,
    /// Sessions that failed, were refused, or decoded wrong outputs.
    pub failed: u64,
    /// The metrics of this run: end-to-end for an untraced run,
    /// per-crate for a traced one.
    pub metrics: Vec<Metric>,
    /// Human-readable remarks (first failure, loopback note, ...).
    pub notes: Vec<String>,
}

impl RunResult {
    /// Whether every attempted session verified.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result object the driver reads from the last line of stdout:
    /// exactly `correct`, `attempted`, `failed` and `metrics`.
    pub fn to_json(&self) -> Value {
        Value::obj([
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            (
                "metrics",
                Value::obj(self.metrics.iter().map(|m| {
                    (
                        m.name,
                        Value::obj([("value", Value::Num(m.value)), ("unit", Value::str(m.unit))]),
                    )
                })),
            ),
        ])
    }

    /// Every metric by name with its unit, one per line, then the notes.
    pub fn to_text(&self) -> String {
        let mut out = format!(
            "workload {}: {} sessions attempted, {} failed\n",
            self.workload, self.attempted, self.failed
        );
        for m in &self.metrics {
            out.push_str(&format!(
                "  {:<32} {:>18} {}\n",
                m.name,
                format_value(m.value),
                m.unit
            ));
        }
        for note in &self.notes {
            out.push_str(&format!("  note: {note}\n"));
        }
        out
    }
}

/// A value for people: whole counts as integers, the rest to six
/// significant digits.
pub fn format_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else if v.abs() >= 100.0 {
        format!("{v:.2}")
    } else {
        let digits = (5 - v.abs().log10().floor() as i32).clamp(0, 12) as usize;
        format!("{v:.digits$}")
    }
}

/// Arranges `found` in the catalogue's per-crate order, filling the
/// metrics that do not apply to the workload with 0.
pub fn in_per_layer_order(found: &[Metric]) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit, _)| {
            found
                .iter()
                .find(|m| m.name == name)
                .cloned()
                .unwrap_or(Metric::new(name, 0.0, unit))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        for name in &names {
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')));
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a metric name is used twice");
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let r = RunResult {
            workload: "w",
            attempted: 3,
            failed: 0,
            metrics: vec![Metric::new("setup_s", 0.8127, "s")],
            notes: vec![],
        };
        let line = r.to_json().to_line();
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\
             \"metrics\":{\"setup_s\":{\"value\":0.8127,\"unit\":\"s\"}}}"
        );
        let failed = RunResult { failed: 1, ..r };
        assert!(!failed.correct());
    }

    #[test]
    fn missing_per_layer_metrics_are_reported_as_zero() {
        let all = in_per_layer_order(&[Metric::new("ot.base_s", 0.45, "s")]);
        assert_eq!(all.len(), PER_LAYER.len());
        assert_eq!(
            all.iter().find(|m| m.name == "ot.base_s").unwrap().value,
            0.45
        );
        assert_eq!(
            all.iter().find(|m| m.name == "cpu.build_s").unwrap().value,
            0.0
        );
    }
}
