//! `benchmark compare A.json B.json` and `benchmark spread R*.json`:
//! judging two result files by the benchmark's own bounds, and fixing
//! the same-code spread those bounds rest on.

use crate::json::Value;
use crate::report::{format_value, Better, END_TO_END};
use crate::stats::{iqr_share, median};
use crate::workloads::Workload;

/// How B compares with A on one (metric, workload) pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B is better than A by more than the same-code spread.
    Better,
    /// Neither better nor worse.
    Same,
    /// B is worse than A by more than the bound.
    Worse,
    /// The same-code spread of this pair exceeds the bound, so the
    /// benchmark cannot tell.
    Unresolved,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges one pair. `a` is the base: the worsening is expressed as a
/// share of it. `spread` is the recorded same-code inter-quartile
/// spread of the pair (0 when none is recorded).
pub fn judge(a: f64, b: f64, better: Better, bound: f64, spread: f64) -> Verdict {
    if spread > bound {
        return Verdict::Unresolved;
    }
    if a == 0.0 {
        return if b == 0.0 {
            Verdict::Same
        } else {
            Verdict::Unresolved
        };
    }
    let worsening = match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    };
    if worsening > bound {
        Verdict::Worse
    } else if worsening < 0.0 && -worsening > spread {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn metric_of(result: &Value, workload: &str, metric: &str) -> Option<f64> {
    result
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

fn failed_share(result: &Value, workload: &str) -> Option<f64> {
    let w = result.get("workloads")?.get(workload)?;
    Some(w.get("failed")?.as_f64()? / w.get("attempted")?.as_f64()?.max(1.0))
}

fn recorded_spread(spread: Option<&Value>, workload: &str, metric: &str) -> f64 {
    spread
        .and_then(|s| s.get("spread")?.get(workload)?.get(metric)?.as_f64())
        .unwrap_or(0.0)
}

/// The comparison table of two result files, and whether B may land:
/// `false` on any `worse` verdict or any rise in the failed share.
pub fn compare(a: &Value, b: &Value, spread: Option<&Value>) -> (String, bool) {
    let mut out = format!(
        "{:<18} {:<16} {:>14} {:>14} {:>9} {:>7} {:>7}  verdict\n",
        "workload", "metric", "A (base)", "B", "B/A", "bound", "spread"
    );
    let mut ok = true;
    for workload in Workload::ALL.map(Workload::name) {
        for m in END_TO_END {
            let (Some(va), Some(vb)) = (
                metric_of(a, workload, m.name),
                metric_of(b, workload, m.name),
            ) else {
                continue;
            };
            let spread = recorded_spread(spread, workload, m.name);
            let verdict = judge(va, vb, m.better, m.bound, spread);
            ok &= verdict != Verdict::Worse;
            out.push_str(&format!(
                "{:<18} {:<16} {:>14} {:>14} {:>9.4} {:>7.3} {:>7.3}  {}\n",
                workload,
                m.name,
                format_value(va),
                format_value(vb),
                if va == 0.0 { f64::NAN } else { vb / va },
                m.bound,
                spread,
                verdict.word()
            ));
        }
        if let (Some(fa), Some(fb)) = (failed_share(a, workload), failed_share(b, workload)) {
            let rose = fb > fa;
            ok &= !rose;
            out.push_str(&format!(
                "{:<18} {:<16} {:>14} {:>14} {:>9} {:>7} {:>7}  {}\n",
                workload,
                "failed_frac",
                format_value(fa),
                format_value(fb),
                "",
                "exact",
                "",
                if rose { "worse" } else { "same" }
            ));
        }
    }
    if let (Some(ca), Some(cb)) = (comparable(a), comparable(b)) {
        if !(ca && cb) {
            out.push_str(
                "note: a --quick result is not comparable; verdicts are indicative only\n",
            );
        }
    }
    (out, ok)
}

fn comparable(result: &Value) -> Option<bool> {
    match result.get("meta")?.get("comparable")? {
        Value::Bool(b) => Some(*b),
        _ => None,
    }
}

/// The same-code spread of every (end-to-end metric, workload) pair
/// over several result files of one commit: inter-quartile distance as
/// a share of the median, as Python's `statistics.quantiles(n=4)` cuts
/// it, and the median itself.
pub fn spread(results: &[Value]) -> Value {
    let per_workload = |f: &dyn Fn(&[f64]) -> f64| {
        Value::obj(
            Workload::ALL
                .map(Workload::name)
                .into_iter()
                .map(|workload| {
                    (
                        workload,
                        Value::obj(END_TO_END.iter().filter_map(|m| {
                            let values: Vec<f64> = results
                                .iter()
                                .filter_map(|r| metric_of(r, workload, m.name))
                                .collect();
                            (values.len() >= 2).then(|| (m.name, Value::Num(f(&values))))
                        })),
                    )
                }),
        )
    };
    Value::obj([
        ("runs", Value::Num(results.len() as f64)),
        ("spread", per_workload(&|v| iqr_share(v).unwrap_or(0.0))),
        ("median", per_workload(&median)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_spread_and_direction() {
        use Better::{Higher, Lower};
        assert_eq!(judge(1.0, 1.05, Lower, 0.10, 0.02), Verdict::Same);
        assert_eq!(judge(1.0, 1.11, Lower, 0.10, 0.02), Verdict::Worse);
        assert_eq!(judge(1.0, 0.97, Lower, 0.10, 0.02), Verdict::Better);
        assert_eq!(judge(1.0, 0.99, Lower, 0.10, 0.02), Verdict::Same);
        // Throughput: lower is worse, and the base of the share is A.
        assert_eq!(judge(100.0, 89.0, Higher, 0.10, 0.0), Verdict::Worse);
        assert_eq!(judge(100.0, 120.0, Higher, 0.10, 0.0), Verdict::Better);
        // A spread wider than the bound cannot resolve anything.
        assert_eq!(judge(1.0, 2.0, Lower, 0.10, 0.15), Verdict::Unresolved);
        // Exact counters: any rise beyond the hairline bound is worse.
        assert_eq!(judge(1000.0, 1002.0, Lower, 0.001, 0.0), Verdict::Worse);
        assert_eq!(judge(1000.0, 1000.0, Lower, 0.001, 0.0), Verdict::Same);
    }

    fn result(session_s: f64, failed: f64) -> Value {
        Value::obj([(
            "workloads",
            Value::obj([(
                "hdl_matmul8",
                Value::obj([
                    ("attempted", Value::Num(20.0)),
                    ("failed", Value::Num(failed)),
                    (
                        "end_to_end",
                        Value::obj([(
                            "session_s",
                            Value::obj([
                                ("value", Value::Num(session_s)),
                                ("unit", Value::str("s")),
                            ]),
                        )]),
                    ),
                ]),
            )]),
        )])
    }

    #[test]
    fn compare_fails_on_worse_and_on_a_rise_in_failures() {
        let (table, ok) = compare(&result(0.5, 0.0), &result(0.52, 0.0), None);
        assert!(ok, "{table}");
        assert!(table.contains("hdl_matmul8") && table.contains("same"));
        let (table, ok) = compare(&result(0.5, 0.0), &result(0.6, 0.0), None);
        assert!(!ok && table.contains("worse"));
        let (_, ok) = compare(&result(0.5, 0.0), &result(0.5, 1.0), None);
        assert!(!ok);
        let wide = Value::obj([(
            "spread",
            Value::obj([("hdl_matmul8", Value::obj([("session_s", Value::Num(0.2))]))]),
        )]);
        let (table, ok) = compare(&result(0.5, 0.0), &result(0.9, 0.0), Some(&wide));
        assert!(ok && table.contains("unresolved"));
    }

    #[test]
    fn spread_is_the_quartile_distance_over_the_median() {
        let runs: Vec<Value> = (1..=10).map(|i| result(f64::from(i), 0.0)).collect();
        let s = spread(&runs);
        let get = |key: &str| {
            s.get(key)
                .unwrap()
                .get("hdl_matmul8")
                .unwrap()
                .get("session_s")
                .unwrap()
                .as_f64()
        };
        assert_eq!(get("spread"), Some(1.0));
        assert_eq!(get("median"), Some(5.5));
    }
}
