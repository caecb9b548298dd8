//! Order statistics the benchmark reports: medians, the tail-percentile
//! rule, and the quartile spread the bounds are fixed from.

/// Median of `samples` (mean of the two middle values for an even
/// count). 0 for an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Percentiles a tail may be reported at above the median, lowest
/// first, each with the share of samples beyond it as "one in k" (whole
/// numbers, so the ten-sample rule is exact).
const TAIL_LADDER: [(f64, usize); 4] = [(90.0, 10), (99.0, 100), (99.9, 1000), (99.99, 10_000)];

/// The tail rule: the highest percentile of the ladder 50 / 90 / 99 /
/// 99.9 / 99.99 that still has at least ten samples beyond it, and the
/// sample at that percentile. With fewer than 100 samples no percentile
/// above the median qualifies, and the median is returned as p50.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    if samples.is_empty() {
        return (50.0, 0.0);
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let mut best = (50.0, median(&v));
    for &(p, one_in) in &TAIL_LADDER {
        // Samples strictly beyond the p-th percentile position.
        let beyond = n / one_in;
        if beyond >= 10 {
            best = (p, v[n - 1 - beyond]);
        }
    }
    best
}

/// The three quartile cut points, computed as Python's
/// `statistics.quantiles(values, n=4)` computes them (the "exclusive"
/// method) — the driver fixes acceptance on exactly this arithmetic.
/// Needs at least two samples.
pub fn quartiles(samples: &[f64]) -> Option<[f64; 3]> {
    let n = samples.len();
    if n < 2 {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Inter-quartile distance as a share of the median — the run-to-run
/// spread a bound must exceed. 0 when the median is 0.
pub fn iqr_share(samples: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(samples)?;
    let med = median(samples);
    Some(if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_the_percentile() {
        let ramp = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 19 samples: p90 would leave only 1 beyond; stay at the median.
        assert_eq!(tail(&ramp(19)), (50.0, 10.0));
        // 100 samples: p90 leaves exactly 10 beyond (91..=100).
        assert_eq!(tail(&ramp(100)), (90.0, 90.0));
        // 999 samples: p99 would leave 9 beyond; still p90.
        assert_eq!(tail(&ramp(999)).0, 90.0);
        // 1000 samples: p99 leaves exactly 10 beyond.
        assert_eq!(tail(&ramp(1000)), (99.0, 990.0));
        assert_eq!(tail(&ramp(10_000)).0, 99.9);
        assert_eq!(tail(&ramp(100_000)).0, 99.99);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        //   == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some([10.0, 20.0, 40.0]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(iqr_share(&v), Some(1.0));
    }
}
