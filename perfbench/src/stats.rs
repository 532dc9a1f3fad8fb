//! Order statistics shared by the workloads and the comparison mode.

/// Sorts a copy of `values` (NaN-free by construction).
#[must_use]
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; `NaN` for an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// First and third quartiles as Python's `statistics.quantiles(values,
/// n=4)` gives them (the default "exclusive" method). Needs two values.
#[must_use]
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    // A line-for-line port of CPython's exclusive method.
    let at = |i: usize| {
        let m = (n + 1) as i64;
        let j = (i as i64 * m / 4).clamp(1, n as i64 - 1);
        let delta = (i as i64 * m - j * 4) as f64;
        let j = j as usize;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// A latency tail: the `want` percentile when at least ten samples lie
/// beyond it, otherwise the highest percentile that has ten beyond it
/// (the median when even that is impossible). Returns `(percentile
/// used, value)` by nearest rank over `sorted` ascending samples.
#[must_use]
pub fn tail(sorted: &[f64], want: f64) -> (f64, f64) {
    let n = sorted.len();
    if n == 0 {
        return (want, f64::NAN);
    }
    let reachable = 1.0 - 10.0 / n as f64;
    let p = want.min(reachable).max(0.5);
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    (p, sorted[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let (p, x) = tail(&v, 0.99);
        assert!((p - 0.9).abs() < 1e-12);
        assert_eq!(x, 90.0);
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&v, 0.99), (0.99, 1980.0));
    }
}
