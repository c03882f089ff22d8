//! Order statistics: the quiet-cost estimator and the spread the gate
//! uses.

/// The values in ascending order (`f64::total_cmp`, so NaN sorts last
/// instead of panicking).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

/// Linear-interpolation percentile of an ascending, non-empty slice;
/// `p` is a share in `0..=1` (rank `p * (n - 1)`).
///
/// # Panics
///
/// Panics on an empty slice: every caller times at least one repeat.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let pos = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// [`percentile_sorted`] of unsorted samples.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    percentile_sorted(&sorted(values), p)
}

/// The quiet cost of a timed unit: the lower quartile of its repeats.
/// The minimum has extreme-value noise and, across a thread hand-off, a
/// rare lucky mode; the median still carries the machine's slow epochs.
pub fn lower_quartile(values: &[f64]) -> f64 {
    percentile(values, 0.25)
}

/// The three quartiles as Python's `statistics.quantiles(values, n=4)`
/// gives them (the "exclusive" method) — what the acceptance driver
/// computes, so `aa` and `compare` print the same spread it will see.
/// Fewer than two values have no spread: all three are the value itself.
pub fn quartiles_exclusive(values: &[f64]) -> [f64; 3] {
    let data = sorted(values);
    let n = data.len();
    assert!(n > 0, "quartiles of no samples");
    if n < 2 {
        return [data[0]; 3];
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// Distance between the first and third quartile as a share of the
/// median (0 when the median is 0).
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles_exclusive(values);
    if q2 == 0.0 {
        0.0
    } else {
        ((q3 - q1) / q2).abs()
    }
}
