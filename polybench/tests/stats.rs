//! The lower-quartile / percentile arithmetic behind every wall metric.

use polybench::stats::{
    lower_quartile, percentile, percentile_sorted, quartiles_exclusive, spread,
};

#[test]
fn percentile_interpolates_between_ranks() {
    let sorted = [10.0, 20.0, 30.0, 40.0, 50.0];
    assert_eq!(percentile_sorted(&sorted, 0.0), 10.0);
    assert_eq!(percentile_sorted(&sorted, 1.0), 50.0);
    assert_eq!(percentile_sorted(&sorted, 0.5), 30.0);
    // rank 0.9 * 4 = 3.6: six tenths of the way from 40 to 50.
    assert!((percentile_sorted(&sorted, 0.9) - 46.0).abs() < 1e-12);
    // Out-of-range shares clamp.
    assert_eq!(percentile_sorted(&sorted, -1.0), 10.0);
    assert_eq!(percentile_sorted(&sorted, 2.0), 50.0);
}

#[test]
fn percentile_sorts_its_input() {
    assert_eq!(percentile(&[50.0, 10.0, 40.0, 20.0, 30.0], 0.5), 30.0);
    assert_eq!(percentile(&[4.0, 1.0, 3.0, 2.0], 0.5), 2.5);
}

#[test]
fn lower_quartile_is_the_quiet_cost() {
    // Five set-ups: the second smallest.
    assert_eq!(lower_quartile(&[0.49, 0.37, 0.41, 0.38, 0.45]), 0.38);
    // One slow epoch among forty repeats does not move it.
    let mut repeats = vec![1.0; 30];
    repeats.extend([1.85; 10]);
    assert_eq!(lower_quartile(&repeats), 1.0);
    // A single sample is its own quartile.
    assert_eq!(lower_quartile(&[7.0]), 7.0);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles_exclusive(&ten), [2.75, 5.5, 8.25]);
    // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
    assert_eq!(
        quartiles_exclusive(&[5.0, 1.0, 4.0, 2.0, 3.0]),
        [1.5, 3.0, 4.5]
    );
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    assert_eq!(quartiles_exclusive(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    assert_eq!(quartiles_exclusive(&[3.0]), [3.0, 3.0, 3.0]);
}

#[test]
fn spread_is_the_interquartile_distance_over_the_median() {
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert!((spread(&ten) - 1.0).abs() < 1e-12);
    assert_eq!(spread(&[2.0, 2.0, 2.0]), 0.0);
    assert_eq!(spread(&[0.0, 0.0]), 0.0);
}
