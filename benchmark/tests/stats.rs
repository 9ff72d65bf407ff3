//! The order-statistics helpers every reported number goes through.

use wcc_benchmark::stats;

#[test]
fn percentile_is_nearest_rank_on_raw_samples() {
    let sorted: Vec<u32> = (1..=100).collect();
    assert_eq!(stats::percentile(&sorted, 0.5), Some(50));
    assert_eq!(stats::percentile(&sorted, 0.99), Some(99));
    assert_eq!(stats::percentile(&sorted, 1.0), Some(100));
    assert_eq!(stats::percentile(&sorted, 0.0), Some(1));
    assert_eq!(stats::percentile(&[7u32], 0.999), Some(7));
    assert_eq!(stats::percentile::<u32>(&[], 0.5), None);
    // No bucketing: a value between histogram bucket edges comes back exact.
    assert_eq!(
        stats::percentile(&[8_191u32, 9_000, 10_751], 0.5),
        Some(9_000)
    );
}

#[test]
fn median_of_slices() {
    assert_eq!(stats::median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(stats::median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    assert_eq!(stats::median(&[]), None);
    // One disturbed slice cannot move it.
    assert_eq!(
        stats::median(&[100.0, 101.0, 99.0, 100.0, 15.0]),
        Some(100.0)
    );
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(stats::quartiles(&v), Some((2.75, 5.5, 8.25)));
    // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
    assert_eq!(
        stats::quartiles(&[40.0, 10.0, 20.0]),
        Some((10.0, 20.0, 40.0))
    );
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    assert_eq!(stats::quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
    assert_eq!(stats::quartiles(&[1.0]), None);
}

#[test]
fn iqr_is_a_share_of_the_median() {
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert!((stats::iqr_pct(&v) - 100.0).abs() < 1e-9); // (8.25 - 2.75) / 5.5
    assert_eq!(stats::iqr_pct(&[5.0]), 0.0);
    assert_eq!(stats::iqr_pct(&[0.0, 0.0, 0.0]), 0.0);
}

#[test]
fn tail_needs_ten_samples_beyond_it() {
    assert!(!stats::tail_supported(999, 0.99));
    assert!(stats::tail_supported(1_000, 0.99));
    assert!(!stats::tail_supported(9_999, 0.999));
    assert!(stats::tail_supported(10_000, 0.999));
    assert_eq!(stats::highest_tail(50), None);
    assert_eq!(stats::highest_tail(100).map(|t| t.0), Some("p90"));
    assert_eq!(stats::highest_tail(1_200).map(|t| t.0), Some("p99"));
    assert_eq!(stats::highest_tail(50_000).map(|t| t.0), Some("p99.9"));
    assert_eq!(stats::highest_tail(600_000).map(|t| t.0), Some("p99.99"));
}

#[test]
fn unit_medians_survive_a_disturbed_pass_and_a_ragged_one() {
    let passes = vec![
        vec![1.0, 2.0, 3.0],
        vec![1.0, 9.0, 3.0], // one unit of one pass disturbed
        vec![1.0, 2.0, 3.0],
        vec![1.0], // the clock ran out
    ];
    assert_eq!(stats::sum_of_unit_medians(&passes, 3), Some(6.0));
    assert_eq!(stats::sum_of_unit_medians(&passes, 4), None);
}

#[test]
fn exact_counts_agree_with_sorted_raw_samples() {
    // Values on both sides of the direct range, in scrambled order.
    let samples: Vec<u32> = (0..5_000u32)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 12) % 40_000)
        .collect();
    let mut counts = stats::ExactCounts::default();
    let mut other = stats::ExactCounts::default();
    for (i, &s) in samples.iter().enumerate() {
        if i % 2 == 0 {
            counts.record(s)
        } else {
            other.record(s)
        }
    }
    counts.merge(&other);
    let mut sorted = samples.clone();
    sorted.sort_unstable();
    assert!(
        sorted.iter().any(|&s| s >= stats::ExactCounts::DIRECT),
        "the overflow path is exercised"
    );
    assert_eq!(counts.len(), 5_000);
    for q in [0.0, 0.001, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
        assert_eq!(
            counts.percentile(q),
            stats::percentile(&sorted, q),
            "q = {q}"
        );
    }
    assert_eq!(stats::ExactCounts::default().percentile(0.5), None);
}
