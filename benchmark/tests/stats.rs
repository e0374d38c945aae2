//! Median, quartile and bound arithmetic.

use dynabench::stats::{judge, quantile, worsening, Better, Summary, Verdict};

#[test]
fn quartiles_match_pythons_exclusive_method() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    let s = Summary::of(&ten);
    assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
    // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
    let s = Summary::of(&[3.0, 1.0, 2.0]);
    assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
    // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15.0, 40.0, 120.0]
    let s = Summary::of(&[160.0, 10.0, 40.0, 20.0, 80.0]);
    assert_eq!((s.q1, s.median, s.q3), (15.0, 40.0, 120.0));
    assert_eq!(quantile(&[7.0], 0.25), 7.0);
}

#[test]
fn spread_is_iqr_over_median() {
    let s = Summary::of(&[10.0, 20.0, 40.0, 80.0, 160.0]);
    assert_eq!(s.spread(), (120.0 - 15.0) / 40.0);
    assert_eq!(Summary::exact(3.5).spread(), 0.0);
    assert_eq!(Summary::exact(0.0).spread(), 0.0);
}

#[test]
fn worsening_respects_direction() {
    assert!((worsening(100.0, 112.0, Better::Lower) - 0.12).abs() < 1e-12);
    assert!((worsening(100.0, 112.0, Better::Higher) + 0.12).abs() < 1e-12);
    assert_eq!(worsening(0.0, 0.0, Better::Lower), 0.0);
    assert_eq!(worsening(0.0, 1.0, Better::Lower), f64::INFINITY);
}

fn tight(median: f64) -> Summary {
    Summary {
        median,
        q1: median * 0.99,
        q3: median * 1.01,
        n: 9,
    }
}

#[test]
fn judge_applies_the_bound_both_ways() {
    let base = tight(100.0);
    assert_eq!(
        judge(&base, &tight(109.0), Better::Lower, 0.10),
        Verdict::Within
    );
    assert_eq!(
        judge(&base, &tight(111.0), Better::Lower, 0.10),
        Verdict::Regressed
    );
    assert_eq!(
        judge(&base, &tight(89.0), Better::Lower, 0.10),
        Verdict::Improved
    );
    assert_eq!(
        judge(&base, &tight(89.0), Better::Higher, 0.10),
        Verdict::Regressed
    );
    assert_eq!(
        judge(&base, &tight(111.0), Better::Higher, 0.10),
        Verdict::Improved
    );
}

#[test]
fn wide_overlapping_spreads_are_unresolved_not_equal() {
    let noisy = Summary {
        median: 100.0,
        q1: 90.0,
        q3: 115.0,
        n: 9,
    };
    // Same median, but a 25% inter-quartile range cannot support "equal".
    assert_eq!(
        judge(&noisy, &tight(100.0), Better::Lower, 0.10),
        Verdict::Unresolved
    );
    assert_eq!(
        judge(&tight(100.0), &noisy, Better::Lower, 0.10),
        Verdict::Unresolved
    );
    // Disjoint ranges decide the direction whatever their width.
    let far = Summary {
        median: 200.0,
        q1: 170.0,
        q3: 230.0,
        n: 9,
    };
    assert_eq!(judge(&noisy, &far, Better::Lower, 0.10), Verdict::Regressed);
}
