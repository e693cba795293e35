//! Order statistics and the regression verdict `compare` applies.

/// Median of `values` (mean of the middle pair for an even count), as
/// Python's `statistics.median` computes it. `NaN` for no values.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// First and third quartiles with Python's `statistics.quantiles(values,
/// n=4)` (its default "exclusive" method), so spreads read the same as
/// the ones a Python check computes. A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let sorted = sorted(values);
    let len = sorted.len();
    match len {
        0 => (f64::NAN, f64::NAN),
        1 => (sorted[0], sorted[0]),
        _ => {
            let m = len + 1;
            let cut = |i: usize| {
                let j = (i * m / 4).clamp(1, len - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
            };
            (cut(1), cut(3))
        }
    }
}

/// Interquartile range as a share of the median.
pub fn relative_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// How one (metric, workload) pair moved from a base set of runs to a
/// changed set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The change wins at least nine tenths of the seed-paired runs and
    /// its median beats the base median by more than the base's own
    /// interquartile range.
    Improved,
    /// No claimable gain, and the median is not worse than the bound.
    WithinBound,
    /// The median is worse than the base median by more than the bound.
    Regressed,
    /// One side's interquartile spread exceeds the bound, so a move
    /// inside the noise cannot be told apart from no move.
    Unresolved,
}

impl Verdict {
    /// The label `compare` prints.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::WithinBound => "within-bound",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `changed` against `base`. `pairs` are (base, changed) values
/// of runs that share a seed; `bound` is the share of the base median a
/// metric may worsen by; `higher_is_better` gives its direction.
pub fn verdict(
    base: &[f64],
    changed: &[f64],
    pairs: &[(f64, f64)],
    bound: f64,
    higher_is_better: bool,
) -> Verdict {
    // Orient every value so that larger is better.
    let sign = if higher_is_better { 1.0 } else { -1.0 };
    let better = |a: f64, b: f64| sign * b > sign * a;
    let (base_med, changed_med) = (median(base), median(changed));
    let all_better = base.iter().all(|&b| changed.iter().all(|&c| better(b, c)));
    if relative_spread(base) > bound || relative_spread(changed) > bound {
        return if all_better {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        };
    }
    let wins = pairs.iter().filter(|&&(b, c)| better(b, c)).count();
    let (q1, q3) = quartiles(base);
    if !pairs.is_empty()
        && wins * 10 >= pairs.len() * 9
        && sign * (changed_med - base_med) > q3 - q1
    {
        return Verdict::Improved;
    }
    if sign * (base_med - changed_med) > bound * base_med.abs() {
        Verdict::Regressed
    } else {
        Verdict::WithinBound
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // clamped index extrapolates past both ends.
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn relative_spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_spread(&ten) - 5.5 / 5.5).abs() < 1e-12);
    }

    fn paired(base: &[f64], changed: &[f64]) -> Vec<(f64, f64)> {
        base.iter().copied().zip(changed.iter().copied()).collect()
    }

    #[test]
    fn verdict_regressed_when_median_worse_than_bound() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower = [80.0, 81.0, 79.0, 80.5, 79.5];
        let v = verdict(&base, &slower, &paired(&base, &slower), 0.10, true);
        assert_eq!(v, Verdict::Regressed);
        // The same numbers read as latencies are a gain.
        let v = verdict(&base, &slower, &paired(&base, &slower), 0.10, false);
        assert_eq!(v, Verdict::Improved);
    }

    #[test]
    fn verdict_within_bound_for_small_moves() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        let close = [98.0, 99.0, 97.0, 98.5, 97.5];
        let v = verdict(&base, &close, &paired(&base, &close), 0.10, true);
        assert_eq!(v, Verdict::WithinBound);
    }

    #[test]
    fn verdict_needs_nine_tenths_of_pairs_for_a_gain() {
        let base = [
            100.0, 100.0, 100.0, 100.0, 100.0, 100.0, 100.0, 100.0, 100.0, 100.0,
        ];
        let mut changed = [110.0; 10];
        assert_eq!(
            verdict(&base, &changed, &paired(&base, &changed), 0.10, true),
            Verdict::Improved
        );
        // Two losing pairs out of ten: no claim, and no regression.
        changed[0] = 90.0;
        changed[1] = 90.0;
        assert_eq!(
            verdict(&base, &changed, &paired(&base, &changed), 0.25, true),
            Verdict::WithinBound
        );
    }

    #[test]
    fn verdict_unresolved_when_spread_exceeds_bound() {
        let base = [50.0, 100.0, 150.0, 75.0, 125.0];
        let changed = [60.0, 95.0, 140.0, 80.0, 120.0];
        let v = verdict(&base, &changed, &paired(&base, &changed), 0.10, true);
        assert_eq!(v, Verdict::Unresolved);
        // Unless every changed run beats every base run.
        let far = [200.0, 210.0, 220.0, 230.0, 240.0];
        let v = verdict(&base, &far, &paired(&base, &far), 0.10, true);
        assert_eq!(v, Verdict::Improved);
    }
}
