//! Sample statistics: median, quartiles and the tail-percentile rule.

/// Median, quartiles and sample count of one timing.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND_TAIL: usize = 10;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of sorted data (mean of the middle two for an even count).
fn median_sorted(v: &[f64]) -> f64 {
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile by Python's `statistics.quantiles(data, n=4)`
/// (the default "exclusive" method), so the figures printed here match the
/// ones a reader computes from the raw samples. One sample gives itself.
fn quartiles_sorted(v: &[f64]) -> (f64, f64) {
    let ld = v.len();
    if ld == 1 {
        return (v[0], v[0]);
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Summarise `samples`; `None` when there are none.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let v = sorted(samples);
    let (q1, q3) = quartiles_sorted(&v);
    Some(Summary {
        n: v.len(),
        median: median_sorted(&v),
        q1,
        q3,
    })
}

/// Nearest-rank percentile `p` (0 < p < 1), reported only when at least
/// [`MIN_BEYOND_TAIL`] samples lie beyond it: a tail read from fewer
/// samples is one or two outliers, not a percentile.
pub fn tail(samples: &[f64], p: f64) -> Option<f64> {
    let rank = tail_rank(samples.len(), p)?;
    Some(sorted(samples)[rank - 1])
}

/// Smallest sample count at which [`tail`] reports percentile `p`.
pub fn samples_for_tail(p: f64) -> usize {
    (1..)
        .find(|&n| tail_rank(n, p).is_some())
        .unwrap_or(usize::MAX)
}

fn tail_rank(n: usize, p: f64) -> Option<usize> {
    // The epsilon keeps `0.99 * 1000` at rank 990 despite rounding.
    let rank = (p * n as f64 - 1e-9).ceil() as usize;
    (rank > 0 && n >= rank + MIN_BEYOND_TAIL).then_some(rank)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let data: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&data).expect("non-empty");
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]).expect("non-empty");
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[2.0, 1.0]).expect("non-empty");
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        let s = summarize(&[5.0, 1.0, 4.0, 2.0, 3.0]).expect("non-empty");
        assert_eq!((s.q1, s.median, s.q3, s.n), (1.5, 3.0, 4.5, 5));
    }

    #[test]
    fn single_and_empty_samples() {
        assert_eq!(summarize(&[]), None);
        let s = summarize(&[4.0]).expect("non-empty");
        assert_eq!((s.q1, s.median, s.q3, s.n), (4.0, 4.0, 4.0, 1));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p99 of 1000 samples leaves exactly 10 beyond: reported.
        let data: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&data, 0.99), Some(990.0));
        // 999 samples leave only 9 beyond: withheld.
        assert_eq!(tail(&data[..999], 0.99), None);
        // p90 needs 100 samples.
        assert_eq!(tail(&data[..100], 0.90), Some(90.0));
        assert_eq!(tail(&data[..99], 0.90), None);
        assert_eq!(samples_for_tail(0.99), 1000);
        assert_eq!(samples_for_tail(0.90), 100);
        assert_eq!(tail(&[], 0.5), None);
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut data: Vec<f64> = (1..=200).map(f64::from).collect();
        data.reverse();
        assert_eq!(tail(&data, 0.90), Some(180.0));
    }
}
