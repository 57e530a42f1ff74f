//! Aggregation operators over `(ts, value)` series — the `min()`, `max()`,
//! `avg()`, `movingAverage()` operators PFMaterializer's workflow uses
//! (§4.6, step 2) — and [`join`], the timestamp join its cross-series
//! correlations run on.

/// Minimum value, `None` on an empty series.
pub fn min(series: &[(u64, f64)]) -> Option<f64> {
    series
        .iter()
        .map(|&(_, v)| v)
        .fold(None, |acc, v| match acc {
            None => Some(v),
            Some(a) => Some(a.min(v)),
        })
}

/// Maximum value.
pub fn max(series: &[(u64, f64)]) -> Option<f64> {
    series
        .iter()
        .map(|&(_, v)| v)
        .fold(None, |acc, v| match acc {
            None => Some(v),
            Some(a) => Some(a.max(v)),
        })
}

/// Sum of values.
pub fn sum(series: &[(u64, f64)]) -> f64 {
    series.iter().map(|&(_, v)| v).sum()
}

/// Arithmetic mean, `None` on an empty series.
pub fn mean(series: &[(u64, f64)]) -> Option<f64> {
    if series.is_empty() {
        None
    } else {
        Some(sum(series) / series.len() as f64)
    }
}

/// Population standard deviation.
pub fn stddev(series: &[(u64, f64)]) -> Option<f64> {
    let m = mean(series)?;
    let var = series.iter().map(|&(_, v)| (v - m) * (v - m)).sum::<f64>() / series.len() as f64;
    Some(var.sqrt())
}

/// Trailing moving average with the given window; output series has the same
/// timestamps, first `window-1` entries average what is available.
pub fn moving_average(series: &[(u64, f64)], window: usize) -> Vec<(u64, f64)> {
    assert!(window > 0, "window must be positive");
    let mut out = Vec::with_capacity(series.len());
    let mut acc = 0.0;
    for i in 0..series.len() {
        acc += series[i].1;
        if i >= window {
            acc -= series[i - window].1;
        }
        let n = (i + 1).min(window);
        out.push((series[i].0, acc / n as f64));
    }
    out
}

/// Per-unit-time rate of change between consecutive points (Flux
/// `derivative(unit: 1)`): `(v[i] - v[i-1]) / (ts[i] - ts[i-1])`.
pub fn rate(series: &[(u64, f64)]) -> Vec<(u64, f64)> {
    series
        .windows(2)
        .filter(|w| w[1].0 > w[0].0)
        .map(|w| (w[1].0, (w[1].1 - w[0].1) / (w[1].0 - w[0].0) as f64))
        .collect()
}

/// Inner join of two time-sorted series on timestamp (Flux `join(on:
/// ["_time"])`): `(xs, ys)` pair each point of `a`, in `a`'s order, with
/// the point of `b` at the same timestamp — the last one when `b` repeats
/// a timestamp. One two-pointer pass, O(|a| + |b|).
pub fn join(a: &[(u64, f64)], b: &[(u64, f64)]) -> (Vec<f64>, Vec<f64>) {
    debug_assert!(a.is_sorted_by_key(|p| p.0) && b.is_sorted_by_key(|p| p.0));
    let mut xs = Vec::with_capacity(a.len().min(b.len()));
    let mut ys = Vec::with_capacity(xs.capacity());
    let mut j = 0;
    for &(ts, v) in a {
        while j < b.len() && b[j].0 < ts {
            j += 1;
        }
        while j + 1 < b.len() && b[j + 1].0 == ts {
            j += 1;
        }
        if j < b.len() && b[j].0 == ts {
            xs.push(v);
            ys.push(b[j].1);
        }
    }
    (xs, ys)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(vals: &[f64]) -> Vec<(u64, f64)> {
        vals.iter()
            .enumerate()
            .map(|(i, &v)| (i as u64, v))
            .collect()
    }

    #[test]
    fn basic_aggregates() {
        let v = s(&[3.0, 1.0, 4.0, 1.0, 5.0]);
        assert_eq!(min(&v), Some(1.0));
        assert_eq!(max(&v), Some(5.0));
        assert_eq!(sum(&v), 14.0);
        assert_eq!(mean(&v), Some(2.8));
    }

    #[test]
    fn empty_series_yield_none() {
        assert_eq!(min(&[]), None);
        assert_eq!(max(&[]), None);
        assert_eq!(mean(&[]), None);
        assert_eq!(stddev(&[]), None);
        assert_eq!(sum(&[]), 0.0);
    }

    #[test]
    fn stddev_of_constant_is_zero() {
        assert_eq!(stddev(&s(&[2.0, 2.0, 2.0])), Some(0.0));
    }

    #[test]
    fn moving_average_warms_up_then_slides() {
        let v = s(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        let ma = moving_average(&v, 2);
        assert_eq!(ma[0].1, 1.0);
        assert_eq!(ma[1].1, 1.5);
        assert_eq!(ma[4].1, 4.5);
    }

    #[test]
    fn moving_average_window_one_is_identity() {
        let v = s(&[5.0, 7.0, 9.0]);
        assert_eq!(moving_average(&v, 1), v);
    }

    #[test]
    fn rate_uses_time_deltas() {
        let v = vec![(0u64, 0.0), (10, 50.0), (20, 50.0), (30, 20.0)];
        let r = rate(&v);
        assert_eq!(r, vec![(10, 5.0), (20, 0.0), (30, -3.0)]);
    }

    #[test]
    fn rate_skips_duplicate_timestamps() {
        let v = vec![(5u64, 1.0), (5, 2.0), (6, 3.0)];
        assert_eq!(rate(&v).len(), 1);
    }

    #[test]
    fn join_keeps_a_order_and_the_last_b_duplicate() {
        let a = vec![(1u64, 10.0), (2, 20.0), (2, 21.0), (4, 40.0), (6, 60.0)];
        let b = vec![(0u64, 0.5), (2, 2.0), (2, 2.5), (3, 3.0), (4, 4.0)];
        assert_eq!(join(&a, &b), (vec![20.0, 21.0, 40.0], vec![2.5, 2.5, 4.0]));
        assert_eq!(join(&a, &[]), (vec![], vec![]));
        assert_eq!(join(&[], &b), (vec![], vec![]));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_window_rejected() {
        moving_average(&[(0, 1.0)], 0);
    }
}
