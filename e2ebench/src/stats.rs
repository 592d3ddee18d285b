//! Order statistics and open-loop timing helpers.
//!
//! Every timing the benchmark reports goes through these functions, so
//! the rules that keep a number honest live in one place: a tail is only
//! reported where at least [`MIN_BEYOND`] samples lie beyond it, and an
//! open-loop request is timed from when it was due, not when it was sent.

use std::time::Duration;

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for even lengths).
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Arithmetic mean of `xs`.
pub fn mean(xs: &[f64]) -> Option<f64> {
    (!xs.is_empty()).then(|| xs.iter().sum::<f64>() / xs.len() as f64)
}

/// Geometric mean of strictly positive values.
pub fn geomean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.iter().any(|&x| x <= 0.0 || !x.is_finite()) {
        return None;
    }
    Some((xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp())
}

/// A tail percentile together with the evidence behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile, in percent (e.g. `90.0`).
    pub pct: f64,
    /// The sample value at that percentile.
    pub value: f64,
    /// How many samples the percentile was taken over.
    pub samples: usize,
}

/// The highest percentile of `xs` that has at least `min_beyond`
/// samples strictly beyond it, or `None` when there are too few samples.
///
/// With `n` sorted samples, the value at 0-based rank `k` has
/// `n - 1 - k` samples beyond it, so the highest admissible rank is
/// `n - 1 - min_beyond`; it is reported as percentile `100 (k + 1) / n`.
pub fn tail(xs: &[f64], min_beyond: usize) -> Option<Tail> {
    let n = xs.len();
    if n <= min_beyond {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let k = n - 1 - min_beyond;
    Some(Tail {
        pct: 100.0 * (k + 1) as f64 / n as f64,
        value: v[k],
        samples: n,
    })
}

/// When request `k` (0-based) of an open loop at `rate_per_s` is due,
/// measured from the start of the loop.
pub fn due_time(k: u64, rate_per_s: f64) -> Duration {
    Duration::from_secs_f64(k as f64 / rate_per_s)
}

/// Latency of a request timed from its due time: a generator that fell
/// behind still charges the wait to the request that suffered it.
pub fn due_latency(due: Duration, done: Duration) -> Duration {
    done.saturating_sub(due)
}

/// How late the generator sent a request relative to its due time
/// (zero when it was sent on time).
pub fn lateness(due: Duration, sent: Duration) -> Duration {
    sent.saturating_sub(due)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_needs_min_beyond_plus_one_samples() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&xs, 10), None);
        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        let t = tail(&xs, 10).expect("11 samples admit rank 0");
        assert_eq!(t.value, 1.0);
        assert_eq!(t.samples, 11);
    }

    #[test]
    fn tail_of_one_hundred_is_p90_with_ten_beyond() {
        // Reverse order: selection must sort.
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let t = tail(&xs, 10).expect("enough samples");
        assert_eq!(t.pct, 90.0);
        assert_eq!(t.value, 90.0);
        let beyond = xs.iter().filter(|&&x| x > t.value).count();
        assert_eq!(beyond, 10);
    }

    #[test]
    fn tail_of_one_thousand_is_p99() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs, 10).expect("enough samples");
        assert_eq!(t.pct, 99.0);
        assert_eq!(t.value, 990.0);
    }

    #[test]
    fn due_times_are_evenly_spaced() {
        assert_eq!(due_time(0, 5.0), Duration::ZERO);
        assert_eq!(due_time(5, 5.0), Duration::from_secs(1));
        assert_eq!(due_time(3, 4.0), Duration::from_millis(750));
    }

    #[test]
    fn due_latency_charges_a_stall_to_the_delayed_request() {
        // Due at 1.0 s, but the generator was stuck until 1.3 s and the
        // reply came 10 ms after sending: latency is 310 ms, lateness 300.
        let due = Duration::from_millis(1000);
        let sent = Duration::from_millis(1300);
        let done = Duration::from_millis(1310);
        assert_eq!(due_latency(due, done), Duration::from_millis(310));
        assert_eq!(lateness(due, sent), Duration::from_millis(300));
    }

    #[test]
    fn on_time_requests_have_zero_lateness() {
        let due = Duration::from_millis(400);
        assert_eq!(lateness(due, Duration::from_millis(400)), Duration::ZERO);
        assert_eq!(lateness(due, Duration::from_millis(399)), Duration::ZERO);
        assert_eq!(
            due_latency(due, Duration::from_millis(412)),
            Duration::from_millis(12)
        );
    }

    #[test]
    fn geomean_rejects_non_positive() {
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        let g = geomean(&[2.0, 8.0]).expect("positive");
        assert!((g - 4.0).abs() < 1e-12);
    }
}
