//! The benchmark's own arithmetic: medians, percentiles with their
//! support, time shares and failure ratios.

/// Median of `values` (the mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every metric has at least one sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `pct` (0 < pct ≤ 100) of ascending `sorted`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), pct).max(1) - 1]
}

/// The 1-based nearest rank of percentile `pct` among `n` samples
/// (the epsilon keeps `99.9 * 10_000 / 100` from rounding up past 9990).
fn rank(n: usize, pct: f64) -> usize {
    ((pct * n as f64 / 100.0 - 1e-9).ceil() as usize).min(n)
}

/// Samples ranked strictly above the nearest-rank `pct` percentile.
pub fn beyond(n: usize, pct: f64) -> usize {
    n - rank(n, pct)
}

/// The percentiles a tail may be reported at, highest first.
pub const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// A tail latency together with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported.
    pub pct: f64,
    /// Its value.
    pub value: f64,
    /// How many samples it was taken from.
    pub n: usize,
}

/// The highest percentile on [`TAIL_LADDER`] that has at least ten
/// samples beyond it, or `None` when even the median has fewer.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    TAIL_LADDER
        .iter()
        .find(|&&pct| beyond(n, pct) >= 10)
        .map(|&pct| Tail {
            pct,
            value: percentile(&sorted, pct),
            n,
        })
}

/// Each part's share of `total`, plus the share of `total` that the
/// single accumulator `covered` leaves outside the parts' enclosing
/// span (the caller's self time).
#[derive(Debug, Clone, PartialEq)]
pub struct Shares {
    /// `parts[i] / total`.
    pub parts: Vec<f64>,
    /// `(total - covered) / total`.
    pub rest: f64,
}

impl Shares {
    /// Splits `total` nanoseconds: `parts` were timed one call at a time
    /// and `covered` summed the same calls through one accumulator.
    pub fn of(parts: &[u64], covered: u64, total: u64) -> Shares {
        let t = total.max(1) as f64;
        Shares {
            parts: parts.iter().map(|&p| p as f64 / t).collect(),
            rest: (total as f64 - covered as f64) / t,
        }
    }

    /// Whether the parts and the rest account for the whole span to
    /// within `tol`, with no negative self time — i.e. every timed call
    /// was attributed to exactly one part.
    pub fn closes(&self, tol: f64) -> bool {
        let sum: f64 = self.parts.iter().sum::<f64>() + self.rest;
        self.rest >= -tol && (sum - 1.0).abs() <= tol
    }
}

/// How one attempted transaction ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Committed.
    Committed,
    /// Aborted by the protocol (deadlock victim, lock-wait timeout).
    Aborted,
    /// No reply arrived in time.
    TimedOut,
    /// The engine refused an operation of the transaction.
    Refused,
}

/// Outcome counts of attempted transactions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Committed attempts.
    pub committed: u64,
    /// Aborted attempts.
    pub aborted: u64,
    /// Timed-out attempts.
    pub timed_out: u64,
    /// Refused attempts.
    pub refused: u64,
}

impl Tally {
    /// Counts one attempt.
    pub fn record(&mut self, o: Outcome) {
        match o {
            Outcome::Committed => self.committed += 1,
            Outcome::Aborted => self.aborted += 1,
            Outcome::TimedOut => self.timed_out += 1,
            Outcome::Refused => self.refused += 1,
        }
    }

    /// Every attempt, whatever its outcome.
    pub fn attempted(&self) -> u64 {
        self.committed + self.failed()
    }

    /// Attempts that did not commit: aborted, timed out or refused.
    pub fn failed(&self) -> u64 {
        self.aborted + self.timed_out + self.refused
    }

    /// `failed / attempted` (0 with nothing attempted).
    pub fn failed_ratio(&self) -> f64 {
        self.failed() as f64 / self.attempted().max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
    }

    #[test]
    fn beyond_counts_samples_above_rank() {
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(beyond(10_000, 99.9), 10);
        assert_eq!(beyond(0, 50.0), 0);
    }

    #[test]
    fn tail_picks_highest_percentile_with_ten_beyond() {
        let v = |n: u32| (1..=n).map(f64::from).collect::<Vec<_>>();
        let t = tail(&v(1000)).unwrap();
        assert_eq!((t.pct, t.value, t.n), (99.0, 990.0, 1000));
        let t = tail(&v(999)).unwrap();
        assert_eq!((t.pct, t.n), (95.0, 999));
        let t = tail(&v(10_000)).unwrap();
        assert_eq!((t.pct, t.value), (99.9, 9990.0));
        let t = tail(&v(20)).unwrap();
        assert_eq!((t.pct, t.value), (50.0, 10.0));
        assert_eq!(tail(&v(19)), None);
        // Order of the input does not matter.
        let mut r = v(1000);
        r.reverse();
        assert_eq!(tail(&r).unwrap().value, 990.0);
    }

    #[test]
    fn shares_close_only_when_every_call_is_attributed() {
        let s = Shares::of(&[30, 50], 80, 100);
        assert_eq!(s.parts, vec![0.3, 0.5]);
        assert!((s.rest - 0.2).abs() < 1e-12);
        assert!(s.closes(0.01));
        // A call summed into the accumulator but attributed to no part.
        assert!(!Shares::of(&[30, 40], 80, 100).closes(0.01));
        // A call attributed twice.
        assert!(!Shares::of(&[30, 50, 10], 80, 100).closes(0.01));
        // Handle time exceeding the enclosing span is impossible.
        assert!(!Shares::of(&[60, 60], 120, 100).closes(0.01));
    }

    #[test]
    fn failed_ratio_counts_refused_and_timed_out() {
        let mut t = Tally::default();
        for o in [
            Outcome::Committed,
            Outcome::Committed,
            Outcome::Committed,
            Outcome::Committed,
            Outcome::Committed,
            Outcome::Aborted,
            Outcome::TimedOut,
            Outcome::Refused,
        ] {
            t.record(o);
        }
        assert_eq!(t.attempted(), 8);
        assert_eq!(t.failed(), 3);
        assert_eq!(t.failed_ratio(), 3.0 / 8.0);
        assert_eq!(Tally::default().failed_ratio(), 0.0);
    }
}
