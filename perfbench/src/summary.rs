//! Summary statistics for the report: timings as a median plus the
//! highest percentile the sample supports, and ratios with their bases.

use std::fmt;

/// Percentiles tried for a timing's tail, in per mille, highest first.
const TAIL_PER_MILLE: [usize; 4] = [999, 990, 900, 500];

/// Samples that must lie beyond a percentile before it is reported.
const MIN_BEYOND: usize = 10;

/// Value at percentile `p` (0..=100) of an ascending `sorted` slice, by
/// the nearest-rank rule. `None` for an empty slice.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The highest percentile in [`TAIL_PER_MILLE`] with at least ten of
/// `n` samples beyond it, or `None` when even the median lacks them.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_PER_MILLE
        .into_iter()
        .find(|pm| n * (1000 - pm) / 1000 >= MIN_BEYOND)
        .map(|pm| pm as f64 / 10.0)
}

/// A timing distribution: median, supported tail and sample count.
#[derive(Debug, Clone, PartialEq)]
pub struct Timing {
    sorted: Vec<u64>,
}

impl Timing {
    /// Summarises `samples` (any order, any unit).
    pub fn new(mut samples: Vec<u64>) -> Self {
        samples.sort_unstable();
        Timing { sorted: samples }
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.sorted.len()
    }

    /// Value at percentile `p`, `None` when there are no samples.
    pub fn at(&self, p: f64) -> Option<u64> {
        percentile(&self.sorted, p)
    }

    /// The median.
    pub fn median(&self) -> Option<u64> {
        self.at(50.0)
    }
}

impl fmt::Display for Timing {
    /// `p50=… p99=… n=…`, in the samples' own unit.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n = self.count();
        match self.median() {
            None => write!(f, "n=0"),
            Some(p50) => {
                write!(f, "p50={p50}")?;
                if let Some(p) = tail_percentile(n).filter(|&p| p > 50.0) {
                    write!(f, " p{p}={}", self.at(p).unwrap_or(p50))?;
                }
                write!(f, " n={n}")
            }
        }
    }
}

/// A ratio kept with its base counts, so it is never printed bare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ratio {
    /// Numerator count.
    pub part: u64,
    /// Denominator count.
    pub whole: u64,
}

impl Ratio {
    /// `part / whole`, or 0 for an empty base.
    pub fn value(self) -> f64 {
        if self.whole == 0 {
            0.0
        } else {
            self.part as f64 / self.whole as f64
        }
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6} ({} / {})", self.value(), self.part, self.whole)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), Some(50));
        assert_eq!(percentile(&v, 99.0), Some(99));
        assert_eq!(percentile(&v, 100.0), Some(100));
        assert_eq!(percentile(&v, 0.0), Some(1));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[7], 99.9), Some(7));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(5_000_000), Some(99.9));
    }

    #[test]
    fn timing_reports_median_tail_and_count() {
        let t = Timing::new((1..=1_000).rev().collect());
        assert_eq!(t.median(), Some(500));
        assert_eq!(t.to_string(), "p50=500 p99=990 n=1000");
        assert_eq!(Timing::new(vec![3; 15]).to_string(), "p50=3 n=15");
        assert_eq!(Timing::new(vec![]).to_string(), "n=0");
    }

    #[test]
    fn ratios_print_their_bases() {
        let r = Ratio {
            part: 3,
            whole: 120,
        };
        assert_eq!(r.value(), 0.025);
        assert_eq!(r.to_string(), "0.025000 (3 / 120)");
        assert_eq!(Ratio { part: 0, whole: 0 }.value(), 0.0);
    }
}
