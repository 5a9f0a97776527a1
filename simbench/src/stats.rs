//! Order statistics shared by every workload.

/// Percentile levels the tail rule may pick, highest first.
const LADDER: [f64; 3] = [99.9, 99.0, 90.0];

/// Samples a percentile needs beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the middle pair for an even count); 0 for an
/// empty slice. Infinite samples sort last.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `level` (0–100) of ascending `sorted`, with
/// the number of samples ranked beyond it.
fn nearest_rank(sorted: &[f64], level: f64) -> (f64, usize) {
    let n = sorted.len();
    let rank = ((level / 100.0) * n as f64).ceil().max(1.0) as usize;
    let idx = rank.min(n) - 1;
    (sorted[idx], n - 1 - idx)
}

/// A timing summarised as the choosing-metrics rule asks: the median
/// plus the highest percentile with at least [`MIN_BEYOND`] samples
/// beyond it, with the sample count behind both.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// Samples summarised.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The tail percentile's level, e.g. 99.0; 50.0 when too few
    /// samples support any level of the ladder.
    pub level: f64,
    /// The tail percentile's value.
    pub value: f64,
    /// Samples ranked beyond the tail percentile.
    pub beyond: usize,
}

impl Tail {
    /// Summarises `samples`; infinite samples (refused or failed
    /// requests) count as later than any finite one.
    pub fn of(samples: &[f64]) -> Tail {
        if samples.is_empty() {
            return Tail {
                n: 0,
                p50: 0.0,
                level: 50.0,
                value: 0.0,
                beyond: 0,
            };
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let (p50, _) = nearest_rank(&sorted, 50.0);
        for level in LADDER {
            let (value, beyond) = nearest_rank(&sorted, level);
            if beyond >= MIN_BEYOND {
                return Tail {
                    n: sorted.len(),
                    p50,
                    level,
                    value,
                    beyond,
                };
            }
        }
        let (value, beyond) = nearest_rank(&sorted, 50.0);
        Tail {
            n: sorted.len(),
            p50,
            level: 50.0,
            value,
            beyond,
        }
    }

    /// `p99 of 5600 samples, 56 beyond` — the note printed beside the
    /// tail metric.
    pub fn note(&self) -> String {
        format!(
            "p{} of {} samples, {} beyond",
            self.level, self.n, self.beyond
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_picks_the_highest_level_with_ten_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = Tail::of(&xs);
        assert_eq!((t.level, t.value, t.beyond), (99.0, 990.0, 10));
        assert_eq!(t.p50, 500.0);
        let xs: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(Tail::of(&xs).level, 90.0, "p99 would have only 9 beyond");
        let xs: Vec<f64> = (1..=20_000).map(f64::from).collect();
        assert_eq!(Tail::of(&xs).level, 99.9);
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        let t = Tail::of(&xs);
        assert_eq!(t.level, 50.0, "too few samples for any tail level");
        assert_eq!(t.value, t.p50);
    }

    #[test]
    fn refused_requests_count_as_infinitely_late() {
        let mut xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        xs.extend([f64::INFINITY; 20]);
        let t = Tail::of(&xs);
        assert_eq!(t.level, 99.0);
        assert!(t.value.is_infinite(), "{t:?}");
    }
}
