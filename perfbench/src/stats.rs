//! Sample statistics shared by the timed and traced runs: nearest-rank
//! percentiles, the tail rule, and metric-name validation.

/// Percentiles tried for the tail, lowest first.
const TAIL_LADDER: [f64; 6] = [90.0, 95.0, 99.0, 99.9, 99.99, 99.999];

/// Samples that must lie beyond a percentile before it may be reported
/// as the tail.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest rank (1-based) of percentile `pct` among `n` samples, in exact
/// integer arithmetic on thousandths of a percent.
fn rank(n: usize, pct: f64) -> usize {
    let milli = (pct * 1000.0).round() as u128;
    ((milli * n as u128).div_ceil(100_000) as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending slice (`pct` in `0..=100`).
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), pct) - 1]
}

/// Percentile `pct` of an ascending slice, or `None` when fewer than
/// [`TAIL_MIN_BEYOND`] samples lie strictly above its rank.
fn percentile_with_beyond(sorted: &[f64], pct: f64) -> Option<f64> {
    let n = sorted.len();
    (n > 0 && n - rank(n, pct) >= TAIL_MIN_BEYOND).then(|| percentile(sorted, pct))
}

/// The highest ladder percentile with at least [`TAIL_MIN_BEYOND`]
/// samples strictly above its rank, as `(percentile, value)`; `None`
/// when even the 90th percentile has fewer than that beyond it.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    TAIL_LADDER
        .iter()
        .rev()
        .find_map(|&pct| percentile_with_beyond(sorted, pct).map(|v| (pct, v)))
}

/// Median, tail and sample count of one latency population.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub count: usize,
    pub p50: f64,
    /// `(percentile, value)` by the tail rule.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarises `samples` (any order); `None` when empty.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(Summary {
            count: sorted.len(),
            p50: percentile(&sorted, 50.0),
            tail: tail(&sorted),
        })
    }
}

/// Arithmetic mean (0 for no values).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Median of a set of values (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// One in how many of a run's windows (or set-ups) the end-to-end
/// metrics keep, at the least.
const KEEP_ONE_IN: usize = 10;

/// The items whose steal share is at most the lowest tenth's, ties
/// included, in their original order: the least-stolen tenth of a run's
/// windows or set-ups, and never none (unless there are no items).
/// Stolen time slows whatever the host ran during it, so these are the
/// items that measure the program rather than its neighbours.
pub fn least_stolen<T>(items: Vec<(f64, T)>) -> Vec<T> {
    let mut shares: Vec<f64> = items.iter().map(|(share, _)| *share).collect();
    if shares.is_empty() {
        return Vec::new();
    }
    shares.sort_by(f64::total_cmp);
    let limit = shares[(shares.len() - 1) / KEEP_ONE_IN];
    items
        .into_iter()
        .filter(|(share, _)| *share <= limit)
        .map(|(_, item)| item)
        .collect()
}

/// `true` for a name the result line may carry: 1–64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs = ramp(100);
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn tail_keeps_at_least_ten_samples_beyond() {
        // 100 samples: p90 leaves exactly 10 beyond, p95 only 5.
        assert_eq!(tail(&ramp(100)), Some((90.0, 90.0)));
        // 1000 samples: p99 leaves 10 beyond, p99.9 only 1.
        assert_eq!(tail(&ramp(1000)), Some((99.0, 990.0)));
        // 10_000 samples: p99.9 leaves 10 beyond.
        assert_eq!(tail(&ramp(10_000)), Some((99.9, 9990.0)));
        // A fixed percentile is refused with fewer than 10 beyond it.
        assert_eq!(percentile_with_beyond(&ramp(200), 95.0), Some(190.0));
        assert_eq!(percentile_with_beyond(&ramp(199), 95.0), None);
        assert_eq!(percentile_with_beyond(&[], 50.0), None);
        // Too few samples for any tail.
        assert_eq!(tail(&ramp(99)), None);
        assert_eq!(tail(&[]), None);
        for n in [100, 250, 999, 1000, 4321, 100_000] {
            let xs = ramp(n);
            let (pct, value) = tail(&xs).expect("enough samples");
            let beyond = xs.iter().filter(|&&x| x > value).count();
            assert!(beyond >= TAIL_MIN_BEYOND, "n={n} pct={pct}");
        }
    }

    #[test]
    fn least_stolen_keeps_ties_and_order() {
        // Twelve windows: the limit is the 2nd lowest share.
        let shares = [
            0.30, 0.00, 0.10, 0.02, 0.25, 0.02, 0.40, 0.15, 0.05, 0.12, 0.08, 0.33,
        ];
        let windows: Vec<(f64, usize)> = shares.iter().copied().zip(0..).collect();
        // Windows 3 and 5 tie at the limit; both are kept, in order.
        assert_eq!(least_stolen(windows), vec![1, 3, 5]);
        // A steal-free run keeps every window.
        assert_eq!(
            least_stolen(vec![(0.0, 1), (0.0, 2), (0.0, 3)]),
            vec![1, 2, 3]
        );
        // Few items still keep the least-stolen one.
        assert_eq!(least_stolen(vec![(0.2, 1), (0.1, 2)]), vec![2]);
        assert!(least_stolen(Vec::<(f64, u8)>::new()).is_empty());
    }

    #[test]
    fn metric_names() {
        for ok in ["setup_s", "pipeline.discovery_us", "p50-us", "9lives"] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in ["", "_x", ".x", "a b", "a/b", "µs", long.as_str()] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }
}
