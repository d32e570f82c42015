//! Order statistics and host normalization.

/// Reference-sample time, in milliseconds, that the benchmark treats as
/// "quiet host". Fixed once: normalized timings read as milliseconds on a
/// host whose reference sample takes exactly this long, so changing the
/// constant would shift every recorded baseline.
pub const R_NOMINAL_MS: f64 = 11.0;

/// Host-normalized duration of an operation bracketed by two reference
/// samples: `op × R_NOMINAL / mean(before, after)`.
pub fn normalize(op_ms: f64, ref_before_ms: f64, ref_after_ms: f64) -> f64 {
    op_ms * R_NOMINAL_MS / ((ref_before_ms + ref_after_ms) / 2.0)
}

/// Exact nearest-rank percentile: the smallest sample such that at least
/// `p`% of the samples are less than or equal to it. Failed operations are
/// recorded as `f64::INFINITY`, so they rank above every completed one.
/// Returns `NaN` for an empty sample set.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a sample set (nearest-rank p50, so always an observed value).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 90.0), 90.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        // Order of the input does not matter.
        let mut rev = s.clone();
        rev.reverse();
        assert_eq!(percentile(&rev, 90.0), 90.0);
        // Five samples: p50 is the 3rd, p90 the 5th (ceil(4.5)).
        let five = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&five, 50.0), 3.0);
        assert_eq!(percentile(&five, 90.0), 5.0);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn failures_count_as_infinitely_slow() {
        // 100 operations, 11 of which failed: p90 lands on a failure, p50
        // does not move.
        let mut s: Vec<f64> = (1..=89).map(f64::from).collect();
        s.extend(std::iter::repeat_n(f64::INFINITY, 11));
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 90.0), f64::INFINITY);
        // With 10 failures p90 is still the 90th completed sample.
        s.pop();
        s.push(90.0);
        assert_eq!(percentile(&s, 90.0), 90.0);
    }

    #[test]
    fn normalization_divides_by_the_bracketing_mean() {
        // A quiet host: the reference reads R_NOMINAL, the op is unchanged.
        assert_eq!(normalize(10.0, R_NOMINAL_MS, R_NOMINAL_MS), 10.0);
        // The host slowed to half speed for the op and both samples: the
        // normalized time is the quiet-host time.
        let slow = 2.0 * R_NOMINAL_MS;
        assert_eq!(normalize(20.0, slow, slow), 10.0);
        // The host changed speed between the samples: their mean is used.
        let n = normalize(15.0, R_NOMINAL_MS, slow);
        assert!((n - 15.0 / 1.5).abs() < 1e-12, "{n}");
        // A failed op stays infinitely slow.
        assert_eq!(normalize(f64::INFINITY, 3.0, 5.0), f64::INFINITY);
    }
}
