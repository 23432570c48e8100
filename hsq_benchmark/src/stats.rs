//! Percentiles that know their sample count, and the median used to fold
//! repetitions into one reported value.

/// A percentile together with the number of samples it was taken from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pct {
    pub value: f64,
    pub n: usize,
}

/// Nearest-rank percentile `p` (in `(0, 1]`) of `samples`.
///
/// Refuses when fewer than `min_beyond` samples lie beyond the reported
/// one: a tail percentile read off a handful of samples flips between
/// latency classes from run to run, so the run fails instead of printing
/// it. Full-scale runs pass 10, `--smoke` passes 0.
pub fn percentile(samples: &[u64], p: f64, min_beyond: usize) -> Result<Pct, String> {
    assert!(p > 0.0 && p <= 1.0, "percentile must be in (0, 1]");
    let n = samples.len();
    if n == 0 {
        return Err(format!("p{} of an empty sample", p * 100.0));
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < min_beyond {
        return Err(format!(
            "p{} of {n} samples has {} beyond it, need {min_beyond}",
            p * 100.0,
            n - rank
        ));
    }
    let mut sorted = samples.to_vec();
    let (_, v, _) = sorted.select_nth_unstable(rank - 1);
    Ok(Pct {
        value: *v as f64,
        n,
    })
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_and_count() {
        let samples: Vec<u64> = (1..=1000).rev().collect();
        let p50 = percentile(&samples, 0.5, 10).unwrap();
        assert_eq!((p50.value, p50.n), (500.0, 1000));
        // 1000 samples leave exactly ten beyond p99.
        assert_eq!(percentile(&samples, 0.99, 10).unwrap().value, 990.0);
        assert_eq!(percentile(&samples, 1.0, 0).unwrap().value, 1000.0);
    }

    #[test]
    fn refuses_a_thin_tail() {
        let samples: Vec<u64> = (1..=999).collect();
        let err = percentile(&samples, 0.99, 10).unwrap_err();
        assert!(err.contains("999 samples"), "{err}");
        assert!(percentile(&samples, 0.95, 10).is_ok());
        assert!(percentile(&[], 0.5, 0).is_err());
        // The smoke scale waives the rule.
        assert_eq!(percentile(&[7, 3], 0.99, 0).unwrap().value, 7.0);
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
