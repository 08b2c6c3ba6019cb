//! Percentiles that carry their sample count, and process memory.

/// A percentile of a sample, with the number of samples it came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The interpolated value.
    pub value: f64,
    /// How many samples the value summarises.
    pub samples: usize,
}

/// The `p`-th percentile (`p` in `[0, 100]`) of `samples`, linearly
/// interpolated between the closest ranks; `None` for an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> Option<Percentile> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 100.0) / 100.0 * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    let value = sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64);
    Some(Percentile { value, samples: sorted.len() })
}

/// The median of `samples` (0 for an empty sample).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0).map_or(0.0, |p| p.value)
}

/// Peak resident set size of this process (`VmHWM`), MiB; 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_reports_the_sample_count() {
        let xs = [4.0, 1.0, 3.0, 2.0, 5.0];
        let p50 = percentile(&xs, 50.0).expect("non-empty");
        assert_eq!(p50, Percentile { value: 3.0, samples: 5 });
        let p90 = percentile(&xs, 90.0).expect("non-empty");
        assert!((p90.value - 4.6).abs() < 1e-12);
        assert_eq!(p90.samples, 5);
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[7.0], 90.0), Some(Percentile { value: 7.0, samples: 1 }));
    }

    #[test]
    fn median_of_even_sample_interpolates() {
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb() > 0.0);
        }
    }
}
