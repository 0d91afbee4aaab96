//! Latency-histogram bucket geometry (RV021).
//!
//! The serving histogram's bucket boundaries must be strictly
//! monotonic with half-open `(upper(i-1), upper(i)]` ranges;
//! [`check_histogram_buckets`] proves it for
//! [`rtoss_obs::metrics::LatencyHistogram`] and
//! [`check_histogram_mapping`] for any `(upper, index)` pair.

use crate::diag::{Diagnostic, Report};
use rtoss_obs::metrics::LatencyHistogram;

/// Checks an arbitrary histogram bucket geometry: `upper(i)` strictly
/// increasing, and `index` honouring half-open `(upper(i-1), upper(i)]`
/// ranges at and just past every boundary.
pub fn check_histogram_mapping(
    location: &str,
    n_buckets: usize,
    upper: impl Fn(usize) -> f64,
    index: impl Fn(f64) -> usize,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for i in 1..n_buckets {
        if upper(i) <= upper(i - 1) {
            out.push(Diagnostic::error(
                "RV021",
                location,
                format!(
                    "bucket boundaries not strictly increasing: upper({i}) = {} <= \
                     upper({}) = {}",
                    upper(i),
                    i - 1,
                    upper(i - 1)
                ),
            ));
        }
    }
    // The last bucket is a catch-all; boundary behaviour applies below it.
    for i in 0..n_buckets.saturating_sub(1) {
        let at = index(upper(i));
        if at != i {
            out.push(Diagnostic::error(
                "RV021",
                location,
                format!(
                    "sample at upper({i}) = {} lands in bucket {at}; ranges are \
                     half-open (lo, hi], so it belongs to bucket {i}",
                    upper(i)
                ),
            ));
        }
        let past = index(upper(i) * 1.0001);
        if past != i + 1 {
            out.push(Diagnostic::error(
                "RV021",
                location,
                format!(
                    "sample just past upper({i}) lands in bucket {past}, expected {}",
                    i + 1
                ),
            ));
        }
    }
    out
}

/// Proves the serving histogram's bucket geometry (RV021).
pub fn check_histogram_buckets() -> Report {
    let mut report = Report::new();
    report.extend(check_histogram_mapping(
        "LatencyHistogram",
        LatencyHistogram::NUM_BUCKETS,
        LatencyHistogram::bucket_upper_ns,
        LatencyHistogram::bucket_index,
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serving_histogram_geometry_is_clean() {
        let report = check_histogram_buckets();
        assert!(!report.has_errors(), "{}", report.render());
    }

    #[test]
    fn pre_fix_bucket_mapping_is_rv021() {
        // The mapping shipped before the RV021 fix: floor + 1 without the
        // boundary correction, which drops exact-boundary samples one
        // bucket too high.
        let broken = |ns: f64| {
            if ns <= 250.0 {
                return 0;
            }
            let steps = ((ns / 250.0).log2() / 0.5).floor() as usize;
            (steps + 1).min(LatencyHistogram::NUM_BUCKETS - 1)
        };
        let ds = check_histogram_mapping(
            "fixture",
            LatencyHistogram::NUM_BUCKETS,
            LatencyHistogram::bucket_upper_ns,
            broken,
        );
        assert!(ds.iter().any(|d| d.code == "RV021"), "{ds:?}");
    }
}
