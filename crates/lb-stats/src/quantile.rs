//! Exact order statistics: the nearest-rank index behind every exact
//! quantile in the workspace (streaming quantiles come from
//! [`crate::sketch::LatencySketch`]).

/// Nearest-rank index (1-based) of the `q`-quantile in a sorted sample of
/// `len` elements: `ceil(q * len)`, saturated into `[1, len]`.
///
/// This is the single rank computation behind every exact (non-streaming)
/// quantile in the crate. `q` is validated here because the raw cast is
/// treacherous: a NaN `q` casts to 0 and the clamp turns it into rank 1, so
/// a corrupted quantile request would silently report the sample *minimum*
/// as, say, a p99. Saturation is intentional only for valid `q`: `q = 0.0`
/// (and `-0.0`, which compares equal to it) maps to rank 1, the minimum, and
/// `q = 1.0` maps to rank `len`, the maximum.
///
/// # Panics
/// Panics if `q` is non-finite, `q` is outside `[0, 1]`, or `len == 0`.
#[must_use]
pub fn nearest_rank(q: f64, len: usize) -> usize {
    assert!(q.is_finite(), "nearest_rank: q must be finite, got {q}");
    assert!(
        (0.0..=1.0).contains(&q),
        "nearest_rank: q must be in [0, 1], got {q}"
    );
    assert!(len > 0, "nearest_rank: empty sample");
    ((q * len as f64).ceil() as usize).clamp(1, len)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact_quantile(data: &mut [f64], q: f64) -> f64 {
        data.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        data[nearest_rank(q, data.len()) - 1]
    }

    #[test]
    #[should_panic(expected = "q must be finite")]
    fn nan_quantile_is_rejected_not_silently_clamped() {
        // Regression: `(NaN * len).ceil() as usize` is 0, and the old clamp
        // turned that into rank 1 — a NaN p99 request would have reported the
        // sample minimum with no error.
        let _ = nearest_rank(f64::NAN, 100);
    }

    #[test]
    #[should_panic(expected = "q must be in [0, 1]")]
    fn quantile_above_one_is_rejected() {
        let _ = nearest_rank(1.0 + f64::EPSILON, 100);
    }

    #[test]
    #[should_panic(expected = "q must be finite")]
    fn infinite_quantile_is_rejected() {
        let _ = nearest_rank(f64::INFINITY, 100);
    }

    #[test]
    fn negative_zero_quantile_saturates_to_the_minimum() {
        // -0.0 == 0.0, so it is in range; the documented saturation maps it
        // to rank 1 (the minimum), same as +0.0.
        assert_eq!(nearest_rank(-0.0, 7), 1);
        assert_eq!(nearest_rank(0.0, 7), 1);
        assert_eq!(nearest_rank(1.0, 7), 7);
        let mut data = [3.0, 1.0, 2.0];
        assert_eq!(exact_quantile(&mut data, -0.0), 1.0);
    }
}
