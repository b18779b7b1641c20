//! Order statistics over measured samples.

/// The `q`-quantile (`0..=1`) of `v` by linear interpolation between
/// order statistics; `NaN` for an empty sample.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Median of `v`.
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// The median over `chunks` consecutive, equal slices of `v` of each
/// slice's `q`-quantile: a tail percentile that one burst in one slice
/// cannot move.
pub fn chunked_quantile(v: &[f64], q: f64, chunks: usize) -> f64 {
    median(&chunk_quantiles(v, q, chunks))
}

/// The `q`-quantile of each of `chunks` consecutive, equal slices of `v`.
fn chunk_quantiles(v: &[f64], q: f64, chunks: usize) -> Vec<f64> {
    let size = v.len().div_ceil(chunks.max(1)).max(1);
    v.chunks(size).map(|c| quantile(c, q)).collect()
}

/// Mean of `v`; `NaN` when empty.
pub fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn chunked_quantile_ignores_one_bad_slice() {
        let mut v = vec![1.0; 300];
        v[10..14].fill(1000.0);
        assert_eq!(chunked_quantile(&v, 0.99, 3), 1.0);
        assert!(quantile(&v, 0.99) > 1.0);
    }
}
