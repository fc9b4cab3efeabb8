//! Exact sample statistics. Latencies are kept as raw samples (not
//! bucketed histograms) so a reported percentile carries every digit
//! as measured.

/// Most slices a run's latency samples are cut into for
/// [`sliced_quantile`].
pub const SLICES: usize = 200;

/// Quantile `q` in `[0, 1]` of `v` by linear interpolation between
/// closest ranks (`0.0` for an empty sample). Sorts `v` in place.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `v` (sorts in place).
pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

/// Percentile `q` of each consecutive slice of `samples` (arrival
/// order). Uses as many slices as possible, up to `max_slices`, while
/// each slice keeps at least ten samples beyond `q`; with fewer samples
/// than that the one slice is the whole sample.
fn slice_quantiles(samples: &[f64], q: f64, max_slices: usize) -> Vec<f64> {
    let beyond = samples.len() as f64 * (1.0 - q);
    let slices = ((beyond / 10.0) as usize).clamp(1, max_slices.max(1));
    if slices == 1 {
        return vec![quantile(&mut samples.to_vec(), q)];
    }
    let per = samples.len() / slices;
    samples
        .chunks(per)
        .filter(|c| c.len() == per)
        .map(|c| quantile(&mut c.to_vec(), q))
        .collect()
}

/// Median of per-slice percentiles: a stall moves the slices it hit,
/// not the run's figure.
pub fn sliced_quantile(samples: &[f64], q: f64, max_slices: usize) -> f64 {
    median(&mut slice_quantiles(samples, q, max_slices))
}

/// Lower quartile of per-slice percentiles: the percentile in the
/// calmer quarter of the run. Interference from a shared host only adds
/// latency; this keeps the tail the program sets while a co-tenant's
/// load covers up to three quarters of the run.
pub fn calm_quantile(samples: &[f64], q: f64, max_slices: usize) -> f64 {
    quantile(&mut slice_quantiles(samples, q, max_slices), 0.25)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut v, 1.0), 4.0);
        assert_eq!(median(&mut v), 2.5);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn sliced_quantile_ignores_one_bad_slice() {
        let mut s: Vec<f64> = (0..4000).map(|i| (i % 100) as f64).collect();
        for x in &mut s[..1000] {
            *x += 1000.0;
        }
        let p = sliced_quantile(&s, 0.99, 4);
        assert_eq!(
            sliced_quantile(&s[..100], 0.99, 4),
            quantile(&mut s[..100].to_vec(), 0.99)
        );
        assert!(p < 100.0, "{p}");
    }

    #[test]
    fn calm_quantile_ignores_a_disturbed_majority() {
        // Ten slices of 4,000; the first six disturbed.
        let mut s: Vec<f64> = (0..40_000).map(|i| (i % 100) as f64).collect();
        for x in &mut s[..24_000] {
            *x += 1000.0;
        }
        assert!(sliced_quantile(&s, 0.99, 10) > 1000.0);
        assert!(calm_quantile(&s, 0.99, 10) < 100.0);
    }
}
