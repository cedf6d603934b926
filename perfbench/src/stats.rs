//! Order statistics for reported timings (means, medians and Jain's
//! index come from `rths_math::stats`).

/// Samples strictly above the nearest-rank `p`-percentile of `n`
/// samples: the rank is `ceil(p·n)`, and `n - rank` samples lie beyond.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// The nearest-rank `p`-percentile of `xs`, reported only when at least
/// ten samples lie beyond it (so a tail figure is never one or two
/// outliers). `None` when too few samples exist.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() || beyond(xs.len(), p) < 10 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank(v.len(), p) - 1])
}

/// The per-epoch floor of several samples of the same epochs: for each
/// epoch, the least time any sample took for it. Every sample of a run
/// does the same deterministic work epoch for epoch, so the floor is the
/// program's own cost with the host's interference, which only ever adds
/// time, filtered out epoch by epoch. `None` unless every sample has the
/// same non-zero number of epochs.
pub fn epoch_floor(samples: &[Vec<f64>]) -> Option<Vec<f64>> {
    let n = samples.first()?.len();
    if n == 0 || samples.iter().any(|v| v.len() != n) {
        return None;
    }
    Some((0..n).map(|e| samples.iter().map(|v| v[e]).fold(f64::INFINITY, f64::min)).collect())
}

/// Mean of the last tenth of `xs` (at least one value).
pub fn tail_mean(xs: &[f64]) -> f64 {
    let k = (xs.len() / 10).max(1).min(xs.len());
    rths_math::stats::mean(&xs[xs.len() - k..])
}
