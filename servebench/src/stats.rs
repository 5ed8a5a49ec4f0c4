//! Order statistics over latency samples.

/// The `q`-quantile of `samples` by nearest rank (`q` in `[0, 1]`); 0 for
/// an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    // The epsilon keeps `q × n` landing on an exact integer rank from being
    // pushed one rank up by rounding in `q`.
    let rank = (q * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `samples` by nearest rank.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The highest of the tail percentiles 50/75/90/95/99/99.9 that leaves at
/// least ten of `n` samples beyond it.
pub fn tail_q(n: usize) -> f64 {
    [999, 990, 950, 900, 750]
        .into_iter()
        .find(|per_mille| n * (1000 - per_mille) >= 10 * 1000)
        .map_or(0.5, |per_mille| per_mille as f64 / 1000.0)
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&s), 50.0);
        assert_eq!(quantile(&s, 0.9), 90.0);
        assert_eq!(quantile(&s, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_q(100), 0.9);
        assert_eq!(tail_q(200), 0.95);
        assert_eq!(tail_q(1000), 0.99);
        assert_eq!(tail_q(10_000), 0.999);
        assert_eq!(tail_q(20), 0.5);
    }
}
