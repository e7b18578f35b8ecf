//! Accounting for the end-to-end metrics: percentiles, goodput and the
//! rule that a failed solve counts for nothing.

/// One timed solve as the client saw it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveSample {
    /// Wall time of the solve in milliseconds.
    pub ms: f64,
    /// `true` only when the solve converged, was graded `Certified` and
    /// matched the stored reference answer.
    pub ok: bool,
}

/// Value standing in for the latency of a failed solve: it misses every
/// limit, and JSON has no infinity.
pub const MISSED_MS: f64 = f64::MAX;

/// Nearest-rank percentile of `sorted` (ascending) at quantile `q` in
/// `(0, 1]`.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Number of samples strictly beyond the nearest-rank `q` percentile.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).min(n)
}

/// The highest of the standard percentiles (p99.9, p99, p90, p50) that
/// has at least ten samples beyond it, or `None` when even the median
/// has fewer.
pub fn tail_quantile(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.9, 0.5]
        .into_iter()
        .find(|&q| samples_beyond(n, q) >= 10)
}

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Latency percentile over `samples` where a failed solve reads
/// [`MISSED_MS`], so it misses any limit set on that percentile.
pub fn latency_ms(samples: &[SolveSample], q: f64) -> f64 {
    let mut v: Vec<f64> = samples
        .iter()
        .map(|s| if s.ok { s.ms } else { MISSED_MS })
        .collect();
    v.sort_by(f64::total_cmp);
    nearest_rank(&v, q)
}

/// Folds one pass into `fastest`, each timed unit's (a solve, or a service
/// wave) fastest wall time so far. Every pass runs the same units in the
/// same order.
pub fn keep_fastest(fastest: &mut Vec<f64>, pass: &[f64]) {
    if fastest.is_empty() {
        fastest.extend_from_slice(pass);
    }
    for (f, &t) in fastest.iter_mut().zip(pass) {
        *f = f.min(t);
    }
}

/// Folds one pass into `best`, each input's best latency so far. An input
/// that failed in any pass stays failed, so it misses every limit.
pub fn keep_best(best: &mut Vec<SolveSample>, pass: &[SolveSample]) {
    if best.is_empty() {
        best.extend_from_slice(pass);
    }
    for (b, s) in best.iter_mut().zip(pass) {
        b.ms = b.ms.min(s.ms);
        b.ok &= s.ok;
    }
}

/// Goodput: `good` solves per second of the composite pass that runs each
/// unit at its fastest. Pass the good solves of the worst pass, so a failed
/// solve adds its wall time but no solve.
///
/// The host shares its cores with other machines' work, which slows
/// stretches of a run by up to half; the fastest run of each unit is the
/// one least disturbed, so it is the steadiest estimate of the program's
/// own speed.
pub fn solves_per_s(good: usize, fastest: &[f64]) -> f64 {
    good as f64 / fastest.iter().sum::<f64>().max(f64::MIN_POSITIVE)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn good(ms: f64) -> SolveSample {
        SolveSample { ms, ok: true }
    }

    #[test]
    fn tail_quantile_needs_ten_samples_beyond() {
        assert_eq!(tail_quantile(19), None);
        assert_eq!(tail_quantile(20), Some(0.5));
        assert_eq!(tail_quantile(99), Some(0.5));
        assert_eq!(tail_quantile(100), Some(0.9));
        assert_eq!(tail_quantile(999), Some(0.9));
        assert_eq!(tail_quantile(1000), Some(0.99));
        assert_eq!(tail_quantile(10_000), Some(0.999));
        for n in [20, 100, 1000, 4321, 10_000] {
            let q = tail_quantile(n).expect("enough samples");
            assert!(samples_beyond(n, q) >= 10, "n={n} q={q}");
        }
    }

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.5), 50.0);
        assert_eq!(nearest_rank(&v, 0.9), 90.0);
        assert_eq!(nearest_rank(&v, 0.99), 99.0);
        assert_eq!(nearest_rank(&v, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn failed_solve_counts_zero_and_misses_every_limit() {
        let mut samples: Vec<SolveSample> = (1..=10).map(|i| good(f64::from(i))).collect();
        // The failure was the fastest solve of all: it must still land
        // beyond every latency limit, never below.
        samples.push(SolveSample {
            ms: 0.01,
            ok: false,
        });
        assert_eq!(latency_ms(&samples, 1.0), MISSED_MS);
        assert_eq!(latency_ms(&samples, 0.5), 6.0);
        let all_failed = vec![
            SolveSample {
                ms: 0.01,
                ok: false
            };
            3
        ];
        assert_eq!(latency_ms(&all_failed, 0.5), MISSED_MS);

        // Goodput: each unit at its fastest; a failed solve keeps its time
        // but adds no solve.
        let mut fastest = Vec::new();
        keep_fastest(&mut fastest, &[0.25, 0.5]);
        keep_fastest(&mut fastest, &[0.75, 0.125]);
        assert_eq!(fastest, [0.25, 0.125]);
        assert_eq!(solves_per_s(2, &fastest), 2.0 / 0.375);
        assert_eq!(solves_per_s(1, &fastest), 1.0 / 0.375);
        assert_eq!(solves_per_s(0, &fastest), 0.0);

        // Best-per-input latency: a failure in any pass marks the input.
        let mut best = Vec::new();
        keep_best(&mut best, &[good(3.0), good(5.0), good(7.0)]);
        keep_best(
            &mut best,
            &[good(2.0), SolveSample { ms: 1.0, ok: false }, good(9.0)],
        );
        assert_eq!(best[0], good(2.0));
        assert!(!best[1].ok);
        assert_eq!(best[2], good(7.0));
        assert_eq!(latency_ms(&best, 1.0), MISSED_MS);
    }
}
