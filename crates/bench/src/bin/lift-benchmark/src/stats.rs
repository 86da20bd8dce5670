//! Summary statistics and the benchmark's own seeded generator.

/// The median (mean of the two middle values for an even count); `NaN`
/// for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The geometric mean of positive values; `NaN` for an empty slice.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// A nearest-rank percentile with the number of samples it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, in percent.
    pub pct: f64,
    /// Its value.
    pub value: f64,
    /// Samples in the distribution.
    pub n: usize,
}

/// The highest of p50/p90/p95/p99/p99.9 that has at least ten samples
/// beyond it (nearest rank), or `None` when not even the median does.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    [99.9, 99.0, 95.0, 90.0, 50.0].into_iter().find_map(|pct| {
        let rank = (pct / 100.0 * n as f64).ceil() as usize;
        (rank >= 1 && n - rank >= 10).then(|| Tail {
            pct,
            value: v[rank - 1],
            n,
        })
    })
}

/// SplitMix64, kept in the benchmark so that its inputs never move when
/// the program under test changes its own generator.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// One element of a non-empty slice.
    pub fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[(self.next_u64() % from.len() as u64) as usize]
    }
}

/// FNV-1a, to derive independent draw streams from names.
pub fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_three() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0, 5.0, 1.0]), 5.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn geomean_is_correct() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0, 4.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=4000).map(f64::from).collect();
        // p99.9 has only 4 beyond it; p99 has 40.
        assert_eq!(
            tail(&v),
            Some(Tail {
                pct: 99.0,
                value: 3960.0,
                n: 4000
            })
        );
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v).map(|t| (t.pct, t.value)), Some((90.0, 90.0)));
        let v: Vec<f64> = (1..=22).map(f64::from).collect();
        assert_eq!(tail(&v).map(|t| (t.pct, t.value)), Some((50.0, 11.0)));
        let v: Vec<f64> = (1..=18).map(f64::from).collect();
        assert_eq!(tail(&v), None);
    }

    #[test]
    fn draws_repeat_per_seed_and_differ_across_seeds() {
        let draw = |seed| {
            let mut r = SplitMix64::new(seed);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(2018), draw(2018));
        assert_ne!(draw(2018), draw(7));
        assert_ne!(draw(7), draw(42));
    }
}
