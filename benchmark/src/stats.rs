//! Sample statistics, the knee interpolation and the output digest.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Linear-interpolated quantile `q ∈ [0, 1]` of an ascending slice.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile_sorted(&sorted(values), 0.5)
}

/// The highest tail percentile `n` samples support: the largest `q ≤ 0.9`
/// that still leaves [`TAIL_SAMPLES`] samples beyond it (p90 from n = 100).
/// Below `2 × TAIL_SAMPLES` samples no tail is distinguishable from the
/// median, so the median's own quantile is returned.
pub fn tail_quantile(n: usize) -> f64 {
    if n < 2 * TAIL_SAMPLES {
        return 0.5;
    }
    (1.0 - TAIL_SAMPLES as f64 / n as f64).min(0.9)
}

/// `(quantile used, value)` of the supported tail of `values`.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let q = tail_quantile(values.len());
    (q, quantile_sorted(&sorted(values), q))
}

/// The capacity knee of a load ladder: the highest offered rate whose
/// on-time share is still at least `floor`, linearly interpolated between
/// the last rung at or above the floor and the next one up. `None` when no
/// rung meets the floor; the top rate when the top rung still does (the
/// ladder did not saturate — callers check for that separately).
pub fn knee(rates: &[f64], shares: &[f64], floor: f64) -> Option<f64> {
    assert_eq!(rates.len(), shares.len());
    let i = shares.iter().rposition(|&s| s >= floor)?;
    if i + 1 == rates.len() {
        return Some(rates[i]);
    }
    let (r0, r1, s0, s1) = (rates[i], rates[i + 1], shares[i], shares[i + 1]);
    Some(r0 + (r1 - r0) * (s0 - floor) / (s0 - s1))
}

/// FNV-1a over 64-bit words: the output digest. Two runs of one commit on
/// one seed must print the same digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub fn f32s(&mut self, values: impl IntoIterator<Item = f32>) {
        for v in values {
            self.word(v.to_bits() as u64);
        }
    }

    pub fn f64(&mut self, v: f64) {
        self.word(v.to_bits());
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// SplitMix64: the seeded generator behind every derived seed and every
/// probe position. Stateless derivation (`mix`) keeps sub-seeds independent
/// of the order they are asked for.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The sub-seed for purpose `tag` of run seed `seed`.
pub fn mix(seed: u64, tag: u64) -> u64 {
    SplitMix::new(seed ^ tag.wrapping_mul(0xa076_1d64_78bd_642f)).next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_p90_from_100_samples_and_lower_below() {
        assert_eq!(tail_quantile(100), 0.9);
        assert_eq!(tail_quantile(480), 0.9);
        // 50 samples: 10 beyond the 80th percentile.
        assert!((tail_quantile(50) - 0.8).abs() < 1e-12);
        // 21 samples: 10 beyond ≈ p52.
        assert!((tail_quantile(21) - (1.0 - 10.0 / 21.0)).abs() < 1e-12);
        // Too few samples to tell a tail from the median.
        assert_eq!(tail_quantile(19), 0.5);
        assert_eq!(tail_quantile(1), 0.5);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        for n in [20usize, 37, 99, 100, 250] {
            let q = tail_quantile(n);
            let beyond = (n as f64 * (1.0 - q)).round() as usize;
            assert!(beyond >= TAIL_SAMPLES, "n={n} q={q} leaves {beyond}");
        }
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let (q, v) = tail(&values);
        assert_eq!(q, 0.9);
        assert!((v - 90.1).abs() < 1e-9, "{v}");
    }

    #[test]
    fn median_interpolates_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0, 4.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn knee_interpolates_between_the_bracketing_rungs() {
        let rates = [64.0, 128.0, 256.0, 384.0];
        // Crosses 0.85 two fifths of the way from 256 to 384.
        let shares = [0.95, 0.93, 0.89, 0.79];
        let k = knee(&rates, &shares, 0.85).unwrap();
        assert!((k - (256.0 + 128.0 * 0.4)).abs() < 1e-9, "{k}");
    }

    #[test]
    fn knee_uses_the_last_crossing_and_reports_unbracketed_ladders() {
        let rates = [64.0, 128.0, 256.0];
        // A dip below the floor at a low rung does not hide the later knee.
        assert_eq!(knee(&rates, &[0.5, 1.0, 0.5], 0.75), Some(128.0 + 64.0));
        // Never saturates: the top rate, not an extrapolation.
        assert_eq!(knee(&rates, &[0.99, 0.95, 0.9], 0.85), Some(256.0));
        // Never meets the floor.
        assert_eq!(knee(&rates, &[0.5, 0.4, 0.3], 0.85), None);
        // Exactly on the floor at a rung.
        assert_eq!(knee(&rates, &[0.9, 0.85, 0.7], 0.85), Some(128.0));
    }

    #[test]
    fn digest_is_order_sensitive_and_mix_is_stable() {
        let mut a = Digest::default();
        a.f32s([1.0, 2.0]);
        let mut b = Digest::default();
        b.f32s([2.0, 1.0]);
        assert_ne!(a, b);
        assert_eq!(mix(11, 3), mix(11, 3));
        assert_ne!(mix(11, 3), mix(11, 4));
        assert_ne!(mix(11, 3), mix(12, 3));
        let mut r = SplitMix::new(7);
        let u = r.unit();
        assert!((0.0..1.0).contains(&u));
    }
}
