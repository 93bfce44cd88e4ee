//! Order statistics for the benchmark's samples: exact percentiles over a
//! sample vector, and a log-linear histogram for the per-solution gap
//! streams, which are too long to keep as raw samples.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `samples`, interpolating linearly
/// between the two nearest order statistics. Sorts `samples` in place;
/// returns 0 for an empty vector.
pub fn percentile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (samples.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    samples[lo] + (samples[hi] - samples[lo]) * (rank - lo as f64)
}

/// The arithmetic mean, 0 for an empty slice.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Values below `SUB` get a bucket each; above, every power of two is
/// split into `SUB / 2` buckets, so a value is kept to within 1/512 of its
/// magnitude (0.2%).
const SUB_BITS: u32 = 10;
const SUB: u64 = 1 << SUB_BITS;

/// A log-linear histogram of non-negative integer samples (nanoseconds):
/// exact below 1024, and within 0.2% above. Fixed memory (~0.2 MiB), so a
/// run that records tens of millions of gaps stays small.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; (66 - SUB_BITS as usize) * (SUB / 2) as usize],
            total: 0,
        }
    }
}

impl Histogram {
    fn bucket(v: u64) -> usize {
        if v < SUB {
            return v as usize;
        }
        let shift = 63 - v.leading_zeros() - SUB_BITS + 1;
        let sub = (v >> shift) - SUB / 2;
        (shift as usize * (SUB / 2) as usize + SUB as usize / 2) + sub as usize
    }

    /// The smallest value of bucket `b` and the bucket's width.
    fn bucket_range(b: usize) -> (u64, u64) {
        let b = b as u64;
        if b < SUB {
            return (b, 1);
        }
        let shift = (b - SUB / 2) / (SUB / 2);
        let sub = (b - SUB / 2) % (SUB / 2) + SUB / 2;
        (sub << shift, 1 << shift)
    }

    /// Adds one sample.
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket(v)] += 1;
        self.total += 1;
    }

    /// The number of samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The number of samples strictly below `v` (exact when `v` is a
    /// bucket boundary, which every value below 1024 is).
    pub fn count_below(&self, v: u64) -> u64 {
        self.counts[..Self::bucket(v)].iter().sum()
    }

    /// The `q`-quantile, interpolating linearly inside the bucket that
    /// holds the target rank; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * (self.total - 1) as f64;
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (seen + c) as f64 > rank {
                let (lo, width) = Self::bucket_range(b);
                if width == 1 {
                    return lo as f64;
                }
                let within = (rank - seen as f64 + 0.5) / c as f64;
                return lo as f64 + width as f64 * within;
            }
            seen += c;
        }
        let (lo, width) = Self::bucket_range(self.counts.len() - 1);
        (lo + width) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_order_statistics() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(percentile(&mut v, 0.0), 1.0);
        assert_eq!(percentile(&mut v, 0.5), 3.0);
        assert_eq!(percentile(&mut v, 1.0), 5.0);
        assert_eq!(percentile(&mut v, 0.25), 2.0);
        let mut w = vec![10.0, 20.0];
        assert_eq!(percentile(&mut w, 0.5), 15.0);
        assert_eq!(percentile(&mut w, 0.99), 19.9);
        assert_eq!(percentile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn mean_and_ratio_handle_empty_input() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
    }

    #[test]
    fn histogram_buckets_tile_the_value_range() {
        for v in [
            0u64,
            1,
            1023,
            1024,
            1025,
            2047,
            2048,
            4095,
            123_456,
            u64::MAX / 3,
        ] {
            let b = Histogram::bucket(v);
            let (lo, width) = Histogram::bucket_range(b);
            assert!(
                lo <= v && v - lo < width,
                "{v} not in bucket {b} = [{lo}, +{width})"
            );
        }
        let mut prev = Histogram::bucket_range(0);
        for b in 1..(SUB as usize * 4) {
            let (lo, width) = Histogram::bucket_range(b);
            assert_eq!(
                lo,
                prev.0 + prev.1,
                "bucket {b} does not follow its predecessor"
            );
            prev = (lo, width);
        }
    }

    #[test]
    fn histogram_is_exact_on_small_values() {
        let mut h = Histogram::default();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile(0.0), 1.0);
        assert_eq!(h.quantile(1.0), 100.0);
        let mut raw: Vec<f64> = (1..=100).map(|v| v as f64).collect();
        let exact = percentile(&mut raw, 0.5);
        assert!(
            (h.quantile(0.5) - exact).abs() <= 0.5,
            "{} vs {exact}",
            h.quantile(0.5)
        );
        assert_eq!(h.count_below(51), 50);
    }

    #[test]
    fn histogram_quantiles_stay_within_two_tenths_of_a_percent() {
        let mut h = Histogram::default();
        let mut raw = Vec::new();
        let mut x = 12_345u64;
        for _ in 0..50_000 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let v = 1_000 + (x >> 40) % 5_000_000;
            h.record(v);
            raw.push(v as f64);
        }
        for q in [0.5, 0.9, 0.99] {
            let exact = percentile(&mut raw, q);
            let approx = h.quantile(q);
            assert!(
                (approx - exact).abs() / exact < 0.002,
                "q={q}: {approx} vs {exact}"
            );
        }
        h.record(7);
        assert_eq!(h.count(), 50_001);
        assert_eq!(h.count_below(8), 1);
    }
}
