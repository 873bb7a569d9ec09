//! A fixed-size log-linear latency histogram (values in nanoseconds).
//!
//! Values below 2·`SUB` land in exact unit buckets; above, every power of two
//! is cut into `SUB` equal buckets, so the relative bucket width is at most
//! 1/`SUB` (0.8%). Quantiles interpolate inside the bucket by rank, so a
//! reported latency moves continuously with the data instead of snapping to
//! bucket edges.

const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
/// Octaves above the linear range; covers values up to 2^(7+1+40) ns.
const OCTAVES: usize = 40;
const BUCKETS: usize = (OCTAVES + 2) * SUB as usize;

#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

fn bucket_of(value: u64) -> usize {
    if value < 2 * SUB {
        return value as usize;
    }
    let top = 63 - value.leading_zeros(); // ≥ SUB_BITS + 1
    let shift = top - SUB_BITS;
    let octave = u64::from(shift); // 1-based above the linear range
    let sub = (value >> shift) - SUB;
    let index = ((octave + 1) * SUB + sub) as usize;
    index.min(BUCKETS - 1)
}

/// The half-open value range `[lo, hi)` of bucket `index`.
fn bucket_range(index: usize) -> (u64, u64) {
    let index = index as u64;
    if index < 2 * SUB {
        return (index, index + 1);
    }
    let shift = index / SUB - 1;
    let lo = (SUB + index % SUB) << shift;
    (lo, lo + (1 << shift))
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }
}

impl Histogram {
    pub fn record(&mut self, value: u64) {
        self.counts[bucket_of(value)] += 1;
        self.total += 1;
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// Mean of the samples whose rank lies between the `lo`- and the
    /// `hi`-quantile (a trimmed mean; `0.25, 0.75` is the interquartile mean).
    /// Samples are spread evenly inside their bucket. Zero when empty.
    ///
    /// Unlike a single quantile this moves continuously when the samples sit
    /// in two clusters whose shares shift from run to run.
    pub fn mean_between(&self, lo: f64, hi: f64) -> f64 {
        let from = lo.clamp(0.0, 1.0) * self.total as f64;
        let to = hi.clamp(0.0, 1.0) * self.total as f64;
        if to <= from {
            return 0.0;
        }
        let mut seen = 0.0;
        let mut sum = 0.0;
        for (index, &count) in self.counts.iter().enumerate() {
            let count = count as f64;
            // The part of this bucket's ranks [seen, seen + count) in range.
            let a = (from - seen).clamp(0.0, count);
            let b = (to - seen).clamp(0.0, count);
            if b > a {
                let (lo, hi) = bucket_range(index);
                let width = (hi - lo) as f64;
                let centre = lo as f64 + width * (a + b) / (2.0 * count);
                sum += (b - a) * centre;
            }
            seen += count;
        }
        sum / (to - from)
    }

    /// The `q`-quantile (0 ≤ q ≤ 1), interpolated by rank inside its bucket.
    /// Zero for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * self.total as f64;
        let mut seen = 0u64;
        for (index, &count) in self.counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            if (seen + count) as f64 >= rank {
                let (lo, hi) = bucket_range(index);
                let within = ((rank - seen as f64) / count as f64).clamp(0.0, 1.0);
                return lo as f64 + within * (hi - lo) as f64;
            }
            seen += count;
        }
        bucket_range(BUCKETS - 1).1 as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_value_range() {
        let mut expect_lo = 0;
        for index in 0..BUCKETS {
            let (lo, hi) = bucket_range(index);
            assert_eq!(lo, expect_lo, "bucket {index} starts where the last ended");
            assert_eq!(bucket_of(lo), index);
            assert_eq!(bucket_of(hi - 1), index);
            expect_lo = hi;
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_of_a_uniform_ramp_are_within_bucket_resolution() {
        let mut h = Histogram::default();
        for v in 1..=100_000u64 {
            h.record(v * 10);
        }
        assert_eq!(h.count(), 100_000);
        for (q, want) in [(0.5, 500_000.0), (0.95, 950_000.0), (0.99, 990_000.0)] {
            let got = h.quantile(q);
            assert!((got / want - 1.0).abs() < 0.01, "q{q}: {got} vs {want}");
        }
        // Trimmed means of a symmetric ramp sit at its centre.
        for (lo, hi) in [(0.0, 1.0), (0.25, 0.75), (0.1, 0.9)] {
            let got = h.mean_between(lo, hi);
            assert!((got / 500_005.0 - 1.0).abs() < 0.005, "{lo}..{hi}: {got}");
        }
        let upper = h.mean_between(0.5, 1.0);
        assert!((upper / 750_000.0 - 1.0).abs() < 0.005, "{upper}");
    }

    #[test]
    fn quantiles_interpolate_inside_one_bucket() {
        let mut h = Histogram::default();
        for _ in 0..1000 {
            h.record(1_000_000); // one wide bucket
        }
        let (lo, hi) = bucket_range(bucket_of(1_000_000));
        let p25 = h.quantile(0.25);
        let p75 = h.quantile(0.75);
        assert!(lo as f64 <= p25 && p25 < p75 && p75 <= hi as f64);
    }

    #[test]
    fn a_trimmed_mean_moves_smoothly_where_the_median_jumps() {
        // Two clusters, 20 µs and 40 µs; the faster one holds 49% or 51%.
        let stats = |fast: u64| {
            let mut h = Histogram::default();
            for i in 0..100 {
                h.record(if i < fast { 20_000 } else { 40_000 });
            }
            (h.quantile(0.5), h.mean_between(0.1, 0.9))
        };
        let ((p50_a, mid_a), (p50_b, mid_b)) = (stats(49), stats(51));
        assert!(p50_a / p50_b > 1.9, "the median flips between clusters");
        assert!((mid_a / mid_b - 1.0).abs() < 0.03, "{mid_a} vs {mid_b}");
    }

    #[test]
    fn merge_adds_counts_and_empty_is_zero() {
        assert_eq!(Histogram::default().quantile(0.5), 0.0);
        assert_eq!(Histogram::default().mean_between(0.1, 0.9), 0.0);
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        a.record(100);
        b.record(300);
        b.record(300);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert!(a.quantile(0.9) >= 300.0);
    }
}
