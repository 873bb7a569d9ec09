//! An HDR-style log-linear latency histogram with fixed buckets.
//!
//! Values (per-attempt microseconds in the closed-loop workload runner, but
//! the histogram is unit-agnostic) are binned into 32 sub-buckets per
//! power-of-two octave, so every recorded value is represented with at most
//! 1/32 ≈ 3.1% relative error while the whole `u64` range fits in a fixed
//! ~1.9k-bucket table. Recording is O(1) with no allocation; histograms from
//! concurrent workers merge by bucket-wise addition, which is how the runner
//! aggregates its clients' latencies.

/// log2 of the sub-bucket count per octave.
const SUB_BITS: u32 = 5;
/// Sub-buckets per octave (32).
const SUB: u64 = 1 << SUB_BITS;
/// Total bucket count: one linear region of `SUB` buckets for values below
/// `SUB`, then 32 sub-buckets for each octave `[2^m, 2^(m+1))`, m in 5..=63 —
/// 59 octaves plus the linear region.
const BUCKETS: usize = (SUB as usize) * (64 - SUB_BITS as usize + 1);

/// Maps a value to its bucket index. Exact below `SUB`; above, the bucket
/// spans `2^(m-5)` values where `m` is the value's highest set bit.
fn bucket_index(value: u64) -> usize {
    if value < SUB {
        return value as usize;
    }
    let msb = 63 - value.leading_zeros(); // >= SUB_BITS
    let sub = (value >> (msb - SUB_BITS)) & (SUB - 1);
    ((msb - SUB_BITS + 1) as usize) * SUB as usize + sub as usize
}

/// The largest value a bucket covers — quantiles report this bound, so they
/// never understate a tail.
fn bucket_upper(index: usize) -> u64 {
    let index = index as u64;
    if index < SUB {
        return index;
    }
    let msb = index / SUB - 1 + u64::from(SUB_BITS);
    let sub = index % SUB;
    let width = 1u64 << (msb - u64::from(SUB_BITS));
    ((SUB + sub) * width).saturating_add(width - 1)
}

/// A fixed-bucket log-linear histogram; see the module docs.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    counts: Box<[u64; BUCKETS]>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        LatencyHistogram {
            counts: Box::new([0; BUCKETS]),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        self.counts[bucket_index(value)] += 1;
        self.count += 1;
        self.sum += u128::from(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Adds every recording of `other` into `self`.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded values.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest recorded value (0 when empty).
    #[must_use]
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value, exact (0 when empty).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of the recorded values (0.0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at quantile `q` in `[0, 1]`: an upper bound on the smallest
    /// recorded value `v` such that at least `ceil(q · count)` recordings are
    /// ≤ `v`, accurate to the bucket width (≤ 3.2% above `v`, and never
    /// above [`LatencyHistogram::max`]). Returns 0 when empty.
    #[must_use]
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (index, &n) in self.counts.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper(index).min(self.max);
            }
        }
        self.max
    }

    /// The median (`p50`).
    #[must_use]
    pub fn p50(&self) -> u64 {
        self.value_at_quantile(0.50)
    }

    /// The 99th percentile.
    #[must_use]
    pub fn p99(&self) -> u64 {
        self.value_at_quantile(0.99)
    }

    /// The 99.9th percentile.
    #[must_use]
    pub fn p999(&self) -> u64 {
        self.value_at_quantile(0.999)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_bounded() {
        let mut values: Vec<u64> = (0..4_096).collect();
        for shift in 12..64 {
            let base = 1u64 << shift;
            values.extend([base, base + base / 32, base + base / 2]);
            values.push(base.saturating_add(base - 1));
        }
        values.push(u64::MAX);
        values.sort_unstable();
        let mut last = 0usize;
        for value in values {
            let index = bucket_index(value);
            assert!(index < BUCKETS, "value {value} → index {index}");
            assert!(index >= last, "index must not decrease ({value})");
            last = index;
        }
    }

    #[test]
    fn bucket_upper_bounds_its_members() {
        for value in (0..5_000u64)
            .chain((0..40).map(|s| 1u64 << s))
            .chain([u64::MAX - 1, u64::MAX])
        {
            let upper = bucket_upper(bucket_index(value));
            assert!(upper >= value, "upper {upper} < value {value}");
            // Relative error of the representative is bounded by the bucket
            // width: 1/32 of the value's octave.
            if value >= SUB {
                assert!(
                    (upper - value) as f64 <= value as f64 / 16.0,
                    "value {value} upper {upper}"
                );
            } else {
                assert_eq!(upper, value, "linear region is exact");
            }
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut hist = LatencyHistogram::new();
        for v in [0u64, 1, 2, 3, 31] {
            hist.record(v);
        }
        assert_eq!(hist.count(), 5);
        assert_eq!(hist.min(), 0);
        assert_eq!(hist.max(), 31);
        assert_eq!(hist.value_at_quantile(0.0), 0);
        assert_eq!(hist.p50(), 2);
        assert_eq!(hist.value_at_quantile(1.0), 31);
    }

    #[test]
    fn quantiles_track_a_uniform_ramp_within_bucket_error() {
        let mut hist = LatencyHistogram::new();
        for v in 1..=100_000u64 {
            hist.record(v);
        }
        for (q, expected) in [(0.50, 50_000.0), (0.99, 99_000.0), (0.999, 99_900.0)] {
            let got = hist.value_at_quantile(q) as f64;
            assert!(
                got >= expected && got <= expected * 1.04,
                "q={q}: got {got}, expected ~{expected}"
            );
        }
        assert!((hist.mean() - 50_000.5).abs() < 1.0);
    }

    #[test]
    fn merge_equals_recording_everything_into_one() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut whole = LatencyHistogram::new();
        for v in [1u64, 10, 100, 1_000, 10_000] {
            a.record(v);
            whole.record(v);
        }
        for v in [5u64, 50, 500_000, u64::MAX] {
            b.record(v);
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
        for q in [0.1, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(a.value_at_quantile(q), whole.value_at_quantile(q), "q={q}");
        }
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let hist = LatencyHistogram::new();
        assert_eq!(hist.count(), 0);
        assert_eq!(hist.min(), 0);
        assert_eq!(hist.max(), 0);
        assert_eq!(hist.mean(), 0.0);
        assert_eq!(hist.p50(), 0);
        assert_eq!(hist.p999(), 0);
    }

    #[test]
    fn single_sample_is_every_quantile() {
        for value in [0u64, 1, 31, 32, 1_000_003, u64::MAX] {
            let mut hist = LatencyHistogram::new();
            hist.record(value);
            assert_eq!(hist.count(), 1);
            assert_eq!(hist.min(), value);
            assert_eq!(hist.max(), value);
            assert_eq!(hist.mean(), value as f64);
            // Every quantile of a one-sample distribution is that sample —
            // and the max() clamp keeps wide buckets from overstating it.
            for q in [0.0, 0.5, 0.99, 0.999, 1.0] {
                assert_eq!(hist.value_at_quantile(q), value, "value {value} q {q}");
            }
        }
    }

    #[test]
    fn top_octave_saturates_without_overflow_or_wraparound() {
        let mut hist = LatencyHistogram::new();
        // The highest octave: bucket_upper would overflow without its
        // saturating_add; every index must stay inside the fixed table.
        for value in [u64::MAX, u64::MAX - 1, u64::MAX / 2 + 1, 1u64 << 63] {
            assert!(bucket_index(value) < BUCKETS, "value {value} out of table");
            hist.record(value);
        }
        assert_eq!(hist.count(), 4);
        assert_eq!(hist.max(), u64::MAX);
        assert_eq!(hist.value_at_quantile(1.0), u64::MAX);
        assert!(
            hist.p50() >= 1u64 << 63,
            "median collapsed below the octave"
        );
    }

    #[test]
    fn quantiles_are_monotone_in_q() {
        // A shape with a long tail: heavy head, sparse spread-out rest.
        let mut hist = LatencyHistogram::new();
        let mut state = 0x9E37_79B9u64;
        for i in 0..10_000u64 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            let value = if i % 10 == 0 {
                state % 1_000_000
            } else {
                state % 200
            };
            hist.record(value);
        }
        let mut last = 0u64;
        for q in (0..=1_000).map(|i| i as f64 / 1_000.0) {
            let v = hist.value_at_quantile(q);
            assert!(v >= last, "quantiles regressed at q={q}: {v} < {last}");
            last = v;
        }
        assert!(hist.p50() <= hist.p99() && hist.p99() <= hist.p999());
        assert!(hist.p999() <= hist.max());
    }

    #[test]
    fn p999_never_exceeds_the_exact_max() {
        let mut hist = LatencyHistogram::new();
        for _ in 0..1_000 {
            hist.record(100);
        }
        hist.record(1_000_003); // a single outlier with a wide bucket
        assert_eq!(hist.p999(), hist.value_at_quantile(0.999));
        assert!(hist.value_at_quantile(1.0) <= hist.max());
        assert_eq!(hist.max(), 1_000_003);
    }
}
