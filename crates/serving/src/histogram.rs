//! A fixed-size log-linear latency histogram: the daemon's record of every
//! completed request's latency, in constant memory however long it runs.
//!
//! Latencies are recorded as whole nanoseconds. Values below
//! [`SUB_BUCKETS`] ns get one exact bucket each; above that, every power
//! of two `[2^e, 2^(e+1))` is split into [`SUB_BUCKETS`] equal-width
//! buckets. A bucket's width is therefore at most `1/SUB_BUCKETS` of its
//! lower bound, and a percentile answered with the bucket's midpoint is
//! within **`1/(2·SUB_BUCKETS)` = 1/64 ≈ 1.6 % relative error** (plus the
//! ≤ 0.5 ns of rounding to whole nanoseconds) of the exact nearest-rank
//! value. `count` and `max_ms` are kept exactly.

/// Linear buckets per power of two (a power of two itself).
const SUB_BUCKETS: u64 = 32;
const SUB_BITS: u32 = SUB_BUCKETS.trailing_zeros();
/// Buckets covering every `u64` nanosecond value.
const BUCKETS: usize = ((64 - SUB_BITS + 1) as usize) * SUB_BUCKETS as usize;

/// The histogram; see the module docs for its error bound.
pub(crate) struct LatencyHistogram {
    counts: Box<[u64]>,
    count: u64,
    max_ms: f64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            counts: vec![0; BUCKETS].into_boxed_slice(),
            count: 0,
            max_ms: 0.0,
        }
    }
}

/// Bucket of a nanosecond value.
fn bucket_of(ns: u64) -> usize {
    if ns < SUB_BUCKETS {
        return ns as usize;
    }
    let shift = 63 - ns.leading_zeros() - SUB_BITS;
    ((shift as u64 + 1) * SUB_BUCKETS + ((ns >> shift) - SUB_BUCKETS)) as usize
}

/// `(lowest value, width)` of bucket `b`, in nanoseconds.
fn bucket_range(b: usize) -> (u64, u64) {
    let b = b as u64;
    if b < SUB_BUCKETS {
        return (b, 1);
    }
    let shift = b / SUB_BUCKETS - 1;
    ((SUB_BUCKETS + b % SUB_BUCKETS) << shift, 1 << shift)
}

impl LatencyHistogram {
    /// Records one latency (ms). Negative and NaN values record as 0.
    pub(crate) fn record(&mut self, ms: f64) {
        let ns = (ms * 1e6).round();
        let ns = if ns > 0.0 { ns as u64 } else { 0 };
        self.counts[bucket_of(ns)] += 1;
        self.count += 1;
        if ms > self.max_ms {
            self.max_ms = ms;
        }
    }

    /// Number of recorded latencies (exact).
    pub(crate) fn count(&self) -> u64 {
        self.count
    }

    /// Largest recorded latency in ms (exact; 0 when empty).
    pub(crate) fn max_ms(&self) -> f64 {
        self.max_ms
    }

    /// The nearest-rank `q`-quantile (ms) within the module's error bound,
    /// never above [`LatencyHistogram::max_ms`]; 0 when empty.
    pub(crate) fn percentile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q * (self.count - 1) as f64).round() as u64;
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen > rank {
                let (lo, width) = bucket_range(b);
                let mid_ns = lo as f64 + (width - 1) as f64 / 2.0;
                return (mid_ns / 1e6).min(self.max_ms);
            }
        }
        self.max_ms
    }

    /// Number of buckets (fixed).
    #[cfg(test)]
    fn buckets(&self) -> usize {
        self.counts.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_value_range() {
        for ns in [0, 1, 31, 32, 33, 63, 64, 65, 1000, 123_456_789, u64::MAX] {
            let (lo, width) = bucket_range(bucket_of(ns));
            assert!(lo <= ns && ns - lo < width, "{ns} not in [{lo}, +{width})");
            assert!(
                width == 1 || width * SUB_BUCKETS <= lo,
                "{ns}: bucket too wide"
            );
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        // consecutive buckets are adjacent
        for b in 0..BUCKETS - 1 {
            let (lo, width) = bucket_range(b);
            assert_eq!(bucket_range(b + 1).0, lo + width, "bucket {b}");
        }
    }

    /// A million recordings: the histogram does not grow, counts exactly,
    /// and answers p50 / p99 within the stated error of the exact
    /// nearest-rank values.
    #[test]
    fn a_million_recordings_stay_fixed_size_and_within_the_error_bound() {
        let mut h = LatencyHistogram::default();
        let size = h.buckets();
        // a skewed, seeded spread over 10 µs .. ~10 s
        let mut x = 0x9E37_79B9_7F4A_7C15_u64;
        let mut values = Vec::with_capacity(1_000_000);
        for _ in 0..1_000_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let u = (x >> 11) as f64 / (1u64 << 53) as f64;
            let ms = 0.01 * 10f64.powf(6.0 * u * u);
            h.record(ms);
            values.push(ms);
        }
        assert_eq!(h.buckets(), size);
        assert_eq!(h.count(), values.len() as u64);
        values.sort_by(f64::total_cmp);
        assert_eq!(h.max_ms(), *values.last().unwrap());
        for q in [0.5, 0.99] {
            let exact = values[(q * (values.len() - 1) as f64).round() as usize];
            let got = h.percentile(q);
            let bound = exact / (2 * SUB_BUCKETS) as f64 + 1e-6;
            assert!(
                (got - exact).abs() <= bound,
                "q {q}: {got} vs exact {exact} (bound {bound})"
            );
        }
    }

    #[test]
    fn small_samples_are_exact_and_empty_is_zero() {
        let mut h = LatencyHistogram::default();
        assert_eq!((h.count(), h.percentile(0.5), h.max_ms()), (0, 0.0, 0.0));
        for ns in 1..=20u32 {
            h.record(f64::from(ns) / 1e6);
        }
        assert_eq!(h.percentile(0.0), 1e-6);
        assert_eq!(h.percentile(0.5), 11e-6);
        assert_eq!(h.percentile(1.0), 20e-6);
        h.record(f64::NAN);
        h.record(-1.0);
        assert_eq!(h.count(), 22);
        assert_eq!(h.percentile(0.0), 0.0);
    }
}
