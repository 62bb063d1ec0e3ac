//! [`Histogram`]: the one latency histogram behind `/metrics` — route
//! latencies in `ppl-serve` and the recorder's (route, phase) cells.
//!
//! Samples are `u64` nanoseconds.  Each power-of-two octave
//! `[2^e, 2^(e+1))` is split into 8 equal-width linear sub-buckets, so no
//! bucket is wider than an eighth of its lower edge: a quantile read at
//! the bucket midpoint is within 6.25% of the sample it stands for, well
//! inside the 12.5% bound the property test enforces.  Values below 8 ns
//! get exact buckets; the top bucket (from about 69 minutes up) saturates,
//! so there is no overflow region and no sample is ever dropped.
//!
//! Quantiles use nearest rank and are clamped to the recorded
//! `[min, max]`, so a reported percentile never leaves the observed range.
//!
//! All state is relaxed `AtomicU64`s: recording takes no lock and never
//! allocates.  A reader racing with recorders sees every field atomically
//! but not the histogram as one snapshot, which is fine for diagnostics.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// log₂ of the number of linear sub-buckets per octave.
const SUB_BITS: u32 = 3;
/// Linear sub-buckets per power-of-two octave.
const SUB: usize = 1 << SUB_BITS;
/// Number of buckets: 40 octaves × 8 sub-buckets.
const BUCKETS: usize = 320;

/// A lock-free log-linear histogram of nanosecond samples with exact
/// count, sum, min and max.
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("max", &self.max())
            .finish_non_exhaustive()
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample of `nanos`.
    pub fn record(&self, nanos: u64) {
        self.buckets[index(nanos)].fetch_add(1, Relaxed);
        self.count.fetch_add(1, Relaxed);
        self.sum.fetch_add(nanos, Relaxed);
        self.min.fetch_min(nanos, Relaxed);
        self.max.fetch_max(nanos, Relaxed);
    }

    /// Adds every sample of `other` into this (unshared) histogram,
    /// bucket by bucket.
    pub fn absorb(&mut self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine.get_mut() += theirs.load(Relaxed);
        }
        *self.count.get_mut() += other.count();
        *self.sum.get_mut() += other.sum();
        let min = self.min.get_mut();
        *min = (*min).min(other.min.load(Relaxed));
        let max = self.max.get_mut();
        *max = (*max).max(other.max());
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Relaxed)
    }

    /// Sum of recorded samples, in nanoseconds.
    pub fn sum(&self) -> u64 {
        self.sum.load(Relaxed)
    }

    /// Smallest recorded sample (exact); 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count() == 0 {
            0
        } else {
            self.min.load(Relaxed)
        }
    }

    /// Largest recorded sample (exact); 0 when empty.
    pub fn max(&self) -> u64 {
        self.max.load(Relaxed)
    }

    /// Mean sample in nanoseconds; 0 when empty.
    pub fn mean(&self) -> f64 {
        self.sum() as f64 / (self.count() as f64).max(1.0)
    }

    /// Nearest-rank quantiles for each `q` in `qs` (ascending, each in
    /// `[0, 1]`), read at the bucket midpoint and clamped to `[min, max]`;
    /// 0 when empty.  One pass over the buckets from `min`'s up to the
    /// last rank.
    pub fn quantiles<const N: usize>(&self, qs: [f64; N]) -> [u64; N] {
        // `count` is bumped after the bucket, so it never exceeds the
        // buckets' sum.
        let (count, min, max) = (self.count(), self.min(), self.max());
        if count == 0 {
            return [0; N];
        }
        let mut bucket = index(min);
        let mut seen = self.buckets[bucket].load(Relaxed);
        qs.map(|q| {
            let rank = ((count as f64 * q).ceil() as u64).clamp(1, count);
            while seen < rank && bucket < BUCKETS - 1 {
                bucket += 1;
                seen += self.buckets[bucket].load(Relaxed);
            }
            let (lo, hi) = (lower(bucket), lower(bucket + 1));
            // `max`/`min` rather than `clamp`: a reader racing a recorder
            // can briefly see `min > max`.
            (lo + (hi - lo) / 2).max(min).min(max)
        })
    }

    /// Non-empty buckets in ascending order, as `(upper_nanos, count)`
    /// where `upper_nanos` is the bucket's exclusive upper edge (the top
    /// bucket also holds every sample above its edge).
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets.iter().enumerate().filter_map(|(i, c)| {
            let c = c.load(Relaxed);
            (c > 0).then(|| (lower(i + 1), c))
        })
    }
}

/// The bucket holding `nanos`.
fn index(nanos: u64) -> usize {
    if nanos < SUB as u64 {
        return nanos as usize;
    }
    let octave = 63 - nanos.leading_zeros();
    let sub = (nanos >> (octave - SUB_BITS)) as usize - SUB;
    ((octave - SUB_BITS + 1) as usize * SUB + sub).min(BUCKETS - 1)
}

/// The smallest value bucket `i` holds (`lower(BUCKETS)` is the top
/// bucket's nominal upper edge).
fn lower(i: usize) -> u64 {
    if i < SUB {
        return i as u64;
    }
    ((SUB + i % SUB) as u64) << (i / SUB - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// PCG-XSH-RR 64/32, seeded: the workspace's generator, inlined so
    /// this crate keeps zero dependencies.
    struct Pcg32(u64);

    impl Pcg32 {
        fn next_u32(&mut self) -> u32 {
            let old = self.0;
            self.0 = old
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let xorshifted = (((old >> 18) ^ old) >> 27) as u32;
            xorshifted.rotate_right((old >> 59) as u32)
        }

        fn next_f64(&mut self) -> f64 {
            let hi = u64::from(self.next_u32()) << 21;
            let lo = u64::from(self.next_u32()) >> 11;
            (hi | lo) as f64 / (1u64 << 53) as f64
        }

        /// Log-uniform over `[lo, hi]` nanoseconds.
        fn log_uniform(&mut self, lo: f64, hi: f64) -> u64 {
            (lo.ln() + self.next_f64() * (hi.ln() - lo.ln())).exp() as u64
        }
    }

    /// Exact nearest-rank quantile of `sorted`.
    fn exact(sorted: &[u64], q: f64) -> u64 {
        let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    fn histogram_of(samples: &[u64]) -> Histogram {
        let h = Histogram::new();
        samples.iter().for_each(|&s| h.record(s));
        h
    }

    /// The histogram's quantiles are ordered, inside `[min, max]`, and
    /// within 12.5% of the exact nearest-rank value.
    fn assert_quantiles_honest(samples: &[u64]) {
        let h = histogram_of(samples);
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let [p50, p90, p99] = h.quantiles([0.50, 0.90, 0.99]);
        let (min, max) = (h.min(), h.max());
        assert_eq!((min, max), (sorted[0], *sorted.last().unwrap()));
        assert!(
            min <= p50 && p50 <= p90 && p90 <= p99 && p99 <= max,
            "{min} {p50} {p90} {p99} {max} for {} samples",
            samples.len()
        );
        for (q, estimate) in [(0.50, p50), (0.90, p90), (0.99, p99)] {
            let truth = exact(&sorted, q) as f64;
            assert!(
                (estimate as f64 - truth).abs() <= 0.125 * truth,
                "q{q}: {estimate} vs exact {truth}"
            );
        }
    }

    #[test]
    fn bucket_edges_are_contiguous_and_exact_below_eight() {
        for v in 0..16 {
            assert_eq!((index(v), lower(v as usize)), (v as usize, v));
        }
        for i in 0..BUCKETS {
            assert_eq!(index(lower(i)), i, "bucket {i} starts at its lower edge");
            assert_eq!(
                index(lower(i + 1) - 1),
                i,
                "bucket {i} ends before the next"
            );
            assert!(lower(i + 1) - lower(i) <= lower(i).max(1) / 8 + 1);
        }
        assert_eq!(index(u64::MAX), BUCKETS - 1, "the top bucket saturates");
    }

    #[test]
    fn quantiles_are_ordered_and_within_an_eighth_over_generated_sets() {
        let mut rng = Pcg32(0x5eed_0f41_5709_4100);
        for case in 0..300 {
            let len = 1 + (rng.next_u32() % 400) as usize;
            // Alternate one 1 ns – 10 s spread with a narrow cluster
            // somewhere in that range.
            let (lo, hi) = if case % 2 == 0 {
                (1.0, 1e10)
            } else {
                let centre = rng.log_uniform(1.0, 1e10) as f64;
                (centre.max(1.0), (centre * 1.5).max(2.0))
            };
            let samples: Vec<u64> = (0..len).map(|_| rng.log_uniform(lo, hi)).collect();
            assert_quantiles_honest(&samples);
        }
    }

    #[test]
    fn probe_cases_stay_inside_the_observed_range() {
        // 100 route latencies of 0.030–0.066 ms once all read as the
        // 25 ms first bin centre of a linear 0–2000 ms histogram.
        let route: Vec<u64> = (0..100).map(|i| 30_000 + i * 360).collect();
        assert_quantiles_honest(&route);
        // Log₂ upper edges once reported p50 = p99 = 131 µs > max 107 µs.
        assert_quantiles_honest(&[70_000, 90_000, 107_000]);
    }

    #[test]
    fn empty_and_single_sample_histograms() {
        let h = Histogram::new();
        assert_eq!(h.quantiles([0.5, 0.99]), [0, 0]);
        assert_eq!((h.min(), h.max(), h.mean()), (0, 0, 0.0));
        h.record(1_234_567);
        assert_eq!(h.quantiles([0.0, 0.5, 1.0]), [1_234_567; 3]);
        assert_eq!(h.buckets().count(), 1);
    }

    #[test]
    fn concurrent_recording_keeps_count_sum_and_max_exact() {
        let h = std::sync::Arc::new(Histogram::new());
        let threads: Vec<_> = (0..4u64)
            .map(|t| {
                let h = std::sync::Arc::clone(&h);
                std::thread::spawn(move || {
                    let mut rng = Pcg32(t + 1);
                    let samples: Vec<u64> =
                        (0..20_000).map(|_| rng.log_uniform(1.0, 1e10)).collect();
                    samples.iter().for_each(|&s| h.record(s));
                    samples
                })
            })
            .collect();
        let all: Vec<u64> = threads
            .into_iter()
            .flat_map(|t| t.join().unwrap())
            .collect();
        assert_eq!(h.count(), all.len() as u64);
        assert_eq!(h.sum(), all.iter().sum::<u64>());
        assert_eq!(h.max(), *all.iter().max().unwrap());
        assert_eq!(h.min(), *all.iter().min().unwrap());
        assert_eq!(h.buckets().map(|(_, c)| c).sum::<u64>(), all.len() as u64);
    }

    #[test]
    fn absorb_sums_bucket_wise() {
        let a = histogram_of(&[10, 20_000, 3_000_000]);
        let b = histogram_of(&[5, 7_000_000]);
        let mut all = Histogram::new();
        all.absorb(&a);
        all.absorb(&b);
        all.absorb(&Histogram::new());
        assert_eq!((all.count(), all.min(), all.max()), (5, 5, 7_000_000));
        assert_eq!(all.sum(), 10_020_015);
        assert_eq!(all.buckets().count(), 5);
    }
}
