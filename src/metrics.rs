//! Dependency-free latency metrics for the [`crate::service`]: a fixed,
//! log-spaced histogram of request latencies.
//!
//! [`LatencyHistogram`] is the live, lock-free recorder — an array of
//! [`AtomicU64`] buckets whose upper bounds are successive powers of two in
//! microseconds (1 µs, 2 µs, 4 µs, … ≈ 134 s, plus one overflow bucket), the
//! classic log-spaced layout of production latency metrics: constant memory,
//! constant-time recording from any thread, and quantile error bounded by a
//! factor of two. [`LatencySnapshot`] is the immutable copy a stats endpoint
//! hands out, with [`LatencySnapshot::quantile`] and a `Display` rendering
//! of the p50/p90/p99 line.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of histogram buckets: bucket `i < BUCKETS - 1` counts latencies
/// `≤ 2^i` µs; the last bucket counts everything larger (≈ over 2 minutes).
const BUCKETS: usize = 28;

/// A log-spaced latency histogram over atomic buckets; see the
/// [module docs](self). Recording is wait-free and `&self`, so one
/// histogram serves every server thread.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    sum_nanos: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_nanos: AtomicU64::new(0),
        }
    }

    /// The bucket index of a latency: the smallest `i` with
    /// `micros ≤ 2^i`, clamped into the overflow bucket.
    fn bucket_of(latency: Duration) -> usize {
        let micros = latency.as_micros().min(u128::from(u64::MAX)) as u64;
        // Zero and one microsecond both land in bucket 0 (upper bound 1 µs).
        let index = 64 - micros.max(1).leading_zeros() as usize - 1;
        let rounded_up = if micros.is_power_of_two() || micros == 0 {
            index
        } else {
            index + 1
        };
        rounded_up.min(BUCKETS - 1)
    }

    /// The upper bound of a bucket, in microseconds (`None` for the
    /// overflow bucket).
    fn upper_micros(bucket: usize) -> Option<u64> {
        (bucket < BUCKETS - 1).then(|| 1u64 << bucket)
    }

    /// Record one request latency.
    pub fn record(&self, latency: Duration) {
        self.buckets[Self::bucket_of(latency)].fetch_add(1, Ordering::Relaxed);
        let nanos = latency.as_nanos().min(u128::from(u64::MAX)) as u64;
        self.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// An immutable copy of the current counts. Buckets are read one by one
    /// (relaxed), so a snapshot racing a recording may miss that one sample
    /// or count it in the latency sum only — fine for metrics. The count is
    /// the sum of the buckets read, so the quantiles always find their rank.
    pub fn snapshot(&self) -> LatencySnapshot {
        let buckets: [u64; BUCKETS] =
            std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed));
        LatencySnapshot {
            buckets,
            count: buckets.iter().sum(),
            sum_nanos: self.sum_nanos.load(Ordering::Relaxed),
        }
    }
}

/// An immutable latency distribution, as captured by
/// [`LatencyHistogram::snapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencySnapshot {
    buckets: [u64; BUCKETS],
    count: u64,
    sum_nanos: u64,
}

impl LatencySnapshot {
    /// Total requests recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency (`None` when nothing was recorded).
    pub fn mean(&self) -> Option<Duration> {
        (self.count > 0).then(|| Duration::from_nanos(self.sum_nanos / self.count))
    }

    /// The latency below which a `q` fraction of requests fell, reported as
    /// the matching bucket's upper bound — an over-estimate by at most 2×,
    /// the usual contract of a log-spaced histogram. `None` when nothing
    /// was recorded. `q` is clamped into `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<Duration> {
        if self.count == 0 {
            return None;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &bucket) in self.buckets.iter().enumerate() {
            seen += bucket;
            if seen >= rank {
                return Some(match LatencyHistogram::upper_micros(i) {
                    Some(micros) => Duration::from_micros(micros),
                    // Overflow bucket: no meaningful upper bound; report the
                    // last bounded one as a floor.
                    None => Duration::from_micros(1 << (BUCKETS - 2)),
                });
            }
        }
        unreachable!("bucket counts sum to at least count")
    }

    /// The median latency bound: `quantile(0.50)`.
    pub fn p50(&self) -> Option<Duration> {
        self.quantile(0.50)
    }

    /// The 90th-percentile latency bound: `quantile(0.90)`.
    pub fn p90(&self) -> Option<Duration> {
        self.quantile(0.90)
    }

    /// The 99th-percentile (tail) latency bound: `quantile(0.99)`.
    pub fn p99(&self) -> Option<Duration> {
        self.quantile(0.99)
    }

    /// The non-empty buckets as `(upper_bound, count)` pairs (`None` upper
    /// bound = the overflow bucket).
    pub fn buckets(&self) -> impl Iterator<Item = (Option<Duration>, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &count)| count > 0)
            .map(|(i, &count)| {
                (
                    LatencyHistogram::upper_micros(i).map(Duration::from_micros),
                    count,
                )
            })
    }
}

impl fmt::Display for LatencySnapshot {
    /// The metrics line: count, mean, and the p50/p90/p99 bucket bounds.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.count == 0 {
            return write!(f, "no requests recorded");
        }
        write!(
            f,
            "{} requests; mean {:?}; p50 ≤ {:?}; p90 ≤ {:?}; p99 ≤ {:?}",
            self.count,
            self.mean().expect("count > 0"),
            self.p50().expect("count > 0"),
            self.p90().expect("count > 0"),
            self.p99().expect("count > 0"),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log_spaced_upper_bounds() {
        assert_eq!(LatencyHistogram::bucket_of(Duration::ZERO), 0);
        assert_eq!(LatencyHistogram::bucket_of(Duration::from_micros(1)), 0);
        assert_eq!(LatencyHistogram::bucket_of(Duration::from_micros(2)), 1);
        assert_eq!(LatencyHistogram::bucket_of(Duration::from_micros(3)), 2);
        assert_eq!(LatencyHistogram::bucket_of(Duration::from_micros(4)), 2);
        assert_eq!(LatencyHistogram::bucket_of(Duration::from_micros(1025)), 11);
        assert_eq!(
            LatencyHistogram::bucket_of(Duration::from_secs(3_600)),
            BUCKETS - 1,
            "an hour lands in the overflow bucket"
        );
    }

    #[test]
    fn quantiles_report_bucket_upper_bounds() {
        let histogram = LatencyHistogram::new();
        for _ in 0..90 {
            histogram.record(Duration::from_micros(10)); // bucket ≤ 16 µs
        }
        for _ in 0..10 {
            histogram.record(Duration::from_micros(1_000)); // bucket ≤ 1024 µs
        }
        let snapshot = histogram.snapshot();
        assert_eq!(snapshot.count(), 100);
        assert_eq!(snapshot.quantile(0.5), Some(Duration::from_micros(16)));
        assert_eq!(snapshot.quantile(0.90), Some(Duration::from_micros(16)));
        assert_eq!(snapshot.quantile(0.99), Some(Duration::from_micros(1024)));
        assert_eq!(snapshot.p50(), snapshot.quantile(0.50));
        assert_eq!(snapshot.p90(), snapshot.quantile(0.90));
        assert_eq!(snapshot.p99(), snapshot.quantile(0.99));
        assert_eq!(snapshot.quantile(1.0), Some(Duration::from_micros(1024)));
        assert!(snapshot.mean().unwrap() >= Duration::from_micros(10));
        let line = format!("{snapshot}");
        assert!(line.contains("100 requests"), "{line}");
        assert!(line.contains("p99"), "{line}");
    }

    #[test]
    fn empty_snapshot_has_no_quantiles() {
        let snapshot = LatencyHistogram::new().snapshot();
        assert_eq!(snapshot.count(), 0);
        assert_eq!(snapshot.quantile(0.5), None);
        assert_eq!(snapshot.mean(), None);
        assert_eq!(format!("{snapshot}"), "no requests recorded");
        assert_eq!(snapshot.buckets().count(), 0);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let histogram = LatencyHistogram::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for i in 0..250 {
                        histogram.record(Duration::from_micros(i));
                    }
                });
            }
        });
        assert_eq!(histogram.snapshot().count(), 1_000);
    }

    #[test]
    fn snapshots_taken_while_recording_stay_consistent() {
        use std::sync::atomic::AtomicBool;

        /// Stops the recorder even when an assertion below unwinds, so the
        /// scope joins it and reports the failure instead of hanging.
        struct StopOnDrop<'a>(&'a AtomicBool);
        impl Drop for StopOnDrop<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::Relaxed);
            }
        }

        let histogram = LatencyHistogram::new();
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for micros in 0.. {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    histogram.record(Duration::from_micros(micros % 4_096));
                }
            });
            let _stop = StopOnDrop(&stop);
            // Count only the snapshots that saw the recorder move, so a host
            // that parks it cannot make the race vacuous.
            let (mut raced, mut last) = (0, 0);
            while raced < 20_000 {
                let snapshot = histogram.snapshot();
                let in_buckets: u64 = snapshot.buckets().map(|(_, n)| n).sum();
                assert_eq!(snapshot.count(), in_buckets, "a torn snapshot");
                if snapshot.count() != last {
                    assert!(snapshot.quantile(1.0).is_some());
                    assert!(format!("{snapshot}").contains("p99"));
                    raced += 1;
                    last = snapshot.count();
                }
            }
        });
    }
}
