//! Service statistics: latency histograms, per-session counters, and
//! the merged service-wide report.
//!
//! Latencies are *simulated* seconds (planning cost + execution
//! makespan), keeping every reported number deterministic; wall-clock
//! micros are tracked alongside as an informational column.

use std::fmt;

use crate::admission::AdmissionStats;
use crate::cache::{CacheStats, ResultCacheStats};
use pspp_telemetry::MetricsSnapshot;

/// Log₂-bucketed latency histogram over microseconds.
///
/// Bucket `i` counts latencies in `[2^(i-1), 2^i)` µs (bucket 0 is
/// `< 1 µs`); the top bucket absorbs everything larger. Merging is
/// element-wise, so per-session histograms roll up exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; Self::BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [0; Self::BUCKETS],
        }
    }
}

impl LatencyHistogram {
    /// Number of buckets (top of range ≈ 2^30 µs ≈ 18 minutes).
    pub const BUCKETS: usize = 32;

    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram::default()
    }

    fn bucket_for(micros: u64) -> usize {
        let bits = u64::BITS - micros.leading_zeros();
        (bits as usize).min(Self::BUCKETS - 1)
    }

    /// Records one latency, given in seconds.
    pub fn record(&mut self, seconds: f64) {
        let micros = (seconds.max(0.0) * 1e6) as u64;
        self.buckets[Self::bucket_for(micros)] += 1;
    }

    /// Element-wise merge of another histogram.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The standard reporting quantiles `(p50, p95, p99)`, in seconds
    /// (zeros when empty). Estimates follow the upper-bound-of-bucket
    /// rule of [`LatencyHistogram::quantile`], so each is biased high
    /// by at most one power of two.
    pub fn quantiles(&self) -> (f64, f64, f64) {
        (
            self.quantile(0.50).unwrap_or(0.0),
            self.quantile(0.95).unwrap_or(0.0),
            self.quantile(0.99).unwrap_or(0.0),
        )
    }

    /// Approximate quantile (`q` in `[0, 1]`), reported as the upper
    /// bound in seconds of the bucket containing that rank — a
    /// deliberate conservative bias: the true quantile lies somewhere
    /// in the bucket, so the estimate overshoots by at most 2x (the
    /// bucket's width). `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let count = self.count();
        if count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // Upper bound of bucket i: 2^i µs (bucket 0: 1 µs).
                return Some((1u64 << i) as f64 * 1e-6);
            }
        }
        None
    }
}

/// One session's (or the whole service's) counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SessionReport {
    /// Session id (`u64::MAX` in the merged service row).
    pub session: u64,
    /// Queries submitted (including rejected ones).
    pub issued: u64,
    /// Queries that completed successfully.
    pub completed: u64,
    /// Queries that failed with an execution/compile error.
    pub failed: u64,
    /// Queries shed by admission control.
    pub rejected: u64,
    /// Plan-cache hits among completed queries.
    pub cache_hits: u64,
    /// Plan-cache misses among completed queries.
    pub cache_misses: u64,
    /// Result-cache hits among completed queries (executor bypassed).
    pub result_hits: u64,
    /// Sum of simulated service seconds (plan + execution makespan).
    pub sim_seconds: f64,
    /// Sum of wall-clock microseconds spent from admission to reply.
    pub wall_micros: u64,
    /// Simulated-latency histogram.
    pub latency: LatencyHistogram,
}

impl SessionReport {
    /// Plan-cache hit fraction among completed queries.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Folds another report into this one (histograms merge exactly).
    pub fn absorb(&mut self, other: &SessionReport) {
        self.issued += other.issued;
        self.completed += other.completed;
        self.failed += other.failed;
        self.rejected += other.rejected;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.result_hits += other.result_hits;
        self.sim_seconds += other.sim_seconds;
        self.wall_micros += other.wall_micros;
        self.latency.merge(&other.latency);
    }
}

/// The service-wide report: per-session rows, their merge, and the
/// cache + admission counters.
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// One row per open session, in session-id order.
    pub sessions: Vec<SessionReport>,
    /// All sessions folded together.
    pub merged: SessionReport,
    /// Plan-cache counters.
    pub cache: CacheStats,
    /// Result-cache counters (all zero when the result cache is off).
    pub results: ResultCacheStats,
    /// The back-off hint a shed client would receive right now, in
    /// simulated seconds (`0` before the first completed query) —
    /// mirrors `admission.retry_after_micros`.
    pub retry_after_seconds: f64,
    /// Admission-controller counters.
    pub admission: AdmissionStats,
    /// Snapshot of the system-wide metrics registry at report time
    /// (executor/placer/kernel-charge/reshard series plus the service's own).
    pub metrics: MetricsSnapshot,
}

impl ServiceReport {
    /// Renders the metrics snapshot in Prometheus text exposition
    /// format — the service's scrape endpoint payload.
    pub fn prometheus(&self) -> String {
        self.metrics.to_prometheus()
    }
}

impl fmt::Display for ServiceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "service: {} sessions, {} completed / {} failed / {} rejected",
            self.sessions.len(),
            self.merged.completed,
            self.merged.failed,
            self.merged.rejected
        )?;
        writeln!(
            f,
            "plan cache: {} hits / {} misses ({:.0}% hit rate), {} resident, {} evicted",
            self.cache.hits,
            self.cache.misses,
            self.cache.hit_rate() * 100.0,
            self.cache.len,
            self.cache.evictions
        )?;
        if self.results.hits + self.results.misses > 0 {
            writeln!(
                f,
                "result cache: {} hits / {} misses ({:.0}% hit rate), {} resident, \
                 {} invalidated",
                self.results.hits,
                self.results.misses,
                self.results.hit_rate() * 100.0,
                self.results.len,
                self.results.invalidations
            )?;
        }
        writeln!(
            f,
            "admission: {} admitted, {} blocked, {} rejected, peak queue {}, \
             retry-after {:.3} ms",
            self.admission.admitted,
            self.admission.blocked,
            self.admission.rejected,
            self.admission.peak_queue,
            self.retry_after_seconds * 1e3
        )?;
        let (p50, p95, p99) = self.merged.latency.quantiles();
        write!(
            f,
            "sim latency: p50 <= {:.3} ms, p95 <= {:.3} ms, p99 <= {:.3} ms over {} queries",
            p50 * 1e3,
            p95 * 1e3,
            p99 * 1e3,
            self.merged.latency.count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_records_and_quantiles() {
        let mut h = LatencyHistogram::new();
        for _ in 0..99 {
            h.record(1e-3); // ~1 ms
        }
        h.record(1.0); // one 1 s outlier
        assert_eq!(h.count(), 100);
        let p50 = h.quantile(0.5).unwrap();
        assert!(p50 <= 2.1e-3, "p50 {p50}");
        let p99 = h.quantile(0.99).unwrap();
        assert!(p99 <= 2.1e-3, "p99 {p99}");
        let p100 = h.quantile(1.0).unwrap();
        assert!(p100 >= 1.0, "max {p100}");
    }

    #[test]
    fn quantiles_report_p50_p95_p99_upper_bounds() {
        let mut h = LatencyHistogram::new();
        for _ in 0..94 {
            h.record(1e-3);
        }
        for _ in 0..6 {
            h.record(0.5);
        }
        let (p50, p95, p99) = h.quantiles();
        assert!(p50 <= 2.1e-3, "p50 {p50}");
        // Rank 95 lands in the 0.5 s block: upper bound of its bucket.
        assert!(p95 >= 0.5, "p95 {p95}");
        assert!(p99 >= p95, "quantiles are monotone");
        assert_eq!(LatencyHistogram::new().quantiles(), (0.0, 0.0, 0.0));
    }

    #[test]
    fn histogram_merge_is_exact() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(5e-6);
        b.record(5e-6);
        b.record(3e-2);
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.count(), 3);
    }

    #[test]
    fn session_reports_absorb() {
        let mut a = SessionReport {
            completed: 3,
            cache_hits: 2,
            cache_misses: 1,
            sim_seconds: 0.5,
            ..Default::default()
        };
        let b = SessionReport {
            completed: 1,
            cache_hits: 1,
            sim_seconds: 0.25,
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.completed, 4);
        assert!((a.cache_hit_rate() - 0.75).abs() < 1e-12);
        assert!((a.sim_seconds - 0.75).abs() < 1e-12);
    }
}
