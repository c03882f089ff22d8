//! Service statistics: per-session counters and the merged
//! service-wide report.
//!
//! Latencies are *simulated* seconds (planning cost + execution
//! makespan), kept in the metrics registry's log₂-µs
//! [`HistogramData`], so every reported number is deterministic;
//! wall-clock micros are tracked alongside as an informational column.

use std::fmt;

use crate::admission::AdmissionStats;
use crate::cache::{CacheStats, ResultCacheStats};
use pspp_telemetry::{HistogramData, MetricsSnapshot};

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
    pub latency: HistogramData,
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
        let latency = &self.merged.latency;
        let ms = |q| latency.quantile(q).unwrap_or(0.0) * 1e3;
        write!(
            f,
            "sim latency: p50 <= {:.3} ms, p95 <= {:.3} ms, p99 <= {:.3} ms over {} queries",
            ms(0.50),
            ms(0.95),
            ms(0.99),
            latency.count
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
