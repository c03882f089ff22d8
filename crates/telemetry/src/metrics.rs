//! Deterministic metrics registry.
//!
//! Instrumentation points across the runtime and service layers record into a
//! shared [`MetricsRegistry`]. Determinism rules:
//!
//! - every stored value is an integer (`u64` counts, `i64` gauges, `u64`
//!   histogram buckets + nanosecond sums), so concurrent increments from
//!   worker threads commute — the final snapshot is independent of thread
//!   interleaving;
//! - families and label sets live in `BTreeMap`s, so [`MetricsRegistry::snapshot`]
//!   enumerates series in a stable order regardless of registration order;
//! - gauges additionally offer a commutative [`Gauge::record_max`] update for
//!   values touched from multiple threads (plain [`Gauge::set`] is reserved
//!   for single-threaded contexts such as end-of-run reports).
//!
//! Histograms bucket by log₂ microseconds. The service layer keeps its
//! session and tenant latencies in the same [`HistogramData`], so the
//! Prometheus export and the in-process quantile estimates agree.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Number of log₂-microsecond histogram buckets.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// The kind of a metric family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing `u64`.
    Counter,
    /// Point-in-time `i64`.
    Gauge,
    /// Log₂-microsecond latency distribution.
    Histogram,
}

impl MetricKind {
    /// Prometheus `# TYPE` keyword for the kind.
    pub fn prom_type(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

type Labels = Vec<(String, String)>;

/// Bucketed latency distribution: log₂-microsecond buckets plus an exact
/// observation count and nanosecond sum (integers, so merges commute and
/// [`HistogramData::merge`] rolls per-session histograms up exactly).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramData {
    /// `buckets[i]` counts observations with `2^(i-1) <= µs < 2^i` (bucket 0
    /// holds everything below 1 µs); the top bucket absorbs everything
    /// larger.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total number of observations.
    pub count: u64,
    /// Sum of all observations in integer nanoseconds.
    pub sum_nanos: u64,
}

impl Default for HistogramData {
    fn default() -> Self {
        HistogramData {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum_nanos: 0,
        }
    }
}

impl HistogramData {
    fn bucket_for(micros: u64) -> usize {
        let bits = u64::BITS - micros.leading_zeros();
        (bits as usize).min(HISTOGRAM_BUCKETS - 1)
    }

    /// Records one observation given in (simulated) seconds.
    pub fn observe_seconds(&mut self, seconds: f64) {
        let nanos = (seconds.max(0.0) * 1e9).round() as u64;
        self.buckets[Self::bucket_for(nanos / 1_000)] += 1;
        self.count += 1;
        self.sum_nanos += nanos;
    }

    /// Folds `other`'s observations into this histogram.
    pub fn merge(&mut self, other: &HistogramData) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum_nanos += other.sum_nanos;
    }

    /// Sum of all observations in seconds.
    pub fn sum_seconds(&self) -> f64 {
        self.sum_nanos as f64 * 1e-9
    }

    /// Upper bound of bucket `i` in seconds (`2^i` µs).
    pub fn bucket_upper_seconds(i: usize) -> f64 {
        (1u64 << i) as f64 * 1e-6
    }

    /// Approximate quantile (`q` in `[0, 1]`) using the upper-bound-of-bucket
    /// rule: the reported value is the upper edge of the bucket containing the
    /// rank, so estimates are biased high by at most one power of two.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Some(Self::bucket_upper_seconds(i));
            }
        }
        None
    }
}

/// A snapshot value for one series.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Counter total.
    Counter(u64),
    /// Gauge level.
    Gauge(i64),
    /// Histogram state (boxed: the bucket array dwarfs the scalars).
    Histogram(Box<HistogramData>),
}

#[derive(Debug)]
struct Family {
    kind: MetricKind,
    help: String,
    series: BTreeMap<Labels, MetricValue>,
}

#[derive(Debug, Default)]
struct RegistryState {
    families: BTreeMap<String, Family>,
}

/// Shared, thread-safe metrics registry. Clones share storage.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    state: Arc<Mutex<RegistryState>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    fn guard(&self) -> MutexGuard<'_, RegistryState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn register(
        &self,
        kind: MetricKind,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
    ) -> Labels {
        let labels: Labels = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        let mut state = self.guard();
        let family = state
            .families
            .entry(name.to_string())
            .or_insert_with(|| Family {
                kind,
                help: help.to_string(),
                series: BTreeMap::new(),
            });
        debug_assert_eq!(
            family.kind, kind,
            "metric {name} re-registered with another kind"
        );
        family
            .series
            .entry(labels.clone())
            .or_insert_with(|| match kind {
                MetricKind::Counter => MetricValue::Counter(0),
                MetricKind::Gauge => MetricValue::Gauge(0),
                MetricKind::Histogram => MetricValue::Histogram(Box::default()),
            });
        labels
    }

    fn update(&self, name: &str, labels: &Labels, f: impl FnOnce(&mut MetricValue)) {
        let mut state = self.guard();
        if let Some(value) = state
            .families
            .get_mut(name)
            .and_then(|fam| fam.series.get_mut(labels))
        {
            f(value);
        }
    }

    /// Registers (or reuses) a counter series and returns its handle.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        let labels = self.register(MetricKind::Counter, name, help, labels);
        Counter {
            registry: self.clone(),
            name: name.to_string(),
            labels,
        }
    }

    /// Registers (or reuses) a gauge series and returns its handle.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        let labels = self.register(MetricKind::Gauge, name, help, labels);
        Gauge {
            registry: self.clone(),
            name: name.to_string(),
            labels,
        }
    }

    /// Registers (or reuses) a histogram series and returns its handle.
    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Histogram {
        let labels = self.register(MetricKind::Histogram, name, help, labels);
        Histogram {
            registry: self.clone(),
            name: name.to_string(),
            labels,
        }
    }

    /// Takes a point-in-time snapshot with deterministic (sorted) series order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let state = self.guard();
        let mut entries = Vec::new();
        for (name, family) in &state.families {
            for (labels, value) in &family.series {
                entries.push(MetricEntry {
                    name: name.clone(),
                    kind: family.kind,
                    help: family.help.clone(),
                    labels: labels.clone(),
                    value: value.clone(),
                });
            }
        }
        MetricsSnapshot { entries }
    }
}

/// Handle to one counter series.
#[derive(Debug, Clone)]
pub struct Counter {
    registry: MetricsRegistry,
    name: String,
    labels: Labels,
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.registry.update(&self.name, &self.labels, |v| {
            if let MetricValue::Counter(total) = v {
                *total += n;
            }
        });
    }
}

/// Handle to one gauge series.
#[derive(Debug, Clone)]
pub struct Gauge {
    registry: MetricsRegistry,
    name: String,
    labels: Labels,
}

impl Gauge {
    /// Sets the level. Only deterministic from single-threaded contexts.
    pub fn set(&self, v: i64) {
        self.registry.update(&self.name, &self.labels, |value| {
            if let MetricValue::Gauge(level) = value {
                *level = v;
            }
        });
    }

    /// Raises the level to `v` if larger — commutative, safe from any thread.
    pub fn record_max(&self, v: i64) {
        self.registry.update(&self.name, &self.labels, |value| {
            if let MetricValue::Gauge(level) = value {
                *level = (*level).max(v);
            }
        });
    }
}

/// Handle to one histogram series.
#[derive(Debug, Clone)]
pub struct Histogram {
    registry: MetricsRegistry,
    name: String,
    labels: Labels,
}

impl Histogram {
    /// Records one observation given in (simulated) seconds.
    pub fn observe_seconds(&self, seconds: f64) {
        self.registry.update(&self.name, &self.labels, |value| {
            if let MetricValue::Histogram(data) = value {
                data.observe_seconds(seconds);
            }
        });
    }
}

/// One series in a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricEntry {
    /// Family name, e.g. `pspp_exchange_rows_total`.
    pub name: String,
    /// Family kind.
    pub kind: MetricKind,
    /// Family help text.
    pub help: String,
    /// Sorted label pairs identifying the series.
    pub labels: Vec<(String, String)>,
    /// The value at snapshot time.
    pub value: MetricValue,
}

/// Point-in-time registry snapshot; series appear in sorted order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// All series, ordered by (name, labels).
    pub entries: Vec<MetricEntry>,
}

impl MetricsSnapshot {
    /// Sums every counter series of family `name` (all label sets).
    pub fn counter_total(&self, name: &str) -> u64 {
        self.entries
            .iter()
            .filter(|e| e.name == name)
            .filter_map(|e| match e.value {
                MetricValue::Counter(v) => Some(v),
                _ => None,
            })
            .sum()
    }

    /// Value of the gauge series `name` with exactly the given labels.
    pub fn gauge_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<i64> {
        self.entries
            .iter()
            .find(|e| {
                e.name == name
                    && e.labels.len() == labels.len()
                    && e.labels
                        .iter()
                        .zip(labels)
                        .all(|((k, v), (lk, lv))| k == lk && v == lv)
            })
            .and_then(|e| match e.value {
                MetricValue::Gauge(v) => Some(v),
                _ => None,
            })
    }

    /// Renders the snapshot in Prometheus text exposition format.
    pub fn to_prometheus(&self) -> String {
        crate::prom::render(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates_per_label_set() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("pspp_test_total", "test", &[("engine", "sql")]);
        let b = reg.counter("pspp_test_total", "test", &[("engine", "ml")]);
        a.inc();
        a.add(2);
        b.inc();
        let snap = reg.snapshot();
        assert_eq!(snap.counter_total("pspp_test_total"), 4);
        assert_eq!(snap.entries.len(), 2);
        assert_eq!(snap.entries[0].labels, vec![("engine".into(), "ml".into())]);
    }

    #[test]
    fn gauge_record_max_commutes() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("pspp_depth", "test", &[]);
        g.record_max(3);
        g.record_max(1);
        g.record_max(7);
        assert_eq!(reg.snapshot().gauge_value("pspp_depth", &[]), Some(7));
    }

    #[test]
    fn histogram_quantile_uses_upper_bound() {
        let mut h = HistogramData::default();
        h.observe_seconds(3e-6); // bucket 2: [2, 4) µs
        h.observe_seconds(3e-6);
        h.observe_seconds(100e-6); // bucket 7: [64, 128) µs
        assert_eq!(h.count, 3);
        assert_eq!(h.quantile(0.5), Some(4e-6));
        assert_eq!(h.quantile(1.0), Some(128e-6));
        assert!((h.sum_seconds() - 106e-6).abs() < 1e-12);
    }

    /// Bucket `i` is `[2^(i-1), 2^i)` µs — an observation on a power of
    /// two opens the next bucket — and a quantile reports its bucket's
    /// upper edge.
    #[test]
    fn histogram_buckets_are_closed_below_and_open_above() {
        let bucket_of = |seconds: f64| {
            let mut h = HistogramData::default();
            h.observe_seconds(seconds);
            let i = h.buckets.iter().position(|&n| n == 1).unwrap();
            assert_eq!(
                h.quantile(0.5),
                Some(HistogramData::bucket_upper_seconds(i))
            );
            i
        };
        assert_eq!(bucket_of(0.0), 0);
        assert_eq!(bucket_of(0.999e-6), 0);
        assert_eq!(bucket_of(1e-6), 1);
        assert_eq!(bucket_of(2e-6), 2);
        assert_eq!(bucket_of(3e-6), 2);
        assert_eq!(bucket_of(4e-6), 3);
        assert_eq!(bucket_of(1e6), HISTOGRAM_BUCKETS - 1);
        // So 3 µs reports 4 µs, and an empty histogram reports nothing.
        assert_eq!(HistogramData::bucket_upper_seconds(2), 4e-6);
        assert_eq!(HistogramData::default().quantile(0.5), None);
    }

    #[test]
    fn histogram_merge_is_exact() {
        let mut a = HistogramData::default();
        let (mut b, mut both) = (a.clone(), a.clone());
        a.observe_seconds(5e-6);
        b.observe_seconds(5e-6);
        b.observe_seconds(3e-2);
        for seconds in [5e-6, 5e-6, 3e-2] {
            both.observe_seconds(seconds);
        }
        a.merge(&b);
        assert_eq!(a, both);
        assert_eq!(a.count, 3);
    }

    #[test]
    fn snapshot_order_is_independent_of_registration_order() {
        let reg = MetricsRegistry::new();
        reg.counter("pspp_b_total", "b", &[]).inc();
        reg.counter("pspp_a_total", "a", &[]).inc();
        let names: Vec<_> = reg
            .snapshot()
            .entries
            .iter()
            .map(|e| e.name.clone())
            .collect();
        assert_eq!(names, vec!["pspp_a_total", "pspp_b_total"]);
    }

    #[test]
    fn clones_share_storage() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("pspp_shared_total", "shared", &[]);
        let clone = reg.clone();
        c.inc();
        assert_eq!(clone.snapshot().counter_total("pspp_shared_total"), 1);
    }
}
