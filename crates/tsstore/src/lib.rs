//! A timeseries data-processing engine (TimescaleDB-like substrate).
//!
//! Holds named series of `(timestamp, f64)` points (the paper's ICU
//! bedside-device feeds and clickstreams, Fig. 1–2), with native
//! operators: append, range query and tumbling-window aggregation.
//!
//! # Examples
//!
//! ```
//! use pspp_tsstore::{TimeseriesStore, WindowAgg};
//!
//! let mut ts = TimeseriesStore::new("vitals");
//! ts.append("hr:p1", 0, 80.0);
//! ts.append("hr:p1", 60, 82.0);
//! ts.append("hr:p1", 120, 95.0);
//! let w = ts.window_aggregate("hr:p1", 0, 180, 120, WindowAgg::Mean).unwrap();
//! assert_eq!(w.len(), 2);
//! assert_eq!(w[0].1, 81.0);
//! ```

#![forbid(unsafe_code)]
// ROADMAP item 5: no panicking shortcut outside tests.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::collections::BTreeMap;

use pspp_common::{row, EngineId, Error, Result, Row};

/// A single observation.
pub type Point = (i64, f64);

/// Aggregation functions over a window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowAgg {
    /// Arithmetic mean.
    Mean,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Sum.
    Sum,
    /// Number of points.
    Count,
    /// Last value in the window.
    Last,
}

impl WindowAgg {
    fn apply(self, points: &[Point]) -> Option<f64> {
        let &(_, last) = points.last()?;
        let vals = points.iter().map(|p| p.1);
        Some(match self {
            WindowAgg::Mean => vals.clone().sum::<f64>() / points.len() as f64,
            WindowAgg::Min => vals.fold(f64::INFINITY, f64::min),
            WindowAgg::Max => vals.fold(f64::NEG_INFINITY, f64::max),
            WindowAgg::Sum => vals.sum(),
            WindowAgg::Count => points.len() as f64,
            WindowAgg::Last => last,
        })
    }
}

/// The timeseries engine.
#[derive(Debug, Clone)]
pub struct TimeseriesStore {
    id: EngineId,
    series: BTreeMap<String, Vec<Point>>,
}

impl TimeseriesStore {
    /// An empty store.
    pub fn new(id: impl Into<EngineId>) -> Self {
        TimeseriesStore {
            id: id.into(),
            series: BTreeMap::new(),
        }
    }

    /// The engine id.
    pub fn id(&self) -> &EngineId {
        &self.id
    }

    /// Appends one observation, keeping the series time-ordered (out of
    /// order points are inserted at the right position).
    pub fn append(&mut self, series: impl Into<String>, ts: i64, value: f64) {
        let s = self.series.entry(series.into()).or_default();
        match s.last() {
            Some(&(last, _)) if last > ts => {
                let pos = s.partition_point(|&(t, _)| t <= ts);
                s.insert(pos, (ts, value));
            }
            _ => s.push((ts, value)),
        }
    }

    /// Number of points in a series (0 if absent).
    pub fn len(&self, series: &str) -> usize {
        self.series.get(series).map_or(0, Vec::len)
    }

    /// Whether the store holds no series.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// Points with `lo <= ts < hi`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::TableNotFound`] for unknown series.
    pub fn range(&self, series: &str, lo: i64, hi: i64) -> Result<&[Point]> {
        let s = self
            .series
            .get(series)
            .ok_or_else(|| Error::TableNotFound(format!("series {series}")))?;
        let start = s.partition_point(|&(t, _)| t < lo);
        let end = s.partition_point(|&(t, _)| t < hi);
        Ok(&s[start..end])
    }

    /// Tumbling-window aggregation over `[lo, hi)` with windows of
    /// `width` time units starting at `lo + j·width` (the last one cut
    /// at `hi`); returns `(window_start, aggregate)` for non-empty
    /// windows. Only those are visited: past an empty window the scan
    /// jumps straight to the next point's, so a sparse series over a wide
    /// range costs its points, not its windows.
    ///
    /// # Errors
    ///
    /// Returns [`Error::TableNotFound`] or [`Error::Invalid`] for a
    /// non-positive width.
    pub fn window_aggregate(
        &self,
        series: &str,
        lo: i64,
        hi: i64,
        width: i64,
        agg: WindowAgg,
    ) -> Result<Vec<(i64, f64)>> {
        if width <= 0 {
            return Err(Error::Invalid("window width must be positive".into()));
        }
        let points = self.range(series, lo, hi)?;
        let mut out = Vec::new();
        let step = width.unsigned_abs();
        let mut w_start = lo;
        let mut i = 0usize;
        while let Some(&(t, _)) = points.get(i) {
            let mut w_end = w_start.saturating_add(width).min(hi);
            if t >= w_end {
                // The grid window holding `t`: its start lies in `[lo, t]`.
                w_start = lo.saturating_add_unsigned(t.abs_diff(lo) / step * step);
                w_end = w_start.saturating_add(width).min(hi);
            }
            let begin = i;
            while i < points.len() && points[i].0 < w_end {
                i += 1;
            }
            if let Some(v) = agg.apply(&points[begin..i]) {
                out.push((w_start, v));
            }
            w_start = w_end;
        }
        Ok(out)
    }

    /// Exports a series as relational rows `(ts: Timestamp, value: Float)`
    /// — the CAST projection used by the data migrator.
    ///
    /// # Errors
    ///
    /// Returns [`Error::TableNotFound`] for unknown series.
    pub fn to_rows(&self, series: &str) -> Result<Vec<Row>> {
        let s = self
            .series
            .get(series)
            .ok_or_else(|| Error::TableNotFound(format!("series {series}")))?;
        Ok(s.iter()
            .map(|&(t, v)| row![pspp_common::Value::Timestamp(t), v])
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> TimeseriesStore {
        let mut ts = TimeseriesStore::new("ts");
        for i in 0..10 {
            ts.append("s", i * 10, i as f64);
        }
        ts
    }

    #[test]
    fn range_half_open() {
        let ts = store();
        let r = ts.range("s", 10, 40).unwrap();
        assert_eq!(r, &[(10, 1.0), (20, 2.0), (30, 3.0)]);
        assert!(ts.range("nope", 0, 1).is_err());
    }

    #[test]
    fn out_of_order_appends_are_sorted() {
        let mut ts = TimeseriesStore::new("ts");
        ts.append("s", 100, 1.0);
        ts.append("s", 50, 0.5);
        ts.append("s", 75, 0.75);
        let pts: Vec<i64> = ts.range("s", 0, 200).unwrap().iter().map(|p| p.0).collect();
        assert_eq!(pts, vec![50, 75, 100]);
    }

    #[test]
    fn window_aggregates() {
        let ts = store();
        let means = ts
            .window_aggregate("s", 0, 100, 50, WindowAgg::Mean)
            .unwrap();
        assert_eq!(means, vec![(0, 2.0), (50, 7.0)]);
        let counts = ts
            .window_aggregate("s", 0, 100, 30, WindowAgg::Count)
            .unwrap();
        assert_eq!(counts.iter().map(|w| w.1 as i64).sum::<i64>(), 10);
        let max = ts
            .window_aggregate("s", 0, 100, 100, WindowAgg::Max)
            .unwrap();
        assert_eq!(max, vec![(0, 9.0)]);
        assert!(ts
            .window_aggregate("s", 0, 100, 0, WindowAgg::Mean)
            .is_err());
    }

    #[test]
    fn empty_windows_skipped() {
        let mut ts = TimeseriesStore::new("ts");
        ts.append("s", 0, 1.0);
        ts.append("s", 95, 2.0);
        let w = ts
            .window_aggregate("s", 0, 100, 10, WindowAgg::Sum)
            .unwrap();
        assert_eq!(w.len(), 2);
        assert_eq!(w[1].0, 90);
    }

    /// Every window of the `lo + j·width` grid in turn, empty ones too,
    /// each looked up in the sorted `points` on its own: what
    /// `window_aggregate` computed before it learned to jump.
    fn every_window(
        points: &[Point],
        lo: i64,
        hi: i64,
        width: i64,
        agg: WindowAgg,
    ) -> Vec<(i64, f64)> {
        let mut out = Vec::new();
        let mut w_start = lo;
        while w_start < hi {
            let w_end = w_start.saturating_add(width).min(hi);
            let begin = points.partition_point(|&(t, _)| t < w_start);
            let end = points.partition_point(|&(t, _)| t < w_end);
            if let Some(v) = agg.apply(&points[begin..end]) {
                out.push((w_start, v));
            }
            w_start = w_end;
        }
        out
    }

    #[test]
    fn sparse_points_over_a_wide_range_match_every_window() {
        let mut rng = pspp_common::SplitMix64::new(41);
        let mut ts = TimeseriesStore::new("ts");
        let points: Vec<Point> = (0..300)
            .map(|_| (rng.next_index(2_000_000) as i64 - 1_000_000, rng.next_f64()))
            .collect();
        // Clumps in one window, on a window's first and last unit.
        let clumps = [(0, 1.0), (1, 2.0), (99, 3.0), (100, 4.0), (-1, 5.0)];
        for &(t, v) in points.iter().chain(&clumps) {
            ts.append("s", t, v);
        }
        let series = ts.range("s", i64::MIN, i64::MAX).unwrap().to_vec();
        for (lo, hi, width) in [
            (-1_000_000, 1_000_000, 100),
            (-999_937, 999_999, 7),
            (-1_000_050, 250_017, 1_000),
            (0, 100, 1),
            (5, 5, 10),
            (-3, 1_000_000, 999_999),
        ] {
            for agg in [
                WindowAgg::Count,
                WindowAgg::Mean,
                WindowAgg::Last,
                WindowAgg::Min,
            ] {
                let got = ts.window_aggregate("s", lo, hi, width, agg).unwrap();
                assert_eq!(
                    got,
                    every_window(&series, lo, hi, width, agg),
                    "[{lo}, {hi}) width {width} {agg:?}"
                );
            }
        }
    }

    #[test]
    fn window_ends_saturate_at_the_top_of_the_timeline() {
        let mut ts = TimeseriesStore::new("ts");
        for (t, v) in [(i64::MIN, 1.0), (-1, 2.0), (0, 3.0), (i64::MAX - 1, 4.0)] {
            ts.append("s", t, v);
        }
        let counts = ts
            .window_aggregate("s", i64::MIN, i64::MAX, i64::MAX, WindowAgg::Count)
            .unwrap();
        assert_eq!(
            counts,
            vec![(i64::MIN, 1.0), (-1, 2.0), (i64::MAX - 1, 1.0)]
        );
        let near_top = ts
            .window_aggregate("s", i64::MAX - 250, i64::MAX, 100, WindowAgg::Last)
            .unwrap();
        assert_eq!(near_top, vec![(i64::MAX - 50, 4.0)]);
    }

    #[test]
    fn rows_export() {
        let ts = store();
        let rows = ts.to_rows("s").unwrap();
        assert_eq!(rows.len(), 10);
        assert_eq!(rows[3][0], pspp_common::Value::Timestamp(30));
    }
}
