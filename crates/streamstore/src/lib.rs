//! A stream data-processing engine (Kafka/Saber-like substrate).
//!
//! Append-only topics of timestamped events (the paper's ICU device feeds
//! and CPT event streams, Fig. 2), with windowed operators in the style
//! the paper attributes to Saber \[36\]: tumbling and sliding window
//! aggregation.
//!
//! # Examples
//!
//! ```
//! use pspp_streamstore::{StreamStore, Event};
//! use pspp_common::row;
//!
//! let mut s = StreamStore::new("devices");
//! s.publish("hr", Event::new(0, row![80.0]));
//! s.publish("hr", Event::new(30, row![85.0]));
//! assert_eq!(s.read("hr", 0, 100).unwrap().len(), 2);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::collections::BTreeMap;

use pspp_common::{EngineId, Error, Result, Row};

/// A timestamped event carrying a row payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Event time.
    pub ts: i64,
    /// Payload.
    pub payload: Row,
}

impl Event {
    /// Creates an event.
    pub fn new(ts: i64, payload: Row) -> Self {
        Event { ts, payload }
    }
}

/// Window shape for stream aggregation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowSpec {
    /// Non-overlapping windows of `width`.
    Tumbling {
        /// Window width in time units.
        width: i64,
    },
    /// Overlapping windows of `width` advancing by `slide`.
    Sliding {
        /// Window width in time units.
        width: i64,
        /// Advance per window.
        slide: i64,
    },
}

impl WindowSpec {
    fn validate(self) -> Result<()> {
        let ok = match self {
            WindowSpec::Tumbling { width } => width > 0,
            WindowSpec::Sliding { width, slide } => width > 0 && slide > 0,
        };
        if ok {
            Ok(())
        } else {
            Err(Error::Invalid("window parameters must be positive".into()))
        }
    }

    fn windows(self, lo: i64, hi: i64) -> Vec<(i64, i64)> {
        let (width, slide) = match self {
            WindowSpec::Tumbling { width } => (width, width),
            WindowSpec::Sliding { width, slide } => (width, slide),
        };
        let mut out = Vec::new();
        let mut start = lo;
        while start < hi {
            out.push((start, start + width));
            start += slide;
        }
        out
    }
}

/// The stream engine.
#[derive(Debug, Clone)]
pub struct StreamStore {
    id: EngineId,
    topics: BTreeMap<String, Vec<Event>>,
}

impl StreamStore {
    /// An empty store.
    pub fn new(id: impl Into<EngineId>) -> Self {
        StreamStore {
            id: id.into(),
            topics: BTreeMap::new(),
        }
    }

    /// The engine id.
    pub fn id(&self) -> &EngineId {
        &self.id
    }

    /// Appends an event to a topic (events may arrive slightly out of
    /// order; the log keeps arrival order, readers see time order).
    pub fn publish(&mut self, topic: impl Into<String>, event: Event) {
        self.topics.entry(topic.into()).or_default().push(event);
    }

    /// Topic names.
    pub fn topics(&self) -> Vec<&str> {
        self.topics.keys().map(String::as_str).collect()
    }

    /// Number of events in a topic (0 if absent).
    pub fn len(&self, topic: &str) -> usize {
        self.topics.get(topic).map_or(0, Vec::len)
    }

    /// Whether the store holds no topics.
    pub fn is_empty(&self) -> bool {
        self.topics.is_empty()
    }

    /// Events with `lo <= ts < hi`, in time order.
    ///
    /// # Errors
    ///
    /// Returns [`Error::TableNotFound`] for unknown topics.
    pub fn read(&self, topic: &str, lo: i64, hi: i64) -> Result<Vec<&Event>> {
        let log = self
            .topics
            .get(topic)
            .ok_or_else(|| Error::TableNotFound(format!("topic {topic}")))?;
        let mut out: Vec<&Event> = log.iter().filter(|e| e.ts >= lo && e.ts < hi).collect();
        out.sort_by_key(|e| e.ts);
        Ok(out)
    }

    /// Windowed aggregation of a numeric payload column: returns
    /// `(window_start, aggregate_of_column)` for non-empty windows.
    ///
    /// # Errors
    ///
    /// Returns [`Error::TableNotFound`], [`Error::Invalid`] for bad
    /// windows, or [`Error::SchemaMismatch`] for non-numeric payloads.
    pub fn window_aggregate(
        &self,
        topic: &str,
        lo: i64,
        hi: i64,
        spec: WindowSpec,
        column: usize,
        agg: fn(&[f64]) -> f64,
    ) -> Result<Vec<(i64, f64)>> {
        spec.validate()?;
        let events = self.read(topic, lo, hi)?;
        let mut out = Vec::new();
        for (w_lo, w_hi) in spec.windows(lo, hi) {
            let vals: Vec<f64> = events
                .iter()
                .filter(|e| e.ts >= w_lo && e.ts < w_hi)
                .map(|e| {
                    e.payload
                        .get(column)
                        .and_then(pspp_common::Value::as_f64)
                        .ok_or_else(|| {
                            Error::SchemaMismatch(format!("column {column} is not numeric"))
                        })
                })
                .collect::<Result<_>>()?;
            if !vals.is_empty() {
                out.push((w_lo, agg(&vals)));
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pspp_common::row;

    fn store() -> StreamStore {
        let mut s = StreamStore::new("s");
        for i in 0..10 {
            s.publish("hr", Event::new(i * 10, row![(60 + i) as f64]));
        }
        s
    }

    fn mean(v: &[f64]) -> f64 {
        v.iter().sum::<f64>() / v.len() as f64
    }

    #[test]
    fn read_is_time_ordered_even_with_late_events() {
        let mut s = store();
        s.publish("hr", Event::new(5, row![100.0]));
        let evs = s.read("hr", 0, 25).unwrap();
        let times: Vec<i64> = evs.iter().map(|e| e.ts).collect();
        assert_eq!(times, vec![0, 5, 10, 20]);
        assert!(s.read("nope", 0, 1).is_err());
    }

    #[test]
    fn tumbling_windows() {
        let s = store();
        let w = s
            .window_aggregate("hr", 0, 100, WindowSpec::Tumbling { width: 50 }, 0, mean)
            .unwrap();
        assert_eq!(w.len(), 2);
        assert_eq!(w[0], (0, 62.0));
        assert_eq!(w[1], (50, 67.0));
    }

    #[test]
    fn sliding_windows_overlap() {
        let s = store();
        let w = s
            .window_aggregate(
                "hr",
                0,
                100,
                WindowSpec::Sliding {
                    width: 40,
                    slide: 20,
                },
                0,
                mean,
            )
            .unwrap();
        assert_eq!(w.len(), 5);
        // Window starting at 20 covers ts 20..60 -> values 62,63,64,65.
        assert_eq!(w[1], (20, 63.5));
    }

    #[test]
    fn invalid_windows_rejected() {
        let s = store();
        assert!(s
            .window_aggregate("hr", 0, 10, WindowSpec::Tumbling { width: 0 }, 0, mean)
            .is_err());
        assert!(s
            .window_aggregate(
                "hr",
                0,
                10,
                WindowSpec::Sliding { width: 5, slide: 0 },
                0,
                mean
            )
            .is_err());
    }

    #[test]
    fn non_numeric_column_rejected() {
        let mut s = StreamStore::new("s");
        s.publish("t", Event::new(0, row!["text"]));
        assert!(s
            .window_aggregate("t", 0, 10, WindowSpec::Tumbling { width: 5 }, 0, mean)
            .is_err());
    }
}
