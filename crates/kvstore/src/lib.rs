//! A key/value data-processing engine (Accumulo/Redis-like substrate).
//!
//! One of the paper's heterogeneous data stores (Fig. 1 pairs an RDBMS
//! with a key/value store and a timeseries store). Supports versioned
//! puts, point gets, prefix scans, and TTL expiry against a logical
//! clock.
//!
//! # Examples
//!
//! ```
//! use pspp_kvstore::KvStore;
//! use pspp_common::Value;
//!
//! let mut kv = KvStore::new("profiles");
//! kv.put("user:1", Value::from("ada"));
//! assert_eq!(kv.get("user:1"), Some(&Value::Str("ada".into())));
//! assert_eq!(kv.get("user:2"), None);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::collections::BTreeMap;

use pspp_common::{EngineId, Row, Value};

/// Maximum versions retained per key.
const MAX_VERSIONS: usize = 4;

/// One stored version of a value.
#[derive(Debug, Clone, PartialEq)]
struct Versioned {
    value: Value,
    /// Expiry tick (None = immortal).
    expires_at: Option<u64>,
}

/// The key/value engine.
#[derive(Debug, Clone)]
pub struct KvStore {
    id: EngineId,
    data: BTreeMap<String, Vec<Versioned>>,
    clock: u64,
}

impl KvStore {
    /// An empty store.
    pub fn new(id: impl Into<EngineId>) -> Self {
        KvStore {
            id: id.into(),
            data: BTreeMap::new(),
            clock: 0,
        }
    }

    /// The engine id.
    pub fn id(&self) -> &EngineId {
        &self.id
    }

    /// Current logical time.
    pub fn now(&self) -> u64 {
        self.clock
    }

    /// Advances the logical clock (expiring TTL'd entries lazily on read).
    pub fn tick(&mut self, by: u64) {
        self.clock += by;
    }

    /// Writes a new version of `key`.
    pub fn put(&mut self, key: impl Into<String>, value: Value) {
        self.put_with_ttl(key, value, None);
    }

    /// Writes a version that expires `ttl` ticks from now.
    pub fn put_with_ttl(&mut self, key: impl Into<String>, value: Value, ttl: Option<u64>) {
        let versions = self.data.entry(key.into()).or_default();
        versions.push(Versioned {
            value,
            expires_at: ttl.map(|t| self.clock + t),
        });
        if versions.len() > MAX_VERSIONS {
            versions.remove(0);
        }
    }

    /// The live value for `key`, if present and unexpired.
    pub fn get(&self, key: &str) -> Option<&Value> {
        let v = self.data.get(key)?.last()?;
        match v.expires_at {
            Some(t) if t <= self.clock => None,
            _ => Some(&v.value),
        }
    }

    /// Number of live keys (expired keys included until compaction).
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// All live `(key, value)` pairs with keys starting with `prefix`.
    pub fn scan_prefix(&self, prefix: &str) -> Vec<(&str, &Value)> {
        self.data
            .range(prefix.to_owned()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .filter_map(|(k, vs)| {
                let v = vs.last()?;
                match v.expires_at {
                    Some(t) if t <= self.clock => None,
                    _ => Some((k.as_str(), &v.value)),
                }
            })
            .collect()
    }

    /// Drops expired versions and empty keys; returns reclaimed entries.
    pub fn compact(&mut self) -> usize {
        let clock = self.clock;
        let mut reclaimed = 0;
        self.data.retain(|_, vs| {
            let before = vs.len();
            vs.retain(|v| v.expires_at.is_none_or(|t| t > clock));
            reclaimed += before - vs.len();
            !vs.is_empty()
        });
        reclaimed
    }

    /// Exports live pairs as two-column rows (`key: Str`, `value`), the
    /// relational projection of the KV model used by the data migrator.
    pub fn to_rows(&self) -> Vec<Row> {
        self.data
            .iter()
            .filter_map(|(k, vs)| {
                let v = vs.last()?;
                match v.expires_at {
                    Some(t) if t <= self.clock => None,
                    _ => Some(Row::from(vec![Value::from(k.clone()), v.value.clone()])),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get() {
        let mut kv = KvStore::new("kv");
        kv.put("a", Value::Int(1));
        assert_eq!(kv.get("a"), Some(&Value::Int(1)));
        assert_eq!(kv.get("b"), None);
    }

    #[test]
    fn versions_overwrite() {
        let mut kv = KvStore::new("kv");
        kv.put("k", Value::Int(1));
        kv.tick(10);
        kv.put("k", Value::Int(2));
        assert_eq!(kv.get("k"), Some(&Value::Int(2)));
    }

    #[test]
    fn version_cap_enforced() {
        let mut kv = KvStore::new("kv");
        for i in 0..10 {
            kv.put_with_ttl("k", Value::Int(i), Some(1));
        }
        // Only the last MAX_VERSIONS writes were still held to expire.
        kv.tick(1);
        assert_eq!(kv.compact(), MAX_VERSIONS);
    }

    #[test]
    fn ttl_expiry_and_compaction() {
        let mut kv = KvStore::new("kv");
        kv.put_with_ttl("session", Value::Bool(true), Some(5));
        kv.put("forever", Value::Bool(true));
        assert!(kv.get("session").is_some());
        kv.tick(5);
        assert!(kv.get("session").is_none());
        assert!(kv.get("forever").is_some());
        let reclaimed = kv.compact();
        assert_eq!(reclaimed, 1);
        assert_eq!(kv.len(), 1);
    }

    #[test]
    fn prefix_scans() {
        let mut kv = KvStore::new("kv");
        for (k, v) in [("user:1", 1i64), ("user:2", 2), ("item:9", 9)] {
            kv.put(k, Value::Int(v));
        }
        let users = kv.scan_prefix("user:");
        assert_eq!(users.len(), 2);
        assert_eq!(users[0].0, "user:1");
    }

    #[test]
    fn expired_keys_hidden_from_scans() {
        let mut kv = KvStore::new("kv");
        kv.put_with_ttl("user:1", Value::Int(1), Some(1));
        kv.put("user:2", Value::Int(2));
        kv.tick(2);
        assert_eq!(kv.scan_prefix("user:").len(), 1);
        assert_eq!(kv.to_rows().len(), 1);
    }

    #[test]
    fn rows_export_shape() {
        let mut kv = KvStore::new("kv");
        kv.put("a", Value::Int(1));
        let rows = kv.to_rows();
        assert_eq!(rows[0].len(), 2);
        assert_eq!(rows[0][0], Value::from("a"));
    }
}
