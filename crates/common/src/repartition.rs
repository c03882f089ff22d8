//! Materialized repartitions: persisted shuffle layouts that amortize
//! repeated `ShuffleHash` exchanges to zero.
//!
//! A mismatched-key join re-routes the same probe rows on every
//! execution. The executor's shuffle barrier already computes the
//! per-shard bucket assignment; this module lets it *keep* that
//! assignment as a secondary partitioned copy keyed by
//! `(table, key, width, plan signature)`. The next plan with the same
//! join key consults the store ([`MaterializedRepartitions::contains`])
//! and keeps the shuffle edge but serves it from the copy — zero rows
//! routed, zero bytes billed. Copies are invalidated wholesale by the
//! registry epoch: any reshard, rebalance or DDL bumps the epoch, and
//! every stored layout is dropped as stale when it is next consulted or
//! looked up.
//!
//! Entries store *index lists* (bucket -> input row positions), not
//! row clones: the serving path replays the stored routing against the
//! live gathered input, so served and routed executions are
//! byte-identical by construction.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::TableRef;

/// Identity of one materialized shuffle layout: which subtree's
/// output was routed, on which key, to how many shards. `signature`
/// is a stable digest of the operator subtree feeding the shuffle
/// (scan + pushed-down filters/projections), so a copy of a filtered
/// scan never serves the unfiltered one.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CopyKey {
    /// The stored table at the leaf of the shuffled subtree.
    pub table: TableRef,
    /// The shuffle (join) key column.
    pub column: String,
    /// Shard fan-out of the shuffle.
    pub width: u32,
    /// Stable digest of the operator subtree feeding the shuffle.
    pub signature: u64,
}

/// One persisted layout: the bucket assignment of the shuffled
/// subtree's output at the epoch it was routed.
#[derive(Debug, Clone)]
struct CopyEntry {
    /// `buckets[shard]` = input-row positions routed there, in input
    /// order (exactly what `Distribution::route_indices` produced).
    buckets: Vec<Vec<usize>>,
    rows: usize,
    bytes: u64,
    epoch: u64,
}

#[derive(Debug, Default)]
struct Inner {
    copies: HashMap<CopyKey, CopyEntry>,
    /// Cumulative simulated seconds spent shuffling each key since
    /// the last epoch change — the evidence `repartition_pays` weighs
    /// against the one-time copy cost.
    pending_seconds: HashMap<CopyKey, f64>,
    pending_epoch: u64,
    hits: u64,
    stores: u64,
    invalidations: u64,
}

/// Counters describing the store's lifetime behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepartitionStats {
    /// Shuffle edges served from a stored layout.
    pub hits: u64,
    /// Layouts persisted.
    pub stores: u64,
    /// Stale layouts dropped on epoch change.
    pub invalidations: u64,
    /// Live layouts.
    pub len: usize,
}

/// Shared store of materialized shuffle layouts, epoch-validated
/// against the registry it mirrors. Cloning shares state.
#[derive(Debug, Clone)]
pub struct MaterializedRepartitions {
    /// The registry's epoch counter — shared, not copied, so any
    /// registry mutation invalidates every stored layout.
    epoch: Arc<AtomicU64>,
    inner: Arc<Mutex<Inner>>,
}

impl MaterializedRepartitions {
    /// A store validating entries against `epoch` (the owning
    /// registry's live epoch counter).
    pub fn new(epoch: Arc<AtomicU64>) -> Self {
        MaterializedRepartitions {
            epoch,
            inner: Arc::new(Mutex::new(Inner::default())),
        }
    }

    fn current_epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// The store's maps. A thread that panicked holding the lock left
    /// them as its last completed insert or removal did — every update
    /// is one map operation or one counter bump — so the guard is taken
    /// back, not the panic passed on.
    fn inner(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Whether a live (current-epoch) layout exists for `key` — the
    /// planner's consultation; does not count as a hit. A stale layout
    /// is dropped here (counting an invalidation): the executor looks up
    /// only the edges a plan marks served.
    pub fn contains(&self, key: &CopyKey) -> bool {
        let epoch = self.current_epoch();
        let mut inner = self.inner();
        match inner.copies.get(key) {
            Some(e) if e.epoch == epoch => true,
            Some(_) => {
                inner.copies.remove(key);
                inner.invalidations += 1;
                false
            }
            None => false,
        }
    }

    /// The stored bucket assignment for `key` when live, dropping it
    /// (and counting an invalidation) when stale. `rows` must match
    /// the stored input cardinality — a mismatch means the underlying
    /// data changed without an epoch bump, and the entry is dropped
    /// rather than served wrong.
    pub fn lookup(&self, key: &CopyKey, rows: usize) -> Option<Vec<Vec<usize>>> {
        let epoch = self.current_epoch();
        let mut inner = self.inner();
        match inner.copies.get(key) {
            Some(e) if e.epoch == epoch && e.rows == rows => {
                let buckets = e.buckets.clone();
                inner.hits += 1;
                Some(buckets)
            }
            Some(_) => {
                inner.copies.remove(key);
                inner.invalidations += 1;
                None
            }
            None => None,
        }
    }

    /// Records `seconds` of shuffle work on `key` and returns the
    /// cumulative total this epoch — the caller feeds it to the cost
    /// rule deciding whether persisting the layout now pays.
    pub fn observe(&self, key: &CopyKey, seconds: f64) -> f64 {
        let epoch = self.current_epoch();
        let mut inner = self.inner();
        if inner.pending_epoch != epoch {
            inner.pending_epoch = epoch;
            inner.pending_seconds.clear();
        }
        let total = inner.pending_seconds.entry(key.clone()).or_insert(0.0);
        *total += seconds;
        *total
    }

    /// Persists a routed layout at the current epoch.
    pub fn store(&self, key: CopyKey, buckets: Vec<Vec<usize>>, bytes: u64) {
        let epoch = self.current_epoch();
        let rows = buckets.iter().map(Vec::len).sum();
        let mut inner = self.inner();
        inner.copies.insert(
            key,
            CopyEntry {
                buckets,
                rows,
                bytes,
                epoch,
            },
        );
        inner.stores += 1;
    }

    /// Total bytes held by live layouts.
    pub fn bytes(&self) -> u64 {
        let epoch = self.current_epoch();
        let inner = self.inner();
        inner
            .copies
            .values()
            .filter(|e| e.epoch == epoch)
            .map(|e| e.bytes)
            .sum()
    }

    /// Lifetime counters plus the live entry count.
    pub fn stats(&self) -> RepartitionStats {
        let epoch = self.current_epoch();
        let inner = self.inner();
        RepartitionStats {
            hits: inner.hits,
            stores: inner.stores,
            invalidations: inner.invalidations,
            len: inner.copies.values().filter(|e| e.epoch == epoch).count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(sig: u64) -> CopyKey {
        CopyKey {
            table: TableRef::new("db1", "t"),
            column: "k".into(),
            width: 4,
            signature: sig,
        }
    }

    #[test]
    fn store_then_lookup_round_trips() {
        let epoch = Arc::new(AtomicU64::new(3));
        let store = MaterializedRepartitions::new(Arc::clone(&epoch));
        assert!(!store.contains(&key(1)));
        store.store(key(1), vec![vec![0, 2], vec![1]], 24);
        assert!(store.contains(&key(1)));
        assert_eq!(store.lookup(&key(1), 3), Some(vec![vec![0, 2], vec![1]]));
        assert_eq!(store.bytes(), 24);
        let stats = store.stats();
        assert_eq!((stats.hits, stats.stores, stats.len), (1, 1, 1));
    }

    #[test]
    fn epoch_bump_invalidates_on_next_lookup() {
        let epoch = Arc::new(AtomicU64::new(0));
        let store = MaterializedRepartitions::new(Arc::clone(&epoch));
        store.store(key(1), vec![vec![0]], 8);
        epoch.fetch_add(1, Ordering::SeqCst);
        assert!(!store.contains(&key(1)));
        assert_eq!(store.lookup(&key(1), 1), None);
        assert_eq!(store.stats().invalidations, 1);
        assert_eq!(store.stats().len, 0);
    }

    #[test]
    fn cardinality_mismatch_drops_the_entry() {
        let store = MaterializedRepartitions::new(Arc::new(AtomicU64::new(0)));
        store.store(key(1), vec![vec![0, 1]], 16);
        assert_eq!(store.lookup(&key(1), 99), None);
        assert_eq!(store.stats().invalidations, 1);
    }

    #[test]
    fn observe_accumulates_until_the_epoch_moves() {
        let epoch = Arc::new(AtomicU64::new(0));
        let store = MaterializedRepartitions::new(Arc::clone(&epoch));
        assert_eq!(store.observe(&key(7), 0.5), 0.5);
        assert_eq!(store.observe(&key(7), 0.25), 0.75);
        epoch.fetch_add(1, Ordering::SeqCst);
        assert_eq!(store.observe(&key(7), 0.1), 0.1, "epoch change resets");
    }
}
