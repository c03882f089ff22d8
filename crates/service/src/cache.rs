//! The service caches: plans and results memoized under epoch-guarded
//! keys.
//!
//! [`PlanCache`] memoizes compiled + optimized programs by query text,
//! so repeat queries skip the frontend and the optimizer. The key
//! includes the optimization level: changing the level (the Fig. 6
//! ablation knob, exposed per-service by
//! [`QueryService::set_opt_level`](crate::QueryService::set_opt_level))
//! invalidates every plan cached at the old level simply by never
//! matching it again. Eviction is least-recently-used under a fixed
//! capacity.
//!
//! [`ResultCache`] goes one step further for read-only repeats: it
//! memoizes whole execution reports keyed by `(plan digest,
//! engine-state epoch)`. The epoch
//! ([`ShardedRegistry::epoch`](pspp_runtime::ShardedRegistry::epoch))
//! is bumped by every engine mutation (`reshard`, registration,
//! partition/fleet changes), so a stale hit is structurally impossible:
//! entries populated under an older engine state simply never match
//! again, and the cache's internal epoch advance garbage-collects (and counts)
//! them as invalidations. Both caches key by epoch for the same reason
//! — correctness by key construction, not by scanning.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use pspp_common::partition::{fnv1a, FNV_OFFSET};
use pspp_common::Result;
use pspp_core::{Polystore, RunReport};
use pspp_ir::Program;
use pspp_optimizer::{OptLevel, PlacementPlan, RewriteReport};
use pspp_telemetry::{Counter, Gauge, MetricsRegistry};

use crate::service::Query;

/// Simulated planning-cost model (§IV-A/§IV-B: the frontend and
/// optimizer are middleware work the plan cache exists to avoid).
/// Charged once per cache miss: a fixed parse/setup cost, a per-byte
/// lexing cost and a per-IR-node rewrite/placement cost.
const PLAN_BASE_SECONDS: f64 = 200e-6;
const PLAN_PER_BYTE_SECONDS: f64 = 1.5e-6;
const PLAN_PER_NODE_SECONDS: f64 = 80e-6;

/// Which frontend produced the cached program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Dialect {
    /// Mini-SQL text.
    Sql,
    /// Natural-language question.
    Nlq,
    /// Heterogeneous multi-language program (keyed by its spec).
    Hetero,
}

impl std::fmt::Display for Dialect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Dialect::Sql => "sql",
            Dialect::Nlq => "nlq",
            Dialect::Hetero => "hetero",
        })
    }
}

/// Cache key: (dialect, normalized query text, optimization level,
/// engine-state epoch).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// The frontend dialect.
    pub dialect: Dialect,
    /// The query text (hetero programs use their spec rendering).
    pub text: String,
    /// The optimization level the plan was produced at.
    pub opt_level: OptLevel,
    /// The engine-state epoch the plan was produced under. A reshard
    /// (or any other engine mutation) bumps the epoch, so plans derived
    /// from the old layout stop matching — the same
    /// invalidation-by-key scheme the result cache uses.
    pub epoch: u64,
}

impl PlanKey {
    /// Stable FNV-1a digest of this key's canonical bytes, *excluding*
    /// the epoch — the plan-identity half of a [`ResultKey`] (the
    /// epoch rides separately so invalidation can reason about it).
    pub fn digest(&self) -> u64 {
        let mut h = fnv1a(self.dialect.to_string().as_bytes(), FNV_OFFSET);
        h = fnv1a(format!("{:?}", self.opt_level).as_bytes(), h);
        fnv1a(self.text.as_bytes(), h)
    }
}

/// A compiled + optimized program with its planning artifacts.
#[derive(Debug, Clone)]
pub struct CachedPlan {
    /// The optimized IR program, ready to execute.
    pub program: Program,
    /// L1 rewrites applied while optimizing.
    pub rewrites: RewriteReport,
    /// L2+ placement summary, when produced.
    pub placement: Option<PlacementPlan>,
    /// Simulated seconds the frontend + optimizer cost (charged to a
    /// query only on a cache miss).
    pub plan_seconds: f64,
}

impl CachedPlan {
    /// Plans `query` on `system` for `key` — compile, optimize at the
    /// key's level, bill the planning-cost model — the one plan build
    /// behind every cache and memo miss in the service tier.
    ///
    /// # Errors
    ///
    /// Propagates compilation and optimization errors.
    pub fn build(system: &Polystore, query: &Query, key: &PlanKey) -> Result<CachedPlan> {
        let mut program = match query {
            Query::Sql(text) => system.compile_sql(text)?,
            Query::Nlq(text) => system.compile_nlq(text)?,
            Query::Hetero(hetero) => system.compile(hetero)?,
        };
        let (rewrites, placement) = system.optimize_at(&mut program, key.opt_level)?;
        let plan_seconds = PLAN_BASE_SECONDS
            + PLAN_PER_BYTE_SECONDS * key.text.len() as f64
            + PLAN_PER_NODE_SECONDS * program.nodes().len() as f64;
        Ok(CachedPlan {
            program,
            rewrites,
            placement,
            plan_seconds,
        })
    }
}

/// Counters describing cache effectiveness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a usable plan.
    pub hits: u64,
    /// Lookups that required planning.
    pub misses: u64,
    /// Plans inserted.
    pub insertions: u64,
    /// Plans evicted by the LRU policy.
    pub evictions: u64,
    /// Plans currently resident.
    pub len: usize,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]`; zero when no lookups happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Registry mirrors of the cache counters, updated alongside
/// [`Inner`]'s own fields so scrapes and [`CacheStats`] agree.
#[derive(Debug, Clone)]
struct CacheMetrics {
    hits: Counter,
    misses: Counter,
    insertions: Counter,
    evictions: Counter,
}

impl CacheMetrics {
    fn new(registry: &MetricsRegistry) -> Self {
        let counter = |outcome: &str| {
            registry.counter(
                "pspp_plan_cache_lookups_total",
                "Plan-cache lookups by outcome.",
                &[("outcome", outcome)],
            )
        };
        CacheMetrics {
            hits: counter("hit"),
            misses: counter("miss"),
            insertions: registry.counter(
                "pspp_plan_cache_insertions_total",
                "Plans inserted into the cache.",
                &[],
            ),
            evictions: registry.counter(
                "pspp_plan_cache_evictions_total",
                "Plans evicted by the LRU policy.",
                &[],
            ),
        }
    }
}

#[derive(Debug)]
struct Entry {
    plan: Arc<CachedPlan>,
    last_used: u64,
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<PlanKey, Entry>,
    tick: u64,
    hits: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
}

/// A thread-safe LRU plan cache.
#[derive(Debug)]
pub struct PlanCache {
    inner: Mutex<Inner>,
    capacity: usize,
    metrics: Option<CacheMetrics>,
}

impl PlanCache {
    /// A cache holding at most `capacity` plans (minimum 1).
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            inner: Mutex::new(Inner::default()),
            capacity: capacity.max(1),
            metrics: None,
        }
    }

    /// Mirrors hit/miss/insertion/eviction counters into `registry`
    /// (series `pspp_plan_cache_*`).
    #[must_use]
    pub fn with_metrics(mut self, registry: &MetricsRegistry) -> Self {
        self.metrics = Some(CacheMetrics::new(registry));
        self
    }

    fn guard(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Looks up a plan, bumping its recency on a hit.
    pub fn get(&self, key: &PlanKey) -> Option<Arc<CachedPlan>> {
        let mut inner = self.guard();
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(key) {
            Some(entry) => {
                entry.last_used = tick;
                let plan = entry.plan.clone();
                inner.hits += 1;
                if let Some(m) = &self.metrics {
                    m.hits.inc();
                }
                Some(plan)
            }
            None => {
                inner.misses += 1;
                if let Some(m) = &self.metrics {
                    m.misses.inc();
                }
                None
            }
        }
    }

    /// Inserts (or replaces) a plan, evicting the least-recently-used
    /// entry when full.
    pub fn insert(&self, key: PlanKey, plan: Arc<CachedPlan>) {
        let mut inner = self.guard();
        inner.tick += 1;
        let tick = inner.tick;
        if !inner.map.contains_key(&key) && inner.map.len() >= self.capacity {
            if let Some(victim) = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                inner.map.remove(&victim);
                inner.evictions += 1;
                if let Some(m) = &self.metrics {
                    m.evictions.inc();
                }
            }
        }
        inner.insertions += 1;
        if let Some(m) = &self.metrics {
            m.insertions.inc();
        }
        inner.map.insert(
            key,
            Entry {
                plan,
                last_used: tick,
            },
        );
    }

    /// Drops every cached plan and resets the LRU bookkeeping (the
    /// recency tick restarts from zero so post-clear eviction order
    /// matches a fresh cache; the effectiveness counters are
    /// preserved). Leaving the tick running was a latent bug: entries
    /// inserted after a clear inherited a recency epoch that dwarfed
    /// any later tick comparison against restored state.
    pub fn clear(&self) {
        let mut inner = self.guard();
        inner.map.clear();
        inner.tick = 0;
    }

    /// Number of resident plans.
    pub fn len(&self) -> usize {
        self.guard().map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Snapshot of the effectiveness counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.guard();
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            insertions: inner.insertions,
            evictions: inner.evictions,
            len: inner.map.len(),
        }
    }
}

/// Result-cache key: which plan, under which engine state.
///
/// Invalidation is the key itself: every engine mutation bumps the
/// registry epoch, so entries recorded under the old epoch can never
/// be returned again — no scan, no flag, no race.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ResultKey {
    /// [`PlanKey::digest`] of the populating plan.
    pub plan_digest: u64,
    /// The engine-state epoch the result was computed under.
    pub epoch: u64,
}

/// A memoized execution: the full run report of the populating miss
/// plus the two numbers a hit needs to bill itself honestly.
#[derive(Debug, Clone)]
pub struct CachedResult {
    /// The run report as executed on the populating miss (outputs,
    /// traces, rewrites, placement, real ledger totals).
    pub report: RunReport,
    /// Order-sensitive FNV digest of the outputs — hits return the
    /// byte-identical digest the real execution produced.
    pub digest: u64,
    /// The populating execution's simulated makespan: what a miss
    /// would have cost, and the number hit-rate speedups compare
    /// against.
    pub exec_seconds: f64,
}

impl CachedResult {
    /// Estimated resident payload bytes of this memoized execution:
    /// the sum of its output datasets' payload bytes (rows × value
    /// widths; models count their parameters). Empty results still
    /// meter one byte so the budget sees every entry.
    pub fn estimated_bytes(&self) -> u64 {
        self.report
            .execution
            .outputs
            .iter()
            .map(pspp_runtime::Dataset::byte_size)
            .sum::<u64>()
            .max(1)
    }
}

/// Counters describing result-cache effectiveness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResultCacheStats {
    /// Lookups served from the cache (executor bypassed).
    pub hits: u64,
    /// Lookups that fell through to execution.
    pub misses: u64,
    /// Results inserted.
    pub insertions: u64,
    /// Results evicted by the LRU policy.
    pub evictions: u64,
    /// Stale-epoch entries garbage-collected after an engine mutation.
    pub invalidations: u64,
    /// Results currently resident.
    pub len: usize,
    /// Estimated payload bytes currently resident (what the byte
    /// budget meters).
    pub bytes: u64,
}

impl ResultCacheStats {
    /// Hit fraction in `[0, 1]`; zero when no lookups happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Folds another partition's counters into this one (per-tenant
    /// result-cache partitions merge into one service-wide row).
    pub fn absorb(&mut self, other: &ResultCacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.insertions += other.insertions;
        self.evictions += other.evictions;
        self.invalidations += other.invalidations;
        self.len += other.len;
        self.bytes += other.bytes;
    }
}

/// Registry mirrors of the result-cache counters.
#[derive(Debug, Clone)]
struct ResultCacheMetrics {
    hits: Counter,
    misses: Counter,
    invalidations: Counter,
    bytes: Gauge,
}

impl ResultCacheMetrics {
    fn new(registry: &MetricsRegistry) -> Self {
        let counter = |outcome: &str| {
            registry.counter(
                "pspp_result_cache_lookups_total",
                "Result-cache lookups by outcome.",
                &[("outcome", outcome)],
            )
        };
        ResultCacheMetrics {
            hits: counter("hit"),
            misses: counter("miss"),
            invalidations: registry.counter(
                "pspp_result_cache_invalidations_total",
                "Stale-epoch results garbage-collected after engine mutations.",
                &[],
            ),
            bytes: registry.gauge(
                "pspp_result_cache_bytes",
                "High-water estimated payload bytes resident in result caches.",
                &[],
            ),
        }
    }
}

#[derive(Debug, Default)]
struct ResultInner {
    map: HashMap<ResultKey, ResultEntry>,
    tick: u64,
    /// Highest epoch observed; entries below it are unreachable and
    /// get garbage-collected (counted as invalidations).
    epoch: u64,
    /// Estimated payload bytes across resident entries.
    bytes: u64,
    hits: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
    invalidations: u64,
}

#[derive(Debug)]
struct ResultEntry {
    result: Arc<CachedResult>,
    last_used: u64,
    /// [`CachedResult::estimated_bytes`] at insertion, so removal can
    /// return exactly what was metered.
    bytes: u64,
}

/// A thread-safe LRU result cache keyed by `(plan digest, epoch)` —
/// the [`PlanCache`] LRU, holding whole execution reports. Besides the
/// entry-count capacity it can carry a byte budget
/// ([`ResultCache::with_byte_budget`]): inserts evict
/// least-recently-used entries until the resident payload estimate
/// fits, so memoizing a few huge results cannot pin unbounded memory.
#[derive(Debug)]
pub struct ResultCache {
    inner: Mutex<ResultInner>,
    capacity: usize,
    budget_bytes: Option<u64>,
    metrics: Option<ResultCacheMetrics>,
}

impl ResultCache {
    /// A cache holding at most `capacity` results (minimum 1).
    pub fn new(capacity: usize) -> Self {
        ResultCache {
            inner: Mutex::new(ResultInner::default()),
            capacity: capacity.max(1),
            budget_bytes: None,
            metrics: None,
        }
    }

    /// Caps resident payload bytes (estimated as rows × value widths):
    /// an insert that would overflow the budget evicts
    /// least-recently-used entries first. A single over-budget entry
    /// still caches (the cache always admits the newest result) but
    /// evicts everything else.
    #[must_use]
    pub fn with_byte_budget(mut self, bytes: u64) -> Self {
        self.budget_bytes = Some(bytes.max(1));
        self
    }

    /// Mirrors hit/miss/invalidation counters into `registry` (series
    /// `pspp_result_cache_*`).
    #[must_use]
    pub fn with_metrics(mut self, registry: &MetricsRegistry) -> Self {
        self.metrics = Some(ResultCacheMetrics::new(registry));
        self
    }

    fn guard(&self) -> MutexGuard<'_, ResultInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Advances the cache to `epoch`, garbage-collecting every entry
    /// recorded under an older epoch. Stale entries are unreachable
    /// either way (the epoch is part of the key); this frees their
    /// memory and counts them as invalidations.
    fn advance_epoch(&self, inner: &mut ResultInner, epoch: u64) {
        if epoch <= inner.epoch {
            return;
        }
        inner.epoch = epoch;
        let before = inner.map.len();
        let mut freed = 0u64;
        inner.map.retain(|k, e| {
            if k.epoch >= epoch {
                true
            } else {
                freed += e.bytes;
                false
            }
        });
        inner.bytes -= freed;
        let dropped = (before - inner.map.len()) as u64;
        if dropped > 0 {
            inner.invalidations += dropped;
            if let Some(m) = &self.metrics {
                m.invalidations.add(dropped);
            }
        }
    }

    /// Removes the least-recently-used entry, returning whether one
    /// existed.
    fn evict_lru(inner: &mut ResultInner) -> bool {
        let Some(victim) = inner
            .map
            .iter()
            .min_by_key(|(_, e)| e.last_used)
            .map(|(k, _)| *k)
        else {
            return false;
        };
        if let Some(entry) = inner.map.remove(&victim) {
            inner.bytes -= entry.bytes;
        }
        inner.evictions += 1;
        true
    }

    /// Looks up a result, bumping its recency on a hit. The key's
    /// epoch also advances the cache's epoch watermark, invalidating
    /// older entries.
    pub fn get(&self, key: &ResultKey) -> Option<Arc<CachedResult>> {
        let mut inner = self.guard();
        self.advance_epoch(&mut inner, key.epoch);
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(key) {
            Some(entry) => {
                entry.last_used = tick;
                let result = entry.result.clone();
                inner.hits += 1;
                if let Some(m) = &self.metrics {
                    m.hits.inc();
                }
                Some(result)
            }
            None => {
                inner.misses += 1;
                if let Some(m) = &self.metrics {
                    m.misses.inc();
                }
                None
            }
        }
    }

    /// Inserts (or replaces) a result, evicting least-recently-used
    /// entries while over the entry capacity or the byte budget.
    pub fn insert(&self, key: ResultKey, result: Arc<CachedResult>) {
        let mut inner = self.guard();
        self.advance_epoch(&mut inner, key.epoch);
        if key.epoch < inner.epoch {
            // A straggler computed under an old engine state: never
            // cache it, it could only ever be a stale hit.
            return;
        }
        inner.tick += 1;
        let tick = inner.tick;
        if !inner.map.contains_key(&key) && inner.map.len() >= self.capacity {
            Self::evict_lru(&mut inner);
        }
        let bytes = result.estimated_bytes();
        if let Some(old) = inner.map.remove(&key) {
            inner.bytes -= old.bytes;
        }
        inner.insertions += 1;
        inner.bytes += bytes;
        inner.map.insert(
            key,
            ResultEntry {
                result,
                last_used: tick,
                bytes,
            },
        );
        if let Some(budget) = self.budget_bytes {
            // The fresh entry is the most recent, so it survives: the
            // loop stops once it is the only resident entry even if it
            // alone overflows the budget.
            while inner.bytes > budget && inner.map.len() > 1 {
                Self::evict_lru(&mut inner);
            }
        }
        if let Some(m) = &self.metrics {
            m.bytes.record_max(inner.bytes as i64);
        }
    }

    /// Drops every cached result and resets the LRU tick (counters and
    /// the epoch watermark survive, mirroring [`PlanCache::clear`]).
    pub fn clear(&self) {
        let mut inner = self.guard();
        inner.map.clear();
        inner.bytes = 0;
        inner.tick = 0;
    }

    /// Number of resident results.
    pub fn len(&self) -> usize {
        self.guard().map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Snapshot of the effectiveness counters.
    pub fn stats(&self) -> ResultCacheStats {
        let inner = self.guard();
        ResultCacheStats {
            hits: inner.hits,
            misses: inner.misses,
            insertions: inner.insertions,
            evictions: inner.evictions,
            invalidations: inner.invalidations,
            len: inner.map.len(),
            bytes: inner.bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(text: &str, level: OptLevel) -> PlanKey {
        PlanKey {
            dialect: Dialect::Sql,
            text: text.into(),
            opt_level: level,
            epoch: 0,
        }
    }

    fn plan() -> Arc<CachedPlan> {
        Arc::new(CachedPlan {
            program: Program::new(),
            rewrites: RewriteReport::default(),
            placement: None,
            plan_seconds: 1e-3,
        })
    }

    #[test]
    fn hit_and_miss_counting() {
        let cache = PlanCache::new(8);
        assert!(cache.get(&key("q1", OptLevel::L2)).is_none());
        cache.insert(key("q1", OptLevel::L2), plan());
        assert!(cache.get(&key("q1", OptLevel::L2)).is_some());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.len), (1, 1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn opt_level_partitions_the_key_space() {
        let cache = PlanCache::new(8);
        cache.insert(key("q", OptLevel::L2), plan());
        assert!(cache.get(&key("q", OptLevel::L3)).is_none());
        assert!(cache.get(&key("q", OptLevel::L2)).is_some());
    }

    #[test]
    fn lru_eviction_at_capacity() {
        let cache = PlanCache::new(2);
        cache.insert(key("a", OptLevel::L2), plan());
        cache.insert(key("b", OptLevel::L2), plan());
        // Touch `a`, making `b` the LRU victim.
        assert!(cache.get(&key("a", OptLevel::L2)).is_some());
        cache.insert(key("c", OptLevel::L2), plan());
        assert!(cache.get(&key("b", OptLevel::L2)).is_none());
        assert!(cache.get(&key("a", OptLevel::L2)).is_some());
        assert!(cache.get(&key("c", OptLevel::L2)).is_some());
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn clear_preserves_counters() {
        let cache = PlanCache::new(4);
        cache.insert(key("a", OptLevel::L2), plan());
        cache.get(&key("a", OptLevel::L2));
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn clear_resets_lru_bookkeeping() {
        // Regression: eviction order after clear() must match a fresh
        // cache — same inserts/gets, same victim.
        let run = |cache: &PlanCache| {
            cache.insert(key("a", OptLevel::L2), plan());
            cache.insert(key("b", OptLevel::L2), plan());
            assert!(cache.get(&key("a", OptLevel::L2)).is_some());
            cache.insert(key("c", OptLevel::L2), plan());
            let mut resident: Vec<&str> = ["a", "b", "c"]
                .into_iter()
                .filter(|q| cache.get(&key(q, OptLevel::L2)).is_some())
                .collect();
            resident.sort_unstable();
            resident
        };
        let fresh = PlanCache::new(2);
        let expected = run(&fresh);
        assert_eq!(expected, vec!["a", "c"], "b is the LRU victim");

        let cleared = PlanCache::new(2);
        // Age the tick far past anything the post-clear inserts reach.
        for i in 0..64 {
            cleared.insert(key(&format!("warm{i}"), OptLevel::L2), plan());
            cleared.get(&key(&format!("warm{i}"), OptLevel::L2));
        }
        cleared.clear();
        let inner = cleared.guard();
        assert_eq!(inner.tick, 0, "clear() must reset the recency tick");
        drop(inner);
        assert_eq!(run(&cleared), expected, "post-clear LRU = fresh LRU");
    }

    fn cached_result() -> Arc<CachedResult> {
        Arc::new(CachedResult {
            report: RunReport {
                execution: pspp_runtime::ExecutionReport {
                    outputs: Vec::new(),
                    node_seconds: HashMap::new(),
                    migration_seconds: 0.0,
                    makespan_sequential: 1e-3,
                    makespan_pipelined: 1e-3,
                    pipelined: false,
                    offloaded: 0,
                    device_assignments: HashMap::new(),
                    fused_chains: Vec::new(),
                    queue_wait_seconds: 0.0,
                    traces: Vec::new(),
                },
                rewrites: RewriteReport::default(),
                placement: None,
                costs: Default::default(),
            },
            digest: 42,
            exec_seconds: 1e-3,
        })
    }

    #[test]
    fn plan_key_digest_ignores_epoch() {
        let mut a = key("select * from t", OptLevel::L2);
        let mut b = a.clone();
        a.epoch = 1;
        b.epoch = 7;
        assert_eq!(a.digest(), b.digest());
        let c = key("select * from u", OptLevel::L2);
        assert_ne!(a.digest(), c.digest());
        let d = key("select * from t", OptLevel::L1);
        assert_ne!(a.digest(), d.digest());
    }

    #[test]
    fn result_cache_hits_within_an_epoch() {
        let cache = ResultCache::new(8);
        let k = ResultKey {
            plan_digest: 1,
            epoch: 3,
        };
        assert!(cache.get(&k).is_none());
        cache.insert(k, cached_result());
        assert_eq!(cache.get(&k).unwrap().digest, 42);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.len, s.invalidations), (1, 1, 1, 0));
    }

    #[test]
    fn epoch_bump_invalidates_structurally_and_collects() {
        let cache = ResultCache::new(8);
        let old = ResultKey {
            plan_digest: 1,
            epoch: 3,
        };
        cache.insert(old, cached_result());
        assert_eq!(cache.len(), 1);
        // Same plan, later engine state: miss, and the stale entry is
        // garbage-collected and counted.
        let new = ResultKey {
            plan_digest: 1,
            epoch: 4,
        };
        assert!(cache.get(&new).is_none());
        let s = cache.stats();
        assert_eq!(s.invalidations, 1);
        assert_eq!(s.len, 0);
        // A straggler insert under the old epoch is refused.
        cache.insert(old, cached_result());
        assert!(cache.get(&old).is_none());
        assert_eq!(cache.stats().len, 0);
    }

    /// A memoized result carrying `rows` one-Int rows (8 payload bytes
    /// each), so byte-budget tests can reason in exact sizes.
    fn sized_result(rows: usize) -> Arc<CachedResult> {
        use pspp_common::{row, DataType, EngineId, Schema};
        let mut base = (*cached_result()).clone();
        base.report.execution.outputs = vec![pspp_runtime::Dataset::rows(
            Schema::new(vec![("a", DataType::Int)]),
            (0..rows).map(|i| row![i as i64]).collect(),
            pspp_common::DataModel::Relational,
            EngineId::new("db1"),
        )];
        Arc::new(base)
    }

    #[test]
    fn byte_budget_evicts_lru_under_pressure() {
        // Three 10-row results at 80 bytes each against a 170-byte
        // budget: the third insert evicts the least-recently-used.
        let cache = ResultCache::new(64).with_byte_budget(170);
        let k = |d: u64| ResultKey {
            plan_digest: d,
            epoch: 0,
        };
        assert_eq!(sized_result(10).estimated_bytes(), 80);
        cache.insert(k(1), sized_result(10));
        cache.insert(k(2), sized_result(10));
        assert_eq!(cache.stats().bytes, 160);
        assert!(cache.get(&k(1)).is_some()); // 2 becomes the victim
        cache.insert(k(3), sized_result(10));
        let s = cache.stats();
        assert_eq!(s.bytes, 160, "budget holds: one entry evicted");
        assert_eq!(s.evictions, 1);
        assert!(cache.get(&k(2)).is_none());
        assert!(cache.get(&k(1)).is_some());
        assert!(cache.get(&k(3)).is_some());
    }

    #[test]
    fn oversized_entry_still_caches_but_alone() {
        let cache = ResultCache::new(64).with_byte_budget(100);
        let k = |d: u64| ResultKey {
            plan_digest: d,
            epoch: 0,
        };
        cache.insert(k(1), sized_result(5)); // 40 bytes
        cache.insert(k(2), sized_result(50)); // 400 bytes > budget
        assert!(cache.get(&k(1)).is_none(), "evicted to make room");
        assert!(cache.get(&k(2)).is_some(), "newest always admits");
        assert_eq!(cache.stats().bytes, 400);
    }

    #[test]
    fn bytes_track_invalidation_and_clear() {
        let cache = ResultCache::new(64).with_byte_budget(1 << 20);
        cache.insert(
            ResultKey {
                plan_digest: 1,
                epoch: 0,
            },
            sized_result(10),
        );
        assert_eq!(cache.stats().bytes, 80);
        // An epoch-1 lookup garbage-collects the stale entry's bytes.
        assert!(cache
            .get(&ResultKey {
                plan_digest: 1,
                epoch: 1,
            })
            .is_none());
        assert_eq!(cache.stats().bytes, 0);
        cache.insert(
            ResultKey {
                plan_digest: 2,
                epoch: 1,
            },
            sized_result(10),
        );
        cache.clear();
        assert_eq!(cache.stats().bytes, 0);
    }

    #[test]
    fn result_cache_lru_eviction() {
        let cache = ResultCache::new(2);
        let k = |d: u64| ResultKey {
            plan_digest: d,
            epoch: 0,
        };
        cache.insert(k(1), cached_result());
        cache.insert(k(2), cached_result());
        assert!(cache.get(&k(1)).is_some()); // 2 becomes the victim
        cache.insert(k(3), cached_result());
        assert!(cache.get(&k(2)).is_none());
        assert!(cache.get(&k(1)).is_some());
        assert!(cache.get(&k(3)).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }
}
