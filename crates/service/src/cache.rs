//! The service caches: plans and results memoized under epoch-guarded
//! keys, both held in one LRU.
//!
//! [`PlanCache`] memoizes compiled + optimized programs by query text,
//! so repeat queries skip the frontend and the optimizer. Every plan is
//! built at the system's one optimization level
//! ([`PolystoreBuilder::opt_level`](pspp_core::PolystoreBuilder::opt_level)),
//! fixed when the system is built, so the level is not part of the key.
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
//!
//! Both are thin wrappers over the same private `Lru` — a map, a
//! recency tick, least-recently-used eviction at a fixed entry count
//! and the effectiveness counters — and both tiers build them through
//! one constructor at one capacity, `CACHE_CAPACITY` entries: no
//! caller ever asked for another, so it is a constant, not a setting.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use pspp_common::partition::{fnv1a, FNV_OFFSET};
use pspp_common::Result;
use pspp_core::{Polystore, RunReport};
use pspp_ir::Program;
use pspp_optimizer::{PlacementPlan, RewriteReport};
use pspp_runtime::output_digest;
use pspp_telemetry::{Counter, MetricsRegistry};

use crate::lock;
use crate::service::Query;

/// Simulated planning-cost model (§IV-A/§IV-B: the frontend and
/// optimizer are middleware work the plan cache exists to avoid).
/// Charged once per cache miss: a fixed parse/setup cost, a per-byte
/// lexing cost and a per-IR-node rewrite/placement cost.
const PLAN_BASE_SECONDS: f64 = 200e-6;
const PLAN_PER_BYTE_SECONDS: f64 = 1.5e-6;
const PLAN_PER_NODE_SECONDS: f64 = 80e-6;

/// Entries every plan and result cache of either tier holds.
const CACHE_CAPACITY: usize = 256;

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

/// Cache key: (dialect, normalized query text, engine-state epoch).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// The frontend dialect.
    pub dialect: Dialect,
    /// The query text (hetero programs use their spec rendering).
    pub text: String,
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
        let h = fnv1a(self.dialect.to_string().as_bytes(), FNV_OFFSET);
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
    /// system's level, bill the planning-cost model — the one plan build
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
        let (rewrites, placement) = system.optimize(&mut program)?;
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

/// Counters describing one cache's effectiveness. Plan and result
/// caches report the same row; only a result cache ever invalidates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a usable entry.
    pub hits: u64,
    /// Lookups that fell through (to planning, or to execution).
    pub misses: u64,
    /// Entries inserted.
    pub insertions: u64,
    /// Entries evicted by the LRU policy.
    pub evictions: u64,
    /// Stale-epoch results garbage-collected after an engine mutation
    /// (always zero for a plan cache, whose stale plans age out).
    pub invalidations: u64,
    /// Entries currently resident.
    pub len: usize,
}

/// A result cache's counters: the same row as a plan cache's.
pub type ResultCacheStats = CacheStats;

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

    /// Folds another partition's counters into this one (per-tenant
    /// cache partitions merge into one service-wide row).
    pub fn absorb(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.insertions += other.insertions;
        self.evictions += other.evictions;
        self.invalidations += other.invalidations;
        self.len += other.len;
    }
}

/// Registry mirrors of an [`Lru`]'s counters, bumped beside the plain
/// fields so scrapes and [`CacheStats`] agree. Only the plan cache
/// exports insertion and eviction series.
#[derive(Debug)]
struct Mirror {
    hits: Counter,
    misses: Counter,
    insertions: Option<Counter>,
    evictions: Option<Counter>,
}

impl Mirror {
    /// The `hit` / `miss` pair of the lookup series `name`.
    fn lookups(registry: &MetricsRegistry, name: &str, help: &str) -> Self {
        let counter = |outcome: &str| registry.counter(name, help, &[("outcome", outcome)]);
        Mirror {
            hits: counter("hit"),
            misses: counter("miss"),
            insertions: None,
            evictions: None,
        }
    }
}

/// The one LRU under both caches: lookups and inserts advance a tick,
/// every entry remembers the tick it was last touched at, and an insert
/// into a full map first evicts the entry with the smallest one.
#[derive(Debug)]
struct Lru<K, V> {
    map: HashMap<K, Slot<V>>,
    tick: u64,
    capacity: usize,
    /// `len` is filled in by [`Lru::stats`].
    stats: CacheStats,
    mirror: Option<Mirror>,
}

#[derive(Debug)]
struct Slot<V> {
    value: V,
    last_used: u64,
}

impl<K: Hash + Eq + Clone, V: Clone> Lru<K, V> {
    /// An LRU holding at most `capacity` entries (minimum 1).
    fn new(capacity: usize) -> Self {
        Lru {
            map: HashMap::new(),
            tick: 0,
            capacity: capacity.max(1),
            stats: CacheStats::default(),
            mirror: None,
        }
    }

    /// Looks up an entry, bumping its recency on a hit.
    fn get(&mut self, key: &K) -> Option<V> {
        self.tick += 1;
        let tick = self.tick;
        let found = self.map.get_mut(key).map(|slot| {
            slot.last_used = tick;
            slot.value.clone()
        });
        if found.is_some() {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        if let Some(m) = &self.mirror {
            if found.is_some() {
                m.hits.inc();
            } else {
                m.misses.inc();
            }
        }
        found
    }

    /// Inserts (or replaces) an entry, evicting the least-recently-used
    /// one when full.
    fn insert(&mut self, key: K, value: V) {
        self.tick += 1;
        if !self.map.contains_key(&key) && self.map.len() >= self.capacity {
            let victim = self
                .map
                .iter()
                .min_by_key(|(_, slot)| slot.last_used)
                .map(|(k, _)| k.clone());
            if let Some(victim) = victim {
                self.map.remove(&victim);
                self.stats.evictions += 1;
                if let Some(evictions) = self.mirror.as_ref().and_then(|m| m.evictions.as_ref()) {
                    evictions.inc();
                }
            }
        }
        self.stats.insertions += 1;
        if let Some(insertions) = self.mirror.as_ref().and_then(|m| m.insertions.as_ref()) {
            insertions.inc();
        }
        let last_used = self.tick;
        self.map.insert(key, Slot { value, last_used });
    }

    /// Drops every entry and restarts the recency tick from zero, so
    /// post-clear eviction order matches a fresh cache (leaving the
    /// tick running was a latent bug: entries inserted after a clear
    /// inherited a recency epoch that dwarfed any later tick comparison
    /// against restored state). The effectiveness counters survive.
    fn clear(&mut self) {
        self.map.clear();
        self.tick = 0;
    }

    /// Snapshot of the effectiveness counters.
    fn stats(&self) -> CacheStats {
        CacheStats {
            len: self.map.len(),
            ..self.stats
        }
    }
}

/// A thread-safe LRU plan cache.
#[derive(Debug)]
pub struct PlanCache {
    lru: Mutex<Lru<PlanKey, Arc<CachedPlan>>>,
}

impl PlanCache {
    /// A cache holding at most `capacity` plans (minimum 1).
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            lru: Mutex::new(Lru::new(capacity)),
        }
    }

    /// Mirrors hit/miss/insertion/eviction counters into `registry`
    /// (series `pspp_plan_cache_*`).
    #[must_use]
    pub fn with_metrics(mut self, registry: &MetricsRegistry) -> Self {
        let lru = self.lru.get_mut().unwrap_or_else(PoisonError::into_inner);
        lru.mirror = Some(Mirror {
            insertions: Some(registry.counter(
                "pspp_plan_cache_insertions_total",
                "Plans inserted into the cache.",
                &[],
            )),
            evictions: Some(registry.counter(
                "pspp_plan_cache_evictions_total",
                "Plans evicted by the LRU policy.",
                &[],
            )),
            ..Mirror::lookups(
                registry,
                "pspp_plan_cache_lookups_total",
                "Plan-cache lookups by outcome.",
            )
        });
        self
    }

    /// Looks up a plan, bumping its recency on a hit.
    pub fn get(&self, key: &PlanKey) -> Option<Arc<CachedPlan>> {
        lock(&self.lru).get(key)
    }

    /// Inserts (or replaces) a plan, evicting the least-recently-used
    /// entry when full.
    pub fn insert(&self, key: PlanKey, plan: Arc<CachedPlan>) {
        lock(&self.lru).insert(key, plan);
    }

    /// Drops every cached plan and restarts the LRU tick; the
    /// effectiveness counters are preserved.
    pub fn clear(&self) {
        lock(&self.lru).clear();
    }

    /// Number of resident plans.
    pub fn len(&self) -> usize {
        self.stats().len
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the effectiveness counters.
    pub fn stats(&self) -> CacheStats {
        lock(&self.lru).stats()
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

/// A memoized execution: the full run report of the populating miss.
/// What a miss would have cost — the number hit-rate speedups compare
/// against — is the report's own makespan.
#[derive(Debug, Clone)]
pub struct CachedResult {
    /// The run report as executed on the populating miss (outputs,
    /// traces, rewrites, placement, real ledger totals).
    pub report: RunReport,
    digest: OnceLock<u64>,
}

impl CachedResult {
    /// Wraps one execution's report.
    pub fn new(report: RunReport) -> Self {
        CachedResult {
            report,
            digest: OnceLock::new(),
        }
    }

    /// What the populating run returned ([`output_digest`]), computed
    /// on first read and kept. Row order and location are not part of
    /// it, so cache-on and cache-off session runs that straddle a
    /// mid-run reshard at different simulated instants still agree.
    pub fn digest(&self) -> u64 {
        *self
            .digest
            .get_or_init(|| output_digest(&self.report.execution.outputs))
    }
}

#[derive(Debug)]
struct Epoched {
    lru: Lru<ResultKey, Arc<CachedResult>>,
    /// Highest epoch observed; entries below it are unreachable and
    /// get garbage-collected (counted as invalidations).
    epoch: u64,
}

/// A thread-safe LRU result cache keyed by `(plan digest, epoch)` —
/// the [`PlanCache`] LRU holding whole execution reports, plus an
/// epoch watermark. Entry count is the only bound.
#[derive(Debug)]
pub struct ResultCache {
    inner: Mutex<Epoched>,
    invalidations: Option<Counter>,
}

impl ResultCache {
    /// A cache holding at most `capacity` results (minimum 1).
    pub fn new(capacity: usize) -> Self {
        ResultCache {
            inner: Mutex::new(Epoched {
                lru: Lru::new(capacity),
                epoch: 0,
            }),
            invalidations: None,
        }
    }

    /// Mirrors hit/miss/invalidation counters into `registry` (series
    /// `pspp_result_cache_*`).
    #[must_use]
    pub fn with_metrics(mut self, registry: &MetricsRegistry) -> Self {
        let inner = self.inner.get_mut().unwrap_or_else(PoisonError::into_inner);
        inner.lru.mirror = Some(Mirror::lookups(
            registry,
            "pspp_result_cache_lookups_total",
            "Result-cache lookups by outcome.",
        ));
        self.invalidations = Some(registry.counter(
            "pspp_result_cache_invalidations_total",
            "Stale-epoch results garbage-collected after engine mutations.",
            &[],
        ));
        self
    }

    /// Advances the cache to `epoch`, garbage-collecting every entry
    /// recorded under an older epoch. Stale entries are unreachable
    /// either way (the epoch is part of the key); this frees their
    /// memory and counts them as invalidations.
    fn advance_epoch(&self, inner: &mut Epoched, epoch: u64) {
        if epoch <= inner.epoch {
            return;
        }
        inner.epoch = epoch;
        let before = inner.lru.map.len();
        inner.lru.map.retain(|k, _| k.epoch >= epoch);
        let dropped = (before - inner.lru.map.len()) as u64;
        if dropped > 0 {
            inner.lru.stats.invalidations += dropped;
            if let Some(invalidations) = &self.invalidations {
                invalidations.add(dropped);
            }
        }
    }

    /// Looks up a result, bumping its recency on a hit. The key's
    /// epoch also advances the cache's epoch watermark, invalidating
    /// older entries.
    pub fn get(&self, key: &ResultKey) -> Option<Arc<CachedResult>> {
        let mut inner = lock(&self.inner);
        self.advance_epoch(&mut inner, key.epoch);
        inner.lru.get(key)
    }

    /// Inserts (or replaces) a result, evicting the least-recently-used
    /// entry when full.
    pub fn insert(&self, key: ResultKey, result: Arc<CachedResult>) {
        let mut inner = lock(&self.inner);
        self.advance_epoch(&mut inner, key.epoch);
        // A straggler computed under an old engine state is never
        // cached: it could only ever be a stale hit.
        if key.epoch >= inner.epoch {
            inner.lru.insert(key, result);
        }
    }

    /// Drops every cached result and restarts the LRU tick (counters
    /// and the epoch watermark survive, mirroring [`PlanCache::clear`]).
    pub fn clear(&self) {
        lock(&self.inner).lru.clear();
    }

    /// Number of resident results.
    pub fn len(&self) -> usize {
        self.stats().len
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the effectiveness counters.
    pub fn stats(&self) -> CacheStats {
        lock(&self.inner).lru.stats()
    }
}

/// The caches one serving path looks plans and results up in: a
/// service's own pair, or one tenant's billing partition.
#[derive(Debug)]
pub(crate) struct Caches {
    pub(crate) plans: PlanCache,
    /// `None` when the result cache is off.
    pub(crate) results: Option<ResultCache>,
}

impl Caches {
    /// The one constructor both tiers call: [`CACHE_CAPACITY`] entries
    /// each, result-cache counters mirrored into `registry`. The session
    /// core's per-tenant plan partitions pass `mirror_plans = false`:
    /// its event loop looks a plan up per step and does not export
    /// `pspp_plan_cache_*`.
    pub(crate) fn new(registry: &MetricsRegistry, mirror_plans: bool, result_cache: bool) -> Self {
        let plans = PlanCache::new(CACHE_CAPACITY);
        Caches {
            plans: if mirror_plans {
                plans.with_metrics(registry)
            } else {
                plans
            },
            results: result_cache.then(|| ResultCache::new(CACHE_CAPACITY).with_metrics(registry)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pspp_runtime::ExecutionReport;

    fn key(text: &str) -> PlanKey {
        PlanKey {
            dialect: Dialect::Sql,
            text: text.into(),
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

    /// The shared LRU's whole contract, once, on the generic type:
    /// hit/miss counting, the victim after a touch, replacement without
    /// eviction, and `clear` restarting the tick so a cleared cache
    /// evicts exactly like a fresh one (the regression both wrappers
    /// inherit: the tick used to keep running).
    #[test]
    fn lru_counts_evicts_the_least_recently_touched_and_clear_restarts_the_tick() {
        let run = |lru: &mut Lru<&'static str, u32>| {
            let before = lru.stats();
            assert!(lru.get(&"a").is_none());
            lru.insert("a", 1);
            lru.insert("b", 2);
            assert_eq!(lru.get(&"a"), Some(1)); // b becomes the victim
            lru.insert("a", 10); // replacing evicts nothing
            lru.insert("c", 3);
            let resident: Vec<&str> = ["a", "b", "c"]
                .into_iter()
                .filter(|k| lru.get(k).is_some())
                .collect();
            let after = lru.stats();
            assert_eq!(after.hits - before.hits, 3);
            assert_eq!(after.misses - before.misses, 2);
            assert_eq!(after.insertions - before.insertions, 4);
            assert_eq!(after.evictions - before.evictions, 1);
            assert_eq!((after.len, after.invalidations), (2, 0));
            assert_eq!(lru.get(&"a"), Some(10));
            resident
        };
        let mut fresh = Lru::new(2);
        let expected = run(&mut fresh);
        assert_eq!(expected, vec!["a", "c"], "b is the LRU victim");
        assert!((fresh.stats().hit_rate() - 4.0 / 6.0).abs() < 1e-12);

        let mut cleared = Lru::new(2);
        // Age the tick far past anything the post-clear inserts reach.
        for _ in 0..64 {
            cleared.insert("warm", 0);
            cleared.get(&"warm");
        }
        cleared.clear();
        assert_eq!(cleared.tick, 0, "clear() must reset the recency tick");
        assert_eq!(cleared.stats().len, 0);
        assert_eq!(cleared.stats().hits, 64, "clear() keeps the counters");
        assert_eq!(run(&mut cleared), expected, "post-clear LRU = fresh LRU");
    }

    #[test]
    fn hit_and_miss_counting() {
        let cache = PlanCache::new(8);
        assert!(cache.get(&key("q1")).is_none());
        cache.insert(key("q1"), plan());
        assert!(cache.get(&key("q1")).is_some());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.len), (1, 1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_eviction_at_capacity() {
        let cache = PlanCache::new(2);
        cache.insert(key("a"), plan());
        cache.insert(key("b"), plan());
        // Touch `a`, making `b` the LRU victim.
        assert!(cache.get(&key("a")).is_some());
        cache.insert(key("c"), plan());
        assert!(cache.get(&key("b")).is_none());
        assert!(cache.get(&key("a")).is_some());
        assert!(cache.get(&key("c")).is_some());
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn clear_preserves_counters() {
        let cache = PlanCache::new(4);
        cache.insert(key("a"), plan());
        cache.get(&key("a"));
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().hits, 1);
    }

    /// A memoized execution whose one output carries `rows`.
    fn cached_result(rows: Vec<pspp_common::Row>) -> Arc<CachedResult> {
        use pspp_common::{DataModel, DataType, EngineId, Schema};
        Arc::new(CachedResult::new(RunReport {
            execution: ExecutionReport {
                outputs: vec![pspp_runtime::Dataset::rows(
                    Schema::new(vec![("a", DataType::Int), ("b", DataType::Int)]),
                    rows,
                    DataModel::Relational,
                    EngineId::new("db1"),
                )],
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
        }))
    }

    fn rows(pairs: &[(i64, i64)]) -> Vec<pspp_common::Row> {
        pairs
            .iter()
            .map(|&(a, b)| pspp_common::row![a, b])
            .collect()
    }

    #[test]
    fn cached_result_digest_is_the_row_multiset_digest() {
        let ordered = cached_result(rows(&[(1, 10), (2, 20), (2, 20), (3, 30)]));
        let permuted = cached_result(rows(&[(2, 20), (3, 30), (1, 10), (2, 20)]));
        assert_eq!(
            ordered.digest(),
            output_digest(&ordered.report.execution.outputs),
            "the kept digest is the multiset digest"
        );
        assert_eq!(ordered.digest(), ordered.digest(), "computed once, kept");
        assert_eq!(
            ordered.digest(),
            permuted.digest(),
            "a permuted row order is the same multiset"
        );
        // A different multiset (one duplicate fewer, one value changed)
        // is a different digest; so is a clone's, read independently.
        assert_ne!(
            ordered.digest(),
            cached_result(rows(&[(1, 10), (2, 20), (3, 30)])).digest()
        );
        assert_ne!(
            ordered.digest(),
            cached_result(rows(&[(1, 10), (2, 20), (2, 21), (3, 30)])).digest()
        );
        assert_eq!((*ordered).clone().digest(), ordered.digest());
    }

    #[test]
    fn plan_key_digest_ignores_epoch() {
        let mut a = key("select * from t");
        let mut b = a.clone();
        a.epoch = 1;
        b.epoch = 7;
        assert_eq!(a.digest(), b.digest());
        let c = key("select * from u");
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn result_cache_hits_within_an_epoch() {
        let cache = ResultCache::new(8);
        let k = ResultKey {
            plan_digest: 1,
            epoch: 3,
        };
        assert!(cache.get(&k).is_none());
        let stored = cached_result(rows(&[(4, 2)]));
        cache.insert(k, Arc::clone(&stored));
        assert!(Arc::ptr_eq(&cache.get(&k).unwrap(), &stored));
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
        cache.insert(old, cached_result(Vec::new()));
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
        cache.insert(old, cached_result(Vec::new()));
        assert!(cache.get(&old).is_none());
        assert_eq!(cache.stats().len, 0);
    }

    #[test]
    fn result_cache_lru_eviction() {
        let cache = ResultCache::new(2);
        let k = |d: u64| ResultKey {
            plan_digest: d,
            epoch: 0,
        };
        cache.insert(k(1), cached_result(Vec::new()));
        cache.insert(k(2), cached_result(Vec::new()));
        assert!(cache.get(&k(1)).is_some()); // 2 becomes the victim
        cache.insert(k(3), cached_result(Vec::new()));
        assert!(cache.get(&k(2)).is_none());
        assert!(cache.get(&k(1)).is_some());
        assert!(cache.get(&k(3)).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn result_cache_clear_restarts_the_tick_and_keeps_the_watermark() {
        let cache = ResultCache::new(2);
        let k = |d: u64, epoch: u64| ResultKey {
            plan_digest: d,
            epoch,
        };
        cache.insert(k(1, 5), cached_result(Vec::new()));
        cache.get(&k(1, 5));
        cache.clear();
        assert!(cache.is_empty());
        let inner = lock(&cache.inner);
        assert_eq!((inner.lru.tick, inner.epoch), (0, 5));
        drop(inner);
        assert_eq!(cache.stats().hits, 1, "clear() keeps the counters");
        // The watermark survived: a pre-clear-epoch straggler is refused.
        cache.insert(k(2, 4), cached_result(Vec::new()));
        assert!(cache.is_empty());
    }
}
