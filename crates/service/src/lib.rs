//! Concurrent query service over the Subtree Index: a shared-scan batch
//! scheduler with a decoded posting-block cache.
//!
//! The single-query path (`si_core::exec`) is pull-based and fast, but
//! serving heavy traffic one query at a time leaves two wins on the
//! table that this crate collects:
//!
//! 1. **Shared scans.** Concurrent queries decompose into covers that
//!    frequently collide on hot canonical keys (`NP(NN)` appears in half
//!    a treebank workload). [`QueryService::run_batch`] groups the
//!    batch's cover keys, pre-decodes every key used by ≥
//!    [`ServiceConfig::shared_scan_min`] pipelines **once** into a
//!    shared tuple vector ([`si_core::exec::collect_scan_tuples`]), and
//!    every consumer pipeline scans it via
//!    [`SharedScan`](si_core::exec::SharedScan) — one `PostingCursor`
//!    pass feeding many queries.
//! 2. **Decoded-block cache.** All remaining scans run through a
//!    sharded, byte-bounded [`BlockCache`]: hot posting lists skip the
//!    pager *and* varint decode on repeat access, across batches.
//!
//! Worker threads pull queries from a shared counter; the storage layer
//! below (`si_storage::Pager`) uses sharded latches and positioned I/O,
//! so workers streaming different lists never serialize on a global
//! lock. Results are returned in input order with per-query latency,
//! and match sets are bit-identical to the sequential streaming
//! executor — the service differential suite and the
//! `BENCH_service.json` harness both assert it.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use si_core::cover::decompose;
use si_core::eval::{EvalResult, EvalStats};
use si_core::exec::{collect_scan_tuples, ExecContext, SharedTuples, TreeCache};
use si_core::join::Tuple;
use si_core::sharded::{merge_shard_stats, shard_provably_empty_with, ShardedIndex};
use si_core::stats::{intersect_tid_ranges, key_stats_cached, KeyStats, StatsCache};
use si_core::{
    canonical_query_key, pack_match, unpack_match, BlockCache, BlockCacheConfig, BlockCacheStats,
    Coding, ResultCache, ResultCacheConfig, ResultCacheStats, SubtreeIndex,
};
use si_obs::{
    Counter, Gauge, Histogram, HistogramSummary, MetricsSnapshot, Registry, Timings,
    TimingsSnapshot, WindowedHistogram,
};
use si_query::Query;
use si_storage::{Result, StorageError};

/// Tuning knobs of a [`QueryService`].
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Worker threads evaluating queries (and pre-decoding shared
    /// scans). Defaults to the machine's available parallelism.
    pub threads: usize,
    /// Decoded-block cache configuration.
    pub cache: BlockCacheConfig,
    /// Queries per batch in line-oriented serving (`si serve`).
    pub batch_size: usize,
    /// Minimum number of pipelines that must scan a cover key before
    /// the batch pre-decodes it once and shares the tuples.
    pub shared_scan_min: usize,
    /// Byte budget of the cross-batch pool keeping hot shared tuple
    /// vectors pre-decoded between batches (0 disables pooling).
    pub shared_pool_budget_bytes: usize,
    /// Byte ceiling for eagerly pre-decoding a shared key that is not
    /// the base scan of any query in the batch. Pipelines often consume
    /// only a prefix of their *non-base* inputs (merge joins stop when
    /// the other side exhausts), so fully pre-decoding a huge list can
    /// cost more than it saves; above this size such keys rely on the
    /// block cache's lazy per-block sharing instead. Base-scan keys are
    /// always drained fully and are shared regardless of size.
    pub shared_scan_max_bytes: u64,
    /// Collect per-query timing spans ([`si_obs::Timings`]) into every
    /// [`QueryOutcome::timings`]. Off by default: workers then pass no
    /// accumulator at all, so the executor's instrumented paths cost
    /// one branch. Latency histograms are always recorded — they cost
    /// four relaxed atomics per query.
    pub collect_timings: bool,
    /// Byte budget (MiB) of the result cache storing whole per-shard
    /// match sets keyed by `(canonical query, coding, shard id, shard
    /// generation)`; 0 disables it. Off by default at the library
    /// level so differential tests compare like with like; the CLI's
    /// batch/serve modes turn it on. See `si_core::resultcache`.
    pub result_cache_mb: usize,
    /// Feed the process-wide metrics registry ([`ServiceMetrics`]):
    /// queue-depth / busy-worker gauges around the worker pool and a
    /// per-query fold of `EvalStats` plus latency into the registry's
    /// counters and windowed histogram. On by default — the whole path
    /// is relaxed atomics (the `experiments obs` bench gates it at
    /// ≤2% of batch throughput); turn off to measure that floor.
    pub collect_metrics: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            cache: BlockCacheConfig::default(),
            batch_size: 64,
            shared_scan_min: 2,
            shared_scan_max_bytes: 64 << 10,
            shared_pool_budget_bytes: 64 << 20,
            collect_timings: false,
            result_cache_mb: 0,
            collect_metrics: true,
        }
    }
}

/// The result cache a [`ServiceConfig`] asks for, if any.
fn result_cache_from(config: &ServiceConfig) -> Option<Arc<ResultCache>> {
    (config.result_cache_mb > 0).then(|| {
        Arc::new(ResultCache::new(ResultCacheConfig::with_budget(
            config.result_cache_mb << 20,
        )))
    })
}

/// One query's outcome within a batch.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// Matches (identical to the sequential streaming executor's) plus
    /// evaluation statistics. The *stats* reflect service execution:
    /// shared scans count consumed tuples, cache/pager counters are
    /// nonzero — they intentionally differ from a sequential run.
    pub result: EvalResult,
    /// Wall-clock seconds this query spent in its worker (queueing
    /// excluded).
    pub seconds: f64,
    /// Stage/operator timing snapshot, when the service was configured
    /// with [`ServiceConfig::collect_timings`]. For a sharded service
    /// the per-shard snapshots are folded in under `shard-N` group
    /// nodes.
    pub timings: Option<TimingsSnapshot>,
}

/// The result of [`QueryService::run_batch`].
#[derive(Debug)]
pub struct BatchReport {
    /// Per-query outcomes, in input order.
    pub outcomes: Vec<QueryOutcome>,
    /// Wall-clock seconds for the whole batch (grouping, shared decode
    /// and evaluation).
    pub wall_seconds: f64,
    /// Cover keys pre-decoded once and shared.
    pub shared_keys: usize,
    /// Total pipelines fed by shared scans (each saved its own decode).
    pub shared_consumers: usize,
    /// This batch's per-query latency distribution (nanoseconds):
    /// count/min/max and p50/p90/p99/p999 from the shared log-linear
    /// histogram type.
    pub latency: HistogramSummary,
}

impl BatchReport {
    /// Queries per second over the batch wall-clock.
    pub fn qps(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.outcomes.len() as f64 / self.wall_seconds
        } else {
            0.0
        }
    }

    /// Mean per-query latency in seconds.
    pub fn mean_latency(&self) -> f64 {
        if self.outcomes.is_empty() {
            0.0
        } else {
            self.outcomes.iter().map(|o| o.seconds).sum::<f64>() / self.outcomes.len() as f64
        }
    }
}

/// Counter snapshot of a [`QueryService`]'s cross-batch tuple pool.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TuplePoolStats {
    /// Shared keys served from the pool (no re-decode).
    pub hits: u64,
    /// Shared keys the pool did not hold.
    pub misses: u64,
    /// Vectors admitted.
    pub insertions: u64,
    /// Vectors evicted to stay within budget.
    pub evictions: u64,
    /// Bytes currently resident.
    pub current_bytes: u64,
    /// High-water mark of resident bytes (must stay ≤ the budget).
    pub peak_bytes: u64,
}

impl TuplePoolStats {
    /// Mirrors this snapshot into `registry` under the stable
    /// `tuplepool.*` dotted names (monotone counters via
    /// `Counter::set`, resident bytes as a gauge).
    pub fn register_into(&self, registry: &Registry) {
        registry.counter("tuplepool.hits").set(self.hits);
        registry.counter("tuplepool.misses").set(self.misses);
        registry
            .counter("tuplepool.insertions")
            .set(self.insertions);
        registry.counter("tuplepool.evictions").set(self.evictions);
        registry
            .gauge("tuplepool.bytes")
            .set(i64::try_from(self.current_bytes).unwrap_or(i64::MAX));
        registry
            .gauge("tuplepool.peak_bytes")
            .set(i64::try_from(self.peak_bytes).unwrap_or(i64::MAX));
    }
}

/// The process-wide metrics spine of a query service: one shared
/// [`Registry`] plus pre-resolved cells for everything the hot path
/// touches, so recording never takes the registry's name lock.
///
/// Two kinds of metric feed it:
///
/// * **Folded** — after each batch the service folds every query's
///   final merged [`EvalStats`] into cumulative `eval.*` / `shard.*`
///   counters and its latency into the `service.latency_ns` windowed
///   histogram, exactly once per query (a sharded service folds at the
///   outer layer; its inner per-shard services share these cells but
///   have folding disabled). `EvalStats` thus stays the per-query view
///   over the same quantities the registry accumulates for the process.
/// * **Mirrored** — subsystems that already keep their own monotone
///   atomics (pager, block cache, result cache, tuple pool) are copied
///   in at snapshot time via `Counter::set` / `Gauge::set` by
///   [`QueryService::sync_metrics`] (`pager.*`, `blockcache.*`,
///   `resultcache.*`, `tuplepool.*` names).
///
/// The `service.queue_depth` / `service.workers_busy` gauges are
/// updated live by the worker pool regardless of layer — they describe
/// the workers wherever those run.
#[derive(Clone)]
pub struct ServiceMetrics {
    registry: Arc<Registry>,
    queries: Arc<Counter>,
    batches: Arc<Counter>,
    matches: Arc<Counter>,
    queue_depth: Arc<Gauge>,
    workers_busy: Arc<Gauge>,
    latency: Arc<WindowedHistogram>,
    covers: Arc<Counter>,
    joins: Arc<Counter>,
    postings_fetched: Arc<Counter>,
    validated_trees: Arc<Counter>,
    postings_borrowed: Arc<Counter>,
    sort_exchanges_avoided: Arc<Counter>,
    seeks: Arc<Counter>,
    postings_skipped: Arc<Counter>,
    range_pruned: Arc<Counter>,
    shard_visits: Arc<Counter>,
    shard_skips: Arc<Counter>,
}

impl Default for ServiceMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl ServiceMetrics {
    /// A fresh spine over its own registry.
    pub fn new() -> Self {
        Self::with_registry(Arc::new(Registry::new()))
    }

    /// A spine over an existing registry (cells are get-or-created by
    /// their stable dotted names, so two spines over one registry share
    /// cells).
    pub fn with_registry(registry: Arc<Registry>) -> Self {
        Self {
            queries: registry.counter("service.queries"),
            batches: registry.counter("service.batches"),
            matches: registry.counter("service.matches"),
            queue_depth: registry.gauge("service.queue_depth"),
            workers_busy: registry.gauge("service.workers_busy"),
            latency: registry.windowed("service.latency_ns"),
            covers: registry.counter("eval.covers"),
            joins: registry.counter("eval.joins"),
            postings_fetched: registry.counter("eval.postings_fetched"),
            validated_trees: registry.counter("eval.validated_trees"),
            postings_borrowed: registry.counter("eval.postings_borrowed"),
            sort_exchanges_avoided: registry.counter("eval.sort_exchanges_avoided"),
            seeks: registry.counter("eval.seeks"),
            postings_skipped: registry.counter("eval.postings_skipped"),
            range_pruned: registry.counter("eval.range_pruned"),
            shard_visits: registry.counter("shard.visits"),
            shard_skips: registry.counter("shard.skips"),
            registry,
        }
    }

    /// The backing registry (snapshot it for telemetry lines).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The `service.latency_ns` windowed histogram — cumulative
    /// quantiles plus a per-tick resettable window for the periodic
    /// telemetry emitter.
    pub fn latency(&self) -> &Arc<WindowedHistogram> {
        &self.latency
    }

    /// Folds one completed query's outcome into the cumulative cells.
    /// Called exactly once per query by the outermost service layer.
    fn fold_outcome(&self, outcome: &QueryOutcome) {
        self.queries.inc();
        self.matches.add(outcome.result.matches.len() as u64);
        self.latency.record_secs(outcome.seconds);
        let s = &outcome.result.stats;
        self.covers.add(s.covers as u64);
        self.joins.add(s.joins as u64);
        self.postings_fetched.add(s.postings_fetched as u64);
        self.validated_trees.add(s.validated_trees as u64);
        self.postings_borrowed.add(s.postings_borrowed);
        self.sort_exchanges_avoided
            .add(s.sort_exchanges_avoided as u64);
        self.seeks.add(s.seeks);
        self.postings_skipped.add(s.postings_skipped);
        self.range_pruned.add(u64::from(s.range_pruned));
        self.shard_visits.add(s.shards as u64);
        self.shard_skips.add(s.shards_skipped as u64);
    }

    /// Folds a whole batch: one `service.batches` tick plus every
    /// outcome.
    fn fold_batch(&self, outcomes: &[QueryOutcome]) {
        self.batches.inc();
        for outcome in outcomes {
            self.fold_outcome(outcome);
        }
    }
}

/// Mirrors the process-wide pager totals
/// ([`si_storage::process_counters`]) into `registry` under the
/// `pager.*` names: `reads` are physical page reads (cache misses),
/// `mmap_reads` the zero-copy mapped subset of hits.
pub fn register_pager_metrics(registry: &Registry) {
    let p = si_storage::process_counters();
    registry.counter("pager.hits").set(p.hits);
    registry.counter("pager.reads").set(p.misses);
    registry.counter("pager.evictions").set(p.evictions);
    registry.counter("pager.mmap_reads").set(p.mmap_reads);
}

struct PoolEntry {
    tuples: Arc<Vec<Tuple>>,
    bytes: usize,
    /// Logical clock of the last touch (get or insert).
    stamp: u64,
}

/// Byte-bounded **LRU** pool of decoded shared tuple vectors, the
/// cross-batch successor of PR 2's insert-until-budget pool: like the
/// block cache, an insert over budget evicts the least-recently-used
/// entries until the new vector fits, so hot keys rotate in as the
/// workload shifts instead of the first-seen keys squatting the budget
/// forever. Entries are few and large (whole decoded lists), so
/// recency is a per-entry stamp and eviction scans for the minimum —
/// no intrusive list needed at this granularity.
struct TuplePool {
    map: HashMap<Vec<u8>, PoolEntry>,
    clock: u64,
    bytes: usize,
    budget: usize,
    stats: TuplePoolStats,
}

impl TuplePool {
    fn new(budget: usize) -> Self {
        Self {
            map: HashMap::new(),
            clock: 0,
            bytes: 0,
            budget,
            stats: TuplePoolStats::default(),
        }
    }

    fn entry_bytes(key: &[u8], tuples: &[Tuple]) -> usize {
        key.len() + std::mem::size_of_val(tuples)
    }

    /// Looks `key` up, refreshing its recency on a hit.
    fn get(&mut self, key: &[u8]) -> Option<Arc<Vec<Tuple>>> {
        self.clock += 1;
        match self.map.get_mut(key) {
            Some(entry) => {
                entry.stamp = self.clock;
                self.stats.hits += 1;
                Some(entry.tuples.clone())
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Admits a freshly decoded vector, evicting least-recently-used
    /// entries until it fits; a vector larger than the whole budget is
    /// never admitted (it would evict everything for one key).
    fn insert(&mut self, key: &[u8], tuples: &Arc<Vec<Tuple>>) {
        let bytes = Self::entry_bytes(key, tuples);
        if bytes > self.budget || self.map.contains_key(key) {
            return;
        }
        while self.bytes + bytes > self.budget {
            let Some(lru) = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            let evicted = self.map.remove(&lru).expect("lru key present");
            self.bytes -= evicted.bytes;
            self.stats.evictions += 1;
        }
        self.clock += 1;
        self.map.insert(
            key.to_vec(),
            PoolEntry {
                tuples: tuples.clone(),
                bytes,
                stamp: self.clock,
            },
        );
        self.bytes += bytes;
        self.stats.insertions += 1;
        self.stats.current_bytes = self.bytes as u64;
        self.stats.peak_bytes = self.stats.peak_bytes.max(self.bytes as u64);
    }

    fn stats(&self) -> TuplePoolStats {
        TuplePoolStats {
            current_bytes: self.bytes as u64,
            ..self.stats
        }
    }
}

/// A multi-threaded batch query service; see the module docs.
pub struct QueryService {
    index: Arc<SubtreeIndex>,
    cache: Arc<BlockCache>,
    /// Memoized per-key planner statistics (stats-segment probes /
    /// B+Tree descents); valid for the service's lifetime because the
    /// index is read-only. Subsumes PR 2's `LenCache` — the cached
    /// [`KeyStats::bytes`] carries the encoded length.
    stats: StatsCache,
    /// Decoded-tree cache for validation phases (hot candidate trees
    /// recur across a batch's queries).
    trees: Arc<TreeCache>,
    /// Cross-batch LRU pool of shared tuple vectors, byte-bounded by
    /// [`ServiceConfig::shared_pool_budget_bytes`]; hot keys stay
    /// pre-decoded across batches (the index is read-only) and cold
    /// ones are evicted as the workload rotates.
    shared_pool: Mutex<TuplePool>,
    /// Cumulative per-query latency histogram (nanoseconds), recorded
    /// for every query the service ever ran. Lock-free: workers record
    /// straight into the shared atomics.
    latency: Histogram,
    /// Whole-answer result cache ([`si_core::resultcache`]), when
    /// [`ServiceConfig::result_cache_mb`] is nonzero. A monolithic
    /// index is one immutable state for the service's lifetime, so
    /// every entry lives under the fixed epoch `(shard 0, generation
    /// 0)` — an injected cache shared across services must therefore
    /// only ever see *this* index's answers (the sharded service,
    /// whose manifest generations disambiguate states, is the one that
    /// shares a cache across an ingest).
    results: Option<Arc<ResultCache>>,
    /// Process-wide metrics spine (shared cells when this service is a
    /// shard of a [`ShardedQueryService`]).
    metrics: ServiceMetrics,
    /// Whether this layer folds completed outcomes into the metrics
    /// cells. True standalone; false for the inner per-shard services
    /// of a sharded service, whose *outer* layer folds each query's
    /// final merged stats exactly once.
    fold_outcomes: bool,
    config: ServiceConfig,
}

impl QueryService {
    /// Creates a service over `index`. The index should be in the
    /// default streaming exec mode; the materializing oracle works but
    /// ignores the cache and shared scans.
    pub fn new(index: Arc<SubtreeIndex>, config: ServiceConfig) -> Self {
        Self::with_metrics(index, config, ServiceMetrics::new(), true)
    }

    /// [`QueryService::new`] recording into an existing metrics spine.
    /// `fold_outcomes` must be false when a parent layer (the sharded
    /// service) folds final merged outcomes itself.
    pub fn with_metrics(
        index: Arc<SubtreeIndex>,
        config: ServiceConfig,
        metrics: ServiceMetrics,
        fold_outcomes: bool,
    ) -> Self {
        Self {
            index,
            cache: Arc::new(BlockCache::new(config.cache)),
            stats: StatsCache::default(),
            trees: Arc::new(TreeCache::default()),
            shared_pool: Mutex::new(TuplePool::new(config.shared_pool_budget_bytes)),
            latency: Histogram::new(),
            results: result_cache_from(&config),
            metrics,
            fold_outcomes,
            config,
        }
    }

    /// The metrics spine this service records into.
    pub fn metrics(&self) -> &ServiceMetrics {
        &self.metrics
    }

    /// Mirrors every subsystem's own counters (pager, block cache,
    /// result cache, tuple pool) into the registry and returns a full
    /// snapshot — the scrape entry point for telemetry ticks.
    pub fn sync_metrics(&self) -> MetricsSnapshot {
        let registry = self.metrics.registry();
        self.cache_stats().register_into(registry);
        if let Some(rc) = self.result_cache_stats() {
            rc.register_into(registry);
        }
        self.pool_stats().register_into(registry);
        register_pager_metrics(registry);
        registry.snapshot()
    }

    /// Replaces the result cache with a shared instance (see the
    /// `results` field docs for the aliasing contract).
    pub fn with_result_cache(mut self, cache: Arc<ResultCache>) -> Self {
        self.results = Some(cache);
        self
    }

    /// Result-cache counters, when a result cache is configured.
    pub fn result_cache_stats(&self) -> Option<ResultCacheStats> {
        self.results.as_ref().map(|c| c.stats())
    }

    /// The result cache, if one is configured.
    pub fn result_cache(&self) -> Option<Arc<ResultCache>> {
        self.results.clone()
    }

    /// Cumulative per-query latency quantiles (nanoseconds) across
    /// every batch this service has run.
    pub fn latency_summary(&self) -> HistogramSummary {
        self.latency.summary()
    }

    /// Admits a freshly decoded shared vector into the cross-batch pool
    /// (LRU replacement within the byte budget).
    fn pool_insert(&self, key: &[u8], tuples: &Arc<Vec<Tuple>>) {
        self.shared_pool
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(key, tuples);
    }

    /// Cross-batch tuple-pool counters (cumulative).
    pub fn pool_stats(&self) -> TuplePoolStats {
        self.shared_pool
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .stats()
    }

    /// The underlying index.
    pub fn index(&self) -> &Arc<SubtreeIndex> {
        &self.index
    }

    /// The configured batch size for line-oriented serving.
    pub fn batch_size(&self) -> usize {
        self.config.batch_size.max(1)
    }

    /// Decoded-block cache counters (cumulative across batches).
    pub fn cache_stats(&self) -> BlockCacheStats {
        self.cache.stats()
    }

    /// Evaluates `queries` concurrently, sharing scans of cover keys
    /// that several pipelines need. Results arrive in input order and
    /// match the sequential streaming executor exactly.
    pub fn run_batch(&self, queries: &[Query]) -> Result<BatchReport> {
        let started = Instant::now();
        if queries.is_empty() {
            return Ok(BatchReport {
                outcomes: Vec::new(),
                wall_seconds: started.elapsed().as_secs_f64(),
                shared_keys: 0,
                shared_consumers: 0,
                latency: HistogramSummary::default(),
            });
        }
        let threads = self.config.threads.max(1).min(queries.len());
        let options = self.index.options();
        let coding = options.coding.id();

        // ---- Phase 0: result-cache probe. ----
        // A monolithic index is one immutable state, so every entry
        // lives under epoch (0, 0). A hit bypasses the whole pipeline
        // — grouping, shared decode, worker eval — and costs one map
        // probe plus the unpack; only misses proceed.
        let mut prefilled: Vec<Option<QueryOutcome>> = Vec::with_capacity(queries.len());
        let mut miss: Vec<usize> = Vec::with_capacity(queries.len());
        let mut miss_keys: Vec<Arc<[u8]>> = Vec::new();
        match &self.results {
            Some(rcache) => {
                for (i, q) in queries.iter().enumerate() {
                    let q_started = Instant::now();
                    let key = canonical_query_key(q);
                    match rcache.get(&key, coding, 0, 0) {
                        Some(packed) => {
                            let stats = EvalStats {
                                result_hits: 1,
                                negative_hits: u64::from(packed.is_empty()),
                                ..EvalStats::default()
                            };
                            let seconds = q_started.elapsed().as_secs_f64();
                            self.latency.record_secs(seconds);
                            prefilled.push(Some(QueryOutcome {
                                result: EvalResult {
                                    matches: packed.iter().map(|&p| unpack_match(p)).collect(),
                                    stats,
                                },
                                seconds,
                                timings: None,
                            }));
                        }
                        None => {
                            prefilled.push(None);
                            miss.push(i);
                            miss_keys.push(key);
                        }
                    }
                }
            }
            None => {
                prefilled.resize_with(queries.len(), || None);
                miss.extend(0..queries.len());
            }
        }

        // ---- Phase 1: group cover keys across the batch. ----
        // Decomposition is pure CPU over tiny query trees; recomputing
        // it inside evaluate() later is cheaper than threading covers
        // through, and keeps the executor's entry point unchanged.
        let ctx_base = || ExecContext {
            cache: Some(self.cache.clone()),
            shared: None,
            stats: Some(self.stats.clone()),
            trees: Some(self.trees.clone()),
            ..ExecContext::default()
        };
        let mut usage: HashMap<Vec<u8>, usize> = HashMap::new();
        // Keys some pipeline drains fully (its base scan): always worth
        // pre-decoding when shared. Other keys may be consumed only
        // partially, so eager decode is capped by size.
        let mut base_keys: std::collections::HashSet<Vec<u8>> = std::collections::HashSet::new();
        if options.coding != Coding::FilterBased {
            let probe_ctx = ctx_base();
            for q in miss.iter().map(|&i| &queries[i]) {
                let cover = decompose(q, options.mss, options.coding);
                let mut cover_stats: Vec<Option<KeyStats>> =
                    Vec::with_capacity(cover.subtrees.len());
                for st in &cover.subtrees {
                    cover_stats.push(key_stats_cached(&self.index, &st.key, &probe_ctx)?);
                }
                // A query with a missing key or disjoint tid ranges never
                // opens a scan, so it must not count toward shared-scan
                // usage (an eager decode for it would be pure waste).
                if cover_stats.iter().any(|s| s.is_none()) {
                    continue;
                }
                let all: Vec<KeyStats> = cover_stats.iter().map(|s| s.unwrap()).collect();
                let Some(common) = intersect_tid_ranges(&all) else {
                    continue;
                };
                for st in &cover.subtrees {
                    *usage.entry(st.key.clone()).or_insert(0) += 1;
                }
                // The planner's own ranks predict the base scan (the one
                // pipeline that drains its list fully) — shared ordering
                // logic, so the prediction cannot drift from the plan.
                let base = (0..all.len()).min_by_key(|&i| {
                    si_core::plan::cost_rank(
                        &all[i],
                        &cover.subtrees[i].key,
                        options.coding,
                        common,
                        i,
                    )
                });
                if let Some(i) = base {
                    base_keys.insert(cover.subtrees[i].key.clone());
                }
            }
        }
        let probe_ctx = ctx_base();
        let mut shared_keys: Vec<Vec<u8>> = Vec::new();
        let mut shared_consumers = 0usize;
        for (key, count) in &usage {
            if *count < self.config.shared_scan_min.max(2) {
                continue;
            }
            let Some(key_stats) = key_stats_cached(&self.index, key, &probe_ctx)? else {
                continue;
            };
            if base_keys.contains(key) || key_stats.bytes <= self.config.shared_scan_max_bytes {
                shared_keys.push(key.clone());
                shared_consumers += count;
            }
        }

        // ---- Phase 2: pre-decode shared keys once, in parallel. ----
        // The cross-batch pool short-circuits most of this on a warm
        // service: the index is read-only, so a decoded tuple vector
        // never goes stale and hot keys are re-shared for free.
        let shared: Mutex<SharedTuples> = Mutex::new(HashMap::new());
        let mut to_decode: Vec<Vec<u8>> = Vec::new();
        {
            let mut pool = self.shared_pool.lock().unwrap_or_else(|e| e.into_inner());
            let mut shared = shared.lock().unwrap();
            for key in &shared_keys {
                match pool.get(key) {
                    Some(tuples) => {
                        shared.insert(key.clone(), tuples);
                    }
                    None => to_decode.push(key.clone()),
                }
            }
        }
        let first_error: Mutex<Option<StorageError>> = Mutex::new(None);
        let failed = std::sync::atomic::AtomicBool::new(false);
        let next_key = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..threads.min(to_decode.len().max(1)) {
                scope.spawn(|| {
                    let ctx = ctx_base();
                    loop {
                        let i = next_key.fetch_add(1, Ordering::Relaxed);
                        let Some(key) = to_decode.get(i) else { break };
                        match collect_scan_tuples(&self.index, key, &ctx) {
                            Ok(tuples) => {
                                self.pool_insert(key, &tuples);
                                shared.lock().unwrap().insert(key.clone(), tuples);
                            }
                            Err(e) => {
                                first_error.lock().unwrap().get_or_insert(e);
                                failed.store(true, Ordering::Release);
                                break;
                            }
                        }
                    }
                });
            }
        });
        if let Some(e) = first_error.lock().unwrap().take() {
            return Err(e);
        }
        let shared = shared.into_inner().unwrap();

        // ---- Phase 3: evaluate the cache misses on the worker pool.
        // (With no result cache configured, every query is a "miss".)
        let slots: Vec<Mutex<Option<QueryOutcome>>> =
            prefilled.into_iter().map(Mutex::new).collect();
        let next_query = AtomicUsize::new(0);
        // Live pool gauges: the whole miss set is "queued" the moment
        // the pool starts; each pick moves one unit from queue depth to
        // busy workers. Updated here regardless of layer — this is
        // where workers actually run, shard-inner or not.
        let collect_metrics = self.config.collect_metrics;
        if collect_metrics {
            self.metrics.queue_depth.add(miss.len() as i64);
        }
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    let ctx = ExecContext {
                        cache: Some(self.cache.clone()),
                        shared: Some(&shared),
                        stats: Some(self.stats.clone()),
                        trees: Some(self.trees.clone()),
                        ..ExecContext::default()
                    };
                    while !failed.load(Ordering::Acquire) {
                        let j = next_query.fetch_add(1, Ordering::Relaxed);
                        let Some(&qi) = miss.get(j) else { break };
                        if collect_metrics {
                            self.metrics.queue_depth.add(-1);
                            self.metrics.workers_busy.add(1);
                        }
                        let query = &queries[qi];
                        let q_started = Instant::now();
                        // A `Timings` is single-threaded state, so an
                        // instrumented run gets a fresh one per query;
                        // the uninstrumented path reuses the worker's
                        // context untouched.
                        let timings = self.config.collect_timings.then(|| Timings::new(true));
                        let eval = match &timings {
                            Some(t) => {
                                let q_ctx = ExecContext {
                                    timings: Some(t),
                                    ..ctx.clone()
                                };
                                self.index.evaluate_with(query, &q_ctx)
                            }
                            None => self.index.evaluate_with(query, &ctx),
                        };
                        match eval {
                            Ok(mut result) => {
                                if let Some(rcache) = &self.results {
                                    result.stats.result_misses = 1;
                                    let packed: Vec<u64> = result
                                        .matches
                                        .iter()
                                        .map(|&(tid, pre)| pack_match(tid, pre))
                                        .collect();
                                    rcache.insert(&miss_keys[j], coding, 0, 0, Arc::new(packed));
                                }
                                let seconds = q_started.elapsed().as_secs_f64();
                                self.latency.record_secs(seconds);
                                *slots[qi].lock().unwrap() = Some(QueryOutcome {
                                    result,
                                    seconds,
                                    timings: timings.map(|t| t.snapshot()),
                                });
                                if collect_metrics {
                                    self.metrics.workers_busy.add(-1);
                                }
                            }
                            Err(e) => {
                                first_error.lock().unwrap().get_or_insert(e);
                                failed.store(true, Ordering::Release);
                                if collect_metrics {
                                    self.metrics.workers_busy.add(-1);
                                }
                                break;
                            }
                        }
                    }
                });
            }
        });
        if collect_metrics {
            // Queries never picked (an error aborted the pool early)
            // must leave the queue gauge, too — `add`, not `set`: a
            // sharded service's shards share this gauge concurrently.
            let picked = next_query.load(Ordering::Relaxed).min(miss.len());
            let leftover = miss.len() - picked;
            if leftover > 0 {
                self.metrics.queue_depth.add(-(leftover as i64));
            }
        }
        if let Some(e) = first_error.lock().unwrap().take() {
            return Err(e);
        }
        let outcomes: Vec<QueryOutcome> = slots
            .into_iter()
            .map(|slot| slot.into_inner().unwrap().expect("worker filled slot"))
            .collect();
        if collect_metrics && self.fold_outcomes {
            self.metrics.fold_batch(&outcomes);
        }
        Ok(BatchReport {
            latency: batch_latency(&outcomes),
            outcomes,
            wall_seconds: started.elapsed().as_secs_f64(),
            shared_keys: shared_keys.len(),
            shared_consumers,
        })
    }
}

/// This batch's latency distribution, from the per-outcome worker
/// seconds (same histogram type as the cumulative services record
/// into, so quantile resolution matches everywhere).
fn batch_latency(outcomes: &[QueryOutcome]) -> HistogramSummary {
    let h = Histogram::new();
    for o in outcomes {
        h.record_secs(o.seconds);
    }
    h.summary()
}

/// The batch service over a tid-range sharded index
/// ([`ShardedIndex`]): one [`QueryService`] per shard, each with its
/// own block cache, stats cache, tree cache and shared-scan pool —
/// shards store the *same canonical keys* over different posting
/// lists, so no decoded state may ever cross a shard boundary. The
/// parent budgets ([`ServiceConfig::cache`],
/// [`ServiceConfig::shared_pool_budget_bytes`]) are split evenly
/// across shards so a sharded service is bounded like a monolithic
/// one.
///
/// A batch runs shard by shard (each shard batch uses the full worker
/// pool and its shared-scan machinery): queries a shard's own
/// statistics prove empty there are dropped from that shard's batch
/// ([`EvalStats::shards_skipped`]), and per-shard outcomes merge by
/// concatenating the tid-disjoint match sets in shard order — exactly
/// the scatter-gather of `ShardedIndex::evaluate`, with batching
/// inside each shard.
pub struct ShardedQueryService {
    index: Arc<ShardedIndex>,
    services: Vec<QueryService>,
    /// Cumulative whole-query latency (nanoseconds): one record per
    /// query per batch, over the summed per-shard worker time.
    latency: Histogram,
    /// Per-shard partial-result cache, keyed by the manifest's
    /// `(shard id, generation)` epochs — this layer owns result
    /// caching outright (the inner per-shard services run with theirs
    /// disabled: their fixed `(0, 0)` epoch cannot express an ingest).
    /// Because epochs name immutable shard states, one instance may
    /// outlive the service and be re-injected after an ingest via
    /// [`ShardedQueryService::with_result_cache`]; entries for
    /// untouched shards keep serving.
    results: Option<Arc<ResultCache>>,
    /// Process-wide metrics spine; the inner per-shard services share
    /// its cells (live worker gauges) but this layer alone folds each
    /// query's final merged outcome, so `service.queries` and the
    /// `eval.*` counters count every query exactly once.
    metrics: ServiceMetrics,
    config: ServiceConfig,
}

impl ShardedQueryService {
    /// Creates a service over a sharded index, splitting the cache and
    /// pool budgets evenly across per-shard services.
    pub fn new(index: Arc<ShardedIndex>, config: ServiceConfig) -> Self {
        let n = index.shards().len().max(1);
        let per_shard = ServiceConfig {
            cache: BlockCacheConfig {
                budget_bytes: (config.cache.budget_bytes / n).max(1),
                ..config.cache
            },
            shared_pool_budget_bytes: config.shared_pool_budget_bytes / n,
            // Result caching happens once, at this layer, with the
            // manifest epochs in the key.
            result_cache_mb: 0,
            ..config
        };
        let metrics = ServiceMetrics::new();
        let services = index
            .shards()
            .iter()
            .map(|shard| {
                QueryService::with_metrics(shard.clone(), per_shard, metrics.clone(), false)
            })
            .collect();
        Self {
            index,
            services,
            latency: Histogram::new(),
            results: result_cache_from(&config),
            metrics,
            config,
        }
    }

    /// The metrics spine this service records into.
    pub fn metrics(&self) -> &ServiceMetrics {
        &self.metrics
    }

    /// Mirrors every subsystem's counters (pager, aggregated block
    /// cache / tuple pool, this layer's result cache) into the registry
    /// and returns a full snapshot.
    pub fn sync_metrics(&self) -> MetricsSnapshot {
        let registry = self.metrics.registry();
        self.cache_stats().register_into(registry);
        if let Some(rc) = self.result_cache_stats() {
            rc.register_into(registry);
        }
        self.pool_stats().register_into(registry);
        register_pager_metrics(registry);
        registry.snapshot()
    }

    /// Replaces the result cache with a shared instance — the ingest
    /// story: rebuild the service over the reloaded index and hand the
    /// old cache back in; `(id, generation)` keys keep every untouched
    /// shard's entries valid and make stale ones unreachable.
    pub fn with_result_cache(mut self, cache: Arc<ResultCache>) -> Self {
        self.results = Some(cache);
        self
    }

    /// The shared result cache, if one is configured (to carry across
    /// an ingest via [`ShardedQueryService::with_result_cache`]).
    pub fn result_cache(&self) -> Option<Arc<ResultCache>> {
        self.results.clone()
    }

    /// Result-cache counters, when a result cache is configured.
    pub fn result_cache_stats(&self) -> Option<ResultCacheStats> {
        self.results.as_ref().map(|c| c.stats())
    }

    /// Cumulative per-query latency quantiles (nanoseconds) across
    /// every batch, over the summed per-shard worker time of each
    /// query.
    pub fn latency_summary(&self) -> HistogramSummary {
        self.latency.summary()
    }

    /// The underlying sharded index.
    pub fn index(&self) -> &Arc<ShardedIndex> {
        &self.index
    }

    /// The configured batch size for line-oriented serving.
    pub fn batch_size(&self) -> usize {
        self.config.batch_size.max(1)
    }

    /// Block-cache counters summed across shards.
    pub fn cache_stats(&self) -> BlockCacheStats {
        let mut agg = BlockCacheStats::default();
        for s in &self.services {
            let c = s.cache_stats();
            agg.hits += c.hits;
            agg.misses += c.misses;
            agg.insertions += c.insertions;
            agg.evictions += c.evictions;
            agg.current_bytes += c.current_bytes;
            agg.peak_bytes += c.peak_bytes;
        }
        agg
    }

    /// Cross-batch tuple-pool counters summed across shards.
    pub fn pool_stats(&self) -> TuplePoolStats {
        let mut agg = TuplePoolStats::default();
        for s in &self.services {
            let p = s.pool_stats();
            agg.hits += p.hits;
            agg.misses += p.misses;
            agg.insertions += p.insertions;
            agg.evictions += p.evictions;
            agg.current_bytes += p.current_bytes;
            agg.peak_bytes += p.peak_bytes;
        }
        agg
    }

    /// Evaluates `queries` across all shards; results arrive in input
    /// order and match the monolithic service (and the sequential
    /// executor) exactly. Per-query `seconds` sums the query's worker
    /// time across shards.
    pub fn run_batch(&self, queries: &[Query]) -> Result<BatchReport> {
        let started = Instant::now();
        let options = self.index.options();
        let covers: Vec<_> = queries
            .iter()
            .map(|q| decompose(q, options.mss, options.coding))
            .collect();
        let mut outcomes: Vec<QueryOutcome> = queries
            .iter()
            .zip(&covers)
            .map(|(_, cover)| QueryOutcome {
                result: EvalResult {
                    matches: Vec::new(),
                    stats: EvalStats {
                        covers: cover.subtrees.len(),
                        shards: self.services.len(),
                        ..EvalStats::default()
                    },
                },
                seconds: 0.0,
                timings: None,
            })
            .collect();
        let mut shared_keys = 0usize;
        let mut shared_consumers = 0usize;
        // Result cache: one canonical key per query, probed per shard
        // under that shard's `(id, generation)` epoch.
        let keys: Option<Vec<Arc<[u8]>>> = self
            .results
            .as_ref()
            .map(|_| queries.iter().map(canonical_query_key).collect());
        let coding = options.coding.id();

        // Per-query cache bookkeeping across shards: whether any shard
        // actually evaluated the query, how many cached partials it
        // reused and how many of those were negative entries.
        let mut evaluated = vec![false; queries.len()];
        let mut reused = vec![0u64; queries.len()];
        let mut negative = vec![0u64; queries.len()];
        // Phase 0: probe every `(query, shard)` pair once, up front and
        // sequentially — these are hash lookups. A query whose *every*
        // shard answers from cache is filled here and never reaches the
        // shard machinery, so a warm batch spawns no threads; the
        // partially-hit probes are kept and consumed by the shard pass
        // below instead of probing again.
        let mut preprobe: Vec<Vec<Option<Arc<Vec<u64>>>>> = Vec::new();
        let mut pending: Vec<usize> = Vec::new();
        if let (Some(rcache), Some(keys)) = (&self.results, &keys) {
            for (i, key) in keys.iter().enumerate() {
                let q_started = Instant::now();
                let row: Vec<Option<Arc<Vec<u64>>>> = self
                    .index
                    .manifest()
                    .shards
                    .iter()
                    .map(|entry| rcache.get(key, coding, entry.id, entry.generation))
                    .collect();
                if row.iter().all(Option::is_some) {
                    // Shards ascend in tid order with tid-disjoint
                    // answers: splicing in shard order keeps the global
                    // set sorted.
                    for (entry, partial) in self.index.manifest().shards.iter().zip(&row) {
                        let partial = partial.as_ref().expect("probed above");
                        reused[i] += 1;
                        negative[i] += u64::from(partial.is_empty());
                        outcomes[i].result.matches.extend(partial.iter().map(|&p| {
                            let (tid, pre) = unpack_match(p);
                            (entry.base + tid, pre)
                        }));
                    }
                    outcomes[i].seconds = q_started.elapsed().as_secs_f64();
                } else {
                    pending.push(i);
                }
                preprobe.push(row);
            }
        } else {
            pending.extend(0..queries.len());
        }

        // Shard-level parallelism complements the per-shard worker
        // pool. A big batch already saturates the inner pool, so shards
        // run one after another (`outer == 1`, the pre-existing
        // behavior); a *single* query leaves the inner pool almost idle
        // — its per-shard sub-batch has one query, hence one inner
        // worker — so the shards themselves fan out across the
        // configured threads instead. The product of outer and inner
        // workers stays around `config.threads` either way.
        let nshards = self.services.len();
        let outer = (self.config.threads.max(1) / pending.len().max(1)).clamp(1, nshards.max(1));
        // Per shard: (live query indices, skipped query indices, cached
        // partial results, report if any query was live). Computed
        // possibly out of order, always merged in shard order below.
        type ShardRun = (
            Vec<usize>,
            Vec<usize>,
            Vec<(usize, Arc<Vec<u64>>)>,
            Option<BatchReport>,
        );
        let run_shard = |s: usize| -> Result<ShardRun> {
            let service = &self.services[s];
            let entry = &self.index.manifest().shards[s];
            // Shard-skip pruning: this shard's own stats segment can
            // prove a query empty here before any list is opened. The
            // probes run through the per-shard service's StatsCache, so
            // repeat batches pay one B+Tree descent per key per shard
            // lifetime, not per query.
            let probe_ctx = ExecContext {
                stats: Some(service.stats.clone()),
                ..ExecContext::default()
            };
            let mut live: Vec<usize> = Vec::with_capacity(pending.len());
            let mut skipped: Vec<usize> = Vec::new();
            let mut cached: Vec<(usize, Arc<Vec<u64>>)> = Vec::new();
            for &i in &pending {
                let cover = &covers[i];
                // Phase-0 probe first: a cached partial (positive or
                // negative) answers this shard without even the
                // provably-empty stats probes.
                if let Some(partial) = preprobe.get(i).and_then(|row| row[s].clone()) {
                    cached.push((i, partial));
                    continue;
                }
                if shard_provably_empty_with(
                    service.index(),
                    &cover.subtrees,
                    si_core::PlannerMode::CostBased,
                    &probe_ctx,
                )? {
                    skipped.push(i);
                    // A proven-empty shard is a zero answer known
                    // without opening a list — store it as an explicit
                    // negative entry so the repeat query skips even
                    // the stats probes.
                    if let (Some(rcache), Some(keys)) = (&self.results, &keys) {
                        rcache.insert(
                            &keys[i],
                            coding,
                            entry.id,
                            entry.generation,
                            Arc::new(Vec::new()),
                        );
                    }
                } else {
                    live.push(i);
                }
            }
            if live.is_empty() {
                return Ok((live, skipped, cached, None));
            }
            let shard_queries: Vec<Query> = live.iter().map(|&i| queries[i].clone()).collect();
            let report = service.run_batch(&shard_queries)?;
            if let (Some(rcache), Some(keys)) = (&self.results, &keys) {
                for (&i, outcome) in live.iter().zip(&report.outcomes) {
                    let packed: Vec<u64> = outcome
                        .result
                        .matches
                        .iter()
                        .map(|&(tid, pre)| pack_match(tid, pre))
                        .collect();
                    rcache.insert(
                        &keys[i],
                        coding,
                        entry.id,
                        entry.generation,
                        Arc::new(packed),
                    );
                }
            }
            Ok((live, skipped, cached, Some(report)))
        };
        if pending.is_empty() {
            // Every query answered from the cache (or the batch was
            // empty): no shard pass at all.
        } else {
            let slots: Vec<Mutex<Option<Result<ShardRun>>>> =
                self.services.iter().map(|_| Mutex::new(None)).collect();
            if outer == 1 {
                for (s, slot) in slots.iter().enumerate() {
                    *slot.lock().unwrap() = Some(run_shard(s));
                }
            } else {
                let next_shard = AtomicUsize::new(0);
                std::thread::scope(|scope| {
                    for _ in 0..outer {
                        scope.spawn(|| loop {
                            let s = next_shard.fetch_add(1, Ordering::Relaxed);
                            if s >= nshards {
                                break;
                            }
                            *slots[s].lock().unwrap() = Some(run_shard(s));
                        });
                    }
                });
            }
            for (entry, slot) in self.index.manifest().shards.iter().zip(slots) {
                let (live, skipped, cached, report) =
                    slot.into_inner().unwrap().expect("shard ran")?;
                for i in skipped {
                    outcomes[i].result.stats.shards_skipped += 1;
                }
                // Cached partials splice into the same shard-order walk as
                // evaluated ones, so the concatenated global set stays
                // sorted regardless of where each shard's answer came from.
                for (i, partial) in cached {
                    reused[i] += 1;
                    negative[i] += u64::from(partial.is_empty());
                    outcomes[i].result.matches.extend(partial.iter().map(|&p| {
                        let (tid, pre) = unpack_match(p);
                        (entry.base + tid, pre)
                    }));
                }
                let Some(report) = report else { continue };
                shared_keys += report.shared_keys;
                shared_consumers += report.shared_consumers;
                for (&i, outcome) in live.iter().zip(report.outcomes) {
                    evaluated[i] = true;
                    let out = &mut outcomes[i];
                    // Shards ascend in tid order and their answers are
                    // tid-disjoint: appending keeps the global set sorted.
                    out.result.matches.extend(
                        outcome
                            .result
                            .matches
                            .iter()
                            .map(|&(tid, pre)| (entry.base + tid, pre)),
                    );
                    merge_shard_stats(&mut out.result.stats, &outcome.result.stats);
                    out.seconds += outcome.seconds;
                    // Shard-merge aware timings: fold this shard's span
                    // tree in under a `shard-N` group node, mirroring the
                    // core sharded executor's presentation.
                    if let Some(snap) = &outcome.timings {
                        out.timings
                            .get_or_insert_with(TimingsSnapshot::default)
                            .absorb(snap, &format!("shard-{}", entry.id));
                    }
                }
            }
        }
        if self.results.is_some() {
            for (i, out) in outcomes.iter_mut().enumerate() {
                let s = &mut out.result.stats;
                // The inner services run with result caching disabled,
                // so these counters are exclusively this layer's. A
                // query no shard evaluated that reused at least one
                // cached partial (the rest skip-pruned at worst) is a
                // whole-query hit; cached partials riding along an
                // evaluation are the reuses that make an ingest
                // invalidate only the shards it touched. A cold query
                // every shard skip-pruned counts as neither — the
                // cache played no part in answering it.
                if evaluated[i] {
                    s.result_misses = 1;
                    s.partial_reuses = reused[i];
                } else if reused[i] > 0 {
                    s.result_hits = 1;
                }
                s.negative_hits = negative[i];
            }
        }
        for o in &outcomes {
            self.latency.record_secs(o.seconds);
        }
        if self.config.collect_metrics {
            // Exactly-once fold of the final merged per-query stats —
            // the inner shard services share the cells but never fold.
            self.metrics.fold_batch(&outcomes);
        }
        Ok(BatchReport {
            latency: batch_latency(&outcomes),
            outcomes,
            wall_seconds: started.elapsed().as_secs_f64(),
            shared_keys,
            shared_consumers,
        })
    }
}

/// The batch service over either index layout — the service-level
/// mirror of `si_core::AnyIndex`, so embedders (the CLI's `si batch` /
/// `si serve` included) get one dispatch seam instead of re-writing
/// it: monolithic directories get the shared-scan [`QueryService`],
/// sharded ones the scatter-gather [`ShardedQueryService`].
pub enum AnyQueryService {
    /// Service over a single `index.bt` directory.
    Mono(QueryService),
    /// Service over a `MANIFEST.si` directory of tid-range shards.
    Sharded(ShardedQueryService),
}

impl AnyQueryService {
    /// Opens `dir` and wraps the matching service (sharded when
    /// `MANIFEST.si` is present).
    pub fn open(dir: &std::path::Path, config: ServiceConfig) -> Result<Self> {
        Ok(if ShardedIndex::is_sharded(dir) {
            AnyQueryService::Sharded(ShardedQueryService::new(
                Arc::new(ShardedIndex::open(dir)?),
                config,
            ))
        } else {
            AnyQueryService::Mono(QueryService::new(
                Arc::new(SubtreeIndex::open(dir)?),
                config,
            ))
        })
    }

    /// The interner queries should be parsed against.
    pub fn interner(&self) -> si_parsetree::LabelInterner {
        match self {
            AnyQueryService::Mono(s) => s.index().interner(),
            AnyQueryService::Sharded(s) => s.index().interner(),
        }
    }

    /// The configured batch size for line-oriented serving.
    pub fn batch_size(&self) -> usize {
        match self {
            AnyQueryService::Mono(s) => s.batch_size(),
            AnyQueryService::Sharded(s) => s.batch_size(),
        }
    }

    /// Evaluates a batch on whichever layout is open; results arrive in
    /// input order and match the sequential executor exactly.
    pub fn run_batch(&self, queries: &[Query]) -> Result<BatchReport> {
        match self {
            AnyQueryService::Mono(s) => s.run_batch(queries),
            AnyQueryService::Sharded(s) => s.run_batch(queries),
        }
    }

    /// Block-cache counters (summed across shards when sharded).
    pub fn cache_stats(&self) -> BlockCacheStats {
        match self {
            AnyQueryService::Mono(s) => s.cache_stats(),
            AnyQueryService::Sharded(s) => s.cache_stats(),
        }
    }

    /// Result-cache counters, when a result cache is configured
    /// ([`ServiceConfig::result_cache_mb`] > 0).
    pub fn result_cache_stats(&self) -> Option<ResultCacheStats> {
        match self {
            AnyQueryService::Mono(s) => s.result_cache_stats(),
            AnyQueryService::Sharded(s) => s.result_cache_stats(),
        }
    }

    /// Cross-batch tuple-pool counters (summed across shards when
    /// sharded) — how often shared-scan vectors were re-served without
    /// a re-decode.
    pub fn pool_stats(&self) -> TuplePoolStats {
        match self {
            AnyQueryService::Mono(s) => s.pool_stats(),
            AnyQueryService::Sharded(s) => s.pool_stats(),
        }
    }

    /// Cumulative per-query latency quantiles (nanoseconds) across
    /// every batch this service has run.
    pub fn latency_summary(&self) -> HistogramSummary {
        match self {
            AnyQueryService::Mono(s) => s.latency_summary(),
            AnyQueryService::Sharded(s) => s.latency_summary(),
        }
    }

    /// The metrics spine this service records into.
    pub fn metrics(&self) -> &ServiceMetrics {
        match self {
            AnyQueryService::Mono(s) => s.metrics(),
            AnyQueryService::Sharded(s) => s.metrics(),
        }
    }

    /// Mirrors every subsystem's counters into the registry and returns
    /// a full snapshot — one call per telemetry tick.
    pub fn sync_metrics(&self) -> MetricsSnapshot {
        match self {
            AnyQueryService::Mono(s) => s.sync_metrics(),
            AnyQueryService::Sharded(s) => s.sync_metrics(),
        }
    }

    /// The read path the open index serves from: `"mmap"` when every
    /// B+Tree is a read-only mapping, `"buffered"` otherwise (any
    /// fallback demotes the whole answer — operators care about the
    /// slowest member).
    pub fn read_path(&self) -> &'static str {
        let mapped = match self {
            AnyQueryService::Mono(s) => s.index().is_mapped(),
            AnyQueryService::Sharded(s) => s.index().shards().iter().all(|sh| sh.is_mapped()),
        };
        if mapped {
            "mmap"
        } else {
            "buffered"
        }
    }

    /// The configured result-cache budget in MiB (0 = disabled).
    pub fn result_cache_mb(&self) -> usize {
        match self {
            AnyQueryService::Mono(s) => s.config.result_cache_mb,
            AnyQueryService::Sharded(s) => s.config.result_cache_mb,
        }
    }
}
