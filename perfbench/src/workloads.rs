//! The three closed-loop workloads. One client issues each operation
//! and waits for its answer before issuing the next.
//!
//! * `oneshot` — the interactive `si query` path: a freshly opened
//!   handle per query, no block cache, no result cache, no service.
//! * `batch_scan` — `QueryService::run_batch` over batches of 64
//!   queries that all reach the posting scans, with a block cache
//!   smaller than the decoded working set and no result cache.
//! * `zipf_ingest` — a Zipf(1.0) query stream through the sharded
//!   service with both caches, interleaved with ingests of held-back
//!   trees and a service reopen that keeps the result cache.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use si_core::cover::decompose;
use si_core::plan::{plan_structural_with, PlannerMode, DEFAULT_ROOT_PREF_FACTOR};
use si_core::stats::intersect_tid_ranges;
use si_core::{
    AnyIndex, BlockCacheConfig, EvalStats, ExecContext, KeyStats, ResultCache, ResultCacheConfig,
    ShardBuildMode, ShardedBuildConfig, ShardedIndex, SubtreeIndex,
};
use si_corpus::rng::StdRng;
use si_parsetree::LabelInterner;
use si_query::{match_roots, parse_query, Query};
use si_service::{QueryService, ServiceConfig, ShardedQueryService};

use crate::setup::{
    copy_dir, dir_bytes, prefix, shuffle, timed, Inputs, Matches, Reference, OPTIONS,
};
use crate::trace::Tracer;
use crate::Scale;

/// Service query threads and build workers (the machine has 2 cores).
pub const THREADS: usize = 2;
/// Queries per `batch_scan` batch (the service's serving batch size).
pub const BATCH: usize = 64;
/// `batch_scan` block-cache budget: under a quarter of the decoded
/// working set (about 72 MiB at 100k trees; each run prints it as
/// `decoded_working_set_mib`), so scans keep decoding.
pub const BATCH_SCAN_CACHE_MB: usize = 16;
/// Passes of an untraced `batch_scan` run, each over the same batches
/// from a freshly warmed service. Every query of a batch gets the
/// batch's wall, so p99 is the slowest batch of a pass: on a 2-vCPU VM
/// whose speed halves for a second at a time, the slowest of 40
/// batches moved p99 by 0.3 (IQR/median) between seeds, while two runs
/// of one seed ordered their batches by wall with a correlation of only
/// 0.36. The median over 4 passes of 16 batches each rides out a slow
/// moment: five seeds then spread 0.11.
pub const BATCH_SCAN_PASSES: usize = 4;
/// `zipf_ingest` caches: the CLI defaults for `si batch` / `si serve`.
pub const ZIPF_BLOCK_CACHE_MB: usize = 64;
pub const ZIPF_RESULT_CACHE_MB: usize = 32;
/// Shards of the initial `zipf_ingest` build.
pub const ZIPF_SHARDS: usize = 4;
/// Ingests per `zipf_ingest` pass; each appends one shard.
pub const ZIPF_INGESTS: usize = 4;
/// `zipf_ingest` stream length per second of run budget. The stream
/// has a fixed length, not a deadline: cache hits take microseconds, so
/// a timed stream would end with a hit share, and so a p99, that
/// depends on the machine's speed. At 2,000 per second, p99 fell where
/// the full misses (a query's first ask) meet the partial misses after
/// an ingest, and it spread 0.3 (IQR/median) between seeds; at 500 per
/// second it spread 0.08 over the same five seeds.
pub const ZIPF_QUERIES_PER_SECOND: usize = 500;
/// Passes of an untraced `zipf_ingest` run, each a fresh stream from the
/// initial index with empty caches. A pass times only a few seconds of
/// client work, 4 ingests of which carry much of the wall, so one pass
/// of one seed gave p99 from 5.3 to 8.0 ms and throughput from 1,330
/// to 1,740 queries per second; the median over passes rides that out.
pub const ZIPF_PASSES: usize = 5;

/// Sums of the program's per-query evaluation statistics.
#[derive(Debug, Default, Clone, Copy)]
pub struct EvalAgg {
    pub queries: u64,
    pub matches: u64,
    pub postings_fetched: u64,
    pub validated_trees: u64,
    pub range_pruned: u64,
    pub pager_hits: u64,
    pub pager_misses: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub postings_borrowed: u64,
    pub sorts_avoided: u64,
    pub shards: u64,
    pub shards_skipped: u64,
    pub seeks: u64,
    pub partial_reuses: u64,
}

impl EvalAgg {
    fn add(&mut self, s: &EvalStats, matches: usize) {
        self.queries += 1;
        self.matches += matches as u64;
        self.postings_fetched += s.postings_fetched as u64;
        self.validated_trees += s.validated_trees as u64;
        self.range_pruned += s.range_pruned as u64;
        self.pager_hits += s.pager_hits;
        self.pager_misses += s.pager_misses;
        self.cache_hits += s.cache_hits;
        self.cache_misses += s.cache_misses;
        self.postings_borrowed += s.postings_borrowed;
        self.sorts_avoided += s.sort_exchanges_avoided as u64;
        self.shards += s.shards as u64;
        self.shards_skipped += s.shards_skipped as u64;
        self.seeks += s.seeks;
        self.partial_reuses += s.partial_reuses;
    }
}

/// Counts the benchmark's own layer probes make, next to their spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct ProbeCounts {
    /// Cover keys produced by `cover.decompose` probes.
    pub cover_keys: u64,
    pub decompose_calls: u64,
    /// Postings and encoded bytes drained by `coding.decode` probes.
    pub postings_drained: u64,
    pub bytes_drained: u64,
    /// Trees fetched and matched by `validate` probes.
    pub trees_validated: u64,
}

/// What one pass over the workload measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// Operations issued (queries, batches and ingests).
    pub ops: usize,
    /// Per-query latency samples, nanoseconds.
    pub latencies_ns: Vec<u64>,
    /// Wall nanoseconds of the timed client operations.
    pub wall_ns: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Ingest plus service reopen, nanoseconds.
    pub ingest_ns: Vec<u64>,
    pub eval: EvalAgg,
    pub probes: ProbeCounts,
    /// Service layer: batches, summed batch wall and worker seconds.
    pub batches: u64,
    pub batch_wall_s: f64,
    pub worker_busy_s: f64,
    pub shared_keys: u64,
    /// Process-wide prefetch pages `(issued, useful)` during the pass.
    pub prefetch: (u64, u64),
    /// Live heap when the pass starts and its peak during the pass, MiB.
    pub start_heap_mib: f64,
    pub peak_heap_mib: f64,
    /// Resident set size when the pass starts and its peak during the
    /// pass, MiB.
    pub start_rss_mib: f64,
    pub peak_rss_mib: f64,
}

impl Pass {
    fn check(&mut self, got: &[(u32, u32)], want: &[(u32, u32)], what: &str) {
        self.attempted += 1;
        if got != want {
            self.failed += 1;
            if self.failed <= 3 {
                eprintln!(
                    "wrong answer for {what:?}: {} matches, reference has {}",
                    got.len(),
                    want.len()
                );
            }
        }
    }

    fn error(&mut self, what: &str, e: impl std::fmt::Display) {
        self.attempted += 1;
        self.failed += 1;
        if self.failed <= 3 {
            eprintln!("error on {what:?}: {e}");
        }
    }
}

/// Cumulative counters of the program's caches and services.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerCounters {
    pub blockcache_evictions: u64,
    pub tuplepool_hits: u64,
    pub tuplepool_misses: u64,
    pub resultcache_hits: u64,
    pub resultcache_misses: u64,
}

impl LayerCounters {
    /// Field-wise `self - earlier`, saturating. `zipf_ingest` reopens
    /// its service at each ingest, so its block-cache and tuple-pool
    /// counters cover the last service only.
    pub fn since(&self, earlier: &Self) -> Self {
        let d = u64::saturating_sub;
        Self {
            blockcache_evictions: d(self.blockcache_evictions, earlier.blockcache_evictions),
            tuplepool_hits: d(self.tuplepool_hits, earlier.tuplepool_hits),
            tuplepool_misses: d(self.tuplepool_misses, earlier.tuplepool_misses),
            resultcache_hits: d(self.resultcache_hits, earlier.resultcache_hits),
            resultcache_misses: d(self.resultcache_misses, earlier.resultcache_misses),
        }
    }
}

/// A workload: its set-up has happened; it issues operation `i` of a
/// deterministic sequence and can be reset to its state after set-up.
pub trait Workload {
    /// Operations in a pass when the workload runs a fixed schedule;
    /// `None` runs for the time and sample budget.
    fn fixed_ops(&self) -> Option<usize> {
        None
    }
    /// A pass run for its time and sample budget ends only after a
    /// whole number of cycles of this many operations.
    fn cycle(&self) -> usize {
        1
    }
    /// Untraced passes a `--trace 0` run measures, each from the state
    /// after set-up; the end-to-end metrics are their medians.
    fn passes(&self) -> usize {
        1
    }
    fn op(&mut self, i: usize, tracer: &mut Tracer, pass: &mut Pass);
    /// Cumulative counters of the program's caches and services.
    fn counters(&self) -> LayerCounters {
        LayerCounters::default()
    }
    /// Returns to the state right after set-up (fresh caches, the
    /// initial index) for pass number `pass`. Pass 0 repeats the first
    /// pass; a workload with several passes may give each its own
    /// operation sequence.
    fn reset(&mut self, pass: usize) -> Result<(), String>;
}

/// Facts a workload's set-up reports.
pub struct SetupReport {
    /// Wall seconds of each index build plus open.
    pub setup_s: Vec<f64>,
    /// Trees each build indexed.
    pub trees_built: usize,
    /// Index directory bytes over input PTB bytes, at the final size.
    pub index_bytes_per_input_byte: f64,
    /// Extra facts for the run report, as `(key, JSON value)`.
    pub facts: Vec<(&'static str, String)>,
}

/// Builds a monolithic index over all trees `reps` times; returns the
/// last build's opened handle.
fn build_mono(
    dir: &Path,
    inputs: &Inputs,
    reps: usize,
) -> Result<(SubtreeIndex, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut index = None;
    for _ in 0..reps {
        remove(dir);
        let (opened, secs) = timed(|| {
            SubtreeIndex::build(dir, inputs.trees(), inputs.interner(), OPTIONS).and_then(|built| {
                drop(built);
                SubtreeIndex::open(dir)
            })
        });
        index = Some(opened.map_err(|e| format!("monolithic build: {e}"))?);
        times.push(secs);
    }
    Ok((index.expect("at least one build"), times))
}

fn remove(dir: &Path) {
    if dir.exists() {
        std::fs::remove_dir_all(dir).expect("remove previous index directory");
    }
}

/// Statistics of `q`'s cover keys; `None` when some key is absent (the
/// query is answered empty before any scan).
fn cover_stats(index: &SubtreeIndex, q: &Query) -> Result<Option<Vec<KeyStats>>, String> {
    let cover = decompose(q, OPTIONS.mss, OPTIONS.coding);
    let mut out = Vec::new();
    for st in &cover.subtrees {
        match index.key_stats(&st.key).map_err(|e| e.to_string())? {
            Some(s) => out.push(s),
            None => return Ok(None),
        }
    }
    Ok(Some(out))
}

// --------------------------------------------------------------------
// oneshot
// --------------------------------------------------------------------

pub struct Oneshot {
    dir: PathBuf,
    /// The query pool's text; the workload keeps no parsed trees.
    pool: Vec<String>,
    reference: Reference,
    /// Pool indices in seeded order, reshuffled every cycle.
    order: Vec<usize>,
}

impl Oneshot {
    pub fn setup(
        work: &Path,
        inputs: &Inputs,
        seed: u64,
        scale: &Scale,
    ) -> Result<(Self, SetupReport), String> {
        let dir = work.join("mono");
        let (mut index, setup_s) = build_mono(&dir, inputs, scale.setup_reps)?;
        let reference = Reference::compute(&mut index, inputs, seed, scale.matcher_sample)?;
        drop(index);
        let report = SetupReport {
            setup_s,
            trees_built: inputs.trees().len(),
            index_bytes_per_input_byte: dir_bytes(&dir) as f64
                / inputs.input_bytes(inputs.trees().len()) as f64,
            facts: vec![
                ("pool_queries", inputs.pool.len().to_string()),
                ("matcher_checked", reference.matcher_checked.to_string()),
            ],
        };
        let order = cycle_order(inputs.pool.len(), seed, 64 * inputs.pool.len());
        Ok((
            Self {
                dir,
                pool: inputs.pool.clone(),
                reference,
                order,
            },
            report,
        ))
    }

    pub fn corrupt_reference(&mut self) {
        self.reference.corrupt(&self.order);
    }
}

/// `len` pool indices: seeded shuffles of `0..pool` back to back.
fn cycle_order(pool: usize, seed: u64, len: usize) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4f52_4445);
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let mut cycle: Vec<usize> = (0..pool).collect();
        shuffle(&mut cycle, &mut rng);
        out.extend(cycle);
    }
    out
}

impl Workload for Oneshot {
    /// Whole cycles of the pool, so every query is asked equally often.
    /// Cut mid-cycle, the seed's shuffle decided which queries got one
    /// ask more than the rest, and p99 (the 11th slowest of about 1,000
    /// samples) falls among the few heaviest queries' samples.
    fn cycle(&self) -> usize {
        self.pool.len()
    }

    fn op(&mut self, i: usize, tracer: &mut Tracer, pass: &mut Pass) {
        let qi = self.order[i % self.order.len()];
        let text = &self.pool[qi];
        let ctx = ExecContext::default();
        tracer.begin_op("query");
        let start = Instant::now();
        let answer = (|| -> Result<Matches, String> {
            let (index, mut interner) = tracer
                .layer("index.open", || {
                    AnyIndex::open(&self.dir).map(|index| {
                        let interner = index.interner();
                        (index, interner)
                    })
                })
                .map_err(|e| e.to_string())?;
            let q = tracer
                .layer("query.parse", || parse_query(text, &mut interner))
                .map_err(|e| e.to_string())?;
            if tracer.enabled() {
                let AnyIndex::Mono(mono) = &index else {
                    return Err("oneshot index is not monolithic".into());
                };
                probe_front_end(tracer, pass, mono, &q, "stats.first_lookup")?;
            }
            let result = tracer
                .layer("exec.evaluate", || index.evaluate_with(&q, &ctx))
                .map_err(|e| e.to_string())?;
            tracer.layer("index.close", || drop(index));
            pass.eval.add(&result.stats, result.len());
            Ok(result.matches)
        })();
        let ns = start.elapsed().as_nanos() as u64;
        tracer.end_op();
        pass.ops += 1;
        pass.wall_ns += ns;
        match answer {
            Ok(matches) => {
                pass.latencies_ns.push(ns);
                pass.check(&matches, &self.reference.answers[qi], text);
            }
            Err(e) => pass.error(text, e),
        }
    }

    fn reset(&mut self, _pass: usize) -> Result<(), String> {
        Ok(())
    }
}

/// The planning front end as separate layer calls: decompose, one
/// stats lookup per cover key (the first named `first_lookup`), the
/// planner, and one B+Tree descent per key.
fn probe_front_end(
    tracer: &mut Tracer,
    pass: &mut Pass,
    index: &SubtreeIndex,
    q: &Query,
    first_lookup: &'static str,
) -> Result<(), String> {
    let cover = tracer.layer("cover.decompose", || {
        decompose(q, OPTIONS.mss, OPTIONS.coding)
    });
    pass.probes.decompose_calls += 1;
    pass.probes.cover_keys += cover.subtrees.len() as u64;
    let mut stats = Vec::new();
    for (k, st) in cover.subtrees.iter().enumerate() {
        let name = if k == 0 { first_lookup } else { "stats.lookup" };
        match tracer
            .layer(name, || index.key_stats(&st.key))
            .map_err(|e| e.to_string())?
        {
            Some(s) => stats.push(s),
            None => return Ok(()),
        }
    }
    if intersect_tid_ranges(&stats).is_none() {
        return Ok(());
    }
    tracer.layer("plan.plan", || {
        std::hint::black_box(plan_structural_with(
            q,
            &cover,
            OPTIONS.coding,
            &stats,
            PlannerMode::default(),
            DEFAULT_ROOT_PREF_FACTOR,
        ))
    });
    for st in &cover.subtrees {
        tracer
            .layer("btree.descent", || index.posting_len(&st.key))
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

// --------------------------------------------------------------------
// batch_scan
// --------------------------------------------------------------------

pub struct BatchScan {
    index: Arc<SubtreeIndex>,
    service: QueryService,
    config: ServiceConfig,
    interner: LabelInterner,
    /// The query pool's text; the workload keeps no parsed trees.
    pool: Vec<String>,
    reference: Reference,
    /// Pool indices of the queries that reach the scan layer.
    order: Vec<usize>,
    /// The scan pool, run once through a fresh service before timing.
    warmup: Vec<Query>,
}

/// A service whose block cache and tuple pool have seen every scan-pool
/// query once, so timing starts in the steady state.
fn warmed_service(
    index: &Arc<SubtreeIndex>,
    config: ServiceConfig,
    warmup: &[Query],
) -> Result<QueryService, String> {
    let service = QueryService::new(index.clone(), config);
    for chunk in warmup.chunks(BATCH) {
        service
            .run_batch(chunk)
            .map_err(|e| format!("warm-up batch: {e}"))?;
    }
    Ok(service)
}

impl BatchScan {
    pub fn setup(
        work: &Path,
        inputs: &Inputs,
        seed: u64,
        scale: &Scale,
    ) -> Result<(Self, SetupReport), String> {
        let dir = work.join("mono");
        let (mut index, setup_s) = build_mono(&dir, inputs, scale.setup_reps)?;
        let reference = Reference::compute(&mut index, inputs, seed, scale.matcher_sample)?;
        // Membership from key_stats: every cover key present and the
        // per-key tid ranges intersect.
        let mut interner = index.interner();
        let mut scan_pool = Vec::new();
        for (i, text) in inputs.pool.iter().enumerate() {
            let q = parse_query(text, &mut interner).map_err(|e| e.to_string())?;
            if let Some(stats) = cover_stats(&index, &q)? {
                if intersect_tid_ranges(&stats).is_some() {
                    scan_pool.push(i);
                }
            }
        }
        if scan_pool.is_empty() {
            return Err("no pool query reaches the scan layer".into());
        }
        let index = Arc::new(index);
        // The decoded working set: one pass of the scan pool through a
        // block cache large enough never to evict.
        let roomy = service_config(1 << 30, 0);
        let probe = QueryService::new(index.clone(), roomy);
        let queries: Vec<Query> = scan_pool
            .iter()
            .map(|&i| parse_query(&inputs.pool[i], &mut interner).expect("parsed above"))
            .collect();
        for chunk in queries.chunks(BATCH) {
            probe
                .run_batch(chunk)
                .map_err(|e| format!("working-set pass: {e}"))?;
        }
        let working_set = probe.cache_stats().peak_bytes;
        drop(probe);

        let config = service_config(BATCH_SCAN_CACHE_MB << 20, 0);
        let report = SetupReport {
            setup_s,
            trees_built: inputs.trees().len(),
            index_bytes_per_input_byte: dir_bytes(&dir) as f64
                / inputs.input_bytes(inputs.trees().len()) as f64,
            facts: vec![
                ("pool_queries", inputs.pool.len().to_string()),
                ("scan_pool_queries", scan_pool.len().to_string()),
                ("matcher_checked", reference.matcher_checked.to_string()),
                (
                    "decoded_working_set_mib",
                    format!("{:.2}", working_set as f64 / (1u64 << 20) as f64),
                ),
                ("block_cache_mib", BATCH_SCAN_CACHE_MB.to_string()),
                ("result_cache_mib", "0".into()),
                ("batch_queries", BATCH.to_string()),
            ],
        };
        let order = cycle_order(scan_pool.len(), seed, 64 * scan_pool.len().max(BATCH))
            .into_iter()
            .map(|k| scan_pool[k])
            .collect();
        Ok((
            Self {
                service: warmed_service(&index, config, &queries)?,
                index,
                config,
                interner,
                pool: inputs.pool.clone(),
                reference,
                order,
                warmup: queries,
            },
            report,
        ))
    }

    pub fn corrupt_reference(&mut self) {
        self.reference.corrupt(&self.order);
    }
}

/// Service settings shared by the workloads: 2 threads, the given
/// block-cache and result-cache budgets, everything else default.
fn service_config(block_cache_bytes: usize, result_cache_mb: usize) -> ServiceConfig {
    ServiceConfig {
        threads: THREADS,
        cache: BlockCacheConfig::with_budget(block_cache_bytes),
        result_cache_mb,
        ..ServiceConfig::default()
    }
}

impl Workload for BatchScan {
    fn passes(&self) -> usize {
        BATCH_SCAN_PASSES
    }

    fn op(&mut self, i: usize, tracer: &mut Tracer, pass: &mut Pass) {
        let picks: Vec<usize> = (0..BATCH)
            .map(|k| self.order[(i * BATCH + k) % self.order.len()])
            .collect();
        tracer.begin_op("batch");
        let start = Instant::now();
        let mut queries = Vec::with_capacity(BATCH);
        let mut parse_failed = None;
        for &qi in &picks {
            let text = &self.pool[qi];
            match tracer.layer("query.parse", || parse_query(text, &mut self.interner)) {
                Ok(q) => queries.push(q),
                Err(e) => parse_failed = Some(e.to_string()),
            }
        }
        let report = match parse_failed {
            Some(e) => Err(e),
            None => tracer
                .layer("service.batch", || self.service.run_batch(&queries))
                .map_err(|e| e.to_string()),
        };
        let batch_ns = start.elapsed().as_nanos() as u64;
        if tracer.enabled() {
            // One query per batch also goes through the layers one call
            // at a time on the shared handle, with no caches.
            let k = i % BATCH;
            if let Some(q) = queries.get(k) {
                if let Err(e) = probe_scan_layers(tracer, pass, &self.index, q) {
                    pass.error(&self.pool[picks[k]], e);
                }
            }
        }
        tracer.end_op();
        pass.ops += 1;
        pass.wall_ns += batch_ns;
        match report {
            Ok(report) => {
                pass.batches += 1;
                pass.batch_wall_s += report.wall_seconds;
                pass.shared_keys += report.shared_keys as u64;
                for (outcome, &qi) in report.outcomes.iter().zip(&picks) {
                    // The batch answers all its queries at once, so each
                    // waited the batch's client wall.
                    pass.latencies_ns.push(batch_ns);
                    pass.worker_busy_s += outcome.seconds;
                    pass.eval.add(&outcome.result.stats, outcome.result.len());
                    pass.check(
                        &outcome.result.matches,
                        &self.reference.answers[qi],
                        &self.pool[qi],
                    );
                }
            }
            Err(e) => {
                for &qi in &picks {
                    pass.error(&self.pool[qi], &e);
                }
            }
        }
    }

    fn counters(&self) -> LayerCounters {
        let pool = self.service.pool_stats();
        LayerCounters {
            blockcache_evictions: self.service.cache_stats().evictions,
            tuplepool_hits: pool.hits,
            tuplepool_misses: pool.misses,
            ..LayerCounters::default()
        }
    }

    fn reset(&mut self, _pass: usize) -> Result<(), String> {
        self.service = warmed_service(&self.index, self.config, &self.warmup)?;
        Ok(())
    }
}

/// Cover, stats, planning and descent, then decode (drain every cover
/// key's posting cursor), seek (a fresh cursor on the largest key
/// jumps to the common tid range), whole-query evaluation on the warm
/// handle with no caches, and validation (fetch each matched tree from
/// the store and run the matcher on it).
fn probe_scan_layers(
    tracer: &mut Tracer,
    pass: &mut Pass,
    index: &Arc<SubtreeIndex>,
    q: &Query,
) -> Result<(), String> {
    probe_front_end(tracer, pass, index, q, "stats.lookup")?;
    let cover = decompose(q, OPTIONS.mss, OPTIONS.coding);
    let mut stats = Vec::new();
    for st in &cover.subtrees {
        let Some(s) = index.key_stats(&st.key).map_err(|e| e.to_string())? else {
            return Ok(());
        };
        let drained = tracer
            .layer("coding.decode", || drain(index, &st.key))
            .map_err(|e| e.to_string())?;
        pass.probes.postings_drained += drained;
        pass.probes.bytes_drained += s.bytes;
        stats.push(s);
    }
    if let Some((lo, _)) = intersect_tid_ranges(&stats) {
        let largest = (0..stats.len())
            .max_by_key(|&k| stats[k].postings)
            .expect("cover has a key");
        tracer
            .layer("coding.seek", || -> si_storage::Result<u64> {
                let mut cursor = index
                    .posting_cursor(&cover.subtrees[largest].key)?
                    .expect("key present");
                cursor.seek_to_tid(lo)
            })
            .map_err(|e| e.to_string())?;
    }
    let result = tracer
        .layer("exec.evaluate", || {
            index.evaluate_with(q, &ExecContext::default())
        })
        .map_err(|e| e.to_string())?;
    let mut tids: Vec<u32> = result.matches.iter().map(|&(tid, _)| tid).collect();
    tids.dedup();
    tids.truncate(16);
    let checked = tracer
        .layer("validate", || -> si_storage::Result<usize> {
            let mut roots = 0;
            for &tid in &tids {
                let tree = index.store().get(tid)?;
                roots += match_roots(&tree, q).len();
            }
            Ok(roots)
        })
        .map_err(|e| e.to_string())?;
    std::hint::black_box(checked);
    pass.probes.trees_validated += tids.len() as u64;
    Ok(())
}

/// Decodes `key`'s whole posting list through a streaming cursor;
/// returns the postings decoded.
fn drain(index: &SubtreeIndex, key: &[u8]) -> si_storage::Result<u64> {
    let mut n = 0;
    if let Some(mut cursor) = index.posting_cursor(key)? {
        while cursor.next_posting()?.is_some() {
            n += 1;
        }
    }
    Ok(n)
}

// --------------------------------------------------------------------
// zipf_ingest
// --------------------------------------------------------------------

/// Samples ranks `0..k` with `P(r) ∝ 1/(r+1)^s`.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(k: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let cdf = (1..=k)
            .map(|r| {
                acc += 1.0 / (r as f64).powf(s);
                acc
            })
            .collect();
        Self { cdf }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let total = *self.cdf.last().expect("nonempty pool");
        let u = rng.gen::<f64>() * total;
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

pub struct ZipfIngest<'a> {
    dir: PathBuf,
    /// A copy of the initial sharded index, restored by `reset`.
    pristine: PathBuf,
    inputs: &'a Inputs,
    reference: Reference,
    /// Trees in the initial sharded build; the rest are ingested.
    initial: usize,
    /// Trees per ingested shard.
    chunk: usize,
    /// Queries between ingests.
    every: usize,
    seed: u64,
    zipf: Zipf,
    /// Zipf rank to pool index: a seeded shuffle, reshuffled at every
    /// ingest, so popularity is tied neither to the pool's order nor to
    /// one hot set for the whole run.
    ranks: Vec<usize>,
    rng: StdRng,
    cache: Arc<ResultCache>,
    service: ShardedQueryService,
    interner: LabelInterner,
    /// Trees indexed right now; answers are the reference's prefix.
    ingested: usize,
}

impl<'a> ZipfIngest<'a> {
    /// Set-up for a stream of `queries` queries, an ingest after each
    /// fifth of them but the last.
    pub fn setup(
        work: &Path,
        inputs: &'a Inputs,
        seed: u64,
        scale: &Scale,
        queries: usize,
    ) -> Result<(Self, SetupReport), String> {
        let n = inputs.trees().len();
        let chunk = n / 20;
        let initial = n - ZIPF_INGESTS * chunk;
        // The answer key comes from a monolithic index over the full
        // corpus, built outside the timed set-up.
        let ref_dir = work.join("reference");
        let (mut mono, _) = build_mono(&ref_dir, inputs, 1)?;
        let reference = Reference::compute(&mut mono, inputs, seed, scale.matcher_sample)?;
        drop(mono);
        remove(&ref_dir);

        let dir = work.join("sharded");
        let mut setup_s = Vec::new();
        for _ in 0..scale.setup_reps {
            remove(&dir);
            let (built, secs) = timed(|| build_sharded(&dir, inputs, initial));
            built?;
            setup_s.push(secs);
        }
        let pristine = work.join("sharded-initial");
        copy_dir(&dir, &pristine).map_err(|e| format!("copy the initial index: {e}"))?;
        let cache = new_result_cache();
        let service = open_sharded_service(&dir, &cache)?;
        let interner = service.index().interner();
        let mut w = Self {
            dir,
            pristine,
            inputs,
            reference,
            initial,
            chunk,
            every: queries / (ZIPF_INGESTS + 1),
            seed,
            zipf: Zipf::new(inputs.pool.len(), 1.0),
            ranks: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
            cache,
            service,
            interner,
            ingested: initial,
        };
        w.restart_stream(0);
        let report = SetupReport {
            setup_s,
            trees_built: initial,
            index_bytes_per_input_byte: 0.0,
            facts: vec![
                ("pool_queries", inputs.pool.len().to_string()),
                ("matcher_checked", w.reference.matcher_checked.to_string()),
                ("initial_trees", initial.to_string()),
                ("shards", ZIPF_SHARDS.to_string()),
                ("ingests", ZIPF_INGESTS.to_string()),
                ("trees_per_ingest", chunk.to_string()),
                ("queries_between_ingests", w.every.to_string()),
                ("block_cache_mib", ZIPF_BLOCK_CACHE_MB.to_string()),
                ("result_cache_mib", ZIPF_RESULT_CACHE_MB.to_string()),
                ("zipf_s", "1.0".into()),
            ],
        };
        Ok((w, report))
    }

    /// Starts the seeded query stream of pass `pass`.
    fn restart_stream(&mut self, pass: usize) {
        self.rng = StdRng::seed_from_u64(
            (self.seed ^ 0x5354_5245).wrapping_add(pass as u64 * 0x9E37_79B9),
        );
        self.ranks = (0..self.inputs.pool.len()).collect();
        shuffle(&mut self.ranks, &mut self.rng);
    }

    /// Index bytes per input byte once every held-back tree is in.
    pub fn final_index_bytes_per_input_byte(&self) -> f64 {
        dir_bytes(&self.dir) as f64 / self.inputs.input_bytes(self.ingested) as f64
    }

    /// Corrupts the answer of the most popular query that has one.
    pub fn corrupt_reference(&mut self) {
        self.reference.corrupt(&self.ranks);
    }

    fn ingest(&mut self, tracer: &mut Tracer, pass: &mut Pass) {
        tracer.begin_op("ingest");
        let start = Instant::now();
        let trees = &self.inputs.trees()[self.ingested..self.ingested + self.chunk];
        let outcome = tracer
            .layer("shard.ingest", || {
                ShardedIndex::open(&self.dir)?.ingest(trees, self.inputs.interner())
            })
            .map_err(|e| e.to_string())
            .and_then(|_| {
                // The result cache outlives the service, so untouched
                // shards keep their cached partials.
                tracer.layer("shard.reopen", || {
                    open_sharded_service(&self.dir, &self.cache)
                })
            });
        let ns = start.elapsed().as_nanos() as u64;
        tracer.end_op();
        pass.ops += 1;
        pass.wall_ns += ns;
        match outcome {
            Ok(service) => {
                self.service = service;
                self.ingested += self.chunk;
                pass.ingest_ns.push(ns);
                shuffle(&mut self.ranks, &mut self.rng);
            }
            Err(e) => pass.error("ingest", e),
        }
    }
}

fn new_result_cache() -> Arc<ResultCache> {
    Arc::new(ResultCache::new(ResultCacheConfig::with_budget(
        ZIPF_RESULT_CACHE_MB << 20,
    )))
}

/// Builds the initial 4-shard index over the first `initial` trees
/// into the empty `dir` and opens it.
fn build_sharded(dir: &Path, inputs: &Inputs, initial: usize) -> Result<ShardedIndex, String> {
    ShardedIndex::build(
        dir,
        &inputs.trees()[..initial],
        inputs.interner(),
        OPTIONS,
        ShardedBuildConfig {
            shards: ZIPF_SHARDS,
            workers: THREADS,
            mode: ShardBuildMode::InMemory,
        },
    )
    .and_then(|built| {
        drop(built);
        ShardedIndex::open(dir)
    })
    .map_err(|e| format!("sharded build: {e}"))
}

fn open_sharded_service(
    dir: &Path,
    cache: &Arc<ResultCache>,
) -> Result<ShardedQueryService, String> {
    let index = ShardedIndex::open(dir).map_err(|e| format!("open sharded index: {e}"))?;
    Ok(ShardedQueryService::new(
        Arc::new(index),
        service_config(ZIPF_BLOCK_CACHE_MB << 20, 0),
    )
    .with_result_cache(cache.clone()))
}

impl Workload for ZipfIngest<'_> {
    fn fixed_ops(&self) -> Option<usize> {
        Some((self.every + 1) * ZIPF_INGESTS + self.every)
    }

    fn passes(&self) -> usize {
        ZIPF_PASSES
    }

    fn op(&mut self, i: usize, tracer: &mut Tracer, pass: &mut Pass) {
        if i < (self.every + 1) * ZIPF_INGESTS && i % (self.every + 1) == self.every {
            return self.ingest(tracer, pass);
        }
        let qi = self.ranks[self.zipf.sample(&mut self.rng)];
        let text = &self.inputs.pool[qi];
        tracer.begin_op("query");
        let start = Instant::now();
        let answer = tracer
            .layer("query.parse", || parse_query(text, &mut self.interner))
            .map_err(|e| e.to_string())
            .and_then(|q| {
                if tracer.enabled() {
                    let cover = tracer.layer("cover.decompose", || {
                        decompose(&q, OPTIONS.mss, OPTIONS.coding)
                    });
                    pass.probes.decompose_calls += 1;
                    pass.probes.cover_keys += cover.subtrees.len() as u64;
                }
                tracer
                    .layer("service.batch", || {
                        self.service.run_batch(std::slice::from_ref(&q))
                    })
                    .map_err(|e| e.to_string())
            });
        let ns = start.elapsed().as_nanos() as u64;
        tracer.end_op();
        pass.ops += 1;
        pass.wall_ns += ns;
        match answer {
            Ok(report) => {
                let outcome = &report.outcomes[0];
                pass.batches += 1;
                pass.batch_wall_s += report.wall_seconds;
                pass.worker_busy_s += outcome.seconds;
                pass.shared_keys += report.shared_keys as u64;
                pass.latencies_ns.push(ns);
                pass.eval.add(&outcome.result.stats, outcome.result.len());
                let want = prefix(&self.reference.answers[qi], self.ingested);
                pass.check(&outcome.result.matches, want, text);
            }
            Err(e) => pass.error(text, e),
        }
    }

    fn counters(&self) -> LayerCounters {
        let results = self.cache.stats();
        let pool = self.service.pool_stats();
        LayerCounters {
            blockcache_evictions: self.service.cache_stats().evictions,
            tuplepool_hits: pool.hits,
            tuplepool_misses: pool.misses,
            resultcache_hits: results.hits,
            resultcache_misses: results.misses,
        }
    }

    fn reset(&mut self, pass: usize) -> Result<(), String> {
        remove(&self.dir);
        copy_dir(&self.pristine, &self.dir)
            .map_err(|e| format!("restore the initial index: {e}"))?;
        self.cache = new_result_cache();
        self.service = open_sharded_service(&self.dir, &self.cache)?;
        self.ingested = self.initial;
        self.restart_stream(pass);
        Ok(())
    }
}
