//! Tid-range sharded indexes: parallel build, scatter-gather execution
//! and incremental ingest.
//!
//! A monolithic `index.bt` caps corpus size at single-file build
//! memory/time and serializes index construction. This module partitions
//! the corpus **by contiguous tree-id range** into N shards, each a full
//! self-contained [`SubtreeIndex`] (corpus store, B+Tree, stats
//! segment), described by a [`ShardManifest`] (`MANIFEST.si`, see
//! `si_storage::shard`). The paper's posting lists are tid-sorted under
//! all three codings (§4.4), which makes tid-range partitioning the
//! natural axis: shard-local match sets are disjoint and already
//! ordered, so the global answer is per-shard answers **concatenated**
//! in shard order with local tids offset by the shard base — no dedup,
//! no merge sort.
//!
//! Three capabilities fall out:
//!
//! * **Parallel build** ([`ShardedIndex::build`]): shards build
//!   independently on a worker pool, each reusing one of the existing
//!   build paths (in-memory, enumeration-parallel, external-merge).
//!   Unlike `SubtreeIndex::build_parallel`, nothing is stitched
//!   afterwards — per-key fragments never cross shard boundaries — and
//!   the per-shard aggregation maps stay small.
//! * **Scatter-gather queries** ([`ShardedIndex::evaluate`]): every
//!   shard plans with its *own* stats segment. Before a shard is even
//!   consulted, its per-key statistics can prove it empty — a cover key
//!   absent from the shard, or (cost-based planner) shard-local tid
//!   ranges disjoint — and the whole shard is skipped
//!   ([`EvalStats::shards_skipped`]). Live shards evaluate in parallel.
//! * **Incremental ingest** ([`ShardedIndex::ingest`]): new documents
//!   become a fresh shard (with its stats segment, built like any
//!   other); only `MANIFEST.si` is rewritten, atomically. Existing shard
//!   files are never touched — the first update path that does not
//!   rebuild the world.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use si_obs::Stage;
use si_parsetree::{LabelInterner, ParseTree, TreeId};
use si_query::Query;
use si_storage::{KeyStats, Result, ShardEntry, ShardManifest, StorageError};

use crate::build::{IndexOptions, IndexStats, SubtreeIndex};
use crate::coding::Coding;
use crate::cover::decompose;
use crate::eval::{EvalResult, EvalStats};
use crate::exec::{ExecContext, ExecMode};
use crate::plan::PlannerMode;
use crate::stats::intersect_tid_ranges;

/// Which single-index build path each shard uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardBuildMode {
    /// In-memory aggregation ([`SubtreeIndex::build`]) — the default;
    /// shard-level workers already use every core.
    #[default]
    InMemory,
    /// Enumeration-parallel build within each shard
    /// ([`SubtreeIndex::build_parallel`] with this many threads).
    Parallel(usize),
    /// Bounded-memory external merge ([`SubtreeIndex::build_external`]).
    External,
}

/// Knobs of a sharded build.
#[derive(Debug, Clone, Copy)]
pub struct ShardedBuildConfig {
    /// Number of tid-range shards (clamped to the tree count).
    pub shards: usize,
    /// Worker threads building shards concurrently.
    pub workers: usize,
    /// Build path used inside each shard.
    pub mode: ShardBuildMode,
}

impl Default for ShardedBuildConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            mode: ShardBuildMode::InMemory,
        }
    }
}

/// A tid-range partitioned index: N per-shard [`SubtreeIndex`]es plus
/// the manifest tying them together. See the module docs.
pub struct ShardedIndex {
    dir: PathBuf,
    manifest: ShardManifest,
    shards: Vec<Arc<SubtreeIndex>>,
    exec_mode: ExecMode,
    query_threads: usize,
}

impl ShardedIndex {
    /// Builds a sharded index over `trees` at `dir`: the corpus is split
    /// into `config.shards` contiguous tid ranges and each range becomes
    /// a full per-shard index, built concurrently by `config.workers`
    /// worker threads. All shards share `interner`, so canonical keys
    /// agree across shards (and with any monolithic index over the same
    /// corpus).
    pub fn build(
        dir: &Path,
        trees: &[ParseTree],
        interner: &LabelInterner,
        options: IndexOptions,
        config: ShardedBuildConfig,
    ) -> Result<Self> {
        if trees.is_empty() {
            return Err(StorageError::OutOfRange(
                "sharded build needs at least one tree".into(),
            ));
        }
        std::fs::create_dir_all(dir)?;
        // Serialize against a concurrent ingest (same lock): a rebuild
        // racing an in-flight ingest would otherwise interleave the
        // teardown below with the ingest's shard build + manifest
        // rewrite and wedge the directory.
        let _lock = acquire_writer_lock(dir)?;
        // A rebuild into a directory that already held a sharded index
        // stamps its shards *above* the old maximum generation: shard
        // ids restart at 0, so a result cache outliving the rebuild
        // must see fresh `(id, generation)` keys or it would serve the
        // previous corpus's answers.
        let generation = ShardManifest::read(dir)
            .map(|old| old.max_generation() + 1)
            .unwrap_or(0);
        // Rebuilding over an existing sharded directory: tear the old
        // layout down *first* (manifest before shard dirs). The old
        // manifest is replaced only at the very end of the build, so
        // leaving it in place would let a crash mid-build — or a
        // concurrent reader — pair the stale manifest with partially
        // overwritten shard directories and serve a mixed corpus.
        remove_sharded_layout_unlocked(dir)?;
        // The reverse shadowing hazard of the monolithic rebuild path:
        // a stale monolithic index left in this directory would double
        // disk and, should a crash land before the manifest write, be
        // silently served by `AnyIndex::open` with the old corpus's
        // answers.
        for stale in ["index.bt", "si.meta"] {
            std::fs::remove_file(dir.join(stale)).ok();
        }
        std::fs::remove_dir_all(dir.join("corpus")).ok();
        let shards = config.shards.clamp(1, trees.len());
        let chunk = trees.len().div_ceil(shards);
        let entries: Vec<ShardEntry> = trees
            .chunks(chunk)
            .enumerate()
            .map(|(i, slice)| ShardEntry {
                id: i as u64,
                base: (i * chunk) as TreeId,
                len: slice.len() as TreeId,
                generation,
            })
            .collect();

        let built: Vec<Mutex<Option<SubtreeIndex>>> =
            entries.iter().map(|_| Mutex::new(None)).collect();
        let first_error: Mutex<Option<StorageError>> = Mutex::new(None);
        // One shard failing (disk full, I/O error) makes the whole
        // build fail, so other workers stop claiming shards instead of
        // burning minutes (and disk) on work that will be thrown away.
        let failed = std::sync::atomic::AtomicBool::new(false);
        let next = AtomicUsize::new(0);
        let workers = config.workers.clamp(1, entries.len());
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    while !failed.load(Ordering::Acquire) {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(entry) = entries.get(i) else { break };
                        let slice =
                            &trees[entry.base as usize..entry.base as usize + entry.len as usize];
                        let shard_dir = dir.join(entry.dir_name());
                        match build_one_shard(&shard_dir, slice, interner, options, config.mode) {
                            Ok(index) => *built[i].lock().unwrap() = Some(index),
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

        let manifest = ShardManifest {
            mss: options.mss as u64,
            coding: options.coding.id(),
            shards: entries,
        };
        manifest.write(dir)?;
        let shards = built
            .into_iter()
            .map(|slot| Arc::new(slot.into_inner().unwrap().expect("worker built shard")))
            .collect();
        Ok(Self {
            dir: dir.to_path_buf(),
            manifest,
            shards,
            exec_mode: ExecMode::Streaming,
            query_threads: default_query_threads(),
        })
    }

    /// Opens a sharded index directory (its `MANIFEST.si` plus every
    /// shard), validating that each shard agrees with the manifest on
    /// options and tree count.
    pub fn open(dir: &Path) -> Result<Self> {
        let manifest = ShardManifest::read(dir)?;
        let options = manifest_options(&manifest)?;
        let mut shards = Vec::with_capacity(manifest.shards.len());
        for entry in &manifest.shards {
            let shard = SubtreeIndex::open(&dir.join(entry.dir_name()))?;
            if shard.options() != options {
                return Err(StorageError::Corrupt(format!(
                    "shard {} options disagree with manifest",
                    entry.dir_name()
                )));
            }
            if shard.store().len() != entry.len as usize {
                return Err(StorageError::Corrupt(format!(
                    "shard {} holds {} trees, manifest says {}",
                    entry.dir_name(),
                    shard.store().len(),
                    entry.len
                )));
            }
            shards.push(Arc::new(shard));
        }
        Ok(Self {
            dir: dir.to_path_buf(),
            manifest,
            shards,
            exec_mode: ExecMode::Streaming,
            query_threads: default_query_threads(),
        })
    }

    /// Whether `dir` holds a sharded index (vs a monolithic one).
    pub fn is_sharded(dir: &Path) -> bool {
        ShardManifest::exists(dir)
    }

    /// The index directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The shard manifest.
    pub fn manifest(&self) -> &ShardManifest {
        &self.manifest
    }

    /// The per-shard indexes, in manifest (tid) order.
    pub fn shards(&self) -> &[Arc<SubtreeIndex>] {
        &self.shards
    }

    /// The shared build options.
    pub fn options(&self) -> IndexOptions {
        manifest_options(&self.manifest).expect("validated at open/build")
    }

    /// Total trees across all shards.
    pub fn num_trees(&self) -> u64 {
        self.manifest.total_trees()
    }

    /// A copy of the label interner queries should be parsed against.
    /// Ingested shards extend the interner append-only, so the **last**
    /// shard's interner is a superset of every earlier one.
    pub fn interner(&self) -> LabelInterner {
        self.shards
            .last()
            .expect("manifest guarantees >= 1 shard")
            .interner()
    }

    /// Selects the per-shard query executor (default streaming; the
    /// materializing oracle is used by the differential suites).
    pub fn set_exec_mode(&mut self, mode: ExecMode) {
        self.exec_mode = mode;
    }

    /// The configured per-shard executor.
    pub fn exec_mode(&self) -> ExecMode {
        self.exec_mode
    }

    /// Caps the scatter-gather fan-out (threads evaluating shards
    /// concurrently); defaults to available parallelism.
    pub fn set_query_threads(&mut self, threads: usize) {
        self.query_threads = threads.max(1);
    }

    /// Aggregated build statistics: sums over shards. `keys` counts
    /// per-shard B+Tree entries, so a key hot in every shard is counted
    /// once per shard (the price of disjoint shard files);
    /// `build_seconds` sums per-shard build times (CPU cost, not the
    /// parallel wall time).
    pub fn stats(&self) -> IndexStats {
        let mut agg = IndexStats {
            keys: 0,
            postings: 0,
            index_bytes: 0,
            posting_bytes: 0,
            data_bytes: 0,
            build_seconds: 0.0,
        };
        for shard in &self.shards {
            let s = shard.stats();
            agg.keys += s.keys;
            agg.postings += s.postings;
            agg.index_bytes += s.index_bytes;
            agg.posting_bytes += s.posting_bytes;
            agg.data_bytes += s.data_bytes;
            agg.build_seconds += s.build_seconds;
        }
        agg
    }

    /// Aggregated per-key statistics across shards: posting counts,
    /// distinct tids and bytes sum; the tid range spans from the first
    /// covering shard's range start to the last one's end (shard-local
    /// tids offset by the shard base). `None` when no shard indexes the
    /// key. Backs `si stats KEY` on a sharded index.
    pub fn key_stats(&self, key: &[u8]) -> Result<Option<KeyStats>> {
        let mut agg: Option<KeyStats> = None;
        for (entry, shard) in self.manifest.shards.iter().zip(&self.shards) {
            let Some(s) = shard.key_stats(key)? else {
                continue;
            };
            // Saturate at the shard's own bounds: estimated fallback
            // stats carry the full u32 range.
            let first = entry.base + s.first_tid.min(entry.len - 1);
            let last = entry.base + s.last_tid.min(entry.len - 1);
            match &mut agg {
                None => {
                    agg = Some(KeyStats {
                        first_tid: first,
                        last_tid: last,
                        ..s
                    })
                }
                Some(a) => {
                    a.postings += s.postings;
                    a.distinct_tids += s.distinct_tids;
                    a.bytes += s.bytes;
                    a.last_tid = last; // shards ascend in tid order
                    a.exact &= s.exact;
                    // Per-shard histograms bucket shard-local ranges and
                    // cannot be re-bucketed onto the merged span.
                    a.tid_hist = [0; si_storage::TID_HIST_BUCKETS];
                }
            }
        }
        Ok(agg)
    }

    /// Fetches the tree with **global** id `tid` from whichever shard
    /// covers it.
    pub fn tree(&self, tid: TreeId) -> Result<ParseTree> {
        let i = self
            .manifest
            .shard_of(tid)
            .ok_or_else(|| StorageError::OutOfRange(format!("tid {tid}")))?;
        self.shards[i]
            .store()
            .get(tid - self.manifest.shards[i].base)
    }

    /// Evaluates `query` with the default (cost-based) planner.
    pub fn evaluate(&self, query: &Query) -> Result<EvalResult> {
        self.evaluate_with_planner(query, PlannerMode::default())
    }

    /// Scatter-gather evaluation: plans per shard, skips shards whose
    /// own statistics prove them empty, evaluates the rest in parallel
    /// and concatenates the tid-disjoint match sets in shard order
    /// (global tids = shard-local tids + shard base). The result is
    /// identical to evaluating a monolithic index over the same corpus.
    pub fn evaluate_with_planner(&self, query: &Query, planner: PlannerMode) -> Result<EvalResult> {
        self.evaluate_with_prefs(query, planner, crate::plan::DEFAULT_ROOT_PREF_FACTOR)
    }

    /// [`ShardedIndex::evaluate_with_planner`] with an explicit
    /// root-slot preference factor (see
    /// [`crate::exec::ExecContext::root_pref_factor`]), threaded into
    /// every per-shard evaluation.
    pub fn evaluate_with_prefs(
        &self,
        query: &Query,
        planner: PlannerMode,
        root_pref_factor: f64,
    ) -> Result<EvalResult> {
        let ctx = ExecContext {
            planner,
            root_pref_factor,
            ..ExecContext::default()
        };
        self.evaluate_with(query, &ctx)
    }

    /// Scatter-gather evaluation honouring the context's planner
    /// settings and timings. Per-shard resources are still built fresh
    /// inside each worker (shard posting lists share canonical keys, so
    /// one block cache must never span shards); when `ctx` carries
    /// enabled timings each worker collects its own and the gather
    /// phase folds every shard's snapshot in under a `shard-N` group
    /// node, with the gather itself attributed to the merge stage.
    /// Stage nanoseconds therefore sum **CPU time across shards**,
    /// which exceeds wall time when workers run in parallel.
    pub fn evaluate_with(&self, query: &Query, ctx: &ExecContext<'_>) -> Result<EvalResult> {
        let planner = ctx.planner;
        let root_pref_factor = ctx.root_pref_factor;
        let timings = ctx.timings.filter(|t| t.enabled());
        let options = self.options();
        let cover = {
            let _span = ctx.span(Stage::Canonicalize);
            decompose(query, options.mss, options.coding)
        };
        let mut stats = EvalStats {
            covers: cover.subtrees.len(),
            shards: self.shards.len(),
            ..EvalStats::default()
        };

        // Shard-skip pruning from per-shard statistics alone: no posting
        // list of a skipped shard is ever opened.
        let mut live: Vec<usize> = Vec::with_capacity(self.shards.len());
        for (i, shard) in self.shards.iter().enumerate() {
            if shard_provably_empty(shard, &cover.subtrees, planner)? {
                stats.shards_skipped += 1;
            } else {
                live.push(i);
            }
        }
        if live.is_empty() {
            return Ok(EvalResult {
                matches: Vec::new(),
                stats,
            });
        }

        // Scatter: evaluate live shards on a worker pool.
        let collect = timings.is_some();
        type ShardSlot = Mutex<Option<(EvalResult, Option<si_obs::TimingsSnapshot>)>>;
        let results: Vec<ShardSlot> = live.iter().map(|_| Mutex::new(None)).collect();
        let first_error: Mutex<Option<StorageError>> = Mutex::new(None);
        let next = AtomicUsize::new(0);
        let workers = self.query_threads.clamp(1, live.len());
        if workers == 1 {
            for (slot, &i) in results.iter().zip(&live) {
                *slot.lock().unwrap() = Some(eval_one_shard(
                    &self.shards[i],
                    query,
                    self.exec_mode,
                    planner,
                    root_pref_factor,
                    collect,
                )?);
            }
        } else {
            // Any shard failing fails the query, so other workers stop
            // claiming shards as soon as the flag flips.
            let failed = std::sync::atomic::AtomicBool::new(false);
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| {
                        while !failed.load(Ordering::Acquire) {
                            let slot = next.fetch_add(1, Ordering::Relaxed);
                            let Some(&i) = live.get(slot) else { break };
                            match eval_one_shard(
                                &self.shards[i],
                                query,
                                self.exec_mode,
                                planner,
                                root_pref_factor,
                                collect,
                            ) {
                                Ok(result) => *results[slot].lock().unwrap() = Some(result),
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
        }

        // Gather: tid-disjoint shard answers concatenate in shard order;
        // each is already sorted, so the global set is sorted too.
        let merge_span = ctx.span(Stage::Merge);
        let mut matches: Vec<(TreeId, u32)> = Vec::new();
        for (slot, &i) in results.iter().zip(&live) {
            let (result, snap) = slot
                .lock()
                .unwrap()
                .take()
                .expect("worker filled shard slot");
            if let (Some(t), Some(snap)) = (timings, snap.as_ref()) {
                t.absorb(snap, &format!("shard-{i}"));
            }
            let base = self.manifest.shards[i].base;
            matches.extend(result.matches.iter().map(|&(tid, pre)| (base + tid, pre)));
            merge_shard_stats(&mut stats, &result.stats);
        }
        drop(merge_span);
        Ok(EvalResult { matches, stats })
    }

    /// Appends `trees` as a brand-new shard: builds a full per-shard
    /// index (stats segment included) under the next shard directory,
    /// then atomically rewrites `MANIFEST.si`. **No existing shard file
    /// is touched.** The new documents get the next contiguous global
    /// tids. `interner` must be an append-only extension of
    /// [`ShardedIndex::interner`] (parse the new corpus against a copy
    /// of it, so existing label ids keep their meaning).
    pub fn ingest(&mut self, trees: &[ParseTree], interner: &LabelInterner) -> Result<ShardEntry> {
        if trees.is_empty() {
            return Err(StorageError::OutOfRange("ingest of zero trees".into()));
        }
        // Inter-process exclusion: two concurrent writers (ingest or
        // rebuild) would read the same manifest, pick the same next
        // shard id and race building into the same directory — the
        // loser's documents would silently vanish in the manifest
        // rewrite. An OS file lock (released automatically on process
        // death, so a crashed writer never wedges the index)
        // serializes them; the second writer fails fast instead of
        // corrupting.
        let _lock = acquire_writer_lock(&self.dir)?;
        // Another writer may have changed the layout while we were
        // unlocked (the manifest is the source of truth); reload on
        // *any* difference — an ingest appends, but a rebuild can also
        // shrink or replace the shard set — carrying this handle's
        // configuration across.
        let on_disk = ShardManifest::read(&self.dir)?;
        if on_disk != self.manifest {
            let mut fresh = Self::open(&self.dir)?;
            fresh.exec_mode = self.exec_mode;
            fresh.query_threads = self.query_threads;
            *self = fresh;
        }
        let existing = self.interner();
        let extends = interner.len() >= existing.len()
            && existing
                .iter()
                .all(|(label, name)| interner.resolve(label) == name);
        if !extends {
            return Err(StorageError::Corrupt(
                "ingest interner must extend the index's interner".into(),
            ));
        }
        // The new shard gets a generation strictly above every live
        // one: `(id, generation)` then names this exact shard state,
        // so result-cache entries for untouched shards stay valid
        // while nothing stale can ever be served for this id.
        let entry = ShardEntry {
            id: self.manifest.next_id(),
            base: self.manifest.next_base(),
            len: trees.len() as TreeId,
            generation: self.manifest.max_generation() + 1,
        };
        let shard_dir = self.dir.join(entry.dir_name());
        let shard = SubtreeIndex::build(&shard_dir, trees, interner, self.options())?;
        debug_assert!(shard.has_key_stats(), "ingested shard must carry stats");
        let mut manifest = self.manifest.clone();
        manifest.shards.push(entry);
        manifest.write(&self.dir)?;
        self.manifest = manifest;
        self.shards.push(Arc::new(shard));
        Ok(entry)
    }
}

/// Takes the directory's exclusive writer lock (`ingest.lock`), shared
/// by [`ShardedIndex::build`] and [`ShardedIndex::ingest`]. The OS
/// releases the lock when the returned handle drops — including on
/// process death, so a crashed writer never wedges the index. A held
/// lock makes the second writer fail fast instead of corrupting.
fn acquire_writer_lock(dir: &Path) -> Result<std::fs::File> {
    let path = dir.join("ingest.lock");
    let lock_file = std::fs::OpenOptions::new()
        .create(true)
        .truncate(false)
        .write(true)
        .open(&path)?;
    if let Err(e) = lock_file.try_lock() {
        return Err(StorageError::Io(std::io::Error::other(format!(
            "another build or ingest holds {}: {e}",
            path.display()
        ))));
    }
    Ok(lock_file)
}

/// Removes a sharded layout from `dir`: the manifest first (so readers
/// immediately stop dispatching to the shards), then every shard
/// directory it named. Required before building a **monolithic** index
/// into a directory that held a sharded one — [`AnyIndex::open`]
/// dispatches on the manifest's presence, so a stale `MANIFEST.si`
/// would silently shadow the fresh monolithic index with the old
/// corpus's answers. Serializes against concurrent sharded writers via
/// the directory's writer lock. A no-op when `dir` holds no manifest;
/// a corrupt manifest is still removed (its shard directories are then
/// unknown and left behind as inert garbage).
pub fn remove_sharded_layout(dir: &Path) -> Result<()> {
    if !ShardManifest::exists(dir) {
        return Ok(());
    }
    let _lock = acquire_writer_lock(dir)?;
    remove_sharded_layout_unlocked(dir)
}

/// [`remove_sharded_layout`] body, for callers already holding the
/// writer lock (a second `try_lock` on the same file from the same
/// process would fail, not recurse).
fn remove_sharded_layout_unlocked(dir: &Path) -> Result<()> {
    if !ShardManifest::exists(dir) {
        return Ok(());
    }
    let entries = ShardManifest::read(dir)
        .map(|m| m.shards)
        .unwrap_or_default();
    std::fs::remove_file(ShardManifest::path(dir))?;
    for entry in entries {
        std::fs::remove_dir_all(dir.join(entry.dir_name())).ok();
    }
    Ok(())
}

/// Default scatter-gather fan-out.
fn default_query_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// Decodes the manifest's shared (mss, coding) into [`IndexOptions`].
fn manifest_options(manifest: &ShardManifest) -> Result<IndexOptions> {
    let coding = Coding::from_id(manifest.coding)
        .ok_or_else(|| StorageError::Corrupt("manifest coding id".into()))?;
    Ok(IndexOptions::new(manifest.mss as usize, coding))
}

/// Runs one shard's build through the selected build path.
fn build_one_shard(
    dir: &Path,
    trees: &[ParseTree],
    interner: &LabelInterner,
    options: IndexOptions,
    mode: ShardBuildMode,
) -> Result<SubtreeIndex> {
    match mode {
        ShardBuildMode::InMemory => SubtreeIndex::build(dir, trees, interner, options),
        ShardBuildMode::Parallel(threads) => {
            SubtreeIndex::build_parallel(dir, trees, interner, options, threads)
        }
        ShardBuildMode::External => SubtreeIndex::build_external(
            dir,
            trees,
            interner,
            options,
            crate::build_ext::ExternalBuildConfig::default(),
        ),
    }
}

/// Whether `shard`'s own statistics prove the query empty there, from
/// the stats segment alone. A cover key absent from the shard always
/// proves it (exact information regardless of planner mode); disjoint
/// shard-local tid ranges prove it under the cost-based planner (the
/// byte-length mode deliberately skips range reasoning so A/B runs
/// isolate the cost model, matching the monolithic executor's gating).
pub fn shard_provably_empty(
    shard: &SubtreeIndex,
    cover_subtrees: &[crate::cover::CoverSubtree],
    planner: PlannerMode,
) -> Result<bool> {
    shard_provably_empty_with(shard, cover_subtrees, planner, &ExecContext::default())
}

/// [`shard_provably_empty`] through an explicit context — a `ctx` with
/// a [`crate::stats::StatsCache`] memoizes the per-key probes, which
/// the sharded query service relies on (one probe per key per shard
/// per batch, not per query).
pub fn shard_provably_empty_with(
    shard: &SubtreeIndex,
    cover_subtrees: &[crate::cover::CoverSubtree],
    planner: PlannerMode,
    ctx: &ExecContext<'_>,
) -> Result<bool> {
    let mut key_stats: Vec<KeyStats> = Vec::with_capacity(cover_subtrees.len());
    for st in cover_subtrees {
        match crate::stats::key_stats_cached(shard, &st.key, ctx)? {
            Some(s) => key_stats.push(s),
            None => return Ok(true),
        }
    }
    Ok(planner == PlannerMode::CostBased && intersect_tid_ranges(&key_stats).is_none())
}

/// Evaluates `query` against one shard with a fresh default context,
/// folding pager counter deltas into the stats the way
/// [`SubtreeIndex::evaluate_with`] does — thread-local snapshots, so
/// each worker's delta is exactly its own shard's traffic even with the
/// pool running shards in parallel. With `collect_timings` the worker
/// records a private [`si_obs::Timings`] and returns its snapshot for
/// the gather phase to fold in.
fn eval_one_shard(
    shard: &SubtreeIndex,
    query: &Query,
    exec_mode: ExecMode,
    planner: PlannerMode,
    root_pref_factor: f64,
    collect_timings: bool,
) -> Result<(EvalResult, Option<si_obs::TimingsSnapshot>)> {
    let timings = collect_timings.then(|| si_obs::Timings::new(true));
    let ctx = ExecContext {
        planner,
        root_pref_factor,
        timings: timings.as_ref(),
        ..ExecContext::default()
    };
    let before = si_storage::thread_counters();
    let mut result = match exec_mode {
        ExecMode::Streaming => crate::exec::evaluate_streaming_with(shard, query, &ctx),
        ExecMode::Materialized => crate::eval::evaluate(shard, query),
    }?;
    let after = si_storage::thread_counters();
    result.stats.pager_hits = after.hits.saturating_sub(before.hits);
    result.stats.pager_misses = after.misses.saturating_sub(before.misses);
    result.stats.pager_evictions = after.evictions.saturating_sub(before.evictions);
    Ok((result, timings.map(|t| t.snapshot())))
}

/// Folds one shard's evaluation stats into the gathered totals. Counters
/// sum; `peak_posting_bytes` takes the per-shard maximum (each shard's
/// pipeline bounds its own residency); flags OR.
pub fn merge_shard_stats(agg: &mut EvalStats, shard: &EvalStats) {
    agg.joins += shard.joins;
    agg.postings_fetched += shard.postings_fetched;
    agg.validated_trees += shard.validated_trees;
    agg.used_validation |= shard.used_validation;
    agg.range_pruned |= shard.range_pruned;
    agg.peak_posting_bytes = agg.peak_posting_bytes.max(shard.peak_posting_bytes);
    agg.pager_hits += shard.pager_hits;
    agg.pager_misses += shard.pager_misses;
    agg.pager_evictions += shard.pager_evictions;
    agg.cache_hits += shard.cache_hits;
    agg.cache_misses += shard.cache_misses;
    agg.postings_borrowed += shard.postings_borrowed;
    agg.sort_exchanges_avoided += shard.sort_exchanges_avoided;
    agg.seeks += shard.seeks;
    agg.postings_skipped += shard.postings_skipped;
    agg.result_hits += shard.result_hits;
    agg.result_misses += shard.result_misses;
    agg.partial_reuses += shard.partial_reuses;
    agg.negative_hits += shard.negative_hits;
}

/// A monolithic or sharded index behind one seam — how the CLI (and any
/// embedder) opens an index directory without caring which layout it
/// holds.
pub enum AnyIndex {
    /// A single `index.bt` directory.
    Mono(Box<SubtreeIndex>),
    /// A `MANIFEST.si` directory of tid-range shards.
    Sharded(ShardedIndex),
}

impl AnyIndex {
    /// Opens `dir` as sharded when `MANIFEST.si` is present, monolithic
    /// otherwise.
    pub fn open(dir: &Path) -> Result<Self> {
        if ShardedIndex::is_sharded(dir) {
            Ok(AnyIndex::Sharded(ShardedIndex::open(dir)?))
        } else {
            Ok(AnyIndex::Mono(Box::new(SubtreeIndex::open(dir)?)))
        }
    }

    /// The build options.
    pub fn options(&self) -> IndexOptions {
        match self {
            AnyIndex::Mono(i) => i.options(),
            AnyIndex::Sharded(i) => i.options(),
        }
    }

    /// The interner queries should be parsed against.
    pub fn interner(&self) -> LabelInterner {
        match self {
            AnyIndex::Mono(i) => i.interner(),
            AnyIndex::Sharded(i) => i.interner(),
        }
    }

    /// Number of shards (1 for a monolithic index).
    pub fn num_shards(&self) -> usize {
        match self {
            AnyIndex::Mono(_) => 1,
            AnyIndex::Sharded(i) => i.shards().len(),
        }
    }

    /// Selects the executor on whichever layout is open.
    pub fn set_exec_mode(&mut self, mode: ExecMode) {
        match self {
            AnyIndex::Mono(i) => i.set_exec_mode(mode),
            AnyIndex::Sharded(i) => i.set_exec_mode(mode),
        }
    }

    /// Evaluates `query`; `ctx` applies fully to the monolithic path.
    /// The sharded path builds per-shard contexts itself and honours
    /// the planner settings and timings only — shard posting lists
    /// share canonical keys, so one block cache must never span shards.
    pub fn evaluate_with(&self, query: &Query, ctx: &ExecContext<'_>) -> Result<EvalResult> {
        match self {
            AnyIndex::Mono(i) => i.evaluate_with(query, ctx),
            AnyIndex::Sharded(i) => i.evaluate_with(query, ctx),
        }
    }

    /// Fetches a tree by global tid.
    pub fn tree(&self, tid: TreeId) -> Result<ParseTree> {
        match self {
            AnyIndex::Mono(i) => i.store().get(tid),
            AnyIndex::Sharded(i) => i.tree(tid),
        }
    }

    /// Per-key planner statistics (aggregated across shards).
    pub fn key_stats(&self, key: &[u8]) -> Result<Option<KeyStats>> {
        match self {
            AnyIndex::Mono(i) => i.key_stats(key),
            AnyIndex::Sharded(i) => i.key_stats(key),
        }
    }
}
