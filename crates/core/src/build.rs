//! Subtree Index construction and the on-disk layout (§4.2, §6.1–6.2).
//!
//! An index directory holds
//!
//! ```text
//! <dir>/corpus/      the data file, offset index and labels (CorpusStore)
//! <dir>/index.bt     the B+Tree: canonical key -> posting list
//! <dir>/si.meta      mss, coding scheme, build statistics
//! ```
//!
//! Construction streams every tree through the subtree enumeration,
//! aggregates posting lists per canonical key in memory, then bulk-loads
//! the B+Tree in key order — the standard inverted-index build the
//! paper's Figure 10 times.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use si_parsetree::{varint, LabelInterner, ParseTree, TreeId};
use si_query::Query;
use si_storage::{BTree, CorpusStore, Result, StorageError};

use crate::canonical::key_size;
use crate::coding::{decode_postings, Coding, NodeVal, Posting, PostingBuilder, PostingCursor};
use crate::eval::EvalResult;
use crate::exec::ExecMode;
use crate::extract::for_each_subtree;
use crate::join::JoinAlgo;

/// Build-time parameters of a [`SubtreeIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexOptions {
    /// Maximum subtree size indexed (the paper's `mss`, 1–5 in the
    /// evaluation; `mss = 1` degenerates to the node approach / LPath).
    pub mss: usize,
    /// Posting-list coding scheme.
    pub coding: Coding,
}

impl IndexOptions {
    /// Creates options; `mss` must be in `1..=8`.
    ///
    /// # Panics
    /// Panics on `mss` outside `1..=8` (the paper caps at 5; Lemma 3's
    /// FFD optimality holds to 6, and 8 is a hard sanity bound).
    pub fn new(mss: usize, coding: Coding) -> Self {
        assert!((1..=8).contains(&mss), "mss must be in 1..=8, got {mss}");
        Self { mss, coding }
    }
}

/// Size and timing statistics of a built index (Figures 8–10).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IndexStats {
    /// Number of index keys (unique subtrees), Figure 2.
    pub keys: u64,
    /// Total postings stored (after coding-specific dedup), Figure 9.
    pub postings: u64,
    /// Total bytes of the B+Tree file, Figure 8.
    pub index_bytes: u64,
    /// Bytes of posting-list payload (excluding B+Tree structure).
    pub posting_bytes: u64,
    /// Size of the data file of flattened trees.
    pub data_bytes: u64,
    /// Wall-clock build time in seconds, Figure 10.
    pub build_seconds: f64,
}

/// A built Subtree Index over a corpus of parse trees.
pub struct SubtreeIndex {
    dir: PathBuf,
    options: IndexOptions,
    btree: BTree,
    store: CorpusStore,
    stats: IndexStats,
    join_algo: JoinAlgo,
    exec_mode: ExecMode,
    /// Whether posting-list values carry the per-list skip header
    /// (`si.meta` magic `SIMETA2`). Pre-skip indexes (`SIMETA1`) decode
    /// the bare payload and simply never seek.
    skip_headers: bool,
}

/// Wraps one key's finished payload into the stored value (skip header
/// then the byte-identical payload) and folds the resulting
/// histogram/length into its stats entry — the shared tail of all
/// three build paths.
fn finalize_list(
    coding: Coding,
    key: &[u8],
    payload: &[u8],
    key_stats: &mut si_storage::KeyStats,
) -> Result<Vec<u8>> {
    let m = key_size(key).ok_or_else(|| StorageError::Corrupt("bad canonical key".into()))?;
    let (value, hist) = crate::coding::build_list_value(
        coding,
        m,
        payload,
        crate::coding::DEFAULT_RESTART_INTERVAL,
        key_stats.first_tid,
        key_stats.last_tid,
    )?;
    key_stats.tid_hist = hist;
    key_stats.bytes = value.len() as u64;
    Ok(value)
}

impl SubtreeIndex {
    /// Builds an index over `trees` at `dir` (created/overwritten).
    ///
    /// `interner` must be the interner the trees were built with; it is
    /// persisted alongside the corpus so queries can resolve labels.
    pub fn build(
        dir: &Path,
        trees: &[ParseTree],
        interner: &LabelInterner,
        options: IndexOptions,
    ) -> Result<Self> {
        let started = Instant::now();
        std::fs::create_dir_all(dir)?;
        let store = CorpusStore::build(&dir.join("corpus"), trees.iter(), interner)?;

        // Aggregate posting lists per canonical key. The occurrence and
        // rank buffers are reused across the (many) occurrences and the
        // key is only cloned when first seen — this loop dominates the
        // build, so it must stay allocation-free on the hot path.
        let mut lists: HashMap<Vec<u8>, PostingBuilder> = HashMap::new();
        let mut occurrence: Vec<(NodeVal, u8)> = Vec::new();
        let mut pres: Vec<u32> = Vec::new();
        for (tid, tree) in trees.iter().enumerate() {
            let tid = tid as TreeId;
            for_each_subtree(tree, options.mss, |sub| {
                occurrence.clear();
                occurrence.extend(sub.nodes.iter().map(|&n| {
                    (
                        NodeVal {
                            pre: tree.pre(n),
                            post: tree.post(n),
                            level: tree.level(n),
                        },
                        0u8,
                    )
                }));
                // `order`: the node's pre-order rank within the
                // occurrence (1-based), §4.4.2.
                pres.clear();
                pres.extend(occurrence.iter().map(|(v, _)| v.pre));
                pres.sort_unstable();
                for (v, order) in occurrence.iter_mut() {
                    *order = pres.binary_search(&v.pre).expect("own pre") as u8 + 1;
                }
                match lists.get_mut(sub.key.as_slice()) {
                    Some(builder) => builder.push(tid, &occurrence),
                    None => {
                        let mut builder = PostingBuilder::new(options.coding);
                        builder.push(tid, &occurrence);
                        lists.insert(sub.key.clone(), builder);
                    }
                }
            });
        }

        // Bulk-load the B+Tree in key order, then persist the per-key
        // statistics the builders tracked as the stats segment.
        let mut postings = 0u64;
        let mut posting_bytes = 0u64;
        let mut entries: Vec<(Vec<u8>, Vec<u8>, si_storage::KeyStats)> =
            Vec::with_capacity(lists.len());
        for (key, builder) in lists {
            postings += builder.count();
            posting_bytes += builder.byte_len() as u64;
            let mut key_stats = builder.key_stats();
            let payload = builder.finish();
            let value = finalize_list(options.coding, &key, &payload, &mut key_stats)?;
            entries.push((key, value, key_stats));
        }
        entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let keys = entries.len() as u64;
        let stats_entries: Vec<(Vec<u8>, si_storage::KeyStats)> =
            entries.iter().map(|(k, _, s)| (k.clone(), *s)).collect();
        let mut btree = BTree::bulk_load(
            &dir.join("index.bt"),
            entries.into_iter().map(|(k, v, _)| (k, v)),
        )?;
        btree.write_stats_segment(stats_entries)?;
        btree.flush()?;

        let stats = IndexStats {
            keys,
            postings,
            index_bytes: btree.stats().file_bytes,
            posting_bytes,
            data_bytes: store.data_bytes(),
            build_seconds: started.elapsed().as_secs_f64(),
        };
        let index = Self {
            dir: dir.to_path_buf(),
            options,
            btree,
            store,
            stats,
            join_algo: JoinAlgo::Mpmgjn,
            exec_mode: ExecMode::Streaming,
            skip_headers: true,
        };
        index.write_meta()?;
        Ok(index)
    }

    /// Builds an index using `threads` worker threads for the subtree
    /// enumeration phase (the CPU-bound part of construction). Each
    /// worker aggregates a contiguous tid range; the per-key posting
    /// fragments are then stitched in tid order, so the result is
    /// byte-identical to the sequential [`SubtreeIndex::build`].
    pub fn build_parallel(
        dir: &Path,
        trees: &[ParseTree],
        interner: &LabelInterner,
        options: IndexOptions,
        threads: usize,
    ) -> Result<Self> {
        let threads = threads.max(1).min(trees.len().max(1));
        let started = Instant::now();
        std::fs::create_dir_all(dir)?;
        let store = CorpusStore::build(&dir.join("corpus"), trees.iter(), interner)?;

        // Partition trees into contiguous tid ranges, one per worker.
        let chunk = trees.len().div_ceil(threads);
        type Fragment = (TreeId, TreeId, PostingBuilder); // first, last, postings
        let mut partials: Vec<HashMap<Vec<u8>, Fragment>> = Vec::new();
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for (w, slice) in trees.chunks(chunk.max(1)).enumerate() {
                let base = (w * chunk.max(1)) as TreeId;
                handles.push(scope.spawn(move || {
                    let mut lists: HashMap<Vec<u8>, Fragment> = HashMap::new();
                    let mut occurrence: Vec<(NodeVal, u8)> = Vec::new();
                    let mut pres: Vec<u32> = Vec::new();
                    for (off, tree) in slice.iter().enumerate() {
                        let tid = base + off as TreeId;
                        for_each_subtree(tree, options.mss, |sub| {
                            occurrence.clear();
                            occurrence.extend(sub.nodes.iter().map(|&n| {
                                (
                                    NodeVal {
                                        pre: tree.pre(n),
                                        post: tree.post(n),
                                        level: tree.level(n),
                                    },
                                    0u8,
                                )
                            }));
                            pres.clear();
                            pres.extend(occurrence.iter().map(|(v, _)| v.pre));
                            pres.sort_unstable();
                            for (v, order) in occurrence.iter_mut() {
                                *order = pres.binary_search(&v.pre).expect("own pre") as u8 + 1;
                            }
                            match lists.get_mut(sub.key.as_slice()) {
                                Some(entry) => {
                                    entry.2.push(tid, &occurrence);
                                    entry.1 = tid;
                                }
                                None => {
                                    let mut builder = PostingBuilder::new(options.coding);
                                    builder.push(tid, &occurrence);
                                    lists.insert(sub.key.clone(), (tid, tid, builder));
                                }
                            }
                        });
                    }
                    lists
                }));
            }
            for h in handles {
                partials.push(h.join().expect("worker panicked"));
            }
        });

        // Stitch fragments per key in tid order (workers cover disjoint,
        // ascending tid ranges in `partials` order). Posting counts,
        // distinct-tid counts and tid ranges stitch the same way the
        // bytes do: disjoint ranges add, the merged range spans from the
        // first fragment's first tid to the last fragment's last tid.
        #[derive(Default)]
        struct MergedList {
            bytes: Vec<u8>,
            count: u64,
            distinct_tids: u64,
            first_tid: TreeId,
            last_tid: Option<TreeId>,
        }
        let mut merged: HashMap<Vec<u8>, MergedList> = HashMap::new();
        for partial in partials {
            for (key, (first_tid, last_tid, builder)) in partial {
                let count = builder.count();
                let distinct = builder.distinct_tids();
                let bytes = builder.finish();
                let entry = merged.entry(key).or_default();
                entry.count += count;
                entry.distinct_tids += distinct;
                match entry.last_tid {
                    None => {
                        entry.first_tid = first_tid;
                        entry.bytes.extend_from_slice(&bytes);
                    }
                    Some(prev_last) => {
                        // Rewrite the fragment's leading absolute tid as a
                        // delta from the previous fragment's last tid.
                        let (abs, used) = varint::read_u32(&bytes)
                            .ok_or_else(|| StorageError::Corrupt("fragment head".into()))?;
                        debug_assert!(abs == first_tid);
                        varint::write_u32(&mut entry.bytes, abs - prev_last);
                        entry.bytes.extend_from_slice(&bytes[used..]);
                    }
                }
                entry.last_tid = Some(last_tid);
            }
        }

        let mut postings = 0u64;
        let mut posting_bytes = 0u64;
        let mut entries: Vec<(Vec<u8>, Vec<u8>, si_storage::KeyStats)> =
            Vec::with_capacity(merged.len());
        for (key, list) in merged {
            postings += list.count;
            posting_bytes += list.bytes.len() as u64;
            let mut key_stats = si_storage::KeyStats {
                postings: list.count,
                distinct_tids: list.distinct_tids,
                first_tid: list.first_tid,
                last_tid: list.last_tid.unwrap_or(0),
                bytes: list.bytes.len() as u64,
                exact: true,
                ..si_storage::KeyStats::default()
            };
            let value = finalize_list(options.coding, &key, &list.bytes, &mut key_stats)?;
            entries.push((key, value, key_stats));
        }
        entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let keys = entries.len() as u64;
        let stats_entries: Vec<(Vec<u8>, si_storage::KeyStats)> =
            entries.iter().map(|(k, _, s)| (k.clone(), *s)).collect();
        let mut btree = BTree::bulk_load(
            &dir.join("index.bt"),
            entries.into_iter().map(|(k, v, _)| (k, v)),
        )?;
        btree.write_stats_segment(stats_entries)?;
        btree.flush()?;

        let stats = IndexStats {
            keys,
            postings,
            index_bytes: btree.stats().file_bytes,
            posting_bytes,
            data_bytes: store.data_bytes(),
            build_seconds: started.elapsed().as_secs_f64(),
        };
        let index = Self {
            dir: dir.to_path_buf(),
            options,
            btree,
            store,
            stats,
            join_algo: JoinAlgo::Mpmgjn,
            exec_mode: ExecMode::Streaming,
            skip_headers: true,
        };
        index.write_meta()?;
        Ok(index)
    }

    /// Builds an index with bounded memory: posting lists are spilled to
    /// sorted runs under `<dir>/tmp` and k-way merged into the B+Tree
    /// bulk loader ([`crate::build_ext`]). Produces byte-identical
    /// results to [`SubtreeIndex::build`]; use it for corpora whose
    /// posting volume exceeds RAM (the paper's 10⁶-sentence points).
    pub fn build_external(
        dir: &Path,
        trees: &[ParseTree],
        interner: &LabelInterner,
        options: IndexOptions,
        config: crate::build_ext::ExternalBuildConfig,
    ) -> Result<Self> {
        use std::cell::RefCell;

        let started = Instant::now();
        std::fs::create_dir_all(dir)?;
        let store = CorpusStore::build(&dir.join("corpus"), trees.iter(), interner)?;
        let tmp = dir.join("tmp");
        let runs = crate::build_ext::build_runs(&tmp, trees, options.mss, options.coding, config)?;
        let mut merger = crate::build_ext::RunMerger::open(&runs)?;

        let keys = RefCell::new(0u64);
        let postings = RefCell::new(0u64);
        let posting_bytes = RefCell::new(0u64);
        // Merged keys arrive in ascending order, so the stats entries
        // accumulate pre-sorted while the same pass feeds the bulk
        // loader.
        let stats_entries: RefCell<Vec<(Vec<u8>, si_storage::KeyStats)>> = RefCell::new(Vec::new());
        let error: RefCell<Option<StorageError>> = RefCell::new(None);
        let pairs = std::iter::from_fn(|| match merger.next_key() {
            Ok(Some((key, bytes, mut key_stats))) => {
                *keys.borrow_mut() += 1;
                *postings.borrow_mut() += key_stats.postings;
                *posting_bytes.borrow_mut() += bytes.len() as u64;
                match finalize_list(options.coding, &key, &bytes, &mut key_stats) {
                    Ok(value) => {
                        stats_entries.borrow_mut().push((key.clone(), key_stats));
                        Some((key, value))
                    }
                    Err(e) => {
                        *error.borrow_mut() = Some(e);
                        None
                    }
                }
            }
            Ok(None) => None,
            Err(e) => {
                *error.borrow_mut() = Some(e);
                None
            }
        });
        let mut btree = BTree::bulk_load(&dir.join("index.bt"), pairs)?;
        if let Some(e) = error.into_inner() {
            return Err(e);
        }
        btree.write_stats_segment(stats_entries.into_inner())?;
        btree.flush()?;
        std::fs::remove_dir_all(&tmp).ok();

        let stats = IndexStats {
            keys: keys.into_inner(),
            postings: postings.into_inner(),
            index_bytes: btree.stats().file_bytes,
            posting_bytes: posting_bytes.into_inner(),
            data_bytes: store.data_bytes(),
            build_seconds: started.elapsed().as_secs_f64(),
        };
        let index = Self {
            dir: dir.to_path_buf(),
            options,
            btree,
            store,
            stats,
            join_algo: JoinAlgo::Mpmgjn,
            exec_mode: ExecMode::Streaming,
            skip_headers: true,
        };
        index.write_meta()?;
        Ok(index)
    }

    /// Opens an existing index directory. Read-only opens prefer the
    /// mmap-backed pager (borrowed, latch-free page reads) and fall back
    /// to the buffered pager transparently.
    pub fn open(dir: &Path) -> Result<Self> {
        let meta = std::fs::read(dir.join("si.meta"))?;
        let (options, stats, skip_headers) =
            decode_meta(&meta).ok_or_else(|| StorageError::Corrupt("si.meta".into()))?;
        let btree = BTree::open_readonly(&dir.join("index.bt"))?;
        let store = CorpusStore::open(&dir.join("corpus"))?;
        Ok(Self {
            dir: dir.to_path_buf(),
            options,
            btree,
            store,
            stats,
            join_algo: JoinAlgo::Mpmgjn,
            exec_mode: ExecMode::Streaming,
            skip_headers,
        })
    }

    /// Whether stored posting lists carry skip headers (restart-point
    /// tables). Pre-skip index files answer `false`; cursors over them
    /// never seek but return identical postings.
    pub fn has_skip_headers(&self) -> bool {
        self.skip_headers
    }

    /// Whether the B+Tree is served from an mmap-backed read-only pager
    /// (a read-only open that mapped cleanly) rather than the buffered
    /// pager. Purely informational — reads are byte-identical either way.
    pub fn is_mapped(&self) -> bool {
        self.btree.is_mapped()
    }

    /// The build options.
    pub fn options(&self) -> IndexOptions {
        self.options
    }

    /// Build statistics (sizes, posting counts, timing).
    pub fn stats(&self) -> IndexStats {
        self.stats
    }

    /// The index directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The corpus backing this index.
    pub fn store(&self) -> &CorpusStore {
        &self.store
    }

    /// A copy of the corpus label interner (parse queries against this
    /// so label ids line up; unknown labels simply produce no matches).
    pub fn interner(&self) -> LabelInterner {
        self.store.interner().clone()
    }

    /// Selects the structural-join algorithm (default MPMGJN).
    pub fn set_join_algo(&mut self, algo: JoinAlgo) {
        self.join_algo = algo;
    }

    /// The configured structural-join algorithm.
    pub fn join_algo(&self) -> JoinAlgo {
        self.join_algo
    }

    /// Selects the query executor (default [`ExecMode::Streaming`]).
    /// The materializing evaluator is retained as the equivalence
    /// oracle and the bench ablation's baseline.
    pub fn set_exec_mode(&mut self, mode: ExecMode) {
        self.exec_mode = mode;
    }

    /// The configured query executor.
    pub fn exec_mode(&self) -> ExecMode {
        self.exec_mode
    }

    /// Evaluates `query`, returning the distinct `(tid, pre)` pairs the
    /// query root maps to, plus evaluation statistics. Dispatches to the
    /// streaming pipeline ([`crate::exec`]) or the legacy materializing
    /// evaluator ([`crate::eval`]) per [`SubtreeIndex::exec_mode`].
    pub fn evaluate(&self, query: &Query) -> Result<EvalResult> {
        self.evaluate_with(query, &crate::exec::ExecContext::default())
    }

    /// [`SubtreeIndex::evaluate`] with explicit execution resources —
    /// the query service passes its block cache and batch-shared scans
    /// here (the materializing oracle ignores them). Pager counter
    /// deltas are folded into the returned stats as **thread-local**
    /// snapshots ([`si_storage::thread_counters`]): a query evaluates
    /// entirely on the calling thread, so the delta is exactly this
    /// query's traffic even while other service workers hammer the same
    /// pager concurrently.
    pub fn evaluate_with(
        &self,
        query: &Query,
        ctx: &crate::exec::ExecContext<'_>,
    ) -> Result<EvalResult> {
        let before = si_storage::thread_counters();
        let mut result = match self.exec_mode {
            ExecMode::Streaming => crate::exec::evaluate_streaming_with(self, query, ctx),
            ExecMode::Materialized => crate::eval::evaluate(self, query),
        }?;
        let after = si_storage::thread_counters();
        result.stats.pager_hits = after.hits.saturating_sub(before.hits);
        result.stats.pager_misses = after.misses.saturating_sub(before.misses);
        result.stats.pager_evictions = after.evictions.saturating_sub(before.evictions);
        Ok(result)
    }

    /// Cumulative pager cache counters of the index's B+Tree file.
    pub fn pager_counters(&self) -> si_storage::PagerCounters {
        self.btree.pager_counters()
    }

    /// Encoded posting-list length of a key in bytes, without decoding —
    /// a cheap selectivity estimate (the paper's §7 "statistics about
    /// subtrees such as their selectivities").
    pub fn posting_len(&self, key: &[u8]) -> Result<Option<u64>> {
        self.btree.value_len(key)
    }

    /// Whether the index carries a persisted stats segment. Indexes
    /// built before the segment existed report `false`; their
    /// [`SubtreeIndex::key_stats`] answers are estimates.
    pub fn has_key_stats(&self) -> bool {
        self.btree.has_stats_segment()
    }

    /// Per-key statistics for planning ([`crate::stats`]): posting
    /// count, distinct tid count, first/last tid and encoded bytes.
    /// Exact from the stats segment when present; for pre-stats index
    /// files the figures are estimated from [`SubtreeIndex::posting_len`]
    /// (`exact == false`, full tid range — safe, never prunes). `None`
    /// when the key is absent, meaning the query has no matches.
    pub fn key_stats(&self, key: &[u8]) -> Result<Option<si_storage::KeyStats>> {
        if let Some(stats) = self.btree.key_stats(key)? {
            return Ok(Some(stats));
        }
        Ok(self
            .btree
            .value_len(key)?
            .map(|bytes| crate::stats::estimate_from_len(bytes, self.options.coding, key)))
    }

    /// Opens a streaming posting cursor over `key`'s list: bytes flow
    /// from the B+Tree one page at a time and decode incrementally —
    /// the storage-to-coding seam of the streaming executor. `None`
    /// when the key is absent.
    pub fn posting_cursor(
        &self,
        key: &[u8],
    ) -> Result<Option<PostingCursor<si_storage::ValueReader<'_>>>> {
        let Some(reader) = self.btree.value_reader(key)? else {
            return Ok(None);
        };
        let m = key_size(key).ok_or_else(|| StorageError::Corrupt("bad canonical key".into()))?;
        Ok(Some(PostingCursor::with_format(
            self.options.coding,
            m,
            reader,
            self.skip_headers,
        )))
    }

    /// Fetches the decoded posting list of a canonical key, if indexed.
    pub fn postings(&self, key: &[u8]) -> Result<Option<Vec<Posting>>> {
        Ok(self.postings_with_len(key)?.map(|(postings, _)| postings))
    }

    /// [`SubtreeIndex::postings`] plus the list's raw encoded byte
    /// length, from the same single B+Tree descent (the legacy
    /// evaluator's byte instrumentation needs both).
    pub fn postings_with_len(&self, key: &[u8]) -> Result<Option<(Vec<Posting>, usize)>> {
        let Some(bytes) = self.btree.get(key)? else {
            return Ok(None);
        };
        let m = key_size(key).ok_or_else(|| StorageError::Corrupt("bad canonical key".into()))?;
        let payload = if self.skip_headers {
            crate::coding::split_skip_header(&bytes)?.1
        } else {
            &bytes[..]
        };
        Ok(Some((
            decode_postings(self.options.coding, m, payload).collect(),
            bytes.len(),
        )))
    }

    /// Iterates all `(key, posting list bytes)` pairs (statistics and the
    /// frequency-based baseline use this).
    pub fn iter_keys(&self) -> Result<impl Iterator<Item = Result<(Vec<u8>, Vec<u8>)>> + '_> {
        self.btree.iter()
    }

    fn write_meta(&self) -> Result<()> {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"SIMETA2\0");
        varint::write_u64(&mut buf, self.options.mss as u64);
        buf.push(self.options.coding.id());
        varint::write_u64(&mut buf, self.stats.keys);
        varint::write_u64(&mut buf, self.stats.postings);
        varint::write_u64(&mut buf, self.stats.index_bytes);
        varint::write_u64(&mut buf, self.stats.posting_bytes);
        varint::write_u64(&mut buf, self.stats.data_bytes);
        varint::write_u64(&mut buf, (self.stats.build_seconds * 1e6) as u64);
        std::fs::write(self.dir.join("si.meta"), buf)?;
        Ok(())
    }
}

fn decode_meta(bytes: &[u8]) -> Option<(IndexOptions, IndexStats, bool)> {
    let magic = bytes.get(..8)?;
    // SIMETA2 lists carry skip headers; SIMETA1 files predate them and
    // store the bare payload — both open cleanly, the cursor format
    // follows the flag.
    let skip_headers = match magic {
        b"SIMETA2\0" => true,
        b"SIMETA1\0" => false,
        _ => return None,
    };
    let mut r = varint::Reader::new(&bytes[8..]);
    let mss = r.u64()? as usize;
    let coding = Coding::from_id(r.bytes(1)?[0])?;
    if !(1..=8).contains(&mss) {
        return None;
    }
    let keys = r.u64()?;
    let postings = r.u64()?;
    let index_bytes = r.u64()?;
    let posting_bytes = r.u64()?;
    let data_bytes = r.u64()?;
    let build_micros = r.u64()?;
    Some((
        IndexOptions { mss, coding },
        IndexStats {
            keys,
            postings,
            index_bytes,
            posting_bytes,
            data_bytes,
            build_seconds: build_micros as f64 / 1e6,
        },
        skip_headers,
    ))
}
