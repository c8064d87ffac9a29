//! Volcano-style streaming execution of a [`Plan`] (§4.3).
//!
//! Every operator is a pull-based [`TupleStream`] over `(tid, slots)`
//! tuples sorted tid-major; posting bytes flow from the B+Tree one page
//! at a time ([`si_storage::ValueReader`] →
//! [`PostingCursor`](crate::coding::PostingCursor)) and are
//! decoded, expanded and joined incrementally. Peak memory is bounded by
//! the pages in flight plus the small per-operator windows (one tid
//! group for merge joins, the ancestor stack for Stack-Tree) — never by
//! the largest posting list, which the legacy materializing evaluator
//! pays in full.
//!
//! Operators:
//!
//! * [`PostingScan`] — decodes one cover subtree's posting list straight
//!   off the pager; expands interval postings by the key's
//!   automorphisms;
//! * `SortExchange` — order enforcer; the only operator that
//!   materializes, inserted by the planner solely where a driving slot's
//!   order is not already established (never for root-split covers);
//! * `MergeEqJoin` — sort-merge equality join on a shared query node
//!   (§4.3's equality joins);
//! * `MpmgjnJoin` / `StackTreeJoin` — the paper's structural joins
//!   (Zhang et al. SIGMOD 2001; Al-Khalifa et al. ICDE 2002), both
//!   streaming merges over `(tid, pre)`-sorted inputs;
//! * `TidCrossJoin` — per-tid nested loop, the fallback for disconnected
//!   join graphs (rare; valid covers are connected).
//!
//! Filter-based coding intersects the cover's tid streams with a k-way
//! merge and hands the survivors to the filtering phase, so candidate
//! tid lists are never materialized either.

use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;
use std::sync::Arc;

use si_obs::{Stage, StageSpan, Timings};
use si_parsetree::TreeId;
use si_query::Query;
use si_storage::{Result, StorageError};

use crate::blockcache::{BlockCache, CacheTally, CachedListReader};
use crate::build::SubtreeIndex;
use crate::canonical::{automorphisms, decode_key};
use crate::coding::{Coding, Posting, PostingFeed};
use crate::cover::{decompose, Cover};
use crate::eval::{validate_candidates_with, EvalResult, EvalStats};
use crate::join::{combine, JoinKind, Pred, Slots, Tuple};
use crate::plan::{plan_structural_with, Plan, PlanStep, PlannerMode};
use crate::stats::{intersect_tid_ranges, key_stats_cached, KeyStats};

/// Pre-decoded tuple vectors shared across the queries of one service
/// batch, keyed by canonical cover key: the product of one
/// [`collect_scan_tuples`] pass, consumed by [`SharedScan`] operators in
/// many pipelines.
pub type SharedTuples = HashMap<Vec<u8>, Arc<Vec<Tuple>>>;

pub use crate::stats::StatsCache;

/// A bounded concurrent cache of decoded parse trees, used by the
/// validation/filtering phase: fetching a candidate tree parses it off
/// the data file, and hot trees recur across the queries of a batch.
pub struct TreeCache {
    map: std::sync::Mutex<HashMap<TreeId, Arc<si_parsetree::ParseTree>>>,
    cap: usize,
}

impl TreeCache {
    /// A cache holding at most `cap` decoded trees (inserts beyond the
    /// cap are dropped — validation still works, just uncached).
    pub fn new(cap: usize) -> Self {
        Self {
            map: std::sync::Mutex::new(HashMap::new()),
            cap,
        }
    }

    /// Fetches tree `tid` through the cache.
    pub fn get(&self, index: &SubtreeIndex, tid: TreeId) -> Result<Arc<si_parsetree::ParseTree>> {
        if let Some(tree) = self.map.lock().unwrap_or_else(|e| e.into_inner()).get(&tid) {
            return Ok(tree.clone());
        }
        let tree = Arc::new(index.store().get(tid)?);
        let mut map = self.map.lock().unwrap_or_else(|e| e.into_inner());
        if map.len() < self.cap {
            map.insert(tid, tree.clone());
        }
        Ok(tree)
    }
}

impl Default for TreeCache {
    fn default() -> Self {
        Self::new(1 << 16)
    }
}

/// Ambient execution resources for one evaluation. The default (no
/// cache, no shared scans) reproduces the plain PR 1 streaming executor;
/// the query service (`si_service`) supplies all three.
#[derive(Clone)]
pub struct ExecContext<'s> {
    /// Decoded posting-block cache shared across queries and threads.
    pub cache: Option<Arc<BlockCache>>,
    /// Batch-shared tuple vectors: covers whose key appears here scan
    /// the shared vector instead of re-reading the B+Tree.
    pub shared: Option<&'s SharedTuples>,
    /// Memoized per-key planner statistics ([`crate::stats`]; subsumes
    /// the former `posting_len` memo — [`KeyStats::bytes`] carries the
    /// encoded length).
    pub stats: Option<StatsCache>,
    /// Decoded-tree cache for the validation/filtering phase.
    pub trees: Option<Arc<TreeCache>>,
    /// Join-ordering heuristic ([`PlannerMode::CostBased`] default;
    /// `ByteLen` reproduces PR 1's byte ordering for A/B comparison).
    pub planner: PlannerMode,
    /// Root-slot preference factor of the sort-free plan rule: when the
    /// cheapest joinable stream would need an order enforcer, a stream
    /// drivable on its scan's root slot (already in posting order) is
    /// preferred instead, as long as its estimated cardinality is
    /// within this factor of the cheapest. Values ≤ 1.0 disable the
    /// preference; the default is
    /// [`crate::plan::DEFAULT_ROOT_PREF_FACTOR`].
    pub root_pref_factor: f64,
    /// Whether cursors may **seek** (skip restart blocks via the
    /// per-list skip tables) instead of draining postings one by one.
    /// On by default; the bench's seek-vs-drain A/B and the executor
    /// differential tests turn it off to prove answer equivalence.
    /// Requires cost-based planning (seeks are seeded from the exact
    /// common tid range) and an index with skip headers — otherwise
    /// it is a silent no-op.
    pub seeks: bool,
    /// Per-query timing accumulator ([`si_obs::Timings`]). `None` — or
    /// a disabled `Timings` — keeps the instrumented paths at one
    /// branch per record point; when present and enabled the executor
    /// attributes nanoseconds to pipeline [`Stage`]s and fills in a
    /// per-operator node tree (the `--explain-analyze` /
    /// `--trace-json` surface).
    pub timings: Option<&'s Timings>,
}

impl Default for ExecContext<'_> {
    fn default() -> Self {
        Self {
            cache: None,
            shared: None,
            stats: None,
            trees: None,
            planner: PlannerMode::default(),
            root_pref_factor: crate::plan::DEFAULT_ROOT_PREF_FACTOR,
            seeks: true,
            timings: None,
        }
    }
}

impl ExecContext<'_> {
    /// Whether any resource beyond the plain executor is configured.
    pub fn is_plain(&self) -> bool {
        self.cache.is_none()
            && self.shared.is_none()
            && self.stats.is_none()
            && self.trees.is_none()
    }

    /// Opens a stage span against the context's timings; a no-op guard
    /// when timings are absent or disabled.
    pub fn span(&self, stage: Stage) -> Option<StageSpan<'_>> {
        self.timings.map(|t| t.span(stage))
    }
}

/// Executor selector: the streaming pipeline (default) or the legacy
/// materializing evaluator, retained as the equivalence oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Cursor-based pipeline from disk pages to joins (this module).
    #[default]
    Streaming,
    /// Legacy evaluator: materializes every posting list into `Vec`s
    /// before the join phase ([`crate::eval`]).
    Materialized,
}

impl ExecMode {
    /// Name for CLI/bench output.
    pub fn name(&self) -> &'static str {
        match self {
            ExecMode::Streaming => "streaming",
            ExecMode::Materialized => "materialized",
        }
    }
}

/// Shared accounting of resident posting/tuple bytes across the operator
/// tree; `peak` is the figure the bench ablation reports.
#[derive(Clone, Default)]
pub struct MemMeter {
    inner: Rc<Cell<(usize, usize)>>,
}

impl MemMeter {
    fn adjust(&self, old: usize, new: usize) {
        let (cur, peak) = self.inner.get();
        let cur = cur + new - old.min(cur);
        self.inner.set((cur, peak.max(cur)));
    }

    fn add(&self, n: usize) {
        self.adjust(0, n);
    }

    fn sub(&self, n: usize) {
        self.adjust(n, 0);
    }

    /// High-water mark of resident bytes.
    pub fn peak(&self) -> usize {
        self.inner.get().1
    }
}

use crate::join::{tuple_bytes, tuples_bytes};

/// A pull-based stream of join tuples, tid-major ordered.
///
/// The stream **lends** each tuple: the borrow lives until the next
/// `next` call, extending the posting pipeline's borrow contract (pager
/// page → cursor window → posting → tuple) one level further up.
/// Consumers that only inspect the tuple (joins reading the driving
/// slots, the final projection) pay no copy at all; consumers that
/// buffer it (sort groups, join windows, merge lookaheads) clone
/// exactly what they would previously have owned. The big winner is
/// [`SharedScan`], which now serves borrows straight out of the
/// batch-shared vector instead of cloning every tuple for every
/// consumer.
pub trait TupleStream {
    /// Produces the next tuple, or `None` at end of stream.
    fn next(&mut self) -> Result<Option<&Tuple>>;
}

/// Clones a child stream's next tuple into an owned buffer slot —
/// the one copy point of operators that must hold tuples across pulls
/// (`lnext`/`rnext` lookaheads). Free function over disjoint `&mut`s so
/// callers can keep a borrow of a *different* child stream alive.
fn pull_into(stream: &mut BoxStream<'_>, next: &mut Option<Tuple>, done: &mut bool) -> Result<()> {
    if *done {
        *next = None;
        return Ok(());
    }
    *next = stream.next()?.cloned();
    if next.is_none() {
        *done = true;
    }
    Ok(())
}

type BoxStream<'a> = Box<dyn TupleStream + 'a>;

/// Opens the borrow-lending posting feed for one cover key — the
/// single construction point of the `Box<dyn PostingFeed>` seam, shared
/// by [`PostingScan`] and the filter-coding leapfrog intersection. With
/// a block cache in `ctx` the feed is a [`CachedListReader`] (hits are
/// served as zero-copy borrows out of pinned blocks, misses warm the
/// cache; an absent key yields an empty feed); without one it is a
/// [`PostingCursor`](crate::coding::PostingCursor) decoding straight
/// off the pager, where an absent key returns `None`.
pub fn make_feed<'a>(
    index: &'a SubtreeIndex,
    key: &[u8],
    ctx: &ExecContext<'_>,
    tally: &Rc<CacheTally>,
) -> Result<Option<Box<dyn PostingFeed + 'a>>> {
    Ok(match &ctx.cache {
        Some(cache) => Some(Box::new(CachedListReader::new(
            index,
            cache.clone(),
            key,
            tally.clone(),
        ))),
        None => index
            .posting_cursor(key)?
            .map(|cursor| Box::new(cursor) as Box<dyn PostingFeed + 'a>),
    })
}

/// Leaf operator: streams one cover subtree's postings — from the
/// B+Tree via a [`PostingCursor`](crate::coding::PostingCursor), or
/// from the decoded-block cache via
/// [`CachedListReader`] — and turns them into single- or multi-slot
/// tuples, sorted by `(tid, slots[0].pre)` — the order
/// [`crate::coding::PostingBuilder`] wrote them in. Postings arrive as
/// borrows from the feed's buffer; node values are copied into owned
/// [`Slots`] only here, the point where a tuple outlives its source
/// posting.
pub struct PostingScan<'a> {
    feed: Box<dyn PostingFeed + 'a>,
    /// Automorphic slot permutations (interval coding only).
    autos: Vec<Vec<usize>>,
    pending: VecDeque<Tuple>,
    fetched: Rc<Cell<usize>>,
    meter: MemMeter,
    reported: usize,
    /// Lending slot the borrow returned by `next` points into.
    slot: Option<Tuple>,
}

impl<'a> PostingScan<'a> {
    /// Opens a scan over `key`'s posting list; `None` when the key is
    /// absent from the index. With a block cache in `ctx`, the feed
    /// serves decoded blocks (reporting hits/misses into `tally`);
    /// otherwise it decodes straight off the pager.
    pub fn open(
        index: &'a SubtreeIndex,
        key: &[u8],
        fetched: Rc<Cell<usize>>,
        meter: MemMeter,
        ctx: &ExecContext<'_>,
        tally: Rc<CacheTally>,
    ) -> Result<Option<Self>> {
        let Some(feed) = make_feed(index, key, ctx, &tally)? else {
            return Ok(None);
        };
        let autos = match index.options().coding {
            Coding::SubtreeInterval => {
                let shape = decode_key(key)
                    .ok_or_else(|| StorageError::Corrupt("bad canonical key".into()))?;
                automorphisms(&shape, 720)
            }
            _ => Vec::new(),
        };
        Ok(Some(Self {
            feed,
            autos,
            pending: VecDeque::new(),
            fetched,
            meter,
            reported: 0,
            slot: None,
        }))
    }

    /// Forwards a seek to the underlying feed: postings with `tid <
    /// target` are skipped at restart-block granularity without being
    /// decoded. Only meaningful before the first tuple is pulled (the
    /// executor seeds scans to the cover's common tid-range start).
    /// Returns the number of postings skipped; 0 when the list has no
    /// skip table or the target lands in the current block.
    pub fn seek_to_tid(&mut self, target: TreeId) -> Result<u64> {
        debug_assert!(self.pending.is_empty() && self.slot.is_none());
        self.feed.seek_to_tid(target)
    }

    fn report(&mut self) {
        // The scan's footprint is its page window (reported at its
        // high-water mark so short inline lists register too) plus the
        // pending automorphic expansion.
        let now =
            self.feed.peak_buffer_bytes() + self.pending.iter().map(tuple_bytes).sum::<usize>();
        self.meter.adjust(self.reported, now);
        self.reported = now;
    }
}

impl TupleStream for PostingScan<'_> {
    fn next(&mut self) -> Result<Option<&Tuple>> {
        loop {
            if let Some(t) = self.pending.pop_front() {
                self.report();
                self.slot = Some(t);
                return Ok(self.slot.as_ref());
            }
            // The posting is a borrow of the feed's buffer; everything
            // below copies node values (plain `Copy` data) into the
            // owned lending slot before the borrow ends.
            let Some(posting) = self.feed.next_posting()? else {
                self.report();
                return Ok(None);
            };
            self.fetched.set(self.fetched.get() + 1);
            match posting {
                Posting::Root { tid, root } => {
                    let t = Tuple {
                        tid: *tid,
                        slots: Slots::one(*root),
                    };
                    self.report();
                    self.slot = Some(t);
                    return Ok(self.slot.as_ref());
                }
                Posting::Occurrence { tid, nodes } => {
                    // Each posting fixes one arbitrary assignment of data
                    // nodes to canonical positions; automorphic
                    // reassignments are equally valid and joins must see
                    // them all.
                    for perm in &self.autos {
                        self.pending.push_back(Tuple {
                            tid: *tid,
                            slots: perm.iter().map(|&j| nodes[j].0).collect(),
                        });
                    }
                }
                Posting::Tid(_) => {
                    return Err(StorageError::Corrupt(
                        "tid posting in structural scan".into(),
                    ))
                }
            }
        }
    }
}

/// Leaf operator over a **batch-shared** tuple vector: one
/// [`collect_scan_tuples`] pass over a posting list (decode +
/// automorphic expansion done once) feeds any number of `SharedScan`s
/// across the concurrent pipelines of a service batch — the paper-scale
/// answer to many queries hitting the same hot cover key. Emits exactly
/// the tuples (and order) a fresh [`PostingScan`] over the same key
/// would.
pub struct SharedScan {
    tuples: Arc<Vec<Tuple>>,
    pos: usize,
    fetched: Rc<Cell<usize>>,
}

impl SharedScan {
    /// A scan over `tuples`, counting consumed tuples into `fetched`.
    pub fn new(tuples: Arc<Vec<Tuple>>, fetched: Rc<Cell<usize>>) -> Self {
        Self {
            tuples,
            pos: 0,
            fetched,
        }
    }

    /// Seeks the cursor past every tuple with `tid < target` — the
    /// shared-vector analogue of a posting seek, a binary search over
    /// the tid-major order instead of a skip table. Returns the number
    /// of tuples jumped (never handed to the consumer).
    pub fn seek_to_tid(&mut self, target: TreeId) -> u64 {
        let at = self.tuples.partition_point(|t| t.tid < target);
        let skipped = at.saturating_sub(self.pos);
        self.pos = self.pos.max(at);
        skipped as u64
    }
}

impl TupleStream for SharedScan {
    fn next(&mut self) -> Result<Option<&Tuple>> {
        // The backing vector is owned by the batch, not this query; its
        // bytes are accounted once by the service, not per consumer —
        // and the tuple is **lent** straight out of it: no clone, the
        // zero-copy contract extended to batch-shared scans.
        match self.tuples.get(self.pos) {
            Some(t) => {
                self.pos += 1;
                self.fetched.set(self.fetched.get() + 1);
                Ok(Some(t))
            }
            None => Ok(None),
        }
    }
}

/// Fully drains one cover key's posting scan into a tuple vector that
/// [`SharedScan`] consumers can share. Runs through `ctx`'s block cache
/// when configured (warming it for later misses). Returns an empty
/// vector for an absent key.
pub fn collect_scan_tuples(
    index: &SubtreeIndex,
    key: &[u8],
    ctx: &ExecContext<'_>,
) -> Result<Arc<Vec<Tuple>>> {
    let fetched = Rc::new(Cell::new(0usize));
    let meter = MemMeter::default();
    let tally = Rc::new(CacheTally::default());
    let Some(mut scan) = PostingScan::open(index, key, fetched, meter, ctx, tally)? else {
        return Ok(Arc::new(Vec::new()));
    };
    let mut out = Vec::new();
    while let Some(t) = scan.next()? {
        out.push(t.clone());
    }
    Ok(Arc::new(out))
}

/// Order enforcer: re-emits its input sorted by `(tid,
/// slots[slot].pre)`. The planner inserts one only where the driving
/// slot's order is not already established symbolically; at runtime the
/// exchange exploits two facts the plan cannot see:
///
/// * every [`TupleStream`] is already **tid-major**, so only one tid
///   group is ever buffered (memory is bounded by the widest group, not
///   the stream — the old enforcer materialized everything);
/// * a group that *arrives* ordered on the driving slot is passed
///   through untouched (run detection), and an exchange that drains its
///   whole input without sorting a single group reports itself into
///   [`EvalStats::sort_exchanges_avoided`] — the observable "sort-free
///   plan" win.
struct SortExchange<'a> {
    input: BoxStream<'a>,
    slot: usize,
    group: VecDeque<Tuple>,
    /// One-tuple lookahead: the first tuple of the *next* tid group.
    lookahead: Option<Tuple>,
    started: bool,
    input_done: bool,
    /// Whether any tuple flowed at all (an empty input avoids nothing).
    saw_tuples: bool,
    /// Whether any group actually needed sorting.
    sorted_any: bool,
    /// Whether the drain outcome was already reported into `avoided`.
    reported: bool,
    /// Shared per-evaluation counter of avoided sorts.
    avoided: Rc<Cell<usize>>,
    meter: MemMeter,
    /// Lending slot the borrow returned by `next` points into.
    out_slot: Option<Tuple>,
}

impl<'a> SortExchange<'a> {
    fn new(input: BoxStream<'a>, slot: usize, avoided: Rc<Cell<usize>>, meter: MemMeter) -> Self {
        Self {
            input,
            slot,
            group: VecDeque::new(),
            lookahead: None,
            started: false,
            input_done: false,
            saw_tuples: false,
            sorted_any: false,
            reported: false,
            avoided,
            meter,
            out_slot: None,
        }
    }

    /// Buffers the next tid group from the input, sorting it only when
    /// it arrived out of driving-slot order. Returns whether any tuples
    /// were buffered.
    fn fill_group(&mut self) -> Result<bool> {
        if !self.started {
            self.started = true;
            self.lookahead = self.input.next()?.cloned();
        }
        let Some(first) = self.lookahead.take() else {
            self.input_done = true;
            return Ok(false);
        };
        let tid = first.tid;
        let slot = self.slot;
        let mut group = vec![first];
        let mut ordered = true;
        loop {
            match self.input.next()? {
                Some(t) if t.tid == tid => {
                    if t.slots[slot].pre < group.last().expect("non-empty group").slots[slot].pre {
                        ordered = false;
                    }
                    group.push(t.clone());
                }
                next => {
                    self.input_done = next.is_none();
                    self.lookahead = next.cloned();
                    break;
                }
            }
        }
        for t in &group {
            self.meter.add(tuple_bytes(t));
        }
        if !ordered {
            self.sorted_any = true;
            group.sort_by_key(|t| t.slots[slot].pre);
        }
        self.saw_tuples = true;
        self.group = group.into();
        Ok(true)
    }
}

impl TupleStream for SortExchange<'_> {
    fn next(&mut self) -> Result<Option<&Tuple>> {
        loop {
            if let Some(t) = self.group.pop_front() {
                self.meter.sub(tuple_bytes(&t));
                self.out_slot = Some(t);
                return Ok(self.out_slot.as_ref());
            }
            if !self.input_done && self.fill_group()? {
                continue;
            }
            if !self.reported {
                self.reported = true;
                // An avoided sort requires tuples to have flowed: an
                // empty input (key absent from this shard, say) never
                // had anything to sort and must not inflate the
                // counter the CI smoke gate watches.
                if self.saw_tuples && !self.sorted_any {
                    self.avoided.set(self.avoided.get() + 1);
                }
            }
            return Ok(None);
        }
    }
}

fn passes(residuals: &[Pred], t: &Tuple) -> bool {
    residuals.iter().all(|p| p.holds(&t.slots))
}

/// Sort-merge equality join on `(tid, pre)` of the driving slots; both
/// inputs must arrive sorted on them. Buffers only the current
/// equal-key groups (the cross product of duplicates).
struct MergeEqJoin<'a> {
    left: BoxStream<'a>,
    right: BoxStream<'a>,
    ls: usize,
    rs: usize,
    residuals: Vec<Pred>,
    lnext: Option<Tuple>,
    rnext: Option<Tuple>,
    started: bool,
    out: VecDeque<Tuple>,
    meter: MemMeter,
    out_slot: Option<Tuple>,
}

impl<'a> MergeEqJoin<'a> {
    fn new(
        left: BoxStream<'a>,
        right: BoxStream<'a>,
        ls: usize,
        rs: usize,
        residuals: Vec<Pred>,
        meter: MemMeter,
    ) -> Self {
        Self {
            left,
            right,
            ls,
            rs,
            residuals,
            lnext: None,
            rnext: None,
            started: false,
            out: VecDeque::new(),
            meter,
            out_slot: None,
        }
    }
}

impl TupleStream for MergeEqJoin<'_> {
    fn next(&mut self) -> Result<Option<&Tuple>> {
        loop {
            if let Some(t) = self.out.pop_front() {
                self.meter.sub(tuple_bytes(&t));
                self.out_slot = Some(t);
                return Ok(self.out_slot.as_ref());
            }
            if !self.started {
                self.started = true;
                self.lnext = self.left.next()?.cloned();
                self.rnext = self.right.next()?.cloned();
            }
            let (Some(l), Some(r)) = (&self.lnext, &self.rnext) else {
                return Ok(None);
            };
            let lk = (l.tid, l.slots[self.ls].pre);
            let rk = (r.tid, r.slots[self.rs].pre);
            match lk.cmp(&rk) {
                std::cmp::Ordering::Less => self.lnext = self.left.next()?.cloned(),
                std::cmp::Ordering::Greater => self.rnext = self.right.next()?.cloned(),
                std::cmp::Ordering::Equal => {
                    // Gather both equal-key groups and emit their cross
                    // product (groups are tiny: same data node in the
                    // same tree).
                    let mut lgroup = Vec::new();
                    while let Some(l) = &self.lnext {
                        if (l.tid, l.slots[self.ls].pre) != lk {
                            break;
                        }
                        lgroup.push(self.lnext.take().unwrap());
                        self.lnext = self.left.next()?.cloned();
                    }
                    let mut rgroup = Vec::new();
                    while let Some(r) = &self.rnext {
                        if (r.tid, r.slots[self.rs].pre) != rk {
                            break;
                        }
                        rgroup.push(self.rnext.take().unwrap());
                        self.rnext = self.right.next()?.cloned();
                    }
                    for l in &lgroup {
                        for r in &rgroup {
                            let c = combine(l, r);
                            if passes(&self.residuals, &c) {
                                self.meter.add(tuple_bytes(&c));
                                self.out.push_back(c);
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Streaming Multi-Predicate Merge Join (Zhang et al.): both inputs
/// sorted by `(tid, pre)` on the driving slots; buffers the left tuples
/// of the current tid whose interval can still contain upcoming right
/// tuples (per-tree windows — tens of nodes in parse trees).
struct MpmgjnJoin<'a> {
    left: BoxStream<'a>,
    right: BoxStream<'a>,
    kind: JoinKind,
    ls: usize,
    rs: usize,
    residuals: Vec<Pred>,
    window: Vec<Tuple>,
    window_bytes: usize,
    lnext: Option<Tuple>,
    left_done: bool,
    started: bool,
    out: VecDeque<Tuple>,
    meter: MemMeter,
    out_slot: Option<Tuple>,
}

impl<'a> MpmgjnJoin<'a> {
    fn new(
        left: BoxStream<'a>,
        right: BoxStream<'a>,
        kind: JoinKind,
        ls: usize,
        rs: usize,
        residuals: Vec<Pred>,
        meter: MemMeter,
    ) -> Self {
        debug_assert!(matches!(kind, JoinKind::Parent | JoinKind::Ancestor));
        Self {
            left,
            right,
            kind,
            ls,
            rs,
            residuals,
            window: Vec::new(),
            window_bytes: 0,
            lnext: None,
            left_done: false,
            started: false,
            out: VecDeque::new(),
            meter,
            out_slot: None,
        }
    }
}

impl TupleStream for MpmgjnJoin<'_> {
    fn next(&mut self) -> Result<Option<&Tuple>> {
        loop {
            if let Some(t) = self.out.pop_front() {
                self.meter.sub(tuple_bytes(&t));
                self.out_slot = Some(t);
                return Ok(self.out_slot.as_ref());
            }
            if !self.started {
                self.started = true;
                pull_into(&mut self.left, &mut self.lnext, &mut self.left_done)?;
            }
            // `r` stays a borrow of the right child for the whole round:
            // every mutation below touches fields disjoint from
            // `self.right` (which is why the pulls go through the free
            // `pull_into` rather than a `&mut self` method).
            let Some(r) = self.right.next()? else {
                self.meter.sub(self.window_bytes);
                self.window_bytes = 0;
                self.window.clear();
                return Ok(None);
            };
            // Left tuples of earlier trees can never match this or any
            // future right tuple.
            if self.window.first().is_some_and(|w| w.tid < r.tid) {
                self.meter.sub(self.window_bytes);
                self.window_bytes = 0;
                self.window.clear();
            }
            while let Some(l) = &self.lnext {
                if l.tid < r.tid {
                    pull_into(&mut self.left, &mut self.lnext, &mut self.left_done)?;
                } else if l.tid == r.tid && l.slots[self.ls].pre < r.slots[self.rs].pre {
                    let l = self.lnext.take().unwrap();
                    self.window_bytes += tuple_bytes(&l);
                    self.meter.add(tuple_bytes(&l));
                    self.window.push(l);
                    pull_into(&mut self.left, &mut self.lnext, &mut self.left_done)?;
                } else {
                    break;
                }
            }
            if self.window.is_empty() && self.left_done {
                // No left candidate can ever appear again.
                return Ok(None);
            }
            let rv = r.slots[self.rs];
            for l in &self.window {
                if l.tid != r.tid {
                    continue;
                }
                let lv = l.slots[self.ls];
                let ok = match self.kind {
                    JoinKind::Parent => lv.is_parent_of(&rv),
                    JoinKind::Ancestor => lv.is_ancestor_of(&rv),
                    JoinKind::Eq => unreachable!("Eq uses MergeEqJoin"),
                };
                if ok {
                    let c = combine(l, r);
                    if passes(&self.residuals, &c) {
                        self.meter.add(tuple_bytes(&c));
                        self.out.push_back(c);
                    }
                }
            }
        }
    }
}

/// Streaming Stack-Tree join (Al-Khalifa et al.): one merged pass with a
/// stack of open ancestors — the per-tid memory is the tree depth, not
/// the node count.
struct StackTreeJoin<'a> {
    left: BoxStream<'a>,
    right: BoxStream<'a>,
    kind: JoinKind,
    ls: usize,
    rs: usize,
    residuals: Vec<Pred>,
    stack: Vec<Tuple>,
    lnext: Option<Tuple>,
    left_done: bool,
    started: bool,
    out: VecDeque<Tuple>,
    meter: MemMeter,
    out_slot: Option<Tuple>,
}

impl<'a> StackTreeJoin<'a> {
    fn new(
        left: BoxStream<'a>,
        right: BoxStream<'a>,
        kind: JoinKind,
        ls: usize,
        rs: usize,
        residuals: Vec<Pred>,
        meter: MemMeter,
    ) -> Self {
        debug_assert!(matches!(kind, JoinKind::Parent | JoinKind::Ancestor));
        Self {
            left,
            right,
            kind,
            ls,
            rs,
            residuals,
            stack: Vec::new(),
            lnext: None,
            left_done: false,
            started: false,
            out: VecDeque::new(),
            meter,
            out_slot: None,
        }
    }
}

impl TupleStream for StackTreeJoin<'_> {
    fn next(&mut self) -> Result<Option<&Tuple>> {
        loop {
            if let Some(t) = self.out.pop_front() {
                self.meter.sub(tuple_bytes(&t));
                self.out_slot = Some(t);
                return Ok(self.out_slot.as_ref());
            }
            if !self.started {
                self.started = true;
                pull_into(&mut self.left, &mut self.lnext, &mut self.left_done)?;
            }
            // As in MPMGJN, `r` borrows the right child across the
            // round; all mutation below stays on disjoint fields.
            let Some(r) = self.right.next()? else {
                let freed = tuples_bytes(&self.stack);
                self.meter.sub(freed);
                self.stack.clear();
                return Ok(None);
            };
            let rv = r.slots[self.rs];
            // Pop ancestors that cannot contain r (different tree or
            // closed interval).
            while let Some(top) = self.stack.last() {
                let tv = top.slots[self.ls];
                if top.tid < r.tid || (top.tid == r.tid && !tv.is_ancestor_of(&rv)) {
                    let freed = tuple_bytes(top);
                    self.meter.sub(freed);
                    self.stack.pop();
                } else {
                    break;
                }
            }
            // Push left tuples that start before r, keeping only the
            // ancestor path of r.
            while let Some(l) = &self.lnext {
                let on_path = l.tid == r.tid && l.slots[self.ls].pre < rv.pre;
                let earlier_tree = l.tid < r.tid;
                if !(on_path || earlier_tree) {
                    break;
                }
                let l = self.lnext.take().unwrap();
                if l.tid == r.tid && l.slots[self.ls].is_ancestor_of(&rv) {
                    while let Some(top) = self.stack.last() {
                        if top.tid != r.tid || !top.slots[self.ls].is_ancestor_of(&rv) {
                            let freed = tuple_bytes(top);
                            self.meter.sub(freed);
                            self.stack.pop();
                        } else {
                            break;
                        }
                    }
                    self.meter.add(tuple_bytes(&l));
                    self.stack.push(l);
                }
                pull_into(&mut self.left, &mut self.lnext, &mut self.left_done)?;
            }
            if self.stack.is_empty() && self.left_done {
                return Ok(None);
            }
            for l in &self.stack {
                if l.tid != r.tid {
                    continue;
                }
                let lv = l.slots[self.ls];
                let ok = match self.kind {
                    JoinKind::Parent => lv.is_parent_of(&rv),
                    JoinKind::Ancestor => lv.is_ancestor_of(&rv),
                    JoinKind::Eq => unreachable!("Eq uses MergeEqJoin"),
                };
                if ok {
                    let c = combine(l, r);
                    if passes(&self.residuals, &c) {
                        self.meter.add(tuple_bytes(&c));
                        self.out.push_back(c);
                    }
                }
            }
        }
    }
}

/// Per-tid nested-loop join, the fallback when no predicate connects two
/// streams (disconnected join graphs; rare — valid covers are
/// connected). Buffers one tid group per side.
struct TidCrossJoin<'a> {
    left: BoxStream<'a>,
    right: BoxStream<'a>,
    residuals: Vec<Pred>,
    lnext: Option<Tuple>,
    rnext: Option<Tuple>,
    started: bool,
    out: VecDeque<Tuple>,
    meter: MemMeter,
    out_slot: Option<Tuple>,
}

impl<'a> TidCrossJoin<'a> {
    fn new(
        left: BoxStream<'a>,
        right: BoxStream<'a>,
        residuals: Vec<Pred>,
        meter: MemMeter,
    ) -> Self {
        Self {
            left,
            right,
            residuals,
            lnext: None,
            rnext: None,
            started: false,
            out: VecDeque::new(),
            meter,
            out_slot: None,
        }
    }
}

impl TupleStream for TidCrossJoin<'_> {
    fn next(&mut self) -> Result<Option<&Tuple>> {
        loop {
            if let Some(t) = self.out.pop_front() {
                self.meter.sub(tuple_bytes(&t));
                self.out_slot = Some(t);
                return Ok(self.out_slot.as_ref());
            }
            if !self.started {
                self.started = true;
                self.lnext = self.left.next()?.cloned();
                self.rnext = self.right.next()?.cloned();
            }
            let (Some(l), Some(r)) = (&self.lnext, &self.rnext) else {
                return Ok(None);
            };
            match l.tid.cmp(&r.tid) {
                std::cmp::Ordering::Less => self.lnext = self.left.next()?.cloned(),
                std::cmp::Ordering::Greater => self.rnext = self.right.next()?.cloned(),
                std::cmp::Ordering::Equal => {
                    let tid = l.tid;
                    let mut lgroup = Vec::new();
                    while let Some(l) = &self.lnext {
                        if l.tid != tid {
                            break;
                        }
                        lgroup.push(self.lnext.take().unwrap());
                        self.lnext = self.left.next()?.cloned();
                    }
                    let mut rgroup = Vec::new();
                    while let Some(r) = &self.rnext {
                        if r.tid != tid {
                            break;
                        }
                        rgroup.push(self.rnext.take().unwrap());
                        self.rnext = self.right.next()?.cloned();
                    }
                    for l in &lgroup {
                        for r in &rgroup {
                            let c = combine(l, r);
                            if passes(&self.residuals, &c) {
                                self.meter.add(tuple_bytes(&c));
                                self.out.push_back(c);
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Seek accounting shared by every scan of one evaluation.
#[derive(Default)]
struct SeekTally {
    seeks: Cell<u64>,
    postings_skipped: Cell<u64>,
}

impl SeekTally {
    fn record(&self, skipped: u64) {
        if skipped > 0 {
            self.seeks.set(self.seeks.get() + 1);
            self.postings_skipped
                .set(self.postings_skipped.get() + skipped);
        }
    }
}

/// A scan operator's **private** tally cells. When timings are enabled
/// each scan writes into its own cells instead of the query-shared
/// ones, so attribution is exact with zero work on the pull path: the
/// operator wrapper reads the totals once at drop, and the drain folds
/// them back into the query-wide counters afterwards.
struct ScanSnap {
    fetched: Rc<Cell<usize>>,
    tally: Rc<CacheTally>,
    seeks: Rc<SeekTally>,
}

/// Clock reads dominate the cost of per-pull operator timing (two
/// `Instant` calls against pulls that often decode a single posting),
/// so the wrapper samples the clock: the first `OP_WARM` pulls are
/// timed exactly (they cover open/seek work and short streams
/// entirely), then every `OP_SAMPLE`th pull after that, and the drop
/// scales sampled nanoseconds to the pull count. Rows and posting
/// tallies stay exact — rows are a plain increment, tallies live in
/// the scan's private cells ([`ScanSnap`]).
const OP_SAMPLE: u64 = 64;
const OP_WARM: u64 = 8;

/// Decorator stream measuring one operator: inclusive wall time
/// (clock-sampled, see [`OP_SAMPLE`]) and exact rows out per pull.
/// Only constructed when timings are enabled, so the disabled pipeline
/// runs the undecorated operators. Totals — including a scan's private
/// posting tallies — flush to the owning [`Timings`] node on drop.
struct TimedStream<'t, 'a> {
    inner: BoxStream<'a>,
    timings: &'t Timings,
    id: usize,
    sampled_nanos: u64,
    sampled_pulls: u64,
    pulls: u64,
    rows: u64,
    scan: Option<ScanSnap>,
}

impl TupleStream for TimedStream<'_, '_> {
    fn next(&mut self) -> Result<Option<&Tuple>> {
        let sampled = self.pulls < OP_WARM || self.pulls.is_multiple_of(OP_SAMPLE);
        self.pulls += 1;
        if sampled {
            return self.next_timed();
        }
        let r = self.inner.next();
        if matches!(r, Ok(Some(_))) {
            self.rows += 1;
        }
        r
    }
}

impl TimedStream<'_, '_> {
    /// The sampled pull: wraps `inner.next()` in a clock-read pair.
    /// Outlined and `#[cold]` so the clock machinery stays off the
    /// unsampled hot path — keeping it inline costs measurably more
    /// than the sampled clock reads themselves.
    #[cold]
    #[inline(never)]
    fn next_timed(&mut self) -> Result<Option<&Tuple>> {
        let start = std::time::Instant::now();
        let r = self.inner.next();
        self.sampled_nanos += u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.sampled_pulls += 1;
        if matches!(r, Ok(Some(_))) {
            self.rows += 1;
        }
        r
    }
}

impl Drop for TimedStream<'_, '_> {
    fn drop(&mut self) {
        let nanos = if self.sampled_pulls == 0 {
            0
        } else {
            u64::try_from(
                u128::from(self.sampled_nanos) * u128::from(self.pulls)
                    / u128::from(self.sampled_pulls),
            )
            .unwrap_or(u64::MAX)
        };
        let (fetched, borrowed, skipped, seeks) = match &self.scan {
            Some(s) => (
                s.fetched.get() as u64,
                s.tally.borrowed.get(),
                s.seeks.postings_skipped.get(),
                s.seeks.seeks.get(),
            ),
            None => (0, 0, 0, 0),
        };
        self.timings
            .record_op(self.id, nanos, self.rows, fetched, borrowed, skipped, seeks);
    }
}

/// Wraps `stream` in a [`TimedStream`] when timings are enabled,
/// registering an operator node with the given label/cover/children.
/// Returns the (possibly undecorated) stream plus the node id.
fn wrap_op<'t: 'a, 'a>(
    timings: Option<&'t Timings>,
    stream: BoxStream<'a>,
    label: &str,
    cover: Option<usize>,
    children: Vec<usize>,
    scan: Option<ScanSnap>,
) -> (BoxStream<'a>, Option<usize>) {
    match timings {
        Some(t) => {
            let id = t.push_op(label, cover, children);
            (
                Box::new(TimedStream {
                    inner: stream,
                    timings: t,
                    id,
                    sampled_nanos: 0,
                    sampled_pulls: 0,
                    pulls: 0,
                    rows: 0,
                    scan,
                }),
                Some(id),
            )
        }
        None => (stream, None),
    }
}

/// Opens the tuple source for one cover key: a [`SharedScan`] when the
/// batch pre-decoded the key, otherwise a fresh [`PostingScan`]
/// (cache-aware when `ctx` has a block cache). `None` = key absent.
///
/// When `seek_lo` is set every match is known to live at `tid >=
/// seek_lo` (the cover's common tid-range start), so the scan is
/// **seeded**: it seeks past the prefix of its list below `seek_lo`
/// instead of decoding and join-discarding it — restart-block jumps for
/// posting feeds, a binary search for shared vectors.
#[allow(clippy::too_many_arguments)]
fn open_source<'a>(
    index: &'a SubtreeIndex,
    key: &[u8],
    ctx: &ExecContext<'_>,
    fetched: Rc<Cell<usize>>,
    meter: MemMeter,
    tally: Rc<CacheTally>,
    seek_lo: Option<TreeId>,
    seek_tally: &Rc<SeekTally>,
) -> Result<Option<(BoxStream<'a>, &'static str)>> {
    if let Some(shared) = ctx.shared {
        if let Some(tuples) = shared.get(key) {
            let mut scan = SharedScan::new(tuples.clone(), fetched);
            if let Some(lo) = seek_lo {
                seek_tally.record(scan.seek_to_tid(lo));
            }
            return Ok(Some((Box::new(scan), "shared scan")));
        }
    }
    let Some(mut scan) = PostingScan::open(index, key, fetched, meter, ctx, tally)? else {
        return Ok(None);
    };
    if let Some(lo) = seek_lo {
        seek_tally.record(scan.seek_to_tid(lo)?);
    }
    Ok(Some((Box::new(scan), "scan")))
}

/// Builds the operator tree for `plan` and fully evaluates it.
/// `common_range` is the intersection of the cover keys' exact tid
/// ranges when known (cost-based planning over exact stats): every scan
/// is seeded to its start, since a match needs all cover keys in one
/// tree.
fn run_structural(
    index: &SubtreeIndex,
    query: &Query,
    cover: &Cover,
    plan: &Plan,
    ctx: &ExecContext<'_>,
    common_range: Option<(TreeId, TreeId)>,
    stats: &mut EvalStats,
) -> Result<Vec<(TreeId, u32)>> {
    let meter = MemMeter::default();
    let fetched = Rc::new(Cell::new(0usize));
    let tally = Rc::new(CacheTally::default());
    let seek_tally = Rc::new(SeekTally::default());
    // Only an **enabled** accumulator decorates the pipeline; a
    // disabled one costs exactly the branches on this option.
    let timings = ctx.timings.filter(|t| t.enabled());
    let run_start = timings.map(|_| std::time::Instant::now());
    let (seek_before, validate_before) = timings.map_or((0, 0), |t| {
        (
            t.stage_nanos(Stage::PostingSeek),
            t.stage_nanos(Stage::Validate),
        )
    });
    let mut scan_ops: Vec<usize> = Vec::new();
    let seek_lo = match common_range {
        Some((lo, _)) if ctx.seeks => Some(lo),
        _ => None,
    };
    // Seeded with the sorts the planner itself proved unnecessary (a
    // root-slot driver chosen over one that would have required an
    // order enforcer); remaining exchanges add themselves when their
    // run detection never had to sort.
    let avoided = Rc::new(Cell::new(plan.sorts_avoided));
    // When instrumenting, each scan writes its posting tallies into
    // private cells (exact per-operator attribution with no work on
    // the pull path); the cells fold back into the query totals after
    // the drain. Kept here so the totals survive the operator drops.
    let scan_cells: std::cell::RefCell<Vec<ScanSnap>> = std::cell::RefCell::new(Vec::new());
    let open_scan =
        |cover_idx: usize| -> Result<Option<(BoxStream<'_>, &'static str, Option<ScanSnap>)>> {
            // Opening seeds the scan to the cover's common range start —
            // the structural path's posting-seek work.
            let _span = ctx.span(Stage::PostingSeek);
            let (f, t, s) = if timings.is_some() {
                (
                    Rc::new(Cell::new(0usize)),
                    Rc::new(CacheTally::default()),
                    Rc::new(SeekTally::default()),
                )
            } else {
                (fetched.clone(), tally.clone(), seek_tally.clone())
            };
            let opened = open_source(
                index,
                &cover.subtrees[cover_idx].key,
                ctx,
                f.clone(),
                meter.clone(),
                t.clone(),
                seek_lo,
                &s,
            )?;
            Ok(opened.map(|(stream, label)| {
                let snap = timings.is_some().then(|| {
                    scan_cells.borrow_mut().push(ScanSnap {
                        fetched: f.clone(),
                        tally: t.clone(),
                        seeks: s.clone(),
                    });
                    ScanSnap {
                        fetched: f,
                        tally: t,
                        seeks: s,
                    }
                });
                (stream, label, snap)
            }))
        };

    let Some((base, base_label, base_snap)) = open_scan(plan.base)? else {
        return Ok(Vec::new());
    };
    let (mut stream, mut left_id) = wrap_op(
        timings,
        base,
        base_label,
        Some(plan.base),
        vec![],
        base_snap,
    );
    scan_ops.extend(left_id);
    for step in &plan.steps {
        let PlanStep {
            cover: ci,
            driving,
            residuals,
            sort_left,
            sort_right,
        } = step;
        let Some((scan, scan_label, scan_snap)) = open_scan(*ci)? else {
            return Ok(Vec::new());
        };
        let (mut right, mut right_id) =
            wrap_op(timings, scan, scan_label, Some(*ci), vec![], scan_snap);
        scan_ops.extend(right_id);
        if let Some(slot) = sort_right {
            let sorted: BoxStream<'_> = Box::new(SortExchange::new(
                right,
                *slot,
                avoided.clone(),
                meter.clone(),
            ));
            (right, right_id) = wrap_op(
                timings,
                sorted,
                &format!("sort (slot {slot})"),
                None,
                right_id.into_iter().collect(),
                None,
            );
        }
        if let Some(slot) = sort_left {
            let sorted: BoxStream<'_> = Box::new(SortExchange::new(
                stream,
                *slot,
                avoided.clone(),
                meter.clone(),
            ));
            (stream, left_id) = wrap_op(
                timings,
                sorted,
                &format!("sort (slot {slot})"),
                None,
                left_id.into_iter().collect(),
                None,
            );
        }
        let join_label = match driving {
            Some((JoinKind::Eq, ..)) => "merge-eq join",
            Some((JoinKind::Parent, ..)) => match index.join_algo() {
                crate::join::JoinAlgo::Mpmgjn => "mpmgjn parent",
                crate::join::JoinAlgo::StackTree => "stack-tree parent",
            },
            Some((JoinKind::Ancestor, ..)) => match index.join_algo() {
                crate::join::JoinAlgo::Mpmgjn => "mpmgjn ancestor",
                crate::join::JoinAlgo::StackTree => "stack-tree ancestor",
            },
            None => "tid-cross join",
        };
        let joined: BoxStream<'_> = match driving {
            Some((JoinKind::Eq, l, rs)) => Box::new(MergeEqJoin::new(
                stream,
                right,
                *l,
                *rs,
                residuals.clone(),
                meter.clone(),
            )),
            Some((kind @ (JoinKind::Parent | JoinKind::Ancestor), l, rs)) => {
                match index.join_algo() {
                    crate::join::JoinAlgo::Mpmgjn => Box::new(MpmgjnJoin::new(
                        stream,
                        right,
                        *kind,
                        *l,
                        *rs,
                        residuals.clone(),
                        meter.clone(),
                    )),
                    crate::join::JoinAlgo::StackTree => Box::new(StackTreeJoin::new(
                        stream,
                        right,
                        *kind,
                        *l,
                        *rs,
                        residuals.clone(),
                        meter.clone(),
                    )),
                }
            }
            None => Box::new(TidCrossJoin::new(
                stream,
                right,
                residuals.clone(),
                meter.clone(),
            )),
        };
        (stream, left_id) = wrap_op(
            timings,
            joined,
            join_label,
            None,
            left_id.into_iter().chain(right_id).collect(),
            None,
        );
        stats.joins += 1;
    }

    let matches = if plan.needs_validation {
        stats.used_validation = true;
        let mut tids: Vec<TreeId> = Vec::new();
        while let Some(t) = stream.next()? {
            if tids.last() != Some(&t.tid) {
                tids.push(t.tid);
            }
        }
        tids.sort_unstable();
        tids.dedup();
        let _span = ctx.span(Stage::Validate);
        validate_candidates_with(index, query, &tids, ctx.trees.as_deref(), stats)?
    } else {
        let root_slot = plan.root_slot.expect("projection slot planned");
        // A join-free root-split plan emits straight off the posting
        // scan, which arrives sorted by (tid, root.pre) — dedup without
        // the sort.
        let presorted =
            plan.steps.is_empty() && root_slot == 0 && index.options().coding == Coding::RootSplit;
        // Sort-based dedup: cheaper than hashing for the output sizes
        // the workload produces, and the result must be sorted anyway.
        let mut matches: Vec<(TreeId, u32)> = Vec::new();
        while let Some(t) = stream.next()? {
            let pair = (t.tid, t.slots[root_slot].pre);
            if presorted {
                debug_assert!(matches.last().is_none_or(|&last| last <= pair));
                if matches.last() != Some(&pair) {
                    matches.push(pair);
                }
            } else {
                matches.push(pair);
            }
        }
        if !presorted {
            matches.sort_unstable();
            matches.dedup();
        }
        matches
    };
    // Flush the operator wrappers (their totals land in the timings on
    // drop), then partition the run's wall time into stages: decode is
    // the scan leaves' inclusive time, join is everything else in the
    // drain once seeding and validation are taken back out.
    drop(stream);
    if let (Some(t), Some(start)) = (timings, run_start) {
        let total = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let seek_delta = t.stage_nanos(Stage::PostingSeek) - seek_before;
        let validate_delta = t.stage_nanos(Stage::Validate) - validate_before;
        // Seek and validate were measured exactly by their spans; the
        // remaining budget splits into decode (the scan leaves' clock-
        // sampled inclusive time, capped so the sampled estimate can
        // never push the stage sum past the wall) and join (the rest
        // of the drain).
        let budget = total.saturating_sub(seek_delta + validate_delta);
        let decode: u64 = scan_ops.iter().map(|&id| t.op_nanos(id)).sum();
        let decode = decode.min(budget);
        t.add(Stage::Decode, decode);
        t.add(Stage::Join, budget - decode);
        if plan.needs_validation {
            let vid = t.push_op("validate", None, left_id.into_iter().collect());
            t.record_op(vid, validate_delta, matches.len() as u64, 0, 0, 0, 0);
        }
    }
    // Fold the scans' private tallies (instrumented runs only; see
    // `open_scan`) back into the query-wide cells before aggregating.
    for snap in scan_cells.borrow().iter() {
        fetched.set(fetched.get() + snap.fetched.get());
        tally.hits.set(tally.hits.get() + snap.tally.hits.get());
        tally
            .misses
            .set(tally.misses.get() + snap.tally.misses.get());
        tally
            .borrowed
            .set(tally.borrowed.get() + snap.tally.borrowed.get());
        seek_tally
            .seeks
            .set(seek_tally.seeks.get() + snap.seeks.seeks.get());
        seek_tally
            .postings_skipped
            .set(seek_tally.postings_skipped.get() + snap.seeks.postings_skipped.get());
    }
    stats.postings_fetched += fetched.get();
    stats.peak_posting_bytes = stats.peak_posting_bytes.max(meter.peak());
    stats.cache_hits += tally.hits.get();
    stats.cache_misses += tally.misses.get();
    stats.postings_borrowed += tally.borrowed.get();
    stats.sort_exchanges_avoided += avoided.get();
    stats.seeks += seek_tally.seeks.get();
    stats.postings_skipped += seek_tally.postings_skipped.get();
    Ok(matches)
}

/// Streaming evaluation under the filter-based coding: a k-way merge
/// intersection of the covers' ascending tid streams feeds the
/// filtering phase directly — no tid list is ever materialized. With
/// exact per-key statistics the intersection is **range-seeded**:
/// disjoint tid ranges prune the whole query up front, the initial
/// target is implicitly `max(first_tid)` (each stream's head *is* its
/// first tid), and the merge stops once the target passes
/// `min(last_tid)` instead of draining the longest list's tail.
fn eval_filter_streaming(
    index: &SubtreeIndex,
    query: &Query,
    cover: &Cover,
    ctx: &ExecContext<'_>,
    stats: &mut EvalStats,
) -> Result<EvalResult> {
    // Per-key statistics: a missing key means no matches; disjoint tid
    // ranges prove the intersection empty before any list is opened
    // (exact stats only — the fallback estimate never prunes).
    let plan_span = ctx.span(Stage::Plan);
    let mut key_stats: Vec<KeyStats> = Vec::with_capacity(cover.subtrees.len());
    for st in &cover.subtrees {
        match key_stats_cached(index, &st.key, ctx)? {
            Some(s) => key_stats.push(s),
            None => {
                return Ok(EvalResult {
                    matches: Vec::new(),
                    stats: *stats,
                })
            }
        }
    }
    let range = if ctx.planner == PlannerMode::CostBased {
        match intersect_tid_ranges(&key_stats) {
            Some(r) => Some(r),
            None => {
                stats.range_pruned = true;
                return Ok(EvalResult {
                    matches: Vec::new(),
                    stats: *stats,
                });
            }
        }
    } else {
        None
    };
    drop(plan_span);

    let meter = MemMeter::default();
    let fetched = Rc::new(Cell::new(0usize));
    let tally = Rc::new(CacheTally::default());
    let seek_tally = SeekTally::default();
    let timings = ctx.timings.filter(|t| t.enabled());
    let use_seeks = ctx.seeks;
    let mut cursors: Vec<Box<dyn PostingFeed + '_>> = Vec::with_capacity(cover.subtrees.len());
    {
        let _span = ctx.span(Stage::PostingSeek);
        for st in &cover.subtrees {
            let Some(mut feed) = make_feed(index, &st.key, ctx, &tally)? else {
                return Ok(EvalResult {
                    matches: Vec::new(),
                    stats: *stats,
                });
            };
            // Seed each stream to the common range start: postings below
            // max(first_tid) can never survive the intersection, so jump
            // their restart blocks instead of decoding them.
            if use_seeks {
                if let Some((lo, _)) = range {
                    seek_tally.record(feed.seek_to_tid(lo)?);
                }
            }
            cursors.push(feed);
        }
    }
    stats.joins = cursors.len().saturating_sub(1);
    // Snapshot after seeding: only the seeks inside the merge loop are
    // subtracted from its wall time below.
    let seek_before = timings.map_or(0, |t| t.stage_nanos(Stage::PostingSeek));
    let isect_start = timings.map(|_| std::time::Instant::now());

    let advance = |cursor: &mut Box<dyn PostingFeed + '_>| -> Result<Option<TreeId>> {
        let Some(p) = cursor.next_posting()? else {
            return Ok(None);
        };
        fetched.set(fetched.get() + 1);
        match p {
            Posting::Tid(tid) => Ok(Some(*tid)),
            _ => Err(StorageError::Corrupt(
                "structural posting in filter index".into(),
            )),
        }
    };

    // Classic leapfrog intersection over ascending streams.
    let mut candidates: Vec<TreeId> = Vec::new();
    'outer: {
        let mut heads: Vec<TreeId> = Vec::with_capacity(cursors.len());
        for cursor in &mut cursors {
            match advance(cursor)? {
                Some(tid) => heads.push(tid),
                None => break 'outer,
            }
        }
        loop {
            let target = *heads.iter().max().unwrap();
            // Ceiling: no candidate can exceed min(last_tid) across the
            // cover, so stop instead of draining the remaining tails.
            if range.is_some_and(|(_, hi)| target > hi) {
                break 'outer;
            }
            let mut all_equal = true;
            for (i, cursor) in cursors.iter_mut().enumerate() {
                // Leapfrog: a lagging stream seeks to the target's
                // restart block first (skipping whole blocks of
                // postings undecoded), then drains the remainder of
                // the block posting by posting as before.
                if use_seeks && heads[i] < target {
                    let _span = ctx.span(Stage::PostingSeek);
                    seek_tally.record(cursor.seek_to_tid(target)?);
                }
                while heads[i] < target {
                    match advance(cursor)? {
                        Some(tid) => heads[i] = tid,
                        None => break 'outer,
                    }
                }
                if heads[i] > target {
                    all_equal = false;
                }
            }
            if all_equal {
                candidates.push(target);
                for (i, cursor) in cursors.iter_mut().enumerate() {
                    match advance(cursor)? {
                        Some(tid) => heads[i] = tid,
                        None => break 'outer,
                    }
                }
            }
        }
    }
    // Stage attribution: the merge loop's wall time minus the seek time
    // it contains is decode (pulling + comparing postings); the seeks
    // themselves were recorded in place.
    let isect_nanos = isect_start.map_or(0, |s| {
        u64::try_from(s.elapsed().as_nanos()).unwrap_or(u64::MAX)
    });
    // Resident bytes: the cursor windows plus the candidate list.
    let windows: usize = cursors.iter().map(|c| c.peak_buffer_bytes()).sum();
    meter.add(windows + candidates.len() * std::mem::size_of::<TreeId>());
    stats.postings_fetched += fetched.get();
    stats.cache_hits += tally.hits.get();
    stats.cache_misses += tally.misses.get();
    stats.postings_borrowed += tally.borrowed.get();
    stats.seeks += seek_tally.seeks.get();
    stats.postings_skipped += seek_tally.postings_skipped.get();
    let validate_before = timings.map_or(0, |t| t.stage_nanos(Stage::Validate));
    let matches = {
        let _span = ctx.span(Stage::Validate);
        validate_candidates_with(index, query, &candidates, ctx.trees.as_deref(), stats)?
    };
    if let Some(t) = timings {
        let seek_delta = t.stage_nanos(Stage::PostingSeek) - seek_before;
        t.add(Stage::Decode, isect_nanos.saturating_sub(seek_delta));
        let leap = t.push_op("tid leapfrog", None, Vec::new());
        t.record_op(
            leap,
            isect_nanos,
            candidates.len() as u64,
            fetched.get() as u64,
            tally.borrowed.get(),
            seek_tally.postings_skipped.get(),
            seek_tally.seeks.get(),
        );
        let vid = t.push_op("validate", None, vec![leap]);
        t.record_op(
            vid,
            t.stage_nanos(Stage::Validate) - validate_before,
            matches.len() as u64,
            0,
            0,
            0,
            0,
        );
    }
    stats.peak_posting_bytes = stats.peak_posting_bytes.max(meter.peak());
    Ok(EvalResult {
        matches,
        stats: *stats,
    })
}

/// Evaluates `query` with the streaming pipeline. Entry point behind
/// [`SubtreeIndex::evaluate`] when [`ExecMode::Streaming`] is selected
/// (the default).
pub fn evaluate_streaming(index: &SubtreeIndex, query: &Query) -> Result<EvalResult> {
    evaluate_streaming_with(index, query, &ExecContext::default())
}

/// [`evaluate_streaming`] with explicit execution resources: the query
/// service's entry point (block cache + batch-shared scans).
pub fn evaluate_streaming_with(
    index: &SubtreeIndex,
    query: &Query,
    ctx: &ExecContext<'_>,
) -> Result<EvalResult> {
    let options = index.options();
    let cover = {
        let _span = ctx.span(Stage::Canonicalize);
        decompose(query, options.mss, options.coding)
    };
    debug_assert_eq!(cover.validate(query, options.mss), Ok(()));
    let mut stats = EvalStats {
        covers: cover.subtrees.len(),
        ..EvalStats::default()
    };
    if options.coding == Coding::FilterBased {
        return eval_filter_streaming(index, query, &cover, ctx, &mut stats);
    }

    // Per-key statistics (stats segment, or byte-length estimates for
    // pre-stats index files) — the planner's only input. A missing key
    // means some cover subtree occurs nowhere: no matches, and no
    // posting list is ever opened.
    let plan_span = ctx.span(Stage::Plan);
    let mut key_stats = Vec::with_capacity(cover.subtrees.len());
    for st in &cover.subtrees {
        match key_stats_cached(index, &st.key, ctx)? {
            Some(s) => key_stats.push(s),
            None => {
                return Ok(EvalResult {
                    matches: Vec::new(),
                    stats,
                })
            }
        }
    }
    // Tid-range pruning: every match needs all cover keys in the same
    // tree, so disjoint [first, last] ranges prove the result empty
    // before a single posting is decoded. Exact ranges only (the
    // byte-length fallback carries the full range and never prunes);
    // gated off in ByteLen mode so A/B runs isolate the cost model.
    let common_range = if ctx.planner == PlannerMode::CostBased {
        match intersect_tid_ranges(&key_stats) {
            Some(range) => Some(range),
            None => {
                stats.range_pruned = true;
                return Ok(EvalResult {
                    matches: Vec::new(),
                    stats,
                });
            }
        }
    } else {
        None
    };
    let plan = plan_structural_with(
        query,
        &cover,
        options.coding,
        &key_stats,
        ctx.planner,
        ctx.root_pref_factor,
    );
    drop(plan_span);
    let matches = run_structural(index, query, &cover, &plan, ctx, common_range, &mut stats)?;
    Ok(EvalResult { matches, stats })
}
