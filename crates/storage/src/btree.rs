//! A disk-based B+Tree mapping byte keys to byte values.
//!
//! This is the index structure of §6.1: "our subtree index was implemented
//! as a native disk-based B+Tree index". Keys are canonical subtree
//! encodings; values are posting lists. The tree supports
//!
//! * **bulk loading** from a sorted stream (the normal way an SI is built),
//! * **upserts** with leaf/internal splits (incremental additions),
//! * **point lookups**, and
//! * **in-order scans** over all entries (used by the frequency-based
//!   baseline and by statistics collection).
//!
//! Values larger than [`INLINE_MAX`] bytes are stored in overflow-page
//! chains; long posting lists (low-selectivity labels) routinely span many
//! pages. Freed chains are recycled through an intra-file free list.
//!
//! # Page formats (4096-byte pages)
//!
//! ```text
//! meta (page 0): "SIBTREE1" | root u32 | height u32 | key_count u64
//!                | free_head u32 | value_bytes u64
//!                | ["SISTATS1" | stats_head u32 | stats_len u64]   (optional)
//! leaf:     0x01 | n u16 | next_leaf u32 | n * entry
//!   entry:  key_len varint | key | flag u8
//!           flag 0: val_len varint | val
//!           flag 1: total_len varint | first_overflow u32
//! internal: 0x02 | n_children u16 | child0 u32 | (key varint+bytes, child u32)*
//! overflow: 0x03 | next u32 | len u16 | data
//! free:     0x04 | next u32
//! ```
//!
//! # The stats segment
//!
//! A tree may additionally carry a **per-key statistics segment**: one
//! serialized table ([`KeyStats`] per key, sorted by key) stored in an
//! overflow-page chain whose head is recorded in the meta page behind
//! the `"SISTATS1"` marker. The segment is versioned by its own
//! `"SISTATV1"` table header and fully optional — files written before
//! it existed carry zeroes where the marker would be, open cleanly, and
//! report no stats ([`BTree::key_stats`] returns `None`, callers fall
//! back to [`BTree::value_len`]). [`BTree::insert`] invalidates the
//! segment (frees its chain) because a mutated tree would make the
//! recorded tid ranges unsafe for query pruning.

use std::path::Path;
use std::sync::{Arc, Mutex};

use si_parsetree::varint;

use crate::error::{Result, StorageError};
use crate::pager::{PageId, Pager, PAGE_SIZE};

/// Values up to this many bytes are stored inline in leaf pages.
pub const INLINE_MAX: usize = 1024;

/// Maximum supported key length; guarantees any single entry fits a page.
pub const KEY_MAX: usize = 1024;

const NIL: PageId = PageId::MAX;

const MAGIC: &[u8; 8] = b"SIBTREE1";
/// Meta-page marker guarding the stats-segment pointer (offset 36).
/// Pre-stats files hold zeroes here, so the segment reads as absent.
const STATS_MAGIC: &[u8; 8] = b"SISTATS1";
/// Header of the serialized stats table itself (its format version).
const STATS_TABLE_MAGIC_V1: &[u8; 8] = b"SISTATV1";
const STATS_TABLE_MAGIC: &[u8; 8] = b"SISTATV2";

/// Buckets of the per-key tid histogram ([`KeyStats::tid_hist`]).
pub const TID_HIST_BUCKETS: usize = 8;
const TAG_LEAF: u8 = 1;
const TAG_INTERNAL: u8 = 2;
const TAG_OVERFLOW: u8 = 3;
const TAG_FREE: u8 = 4;

/// Usable payload bytes per overflow page.
const OVERFLOW_CAP: usize = PAGE_SIZE - 7;

#[derive(Debug, Clone, PartialEq, Eq)]
enum ValueRef {
    Inline(Vec<u8>),
    Overflow { first: PageId, len: u64 },
}

impl ValueRef {
    fn encoded_len(&self, _key_len: usize) -> usize {
        match self {
            ValueRef::Inline(v) => 1 + varint::len_u64(v.len() as u64) + v.len(),
            ValueRef::Overflow { len, .. } => 1 + varint::len_u64(*len) + 4,
        }
    }

    fn len(&self) -> u64 {
        match self {
            ValueRef::Inline(v) => v.len() as u64,
            ValueRef::Overflow { len, .. } => *len,
        }
    }
}

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        entries: Vec<(Vec<u8>, ValueRef)>,
        next: PageId,
    },
    Internal {
        /// `children.len() == keys.len() + 1`; `keys[i]` separates
        /// `children[i]` (keys < keys[i]) from `children[i+1]` (keys >=).
        children: Vec<PageId>,
        keys: Vec<Vec<u8>>,
    },
}

impl Node {
    fn encode(&self, out: &mut [u8; PAGE_SIZE]) {
        out.fill(0);
        let mut buf = Vec::with_capacity(PAGE_SIZE);
        match self {
            Node::Leaf { entries, next } => {
                buf.push(TAG_LEAF);
                buf.extend_from_slice(&(entries.len() as u16).to_le_bytes());
                buf.extend_from_slice(&next.to_le_bytes());
                for (key, val) in entries {
                    varint::write_u64(&mut buf, key.len() as u64);
                    buf.extend_from_slice(key);
                    match val {
                        ValueRef::Inline(v) => {
                            buf.push(0);
                            varint::write_u64(&mut buf, v.len() as u64);
                            buf.extend_from_slice(v);
                        }
                        ValueRef::Overflow { first, len } => {
                            buf.push(1);
                            varint::write_u64(&mut buf, *len);
                            buf.extend_from_slice(&first.to_le_bytes());
                        }
                    }
                }
            }
            Node::Internal { children, keys } => {
                debug_assert_eq!(children.len(), keys.len() + 1);
                buf.push(TAG_INTERNAL);
                buf.extend_from_slice(&(children.len() as u16).to_le_bytes());
                buf.extend_from_slice(&children[0].to_le_bytes());
                for (key, &child) in keys.iter().zip(&children[1..]) {
                    varint::write_u64(&mut buf, key.len() as u64);
                    buf.extend_from_slice(key);
                    buf.extend_from_slice(&child.to_le_bytes());
                }
            }
        }
        debug_assert!(buf.len() <= PAGE_SIZE, "node overflows page: {}", buf.len());
        out[..buf.len()].copy_from_slice(&buf);
    }

    fn decode(buf: &[u8; PAGE_SIZE]) -> Result<Node> {
        let corrupt = |what: &str| StorageError::Corrupt(format!("btree node: {what}"));
        match buf[0] {
            TAG_LEAF => {
                let n = u16::from_le_bytes([buf[1], buf[2]]) as usize;
                let next = PageId::from_le_bytes([buf[3], buf[4], buf[5], buf[6]]);
                let mut r = varint::Reader::new(&buf[7..]);
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    let klen = r.u64().ok_or_else(|| corrupt("key len"))? as usize;
                    let key = r.bytes(klen).ok_or_else(|| corrupt("key bytes"))?.to_vec();
                    let flag = r.bytes(1).ok_or_else(|| corrupt("flag"))?[0];
                    let val = match flag {
                        0 => {
                            let vlen = r.u64().ok_or_else(|| corrupt("val len"))? as usize;
                            ValueRef::Inline(
                                r.bytes(vlen).ok_or_else(|| corrupt("val bytes"))?.to_vec(),
                            )
                        }
                        1 => {
                            let len = r.u64().ok_or_else(|| corrupt("ov len"))?;
                            let b = r.bytes(4).ok_or_else(|| corrupt("ov page"))?;
                            ValueRef::Overflow {
                                first: PageId::from_le_bytes([b[0], b[1], b[2], b[3]]),
                                len,
                            }
                        }
                        _ => return Err(corrupt("bad value flag")),
                    };
                    entries.push((key, val));
                }
                Ok(Node::Leaf { entries, next })
            }
            TAG_INTERNAL => {
                let n = u16::from_le_bytes([buf[1], buf[2]]) as usize;
                if n == 0 {
                    return Err(corrupt("internal with no children"));
                }
                let mut r = varint::Reader::new(&buf[3..]);
                let b = r.bytes(4).ok_or_else(|| corrupt("child0"))?;
                let mut children = vec![PageId::from_le_bytes([b[0], b[1], b[2], b[3]])];
                let mut keys = Vec::with_capacity(n - 1);
                for _ in 1..n {
                    let klen = r.u64().ok_or_else(|| corrupt("sep len"))? as usize;
                    keys.push(r.bytes(klen).ok_or_else(|| corrupt("sep bytes"))?.to_vec());
                    let b = r.bytes(4).ok_or_else(|| corrupt("child"))?;
                    children.push(PageId::from_le_bytes([b[0], b[1], b[2], b[3]]));
                }
                Ok(Node::Internal { children, keys })
            }
            t => Err(corrupt(&format!("unexpected page tag {t}"))),
        }
    }

    fn encoded_len(&self) -> usize {
        match self {
            Node::Leaf { entries, .. } => {
                7 + entries
                    .iter()
                    .map(|(k, v)| {
                        varint::len_u64(k.len() as u64) + k.len() + v.encoded_len(k.len())
                    })
                    .sum::<usize>()
            }
            Node::Internal { children, keys } => {
                3 + 4 * children.len()
                    + keys
                        .iter()
                        .map(|k| varint::len_u64(k.len() as u64) + k.len())
                        .sum::<usize>()
            }
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Meta {
    root: PageId,
    height: u32,
    key_count: u64,
    free_head: PageId,
    value_bytes: u64,
    /// First page of the stats-segment chain; `NIL` = no segment.
    stats_head: PageId,
    /// Serialized byte length of the stats table.
    stats_len: u64,
}

impl Meta {
    fn encode(&self, out: &mut [u8; PAGE_SIZE]) {
        out.fill(0);
        out[..8].copy_from_slice(MAGIC);
        out[8..12].copy_from_slice(&self.root.to_le_bytes());
        out[12..16].copy_from_slice(&self.height.to_le_bytes());
        out[16..24].copy_from_slice(&self.key_count.to_le_bytes());
        out[24..28].copy_from_slice(&self.free_head.to_le_bytes());
        out[28..36].copy_from_slice(&self.value_bytes.to_le_bytes());
        if self.stats_head != NIL {
            out[36..44].copy_from_slice(STATS_MAGIC);
            out[44..48].copy_from_slice(&self.stats_head.to_le_bytes());
            out[48..56].copy_from_slice(&self.stats_len.to_le_bytes());
        }
    }

    fn decode(buf: &[u8; PAGE_SIZE]) -> Result<Meta> {
        if &buf[..8] != MAGIC {
            return Err(StorageError::Corrupt("bad btree magic".into()));
        }
        // Pre-stats files hold zeroes at 36..: no marker, no segment.
        let (stats_head, stats_len) = if &buf[36..44] == STATS_MAGIC {
            (
                PageId::from_le_bytes(buf[44..48].try_into().unwrap()),
                u64::from_le_bytes(buf[48..56].try_into().unwrap()),
            )
        } else {
            (NIL, 0)
        };
        Ok(Meta {
            root: PageId::from_le_bytes(buf[8..12].try_into().unwrap()),
            height: u32::from_le_bytes(buf[12..16].try_into().unwrap()),
            key_count: u64::from_le_bytes(buf[16..24].try_into().unwrap()),
            free_head: PageId::from_le_bytes(buf[24..28].try_into().unwrap()),
            value_bytes: u64::from_le_bytes(buf[28..36].try_into().unwrap()),
            stats_head,
            stats_len,
        })
    }
}

/// Aggregate statistics of a [`BTree`], used by the index-size experiments
/// (Figure 8) and posting-count reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BTreeStats {
    /// Number of distinct keys.
    pub key_count: u64,
    /// Total bytes across all stored values.
    pub value_bytes: u64,
    /// Height of the tree (0 = the root is a leaf).
    pub height: u32,
    /// Total pages in the backing file, including meta and free pages.
    pub pages: u32,
    /// Total size of the backing file in bytes.
    pub file_bytes: u64,
}

/// Per-key statistics persisted in the stats segment (see the module
/// docs). For a posting-list tree these describe one canonical key's
/// list: how many postings it holds, how many distinct trees they span,
/// and the tid range they cover — the selectivity statistics §7 of the
/// paper anticipates ("statistics about subtrees such as their
/// selectivities").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyStats {
    /// Postings stored under the key (after coding-specific dedup).
    pub postings: u64,
    /// Distinct tree ids the postings span.
    pub distinct_tids: u64,
    /// Smallest tree id with a posting under the key.
    pub first_tid: u32,
    /// Largest tree id with a posting under the key.
    pub last_tid: u32,
    /// Encoded byte length of the stored value (same figure as
    /// [`BTree::value_len`]).
    pub bytes: u64,
    /// `true` when read from a stats segment; `false` when synthesized
    /// by a caller's fallback estimate (pre-stats index files). Only
    /// exact ranges are safe for empty-join pruning.
    pub exact: bool,
    /// Posting counts over [`TID_HIST_BUCKETS`] equal-width tid buckets
    /// spanning `[first_tid, last_tid]` (saturating). All-zero means
    /// "no histogram" — V1 stats segments and synthesized estimates —
    /// and planners fall back to uniform-density costing.
    pub tid_hist: [u32; TID_HIST_BUCKETS],
}

impl KeyStats {
    /// Whether a tid histogram was persisted for this key.
    pub fn has_hist(&self) -> bool {
        self.tid_hist.iter().any(|&c| c != 0)
    }
    /// Mean postings per distinct tree — the clustering statistic
    /// (always ≥ 1 for a non-empty list).
    pub fn mean_postings_per_tid(&self) -> f64 {
        if self.distinct_tids == 0 {
            0.0
        } else {
            self.postings as f64 / self.distinct_tids as f64
        }
    }

    /// Width of the covered tid range, inclusive (`last - first + 1`).
    pub fn tid_span(&self) -> u64 {
        u64::from(self.last_tid) - u64::from(self.first_tid) + 1
    }
}

impl Default for KeyStats {
    fn default() -> Self {
        KeyStats {
            postings: 0,
            distinct_tids: 0,
            first_tid: 0,
            last_tid: 0,
            bytes: 0,
            exact: false,
            tid_hist: [0; TID_HIST_BUCKETS],
        }
    }
}

/// The deserialized stats segment: entries sorted by key for binary
/// search. Loaded lazily on first [`BTree::key_stats`] call and shared
/// behind an `Arc` (the tree is read-mostly).
struct StatsTable {
    entries: Vec<(Vec<u8>, KeyStats)>,
}

impl StatsTable {
    fn parse(bytes: &[u8]) -> Result<Self> {
        let corrupt = |what: &str| StorageError::Corrupt(format!("stats segment: {what}"));
        if bytes.len() < 8 {
            return Err(corrupt("bad table magic"));
        }
        // V2 appends a tid histogram per entry; V1 segments (earlier
        // index builds) parse with all-zero histograms and behave
        // exactly as before.
        let has_hist = match &bytes[..8] {
            m if m == STATS_TABLE_MAGIC => true,
            m if m == STATS_TABLE_MAGIC_V1 => false,
            _ => return Err(corrupt("bad table magic")),
        };
        let mut r = varint::Reader::new(&bytes[8..]);
        let count = r.u64().ok_or_else(|| corrupt("entry count"))? as usize;
        let mut entries = Vec::with_capacity(count);
        let mut prev_key: Option<Vec<u8>> = None;
        for _ in 0..count {
            let klen = r.u64().ok_or_else(|| corrupt("key len"))? as usize;
            let key = r.bytes(klen).ok_or_else(|| corrupt("key bytes"))?.to_vec();
            if prev_key.as_ref().is_some_and(|p| p >= &key) {
                return Err(corrupt("keys not strictly ascending"));
            }
            let postings = r.u64().ok_or_else(|| corrupt("postings"))?;
            let distinct_tids = r.u64().ok_or_else(|| corrupt("distinct tids"))?;
            // Tid fields come from untrusted file bytes: a wrapped
            // last_tid < first_tid would make range pruning silently
            // report wrong-empty results, so reject instead.
            let first_tid = u32::try_from(r.u64().ok_or_else(|| corrupt("first tid"))?)
                .map_err(|_| corrupt("first tid out of range"))?;
            let span = u32::try_from(r.u64().ok_or_else(|| corrupt("tid span"))?)
                .map_err(|_| corrupt("tid span out of range"))?;
            let last_tid = first_tid
                .checked_add(span)
                .ok_or_else(|| corrupt("tid range overflows"))?;
            let bytes_len = r.u64().ok_or_else(|| corrupt("value bytes"))?;
            let mut tid_hist = [0u32; TID_HIST_BUCKETS];
            if has_hist {
                for b in &mut tid_hist {
                    *b = u32::try_from(r.u64().ok_or_else(|| corrupt("tid histogram"))?)
                        .map_err(|_| corrupt("histogram bucket out of range"))?;
                }
            }
            prev_key = Some(key.clone());
            entries.push((
                key,
                KeyStats {
                    postings,
                    distinct_tids,
                    first_tid,
                    last_tid,
                    bytes: bytes_len,
                    exact: true,
                    tid_hist,
                },
            ));
        }
        Ok(Self { entries })
    }

    fn serialize(entries: &[(Vec<u8>, KeyStats)]) -> Vec<u8> {
        let mut out = Vec::with_capacity(32 * entries.len() + 16);
        out.extend_from_slice(STATS_TABLE_MAGIC);
        varint::write_u64(&mut out, entries.len() as u64);
        for (key, s) in entries {
            varint::write_u64(&mut out, key.len() as u64);
            out.extend_from_slice(key);
            varint::write_u64(&mut out, s.postings);
            varint::write_u64(&mut out, s.distinct_tids);
            varint::write_u64(&mut out, u64::from(s.first_tid));
            varint::write_u64(&mut out, u64::from(s.last_tid - s.first_tid));
            varint::write_u64(&mut out, s.bytes);
            for b in s.tid_hist {
                varint::write_u64(&mut out, u64::from(b));
            }
        }
        out
    }

    fn lookup(&self, key: &[u8]) -> Option<KeyStats> {
        self.entries
            .binary_search_by(|(k, _)| k.as_slice().cmp(key))
            .ok()
            .map(|i| self.entries[i].1)
    }
}

/// A disk-resident B+Tree; see the module docs for the format.
pub struct BTree {
    pager: Pager,
    meta: Meta,
    /// Lazily loaded stats segment (`None` until first use or when the
    /// file has no segment).
    stats_table: Mutex<Option<Arc<StatsTable>>>,
}

impl BTree {
    /// Creates an empty tree at `path` (truncates an existing file).
    pub fn create(path: &Path) -> Result<Self> {
        let pager = Pager::create(path)?;
        let meta_page = pager.allocate()?;
        debug_assert_eq!(meta_page, 0);
        let root = pager.allocate()?;
        let mut tree = Self {
            pager,
            meta: Meta {
                root,
                height: 0,
                key_count: 0,
                free_head: NIL,
                value_bytes: 0,
                stats_head: NIL,
                stats_len: 0,
            },
            stats_table: Mutex::new(None),
        };
        tree.write_node(
            root,
            &Node::Leaf {
                entries: Vec::new(),
                next: NIL,
            },
        )?;
        tree.sync_meta()?;
        Ok(tree)
    }

    /// Opens an existing tree.
    pub fn open(path: &Path) -> Result<Self> {
        let pager = Pager::open(path)?;
        let mut buf = [0u8; PAGE_SIZE];
        pager.read(0, &mut buf)?;
        let meta = Meta::decode(&buf)?;
        Ok(Self {
            pager,
            meta,
            stats_table: Mutex::new(None),
        })
    }

    /// Opens an existing tree read-only, preferring the mmap-backed
    /// pager ([`Pager::open_readonly`]): page reads become borrowed
    /// slices of the mapping with no shard latch, and any mutation
    /// errors instead of silently touching the file. Falls back to the
    /// buffered pager when mapping fails, so this is always safe to
    /// call where [`BTree::open`] would be.
    pub fn open_readonly(path: &Path) -> Result<Self> {
        let pager = Pager::open_readonly(path)?;
        let mut buf = [0u8; PAGE_SIZE];
        pager.read(0, &mut buf)?;
        let meta = Meta::decode(&buf)?;
        Ok(Self {
            pager,
            meta,
            stats_table: Mutex::new(None),
        })
    }

    /// Whether reads are served from a read-only mmap of the file.
    pub fn is_mapped(&self) -> bool {
        self.pager.is_mapped()
    }

    /// Flushes all buffered pages and the meta page.
    pub fn flush(&mut self) -> Result<()> {
        self.sync_meta()?;
        self.pager.flush()
    }

    /// Pager cache hit/miss/eviction counters — the storage half of the
    /// per-query observability surface (`EvalStats`, `si query
    /// --verbose`).
    pub fn pager_counters(&self) -> crate::pager::PagerCounters {
        self.pager.counters()
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> BTreeStats {
        BTreeStats {
            key_count: self.meta.key_count,
            value_bytes: self.meta.value_bytes,
            height: self.meta.height,
            pages: self.pager.page_count(),
            file_bytes: self.pager.size_bytes(),
        }
    }

    /// Descends to the leaf entry of `key`, returning its [`ValueRef`].
    fn lookup(&self, key: &[u8]) -> Result<Option<ValueRef>> {
        let mut page = self.meta.root;
        for _ in 0..self.meta.height {
            match self.read_node(page)? {
                Node::Internal { children, keys } => {
                    page = children[child_index(&keys, key)];
                }
                Node::Leaf { .. } => {
                    return Err(StorageError::Corrupt("leaf above leaf level".into()))
                }
            }
        }
        match self.read_node(page)? {
            Node::Leaf { mut entries, .. } => {
                match entries.binary_search_by(|(k, _)| k.as_slice().cmp(key)) {
                    Ok(i) => Ok(Some(entries.swap_remove(i).1)),
                    Err(_) => Ok(None),
                }
            }
            Node::Internal { .. } => Err(StorageError::Corrupt("internal at leaf level".into())),
        }
    }

    /// Looks up `key`, returning its value if present. Thin wrapper over
    /// [`BTree::value_reader`]; prefer the reader for long values (it
    /// streams overflow chains page-by-page instead of materializing).
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        match self.value_reader(key)? {
            Some(reader) => Ok(Some(reader.read_to_vec()?)),
            None => Ok(None),
        }
    }

    /// Opens a streaming cursor over the value of `key`. The cursor pulls
    /// bytes page-at-a-time through the pager (including overflow
    /// chains), so memory stays O(1 page) regardless of value length —
    /// the storage end of the streaming query pipeline.
    pub fn value_reader(&self, key: &[u8]) -> Result<Option<ValueReader<'_>>> {
        Ok(self.lookup(key)?.map(|val| self.reader_for(val)))
    }

    /// The stored value's length in bytes without materializing it —
    /// overflow chains are not followed (their total length lives in the
    /// leaf entry). Used as a cheap selectivity statistic by the query
    /// processor.
    pub fn value_len(&self, key: &[u8]) -> Result<Option<u64>> {
        Ok(self.lookup(key)?.map(|v| v.len()))
    }

    /// Whether `key` is present (no value materialization).
    pub fn contains(&self, key: &[u8]) -> Result<bool> {
        Ok(self.lookup(key)?.is_some())
    }

    /// Whether this file carries a stats segment (see the module docs).
    pub fn has_stats_segment(&self) -> bool {
        self.meta.stats_head != NIL
    }

    /// Per-key statistics from the stats segment. `None` when the file
    /// has no segment (pre-stats format — callers fall back to
    /// [`BTree::value_len`]) or the key has no entry. The segment is
    /// loaded on first use and cached for the tree's lifetime.
    pub fn key_stats(&self, key: &[u8]) -> Result<Option<KeyStats>> {
        if self.meta.stats_head == NIL {
            return Ok(None);
        }
        let table = {
            let mut slot = self.stats_table.lock().unwrap_or_else(|e| e.into_inner());
            match &*slot {
                Some(table) => table.clone(),
                None => {
                    let reader = self.reader_for(ValueRef::Overflow {
                        first: self.meta.stats_head,
                        len: self.meta.stats_len,
                    });
                    let table = Arc::new(StatsTable::parse(&reader.read_to_vec()?)?);
                    *slot = Some(table.clone());
                    table
                }
            }
        };
        Ok(table.lookup(key))
    }

    /// Writes (or replaces) the stats segment from `entries`. Call after
    /// bulk-loading; entries are sorted by key internally. An empty
    /// `entries` still writes a segment so [`BTree::has_stats_segment`]
    /// distinguishes "stats computed, index empty" from "pre-stats
    /// file". The meta page is synced.
    pub fn write_stats_segment(&mut self, entries: Vec<(Vec<u8>, KeyStats)>) -> Result<()> {
        let mut entries = entries;
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        self.drop_stats_segment()?;
        let bytes = StatsTable::serialize(&entries);
        let head = self.write_chain(&bytes)?;
        self.meta.stats_head = head;
        self.meta.stats_len = bytes.len() as u64;
        *self.stats_table.lock().unwrap_or_else(|e| e.into_inner()) =
            Some(Arc::new(StatsTable { entries }));
        self.sync_meta()
    }

    /// Frees an existing stats segment and clears the cached table.
    fn drop_stats_segment(&mut self) -> Result<()> {
        if self.meta.stats_head != NIL {
            let head = self.meta.stats_head;
            self.meta.stats_head = NIL;
            self.meta.stats_len = 0;
            self.free_chain(head)?;
        }
        self.stats_table
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take();
        Ok(())
    }

    /// Inserts or replaces `key`. Any stats segment is invalidated
    /// (freed): its posting counts and tid ranges no longer describe
    /// the mutated tree, and stale ranges would be unsafe for query
    /// pruning. Rebuild it with [`BTree::write_stats_segment`].
    pub fn insert(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        if key.len() > KEY_MAX {
            return Err(StorageError::OutOfRange(format!(
                "key length {} exceeds {KEY_MAX}",
                key.len()
            )));
        }
        self.drop_stats_segment()?;
        // Descend, recording the path.
        let mut path: Vec<(PageId, usize)> = Vec::with_capacity(self.meta.height as usize);
        let mut page = self.meta.root;
        for _ in 0..self.meta.height {
            match self.read_node(page)? {
                Node::Internal { children, keys } => {
                    let i = child_index(&keys, key);
                    path.push((page, i));
                    page = children[i];
                }
                Node::Leaf { .. } => {
                    return Err(StorageError::Corrupt("leaf above leaf level".into()))
                }
            }
        }
        let (mut entries, next) = match self.read_node(page)? {
            Node::Leaf { entries, next } => (entries, next),
            Node::Internal { .. } => {
                return Err(StorageError::Corrupt("internal at leaf level".into()))
            }
        };
        let val_ref = self.store_value(value)?;
        match entries.binary_search_by(|(k, _)| k.as_slice().cmp(key)) {
            Ok(i) => {
                let old = std::mem::replace(&mut entries[i].1, val_ref);
                self.meta.value_bytes = self.meta.value_bytes - old.len() + value.len() as u64;
                if let ValueRef::Overflow { first, .. } = old {
                    self.free_chain(first)?;
                }
            }
            Err(i) => {
                entries.insert(i, (key.to_vec(), val_ref));
                self.meta.key_count += 1;
                self.meta.value_bytes += value.len() as u64;
            }
        }
        let node = Node::Leaf { entries, next };
        if node.encoded_len() <= PAGE_SIZE {
            self.write_node(page, &node)?;
            return Ok(());
        }
        // Split the leaf and propagate.
        let (left, sep, right_page) = self.split_leaf(page, node)?;
        self.write_node(page, &left)?;
        self.propagate_split(path, sep, right_page)
    }

    /// Bulk-loads a tree from a stream of key/value pairs in strictly
    /// ascending key order. Much faster than repeated [`BTree::insert`]
    /// and produces ~full pages.
    ///
    /// # Errors
    /// Fails if keys are not strictly ascending.
    pub fn bulk_load<I>(path: &Path, pairs: I) -> Result<Self>
    where
        I: IntoIterator<Item = (Vec<u8>, Vec<u8>)>,
    {
        let pager = Pager::create(path)?;
        let meta_page = pager.allocate()?;
        debug_assert_eq!(meta_page, 0);
        let mut tree = Self {
            pager,
            meta: Meta {
                root: NIL,
                height: 0,
                key_count: 0,
                free_head: NIL,
                value_bytes: 0,
                stats_head: NIL,
                stats_len: 0,
            },
            stats_table: Mutex::new(None),
        };

        // Fill leaves left to right.
        let mut leaves: Vec<(Vec<u8>, PageId)> = Vec::new(); // (first key, page)
        let mut cur: Vec<(Vec<u8>, ValueRef)> = Vec::new();
        let mut cur_size = 7usize;
        let mut last_key: Option<Vec<u8>> = None;
        let flush_leaf = |tree: &mut BTree,
                          cur: &mut Vec<(Vec<u8>, ValueRef)>,
                          cur_size: &mut usize,
                          leaves: &mut Vec<(Vec<u8>, PageId)>|
         -> Result<()> {
            if cur.is_empty() {
                return Ok(());
            }
            let page = tree.alloc_page()?;
            if let Some((_, prev)) = leaves.last() {
                tree.set_leaf_next(*prev, page)?;
            }
            let first_key = cur[0].0.clone();
            let node = Node::Leaf {
                entries: std::mem::take(cur),
                next: NIL,
            };
            tree.write_node(page, &node)?;
            leaves.push((first_key, page));
            *cur_size = 7;
            Ok(())
        };

        for (key, value) in pairs {
            if key.len() > KEY_MAX {
                return Err(StorageError::OutOfRange(format!(
                    "key length {} exceeds {KEY_MAX}",
                    key.len()
                )));
            }
            if let Some(prev) = &last_key {
                if prev >= &key {
                    return Err(StorageError::OutOfRange(
                        "bulk_load keys must be strictly ascending".into(),
                    ));
                }
            }
            last_key = Some(key.clone());
            let val_ref = tree.store_value(&value)?;
            let esize =
                varint::len_u64(key.len() as u64) + key.len() + val_ref.encoded_len(key.len());
            if cur_size + esize > PAGE_SIZE {
                flush_leaf(&mut tree, &mut cur, &mut cur_size, &mut leaves)?;
            }
            cur_size += esize;
            tree.meta.key_count += 1;
            tree.meta.value_bytes += value.len() as u64;
            cur.push((key, val_ref));
        }
        flush_leaf(&mut tree, &mut cur, &mut cur_size, &mut leaves)?;

        if leaves.is_empty() {
            let root = tree.alloc_page()?;
            tree.write_node(
                root,
                &Node::Leaf {
                    entries: Vec::new(),
                    next: NIL,
                },
            )?;
            tree.meta.root = root;
            tree.meta.height = 0;
            tree.sync_meta()?;
            return Ok(tree);
        }

        // Build internal levels bottom-up.
        let mut level: Vec<(Vec<u8>, PageId)> = leaves;
        let mut height = 0u32;
        while level.len() > 1 {
            height += 1;
            let mut next_level: Vec<(Vec<u8>, PageId)> = Vec::new();
            let mut children: Vec<PageId> = Vec::new();
            let mut keys: Vec<Vec<u8>> = Vec::new();
            let mut first_key: Option<Vec<u8>> = None;
            let mut size = 3usize;
            for (key, page) in level {
                let addition = if children.is_empty() {
                    4
                } else {
                    4 + varint::len_u64(key.len() as u64) + key.len()
                };
                if !children.is_empty() && size + addition > PAGE_SIZE {
                    let node_page = tree.alloc_page()?;
                    tree.write_node(
                        node_page,
                        &Node::Internal {
                            children: std::mem::take(&mut children),
                            keys: std::mem::take(&mut keys),
                        },
                    )?;
                    next_level.push((first_key.take().unwrap(), node_page));
                    size = 3;
                }
                if children.is_empty() {
                    first_key = Some(key);
                    size += 4;
                } else {
                    size += 4 + varint::len_u64(key.len() as u64) + key.len();
                    keys.push(key);
                }
                children.push(page);
            }
            if !children.is_empty() {
                let node_page = tree.alloc_page()?;
                tree.write_node(node_page, &Node::Internal { children, keys })?;
                next_level.push((first_key.take().unwrap(), node_page));
            }
            level = next_level;
        }
        tree.meta.root = level[0].1;
        tree.meta.height = height;
        tree.sync_meta()?;
        Ok(tree)
    }

    /// Iterates all `(key, value)` pairs in key order.
    pub fn iter(&self) -> Result<Iter<'_>> {
        let mut page = self.meta.root;
        for _ in 0..self.meta.height {
            match self.read_node(page)? {
                Node::Internal { children, .. } => page = children[0],
                Node::Leaf { .. } => {
                    return Err(StorageError::Corrupt("leaf above leaf level".into()))
                }
            }
        }
        Ok(Iter {
            tree: self,
            leaf: Some(page),
            entries: Vec::new(),
            pos: 0,
        })
    }

    // ---- internals ----

    fn sync_meta(&mut self) -> Result<()> {
        let mut buf = [0u8; PAGE_SIZE];
        self.meta.encode(&mut buf);
        self.pager.write(0, &buf)
    }

    fn read_node(&self, page: PageId) -> Result<Node> {
        let mut buf = [0u8; PAGE_SIZE];
        self.pager.read(page, &mut buf)?;
        Node::decode(&buf)
    }

    fn write_node(&self, page: PageId, node: &Node) -> Result<()> {
        let mut buf = [0u8; PAGE_SIZE];
        node.encode(&mut buf);
        self.pager.write(page, &buf)
    }

    fn set_leaf_next(&self, page: PageId, next: PageId) -> Result<()> {
        let mut buf = [0u8; PAGE_SIZE];
        self.pager.read(page, &mut buf)?;
        buf[3..7].copy_from_slice(&next.to_le_bytes());
        self.pager.write(page, &buf)
    }

    fn alloc_page(&mut self) -> Result<PageId> {
        if self.meta.free_head != NIL {
            let page = self.meta.free_head;
            let mut buf = [0u8; PAGE_SIZE];
            self.pager.read(page, &mut buf)?;
            if buf[0] != TAG_FREE {
                return Err(StorageError::Corrupt(
                    "free list points at live page".into(),
                ));
            }
            self.meta.free_head = PageId::from_le_bytes(buf[1..5].try_into().unwrap());
            Ok(page)
        } else {
            Ok(self.pager.allocate()?)
        }
    }

    fn free_page(&mut self, page: PageId) -> Result<()> {
        let mut buf = [0u8; PAGE_SIZE];
        buf[0] = TAG_FREE;
        buf[1..5].copy_from_slice(&self.meta.free_head.to_le_bytes());
        self.pager.write(page, &buf)?;
        self.meta.free_head = page;
        Ok(())
    }

    fn free_chain(&mut self, mut page: PageId) -> Result<()> {
        while page != NIL {
            let mut buf = [0u8; PAGE_SIZE];
            self.pager.read(page, &mut buf)?;
            if buf[0] != TAG_OVERFLOW {
                return Err(StorageError::Corrupt("overflow chain broken".into()));
            }
            let next = PageId::from_le_bytes(buf[1..5].try_into().unwrap());
            self.free_page(page)?;
            page = next;
        }
        Ok(())
    }

    fn store_value(&mut self, value: &[u8]) -> Result<ValueRef> {
        if value.len() <= INLINE_MAX {
            return Ok(ValueRef::Inline(value.to_vec()));
        }
        Ok(ValueRef::Overflow {
            first: self.write_chain(value)?,
            len: value.len() as u64,
        })
    }

    /// Writes `value` as an overflow-page chain (back-to-front so each
    /// page knows its successor), returning the head page. Shared by
    /// [`BTree::store_value`] and the stats-segment writer.
    fn write_chain(&mut self, value: &[u8]) -> Result<PageId> {
        let mut next = NIL;
        let mut chunks: Vec<&[u8]> = value.chunks(OVERFLOW_CAP).collect();
        while let Some(chunk) = chunks.pop() {
            let page = self.alloc_page()?;
            let mut buf = [0u8; PAGE_SIZE];
            buf[0] = TAG_OVERFLOW;
            buf[1..5].copy_from_slice(&next.to_le_bytes());
            buf[5..7].copy_from_slice(&(chunk.len() as u16).to_le_bytes());
            buf[7..7 + chunk.len()].copy_from_slice(chunk);
            self.pager.write(page, &buf)?;
            next = page;
        }
        Ok(next)
    }

    /// Builds a [`ValueReader`] over a leaf entry's value — the single
    /// chain-walking implementation behind [`BTree::get`],
    /// [`BTree::value_reader`] and [`Iter`].
    fn reader_for(&self, val: ValueRef) -> ValueReader<'_> {
        let total = val.len();
        let state = match val {
            ValueRef::Inline(v) => ReaderState::Inline(v),
            ValueRef::Overflow { first, .. } => ReaderState::Chain {
                next: first,
                delivered: 0,
            },
        };
        ValueReader {
            tree: self,
            total,
            state,
        }
    }

    fn load_value(&self, val: &ValueRef) -> Result<Vec<u8>> {
        self.reader_for(val.clone()).read_to_vec()
    }

    fn split_leaf(&mut self, _page: PageId, node: Node) -> Result<(Node, Vec<u8>, PageId)> {
        let (entries, next) = match node {
            Node::Leaf { entries, next } => (entries, next),
            Node::Internal { .. } => unreachable!("split_leaf on internal node"),
        };
        // Split by accumulated encoded size at roughly the midpoint.
        let total: usize = entries
            .iter()
            .map(|(k, v)| varint::len_u64(k.len() as u64) + k.len() + v.encoded_len(k.len()))
            .sum();
        let mut acc = 0usize;
        let mut split_at = entries.len() / 2;
        for (i, (k, v)) in entries.iter().enumerate() {
            acc += varint::len_u64(k.len() as u64) + k.len() + v.encoded_len(k.len());
            if acc * 2 >= total {
                split_at = (i + 1).min(entries.len() - 1).max(1);
                break;
            }
        }
        let right_entries = entries[split_at..].to_vec();
        let left_entries = entries[..split_at].to_vec();
        let sep = right_entries[0].0.clone();
        let right_page = self.alloc_page()?;
        self.write_node(
            right_page,
            &Node::Leaf {
                entries: right_entries,
                next,
            },
        )?;
        Ok((
            Node::Leaf {
                entries: left_entries,
                next: right_page,
            },
            sep,
            right_page,
        ))
    }

    fn propagate_split(
        &mut self,
        mut path: Vec<(PageId, usize)>,
        mut sep: Vec<u8>,
        mut new_child: PageId,
    ) -> Result<()> {
        while let Some((page, child_idx)) = path.pop() {
            let (mut children, mut keys) = match self.read_node(page)? {
                Node::Internal { children, keys } => (children, keys),
                Node::Leaf { .. } => {
                    return Err(StorageError::Corrupt("leaf on internal path".into()))
                }
            };
            keys.insert(child_idx, sep);
            children.insert(child_idx + 1, new_child);
            let node = Node::Internal { children, keys };
            if node.encoded_len() <= PAGE_SIZE {
                self.write_node(page, &node)?;
                return Ok(());
            }
            let (children, keys) = match node {
                Node::Internal { children, keys } => (children, keys),
                Node::Leaf { .. } => unreachable!(),
            };
            // Internal split: the middle key moves up.
            let mid = keys.len() / 2;
            let up_key = keys[mid].clone();
            let right_keys = keys[mid + 1..].to_vec();
            let right_children = children[mid + 1..].to_vec();
            let left_keys = keys[..mid].to_vec();
            let left_children = children[..mid + 1].to_vec();
            let right_page = self.alloc_page()?;
            self.write_node(
                right_page,
                &Node::Internal {
                    children: right_children,
                    keys: right_keys,
                },
            )?;
            self.write_node(
                page,
                &Node::Internal {
                    children: left_children,
                    keys: left_keys,
                },
            )?;
            sep = up_key;
            new_child = right_page;
        }
        // Root split.
        let new_root = self.alloc_page()?;
        let old_root = self.meta.root;
        self.write_node(
            new_root,
            &Node::Internal {
                children: vec![old_root, new_child],
                keys: vec![sep],
            },
        )?;
        self.meta.root = new_root;
        self.meta.height += 1;
        Ok(())
    }
}

fn child_index(keys: &[Vec<u8>], key: &[u8]) -> usize {
    // First child whose separator is > key; equal separators go right.
    match keys.binary_search_by(|k| k.as_slice().cmp(key)) {
        Ok(i) => i + 1,
        Err(i) => i,
    }
}

enum ReaderState {
    /// Inline value not yet emitted.
    Inline(Vec<u8>),
    /// Overflow chain: next page plus bytes handed out so far.
    Chain {
        next: PageId,
        delivered: u64,
    },
    /// A chunk whose page was already descended to (and validated)
    /// during a skip that stopped on it: the payload rides along so the
    /// next `read_chunk` delivers it without a second pager descent —
    /// the skip and the reader share one chain cursor.
    Pending {
        data: Vec<u8>,
        succ: PageId,
        delivered: u64,
    },
    Done,
}

/// A streaming cursor over one stored value (see
/// [`BTree::value_reader`]). Each [`ValueReader::read_chunk`] call pulls
/// at most one page's payload through the pager, so a consumer that
/// processes chunks incrementally holds O(pages in flight) bytes even
/// for multi-megabyte overflow chains.
pub struct ValueReader<'a> {
    tree: &'a BTree,
    total: u64,
    state: ReaderState,
}

impl ValueReader<'_> {
    /// Total value length in bytes (known up front from the leaf entry).
    pub fn len(&self) -> u64 {
        self.total
    }

    /// Whether the value has zero bytes.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Appends the next chunk of the value to `out`, returning the number
    /// of bytes appended. `Ok(0)` signals the end of the value. Chunks
    /// are at most one page's payload (`PAGE_SIZE - 7` bytes) for
    /// overflow values; inline values arrive as a single chunk.
    ///
    /// Overflow payloads are appended straight out of the pager's cache
    /// slot via [`crate::Pager::with_page`] (no intermediate page copy);
    /// the page is pinned only for the duration of the append, so a
    /// reader may stay open across an arbitrarily long scan without
    /// holding any latch between chunks.
    pub fn read_chunk(&mut self, out: &mut Vec<u8>) -> Result<usize> {
        match std::mem::replace(&mut self.state, ReaderState::Done) {
            ReaderState::Done => Ok(0),
            ReaderState::Inline(v) => {
                out.extend_from_slice(&v);
                Ok(v.len())
            }
            ReaderState::Pending {
                data,
                succ,
                delivered,
            } => {
                // Page already descended to (and validated) by a skip
                // that stopped on it: deliver without touching the
                // pager.
                let len = data.len();
                out.extend_from_slice(&data);
                self.state = ReaderState::Chain {
                    next: succ,
                    delivered: delivered + len as u64,
                };
                Ok(len)
            }
            ReaderState::Chain { next, delivered } => {
                if next == NIL {
                    if delivered != self.total {
                        return Err(StorageError::Corrupt(
                            "overflow chain length mismatch".into(),
                        ));
                    }
                    return Ok(0);
                }
                let total = self.total;
                let (succ, len) = self.tree.pager.with_page(next, |buf| {
                    if buf[0] != TAG_OVERFLOW {
                        return Err(StorageError::Corrupt("overflow chain broken".into()));
                    }
                    let succ = PageId::from_le_bytes(buf[1..5].try_into().unwrap());
                    let len = u16::from_le_bytes([buf[5], buf[6]]) as usize;
                    if len > OVERFLOW_CAP {
                        return Err(StorageError::Corrupt("overflow page length".into()));
                    }
                    if len == 0 {
                        // Chains are written from non-empty chunks; an empty
                        // page would read as end-of-value to incremental
                        // consumers and silently truncate the stream.
                        return Err(StorageError::Corrupt("empty overflow page".into()));
                    }
                    if delivered + len as u64 > total {
                        return Err(StorageError::Corrupt(
                            "overflow chain longer than declared".into(),
                        ));
                    }
                    out.extend_from_slice(&buf[7..7 + len]);
                    Ok((succ, len))
                })??;
                self.state = ReaderState::Chain {
                    next: succ,
                    delivered: delivered + len as u64,
                };
                Ok(len)
            }
        }
    }

    /// Drops up to `n` upcoming bytes **at chunk granularity** without
    /// copying them out of the page cache, returning how many were
    /// dropped. Only whole chunks (overflow pages, or the entire inline
    /// value) are skipped; the tail the caller still needs arrives via
    /// [`ValueReader::read_chunk`]. This is the disk half of a
    /// posting-list seek: hopping an overflow chain reads each page
    /// header but never materializes the payload.
    pub fn skip_chunk_bytes(&mut self, mut n: u64) -> Result<u64> {
        let mut skipped = 0u64;
        loop {
            match std::mem::replace(&mut self.state, ReaderState::Done) {
                ReaderState::Done => return Ok(skipped),
                ReaderState::Inline(v) => {
                    if (v.len() as u64) <= n {
                        skipped += v.len() as u64;
                        return Ok(skipped);
                    }
                    self.state = ReaderState::Inline(v);
                    return Ok(skipped);
                }
                ReaderState::Pending {
                    data,
                    succ,
                    delivered,
                } => {
                    if (data.len() as u64) > n {
                        self.state = ReaderState::Pending {
                            data,
                            succ,
                            delivered,
                        };
                        return Ok(skipped);
                    }
                    let len = data.len() as u64;
                    n -= len;
                    skipped += len;
                    self.state = ReaderState::Chain {
                        next: succ,
                        delivered: delivered + len,
                    };
                }
                ReaderState::Chain { next, delivered } => {
                    if next == NIL {
                        self.state = ReaderState::Chain { next, delivered };
                        return Ok(skipped);
                    }
                    let total = self.total;
                    // The boundary page — the first chunk the caller
                    // still needs — carries its payload out of this
                    // single descent (`ReaderState::Pending`), so the
                    // next `read_chunk` does not descend to it again.
                    let (succ, len, keep) = self.tree.pager.with_page(next, |buf| {
                        if buf[0] != TAG_OVERFLOW {
                            return Err(StorageError::Corrupt("overflow chain broken".into()));
                        }
                        let succ = PageId::from_le_bytes(buf[1..5].try_into().unwrap());
                        let len = u16::from_le_bytes([buf[5], buf[6]]) as usize;
                        if len > OVERFLOW_CAP || len == 0 {
                            return Err(StorageError::Corrupt("overflow page length".into()));
                        }
                        if delivered + len as u64 > total {
                            return Err(StorageError::Corrupt(
                                "overflow chain longer than declared".into(),
                            ));
                        }
                        let keep = ((len as u64) > n).then(|| buf[7..7 + len].to_vec());
                        Ok((succ, len, keep))
                    })??;
                    if let Some(data) = keep {
                        self.state = ReaderState::Pending {
                            data,
                            succ,
                            delivered,
                        };
                        return Ok(skipped);
                    }
                    n -= len as u64;
                    skipped += len as u64;
                    self.state = ReaderState::Chain {
                        next: succ,
                        delivered: delivered + len as u64,
                    };
                }
            }
        }
    }

    /// Materializes the remainder of the value (the implementation behind
    /// [`BTree::get`]).
    pub fn read_to_vec(mut self) -> Result<Vec<u8>> {
        let mut out = Vec::with_capacity(self.total as usize);
        while self.read_chunk(&mut out)? > 0 {}
        if out.len() as u64 != self.total {
            return Err(StorageError::Corrupt(
                "overflow chain length mismatch".into(),
            ));
        }
        Ok(out)
    }
}

/// In-order iterator over all entries of a [`BTree`].
pub struct Iter<'a> {
    tree: &'a BTree,
    leaf: Option<PageId>,
    entries: Vec<(Vec<u8>, ValueRef)>,
    pos: usize,
}

impl Iterator for Iter<'_> {
    type Item = Result<(Vec<u8>, Vec<u8>)>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if self.pos < self.entries.len() {
                let (key, val) = &self.entries[self.pos];
                self.pos += 1;
                let value = match self.tree.load_value(val) {
                    Ok(v) => v,
                    Err(e) => return Some(Err(e)),
                };
                return Some(Ok((key.clone(), value)));
            }
            let page = self.leaf?;
            match self.tree.read_node(page) {
                Ok(Node::Leaf { entries, next }) => {
                    self.entries = entries;
                    self.pos = 0;
                    self.leaf = (next != NIL).then_some(next);
                    if self.entries.is_empty() && self.leaf.is_none() {
                        return None;
                    }
                }
                Ok(Node::Internal { .. }) => {
                    self.leaf = None;
                    return Some(Err(StorageError::Corrupt("internal in leaf chain".into())));
                }
                Err(e) => {
                    self.leaf = None;
                    return Some(Err(e));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("si-btree-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}", std::process::id()))
    }

    #[test]
    fn empty_tree_lookup() {
        let path = tmp("empty");
        let tree = BTree::create(&path).unwrap();
        assert_eq!(tree.get(b"missing").unwrap(), None);
        assert!(!tree.contains(b"missing").unwrap());
        assert_eq!(tree.stats().key_count, 0);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn insert_get_small() {
        let path = tmp("small");
        let mut tree = BTree::create(&path).unwrap();
        tree.insert(b"NP", b"posting-np").unwrap();
        tree.insert(b"VP", b"posting-vp").unwrap();
        tree.insert(b"DT", b"posting-dt").unwrap();
        assert_eq!(tree.get(b"NP").unwrap().unwrap(), b"posting-np");
        assert_eq!(tree.get(b"DT").unwrap().unwrap(), b"posting-dt");
        assert_eq!(tree.get(b"XX").unwrap(), None);
        tree.insert(b"NP", b"replaced").unwrap();
        assert_eq!(tree.get(b"NP").unwrap().unwrap(), b"replaced");
        assert_eq!(tree.stats().key_count, 3);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn many_inserts_split_leaves_and_internals() {
        let path = tmp("many");
        let mut tree = BTree::create(&path).unwrap();
        let mut model = BTreeMap::new();
        // Insert in a scrambled order to exercise splits at all positions.
        for i in 0u32..3000 {
            let k = format!("key-{:08}", i.wrapping_mul(2654435761) % 100_000);
            let v = format!("value-{i}");
            model.insert(k.clone().into_bytes(), v.clone().into_bytes());
            tree.insert(k.as_bytes(), v.as_bytes()).unwrap();
        }
        assert_eq!(tree.stats().key_count, model.len() as u64);
        assert!(tree.stats().height >= 1, "expected splits");
        for (k, v) in &model {
            assert_eq!(tree.get(k).unwrap().as_ref(), Some(v), "key {:?}", k);
        }
        // Iteration returns entries in sorted order.
        let got: Vec<_> = tree.iter().unwrap().map(|r| r.unwrap()).collect();
        let want: Vec<_> = model.into_iter().collect();
        assert_eq!(got, want);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn overflow_values_round_trip() {
        let path = tmp("overflow");
        let mut tree = BTree::create(&path).unwrap();
        let big: Vec<u8> = (0..50_000u32).flat_map(|i| i.to_le_bytes()).collect();
        tree.insert(b"big", &big).unwrap();
        tree.insert(b"small", b"x").unwrap();
        assert_eq!(tree.get(b"big").unwrap().unwrap(), big);
        assert_eq!(tree.get(b"small").unwrap().unwrap(), b"x");
        // Replace the big value; the old ~49-page chain goes to the free
        // list, so the next big insert recycles pages instead of growing
        // the file.
        tree.insert(b"big", &big[..40_000]).unwrap();
        let pages_before = tree.stats().pages;
        tree.insert(b"big2", &big[..40_000]).unwrap();
        let pages_after = tree.stats().pages;
        assert_eq!(tree.get(b"big").unwrap().unwrap(), &big[..40_000]);
        assert_eq!(tree.get(b"big2").unwrap().unwrap(), &big[..40_000]);
        assert!(
            pages_after <= pages_before + 1,
            "free list should recycle overflow pages: {pages_before} -> {pages_after}"
        );
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn bulk_load_matches_inserts() {
        let path_a = tmp("bulk-a");
        let path_b = tmp("bulk-b");
        let pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..2000u32)
            .map(|i| {
                (
                    format!("k{:06}", i).into_bytes(),
                    format!("v{i}").repeat(i as usize % 7 + 1).into_bytes(),
                )
            })
            .collect();
        let bulk = BTree::bulk_load(&path_a, pairs.clone()).unwrap();
        let mut manual = BTree::create(&path_b).unwrap();
        for (k, v) in &pairs {
            manual.insert(k, v).unwrap();
        }
        for (k, v) in &pairs {
            assert_eq!(bulk.get(k).unwrap().as_ref(), Some(v));
            assert_eq!(manual.get(k).unwrap().as_ref(), Some(v));
        }
        let got: Vec<_> = bulk.iter().unwrap().map(|r| r.unwrap()).collect();
        assert_eq!(got, pairs);
        assert_eq!(bulk.stats().key_count, 2000);
        // Bulk-loaded trees pack pages more tightly.
        assert!(bulk.stats().pages <= manual.stats().pages);
        std::fs::remove_file(path_a).ok();
        std::fs::remove_file(path_b).ok();
    }

    #[test]
    fn bulk_load_rejects_unsorted() {
        let path = tmp("unsorted");
        let pairs = vec![
            (b"b".to_vec(), b"1".to_vec()),
            (b"a".to_vec(), b"2".to_vec()),
        ];
        assert!(BTree::bulk_load(&path, pairs).is_err());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn bulk_load_empty() {
        let path = tmp("bulk-empty");
        let tree = BTree::bulk_load(&path, Vec::new()).unwrap();
        assert_eq!(tree.get(b"x").unwrap(), None);
        assert_eq!(tree.iter().unwrap().count(), 0);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn persists_across_reopen() {
        let path = tmp("reopen");
        {
            let mut tree = BTree::create(&path).unwrap();
            for i in 0..500u32 {
                tree.insert(format!("k{i:04}").as_bytes(), &i.to_le_bytes())
                    .unwrap();
            }
            tree.flush().unwrap();
        }
        let tree = BTree::open(&path).unwrap();
        assert_eq!(tree.stats().key_count, 500);
        for i in 0..500u32 {
            assert_eq!(
                tree.get(format!("k{i:04}").as_bytes()).unwrap().unwrap(),
                i.to_le_bytes()
            );
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn oversized_key_rejected() {
        let path = tmp("bigkey");
        let mut tree = BTree::create(&path).unwrap();
        let key = vec![7u8; KEY_MAX + 1];
        assert!(tree.insert(&key, b"v").is_err());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn bulk_load_with_overflow_values() {
        let path = tmp("bulk-ov");
        let big = vec![0xEEu8; 30_000];
        let pairs = vec![
            (b"aaa".to_vec(), big.clone()),
            (b"bbb".to_vec(), b"tiny".to_vec()),
            (b"ccc".to_vec(), big.clone()),
        ];
        let tree = BTree::bulk_load(&path, pairs).unwrap();
        assert_eq!(tree.get(b"aaa").unwrap().unwrap(), big);
        assert_eq!(tree.get(b"bbb").unwrap().unwrap(), b"tiny");
        assert_eq!(tree.get(b"ccc").unwrap().unwrap(), big);
        std::fs::remove_file(path).ok();
    }
}

#[cfg(test)]
mod stats_segment_tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("si-btree-stats");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}", std::process::id()))
    }

    fn sample_stats(i: u32) -> KeyStats {
        let mut tid_hist = [0u32; TID_HIST_BUCKETS];
        tid_hist[(i as usize) % TID_HIST_BUCKETS] = i + 1;
        KeyStats {
            postings: u64::from(i) * 3 + 1,
            distinct_tids: u64::from(i) + 1,
            first_tid: i,
            last_tid: i * 7 + 10,
            bytes: u64::from(i) * 11 + 2,
            exact: true,
            tid_hist,
        }
    }

    #[test]
    fn segment_round_trips_across_reopen() {
        let path = tmp("roundtrip");
        let n = 2_000u32; // large enough to span several chain pages
        let pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..n)
            .map(|i| {
                (
                    format!("k{i:06}").into_bytes(),
                    vec![0u8; (i % 13) as usize],
                )
            })
            .collect();
        let entries: Vec<(Vec<u8>, KeyStats)> = (0..n)
            .map(|i| (format!("k{i:06}").into_bytes(), sample_stats(i)))
            .collect();
        {
            let mut tree = BTree::bulk_load(&path, pairs).unwrap();
            assert!(!tree.has_stats_segment());
            assert_eq!(tree.key_stats(b"k000000").unwrap(), None);
            tree.write_stats_segment(entries.clone()).unwrap();
            assert!(tree.has_stats_segment());
            tree.flush().unwrap();
        }
        let tree = BTree::open(&path).unwrap();
        assert!(tree.has_stats_segment());
        for (key, want) in &entries {
            assert_eq!(tree.key_stats(key).unwrap(), Some(*want));
        }
        assert_eq!(tree.key_stats(b"absent").unwrap(), None);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn pre_stats_file_opens_without_segment() {
        // A file written with no segment (the old format: zeroes where
        // the marker would be) opens cleanly and reports no stats.
        let path = tmp("prestats");
        {
            let mut tree = BTree::create(&path).unwrap();
            tree.insert(b"a", b"1").unwrap();
            tree.flush().unwrap();
        }
        let tree = BTree::open(&path).unwrap();
        assert!(!tree.has_stats_segment());
        assert_eq!(tree.key_stats(b"a").unwrap(), None);
        assert_eq!(tree.value_len(b"a").unwrap(), Some(1));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rewrite_replaces_and_recycles_chain_pages() {
        let path = tmp("rewrite");
        let entries: Vec<(Vec<u8>, KeyStats)> = (0..3_000u32)
            .map(|i| (format!("k{i:06}").into_bytes(), sample_stats(i)))
            .collect();
        let mut tree = BTree::create(&path).unwrap();
        tree.write_stats_segment(entries.clone()).unwrap();
        let pages_before = tree.stats().pages;
        tree.write_stats_segment(entries.clone()).unwrap();
        let pages_after = tree.stats().pages;
        assert!(
            pages_after <= pages_before + 1,
            "old chain recycled: {pages_before} -> {pages_after}"
        );
        assert_eq!(tree.key_stats(b"k000042").unwrap(), Some(sample_stats(42)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn insert_invalidates_segment() {
        // Mutation makes recorded tid ranges unsafe for pruning, so the
        // segment is dropped rather than served stale.
        let path = tmp("invalidate");
        let mut tree = BTree::create(&path).unwrap();
        tree.insert(b"a", b"1").unwrap();
        tree.write_stats_segment(vec![(b"a".to_vec(), sample_stats(0))])
            .unwrap();
        assert!(tree.has_stats_segment());
        tree.insert(b"b", b"2").unwrap();
        assert!(!tree.has_stats_segment());
        assert_eq!(tree.key_stats(b"a").unwrap(), None);
        tree.flush().unwrap();
        let tree = BTree::open(&path).unwrap();
        assert!(!tree.has_stats_segment());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_segment_still_marks_file() {
        let path = tmp("emptyseg");
        let mut tree = BTree::create(&path).unwrap();
        tree.write_stats_segment(Vec::new()).unwrap();
        assert!(tree.has_stats_segment());
        assert_eq!(tree.key_stats(b"x").unwrap(), None);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn key_stats_helpers() {
        let s = sample_stats(4); // postings 13, distinct 5, tids 4..=38
        assert!((s.mean_postings_per_tid() - 13.0 / 5.0).abs() < 1e-12);
        assert_eq!(s.tid_span(), 35);
        let full = KeyStats {
            postings: 1,
            distinct_tids: 1,
            first_tid: 0,
            last_tid: u32::MAX,
            bytes: 1,
            ..KeyStats::default()
        };
        assert_eq!(full.tid_span(), 1 << 32);
    }
}

#[cfg(test)]
mod value_reader_tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("si-btree-vreader");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}", std::process::id()))
    }

    #[test]
    fn inline_value_single_chunk() {
        let path = tmp("inline");
        let mut tree = BTree::create(&path).unwrap();
        tree.insert(b"k", b"small value").unwrap();
        let mut r = tree.value_reader(b"k").unwrap().unwrap();
        assert_eq!(r.len(), 11);
        assert!(!r.is_empty());
        let mut out = Vec::new();
        assert_eq!(r.read_chunk(&mut out).unwrap(), 11);
        assert_eq!(out, b"small value");
        assert_eq!(r.read_chunk(&mut out).unwrap(), 0);
        assert!(tree.value_reader(b"missing").unwrap().is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn overflow_value_streams_page_sized_chunks() {
        let path = tmp("chain");
        let mut tree = BTree::create(&path).unwrap();
        let big: Vec<u8> = (0..60_000u32).flat_map(|i| i.to_le_bytes()).collect();
        tree.insert(b"big", &big).unwrap();
        let mut r = tree.value_reader(b"big").unwrap().unwrap();
        assert_eq!(r.len(), big.len() as u64);
        let mut out = Vec::new();
        let mut chunks = 0;
        let mut max_chunk = 0;
        loop {
            let n = r.read_chunk(&mut out).unwrap();
            if n == 0 {
                break;
            }
            chunks += 1;
            max_chunk = max_chunk.max(n);
        }
        assert_eq!(out, big);
        assert!(max_chunk <= OVERFLOW_CAP, "chunks are page-bounded");
        assert_eq!(chunks, big.len().div_ceil(OVERFLOW_CAP));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn read_to_vec_matches_get() {
        let path = tmp("same");
        let mut tree = BTree::create(&path).unwrap();
        let vals: Vec<Vec<u8>> = vec![
            Vec::new(),
            b"tiny".to_vec(),
            vec![0xAB; INLINE_MAX],
            vec![0xCD; INLINE_MAX + 1],
            vec![0xEF; 3 * OVERFLOW_CAP + 17],
        ];
        for (i, v) in vals.iter().enumerate() {
            tree.insert(format!("k{i}").as_bytes(), v).unwrap();
        }
        for (i, v) in vals.iter().enumerate() {
            let key = format!("k{i}");
            assert_eq!(&tree.get(key.as_bytes()).unwrap().unwrap(), v);
            let r = tree.value_reader(key.as_bytes()).unwrap().unwrap();
            assert_eq!(&r.read_to_vec().unwrap(), v);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn streaming_reads_do_not_spike_cache() {
        // A value much larger than the pager cache still streams through:
        // the reader only ever asks for one page at a time.
        let path = tmp("coldcache");
        {
            let mut tree = BTree::create(&path).unwrap();
            let big = vec![7u8; 64 * PAGE_SIZE];
            tree.insert(b"big", &big).unwrap();
            tree.flush().unwrap();
        }
        let tree = BTree::open(&path).unwrap();
        let mut r = tree.value_reader(b"big").unwrap().unwrap();
        let mut total = 0usize;
        let mut chunk = Vec::new();
        loop {
            chunk.clear();
            let n = r.read_chunk(&mut chunk).unwrap();
            if n == 0 {
                break;
            }
            // The consumer drops every chunk: peak memory is one page.
            assert!(chunk.len() <= PAGE_SIZE);
            total += n;
        }
        assert_eq!(total, 64 * PAGE_SIZE);
        std::fs::remove_file(&path).ok();
    }

    /// Builds a tree holding one `n_bytes` overflow value under `key`,
    /// then hands it to `check` twice: once opened buffered, once
    /// read-only (mmap when the platform allows). Skip behavior must be
    /// identical on both read paths.
    fn on_both_read_paths(name: &str, n_bytes: usize, check: impl Fn(&BTree, &[u8])) {
        let path = tmp(name);
        let value: Vec<u8> = (0..n_bytes).map(|i| (i % 251) as u8).collect();
        {
            let mut tree = BTree::create(&path).unwrap();
            tree.insert(b"k", &value).unwrap();
            tree.flush().unwrap();
        }
        let buffered = BTree::open(&path).unwrap();
        assert!(!buffered.is_mapped());
        check(&buffered, &value);
        let mapped = BTree::open_readonly(&path).unwrap();
        check(&mapped, &value);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn skip_landing_exactly_on_page_boundary() {
        // Skipping exactly k whole chunks must drop exactly k chunks
        // and resume delivery at the first byte of chunk k.
        on_both_read_paths("skip-boundary", 4 * OVERFLOW_CAP, |tree, value| {
            for k in 1..=3u64 {
                let n = k * OVERFLOW_CAP as u64;
                let mut r = tree.value_reader(b"k").unwrap().unwrap();
                assert_eq!(r.skip_chunk_bytes(n).unwrap(), n);
                let mut out = Vec::new();
                assert_eq!(r.read_chunk(&mut out).unwrap(), OVERFLOW_CAP);
                assert_eq!(&out[..], &value[n as usize..n as usize + OVERFLOW_CAP]);
            }
        });
    }

    #[test]
    fn skip_past_end_of_list_stops_at_last_chunk() {
        // Asking for more than remains skips every whole chunk and
        // leaves the reader cleanly at end-of-value.
        on_both_read_paths("skip-past-end", 3 * OVERFLOW_CAP + 17, |tree, value| {
            let mut r = tree.value_reader(b"k").unwrap().unwrap();
            let skipped = r.skip_chunk_bytes(u64::MAX).unwrap();
            assert_eq!(skipped, value.len() as u64);
            let mut out = Vec::new();
            assert_eq!(r.read_chunk(&mut out).unwrap(), 0, "nothing left");
            // A second over-ask on an exhausted reader is a no-op.
            let mut r = tree.value_reader(b"k").unwrap().unwrap();
            assert_eq!(r.skip_chunk_bytes(u64::MAX).unwrap(), value.len() as u64);
            assert_eq!(r.skip_chunk_bytes(u64::MAX).unwrap(), 0);
        });
    }

    #[test]
    fn skip_mid_chunk_keeps_boundary_chunk_whole() {
        // A skip that lands inside a chunk must not skip it: the whole
        // boundary chunk arrives via read_chunk (chunk-granularity
        // contract), and the bytes after it line up.
        on_both_read_paths("skip-mid", 3 * OVERFLOW_CAP, |tree, value| {
            let mut r = tree.value_reader(b"k").unwrap().unwrap();
            let n = OVERFLOW_CAP as u64 + 100;
            assert_eq!(
                r.skip_chunk_bytes(n).unwrap(),
                OVERFLOW_CAP as u64,
                "only the whole first chunk is skippable"
            );
            let mut rest = Vec::new();
            while r.read_chunk(&mut rest).unwrap() > 0 {}
            assert_eq!(&rest[..], &value[OVERFLOW_CAP..]);
        });
    }

    #[test]
    fn skip_on_zero_length_and_inline_values() {
        let path = tmp("skip-zero");
        let mut tree = BTree::create(&path).unwrap();
        tree.insert(b"empty", b"").unwrap();
        tree.insert(b"inline", b"abc").unwrap();
        // Zero-length value: nothing to skip, reader is already done.
        let mut r = tree.value_reader(b"empty").unwrap().unwrap();
        assert!(r.is_empty());
        assert_eq!(r.skip_chunk_bytes(10).unwrap(), 0);
        let mut out = Vec::new();
        assert_eq!(r.read_chunk(&mut out).unwrap(), 0);
        // Inline value: skippable only as a whole.
        let mut r = tree.value_reader(b"inline").unwrap().unwrap();
        assert_eq!(r.skip_chunk_bytes(2).unwrap(), 0, "partial inline skip");
        assert_eq!(r.read_chunk(&mut out).unwrap(), 3);
        let mut r = tree.value_reader(b"inline").unwrap().unwrap();
        assert_eq!(r.skip_chunk_bytes(3).unwrap(), 3, "whole inline skip");
        assert_eq!(r.read_chunk(&mut out).unwrap(), 0);
        // Zero-byte skip request is a no-op from any state.
        let mut r = tree.value_reader(b"inline").unwrap().unwrap();
        assert_eq!(r.skip_chunk_bytes(0).unwrap(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn boundary_page_descended_once_after_skip() {
        // The chain-cursor contract: a skip that stops on a chunk
        // carries its payload, so the read_chunk that follows performs
        // zero additional pager descents (buffered path; descents show
        // up as hits+misses).
        let path = tmp("skip-once");
        {
            let mut tree = BTree::create(&path).unwrap();
            let value: Vec<u8> = (0..3 * OVERFLOW_CAP).map(|i| (i % 251) as u8).collect();
            tree.insert(b"k", &value).unwrap();
            tree.flush().unwrap();
        }
        let tree = BTree::open(&path).unwrap();
        let mut r = tree.value_reader(b"k").unwrap().unwrap();
        r.skip_chunk_bytes(OVERFLOW_CAP as u64 + 1).unwrap();
        let before = tree.pager_counters();
        let mut out = Vec::new();
        assert_eq!(r.read_chunk(&mut out).unwrap(), OVERFLOW_CAP);
        let d = tree.pager_counters().delta_since(&before);
        assert_eq!(
            d.hits + d.misses,
            0,
            "skip already descended to the boundary page: {d:?}"
        );
        std::fs::remove_file(&path).ok();
    }
}

#[cfg(test)]
mod value_len_tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("si-btree-vlen");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}", std::process::id()))
    }

    #[test]
    fn value_len_matches_stored_sizes() {
        let path = tmp("basic");
        let mut tree = BTree::create(&path).unwrap();
        tree.insert(b"small", &[1, 2, 3]).unwrap();
        let big = vec![7u8; 20_000]; // overflow chain
        tree.insert(b"big", &big).unwrap();
        assert_eq!(tree.value_len(b"small").unwrap(), Some(3));
        assert_eq!(tree.value_len(b"big").unwrap(), Some(20_000));
        assert_eq!(tree.value_len(b"missing").unwrap(), None);
        // Overwrite changes the reported length.
        tree.insert(b"big", &big[..5_000]).unwrap();
        assert_eq!(tree.value_len(b"big").unwrap(), Some(5_000));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn value_len_on_bulk_loaded_tree() {
        let path = tmp("bulk");
        let pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..500u32)
            .map(|i| {
                (
                    format!("k{i:05}").into_bytes(),
                    vec![0u8; (i % 97) as usize],
                )
            })
            .collect();
        let tree = BTree::bulk_load(&path, pairs.clone()).unwrap();
        for (k, v) in &pairs {
            assert_eq!(tree.value_len(k).unwrap(), Some(v.len() as u64));
        }
        std::fs::remove_file(&path).ok();
    }
}
