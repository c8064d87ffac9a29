//! Disk substrate for the Subtree Index.
//!
//! The paper's implementation is "a native disk-based B+Tree index" with
//! 4096-byte pages, relying on OS page buffering plus a small user-space
//! cache, and "flattened and sequentially stored parse trees in a separate
//! file, which we call the data file" (§6.1). This crate provides exactly
//! those pieces:
//!
//! * [`pager`] — a page-granular file abstraction with a write-back LRU
//!   cache ([`Pager`]);
//! * [`btree`] — a disk B+Tree ([`BTree`]) mapping arbitrary byte keys
//!   (canonical subtree encodings) to arbitrary byte values (posting
//!   lists), with overflow chains for values larger than a page;
//! * [`datafile`] — the corpus store ([`CorpusStore`]): the data file of
//!   flattened trees, its offset index and the label interner;
//! * [`shard`] — the shard manifest ([`ShardManifest`]) describing a
//!   tid-range partitioned index directory of N full per-shard indexes.

pub mod btree;
pub mod datafile;
pub mod error;
pub mod pager;
pub mod shard;

pub use btree::{BTree, BTreeStats, KeyStats, ValueReader, TID_HIST_BUCKETS};
pub use datafile::CorpusStore;
pub use error::{Result, StorageError};
pub use pager::{
    process_counters, thread_counters, PageId, Pager, PagerCounters, ProcessPagerCounters,
    PAGE_SIZE,
};
pub use shard::{ShardEntry, ShardManifest, MANIFEST_FILE};
