//! The legacy **materializing** query evaluator (§4.3).
//!
//! This is the original evaluation path: every cover's posting list is
//! fully decoded into `Vec<Tuple>` before the join phase, so memory
//! scales with the largest posting list. It is retained behind
//! [`crate::exec::ExecMode::Materialized`] as the equivalence oracle
//! for the streaming executor ([`crate::exec`], the default) and as the
//! baseline of the `crates/bench` executor ablation. `EvalStats`
//! instrumentation (including `peak_posting_bytes`) is shared by both.
//!
//! The two phases of the paper:
//!
//! 1. **decomposition** — [`crate::cover::decompose`] picks the cover for
//!    the index's coding scheme and every cover subtree's posting list is
//!    fetched from the B+Tree;
//! 2. **join** — posting lists become tuple streams and a left-deep plan
//!    (smallest stream first, connected steps only) reduces them with
//!    equality and structural joins; filter-based coding instead
//!    intersects tid lists and runs the *filtering phase* (the in-memory
//!    matcher) over candidate trees.
//!
//! The result of a query is the set of distinct `(tid, pre)` pairs its
//! root maps to (the semantics of the `si_query` crate docs). Same-label
//! sibling distinctness is enforced with root-level `!=` predicates
//! (minRC patches the cover so the members are roots); a whole-tree
//! post-validation fallback remains as a safety net and is reported via
//! [`EvalStats::used_validation`].

use std::collections::HashSet;

use si_parsetree::TreeId;
use si_query::matcher::Matcher;
use si_query::{QNodeId, Query};

use crate::build::SubtreeIndex;
use crate::canonical::{automorphisms, decode_key};
use crate::coding::{Coding, Posting};
use crate::cover::{decompose, Cover};
use crate::join::{
    intersect_tids, join, tid_cross_join, tuples_bytes, JoinKind, Pred, Slots, Tuple,
};
use crate::plan::{cross_stream_predicates, PredKind};

/// Instrumentation of one evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Cover subtrees fetched.
    pub covers: usize,
    /// Binary joins in the executed plan. The streaming executor always
    /// reports the full plan (its operators exist even when no tuple
    /// flows); the materialized evaluator stops counting when an
    /// intermediate result empties out.
    pub joins: usize,
    /// Postings decoded across all fetched lists.
    pub postings_fetched: usize,
    /// Trees materialized and matched in a validation/filtering phase.
    pub validated_trees: usize,
    /// Whether root-split fell back to post-validation (sibling-label
    /// distinctness not expressible over roots; ARCHITECTURE.md,
    /// *Query path*).
    pub used_validation: bool,
    /// Whether the cost-based planner proved the result empty from
    /// disjoint per-key tid ranges and skipped execution entirely
    /// (streaming executor with exact stats only).
    pub range_pruned: bool,
    /// High-water mark of resident posting-derived bytes. The
    /// materializing evaluator pays every stream's full tuple expansion
    /// (plus the raw bytes of the list currently decoding); the
    /// streaming executor pays the pages in flight plus its small
    /// operator windows — the ablation `crates/bench` measures.
    pub peak_posting_bytes: usize,
    /// Pager cache hits during this evaluation (delta of the
    /// **thread-local** counters, [`si_storage::thread_counters`]: a
    /// query evaluates entirely on one thread, so attribution is exact
    /// even while the query service runs other queries concurrently on
    /// the same pager).
    pub pager_hits: u64,
    /// Pager cache misses (physical page reads) during this evaluation.
    pub pager_misses: u64,
    /// Pager cache evictions during this evaluation.
    pub pager_evictions: u64,
    /// Decoded-block cache hits by this query's scans (exact per query;
    /// zero when no [`crate::blockcache::BlockCache`] is configured).
    pub cache_hits: u64,
    /// Decoded-block cache misses by this query's scans.
    pub cache_misses: u64,
    /// Postings served as zero-copy borrows straight out of cache-hit
    /// blocks (no decode, no clone) — the observable win of the
    /// borrow-based [`crate::coding::PostingFeed`] pipeline.
    pub postings_borrowed: u64,
    /// Order enforcers this evaluation did without: planner steps where
    /// the root-slot preference chose a sort-free driving predicate or
    /// stream, plus `SortExchange`s whose run detection drained the
    /// input without ever sorting a tid group.
    pub sort_exchanges_avoided: usize,
    /// Shards consulted by a sharded evaluation
    /// ([`crate::sharded::ShardedIndex`]); zero for a monolithic index.
    pub shards: usize,
    /// Shards answered without opening a single posting list: some cover
    /// key is absent from the shard, or (cost-based planner) the shard's
    /// per-key tid ranges are disjoint.
    pub shards_skipped: usize,
    /// Restart-block jumps performed by posting feeds
    /// ([`crate::coding::PostingFeed::seek_to_tid`]): leapfrog targets
    /// and tid-range seeding that actually moved a cursor forward.
    /// Zero on pre-skip-header indexes (no skip tables to jump).
    pub seeks: u64,
    /// Postings those seeks jumped over — bytes the evaluation **never
    /// decoded** (and, cold, never even copied off their disk pages).
    pub postings_skipped: u64,
    /// Queries answered **entirely** from the result cache: every live
    /// shard's partial match set was cached at the shard's current
    /// generation, so no join pipeline ran at all.
    pub result_hits: u64,
    /// Queries that ran the join pipeline for at least one shard (the
    /// complement of [`EvalStats::result_hits`] when a result cache is
    /// configured; zero when it is off).
    pub result_misses: u64,
    /// Cached per-shard partial match sets reused by queries counted in
    /// [`EvalStats::result_misses`] — the ingest story: an ingest bumps
    /// only the shards it touched, so untouched shards' partials keep
    /// serving while just the new shards are evaluated.
    pub partial_reuses: u64,
    /// Result-cache probes answered by an explicit empty entry — a
    /// shard the cache *knows* has no match for this query (including
    /// shards skip-pruned on an earlier run).
    pub negative_hits: u64,
}

/// Matches plus statistics.
#[derive(Debug, Clone, Default)]
pub struct EvalResult {
    /// Distinct `(tid, pre-of-query-root)` pairs, sorted.
    pub matches: Vec<(TreeId, u32)>,
    /// Evaluation statistics.
    pub stats: EvalStats,
}

impl EvalResult {
    /// Number of matches.
    pub fn len(&self) -> usize {
        self.matches.len()
    }

    /// Whether no match was found.
    pub fn is_empty(&self) -> bool {
        self.matches.is_empty()
    }
}

/// Evaluates `query` against `index`. See the module docs.
pub fn evaluate(index: &SubtreeIndex, query: &Query) -> si_storage::Result<EvalResult> {
    let options = index.options();
    let cover = decompose(query, options.mss, options.coding);
    debug_assert_eq!(cover.validate(query, options.mss), Ok(()));
    match options.coding {
        Coding::FilterBased => eval_filter(index, query, &cover),
        Coding::RootSplit | Coding::SubtreeInterval => eval_structural(index, query, &cover),
    }
}

/// Filter-based evaluation: intersect tid lists, then the filtering
/// phase (§4.4.1).
fn eval_filter(
    index: &SubtreeIndex,
    query: &Query,
    cover: &Cover,
) -> si_storage::Result<EvalResult> {
    let mut stats = EvalStats {
        covers: cover.subtrees.len(),
        ..EvalStats::default()
    };
    // Resident-byte accounting: raw list bytes are transient (alive only
    // while that list decodes), the decoded tid lists stay live until the
    // intersection completes.
    let mut resident = 0usize;
    let mut lists: Vec<Vec<TreeId>> = Vec::with_capacity(cover.subtrees.len());
    for st in &cover.subtrees {
        let Some((postings, raw_bytes)) = index.postings_with_len(&st.key)? else {
            return Ok(EvalResult {
                matches: Vec::new(),
                stats,
            });
        };
        stats.postings_fetched += postings.len();
        let tid_bytes = postings.len() * std::mem::size_of::<TreeId>();
        stats.peak_posting_bytes = stats
            .peak_posting_bytes
            .max(resident + raw_bytes + tid_bytes);
        resident += tid_bytes;
        lists.push(
            postings
                .into_iter()
                .map(|p| match p {
                    Posting::Tid(tid) => tid,
                    _ => unreachable!("filter index yields tid postings"),
                })
                .collect(),
        );
    }
    stats.joins = lists.len().saturating_sub(1);
    let candidates = intersect_tids(&lists);
    let matches = validate_candidates(index, query, &candidates, &mut stats)?;
    Ok(EvalResult { matches, stats })
}

/// The filtering / post-validation phase: fetch candidate trees from the
/// data file and run the in-memory matcher.
pub(crate) fn validate_candidates(
    index: &SubtreeIndex,
    query: &Query,
    candidates: &[TreeId],
    stats: &mut EvalStats,
) -> si_storage::Result<Vec<(TreeId, u32)>> {
    validate_candidates_with(index, query, candidates, None, stats)
}

/// [`validate_candidates`] with an optional decoded-tree cache (the
/// query service's batches revisit hot candidate trees).
pub(crate) fn validate_candidates_with(
    index: &SubtreeIndex,
    query: &Query,
    candidates: &[TreeId],
    trees: Option<&crate::exec::TreeCache>,
    stats: &mut EvalStats,
) -> si_storage::Result<Vec<(TreeId, u32)>> {
    let mut matches = Vec::new();
    for &tid in candidates {
        stats.validated_trees += 1;
        match trees {
            Some(cache) => {
                let tree = cache.get(index, tid)?;
                for root in Matcher::new(&tree, query).roots() {
                    matches.push((tid, root.0));
                }
            }
            None => {
                let tree = index.store().get(tid)?;
                for root in Matcher::new(&tree, query).roots() {
                    matches.push((tid, root.0));
                }
            }
        }
    }
    matches.sort_unstable();
    matches.dedup();
    Ok(matches)
}

/// A materialized posting stream: tuples plus the query node each slot
/// binds.
struct Stream {
    qnodes: Vec<QNodeId>,
    tuples: Vec<Tuple>,
}

/// Structural evaluation for root-split and subtree-interval codings.
fn eval_structural(
    index: &SubtreeIndex,
    query: &Query,
    cover: &Cover,
) -> si_storage::Result<EvalResult> {
    let coding = index.options().coding;
    let mut stats = EvalStats {
        covers: cover.subtrees.len(),
        ..EvalStats::default()
    };

    // Cheap selectivity pre-pass (§7 future work): posting-list lengths
    // come from leaf entries without decoding. A missing key means some
    // cover subtree occurs nowhere — the query has no matches and the
    // remaining (possibly huge) lists are never touched.
    for st in &cover.subtrees {
        if index.posting_len(&st.key)?.is_none() {
            return Ok(EvalResult {
                matches: Vec::new(),
                stats,
            });
        }
    }

    // Materialize one stream per cover subtree, shortest posting list
    // first, with a running semi-join on tids: a tree absent from any
    // already-materialized stream can never survive the join phase, so
    // its postings in later (longer) lists are skipped before tuple
    // expansion. This is what makes selective queries cheap even when
    // the cover also contains a very frequent key.
    let mut fetch_order: Vec<usize> = (0..cover.subtrees.len()).collect();
    let mut lens = Vec::with_capacity(cover.subtrees.len());
    for st in &cover.subtrees {
        lens.push(index.posting_len(&st.key)?.unwrap_or(0));
    }
    fetch_order.sort_by_key(|&i| lens[i]);
    // Resident-byte accounting: raw list bytes are transient (alive only
    // while their stream is decoded and expanded); every stream's tuple
    // expansion stays live until the join phase completes.
    let mut resident = 0usize;
    let mut streams_by_cover: Vec<Option<Stream>> =
        (0..cover.subtrees.len()).map(|_| None).collect();
    let mut allowed_tids: Option<Vec<si_parsetree::TreeId>> = None;
    for &ci in &fetch_order {
        let st = &cover.subtrees[ci];
        let Some(postings) = index.postings(&st.key)? else {
            return Ok(EvalResult {
                matches: Vec::new(),
                stats,
            });
        };
        stats.postings_fetched += postings.len();
        let tid_ok = |tid: si_parsetree::TreeId| -> bool {
            match &allowed_tids {
                None => true,
                Some(list) => list.binary_search(&tid).is_ok(),
            }
        };
        let stream = match coding {
            Coding::RootSplit => Stream {
                qnodes: vec![st.root],
                tuples: postings
                    .into_iter()
                    .filter_map(|p| match p {
                        Posting::Root { tid, root } => tid_ok(tid).then_some(Tuple {
                            tid,
                            slots: Slots::one(root),
                        }),
                        _ => unreachable!("root-split index yields root postings"),
                    })
                    .collect(),
            },
            Coding::SubtreeInterval => {
                let shape = decode_key(&st.key).expect("well-formed cover key");
                // Each posting fixes one arbitrary assignment of data
                // nodes to canonical positions; automorphic reassignments
                // are equally valid and joins must see them all.
                let autos = automorphisms(&shape, 720);
                let mut tuples = Vec::new();
                for p in postings {
                    let Posting::Occurrence { tid, nodes } = p else {
                        unreachable!("interval index yields occurrence postings")
                    };
                    if !tid_ok(tid) {
                        continue;
                    }
                    for perm in &autos {
                        tuples.push(Tuple {
                            tid,
                            slots: perm.iter().map(|&j| nodes[j].0).collect(),
                        });
                    }
                }
                Stream {
                    qnodes: st.nodes.clone(),
                    tuples,
                }
            }
            Coding::FilterBased => unreachable!("handled by eval_filter"),
        };
        // The raw list bytes are transient (freed once decoded); the
        // expanded tuples stay live until the join phase completes.
        let tuple_bytes = tuples_bytes(&stream.tuples);
        stats.peak_posting_bytes = stats
            .peak_posting_bytes
            .max(resident + lens[ci] as usize + tuple_bytes);
        resident += tuple_bytes;
        if stream.tuples.is_empty() {
            return Ok(EvalResult {
                matches: Vec::new(),
                stats,
            });
        }
        // Tids of this stream become the new allowed set (it is already
        // a subset of the previous one).
        let mut tids: Vec<si_parsetree::TreeId> = stream.tuples.iter().map(|t| t.tid).collect();
        tids.dedup(); // posting order is tid-ascending
        allowed_tids = Some(tids);
        streams_by_cover[ci] = Some(stream);
    }
    let streams: Vec<Stream> = streams_by_cover
        .into_iter()
        .map(|s| s.expect("all covers materialized"))
        .collect();

    // Cross-stream predicates (derivation shared with the streaming
    // planner, `crate::plan`, so both executors enforce identical
    // semantics).
    let exposed: Vec<Vec<QNodeId>> = streams.iter().map(|s| s.qnodes.clone()).collect();
    let (preds, needs_validation) = cross_stream_predicates(query, cover, &exposed);

    // Left-deep join: smallest stream first, connected steps preferred.
    let mut remaining: Vec<usize> = (0..streams.len()).collect();
    remaining.sort_by_key(|&i| streams[i].tuples.len());
    let first = remaining.remove(0);
    let mut joined_qnodes = streams[first].qnodes.clone();
    let mut joined = streams[first].tuples.clone();
    let mut placed = vec![first];

    while !remaining.is_empty() {
        // Prefer the smallest stream connected by some predicate.
        let next_pos = remaining
            .iter()
            .position(|&s| {
                preds.iter().any(|p| {
                    (p.a == s && placed.contains(&p.b)) || (p.b == s && placed.contains(&p.a))
                })
            })
            .unwrap_or(0);
        let s = remaining.remove(next_pos);
        let stream = &streams[s];

        // Predicates between `s` and already-placed streams, split into
        // one driving join condition plus residual filters (rewritten to
        // combined slot indices). Parent/Ancestor predicates whose child
        // end is already placed cannot drive our merge forms and become
        // residuals.
        let offset = joined_qnodes.len();
        let slot_of_placed = |q: QNodeId, qnodes: &[QNodeId]| -> Option<usize> {
            qnodes.iter().position(|&x| x == q)
        };
        let mut driving: Option<(JoinKind, usize, usize)> = None;
        let mut residuals: Vec<Pred> = Vec::new();
        for p in preds.iter() {
            let (placed_q, new_q, forward) = if p.b == s && placed.contains(&p.a) {
                (p.aq, p.bq, true)
            } else if p.a == s && placed.contains(&p.b) {
                (p.bq, p.aq, false)
            } else {
                continue;
            };
            let Some(l) = slot_of_placed(placed_q, &joined_qnodes) else {
                continue;
            };
            let Some(rs) = stream.qnodes.iter().position(|&x| x == new_q) else {
                continue;
            };
            let r_combined = offset + rs;
            match (p.kind, forward) {
                (PredKind::Eq, _) => {
                    if driving.is_none() {
                        driving = Some((JoinKind::Eq, l, rs));
                    } else {
                        residuals.push(Pred::Eq(l, r_combined));
                    }
                }
                (PredKind::Parent, true) => {
                    if driving.is_none() {
                        driving = Some((JoinKind::Parent, l, rs));
                    } else {
                        residuals.push(Pred::Parent(l, r_combined));
                    }
                }
                (PredKind::Parent, false) => residuals.push(Pred::Parent(r_combined, l)),
                (PredKind::Ancestor, true) => {
                    if driving.is_none() {
                        driving = Some((JoinKind::Ancestor, l, rs));
                    } else {
                        residuals.push(Pred::Ancestor(l, r_combined));
                    }
                }
                (PredKind::Ancestor, false) => residuals.push(Pred::Ancestor(r_combined, l)),
                (PredKind::Neq, _) => residuals.push(Pred::Neq(l, r_combined)),
            }
        }
        joined = match driving {
            Some((kind, l, r)) => join(
                &joined,
                &stream.tuples,
                kind,
                l,
                r,
                &residuals,
                index.join_algo(),
            ),
            // Disconnected step (should not happen for valid covers):
            // conjunction via per-tid cross product.
            None => tid_cross_join(&joined, &stream.tuples, &residuals),
        };
        stats.joins += 1;
        stats.peak_posting_bytes = stats
            .peak_posting_bytes
            .max(resident + tuples_bytes(&joined));
        joined_qnodes.extend(stream.qnodes.iter().copied());
        placed.push(s);
        if joined.is_empty() {
            return Ok(EvalResult {
                matches: Vec::new(),
                stats,
            });
        }
    }

    if needs_validation {
        stats.used_validation = true;
        let mut tids: Vec<TreeId> = joined.iter().map(|t| t.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        let matches = validate_candidates(index, query, &tids, &mut stats)?;
        return Ok(EvalResult { matches, stats });
    }

    // Project the query root.
    let root_slot = joined_qnodes
        .iter()
        .position(|&q| q == query.root())
        .expect("query root exposed by its component's covers");
    let mut set: HashSet<(TreeId, u32)> = HashSet::with_capacity(joined.len());
    for t in &joined {
        set.insert((t.tid, t.slots[root_slot].pre));
    }
    let mut matches: Vec<(TreeId, u32)> = set.into_iter().collect();
    matches.sort_unstable();
    Ok(EvalResult { matches, stats })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_result_len_and_emptiness() {
        let r = EvalResult::default();
        assert_eq!(r.len(), 0);
        assert!(r.is_empty());
        let r = EvalResult {
            matches: vec![(0, 1), (2, 3)],
            stats: EvalStats::default(),
        };
        assert_eq!(r.len(), 2);
        assert!(!r.is_empty());
    }

    #[test]
    fn stream_pred_kinds_are_distinct() {
        // Guard against accidental re-ordering of the predicate enum —
        // both join planners match on these.
        assert_ne!(PredKind::Eq, PredKind::Parent);
        assert_ne!(PredKind::Parent, PredKind::Ancestor);
        assert_ne!(PredKind::Ancestor, PredKind::Neq);
    }
}
