//! Observability: instrumented runs answer exactly like plain runs,
//! stage nanoseconds account for the measured wall time, the operator
//! tree reflects the executed plan, `merge_shard_stats` folds every
//! counter, and per-query pager attribution stays exact under
//! concurrency (thread-local counter regression).

use std::sync::{Arc, Barrier};

use si_core::sharded::{merge_shard_stats, ShardBuildMode, ShardedBuildConfig, ShardedIndex};
use si_core::{Coding, EvalStats, ExecContext, IndexOptions, SubtreeIndex};
use si_corpus::GeneratorConfig;
use si_obs::Timings;
use si_query::{parse_query, Query};

fn tmp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "si-obs-{name}-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .subsec_nanos()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const QUERIES: &[&str] = &[
    "NP(DT)(NN)",
    "S(NP)(VP)",
    "S(NP(NN))(VP)",
    "VP(//NN)",
    "NP(JJ)(NN)",
];

fn fixture(coding: Coding, name: &str) -> (SubtreeIndex, Vec<Query>, std::path::PathBuf) {
    let corpus = GeneratorConfig::default().with_seed(1234567).generate(250);
    let mut qi = corpus.interner().clone();
    let queries: Vec<Query> = QUERIES
        .iter()
        .map(|q| parse_query(q, &mut qi).unwrap())
        .collect();
    let dir = tmp_dir(name);
    let index =
        SubtreeIndex::build(&dir, corpus.trees(), &qi, IndexOptions::new(3, coding)).unwrap();
    (index, queries, dir)
}

/// Enabled timings must not change a single answer, and the stage
/// partition must account for the bulk of the measured wall time
/// (decode + join + validate + posting-seek tile the executor's run by
/// construction).
#[test]
fn instrumented_runs_answer_identically_and_stages_account_for_time() {
    for coding in Coding::ALL {
        let (index, queries, dir) = fixture(coding, &format!("equiv-{coding:?}").to_lowercase());
        for (qi, query) in queries.iter().enumerate() {
            let plain = index.evaluate_with(query, &ExecContext::default()).unwrap();
            let timings = Timings::new(true);
            let ctx = ExecContext {
                timings: Some(&timings),
                ..ExecContext::default()
            };
            let start = std::time::Instant::now();
            let timed = index.evaluate_with(query, &ctx).unwrap();
            let wall = start.elapsed().as_nanos() as u64;
            assert_eq!(
                timed.matches, plain.matches,
                "query {qi} under {coding:?}: instrumentation changed the answer"
            );
            let snap = timings.snapshot();
            let total = snap.stage_total();
            assert!(total > 0, "query {qi} under {coding:?}: no time attributed");
            assert!(
                total <= wall.saturating_mul(11) / 10,
                "query {qi} under {coding:?}: stages ({total} ns) exceed wall ({wall} ns)"
            );
            assert!(
                total >= wall / 2,
                "query {qi} under {coding:?}: stages ({total} ns) cover under half the wall ({wall} ns)"
            );
            // The operator tree reflects an executed pipeline: at least
            // one node, exactly one root, child indices in range.
            assert!(!snap.ops.is_empty(), "query {qi}: no operator nodes");
            assert_eq!(snap.roots().len(), 1, "query {qi}: forest, expected a tree");
            for op in &snap.ops {
                for &c in &op.children {
                    assert!(c < snap.ops.len());
                }
            }
            if coding == Coding::FilterBased {
                assert!(snap.ops.iter().any(|op| op.label == "tid leapfrog"));
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A disabled `Timings` records nothing and changes nothing.
#[test]
fn disabled_timings_are_inert() {
    let (index, queries, dir) = fixture(Coding::SubtreeInterval, "inert");
    for query in &queries {
        let plain = index.evaluate_with(query, &ExecContext::default()).unwrap();
        let timings = Timings::new(false);
        let ctx = ExecContext {
            timings: Some(&timings),
            ..ExecContext::default()
        };
        let timed = index.evaluate_with(query, &ctx).unwrap();
        assert_eq!(timed.matches, plain.matches);
        let snap = timings.snapshot();
        assert_eq!(snap.stage_total(), 0);
        assert!(snap.ops.is_empty());
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Sharded evaluation folds every worker's snapshot in under a
/// `shard-N` group node without changing the answer.
#[test]
fn sharded_timings_group_per_shard() {
    let corpus = GeneratorConfig::default().with_seed(0xBEEF).generate(180);
    let mut qi = corpus.interner().clone();
    let query = parse_query("NP(DT)(NN)", &mut qi).unwrap();
    let dir = tmp_dir("sharded");
    let index = ShardedIndex::build(
        &dir,
        corpus.trees(),
        &qi,
        IndexOptions::new(3, Coding::SubtreeInterval),
        ShardedBuildConfig {
            shards: 3,
            workers: 2,
            mode: ShardBuildMode::InMemory,
        },
    )
    .unwrap();
    let plain = index.evaluate(&query).unwrap();
    let timings = Timings::new(true);
    let ctx = ExecContext {
        timings: Some(&timings),
        ..ExecContext::default()
    };
    let timed = index.evaluate_with(&query, &ctx).unwrap();
    assert_eq!(timed.matches, plain.matches);
    let snap = timings.snapshot();
    let groups: Vec<&str> = snap
        .ops
        .iter()
        .filter(|op| op.label.starts_with("shard-"))
        .map(|op| op.label.as_str())
        .collect();
    assert!(
        !groups.is_empty(),
        "expected shard group nodes, ops: {:?}",
        snap.ops.iter().map(|o| &o.label).collect::<Vec<_>>()
    );
    // Every root of the forest is a shard group.
    for r in snap.roots() {
        assert!(snap.ops[r].label.starts_with("shard-"));
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Satellite: `merge_shard_stats` must fold **every** counter. The
/// exhaustive struct literals (no `..Default::default()`) make adding
/// an `EvalStats` field a compile error here until the merge handles
/// it.
#[test]
fn merge_shard_stats_covers_every_field() {
    let a = EvalStats {
        covers: 3,
        joins: 2,
        postings_fetched: 100,
        validated_trees: 7,
        used_validation: true,
        range_pruned: false,
        peak_posting_bytes: 5000,
        pager_hits: 11,
        pager_misses: 13,
        pager_evictions: 17,
        cache_hits: 19,
        cache_misses: 23,
        postings_borrowed: 29,
        sort_exchanges_avoided: 31,
        shards: 4,
        shards_skipped: 1,
        seeks: 37,
        postings_skipped: 41,
        result_hits: 83,
        result_misses: 89,
        partial_reuses: 97,
        negative_hits: 101,
    };
    let b = EvalStats {
        covers: 5,
        joins: 6,
        postings_fetched: 200,
        validated_trees: 8,
        used_validation: false,
        range_pruned: true,
        peak_posting_bytes: 4000,
        pager_hits: 43,
        pager_misses: 47,
        pager_evictions: 53,
        cache_hits: 59,
        cache_misses: 61,
        postings_borrowed: 67,
        sort_exchanges_avoided: 71,
        shards: 9,
        shards_skipped: 2,
        seeks: 73,
        postings_skipped: 79,
        result_hits: 103,
        result_misses: 107,
        partial_reuses: 109,
        negative_hits: 113,
    };
    let mut agg = a;
    merge_shard_stats(&mut agg, &b);
    // Summed counters.
    assert_eq!(agg.joins, a.joins + b.joins);
    assert_eq!(
        agg.postings_fetched,
        a.postings_fetched + b.postings_fetched
    );
    assert_eq!(agg.validated_trees, a.validated_trees + b.validated_trees);
    assert_eq!(agg.pager_hits, a.pager_hits + b.pager_hits);
    assert_eq!(agg.pager_misses, a.pager_misses + b.pager_misses);
    assert_eq!(agg.pager_evictions, a.pager_evictions + b.pager_evictions);
    assert_eq!(agg.cache_hits, a.cache_hits + b.cache_hits);
    assert_eq!(agg.cache_misses, a.cache_misses + b.cache_misses);
    assert_eq!(
        agg.postings_borrowed,
        a.postings_borrowed + b.postings_borrowed
    );
    assert_eq!(
        agg.sort_exchanges_avoided,
        a.sort_exchanges_avoided + b.sort_exchanges_avoided
    );
    assert_eq!(agg.seeks, a.seeks + b.seeks);
    assert_eq!(
        agg.postings_skipped,
        a.postings_skipped + b.postings_skipped
    );
    assert_eq!(agg.result_hits, a.result_hits + b.result_hits);
    assert_eq!(agg.result_misses, a.result_misses + b.result_misses);
    assert_eq!(agg.partial_reuses, a.partial_reuses + b.partial_reuses);
    assert_eq!(agg.negative_hits, a.negative_hits + b.negative_hits);
    // ORed flags; per-shard maximum.
    assert!(agg.used_validation && agg.range_pruned);
    assert_eq!(
        agg.peak_posting_bytes,
        a.peak_posting_bytes.max(b.peak_posting_bytes)
    );
    // Caller-set fields the merge deliberately leaves alone.
    assert_eq!(agg.covers, a.covers);
    assert_eq!(agg.shards, a.shards);
    assert_eq!(agg.shards_skipped, a.shards_skipped);
}

/// Satellite regression: per-query pager counters are **exact** under
/// concurrency. A query's delta comes from thread-local counters, so a
/// second thread hammering the same index must not leak into it. The
/// index is opened read-only (mapped pager: every access is a
/// deterministic cache hit), so the solo run's counters are the ground
/// truth for the concurrent one.
#[test]
fn pager_attribution_exact_under_concurrent_queries() {
    let (index, queries, dir) = fixture(Coding::SubtreeInterval, "pager");
    let index = Arc::new(SubtreeIndex::open(index.dir()).unwrap_or(index));
    let qa = queries[0].clone();
    let qb = queries[1].clone();
    // Warm + solo baseline.
    index.evaluate(&qa).unwrap();
    let solo = index.evaluate(&qa).unwrap().stats;
    let barrier = Arc::new(Barrier::new(2));
    let a = {
        let (index, barrier) = (Arc::clone(&index), Arc::clone(&barrier));
        std::thread::spawn(move || {
            barrier.wait();
            index.evaluate(&qa).unwrap().stats
        })
    };
    let b = {
        let (index, barrier) = (Arc::clone(&index), Arc::clone(&barrier));
        std::thread::spawn(move || {
            barrier.wait();
            for _ in 0..5 {
                index.evaluate(&qb).unwrap();
            }
        })
    };
    let concurrent = a.join().unwrap();
    b.join().unwrap();
    assert_eq!(
        (
            concurrent.pager_hits,
            concurrent.pager_misses,
            concurrent.pager_evictions
        ),
        (solo.pager_hits, solo.pager_misses, solo.pager_evictions),
        "concurrent run's pager delta differs from the solo ground truth"
    );
    std::fs::remove_dir_all(&dir).ok();
}
