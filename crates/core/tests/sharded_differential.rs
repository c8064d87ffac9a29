//! Sharded-vs-monolith differential suite: a tid-range sharded index
//! must return **byte-identical** match sets to a monolithic index over
//! the same corpus, across shard counts, codings, executors and planner
//! modes — and incremental ingest must land in the same place as a
//! from-scratch build.

use si_core::sharded::{ShardBuildMode, ShardedBuildConfig, ShardedIndex};
use si_core::{AnyIndex, Coding, ExecMode, IndexOptions, PlannerMode, SubtreeIndex};
use si_corpus::GeneratorConfig;
use si_parsetree::{LabelInterner, ParseTree, TreeId};
use si_query::{matcher::Matcher, parse_query, Query};

fn tmp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "si-shard-{name}-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .subsec_nanos()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn ground_truth(trees: &[ParseTree], query: &Query) -> Vec<(TreeId, u32)> {
    let mut out = Vec::new();
    for (tid, tree) in trees.iter().enumerate() {
        for root in Matcher::new(tree, query).roots() {
            out.push((tid as TreeId, root.0));
        }
    }
    out
}

/// Randomized differential: same corpus, N ∈ {1, 2, 4} shards × all
/// three codings × both executors — identical match sets, and the
/// in-memory matcher as independent ground truth.
#[test]
fn sharded_matches_monolith_across_codings_and_executors() {
    for round in 0u64..2 {
        let seed = 0x5AAD + round * 7919;
        let corpus = GeneratorConfig::default()
            .with_seed(seed)
            .generate(70 + round as usize * 40);
        let mut interner = corpus.interner().clone();
        let heldout = GeneratorConfig::default()
            .with_seed(seed + 1)
            .generate_into(20, &mut interner);
        let fb = si_corpus::fb_query_set(&corpus, &heldout, seed + 2);
        let queries: Vec<&Query> = fb.iter().step_by(5).map(|f| &f.query).collect();
        let mss = 2 + (round as usize % 2);
        for coding in Coding::ALL {
            let options = IndexOptions::new(mss, coding);
            let mono_dir = tmp_dir(&format!("mono-{round}-{coding:?}").to_lowercase());
            let mono = SubtreeIndex::build(&mono_dir, corpus.trees(), &interner, options).unwrap();
            for shards in [1usize, 2, 4] {
                let dir = tmp_dir(&format!("sh{shards}-{round}-{coding:?}").to_lowercase());
                let mut sharded = ShardedIndex::build(
                    &dir,
                    corpus.trees(),
                    &interner,
                    options,
                    ShardedBuildConfig {
                        shards,
                        workers: 2,
                        mode: ShardBuildMode::InMemory,
                    },
                )
                .unwrap();
                assert_eq!(sharded.shards().len(), shards.min(corpus.trees().len()));
                assert_eq!(sharded.num_trees() as usize, corpus.trees().len());
                for q in &queries {
                    let expect = mono.evaluate(q).unwrap();
                    for exec in [ExecMode::Streaming, ExecMode::Materialized] {
                        sharded.set_exec_mode(exec);
                        let got = sharded.evaluate(q).unwrap();
                        assert_eq!(
                            got.matches, expect.matches,
                            "{shards} shards, {coding:?}, {exec:?}, round {round}"
                        );
                        assert_eq!(got.stats.shards, shards.min(corpus.trees().len()));
                        assert!(
                            got.stats.shards_skipped <= got.stats.shards,
                            "skip count within bounds"
                        );
                    }
                    // Independent ground truth.
                    assert_eq!(
                        expect.matches,
                        ground_truth(corpus.trees(), q),
                        "monolith vs matcher, {coding:?}"
                    );
                }
                std::fs::remove_dir_all(&dir).ok();
            }
            std::fs::remove_dir_all(&mono_dir).ok();
        }
    }
}

/// Rebuilding a sharded index over an existing sharded directory tears
/// the old layout down first: the stale manifest can never pair with
/// partially overwritten shard dirs, and shard dirs the new layout
/// does not use are gone. A stale *monolithic* index in the directory
/// is removed too (it would shadow a crashed sharded build).
#[test]
fn sharded_rebuild_replaces_the_old_layout() {
    let corpus_a = GeneratorConfig::default().with_seed(0xD0).generate(80);
    let corpus_b = GeneratorConfig::default().with_seed(0xD1).generate(40);
    let dir = tmp_dir("rebuild");
    let options = IndexOptions::new(3, Coding::RootSplit);
    let mk = |shards| ShardedBuildConfig {
        shards,
        workers: 2,
        mode: ShardBuildMode::InMemory,
    };
    SubtreeIndex::build(&dir, corpus_b.trees(), corpus_b.interner(), options).unwrap();
    ShardedIndex::build(&dir, corpus_a.trees(), corpus_a.interner(), options, mk(8)).unwrap();
    assert!(dir.join("shard-0007").is_dir());
    assert!(
        !dir.join("index.bt").exists() && !dir.join("corpus").exists(),
        "stale monolithic index must be torn down by the sharded build"
    );
    let rebuilt =
        ShardedIndex::build(&dir, corpus_b.trees(), corpus_b.interner(), options, mk(2)).unwrap();
    assert_eq!(rebuilt.shards().len(), 2);
    assert_eq!(rebuilt.num_trees() as usize, corpus_b.trees().len());
    // Old higher-id shard directories are gone, not stale garbage.
    assert!(!dir.join("shard-0002").exists());
    assert!(!dir.join("shard-0007").exists());
    let reopened = ShardedIndex::open(&dir).unwrap();
    assert_eq!(reopened.num_trees() as usize, corpus_b.trees().len());
    let mut qi = reopened.interner();
    let q = parse_query("NP(NN)", &mut qi).unwrap();
    assert_eq!(
        reopened.evaluate(&q).unwrap().matches,
        ground_truth(corpus_b.trees(), &q),
        "answers come from the new corpus only"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Both planner modes agree through the sharded path (ByteLen disables
/// range-based shard skipping, so this exercises the skip/no-skip pair).
#[test]
fn planner_modes_agree_on_sharded_index() {
    let corpus = GeneratorConfig::default().with_seed(0xBEEF).generate(90);
    let mut qi = corpus.interner().clone();
    let queries: Vec<Query> = ["NP(DT)(NN)", "S(NP)(VP)", "VP(//NN)", "S(NP(DT)(NN))(VP)"]
        .iter()
        .map(|s| parse_query(s, &mut qi).unwrap())
        .collect();
    let dir = tmp_dir("planner");
    let sharded = ShardedIndex::build(
        &dir,
        corpus.trees(),
        &qi,
        IndexOptions::new(3, Coding::RootSplit),
        ShardedBuildConfig {
            shards: 3,
            workers: 2,
            mode: ShardBuildMode::Parallel(2),
        },
    )
    .unwrap();
    for q in &queries {
        let cost = sharded
            .evaluate_with_planner(q, PlannerMode::CostBased)
            .unwrap();
        let bytes = sharded
            .evaluate_with_planner(q, PlannerMode::ByteLen)
            .unwrap();
        assert_eq!(cost.matches, bytes.matches);
        assert_eq!(cost.matches, ground_truth(corpus.trees(), q));
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A query whose cover keys exist only in a slice of the corpus must
/// skip the shards that cannot contain it.
#[test]
fn shard_skip_prunes_shards_missing_cover_keys() {
    let mut li = LabelInterner::new();
    let mut srcs: Vec<String> = Vec::new();
    // 30 filler trees, then 10 carrying a rare pattern, then 30 filler:
    // 4 shards of 17-18 trees put the rare key in the middle shards only.
    for i in 0..30 {
        srcs.push(format!("(S (NP (NN w{i})) (VP (VBZ v{i})))"));
    }
    for i in 0..10 {
        srcs.push(format!("(S (FRAG (NP (NN rare{i}))) (VP (VBZ is)))"));
    }
    for i in 30..60 {
        srcs.push(format!("(S (NP (NN w{i})) (VP (VBZ v{i})))"));
    }
    let trees: Vec<ParseTree> = srcs
        .iter()
        .map(|s| si_parsetree::ptb::parse(s, &mut li).unwrap())
        .collect();
    let dir = tmp_dir("skip");
    let sharded = ShardedIndex::build(
        &dir,
        &trees,
        &li,
        IndexOptions::new(2, Coding::RootSplit),
        ShardedBuildConfig {
            shards: 4,
            workers: 2,
            mode: ShardBuildMode::InMemory,
        },
    )
    .unwrap();
    let mut qi = li.clone();
    let q = parse_query("FRAG(NP(NN))", &mut qi).unwrap();
    let got = sharded.evaluate(&q).unwrap();
    assert_eq!(got.matches, ground_truth(&trees, &q));
    assert!(!got.matches.is_empty());
    assert!(
        got.stats.shards_skipped >= 2,
        "FRAG lives in the middle slice only; got {} skips of {} shards",
        got.stats.shards_skipped,
        got.stats.shards
    );
    // A query matching nowhere skips everything (missing key is exact
    // information regardless of planner mode).
    let nowhere = parse_query("FRAG(VP)", &mut qi).unwrap();
    let got = sharded.evaluate(&nowhere).unwrap();
    assert!(got.matches.is_empty());
    assert_eq!(got.stats.shards_skipped, got.stats.shards);
    std::fs::remove_dir_all(&dir).ok();
}

/// Ingest: build over a prefix, ingest the rest, and the result must
/// answer exactly like a monolith over the full corpus — without
/// touching a byte of the pre-existing shard files.
#[test]
fn ingest_then_query_matches_full_rebuild() {
    let corpus = GeneratorConfig::default().with_seed(0x1A57).generate(100);
    let trees = corpus.trees();
    let (old, new) = trees.split_at(70);
    for coding in Coding::ALL {
        let options = IndexOptions::new(3, coding);
        let dir = tmp_dir(&format!("ingest-{coding:?}").to_lowercase());
        let mut sharded = ShardedIndex::build(
            &dir,
            old,
            corpus.interner(),
            options,
            ShardedBuildConfig {
                shards: 2,
                workers: 2,
                mode: ShardBuildMode::InMemory,
            },
        )
        .unwrap();

        // Snapshot every pre-ingest shard file.
        let snapshot = |dir: &std::path::Path| -> Vec<(std::path::PathBuf, Vec<u8>)> {
            let mut files = Vec::new();
            let mut stack = vec![dir.to_path_buf()];
            while let Some(d) = stack.pop() {
                for e in std::fs::read_dir(&d).unwrap() {
                    let p = e.unwrap().path();
                    if p.is_dir() {
                        stack.push(p);
                    } else if !p.ends_with("MANIFEST.si") {
                        files.push((p.clone(), std::fs::read(&p).unwrap()));
                    }
                }
            }
            files.sort();
            files
        };
        let before = snapshot(&dir);

        let entry = sharded.ingest(new, corpus.interner()).unwrap();
        assert_eq!(entry.base as usize, old.len());
        assert_eq!(entry.len as usize, new.len());
        assert_eq!(sharded.num_trees() as usize, trees.len());
        // The ingested shard carries a stats segment like any built one.
        assert!(sharded.shards().last().unwrap().has_key_stats());

        // Every pre-existing file is byte-identical (only MANIFEST.si
        // changed, atomically).
        for (path, bytes) in &before {
            assert_eq!(
                &std::fs::read(path).unwrap(),
                bytes,
                "ingest touched {path:?}"
            );
        }

        // Query equivalence against a from-scratch monolith, both live
        // and after reopen.
        let mono_dir = tmp_dir(&format!("ingest-mono-{coding:?}").to_lowercase());
        let mono = SubtreeIndex::build(&mono_dir, trees, corpus.interner(), options).unwrap();
        let mut qi = sharded.interner();
        let queries: Vec<Query> = ["NP(DT)(NN)", "S(NP)(VP)", "VP(//NN)", "NN"]
            .iter()
            .map(|s| parse_query(s, &mut qi).unwrap())
            .collect();
        let reopened = ShardedIndex::open(&dir).unwrap();
        assert_eq!(reopened.shards().len(), 3);
        for q in &queries {
            let expect = mono.evaluate(q).unwrap().matches;
            assert_eq!(sharded.evaluate(q).unwrap().matches, expect, "{coding:?}");
            assert_eq!(
                reopened.evaluate(q).unwrap().matches,
                expect,
                "reopened {coding:?}"
            );
            assert_eq!(expect, ground_truth(trees, q));
        }
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&mono_dir).ok();
    }
}

/// Ingest can introduce previously unseen labels; queries over both old
/// and new vocabulary answer correctly through the extended interner.
#[test]
fn ingest_extends_the_interner() {
    let mut li = LabelInterner::new();
    let old: Vec<ParseTree> = ["(S (NP (NN dog)) (VP (VBZ barks)))"]
        .iter()
        .map(|s| si_parsetree::ptb::parse(s, &mut li).unwrap())
        .collect();
    let dir = tmp_dir("newlabels");
    let mut sharded = ShardedIndex::build(
        &dir,
        &old,
        &li,
        IndexOptions::new(2, Coding::RootSplit),
        ShardedBuildConfig {
            shards: 1,
            workers: 1,
            mode: ShardBuildMode::InMemory,
        },
    )
    .unwrap();
    // New corpus brings the unseen WHNP/WP labels.
    let mut extended = sharded.interner();
    let new: Vec<ParseTree> = ["(SBARQ (WHNP (WP who)) (SQ (VBZ barks)))"]
        .iter()
        .map(|s| si_parsetree::ptb::parse(s, &mut extended).unwrap())
        .collect();
    sharded.ingest(&new, &extended).unwrap();
    let mut qi = sharded.interner();
    let q_old = parse_query("NP(NN)", &mut qi).unwrap();
    let q_new = parse_query("WHNP(WP)", &mut qi).unwrap();
    assert_eq!(sharded.evaluate(&q_old).unwrap().matches, vec![(0, 1)]);
    assert_eq!(sharded.evaluate(&q_new).unwrap().matches, vec![(1, 1)]);
    // An interner that does not extend the index's is rejected.
    let fresh = LabelInterner::new();
    assert!(sharded.ingest(&new, &fresh).is_err());
    // Zero-tree ingest is rejected.
    assert!(sharded.ingest(&[], &extended).is_err());
    std::fs::remove_dir_all(&dir).ok();
}

/// `AnyIndex` opens both layouts and answers identically.
#[test]
fn any_index_opens_both_layouts() {
    let corpus = GeneratorConfig::default().with_seed(0xA11).generate(50);
    let mono_dir = tmp_dir("any-mono");
    let shard_dir = tmp_dir("any-shard");
    let options = IndexOptions::new(3, Coding::RootSplit);
    SubtreeIndex::build(&mono_dir, corpus.trees(), corpus.interner(), options).unwrap();
    ShardedIndex::build(
        &shard_dir,
        corpus.trees(),
        corpus.interner(),
        options,
        ShardedBuildConfig {
            shards: 2,
            workers: 2,
            mode: ShardBuildMode::InMemory,
        },
    )
    .unwrap();
    let mono = AnyIndex::open(&mono_dir).unwrap();
    let sharded = AnyIndex::open(&shard_dir).unwrap();
    assert!(matches!(mono, AnyIndex::Mono(_)));
    assert!(matches!(sharded, AnyIndex::Sharded(_)));
    assert_eq!(mono.num_shards(), 1);
    assert_eq!(sharded.num_shards(), 2);
    // Every production open reads `index.bt` through mmap, so the OS
    // page cache is the only page cache a query sees.
    #[cfg(unix)]
    {
        assert!(SubtreeIndex::open(&mono_dir).unwrap().is_mapped());
        let shards = ShardedIndex::open(&shard_dir).unwrap();
        assert!(shards.shards().iter().all(|s| s.is_mapped()));
        for any in [&mono, &sharded] {
            let mapped = match any {
                AnyIndex::Mono(ix) => ix.is_mapped(),
                AnyIndex::Sharded(sh) => sh.shards().iter().all(|s| s.is_mapped()),
            };
            assert!(mapped, "AnyIndex::open fell back to the buffered pager");
        }
    }
    let mut qi = mono.interner();
    let q = parse_query("S(NP)(VP)", &mut qi).unwrap();
    let ctx = si_core::ExecContext::default();
    let a = mono.evaluate_with(&q, &ctx).unwrap();
    let b = sharded.evaluate_with(&q, &ctx).unwrap();
    assert_eq!(a.matches, b.matches);
    // Matching trees are retrievable by global tid from both layouts.
    if let Some(&(tid, _)) = a.matches.first() {
        let ta = mono.tree(tid).unwrap();
        let tb = sharded.tree(tid).unwrap();
        assert_eq!(ta.len(), tb.len());
    }
    std::fs::remove_dir_all(&mono_dir).ok();
    std::fs::remove_dir_all(&shard_dir).ok();
}
