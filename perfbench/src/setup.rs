//! Inputs and the answer key: the seeded corpus, the query pool, and a
//! reference match set per distinct query.

use std::path::Path;
use std::time::Instant;

use si_core::{Coding, ExecContext, ExecMode, IndexOptions, SubtreeIndex};
use si_corpus::rng::StdRng;
use si_corpus::{fb_query_set, wh_query_set, Corpus, GeneratorConfig};
use si_parsetree::{ptb, LabelInterner, NodeId, ParseTree, TreeId};
use si_query::{match_roots, parse_query, write_query, Query};

/// Every workload indexes with the paper's headline coding at mss 3.
pub const OPTIONS: IndexOptions = IndexOptions {
    mss: 3,
    coding: Coding::RootSplit,
};

/// Sentences of the held-out corpus the FB queries are extracted from.
const HELDOUT_TREES: usize = 200;
/// Seed of the corpus the FB queries are drawn against: its label
/// frequencies set the selectivity bands, and its interner the held-out
/// trees' labels. It is fixed, so every run asks the same query text, as
/// the paper's fixed query sets do; the run's seed varies the indexed
/// corpus, the query order, the Zipf stream and the ingest order. Drawn
/// per seed, a few heavy extractions (single frequent labels) differed
/// from seed to seed and moved the workloads' cost and tail latency by
/// 15-40% between seeds.
const QUERY_SEED: u64 = 7;

/// Sorted `(tid, pre)` match pairs, as `EvalResult::matches` holds them.
pub type Matches = Vec<(TreeId, u32)>;

/// The generated corpus and the benchmark's view of it.
pub struct Inputs {
    /// `None` once a workload that no longer needs the parsed trees has
    /// released them.
    corpus: Option<Corpus>,
    /// PTB text bytes of each tree (with its newline), by tid.
    tree_bytes: Vec<u64>,
    /// Distinct query texts in seeded shuffled order.
    pub pool: Vec<String>,
}

impl Inputs {
    /// Generates `trees` sentences from `seed`, and the WH + FB pool in
    /// an order drawn from `seed`.
    pub fn generate(seed: u64, trees: usize) -> Self {
        let corpus = GeneratorConfig::default().with_seed(seed).generate(trees);
        let tree_bytes = corpus
            .trees()
            .iter()
            .map(|t| ptb::write(t, corpus.interner()).len() as u64 + 1)
            .collect();
        let bands = GeneratorConfig::default()
            .with_seed(QUERY_SEED)
            .generate(trees);
        // Held-out labels absent from that corpus extend a copy of its
        // interner, the way held-out text would.
        let mut interner = bands.interner().clone();
        let mut texts: Vec<String> = wh_query_set(&mut interner)
            .into_iter()
            .map(|q| q.text)
            .collect();
        let heldout = GeneratorConfig::default()
            .with_seed(QUERY_SEED.wrapping_add(1))
            .generate_into(HELDOUT_TREES, &mut interner);
        texts.extend(
            fb_query_set(&bands, &heldout, QUERY_SEED.wrapping_add(2))
                .iter()
                .map(|q| write_query(&q.query, &interner)),
        );
        drop(bands);
        let mut seen = std::collections::HashSet::new();
        texts.retain(|t| seen.insert(t.clone()));
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5045_5246);
        shuffle(&mut texts, &mut rng);
        Self {
            corpus: Some(corpus),
            tree_bytes,
            pool: texts,
        }
    }

    pub fn trees(&self) -> &[ParseTree] {
        self.corpus().trees()
    }

    pub fn interner(&self) -> &LabelInterner {
        self.corpus().interner()
    }

    fn corpus(&self) -> &Corpus {
        self.corpus
            .as_ref()
            .expect("the parsed trees were released")
    }

    /// Trees generated, also after they are released.
    pub fn tree_count(&self) -> usize {
        self.tree_bytes.len()
    }

    /// Frees the parsed trees, so they do not count toward the memory
    /// of a pass that only sends query text.
    pub fn release_trees(&mut self) {
        self.corpus = None;
    }

    /// PTB bytes of the first `n` trees.
    pub fn input_bytes(&self, n: usize) -> u64 {
        self.tree_bytes[..n].iter().sum()
    }
}

/// Fisher–Yates shuffle driven by the benchmark's seeded generator.
pub fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        items.swap(i, j);
    }
}

/// Reference answers, one per pool entry, from the materializing
/// evaluator (no caches) on a monolithic index over the full corpus.
pub struct Reference {
    pub answers: Vec<Matches>,
    /// Pool entries also checked against the index-free matcher.
    pub matcher_checked: usize,
}

impl Reference {
    /// Evaluates every pool query on `index` with
    /// `ExecMode::Materialized`, then checks a seeded sample of them
    /// against `si_query::matcher` run directly over the trees.
    pub fn compute(
        index: &mut SubtreeIndex,
        inputs: &Inputs,
        seed: u64,
        matcher_sample: usize,
    ) -> Result<Self, String> {
        let started = Instant::now();
        let mode = index.exec_mode();
        index.set_exec_mode(ExecMode::Materialized);
        let mut interner = index.interner();
        let mut answers = Vec::with_capacity(inputs.pool.len());
        for text in &inputs.pool {
            let q = parse_query(text, &mut interner).map_err(|e| format!("{text}: {e}"))?;
            let result = index
                .evaluate_with(&q, &ExecContext::default())
                .map_err(|e| format!("reference {text}: {e}"))?;
            answers.push(result.matches);
        }
        index.set_exec_mode(mode);
        eprintln!(
            "reference answers computed in {:.2} s",
            started.elapsed().as_secs_f64()
        );

        let mut rng = StdRng::seed_from_u64(seed ^ 0x4d41_5443);
        let mut picks: Vec<usize> = (0..inputs.pool.len()).collect();
        shuffle(&mut picks, &mut rng);
        picks.truncate(matcher_sample);
        let mut interner = inputs.interner().clone();
        for &i in &picks {
            let q = parse_query(&inputs.pool[i], &mut interner).map_err(|e| e.to_string())?;
            let scanned = matcher_answer(inputs.trees(), &q);
            if scanned != answers[i] {
                return Err(format!(
                    "reference answer of {:?} disagrees with the matcher: {} vs {} matches",
                    inputs.pool[i],
                    answers[i].len(),
                    scanned.len()
                ));
            }
        }
        eprintln!(
            "matcher check done after {:.2} s",
            started.elapsed().as_secs_f64()
        );
        Ok(Self {
            answers,
            matcher_checked: picks.len(),
        })
    }

    /// Drops the first match (the lowest tid, so every prefix that
    /// holds a match changes too) from the reference answer of the first
    /// query in `order` that has one, so a run that asks its queries in
    /// that order must report a failure.
    pub fn corrupt(&mut self, order: &[usize]) {
        if let Some(&i) = order.iter().find(|&&i| !self.answers[i].is_empty()) {
            self.answers[i].remove(0);
        }
    }
}

/// Index-free answer: every `(tid, root pre)` the matcher finds.
fn matcher_answer(trees: &[ParseTree], q: &Query) -> Matches {
    let mut out = Vec::new();
    for (tid, tree) in trees.iter().enumerate() {
        out.extend(
            match_roots(tree, q)
                .into_iter()
                .map(|NodeId(pre)| (tid as TreeId, pre)),
        );
    }
    out.sort_unstable();
    out
}

/// The matches of `answer` among the first `trees` tids: the correct
/// answer of an index over that prefix of the corpus.
pub fn prefix(answer: &[(TreeId, u32)], trees: usize) -> &[(TreeId, u32)] {
    &answer[..answer.partition_point(|&(tid, _)| (tid as usize) < trees)]
}

/// Copies the directory tree `from` to the new directory `to`.
pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), &target)?;
        }
    }
    Ok(())
}

/// Total bytes of regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let mut total = 0;
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let path = entry.path();
            match entry.metadata() {
                Ok(m) if m.is_dir() => total += dir_bytes(&path),
                Ok(m) => total += m.len(),
                Err(_) => {}
            }
        }
    }
    total
}

/// Seconds a closure takes, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}
