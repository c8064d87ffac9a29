//! Seeded PCFG treebank generator over the Penn Treebank tag set.
//!
//! Substitute for the paper's dataset (AQUAINT news parsed with the
//! Stanford parser). The grammar is hand-tuned so the
//! generated corpora reproduce the structural statistics §4.1 reports:
//!
//! * average internal branching factor ≈ 1.5 (many unary chains);
//! * nodes with branching factor > 10 are very rare;
//! * tree sizes cluster around 25–90 nodes (≈ 8–25-word sentences);
//! * a finite grammar ⇒ near-linear growth of unique subtrees (Fig. 2);
//! * Zipf-distributed lexical leaves ⇒ realistic H/M/L label classes for
//!   the FB query workload.
//!
//! Generation is fully deterministic from the seed.

use crate::rng::StdRng;

use si_parsetree::{Label, LabelInterner, ParseTree, TreeBuilder};

/// A compiled grammar symbol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sym {
    /// Nonterminal: index into `Pcfg::rules`.
    Nt(usize),
    /// Preterminal POS tag: index into `Pcfg::lexicons`.
    Pos(usize),
}

#[derive(Debug, Clone)]
struct Rule {
    rhs: Vec<Sym>,
    weight: f64,
}

/// Vocabulary of one POS tag: either a closed word list or an open,
/// Zipf-distributed synthetic vocabulary.
#[derive(Debug, Clone)]
struct Lexicon {
    tag: String,
    words: Vec<String>,
    /// Cumulative probability over `words`; same length as `words`.
    cum: Vec<f64>,
}

impl Lexicon {
    fn closed(tag: &str, words: &[&str]) -> Self {
        // Closed-class words are themselves Zipf-ish: earlier = more common.
        Self::from_words(tag, words.iter().map(|w| (*w).to_owned()).collect())
    }

    fn open(tag: &str, prefix: &str, size: usize) -> Self {
        let words = (0..size).map(|i| format!("{prefix}{i}")).collect();
        Self::from_words(tag, words)
    }

    fn from_words(tag: &str, words: Vec<String>) -> Self {
        // Zipf with exponent 1.1 over rank, matching natural-language
        // word-frequency curves closely enough for selectivity classes.
        let mut cum = Vec::with_capacity(words.len());
        let mut total = 0.0;
        for rank in 1..=words.len() {
            total += 1.0 / (rank as f64).powf(1.1);
            cum.push(total);
        }
        for c in &mut cum {
            *c /= total;
        }
        Self {
            tag: tag.to_owned(),
            words,
            cum,
        }
    }

    fn sample(&self, rng: &mut StdRng) -> &str {
        let u: f64 = rng.gen();
        let i = self
            .cum
            .partition_point(|&c| c < u)
            .min(self.words.len() - 1);
        &self.words[i]
    }
}

/// A compiled probabilistic context-free grammar.
struct Pcfg {
    nt_names: Vec<String>,
    /// Rules per nonterminal, with cumulative weights for sampling.
    rules: Vec<Vec<Rule>>,
    cum: Vec<Vec<f64>>,
    /// Per nonterminal, the rule reaching leaves fastest (for the depth cap).
    min_rule: Vec<usize>,
    lexicons: Vec<Lexicon>,
    start: usize,
}

impl Pcfg {
    /// The default "English news" grammar; see module docs.
    fn english_news() -> Self {
        // (lhs, rhs, weight). Symbols that name a lexicon are POS tags.
        const RULES: &[(&str, &[&str], f64)] = &[
            ("S", &["NP", "VP"], 48.0),
            ("S", &["NP", "VP", "."], 14.0),
            ("S", &["ADVP", ",", "NP", "VP"], 6.0),
            ("S", &["PP", ",", "NP", "VP"], 7.0),
            ("S", &["SBAR", ",", "NP", "VP"], 4.0),
            ("S", &["S", "CC", "S"], 3.5),
            ("S", &["VP"], 5.0),
            ("S", &["NP", "ADVP", "VP"], 4.0),
            ("S", &["NP", "VP", ",", "SBAR"], 3.0),
            ("NP", &["DT", "NN"], 16.0),
            ("NP", &["DT", "JJ", "NN"], 9.0),
            ("NP", &["NN"], 8.0),
            ("NP", &["NNS"], 6.5),
            ("NP", &["NNP"], 7.5),
            ("NP", &["NNP", "NNP"], 4.0),
            ("NP", &["DT", "NNS"], 4.5),
            ("NP", &["PRP"], 6.0),
            ("NP", &["NP", "PP"], 11.0),
            ("NP", &["JJ", "NNS"], 4.0),
            ("NP", &["DT", "JJ", "JJ", "NN"], 2.0),
            ("NP", &["NP", "SBAR"], 3.0),
            ("NP", &["NP", "CC", "NP"], 2.5),
            ("NP", &["CD", "NNS"], 2.5),
            ("NP", &["DT", "NN", "NN"], 4.0),
            ("NP", &["NP", ",", "NP", ","], 1.5),
            ("NP", &["QP", "NNS"], 1.0),
            // A rare long coordination: the source of high-branching nodes.
            (
                "NP",
                &["NP", ",", "NP", ",", "NP", ",", "NP", "CC", "NP"],
                0.2,
            ),
            ("VP", &["VBZ", "NP"], 12.0),
            ("VP", &["VBD", "NP"], 10.0),
            ("VP", &["VBZ"], 3.5),
            ("VP", &["VBD"], 3.0),
            ("VP", &["MD", "VP"], 4.0),
            ("VP", &["VB", "NP"], 4.0),
            ("VP", &["VBZ", "PP"], 5.5),
            ("VP", &["VBD", "PP"], 5.0),
            ("VP", &["VBP", "NP"], 4.5),
            ("VP", &["VBZ", "NP", "PP"], 5.5),
            ("VP", &["VBD", "NP", "PP"], 5.0),
            ("VP", &["VBZ", "SBAR"], 4.0),
            ("VP", &["VBD", "SBAR"], 3.5),
            ("VP", &["VBG", "NP"], 3.0),
            ("VP", &["VBN", "PP"], 3.0),
            ("VP", &["VP", "CC", "VP"], 2.0),
            ("VP", &["VBZ", "ADJP"], 3.5),
            ("VP", &["VBD", "ADJP"], 3.0),
            ("VP", &["TO", "VP"], 2.5),
            ("VP", &["VBZ", "NP", "SBAR"], 1.5),
            ("PP", &["IN", "NP"], 90.0),
            ("PP", &["TO", "NP"], 8.0),
            ("PP", &["IN", "S"], 2.0),
            ("SBAR", &["IN", "S"], 45.0),
            ("SBAR", &["WHNP", "S"], 30.0),
            ("SBAR", &["WHADVP", "S"], 15.0),
            ("SBAR", &["S"], 10.0),
            ("ADJP", &["JJ"], 55.0),
            ("ADJP", &["RB", "JJ"], 25.0),
            ("ADJP", &["JJ", "PP"], 15.0),
            ("ADJP", &["JJ", "CC", "JJ"], 5.0),
            ("ADVP", &["RB"], 80.0),
            ("ADVP", &["RB", "RB"], 12.0),
            ("ADVP", &["RB", "PP"], 8.0),
            ("WHNP", &["WP"], 50.0),
            ("WHNP", &["WDT"], 25.0),
            ("WHNP", &["WDT", "NN"], 25.0),
            ("WHADVP", &["WRB"], 100.0),
            ("QP", &["RB", "CD"], 40.0),
            ("QP", &["CD", "CD"], 30.0),
            ("QP", &["IN", "CD"], 30.0),
        ];

        let lexicons = vec![
            Lexicon::open("NN", "noun", 4000),
            Lexicon::open("NNS", "nouns", 2500),
            Lexicon::open("NNP", "name", 3000),
            Lexicon::open("JJ", "adj", 1800),
            Lexicon::open("VB", "verb", 900),
            Lexicon::open("VBZ", "verbz", 700),
            Lexicon::open("VBD", "verbd", 800),
            Lexicon::open("VBP", "verbp", 500),
            Lexicon::open("VBG", "verbg", 500),
            Lexicon::open("VBN", "verbn", 550),
            Lexicon::open("RB", "adv", 600),
            Lexicon::open("CD", "num", 900),
            Lexicon::closed(
                "DT",
                &[
                    "the", "a", "an", "this", "that", "these", "those", "some", "no", "every",
                ],
            ),
            Lexicon::closed(
                "IN",
                &[
                    "of", "in", "for", "on", "with", "at", "by", "from", "as", "about", "after",
                    "because", "while", "if", "though", "since", "before", "against", "during",
                    "under",
                ],
            ),
            Lexicon::closed("TO", &["to"]),
            Lexicon::closed("CC", &["and", "or", "but", "nor", "yet"]),
            Lexicon::closed(
                "PRP",
                &[
                    "it", "he", "they", "she", "we", "i", "you", "them", "him", "her",
                ],
            ),
            Lexicon::closed(
                "MD",
                &["will", "would", "can", "could", "may", "should", "must"],
            ),
            Lexicon::closed("WP", &["who", "what", "whom"]),
            Lexicon::closed("WDT", &["which", "that"]),
            Lexicon::closed("WRB", &["where", "when", "why", "how"]),
            Lexicon::closed(",", &[","]),
            Lexicon::closed(".", &["."]),
        ];

        let mut nt_names: Vec<String> = Vec::new();
        for (lhs, _, _) in RULES {
            if !nt_names.iter().any(|n| n == lhs) {
                nt_names.push((*lhs).to_owned());
            }
        }
        let nt_index = |name: &str, nts: &[String]| nts.iter().position(|n| n == name);
        let pos_index = |name: &str| lexicons.iter().position(|l| l.tag == name);

        let mut rules: Vec<Vec<Rule>> = vec![Vec::new(); nt_names.len()];
        for (lhs, rhs, weight) in RULES {
            let lhs_idx = nt_index(lhs, &nt_names).expect("lhs is a nonterminal");
            let rhs: Vec<Sym> = rhs
                .iter()
                .map(|s| {
                    if let Some(i) = nt_index(s, &nt_names) {
                        Sym::Nt(i)
                    } else if let Some(i) = pos_index(s) {
                        Sym::Pos(i)
                    } else {
                        panic!("unknown grammar symbol {s}")
                    }
                })
                .collect();
            rules[lhs_idx].push(Rule {
                rhs,
                weight: *weight,
            });
        }

        let cum: Vec<Vec<f64>> = rules
            .iter()
            .map(|rs| {
                let total: f64 = rs.iter().map(|r| r.weight).sum();
                let mut acc = 0.0;
                rs.iter()
                    .map(|r| {
                        acc += r.weight / total;
                        acc
                    })
                    .collect()
            })
            .collect();

        // The "smallest" rule per NT: fewest nonterminals, then fewest
        // symbols; used when the depth cap forces termination. The chosen
        // rule must not be (mutually) recursive, which holds for this
        // grammar: every NT has a rule with zero NT symbols except S/SBAR,
        // whose minimal rules only reach NTs with zero-NT minimal rules.
        let min_rule: Vec<usize> = rules
            .iter()
            .map(|rs| {
                let mut best = 0;
                let score = |r: &Rule| {
                    let nts = r.rhs.iter().filter(|s| matches!(s, Sym::Nt(_))).count();
                    (nts, r.rhs.len())
                };
                for (i, r) in rs.iter().enumerate() {
                    if score(r) < score(&rs[best]) {
                        best = i;
                    }
                }
                best
            })
            .collect();

        Pcfg {
            start: nt_index("S", &nt_names).unwrap(),
            nt_names,
            rules,
            cum,
            min_rule,
            lexicons,
        }
    }

    fn sample_rule(&self, nt: usize, depth: usize, max_depth: usize, rng: &mut StdRng) -> &Rule {
        if depth >= max_depth {
            return &self.rules[nt][self.min_rule[nt]];
        }
        let u: f64 = rng.gen();
        let i = self.cum[nt]
            .partition_point(|&c| c < u)
            .min(self.rules[nt].len() - 1);
        &self.rules[nt][i]
    }
}

/// Configuration for the synthetic treebank generator.
#[derive(Debug, Clone)]
pub struct GeneratorConfig {
    /// RNG seed; corpora are fully deterministic given the seed.
    pub seed: u64,
    /// Depth at which expansion is forced towards leaves. The default (11)
    /// keeps trees in the 20–100 node band like news-wire parses.
    pub max_depth: usize,
    /// Whether POS tags expand to lexical word leaves. The paper indexes
    /// words (queries like `NNS(agouti)` need them); structure-only
    /// corpora are useful for decomposition experiments.
    pub with_words: bool,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        Self {
            seed: 0xC0FFEE,
            max_depth: 11,
            with_words: true,
        }
    }
}

impl GeneratorConfig {
    /// Replaces the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Generates `n` sentences into a fresh [`Corpus`].
    pub fn generate(&self, n: usize) -> Corpus {
        let mut interner = LabelInterner::new();
        let trees = self.generate_into(n, &mut interner);
        Corpus { trees, interner }
    }

    /// Generates `n` sentences, interning labels into an existing
    /// interner (used to share label ids between an indexed corpus and a
    /// held-out query corpus).
    pub fn generate_into(&self, n: usize, interner: &mut LabelInterner) -> Vec<ParseTree> {
        let pcfg = Pcfg::english_news();
        let mut rng = StdRng::seed_from_u64(self.seed);
        // Pre-intern tags so label ids are stable regardless of word order.
        let nt_labels: Vec<Label> = pcfg.nt_names.iter().map(|s| interner.intern(s)).collect();
        let pos_labels: Vec<Label> = pcfg
            .lexicons
            .iter()
            .map(|l| interner.intern(&l.tag))
            .collect();
        let mut trees = Vec::with_capacity(n);
        for _ in 0..n {
            let mut b = TreeBuilder::new();
            self.expand(
                &pcfg,
                pcfg.start,
                0,
                &mut rng,
                &mut b,
                &nt_labels,
                &pos_labels,
                interner,
            );
            trees.push(b.finish().expect("generator emits balanced trees"));
        }
        trees
    }

    #[allow(clippy::too_many_arguments)]
    fn expand(
        &self,
        pcfg: &Pcfg,
        nt: usize,
        depth: usize,
        rng: &mut StdRng,
        b: &mut TreeBuilder,
        nt_labels: &[Label],
        pos_labels: &[Label],
        interner: &mut LabelInterner,
    ) {
        b.open(nt_labels[nt]);
        // Sampling happens before recursion so the expansion order is
        // deterministic in document order.
        let rule = pcfg.sample_rule(nt, depth, self.max_depth, rng).clone();
        for sym in &rule.rhs {
            match *sym {
                Sym::Nt(child) => self.expand(
                    pcfg,
                    child,
                    depth + 1,
                    rng,
                    b,
                    nt_labels,
                    pos_labels,
                    interner,
                ),
                Sym::Pos(pos) => {
                    b.open(pos_labels[pos]);
                    if self.with_words {
                        let word = pcfg.lexicons[pos].sample(rng).to_owned();
                        b.leaf(interner.intern(&word));
                    }
                    b.close();
                }
            }
        }
        b.close();
    }
}

/// An in-memory corpus: parse trees plus their shared label interner.
#[derive(Debug, Clone)]
pub struct Corpus {
    trees: Vec<ParseTree>,
    interner: LabelInterner,
}

impl Corpus {
    /// Wraps pre-built trees (e.g. imported from PTB files).
    pub fn from_trees(trees: Vec<ParseTree>, interner: LabelInterner) -> Self {
        Self { trees, interner }
    }

    /// The trees, indexable by `TreeId as usize`.
    pub fn trees(&self) -> &[ParseTree] {
        &self.trees
    }

    /// The shared label interner.
    pub fn interner(&self) -> &LabelInterner {
        &self.interner
    }

    /// Mutable interner access (parsing queries against this corpus
    /// interns their labels here).
    pub fn interner_mut(&mut self) -> &mut LabelInterner {
        &mut self.interner
    }

    /// Number of sentences.
    pub fn len(&self) -> usize {
        self.trees.len()
    }

    /// Whether the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.trees.is_empty()
    }

    /// Occurrence count per label across all trees, indexed by label id.
    pub fn label_frequencies(&self) -> Vec<u64> {
        let mut freq = vec![0u64; self.interner.len()];
        for t in &self.trees {
            for n in t.nodes() {
                freq[t.label(n).id() as usize] += 1;
            }
        }
        freq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let a = GeneratorConfig::default().with_seed(7).generate(50);
        let b = GeneratorConfig::default().with_seed(7).generate(50);
        assert_eq!(a.trees(), b.trees());
        let c = GeneratorConfig::default().with_seed(8).generate(50);
        assert_ne!(a.trees(), c.trees());
    }

    #[test]
    fn trees_are_valid_and_rooted_at_s() {
        let corpus = GeneratorConfig::default().generate(200);
        for t in corpus.trees() {
            assert_eq!(t.validate(), Ok(()));
            assert_eq!(corpus.interner().resolve(t.label(t.root())), "S");
        }
    }

    #[test]
    fn structural_statistics_match_paper() {
        let corpus = GeneratorConfig::default().with_seed(42).generate(2000);
        let mut total_nodes = 0usize;
        let mut internal = 0usize;
        let mut children = 0usize;
        let mut max_branching = 0usize;
        let mut over_10 = 0usize;
        for t in corpus.trees() {
            total_nodes += t.len();
            for n in t.nodes() {
                let b = t.branching(n);
                if b > 0 {
                    internal += 1;
                    children += b;
                    max_branching = max_branching.max(b);
                    if b > 10 {
                        over_10 += 1;
                    }
                }
            }
        }
        let avg_size = total_nodes as f64 / corpus.len() as f64;
        let avg_branching = children as f64 / internal as f64;
        assert!(
            (20.0..=110.0).contains(&avg_size),
            "avg tree size {avg_size}"
        );
        assert!(
            (1.2..=2.2).contains(&avg_branching),
            "avg internal branching {avg_branching} (paper: 1.52)"
        );
        // High-branching nodes must be possible but very rare (§4.1).
        assert!(
            (over_10 as f64) < internal as f64 * 0.001,
            "{over_10} of {internal} internal nodes exceed branching 10"
        );
    }

    #[test]
    fn words_are_zipf_distributed() {
        let corpus = GeneratorConfig::default().with_seed(3).generate(1000);
        let freq = corpus.label_frequencies();
        // `the` should be among the most frequent leaf labels.
        let the = corpus.interner().get("the").expect("'the' appears");
        let noun0 = corpus.interner().get("noun0");
        assert!(noun0.is_some(), "most common noun appears");
        assert!(freq[the.id() as usize] > 200, "'the' is high frequency");
        // Some nouns appear once or never: a long tail exists.
        let rare = (0..corpus.interner().len())
            .filter(|&i| freq[i] == 1)
            .count();
        assert!(rare > 50, "expected a long tail, got {rare} singletons");
    }

    #[test]
    fn structure_only_mode_has_no_word_leaves() {
        let config = GeneratorConfig {
            with_words: false,
            ..GeneratorConfig::default()
        };
        let corpus = config.generate(50);
        for t in corpus.trees() {
            for n in t.nodes() {
                if t.is_leaf(n) {
                    let name = corpus.interner().resolve(t.label(n));
                    assert!(
                        name.chars().next().unwrap().is_ascii_uppercase()
                            || name == ","
                            || name == ".",
                        "leaf {name} should be a POS tag"
                    );
                }
            }
        }
    }

    #[test]
    fn shared_interner_keeps_ids_stable() {
        let mut interner = LabelInterner::new();
        let config = GeneratorConfig::default();
        let a = config.generate_into(10, &mut interner);
        let b = GeneratorConfig::default()
            .with_seed(99)
            .generate_into(10, &mut interner);
        // Tags interned once: the S label of both corpora is the same id.
        assert_eq!(a[0].label(a[0].root()), b[0].label(b[0].root()));
    }
}

#[cfg(test)]
mod ptb_round_trip_tests {
    use super::*;
    use si_parsetree::ptb;

    #[test]
    fn generated_corpus_survives_ptb_export_import() {
        // The full pipeline a real user follows: generate -> write PTB
        // text -> re-parse -> identical structure and labels.
        let corpus = GeneratorConfig::default().with_seed(33).generate(40);
        let text: String = corpus
            .trees()
            .iter()
            .map(|t| ptb::write(t, corpus.interner()) + "\n")
            .collect();
        let mut li2 = LabelInterner::new();
        let back = ptb::parse_corpus(&text, &mut li2).unwrap();
        assert_eq!(back.len(), corpus.len());
        for (a, b) in corpus.trees().iter().zip(&back) {
            assert_eq!(a.len(), b.len());
            for n in a.nodes() {
                assert_eq!(
                    corpus.interner().resolve(a.label(n)),
                    li2.resolve(b.label(n)),
                    "label at node {}",
                    n.0
                );
                assert_eq!(a.parent(n), b.parent(n));
            }
        }
    }
}
