//! Synthetic treebank generation and query-set construction.
//!
//! Substitutes for the paper's data pipeline (AQUAINT English news parsed
//! with the Stanford parser): a seeded PCFG over the
//! Penn Treebank tag set produces corpora whose structural statistics
//! match what §4.1 of the paper reports, and the two query workloads of
//! §6.1 (the WH query-set and the FB query-set) are constructed by the
//! same procedures the authors describe.

pub mod generator;
pub mod queryset;
pub mod rng;
pub mod stats;

pub use generator::{Corpus, GeneratorConfig};
pub use queryset::{fb_query_set, wh_query_set, FbClass, FbQuery, WhGroup, WhQuery};
pub use stats::CorpusStats;
