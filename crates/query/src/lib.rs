//! Tree queries over syntactically annotated trees.
//!
//! Implements Definitions 2 and 3 of the paper: a query is an unordered
//! labelled tree whose edges carry a navigational axis — parent-child
//! (`/`) or ancestor-descendant (`//`) — and a query *matches* at a data
//! node when an embedding exists that preserves labels and axis
//! relationships.
//!
//! Three pieces live here:
//!
//! * [`Query`] — the query tree model ([`model`]);
//! * [`parse_query`] — a textual syntax, e.g. `S(NP(NNS))(VP(//NN))`
//!   ([`parser`]);
//! * [`matcher`] — the in-memory matcher used as ground truth, as the
//!   *filtering phase* of filter-based coding (§4.4.1) and as the
//!   post-validation step of the baseline systems.
//!
//! # Match semantics
//!
//! The embedding maps `/`-children of the same query node to pairwise
//! distinct data nodes (an occurrence of an index key is a real subtree,
//! whose sibling branches are distinct nodes); `//`-children are
//! unconstrained. This is exactly the semantics the Subtree Index's join
//! phase produces, so all engines agree.

pub mod matcher;
pub mod model;
pub mod parser;

pub use matcher::{count_matches, match_roots, matches_at};
pub use model::{Axis, QNodeId, Query, QueryBuilder};
pub use parser::{parse_query, write_query, QueryParseError, MAX_QUERY_DEPTH};
