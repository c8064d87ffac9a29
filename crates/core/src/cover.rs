//! Query decomposition (§5): covers, `assign`, `optimalCover`, `minRC`.
//!
//! A query is evaluated by covering it with subtrees of at most `mss`
//! nodes, fetching each subtree's posting list and joining (§4.3). The
//! paper's algorithms:
//!
//! * [`assign`](self) — packs a node's small branches into subtrees of
//!   exactly `mss` nodes rooted at that node, first-fit-decreasing
//!   (optimal for `mss ≤ 6`, Lemma 3 via integer bin packing);
//! * [`optimal_cover`] — a join-optimal max-cover (Theorem 1), used by
//!   the filter-based and subtree-interval codings;
//! * [`minrc`] — the smallest *root-split* cover (Theorem 2): bins are
//!   completed bottom-up so every internal node is assigned before its
//!   ancestors, avoiding the deep branching anomaly (Definition 10), and
//!   all join predicates touch only cover roots.
//!
//! `//` edges can never sit inside an index key, so the query is first
//! split into `/`-connected components; each component is decomposed
//! independently and `//` edges become structural join predicates
//! between components (ARCHITECTURE.md, *Query path*). For root-split
//! coding, every node with an outgoing `//` edge must expose its
//! structural info, i.e. be the root of some cover subtree;
//! [`decompose`] patches the cover with an extra bin when needed.

use si_query::{Axis, QNodeId, Query};

use crate::canonical::canon_encode;
use crate::coding::Coding;

/// One cover subtree: a connected, all-`/` subtree of the query with at
/// most `mss` nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoverSubtree {
    /// The query node this subtree is rooted at.
    pub root: QNodeId,
    /// Member query nodes in canonical key order (`nodes[0] == root`).
    pub nodes: Vec<QNodeId>,
    /// Canonical key bytes (the B+Tree lookup key).
    pub key: Vec<u8>,
}

impl CoverSubtree {
    /// Number of query nodes covered.
    pub fn size(&self) -> usize {
        self.nodes.len()
    }

    /// Whether `q` is a member.
    pub fn contains(&self, q: QNodeId) -> bool {
        self.nodes.contains(&q)
    }
}

/// A (valid) cover of a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cover {
    /// The cover subtrees, in construction order.
    pub subtrees: Vec<CoverSubtree>,
}

impl Cover {
    /// Number of joins a left-deep plan over this cover performs
    /// (Table 3's metric).
    pub fn num_joins(&self) -> usize {
        self.subtrees.len().saturating_sub(1)
    }

    /// Checks cover validity (Definitions 5–7): every query node is
    /// covered, every subtree is a connected all-`/` subtree of the
    /// query rooted at its `root`, and no subtree exceeds `mss`.
    pub fn validate(&self, query: &Query, mss: usize) -> Result<(), String> {
        let mut covered = vec![false; query.len()];
        for (i, st) in self.subtrees.iter().enumerate() {
            if st.nodes.is_empty() || st.nodes[0] != st.root {
                return Err(format!("subtree {i}: root not first"));
            }
            if st.size() > mss {
                return Err(format!("subtree {i}: size {} > mss {mss}", st.size()));
            }
            for &n in &st.nodes {
                covered[n.index_usize()] = true;
                if n != st.root {
                    let p = query
                        .parent(n)
                        .ok_or_else(|| format!("subtree {i}: non-root member without parent"))?;
                    if !st.contains(p) {
                        return Err(format!("subtree {i}: member {} disconnected", n.0));
                    }
                    if query.axis(n) != Axis::Child {
                        return Err(format!("subtree {i}: member {} via // edge", n.0));
                    }
                }
            }
            let mut dedup = st.nodes.clone();
            dedup.sort_unstable();
            dedup.dedup();
            if dedup.len() != st.nodes.len() {
                return Err(format!("subtree {i}: duplicate members"));
            }
        }
        if let Some(miss) = covered.iter().position(|&c| !c) {
            return Err(format!("query node {miss} uncovered"));
        }
        Ok(())
    }
}

trait QNodeIdExt {
    fn index_usize(&self) -> usize;
}

impl QNodeIdExt for QNodeId {
    fn index_usize(&self) -> usize {
        self.0 as usize
    }
}

/// Computes the cover for `query` under `coding`:
/// [`minrc`] for root-split, [`optimal_cover`] otherwise.
pub fn decompose(query: &Query, mss: usize, coding: Coding) -> Cover {
    match coding {
        Coding::RootSplit => minrc(query, mss),
        Coding::FilterBased | Coding::SubtreeInterval => optimal_cover(query, mss),
    }
}

/// The join-optimal cover of Figure 6 (`optimalCover`), generalized to
/// queries with `//` edges by per-component decomposition.
pub fn optimal_cover(query: &Query, mss: usize) -> Cover {
    let mut d = Decomposer::new(query, mss);
    for root in component_roots(query) {
        d.optimal_cover(root, true);
    }
    d.into_cover()
}

/// The smallest root-split cover of Figure 7 (`minRC`), plus the patch
/// bins that make `//` edges evaluable over roots (ARCHITECTURE.md,
/// *Query path*).
pub fn minrc(query: &Query, mss: usize) -> Cover {
    let mut d = Decomposer::new(query, mss);
    let roots = component_roots(query);
    for &root in &roots {
        d.minrc(root);
    }
    // Root-split evaluability patch: every node with a `//`-child must be
    // the root of some cover subtree.
    let descendant_parents: Vec<QNodeId> = query
        .nodes()
        .skip(1)
        .filter(|&n| query.axis(n) == Axis::Descendant)
        .map(|n| query.parent(n).expect("non-root"))
        .collect();
    for u in descendant_parents {
        if !d.covers.iter().any(|(root, _)| *root == u) {
            d.patch_bin(u);
        }
    }
    // Sibling-distinctness patch: same-label `/`-siblings must map to
    // distinct data nodes. When a clash group does not co-reside in one
    // cover subtree, expose every member as a cover root so the join
    // phase can add root-level `!=` predicates instead of falling back
    // to whole-tree post-validation (ARCHITECTURE.md, *Query path*).
    for p in query.nodes() {
        let kids: Vec<QNodeId> = query.children_via(p, Axis::Child).collect();
        for (i, &u) in kids.iter().enumerate() {
            for &v in &kids[i + 1..] {
                if query.label(u) != query.label(v) {
                    continue;
                }
                if d.covers
                    .iter()
                    .any(|(_, nodes)| nodes.contains(&u) && nodes.contains(&v))
                {
                    continue;
                }
                for member in [u, v] {
                    if !d.covers.iter().any(|(root, _)| *root == member) {
                        d.patch_bin(member);
                    }
                }
            }
        }
    }
    d.into_cover()
}

/// Roots of the `/`-connected components: the query root plus every node
/// entered via a `//` edge.
fn component_roots(query: &Query) -> Vec<QNodeId> {
    query
        .nodes()
        .filter(|&n| query.parent(n).is_none() || query.axis(n) == Axis::Descendant)
        .collect()
}

struct Decomposer<'q> {
    q: &'q Query,
    mss: usize,
    assigned: Vec<bool>,
    covers: Vec<(QNodeId, Vec<QNodeId>)>,
    /// Component-subtree size per node (through `/` edges only).
    csize: Vec<usize>,
}

impl<'q> Decomposer<'q> {
    fn new(q: &'q Query, mss: usize) -> Self {
        assert!(mss >= 1, "mss must be at least 1");
        let mut csize = vec![1usize; q.len()];
        // Children have larger pre ids: reverse pre-order accumulates.
        for n in (0..q.len() as u32).rev().map(QNodeId) {
            for c in q.children_via(n, Axis::Child) {
                csize[n.index_usize()] += csize[c.index_usize()];
            }
        }
        Self {
            q,
            mss,
            assigned: vec![false; q.len()],
            covers: Vec::new(),
            csize,
        }
    }

    fn cchildren(&self, n: QNodeId) -> Vec<QNodeId> {
        self.q.children_via(n, Axis::Child).collect()
    }

    /// Unassigned node count in `n`'s component subtree (including `n`).
    fn remaining(&self, n: QNodeId) -> usize {
        let mut count = usize::from(!self.assigned[n.index_usize()]);
        for c in self.q.children_via(n, Axis::Child) {
            count += self.remaining(c);
        }
        count
    }

    /// The *take* of a branch: the minimal connected subtree rooted at
    /// `c` containing every unassigned node under `c` (assigned interior
    /// nodes are kept as connectors). Empty when nothing is unassigned.
    fn take(&self, c: QNodeId) -> Vec<QNodeId> {
        fn go(d: &Decomposer<'_>, n: QNodeId, out: &mut Vec<QNodeId>) -> bool {
            let at = out.len();
            out.push(n);
            let mut any = !d.assigned[n.index_usize()];
            for ch in d.q.children_via(n, Axis::Child) {
                any |= go(d, ch, out);
            }
            if !any {
                out.truncate(at);
            }
            any
        }
        let mut out = Vec::new();
        go(self, c, &mut out);
        out
    }

    /// Full component subtree of `n` as a node list (pre-order).
    fn full_subtree(&self, n: QNodeId) -> Vec<QNodeId> {
        let mut out = vec![n];
        let mut i = 0;
        while i < out.len() {
            let x = out[i];
            out.extend(self.q.children_via(x, Axis::Child));
            i += 1;
        }
        out
    }

    /// `optimalCover` (Figure 6). `is_root`: `n` is a component root.
    fn optimal_cover(&mut self, n: QNodeId, is_root: bool) {
        if is_root && self.csize[n.index_usize()] <= self.mss {
            let nodes = self.full_subtree(n);
            for &x in &nodes {
                self.assigned[x.index_usize()] = true;
            }
            self.covers.push((n, nodes));
            return;
        }
        for c in self.cchildren(n) {
            let cs = self.csize[c.index_usize()];
            if cs == self.mss {
                let nodes = self.full_subtree(c);
                for &x in &nodes {
                    self.assigned[x.index_usize()] = true;
                }
                self.covers.push((c, nodes));
            } else if cs > self.mss {
                self.optimal_cover(c, false);
            }
        }
        while self.remaining(n) >= self.mss {
            self.bin_or_descend(n);
        }
        if is_root {
            while self.remaining(n) > 0 {
                self.bin_or_descend(n);
            }
        }
    }

    /// `minRC` (Figure 7): exhausts the component subtree of `n` with
    /// bins rooted at `n`, recursing into large children first.
    fn minrc(&mut self, n: QNodeId) {
        if self.csize[n.index_usize()] <= self.mss {
            let nodes = self.full_subtree(n);
            for &x in &nodes {
                self.assigned[x.index_usize()] = true;
            }
            self.covers.push((n, nodes));
            return;
        }
        for c in self.cchildren(n) {
            let cs = self.csize[c.index_usize()];
            if cs == self.mss {
                let nodes = self.full_subtree(c);
                for &x in &nodes {
                    self.assigned[x.index_usize()] = true;
                }
                self.covers.push((c, nodes));
            } else if cs > self.mss {
                self.minrc(c);
            }
        }
        while self.remaining(n) > 0 {
            self.bin_or_descend(n);
        }
    }

    /// Runs `assign` at `n`; on a stall (no unassigned node can join a
    /// bin rooted at `n` because a branch's take exceeds the capacity),
    /// descends into the largest remaining branch and bins there.
    fn bin_or_descend(&mut self, n: QNodeId) {
        let mut at = n;
        loop {
            if self.assign_bin(at) {
                return;
            }
            // Descend towards the unassigned pocket.
            let next = self
                .cchildren(at)
                .into_iter()
                .max_by_key(|&c| self.remaining(c))
                .filter(|&c| self.remaining(c) > 0);
            match next {
                Some(c) => at = c,
                None => {
                    debug_assert!(false, "bin_or_descend with nothing remaining");
                    return;
                }
            }
        }
    }

    /// One `assign` call (Figure 6, right): a bin rooted at `n`, filled
    /// first-fit-decreasing with whole branch takes, then padded with
    /// already-covered structure up to exactly `mss` nodes. Returns
    /// whether any node became newly assigned; stalled bins are not
    /// recorded.
    fn assign_bin(&mut self, n: QNodeId) -> bool {
        let mut bin: Vec<QNodeId> = vec![n];
        let mut progress = !self.assigned[n.index_usize()];
        let mut takes: Vec<(usize, QNodeId)> = self
            .cchildren(n)
            .into_iter()
            .map(|c| (self.take(c).len(), c))
            .filter(|&(t, _)| t > 0)
            .collect();
        // First-fit decreasing (Lemma 3).
        takes.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let mut size = 1;
        for (tsize, c) in takes {
            if size + tsize <= self.mss {
                let t = self.take(c);
                debug_assert_eq!(t.len(), tsize);
                for &x in &t {
                    if !self.assigned[x.index_usize()] {
                        self.assigned[x.index_usize()] = true;
                        progress = true;
                    }
                }
                bin.extend(t);
                size += tsize;
            }
        }
        if !progress {
            return false;
        }
        self.assigned[n.index_usize()] = true;
        self.pad(&mut bin);
        self.covers.push((n, bin));
        true
    }

    /// Pads `bin` to `mss` nodes by attaching `/`-children of current
    /// members (the paper's lines 9–14 of `assign`: larger keys have
    /// shorter posting lists under filter-based and root-split codings,
    /// Lemma 1). Padding reuses already-covered structure and never
    /// changes `assigned`.
    fn pad(&mut self, bin: &mut Vec<QNodeId>) {
        while bin.len() < self.mss {
            let ext = bin
                .iter()
                .flat_map(|&b| self.q.children_via(b, Axis::Child))
                .find(|x| !bin.contains(x));
            match ext {
                Some(x) => bin.push(x),
                None => break,
            }
        }
    }

    /// Adds an extra bin rooted at `u` (root-split `//`-evaluability
    /// patch): `u` plus padding.
    fn patch_bin(&mut self, u: QNodeId) {
        let mut bin = vec![u];
        self.pad(&mut bin);
        self.covers.push((u, bin));
    }

    fn into_cover(self) -> Cover {
        let q = self.q;
        let subtrees = self
            .covers
            .into_iter()
            .map(|(root, nodes)| {
                let members = nodes;
                let (key, canon_nodes) =
                    canon_encode(root, &|n: QNodeId| q.label(n).id(), &|n: QNodeId| {
                        q.children_via(n, Axis::Child)
                            .filter(|c| members.contains(c))
                            .collect::<Vec<_>>()
                    });
                debug_assert_eq!(canon_nodes.len(), members.len());
                CoverSubtree {
                    root,
                    nodes: canon_nodes,
                    key,
                }
            })
            .collect();
        Cover { subtrees }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use si_parsetree::LabelInterner;
    use si_query::parse_query;

    fn q(src: &str) -> (Query, LabelInterner) {
        let mut li = LabelInterner::new();
        (parse_query(src, &mut li).unwrap(), li)
    }

    /// A0(A1(A2(...))) — a unary chain of `n` distinct labels.
    fn chain(n: usize) -> (Query, LabelInterner) {
        let mut t = String::new();
        for i in 0..n {
            t.push_str(&format!("A{i}"));
            if i + 1 < n {
                t.push('(');
            }
        }
        t.push_str(&")".repeat(n - 1));
        q(&t)
    }

    #[test]
    fn whole_query_when_small() {
        let (query, _) = q("S(NP)(VP)");
        for coding in Coding::ALL {
            let cover = decompose(&query, 3, coding);
            assert_eq!(cover.subtrees.len(), 1);
            assert_eq!(cover.num_joins(), 0);
            cover.validate(&query, 3).unwrap();
        }
    }

    #[test]
    fn chain_optimal_cover_is_ceil_n_over_mss() {
        for n in 2..=12 {
            for mss in 2..=5 {
                let (query, _) = chain(n);
                let cover = optimal_cover(&query, mss);
                cover.validate(&query, mss).unwrap();
                assert_eq!(
                    cover.subtrees.len(),
                    n.div_ceil(mss),
                    "chain {n} mss {mss}: {:?}",
                    cover.subtrees.iter().map(|s| s.size()).collect::<Vec<_>>()
                );
            }
        }
    }

    #[test]
    fn chain_minrc_matches_proposition_1_worst_case() {
        // Proposition 1: a unary branch needs |Q| - mss + 1 root-split
        // subtrees vs ceil(|Q|/mss) join-optimal ones.
        for n in 4..=10 {
            for mss in 2..=4 {
                if n <= mss {
                    continue;
                }
                let (query, _) = chain(n);
                let cover = minrc(&query, mss);
                cover.validate(&query, mss).unwrap();
                assert_eq!(cover.subtrees.len(), n - mss + 1, "chain {n} mss {mss}");
            }
        }
    }

    #[test]
    fn paper_example_2_optimal_cover_size() {
        // Figure 1(a) query, mss = 3: Example 2 derives a cover of 5.
        let (query, _) = q("S(NP(NNS(agouti)))(VP(VBZ(is))(NP(DT(a))(NN)))");
        assert_eq!(query.len(), 11);
        let cover = optimal_cover(&query, 3);
        cover.validate(&query, 3).unwrap();
        assert_eq!(cover.subtrees.len(), 5);
    }

    #[test]
    fn paper_example_3_minrc_size() {
        // Example 3: minRC also returns 5 subtrees on the same query.
        let (query, _) = q("S(NP(NNS(agouti)))(VP(VBZ(is))(NP(DT(a))(NN)))");
        let cover = minrc(&query, 3);
        cover.validate(&query, 3).unwrap();
        assert_eq!(cover.subtrees.len(), 5);
    }

    #[test]
    fn paper_example_1_deep_branching() {
        // Figure 5(a): A(B(C(D)(E)(F))) with mss = 4. The join-optimal
        // cover has 2 subtrees; the root-split cover needs 3 (C2 in the
        // paper) because C's children must stay with their parent.
        let (query, _) = q("A(B(C(D)(E)(F)))");
        assert_eq!(query.len(), 6);
        let opt = optimal_cover(&query, 4);
        opt.validate(&query, 4).unwrap();
        assert_eq!(opt.subtrees.len(), 2);
        let rs = minrc(&query, 4);
        rs.validate(&query, 4).unwrap();
        assert_eq!(rs.subtrees.len(), 3);
    }

    #[test]
    fn minrc_assigns_children_before_ancestors() {
        // In a minRC cover, for every uncovered query edge (u, v), u is
        // the root of some cover subtree — the property that makes
        // root-only joins complete.
        for (src, mss) in [
            ("A(B(C(D)(E)(F)))", 4),
            ("S(NP(NNS(x)))(VP(VBZ(y))(NP(DT(a))(NN)))", 3),
            ("A(B(C)(D))(E(F(G))(H))", 2),
            ("A(B)(C)(D)(E)(F)(G)", 3),
        ] {
            let (query, _) = q(src);
            let cover = minrc(&query, mss);
            cover.validate(&query, mss).unwrap();
            for v in query.nodes().skip(1) {
                let u = query.parent(v).unwrap();
                let covered = cover
                    .subtrees
                    .iter()
                    .any(|s| s.contains(u) && s.contains(v));
                if !covered {
                    assert!(
                        cover.subtrees.iter().any(|s| s.root == u),
                        "{src} mss={mss}: edge ({},{}) uncovered and {} is no cover root",
                        u.0,
                        v.0,
                        u.0
                    );
                    assert!(
                        cover
                            .subtrees
                            .iter()
                            .filter(|s| s.contains(v))
                            .all(|s| s.root == v),
                        "{src}: child end of uncovered edge must be a root"
                    );
                }
            }
        }
    }

    #[test]
    fn descendant_edges_split_components() {
        let (query, _) = q("S(NP(NN))(//VP(VBZ))");
        for coding in Coding::ALL {
            let cover = decompose(&query, 3, coding);
            cover.validate(&query, 3).unwrap();
            // S(NP(NN)) and VP(VBZ) are separate components.
            assert!(cover.subtrees.len() >= 2);
            // No subtree crosses the // edge.
            for st in &cover.subtrees {
                let has_s = st.nodes.iter().any(|&n| n.0 == 0);
                let has_vp = st.nodes.iter().any(|&n| n.0 == 3);
                assert!(!(has_s && has_vp), "cover crosses the // edge");
            }
        }
    }

    #[test]
    fn minrc_patches_descendant_parents() {
        // B has a //-child; B must be the root of some cover subtree in
        // the root-split decomposition even though optimalCover wouldn't
        // require it.
        let (query, _) = q("A(B(C)(//D))");
        let cover = minrc(&query, 3);
        cover.validate(&query, 3).unwrap();
        let b = QNodeId(1);
        assert!(
            cover.subtrees.iter().any(|s| s.root == b),
            "B must be a cover root: {:?}",
            cover
                .subtrees
                .iter()
                .map(|s| (s.root.0, s.size()))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn max_cover_bins_have_exactly_mss_nodes_when_possible() {
        let (query, _) = q("S(NP(DT)(JJ)(NN))(VP(VBZ)(NP(NN)))");
        let cover = optimal_cover(&query, 3);
        cover.validate(&query, 3).unwrap();
        // All bins padded to mss (the query has >= mss nodes everywhere).
        for st in &cover.subtrees {
            assert_eq!(st.size(), 3, "bin {:?}", st.nodes);
        }
    }

    #[test]
    fn single_node_query() {
        let (query, _) = q("NN");
        for coding in Coding::ALL {
            let cover = decompose(&query, 3, coding);
            assert_eq!(cover.subtrees.len(), 1);
            assert_eq!(cover.subtrees[0].size(), 1);
        }
    }

    #[test]
    fn mss_one_degenerates_to_node_covers() {
        let (query, _) = q("S(NP(NN))(VP)");
        for coding in Coding::ALL {
            let cover = decompose(&query, 1, coding);
            cover.validate(&query, 1).unwrap();
            assert_eq!(cover.subtrees.len(), query.len());
            assert_eq!(cover.num_joins(), query.len() - 1);
        }
    }

    #[test]
    fn cover_keys_are_canonical() {
        // Sibling order in the query must not affect cover keys; use one
        // interner so label ids are comparable.
        let mut li = LabelInterner::new();
        let qa = parse_query("A(B)(C)", &mut li).unwrap();
        let qb = parse_query("A(C)(B)", &mut li).unwrap();
        let ca = decompose(&qa, 3, Coding::RootSplit);
        let cb = decompose(&qb, 3, Coding::RootSplit);
        assert_eq!(ca.subtrees[0].key, cb.subtrees[0].key);
    }

    #[test]
    fn validate_catches_bad_covers() {
        let (query, _) = q("A(B)(C)");
        // Missing node C.
        let partial = Cover {
            subtrees: vec![CoverSubtree {
                root: QNodeId(0),
                nodes: vec![QNodeId(0), QNodeId(1)],
                key: vec![],
            }],
        };
        assert!(partial.validate(&query, 3).is_err());
        // Oversized subtree.
        let full = decompose(&query, 3, Coding::RootSplit);
        assert!(full.validate(&query, 2).is_err());
    }
}
