//! Structural and equality joins over posting-derived tuple streams.
//!
//! The join phase (§4.3) combines the posting lists of a cover's
//! subtrees. Our engine materializes each subtree's postings into
//! [`Tuple`]s — one [`NodeVal`] slot per query node the subtree exposes —
//! and reduces them with binary joins:
//!
//! * **equality** joins on a shared query node (two covers overlapping on
//!   a node must map it to the same data node) — sort-merge;
//! * **structural** joins for query edges whose endpoints live in
//!   different covers — parent-child or ancestor-descendant on interval
//!   codes, using **MPMGJN** (Zhang et al., SIGMOD 2001 — the paper's off-the-shelf
//!   choice) or **Stack-Tree** (Al-Khalifa et al., ICDE 2002 — the paper's
//!   suggested improvement; our ablation);
//! * residual predicates (extra equalities, level checks, distinctness
//!   between same-label `/`-siblings) applied as filters on the joined
//!   tuples.

use si_parsetree::TreeId;

use crate::coding::NodeVal;

/// Inline slot capacity of [`Slots`]: tuples bind one slot per exposed
/// query node, and workload queries rarely exceed this many — so the
/// hot pipeline runs allocation-free (the query service's throughput
/// depends on it).
const INLINE_SLOTS: usize = 6;

const ZERO_VAL: NodeVal = NodeVal {
    pre: 0,
    post: 0,
    level: 0,
};

/// A small-vector of bound node values: up to `INLINE_SLOTS` (4) values
/// inline, spilling to the heap beyond that. Dereferences to
/// `[NodeVal]`, so indexing and iteration read like a `Vec`.
#[derive(Debug, Clone)]
pub struct Slots {
    inline_len: u8,
    inline: [NodeVal; INLINE_SLOTS],
    spill: Vec<NodeVal>,
}

impl Slots {
    /// An empty slot vector.
    pub fn new() -> Self {
        Self {
            inline_len: 0,
            inline: [ZERO_VAL; INLINE_SLOTS],
            spill: Vec::new(),
        }
    }

    /// A single-slot vector (the root-split scan's shape).
    pub fn one(v: NodeVal) -> Self {
        let mut s = Self::new();
        s.inline[0] = v;
        s.inline_len = 1;
        s
    }

    /// Builds from a slice.
    pub fn from_slice(vals: &[NodeVal]) -> Self {
        let mut s = Self::new();
        s.extend_from_slice(vals);
        s
    }

    /// The concatenation of two slot slices (join output shape).
    pub fn combined(l: &[NodeVal], r: &[NodeVal]) -> Self {
        let mut s = Self::new();
        if l.len() + r.len() > INLINE_SLOTS {
            s.spill.reserve(l.len() + r.len());
        }
        s.extend_from_slice(l);
        s.extend_from_slice(r);
        s
    }

    /// Appends one value.
    pub fn push(&mut self, v: NodeVal) {
        if self.spill.is_empty() {
            if (self.inline_len as usize) < INLINE_SLOTS {
                self.inline[self.inline_len as usize] = v;
                self.inline_len += 1;
                return;
            }
            // Spill: move the inline prefix to the heap once.
            self.spill.reserve(2 * INLINE_SLOTS);
            self.spill.extend_from_slice(&self.inline[..INLINE_SLOTS]);
            self.inline_len = 0;
        }
        self.spill.push(v);
    }

    /// Appends a slice.
    pub fn extend_from_slice(&mut self, vals: &[NodeVal]) {
        for &v in vals {
            self.push(v);
        }
    }

    /// Heap bytes in use (zero while inline).
    pub(crate) fn heap_bytes(&self) -> usize {
        self.spill.capacity() * std::mem::size_of::<NodeVal>()
    }
}

impl Default for Slots {
    fn default() -> Self {
        Self::new()
    }
}

impl std::ops::Deref for Slots {
    type Target = [NodeVal];

    fn deref(&self) -> &[NodeVal] {
        if self.spill.is_empty() {
            &self.inline[..self.inline_len as usize]
        } else {
            &self.spill
        }
    }
}

impl PartialEq for Slots {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl Eq for Slots {}

impl From<Vec<NodeVal>> for Slots {
    fn from(vals: Vec<NodeVal>) -> Self {
        Self::from_slice(&vals)
    }
}

impl FromIterator<NodeVal> for Slots {
    fn from_iter<I: IntoIterator<Item = NodeVal>>(iter: I) -> Self {
        let mut s = Self::new();
        for v in iter {
            s.push(v);
        }
        s
    }
}

/// One intermediate result row: a tree plus the data-node values bound to
/// a set of slots (the caller tracks which query node each slot means).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tuple {
    /// The tree all slots live in.
    pub tid: TreeId,
    /// Bound node values.
    pub slots: Slots,
}

/// Approximate resident size of a tuple (memory instrumentation shared
/// by both executors).
pub(crate) fn tuple_bytes(t: &Tuple) -> usize {
    std::mem::size_of::<Tuple>() + t.slots.heap_bytes()
}

/// Sum of [`tuple_bytes`] over a buffer.
pub(crate) fn tuples_bytes(ts: &[Tuple]) -> usize {
    ts.iter().map(tuple_bytes).sum()
}

/// The driving condition of a binary join.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// Left and right slots bind the same data node.
    Eq,
    /// Left slot is the parent of the right slot.
    Parent,
    /// Left slot is a proper ancestor of the right slot.
    Ancestor,
}

/// A predicate over the *combined* slot vector (left slots first, then
/// right slots), applied as a filter after the driving join.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pred {
    /// Slots bind the same node.
    Eq(usize, usize),
    /// First slot is parent of second.
    Parent(usize, usize),
    /// First slot is a proper ancestor of second.
    Ancestor(usize, usize),
    /// Slots bind distinct nodes (sibling distinctness).
    Neq(usize, usize),
}

impl Pred {
    /// Evaluates against a combined slot vector.
    pub fn holds(&self, slots: &[NodeVal]) -> bool {
        match *self {
            Pred::Eq(a, b) => slots[a].pre == slots[b].pre,
            Pred::Parent(a, b) => slots[a].is_parent_of(&slots[b]),
            Pred::Ancestor(a, b) => slots[a].is_ancestor_of(&slots[b]),
            Pred::Neq(a, b) => slots[a].pre != slots[b].pre,
        }
    }
}

/// Structural-join algorithm selector: the two structural joins listed
/// in ARCHITECTURE.md, *Query path*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinAlgo {
    /// Multi-Predicate Merge Join (the paper's default).
    Mpmgjn,
    /// Stack-Tree join.
    StackTree,
}

/// Joins `left` and `right` on `kind` over `(left_slot, right_slot)`,
/// then filters by `residual` predicates (combined indexing). Both
/// inputs may be in arbitrary order; they are sorted as needed.
pub fn join(
    left: &[Tuple],
    right: &[Tuple],
    kind: JoinKind,
    left_slot: usize,
    right_slot: usize,
    residual: &[Pred],
    algo: JoinAlgo,
) -> Vec<Tuple> {
    let mut out = match kind {
        JoinKind::Eq => equi_join(left, right, left_slot, right_slot),
        JoinKind::Parent | JoinKind::Ancestor => match algo {
            JoinAlgo::Mpmgjn => mpmgjn(left, right, kind, left_slot, right_slot),
            JoinAlgo::StackTree => stack_tree(left, right, kind, left_slot, right_slot),
        },
    };
    if !residual.is_empty() {
        out.retain(|t| residual.iter().all(|p| p.holds(&t.slots)));
    }
    out
}

/// Cross-joins tuples per tid (fallback when no predicate connects two
/// streams; rare — only disconnected join graphs reach this).
pub fn tid_cross_join(left: &[Tuple], right: &[Tuple], residual: &[Pred]) -> Vec<Tuple> {
    let mut lrefs: Vec<&Tuple> = left.iter().collect();
    let mut rrefs: Vec<&Tuple> = right.iter().collect();
    lrefs.sort_by_key(|t| t.tid);
    rrefs.sort_by_key(|t| t.tid);
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < lrefs.len() && j < rrefs.len() {
        match lrefs[i].tid.cmp(&rrefs[j].tid) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                let tid = lrefs[i].tid;
                let i_end = (i..lrefs.len())
                    .find(|&x| lrefs[x].tid != tid)
                    .unwrap_or(lrefs.len());
                let j_end = (j..rrefs.len())
                    .find(|&x| rrefs[x].tid != tid)
                    .unwrap_or(rrefs.len());
                for l in &lrefs[i..i_end] {
                    for r in &rrefs[j..j_end] {
                        let c = combine(l, r);
                        if residual.iter().all(|p| p.holds(&c.slots)) {
                            out.push(c);
                        }
                    }
                }
                i = i_end;
                j = j_end;
            }
        }
    }
    out
}

/// Intersects sorted, deduplicated tid lists (filter-based coding's join
/// phase: "pairwise intersection of these lists", §4.4.1).
pub fn intersect_tids(lists: &[Vec<TreeId>]) -> Vec<TreeId> {
    if lists.is_empty() {
        return Vec::new();
    }
    // Start from the shortest list: intersection can only shrink.
    let mut order: Vec<usize> = (0..lists.len()).collect();
    order.sort_by_key(|&i| lists[i].len());
    let mut acc = lists[order[0]].clone();
    for &i in &order[1..] {
        let other = &lists[i];
        let mut next = Vec::with_capacity(acc.len().min(other.len()));
        let (mut a, mut b) = (0, 0);
        while a < acc.len() && b < other.len() {
            match acc[a].cmp(&other[b]) {
                std::cmp::Ordering::Less => a += 1,
                std::cmp::Ordering::Greater => b += 1,
                std::cmp::Ordering::Equal => {
                    next.push(acc[a]);
                    a += 1;
                    b += 1;
                }
            }
        }
        acc = next;
        if acc.is_empty() {
            break;
        }
    }
    acc
}

fn sort_by_slot(tuples: &[Tuple], slot: usize) -> Vec<&Tuple> {
    let mut refs: Vec<&Tuple> = tuples.iter().collect();
    refs.sort_by_key(|t| (t.tid, t.slots[slot].pre));
    refs
}

/// Concatenates two tuples of the same tree (join output); shared by
/// the materializing evaluator and the streaming operators.
pub(crate) fn combine(l: &Tuple, r: &Tuple) -> Tuple {
    Tuple {
        tid: l.tid,
        slots: Slots::combined(&l.slots, &r.slots),
    }
}

/// Sort-merge equality join on `(tid, pre)`.
fn equi_join(left: &[Tuple], right: &[Tuple], ls: usize, rs: usize) -> Vec<Tuple> {
    let lrefs = sort_by_slot(left, ls);
    let rrefs = sort_by_slot(right, rs);
    let key = |t: &Tuple, s: usize| (t.tid, t.slots[s].pre);
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < lrefs.len() && j < rrefs.len() {
        match key(lrefs[i], ls).cmp(&key(rrefs[j], rs)) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                // Emit the full cross-product of the equal-key groups.
                let k = key(lrefs[i], ls);
                let i_end = (i..lrefs.len())
                    .find(|&x| key(lrefs[x], ls) != k)
                    .unwrap_or(lrefs.len());
                let j_end = (j..rrefs.len())
                    .find(|&x| key(rrefs[x], rs) != k)
                    .unwrap_or(rrefs.len());
                for l in &lrefs[i..i_end] {
                    for r in &rrefs[j..j_end] {
                        out.push(combine(l, r));
                    }
                }
                i = i_end;
                j = j_end;
            }
        }
    }
    out
}

/// Multi-Predicate Merge Join (Zhang et al.): both sides sorted by
/// `(tid, pre)`; for each right tuple, scan the window of left tuples
/// whose interval can contain it.
fn mpmgjn(left: &[Tuple], right: &[Tuple], kind: JoinKind, ls: usize, rs: usize) -> Vec<Tuple> {
    let lrefs = sort_by_slot(left, ls);
    let rrefs = sort_by_slot(right, rs);
    let mut out = Vec::new();
    let mut lo = 0; // first left candidate for the current tid window
    for r in &rrefs {
        let rv = r.slots[rs];
        // Advance past earlier trees.
        while lo < lrefs.len() && lrefs[lo].tid < r.tid {
            lo += 1;
        }
        let mut i = lo;
        // Candidates: same tid, l.pre < r.pre. As `i` only moves forward
        // within a tid group we re-scan from `lo`; the windows in parse
        // trees are short (tree sizes ~ tens of nodes).
        while i < lrefs.len() && lrefs[i].tid == r.tid && lrefs[i].slots[ls].pre < rv.pre {
            let lv = lrefs[i].slots[ls];
            let ok = match kind {
                JoinKind::Parent => lv.is_parent_of(&rv),
                JoinKind::Ancestor => lv.is_ancestor_of(&rv),
                JoinKind::Eq => unreachable!("Eq uses equi_join"),
            };
            if ok {
                out.push(combine(lrefs[i], r));
            }
            i += 1;
        }
    }
    out
}

/// Stack-Tree join (Al-Khalifa et al.): a single merged pass with a
/// stack of open ancestors.
fn stack_tree(left: &[Tuple], right: &[Tuple], kind: JoinKind, ls: usize, rs: usize) -> Vec<Tuple> {
    let lrefs = sort_by_slot(left, ls);
    let rrefs = sort_by_slot(right, rs);
    let mut out = Vec::new();
    let mut stack: Vec<&Tuple> = Vec::new();
    let (mut i, mut j) = (0, 0);
    while j < rrefs.len() {
        let r = rrefs[j];
        let rv = r.slots[rs];
        // Pop ancestors that cannot contain r (different tree or closed
        // interval).
        while let Some(top) = stack.last() {
            let tv = top.slots[ls];
            if top.tid < r.tid || (top.tid == r.tid && tv.post < rv.post && tv.pre < rv.pre) {
                // top interval ends before r begins iff post < r.post and
                // it is not an ancestor; precise check below.
                if top.tid < r.tid || !tv.is_ancestor_of(&rv) {
                    stack.pop();
                    continue;
                }
            }
            break;
        }
        // Push left tuples that start before r.
        while i < lrefs.len()
            && (lrefs[i].tid < r.tid || (lrefs[i].tid == r.tid && lrefs[i].slots[ls].pre < rv.pre))
        {
            let lv = lrefs[i].slots[ls];
            if lrefs[i].tid == r.tid && lv.is_ancestor_of(&rv) {
                // Keep only nodes on the ancestor path of r.
                while let Some(top) = stack.last() {
                    if top.tid != r.tid || !top.slots[ls].is_ancestor_of(&rv) {
                        stack.pop();
                    } else {
                        break;
                    }
                }
                stack.push(lrefs[i]);
            }
            i += 1;
        }
        // Everything on the stack that is an ancestor of r joins.
        for l in &stack {
            if l.tid != r.tid {
                continue;
            }
            let lv = l.slots[ls];
            let ok = match kind {
                JoinKind::Parent => lv.is_parent_of(&rv),
                JoinKind::Ancestor => lv.is_ancestor_of(&rv),
                JoinKind::Eq => unreachable!("Eq uses equi_join"),
            };
            if ok {
                out.push(combine(l, r));
            }
        }
        j += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nv(pre: u32, post: u32, level: u16) -> NodeVal {
        NodeVal { pre, post, level }
    }

    fn t1(tid: TreeId, v: NodeVal) -> Tuple {
        Tuple {
            tid,
            slots: Slots::one(v),
        }
    }

    /// A small synthetic tree (pre, post, level):
    ///   0:(0,5,0) root
    ///   1:(1,2,1) ├ a
    ///   2:(2,0,2) │ └ b
    ///   3:(3,1,2) │ (sibling of b)  -- child of a
    ///   4:(4,4,1) └ c
    ///   5:(5,3,2)   └ d
    fn nodes() -> Vec<NodeVal> {
        vec![
            nv(0, 5, 0),
            nv(1, 2, 1),
            nv(2, 0, 2),
            nv(3, 1, 2),
            nv(4, 4, 1),
            nv(5, 3, 2),
        ]
    }

    #[test]
    fn equi_join_matches_on_tid_and_pre() {
        let n = nodes();
        let left = vec![t1(1, n[1]), t1(2, n[1]), t1(2, n[4])];
        let right = vec![t1(2, n[1]), t1(2, n[2]), t1(3, n[1])];
        let out = join(&left, &right, JoinKind::Eq, 0, 0, &[], JoinAlgo::Mpmgjn);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].tid, 2);
        assert_eq!(out[0].slots.len(), 2);
    }

    #[test]
    fn equi_join_cross_product_on_duplicates() {
        let n = nodes();
        let left = vec![t1(1, n[0]), t1(1, n[0])];
        let right = vec![t1(1, n[0]), t1(1, n[0]), t1(1, n[0])];
        let out = join(&left, &right, JoinKind::Eq, 0, 0, &[], JoinAlgo::Mpmgjn);
        assert_eq!(out.len(), 6);
    }

    fn structural_pairs(kind: JoinKind, algo: JoinAlgo) -> Vec<(u32, u32)> {
        let n = nodes();
        let all: Vec<Tuple> = n.iter().map(|&v| t1(7, v)).collect();
        let mut pairs: Vec<(u32, u32)> = join(&all, &all, kind, 0, 0, &[], algo)
            .into_iter()
            .map(|t| (t.slots[0].pre, t.slots[1].pre))
            .collect();
        pairs.sort_unstable();
        pairs
    }

    #[test]
    fn ancestor_join_finds_all_containments() {
        let want = vec![
            (0, 1),
            (0, 2),
            (0, 3),
            (0, 4),
            (0, 5),
            (1, 2),
            (1, 3),
            (4, 5),
        ];
        assert_eq!(structural_pairs(JoinKind::Ancestor, JoinAlgo::Mpmgjn), want);
        assert_eq!(
            structural_pairs(JoinKind::Ancestor, JoinAlgo::StackTree),
            want
        );
    }

    #[test]
    fn parent_join_checks_level() {
        let want = vec![(0, 1), (0, 4), (1, 2), (1, 3), (4, 5)];
        assert_eq!(structural_pairs(JoinKind::Parent, JoinAlgo::Mpmgjn), want);
        assert_eq!(
            structural_pairs(JoinKind::Parent, JoinAlgo::StackTree),
            want
        );
    }

    #[test]
    fn joins_never_cross_trees() {
        let n = nodes();
        let left = vec![t1(1, n[0])];
        let right = vec![t1(2, n[1])];
        for algo in [JoinAlgo::Mpmgjn, JoinAlgo::StackTree] {
            assert!(join(&left, &right, JoinKind::Ancestor, 0, 0, &[], algo).is_empty());
        }
    }

    #[test]
    fn residual_predicates_filter() {
        let n = nodes();
        let left = vec![Tuple {
            tid: 1,
            slots: Slots::from_slice(&[n[1], n[2]]),
        }];
        let right = vec![t1(1, n[2]), t1(1, n[3])];
        // Join a's tuple to children of a, requiring the right node to
        // differ from slot 1 (which holds b = pre 2).
        let out = join(
            &left,
            &right,
            JoinKind::Parent,
            0,
            0,
            &[Pred::Neq(1, 2)],
            JoinAlgo::Mpmgjn,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].slots[2].pre, 3);
    }

    #[test]
    fn pred_holds_all_variants() {
        let n = nodes();
        let slots = vec![n[0], n[1], n[2]];
        assert!(Pred::Ancestor(0, 2).holds(&slots));
        assert!(Pred::Parent(1, 2).holds(&slots));
        assert!(!Pred::Parent(0, 2).holds(&slots));
        assert!(Pred::Neq(0, 1).holds(&slots));
        assert!(Pred::Eq(1, 1).holds(&slots));
    }

    #[test]
    fn intersect_tids_basics() {
        assert_eq!(
            intersect_tids(&[vec![1, 3, 5, 7], vec![3, 4, 5], vec![0, 3, 5, 9]]),
            vec![3, 5]
        );
        assert_eq!(intersect_tids(&[vec![1, 2], vec![3]]), Vec::<TreeId>::new());
        assert_eq!(intersect_tids(&[]), Vec::<TreeId>::new());
        assert_eq!(intersect_tids(&[vec![2, 4]]), vec![2, 4]);
    }

    #[test]
    fn unsorted_inputs_are_handled() {
        let n = nodes();
        let left = vec![t1(2, n[0]), t1(1, n[0])];
        let right = vec![t1(1, n[5]), t1(2, n[1])];
        for algo in [JoinAlgo::Mpmgjn, JoinAlgo::StackTree] {
            let out = join(&left, &right, JoinKind::Ancestor, 0, 0, &[], algo);
            assert_eq!(out.len(), 2, "{algo:?}");
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn mpmgjn_and_stacktree_agree_on_random_inputs() {
        // Pseudo-random intervals built from a simple LCG; both
        // algorithms must produce identical pair sets.
        let mut state = 88172645463325252u64;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..20 {
            // Build a random forest per tid by nesting intervals.
            let mut tuples = Vec::new();
            for tid in 0..4u32 {
                // Random binary tree over 15 nodes via pre/post generation.
                let n = 15;
                let mut pres: Vec<u32> = (0..n).collect();
                // Random parent pointers forming a tree rooted at 0.
                let mut parent = vec![0usize; n as usize];
                for i in 1..n as usize {
                    parent[i] = (rnd() % i as u64) as usize;
                }
                // Compute post and level from the tree.
                let mut children: Vec<Vec<usize>> = vec![Vec::new(); n as usize];
                for i in 1..n as usize {
                    children[parent[i]].push(i);
                }
                let mut post = vec![0u32; n as usize];
                let mut level = vec![0u16; n as usize];
                let mut counter = 0u32;
                fn dfs(
                    v: usize,
                    children: &[Vec<usize>],
                    post: &mut [u32],
                    level: &mut [u16],
                    counter: &mut u32,
                    depth: u16,
                ) {
                    level[v] = depth;
                    for &c in &children[v] {
                        dfs(c, children, post, level, counter, depth + 1);
                    }
                    post[v] = *counter;
                    *counter += 1;
                }
                dfs(0, &children, &mut post, &mut level, &mut counter, 0);
                // NOTE: `pre` from parent order is not a true DFS pre
                // rank; recompute with a second DFS.
                let mut pre = vec![0u32; n as usize];
                let mut c2 = 0u32;
                fn dfs_pre(v: usize, children: &[Vec<usize>], pre: &mut [u32], c: &mut u32) {
                    pre[v] = *c;
                    *c += 1;
                    for &ch in &children[v] {
                        dfs_pre(ch, children, pre, c);
                    }
                }
                dfs_pre(0, &children, &mut pre, &mut c2);
                let _ = pres.pop();
                for i in 0..n as usize {
                    tuples.push(t1(tid, nv(pre[i], post[i], level[i])));
                }
            }
            // Random subsets as join sides.
            let left: Vec<Tuple> = tuples.iter().filter(|_| rnd() % 2 == 0).cloned().collect();
            let right: Vec<Tuple> = tuples.iter().filter(|_| rnd() % 2 == 0).cloned().collect();
            for kind in [JoinKind::Ancestor, JoinKind::Parent] {
                let mut a: Vec<(u32, u32, u32)> =
                    join(&left, &right, kind, 0, 0, &[], JoinAlgo::Mpmgjn)
                        .into_iter()
                        .map(|t| (t.tid, t.slots[0].pre, t.slots[1].pre))
                        .collect();
                let mut b: Vec<(u32, u32, u32)> =
                    join(&left, &right, kind, 0, 0, &[], JoinAlgo::StackTree)
                        .into_iter()
                        .map(|t| (t.tid, t.slots[0].pre, t.slots[1].pre))
                        .collect();
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b, "{kind:?}");
            }
        }
    }
}
