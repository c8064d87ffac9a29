//! The query tree model (Definition 2).

use si_parsetree::{Label, NodeId, ParseTree};

/// Navigational axis on a query edge (the paper's `ΛE`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Axis {
    /// Parent-child, written `/`.
    Child,
    /// Ancestor-descendant (proper), written `//`.
    Descendant,
}

/// Identifier of a node within one [`Query`]; pre-order rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QNodeId(pub u32);

impl QNodeId {
    #[inline]
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// An unordered tree query. Nodes are stored in pre-order; each non-root
/// node records the axis of the edge from its parent.
///
/// Queries are small (the paper evaluates sizes 1–10), so the
/// representation favours clarity over compactness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    labels: Vec<Label>,
    parent: Vec<Option<u32>>,
    axis: Vec<Axis>, // axis[i] is meaningful for i > 0
    children: Vec<Vec<u32>>,
}

impl Query {
    /// Number of query nodes (`|Q|`).
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Always false: queries have at least a root.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// The query root.
    pub fn root(&self) -> QNodeId {
        QNodeId(0)
    }

    /// The node's label.
    pub fn label(&self, n: QNodeId) -> Label {
        self.labels[n.index()]
    }

    /// The node's parent, if any.
    pub fn parent(&self, n: QNodeId) -> Option<QNodeId> {
        self.parent[n.index()].map(QNodeId)
    }

    /// Axis of the edge from the node's parent (root: `Axis::Child` by
    /// convention, never consulted).
    pub fn axis(&self, n: QNodeId) -> Axis {
        self.axis[n.index()]
    }

    /// Children of `n` in insertion order (queries are semantically
    /// unordered; the order only affects display).
    pub fn children(&self, n: QNodeId) -> impl Iterator<Item = QNodeId> + '_ {
        self.children[n.index()].iter().map(|&c| QNodeId(c))
    }

    /// Children of `n` reached via a given axis.
    pub fn children_via(&self, n: QNodeId, axis: Axis) -> impl Iterator<Item = QNodeId> + '_ {
        self.children(n).filter(move |&c| self.axis(c) == axis)
    }

    /// All nodes in pre-order.
    pub fn nodes(&self) -> impl Iterator<Item = QNodeId> {
        (0..self.labels.len() as u32).map(QNodeId)
    }

    /// Number of nodes in the subtree rooted at `n` (including `n`),
    /// counting through both axis kinds.
    pub fn subtree_size(&self, n: QNodeId) -> usize {
        1 + self
            .children(n)
            .map(|c| self.subtree_size(c))
            .sum::<usize>()
    }

    /// Whether every edge is a parent-child edge.
    pub fn is_child_only(&self) -> bool {
        self.nodes().skip(1).all(|n| self.axis(n) == Axis::Child)
    }

    /// True if some query node has two `/`-children with equal labels.
    ///
    /// Such queries need care during decomposition: two same-label sibling
    /// branches must be mapped to *distinct* data nodes, which root-only
    /// joins cannot always enforce (see ARCHITECTURE.md, *Query path*).
    pub fn has_sibling_label_clash(&self) -> bool {
        self.nodes().any(|n| {
            let mut labels: Vec<Label> = self
                .children_via(n, Axis::Child)
                .map(|c| self.label(c))
                .collect();
            let before = labels.len();
            labels.sort_unstable();
            labels.dedup();
            labels.len() < before
        })
    }

    /// Builds an all-`/` query mirroring the subtree of `tree` rooted at
    /// `root`, restricted to `keep` (which must be closed under parents up
    /// to `root`). Passing all descendants clones the full subtree.
    pub fn from_tree_subtree(tree: &ParseTree, root: NodeId, keep: &[NodeId]) -> Query {
        let mut b = QueryBuilder::new();
        fn go(tree: &ParseTree, n: NodeId, keep: &[NodeId], b: &mut QueryBuilder) {
            b.open(tree.label(n), Axis::Child);
            for c in tree.children(n) {
                if keep.contains(&c) {
                    go(tree, c, keep, b);
                }
            }
            b.close();
        }
        go(tree, root, keep, &mut b);
        b.finish().expect("subtree is a well-formed query")
    }
}

/// Push-style constructor for [`Query`], mirroring
/// [`si_parsetree::TreeBuilder`].
#[derive(Debug, Default)]
pub struct QueryBuilder {
    labels: Vec<Label>,
    parent: Vec<Option<u32>>,
    axis: Vec<Axis>,
    children: Vec<Vec<u32>>,
    stack: Vec<u32>,
}

impl QueryBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens a node under the currently open node; `axis` is the edge type
    /// from the parent (ignored for the root).
    pub fn open(&mut self, label: Label, axis: Axis) -> QNodeId {
        let id = self.labels.len() as u32;
        let parent = self.stack.last().copied();
        assert!(
            !(parent.is_none() && id != 0),
            "a Query has exactly one root"
        );
        self.labels.push(label);
        self.parent.push(parent);
        self.axis
            .push(if parent.is_none() { Axis::Child } else { axis });
        self.children.push(Vec::new());
        if let Some(p) = parent {
            self.children[p as usize].push(id);
        }
        self.stack.push(id);
        QNodeId(id)
    }

    /// Closes the most recently opened node.
    pub fn close(&mut self) {
        self.stack.pop().expect("close without open");
    }

    /// `open` + `close`.
    pub fn leaf(&mut self, label: Label, axis: Axis) -> QNodeId {
        let id = self.open(label, axis);
        self.close();
        id
    }

    /// Finishes construction; `None` if unbalanced or empty.
    pub fn finish(self) -> Option<Query> {
        if self.labels.is_empty() || !self.stack.is_empty() {
            return None;
        }
        Some(Query {
            labels: self.labels,
            parent: self.parent,
            axis: self.axis,
            children: self.children,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use si_parsetree::LabelInterner;

    fn build_sample() -> (Query, LabelInterner) {
        // S(/NP(/NNS))(//VP)
        let mut li = LabelInterner::new();
        let mut b = QueryBuilder::new();
        b.open(li.intern("S"), Axis::Child);
        b.open(li.intern("NP"), Axis::Child);
        b.leaf(li.intern("NNS"), Axis::Child);
        b.close();
        b.leaf(li.intern("VP"), Axis::Descendant);
        b.close();
        (b.finish().unwrap(), li)
    }

    #[test]
    fn structure_and_axes() {
        let (q, li) = build_sample();
        assert_eq!(q.len(), 4);
        assert_eq!(li.resolve(q.label(q.root())), "S");
        let kids: Vec<_> = q.children(q.root()).collect();
        assert_eq!(kids.len(), 2);
        assert_eq!(q.axis(kids[0]), Axis::Child);
        assert_eq!(q.axis(kids[1]), Axis::Descendant);
        assert_eq!(q.parent(kids[0]), Some(q.root()));
        assert_eq!(q.parent(q.root()), None);
        assert_eq!(q.subtree_size(q.root()), 4);
        assert_eq!(q.subtree_size(kids[0]), 2);
        assert!(!q.is_child_only());
    }

    #[test]
    fn children_via_filters_by_axis() {
        let (q, _) = build_sample();
        assert_eq!(q.children_via(q.root(), Axis::Child).count(), 1);
        assert_eq!(q.children_via(q.root(), Axis::Descendant).count(), 1);
    }

    #[test]
    fn sibling_label_clash_detection() {
        let mut li = LabelInterner::new();
        let mut b = QueryBuilder::new();
        b.open(li.intern("NP"), Axis::Child);
        b.leaf(li.intern("NN"), Axis::Child);
        b.leaf(li.intern("NN"), Axis::Child);
        b.close();
        let q = b.finish().unwrap();
        assert!(q.has_sibling_label_clash());

        let mut b = QueryBuilder::new();
        b.open(li.intern("NP"), Axis::Child);
        b.leaf(li.intern("NN"), Axis::Child);
        b.leaf(li.intern("NN"), Axis::Descendant); // // sibling doesn't clash
        b.close();
        let q = b.finish().unwrap();
        assert!(!q.has_sibling_label_clash());
    }

    #[test]
    fn from_tree_subtree_restricts_nodes() {
        use si_parsetree::ptb;
        let mut li = LabelInterner::new();
        let t = ptb::parse("(S (NP (DT the) (NN dog)) (VP (VBZ barks)))", &mut li).unwrap();
        // Keep S, NP, VP but not the POS leaves.
        let keep: Vec<NodeId> = t
            .nodes()
            .filter(|&n| {
                let l = li.resolve(t.label(n));
                matches!(l, "S" | "NP" | "VP")
            })
            .collect();
        let q = Query::from_tree_subtree(&t, t.root(), &keep);
        assert_eq!(q.len(), 3);
        assert!(q.is_child_only());
    }

    #[test]
    fn single_node_query() {
        let mut li = LabelInterner::new();
        let mut b = QueryBuilder::new();
        b.leaf(li.intern("NN"), Axis::Child);
        let q = b.finish().unwrap();
        assert_eq!(q.len(), 1);
        assert!(q.is_child_only());
        assert!(!q.has_sibling_label_clash());
    }

    #[test]
    fn unbalanced_rejected() {
        let mut li = LabelInterner::new();
        let mut b = QueryBuilder::new();
        b.open(li.intern("S"), Axis::Child);
        assert!(b.finish().is_none());
    }
}
