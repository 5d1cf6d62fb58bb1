//! Arena-allocated rooted forests.
//!
//! Nodes are stored in two parallel `Vec`s (labels and parent links) and
//! addressed by dense `u32` indices — no `Rc`, no pointer chasing, and the
//! whole structure drops iteratively regardless of tree depth.

/// Sentinel parent index meaning "this node is a root".
pub(crate) const NONE: u32 = u32::MAX;

/// Identifier of a node inside a [`Forest`].
///
/// A `NodeId` is a dense `u32` index; it is only meaningful for the forest
/// that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Dense index of the node, suitable for indexing side tables.
    ///
    /// ```
    /// use dtc_core::Forest;
    /// let mut f = Forest::new();
    /// let r = f.add_root(7i64);
    /// assert_eq!(r.index(), 0);
    /// ```
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a `NodeId` from a dense index.
    ///
    /// The index is not validated here; using an id that is out of range
    /// for a given forest panics at the point of use.
    ///
    /// ```
    /// use dtc_core::NodeId;
    /// assert_eq!(NodeId::from_index(3).index(), 3);
    /// ```
    #[inline]
    pub fn from_index(i: usize) -> NodeId {
        assert!(i < u32::MAX as usize, "index exceeds u32 node capacity");
        NodeId(i as u32)
    }

    #[inline]
    pub(crate) fn raw(self) -> u32 {
        self.0
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A rooted forest over arena-allocated nodes with labels of type `L`.
///
/// The forest only stores parent pointers — they are the one copy of the
/// shape. Child lists are derived on demand, always in ascending id order,
/// so sibling order is a function of the shape alone. Nodes
/// are append-only: build the shape with [`Forest::add_root`] and
/// [`Forest::add_child`], then contract it or wrap it in a `DynForest` for
/// batch-dynamic edits.
///
/// ```
/// use dtc_core::{Forest, SubtreeSum};
///
/// let mut f = Forest::new();
/// let root = f.add_root(1i64);
/// let a = f.add_child(root, 2);
/// let b = f.add_child(root, 3);
/// let _leaf = f.add_child(a, 4);
///
/// let c = f.contraction().run(&SubtreeSum);
/// assert_eq!(*c.subtree_value(root), 10);
/// assert_eq!(*c.subtree_value(a), 6);
/// assert_eq!(*c.subtree_value(b), 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Forest<L> {
    labels: Vec<L>,
    parent: Vec<u32>,
}

impl<L> Forest<L> {
    /// Creates an empty forest.
    ///
    /// ```
    /// let f = dtc_core::Forest::<i64>::new();
    /// assert!(f.is_empty());
    /// ```
    pub fn new() -> Self {
        Forest {
            labels: Vec::new(),
            parent: Vec::new(),
        }
    }

    /// Creates an empty forest with room for `n` nodes.
    pub fn with_capacity(n: usize) -> Self {
        Forest {
            labels: Vec::with_capacity(n),
            parent: Vec::with_capacity(n),
        }
    }

    /// Number of nodes in the forest.
    #[inline]
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Returns `true` when the forest has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    fn push(&mut self, label: L, parent: u32) -> NodeId {
        let id = self.labels.len();
        assert!(id < NONE as usize, "forest exceeds u32 node capacity");
        self.labels.push(label);
        self.parent.push(parent);
        NodeId(id as u32)
    }

    /// Adds a new root (a node with no parent) and returns its id.
    pub fn add_root(&mut self, label: L) -> NodeId {
        self.push(label, NONE)
    }

    /// Adds a new child of `parent` and returns its id.
    ///
    /// # Panics
    /// Panics if `parent` is not a node of this forest.
    pub fn add_child(&mut self, parent: NodeId, label: L) -> NodeId {
        assert!(
            parent.index() < self.labels.len(),
            "add_child: unknown parent {parent}"
        );
        self.push(label, parent.raw())
    }

    /// Parent of `v`, or `None` when `v` is a root.
    ///
    /// ```
    /// use dtc_core::Forest;
    /// let mut f = Forest::new();
    /// let r = f.add_root(0i64);
    /// let c = f.add_child(r, 1);
    /// assert_eq!(f.parent(c), Some(r));
    /// assert_eq!(f.parent(r), None);
    /// ```
    #[inline]
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        let p = self.parent[v.index()];
        (p != NONE).then_some(NodeId(p))
    }

    #[inline]
    pub(crate) fn parent_raw(&self, v: u32) -> u32 {
        self.parent[v as usize]
    }

    pub(crate) fn set_parent_raw(&mut self, v: u32, p: u32) {
        self.parent[v as usize] = p;
    }

    /// Label of `v`.
    #[inline]
    pub fn label(&self, v: NodeId) -> &L {
        &self.labels[v.index()]
    }

    /// Replaces the label of `v`.
    ///
    /// Note: when the forest is wrapped in a [`DynForest`](crate::DynForest),
    /// use [`DynForest::batch_update_weights`](crate::DynForest::batch_update_weights)
    /// instead so the change is propagated.
    pub fn set_label(&mut self, v: NodeId, label: L) {
        self.labels[v.index()] = label;
    }

    /// `true` when `v` has no parent.
    #[inline]
    pub fn is_root(&self, v: NodeId) -> bool {
        self.parent[v.index()] == NONE
    }

    /// Iterator over all node ids, in insertion order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.labels.len() as u32).map(NodeId)
    }

    /// Iterator over the current roots of the forest.
    ///
    /// ```
    /// use dtc_core::Forest;
    /// let mut f = Forest::new();
    /// let a = f.add_root(0i64);
    /// let b = f.add_root(1);
    /// f.add_child(a, 2);
    /// let roots: Vec<_> = f.roots().collect();
    /// assert_eq!(roots, vec![a, b]);
    /// ```
    pub fn roots(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.parent
            .iter()
            .enumerate()
            .filter(|(_, &p)| p == NONE)
            .map(|(i, _)| NodeId(i as u32))
    }

    /// Root of the component containing `v`, found by walking parent links.
    pub fn root_of(&self, v: NodeId) -> NodeId {
        let mut u = v.raw();
        while self.parent[u as usize] != NONE {
            u = self.parent[u as usize];
        }
        NodeId(u)
    }

    /// Verifies the structural invariants of the arena (`check` feature):
    /// parallel label/parent arrays of equal length, every parent pointer
    /// in range or `NONE`, and the parent graph acyclic — i.e. every node
    /// is reachable from a root. The arena is append-only (there is no
    /// free list), so these three properties are the whole contract.
    ///
    /// Returns a descriptive [`InvariantError`](crate::check::InvariantError)
    /// for the first violation found. `O(n)`.
    #[cfg(feature = "check")]
    pub fn validate(&self) -> Result<(), crate::check::InvariantError> {
        crate::check::ensure!(
            self.labels.len() == self.parent.len(),
            "label/parent arrays disagree: {} labels vs {} parents",
            self.labels.len(),
            self.parent.len()
        );
        // `euler_of` re-checks parent ranges, then proves acyclicity by
        // counting the nodes its root-down traversal reaches.
        crate::check::euler_of(self).map(|_| ())
    }

    /// The forest's child lists as one CSR, built by a counting sort over
    /// the parent pointers: ids ascend within each parent, so a child's
    /// position in [`ChildCsr::of`] is its sibling slot everywhere — in
    /// the engine, the dynamic layer and the sequential oracle alike.
    /// `O(n)`, two allocations.
    pub(crate) fn child_csr(&self) -> ChildCsr {
        let n = self.len();
        let mut off = vec![0u32; n + 1];
        for &p in &self.parent {
            if p != NONE {
                off[p as usize + 1] += 1;
            }
        }
        for i in 0..n {
            off[i + 1] += off[i];
        }
        let mut kids = vec![0u32; off[n] as usize];
        for (v, &p) in self.parent.iter().enumerate() {
            if p != NONE {
                kids[off[p as usize] as usize] = v as u32;
                off[p as usize] += 1;
            }
        }
        // Placing advanced each `off[p]` to the start of `p + 1`; shift
        // them back instead of keeping a second cursor array.
        off.copy_within(0..n, 1);
        off[0] = 0;
        ChildCsr { off, kids }
    }

    /// Iterative Euler tour from every root over [`Forest::child_csr`].
    /// Every parent pointer must be in range; a node the roots do not
    /// reach (a parent cycle) keeps the empty interval `[0, 0)`. `O(n)`.
    pub(crate) fn euler(&self) -> Euler {
        let n = self.len();
        let children = self.child_csr();
        let mut tin = vec![0u32; n];
        let mut tout = vec![0u32; n];
        let mut root = vec![0u32; n];
        let mut clock = 0u32;
        let mut stack: Vec<(u32, usize)> = Vec::new();
        for r in self.roots() {
            let r = r.raw();
            tin[r as usize] = clock;
            clock += 1;
            root[r as usize] = r;
            stack.push((r, 0));
            while let Some((u, ci)) = stack.last_mut() {
                let u = *u;
                if let Some(&k) = children.of(u).get(*ci) {
                    *ci += 1;
                    tin[k as usize] = clock;
                    clock += 1;
                    root[k as usize] = r;
                    stack.push((k, 0));
                } else {
                    tout[u as usize] = clock;
                    clock += 1;
                    stack.pop();
                }
            }
        }
        Euler { tin, tout, root }
    }
}

/// Euler-tour intervals of a forest plus the component root of every
/// node, built by [`Forest::euler`]: `O(1)` ancestor tests for the query
/// engine and the validators.
#[derive(Clone)]
pub(crate) struct Euler {
    /// Entry time of each node.
    pub tin: Vec<u32>,
    /// Exit time of each node.
    pub tout: Vec<u32>,
    /// Component root of each node.
    pub root: Vec<u32>,
}

impl Euler {
    /// `true` iff `a` is an ancestor of `b` (or equal).
    #[inline]
    pub(crate) fn is_anc(&self, a: u32, b: u32) -> bool {
        self.tin[a as usize] <= self.tin[b as usize]
            && self.tout[b as usize] <= self.tout[a as usize]
    }
}

/// Child lists in flat CSR form, derived by [`Forest::child_csr`]; the
/// forest's parent pointers stay the only stored shape.
pub(crate) struct ChildCsr {
    /// `off[v]..off[v + 1]` is `v`'s range of `kids`; length `n + 1`.
    off: Vec<u32>,
    kids: Vec<u32>,
}

impl ChildCsr {
    /// Children of `v`, ascending by id.
    #[inline]
    pub(crate) fn of(&self, v: u32) -> &[u32] {
        &self.kids[self.off[v as usize] as usize..self.off[v as usize + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_csr_lists_every_non_root_once_under_its_parent_in_id_order() {
        let mut f = crate::gen::random_forest(500, 4, 9);
        // Edits leave no trace of their order: root n3 joins n1 after
        // n1's other children, and n250 becomes a root.
        f.set_parent_raw(3, 1);
        f.set_parent_raw(250, NONE);
        let csr = f.child_csr();
        let mut seen = vec![0u32; f.len()];
        for p in 0..f.len() as u32 {
            let kids = csr.of(p);
            assert!(kids.windows(2).all(|w| w[0] < w[1]), "n{p}: ids ascend");
            for &c in kids {
                assert_eq!(f.parent_raw(c), p, "n{c} listed under n{p}");
                seen[c as usize] += 1;
            }
        }
        for v in f.node_ids() {
            let expect = u32::from(!f.is_root(v));
            assert_eq!(
                seen[v.index()],
                expect,
                "{v} listed {} times",
                seen[v.index()]
            );
        }
        assert_eq!(csr.of(1)[0], 3, "n3 sorts first among n1's children");

        let empty = Forest::<i64>::new().child_csr();
        assert_eq!(empty.off, vec![0]);
        assert!(empty.kids.is_empty());
    }
}
