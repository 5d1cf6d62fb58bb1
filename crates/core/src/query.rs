//! Batch query engine over the recorded contraction trace.
//!
//! A [`QueryBatch`] resolves thousands of heterogeneous queries — subtree
//! aggregates, path aggregates, LCAs, component roots/values — against one
//! contraction trace in a **single pass** over the contraction DAG,
//! instead of walking the tree once per query. The trace is either a
//! finished [`Contraction`] or the one a [`DynForest`](crate::DynForest)
//! keeps up to date under edits; both are read as one label-independent
//! trace plus a value source and answered by one resolver.
//!
//! The enabling observation: the engine records, for every node, its
//! *working parent at death* ([`Contraction::trace_parent`]). Those
//! pointers form a shortcut tree of depth ≤ rounds (`O(log n)` w.h.p.),
//! and each shortcut hop `x → up(x)` skips the chain of `x`'s successive
//! working parents that were compressed out from directly above it — its
//! *victims*, which the trace records bottom-to-top. The skipped gap is
//! recursive: between two consecutive victims of `x` lie the earlier
//! victim's own victims, and so on. Since a victim always dies strictly
//! before its host, the nesting depth is bounded by the round count, so
//! any point of the original ancestor path is reachable by `O(log n)`
//! shortcut hops plus an `O(log n)`-deep descent through nested victim
//! lists. Everything a query needs is a walk of that structure:
//!
//! * **component root / value** — precomputed for all nodes in the single
//!   context pass, then `O(1)` per query;
//! * **LCA(u, v)** — climb `u`'s shortcut chain to the first hop whose top
//!   is an ancestor of `v` (constant-time ancestor tests via Euler
//!   intervals from the context pass), then descend: binary-search each
//!   victim list for the lowest ancestor of `v` and recurse into the gap
//!   just below it — the first node of `u`'s ancestor path that is also
//!   an ancestor of `v` *is* the LCA;
//! * **path aggregate** — fold labels along both climbs to the LCA. The
//!   context pass precomputes every victim's *closed weight* (its label
//!   joined with its entire recursive gap) and per-hop prefix folds of
//!   those, so a full hop contributes in `O(1)` and the final partial hop
//!   in an `O(log²)` descent. Requires a [`PathAlgebra`].
//!
//! The context pass has two parts. The *shape part* — Euler intervals,
//! component roots, and the victims' hosts in death-round order — is one
//! `O(n)` pass that depends only on the forest shape and the trace. The
//! *label part* — the closed weights' prefix folds — is `O(victims)` path
//! folds. [`Contraction::query_batch`] builds both per batch, so a
//! 1k-query batch on a 100k-node path costs ~`n` work where 1k naive
//! walks would cost ~`n · k`. A [`DynForest`](crate::DynForest) caches the
//! shape part with its trace, so a repeated batch pays only the label
//! part plus `O(log² n)` per query. Queries resolve one after another, in
//! batch order.
//!
//! The API is uniformly non-panicking: per-query failures (unknown node
//! ids) come back as per-query `Err`s, cross-component path/LCA queries
//! answer [`Answer::NotConnected`], and batch-level misuse (mismatched
//! forest, stale [`DynForest`](crate::DynForest)) is a batch-level `Err`.
//!
//! ```
//! use dtc_core::{gen, Answer, Query, QueryBatch, SubtreeSum};
//! let f = gen::random_tree(1_000, 7);
//! let c = f.contraction().run(&SubtreeSum);
//! let mut batch = QueryBatch::new();
//! batch
//!     .subtree(dtc_core::NodeId::from_index(10))
//!     .lca(dtc_core::NodeId::from_index(5), dtc_core::NodeId::from_index(900))
//!     .path(dtc_core::NodeId::from_index(5), dtc_core::NodeId::from_index(900));
//! let answers = c.query_batch(&f, &SubtreeSum, &batch).unwrap();
//! assert_eq!(answers.len(), 3);
//! assert!(matches!(answers[1], Ok(Answer::Node(_))));
//! ```

use crate::algebra::{Algebra, PathAlgebra};
use crate::arena::{Euler, Forest, NONE};
use crate::contract::Contraction;
use crate::engine::{Death, Trace};
use crate::propagate::resolve_val;
use crate::NodeId;
use std::fmt;

/// One query against a contracted forest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Query {
    /// Aggregate of the subtree rooted at the node →
    /// [`Answer::Value`].
    Subtree(NodeId),
    /// Fold of the labels on the tree path between the two nodes
    /// (inclusive) → [`Answer::PathValue`], or [`Answer::NotConnected`].
    Path(NodeId, NodeId),
    /// Lowest common ancestor of the two nodes → [`Answer::Node`], or
    /// [`Answer::NotConnected`].
    Lca(NodeId, NodeId),
    /// Root of the node's component → [`Answer::Node`].
    ComponentRoot(NodeId),
    /// Aggregate of the node's whole component → [`Answer::Value`].
    ComponentValue(NodeId),
}

/// A batch of mixed queries, resolved together by
/// [`Contraction::query_batch`] or
/// [`DynForest::query_batch`](crate::DynForest::query_batch).
#[derive(Debug, Clone, Default)]
pub struct QueryBatch {
    queries: Vec<Query>,
}

impl QueryBatch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty batch with room for `n` queries.
    pub fn with_capacity(n: usize) -> Self {
        QueryBatch {
            queries: Vec::with_capacity(n),
        }
    }

    /// Appends an arbitrary [`Query`].
    pub fn push(&mut self, q: Query) -> &mut Self {
        self.queries.push(q);
        self
    }

    /// Appends a [`Query::Subtree`].
    pub fn subtree(&mut self, v: NodeId) -> &mut Self {
        self.push(Query::Subtree(v))
    }

    /// Appends a [`Query::Path`].
    pub fn path(&mut self, u: NodeId, v: NodeId) -> &mut Self {
        self.push(Query::Path(u, v))
    }

    /// Appends a [`Query::Lca`].
    pub fn lca(&mut self, u: NodeId, v: NodeId) -> &mut Self {
        self.push(Query::Lca(u, v))
    }

    /// Appends a [`Query::ComponentRoot`].
    pub fn component_root(&mut self, v: NodeId) -> &mut Self {
        self.push(Query::ComponentRoot(v))
    }

    /// Appends a [`Query::ComponentValue`].
    pub fn component_value(&mut self, v: NodeId) -> &mut Self {
        self.push(Query::ComponentValue(v))
    }

    /// Number of queries in the batch.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// `true` when the batch holds no queries.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// The queries, in insertion order (answers come back in this order).
    pub fn queries(&self) -> &[Query] {
        &self.queries
    }
}

impl FromIterator<Query> for QueryBatch {
    fn from_iter<I: IntoIterator<Item = Query>>(iter: I) -> Self {
        QueryBatch {
            queries: iter.into_iter().collect(),
        }
    }
}

impl Extend<Query> for QueryBatch {
    fn extend<I: IntoIterator<Item = Query>>(&mut self, iter: I) {
        self.queries.extend(iter);
    }
}

/// Successful answer to one [`Query`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Answer<V, P> {
    /// A subtree or component aggregate.
    Value(V),
    /// A path aggregate.
    PathValue(P),
    /// A node (LCA or component root).
    Node(NodeId),
    /// The two endpoints of a [`Query::Path`] / [`Query::Lca`] lie in
    /// different components.
    NotConnected,
}

/// Why a query (or a whole batch) could not be answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryError {
    /// The query names a node id outside the forest.
    UnknownNode {
        /// The offending id.
        node: NodeId,
        /// Number of nodes in the forest.
        nodes: usize,
    },
    /// The node's cached value is stale (pending edits not yet
    /// recomputed); call [`DynForest::recompute`](crate::DynForest::recompute).
    Stale {
        /// The dirty node.
        node: NodeId,
    },
    /// The [`DynForest`](crate::DynForest) has pending edits; call
    /// [`recompute`](crate::DynForest::recompute) before querying.
    PendingEdits {
        /// Nodes currently marked dirty.
        pending: usize,
    },
    /// The forest passed to [`Contraction::query_batch`] is not the one
    /// that was contracted (node counts differ).
    ForestMismatch {
        /// Nodes in the forest argument.
        forest_nodes: usize,
        /// Nodes in the contraction.
        contraction_nodes: usize,
    },
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            QueryError::UnknownNode { node, nodes } => {
                write!(f, "query names {node} but the forest has {nodes} nodes")
            }
            QueryError::Stale { node } => {
                write!(f, "{node} has pending updates; call recompute()")
            }
            QueryError::PendingEdits { pending } => {
                write!(
                    f,
                    "forest has {pending} nodes with pending updates; call recompute()"
                )
            }
            QueryError::ForestMismatch {
                forest_nodes,
                contraction_nodes,
            } => write!(
                f,
                "forest has {forest_nodes} nodes but the contraction covered {contraction_nodes}"
            ),
        }
    }
}

impl std::error::Error for QueryError {}

/// Per-query result type of a batch resolution under algebra `A`.
pub type QueryOutcome<A> =
    Result<Answer<<A as Algebra>::Val, <A as PathAlgebra>::PathVal>, QueryError>;

/// Where the resolver reads final subtree values from, next to the
/// label-independent [`Trace`] of the same run: a finished
/// [`Contraction`]'s or the one a [`DynForest`](crate::DynForest)
/// maintains, so both answer queries through the same code.
pub(crate) enum Vals<'a, A: Algebra> {
    /// Solved per-node values ([`Contraction::values`]).
    Solved(&'a [A::Val]),
    /// The death records of a maintained trace, resolved lazily with
    /// [`resolve_val`] (`O(rounds)` per read).
    Deaths(&'a [Death<A>]),
}

impl<A: Algebra> Vals<'_, A> {
    /// Final subtree value of `v`.
    fn get(&self, alg: &A, v: u32) -> A::Val {
        match self {
            Vals::Solved(vals) => vals[v as usize].clone(),
            Vals::Deaths(death) => resolve_val(alg, death, v),
        }
    }

    /// Number of nodes the value source covers.
    #[cfg(feature = "check")]
    pub(crate) fn len(&self) -> usize {
        match self {
            Vals::Solved(vals) => vals.len(),
            Vals::Deaths(death) => death.len(),
        }
    }
}

/// The label-independent part of a batch context: one `O(n)` pass over
/// the forest shape and the trace. It stays valid while neither changes,
/// so [`DynForest`](crate::DynForest) builds it once per trace and every
/// later batch only pays for [`build_ctx`].
#[derive(Clone)]
pub(crate) struct Shape {
    /// Euler intervals and component roots of the forest.
    euler: Euler,
    /// For every victim, the node whose hop list holds it (`NONE` for
    /// nodes that were never spliced out).
    host: Vec<u32>,
    /// Positions in `hop_victims`, in ascending death round of the victim
    /// they hold.
    order: Vec<u32>,
}

impl Shape {
    /// Euler tour of `forest` plus the victims' hosts and death-round
    /// order from `t`.
    pub(crate) fn build<L>(forest: &Forest<L>, t: &Trace) -> Shape {
        let n = forest.len();
        let mut host = vec![NONE; n];
        for x in 0..n as u32 {
            for &vt in t.victims(x) {
                host[vt as usize] = x;
            }
        }
        // Counting sort of the victim positions by death round.
        let round = |vt: u32| t.death_round[vt as usize] as usize;
        let rounds = t.hop_victims.iter().map(|&vt| round(vt)).max();
        let mut next = vec![0u32; rounds.map_or(1, |r| r + 2)];
        for &vt in &t.hop_victims {
            next[round(vt) + 1] += 1;
        }
        for r in 1..next.len() {
            next[r] += next[r - 1];
        }
        let mut order = vec![0u32; t.hop_victims.len()];
        for (i, &vt) in t.hop_victims.iter().enumerate() {
            let slot = &mut next[round(vt)];
            order[*slot as usize] = i as u32;
            *slot += 1;
        }

        let shape = Shape {
            euler: forest.euler(),
            host,
            order,
        };
        #[cfg(feature = "check")]
        if let Err(e) = shape.check_euler(forest) {
            crate::check::invariant!(false, "{}", e.message());
        }
        shape
    }

    /// Euler-interval nesting sweep (`check` feature): the intervals are
    /// sized to `forest`, every interval is non-empty and every non-root's
    /// interval lies strictly inside its parent's — the property the
    /// batch engine's `O(1)` ancestor tests and victim-list binary
    /// searches rest on. `O(n)`.
    #[cfg(feature = "check")]
    pub(crate) fn check_euler<L>(
        &self,
        forest: &Forest<L>,
    ) -> Result<(), crate::check::InvariantError> {
        use crate::check::ensure;
        let n = forest.len();
        ensure!(
            self.euler.tin.len() == n && self.euler.tout.len() == n && self.euler.root.len() == n,
            "Euler intervals are not sized to the forest ({n} nodes)"
        );
        for v in 0..n as u32 {
            let vi = v as usize;
            ensure!(
                self.euler.tin[vi] < self.euler.tout[vi],
                "Euler interval of n{v} is empty or inverted"
            );
            let p = forest.parent_raw(v);
            if p != NONE {
                let pi = p as usize;
                ensure!(
                    self.euler.tin[pi] < self.euler.tin[vi]
                        && self.euler.tout[vi] < self.euler.tout[pi],
                    "Euler interval of n{v} is not nested inside its parent n{p}"
                );
            }
        }
        Ok(())
    }
}

/// Per-batch context: the shape part plus the label-dependent prefix
/// folds, shared by every query in the batch.
struct Ctx<'s, P> {
    shape: &'s Shape,
    /// Prefix folds of victim *closed weights* (label ⊕ entire recursive
    /// gap) within each hop's victim segment, aligned with `hop_victims`.
    hop_pref: Vec<P>,
}

/// The label part of a batch context: `O(victims)` path folds.
///
/// The closed weight of a victim `y` is `C(y) = label(y) ⊕ G(y)`, where
/// `G(y)` folds the closed weights of y's own victims — everything
/// strictly between y and its host's shortcut parent, recursively. `G(y)`
/// is exactly the last prefix of y's own segment. A victim dies strictly
/// before its host and strictly after its predecessor in the host's list,
/// so one sweep in ascending death round finds both prefixes it reads
/// already complete.
fn build_ctx<'s, A: PathAlgebra>(
    forest: &Forest<A::Label>,
    t: &Trace,
    shape: &'s Shape,
    alg: &A,
) -> Ctx<'s, A::PathVal> {
    let mut hop_pref: Vec<A::PathVal> = vec![alg.path_empty(); t.hop_victims.len()];
    for &i in &shape.order {
        let i = i as usize;
        let y = t.hop_victims[i];
        let (lo, hi) = t.hop(y);
        let mut closed = alg.path_of(forest.label(NodeId(y)));
        if hi > lo {
            closed = alg.path_concat(&closed, &hop_pref[hi - 1]);
        }
        let first = t.hop_off[shape.host[y as usize] as usize] as usize;
        hop_pref[i] = if i > first {
            alg.path_concat(&hop_pref[i - 1], &closed)
        } else {
            closed
        };
    }
    Ctx { shape, hop_pref }
}

/// Lowest common ancestor via the shortcut chain: climb from `u` until the
/// hop's top is an ancestor of `v`; the LCA then lies in that hop's gap
/// (or is the hop top itself). Within a victim list, "is an ancestor of
/// `v`" is monotone bottom-to-top, so binary-search the first ancestor —
/// but the true LCA may sit *inside* the recursive gap just below it, so
/// descend into the preceding victim's own list and repeat. Each descent
/// moves to a strictly earlier death round, bounding the depth by the
/// round count.
fn lca_raw(t: &Trace, s: &Shape, u: u32, v: u32) -> Option<u32> {
    if s.euler.root[u as usize] != s.euler.root[v as usize] {
        return None;
    }
    if s.euler.is_anc(u, v) {
        return Some(u);
    }
    if s.euler.is_anc(v, u) {
        return Some(v);
    }
    let mut x = u;
    let mut fallback = loop {
        let nxt = t.up[x as usize];
        debug_assert!(nxt != NONE, "climb passed the component root");
        if s.euler.is_anc(nxt, v) {
            break nxt;
        }
        x = nxt;
    };
    // The LCA is the lowest ancestor of `v` in gap(x) ∪ {fallback}.
    loop {
        let seg = t.victims(x);
        let idx = seg.partition_point(|&vt| !s.euler.is_anc(vt, v));
        if idx == 0 {
            // Nothing lies strictly between a node and its first victim
            // (resp. its shortcut parent, when the list is empty).
            return Some(if seg.is_empty() { fallback } else { seg[0] });
        }
        if idx < seg.len() {
            fallback = seg[idx];
        }
        x = seg[idx - 1];
    }
}

/// Fold of the labels on `[u, w)` — `u` inclusive, the ancestor `w`
/// exclusive — along the shortcut chain; `None` when `u == w`. Full hops
/// cost `O(1)` via the closed-weight prefix aggregates; once `w` falls
/// within a hop's gap, descend through the nested victim lists. All
/// chain nodes are ancestors of `u` and hence pairwise comparable, so
/// "strictly below `w`" is just an Euler `tin` comparison, monotone along
/// each victim list (which ascends the tree, i.e. has decreasing `tin`).
fn seg_to_excl<A: PathAlgebra>(
    forest: &Forest<A::Label>,
    t: &Trace,
    ctx: &Ctx<'_, A::PathVal>,
    alg: &A,
    u: u32,
    w: u32,
) -> Option<A::PathVal> {
    if u == w {
        return None;
    }
    let s = ctx.shape;
    let mut x = u;
    let mut acc = alg.path_of(forest.label(NodeId(u)));
    // Climb full hops while `w` is above the hop top.
    loop {
        let nxt = t.up[x as usize];
        debug_assert!(nxt != NONE, "segment climb passed the component root");
        let (lo, hi) = t.hop(x);
        if nxt == w {
            // The whole gap lies strictly below `w`.
            if hi > lo {
                acc = alg.path_concat(&acc, &ctx.hop_pref[hi - 1]);
            }
            return Some(acc);
        }
        if s.euler.is_anc(nxt, w) {
            // `w` sits strictly inside gap(x): stop climbing and descend.
            break;
        }
        if hi > lo {
            acc = alg.path_concat(&acc, &ctx.hop_pref[hi - 1]);
        }
        acc = alg.path_concat(&acc, &alg.path_of(forest.label(NodeId(nxt))));
        x = nxt;
    }
    // `w` is strictly between `x` and `up[x]`; fold the part of the gap
    // below `w`, descending into nested victim lists as needed.
    loop {
        let (lo, hi) = t.hop(x);
        let seg = &t.hop_victims[lo..hi];
        // Victims strictly below `w` (deeper ⇒ larger tin on a chain).
        let idx = seg.partition_point(|&vt| s.euler.tin[vt as usize] > s.euler.tin[w as usize]);
        if idx < seg.len() && seg[idx] == w {
            // Everything below `w` in this gap: the closed prefix.
            if idx > 0 {
                acc = alg.path_concat(&acc, &ctx.hop_pref[lo + idx - 1]);
            }
            return Some(acc);
        }
        // `w` nests inside the gap of the victim just below it. `idx ≥ 1`:
        // nothing lies strictly between `x` and its first victim, so `w`
        // below `seg[0]` is impossible here.
        debug_assert!(idx >= 1, "exclusive bound escaped the gap");
        if idx >= 2 {
            acc = alg.path_concat(&acc, &ctx.hop_pref[lo + idx - 2]);
        }
        acc = alg.path_concat(&acc, &alg.path_of(forest.label(NodeId(seg[idx - 1]))));
        x = seg[idx - 1];
    }
}

fn resolve_one<A: PathAlgebra>(
    forest: &Forest<A::Label>,
    t: &Trace,
    vals: &Vals<'_, A>,
    ctx: &Ctx<'_, A::PathVal>,
    alg: &A,
    q: &Query,
) -> QueryOutcome<A> {
    let n = forest.len();
    let check = |v: NodeId| -> Result<u32, QueryError> {
        if v.index() < n {
            Ok(v.raw())
        } else {
            Err(QueryError::UnknownNode { node: v, nodes: n })
        }
    };
    let s = ctx.shape;
    match *q {
        Query::Subtree(v) => {
            let v = check(v)?;
            Ok(Answer::Value(vals.get(alg, v)))
        }
        Query::ComponentRoot(v) => {
            let v = check(v)?;
            Ok(Answer::Node(NodeId(s.euler.root[v as usize])))
        }
        Query::ComponentValue(v) => {
            let v = check(v)?;
            Ok(Answer::Value(vals.get(alg, s.euler.root[v as usize])))
        }
        Query::Lca(u, v) => {
            let (u, v) = (check(u)?, check(v)?);
            Ok(match lca_raw(t, s, u, v) {
                Some(w) => Answer::Node(NodeId(w)),
                None => Answer::NotConnected,
            })
        }
        Query::Path(u, v) => {
            let (u, v) = (check(u)?, check(v)?);
            let Some(w) = lca_raw(t, s, u, v) else {
                return Ok(Answer::NotConnected);
            };
            let mut agg = alg.path_of(forest.label(NodeId(w)));
            if let Some(seg) = seg_to_excl(forest, t, ctx, alg, u, w) {
                agg = alg.path_concat(&agg, &seg);
            }
            if let Some(seg) = seg_to_excl(forest, t, ctx, alg, v, w) {
                agg = alg.path_concat(&agg, &seg);
            }
            Ok(Answer::PathValue(agg))
        }
    }
}

/// Resolves every query of `batch` against the trace `t` of `forest` and
/// its values `vals`; the shape part `shape` was built from the same
/// forest and trace. The one resolver behind both
/// [`Contraction::query_batch`] and
/// [`DynForest::query_batch`](crate::DynForest::query_batch).
pub(crate) fn resolve_batch<A: PathAlgebra>(
    forest: &Forest<A::Label>,
    t: &Trace,
    vals: &Vals<'_, A>,
    shape: &Shape,
    alg: &A,
    batch: &QueryBatch,
) -> Vec<QueryOutcome<A>> {
    let ctx = build_ctx(forest, t, shape, alg);
    batch
        .queries()
        .iter()
        .map(|q| resolve_one(forest, t, vals, &ctx, alg, q))
        .collect()
}

impl<A: Algebra> Contraction<A> {
    /// Resolves a whole [`QueryBatch`] in one pass over the recorded
    /// contraction trace.
    ///
    /// `forest` must be the forest this contraction was computed from, and
    /// `alg` the same algebra (both are needed for labels and path folds;
    /// a node-count mismatch is rejected with
    /// [`QueryError::ForestMismatch`]).
    ///
    /// Answers come back in query order. Per-query problems (unknown ids)
    /// surface as per-query `Err`s; path/LCA queries across components
    /// answer [`Answer::NotConnected`]. Nothing panics.
    pub fn query_batch(
        &self,
        forest: &Forest<A::Label>,
        alg: &A,
        batch: &QueryBatch,
    ) -> Result<Vec<QueryOutcome<A>>, QueryError>
    where
        A: PathAlgebra,
    {
        let n = self.values().len();
        if forest.len() != n {
            return Err(QueryError::ForestMismatch {
                forest_nodes: forest.len(),
                contraction_nodes: n,
            });
        }
        let shape = Shape::build(forest, &self.trace);
        let vals = Vals::Solved(self.values());
        Ok(resolve_batch(
            forest,
            &self.trace,
            &vals,
            &shape,
            alg,
            batch,
        ))
    }
}
