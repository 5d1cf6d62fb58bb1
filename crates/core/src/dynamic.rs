//! Batch-dynamic forests via change propagation over the contraction trace.
//!
//! [`DynForest`] keeps the full round-stamped death trace of the last
//! contraction and treats it as a dependency DAG (see `propagate.rs`).
//! Edits are applied to the shape immediately but value recomputation is
//! deferred:
//!
//! * **label edits** ([`DynForest::batch_update_weights`]) mark only the
//!   edited nodes. [`DynForest::recompute`] then *replays* just the trace
//!   slots whose inputs changed, round by round: a re-executed rake that
//!   reproduces its recorded contribution cuts the wave off, and every
//!   untouched slot's recorded result is reused verbatim. Cached per-node
//!   child aggregates (flat subtract/re-add parts for invertible algebras,
//!   balanced sibling trees otherwise) make each replayed slot
//!   `O(1)`–`O(log degree)`, so an update batch costs
//!   `O(affected × log)` independent of tree depth *and* node degree —
//!   paths and stars propagate as fast as random trees;
//! * **structural edits** ([`DynForest::batch_cut`],
//!   [`DynForest::batch_link`]) rewire the trace itself. The edit marks
//!   only the node whose children changed; recompute then runs one full
//!   contraction of the new shape (which folds in any pending label edits
//!   too) and marks the replay tables stale. The next label-only
//!   recompute re-anchors — rebuilds the tables from that trace, `O(n)` —
//!   before propagating.
//!
//! The arena's parent pointers are the only stored shape: every pass that
//! needs children derives them with [`Forest::child_csr`], in ascending id
//! order, so sibling order — and with it every ordered algebra's answer —
//! is a function of the current shape alone, never of edit history. The
//! coin seed is fixed at construction, so after every recompute the
//! stored trace is exactly the trace a fresh contraction of the same
//! shape and seed records.
//!
//! Values are resolved lazily from the trace (`O(rounds)` per read, no
//! per-node value cache to keep coherent), which is why reads return
//! values rather than references and why *any* pending edit makes every
//! read stale until [`DynForest::recompute`] runs. Query batches
//! ([`DynForest::query_batch`]) read the same trace, and label recomputes
//! keep the query context cached with it current.

use crate::algebra::Propagate;
use crate::arena::{Forest, NONE};
use crate::engine::Scratch;
use crate::obs::{EngineCounters, NoopSink, Phase, Profile};
use crate::propagate::{resolve_val, Replay};
use crate::query::{
    fold_hop_prefixes, patch_hop_prefixes, resolve_batch, QueryBatch, QueryError, QueryOutcome,
    Shape, Vals,
};
use crate::NodeId;
use std::fmt;
use std::time::Instant;

/// Why a batch edit was rejected by [`DynForest::try_batch_cut`],
/// [`DynForest::try_batch_link`] or
/// [`DynForest::try_batch_update_weights`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EditError {
    /// An edit named a node id that is not in the forest.
    UnknownNode {
        /// The offending id.
        node: NodeId,
        /// Number of nodes in the forest.
        nodes: usize,
    },
    /// A link named a child that is not a component root.
    NotARoot {
        /// The offending child.
        node: NodeId,
    },
    /// A cut named a node that is already a component root.
    AlreadyRoot {
        /// The offending node.
        node: NodeId,
    },
    /// A link would create a cycle: the requested parent lies inside the
    /// child's own subtree.
    WouldCycle {
        /// The child being linked.
        child: NodeId,
        /// The requested parent.
        parent: NodeId,
    },
}

impl fmt::Display for EditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            EditError::UnknownNode { node, nodes } => {
                write!(f, "edit names {node} but the forest has {nodes} nodes")
            }
            EditError::NotARoot { node } => write!(f, "{node} is not a root"),
            EditError::AlreadyRoot { node } => write!(f, "{node} is already a root"),
            EditError::WouldCycle { child, parent } => write!(
                f,
                "linking {child} under {parent} would create a cycle: \
                 parent is inside child's subtree"
            ),
        }
    }
}

impl std::error::Error for EditError {}

/// Statistics returned by [`DynForest::recompute`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdateStats {
    /// Nodes carrying pending edit marks when the recompute started.
    pub dirty: usize,
    /// Total nodes in the forest.
    pub total: usize,
    /// Rake/compress rounds of the contraction a structural batch runs,
    /// or — on the propagation path — the number of distinct trace rounds
    /// the replay wave touched (its depth in the contraction DAG).
    pub rounds: u32,
    /// Trace slots re-executed by this recompute: the affected set of
    /// change propagation, or every node when the recompute contracted
    /// afresh (a structural batch) or re-anchored (the first label batch
    /// after one).
    pub replayed_slots: usize,
    /// Trace slots whose recorded results were reused untouched.
    pub reused_slots: usize,
    /// Per-run engine counters (rakes/splices/finishes/coin rejections,
    /// peak frontier, replayed/reused slots) for this recompute; `Some`
    /// only when profiling is enabled via [`DynForest::enable_profiling`].
    pub counters: Option<EngineCounters>,
}

impl fmt::Display for UpdateStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} of {} nodes marked, {} rounds",
            self.dirty, self.total, self.rounds
        )?;
        if self.replayed_slots + self.reused_slots > 0 {
            write!(
                f,
                " ({} slots replayed, {} reused)",
                self.replayed_slots, self.reused_slots
            )?;
        }
        if let Some(c) = &self.counters {
            write!(
                f,
                " ({} rakes, {} splices, {} finishes, {} coin rejections, peak frontier {})",
                c.rakes, c.splices, c.finishes, c.coin_rejections, c.max_frontier
            )?;
        }
        Ok(())
    }
}

/// A forest supporting batch-dynamic edits with incremental recomputation
/// by change propagation.
///
/// ```
/// use dtc_core::{DynForest, Forest, SubtreeSum};
///
/// let mut f = Forest::new();
/// let r = f.add_root(1i64);
/// let a = f.add_child(r, 2);
/// f.add_child(a, 3);
///
/// let mut d = DynForest::new(f, SubtreeSum);
/// assert_eq!(d.subtree_value(r), 6);
///
/// // Cut `a` off: a structural edit, handled by a fresh contraction.
/// d.batch_cut(&[a]);
/// let stats = d.recompute();
/// assert_eq!(stats.dirty, 1);
/// assert_eq!(stats.replayed_slots, stats.total);
/// assert_eq!(d.subtree_value(r), 1);
/// assert_eq!(d.subtree_value(a), 5);
///
/// // Link it back and bump a weight in the same batch.
/// d.batch_link(&[(a, r)]);
/// d.batch_update_weights(&[(r, 100)]);
/// d.recompute();
/// assert_eq!(d.subtree_value(r), 105);
///
/// // A label-only batch replays just the affected trace slots (the first
/// // one after a structural batch rebuilds the replay tables first).
/// d.batch_update_weights(&[(a, 20)]);
/// let stats = d.recompute();
/// assert!(stats.replayed_slots <= stats.total);
/// assert_eq!(d.subtree_value(r), 123);
/// ```
pub struct DynForest<A: Propagate> {
    alg: A,
    forest: Forest<A::Label>,
    dirty: Vec<bool>,
    dirty_list: Vec<u32>,
    /// `true` once a cut/link landed since the last recompute: the trace
    /// no longer matches the shape, so the next recompute contracts afresh.
    has_structural: bool,
    scratch: Scratch<A>,
    replay: Replay<A>,
    /// Coin seed of every contraction this forest runs; fixed at
    /// construction.
    seed: u64,
    /// Telemetry collector; `Some` once profiling is enabled. Boxed so the
    /// common unprofiled forest stays small.
    profile: Option<Box<Profile>>,
}

impl<A: Propagate> DynForest<A> {
    /// Wraps `forest` and runs the initial full contraction (which also
    /// builds the replay tables, so a freshly constructed forest is ready
    /// to propagate).
    pub fn new(forest: Forest<A::Label>, alg: A) -> Self {
        Self::with_seed(forest, alg, 0xD15EA5E)
    }

    /// Like [`DynForest::new`] with an explicit coin seed (reproducibility).
    pub fn with_seed(forest: Forest<A::Label>, alg: A, seed: u64) -> Self {
        let n = forest.len();
        let mut d = DynForest {
            alg,
            forest,
            dirty: vec![false; n],
            dirty_list: Vec::new(),
            has_structural: false,
            scratch: Scratch::default(),
            replay: Replay::new(),
            seed,
            profile: None,
        };
        d.contract();
        d.replay.rebuild(&d.alg, &d.forest, &d.scratch);
        d
    }

    /// Turns on telemetry collection: every subsequent batch edit and
    /// [`DynForest::recompute`] reports dirty-mark / plan / apply /
    /// propagate spans and per-round counters into an internal
    /// [`Profile`], and [`UpdateStats::counters`] becomes `Some`.
    ///
    /// Idempotent; an already-collected profile is kept. The unprofiled
    /// default pays zero overhead (the engine is compiled with a no-op
    /// sink on that path).
    pub fn enable_profiling(&mut self) {
        if self.profile.is_none() {
            self.profile = Some(Box::default());
        }
    }

    /// `true` once [`DynForest::enable_profiling`] has been called.
    pub fn profiling_enabled(&self) -> bool {
        self.profile.is_some()
    }

    /// The accumulated telemetry report, if profiling is enabled.
    pub fn profile(&self) -> Option<&Profile> {
        self.profile.as_deref()
    }

    /// Detaches and returns the accumulated profile, turning profiling
    /// back off.
    pub fn take_profile(&mut self) -> Option<Profile> {
        self.profile.take().map(|p| *p)
    }

    /// Read access to the underlying forest shape.
    pub fn forest(&self) -> &Forest<A::Label> {
        &self.forest
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.forest.len()
    }

    /// `true` when the forest has no nodes.
    pub fn is_empty(&self) -> bool {
        self.forest.is_empty()
    }

    /// Number of nodes carrying pending edit marks (a label edit marks the
    /// edited node; a cut or link marks the parent whose children
    /// changed).
    pub fn pending(&self) -> usize {
        self.dirty_list.len()
    }

    /// `true` when `v` carries a pending edit mark: it was relabelled, or
    /// a cut or link changed its children. Note that with *any* edit
    /// pending every read is stale (see [`DynForest::try_subtree_value`]),
    /// not only reads of marked nodes.
    pub fn is_dirty(&self, v: NodeId) -> bool {
        self.dirty[v.index()]
    }

    /// Root of the component containing `v`.
    pub fn root_of(&self, v: NodeId) -> NodeId {
        self.forest.root_of(v)
    }

    /// Final subtree value of `v` as of the last recompute, or an error if
    /// edits are pending or `v` is out of range.
    ///
    /// Values resolve lazily from the recorded trace (`O(rounds)` per
    /// read). With edits pending the trace no longer matches the forest,
    /// so *every* read returns `Err(QueryError::Stale)` — label edits
    /// deliberately mark only the edited node, leaving no cheap way to
    /// tell which ancestors a pending edit will reach; the caller must
    /// [`DynForest::recompute`] first.
    pub fn try_subtree_value(&self, v: NodeId) -> Result<A::Val, QueryError> {
        let n = self.forest.len();
        if v.index() >= n {
            return Err(QueryError::UnknownNode { node: v, nodes: n });
        }
        if !self.dirty_list.is_empty() {
            return Err(QueryError::Stale { node: v });
        }
        Ok(resolve_val(&self.alg, &self.scratch.death, v.raw()))
    }

    /// Final subtree value of `v` as of the last recompute.
    ///
    /// # Panics
    /// Panics if edits are pending — call [`DynForest::recompute`] first,
    /// or use [`DynForest::try_subtree_value`] to handle staleness without
    /// panicking.
    pub fn subtree_value(&self, v: NodeId) -> A::Val {
        self.try_subtree_value(v)
            // lint:allow(panic): documented panicking API; try_subtree_value is the fallible form
            .unwrap_or_else(|e| panic!("subtree_value({v}): {e}"))
    }

    /// Aggregate of the component containing `v` (any node of the
    /// component, not just its root), or an error if edits are pending or
    /// `v` is out of range.
    pub fn try_component_value(&self, v: NodeId) -> Result<A::Val, QueryError> {
        let n = self.forest.len();
        if v.index() >= n {
            return Err(QueryError::UnknownNode { node: v, nodes: n });
        }
        self.try_subtree_value(self.forest.root_of(v))
    }

    /// Aggregate of the component rooted at `root`.
    ///
    /// # Panics
    /// Panics if `root` is not a root or edits are pending; see
    /// [`DynForest::try_component_value`] for the non-panicking form.
    pub fn component_value(&self, root: NodeId) -> A::Val {
        assert!(
            self.forest.is_root(root),
            "component_value({root}): not a root"
        );
        self.subtree_value(root)
    }

    /// Marks a single node as edited: a label edit marks the edited node,
    /// a cut or link the parent whose children changed. No path walk is
    /// needed — propagation finds affected ancestors through the trace, and
    /// a structural batch contracts the whole forest anyway.
    fn mark_dirty(&mut self, u: u32) {
        if !self.dirty[u as usize] {
            self.dirty[u as usize] = true;
            self.dirty_list.push(u);
        }
    }

    /// Rejects an id outside the forest before any edit touches it.
    fn known(&self, v: NodeId) -> Result<(), EditError> {
        let n = self.forest.len();
        if v.index() < n {
            Ok(())
        } else {
            Err(EditError::UnknownNode { node: v, nodes: n })
        }
    }

    /// Detaches `v` from its parent after checking that `v` exists and is
    /// not a root; returns the old parent so the cut can be undone.
    fn cut_one(&mut self, v: NodeId) -> Result<u32, EditError> {
        self.known(v)?;
        let p = self.forest.parent_raw(v.raw());
        if p == NONE {
            return Err(EditError::AlreadyRoot { node: v });
        }
        self.forest.set_parent_raw(v.raw(), NONE);
        self.has_structural = true;
        self.mark_dirty(p);
        Ok(p)
    }

    /// Attaches the root `child` under `parent` after validating both ids,
    /// the rootness and the cycle condition.
    fn link_one(&mut self, child: NodeId, parent: NodeId) -> Result<(), EditError> {
        self.known(child)?;
        self.known(parent)?;
        if !self.forest.is_root(child) {
            return Err(EditError::NotARoot { node: child });
        }
        if self.forest.root_of(parent) == child {
            return Err(EditError::WouldCycle { child, parent });
        }
        self.forest.set_parent_raw(child.raw(), parent.raw());
        self.has_structural = true;
        self.mark_dirty(parent.raw());
        Ok(())
    }

    /// Cuts each node in `cuts` from its parent, making it a component
    /// root. Marks each old parent; the next [`DynForest::recompute`]
    /// contracts the new shape afresh.
    ///
    /// Ops apply in order; on the first invalid op
    /// ([`EditError::UnknownNode`] or [`EditError::AlreadyRoot`], including
    /// a node cut twice in the same batch) every already-applied cut is
    /// undone and the forest shape is exactly as before the call.
    /// Dirty marks made along the way are **not** undone — they are merely
    /// conservative (the next [`DynForest::recompute`] refreshes values
    /// that were already correct), never wrong. Rollback only resets parent
    /// pointers, and children are ordered by id, so sibling order after a
    /// failed batch — or after cutting a node and linking it back under its
    /// old parent — is exactly what it was; ordered algebras (see
    /// [`OrderedRake`](crate::OrderedRake)) read the same child order as
    /// [`Forest::sequential_fold`].
    pub fn try_batch_cut(&mut self, cuts: &[NodeId]) -> Result<(), EditError> {
        let mark_start = self.profile.as_ref().map(|_| Instant::now());
        let mut applied: Vec<(NodeId, u32)> = Vec::with_capacity(cuts.len());
        for &v in cuts {
            match self.cut_one(v) {
                Ok(p) => applied.push((v, p)),
                Err(e) => {
                    // Re-attaching a node we just cut is known valid.
                    for &(child, p) in applied.iter().rev() {
                        self.forest.set_parent_raw(child.raw(), p);
                    }
                    self.record_dirty_mark(mark_start);
                    return Err(e);
                }
            }
        }
        self.record_dirty_mark(mark_start);
        Ok(())
    }

    /// Cuts each node in `cuts` from its parent, making it a component root.
    ///
    /// # Panics
    /// Panics if a node is unknown or already a root; use
    /// [`DynForest::try_batch_cut`] for the non-panicking (and
    /// rolled-back) form.
    pub fn batch_cut(&mut self, cuts: &[NodeId]) {
        self.try_batch_cut(cuts)
            // lint:allow(panic): documented panicking API; try_batch_cut is the fallible form
            .unwrap_or_else(|e| panic!("batch_cut: {e}"));
    }

    /// Links each `(child, parent)` pair, attaching the tree rooted at
    /// `child` under `parent`. Marks each new parent; the next
    /// [`DynForest::recompute`] contracts the new shape afresh.
    ///
    /// Each link walks `parent`'s chain to its root to reject cycles, so a
    /// batch costs `O(k × depth)` before any recomputation; the walk is
    /// kept in release builds because an undetected cycle would hang every
    /// later traversal.
    ///
    /// Ops apply in order — later links may legally build on earlier ones
    /// (chaining freshly linked components). On the first invalid op
    /// ([`EditError::UnknownNode`], [`EditError::NotARoot`] or
    /// [`EditError::WouldCycle`]) every already-applied link is undone and
    /// the forest shape is exactly as before the call; dirty marks are not
    /// undone (conservative, never wrong). A linked child takes the
    /// sibling slot its id gives it among `parent`'s children, wherever the
    /// batch placed it.
    pub fn try_batch_link(&mut self, links: &[(NodeId, NodeId)]) -> Result<(), EditError> {
        let mark_start = self.profile.as_ref().map(|_| Instant::now());
        let mut applied: Vec<NodeId> = Vec::with_capacity(links.len());
        for &(child, parent) in links {
            match self.link_one(child, parent) {
                Ok(()) => applied.push(child),
                Err(e) => {
                    // The links already marked their parents; undoing one
                    // only clears the parent pointer it set.
                    for &child in applied.iter().rev() {
                        self.forest.set_parent_raw(child.raw(), NONE);
                    }
                    self.record_dirty_mark(mark_start);
                    return Err(e);
                }
            }
        }
        self.record_dirty_mark(mark_start);
        Ok(())
    }

    /// Links each `(child, parent)` pair, attaching the tree rooted at
    /// `child` under `parent`.
    ///
    /// # Panics
    /// Panics if either id is unknown, if `child` is not a root, or if
    /// `parent` lies inside `child`'s own subtree (which would create a
    /// cycle); use [`DynForest::try_batch_link`] for the non-panicking (and
    /// rolled-back) form.
    pub fn batch_link(&mut self, links: &[(NodeId, NodeId)]) {
        self.try_batch_link(links)
            // lint:allow(panic): documented panicking API; try_batch_link is the fallible form
            .unwrap_or_else(|e| panic!("batch_link: {e}"));
    }

    /// Replaces the labels (weights/operators) of the given nodes. Marks
    /// only the edited nodes: change propagation discovers the affected
    /// ancestors through the trace at [`DynForest::recompute`] time.
    ///
    /// Every id is checked before any label changes, so a batch naming an
    /// unknown node ([`EditError::UnknownNode`]) leaves labels and edit
    /// marks exactly as they were.
    pub fn try_batch_update_weights(
        &mut self,
        updates: &[(NodeId, A::Label)],
    ) -> Result<(), EditError> {
        for (v, _) in updates {
            self.known(*v)?;
        }
        let mark_start = self.profile.as_ref().map(|_| Instant::now());
        for (v, label) in updates {
            self.forest.set_label(*v, label.clone());
            self.mark_dirty(v.raw());
        }
        self.record_dirty_mark(mark_start);
        Ok(())
    }

    /// Replaces the labels (weights/operators) of the given nodes.
    ///
    /// # Panics
    /// Panics if a node is unknown, before changing any label; use
    /// [`DynForest::try_batch_update_weights`] for the non-panicking form.
    pub fn batch_update_weights(&mut self, updates: &[(NodeId, A::Label)]) {
        self.try_batch_update_weights(updates)
            // lint:allow(panic): documented panicking API; try_batch_update_weights is the fallible form
            .unwrap_or_else(|e| panic!("batch_update_weights: {e}"));
    }

    /// Closes a dirty-mark span opened at the top of a batch edit.
    fn record_dirty_mark(&mut self, start: Option<Instant>) {
        if let (Some(t), Some(p)) = (start, &mut self.profile) {
            p.record_span(Phase::DirtyMark, t.elapsed().as_nanos() as u64);
        }
    }

    /// Runs one full contraction of the current forest under the
    /// construction seed, leaving its trace in the scratch, and marks the
    /// replay tables and the query context stale. Returns the round count
    /// and whole-run engine counters.
    fn contract(&mut self) -> (u32, EngineCounters) {
        let DynForest {
            alg,
            forest,
            scratch,
            replay,
            seed,
            profile,
            ..
        } = self;
        let outcome = match profile {
            Some(p) => scratch.contract(alg, forest, *seed, p.as_mut()),
            None => scratch.contract(alg, forest, *seed, &mut NoopSink),
        };
        replay.invalidate();
        (outcome.rounds, outcome.counters)
    }

    /// Clears all pending edit marks.
    fn clear_dirty(&mut self) {
        for &u in &self.dirty_list {
            self.dirty[u as usize] = false;
        }
        self.dirty_list.clear();
    }

    /// Refreshes all values invalidated by pending edits.
    ///
    /// A batch containing a cut or link runs one full contraction of the
    /// new shape, which also folds in the batch's label edits, and marks
    /// the replay tables stale. A label-only batch replays the recorded
    /// trace by change propagation (`O(affected × log)`; see the module
    /// docs); if a structural batch left the tables stale, it first
    /// rebuilds them from the stored trace in `O(n)` — the re-anchor —
    /// and reports every slot replayed. If a query batch has cached the
    /// trace's hop prefixes, a label-only batch also patches them along
    /// the hop lists its edits reach (`O(edits × rounds²)` path folds).
    ///
    /// Either way the stored trace afterwards is the one a fresh
    /// contraction of the current forest under the construction seed
    /// records.
    pub fn recompute(&mut self) -> UpdateStats {
        let n = self.forest.len();
        let edited = self.dirty_list.len();
        if edited == 0 {
            return UpdateStats {
                dirty: 0,
                total: n,
                rounds: 0,
                replayed_slots: 0,
                reused_slots: 0,
                counters: self.profile.is_some().then(EngineCounters::default),
            };
        }

        if self.has_structural {
            let (rounds, counters) = self.contract();
            self.has_structural = false;
            self.clear_dirty();
            return UpdateStats {
                dirty: edited,
                total: n,
                rounds,
                replayed_slots: n,
                reused_slots: 0,
                counters: self.profile.is_some().then_some(counters),
            };
        }

        let DynForest {
            alg,
            forest,
            scratch,
            replay,
            dirty_list,
            profile,
            ..
        } = self;
        let reanchor = !replay.valid;
        if reanchor {
            replay.rebuild(alg, forest, scratch);
        }
        let outcome = match profile {
            Some(p) => replay.propagate(alg, forest, scratch, dirty_list, p.as_mut()),
            None => replay.propagate(alg, forest, scratch, dirty_list, &mut NoopSink),
        };
        // Only a forest that has queried this trace holds prefixes to patch.
        if let (Some(shape), Some(pref)) = (replay.shape.get(), replay.hop_pref.get_mut()) {
            patch_hop_prefixes(forest, &scratch.trace, shape, alg, pref, dirty_list);
        }
        self.clear_dirty();
        let replayed = if reanchor { n } else { outcome.replayed };
        let counters = self.profile.is_some().then(|| EngineCounters {
            rounds: outcome.rounds,
            replayed_slots: replayed as u64,
            reused_slots: (n - replayed) as u64,
            ..EngineCounters::default()
        });
        UpdateStats {
            dirty: edited,
            total: n,
            rounds: outcome.rounds,
            replayed_slots: replayed,
            reused_slots: n - replayed,
            counters,
        }
    }

    /// Resolves a [`QueryBatch`] against the current forest shape.
    ///
    /// Requires a clean forest: with edits pending the recorded trace is
    /// stale, so this returns [`QueryError::PendingEdits`] instead of
    /// silently answering from stale data — call
    /// [`DynForest::recompute`] first.
    ///
    /// The batch is answered straight from the maintained trace: no
    /// contraction runs. The batch context — Euler intervals, component
    /// roots and victim order, then the hop prefixes' `O(victims)` path
    /// folds — is built by the first batch after construction or after a
    /// cut/link recompute. Label-only recomputes keep it and patch the
    /// prefixes, so every later batch costs only `O(log² n)` per query.
    pub fn query_batch(&self, batch: &QueryBatch) -> Result<Vec<QueryOutcome<A>>, QueryError> {
        if !self.dirty_list.is_empty() {
            return Err(QueryError::PendingEdits {
                pending: self.dirty_list.len(),
            });
        }
        // The stored trace describes the current shape whenever no cut or
        // link is pending; values resolve lazily from the death records.
        let s = &self.scratch;
        let shape = self
            .replay
            .shape
            .get_or_init(|| Shape::build(&self.forest, &s.trace));
        let hop_pref = self
            .replay
            .hop_pref
            .get_or_init(|| fold_hop_prefixes(&self.forest, &s.trace, shape, &self.alg));
        let vals = Vals::Deaths(&s.death);
        Ok(resolve_batch(
            &self.forest,
            &s.trace,
            &vals,
            shape,
            hop_pref,
            &self.alg,
            batch,
        ))
    }

    /// Verifies the structural invariants of the dynamic layer
    /// (`check` feature):
    ///
    /// * the underlying arena is well-formed ([`Forest::validate`]) — its
    ///   parent pointers are the only stored shape, so there is no second
    ///   copy to keep symmetric;
    /// * **edit-mark coherence** — `dirty_list` is a duplicate-free
    ///   enumeration of exactly the flagged nodes. (Edit marks are *not*
    ///   upward-closed: an edit marks one node, and change propagation
    ///   finds the ancestors through the trace.)
    /// * a pending cut or link carries at least one edit mark, so every
    ///   read reports staleness until the recompute;
    /// * **stored trace** — unless a cut or link is pending, the
    ///   maintained trace satisfies every rule of
    ///   [`Contraction::validate`](crate::Contraction::validate), and the
    ///   cached query shape, if built, has well-nested Euler intervals;
    /// * **hop prefixes** — with no edit pending, the cached prefix folds,
    ///   if built, equal a fresh fold of the current labels over the
    ///   stored trace, so patching them under label batches lost nothing.
    ///
    /// Returns a descriptive [`InvariantError`](crate::check::InvariantError)
    /// for the first violation. `O(n)` plus one Euler tour and one prefix
    /// fold when the stored trace is checked.
    #[cfg(feature = "check")]
    pub fn validate(&self) -> Result<(), crate::check::InvariantError> {
        use crate::check::ensure;
        self.forest.validate()?;
        let n = self.forest.len();
        ensure!(
            self.dirty.len() == n,
            "dirty flags are not sized to the forest ({n} nodes)"
        );

        let mut in_list = vec![false; n];
        for &u in &self.dirty_list {
            ensure!(
                (u as usize) < n,
                "dirty_list contains out-of-range node {u}"
            );
            ensure!(!in_list[u as usize], "dirty_list lists n{u} twice");
            in_list[u as usize] = true;
            ensure!(
                self.dirty[u as usize],
                "dirty_list lists n{u}, which is not flagged dirty"
            );
        }
        for v in 0..n as u32 {
            let vi = v as usize;
            if self.dirty[vi] {
                ensure!(
                    in_list[vi],
                    "n{v} is flagged dirty but missing from dirty_list"
                );
            }
        }

        ensure!(
            !self.has_structural || !self.dirty_list.is_empty(),
            "a cut or link is pending without an edit mark"
        );

        if !self.has_structural {
            let s = &self.scratch;
            crate::contract::validate_trace(&self.forest, &s.trace, &Vals::Deaths(&s.death))?;
            if let Some(shape) = self.replay.shape.get() {
                shape.check_euler(&self.forest)?;
                let clean = self.dirty_list.is_empty();
                if let Some(pref) = self.replay.hop_pref.get().filter(|_| clean) {
                    let fresh = fold_hop_prefixes(&self.forest, &s.trace, shape, &self.alg);
                    ensure!(
                        pref.len() == fresh.len(),
                        "cached hop prefixes cover {} victims, the trace has {}",
                        pref.len(),
                        fresh.len()
                    );
                    let stale = pref.iter().zip(&fresh).position(|(a, b)| a != b);
                    ensure!(
                        stale.is_none(),
                        "cached hop prefix of victim n{} diverges from a fresh fold",
                        stale.map_or(0, |i| s.trace.hop_victims[i])
                    );
                }
            }
        }
        Ok(())
    }

    /// Verifies (`check` feature) that the maintained trace resolves
    /// every node to exactly the value a fresh contraction of the current
    /// forest computes — the bit-identical guarantee of change
    /// propagation. Requires a clean forest (no pending edits).
    /// `O(n log n)` w.h.p.
    #[cfg(feature = "check")]
    pub fn validate_values(&self) -> Result<(), crate::check::InvariantError> {
        use crate::check::ensure;
        ensure!(
            self.dirty_list.is_empty(),
            "validate_values requires a clean forest ({} edits pending)",
            self.dirty_list.len()
        );
        let c = self
            .forest
            .contraction()
            .seed(crate::rng::splitmix64(!self.seed))
            .run(&self.alg);
        for v in 0..self.forest.len() as u32 {
            let got = resolve_val(&self.alg, &self.scratch.death, v);
            ensure!(
                got == *c.subtree_value(NodeId(v)),
                "propagated value of n{v} diverges from a fresh contraction"
            );
        }
        Ok(())
    }
}

// `DynForest` stays `Send + Sync`: the lazily built query context lives in
// a thread-safe cell, and a `Cell`/`RefCell` cache would fail this build.
const _: () = {
    fn _assert<T: Send + Sync>() {}
    fn _dyn_forest_is_send_sync() {
        _assert::<DynForest<crate::MinMax>>();
    }
};

impl<A: Propagate> Clone for DynForest<A> {
    fn clone(&self) -> Self {
        DynForest {
            alg: self.alg.clone(),
            forest: self.forest.clone(),
            dirty: self.dirty.clone(),
            dirty_list: self.dirty_list.clone(),
            has_structural: self.has_structural,
            // The scratch carries the live trace and the replay tables
            // index into it, so both clone — a cloned forest is
            // immediately ready to propagate (benchmarks rely on this).
            scratch: self.scratch.clone(),
            replay: self.replay.clone(),
            seed: self.seed,
            profile: self.profile.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gen, MinMax};

    #[test]
    fn query_batches_read_the_stored_trace_only_while_it_is_coherent() {
        let mut d = DynForest::new(gen::random_tree(2_000, 5), MinMax);
        let (a, b) = (NodeId(17), NodeId(1_234));
        let mut batch = QueryBatch::new();
        batch.subtree(a).path(a, b).lca(a, b).component_value(b);
        let fresh_answers = |d: &DynForest<MinMax>| {
            let c = d.forest().contraction().seed(d.seed).run(&MinMax);
            c.query_batch(d.forest(), &MinMax, &batch).unwrap()
        };

        assert!(d.replay.shape.get().is_none(), "shape is built lazily");
        let fresh = d.query_batch(&batch).unwrap();
        assert!(
            d.replay.shape.get().is_some(),
            "first batch caches the shape"
        );

        d.batch_update_weights(&[(a, 1 << 40), (b, -(1 << 40))]);
        d.recompute();
        assert!(
            d.replay.shape.get().is_some(),
            "label batches keep the shape"
        );
        let propagated = d.query_batch(&batch).unwrap();
        assert_ne!(fresh, propagated, "answers follow the new labels");
        assert_eq!(propagated, fresh_answers(&d));

        let cut = d.forest().parent(b).map_or(a, |_| b);
        d.batch_cut(&[cut]);
        assert!(d.query_batch(&batch).is_err(), "cut pending");
        d.recompute();
        assert!(
            d.replay.shape.get().is_none(),
            "a cut recompute drops the old shape"
        );
        assert!(!d.replay.valid, "and leaves the replay tables stale");
        assert_eq!(d.query_batch(&batch).unwrap(), fresh_answers(&d));
        assert!(
            d.replay.shape.get().is_some(),
            "the batch read the stored trace and cached its shape"
        );

        d.batch_update_weights(&[(a, 9)]);
        d.recompute();
        assert!(d.replay.valid, "the label batch re-anchored");
        assert!(
            d.replay.shape.get().is_some(),
            "re-anchoring keeps the shape of the unchanged trace"
        );
        assert_eq!(d.query_batch(&batch).unwrap(), fresh_answers(&d));
        let e = d.clone();
        assert_eq!(e.query_batch(&batch).unwrap(), fresh_answers(&d));
    }

    #[test]
    fn hop_prefix_cache_follows_queries_label_batches_and_cuts() {
        // The cache equals a fresh fold of the current labels over a
        // freshly built shape of the stored trace.
        fn assert_patched(d: &DynForest<MinMax>, when: &str) {
            let cached = d.replay.hop_pref.get();
            let cached = cached.unwrap_or_else(|| panic!("{when}: cache is built"));
            let shape = Shape::build(&d.forest, &d.scratch.trace);
            let fresh = fold_hop_prefixes(&d.forest, &d.scratch.trace, &shape, &MinMax);
            assert!(*cached == fresh, "{when}: cache equals a fresh fold");
        }

        for f in [gen::path(3_000, 8), gen::random_tree(3_000, 9)] {
            let mut d = DynForest::new(f, MinMax);
            let mut batch = QueryBatch::new();
            batch.path(NodeId(5), NodeId(2_900)).subtree(NodeId(7));

            d.batch_update_weights(&[(NodeId(5), 3)]);
            d.recompute();
            assert!(
                d.replay.hop_pref.get().is_none(),
                "label batches without a query build nothing"
            );
            d.query_batch(&batch).unwrap();
            assert_patched(&d, "first query");

            for k in 0..4u32 {
                let edits: Vec<(NodeId, i64)> = (0..16)
                    .map(|i| (NodeId((k * 701 + i * 181) % 3_000), i64::from(k + i)))
                    .collect();
                d.batch_update_weights(&edits);
                d.recompute();
                assert_patched(&d, "label batch");
            }

            d.batch_cut(&[NodeId(1_500)]);
            d.recompute();
            assert!(
                d.replay.hop_pref.get().is_none(),
                "a cut recompute drops the cache"
            );
            d.query_batch(&batch).unwrap();
            d.batch_link(&[(NodeId(1_500), NodeId(0))]);
            d.recompute();
            assert!(
                d.replay.hop_pref.get().is_none(),
                "a link recompute drops the cache"
            );
            d.query_batch(&batch).unwrap();
            d.batch_update_weights(&[(NodeId(1_499), -7), (NodeId(2_999), 40)]);
            assert_eq!(d.recompute().replayed_slots, d.len(), "re-anchor");
            assert_patched(&d, "re-anchoring label batch");

            let mut e = d.clone();
            assert!(e.replay.hop_pref.get().is_some(), "a clone carries it");
            e.batch_update_weights(&[(NodeId(2_000), 99)]);
            e.recompute();
            assert_patched(&e, "clone's label batch");
            assert_patched(&d, "original after the clone's batch");
        }
    }

    #[test]
    fn stored_trace_is_a_fresh_contraction_under_the_construction_seed() {
        fn assert_fresh(d: &DynForest<MinMax>, when: &str) {
            let t = &d.scratch.trace;
            let c = d.forest().contraction().seed(d.seed).run(&MinMax);
            let death_round: Vec<u32> = d.forest().node_ids().map(|v| c.death_round(v)).collect();
            assert_eq!(t.up, c.trace.up, "{when}: up");
            assert_eq!(t.death_round, death_round, "{when}: death rounds");
            assert_eq!(t.hop_off, c.trace.hop_off, "{when}: hop offsets");
            assert_eq!(t.hop_victims, c.trace.hop_victims, "{when}: hop victims");
        }

        let mut d = DynForest::new(gen::random_tree(3_000, 21), MinMax);
        let seed = d.seed;
        assert_fresh(&d, "after new");

        let v = NodeId(1_500);
        let old = d.forest().parent(v).expect("n1500 is not a root");
        d.batch_cut(&[v]);
        d.recompute();
        assert_fresh(&d, "after the cut recompute");
        let target = d.root_of(old);
        assert_ne!(target, old, "the link moves n1500 to a new parent");
        d.batch_link(&[(v, target)]);
        d.recompute();
        assert_fresh(&d, "after the link recompute");
        d.batch_update_weights(&[(NodeId(3), 11)]);
        let stats = d.recompute();
        assert_eq!(
            stats.replayed_slots, stats.total,
            "the label batch re-anchors"
        );
        assert_eq!(d.seed, seed, "recomputes keep the construction seed");
        assert_fresh(&d, "after the re-anchor");
    }
}
