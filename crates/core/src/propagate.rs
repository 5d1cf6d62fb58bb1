//! Change propagation over the recorded contraction trace.
//!
//! The round-stamped death trace left behind by a full contraction is a
//! dependency DAG: every rake delivered a contribution to the victim's
//! working parent, and every splice folded a victim's unary function into
//! the surviving chain. The run itself records the hop lists of the splice
//! chains; [`Replay`] adds, for every node, an aggregate of its children's
//! contributions, and then re-executes **only the slots whose inputs
//! changed** when a batch of label edits lands:
//!
//! 1. every edited node is seeded into a priority queue keyed by its death
//!    round;
//! 2. slots drain in ascending death round. A raked slot re-runs its fold;
//!    if the recomputed contribution equals the recorded one (its edge
//!    function applied to its recorded value) the wave *cuts off*,
//!    otherwise the parent's child-aggregate is patched and the
//!    parent is scheduled. A compressed slot schedules its surviving child
//!    with a pending *refold* (the chain's composed functions are
//!    re-derived bottom-to-top). A root slot re-finishes its value.
//!
//! Because rake victims die strictly before their targets and splice
//! victims strictly before their survivors, every dependency points to a
//! strictly later death round: the single ascending drain processes each
//! slot at most once, and a wave dies out after `O(rounds)` hops — the
//! depth-independence the static round structure was recorded for.
//!
//! Child aggregates come in two flavours, chosen by
//! [`Propagate::INVERTIBLE`]:
//!
//! * **flat** — invertible algebras (e.g. [`SubtreeSum`](crate::SubtreeSum))
//!   keep one merged `Part` per node and patch a changed child by
//!   subtract/re-add in `O(1)`;
//! * **sibling tree** — non-invertible algebras keep a balanced binary
//!   tree over the child slots ([`SibTrees`]) and replay an `O(log degree)`
//!   leaf-to-root path, so even a 10⁵-ary star patches one child without
//!   refolding the other 10⁵ − 1.

use crate::algebra::{Algebra, Propagate};
use crate::arena::Forest;
use crate::engine::{Death, Scratch, Trace};
use crate::obs::{Phase, Sink};
use crate::query::Shape;
use crate::NodeId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::OnceLock;
use std::time::Instant;

/// Resolves the final subtree value of `v` from the death trace alone.
///
/// A raked node and a finished root knew their value at death; a
/// compressed node's value is its recorded unary function applied to the
/// value of the child that outlived it. Because working parents strictly
/// outlive their children, the chain has at most one hop per contraction
/// round: `O(rounds)` per call, no per-node value cache to keep coherent.
pub(crate) fn resolve_val<A: Algebra>(alg: &A, death: &[Death<A>], v: u32) -> A::Val {
    let mut f = alg.identity();
    let mut u = v as usize;
    loop {
        match &death[u] {
            Death::Raked(val) | Death::Root(val) => return alg.apply(&f, val.clone()),
            Death::Compressed { child, fun } => {
                f = alg.compose(&f, fun);
                u = *child as usize;
            }
            // lint:allow(panic): resolution only runs on completed traces, where every node carries a death record
            Death::None => unreachable!("resolve_val on a node without a death record"),
        }
    }
}

/// Balanced sibling-accumulation trees over every node's child slots,
/// stored back to back in one array.
///
/// Node `u`'s tree is the slice `nodes[off[u]..off[u + 1]]`, a 1-based
/// heap-shaped array: leaves live at `size + slot` (padded to a power of
/// two with [`Propagate::part_empty`]), internal nodes hold the merge of
/// their children with lower slots on the left, so index 1 is the
/// in-order aggregate of every slot. Patching one slot remerges only the
/// leaf-to-root path: `O(log degree)`.
#[derive(Clone)]
pub(crate) struct SibTrees<P> {
    off: Vec<usize>,
    nodes: Vec<P>,
}

impl<P: Clone> SibTrees<P> {
    /// Builds one tree per node `u < n` from `leaves(u)`, the parts of
    /// `u`'s child slots in slot order.
    fn build<A, I>(alg: &A, n: usize, leaves: impl Fn(usize) -> I) -> Self
    where
        A: Propagate<Part = P>,
        I: ExactSizeIterator<Item = P>,
    {
        let mut off = Vec::with_capacity(n + 1);
        off.push(0);
        for u in 0..n {
            off.push(off[u] + 2 * leaves(u).len().next_power_of_two().max(1));
        }
        let mut nodes = vec![alg.part_empty(); off[n]];
        for u in 0..n {
            let tree = &mut nodes[off[u]..off[u + 1]];
            let size = tree.len() / 2;
            for (i, leaf) in leaves(u).enumerate() {
                tree[size + i] = leaf;
            }
            for i in (1..size).rev() {
                tree[i] = alg.part_merge(&tree[2 * i], &tree[2 * i + 1]);
            }
        }
        SibTrees { off, nodes }
    }

    fn set<A: Propagate<Part = P>>(&mut self, alg: &A, u: usize, slot: u32, part: P) {
        let tree = &mut self.nodes[self.off[u]..self.off[u + 1]];
        let mut i = tree.len() / 2 + slot as usize;
        tree[i] = part;
        while i > 1 {
            i >>= 1;
            tree[i] = alg.part_merge(&tree[2 * i], &tree[2 * i + 1]);
        }
    }

    fn root(&self, u: usize) -> &P {
        &self.nodes[self.off[u] + 1]
    }
}

/// Per-node aggregates of child contributions, strategy picked at build
/// time by [`Propagate::INVERTIBLE`].
#[derive(Clone)]
pub(crate) enum Kids<A: Propagate> {
    /// One merged `Part` per node; patched by subtract/re-add.
    Flat(Vec<A::Part>),
    /// One sibling tree per node; patched along a leaf-to-root path.
    Trees(SibTrees<A::Part>),
}

impl<A: Propagate> Kids<A> {
    fn root(&self, u: usize) -> &A::Part {
        match self {
            Kids::Flat(parts) => &parts[u],
            Kids::Trees(trees) => trees.root(u),
        }
    }

    fn update(&mut self, alg: &A, u: usize, slot: u32, old: A::Val, new: A::Val) {
        match self {
            Kids::Flat(parts) => {
                alg.part_remove(&mut parts[u], slot, old);
                let add = alg.part_of(slot, new);
                parts[u] = alg.part_merge(&parts[u], &add);
            }
            Kids::Trees(trees) => trees.set(alg, u, slot, alg.part_of(slot, new)),
        }
    }
}

/// What one propagation pass did, for [`UpdateStats`](crate::UpdateStats).
pub(crate) struct PropagateOutcome {
    /// Trace slots re-executed (every other slot's result was reused).
    pub replayed: usize,
    /// Distinct death rounds the wave touched — its depth in the trace DAG.
    pub rounds: u32,
}

/// The caches that make replaying a trace slot `O(1)`–`O(log degree)`
/// instead of `O(degree)`, plus the query context of the same trace.
///
/// Derived from (and only valid against) the full contraction held in a
/// [`Scratch`]. A structural recompute runs a new contraction and marks
/// the tables stale ([`Replay::invalidate`]); the next label-only
/// recompute rebuilds them before propagating.
pub(crate) struct Replay<A: Propagate> {
    /// `false` until [`Replay::rebuild`] runs against the current trace.
    pub valid: bool,
    /// Aggregated child contributions per node (minus the surviving
    /// chain's slot for compressed nodes).
    kids: Kids<A>,
    /// Shape part of the query context over this trace, built by the
    /// first query batch that needs it. Label edits leave it valid;
    /// [`Replay::invalidate`] drops it with the trace it describes.
    pub shape: OnceLock<Shape>,
    /// Label part of the query context, the hop prefixes of this trace
    /// ([`fold_hop_prefixes`](crate::query::fold_hop_prefixes)), built
    /// right after `shape`. Label-only recomputes patch it in place;
    /// [`Replay::invalidate`] drops it.
    pub hop_pref: OnceLock<Vec<A::PathVal>>,
    /// Scheduling flags for the current pass; always reset before return.
    affected: Vec<bool>,
    refold: Vec<bool>,
}

impl<A: Propagate> Replay<A> {
    pub fn new() -> Self {
        Replay {
            valid: false,
            kids: Kids::Flat(Vec::new()),
            shape: OnceLock::new(),
            hop_pref: OnceLock::new(),
            affected: Vec::new(),
            refold: Vec::new(),
        }
    }

    /// Marks the tables stale and drops the query context: `scratch` now
    /// holds a new contraction they do not describe.
    pub fn invalidate(&mut self) {
        self.valid = false;
        self.shape = OnceLock::new();
        self.hop_pref = OnceLock::new();
    }

    /// Rebuilds the child aggregates from `scratch`, which must hold a
    /// full contraction of `forest`'s shape, modulo earlier propagation
    /// passes. Child slots follow [`Forest::child_csr`], the id order the
    /// engine seeded. `O(n + trace)` using one backsolve sweep for child
    /// values, read where the sweep left them.
    pub fn rebuild(&mut self, alg: &A, forest: &Forest<A::Label>, scratch: &Scratch<A>) {
        let n = forest.len();
        let children = forest.child_csr();
        self.affected.clear();
        self.affected.resize(n, false);
        self.refold.clear();
        self.refold.resize(n, false);

        let (solved, at) = scratch.backsolve(alg);

        // A compressed node's aggregate excludes the slot of the chain
        // that spliced it out — that chain outlives it and contributes at
        // the grandparent instead.
        let gap_of = |p: usize| match &scratch.death[p] {
            Death::Compressed { .. } => Some(scratch.gap[p]),
            _ => None,
        };
        let child_val = |c: u32| solved[at[c as usize] as usize].clone();
        self.kids = if A::INVERTIBLE {
            let mut parts = Vec::with_capacity(n);
            for p in 0..n {
                let gap = gap_of(p);
                let mut part = alg.part_empty();
                for (i, &c) in children.of(p as u32).iter().enumerate() {
                    if gap == Some(i as u32) {
                        continue;
                    }
                    let add = alg.part_of(i as u32, child_val(c));
                    part = alg.part_merge(&part, &add);
                }
                parts.push(part);
            }
            Kids::Flat(parts)
        } else {
            let trees = SibTrees::build(alg, n, |p| {
                let gap = gap_of(p);
                let child_val = &child_val;
                children
                    .of(p as u32)
                    .iter()
                    .enumerate()
                    .map(move |(i, &c)| {
                        if gap == Some(i as u32) {
                            alg.part_empty()
                        } else {
                            alg.part_of(i as u32, child_val(c))
                        }
                    })
            });
            Kids::Trees(trees)
        };
        self.valid = true;
    }

    /// Replays the trace slots affected by the edited nodes in `dirty`,
    /// updating death records (and caches) in place so that
    /// [`resolve_val`] afterwards returns post-edit values everywhere.
    ///
    /// Requires `self.valid` — i.e. the trace in `scratch` is the one the
    /// tables were rebuilt from, modulo earlier propagation passes.
    pub fn propagate<S: Sink>(
        &mut self,
        alg: &A,
        forest: &Forest<A::Label>,
        scratch: &mut Scratch<A>,
        dirty: &[u32],
        sink: &mut S,
    ) -> PropagateOutcome {
        let start = if S::ENABLED {
            Some(Instant::now())
        } else {
            None
        };
        let Replay {
            kids,
            affected,
            refold,
            ..
        } = self;
        let Scratch {
            fun,
            death,
            sib,
            trace,
            ..
        } = scratch;
        let Trace {
            up, death_round, ..
        } = &*trace;

        // Min-heap on (death round, node): dependencies always point to a
        // strictly later round, so one ascending drain visits each
        // affected slot exactly once.
        let mut heap: BinaryHeap<Reverse<(u32, u32)>> = BinaryHeap::new();
        for &u in dirty {
            schedule(affected, &mut heap, death_round[u as usize], u);
        }

        let mut processed: Vec<u32> = Vec::new();
        let (mut rounds, mut last) = (0u32, 0u32);
        while let Some(Reverse((stamp, u))) = heap.pop() {
            let ui = u as usize;
            processed.push(u);
            if rounds == 0 || stamp != last {
                rounds += 1;
                last = stamp;
            }
            enum Slot<V> {
                /// Carries the contribution the slot last delivered.
                Raked(V),
                Compressed(u32),
                Root,
            }
            // Read before a refold rewrites the slot's edge function: a
            // raked slot's recorded contribution is its edge function
            // applied to its recorded value.
            let slot = match &death[ui] {
                Death::Raked(val) => Slot::Raked(alg.apply(&fun[ui], val.clone())),
                Death::Compressed { child, .. } => Slot::Compressed(*child),
                Death::Root(_) => Slot::Root,
                // lint:allow(panic): the replay was built from a completed trace
                Death::None => unreachable!("propagation reached a node without a death record"),
            };
            if refold[ui] {
                refold_chain(alg, forest, trace.victims(u), kids, death, fun, u);
            }
            match slot {
                Slot::Raked(old) => {
                    let mut acc = alg.init_acc(forest.label(NodeId(u)));
                    alg.absorb_part(&mut acc, kids.root(ui));
                    let val = alg.finish(&acc);
                    let new = alg.apply(&fun[ui], val.clone());
                    death[ui] = Death::Raked(val);
                    if old != new {
                        let p = up[ui];
                        kids.update(alg, p as usize, sib[ui], old, new);
                        schedule(affected, &mut heap, death_round[p as usize], p);
                    }
                    // else: the recorded result still holds — the wave cuts
                    // off and everything above is reused as-is.
                }
                Slot::Compressed(child) => {
                    // The victim's label or children feed the survivor's
                    // composed function; re-derive the whole chain when the
                    // survivor drains (it dies strictly later).
                    refold[child as usize] = true;
                    schedule(affected, &mut heap, death_round[child as usize], child);
                }
                Slot::Root => {
                    let mut acc = alg.init_acc(forest.label(NodeId(u)));
                    alg.absorb_part(&mut acc, kids.root(ui));
                    death[ui] = Death::Root(alg.finish(&acc));
                }
            }
        }

        let replayed = processed.len();
        for u in processed {
            affected[u as usize] = false;
            refold[u as usize] = false;
        }
        if let Some(t) = start {
            sink.phase(Phase::Propagate, t.elapsed().as_nanos() as u64);
        }
        PropagateOutcome { replayed, rounds }
    }
}

/// Enqueues `u` at its death-round `stamp` unless already scheduled; the
/// flag is never reset mid-pass, so each slot drains at most once.
#[inline]
fn schedule(affected: &mut [bool], heap: &mut BinaryHeap<Reverse<(u32, u32)>>, stamp: u32, u: u32) {
    if !affected[u as usize] {
        affected[u as usize] = true;
        heap.push(Reverse((stamp, u)));
    }
}

/// Re-derives the composed functions of `x`'s splice chain `chain` (its
/// hop list), exactly as the engine built them: walking the victims
/// bottom-to-top, each victim's
/// recorded function becomes `to_fun(acc(victim)) ∘ f` (where `f` is the
/// composition so far) and `x`'s edge function accumulates
/// `fun(victim) ∘ that`. Rewrites the victims' death records and `x`'s
/// edge function in place.
fn refold_chain<A: Propagate>(
    alg: &A,
    forest: &Forest<A::Label>,
    chain: &[u32],
    kids: &Kids<A>,
    death: &mut [Death<A>],
    fun: &mut [A::Fun],
    x: u32,
) {
    let mut f = alg.identity();
    for &v in chain {
        let vi = v as usize;
        let mut acc = alg.init_acc(forest.label(NodeId(v)));
        alg.absorb_part(&mut acc, kids.root(vi));
        let g = alg.compose(&alg.to_fun(&acc), &f);
        f = alg.compose(&fun[vi], &g);
        death[vi] = Death::Compressed { child: x, fun: g };
    }
    fun[x as usize] = f;
}

impl<A: Propagate> Clone for Replay<A> {
    fn clone(&self) -> Self {
        Replay {
            valid: self.valid,
            kids: self.kids.clone(),
            shape: self.shape.clone(),
            hop_pref: self.hop_pref.clone(),
            affected: self.affected.clone(),
            refold: self.refold.clone(),
        }
    }
}
