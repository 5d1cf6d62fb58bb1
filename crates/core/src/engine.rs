//! The rake/compress contraction engine.
//!
//! The engine runs classic Miller–Reif tree contraction over the whole
//! forest. One run ([`Scratch::contract`]) serves both the static
//! [`Contraction`](crate::Contraction) and every trace the dynamic layer
//! keeps.
//!
//! Each round proceeds in two phases:
//!
//! 1. **Plan** (read-only): every live node inspects its local
//!    neighbourhood and picks one action:
//!    * `Finish` — it is a childless root; its accumulator is its value.
//!    * `Rake` — it is a childless non-root; fold its value into the parent.
//!    * `Splice` — it proposes compressing its *parent* `v`: `v` is unary
//!      (this node is the only child), `v` is not a root, `v` flipped heads
//!      and `v`'s parent flipped tails this round. The coin condition is a
//!      randomized independent set on chains: no two adjacent nodes are
//!      spliced in the same round, so all planned actions commute.
//! 2. **Apply**: execute the planned actions. Rake absorbs the child's
//!    contribution into the parent accumulator; splice composes the
//!    victim's unary function into the surviving edge and reattaches the
//!    child to its grandparent.
//!
//! A run records two things per node. The [`Trace`] is label-independent:
//! the round a node died in, its working parent at death, and the hop
//! lists of the splice chains, which the query engine climbs and change
//! propagation refolds. It is a function of the forest shape and the coin
//! seed alone, so a label batch never rewrites it. The death records
//! (`Death`) carry the label-dependent rest; a reverse replay of them
//! ([`Scratch::backsolve`]) recovers the final subtree value of *every*
//! node, not just the roots.
//!
//! The run loop reports into a statically-dispatched [`Sink`]: per-round
//! `plan`/`apply` spans and a [`RoundCounters`] record (frontier size,
//! rakes, splices, finishes, coin rejections). All instrumentation is
//! guarded by `S::ENABLED`, so the default `NoopSink` path compiles to the
//! bare loop.

use crate::algebra::Algebra;
use crate::arena::{Forest, NONE};
use crate::check::{self, invariant, Cell, WriteMode};
use crate::obs::{EngineCounters, Phase, RoundCounters, Sink};
use crate::rng::coin;
use crate::NodeId;
use std::time::Instant;

/// Hard cap on contraction rounds; with rake + randomized compress the
/// expected round count is `O(log n)`, so hitting this indicates a bug.
const MAX_ROUNDS: u32 = 10_000;

/// Per-round action chosen by a live node during the plan phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Action {
    None,
    /// Childless root: record its component value and retire it.
    Finish,
    /// Childless non-root: fold into the parent and retire.
    Rake,
    /// Splice out this node's (unary) parent.
    Splice,
}

/// How a node left the contraction, with everything needed to backsolve its
/// final subtree value.
#[derive(Debug, Clone, Default)]
pub(crate) enum Death<A: Algebra> {
    /// Still alive.
    #[default]
    None,
    /// Raked: the node's final value was already known at death.
    Raked(A::Val),
    /// Compressed: `val(self) = fun(val(child))`, where `child` strictly
    /// outlives this node.
    Compressed { child: u32, fun: A::Fun },
    /// A root whose contraction finished; its value is the component value.
    Root(A::Val),
}

/// Outcome of one engine run.
pub(crate) struct RunOutcome {
    /// Number of rake/compress rounds executed.
    pub rounds: u32,
    /// Whole-run action totals; all-zero unless the sink was enabled.
    pub counters: EngineCounters,
}

/// The label-independent record of one contraction: which node died in
/// which round, under which working parent, and which nodes each survivor
/// spliced out. Coins hash `(seed, round, node)`, so the trace is a
/// function of the forest shape and the seed alone.
#[derive(Clone, Default)]
pub(crate) struct Trace {
    /// Working parent pointers. During a run splices rewrite them; a node's
    /// entry never changes after it dies, so afterwards `up[v]` is `v`'s
    /// working parent at death (`NONE` for finished roots). A working
    /// parent strictly outlives its child, so these pointers form a
    /// shortcut tree of depth ≤ rounds — the spine of the contraction DAG
    /// that the batch query engine climbs.
    pub up: Vec<u32>,
    /// Round stamp per death (1-based; 0 = still alive).
    pub death_round: Vec<u32>,
    /// CSR offsets into `hop_victims`, length `n + 1`.
    pub hop_off: Vec<u32>,
    /// For every node `x`, the nodes spliced out from directly above it,
    /// in ascending death round (see [`Scratch::contract`]).
    pub hop_victims: Vec<u32>,
}

impl Trace {
    /// `x`'s victim list as a `lo..hi` range of `hop_victims`.
    #[inline]
    pub fn hop(&self, x: u32) -> (usize, usize) {
        (
            self.hop_off[x as usize] as usize,
            self.hop_off[x as usize + 1] as usize,
        )
    }

    /// The nodes spliced out from directly above `x`, bottom to top.
    #[inline]
    pub fn victims(&self, x: u32) -> &[u32] {
        let (lo, hi) = self.hop(x);
        &self.hop_victims[lo..hi]
    }
}

/// Reusable per-node working state, indexed by raw node id.
///
/// All vectors are sized to the forest. Each run reseeds them in place, so
/// one scratch serves any number of runs without reallocating.
pub(crate) struct Scratch<A: Algebra> {
    /// The run's label-independent record; `trace.up` doubles as the
    /// working parent pointers while the run is in progress.
    pub trace: Trace,
    /// Live child count.
    pub count: Vec<u32>,
    /// Partial accumulator.
    pub acc: Vec<A::Acc>,
    /// Edge function towards the current parent.
    pub fun: Vec<A::Fun>,
    /// Death record per node.
    pub death: Vec<Death<A>>,
    /// Nodes in death order; reversing it yields a valid backsolve order.
    pub death_order: Vec<u32>,
    /// Sibling index of each node in its (original) parent's child list.
    /// Passed to [`Algebra::absorb_at`] so ordered (non-commutative)
    /// algebras can reassemble children in child-list order even though
    /// rake retires siblings in arbitrary round order. A spliced-out
    /// node bequeaths its slot to its surviving child.
    pub sib: Vec<u32>,
    /// The sibling slot a node surrendered when it was spliced out: the
    /// position *in its own child list* where its surviving chain keeps
    /// contributing (recorded just before `sib` is overwritten by the
    /// bequest). Change propagation uses it to rebuild a compressed
    /// node's accumulator from its original children minus that slot.
    pub gap: Vec<u32>,
}

impl<A: Algebra> Default for Scratch<A> {
    fn default() -> Self {
        Scratch {
            trace: Trace::default(),
            count: Vec::new(),
            acc: Vec::new(),
            fun: Vec::new(),
            death: Vec::new(),
            death_order: Vec::new(),
            sib: Vec::new(),
            gap: Vec::new(),
        }
    }
}

impl<A: Algebra> Clone for Scratch<A>
where
    A::Acc: Clone,
    A::Fun: Clone,
    A::Val: Clone,
{
    fn clone(&self) -> Self {
        Scratch {
            trace: self.trace.clone(),
            count: self.count.clone(),
            acc: self.acc.clone(),
            fun: self.fun.clone(),
            death: self.death.clone(),
            death_order: self.death_order.clone(),
            sib: self.sib.clone(),
            gap: self.gap.clone(),
        }
    }
}

impl<A: Algebra> Scratch<A> {
    /// Seeds every table for a full contraction of `forest`: each node is
    /// alive (death round 0) with a fresh accumulator of its label, an
    /// identity edge function, its arena parent and child count, and no
    /// death record. Sibling slots follow id order, which is the arena's
    /// derived child order. Reuses the tables' allocations.
    fn seed(&mut self, alg: &A, forest: &Forest<A::Label>) {
        let n = forest.len();
        let par = &mut self.trace.up;
        par.clear();
        par.extend((0..n as u32).map(|v| forest.parent_raw(v)));
        self.count.clear();
        self.count.resize(n, 0);
        self.sib.clear();
        self.sib.resize(n, 0);
        for (v, &p) in par.iter().enumerate() {
            if p != NONE {
                // Children appear in id order, so the running count is
                // exactly the node's position in the parent's child list.
                self.sib[v] = self.count[p as usize];
                self.count[p as usize] += 1;
            }
        }
        self.acc.clear();
        self.acc
            .extend((0..n as u32).map(|v| alg.init_acc(forest.label(NodeId(v)))));
        self.fun.clear();
        self.fun.resize(n, alg.identity());
        self.death.clear();
        self.death.resize_with(n, Death::default);
        self.trace.death_round.clear();
        self.trace.death_round.resize(n, 0);
        self.gap.clear();
        self.gap.resize(n, 0);
    }

    /// Contracts the whole of `forest` under coin `seed`: seeds every
    /// table, runs rake/compress rounds until every node has died, and
    /// extracts the run's hop lists. Phase spans and per-round counters go
    /// into `sink`.
    ///
    /// Telemetry is statically dispatched: every instrumentation site is
    /// guarded by `S::ENABLED`, so with [`crate::obs::NoopSink`] this
    /// compiles to exactly the uninstrumented loop.
    pub fn contract<S: Sink>(
        &mut self,
        alg: &A,
        forest: &Forest<A::Label>,
        seed: u64,
        sink: &mut S,
    ) -> RunOutcome {
        self.seed(alg, forest);
        let n = forest.len();
        self.death_order.clear();
        let mut live: Vec<u32> = (0..n as u32).collect();
        let mut actions: Vec<Action> = Vec::new();
        let mut round = 0;
        let mut counters = EngineCounters::default();
        // Shadow write-log for the conflict detector; field-less no-op
        // without the `check` feature (see `check.rs`).
        let mut wlog = check::WriteLog::new();

        while !live.is_empty() {
            round += 1;
            assert!(
                round <= MAX_ROUNDS,
                "contraction failed to converge after {MAX_ROUNDS} rounds"
            );
            let frontier = live.len();
            let deaths_before = self.death_order.len();
            wlog.begin_round(round);

            // Plan: pure reads of the pre-round state, so every action of
            // the round is decided on the same snapshot.
            let plan_start = if S::ENABLED {
                Some(Instant::now())
            } else {
                None
            };
            let mut coin_rejections = 0u32;
            let (par, count) = (&self.trace.up, &self.count);
            actions.clear();
            actions.extend(
                live.iter()
                    .map(|&u| decide::<S>(par, count, seed, round, u, &mut coin_rejections)),
            );
            if let Some(t) = plan_start {
                sink.phase(Phase::Plan, t.elapsed().as_nanos() as u64);
            }

            // Apply: the coin condition guarantees all actions touch
            // disjoint state, so any order is correct.
            let apply_start = if S::ENABLED {
                Some(Instant::now())
            } else {
                None
            };
            let (mut rakes, mut splices, mut finishes) = (0u32, 0u32, 0u32);
            for (&u, &action) in live.iter().zip(&actions) {
                match action {
                    Action::None => {}
                    Action::Finish => {
                        if S::ENABLED {
                            finishes += 1;
                        }
                        let val = alg.finish(&self.acc[u as usize]);
                        check::must(wlog.record(Cell::Life(u), WriteMode::Exclusive, u as u64));
                        self.kill(u, round, Death::Root(val));
                    }
                    Action::Rake => {
                        if S::ENABLED {
                            rakes += 1;
                        }
                        let p = self.trace.up[u as usize] as usize;
                        let val = alg.finish(&self.acc[u as usize]);
                        let contrib = alg.apply(&self.fun[u as usize], val.clone());
                        let slot = self.sib[u as usize];
                        // Sibling rakes hit the same parent cells, but
                        // absorb/decrement commute — recorded as such.
                        check::must(wlog.record(Cell::Acc(p as u32), WriteMode::Absorb, u as u64));
                        check::must(wlog.record(
                            Cell::Count(p as u32),
                            WriteMode::Decrement,
                            u as u64,
                        ));
                        check::must(wlog.record(Cell::Life(u), WriteMode::Exclusive, u as u64));
                        alg.absorb_at(&mut self.acc[p], slot, contrib);
                        self.count[p] -= 1;
                        self.kill(u, round, Death::Raked(val));
                    }
                    Action::Splice => {
                        // `u` splices out its unary parent `v`, reattaching
                        // itself to the grandparent. `g` maps val(u) to
                        // val(v); the new edge maps val(u) to v's old
                        // contribution at the grandparent.
                        if S::ENABLED {
                            splices += 1;
                        }
                        let v = self.trace.up[u as usize];
                        let gp = self.trace.up[v as usize];
                        let tf = alg.to_fun(&self.acc[v as usize]);
                        let g = alg.compose(&tf, &self.fun[u as usize]);
                        let new_fun = alg.compose(&self.fun[v as usize], &g);
                        check::must(wlog.record(Cell::Fun(u), WriteMode::Exclusive, u as u64));
                        check::must(wlog.record(Cell::Par(u), WriteMode::Exclusive, u as u64));
                        check::must(wlog.record(Cell::Sib(u), WriteMode::Exclusive, u as u64));
                        check::must(wlog.record(Cell::Life(v), WriteMode::Exclusive, u as u64));
                        self.fun[u as usize] = new_fun;
                        self.trace.up[u as usize] = gp;
                        // The victim remembers which of its own child slots
                        // the surviving chain occupies (change propagation
                        // rebuilds its accumulator around that gap), then
                        // `u` inherits the victim's slot in the grandparent's
                        // child order, keeping ordered rakes well-indexed.
                        self.gap[v as usize] = self.sib[u as usize];
                        self.sib[u as usize] = self.sib[v as usize];
                        self.kill(v, round, Death::Compressed { child: u, fun: g });
                    }
                }
            }
            if let Some(t) = apply_start {
                sink.phase(Phase::Apply, t.elapsed().as_nanos() as u64);
            }
            if S::ENABLED {
                let rc = RoundCounters {
                    round,
                    frontier,
                    rakes,
                    splices,
                    finishes,
                    coin_rejections,
                };
                counters.absorb_round(&rc);
                sink.round(&rc);
            }

            let death_round = &self.trace.death_round;
            live.retain(|&u| death_round[u as usize] == 0);
            if check::ENABLED {
                self.check_round(round, &live, deaths_before);
            }
        }

        self.link_hops(n);
        RunOutcome {
            rounds: round,
            counters,
        }
    }

    fn kill(&mut self, u: u32, round: u32, death: Death<A>) {
        if check::ENABLED {
            invariant!(
                self.trace.death_round[u as usize] == 0,
                "second death of node n{u} in round {round}"
            );
        }
        self.death[u as usize] = death;
        self.trace.death_round[u as usize] = round;
        self.death_order.push(u);
    }

    /// Post-round invariant sweep (`check` feature): every node killed this
    /// round carries a coherent, round-stamped death record whose recorded
    /// parent survived the round, and every survivor has a live working
    /// parent and a `count` that matches its actual number of live
    /// children. `O(frontier)` per round.
    #[cfg(feature = "check")]
    fn check_round(&self, round: u32, live: &[u32], deaths_before: usize) {
        use std::collections::HashMap;
        let Trace {
            up, death_round, ..
        } = &self.trace;
        for &u in &self.death_order[deaths_before..] {
            let ui = u as usize;
            invariant!(
                death_round[ui] == round,
                "node n{u} killed in round {round} is stamped with round {}",
                death_round[ui]
            );
            invariant!(
                !matches!(self.death[ui], Death::None),
                "node n{u} died in round {round} without a death record"
            );
            let dp = up[ui];
            invariant!(
                dp == NONE || death_round[dp as usize] == 0,
                "death parent n{dp} of n{u} did not survive round {round}"
            );
        }
        let mut kids: HashMap<u32, u32> = HashMap::new();
        for &u in live {
            let ui = u as usize;
            invariant!(death_round[ui] == 0, "retained node n{u} is not alive");
            let p = up[ui];
            if p != NONE {
                invariant!(
                    death_round[p as usize] == 0,
                    "live node n{u} points at dead parent n{p} after round {round}"
                );
                *kids.entry(p).or_insert(0) += 1;
            }
        }
        for &u in live {
            let expect = kids.get(&u).copied().unwrap_or(0);
            invariant!(
                self.count[u as usize] == expect,
                "count[n{u}] = {} after round {round}, but {expect} live children remain",
                self.count[u as usize]
            );
        }
    }

    #[cfg(not(feature = "check"))]
    #[inline(always)]
    fn check_round(&self, _round: u32, _live: &[u32], _deaths_before: usize) {}

    /// Extracts the hop lists of the finished run as a CSR
    /// ([`Trace::hop_off`], [`Trace::hop_victims`]): for every node `x`, the
    /// nodes that were spliced out from directly above it — i.e. the
    /// original-tree ancestors lying strictly between `x` and its working
    /// parent at death (`up[x]`), in ascending death round (equivalently,
    /// bottom-to-top along the original path).
    ///
    /// Concatenating `x`, `victims(x)`, `up[x]`, `victims(up[x])`, …
    /// therefore reconstructs `x`'s *entire* original ancestor path while
    /// only ever following `O(rounds)` shortcut pointers; this is what the
    /// batch query engine traverses, and the order in which change propagation refolds a
    /// splice chain.
    fn link_hops(&mut self, n: usize) {
        let Scratch {
            death,
            death_order,
            trace:
                Trace {
                    hop_off,
                    hop_victims,
                    ..
                },
            ..
        } = self;
        hop_off.clear();
        hop_off.resize(n + 1, 0);
        for &u in death_order.iter() {
            if let Death::Compressed { child, .. } = &death[u as usize] {
                hop_off[*child as usize + 1] += 1;
            }
        }
        for i in 0..n {
            hop_off[i + 1] += hop_off[i];
        }
        let mut cursor = hop_off.clone();
        hop_victims.clear();
        hop_victims.resize(hop_off[n] as usize, 0);
        // `death_order` is chronological, so each hop list comes out in
        // ascending death round, which is bottom-to-top along the path.
        for &u in death_order.iter() {
            if let Death::Compressed { child, .. } = &death[u as usize] {
                let c = *child as usize;
                hop_victims[cursor[c] as usize] = u;
                cursor[c] += 1;
            }
        }
    }

    /// Replays the death records in reverse, returning the final subtree
    /// value of every node: `(solved, at)`, where `solved` holds the values
    /// in reverse death order and `solved[at[v]]` is `v`'s.
    ///
    /// Raked nodes and finished roots knew their value at death; a
    /// compressed node's value is its recorded unary function applied to
    /// the value of the child that outlived it — which, processed in
    /// reverse death order, is always already solved.
    pub fn backsolve(&self, alg: &A) -> (Vec<A::Val>, Vec<u32>) {
        let mut solved: Vec<A::Val> = Vec::with_capacity(self.death_order.len());
        let mut at = vec![0u32; self.death.len()];
        for &u in self.death_order.iter().rev() {
            let val = match &self.death[u as usize] {
                // lint:allow(panic): kill() records a death for every retired node
                Death::None => unreachable!("dead node without death record"),
                Death::Raked(v) | Death::Root(v) => v.clone(),
                Death::Compressed { child, fun } => {
                    alg.apply(fun, solved[at[*child as usize] as usize].clone())
                }
            };
            at[u as usize] = solved.len() as u32;
            solved.push(val);
        }
        (solved, at)
    }
}

/// Picks the action for live node `u` from the pre-round snapshot.
///
/// Compress eligibility is decided by the *child*: `u` proposes splicing its
/// parent `v` when `v` is unary (so `u` is the only child), `v` has a
/// grandparent to reattach to, `u` itself is not a leaf (leaves rake
/// instead, and raking into a vanishing parent would race), and the
/// heads/tails coin pair holds. The coins exclude adjacent splices: if `v`
/// is spliced it flipped heads, so neither `v`'s parent (needs heads as a
/// victim but flipped tails) nor `u` (its parent `v` would need tails) can
/// be spliced in the same round.
///
/// A candidate that loses only the coin toss returns `None`; with an
/// enabled sink it also bumps `rejections`.
#[inline]
fn decide<S: Sink>(
    par: &[u32],
    count: &[u32],
    seed: u64,
    round: u32,
    u: u32,
    rejections: &mut u32,
) -> Action {
    let p = par[u as usize];
    if count[u as usize] == 0 {
        return if p == NONE {
            Action::Finish
        } else {
            Action::Rake
        };
    }
    if p == NONE {
        return Action::None;
    }
    let gp = par[p as usize];
    if gp == NONE || count[p as usize] != 1 {
        return Action::None;
    }
    if coin(seed, round, p) && !coin(seed, round, gp) {
        Action::Splice
    } else {
        if S::ENABLED {
            *rejections += 1;
        }
        Action::None
    }
}
