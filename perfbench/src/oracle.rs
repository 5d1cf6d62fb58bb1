//! The correctness gate. Answers are checked against the benchmark's own
//! copy of the forest (`Zoo`), outside the timed region: every subtree
//! value against `Forest::sequential_fold` after the run, and samples of
//! each step's answers against naive parent walks.

use crate::zoo::{Zoo, NO_PARENT};
use dtc_core::{Answer, DynForest, NodeId, PathAlgebra, Propagate, Query, QueryBatch};
use dtc_core::{MinMax, QueryOutcome, SubtreeSum};
use std::fmt::Debug;

/// The algebras the benchmark runs. Both are commutative, associative
/// folds of `i64` labels, so a subtree's or component's value is the
/// fold of its labels in any order: that is what the naive oracle uses.
pub trait BenchAlg:
    Propagate<Label = i64, Val: Debug + Send + Sync>
    + PathAlgebra<PathVal: PartialEq + Debug + Send + Sync>
    + Copy
    + Sync
{
}

impl BenchAlg for SubtreeSum {}
impl BenchAlg for MinMax {}

/// Operations attempted and failed, the `attempted` / `failed` of the
/// result line.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// Operations issued or answers checked.
    pub attempted: u64,
    /// Unexpected `Err`s and oracle mismatches.
    pub failed: u64,
}

impl Tally {
    /// Counts one operation, failed unless `ok`.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// Answers sampled per query kind per batch; component-value answers are
/// all checked, since the component folds are computed anyway.
pub const SAMPLE_PER_KIND: usize = 8;

/// Fold of the labels of `nodes` (not empty).
pub fn fold_labels<A: BenchAlg>(
    alg: &A,
    labels: &[i64],
    mut nodes: impl Iterator<Item = u32>,
) -> A::Val {
    let first = nodes.next().expect("a fold over at least one node");
    let mut acc = alg.init_acc(&labels[first as usize]);
    for v in nodes {
        alg.absorb(&mut acc, alg.finish(&alg.init_acc(&labels[v as usize])));
    }
    alg.finish(&acc)
}

/// Value of every component, in build order.
pub fn component_values<A: BenchAlg>(alg: &A, zoo: &Zoo) -> Vec<A::Val> {
    zoo.components
        .iter()
        .map(|r| fold_labels(alg, &zoo.labels, r.clone()))
        .collect()
}

/// Naive answers by walking the zoo's initial shape. Valid whenever the
/// library's forest has that shape, which every step restores.
pub struct Naive {
    children: Vec<Vec<u32>>,
    depth: Vec<u32>,
}

impl Naive {
    /// Child lists and depths of `zoo`'s shape.
    pub fn new(zoo: &Zoo) -> Naive {
        let n = zoo.len();
        let mut children = vec![Vec::new(); n];
        let mut depth = vec![0u32; n];
        for v in 0..n {
            let p = zoo.parent[v];
            if p != NO_PARENT {
                children[p as usize].push(v as u32);
                // Parents precede children, so the parent's depth is set.
                depth[v] = depth[p as usize] + 1;
            }
        }
        Naive { children, depth }
    }

    pub fn subtree<A: BenchAlg>(&self, alg: &A, zoo: &Zoo, v: u32) -> A::Val {
        let mut stack = vec![v];
        let mut nodes = Vec::new();
        while let Some(u) = stack.pop() {
            nodes.push(u);
            stack.extend_from_slice(&self.children[u as usize]);
        }
        fold_labels(alg, &zoo.labels, nodes.into_iter())
    }

    /// Nodes from `u` up to (excluding) the LCA, from `v` likewise, and
    /// the LCA.
    fn climb(&self, zoo: &Zoo, mut u: u32, mut v: u32) -> (Vec<u32>, Vec<u32>, u32) {
        let (mut up_u, mut up_v) = (Vec::new(), Vec::new());
        while u != v {
            if self.depth[u as usize] >= self.depth[v as usize] {
                up_u.push(u);
                u = zoo.parent[u as usize];
            } else {
                up_v.push(v);
                v = zoo.parent[v as usize];
            }
            assert!(
                u != NO_PARENT && v != NO_PARENT,
                "endpoints share a component"
            );
        }
        (up_u, up_v, u)
    }

    fn path<A: BenchAlg>(&self, alg: &A, zoo: &Zoo, u: u32, v: u32) -> A::PathVal {
        let (up_u, up_v, lca) = self.climb(zoo, u, v);
        let order = up_u.iter().chain([&lca]).chain(up_v.iter().rev());
        order.fold(alg.path_empty(), |acc, &w| {
            alg.path_concat(&acc, &alg.path_of(&zoo.labels[w as usize]))
        })
    }

    /// Checks a query batch's answers: the first `SAMPLE_PER_KIND` of each
    /// kind, and every component value, against naive walks; any other
    /// answer only for not being an `Err`. Returns the number of failed
    /// answers.
    pub fn check_answers<A: BenchAlg>(
        &self,
        alg: &A,
        zoo: &Zoo,
        batch: &QueryBatch,
        answers: &[QueryOutcome<A>],
    ) -> u64 {
        if answers.len() != batch.len() {
            return batch.len() as u64;
        }
        let comps = component_values(alg, zoo);
        let mut seen = [0usize; 3];
        let mut failed = 0;
        for (q, got) in batch.queries().iter().zip(answers) {
            let mut sampled = |kind: usize| {
                seen[kind] += 1;
                seen[kind] <= SAMPLE_PER_KIND
            };
            let raw = |v: NodeId| v.index() as u32;
            let want = match *q {
                Query::Subtree(v) if sampled(0) => {
                    Some(Answer::Value(self.subtree(alg, zoo, raw(v))))
                }
                Query::Path(u, v) if sampled(1) => {
                    Some(Answer::PathValue(self.path(alg, zoo, raw(u), raw(v))))
                }
                Query::Lca(u, v) if sampled(2) => {
                    let lca = self.climb(zoo, raw(u), raw(v)).2;
                    Some(Answer::Node(NodeId::from_index(lca as usize)))
                }
                Query::ComponentValue(v) => {
                    Some(Answer::Value(comps[zoo.component_index(raw(v))].clone()))
                }
                _ => None,
            };
            let ok = match want {
                Some(want) => got.as_ref() == Ok(&want),
                None => got.is_ok(),
            };
            failed += u64::from(!ok);
        }
        failed
    }
}

/// Reads each component's value through the library and compares it with
/// the fold of the zoo's labels.
pub fn check_components<A: BenchAlg>(alg: &A, zoo: &Zoo, d: &DynForest<A>, tally: &mut Tally) {
    for (root, want) in zoo.roots().zip(component_values(alg, zoo)) {
        let got = d.try_component_value(NodeId::from_index(root as usize));
        tally.record(got.as_ref() == Ok(&want));
    }
}

/// The end-of-run gate: the library's shape and labels equal the zoo's,
/// and every node's subtree value equals `sequential_fold` over a forest
/// rebuilt from the zoo.
pub fn check_all<A: BenchAlg>(alg: &A, zoo: &Zoo, d: &DynForest<A>, tally: &mut Tally) {
    let f = d.forest();
    tally.record(
        shape_restored(zoo, d) && f.node_ids().all(|v| *f.label(v) == zoo.labels[v.index()]),
    );
    let want = zoo.forest().sequential_fold(alg);
    for (i, w) in want.iter().enumerate() {
        tally.record(d.try_subtree_value(NodeId::from_index(i)).as_ref() == Ok(w));
    }
}

/// `true` when the library's parent array equals the zoo's.
pub fn shape_restored<A: BenchAlg>(zoo: &Zoo, d: &DynForest<A>) -> bool {
    let f = d.forest();
    f.len() == zoo.len()
        && f.node_ids()
            .all(|v| f.parent(v).map_or(NO_PARENT, |p| p.index() as u32) == zoo.parent[v.index()])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo::{Script, QUERIES_PER_KIND};
    use dtc_core::{Extrema, QueryError};

    #[test]
    fn wrong_query_answers_are_caught() {
        let zoo = Zoo::generate(13);
        let d = DynForest::new(zoo.forest(), MinMax);
        let naive = Naive::new(&zoo);
        let q = Script::new(13).queries(&zoo);
        let mut answers = d.query_batch(&q).expect("a clean forest answers");
        assert_eq!(naive.check_answers(&MinMax, &zoo, &q, &answers), 0);
        // One wrong answer in each kind's sample, and an `Err` outside it.
        answers[0] = Ok(Answer::Value(Extrema::of(5000)));
        answers[QUERIES_PER_KIND] = Ok(Answer::NotConnected);
        answers[2 * QUERIES_PER_KIND + 1] = Ok(Answer::Node(NodeId::from_index(0)));
        answers[3 * QUERIES_PER_KIND + 500] = Ok(Answer::Value(Extrema::NEUTRAL));
        answers[QUERIES_PER_KIND - 1] = Err(QueryError::PendingEdits { pending: 1 });
        assert_eq!(naive.check_answers(&MinMax, &zoo, &q, &answers), 5);
        assert_eq!(
            naive.check_answers(&MinMax, &zoo, &q, &answers[1..]),
            q.len() as u64
        );
    }
}
