//! The benchmark's input, `zoo_270k`, and the seeded step scripts.
//!
//! One forest of six components covers the shape axes that decide the
//! cost of contraction and of change propagation: depth (path, broom
//! handle, caterpillar spine), degree (star, broom bristles) and mixed
//! (random recursive tree, complete binary tree). Every workload runs on
//! the whole zoo, so every step touches every shape.
//!
//! The benchmark keeps its own copy of the parent array and the labels.
//! The oracle reads that copy, never the library's state.

use dtc_core::gen::{self, XorShift64};
use dtc_core::{Forest, NodeId, QueryBatch};
use std::ops::Range;

/// Parent of a root in [`Zoo::parent`].
pub const NO_PARENT: u32 = u32::MAX;

/// Nodes in `zoo_270k`.
pub const NODES: usize = 270_000;

/// The generated forest, as the benchmark remembers it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Zoo {
    /// Parent of each node, `NO_PARENT` for a root. Always lower than the
    /// node's own id, so the forest can be rebuilt in id order.
    pub parent: Vec<u32>,
    /// Current label of each node.
    pub labels: Vec<i64>,
    /// Id range of each component, in build order.
    pub components: Vec<Range<u32>>,
}

impl Zoo {
    /// Generates `zoo_270k`. The shapes are fixed; every label follows
    /// `seed`, as do the step scripts drawn with [`Script`].
    pub fn generate(seed: u64) -> Zoo {
        let parts = [
            gen::random_tree(80_000, 1),
            gen::path(40_000, 2),
            gen::broom(20_000, 20_000, 3),
            gen::caterpillar(10_000, 4, 4),
            gen::star(20_000, 5),
            gen::binary_tree(40_000, 6),
        ];
        let mut rng = XorShift64::new(seed);
        let mut zoo = Zoo {
            parent: Vec::with_capacity(NODES),
            labels: Vec::with_capacity(NODES),
            components: Vec::with_capacity(parts.len()),
        };
        for part in &parts {
            let base = zoo.parent.len() as u32;
            for v in part.node_ids() {
                let p = part
                    .parent(v)
                    .map_or(NO_PARENT, |p| base + p.index() as u32);
                assert!(
                    p == NO_PARENT || p < base + v.index() as u32,
                    "generators number parents before children"
                );
                zoo.parent.push(p);
                zoo.labels.push(rng.weight());
            }
            zoo.components.push(base..zoo.parent.len() as u32);
        }
        assert_eq!(zoo.parent.len(), NODES, "zoo_270k has {NODES} nodes");
        zoo
    }

    /// The forest the library is given, built with `add_root`/`add_child`.
    pub fn forest(&self) -> Forest<i64> {
        let mut f = Forest::with_capacity(self.parent.len());
        for (&p, &w) in self.parent.iter().zip(&self.labels) {
            if p == NO_PARENT {
                f.add_root(w);
            } else {
                f.add_child(NodeId::from_index(p as usize), w);
            }
        }
        f
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Index in `components` of the component holding `v`.
    pub fn component_index(&self, v: u32) -> usize {
        self.components
            .iter()
            .position(|r| r.contains(&v))
            .expect("every node lies in one component")
    }

    /// Id range of the component holding `v`.
    pub fn component_of(&self, v: u32) -> Range<u32> {
        self.components[self.component_index(v)].clone()
    }

    /// Roots of the components, in build order.
    pub fn roots(&self) -> impl Iterator<Item = u32> + '_ {
        self.components.iter().map(|r| r.start)
    }
}

/// Inputs of one step. A workload fills only the fields it uses.
#[derive(Debug, Default)]
pub struct StepInput {
    /// Label edits `(node, new label)`.
    pub edits: Vec<(NodeId, i64)>,
    /// Nodes whose subtree value is read.
    pub reads: Vec<NodeId>,
    /// Non-roots to cut, all distinct.
    pub cuts: Vec<NodeId>,
    /// The cuts linked back under their old parents.
    pub links: Vec<(NodeId, NodeId)>,
    /// The query batch, `QUERIES_PER_KIND` of each kind in blocks of
    /// subtree, path, LCA and component value.
    pub queries: QueryBatch,
}

impl StepInput {
    /// Label and structural edits, reads and queries in the step.
    pub fn ops(&self) -> u64 {
        (self.edits.len() + self.reads.len() + self.cuts.len() + self.links.len()) as u64
            + self.queries.len() as u64
    }
}

/// Queries of each kind in a query batch.
pub const QUERIES_PER_KIND: usize = 1024;

/// Draws step inputs from one seeded stream, uniformly over the zoo.
pub struct Script {
    rng: XorShift64,
    /// Scratch for drawing distinct cut targets.
    taken: Vec<bool>,
}

impl Script {
    /// A script stream for `seed`, independent of the zoo's own stream.
    pub fn new(seed: u64) -> Script {
        Script {
            rng: XorShift64::new(seed ^ 0x5C21_97ED_0000_0000),
            taken: vec![false; NODES],
        }
    }

    fn node(&mut self, zoo: &Zoo) -> u32 {
        self.rng.below(zoo.len() as u64) as u32
    }

    /// `k` label edits on uniform nodes with uniform labels in
    /// `-1000..=1000`. Applies them to `zoo.labels`, which then holds the
    /// labels the library has after the step.
    pub fn label_edits(&mut self, zoo: &mut Zoo, k: usize) -> Vec<(NodeId, i64)> {
        (0..k)
            .map(|_| {
                let v = self.node(zoo);
                let w = self.rng.weight();
                zoo.labels[v as usize] = w;
                (NodeId::from_index(v as usize), w)
            })
            .collect()
    }

    /// `k` uniform nodes.
    pub fn nodes(&mut self, zoo: &Zoo, k: usize) -> Vec<NodeId> {
        (0..k)
            .map(|_| NodeId::from_index(self.node(zoo) as usize))
            .collect()
    }

    /// `k` distinct uniform non-roots to cut, and the links that put each
    /// back under its old parent. Applying both restores `zoo.parent`.
    pub fn cut_link(&mut self, zoo: &Zoo, k: usize) -> (Vec<NodeId>, Vec<(NodeId, NodeId)>) {
        let mut cuts = Vec::with_capacity(k);
        while cuts.len() < k {
            let v = self.node(zoo);
            if zoo.parent[v as usize] != NO_PARENT && !self.taken[v as usize] {
                self.taken[v as usize] = true;
                cuts.push(v);
            }
        }
        for &v in &cuts {
            self.taken[v as usize] = false;
        }
        let id = |v: u32| NodeId::from_index(v as usize);
        let links = cuts
            .iter()
            .map(|&v| (id(v), id(zoo.parent[v as usize])))
            .collect();
        (cuts.into_iter().map(id).collect(), links)
    }

    /// `QUERIES_PER_KIND` each of subtree, path, LCA and component-value
    /// queries. Path and LCA endpoints share a component, so every one of
    /// them walks the trace rather than answering "not connected".
    pub fn queries(&mut self, zoo: &Zoo) -> QueryBatch {
        let mut b = QueryBatch::with_capacity(4 * QUERIES_PER_KIND);
        let id = |v: u32| NodeId::from_index(v as usize);
        for _ in 0..QUERIES_PER_KIND {
            let v = self.node(zoo);
            b.subtree(id(v));
        }
        for kind in 0..2 {
            for _ in 0..QUERIES_PER_KIND {
                let u = self.node(zoo);
                let r = zoo.component_of(u);
                let v = r.start + self.rng.below((r.end - r.start) as u64) as u32;
                if kind == 0 {
                    b.path(id(u), id(v));
                } else {
                    b.lca(id(u), id(v));
                }
            }
        }
        for _ in 0..QUERIES_PER_KIND {
            let v = self.node(zoo);
            b.component_value(id(v));
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zoo_is_reproducible_per_seed() {
        let a = Zoo::generate(7);
        assert_eq!(a, Zoo::generate(7));
        let b = Zoo::generate(8);
        assert_ne!(a.labels, b.labels);
        assert_eq!(a.parent, b.parent, "the shape is the same for every seed");
        let sizes: Vec<u32> = a.components.iter().map(|r| r.end - r.start).collect();
        assert_eq!(sizes, [80_000, 40_000, 40_000, 50_000, 20_000, 40_000]);
        assert_eq!(a.roots().count(), 6);
        assert!(a.roots().all(|r| a.parent[r as usize] == NO_PARENT));
    }

    #[test]
    fn forest_matches_the_remembered_shape() {
        let zoo = Zoo::generate(3);
        let f = zoo.forest();
        for v in f.node_ids() {
            let p = f.parent(v).map_or(NO_PARENT, |p| p.index() as u32);
            assert_eq!(p, zoo.parent[v.index()]);
            assert_eq!(*f.label(v), zoo.labels[v.index()]);
        }
    }

    #[test]
    fn scripts_are_reproducible_per_seed() {
        let draw = |seed| {
            let mut zoo = Zoo::generate(1);
            let mut s = Script::new(seed);
            let edits = s.label_edits(&mut zoo, 100);
            let cl = s.cut_link(&zoo, 128);
            let q = s.queries(&zoo);
            (edits, cl, q.queries().to_vec(), zoo.labels)
        };
        assert_eq!(draw(5), draw(5));
        assert_ne!(draw(5).0, draw(6).0);
    }

    #[test]
    fn cuts_are_distinct_non_roots_and_links_restore_them() {
        let zoo = Zoo::generate(2);
        let mut s = Script::new(2);
        for _ in 0..20 {
            let (cuts, links) = s.cut_link(&zoo, 128);
            let mut seen = cuts.iter().map(|v| v.index()).collect::<Vec<_>>();
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen.len(), 128);
            for (&c, &(child, parent)) in cuts.iter().zip(&links) {
                assert_eq!(c, child);
                assert_eq!(parent.index() as u32, zoo.parent[c.index()]);
            }
        }
    }

    #[test]
    fn path_and_lca_endpoints_share_a_component() {
        let zoo = Zoo::generate(4);
        let q = Script::new(4).queries(&zoo);
        assert_eq!(q.len(), 4 * QUERIES_PER_KIND);
        for query in q.queries() {
            if let dtc_core::Query::Path(u, v) | dtc_core::Query::Lca(u, v) = *query {
                assert_eq!(
                    zoo.component_of(u.index() as u32),
                    zoo.component_of(v.index() as u32)
                );
            }
        }
    }
}
