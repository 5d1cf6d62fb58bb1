//! Differential tests for change propagation: the trace-replay path must
//! produce exactly the values of the sequential oracle (and, with the
//! `check` feature, of a fresh full contraction via
//! `DynForest::validate_values`) over long random edit scripts, across the
//! whole shape zoo, for invertible and non-invertible algebras alike.

use dtc_core::gen::{self, ChurnOp, XorShift64};
use dtc_core::{
    DynForest, ExprEval, ExprLabel, Forest, MinMax, NodeId, Propagate, QueryBatch, SubtreeSum,
};

/// Every shape the propagator has to survive, including the adversarial
/// depth (path, broom handle) and degree (star, broom head) extremes.
fn shape_zoo(n: usize, seed: u64) -> Vec<(String, Forest<i64>)> {
    vec![
        (format!("random_tree({n})"), gen::random_tree(n, seed)),
        (format!("path({n})"), gen::path(n, seed)),
        (format!("star({n})"), gen::star(n, seed)),
        (
            format!("caterpillar({},4)", n / 5),
            gen::caterpillar(n / 5, 4, seed),
        ),
        (format!("binary_tree({n})"), gen::binary_tree(n, seed)),
        (
            format!("broom({},{})", n / 2, n / 2),
            gen::broom(n / 2, n / 2, seed),
        ),
        (
            format!("random_forest({n},7)"),
            gen::random_forest(n, 7, seed),
        ),
    ]
}

/// Applies a label-edit script to a propagating forest, checking it
/// against the oracle (and a fresh contraction) after every batch.
fn diff_label_script<A>(name: &str, forest: Forest<A::Label>, alg: A, edits: usize, seed: u64)
where
    A: Propagate<Label = i64>,
    A::Val: std::fmt::Debug,
{
    let n = forest.len();
    let mut rng = XorShift64::new(seed);
    let mut d = DynForest::with_seed(forest, alg.clone(), 0xFA57);

    let mut done = 0usize;
    while done < edits {
        let batch_len = 1 + rng.below(16) as usize;
        let updates: Vec<(NodeId, i64)> = (0..batch_len.min(edits - done))
            .map(|_| {
                (
                    NodeId::from_index(rng.below(n as u64) as usize),
                    rng.weight(),
                )
            })
            .collect();
        done += updates.len();
        d.batch_update_weights(&updates);
        let stats = d.recompute();
        assert_eq!(
            stats.replayed_slots + stats.reused_slots,
            stats.total,
            "{name}: replay stats must partition the trace"
        );
        #[cfg(feature = "check")]
        d.validate_values()
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let oracle = d.forest().sequential_fold(&alg);
        for v in d.forest().node_ids() {
            assert_eq!(
                d.subtree_value(v),
                oracle[v.index()],
                "{name}: oracle mismatch at {v}"
            );
        }
    }
}

#[test]
fn propagation_matches_oracle_across_shape_zoo() {
    for (name, f) in shape_zoo(600, 0xD1FF) {
        diff_label_script(&name, f, SubtreeSum, 120, 0x5C41A7);
    }
}

#[test]
fn propagation_matches_oracle_for_noninvertible_minmax() {
    for (name, f) in shape_zoo(400, 0x3A11) {
        diff_label_script(&name, f, MinMax, 80, 0xBEEF);
    }
}

#[test]
fn propagation_matches_oracle_for_expressions() {
    let f = gen::random_expr(2_000, 9);
    let leaves: Vec<NodeId> = f
        .node_ids()
        .filter(|&v| matches!(f.label(v), ExprLabel::Leaf(_)))
        .collect();
    let mut d = DynForest::with_seed(f, ExprEval, 0xE4);

    let mut rng = XorShift64::new(0xAB);
    for _ in 0..40 {
        let updates: Vec<(NodeId, ExprLabel)> = (0..1 + rng.below(8))
            .map(|_| {
                let v = leaves[rng.below(leaves.len() as u64) as usize];
                (v, ExprLabel::Leaf(rng.below(7) as i64 - 3))
            })
            .collect();
        d.batch_update_weights(&updates);
        d.recompute();
        #[cfg(feature = "check")]
        d.validate_values().unwrap();
        let oracle = d.forest().sequential_fold(&ExprEval);
        for v in d.forest().node_ids() {
            assert_eq!(
                d.subtree_value(v),
                oracle[v.index()],
                "expr oracle mismatch at {v}"
            );
        }
    }
}

/// Churn scripts interleave structural edits (which contract afresh and
/// leave the replay tables stale) with label edits (which re-anchor the
/// tables on the stored trace and then propagate again); values must stay
/// exact through every transition.
#[test]
fn propagation_survives_structural_churn_and_reanchors() {
    let (f, script) = gen::churn(500, 200, 0xC08A);
    let mut d = DynForest::with_seed(f, SubtreeSum, 0x11);
    for (i, chunk) in script.chunks(8).enumerate() {
        for &op in chunk {
            match op {
                ChurnOp::Cut(v) => d.batch_cut(&[v]),
                ChurnOp::Link { child, parent } => d.batch_link(&[(child, parent)]),
                ChurnOp::Weight(v, w) => d.batch_update_weights(&[(v, w)]),
            }
        }
        d.recompute();
        let oracle = d.forest().sequential_fold(&SubtreeSum);
        for v in d.forest().node_ids() {
            assert_eq!(
                d.subtree_value(v),
                oracle[v.index()],
                "churn chunk {i}: mismatch at {v}"
            );
        }
    }
    // A label-only batch after all that churn exercises the re-anchor
    // (a table rebuild) and then pure propagation on the new trace.
    d.batch_update_weights(&[(NodeId::from_index(3), 1_000)]);
    let stats = d.recompute();
    assert_eq!(stats.replayed_slots, stats.total, "re-anchor replays all");
    d.batch_update_weights(&[(NodeId::from_index(3), -7)]);
    let stats = d.recompute();
    assert!(
        stats.replayed_slots < stats.total,
        "post-anchor batches propagate incrementally again"
    );
    let oracle = d.forest().sequential_fold(&SubtreeSum);
    for v in d.forest().node_ids() {
        assert_eq!(d.subtree_value(v), oracle[v.index()]);
    }
}

/// After a recompute: every subtree value equals the oracle's, and a
/// mixed query batch read from the maintained trace equals the answers of
/// a fresh contraction (under another seed). With the `check` feature the
/// dynamic validators run too — including the stored-trace rules, which
/// now hold after structural recomputes as well.
fn assert_coherent<A>(when: &str, d: &DynForest<A>, alg: &A, rng: &mut XorShift64)
where
    A: Propagate<Label = i64>,
    A::Val: std::fmt::Debug,
    A::PathVal: PartialEq + std::fmt::Debug,
{
    #[cfg(feature = "check")]
    {
        d.validate().unwrap_or_else(|e| panic!("{when}: {e}"));
        d.validate_values()
            .unwrap_or_else(|e| panic!("{when}: {e}"));
    }
    let f = d.forest();
    let oracle = f.sequential_fold(alg);
    for v in f.node_ids() {
        assert_eq!(
            d.subtree_value(v),
            oracle[v.index()],
            "{when}: oracle mismatch at {v}"
        );
    }
    let n = f.len() as u64;
    let mut batch = QueryBatch::new();
    for _ in 0..32 {
        let u = NodeId::from_index(rng.below(n) as usize);
        let v = NodeId::from_index(rng.below(n) as usize);
        batch.subtree(u).path(u, v).lca(u, v).component_value(v);
    }
    let got = d.query_batch(&batch).unwrap();
    let fresh = f.contraction().seed(rng.next_u64()).run(alg);
    let want = fresh.query_batch(f, alg, &batch).unwrap();
    assert_eq!(
        got, want,
        "{when}: query batch diverges from a fresh contraction"
    );
}

/// Structural differential: each round cuts `k` non-roots, relinks half
/// of them under their old parent and the rest under a node outside their
/// own subtree, then lands two label batches, recomputing after every
/// step and checking [`assert_coherent`] after every recompute.
fn diff_structural_script<A>(name: &str, forest: Forest<i64>, alg: A, rounds: usize, k: usize)
where
    A: Propagate<Label = i64>,
    A::Val: std::fmt::Debug,
    A::PathVal: PartialEq + std::fmt::Debug,
{
    let n = forest.len();
    let mut rng = XorShift64::new(0x57C7 ^ n as u64);
    let mut d = DynForest::with_seed(forest, alg.clone(), 0x7EE);
    for round in 0..rounds {
        let when = |step: &str| format!("{name} round {round}: {step}");

        let mut cuts: Vec<(NodeId, NodeId)> = Vec::new();
        for _ in 0..8 * k {
            let v = NodeId::from_index(rng.below(n as u64) as usize);
            if let Some(p) = d.forest().parent(v) {
                if cuts.len() < k && cuts.iter().all(|&(c, _)| c != v) {
                    cuts.push((v, p));
                }
            }
        }
        let cut: Vec<NodeId> = cuts.iter().map(|&(v, _)| v).collect();
        d.batch_cut(&cut);
        let stats = d.recompute();
        assert!(
            stats.dirty <= cut.len(),
            "{}",
            when("a cut marks one parent")
        );
        assert_eq!(
            stats.replayed_slots,
            stats.total,
            "{}",
            when("cuts contract afresh")
        );
        assert_coherent(&when("cut"), &d, &alg, &mut rng);

        // Restoring original edges first can never close a cycle; the
        // moved half then picks parents outside its own component.
        let (back, moved) = cuts.split_at(cuts.len() / 2);
        d.batch_link(back);
        for &(v, _) in moved {
            for _ in 0..64 {
                let t = NodeId::from_index(rng.below(n as u64) as usize);
                if d.root_of(t) != v {
                    d.batch_link(&[(v, t)]);
                    break;
                }
            }
        }
        let stats = d.recompute();
        assert_eq!(
            stats.replayed_slots,
            stats.total,
            "{}",
            when("links contract afresh")
        );
        assert_coherent(&when("link"), &d, &alg, &mut rng);

        for pass in 0..2 {
            let updates: Vec<(NodeId, i64)> = (0..k)
                .map(|_| {
                    (
                        NodeId::from_index(rng.below(n as u64) as usize),
                        rng.weight(),
                    )
                })
                .collect();
            d.batch_update_weights(&updates);
            let stats = d.recompute();
            if pass == 0 {
                assert_eq!(stats.replayed_slots, stats.total, "{}", when("re-anchor"));
            }
            assert_eq!(stats.replayed_slots + stats.reused_slots, stats.total);
            assert_coherent(&when("label batch"), &d, &alg, &mut rng);
        }
    }
}

#[test]
fn structural_batches_match_oracle_and_fresh_queries_across_shape_zoo() {
    for (name, f) in shape_zoo(600, 0x5EAF) {
        diff_structural_script(&format!("sum {name}"), f.clone(), SubtreeSum, 4, 16);
        diff_structural_script(&format!("minmax {name}"), f, MinMax, 4, 16);
    }
}

/// The whole point of the accumulator caches: a small edit batch must not
/// replay the world, even on the depth/degree-adversarial shapes where
/// a path-walking baseline degenerates to O(n).
#[test]
fn small_batches_replay_few_slots_on_adversarial_shapes() {
    let n = 50_000usize;
    for (name, f) in [
        ("path", gen::path(n, 5)),
        ("star", gen::star(n, 5)),
        ("random", gen::random_tree(n, 5)),
        ("broom", gen::broom(n / 2, n / 2, 5)),
    ] {
        let mut d = DynForest::with_seed(f, SubtreeSum, 0x909);
        d.batch_update_weights(&[(NodeId::from_index(n - 1), 42)]);
        let stats = d.recompute();
        assert!(
            stats.replayed_slots * 10 < stats.total,
            "{name}: single edit replayed {} of {} slots",
            stats.replayed_slots,
            stats.total
        );
    }
}

/// Cutoff: a replayed slot that reproduces its recorded contribution
/// stops the wave. An identity edit still climbs its compress chain (one
/// survivor hop per trace round, O(log n) of them) but must cut off at
/// the first rake instead of replaying the whole path to the root.
#[test]
fn minmax_cutoff_stops_the_wave() {
    let n = 20_000usize;
    let f = gen::path(n, 7);
    let mid_weight = *f.label(NodeId::from_index(n / 2));
    let mut d = DynForest::with_seed(f, MinMax, 0x7777);
    d.batch_update_weights(&[(NodeId::from_index(n / 2), mid_weight)]);
    let stats = d.recompute();
    assert!(
        stats.replayed_slots <= 64,
        "identity edit replayed {} slots (expected O(log n))",
        stats.replayed_slots
    );
    let oracle = d.forest().sequential_fold(&MinMax);
    for v in d.forest().node_ids() {
        assert_eq!(d.subtree_value(v), oracle[v.index()]);
    }
}

/// Bit-identical guarantee, checked by the crate's own validator up to
/// 10⁵ nodes (`check` feature).
#[cfg(feature = "check")]
#[test]
fn validator_confirms_value_identity_at_100k() {
    let n = 100_000usize;
    let mut d = DynForest::with_seed(gen::random_tree(n, 0x51DE), SubtreeSum, 0xF00);
    d.validate().unwrap();
    d.validate_values().unwrap();
    let mut rng = XorShift64::new(0xFACE);
    for _ in 0..5 {
        let updates: Vec<(NodeId, i64)> = (0..200)
            .map(|_| {
                (
                    NodeId::from_index(rng.below(n as u64) as usize),
                    rng.weight(),
                )
            })
            .collect();
        d.batch_update_weights(&updates);
        d.recompute();
        d.validate().unwrap();
        d.validate_values().unwrap();
    }
}
