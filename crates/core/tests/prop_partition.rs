//! Property tests for the acyclic partitioner: on arbitrary random DAGs,
//! every stage must preserve the two invariants CCSS execution rests on —
//! exact cover (each node in exactly one partition, no replication) and
//! an acyclic partition graph (a singular static schedule exists).

use essent_core::dag::DagView;
use essent_core::legality::merge_legal;
use essent_core::mffc::mffc_decompose;
use essent_core::partition::{
    merge_single_parent, merge_small_into_any_sibling, merge_small_siblings, partition,
    Partitioning,
};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// Random DAG: edges only go from lower to higher node index, so the
/// graph is acyclic by construction but otherwise arbitrary.
fn arb_dag(max_nodes: usize, density: f64) -> impl Strategy<Value = DagView> {
    (2..max_nodes).prop_flat_map(move |n| {
        let all_pairs: Vec<(usize, usize)> = (0..n)
            .flat_map(|a| ((a + 1)..n).map(move |b| (a, b)))
            .collect();
        let take = ((all_pairs.len() as f64) * density).ceil() as usize;
        proptest::sample::subsequence(all_pairs, 0..=take.max(1))
            .prop_map(move |edges| DagView::from_edges(n, &edges))
    })
}

/// Random DAG with a few high-fan-out "hub" nodes (clock- and
/// reset-like sources feeding most of the graph) on top of sparse random
/// edges: the shape where Phase B candidates share several parents and
/// one round sees many score levels.
fn hub_dag(seed: u64, max_nodes: usize) -> DagView {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let n = rng.gen_range(8..max_nodes);
    let hubs = rng.gen_range(0usize..4).min(n - 1);
    let mut edges = Vec::new();
    for a in 0..n {
        for b in (a + 1)..n {
            let p = if a < hubs { 0.6 } else { 0.06 };
            if rng.gen_bool(p) {
                edges.push((a, b));
            }
        }
    }
    DagView::from_edges(n, &edges)
}

/// Phase B as first written, kept as the oracle for the candidate
/// generator: materialize every co-child pair of every live parent,
/// dedupe through a set, score by set intersection, stable-sort by score
/// descending then `(a, b)` ascending, and merge greedily.
fn naive_phase_b(parts: &mut Partitioning, c_p: usize) {
    loop {
        let mut seen = BTreeSet::new();
        let mut candidates = Vec::new();
        let live: Vec<usize> = parts.live_partitions().collect();
        for parent in live {
            let children: Vec<usize> = parts
                .succs_of(parent)
                .into_iter()
                .filter(|&c| parts.is_alive(c) && parts.members(c).len() < c_p)
                .collect();
            for i in 0..children.len() {
                for j in (i + 1)..children.len() {
                    let (a, b) = (children[i], children[j]);
                    if !seen.insert((a, b)) {
                        continue;
                    }
                    let preds_a: BTreeSet<usize> = parts.preds_of(a).into_iter().collect();
                    let shared = parts
                        .preds_of(b)
                        .iter()
                        .filter(|p| preds_a.contains(p))
                        .count();
                    let direct = parts.succs_of(a).contains(&b) as usize
                        + parts.succs_of(b).contains(&a) as usize;
                    candidates.push((shared + direct, a, b));
                }
            }
        }
        if candidates.is_empty() {
            return;
        }
        candidates.sort_by(|x, y| y.0.cmp(&x.0).then(x.1.cmp(&y.1)).then(x.2.cmp(&y.2)));
        let mut merged_any = false;
        for (_score, a, b) in candidates {
            if !parts.is_alive(a) || !parts.is_alive(b) {
                continue;
            }
            if parts.members(a).len() >= c_p || parts.members(b).len() >= c_p {
                continue;
            }
            if merge_legal(parts, a, b) {
                parts.merge(a, b);
                merged_any = true;
            }
        }
        if !merged_any {
            return;
        }
    }
}

/// Phase B through `merge_small_siblings` and through the oracle, from
/// the same Phase A result: the two assignments must be identical at
/// every `C_p` (a merge keeps its first partition's id, so equal
/// assignments mean the same merges).
fn check_phase_b_matches_oracle(dag: &DagView) {
    let mut seed = mffc_decompose(dag);
    seed.attach(dag);
    merge_single_parent(&mut seed);
    for c_p in [2, 8, 32] {
        let mut fast = seed.clone();
        merge_small_siblings(&mut fast, c_p);
        let mut naive = seed.clone();
        naive_phase_b(&mut naive, c_p);
        prop_assert_eq!(fast.assignment(), naive.assignment(), "c_p = {}", c_p);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn phase_b_matches_naive_oracle(dag in arb_dag(60, 0.15)) {
        check_phase_b_matches_oracle(&dag);
    }

    #[test]
    fn phase_b_matches_naive_oracle_on_hub_dags(seed in any::<u64>()) {
        check_phase_b_matches_oracle(&hub_dag(seed, 90));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Graphs large enough that the hubs feed more small partitions than
    /// Phase B's hub threshold, so its lazy path runs at the default.
    #[test]
    fn phase_b_matches_naive_oracle_on_large_hub_dags(seed in any::<u64>()) {
        check_phase_b_matches_oracle(&hub_dag(seed, 400));
    }

    #[test]
    fn mffc_decomposition_is_valid(dag in arb_dag(40, 0.15)) {
        let parts = mffc_decompose(&dag);
        prop_assert!(parts.validate(&dag).is_ok());
    }

    /// Figure 3's containment property: if u is in the cone rooted at v,
    /// all of u's successors are in the same cone or are the root.
    #[test]
    fn mffc_fanout_free_property(dag in arb_dag(40, 0.2)) {
        let parts = mffc_decompose(&dag);
        for p in parts.live_partitions() {
            let members = parts.members(p);
            // Exactly one root: the unique member all of whose successors
            // leave the partition.
            let roots: Vec<usize> = members
                .iter()
                .copied()
                .filter(|&v| dag.succs[v].iter().all(|&s| parts.part_of(s) != p))
                .collect();
            prop_assert_eq!(roots.len(), 1);
            let root = roots[0];
            // Every non-root member's successors stay inside the cone.
            for &v in members {
                if v == root {
                    continue;
                }
                for &s in &dag.succs[v] {
                    prop_assert_eq!(parts.part_of(s), p,
                        "member {}'s fanout {} escapes its cone", v, s);
                }
            }
        }
    }

    #[test]
    fn each_merge_phase_preserves_invariants(dag in arb_dag(35, 0.2), cp in 1usize..12) {
        let mut parts = mffc_decompose(&dag);
        parts.attach(&dag);
        merge_single_parent(&mut parts);
        prop_assert!(parts.validate(&dag).is_ok(), "after phase A");
        merge_small_siblings(&mut parts, cp);
        prop_assert!(parts.validate(&dag).is_ok(), "after phase B");
        merge_small_into_any_sibling(&mut parts, cp);
        prop_assert!(parts.validate(&dag).is_ok(), "after phase C");
    }

    #[test]
    fn full_partitioner_valid_across_cp(dag in arb_dag(50, 0.12), cp in 1usize..32) {
        let parts = partition(&dag, cp);
        prop_assert!(parts.validate(&dag).is_ok());
    }

    /// Larger C_p never produces (strictly) more partitions on the same
    /// graph than C_p = 1, and the assignment always covers all nodes.
    #[test]
    fn coarsening_monotonicity_in_partition_count(dag in arb_dag(40, 0.15)) {
        let fine = partition(&dag, 1).live_partitions().count();
        let coarse = partition(&dag, 64).live_partitions().count();
        prop_assert!(coarse <= fine, "coarse {} vs fine {}", coarse, fine);
    }

    /// The incremental partition-graph maintenance must agree with a
    /// from-scratch recomputation after arbitrary merging activity.
    #[test]
    fn incremental_adjacency_matches_recompute(dag in arb_dag(30, 0.25), cp in 2usize..10) {
        let parts = partition(&dag, cp);
        let mut fresh = parts.clone();
        fresh.attach(&dag);
        for p in parts.live_partitions() {
            let inc: Vec<usize> = parts.succs_of(p);
            let rec: Vec<usize> = fresh.succs_of(p);
            prop_assert_eq!(inc, rec, "partition {} adjacency drifted", p);
        }
    }
}
