//! Engine-equivalence property suite: `max_simulation`, the typing
//! worklist of `shapex-shex` run with `H`'s nodes as the types, and the
//! retained full-rescan fix-point of `baseline.rs` must compute *identical*
//! maximal simulations on random graph pairs — in both the polynomial
//! (all-basic-interval) regime and the backtracking-witness regime of
//! general intervals, and with rows of one word or more.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use shapex_core::baseline::max_simulation_baseline;
use shapex_core::simulation::max_simulation;
use shapex_graph::generate::{sample_from_shape, GraphGen};
use shapex_graph::Graph;
use shapex_rbe::Interval;

/// Assert that the worklist agrees with the oracle.
fn engines_agree(g: &Graph, h: &Graph) {
    let oracle = max_simulation_baseline(g, h);
    assert_eq!(
        oracle,
        max_simulation(g, h),
        "worklist engine differs from baseline"
    );
}

/// A random graph with *general* intervals, the regime where the witness
/// check falls back to the backtracking solver.
fn general_graph(rng: &mut StdRng, nodes: usize, labels: usize, edges: usize) -> Graph {
    let mut g = Graph::new();
    let ids: Vec<_> = (0..nodes).map(|i| g.node(&format!("v{i}"))).collect();
    for _ in 0..edges {
        let s = ids[rng.gen_range(0..ids.len())];
        let t = ids[rng.gen_range(0..ids.len())];
        let label = format!("p{}", rng.gen_range(0..labels));
        let occur = match rng.gen_range(0..6) {
            0 => Interval::ONE,
            1 => Interval::OPT,
            2 => Interval::STAR,
            3 => Interval::exactly(rng.gen_range(1..=3u64)),
            4 => {
                let lo = rng.gen_range(0..=2u64);
                Interval::bounded(lo, lo + rng.gen_range(0..=2u64))
            }
            _ => Interval::at_least(rng.gen_range(0..=2u64)),
        };
        g.add_edge_with(s, label.as_str(), occur, t);
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(500))]

    #[test]
    fn engines_agree_on_random_shape_pairs(seed in 0u64..100_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = GraphGen::new(7, 3).out_degree(2.0).shape(&mut rng);
        let h = GraphGen::new(6, 3).out_degree(2.5).shape(&mut rng);
        engines_agree(&g, &h);
        // Reflexive pairs exercise dense relations with many survivors.
        engines_agree(&h, &h);
    }

    #[test]
    fn engines_agree_on_instances_vs_shapes(seed in 0u64..100_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let shape = GraphGen::new(5, 3).out_degree(2.0).shape(&mut rng);
        let instance = sample_from_shape(&mut rng, &shape, 24);
        engines_agree(&instance, &shape);
        engines_agree(&shape, &instance);
    }

    #[test]
    fn engines_agree_on_general_interval_pairs(seed in 0u64..100_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = general_graph(&mut rng, 5, 3, 9);
        let h = general_graph(&mut rng, 5, 3, 9);
        engines_agree(&g, &h);
        engines_agree(&h, &g);
    }

    #[test]
    fn engines_agree_on_mixed_regimes(seed in 0u64..100_000) {
        // A basic-interval graph against a general-interval graph: per-pair
        // dispatch between the flow and the backtracking witness solver.
        let mut rng = StdRng::seed_from_u64(seed);
        let g = GraphGen::new(6, 3).out_degree(2.0).simple(&mut rng);
        let h = general_graph(&mut rng, 5, 3, 8);
        engines_agree(&g, &h);
    }
}

#[test]
fn engines_agree_on_rows_wider_than_one_word() {
    // 70 nodes in H: each row spans two words, the second holding 6 valid
    // bits.
    let mut wide = false;
    for seed in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let h = GraphGen::new(70, 3).out_degree(2.0).shape(&mut rng);
        let instance = sample_from_shape(&mut rng, &h, 40);
        for g in [&instance, &h] {
            engines_agree(g, &h);
            let sim = max_simulation(g, &h);
            wide |= g
                .nodes()
                .any(|n| sim.simulators_of(n).iter().any(|m| m.index() >= 64));
        }
    }
    assert!(wide, "some simulator sits in the second word of its row");
}

#[test]
fn engines_agree_on_disconnected_and_degenerate_graphs() {
    let empty = Graph::new();
    let mut isolated = Graph::new();
    isolated.node("lonely");
    let mut rng = StdRng::seed_from_u64(7);
    let shape = GraphGen::new(4, 2).out_degree(2.0).shape(&mut rng);
    engines_agree(&empty, &shape);
    engines_agree(&shape, &empty);
    engines_agree(&isolated, &shape);
    engines_agree(&shape, &isolated);
    engines_agree(&empty, &empty);
}
