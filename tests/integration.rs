//! Cross-crate integration tests: parse schemas and graphs, validate, embed,
//! and decide containment end to end through the `shapex` facade.

use shapex::containment::det::{characterizing_graph, det_containment};
use shapex::containment::embedding::{embeds, max_simulation};
use shapex::containment::shex0::{shex0_containment, Shex0Options};
use shapex::containment::Containment;
use shapex::gadgets::figures;
use shapex::gadgets::generate::{restrict_schema, SchemaGen};
use shapex::gadgets::reductions::{
    dnf_is_tautology, dnf_tautology_gadget, exponential_family, exponential_family_witness,
    DnfFormula,
};
use shapex::graph::{parse_graph, write_graph};
use shapex::shex::typing::{maximal_typing, validates};
use shapex::shex::{parse_schema, write_schema, SchemaClass};

use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn figure_1_pipeline() {
    let schema = figures::bug_tracker_schema();
    let graph = figures::bug_tracker_graph();
    assert_eq!(schema.classify(), SchemaClass::DetShEx0Minus);

    // Validation and embedding agree (Proposition 3.2: for ShEx0 the two
    // semantics coincide).
    let typing = maximal_typing(&graph, &schema);
    assert!(typing.is_total());
    let shape = schema.to_shape_graph().unwrap();
    assert!(embeds(&graph, &shape).is_some());

    // Schema round-trips through its textual form without changing class.
    let reparsed = parse_schema(&write_schema(&schema)).unwrap();
    assert_eq!(reparsed.classify(), SchemaClass::DetShEx0Minus);
    assert!(det_containment(&schema, &reparsed).unwrap().is_contained());
    assert!(det_containment(&reparsed, &schema).unwrap().is_contained());

    // The instance graph round-trips through the text format.
    let graph2 = parse_graph(&write_graph(&graph)).unwrap();
    assert!(validates(&graph2, &schema));
}

#[test]
fn validation_agrees_with_embedding_for_shex0() {
    // Proposition 3.2: for RBE0 schemas, G ⊨ S iff G ≼ shape_graph(S).
    // Check on a batch of sampled and hand-written graphs.
    let schema = figures::bug_tracker_schema();
    let shape = schema.to_shape_graph().unwrap();
    let samples = [
        "b -descr-> l\nb -reportedBy-> u\nu -name-> l2\n",
        "b -descr-> l\nb -reportedBy-> u\nu -name-> l2\nu -email-> l3\nb -related-> b\n",
        "b -descr-> l\n",
        "b -descr-> l\nb -descr-> l2\nb -reportedBy-> u\nu -name-> l3\n",
        "e -name-> l\ne -email-> l2\nx -reproducedBy-> e\n",
        "lonely\n",
    ];
    for text in samples {
        let g = parse_graph(text).unwrap();
        assert_eq!(
            validates(&g, &schema),
            embeds(&g, &shape).is_some(),
            "validation and embedding disagree on:\n{text}"
        );
    }
}

#[test]
fn det_containment_matches_shex0_containment_on_det_minus_pairs() {
    // On DetShEx0- inputs the polynomial procedure and the general one must
    // give the same verdict.
    let mut rng = StdRng::seed_from_u64(42);
    for seed in 0..8u64 {
        let mut schema_rng = StdRng::seed_from_u64(seed);
        let k = SchemaGen::new(5, 3).det_shex0_minus(&mut schema_rng);
        let h = restrict_schema(&mut rng, &k);
        if !h.is_det_shex0_minus() {
            continue;
        }
        let det = det_containment(&h, &k).unwrap();
        let general = shex0_containment(&h, &k, &Shex0Options::quick());
        assert_eq!(
            det.is_contained(),
            general.is_contained(),
            "procedures disagree (seed {seed})\nH:\n{h}\nK:\n{k}"
        );
        assert!(
            det.is_contained(),
            "restrictions are contained by construction"
        );
    }
}

#[test]
fn non_containment_answers_are_always_certified() {
    let mut rng = StdRng::seed_from_u64(7);
    let mut checked = 0;
    for seed in 0..10u64 {
        let mut schema_rng = StdRng::seed_from_u64(1000 + seed);
        let a = SchemaGen::new(4, 3).det_shex0_minus(&mut schema_rng);
        let b = SchemaGen::new(4, 3).det_shex0_minus(&mut rng);
        for (h, k) in [(&a, &b), (&b, &a)] {
            if let Containment::NotContained(witness) =
                shex0_containment(h, k, &Shex0Options::quick())
            {
                assert!(
                    validates(&witness, h),
                    "witness must satisfy H (seed {seed})"
                );
                assert!(
                    !validates(&witness, k),
                    "witness must violate K (seed {seed})"
                );
                checked += 1;
            }
        }
    }
    assert!(
        checked > 0,
        "expected at least one non-containment among random pairs"
    );
}

#[test]
fn characterizing_graph_property_on_random_det_minus_pairs() {
    // Lemma 4.2: G_H ∈ L(H), and for any K in the class, G_H ≼ K implies
    // H ≼ K. We check the contrapositive-free form directly on random pairs.
    for seed in 0..10u64 {
        let mut rng = StdRng::seed_from_u64(2000 + seed);
        let h = SchemaGen::new(4, 3).det_shex0_minus(&mut rng);
        let k = SchemaGen::new(4, 3).det_shex0_minus(&mut rng);
        let g = characterizing_graph(&h).unwrap();
        let hg = h.to_shape_graph().unwrap();
        let kg = k.to_shape_graph().unwrap();
        assert!(embeds(&g, &hg).is_some(), "G ∈ L(H) (seed {seed})");
        assert!(validates(&g, &h), "G ⊨ H (seed {seed})");
        if embeds(&g, &kg).is_some() {
            assert!(
                embeds(&hg, &kg).is_some(),
                "G ≼ K must imply H ≼ K (seed {seed})\nH:\n{h}\nK:\n{k}"
            );
        }
    }
}

#[test]
fn dnf_gadget_end_to_end() {
    // Figure 6's formula is not a tautology, so containment fails and the
    // schemas separate on a concrete valuation; a tautology yields
    // containment (the procedure must not claim otherwise).
    let fig6 = DnfFormula {
        num_vars: 3,
        terms: vec![vec![1, -2], vec![2, -3]],
    };
    assert!(!dnf_is_tautology(&fig6));
    let (h, k) = dnf_tautology_gadget(&fig6);
    let result = shex0_containment(&h, &k, &Shex0Options::default());
    let witness = result
        .counter_example()
        .expect("not a tautology => not contained");
    assert!(validates(witness, &h) && !validates(witness, &k));

    let taut = DnfFormula {
        num_vars: 2,
        terms: vec![vec![1], vec![-1, 2], vec![-1, -2]],
    };
    assert!(dnf_is_tautology(&taut));
    let (ht, kt) = dnf_tautology_gadget(&taut);
    let result = shex0_containment(&ht, &kt, &Shex0Options::quick());
    assert!(!result.is_not_contained());
}

#[test]
fn exponential_family_counter_examples_grow() {
    let mut sizes = Vec::new();
    for n in 1..=3 {
        let (h, k) = exponential_family(n);
        let witness = exponential_family_witness(n);
        assert!(validates(&witness, &h));
        assert!(!validates(&witness, &k));
        sizes.push(witness.node_count());
    }
    assert!(sizes[1] > sizes[0] && sizes[2] > sizes[1]);
    assert!(
        sizes[2] - sizes[1] > sizes[1] - sizes[0],
        "super-linear growth"
    );
}

#[test]
fn simulation_is_monotone_under_edge_removal() {
    // Removing an edge from H can only shrink the simulation of G in H when
    // the edge was mandatory; it never turns a non-simulated node into a
    // simulated one... but removing an edge from G can only help. Check the
    // latter on the Figure 1 instance.
    let schema = figures::bug_tracker_schema();
    let shape = schema.to_shape_graph().unwrap();
    let full = figures::bug_tracker_graph();
    let full_sim = max_simulation(&full, &shape);

    // Drop the optional `reproducedBy` edge: every previously simulated node
    // stays simulated.
    let reduced =
        parse_graph("bug1 -descr-> lit_boom\nbug1 -reportedBy-> user1\nuser1 -name-> lit_john\n")
            .unwrap();
    let reduced_sim = max_simulation(&reduced, &shape);
    for node in reduced.nodes() {
        let name = reduced.node_name(node);
        if let Some(original) = full.find_node(name) {
            for image in full_sim.simulators_of(original).iter() {
                assert!(
                    reduced_sim.simulators_of(node).contains(image),
                    "node {name} lost simulator {image:?} after removing edges"
                );
            }
        }
    }
}
