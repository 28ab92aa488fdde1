//! Property-based tests on the core data structures and invariants.

use proptest::prelude::*;

use shapex::containment::embedding::embeds;
use shapex::presburger::translate::rbe_member;
use shapex::rbe::flow::{basic_assignment, general_assignment, verify_assignment, FlowScratch};
use shapex::rbe::membership::{naive_member, rbe0_member, sorbe_member};
use shapex::rbe::{Bag, Interval, Rbe};
use shapex::shex::typing::validates;

// ---------------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------------

const SYMBOLS: [&str; 3] = ["a", "b", "c"];

fn arb_interval() -> impl Strategy<Value = Interval> {
    prop_oneof![
        Just(Interval::ONE),
        Just(Interval::OPT),
        Just(Interval::PLUS),
        Just(Interval::STAR),
        (0u64..3, 0u64..3).prop_map(|(a, b)| Interval::bounded(a.min(a + b), a + b)),
    ]
}

fn arb_basic() -> impl Strategy<Value = Interval> {
    prop_oneof![
        Just(Interval::ONE),
        Just(Interval::OPT),
        Just(Interval::PLUS),
        Just(Interval::STAR),
    ]
}

fn arb_bag() -> impl Strategy<Value = Bag<&'static str>> {
    proptest::collection::vec((0usize..SYMBOLS.len(), 0u64..4), 0..4)
        .prop_map(|pairs| Bag::from_counts(pairs.into_iter().map(|(i, c)| (SYMBOLS[i], c))))
}

fn arb_rbe(depth: u32) -> impl Strategy<Value = Rbe<&'static str>> {
    let leaf = prop_oneof![
        Just(Rbe::Epsilon),
        (0usize..SYMBOLS.len()).prop_map(|i| Rbe::symbol(SYMBOLS[i])),
    ];
    leaf.prop_recursive(depth, 16, 3, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 1..3).prop_map(Rbe::disj),
            proptest::collection::vec(inner.clone(), 1..3).prop_map(Rbe::concat),
            (inner, arb_interval_small()).prop_map(|(e, i)| Rbe::repeat(e, i)),
        ]
    })
}

fn arb_interval_small() -> impl Strategy<Value = Interval> {
    prop_oneof![
        Just(Interval::ONE),
        Just(Interval::OPT),
        Just(Interval::STAR),
        Just(Interval::bounded(1, 2)),
        Just(Interval::exactly(2)),
    ]
}

// ---------------------------------------------------------------------------
// Interval algebra
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn interval_addition_is_commutative_and_monotone(a in arb_interval(), b in arb_interval(), n in 0u64..8) {
        prop_assert_eq!(a.add(&b), b.add(&a));
        // The sum contains x + y whenever x ∈ a and y ∈ b (spot check).
        if a.contains(n) && b.contains(n) {
            prop_assert!(a.add(&b).contains(n + n));
        }
        // Zero is neutral.
        prop_assert_eq!(a.add(&Interval::ZERO), a);
    }

    #[test]
    fn interval_subset_is_a_partial_order(a in arb_interval(), b in arb_interval(), n in 0u64..6) {
        prop_assert!(a.is_subset(&a));
        if a.is_subset(&b) && b.is_subset(&a) {
            prop_assert_eq!(a, b);
        }
        // Subset inclusion respects membership.
        if a.is_subset(&b) && a.contains(n) {
            prop_assert!(b.contains(n));
        }
    }

    #[test]
    fn interval_intersection_is_exact(a in arb_interval(), b in arb_interval(), n in 0u64..8) {
        match a.intersect(&b) {
            Some(c) => prop_assert_eq!(c.contains(n), a.contains(n) && b.contains(n)),
            None => prop_assert!(!(a.contains(n) && b.contains(n))),
        }
    }

    #[test]
    fn interval_parse_roundtrip(a in arb_interval()) {
        let text = a.to_string();
        prop_assert_eq!(Interval::parse(&text).unwrap(), a);
    }
}

// ---------------------------------------------------------------------------
// Bags
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn bag_union_is_commutative_and_counts_add(a in arb_bag(), b in arb_bag()) {
        let ab = a.union(&b);
        let ba = b.union(&a);
        prop_assert_eq!(&ab, &ba);
        prop_assert_eq!(ab.total(), a.total() + b.total());
        for s in SYMBOLS {
            prop_assert_eq!(ab.count(&s), a.count(&s) + b.count(&s));
        }
        prop_assert!(a.is_subbag(&ab));
    }
}

// ---------------------------------------------------------------------------
// RBE membership: the three procedures agree
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn presburger_membership_agrees_with_naive(expr in arb_rbe(2), bag in arb_bag()) {
        // Keep the oracle tractable.
        prop_assume!(bag.total() <= 5);
        prop_assert_eq!(rbe_member(&bag, &expr), naive_member(&bag, &expr));
    }

    #[test]
    fn sorbe_membership_agrees_with_naive(expr in arb_rbe(2), bag in arb_bag()) {
        prop_assume!(bag.total() <= 5);
        if let Ok(answer) = sorbe_member(&bag, &expr) {
            prop_assert_eq!(answer, naive_member(&bag, &expr));
        }
    }

    #[test]
    fn rbe0_membership_agrees_with_naive(
        atoms in proptest::collection::vec((0usize..SYMBOLS.len(), arb_basic()), 0..4),
        bag in arb_bag(),
    ) {
        prop_assume!(bag.total() <= 5);
        let expr = Rbe::concat(
            atoms
                .iter()
                .map(|(i, interval)| Rbe::repeat(Rbe::symbol(SYMBOLS[*i]), *interval))
                .collect(),
        );
        let rbe0 = expr.to_rbe0().expect("constructed as RBE0");
        prop_assert_eq!(rbe0_member(&bag, &rbe0), naive_member(&bag, &expr));
    }
}

// ---------------------------------------------------------------------------
// Interval flow: the dispatching solver and both reference solvers agree
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn flow_solvers_agree(
        sources in proptest::collection::vec(arb_interval(), 0..4),
        sinks in proptest::collection::vec(arb_interval(), 0..4),
        rows in proptest::collection::vec(0u8..16, 4..5),
        forced in 0u8..2,
    ) {
        // Bit `u` of `rows[v]` makes sink `u` compatible with source `v`.
        // Half of the instances keep only each row's lowest bit, so
        // `FlowScratch::solve` decides them by forced routing.
        let rows: Vec<u8> = if forced == 1 {
            rows.iter().map(|&row| row & row.wrapping_neg()).collect()
        } else {
            rows
        };
        let compatible = |v: usize, u: usize| rows[v] & (1 << u) != 0;
        let general = general_assignment(&sources, &sinks, compatible);
        if let Some(a) = &general {
            prop_assert!(verify_assignment(&sources, &sinks, a));
        }
        if sources.iter().chain(&sinks).all(|i| i.is_basic()) {
            let basic = basic_assignment(&sources, &sinks, compatible);
            prop_assert_eq!(basic.is_some(), general.is_some());
            if let Some(a) = &basic {
                prop_assert!(verify_assignment(&sources, &sinks, a));
            }
        }
        let mut scratch = FlowScratch::new();
        scratch.sources.extend_from_slice(&sources);
        scratch.sinks.extend_from_slice(&sinks);
        prop_assert_eq!(scratch.solve(compatible), general.is_some());
        if general.is_some() {
            prop_assert!(verify_assignment(&sources, &sinks, scratch.assignment()));
        }
    }
}

// ---------------------------------------------------------------------------
// Validation vs. embedding (Proposition 3.2) on random instances
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn validation_coincides_with_embedding_for_shex0(seed in 0u64..5000) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use shapex::gadgets::generate::SchemaGen;
        use shapex::graph::generate::{sample_from_shape, GraphGen};

        let mut rng = StdRng::seed_from_u64(seed);
        let schema = SchemaGen::new(4, 3).shex0(&mut rng, false);
        let shape = schema.to_shape_graph().expect("RBE0 schema");
        // A graph sampled from the shape graph and a random simple graph.
        let sampled = sample_from_shape(&mut rng, &shape, 24);
        let random = GraphGen::new(4, 3).out_degree(1.5).simple(&mut rng);
        for g in [sampled, random] {
            prop_assert_eq!(
                validates(&g, &schema),
                embeds(&g, &shape).is_some(),
                "disagreement for seed {}\nschema:\n{}\ngraph:\n{}",
                seed,
                schema,
                g
            );
        }
    }
}
