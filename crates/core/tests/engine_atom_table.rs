//! The cross-schema atom table must be invisible in the answers: a shared
//! engine (one session-level interner spanning every registered schema)
//! answers exactly like a fresh engine per pair (each with its own private
//! interner) — same verdicts, same witnesses. The
//! suite also pins the interner's deduplication: re-registering a schema
//! adds no atoms.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use shapex_core::engine::ContainmentEngine;
use shapex_graph::generate::GraphGen;
use shapex_shex::Schema;

mod common;
use common::{same_answer, tiny};

/// Random RBE₀ schemas via random shape graphs, as in `engine_session`.
fn random_schema(rng: &mut StdRng, nodes: usize, labels: usize) -> Schema {
    let shape = GraphGen::new(nodes, labels).out_degree(2.0).shape(rng);
    Schema::from_shape_graph(&shape)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn shared_atom_table_matrix_equals_fresh_engine_per_pair(seed in 0u64..100_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let family: Vec<Schema> = (0..3)
            .map(|i| random_schema(&mut rng, 4 + i % 2, 3))
            .collect();
        let opts = tiny();

        // One shared session: every schema's alphabet lands in the same
        // atom table, and the unfolders' acceptance memo keys are interned
        // ids.
        let shared = ContainmentEngine::with_search(opts.clone());
        let matrix = shared.check_matrix(&family);
        prop_assert!(
            !shared.atom_table().is_empty(),
            "registering the family must populate the session atom table"
        );

        // The oracle: a fresh engine per pair, whose session context (and
        // therefore interner) never sees any other schema.
        for (i, row) in matrix.iter().enumerate() {
            for (j, cell) in row.iter().enumerate() {
                let fresh = ContainmentEngine::with_search(opts.clone())
                    .check(&family[i], &family[j]);
                prop_assert!(
                    same_answer(cell, &fresh),
                    "shared table changed matrix[{}][{}]: shared {} vs fresh {}",
                    i, j, cell, fresh
                );
            }
        }
    }

    #[test]
    fn atom_interning_is_idempotent_across_registrations(seed in 0u64..100_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let schema = random_schema(&mut rng, 5, 3);
        let engine = ContainmentEngine::with_search(tiny());
        let _ = engine.register(&schema);
        let after_first = engine.atom_table().len();
        prop_assert!(after_first > 0, "a non-empty schema contributes atoms");
        // The same schema again: every atom is already interned, so the
        // table must not grow (structural equality across registrations).
        let _ = engine.register(&schema);
        prop_assert_eq!(
            engine.atom_table().len(),
            after_first,
            "re-registering the same schema must not mint new atom ids"
        );
    }
}
