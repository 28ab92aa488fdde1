//! Property-based tests for the bounded Presburger solver: every `Sat` answer
//! comes with a model that satisfies the formula, and `Unsat` answers are
//! confirmed by exhaustive enumeration over the (small) bounded domain.

use proptest::prelude::*;

use shapex_presburger::formula::{Constraint, Formula, LinearExpr, Var, VarPool};
use shapex_presburger::solver::{Bounds, SolveResult, Solver};

const VARS: u32 = 3;
const BOUND: u64 = 4;

fn arb_linear() -> impl Strategy<Value = LinearExpr> {
    (
        proptest::collection::vec((-3i64..=3, 0u32..VARS), 0..3),
        -6i64..=6,
    )
        .prop_map(|(terms, constant)| {
            let mut e = LinearExpr::constant(constant);
            for (c, v) in terms {
                e.add_term(Var(v), c);
            }
            e
        })
}

fn arb_atom() -> impl Strategy<Value = Formula> {
    arb_linear().prop_flat_map(|e| {
        prop_oneof![
            Just(Formula::Atom(Constraint::Ge0(e.clone()))),
            Just(Formula::Atom(Constraint::Eq0(e))),
        ]
    })
}

fn arb_formula() -> impl Strategy<Value = Formula> {
    arb_atom().prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 1..3).prop_map(Formula::and),
            proptest::collection::vec(inner.clone(), 1..3).prop_map(Formula::or),
            inner.prop_map(Formula::not),
        ]
    })
}

/// Exhaustively decide satisfiability over the bounded domain.
fn brute_force_sat(formula: &Formula) -> bool {
    let n = (BOUND + 1).pow(VARS);
    for code in 0..n {
        let mut assignment = Vec::with_capacity(VARS as usize);
        let mut rest = code;
        for _ in 0..VARS {
            assignment.push(rest % (BOUND + 1));
            rest /= BOUND + 1;
        }
        if formula.eval(&assignment) {
            return true;
        }
    }
    false
}

fn pool() -> VarPool {
    let mut pool = VarPool::new();
    for i in 0..VARS {
        pool.fresh_bounded(format!("x{i}"), BOUND);
    }
    pool
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn solver_agrees_with_brute_force(formula in arb_formula()) {
        let solver = Solver::new(Bounds::uniform(BOUND));
        let expected = brute_force_sat(&formula);
        match solver.solve(&formula, &pool()) {
            SolveResult::Sat(model) => {
                prop_assert!(expected, "solver found a model for an unsatisfiable formula");
                prop_assert!(formula.eval(&model), "returned model does not satisfy the formula");
                prop_assert!(model.iter().all(|&v| v <= BOUND), "model exceeds the bounds");
            }
            SolveResult::Unsat => prop_assert!(!expected, "solver missed a model"),
            SolveResult::Unknown => {
                // The default budget should be ample for these tiny formulas.
                prop_assert!(false, "budget exhausted on a tiny formula");
            }
        }
    }

    #[test]
    fn negation_flips_models_not_satisfiability_of_tautologies(formula in arb_formula()) {
        // A formula and its negation cannot both be unsatisfiable over the
        // same bounded domain.
        let solver = Solver::new(Bounds::uniform(BOUND));
        let f_sat = solver.solve(&formula, &pool()).is_sat();
        let negated = Formula::not(formula);
        let n_sat = solver.solve(&negated, &pool()).is_sat();
        prop_assert!(f_sat || n_sat);
    }
}
