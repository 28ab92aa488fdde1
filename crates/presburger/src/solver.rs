//! A bounded satisfiability solver for existential Presburger formulas over
//! the naturals.
//!
//! The solver interprets every variable over a finite domain `0..=bound`
//! (per-variable bounds from the [`VarPool`], otherwise a default bound from
//! [`Bounds`]). Within those domains it is sound and complete: `Sat` comes
//! with a verified model, `Unsat` means no model exists with the given
//! bounds. This mirrors how the paper uses Presburger arithmetic: every
//! application (membership, compressed-graph validation, the Section 6
//! containment formulas) comes with an explicit small-model bound
//! (Proposition 6.3 / Weispfenning 1990), so bounded solving loses no
//! generality provided the caller passes a large-enough bound.

use crate::cancel::CancelToken;
use crate::formula::{Constraint, Formula, LinearExpr, VarPool};

/// How many search nodes pass between wall-clock reads when a
/// [`CancelToken`] carries a deadline: the flag is checked every node (one
/// relaxed load), the clock only every this-many nodes, so the polling cost
/// stays far below the per-node search work while the checkpoint interval
/// stays bounded (a few hundred nodes — microseconds). An expired deadline
/// is latched into the token's flag, so every later checkpoint of the same
/// query — in the solver or in its caller — sees it with one load.
const CANCEL_POLL_INTERVAL: u32 = 256;

/// Variable bounds used by the solver when the [`VarPool`] does not declare a
/// per-variable bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bounds {
    /// Inclusive upper bound applied to variables without a declared bound.
    pub default_bound: u64,
}

impl Default for Bounds {
    fn default() -> Self {
        Bounds { default_bound: 64 }
    }
}

impl Bounds {
    /// Bounds with the given default.
    pub fn uniform(default_bound: u64) -> Bounds {
        Bounds { default_bound }
    }
}

/// Counters of one [`Solver::solve_with_stats`] call.
///
/// The branch-and-bound search no longer clones its constraint set and
/// domains per disjunct branch — branching pushes onto an undo trail and
/// truncates on backtrack — so these counters are the cheap observable of
/// how much work (and how much pruning) a query actually did.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SolverStats {
    /// Search nodes visited (same unit as the node budget).
    pub search_nodes: u64,
    /// Branches cut by interval propagation finding a contradiction.
    pub pruned_branches: u64,
}

/// Result of a satisfiability query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveResult {
    /// A model: values for variables `0..n`, verified against the formula.
    Sat(Vec<u64>),
    /// No model exists within the variable bounds.
    Unsat,
    /// The search budget was exhausted before an answer was found.
    Unknown,
}

impl SolveResult {
    /// Whether the result is `Sat`.
    pub fn is_sat(&self) -> bool {
        matches!(self, SolveResult::Sat(_))
    }

    /// Extract the model, if any.
    pub fn model(&self) -> Option<&[u64]> {
        match self {
            SolveResult::Sat(m) => Some(m),
            _ => None,
        }
    }
}

/// The bounded solver. Construct once and reuse across queries.
#[derive(Debug, Clone)]
pub struct Solver {
    bounds: Bounds,
    node_budget: u64,
}

impl Default for Solver {
    fn default() -> Self {
        Solver {
            bounds: Bounds::default(),
            node_budget: 2_000_000,
        }
    }
}

/// Negation normal form with negation pushed into the atoms.
#[derive(Debug, Clone)]
enum Nnf {
    Atom(Constraint),
    And(Vec<Nnf>),
    Or(Vec<Nnf>),
    True,
    False,
}

/// Inclusive variable domains.
type Domains = Vec<(u64, u64)>;

/// One undo-trail record: a variable index plus the domain it had before a
/// tightening or branch assignment.
type TrailEntry = (usize, u64, u64);

/// The mutable state of one solve: the accumulated atomic constraints, the
/// current domains, and the undo trail. Branching pushes onto `atoms` and
/// `trail` and truncates both on backtrack — no per-branch clones.
struct SearchState<'a> {
    atoms: Vec<Constraint>,
    domains: Domains,
    trail: Vec<TrailEntry>,
    budget: u64,
    stats: SolverStats,
    /// External cancellation (caller-supplied token).
    cancel: Option<&'a CancelToken>,
    /// Node counter amortising the deadline clock reads of `cancel`.
    polls: u32,
}

impl SearchState<'_> {
    /// Whether this search must abort: the caller cancelled, or (checked
    /// every [`CANCEL_POLL_INTERVAL`] nodes) the caller's deadline expired.
    fn aborted(&mut self) -> bool {
        let Some(cancel) = self.cancel else {
            return false;
        };
        if cancel.is_cancelled() {
            return true;
        }
        self.polls = self.polls.wrapping_add(1);
        self.polls % CANCEL_POLL_INTERVAL == 0 && cancel.fired()
    }
}

/// Restore every domain recorded after `base`, in reverse push order.
fn undo_to(domains: &mut Domains, trail: &mut Vec<TrailEntry>, base: usize) {
    while trail.len() > base {
        let (idx, lo, hi) = trail.pop().expect("trail underflow");
        domains[idx] = (lo, hi);
    }
}

impl Solver {
    /// A solver with the given default bounds.
    pub fn new(bounds: Bounds) -> Solver {
        Solver {
            bounds,
            node_budget: 2_000_000,
        }
    }

    /// Override the search budget (number of search nodes).
    pub fn with_node_budget(mut self, budget: u64) -> Solver {
        self.node_budget = budget;
        self
    }

    /// Decide satisfiability of `formula` with variables bounded by the pool's
    /// declared bounds (falling back to the solver default).
    pub fn solve(&self, formula: &Formula, pool: &VarPool) -> SolveResult {
        self.solve_with_stats(formula, pool).0
    }

    /// [`Solver::solve`], also reporting the search counters.
    pub fn solve_with_stats(
        &self,
        formula: &Formula,
        pool: &VarPool,
    ) -> (SolveResult, SolverStats) {
        self.solve_with_stats_cancellable(formula, pool, None)
    }

    /// [`Solver::solve_with_stats`] under external cancellation: the search
    /// aborts (returning [`SolveResult::Unknown`]) within a bounded number
    /// of nodes once `cancel` fires. Verdicts reached before cancellation
    /// are identical to the uncancelled solve. A cancelled solve is
    /// indistinguishable here from budget exhaustion; callers that need to
    /// tell the two apart inspect the token after the call returns.
    pub fn solve_with_stats_cancellable(
        &self,
        formula: &Formula,
        pool: &VarPool,
        cancel: Option<&CancelToken>,
    ) -> (SolveResult, SolverStats) {
        let nvars = formula
            .variables()
            .iter()
            .map(|v| v.0 as usize + 1)
            .max()
            .unwrap_or(0)
            .max(pool.len());
        let mut domains: Domains = Vec::with_capacity(nvars);
        for i in 0..nvars {
            let hi = pool
                .declared_bounds()
                .get(i)
                .copied()
                .flatten()
                .unwrap_or(self.bounds.default_bound);
            domains.push((0, hi));
        }
        let nnf = to_nnf(formula, false);
        let mut state = SearchState {
            atoms: Vec::new(),
            domains,
            trail: Vec::new(),
            budget: self.node_budget,
            stats: SolverStats::default(),
            cancel,
            polls: 0,
        };
        let result = match self.search(&[&nnf], &mut state) {
            Some(Some(model)) => {
                debug_assert!(formula.eval(&model), "solver produced an invalid model");
                SolveResult::Sat(model)
            }
            Some(None) => SolveResult::Unsat,
            None => SolveResult::Unknown,
        };
        (result, state.stats)
    }

    /// Convenience wrapper returning `true` only on `Sat`.
    pub fn is_sat(&self, formula: &Formula, pool: &VarPool) -> bool {
        self.solve(formula, pool).is_sat()
    }

    /// The search returns `None` when the budget is exhausted, otherwise
    /// `Some(model_or_none)`. On return, `state`'s atoms and domains are
    /// exactly as the caller left them (the frame truncates its own pushes).
    fn search(&self, pending: &[&Nnf], state: &mut SearchState<'_>) -> Option<Option<Vec<u64>>> {
        if state.budget == 0 || state.aborted() {
            return None;
        }
        state.budget -= 1;
        state.stats.search_nodes += 1;
        let atoms_base = state.atoms.len();
        let trail_base = state.trail.len();
        let result = self.search_frame(pending, state);
        state.atoms.truncate(atoms_base);
        undo_to(&mut state.domains, &mut state.trail, trail_base);
        result
    }

    fn search_frame(
        &self,
        pending: &[&Nnf],
        state: &mut SearchState<'_>,
    ) -> Option<Option<Vec<u64>>> {
        // Split pending conjuncts into atoms and disjunctions.
        let mut disjunctions: Vec<&Nnf> = Vec::new();
        let mut stack: Vec<&Nnf> = pending.to_vec();
        while let Some(f) = stack.pop() {
            match f {
                Nnf::True => {}
                Nnf::False => return Some(None),
                Nnf::Atom(c) => state.atoms.push(c.clone()),
                Nnf::And(parts) => stack.extend(parts.iter()),
                Nnf::Or(_) => disjunctions.push(f),
            }
        }

        // Propagate bounds from the atomic constraints gathered so far.
        if !propagate_in_place(&state.atoms, &mut state.domains, &mut state.trail) {
            state.stats.pruned_branches += 1;
            return Some(None);
        }

        if let Some(or) = disjunctions.pop() {
            let Nnf::Or(choices) = or else {
                unreachable!("only Or is deferred")
            };
            for choice in choices {
                let mut next: Vec<&Nnf> = Vec::with_capacity(disjunctions.len() + 1);
                next.push(choice);
                next.extend(disjunctions.iter().copied());
                match self.search(&next, state) {
                    Some(Some(model)) => return Some(Some(model)),
                    Some(None) => continue,
                    None => return None,
                }
            }
            return Some(None);
        }

        // Only atomic constraints remain: branch and bound over the domains.
        self.enumerate(state)
    }

    fn enumerate(&self, state: &mut SearchState<'_>) -> Option<Option<Vec<u64>>> {
        if state.budget == 0 || state.aborted() {
            return None;
        }
        state.budget -= 1;
        state.stats.search_nodes += 1;
        let trail_base = state.trail.len();
        let result = self.enumerate_frame(state);
        undo_to(&mut state.domains, &mut state.trail, trail_base);
        result
    }

    fn enumerate_frame(&self, state: &mut SearchState<'_>) -> Option<Option<Vec<u64>>> {
        if !propagate_in_place(&state.atoms, &mut state.domains, &mut state.trail) {
            state.stats.pruned_branches += 1;
            return Some(None);
        }

        // Pick an unfixed variable that actually occurs in some constraint.
        let mut pick: Option<(usize, u64)> = None;
        for c in &state.atoms {
            let expr = constraint_expr(c);
            for (v, _) in expr.terms() {
                let idx = v.0 as usize;
                let (lo, hi) = state.domains[idx];
                if lo < hi {
                    let width = hi - lo;
                    if pick.map_or(true, |(_, w)| width < w) {
                        pick = Some((idx, width));
                    }
                }
            }
        }

        match pick {
            None => {
                // All constrained variables are fixed; read off a model.
                let model: Vec<u64> = state.domains.iter().map(|(lo, _)| *lo).collect();
                if state.atoms.iter().all(|c| c.holds(&model)) {
                    Some(Some(model))
                } else {
                    Some(None)
                }
            }
            Some((idx, _)) => {
                let (lo, hi) = state.domains[idx];
                let mid = lo + (hi - lo) / 2;
                for (new_lo, new_hi) in [(lo, mid), (mid + 1, hi)] {
                    // Branch by trail-recorded assignment instead of cloning
                    // the domain vector.
                    state
                        .trail
                        .push((idx, state.domains[idx].0, state.domains[idx].1));
                    state.domains[idx] = (new_lo, new_hi);
                    let result = self.enumerate(state);
                    let (i, lo0, hi0) = state.trail.pop().expect("own branch entry");
                    state.domains[i] = (lo0, hi0);
                    match result {
                        Some(Some(model)) => return Some(Some(model)),
                        Some(None) => continue,
                        None => return None,
                    }
                }
                Some(None)
            }
        }
    }
}

fn constraint_expr(c: &Constraint) -> &LinearExpr {
    match c {
        Constraint::Ge0(e) | Constraint::Eq0(e) => e,
    }
}

/// Convert to negation normal form, pushing negation into the atoms:
/// `¬(e ≥ 0) ⇔ -e - 1 ≥ 0` and `¬(e = 0) ⇔ (e - 1 ≥ 0) ∨ (-e - 1 ≥ 0)`.
fn to_nnf(f: &Formula, negated: bool) -> Nnf {
    match (f, negated) {
        (Formula::True, false) | (Formula::False, true) => Nnf::True,
        (Formula::True, true) | (Formula::False, false) => Nnf::False,
        (Formula::Not(inner), _) => to_nnf(inner, !negated),
        (Formula::And(parts), false) | (Formula::Or(parts), true) => {
            Nnf::And(parts.iter().map(|p| to_nnf(p, negated)).collect())
        }
        (Formula::And(parts), true) | (Formula::Or(parts), false) => {
            Nnf::Or(parts.iter().map(|p| to_nnf(p, negated)).collect())
        }
        (Formula::Atom(c), false) => Nnf::Atom(c.clone()),
        (Formula::Atom(Constraint::Ge0(e)), true) => {
            // ¬(e ≥ 0) over the integers: e ≤ -1.
            Nnf::Atom(Constraint::Ge0(
                e.clone().neg().add(&LinearExpr::constant(-1)),
            ))
        }
        (Formula::Atom(Constraint::Eq0(e)), true) => Nnf::Or(vec![
            Nnf::Atom(Constraint::Ge0(e.clone().add(&LinearExpr::constant(-1)))),
            Nnf::Atom(Constraint::Ge0(
                e.clone().neg().add(&LinearExpr::constant(-1)),
            )),
        ]),
    }
}

/// Interval (bounds-consistency) propagation for a conjunction of
/// constraints, tightening `domains` in place. Every change is recorded on
/// `trail` so the caller can backtrack by [`undo_to`]; no expression is ever
/// cloned (an equality is processed as `e ≥ 0` and, sign-flipped on the fly,
/// `-e ≥ 0`). Returns `false` if some constraint cannot be met — the caller
/// must still undo the partial tightenings.
fn propagate_in_place(
    atoms: &[Constraint],
    domains: &mut Domains,
    trail: &mut Vec<TrailEntry>,
) -> bool {
    let passes = 4 * (domains.len() + 1);
    for _ in 0..passes {
        let mut changed = false;
        for c in atoms {
            let (tightened, contradiction) = match c {
                Constraint::Ge0(e) => tighten(e, false, domains, trail),
                Constraint::Eq0(e) => {
                    let (t1, dead) = tighten(e, false, domains, trail);
                    if dead {
                        (t1, true)
                    } else {
                        let (t2, dead) = tighten(e, true, domains, trail);
                        (t1 || t2, dead)
                    }
                }
            };
            if contradiction {
                return false;
            }
            changed |= tightened;
        }
        if !changed {
            break;
        }
    }
    true
}

/// One bounds-consistency pass of `e ≥ 0` (or `-e ≥ 0` when `negate`):
/// the exact arithmetic of the historical `propagate`, with the sign applied
/// on the fly instead of materialising a negated expression. Returns
/// `(changed, contradiction)`.
fn tighten(
    expr: &LinearExpr,
    negate: bool,
    domains: &mut Domains,
    trail: &mut Vec<TrailEntry>,
) -> (bool, bool) {
    let sign: i128 = if negate { -1 } else { 1 };
    // Maximum achievable value of the expression over the domains.
    let mut max_total: i128 = sign * expr.constant_part() as i128;
    for (v, c) in expr.terms() {
        let c = sign * c as i128;
        let (lo, hi) = domains[v.0 as usize];
        max_total += if c > 0 {
            c * hi as i128
        } else {
            c * lo as i128
        };
    }
    if max_total < 0 {
        return (false, true);
    }
    // Tighten each variable given the others at their extremes.
    let mut changed = false;
    for (v, c) in expr.terms() {
        let c = sign * c as i128;
        let idx = v.0 as usize;
        let (lo, hi) = domains[idx];
        let contribution = if c > 0 {
            c * hi as i128
        } else {
            c * lo as i128
        };
        let rest = max_total - contribution;
        // Need c·x ≥ -rest.
        if c > 0 {
            let needed = -rest; // c·x ≥ needed
            if needed > 0 {
                let new_lo = (needed + c - 1) / c;
                if new_lo > hi as i128 {
                    return (changed, true);
                }
                if new_lo > lo as i128 {
                    trail.push((idx, lo, hi));
                    domains[idx].0 = new_lo as u64;
                    changed = true;
                }
            }
        } else {
            // c < 0: x ≤ rest / (-c).
            let cap = rest / (-c);
            if cap < lo as i128 {
                return (changed, true);
            }
            if cap < hi as i128 {
                trail.push((idx, lo, hi));
                domains[idx].1 = cap as u64;
                changed = true;
            }
        }
    }
    (changed, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formula::{Formula, LinearExpr, VarPool};
    use std::time::Instant;

    fn solver() -> Solver {
        Solver::new(Bounds::uniform(32))
    }

    #[test]
    fn simple_equation() {
        // x + y = 5 ∧ x ≥ 3 ∧ y ≥ 1
        let mut pool = VarPool::new();
        let x = pool.fresh_named("x");
        let y = pool.fresh_named("y");
        let f = Formula::and(vec![
            Formula::eq(
                LinearExpr::var(x).add(&LinearExpr::var(y)),
                LinearExpr::constant(5),
            ),
            Formula::ge(x, 3),
            Formula::ge(y, 1),
        ]);
        let result = solver().solve(&f, &pool);
        let model = result.model().expect("should be satisfiable");
        assert_eq!(model[x.0 as usize] + model[y.0 as usize], 5);
        assert!(model[x.0 as usize] >= 3);
    }

    #[test]
    fn unsatisfiable_system() {
        // x ≥ 3 ∧ x ≤ 1
        let mut pool = VarPool::new();
        let x = pool.fresh_named("x");
        let f = Formula::and(vec![Formula::ge(x, 3), Formula::le(x, 1)]);
        assert_eq!(solver().solve(&f, &pool), SolveResult::Unsat);
    }

    #[test]
    fn disjunction_branching() {
        // (x = 2 ∨ x = 7) ∧ x ≥ 5
        let mut pool = VarPool::new();
        let x = pool.fresh_named("x");
        let f = Formula::and(vec![
            Formula::or(vec![Formula::eq(x, 2), Formula::eq(x, 7)]),
            Formula::ge(x, 5),
        ]);
        let model = solver().solve(&f, &pool);
        assert_eq!(model.model().unwrap()[0], 7);
        // Sixteen disjuncts, explored in order: the first one that survives
        // the floor is the model.
        let branches: Vec<Formula> = (0..16).map(|k| Formula::eq(x, k)).collect();
        let f = Formula::and(vec![Formula::or(branches), Formula::ge(x, 13)]);
        assert_eq!(solver().solve(&f, &pool).model().unwrap()[0], 13);
    }

    #[test]
    fn negation_of_equality() {
        // ¬(x = 0) ∧ x ≤ 1  ⇒ x = 1
        let mut pool = VarPool::new();
        let x = pool.fresh_named("x");
        let f = Formula::and(vec![Formula::not(Formula::eq(x, 0)), Formula::le(x, 1)]);
        let model = solver().solve(&f, &pool);
        assert_eq!(model.model().unwrap()[0], 1);
    }

    #[test]
    fn respects_declared_bounds() {
        // x ≥ 10 with a declared bound of 5 is unsatisfiable.
        let mut pool = VarPool::new();
        let x = pool.fresh_bounded("x", 5);
        let f = Formula::ge(x, 10);
        assert_eq!(solver().solve(&f, &pool), SolveResult::Unsat);
        // Raising the bound makes it satisfiable.
        pool.set_bound(x, 12);
        assert!(solver().solve(&f, &pool).is_sat());
    }

    #[test]
    fn three_variable_combination() {
        // 2x + 3y - z = 7 ∧ z ≥ 2 ∧ y ≥ 1
        let mut pool = VarPool::new();
        let x = pool.fresh_named("x");
        let y = pool.fresh_named("y");
        let z = pool.fresh_named("z");
        let lhs = LinearExpr::term(x, 2)
            .add(&LinearExpr::term(y, 3))
            .add(&LinearExpr::term(z, -1));
        let f = Formula::and(vec![
            Formula::eq(lhs, LinearExpr::constant(7)),
            Formula::ge(z, 2),
            Formula::ge(y, 1),
        ]);
        let result = solver().solve(&f, &pool);
        let m = result.model().expect("satisfiable");
        assert_eq!(
            2 * m[x.0 as usize] as i64 + 3 * m[y.0 as usize] as i64 - m[z.0 as usize] as i64,
            7
        );
    }

    #[test]
    fn budget_exhaustion_reports_unknown() {
        let mut pool = VarPool::new();
        let vars: Vec<_> = (0..12).map(|i| pool.fresh_named(format!("x{i}"))).collect();
        // A loose system with a large search space and a tiny budget.
        let sum = vars.iter().fold(LinearExpr::constant(0), |acc, v| {
            acc.add(&LinearExpr::var(*v))
        });
        let f = Formula::eq(sum, LinearExpr::constant(200));
        let tight = Solver::new(Bounds::uniform(1_000)).with_node_budget(3);
        assert_eq!(tight.solve(&f, &pool), SolveResult::Unknown);
        // With the default budget the system is easily satisfiable.
        assert!(Solver::new(Bounds::uniform(1_000))
            .solve(&f, &pool)
            .is_sat());
    }

    #[test]
    fn stats_count_pruned_branches() {
        // Every disjunct contradicts x ≥ 5 by propagation alone, so each
        // branch is pruned and the query is Unsat.
        let mut pool = VarPool::new();
        let x = pool.fresh_named("x");
        let f = Formula::and(vec![
            Formula::or(vec![
                Formula::eq(x, 0),
                Formula::eq(x, 1),
                Formula::eq(x, 2),
            ]),
            Formula::ge(x, 5),
        ]);
        let (result, stats) = solver().solve_with_stats(&f, &pool);
        assert_eq!(result, SolveResult::Unsat);
        assert!(
            stats.pruned_branches >= 3,
            "each contradictory disjunct must count as pruned, got {stats:?}"
        );
        assert!(stats.search_nodes >= stats.pruned_branches);
        // A satisfiable query still reports its node count.
        let (sat, sat_stats) = solver().solve_with_stats(&Formula::ge(x, 3), &pool);
        assert!(sat.is_sat());
        assert!(sat_stats.search_nodes >= 1);
        // The wide Unsat disjunction: one root node plus one node per
        // disjunct, and propagation refutes every disjunct.
        let mut pool = VarPool::new();
        let f = wide_unsat_disjunction(&mut pool);
        assert_eq!(
            solver().solve_with_stats(&f, &pool),
            (
                SolveResult::Unsat,
                SolverStats {
                    search_nodes: 13,
                    pruned_branches: 12,
                }
            )
        );
    }

    #[test]
    fn backtracking_restores_domains_across_disjuncts() {
        // The first disjunct forces x high and then fails on y; the second
        // must see x's original domain again (a stale tightening from the
        // failed branch would make it unsatisfiable too).
        let mut pool = VarPool::new();
        let x = pool.fresh_named("x");
        let y = pool.fresh_named("y");
        let f = Formula::and(vec![
            Formula::or(vec![
                // x ≥ 20 ∧ y ≥ 40 (dead: y is capped below)
                Formula::and(vec![Formula::ge(x, 20), Formula::ge(y, 40)]),
                // x ≤ 3 (alive only if x's domain was restored)
                Formula::le(x, 3),
            ]),
            Formula::le(y, 10),
        ]);
        let result = solver().solve(&f, &pool);
        let model = result.model().expect("second disjunct is satisfiable");
        assert!(model[x.0 as usize] <= 3);
    }

    fn wide_unsat_disjunction(pool: &mut VarPool) -> Formula {
        // Every disjunct pins x + y to a value below 40, contradicting the
        // conjoined floor, so all branches must be explored and refuted.
        let x = pool.fresh_named("x");
        let y = pool.fresh_named("y");
        let sum = LinearExpr::var(x).add(&LinearExpr::var(y));
        let branches: Vec<Formula> = (0..12)
            .map(|k| Formula::eq(sum.clone(), LinearExpr::constant(k)))
            .collect();
        Formula::and(vec![
            Formula::or(branches),
            Formula::ge(sum, LinearExpr::constant(40)),
        ])
    }

    #[test]
    fn pre_fired_cancel_flag_aborts_immediately_as_unknown() {
        let mut pool = VarPool::new();
        let vars: Vec<_> = (0..12).map(|i| pool.fresh_named(format!("x{i}"))).collect();
        let sum = vars.iter().fold(LinearExpr::constant(0), |acc, v| {
            acc.add(&LinearExpr::var(*v))
        });
        let f = Formula::eq(sum, LinearExpr::constant(200));
        let token = CancelToken::new();
        token.cancel();
        let wide = Solver::new(Bounds::uniform(1_000));
        let (result, stats) = wide.solve_with_stats_cancellable(&f, &pool, Some(&token));
        assert_eq!(result, SolveResult::Unknown);
        assert_eq!(stats.search_nodes, 0, "no node may be expanded: {stats:?}");
    }

    #[test]
    fn unfired_cancel_flag_changes_nothing() {
        let mut pool = VarPool::new();
        let f = wide_unsat_disjunction(&mut pool);
        let token = CancelToken::new();
        let plain = solver().solve_with_stats(&f, &pool);
        let cancellable = solver().solve_with_stats_cancellable(&f, &pool, Some(&token));
        assert_eq!(plain, cancellable, "a dormant flag must be invisible");
        assert!(!token.is_cancelled());
    }

    #[test]
    fn expired_deadline_latches_the_flag_and_aborts() {
        let mut pool = VarPool::new();
        let vars: Vec<_> = (0..12).map(|i| pool.fresh_named(format!("x{i}"))).collect();
        let sum = vars.iter().fold(LinearExpr::constant(0), |acc, v| {
            acc.add(&LinearExpr::var(*v))
        });
        // Unsatisfiable and huge: without cancellation this burns the whole
        // node budget before answering.
        let f = Formula::and(vec![
            Formula::eq(sum.clone(), LinearExpr::constant(200)),
            Formula::eq(sum, LinearExpr::constant(201)),
        ]);
        let token = CancelToken::with_deadline(Instant::now());
        let wide = Solver::new(Bounds::uniform(100_000));
        let started = Instant::now();
        let (result, _) = wide.solve_with_stats_cancellable(&f, &pool, Some(&token));
        // Propagation may refute the conjunction outright; either way the
        // call returns promptly and an expired deadline is latched.
        assert!(matches!(result, SolveResult::Unknown | SolveResult::Unsat));
        assert!(
            started.elapsed() < std::time::Duration::from_secs(5),
            "cancellation must bound the solve"
        );
    }

    #[test]
    fn models_are_verified_against_the_formula() {
        let mut pool = VarPool::new();
        let x = pool.fresh_named("x");
        let y = pool.fresh_named("y");
        let f = Formula::and(vec![
            Formula::or(vec![Formula::eq(x, 3), Formula::ge(y, 9)]),
            Formula::le(
                LinearExpr::var(x).add(&LinearExpr::var(y)),
                LinearExpr::constant(10),
            ),
            Formula::not(Formula::eq(y, 0)),
        ]);
        match solver().solve(&f, &pool) {
            SolveResult::Sat(model) => assert!(f.eval(&model)),
            other => panic!("expected Sat, got {other:?}"),
        }
    }
}
