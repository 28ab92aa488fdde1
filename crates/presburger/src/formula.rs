//! Linear terms, constraints, and quantifier-free Presburger formulas.

use std::collections::BTreeMap;
use std::fmt;

/// A natural-number variable, identified by its index in a [`VarPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub u32);

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// Allocates fresh variables and remembers optional human-readable names and
/// per-variable upper bounds (used by the bounded solver).
#[derive(Debug, Clone, Default)]
pub struct VarPool {
    names: Vec<String>,
    bounds: Vec<Option<u64>>,
}

impl VarPool {
    /// An empty pool.
    pub fn new() -> VarPool {
        VarPool::default()
    }

    /// Allocate a fresh unnamed, unbounded variable.
    pub fn fresh(&mut self) -> Var {
        self.fresh_named(format!("v{}", self.names.len()))
    }

    /// Allocate a fresh variable with a display name.
    pub fn fresh_named(&mut self, name: impl Into<String>) -> Var {
        self.names.push(name.into());
        self.bounds.push(None);
        Var((self.names.len() - 1) as u32)
    }

    /// Allocate a fresh variable with an inclusive upper bound.
    pub fn fresh_bounded(&mut self, name: impl Into<String>, bound: u64) -> Var {
        let v = self.fresh_named(name);
        self.bounds[v.0 as usize] = Some(bound);
        v
    }

    /// Set (or overwrite) the upper bound of a variable.
    pub fn set_bound(&mut self, var: Var, bound: u64) {
        self.bounds[var.0 as usize] = Some(bound);
    }

    /// The upper bound of a variable, if any was declared.
    pub fn bound(&self, var: Var) -> Option<u64> {
        self.bounds.get(var.0 as usize).copied().flatten()
    }

    /// The display name of a variable.
    pub fn name(&self, var: Var) -> &str {
        &self.names[var.0 as usize]
    }

    /// The number of variables allocated so far.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no variable has been allocated.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Declared per-variable bounds, indexed by variable number.
    pub fn declared_bounds(&self) -> &[Option<u64>] {
        &self.bounds
    }
}

/// A linear expression `Σ cᵢ·xᵢ + k` with integer coefficients over
/// natural-number variables.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LinearExpr {
    coeffs: BTreeMap<Var, i64>,
    constant: i64,
}

impl LinearExpr {
    /// The constant expression `k`.
    pub fn constant(k: i64) -> LinearExpr {
        LinearExpr {
            coeffs: BTreeMap::new(),
            constant: k,
        }
    }

    /// The expression consisting of a single variable.
    pub fn var(v: Var) -> LinearExpr {
        LinearExpr::term(v, 1)
    }

    /// The expression `c·v`.
    pub fn term(v: Var, c: i64) -> LinearExpr {
        let mut coeffs = BTreeMap::new();
        if c != 0 {
            coeffs.insert(v, c);
        }
        LinearExpr {
            coeffs,
            constant: 0,
        }
    }

    /// The constant part `k`.
    pub fn constant_part(&self) -> i64 {
        self.constant
    }

    /// Iterate over `(variable, coefficient)` pairs with non-zero coefficients.
    pub fn terms(&self) -> impl Iterator<Item = (Var, i64)> + '_ {
        self.coeffs.iter().map(|(v, c)| (*v, *c))
    }

    /// The coefficient of `v` (zero if absent).
    pub fn coeff(&self, v: Var) -> i64 {
        self.coeffs.get(&v).copied().unwrap_or(0)
    }

    /// Number of variables with non-zero coefficient.
    pub fn arity(&self) -> usize {
        self.coeffs.len()
    }

    /// Add another expression.
    // Deliberately not `impl Add`: takes `&LinearExpr` by reference, which
    // the operator trait's signature cannot express without extra clones.
    #[allow(clippy::should_implement_trait)]
    pub fn add(mut self, other: &LinearExpr) -> LinearExpr {
        for (v, c) in other.terms() {
            self.add_term(v, c);
        }
        self.constant += other.constant;
        self
    }

    /// Subtract another expression.
    #[allow(clippy::should_implement_trait)] // see `add`
    pub fn sub(mut self, other: &LinearExpr) -> LinearExpr {
        for (v, c) in other.terms() {
            self.add_term(v, -c);
        }
        self.constant -= other.constant;
        self
    }

    /// Add `c·v` in place.
    pub fn add_term(&mut self, v: Var, c: i64) {
        let entry = self.coeffs.entry(v).or_insert(0);
        *entry += c;
        if *entry == 0 {
            self.coeffs.remove(&v);
        }
    }

    /// Multiply the whole expression by a scalar.
    pub fn scale(mut self, k: i64) -> LinearExpr {
        if k == 0 {
            return LinearExpr::constant(0);
        }
        for c in self.coeffs.values_mut() {
            *c *= k;
        }
        self.constant *= k;
        self
    }

    /// Evaluate under an assignment (variables default to 0 when the
    /// assignment vector is too short).
    pub fn eval(&self, assignment: &[u64]) -> i64 {
        let mut total = self.constant;
        for (v, c) in self.terms() {
            let value = assignment.get(v.0 as usize).copied().unwrap_or(0);
            total += c * value as i64;
        }
        total
    }

    /// Negate the expression.
    #[allow(clippy::should_implement_trait)] // named for symmetry with `add`/`sub`
    pub fn neg(self) -> LinearExpr {
        self.scale(-1)
    }
}

impl From<Var> for LinearExpr {
    fn from(v: Var) -> Self {
        LinearExpr::var(v)
    }
}

impl From<i64> for LinearExpr {
    fn from(k: i64) -> Self {
        LinearExpr::constant(k)
    }
}

impl fmt::Display for LinearExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (v, c) in self.terms() {
            if first {
                if c == 1 {
                    write!(f, "{v}")?;
                } else {
                    write!(f, "{c}·{v}")?;
                }
                first = false;
            } else if c >= 0 {
                write!(f, " + {}·{v}", c)?;
            } else {
                write!(f, " - {}·{v}", -c)?;
            }
        }
        if first {
            write!(f, "{}", self.constant)?;
        } else if self.constant > 0 {
            write!(f, " + {}", self.constant)?;
        } else if self.constant < 0 {
            write!(f, " - {}", -self.constant)?;
        }
        Ok(())
    }
}

/// An atomic constraint over a linear expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Constraint {
    /// `expr ≥ 0`.
    Ge0(LinearExpr),
    /// `expr = 0`.
    Eq0(LinearExpr),
}

impl Constraint {
    /// `lhs = rhs`.
    pub fn eq(lhs: LinearExpr, rhs: LinearExpr) -> Constraint {
        Constraint::Eq0(lhs.sub(&rhs))
    }

    /// `lhs ≥ rhs`.
    pub fn ge(lhs: LinearExpr, rhs: LinearExpr) -> Constraint {
        Constraint::Ge0(lhs.sub(&rhs))
    }

    /// `lhs ≤ rhs`.
    pub fn le(lhs: LinearExpr, rhs: LinearExpr) -> Constraint {
        Constraint::Ge0(rhs.sub(&lhs))
    }

    /// Whether the constraint holds under the assignment.
    pub fn holds(&self, assignment: &[u64]) -> bool {
        match self {
            Constraint::Ge0(e) => e.eval(assignment) >= 0,
            Constraint::Eq0(e) => e.eval(assignment) == 0,
        }
    }
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Constraint::Ge0(e) => write!(f, "{e} ≥ 0"),
            Constraint::Eq0(e) => write!(f, "{e} = 0"),
        }
    }
}

/// A quantifier-free Presburger formula. All free variables are interpreted
/// existentially over the naturals by the solver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Formula {
    /// Truth.
    True,
    /// Falsity.
    False,
    /// An atomic linear constraint.
    Atom(Constraint),
    /// Conjunction.
    And(Vec<Formula>),
    /// Disjunction.
    Or(Vec<Formula>),
    /// Negation.
    Not(Box<Formula>),
}

impl Formula {
    /// `lhs = rhs` as a formula.
    pub fn eq(lhs: impl Into<LinearExpr>, rhs: impl Into<LinearExpr>) -> Formula {
        Formula::Atom(Constraint::eq(lhs.into(), rhs.into()))
    }

    /// `lhs ≥ rhs` as a formula.
    pub fn ge(lhs: impl Into<LinearExpr>, rhs: impl Into<LinearExpr>) -> Formula {
        Formula::Atom(Constraint::ge(lhs.into(), rhs.into()))
    }

    /// `lhs ≤ rhs` as a formula.
    pub fn le(lhs: impl Into<LinearExpr>, rhs: impl Into<LinearExpr>) -> Formula {
        Formula::Atom(Constraint::le(lhs.into(), rhs.into()))
    }

    /// Conjunction, flattening nested conjunctions and short-circuiting
    /// constants.
    pub fn and(parts: Vec<Formula>) -> Formula {
        let mut flat = Vec::with_capacity(parts.len());
        for p in parts {
            match p {
                Formula::True => {}
                Formula::False => return Formula::False,
                Formula::And(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        match flat.len() {
            0 => Formula::True,
            1 => flat.into_iter().next().expect("len checked"),
            _ => Formula::And(flat),
        }
    }

    /// Disjunction, flattening nested disjunctions and short-circuiting
    /// constants.
    pub fn or(parts: Vec<Formula>) -> Formula {
        let mut flat = Vec::with_capacity(parts.len());
        for p in parts {
            match p {
                Formula::False => {}
                Formula::True => return Formula::True,
                Formula::Or(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        match flat.len() {
            0 => Formula::False,
            1 => flat.into_iter().next().expect("len checked"),
            _ => Formula::Or(flat),
        }
    }

    /// Negation.
    // An associated constructor like `and`/`or` (used as `Formula::not`),
    // not an `impl Not` operator on an existing value.
    #[allow(clippy::should_implement_trait)]
    pub fn not(inner: Formula) -> Formula {
        match inner {
            Formula::True => Formula::False,
            Formula::False => Formula::True,
            Formula::Not(f) => *f,
            other => Formula::Not(Box::new(other)),
        }
    }

    /// Whether the formula holds under a total assignment (quantifier-free
    /// evaluation; used for verification of solver models and in tests).
    pub fn eval(&self, assignment: &[u64]) -> bool {
        match self {
            Formula::True => true,
            Formula::False => false,
            Formula::Atom(c) => c.holds(assignment),
            Formula::And(parts) => parts.iter().all(|p| p.eval(assignment)),
            Formula::Or(parts) => parts.iter().any(|p| p.eval(assignment)),
            Formula::Not(inner) => !inner.eval(assignment),
        }
    }

    /// The number of AST nodes; used for reporting formula sizes in the
    /// experiments.
    pub fn size(&self) -> usize {
        match self {
            Formula::True | Formula::False | Formula::Atom(_) => 1,
            Formula::And(parts) | Formula::Or(parts) => {
                1 + parts.iter().map(Formula::size).sum::<usize>()
            }
            Formula::Not(inner) => 1 + inner.size(),
        }
    }

    /// Collect the variables occurring in the formula.
    pub fn variables(&self) -> Vec<Var> {
        let mut out = std::collections::BTreeSet::new();
        self.collect_vars(&mut out);
        out.into_iter().collect()
    }

    fn collect_vars(&self, out: &mut std::collections::BTreeSet<Var>) {
        match self {
            Formula::True | Formula::False => {}
            Formula::Atom(Constraint::Ge0(e)) | Formula::Atom(Constraint::Eq0(e)) => {
                for (v, _) in e.terms() {
                    out.insert(v);
                }
            }
            Formula::And(parts) | Formula::Or(parts) => {
                for p in parts {
                    p.collect_vars(out);
                }
            }
            Formula::Not(inner) => inner.collect_vars(out),
        }
    }
}

impl fmt::Display for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Formula::True => write!(f, "⊤"),
            Formula::False => write!(f, "⊥"),
            Formula::Atom(c) => write!(f, "{c}"),
            Formula::And(parts) => {
                let body: Vec<String> = parts.iter().map(|p| p.to_string()).collect();
                write!(f, "({})", body.join(" ∧ "))
            }
            Formula::Or(parts) => {
                let body: Vec<String> = parts.iter().map(|p| p.to_string()).collect();
                write!(f, "({})", body.join(" ∨ "))
            }
            Formula::Not(inner) => write!(f, "¬{inner}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_expr_arithmetic() {
        let mut pool = VarPool::new();
        let x = pool.fresh_named("x");
        let y = pool.fresh_named("y");
        let e = LinearExpr::term(x, 2)
            .add(&LinearExpr::var(y))
            .add(&LinearExpr::constant(3));
        assert_eq!(e.eval(&[1, 4]), 2 + 4 + 3);
        assert_eq!(e.coeff(x), 2);
        assert_eq!(e.coeff(y), 1);
        let z = e.clone().sub(&LinearExpr::term(x, 2));
        assert_eq!(z.coeff(x), 0);
        assert_eq!(z.arity(), 1);
        assert_eq!(e.clone().neg().eval(&[1, 4]), -9);
        assert_eq!(e.scale(2).eval(&[1, 4]), 18);
    }

    #[test]
    fn constraints_and_eval() {
        let mut pool = VarPool::new();
        let x = pool.fresh_named("x");
        let c = Constraint::ge(LinearExpr::var(x), LinearExpr::constant(3));
        assert!(!c.holds(&[2]));
        assert!(c.holds(&[3]));
        let e = Constraint::eq(LinearExpr::var(x), LinearExpr::constant(3));
        assert!(e.holds(&[3]));
        assert!(!e.holds(&[4]));
    }

    #[test]
    fn formula_simplification() {
        let mut pool = VarPool::new();
        let x = pool.fresh_named("x");
        assert_eq!(Formula::and(vec![]), Formula::True);
        assert_eq!(Formula::or(vec![]), Formula::False);
        assert_eq!(
            Formula::and(vec![Formula::True, Formula::False, Formula::eq(x, 1)]),
            Formula::False
        );
        assert_eq!(
            Formula::or(vec![Formula::False, Formula::True]),
            Formula::True
        );
        assert_eq!(
            Formula::not(Formula::not(Formula::eq(x, 1))),
            Formula::eq(x, 1)
        );
    }

    #[test]
    fn formula_eval_and_vars() {
        let mut pool = VarPool::new();
        let x = pool.fresh_named("x");
        let y = pool.fresh_named("y");
        // (x = 2 ∧ y ≥ 1) ∨ ¬(x ≤ 5)
        let f = Formula::or(vec![
            Formula::and(vec![Formula::eq(x, 2), Formula::ge(y, 1)]),
            Formula::not(Formula::le(x, 5)),
        ]);
        assert!(f.eval(&[2, 1]));
        assert!(!f.eval(&[2, 0]));
        assert!(f.eval(&[9, 0]));
        assert_eq!(f.variables(), vec![x, y]);
        assert!(f.size() >= 5);
    }

    #[test]
    fn var_pool_bounds_and_names() {
        let mut pool = VarPool::new();
        let x = pool.fresh_bounded("x", 7);
        let y = pool.fresh();
        assert_eq!(pool.bound(x), Some(7));
        assert_eq!(pool.bound(y), None);
        pool.set_bound(y, 3);
        assert_eq!(pool.bound(y), Some(3));
        assert_eq!(pool.name(x), "x");
        assert_eq!(pool.len(), 2);
    }

    #[test]
    fn from_impls() {
        let mut pool = VarPool::new();
        let x = pool.fresh();
        let f = Formula::eq(x, 3);
        assert!(f.eval(&[3]));
        let g = Formula::ge(LinearExpr::var(x), LinearExpr::constant(-1));
        assert!(g.eval(&[0]));
    }
}
