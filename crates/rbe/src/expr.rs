//! Regular bag expression syntax and the RBE₀ normal form.

use std::collections::BTreeSet;
use std::fmt;

use crate::interval::Interval;

/// A regular bag expression over symbols of type `S` (Section 2 of the paper):
///
/// ```text
/// E ::= ε | a | (E | E) | (E || E) | E^I
/// ```
///
/// Disjunction and unordered concatenation are stored n-ary for convenience;
/// binary nesting is accepted and flattened by the smart constructors.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Rbe<S> {
    /// The empty-bag expression `ε` with `L(ε) = {ε}`.
    Epsilon,
    /// A single symbol `a` with `L(a) = {{|a|}}`.
    Symbol(S),
    /// Disjunction `E₁ | … | Eₙ` (language union).
    Disj(Vec<Rbe<S>>),
    /// Unordered concatenation `E₁ || … || Eₙ` (bag union of languages).
    Concat(Vec<Rbe<S>>),
    /// Interval repetition `E^I`.
    Repeat(Box<Rbe<S>>, Interval),
}

impl<S> Rbe<S> {
    /// The expression `ε`.
    pub fn epsilon() -> Rbe<S> {
        Rbe::Epsilon
    }

    /// A single symbol.
    pub fn symbol(s: S) -> Rbe<S> {
        Rbe::Symbol(s)
    }

    /// Disjunction of the given expressions; flattens nested disjunctions and
    /// simplifies the unary case.
    pub fn disj(parts: Vec<Rbe<S>>) -> Rbe<S> {
        let mut flat = Vec::with_capacity(parts.len());
        for p in parts {
            match p {
                Rbe::Disj(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        match flat.len() {
            0 => Rbe::Epsilon,
            1 => flat.into_iter().next().expect("len checked"),
            _ => Rbe::Disj(flat),
        }
    }

    /// Unordered concatenation of the given expressions; flattens nested
    /// concatenations, drops `ε` factors and simplifies the unary case.
    pub fn concat(parts: Vec<Rbe<S>>) -> Rbe<S> {
        let mut flat = Vec::with_capacity(parts.len());
        for p in parts {
            match p {
                Rbe::Concat(inner) => flat.extend(inner),
                Rbe::Epsilon => {}
                other => flat.push(other),
            }
        }
        match flat.len() {
            0 => Rbe::Epsilon,
            1 => flat.into_iter().next().expect("len checked"),
            _ => Rbe::Concat(flat),
        }
    }

    /// Repetition `E^I`.
    pub fn repeat(inner: Rbe<S>, interval: Interval) -> Rbe<S> {
        Rbe::Repeat(Box::new(inner), interval)
    }

    /// `E?` — zero or one occurrence.
    pub fn opt(inner: Rbe<S>) -> Rbe<S> {
        Rbe::repeat(inner, Interval::OPT)
    }

    /// `E*` — any number of occurrences.
    pub fn star(inner: Rbe<S>) -> Rbe<S> {
        Rbe::repeat(inner, Interval::STAR)
    }

    /// `E+` — at least one occurrence.
    pub fn plus(inner: Rbe<S>) -> Rbe<S> {
        Rbe::repeat(inner, Interval::PLUS)
    }

    /// The number of AST nodes, used as the size measure in complexity
    /// experiments.
    pub fn size(&self) -> usize {
        match self {
            Rbe::Epsilon | Rbe::Symbol(_) => 1,
            Rbe::Disj(parts) | Rbe::Concat(parts) => 1 + parts.iter().map(Rbe::size).sum::<usize>(),
            Rbe::Repeat(inner, _) => 1 + inner.size(),
        }
    }

    /// Approximate heap footprint of the expression tree in bytes: every
    /// child vector's capacity plus every boxed repetition body, at
    /// `size_of::<Rbe<S>>()` per slot. Symbols are counted inline — a symbol
    /// type owning allocations (interned labels are `Arc` handles) is the
    /// owner's business. Feeds the cache accounting of downstream session
    /// layers; an estimate, not allocator truth.
    pub fn approx_heap_bytes(&self) -> usize {
        let node = std::mem::size_of::<Rbe<S>>();
        match self {
            Rbe::Epsilon | Rbe::Symbol(_) => 0,
            Rbe::Disj(parts) | Rbe::Concat(parts) => {
                parts.capacity() * node + parts.iter().map(Rbe::approx_heap_bytes).sum::<usize>()
            }
            Rbe::Repeat(inner, _) => node + inner.approx_heap_bytes(),
        }
    }

    /// Drop expressions without recursion, however deeply they nest. The
    /// derived drop recurses once per level, so an expression built in code
    /// thousands of levels deep would overflow the stack; this takes them
    /// apart from one worklist on the heap.
    pub fn dismantle(exprs: impl IntoIterator<Item = Rbe<S>>) {
        let mut stack: Vec<Rbe<S>> = exprs.into_iter().collect();
        while let Some(expr) = stack.pop() {
            match expr {
                Rbe::Disj(parts) | Rbe::Concat(parts) => stack.extend(parts),
                Rbe::Repeat(inner, _) => stack.push(*inner),
                Rbe::Epsilon | Rbe::Symbol(_) => {}
            }
        }
    }

    /// Whether the expression syntactically contains a disjunction.
    pub fn has_disjunction(&self) -> bool {
        match self {
            Rbe::Epsilon | Rbe::Symbol(_) => false,
            Rbe::Disj(_) => true,
            Rbe::Concat(parts) => parts.iter().any(Rbe::has_disjunction),
            Rbe::Repeat(inner, _) => inner.has_disjunction(),
        }
    }

    /// Map the symbols of the expression, preserving its structure.
    pub fn map<T, F: Fn(&S) -> T + Copy>(&self, f: F) -> Rbe<T> {
        match self {
            Rbe::Epsilon => Rbe::Epsilon,
            Rbe::Symbol(s) => Rbe::Symbol(f(s)),
            Rbe::Disj(parts) => Rbe::Disj(parts.iter().map(|p| p.map(f)).collect()),
            Rbe::Concat(parts) => Rbe::Concat(parts.iter().map(|p| p.map(f)).collect()),
            Rbe::Repeat(inner, i) => Rbe::Repeat(Box::new(inner.map(f)), *i),
        }
    }
}

impl<S: Ord + Clone> Rbe<S> {
    /// The set of symbols occurring in the expression (its alphabet).
    pub fn alphabet(&self) -> BTreeSet<S> {
        let mut out = BTreeSet::new();
        self.collect_alphabet(&mut out);
        out
    }

    fn collect_alphabet(&self, out: &mut BTreeSet<S>) {
        match self {
            Rbe::Epsilon => {}
            Rbe::Symbol(s) => {
                out.insert(s.clone());
            }
            Rbe::Disj(parts) | Rbe::Concat(parts) => {
                for p in parts {
                    p.collect_alphabet(out);
                }
            }
            Rbe::Repeat(inner, _) => inner.collect_alphabet(out),
        }
    }

    /// The number of *occurrences* of symbols (counting repetitions), used by
    /// the single-occurrence check.
    pub fn symbol_occurrences(&self) -> usize {
        match self {
            Rbe::Epsilon => 0,
            Rbe::Symbol(_) => 1,
            Rbe::Disj(parts) | Rbe::Concat(parts) => {
                parts.iter().map(Rbe::symbol_occurrences).sum()
            }
            Rbe::Repeat(inner, _) => inner.symbol_occurrences(),
        }
    }

    /// Whether every symbol occurs at most once in the expression
    /// (single-occurrence regular bag expressions, SORBE).
    pub fn is_single_occurrence(&self) -> bool {
        self.symbol_occurrences() == self.alphabet().len()
    }

    /// Try to view the expression as an RBE₀, i.e. an unordered concatenation
    /// `a₁^{I₁} || … || aₙ^{Iₙ}` of (possibly repeated) atomic symbols.
    ///
    /// Returns `None` if the expression uses disjunction or repetition over a
    /// non-atomic sub-expression. The paper's RBE₀ additionally requires the
    /// intervals to be *basic*; use [`Rbe0::uses_only_basic_intervals`] to
    /// check that separately.
    pub fn to_rbe0(&self) -> Option<Rbe0<S>> {
        let mut atoms = Vec::new();
        if self.collect_rbe0(&mut atoms) {
            Some(Rbe0 { atoms })
        } else {
            None
        }
    }

    fn collect_rbe0(&self, atoms: &mut Vec<(S, Interval)>) -> bool {
        match self {
            Rbe::Epsilon => true,
            Rbe::Symbol(s) => {
                atoms.push((s.clone(), Interval::ONE));
                true
            }
            Rbe::Repeat(inner, i) => match inner.as_ref() {
                Rbe::Symbol(s) => {
                    atoms.push((s.clone(), *i));
                    true
                }
                _ => false,
            },
            Rbe::Concat(parts) => parts.iter().all(|p| p.collect_rbe0(atoms)),
            Rbe::Disj(_) => false,
        }
    }

    /// Whether the expression belongs to the paper's class RBE₀:
    /// `a₁^{M₁} || … || aₙ^{Mₙ}` with every `Mᵢ` a basic interval.
    pub fn is_rbe0(&self) -> bool {
        self.to_rbe0()
            .map(|r| r.uses_only_basic_intervals())
            .unwrap_or(false)
    }
}

impl<S: fmt::Display> fmt::Display for Rbe<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rbe::Epsilon => write!(f, "ε"),
            Rbe::Symbol(s) => write!(f, "{s}"),
            Rbe::Disj(parts) => {
                let body: Vec<String> = parts.iter().map(|p| p.to_string()).collect();
                write!(f, "({})", body.join(" | "))
            }
            Rbe::Concat(parts) => {
                let body: Vec<String> = parts.iter().map(|p| p.to_string()).collect();
                write!(f, "({})", body.join(" || "))
            }
            Rbe::Repeat(inner, i) => {
                if i.is_basic() && *i == Interval::ONE {
                    write!(f, "{inner}")
                } else {
                    write!(f, "{inner}{i}")
                }
            }
        }
    }
}

/// The RBE₀ normal form: an unordered concatenation of interval-repeated
/// atomic symbols `a₁^{I₁} || … || aₙ^{Iₙ}`.
///
/// Symbols may repeat across atoms (the paper's example `a || a⁺ || b*` is
/// RBE₀); membership only depends on the interval sum per symbol because
/// point-wise interval addition is exact for convex intervals.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Rbe0<S> {
    atoms: Vec<(S, Interval)>,
}

impl<S> Rbe0<S> {
    /// An RBE₀ with no atoms, denoting `{ε}`.
    pub fn empty() -> Rbe0<S> {
        Rbe0 { atoms: Vec::new() }
    }

    /// The atoms in declaration order.
    pub fn atoms(&self) -> &[(S, Interval)] {
        &self.atoms
    }

    /// Append an atom `symbol^interval`.
    pub fn push(&mut self, symbol: S, interval: Interval) {
        self.atoms.push((symbol, interval));
    }

    /// Number of atoms.
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    /// Whether there are no atoms.
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// Whether every atom uses a basic interval (`1`, `?`, `+`, `*`), the
    /// requirement of the paper's RBE₀ class.
    pub fn uses_only_basic_intervals(&self) -> bool {
        self.atoms.iter().all(|(_, i)| i.is_basic())
    }
}

impl<S: Ord + Clone> Rbe0<S> {
    /// The admissible occurrence interval for `symbol`: the `⊕`-sum of the
    /// intervals of all atoms carrying that symbol (`[0;0]` if none do).
    pub fn allowed(&self, symbol: &S) -> Interval {
        self.atoms
            .iter()
            .filter(|(s, _)| s == symbol)
            .fold(Interval::ZERO, |acc, (_, i)| acc.add(i))
    }

    /// The distinct symbols mentioned by the atoms.
    pub fn alphabet(&self) -> BTreeSet<S> {
        self.atoms.iter().map(|(s, _)| s.clone()).collect()
    }

    /// Convert back to a general [`Rbe`].
    pub fn to_rbe(&self) -> Rbe<S> {
        Rbe::concat(
            self.atoms
                .iter()
                .map(|(s, i)| {
                    if *i == Interval::ONE {
                        Rbe::symbol(s.clone())
                    } else {
                        Rbe::repeat(Rbe::symbol(s.clone()), *i)
                    }
                })
                .collect(),
        )
    }
}

impl<S: fmt::Display> fmt::Display for Rbe0<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.atoms.is_empty() {
            return write!(f, "ε");
        }
        let parts: Vec<String> = self
            .atoms
            .iter()
            .map(|(s, i)| {
                if *i == Interval::ONE {
                    s.to_string()
                } else {
                    format!("{s}{i}")
                }
            })
            .collect();
        write!(f, "{}", parts.join(" || "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn abc() -> Rbe<&'static str> {
        // a || b? || c*
        Rbe::concat(vec![
            Rbe::symbol("a"),
            Rbe::opt(Rbe::symbol("b")),
            Rbe::star(Rbe::symbol("c")),
        ])
    }

    #[test]
    fn constructors_flatten() {
        let nested = Rbe::concat(vec![
            Rbe::concat(vec![Rbe::symbol("a"), Rbe::symbol("b")]),
            Rbe::symbol("c"),
            Rbe::epsilon(),
        ]);
        match nested {
            Rbe::Concat(parts) => assert_eq!(parts.len(), 3),
            other => panic!("expected flattened concat, got {other:?}"),
        }
        let unary = Rbe::disj(vec![Rbe::symbol("a")]);
        assert_eq!(unary, Rbe::symbol("a"));
        assert_eq!(Rbe::<&str>::concat(vec![]), Rbe::Epsilon);
    }

    #[test]
    fn alphabet_and_size() {
        let e = abc();
        let alpha = e.alphabet();
        assert_eq!(alpha.len(), 3);
        assert!(alpha.contains("a") && alpha.contains("b") && alpha.contains("c"));
        assert_eq!(e.size(), 6);
        assert!(!e.has_disjunction());
        assert!(Rbe::disj(vec![Rbe::symbol("a"), Rbe::symbol("b")]).has_disjunction());
    }

    #[test]
    fn single_occurrence_detection() {
        assert!(abc().is_single_occurrence());
        let twice = Rbe::concat(vec![Rbe::symbol("a"), Rbe::plus(Rbe::symbol("a"))]);
        assert!(!twice.is_single_occurrence());
    }

    #[test]
    fn rbe0_detection_and_allowed_intervals() {
        let e = abc();
        assert!(e.is_rbe0());
        let r = e.to_rbe0().unwrap();
        assert_eq!(r.allowed(&"a"), Interval::ONE);
        assert_eq!(r.allowed(&"b"), Interval::OPT);
        assert_eq!(r.allowed(&"c"), Interval::STAR);
        assert_eq!(r.allowed(&"d"), Interval::ZERO);

        // a || a+ || b* is RBE0 even though `a` repeats.
        let repeated = Rbe::concat(vec![
            Rbe::symbol("a"),
            Rbe::plus(Rbe::symbol("a")),
            Rbe::star(Rbe::symbol("b")),
        ]);
        assert!(repeated.is_rbe0());
        assert_eq!(
            repeated.to_rbe0().unwrap().allowed(&"a"),
            Interval::at_least(2)
        );

        // Disjunction is not RBE0.
        let disj = Rbe::disj(vec![Rbe::symbol("a"), Rbe::symbol("b")]);
        assert!(!disj.is_rbe0());
        // Repetition of a composite expression is not RBE0.
        let comp = Rbe::star(Rbe::concat(vec![Rbe::symbol("a"), Rbe::symbol("b")]));
        assert!(!comp.is_rbe0());
        // Non-basic intervals make it fall outside the strict class.
        let wide = Rbe::repeat(Rbe::symbol("a"), Interval::bounded(2, 3));
        assert!(wide.to_rbe0().is_some());
        assert!(!wide.is_rbe0());
    }

    #[test]
    fn map_preserves_structure() {
        let e = abc();
        let mapped = e.map(|s| s.to_uppercase());
        assert_eq!(mapped.alphabet().len(), 3);
        assert!(mapped.alphabet().contains("A"));
        assert_eq!(mapped.size(), e.size());
    }

    #[test]
    fn roundtrip_rbe0_to_rbe() {
        let e = abc();
        let r = e.to_rbe0().unwrap();
        let back = r.to_rbe();
        assert!(back.is_rbe0());
        assert_eq!(back.to_rbe0().unwrap().atoms().len(), 3);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Rbe::<&str>::epsilon().to_string(), "ε");
        let e = Rbe::concat(vec![Rbe::symbol("a"), Rbe::opt(Rbe::symbol("b"))]);
        assert_eq!(e.to_string(), "(a || b?)");
        let d = Rbe::disj(vec![Rbe::symbol("a"), Rbe::symbol("b")]);
        assert_eq!(d.to_string(), "(a | b)");
    }
}
