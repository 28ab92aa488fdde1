//! Shape expression schemas and their subclasses.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::OnceLock;

use shapex_graph::{Graph, Label, LabelTable, NodeId};
use shapex_rbe::{Interval, Rbe, Rbe0};

// Thread-safety contract: registered schemas are shared read-only by every
// thread that queries a `ContainmentEngine` (all interior caches are `OnceLock`s,
// all labels content-compared `Arc<str>`s), so `Schema` and its pieces must
// stay `Send + Sync`.
shapex_graph::assert_send_sync!(Schema, Atom, TypeId, SchemaClass, ShapeExpr);

/// A type name identifier, valid for the [`Schema`] that created it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TypeId(pub u32);

impl TypeId {
    /// The position of the type in the schema's type table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TypeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// A symbol of the composite alphabet `Σ × Γ`: an edge label together with the
/// required type of the edge's target, written `label::type` in the paper.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Atom {
    /// The predicate label.
    pub label: Label,
    /// The required type of the target node.
    pub target: TypeId,
}

impl Atom {
    /// Construct an atom `label :: target`.
    pub fn new(label: impl Into<Label>, target: TypeId) -> Atom {
        Atom {
            label: label.into(),
            target,
        }
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}::{}", self.label, self.target)
    }
}

/// A shape expression: a regular bag expression over `Σ × Γ`.
pub type ShapeExpr = Rbe<Atom>;

#[derive(Debug, Clone)]
struct TypeDef {
    name: String,
    expr: ShapeExpr,
}

/// Lazily computed, structure-derived facts about a schema. Every mutating
/// method resets the whole struct, so a populated cell is always consistent
/// with the current definitions. Cloning a schema carries warm caches along
/// (they describe the same definitions).
#[derive(Debug, Clone, Default)]
struct SchemaCaches {
    class: OnceLock<SchemaClass>,
    shape_graph: OnceLock<Option<Graph>>,
}

/// Classification of a schema into the fragments studied in the paper,
/// ordered from most to least restrictive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SchemaClass {
    /// Deterministic, RBE₀ definitions, no `+`, and every `?`-using type is
    /// referenced only through `*`-closed references (Definition 4.1). The
    /// fragment with tractable containment (Corollary 4.4).
    DetShEx0Minus,
    /// Deterministic with RBE₀ definitions (`DetShEx₀`).
    DetShEx0,
    /// RBE₀ definitions (`ShEx₀`, equivalently shape graphs).
    ShEx0,
    /// Arbitrary shape expressions.
    ShEx,
}

impl fmt::Display for SchemaClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaClass::DetShEx0Minus => write!(f, "DetShEx0-"),
            SchemaClass::DetShEx0 => write!(f, "DetShEx0"),
            SchemaClass::ShEx0 => write!(f, "ShEx0"),
            SchemaClass::ShEx => write!(f, "ShEx"),
        }
    }
}

/// A shape expression schema `S = (Γ_S, δ_S)`: a finite set of named types,
/// each mapped to a shape expression over `Σ × Γ_S`.
///
/// The schema carries a [`LabelTable`] so every atom built through
/// [`Schema::intern_label`], [`Schema::define_rbe0`], the parser, or
/// [`Schema::from_shape_graph`] shares one allocation per distinct predicate
/// — the labels [`Schema::to_shape_graph`] emits are then interned
/// end-to-end, from the rule text down to the simulation engine.
#[derive(Debug, Clone, Default)]
pub struct Schema {
    types: Vec<TypeDef>,
    by_name: BTreeMap<String, TypeId>,
    labels: LabelTable,
    caches: SchemaCaches,
}

impl Schema {
    /// An empty schema.
    pub fn new() -> Schema {
        Schema::default()
    }

    /// Number of types.
    pub fn type_count(&self) -> usize {
        self.types.len()
    }

    /// Iterate over all type identifiers.
    pub fn types(&self) -> impl Iterator<Item = TypeId> + '_ {
        (0..self.types.len() as u32).map(TypeId)
    }

    /// Add a new type with definition `ε` (overwrite it later with
    /// [`Schema::define`]).
    ///
    /// # Panics
    /// Panics if the name is already used.
    pub fn add_type(&mut self, name: impl Into<String>) -> TypeId {
        let name = name.into();
        assert!(
            !self.by_name.contains_key(&name),
            "type `{name}` already exists"
        );
        let id = TypeId(self.types.len() as u32);
        self.by_name.insert(name.clone(), id);
        self.types.push(TypeDef {
            name,
            expr: Rbe::Epsilon,
        });
        self.caches = SchemaCaches::default();
        id
    }

    /// Look up a type by name, creating it (with definition `ε`) if missing.
    pub fn type_named(&mut self, name: &str) -> TypeId {
        match self.by_name.get(name) {
            Some(id) => *id,
            None => self.add_type(name),
        }
    }

    /// Look up an existing type by name.
    pub fn find_type(&self, name: &str) -> Option<TypeId> {
        self.by_name.get(name).copied()
    }

    /// The display name of a type.
    pub fn type_name(&self, t: TypeId) -> &str {
        &self.types[t.index()].name
    }

    /// Set the definition of a type.
    pub fn define(&mut self, t: TypeId, expr: ShapeExpr) {
        self.types[t.index()].expr = expr;
        self.caches = SchemaCaches::default();
    }

    /// The definition `δ_S(t)` of a type.
    pub fn def(&self, t: TypeId) -> &ShapeExpr {
        &self.types[t.index()].expr
    }

    /// How deeply the definitions nest, counted the way the rule syntax
    /// writes them: stacked repeats plus the parentheses a group needs (a
    /// repeated group, a disjunction inside a concatenation, a group inside
    /// one of its own kind), along the deepest path of any definition. This
    /// is the measure [`parse_schema`](crate::parse_schema) bounds by
    /// [`MAX_NESTING`](crate::parser::MAX_NESTING), so a parsed schema never
    /// measures more. A schema built in code may nest arbitrarily deep; the
    /// walk keeps its own stack, so measuring it cannot overflow.
    pub fn nesting(&self) -> usize {
        let group = |e: &ShapeExpr| usize::from(matches!(e, Rbe::Disj(_) | Rbe::Concat(_)));
        let mut stack: Vec<(&ShapeExpr, usize)> =
            self.types.iter().map(|def| (&def.expr, 0)).collect();
        let mut deepest = 0;
        while let Some((expr, depth)) = stack.pop() {
            deepest = deepest.max(depth);
            match expr {
                Rbe::Epsilon | Rbe::Symbol(_) => {}
                Rbe::Repeat(inner, _) => stack.push((inner, depth + 1 + group(inner))),
                Rbe::Concat(parts) => stack.extend(parts.iter().map(|p| (p, depth + group(p)))),
                Rbe::Disj(parts) => stack.extend(
                    parts
                        .iter()
                        .map(|p| (p, depth + usize::from(matches!(p, Rbe::Disj(_))))),
                ),
            }
        }
        deepest
    }

    /// Intern a predicate label in the schema's label table, so all atoms of
    /// the schema share one allocation per distinct predicate.
    pub fn intern_label(&mut self, name: &str) -> Label {
        self.labels.intern(name)
    }

    /// Re-intern every atom label of the schema through `table`, adopting the
    /// table's allocation for each distinct predicate (and registering
    /// predicates the table has not seen).
    ///
    /// After the call, atoms of this schema share allocations with every
    /// other schema adopted into the same table — the session-wide label
    /// sharing `shapex_core::engine::ContainmentEngine` performs at
    /// registration. The definitions are unchanged content-wise (labels
    /// compare by content), so the derived-fact caches stay valid.
    pub fn adopt_labels(&mut self, table: &mut LabelTable) {
        fn walk(expr: &mut ShapeExpr, table: &mut LabelTable, own: &mut LabelTable) {
            match expr {
                Rbe::Epsilon => {}
                Rbe::Symbol(atom) => {
                    let canonical = table.adopt(&atom.label);
                    own.adopt(&canonical);
                    atom.label = canonical;
                }
                Rbe::Disj(parts) | Rbe::Concat(parts) => {
                    for p in parts {
                        walk(p, table, own);
                    }
                }
                Rbe::Repeat(inner, _) => walk(inner, table, own),
            }
        }
        // The schema's own table re-adopts the canonical allocations so
        // later `intern_label` calls hand them out too.
        let mut own = LabelTable::new();
        for def in &mut self.types {
            walk(&mut def.expr, table, &mut own);
        }
        self.labels = own;
    }

    /// Convenience: add a type with an RBE₀ definition given as
    /// `(label, type, interval)` triples.
    pub fn define_rbe0(&mut self, t: TypeId, atoms: &[(&str, TypeId, Interval)]) {
        let mut parts = Vec::with_capacity(atoms.len());
        for (label, target, interval) in atoms {
            let atom = Rbe::symbol(Atom::new(self.labels.intern(label), *target));
            parts.push(if *interval == Interval::ONE {
                atom
            } else {
                Rbe::repeat(atom, *interval)
            });
        }
        self.define(t, Rbe::concat(parts));
    }

    /// The distinct edge labels used by the schema (its alphabet `Σ`).
    pub fn labels(&self) -> Vec<Label> {
        let mut set = BTreeSet::new();
        for def in &self.types {
            for atom in def.expr.alphabet() {
                set.insert(atom.label.clone());
            }
        }
        set.into_iter().collect()
    }

    /// The total size of the schema (sum of the sizes of all definitions),
    /// the measure used in the complexity experiments.
    pub fn size(&self) -> usize {
        self.types.iter().map(|d| d.expr.size()).sum::<usize>() + self.type_count()
    }

    /// Whether every definition is an RBE₀ with basic intervals, i.e. the
    /// schema belongs to `ShEx(RBE0)` (equivalently `ShEx₀`, Prop. 3.2).
    pub fn is_rbe0(&self) -> bool {
        self.types.iter().all(|d| d.expr.is_rbe0())
    }

    /// Whether every definition is single-occurrence (SORBE).
    pub fn is_single_occurrence(&self) -> bool {
        self.types.iter().all(|d| d.expr.is_single_occurrence())
    }

    /// Whether the schema is *deterministic*: no definition uses the same edge
    /// label in more than one atom (Definition 4.1 / `DetShEx`).
    pub fn is_deterministic(&self) -> bool {
        self.types.iter().all(|d| {
            let atoms = d.expr.alphabet();
            let mut labels = BTreeSet::new();
            let mut occurrences = 0usize;
            for atom in &atoms {
                labels.insert(atom.label.clone());
                occurrences += 1;
            }
            // Determinism additionally fails if the same atom occurs twice
            // syntactically (e.g. `a::t || a::t`), which `alphabet()` hides.
            labels.len() == occurrences && d.expr.symbol_occurrences() == atoms.len()
        })
    }

    /// Whether some definition uses the `+` interval on an atom.
    pub fn uses_plus(&self) -> bool {
        fn expr_uses_plus(e: &ShapeExpr) -> bool {
            match e {
                Rbe::Epsilon | Rbe::Symbol(_) => false,
                Rbe::Disj(parts) | Rbe::Concat(parts) => parts.iter().any(expr_uses_plus),
                Rbe::Repeat(inner, i) => *i == Interval::PLUS || expr_uses_plus(inner),
            }
        }
        self.types.iter().any(|d| expr_uses_plus(&d.expr))
    }

    /// The references to each type: `(source type, label, interval)` triples
    /// of atoms whose target is the given type.
    pub fn references(&self, target: TypeId) -> Vec<(TypeId, Label, Interval)> {
        let mut out = Vec::new();
        for s in self.types() {
            if let Some(rbe0) = self.def(s).to_rbe0() {
                for (atom, interval) in rbe0.atoms() {
                    if atom.target == target {
                        out.push((s, atom.label.clone(), *interval));
                    }
                }
            }
        }
        out
    }

    /// The reasons (if any) why the schema is not in `DetShEx₀⁻`
    /// (Definition 4.1). An empty vector means the schema is in the class.
    ///
    /// The conditions are: RBE₀ definitions, determinism, no `+`, and every
    /// type whose definition uses `?` is referenced at least once with all
    /// references `*`-closed. A reference is `*`-closed when its interval is
    /// `*` or all references to its source type are themselves `*`-closed; we
    /// compute this as a least fixed point, so reference chains that never
    /// pass through a `*` edge (including chains from unreferenced root
    /// types) are *not* considered closed.
    pub fn det_shex0_minus_violations(&self) -> Vec<String> {
        let mut reasons = Vec::new();
        if !self.is_rbe0() {
            reasons.push("some definition is not RBE0".to_owned());
            return reasons;
        }
        if !self.is_deterministic() {
            reasons.push("schema is not deterministic".to_owned());
        }
        if self.uses_plus() {
            reasons.push("schema uses the + interval".to_owned());
        }

        // Least fixed point of the *-closed property on references.
        // references[t] = list of (source, interval) for edges into t.
        let refs: Vec<Vec<(TypeId, Interval)>> = self
            .types()
            .map(|t| {
                self.references(t)
                    .into_iter()
                    .map(|(s, _, i)| (s, i))
                    .collect()
            })
            .collect();
        // closed[t index][ref index]
        let mut closed: Vec<Vec<bool>> = refs
            .iter()
            .map(|rs| rs.iter().map(|(_, i)| *i == Interval::STAR).collect())
            .collect();
        let all_refs_closed = |closed: &Vec<Vec<bool>>, t: TypeId| -> bool {
            !closed[t.index()].is_empty() && closed[t.index()].iter().all(|&b| b)
        };
        loop {
            let mut changed = false;
            for t in self.types() {
                for (k, (source, _)) in refs[t.index()].iter().enumerate() {
                    if !closed[t.index()][k] && all_refs_closed(&closed, *source) {
                        closed[t.index()][k] = true;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }

        for t in self.types() {
            let uses_opt = self
                .def(t)
                .to_rbe0()
                .map(|r| r.atoms().iter().any(|(_, i)| *i == Interval::OPT))
                .unwrap_or(false);
            if !uses_opt {
                continue;
            }
            if refs[t.index()].is_empty() {
                reasons.push(format!(
                    "type {} uses ? but is never referenced",
                    self.type_name(t)
                ));
            } else if !closed[t.index()].iter().all(|&b| b) {
                reasons.push(format!(
                    "type {} uses ? but has a reference that is not *-closed",
                    self.type_name(t)
                ));
            }
        }
        reasons
    }

    /// Whether the schema belongs to `DetShEx₀⁻` (Definition 4.1).
    pub fn is_det_shex0_minus(&self) -> bool {
        self.det_shex0_minus_violations().is_empty()
    }

    /// Classify the schema into the most restrictive fragment it belongs to.
    pub fn classify(&self) -> SchemaClass {
        if !self.is_rbe0() {
            SchemaClass::ShEx
        } else if !self.is_deterministic() {
            SchemaClass::ShEx0
        } else if self.is_det_shex0_minus() {
            SchemaClass::DetShEx0Minus
        } else {
            SchemaClass::DetShEx0
        }
    }

    /// [`Schema::classify`] computed once and cached until the next mutation.
    ///
    /// Classification walks every definition (determinism, `+` usage, the
    /// `*`-closure fixpoint of Definition 4.1), so query-session layers such
    /// as `shapex_core::engine::ContainmentEngine` that dispatch on the class
    /// for every pair should use this accessor instead of re-deriving it.
    pub fn classify_cached(&self) -> SchemaClass {
        *self.caches.class.get_or_init(|| self.classify())
    }

    /// Approximate heap footprint of the schema in bytes: type names,
    /// expression trees, the name index, the label table (one `Arc` handle
    /// plus the string per distinct predicate), and the cached shape graph
    /// if it has been built. Feeds the cache accounting of
    /// `shapex_core::engine::ContainmentEngine`; an estimate, not allocator
    /// truth.
    pub fn approx_heap_bytes(&self) -> usize {
        use std::mem::size_of;
        // Amortised B-tree node overhead per map entry.
        const MAP_ENTRY: usize = 32;
        let mut bytes = self.types.capacity() * size_of::<TypeDef>();
        for def in &self.types {
            bytes += def.name.capacity() + def.expr.approx_heap_bytes();
        }
        bytes += self
            .by_name
            .keys()
            .map(|name| name.capacity() + size_of::<TypeId>() + MAP_ENTRY)
            .sum::<usize>();
        bytes += self
            .labels
            .iter()
            .map(|(name, label)| name.capacity() + label.as_str().len() + MAP_ENTRY)
            .sum::<usize>();
        if let Some(Some(graph)) = self.caches.shape_graph.get() {
            bytes += graph.approx_heap_bytes();
        }
        bytes
    }

    /// [`Schema::to_shape_graph`] computed once and cached until the next
    /// mutation. `None` is cached too: a schema that is not RBE₀ stays that
    /// way until redefined.
    pub fn shape_graph_cached(&self) -> Option<&Graph> {
        self.caches
            .shape_graph
            .get_or_init(|| self.to_shape_graph())
            .as_ref()
    }

    /// Convert a `ShEx(RBE0)` schema to its shape graph (Proposition 3.2):
    /// one node per type (named after it), one interval edge per atom.
    ///
    /// Returns `None` if some definition is not expressible as an RBE₀ (a
    /// disjunction or a repetition of a composite expression).
    pub fn to_shape_graph(&self) -> Option<Graph> {
        let mut graph = Graph::new();
        let nodes: Vec<NodeId> = self
            .types()
            .map(|t| graph.add_named_node(self.type_name(t)))
            .collect();
        for t in self.types() {
            let rbe0: Rbe0<Atom> = self.def(t).to_rbe0()?;
            for (atom, interval) in rbe0.atoms() {
                // Atom labels are interned per-schema; the graph re-interns
                // them on construction, keeping one allocation per predicate
                // end-to-end.
                graph.add_edge_with(
                    nodes[t.index()],
                    atom.label.clone(),
                    *interval,
                    nodes[atom.target.index()],
                );
            }
        }
        Some(graph)
    }

    /// Convert a shape graph back into a `ShEx(RBE0)` schema: one type per
    /// node, one atom per edge (the other direction of Proposition 3.2).
    /// The graph's interned labels are adopted into the schema's label
    /// table, so the round-trip allocates nothing per edge.
    pub fn from_shape_graph(graph: &Graph) -> Schema {
        let mut schema = Schema::new();
        for n in graph.nodes() {
            schema.add_type(graph.node_name(n).to_owned());
        }
        for n in graph.nodes() {
            let t = schema
                .find_type(graph.node_name(n))
                .expect("type added above");
            let mut parts: Vec<ShapeExpr> = Vec::with_capacity(graph.out_degree(n));
            for &e in graph.out(n) {
                let target = schema
                    .find_type(graph.node_name(graph.target(e)))
                    .expect("type added above");
                let label = schema.labels.adopt(graph.label(e));
                let atom = Rbe::symbol(Atom::new(label, target));
                parts.push(if graph.occur(e) == Interval::ONE {
                    atom
                } else {
                    Rbe::repeat(atom, graph.occur(e))
                });
            }
            schema.define(t, Rbe::concat(parts));
        }
        schema
    }
}

/// A schema's definitions are taken apart without recursion (see
/// [`Rbe::dismantle`]), so a schema built in code drops safely however
/// deeply it nests.
impl Drop for Schema {
    fn drop(&mut self) {
        let defs = self.types.iter_mut();
        Rbe::dismantle(defs.map(|def| std::mem::replace(&mut def.expr, Rbe::Epsilon)));
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for t in self.types() {
            let def = self.def(t);
            let rendered = render_expr(self, def);
            writeln!(f, "{} -> {}", self.type_name(t), rendered)?;
        }
        Ok(())
    }
}

/// Render a shape expression with type names instead of numeric identifiers.
pub(crate) fn render_expr(schema: &Schema, expr: &ShapeExpr) -> String {
    fn go(schema: &Schema, expr: &ShapeExpr, top: bool) -> String {
        match expr {
            Rbe::Epsilon => "EMPTY".to_owned(),
            Rbe::Symbol(atom) => {
                format!("{}::{}", atom.label, schema.type_name(atom.target))
            }
            Rbe::Disj(parts) => {
                let body: Vec<String> = parts.iter().map(|p| go(schema, p, false)).collect();
                let joined = body.join(" | ");
                if top {
                    joined
                } else {
                    format!("({joined})")
                }
            }
            Rbe::Concat(parts) => {
                let body: Vec<String> = parts.iter().map(|p| go(schema, p, false)).collect();
                let joined = body.join(", ");
                if top {
                    joined
                } else {
                    format!("({joined})")
                }
            }
            Rbe::Repeat(inner, interval) => {
                let body = go(schema, inner, false);
                if *interval == Interval::ONE {
                    // `1` would run into the name before it (`p::L1`).
                    format!("{body}[1;1]")
                } else {
                    format!("{body}{interval}")
                }
            }
        }
    }
    go(schema, expr, true)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bug-tracker schema of Figure 1.
    fn bug_tracker() -> Schema {
        let mut s = Schema::new();
        let bug = s.add_type("Bug");
        let user = s.add_type("User");
        let employee = s.add_type("Employee");
        let literal = s.add_type("Literal");
        s.define_rbe0(
            bug,
            &[
                ("descr", literal, Interval::ONE),
                ("reportedBy", user, Interval::ONE),
                ("reproducedBy", employee, Interval::OPT),
                ("related", bug, Interval::STAR),
            ],
        );
        s.define_rbe0(
            user,
            &[
                ("name", literal, Interval::ONE),
                ("email", literal, Interval::OPT),
            ],
        );
        s.define_rbe0(
            employee,
            &[
                ("name", literal, Interval::ONE),
                ("email", literal, Interval::ONE),
            ],
        );
        s.define(literal, Rbe::Epsilon);
        s
    }

    #[test]
    fn nesting_counts_repeats_and_the_parentheses_a_group_needs() {
        for (text, nesting) in [
            ("A -> EMPTY\n", 0),
            ("A -> a::A, b::A*\n", 1),
            ("A -> (a::A, b::A)*\n", 2),
            ("A -> a::A | b::A, c::A\n", 0),
            ("A -> a::A, (b::A | c::A)\n", 1),
            ("A -> (a::A, (b::A | c::A)*)?\nB -> b::A?\n", 4),
        ] {
            let schema = crate::parse_schema(text).unwrap();
            assert_eq!(schema.nesting(), nesting, "{text}");
        }
    }

    #[test]
    fn construction_and_lookup() {
        let mut s = Schema::new();
        let a = s.add_type("A");
        assert_eq!(s.type_named("A"), a);
        let b = s.type_named("B");
        assert_eq!(s.type_count(), 2);
        assert_eq!(s.find_type("B"), Some(b));
        assert_eq!(s.find_type("C"), None);
        assert_eq!(s.type_name(a), "A");
        assert_eq!(*s.def(b), Rbe::Epsilon);
    }

    #[test]
    #[should_panic(expected = "already exists")]
    fn duplicate_type_panics() {
        let mut s = Schema::new();
        s.add_type("A");
        s.add_type("A");
    }

    #[test]
    fn bug_tracker_is_det_shex0_minus() {
        let s = bug_tracker();
        assert!(s.is_rbe0());
        assert!(s.is_deterministic());
        assert!(!s.uses_plus());
        assert_eq!(s.det_shex0_minus_violations(), Vec::<String>::new());
        assert_eq!(s.classify(), SchemaClass::DetShEx0Minus);
        assert_eq!(s.labels().len(), 6);
        assert!(s.size() > 10);
    }

    #[test]
    fn plus_or_unreferenced_opt_breaks_det_minus() {
        // `+` pushes a schema out of DetShEx0-.
        let mut s = Schema::new();
        let a = s.add_type("A");
        let b = s.add_type("B");
        s.define_rbe0(a, &[("p", b, Interval::PLUS)]);
        assert!(s.is_deterministic() && s.is_rbe0());
        assert!(!s.is_det_shex0_minus());
        assert_eq!(s.classify(), SchemaClass::DetShEx0);

        // A `?`-using type referenced only through a 1-edge is not *-closed.
        let mut s2 = Schema::new();
        let root = s2.add_type("Root");
        let opt = s2.add_type("Opt");
        let leaf = s2.add_type("Leaf");
        s2.define_rbe0(root, &[("child", opt, Interval::ONE)]);
        s2.define_rbe0(opt, &[("maybe", leaf, Interval::OPT)]);
        assert!(!s2.is_det_shex0_minus());
        assert_eq!(s2.classify(), SchemaClass::DetShEx0);

        // The same type referenced through `*` is fine.
        let mut s3 = Schema::new();
        let root = s3.add_type("Root");
        let opt = s3.add_type("Opt");
        let leaf = s3.add_type("Leaf");
        s3.define_rbe0(root, &[("child", opt, Interval::STAR)]);
        s3.define_rbe0(opt, &[("maybe", leaf, Interval::OPT)]);
        assert!(s3.is_det_shex0_minus());
        assert_eq!(s3.classify(), SchemaClass::DetShEx0Minus);
    }

    #[test]
    fn indirect_star_closure() {
        // Root -*-> Mid -1-> Opt: the reference Mid->Opt is closed because all
        // references to Mid are *-closed.
        let mut s = Schema::new();
        let root = s.add_type("Root");
        let mid = s.add_type("Mid");
        let opt = s.add_type("Opt");
        let leaf = s.add_type("Leaf");
        s.define_rbe0(root, &[("children", mid, Interval::STAR)]);
        s.define_rbe0(mid, &[("via", opt, Interval::ONE)]);
        s.define_rbe0(opt, &[("maybe", leaf, Interval::OPT)]);
        assert!(
            s.is_det_shex0_minus(),
            "{:?}",
            s.det_shex0_minus_violations()
        );
    }

    #[test]
    fn non_deterministic_and_general_schemas() {
        // Same label twice in one definition: not deterministic.
        let mut s = Schema::new();
        let a = s.add_type("A");
        let b = s.add_type("B");
        let c = s.add_type("C");
        s.define_rbe0(a, &[("p", b, Interval::STAR), ("p", c, Interval::STAR)]);
        assert!(s.is_rbe0());
        assert!(!s.is_deterministic());
        assert_eq!(s.classify(), SchemaClass::ShEx0);

        // Disjunction: full ShEx.
        let mut s2 = Schema::new();
        let a = s2.add_type("A");
        let b = s2.add_type("B");
        s2.define(
            a,
            Rbe::disj(vec![
                Rbe::symbol(Atom::new("p", b)),
                Rbe::symbol(Atom::new("q", b)),
            ]),
        );
        assert!(!s2.is_rbe0());
        assert_eq!(s2.classify(), SchemaClass::ShEx);
    }

    #[test]
    fn shape_graph_roundtrip() {
        let s = bug_tracker();
        let g = s.to_shape_graph().expect("RBE0 schema");
        assert!(g.is_shape_graph());
        assert_eq!(g.node_count(), s.type_count());
        assert_eq!(g.edge_count(), 8);
        let back = Schema::from_shape_graph(&g);
        assert_eq!(back.type_count(), s.type_count());
        assert_eq!(back.classify(), SchemaClass::DetShEx0Minus);
        // The definitions describe the same atoms.
        for t in s.types() {
            let orig = s.def(t).to_rbe0().unwrap();
            let b = back.find_type(s.type_name(t)).unwrap();
            let round = back.def(b).to_rbe0().unwrap();
            assert_eq!(orig.atoms().len(), round.atoms().len());
        }
        // A schema with a disjunction has no shape graph.
        let mut s2 = Schema::new();
        let a = s2.add_type("A");
        s2.define(
            a,
            Rbe::disj(vec![
                Rbe::symbol(Atom::new("p", a)),
                Rbe::symbol(Atom::new("q", a)),
            ]),
        );
        assert!(s2.to_shape_graph().is_none());
    }

    #[test]
    fn labels_are_interned_across_the_schema() {
        let s = bug_tracker();
        // `name` appears in both User and Employee: one allocation.
        let user = s.find_type("User").unwrap();
        let employee = s.find_type("Employee").unwrap();
        let label_of = |t: TypeId, i: usize| s.def(t).to_rbe0().unwrap().atoms()[i].0.label.clone();
        let user_name = label_of(user, 0);
        let employee_name = label_of(employee, 0);
        assert_eq!(user_name, employee_name);
        assert!(user_name.ptr_eq(&employee_name), "interned together");
        // The shape graph re-interns, still one allocation per predicate.
        let g = s.to_shape_graph().unwrap();
        let name_edges: Vec<_> = g
            .edges()
            .filter(|&e| g.label(e).as_str() == "name")
            .collect();
        assert_eq!(name_edges.len(), 2);
        assert!(g.label(name_edges[0]).ptr_eq(g.label(name_edges[1])));
        // And the round-trip back adopts the graph's allocations.
        let back = Schema::from_shape_graph(&g);
        let u2 = back.find_type("User").unwrap();
        let e2 = back.find_type("Employee").unwrap();
        let n1 = back.def(u2).to_rbe0().unwrap().atoms()[0].0.label.clone();
        let n2 = back.def(e2).to_rbe0().unwrap().atoms()[0].0.label.clone();
        assert!(n1.ptr_eq(&n2));
    }

    #[test]
    fn adopt_labels_canonicalises_across_schemas() {
        let mut table = LabelTable::new();
        let mut a = bug_tracker();
        let mut b = bug_tracker();
        a.adopt_labels(&mut table);
        b.adopt_labels(&mut table);
        let name_of = |s: &Schema, ty: &str| {
            let t = s.find_type(ty).unwrap();
            s.def(t).to_rbe0().unwrap().atoms()[0].0.label.clone()
        };
        let from_a = name_of(&a, "User");
        let from_b = name_of(&b, "Employee");
        assert_eq!(from_a.as_str(), "name");
        assert!(
            from_a.ptr_eq(&from_b),
            "both schemas must share the table's allocation"
        );
        // The schema's own interner hands the canonical allocation out too.
        assert!(a.intern_label("name").ptr_eq(&from_a));
        // Content unchanged: derived facts stay valid.
        assert_eq!(a.classify_cached(), SchemaClass::DetShEx0Minus);
    }

    #[test]
    fn cached_accessors_track_mutations() {
        let mut s = bug_tracker();
        assert_eq!(s.classify_cached(), SchemaClass::DetShEx0Minus);
        assert_eq!(s.classify_cached(), s.classify());
        let g = s.shape_graph_cached().expect("RBE0 schema").clone();
        assert_eq!(g.edge_count(), 8);
        // A clone carries the warm cache but stays independently mutable.
        let cloned = s.clone();
        assert_eq!(cloned.classify_cached(), SchemaClass::DetShEx0Minus);
        // Redefining a type invalidates both caches.
        let bug = s.find_type("Bug").unwrap();
        let user = s.find_type("User").unwrap();
        s.define(
            bug,
            Rbe::disj(vec![
                Rbe::symbol(Atom::new("descr", user)),
                Rbe::symbol(Atom::new("summary", user)),
            ]),
        );
        assert_eq!(s.classify_cached(), SchemaClass::ShEx);
        assert!(s.shape_graph_cached().is_none());
        // Adding a type also resets (the type table changed).
        let mut s2 = bug_tracker();
        assert_eq!(s2.shape_graph_cached().unwrap().node_count(), 4);
        s2.add_type("Extra");
        assert_eq!(s2.shape_graph_cached().unwrap().node_count(), 5);
    }

    #[test]
    fn references_and_display() {
        let s = bug_tracker();
        let bug = s.find_type("Bug").unwrap();
        let literal = s.find_type("Literal").unwrap();
        let refs = s.references(bug);
        assert_eq!(refs.len(), 1, "Bug is referenced only by related::Bug*");
        assert_eq!(refs[0].2, Interval::STAR);
        assert!(s.references(literal).len() >= 5);
        let text = s.to_string();
        assert!(text.contains("Bug -> descr::Literal"));
        assert!(text.contains("related::Bug*"));
        assert!(text.contains("Literal -> EMPTY"));
    }
}
