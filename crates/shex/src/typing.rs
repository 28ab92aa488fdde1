//! Semantics of shape expression schemas: typings, node satisfaction, and
//! validation of simple and compressed graphs.
//!
//! A *typing* of a graph `G` w.r.t. a schema `S` assigns to every node a set
//! of types. A typing is valid when every node satisfies the definition of
//! every type assigned to it, i.e. the language of the node's *signature*
//! intersects the language of the type definition. Typings form a
//! semi-lattice under union, so there is a unique maximal valid typing
//! ([`maximal_typing`]); `G` satisfies `S` when every node receives at least
//! one type ([`validates`]).
//!
//! Node satisfaction is decided along two paths matching the paper's
//! complexity results:
//!
//! * RBE₀ definitions reduce to an interval-flow assignment
//!   ([`shapex_rbe::flow`]), polynomial for simple graphs;
//! * arbitrary definitions go through the Presburger translation
//!   (`ψ_E`), which also covers compressed graphs whose edge multiplicities
//!   are binary-encoded (Proposition 6.2, NP).
//!
//! A [`Typing`] stores each node's types as a bitset row of `⌈|Γ|/64⌉`
//! words. The from-scratch fixpoint and the incremental repair of
//! [`IncrementalTyping`] run one predecessor worklist over those rows, and
//! so does [`simulation_rows`], the maximal simulation of a graph in a
//! shape graph whose nodes stand for the types (Proposition 3.2 of the
//! containment paper makes the two relations one).

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use shapex_graph::{EdgeId, Graph, Label, LabelId, NodeId};
use shapex_presburger::cancel::CancelToken;
use shapex_presburger::formula::{Formula, LinearExpr, VarPool};
use shapex_presburger::solver::{Bounds, SolveResult, Solver, SolverStats};
use shapex_presburger::translate::{max_interval_constant, ParikhVec, PsiBuilder};
use shapex_rbe::{FlowScratch, Interval, Rbe};

use crate::schema::{Atom, Schema, TypeId};

/// A label id no graph edge carries: marks an atom whose label is absent
/// from the graph, and a label no definition mentions.
const NO_LABEL: u32 = u32::MAX;
/// Per-node mark: the node is on the refinement worklist.
const QUEUED: u8 = 1;
/// Per-node mark: the node was checked during the current call.
const EXAMINED: u8 = 2;
/// Per-node mark: the node is on the scratch's `touched` list.
const TOUCHED: u8 = 4;
/// Per-node mark: the node had no type when the repair gave it its first
/// candidate.
const WAS_UNTYPED: u8 = 8;

/// The positions of the set bits of a bitset row, ascending.
fn set_bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(w, &word)| {
        std::iter::successors(Some(word).filter(|&x| x != 0), |&x| {
            Some(x & (x - 1)).filter(|&y| y != 0)
        })
        .map(move |x| w * 64 + x.trailing_zeros() as usize)
    })
}

/// The number of parallel copies an edge of a simple or compressed graph
/// stands for.
fn multiplicity(graph: &Graph, e: EdgeId) -> u64 {
    graph.occur(e).singleton().unwrap_or(1)
}

/// One atom `a::s^I` of an RBE₀ definition, with `a` as the graph's label id
/// ([`NO_LABEL`] when no edge carries it).
#[derive(Debug, Clone, Copy)]
struct CompiledAtom {
    label: u32,
    target: TypeId,
    interval: Interval,
}

/// Reusable state of the typing worklist behind [`validates_with`],
/// [`maximal_typing`], [`IncrementalTyping`] and [`simulation_rows`].
///
/// Each call compiles its types — a schema's, or the nodes of a shape
/// graph — against the graph's interned label ids. Every RBE₀ definition
/// becomes a run of atoms (label id, target type, interval), so a
/// satisfaction check compares integers and reads typing bits, with one
/// [`FlowScratch`] for the interval flow. The *dependents* of a type `s`
/// are the pairs `(a, t)` such that `δ(t)` mentions `a::s`; the worklist
/// consults them to decide which predecessors a lost type can affect. They
/// take one sorted entry per atom (per edge of a shape graph), never a
/// square of the types. Per-node marks are cleared through the list of
/// nodes a call touched, so they cost nothing for the nodes a call never
/// reaches. Buffers keep
/// their capacity across calls, and one scratch may serve many graphs and
/// schemas: the containment engine of `shapex-core` threads one through
/// its memoised validate step.
#[derive(Debug, Default)]
pub struct ValidateScratch {
    flow: FlowScratch,
    /// `source index → out-edge position` for multiplicity-expanded sources.
    source_edges: Vec<usize>,
    /// Types of the compiled schema or shape graph.
    types: usize,
    /// Words per typing row, `⌈types/64⌉`.
    words: usize,
    /// Per type: its atoms as a range of `atoms`, or `None` when the
    /// definition is not RBE₀.
    rbe0: Vec<Option<(usize, usize)>>,
    /// The atoms of the RBE₀ definitions.
    atoms: Vec<CompiledAtom>,
    /// `(s, a, t)` for every atom `a::s` of every `δ(t)` whose label some
    /// graph edge carries, sorted.
    dependents: Vec<(u32, u32, u32)>,
    /// Type `s` → where its run of `dependents` starts (`types + 1`
    /// entries).
    dependents_start: Vec<usize>,
    /// Per-node [`QUEUED`], [`EXAMINED`], [`TOUCHED`] and [`WAS_UNTYPED`]
    /// marks.
    marks: Vec<u8>,
    /// The nodes whose `marks` may be set.
    touched: Vec<NodeId>,
    /// The refinement worklist.
    stack: Vec<NodeId>,
    /// The repair's worklist of added candidate pairs.
    gains: Vec<(NodeId, TypeId)>,
    /// The row of the node under refinement before its check; afterwards,
    /// the types it lost.
    lost: Vec<u64>,
    /// Where the Presburger fallback records its solver work, if anywhere.
    telemetry: Option<Arc<SolverTelemetry>>,
}

impl ValidateScratch {
    /// A scratch with empty buffers.
    pub fn new() -> ValidateScratch {
        ValidateScratch::default()
    }

    /// A scratch with empty buffers whose Presburger fallback records its
    /// solver work in `telemetry`: the containment engine passes its
    /// session's, so candidate validation counts in its `EngineStats`.
    pub fn with_telemetry(telemetry: Option<Arc<SolverTelemetry>>) -> ValidateScratch {
        ValidateScratch {
            telemetry,
            ..ValidateScratch::default()
        }
    }

    /// Clear the per-node state of the nodes the last call touched (a
    /// cancelled or panicked call included).
    fn reset(&mut self) {
        for &n in &self.touched {
            self.marks[n.index()] = 0;
        }
        self.touched.clear();
        self.stack.clear();
        self.gains.clear();
    }

    /// Start a call on `graph` over `types` types: reset, and forget the
    /// last call's definitions.
    fn begin(&mut self, graph: &Graph, types: usize) {
        self.reset();
        if self.marks.len() < graph.node_count() {
            self.marks.resize(graph.node_count(), 0);
        }
        self.types = types;
        self.words = types.div_ceil(64);
        self.rbe0.clear();
        self.atoms.clear();
        self.dependents.clear();
    }

    /// Start a call: compile `schema` against `graph`'s label ids.
    fn prepare(&mut self, graph: &Graph, schema: &Schema) {
        self.begin(graph, schema.type_count());
        for t in schema.types() {
            let start = self.atoms.len();
            let rbe0 = self.compile(graph, schema.def(t), t);
            if !rbe0 {
                self.atoms.truncate(start);
            }
            self.rbe0.push(rbe0.then_some((start, self.atoms.len())));
        }
        self.index_dependents();
    }

    /// Start a call whose types are the nodes of the shape graph `h`: node
    /// `m`'s out-edges are the atoms of its definition, with `h`'s labels
    /// mapped to `graph`'s label ids once.
    fn prepare_shape(&mut self, graph: &Graph, h: &Graph) {
        self.begin(graph, h.node_count());
        let labels: Vec<u32> = h
            .label_ids()
            .map(|l| {
                graph
                    .find_label(h.label_of(l).as_str())
                    .map_or(NO_LABEL, |l| l.0)
            })
            .collect();
        for m in h.nodes() {
            let start = self.atoms.len();
            for &f in h.out(m) {
                let label = labels[h.label_id(f).index()];
                self.add_atom(label, TypeId(h.target(f).0), h.occur(f), TypeId(m.0));
            }
            self.rbe0.push(Some((start, self.atoms.len())));
        }
        self.index_dependents();
    }

    /// Walk `expr`, the definition of `t`: append its atoms to `atoms` and
    /// record each `a::s` among the dependents of `s`. Returns whether
    /// `expr` is an RBE₀ (an unordered concatenation of interval-repeated
    /// atoms, as [`Rbe::to_rbe0`] decides); if not, the atoms it appended
    /// mean nothing.
    fn compile(&mut self, graph: &Graph, expr: &Rbe<Atom>, t: TypeId) -> bool {
        let label = |atom: &Atom| {
            graph
                .find_label(atom.label.as_str())
                .map_or(NO_LABEL, |l| l.0)
        };
        match expr {
            Rbe::Epsilon => true,
            Rbe::Symbol(atom) => {
                self.add_atom(label(atom), atom.target, Interval::ONE, t);
                true
            }
            Rbe::Repeat(inner, interval) => match inner.as_ref() {
                Rbe::Symbol(atom) => {
                    self.add_atom(label(atom), atom.target, *interval, t);
                    true
                }
                inner => {
                    self.compile(graph, inner, t);
                    false
                }
            },
            Rbe::Concat(parts) => {
                // Every part is walked, whatever an earlier one returned.
                let mut rbe0 = true;
                for part in parts {
                    rbe0 &= self.compile(graph, part, t);
                }
                rbe0
            }
            Rbe::Disj(parts) => {
                for part in parts {
                    self.compile(graph, part, t);
                }
                false
            }
        }
    }

    /// Append the atom `label::target^interval` of `t`'s definition to
    /// `atoms` and the dependents.
    fn add_atom(&mut self, label: u32, target: TypeId, interval: Interval, t: TypeId) {
        self.atoms.push(CompiledAtom {
            label,
            target,
            interval,
        });
        if label != NO_LABEL {
            self.dependents.push((target.0, label, t.0));
        }
    }

    /// Sort the dependents and index them by their target type.
    fn index_dependents(&mut self) {
        self.dependents.sort_unstable();
        self.dependents_start.clear();
        self.dependents_start
            .extend((0..=self.types as u32).map(|s| self.dependents.partition_point(|d| d.0 < s)));
    }

    /// The positions in `dependents` of the types that mention `label::s`.
    fn dependents_of(&self, label: LabelId, s: usize) -> std::ops::Range<usize> {
        let start = self.dependents_start[s];
        let run = &self.dependents[start..self.dependents_start[s + 1]];
        start + run.partition_point(|d| d.1 < label.0)
            ..start + run.partition_point(|d| d.1 <= label.0)
    }

    /// Record that `node` carries per-node state to clear.
    fn touch(&mut self, node: NodeId) {
        let mark = &mut self.marks[node.index()];
        if *mark & TOUCHED == 0 {
            *mark |= TOUCHED;
            self.touched.push(node);
        }
    }

    /// Put `node` on the worklist unless it is already there.
    fn enqueue(&mut self, node: NodeId) {
        self.touch(node);
        let mark = &mut self.marks[node.index()];
        if *mark & QUEUED == 0 {
            *mark |= QUEUED;
            self.stack.push(node);
        }
    }

    /// The gain half of a repair: give every absent pair that may belong to
    /// the new fixpoint its bit as a candidate, and queue its node.
    /// Every absent pair of a seed (a dirty or new node) may appear. An
    /// absent `(p, t)` may appear when an `a`-edge of `p` reaches an added
    /// `(q, s)` with `a::s` in `δ(t)`, or, over an edge of multiplicity 0,
    /// when `q` had no type before (the edge then only asks for `q` to have
    /// one). The closure is complete before anything is refined, so the
    /// nodes of a cycle that can only regain a type together regain it.
    fn collect_gains(
        &mut self,
        graph: &Graph,
        typing: &mut Typing,
        seeds: impl Iterator<Item = NodeId>,
    ) {
        for p in seeds {
            self.enqueue(p);
            for t in 0..self.types {
                self.gain(typing, p, TypeId(t as u32));
            }
        }
        while let Some((q, s)) = self.gains.pop() {
            let was_untyped = self.marks[q.index()] & WAS_UNTYPED != 0;
            for &e in graph.ins(q) {
                let p = graph.source(e);
                if was_untyped && multiplicity(graph, e) == 0 {
                    for t in 0..self.types {
                        self.gain(typing, p, TypeId(t as u32));
                    }
                    continue;
                }
                for i in self.dependents_of(graph.label_id(e), s.index()) {
                    self.gain(typing, p, TypeId(self.dependents[i].2));
                }
            }
        }
    }

    /// Add the pair `(p, t)` as a candidate if `p` lacks `t`.
    fn gain(&mut self, typing: &mut Typing, p: NodeId, t: TypeId) {
        let untyped = typing.types_of(p).is_empty();
        if typing.insert(p, t) {
            self.enqueue(p);
            if untyped {
                self.marks[p.index()] |= WAS_UNTYPED;
            }
            self.gains.push((p, t));
        }
    }

    /// The greatest fixpoint from full rows with every node queued, over
    /// the types of the last `prepare` (`schema`) or `prepare_shape`
    /// (`None`).
    fn fixpoint(
        &mut self,
        graph: &Graph,
        schema: Option<&Schema>,
        cancel: Option<&CancelToken>,
    ) -> Option<Typing> {
        let mut typing = Typing::full(graph.node_count(), self.types);
        // Queued in id order, so the highest ids pop first: candidate graphs
        // number their nodes in preorder (parents before children), and
        // checking successors first lets a whole tree settle with one check
        // per node.
        for node in graph.nodes() {
            self.enqueue(node);
        }
        self.refine(graph, schema, &mut typing, cancel)?;
        self.reset();
        Some(typing)
    }

    /// Refine the queued nodes until every check holds. A popped node has
    /// each of its types re-checked. When its row shrinks, a predecessor is
    /// queued only if it holds a type whose definition mentions one of the
    /// lost `(label, type)` pairs, or any type at all once the row is empty
    /// (an edge into an untyped node fails every check). Returns how many
    /// distinct nodes were checked, or `None` once `cancel` fires. `schema`
    /// is `None` when the types are the nodes of a shape graph.
    fn refine(
        &mut self,
        graph: &Graph,
        schema: Option<&Schema>,
        typing: &mut Typing,
        cancel: Option<&CancelToken>,
    ) -> Option<usize> {
        let words = self.words;
        let mut examined = 0;
        while let Some(node) = self.stack.pop() {
            if cancel.is_some_and(|c| c.fired()) {
                return None;
            }
            #[cfg(test)]
            tests::refinement_step();
            let mark = &mut self.marks[node.index()];
            *mark &= !QUEUED;
            if *mark & EXAMINED == 0 {
                *mark |= EXAMINED;
                examined += 1;
            }
            self.lost.clear();
            self.lost.extend_from_slice(typing.row(node));
            // An edge whose target has no candidate type can never be
            // matched (the signature's inner disjunction is empty, so the
            // language is empty): every type goes.
            let dead_end = graph
                .out(node)
                .iter()
                .any(|&e| typing.types_of(graph.target(e)).is_empty());
            for w in 0..words {
                let mut word = self.lost[w];
                while word != 0 {
                    let t = TypeId((w * 64) as u32 + word.trailing_zeros());
                    word &= word - 1;
                    if dead_end || !self.satisfies(graph, schema, typing, node, t, cancel)? {
                        typing.remove(node, t);
                    }
                }
            }
            let mut shrunk = false;
            for (lost, &kept) in self.lost.iter_mut().zip(typing.row(node)) {
                *lost &= !kept;
                shrunk |= *lost != 0;
            }
            if !shrunk {
                continue;
            }
            let untyped = typing.types_of(node).is_empty();
            for &e in graph.ins(node) {
                let pred = graph.source(e);
                if self.marks[pred.index()] & QUEUED != 0 {
                    continue;
                }
                let row = typing.row(pred);
                let affected = if untyped {
                    row.iter().any(|&w| w != 0)
                } else {
                    self.mentions_lost(graph.label_id(e), row)
                };
                if affected {
                    self.enqueue(pred);
                }
            }
        }
        Some(examined)
    }

    /// Whether a type of `row` mentions `label::s` for a type `s` in
    /// `lost`.
    fn mentions_lost(&self, label: LabelId, row: &[u64]) -> bool {
        set_bits(&self.lost).any(|s| {
            self.dependents_of(label, s).any(|i| {
                let t = self.dependents[i].2 as usize;
                row[t / 64] >> (t % 64) & 1 == 1
            })
        })
    }

    /// Whether `node`, whose every successor has a type, satisfies `δ(t)`
    /// under `typing`. For a schema's type this is [`node_satisfies`], but
    /// on the RBE₀ path the flow
    /// instance reads the compiled atoms and the typing's bits
    /// directly; other definitions fall back to materialised edge summaries
    /// and the Presburger encoding, which runs under `cancel`: `None` means
    /// it fired mid-solve. For a node `t` of a shape graph (`schema` is
    /// `None`), it is whether `t` witnesses a simulation of `node`.
    fn satisfies(
        &mut self,
        graph: &Graph,
        schema: Option<&Schema>,
        typing: &Typing,
        node: NodeId,
        t: TypeId,
        cancel: Option<&CancelToken>,
    ) -> Option<bool> {
        let out = graph.out(node);
        if let Some((start, end)) = self.rbe0[t.index()] {
            let atoms = &self.atoms[start..end];
            let compatible = |e: EdgeId, u: usize| {
                atoms[u].label == graph.label_id(e).0
                    && typing.has_type(graph.target(e), atoms[u].target)
            };
            if schema.is_none() {
                // A simulation maps each edge whole, so an edge is one
                // source carrying its own interval (Definition 3.1).
                self.flow.clear();
                self.flow
                    .sources
                    .extend(out.iter().map(|&e| graph.occur(e)));
                self.flow
                    .sinks
                    .extend(atoms.iter().map(|atom| atom.interval));
                return Some(self.flow.solve(|v, u| compatible(out[v], u)));
            }
            // A typing gives each copy of a compressed edge its own atom
            // (Proposition 6.2).
            if let Some(ok) = rbe0_flow_satisfies(
                &mut self.flow,
                &mut self.source_edges,
                &mut out.iter().map(|&e| multiplicity(graph, e)),
                &mut atoms.iter().map(|atom| atom.interval),
                &|edge, u| compatible(out[edge], u),
            ) {
                return Some(ok);
            }
        }
        let schema = schema.expect("every type of a shape graph is RBE₀");
        let edges = edge_summaries(graph, node, typing);
        let telemetry = self.telemetry.as_deref();
        neighbourhood_satisfies_with(&edges, schema.def(t), telemetry, cancel)
    }
}

/// A typing: for every node of the graph, the set of types it satisfies,
/// stored as one bitset row of `⌈|Γ|/64⌉` words per node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Typing {
    /// Words per row.
    words: usize,
    nodes: usize,
    /// Row `n` is `bits[n · words .. (n + 1) · words]`; bit `t` stands for
    /// [`TypeId`] `t`.
    bits: Vec<u64>,
    /// The number of empty rows, kept in step with `bits`.
    untyped: usize,
}

impl Typing {
    /// Every node typed with all `types` types.
    fn full(nodes: usize, types: usize) -> Typing {
        let words = types.div_ceil(64);
        let mut bits = vec![u64::MAX; nodes * words];
        if types % 64 != 0 {
            for row in bits.chunks_exact_mut(words) {
                row[words - 1] >>= 64 - types % 64;
            }
        }
        Typing {
            words,
            nodes,
            bits,
            untyped: if types == 0 { nodes } else { 0 },
        }
    }

    /// The typing over `types` types that gives the `n`-th node the types
    /// of the `n`-th row.
    ///
    /// # Panics
    /// Panics if a row holds a type outside `0..types`.
    pub fn from_rows<R: IntoIterator<Item = TypeId>>(
        types: usize,
        rows: impl IntoIterator<Item = R>,
    ) -> Typing {
        let mut typing = Typing::full(0, types);
        for (n, row) in rows.into_iter().enumerate() {
            typing.grow(n + 1);
            for t in row {
                assert!(t.index() < types, "type {} out of range", t.0);
                typing.insert(NodeId(n as u32), t);
            }
        }
        typing
    }

    fn row(&self, node: NodeId) -> &[u64] {
        let at = node.index() * self.words;
        &self.bits[at..at + self.words]
    }

    /// Append empty rows up to `nodes` rows.
    fn grow(&mut self, nodes: usize) {
        if nodes > self.nodes {
            self.untyped += nodes - self.nodes;
            self.nodes = nodes;
            self.bits.resize(nodes * self.words, 0);
        }
    }

    /// Give `node` the type `t`; whether it lacked it.
    fn insert(&mut self, node: NodeId, t: TypeId) -> bool {
        let at = node.index() * self.words;
        let row = &mut self.bits[at..at + self.words];
        let bit = 1 << (t.index() % 64);
        if row[t.index() / 64] & bit != 0 {
            return false;
        }
        if row.iter().all(|&w| w == 0) {
            self.untyped -= 1;
        }
        row[t.index() / 64] |= bit;
        true
    }

    /// Take the type `t` away from `node`.
    fn remove(&mut self, node: NodeId, t: TypeId) {
        let at = node.index() * self.words;
        let row = &mut self.bits[at..at + self.words];
        let bit = 1 << (t.index() % 64);
        if row[t.index() / 64] & bit != 0 {
            row[t.index() / 64] &= !bit;
            if row.iter().all(|&w| w == 0) {
                self.untyped += 1;
            }
        }
    }

    /// The set of types assigned to a node.
    pub fn types_of(&self, node: NodeId) -> TypeRow<'_> {
        TypeRow {
            words: self.row(node),
        }
    }

    /// Whether a node has the given type.
    pub fn has_type(&self, node: NodeId, t: TypeId) -> bool {
        self.types_of(node).contains(t)
    }

    /// Whether every node has at least one type (i.e. the graph satisfies the
    /// schema, `dom(Typing) = N_G`).
    pub fn is_total(&self) -> bool {
        self.untyped == 0
    }

    /// The nodes with no type at all (the witnesses of a validation failure).
    pub fn untyped_nodes(&self) -> Vec<NodeId> {
        (0..self.nodes as u32)
            .map(NodeId)
            .filter(|&n| self.types_of(n).is_empty())
            .collect()
    }

    /// Total number of `(node, type)` pairs in the typing.
    pub fn len(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the typing is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The types of one node in a [`Typing`]: a view of its bitset row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TypeRow<'a> {
    words: &'a [u64],
}

impl<'a> TypeRow<'a> {
    /// Whether the row holds `t`.
    pub fn contains(self, t: TypeId) -> bool {
        self.words
            .get(t.index() / 64)
            .is_some_and(|w| w >> (t.index() % 64) & 1 == 1)
    }

    /// Whether the row holds no type.
    pub fn is_empty(self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// The number of types in the row.
    pub fn len(self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The types in the row, ascending.
    pub fn iter(self) -> impl Iterator<Item = TypeId> + 'a {
        set_bits(self.words).map(|t| TypeId(t as u32))
    }
}

/// A retained maximal typing, repaired after graph deltas in proportion to
/// what they change instead of recomputed from scratch.
///
/// [`maximal_typing`] is a greatest fixpoint, and a delta can make pairs
/// `(node, type)` appear as well as disappear. [`IncrementalTyping::apply`]
/// repairs the retained typing in two steps:
///
/// 1. **Gains.** A pair can appear only if its node is dirty (its outbound
///    neighbourhood changed, as [`Graph::apply_delta`] reports) or new, or
///    if an `a`-edge of the node reaches an appearing pair `(q, s)` with
///    `a::s` in the type's definition. The repair collects that closure of
///    absent pairs and sets their bits, all before refining. This is
///    complete: the pairs of the new fixpoint outside the closure, added
///    to the old typing, would give a valid typing of the old graph, so
///    the old typing already held them. Collecting before refining is what
///    lets the nodes of a cycle regain a type that they can only hold
///    together.
/// 2. **Losses.** The rows now over-approximate the new fixpoint, and only
///    the dirty nodes and the nodes that gained a candidate can hold an
///    unsupported pair. A predecessor worklist seeded with them re-checks
///    them, and when a row shrinks it queues a predecessor only if that
///    predecessor holds a type whose definition mentions a lost
///    `(label, type)`.
///
/// The result equals [`maximal_typing`] from scratch, which is the same
/// worklist started from full rows with every node queued (proptests pin
/// both against an independent round-robin fixpoint). A call's work,
/// resetting its scratch included, is proportional to the nodes it
/// touches: an edit that changes no type re-examines exactly the dirty
/// nodes, and `apply` returns the number of distinct nodes it re-examined.
#[derive(Debug)]
pub struct IncrementalTyping {
    typing: Typing,
    scratch: ValidateScratch,
    /// Number of schema types the retained typing was computed against; a
    /// mismatch on `apply` forces a full rebuild.
    type_count: usize,
    /// Set by [`IncrementalTyping::try_apply`] before it first mutates the
    /// retained typing and cleared only when it completes, so a call that
    /// was cancelled — or that panicked — mid-refinement leaves the flag up
    /// over an intermediate (unsound) typing; the next call forces a full
    /// rebuild.
    poisoned: bool,
}

impl IncrementalTyping {
    /// Compute the full maximal typing once; subsequent deltas go through
    /// [`IncrementalTyping::apply`].
    ///
    /// # Panics
    /// Panics if the graph uses occurrence intervals other than singletons
    /// (validation is defined on simple and compressed graphs only).
    pub fn new(graph: &Graph, schema: &Schema) -> IncrementalTyping {
        IncrementalTyping::try_new(graph, schema, None)
            .expect("an uncancelled typing cannot be cancelled")
    }

    /// [`IncrementalTyping::new`] under external cancellation: the fixpoint
    /// checks `cancel` once per popped node (and threads it into every
    /// Presburger fallback) and returns `None` once it fires, leaving nothing
    /// behind.
    ///
    /// # Panics
    /// Panics if the graph uses occurrence intervals other than singletons
    /// (validation is defined on simple and compressed graphs only).
    pub fn try_new(
        graph: &Graph,
        schema: &Schema,
        cancel: Option<&CancelToken>,
    ) -> Option<IncrementalTyping> {
        let mut scratch = ValidateScratch::new();
        let typing = try_maximal_typing_with(graph, schema, &mut scratch, cancel)?;
        Some(IncrementalTyping {
            typing,
            scratch,
            type_count: schema.type_count(),
            poisoned: false,
        })
    }

    /// The retained typing, always equal to `maximal_typing(graph, schema)`
    /// for the graph state of the last `new`/`apply` call.
    pub fn typing(&self) -> &Typing {
        &self.typing
    }

    /// Whether the retained typing is total (the graph validates).
    pub fn is_total(&self) -> bool {
        self.typing.is_total()
    }

    /// Revalidate after a delta. `graph` is the post-delta graph and `dirty`
    /// must contain every node whose outbound neighbourhood changed plus
    /// every newly added node — exactly the `dirty` field of
    /// [`shapex_graph::DeltaReport`]. Returns the number of distinct nodes
    /// the repair re-examined: 0 when `dirty` is empty, exactly the dirty
    /// nodes when the delta changes no type, and the whole graph when the
    /// call rebuilt from scratch.
    ///
    /// Must be called with the same schema the typing was built against; a
    /// schema of a different shape triggers a full rebuild instead.
    ///
    /// # Panics
    /// Panics (in debug builds) if the graph uses occurrence intervals other
    /// than singletons.
    pub fn apply(&mut self, graph: &Graph, schema: &Schema, dirty: &[NodeId]) -> usize {
        self.try_apply(graph, schema, dirty, None)
            .expect("an uncancelled revalidation cannot be cancelled")
    }

    /// [`IncrementalTyping::apply`] under external cancellation: the worklist
    /// checks `cancel` once per popped node, returning `None` once it fires.
    ///
    /// A cancelled call leaves the retained typing *poisoned* — the worklist
    /// was abandoned mid-refinement, so the retained sets are neither an
    /// over- nor an under-approximation of the fixpoint. So does a call that
    /// panics part-way (a Presburger budget panic, say) and is caught by the
    /// caller: the flag goes up before the first mutation and comes down
    /// only on success. The next `apply`/`try_apply` call detects this and
    /// recomputes from scratch (itself cancellable); until one succeeds,
    /// [`IncrementalTyping::typing`] must not be trusted.
    ///
    /// # Panics
    /// Panics (in debug builds) if the graph uses occurrence intervals other
    /// than singletons.
    pub fn try_apply(
        &mut self,
        graph: &Graph,
        schema: &Schema,
        dirty: &[NodeId],
        cancel: Option<&CancelToken>,
    ) -> Option<usize> {
        let known = self.typing.nodes;
        if self.poisoned || self.type_count != schema.type_count() || graph.node_count() < known {
            // Full rebuild, itself cancellable: a second cancellation keeps
            // the typing poisoned for the next attempt.
            match try_maximal_typing_with(graph, schema, &mut self.scratch, cancel) {
                Some(typing) => {
                    self.typing = typing;
                    self.type_count = schema.type_count();
                    self.poisoned = false;
                    return Some(graph.node_count());
                }
                None => {
                    self.poisoned = true;
                    return None;
                }
            }
        }
        if dirty.is_empty() && graph.node_count() == known {
            return Some(0);
        }
        debug_assert!(
            dirty
                .iter()
                .flat_map(|&n| graph.out(n))
                .all(|&e| graph.occur(e).singleton().is_some()),
            "validation requires a simple or compressed graph"
        );
        // Up until the refinement completes: a cancellation or a panic below
        // leaves a typing the next call must not trust.
        self.poisoned = true;
        self.scratch.prepare(graph, schema);
        // New nodes start untyped; like the dirty nodes, every type they
        // lack becomes a candidate.
        self.typing.grow(graph.node_count());
        let new_nodes = (known..graph.node_count()).map(|i| NodeId(i as u32));
        self.scratch.collect_gains(
            graph,
            &mut self.typing,
            dirty.iter().copied().chain(new_nodes),
        );
        let examined = self
            .scratch
            .refine(graph, Some(schema), &mut self.typing, cancel)?;
        self.scratch.reset();
        self.poisoned = false;
        Some(examined)
    }
}

/// Shared, thread-safe accumulator of Presburger solver work.
///
/// Satisfaction checks that fall through to the Presburger encoding report
/// their [`SolverStats`] here instead of dropping them on the floor; the
/// containment engine of `shapex-core` threads one telemetry through every
/// query and surfaces the cumulative counters in its `EngineStats`.
#[derive(Debug, Default)]
pub struct SolverTelemetry {
    /// Cumulative search nodes across every solver call.
    pub search_nodes: AtomicU64,
    /// Cumulative propagation-pruned branches across every solver call.
    pub pruned_branches: AtomicU64,
    /// Number of solver invocations recorded.
    pub solver_calls: AtomicU64,
}

impl SolverTelemetry {
    /// A telemetry with zeroed counters.
    pub fn new() -> SolverTelemetry {
        SolverTelemetry::default()
    }

    /// Fold one query's counters into the running totals.
    pub fn record(&self, stats: SolverStats) {
        self.search_nodes
            .fetch_add(stats.search_nodes, Ordering::Relaxed);
        self.pruned_branches
            .fetch_add(stats.pruned_branches, Ordering::Relaxed);
        self.solver_calls.fetch_add(1, Ordering::Relaxed);
    }

    /// The running totals as a plain [`SolverStats`] value.
    pub fn snapshot(&self) -> SolverStats {
        SolverStats {
            search_nodes: self.search_nodes.load(Ordering::Relaxed),
            pruned_branches: self.pruned_branches.load(Ordering::Relaxed),
        }
    }

    /// Number of solver invocations recorded so far.
    pub fn calls(&self) -> u64 {
        self.solver_calls.load(Ordering::Relaxed)
    }
}

/// One outgoing edge of the node under scrutiny, summarised for satisfaction
/// checking: its label, the candidate types of its target, and its
/// multiplicity (1 for simple graphs, `k` for a compressed `[k;k]` edge).
#[derive(Debug, Clone)]
pub struct EdgeSummary {
    /// The predicate label of the edge.
    pub label: Label,
    /// The types currently assigned to the target node.
    pub target_types: BTreeSet<TypeId>,
    /// The number of parallel copies this edge stands for.
    pub multiplicity: u64,
}

/// Compute the maximal valid typing of a simple or compressed graph with
/// respect to a schema (greatest fixpoint of the refinement operator).
///
/// # Panics
/// Panics if the graph uses occurrence intervals other than singletons
/// (validation is defined on simple and compressed graphs only).
pub fn maximal_typing(graph: &Graph, schema: &Schema) -> Typing {
    maximal_typing_with(graph, schema, &mut ValidateScratch::new())
}

/// [`maximal_typing`] over a caller-provided [`ValidateScratch`], whose
/// buffers are reused across calls.
///
/// # Panics
/// Panics if the graph uses occurrence intervals other than singletons
/// (validation is defined on simple and compressed graphs only).
fn maximal_typing_with(graph: &Graph, schema: &Schema, scratch: &mut ValidateScratch) -> Typing {
    try_maximal_typing_with(graph, schema, scratch, None)
        .expect("an uncancelled typing cannot be cancelled")
}

/// [`maximal_typing_with`] under external cancellation: the worklist checks
/// `cancel` once per popped node (and threads it into every Presburger
/// fallback), returning `None` within a bounded checkpoint interval once it
/// fires. A `Some` result is bit-identical to the uncancelled typing.
///
/// The fixpoint is the refinement worklist of [`IncrementalTyping`], started
/// from full rows with every node queued.
///
/// # Panics
/// Panics if the graph uses occurrence intervals other than singletons
/// (validation is defined on simple and compressed graphs only).
fn try_maximal_typing_with(
    graph: &Graph,
    schema: &Schema,
    scratch: &mut ValidateScratch,
    cancel: Option<&CancelToken>,
) -> Option<Typing> {
    for e in graph.edges() {
        assert!(
            graph.occur(e).singleton().is_some(),
            "validation requires a simple or compressed graph; edge has interval {}",
            graph.occur(e)
        );
    }
    scratch.prepare(graph, schema);
    scratch.fixpoint(graph, Some(schema), cancel)
}

/// The maximal simulation of `g` in `h` (Definition 3.1 of the containment
/// paper) as a typing of `g` whose type `t` stands for `h`'s node
/// `NodeId(t)`: the worklist of [`maximal_typing`] over `h`'s nodes, each
/// defined by its out-edges. `g` and `h` may carry any intervals. Where a
/// typing splits a compressed `[k;k]` edge into `k` unit copies, an edge of
/// `g` is one flow source carrying its own interval. Memory is the result's
/// `|N_G| · ⌈|N_H|/64⌉` words plus terms linear in the nodes and edges.
pub fn simulation_rows(g: &Graph, h: &Graph) -> Typing {
    let mut scratch = ValidateScratch::new();
    scratch.prepare_shape(g, h);
    scratch
        .fixpoint(g, None, None)
        .expect("an uncancelled simulation cannot be cancelled")
}

/// Whether the graph satisfies the schema: every node of the maximal typing
/// carries at least one type.
pub fn validates(graph: &Graph, schema: &Schema) -> bool {
    maximal_typing(graph, schema).is_total()
}

/// [`validates`] over a caller-provided [`ValidateScratch`].
pub fn validates_with(graph: &Graph, schema: &Schema, scratch: &mut ValidateScratch) -> bool {
    maximal_typing_with(graph, schema, scratch).is_total()
}

/// Largest total edge multiplicity the interval-flow fast path expands into
/// unit sources; anything bigger goes to the Presburger encoding.
const FLOW_EXPANSION_LIMIT: u64 = 4096;

/// The one copy of the RBE₀ fast path shared by [`neighbourhood_satisfies`]
/// and the scratch-backed fixpoint: expand each edge's multiplicity into
/// unit sources, route them into the atoms' intervals, and decide
/// feasibility with [`FlowScratch::solve`]. For a deterministic definition
/// (no label in two atoms) every source has at most one compatible atom, so
/// `solve` answers from the forced routing's loads without a flow network;
/// otherwise it runs the polynomial solver when every atom's interval is
/// basic (the sources are all `1`) and the backtracking solver if not.
/// Returns `None` when the expansion exceeds [`FLOW_EXPANSION_LIMIT`]
/// (callers fall back to Presburger). `sinks` are the atoms' intervals and
/// `compatible` is `(edge index, atom index)`.
fn rbe0_flow_satisfies(
    flow: &mut FlowScratch,
    source_edges: &mut Vec<usize>,
    multiplicities: &mut dyn Iterator<Item = u64>,
    sinks: &mut dyn Iterator<Item = Interval>,
    compatible: &dyn Fn(usize, usize) -> bool,
) -> Option<bool> {
    flow.clear();
    source_edges.clear();
    let mut total = 0u64;
    for (i, mult) in multiplicities.enumerate() {
        total += mult;
        if total > FLOW_EXPANSION_LIMIT {
            return None;
        }
        for _ in 0..mult {
            flow.sources.push(Interval::ONE);
            source_edges.push(i);
        }
    }
    flow.sinks.extend(sinks);
    let source_edges = &*source_edges;
    Some(flow.solve(|v, u| compatible(source_edges[v], u)))
}

/// The outgoing edges of `node` summarised for satisfaction checking, with
/// their targets' types in `typing`.
fn edge_summaries(graph: &Graph, node: NodeId, typing: &Typing) -> Vec<EdgeSummary> {
    graph
        .out(node)
        .iter()
        .map(|&e| EdgeSummary {
            label: graph.label(e).clone(),
            target_types: typing.types_of(graph.target(e)).iter().collect(),
            multiplicity: multiplicity(graph, e),
        })
        .collect()
}

/// Whether `node` satisfies the definition of `t` given the candidate types
/// of its successors recorded in `typing`.
pub fn node_satisfies(
    graph: &Graph,
    node: NodeId,
    t: TypeId,
    typing: &Typing,
    schema: &Schema,
) -> bool {
    neighbourhood_satisfies(&edge_summaries(graph, node, typing), schema.def(t))
}

/// Decide whether an outbound neighbourhood can be assigned types so that the
/// resulting bag over `Σ × Γ` belongs to the language of `def`
/// (`L(sign) ∩ L(def) ≠ ∅`).
///
/// This is the workhorse shared by validation and by the containment
/// procedures of `shapex-core` (where the "candidate types" come from node
/// kinds rather than a typing).
pub fn neighbourhood_satisfies(edges: &[EdgeSummary], def: &Rbe<Atom>) -> bool {
    neighbourhood_satisfies_with(edges, def, None, None)
        .expect("an uncancelled satisfaction check cannot be cancelled")
}

/// [`neighbourhood_satisfies`] with an optional [`SolverTelemetry`] that
/// accumulates the Presburger fallback's solver counters (the RBE₀ flow
/// fast path records nothing — it never enters the solver), and an optional
/// [`CancelToken`]: the Presburger
/// fallback polls it at its search checkpoints and the call returns `None`
/// once it fires (the RBE₀ flow fast path is polynomial and runs to
/// completion regardless). `Some` verdicts are identical to the uncancelled
/// path.
pub fn neighbourhood_satisfies_with(
    edges: &[EdgeSummary],
    def: &Rbe<Atom>,
    telemetry: Option<&SolverTelemetry>,
    cancel: Option<&CancelToken>,
) -> Option<bool> {
    // An edge whose target has no candidate type can never be matched: the
    // signature's inner disjunction is empty, so the whole language is empty.
    if edges.iter().any(|e| e.target_types.is_empty()) {
        return Some(false);
    }
    if let Some(rbe0) = def.to_rbe0() {
        // Fast path: assignment of edge copies to RBE0 atoms via interval
        // flow, shared with the scratch-backed fixpoint.
        let atoms = rbe0.atoms();
        let mut flow = FlowScratch::new();
        let mut source_edges = Vec::new();
        if let Some(ok) = rbe0_flow_satisfies(
            &mut flow,
            &mut source_edges,
            &mut edges.iter().map(|e| e.multiplicity),
            &mut atoms.iter().map(|&(_, interval)| interval),
            &|i, u| {
                let edge = &edges[i];
                let (atom, _) = &atoms[u];
                atom.label == edge.label && edge.target_types.contains(&atom.target)
            },
        ) {
            return Some(ok);
        }
    }
    // General path: Presburger encoding of the partition of edge copies into
    // types, fed to ψ_def (the formulas φ_t of Section 6 with x̄ fixed).
    satisfies_via_presburger(edges, def, telemetry, cancel)
}

fn satisfies_via_presburger(
    edges: &[EdgeSummary],
    def: &Rbe<Atom>,
    telemetry: Option<&SolverTelemetry>,
    cancel: Option<&CancelToken>,
) -> Option<bool> {
    let mut pool = VarPool::new();
    let total: u64 = edges.iter().map(|e| e.multiplicity).sum();
    let bound = total + max_interval_constant(def) + 1;

    // Partition variables y_{e,t}: how many copies of edge e are used with
    // target type t.
    let mut conjuncts = Vec::new();
    let mut contributions: ParikhVec<Atom> = ParikhVec::new();
    for (i, edge) in edges.iter().enumerate() {
        let mut sum = LinearExpr::constant(0);
        for t in &edge.target_types {
            let y = pool.fresh_bounded(format!("y{}_{}", i, t.0), edge.multiplicity);
            sum = sum.add(&LinearExpr::var(y));
            let atom = Atom {
                label: edge.label.clone(),
                target: *t,
            };
            let entry = contributions
                .entry(atom)
                .or_insert_with(|| LinearExpr::constant(0));
            *entry = entry.clone().add(&LinearExpr::var(y));
        }
        conjuncts.push(Formula::eq(
            sum,
            LinearExpr::constant(edge.multiplicity as i64),
        ));
    }
    // Atoms of the definition that no edge can produce still need entries so
    // that ψ forces them to zero — they already are zero constants.
    for atom in def.alphabet() {
        contributions
            .entry(atom)
            .or_insert_with(|| LinearExpr::constant(0));
    }
    let psi = PsiBuilder::new(&mut pool, bound).psi(def, &contributions, &LinearExpr::constant(1));
    conjuncts.push(psi);
    let formula = Formula::and(conjuncts);
    let solver = Solver::new(Bounds::uniform(bound));
    let (result, stats) = solver.solve_with_stats_cancellable(&formula, &pool, cancel);
    if let Some(telemetry) = telemetry {
        telemetry.record(stats);
    }
    match result {
        SolveResult::Sat(_) => Some(true),
        SolveResult::Unsat => Some(false),
        // `Unknown` is either a fired cancellation (surface as `None`) or a
        // genuinely exhausted node budget — the latter keeps its historical
        // panic so callers never confuse the two.
        SolveResult::Unknown if cancel.is_some_and(|c| c.is_cancelled()) => None,
        SolveResult::Unknown => panic!("Presburger budget exhausted during validation"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_schema;
    use shapex_graph::{parse_graph, Graph};
    use shapex_rbe::Rbe;

    const FIG1_SCHEMA: &str = "\
Bug  -> descr::Literal, reportedBy::User, reproducedBy::Employee?, related::Bug*
User -> name::Literal, email::Literal?
Employee -> name::Literal, email::Literal
";

    const FIG1_GRAPH: &str = "\
bug1 -descr-> l1
bug1 -reportedBy-> user1
bug1 -related-> bug2
bug2 -descr-> l2
bug2 -reportedBy-> user2
bug2 -reproducedBy-> emp1
bug2 -related-> bug1
bug2 -related-> bug3
bug3 -descr-> l3
bug3 -reportedBy-> user2
bug3 -related-> bug4
bug4 -descr-> l4
bug4 -reportedBy-> user1
user1 -name-> l5
user2 -name-> l6
user2 -email-> l7
emp1 -name-> l8
emp1 -email-> l9
";

    #[test]
    fn figure_1_graph_validates() {
        let schema = parse_schema(FIG1_SCHEMA).unwrap();
        let graph = parse_graph(FIG1_GRAPH).unwrap();
        let typing = maximal_typing(&graph, &schema);
        assert!(typing.is_total());
        assert!(validates(&graph, &schema));
        let bug1 = graph.find_node("bug1").unwrap();
        let user1 = graph.find_node("user1").unwrap();
        let emp1 = graph.find_node("emp1").unwrap();
        let user2 = graph.find_node("user2").unwrap();
        let bug = schema.find_type("Bug").unwrap();
        let user = schema.find_type("User").unwrap();
        let employee = schema.find_type("Employee").unwrap();
        assert!(typing.has_type(bug1, bug));
        assert!(!typing.has_type(bug1, user));
        assert!(typing.has_type(user1, user));
        assert!(!typing.has_type(user1, employee), "user1 has no email");
        assert!(typing.has_type(emp1, employee));
        assert!(typing.has_type(emp1, user), "an employee also fits User");
        assert!(typing.has_type(user2, user));
        assert!(typing.has_type(user2, employee), "user2 has an email");
    }

    #[test]
    fn missing_mandatory_edge_fails_validation() {
        let schema = parse_schema(FIG1_SCHEMA).unwrap();
        // A bug without a reporter.
        let graph = parse_graph("bug1 -descr-> l1\n").unwrap();
        let typing = maximal_typing(&graph, &schema);
        assert!(!typing.is_total());
        let bug1 = graph.find_node("bug1").unwrap();
        assert_eq!(typing.untyped_nodes(), vec![bug1]);
        assert!(!validates(&graph, &schema));
    }

    #[test]
    fn extra_edge_fails_validation() {
        let schema = parse_schema(FIG1_SCHEMA).unwrap();
        // Two descriptions violate descr::Literal with interval 1.
        let graph =
            parse_graph("bug1 -descr-> l1\nbug1 -descr-> l2\nbug1 -reportedBy-> u\nu -name-> l3\n")
                .unwrap();
        assert!(!validates(&graph, &schema));
    }

    #[test]
    fn figure_2_example_typing() {
        let schema =
            parse_schema("t0 -> a::t1\nt1 -> b::t2, c::t3\nt2 -> b::t2?, c::t3\nt3 -> EMPTY\n")
                .unwrap();
        // G0 of Figure 2: the b-edge loops on n1 (its signature in the paper
        // is (b::t1 | b::t2) || c::t3), and the maximal typing gives n1 the
        // types {t1, t2}.
        let graph = parse_graph("n0 -a-> n1\nn1 -b-> n1\nn1 -c-> n2\n").unwrap();
        let typing = maximal_typing(&graph, &schema);
        let n0 = graph.find_node("n0").unwrap();
        let n1 = graph.find_node("n1").unwrap();
        let n2 = graph.find_node("n2").unwrap();
        let t0 = schema.find_type("t0").unwrap();
        let t1 = schema.find_type("t1").unwrap();
        let t2 = schema.find_type("t2").unwrap();
        let t3 = schema.find_type("t3").unwrap();
        assert!(typing.has_type(n0, t0));
        assert!(typing.has_type(n1, t1));
        assert!(typing.has_type(n1, t2));
        assert!(typing.has_type(n2, t3));
        assert!(typing.is_total());
    }

    #[test]
    fn disjunctive_schema_uses_presburger_path() {
        // A -> (p::B | q::B), B -> EMPTY : a node with exactly one of p, q.
        let schema = parse_schema("A -> p::B | q::B\nB -> EMPTY\n").unwrap();
        let a_type = schema.find_type("A").unwrap();
        let with_p = parse_graph("x -p-> y\n").unwrap();
        let with_both = parse_graph("x -p-> y\nx -q-> z\n").unwrap();
        let tp = maximal_typing(&with_p, &schema);
        assert!(tp.has_type(with_p.find_node("x").unwrap(), a_type));
        let tb = maximal_typing(&with_both, &schema);
        assert!(!tb.has_type(with_both.find_node("x").unwrap(), a_type));
        // The leaf still validates as B, so with_p validates overall.
        assert!(validates(&with_p, &schema));
        assert!(!validates(&with_both, &schema));
    }

    #[test]
    fn compressed_graph_validation() {
        // H requires exactly three spokes; a compressed [3;3] edge satisfies
        // it, [2;2] does not (Proposition 6.2 semantics).
        let schema = parse_schema("Hub -> spoke::Rim[3;3]\nRim -> EMPTY\n").unwrap();
        let ok = parse_graph("hub -spoke[3]-> rim\n").unwrap();
        let bad = parse_graph("hub -spoke[2]-> rim\n").unwrap();
        assert!(validates(&ok, &schema));
        assert!(!validates(&bad, &schema));
    }

    #[test]
    fn compressed_copies_may_take_different_types() {
        // Parent needs one left::A and one right::... no — use a single label:
        // Parent -> child::A, child::B where A requires an `a` edge and B
        // requires a `b` edge; a compressed node cannot be both A and B, so a
        // [2;2] edge to a single child cannot satisfy Parent. But two separate
        // children (one A, one B) can.
        let schema = parse_schema(
            "Parent -> child::A, child::B\nA -> mark_a::L\nB -> mark_b::L\nL -> EMPTY\n",
        )
        .unwrap();
        let split =
            parse_graph("p -child-> x\np -child-> y\nx -mark_a-> l1\ny -mark_b-> l2\n").unwrap();
        assert!(validates(&split, &schema));
        let merged = parse_graph("p -child[2]-> x\nx -mark_a-> l1\n").unwrap();
        assert!(!validates(&merged, &schema));
    }

    #[test]
    fn scratch_validation_matches_the_stateless_path() {
        // One scratch reused across graphs and schemas: every verdict and
        // every maximal typing must match the allocating entry points —
        // including the Presburger (disjunctive) and compressed paths.
        let schemas = [
            parse_schema(FIG1_SCHEMA).unwrap(),
            parse_schema("A -> p::B | q::B\nB -> EMPTY\n").unwrap(),
            parse_schema("Hub -> spoke::Rim[3;3]\nRim -> EMPTY\n").unwrap(),
        ];
        let graphs = [
            parse_graph(FIG1_GRAPH).unwrap(),
            parse_graph("x -p-> y\nx -q-> z\n").unwrap(),
            parse_graph("x -p-> y\n").unwrap(),
            parse_graph("hub -spoke[3]-> rim\n").unwrap(),
            parse_graph("hub -spoke[2]-> rim\n").unwrap(),
        ];
        let mut scratch = ValidateScratch::new();
        for schema in &schemas {
            for graph in &graphs {
                assert_eq!(
                    maximal_typing_with(graph, schema, &mut scratch),
                    maximal_typing(graph, schema),
                    "typings diverge"
                );
                assert_eq!(
                    validates_with(graph, schema, &mut scratch),
                    validates(graph, schema),
                    "verdicts diverge"
                );
            }
        }
    }

    #[test]
    fn incremental_typing_tracks_deltas_exactly() {
        use shapex_graph::GraphDelta;
        let schema = parse_schema(FIG1_SCHEMA).unwrap();
        let mut graph = parse_graph(FIG1_GRAPH).unwrap();
        let mut inc = IncrementalTyping::new(&graph, &schema);
        assert!(inc.is_total());

        // Removing user1's name un-types user1 and cascades to bug1/bug4.
        let mut delta = GraphDelta::new();
        delta.remove_edge("user1", "name", "l5");
        let report = graph.apply_delta(&delta);
        let touched = inc.apply(&graph, &schema, &report.dirty);
        assert!(touched >= 1);
        assert_eq!(inc.typing(), &maximal_typing(&graph, &schema));
        assert!(!inc.is_total(), "bug1 lost its User reporter");
        let user1 = graph.find_node("user1").unwrap();
        let user = schema.find_type("User").unwrap();
        assert!(!inc.typing().has_type(user1, user), "no name edge any more");

        // Adding the name back restores the original typing — a pure add can
        // restore types, which is why the repair collects candidate gains.
        let mut delta = GraphDelta::new();
        delta.add_edge("user1", "name", "l5");
        let report = graph.apply_delta(&delta);
        inc.apply(&graph, &schema, &report.dirty);
        assert_eq!(inc.typing(), &maximal_typing(&graph, &schema));
        assert!(inc.is_total());

        // A brand-new subgraph: new nodes enter through the dirty set.
        let mut delta = GraphDelta::new();
        delta.add_edge("bug9", "descr", "l9b");
        delta.add_edge("bug9", "reportedBy", "user9");
        delta.add_edge("user9", "name", "l9c");
        let report = graph.apply_delta(&delta);
        assert_eq!(report.added_nodes, 4);
        inc.apply(&graph, &schema, &report.dirty);
        assert_eq!(inc.typing(), &maximal_typing(&graph, &schema));
        let bug9 = graph.find_node("bug9").unwrap();
        assert!(inc
            .typing()
            .has_type(bug9, schema.find_type("Bug").unwrap()));

        // An empty delta re-examines nothing.
        assert_eq!(inc.apply(&graph, &schema, &[]), 0);
    }

    #[test]
    fn incremental_typing_stays_local_on_a_forest() {
        // A forest of independent Bug/User stars: editing one tree must not
        // re-examine the others (the affected region is one tree).
        let schema = parse_schema(FIG1_SCHEMA).unwrap();
        let mut graph = shapex_graph::Graph::new();
        let mut delta = GraphDelta::new();
        for i in 0..100 {
            delta.add_edge(format!("bug{i}"), "descr", format!("lit{i}"));
            delta.add_edge(format!("bug{i}"), "reportedBy", format!("user{i}"));
            delta.add_edge(format!("user{i}"), "name", format!("name{i}"));
        }
        use shapex_graph::GraphDelta;
        graph.apply_delta(&delta);
        let mut inc = IncrementalTyping::new(&graph, &schema);
        assert!(inc.is_total());

        let mut edit = GraphDelta::new();
        edit.remove_edge("user7", "name", "name7");
        let report = graph.apply_delta(&edit);
        let touched = inc.apply(&graph, &schema, &report.dirty);
        // user7 plus its one predecessor bug7: far below the 300-node graph.
        assert_eq!(touched, 2);
        assert_eq!(inc.typing(), &maximal_typing(&graph, &schema));

        // A rebuild against a different schema shape falls back to full.
        let other = parse_schema("T -> EMPTY\n").unwrap();
        let touched = inc.apply(&graph, &other, &[]);
        assert_eq!(touched, graph.node_count());
        assert_eq!(inc.typing(), &maximal_typing(&graph, &other));
    }

    /// Apply one batch of `(add, source, label, target)` edits and repair.
    fn edit(
        graph: &mut Graph,
        inc: &mut IncrementalTyping,
        schema: &Schema,
        ops: &[(bool, &str, &str, &str)],
    ) -> (usize, usize) {
        let mut delta = shapex_graph::GraphDelta::new();
        for &(add, source, label, target) in ops {
            if add {
                delta.add_edge(source, label, target);
            } else {
                delta.remove_edge(source, label, target);
            }
        }
        let report = graph.apply_delta(&delta);
        (inc.apply(graph, schema, &report.dirty), report.dirty.len())
    }

    #[test]
    fn an_edit_that_changes_no_type_re_examines_only_the_dirty_nodes() {
        // The streaming benchmark's lenient schema: an email is optional, so
        // removing or restoring one changes no type anywhere.
        let schema = parse_schema(
            "Bug -> descr::Literal, reportedBy::User, related::Bug*\n\
             User -> name::Literal, email::Literal?\n\
             Literal -> EMPTY\n",
        )
        .unwrap();
        let mut delta = shapex_graph::GraphDelta::new();
        for u in 0..4 {
            delta.add_edge(format!("u{u}"), "name", format!("n{u}"));
            delta.add_edge(format!("u{u}"), "email", format!("e{u}"));
        }
        // One `related` chain through 12 bugs: every user is reached by the
        // bugs reporting it and by the whole chain before them.
        for b in 0..12 {
            delta.add_edge(format!("b{b}"), "descr", format!("d{b}"));
            delta.add_edge(format!("b{b}"), "reportedBy", format!("u{}", b % 4));
            if b < 11 {
                delta.add_edge(format!("b{b}"), "related", format!("b{}", b + 1));
            }
        }
        let mut graph = Graph::new();
        graph.apply_delta(&delta);
        let mut inc = IncrementalTyping::new(&graph, &schema);
        assert!(inc.is_total());
        let batches: [&[(bool, &str, &str, &str)]; 4] = [
            &[(false, "u1", "email", "e1")],
            &[(true, "u1", "email", "e1")],
            &[
                (false, "u0", "email", "e0"),
                (false, "u3", "email", "e3"),
                (false, "b5", "related", "b6"),
            ],
            &[
                (true, "u0", "email", "e0"),
                (true, "u3", "email", "e3"),
                (true, "b5", "related", "b6"),
            ],
        ];
        for ops in batches {
            let (examined, dirty) = edit(&mut graph, &mut inc, &schema, ops);
            assert_eq!(examined, dirty, "only the dirty nodes are re-examined");
            assert_eq!(inc.typing(), &maximal_typing(&graph, &schema));
            assert!(inc.is_total());
        }
    }

    #[test]
    fn a_cycle_loses_and_regains_a_type_as_a_whole() {
        // Each node of the ring needs the next one's type, and only the
        // anchor edge, which leaves the ring, grounds the head.
        let schema = parse_schema(
            "Head -> anchor::Leaf, next::Mid\nMid -> next::Tail\nTail -> next::Head\nLeaf -> EMPTY\n",
        )
        .unwrap();
        let mut graph =
            parse_graph("n0 -next-> n1\nn1 -next-> n2\nn2 -next-> n0\nn0 -anchor-> leaf\n")
                .unwrap();
        let ring = ["n0", "n1", "n2"].map(|n| graph.find_node(n).unwrap());
        let types = ["Head", "Mid", "Tail"].map(|t| schema.find_type(t).unwrap());
        let ring_typed = |inc: &IncrementalTyping| {
            ring.iter()
                .zip(types)
                .map(|(&n, t)| inc.typing().has_type(n, t))
                .collect::<Vec<_>>()
        };
        let mut inc = IncrementalTyping::new(&graph, &schema);
        assert_eq!(ring_typed(&inc), [true; 3]);
        let steps = [
            // The grounding edge goes, and returns.
            ((false, "n0", "anchor", "leaf"), false),
            ((true, "n0", "anchor", "leaf"), true),
            // The leaf stops being a Leaf and becomes one again: edits
            // outside the ring, whose nodes are not dirty.
            ((true, "leaf", "mark", "x"), false),
            ((false, "leaf", "mark", "x"), true),
        ];
        for (op, typed) in steps {
            edit(&mut graph, &mut inc, &schema, &[op]);
            assert_eq!(inc.typing(), &maximal_typing(&graph, &schema));
            assert_eq!(ring_typed(&inc), [typed; 3]);
            assert_eq!(inc.is_total(), typed);
        }
    }

    #[test]
    fn an_edge_of_multiplicity_zero_only_asks_for_a_typed_target() {
        // x's `p[0]` edge stands for no copies, so x is an L as long as y
        // has some type, although no definition mentions `p`. Untyping y
        // (with an `r` edge no definition allows) must untype x, and typing
        // y again must give x its type back.
        let schema = parse_schema("L -> EMPTY\nB -> q::L\n").unwrap();
        let mut graph = parse_graph("x -p[0]-> y\n").unwrap();
        let x = graph.find_node("x").unwrap();
        let mut inc = IncrementalTyping::new(&graph, &schema);
        for (op, x_typed) in [
            ((true, "y", "r", "z"), false),
            ((false, "y", "r", "z"), true),
        ] {
            edit(&mut graph, &mut inc, &schema, &[op]);
            assert_eq!(inc.typing(), &maximal_typing(&graph, &schema));
            assert_eq!(!inc.typing().types_of(x).is_empty(), x_typed);
        }
    }

    #[test]
    fn rows_wider_than_one_word_follow_every_edit() {
        // 70 types, so a row spans two words; definitions and edits come
        // from a fixed linear congruential sequence.
        const TYPES: u64 = 70;
        let mut state = 7u64;
        let mut draw = |n: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % n
        };
        let text: String = (0..TYPES)
            .map(|i| {
                let atoms: Vec<String> = (0..draw(3))
                    .map(|_| {
                        let card = ["", "?", "*", "+"][draw(4) as usize];
                        format!("p{}::T{}{card}", draw(3), draw(TYPES))
                    })
                    .collect();
                let def = if atoms.is_empty() {
                    "EMPTY".to_string()
                } else {
                    atoms.join(", ")
                };
                format!("T{i} -> {def}\n")
            })
            .collect();
        let schema = parse_schema(&text).unwrap();
        assert_eq!(schema.type_count(), TYPES as usize);
        let mut graph = Graph::new();
        let mut inc = IncrementalTyping::new(&graph, &schema);
        let mut second_word = false;
        for _ in 0..60 {
            let (source, label, target) = (
                format!("n{}", draw(8)),
                format!("p{}", draw(3)),
                format!("n{}", draw(8)),
            );
            let add = draw(3) != 0;
            edit(
                &mut graph,
                &mut inc,
                &schema,
                &[(add, &source, &label, &target)],
            );
            let expected = maximal_typing(&graph, &schema);
            assert_eq!(inc.typing(), &expected);
            for n in graph.nodes() {
                let row = expected.types_of(n);
                assert_eq!(row.len(), row.iter().count());
                assert!(row.iter().all(|t| row.contains(t) && t.index() < 70));
                second_word |= row.iter().any(|t| t.index() >= 64);
            }
        }
        assert!(second_word, "some node holds a type of the second word");
    }

    #[test]
    fn fired_cancel_aborts_typing_and_poisons_incremental_state() {
        let schema = parse_schema(FIG1_SCHEMA).unwrap();
        let mut graph = parse_graph(FIG1_GRAPH).unwrap();

        // A pre-fired flag aborts the fixpoint before its first check.
        let cancel = CancelToken::new();
        cancel.cancel();
        assert!(try_maximal_typing_with(
            &graph,
            &schema,
            &mut ValidateScratch::new(),
            Some(&cancel)
        )
        .is_none());

        // A dormant flag changes nothing.
        let dormant = CancelToken::new();
        assert_eq!(
            try_maximal_typing_with(&graph, &schema, &mut ValidateScratch::new(), Some(&dormant)),
            Some(maximal_typing(&graph, &schema))
        );

        // Cancelling an incremental revalidation poisons the retained typing;
        // the next (uncancelled) apply recovers via a full rebuild and lands
        // exactly on the from-scratch fixpoint.
        use shapex_graph::GraphDelta;
        let mut inc = IncrementalTyping::new(&graph, &schema);
        let mut delta = GraphDelta::new();
        delta.remove_edge("user1", "name", "l5");
        let report = graph.apply_delta(&delta);
        assert!(inc
            .try_apply(&graph, &schema, &report.dirty, Some(&cancel))
            .is_none());
        let touched = inc.apply(&graph, &schema, &[]);
        assert_eq!(touched, graph.node_count(), "poisoned state forces rebuild");
        assert_eq!(inc.typing(), &maximal_typing(&graph, &schema));
    }

    thread_local! {
        /// Refinement steps of `IncrementalTyping::try_apply` left before an
        /// injected panic (`None`: never).
        static PANIC_AFTER: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
    }

    /// The test hook in `try_apply`'s refinement loop: panics once the
    /// armed step count runs out.
    pub(super) fn refinement_step() {
        PANIC_AFTER.with(|left| match left.get() {
            Some(0) => {
                left.set(None);
                panic!("injected panic mid-refinement");
            }
            Some(n) => left.set(Some(n - 1)),
            None => {}
        });
    }

    #[test]
    fn a_panic_mid_refinement_forces_a_rebuild() {
        let schema = parse_schema(FIG1_SCHEMA).unwrap();
        let mut graph = parse_graph(FIG1_GRAPH).unwrap();
        let mut inc = IncrementalTyping::new(&graph, &schema);
        // user1 loses its name, so it and the bugs reaching it lose types:
        // the repair checks user1 and then each bug that loses its reporter.
        use shapex_graph::GraphDelta;
        let mut delta = GraphDelta::new();
        delta.remove_edge("user1", "name", "l5");
        let report = graph.apply_delta(&delta);
        PANIC_AFTER.with(|left| left.set(Some(1)));
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            inc.apply(&graph, &schema, &report.dirty)
        }));
        assert!(caught.is_err(), "the hook panics on the second step");
        // Nothing changed since: an unpoisoned typing would answer from the
        // half-refined sets it kept.
        let touched = inc.apply(&graph, &schema, &[]);
        assert_eq!(
            touched,
            graph.node_count(),
            "a panicked repair forces a rebuild"
        );
        assert_eq!(inc.typing(), &maximal_typing(&graph, &schema));
    }

    #[test]
    fn cancelled_presburger_fallback_surfaces_as_none() {
        // The disjunctive definition forces the Presburger path.
        let schema = parse_schema("A -> p::B | q::B\nB -> EMPTY\n").unwrap();
        let a_type = schema.find_type("A").unwrap();
        let b_type = schema.find_type("B").unwrap();
        let edges = [EdgeSummary {
            label: Label::new("p"),
            target_types: [b_type].into_iter().collect(),
            multiplicity: 1,
        }];
        let fired = CancelToken::new();
        fired.cancel();
        assert_eq!(
            neighbourhood_satisfies_with(&edges, schema.def(a_type), None, Some(&fired),),
            None,
            "a fired flag must abort the solver, not return a verdict"
        );
        let dormant = CancelToken::new();
        assert_eq!(
            neighbourhood_satisfies_with(&edges, schema.def(a_type), None, Some(&dormant),),
            Some(true)
        );
    }

    #[test]
    fn neighbourhood_satisfies_directly() {
        let mut schema = Schema::new();
        let a = schema.add_type("A");
        let b = schema.add_type("B");
        schema.define_rbe0(a, &[("p", b, Interval::PLUS)]);
        let def = schema.def(a).clone();
        let edge = |mult: u64, types: &[TypeId]| EdgeSummary {
            label: Label::new("p"),
            target_types: types.iter().copied().collect(),
            multiplicity: mult,
        };
        assert!(neighbourhood_satisfies(&[edge(1, &[b])], &def));
        assert!(neighbourhood_satisfies(&[edge(5, &[b])], &def));
        assert!(
            !neighbourhood_satisfies(&[], &def),
            "p+ needs at least one edge"
        );
        assert!(
            !neighbourhood_satisfies(&[edge(1, &[a])], &def),
            "target type mismatch"
        );
        assert!(
            !neighbourhood_satisfies(&[edge(1, &[])], &def),
            "untypable target"
        );
        // An epsilon definition rejects any outgoing edge.
        assert!(!neighbourhood_satisfies(&[edge(1, &[b])], &Rbe::Epsilon));
        assert!(neighbourhood_satisfies(&[], &Rbe::Epsilon));
    }
}
