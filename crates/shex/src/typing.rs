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

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};

use shapex_graph::{Graph, Label, NodeId};
use shapex_presburger::cancel::CancelToken;
use shapex_presburger::formula::{Formula, LinearExpr, VarPool};
use shapex_presburger::solver::{Bounds, SolveResult, Solver, SolverStats};
use shapex_presburger::translate::{max_interval_constant, ParikhVec, PsiBuilder};
use shapex_rbe::{FlowScratch, Interval, Rbe, Rbe0};

use crate::schema::{Atom, Schema, TypeId};

/// Reusable buffers for [`validates_with`] / [`maximal_typing_with`].
///
/// The fixpoint refinement re-checks node satisfaction for every `(node,
/// type)` pair on every sweep; the stateless [`node_satisfies`] entry point
/// allocates an [`EdgeSummary`] vector (with a cloned type set per edge) and
/// fresh flow buffers for each of those checks. A `ValidateScratch` hoists
/// all of it — the interval-flow buffers (a [`FlowScratch`], mirroring the
/// simulation engine's usage in `shapex-rbe`), the expanded source→edge map,
/// and a per-call cache of each type's RBE₀ view — so the per-`(node, type,
/// sweep)` inner loop of the fixpoint allocates nothing. (A call still pays
/// one `Typing` allocation and one RBE₀-view rebuild per type; only the
/// inner loop, which runs orders of magnitude more often, is allocation
/// free.) The containment engine of `shapex-core` threads one scratch
/// through its memoised validate step.
#[derive(Debug, Default)]
pub struct ValidateScratch {
    flow: FlowScratch,
    /// `source index → out-edge position` for multiplicity-expanded sources.
    source_edges: Vec<usize>,
    /// Per-[`TypeId`] RBE₀ views of the schema under validation, rebuilt at
    /// the start of every [`maximal_typing_with`] call (the scratch may be
    /// reused across schemas).
    rbe0s: Vec<Option<Rbe0<Atom>>>,
    /// The types of the node under refinement (snapshot per node per sweep).
    current: Vec<TypeId>,
}

impl ValidateScratch {
    /// A scratch with empty buffers.
    pub fn new() -> ValidateScratch {
        ValidateScratch::default()
    }
}

/// A typing: for every node of the graph, the set of types it satisfies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Typing {
    sets: Vec<BTreeSet<TypeId>>,
}

impl Typing {
    fn full(nodes: usize, schema: &Schema) -> Typing {
        let all: BTreeSet<TypeId> = schema.types().collect();
        Typing {
            sets: vec![all; nodes],
        }
    }

    /// The set of types assigned to a node.
    pub fn types_of(&self, node: NodeId) -> &BTreeSet<TypeId> {
        &self.sets[node.index()]
    }

    /// Whether a node has the given type.
    pub fn has_type(&self, node: NodeId, t: TypeId) -> bool {
        self.sets[node.index()].contains(&t)
    }

    /// Whether every node has at least one type (i.e. the graph satisfies the
    /// schema, `dom(Typing) = N_G`).
    pub fn is_total(&self) -> bool {
        self.sets.iter().all(|s| !s.is_empty())
    }

    /// The nodes with no type at all (the witnesses of a validation failure).
    pub fn untyped_nodes(&self) -> Vec<NodeId> {
        self.sets
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_empty())
            .map(|(i, _)| NodeId(i as u32))
            .collect()
    }

    /// Total number of `(node, type)` pairs in the typing.
    pub fn len(&self) -> usize {
        self.sets.iter().map(|s| s.len()).sum()
    }

    /// Whether the typing is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A retained maximal typing that is revalidated incrementally after graph
/// deltas instead of recomputed from scratch.
///
/// [`maximal_typing`] is a greatest fixpoint: it starts every node at the
/// full candidate set and removes types until stable. After a delta, only
/// part of the graph can change type. A node's types in the fixpoint depend
/// solely on its *out-reachable* subgraph, so the nodes whose types may
/// differ from the retained typing are exactly the **affected region** `R`:
/// the dirty nodes (out-neighbourhood changed, reported by
/// [`Graph::apply_delta`]) plus everything that reaches them — the reverse
/// closure over [`Graph::ins`]. `R` is closed under predecessors, so the
/// refinement worklist never needs to leave it: nodes outside `R` keep their
/// retained sets, which over- *and* under-approximate nothing (their
/// out-reachable subgraph is unchanged).
///
/// [`IncrementalTyping::apply`] therefore (1) re-expands every node of `R`
/// to the full candidate set — an *add* can legitimately give a node types
/// it lost before, so shrinking alone would be unsound — and (2) runs a
/// predecessor-directed worklist seeded with `R`: whenever a node's set
/// shrinks, its in-neighbours are re-enqueued. The result is provably equal
/// to [`maximal_typing`] from scratch (pinned by a proptest over random
/// delta sequences), at `O(|R| neighbourhoods)` instead of `O(graph)` per
/// delta.
#[derive(Debug)]
pub struct IncrementalTyping {
    typing: Typing,
    scratch: ValidateScratch,
    /// Number of schema types the retained typing was computed against; a
    /// mismatch on `apply` forces a full rebuild.
    type_count: usize,
    /// Set when a cancelled [`IncrementalTyping::try_apply`] abandoned the
    /// worklist mid-refinement, leaving the retained typing in an
    /// intermediate (unsound) state; the next call forces a full rebuild.
    poisoned: bool,
    /// Scratch: membership in the affected region `R`.
    affected: Vec<bool>,
    /// Scratch: worklist membership flags.
    queued: Vec<bool>,
    /// Scratch: the worklist itself.
    stack: Vec<NodeId>,
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
    /// checks `cancel` as [`try_maximal_typing_with`] does and returns `None`
    /// once it fires, leaving nothing behind.
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
            type_count: schema.types().count(),
            poisoned: false,
            affected: Vec::new(),
            queued: Vec::new(),
            stack: Vec::new(),
        })
    }

    /// The retained typing, always equal to `maximal_typing(graph, schema)`
    /// for the graph state of the last `new`/`apply`/`rebuild` call.
    pub fn typing(&self) -> &Typing {
        &self.typing
    }

    /// Whether the retained typing is total (the graph validates).
    pub fn is_total(&self) -> bool {
        self.typing.is_total()
    }

    /// Throw the retained typing away and recompute from scratch (the
    /// fallback when the caller lost track of which nodes are dirty).
    pub fn rebuild(&mut self, graph: &Graph, schema: &Schema) {
        self.typing = maximal_typing_with(graph, schema, &mut self.scratch);
        self.type_count = schema.types().count();
        self.poisoned = false;
    }

    /// Revalidate after a delta. `graph` is the post-delta graph and `dirty`
    /// must contain every node whose outbound neighbourhood changed plus
    /// every newly added node — exactly the `dirty` field of
    /// [`shapex_graph::DeltaReport`]. Returns the size of the affected
    /// region that was re-examined (the locality measure: 0 when `dirty` is
    /// empty, `O(dirty + its ancestors)` in general).
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
    /// over- nor an under-approximation of the fixpoint. The next
    /// `apply`/`try_apply` call detects this and recomputes from scratch
    /// (itself cancellable); until one succeeds, [`IncrementalTyping::typing`]
    /// must not be trusted.
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
        if self.poisoned || self.type_count != schema.types().count() {
            // Full rebuild, itself cancellable: a second cancellation keeps
            // the typing poisoned for the next attempt.
            match try_maximal_typing_with(graph, schema, &mut self.scratch, cancel) {
                Some(typing) => {
                    self.typing = typing;
                    self.type_count = schema.types().count();
                    self.poisoned = false;
                    return Some(graph.node_count());
                }
                None => {
                    self.poisoned = true;
                    return None;
                }
            }
        }
        if dirty.is_empty() && graph.node_count() == self.typing.sets.len() {
            return Some(0);
        }
        debug_assert!(
            graph.edges().all(|e| graph.occur(e).singleton().is_some()),
            "validation requires a simple or compressed graph"
        );
        let nodes = graph.node_count();
        let full: BTreeSet<TypeId> = schema.types().collect();
        // Nodes created since the last call start at the full candidate set;
        // they are expected to be in `dirty`, which re-expands them anyway.
        self.typing.sets.resize(nodes, full.clone());

        // The affected region R: reverse closure of the dirty set. R is
        // closed under predecessors, so the worklist below stays inside it.
        self.affected.clear();
        self.affected.resize(nodes, false);
        self.queued.clear();
        self.queued.resize(nodes, false);
        self.stack.clear();
        for &n in dirty {
            if !self.affected[n.index()] {
                self.affected[n.index()] = true;
                self.stack.push(n);
            }
        }
        let mut region: Vec<NodeId> = Vec::new();
        while let Some(n) = self.stack.pop() {
            region.push(n);
            for &e in graph.ins(n) {
                let pred = graph.source(e);
                if !self.affected[pred.index()] {
                    self.affected[pred.index()] = true;
                    self.stack.push(pred);
                }
            }
        }

        // Re-expand R to the full candidate set (adds can restore types) and
        // seed the worklist with all of it, high ids first — candidate
        // graphs number nodes in preorder, so refining successors before
        // predecessors stabilises trees in one pass.
        region.sort_unstable();
        for &n in &region {
            self.typing.sets[n.index()].clone_from(&full);
            self.queued[n.index()] = true;
        }
        self.stack.extend(region.iter().copied());

        // Rebuild the per-schema RBE₀ views (the scratch may have been used
        // against another schema between calls).
        self.scratch.rbe0s.clear();
        self.scratch
            .rbe0s
            .extend(schema.types().map(|t| schema.def(t).to_rbe0()));

        // Predecessor-directed refinement: when a node's set shrinks, every
        // in-neighbour may lose a type that matched an atom pointing at it.
        while let Some(node) = self.stack.pop() {
            if cancel.is_some_and(|c| c.fired()) {
                self.poisoned = true;
                return None;
            }
            self.queued[node.index()] = false;
            self.scratch.current.clear();
            self.scratch
                .current
                .extend(self.typing.sets[node.index()].iter().copied());
            let mut shrunk = false;
            for i in 0..self.scratch.current.len() {
                let t = self.scratch.current[i];
                match try_node_satisfies_scratch(
                    graph,
                    node,
                    t,
                    &self.typing,
                    schema,
                    &mut self.scratch,
                    cancel,
                ) {
                    None => {
                        self.poisoned = true;
                        return None;
                    }
                    Some(true) => {}
                    Some(false) => {
                        self.typing.sets[node.index()].remove(&t);
                        shrunk = true;
                    }
                }
            }
            if shrunk {
                for &e in graph.ins(node) {
                    let pred = graph.source(e);
                    debug_assert!(self.affected[pred.index()], "R is predecessor-closed");
                    if !self.queued[pred.index()] {
                        self.queued[pred.index()] = true;
                        self.stack.push(pred);
                    }
                }
            }
        }
        Some(region.len())
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

/// [`maximal_typing`] over a caller-provided [`ValidateScratch`], the
/// allocation-free path for hot validation loops.
///
/// # Panics
/// Panics if the graph uses occurrence intervals other than singletons
/// (validation is defined on simple and compressed graphs only).
pub fn maximal_typing_with(
    graph: &Graph,
    schema: &Schema,
    scratch: &mut ValidateScratch,
) -> Typing {
    try_maximal_typing_with(graph, schema, scratch, None)
        .expect("an uncancelled typing cannot be cancelled")
}

/// [`maximal_typing_with`] under external cancellation: the fixpoint checks
/// `cancel` once per node per sweep (and threads it into every Presburger
/// fallback), returning `None` within a bounded checkpoint interval once it
/// fires. A `Some` result is bit-identical to the uncancelled typing.
///
/// # Panics
/// Panics if the graph uses occurrence intervals other than singletons
/// (validation is defined on simple and compressed graphs only).
pub fn try_maximal_typing_with(
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
    // The RBE₀ view of every definition, once per call instead of once per
    // (node, type, sweep) satisfaction check.
    scratch.rbe0s.clear();
    scratch
        .rbe0s
        .extend(schema.types().map(|t| schema.def(t).to_rbe0()));
    let mut typing = Typing::full(graph.node_count(), schema);
    loop {
        let mut changed = false;
        // Nodes are refined in reverse id order: the refinement operator is
        // monotone, so chaotic iteration reaches the same greatest fixpoint
        // in any order — but candidate graphs number their nodes in preorder
        // (parents before children), and visiting successors first lets a
        // whole tree stabilise in one sweep instead of one sweep per level.
        for index in (0..graph.node_count()).rev() {
            if cancel.is_some_and(|c| c.fired()) {
                return None;
            }
            let node = NodeId(index as u32);
            scratch.current.clear();
            scratch
                .current
                .extend(typing.sets[node.index()].iter().copied());
            for i in 0..scratch.current.len() {
                let t = scratch.current[i];
                match try_node_satisfies_scratch(graph, node, t, &typing, schema, scratch, cancel) {
                    None => return None,
                    Some(true) => {}
                    Some(false) => {
                        typing.sets[node.index()].remove(&t);
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            return Some(typing);
        }
    }
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
/// (callers fall back to Presburger). `compatible` is `(edge index, atom
/// index)` — the only thing the two callers genuinely differ in.
fn rbe0_flow_satisfies(
    flow: &mut FlowScratch,
    source_edges: &mut Vec<usize>,
    multiplicities: &mut dyn Iterator<Item = u64>,
    atoms: &[(Atom, Interval)],
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
    flow.sinks
        .extend(atoms.iter().map(|&(_, interval)| interval));
    let source_edges = &*source_edges;
    Some(flow.solve(|v, u| compatible(source_edges[v], u)))
}

/// The scratch-backed satisfaction check behind [`maximal_typing_with`]:
/// semantically identical to [`node_satisfies`], but the edge summaries on
/// the fast path are never materialised — the flow instance borrows the
/// typing directly — and the RBE₀ view comes from the scratch's per-call
/// cache. The Presburger fallback runs under external cancellation: `None`
/// means `cancel` fired mid-solve; `Some` verdicts are identical to the
/// uncancelled path.
#[allow(clippy::too_many_arguments)]
fn try_node_satisfies_scratch(
    graph: &Graph,
    node: NodeId,
    t: TypeId,
    typing: &Typing,
    schema: &Schema,
    scratch: &mut ValidateScratch,
    cancel: Option<&CancelToken>,
) -> Option<bool> {
    let out = graph.out(node);
    // An edge whose target has no candidate type can never be matched (the
    // signature's inner disjunction is empty, so the language is empty).
    if out
        .iter()
        .any(|&e| typing.types_of(graph.target(e)).is_empty())
    {
        return Some(false);
    }
    if let Some(rbe0) = scratch.rbe0s[t.index()].as_ref() {
        let atoms = rbe0.atoms();
        if let Some(ok) = rbe0_flow_satisfies(
            &mut scratch.flow,
            &mut scratch.source_edges,
            &mut out.iter().map(|&e| graph.occur(e).singleton().unwrap_or(1)),
            atoms,
            &|edge, u| {
                let e = out[edge];
                let (atom, _) = &atoms[u];
                atom.label == *graph.label(e)
                    && typing.types_of(graph.target(e)).contains(&atom.target)
            },
        ) {
            return Some(ok);
        }
    }
    // General path (rare): fall back to the materialised edge summaries and
    // the Presburger encoding.
    let edges: Vec<EdgeSummary> = out
        .iter()
        .map(|&e| EdgeSummary {
            label: graph.label(e).clone(),
            target_types: typing.types_of(graph.target(e)).clone(),
            multiplicity: graph.occur(e).singleton().unwrap_or(1),
        })
        .collect();
    neighbourhood_satisfies_with(&edges, schema.def(t), None, cancel)
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
    let edges: Vec<EdgeSummary> = graph
        .out(node)
        .iter()
        .map(|&e| EdgeSummary {
            label: graph.label(e).clone(),
            target_types: typing.types_of(graph.target(e)).clone(),
            multiplicity: graph.occur(e).singleton().unwrap_or(1),
        })
        .collect();
    neighbourhood_satisfies(&edges, schema.def(t))
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
            atoms,
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
    use shapex_graph::parse_graph;
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
        // restore types, which is why the affected region re-expands.
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

    #[test]
    fn fired_cancel_aborts_typing_and_poisons_incremental_state() {
        let schema = parse_schema(FIG1_SCHEMA).unwrap();
        let mut graph = parse_graph(FIG1_GRAPH).unwrap();

        // A pre-fired flag aborts the fixpoint before any sweep completes.
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
