//! Systematic unfolding of schemas into member graphs.
//!
//! The counter-example searches of [`crate::shex0`] and [`crate::general`]
//! need candidate graphs drawn from `L(H)`. An *unfolding* instantiates a type
//! as a tree: a bag of outgoing edges accepted by the type definition, with a
//! recursively unfolded subtree per edge. Repetition under unbounded intervals
//! is enumerated with small counts (`*` as 0, 1 or 2; `+` as 1 or 2), which is
//! exactly the granularity the containment arguments of the paper rely on
//! (distinguishing 0, 1, and "more than one").
//!
//! # The candidate arena
//!
//! Trees live in a [`TreeArena`]: a [`Tree`] is an index, a node is its
//! [`TypeId`] plus a child range into one flat child table, and nodes are
//! *hash-consed* — structurally identical subtrees (same type, same labelled
//! children) get the same index no matter where the enumeration encounters
//! them. An [`Unfolder`] drives enumeration over one arena and memoises
//! everything by construction key: candidate bags per type, enumerated tree
//! lists per `(type, depth)`, and one shared [`Graph`] per distinct tree. The
//! depth-cumulative searches of the containment engine re-encounter the same
//! subtrees at every depth and in every Cartesian combination; the arena
//! makes each of them exist — and each candidate graph get built — exactly
//! once. The engine keeps one unfolder per registered schema and takes its
//! search pools straight from it.
//!
//! Every tree is a member of `L(schema)` by construction. The unfolder
//! keeps only the candidate bags its type's definition accepts (each bag is
//! checked once, when the type's bags are memoised), so every node's bag of
//! `(label, child type)` atoms is accepted by its type's definition: the
//! typing that assigns every node its construction type is valid, and the
//! maximal typing is total. The pools therefore need no validation against
//! the schema they are unfolded from.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use shapex_graph::{Graph, Label};
use shapex_presburger::CancelToken;
use shapex_rbe::{Bag, Interval, Rbe};
use shapex_shex::typing::{neighbourhood_satisfies_with, EdgeSummary, SolverTelemetry};
use shapex_shex::{Atom, Schema, TypeId};

/// Budget knobs for unfolding-based searches.
#[derive(Debug, Clone)]
pub struct SearchOptions {
    /// Maximum depth of enumerated unfoldings.
    pub max_depth: usize,
    /// Maximum number of candidate bags kept per expression node.
    pub max_bags: usize,
    /// Maximum number of trees kept per `(type, depth)` pair.
    pub max_trees: usize,
    /// Maximum number of nodes in a single candidate graph.
    pub max_graph_nodes: usize,
    /// Maximum number of candidate graphs examined in total.
    pub max_candidates: usize,
}

impl Default for SearchOptions {
    fn default() -> Self {
        SearchOptions {
            max_depth: 4,
            max_bags: 24,
            max_trees: 48,
            max_graph_nodes: 600,
            max_candidates: 4_000,
        }
    }
}

impl SearchOptions {
    /// A smaller budget for quick checks in tests and benchmarks.
    pub fn quick() -> SearchOptions {
        SearchOptions {
            max_depth: 3,
            max_bags: 12,
            max_trees: 16,
            max_graph_nodes: 200,
            max_candidates: 600,
        }
    }
}

/// A 64-bit structural hash via the std hasher (stable within a process,
/// which is all the bag deduplication's verify-on-collision lookups need).
fn hash_of(value: impl Hash) -> u64 {
    let mut hasher = DefaultHasher::new();
    value.hash(&mut hasher);
    hasher.finish()
}

/// An unfolded instance of a type, as an index into a [`TreeArena`].
///
/// Indices are only meaningful for the arena that created them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tree(u32);

impl Tree {
    /// The position of the tree's root node in its arena.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One arena node: the instantiated type plus a child range into the arena's
/// flat child table.
#[derive(Debug, Clone, Copy)]
struct TreeNode {
    type_id: TypeId,
    child_start: u32,
    child_end: u32,
}

/// The hash-consing tree store behind [`Unfolder`]; see the
/// [module docs](self) for the design.
#[derive(Debug, Default)]
pub struct TreeArena {
    nodes: Vec<TreeNode>,
    children: Vec<(Label, Tree)>,
    /// Structural hash per node (type + labelled child indices).
    hashes: Vec<u64>,
    /// Subtree node count per node, cached at construction.
    sizes: Vec<u64>,
    /// Hash-consing buckets: structural hash → node indices (verified by
    /// full comparison, so a collision can never conflate distinct trees).
    dedup: HashMap<u64, Vec<u32>>,
}

impl TreeArena {
    /// An empty arena.
    pub fn new() -> TreeArena {
        TreeArena::default()
    }

    /// Number of distinct trees interned.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the arena is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Approximate heap footprint of the arena in bytes: the flat node and
    /// child tables, the per-node caches, and the hash-consing buckets.
    /// Labels count as their `Arc` handle only. An estimate for the
    /// engine's cache accounting, not allocator truth.
    pub fn approx_heap_bytes(&self) -> usize {
        use std::mem::size_of;
        // Amortised hash-map bucket overhead per entry.
        const MAP_ENTRY: usize = 48;
        self.nodes.capacity() * size_of::<TreeNode>()
            + self.children.capacity() * size_of::<(Label, Tree)>()
            + self.hashes.capacity() * size_of::<u64>()
            + self.sizes.capacity() * size_of::<u64>()
            + self
                .dedup
                .values()
                .map(|bucket| MAP_ENTRY + bucket.capacity() * size_of::<u32>())
                .sum::<usize>()
    }

    /// The type a tree's root instantiates.
    pub fn type_of(&self, tree: Tree) -> TypeId {
        self.nodes[tree.index()].type_id
    }

    /// The labelled children of a tree's root.
    pub fn children(&self, tree: Tree) -> &[(Label, Tree)] {
        let node = self.nodes[tree.index()];
        &self.children[node.child_start as usize..node.child_end as usize]
    }

    /// Number of nodes in the tree (cached; O(1)).
    pub fn size(&self, tree: Tree) -> usize {
        self.sizes[tree.index()] as usize
    }

    /// Intern a tree with the given root type and labelled children
    /// (children must already live in this arena). Structurally identical
    /// trees share one index.
    pub fn node(&mut self, t: TypeId, children: &[(Label, Tree)]) -> Tree {
        let mut hasher = DefaultHasher::new();
        t.hash(&mut hasher);
        for (label, child) in children {
            label.hash(&mut hasher);
            self.hashes[child.index()].hash(&mut hasher);
        }
        let hash = hasher.finish();
        if let Some(bucket) = self.dedup.get(&hash) {
            for &index in bucket {
                let node = self.nodes[index as usize];
                if node.type_id == t
                    && &self.children[node.child_start as usize..node.child_end as usize]
                        == children
                {
                    return Tree(index);
                }
            }
        }
        let size = 1 + children
            .iter()
            .map(|&(_, c)| self.sizes[c.index()])
            .sum::<u64>();
        let child_start = self.children.len() as u32;
        self.children.extend_from_slice(children);
        let child_end = self.children.len() as u32;
        let index = self.nodes.len() as u32;
        self.nodes.push(TreeNode {
            type_id: t,
            child_start,
            child_end,
        });
        self.hashes.push(hash);
        self.sizes.push(size);
        self.dedup.entry(hash).or_default().push(index);
        Tree(index)
    }

    /// Materialise the tree as a simple graph rooted at a node of its type
    /// (node names are `Type_counter` in preorder, the historical layout the
    /// oracle suites compare witnesses by), each name rendered straight into
    /// the graph's name arena.
    pub fn to_graph(&self, tree: Tree, schema: &Schema) -> Graph {
        let size = self.size(tree);
        let mut graph = Graph::with_capacity(size, size.saturating_sub(1));
        let mut counter = 0usize;
        self.add_to(tree, &mut graph, schema, &mut counter);
        graph
    }

    fn add_to(
        &self,
        tree: Tree,
        graph: &mut Graph,
        schema: &Schema,
        counter: &mut usize,
    ) -> shapex_graph::NodeId {
        let id = graph.add_named_node(format_args!(
            "{}_{}",
            schema.type_name(self.type_of(tree)),
            *counter
        ));
        *counter += 1;
        let node = self.nodes[tree.index()];
        for child_slot in node.child_start..node.child_end {
            let (label, child) = self.children[child_slot as usize].clone();
            let child_id = self.add_to(child, graph, schema, counter);
            graph.add_edge(id, label, child_id);
        }
        id
    }
}

/// A memoising unfolding session over one schema and one search budget.
///
/// All memo tables are keyed by construction inputs ([`TypeId`], depth), so
/// an `Unfolder` must only ever be used with the schema and
/// [`SearchOptions`] bag/tree caps it first saw — the containment engine
/// keeps one per registered schema (whose budget is fixed for the engine's
/// lifetime), the one-shot wrappers build a throwaway one per call.
#[derive(Debug, Default)]
pub struct Unfolder {
    arena: TreeArena,
    /// `(root type, depth) → enumerated trees` (shared, capped at
    /// `max_trees`).
    enumerated: HashMap<(TypeId, usize), Arc<Vec<Tree>>>,
    /// Accepted candidate bags per type (depth-independent).
    bags: HashMap<TypeId, Arc<Vec<Bag<Atom>>>>,
    /// One graph per distinct tree, built on first demand.
    graphs: Vec<Option<Arc<Graph>>>,
    /// How many of `graphs` are built.
    built: usize,
    /// Where the bag checks' solver calls are counted (`None` drops the
    /// counts).
    telemetry: Option<Arc<SolverTelemetry>>,
}

impl Unfolder {
    /// An empty session that counts no solver calls.
    pub fn new() -> Unfolder {
        Unfolder::default()
    }

    /// An empty session whose bag checks count their solver calls in
    /// `telemetry` — the engine passes its own, so every schema's unfolder
    /// reports to one set of counters.
    pub fn with_telemetry(telemetry: Arc<SolverTelemetry>) -> Unfolder {
        Unfolder {
            telemetry: Some(telemetry),
            ..Unfolder::default()
        }
    }

    /// Approximate heap footprint of the whole unfolding session in bytes:
    /// the tree arena, the enumerated-tree and candidate-bag memos, and
    /// every candidate graph built so far (graphs are `Arc`-shared with the
    /// pools holding them; each holder accounts its own view, so session
    /// totals over-estimate the true resident set). An estimate for the
    /// engine's cache accounting, not allocator truth.
    pub fn approx_heap_bytes(&self) -> usize {
        use std::mem::size_of;
        const MAP_ENTRY: usize = 48;
        let mut bytes = self.arena.approx_heap_bytes();
        bytes += self
            .enumerated
            .values()
            .map(|trees| MAP_ENTRY + trees.capacity() * size_of::<Tree>())
            .sum::<usize>();
        bytes += self
            .bags
            .values()
            .map(|bags| {
                MAP_ENTRY
                    + bags
                        .iter()
                        .map(|bag| bag.iter().count() * (size_of::<(Atom, u64)>() + 32))
                        .sum::<usize>()
            })
            .sum::<usize>();
        bytes += self.graphs.capacity() * size_of::<Option<Arc<Graph>>>();
        bytes += self
            .graphs
            .iter()
            .flatten()
            .map(|g| size_of::<Graph>() + g.approx_heap_bytes())
            .sum::<usize>();
        bytes
    }

    /// The underlying tree arena.
    pub fn arena(&self) -> &TreeArena {
        &self.arena
    }

    /// A count that grows whenever a memo of this session grows — a tree
    /// interned, a `(type, depth)` enumeration or a type's bags memoised, a
    /// graph built — so an unchanged count means an unchanged
    /// [`Unfolder::approx_heap_bytes`].
    pub(crate) fn extent(&self) -> usize {
        self.arena.len() + self.enumerated.len() + self.bags.len() + self.graphs.len() + self.built
    }

    /// Whether the trees of `(t, depth)` are already enumerated, so asking
    /// for them again costs a lookup.
    pub(crate) fn holds(&self, t: TypeId, depth: usize) -> bool {
        self.enumerated.contains_key(&(t, depth))
    }

    /// The candidate bags of a type that its definition accepts, in
    /// [`candidate_bags`] order, memoised per type. Each bag is checked
    /// once, here, so every tree built from these bags is a member of
    /// `L(schema)`. The checks count their solver calls in the session's
    /// telemetry. `cancel` is polled before each check and inside it: a
    /// token that fires returns `None` and memoises nothing for the type.
    fn type_bags(
        &mut self,
        schema: &Schema,
        t: TypeId,
        options: &SearchOptions,
        cancel: Option<&CancelToken>,
    ) -> Option<Arc<Vec<Bag<Atom>>>> {
        if let Some(bags) = self.bags.get(&t) {
            return Some(bags.clone());
        }
        let def = schema.def(t);
        let mut accepted = Vec::new();
        for bag in candidate_bags(def, options) {
            if cancel.is_some_and(|c| c.fired()) {
                return None;
            }
            let edges: Vec<EdgeSummary> = bag
                .iter()
                .map(|(atom, count)| EdgeSummary {
                    label: atom.label.clone(),
                    target_types: std::iter::once(atom.target).collect(),
                    multiplicity: count,
                })
                .collect();
            if neighbourhood_satisfies_with(&edges, def, self.telemetry.as_deref(), cancel)? {
                accepted.push(bag);
            }
        }
        let accepted = Arc::new(accepted);
        self.bags.insert(t, accepted.clone());
        Some(accepted)
    }

    /// Enumerate unfoldings of `t` up to `depth`, memoised per
    /// `(type, depth)`. Order and caps are exactly those of the historical
    /// enumeration: bags in [`candidate_bags`] order, Cartesian child
    /// combinations (at most 4 subtree choices per slot), `max_trees` total.
    /// `cancel` is polled once per candidate bag and inside every bag
    /// check: a cancelled call returns `None` and memoises nothing for the
    /// interrupted `(type, depth)` pairs — already-completed child
    /// enumerations stay cached, so a later call resumes without redundant
    /// work and produces the identical tree list.
    pub fn trees(
        &mut self,
        schema: &Schema,
        t: TypeId,
        depth: usize,
        options: &SearchOptions,
        cancel: Option<&CancelToken>,
    ) -> Option<Arc<Vec<Tree>>> {
        if let Some(trees) = self.enumerated.get(&(t, depth)) {
            return Some(trees.clone());
        }
        let bags = self.type_bags(schema, t, options, cancel)?;
        let mut out: Vec<Tree> = Vec::new();
        'bags: for bag in bags.iter() {
            if cancel.is_some_and(|c| c.fired()) {
                return None;
            }
            if depth == 0 && !bag.is_empty() {
                continue;
            }
            // For every atom occurrence, enumerate child trees; combine by
            // taking the Cartesian product capped at max_trees. Children are
            // arena indices, so a combination clones a few words per slot
            // instead of whole subtrees.
            let mut combos: Vec<Vec<(Label, Tree)>> = vec![Vec::new()];
            let mut dead = false;
            for (atom, count) in bag.iter() {
                let child_trees = self.trees(
                    schema,
                    atom.target,
                    depth.saturating_sub(1),
                    options,
                    cancel,
                )?;
                if child_trees.is_empty() {
                    dead = true;
                    break;
                }
                for _ in 0..count {
                    let mut next = Vec::new();
                    for prefix in &combos {
                        for &child in child_trees.iter().take(4) {
                            let mut extended = prefix.clone();
                            extended.push((atom.label.clone(), child));
                            next.push(extended);
                            if next.len() >= options.max_trees {
                                break;
                            }
                        }
                        if next.len() >= options.max_trees {
                            break;
                        }
                    }
                    combos = next;
                }
            }
            if dead {
                continue;
            }
            for children in combos {
                out.push(self.arena.node(t, &children));
                if out.len() >= options.max_trees {
                    break 'bags;
                }
            }
        }
        let out = Arc::new(out);
        self.enumerated.insert((t, depth), out.clone());
        Some(out)
    }

    /// The shared graph of a tree, built once per distinct tree.
    pub fn graph(&mut self, tree: Tree, schema: &Schema) -> Arc<Graph> {
        if self.graphs.len() < self.arena.len() {
            self.graphs.resize(self.arena.len(), None);
        }
        if let Some(graph) = &self.graphs[tree.index()] {
            return graph.clone();
        }
        let graph = Arc::new(self.arena.to_graph(tree, schema));
        self.graphs[tree.index()] = Some(graph.clone());
        self.built += 1;
        graph
    }

    /// Enumerate member graphs of `root` up to `options.max_depth`; see
    /// [`enumerate_members`] for the contract. `cancel` is polled once per
    /// enumerated tree: a cancelled call returns `None`, and a caller must
    /// not cache its (partial) pool. Every memo the call did complete —
    /// child enumerations, interned trees, built graphs — is identical to
    /// what an uncancelled prefix would have left behind.
    pub fn members(
        &mut self,
        schema: &Schema,
        root: TypeId,
        options: &SearchOptions,
        cancel: Option<&CancelToken>,
    ) -> Option<Vec<Arc<Graph>>> {
        let trees = self.trees(schema, root, options.max_depth, options, cancel)?;
        let mut graphs = Vec::new();
        for &tree in trees.iter() {
            if cancel.is_some_and(|c| c.fired()) {
                return None;
            }
            if self.arena.size(tree) > options.max_graph_nodes {
                continue;
            }
            graphs.push(self.graph(tree, schema));
            if graphs.len() >= options.max_candidates {
                break;
            }
        }
        Some(graphs)
    }
}

/// First-occurrence-order deduplication of bags by hash, with full equality
/// verified on every bucket hit (a collision can only cost a comparison,
/// never conflate distinct bags). Replaces the historical `Vec::contains`
/// scans, which re-compared every accumulated bag per insertion.
#[derive(Default)]
struct BagDedup {
    buckets: HashMap<u64, Vec<usize>>,
}

impl BagDedup {
    /// Append `bag` to `out` unless an equal bag is already there; returns
    /// whether the bag was new.
    fn insert(&mut self, out: &mut Vec<Bag<Atom>>, bag: Bag<Atom>) -> bool {
        let bucket = self.buckets.entry(hash_of(&bag)).or_default();
        if bucket.iter().any(|&i| out[i] == bag) {
            return false;
        }
        bucket.push(out.len());
        out.push(bag);
        true
    }
}

/// Enumerate up to `options.max_bags` bags accepted by the expression, using
/// small repetition counts for unbounded intervals.
pub fn candidate_bags(expr: &Rbe<Atom>, options: &SearchOptions) -> Vec<Bag<Atom>> {
    let mut out = enumerate_bags(expr, options.max_bags);
    out.truncate(options.max_bags);
    out
}

fn enumerate_bags(expr: &Rbe<Atom>, limit: usize) -> Vec<Bag<Atom>> {
    match expr {
        Rbe::Epsilon => vec![Bag::new()],
        Rbe::Symbol(atom) => vec![Bag::from_symbols([atom.clone()])],
        Rbe::Disj(parts) => {
            let mut out: Vec<Bag<Atom>> = Vec::new();
            let mut seen = BagDedup::default();
            for p in parts {
                for bag in enumerate_bags(p, limit) {
                    seen.insert(&mut out, bag);
                    if out.len() >= limit {
                        return out;
                    }
                }
            }
            out
        }
        Rbe::Concat(parts) => {
            let mut out: Vec<Bag<Atom>> = vec![Bag::new()];
            for p in parts {
                let options = enumerate_bags(p, limit);
                let mut next = Vec::new();
                for prefix in &out {
                    for bag in &options {
                        next.push(prefix.union(bag));
                        if next.len() >= limit {
                            break;
                        }
                    }
                    if next.len() >= limit {
                        break;
                    }
                }
                out = next;
            }
            out
        }
        Rbe::Repeat(inner, interval) => {
            let counts = repetition_counts(*interval);
            let inner_bags = enumerate_bags(inner, limit);
            let mut out: Vec<Bag<Atom>> = Vec::new();
            let mut seen = BagDedup::default();
            for n in counts {
                // n-fold unions of inner bags (diagonal + a few mixes).
                let mut partial: Vec<Bag<Atom>> = vec![Bag::new()];
                for _ in 0..n {
                    let mut next = Vec::new();
                    for prefix in &partial {
                        for bag in &inner_bags {
                            next.push(prefix.union(bag));
                            if next.len() >= limit {
                                break;
                            }
                        }
                        if next.len() >= limit {
                            break;
                        }
                    }
                    partial = next;
                }
                for bag in partial {
                    seen.insert(&mut out, bag);
                    if out.len() >= limit {
                        return out;
                    }
                }
            }
            out
        }
    }
}

/// Exhaustively enumerate the language of a shape expression as a set of
/// bags, or `None` when the language has more than `limit` bags or is
/// infinite (some repetition interval is unbounded or very wide).
///
/// Unlike [`candidate_bags`], which keeps a bounded selection, a `Some`
/// answer here is a complete listing of `L(expr)`; the sufficient
/// containment check of `crate::general` relies on that completeness.
pub fn all_bags(expr: &Rbe<Atom>, limit: usize) -> Option<Vec<Bag<Atom>>> {
    match expr {
        Rbe::Epsilon => Some(vec![Bag::new()]),
        Rbe::Symbol(atom) => Some(vec![Bag::from_symbols([atom.clone()])]),
        Rbe::Disj(parts) => {
            let mut out: Vec<Bag<Atom>> = Vec::new();
            let mut seen = BagDedup::default();
            for p in parts {
                for bag in all_bags(p, limit)? {
                    seen.insert(&mut out, bag);
                    if out.len() > limit {
                        return None;
                    }
                }
            }
            Some(out)
        }
        Rbe::Concat(parts) => {
            let mut out: Vec<Bag<Atom>> = vec![Bag::new()];
            for p in parts {
                let choices = all_bags(p, limit)?;
                let mut next = Vec::new();
                let mut seen = BagDedup::default();
                for prefix in &out {
                    for bag in &choices {
                        seen.insert(&mut next, prefix.union(bag));
                        if next.len() > limit {
                            return None;
                        }
                    }
                }
                out = next;
            }
            Some(out)
        }
        Rbe::Repeat(inner, interval) => {
            let hi = interval.hi()?;
            let lo = interval.lo();
            if hi - lo > 8 || hi > 16 {
                return None;
            }
            let inner_bags = all_bags(inner, limit)?;
            let mut out: Vec<Bag<Atom>> = Vec::new();
            let mut seen = BagDedup::default();
            for n in lo..=hi {
                let mut partial: Vec<Bag<Atom>> = vec![Bag::new()];
                for _ in 0..n {
                    let mut next = Vec::new();
                    let mut seen_partial = BagDedup::default();
                    for prefix in &partial {
                        for bag in &inner_bags {
                            seen_partial.insert(&mut next, prefix.union(bag));
                            if next.len() > limit {
                                return None;
                            }
                        }
                    }
                    partial = next;
                }
                for bag in partial {
                    seen.insert(&mut out, bag);
                    if out.len() > limit {
                        return None;
                    }
                }
            }
            Some(out)
        }
    }
}

/// The repetition counts explored under an interval: enough to distinguish
/// "absent", "exactly one" and "more than one".
fn repetition_counts(interval: Interval) -> Vec<u64> {
    let lo = interval.lo();
    match interval.hi() {
        None => {
            if lo == 0 {
                vec![0, 1, 2]
            } else {
                vec![lo, lo + 1]
            }
        }
        Some(hi) => {
            let mut counts = vec![lo];
            if hi > lo {
                counts.push(lo + 1);
            }
            if hi > lo + 1 && hi <= lo + 4 {
                counts.push(hi);
            }
            counts
        }
    }
}

/// Enumerate unfoldings of `root` up to the configured depth. Every node's
/// bag is one its type's definition accepts, and only trees whose leaves are
/// "closed" (every type at the frontier admits the empty bag) are produced,
/// so every returned tree's graph belongs to `L(schema)`.
pub fn enumerate_members(schema: &Schema, root: TypeId, options: &SearchOptions) -> Vec<Graph> {
    Unfolder::new()
        .members(schema, root, options, None)
        .expect("an uncancelled enumeration cannot be cancelled")
        .into_iter()
        .map(|graph| Graph::clone(&graph))
        .collect()
}

/// Search for a counter-example to `L(h) ⊆ L(k)`: a graph that validates
/// against `h` but not against `k`. The systematic unfoldings of every root
/// are tried depth by depth. Any returned graph is certified by
/// re-validation.
///
/// This is the one-shot entry point: it runs through a throwaway
/// [`crate::engine::ContainmentEngine`], so a single call already shares
/// unfolded trees and candidate graphs across the depth-cumulative pools
/// and validates each distinct candidate once. Callers issuing many queries
/// over the same schemas should hold an engine instead — its query methods
/// take `&self` over concurrent caches, so one engine can even be shared
/// across threads. The candidate
/// order (and therefore the returned witness) is that of
/// [`crate::baseline::search_counter_example_baseline`], the retained
/// memo-free reference.
pub fn search_counter_example(h: &Schema, k: &Schema, options: &SearchOptions) -> Option<Graph> {
    crate::engine::ContainmentEngine::with_search(options.clone()).counter_example(h, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use shapex_rbe::membership::naive_member;
    use shapex_shex::parse_schema;
    use shapex_shex::typing::validates;

    #[test]
    fn candidate_bags_cover_interval_choices() {
        let schema = parse_schema("T -> a::L?, b::L*, c::L\nL -> EMPTY\n").unwrap();
        let t = schema.find_type("T").unwrap();
        let bags = candidate_bags(schema.def(t), &SearchOptions::default());
        // a ∈ {0,1}, b ∈ {0,1,2}, c = 1 — up to 6 combinations (capped).
        assert!(bags.len() >= 4);
        let l = schema.find_type("L").unwrap();
        let a = Atom::new("a", l);
        let b = Atom::new("b", l);
        let c = Atom::new("c", l);
        assert!(bags.iter().all(|bag| bag.count(&c) == 1));
        assert!(bags.iter().any(|bag| bag.count(&a) == 0));
        assert!(bags.iter().any(|bag| bag.count(&a) == 1));
        assert!(bags.iter().any(|bag| bag.count(&b) == 2));
    }

    #[test]
    fn candidate_bags_handle_disjunction() {
        let schema = parse_schema("T -> p::L | q::L\nL -> EMPTY\n").unwrap();
        let t = schema.find_type("T").unwrap();
        let bags = candidate_bags(schema.def(t), &SearchOptions::default());
        assert_eq!(bags.len(), 2);
        assert!(bags.iter().all(|b| b.total() == 1));
    }

    #[test]
    fn enumerated_members_validate() {
        let schema =
            parse_schema("Root -> children::Item*\nItem -> tag::Leaf?\nLeaf -> EMPTY\n").unwrap();
        let root = schema.find_type("Root").unwrap();
        let graphs = enumerate_members(&schema, root, &SearchOptions::quick());
        assert!(!graphs.is_empty());
        for g in &graphs {
            assert!(validates(g, &schema));
        }
        // Both the with-tag and without-tag items appear somewhere.
        assert!(graphs.iter().any(|g| g.edge_count() >= 2));
        assert!(graphs.iter().any(|g| g.node_count() == 1), "the empty Root");
    }

    #[test]
    fn arena_shares_subtrees_and_certifies_members() {
        let schema =
            parse_schema("Root -> children::Item*\nItem -> tag::Leaf?\nLeaf -> EMPTY\n").unwrap();
        let root = schema.find_type("Root").unwrap();
        let item = schema.find_type("Item").unwrap();
        let mut unfolder = Unfolder::new();
        let deep = unfolder
            .trees(&schema, root, 3, &SearchOptions::quick(), None)
            .unwrap();
        let arena_after_deep = unfolder.arena().len();
        // The shallow enumeration re-encounters only already-interned trees.
        let shallow = unfolder
            .trees(&schema, item, 2, &SearchOptions::quick(), None)
            .unwrap();
        assert!(!shallow.is_empty());
        assert_eq!(
            unfolder.arena().len(),
            arena_after_deep,
            "depth-2 item trees were all interned during the depth-3 root pass"
        );
        // Every enumerated tree is a member, and its cached graph is
        // shared: asking twice returns the same allocation.
        for &tree in deep.iter().chain(shallow.iter()) {
            let g1 = unfolder.graph(tree, &schema);
            assert!(validates(&g1, &schema));
            let g2 = unfolder.graph(tree, &schema);
            assert!(Arc::ptr_eq(&g1, &g2), "one graph per distinct tree");
            assert_eq!(g1.node_count(), unfolder.arena().size(tree));
        }
    }

    #[test]
    fn trees_carry_the_schema_interned_labels() {
        let schema =
            parse_schema("Root -> children::Item*\nItem -> tag::Leaf?\nLeaf -> EMPTY\n").unwrap();
        let root = schema.find_type("Root").unwrap();
        let schema_label = schema.def(root).to_rbe0().unwrap().atoms()[0]
            .0
            .label
            .clone();
        let mut unfolder = Unfolder::new();
        let trees = unfolder
            .trees(&schema, root, 2, &SearchOptions::quick(), None)
            .unwrap();
        let mut edges_seen = 0;
        for &tree in trees.iter() {
            for (label, _) in unfolder.arena().children(tree) {
                assert!(
                    label.ptr_eq(&schema_label),
                    "tree edges must share the schema's label allocation"
                );
                edges_seen += 1;
            }
        }
        // And the graphs built from the trees adopt the allocation: no label
        // text is copied per edge in `to_graph`.
        for &tree in trees.iter() {
            let g = unfolder.graph(tree, &schema);
            for e in g.edges() {
                if g.label(e).as_str() == "children" {
                    assert!(g.label(e).ptr_eq(&schema_label));
                }
            }
        }
        assert!(edges_seen > 0, "some tree has a children edge");
    }

    #[test]
    fn mandatory_cycles_cannot_be_unfolded() {
        // T requires a p-edge to another T: no finite tree can close it.
        let schema = parse_schema("T -> p::T\n").unwrap();
        let t = schema.find_type("T").unwrap();
        let graphs = enumerate_members(&schema, t, &SearchOptions::quick());
        assert!(graphs.is_empty());
    }

    #[test]
    fn search_finds_counter_example_for_obvious_non_containment() {
        // h allows an optional q-edge that k forbids: a node carrying both p
        // and q validates h only.
        let h = parse_schema("A -> p::L, q::L?\nL -> EMPTY\n").unwrap();
        let k = parse_schema("A -> p::L\nL -> EMPTY\n").unwrap();
        let witness = search_counter_example(&h, &k, &SearchOptions::quick()).unwrap();
        assert!(validates(&witness, &h));
        assert!(!validates(&witness, &k));
        // The converse containment holds, so no counter-example is found.
        assert!(search_counter_example(&k, &h, &SearchOptions::quick()).is_none());
    }

    #[test]
    fn a_fired_token_stops_the_bag_checks_and_memoises_nothing() {
        // Choice groups are outside RBE₀, so each bag check of `T` runs the
        // Presburger encoding, the check the token bounds.
        let schema =
            parse_schema("T -> (a::L | b::L)[1;2], (c::L | d::L)[1;2]\nL -> EMPTY\n").unwrap();
        let t = schema.find_type("T").unwrap();
        let options = SearchOptions::quick();
        let fired = CancelToken::new();
        fired.cancel();
        let mut unfolder = Unfolder::new();
        assert!(unfolder
            .trees(&schema, t, 2, &options, Some(&fired))
            .is_none());
        assert_eq!(unfolder.extent(), 0, "a cancelled check memoises nothing");
        let resumed = unfolder.trees(&schema, t, 2, &options, None).unwrap();
        let mut fresh = Unfolder::new();
        let expected = fresh.trees(&schema, t, 2, &options, None).unwrap();
        assert!(!expected.is_empty());
        assert_eq!(resumed, expected);
        for (&a, &b) in resumed.iter().zip(expected.iter()) {
            let (got, want) = (unfolder.graph(a, &schema), fresh.graph(b, &schema));
            assert_eq!(got.to_string(), want.to_string());
        }
        assert_eq!(unfolder.extent(), fresh.extent());
    }

    /// A random shape expression of at most `depth` levels over `atoms`,
    /// with disjunctions, nested concatenations and repeated groups. The
    /// intervals include two where `repetition_counts` picks the upper bound
    /// (`[0;2]`, `[2;6]`) and two where it does not (`[1;2]`, `[2;3]`).
    fn random_expr(rng: &mut StdRng, depth: u32, atoms: &[Atom]) -> Rbe<Atom> {
        let kind = if depth == 0 { 0 } else { rng.gen_range(0..4) };
        let mut parts = || -> Vec<Rbe<Atom>> {
            (0..rng.gen_range(2..=3))
                .map(|_| random_expr(rng, depth - 1, atoms))
                .collect()
        };
        match kind {
            // One pick in `atoms.len() + 1` is the empty expression.
            0 => atoms
                .get(rng.gen_range(0..=atoms.len()))
                .map_or(Rbe::Epsilon, |atom| Rbe::Symbol(atom.clone())),
            1 => Rbe::Disj(parts()),
            2 => Rbe::Concat(parts()),
            _ => {
                let intervals = [
                    Interval::bounded(0, 2),
                    Interval::bounded(1, 2),
                    Interval::bounded(2, 3),
                    Interval::bounded(2, 6),
                    Interval::STAR,
                    Interval::PLUS,
                ];
                let interval = intervals[rng.gen_range(0..intervals.len())];
                Rbe::repeat(random_expr(rng, depth - 1, atoms), interval)
            }
        }
    }

    /// The largest bag total the enumerators pick from `expr` (an unbounded
    /// repetition is unfolded at most twice).
    fn widest(expr: &Rbe<Atom>) -> u64 {
        match expr {
            Rbe::Epsilon => 0,
            Rbe::Symbol(_) => 1,
            Rbe::Disj(parts) => parts.iter().map(widest).max().unwrap_or(0),
            Rbe::Concat(parts) => parts.iter().map(widest).sum(),
            Rbe::Repeat(inner, interval) => widest(inner) * interval.hi().unwrap_or(2),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Every bag the enumerators pick is a member of its expression, by
        /// the exhaustive oracle, which shares no code with them. The bag
        /// check of `Unfolder` would otherwise drop a bag silently.
        #[test]
        fn candidate_bags_are_members_of_their_expression(seed in 0u64..100_000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let atoms = [
                Atom::new("a", TypeId(0)),
                Atom::new("b", TypeId(0)),
                Atom::new("a", TypeId(1)),
            ];
            // Small bags keep the oracle fast.
            let expr = loop {
                let expr = random_expr(&mut rng, 3, &atoms);
                if widest(&expr) <= 8 {
                    break expr;
                }
            };
            for options in [SearchOptions::default(), SearchOptions::quick()] {
                for bag in candidate_bags(&expr, &options) {
                    prop_assert!(naive_member(&bag, &expr), "{bag} from {expr:?}");
                }
            }
            for bag in all_bags(&expr, 64).into_iter().flatten() {
                prop_assert!(naive_member(&bag, &expr), "{bag} from {expr:?}");
            }
        }
    }
}
