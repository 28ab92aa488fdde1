//! The graph data structure and its subclasses.

use std::borrow::Borrow;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

use shapex_rbe::{Bag, Interval};

/// An edge label (predicate name from the fixed alphabet `Σ`).
///
/// Labels are reference-counted strings: cloning is cheap and equality is by
/// content, so labels created independently by a graph and a schema still
/// compare equal.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Label(Arc<str>);

impl Label {
    /// Create a label from a string.
    pub fn new(name: impl AsRef<str>) -> Label {
        Label(Arc::from(name.as_ref()))
    }

    /// The label text.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Whether two labels share one backing allocation (i.e. were interned
    /// together). Content equality is plain `==`; this only observes
    /// sharing, e.g. in tests of the interning paths.
    pub fn ptr_eq(&self, other: &Label) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl From<&str> for Label {
    fn from(s: &str) -> Self {
        Label::new(s)
    }
}

impl From<String> for Label {
    fn from(s: String) -> Self {
        Label::new(s)
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl Borrow<str> for Label {
    fn borrow(&self) -> &str {
        &self.0
    }
}

/// A dense identifier for an interned label, valid for the graph that
/// created it.
///
/// Every [`Graph`] interns the labels of its edges on construction, so label
/// comparisons inside hot loops (simulation, validation) are integer compares
/// instead of string equality. Ids are assigned in order of first use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LabelId(pub u32);

impl LabelId {
    /// The position of the label in the graph's label table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for LabelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

/// An optional interner that deduplicates the backing storage of labels.
///
/// Not required for correctness — labels compare by content — but convenient
/// when building large graphs with a small predicate alphabet. A containment
/// engine keeps one, so every schema registered with it shares one
/// allocation per predicate.
#[derive(Debug, Default, Clone)]
pub struct LabelTable {
    known: BTreeMap<String, Label>,
}

impl LabelTable {
    /// An empty table.
    pub fn new() -> LabelTable {
        LabelTable::default()
    }

    /// Intern a label, reusing the existing allocation if present.
    pub fn intern(&mut self, name: &str) -> Label {
        if let Some(existing) = self.known.get(name) {
            return existing.clone();
        }
        let label = Label::new(name);
        self.known.insert(name.to_owned(), label.clone());
        label
    }

    /// Register an already-allocated label, reusing the table's existing
    /// allocation when one is present and adopting `label`'s otherwise
    /// (unlike [`LabelTable::intern`], which would allocate afresh).
    pub fn adopt(&mut self, label: &Label) -> Label {
        if let Some(existing) = self.known.get(label.as_str()) {
            return existing.clone();
        }
        self.known.insert(label.as_str().to_owned(), label.clone());
        label.clone()
    }

    /// The number of distinct labels interned.
    pub fn len(&self) -> usize {
        self.known.len()
    }

    /// Whether no label has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.known.is_empty()
    }

    /// Iterate over the interned `(name, label)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Label)> {
        self.known.iter()
    }
}

/// A node identifier, valid for the graph that created it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The position of the node in the graph's node arena.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// An edge identifier, valid for the graph that created it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// The position of the edge in the graph's edge arena.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

#[derive(Debug, Clone)]
struct EdgeData {
    source: NodeId,
    target: NodeId,
    label: LabelId,
    occur: Interval,
}

/// Classification of a graph into the paper's subclasses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphKind {
    /// All intervals are `1` and no duplicate `(source, label, target)` edges.
    Simple,
    /// All intervals are basic (`1`, `?`, `+`, `*`) but the graph is not simple.
    Shape,
    /// All intervals are singletons `[k;k]` with no duplicate
    /// `(source, label, target)` edges, but the graph is not simple.
    Compressed,
    /// None of the above: arbitrary intervals.
    General,
}

/// Error returned by [`Graph::unpack`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UnpackError {
    /// The graph is not a compressed graph.
    NotCompressed,
    /// The graph has a directed cycle; the unpacking of a cyclic compressed
    /// graph is not supported by this implementation.
    Cyclic,
    /// The unpacking would exceed the given node limit (it can be exponential
    /// in the size of the compressed graph, Proposition 6.1).
    TooLarge {
        /// The limit that was exceeded.
        limit: usize,
    },
}

impl fmt::Display for UnpackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnpackError::NotCompressed => write!(f, "graph is not a compressed graph"),
            UnpackError::Cyclic => write!(f, "cannot unpack a cyclic compressed graph"),
            UnpackError::TooLarge { limit } => {
                write!(f, "unpacking exceeds the node limit of {limit}")
            }
        }
    }
}

impl std::error::Error for UnpackError {}

/// A directed multigraph with labelled edges carrying occurrence intervals
/// (Definition 2.1 of the paper).
///
/// Each fact is stored once. Labels are interned on construction: an edge
/// carries only a dense [`LabelId`] into the graph's label table, which
/// holds each distinct [`Label`] once. A node name is one allocation,
/// shared by the id-ordered name table and the name index. Forward and
/// reverse adjacency lists are kept in step by every mutation.
#[derive(Debug, Clone, Default)]
pub struct Graph {
    /// Node names in id order; each shares its allocation with its
    /// `by_name` key.
    names: Vec<Arc<str>>,
    edges: Vec<EdgeData>,
    out: Vec<Vec<EdgeId>>,
    ins: Vec<Vec<EdgeId>>,
    by_name: BTreeMap<Arc<str>, NodeId>,
    label_ids: BTreeMap<Label, LabelId>,
    label_names: Vec<Label>,
}

impl Graph {
    /// An empty graph.
    pub fn new() -> Graph {
        Graph::default()
    }

    /// An empty graph whose node and edge arenas are allocated up front.
    ///
    /// Bulk constructions that know their final size (the candidate unfolder
    /// in `shapex-core` builds one graph per deduplicated tree, with the node
    /// count known from the tree's cached size) pay one exact allocation per
    /// arena instead of a geometric growth sequence.
    pub fn with_capacity(nodes: usize, edges: usize) -> Graph {
        Graph {
            names: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
            out: Vec::with_capacity(nodes),
            ins: Vec::with_capacity(nodes),
            ..Graph::default()
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.names.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Iterate over all node identifiers.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.names.len() as u32).map(NodeId)
    }

    /// Iterate over all edge identifiers.
    pub fn edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.edges.len() as u32).map(EdgeId)
    }

    /// Add a node with a fresh automatically generated name.
    pub fn add_node(&mut self) -> NodeId {
        let name = format!("n{}", self.names.len());
        self.add_named_node(name)
    }

    /// Add a node with an explicit name.
    ///
    /// # Panics
    /// Panics if a node with the same name already exists.
    pub fn add_named_node(&mut self, name: impl Into<String>) -> NodeId {
        self.insert_node(Arc::from(name.into()))
    }

    /// Add a node under `name`, the one allocation of its name.
    fn insert_node(&mut self, name: Arc<str>) -> NodeId {
        assert!(
            !self.by_name.contains_key(&name),
            "node `{name}` already exists"
        );
        let id = NodeId(self.names.len() as u32);
        self.by_name.insert(Arc::clone(&name), id);
        self.names.push(name);
        self.out.push(Vec::new());
        self.ins.push(Vec::new());
        id
    }

    /// Look up a node by name, creating it if missing.
    pub fn node(&mut self, name: &str) -> NodeId {
        match self.by_name.get(name) {
            Some(id) => *id,
            None => self.insert_node(Arc::from(name)),
        }
    }

    /// Look up an existing node by name.
    pub fn find_node(&self, name: &str) -> Option<NodeId> {
        self.by_name.get(name).copied()
    }

    /// The display name of a node.
    pub fn node_name(&self, node: NodeId) -> &str {
        &self.names[node.index()]
    }

    /// Add an edge with an explicit occurrence interval. The label is
    /// interned: the edge receives a dense [`LabelId`], and
    /// [`Graph::label`] returns the allocation of the predicate's first
    /// occurrence in this graph.
    pub fn add_edge_with(
        &mut self,
        source: NodeId,
        label: impl Into<Label>,
        occur: Interval,
        target: NodeId,
    ) -> EdgeId {
        let label = self.intern_label(&label.into());
        self.push_edge(source, label, occur, target)
    }

    fn push_edge(
        &mut self,
        source: NodeId,
        label: LabelId,
        occur: Interval,
        target: NodeId,
    ) -> EdgeId {
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(EdgeData {
            source,
            target,
            label,
            occur,
        });
        self.out[source.index()].push(id);
        self.ins[target.index()].push(id);
        id
    }

    /// Remove an edge. The edge arena stays dense: the *last* edge is swapped
    /// into the freed slot, so that edge's id is remapped to `edge` while all
    /// other edge ids stay valid. Forward and reverse adjacency are repaired
    /// in place. Returns the removed edge's `(source, target)`.
    pub fn remove_edge(&mut self, edge: EdgeId) -> (NodeId, NodeId) {
        let EdgeData { source, target, .. } = self.edges.swap_remove(edge.index());
        self.out[source.index()].retain(|&e| e != edge);
        self.ins[target.index()].retain(|&e| e != edge);
        if let Some(moved) = self.edges.get(edge.index()) {
            let last = EdgeId(self.edges.len() as u32);
            let out = self.out[moved.source.index()].iter_mut();
            for slot in out.chain(self.ins[moved.target.index()].iter_mut()) {
                if *slot == last {
                    *slot = edge;
                }
            }
        }
        (source, target)
    }

    /// Apply a batch of triple-level changes, maintaining forward and
    /// reverse adjacency in place, and report the *dirty* node set: every
    /// node whose outbound neighbourhood changed (sources of added and
    /// removed edges) plus every newly created node. The dirty set is what
    /// an incremental validator must re-examine; it is collected as the
    /// operations apply, then sorted and deduplicated once.
    pub fn apply_delta(&mut self, delta: &GraphDelta) -> DeltaReport {
        let mut report = DeltaReport::default();
        for op in &delta.ops {
            if op.add {
                let source = self.delta_node(&op.source, &mut report);
                let target = self.delta_node(&op.target, &mut report);
                let label = self.intern_label(&op.label);
                self.push_edge(source, label, Interval::ONE, target);
                report.added_edges += 1;
                report.dirty.push(source);
            } else {
                let found = self.find_node(&op.source).and_then(|s| {
                    let t = self.find_node(&op.target)?;
                    let label = self.find_label(op.label.as_str())?;
                    self.out[s.index()].iter().copied().find(|&e| {
                        let data = &self.edges[e.index()];
                        data.label == label && data.target == t
                    })
                });
                match found {
                    Some(edge) => {
                        let (source, _) = self.remove_edge(edge);
                        report.removed_edges += 1;
                        report.dirty.push(source);
                    }
                    None => report.missing_removals += 1,
                }
            }
        }
        report.dirty.sort_unstable();
        report.dirty.dedup();
        report
    }

    fn delta_node(&mut self, name: &str, report: &mut DeltaReport) -> NodeId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = self.insert_node(Arc::from(name));
        report.added_nodes += 1;
        report.dirty.push(id);
        id
    }

    fn intern_label(&mut self, label: &Label) -> LabelId {
        if let Some(&id) = self.label_ids.get(label) {
            return id;
        }
        let id = LabelId(self.label_names.len() as u32);
        self.label_ids.insert(label.clone(), id);
        self.label_names.push(label.clone());
        id
    }

    /// Add a plain edge with interval `1` (the only kind allowed in simple
    /// graphs).
    pub fn add_edge(&mut self, source: NodeId, label: impl Into<Label>, target: NodeId) -> EdgeId {
        self.add_edge_with(source, label, Interval::ONE, target)
    }

    /// Convenience: add an interval edge between nodes addressed by name
    /// (creating the nodes if necessary).
    pub fn edge_by_name(
        &mut self,
        source: &str,
        label: impl Into<Label>,
        occur: Interval,
        target: &str,
    ) -> EdgeId {
        let s = self.node(source);
        let t = self.node(target);
        self.add_edge_with(s, label, occur, t)
    }

    /// The origin node of an edge.
    pub fn source(&self, edge: EdgeId) -> NodeId {
        self.edges[edge.index()].source
    }

    /// The end point node of an edge.
    pub fn target(&self, edge: EdgeId) -> NodeId {
        self.edges[edge.index()].target
    }

    /// The predicate label of an edge.
    pub fn label(&self, edge: EdgeId) -> &Label {
        self.label_of(self.label_id(edge))
    }

    /// The interned label id of an edge.
    pub fn label_id(&self, edge: EdgeId) -> LabelId {
        self.edges[edge.index()].label
    }

    /// The label behind an interned id.
    pub fn label_of(&self, id: LabelId) -> &Label {
        &self.label_names[id.index()]
    }

    /// Look up the interned id of a label by name.
    pub fn find_label(&self, name: &str) -> Option<LabelId> {
        self.label_ids.get(name).copied()
    }

    /// Number of distinct labels used by the graph's edges.
    pub fn label_count(&self) -> usize {
        self.label_names.len()
    }

    /// Iterate over all interned label ids, in order of first use.
    pub fn label_ids(&self) -> impl Iterator<Item = LabelId> + '_ {
        (0..self.label_names.len() as u32).map(LabelId)
    }

    /// The occurrence interval of an edge.
    pub fn occur(&self, edge: EdgeId) -> Interval {
        self.edges[edge.index()].occur
    }

    /// The outgoing edges of a node (`out_G(n)` in the paper).
    pub fn out(&self, node: NodeId) -> &[EdgeId] {
        &self.out[node.index()]
    }

    /// The out-degree of a node.
    pub fn out_degree(&self, node: NodeId) -> usize {
        self.out[node.index()].len()
    }

    /// The incoming edges of a node (reverse adjacency).
    pub fn ins(&self, node: NodeId) -> &[EdgeId] {
        &self.ins[node.index()]
    }

    /// The in-degree of a node.
    pub fn in_degree(&self, node: NodeId) -> usize {
        self.ins[node.index()].len()
    }

    /// The outbound neighbourhood of a node as a bag over `(label, target)`
    /// pairs, counting each edge with the multiplicity given by its singleton
    /// interval (or `1` for non-singleton intervals).
    pub fn out_bag(&self, node: NodeId) -> Bag<(Label, NodeId)> {
        let mut bag = Bag::new();
        for &e in self.out(node) {
            let mult = self.occur(e).singleton().unwrap_or(1);
            bag.add((self.label(e).clone(), self.target(e)), mult);
        }
        bag
    }

    /// The distinct labels used by the graph, in sorted order.
    pub fn labels(&self) -> Vec<Label> {
        self.label_ids.keys().cloned().collect()
    }

    /// Approximate heap footprint of the graph in bytes: arena capacities
    /// times element sizes, each node name once (its bytes plus the `Arc`
    /// header), and the name/label indexes (at a flat per-entry estimate
    /// for the tree overhead). Interned [`Label`]s are counted as their
    /// `Arc` handle only — the string allocation belongs to whichever table
    /// interned it. This feeds the cache accounting of the containment
    /// engine; it is a conservative estimate, not allocator truth.
    pub fn approx_heap_bytes(&self) -> usize {
        use std::mem::size_of;
        // Amortised B-tree node overhead per map entry (key/value inline).
        const MAP_ENTRY: usize = 32;
        // The strong and weak counts in front of every `Arc` allocation.
        const ARC_HEADER: usize = 2 * size_of::<usize>();
        let mut bytes = self.names.capacity() * size_of::<Arc<str>>()
            + self.edges.capacity() * size_of::<EdgeData>()
            + self.out.capacity() * size_of::<Vec<EdgeId>>()
            + self.ins.capacity() * size_of::<Vec<EdgeId>>();
        bytes += self
            .out
            .iter()
            .chain(self.ins.iter())
            .map(|v| v.capacity() * size_of::<EdgeId>())
            .sum::<usize>();
        bytes += self
            .names
            .iter()
            .map(|name| ARC_HEADER + name.len())
            .sum::<usize>();
        bytes += self.by_name.len() * (size_of::<Arc<str>>() + size_of::<NodeId>() + MAP_ENTRY);
        bytes += self.label_ids.len() * (size_of::<Label>() + size_of::<LabelId>() + MAP_ENTRY);
        bytes += self.label_names.capacity() * size_of::<Label>();
        bytes
    }

    /// Whether the graph is a *simple graph* (class `G₀`): every edge has
    /// interval `1` and no two edges share source, label, and target.
    pub fn is_simple(&self) -> bool {
        if !self.edges.iter().all(|e| e.occur == Interval::ONE) {
            return false;
        }
        self.no_parallel_duplicates()
    }

    /// Whether the graph is a *shape graph* (class `ShEx₀`): every edge uses a
    /// basic interval.
    pub fn is_shape_graph(&self) -> bool {
        self.edges.iter().all(|e| e.occur.is_basic())
    }

    /// Whether the graph is a *compressed graph*: every edge uses a singleton
    /// interval `[k;k]` and no two edges share source, label, and target.
    pub fn is_compressed(&self) -> bool {
        self.edges.iter().all(|e| e.occur.singleton().is_some()) && self.no_parallel_duplicates()
    }

    fn no_parallel_duplicates(&self) -> bool {
        let mut seen = BTreeSet::new();
        for e in &self.edges {
            if !seen.insert((e.source, e.label, e.target)) {
                return false;
            }
        }
        true
    }

    /// Classify the graph.
    pub fn kind(&self) -> GraphKind {
        if self.is_simple() {
            GraphKind::Simple
        } else if self.is_shape_graph() {
            GraphKind::Shape
        } else if self.is_compressed() {
            GraphKind::Compressed
        } else {
            GraphKind::General
        }
    }

    /// Nodes in a topological order, or `None` if the graph has a directed
    /// cycle.
    pub fn topological_order(&self) -> Option<Vec<NodeId>> {
        let n = self.node_count();
        let mut indegree = vec![0usize; n];
        for e in &self.edges {
            indegree[e.target.index()] += 1;
        }
        let mut queue: Vec<NodeId> = self.nodes().filter(|v| indegree[v.index()] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(v) = queue.pop() {
            order.push(v);
            for &e in self.out(v) {
                let t = self.target(e);
                indegree[t.index()] -= 1;
                if indegree[t.index()] == 0 {
                    queue.push(t);
                }
            }
        }
        if order.len() == n {
            Some(order)
        } else {
            None
        }
    }

    /// Unpack a compressed graph into a simple graph (Proposition 6.1).
    ///
    /// Every node is copied enough times that each copy receives at most one
    /// incoming edge while keeping the same outbound neighbourhood. The result
    /// can be exponentially larger than the input, so a `node_limit` caps the
    /// expansion. Only acyclic compressed graphs are supported.
    pub fn unpack(&self, node_limit: usize) -> Result<Graph, UnpackError> {
        if !self.is_compressed() {
            return Err(UnpackError::NotCompressed);
        }
        let order = self.topological_order().ok_or(UnpackError::Cyclic)?;

        // Copies needed per node: one per incoming (unpacked) edge, at least 1.
        let mut copies: Vec<u64> = vec![0; self.node_count()];
        for &v in &order {
            let own = copies[v.index()].max(1);
            copies[v.index()] = own;
            for &e in self.out(v) {
                let mult = self.occur(e).singleton().expect("compressed graph");
                let t = self.target(e);
                copies[t.index()] += own * mult;
            }
        }
        let total: u64 = self.nodes().map(|v| copies[v.index()].max(1)).sum();
        if total as usize > node_limit {
            return Err(UnpackError::TooLarge { limit: node_limit });
        }

        let mut out = Graph::new();
        // Allocate all copies.
        let mut copy_ids: Vec<Vec<NodeId>> = Vec::with_capacity(self.node_count());
        for v in self.nodes() {
            let mut ids = Vec::new();
            for i in 0..copies[v.index()].max(1) {
                ids.push(out.add_named_node(format!("{}#{}", self.node_name(v), i)));
            }
            copy_ids.push(ids);
        }
        // Wire the outbound neighbourhood of every copy, consuming target
        // copies so that each receives at most one incoming edge.
        let mut next_free: Vec<usize> = vec![0; self.node_count()];
        for &v in order.iter() {
            for copy_index in 0..copies[v.index()].max(1) {
                let source_copy = copy_ids[v.index()][copy_index as usize];
                for &e in self.out(v) {
                    let mult = self.occur(e).singleton().expect("compressed graph");
                    let t = self.target(e);
                    for _ in 0..mult {
                        let slot = next_free[t.index()];
                        next_free[t.index()] += 1;
                        let target_copy = copy_ids[t.index()][slot];
                        out.add_edge(source_copy, self.label(e).clone(), target_copy);
                    }
                }
            }
        }
        debug_assert!(out.is_simple());
        Ok(out)
    }
}

/// One queued change in a [`GraphDelta`].
#[derive(Debug, Clone)]
struct DeltaOp {
    add: bool,
    source: String,
    label: Label,
    target: String,
}

/// A batch of triple-level changes to apply atomically to a [`Graph`] via
/// [`Graph::apply_delta`].
///
/// Changes are addressed by node *name* and label text, so a delta can be
/// built straight from a stream of parsed triples without knowing the
/// graph's ids — missing nodes are created on application. Added edges carry
/// interval `1` (deltas target simple graphs, the class validation is
/// defined on); removals match one `(source, label, target)` edge and are
/// counted as misses when no such edge exists. Labels are interned inside
/// the delta, so a 100k-triple batch over a small predicate alphabet
/// allocates each label once.
#[derive(Debug, Clone, Default)]
pub struct GraphDelta {
    ops: Vec<DeltaOp>,
    labels: LabelTable,
}

impl GraphDelta {
    /// An empty delta.
    pub fn new() -> GraphDelta {
        GraphDelta::default()
    }

    /// Queue the addition of a `source -label-> target` edge with interval
    /// `1`, creating the endpoint nodes if they do not exist yet.
    pub fn add_edge(&mut self, source: impl Into<String>, label: &str, target: impl Into<String>) {
        let label = self.labels.intern(label);
        self.ops.push(DeltaOp {
            add: true,
            source: source.into(),
            label,
            target: target.into(),
        });
    }

    /// Queue the removal of one `(source, label, target)` edge.
    pub fn remove_edge(
        &mut self,
        source: impl Into<String>,
        label: &str,
        target: impl Into<String>,
    ) {
        let label = self.labels.intern(label);
        self.ops.push(DeltaOp {
            add: false,
            source: source.into(),
            label,
            target: target.into(),
        });
    }

    /// Queue an RDF triple as an edge addition — the glue between the
    /// N-Triples stream and the graph.
    pub fn add_triple(&mut self, subject: &str, predicate: &str, object: &str) {
        self.add_edge(subject, predicate, object);
    }

    /// Number of queued operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether no operation is queued.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Drop all queued operations, keeping the label interner warm.
    pub fn clear(&mut self) {
        self.ops.clear();
    }
}

/// What [`Graph::apply_delta`] did, including the dirty node set an
/// incremental validator needs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeltaReport {
    /// Nodes whose outbound neighbourhood changed, plus newly created nodes;
    /// sorted and duplicate-free.
    pub dirty: Vec<NodeId>,
    /// Nodes created by the delta.
    pub added_nodes: usize,
    /// Edges added.
    pub added_edges: usize,
    /// Edges removed.
    pub removed_edges: usize,
    /// Removal requests that matched no edge (applied as no-ops).
    pub missing_removals: usize,
}

/// A reusable scratch for constructing many graphs in a row.
///
/// The builder owns the buffers that are *not* part of the produced graph —
/// currently the node-name rendering buffer — so a loop that materialises one
/// graph per candidate (the unfolding search of `shapex-core`) renders every
/// name into one reused allocation and starts each graph with exact-capacity
/// arenas via [`GraphBuilder::start`]. The produced [`Graph`] is fully owned
/// by the caller; the builder can immediately start the next one.
#[derive(Debug, Default)]
pub struct GraphBuilder {
    name: String,
}

impl GraphBuilder {
    /// A builder with an empty scratch.
    pub fn new() -> GraphBuilder {
        GraphBuilder::default()
    }

    /// Begin a graph with exact-capacity node and edge arenas.
    pub fn start(&self, nodes: usize, edges: usize) -> Graph {
        Graph::with_capacity(nodes, edges)
    }

    /// Add a named node, rendering the name through the builder's reused
    /// buffer (the graph stores it as one exactly sized allocation).
    ///
    /// # Panics
    /// Panics if a node with the same name already exists (see
    /// [`Graph::add_named_node`]).
    pub fn named_node(&mut self, graph: &mut Graph, name: fmt::Arguments<'_>) -> NodeId {
        use fmt::Write as _;
        self.name.clear();
        let _ = self.name.write_fmt(name);
        graph.insert_node(Arc::from(self.name.as_str()))
    }
}

impl fmt::Display for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "graph with {} nodes, {} edges:",
            self.node_count(),
            self.edge_count()
        )?;
        for e in self.edges() {
            let occur = self.occur(e);
            if occur == Interval::ONE {
                writeln!(
                    f,
                    "  {} -{}-> {}",
                    self.node_name(self.source(e)),
                    self.label(e),
                    self.node_name(self.target(e))
                )?;
            } else {
                writeln!(
                    f,
                    "  {} -{}[{}]-> {}",
                    self.node_name(self.source(e)),
                    self.label(e),
                    occur,
                    self.node_name(self.target(e))
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        let mut g = Graph::new();
        let a = g.node("a");
        let b = g.node("b");
        let c = g.node("c");
        g.add_edge(a, "p", b);
        g.add_edge(b, "q", c);
        g.add_edge(c, "r", a);
        g
    }

    #[test]
    fn node_and_edge_accessors() {
        let mut g = Graph::new();
        let a = g.node("a");
        let b = g.node("b");
        assert_eq!(g.node("a"), a, "node() reuses existing names");
        let e = g.add_edge_with(a, "p", Interval::STAR, b);
        assert_eq!(g.source(e), a);
        assert_eq!(g.target(e), b);
        assert_eq!(g.label(e).as_str(), "p");
        assert_eq!(g.occur(e), Interval::STAR);
        assert_eq!(g.out(a), &[e]);
        assert_eq!(g.out_degree(b), 0);
        assert_eq!(g.node_name(a), "a");
        assert_eq!(g.find_node("b"), Some(b));
        assert_eq!(g.find_node("zzz"), None);
    }

    #[test]
    #[should_panic(expected = "already exists")]
    fn duplicate_names_panic() {
        let mut g = Graph::new();
        g.add_named_node("x");
        g.add_named_node("x");
    }

    #[test]
    fn kind_classification() {
        let mut simple = triangle();
        assert_eq!(simple.kind(), GraphKind::Simple);
        assert!(simple.is_simple() && simple.is_shape_graph() && simple.is_compressed());

        // Adding a `*` edge turns it into a (non-simple) shape graph.
        let a = simple.node("a");
        let b = simple.node("b");
        simple.add_edge_with(a, "s", Interval::STAR, b);
        assert_eq!(simple.kind(), GraphKind::Shape);

        // A graph with a singleton interval [3;3] is compressed.
        let mut compressed = Graph::new();
        let x = compressed.node("x");
        let y = compressed.node("y");
        compressed.add_edge_with(x, "p", Interval::exactly(3), y);
        assert_eq!(compressed.kind(), GraphKind::Compressed);

        // Arbitrary intervals are the general case.
        let mut general = Graph::new();
        let x = general.node("x");
        let y = general.node("y");
        general.add_edge_with(x, "p", Interval::bounded(2, 5), y);
        assert_eq!(general.kind(), GraphKind::General);

        // Duplicate (source, label, target) edges are not simple.
        let mut dup = Graph::new();
        let x = dup.node("x");
        let y = dup.node("y");
        dup.add_edge(x, "p", y);
        dup.add_edge(x, "p", y);
        assert!(!dup.is_simple());
        assert_eq!(dup.kind(), GraphKind::Shape);
    }

    #[test]
    fn out_bag_counts_multiplicities() {
        let mut g = Graph::new();
        let x = g.node("x");
        let y = g.node("y");
        let z = g.node("z");
        g.add_edge_with(x, "p", Interval::exactly(3), y);
        g.add_edge(x, "p", z);
        let bag = g.out_bag(x);
        assert_eq!(bag.count(&(Label::new("p"), y)), 3);
        assert_eq!(bag.count(&(Label::new("p"), z)), 1);
        assert_eq!(bag.total(), 4);
    }

    #[test]
    fn topological_order_detects_cycles() {
        let g = triangle();
        assert!(g.topological_order().is_none());
        let mut dag = Graph::new();
        let a = dag.node("a");
        let b = dag.node("b");
        let c = dag.node("c");
        dag.add_edge(a, "p", b);
        dag.add_edge(a, "p", c);
        dag.add_edge(b, "q", c);
        let order = dag.topological_order().unwrap();
        assert_eq!(order.len(), 3);
        let pos = |n: NodeId| order.iter().position(|x| *x == n).unwrap();
        assert!(pos(a) < pos(b) && pos(b) < pos(c));
    }

    #[test]
    fn unpacking_a_chain_of_multiplicities() {
        // root -a[2]-> mid -b[3]-> leaf: the unpacking has 1 + 2 + 6 nodes.
        let mut g = Graph::new();
        let root = g.node("root");
        let mid = g.node("mid");
        let leaf = g.node("leaf");
        g.add_edge_with(root, "a", Interval::exactly(2), mid);
        g.add_edge_with(mid, "b", Interval::exactly(3), leaf);
        let unpacked = g.unpack(100).unwrap();
        assert!(unpacked.is_simple());
        assert_eq!(unpacked.node_count(), 1 + 2 + 6);
        assert_eq!(unpacked.edge_count(), 2 + 6);
        // Every unpacked node has at most one incoming edge.
        let mut incoming = vec![0usize; unpacked.node_count()];
        for e in unpacked.edges() {
            incoming[unpacked.target(e).index()] += 1;
        }
        assert!(incoming.iter().all(|&c| c <= 1));
    }

    #[test]
    fn unpacking_errors() {
        let cyclic = triangle();
        // A simple cyclic graph is compressed (all intervals are [1;1]) but
        // cyclic unpacking is rejected.
        assert_eq!(cyclic.unpack(10).unwrap_err(), UnpackError::Cyclic);

        let mut general = Graph::new();
        let x = general.node("x");
        let y = general.node("y");
        general.add_edge_with(x, "p", Interval::STAR, y);
        assert_eq!(general.unpack(10).unwrap_err(), UnpackError::NotCompressed);

        let mut big = Graph::new();
        let a = big.node("a");
        let b = big.node("b");
        big.add_edge_with(a, "p", Interval::exactly(1000), b);
        assert_eq!(
            big.unpack(10).unwrap_err(),
            UnpackError::TooLarge { limit: 10 }
        );
    }

    #[test]
    fn interning_reuses_one_label_per_name() {
        let mut table = LabelTable::new();
        let a1 = table.intern("a");
        let a2 = table.intern("a");
        let b = table.intern("b");
        assert!(a1.ptr_eq(&a2), "same name, one allocation");
        assert_ne!(a1, b);
        assert_eq!(table.len(), 2);
        // Labels created outside the table still compare equal by content.
        assert_eq!(a1, Label::new("a"));
        // Adopting keeps the caller's allocation for a new name, and later
        // interns hand that allocation out.
        let c = Label::new("c");
        assert!(table.adopt(&c).ptr_eq(&c));
        assert!(table.intern("c").ptr_eq(&c));
        assert!(table.adopt(&Label::new("a")).ptr_eq(&a1));
    }

    #[test]
    fn labels_are_interned_with_dense_ids() {
        let mut g = Graph::new();
        let a = g.node("a");
        let b = g.node("b");
        let e1 = g.add_edge(a, "p", b);
        let e2 = g.add_edge(b, "q", a);
        let e3 = g.add_edge(b, "p", b);
        assert_eq!(g.label_count(), 2);
        assert_eq!(g.label_id(e1), g.label_id(e3));
        assert_ne!(g.label_id(e1), g.label_id(e2));
        assert_eq!(g.find_label("p"), Some(g.label_id(e1)));
        assert_eq!(g.find_label("zzz"), None);
        assert_eq!(g.label_of(g.label_id(e2)).as_str(), "q");
        // The stored labels share one allocation per distinct predicate.
        assert!(Arc::ptr_eq(&g.label(e1).0, &g.label(e3).0));
        assert_eq!(g.label_ids().count(), 2);
    }

    #[test]
    fn reverse_adjacency() {
        let mut g = Graph::new();
        let hub = g.node("hub");
        let x = g.node("x");
        let y = g.node("y");
        let e1 = g.add_edge(hub, "p", x);
        let e2 = g.add_edge(hub, "q", y);
        let e3 = g.add_edge(hub, "p", y);
        let e4 = g.add_edge(x, "p", y);
        assert_eq!(g.ins(y), &[e2, e3, e4]);
        assert_eq!(g.in_degree(x), 1);
        assert_eq!(g.in_degree(hub), 0);
        let e5 = g.add_edge(y, "p", x);
        assert_eq!(g.ins(x), &[e1, e5]);
        assert_eq!(g.out(y), &[e5]);
    }

    #[test]
    fn node_names_are_allocated_once() {
        let mut g = Graph::new();
        let a = g.node("a");
        let b = g.add_named_node("b");
        let mut delta = GraphDelta::new();
        delta.add_edge("c", "p", "a");
        g.apply_delta(&delta);
        let c = g.find_node("c").unwrap();
        for v in [a, b, c] {
            let (key, &id) = g.by_name.get_key_value(g.node_name(v)).unwrap();
            assert_eq!(id, v);
            assert!(Arc::ptr_eq(key, &g.names[v.index()]), "{v}");
        }
    }

    #[test]
    fn builder_reuses_its_name_buffer_across_graphs() {
        let mut builder = GraphBuilder::new();
        for round in 0..3 {
            let mut g = builder.start(2, 1);
            let a = builder.named_node(&mut g, format_args!("a_{round}"));
            let b = builder.named_node(&mut g, format_args!("b_{round}"));
            g.add_edge(a, "p", b);
            assert_eq!(g.node_name(a), format!("a_{round}"));
            assert_eq!(g.find_node(&format!("b_{round}")), Some(b));
            assert_eq!(g.edge_count(), 1);
        }
        // with_capacity graphs behave exactly like fresh ones.
        let g = Graph::with_capacity(4, 4);
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn display_contains_edges() {
        let g = triangle();
        let text = g.to_string();
        assert!(text.contains("a -p-> b"));
        assert!(text.contains("3 nodes"));
    }

    /// The forward and reverse adjacency of `g` must match a from-scratch
    /// rebuild of the same edge set, for every node, in both directions.
    fn assert_adjacency_consistent(g: &Graph) {
        let mut fresh = Graph::new();
        for v in g.nodes() {
            fresh.add_named_node(g.node_name(v));
        }
        for e in g.edges() {
            fresh.add_edge_with(g.source(e), g.label(e).clone(), g.occur(e), g.target(e));
            assert_eq!(g.label(e), fresh.label(e));
        }
        let set = |edges: &[EdgeId]| edges.iter().map(|e| e.0).collect::<BTreeSet<u32>>();
        for v in g.nodes() {
            assert_eq!(
                set(g.out(v)),
                set(fresh.out(v)),
                "out of {}",
                g.node_name(v)
            );
            assert_eq!(
                set(g.ins(v)),
                set(fresh.ins(v)),
                "ins of {}",
                g.node_name(v)
            );
            assert_eq!(g.out_degree(v), fresh.out_degree(v));
            assert_eq!(g.in_degree(v), fresh.in_degree(v));
        }
    }

    #[test]
    fn apply_delta_adds_and_removes_with_dirty_report() {
        let mut g = Graph::new();
        let a = g.node("a");
        let b = g.node("b");
        g.add_edge(a, "p", b);

        let mut delta = GraphDelta::new();
        delta.add_edge("a", "p", "c");
        delta.add_edge("c", "q", "b");
        delta.remove_edge("a", "p", "b");
        delta.remove_edge("a", "zzz", "b"); // no such edge
        assert_eq!(delta.len(), 4);
        let report = g.apply_delta(&delta);

        assert_eq!(report.added_nodes, 1);
        assert_eq!(report.added_edges, 2);
        assert_eq!(report.removed_edges, 1);
        assert_eq!(report.missing_removals, 1);
        let c = g.find_node("c").unwrap();
        assert_eq!(report.dirty, vec![a, c], "sources of changes + new nodes");

        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.out_degree(a), 1);
        assert_eq!(g.target(g.out(a)[0]), c);
        assert_eq!(g.in_degree(b), 1);
        assert_adjacency_consistent(&g);
    }

    #[test]
    fn remove_edge_remaps_the_last_edge_id() {
        let mut g = Graph::new();
        let a = g.node("a");
        let b = g.node("b");
        let c = g.node("c");
        let e0 = g.add_edge(a, "p", b);
        let _e1 = g.add_edge(b, "q", c);
        let e2 = g.add_edge(c, "r", a);
        assert_eq!(g.out(c), &[e2]);

        assert_eq!(g.remove_edge(e0), (a, b));
        assert_eq!(g.edge_count(), 2);
        // e2 (the last edge) now lives at id e0.
        assert_eq!(g.source(e0), c);
        assert_eq!(g.label(e0).as_str(), "r");
        assert_eq!(g.out(c), &[e0]);
        assert_eq!(g.ins(a), &[e0]);
        assert!(g.out(a).is_empty());
        assert_adjacency_consistent(&g);
    }
}
