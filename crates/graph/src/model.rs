//! The graph data structure and its subclasses.

use std::borrow::Borrow;
use std::collections::hash_map::RandomState;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::{self, Write as _};
use std::hash::BuildHasher;
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

impl AsRef<str> for Label {
    fn as_ref(&self) -> &str {
        &self.0
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
    /// Each label once, looked up by its text through `Borrow<str>`.
    known: BTreeSet<Label>,
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
        self.known.insert(label.clone());
        label
    }

    /// Register an already-allocated label, reusing the table's existing
    /// allocation when one is present and adopting `label`'s otherwise
    /// (unlike [`LabelTable::intern`], which would allocate afresh).
    pub fn adopt(&mut self, label: &Label) -> Label {
        if let Some(existing) = self.known.get(label.as_str()) {
            return existing.clone();
        }
        self.known.insert(label.clone());
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

    /// Iterate over the interned labels, in text order.
    pub fn iter(&self) -> impl Iterator<Item = &Label> {
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

/// An edge. The interval is a code into the graph's interval table, so an
/// edge is 16 bytes.
#[derive(Debug, Clone, Copy)]
struct EdgeData {
    source: NodeId,
    target: NodeId,
    label: LabelId,
    /// The interval's position in the graph's `intervals` table, where
    /// `1` is code 0.
    occur: u32,
}

/// One node's out- or in-edge ids, in insertion order: `len` ids in use of
/// the `cap` slots reserved from `start` in the graph's edge-list arena.
#[derive(Debug, Clone, Copy, Default)]
struct EdgeList {
    start: u32,
    len: u32,
    cap: u32,
}

/// A node: where its name ends in the name arena (it starts where the
/// previous node's ends), and its out- and in-edge lists.
#[derive(Debug, Clone, Copy, Default)]
struct NodeData {
    name_end: u32,
    out: EdgeList,
    ins: EdgeList,
}

// The layout `Graph::approx_heap_bytes` counts: an edge is 16 bytes, and a
// node's name offset and two list windows take 28, less than the two `Vec`
// headers a node's lists would take.
const _: () = assert!(std::mem::size_of::<EdgeData>() == 16);
const _: () = assert!(std::mem::size_of::<NodeData>() == 28);

impl EdgeList {
    #[inline]
    fn get<'a>(&self, lists: &'a [EdgeId]) -> &'a [EdgeId] {
        let start = self.start as usize;
        &lists[start..start + self.len as usize]
    }

    fn get_mut<'a>(&self, lists: &'a mut [EdgeId]) -> &'a mut [EdgeId] {
        let start = self.start as usize;
        &mut lists[start..start + self.len as usize]
    }

    /// Append `id`. A full list doubles its room: in place when it ends the
    /// arena, otherwise by moving to the arena's end, leaving its old
    /// window unused.
    ///
    /// # Panics
    /// Panics, with the list unchanged, if the arena would outgrow its
    /// `u32` offsets.
    fn push(&mut self, id: EdgeId, lists: &mut Vec<EdgeId>) {
        let len = self.len as usize;
        if self.len == self.cap {
            let mut start = self.start as usize;
            if start + len != lists.len() {
                lists.extend_from_within(start..start + len);
                start = lists.len() - len;
            }
            let cap = (2 * len).max(1);
            assert!(
                start + cap <= u32::MAX as usize,
                "edge lists exceed the graph's 2^32-slot arena"
            );
            lists.resize(start + cap, EdgeId(0));
            self.start = start as u32;
            self.cap = cap as u32;
        }
        lists[self.start as usize + len] = id;
        self.len += 1;
    }

    /// Remove `id`, keeping the order of the others.
    fn remove(&mut self, id: EdgeId, lists: &mut [EdgeId]) {
        let list = self.get_mut(lists);
        if let Some(at) = list.iter().position(|&e| e == id) {
            list.copy_within(at + 1.., at);
            self.len -= 1;
        }
    }
}

/// The graph's nodes: their names back to back in one string, and one
/// record per node, both in id order.
#[derive(Debug, Clone, Default)]
struct Nodes {
    /// The names. Bytes past the last node's `name_end` are a *pending*
    /// name, written before the index is asked whether it is new.
    names: String,
    data: Vec<NodeData>,
}

impl Nodes {
    fn len(&self) -> usize {
        self.data.len()
    }

    /// Where the pending name starts.
    fn committed(&self) -> usize {
        self.data.last().map_or(0, |node| node.name_end as usize)
    }

    #[inline]
    fn name(&self, node: usize) -> &str {
        let start = match node {
            0 => 0,
            _ => self.data[node - 1].name_end as usize,
        };
        &self.names[start..self.data[node].name_end as usize]
    }

    fn pending(&self) -> &str {
        &self.names[self.committed()..]
    }

    fn discard_pending(&mut self) {
        let end = self.committed();
        self.names.truncate(end);
    }

    /// Make the pending name a new node's.
    ///
    /// # Panics
    /// Panics, with the pending name discarded, if the arena would outgrow
    /// its `u32` offsets.
    fn commit(&mut self) -> NodeId {
        let Ok(name_end) = u32::try_from(self.names.len()) else {
            self.discard_pending();
            panic!("node names exceed the graph's 4 GiB name arena");
        };
        let id = NodeId(self.data.len() as u32);
        self.data.push(NodeData {
            name_end,
            ..NodeData::default()
        });
        id
    }
}

/// A free slot of a [`NameIndex`].
const FREE: u32 = u32::MAX;

/// An open-addressing hash index from node names to node ids. A slot holds
/// a node id or `FREE`; a name's probe starts at its hash under the graph's
/// own random key (tenants choose node names, so the hash is keyed) and
/// walks forward, comparing candidates against the name arena, so no name
/// is stored twice. The table is a power of two long and at most half
/// full. Nothing iterates it, so no order depends on the key.
#[derive(Debug, Clone, Default)]
struct NameIndex {
    slots: Vec<u32>,
    hasher: RandomState,
}

impl NameIndex {
    /// The node named `name`, or the free slot where it belongs. The table
    /// must not be empty.
    fn probe(&self, nodes: &Nodes, name: &str) -> Result<NodeId, usize> {
        let mask = self.slots.len() - 1;
        let mut slot = self.hasher.hash_one(name) as usize & mask;
        loop {
            match self.slots[slot] {
                FREE => return Err(slot),
                id if nodes.name(id as usize) == name => return Ok(NodeId(id)),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    fn find(&self, nodes: &Nodes, name: &str) -> Option<NodeId> {
        if self.slots.is_empty() {
            return None;
        }
        self.probe(nodes, name).ok()
    }

    /// Room for `count` names at most half full: grow the table to the
    /// next fitting power of two (a doubling, one node at a time; 16 slots
    /// at least) and place every node's name again.
    fn reserve(&mut self, nodes: &Nodes, count: usize) {
        if 2 * count <= self.slots.len() {
            return;
        }
        self.slots = vec![FREE; (2 * count).next_power_of_two().max(16)];
        for node in 0..nodes.len() {
            if let Err(slot) = self.probe(nodes, nodes.name(node)) {
                self.slots[slot] = node as u32;
            }
        }
    }
}

/// Interned labels with dense ids in order of first use: the label table of
/// a [`Graph`] and of a [`GraphDelta`]. Each distinct label is held once,
/// by the allocation of its first occurrence.
#[derive(Debug, Clone, Default)]
struct Labels {
    names: Vec<Label>,
    ids: BTreeMap<Label, LabelId>,
}

impl Labels {
    fn len(&self) -> usize {
        self.names.len()
    }

    fn get(&self, id: LabelId) -> &Label {
        &self.names[id.index()]
    }

    fn find(&self, name: &str) -> Option<LabelId> {
        self.ids.get(name).copied()
    }

    /// The id of a label, added if new. Taking the label by value lets a
    /// caller holding only its text look it up before allocating one.
    fn intern(&mut self, name: impl AsRef<str> + Into<Label>) -> LabelId {
        if let Some(id) = self.find(name.as_ref()) {
            return id;
        }
        let label = name.into();
        let id = LabelId(self.names.len() as u32);
        self.ids.insert(label.clone(), id);
        self.names.push(label);
        id
    }

    /// The labels in sorted order.
    fn sorted(&self) -> Vec<Label> {
        self.ids.keys().cloned().collect()
    }

    /// The table's heap bytes, at a flat per-entry estimate for the
    /// B-tree's nodes. A label counts as its `Arc` handle: the string
    /// belongs to whichever table interned it.
    fn approx_heap_bytes(&self) -> usize {
        use std::mem::size_of;
        // Amortised B-tree node overhead per map entry (key/value inline).
        const MAP_ENTRY: usize = 32;
        self.ids.len() * (size_of::<Label>() + size_of::<LabelId>() + MAP_ENTRY)
            + self.names.capacity() * size_of::<Label>()
    }
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
/// Each fact is stored once, and a node allocates nothing of its own:
/// - node names sit back to back in one string arena, found through an
///   open-addressing index of node ids probed with a keyed hash;
/// - an edge is 16 bytes: its two endpoints, a dense [`LabelId`] into the
///   graph's label table, which holds each distinct [`Label`] once, and a
///   code into the graph's small table of distinct intervals;
/// - a node's out- and in-edge lists are windows of one shared arena of
///   edge ids; a full list doubles its window at the arena's end.
///
/// Forward and reverse adjacency are kept in step by every mutation, each
/// list in insertion order.
#[derive(Debug, Clone, Default)]
pub struct Graph {
    nodes: Nodes,
    index: NameIndex,
    edges: Vec<EdgeData>,
    /// The distinct intervals edges carry: `1` first, once there is an
    /// edge, then the others in order of first use.
    intervals: Vec<Interval>,
    /// Every node's out- and in-edge lists, each a window of it.
    lists: Vec<EdgeId>,
    labels: Labels,
}

impl Graph {
    /// An empty graph. It allocates nothing before its first node.
    pub fn new() -> Graph {
        Graph::default()
    }

    /// An empty graph whose node and edge arenas (the name index and room
    /// for every edge in two lists included, but not the name text) are
    /// allocated up front.
    ///
    /// Bulk constructions that know their final size (the candidate unfolder
    /// in `shapex-core` builds one graph per deduplicated tree, with the node
    /// count known from the tree's cached size) pay one exact allocation per
    /// arena instead of a geometric growth sequence.
    pub fn with_capacity(nodes: usize, edges: usize) -> Graph {
        let mut graph = Graph {
            nodes: Nodes {
                names: String::new(),
                data: Vec::with_capacity(nodes),
            },
            edges: Vec::with_capacity(edges),
            lists: Vec::with_capacity(2 * edges),
            ..Graph::default()
        };
        graph.index.reserve(&graph.nodes, nodes);
        graph
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Iterate over all node identifiers.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Iterate over all edge identifiers.
    pub fn edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.edges.len() as u32).map(EdgeId)
    }

    /// Add a node with a fresh automatically generated name: `n{k}` for the
    /// graph's `k`-th node, or, when a named node already took `n{k}`, the
    /// first free `n{k}_{i}`.
    pub fn add_node(&mut self) -> NodeId {
        let k = self.node_count();
        let _ = write!(self.nodes.names, "n{k}");
        let mut i = 0usize;
        loop {
            match self.commit_name() {
                Ok(id) => return id,
                Err(_) => {
                    let _ = write!(self.nodes.names, "n{k}_{i}");
                    i += 1;
                }
            }
        }
    }

    /// Add a node with an explicit name, rendered straight into the graph's
    /// name arena (pass `format_args!(..)` to build a name without a
    /// `String`).
    ///
    /// # Panics
    /// Panics if a node with the same name already exists.
    pub fn add_named_node(&mut self, name: impl fmt::Display) -> NodeId {
        let _ = write!(self.nodes.names, "{name}");
        match self.commit_name() {
            Ok(id) => id,
            Err(_) => panic!("node `{name}` already exists"),
        }
    }

    /// Give the name pending at the end of the arena to a new node, or, if a
    /// node already has that name, discard the pending copy and return that
    /// node as the error.
    fn commit_name(&mut self) -> Result<NodeId, NodeId> {
        self.index.reserve(&self.nodes, self.nodes.len() + 1);
        match self.index.probe(&self.nodes, self.nodes.pending()) {
            Ok(existing) => {
                self.nodes.discard_pending();
                Err(existing)
            }
            Err(slot) => {
                let id = self.nodes.commit();
                self.index.slots[slot] = id.0;
                Ok(id)
            }
        }
    }

    /// Look up a node by name, creating it if missing.
    pub fn node(&mut self, name: &str) -> NodeId {
        self.nodes.names.push_str(name);
        match self.commit_name() {
            Ok(id) | Err(id) => id,
        }
    }

    /// Look up an existing node by name.
    pub fn find_node(&self, name: &str) -> Option<NodeId> {
        self.index.find(&self.nodes, name)
    }

    /// The display name of a node.
    #[inline]
    pub fn node_name(&self, node: NodeId) -> &str {
        self.nodes.name(node.index())
    }

    /// Add an edge with an explicit occurrence interval. The label is
    /// interned: the edge receives a dense [`LabelId`], and
    /// [`Graph::label`] returns the allocation of the predicate's first
    /// occurrence in this graph.
    pub fn add_edge_with(
        &mut self,
        source: NodeId,
        label: impl Into<Label> + AsRef<str>,
        occur: Interval,
        target: NodeId,
    ) -> EdgeId {
        let label = self.labels.intern(label);
        let occur = self.interval_code(occur);
        self.push_edge(source, label, occur, target)
    }

    fn push_edge(&mut self, source: NodeId, label: LabelId, occur: u32, target: NodeId) -> EdgeId {
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(EdgeData {
            source,
            target,
            label,
            occur,
        });
        self.nodes.data[source.index()]
            .out
            .push(id, &mut self.lists);
        self.nodes.data[target.index()]
            .ins
            .push(id, &mut self.lists);
        id
    }

    /// The code an edge stores for `occur`: its position in the interval
    /// table, which starts with `1` (code 0) and takes every other interval
    /// on first use.
    fn interval_code(&mut self, occur: Interval) -> u32 {
        if self.intervals.is_empty() {
            self.intervals.push(Interval::ONE);
        }
        match self.intervals.iter().position(|&i| i == occur) {
            Some(at) => at as u32,
            None => {
                self.intervals.push(occur);
                (self.intervals.len() - 1) as u32
            }
        }
    }

    /// One load, no branch: a shape graph mixes intervals edge by edge, so
    /// a branch on the code mispredicts in the typing kernels' edge loops.
    #[inline]
    fn interval(&self, code: u32) -> Interval {
        self.intervals[code as usize]
    }

    /// Remove an edge. The edge arena stays dense: the *last* edge is swapped
    /// into the freed slot, so that edge's id is remapped to `edge` while all
    /// other edge ids stay valid. Forward and reverse adjacency are repaired
    /// in place, keeping their order. Returns the removed edge's
    /// `(source, target)`.
    pub fn remove_edge(&mut self, edge: EdgeId) -> (NodeId, NodeId) {
        let EdgeData { source, target, .. } = self.edges.swap_remove(edge.index());
        let data = &mut self.nodes.data;
        data[source.index()].out.remove(edge, &mut self.lists);
        data[target.index()].ins.remove(edge, &mut self.lists);
        if let Some(moved) = self.edges.get(edge.index()) {
            let last = EdgeId(self.edges.len() as u32);
            let rename = |list: &EdgeList, lists: &mut [EdgeId]| {
                for slot in list.get_mut(lists) {
                    if *slot == last {
                        *slot = edge;
                    }
                }
            };
            rename(&data[moved.source.index()].out, &mut self.lists);
            rename(&data[moved.target.index()].ins, &mut self.lists);
        }
        (source, target)
    }

    /// Apply a batch of triple-level changes, maintaining forward and
    /// reverse adjacency in place, and report the *dirty* node set: every
    /// node whose outbound neighbourhood changed (sources of added and
    /// removed edges) plus every newly created node. The dirty set is what
    /// an incremental validator must re-examine; it is collected as the
    /// operations apply, then sorted and deduplicated once. Each of the
    /// delta's labels is mapped to the graph's label id once, on first use.
    ///
    /// # Panics
    /// Panics before changing anything if the delta's names could outgrow
    /// the graph's name arena (4 GiB of name bytes).
    pub fn apply_delta(&mut self, delta: &GraphDelta) -> DeltaReport {
        assert!(
            self.nodes.names.len() + delta.terms.len() <= u32::MAX as usize,
            "the delta's names could exceed the graph's 4 GiB name arena"
        );
        let mut report = DeltaReport::default();
        // The graph's id of each delta label: interned by an addition,
        // looked up (and not interned) by a removal.
        let mut labels: Vec<Option<LabelId>> = vec![None; delta.labels.len()];
        for (op, source, target) in delta.ops() {
            let label = &mut labels[op.label.index()];
            if op.add {
                let source = self.delta_node(source, &mut report);
                let target = self.delta_node(target, &mut report);
                let label = *label
                    .get_or_insert_with(|| self.labels.intern(delta.labels.get(op.label).clone()));
                let one = self.interval_code(Interval::ONE);
                self.push_edge(source, label, one, target);
                report.added_edges += 1;
                report.dirty.push(source);
                continue;
            }
            if label.is_none() {
                *label = self.labels.find(delta.labels.get(op.label).as_str());
            }
            let found = label.and_then(|label| {
                let s = self.find_node(source)?;
                let t = self.find_node(target)?;
                self.out(s).iter().copied().find(|&e| {
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
        report.dirty.sort_unstable();
        report.dirty.dedup();
        report
    }

    fn delta_node(&mut self, name: &str, report: &mut DeltaReport) -> NodeId {
        self.nodes.names.push_str(name);
        match self.commit_name() {
            Ok(id) => {
                report.added_nodes += 1;
                report.dirty.push(id);
                id
            }
            Err(existing) => existing,
        }
    }

    /// Add a plain edge with interval `1` (the only kind allowed in simple
    /// graphs).
    pub fn add_edge(
        &mut self,
        source: NodeId,
        label: impl Into<Label> + AsRef<str>,
        target: NodeId,
    ) -> EdgeId {
        self.add_edge_with(source, label, Interval::ONE, target)
    }

    /// Convenience: add an interval edge between nodes addressed by name
    /// (creating the nodes if necessary).
    pub fn edge_by_name(
        &mut self,
        source: &str,
        label: impl Into<Label> + AsRef<str>,
        occur: Interval,
        target: &str,
    ) -> EdgeId {
        let s = self.node(source);
        let t = self.node(target);
        self.add_edge_with(s, label, occur, t)
    }

    /// The origin node of an edge.
    #[inline]
    pub fn source(&self, edge: EdgeId) -> NodeId {
        self.edges[edge.index()].source
    }

    /// The end point node of an edge.
    #[inline]
    pub fn target(&self, edge: EdgeId) -> NodeId {
        self.edges[edge.index()].target
    }

    /// The predicate label of an edge.
    #[inline]
    pub fn label(&self, edge: EdgeId) -> &Label {
        self.label_of(self.label_id(edge))
    }

    /// The interned label id of an edge.
    #[inline]
    pub fn label_id(&self, edge: EdgeId) -> LabelId {
        self.edges[edge.index()].label
    }

    /// The label behind an interned id.
    #[inline]
    pub fn label_of(&self, id: LabelId) -> &Label {
        self.labels.get(id)
    }

    /// Look up the interned id of a label by name.
    pub fn find_label(&self, name: &str) -> Option<LabelId> {
        self.labels.find(name)
    }

    /// Number of distinct labels used by the graph's edges.
    pub fn label_count(&self) -> usize {
        self.labels.len()
    }

    /// Iterate over all interned label ids, in order of first use.
    pub fn label_ids(&self) -> impl Iterator<Item = LabelId> + '_ {
        (0..self.labels.len() as u32).map(LabelId)
    }

    /// The occurrence interval of an edge.
    #[inline]
    pub fn occur(&self, edge: EdgeId) -> Interval {
        self.interval(self.edges[edge.index()].occur)
    }

    /// The outgoing edges of a node (`out_G(n)` in the paper).
    #[inline]
    pub fn out(&self, node: NodeId) -> &[EdgeId] {
        self.nodes.data[node.index()].out.get(&self.lists)
    }

    /// The out-degree of a node.
    #[inline]
    pub fn out_degree(&self, node: NodeId) -> usize {
        self.out(node).len()
    }

    /// The incoming edges of a node (reverse adjacency).
    #[inline]
    pub fn ins(&self, node: NodeId) -> &[EdgeId] {
        self.nodes.data[node.index()].ins.get(&self.lists)
    }

    /// The in-degree of a node.
    #[inline]
    pub fn in_degree(&self, node: NodeId) -> usize {
        self.ins(node).len()
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
        self.labels.sorted()
    }

    /// Approximate heap footprint of the graph in bytes: every arena's
    /// capacity times its element size (the name text, the node records,
    /// the name index, the edges, the interval table and the edge-list
    /// arena, unused windows included), plus the label table at a flat
    /// per-entry estimate for its B-tree. Interned [`Label`]s are counted as
    /// their `Arc` handle only: the string belongs to whichever table
    /// interned it. Allocator overhead is not counted. This feeds the
    /// containment engine's cache accounting as an estimate, not allocator
    /// truth.
    pub fn approx_heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.nodes.names.capacity()
            + self.nodes.data.capacity() * size_of::<NodeData>()
            + self.index.slots.capacity() * size_of::<u32>()
            + self.edges.capacity() * size_of::<EdgeData>()
            + self.intervals.capacity() * size_of::<Interval>()
            + self.lists.capacity() * size_of::<EdgeId>()
            + self.labels.approx_heap_bytes()
    }

    /// Whether the graph is a *simple graph* (class `G₀`): every edge has
    /// interval `1` and no two edges share source, label, and target.
    pub fn is_simple(&self) -> bool {
        self.edges.iter().all(|e| e.occur == 0) && self.no_parallel_duplicates()
    }

    /// Whether the graph is a *shape graph* (class `ShEx₀`): every edge uses a
    /// basic interval.
    pub fn is_shape_graph(&self) -> bool {
        self.edges.iter().all(|e| self.interval(e.occur).is_basic())
    }

    /// Whether the graph is a *compressed graph*: every edge uses a singleton
    /// interval `[k;k]` and no two edges share source, label, and target.
    pub fn is_compressed(&self) -> bool {
        self.edges
            .iter()
            .all(|e| self.interval(e.occur).singleton().is_some())
            && self.no_parallel_duplicates()
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
                ids.push(out.add_named_node(format_args!("{}#{}", self.node_name(v), i)));
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

/// One queued change in a [`GraphDelta`]: 16 bytes, its names kept in the
/// delta's text.
#[derive(Debug, Clone, Copy)]
struct DeltaOp {
    /// Where the source name ends in the delta's text; it starts where the
    /// previous operation's target ends.
    source_end: u32,
    /// Where the target name ends; it starts at `source_end`.
    target_end: u32,
    /// The label's id in the delta's own label table.
    label: LabelId,
    add: bool,
}

const _: () = assert!(std::mem::size_of::<DeltaOp>() == 16);

/// A batch of triple-level changes to apply atomically to a [`Graph`] via
/// [`Graph::apply_delta`].
///
/// Changes are addressed by node *name* and label text, so a delta can be
/// built straight from a stream of parsed triples without knowing the
/// graph's ids — missing nodes are created on application. Added edges carry
/// interval `1` (deltas target simple graphs, the class validation is
/// defined on); removals match one `(source, label, target)` edge and are
/// counted as misses when no such edge exists.
///
/// A delta holds no string per operation. Every operation's two names are
/// appended to one text arena (a parser's borrowed [`Triple`](crate::Triple)
/// terms are copied there directly), and its label is an id into the
/// delta's own label table, which allocates each distinct label once, so
/// an operation is 16 bytes. [`Graph::apply_delta`] maps the delta's labels
/// to the graph's once per delta.
#[derive(Debug, Clone, Default)]
pub struct GraphDelta {
    /// Every operation's source and target names back to back, in order.
    terms: String,
    ops: Vec<DeltaOp>,
    labels: Labels,
}

impl GraphDelta {
    /// An empty delta.
    pub fn new() -> GraphDelta {
        GraphDelta::default()
    }

    /// Queue the addition of a `source -label-> target` edge with interval
    /// `1`, creating the endpoint nodes if they do not exist yet.
    pub fn add_edge(
        &mut self,
        source: impl AsRef<str>,
        label: impl AsRef<str>,
        target: impl AsRef<str>,
    ) {
        self.push(true, source.as_ref(), label.as_ref(), target.as_ref());
    }

    /// Queue the removal of one `(source, label, target)` edge.
    pub fn remove_edge(
        &mut self,
        source: impl AsRef<str>,
        label: impl AsRef<str>,
        target: impl AsRef<str>,
    ) {
        self.push(false, source.as_ref(), label.as_ref(), target.as_ref());
    }

    /// Queue an RDF triple as an edge addition — the glue between the
    /// N-Triples stream and the graph.
    pub fn add_triple(
        &mut self,
        subject: impl AsRef<str>,
        predicate: impl AsRef<str>,
        object: impl AsRef<str>,
    ) {
        self.add_edge(subject, predicate, object);
    }

    /// # Panics
    /// Panics, with the delta unchanged, if its text would outgrow its
    /// `u32` offsets (4 GiB of names).
    fn push(&mut self, add: bool, source: &str, label: &str, target: &str) {
        assert!(
            self.terms.len() + source.len() + target.len() <= u32::MAX as usize,
            "the delta's names exceed its 4 GiB text arena"
        );
        let label = self.labels.intern(label);
        self.terms.push_str(source);
        let source_end = self.terms.len() as u32;
        self.terms.push_str(target);
        self.ops.push(DeltaOp {
            source_end,
            target_end: self.terms.len() as u32,
            label,
            add,
        });
    }

    /// The queued operations in order, each with its source and target
    /// names.
    fn ops(&self) -> impl Iterator<Item = (&DeltaOp, &str, &str)> + '_ {
        let mut start = 0;
        self.ops.iter().map(move |op| {
            let (source_end, target_end) = (op.source_end as usize, op.target_end as usize);
            let source = &self.terms[start..source_end];
            start = target_end;
            (op, source, &self.terms[source_end..target_end])
        })
    }

    /// Number of queued operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether no operation is queued.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Drop all queued operations, keeping the label table and the
    /// allocations warm.
    pub fn clear(&mut self) {
        self.ops.clear();
        self.terms.clear();
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
        // Ids stay dense and findable, and `labels` sorts, past a handful.
        for i in (0..20).rev() {
            g.add_edge(a, format!("x{i:02}"), b);
        }
        assert_eq!(g.label_count(), 22);
        for id in g.label_ids() {
            assert_eq!(g.find_label(g.label_of(id).as_str()), Some(id));
        }
        let sorted = g.labels();
        assert!(sorted.windows(2).all(|w| w[0] < w[1]), "{sorted:?}");
        assert_eq!(g.find_label("x20"), None);
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
    fn add_node_skips_generated_names_that_are_taken() {
        let mut g = Graph::new();
        let named = g.add_named_node("n1");
        let first = g.add_node();
        assert_eq!(g.node_name(first), "n1_0", "n1 is taken by the named node");
        let mut h = Graph::new();
        h.add_named_node("n2");
        h.add_named_node("n2_0");
        let second = h.add_node();
        assert_eq!(h.node_name(second), "n2_1");
        let third = h.add_node();
        assert_eq!(h.node_name(third), "n3", "free generated names are kept");
        assert_eq!(g.find_node("n1"), Some(named));
        assert_eq!(g.find_node("n1_0"), Some(first));
        assert_eq!(h.find_node("n2_1"), Some(second));
    }

    #[test]
    fn the_name_index_finds_every_name_across_doublings() {
        let mut g = Graph::new();
        assert_eq!(g.approx_heap_bytes(), 0, "nothing allocated before a node");
        let mut sizes = BTreeSet::new();
        for i in 0..10_000u32 {
            assert_eq!(g.add_named_node(format_args!("v{i}")), NodeId(i));
            assert!(2 * g.node_count() <= g.index.slots.len(), "over half full");
            sizes.insert(g.index.slots.len());
        }
        assert!(sizes.len() >= 10, "{} index sizes", sizes.len());
        for v in g.nodes() {
            let name = format!("v{}", v.0);
            assert_eq!(g.node_name(v), name);
            assert_eq!(g.find_node(&name), Some(v));
        }
        for absent in ["v", "v10000", "v01", "", "V1"] {
            assert_eq!(g.find_node(absent), None, "{absent}");
        }
        // A preallocated graph holds its names the same way.
        let mut sized = Graph::with_capacity(3, 2);
        let a = sized.add_named_node("a");
        assert_eq!(sized.node("a"), a);
        assert_eq!(sized.node("b"), NodeId(1));
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

    #[test]
    fn edit_churn_refills_list_windows_without_growing_the_graph() {
        // A hub whose edges are removed and added again, as a stream of
        // edits does: each list refills the room its removals freed.
        let mut g = Graph::new();
        let hub = g.node("hub");
        let leaves: Vec<NodeId> = (0..10).map(|_| g.add_node()).collect();
        for &leaf in &leaves {
            g.add_edge(hub, "p", leaf);
        }
        let settled = g.approx_heap_bytes();
        for round in 0..100 {
            let leaf = leaves[round % leaves.len()];
            let edge = g.ins(leaf)[0];
            g.remove_edge(edge);
            g.add_edge(hub, "p", leaf);
            assert_eq!(g.approx_heap_bytes(), settled, "round {round}");
        }
        assert_eq!(g.out_degree(hub), leaves.len());
        assert_adjacency_consistent(&g);
    }
}
