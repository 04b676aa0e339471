//! Control-flow graphs over the CIMP `Com` AST.
//!
//! The frame-stack semantics in `cimp::step` resolves structural commands
//! (`Seq`, `If`, `While`, `Loop`, `Choose`) without producing transitions,
//! so the CFG gives each *atomic* command (`LocalOp`, `Request`,
//! `Response`) a node of its own, carrying its label and
//! [`MemEffect`](cimp::MemEffect) annotation. Structural branch/join points
//! (`If`/`While`/`Loop`/`Choose`) get lightweight `Branch` nodes: they
//! never execute, but they keep the edge relation small and make loops and
//! dominators easy to read in the dot dump.
//!
//! Conditions are opaque Rust closures, so both arms of every branch are
//! considered reachable: the graph over-approximates control flow, which is
//! the right direction for the may-buffered-write analysis built on top.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use cimp::{Com, ComId, Label, MemEffect, Program};

/// Index of a node within its [`Cfg`].
pub type NodeId = usize;

/// What a CFG node stands for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// The unique virtual entry node.
    Entry,
    /// The unique virtual exit node (unreachable for non-terminating
    /// programs such as the collector's `LOOP`).
    Exit,
    /// An atomic command — the only nodes that execute.
    Atomic,
    /// A structural branch/join point (`If`, `While`, `Loop`, `Choose`).
    Branch,
}

/// One CFG node.
#[derive(Debug, Clone)]
pub struct Node {
    /// The node's role.
    pub kind: NodeKind,
    /// The arena command this node was built from (absent for entry/exit).
    pub com: Option<ComId>,
    /// The command's label (atomic nodes), or the structural kind
    /// (`"if"`, `"while"`, `"loop"`, `"choose"`) for branch nodes.
    pub label: Option<Label>,
    /// The command's memory-effect annotation, if any.
    pub effect: Option<MemEffect>,
}

/// A control-flow graph for one CIMP process.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// Display name of the process (`"gc"`, `"mutator-0"`, …).
    pub name: String,
    nodes: Vec<Node>,
    succs: Adjacency,
    preds: Adjacency,
    entry: NodeId,
    exit: NodeId,
    /// The node of each arena command, by its index.
    by_com: Vec<Option<NodeId>>,
}

/// A command's place in arena-indexed tables.
fn slot(com: ComId) -> usize {
    usize::from(com.raw())
}

/// Each node's neighbours in one direction, sorted and distinct: node
/// `n`'s are `targets[starts[n]..starts[n + 1]]`.
#[derive(Debug, Clone)]
struct Adjacency {
    starts: Vec<usize>,
    targets: Vec<NodeId>,
}

impl Adjacency {
    /// The adjacency of `len` nodes with the edges `pairs`, each a
    /// `(node, neighbour)` pair, in any order and possibly repeated.
    fn new(len: usize, mut pairs: Vec<(NodeId, NodeId)>) -> Self {
        pairs.sort_unstable();
        pairs.dedup();
        let mut starts = vec![0; len + 1];
        for &(n, _) in &pairs {
            starts[n + 1] += 1;
        }
        for n in 0..len {
            starts[n + 1] += starts[n];
        }
        let targets = pairs.into_iter().map(|(_, m)| m).collect();
        Adjacency { starts, targets }
    }

    fn of(&self, n: NodeId) -> &[NodeId] {
        &self.targets[self.starts[n]..self.starts[n + 1]]
    }
}

/// A run of node ids in [`Builder::lists`].
#[derive(Clone, Copy)]
struct Span {
    start: usize,
    end: usize,
}

struct Builder<'p, S, Req, Resp> {
    p: &'p Program<S, Req, Resp>,
    cfg: Cfg,
    /// Memoised `(entry points, exit frontier)` per structural subtree, by
    /// arena index, so shared sub-programs are walked once.
    shapes: Vec<Option<(Span, Span)>>,
    /// The node lists the shapes' spans point into; only ever appended to.
    lists: Vec<NodeId>,
    /// Every edge added, as a `(from, to)` pair.
    edges: Vec<(NodeId, NodeId)>,
}

impl<'p, S, Req, Resp> Builder<'p, S, Req, Resp> {
    fn add(&mut self, node: Node) -> NodeId {
        let id = self.cfg.nodes.len();
        self.cfg.nodes.push(node);
        id
    }

    /// An edge from every node of `from` to every node of `to`.
    fn edges(&mut self, from: Span, to: Span) {
        for x in from.start..from.end {
            for e in to.start..to.end {
                self.edges.push((self.lists[x], self.lists[e]));
            }
        }
    }

    /// The nodes `nodes`, appended as a span.
    fn span(&mut self, nodes: impl IntoIterator<Item = NodeId>) -> Span {
        let start = self.lists.len();
        self.lists.extend(nodes);
        Span {
            start,
            end: self.lists.len(),
        }
    }

    /// The nodes of `spans`, concatenated into one span.
    fn join(&mut self, spans: &[Span]) -> Span {
        let start = self.lists.len();
        for s in spans {
            self.lists.extend_from_within(s.start..s.end);
        }
        Span {
            start,
            end: self.lists.len(),
        }
    }

    fn node_for(&mut self, com: ComId, kind: NodeKind, label: Label) -> NodeId {
        if let Some(n) = self.cfg.by_com[slot(com)] {
            return n;
        }
        let n = self.add(Node {
            kind,
            com: Some(com),
            label: Some(label),
            effect: self.p.effect(com),
        });
        self.cfg.by_com[slot(com)] = Some(n);
        n
    }

    /// Computes the shape of the subtree rooted at `id`: the nodes an
    /// incoming edge should target, and the nodes control leaves through.
    /// An empty exit frontier means the subtree never terminates (`Loop`).
    fn shape(&mut self, id: ComId) -> (Span, Span) {
        if let Some(s) = self.shapes[slot(id)] {
            return s;
        }
        let result = match self.p.com(id) {
            Com::LocalOp { label, .. }
            | Com::Request { label, .. }
            | Com::Response { label, .. } => {
                let label = *label;
                let n = self.node_for(id, NodeKind::Atomic, label);
                let only = self.span([n]);
                (only, only)
            }
            Com::Seq(a, b) => {
                let (a, b) = (*a, *b);
                let (ea, xa) = self.shape(a);
                let (eb, xb) = self.shape(b);
                self.edges(xa, eb);
                (ea, xb)
            }
            Com::If { then_c, else_c, .. } => {
                let (then_c, else_c) = (*then_c, *else_c);
                let n = self.node_for(id, NodeKind::Branch, "if");
                let branch = self.span([n]);
                let (et, xt) = self.shape(then_c);
                self.edges(branch, et);
                let exits = match else_c {
                    Some(ec) => {
                        let (ee, xe) = self.shape(ec);
                        self.edges(branch, ee);
                        self.join(&[xt, xe])
                    }
                    // A missing else-arm falls through structurally: the
                    // branch node itself is an exit of the subtree.
                    None => self.join(&[xt, branch]),
                };
                (branch, exits)
            }
            Com::While { body, .. } => {
                let body = *body;
                let n = self.node_for(id, NodeKind::Branch, "while");
                let head = self.span([n]);
                let (eb, xb) = self.shape(body);
                self.edges(head, eb);
                self.edges(xb, head); // back edge
                (head, head)
            }
            Com::Loop(body) => {
                let body = *body;
                let n = self.node_for(id, NodeKind::Branch, "loop");
                let head = self.span([n]);
                let (eb, xb) = self.shape(body);
                self.edges(head, eb);
                self.edges(xb, head); // back edge
                (head, self.span([])) // LOOP never terminates
            }
            Com::Choose(branches) => {
                let n = self.node_for(id, NodeKind::Branch, "choose");
                let head = self.span([n]);
                let mut exits = Vec::with_capacity(branches.len());
                for &b in branches {
                    let (eb, xb) = self.shape(b);
                    self.edges(head, eb);
                    exits.push(xb);
                }
                (head, self.join(&exits))
            }
        };
        self.shapes[slot(id)] = Some(result);
        result
    }
}

impl Cfg {
    /// Builds the CFG of `p`, rooted at its entry point.
    ///
    /// # Panics
    ///
    /// Panics if `p` has no entry point.
    pub fn from_program<S, Req, Resp>(name: impl Into<String>, p: &Program<S, Req, Resp>) -> Cfg {
        let mut b = Builder {
            p,
            cfg: Cfg {
                name: name.into(),
                nodes: Vec::with_capacity(p.len() + 2),
                succs: Adjacency::new(0, Vec::new()),
                preds: Adjacency::new(0, Vec::new()),
                entry: 0,
                exit: 0,
                by_com: vec![None; p.len()],
            },
            shapes: vec![None; p.len()],
            lists: Vec::with_capacity(2 * p.len()),
            edges: Vec::with_capacity(2 * p.len()),
        };
        let entry = b.add(Node {
            kind: NodeKind::Entry,
            com: None,
            label: None,
            effect: None,
        });
        b.cfg.entry = entry;
        let (starts, exits) = b.shape(p.entry());
        let entry = b.span([entry]);
        b.edges(entry, starts);
        let exit = b.add(Node {
            kind: NodeKind::Exit,
            com: None,
            label: None,
            effect: None,
        });
        b.cfg.exit = exit;
        let exit = b.span([exit]);
        b.edges(exits, exit);
        let len = b.cfg.nodes.len();
        let reversed = b.edges.iter().map(|&(from, to)| (to, from)).collect();
        b.cfg.preds = Adjacency::new(len, reversed);
        b.cfg.succs = Adjacency::new(len, b.edges);
        b.cfg
    }

    /// The virtual entry node.
    pub fn entry(&self) -> NodeId {
        self.entry
    }

    /// The virtual exit node.
    pub fn exit(&self) -> NodeId {
        self.exit
    }

    /// Number of nodes (including entry/exit).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes (never true for built graphs).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node at `n`.
    pub fn node(&self, n: NodeId) -> &Node {
        &self.nodes[n]
    }

    /// Successors of `n`.
    pub fn succs(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.succs.of(n).iter().copied()
    }

    /// Predecessors of `n`.
    pub fn preds(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.preds.of(n).iter().copied()
    }

    /// All node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        0..self.nodes.len()
    }

    /// The node built for arena command `com`, if it is reachable.
    pub fn node_of_com(&self, com: ComId) -> Option<NodeId> {
        self.by_com.get(slot(com)).copied().flatten()
    }

    /// Nodes that execute (atomic commands), in id order.
    pub fn atomic_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.node_ids()
            .filter(|&n| self.nodes[n].kind == NodeKind::Atomic)
    }

    /// The display label of `n` for reports: the command label, the
    /// structural kind, or `entry`/`exit`.
    pub fn display_label(&self, n: NodeId) -> &str {
        match self.nodes[n].kind {
            NodeKind::Entry => "entry",
            NodeKind::Exit => "exit",
            _ => self.nodes[n].label.unwrap_or("?"),
        }
    }

    /// Set of nodes reachable from the entry (always the whole graph by
    /// construction, except possibly the exit node).
    pub fn reachable(&self) -> BTreeSet<NodeId> {
        let mut seen = BTreeSet::new();
        let mut stack = vec![self.entry];
        while let Some(n) = stack.pop() {
            if seen.insert(n) {
                stack.extend(self.succs(n));
            }
        }
        seen
    }

    /// Dominator sets: [`Dominators::of`] `n` is the set of nodes on
    /// *every* path from the entry to `n` (including `n`). Computed by the
    /// classic iterative intersection over bitsets, which is plenty for
    /// graphs of this size.
    pub fn dominators(&self) -> Dominators {
        let words = self.len().div_ceil(64);
        let mut all = vec![0u64; words];
        for n in self.node_ids() {
            all[n / 64] |= 1 << (n % 64);
        }
        let mut bits = all.repeat(self.len());
        let mut meet = vec![0u64; words];
        meet[self.entry / 64] = 1 << (self.entry % 64);
        bits[self.entry * words..][..words].copy_from_slice(&meet);
        let mut changed = true;
        while changed {
            changed = false;
            for n in self.node_ids() {
                if n == self.entry {
                    continue;
                }
                let preds = self.preds.of(n);
                if preds.is_empty() {
                    meet.fill(0);
                } else {
                    meet.copy_from_slice(&all);
                }
                for &p in preds {
                    for (word, dom) in meet.iter_mut().zip(&bits[p * words..][..words]) {
                        *word &= dom;
                    }
                }
                meet[n / 64] |= 1 << (n % 64);
                let dom = &mut bits[n * words..][..words];
                if *dom != *meet {
                    dom.copy_from_slice(&meet);
                    changed = true;
                }
            }
        }
        Dominators { words, bits }
    }

    /// Whether `from` can reach `to` along edges whose *source* node
    /// satisfies `through` (used by the handshake lint: delete the
    /// handshake nodes, then test for cycles).
    pub fn reaches_through(
        &self,
        from: NodeId,
        to: NodeId,
        through: impl Fn(NodeId) -> bool,
    ) -> bool {
        let mut seen = vec![false; self.len()];
        let mut stack: Vec<NodeId> = if through(from) {
            self.succs(from).collect()
        } else {
            return false;
        };
        while let Some(n) = stack.pop() {
            if n == to {
                return true;
            }
            if !std::mem::replace(&mut seen[n], true) && through(n) {
                stack.extend(self.succs(n));
            }
        }
        false
    }

    /// Graphviz dot rendering: atomic nodes as boxes labelled
    /// `label\n<effect>`, branch nodes as small diamonds.
    pub fn to_dot(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "digraph \"{}\" {{", self.name);
        let _ = writeln!(out, "  rankdir=TB;");
        for n in self.node_ids() {
            let node = &self.nodes[n];
            let (shape, label) = match node.kind {
                NodeKind::Entry => ("circle", "entry".to_string()),
                NodeKind::Exit => ("doublecircle", "exit".to_string()),
                NodeKind::Branch => ("diamond", node.label.unwrap_or("?").to_string()),
                NodeKind::Atomic => {
                    let effect = match node.effect {
                        Some(e) => e.to_string(),
                        None => "unannotated".to_string(),
                    };
                    ("box", format!("{}\\n{}", node.label.unwrap_or("?"), effect))
                }
            };
            let _ = writeln!(out, "  n{n} [shape={shape}, label=\"{label}\"];");
        }
        for n in self.node_ids() {
            for s in self.succs(n) {
                let _ = writeln!(out, "  n{n} -> n{s};");
            }
        }
        out.push_str("}\n");
        out
    }
}

/// Every node's dominator set, as bitsets: what [`Cfg::dominators`]
/// gives.
#[derive(Debug, Clone)]
pub struct Dominators {
    /// Words per set.
    words: usize,
    bits: Vec<u64>,
}

impl Dominators {
    /// The nodes on every path from the entry to `n`, `n` included.
    pub fn of(&self, n: NodeId) -> NodeSet<'_> {
        NodeSet {
            words: &self.bits[n * self.words..][..self.words],
        }
    }
}

/// A set of the nodes of one graph, as a bitset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeSet<'a> {
    words: &'a [u64],
}

impl NodeSet<'_> {
    /// Whether `n` is in the set.
    pub fn contains(&self, n: NodeId) -> bool {
        self.words
            .get(n / 64)
            .is_some_and(|word| word >> (n % 64) & 1 == 1)
    }

    /// The nodes in the set, in id order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        let words = self.words.iter().enumerate();
        words.flat_map(|(w, &word)| {
            (0..64)
                .filter(move |b| word >> b & 1 == 1)
                .map(move |b| w * 64 + b)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type P = Program<u32, u8, u8>;

    fn annotated(p: &mut P, label: Label, e: MemEffect) -> ComId {
        let id = p.skip(label);
        p.annotate(id, e)
    }

    #[test]
    fn straight_line_cfg() {
        let mut p = P::new();
        let a = annotated(&mut p, "a", MemEffect::Store("x"));
        let b = annotated(&mut p, "b", MemEffect::Load("y"));
        let s = p.seq([a, b]);
        p.set_entry(s);
        let cfg = Cfg::from_program("t", &p);
        // entry, a, b, exit
        assert_eq!(cfg.len(), 4);
        let na = cfg.node_of_com(a).unwrap();
        let nb = cfg.node_of_com(b).unwrap();
        assert_eq!(cfg.succs(cfg.entry()).collect::<Vec<_>>(), vec![na]);
        assert_eq!(cfg.succs(na).collect::<Vec<_>>(), vec![nb]);
        assert_eq!(cfg.succs(nb).collect::<Vec<_>>(), vec![cfg.exit()]);
        assert_eq!(cfg.node(na).effect, Some(MemEffect::Store("x")));
    }

    #[test]
    fn if_without_else_falls_through() {
        let mut p = P::new();
        let t = annotated(&mut p, "then", MemEffect::Fence);
        let i = p.if_then(|_| true, t);
        let after = annotated(&mut p, "after", MemEffect::Pure);
        let s = p.seq([i, after]);
        p.set_entry(s);
        let cfg = Cfg::from_program("t", &p);
        let nt = cfg.node_of_com(t).unwrap();
        let ni = cfg.node_of_com(i).unwrap();
        let na = cfg.node_of_com(after).unwrap();
        // The branch node reaches both the then-arm and (fall-through) the
        // continuation.
        let succs: Vec<_> = cfg.succs(ni).collect();
        assert!(succs.contains(&nt) && succs.contains(&na));
        assert_eq!(cfg.succs(nt).collect::<Vec<_>>(), vec![na]);
    }

    #[test]
    fn while_has_back_edge_and_exit() {
        let mut p = P::new();
        let body = annotated(&mut p, "body", MemEffect::Store("x"));
        let w = p.while_do(|_| true, body);
        let after = annotated(&mut p, "after", MemEffect::Load("x"));
        let s = p.seq([w, after]);
        p.set_entry(s);
        let cfg = Cfg::from_program("t", &p);
        let nw = cfg.node_of_com(w).unwrap();
        let nb = cfg.node_of_com(body).unwrap();
        let na = cfg.node_of_com(after).unwrap();
        assert!(cfg.succs(nw).collect::<Vec<_>>().contains(&nb));
        assert_eq!(cfg.succs(nb).collect::<Vec<_>>(), vec![nw]); // back edge
        assert!(cfg.succs(nw).collect::<Vec<_>>().contains(&na));
    }

    #[test]
    fn loop_never_reaches_exit() {
        let mut p = P::new();
        let body = annotated(&mut p, "body", MemEffect::Pure);
        let l = p.loop_forever(body);
        p.set_entry(l);
        let cfg = Cfg::from_program("t", &p);
        assert!(!cfg.reachable().contains(&cfg.exit()));
    }

    #[test]
    fn choose_fans_out_and_rejoins() {
        let mut p = P::new();
        let a = annotated(&mut p, "a", MemEffect::Pure);
        let b = annotated(&mut p, "b", MemEffect::Pure);
        let c = p.choose([a, b]);
        let after = annotated(&mut p, "after", MemEffect::Pure);
        let s = p.seq([c, after]);
        p.set_entry(s);
        let cfg = Cfg::from_program("t", &p);
        let nc = cfg.node_of_com(c).unwrap();
        let na = cfg.node_of_com(after).unwrap();
        assert_eq!(cfg.succs(nc).count(), 2);
        assert_eq!(cfg.preds(na).count(), 2);
    }

    #[test]
    fn dominators_on_a_diamond() {
        let mut p = P::new();
        let t = annotated(&mut p, "t", MemEffect::Pure);
        let e = annotated(&mut p, "e", MemEffect::Pure);
        let i = p.if_else(|_| true, t, e);
        let join = annotated(&mut p, "join", MemEffect::Pure);
        let s = p.seq([i, join]);
        p.set_entry(s);
        let cfg = Cfg::from_program("t", &p);
        let dom = cfg.dominators();
        let ni = cfg.node_of_com(i).unwrap();
        let nt = cfg.node_of_com(t).unwrap();
        let nj = cfg.node_of_com(join).unwrap();
        assert!(dom.of(nj).contains(ni), "branch dominates join");
        assert!(!dom.of(nj).contains(nt), "one arm does not dominate join");
        assert_eq!(dom.of(nj).iter().collect::<Vec<_>>(), [cfg.entry(), ni, nj]);
    }

    #[test]
    fn dot_dump_mentions_labels_and_effects() {
        let mut p = P::new();
        let a = annotated(&mut p, "store-x", MemEffect::Store("x"));
        p.set_entry(a);
        let cfg = Cfg::from_program("demo", &p);
        let dot = cfg.to_dot();
        assert!(dot.starts_with("digraph \"demo\""));
        assert!(dot.contains("store-x\\nstore x"));
        assert!(dot.contains("->"));
    }
}
