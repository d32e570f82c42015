//! A graph contracted to its intersections: the core that every distance
//! row searches, and the table that reads any node's distance off it.
//!
//! Road networks are mostly degree-2 *chain nodes*: a street between two
//! intersections is cut into several segments (the paper's OSM graphs
//! average degree 2.2–2.4). On a symmetric graph ([`Graph::is_symmetric`])
//! a node with exactly two arcs, to two distinct neighbours, is a chain
//! node; every other node is a *core* node. Contraction turns each maximal
//! run of chain nodes into one shortcut arc, in both directions, between
//! the two core nodes that end it, weighted with the run's length; each
//! chain node records its ends `a`, `b` and its offsets `pa`, `pb` from
//! them. A run with no core end (a pure cycle) has one node promoted to
//! core, and a run is split, by promoting the node where it would happen,
//! before its shortcut reaches the Dial bound, so contraction never moves a
//! graph between Dial and radix. Directed graphs and graphs without chain
//! nodes contract to themselves: every node is core and its table entry
//! names itself, so every graph takes the same search and the same reads.
//!
//! **Reads.** Given the core distances `D` from a source, any node's
//! distance is `min(D[a] + pa, D[b] + pb)` (a core node is its own end at
//! offset 0), lowered, for the nodes of the source's own run, to the direct
//! along-run distance where that is shorter ([`Contraction::own_run`]).
//! This is exact: a shortcut weighs what its run does, so core distances
//! are graph distances, and every path to a chain node enters its run
//! through one of the run's two ends — except paths that start inside that
//! run, which is what the own run covers.
//!
//! A graph never changes after it is built, so [`Graph::contraction`]
//! builds the contraction once per graph, on first use, and every row and
//! every thread's search arena shares it through an `Arc`.

use crate::{Dist, Graph, NodeId};

/// Largest max edge weight the Dial ring serves; beyond it (or on weight
/// overflow pathologies) rows run the radix heap. 8192 slots keep the
/// ring's head array inside L1. It also bounds every chain shortcut (runs
/// are split before reaching it) and so every chain offset.
pub(crate) const DIAL_MAX_WEIGHT: Dist = 8192;
const _: () = assert!(DIAL_MAX_WEIGHT <= 1 << 16, "chain offsets are u16");

/// Build-time node kinds: a chain node no run walk has reached yet, one
/// that a walk has passed, and a core node.
const CHAIN: u8 = 0;
const WALKED: u8 = 1;
const CORE: u8 = 2;

/// How one node's distance is read off the core distances:
/// `min(D[a] + pa, D[b] + pb)` over core indices `a`, `b`. A core node is
/// its own end at offset 0; a chain node has offsets of at least 1 (every
/// weight is), which is how the two are told apart.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Expand {
    pub(crate) a: u32,
    pub(crate) b: u32,
    pub(crate) pa: u16,
    pub(crate) pb: u16,
}

impl Expand {
    const fn core(index: u32) -> Self {
        Self {
            a: index,
            b: index,
            pa: 0,
            pb: 0,
        }
    }

    pub(crate) fn is_chain(self) -> bool {
        self.pa != 0
    }

    /// The node's distance, `dist` reading core distances with
    /// [`INF`](crate::INF) for unreached (the sums saturate there).
    #[inline]
    pub(crate) fn read(self, dist: impl Fn(u32) -> Dist) -> Dist {
        let da = dist(self.a).saturating_add(Dist::from(self.pa));
        da.min(dist(self.b).saturating_add(Dist::from(self.pb)))
    }
}

/// The arc that leaves chain node `v` away from its neighbour `prev`.
#[inline]
fn step(g: &Graph, v: NodeId, prev: NodeId) -> (NodeId, Dist) {
    let (offsets, targets, weights) = g.csr();
    let lo = offsets[v as usize] as usize;
    let i = lo + usize::from(targets[lo] == prev);
    (targets[i], weights[i])
}

/// Give every chain node waiting in `segment` its far end `end`, `len`
/// away from the segment's start, and its offset from that end.
fn close_segment(segment: &mut Vec<NodeId>, expand: &mut [Expand], end: NodeId, len: Dist) {
    for c in segment.drain(..) {
        let e = &mut expand[c as usize];
        (e.b, e.pb) = (end, (len - Dist::from(e.pa)) as u16);
    }
}

/// The core arc that graph arc `from → to` of weight `w` stands for, with
/// `from` a core node given by its core index: the arc itself when `to` is
/// core, else the shortcut over `to`'s segment to the segment's far end.
#[inline]
pub(crate) fn core_arc(expand: &[Expand], from: u32, to: NodeId, w: Dist) -> (u32, Dist) {
    let e = expand[to as usize];
    if e.is_chain() {
        let far = if e.a == from { e.b } else { e.a };
        (far, Dist::from(e.pa) + Dist::from(e.pb))
    } else {
        (e.a, w)
    }
}

/// A graph contracted to its core ([module docs](self)): the expansion
/// table and the core's arcs, built once per graph by
/// [`Graph::contraction`] and shared read-only by every row
/// ([`Row`](crate::Row)) and every thread's search arena.
#[derive(Debug)]
pub struct Contraction {
    /// One [`Expand`] per node.
    pub(crate) expand: Vec<Expand>,
    /// The graph node of each core index. The radix heap reads each core
    /// node's arcs off the graph's CSR through it and maps them with
    /// [`core_arc`].
    pub(crate) core_node: Vec<NodeId>,
    /// Whether rows run Dial's ring: every live key fits a bounded
    /// circular window — keys in flight span at most `[d, d + max_weight]`,
    /// so a power-of-two ring of more than `max_weight` slots is
    /// collision-free — and no reachable distance (below `n * max_weight`)
    /// can overflow the ring's `u32` distances. Otherwise the radix heap.
    pub(crate) dial: bool,
    /// Dial only: the core's CSR in core-node order, arc offsets (one per
    /// core node plus the arc count) and arcs packed
    /// `(weight << 32) | target`: one sequential stream for the relax loop
    /// (every core weight is below [`DIAL_MAX_WEIGHT`]).
    pub(crate) core_offsets: Vec<u32>,
    pub(crate) adj: Vec<u64>,
    /// Dial only: the heaviest core arc, which sizes the ring.
    pub(crate) max_core_w: Dist,
}

impl Contraction {
    /// Contract `g`: label every run, number the core in node order, then
    /// lay out the core's arcs for Dial's ring when it applies. Flat passes
    /// over the CSR arrays, O(n + arcs), walking every run once.
    pub(crate) fn new(g: &Graph) -> Self {
        let n = g.num_nodes();
        let (offsets, targets, weights) = g.csr();
        let arcs = |v: usize| offsets[v] as usize..offsets[v + 1] as usize;
        let max_w = weights.iter().copied().max().unwrap_or(0);
        let dial =
            max_w < DIAL_MAX_WEIGHT && (n as u64 + 1).saturating_mul(max_w) < u64::from(u32::MAX);
        let symmetric = g.is_symmetric();
        let mut kind: Vec<u8> = (0..n)
            .map(|v| {
                let lo = offsets[v] as usize;
                let chain = symmetric && arcs(v).len() == 2 && targets[lo] != targets[lo + 1];
                if chain {
                    CHAIN
                } else {
                    CORE
                }
            })
            .collect();
        let mut expand = vec![Expand::core(0); n];
        // Walk each run once, from its first core end in node order. A
        // chain node is labelled with its segment's ends (node ids until
        // the core is numbered) and its offsets from them; the node at
        // which a segment's shortcut would reach the Dial bound is promoted
        // and starts the next segment. `segment` holds the labels still
        // waiting for their far end.
        let mut segment: Vec<NodeId> = Vec::new();
        let mut label_run =
            |kind: &mut [u8], expand: &mut [Expand], from: NodeId, first: NodeId, w: Dist| {
                let (mut prev, mut cur, mut start, mut off) = (from, first, from, w);
                while kind[cur as usize] == CHAIN {
                    let (next, w) = step(g, cur, prev);
                    if off.saturating_add(w) >= DIAL_MAX_WEIGHT {
                        close_segment(&mut segment, expand, cur, off);
                        kind[cur as usize] = CORE;
                        (start, off) = (cur, 0);
                    } else {
                        kind[cur as usize] = WALKED;
                        expand[cur as usize] = Expand {
                            a: start,
                            b: start,
                            pa: off as u16,
                            pb: 0,
                        };
                        segment.push(cur);
                    }
                    (prev, cur, off) = (cur, next, off.saturating_add(w));
                }
                close_segment(&mut segment, expand, cur, off);
            };
        for v in 0..n {
            if kind[v] == CORE {
                for i in arcs(v) {
                    label_run(&mut kind, &mut expand, v as NodeId, targets[i], weights[i]);
                }
            }
        }
        // What no core end reached is a pure cycle: promote one node each.
        for v in 0..n {
            if kind[v] == CHAIN {
                kind[v] = CORE;
                let lo = offsets[v] as usize;
                label_run(
                    &mut kind,
                    &mut expand,
                    v as NodeId,
                    targets[lo],
                    weights[lo],
                );
            }
        }
        // Number the core in node order, then point the labels at it.
        let core_node: Vec<NodeId> = (0..n as NodeId)
            .filter(|&v| kind[v as usize] == CORE)
            .collect();
        for (i, &v) in core_node.iter().enumerate() {
            expand[v as usize] = Expand::core(i as u32);
        }
        for (v, &k) in kind.iter().enumerate() {
            if k != CORE {
                let e = expand[v];
                (expand[v].a, expand[v].b) = (expand[e.a as usize].a, expand[e.b as usize].a);
            }
        }
        let (mut core_offsets, mut adj, mut max_core_w) = (Vec::new(), Vec::new(), 0);
        if dial {
            // The core's CSR: an arc to a core node stays, an arc into a
            // segment becomes the shortcut to the segment's far end.
            core_offsets.reserve(core_node.len() + 1);
            adj.reserve(core_node.iter().map(|&v| arcs(v as usize).len()).sum());
            for (from, &v) in core_node.iter().enumerate() {
                core_offsets.push(adj.len() as u32);
                for i in arcs(v as usize) {
                    let (to, len) = core_arc(&expand, from as u32, targets[i], weights[i]);
                    max_core_w = max_core_w.max(len);
                    adj.push((len << 32) | u64::from(to));
                }
            }
            core_offsets.push(adj.len() as u32);
        }
        Self {
            expand,
            core_node,
            dial,
            core_offsets,
            adj,
            max_core_w,
        }
    }

    /// Number of core nodes: the distances a search settles, and the
    /// entries a [`Row`](crate::Row) holds.
    pub fn core_len(&self) -> usize {
        self.core_node.len()
    }

    /// Walk `source`'s own run when it is a chain node: call
    /// `visit(v, d)` for the source itself (`d = 0`) and for every other
    /// chain node of its segment, `d` the direct along-run distance from
    /// the source. Returns the number of visits (0 for a core source).
    ///
    /// A run walk stops at core nodes, promoted ones included, so this is
    /// the segment; its length is below [`DIAL_MAX_WEIGHT`], so the sums
    /// are small.
    pub(crate) fn own_run(
        &self,
        g: &Graph,
        source: NodeId,
        mut visit: impl FnMut(NodeId, Dist),
    ) -> usize {
        if !self.expand[source as usize].is_chain() {
            return 0;
        }
        visit(source, 0);
        let mut visits = 1;
        for (first, w) in g.neighbors(source) {
            let (mut prev, mut cur, mut len) = (source, first, w);
            while self.expand[cur as usize].is_chain() {
                visit(cur, len);
                visits += 1;
                let (next, w) = step(g, cur, prev);
                (prev, cur, len) = (cur, next, len + w);
            }
        }
        visits
    }
}
