//! Compressed-sparse-row weighted graph.
//!
//! The paper's networks are large (up to millions of nodes) and sparse
//! (average degree ≈ 2.2–2.4, Table III), and the algorithms traverse them
//! with Dijkstra instances only — no mutation after construction. CSR is the
//! canonical representation for that access pattern: adjacency of a node is a
//! contiguous slice, no per-node allocation, cache-friendly scans.

use std::sync::{Arc, OnceLock};

use crate::{connected_components, ComponentInfo, Contraction, Dist, Point};

/// Node identifier. `u32` suffices for the paper's million-node networks and
/// halves index memory versus `usize` (see the type-size guidance in the Rust
/// Performance Book).
pub type NodeId = u32;

/// Index of a directed arc in the CSR arrays.
pub type EdgeId = u32;

/// A weighted graph in CSR form with optional planar node coordinates.
///
/// The graph stores *directed arcs*; [`GraphBuilder::add_edge`] inserts both
/// directions for an undirected road segment, while
/// [`GraphBuilder::add_arc`] inserts a one-way arc. Self-loops are rejected
/// at build time, parallel arcs are kept (harmless for shortest paths).
/// [`Graph::is_symmetric`] tells whether the arcs read the same reversed,
/// i.e. whether `d(u, v) = d(v, u)` for every pair, and
/// [`Graph::components`] labels its weakly connected components, and
/// [`Graph::contraction`] contracts its degree-2 road chains for the
/// distance rows; all three are computed once per graph on first use.
///
/// ```
/// use mcfs_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1, 120); // two-way street, 120 m
/// b.add_arc(1, 2, 80);   // one-way street
/// let g = b.build();
/// assert_eq!(g.num_nodes(), 3);
/// assert_eq!(g.num_arcs(), 3);
/// assert_eq!(g.neighbors(1).count(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct Graph {
    /// `offsets[v]..offsets[v+1]` indexes `targets`/`weights` for node `v`.
    offsets: Vec<u32>,
    targets: Vec<NodeId>,
    weights: Vec<Dist>,
    /// Optional planar coordinates, used by generators, the Hilbert baseline
    /// and geometry-aware heuristics. Algorithms never *require* them.
    coords: Option<Vec<Point>>,
    /// Hash of the CSR arrays, computed once at build time. Two graphs with
    /// equal hashes have identical arc structure (modulo hash collisions),
    /// so caches keyed by it (the oracle's row cache) can detect that a
    /// *different* graph of the same size was swapped in.
    structural_hash: u64,
    /// Caller-chosen identity salt (0 by default). Two *isomorphic* graphs
    /// hash identically on structure alone — which is exactly wrong for
    /// extracted sub-graphs whose local node ids mean different global
    /// nodes. Extraction stamps a salt derived from the global ids so
    /// caches keyed by the graph identity (the `DistanceOracle` row cache)
    /// can never serve one sub-graph's rows to another.
    id_salt: u64,
    /// [`Graph::is_symmetric`], computed on first use.
    symmetric: OnceLock<bool>,
    /// [`Graph::components`], computed on first use.
    components: OnceLock<ComponentInfo>,
    /// [`Graph::contraction`], computed on first use.
    contraction: OnceLock<Arc<Contraction>>,
}

impl Graph {
    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed arcs (an undirected edge counts twice).
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.targets.len()
    }

    /// Number of undirected edges assuming the graph was built undirected.
    #[inline]
    pub fn num_edges_undirected(&self) -> usize {
        self.targets.len() / 2
    }

    /// Out-neighbors of `v` as parallel `(target, weight)` slices.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> impl Iterator<Item = (NodeId, Dist)> + '_ {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        self.targets[lo..hi]
            .iter()
            .copied()
            .zip(self.weights[lo..hi].iter().copied())
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    /// Planar coordinates, if the graph carries them.
    #[inline]
    pub fn coords(&self) -> Option<&[Point]> {
        self.coords.as_deref()
    }

    /// Coordinate of one node; panics if the graph carries no coordinates.
    #[inline]
    pub fn coord(&self, v: NodeId) -> Point {
        self.coords.as_ref().expect("graph has no coordinates")[v as usize]
    }

    /// Mean out-degree — reported in Table III of the paper.
    pub fn avg_degree(&self) -> f64 {
        if self.num_nodes() == 0 {
            return 0.0;
        }
        self.num_arcs() as f64 / self.num_nodes() as f64
    }

    /// Maximum out-degree — reported in Table III of the paper.
    pub fn max_degree(&self) -> usize {
        (0..self.num_nodes() as NodeId)
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Mean arc weight — "avg edge length" in Table III of the paper.
    pub fn avg_edge_length(&self) -> f64 {
        if self.weights.is_empty() {
            return 0.0;
        }
        self.weights.iter().map(|&w| w as f64).sum::<f64>() / self.weights.len() as f64
    }

    /// Iterate over all node ids.
    #[inline]
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        0..self.num_nodes() as NodeId
    }

    /// The raw CSR arrays `(offsets, targets, weights)` for hot loops that
    /// want slice iteration without the per-node iterator plumbing —
    /// `targets[offsets[v]..offsets[v+1]]` are `v`'s out-neighbors with the
    /// parallel weights slice.
    #[inline]
    pub fn csr(&self) -> (&[u32], &[NodeId], &[Dist]) {
        (&self.offsets, &self.targets, &self.weights)
    }

    /// Structural hash of the CSR arrays, computed once at build time.
    /// Equal structure ⇒ equal hash; different weights or arcs give a
    /// different hash with overwhelming probability. Used to key
    /// per-structure caches (the oracle's row cache).
    #[inline]
    pub fn structural_hash(&self) -> u64 {
        self.structural_hash
    }

    /// The graph's identity salt (0 unless [`GraphBuilder::set_id_salt`]
    /// or [`Graph::induced`] stamped one). Folded into cache fingerprints
    /// so two structurally identical graphs with different salts never
    /// alias each other's cached rows.
    #[inline]
    pub fn id_salt(&self) -> u64 {
        self.id_salt
    }

    /// Whether the arc multiset equals its own reversal: every arc
    /// `u → v` of weight `w` is matched by an arc `v → u` of weight `w`,
    /// parallel arcs counted. Graphs built from [`GraphBuilder::add_edge`]
    /// alone are symmetric; one unmatched [`GraphBuilder::add_arc`] makes a
    /// graph directed. On a symmetric graph `d(u, v) = d(v, u)` for every
    /// pair, so a row filled from `v` also holds every distance *to* `v`.
    ///
    /// Exact, computed once per graph on first call (one sort of each
    /// node's adjacency, `O(arcs · log degree)`), then cached; a
    /// [`Graph::induced`] sub-graph of a symmetric graph starts out known
    /// to be symmetric.
    pub fn is_symmetric(&self) -> bool {
        *self.symmetric.get_or_init(|| {
            // Each node's out-arcs sorted by (target, weight), so an arc's
            // multiplicity is a run length and its reversal a binary search.
            let mut adj: Vec<(NodeId, Dist)> = self
                .targets
                .iter()
                .copied()
                .zip(self.weights.iter().copied())
                .collect();
            let slice = |v: NodeId| {
                self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize
            };
            for v in self.nodes() {
                adj[slice(v)].sort_unstable();
            }
            let count = |arcs: &[(NodeId, Dist)], arc: (NodeId, Dist)| {
                let lo = arcs.partition_point(|&a| a < arc);
                arcs[lo..].iter().take_while(|&&a| a == arc).count()
            };
            self.nodes().all(|u| {
                let out = &adj[slice(u)];
                out.iter().enumerate().all(|(i, &(v, w))| {
                    // Compare each distinct (target, weight) run once.
                    (i > 0 && out[i - 1] == (v, w))
                        || count(out, (v, w)) == count(&adj[slice(v)], (u, w))
                })
            })
        })
    }

    /// The weakly connected components ([`connected_components`]).
    ///
    /// A graph never changes after [`GraphBuilder::build`], so the labels
    /// are computed once per graph on first call (one BFS over every node)
    /// and every later call borrows the same labelling; a clone carries the
    /// labels along. [`connected_components`] is the uncached computation.
    pub fn components(&self) -> &ComponentInfo {
        self.components.get_or_init(|| connected_components(self))
    }

    /// The graph contracted to its core ([`Contraction`]): the expansion
    /// table and core arcs every distance row ([`crate::Row`],
    /// [`crate::fill_row`]) searches and reads through.
    ///
    /// Built once per graph on first call (flat passes over the CSR, every
    /// degree-2 run walked once) and shared by reference: every row holds
    /// an `Arc` to it, every thread's search arena reads it, and a clone of
    /// the graph carries the same one.
    pub fn contraction(&self) -> &Arc<Contraction> {
        self.contraction
            .get_or_init(|| Arc::new(Contraction::new(self)))
    }

    /// The sub-graph induced by `nodes`, stamped with `id_salt`, and the
    /// number of arcs that leave it. Local node `i` is `nodes[i]` (its
    /// coordinate comes along); `local(v)` is the local id of member `v`
    /// and `None` for every other node. Each arc `u → v` of a member `u`
    /// is kept, as `local(u) → local(v)`, when `v` is a member too, and
    /// counted as leaving otherwise.
    ///
    /// The CSR arrays, and so [`structural_hash`](Self::structural_hash),
    /// equal those of a [`GraphBuilder`] fed the kept arcs in the same
    /// order, but no arc list is built: one pass copies the kept arcs into
    /// arrays sized by the members' out-degrees, trimmed to the kept count
    /// after. The sub-graph of a symmetric graph holds every kept arc's
    /// reversal, so it starts out known to be symmetric.
    pub fn induced(
        &self,
        nodes: &[NodeId],
        local: impl Fn(NodeId) -> Option<NodeId>,
        id_salt: u64,
    ) -> (Graph, usize) {
        let out_arcs = nodes.iter().map(|&u| self.degree(u)).sum();
        let mut offsets = Vec::with_capacity(nodes.len() + 1);
        let mut targets = Vec::with_capacity(out_arcs);
        let mut weights = Vec::with_capacity(out_arcs);
        offsets.push(0u32);
        for (i, &u) in nodes.iter().enumerate() {
            debug_assert_eq!(local(u), Some(i as NodeId), "nodes[i] is local node i");
            for (v, w) in self.neighbors(u) {
                if let Some(lv) = local(v) {
                    debug_assert!((lv as usize) < nodes.len(), "local ids index nodes");
                    targets.push(lv);
                    weights.push(w);
                }
            }
            offsets.push(targets.len() as u32);
        }
        let leaving = out_arcs - targets.len();
        targets.shrink_to_fit();
        weights.shrink_to_fit();
        let coords = self
            .coords
            .as_ref()
            .map(|points| nodes.iter().map(|&v| points[v as usize]).collect());
        let graph = Graph::from_csr(offsets, targets, weights, coords, id_salt);
        if self.is_symmetric() {
            let _ = graph.symmetric.set(true);
        }
        (graph, leaving)
    }

    /// A graph over finished CSR arrays; its derived properties start out
    /// unknown.
    fn from_csr(
        offsets: Vec<u32>,
        targets: Vec<NodeId>,
        weights: Vec<Dist>,
        coords: Option<Vec<Point>>,
        id_salt: u64,
    ) -> Graph {
        let structural_hash = hash_csr(&offsets, &targets, &weights);
        Graph {
            offsets,
            targets,
            weights,
            coords,
            structural_hash,
            id_salt,
            symmetric: OnceLock::new(),
            components: OnceLock::new(),
            contraction: OnceLock::new(),
        }
    }
}

/// FxHash-style mixing over the CSR arrays. One pass at build time; the
/// speed of FxHasher makes this negligible next to the counting sort.
fn hash_csr(offsets: &[u32], targets: &[NodeId], weights: &[Dist]) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = rustc_hash::FxHasher::default();
    offsets.hash(&mut h);
    targets.hash(&mut h);
    weights.hash(&mut h);
    h.finish()
}

/// Incremental builder for [`Graph`].
///
/// Collects an edge list, then performs a single counting-sort pass into CSR.
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    num_nodes: usize,
    arcs: Vec<(NodeId, NodeId, Dist)>,
    coords: Option<Vec<Point>>,
    id_salt: u64,
}

impl GraphBuilder {
    /// Builder for a graph with `num_nodes` nodes and no coordinates.
    pub fn new(num_nodes: usize) -> Self {
        assert!(
            num_nodes < u32::MAX as usize,
            "node count exceeds u32 id space"
        );
        Self {
            num_nodes,
            arcs: Vec::new(),
            coords: None,
            id_salt: 0,
        }
    }

    /// Builder for a graph whose nodes carry the given planar coordinates.
    pub fn with_coords(coords: Vec<Point>) -> Self {
        let num_nodes = coords.len();
        assert!(
            num_nodes < u32::MAX as usize,
            "node count exceeds u32 id space"
        );
        Self {
            num_nodes,
            arcs: Vec::new(),
            coords: Some(coords),
            id_salt: 0,
        }
    }

    /// Stamp an identity salt onto the built graph (see [`Graph::id_salt`]).
    /// A graph built over local ids that stand for other nodes (an
    /// extract) takes a salt derived from those nodes, so isomorphic
    /// extracts get distinct identities; [`Graph::induced`] takes its salt
    /// as an argument.
    pub fn set_id_salt(&mut self, salt: u64) {
        self.id_salt = salt;
    }

    /// Number of nodes the builder was created with.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Add an undirected edge (two arcs) of positive weight `w`.
    ///
    /// Zero-weight edges are bumped to weight 1: the paper requires positive
    /// integer weights and several pruning arguments rely on strictly
    /// positive distances between distinct nodes.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, w: Dist) {
        self.add_arc(u, v, w);
        self.add_arc(v, u, w);
    }

    /// Add a single directed arc of positive weight `w`.
    pub fn add_arc(&mut self, u: NodeId, v: NodeId, w: Dist) {
        assert!((u as usize) < self.num_nodes, "arc source {u} out of range");
        assert!((v as usize) < self.num_nodes, "arc target {v} out of range");
        assert_ne!(u, v, "self-loops are not allowed");
        self.arcs.push((u, v, w.max(1)));
    }

    /// Number of arcs added so far.
    pub fn num_arcs(&self) -> usize {
        self.arcs.len()
    }

    /// Finalize into CSR form.
    pub fn build(self) -> Graph {
        let n = self.num_nodes;
        let mut counts = vec![0u32; n + 1];
        for &(u, _, _) in &self.arcs {
            counts[u as usize + 1] += 1;
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let offsets = counts.clone();
        let m = self.arcs.len();
        let mut targets = vec![0 as NodeId; m];
        let mut weights = vec![0 as Dist; m];
        let mut cursor = counts;
        for (u, v, w) in self.arcs {
            let slot = cursor[u as usize] as usize;
            targets[slot] = v;
            weights[slot] = w;
            cursor[u as usize] += 1;
        }
        Graph::from_csr(offsets, targets, weights, self.coords, self.id_salt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Graph {
        // 0 - 1
        // |   |
        // 2 - 3
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 5);
        b.add_edge(0, 2, 3);
        b.add_edge(1, 3, 2);
        b.add_edge(2, 3, 7);
        b.build()
    }

    #[test]
    fn csr_counts() {
        let g = diamond();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_arcs(), 8);
        assert_eq!(g.num_edges_undirected(), 4);
    }

    #[test]
    fn neighbors_round_trip() {
        let g = diamond();
        let mut n0: Vec<_> = g.neighbors(0).collect();
        n0.sort_unstable();
        assert_eq!(n0, vec![(1, 5), (2, 3)]);
        let mut n3: Vec<_> = g.neighbors(3).collect();
        n3.sort_unstable();
        assert_eq!(n3, vec![(1, 2), (2, 7)]);
    }

    #[test]
    fn degrees_and_stats() {
        let g = diamond();
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.max_degree(), 2);
        assert!((g.avg_degree() - 2.0).abs() < 1e-9);
        // (5+3+2+7)*2 / 8 = 4.25
        assert!((g.avg_edge_length() - 4.25).abs() < 1e-9);
    }

    #[test]
    fn directed_arcs_are_one_way() {
        let mut b = GraphBuilder::new(2);
        b.add_arc(0, 1, 4);
        let g = b.build();
        assert_eq!(g.neighbors(0).count(), 1);
        assert_eq!(g.neighbors(1).count(), 0);
    }

    #[test]
    fn zero_weight_bumped_to_one() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 0);
        let g = b.build();
        assert_eq!(g.neighbors(0).next(), Some((1, 1)));
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_rejected() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(1, 1, 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_rejected() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 2, 3);
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new(0).build();
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_arcs(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.avg_degree(), 0.0);
    }

    #[test]
    fn structural_hash_tracks_structure_not_identity() {
        let a = diamond();
        let b = diamond();
        assert_eq!(a.structural_hash(), b.structural_hash());
        // Same node/arc counts, one weight changed: different hash.
        let mut bld = GraphBuilder::new(4);
        bld.add_edge(0, 1, 5);
        bld.add_edge(0, 2, 3);
        bld.add_edge(1, 3, 2);
        bld.add_edge(2, 3, 8); // was 7
        let c = bld.build();
        assert_eq!(c.num_nodes(), a.num_nodes());
        assert_eq!(c.num_arcs(), a.num_arcs());
        assert_ne!(a.structural_hash(), c.structural_hash());
    }

    #[test]
    fn id_salt_defaults_to_zero_and_sticks() {
        let g = diamond();
        assert_eq!(g.id_salt(), 0);
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 5);
        b.add_edge(0, 2, 3);
        b.add_edge(1, 3, 2);
        b.add_edge(2, 3, 7);
        b.set_id_salt(0xFEED);
        let salted = b.build();
        assert_eq!(salted.id_salt(), 0xFEED);
        // The salt is identity metadata, not structure.
        assert_eq!(salted.structural_hash(), g.structural_hash());
    }

    #[test]
    fn csr_slices_expose_adjacency() {
        let g = diamond();
        let (offsets, targets, weights) = g.csr();
        assert_eq!(offsets.len(), g.num_nodes() + 1);
        assert_eq!(targets.len(), g.num_arcs());
        assert_eq!(weights.len(), g.num_arcs());
        let lo = offsets[0] as usize;
        let hi = offsets[1] as usize;
        let via_slices: Vec<_> = targets[lo..hi]
            .iter()
            .copied()
            .zip(weights[lo..hi].iter().copied())
            .collect();
        let via_iter: Vec<_> = g.neighbors(0).collect();
        assert_eq!(via_slices, via_iter);
    }

    #[test]
    fn symmetry_is_an_exact_arc_multiset_check() {
        assert!(diamond().is_symmetric());
        assert!(GraphBuilder::new(0).build().is_symmetric());
        assert!(GraphBuilder::new(3).build().is_symmetric());
        // One one-way arc breaks it.
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 4);
        b.add_arc(1, 2, 4);
        assert!(!b.build().is_symmetric());
        // Two opposite arcs of equal weight are an edge.
        let mut b = GraphBuilder::new(2);
        b.add_arc(0, 1, 4);
        b.add_arc(1, 0, 4);
        assert!(b.build().is_symmetric());
        // Opposite arcs of different weights are not.
        let mut b = GraphBuilder::new(2);
        b.add_arc(0, 1, 4);
        b.add_arc(1, 0, 5);
        assert!(!b.build().is_symmetric());
        // Parallel arcs count: two arcs one way, one back.
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 4);
        b.add_arc(0, 1, 4);
        assert!(!b.build().is_symmetric());
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 4);
        b.add_edge(0, 1, 4);
        assert!(b.build().is_symmetric());
    }

    #[test]
    fn coords_carried() {
        let pts = vec![Point::new(0.0, 0.0), Point::new(1.0, 2.0)];
        let mut b = GraphBuilder::with_coords(pts);
        b.add_edge(0, 1, 1);
        let g = b.build();
        assert_eq!(g.coord(1), Point::new(1.0, 2.0));
        assert_eq!(g.coords().unwrap().len(), 2);
    }
}
