//! Balanced graph sharding for cluster solves.
//!
//! The partitioner turns one [`McfsInstance`] into per-shard sub-instances
//! plus a boundary-customer index. Strategy selection is automatic:
//!
//! * **Disconnected graphs** — connected components are indivisible solve
//!   units (no path crosses them), so they are binned greedily
//!   largest-first into the lightest shard. This is exact: no edge is ever
//!   cut, the boundary is empty, and sharded solving loses nothing.
//! * **Connected graphs with coordinates** — nodes are ordered along a
//!   Hilbert space-filling curve over their coordinates and cut into
//!   equal-size contiguous bands, the locality-preserving split the
//!   paper's Hilbert baseline builds on.
//! * **Connected graphs without coordinates** — BFS order stands in for
//!   the Hilbert order: a breadth-first numbering keeps most edges within
//!   a band, which is all band partitioning needs.
//!
//! Every produced shard is feasible on its own (per-component capacity
//! within the shard sub-graph, checked with the same Theorem-3 routine a
//! solver would use) and the per-shard minimum facility counts sum to at
//! most `k`. When a requested shard count cannot satisfy that — a band cut
//! a neighborhood off from all its candidate capacity, say — the
//! partitioner falls back to fewer shards, ultimately to a single-shard
//! [`PartitionStrategy::Single`] plan that callers treat as "solve
//! unsharded".

use std::hash::{Hash, Hasher};

use mcfs::{Facility, InstanceError, McfsInstance};
use mcfs_graph::{hilbert::hilbert_keys, Graph, NodeId};
use rustc_hash::FxHasher;

/// Hilbert-curve order used to linearize node coordinates: 2^16 cells per
/// axis distinguishes sub-meter positions on city-scale extents.
const HILBERT_ORDER: u32 = 16;
const _: () = assert!(HILBERT_ORDER <= 16, "packed keys need 2·order <= 32 bits");

/// How the partitioner split the graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PartitionStrategy {
    /// No split: solve the original instance unsharded. The shard list is
    /// empty — there is no sub-instance to extract.
    Single,
    /// Connected components binned greedily into shards (disconnected
    /// graphs; cuts no edges).
    Components,
    /// Equal-size contiguous bands of the Hilbert-ordered nodes (connected
    /// graphs with coordinates).
    HilbertBands,
    /// Equal-size contiguous bands of a BFS node order (connected graphs
    /// without coordinates).
    BfsBands,
}

impl PartitionStrategy {
    /// Stable lowercase token (`single`, `components`, `hilbert`, `bfs`)
    /// used on the wire and in reports.
    pub fn token(self) -> &'static str {
        match self {
            PartitionStrategy::Single => "single",
            PartitionStrategy::Components => "components",
            PartitionStrategy::HilbertBands => "hilbert",
            PartitionStrategy::BfsBands => "bfs",
        }
    }
}

/// One shard: an induced sub-graph plus the customers and candidate
/// facilities that fell inside it, with local↔global translation tables.
#[derive(Clone, Debug)]
pub struct Shard {
    /// Induced sub-graph on this shard's nodes. Stamped with a salt
    /// derived from the member node ids, so two isomorphic shards of one
    /// city can never alias each other's rows in a shared
    /// [`mcfs_graph::DistanceOracle`].
    pub graph: Graph,
    /// Local node id → global node id (ascending in global id).
    pub nodes: Vec<NodeId>,
    /// Global customer indices that live in this shard, in local customer
    /// order (`customers[i]` is local customer `i`).
    pub customers: Vec<usize>,
    /// Local node of each shard customer, index-aligned with
    /// [`customers`](Self::customers).
    pub local_customers: Vec<NodeId>,
    /// Global facility indices in this shard, in local facility order.
    pub facilities: Vec<u32>,
    /// Local facility (node + capacity), index-aligned with
    /// [`facilities`](Self::facilities).
    pub local_facilities: Vec<Facility>,
    /// Minimum facilities this shard must be granted for feasibility (the
    /// sum of the shard's per-component Theorem-3 minima). Zero when the
    /// shard hosts no customers.
    pub min_facilities: usize,
    /// Undirected edges of the original graph with exactly one endpoint in
    /// this shard.
    pub cut_edges: usize,
}

impl Shard {
    /// Build this shard's sub-instance with budget `k`
    /// (`min_facilities ≤ k ≤ ℓ_s`). Fails only on a budget out of that
    /// range or a customer-less shard, which callers skip instead of
    /// solving.
    pub fn instance(&self, k: usize) -> Result<McfsInstance<'_>, InstanceError> {
        McfsInstance::builder(&self.graph)
            .customers(self.local_customers.iter().copied())
            .facilities(self.local_facilities.iter().copied())
            .k(k)
            .build()
    }

    /// Number of customers in the shard.
    pub fn num_customers(&self) -> usize {
        self.customers.len()
    }

    /// Number of candidate facilities in the shard.
    pub fn num_facilities(&self) -> usize {
        self.facilities.len()
    }
}

/// A partitioning plan: the shards plus the boundary-customer index.
#[derive(Clone, Debug)]
pub struct Partition {
    /// The shards. Empty exactly when
    /// [`strategy`](Self::strategy) is [`PartitionStrategy::Single`].
    pub shards: Vec<Shard>,
    /// Global indices of boundary customers — customers on a node with at
    /// least one cut edge — ascending. Their nearest open facility may sit
    /// in another shard; the reconciliation pass re-matches them globally.
    pub boundary: Vec<usize>,
    /// How the graph was split.
    pub strategy: PartitionStrategy,
    /// The shard count originally asked for (the plan may hold fewer when
    /// feasibility forced a fallback).
    pub requested: usize,
}

impl Partition {
    /// Number of shards in the plan (1 for a [`PartitionStrategy::Single`]
    /// plan, which holds no extracted shard).
    pub fn num_shards(&self) -> usize {
        self.shards.len().max(1)
    }

    /// Sum of the per-shard feasibility minima.
    pub fn min_budget(&self) -> usize {
        self.shards.iter().map(|s| s.min_facilities).sum()
    }
}

/// Identity salt for a shard sub-graph: a hash of the parent graph's
/// identity and the member global node ids. Two different extractions can
/// only collide by hash accident, never by construction.
fn shard_salt(parent: &Graph, nodes: &[NodeId]) -> u64 {
    let mut h = FxHasher::default();
    parent.structural_hash().hash(&mut h);
    parent.id_salt().hash(&mut h);
    nodes.hash(&mut h);
    let salt = h.finish();
    // Salt 0 means "unsalted"; keep extracted shards visibly distinct from
    // the parent even on a zero hash.
    if salt == 0 {
        1
    } else {
        salt
    }
}

/// Assign every node to a shard. Returns `node_shard` (values `< n`) and
/// the strategy used, or `None` when the graph cannot be split `n` ways.
fn assign_nodes(g: &Graph, n: usize) -> Option<(Vec<u32>, PartitionStrategy)> {
    let num_nodes = g.num_nodes();
    if n < 2 || num_nodes < n {
        return None;
    }
    let cc = g.components();
    if cc.count > 1 {
        // Indivisible components, binned greedily largest-first into the
        // lightest bin. Deterministic: ties break to the smaller index.
        let bins = n.min(cc.count);
        let mut order: Vec<usize> = (0..cc.count).collect();
        order.sort_by_key(|&c| (std::cmp::Reverse(cc.sizes[c]), c));
        let mut load = vec![0usize; bins];
        let mut bin_of = vec![0u32; cc.count];
        for c in order {
            let lightest = (0..bins).min_by_key(|&b| (load[b], b)).expect("bins >= 1");
            bin_of[c] = lightest as u32;
            load[lightest] += cc.sizes[c];
        }
        let node_shard = (0..num_nodes)
            .map(|v| bin_of[cc.of(v as NodeId) as usize])
            .collect();
        return Some((node_shard, PartitionStrategy::Components));
    }
    // Connected: order nodes along a locality-preserving curve and cut the
    // order into n equal bands, band b holding ranks [⌈b·N/n⌉, ⌈(b+1)·N/n⌉)
    // — the ranks r with ⌊r·n/N⌋ = b.
    let mut node_shard = vec![0u32; num_nodes];
    let Some(points) = g.coords() else {
        for (rank, &v) in bfs_order(g).iter().enumerate() {
            node_shard[v as usize] = (rank * n / num_nodes) as u32;
        }
        return Some((node_shard, PartitionStrategy::BfsBands));
    };
    // Each node's key packed as `key << 32 | node` (keys stay below 2^32
    // at order 16): unique, and ordered as the `(key, node)` pairs. One
    // selection per band end leaves the band's entries, in some order,
    // right before it.
    let mut packed = hilbert_keys(points, HILBERT_ORDER);
    for (v, entry) in packed.iter_mut().enumerate() {
        *entry = *entry << 32 | v as u64;
    }
    let mut lo = 0;
    for b in 0..n {
        let hi = ((b + 1) * num_nodes).div_ceil(n);
        if hi < num_nodes {
            packed[lo..].select_nth_unstable(hi - lo);
        }
        for &entry in &packed[lo..hi] {
            node_shard[entry as u32 as usize] = b as u32;
        }
        lo = hi;
    }
    Some((node_shard, PartitionStrategy::HilbertBands))
}

/// Breadth-first numbering from node 0; unreached nodes (there are none on
/// a connected graph, but stay total) append in id order.
fn bfs_order(g: &Graph) -> Vec<u32> {
    let n = g.num_nodes();
    let mut order = Vec::with_capacity(n);
    let mut seen = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    for start in 0..n as NodeId {
        if seen[start as usize] {
            continue;
        }
        seen[start as usize] = true;
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            order.push(u);
            for (v, _) in g.neighbors(u) {
                if !seen[v as usize] {
                    seen[v as usize] = true;
                    queue.push_back(v);
                }
            }
        }
    }
    order
}

/// Try to cut the instance into exactly `n` feasible shards.
fn try_partition(inst: &McfsInstance, n: usize) -> Option<Partition> {
    let g = inst.graph();
    let (node_shard, strategy) = assign_nodes(g, n)?;

    // Local numbering: nodes of each shard ascending in global id.
    let mut sizes = vec![0usize; n];
    for &s in &node_shard {
        sizes[s as usize] += 1;
    }
    if sizes.contains(&0) {
        return None;
    }
    let mut nodes: Vec<Vec<NodeId>> = sizes.into_iter().map(Vec::with_capacity).collect();
    let mut node_local = vec![0u32; g.num_nodes()];
    for v in g.nodes() {
        let s = node_shard[v as usize] as usize;
        node_local[v as usize] = nodes[s].len() as u32;
        nodes[s].push(v);
    }

    // Induced sub-graphs + cut-edge counts.
    let mut shards: Vec<Shard> = Vec::with_capacity(n);
    for (s, shard_nodes) in nodes.into_iter().enumerate() {
        let member =
            |v: NodeId| (node_shard[v as usize] as usize == s).then(|| node_local[v as usize]);
        let (graph, cut_arcs) = g.induced(&shard_nodes, member, shard_salt(g, &shard_nodes));
        shards.push(Shard {
            graph,
            nodes: shard_nodes,
            customers: Vec::new(),
            local_customers: Vec::new(),
            facilities: Vec::new(),
            local_facilities: Vec::new(),
            min_facilities: 0,
            // Each undirected cut edge contributes one out-arc per side; we
            // count only this side's out-arcs, so no halving is needed.
            cut_edges: cut_arcs,
        });
    }

    // Distribute customers and facilities, and collect the boundary: the
    // customers whose node has an arc into another shard.
    let mut boundary = Vec::new();
    for (i, &c) in inst.customers().iter().enumerate() {
        let s = node_shard[c as usize] as usize;
        shards[s].customers.push(i);
        shards[s].local_customers.push(node_local[c as usize]);
        if g.neighbors(c)
            .any(|(v, _)| node_shard[v as usize] as usize != s)
        {
            boundary.push(i);
        }
    }
    for (j, f) in inst.facilities().iter().enumerate() {
        let s = node_shard[f.node as usize] as usize;
        shards[s].facilities.push(j as u32);
        shards[s].local_facilities.push(Facility {
            node: node_local[f.node as usize],
            capacity: f.capacity,
        });
    }

    // Per-shard feasibility at the shard's own capacity ceiling: exact
    // (per-component within the sub-graph), via the same Theorem-3 check a
    // solver would run.
    let mut total_min = 0usize;
    for shard in &mut shards {
        if shard.customers.is_empty() {
            continue;
        }
        if shard.local_facilities.is_empty() {
            return None;
        }
        let sub = shard.instance(shard.local_facilities.len()).ok()?;
        let report = sub.check_feasibility().ok()?;
        shard.min_facilities = report.min_counts.iter().sum();
        total_min += shard.min_facilities;
    }
    if total_min > inst.k() {
        return None;
    }
    Some(Partition {
        shards,
        boundary,
        strategy,
        requested: n,
    })
}

/// Partition `inst` into (at most) `want` balanced, individually feasible
/// shards. Falls back to fewer shards when a finer cut strands customers
/// away from their capacity, and to a [`PartitionStrategy::Single`] plan
/// (no extraction; solve unsharded) when no multi-way cut is feasible.
pub fn partition(inst: &McfsInstance, want: usize) -> Partition {
    for n in (2..=want.max(1)).rev() {
        if let Some(p) = try_partition(inst, n) {
            return p;
        }
    }
    Partition {
        shards: Vec::new(),
        boundary: Vec::new(),
        strategy: PartitionStrategy::Single,
        requested: want.max(1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcfs_graph::GraphBuilder;

    /// Two disconnected 3-node paths with a facility on each.
    fn two_paths() -> Graph {
        let mut b = GraphBuilder::new(6);
        b.add_edge(0, 1, 10);
        b.add_edge(1, 2, 10);
        b.add_edge(3, 4, 10);
        b.add_edge(4, 5, 10);
        b.build()
    }

    #[test]
    fn disconnected_graphs_partition_by_component() {
        let g = two_paths();
        let inst = McfsInstance::builder(&g)
            .customers([0, 2, 3, 5])
            .facility(1, 2)
            .facility(4, 2)
            .k(2)
            .build()
            .unwrap();
        let p = partition(&inst, 2);
        assert_eq!(p.strategy, PartitionStrategy::Components);
        assert_eq!(p.shards.len(), 2);
        assert!(p.boundary.is_empty(), "component cuts sever no edges");
        // Every customer in exactly one shard.
        let mut seen: Vec<usize> = p.shards.iter().flat_map(|s| s.customers.clone()).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3]);
        for s in &p.shards {
            assert_eq!(s.cut_edges, 0);
            assert_eq!(s.min_facilities, 1);
            // Sub-instances are self-contained and feasible.
            let sub = s.instance(s.min_facilities).unwrap();
            sub.check_feasibility().unwrap();
        }
        // Distinct identity salts.
        assert_ne!(p.shards[0].graph.id_salt(), p.shards[1].graph.id_salt());
    }

    #[test]
    fn connected_graph_without_coords_uses_bfs_bands() {
        // A 10-node path, facilities everywhere: any split is feasible.
        let mut b = GraphBuilder::new(10);
        for v in 0..9 {
            b.add_edge(v, v + 1, 5);
        }
        let g = b.build();
        let mut builder = McfsInstance::builder(&g).customers(0..10);
        for v in 0..10 {
            builder = builder.facility(v, 4);
        }
        let inst = builder.k(4).build().unwrap();
        let p = partition(&inst, 2);
        assert_eq!(p.strategy, PartitionStrategy::BfsBands);
        assert_eq!(p.shards.len(), 2);
        // Bands are balanced (equal split of 10 nodes).
        assert_eq!(p.shards[0].nodes.len(), 5);
        assert_eq!(p.shards[1].nodes.len(), 5);
        // Exactly one path edge is cut; both its endpoints host boundary
        // customers.
        assert_eq!(p.shards[0].cut_edges, 1);
        assert_eq!(p.shards[1].cut_edges, 1);
        assert_eq!(p.boundary.len(), 2);
    }

    #[test]
    fn infeasible_cut_falls_back() {
        // Path of 4, all capacity on node 0, customers everywhere: any
        // 2-way band cut strands the far band's customers.
        let mut b = GraphBuilder::new(4);
        for v in 0..3 {
            b.add_edge(v, v + 1, 5);
        }
        let g = b.build();
        let inst = McfsInstance::builder(&g)
            .customers([0, 1, 2, 3])
            .facility(0, 4)
            .k(1)
            .build()
            .unwrap();
        let p = partition(&inst, 2);
        assert_eq!(p.strategy, PartitionStrategy::Single);
        assert!(p.shards.is_empty());
        assert_eq!(p.num_shards(), 1);
    }

    #[test]
    fn hilbert_bands_used_when_coords_exist() {
        use mcfs_graph::Point;
        // A 4x4 grid with coordinates; facilities everywhere.
        let side = 4u32;
        let coords: Vec<Point> = (0..side * side)
            .map(|i| Point {
                x: f64::from(i % side),
                y: f64::from(i / side),
            })
            .collect();
        let mut b = GraphBuilder::with_coords(coords);
        for y in 0..side {
            for x in 0..side {
                let v = y * side + x;
                if x + 1 < side {
                    b.add_edge(v, v + 1, 7);
                }
                if y + 1 < side {
                    b.add_edge(v, v + side, 7);
                }
            }
        }
        let g = b.build();
        let mut builder = McfsInstance::builder(&g).customers(0..16);
        for v in 0..16 {
            builder = builder.facility(v, 4);
        }
        let inst = builder.k(8).build().unwrap();
        let p = partition(&inst, 4);
        assert_eq!(p.strategy, PartitionStrategy::HilbertBands);
        assert_eq!(p.shards.len(), 4);
        for s in &p.shards {
            assert_eq!(s.nodes.len(), 4, "equal bands");
            // Sub-graph coordinates survive extraction.
            assert!(s.graph.coords().is_some());
        }
        // Every facility lands in exactly one shard.
        let mut fs: Vec<u32> = p.shards.iter().flat_map(|s| s.facilities.clone()).collect();
        fs.sort_unstable();
        assert_eq!(fs, (0..16).collect::<Vec<_>>());
    }
}
