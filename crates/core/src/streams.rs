//! Network-backed edge streams: the bridge between the graph substrate and
//! the matching substrate.
//!
//! Section IV-D of the paper: "We achieve this order by one Dijkstra
//! execution per customer, yielding distances to candidate facilities in
//! non-decreasing order; such distance values give the weights of new edges
//! in `G_b`", with the per-customer searches persisting across `FindPair`
//! calls. [`NetworkStream`] is that persistent search, shaped as the
//! [`EdgeStream`] the incremental matcher consumes.
//!
//! The paper built its per-customer searches for `F_p = V`, where every
//! stream stops within a few hops. When the facility set being matched has
//! few distinct nodes (`ℓ ≤ m`), one one-to-all row *per facility node* is
//! far cheaper than `m` customer searches: on a symmetric graph
//! `d(f, c) = d(c, f)`, so each customer reads its entry of every facility
//! row and sorts that column ([`OracleStream::from_facility_rows`]). The
//! strategy follows from the instance's shape alone
//! ([`facility_rows_apply`]), never from a thread count or an oracle; both
//! strategies emit the same sequence for the same customer, so the choice
//! changes wall time, never a solution.

use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::Arc;

use mcfs_flow::EdgeStream;
use mcfs_graph::{Dist, DistanceOracle, Graph, LazyDijkstra, NodeId, Row, INF};
use rustc_hash::FxHashMap;

/// Shared lookup from network node to the candidate-facility indices located
/// there (several facilities may share a node).
pub type FacilityMap = Rc<FxHashMap<NodeId, Vec<u32>>>;

/// Whether streams of an instance with `num_customers` customers, matched
/// against a facility set on `facility_nodes` distinct nodes, read facility
/// rows: the graph is symmetric (so a row filled from a facility node holds
/// every customer's distance *to* it) and the set has no more distinct
/// nodes than the instance has customers (so the strategy never fills more
/// rows than one per customer would).
///
/// `num_customers` is the instance's customer count, never the length of a
/// slice being streamed: a re-solver minting one arrival's stream decides
/// exactly as the whole instance did.
pub fn facility_rows_apply(graph: &Graph, num_customers: usize, facility_nodes: usize) -> bool {
    facility_nodes <= num_customers && graph.is_symmetric()
}

/// A per-customer stream of `(facility index, network distance)` pairs in
/// nondecreasing distance order, produced by a resumable Dijkstra over the
/// road network.
pub struct NetworkStream<'g> {
    graph: &'g Graph,
    search: LazyDijkstra,
    facilities_at: FacilityMap,
    /// Facilities co-located on an already-settled node, pending emission.
    pending: VecDeque<(u32, u64)>,
}

impl<'g> NetworkStream<'g> {
    /// Stream for a customer located at `source`.
    pub fn new(graph: &'g Graph, source: NodeId, facilities_at: FacilityMap) -> Self {
        Self {
            graph,
            search: LazyDijkstra::new(source),
            facilities_at,
            pending: VecDeque::new(),
        }
    }

    /// Build one stream per customer over a shared facility map.
    pub fn for_customers(
        graph: &'g Graph,
        customers: &[NodeId],
        facilities_at: FacilityMap,
    ) -> Vec<Self> {
        customers
            .iter()
            .map(|&s| Self::new(graph, s, Rc::clone(&facilities_at)))
            .collect()
    }
}

impl EdgeStream for NetworkStream<'_> {
    fn next_edge(&mut self) -> Option<(u32, u64)> {
        if let Some(e) = self.pending.pop_front() {
            return Some(e);
        }
        while let Some((node, dist)) = self.search.next_settled(self.graph) {
            if let Some(fs) = self.facilities_at.get(&node) {
                let mut it = fs.iter().copied();
                let first = it.next().expect("facility map entries are nonempty");
                for j in it {
                    self.pending.push_back((j, dist));
                }
                return Some((first, dist));
            }
        }
        None
    }
}

/// A per-customer stream replayed from the distance rows of the facility
/// nodes instead of a live search.
///
/// On a symmetric graph `d(f, c) = d(c, f)`, so the customer's column of
/// the facility rows holds exactly the distances a search from the customer
/// would find ([`facility_rows_apply`] requires symmetry for this reason).
/// Emission order is **identical** to [`NetworkStream`]'s: edge weights are
/// strictly positive (`GraphBuilder` clamps to ≥ 1), so a lazy Dijkstra
/// settles nodes in globally sorted `(distance, node id)` order — every node
/// at distance `d` is already on the heap when the first of them pops, and
/// the binary heap breaks distance ties by smaller node id. Sorting the
/// facility-hosting nodes by `(distance, node id)` and expanding each node's
/// facility list in map order therefore replays the exact sequence a
/// `NetworkStream` would produce, which is what makes the row-backed solver
/// paths byte-identical to the lazy ones.
///
/// Unlike `NetworkStream` this materializes the whole candidate list up
/// front (the rows are already paid for), trading `O(ℓ)` memory per
/// customer for zero per-edge search work.
#[derive(Clone, Debug)]
pub struct OracleStream {
    edges: Vec<(u32, u64)>,
    pos: usize,
}

impl OracleStream {
    /// Stream for the customer at `customer`, read from facility rows:
    /// `rows[i]` is the one-to-all row from `nodes[i]`, and `nodes` are the
    /// keys of `facilities_at`. Each row is read at the customer alone
    /// ([`Row::get`]). Unreachable facilities (`INF` entries) are omitted,
    /// matching the lazy stream's behavior of never settling them.
    pub fn from_facility_rows(
        customer: NodeId,
        nodes: &[NodeId],
        rows: &[Arc<Row>],
        facilities_at: &FxHashMap<NodeId, Vec<u32>>,
    ) -> Self {
        let mut reached: Vec<(Dist, NodeId)> = nodes
            .iter()
            .zip(rows)
            .map(|(&v, row)| (row.get(customer), v))
            .filter(|&(d, _)| d != INF)
            .collect();
        reached.sort_unstable();
        let mut edges = Vec::new();
        for (d, v) in reached {
            for &j in &facilities_at[&v] {
                edges.push((j, d));
            }
        }
        Self { edges, pos: 0 }
    }
}

impl EdgeStream for OracleStream {
    fn next_edge(&mut self) -> Option<(u32, u64)> {
        let e = self.edges.get(self.pos).copied();
        self.pos += 1;
        e
    }
}

/// The stream type the solvers actually instantiate: a lazy per-customer
/// search, or a replay of facility rows. Both emit the same sequence for
/// the same customer — see [`OracleStream`] — so solver output never
/// depends on which strategy is active.
pub enum CustomerStream<'g> {
    /// Resumable per-customer Dijkstra (the paper's Sec. IV-D search).
    Lazy(NetworkStream<'g>),
    /// Facility-row replay.
    Precomputed(OracleStream),
}

impl<'g> CustomerStream<'g> {
    /// Build one stream for each of `customers`, some or all of the
    /// `num_customers` customers of one instance. When
    /// [`facility_rows_apply`], every stream replays one row per distinct
    /// facility node, served by (and cached in) the run's `oracle`;
    /// otherwise each customer gets its own lazy search and the oracle is
    /// not touched. The choice is the same at every thread count.
    pub fn for_customers(
        graph: &'g Graph,
        customers: &[NodeId],
        num_customers: usize,
        facilities_at: FacilityMap,
        oracle: &DistanceOracle,
    ) -> Vec<Self> {
        if !facility_rows_apply(graph, num_customers, facilities_at.len()) {
            return NetworkStream::for_customers(graph, customers, facilities_at)
                .into_iter()
                .map(CustomerStream::Lazy)
                .collect();
        }
        let mut nodes: Vec<NodeId> = facilities_at.keys().copied().collect();
        // Sorted, so the fill (and eviction) order is a function of the set.
        nodes.sort_unstable();
        let rows = oracle.distances_for_sources(graph, &nodes);
        customers
            .iter()
            .map(|&c| {
                CustomerStream::Precomputed(OracleStream::from_facility_rows(
                    c,
                    &nodes,
                    &rows,
                    &facilities_at,
                ))
            })
            .collect()
    }
}

impl EdgeStream for CustomerStream<'_> {
    fn next_edge(&mut self) -> Option<(u32, u64)> {
        match self {
            CustomerStream::Lazy(s) => s.next_edge(),
            CustomerStream::Precomputed(s) => s.next_edge(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcfs_graph::GraphBuilder;

    fn line(n: usize) -> Graph {
        let mut b = GraphBuilder::new(n);
        for i in 0..n - 1 {
            b.add_edge(i as NodeId, i as NodeId + 1, 7);
        }
        b.build()
    }

    fn map(entries: &[(NodeId, &[u32])]) -> FacilityMap {
        let mut m = FxHashMap::default();
        for &(node, fs) in entries {
            m.insert(node, fs.to_vec());
        }
        Rc::new(m)
    }

    #[test]
    fn yields_facilities_in_distance_order() {
        let g = line(6);
        // Facilities at nodes 1, 4, 5 with indices 0, 1, 2.
        let fm = map(&[(1, &[0]), (4, &[1]), (5, &[2])]);
        let mut s = NetworkStream::new(&g, 2, fm);
        assert_eq!(s.next_edge(), Some((0, 7)));
        assert_eq!(s.next_edge(), Some((1, 14)));
        assert_eq!(s.next_edge(), Some((2, 21)));
        assert_eq!(s.next_edge(), None);
    }

    #[test]
    fn colocated_facilities_all_emitted() {
        let g = line(3);
        let fm = map(&[(2, &[0, 1, 2])]);
        let mut s = NetworkStream::new(&g, 0, fm);
        assert_eq!(s.next_edge(), Some((0, 14)));
        assert_eq!(s.next_edge(), Some((1, 14)));
        assert_eq!(s.next_edge(), Some((2, 14)));
        assert_eq!(s.next_edge(), None);
    }

    #[test]
    fn customer_on_facility_node_distance_zero() {
        let g = line(3);
        let fm = map(&[(1, &[0])]);
        let mut s = NetworkStream::new(&g, 1, fm);
        assert_eq!(s.next_edge(), Some((0, 0)));
    }

    #[test]
    fn disconnected_facilities_unreachable() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 5);
        b.add_edge(2, 3, 5);
        let g = b.build();
        let fm = map(&[(3, &[0])]);
        let mut s = NetworkStream::new(&g, 0, fm);
        assert_eq!(s.next_edge(), None);
    }

    fn drain(mut s: impl EdgeStream) -> Vec<(u32, u64)> {
        let mut out = Vec::new();
        while let Some(e) = s.next_edge() {
            out.push(e);
        }
        out
    }

    #[test]
    fn customer_stream_variants_agree() {
        let g = line(6);
        let fm = map(&[(1, &[0]), (4, &[1]), (5, &[2])]);
        let customers = [2, 0, 5];
        let drain_all =
            |streams: Vec<CustomerStream>| -> Vec<_> { streams.into_iter().map(drain).collect() };
        let lazy = drain_all(
            NetworkStream::for_customers(&g, &customers, Rc::clone(&fm))
                .into_iter()
                .map(CustomerStream::Lazy)
                .collect(),
        );
        for threads in [1, 2] {
            // ℓ = 3 ≤ m = 3 on a symmetric graph: one row per facility node.
            let oracle = DistanceOracle::new().with_threads(threads);
            let rows = CustomerStream::for_customers(&g, &customers, 3, Rc::clone(&fm), &oracle);
            assert_eq!(lazy, drain_all(rows), "threads {threads}");
            assert_eq!(oracle.stats().misses, 3);
            assert_eq!(
                oracle.row(&g, 4).get(0),
                28,
                "rows are keyed by facility node"
            );
            // ℓ > m: lazy searches, and the oracle fills no row.
            let oracle = DistanceOracle::new().with_threads(threads);
            let first =
                CustomerStream::for_customers(&g, &customers[..1], 1, Rc::clone(&fm), &oracle);
            assert!(matches!(first[0], CustomerStream::Lazy(_)));
            assert_eq!(lazy[..1], drain_all(first)[..]);
            assert_eq!(oracle.stats().misses, 0, "threads {threads}: no row");
        }
        // A slice of one customer still decides on the instance's m = 3.
        let oracle = DistanceOracle::new();
        let one = CustomerStream::for_customers(&g, &customers[..1], 3, Rc::clone(&fm), &oracle);
        assert_eq!(lazy[..1], drain_all(one)[..]);
        assert_eq!(
            oracle.stats().misses,
            3,
            "facility rows, not a customer row"
        );
    }

    #[test]
    fn directed_graphs_keep_customer_searches() {
        // 0 → 1 one way: d(0, 1) = 5 but d(1, 0) = ∞, so a row filled from
        // the facility at 1 would not reach the customer at 0.
        let mut b = GraphBuilder::new(2);
        b.add_arc(0, 1, 5);
        let g = b.build();
        assert!(!facility_rows_apply(&g, 1, 1));
        let fm = map(&[(1, &[0])]);
        for threads in [1, 2] {
            let oracle = DistanceOracle::new().with_threads(threads);
            let streams = CustomerStream::for_customers(&g, &[0], 1, Rc::clone(&fm), &oracle);
            let got: Vec<_> = streams.into_iter().map(drain).collect();
            assert_eq!(got, vec![vec![(0, 5)]]);
            assert_eq!(oracle.stats().misses, 0, "threads {threads}: no row");
        }
    }

    #[test]
    fn facility_rows_replay_lazy_order_with_ties() {
        // Diamond with distance ties: 0-1 and 0-2 both cost 3, 1-3 and
        // 2-3 both cost 3 — nodes 1 and 2 tie at 3, node 3 at 6. Facility
        // indices deliberately *decrease* with node id so (dist, facility)
        // sorting would give a different order than (dist, node).
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1, 3);
        b.add_edge(0, 2, 3);
        b.add_edge(1, 3, 3);
        b.add_edge(2, 3, 3);
        let g = b.build();
        let fm = map(&[(1, &[5, 2]), (2, &[1]), (3, &[0, 4])]);
        let nodes = [1, 2, 3];
        let rows: Vec<_> = nodes.iter().map(|&v| Arc::new(Row::new(&g, v))).collect();
        for customer in 0..5 {
            let lazy = drain(NetworkStream::new(&g, customer, Rc::clone(&fm)));
            let replay = drain(OracleStream::from_facility_rows(
                customer, &nodes, &rows, &fm,
            ));
            assert_eq!(lazy, replay, "customer {customer}");
        }
    }
}
