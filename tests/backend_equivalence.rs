//! Row-equivalence harness for the oracle's row engine.
//!
//! Every row the [`DistanceOracle`] caches is a [`Row`]: the core
//! distances of one arena search — a Dial bucket ring with a radix-heap
//! fallback over a per-thread reusable arena — read node by node on
//! demand; [`fill_row`] runs the same search and expands it into a full
//! vector. The arena is a wall-time optimization, never an approximation.
//! This suite pins that contract against the plain binary-heap reference
//! [`dijkstra_all`]:
//!
//! 1. **Row equality** — proptest differential over random weighted graphs
//!    (disconnected pieces, weight-0 edges the builder bumps to 1, parallel
//!    edges, single nodes), huge weights across the Dial/radix boundary,
//!    plus deterministic star/path/grid pathologies: every row equals
//!    [`dijkstra_all`] `u64`-for-`u64`, `INF` included, read entry by entry
//!    off a [`Row`] and filled whole by [`fill_row`], and so does a warm
//!    refill into the dirty buffer.
//! 2. **Cache keying** — every row an oracle serves, cached or freshly
//!    filled, equals the reference.
//! 3. **Staleness** — an oracle reused after the underlying graph changes
//!    (same node count, one edge weight edited — the nastiest case for the
//!    arena's and the row cache's keying, because row *lengths* still
//!    match) serves distances from the edited graph.
//! 4. **Facility-row streams** — on symmetric graphs, a customer's stream
//!    read from the facility nodes' rows equals its lazy `NetworkStream`
//!    entry for entry: distance ties, co-located candidates and
//!    unreachable parts included.
//!
//! Whole-solve byte identity (facility rows vs. lazy streams vs. customer
//! rows) lives in `tests/determinism_threads.rs`.

use std::rc::Rc;

use proptest::collection::vec;
use proptest::prelude::*;

use mcfs_repro::core::streams::{CustomerStream, NetworkStream, OracleStream};
use mcfs_repro::core::{Facility, McfsInstance};
use mcfs_repro::flow::EdgeStream;
use mcfs_repro::graph::{
    dijkstra_all, fill_row, Dist, DistanceOracle, Graph, GraphBuilder, NodeId, Row, INF,
};

/// `floor` cases, or more when `PROPTEST_CASES` asks for more: the CI
/// backend-suites job widens these families to 256 cases, and no job runs
/// fewer than the floor.
fn cases(floor: u32) -> ProptestConfig {
    let asked = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok());
    ProptestConfig::with_cases(asked.map_or(floor, |c: u32| c.max(floor)))
}

/// Every entry of a core row, read one node at a time.
fn entries(row: &Row) -> Vec<Dist> {
    (0..row.num_nodes() as NodeId).map(|v| row.get(v)).collect()
}

fn build_graph(n: usize, edges: &[(u32, u32, u64)]) -> Graph {
    let mut b = GraphBuilder::new(n);
    for &(u, v, w) in edges {
        let (u, v) = (u % n as u32, v % n as u32);
        if u != v {
            b.add_edge(u, v, w);
        }
    }
    b.build()
}

/// Assert the arena serves the reference row for each source on `g`, read
/// off a core row, filled whole, and again as a warm refill into the dirty
/// buffer.
fn assert_rows_match(g: &Graph, sources: impl IntoIterator<Item = NodeId>) {
    for source in sources {
        let reference = dijkstra_all(g, source);
        assert_eq!(
            entries(&Row::new(g, source)),
            reference,
            "core row from {source} diverges on {}-node graph",
            g.num_nodes()
        );
        let mut row = Vec::new();
        fill_row(g, source, &mut row);
        assert_eq!(
            row,
            reference,
            "row from {source} diverges on {}-node graph",
            g.num_nodes()
        );
        // And again into a dirty, reused buffer — the zero-alloc warm path.
        fill_row(g, source, &mut row);
        assert_eq!(row, reference, "warm refill from {source} diverges");
    }
}

proptest! {
    #![proptest_config(cases(64))]

    /// Random sparse graphs: likely disconnected, with parallel edges and
    /// weight-0 inputs (bumped to 1 by the builder). The arena equals the
    /// reference row-for-row, unreachable (`INF`) entries included.
    #[test]
    fn rows_match_reference_on_random_graphs(
        n in 1usize..40,
        edges in vec((0u32..40, 0u32..40, 0u64..=50), 0..80),
        source_pick in 0u32..40,
    ) {
        let g = build_graph(n, &edges);
        let source = source_pick % n as u32;
        let reference = dijkstra_all(&g, source);
        let mut row = Vec::new();
        fill_row(&g, source, &mut row);
        prop_assert_eq!(&row, &reference, "row diverges from reference");
        prop_assert_eq!(&entries(&Row::new(&g, source)), &reference, "core row diverges");
    }

    /// Huge-weight graphs push the arena off the Dial ring onto the radix
    /// heap: keys near `u64::MAX / 2` exercise the high buckets and
    /// redistribution.
    #[test]
    fn rows_match_reference_under_huge_weights(
        n in 2usize..16,
        edges in vec((0u32..16, 0u32..16, 1u64..=(u64::MAX >> 3)), 1..40),
    ) {
        let g = build_graph(n, &edges);
        let reference = dijkstra_all(&g, 0);
        let mut row = Vec::new();
        fill_row(&g, 0, &mut row);
        prop_assert_eq!(&row, &reference, "row diverges under huge weights");
        prop_assert_eq!(&entries(&Row::new(&g, 0)), &reference, "core row diverges");
    }

    /// Every row one oracle serves — cached from an earlier request or
    /// freshly filled — equals the reference. This is the cache-keying
    /// property: a row is keyed by graph and source, nothing else.
    #[test]
    fn oracle_cache_is_backend_invariant(
        n in 2usize..24,
        edges in vec((0u32..24, 0u32..24, 1u64..=30), 1..48),
        script in vec(0u32..24, 1..24),
    ) {
        let g = build_graph(n, &edges);
        let oracle = DistanceOracle::new();
        for &source_pick in &script {
            let source = source_pick % n as u32;
            let row = oracle.row(&g, source);
            let reference = dijkstra_all(&g, source);
            prop_assert_eq!(&entries(&row), &reference, "row from {} wrong", source);
        }
    }
}

/// Every entry of a stream, in order.
fn drain(mut s: impl EdgeStream) -> Vec<(u32, u64)> {
    std::iter::from_fn(|| s.next_edge()).collect()
}

proptest! {
    #![proptest_config(cases(64))]

    /// Random symmetric graphs with weights 1..=3 (many distance ties),
    /// one to three candidates per site node (co-located candidates) and
    /// likely disconnected parts: each customer's stream from the facility
    /// rows equals its `NetworkStream`, and the solvers' stream builder
    /// takes that path whenever the sites are no more than the customers.
    #[test]
    fn facility_row_streams_replay_network_streams(
        n in 1usize..30,
        edges in vec((0u32..30, 0u32..30, 1u64..=3), 0..60),
        sites in vec((0u32..30, 1usize..=3), 1..8),
        customers in vec(0u32..30, 1..12),
    ) {
        let g = build_graph(n, &edges);
        prop_assert!(g.is_symmetric());
        let customers: Vec<NodeId> = customers.iter().map(|&c| c % n as u32).collect();
        let facilities = sites.iter().flat_map(|&(v, count)| {
            std::iter::repeat_n(Facility { node: v % n as u32, capacity: 1 }, count)
        });
        let inst = McfsInstance::builder(&g)
            .customers(customers.iter().copied())
            .facilities(facilities)
            .k(1)
            .build()
            .unwrap();
        let fm = Rc::new(inst.facilities_by_node());
        let mut nodes: Vec<NodeId> = fm.keys().copied().collect();
        nodes.sort_unstable();
        let rows: Vec<_> = nodes.iter().map(|&v| std::sync::Arc::new(Row::new(&g, v))).collect();
        for (&v, row) in nodes.iter().zip(&rows) {
            prop_assert_eq!(&entries(row), &dijkstra_all(&g, v), "site row from {}", v);
        }
        let lazy: Vec<_> = customers
            .iter()
            .map(|&c| drain(NetworkStream::new(&g, c, Rc::clone(&fm))))
            .collect();
        for (i, &c) in customers.iter().enumerate() {
            let replay = drain(OracleStream::from_facility_rows(c, &nodes, &rows, &fm));
            prop_assert_eq!(&replay, &lazy[i], "customer {} at node {}", i, c);
        }
        // The builder, told the instance has at least as many customers as
        // site nodes, fills exactly one row per site node.
        let oracle = DistanceOracle::new();
        let m = customers.len().max(nodes.len());
        let built: Vec<_> = CustomerStream::for_customers(&g, &customers, m, Rc::clone(&fm), &oracle)
            .into_iter()
            .map(drain)
            .collect();
        prop_assert_eq!(&built, &lazy);
        prop_assert_eq!(oracle.stats().misses, nodes.len() as u64);
    }
}

#[test]
fn single_node_graph_rows() {
    let g = GraphBuilder::new(1).build();
    assert_rows_match(&g, [0]);
    let mut row = vec![7; 3];
    fill_row(&g, 0, &mut row);
    assert_eq!(row, vec![0]);
}

#[test]
fn star_graph_rows() {
    // Hub 0 with 40 leaves at distinct weights: one bucket per key from
    // the hub, and leaf-to-leaf paths through the hub from the rim.
    let mut b = GraphBuilder::new(41);
    for leaf in 1u32..=40 {
        b.add_edge(0, leaf, leaf as u64 * 3);
    }
    let g = b.build();
    assert_rows_match(&g, [0, 1, 40]);
}

#[test]
fn path_graph_rows() {
    // A long path is the monotone worst case for bucket scanning.
    let n = 400;
    let mut b = GraphBuilder::new(n);
    for i in 0..n - 1 {
        b.add_edge(i as NodeId, i as NodeId + 1, 1 + (i as u64 % 7));
    }
    let g = b.build();
    assert_rows_match(&g, [0, (n / 2) as NodeId, (n - 1) as NodeId]);
}

#[test]
fn grid_graph_rows() {
    // 12×12 grid: many equal-length alternative paths — the classic
    // tie-breaking stressor.
    let side = 12usize;
    let mut b = GraphBuilder::new(side * side);
    let at = |r: usize, c: usize| (r * side + c) as NodeId;
    for r in 0..side {
        for c in 0..side {
            if c + 1 < side {
                b.add_edge(at(r, c), at(r, c + 1), 2);
            }
            if r + 1 < side {
                b.add_edge(at(r, c), at(r + 1, c), 2);
            }
        }
    }
    let g = b.build();
    assert_rows_match(&g, [0, at(side - 1, side - 1), at(side / 2, side / 2)]);
}

#[test]
fn disconnected_graph_rows() {
    // Two components plus two isolated nodes; most entries are INF.
    let mut b = GraphBuilder::new(10);
    b.add_edge(0, 1, 5);
    b.add_edge(1, 2, 7);
    b.add_edge(4, 5, 1);
    let g = b.build();
    let mut row = Vec::new();
    fill_row(&g, 0, &mut row);
    assert_eq!(row[3], INF, "node 3 must be unreachable");
    assert_eq!(row[9], INF, "node 9 must be unreachable");
    assert_rows_match(&g, [0, 3, 4, 9]);
}

#[test]
fn parallel_and_zero_weight_edges_rows() {
    // Parallel arcs with different weights (the cheaper must win) and
    // weight-0 inputs (the builder bumps them to 1).
    let mut b = GraphBuilder::new(4);
    b.add_edge(0, 1, 10);
    b.add_edge(0, 1, 3);
    b.add_edge(0, 1, 10);
    b.add_edge(1, 2, 0); // becomes 1
    b.add_edge(2, 3, 0); // becomes 1
    let g = b.build();
    let reference = dijkstra_all(&g, 0);
    assert_eq!(reference, vec![0, 3, 4, 5]);
    assert_rows_match(&g, [0, 1, 2, 3]);
}

#[test]
fn dial_radix_boundary_rows() {
    // The arena runs Dial's ring while the max edge weight stays below
    // 8192 and the radix heap from there on: the same path graph on either
    // side of that boundary must give reference rows.
    for max_w in [8_191u64, 8_192] {
        let mut b = GraphBuilder::new(6);
        for i in 0u32..5 {
            b.add_edge(i, i + 1, max_w - u64::from(i));
        }
        b.add_edge(0, 5, max_w);
        assert_rows_match(&b.build(), [0, 3, 5]);
    }
}

/// Staleness regression: an oracle reused across a graph edit (same node
/// count, one edge weight changed) must re-key its row cache — and the
/// arena its primed state — instead of serving distances from the stale
/// graph.
#[test]
fn oracle_survives_edge_edit_between_graphs() {
    let build = |w: u64| {
        let mut b = GraphBuilder::new(30);
        for i in 0u32..29 {
            b.add_edge(i, i + 1, 4);
        }
        b.add_edge(0, 29, w); // the edited edge: a shortcut across the path
        b.build()
    };
    let before = build(3);
    let after = build(100);
    assert_ne!(before.structural_hash(), after.structural_hash());

    let oracle = DistanceOracle::new();
    // Warm the row cache (and this thread's arena) on the pre-edit graph.
    let row_before = oracle.row(&before, 0);
    assert_eq!(entries(&row_before), dijkstra_all(&before, 0));
    assert_eq!(oracle.try_distance(&before, 0, 29), Some(3));

    // "Commit" the edit, as ReSolver::apply does.
    oracle.revalidate(&after);

    // Same node count, so row lengths match — only hash keying can tell
    // these graphs apart. Distances must now come from the edited graph.
    let row_after = oracle.row(&after, 0);
    assert_eq!(entries(&row_after), dijkstra_all(&after, 0));
    // The edited shortcut (now 100) still beats the 29-hop path (116).
    assert_eq!(oracle.try_distance(&after, 0, 29), Some(100));
    assert_eq!(oracle.try_distance(&after, 5, 29), Some(96));
}
