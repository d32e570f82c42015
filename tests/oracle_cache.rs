//! Cache-correctness suite for the shared distance oracle.
//!
//! The contract under test: no matter how queries are interleaved or batched,
//! and no matter how small the row cache is (evictions included), every
//! distance the oracle hands out is exactly what a fresh Dijkstra run would
//! produce — with unreachable nodes reported as `INF`. Rows hold only the
//! core distances of their search and read every other node on demand, so
//! every entry is read through [`Row::get`] and checked against the row's
//! one-pass expansion; a row must keep reading correctly on another thread
//! after the thread that filled it has moved to another graph, and the
//! oracle's `nodes_settled` must count exactly the finite entries.

use std::sync::Arc;

use proptest::collection::vec;
use proptest::prelude::*;

use mcfs_repro::graph::{
    dijkstra_all, dijkstra_to_targets, multi_source_dijkstra, Dist, DistanceOracle, Graph,
    GraphBuilder, NodeId, Row, INF,
};

/// `floor` cases, or more when `PROPTEST_CASES` asks for more: a CI job
/// can widen the suite but never run fewer cases than the default here.
fn cases(floor: u32) -> ProptestConfig {
    let asked = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok());
    ProptestConfig::with_cases(asked.map_or(floor, |c: u32| c.max(floor)))
}

/// Every entry of `row`, read one node at a time, after checking that the
/// row's one-pass expansion agrees.
fn entries(row: &Row) -> Vec<Dist> {
    let read: Vec<Dist> = (0..row.num_nodes() as NodeId).map(|v| row.get(v)).collect();
    let mut full = Vec::new();
    row.expand_into(&mut full);
    assert_eq!(read, full, "Row::get and Row::expand_into disagree");
    read
}

fn finite(row: &[Dist]) -> u64 {
    row.iter().filter(|&&d| d != INF).count() as u64
}

/// Build a graph with `n` nodes from a raw edge list (node ids taken mod `n`,
/// self-loops dropped). Sparse lists leave the graph disconnected on purpose.
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

proptest! {
    #![proptest_config(cases(64))]

    /// Arbitrary interleavings of single-row and batched queries against a
    /// deliberately tiny cache (0–3 rows, so most states are eviction-heavy)
    /// always return the fresh-Dijkstra row, including on disconnected
    /// graphs where missing nodes must come back as `INF`.
    #[test]
    fn interleaved_queries_match_fresh_dijkstra(
        n in 2usize..=24,
        edges in vec((0u32..24, 0u32..24, 1u64..=50), 0..40),
        batches in vec(vec(0u32..24, 1..6), 1..8),
        cache_rows in 0usize..=3,
        threads in 1usize..=4,
    ) {
        let g = build_graph(n, &edges);
        let oracle = DistanceOracle::new().with_threads(threads).with_cache_rows(cache_rows);
        for batch in &batches {
            let sources: Vec<NodeId> = batch.iter().map(|&s| s % n as u32).collect();
            let rows = oracle.distances_for_sources(&g, &sources);
            prop_assert_eq!(rows.len(), sources.len());
            for (&s, row) in sources.iter().zip(&rows) {
                let fresh = dijkstra_all(&g, s);
                prop_assert_eq!(&entries(row), &fresh);
                prop_assert_eq!(row.reached(), finite(&fresh));
            }
            // Re-query one source through the scalar path: same row again,
            // whether it survived in cache or gets recomputed post-eviction.
            let s = sources[0];
            let (again, fresh) = (oracle.row(&g, s), dijkstra_all(&g, s));
            prop_assert_eq!(&entries(&again), &fresh);
        }
        let st = oracle.stats();
        prop_assert_eq!(st.capacity, cache_rows);
        prop_assert!(st.cached_rows <= cache_rows);
    }

    /// The derived views (point queries, target projections, multi-source
    /// envelopes) agree with their eager single-shot counterparts, and the
    /// rows they fill settle exactly their finite entries. Multi-source
    /// owners follow each function's documented rule: both name a nearest
    /// source, and where several sources are equally near the oracle names
    /// the one of smallest index, while the reference names whichever its
    /// search reached first, so the two owner vectors may differ there.
    #[test]
    fn derived_views_match_eager_counterparts(
        n in 2usize..=20,
        edges in vec((0u32..20, 0u32..20, 1u64..=30), 0..30),
        sources in vec(0u32..20, 1..5),
        targets in vec(0u32..20, 1..5),
    ) {
        let g = build_graph(n, &edges);
        let sources: Vec<NodeId> = sources.iter().map(|&s| s % n as u32).collect();
        let targets: Vec<NodeId> = targets.iter().map(|&t| t % n as u32).collect();
        let oracle = DistanceOracle::new().with_threads(2);

        let (env, owner) = oracle.multi_source(&g, &sources);
        let (env_ref, owner_ref) = multi_source_dijkstra(&g, &sources);
        prop_assert_eq!(&env, &env_ref);
        let rows: Vec<Vec<Dist>> = sources.iter().map(|&s| dijkstra_all(&g, s)).collect();
        for v in 0..n {
            let nearest = (0..sources.len())
                .find(|&i| env[v] != INF && rows[i][v] == env[v])
                .unwrap_or(usize::MAX);
            prop_assert_eq!(owner[v], nearest, "oracle owner of node {}", v);
            if env[v] == INF {
                prop_assert_eq!(owner_ref[v], usize::MAX, "reference owner of node {}", v);
            } else {
                prop_assert_eq!(rows[owner_ref[v]][v], env[v], "reference owner of node {}", v);
            }
        }
        let mut distinct = sources.clone();
        distinct.sort_unstable();
        distinct.dedup();
        let settled: u64 = distinct.iter().map(|&s| finite(&dijkstra_all(&g, s))).sum();
        prop_assert_eq!(oracle.stats().nodes_settled, settled);

        for &s in &sources {
            prop_assert_eq!(
                oracle.to_targets(&g, s, &targets),
                dijkstra_to_targets(&g, s, &targets)
            );
            for &t in &targets {
                prop_assert_eq!(oracle.distance(&g, s, t), dijkstra_all(&g, s)[t as usize]);
            }
        }
    }
}

/// Explicit disconnected-graph check: rows across components are `INF`, and
/// the cached copy of a row stays correct after unrelated queries evict and
/// refill the cache around it.
#[test]
fn disconnected_components_report_inf_through_the_cache() {
    // Two components: {0,1,2} and {3,4}.
    let mut b = GraphBuilder::new(5);
    b.add_edge(0, 1, 4);
    b.add_edge(1, 2, 4);
    b.add_edge(3, 4, 7);
    let g = b.build();

    let oracle = DistanceOracle::new().with_threads(2).with_cache_rows(2);
    let rows = oracle.distances_for_sources(&g, &[0, 3]);
    assert_eq!(entries(&rows[0]), [0, 4, 8, INF, INF]);
    assert_eq!(entries(&rows[1]), [INF, INF, INF, 0, 7]);
    assert_eq!(oracle.distance(&g, 0, 4), INF);
    assert_eq!(oracle.distance(&g, 4, 4), 0);

    // Churn the 2-row cache with every other source, then re-read row 0.
    for s in [1u32, 2, 4, 3, 2, 1] {
        oracle.row(&g, s);
    }
    assert_eq!(entries(&oracle.row(&g, 0)), [0, 4, 8, INF, INF]);

    let st = oracle.stats();
    assert!(
        st.evictions > 0,
        "2-row cache over 5 sources must evict: {st:?}"
    );
    assert!(st.misses >= 5);
}

/// Duplicate sources inside one batch hit the same computation and come back
/// in input order, once per occurrence.
#[test]
fn duplicate_sources_in_a_batch_are_deduplicated_but_replayed_in_order() {
    let mut b = GraphBuilder::new(4);
    b.add_edge(0, 1, 2);
    b.add_edge(1, 2, 3);
    b.add_edge(2, 3, 5);
    let g = b.build();

    let oracle = DistanceOracle::new().with_threads(4);
    let rows = oracle.distances_for_sources(&g, &[2, 0, 2, 0, 2]);
    assert_eq!(rows.len(), 5);
    for (i, &s) in [2u32, 0, 2, 0, 2].iter().enumerate() {
        assert_eq!(entries(&rows[i]), dijkstra_all(&g, s), "slot {i}");
    }
    // Only two distinct Dijkstra expansions ran.
    assert_eq!(oracle.stats().misses, 2);
    // All five slots plus the duplicates resolved from at most two rows.
    assert!(Arc::ptr_eq(&rows[0], &rows[2]));
    assert!(Arc::ptr_eq(&rows[1], &rows[3]));
}

/// A zero-capacity cache still answers correctly — it just never retains.
#[test]
fn zero_capacity_cache_disables_retention_not_correctness() {
    let mut b = GraphBuilder::new(3);
    b.add_edge(0, 1, 1);
    b.add_edge(1, 2, 1);
    let g = b.build();

    let oracle = DistanceOracle::new().with_cache_rows(0);
    for _ in 0..3 {
        assert_eq!(entries(&oracle.row(&g, 0)), [0, 1, 2]);
    }
    let st = oracle.stats();
    assert_eq!(st.cached_rows, 0);
    assert_eq!(st.hits, 0, "nothing can hit a zero-row cache");
    assert_eq!(st.misses, 3);
}

/// A row is read wherever it is shared: filled on one thread, it reads
/// correctly on another after the filling thread has primed its arena for
/// a different graph and the row's own graph is gone, because the row
/// holds the graph's contraction, not a view of the filler's arena. The
/// same holds for rows an oracle's worker pool fills.
#[test]
fn rows_read_on_any_thread_after_the_filler_moves_on() {
    // A ring of five streets, each cut into three segments, and a spoke:
    // most nodes are chain nodes, so every read goes through the table.
    let streets = |w: u64| {
        let mut b = GraphBuilder::new(16);
        let ring = [0u32, 1, 2, 3, 4];
        let mut next = 5;
        for (i, &u) in ring.iter().enumerate() {
            let v = ring[(i + 1) % ring.len()];
            b.add_edge(u, next, w);
            b.add_edge(next, next + 1, w + 1);
            b.add_edge(next + 1, v, w + 2);
            next += 2;
        }
        b.add_edge(0, 15, 9);
        b.add_edge(2, 15, 4);
        b.build()
    };
    let g = streets(3);
    let other = streets(5);
    let sources: Vec<NodeId> = g.nodes().collect();
    let reference: Vec<Vec<Dist>> = sources.iter().map(|&s| dijkstra_all(&g, s)).collect();

    let rows: Vec<Row> = std::thread::spawn(move || {
        let rows: Vec<Row> = sources.iter().map(|&s| Row::new(&g, s)).collect();
        // Re-prime this thread's arena for another graph, then drop both.
        let mut buf = Vec::new();
        for s in other.nodes() {
            mcfs_repro::graph::fill_row(&other, s, &mut buf);
        }
        rows
    })
    .join()
    .unwrap();
    for (row, want) in rows.iter().zip(&reference) {
        assert_eq!(&entries(row), want);
        assert_eq!(row.reached(), finite(want));
    }

    // Rows from an oracle's pool, read on this thread and on another one.
    let g = streets(3);
    let oracle = Arc::new(DistanceOracle::new().with_threads(2));
    let pooled = oracle.distances_for_sources(&g, &(0..16).collect::<Vec<NodeId>>());
    let moved = pooled.clone();
    let reader = std::thread::spawn(move || moved.iter().map(|r| entries(r)).collect::<Vec<_>>());
    assert_eq!(reader.join().unwrap(), reference);
    let here: Vec<Vec<Dist>> = pooled.iter().map(|r| entries(r)).collect();
    assert_eq!(here, reference);
    let settled: u64 = reference.iter().map(|r| finite(r)).sum();
    assert_eq!(oracle.stats().nodes_settled, settled);
}
