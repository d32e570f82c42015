//! Rows over contracted road chains.
//!
//! A row searches only a graph's core: on a symmetric graph every maximal
//! run of degree-2 chain nodes becomes one shortcut between the core nodes
//! that end it. A [`Row`] keeps the core distances and reads any node on
//! demand, `min(D[a] + pa, D[b] + pb)` lowered by the source's own-run
//! list; [`fill_row`] writes the same reads for every node in one linear
//! pass. This suite pins every shape that contraction has to get right
//! against the plain reference [`dijkstra_all`], from every source, both
//! ways: pure cycles (no core end), loop runs that start and end on one
//! intersection, parallel runs (with equal ends and equal offsets, so that
//! the own-run list must match nodes, not ends), pendant runs ending at
//! dead ends, a source inside a loop run whose shortest way to its own run
//! goes around the loop, unreachable pieces, and runs long enough to be
//! split below the Dial bound, on both sides of it (the radix heap). A
//! directed graph with long one-way chains contracts nothing and must give
//! the same rows too. Each row also reports how many nodes it reached,
//! which must be its number of finite entries, and a subdivided street
//! grid's rows hold one distance per intersection, not per node.

use std::sync::Arc;

use proptest::collection::vec;
use proptest::prelude::*;

use mcfs_repro::graph::{dijkstra_all, fill_row, Dist, Graph, GraphBuilder, NodeId, Row, INF};

/// A street network under construction: `street` cuts one street into the
/// given segments, numbering the chain nodes it inserts after every node
/// made so far.
struct Streets {
    nodes: u32,
    segments: Vec<(NodeId, NodeId, u64)>,
}

impl Streets {
    fn new(intersections: u32) -> Self {
        Self {
            nodes: intersections,
            segments: Vec::new(),
        }
    }

    fn street(&mut self, from: NodeId, to: NodeId, lengths: &[u64]) -> &mut Self {
        let mut prev = from;
        for (i, &w) in lengths.iter().enumerate() {
            let next = if i + 1 == lengths.len() {
                to
            } else {
                self.nodes += 1;
                self.nodes - 1
            };
            self.segments.push((prev, next, w));
            prev = next;
        }
        self
    }

    /// Two-way streets everywhere.
    fn graph(&self) -> Graph {
        let mut b = GraphBuilder::new(self.nodes as usize);
        for &(u, v, w) in &self.segments {
            b.add_edge(u, v, w);
        }
        b.build()
    }
}

/// Every entry of a core row, read one node at a time.
fn entries(row: &Row) -> Vec<Dist> {
    (0..row.num_nodes() as NodeId).map(|v| row.get(v)).collect()
}

/// Where the row from `source` disagrees with the reference, read entry
/// by entry ([`Row::get`]) and filled whole ([`fill_row`]), or how either
/// miscounts the nodes it reached; `None` when everything agrees.
fn row_mismatch(g: &Graph, source: NodeId, filled: &mut Vec<Dist>) -> Option<String> {
    let reference = dijkstra_all(g, source);
    let finite = reference.iter().filter(|&&d| d != INF).count() as u64;
    let reached = fill_row(g, source, filled);
    let row = Row::new(g, source);
    let read = entries(&row);
    let problem = if *filled != reference {
        "fill_row"
    } else if read != reference {
        "Row::get"
    } else if reached != finite || row.reached() != finite {
        "reached count"
    } else {
        return None;
    };
    Some(format!(
        "{problem} from {source} diverges on a {}-node graph",
        g.num_nodes()
    ))
}

/// Every row of `g` equals the reference, both ways, and reports the
/// row's finite entries as reached.
fn assert_rows_match(g: &Graph) {
    let mut filled = Vec::new();
    for source in g.nodes() {
        if let Some(problem) = row_mismatch(g, source, &mut filled) {
            panic!("{problem}");
        }
    }
}

#[test]
fn pure_cycles_promote_one_node() {
    // A 7-cycle and a 3-cycle: every node has two distinct neighbours, so
    // no run has a core end. Node 2 is an isolated dead end of its own.
    let mut s = Streets::new(3);
    s.street(0, 0, &[4, 1, 9, 2, 2, 7, 3]);
    s.street(1, 1, &[5, 5, 6]);
    assert_rows_match(&s.graph());
}

#[test]
fn a_loop_run_can_beat_the_direct_way_along_it() {
    // Intersection 0 carries a loop run 0 -1- a -100- b -1- c -1- 0 and a
    // pendant street to dead end 1. From `a`, node `b` is 100 along the
    // run but 3 around the loop through 0.
    let mut s = Streets::new(2);
    s.street(0, 0, &[1, 100, 1, 1]).street(0, 1, &[2, 2]);
    let g = s.graph();
    let a = 2;
    let b = 3;
    assert_eq!(dijkstra_all(&g, a)[b], 3);
    assert_rows_match(&g);
}

#[test]
fn a_row_from_inside_a_loop_run_reads_around_it() {
    // Intersection 0 (it also carries a pendant street to dead end 1) has
    // one loop run 0 -1- a -50- b -2- c -1- 0. From `b`, node `a` is 50
    // along the run but 4 around the loop through 0, while `c` is 2 along
    // the run and 52 the other way: the own-run list must lower `c` and
    // leave `a` to the loop.
    let mut s = Streets::new(2);
    s.street(0, 0, &[1, 50, 2, 1]).street(0, 1, &[3]);
    let g = s.graph();
    let (a, b, c) = (2, 3, 4);
    let row = Row::new(&g, b);
    assert_eq!(row.get(b), 0);
    assert_eq!(row.get(a), 4, "around the loop");
    assert_eq!(row.get(c), 2, "along the run");
    assert_eq!(row.get(0), 3);
    assert_eq!(row.get(1), 6);
    assert_eq!(row.core_len(), 2, "intersection 0 and dead end 1");
    assert_eq!(entries(&row), dijkstra_all(&g, b));
    assert_rows_match(&g);
}

#[test]
fn parallel_runs_with_equal_ends_keep_their_own_distances() {
    // Two runs between intersections 0 and 1 with identical segment
    // lengths, so their chain nodes share ends and offsets pairwise
    // (`x1`/`y1`, `x2`/`y2`), plus a direct street between them and a dead
    // end 2 off intersection 0. From `x1`, the twin `y1` is not on the
    // source's run: it sits 10 away through intersection 0, not 0 away at
    // the same offset.
    let mut s = Streets::new(3);
    s.street(0, 1, &[5, 7, 9])
        .street(0, 1, &[5, 7, 9])
        .street(0, 1, &[30])
        .street(0, 2, &[4]);
    let g = s.graph();
    let (x1, x2, y1, y2) = (3, 4, 5, 6);
    let row = Row::new(&g, x1);
    assert_eq!((row.get(x1), row.get(x2)), (0, 7), "own run");
    assert_eq!((row.get(y1), row.get(y2)), (10, 17), "the twin run");
    assert_eq!(row.core_len(), 3);
    assert_eq!(entries(&row), dijkstra_all(&g, x1));
    assert_rows_match(&g);
}

#[test]
fn parallel_runs_between_two_intersections() {
    // Intersections 0 and 1 joined by a direct street and three parallel
    // runs of different lengths, one of them shorter than the direct one.
    let mut s = Streets::new(2);
    s.street(0, 1, &[20])
        .street(0, 1, &[3, 4, 5])
        .street(0, 1, &[1, 1])
        .street(0, 1, &[30, 1, 1, 1]);
    assert_rows_match(&s.graph());
}

#[test]
fn two_arcs_to_one_neighbour_are_not_a_chain() {
    // Node 1's two arcs both lead to node 0 (parallel edges), so node 1
    // stays in the core; node 2 hangs off it through a run.
    let mut s = Streets::new(3);
    s.street(0, 1, &[4])
        .street(0, 1, &[2])
        .street(0, 2, &[1, 1, 1]);
    assert_rows_match(&s.graph());
}

#[test]
fn pendant_runs_end_at_dead_ends() {
    // A star of runs around intersection 0 ending at dead ends 1..=3, and
    // a separate component that is one run between two dead ends (4, 5).
    let mut s = Streets::new(6);
    s.street(0, 1, &[2, 3, 4])
        .street(0, 2, &[1])
        .street(0, 3, &[7, 7, 7, 7, 7])
        .street(4, 5, &[1, 2, 3, 4]);
    assert_rows_match(&s.graph());
}

#[test]
fn unreachable_pieces_stay_unreached() {
    // Four components: a grid-like block with runs, a pure cycle, a lone
    // run between dead ends, and an isolated node.
    let mut s = Streets::new(8);
    s.street(0, 1, &[2, 2])
        .street(1, 2, &[3, 1])
        .street(2, 3, &[1, 1, 1])
        .street(3, 0, &[5])
        .street(0, 2, &[4, 4])
        .street(4, 4, &[2, 3, 4])
        .street(5, 6, &[6, 6]);
    let g = s.graph();
    assert!(dijkstra_all(&g, 0).contains(&INF));
    assert_rows_match(&g);
}

#[test]
fn long_runs_split_below_the_dial_bound_on_both_sides_of_it() {
    // Runs whose length passes the Dial bound (8192) many times: runs of
    // 3000 m and 6000 m segments between two intersections (the second
    // longer than a `u16` offset could hold unsplit), a heavy pure cycle,
    // and segments at the bound itself. With 8191 the graph runs the Dial
    // ring; with 8192 the radix heap. Either way the rows are exact.
    for heavy in [8_191u64, 8_192] {
        let mut s = Streets::new(5);
        s.street(0, 1, &[3000; 10])
            .street(0, 1, &[6000; 12])
            .street(0, 1, &[1, 1])
            .street(0, 2, &[heavy, 1, heavy, heavy])
            .street(1, 2, &[4000, 4000, 1])
            .street(3, 3, &[4000, 4000, 4000, 4000, 4000])
            .street(4, 0, &[heavy, heavy]);
        assert_rows_match(&s.graph());
    }
}

#[test]
fn directed_one_way_chains_are_not_contracted() {
    // A one-way ring and a one-way line joined by a few two-way streets
    // and a one-way link: the graph is not symmetric, so nothing contracts
    // even though most nodes have degree 2.
    let n = 60u32;
    let mut b = GraphBuilder::new(n as usize);
    for v in 0..39 {
        b.add_arc(v, v + 1, 1 + u64::from(v % 7));
    }
    b.add_arc(39, 0, 50);
    for v in 40..59 {
        b.add_arc(v + 1, v, 2 + u64::from(v % 3));
    }
    b.add_edge(10, 40, 9);
    b.add_edge(25, 59, 3);
    b.add_arc(50, 5, 1);
    let g = b.build();
    assert!(!g.is_symmetric());
    assert_rows_match(&g);
}

/// Largest segment length per proptest case: well below the Dial bound,
/// long enough for runs to be split, just below it, at it (the radix heap),
/// and far beyond it.
const SCALES: [u64; 5] = [40, 3_000, 8_191, 8_192, 1 << 40];

/// A 12 × 12 street grid with 13 streets missing, every street cut into
/// 1–5 segments the way `mcfs-gen` subdivides its cities: 616 nodes, 132
/// of them intersections or dead ends, and `heavy` adds one street of
/// that length between two crossings.
fn subdivided_grid_city(heavy: Option<u64>) -> (Graph, usize) {
    let side = 12u32;
    let mut s = Streets::new(side * side);
    let mut degree = vec![0usize; (side * side) as usize];
    let mut street = |s: &mut Streets, u: u32, v: u32, salt: u32| {
        degree[u as usize] += 1;
        degree[v as usize] += 1;
        let mut lengths: Vec<u64> = (1..1 + salt % 5)
            .map(|k| u64::from(1 + (salt + k) % 9))
            .collect();
        lengths.push(u64::from(1 + salt % 7));
        s.street(u, v, &lengths);
    };
    for i in 0..side {
        for j in 0..side {
            let v = i * side + j;
            if j + 1 < side && (i * 7 + j * 5) % 11 != 0 {
                street(&mut s, v, v + 1, i + j);
            }
            if i + 1 < side && (i * 5 + j * 7 + 3) % 11 != 0 {
                street(&mut s, v, v + side, i * 3 + j);
            }
        }
    }
    let intersections = degree.iter().filter(|&&d| d != 2).count();
    if let Some(w) = heavy {
        let crossings: Vec<u32> = (0..side * side)
            .filter(|&v| degree[v as usize] >= 3)
            .collect();
        s.street(crossings[0], crossings[crossings.len() - 1], &[w]);
    }
    (s.graph(), intersections)
}

#[test]
fn subdivided_grid_city_rows_hold_its_intersections() {
    // Dial ring, then one 2^20 street (between two crossings, so the core
    // is unchanged) for the radix heap.
    for heavy in [None, Some(1 << 20)] {
        let (g, intersections) = subdivided_grid_city(heavy);
        assert_eq!((g.num_nodes(), intersections), (616, 132));
        assert_eq!(g.contraction().core_len(), 132);
        let mut filled = Vec::new();
        for source in g.nodes() {
            let row = Row::new(&g, source);
            assert_eq!((row.core_len(), row.num_nodes()), (132, 616));
            if let Some(problem) = row_mismatch(&g, source, &mut filled) {
                panic!("{problem} (heavy street {heavy:?})");
            }
        }
        // A clone shares the contraction rather than rebuilding it.
        assert!(Arc::ptr_eq(g.contraction(), g.clone().contraction()));
    }
}

#[test]
fn rows_are_send_and_sync() {
    fn shareable<T: Send + Sync>() {}
    shareable::<Row>();
    shareable::<Arc<Row>>();
}

// No explicit case count: the default (96) reads PROPTEST_CASES, which the
// CI backend-suites job sets to 256.
proptest! {
    /// Random street backbones (disconnected, with parallel and loop
    /// streets) whose streets are cut into 1–6 segments, with segment
    /// lengths drawn below, across and far beyond the Dial bound.
    #[test]
    fn subdivided_backbones_match_the_reference(
        intersections in 1u32..12,
        streets in vec((0u32..12, 0u32..12, vec(1u64..=1 << 40, 1..=6)), 0..24),
        scale in 0usize..SCALES.len(),
    ) {
        let mut s = Streets::new(intersections);
        for (u, v, lengths) in &streets {
            let lengths: Vec<u64> = lengths.iter().map(|w| 1 + w % SCALES[scale]).collect();
            let (u, v) = (u % intersections, v % intersections);
            // A one-segment street from a node to itself would be a
            // self-loop, which the builder rejects.
            if u != v || lengths.len() > 1 {
                s.street(u, v, &lengths);
            }
        }
        let g = s.graph();
        let mut filled = Vec::new();
        for source in g.nodes() {
            let problem = row_mismatch(&g, source, &mut filled);
            prop_assert!(problem.is_none(), "{}", problem.unwrap_or_default());
        }
    }
}
