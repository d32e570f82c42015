//! Partition invariants for cluster mode, property-checked on randomized
//! instances: every customer and facility lands in exactly one shard, the
//! boundary index is complete (a customer is boundary iff its node has a
//! cut edge), bands stay balanced, and the budget split always grants each
//! shard a feasible budget that sums to at most `k`.
//!
//! The identity suite pins the partitioner's mechanics to the plain path
//! they replace, byte for byte: the table-driven `hilbert_xy2d` against
//! the one-level-per-step loop, `Graph::induced` against a
//! `GraphBuilder` extraction, and `partition` against a copy of the path
//! that sorted every node by `(key, node)` and rebuilt each shard through
//! `GraphBuilder`.
//!
//! Each property runs at least 48 cases, more when `PROPTEST_CASES` asks
//! for more (the CI cluster-suites job: 256).

use std::hash::{Hash, Hasher};

use mcfs_repro::cluster::{partition, split_budget, Partition, PartitionStrategy};
use mcfs_repro::core::{Facility, McfsInstance};
use mcfs_repro::graph::{hilbert_xy2d, Graph, GraphBuilder, NodeId, Point};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rustc_hash::FxHasher;

/// `floor` cases, or more when `PROPTEST_CASES` asks for more: the CI
/// cluster-suites job widens the suite to 256 cases, and no job runs fewer
/// than the floor.
fn cases(floor: u32) -> ProptestConfig {
    let asked = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok());
    ProptestConfig::with_cases(asked.map_or(floor, |c: u32| c.max(floor)))
}

/// A connected graph: spanning path plus random chords.
fn chord_graph(n: usize, extra: &[(u32, u32, u64)]) -> Graph {
    let mut b = GraphBuilder::new(n);
    for i in 0..n - 1 {
        b.add_edge(i as NodeId, i as NodeId + 1, 7);
    }
    for &(u, v, w) in extra {
        let (u, v) = (u % n as u32, v % n as u32);
        if u != v {
            b.add_edge(u, v, w);
        }
    }
    b.build()
}

/// A `side × side` grid with unit coordinates (the geometric case that
/// exercises Hilbert banding).
fn grid_graph(side: u32, weight: u64) -> Graph {
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
                b.add_edge(v, v + 1, weight);
            }
            if y + 1 < side {
                b.add_edge(v, v + side, weight);
            }
        }
    }
    b.build()
}

/// Reconstruct `node → shard` from the plan and assert the node sets are a
/// disjoint cover of the graph.
fn node_shard_map(g: &Graph, shards: &[mcfs_repro::cluster::Shard]) -> Vec<Option<usize>> {
    let mut of: Vec<Option<usize>> = vec![None; g.num_nodes()];
    for (s, shard) in shards.iter().enumerate() {
        for &v in &shard.nodes {
            assert!(of[v as usize].is_none(), "node {v} in two shards");
            of[v as usize] = Some(s);
        }
    }
    assert!(
        of.iter().all(Option::is_some),
        "node missing from all shards"
    );
    of
}

proptest! {
    #![proptest_config(cases(48))]

    /// On arbitrary connected graphs, a non-trivial plan covers customers
    /// and facilities exactly once, indexes exactly the cut-edge customers
    /// as boundary, and its feasibility minima never exceed `k`.
    #[test]
    fn partition_is_an_exact_cover_with_complete_boundary(
        n in 8usize..24,
        extra in proptest::collection::vec((0u32..24, 0u32..24, 1u64..40), 0..12),
        cust_picks in proptest::collection::vec(0u32..24, 3..10),
        fac_picks in proptest::collection::vec((0u32..24, 2u32..5), 3..8),
        k in 2usize..5,
        want in 2usize..5,
    ) {
        let g = chord_graph(n, &extra);
        let customers: Vec<NodeId> = cust_picks.iter().map(|&c| c % n as u32).collect();
        let mut facilities: Vec<Facility> = fac_picks
            .iter()
            .map(|&(v, c)| Facility { node: v % n as u32, capacity: c })
            .collect();
        facilities.dedup_by_key(|f| f.node);
        let k = k.min(facilities.len());
        let inst = McfsInstance::builder(&g)
            .customers(customers.clone())
            .facilities(facilities.clone())
            .k(k)
            .build()
            .unwrap();

        let p = partition(&inst, want);
        if p.strategy == PartitionStrategy::Single {
            prop_assert!(p.shards.is_empty());
            prop_assert!(p.boundary.is_empty());
            return Ok(());
        }
        prop_assert!(p.shards.len() >= 2);
        prop_assert!(p.shards.len() <= want);
        let of = node_shard_map(&g, &p.shards);

        // Customers: exact cover, and the local node translates back to
        // the global customer node.
        let mut seen_customers = vec![false; customers.len()];
        for shard in &p.shards {
            prop_assert_eq!(shard.customers.len(), shard.local_customers.len());
            for (slot, &ci) in shard.customers.iter().enumerate() {
                prop_assert!(!seen_customers[ci], "customer {} in two shards", ci);
                seen_customers[ci] = true;
                let local = shard.local_customers[slot];
                prop_assert_eq!(shard.nodes[local as usize], customers[ci]);
            }
        }
        prop_assert!(seen_customers.iter().all(|&s| s), "customer missing from all shards");

        // Facilities: exact cover, node and capacity survive translation.
        let mut seen_fac = vec![false; facilities.len()];
        for shard in &p.shards {
            for (slot, &fj) in shard.facilities.iter().enumerate() {
                let fj = fj as usize;
                prop_assert!(!seen_fac[fj], "facility {} in two shards", fj);
                seen_fac[fj] = true;
                let local = &shard.local_facilities[slot];
                prop_assert_eq!(shard.nodes[local.node as usize], facilities[fj].node);
                prop_assert_eq!(local.capacity, facilities[fj].capacity);
            }
        }
        prop_assert!(seen_fac.iter().all(|&s| s), "facility missing from all shards");

        // Boundary completeness: customer i is boundary exactly when its
        // node touches a cut edge.
        for (i, &c) in customers.iter().enumerate() {
            let cut = g
                .neighbors(c)
                .any(|(v, _)| of[v as usize] != of[c as usize]);
            prop_assert_eq!(
                p.boundary.contains(&i),
                cut,
                "customer {} (node {}) boundary flag disagrees with cut edges", i, c
            );
        }

        // Feasibility minima fit in the budget, and every customer-bearing
        // shard builds a feasible sub-instance at its minimum.
        prop_assert!(p.min_budget() <= k);
        for shard in &p.shards {
            if shard.customers.is_empty() {
                continue;
            }
            prop_assert!(shard.min_facilities >= 1);
            let sub = shard.instance(shard.min_facilities).unwrap();
            sub.check_feasibility().unwrap();
        }
    }

    /// Hilbert banding on geometric grids: the strategy is chosen, bands
    /// stay balanced within 20% of the ideal share, and sub-graphs keep
    /// their coordinates.
    #[test]
    fn hilbert_bands_stay_balanced_on_grids(
        side in 6u32..12,
        want in 2usize..5,
        weight in 1u64..30,
    ) {
        let g = grid_graph(side, weight);
        let n = (side * side) as usize;
        let mut builder = McfsInstance::builder(&g).customers(0..n as u32);
        for v in 0..n as u32 {
            builder = builder.facility(v, 4);
        }
        let inst = builder.k(n / 2).build().unwrap();
        let p = partition(&inst, want);
        prop_assert_eq!(p.strategy, PartitionStrategy::HilbertBands);
        prop_assert_eq!(p.shards.len(), want);
        let ideal = n as f64 / want as f64;
        for shard in &p.shards {
            let size = shard.nodes.len() as f64;
            prop_assert!(
                (size - ideal).abs() <= ideal * 0.2,
                "band of {} nodes strays more than 20% from ideal {:.1}", shard.nodes.len(), ideal
            );
            prop_assert!(shard.graph.coords().is_some(), "coordinates lost in extraction");
        }
    }

    /// The budget split always grants every shard a budget in
    /// `[min_facilities, ℓ_s]`, zero to customer-less shards, and spends
    /// exactly `k` whenever the shards can absorb it.
    #[test]
    fn split_budget_is_feasible_and_exhaustive(
        side in 5u32..10,
        want in 2usize..5,
        spread in 2usize..6,
        k_extra in 0usize..6,
    ) {
        let g = grid_graph(side, 9);
        let n = (side * side) as usize;
        // Customers on a stride so some shards end up lighter than others.
        let customers: Vec<NodeId> = (0..n as u32).step_by(spread).collect();
        let mut builder = McfsInstance::builder(&g).customers(customers.iter().copied());
        for v in (0..n as u32).step_by(2) {
            builder = builder.facility(v, 6);
        }
        let num_fac = n.div_ceil(2);
        let inst = builder.k((want + k_extra).min(num_fac)).build().unwrap();
        let p = partition(&inst, want);
        if p.strategy == PartitionStrategy::Single {
            return Ok(());
        }
        let budgets = split_budget(&p, inst.k());
        prop_assert_eq!(budgets.len(), p.shards.len());
        let mut spent = 0usize;
        let mut headroom = false;
        for (shard, &b) in p.shards.iter().zip(&budgets) {
            if shard.customers.is_empty() {
                prop_assert_eq!(b, 0, "customer-less shard granted budget");
            } else {
                prop_assert!(b >= shard.min_facilities);
                prop_assert!(b <= shard.num_facilities());
                headroom |= b < shard.num_facilities();
            }
            spent += b;
        }
        prop_assert!(spent <= inst.k());
        if spent < inst.k() {
            // Under-spending is legal only when every shard hit its
            // candidate ceiling.
            prop_assert!(!headroom, "budget left over while a shard had headroom");
        }
    }
}

/// The curve index as one level per step: read a bit of each coordinate,
/// emit a 2-bit digit, rotate the lower bits. The reference for the
/// table-driven [`hilbert_xy2d`].
fn loop_xy2d(order: u32, x: u32, y: u32) -> u64 {
    let (mut x, mut y) = (u64::from(x), u64::from(y));
    let mut d = 0u64;
    let mut s = (1u64 << order) / 2;
    while s > 0 {
        let rx = u64::from(x & s > 0);
        let ry = u64::from(y & s > 0);
        d += s * s * ((3 * rx) ^ ry);
        if ry == 0 {
            if rx == 1 {
                x = s.wrapping_sub(1).wrapping_sub(x);
                y = s.wrapping_sub(1).wrapping_sub(y);
            }
            std::mem::swap(&mut x, &mut y);
        }
        s /= 2;
    }
    d
}

#[test]
fn table_driven_hilbert_index_equals_the_level_loop() {
    // Every cell of the small grids.
    for order in 1..=5u32 {
        let side = 1u32 << order;
        for x in 0..side {
            for y in 0..side {
                assert_eq!(
                    hilbert_xy2d(order, x, y),
                    loop_xy2d(order, x, y),
                    "order {order} ({x}, {y})"
                );
            }
        }
    }
    // Corners and random cells at every order.
    let mut rng = StdRng::seed_from_u64(0x4811_B387);
    for order in 1..=31u32 {
        let max = (1u32 << order) - 1;
        let corners = [(0, 0), (0, max), (max, 0), (max, max)];
        let random = (0..4096).map(|_| (rng.random::<u32>() & max, rng.random::<u32>() & max));
        for (x, y) in corners.into_iter().chain(random) {
            assert_eq!(
                hilbert_xy2d(order, x, y),
                loop_xy2d(order, x, y),
                "order {order} ({x}, {y})"
            );
        }
    }
}

/// `hilbert_keys` over [`loop_xy2d`]: points scaled onto the grid that
/// spans their bounding box, a degenerate axis collapsed to cell 0.
fn loop_keys(points: &[Point], order: u32) -> Vec<u64> {
    let (mut min_x, mut min_y) = (f64::INFINITY, f64::INFINITY);
    let (mut max_x, mut max_y) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
    for p in points {
        min_x = min_x.min(p.x);
        min_y = min_y.min(p.y);
        max_x = max_x.max(p.x);
        max_y = max_y.max(p.y);
    }
    let side = (1u64 << order) as f64;
    let span_x = (max_x - min_x).max(f64::MIN_POSITIVE);
    let span_y = (max_y - min_y).max(f64::MIN_POSITIVE);
    points
        .iter()
        .map(|p| {
            let gx = (((p.x - min_x) / span_x) * (side - 1.0)).round() as u32;
            let gy = (((p.y - min_y) / span_y) * (side - 1.0)).round() as u32;
            loop_xy2d(order, gx, gy)
        })
        .collect()
}

/// The sub-graph on `nodes` (local `i` = `nodes[i]`) fed arc by arc
/// through a [`GraphBuilder`], and the count of arcs leaving it.
fn builder_extract(
    g: &Graph,
    nodes: &[NodeId],
    local: &[Option<NodeId>],
    salt: u64,
) -> (Graph, usize) {
    let mut b = match g.coords() {
        Some(points) => {
            GraphBuilder::with_coords(nodes.iter().map(|&v| points[v as usize]).collect())
        }
        None => GraphBuilder::new(nodes.len()),
    };
    let mut leaving = 0;
    for &u in nodes {
        for (v, w) in g.neighbors(u) {
            match local[v as usize] {
                Some(lv) => b.add_arc(local[u as usize].unwrap(), lv, w),
                None => leaving += 1,
            }
        }
    }
    b.set_id_salt(salt);
    (b.build(), leaving)
}

/// Every observable of two graphs that must agree byte for byte; the
/// symmetry flag of `fresh` is computed from its own arcs.
fn assert_same_graph(got: &Graph, fresh: &Graph) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.csr(), fresh.csr());
    prop_assert_eq!(got.structural_hash(), fresh.structural_hash());
    prop_assert_eq!(got.coords(), fresh.coords());
    prop_assert_eq!(got.id_salt(), fresh.id_salt());
    prop_assert_eq!(got.is_symmetric(), fresh.is_symmetric());
    Ok(())
}

/// Old-path salt of a shard sub-graph: the parent's identity and the
/// member ids, never 0.
fn old_shard_salt(parent: &Graph, nodes: &[NodeId]) -> u64 {
    let mut h = FxHasher::default();
    parent.structural_hash().hash(&mut h);
    parent.id_salt().hash(&mut h);
    nodes.hash(&mut h);
    match h.finish() {
        0 => 1,
        salt => salt,
    }
}

/// One shard as the old path built it.
struct OldShard {
    graph: Graph,
    nodes: Vec<NodeId>,
    customers: Vec<usize>,
    local_customers: Vec<NodeId>,
    facilities: Vec<u32>,
    local_facilities: Vec<Facility>,
    min_facilities: usize,
    cut_edges: usize,
}

/// The old path's plan; no shards for a `Single` plan.
struct OldPartition {
    shards: Vec<OldShard>,
    boundary: Vec<usize>,
    strategy: PartitionStrategy,
}

/// Breadth-first numbering from node 0, unreached nodes in id order.
fn old_bfs_order(g: &Graph) -> Vec<u32> {
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

/// Old node assignment: components binned largest-first, else every node
/// sorted by `(key, node)` (or taken in BFS order) and rank `r` sent to
/// band `r·n/N`.
fn old_assign_nodes(g: &Graph, n: usize) -> Option<(Vec<u32>, PartitionStrategy)> {
    let num_nodes = g.num_nodes();
    if n < 2 || num_nodes < n {
        return None;
    }
    let cc = g.components();
    if cc.count > 1 {
        let bins = n.min(cc.count);
        let mut order: Vec<usize> = (0..cc.count).collect();
        order.sort_by_key(|&c| (std::cmp::Reverse(cc.sizes[c]), c));
        let mut load = vec![0usize; bins];
        let mut bin_of = vec![0u32; cc.count];
        for c in order {
            let lightest = (0..bins).min_by_key(|&b| (load[b], b)).unwrap();
            bin_of[c] = lightest as u32;
            load[lightest] += cc.sizes[c];
        }
        let node_shard = (0..num_nodes)
            .map(|v| bin_of[cc.of(v as NodeId) as usize])
            .collect();
        return Some((node_shard, PartitionStrategy::Components));
    }
    let (order, strategy) = match g.coords() {
        Some(points) => {
            let keys = loop_keys(points, 16);
            let mut order: Vec<u32> = (0..num_nodes as u32).collect();
            order.sort_by_key(|&v| (keys[v as usize], v));
            (order, PartitionStrategy::HilbertBands)
        }
        None => (old_bfs_order(g), PartitionStrategy::BfsBands),
    };
    let mut node_shard = vec![0u32; num_nodes];
    for (rank, &v) in order.iter().enumerate() {
        node_shard[v as usize] = (rank * n / num_nodes) as u32;
    }
    Some((node_shard, strategy))
}

/// Old exact-`n` cut: `GraphBuilder` shards, border nodes marked while
/// copying arcs, Theorem-3 minima per customer-bearing shard.
fn old_try_partition(inst: &McfsInstance, n: usize) -> Option<OldPartition> {
    let g = inst.graph();
    let (node_shard, strategy) = old_assign_nodes(g, n)?;
    let mut nodes: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    let mut node_local = vec![0u32; g.num_nodes()];
    for v in g.nodes() {
        let s = node_shard[v as usize] as usize;
        node_local[v as usize] = nodes[s].len() as u32;
        nodes[s].push(v);
    }
    if nodes.iter().any(Vec::is_empty) {
        return None;
    }
    let mut shards = Vec::with_capacity(n);
    let mut border = vec![false; g.num_nodes()];
    for (s, shard_nodes) in nodes.iter().enumerate() {
        let mut b = match g.coords() {
            Some(points) => {
                GraphBuilder::with_coords(shard_nodes.iter().map(|&v| points[v as usize]).collect())
            }
            None => GraphBuilder::new(shard_nodes.len()),
        };
        let mut cut_arcs = 0usize;
        for &u in shard_nodes {
            for (v, w) in g.neighbors(u) {
                if node_shard[v as usize] as usize == s {
                    b.add_arc(node_local[u as usize], node_local[v as usize], w);
                } else {
                    cut_arcs += 1;
                    border[u as usize] = true;
                }
            }
        }
        b.set_id_salt(old_shard_salt(g, shard_nodes));
        shards.push(OldShard {
            graph: b.build(),
            nodes: shard_nodes.clone(),
            customers: Vec::new(),
            local_customers: Vec::new(),
            facilities: Vec::new(),
            local_facilities: Vec::new(),
            min_facilities: 0,
            cut_edges: cut_arcs,
        });
    }
    let mut boundary = Vec::new();
    for (i, &c) in inst.customers().iter().enumerate() {
        let s = node_shard[c as usize] as usize;
        shards[s].customers.push(i);
        shards[s].local_customers.push(node_local[c as usize]);
        if border[c as usize] {
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
    let mut total_min = 0usize;
    for shard in &mut shards {
        if shard.customers.is_empty() {
            continue;
        }
        if shard.local_facilities.is_empty() {
            return None;
        }
        let sub = McfsInstance::builder(&shard.graph)
            .customers(shard.local_customers.iter().copied())
            .facilities(shard.local_facilities.iter().copied())
            .k(shard.local_facilities.len())
            .build()
            .ok()?;
        let report = sub.check_feasibility().ok()?;
        shard.min_facilities = report.min_counts.iter().sum();
        total_min += shard.min_facilities;
    }
    if total_min > inst.k() {
        return None;
    }
    Some(OldPartition {
        shards,
        boundary,
        strategy,
    })
}

/// The old `partition`: exact cuts from `want` down to 2, else `Single`.
fn old_partition(inst: &McfsInstance, want: usize) -> OldPartition {
    (2..=want.max(1))
        .rev()
        .find_map(|n| old_try_partition(inst, n))
        .unwrap_or(OldPartition {
            shards: Vec::new(),
            boundary: Vec::new(),
            strategy: PartitionStrategy::Single,
        })
}

/// Every field of a plan against the old path's, shard by shard.
fn assert_same_partition(
    got: &Partition,
    old: &OldPartition,
    want: usize,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.strategy, old.strategy);
    prop_assert_eq!(
        got.requested,
        if old.shards.is_empty() {
            want.max(1)
        } else {
            old.shards.len()
        }
    );
    prop_assert_eq!(&got.boundary, &old.boundary);
    prop_assert_eq!(got.shards.len(), old.shards.len());
    for (s, o) in got.shards.iter().zip(&old.shards) {
        prop_assert_eq!(&s.nodes, &o.nodes);
        assert_same_graph(&s.graph, &o.graph)?;
        prop_assert_eq!(&s.customers, &o.customers);
        prop_assert_eq!(&s.local_customers, &o.local_customers);
        prop_assert_eq!(&s.facilities, &o.facilities);
        prop_assert_eq!(&s.local_facilities, &o.local_facilities);
        prop_assert_eq!(s.min_facilities, o.min_facilities);
        prop_assert_eq!(s.cut_edges, o.cut_edges);
    }
    Ok(())
}

/// A random identity-suite instance from `seed`: coordinates absent, on a
/// 4×4 lattice (many nodes share a point and so a Hilbert key) or
/// scattered; one to three components; chords, some one-way, some laid
/// twice (parallel arcs); and a few small facilities, so finer cuts often
/// strand customers and fall back.
fn identity_instance(seed: u64) -> (Graph, Vec<NodeId>, Vec<Facility>, usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.random_range(6..48usize);
    let points: Option<Vec<Point>> = match rng.random_range(0..3u32) {
        0 => None,
        1 => Some(
            (0..n)
                .map(|_| Point {
                    x: f64::from(rng.random_range(0..4u32)),
                    y: f64::from(rng.random_range(0..4u32)),
                })
                .collect(),
        ),
        _ => Some(
            (0..n)
                .map(|_| Point {
                    x: rng.random::<f64>() * 1000.0,
                    y: rng.random::<f64>() * 1000.0,
                })
                .collect(),
        ),
    };
    let mut b = match points {
        Some(points) => GraphBuilder::with_coords(points),
        None => GraphBuilder::new(n),
    };
    // Nodes split into contiguous pieces; the spanning path and the chords
    // stay inside a piece.
    let pieces = if rng.random_bool(0.6) {
        1
    } else {
        rng.random_range(2..4usize)
    };
    let piece = |v: usize| v * pieces / n;
    for v in 0..n - 1 {
        if piece(v) == piece(v + 1) {
            b.add_edge(v as NodeId, v as NodeId + 1, rng.random_range(1..20u64));
        }
    }
    for _ in 0..rng.random_range(0..n) {
        let (u, v) = (rng.random_range(0..n), rng.random_range(0..n));
        if u == v || piece(u) != piece(v) {
            continue;
        }
        let (w, one_way) = (rng.random_range(1..20u64), rng.random_bool(0.15));
        for _ in 0..rng.random_range(1..3u32) {
            if one_way {
                b.add_arc(u as NodeId, v as NodeId, w);
            } else {
                b.add_edge(u as NodeId, v as NodeId, w);
            }
        }
    }
    let g = b.build();
    let customers: Vec<NodeId> = (0..rng.random_range(1..=n))
        .map(|_| rng.random_range(0..n) as NodeId)
        .collect();
    let mut sites: Vec<NodeId> = (0..n as NodeId).collect();
    sites.shuffle(&mut rng);
    sites.truncate(rng.random_range(1..=n.min(10)));
    let facilities: Vec<Facility> = sites
        .into_iter()
        .map(|node| Facility {
            node,
            capacity: rng.random_range(1..8u32),
        })
        .collect();
    let k = rng.random_range(1..=facilities.len());
    (g, customers, facilities, k)
}

/// `partition` and the old path on one identity instance, for every
/// `want` in 2..=5; returns the plans' `(strategy, shards)` per `want`.
fn check_identity(seed: u64) -> Result<Vec<(PartitionStrategy, usize)>, TestCaseError> {
    let (g, customers, facilities, k) = identity_instance(seed);
    let inst = McfsInstance::builder(&g)
        .customers(customers)
        .facilities(facilities)
        .k(k)
        .build()
        .unwrap();
    let mut plans = Vec::new();
    for want in 2..=5 {
        let got = partition(&inst, want);
        assert_same_partition(&got, &old_partition(&inst, want), want)?;
        plans.push((got.strategy, got.shards.len()));
    }
    Ok(plans)
}

/// The identity instances reach every strategy, full cuts and fallbacks
/// to fewer shards and to `Single`, equal Hilbert keys, and symmetric as
/// well as directed graphs; otherwise the identity properties below could
/// pass without testing much.
#[test]
fn identity_instances_reach_every_strategy_and_fallback() {
    let (mut strategies, mut full, mut fewer, mut equal_keys) = (Vec::new(), false, false, false);
    let (mut symmetric, mut directed) = (false, false);
    for seed in 0..200 {
        let plans = check_identity(seed).unwrap_or_else(|e| panic!("seed {seed}: {e:?}"));
        for (want, &(strategy, shards)) in (2..=5).zip(&plans) {
            if !strategies.contains(&strategy) {
                strategies.push(strategy);
            }
            full |= shards == want;
            fewer |= shards >= 2 && shards < want;
        }
        let (g, ..) = identity_instance(seed);
        symmetric |= g.is_symmetric();
        directed |= !g.is_symmetric();
        if let Some(points) = g.coords() {
            let mut keys = loop_keys(points, 16);
            keys.sort_unstable();
            equal_keys |= keys.windows(2).any(|w| w[0] == w[1]) && g.components().count == 1;
        }
    }
    for s in [
        PartitionStrategy::Single,
        PartitionStrategy::Components,
        PartitionStrategy::HilbertBands,
        PartitionStrategy::BfsBands,
    ] {
        assert!(strategies.contains(&s), "no identity instance took {s:?}");
    }
    assert!(
        full && fewer && equal_keys,
        "full {full}, fewer {fewer}, equal keys {equal_keys}"
    );
    assert!(
        symmetric && directed,
        "symmetric {symmetric}, directed {directed}"
    );
}

proptest! {
    #![proptest_config(cases(48))]

    /// `Graph::induced` equals a `GraphBuilder` extraction of the same
    /// node list, on the identity instances' graphs (one-way and parallel
    /// arcs, with and without coordinates): CSR arrays, structural hash,
    /// coordinates, salt, leaving arcs, and a symmetry flag equal to a
    /// fresh check of the twin.
    #[test]
    fn induced_graph_equals_builder_extraction(seed in 0u64..u64::MAX, salt in 0u64..u64::MAX) {
        let (g, ..) = identity_instance(seed);
        let n = g.num_nodes();
        // A random member list in random order.
        let mut rng = StdRng::seed_from_u64(!seed);
        let mut nodes: Vec<NodeId> = (0..n as NodeId).filter(|_| rng.random_bool(0.6)).collect();
        nodes.shuffle(&mut rng);
        let mut local = vec![None; n];
        for (i, &v) in nodes.iter().enumerate() {
            local[v as usize] = Some(i as NodeId);
        }
        let (got, leaving) = g.induced(&nodes, |v| local[v as usize], salt);
        let (twin, twin_leaving) = builder_extract(&g, &nodes, &local, salt);
        prop_assert_eq!(got.num_nodes(), nodes.len());
        prop_assert_eq!(leaving, twin_leaving);
        assert_same_graph(&got, &twin)?;
    }

    /// `partition` reproduces the old sort-and-rebuild path exactly for
    /// every `want` in 2..=5: strategy, node lists, shard hashes and salts,
    /// customers, facilities, minima, cut edges and boundary.
    #[test]
    fn partition_equals_the_sort_and_rebuild_path(seed in 0u64..u64::MAX) {
        check_identity(seed)?;
    }
}
