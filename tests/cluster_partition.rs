//! Partition invariants for cluster mode, property-checked on randomized
//! instances: every customer and facility lands in exactly one shard, the
//! boundary index is complete (a customer is boundary iff its node has a
//! cut edge), bands stay balanced, and the budget split always grants each
//! shard a feasible budget that sums to at most `k`.
//!
//! Each property runs at least 48 cases, more when `PROPTEST_CASES` asks
//! for more (the CI cluster-suites job: 256).

use mcfs_repro::cluster::{partition, split_budget, PartitionStrategy};
use mcfs_repro::core::{Facility, McfsInstance};
use mcfs_repro::graph::{Graph, GraphBuilder, NodeId, Point};
use proptest::prelude::*;

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
