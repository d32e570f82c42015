//! Neither the thread knob nor the distance strategy changes a solution:
//! for every solver in the workspace, `threads(1)`, `threads(2)` and
//! `threads(8)` must produce *byte-identical* solutions — same facilities,
//! same assignment, same objective, down to the serialized form. This is
//! the whole-solve half of the distance-engine contract; the row and
//! stream half lives in `tests/backend_equivalence.rs`.
//!
//! Which rows a run reads follows from the instance, never from the thread
//! count. The inputs cover both strategies: facility rows (symmetric graph,
//! no more distinct candidate nodes than customers — the `few-sites`
//! input, and the `city-sites` input on a subdivided city, whose rows come
//! from a search over its intersections expanded onto the street chains),
//! and lazy per-customer streams (every other input, with the final
//! assignment's facility rows there). Every input is also solved on its
//! *one-way twin*: the same graph plus one one-way arc, heavier than all
//! edges together, between two adjacent nodes. No shortest path can use
//! that arc, so every distance is unchanged, but the twin is not symmetric
//! and therefore streams lazily throughout. Its solutions must be the same
//! bytes, with no test-only hook choosing the strategy.

use std::sync::Arc;

use mcfs_repro::baselines::{BrnnBaseline, GreedyAddition};
use mcfs_repro::core::refine::LocalSearch;
use mcfs_repro::core::{Facility, McfsInstance, Solution, Solver, UniformFirst, Wma, WmaNaive};
use mcfs_repro::gen::city::{generate_city, CitySpec, CityStyle};
use mcfs_repro::gen::customers::uniform_customers;
use mcfs_repro::gen::synthetic::{generate_synthetic, SyntheticConfig};
use mcfs_repro::graph::{connected_components, DistanceOracle, Graph, GraphBuilder, NodeId};
use mcfs_repro::io::write_solution;

const THREADS: [usize; 3] = [1, 2, 8];

/// A mid-size workload: big enough that the solvers run their full
/// machinery (matching iterations, cover repair, refinement rounds), small
/// enough to solve six ways per test.
fn mid_size_instance(g: &Graph) -> McfsInstance<'_> {
    let customers = uniform_customers(g, 20, 3);
    McfsInstance::builder(g)
        .customers(customers)
        .facilities(
            g.nodes()
                .step_by(2)
                .map(|node| Facility { node, capacity: 4 }),
        )
        .k(6)
        .build()
        .unwrap()
}

/// The Figure-6 workload at test size: a uniform synthetic network with a
/// facility of capacity 5 at every node.
fn fig6_instance(g: &Graph) -> McfsInstance<'_> {
    let customers = uniform_customers(g, 40, 3);
    McfsInstance::builder(g)
        .customers(customers)
        .facilities(g.nodes().map(|node| Facility { node, capacity: 5 }))
        .k(10)
        .build()
        .unwrap()
}

/// The ℓ ≤ m input: 40 customers against 8 candidates on 7 distinct nodes
/// (two share a node) inside the network's largest component, so every
/// thread count reads facility rows.
fn few_sites_instance(g: &Graph) -> McfsInstance<'_> {
    let cc = connected_components(g);
    let largest = (0..cc.count).max_by_key(|&c| cc.sizes[c]).unwrap() as u32;
    let nodes: Vec<NodeId> = g.nodes().filter(|&v| cc.of(v) == largest).collect();
    assert!(
        nodes.len() >= 60,
        "largest component has {} nodes",
        nodes.len()
    );
    let customers = (0..40).map(|i| nodes[(i * 7 + 3) % nodes.len()]);
    let mut sites: Vec<NodeId> = (0..7).map(|j| nodes[(j * 11 + 1) % nodes.len()]).collect();
    sites.push(sites[2]);
    McfsInstance::builder(g)
        .customers(customers)
        .facilities(
            sites
                .into_iter()
                .map(|node| Facility { node, capacity: 10 }),
        )
        .k(5)
        .build()
        .unwrap()
}

/// A subdivided grid city of about 1,200 nodes.
fn small_city() -> Graph {
    generate_city(&CitySpec {
        name: "DeterminismCity",
        target_nodes: 1_200,
        style: CityStyle::Grid,
        avg_edge_len: 30.0,
        seed: 5,
    })
}

/// The ℓ ≤ m input on a road network: a subdivided grid city, where most
/// nodes are degree-2 chain nodes, with 40 customers and 8 candidate sites
/// spread over its largest component, so customers and sites mostly sit
/// inside streets.
fn city_sites_instance(g: &Graph) -> McfsInstance<'_> {
    let cc = connected_components(g);
    let largest = (0..cc.count).max_by_key(|&c| cc.sizes[c]).unwrap() as u32;
    let nodes: Vec<NodeId> = g.nodes().filter(|&v| cc.of(v) == largest).collect();
    let chain = nodes.iter().filter(|&&v| g.degree(v) == 2).count();
    assert!(
        chain * 2 > nodes.len(),
        "only {chain} of {} nodes are chain nodes",
        nodes.len()
    );
    let customers = (0..40).map(|i| nodes[(i * 37 + 11) % nodes.len()]);
    let sites = (0..8).map(|j| nodes[(j * 173 + 29) % nodes.len()]);
    McfsInstance::builder(g)
        .customers(customers)
        .facilities(sites.map(|node| Facility { node, capacity: 10 }))
        .k(5)
        .build()
        .unwrap()
}

/// Check `solve` on every input of the six-solver check: the mid-size
/// workload, the 400-node Figure-6 instance, the few-sites instance and
/// the city-sites instance.
fn for_each_workload(solver: &str, solve: impl Fn(&McfsInstance, usize) -> Solution) {
    let g = generate_synthetic(&SyntheticConfig::uniform(150, 2.0, 7));
    assert_thread_invariant(
        &format!("{solver}/mid-size"),
        &mid_size_instance(&g),
        &solve,
    );
    assert_thread_invariant(
        &format!("{solver}/few-sites"),
        &few_sites_instance(&g),
        &solve,
    );
    let g = generate_synthetic(&SyntheticConfig::uniform(400, 2.0, 11));
    assert_thread_invariant(&format!("{solver}/fig6"), &fig6_instance(&g), &solve);
    let g = small_city();
    assert_thread_invariant(
        &format!("{solver}/city-sites"),
        &city_sites_instance(&g),
        &solve,
    );
}

/// `g` plus one one-way arc between two adjacent nodes, heavier than all
/// of `g`'s arcs together. A shortest path never uses it, so distances are
/// unchanged; the twin is simply not symmetric.
fn one_way_twin(g: &Graph) -> Graph {
    let mut b = match g.coords() {
        Some(coords) => GraphBuilder::with_coords(coords.to_vec()),
        None => GraphBuilder::new(g.num_nodes()),
    };
    for u in g.nodes() {
        for (v, w) in g.neighbors(u) {
            b.add_arc(u, v, w);
        }
    }
    let heavy = g.csr().2.iter().sum::<u64>() + 1;
    let (u, (v, _)) = g
        .nodes()
        .find_map(|u| g.neighbors(u).next().map(|arc| (u, arc)))
        .expect("the graph has an edge");
    b.add_arc(u, v, heavy);
    let twin = b.build();
    assert!(g.is_symmetric() && !twin.is_symmetric());
    twin
}

/// Serialize a solution so equality means *byte* equality, not just
/// `PartialEq` over the struct.
fn bytes(sol: &Solution) -> Vec<u8> {
    let mut buf = Vec::new();
    write_solution(&mut buf, sol).unwrap();
    buf
}

/// Solve `inst` at every thread count, and its one-way twin at every
/// thread count: all must serialize to the `threads(1)` solution's bytes.
fn assert_thread_invariant(
    name: &str,
    inst: &McfsInstance,
    solve: impl Fn(&McfsInstance, usize) -> Solution,
) {
    let twin_graph = one_way_twin(inst.graph());
    let twin = McfsInstance::builder(&twin_graph)
        .customers(inst.customers().iter().copied())
        .facilities(inst.facilities().iter().copied())
        .k(inst.k())
        .build()
        .unwrap();
    let reference = solve(inst, THREADS[0]);
    inst.verify(&reference)
        .unwrap_or_else(|e| panic!("{name}: threads(1) solution invalid: {e:?}"));
    let reference_bytes = bytes(&reference);
    for (graph, instance) in [("", inst), (" on the one-way twin", &twin)] {
        for &t in &THREADS {
            let sol = solve(instance, t);
            assert_eq!(
                reference, sol,
                "{name}: threads({t}){graph} changed the solution"
            );
            assert_eq!(
                reference_bytes,
                bytes(&sol),
                "{name}: threads({t}){graph} changed the serialized solution"
            );
        }
    }
}

#[test]
fn wma_is_thread_invariant() {
    for_each_workload("Wma", |inst, t| Wma::new().threads(t).solve(inst).unwrap());
}

#[test]
fn wma_naive_is_thread_invariant() {
    for_each_workload("WmaNaive", |inst, t| {
        WmaNaive::new().threads(t).solve(inst).unwrap()
    });
}

#[test]
fn uniform_first_is_thread_invariant() {
    for_each_workload("UniformFirst", |inst, t| {
        UniformFirst::new().threads(t).solve(inst).unwrap()
    });
}

#[test]
fn brnn_is_thread_invariant() {
    for_each_workload("Brnn", |inst, t| {
        BrnnBaseline::new().threads(t).solve(inst).unwrap()
    });
}

#[test]
fn greedy_addition_is_thread_invariant() {
    for_each_workload("Greedy", |inst, t| {
        GreedyAddition::new().threads(t).solve(inst).unwrap()
    });
}

#[test]
fn local_search_refinement_is_thread_invariant() {
    for_each_workload("LocalSearch", |inst, t| {
        let base = Wma::new().threads(1).solve(inst).unwrap();
        LocalSearch::default()
            .threads(t)
            .refine(inst, &base)
            .unwrap()
    });
}

/// The city-sites input takes the facility-row path the city input is
/// there for: a single-thread solve fills one row per distinct site.
#[test]
fn city_sites_input_reads_facility_rows() {
    let g = small_city();
    let inst = city_sites_instance(&g);
    let mut sites: Vec<NodeId> = inst.facilities().iter().map(|f| f.node).collect();
    sites.sort_unstable();
    sites.dedup();
    let run = Wma::new().threads(1).run(&inst).unwrap();
    assert_eq!(run.solve_stats.cache_misses, sites.len() as u64);
}

/// The server path: a session's solver shares one long-lived
/// `Arc<DistanceOracle>`, so its rows come from that oracle's cache or the
/// arena fill. A cold solve and a re-solve over the warm cache must both
/// equal the lazy single-thread solve.
#[test]
fn shared_oracle_solve_matches_lazy_solve() {
    let g = generate_synthetic(&SyntheticConfig::uniform(300, 2.0, 17));
    let inst = fig6_instance(&g);
    let reference = Wma::new().threads(1).solve(&inst).unwrap();
    let oracle = Arc::new(DistanceOracle::new().with_threads(2));
    let solver = Wma::new().with_oracle(Arc::clone(&oracle));
    let cold = solver.solve(&inst).unwrap();
    assert_eq!(
        bytes(&reference),
        bytes(&cold),
        "shared-oracle solve differs"
    );
    assert!(
        oracle.stats().cached_rows > 0,
        "the oracle path was not taken"
    );
    let warm = solver.solve(&inst).unwrap();
    assert_eq!(
        bytes(&reference),
        bytes(&warm),
        "warm shared-oracle solve differs"
    );
}

/// Cross-check on a second, sparser workload where the network is likely
/// disconnected — the regime where distance ties and `INF` handling differ
/// most between the lazy and batched substrates.
#[test]
fn thread_invariance_holds_on_a_sparse_disconnected_workload() {
    let g = generate_synthetic(&SyntheticConfig::uniform(120, 1.2, 23));
    let customers = uniform_customers(&g, 16, 5);
    let inst = McfsInstance::builder(&g)
        .customers(customers.iter().copied())
        .facilities(g.nodes().map(|node| Facility { node, capacity: 3 }))
        .k(8)
        .build()
        .unwrap();
    assert_thread_invariant("Wma/sparse", &inst, |inst, t| {
        Wma::new().threads(t).solve(inst).unwrap()
    });
    assert_thread_invariant("Brnn/sparse", &inst, |inst, t| {
        BrnnBaseline::new().threads(t).solve(inst).unwrap()
    });
}
