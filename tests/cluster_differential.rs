//! Differential tests for cluster mode: a sharded solve must stay within
//! its own certified optimality-gap bound of a cold unsharded WMA solve.
//!
//! The chain that makes this a real guarantee: the reconciliation pass
//! computes `LB` = the cost of the optimal capacity-respecting assignment
//! onto *all* `ℓ` candidates, so `LB ≤ OPT ≤ cold`. The certificate is
//! `gap_ppm = ⌈(cost − LB) / LB · 10⁶⌉`, hence
//! `cost ≤ (1 + gap_ppm/10⁶) · LB ≤ (1 + gap_ppm/10⁶) · cold` — the bound
//! holds against any solver, including the cold solve checked here.
//!
//! The property runs at least 12 cases, more when `PROPTEST_CASES` asks
//! for more (the CI cluster-suites job: 256).

use mcfs_repro::cluster::{ClusterSolver, PartitionStrategy};
use mcfs_repro::core::{Facility, McfsInstance, Solver, Wma};
use mcfs_repro::gen::city::{generate_city, CitySpec, CityStyle};
use mcfs_repro::gen::customers::uniform_customers;
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

/// A generated city world: graph + customers + stations, capacities with
/// headroom so every partition stays feasible. A generated city can have
/// small pieces apart from its main grid; customers are drawn only where
/// some station can serve them, since a customer in a piece without a
/// station makes the world infeasible for every solver.
struct World {
    graph: mcfs_repro::graph::Graph,
    customers: Vec<mcfs_repro::graph::NodeId>,
    stations: Vec<Facility>,
    k: usize,
}

fn world(nodes: usize, customers: usize, stations: usize, k: usize, seed: u64) -> World {
    let spec = CitySpec {
        name: "cluster-diff",
        target_nodes: nodes,
        style: CityStyle::Grid,
        avg_edge_len: 40.0,
        seed,
    };
    let graph = generate_city(&spec);
    let sites = mcfs_repro::gen::bikes::generate_stations(&graph, stations, seed ^ 2);
    let labels = graph.components();
    let mut served = vec![false; labels.count];
    for s in &sites {
        served[labels.of(s.node) as usize] = true;
    }
    let customers: Vec<_> = uniform_customers(&graph, customers, seed ^ 1)
        .into_iter()
        .filter(|&c| served[labels.of(c) as usize])
        .collect();
    let capacity = (customers.len() * 2).div_ceil(k.max(1)) as u32;
    let stations: Vec<Facility> = sites
        .into_iter()
        .map(|s| Facility {
            node: s.node,
            capacity,
        })
        .collect();
    World {
        graph,
        customers,
        stations,
        k,
    }
}

/// Solve `inst` sharded and cold, and check the full certificate chain.
fn check_sharded_vs_cold(inst: &McfsInstance, shards: usize) -> Result<(), TestCaseError> {
    let cold = Wma::new()
        .solve(inst)
        .expect("cold solve on feasible world");
    inst.verify(&cold).expect("cold solution verifies");

    let outcome = ClusterSolver::new(shards)
        .solver(Wma::new())
        .solve(inst)
        .expect("sharded solve on feasible world");
    inst.verify(&outcome.solution)
        .expect("sharded solution verifies");

    // The lower bound really is one: it can never exceed what the cold
    // solver achieved.
    prop_assert!(
        outcome.lower_bound <= cold.objective,
        "LB {} exceeds cold objective {}",
        outcome.lower_bound,
        cold.objective
    );

    if outcome.strategy == PartitionStrategy::Single {
        // Fallback path: identical to a plain solve.
        prop_assert_eq!(outcome.solution.objective, cold.objective);
        return Ok(());
    }

    // The certificate covers the sharded cost: cost ≤ (1+gap)·LB, checked
    // in exact integer arithmetic.
    let gap_ppm = outcome
        .gap_bound_ppm()
        .expect("positive lower bound on a customer-bearing instance");
    let cost = u128::from(outcome.solution.objective);
    let lb = u128::from(outcome.lower_bound);
    prop_assert!(
        cost * 1_000_000 <= lb * (1_000_000 + u128::from(gap_ppm)),
        "certificate violated: cost {} > (1 + {}ppm) * LB {}",
        cost,
        gap_ppm,
        lb
    );

    // And therefore the differential bound against the cold solve.
    let cold_obj = u128::from(cold.objective);
    prop_assert!(
        cost * 1_000_000 <= cold_obj * (1_000_000 + u128::from(gap_ppm)),
        "sharded {} above (1 + {}ppm) * cold {}",
        cost,
        gap_ppm,
        cold_obj
    );
    Ok(())
}

proptest! {
    #![proptest_config(cases(12))]

    /// On generated city worlds, every shard count's outcome verifies and
    /// stays within its own certified gap of the cold solve.
    #[test]
    fn sharded_stays_within_certified_gap_of_cold(
        seed in 0u64..1_000,
        shards in 2usize..5,
    ) {
        let w = world(300, 48, 10, 5, 0xC1D_0000 ^ seed);
        let inst = McfsInstance::builder(&w.graph)
            .customers(w.customers.iter().copied())
            .facilities(w.stations.iter().copied())
            .k(w.k)
            .build()
            .unwrap();
        check_sharded_vs_cold(&inst, shards)?;
    }

    /// Sharded solving is deterministic: two runs with the same inputs
    /// produce byte-identical selections, assignments and certificates.
    #[test]
    fn sharded_solve_is_deterministic(seed in 0u64..1_000) {
        let w = world(250, 40, 8, 4, 0xDE7 ^ seed);
        let inst = McfsInstance::builder(&w.graph)
            .customers(w.customers.iter().copied())
            .facilities(w.stations.iter().copied())
            .k(w.k)
            .build()
            .unwrap();
        let a = ClusterSolver::new(3).solver(Wma::new()).solve(&inst).unwrap();
        let b = ClusterSolver::new(3).solver(Wma::new()).solve(&inst).unwrap();
        prop_assert_eq!(a.solution.facilities, b.solution.facilities);
        prop_assert_eq!(a.solution.assignment, b.solution.assignment);
        prop_assert_eq!(a.solution.objective, b.solution.objective);
        prop_assert_eq!(a.lower_bound, b.lower_bound);
        prop_assert_eq!(a.gap_bound_ppm(), b.gap_bound_ppm());
    }
}
