//! Property-based differential tests against exact references.
//!
//! Two oracles anchor the heuristics:
//!
//! * `enumerate_optimal` — brute-force over all `C(ℓ, k)` selections with an
//!   optimal capacitated assignment each; on small instances every heuristic
//!   must produce a *feasible* solution (it passes `McfsInstance::verify`)
//!   whose objective is no better than the enumerated optimum.
//! * `solve_transportation` — the dense transportation simplex; the
//!   incremental matcher (WMA's inner engine) must reach exactly its optimal
//!   cost on arbitrary cost matrices, since both claim optimality for the
//!   same capacitated b-matching — also after departures, arrivals and
//!   capacity edits, whenever its warm-start certificate holds.

use proptest::collection::vec;
use proptest::prelude::*;

use mcfs_repro::core::{Facility, McfsInstance, Solver, UniformFirst, Wma, WmaNaive};
use mcfs_repro::exact::enumerate_optimal;
use mcfs_repro::flow::{solve_transportation, Matcher, TransportProblem, VecStream};
use mcfs_repro::graph::{Graph, GraphBuilder};

const MAX_NODES: u32 = 12;

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
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// On random instances with ≤ 12 nodes and ≤ 4 candidate facilities,
    /// every heuristic yields a verified-feasible solution with objective
    /// ≥ the enumerated optimum — on both the legacy and oracle substrates.
    #[test]
    fn heuristics_are_feasible_and_never_beat_the_optimum(
        n in 2u32..=MAX_NODES,
        edges in vec((0u32..MAX_NODES, 0u32..MAX_NODES, 1u64..=9), 1..24),
        raw_customers in vec(0u32..MAX_NODES, 1..6),
        raw_facilities in vec((0u32..MAX_NODES, 1u32..=3), 1..=4),
        k_pick in 0usize..4,
    ) {
        let g = build_graph(n as usize, &edges);
        let customers: Vec<u32> = raw_customers.iter().map(|&c| c % n).collect();
        let facilities: Vec<Facility> = raw_facilities
            .iter()
            .map(|&(node, capacity)| Facility { node: node % n, capacity })
            .collect();
        let k = 1 + k_pick % facilities.len();
        let inst = McfsInstance::builder(&g)
            .customers(customers)
            .facilities(facilities)
            .k(k)
            .build()
            .unwrap();

        let opt = match enumerate_optimal(&inst) {
            Ok(opt) => opt,
            Err(_) => {
                // Infeasible (disconnection or capacity shortfall): every
                // heuristic must agree rather than fabricate a solution.
                prop_assert!(Wma::new().solve(&inst).is_err());
                prop_assert!(WmaNaive::new().solve(&inst).is_err());
                prop_assert!(UniformFirst::new().solve(&inst).is_err());
                return Ok(());
            }
        };
        inst.verify(&opt).unwrap();

        for threads in [1usize, 2] {
            for (name, sol) in [
                ("Wma", Wma::new().threads(threads).solve(&inst)),
                ("WmaNaive", WmaNaive::new().threads(threads).solve(&inst)),
                ("UniformFirst", UniformFirst::new().threads(threads).solve(&inst)),
            ] {
                let sol = sol.unwrap_or_else(|e| {
                    panic!("{name} (threads {threads}) failed on a feasible instance: {e}")
                });
                prop_assert!(
                    inst.verify(&sol).is_ok(),
                    "{} (threads {}) returned an invalid solution",
                    name, threads
                );
                prop_assert!(
                    sol.objective >= opt.objective,
                    "{} (threads {}) objective {} beats the optimum {}",
                    name, threads, sol.objective, opt.objective
                );
            }
        }
    }

    /// The incremental matcher reaches the dense transportation solver's
    /// optimal cost exactly, under both pruning configurations.
    #[test]
    fn incremental_matcher_matches_dense_transport_optimum(
        m in 1usize..=8,
        l in 1usize..=6,
        flat_costs in vec(1u64..=50, 48),
        raw_caps in vec(1u32..=3, 6),
    ) {
        let rows: Vec<Vec<u64>> =
            (0..m).map(|i| flat_costs[i * l..(i + 1) * l].to_vec()).collect();
        let mut caps: Vec<u32> = raw_caps[..l].to_vec();
        // Guarantee feasibility: total capacity must cover all customers.
        let total: u32 = caps.iter().sum();
        if (total as usize) < m {
            caps[l - 1] += m as u32 - total;
        }

        let p = TransportProblem::from_rows(&rows, caps.clone());
        let dense = solve_transportation(&p).unwrap();

        let streams: Vec<VecStream> = rows.iter().map(|r| VecStream::from_row(r)).collect();
        let mut matcher = Matcher::new(streams, caps.clone());
        for i in 0..m {
            matcher.find_pair(i).unwrap();
        }
        prop_assert_eq!(matcher.total_cost(), dense.cost, "Theorem-1-pruned matcher");

        let streams: Vec<VecStream> = rows.iter().map(|r| VecStream::from_row(r)).collect();
        let mut pruned =
            Matcher::with_pruning(streams, caps, mcfs_repro::flow::PruningRule::GlobalTauMax);
        for i in 0..m {
            pruned.find_pair(i).unwrap();
        }
        prop_assert_eq!(pruned.total_cost(), dense.cost, "τ-max-pruned matcher");
    }
}

/// `floor` cases, or more when `PROPTEST_CASES` asks for more.
fn cases(floor: u32) -> ProptestConfig {
    let asked = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok());
    ProptestConfig::with_cases(asked.map_or(floor, |c: u32| c.max(floor)))
}

proptest! {
    #![proptest_config(cases(64))]

    /// Random scripts of the matcher's four operations — `find_pair`,
    /// `remove_customer`, `push_customer` and `set_capacity` — the surgery
    /// a re-solve session performs between solves. Units go only to live
    /// customers holding none, so every demand is 0 or 1; whenever
    /// `slack_is_free()` certifies the matching, its cost must equal the
    /// dense transportation optimum over the customers that hold a unit.
    #[test]
    fn certified_matcher_equals_dense_transport_after_any_script(
        l in 1usize..=5,
        initial in vec(vec(1u64..=50, 5), 1..=6),
        raw_caps in vec(0u32..=3, 5),
        script in vec((0u8..6, 0usize..64, vec(1u64..=50, 5), 0u32..=3), 1..32),
    ) {
        let mut rows: Vec<Vec<u64>> = initial.iter().map(|r| r[..l].to_vec()).collect();
        let mut caps: Vec<u32> = raw_caps[..l].to_vec();
        let streams: Vec<VecStream> = rows.iter().map(|r| VecStream::from_row(r)).collect();
        let mut matcher = Matcher::new(streams, caps.clone());
        for (op, pick, costs, cap) in script {
            let live: Vec<usize> =
                (0..rows.len()).filter(|&i| !matcher.is_removed(i)).collect();
            match op {
                0..=2 => {
                    let idle: Vec<usize> =
                        live.iter().copied().filter(|&i| matcher.match_count(i) == 0).collect();
                    if !idle.is_empty() {
                        // Out of reachable capacity is a valid outcome; a
                        // failed call leaves the matching as it was.
                        let _ = matcher.find_pair(idle[pick % idle.len()]);
                    }
                }
                3 => {
                    if !live.is_empty() {
                        matcher.remove_customer(live[pick % live.len()]);
                    }
                }
                4 => {
                    rows.push(costs[..l].to_vec());
                    let slot = matcher.push_customer(VecStream::from_row(&rows[rows.len() - 1]));
                    prop_assert_eq!(slot, rows.len() - 1);
                }
                _ => {
                    // Never below the load: the matcher refuses that.
                    let j = pick % l;
                    caps[j] = cap.max(matcher.load(j) as u32);
                    matcher.set_capacity(j, caps[j]);
                }
            }
            if matcher.slack_is_free() {
                let held: Vec<Vec<u64>> = (0..rows.len())
                    .filter(|&i| !matcher.is_removed(i) && matcher.match_count(i) == 1)
                    .map(|i| rows[i].clone())
                    .collect();
                let dense = if held.is_empty() {
                    0
                } else {
                    solve_transportation(&TransportProblem::from_rows(&held, caps.clone()))
                        .unwrap()
                        .cost
                };
                prop_assert_eq!(matcher.total_cost(), dense, "certified after {:?}", op);
            }
        }
    }
}
