//! Differential testing of the `ReSolver` delta-update engine.
//!
//! The engine's hard invariant: after *any* valid edit script, a warm
//! re-solve returns a solution with cost identical to a cold `Wma` solve of
//! the edited instance (and a valid, capacity-respecting assignment). This
//! suite throws randomized scripts at that invariant:
//!
//! * random base worlds (connected graphs, random customers / candidates /
//!   budgets) from proptest strategies;
//! * random edit scripts decoded *valid-by-construction* against the
//!   running instance shape, with a re-solve after **every** edit — so each
//!   proptest case checks every prefix of its script, and warm state is
//!   carried across many successive solves (including through infeasible
//!   intermediate instances);
//! * a hand-rolled greedy shrinker (the vendored proptest cannot shrink):
//!   on failure it drops script ops one at a time while the failure
//!   persists and reports a minimal failing script.
//!
//! A deterministic small-delta test on the bikes workload closes the loop
//! on the PR's efficiency claim: with ≤ 5% of customers changed, the warm
//! path must settle fewer oracle nodes *and* perform fewer matcher
//! augmentations than a cold solve, at equal cost.

use proptest::collection::vec;
use proptest::prelude::*;

use mcfs_repro::core::{Edit, Facility, McfsInstance, ReSolveRun, ReSolver, Solver, Wma};
use mcfs_repro::gen::bikes::{docking_demand, generate_flow_field, generate_stations};
use mcfs_repro::gen::customers::{mask_to_reachable, sample_weighted};
use mcfs_repro::gen::{generate_city, CitySpec, CityStyle};
use mcfs_repro::graph::{DistanceOracle, Graph, GraphBuilder, NodeId};

/// An owned random base world.
#[derive(Clone, Debug)]
struct World {
    n: usize,
    edges: Vec<(NodeId, NodeId, u64)>,
    customers: Vec<NodeId>,
    facilities: Vec<Facility>,
    k: usize,
}

impl World {
    fn graph(&self) -> Graph {
        let mut b = GraphBuilder::new(self.n);
        for v in 0..self.n as NodeId - 1 {
            // Spanning path (weights derived from the chord list so the
            // world is fully described by the strategy inputs).
            b.add_edge(v, v + 1, 50 + (v as u64 * 37) % 900);
        }
        for &(u, v, w) in &self.edges {
            let (u, v) = (u % self.n as NodeId, v % self.n as NodeId);
            if u != v {
                b.add_edge(u, v, w);
            }
        }
        b.build()
    }
}

fn make_world(
    n: usize,
    edges: Vec<(u32, u32, u64)>,
    raw_customers: &[u32],
    raw_facilities: &[(u32, u32)],
    k_pick: usize,
) -> World {
    let customers = raw_customers.iter().map(|&c| c % n as u32).collect();
    let facilities: Vec<Facility> = raw_facilities
        .iter()
        .map(|&(node, capacity)| Facility {
            node: node % n as u32,
            capacity,
        })
        .collect();
    let k = 1 + k_pick % facilities.len();
    World {
        n,
        edges,
        customers,
        facilities,
        k,
    }
}

/// One raw (not yet validated) edit op from the strategy.
type RawOp = (u8, u32, u32);

/// Decode a raw op into a structurally valid edit for an instance with `m`
/// customers, `l` candidates, budget `k` and `n` nodes. Returns the edit
/// plus the updated shape. Decoding is total: kinds that would be invalid
/// in the current shape fall back to always-valid additions.
fn decode(op: RawOp, n: usize, m: usize, l: usize, k: usize) -> (Edit, usize, usize, usize) {
    let (kind, a, b) = op;
    let (a, b) = (a as usize, b as usize);
    match kind % 6 {
        1 if m > 1 => (Edit::RemoveCustomer { index: a % m }, m - 1, l, k),
        3 if l > k => (Edit::RemoveFacility { index: a % l }, m, l - 1, k),
        4 => (
            Edit::SetCapacity {
                index: a % l,
                capacity: (b % 6) as u32,
            },
            m,
            l,
            k,
        ),
        5 => {
            let new_k = 1 + a % l;
            (Edit::SetBudget { k: new_k }, m, l, new_k)
        }
        kind if kind % 2 == 0 => (
            Edit::AddCustomer {
                node: (a % n) as NodeId,
            },
            m + 1,
            l,
            k,
        ),
        _ => (
            Edit::AddFacility {
                node: (a % n) as NodeId,
                capacity: 1 + (b % 4) as u32,
            },
            m,
            l + 1,
            k,
        ),
    }
}

/// Decode a whole raw script against the world's initial shape.
fn decode_script(world: &World, raw: &[RawOp]) -> Vec<Edit> {
    let (mut m, mut l, mut k) = (world.customers.len(), world.facilities.len(), world.k);
    raw.iter()
        .map(|&op| {
            let (edit, m2, l2, k2) = decode(op, world.n, m, l, k);
            (m, l, k) = (m2, l2, k2);
            edit
        })
        .collect()
}

/// Run the differential check: apply the script one edit at a time through
/// a `ReSolver`, re-solving (warm) after every edit and comparing each
/// result against a cold `Wma` solve of the same edited instance.
fn check_script(world: &World, raw: &[RawOp]) -> Result<(), String> {
    let g = world.graph();
    let base = McfsInstance::builder(&g)
        .customers(world.customers.iter().copied())
        .facilities(world.facilities.iter().copied())
        .k(world.k)
        .build()
        .map_err(|e| format!("bad base world: {e:?}"))?;

    let mut rs = ReSolver::new(&base, Wma::new());
    let _ = rs.solve(); // prime warm state when the base is feasible
    for (step, edit) in decode_script(world, raw).into_iter().enumerate() {
        rs.apply(&[edit])
            .map_err(|e| format!("step {step}: decoder produced invalid {edit:?}: {e}"))?;
        let inst = rs.instance();
        let warm = rs.solve();
        let cold = Wma::new().solve(&inst);
        match (warm, cold) {
            (Ok(w), Ok(c)) => {
                if w.solution.objective != c.objective {
                    return Err(format!(
                        "step {step} ({edit:?}): warm cost {} != cold cost {} (warm path: {})",
                        w.solution.objective, c.objective, w.warm
                    ));
                }
                // The warm path may list the set in its retained order.
                if sorted(&w.solution.facilities) != sorted(&c.facilities) {
                    return Err(format!(
                        "step {step} ({edit:?}): warm selection {:?} != cold selection {:?} \
                         (warm path: {})",
                        w.solution.facilities, c.facilities, w.warm
                    ));
                }
                inst.verify(&w.solution)
                    .map_err(|e| format!("step {step} ({edit:?}): warm solution invalid: {e:?}"))?;
            }
            (Err(_), Err(_)) => {} // both agree the edit broke feasibility
            (w, c) => {
                return Err(format!(
                    "step {step} ({edit:?}): feasibility disagreement: warm {:?} vs cold {:?}",
                    w.map(|r| r.solution.objective),
                    c.map(|s| s.objective)
                ));
            }
        }
    }
    Ok(())
}

/// A selection as a set: its indices, sorted.
fn sorted(selection: &[u32]) -> Vec<u32> {
    let mut set = selection.to_vec();
    set.sort_unstable();
    set
}

/// Greedy script minimization: repeatedly drop any single op whose removal
/// preserves the failure, until no single-op removal does. The result is
/// 1-minimal — every remaining op is necessary for the failure.
fn shrink(world: &World, mut raw: Vec<RawOp>) -> Vec<RawOp> {
    'outer: loop {
        for i in 0..raw.len() {
            let mut candidate = raw.clone();
            candidate.remove(i);
            if check_script(world, &candidate).is_err() {
                raw = candidate;
                continue 'outer;
            }
        }
        return raw;
    }
}

proptest! {
    /// ≥ 96 worlds (env-scalable via `PROPTEST_CASES`; CI runs more), each
    /// with a multi-edit script checked prefix-by-prefix — every case
    /// exercises several distinct edit scripts against the cold solver.
    #[test]
    fn resolver_matches_cold_solve_on_random_edit_scripts(
        n in 8usize..40,
        edges in vec((0u32..40, 0u32..40, 40u64..1000), 0..30),
        raw_customers in vec(0u32..40, 2..12),
        raw_facilities in vec((0u32..40, 1u32..5), 2..7),
        k_pick in 0usize..6,
        raw in vec((0u8..6, 0u32..1000, 0u32..1000), 1..10),
    ) {
        let world = make_world(n, edges, &raw_customers, &raw_facilities, k_pick);
        if let Err(msg) = check_script(&world, &raw) {
            let minimal = shrink(&world, raw.clone());
            let script = decode_script(&world, &minimal);
            panic!(
                "ReSolver differential failure: {msg}\n\
                 minimal failing script ({} of {} ops): {script:?}\n\
                 raw: {minimal:?}\nworld: {world:?}",
                minimal.len(),
                raw.len()
            );
        }
    }
}

/// The PR's efficiency claim, pinned on the bikes workload: a warm re-solve
/// after a ≤ 5% customer change must match the cold cost while settling
/// fewer oracle nodes and performing fewer matcher augmentations.
#[test]
fn small_delta_warm_solve_beats_cold_on_bikes_workload() {
    let spec = CitySpec {
        name: "resolve-bench-city",
        target_nodes: 700,
        style: CityStyle::Grid,
        avg_edge_len: 80.0,
        seed: 20260807,
    };
    let g = generate_city(&spec);
    let stations = generate_stations(&g, 40, 7);
    let field = generate_flow_field(&g, 11);
    let demand = docking_demand(&g, &field);
    let anchors: Vec<NodeId> = stations.iter().map(|s| s.node).collect();
    let weights = mask_to_reachable(&g, &demand, &anchors);
    let customers = sample_weighted(&weights, 160, 41);

    let inst = McfsInstance::builder(&g)
        .customers(customers.iter().copied())
        .facilities(stations.iter().map(|s| Facility {
            node: s.node,
            capacity: s.capacity,
        }))
        .k(20)
        .build()
        .unwrap();

    let mut rs = ReSolver::new(&inst, Wma::new());
    let first = rs.solve().unwrap();
    assert!(!first.warm);

    // 4 departures + 4 arrivals = 8 changed customers of 160 (5%).
    let arrivals = sample_weighted(&weights, 4, 17);
    let mut script: Vec<Edit> = (0..4)
        .map(|i| Edit::RemoveCustomer { index: i * 29 })
        .collect();
    script.extend(arrivals.iter().map(|&node| Edit::AddCustomer { node }));
    rs.apply(&script).unwrap();

    let warm = rs.solve().unwrap();
    let edited = rs.instance();

    // Cold reference on its own fresh oracle (same worker count).
    let cold_oracle = DistanceOracle::new().with_threads(rs.oracle().threads());
    let cold = Wma::new()
        .with_oracle(std::sync::Arc::new(cold_oracle))
        .run(&edited)
        .unwrap();

    assert_eq!(warm.solution.objective, cold.solution.objective);
    edited.verify(&warm.solution).unwrap();
    assert!(
        warm.warm,
        "a 5% customer delta should keep the selection stable and go warm"
    );
    assert!(
        warm.solve_stats.oracle_nodes_settled < cold.solve_stats.oracle_nodes_settled,
        "warm settled {} oracle nodes, cold {}",
        warm.solve_stats.oracle_nodes_settled,
        cold.solve_stats.oracle_nodes_settled
    );
    assert!(
        warm.solve_stats.augmentations < cold.solve_stats.augmentations,
        "warm did {} augmentations, cold {}",
        warm.solve_stats.augmentations,
        cold.solve_stats.augmentations
    );
}

/// A symmetric 12 × 12 grid with 30 customers and 6 candidate sites on
/// distinct nodes.
fn grid_world() -> (Graph, Vec<NodeId>, Vec<NodeId>) {
    let side = 12u32;
    let mut b = GraphBuilder::new((side * side) as usize);
    for r in 0..side {
        for c in 0..side {
            let v = r * side + c;
            if c + 1 < side {
                b.add_edge(v, v + 1, 3 + u64::from((r * 7 + c) % 5));
            }
            if r + 1 < side {
                b.add_edge(v, v + side, 2 + u64::from((r + c * 3) % 7));
            }
        }
    }
    let customers = (0..30).map(|i| (i * 37 + 5) % (side * side)).collect();
    (b.build(), customers, vec![13, 22, 58, 85, 121, 130])
}

/// The grid world's instance: every site has capacity 8, and k = 4.
fn grid_instance<'g>(g: &'g Graph, customers: &[NodeId], sites: &[NodeId]) -> McfsInstance<'g> {
    McfsInstance::builder(g)
        .customers(customers.iter().copied())
        .facilities(sites.iter().map(|&node| Facility { node, capacity: 8 }))
        .k(4)
        .build()
        .unwrap()
}

/// Assert that `run` is what a cold `Wma` solve of the session's current
/// instance gives: a valid solution, the same cost and the same selected
/// set.
fn assert_cold_equal(rs: &ReSolver, run: &ReSolveRun, what: &str) {
    let inst = rs.instance();
    inst.verify(&run.solution)
        .unwrap_or_else(|e| panic!("{what}: invalid solution: {e:?}"));
    let cold = Wma::new().threads(1).solve(&inst).unwrap();
    assert_eq!(run.solution.objective, cold.objective, "{what}: cost");
    assert_eq!(
        sorted(&run.solution.facilities),
        sorted(&cold.facilities),
        "{what}: selected set"
    );
}

/// Distinct nodes of a solution's selected sites: the rows its final
/// assignment reads when it is rebuilt cold.
fn selected_nodes(rs: &ReSolver, run: &ReSolveRun) -> u64 {
    let mut nodes: Vec<NodeId> = run
        .solution
        .facilities
        .iter()
        .map(|&j| rs.facilities()[j as usize].node)
        .collect();
    nodes.sort_unstable();
    nodes.dedup();
    nodes.len() as u64
}

/// The session keeps each customer's selection column across solves: a
/// re-solve with no customer moved reads no row at all, and after a
/// capacity or budget edit the only rows read are the ones a cold final
/// assignment reads for its selected sites. Moving a customer reads the
/// site rows once, as one batch, for its new column.
#[test]
fn kept_columns_read_rows_only_for_arrivals() {
    let (g, customers, sites) = grid_world();
    let inst = grid_instance(&g, &customers, &sites);
    for threads in [1, 2] {
        let mut rs = ReSolver::new(&inst, Wma::new().threads(threads));
        let first = rs.solve().unwrap();
        assert_eq!(first.solve_stats.cache_misses, sites.len() as u64);
        assert_eq!(rs.columns_held(), customers.len());

        let again = rs.solve().unwrap();
        assert_cold_equal(&rs, &again, "unchanged");
        assert!(again.warm);
        assert_eq!(
            (again.solve_stats.cache_hits, again.solve_stats.cache_misses),
            (0, 0),
            "threads {threads}: an unchanged session reads no row"
        );

        // Both edits change the selection, so the final assignment is
        // rebuilt cold and reads its selected sites' rows; the selection
        // itself reads none.
        for (what, edit, selected) in [
            (
                "SetCapacity",
                Edit::SetCapacity {
                    index: 1,
                    capacity: 5,
                },
                4,
            ),
            ("SetBudget", Edit::SetBudget { k: 5 }, 5),
        ] {
            rs.apply(&[edit]).unwrap();
            let run = rs.solve().unwrap();
            assert_cold_equal(&rs, &run, what);
            assert!(!run.warm, "{what}");
            assert_eq!(selected_nodes(&rs, &run), selected, "{what}");
            assert_eq!(
                (run.solve_stats.cache_hits, run.solve_stats.cache_misses),
                (selected, 0),
                "threads {threads}: {what} keeps every column"
            );
            assert_eq!(rs.columns_held(), customers.len(), "{what}");
        }

        // A moved customer: the arrival's column reads the site rows in one
        // batch, and its warm `find_pair` reads the selected sites' rows.
        rs.apply(&[
            Edit::RemoveCustomer { index: 3 },
            Edit::AddCustomer { node: 1 },
        ])
        .unwrap();
        let run = rs.solve().unwrap();
        assert_cold_equal(&rs, &run, "moved customer");
        assert!(run.warm);
        assert_eq!(
            run.solve_stats.cache_hits,
            sites.len() as u64 + selected_nodes(&rs, &run),
            "threads {threads}"
        );
        assert_eq!(
            rs.columns_held(),
            customers.len(),
            "the departure's column went"
        );
    }
}

/// Candidate edits change the indices and nodes a column lists, so every
/// column goes: after a `RemoveFacility` and then an `AddFacility` each
/// solve still equals the cold solve.
#[test]
fn candidate_edits_drop_every_column() {
    let (g, customers, sites) = grid_world();
    let inst = grid_instance(&g, &customers, &sites);
    let mut rs = ReSolver::new(&inst, Wma::new().threads(1));
    let first = rs.solve().unwrap();
    assert_cold_equal(&rs, &first, "first");
    for (what, edit) in [
        ("RemoveFacility", Edit::RemoveFacility { index: 0 }),
        (
            "AddFacility",
            Edit::AddFacility {
                node: 13,
                capacity: 8,
            },
        ),
        ("RemoveFacility", Edit::RemoveFacility { index: 2 }),
        (
            "AddFacility",
            Edit::AddFacility {
                node: 70,
                capacity: 6,
            },
        ),
    ] {
        rs.apply(&[edit]).unwrap();
        let run = rs.solve().unwrap();
        assert_cold_equal(&rs, &run, what);
        assert_eq!(rs.columns_held(), customers.len(), "{what}");
    }
}

/// Facility rows apply only while there are at least as many customers as
/// distinct sites. Removing customers past that point switches the session
/// to lazy searches, where it holds no column; adding them back switches
/// it to rows again. Every step equals the cold solve.
#[test]
fn streams_flip_between_rows_and_lazy_searches() {
    let (g, customers, sites) = grid_world();
    let inst = grid_instance(&g, &customers, &sites);
    let mut rs = ReSolver::new(&inst, Wma::new().threads(1));
    rs.solve().unwrap();
    let held = |m: usize| if m >= sites.len() { m } else { 0 };
    while rs.customers().len() > 2 {
        rs.apply(&[Edit::RemoveCustomer { index: 0 }]).unwrap();
        let m = rs.customers().len();
        let run = rs.solve().unwrap();
        assert_cold_equal(&rs, &run, &format!("{m} customers"));
        assert_eq!(rs.columns_held(), held(m), "{m} customers");
    }
    for &node in &customers[..10] {
        rs.apply(&[Edit::AddCustomer { node }]).unwrap();
        let m = rs.customers().len();
        let run = rs.solve().unwrap();
        assert_cold_equal(&rs, &run, &format!("back to {m} customers"));
        assert_eq!(rs.columns_held(), held(m), "back to {m} customers");
    }
}

/// On an instance with fewer candidate nodes than customers (a symmetric
/// grid, 30 customers, 6 sites) every row a session reads is a facility
/// row. A customer arriving at a fresh node fills none — the selection and
/// the warm arrival both read the cached site rows — and a candidate opening
/// at a fresh node fills exactly its own. With a candidate at every node
/// (`F_p = V`) the selection streams lazily at every thread count, so the
/// session holds only the selected sites' rows and an arrival still fills
/// none.
#[test]
fn facility_rows_make_customer_edits_free_and_new_sites_cost_one_row() {
    let (g, customers, sites) = grid_world();
    let inst = grid_instance(&g, &customers, &sites);
    let fresh = |taken: &[NodeId]| g.nodes().find(|v| !taken.contains(v)).unwrap();
    for threads in [1, 2] {
        let mut rs = ReSolver::new(&inst, Wma::new().threads(threads));
        let first = rs.solve().unwrap();
        assert_eq!(first.solve_stats.cache_misses, sites.len() as u64);

        let taken: Vec<NodeId> = customers.iter().chain(&sites).copied().collect();
        rs.apply(&[Edit::AddCustomer {
            node: fresh(&taken),
        }])
        .unwrap();
        let run = rs.solve().unwrap();
        assert_eq!(run.solve_stats.cache_misses, 0, "threads {threads}");
        assert_eq!(run.solve_stats.oracle_nodes_settled, 0, "threads {threads}");
        let edited = rs.instance();
        edited.verify(&run.solution).unwrap();
        assert_eq!(
            run.solution.objective,
            Wma::new().threads(1).solve(&edited).unwrap().objective
        );

        let mut taken = taken;
        taken.extend_from_slice(rs.customers());
        rs.apply(&[Edit::AddFacility {
            node: fresh(&taken),
            capacity: 8,
        }])
        .unwrap();
        let run = rs.solve().unwrap();
        assert_eq!(run.solve_stats.cache_misses, 1, "threads {threads}");
        let edited = rs.instance();
        edited.verify(&run.solution).unwrap();
        assert_eq!(
            run.solution.objective,
            Wma::new().threads(1).solve(&edited).unwrap().objective
        );
    }

    let everywhere = McfsInstance::builder(&g)
        .customers(customers.iter().copied())
        .facilities(g.nodes().map(|node| Facility { node, capacity: 8 }))
        .k(6)
        .build()
        .unwrap();
    for threads in [1, 2] {
        let mut rs = ReSolver::new(&everywhere, Wma::new().threads(threads));
        let first = rs.solve().unwrap();
        let selected = first.solution.facilities.len();
        assert_eq!(first.solve_stats.cache_misses, selected as u64);
        // An arrival on the first selected site keeps the selection.
        let site = everywhere.facilities()[first.solution.facilities[0] as usize].node;
        rs.apply(&[Edit::AddCustomer { node: site }]).unwrap();
        let run = rs.solve().unwrap();
        assert_eq!(run.solve_stats.cache_misses, 0, "threads {threads}");
        assert_eq!(run.solve_stats.oracle_nodes_settled, 0, "threads {threads}");
        assert_eq!(rs.oracle().stats().cached_rows, selected);
        let edited = rs.instance();
        edited.verify(&run.solution).unwrap();
        assert_eq!(
            run.solution.objective,
            Wma::new().threads(1).solve(&edited).unwrap().objective
        );
    }
}
