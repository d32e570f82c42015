//! The thread knob is a pure performance knob: for every solver in the
//! workspace, `threads(1)` (the legacy lazy-Dijkstra streams), `threads(2)`
//! and `threads(8)` (the batched oracle path, whose rows the arena search
//! fills) must produce *byte-identical* solutions — same facilities, same
//! assignment, same objective, down to the serialized form. This is the
//! whole-solve half of the distance-engine contract; the row half lives in
//! `tests/backend_equivalence.rs`.

use std::sync::Arc;

use mcfs_repro::baselines::{BrnnBaseline, GreedyAddition};
use mcfs_repro::core::refine::LocalSearch;
use mcfs_repro::core::{Facility, McfsInstance, Solution, Solver, UniformFirst, Wma, WmaNaive};
use mcfs_repro::gen::customers::uniform_customers;
use mcfs_repro::gen::synthetic::{generate_synthetic, SyntheticConfig};
use mcfs_repro::graph::{DistanceOracle, Graph};
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

/// Run `check` on every input of the six-solver check: the mid-size
/// workload and the 400-node Figure-6 instance.
fn for_each_workload(check: impl Fn(&str, &McfsInstance)) {
    let g = generate_synthetic(&SyntheticConfig::uniform(150, 2.0, 7));
    check("mid-size", &mid_size_instance(&g));
    let g = generate_synthetic(&SyntheticConfig::uniform(400, 2.0, 11));
    check("fig6", &fig6_instance(&g));
}

/// Serialize a solution so equality means *byte* equality, not just
/// `PartialEq` over the struct.
fn bytes(sol: &Solution) -> Vec<u8> {
    let mut buf = Vec::new();
    write_solution(&mut buf, sol).unwrap();
    buf
}

fn assert_thread_invariant(name: &str, inst: &McfsInstance, solve: impl Fn(usize) -> Solution) {
    let reference = solve(THREADS[0]);
    inst.verify(&reference)
        .unwrap_or_else(|e| panic!("{name}: threads(1) solution invalid: {e:?}"));
    let reference_bytes = bytes(&reference);
    for &t in &THREADS[1..] {
        let sol = solve(t);
        assert_eq!(reference, sol, "{name}: threads({t}) changed the solution");
        assert_eq!(
            reference_bytes,
            bytes(&sol),
            "{name}: threads({t}) changed the serialized solution"
        );
    }
}

#[test]
fn wma_is_thread_invariant() {
    for_each_workload(|input, inst| {
        assert_thread_invariant(&format!("Wma/{input}"), inst, |t| {
            Wma::new().threads(t).solve(inst).unwrap()
        });
    });
}

#[test]
fn wma_naive_is_thread_invariant() {
    for_each_workload(|input, inst| {
        assert_thread_invariant(&format!("WmaNaive/{input}"), inst, |t| {
            WmaNaive::new().threads(t).solve(inst).unwrap()
        });
    });
}

#[test]
fn uniform_first_is_thread_invariant() {
    for_each_workload(|input, inst| {
        assert_thread_invariant(&format!("UniformFirst/{input}"), inst, |t| {
            UniformFirst::new().threads(t).solve(inst).unwrap()
        });
    });
}

#[test]
fn brnn_is_thread_invariant() {
    for_each_workload(|input, inst| {
        assert_thread_invariant(&format!("Brnn/{input}"), inst, |t| {
            BrnnBaseline::new().threads(t).solve(inst).unwrap()
        });
    });
}

#[test]
fn greedy_addition_is_thread_invariant() {
    for_each_workload(|input, inst| {
        assert_thread_invariant(&format!("Greedy/{input}"), inst, |t| {
            GreedyAddition::new().threads(t).solve(inst).unwrap()
        });
    });
}

#[test]
fn local_search_refinement_is_thread_invariant() {
    for_each_workload(|input, inst| {
        let base = Wma::new().threads(1).solve(inst).unwrap();
        assert_thread_invariant(&format!("LocalSearch/{input}"), inst, |t| {
            LocalSearch::default()
                .threads(t)
                .refine(inst, &base)
                .unwrap()
        });
    });
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
    assert_thread_invariant("Wma/sparse", &inst, |t| {
        Wma::new().threads(t).solve(&inst).unwrap()
    });
    assert_thread_invariant("Brnn/sparse", &inst, |t| {
        BrnnBaseline::new().threads(t).solve(&inst).unwrap()
    });
}
