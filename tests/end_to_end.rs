//! Cross-crate integration tests: full pipelines from workload generation
//! through every solver, with end-to-end verification of each solution.

use mcfs_repro::core::{Facility, McfsInstance, SolveError, Solver};
use mcfs_repro::exact::{enumerate_optimal, BranchAndBound};
use mcfs_repro::gen::city::{generate_city, CitySpec, CityStyle};
use mcfs_repro::gen::customers::uniform_customers;
use mcfs_repro::gen::synthetic::{generate_synthetic, SyntheticConfig};
use mcfs_repro::prelude::*;

fn lineup() -> Vec<Box<dyn Solver>> {
    vec![
        Box::new(Wma::new()),
        Box::new(WmaNaive::new()),
        Box::new(UniformFirst::new()),
        Box::new(HilbertBaseline::new()),
        Box::new(BrnnBaseline::new()),
    ]
}

/// Every solver produces a verified, feasible solution on a uniform
/// synthetic workload — the Figure 6 pipeline at test size.
#[test]
fn all_solvers_agree_on_feasibility_uniform() {
    let g = generate_synthetic(&SyntheticConfig::uniform(400, 2.0, 11));
    let customers = uniform_customers(&g, 40, 3);
    let inst = McfsInstance::builder(&g)
        .customers(customers)
        .facilities(g.nodes().map(|node| Facility { node, capacity: 5 }))
        .k(10)
        .build()
        .unwrap();
    let mut objectives = Vec::new();
    for solver in lineup() {
        let sol = solver
            .solve(&inst)
            .unwrap_or_else(|e| panic!("{} failed: {e}", solver.name()));
        inst.verify(&sol)
            .unwrap_or_else(|e| panic!("{} invalid: {e:?}", solver.name()));
        objectives.push((solver.name(), sol.objective));
    }
    // WMA is the best heuristic in the lineup on this workload.
    let wma = objectives.iter().find(|(n, _)| *n == "WMA").unwrap().1;
    for &(name, obj) in &objectives {
        assert!(obj >= wma, "{name} ({obj}) beat WMA ({wma}) unexpectedly");
    }
}

/// The clustered pipeline (Figure 7): WMA tracks the exact optimum within a
/// modest factor, and beats Hilbert.
#[test]
fn clustered_quality_ordering() {
    let g = generate_synthetic(&SyntheticConfig::clustered(300, 5, 1.5, 13));
    let customers = uniform_customers(&g, 24, 5);
    let inst = McfsInstance::builder(&g)
        .customers(customers)
        .facilities(
            g.nodes()
                .step_by(10)
                .map(|node| Facility { node, capacity: 6 }),
        )
        .k(6)
        .build()
        .unwrap();
    if inst.check_feasibility().is_err() {
        return; // sparse draw; nothing to assert
    }
    let wma = Wma::new().solve(&inst).unwrap();
    inst.verify(&wma).unwrap();
    let exact = BranchAndBound::new().run(&inst).unwrap();
    assert!(exact.solution.objective <= wma.objective);
    assert!(
        wma.objective as f64 <= exact.solution.objective as f64 * 1.5 + 1000.0,
        "WMA {} vs optimum {}",
        wma.objective,
        exact.solution.objective
    );
}

/// Branch-and-bound equals exhaustive enumeration on a small city instance.
#[test]
fn exact_solvers_agree_on_city() {
    let g = generate_city(&CitySpec {
        name: "TinyTown",
        target_nodes: 600,
        style: CityStyle::Organic,
        avg_edge_len: 35.0,
        seed: 77,
    });
    let customers = uniform_customers(&g, 12, 9);
    let facilities: Vec<Facility> = uniform_customers(&g, 8, 21)
        .into_iter()
        .map(|node| Facility { node, capacity: 4 })
        .collect();
    let inst = McfsInstance::builder(&g)
        .customers(customers)
        .facilities(facilities)
        .k(4)
        .build()
        .unwrap();
    if inst.check_feasibility().is_err() {
        return;
    }
    let bb = BranchAndBound::new().run(&inst).unwrap();
    let oracle = enumerate_optimal(&inst).unwrap();
    assert!(bb.optimal);
    assert_eq!(bb.solution.objective, oracle.objective);
    inst.verify(&bb.solution).unwrap();
    inst.verify(&oracle).unwrap();
}

/// Infeasible instances are rejected consistently by every solver.
#[test]
fn infeasibility_is_uniformly_reported() {
    let g = generate_synthetic(&SyntheticConfig::uniform(200, 2.0, 31));
    let customers = uniform_customers(&g, 50, 7);
    let inst = McfsInstance::builder(&g)
        .customers(customers)
        .facilities(
            g.nodes()
                .take(30)
                .map(|node| Facility { node, capacity: 1 }),
        )
        .k(3) // 3 facilities × capacity 1 < 50 customers
        .build()
        .unwrap();
    for solver in lineup() {
        match solver.solve(&inst) {
            Err(SolveError::Infeasible(_)) => {}
            other => panic!(
                "{} returned {other:?} on an infeasible instance",
                solver.name()
            ),
        }
    }
}

/// Solutions are deterministic across repeated solves (same seeds).
#[test]
fn determinism_across_the_stack() {
    let g = generate_synthetic(&SyntheticConfig::clustered(350, 10, 1.8, 23));
    let customers = uniform_customers(&g, 30, 17);
    let inst = McfsInstance::builder(&g)
        .customers(customers)
        .facilities(g.nodes().map(|node| Facility { node, capacity: 4 }))
        .k(9)
        .build()
        .unwrap();
    for solver in lineup() {
        let a = solver.solve(&inst);
        let b = solver.solve(&inst);
        match (a, b) {
            (Ok(x), Ok(y)) => assert_eq!(x, y, "{} not deterministic", solver.name()),
            (Err(_), Err(_)) => {}
            _ => panic!("{} flip-flopped between Ok and Err", solver.name()),
        }
    }
}

/// The instrumented WMA run reports a coherent trace on a real pipeline.
#[test]
fn instrumentation_trace_is_coherent() {
    let g = generate_city(&CitySpec {
        name: "TraceTown",
        target_nodes: 900,
        style: CityStyle::Grid,
        avg_edge_len: 45.0,
        seed: 5,
    });
    let customers = uniform_customers(&g, 60, 3);
    let inst = McfsInstance::builder(&g)
        .customers(customers)
        .facilities(g.nodes().map(|node| Facility { node, capacity: 10 }))
        .k(12)
        .build()
        .unwrap();
    let run = Wma::new().with_stats().run(&inst).unwrap();
    inst.verify(&run.solution).unwrap();
    let it = &run.stats.iterations;
    assert!(!it.is_empty());
    // Coverage at the final iteration is complete.
    assert_eq!(it.last().unwrap().covered_customers, inst.num_customers());
    // Demand and G_b growth are monotone.
    for w in it.windows(2) {
        assert!(w[1].total_demand >= w[0].total_demand);
        assert!(w[1].edges_in_gb >= w[0].edges_in_gb);
    }
}

/// One-way arcs: every solver measures customer → facility, and so must
/// verification and the feasibility check. Two pinned directed instances
/// solve, verify, and round-trip through a checkpoint (which verifies on
/// load).
#[test]
fn one_way_arcs_solve_verify_and_round_trip() {
    use mcfs_repro::core::Wma;
    use mcfs_repro::io::{read_checkpoint, write_checkpoint};

    // The only way to the facility at 3 is the one-way arc 0 → 3, so
    // facility → customer distances are all unreachable.
    let mut b = GraphBuilder::new(4);
    b.add_edge(0, 1, 100);
    b.add_edge(1, 2, 50);
    b.add_arc(0, 3, 25);
    let outbound = b.build();
    // Node 3 reaches the facility at 0 only along the one-way arc 3 → 0,
    // and 3 is numbered after the path 0-1-2.
    let mut b = GraphBuilder::new(4);
    b.add_edge(0, 1, 100);
    b.add_edge(1, 2, 50);
    b.add_arc(3, 0, 25);
    let inbound = b.build();

    for (g, customers, site, objective) in [
        (&outbound, [2, 1], 3, 175 + 125),
        (&inbound, [3, 2], 0, 25 + 150),
    ] {
        assert!(!g.is_symmetric());
        let inst = McfsInstance::builder(g)
            .customers(customers)
            .facility(site, 2)
            .k(1)
            .build()
            .unwrap();
        inst.check_feasibility().unwrap();
        for threads in [1, 2] {
            let sol = Wma::new().threads(threads).solve(&inst).unwrap();
            assert_eq!(sol.objective, objective, "threads {threads}");
            inst.verify(&sol).unwrap();
            let mut buf = Vec::new();
            write_checkpoint(&mut buf, &inst, &sol).unwrap();
            let (owned, back) = read_checkpoint(buf.as_slice()).unwrap();
            assert_eq!(back, sol);
            assert!(!owned.graph.is_symmetric());
        }
    }
}
