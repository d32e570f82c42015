//! Integration tests for the beyond-the-paper extensions: local-search
//! refinement, the relaxation lower bound, and persistence —
//! exercised together on generated workloads.

use std::io::BufReader;

use mcfs_repro::core::refine::LocalSearch;
use mcfs_repro::core::{Facility, McfsInstance, Solver};
use mcfs_repro::exact::{relaxation_lower_bound, BranchAndBound};
use mcfs_repro::gen::city::{generate_city, CitySpec, CityStyle};
use mcfs_repro::gen::customers::uniform_customers;
use mcfs_repro::gen::synthetic::{generate_synthetic, SyntheticConfig};
use mcfs_repro::io::{read_instance, write_instance};
use mcfs_repro::prelude::*;

fn clustered_instance(g: &mcfs_repro::graph::Graph) -> McfsInstance<'_> {
    let customers = uniform_customers(g, 50, 11);
    McfsInstance::builder(g)
        .customers(customers)
        .facilities(
            g.nodes()
                .step_by(3)
                .map(|node| Facility { node, capacity: 4 }),
        )
        .k(15)
        .build()
        .unwrap()
}

/// The quality sandwich holds end-to-end:
/// `LB(relax) ≤ exact incumbent ≤ WMA+LS ≤ WMA`.
#[test]
fn quality_sandwich_on_clustered_workload() {
    let g = generate_synthetic(&SyntheticConfig::clustered(500, 10, 1.6, 21));
    let inst = clustered_instance(&g);
    if inst.check_feasibility().is_err() {
        return;
    }
    let lb = relaxation_lower_bound(&inst).unwrap();
    let wma = Wma::new().solve(&inst).unwrap();
    let refined = LocalSearch::default().refine(&inst, &wma).unwrap();
    inst.verify(&refined).unwrap();
    // The exact run always returns its incumbent (optimal or not); it is an
    // upper bound on the optimum and at least the LB.
    let bb = BranchAndBound::with_budget(std::time::Duration::from_secs(2))
        .run(&inst)
        .unwrap();
    assert!(lb <= bb.solution.objective);
    assert!(refined.objective <= wma.objective);
    assert!(lb <= refined.objective as u64);
}

/// Local search monotonically improves across repeated applications and is
/// idempotent at a local optimum.
#[test]
fn refinement_is_monotone_and_idempotent() {
    let g = generate_city(&CitySpec {
        name: "RefineTown",
        target_nodes: 900,
        style: CityStyle::Organic,
        avg_edge_len: 35.0,
        seed: 9,
    });
    let inst = clustered_instance(&g);
    if inst.check_feasibility().is_err() {
        return;
    }
    let base = Wma::new().solve(&inst).unwrap();
    let once = LocalSearch::default().refine(&inst, &base).unwrap();
    let twice = LocalSearch::default().refine(&inst, &once).unwrap();
    assert!(once.objective <= base.objective);
    assert_eq!(
        twice.objective, once.objective,
        "second pass finds nothing new"
    );
}

/// A full archive cycle: generate → save → load → solve → refine → verify.
#[test]
fn archive_cycle_preserves_everything() {
    let g = generate_synthetic(&SyntheticConfig::uniform(400, 2.0, 33));
    let inst = clustered_instance(&g);
    if inst.check_feasibility().is_err() {
        return;
    }
    let mut buf = Vec::new();
    write_instance(&mut buf, &inst).unwrap();
    let owned = read_instance(BufReader::new(buf.as_slice())).unwrap();
    let loaded = owned.instance().unwrap();

    let a = LocalSearch::default()
        .wrap(Wma::new())
        .solve(&inst)
        .unwrap();
    let b = LocalSearch::default()
        .wrap(Wma::new())
        .solve(&loaded)
        .unwrap();
    assert_eq!(a, b, "persistence must not perturb the solve");
    loaded.verify(&b).unwrap();
}
