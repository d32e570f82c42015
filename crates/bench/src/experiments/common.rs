//! Shared workload construction for the experiment modules.

use mcfs::{Facility, McfsInstance};
use mcfs_gen::capacities;
use mcfs_gen::customers::{sample_weighted, uniform_customers, uniform_nodes};
use mcfs_gen::synthetic::{generate_synthetic, SyntheticConfig};
use mcfs_graph::{Graph, NodeId};

/// Capacity specification for synthetic experiments.
#[derive(Clone, Copy, Debug)]
pub enum CapSpec {
    /// All facilities share capacity `c`.
    Uniform(u32),
    /// Independent `U(lo, hi)` (the paper's Figure 6d).
    Random(u32, u32),
}

impl CapSpec {
    fn realize(&self, l: usize, seed: u64) -> Vec<u32> {
        match *self {
            CapSpec::Uniform(c) => capacities::uniform(l, c),
            CapSpec::Random(lo, hi) => capacities::uniform_random(l, lo, hi, seed),
        }
    }
}

/// A fully materialized synthetic workload. Owns the graph so that
/// [`Self::instance`] can lend it to an [`McfsInstance`].
pub struct Workload {
    /// The network.
    pub graph: Graph,
    /// Customer locations.
    pub customers: Vec<NodeId>,
    /// Candidate facilities.
    pub facilities: Vec<Facility>,
    /// Selection budget.
    pub k: usize,
    /// Whether customers had to be restricted to the giant component to
    /// keep the instance feasible (noted in reports).
    pub restricted: bool,
}

impl Workload {
    /// Borrow as a problem instance.
    pub fn instance(&self) -> McfsInstance<'_> {
        McfsInstance::builder(&self.graph)
            .customers(self.customers.iter().copied())
            .facilities(self.facilities.iter().copied())
            .k(self.k)
            .build()
            .expect("workload construction guarantees a well-formed instance")
    }
}

/// Build a synthetic workload in the paper's style.
///
/// * `cfg` — scatter + density (Section VII-B);
/// * `m` — number of customers (distinct nodes);
/// * `l` — candidate facility count (`None` = all nodes, the paper's
///   `F_p = V`);
/// * `k` — selection budget;
/// * `caps` — capacity model.
///
/// Customers are sampled uniformly; if the resulting instance is infeasible
/// purely because the network fragments into more customer-bearing
/// components than `k` (the hazard of sparse `α`), customers are resampled
/// within the largest facility-bearing component and the workload is marked
/// [`Workload::restricted`].
pub fn synthetic_workload(
    cfg: &SyntheticConfig,
    m: usize,
    l: Option<usize>,
    k: usize,
    caps: CapSpec,
    seed: u64,
) -> Workload {
    let graph = generate_synthetic(cfg);
    let fac_nodes: Vec<NodeId> = match l {
        None => graph.nodes().collect(),
        Some(count) => uniform_nodes(&graph, count.min(graph.num_nodes()), seed ^ 0xFAC),
    };
    let cap_values = caps.realize(fac_nodes.len(), seed ^ 0xCA9);
    let facilities: Vec<Facility> = fac_nodes
        .iter()
        .zip(&cap_values)
        .map(|(&node, &capacity)| Facility { node, capacity })
        .collect();

    let m = m.min(graph.num_nodes());
    let customers = uniform_customers(&graph, m, seed ^ 0xC057);
    let mut w = Workload {
        graph,
        customers,
        facilities,
        k,
        restricted: false,
    };
    if w.instance().check_feasibility().is_ok() {
        return w;
    }

    // Restrict customers to the largest component containing facilities.
    let cc = w.graph.components();
    let mut fac_comp_size = vec![0usize; cc.count];
    for f in &w.facilities {
        fac_comp_size[cc.of(f.node) as usize] = cc.sizes[cc.of(f.node) as usize];
    }
    let giant = (0..cc.count).max_by_key(|&g| fac_comp_size[g]).unwrap_or(0);
    let pool: Vec<NodeId> = w
        .graph
        .nodes()
        .filter(|&v| cc.of(v) as usize == giant)
        .collect();
    // Deterministic subsample of the pool.
    let weights: Vec<f64> = vec![1.0; pool.len()];
    let picks = sample_weighted(&weights, m.min(pool.len()), seed ^ 0x91A17);
    let mut seen = vec![false; pool.len()];
    let mut customers = Vec::with_capacity(m.min(pool.len()));
    for p in picks {
        if !seen[p as usize] {
            seen[p as usize] = true;
            customers.push(pool[p as usize]);
        }
    }
    // Fill up deterministically if sampling-with-replacement deduped.
    for (i, &node) in pool.iter().enumerate() {
        if customers.len() >= m.min(pool.len()) {
            break;
        }
        if !seen[i] {
            seen[i] = true;
            customers.push(node);
        }
    }
    w.customers = customers;
    w.restricted = true;
    w
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_workload_is_feasible_unrestricted() {
        let cfg = SyntheticConfig::uniform(600, 2.0, 3);
        let w = synthetic_workload(&cfg, 60, None, 6, CapSpec::Uniform(20), 3);
        assert!(!w.restricted);
        w.instance().check_feasibility().unwrap();
        assert_eq!(w.customers.len(), 60);
        assert_eq!(w.facilities.len(), 600);
    }

    #[test]
    fn sparse_workload_restricts_when_needed() {
        // Very sparse: many components, tiny k — restriction must engage and
        // still yield a feasible instance.
        let cfg = SyntheticConfig::uniform(500, 0.6, 5);
        let w = synthetic_workload(&cfg, 50, None, 2, CapSpec::Uniform(30), 5);
        w.instance().check_feasibility().unwrap();
        assert!(w.restricted);
    }

    #[test]
    fn facility_subset_workloads() {
        let cfg = SyntheticConfig::clustered(800, 20, 1.5, 7);
        let w = synthetic_workload(&cfg, 80, Some(200), 10, CapSpec::Random(1, 10), 7);
        assert_eq!(w.facilities.len(), 200);
        let inst = w.instance();
        assert_eq!(inst.num_facilities(), 200);
        // Feasibility holds one way or the other.
        inst.check_feasibility().unwrap();
    }
}
