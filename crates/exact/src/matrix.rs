//! Dense customer→facility distance matrices.
//!
//! The exact solvers evaluate many facility subsets against the same
//! distances, so unlike WMA they precompute the full `m × ℓ` matrix —
//! exactly the `d_ij` of the paper's IP formulation ("they may be computed
//! on the fly over the input network"; here the fly-weight is paid once up
//! front). One core row ([`Row`]) per distinct node of the smaller side,
//! read only at the other side's nodes: on a symmetric graph
//! `d(f, c) = d(c, f)`, so rows from the candidate nodes hold the same
//! costs as rows from the customers. A directed graph keeps customer rows,
//! since customer → facility is the direction every solver measures.

use std::collections::BTreeMap;

use mcfs::McfsInstance;
use mcfs_flow::INF_COST;
use mcfs_graph::{NodeId, Row, INF};

/// Row-major `m × ℓ` matrix of network distances; unreachable pairs get
/// [`INF_COST`].
pub fn cost_matrix(inst: &McfsInstance) -> Vec<u64> {
    let g = inst.graph();
    let customers = inst.customers();
    let sites: Vec<NodeId> = inst.facilities().iter().map(|f| f.node).collect();
    let l = sites.len();
    let mut costs = vec![INF_COST; customers.len() * l];
    let mut set = |i: usize, j: usize, d: u64| {
        if d != INF {
            costs[i * l + j] = d;
        }
    };
    let (by_customer, by_site) = (by_node(customers), by_node(&sites));
    if g.is_symmetric() && by_site.len() < by_customer.len() {
        for (&f, js) in &by_site {
            let row = Row::new(g, f);
            for &j in js {
                for (i, &c) in customers.iter().enumerate() {
                    set(i, j, row.get(c));
                }
            }
        }
    } else {
        for (&c, is) in &by_customer {
            let row = Row::new(g, c);
            for &i in is {
                for (j, &f) in sites.iter().enumerate() {
                    set(i, j, row.get(f));
                }
            }
        }
    }
    costs
}

/// Positions of each distinct node in `nodes`.
fn by_node(nodes: &[NodeId]) -> BTreeMap<NodeId, Vec<usize>> {
    let mut map: BTreeMap<NodeId, Vec<usize>> = BTreeMap::new();
    for (i, &v) in nodes.iter().enumerate() {
        map.entry(v).or_default().push(i);
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcfs_graph::{dijkstra_all, GraphBuilder};

    /// `cost_matrix` equals per-customer reference Dijkstras.
    fn assert_matches_reference(g: &mcfs_graph::Graph, customers: &[u32], fac_nodes: &[u32]) {
        let inst = McfsInstance::builder(g)
            .customers(customers.iter().copied())
            .facilities(fac_nodes.iter().map(|&v| mcfs::Facility {
                node: v,
                capacity: 2,
            }))
            .k(2)
            .build()
            .unwrap();
        let c = cost_matrix(&inst);
        for (i, &s) in customers.iter().enumerate() {
            let d = dijkstra_all(g, s);
            for (j, &f) in fac_nodes.iter().enumerate() {
                let want = if d[f as usize] == INF {
                    INF_COST
                } else {
                    d[f as usize]
                };
                assert_eq!(c[i * fac_nodes.len() + j], want, "customer {i}, site {j}");
            }
        }
    }

    #[test]
    fn matrix_matches_dijkstra_on_random_graph() {
        use mcfs_gen::synthetic::{generate_synthetic, SyntheticConfig};
        let g = generate_synthetic(&SyntheticConfig::uniform(200, 2.0, 5));
        let customers: Vec<u32> = (0..10).map(|i| i * 17 % 200).collect();
        let fac_nodes: Vec<u32> = (0..8).map(|j| (j * 23 + 3) % 200).collect();
        // ℓ < m: rows from the candidate sites.
        assert_matches_reference(&g, &customers, &fac_nodes);
        // ℓ > m: rows from the customers.
        assert_matches_reference(&g, &customers[..4], &fac_nodes);
        // ℓ < m with repeated nodes on both sides.
        let mut crowded = customers.clone();
        crowded.extend_from_slice(&customers[..5]);
        assert_matches_reference(&g, &crowded, &[fac_nodes[0], fac_nodes[1], fac_nodes[0]]);
        // ℓ < m on a directed twin: a cheap one-way arc makes d(c, f) and
        // d(f, c) differ, so only customer rows are right.
        let mut b = GraphBuilder::new(g.num_nodes());
        for u in g.nodes() {
            for (v, w) in g.neighbors(u) {
                b.add_arc(u, v, w);
            }
        }
        b.add_arc(customers[0], fac_nodes[0], 1);
        let directed = b.build();
        assert!(!directed.is_symmetric());
        assert_matches_reference(&directed, &customers, &fac_nodes);
        let inst = McfsInstance::builder(&directed)
            .customers(customers.iter().copied())
            .facilities(fac_nodes.iter().map(|&v| mcfs::Facility {
                node: v,
                capacity: 2,
            }))
            .k(2)
            .build()
            .unwrap();
        assert_eq!(cost_matrix(&inst)[0], 1, "the one-way arc is used outbound");
    }

    #[test]
    fn colocated_customer_and_facility_cost_zero() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 9);
        let g = b.build();
        let inst = McfsInstance::builder(&g)
            .customers([1])
            .facility(1, 1)
            .k(1)
            .build()
            .unwrap();
        assert_eq!(cost_matrix(&inst), vec![0]);
    }

    #[test]
    fn matrix_matches_hand_distances() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 3);
        b.add_edge(1, 2, 4);
        let g = b.build();
        let inst = McfsInstance::builder(&g)
            .customers([0, 2])
            .facility(1, 1)
            .facility(3, 1)
            .k(1)
            .build()
            .unwrap();
        let c = cost_matrix(&inst);
        assert_eq!(c, vec![3, INF_COST, 4, INF_COST]);
    }
}
