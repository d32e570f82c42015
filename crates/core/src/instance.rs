//! Problem instances and solutions for Multicapacity Facility Selection.

use mcfs_graph::{dijkstra_all, ComponentInfo, Graph, NodeId, INF};
use rustc_hash::FxHashMap;

/// A candidate facility: a network node plus its capacity `c_j`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Facility {
    /// Node the facility would occupy.
    pub node: NodeId,
    /// Maximum number of customers it can serve.
    pub capacity: u32,
}

/// An MCFS problem instance (Section II of the paper): a network, `m`
/// customer locations, `ℓ` candidate facilities with capacities, and a
/// budget `k`.
///
/// Customers may repeat nodes (the paper's Figure 8c places multiple
/// customers per node); facilities may too, e.g. two venues in one building.
#[derive(Clone, Debug)]
pub struct McfsInstance<'g> {
    graph: &'g Graph,
    customers: Vec<NodeId>,
    facilities: Vec<Facility>,
    k: usize,
}

/// Builder for [`McfsInstance`]; validates shape at [`build`](InstanceBuilder::build).
#[derive(Clone, Debug)]
pub struct InstanceBuilder<'g> {
    graph: &'g Graph,
    customers: Vec<NodeId>,
    facilities: Vec<Facility>,
    k: usize,
}

/// Instance construction errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InstanceError {
    /// A customer or facility node id is `>= graph.num_nodes()`.
    NodeOutOfRange {
        /// The offending node id.
        node: NodeId,
    },
    /// `k` must satisfy `1 ≤ k ≤ ℓ`.
    BadBudget {
        /// The requested budget.
        k: usize,
        /// The number of candidate facilities available.
        num_facilities: usize,
    },
    /// There are no customers to serve.
    NoCustomers,
}

impl std::fmt::Display for InstanceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InstanceError::NodeOutOfRange { node } => write!(f, "node {node} is out of range"),
            InstanceError::BadBudget { k, num_facilities } => {
                write!(f, "budget k={k} must be between 1 and the number of candidate facilities {num_facilities}")
            }
            InstanceError::NoCustomers => write!(f, "instance has no customers"),
        }
    }
}

impl std::error::Error for InstanceError {}

impl<'g> InstanceBuilder<'g> {
    /// Add one customer at `node`.
    pub fn customer(mut self, node: NodeId) -> Self {
        self.customers.push(node);
        self
    }

    /// Add many customers.
    pub fn customers(mut self, nodes: impl IntoIterator<Item = NodeId>) -> Self {
        self.customers.extend(nodes);
        self
    }

    /// Add a candidate facility at `node` with the given capacity.
    pub fn facility(mut self, node: NodeId, capacity: u32) -> Self {
        self.facilities.push(Facility { node, capacity });
        self
    }

    /// Add many candidate facilities.
    pub fn facilities(mut self, fs: impl IntoIterator<Item = Facility>) -> Self {
        self.facilities.extend(fs);
        self
    }

    /// Set the selection budget `k`.
    pub fn k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Validate and build the instance.
    pub fn build(self) -> Result<McfsInstance<'g>, InstanceError> {
        let n = self.graph.num_nodes() as NodeId;
        for &c in &self.customers {
            if c >= n {
                return Err(InstanceError::NodeOutOfRange { node: c });
            }
        }
        for f in &self.facilities {
            if f.node >= n {
                return Err(InstanceError::NodeOutOfRange { node: f.node });
            }
        }
        if self.customers.is_empty() {
            return Err(InstanceError::NoCustomers);
        }
        if self.k == 0 || self.k > self.facilities.len() {
            return Err(InstanceError::BadBudget {
                k: self.k,
                num_facilities: self.facilities.len(),
            });
        }
        Ok(McfsInstance {
            graph: self.graph,
            customers: self.customers,
            facilities: self.facilities,
            k: self.k,
        })
    }
}

impl<'g> McfsInstance<'g> {
    /// Start building an instance over `graph`.
    pub fn builder(graph: &'g Graph) -> InstanceBuilder<'g> {
        InstanceBuilder {
            graph,
            customers: Vec::new(),
            facilities: Vec::new(),
            k: 0,
        }
    }

    /// The underlying network.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// Customer locations (`S`; one entry per customer, nodes may repeat).
    pub fn customers(&self) -> &[NodeId] {
        &self.customers
    }

    /// Candidate facilities (`F_p` with capacities).
    pub fn facilities(&self) -> &[Facility] {
        &self.facilities
    }

    /// Number of customers `m`.
    pub fn num_customers(&self) -> usize {
        self.customers.len()
    }

    /// Number of candidate facilities `ℓ`.
    pub fn num_facilities(&self) -> usize {
        self.facilities.len()
    }

    /// Selection budget `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Facility capacities as a dense vector (index-aligned with
    /// [`facilities`](Self::facilities)).
    pub fn capacities(&self) -> Vec<u32> {
        self.facilities.iter().map(|f| f.capacity).collect()
    }

    /// Group facility indices by the node they occupy.
    pub fn facilities_by_node(&self) -> FxHashMap<NodeId, Vec<u32>> {
        let mut map: FxHashMap<NodeId, Vec<u32>> = FxHashMap::default();
        for (j, f) in self.facilities.iter().enumerate() {
            map.entry(f.node).or_default().push(j as u32);
        }
        map
    }

    /// Feasibility check per Theorem 3 of the paper: the instance is
    /// solvable iff every connected component can be granted enough facility
    /// capacity for its own customers and the per-component minimum facility
    /// counts sum to at most `k`.
    ///
    /// Returns the per-component minimum counts on success, beside the
    /// graph's component labels, borrowed from [`Graph::components`]
    /// (computed once per graph, so repeated checks on one network walk
    /// it once).
    pub fn check_feasibility(&self) -> Result<FeasibilityReport<'g>, Infeasibility> {
        let cc = self.graph.components();
        let mut customers_per = vec![0u64; cc.count];
        for &s in &self.customers {
            customers_per[cc.of(s) as usize] += 1;
        }
        // Largest-capacity-first greedy per component gives the minimum
        // facility count needed to reach the component's customer mass.
        let mut caps_per: Vec<Vec<u32>> = vec![Vec::new(); cc.count];
        for f in &self.facilities {
            caps_per[cc.of(f.node) as usize].push(f.capacity);
        }
        let mut min_counts = vec![0usize; cc.count];
        let mut total = 0usize;
        for g in 0..cc.count {
            if customers_per[g] == 0 {
                continue;
            }
            caps_per[g].sort_unstable_by(|a, b| b.cmp(a));
            let mut acc = 0u64;
            let mut cnt = 0usize;
            for &c in &caps_per[g] {
                if acc >= customers_per[g] {
                    break;
                }
                acc += c as u64;
                cnt += 1;
            }
            if acc < customers_per[g] {
                return Err(Infeasibility::ComponentCapacity {
                    component: g,
                    customers: customers_per[g],
                    capacity: acc,
                });
            }
            min_counts[g] = cnt;
            total += cnt;
        }
        if total > self.k {
            return Err(Infeasibility::BudgetTooSmall {
                required: total,
                k: self.k,
            });
        }
        Ok(FeasibilityReport {
            components: cc,
            min_counts,
        })
    }
}

/// Successful feasibility analysis.
#[derive(Clone, Debug)]
pub struct FeasibilityReport<'g> {
    /// Component labelling of the network, borrowed from the graph
    /// ([`Graph::components`]).
    pub components: &'g ComponentInfo,
    /// Minimum number of facilities each component must receive
    /// (the paper's `k_g`).
    pub min_counts: Vec<usize>,
}

/// Why an instance cannot be solved at all.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Infeasibility {
    /// A connected component hosts more customers than the total capacity of
    /// all its candidate facilities.
    ComponentCapacity {
        /// Component index.
        component: usize,
        /// Customers located in the component.
        customers: u64,
        /// Total candidate capacity available there.
        capacity: u64,
    },
    /// The per-component minimum facility counts sum to more than `k`.
    BudgetTooSmall {
        /// Facilities needed to cover every component.
        required: usize,
        /// The instance's budget.
        k: usize,
    },
}

impl std::fmt::Display for Infeasibility {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Infeasibility::ComponentCapacity {
                component,
                customers,
                capacity,
            } => write!(
                f,
                "component {component} has {customers} customers but only capacity {capacity}"
            ),
            Infeasibility::BudgetTooSmall { required, k } => {
                write!(
                    f,
                    "covering all components requires {required} facilities but k={k}"
                )
            }
        }
    }
}

impl std::error::Error for Infeasibility {}

/// A solution: the selected facilities and the customer assignment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Solution {
    /// Indices into [`McfsInstance::facilities`] of the selected set `F`.
    pub facilities: Vec<u32>,
    /// `assignment[i]` is the index (into [`Self::facilities`]) of the
    /// facility serving customer `i`.
    pub assignment: Vec<u32>,
    /// Sum of network distances customer → assigned facility (Equation 1).
    pub objective: u64,
}

/// Violations detected by [`McfsInstance::verify`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VerifyError {
    /// More than `k` facilities selected.
    TooManyFacilities {
        /// Facilities in the solution.
        selected: usize,
        /// The instance budget.
        k: usize,
    },
    /// A selected-facility index is out of range or repeated.
    BadFacilityIndex {
        /// The offending index.
        index: u32,
    },
    /// `assignment` length differs from the number of customers.
    WrongAssignmentLength {
        /// Entries in the assignment.
        got: usize,
        /// Customers in the instance.
        want: usize,
    },
    /// An assignment entry does not point into the selected set.
    BadAssignmentIndex {
        /// The customer with the bad entry.
        customer: usize,
        /// The out-of-range selected-set index.
        index: u32,
    },
    /// A facility serves more customers than its capacity.
    CapacityExceeded {
        /// Facility index (into the instance's candidate list).
        facility: u32,
        /// Customers assigned to it.
        load: u64,
        /// Its capacity.
        capacity: u32,
    },
    /// A customer is assigned to a facility it cannot reach.
    Unreachable {
        /// The stranded customer.
        customer: usize,
        /// The unreachable facility index.
        facility: u32,
    },
    /// Reported objective differs from the recomputed distance sum.
    ObjectiveMismatch {
        /// Objective claimed by the solution.
        reported: u64,
        /// Objective recomputed from scratch.
        actual: u64,
    },
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

impl std::error::Error for VerifyError {}

impl McfsInstance<'_> {
    /// Verify a solution end-to-end: selection size, index sanity, capacity
    /// constraints, reachability, and the reported objective, recomputed
    /// from scratch as customer → facility distances (the direction every
    /// solver measures): one Dijkstra per selected facility on a symmetric
    /// graph, one per distinct customer node on a directed one.
    pub fn verify(&self, sol: &Solution) -> Result<(), VerifyError> {
        if sol.facilities.len() > self.k {
            return Err(VerifyError::TooManyFacilities {
                selected: sol.facilities.len(),
                k: self.k,
            });
        }
        let mut seen = rustc_hash::FxHashSet::default();
        for &j in &sol.facilities {
            if j as usize >= self.facilities.len() || !seen.insert(j) {
                return Err(VerifyError::BadFacilityIndex { index: j });
            }
        }
        if sol.assignment.len() != self.customers.len() {
            return Err(VerifyError::WrongAssignmentLength {
                got: sol.assignment.len(),
                want: self.customers.len(),
            });
        }
        let mut loads = vec![0u64; sol.facilities.len()];
        for (i, &a) in sol.assignment.iter().enumerate() {
            if a as usize >= sol.facilities.len() {
                return Err(VerifyError::BadAssignmentIndex {
                    customer: i,
                    index: a,
                });
            }
            loads[a as usize] += 1;
        }
        for (fi, &load) in loads.iter().enumerate() {
            let fac = self.facilities[sol.facilities[fi] as usize];
            if load > fac.capacity as u64 {
                return Err(VerifyError::CapacityExceeded {
                    facility: sol.facilities[fi],
                    load,
                    capacity: fac.capacity,
                });
            }
        }
        // Recompute the objective from scratch. Solvers measure customer →
        // facility; on a symmetric graph that is also facility → customer,
        // so one row per selected facility serves every customer. A
        // directed graph needs one row per distinct customer node.
        let mut actual = 0u64;
        let mut charge = |i: usize, d: u64| {
            if d == INF {
                return Err(VerifyError::Unreachable {
                    customer: i,
                    facility: sol.facilities[sol.assignment[i] as usize],
                });
            }
            actual += d;
            Ok(())
        };
        if self.graph.is_symmetric() {
            for (fi, &j) in sol.facilities.iter().enumerate() {
                let dist = dijkstra_all(self.graph, self.facilities[j as usize].node);
                for (i, &a) in sol.assignment.iter().enumerate() {
                    if a as usize == fi {
                        charge(i, dist[self.customers[i] as usize])?;
                    }
                }
            }
        } else {
            let mut by_node: Vec<usize> = (0..self.customers.len()).collect();
            by_node.sort_by_key(|&i| self.customers[i]);
            // No node has id NodeId::MAX, so the first customer fills a row.
            let mut row = (NodeId::MAX, Vec::new());
            for i in by_node {
                let c = self.customers[i];
                if row.0 != c {
                    row = (c, dijkstra_all(self.graph, c));
                }
                let fac = self.facilities[sol.facilities[sol.assignment[i] as usize] as usize];
                charge(i, row.1[fac.node as usize])?;
            }
        }
        if actual != sol.objective {
            return Err(VerifyError::ObjectiveMismatch {
                reported: sol.objective,
                actual,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcfs_graph::GraphBuilder;

    fn path_graph(n: usize) -> Graph {
        let mut b = GraphBuilder::new(n);
        for i in 0..n - 1 {
            b.add_edge(i as NodeId, i as NodeId + 1, 10);
        }
        b.build()
    }

    #[test]
    fn builder_validates() {
        let g = path_graph(4);
        assert_eq!(
            McfsInstance::builder(&g)
                .customer(9)
                .facility(0, 1)
                .k(1)
                .build()
                .unwrap_err(),
            InstanceError::NodeOutOfRange { node: 9 }
        );
        assert_eq!(
            McfsInstance::builder(&g)
                .customer(0)
                .facility(1, 1)
                .k(2)
                .build()
                .unwrap_err(),
            InstanceError::BadBudget {
                k: 2,
                num_facilities: 1
            }
        );
        assert_eq!(
            McfsInstance::builder(&g)
                .facility(1, 1)
                .k(1)
                .build()
                .unwrap_err(),
            InstanceError::NoCustomers
        );
        let inst = McfsInstance::builder(&g)
            .customer(0)
            .facility(1, 1)
            .k(1)
            .build()
            .unwrap();
        assert_eq!(inst.num_customers(), 1);
        assert_eq!(inst.num_facilities(), 1);
    }

    #[test]
    fn feasibility_single_component() {
        let g = path_graph(4);
        let inst = McfsInstance::builder(&g)
            .customers([0, 1, 2])
            .facility(1, 2)
            .facility(3, 2)
            .k(2)
            .build()
            .unwrap();
        let rep = inst.check_feasibility().unwrap();
        assert_eq!(rep.min_counts, vec![2]);
    }

    #[test]
    fn feasibility_detects_capacity_shortfall() {
        let g = path_graph(3);
        let inst = McfsInstance::builder(&g)
            .customers([0, 1, 2])
            .facility(1, 2)
            .k(1)
            .build()
            .unwrap();
        assert!(matches!(
            inst.check_feasibility().unwrap_err(),
            Infeasibility::ComponentCapacity {
                customers: 3,
                capacity: 2,
                ..
            }
        ));
    }

    #[test]
    fn feasibility_detects_budget_shortfall_across_components() {
        // Two disconnected edges; customers in both, k = 1.
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1);
        b.add_edge(2, 3, 1);
        let g = b.build();
        let inst = McfsInstance::builder(&g)
            .customers([0, 2])
            .facility(1, 5)
            .facility(3, 5)
            .k(1)
            .build()
            .unwrap();
        assert_eq!(
            inst.check_feasibility().unwrap_err(),
            Infeasibility::BudgetTooSmall { required: 2, k: 1 }
        );
    }

    #[test]
    fn verify_accepts_valid_solution() {
        let g = path_graph(4);
        let inst = McfsInstance::builder(&g)
            .customers([0, 3])
            .facility(1, 1)
            .facility(2, 1)
            .k(2)
            .build()
            .unwrap();
        let sol = Solution {
            facilities: vec![0, 1],
            assignment: vec![0, 1],
            objective: 20,
        };
        inst.verify(&sol).unwrap();
    }

    #[test]
    fn verify_rejects_bad_solutions() {
        let g = path_graph(4);
        let inst = McfsInstance::builder(&g)
            .customers([0, 3])
            .facility(1, 1)
            .facility(2, 1)
            .k(1)
            .build()
            .unwrap();
        // Too many facilities.
        let sol = Solution {
            facilities: vec![0, 1],
            assignment: vec![0, 1],
            objective: 20,
        };
        assert!(matches!(
            inst.verify(&sol),
            Err(VerifyError::TooManyFacilities { .. })
        ));
        // Capacity violation.
        let sol = Solution {
            facilities: vec![0],
            assignment: vec![0, 0],
            objective: 30,
        };
        assert!(matches!(
            inst.verify(&sol),
            Err(VerifyError::CapacityExceeded { .. })
        ));
        // Objective mismatch.
        let inst2 = McfsInstance::builder(&g)
            .customers([0])
            .facility(1, 1)
            .k(1)
            .build()
            .unwrap();
        let sol = Solution {
            facilities: vec![0],
            assignment: vec![0],
            objective: 11,
        };
        assert!(matches!(
            inst2.verify(&sol),
            Err(VerifyError::ObjectiveMismatch { .. })
        ));
    }

    #[test]
    fn verify_rejects_duplicate_selection() {
        let g = path_graph(4);
        let inst = McfsInstance::builder(&g)
            .customers([0, 3])
            .facility(1, 1)
            .facility(2, 1)
            .k(2)
            .build()
            .unwrap();
        let sol = Solution {
            facilities: vec![0, 0],
            assignment: vec![0, 1],
            objective: 40,
        };
        assert!(matches!(
            inst.verify(&sol),
            Err(VerifyError::BadFacilityIndex { .. })
        ));
    }

    #[test]
    fn facilities_by_node_groups() {
        let g = path_graph(4);
        let inst = McfsInstance::builder(&g)
            .customer(0)
            .facility(1, 1)
            .facility(1, 3)
            .facility(2, 2)
            .k(1)
            .build()
            .unwrap();
        let map = inst.facilities_by_node();
        assert_eq!(map[&1], vec![0, 1]);
        assert_eq!(map[&2], vec![2]);
    }
}
