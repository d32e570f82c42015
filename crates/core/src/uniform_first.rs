//! The Uniform-First (UF) heuristic variant (paper Section VII-F).
//!
//! "We first solve the problem as if capacities were uniform using the
//! average capacity, and then reassign customers to facilities using the
//! real nonuniform capacities in a single bipartite matching step. This
//! alternative might represent a better heuristic, in case it detects better
//! locations under uniform capacities, before specializing to the nonuniform
//! ones." The paper finds UF matches Direct WMA for coworking selection
//! (Figures 12a, 13a) and fares slightly worse on bike docking (13b).

use std::sync::Arc;

use mcfs_graph::DistanceOracle;

use crate::assign::optimal_assignment_with;
use crate::components::{capacity_suffices, cover_components};
use crate::instance::{Facility, McfsInstance, Solution};
use crate::parallel::run_oracle;
use crate::wma::Wma;
use crate::{SolveError, Solver};

/// Uniform-First WMA: locate under the mean capacity, re-match under the
/// real ones.
#[derive(Clone, Debug, Default)]
pub struct UniformFirst {
    /// The inner WMA used for the uniform phase.
    pub inner: Wma,
}

impl UniformFirst {
    /// UF with a default-configured inner WMA.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the row-fill worker count for both the uniform siting phase and
    /// the final re-matching (`0` = auto, `1` = sequential).
    pub fn threads(mut self, n: usize) -> Self {
        self.inner.threads = n;
        self
    }

    /// Share an existing distance oracle across the uniform phase and the
    /// final re-matching. The uniformized instance lives on the same graph
    /// with the same customers, so its rows are fully reused.
    pub fn with_oracle(mut self, oracle: Arc<DistanceOracle>) -> Self {
        self.inner.oracle = Some(oracle);
        self
    }
}

impl Solver for UniformFirst {
    fn solve(&self, inst: &McfsInstance) -> Result<Solution, SolveError> {
        let _span = mcfs_obs::span("uf.solve");
        // Real-capacity feasibility gates everything.
        let feas = inst.check_feasibility().map_err(SolveError::Infeasible)?;

        // One oracle for the run, so the uniform siting phase and the final
        // re-matching share one row cache.
        let oracle = run_oracle(self.inner.threads, self.inner.oracle.as_ref());
        let inner = Wma {
            oracle: Some(Arc::clone(&oracle)),
            ..self.inner.clone()
        };

        // Mean capacity, rounded up; raised (doubling) if the uniformized
        // instance happens to be infeasible even though the real one is not
        // (e.g. one huge facility carries a component).
        let total: u64 = inst.facilities().iter().map(|f| f.capacity as u64).sum();
        let mut c_u = total.div_ceil(inst.num_facilities() as u64).max(1) as u32;
        let selection = loop {
            let uniform: Vec<Facility> = inst
                .facilities()
                .iter()
                .map(|f| Facility {
                    node: f.node,
                    capacity: c_u,
                })
                .collect();
            let uni_inst = McfsInstance::builder(inst.graph())
                .customers(inst.customers().iter().copied())
                .facilities(uniform)
                .k(inst.k())
                .build()
                .expect("uniformized instance mirrors a valid one");
            // Each uniform-capacity attempt is a full inner-WMA run, whose
            // main loop streams its own per-iteration events; the phase
            // markers delimit attempts so a watcher can tell c_u retries
            // apart.
            if mcfs_obs::bus_enabled() {
                mcfs_obs::publish(mcfs_obs::Event::Phase {
                    name: "uf.attempt",
                    state: mcfs_obs::PhaseState::Start,
                });
            }
            let attempt = inner.run(&uni_inst);
            if mcfs_obs::bus_enabled() {
                mcfs_obs::publish(mcfs_obs::Event::Phase {
                    name: "uf.attempt",
                    state: mcfs_obs::PhaseState::End,
                });
            }
            match attempt {
                Ok(run) => break run.solution.facilities,
                Err(SolveError::Infeasible(_)) if c_u < u32::MAX / 2 => c_u *= 2,
                Err(e) => return Err(e),
            }
        };

        // Re-matching step under the *real* capacities; repair the selection
        // first if mean-capacity siting under-provisioned some component.
        let selection = if capacity_suffices(inst, &selection, feas.components) {
            selection
        } else {
            cover_components(inst, selection, feas.components)?
        };
        let (assignment, objective) = optimal_assignment_with(inst, &selection, &oracle)?;
        Ok(Solution {
            facilities: selection,
            assignment,
            objective,
        })
    }

    fn name(&self) -> &'static str {
        "UF-WMA"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcfs_graph::{Graph, GraphBuilder, NodeId};

    fn path(n: usize, w: u64) -> Graph {
        let mut b = GraphBuilder::new(n);
        for i in 0..n - 1 {
            b.add_edge(i as NodeId, i as NodeId + 1, w);
        }
        b.build()
    }

    #[test]
    fn matches_direct_on_uniform_instances() {
        // With already-uniform capacities UF degenerates to WMA + rematch.
        let g = path(9, 4);
        let inst = McfsInstance::builder(&g)
            .customers([0, 4, 8])
            .facility(1, 2)
            .facility(4, 2)
            .facility(7, 2)
            .k(2)
            .build()
            .unwrap();
        let uf = UniformFirst::new().solve(&inst).unwrap();
        let direct = Wma::new().solve(&inst).unwrap();
        inst.verify(&uf).unwrap();
        assert_eq!(uf.objective, direct.objective);
    }

    #[test]
    fn nonuniform_capacities_respected() {
        let g = path(8, 5);
        let inst = McfsInstance::builder(&g)
            .customers([0, 1, 6, 7])
            .facility(1, 3)
            .facility(6, 1)
            .facility(4, 2)
            .k(3)
            .build()
            .unwrap();
        let sol = UniformFirst::new().solve(&inst).unwrap();
        inst.verify(&sol).unwrap();
    }

    #[test]
    fn uniformization_infeasibility_recovers_by_raising_cu() {
        // Mean capacity 1 can't serve 3 customers with k=1, but the real
        // big facility can: UF must still solve it.
        let g = path(5, 2);
        let inst = McfsInstance::builder(&g)
            .customers([0, 2, 4])
            .facility(2, 5)
            .facility(3, 1)
            .facility(4, 1)
            .k(1)
            .build()
            .unwrap();
        let sol = UniformFirst::new().solve(&inst).unwrap();
        inst.verify(&sol).unwrap();
        assert_eq!(sol.facilities.len(), 1);
        assert_eq!(sol.facilities, vec![0], "only the big facility is feasible");
    }

    #[test]
    fn infeasible_real_instance_rejected() {
        let g = path(3, 2);
        let inst = McfsInstance::builder(&g)
            .customers([0, 1, 2])
            .facility(1, 1)
            .facility(2, 1)
            .k(2)
            .build()
            .unwrap();
        assert!(matches!(
            UniformFirst::new().solve(&inst),
            Err(SolveError::Infeasible(_))
        ));
    }
}
