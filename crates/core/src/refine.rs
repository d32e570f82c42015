//! Swap-based local search on the selected facility set — an extension
//! beyond the paper.
//!
//! The paper's related-work section (§III) notes that classical local
//! search handles only uncapacitated or uniform soft-capacitated k-median.
//! That is true for local search *as a solver* — but as a **post-optimizer
//! on an already feasible selection** the swap neighborhood is perfectly
//! compatible with hard nonuniform capacities: every candidate swap is
//! re-evaluated with an exact capacitated assignment, so feasibility and
//! optimality-of-assignment are invariants, and the objective can only go
//! down.
//!
//! This addresses the one weakness our reproduction exposed in WMA's
//! count-greedy set cover (see EXPERIMENTS.md): on tightly clustered data
//! with `c ≈` cluster population, coverage-greedy selection can "hub-lock"
//! onto one facility per cluster. A handful of swap rounds recovers most of
//! the lost objective at a tiny fraction of exact-solver cost.
//!
//! ```
//! use mcfs::{McfsInstance, Solver, Wma};
//! use mcfs::refine::LocalSearch;
//! use mcfs_graph::GraphBuilder;
//!
//! let mut b = GraphBuilder::new(6);
//! for i in 0..5 { b.add_edge(i, i + 1, 10); }
//! let g = b.build();
//! let inst = McfsInstance::builder(&g)
//!     .customers([0, 2, 3, 5])
//!     .facilities((0..6).map(|v| mcfs::Facility { node: v, capacity: 2 }))
//!     .k(2)
//!     .build()
//!     .unwrap();
//! let refined = LocalSearch::default().wrap(Wma::new()).solve(&inst).unwrap();
//! inst.verify(&refined).unwrap();
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use mcfs_graph::{DistanceOracle, LazyDijkstra};
use rustc_hash::FxHashSet;

use crate::assign::optimal_assignment_with;
use crate::components::capacity_suffices;
use crate::instance::{McfsInstance, Solution};
use crate::parallel::run_oracle;
use crate::{SolveError, Solver};

/// Configuration for the swap-based refiner.
#[derive(Clone, Debug)]
pub struct LocalSearch {
    /// Unselected candidates examined per selected facility and round
    /// (its nearest neighbors in the network).
    pub neighborhood: usize,
    /// Maximum improvement rounds (a round scans every selected facility).
    pub max_rounds: usize,
    /// Optional wall-clock budget; refinement stops (keeping the best
    /// solution so far) when exceeded.
    pub time_budget: Option<Duration>,
    /// Row-fill worker threads (`0` = auto). The refiner re-assigns every
    /// trial swap with an exact matching, so the run's one oracle pays off
    /// more here than anywhere else: when facility rows apply, a swap fills
    /// at most the incoming site's row.
    pub threads: usize,
    /// Explicitly shared distance oracle.
    pub oracle: Option<Arc<DistanceOracle>>,
}

impl Default for LocalSearch {
    fn default() -> Self {
        Self {
            neighborhood: 8,
            max_rounds: 16,
            time_budget: None,
            threads: 0,
            oracle: None,
        }
    }
}

impl LocalSearch {
    /// Refiner with an explicit wall-clock budget.
    pub fn with_budget(budget: Duration) -> Self {
        Self {
            time_budget: Some(budget),
            ..Self::default()
        }
    }

    /// Set the row-fill worker count (`0` = auto, `1` = sequential).
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }

    /// Share an existing distance oracle (and its row cache) with this
    /// refiner.
    pub fn with_oracle(mut self, oracle: Arc<DistanceOracle>) -> Self {
        self.oracle = Some(oracle);
        self
    }

    /// Improve `solution` by first-improvement facility swaps; the result
    /// verifies against `inst` and its objective is ≤ the input's.
    pub fn refine(&self, inst: &McfsInstance, solution: &Solution) -> Result<Solution, SolveError> {
        let start = Instant::now();
        let feas = inst.check_feasibility().map_err(SolveError::Infeasible)?;
        let facs = inst.facilities();
        let oracle = run_oracle(self.threads, self.oracle.as_ref());
        let mut best = solution.clone();

        // node -> candidate indices (highest capacity first).
        let mut cand_at: rustc_hash::FxHashMap<mcfs_graph::NodeId, Vec<u32>> =
            rustc_hash::FxHashMap::default();
        for (j, f) in facs.iter().enumerate() {
            cand_at.entry(f.node).or_default().push(j as u32);
        }
        for list in cand_at.values_mut() {
            list.sort_unstable_by_key(|&j| std::cmp::Reverse(facs[j as usize].capacity));
        }

        let mut selected: FxHashSet<u32> = best.facilities.iter().copied().collect();
        for _round in 0..self.max_rounds {
            let mut improved = false;
            // Scan positions; `best` (and `selected`) update on every
            // accepted swap so later positions see the current selection.
            for pos in 0..best.facilities.len() {
                if let Some(budget) = self.time_budget {
                    if start.elapsed() > budget {
                        return Ok(best);
                    }
                }
                let out = best.facilities[pos];
                // Nearest unselected candidates around the outgoing site.
                let mut search = LazyDijkstra::new(facs[out as usize].node);
                let mut tried = 0usize;
                while tried < self.neighborhood {
                    let Some((node, _)) = search.next_settled(inst.graph()) else {
                        break;
                    };
                    let Some(list) = cand_at.get(&node) else {
                        continue;
                    };
                    for &cand in list {
                        if cand == out || selected.contains(&cand) {
                            continue;
                        }
                        tried += 1;
                        let mut trial = best.facilities.clone();
                        trial[pos] = cand;
                        if !capacity_suffices(inst, &trial, feas.components) {
                            continue;
                        }
                        if let Ok((assignment, objective)) =
                            optimal_assignment_with(inst, &trial, &oracle)
                        {
                            if objective < best.objective {
                                selected.remove(&out);
                                selected.insert(cand);
                                best = Solution {
                                    facilities: trial,
                                    assignment,
                                    objective,
                                };
                                improved = true;
                                break; // first improvement for this position
                            }
                        }
                        if tried >= self.neighborhood {
                            break;
                        }
                    }
                    if improved && best.facilities[pos] != out {
                        break; // position already swapped; move on
                    }
                }
            }
            if !improved {
                break;
            }
        }
        Ok(best)
    }

    /// Wrap a base solver: solve, then refine.
    pub fn wrap<S: Solver>(self, base: S) -> Refined<S> {
        Refined { base, search: self }
    }
}

/// A solver decorated with local-search refinement.
pub struct Refined<S> {
    base: S,
    search: LocalSearch,
}

impl<S: Solver> Solver for Refined<S> {
    fn solve(&self, inst: &McfsInstance) -> Result<Solution, SolveError> {
        let initial = self.base.solve(inst)?;
        self.search.refine(inst, &initial)
    }

    fn name(&self) -> &'static str {
        "WMA+LS"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assign::optimal_assignment;
    use crate::wma::Wma;
    use mcfs_graph::{Graph, GraphBuilder, NodeId};

    fn path(n: usize, w: u64) -> Graph {
        let mut b = GraphBuilder::new(n);
        for i in 0..n - 1 {
            b.add_edge(i as NodeId, i as NodeId + 1, w);
        }
        b.build()
    }

    #[test]
    fn fixes_a_planted_bad_selection() {
        // Customers at both ends; the planted selection wastes both
        // facilities on the left end.
        let g = path(10, 10);
        let inst = McfsInstance::builder(&g)
            .customers([0, 1, 8, 9])
            .facilities((0..10).map(|v| crate::Facility {
                node: v,
                capacity: 2,
            }))
            .k(2)
            .build()
            .unwrap();
        let (assignment, objective) = optimal_assignment(&inst, &[0, 1]).unwrap();
        let bad = Solution {
            facilities: vec![0, 1],
            assignment,
            objective,
        };
        inst.verify(&bad).unwrap();

        let refined = LocalSearch::default().refine(&inst, &bad).unwrap();
        inst.verify(&refined).unwrap();
        assert!(
            refined.objective < bad.objective,
            "{} !< {}",
            refined.objective,
            bad.objective
        );
        // True optimum: one facility per flank, each serving its two locals
        // at 10 total per side.
        assert_eq!(refined.objective, 20);
    }

    #[test]
    fn never_worsens() {
        let g = path(14, 3);
        let inst = McfsInstance::builder(&g)
            .customers([0, 3, 6, 9, 12, 13])
            .facilities((0..14).step_by(2).map(|v| crate::Facility {
                node: v,
                capacity: 2,
            }))
            .k(4)
            .build()
            .unwrap();
        let base = Wma::new().solve(&inst).unwrap();
        let refined = LocalSearch::default().refine(&inst, &base).unwrap();
        inst.verify(&refined).unwrap();
        assert!(refined.objective <= base.objective);
    }

    #[test]
    fn budget_zero_returns_input() {
        let g = path(8, 5);
        let inst = McfsInstance::builder(&g)
            .customers([0, 7])
            .facilities((0..8).map(|v| crate::Facility {
                node: v,
                capacity: 1,
            }))
            .k(2)
            .build()
            .unwrap();
        let base = Wma::new().solve(&inst).unwrap();
        let refined = LocalSearch::with_budget(Duration::ZERO)
            .refine(&inst, &base)
            .unwrap();
        assert_eq!(refined, base);
    }

    #[test]
    fn wrapped_solver_composes() {
        let g = path(12, 4);
        let inst = McfsInstance::builder(&g)
            .customers([0, 2, 9, 11])
            .facilities((0..12).map(|v| crate::Facility {
                node: v,
                capacity: 2,
            }))
            .k(2)
            .build()
            .unwrap();
        let plain = Wma::new().solve(&inst).unwrap();
        let refined = LocalSearch::default()
            .wrap(Wma::new())
            .solve(&inst)
            .unwrap();
        inst.verify(&refined).unwrap();
        assert!(refined.objective <= plain.objective);
    }

    #[test]
    fn no_duplicate_facilities_after_multi_swaps() {
        // Regression: an in-round swap must update the selected set, or a
        // later position can swap in an already-selected facility.
        let g = path(30, 5);
        let inst = McfsInstance::builder(&g)
            .customers([0, 1, 14, 15, 28, 29])
            .facilities((0..30).map(|v| crate::Facility {
                node: v,
                capacity: 2,
            }))
            .k(3)
            .build()
            .unwrap();
        // Plant all three facilities at one end so several swaps trigger.
        let (assignment, objective) = optimal_assignment(&inst, &[0, 1, 2]).unwrap();
        let bad = Solution {
            facilities: vec![0, 1, 2],
            assignment,
            objective,
        };
        let refined = LocalSearch::default().refine(&inst, &bad).unwrap();
        inst.verify(&refined).unwrap();
        let mut uniq = refined.facilities.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 3, "duplicates: {:?}", refined.facilities);
        assert!(refined.objective < bad.objective);
    }

    #[test]
    fn thread_count_never_changes_the_refinement() {
        let g = path(10, 10);
        let inst = McfsInstance::builder(&g)
            .customers([0, 1, 8, 9])
            .facilities((0..10).map(|v| crate::Facility {
                node: v,
                capacity: 2,
            }))
            .k(2)
            .build()
            .unwrap();
        let (assignment, objective) = optimal_assignment(&inst, &[0, 1]).unwrap();
        let bad = Solution {
            facilities: vec![0, 1],
            assignment,
            objective,
        };
        let legacy = LocalSearch {
            threads: 1,
            ..Default::default()
        }
        .refine(&inst, &bad)
        .unwrap();
        for n in [2, 4] {
            let par = LocalSearch {
                threads: n,
                ..Default::default()
            }
            .refine(&inst, &bad)
            .unwrap();
            assert_eq!(legacy, par, "threads {n}");
        }
    }

    #[test]
    fn respects_capacity_in_swaps() {
        // Only the big facility can host all three customers; a swap to the
        // closer-but-tiny candidate must be rejected.
        let g = path(6, 10);
        let inst = McfsInstance::builder(&g)
            .customers([0, 1, 2])
            .facility(4, 3) // selected, far but big
            .facility(1, 1) // near but tiny
            .k(1)
            .build()
            .unwrap();
        let (assignment, objective) = optimal_assignment(&inst, &[0]).unwrap();
        let sol = Solution {
            facilities: vec![0],
            assignment,
            objective,
        };
        let refined = LocalSearch::default().refine(&inst, &sol).unwrap();
        inst.verify(&refined).unwrap();
        assert_eq!(
            refined.facilities,
            vec![0],
            "tiny candidate must not be swapped in"
        );
    }
}
