//! Classic greedy-addition k-median baseline.
//!
//! The facility-location literature's default heuristic (Cornuejols,
//! Nemhauser & Wolsey — the paper's reference 10): start empty and
//! repeatedly add the candidate facility that most reduces the
//! *uncapacitated* assignment cost `Σ_i min_{f∈F} dist(s_i, f)`. The
//! uncapacitated objective is submodular, so each round's best candidate is
//! found exactly; capacities are then restored the same way the paper's
//! baselines do — `CoverComponents` repair plus an optimal capacitated
//! matching onto the chosen set.
//!
//! The paper does not bench this heuristic (its Hilbert baseline is the
//! scalable yardstick), but any open-source release of a k-median system
//! would be expected to carry it: it is the natural "strong simple
//! baseline" between BRNN's attraction counting and WMA's matching machinery.
//!
//! Each round sweeps a bounded Dijkstra ball per customer (radius = its
//! current nearest-selected distance, so balls shrink as rounds progress)
//! to collect per-candidate savings, then one full Dijkstra from the newly
//! added site updates the distances — `O(k · (m · ball + E log n))` overall.

use std::sync::Arc;

use mcfs::assign::{optimal_assignment, optimal_assignment_with};
use mcfs::components::{capacity_suffices, cover_components};
use mcfs::parallel::resolve_oracle;
use mcfs::{McfsInstance, Solution, SolveError, Solver};
use mcfs_graph::{dijkstra_bounded, Dist, DistanceOracle, NodeId, Row, INF};
use rustc_hash::{FxHashMap, FxHashSet};

/// The greedy-addition baseline.
#[derive(Clone, Debug, Default)]
pub struct GreedyAddition {
    /// Distance-substrate worker threads (`0` = auto, `1` = the legacy
    /// search-per-query path); see [`mcfs::parallel`].
    pub threads: usize,
    /// Explicitly shared distance oracle.
    pub oracle: Option<Arc<DistanceOracle>>,
}

impl GreedyAddition {
    /// Construct the baseline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the distance-substrate worker count (`0` = auto, `1` = legacy
    /// sequential path).
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }

    /// Share an existing distance oracle (and its row cache) with this
    /// baseline.
    pub fn with_oracle(mut self, oracle: Arc<DistanceOracle>) -> Self {
        self.oracle = Some(oracle);
        self
    }
}

impl Solver for GreedyAddition {
    fn solve(&self, inst: &McfsInstance) -> Result<Solution, SolveError> {
        let feas = inst.check_feasibility().map_err(SolveError::Infeasible)?;
        let g = inst.graph();
        let k = inst.k();

        // With an oracle the per-round candidate-gain sweep reads cached
        // customer rows (one batched parallel prefetch) instead of running
        // a bounded Dijkstra per customer per round; results are identical.
        let oracle = resolve_oracle(self.threads, self.oracle.as_ref());

        // node -> candidate indices (largest capacity first).
        let mut cand_at: FxHashMap<NodeId, Vec<u32>> = FxHashMap::default();
        for (j, f) in inst.facilities().iter().enumerate() {
            cand_at.entry(f.node).or_default().push(j as u32);
        }
        for list in cand_at.values_mut() {
            list.sort_unstable_by_key(|&j| {
                std::cmp::Reverse(inst.facilities()[j as usize].capacity)
            });
        }
        let cand_nodes: Vec<NodeId> = {
            let mut v: Vec<NodeId> = cand_at.keys().copied().collect();
            v.sort_unstable();
            v
        };
        let customer_rows: Option<Vec<Arc<Row>>> = oracle
            .as_ref()
            .map(|o| o.distances_for_sources(g, inst.customers()));

        let mut taken: FxHashSet<u32> = FxHashSet::default();
        let mut selection: Vec<u32> = Vec::with_capacity(k);

        // current[i]: distance of customer i to its nearest selected site
        // (INF while nothing is selected).
        let mut current: Vec<u64> = vec![INF; inst.num_customers()];
        // The new site's row, expanded once per round (oracle path).
        let mut full = Vec::new();

        for _round in 0..k {
            // Gain of adding candidate node v: Σ_i max(0, current_i − d(s_i, v)).
            // Computed customer-side: each customer searches outward up to its
            // current distance; every candidate node found earns the savings.
            let mut gain: FxHashMap<NodeId, u64> = FxHashMap::default();
            for (i, &s) in inst.customers().iter().enumerate() {
                let radius = current[i];
                if radius == 0 {
                    continue;
                }
                // Bound the per-customer ball: before anything is selected,
                // savings are relative to INF, which we cap by searching the
                // whole component (bounded by INF) — the first round is the
                // expensive, exact 1-median evaluation.
                let bound = if radius == INF { INF } else { radius - 1 };
                let saving_of = |d: u64| {
                    if radius == INF {
                        // Use "distance avoided" as the gain proxy so the
                        // first round picks the 1-median: bigger is
                        // better when measured as (D_max − d).
                        u32::MAX as u64 - d
                    } else {
                        radius - d
                    }
                };
                match &customer_rows {
                    Some(rows) => {
                        let row = &rows[i];
                        for &v in &cand_nodes {
                            // INF guard: a bounded Dijkstra never settles
                            // unreachable nodes, so neither may the row scan.
                            let d = row.get(v);
                            if d != INF && d <= bound {
                                *gain.entry(v).or_insert(0) += saving_of(d);
                            }
                        }
                    }
                    None => {
                        for (v, d) in dijkstra_bounded(g, s, bound) {
                            if cand_at.contains_key(&v) {
                                *gain.entry(v).or_insert(0) += saving_of(d);
                            }
                        }
                    }
                }
            }

            let best = gain
                .iter()
                .filter_map(|(&v, &sv)| {
                    cand_at[&v]
                        .iter()
                        .find(|&&j| !taken.contains(&j))
                        .map(|&j| (sv, v, j))
                })
                .max_by_key(|&(sv, v, _)| (sv, std::cmp::Reverse(v)));
            let Some((_, node, j)) = best else {
                break; // nobody saves anything (or candidates exhausted)
            };
            taken.insert(j);
            selection.push(j);
            // Update per-customer nearest-selected distances with one
            // single-source sweep from the new site (cached when an oracle
            // is active).
            let computed;
            let d_new: &[Dist] = match &oracle {
                Some(o) => {
                    o.row(g, node).expand_into(&mut full);
                    &full
                }
                None => {
                    computed = mcfs_graph::dijkstra_all(g, node);
                    &computed
                }
            };
            for (i, &s) in inst.customers().iter().enumerate() {
                let d = d_new[s as usize];
                if d < current[i] {
                    current[i] = d;
                }
            }
        }

        if selection.is_empty() {
            return Err(SolveError::AssignmentFailed { customer: 0 });
        }
        // Capacity restoration, exactly as the other baselines do it.
        if selection.len() < k {
            mcfs::greedy_add::select_greedy(inst, &mut selection);
        }
        if !capacity_suffices(inst, &selection, feas.components) {
            selection = cover_components(inst, selection, feas.components)?;
        }
        let (assignment, objective) = match oracle.as_deref() {
            Some(o) => optimal_assignment_with(inst, &selection, o)?,
            None => optimal_assignment(inst, &selection)?,
        };
        Ok(Solution {
            facilities: selection,
            assignment,
            objective,
        })
    }

    fn name(&self) -> &'static str {
        "Greedy"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcfs::Facility;
    use mcfs_graph::{Graph, GraphBuilder};

    fn path(n: usize, w: u64) -> Graph {
        let mut b = GraphBuilder::new(n);
        for i in 0..n - 1 {
            b.add_edge(i as NodeId, i as NodeId + 1, w);
        }
        b.build()
    }

    #[test]
    fn first_pick_is_the_one_median() {
        let g = path(9, 10);
        let inst = McfsInstance::builder(&g)
            .customers([0, 4, 8])
            .facilities((0..9).map(|v| Facility {
                node: v,
                capacity: 3,
            }))
            .k(1)
            .build()
            .unwrap();
        let sol = GreedyAddition::new().solve(&inst).unwrap();
        inst.verify(&sol).unwrap();
        assert_eq!(inst.facilities()[sol.facilities[0] as usize].node, 4);
    }

    #[test]
    fn covers_both_flanks_with_two() {
        let g = path(12, 10);
        let inst = McfsInstance::builder(&g)
            .customers([0, 1, 10, 11])
            .facilities((0..12).map(|v| Facility {
                node: v,
                capacity: 2,
            }))
            .k(2)
            .build()
            .unwrap();
        let sol = GreedyAddition::new().solve(&inst).unwrap();
        inst.verify(&sol).unwrap();
        let mut nodes: Vec<NodeId> = sol
            .facilities
            .iter()
            .map(|&j| inst.facilities()[j as usize].node)
            .collect();
        nodes.sort_unstable();
        assert!(
            nodes[0] <= 1 && nodes[1] >= 10,
            "one site per flank: {nodes:?}"
        );
        // That is also the capacitated optimum here.
        assert_eq!(sol.objective, 20);
    }

    #[test]
    fn capacity_repair_applies() {
        // Greedy (uncapacitated) would put one site mid-cluster, but the
        // tiny capacities force a broader selection.
        let g = path(8, 5);
        let inst = McfsInstance::builder(&g)
            .customers([3, 4, 3, 4])
            .facility(3, 1)
            .facility(4, 1)
            .facility(0, 1)
            .facility(7, 1)
            .k(4)
            .build()
            .unwrap();
        let sol = GreedyAddition::new().solve(&inst).unwrap();
        inst.verify(&sol).unwrap();
        assert_eq!(sol.facilities.len(), 4);
    }

    #[test]
    fn disconnected_networks_get_repaired() {
        let mut b = GraphBuilder::new(6);
        b.add_edge(0, 1, 2);
        b.add_edge(1, 2, 2);
        b.add_edge(3, 4, 2);
        b.add_edge(4, 5, 2);
        let g = b.build();
        let inst = McfsInstance::builder(&g)
            .customers([0, 2, 3, 5])
            .facility(1, 4)
            .facility(4, 4)
            .k(2)
            .build()
            .unwrap();
        let sol = GreedyAddition::new().solve(&inst).unwrap();
        inst.verify(&sol).unwrap();
        let nodes: Vec<NodeId> = sol
            .facilities
            .iter()
            .map(|&j| inst.facilities()[j as usize].node)
            .collect();
        assert!(nodes.contains(&1) && nodes.contains(&4));
    }

    #[test]
    fn thread_count_never_changes_the_solution() {
        let g = path(12, 10);
        let inst = McfsInstance::builder(&g)
            .customers([0, 1, 10, 11])
            .facilities((0..12).map(|v| Facility {
                node: v,
                capacity: 2,
            }))
            .k(3)
            .build()
            .unwrap();
        let legacy = GreedyAddition::new().threads(1).solve(&inst).unwrap();
        for n in [2, 4] {
            let par = GreedyAddition::new().threads(n).solve(&inst).unwrap();
            assert_eq!(legacy, par, "threads {n}");
        }
    }

    #[test]
    fn never_beats_the_enumerated_optimum() {
        use mcfs_exact_shim::enumerate_optimal;
        let g = path(8, 3);
        let inst = McfsInstance::builder(&g)
            .customers([0, 2, 5, 7])
            .facility(1, 2)
            .facility(3, 2)
            .facility(6, 2)
            .k(2)
            .build()
            .unwrap();
        let greedy = GreedyAddition::new().solve(&inst).unwrap();
        let opt = enumerate_optimal(&inst).unwrap();
        assert!(greedy.objective >= opt.objective);
    }

    // Local shim so the test can reach the exact oracle without a circular
    // dev-dependency (exact depends on core, not on baselines, so this is
    // clean as a dev-dependency).
    use mcfs_exact as mcfs_exact_shim;
}
