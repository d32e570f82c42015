//! Iterative BRNN baseline (paper Sections III-A and VII-A).
//!
//! Optimal Location Queries place a *single* facility maximizing attracted
//! customers (MaxSum) via Bichromatic Reverse Nearest Neighbor counting.
//! Applied iteratively as an MCFS heuristic: start with the 1-median of the
//! customers, then repeatedly add the candidate that would become the new
//! nearest facility for the most customers ("the region with the highest
//! amount of overlapping NLRs"), recomputing customer Nearest Location
//! Regions each step. The paper's Figure 2 shows why this mis-optimizes the
//! distance objective, and its experiments confirm both poor quality and
//! poor runtime — behaviour this implementation reproduces faithfully,
//! including the expensive per-step NLR recomputation.
//!
//! The final assignment runs the optimal capacitated matching ("it then runs
//! SIA to produce a final assignment"), after a capacity repair pass.
//!
//! With a [`DistanceOracle`] (`threads > 1` or an explicit oracle) the
//! per-customer searches become cached row queries: the 1-median scan
//! prefetches every customer row in one batched parallel query and expands
//! each into one reused buffer, NLR attraction counting reads those cached
//! rows at the candidate nodes instead of re-running bounded Dijkstras each
//! step, and the per-step Voronoi update reuses the cached selected-site
//! rows. Results are identical on every path.

use std::sync::Arc;
use std::time::Instant;

use mcfs::assign::{optimal_assignment, optimal_assignment_with};
use mcfs::components::{capacity_suffices, cover_components};
use mcfs::greedy_add::select_greedy;
use mcfs::parallel::resolve_oracle;
use mcfs::stats::SolveStats;
use mcfs::{McfsInstance, Solution, SolveError, Solver};
use mcfs_graph::{
    dijkstra_all, dijkstra_bounded, multi_source_dijkstra, Dist, DistanceOracle, NodeId, Row, INF,
};
use rustc_hash::{FxHashMap, FxHashSet};

/// The iterative BRNN / MaxSum baseline.
#[derive(Clone, Debug, Default)]
pub struct BrnnBaseline {
    /// Distance-substrate worker threads (`0` = auto, `1` = the legacy
    /// search-per-query path); see [`mcfs::parallel`].
    pub threads: usize,
    /// Explicitly shared distance oracle.
    pub oracle: Option<Arc<DistanceOracle>>,
}

impl BrnnBaseline {
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

    /// Solve and return the solution together with the substrate
    /// instrumentation (per-phase wall times, oracle cache hits/misses).
    pub fn run(&self, inst: &McfsInstance) -> Result<(Solution, SolveStats), SolveError> {
        let feas = inst.check_feasibility().map_err(SolveError::Infeasible)?;
        let g = inst.graph();
        let k = inst.k();

        let oracle = resolve_oracle(self.threads, self.oracle.as_ref());
        let mut stats = SolveStats::for_threads(oracle.as_ref().map_or(1, |o| o.threads()));
        // Per-run attribution: count only this call stack's queries, even if
        // the oracle is shared with other concurrently running solvers.
        let oracle_run = oracle.as_ref().map(|o| o.begin_run());

        // Candidate lookup: node -> candidate indices (largest capacity
        // first so node-level picks take the most capable twin).
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

        // --- First facility: the 1-median over candidate nodes (MaxSum with
        // no existing facility degenerates to minimizing total distance).
        // With an oracle this is one batched parallel query that also primes
        // the row cache for the NLR scans below. ---
        let t_median = Instant::now();
        let n = g.num_nodes();
        let mut sums = vec![0u64; n];
        let mut reach = vec![0u32; n];
        let customer_rows: Option<Vec<Arc<Row>>> = oracle
            .as_ref()
            .map(|o| o.distances_for_sources(g, inst.customers()));
        let mut full = Vec::new();
        for (i, &s) in inst.customers().iter().enumerate() {
            let owned;
            let d: &[Dist] = match &customer_rows {
                Some(rows) => {
                    rows[i].expand_into(&mut full);
                    &full
                }
                None => {
                    owned = dijkstra_all(g, s);
                    &owned
                }
            };
            for v in 0..n {
                if d[v] != INF {
                    sums[v] += d[v];
                    reach[v] += 1;
                }
            }
        }
        let mut taken: FxHashSet<u32> = FxHashSet::default();
        let first_node = cand_at
            .keys()
            .copied()
            .max_by_key(|&v| {
                (
                    reach[v as usize],
                    std::cmp::Reverse(sums[v as usize]),
                    std::cmp::Reverse(v),
                )
            })
            .expect("instances have at least one candidate");
        let first = cand_at[&first_node][0];
        taken.insert(first);
        let mut selection = vec![first];
        stats.add_phase("median", t_median.elapsed());

        // --- Iterative MaxSum additions with fresh NLRs per step. ---
        let t_nlr = Instant::now();
        while selection.len() < k {
            let sel_nodes: Vec<NodeId> = selection
                .iter()
                .map(|&j| inst.facilities()[j as usize].node)
                .collect();
            let (to_sel, _) = match &oracle {
                // Cached: each iteration adds one new selected-site row; the
                // earlier sites' rows are reused from the cache.
                Some(o) => o.multi_source(g, &sel_nodes),
                None => multi_source_dijkstra(g, &sel_nodes),
            };

            // Attraction count per candidate node: customers that would be
            // strictly closer to it than to their current nearest facility.
            // Oracle path: scan the customer's cached row over candidate
            // nodes — the same set a bounded Dijkstra from the customer
            // reports, since `{v : d(s, v) <= bound}` does not depend on how
            // it is enumerated.
            let mut attraction: FxHashMap<NodeId, u32> = FxHashMap::default();
            for (i, &s) in inst.customers().iter().enumerate() {
                let radius = to_sel[s as usize];
                if radius == 0 {
                    continue; // already colocated with a facility
                }
                let bound = if radius == INF { INF } else { radius - 1 };
                match &customer_rows {
                    Some(rows) => {
                        let row = &rows[i];
                        for &v in &cand_nodes {
                            // The INF guard matters when bound == INF: a
                            // bounded Dijkstra never settles unreachable
                            // nodes, so neither may the row scan count them.
                            let d = row.get(v);
                            if d != INF && d <= bound {
                                *attraction.entry(v).or_insert(0) += 1;
                            }
                        }
                    }
                    None => {
                        for (v, _) in dijkstra_bounded(g, s, bound) {
                            if cand_at.contains_key(&v) {
                                *attraction.entry(v).or_insert(0) += 1;
                            }
                        }
                    }
                }
            }

            // Best unchosen candidate by attraction (ties: smaller node id,
            // matching the paper's "breaking ties arbitrarily" but kept
            // deterministic).
            let best = attraction
                .iter()
                .filter_map(|(&v, &a)| {
                    cand_at[&v]
                        .iter()
                        .find(|&&j| !taken.contains(&j))
                        .map(|&j| (a, v, j))
                })
                .max_by_key(|&(a, v, _)| (a, std::cmp::Reverse(v)));
            match best {
                Some((_, _, j)) => {
                    taken.insert(j);
                    selection.push(j);
                }
                None => break, // nobody attracts anyone anymore
            }
        }
        stats.add_phase("nlr", t_nlr.elapsed());

        // Spend any leftover budget deterministically, repair capacity, and
        // match optimally.
        let t_prov = Instant::now();
        if selection.len() < k {
            select_greedy(inst, &mut selection);
        }
        if !capacity_suffices(inst, &selection, feas.components) {
            selection = cover_components(inst, selection, feas.components)?;
        }
        stats.add_phase("provisions", t_prov.elapsed());

        let t_assign = Instant::now();
        let (assignment, objective) = match oracle.as_deref() {
            Some(o) => optimal_assignment_with(inst, &selection, o)?,
            None => optimal_assignment(inst, &selection)?,
        };
        stats.add_phase("assignment", t_assign.elapsed());

        if let Some(run) = &oracle_run {
            stats.record_oracle_run(&run.stats());
        }
        Ok((
            Solution {
                facilities: selection,
                assignment,
                objective,
            },
            stats,
        ))
    }
}

impl Solver for BrnnBaseline {
    fn solve(&self, inst: &McfsInstance) -> Result<Solution, SolveError> {
        self.run(inst).map(|(sol, _)| sol)
    }

    fn name(&self) -> &'static str {
        "BRNN"
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
        let g = path(7, 10);
        let inst = McfsInstance::builder(&g)
            .customers([0, 3, 6])
            .facilities((0..7).map(|v| Facility {
                node: v,
                capacity: 3,
            }))
            .k(1)
            .build()
            .unwrap();
        let sol = BrnnBaseline::new().solve(&inst).unwrap();
        inst.verify(&sol).unwrap();
        assert_eq!(inst.facilities()[sol.facilities[0] as usize].node, 3);
    }

    #[test]
    fn second_pick_exhibits_the_maxsum_pathology() {
        let g = path(10, 10);
        // Customers bunched left and right. The MaxSum score counts
        // attracted customers, not saved distance, so BRNN piles facilities
        // around the center instead of covering the flanks — the paper's
        // Figure 2 in miniature. The distance optimum (one facility per
        // flank) is strictly better.
        let inst = McfsInstance::builder(&g)
            .customers([0, 1, 2, 7, 8, 9])
            .facilities((0..10).map(|v| Facility {
                node: v,
                capacity: 3,
            }))
            .k(2)
            .build()
            .unwrap();
        let sol = BrnnBaseline::new().solve(&inst).unwrap();
        inst.verify(&sol).unwrap();
        let mut nodes: Vec<NodeId> = sol
            .facilities
            .iter()
            .map(|&j| inst.facilities()[j as usize].node)
            .collect();
        nodes.sort_unstable();
        assert!(
            (nodes[1] as i64 - nodes[0] as i64).abs() <= 2,
            "MaxSum picks stay central/adjacent: {nodes:?}"
        );
        let wma = mcfs::Wma::new().solve(&inst).unwrap();
        assert!(
            sol.objective > wma.objective,
            "the pathology costs real distance"
        );
    }

    #[test]
    fn produces_feasible_solution_under_tight_capacities() {
        let g = path(8, 5);
        let inst = McfsInstance::builder(&g)
            .customers([0, 2, 4, 6])
            .facility(1, 2)
            .facility(3, 1)
            .facility(5, 2)
            .facility(7, 2)
            .k(3)
            .build()
            .unwrap();
        let sol = BrnnBaseline::new().solve(&inst).unwrap();
        inst.verify(&sol).unwrap();
        assert!(sol.facilities.len() <= 3);
    }

    #[test]
    fn handles_disconnected_networks() {
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
        let sol = BrnnBaseline::new().solve(&inst).unwrap();
        inst.verify(&sol).unwrap();
        let nodes: Vec<NodeId> = sol
            .facilities
            .iter()
            .map(|&j| inst.facilities()[j as usize].node)
            .collect();
        assert!(nodes.contains(&1) && nodes.contains(&4));
    }

    #[test]
    fn worse_than_wma_on_the_figure_2_pattern() {
        // The paper's Figure 2 intuition: BRNN's MaxSum greed picks central
        // nodes; the distance optimum wants one facility per flank. On this
        // instance BRNN must not beat WMA.
        use mcfs::Wma;
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
        let brnn = BrnnBaseline::new().solve(&inst).unwrap();
        let wma = Wma::new().solve(&inst).unwrap();
        inst.verify(&brnn).unwrap();
        assert!(brnn.objective >= wma.objective);
    }

    #[test]
    fn thread_count_never_changes_the_solution_and_stats_are_recorded() {
        let g = path(10, 10);
        let inst = McfsInstance::builder(&g)
            .customers([0, 1, 2, 7, 8, 9])
            .facilities((0..10).map(|v| Facility {
                node: v,
                capacity: 3,
            }))
            .k(3)
            .build()
            .unwrap();
        let (legacy, legacy_stats) = BrnnBaseline::new().threads(1).run(&inst).unwrap();
        assert_eq!(legacy_stats.threads, 1);
        assert_eq!(legacy_stats.cache_misses, 0);
        for n in [2, 4] {
            let (par, par_stats) = BrnnBaseline::new().threads(n).run(&inst).unwrap();
            assert_eq!(legacy, par, "threads {n}");
            assert_eq!(par_stats.threads, n);
            // 6 customer rows + selected-site rows; everything after the
            // prefetch hits the cache.
            assert!(par_stats.cache_misses >= 6);
            assert!(par_stats.cache_hits > 0);
            for phase in ["median", "nlr", "provisions", "assignment"] {
                assert!(par_stats.phase(phase).is_some(), "missing {phase}");
            }
        }
    }
}
