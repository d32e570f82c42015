//! WMA-Naïve (paper Section VII-A): the ablation of WMA that replaces exact
//! bipartite matching with a greedy pass.
//!
//! "Instead of using an exact bipartite matching, WMA Naïve uses a greedy
//! procedure to satisfy customer demands: in each iteration, it processes
//! customers in a randomly generated order and assigns each customer to its
//! closest `d_i` candidate facilities that have not yet reached their
//! capacities." The set-cover routine, demand updates and special provisions
//! are shared with WMA; the final assignment is likewise greedy. The paper
//! finds its objective roughly 2× worse than WMA's at comparable runtime —
//! the gap quantifies the value of rewiring.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use mcfs_flow::EdgeStream;
use mcfs_graph::DistanceOracle;

use rustc_hash::FxHashMap;

use crate::components::{capacity_suffices, cover_components};
use crate::cover::check_cover;
use crate::greedy_add::select_greedy;
use crate::instance::{McfsInstance, Solution};
use crate::parallel::run_oracle;
use crate::streams::CustomerStream;
use crate::{SolveError, Solver};

/// The greedy WMA ablation. Deterministic given `seed` (regardless of
/// `threads`).
#[derive(Clone, Debug)]
pub struct WmaNaive {
    /// Seed for the per-iteration customer shuffles.
    pub seed: u64,
    /// Row-fill worker threads (`0` = auto); which rows are filled follows
    /// from the instance, not from this count, see [`crate::parallel`].
    pub threads: usize,
    /// Explicitly shared distance oracle.
    pub oracle: Option<Arc<DistanceOracle>>,
}

impl Default for WmaNaive {
    fn default() -> Self {
        Self {
            seed: 0x5EED,
            threads: 0,
            oracle: None,
        }
    }
}

/// Lazily grown, cached list of a customer's facilities by distance.
struct FacilityCache<'g> {
    stream: CustomerStream<'g>,
    sorted: Vec<(u32, u64)>,
    exhausted: bool,
}

impl FacilityCache<'_> {
    /// Ensure at least `n` entries are cached (or the stream is exhausted).
    fn fill_to(&mut self, n: usize) {
        while self.sorted.len() < n && !self.exhausted {
            match self.stream.next_edge() {
                Some(e) => self.sorted.push(e),
                None => self.exhausted = true,
            }
        }
    }
}

impl WmaNaive {
    /// Naive solver with the default seed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Naive solver with an explicit shuffle seed.
    pub fn with_seed(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// Set the row-fill worker count (`0` = auto, `1` = sequential). At
    /// every count the selection streams read facility rows when they
    /// apply ([`crate::streams::facility_rows_apply`]) and run lazy
    /// searches otherwise.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }

    /// Share an existing distance oracle (and its row cache) with this
    /// solver.
    pub fn with_oracle(mut self, oracle: Arc<DistanceOracle>) -> Self {
        self.oracle = Some(oracle);
        self
    }
}

impl Solver for WmaNaive {
    fn solve(&self, inst: &McfsInstance) -> Result<Solution, SolveError> {
        let feas = inst.check_feasibility().map_err(SolveError::Infeasible)?;
        let m = inst.num_customers();
        let l = inst.num_facilities();
        let k = inst.k();
        let caps = inst.capacities();
        let mut rng = StdRng::seed_from_u64(self.seed);

        let oracle = run_oracle(self.threads, self.oracle.as_ref());
        let fac_map = std::rc::Rc::new(inst.facilities_by_node());
        let mut caches: Vec<FacilityCache> =
            CustomerStream::for_customers(inst.graph(), inst.customers(), m, fac_map, &oracle)
                .into_iter()
                .map(|stream| FacilityCache {
                    stream,
                    sorted: Vec::new(),
                    exhausted: false,
                })
                .collect();

        let mut demand = vec![1u32; m];
        let mut saturated = vec![false; m];
        let mut last_selected = vec![0u64; l];
        let mut order: Vec<usize> = (0..m).collect();

        // The natural `m · ℓ` bound on demand raises, as in WMA.
        let iter_cap = m.saturating_mul(l).max(16);
        let mut selection: Vec<u32> = Vec::new();
        let mut all_covered = false;
        let mut final_sigma: Vec<Vec<u32>> = vec![Vec::new(); l];

        for iteration in 1..=iter_cap as u64 {
            // Greedy demand satisfaction in a fresh random order; loads are
            // rebuilt from scratch every iteration (no rewiring).
            let t_greedy = std::time::Instant::now();
            order.shuffle(&mut rng);
            let mut loads = vec![0u32; l];
            let mut sigma: Vec<Vec<u32>> = vec![Vec::new(); l];
            for &i in &order {
                let want = demand[i] as usize;
                let mut got = 0usize;
                let mut idx = 0usize;
                while got < want {
                    if idx >= caches[i].sorted.len() {
                        caches[i].fill_to(idx + 1);
                        if idx >= caches[i].sorted.len() {
                            break; // reachable candidates exhausted
                        }
                    }
                    let (j, _) = caches[i].sorted[idx];
                    idx += 1;
                    if loads[j as usize] < caps[j as usize] {
                        loads[j as usize] += 1;
                        sigma[j as usize].push(i as u32);
                        got += 1;
                    }
                }
                // Demand can never exceed the customer's reachable candidate
                // count — saturate permanently once that limit is proven.
                if caches[i].exhausted && demand[i] as usize >= caches[i].sorted.len() {
                    saturated[i] = true;
                }
            }

            let matching_time = t_greedy.elapsed();
            let t_cover = std::time::Instant::now();
            let outcome = check_cover(|j| sigma[j].iter().copied(), m, k, &last_selected);
            let cover_time = t_cover.elapsed();
            for &f in &outcome.selected {
                last_selected[f as usize] = iteration;
            }

            let mut grew = false;
            for i in 0..m {
                if !outcome.covered[i] && (demand[i] as usize) < l && !saturated[i] {
                    demand[i] += 1;
                    grew = true;
                }
            }

            if mcfs_obs::bus_enabled() {
                mcfs_obs::publish(mcfs_obs::Event::SolverIteration {
                    solver: "wma-naive",
                    iteration,
                    covered: outcome.covered.iter().filter(|&&b| b).count() as u64,
                    total: m as u64,
                    matching_us: matching_time.as_micros() as u64,
                    cover_us: cover_time.as_micros() as u64,
                    demand: demand.iter().map(|&d| d as u64).sum(),
                    edges: sigma.iter().map(|s| s.len() as u64).sum(),
                });
            }

            selection = outcome.selected;
            all_covered = outcome.all_covered;
            final_sigma = sigma;
            if !grew {
                break;
            }
        }

        if selection.len() < k {
            select_greedy(inst, &mut selection);
        }
        if !all_covered || !capacity_suffices(inst, &selection, feas.components) {
            selection = cover_components(inst, selection, feas.components)?;
        }

        // Final assignment: unlike WMA's optimal re-matching, the naive
        // variant keeps the greedy exploration matches — each covered
        // customer stays with its nearest σ-matched *selected* facility
        // (this is what makes its objective lag WMA's, per Figure 6).
        // Customers whose σ matches all point at unselected facilities
        // (e.g. after a CoverComponents swap) fall back to the nearest
        // selected facility with spare capacity, in random order.
        let sel_pos: FxHashMap<u32, u32> = selection
            .iter()
            .enumerate()
            .map(|(pos, &j)| (j, pos as u32))
            .collect();
        let mut matched_of: Vec<Vec<u32>> = vec![Vec::new(); m];
        for (j, custs) in final_sigma.iter().enumerate() {
            if sel_pos.contains_key(&(j as u32)) {
                for &i in custs {
                    matched_of[i as usize].push(j as u32);
                }
            }
        }
        let sel_caps: Vec<u32> = selection
            .iter()
            .map(|&j| inst.facilities()[j as usize].capacity)
            .collect();
        let mut loads = vec![0u32; selection.len()];
        let mut assignment = vec![u32::MAX; m];
        let mut objective = 0u64;
        let dist_to = |caches: &[FacilityCache], i: usize, j: u32| -> u64 {
            caches[i]
                .sorted
                .iter()
                .find(|&&(f, _)| f == j)
                .map(|&(_, d)| d)
                .expect("σ matches come from the cache")
        };
        let mut leftovers = Vec::new();
        for i in 0..m {
            let best = matched_of[i]
                .iter()
                .copied()
                .min_by_key(|&j| dist_to(&caches, i, j));
            match best {
                // σ respected capacities, and we keep at most one σ edge per
                // customer, so these placements can never overflow.
                Some(j) => {
                    let pos = sel_pos[&j] as usize;
                    loads[pos] += 1;
                    assignment[i] = pos as u32;
                    objective += dist_to(&caches, i, j);
                }
                None => leftovers.push(i),
            }
        }
        // Stragglers: nearest selected facility with spare capacity.
        leftovers.shuffle(&mut rng);
        for i in leftovers {
            let mut idx = 0usize;
            loop {
                if idx >= caches[i].sorted.len() {
                    caches[i].fill_to(idx + 1);
                    if idx >= caches[i].sorted.len() {
                        return Err(SolveError::AssignmentFailed { customer: i });
                    }
                }
                let (j, d) = caches[i].sorted[idx];
                idx += 1;
                if let Some(&pos) = sel_pos.get(&j) {
                    if loads[pos as usize] < sel_caps[pos as usize] {
                        loads[pos as usize] += 1;
                        assignment[i] = pos;
                        objective += d;
                        break;
                    }
                }
            }
        }
        Ok(Solution {
            facilities: selection,
            assignment,
            objective,
        })
    }

    fn name(&self) -> &'static str {
        "WMA-Naive"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn produces_feasible_solutions() {
        let g = path(10, 5);
        let inst = McfsInstance::builder(&g)
            .customers([0, 3, 6, 9])
            .facility(1, 2)
            .facility(4, 2)
            .facility(8, 2)
            .k(2)
            .build()
            .unwrap();
        let sol = WmaNaive::new().solve(&inst).unwrap();
        inst.verify(&sol).unwrap();
    }

    #[test]
    fn never_beats_wma_here() {
        let g = path(12, 3);
        let inst = McfsInstance::builder(&g)
            .customers([0, 2, 5, 7, 11])
            .facility(1, 2)
            .facility(3, 2)
            .facility(6, 2)
            .facility(10, 2)
            .k(3)
            .build()
            .unwrap();
        let wma = Wma::new().solve(&inst).unwrap();
        inst.verify(&wma).unwrap();
        for seed in [1u64, 2, 3, 42] {
            let naive = WmaNaive::with_seed(seed).solve(&inst).unwrap();
            inst.verify(&naive).unwrap();
            assert!(
                naive.objective >= wma.objective,
                "seed {seed}: naive {} < wma {}",
                naive.objective,
                wma.objective
            );
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let g = path(8, 2);
        let inst = McfsInstance::builder(&g)
            .customers([0, 4, 7])
            .facility(2, 2)
            .facility(6, 2)
            .k(2)
            .build()
            .unwrap();
        let a = WmaNaive::with_seed(7).solve(&inst).unwrap();
        let b = WmaNaive::with_seed(7).solve(&inst).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn thread_count_never_changes_the_solution() {
        let g = path(10, 5);
        let inst = McfsInstance::builder(&g)
            .customers([0, 3, 6, 9])
            .facility(1, 2)
            .facility(4, 2)
            .facility(8, 2)
            .k(2)
            .build()
            .unwrap();
        let legacy = WmaNaive::with_seed(9).threads(1).solve(&inst).unwrap();
        for n in [2, 4] {
            let par = WmaNaive::with_seed(9).threads(n).solve(&inst).unwrap();
            assert_eq!(legacy, par, "threads {n}");
        }
    }

    #[test]
    fn infeasible_rejected() {
        let g = path(3, 1);
        let inst = McfsInstance::builder(&g)
            .customers([0, 1, 2])
            .facility(1, 1)
            .facility(2, 1)
            .k(2)
            .build()
            .unwrap();
        assert!(matches!(
            WmaNaive::new().solve(&inst),
            Err(SolveError::Infeasible(_))
        ));
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
        let sol = WmaNaive::new().solve(&inst).unwrap();
        inst.verify(&sol).unwrap();
        assert_eq!(sol.facilities.len(), 2);
    }
}
