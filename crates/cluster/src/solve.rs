//! Cluster solving: budget split, concurrent shard solves, reconciliation
//! and the certified optimality-gap bound.
//!
//! The budget split is a bounded Lagrangian price search. Each shard `s`
//! first receives its feasibility minimum `m_s`; the surplus `k − Σ m_s`
//! is water-filled proportionally to shard customer counts; then marginal
//! budget migrates to the shard that values it most: every shard prices
//! one unit of budget by warm `±1` re-solves of its incremental
//! [`mcfs::ReSolver`] (`cost(k_s) − cost(k_s ± 1)`), and a unit moves from
//! the cheapest donor to the most valuable receiver while the receiver's
//! gain exceeds the donor's loss — exactly a price-search step at the
//! crossing price, bounded to one move per shard so the pre-computed
//! probes stay sufficient.
//!
//! Reconciliation is a single global re-match: every customer is assigned
//! optimally onto the *merged* selection over the full graph, with the
//! same SIA matcher a cold solve uses for its final assignment. Boundary
//! customers whose nearest open facility sits across a cut edge are
//! rewired here; interior customers keep their shard assignment (the
//! matcher re-derives it identically).
//!
//! The optimality-gap certificate: the capacity-respecting optimal
//! assignment of all customers onto **all** `ℓ` candidates costs `LB`.
//! Any solution selecting at most `k ≤ ℓ` facilities is also feasible for
//! the all-candidates relaxation, so `LB ≤ OPT`. The reported
//! `gap = (cost − LB)/LB` therefore bounds the loss against the true
//! optimum — and a fortiori against a cold single-instance WMA solve.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use mcfs::{
    optimal_assignment_with, run_oracle, Edit, McfsInstance, ReSolver, Solution, SolveError,
    SolveStats, Wma,
};
use mcfs_graph::{DistanceOracle, OracleRunGuard};

use crate::partition::{partition, Partition, PartitionStrategy};

/// One shard solution at one budget, in global indices.
#[derive(Clone, Debug)]
struct ShardSolution {
    /// Selected facilities as **global** candidate indices.
    selection: Vec<u32>,
    /// Local customer `i` → position in [`selection`](Self::selection).
    assignment: Vec<u32>,
    /// Shard-local objective (sum of shard-internal distances).
    objective: u64,
}

/// All solutions computed for one shard: the base budget plus the warm
/// `±1` probes the price search consumed.
#[derive(Clone, Debug)]
struct ShardRun {
    /// Solutions keyed by budget.
    by_k: BTreeMap<usize, ShardSolution>,
    /// Matcher augmentations across all of this shard's solves.
    augmentations: u64,
}

impl ShardRun {
    /// The solution at budget `k` (must have been probed).
    fn at(&self, k: usize) -> &ShardSolution {
        self.by_k
            .get(&k)
            .expect("budget outside the probed range; refinement is bounded to ±1")
    }
}

/// Per-shard phase attribution: bump the global-registry counter
/// `mcfs_cluster_shard_<phase>_ns{shard=<id>}` by `ns` — fill (instance
/// construction), solve, and the shard's share of reconciliation.
fn shard_attr_ns(phase: &str, shard: usize, ns: u64) {
    let name = format!("mcfs_cluster_shard_{phase}_ns");
    let shard = shard.to_string();
    mcfs_obs::Registry::global()
        .counter_with(
            &name,
            "per-shard cluster phase wall time in nanoseconds",
            &[("shard", &shard)],
        )
        .add(ns);
}

/// Solve one shard in-process at `base_k`, plus warm `±1` probes when
/// `probe` is set. Selections and assignments are translated to global
/// indices before returning. `shard_id` keys the per-shard attribution
/// counters ([`shard_attr_ns`]); pass the shard's partition index.
fn solve_shard_local(
    shard: &crate::Shard,
    shard_id: usize,
    base_k: usize,
    probe: bool,
    wma: &Wma,
) -> Result<ShardRun, SolveError> {
    let t_fill = Instant::now();
    let inst = shard
        .instance(base_k)
        .expect("split_budget grants budgets within the shard's feasible range");
    let mut rs = ReSolver::new(&inst, wma.clone());
    shard_attr_ns("fill", shard_id, t_fill.elapsed().as_nanos() as u64);
    let t_solve = Instant::now();
    let mut run = ShardRun {
        by_k: BTreeMap::new(),
        augmentations: 0,
    };
    let record = |run: &mut ShardRun, k: usize, rs: &mut ReSolver| -> Result<(), SolveError> {
        let solved = rs.solve()?;
        run.augmentations += solved.solve_stats.augmentations;
        run.by_k.insert(
            k,
            ShardSolution {
                selection: solved
                    .solution
                    .facilities
                    .iter()
                    .map(|&j| shard.facilities[j as usize])
                    .collect(),
                assignment: solved.solution.assignment.clone(),
                objective: solved.solution.objective,
            },
        );
        Ok(())
    };
    record(&mut run, base_k, &mut rs)?;
    if probe {
        let lo = shard.min_facilities.max(1);
        let hi = shard.num_facilities();
        for k in [base_k.wrapping_sub(1), base_k + 1] {
            if k < lo || k > hi || k == base_k {
                continue;
            }
            rs.apply(&[Edit::SetBudget { k }])
                .expect("probe budgets stay within 1..=l");
            record(&mut run, k, &mut rs)?;
        }
    }
    shard_attr_ns("solve", shard_id, t_solve.elapsed().as_nanos() as u64);
    Ok(run)
}

/// Split budget `k` across the shards: feasibility minima first, then a
/// proportional water-fill of the surplus by customer count, capped at
/// each shard's candidate count. Deterministic; ties break to the lower
/// shard index. Shards without customers receive zero budget.
pub fn split_budget(part: &Partition, k: usize) -> Vec<usize> {
    let n = part.shards.len();
    let mut budgets: Vec<usize> = part.shards.iter().map(|s| s.min_facilities).collect();
    let caps: Vec<usize> = part
        .shards
        .iter()
        .map(|s| {
            if s.customers.is_empty() {
                0
            } else {
                s.num_facilities()
            }
        })
        .collect();
    let spent: usize = budgets.iter().sum();
    let mut left = k.saturating_sub(spent);

    // Proportional floor.
    let weights: Vec<u64> = part
        .shards
        .iter()
        .map(|s| s.customers.len() as u64)
        .collect();
    let total_w: u64 = weights.iter().sum();
    if total_w > 0 {
        let pool = left as u64;
        for s in 0..n {
            let floor = (pool * weights[s]).checked_div(total_w).unwrap_or(0);
            let give = (floor as usize).min(caps[s].saturating_sub(budgets[s]));
            budgets[s] += give;
            left -= give;
        }
    }
    // Round-robin the remainder over shards with headroom, heaviest first.
    let mut order: Vec<usize> = (0..n).filter(|&s| weights[s] > 0).collect();
    order.sort_by_key(|&s| (std::cmp::Reverse(weights[s]), s));
    while left > 0 {
        let mut gave = false;
        for &s in &order {
            if left == 0 {
                break;
            }
            if budgets[s] < caps[s] {
                budgets[s] += 1;
                left -= 1;
                gave = true;
            }
        }
        if !gave {
            break; // all shards at their candidate ceiling; spend less than k
        }
    }
    budgets
}

/// One bounded price-search pass: move marginal budget from the donor that
/// loses least to the receiver that gains most, while the gain exceeds the
/// loss. Each shard participates in at most one move, so the `±1` probes
/// in `runs` always cover the final budgets. Returns the number of moves.
fn refine_budgets(runs: &[Option<ShardRun>], budgets: &mut [usize]) -> usize {
    fn gain(runs: &[Option<ShardRun>], budgets: &[usize], s: usize) -> Option<u64> {
        let run = runs[s].as_ref()?;
        let base = run.by_k.get(&budgets[s])?.objective;
        let more = run.by_k.get(&(budgets[s] + 1))?.objective;
        Some(base.saturating_sub(more))
    }
    fn loss(runs: &[Option<ShardRun>], budgets: &[usize], s: usize) -> Option<u64> {
        let run = runs[s].as_ref()?;
        let base = run.by_k.get(&budgets[s])?.objective;
        let less = run.by_k.get(&budgets[s].wrapping_sub(1))?.objective;
        Some(less.saturating_sub(base))
    }
    let mut used = vec![false; budgets.len()];
    let mut moves = 0;
    loop {
        let receiver = (0..budgets.len())
            .filter(|&s| !used[s])
            .filter_map(|s| gain(runs, budgets, s).map(|g| (s, g)))
            .max_by_key(|&(s, g)| (g, std::cmp::Reverse(s)));
        let Some((r, g)) = receiver else { break };
        let donor = (0..budgets.len())
            .filter(|&s| !used[s] && s != r)
            .filter_map(|s| loss(runs, budgets, s).map(|l| (s, l)))
            .min_by_key(|&(s, l)| (l, s));
        let Some((d, l)) = donor else { break };
        if g <= l {
            break;
        }
        budgets[r] += 1;
        budgets[d] -= 1;
        used[r] = true;
        used[d] = true;
        moves += 1;
    }
    moves
}

/// The result of a cluster solve.
#[derive(Clone, Debug)]
pub struct ClusterOutcome {
    /// The merged, globally reconciled solution (verifies against the
    /// original instance).
    pub solution: Solution,
    /// Substrate instrumentation with cluster phases
    /// (`partition`/`shard_solve`/`refine`/`reconcile`/`bound`), the shard
    /// count and the certified gap bound.
    pub stats: SolveStats,
    /// How the graph was split.
    pub strategy: PartitionStrategy,
    /// Shards actually used (1 when the plan fell back to unsharded).
    pub shards: usize,
    /// Shard-local objectives at the final budgets, shard order. Empty for
    /// an unsharded solve.
    pub shard_objectives: Vec<u64>,
    /// Certified lower bound on the optimal objective (the all-candidates
    /// relaxation).
    pub lower_bound: u64,
    /// Boundary customers in the partition.
    pub boundary_customers: usize,
    /// Boundary customers whose assignment changed in reconciliation.
    pub boundary_moved: usize,
    /// Budget units the price search moved between shards.
    pub budget_moves: usize,
}

impl ClusterOutcome {
    /// Certified gap bound in parts per million, if the lower bound is
    /// positive (mirrors `stats.gap_bound_ppm`).
    pub fn gap_bound_ppm(&self) -> Option<u64> {
        self.stats.gap_bound_ppm
    }
}

/// Publish a shard event onto the observability bus under `scope`.
fn publish(scope: u64, event: mcfs_obs::Event) {
    if mcfs_obs::bus_enabled() {
        mcfs_obs::publish_scoped(scope, event);
    }
}

fn shard_phase(
    scope: u64,
    shard: u64,
    shards: u64,
    name: &'static str,
    state: mcfs_obs::PhaseState,
) {
    publish(
        scope,
        mcfs_obs::Event::ShardPhase {
            shard,
            shards,
            name,
            state,
        },
    );
}

/// Merge shard solutions, re-match every customer globally, certify the
/// gap bound, and assemble the [`ClusterOutcome`]. `stats` carries the
/// phases the caller already timed (partition, shard solving, refinement);
/// the reconcile and bound phases are appended here, with their row-cache
/// activity. Reconcile and bound read one `oracle`, so when facility rows
/// apply the bound re-reads the merged selection's rows.
fn finish(
    inst: &McfsInstance,
    part: &Partition,
    runs: &[Option<ShardRun>],
    budgets: &[usize],
    oracle: &DistanceOracle,
    mut stats: SolveStats,
    budget_moves: usize,
) -> Result<ClusterOutcome, SolveError> {
    let scope = mcfs_obs::current_scope();
    let n = part.shards.len() as u64;

    // Merge: shard facility sets are disjoint, so concatenation has no
    // duplicates; sort for a canonical selection order.
    let mut merged: Vec<u32> = Vec::new();
    let mut shard_objectives = Vec::with_capacity(part.shards.len());
    for (s, run) in runs.iter().enumerate() {
        if let Some(run) = run {
            let sol = run.at(budgets[s]);
            merged.extend_from_slice(&sol.selection);
            shard_objectives.push(sol.objective);
        } else {
            shard_objectives.push(0);
        }
    }
    merged.sort_unstable();

    // Global re-match of every customer onto the merged selection — the
    // reconciliation pass. Boundary customers may be rewired across cut
    // edges; interior ones re-derive their shard assignment.
    let t_reconcile = Instant::now();
    let reconcile_span = mcfs_obs::span("cluster.reconcile");
    shard_phase(
        scope,
        n,
        n,
        "cluster.reconcile",
        mcfs_obs::PhaseState::Start,
    );
    let guard = OracleRunGuard::begin();
    let (assignment, objective) = optimal_assignment_with(inst, &merged, oracle)?;

    // Count boundary customers whose facility changed vs. their shard
    // solve.
    let mut shard_fac = vec![u32::MAX; inst.num_customers()];
    let mut owner = vec![usize::MAX; inst.num_customers()];
    for (s, run) in runs.iter().enumerate() {
        if let Some(run) = run {
            let sol = run.at(budgets[s]);
            for (local, &global_customer) in part.shards[s].customers.iter().enumerate() {
                shard_fac[global_customer] = sol.selection[sol.assignment[local] as usize];
                owner[global_customer] = s;
            }
        }
    }
    let moved = part
        .boundary
        .iter()
        .filter(|&&c| merged[assignment[c] as usize] != shard_fac[c])
        .count();
    publish(
        scope,
        mcfs_obs::Event::Reconcile {
            done: part.boundary.len() as u64,
            total: part.boundary.len() as u64,
            moved: moved as u64,
        },
    );
    shard_phase(scope, n, n, "cluster.reconcile", mcfs_obs::PhaseState::End);
    drop(reconcile_span);
    let d_reconcile = t_reconcile.elapsed();
    stats.add_phase("reconcile", d_reconcile);

    // Attribute the (global) reconcile wall to shards by boundary-customer
    // share: a shard with no boundary customers cost the re-match nothing.
    let mut boundary_per_shard = vec![0u64; part.shards.len()];
    for &c in &part.boundary {
        if owner[c] != usize::MAX {
            boundary_per_shard[owner[c]] += 1;
        }
    }
    let total_boundary: u64 = boundary_per_shard.iter().sum();
    let wall = d_reconcile.as_nanos() as u64;
    for (s, &b) in boundary_per_shard.iter().enumerate() {
        match (wall * b).checked_div(total_boundary) {
            Some(share) if b > 0 => shard_attr_ns("reconcile", s, share),
            _ => {}
        }
    }

    // Certified lower bound: optimal assignment onto all candidates.
    let t_bound = Instant::now();
    let bound_span = mcfs_obs::span("cluster.bound");
    let all: Vec<u32> = (0..inst.num_facilities() as u32).collect();
    let (_, lower_bound) = optimal_assignment_with(inst, &all, oracle)?;
    drop(bound_span);
    stats.add_phase("bound", t_bound.elapsed());
    stats.record_oracle_run(&guard.stats());

    stats.shards = part.num_shards();
    stats.gap_bound_ppm = gap_ppm(objective, lower_bound);

    Ok(ClusterOutcome {
        solution: Solution {
            facilities: merged,
            assignment,
            objective,
        },
        stats,
        strategy: part.strategy,
        shards: part.num_shards(),
        shard_objectives,
        lower_bound,
        boundary_customers: part.boundary.len(),
        boundary_moved: moved,
        budget_moves,
    })
}

/// `ceil((cost − lb) · 10^6 / lb)`, or `None` when `lb == 0` (then `cost`
/// is also 0 — every customer sits on a candidate with spare capacity —
/// and the gap is vacuous).
fn gap_ppm(cost: u64, lb: u64) -> Option<u64> {
    if lb == 0 {
        return None;
    }
    let num = u128::from(cost.saturating_sub(lb)) * 1_000_000;
    Some(num.div_ceil(u128::from(lb)) as u64)
}

/// Partition-and-merge solver: the in-process cluster mode.
#[derive(Clone, Debug)]
pub struct ClusterSolver {
    /// Shards to aim for (the partitioner may settle for fewer).
    pub shards: usize,
    /// Solver configuration for the shard solves and the single-shard
    /// fallback. Its shared oracle, if any, is used only for the
    /// full-graph reconciliation — shard sub-graphs always get their own
    /// oracles (their identity salts would panic a full-graph cache).
    pub solver: Wma,
}

impl ClusterSolver {
    /// Cluster solver targeting `shards` shards with a default [`Wma`].
    pub fn new(shards: usize) -> Self {
        Self {
            shards: shards.max(1),
            solver: Wma::new(),
        }
    }

    /// Replace the shard solver configuration.
    pub fn solver(mut self, solver: Wma) -> Self {
        self.solver = solver;
        self
    }

    /// Partition, solve shards concurrently, reconcile, certify.
    ///
    /// The result's `solution` always verifies against `inst`, and its
    /// objective is within the reported `gap_bound_ppm` of the optimum
    /// (hence of any single-solver cost).
    pub fn solve(&self, inst: &McfsInstance) -> Result<ClusterOutcome, SolveError> {
        let _span = mcfs_obs::span("cluster.solve");
        inst.check_feasibility().map_err(SolveError::Infeasible)?;
        let scope = mcfs_obs::current_scope();
        let want = self.shards as u64;

        let t_partition = Instant::now();
        let partition_span = mcfs_obs::span("cluster.partition");
        shard_phase(
            scope,
            want,
            want,
            "cluster.partition",
            mcfs_obs::PhaseState::Start,
        );
        let part = partition(inst, self.shards);
        let n = part.num_shards() as u64;
        shard_phase(scope, n, n, "cluster.partition", mcfs_obs::PhaseState::End);
        drop(partition_span);
        let mut stats = SolveStats::default();
        stats.add_phase("partition", t_partition.elapsed());

        let oracle = run_oracle(self.solver.threads, self.solver.oracle.as_ref());
        if part.shards.is_empty() {
            return self.solve_single(inst, part, stats, oracle);
        }

        // Budget split, then concurrent shard solves on scoped threads.
        // Each thread owns its shard's (`!Send`) re-solver and oracle; the
        // shared oracle is deliberately left out (its cache is keyed to the
        // full graph and would panic on a salted shard sub-graph).
        let budgets = split_budget(&part, inst.k());
        let mut shard_wma = self.solver.clone();
        shard_wma.oracle = None;
        let probe = part.shards.len() > 1;
        let t_solve = Instant::now();
        let results: Vec<Option<Result<ShardRun, SolveError>>> = std::thread::scope(|sc| {
            let handles: Vec<_> = part
                .shards
                .iter()
                .enumerate()
                .map(|(s, shard)| {
                    if shard.customers.is_empty() {
                        return None;
                    }
                    let wma = &shard_wma;
                    let base_k = budgets[s];
                    Some(sc.spawn(move || {
                        // Shard threads start with clean span stacks; this
                        // span is what the profiler attributes their work
                        // to (the solver's own spans nest under it).
                        let _span = mcfs_obs::span("cluster.shard_solve");
                        shard_phase(
                            scope,
                            s as u64,
                            n,
                            "cluster.solve",
                            mcfs_obs::PhaseState::Start,
                        );
                        let out = solve_shard_local(shard, s, base_k, probe, wma);
                        shard_phase(
                            scope,
                            s as u64,
                            n,
                            "cluster.solve",
                            mcfs_obs::PhaseState::End,
                        );
                        out
                    }))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.map(|h| h.join().expect("shard solver thread panicked")))
                .collect()
        });
        let mut runs: Vec<Option<ShardRun>> = Vec::with_capacity(results.len());
        for r in results {
            match r {
                None => runs.push(None),
                Some(Ok(run)) => {
                    stats.augmentations += run.augmentations;
                    runs.push(Some(run));
                }
                Some(Err(e)) => return Err(e),
            }
        }
        stats.add_phase("shard_solve", t_solve.elapsed());

        let t_refine = Instant::now();
        let refine_span = mcfs_obs::span("cluster.refine");
        let mut budgets = budgets;
        let moves = refine_budgets(&runs, &mut budgets);
        drop(refine_span);
        stats.add_phase("refine", t_refine.elapsed());

        stats.threads = oracle.threads();
        finish(inst, &part, &runs, &budgets, &oracle, stats, moves)
    }

    /// The unsharded fallback: one cold solve plus the gap certificate, so
    /// the outcome shape (and the certified bound) stays uniform. The solve
    /// and the bound read the run's one oracle.
    fn solve_single(
        &self,
        inst: &McfsInstance,
        part: Partition,
        mut stats: SolveStats,
        oracle: Arc<DistanceOracle>,
    ) -> Result<ClusterOutcome, SolveError> {
        let t_solve = Instant::now();
        let solver = Wma {
            oracle: Some(Arc::clone(&oracle)),
            ..self.solver.clone()
        };
        let run = solver.run(inst)?;
        stats.add_phase("shard_solve", t_solve.elapsed());
        stats.threads = run.solve_stats.threads;
        stats.cache_hits += run.solve_stats.cache_hits;
        stats.cache_misses += run.solve_stats.cache_misses;
        stats.oracle_nodes_settled += run.solve_stats.oracle_nodes_settled;
        stats.augmentations += run.solve_stats.augmentations;

        let t_bound = Instant::now();
        let guard = OracleRunGuard::begin();
        let all: Vec<u32> = (0..inst.num_facilities() as u32).collect();
        let (_, lower_bound) = optimal_assignment_with(inst, &all, &oracle)?;
        stats.record_oracle_run(&guard.stats());
        stats.add_phase("bound", t_bound.elapsed());
        stats.shards = 1;
        stats.gap_bound_ppm = gap_ppm(run.solution.objective, lower_bound);
        Ok(ClusterOutcome {
            solution: run.solution,
            stats,
            strategy: part.strategy,
            shards: 1,
            shard_objectives: Vec::new(),
            lower_bound,
            boundary_customers: 0,
            boundary_moved: 0,
            budget_moves: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcfs_graph::GraphBuilder;

    fn grid(side: u32, weight: u64) -> mcfs_graph::Graph {
        let mut b = GraphBuilder::new((side * side) as usize);
        for y in 0..side {
            for x in 0..side {
                let v = y * side + x;
                if x + 1 < side {
                    b.add_edge(v, v + 1, weight);
                }
                if y + 1 < side {
                    b.add_edge(v, v + side, weight);
                }
            }
        }
        b.build()
    }

    #[test]
    fn sharded_solve_verifies_and_certifies() {
        let g = grid(6, 7);
        let mut builder = McfsInstance::builder(&g).customers(0..36);
        for v in (0..36).step_by(3) {
            builder = builder.facility(v, 6);
        }
        let inst = builder.k(8).build().unwrap();
        let out = ClusterSolver::new(4).solve(&inst).unwrap();
        inst.verify(&out.solution).unwrap();
        assert!(out.shards >= 2, "a grid with ample capacity splits");
        assert_eq!(out.stats.shards, out.shards);
        // The certificate is sound versus a cold solve: LB <= cold cost,
        // and sharded <= (1 + gap) * LB <= (1 + gap) * cold.
        let cold = Wma::new().run(&inst).unwrap();
        assert!(out.lower_bound <= cold.solution.objective);
        let ppm = out.gap_bound_ppm().expect("positive distances");
        let bound = u128::from(out.lower_bound) * (1_000_000 + u128::from(ppm)) / 1_000_000;
        assert!(u128::from(out.solution.objective) <= bound + 1);
    }

    #[test]
    fn disconnected_instance_shards_exactly() {
        // Two far-apart components: sharding by component is lossless, so
        // the sharded objective equals the cold objective.
        let mut b = GraphBuilder::new(8);
        for base in [0u32, 4] {
            b.add_edge(base, base + 1, 3);
            b.add_edge(base + 1, base + 2, 3);
            b.add_edge(base + 2, base + 3, 3);
        }
        let g = b.build();
        let inst = McfsInstance::builder(&g)
            .customers([0, 1, 2, 3, 4, 5, 6, 7])
            .facility(1, 4)
            .facility(2, 4)
            .facility(5, 4)
            .facility(6, 4)
            .k(2)
            .build()
            .unwrap();
        let out = ClusterSolver::new(2).solve(&inst).unwrap();
        inst.verify(&out.solution).unwrap();
        assert_eq!(out.strategy, PartitionStrategy::Components);
        assert_eq!(out.boundary_customers, 0);
        let cold = Wma::new().run(&inst).unwrap();
        assert_eq!(out.solution.objective, cold.solution.objective);
    }

    #[test]
    fn single_fallback_matches_cold() {
        let mut b = GraphBuilder::new(4);
        for v in 0..3 {
            b.add_edge(v, v + 1, 5);
        }
        let g = b.build();
        let inst = McfsInstance::builder(&g)
            .customers([0, 1, 2, 3])
            .facility(0, 4)
            .k(1)
            .build()
            .unwrap();
        let out = ClusterSolver::new(4).solve(&inst).unwrap();
        assert_eq!(out.strategy, PartitionStrategy::Single);
        assert_eq!(out.shards, 1);
        let cold = Wma::new().run(&inst).unwrap();
        assert_eq!(out.solution.objective, cold.solution.objective);
        inst.verify(&out.solution).unwrap();
    }

    #[test]
    fn split_budget_respects_minima_and_caps() {
        let g = grid(6, 7);
        let mut builder = McfsInstance::builder(&g).customers(0..36);
        for v in (0..36).step_by(2) {
            builder = builder.facility(v, 4);
        }
        let inst = builder.k(12).build().unwrap();
        let part = partition(&inst, 3);
        assert!(part.shards.len() > 1);
        let budgets = split_budget(&part, inst.k());
        let spent: usize = budgets.iter().sum();
        assert!(spent <= inst.k());
        for (s, shard) in part.shards.iter().enumerate() {
            assert!(budgets[s] >= shard.min_facilities);
            assert!(budgets[s] <= shard.num_facilities());
        }
    }

    #[test]
    fn refinement_moves_budget_toward_gain() {
        // Synthetic runs: shard 0 gains 100 from +1, shard 1 loses 1 from
        // -1 → one move; afterwards no profitable pair remains.
        let sol = |obj: u64| ShardSolution {
            selection: vec![],
            assignment: vec![],
            objective: obj,
        };
        let mk = |objs: &[(usize, u64)]| -> Option<ShardRun> {
            Some(ShardRun {
                by_k: objs.iter().map(|&(k, o)| (k, sol(o))).collect(),
                augmentations: 0,
            })
        };
        let runs = vec![
            mk(&[(1, 400), (2, 300), (3, 200)]),
            mk(&[(1, 51), (2, 50), (3, 49)]),
        ];
        let mut budgets = vec![2, 2];
        let moves = refine_budgets(&runs, &mut budgets);
        assert_eq!(moves, 1);
        assert_eq!(budgets, vec![3, 1]);
    }

    #[test]
    fn gap_ppm_is_a_ceiling() {
        assert_eq!(gap_ppm(100, 100), Some(0));
        assert_eq!(gap_ppm(101, 100), Some(10_000));
        assert_eq!(gap_ppm(100, 99), Some(10_102)); // ceil(1/99 * 1e6)
        assert_eq!(gap_ppm(5, 0), None);
    }
}
