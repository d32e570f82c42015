//! The Wide Matching Algorithm (paper Algorithm 1, `LocateFacilities`).
//!
//! WMA progressively enriches candidate facilities with potential customers:
//! each customer `s_i` carries a demand `d_i` — the number of distinct
//! candidate facilities it must be matched to in the bipartite graph `G_b` —
//! and each iteration
//!
//! 1. satisfies all demands through optimal incremental matching
//!    (`FindPair`, with rewiring of earlier assignments);
//! 2. greedily checks whether some `k` facilities cover every customer
//!    (`CheckCover`);
//! 3. failing that, raises the demand of exactly the *uncovered* customers
//!    (the exploration vector of Section IV-F).
//!
//! On termination two provisions apply (Section IV-G): leftover budget is
//! spent near badly served customers (`SelectGreedy`), and fragmented
//! networks get their per-component capacities repaired
//! (`CoverComponents`). Finally all customers are optimally re-matched onto
//! the selected set alone — the paper's recursive call with `F_p := F`,
//! which collapses to one bipartite matching.

use std::rc::Rc;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use mcfs_flow::{Matcher, PruningRule};
use mcfs_graph::{DistanceOracle, OracleRunGuard};

use crate::assign::{assignment_matcher, complete_assignment};
use crate::components::{capacity_suffices, cover_components};
use crate::cover::check_cover;
use crate::greedy_add::select_greedy;
use crate::instance::{FeasibilityReport, McfsInstance, Solution};
use crate::parallel::run_oracle;
use crate::stats::{IterationStats, RunStats, SolveStats, WmaPhase};
use crate::streams::CustomerStream;
use crate::{SolveError, Solver};

/// Process-wide count of WMA main-loop iterations (Prometheus exposition
/// via `mcfs-obs`; the per-run figure lives in [`RunStats`]).
fn iterations_counter() -> &'static mcfs_obs::Counter {
    static CELL: OnceLock<mcfs_obs::Counter> = OnceLock::new();
    CELL.get_or_init(|| {
        mcfs_obs::Registry::global().counter(
            "mcfs_wma_iterations_total",
            "WMA main-loop iterations executed",
        )
    })
}

/// Exploration-vector policy (paper Section IV-F).
///
/// The paper explicitly compares the two: "A simple approach would increase
/// the demand of all customers by 1 in each iteration. We have found that it
/// is much more effective to increase the demand by 1 only for those
/// customers that were not covered in the last iteration." Both are exposed
/// so `repro ablation` can quantify the difference.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum DemandPolicy {
    /// Raise only uncovered customers (the paper's choice).
    #[default]
    UncoveredOnly,
    /// Raise every eligible customer each iteration (the naive policy).
    All,
}

/// Tie-breaking between facilities with equal marginal gain in `CheckCover`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum TieBreak {
    /// Prefer the facility selected least recently — the paper's
    /// "diversification strategy that avoids getting trapped in
    /// non-optimal local minima" (Section IV-A).
    #[default]
    LeastRecentlyUsed,
    /// Plain smallest-index ties (ablation).
    IndexOnly,
}

/// The Wide Matching Algorithm.
///
/// The knobs exist for experimentation and ablation; the defaults
/// reproduce the paper's algorithm faithfully.
#[derive(Clone, Debug, Default)]
pub struct Wma {
    /// Record per-iteration statistics (Figure 12b).
    pub collect_stats: bool,
    /// Exploration-vector policy (Section IV-F ablation).
    pub demand_policy: DemandPolicy,
    /// Set-cover tie-breaking (Section IV-A ablation).
    pub tie_break: TieBreak,
    /// Lazy-matching pruning rule (Section V ablation).
    pub pruning: PruningRule,
    /// Row-fill worker threads of the run's oracle: `0` = auto (available
    /// parallelism), `n` = `n` workers. Which rows are filled follows from
    /// the instance, not from this count: facility rows whenever they apply
    /// ([`crate::streams::facility_rows_apply`]), lazy per-customer searches
    /// otherwise. Thread count never changes the solution, only wall time.
    pub threads: usize,
    /// Explicitly shared [`DistanceOracle`], used instead of a fresh one
    /// with `threads` workers so several solvers reuse one row cache. Like
    /// `threads`, it never changes which rows are read.
    pub oracle: Option<Arc<DistanceOracle>>,
}

/// A solved run: the solution plus (optionally) the iteration trace.
#[derive(Clone, Debug)]
pub struct WmaRun {
    /// The feasible solution.
    pub solution: Solution,
    /// Per-iteration statistics (empty unless `collect_stats`).
    pub stats: RunStats,
    /// Whole-run substrate instrumentation (phase wall times, oracle cache
    /// hits/misses); always collected.
    pub solve_stats: SolveStats,
}

impl Wma {
    /// WMA with default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enable per-iteration instrumentation.
    pub fn with_stats(mut self) -> Self {
        self.collect_stats = true;
        self
    }

    /// Set the row-fill worker count (`0` = auto, `1` = sequential); see
    /// [`threads`](Self#structfield.threads).
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

    /// Run WMA, returning the solution and the instrumentation trace.
    pub fn run(&self, inst: &McfsInstance) -> Result<WmaRun, SolveError> {
        let _run_span = mcfs_obs::span("wma.run");
        let feas = inst.check_feasibility().map_err(SolveError::Infeasible)?;
        // One oracle for the run: facility rows filled for the selection are
        // hits for the final assignment.
        let oracle = run_oracle(self.threads, self.oracle.as_ref());
        let mut solve_stats = SolveStats::for_threads(oracle.threads());
        // Per-run attribution: only queries issued from this call stack are
        // counted, even when the oracle (and its row cache) is shared with
        // other concurrently running solvers.
        let oracle_run = OracleRunGuard::begin();

        let (selection, stats) = self.select_facilities(inst, &feas, &mut solve_stats, || {
            let fac_map = Rc::new(inst.facilities_by_node());
            CustomerStream::for_customers(
                inst.graph(),
                inst.customers(),
                inst.num_customers(),
                fac_map,
                &oracle,
            )
        })?;

        // --- Final optimal assignment onto F (lines 14–15). ---
        let t_assign = Instant::now();
        let assign_span = mcfs_obs::span(WmaPhase::ASSIGNMENT.span);
        let (mut matcher, _) = assignment_matcher(inst, &selection, &oracle);
        let (assignment, objective) = complete_assignment(&mut matcher, inst.num_customers())?;
        drop(assign_span);
        solve_stats.augmentations += matcher.augmentations();
        solve_stats.add_phase(WmaPhase::ASSIGNMENT.name, t_assign.elapsed());
        solve_stats.record_oracle_run(&oracle_run.stats());
        Ok(WmaRun {
            solution: Solution {
                facilities: selection,
                assignment,
                objective,
            },
            stats,
            solve_stats,
        })
    }

    /// The deterministic facility-selection phase of Algorithm 1: prefetch,
    /// the matching/cover/demand main loop, and the closing provisions
    /// (`SelectGreedy` + `CoverComponents`). Shared verbatim by
    /// [`run`](Self::run) and the warm [`crate::ReSolver`] path — re-solving
    /// re-derives the selection with *identical* code on the edited
    /// instance, which is what makes warm and cold solutions provably agree.
    ///
    /// `make_streams` yields one fresh stream per customer, in customer
    /// order, over all of `inst`'s candidates; [`run`](Self::run) builds
    /// them with [`CustomerStream::for_customers`], the re-solver rewinds
    /// the columns it kept from earlier solves. Either way the streams emit
    /// identical sequences, so the selection does not depend on the caller.
    ///
    /// Phase timings and matcher augmentations are recorded into
    /// `solve_stats`; the per-iteration trace is returned (empty unless
    /// `collect_stats`).
    pub(crate) fn select_facilities<'g>(
        &self,
        inst: &McfsInstance<'g>,
        feas: &FeasibilityReport,
        solve_stats: &mut SolveStats,
        make_streams: impl FnOnce() -> Vec<CustomerStream<'g>>,
    ) -> Result<(Vec<u32>, RunStats), SolveError> {
        let m = inst.num_customers();
        let l = inst.num_facilities();
        let k = inst.k();

        // Stream construction is the prefetch phase: it pays for (or
        // reuses) one row per distinct candidate node in one batched query;
        // with lazy streams it is nearly free and the search cost is paid
        // inside the matching phase instead.
        let t_prefetch = Instant::now();
        let prefetch_span = mcfs_obs::span(WmaPhase::PREFETCH.span);
        let streams = make_streams();
        let mut matcher = Matcher::with_pruning(streams, inst.capacities(), self.pruning);
        drop(prefetch_span);
        solve_stats.add_phase(WmaPhase::PREFETCH.name, t_prefetch.elapsed());

        let mut total_matching = Duration::ZERO;
        let mut total_cover = Duration::ZERO;
        let mut demand = vec![1u32; m];
        // A customer whose residual exploration is exhausted can never gain
        // another match (loads only grow); skip it forever after.
        let mut saturated = vec![false; m];
        let mut last_selected = vec![0u64; l];
        let mut stats = RunStats::default();

        // The paper's loop is bounded by `m · ℓ` demand raises; the cap
        // guards against pathological inputs.
        let iter_cap = m.saturating_mul(l).max(16);
        let mut selection: Vec<u32> = Vec::new();
        let mut all_covered = false;

        for iteration in 1..=iter_cap {
            let _iter_span = mcfs_obs::span("wma.iteration");
            iterations_counter().inc();
            // --- Matching phase: satisfy every unmet demand (lines 5–6). ---
            let t0 = Instant::now();
            let matching_span = mcfs_obs::span(WmaPhase::MATCHING.span);
            for i in 0..m {
                while !saturated[i] && matcher.match_count(i) < demand[i] as usize {
                    if matcher.find_pair(i).is_err() {
                        saturated[i] = true;
                    }
                }
            }
            drop(matching_span);
            let matching_time = t0.elapsed();
            total_matching += matching_time;

            // --- Set-cover phase (line 7). ---
            let t1 = Instant::now();
            let cover_span = mcfs_obs::span(WmaPhase::COVER.span);
            let outcome = check_cover(
                |j| matcher.holders_of(j).iter().map(|&(c, _)| c),
                m,
                k,
                &last_selected,
            );
            if self.tie_break == TieBreak::LeastRecentlyUsed {
                for &f in &outcome.selected {
                    last_selected[f as usize] = iteration as u64;
                }
            }
            drop(cover_span);
            let cover_time = t1.elapsed();
            total_cover += cover_time;

            // --- Demand update (lines 8–9, Section IV-F). ---
            let mut grew = false;
            for i in 0..m {
                let eligible = (demand[i] as usize) < l && !saturated[i];
                let wants_growth = match self.demand_policy {
                    DemandPolicy::UncoveredOnly => !outcome.covered[i],
                    DemandPolicy::All => !outcome.all_covered,
                };
                if eligible && wants_growth {
                    demand[i] += 1;
                    grew = true;
                }
            }

            // Live events and post-hoc stats share one covered count so a
            // WATCHed solve streams exactly the numbers the stats record.
            let publish_live = mcfs_obs::bus_enabled();
            if self.collect_stats || publish_live {
                let covered_customers = outcome.covered.iter().filter(|&&b| b).count();
                let total_demand: u64 = demand.iter().map(|&d| d as u64).sum();
                if publish_live {
                    mcfs_obs::publish(mcfs_obs::Event::SolverIteration {
                        solver: "wma",
                        iteration: iteration as u64,
                        covered: covered_customers as u64,
                        total: m as u64,
                        matching_us: matching_time.as_micros() as u64,
                        cover_us: cover_time.as_micros() as u64,
                        demand: total_demand,
                        edges: matcher.edges_added(),
                    });
                }
                if self.collect_stats {
                    stats.iterations.push(IterationStats {
                        iteration,
                        covered_customers,
                        matching_time,
                        cover_time,
                        total_demand,
                        edges_in_gb: matcher.edges_added(),
                        dijkstra_runs: matcher.dijkstra_runs(),
                    });
                }
            }

            selection = outcome.selected;
            all_covered = outcome.all_covered;
            if !grew {
                break;
            }
        }

        solve_stats.add_phase(WmaPhase::MATCHING.name, total_matching);
        solve_stats.add_phase(WmaPhase::COVER.name, total_cover);
        solve_stats.augmentations += matcher.augmentations();

        // --- Special provisions (lines 10–13). ---
        let t_prov = Instant::now();
        let provisions_span = mcfs_obs::span(WmaPhase::PROVISIONS.span);
        if selection.len() < k {
            select_greedy(inst, &mut selection);
        }
        if !all_covered || !capacity_suffices(inst, &selection, feas.components) {
            selection = cover_components(inst, selection, feas.components)?;
        }
        drop(provisions_span);
        solve_stats.add_phase(WmaPhase::PROVISIONS.name, t_prov.elapsed());

        Ok((selection, stats))
    }
}

impl Solver for Wma {
    fn solve(&self, inst: &McfsInstance) -> Result<Solution, SolveError> {
        self.run(inst).map(|r| r.solution)
    }

    fn name(&self) -> &'static str {
        "WMA"
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

    /// The paper's Figure 3/4 example: 9-node network, 4 customers, 6
    /// candidate facilities, k = 2, c = 2. We model an equivalent instance
    /// and check WMA lands on a full cover with a verified assignment.
    #[test]
    fn paper_style_example_terminates_with_cover() {
        // Grid-ish network.
        let mut b = GraphBuilder::new(9);
        let edges = [
            (0u32, 1u32, 4u64),
            (1, 2, 5),
            (3, 4, 1),
            (4, 5, 2),
            (6, 7, 9),
            (7, 8, 1),
            (0, 3, 1),
            (3, 6, 4),
            (1, 4, 1),
            (4, 7, 2),
            (2, 5, 9),
            (5, 8, 6),
        ];
        for (u, v, w) in edges {
            b.add_edge(u, v, w);
        }
        let g = b.build();
        // Customers at corners, facilities elsewhere.
        let inst = McfsInstance::builder(&g)
            .customers([0, 2, 6, 8])
            .facility(1, 2)
            .facility(3, 2)
            .facility(4, 2)
            .facility(5, 2)
            .facility(7, 2)
            .k(2)
            .build()
            .unwrap();
        let run = Wma::new().with_stats().run(&inst).unwrap();
        inst.verify(&run.solution).unwrap();
        assert_eq!(run.solution.facilities.len(), 2);
        assert_eq!(run.solution.assignment.len(), 4);
        assert!(run.stats.num_iterations() >= 1);
    }

    #[test]
    fn single_facility_trivial() {
        let g = path(3, 10);
        let inst = McfsInstance::builder(&g)
            .customers([0, 2])
            .facility(1, 2)
            .k(1)
            .build()
            .unwrap();
        let sol = Wma::new().solve(&inst).unwrap();
        inst.verify(&sol).unwrap();
        assert_eq!(sol.objective, 20);
        assert_eq!(sol.facilities, vec![0]);
    }

    #[test]
    fn capacity_forces_two_facilities() {
        let g = path(5, 10);
        // Three customers, each facility holds two.
        let inst = McfsInstance::builder(&g)
            .customers([0, 2, 4])
            .facility(1, 2)
            .facility(3, 2)
            .k(2)
            .build()
            .unwrap();
        let sol = Wma::new().solve(&inst).unwrap();
        inst.verify(&sol).unwrap();
        assert_eq!(sol.facilities.len(), 2);
        // Optimal objective: 10 + 10 + 10 = 30.
        assert_eq!(sol.objective, 30);
    }

    #[test]
    fn surplus_budget_spent_via_select_greedy() {
        let g = path(7, 10);
        // One facility covers everyone, but k = 3: extra budget must still
        // produce a k-sized (or smaller, but better) selection and improve
        // or keep the objective.
        let inst = McfsInstance::builder(&g)
            .customers([0, 3, 6])
            .facility(3, 5)
            .facility(0, 5)
            .facility(6, 5)
            .k(3)
            .build()
            .unwrap();
        let sol = Wma::new().solve(&inst).unwrap();
        inst.verify(&sol).unwrap();
        assert_eq!(sol.facilities.len(), 3);
        assert_eq!(sol.objective, 0, "every customer gets a local facility");
    }

    #[test]
    fn disconnected_components_are_covered() {
        let mut b = GraphBuilder::new(6);
        b.add_edge(0, 1, 5);
        b.add_edge(1, 2, 5);
        b.add_edge(3, 4, 5);
        b.add_edge(4, 5, 5);
        let g = b.build();
        let inst = McfsInstance::builder(&g)
            .customers([0, 2, 3, 5])
            .facility(1, 4)
            .facility(4, 4)
            .facility(2, 1)
            .k(2)
            .build()
            .unwrap();
        let sol = Wma::new().solve(&inst).unwrap();
        inst.verify(&sol).unwrap();
        // Both islands must get a facility.
        let nodes: Vec<NodeId> = sol
            .facilities
            .iter()
            .map(|&j| inst.facilities()[j as usize].node)
            .collect();
        assert!(nodes.iter().any(|&v| v <= 2));
        assert!(nodes.iter().any(|&v| v >= 3));
    }

    #[test]
    fn infeasible_instance_rejected_up_front() {
        let g = path(3, 10);
        let inst = McfsInstance::builder(&g)
            .customers([0, 1, 2])
            .facility(1, 1)
            .facility(2, 1)
            .k(2)
            .build()
            .unwrap();
        assert!(matches!(
            Wma::new().solve(&inst),
            Err(SolveError::Infeasible(_))
        ));
    }

    #[test]
    fn rewiring_beats_greedy_on_the_figure_4_pattern() {
        // Figure 4c of the paper: a greedy match would push a customer to a
        // far facility; rewiring frees the near one instead. We verify WMA's
        // objective equals the true optimum (computed by hand).
        let g = path(6, 1);
        // customers at 0,1,2 ; facilities at 1 (cap 2) and 5 (cap 3).
        let inst = McfsInstance::builder(&g)
            .customers([0, 1, 2])
            .facility(1, 2)
            .facility(5, 3)
            .k(2)
            .build()
            .unwrap();
        let sol = Wma::new().solve(&inst).unwrap();
        inst.verify(&sol).unwrap();
        // Optimum: 0→1 (1), 1→1 (0), 2→5 (3) = 4.
        assert_eq!(sol.objective, 4);
    }

    #[test]
    fn deterministic_across_runs() {
        let g = path(9, 3);
        let inst = McfsInstance::builder(&g)
            .customers([0, 4, 8, 2])
            .facility(1, 2)
            .facility(3, 2)
            .facility(5, 2)
            .facility(7, 2)
            .k(2)
            .build()
            .unwrap();
        let a = Wma::new().solve(&inst).unwrap();
        let b = Wma::new().solve(&inst).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn ablation_variants_remain_correct() {
        let g = path(12, 4);
        let inst = McfsInstance::builder(&g)
            .customers([0, 3, 5, 8, 11])
            .facility(1, 2)
            .facility(4, 2)
            .facility(7, 2)
            .facility(10, 2)
            .k(3)
            .build()
            .unwrap();
        let default = Wma::new().solve(&inst).unwrap();
        inst.verify(&default).unwrap();
        for variant in [
            Wma {
                demand_policy: crate::DemandPolicy::All,
                ..Wma::new()
            },
            Wma {
                tie_break: crate::TieBreak::IndexOnly,
                ..Wma::new()
            },
            Wma {
                pruning: mcfs_flow::PruningRule::GlobalTauMax,
                ..Wma::new()
            },
        ] {
            let sol = variant.solve(&inst).unwrap();
            inst.verify(&sol).unwrap();
        }
    }

    #[test]
    fn all_demand_policy_explores_more() {
        // The "raise everyone" policy must satisfy at least as much demand
        // mass per iteration — visible as at least as many G_b edges.
        let g = path(20, 3);
        let inst = McfsInstance::builder(&g)
            .customers([0, 4, 9, 14, 19])
            .facility(2, 2)
            .facility(6, 2)
            .facility(11, 2)
            .facility(16, 2)
            .facility(18, 2)
            .k(3)
            .build()
            .unwrap();
        let selective = Wma::new().with_stats().run(&inst).unwrap();
        let all = Wma {
            demand_policy: crate::DemandPolicy::All,
            ..Wma::new()
        }
        .with_stats()
        .run(&inst)
        .unwrap();
        inst.verify(&selective.solution).unwrap();
        inst.verify(&all.solution).unwrap();
        let sel_edges = selective.stats.iterations.last().unwrap().edges_in_gb;
        let all_edges = all.stats.iterations.last().unwrap().edges_in_gb;
        assert!(
            all_edges >= sel_edges,
            "all-policy edges {all_edges} < selective {sel_edges}"
        );
    }

    #[test]
    fn thread_counts_agree_and_substrate_stats_recorded() {
        let g = path(9, 3);
        // ℓ = 4 ≤ m = 4 on a symmetric graph: every thread count fills one
        // row per distinct candidate node, and the final assignment re-reads
        // the selected sites'.
        let inst = McfsInstance::builder(&g)
            .customers([0, 4, 8, 2])
            .facility(1, 2)
            .facility(3, 2)
            .facility(5, 2)
            .facility(7, 2)
            .k(2)
            .build()
            .unwrap();
        let single = Wma::new().threads(1).run(&inst).unwrap();
        assert_eq!(single.solve_stats.threads, 1);
        for n in [1, 2, 4] {
            let run = Wma::new().threads(n).run(&inst).unwrap();
            assert_eq!(single.solution, run.solution, "threads {n}");
            assert_eq!(run.solve_stats.threads, n);
            assert_eq!(
                run.solve_stats.cache_misses, 4,
                "one row per distinct candidate node"
            );
            assert_eq!(run.solve_stats.oracle_nodes_settled, 4 * 9);
            assert_eq!(
                run.solve_stats.cache_hits, 2,
                "the final assignment reuses the selected sites' rows"
            );
            for phase in WmaPhase::ALL {
                assert!(
                    run.solve_stats.phase(phase.name).is_some(),
                    "missing {phase:?}"
                );
            }
        }

        // ℓ = 4 > m = 2, and three selected sites > m as well: every thread
        // count, and a shared oracle, streams lazily throughout and fills no
        // row.
        let inst = McfsInstance::builder(&g)
            .customers([0, 8])
            .facility(1, 1)
            .facility(3, 1)
            .facility(5, 1)
            .facility(7, 1)
            .k(3)
            .build()
            .unwrap();
        let lazy = Wma::new().threads(1).run(&inst).unwrap();
        assert_eq!(lazy.solution.facilities.len(), 3);
        let shared = Arc::new(DistanceOracle::new().with_threads(2));
        for (label, run) in [
            ("threads 1", lazy.clone()),
            ("threads 2", Wma::new().threads(2).run(&inst).unwrap()),
            ("threads 8", Wma::new().threads(8).run(&inst).unwrap()),
            (
                "with_oracle",
                Wma::new()
                    .with_oracle(Arc::clone(&shared))
                    .run(&inst)
                    .unwrap(),
            ),
        ] {
            assert_eq!(lazy.solution, run.solution, "{label}");
            assert_eq!(run.solve_stats.cache_misses, 0, "{label}: no row");
            assert_eq!(run.solve_stats.oracle_nodes_settled, 0, "{label}");
        }
        assert_eq!(shared.stats().cached_rows, 0);
    }

    #[test]
    fn shared_oracle_reuses_rows_across_runs() {
        let g = path(9, 3);
        let inst = McfsInstance::builder(&g)
            .customers([0, 4, 8])
            .facility(1, 2)
            .facility(5, 2)
            .facility(7, 2)
            .k(2)
            .build()
            .unwrap();
        let oracle = std::sync::Arc::new(mcfs_graph::DistanceOracle::new().with_threads(2));
        let first = Wma::new()
            .with_oracle(std::sync::Arc::clone(&oracle))
            .run(&inst)
            .unwrap();
        let second = Wma::new().with_oracle(oracle).run(&inst).unwrap();
        assert_eq!(first.solution, second.solution);
        assert_eq!(first.solve_stats.cache_misses, 3);
        assert_eq!(
            second.solve_stats.cache_misses, 0,
            "second run is fully cached"
        );
    }

    #[test]
    fn stats_trace_is_recorded() {
        let g = path(8, 2);
        let inst = McfsInstance::builder(&g)
            .customers([0, 7])
            .facility(3, 1)
            .facility(4, 1)
            .k(2)
            .build()
            .unwrap();
        let run = Wma::new().with_stats().run(&inst).unwrap();
        assert!(!run.stats.iterations.is_empty());
        let last = run.stats.iterations.last().unwrap();
        assert_eq!(last.covered_customers, 2);
        // Edges and Dijkstra counters are monotone across iterations.
        for w in run.stats.iterations.windows(2) {
            assert!(w[1].edges_in_gb >= w[0].edges_in_gb);
            assert!(w[1].dijkstra_runs >= w[0].dijkstra_runs);
        }
    }
}
