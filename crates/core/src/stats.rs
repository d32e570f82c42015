//! Per-iteration instrumentation of the WMA main loop.
//!
//! Figure 12b of the paper reports, per iteration: the number of covered
//! customers, the time spent matching, and the time spent in the set-cover
//! routine. [`IterationStats`] captures exactly those series plus a few
//! internals (demand mass, `G_b` growth) that the analysis section discusses.

use std::time::Duration;

use mcfs_graph::OracleStats;

/// Measurements for one iteration of the WMA main loop.
#[derive(Clone, Debug)]
pub struct IterationStats {
    /// 1-based iteration number.
    pub iteration: usize,
    /// Customers covered by the selected set at the end of the iteration.
    pub covered_customers: usize,
    /// Wall-clock time spent satisfying demands (the matching phase).
    pub matching_time: Duration,
    /// Wall-clock time spent in `CheckCover`.
    pub cover_time: Duration,
    /// Total demand `Σ d_i` after the update.
    pub total_demand: u64,
    /// Bipartite edges materialized so far (the paper's |E'|).
    pub edges_in_gb: u64,
    /// Residual Dijkstra executions so far.
    pub dijkstra_runs: u64,
}

/// Full trace of a WMA run (returned alongside the solution when
/// instrumentation is enabled).
#[derive(Clone, Debug, Default)]
pub struct RunStats {
    /// One entry per main-loop iteration.
    pub iterations: Vec<IterationStats>,
}

impl RunStats {
    /// Number of main-loop iterations executed.
    pub fn num_iterations(&self) -> usize {
        self.iterations.len()
    }

    /// Total time spent in the matching phase.
    pub fn total_matching_time(&self) -> Duration {
        self.iterations.iter().map(|s| s.matching_time).sum()
    }

    /// Total time spent in the set-cover phase.
    pub fn total_cover_time(&self) -> Duration {
        self.iterations.iter().map(|s| s.cover_time).sum()
    }
}

/// One phase of a WMA solve: the name [`SolveStats`] records its wall time
/// under (`STATS` renders it as `phase.<name>_us`) and the span that
/// brackets it. Every WMA phase name and span name comes from these
/// constants, so the two vocabularies cannot drift apart.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WmaPhase {
    /// [`SolveStats`] phase name.
    pub name: &'static str,
    /// Span name.
    pub span: &'static str,
}

impl WmaPhase {
    /// Stream construction: facility rows read (or filled) and sorted into
    /// columns, or lazy searches started.
    pub const PREFETCH: WmaPhase = WmaPhase {
        name: "prefetch",
        span: "wma.prefetch",
    };
    /// Each iteration's `FindPair` calls until every demand is met.
    pub const MATCHING: WmaPhase = WmaPhase {
        name: "matching",
        span: "wma.matching",
    };
    /// Each iteration's `CheckCover`.
    pub const COVER: WmaPhase = WmaPhase {
        name: "cover",
        span: "wma.cover",
    };
    /// `SelectGreedy` and `CoverComponents` after the main loop.
    pub const PROVISIONS: WmaPhase = WmaPhase {
        name: "provisions",
        span: "wma.provisions",
    };
    /// The final optimal assignment onto the selection.
    pub const ASSIGNMENT: WmaPhase = WmaPhase {
        name: "assignment",
        span: "wma.assignment",
    };
    /// Every WMA phase, in run order.
    pub const ALL: [WmaPhase; 5] = [
        Self::PREFETCH,
        Self::MATCHING,
        Self::COVER,
        Self::PROVISIONS,
        Self::ASSIGNMENT,
    ];
}

/// One named phase of a solver run and the wall-clock time it consumed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhaseTime {
    /// Phase label (e.g. `"prefetch"`, `"matching"`, `"assignment"`).
    pub name: &'static str,
    /// Wall-clock time spent in the phase.
    pub wall: Duration,
}

/// Whole-run instrumentation of the distance substrate: per-phase wall
/// times plus the oracle's row-cache hit/miss counts attributable to the
/// run. Always collected (it is a handful of `Instant` reads), unlike the
/// per-iteration [`RunStats`] trace which is opt-in.
///
/// `threads` is row-fill parallelism only. A stream solver fills the same
/// rows at every thread count: facility rows whenever they apply (see
/// [`crate::streams::facility_rows_apply`]), counted here. Its cache
/// counters stay zero only when every stream was lazy.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Row-fill worker threads of the run's oracle (1 when a baseline
    /// runs without one).
    pub threads: usize,
    /// Ordered phase timings; phase names are solver-specific.
    pub phases: Vec<PhaseTime>,
    /// Distance-oracle row-cache hits during this run.
    pub cache_hits: u64,
    /// Distance-oracle row-cache misses (fresh Dijkstra expansions) during
    /// this run.
    pub cache_misses: u64,
    /// Nodes reached by the rows the oracle filled for missed requests
    /// during this run (each row's finite entries, see
    /// [`mcfs_graph::OracleStats::nodes_settled`]). Zero when every stream
    /// was lazy, and zero for warm re-solves that find their rows already
    /// cached.
    pub oracle_nodes_settled: u64,
    /// Matcher augmentations performed across the run's matching phases
    /// (selection loop plus final assignment). A warm-started re-solve pays
    /// one augmentation per *arriving* customer in its assignment phase
    /// instead of one per customer.
    pub augmentations: u64,
    /// Number of shards a cluster solve partitioned the instance into.
    /// `0` (the default) means a plain single-instance solve; the kv
    /// rendering omits cluster keys entirely in that case, so existing
    /// consumers of [`to_kv_lines`](Self::to_kv_lines) are unaffected.
    pub shards: usize,
    /// Certified optimality-gap bound of a cluster solve, in parts per
    /// million: `ceil((cost − LB) · 1e6 / LB)` where `LB` is the
    /// capacity-relaxed lower bound on the optimum. `None` for plain
    /// solves and for the degenerate `LB == 0` case (every customer
    /// co-located with a facility), where the sharded cost is itself 0
    /// and the gap is vacuously tight.
    pub gap_bound_ppm: Option<u64>,
}

impl SolveStats {
    /// Stats for a run on `threads` substrate workers.
    pub fn for_threads(threads: usize) -> Self {
        Self {
            threads,
            ..Self::default()
        }
    }

    /// Append a phase timing.
    pub fn add_phase(&mut self, name: &'static str, wall: Duration) {
        self.phases.push(PhaseTime { name, wall });
    }

    /// Wall time of the named phase (summed if it was recorded repeatedly).
    pub fn phase(&self, name: &str) -> Option<Duration> {
        let mut found = false;
        let mut total = Duration::ZERO;
        for p in &self.phases {
            if p.name == name {
                found = true;
                total += p.wall;
            }
        }
        found.then_some(total)
    }

    /// Sum of all recorded phase times.
    pub fn total_wall(&self) -> Duration {
        self.phases.iter().map(|p| p.wall).sum()
    }

    /// Attribute one run's oracle activity from a per-run snapshot (the
    /// [`mcfs_graph::OracleRunGuard::stats`] of a guard opened around the
    /// run). This counts only queries issued from the guarded call stack,
    /// so two solvers sharing one oracle each see exactly their own
    /// traffic.
    pub fn record_oracle_run(&mut self, run: &OracleStats) {
        self.cache_hits += run.hits;
        self.cache_misses += run.misses;
        self.oracle_nodes_settled += run.nodes_settled;
    }

    /// Render as stable `key value` lines — the machine-readable shape shared
    /// by the serving layer's `STATS`/`METRICS` replies and the examples.
    /// Keys are fixed; per-phase times appear as `phase.<name>_us` in
    /// recording order (repeated phases are pre-summed by [`phase`](Self::phase)
    /// semantics, so each name appears once).
    pub fn to_kv_lines(&self) -> Vec<String> {
        let mut out = vec![format!("threads {}", self.threads)];
        let mut seen: Vec<&str> = Vec::new();
        for p in &self.phases {
            if seen.contains(&p.name) {
                continue;
            }
            seen.push(p.name);
            let total = self.phase(p.name).unwrap_or(Duration::ZERO);
            out.push(format!("phase.{}_us {}", p.name, total.as_micros()));
        }
        out.push(format!("total_wall_us {}", self.total_wall().as_micros()));
        out.push(format!("cache_hits {}", self.cache_hits));
        out.push(format!("cache_misses {}", self.cache_misses));
        out.push(format!(
            "oracle_nodes_settled {}",
            self.oracle_nodes_settled
        ));
        out.push(format!("augmentations {}", self.augmentations));
        if self.shards > 0 {
            out.push(format!("shards {}", self.shards));
        }
        if let Some(ppm) = self.gap_bound_ppm {
            out.push(format!("gap_bound_ppm {ppm}"));
        }
        out
    }
}

impl std::fmt::Display for SolveStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for line in self.to_kv_lines() {
            writeln!(f, "{line}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates_sum_over_iterations() {
        let mut stats = RunStats::default();
        for i in 1..=3 {
            stats.iterations.push(IterationStats {
                iteration: i,
                covered_customers: i * 10,
                matching_time: Duration::from_millis(5),
                cover_time: Duration::from_millis(2),
                total_demand: i as u64,
                edges_in_gb: i as u64 * 4,
                dijkstra_runs: i as u64,
            });
        }
        assert_eq!(stats.num_iterations(), 3);
        assert_eq!(stats.total_matching_time(), Duration::from_millis(15));
        assert_eq!(stats.total_cover_time(), Duration::from_millis(6));
    }

    #[test]
    fn solve_stats_phases_accumulate() {
        let mut s = SolveStats::for_threads(4);
        s.add_phase("matching", Duration::from_millis(10));
        s.add_phase("cover", Duration::from_millis(3));
        s.add_phase("matching", Duration::from_millis(5));
        assert_eq!(s.phase("matching"), Some(Duration::from_millis(15)));
        assert_eq!(s.phase("cover"), Some(Duration::from_millis(3)));
        assert_eq!(s.phase("nope"), None);
        assert_eq!(s.total_wall(), Duration::from_millis(18));
    }

    #[test]
    fn wma_phase_spans_are_named_after_their_phases() {
        for phase in WmaPhase::ALL {
            assert_eq!(phase.span, format!("wma.{}", phase.name));
        }
        let mut names: Vec<&str> = WmaPhase::ALL.iter().map(|p| p.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), WmaPhase::ALL.len(), "phase names are distinct");
    }

    #[test]
    fn kv_lines_are_stable_and_dedupe_phases() {
        let mut s = SolveStats::for_threads(2);
        s.add_phase("matching", Duration::from_micros(10));
        s.add_phase("assignment", Duration::from_micros(7));
        s.add_phase("matching", Duration::from_micros(5));
        s.cache_hits = 4;
        s.augmentations = 9;
        let lines = s.to_kv_lines();
        assert_eq!(
            lines,
            vec![
                "threads 2",
                "phase.matching_us 15",
                "phase.assignment_us 7",
                "total_wall_us 22",
                "cache_hits 4",
                "cache_misses 0",
                "oracle_nodes_settled 0",
                "augmentations 9",
            ]
        );
        // Display is the same lines, newline-terminated.
        assert_eq!(s.to_string(), lines.join("\n") + "\n");
    }

    #[test]
    fn cluster_kvs_appear_only_when_set() {
        let mut s = SolveStats::for_threads(1);
        let plain = s.to_kv_lines();
        assert!(!plain.iter().any(|l| l.starts_with("shards")));
        assert!(!plain.iter().any(|l| l.starts_with("gap_bound_ppm")));
        s.shards = 4;
        s.gap_bound_ppm = Some(1234);
        let lines = s.to_kv_lines();
        assert!(lines.contains(&"shards 4".to_string()));
        assert!(lines.contains(&"gap_bound_ppm 1234".to_string()));
    }
}
