//! Shared resolution of the solvers' `threads` / `oracle` knobs.
//!
//! Every solver in the workspace carries the same two fields:
//!
//! * `threads: usize` — row-fill parallelism: `0` means "auto" (one worker
//!   per available hardware thread), `n` means `n` workers;
//! * `oracle: Option<Arc<DistanceOracle>>` — an explicitly shared oracle.
//!   Passing the same `Arc` to several solvers makes them share one row
//!   cache, so e.g. WMA, the refine pass and a baseline sweep each reuse the
//!   rows the previous stage already paid for.
//!
//! A stream solver (WMA and its variants, the refiner, the re-solver and
//! the cluster finish) holds one oracle per run, [`run_oracle`]. Which
//! rows its customer streams read follows from the instance's shape alone
//! ([`crate::streams::facility_rows_apply`]): facility rows, held in that
//! oracle, whenever the graph is symmetric and the facility set has no more
//! distinct nodes than the instance has customers; lazy per-customer
//! searches otherwise. The thread count only sets how many workers fill
//! facility rows. All rows are filled by the arena search
//! ([`mcfs_graph::fill_row`]). The contract — verified by the determinism
//! tests — is that none of this changes a solution, only wall time.

use std::sync::Arc;

use mcfs_graph::{available_threads, DistanceOracle};

/// Resolve a `threads` knob: `0` → available parallelism, else the value.
pub fn effective_threads(threads: usize) -> usize {
    if threads == 0 {
        available_threads()
    } else {
        threads
    }
}

/// The oracle one stream-solver run holds: the explicitly shared one
/// (whatever its thread count), else a fresh one with
/// [`effective_threads`]`(threads)` workers. The run puts only facility
/// rows in it.
pub fn run_oracle(threads: usize, oracle: Option<&Arc<DistanceOracle>>) -> Arc<DistanceOracle> {
    match oracle {
        Some(o) => Arc::clone(o),
        None => Arc::new(DistanceOracle::new().with_threads(effective_threads(threads))),
    }
}

/// The customer-row oracle of the BRNN and Greedy-Addition baselines,
/// whose own scans read one row per customer: the shared one, else a fresh
/// one when the resolved thread count exceeds 1, else `None` (they search
/// per query).
pub fn resolve_oracle(
    threads: usize,
    oracle: Option<&Arc<DistanceOracle>>,
) -> Option<Arc<DistanceOracle>> {
    (oracle.is_some() || effective_threads(threads) > 1).then(|| run_oracle(threads, oracle))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_oracle_wins() {
        let o = Arc::new(DistanceOracle::new().with_threads(3));
        let resolved = resolve_oracle(1, Some(&o)).unwrap();
        assert!(Arc::ptr_eq(&o, &resolved));
        assert!(Arc::ptr_eq(&o, &run_oracle(1, Some(&o))));
    }

    #[test]
    fn threads_one_configures_no_oracle() {
        assert!(resolve_oracle(1, None).is_none());
    }

    #[test]
    fn every_thread_count_gives_a_run_one_oracle() {
        assert_eq!(run_oracle(1, None).threads(), 1);
        assert_eq!(run_oracle(4, None).threads(), 4);
        assert_eq!(run_oracle(0, None).threads(), available_threads());
    }

    #[test]
    fn threads_many_builds_an_oracle() {
        let o = resolve_oracle(4, None).unwrap();
        assert_eq!(o.threads(), 4);
    }

    #[test]
    fn auto_matches_available_parallelism() {
        assert_eq!(effective_threads(0), available_threads());
        assert_eq!(effective_threads(7), 7);
    }
}
