//! Shared resolution of the solvers' `threads` / `oracle` knobs.
//!
//! Every solver in the workspace carries the same two fields:
//!
//! * `threads: usize` — `0` means "auto" (one worker per available hardware
//!   thread), `1` forces the exact legacy lazy-Dijkstra path, `n > 1`
//!   enables the oracle-backed substrate with `n` workers;
//! * `oracle: Option<Arc<DistanceOracle>>` — an explicitly shared oracle.
//!   Passing the same `Arc` to several solvers makes them share one row
//!   cache, so e.g. WMA, the refine pass and a baseline sweep each reuse the
//!   rows the previous stage already paid for.
//!
//! [`resolve_oracle`] turns those fields into the substrate choice. The
//! lazy path streams each customer's settled nodes on demand; the oracle
//! path fills whole rows with the arena search ([`mcfs_graph::fill_row`]).
//! The contract — verified by the determinism tests — is that the choice
//! affects wall time only, never solutions.

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

/// Decide the distance substrate for one solver run.
///
/// An explicitly provided oracle always wins (whatever its thread count).
/// Otherwise a fresh oracle is created when the resolved thread count
/// exceeds 1; a resolved count of 1 returns `None`, selecting the legacy
/// per-customer lazy-Dijkstra path byte-for-byte.
pub fn resolve_oracle(
    threads: usize,
    oracle: Option<&Arc<DistanceOracle>>,
) -> Option<Arc<DistanceOracle>> {
    match oracle {
        Some(o) => Some(Arc::clone(o)),
        None => {
            let t = effective_threads(threads);
            (t > 1).then(|| Arc::new(DistanceOracle::new().with_threads(t)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_oracle_wins() {
        let o = Arc::new(DistanceOracle::new().with_threads(3));
        let resolved = resolve_oracle(1, Some(&o)).unwrap();
        assert!(Arc::ptr_eq(&o, &resolved));
    }

    #[test]
    fn threads_one_selects_legacy_path() {
        assert!(resolve_oracle(1, None).is_none());
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
