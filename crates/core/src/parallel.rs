//! Shared resolution of the solvers' `threads` / `oracle` knobs, and the
//! row set one run shares.
//!
//! Every solver in the workspace carries the same two fields:
//!
//! * `threads: usize` — row-fill parallelism: `0` means "auto" (one worker
//!   per available hardware thread), `n > 1` gives the run an oracle with
//!   `n` workers, `1` gives it none;
//! * `oracle: Option<Arc<DistanceOracle>>` — an explicitly shared oracle.
//!   Passing the same `Arc` to several solvers makes them share one row
//!   cache, so e.g. WMA, the refine pass and a baseline sweep each reuse the
//!   rows the previous stage already paid for.
//!
//! [`resolve_oracle`] turns those fields into the *configured* oracle.
//! Which rows a stream batch reads follows from the instance's shape
//! ([`crate::streams::facility_rows_apply`]): facility rows whenever the
//! graph is symmetric and the facility set has no more distinct nodes than
//! the instance has customers; otherwise customer rows from the configured
//! oracle, or lazy per-customer searches without one. Facility rows need an
//! oracle to live in even at `threads(1)`, so a run holds a [`RowSet`]. All
//! rows are filled by the arena search ([`mcfs_graph::fill_row`]). The
//! contract — verified by the determinism tests — is that none of this
//! changes a solution, only wall time.

use std::cell::OnceCell;
use std::sync::Arc;

use mcfs_graph::{available_threads, DistanceOracle, NodeId};
use rustc_hash::FxHashSet;

use crate::instance::McfsInstance;
use crate::streams::facility_rows_apply;

/// Resolve a `threads` knob: `0` → available parallelism, else the value.
pub fn effective_threads(threads: usize) -> usize {
    if threads == 0 {
        available_threads()
    } else {
        threads
    }
}

/// The configured oracle of one solver run.
///
/// An explicitly provided oracle always wins (whatever its thread count).
/// Otherwise a fresh oracle is created when the resolved thread count
/// exceeds 1; a resolved count of 1 returns `None`: no customer rows, and
/// facility rows go to the run's [`RowSet`].
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

/// The distance rows one solver run shares: its configured oracle
/// ([`resolve_oracle`]) or, without one, a run-scoped single-thread oracle
/// created the first time a facility set qualifies for facility rows.
///
/// Pass [`for_selection`](Self::for_selection)'s answer wherever the run
/// assigns (e.g. [`crate::optimal_assignment_with`]): every assignment of
/// the run then reads one set of facility rows, and a row filled for the
/// selection phase is a hit for the final assignment. The run-scoped oracle
/// is only ever handed out for a set that reads facility rows, so it never
/// holds a customer row: without a configured oracle, a set with more
/// distinct nodes than customers keeps its lazy searches.
pub struct RowSet<'a> {
    configured: Option<&'a DistanceOracle>,
    scoped: OnceCell<DistanceOracle>,
}

impl<'a> RowSet<'a> {
    /// Row set over the run's configured oracle, if any.
    pub fn new(configured: Option<&'a DistanceOracle>) -> Self {
        Self {
            configured,
            scoped: OnceCell::new(),
        }
    }

    /// The oracle to match `inst`'s customers against the facilities
    /// `selection` (indices into `inst.facilities()`): the configured one,
    /// else the run-scoped one when facility rows apply, else `None`.
    pub fn for_selection(&self, inst: &McfsInstance, selection: &[u32]) -> Option<&DistanceOracle> {
        // Only `distinct nodes ≤ m` matters, and a selection no longer than
        // m passes that test without counting.
        let nodes = if selection.len() <= inst.num_customers() {
            selection.len()
        } else {
            let facs = inst.facilities();
            let distinct: FxHashSet<NodeId> =
                selection.iter().map(|&j| facs[j as usize].node).collect();
            distinct.len()
        };
        self.for_nodes(inst, nodes)
    }

    /// [`for_selection`](Self::for_selection) for a facility set on
    /// `facility_nodes` distinct nodes.
    pub(crate) fn for_nodes(
        &self,
        inst: &McfsInstance,
        facility_nodes: usize,
    ) -> Option<&DistanceOracle> {
        match self.configured {
            Some(o) => Some(o),
            None => {
                facility_rows_apply(inst.graph(), inst.num_customers(), facility_nodes).then(|| {
                    self.scoped
                        .get_or_init(|| DistanceOracle::new().with_threads(1))
                })
            }
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
    fn threads_one_configures_no_oracle() {
        assert!(resolve_oracle(1, None).is_none());
    }

    #[test]
    fn row_set_scopes_an_oracle_to_facility_rows_only() {
        use mcfs_graph::GraphBuilder;
        let mut b = GraphBuilder::new(6);
        for v in 0..5 {
            b.add_edge(v, v + 1, 7);
        }
        let g = b.build();
        let inst = McfsInstance::builder(&g)
            .customers([0, 5])
            .facility(1, 2)
            .facility(2, 2)
            .facility(2, 2)
            .facility(4, 2)
            .k(2)
            .build()
            .unwrap();
        let rows = RowSet::new(None);
        // Two customers: three distinct nodes is too many, two is not.
        assert!(rows.for_selection(&inst, &[0, 1, 3]).is_none());
        let a = rows
            .for_selection(&inst, &[1, 2])
            .expect("co-located pair is one node");
        let b = rows.for_selection(&inst, &[0, 3]).expect("two nodes");
        assert!(std::ptr::eq(a, b), "one run-scoped oracle per run");
        assert_eq!(a.threads(), 1);
        let configured = DistanceOracle::new().with_threads(2);
        let rows = RowSet::new(Some(&configured));
        let o = rows.for_selection(&inst, &[0, 1, 3]).unwrap();
        assert!(std::ptr::eq(o, &configured));
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
