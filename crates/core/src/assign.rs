//! Customer→facility assignment onto a *fixed* selected set.
//!
//! Algorithm 1's closing step (lines 14–15) recursively re-runs WMA with
//! `F_p := F`, which collapses to a single optimal bipartite matching of all
//! customers onto the selected facilities — computed here directly with the
//! incremental matcher ([`optimal_assignment`]). WMA-Naïve keeps its
//! greedy exploration matches instead and places leftover customers itself
//! (Section VII-A, `crate::naive`).

use std::rc::Rc;

use mcfs_flow::{EdgeStream, Matcher};
use mcfs_graph::{DistanceOracle, NodeId};
use rustc_hash::FxHashMap;

use crate::instance::McfsInstance;
use crate::streams::{CustomerStream, FacilityMap};
use crate::SolveError;

/// Map node → positions-within-`selection` for the selected facilities.
pub(crate) fn selection_map(
    inst: &McfsInstance,
    selection: &[u32],
) -> Rc<FxHashMap<NodeId, Vec<u32>>> {
    let mut map: FxHashMap<NodeId, Vec<u32>> = FxHashMap::default();
    for (pos, &j) in selection.iter().enumerate() {
        let node = inst.facilities()[j as usize].node;
        map.entry(node).or_default().push(pos as u32);
    }
    Rc::new(map)
}

/// Optimal (minimum total distance) assignment of every customer to the
/// facilities in `selection`, respecting capacities.
///
/// Returns `(assignment, objective)` where `assignment[i]` indexes into
/// `selection`. Fails with [`SolveError::AssignmentFailed`] when the
/// selection cannot host all customers (insufficient or unreachable
/// capacity) — callers fix the selection via `CoverComponents` first.
///
/// Any facility rows it reads go to a throwaway oracle; callers that assign
/// repeatedly use [`optimal_assignment_with`] with their run's oracle.
pub fn optimal_assignment(
    inst: &McfsInstance,
    selection: &[u32],
) -> Result<(Vec<u32>, u64), SolveError> {
    optimal_assignment_with(inst, selection, &DistanceOracle::new().with_threads(1))
}

/// [`optimal_assignment`] reading facility rows from (and caching them in)
/// `oracle` when they apply ([`crate::streams::facility_rows_apply`]),
/// running lazy per-customer searches otherwise; both give identical
/// results. Callers that assign repeatedly (the refine pass, cluster
/// reconcile and bound) pass their run's oracle, so facility rows are
/// filled once per run rather than once per call.
pub fn optimal_assignment_with(
    inst: &McfsInstance,
    selection: &[u32],
    oracle: &DistanceOracle,
) -> Result<(Vec<u32>, u64), SolveError> {
    let (mut matcher, _) = assignment_matcher(inst, selection, oracle);
    complete_assignment(&mut matcher, inst.num_customers())
}

/// Build (but do not run) the final-assignment matcher for `selection`:
/// one stream per customer over the selected facilities, unit demands.
/// Returns the matcher together with the node→selection-positions map so
/// warm callers ([`crate::ReSolver`]) can mint streams for later arrivals.
pub(crate) fn assignment_matcher<'g>(
    inst: &McfsInstance<'g>,
    selection: &[u32],
    oracle: &DistanceOracle,
) -> (Matcher<CustomerStream<'g>>, FacilityMap) {
    let caps: Vec<u32> = selection
        .iter()
        .map(|&j| inst.facilities()[j as usize].capacity)
        .collect();
    let map = selection_map(inst, selection);
    let streams = CustomerStream::for_customers(
        inst.graph(),
        inst.customers(),
        inst.num_customers(),
        Rc::clone(&map),
        oracle,
    );
    (Matcher::new(streams, caps), map)
}

/// Drive an assignment matcher to completion: one `find_pair` per customer
/// `0..m`, then extract the dense assignment and total cost.
pub(crate) fn complete_assignment<S: EdgeStream>(
    matcher: &mut Matcher<S>,
    m: usize,
) -> Result<(Vec<u32>, u64), SolveError> {
    for i in 0..m {
        matcher
            .find_pair(i)
            .map_err(|_| SolveError::AssignmentFailed { customer: i })?;
    }
    let assignment = (0..m)
        .map(|i| matcher.matches_of(i).next().expect("matched above").0)
        .collect();
    Ok((assignment, matcher.total_cost()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::McfsInstance;
    use mcfs_graph::{Graph, GraphBuilder};

    /// Path 0-1-2-3-4 with unit-100 edges.
    fn path() -> Graph {
        let mut b = GraphBuilder::new(5);
        for i in 0..4 {
            b.add_edge(i, i + 1, 100);
        }
        b.build()
    }

    #[test]
    fn optimal_rewires_greedy_does_not() {
        let g = path();
        // Customers at 0 and 1; facilities at 1 (cap 1) and 4 (cap 1).
        let inst = McfsInstance::builder(&g)
            .customers([0, 1])
            .facility(1, 1)
            .facility(4, 1)
            .k(2)
            .build()
            .unwrap();
        let (_, opt) = optimal_assignment(&inst, &[0, 1]).unwrap();
        // Optimal: 0→fac@1 (100), 1→fac@4 (300) = 400.
        assert_eq!(opt, 400);
        // Customers at 2 and 1 onto sites at 1 and 0.
        let inst = McfsInstance::builder(&g)
            .customers([2, 1])
            .facility(1, 1)
            .facility(0, 1)
            .k(2)
            .build()
            .unwrap();
        let (_, opt) = optimal_assignment(&inst, &[0, 1]).unwrap();
        assert_eq!(opt, 100 + 100); // 2→@1, 1→@0
    }

    #[test]
    fn assignment_failure_reported() {
        let g = path();
        let inst = McfsInstance::builder(&g)
            .customers([0, 1])
            .facility(1, 1)
            .facility(4, 1)
            .k(1)
            .build()
            .unwrap();
        // Selection of only facility 0 (cap 1) can't host both.
        assert!(matches!(
            optimal_assignment(&inst, &[0]),
            Err(SolveError::AssignmentFailed { .. })
        ));
    }

    #[test]
    fn multiple_customers_per_node() {
        let g = path();
        let inst = McfsInstance::builder(&g)
            .customers([2, 2, 2])
            .facility(2, 2)
            .facility(3, 5)
            .k(2)
            .build()
            .unwrap();
        let (assignment, obj) = optimal_assignment(&inst, &[0, 1]).unwrap();
        // Two ride free at node 2, one pays 100 to node 3.
        assert_eq!(obj, 100);
        assert_eq!(assignment.iter().filter(|&&a| a == 0).count(), 2);
    }
}
