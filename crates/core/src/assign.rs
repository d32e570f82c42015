//! Customer→facility assignment onto a *fixed* selected set.
//!
//! Algorithm 1's closing step (lines 14–15) recursively re-runs WMA with
//! `F_p := F`, which collapses to a single optimal bipartite matching of all
//! customers onto the selected facilities — computed here directly with the
//! incremental matcher ([`optimal_assignment`]). The greedy variant
//! ([`greedy_assignment`]) is what WMA-Naïve uses instead (Section VII-A).

use std::rc::Rc;

use mcfs_flow::{EdgeStream, Matcher};
use mcfs_graph::{DistanceOracle, NodeId};
use rustc_hash::FxHashMap;

use crate::instance::McfsInstance;
use crate::streams::{CustomerStream, FacilityMap, NetworkStream};
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
pub fn optimal_assignment(
    inst: &McfsInstance,
    selection: &[u32],
) -> Result<(Vec<u32>, u64), SolveError> {
    optimal_assignment_with(inst, selection, None)
}

/// [`optimal_assignment`] over an explicit distance substrate. When
/// facility rows apply ([`crate::streams::facility_rows_apply`]) they are
/// read from `oracle`'s cache, or from a throwaway oracle under `None`;
/// otherwise `Some` oracle serves customer rows and `None` runs lazy
/// per-customer searches. All produce identical results. Callers that
/// assign repeatedly (the refine pass, cluster reconcile and bound) pass
/// their run's [`crate::RowSet`] answer, so facility rows are filled once
/// per run rather than once per call.
pub fn optimal_assignment_with(
    inst: &McfsInstance,
    selection: &[u32],
    oracle: Option<&DistanceOracle>,
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
    oracle: Option<&DistanceOracle>,
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

/// Greedy assignment: customers processed in the given order, each taking
/// its nearest selected facility with spare capacity. No rewiring — this is
/// the WMA-Naïve final step, typically 2× worse than the optimum (Fig. 6).
///
/// Succeeds whenever each component's selected capacity suffices for its
/// customers: a customer can always find *some* spare facility in its
/// component, just not necessarily a globally good one.
pub fn greedy_assignment(
    inst: &McfsInstance,
    selection: &[u32],
    order: &[usize],
) -> Result<(Vec<u32>, u64), SolveError> {
    debug_assert_eq!(order.len(), inst.num_customers());
    let caps: Vec<u32> = selection
        .iter()
        .map(|&j| inst.facilities()[j as usize].capacity)
        .collect();
    let map = selection_map(inst, selection);
    let mut loads = vec![0u32; selection.len()];
    let mut assignment = vec![u32::MAX; inst.num_customers()];
    let mut objective = 0u64;
    for &i in order {
        let mut stream = NetworkStream::new(inst.graph(), inst.customers()[i], Rc::clone(&map));
        let mut placed = false;
        while let Some((pos, dist)) = stream.next_edge() {
            if loads[pos as usize] < caps[pos as usize] {
                loads[pos as usize] += 1;
                assignment[i] = pos;
                objective += dist;
                placed = true;
                break;
            }
        }
        if !placed {
            return Err(SolveError::AssignmentFailed { customer: i });
        }
    }
    Ok((assignment, objective))
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
        // Greedy processing customer 1 first: 1→fac@1 (0), 0→fac@4 (400).
        let (_, greedy) = greedy_assignment(&inst, &[0, 1], &[1, 0]).unwrap();
        assert_eq!(greedy, 400);
        // ... order [0, 1]: 0→fac@1 (100), 1→fac@4 (300) — also 400 here.
        // A sharper case: customers at 1 and 2.
        let inst = McfsInstance::builder(&g)
            .customers([2, 1])
            .facility(1, 1)
            .facility(0, 1)
            .k(2)
            .build()
            .unwrap();
        let (_, opt) = optimal_assignment(&inst, &[0, 1]).unwrap();
        assert_eq!(opt, 100 + 100); // 2→@1, 1→@0
        let (_, greedy) = greedy_assignment(&inst, &[0, 1], &[0, 1]).unwrap();
        assert_eq!(greedy, 100 + 100); // customer 2 grabs @1 first; 1→@0: equal here
        let (_, greedy_bad) = greedy_assignment(&inst, &[0, 1], &[1, 0]).unwrap();
        // customer 1 grabs @1 (0); customer 2 must walk to @0 (200). Worse.
        assert_eq!(greedy_bad, 200);
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
        assert!(matches!(
            greedy_assignment(&inst, &[0], &[0, 1]),
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
