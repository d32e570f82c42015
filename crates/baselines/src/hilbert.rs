//! The Hilbert space-filling-curve baseline (paper Section VII-A).
//!
//! "It divides the input customer set into `k` buckets and assigns each
//! bucket to the candidate facility node closest to the bucket's centroid.
//! We form buckets containing `⌈m/k⌉` consecutive customers using the
//! spatial order defined by a Hilbert space-filling curve."
//!
//! Per the paper's Figure 6c discussion, the baseline is component-aware:
//! "it considers each component separately, calculating required facilities
//! per component proportionally to the number of customers in the
//! component." The final assignment is an optimal capacitated matching onto
//! the chosen set (the paper runs SIA for this), and `CoverComponents`
//! repairs the selection first if centroid snapping under-provisioned a
//! component's capacity.
//!
//! Requires node coordinates on the graph (the curve is geometric); that is
//! the baseline's defining blind spot — it never looks at *network*
//! distances when siting, which is exactly why it falters on clustered
//! topologies (Figure 7).

use mcfs::assign::optimal_assignment;
use mcfs::components::{capacity_suffices, cover_components};
use mcfs::{McfsInstance, Solution, SolveError, Solver};
use mcfs_graph::{hilbert::hilbert_keys, GridIndex, Point};
use rustc_hash::FxHashSet;

/// The Hilbert bucketing baseline.
#[derive(Clone, Debug)]
pub struct HilbertBaseline {
    /// Hilbert grid order (`2^order` cells per side). 16 gives sub-meter
    /// resolution on city-scale extents.
    pub order: u32,
}

impl Default for HilbertBaseline {
    fn default() -> Self {
        Self { order: 16 }
    }
}

impl HilbertBaseline {
    /// Baseline with the default curve resolution.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Solver for HilbertBaseline {
    fn solve(&self, inst: &McfsInstance) -> Result<Solution, SolveError> {
        let feas = inst.check_feasibility().map_err(SolveError::Infeasible)?;
        let coords = inst
            .graph()
            .coords()
            .expect("HilbertBaseline requires node coordinates");
        let cc = feas.components;
        let k = inst.k();

        // --- Budget split: proportional to customers, floored at the
        // feasibility minimum, capped at the component's candidate count. ---
        let mut cust_per: Vec<Vec<u32>> = vec![Vec::new(); cc.count];
        for (i, &s) in inst.customers().iter().enumerate() {
            cust_per[cc.of(s) as usize].push(i as u32);
        }
        let mut cand_per: Vec<Vec<u32>> = vec![Vec::new(); cc.count];
        for (j, f) in inst.facilities().iter().enumerate() {
            cand_per[cc.of(f.node) as usize].push(j as u32);
        }
        let mut alloc: Vec<usize> = (0..cc.count)
            .map(|g| {
                if cust_per[g].is_empty() {
                    0
                } else {
                    feas.min_counts[g].max(1)
                }
            })
            .collect();
        let mut spent: usize = alloc.iter().sum();
        // Largest-share-first distribution of the remaining budget.
        while spent < k {
            let next = (0..cc.count)
                .filter(|&g| !cust_per[g].is_empty() && alloc[g] < cand_per[g].len())
                .max_by(|&a, &b| {
                    let ra = cust_per[a].len() as f64 / alloc[a].max(1) as f64;
                    let rb = cust_per[b].len() as f64 / alloc[b].max(1) as f64;
                    ra.total_cmp(&rb).then(b.cmp(&a))
                });
            match next {
                Some(g) => {
                    alloc[g] += 1;
                    spent += 1;
                }
                None => break, // every populated component saturated
            }
        }

        // --- Per component: Hilbert-order customers, bucket, snap centroids. ---
        let mut selection: Vec<u32> = Vec::new();
        for g in 0..cc.count {
            if cust_per[g].is_empty() || alloc[g] == 0 {
                continue;
            }
            let pts: Vec<Point> = cust_per[g]
                .iter()
                .map(|&i| coords[inst.customers()[i as usize] as usize])
                .collect();
            let keys = hilbert_keys(&pts, self.order);
            let mut by_curve: Vec<usize> = (0..pts.len()).collect();
            by_curve.sort_by_key(|&i| keys[i]);

            let cand_pts: Vec<Point> = cand_per[g]
                .iter()
                .map(|&j| coords[inst.facilities()[j as usize].node as usize])
                .collect();
            // Cell size scaled to the candidate density for fast ring search.
            let extent = bounding_span(&cand_pts).max(1e-9);
            let cell = (extent / (cand_pts.len() as f64).sqrt().max(1.0)).max(1e-9);
            let index = GridIndex::build(&cand_pts, cell);

            let buckets = alloc[g].min(by_curve.len());
            let chunk = by_curve.len().div_ceil(buckets);
            let mut taken: FxHashSet<u32> = FxHashSet::default();
            for b in 0..buckets {
                let lo = b * chunk;
                if lo >= by_curve.len() {
                    break;
                }
                let hi = ((b + 1) * chunk).min(by_curve.len());
                let slice = &by_curve[lo..hi];
                let centroid = Point::new(
                    slice.iter().map(|&i| pts[i].x).sum::<f64>() / slice.len() as f64,
                    slice.iter().map(|&i| pts[i].y).sum::<f64>() / slice.len() as f64,
                );
                if let Some(local) = index.nearest_where(centroid, |c| !taken.contains(&c)) {
                    taken.insert(local);
                    selection.push(cand_per[g][local as usize]);
                }
            }
        }

        if selection.is_empty() {
            return Err(SolveError::AssignmentFailed { customer: 0 });
        }
        // Capacity repair + optimal matching (the paper's nonuniform recipe).
        if !capacity_suffices(inst, &selection, cc) {
            selection = cover_components(inst, selection, cc)?;
        }
        let (assignment, objective) = optimal_assignment(inst, &selection)?;
        Ok(Solution {
            facilities: selection,
            assignment,
            objective,
        })
    }

    fn name(&self) -> &'static str {
        "Hilbert"
    }
}

/// Larger of the x/y spans of a point set.
fn bounding_span(pts: &[Point]) -> f64 {
    let (mut min_x, mut max_x) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut min_y, mut max_y) = (f64::INFINITY, f64::NEG_INFINITY);
    for p in pts {
        min_x = min_x.min(p.x);
        max_x = max_x.max(p.x);
        min_y = min_y.min(p.y);
        max_y = max_y.max(p.y);
    }
    if pts.is_empty() {
        0.0
    } else {
        (max_x - min_x).max(max_y - min_y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcfs_graph::{Graph, GraphBuilder, NodeId};

    /// A 1-D "road" with coordinates matching node positions.
    fn line(n: usize, spacing: f64) -> Graph {
        let pts: Vec<Point> = (0..n)
            .map(|i| Point::new(i as f64 * spacing, 0.0))
            .collect();
        let mut b = GraphBuilder::with_coords(pts);
        for i in 0..n - 1 {
            b.add_edge(i as NodeId, i as NodeId + 1, spacing as u64);
        }
        b.build()
    }

    #[test]
    fn buckets_split_the_line() {
        let g = line(10, 100.0);
        // Customers clustered at both ends; k = 2 buckets should pick one
        // facility near each end.
        let inst = McfsInstance::builder(&g)
            .customers([0, 1, 8, 9])
            .facilities((0..10).map(|v| mcfs::Facility {
                node: v,
                capacity: 2,
            }))
            .k(2)
            .build()
            .unwrap();
        let sol = HilbertBaseline::new().solve(&inst).unwrap();
        inst.verify(&sol).unwrap();
        let nodes: Vec<NodeId> = sol
            .facilities
            .iter()
            .map(|&j| inst.facilities()[j as usize].node)
            .collect();
        assert!(
            nodes.iter().any(|&v| v <= 2),
            "left cluster served locally: {nodes:?}"
        );
        assert!(
            nodes.iter().any(|&v| v >= 7),
            "right cluster served locally: {nodes:?}"
        );
        assert_eq!(
            sol.objective, 200,
            "each end pays one hop for its second customer"
        );
    }

    #[test]
    fn component_aware_budgeting() {
        // Two islands with coordinates; 3 customers on A, 1 on B, k = 2.
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(100.0, 0.0),
            Point::new(101.0, 0.0),
        ];
        let mut b = GraphBuilder::with_coords(pts);
        b.add_edge(0, 1, 1);
        b.add_edge(1, 2, 1);
        b.add_edge(3, 4, 1);
        let g = b.build();
        let inst = McfsInstance::builder(&g)
            .customers([0, 1, 2, 3])
            .facility(1, 3)
            .facility(2, 3)
            .facility(4, 3)
            .k(2)
            .build()
            .unwrap();
        let sol = HilbertBaseline::new().solve(&inst).unwrap();
        inst.verify(&sol).unwrap();
        let nodes: Vec<NodeId> = sol
            .facilities
            .iter()
            .map(|&j| inst.facilities()[j as usize].node)
            .collect();
        assert!(nodes.contains(&4), "island B gets its facility: {nodes:?}");
    }

    #[test]
    fn capacity_repair_kicks_in() {
        // Both buckets would snap to tiny facilities; repair must swap in
        // capacity.
        let g = line(6, 10.0);
        let inst = McfsInstance::builder(&g)
            .customers([0, 1, 2, 3])
            .facility(1, 1) // near left centroid, too small
            .facility(2, 1)
            .facility(4, 4) // big but off-centroid
            .k(2)
            .build()
            .unwrap();
        let sol = HilbertBaseline::new().solve(&inst).unwrap();
        inst.verify(&sol).unwrap();
    }

    #[test]
    fn single_bucket_degenerates_to_one_median() {
        let g = line(5, 10.0);
        let inst = McfsInstance::builder(&g)
            .customers([0, 2, 4])
            .facilities((0..5).map(|v| mcfs::Facility {
                node: v,
                capacity: 3,
            }))
            .k(1)
            .build()
            .unwrap();
        let sol = HilbertBaseline::new().solve(&inst).unwrap();
        inst.verify(&sol).unwrap();
        let node = inst.facilities()[sol.facilities[0] as usize].node;
        assert_eq!(node, 2, "centroid of the whole line");
    }

    #[test]
    fn infeasible_rejected() {
        let g = line(3, 10.0);
        let inst = McfsInstance::builder(&g)
            .customers([0, 1, 2])
            .facility(1, 1)
            .k(1)
            .build()
            .unwrap();
        assert!(matches!(
            HilbertBaseline::new().solve(&inst),
            Err(SolveError::Infeasible(_))
        ));
    }
}
