//! Resumable Dijkstra — the paper's per-customer nearest-neighbor stream.
//!
//! `FindPair` (Algorithm 2) incrementally materializes the bipartite graph
//! `G_b` by asking, per customer, for the *next nearest candidate facility in
//! the network* (line 6: "nn ← node in G_b for next NN of x in G"). Section
//! IV-D requires these per-customer searches to persist across `FindPair`
//! calls ("the heaps for these executions per customer persist"). A
//! [`LazyDijkstra`] is exactly that persistent state: it settles nodes in
//! nondecreasing distance order and can be paused/resumed at will; a
//! million-node network is only explored as far as the matching actually
//! needs.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rustc_hash::FxHashMap;

use crate::{Dist, Graph, NodeId, INF};

/// A paused Dijkstra search from one source that yields settled nodes in
/// nondecreasing distance order.
///
/// Memory grows with the explored region only (hash-map tentative distances),
/// so keeping one instance per customer — as WMA does — is affordable even on
/// large networks when exploration stays local.
#[derive(Clone, Debug)]
pub struct LazyDijkstra {
    /// Tentative distances for touched nodes.
    dist: FxHashMap<NodeId, Dist>,
    /// Frontier; may contain stale entries (lazy deletion).
    heap: BinaryHeap<Reverse<(Dist, NodeId)>>,
    /// Distance of the last settled node — settles are monotone.
    last_settled: Dist,
}

impl LazyDijkstra {
    /// Start a (paused) search from `source`.
    pub fn new(source: NodeId) -> Self {
        let mut heap = BinaryHeap::new();
        heap.push(Reverse((0, source)));
        let mut dist = FxHashMap::default();
        dist.insert(source, 0);
        Self {
            dist,
            heap,
            last_settled: 0,
        }
    }

    /// Settle and return the next-nearest unsettled node, or `None` when the
    /// reachable component is exhausted.
    pub fn next_settled(&mut self, g: &Graph) -> Option<(NodeId, Dist)> {
        while let Some(Reverse((d, v))) = self.heap.pop() {
            match self.dist.get(&v) {
                Some(&best) if d > best => continue, // stale
                _ => {}
            }
            debug_assert!(d >= self.last_settled, "settles must be monotone");
            self.last_settled = d;
            // Mark settled by pinning the final distance, then relax.
            self.dist.insert(v, d);
            for (u, w) in g.neighbors(v) {
                let nd = d + w;
                let e = self.dist.entry(u).or_insert(INF);
                if nd < *e {
                    *e = nd;
                    self.heap.push(Reverse((nd, u)));
                }
            }
            return Some((v, d));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{dijkstra_all, GraphBuilder};
    use proptest::prelude::*;

    proptest! {
        /// Lazy settles match the one-shot Dijkstra on random graphs, in
        /// nondecreasing order, with no node settled twice.
        #[test]
        fn lazy_matches_oneshot(
            n in 2usize..20,
            edges in proptest::collection::vec((0u32..20, 0u32..20, 1u64..50), 0..50),
            source in 0u32..20,
        ) {
            let mut b = GraphBuilder::new(n);
            for (u, v, w) in edges {
                let (u, v) = (u % n as u32, v % n as u32);
                if u != v {
                    b.add_edge(u, v, w);
                }
            }
            let g = b.build();
            let source = source % n as u32;
            let oracle = dijkstra_all(&g, source);
            let mut lazy = LazyDijkstra::new(source);
            let mut seen = std::collections::HashSet::new();
            let mut prev = 0;
            while let Some((v, d)) = lazy.next_settled(&g) {
                prop_assert!(seen.insert(v), "node {v} settled twice");
                prop_assert!(d >= prev);
                prev = d;
                prop_assert_eq!(d, oracle[v as usize]);
            }
            // Every reachable node was settled.
            for v in 0..n as u32 {
                prop_assert_eq!(seen.contains(&v), oracle[v as usize] != crate::INF);
            }
        }
    }

    fn chain(n: usize, w: Dist) -> Graph {
        let mut b = GraphBuilder::new(n);
        for i in 0..n - 1 {
            b.add_edge(i as NodeId, i as NodeId + 1, w);
        }
        b.build()
    }

    #[test]
    fn settles_in_order_and_matches_oneshot() {
        let mut b = GraphBuilder::new(6);
        b.add_edge(0, 1, 3);
        b.add_edge(0, 2, 1);
        b.add_edge(2, 3, 1);
        b.add_edge(1, 3, 10);
        b.add_edge(3, 4, 2);
        // node 5 disconnected
        let g = b.build();
        let oracle = dijkstra_all(&g, 0);
        let mut lazy = LazyDijkstra::new(0);
        let mut prev = 0;
        let mut seen = 0;
        while let Some((v, d)) = lazy.next_settled(&g) {
            assert!(d >= prev, "monotone settles");
            prev = d;
            assert_eq!(d, oracle[v as usize]);
            seen += 1;
        }
        assert_eq!(seen, 5); // node 5 never settled
        assert!(lazy.next_settled(&g).is_none(), "exhausted stays exhausted");
    }

    #[test]
    fn pause_resume_is_transparent() {
        let g = chain(10, 2);
        let mut lazy = LazyDijkstra::new(0);
        let mut all = Vec::new();
        for _ in 0..4 {
            all.push(lazy.next_settled(&g).unwrap());
        }
        while let Some(x) = lazy.next_settled(&g) {
            all.push(x);
        }
        let want: Vec<(NodeId, Dist)> = (0..10).map(|i| (i as NodeId, 2 * i as Dist)).collect();
        assert_eq!(all, want);
    }
}
