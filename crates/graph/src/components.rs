//! Connected components.
//!
//! Algorithm 5 of the paper (`CoverComponents`) reasons per connected
//! component: each component must be granted enough facility capacity to
//! cover its own customers, since no assignment can cross components. The
//! Hilbert baseline likewise buckets customers per component. This module
//! provides the component labelling both rely on.
//!
//! Components are computed on the *undirected closure* (weak connectivity):
//! the paper's road networks are undirected, and for directed inputs weak
//! connectivity is the right notion for "could any facility here ever serve
//! this customer" — a conservative prerequisite check. Every arc joins its
//! endpoints whichever way it points, so the labels of a directed graph do
//! not depend on node order. A symmetric graph ([`Graph::is_symmetric`])
//! already holds every arc's reversal, so its search follows out-arcs
//! alone; a directed one also walks a reverse adjacency.

use crate::{Graph, NodeId};

/// Component labelling of a graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ComponentInfo {
    /// `component[v]` is the component index of node `v` (0-based, dense).
    pub component: Vec<u32>,
    /// Number of components.
    pub count: usize,
    /// Node count per component.
    pub sizes: Vec<usize>,
}

impl ComponentInfo {
    /// Component id of `v`.
    #[inline]
    pub fn of(&self, v: NodeId) -> u32 {
        self.component[v as usize]
    }

    /// Group arbitrary node sets by component: returns for each component
    /// the subset of `nodes` that lies in it (component index = Vec index).
    pub fn group(&self, nodes: &[NodeId]) -> Vec<Vec<NodeId>> {
        let mut groups = vec![Vec::new(); self.count];
        for &v in nodes {
            groups[self.of(v) as usize].push(v);
        }
        groups
    }
}

/// Label the components of the undirected closure via iterative BFS (no
/// recursion, so arbitrarily deep path graphs are fine): two nodes share a
/// label when some chain of arcs, each followed in either direction, joins
/// them. Labels are dense and numbered in order of each component's
/// smallest node, so they never depend on which way one-way arcs point.
///
/// Uncached: every call walks the whole graph. Solvers borrow the
/// once-per-graph labelling from [`Graph::components`] instead.
pub fn connected_components(g: &Graph) -> ComponentInfo {
    let n = g.num_nodes();
    // On a symmetric graph every arc's reversal is itself an out-arc; a
    // directed graph also walks its arcs backwards.
    let reverse = (!g.is_symmetric()).then(|| in_neighbors(g));
    let mut component = vec![u32::MAX; n];
    let mut sizes = Vec::new();
    let mut queue = Vec::new();
    let mut next = 0u32;
    for start in 0..n as NodeId {
        if component[start as usize] != u32::MAX {
            continue;
        }
        let mut size = 0usize;
        component[start as usize] = next;
        queue.push(start);
        while let Some(v) = queue.pop() {
            size += 1;
            for (u, _) in g.neighbors(v) {
                if component[u as usize] == u32::MAX {
                    component[u as usize] = next;
                    queue.push(u);
                }
            }
            if let Some((offsets, sources)) = &reverse {
                let tails =
                    &sources[offsets[v as usize] as usize..offsets[v as usize + 1] as usize];
                for &u in tails {
                    if component[u as usize] == u32::MAX {
                        component[u as usize] = next;
                        queue.push(u);
                    }
                }
            }
        }
        sizes.push(size);
        next += 1;
    }
    ComponentInfo {
        component,
        count: next as usize,
        sizes,
    }
}

/// Reverse adjacency in CSR form: `sources[offsets[v]..offsets[v + 1]]`
/// are the tails of `v`'s in-arcs.
fn in_neighbors(g: &Graph) -> (Vec<u32>, Vec<NodeId>) {
    let mut offsets = vec![0u32; g.num_nodes() + 1];
    for u in g.nodes() {
        for (v, _) in g.neighbors(u) {
            offsets[v as usize + 1] += 1;
        }
    }
    for i in 0..g.num_nodes() {
        offsets[i + 1] += offsets[i];
    }
    let mut cursor = offsets.clone();
    let mut sources = vec![0 as NodeId; g.num_arcs()];
    for u in g.nodes() {
        for (v, _) in g.neighbors(u) {
            sources[cursor[v as usize] as usize] = u;
            cursor[v as usize] += 1;
        }
    }
    (offsets, sources)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    #[test]
    fn two_components_plus_isolated() {
        let mut b = GraphBuilder::new(6);
        b.add_edge(0, 1, 1);
        b.add_edge(1, 2, 1);
        b.add_edge(3, 4, 1);
        // 5 isolated
        let g = b.build();
        let cc = connected_components(&g);
        assert_eq!(cc.count, 3);
        assert_eq!(cc.of(0), cc.of(2));
        assert_ne!(cc.of(0), cc.of(3));
        assert_ne!(cc.of(3), cc.of(5));
        let mut sizes = cc.sizes.clone();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![1, 2, 3]);
    }

    #[test]
    fn grouping_nodes() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1);
        b.add_edge(2, 3, 1);
        let g = b.build();
        let cc = connected_components(&g);
        let groups = cc.group(&[0, 2, 3]);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[cc.of(0) as usize], vec![0]);
        assert_eq!(groups[cc.of(2) as usize], vec![2, 3]);
    }

    #[test]
    fn empty_and_single() {
        let g = GraphBuilder::new(0).build();
        assert_eq!(connected_components(&g).count, 0);
        let g = GraphBuilder::new(1).build();
        let cc = connected_components(&g);
        assert_eq!(cc.count, 1);
        assert_eq!(cc.sizes, vec![1]);
    }

    #[test]
    fn one_way_arcs_join_components_in_either_direction() {
        // Node 3 reaches 0 only along a one-way arc into the path 0-1-2:
        // one weak component, whichever endpoint is numbered first.
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1, 100);
        b.add_edge(1, 2, 50);
        b.add_arc(3, 0, 25);
        let cc = connected_components(&b.build());
        assert_eq!(cc.component, vec![0, 0, 0, 0, 1]);
        assert_eq!(cc.sizes, vec![4, 1]);
        let mut b = GraphBuilder::new(4);
        b.add_arc(3, 1, 5);
        b.add_arc(2, 0, 5);
        b.add_arc(3, 2, 5);
        let cc = connected_components(&b.build());
        assert_eq!(cc.count, 1);
    }

    #[test]
    fn labels_follow_smallest_node_order() {
        let mut b = GraphBuilder::new(6);
        b.add_edge(4, 5, 1);
        b.add_edge(1, 3, 1);
        b.add_edge(3, 0, 1);
        let cc = connected_components(&b.build());
        assert_eq!(cc.component, vec![0, 0, 1, 0, 2, 2]);
        assert_eq!(cc.sizes, vec![3, 1, 2]);
    }

    #[test]
    fn fully_connected_is_one_component() {
        let mut b = GraphBuilder::new(5);
        for i in 0..4 {
            b.add_edge(i, i + 1, 1);
        }
        let cc = connected_components(&b.build());
        assert_eq!(cc.count, 1);
        assert_eq!(cc.sizes, vec![5]);
    }
}
