//! Component labels are computed once per graph and shared by every reader.
//!
//! `Graph::components` memoizes `connected_components` the way
//! `Graph::is_symmetric` memoizes its check: the first call labels the
//! graph, every later call (each solver's feasibility check, the cluster
//! partitioner) borrows the same labelling. These tests pin that the memo
//! equals the uncached reference on every graph shape, that it is computed
//! once, and that the feasibility report borrows it instead of copying it.

use std::ptr;

use mcfs_repro::core::McfsInstance;
use mcfs_repro::gen::synthetic::{generate_synthetic, SyntheticConfig};
use mcfs_repro::graph::{connected_components, Graph, GraphBuilder};

/// A 5×5 grid of two-way streets.
fn grid() -> Graph {
    let mut b = GraphBuilder::new(25);
    for r in 0..5u32 {
        for c in 0..5u32 {
            let v = r * 5 + c;
            if c < 4 {
                b.add_edge(v, v + 1, 10 + v as u64);
            }
            if r < 4 {
                b.add_edge(v, v + 5, 7);
            }
        }
    }
    b.build()
}

/// Two-way streets plus one-way arcs, one of which alone joins node 6 to
/// the rest, pointing away from it.
fn one_way() -> Graph {
    let mut b = GraphBuilder::new(8);
    b.add_edge(0, 1, 5);
    b.add_edge(1, 2, 5);
    b.add_arc(2, 3, 4);
    b.add_arc(3, 0, 4);
    b.add_arc(6, 1, 9);
    b.add_edge(4, 5, 3);
    b.add_arc(7, 5, 2);
    b.build()
}

/// Three components and two isolated nodes.
fn disconnected() -> Graph {
    let mut b = GraphBuilder::new(10);
    b.add_edge(9, 8, 1);
    b.add_edge(8, 7, 1);
    b.add_edge(0, 3, 2);
    b.add_edge(3, 5, 2);
    b.add_edge(2, 4, 6);
    b.build()
}

#[test]
fn cached_labels_equal_the_reference() {
    let fragmented = generate_synthetic(&SyntheticConfig::uniform(300, 1.2, 5));
    let empty = GraphBuilder::new(0).build();
    for (name, g) in [
        ("grid", grid()),
        ("one-way", one_way()),
        ("disconnected", disconnected()),
        ("synthetic", fragmented),
        ("empty", empty),
    ] {
        let reference = connected_components(&g);
        assert_eq!(g.components(), &reference, "{name}");
    }
    assert_eq!(one_way().components().count, 2);
    let cc = disconnected().components().clone();
    assert_eq!(cc.count, 5);
    assert_eq!(cc.sizes, vec![3, 1, 2, 1, 3]);
}

#[test]
fn labels_are_computed_once_per_graph() {
    for g in [grid(), one_way(), disconnected()] {
        let first = g.components();
        assert!(ptr::eq(first, g.components()));
        assert!(ptr::eq(
            first.component.as_ptr(),
            g.components().component.as_ptr()
        ));
    }
}

#[test]
fn a_clone_carries_equal_labels() {
    for g in [grid(), one_way(), disconnected()] {
        let before = g.clone();
        let labelled = g.components().clone();
        let after = g.clone();
        assert_eq!(after.components(), &labelled, "cloned after labelling");
        assert_eq!(before.components(), &labelled, "cloned before labelling");
    }
}

#[test]
fn feasibility_reports_borrow_the_graph_labels() {
    let g = disconnected();
    let inst = McfsInstance::builder(&g)
        .customers([0, 5, 9, 7, 2])
        .facility(3, 2)
        .facility(8, 2)
        .facility(4, 1)
        .k(3)
        .build()
        .unwrap();
    let first = inst.check_feasibility().unwrap();
    let again = inst.check_feasibility().unwrap();
    assert!(ptr::eq(first.components, g.components()));
    assert!(ptr::eq(first.components, again.components));
    assert_eq!(first.components, &connected_components(&g));
    assert_eq!(first.min_counts, vec![1, 0, 1, 0, 1]);
}
