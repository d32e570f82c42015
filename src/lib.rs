//! # mcfs-repro
//!
//! Facade crate for the reproduction of *Multicapacity Facility Selection in
//! Networks* (Logins, Karras, Jensen — ICDE 2019). It re-exports the public
//! API of every workspace crate so that examples and downstream users need a
//! single dependency:
//!
//! * [`graph`] — network substrate (CSR graphs, Dijkstra variants, Hilbert
//!   curves, components).
//! * [`flow`] — min-cost-flow substrate (SSPA, transportation solver,
//!   incremental bipartite matching).
//! * [`core`] — the Wide Matching Algorithm (WMA), WMA-Naïve and the
//!   Uniform-First variant; problem instances and solutions.
//! * [`baselines`] — Hilbert-curve bucketing and iterative BRNN baselines.
//! * [`exact`] — exact branch-and-bound solver (the paper's Gurobi stand-in).
//! * [`gen`] — workload generators for every experiment in the paper.
//! * [`io`] — plain-text persistence for instances and solutions.
//! * [`server`] — multi-session service: wire protocol, worker pool,
//!   admission control and live metrics (`mcfs-serve`).
//! * [`cluster`] — in-process partition-and-merge solving: balanced graph
//!   sharding, concurrent shard solves, Lagrangian budget split and a
//!   certified optimality-gap bound (a library only; the server does not
//!   shard).
//! * [`loadgen`] — sustained-traffic load generation against the server,
//!   fault injection, and SLO gating (`mcfs-loadgen`).
//! * [`obs`] — the observability substrate: metrics registry with
//!   Prometheus exposition, span tracing with Chrome-trace export.
//!
//! ## Quickstart
//!
//! ```
//! use mcfs_repro::prelude::*;
//!
//! // A tiny 3x3 grid network with unit edge lengths.
//! let mut b = GraphBuilder::new(9);
//! for r in 0..3u32 {
//!     for c in 0..3u32 {
//!         let v = r * 3 + c;
//!         if c < 2 { b.add_edge(v, v + 1, 100); }
//!         if r < 2 { b.add_edge(v, v + 3, 100); }
//!     }
//! }
//! let g = b.build();
//!
//! // Four customers, three candidate facilities with capacities, budget 2.
//! let instance = McfsInstance::builder(&g)
//!     .customers(vec![0, 2, 6, 8])
//!     .facility(4, 2)
//!     .facility(1, 2)
//!     .facility(7, 2)
//!     .k(2)
//!     .build()
//!     .unwrap();
//!
//! let solution = Wma::new().solve(&instance).unwrap();
//! assert!(solution.facilities.len() <= 2);
//! assert_eq!(solution.assignment.len(), 4);
//! instance.verify(&solution).unwrap();
//! ```

#![warn(missing_docs)]

pub use mcfs as core;
pub use mcfs_baselines as baselines;
pub use mcfs_cluster as cluster;
pub use mcfs_exact as exact;
pub use mcfs_flow as flow;
pub use mcfs_gen as gen;
pub use mcfs_graph as graph;
pub use mcfs_io as io;
pub use mcfs_loadgen as loadgen;
pub use mcfs_obs as obs;
pub use mcfs_server as server;

/// Convenient glob import for examples and tests.
pub mod prelude {
    pub use mcfs::{McfsInstance, Solution, Solver, UniformFirst, Wma, WmaNaive};
    pub use mcfs_baselines::{BrnnBaseline, HilbertBaseline};
    pub use mcfs_exact::BranchAndBound;
    pub use mcfs_graph::{Graph, GraphBuilder, NodeId, Point};
}
