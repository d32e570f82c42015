//! Network substrate for the MCFS reproduction.
//!
//! This crate provides everything the Wide Matching Algorithm and its
//! baselines need from the underlying road network:
//!
//! * [`Graph`] — a compressed-sparse-row weighted graph with optional node
//!   coordinates, the representation of the paper's network `G = (V, E, W)`.
//! * [`dijkstra`] — one-to-all, radius-bounded, target-bounded and
//!   multi-source shortest path searches.
//! * [`DistanceOracle`] — a thread-safe memoizing facade over those
//!   searches with a bounded per-source row cache and a batched parallel
//!   entry point ([`oracle`], worker pool in [`par`]). Solvers share one
//!   oracle so each distance row is computed once per source node — per
//!   candidate site when the graph is symmetric and sites are the smaller
//!   side ([`Graph::is_symmetric`]), per customer otherwise.
//! * [`arena`] — the oracle's row engine: a zero-alloc Dial bucket ring
//!   (radix-heap fallback for huge weights) over a per-thread reusable
//!   search arena that searches only the intersections, the core of the
//!   graph's [`contraction`] (degree-2 road chains contracted to
//!   shortcuts, built once per graph). A [`Row`] keeps the core distances
//!   and reads any node on demand; [`fill_row`] expands a whole row in one
//!   linear pass. Both are byte-identical to [`dijkstra_all`], which stays
//!   the plain binary-heap reference.
//! * [`LazyDijkstra`] — a *resumable* Dijkstra that yields settled nodes in
//!   nondecreasing distance order. This is the per-customer nearest-neighbor
//!   stream the paper's `FindPair` routine consumes (Algorithm 2, line 6).
//! * [`components`] — connected components, needed by Algorithm 5
//!   (`CoverComponents`) and by the component-aware Hilbert baseline;
//!   labelled once per graph and cached by [`Graph::components`].
//! * [`hilbert`] — the Hilbert space-filling curve used by the Hilbert
//!   baseline (Section VII-A of the paper).
//! * [`geometry`] — planar points and a grid-bucket nearest-neighbor index
//!   used by generators and the Hilbert baseline's centroid snapping.
//! * [`apsp`] — a brute-force all-pairs-shortest-paths oracle used only by
//!   tests.
//!
//! Distances are integer (`u64`) edge weights, matching the paper's
//! "positive integer weights that model road segment lengths" and keeping the
//! whole solver stack deterministic across platforms.

#![warn(missing_docs)]

pub mod apsp;
pub mod arena;
pub mod components;
pub mod contraction;
pub mod csr;
pub mod dijkstra;
pub mod geometry;
pub mod hilbert;
pub mod lazy;
pub mod oracle;
pub mod par;

pub use arena::{fill_row, Row};
pub use components::{connected_components, ComponentInfo};
pub use contraction::Contraction;
pub use csr::{EdgeId, Graph, GraphBuilder, NodeId};
pub use dijkstra::{
    dijkstra_all, dijkstra_bounded, dijkstra_to_targets, multi_source_dijkstra, two_nearest_sources,
};
pub use geometry::{GridIndex, Point};
pub use hilbert::{hilbert_d2xy, hilbert_xy2d};
pub use lazy::LazyDijkstra;
pub use oracle::{DistanceOracle, OracleRunGuard, OracleStats};
pub use par::{available_threads, par_map_indexed};

/// Shortest-path distance type. `u64` accommodates sums over million-node
/// networks of meter-valued edges without overflow.
pub type Dist = u64;

/// Sentinel for "unreachable".
pub const INF: Dist = u64::MAX;
