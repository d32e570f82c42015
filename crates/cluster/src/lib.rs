//! `mcfs-cluster`: partition-and-merge solving for MCFS instances.
//!
//! The paper's WMA pipeline solves one instance on one machine; this crate
//! splits one instance into shards, solves them concurrently in-process,
//! and merges the results. A cluster solve runs in three stages:
//!
//! 1. **Partition** ([`partition`]) — split the network into balanced
//!    shards: connected components are binned greedily when the graph is
//!    disconnected; connected graphs are cut into Hilbert-curve bands over
//!    the node coordinates (BFS-order bands when there are no coordinates).
//!    Each shard carries an induced sub-graph (stamped with a distinct
//!    [`mcfs_graph::Graph::id_salt`] so shard rows never alias each other
//!    in a shared [`mcfs_graph::DistanceOracle`]), its customers and
//!    candidate facilities, and the index of *boundary* customers — those
//!    on nodes with at least one cut edge, whose best facility may live in
//!    another shard.
//! 2. **Solve** ([`ClusterSolver`]) — split the budget `k` across shards
//!    (per-shard feasibility minima, then a water-fill of the surplus, then
//!    a bounded Lagrangian price search that moves marginal budget to the
//!    shard that values it most, priced by warm `±1` re-solves of the
//!    incremental [`mcfs::ReSolver`]), and solve the shards concurrently on
//!    scoped threads.
//! 3. **Reconcile** — merge the shard selections and re-match
//!    *every* customer onto the merged selection on the full graph with
//!    the same SIA machinery as a cold solve's assignment phase. This
//!    subsumes boundary-customer reassignment: a boundary customer whose
//!    true nearest open facility sits across a cut edge is rewired here.
//!    The pass also certifies an optimality-gap bound: the capacity-
//!    respecting optimal assignment onto *all* `ℓ` candidates is a lower
//!    bound `LB ≤ OPT`, so `gap = (cost − LB) / LB` bounds the loss against
//!    any solver — including a cold WMA solve of the unsharded instance.
//!
//! Everything is deterministic: partitioning, budget split, tie-breaks and
//! reconciliation depend only on the instance, never on thread scheduling.

#![warn(missing_docs)]

pub mod partition;
pub mod solve;

pub use partition::{partition, Partition, PartitionStrategy, Shard};
pub use solve::{split_budget, ClusterOutcome, ClusterSolver};
