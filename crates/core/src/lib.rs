//! # mcfs — the Wide Matching Algorithm
//!
//! Implementation of the paper *Multicapacity Facility Selection in
//! Networks* (Logins, Karras, Jensen — ICDE 2019): select `k` out of `ℓ`
//! capacitated candidate facilities in a road network and assign every
//! customer to a selected facility within capacity, minimizing total network
//! distance. This is the hard, nonuniform capacitated k-median over a
//! network.
//!
//! The crate exposes:
//!
//! * [`McfsInstance`] / [`Solution`] — the problem and solution model, with
//!   full feasibility checking and end-to-end verification;
//! * [`Wma`] — the paper's contribution (Algorithms 1–5), with optional
//!   per-iteration instrumentation ([`stats::RunStats`]);
//! * [`WmaNaive`] — the greedy ablation of WMA used as a baseline
//!   (Section VII-A);
//! * [`UniformFirst`] — the "solve as uniform, then rematch" variant studied
//!   in Section VII-F;
//! * [`Solver`] — the common interface all algorithms (including the
//!   baselines and exact solver in sibling crates) implement.
//!
//! ```
//! use mcfs::{McfsInstance, Solver, Wma};
//! use mcfs_graph::GraphBuilder;
//!
//! let mut b = GraphBuilder::new(4);
//! b.add_edge(0, 1, 10);
//! b.add_edge(1, 2, 10);
//! b.add_edge(2, 3, 10);
//! let g = b.build();
//! let inst = McfsInstance::builder(&g)
//!     .customers([0, 3])
//!     .facility(1, 1)
//!     .facility(2, 1)
//!     .k(2)
//!     .build()
//!     .unwrap();
//! let sol = Wma::new().solve(&inst).unwrap();
//! assert_eq!(sol.objective, 20);
//! inst.verify(&sol).unwrap();
//! ```

#![warn(missing_docs)]

pub mod assign;
pub mod components;
pub mod cover;
pub mod greedy_add;
pub mod instance;
pub mod naive;
pub mod parallel;
pub mod refine;
pub mod resolve;
pub mod stats;
pub mod streams;
pub mod uniform_first;
pub mod wma;

pub use assign::{optimal_assignment, optimal_assignment_with};
pub use instance::{
    Facility, FeasibilityReport, Infeasibility, InstanceError, McfsInstance, Solution, VerifyError,
};
pub use naive::WmaNaive;
pub use parallel::{effective_threads, resolve_oracle, run_oracle};
pub use resolve::{Edit, EditError, ReSolveRun, ReSolver};
pub use stats::{SolveStats, WmaPhase};
pub use uniform_first::UniformFirst;
pub use wma::{DemandPolicy, TieBreak, Wma, WmaRun};

/// Errors surfaced while solving an instance.
#[derive(Clone, Debug)]
pub enum SolveError {
    /// No solution exists (Theorem 3's feasibility condition fails).
    Infeasible(Infeasibility),
    /// The chosen selection cannot host all customers — indicates a bug in a
    /// selection routine if the instance itself is feasible.
    AssignmentFailed {
        /// Customer that could not be placed.
        customer: usize,
    },
    /// The solver gave up within its configured budget (exact solver only).
    BudgetExhausted,
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::Infeasible(i) => write!(f, "infeasible instance: {i}"),
            SolveError::AssignmentFailed { customer } => {
                write!(f, "selection cannot host customer {customer}")
            }
            SolveError::BudgetExhausted => write!(f, "solver budget exhausted"),
        }
    }
}

impl std::error::Error for SolveError {}

/// Common interface for every MCFS algorithm in the workspace: WMA, its
/// naive ablation, the Uniform-First variant, the Hilbert and BRNN baselines
/// and the exact solver.
pub trait Solver {
    /// Produce a feasible solution (or report infeasibility / budget
    /// exhaustion).
    fn solve(&self, inst: &McfsInstance) -> Result<Solution, SolveError>;

    /// Short display name used by the experiment harness.
    fn name(&self) -> &'static str;
}
