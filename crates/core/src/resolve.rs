//! Incremental re-solving: the [`ReSolver`] delta-update engine.
//!
//! The paper motivates MCFS with *repeatedly solved* deployments — bike
//! docks are re-planned as commuter demand drifts, capacities shrink for
//! maintenance, candidate sites come and go — yet a plain solver starts
//! every run cold. `ReSolver` holds a solved instance together with the
//! shared [`DistanceOracle`] and accepts [`Edit`] scripts; re-solving then
//! reuses three kinds of work:
//!
//! 1. **Distance rows.** The oracle's row cache persists across solves.
//!    When facility rows apply (see [`crate::streams`]) customer edits
//!    never fill a row and each new candidate node fills one
//!    ([`SolveStats::oracle_nodes_settled`] shows the saving); otherwise
//!    the streams search lazily and the oracle holds no row.
//! 2. **Customer columns.** When facility rows apply, the session keeps
//!    each live customer's selection-phase stream (its column of the
//!    candidate rows, sorted) keyed by the customer's stable id, and hands
//!    the selection a rewound copy. Only arrivals have their columns read
//!    from the rows, in one batch, so a solve that moved no customer reads
//!    no row. A column depends on the customer's node and the candidate
//!    list alone: a candidate edit drops every column, a departure drops
//!    its own, capacity and budget edits keep them, and lazy streams keep
//!    none.
//! 3. **The final matching.** The closing optimal assignment is
//!    warm-started from the surviving matching: departed customers release
//!    their flow, capacity changes are synced, and each arrival costs one
//!    incremental `find_pair` instead of rebuilding all `m` units.
//!
//! # Equivalence argument (why warm cost == cold cost, always)
//!
//! WMA's objective is fully determined by the *selected set*: the final
//! step assigns all customers optimally onto the selection, and the
//! minimum-cost value of that bipartite assignment is unique. `ReSolver`
//! therefore re-runs the deterministic selection phase
//! (`Wma::select_facilities` — the exact code a cold solve runs) on the
//! edited instance, over streams that emit exactly what a cold solve's
//! would (a kept column is the stream a cold solve builds for that
//! customer), guaranteeing the warm selection equals the cold one,
//! and only warm-starts the final assignment. The warm matching is kept
//! only under a *dual certificate* ([`Matcher::slack_is_free`]): after
//! removals and capacity syncs, every facility with spare capacity must sit
//! at zero potential. Under that certificate the surviving matching is
//! minimum-cost for its demand vector over the complete bipartite graph
//! (reduced costs stay nonnegative on known edges, on undiscovered edges —
//! each customer's potential is bounded by its next stream cost — and on
//! the implicit sink arcs), and each arrival's `find_pair` preserves
//! optimality, so the warm objective *is* the optimal-assignment value. If
//! the certificate fails (e.g. a departure frees capacity on a facility
//! whose nonzero potential justified parking someone far away), the
//! assignment is rebuilt cold — same unique optimal value either way.
//!
//! ```
//! use mcfs::{Edit, McfsInstance, ReSolver, Wma};
//! use mcfs_graph::GraphBuilder;
//!
//! let mut b = GraphBuilder::new(5);
//! for i in 0..4 { b.add_edge(i, i + 1, 10); }
//! let g = b.build();
//! let inst = McfsInstance::builder(&g)
//!     .customers([0, 2, 4])
//!     .facility(1, 2)
//!     .facility(3, 2)
//!     .k(2)
//!     .build()
//!     .unwrap();
//! let mut rs = ReSolver::new(&inst, Wma::new());
//! let base = rs.solve().unwrap();
//! rs.apply(&[Edit::AddCustomer { node: 3 }]).unwrap();
//! let next = rs.solve().unwrap();
//! assert!(next.solution.objective >= base.solution.objective - 30);
//! rs.instance().verify(&next.solution).unwrap();
//! ```

use std::rc::Rc;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use mcfs_flow::Matcher;
use mcfs_graph::{DistanceOracle, Graph, NodeId};
use rustc_hash::FxHashMap;

use crate::assign::{assignment_matcher, complete_assignment};
use crate::instance::{Facility, McfsInstance, Solution};
use crate::parallel::run_oracle;
use crate::stats::{SolveStats, WmaPhase};

/// Process-wide warm/cold re-solve decision counters (Prometheus
/// exposition via `mcfs-obs`).
struct ResolveCounters {
    warm: mcfs_obs::Counter,
    cold: mcfs_obs::Counter,
}

fn resolve_counters() -> &'static ResolveCounters {
    static CELL: OnceLock<ResolveCounters> = OnceLock::new();
    CELL.get_or_init(|| {
        let r = mcfs_obs::Registry::global();
        ResolveCounters {
            warm: r.counter(
                "mcfs_resolve_warm_total",
                "Re-solves whose final assignment was warm-started",
            ),
            cold: r.counter(
                "mcfs_resolve_cold_total",
                "Re-solves that rebuilt the final assignment cold",
            ),
        }
    })
}
/// Publish a live phase-transition event; one relaxed load when nobody
/// subscribes.
#[inline]
fn publish_phase(name: &'static str, state: mcfs_obs::PhaseState) {
    if mcfs_obs::bus_enabled() {
        mcfs_obs::publish(mcfs_obs::Event::Phase { name, state });
    }
}

use crate::streams::{facility_rows_apply, CustomerStream, FacilityMap, OracleStream};
use crate::wma::Wma;
use crate::SolveError;

/// One mutation of a live instance. Indices refer to the *current* customer
/// / facility ordering at the time the edit is applied (edits in one script
/// see the effects of earlier edits in the same script).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Edit {
    /// A new customer appears at `node` (appended to the customer list).
    AddCustomer {
        /// Node the customer occupies.
        node: NodeId,
    },
    /// The customer at position `index` departs; later customers shift down.
    RemoveCustomer {
        /// Position in the current customer list.
        index: usize,
    },
    /// A new candidate facility opens at `node` (appended to the list).
    AddFacility {
        /// Node the facility occupies.
        node: NodeId,
        /// Its capacity.
        capacity: u32,
    },
    /// The candidate at position `index` is withdrawn; later candidates
    /// shift down.
    RemoveFacility {
        /// Position in the current facility list.
        index: usize,
    },
    /// The candidate at `index` changes capacity (up or down).
    SetCapacity {
        /// Position in the current facility list.
        index: usize,
        /// The new capacity.
        capacity: u32,
    },
    /// The selection budget changes.
    SetBudget {
        /// The new budget `k`.
        k: usize,
    },
}

/// Why an [`Edit`] was rejected. [`ReSolver::apply`] is atomic: a rejected
/// script leaves the instance exactly as it was.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EditError {
    /// `RemoveCustomer` index past the end of the customer list.
    CustomerOutOfRange {
        /// The offending index.
        index: usize,
        /// Customers present when the edit was applied.
        num_customers: usize,
    },
    /// Facility index past the end of the candidate list.
    FacilityOutOfRange {
        /// The offending index.
        index: usize,
        /// Candidates present when the edit was applied.
        num_facilities: usize,
    },
    /// A node id outside the graph.
    NodeOutOfRange {
        /// The offending node.
        node: NodeId,
        /// Nodes in the graph.
        num_nodes: usize,
    },
    /// Removing the last customer would leave nothing to solve.
    WouldEmptyCustomers,
    /// The edit would leave `k` outside `1..=ℓ` (shrink the budget first,
    /// or use [`Edit::SetBudget`] with a valid value).
    WouldBreakBudget {
        /// The budget after the edit.
        k: usize,
        /// The candidate count after the edit.
        num_facilities: usize,
    },
}

impl std::fmt::Display for EditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EditError::CustomerOutOfRange {
                index,
                num_customers,
            } => write!(f, "customer index {index} out of range ({num_customers})"),
            EditError::FacilityOutOfRange {
                index,
                num_facilities,
            } => write!(f, "facility index {index} out of range ({num_facilities})"),
            EditError::NodeOutOfRange { node, num_nodes } => {
                write!(f, "node {node} out of range ({num_nodes})")
            }
            EditError::WouldEmptyCustomers => write!(f, "edit would remove the last customer"),
            EditError::WouldBreakBudget { k, num_facilities } => {
                write!(
                    f,
                    "edit would leave budget k={k} outside 1..={num_facilities}"
                )
            }
        }
    }
}

impl std::error::Error for EditError {}

/// The result of one [`ReSolver::solve`]: the (optimal-for-WMA) solution,
/// substrate instrumentation, and whether the assignment phase ran warm.
#[derive(Clone, Debug)]
pub struct ReSolveRun {
    /// The solution for the current (edited) instance. Identical in cost to
    /// a cold `Wma` solve of the same instance.
    pub solution: Solution,
    /// Phase timings, oracle cache deltas and matcher augmentations.
    pub solve_stats: SolveStats,
    /// `true` when the final assignment was warm-started from the surviving
    /// matching; `false` on the first solve, on selection changes, or when
    /// the dual certificate forced a cold assignment rebuild.
    pub warm: bool,
}

impl ReSolveRun {
    /// Render as stable `key value` lines: the solution headline followed by
    /// the [`SolveStats`] rendering. This is the payload the serving layer's
    /// `STATS` reply carries and what the examples print — one format, no
    /// ad-hoc debug dumps.
    pub fn to_kv_lines(&self) -> Vec<String> {
        let mut out = vec![
            format!("warm {}", u8::from(self.warm)),
            format!("objective {}", self.solution.objective),
            format!("selected {}", self.solution.facilities.len()),
            format!("assigned {}", self.solution.assignment.len()),
        ];
        out.extend(self.solve_stats.to_kv_lines());
        out
    }
}

impl std::fmt::Display for ReSolveRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for line in self.to_kv_lines() {
            writeln!(f, "{line}")?;
        }
        Ok(())
    }
}

/// Retained assignment-phase state between solves.
struct WarmState<'g> {
    matcher: Matcher<CustomerStream<'g>>,
    /// Stable ids of the selected facilities, in selection order (matcher
    /// facility position `p` serves the facility with id `sel_ids[p]`).
    sel_ids: Vec<u64>,
    /// Node → selection positions, for minting arrival streams.
    fac_map: FacilityMap,
    /// Stable customer id → matcher slot.
    slots: FxHashMap<u64, usize>,
}

/// Each live customer's selection-phase column: the never-advanced
/// [`OracleStream`] that [`CustomerStream::for_customers`] reads from the
/// candidate rows, keyed by the customer's stable id. Held only while
/// facility rows apply; one column is `ℓ × 16` bytes.
#[derive(Default)]
struct Columns {
    /// Stable ids of the candidates the columns list, in index order. A
    /// column names candidates by index and reads them at their nodes, so
    /// any other candidate list invalidates every column.
    fac_ids: Vec<u64>,
    by_customer: FxHashMap<u64, OracleStream>,
}

impl Columns {
    /// One fresh selection stream per customer of `inst` (stable ids
    /// `cust_ids`, candidate ids `fac_ids`), emitting what
    /// `CustomerStream::for_customers` over the whole instance would: a
    /// rewound copy of each kept column, after reading the arrivals'
    /// columns from the cached rows in one batch. Lazy streams are built
    /// afresh and drop every column.
    fn streams<'g>(
        &mut self,
        inst: &McfsInstance<'g>,
        cust_ids: &[u64],
        fac_ids: &[u64],
        oracle: &DistanceOracle,
    ) -> Vec<CustomerStream<'g>> {
        let (graph, customers, m) = (inst.graph(), inst.customers(), inst.num_customers());
        let fac_map = Rc::new(inst.facilities_by_node());
        if !facility_rows_apply(graph, m, fac_map.len()) {
            *self = Self::default();
            return CustomerStream::for_customers(graph, customers, m, fac_map, oracle);
        }
        if self.fac_ids != fac_ids {
            self.by_customer.clear();
            self.fac_ids = fac_ids.to_vec();
        }
        // Customer ids ascend: an arrival takes a fresh, larger id at the
        // end of the list and a departure keeps the others' order.
        debug_assert!(cust_ids.is_sorted());
        self.by_customer
            .retain(|id, _| cust_ids.binary_search(id).is_ok());
        let (arrivals, nodes): (Vec<u64>, Vec<NodeId>) = cust_ids
            .iter()
            .zip(customers)
            .filter(|(id, _)| !self.by_customer.contains_key(id))
            .map(|(&id, &node)| (id, node))
            .unzip();
        if !nodes.is_empty() {
            let built = CustomerStream::for_customers(graph, &nodes, m, fac_map, oracle);
            for (id, stream) in arrivals.into_iter().zip(built) {
                let CustomerStream::Precomputed(column) = stream else {
                    unreachable!("facility rows apply, so every stream replays them");
                };
                self.by_customer.insert(id, column);
            }
        }
        cust_ids
            .iter()
            .map(|id| CustomerStream::Precomputed(self.by_customer[id].clone()))
            .collect()
    }
}

/// Delta-update engine over a live MCFS instance (see the [module
/// docs](self) for the design and the warm/cold equivalence argument).
///
/// Not `Send`: the retained matcher holds `Rc`-shared lazy streams, like
/// the solvers themselves. Share work across threads via the oracle
/// instead.
pub struct ReSolver<'g> {
    graph: &'g Graph,
    customers: Vec<NodeId>,
    /// Stable per-customer ids, index-aligned with `customers`. Positions
    /// shift on removal; ids never do, which is what lets the warm path
    /// diff "who left / who arrived" between solves.
    cust_ids: Vec<u64>,
    facilities: Vec<Facility>,
    /// Stable per-facility ids, index-aligned with `facilities`.
    fac_ids: Vec<u64>,
    next_id: u64,
    k: usize,
    wma: Wma,
    oracle: Arc<DistanceOracle>,
    columns: Columns,
    warm: Option<WarmState<'g>>,
}

impl<'g> ReSolver<'g> {
    /// Wrap `inst` for repeated solving with the given WMA configuration.
    ///
    /// The engine holds one oracle for its whole life, so facility rows
    /// outlive a single solve: it adopts `wma.oracle` when set, otherwise
    /// it creates a fresh oracle with `wma.threads` workers. Like a cold
    /// `Wma` run, it reads facility rows when they apply and streams lazily
    /// otherwise, whatever the thread count; the oracle never changes
    /// solutions, only wall time, so results equal a cold `Wma` solve.
    pub fn new(inst: &McfsInstance<'g>, wma: Wma) -> Self {
        let oracle = run_oracle(wma.threads, wma.oracle.as_ref());
        let m = inst.num_customers() as u64;
        let l = inst.num_facilities() as u64;
        Self {
            graph: inst.graph(),
            customers: inst.customers().to_vec(),
            cust_ids: (0..m).collect(),
            facilities: inst.facilities().to_vec(),
            fac_ids: (m..m + l).collect(),
            next_id: m + l,
            k: inst.k(),
            wma,
            oracle,
            columns: Columns::default(),
            warm: None,
        }
    }

    /// Adopt an already-solved instance (e.g. restored from a checkpoint
    /// written with `mcfs-io`): the warm state is rebuilt by re-running the
    /// optimal assignment onto `solution`'s selection, so the next
    /// [`solve`](Self::solve) can go warm if the selection survives.
    ///
    /// `solution` must belong to `inst` (the checkpoint reader verifies
    /// this); fails with [`SolveError::AssignmentFailed`] only if its
    /// selection cannot host the customers.
    pub fn from_solved(
        inst: &McfsInstance<'g>,
        wma: Wma,
        solution: &Solution,
    ) -> Result<Self, SolveError> {
        let mut rs = Self::new(inst, wma);
        let (mut matcher, fac_map) = assignment_matcher(inst, &solution.facilities, &rs.oracle);
        complete_assignment(&mut matcher, inst.num_customers())?;
        let sel_ids = solution
            .facilities
            .iter()
            .map(|&j| rs.fac_ids[j as usize])
            .collect();
        let slots = rs
            .cust_ids
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, i))
            .collect();
        rs.warm = Some(WarmState {
            matcher,
            sel_ids,
            fac_map,
            slots,
        });
        Ok(rs)
    }

    /// The shared distance oracle (pass clones to other solvers to share
    /// its row cache).
    pub fn oracle(&self) -> &Arc<DistanceOracle> {
        &self.oracle
    }

    /// Current customer locations.
    pub fn customers(&self) -> &[NodeId] {
        &self.customers
    }

    /// Current candidate facilities.
    pub fn facilities(&self) -> &[Facility] {
        &self.facilities
    }

    /// Current budget.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Customer columns the session holds (see the [module docs](self)):
    /// one per live customer after a solve that read facility rows, none
    /// while its streams are lazy.
    pub fn columns_held(&self) -> usize {
        self.columns.by_customer.len()
    }

    /// Materialize the current (edited) instance — e.g. for verification or
    /// for archiving next to a solution as a checkpoint.
    pub fn instance(&self) -> McfsInstance<'g> {
        McfsInstance::builder(self.graph)
            .customers(self.customers.iter().copied())
            .facilities(self.facilities.iter().copied())
            .k(self.k)
            .build()
            .expect("ReSolver edits keep the instance well-formed")
    }

    /// Apply an edit script atomically: either every edit is applied (in
    /// order, later edits seeing earlier ones) or none is and the error
    /// names the first offender. Cheap — no solving happens until
    /// [`solve`](Self::solve).
    pub fn apply(&mut self, edits: &[Edit]) -> Result<(), EditError> {
        let mut customers = self.customers.clone();
        let mut cust_ids = self.cust_ids.clone();
        let mut facilities = self.facilities.clone();
        let mut fac_ids = self.fac_ids.clone();
        let mut k = self.k;
        let mut next_id = self.next_id;
        let num_nodes = self.graph.num_nodes();

        for &edit in edits {
            match edit {
                Edit::AddCustomer { node } => {
                    if node as usize >= num_nodes {
                        return Err(EditError::NodeOutOfRange { node, num_nodes });
                    }
                    customers.push(node);
                    cust_ids.push(next_id);
                    next_id += 1;
                }
                Edit::RemoveCustomer { index } => {
                    if index >= customers.len() {
                        return Err(EditError::CustomerOutOfRange {
                            index,
                            num_customers: customers.len(),
                        });
                    }
                    if customers.len() == 1 {
                        return Err(EditError::WouldEmptyCustomers);
                    }
                    customers.remove(index);
                    cust_ids.remove(index);
                }
                Edit::AddFacility { node, capacity } => {
                    if node as usize >= num_nodes {
                        return Err(EditError::NodeOutOfRange { node, num_nodes });
                    }
                    facilities.push(Facility { node, capacity });
                    fac_ids.push(next_id);
                    next_id += 1;
                }
                Edit::RemoveFacility { index } => {
                    if index >= facilities.len() {
                        return Err(EditError::FacilityOutOfRange {
                            index,
                            num_facilities: facilities.len(),
                        });
                    }
                    if facilities.len() <= k {
                        return Err(EditError::WouldBreakBudget {
                            k,
                            num_facilities: facilities.len() - 1,
                        });
                    }
                    facilities.remove(index);
                    fac_ids.remove(index);
                }
                Edit::SetCapacity { index, capacity } => {
                    if index >= facilities.len() {
                        return Err(EditError::FacilityOutOfRange {
                            index,
                            num_facilities: facilities.len(),
                        });
                    }
                    facilities[index].capacity = capacity;
                }
                Edit::SetBudget { k: new_k } => {
                    if new_k == 0 || new_k > facilities.len() {
                        return Err(EditError::WouldBreakBudget {
                            k: new_k,
                            num_facilities: facilities.len(),
                        });
                    }
                    k = new_k;
                }
            }
        }

        self.customers = customers;
        self.cust_ids = cust_ids;
        self.facilities = facilities;
        self.fac_ids = fac_ids;
        self.k = k;
        self.next_id = next_id;
        // Edits never mutate the graph itself, but a committed script is the
        // natural barrier at which the oracle's row cache is re-keyed to the
        // graph it will serve next.
        self.oracle.revalidate(self.graph);
        Ok(())
    }

    /// Solve the current instance. The first call (and any call after a
    /// selection change or failed certificate) runs the assignment cold;
    /// later calls warm-start it from the surviving matching. The returned
    /// cost always equals a cold `Wma` solve of the same instance.
    pub fn solve(&mut self) -> Result<ReSolveRun, SolveError> {
        let _solve_span = mcfs_obs::span("resolve.solve");
        let inst = self.instance();
        let feas = inst.check_feasibility().map_err(SolveError::Infeasible)?;
        let mut solve_stats = SolveStats::for_threads(self.oracle.threads());
        // Per-run attribution: the oracle may be shared (e.g. several
        // sessions over one graph), so count only this call stack's queries
        // rather than diffing the global counters.
        let oracle_run = self.oracle.begin_run();

        // Selection: identical deterministic code to a cold Wma::run.
        let selection_span = mcfs_obs::span("resolve.selection");
        publish_phase("resolve.selection", mcfs_obs::PhaseState::Start);
        let (selection, _trace) =
            self.wma
                .select_facilities(&inst, &feas, &mut solve_stats, || {
                    self.columns
                        .streams(&inst, &self.cust_ids, &self.fac_ids, &self.oracle)
                })?;
        publish_phase("resolve.selection", mcfs_obs::PhaseState::End);
        drop(selection_span);
        let sel_ids: Vec<u64> = selection
            .iter()
            .map(|&j| self.fac_ids[j as usize])
            .collect();

        let t_assign = Instant::now();
        let assign_span = mcfs_obs::span("resolve.assignment");
        publish_phase("resolve.assignment", mcfs_obs::PhaseState::Start);
        let (facilities, assignment, objective, warm) = match self
            .try_warm(&sel_ids, &mut solve_stats)
        {
            Some((facilities, assignment, objective)) => (facilities, assignment, objective, true),
            None => {
                let (mut matcher, fac_map) = assignment_matcher(&inst, &selection, &self.oracle);
                let (assignment, objective) =
                    complete_assignment(&mut matcher, inst.num_customers())?;
                solve_stats.augmentations += matcher.augmentations();
                let slots = self
                    .cust_ids
                    .iter()
                    .enumerate()
                    .map(|(i, &id)| (id, i))
                    .collect();
                self.warm = Some(WarmState {
                    matcher,
                    sel_ids,
                    fac_map,
                    slots,
                });
                (selection, assignment, objective, false)
            }
        };
        publish_phase("resolve.assignment", mcfs_obs::PhaseState::End);
        drop(assign_span);
        let counters = resolve_counters();
        if warm {
            counters.warm.inc();
        } else {
            counters.cold.inc();
        }
        if mcfs_obs::bus_enabled() {
            mcfs_obs::publish(mcfs_obs::Event::ResolveDone { warm, objective });
        }
        solve_stats.add_phase(WmaPhase::ASSIGNMENT.name, t_assign.elapsed());
        solve_stats.record_oracle_run(&oracle_run.stats());
        drop(oracle_run);

        Ok(ReSolveRun {
            solution: Solution {
                facilities,
                assignment,
                objective,
            },
            solve_stats,
            warm,
        })
    }

    /// Attempt the warm assignment path. `None` means "rebuild cold" (no
    /// retained state, the selected *set* changed, a matched facility
    /// shrank below its load, the dual certificate failed, or an arrival
    /// could not be placed); any partially mutated warm state is discarded
    /// in that case.
    ///
    /// `Some` returns `(facilities, assignment, objective)` with facilities
    /// listed in the *warm matcher's* position order — the selection phase
    /// may emit the same set in a different order after an edit (its
    /// iteration history shifts), and the retained matcher's facility
    /// positions are bound to the order it was built with. The solution is
    /// internally consistent either way, and order never affects cost.
    fn try_warm(
        &mut self,
        sel_ids: &[u64],
        solve_stats: &mut SolveStats,
    ) -> Option<(Vec<u32>, Vec<u32>, u64)> {
        let mut st = self.warm.take()?;
        {
            let mut a = st.sel_ids.clone();
            let mut b = sel_ids.to_vec();
            a.sort_unstable();
            b.sort_unstable();
            if a != b {
                return None;
            }
        }
        // Current facility index of each stable id (ids are unique).
        let fac_index: FxHashMap<u64, usize> = self
            .fac_ids
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, i))
            .collect();

        // Departures release their flow (always dual-safe).
        let current: FxHashMap<u64, usize> = self
            .cust_ids
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, i))
            .collect();
        let departed: Vec<usize> = st
            .slots
            .iter()
            .filter(|(id, _)| !current.contains_key(id))
            .map(|(_, &slot)| slot)
            .collect();
        for slot in departed {
            st.matcher.remove_customer(slot);
        }
        st.slots.retain(|id, _| current.contains_key(id));

        // Capacity sync (in matcher position order): a matched facility
        // below its load forces a rebuild.
        for (pos, id) in st.sel_ids.iter().enumerate() {
            let cap = self.facilities[fac_index[id]].capacity;
            if st.matcher.load(pos) > cap as usize {
                return None;
            }
            st.matcher.set_capacity(pos, cap);
        }

        // Dual certificate: every slack facility at zero potential.
        if !st.matcher.slack_is_free() {
            return None;
        }

        // Arrivals, in customer order: one incremental find_pair each. The
        // stream strategy is decided on the whole instance's customer count,
        // so an arrival reads the selection's facility rows (already cached)
        // whenever the cold assignment would have.
        let augs_before = st.matcher.augmentations();
        for (i, &id) in self.cust_ids.iter().enumerate() {
            if st.slots.contains_key(&id) {
                continue;
            }
            let stream = CustomerStream::for_customers(
                self.graph,
                &self.customers[i..=i],
                self.customers.len(),
                Rc::clone(&st.fac_map),
                &self.oracle,
            )
            .pop()
            .expect("one stream per customer");
            let slot = st.matcher.push_customer(stream);
            if st.matcher.find_pair(slot).is_err() {
                return None;
            }
            st.slots.insert(id, slot);
        }
        solve_stats.augmentations += st.matcher.augmentations() - augs_before;

        let assignment = self
            .cust_ids
            .iter()
            .map(|id| {
                let slot = st.slots[id];
                st.matcher
                    .matches_of(slot)
                    .next()
                    .expect("every live customer matched")
                    .0
            })
            .collect();
        let objective = st.matcher.total_cost();
        let facilities = st.sel_ids.iter().map(|id| fac_index[id] as u32).collect();
        self.warm = Some(st);
        Some((facilities, assignment, objective))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Solver;
    use mcfs_graph::GraphBuilder;

    fn grid(side: usize) -> Graph {
        let mut b = GraphBuilder::new(side * side);
        for r in 0..side {
            for c in 0..side {
                let v = (r * side + c) as NodeId;
                if c + 1 < side {
                    b.add_edge(v, v + 1, 3 + ((r * 7 + c) % 5) as u64);
                }
                if r + 1 < side {
                    b.add_edge(v, v + side as NodeId, 2 + ((r + c * 3) % 7) as u64);
                }
            }
        }
        b.build()
    }

    fn base_instance(g: &Graph) -> McfsInstance<'_> {
        McfsInstance::builder(g)
            .customers([0, 7, 14, 21, 3, 18, 24, 12])
            .facility(6, 3)
            .facility(8, 3)
            .facility(16, 3)
            .facility(22, 3)
            .facility(2, 2)
            .k(3)
            .build()
            .unwrap()
    }

    fn assert_matches_cold(rs: &mut ReSolver, run: &ReSolveRun) {
        let inst = rs.instance();
        inst.verify(&run.solution).unwrap();
        let cold = Wma::new().solve(&inst).unwrap();
        assert_eq!(run.solution.objective, cold.objective);
        // The warm path may emit the same selected set in the retained
        // matcher's order rather than the selection phase's.
        let mut warm_set = run.solution.facilities.clone();
        let mut cold_set = cold.facilities.clone();
        warm_set.sort_unstable();
        cold_set.sort_unstable();
        assert_eq!(warm_set, cold_set);
    }

    #[test]
    fn first_solve_is_cold_and_matches_wma() {
        let g = grid(5);
        let inst = base_instance(&g);
        let mut rs = ReSolver::new(&inst, Wma::new());
        let run = rs.solve().unwrap();
        assert!(!run.warm);
        assert_matches_cold(&mut rs, &run);
    }

    #[test]
    fn arrival_goes_warm_and_matches_cold() {
        let g = grid(5);
        let inst = base_instance(&g);
        let mut rs = ReSolver::new(&inst, Wma::new());
        let base = rs.solve().unwrap();
        rs.apply(&[Edit::AddCustomer { node: 13 }]).unwrap();
        let run = rs.solve().unwrap();
        assert_matches_cold(&mut rs, &run);
        if run.warm {
            // Warm assignment pays one augmentation per arrival, not per
            // customer; total augmentations must drop versus the baseline.
            assert!(run.solve_stats.augmentations < base.solve_stats.augmentations);
        }
    }

    #[test]
    fn departures_and_capacity_changes_match_cold() {
        let g = grid(5);
        let inst = base_instance(&g);
        let mut rs = ReSolver::new(&inst, Wma::new());
        rs.solve().unwrap();
        let scripts: Vec<Vec<Edit>> = vec![
            vec![Edit::RemoveCustomer { index: 2 }],
            vec![Edit::SetCapacity {
                index: 0,
                capacity: 5,
            }],
            vec![
                Edit::AddCustomer { node: 10 },
                Edit::RemoveCustomer { index: 0 },
            ],
            vec![Edit::AddFacility {
                node: 12,
                capacity: 4,
            }],
            vec![Edit::SetBudget { k: 4 }],
            vec![Edit::RemoveFacility { index: 5 }, Edit::SetBudget { k: 3 }],
        ];
        for script in scripts {
            rs.apply(&script).unwrap();
            let run = rs.solve().unwrap();
            assert_matches_cold(&mut rs, &run);
        }
    }

    #[test]
    fn edits_are_validated_and_atomic() {
        let g = grid(3);
        let inst = McfsInstance::builder(&g)
            .customers([0, 8])
            .facility(4, 2)
            .facility(2, 2)
            .k(1)
            .build()
            .unwrap();
        let mut rs = ReSolver::new(&inst, Wma::new());
        let before = (rs.customers().to_vec(), rs.facilities().to_vec(), rs.k());
        for (script, want) in [
            (
                vec![Edit::AddCustomer { node: 99 }],
                EditError::NodeOutOfRange {
                    node: 99,
                    num_nodes: 9,
                },
            ),
            (
                vec![
                    Edit::AddCustomer { node: 1 },
                    Edit::RemoveCustomer { index: 7 },
                ],
                EditError::CustomerOutOfRange {
                    index: 7,
                    num_customers: 3,
                },
            ),
            (
                vec![
                    Edit::RemoveCustomer { index: 0 },
                    Edit::RemoveCustomer { index: 0 },
                ],
                EditError::WouldEmptyCustomers,
            ),
            (
                vec![Edit::SetBudget { k: 3 }],
                EditError::WouldBreakBudget {
                    k: 3,
                    num_facilities: 2,
                },
            ),
            (
                vec![
                    Edit::RemoveFacility { index: 0 },
                    Edit::RemoveFacility { index: 0 },
                ],
                EditError::WouldBreakBudget {
                    k: 1,
                    num_facilities: 0,
                },
            ),
        ] {
            assert_eq!(rs.apply(&script).unwrap_err(), want);
            assert_eq!(
                (rs.customers().to_vec(), rs.facilities().to_vec(), rs.k()),
                before,
                "rejected script must not mutate the instance"
            );
        }
    }

    #[test]
    fn from_solved_enables_warm_restart() {
        let g = grid(5);
        let inst = base_instance(&g);
        let sol = Wma::new().solve(&inst).unwrap();
        let mut rs = ReSolver::from_solved(&inst, Wma::new(), &sol).unwrap();
        rs.apply(&[Edit::AddCustomer { node: 11 }]).unwrap();
        let run = rs.solve().unwrap();
        assert_matches_cold(&mut rs, &run);
    }

    #[test]
    fn oracle_rows_survive_across_solves() {
        let g = grid(5);
        let inst = base_instance(&g);
        let mut rs = ReSolver::new(&inst, Wma::new());
        let first = rs.solve().unwrap();
        assert!(first.solve_stats.cache_misses > 0);
        assert!(first.solve_stats.oracle_nodes_settled > 0);
        // Identical instance: second solve finds every row cached.
        let second = rs.solve().unwrap();
        assert_eq!(second.solve_stats.cache_misses, 0);
        assert_eq!(second.solve_stats.oracle_nodes_settled, 0);
        assert_eq!(second.solution, first.solution);
    }

    #[test]
    fn run_kv_lines_lead_with_the_headline() {
        let g = grid(5);
        let inst = base_instance(&g);
        let mut rs = ReSolver::new(&inst, Wma::new());
        let run = rs.solve().unwrap();
        let lines = run.to_kv_lines();
        assert_eq!(lines[0], "warm 0");
        assert_eq!(lines[1], format!("objective {}", run.solution.objective));
        assert_eq!(
            lines[2],
            format!("selected {}", run.solution.facilities.len())
        );
        assert!(lines.iter().any(|l| l.starts_with("augmentations ")));
        assert_eq!(run.to_string(), lines.join("\n") + "\n");
    }
}
