//! Incremental bipartite matching over lazily discovered edges — the paper's
//! `FindPair` routine (Algorithm 2) with the Theorem-1 pruning threshold.
//!
//! The matcher maintains a growing min-cost flow from customers (each matched
//! to a set of *distinct* facilities, one unit per facility — paper Section
//! IV-D sets all `G_b` edge capacities to 1) to capacitated facilities. Edges
//! of the conceptual complete bipartite graph `G_b` are materialized on
//! demand from per-customer [`EdgeStream`]s that yield candidates in
//! nondecreasing cost order.
//!
//! Each [`Matcher::find_pair`] call augments one unit of flow from a chosen
//! customer along a shortest path in the residual graph (computed with
//! reduced costs under nonnegative potentials, Equation (5) of the paper),
//! *rewiring* earlier assignments when beneficial. New edges are pulled from
//! the streams only while the optimality condition of Theorem 1 is
//! unsatisfied:
//!
//! ```text
//! sp.length ≤ min_v { v.dist + nextEdge(v).cost − v.p }
//! ```
//!
//! over customers `v` visited by the residual Dijkstra. Once the inequality
//! holds, no undiscovered edge can yield a shorter augmenting path, so the
//! running matching is optimal in the complete `G_b` — a fact the tests
//! verify against the dense transportation solver and a brute-force oracle.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::OnceLock;

use rustc_hash::FxHashMap;

use crate::stream::EdgeStream;

/// Committed augmenting paths between consecutive live progress events.
const AUGMENT_EVENT_STRIDE: u64 = 64;

/// Global-registry counters mirroring the per-matcher statistics fields.
/// The per-instance fields answer "what did *this* solve do"; these answer
/// "what has the process done" (Prometheus exposition via `mcfs-obs`).
struct ObsCounters {
    augmentations: mcfs_obs::Counter,
    dijkstra_runs: mcfs_obs::Counter,
    edges_added: mcfs_obs::Counter,
}

fn obs() -> &'static ObsCounters {
    static CELL: OnceLock<ObsCounters> = OnceLock::new();
    CELL.get_or_init(|| {
        let r = mcfs_obs::Registry::global();
        ObsCounters {
            augmentations: r.counter(
                "mcfs_matcher_augmentations_total",
                "Units of flow committed by the incremental matcher",
            ),
            dijkstra_runs: r.counter(
                "mcfs_matcher_dijkstra_runs_total",
                "Residual Dijkstra searches run by the incremental matcher",
            ),
            edges_added: r.counter(
                "mcfs_matcher_edges_added_total",
                "Lazy edges materialized into the bipartite graph",
            ),
        }
    })
}

/// Errors surfaced by [`Matcher::find_pair`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MatcherError {
    /// No augmenting path exists: every facility the customer can reach
    /// (directly or through rewiring chains) is saturated or already matched
    /// to it. With disconnected networks this is the expected signal that a
    /// customer's component is out of capacity.
    NoAugmentingPath {
        /// The customer whose demand could not be satisfied.
        customer: usize,
    },
}

impl std::fmt::Display for MatcherError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MatcherError::NoAugmentingPath { customer } => {
                write!(f, "no augmenting path for customer {customer}")
            }
        }
    }
}

impl std::error::Error for MatcherError {}

#[derive(Clone, Debug)]
struct KnownEdge {
    facility: u32,
    cost: u64,
    used: bool,
}

struct CustomerState<S> {
    stream: S,
    /// One-edge lookahead so the Theorem-1 threshold can inspect the next
    /// candidate weight without consuming it.
    lookahead: Option<(u32, u64)>,
    exhausted: bool,
    /// Largest cost pulled so far; streams must be nondecreasing.
    last_cost: u64,
    edges: Vec<KnownEdge>,
    /// facility -> index into `edges` (duplicate suppression + O(1) flip).
    edge_index: FxHashMap<u32, u32>,
    /// Number of used edges (= facilities this customer is matched to).
    matched: u32,
    potential: u64,
    /// Detached by [`Matcher::remove_customer`]; holds no flow and must not
    /// be passed to `find_pair` again. The slot stays allocated so other
    /// customers' indices remain stable.
    removed: bool,
}

struct FacilityState {
    capacity: u32,
    /// `(customer, cost)` pairs currently assigned here.
    holders: Vec<(u32, u64)>,
    potential: u64,
    /// Whether this facility has ever been discovered by any stream; only
    /// discovered facilities participate in `facilities_touched`.
    discovered: bool,
}

/// Which optimality threshold gates the lazy edge pulls.
///
/// The paper's Section V compares its Theorem-1 bound against the earlier
/// SIA bound of U et al. (Equations 11–12) and argues the former is tighter,
/// i.e. certifies optimality after fewer edge materializations. Both rules
/// are admissible (they never stop too early); `repro ablation` counts
/// `edges_added` under each.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum PruningRule {
    /// Paper Theorem 1: `sp.len ≤ min_v (v.dist + nextEdge(v) − v.p)`.
    #[default]
    Theorem1,
    /// U et al. (2010): `sp.len ≤ min_v (v.dist + nextEdge(v)) − τ_max`
    /// with `τ_max` the largest potential among visited customers.
    GlobalTauMax,
}

/// Incremental SSPA matcher over lazy edge streams (see module docs).
///
/// ```
/// use mcfs_flow::{Matcher, VecStream};
///
/// // One customer, three facilities; edges are discovered lazily in
/// // nondecreasing cost order.
/// let streams = vec![VecStream::from_row(&[5, 2, 9])];
/// let mut m = Matcher::new(streams, vec![1, 1, 1]);
/// assert_eq!(m.find_pair(0), Ok(1)); // nearest facility wins
/// assert_eq!(m.total_cost(), 2);
/// assert!(m.edges_added() <= 2);     // pruning kept the graph tiny
/// ```
pub struct Matcher<S> {
    customers: Vec<CustomerState<S>>,
    facilities: Vec<FacilityState>,
    total_cost: u64,
    // ---- Dijkstra scratch, versioned to avoid clearing (hot path) ----
    dist: Vec<u64>,
    parent: Vec<u32>,
    stamp: Vec<u32>,
    version: u32,
    /// The search's priority queue, kept across searches (each drains it).
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    /// Every slot the current search stamped, in stamp order (the source
    /// first): the visited nodes whose potentials an augmentation moves.
    touched: Vec<u32>,
    /// Statistics: residual Dijkstra executions (paper Fig. 12b discusses
    /// matching effort per iteration).
    dijkstra_runs: u64,
    /// Statistics: edges pulled from streams into `G_b`.
    edges_added: u64,
    /// Statistics: successful augmentations (units of flow committed).
    augmentations: u64,
    pruning: PruningRule,
}

impl<S: EdgeStream> Matcher<S> {
    /// Create a matcher for `streams.len()` customers and
    /// `capacities.len()` facilities. Stream facility indices must be
    /// `< capacities.len()`.
    pub fn new(streams: Vec<S>, capacities: Vec<u32>) -> Self {
        Self::with_pruning(streams, capacities, PruningRule::Theorem1)
    }

    /// Like [`Matcher::new`] but with an explicit [`PruningRule`] (used by
    /// the Section-V ablation).
    pub fn with_pruning(streams: Vec<S>, capacities: Vec<u32>, pruning: PruningRule) -> Self {
        let m = streams.len();
        let l = capacities.len();
        let customers = streams.into_iter().map(Self::fresh_customer).collect();
        let facilities = capacities
            .into_iter()
            .map(|capacity| FacilityState {
                capacity,
                holders: Vec::new(),
                potential: 0,
                discovered: false,
            })
            .collect();
        Self {
            customers,
            facilities,
            total_cost: 0,
            dist: vec![0; m + l],
            parent: vec![u32::MAX; m + l],
            stamp: vec![0; m + l],
            version: 0,
            heap: BinaryHeap::new(),
            touched: Vec::new(),
            dijkstra_runs: 0,
            edges_added: 0,
            augmentations: 0,
            pruning,
        }
    }

    fn fresh_customer(stream: S) -> CustomerState<S> {
        CustomerState {
            stream,
            lookahead: None,
            exhausted: false,
            last_cost: 0,
            edges: Vec::new(),
            edge_index: FxHashMap::default(),
            matched: 0,
            potential: 0,
            removed: false,
        }
    }

    /// Number of customers.
    pub fn num_customers(&self) -> usize {
        self.customers.len()
    }

    /// Number of facilities.
    pub fn num_facilities(&self) -> usize {
        self.facilities.len()
    }

    /// Total cost of all currently used edges.
    pub fn total_cost(&self) -> u64 {
        self.total_cost
    }

    /// Facilities customer `i` is currently matched to, with edge costs.
    pub fn matches_of(&self, i: usize) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.customers[i]
            .edges
            .iter()
            .filter(|e| e.used)
            .map(|e| (e.facility, e.cost))
    }

    /// Number of facilities customer `i` is matched to.
    pub fn match_count(&self, i: usize) -> usize {
        self.customers[i].matched as usize
    }

    /// Customers currently assigned to facility `j`, with edge costs.
    /// This is the paper's `σ_j(G_b)`.
    pub fn holders_of(&self, j: usize) -> &[(u32, u64)] {
        &self.facilities[j].holders
    }

    /// Current load of facility `j`.
    pub fn load(&self, j: usize) -> usize {
        self.facilities[j].holders.len()
    }

    /// Capacity of facility `j`.
    pub fn capacity(&self, j: usize) -> u32 {
        self.facilities[j].capacity
    }

    /// Number of residual-graph Dijkstra executions so far (profiling).
    pub fn dijkstra_runs(&self) -> u64 {
        self.dijkstra_runs
    }

    /// Number of `G_b` edges materialized so far (the paper's |E'|).
    pub fn edges_added(&self) -> u64 {
        self.edges_added
    }

    /// Number of successful augmentations (units of flow committed) so far.
    pub fn augmentations(&self) -> u64 {
        self.augmentations
    }

    /// Whether customer `i` has been detached by
    /// [`remove_customer`](Self::remove_customer).
    pub fn is_removed(&self, i: usize) -> bool {
        self.customers[i].removed
    }

    /// Append a new customer fed by `stream`; returns its index.
    ///
    /// The newcomer starts unmatched at zero potential, so every dual
    /// invariant (nonnegative reduced costs on known *and* undiscovered
    /// edges) holds trivially for it and the matching stays optimal for the
    /// unchanged demand vector. A subsequent [`find_pair`](Self::find_pair)
    /// folds it in incrementally.
    pub fn push_customer(&mut self, stream: S) -> usize {
        let i = self.customers.len();
        self.customers.push(Self::fresh_customer(stream));
        // Facility scratch slots shift from `m..m+l` to `m+1..m+1+l`; grow
        // the versioned arrays by one slot. Stale stamps are harmless:
        // searches pre-increment `version`, so no earlier stamp reads as
        // fresh.
        let n = self.customers.len() + self.facilities.len();
        self.dist.resize(n, 0);
        self.parent.resize(n, u32::MAX);
        self.stamp.resize(n, 0);
        i
    }

    /// Detach customer `i`: every unit of flow it holds is released (loads
    /// and total cost drop accordingly) and the slot is tombstoned.
    ///
    /// Potentials are untouched, which keeps all remaining reduced costs
    /// nonnegative — but facilities that regain slack here may hold nonzero
    /// potentials, in which case the surviving matching is *not* necessarily
    /// optimal for the reduced demands (see
    /// [`slack_is_free`](Self::slack_is_free) for the certificate).
    ///
    /// Idempotent; panics only if `i` is out of range.
    pub fn remove_customer(&mut self, i: usize) {
        for ei in 0..self.customers[i].edges.len() {
            let (used, j, w) = {
                let e = &self.customers[i].edges[ei];
                (e.used, e.facility as usize, e.cost)
            };
            if !used {
                continue;
            }
            self.customers[i].edges[ei].used = false;
            let pos = self.facilities[j]
                .holders
                .iter()
                .position(|&(c, _)| c as usize == i)
                .expect("holder entry missing during removal");
            self.facilities[j].holders.swap_remove(pos);
            self.total_cost -= w;
        }
        let c = &mut self.customers[i];
        c.matched = 0;
        c.removed = true;
        c.lookahead = None;
        c.exhausted = true;
    }

    /// Change facility `j`'s capacity. Panics if the new capacity is below
    /// the facility's current load — callers must rebuild (or shed load)
    /// instead, since the matcher never revokes committed flow on its own.
    pub fn set_capacity(&mut self, j: usize, capacity: u32) {
        assert!(
            self.facilities[j].holders.len() <= capacity as usize,
            "capacity {capacity} below current load {} of facility {j}",
            self.facilities[j].holders.len()
        );
        self.facilities[j].capacity = capacity;
    }

    /// Warm-start certificate: `true` iff every facility with spare capacity
    /// sits at zero potential.
    ///
    /// `find_pair` maintains this on its own (the nearest free facility is
    /// always the augmentation target, and only nodes strictly closer than
    /// the target gain potential), so on a matcher driven purely by
    /// `find_pair` this always holds. After external surgery —
    /// [`remove_customer`](Self::remove_customer) or a capacity increase —
    /// it can fail, and when it fails the surviving matching may admit a
    /// negative residual cycle through the implicit sink (a customer parked
    /// on a far facility while a freed near one has slack). When it holds,
    /// the current matching is minimum-cost for the current demand vector
    /// over the *complete* bipartite graph: reduced costs are nonnegative on
    /// known edges (maintained invariant), on undiscovered edges (each
    /// customer's potential never exceeds its next stream cost, by the
    /// Theorem-1 threshold), and on implicit sink arcs (zero slack
    /// potentials admit a zero sink potential).
    pub fn slack_is_free(&self) -> bool {
        self.facilities
            .iter()
            .all(|f| f.holders.len() >= f.capacity as usize || f.potential == 0)
    }

    /// Make sure customer `i`'s lookahead holds the next *new* candidate
    /// edge (skipping facilities already known to `i`).
    fn refill_lookahead(&mut self, i: usize) {
        let c = &mut self.customers[i];
        if c.lookahead.is_some() || c.exhausted {
            return;
        }
        loop {
            match c.stream.next_edge() {
                Some((j, w)) => {
                    debug_assert!(
                        w >= c.last_cost,
                        "edge stream must yield nondecreasing costs ({} after {})",
                        w,
                        c.last_cost
                    );
                    debug_assert!(
                        (j as usize) < self.facilities.len(),
                        "facility index out of range"
                    );
                    c.last_cost = w;
                    if c.edge_index.contains_key(&j) {
                        continue; // duplicate facility, keep pulling
                    }
                    c.lookahead = Some((j, w));
                    return;
                }
                None => {
                    c.exhausted = true;
                    return;
                }
            }
        }
    }

    /// Move customer `i`'s lookahead edge into the known bipartite graph.
    fn commit_lookahead(&mut self, i: usize) {
        let (j, w) = self.customers[i]
            .lookahead
            .take()
            .expect("no lookahead to commit");
        let c = &mut self.customers[i];
        c.edge_index.insert(j, c.edges.len() as u32);
        c.edges.push(KnownEdge {
            facility: j,
            cost: w,
            used: false,
        });
        self.facilities[j as usize].discovered = true;
        self.edges_added += 1;
        obs().edges_added.inc();
    }

    /// Augment one unit of flow from `customer` to some facility it is not
    /// yet matched to, rewiring earlier matches if beneficial; returns the
    /// facility that gained a unit of load.
    ///
    /// After the call, the overall matching (given every customer's current
    /// match count as its demand) is minimum-cost over the *complete*
    /// bipartite graph, per Theorem 1.
    pub fn find_pair(&mut self, customer: usize) -> Result<usize, MatcherError> {
        assert!(
            !self.customers[customer].removed,
            "find_pair on removed customer {customer}"
        );
        let m = self.customers.len();
        loop {
            // Shortest-path search over the currently known residual graph;
            // `target` is the nearest free facility, if any.
            let target = self.residual_dijkstra(customer);

            // Threshold: a lower bound on any path through a
            // not-yet-materialized edge, computed over every customer the
            // search reached (`visited ∩ S` in the paper). `Theorem1`
            // subtracts each node's own potential; `GlobalTauMax` subtracts
            // the worst potential globally (the older, looser SIA rule).
            let mut best_key: Option<(i128, u32)> = None;
            let mut tau_max: i128 = 0;
            for idx in 0..self.touched.len() {
                let v = self.touched[idx];
                if v as usize >= m {
                    continue;
                }
                self.refill_lookahead(v as usize);
                let c = &self.customers[v as usize];
                tau_max = tau_max.max(c.potential as i128);
                if let Some((_, w)) = c.lookahead {
                    let key = match self.pruning {
                        PruningRule::Theorem1 => {
                            self.dist[v as usize] as i128 + w as i128 - c.potential as i128
                        }
                        PruningRule::GlobalTauMax => self.dist[v as usize] as i128 + w as i128,
                    };
                    if best_key.is_none_or(|(bk, _)| key < bk) {
                        best_key = Some((key, v));
                    }
                }
            }
            if self.pruning == PruningRule::GlobalTauMax {
                best_key = best_key.map(|(k, v)| (k - tau_max, v));
            }

            match (target, best_key) {
                (Some((dt, _)), Some((key, expand))) if (dt as i128) > key => {
                    // A hidden edge might beat the current path: materialize
                    // the most promising candidate and retry.
                    self.commit_lookahead(expand as usize);
                }
                (Some((dt, t)), _) => {
                    // Optimal within the complete graph: augment.
                    self.apply_augmentation(customer, dt, t, m);
                    return Ok(t as usize - m);
                }
                (None, Some((_, expand))) => {
                    // No path yet; keep enriching the graph.
                    self.commit_lookahead(expand as usize);
                }
                (None, None) => {
                    return Err(MatcherError::NoAugmentingPath { customer });
                }
            }
        }
    }

    /// Dijkstra over the known residual graph from `customer`, using reduced
    /// costs. Returns the best free-facility target as `(reduced distance,
    /// node id)`; the visited nodes are left in `touched`.
    fn residual_dijkstra(&mut self, customer: usize) -> Option<(u64, u32)> {
        self.dijkstra_runs += 1;
        obs().dijkstra_runs.inc();
        let m = self.customers.len();
        self.version += 1;
        let version = self.version;
        self.heap.clear();
        self.touched.clear();

        let s = customer as u32;
        self.dist[customer] = 0;
        self.parent[customer] = u32::MAX;
        self.stamp[customer] = version;
        self.touched.push(s);
        self.heap.push(Reverse((0, s)));

        let mut target: Option<(u64, u32)> = None;

        while let Some(Reverse((d, v))) = self.heap.pop() {
            if d > self.dist[v as usize] {
                continue; // stale
            }
            let vu = v as usize;
            if vu >= m {
                let j = vu - m;
                let f = &self.facilities[j];
                if f.holders.len() < f.capacity as usize && target.is_none() {
                    // Nearest free facility: pops are nondecreasing, so the
                    // first free facility popped is the best target. We keep
                    // settling the rest of the reachable residual graph so
                    // the Theorem-1 threshold is computed from *exact*
                    // distances of every visited customer.
                    target = Some((d, v));
                }
                // Backward arcs: facility -> each holder.
                let fp = f.potential;
                for hi in 0..self.facilities[j].holders.len() {
                    let (i, w) = self.facilities[j].holders[hi];
                    let cp = self.customers[i as usize].potential;
                    debug_assert!(cp >= w + fp, "negative reduced cost on backward arc");
                    let rc = cp - w - fp;
                    self.relax(v, i, d + rc, version);
                }
            } else {
                // Forward arcs: customer -> every known unused facility edge.
                let cp = self.customers[vu].potential;
                for ei in 0..self.customers[vu].edges.len() {
                    let e = &self.customers[vu].edges[ei];
                    if e.used {
                        continue;
                    }
                    let (j, w) = (e.facility, e.cost);
                    let fp = self.facilities[j as usize].potential;
                    debug_assert!(w + fp >= cp, "negative reduced cost on forward arc");
                    let rc = w + fp - cp;
                    self.relax(v, m as u32 + j, d + rc, version);
                }
            }
        }

        target
    }

    #[inline]
    fn relax(&mut self, from: u32, to: u32, nd: u64, version: u32) {
        let tu = to as usize;
        if self.stamp[tu] != version {
            self.stamp[tu] = version;
            self.dist[tu] = u64::MAX;
            self.parent[tu] = u32::MAX;
            self.touched.push(to);
        }
        if nd < self.dist[tu] {
            self.dist[tu] = nd;
            self.parent[tu] = from;
            self.heap.push(Reverse((nd, to)));
        }
    }

    /// Whether `touched` lists exactly the slots stamped with the current
    /// version, each once — the invariant that lets an augmentation move
    /// potentials over `touched` instead of scanning every slot. Each
    /// listed slot is marked with an older version while it is checked (a
    /// repeat then finds its mark), the rest are scanned, and the stamps
    /// are restored; nothing is allocated.
    fn touched_is_exactly_stamped(&mut self) -> bool {
        let version = self.version;
        let mut exact = true;
        for &v in &self.touched {
            exact &= self.stamp[v as usize] == version;
            self.stamp[v as usize] = version - 1;
        }
        exact &= !self.stamp.contains(&version);
        for &v in &self.touched {
            self.stamp[v as usize] = version;
        }
        exact
    }

    /// Flip the edges of the found augmenting path and update potentials
    /// (paper Algorithm 2, lines 13–17).
    fn apply_augmentation(&mut self, source: usize, dt: u64, t: u32, m: usize) {
        let _span = mcfs_obs::span("matcher.augment");
        self.augmentations += 1;
        obs().augmentations.inc();
        // Live progress: one event per stride of committed augmenting paths
        // keeps watcher traffic bounded on large instances while still
        // showing movement between solver iterations.
        if mcfs_obs::bus_enabled() && self.augmentations.is_multiple_of(AUGMENT_EVENT_STRIDE) {
            mcfs_obs::publish(mcfs_obs::Event::Augmentations {
                total: self.augmentations,
            });
        }
        // Potentials: π_v += δ(t) − min(δ(v), δ(t)) over touched nodes.
        // Unsettled touched nodes have δ(v) ≥ δ(t), so only strictly closer
        // nodes move — exactly line 17 of Algorithm 2.
        debug_assert!(
            self.touched_is_exactly_stamped(),
            "the search's touched list must be exactly its stamped slots"
        );
        for &v in &self.touched {
            let idx = v as usize;
            if self.dist[idx] < dt {
                let delta = dt - self.dist[idx];
                if idx < m {
                    self.customers[idx].potential += delta;
                } else {
                    self.facilities[idx - m].potential += delta;
                }
            }
        }

        // Walk the parent chain target -> source, flipping edge usage.
        let mut node = t;
        loop {
            let prev = self.parent[node as usize];
            debug_assert_ne!(prev, u32::MAX, "path must reach the source");
            if node as usize >= m {
                // prev (customer) -> node (facility): use the edge.
                let i = prev as usize;
                let j = node as usize - m;
                let ei = self.customers[i].edge_index[&(j as u32)] as usize;
                let e = &mut self.customers[i].edges[ei];
                debug_assert!(!e.used);
                e.used = true;
                let w = e.cost;
                self.customers[i].matched += 1;
                self.facilities[j].holders.push((prev, w));
                self.total_cost += w;
            } else {
                // prev (facility) -> node (customer): release the edge.
                let i = node as usize;
                let j = prev as usize - m;
                let ei = self.customers[i].edge_index[&(j as u32)] as usize;
                let e = &mut self.customers[i].edges[ei];
                debug_assert!(e.used);
                e.used = false;
                let w = e.cost;
                self.customers[i].matched -= 1;
                let pos = self.facilities[j]
                    .holders
                    .iter()
                    .position(|&(c, _)| c == node)
                    .expect("holder missing during augmentation");
                self.facilities[j].holders.swap_remove(pos);
                self.total_cost -= w;
            }
            node = prev;
            if node as usize == source && (node as usize) < m {
                break;
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;
    use crate::brute::brute_min_cost_assignment;
    use crate::stream::VecStream;
    use crate::transport::{solve_transportation, TransportProblem};
    use crate::INF_COST;
    use proptest::prelude::*;

    fn matcher_from_rows(rows: &[Vec<u64>], caps: &[u32]) -> Matcher<VecStream> {
        let streams = rows.iter().map(|r| VecStream::from_row(r)).collect();
        Matcher::new(streams, caps.to_vec())
    }

    #[test]
    fn single_customer_picks_nearest() {
        let mut m = matcher_from_rows(&[vec![5, 2, 9]], &[1, 1, 1]);
        assert_eq!(m.find_pair(0), Ok(1));
        assert_eq!(m.total_cost(), 2);
        assert_eq!(m.match_count(0), 1);
        assert_eq!(m.load(1), 1);
    }

    #[test]
    fn second_call_matches_second_nearest() {
        let mut m = matcher_from_rows(&[vec![5, 2, 9]], &[1, 1, 1]);
        m.find_pair(0).unwrap();
        assert_eq!(m.find_pair(0), Ok(0));
        assert_eq!(m.total_cost(), 7);
        assert_eq!(m.match_count(0), 2);
        let mut fs: Vec<u32> = m.matches_of(0).map(|(j, _)| j).collect();
        fs.sort_unstable();
        assert_eq!(fs, vec![0, 1]);
    }

    #[test]
    fn rewiring_happens() {
        // The paper's Figure 4c scenario in miniature: customer 1 takes the
        // shared facility; when customer 0 arrives, 1 is rewired away.
        let rows = vec![vec![1, 100], vec![1, 2]];
        let mut m = matcher_from_rows(&rows, &[1, 1]);
        m.find_pair(1).unwrap();
        assert_eq!(m.total_cost(), 1); // customer 1 on facility 0
        m.find_pair(0).unwrap();
        // Optimal: 0 -> facility 0 (1), 1 -> facility 1 (2). Total 3, not 102.
        assert_eq!(m.total_cost(), 3);
        assert_eq!(m.matches_of(0).next().unwrap().0, 0);
        assert_eq!(m.matches_of(1).next().unwrap().0, 1);
    }

    #[test]
    fn no_augmenting_path() {
        let rows = vec![vec![1, INF_COST], vec![INF_COST, INF_COST]];
        let mut m = matcher_from_rows(&rows, &[1, 1]);
        assert_eq!(m.find_pair(0), Ok(0));
        assert_eq!(
            m.find_pair(1),
            Err(MatcherError::NoAugmentingPath { customer: 1 })
        );
        // Failure leaves the existing matching intact.
        assert_eq!(m.total_cost(), 1);
        assert_eq!(m.match_count(1), 0);
    }

    #[test]
    fn capacity_saturation_forces_chain() {
        // One big facility everyone prefers with capacity 2, one remote.
        let rows = vec![vec![1, 10], vec![2, 10], vec![3, 10]];
        let mut m = matcher_from_rows(&rows, &[2, 3]);
        for i in 0..3 {
            m.find_pair(i).unwrap();
        }
        // Optimum: two cheapest into facility 0, most expensive into 1...
        // cost options: {0,1}->f0, 2->f1 = 1+2+10 = 13; alternatives worse.
        assert_eq!(m.total_cost(), 13);
        assert_eq!(m.load(0), 2);
        assert_eq!(m.load(1), 1);
    }

    #[test]
    fn matches_dense_oracle_after_each_unit() {
        let rows = vec![vec![3, 7, 2, 9], vec![4, 1, 8, 6], vec![5, 5, 5, 5]];
        let caps = vec![2, 2, 1, 1];
        let mut m = matcher_from_rows(&rows, &caps);
        // Interleave augmentations across customers and check global
        // optimality of the running matching after each one (demands grow).
        let order = [0usize, 1, 2, 0, 2, 1];
        let mut demands = vec![0u32; 3];
        for &c in &order {
            m.find_pair(c).unwrap();
            demands[c] += 1;
            let want = brute_min_cost_assignment(&rows, &caps, &demands).unwrap();
            assert_eq!(
                m.total_cost(),
                want,
                "after raising demand of {c} to {}",
                demands[c]
            );
        }
    }

    #[test]
    fn pulls_few_edges_when_pruning_works() {
        // 1 customer, 100 facilities; only the nearest edge should be pulled
        // plus the lookahead needed to certify the threshold.
        let row: Vec<u64> = (0..100u64).map(|j| 10 + j).collect();
        let mut m = matcher_from_rows(&[row], &vec![1; 100]);
        m.find_pair(0).unwrap();
        assert!(m.edges_added() <= 2, "pulled {} edges", m.edges_added());
    }

    #[test]
    fn tau_max_rule_is_also_optimal_but_pulls_no_fewer_edges() {
        let rows = [vec![3u64, 7, 2, 9], vec![4, 1, 8, 6], vec![5, 5, 5, 5]];
        let caps = vec![2u32, 2, 1, 1];
        let build = |rule: PruningRule| {
            let streams: Vec<VecStream> = rows.iter().map(|r| VecStream::from_row(r)).collect();
            Matcher::with_pruning(streams, caps.clone(), rule)
        };
        let mut a = build(PruningRule::Theorem1);
        let mut b = build(PruningRule::GlobalTauMax);
        for i in [0usize, 1, 2, 0, 2, 1] {
            a.find_pair(i).unwrap();
            b.find_pair(i).unwrap();
            assert_eq!(a.total_cost(), b.total_cost(), "both rules stay optimal");
        }
        assert!(
            b.edges_added() >= a.edges_added(),
            "Theorem 1 is at least as tight: {} vs {}",
            a.edges_added(),
            b.edges_added()
        );
    }

    proptest! {
        /// The looser τ_max rule never changes the computed optimum.
        #[test]
        fn tau_max_matches_theorem1_on_random_instances(
            m_cnt in 1usize..5,
            l_cnt in 1usize..5,
            costs in proptest::collection::vec(0u64..100, 25),
            caps in proptest::collection::vec(1u32..3, 5),
        ) {
            let rows: Vec<Vec<u64>> = (0..m_cnt)
                .map(|i| (0..l_cnt).map(|j| costs[(i * 5 + j) % 25]).collect())
                .collect();
            let capacities: Vec<u32> = caps[..l_cnt].to_vec();
            prop_assume!(capacities.iter().sum::<u32>() as usize >= m_cnt);
            let mk = |rule| {
                let streams: Vec<VecStream> =
                    rows.iter().map(|r| VecStream::from_row(r)).collect();
                Matcher::with_pruning(streams, capacities.clone(), rule)
            };
            let mut a = mk(PruningRule::Theorem1);
            let mut b = mk(PruningRule::GlobalTauMax);
            for i in 0..m_cnt {
                a.find_pair(i).unwrap();
                b.find_pair(i).unwrap();
            }
            prop_assert_eq!(a.total_cost(), b.total_cost());
        }
    }

    #[test]
    fn statistics_accumulate() {
        let rows = vec![vec![1, 2], vec![2, 1]];
        let mut m = matcher_from_rows(&rows, &[1, 1]);
        m.find_pair(0).unwrap();
        m.find_pair(1).unwrap();
        assert!(m.dijkstra_runs() >= 2);
        assert!(m.edges_added() >= 2);
        assert_eq!(m.augmentations(), 2);
    }

    #[test]
    fn remove_customer_releases_flow() {
        let rows = vec![vec![3, 7], vec![4, 1]];
        let mut m = matcher_from_rows(&rows, &[1, 1]);
        m.find_pair(0).unwrap();
        m.find_pair(1).unwrap();
        assert_eq!(m.total_cost(), 4);
        m.remove_customer(1);
        assert!(m.is_removed(1));
        assert_eq!(m.match_count(1), 0);
        assert_eq!(m.total_cost(), 3);
        assert_eq!(m.load(0) + m.load(1), 1);
        // Idempotent.
        m.remove_customer(1);
        assert_eq!(m.total_cost(), 3);
    }

    #[test]
    fn removal_can_break_optimality_and_certificate_detects_it() {
        // Customers A,B; facility X (cap 1) free for both, facility Y costs
        // A:10, B:100. Optimum for both: A→Y, B→X (10). After B leaves, the
        // survivor A→Y (10) is NOT optimal for A alone (A→X costs 0): X
        // regains slack while carrying the nonzero potential that justified
        // parking A on Y. `slack_is_free` must report the hazard.
        let rows = vec![vec![0, 10], vec![0, 100]];
        let mut m = matcher_from_rows(&rows, &[1, 1]);
        m.find_pair(0).unwrap();
        m.find_pair(1).unwrap();
        assert_eq!(m.total_cost(), 10);
        assert!(m.slack_is_free(), "fully driven by find_pair");
        m.remove_customer(1);
        assert_eq!(m.total_cost(), 10, "survivor still parked on Y");
        assert!(
            !m.slack_is_free(),
            "freed facility holds nonzero potential; warm reuse must rebuild"
        );
    }

    #[test]
    fn certified_removal_keeps_optimality_for_arrivals() {
        // Far-apart customers: removals leave slack only on zero-potential
        // facilities, so the surviving matching plus incremental arrivals
        // must equal a cold rebuild.
        let rows = vec![vec![1, 50], vec![50, 1], vec![2, 49]];
        let caps = vec![2u32, 2];
        let mut m = matcher_from_rows(&rows, &caps);
        for i in 0..3 {
            m.find_pair(i).unwrap();
        }
        m.remove_customer(2);
        assert!(m.slack_is_free());
        // Arrival identical to the removed customer, via push.
        let slot = m.push_customer(VecStream::from_row(&[2, 49]));
        assert_eq!(slot, 3);
        m.find_pair(slot).unwrap();
        let want = brute_min_cost_assignment(&rows, &caps, &[1, 1, 1]).unwrap();
        assert_eq!(m.total_cost(), want);
        assert_eq!(m.match_count(slot), 1);
    }

    #[test]
    fn set_capacity_bounds_and_slack() {
        let rows = vec![vec![1, 5], vec![2, 5]];
        let mut m = matcher_from_rows(&rows, &[2, 1]);
        m.find_pair(0).unwrap();
        m.find_pair(1).unwrap();
        assert_eq!(m.load(0), 2);
        m.set_capacity(0, 3);
        assert_eq!(m.capacity(0), 3);
        m.set_capacity(0, 2); // down to the load is fine
        assert_eq!(m.capacity(0), 2);
    }

    #[test]
    #[should_panic(expected = "below current load")]
    fn set_capacity_below_load_panics() {
        let rows = vec![vec![1, 5]];
        let mut m = matcher_from_rows(&rows, &[1, 1]);
        m.find_pair(0).unwrap();
        m.set_capacity(0, 0);
    }

    proptest! {
        /// Warm continuation after certified removals equals a cold rebuild:
        /// remove a random subset, and where the certificate holds, push the
        /// removed customers back and re-augment — the result must match a
        /// fresh matcher over the same demands.
        #[test]
        fn certified_warm_restart_equals_cold(
            m_cnt in 2usize..6,
            l_cnt in 1usize..5,
            costs in proptest::collection::vec(0u64..100, 30),
            caps in proptest::collection::vec(1u32..4, 5),
            drop_mask in proptest::collection::vec(proptest::bool::ANY, 6),
        ) {
            let rows: Vec<Vec<u64>> = (0..m_cnt)
                .map(|i| (0..l_cnt).map(|j| costs[(i * 5 + j) % 30]).collect())
                .collect();
            let capacities: Vec<u32> = caps[..l_cnt].to_vec();
            prop_assume!(capacities.iter().sum::<u32>() as usize >= m_cnt);
            let mut m = matcher_from_rows(&rows, &capacities);
            for i in 0..m_cnt {
                m.find_pair(i).unwrap();
            }
            let dropped: Vec<usize> =
                (0..m_cnt).filter(|&i| drop_mask[i]).collect();
            for &i in &dropped {
                m.remove_customer(i);
            }
            prop_assume!(m.slack_is_free());
            // Push each dropped customer back and re-match.
            for &i in &dropped {
                let slot = m.push_customer(VecStream::from_row(&rows[i]));
                m.find_pair(slot).unwrap();
            }
            let mut cold = matcher_from_rows(&rows, &capacities);
            for i in 0..m_cnt {
                cold.find_pair(i).unwrap();
            }
            prop_assert_eq!(m.total_cost(), cold.total_cost());
        }
    }

    proptest! {
        /// The incremental matcher with unit demands reaches exactly the
        /// dense transportation optimum, regardless of processing order.
        #[test]
        fn equals_dense_transportation(
            m_cnt in 1usize..6,
            l_cnt in 1usize..6,
            costs in proptest::collection::vec(0u64..200, 36),
            caps in proptest::collection::vec(1u32..3, 6),
            order_seed in 0u64..1000,
        ) {
            let rows: Vec<Vec<u64>> = (0..m_cnt)
                .map(|i| (0..l_cnt).map(|j| costs[(i * 6 + j) % 36]).collect())
                .collect();
            let capacities: Vec<u32> = caps[..l_cnt].to_vec();
            let total_cap: u32 = capacities.iter().sum();
            prop_assume!(total_cap as usize >= m_cnt);

            let mut matcher = matcher_from_rows(&rows, &capacities);
            // Pseudo-random processing order.
            let mut order: Vec<usize> = (0..m_cnt).collect();
            let mut x = order_seed;
            for i in (1..order.len()).rev() {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                order.swap(i, (x >> 33) as usize % (i + 1));
            }
            for &c in &order {
                matcher.find_pair(c).unwrap();
            }

            let p = TransportProblem::from_rows(&rows, capacities.clone());
            let dense = solve_transportation(&p).unwrap();
            prop_assert_eq!(matcher.total_cost(), dense.cost);

            // Structural invariants.
            for j in 0..l_cnt {
                prop_assert!(matcher.load(j) <= capacities[j] as usize);
            }
            for i in 0..m_cnt {
                prop_assert_eq!(matcher.match_count(i), 1);
            }
        }

        /// With growing multi-facility demands the matcher stays optimal
        /// versus the exhaustive oracle.
        #[test]
        fn equals_brute_with_demands(
            m_cnt in 1usize..4,
            l_cnt in 2usize..5,
            costs in proptest::collection::vec(0u64..50, 20),
            extra in proptest::collection::vec(0usize..4, 0..5),
        ) {
            let rows: Vec<Vec<u64>> = (0..m_cnt)
                .map(|i| (0..l_cnt).map(|j| costs[(i * 5 + j) % 20]).collect())
                .collect();
            let capacities = vec![2u32; l_cnt];
            let mut matcher = matcher_from_rows(&rows, &capacities);
            let mut demands = vec![0u32; m_cnt];
            // Round 1: everyone gets one match.
            for i in 0..m_cnt {
                if matcher.find_pair(i).is_ok() { demands[i] += 1; }
            }
            // Extra demand raises, bounded by facility count.
            for &e in &extra {
                let i = e % m_cnt;
                if (demands[i] as usize) < l_cnt && (demands.iter().sum::<u32>() as usize)
                    < capacities.iter().sum::<u32>() as usize
                    && matcher.find_pair(i).is_ok() { demands[i] += 1; }
            }
            let want = brute_min_cost_assignment(&rows, &capacities, &demands);
            prop_assert_eq!(Some(matcher.total_cost()), want);
        }
    }
}
