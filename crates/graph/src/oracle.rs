//! Shared, thread-safe distance oracle with a bounded row cache.
//!
//! Every MCFS solver ultimately asks the same question — "how far is this
//! customer from every candidate site?" — and the WMA pipeline asks it
//! repeatedly: each demand-raising iteration, the refine pass, and every
//! baseline re-derive distances from the same handful of source nodes —
//! the candidate sites, for the solvers' customer streams when the sites
//! are the smaller side of a symmetric graph (otherwise those streams
//! search lazily and never ask), and the customers, for the BRNN and
//! Greedy-Addition scans. The [`DistanceOracle`] memoizes those one-to-all
//! rows behind a mutex-guarded bounded FIFO cache of `Arc<Row>`, so a row
//! is computed once and then shared by reference across WMA iterations,
//! the refine pass, and the baselines. A [`Row`] holds the core distances
//! of one arena search over the graph's contraction and reads any node on
//! demand ([`Row::get`], equal to [`crate::dijkstra_all`]); nothing writes
//! a full-graph row unless a consumer that scans every node expands one
//! ([`Row::expand_into`]) into a buffer of its own.
//!
//! The batched entry point [`DistanceOracle::distances_for_sources`] fans
//! independent Dijkstra expansions across a scoped worker pool
//! ([`crate::par`]) and returns rows **in input order** regardless of
//! scheduling, which is what makes the `threads(n)` knob on the solvers
//! observationally pure: distances are a function of the graph alone, so
//! thread count can change wall time but never a solution.
//!
//! The oracle deliberately does not borrow the graph (methods take `&Graph`
//! per call) so a single `Arc<DistanceOracle>` can be threaded through
//! solver structs without lifetime plumbing. As a guard against wiring the
//! wrong graph, the oracle remembers a cheap structural fingerprint of the
//! first graph it sees and panics if a later call disagrees.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use rustc_hash::FxHashMap;

use crate::par::{available_threads, par_map_indexed};
use crate::{Dist, Graph, NodeId, Row, INF};

/// Default bound on cached rows. A row is `core × 8` bytes (the
/// contraction's core: about 12% of the nodes of a subdivided road
/// network, all of them on a graph that contracts nothing) plus its
/// source's own run, so 4096 rows of a 100k-node road graph is ~400 MB
/// worst case, and ~3 GiB where nothing contracts. The stream solvers
/// cache one row per distinct facility node, and only when that is the
/// smaller side; the BRNN and Greedy-Addition baselines one row per
/// customer — at most one per customer either way (tens to thousands).
pub const DEFAULT_CACHE_ROWS: usize = 4096;

/// Oracle counters and cache occupancy: over the oracle's lifetime from
/// [`DistanceOracle::stats`], or over one guarded run from
/// [`OracleRunGuard::stats`] (counters only; occupancy fields are zero).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OracleStats {
    /// Row requests answered from the cache.
    pub hits: u64,
    /// Row requests that had to run a fresh Dijkstra.
    pub misses: u64,
    /// Rows dropped by the FIFO bound.
    pub evictions: u64,
    /// Total nodes reached across all cache misses: each computed row
    /// counts its finite entries, every node reachable from its source,
    /// which is what a plain Dijkstra would settle ([`Row::reached`]; the
    /// arena search itself settles only the contracted core). Counted
    /// without a pass over the graph: the source's component size on a
    /// symmetric graph, the finite core entries otherwise. Cache hits
    /// reach nothing, so this counter is the oracle-side "search effort" a
    /// warm caller avoids by reusing rows.
    pub nodes_settled: u64,
    /// Rows currently resident.
    pub cached_rows: usize,
    /// Maximum resident rows.
    pub capacity: usize,
    /// Worker threads used by batched queries.
    pub threads: usize,
}

/// Registry-backed counters mirroring the oracle's internal atomics, cached
/// once so the hot path pays a single relaxed add per event.
struct ObsCounters {
    hits: mcfs_obs::Counter,
    misses: mcfs_obs::Counter,
    evictions: mcfs_obs::Counter,
    nodes_settled: mcfs_obs::Counter,
}

fn obs_counters() -> &'static ObsCounters {
    static COUNTERS: OnceLock<ObsCounters> = OnceLock::new();
    COUNTERS.get_or_init(|| {
        let r = mcfs_obs::Registry::global();
        ObsCounters {
            hits: r.counter(
                "mcfs_oracle_row_cache_hits_total",
                "Distance-oracle row requests answered from the cache",
            ),
            misses: r.counter(
                "mcfs_oracle_row_cache_misses_total",
                "Distance-oracle row requests that ran a fresh Dijkstra",
            ),
            evictions: r.counter(
                "mcfs_oracle_row_cache_evictions_total",
                "Distance-oracle rows dropped by the FIFO bound",
            ),
            nodes_settled: r.counter(
                "mcfs_oracle_nodes_settled_total",
                "Nodes settled computing missed distance rows",
            ),
        }
    })
}

#[derive(Default)]
struct RunCells {
    hits: Cell<u64>,
    misses: Cell<u64>,
    evictions: Cell<u64>,
    nodes_settled: Cell<u64>,
}

thread_local! {
    /// Stack of per-run attribution frames for this thread. Oracle counting
    /// happens exclusively on the calling thread (batched fan-outs tally
    /// after the join), so thread-local frames attribute exactly the
    /// activity of the run(s) open on this thread — even when several
    /// solvers share one oracle from different threads, which is precisely
    /// the case the old snapshot-delta accounting got wrong.
    static RUN_STACK: RefCell<Vec<Rc<RunCells>>> = const { RefCell::new(Vec::new()) };
}

/// Add oracle activity to every run frame open on this thread (nested runs
/// — e.g. Uniform-First around an inner WMA — each own the inner activity).
fn note_run(hits: u64, misses: u64, evictions: u64, nodes_settled: u64) {
    RUN_STACK.with(|stack| {
        for cells in stack.borrow().iter() {
            cells.hits.set(cells.hits.get() + hits);
            cells.misses.set(cells.misses.get() + misses);
            cells.evictions.set(cells.evictions.get() + evictions);
            cells
                .nodes_settled
                .set(cells.nodes_settled.get() + nodes_settled);
        }
    });
}

/// Per-run oracle attribution scope, opened with
/// [`DistanceOracle::begin_run`]. While the guard lives, every oracle call
/// *on the creating thread* is tallied into it; [`stats`](Self::stats)
/// reads the tally at any point. Unlike diffing two
/// [`DistanceOracle::stats`] snapshots, the tally is immune to concurrent
/// runs on other threads sharing the same oracle.
pub struct OracleRunGuard {
    cells: Rc<RunCells>,
}

impl OracleRunGuard {
    /// Open an attribution scope on the calling thread. Frames are
    /// per-thread, not per-oracle: the guard tallies the activity of every
    /// oracle used on this thread while it lives.
    pub fn begin() -> Self {
        let cells = Rc::new(RunCells::default());
        RUN_STACK.with(|stack| stack.borrow_mut().push(Rc::clone(&cells)));
        OracleRunGuard { cells }
    }

    /// The oracle activity attributed to this run so far. Only the counter
    /// fields (`hits`, `misses`, `evictions`, `nodes_settled`) are
    /// meaningful; occupancy fields are zero.
    pub fn stats(&self) -> OracleStats {
        OracleStats {
            hits: self.cells.hits.get(),
            misses: self.cells.misses.get(),
            evictions: self.cells.evictions.get(),
            nodes_settled: self.cells.nodes_settled.get(),
            ..OracleStats::default()
        }
    }
}

impl Drop for OracleRunGuard {
    fn drop(&mut self) {
        RUN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            // Guards are scope-shaped, so ours is normally on top; tolerate
            // out-of-order drops by searching from the back.
            if let Some(pos) = stack.iter().rposition(|c| Rc::ptr_eq(c, &self.cells)) {
                stack.remove(pos);
            }
        });
    }
}

/// Structural fingerprint used to detect cross-graph misuse. Counts catch
/// accidental re-wiring with a readable panic; the build-time
/// [`Graph::structural_hash`] additionally catches a *same-sized* graph
/// with different arcs or weights — the case that used to slip through and
/// serve rows from the wrong city. The [`Graph::id_salt`] distinguishes
/// *structurally identical* graphs that carry different node identities —
/// e.g. two isomorphic shard sub-graphs extracted from different regions of
/// one city, whose node 7 means two different intersections.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Fingerprint {
    num_nodes: usize,
    num_arcs: usize,
    structural_hash: u64,
    id_salt: u64,
}

impl Fingerprint {
    fn of(g: &Graph) -> Self {
        Self {
            num_nodes: g.num_nodes(),
            num_arcs: g.num_arcs(),
            structural_hash: g.structural_hash(),
            id_salt: g.id_salt(),
        }
    }
}

struct RowCache {
    rows: FxHashMap<NodeId, Arc<Row>>,
    /// Insertion order for FIFO eviction. Rows evicted here stay alive for
    /// any holder of the `Arc`.
    order: VecDeque<NodeId>,
    fingerprint: Option<Fingerprint>,
}

/// Thread-safe memoizing facade over the one-shot Dijkstra searches.
///
/// See the [module docs](self) for the design; the short version:
///
/// * [`row`](Self::row) / [`distances_for_sources`](Self::distances_for_sources)
///   return cached `Arc<Row>` one-to-all rows, read through [`Row::get`]
///   (unreachable = [`INF`]);
/// * [`to_targets`](Self::to_targets) and
///   [`multi_source`](Self::multi_source) are row-backed equivalents of
///   [`dijkstra_to_targets`](crate::dijkstra_to_targets) and
///   [`multi_source_dijkstra`](crate::multi_source_dijkstra);
/// * results never depend on the thread count or on what happens to be
///   cached.
pub struct DistanceOracle {
    cache: Mutex<RowCache>,
    capacity: usize,
    threads: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    nodes_settled: AtomicU64,
}

impl std::fmt::Debug for DistanceOracle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("DistanceOracle")
            .field("threads", &s.threads)
            .field("capacity", &s.capacity)
            .field("cached_rows", &s.cached_rows)
            .field("hits", &s.hits)
            .field("misses", &s.misses)
            .field("evictions", &s.evictions)
            .finish()
    }
}

impl Default for DistanceOracle {
    fn default() -> Self {
        Self::new()
    }
}

impl DistanceOracle {
    /// Oracle with the default cache bound and one worker per available
    /// hardware thread.
    pub fn new() -> Self {
        Self {
            cache: Mutex::new(RowCache {
                rows: FxHashMap::default(),
                order: VecDeque::new(),
                fingerprint: None,
            }),
            capacity: DEFAULT_CACHE_ROWS,
            threads: available_threads(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            nodes_settled: AtomicU64::new(0),
        }
    }

    /// Set the worker-thread count for batched queries. `0` means "auto"
    /// (available parallelism); `1` computes everything inline.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = if threads == 0 {
            available_threads()
        } else {
            threads
        };
        self
    }

    /// Bound the row cache to at most `rows` resident rows (FIFO eviction).
    /// `0` disables caching entirely — every query recomputes.
    pub fn with_cache_rows(mut self, rows: usize) -> Self {
        self.capacity = rows;
        self
    }

    /// Re-key the oracle to `g`: if `g` is not the graph the cache was
    /// primed on, drop the cached rows and adopt `g`'s fingerprint. This is
    /// the sanctioned "the graph changed" hook; `ReSolver` calls it on
    /// every edit commit. Serving a graph the oracle was *not* revalidated
    /// to still panics.
    pub fn revalidate(&self, g: &Graph) {
        let fp = Fingerprint::of(g);
        let mut cache = self.cache.lock().unwrap();
        if cache.fingerprint != Some(fp) {
            cache.rows.clear();
            cache.order.clear();
            cache.fingerprint = Some(fp);
        }
    }

    /// Worker threads used by batched queries.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// One arena row behind a fresh `Arc`: on a warm arena the only
    /// allocation a miss performs is the row the cache retains.
    fn compute_row(g: &Graph, source: NodeId) -> Arc<Row> {
        Arc::new(Row::new(g, source))
    }

    /// Snapshot of the hit/miss/eviction counters and cache occupancy.
    pub fn stats(&self) -> OracleStats {
        let cache = self.cache.lock().unwrap();
        OracleStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            nodes_settled: self.nodes_settled.load(Ordering::Relaxed),
            cached_rows: cache.rows.len(),
            capacity: self.capacity,
            threads: self.threads,
        }
    }

    /// Open a per-run attribution scope on the calling thread: every oracle
    /// call made on this thread while the guard lives is tallied into it.
    /// This is the race-free replacement for diffing [`stats`](Self::stats)
    /// snapshots when several solvers share one oracle.
    pub fn begin_run(&self) -> OracleRunGuard {
        OracleRunGuard::begin()
    }

    /// Drop every cached row (counters are kept).
    pub fn clear(&self) {
        let mut cache = self.cache.lock().unwrap();
        cache.rows.clear();
        cache.order.clear();
    }

    fn check_graph(cache: &mut RowCache, g: &Graph) {
        let fp = Fingerprint::of(g);
        match cache.fingerprint {
            None => cache.fingerprint = Some(fp),
            Some(seen) => assert_eq!(
                seen, fp,
                "DistanceOracle used with a different graph than it was primed on"
            ),
        }
    }

    /// Returns the number of rows the FIFO bound evicted.
    fn insert_row(&self, cache: &mut RowCache, source: NodeId, row: Arc<Row>) -> u64 {
        if self.capacity == 0 {
            return 0;
        }
        if cache.rows.insert(source, row).is_none() {
            cache.order.push_back(source);
        }
        let mut evicted = 0;
        while cache.rows.len() > self.capacity {
            // `order` can only be empty if rows was externally cleared, in
            // which case len() <= capacity already.
            if let Some(old) = cache.order.pop_front() {
                cache.rows.remove(&old);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                evicted += 1;
            } else {
                break;
            }
        }
        if evicted > 0 {
            obs_counters().evictions.add(evicted);
        }
        evicted
    }

    /// The one-to-all distance row from `source`, computed on demand and
    /// cached. Unreachable nodes read [`INF`]. Every entry equals (and is
    /// verified against) a fresh [`crate::dijkstra_all`] call.
    pub fn row(&self, g: &Graph, source: NodeId) -> Arc<Row> {
        {
            let mut cache = self.cache.lock().unwrap();
            Self::check_graph(&mut cache, g);
            if let Some(row) = cache.rows.get(&source) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                obs_counters().hits.inc();
                note_run(1, 0, 0, 0);
                return Arc::clone(row);
            }
        }
        // Compute outside the lock so concurrent misses on different
        // sources proceed in parallel. Two threads racing on the *same*
        // source may both compute; both produce the identical row, and the
        // second insert is a no-op overwrite.
        self.misses.fetch_add(1, Ordering::Relaxed);
        let _span = mcfs_obs::span("oracle.row");
        let row = Self::compute_row(g, source);
        let settled = row.reached();
        self.nodes_settled.fetch_add(settled, Ordering::Relaxed);
        let obs = obs_counters();
        obs.misses.inc();
        obs.nodes_settled.add(settled);
        let mut cache = self.cache.lock().unwrap();
        let evicted = self.insert_row(&mut cache, source, Arc::clone(&row));
        drop(cache);
        note_run(0, 1, evicted, settled);
        row
    }

    /// Batched rows for `sources`, returned **in input order**. Cached rows
    /// are served directly; missing rows are computed by the worker pool
    /// (one Dijkstra expansion per distinct missing source). Duplicate
    /// sources in one batch share a single computation.
    pub fn distances_for_sources(&self, g: &Graph, sources: &[NodeId]) -> Vec<Arc<Row>> {
        // Phase 1 (under the lock): partition into cached / missing.
        let mut found: FxHashMap<NodeId, Arc<Row>> = FxHashMap::default();
        let mut missing: Vec<NodeId> = Vec::new();
        {
            let mut cache = self.cache.lock().unwrap();
            Self::check_graph(&mut cache, g);
            for &s in sources {
                if found.contains_key(&s) || missing.contains(&s) {
                    continue;
                }
                match cache.rows.get(&s) {
                    Some(row) => {
                        found.insert(s, Arc::clone(row));
                    }
                    None => missing.push(s),
                }
            }
        }
        let hits = (sources.len() - missing.len()) as u64;
        let misses = missing.len() as u64;
        self.hits.fetch_add(hits, Ordering::Relaxed);
        self.misses.fetch_add(misses, Ordering::Relaxed);
        let obs = obs_counters();
        obs.hits.add(hits);
        obs.misses.add(misses);

        // Phase 2 (no lock): fan the missing expansions across the pool.
        // `par_map_indexed` returns slot-ordered results, so insertion
        // order below — hence FIFO eviction order — is scheduling-independent.
        let batch_span = mcfs_obs::span("oracle.batch");
        let computed = par_map_indexed(missing.len(), self.threads, |i| {
            Self::compute_row(g, missing[i])
        });
        drop(batch_span);
        let settled = computed.iter().map(|row| row.reached()).sum::<u64>();
        self.nodes_settled.fetch_add(settled, Ordering::Relaxed);
        obs.nodes_settled.add(settled);

        // Phase 3 (under the lock): publish new rows in input order.
        let mut evicted = 0;
        {
            let mut cache = self.cache.lock().unwrap();
            for (s, row) in missing.iter().zip(&computed) {
                evicted += self.insert_row(&mut cache, *s, Arc::clone(row));
            }
        }
        note_run(hits, misses, evicted, settled);
        for (s, row) in missing.into_iter().zip(computed) {
            found.insert(s, row);
        }
        sources
            .iter()
            .map(|s| Arc::clone(found.get(s).expect("every source resolved")))
            .collect()
    }

    /// Distance from `source` to a single `target` (cached-row-backed).
    /// Unreachable pairs yield the [`INF`] sentinel; prefer
    /// [`try_distance`](Self::try_distance) so unreachability is a typed
    /// `None` instead of a magic value.
    pub fn distance(&self, g: &Graph, source: NodeId, target: NodeId) -> Dist {
        self.row(g, source).get(target)
    }

    /// Distance from `source` to `target`, or `None` when `target` is
    /// unreachable — the well-defined point-to-point API.
    pub fn try_distance(&self, g: &Graph, source: NodeId, target: NodeId) -> Option<Dist> {
        let d = self.row(g, source).get(target);
        (d != INF).then_some(d)
    }

    /// Distances from `source` to each of `targets`, in the order given.
    /// Row-backed equivalent of [`dijkstra_to_targets`](crate::dijkstra_to_targets):
    /// the first call from a source pays a core search instead of an early
    /// exit, and every call reads just the targets off the row.
    pub fn to_targets(&self, g: &Graph, source: NodeId, targets: &[NodeId]) -> Vec<Dist> {
        let row = self.row(g, source);
        targets.iter().map(|&t| row.get(t)).collect()
    }

    /// For every node, the distance to its nearest source and that source's
    /// index in `sources`; unreachable nodes get `(INF, usize::MAX)`. Ties
    /// go to the smallest source *index*, and duplicate sources resolve to
    /// the first occurrence — the same contract as
    /// [`multi_source_dijkstra`](crate::multi_source_dijkstra) documents for
    /// duplicates, made deterministic for equidistant distinct sources too.
    pub fn multi_source(&self, g: &Graph, sources: &[NodeId]) -> (Vec<Dist>, Vec<usize>) {
        let rows = self.distances_for_sources(g, sources);
        let n = g.num_nodes();
        let mut dist = vec![INF; n];
        let mut owner = vec![usize::MAX; n];
        let mut full = Vec::with_capacity(n);
        for (i, row) in rows.iter().enumerate() {
            row.expand_into(&mut full);
            for (v, &d) in full.iter().enumerate() {
                if d < dist[v] {
                    dist[v] = d;
                    owner[v] = i;
                }
            }
        }
        (dist, owner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{dijkstra_all, dijkstra_to_targets, multi_source_dijkstra, GraphBuilder};

    /// Path 0 -5- 1 -1- 2 -1- 3, shortcut 0 -4- 2; node 4 isolated.
    fn sample() -> Graph {
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1, 5);
        b.add_edge(1, 2, 1);
        b.add_edge(2, 3, 1);
        b.add_edge(0, 2, 4);
        b.build()
    }

    /// Every entry of `row`, read one by one, after checking that its
    /// one-pass expansion agrees.
    fn entries(row: &Row) -> Vec<Dist> {
        let read: Vec<Dist> = (0..row.num_nodes() as NodeId).map(|v| row.get(v)).collect();
        let mut full = Vec::new();
        row.expand_into(&mut full);
        assert_eq!(read, full);
        read
    }

    #[test]
    fn row_matches_dijkstra_and_caches() {
        let g = sample();
        let o = DistanceOracle::new().with_threads(1);
        let row = o.row(&g, 0);
        assert_eq!(entries(&row), dijkstra_all(&g, 0));
        assert_eq!(row.get(4), INF);
        let s = o.stats();
        assert_eq!((s.hits, s.misses), (0, 1));
        let again = o.row(&g, 0);
        assert!(Arc::ptr_eq(&row, &again));
        assert_eq!(o.stats().hits, 1);
    }

    #[test]
    fn batched_rows_in_input_order_with_duplicates() {
        let g = sample();
        for threads in [1, 2, 8] {
            let o = DistanceOracle::new().with_threads(threads);
            let sources = [3, 0, 3, 4, 1];
            let rows = o.distances_for_sources(&g, &sources);
            assert_eq!(rows.len(), sources.len());
            for (&s, row) in sources.iter().zip(&rows) {
                assert_eq!(
                    entries(row),
                    dijkstra_all(&g, s),
                    "source {s}, threads {threads}"
                );
            }
            // Duplicates in one batch share the computation.
            assert!(Arc::ptr_eq(&rows[0], &rows[2]));
            let stats = o.stats();
            assert_eq!(stats.misses, 4); // distinct sources
        }
    }

    #[test]
    fn to_targets_and_multi_source_match_reference() {
        let g = sample();
        let o = DistanceOracle::new().with_threads(2);
        assert_eq!(
            o.to_targets(&g, 0, &[3, 1, 4]),
            dijkstra_to_targets(&g, 0, &[3, 1, 4])
        );
        let (d_ref, _) = multi_source_dijkstra(&g, &[0, 3]);
        let (d, owner) = o.multi_source(&g, &[0, 3]);
        assert_eq!(d, d_ref);
        assert_eq!(owner, vec![0, 1, 1, 1, usize::MAX]);
        // Duplicate sources: first occurrence owns.
        let (_, owner) = o.multi_source(&g, &[2, 2]);
        assert_eq!(owner[2], 0);
    }

    #[test]
    fn fifo_eviction_respects_capacity() {
        let g = sample();
        let o = DistanceOracle::new().with_threads(1).with_cache_rows(2);
        o.row(&g, 0);
        o.row(&g, 1);
        o.row(&g, 2); // evicts row 0
        let s = o.stats();
        assert_eq!(s.cached_rows, 2);
        assert_eq!(s.evictions, 1);
        o.row(&g, 0); // miss again
        assert_eq!(o.stats().misses, 4);
        o.row(&g, 2); // survived: hit
        assert_eq!(o.stats().hits, 1);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let g = sample();
        let o = DistanceOracle::new().with_threads(1).with_cache_rows(0);
        o.row(&g, 0);
        o.row(&g, 0);
        let s = o.stats();
        assert_eq!((s.hits, s.misses, s.cached_rows), (0, 2, 0));
    }

    #[test]
    #[should_panic(expected = "different graph")]
    fn cross_graph_use_panics() {
        let g1 = sample();
        let g2 = GraphBuilder::new(3).build();
        let o = DistanceOracle::new();
        o.row(&g1, 0);
        o.row(&g2, 0);
    }

    #[test]
    #[should_panic(expected = "different graph")]
    fn same_size_different_graph_panics() {
        // Equal node and arc counts, different weights: the structural
        // hash in the fingerprint must still catch the rewiring.
        let g1 = sample();
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1, 5);
        b.add_edge(1, 2, 1);
        b.add_edge(2, 3, 1);
        b.add_edge(0, 2, 9);
        let g2 = b.build();
        assert_eq!(g1.num_nodes(), g2.num_nodes());
        assert_eq!(g1.num_arcs(), g2.num_arcs());
        let o = DistanceOracle::new();
        o.row(&g1, 0);
        o.row(&g2, 0);
    }

    #[test]
    #[should_panic(expected = "different graph")]
    fn isomorphic_graphs_with_different_salts_panic() {
        // Structurally identical graphs whose node ids mean different
        // things (shard extracts) must not alias each other's rows.
        let g1 = sample();
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1, 5);
        b.add_edge(1, 2, 1);
        b.add_edge(2, 3, 1);
        b.add_edge(0, 2, 4);
        b.set_id_salt(0xABCD);
        let g2 = b.build();
        assert_eq!(g1.structural_hash(), g2.structural_hash());
        let o = DistanceOracle::new();
        o.row(&g1, 0);
        o.row(&g2, 0);
    }

    #[test]
    fn revalidate_rekeys_across_salt_changes() {
        let g1 = sample();
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1, 5);
        b.add_edge(1, 2, 1);
        b.add_edge(2, 3, 1);
        b.add_edge(0, 2, 4);
        b.set_id_salt(7);
        let g2 = b.build();
        let o = DistanceOracle::new().with_threads(1);
        o.row(&g1, 0);
        assert_eq!(o.stats().cached_rows, 1);
        o.revalidate(&g2); // different salt: rows dropped, g2 adopted
        assert_eq!(o.stats().cached_rows, 0);
        o.row(&g2, 0); // no panic: oracle re-keyed
        o.revalidate(&g2); // same fingerprint: rows survive
        assert_eq!(o.stats().cached_rows, 1);
    }

    #[test]
    fn settled_nodes_counted_on_misses_only() {
        let g = sample(); // nodes 0..3 connected, node 4 isolated
        let o = DistanceOracle::new().with_threads(1);
        o.row(&g, 0);
        assert_eq!(o.stats().nodes_settled, 4, "row from 0 settles 0..=3");
        o.row(&g, 0); // hit: no new settling
        assert_eq!(o.stats().nodes_settled, 4);
        o.distances_for_sources(&g, &[0, 1, 4]);
        // Row 0 cached; rows 1 (settles 4 nodes) and 4 (settles itself).
        assert_eq!(o.stats().nodes_settled, 4 + 4 + 1);
    }

    #[test]
    fn run_guard_attributes_only_the_calling_thread() {
        let g = sample();
        let o = Arc::new(DistanceOracle::new().with_threads(1));
        let run = o.begin_run();
        o.row(&g, 0); // miss on this thread
        o.row(&g, 0); // hit on this thread
                      // Another thread hammers the same oracle while our run is open; its
                      // activity must not leak into our tally.
        let other = Arc::clone(&o);
        let g2 = sample();
        std::thread::spawn(move || {
            for s in [1u32, 2, 3] {
                other.row(&g2, s);
            }
        })
        .join()
        .unwrap();
        let mine = run.stats();
        assert_eq!((mine.hits, mine.misses), (1, 1));
        assert_eq!(mine.nodes_settled, 4, "only this thread's expansion");
        // The oracle-wide counters saw everything.
        assert_eq!(o.stats().misses, 4);
        drop(run);
        o.row(&g, 1); // no frame open: tallied nowhere
        let o2 = DistanceOracle::new().with_threads(1);
        let nested_outer = o2.begin_run();
        {
            let nested_inner = o2.begin_run();
            o2.row(&g, 0);
            assert_eq!(nested_inner.stats().misses, 1);
        }
        assert_eq!(nested_outer.stats().misses, 1, "inner runs roll up");
    }

    #[test]
    fn run_guard_sees_batched_queries_and_evictions() {
        let g = sample();
        let o = DistanceOracle::new().with_threads(2).with_cache_rows(2);
        let run = o.begin_run();
        o.distances_for_sources(&g, &[0, 1, 2, 0]);
        let s = run.stats();
        assert_eq!((s.hits, s.misses), (1, 3));
        assert_eq!(s.evictions, 1, "three rows into a two-row cache");
        assert_eq!(s.nodes_settled, 4 + 4 + 4);
    }

    #[test]
    fn try_distance_is_none_when_unreachable() {
        let g = sample();
        let o = DistanceOracle::new().with_threads(1);
        assert_eq!(o.try_distance(&g, 0, 3), Some(5));
        assert_eq!(o.try_distance(&g, 0, 4), None);
        assert_eq!(o.distance(&g, 0, 4), INF);
        assert_eq!(o.try_distance(&g, 4, 4), Some(0));
    }

    #[test]
    fn clear_drops_rows_but_keeps_counters() {
        let g = sample();
        let o = DistanceOracle::new().with_threads(1);
        o.row(&g, 0);
        o.clear();
        assert_eq!(o.stats().cached_rows, 0);
        assert_eq!(o.stats().misses, 1);
    }
}
