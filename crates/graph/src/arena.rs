//! The oracle's row engine: exact one-to-all Dijkstra over a per-thread
//! reusable search arena.
//!
//! Every row the [`DistanceOracle`](crate::DistanceOracle) caches is filled
//! by [`fill_row`]. Its contract is the one the equivalence suite
//! (`tests/backend_equivalence.rs`) pins down: the row is byte-for-byte the
//! row [`dijkstra_all`](crate::dijkstra_all) would produce, on every graph,
//! including disconnected ones, parallel arcs and weight-1 (bumped
//! zero-weight) edges. `dijkstra_all` stays the plain binary-heap reference
//! every row test compares against.
//!
//! Graphs whose max edge weight fits a bounded window run Dial's algorithm
//! on a circular power-of-two bucket ring with a lazy-deletion entry pool,
//! `u32` distances packed beside each node's CSR offset, and a software
//! pipeline that prefetches the pop chain, adjacency rows, and relax
//! targets ahead of use. Graphs with huge weights fall back to a 65-bucket
//! radix heap (intrusive doubly-linked bucket lists, O(1) decrease-key by
//! relocation) whose empty-bucket scans stay bounded by 64 regardless of
//! weight magnitude. Either way a warm fill performs **zero allocations**
//! (guarded by a counting-allocator test in `tests/obs_overhead.rs`) and
//! relaxes raw CSR slices ([`Graph::csr`]).
//!
//! Arena reuse/initialization counters land in the global
//! [`mcfs_obs::Registry`].

use std::cell::RefCell;
use std::sync::OnceLock;

use crate::{Dist, Graph, NodeId, INF};

/// Registry-backed arena counters, cached once.
struct ArenaObs {
    reuse: mcfs_obs::Counter,
    init: mcfs_obs::Counter,
}

fn arena_obs() -> &'static ArenaObs {
    static OBS: OnceLock<ArenaObs> = OnceLock::new();
    OBS.get_or_init(|| {
        let r = mcfs_obs::Registry::global();
        ArenaObs {
            reuse: r.counter(
                "mcfs_backend_arena_reuse_total",
                "Warm search-arena fills (no allocation)",
            ),
            init: r.counter(
                "mcfs_backend_arena_init_total",
                "Search-arena (re)initializations for a new graph structure",
            ),
        }
    })
}

/// Best-effort cache-line prefetch; a no-op on architectures without an
/// intrinsic. Used by the Dial drain loop to overlap the next pop's
/// dependent loads with the current settle.
#[inline(always)]
fn prefetch<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch is a hint; any address is allowed.
    unsafe {
        std::arch::x86_64::_mm_prefetch(p.cast::<i8>(), std::arch::x86_64::_MM_HINT_T0);
    }
    #[cfg(target_arch = "aarch64")]
    // SAFETY: prefetch is a hint; any address is allowed.
    unsafe {
        core::arch::asm!("prfm pldl1keep, [{0}]", in(reg) p, options(nostack, preserves_flags));
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    let _ = p;
}

const NO_NODE: u32 = u32::MAX;
const NOT_QUEUED: u8 = u8::MAX;
const NO_ENTRY: u32 = u32::MAX;
/// Unreached sentinel in the Dial path's `u32` distance array.
const INF32: u32 = u32::MAX;
/// Largest max edge weight the Dial ring serves; beyond it (or on weight
/// overflow pathologies) the arena falls back to the radix heap. 8192
/// slots keep the ring's head array inside L1.
const DIAL_MAX_WEIGHT: Dist = 8192;
/// Radix-heap buckets for 64-bit monotone keys: bucket 0 holds keys equal
/// to the last extracted minimum, bucket `i` (1..=64) keys whose highest
/// bit differing from it is bit `i - 1`.
const NBUCKETS: usize = 65;

/// Per-thread reusable state for the radix-heap Dijkstra: the distance
/// array, intrusive bucket lists and the touched-node log that makes reset
/// proportional to the previous search, not the graph. All vectors are
/// sized once per graph structure; warm fills never allocate.
#[derive(Debug)]
struct SearchArena {
    graph_hash: u64,
    dist: Vec<Dist>,
    /// Nodes whose `dist`/`bucket_of` entries diverged from the pristine
    /// state in the current fill; undone lazily at the start of the next.
    touched: Vec<NodeId>,
    /// Head node of each bucket's intrusive list (`NO_NODE` = empty).
    head: [u32; NBUCKETS],
    next: Vec<u32>,
    prev: Vec<u32>,
    /// Bucket a node currently sits in, `NOT_QUEUED` when absent.
    bucket_of: Vec<u8>,
    /// Key of the most recent extraction (radix-heap pivot).
    last: Dist,
    /// Dial fast path (small max edge weight): circular bucket ring of
    /// `dial_mask + 1` slots holding entry-pool indices (`NO_ENTRY` =
    /// empty), and a lazy-deletion entry pool written sequentially —
    /// relaxations append, never relocate, so the hot loop's only
    /// scattered write is the `dist` update itself. `dial_mask == 0`
    /// means the graph's weights exceed the ring bound and the radix
    /// heap above is used instead.
    dial_mask: u64,
    dial_head: Vec<u32>,
    /// Dial entry pool, packed `(node << 32) | next_entry` so a pop is one
    /// load instead of two dependent ones; appended sequentially.
    pool: Vec<u64>,
    /// Dial-mode per-node state, packed `(dist << 32) | csr_offset`,
    /// `n + 1` entries (the tail holds the arc count like CSR's sentinel
    /// offset). One cache line then serves a pop's settle check *and* its
    /// adjacency bounds — the separate `offsets` walk disappears from the
    /// hot loop. `u32` distances halve the traffic on the hottest data;
    /// the mode guard proves no reachable distance can overflow them.
    node_state: Vec<u64>,
    /// Dial-mode packed adjacency: `(weight << 32) | target` per arc, in
    /// CSR order. One sequential stream for the relax loop instead of two,
    /// at half the weight-array traffic (the mode guard bounds weights to
    /// `u32`). Rebuilt only when the graph changes.
    adj: Vec<u64>,
    /// Set while a Dial run's distances diverge from pristine; cleared by
    /// [`write_row`](Self::write_row)'s restoring pass. A panicked fill
    /// (contract violation) leaves it set, forcing the next prime to
    /// rebuild rather than trust a half-dirty array.
    dirty: bool,
    /// Node count the arena was last primed for (the radix and Dial paths
    /// size different arrays, so neither's length can serve as the key).
    primed_nodes: usize,
}

impl SearchArena {
    const fn empty() -> Self {
        Self {
            graph_hash: 0,
            dist: Vec::new(),
            touched: Vec::new(),
            head: [NO_NODE; NBUCKETS],
            next: Vec::new(),
            prev: Vec::new(),
            bucket_of: Vec::new(),
            last: 0,
            dial_mask: 0,
            dial_head: Vec::new(),
            pool: Vec::new(),
            node_state: Vec::new(),
            adj: Vec::new(),
            dirty: false,
            primed_nodes: usize::MAX,
        }
    }

    /// Size the arena for `g`, returning whether the warm state was
    /// reusable. Keyed by structural hash *and* length so that a different
    /// graph — even of identical size — rebuilds the pristine arrays.
    fn prime(&mut self, g: &Graph) -> bool {
        let n = g.num_nodes();
        let h = g.structural_hash();
        if self.primed_nodes == n && self.graph_hash == h && !self.dirty {
            return true;
        }
        self.graph_hash = h;
        self.primed_nodes = n;
        self.touched.clear();
        self.touched.reserve(n);
        // Dial applies when every live key fits a bounded circular window
        // — keys in flight span at most [d, d + max_weight], so a
        // power-of-two ring of > max_weight slots is collision-free — and
        // when no reachable distance (< n * max_weight) can overflow the
        // `u32` distance array the Dial path runs on.
        let (_, _, weights) = g.csr();
        let max_w = weights.iter().copied().max().unwrap_or(0);
        if max_w < DIAL_MAX_WEIGHT && (n as u64 + 1).saturating_mul(max_w) < u64::from(u32::MAX) {
            // Floor of 64 slots keeps `dial_mask` nonzero (the mode flag)
            // even on edgeless graphs, at the cost of a 256-byte ring.
            let ring = (max_w + 1).next_power_of_two().max(64) as usize;
            self.dial_mask = ring as u64 - 1;
            self.dial_head.clear();
            self.dial_head.resize(ring, NO_ENTRY);
            self.pool.clear();
            // One entry per improving relaxation: bounded by arcs + source.
            // Fully sized up front so the hot loop can write the tail slot
            // unconditionally (branchless push) behind a manual cursor.
            self.pool.resize(g.num_arcs() + 2, 0);
            let (offsets, targets, _) = g.csr();
            self.node_state.clear();
            self.node_state.reserve(n + 1);
            self.node_state.extend(
                offsets
                    .iter()
                    .map(|&o| (u64::from(INF32) << 32) | u64::from(o)),
            );
            self.adj.clear();
            self.adj.reserve(targets.len());
            self.adj.extend(
                targets
                    .iter()
                    .zip(weights)
                    .map(|(&t, &w)| (w << 32) | u64::from(t)),
            );
            // Radix-only arrays are surrendered: one mode per graph.
            self.dist = Vec::new();
            self.next = Vec::new();
            self.prev = Vec::new();
            self.bucket_of = Vec::new();
        } else {
            self.dial_mask = 0;
            self.dial_head = Vec::new();
            self.pool = Vec::new();
            self.node_state = Vec::new();
            self.adj = Vec::new();
            self.dist.clear();
            self.dist.resize(n, INF);
            self.next.clear();
            self.next.resize(n, NO_NODE);
            self.prev.clear();
            self.prev.resize(n, NO_NODE);
            self.bucket_of.clear();
            self.bucket_of.resize(n, NOT_QUEUED);
        }
        self.head = [NO_NODE; NBUCKETS];
        self.last = 0;
        self.dirty = false;
        false
    }

    #[inline]
    fn bucket_index(&self, key: Dist) -> usize {
        if key == self.last {
            0
        } else {
            // Keys are monotone (key >= last), so the XOR is nonzero and
            // its highest set bit names the bucket.
            (64 - (key ^ self.last).leading_zeros()) as usize
        }
    }

    #[inline]
    fn push(&mut self, v: NodeId, key: Dist) {
        let b = self.bucket_index(key);
        let h = self.head[b];
        self.next[v as usize] = h;
        self.prev[v as usize] = NO_NODE;
        if h != NO_NODE {
            self.prev[h as usize] = v;
        }
        self.head[b] = v;
        self.bucket_of[v as usize] = b as u8;
    }

    #[inline]
    fn unlink(&mut self, v: NodeId) {
        let b = self.bucket_of[v as usize] as usize;
        let nx = self.next[v as usize];
        let pv = self.prev[v as usize];
        if pv == NO_NODE {
            self.head[b] = nx;
        } else {
            self.next[pv as usize] = nx;
        }
        if nx != NO_NODE {
            self.prev[nx as usize] = pv;
        }
        self.bucket_of[v as usize] = NOT_QUEUED;
    }

    /// Extract a node with minimum key. Bucket 0 pops are O(1); otherwise
    /// the first nonempty bucket is redistributed under the new pivot (its
    /// minimum), which lands every member in a strictly lower bucket —
    /// the classic radix-heap amortization (≤ 64 moves per node total).
    fn pop_min(&mut self) -> Option<NodeId> {
        if self.head[0] != NO_NODE {
            let v = self.head[0];
            self.unlink(v);
            return Some(v);
        }
        let b = (1..NBUCKETS).find(|&i| self.head[i] != NO_NODE)?;
        let mut min = INF;
        let mut cur = self.head[b];
        while cur != NO_NODE {
            min = min.min(self.dist[cur as usize]);
            cur = self.next[cur as usize];
        }
        self.last = min;
        let mut cur = self.head[b];
        self.head[b] = NO_NODE;
        while cur != NO_NODE {
            let nx = self.next[cur as usize];
            self.push(cur, self.dist[cur as usize]);
            cur = nx;
        }
        let v = self.head[0];
        debug_assert_ne!(v, NO_NODE, "bucket minimum must land in bucket 0");
        self.unlink(v);
        Some(v)
    }

    /// One exact Dijkstra expansion; returns the settled count. Leaves
    /// `dist` holding the finished row (restored lazily by the next call's
    /// reset loop). Dispatches to the Dial ring when the graph's weights
    /// allow it, else the radix heap.
    fn run(&mut self, g: &Graph, source: NodeId) -> u64 {
        if self.dial_mask != 0 {
            return self.run_dial(source);
        }
        for i in 0..self.touched.len() {
            let v = self.touched[i] as usize;
            self.dist[v] = INF;
            self.bucket_of[v] = NOT_QUEUED;
        }
        self.touched.clear();
        self.last = 0;
        let (offsets, targets, weights) = g.csr();
        self.dist[source as usize] = 0;
        self.touched.push(source);
        self.push(source, 0);
        let mut settled = 0u64;
        while let Some(v) = self.pop_min() {
            settled += 1;
            let dv = self.dist[v as usize];
            let lo = offsets[v as usize] as usize;
            let hi = offsets[v as usize + 1] as usize;
            for (&u, &w) in targets[lo..hi].iter().zip(&weights[lo..hi]) {
                let nd = dv + w;
                let du = &mut self.dist[u as usize];
                if nd < *du {
                    if *du == INF {
                        self.touched.push(u);
                    }
                    *du = nd;
                    if self.bucket_of[u as usize] != NOT_QUEUED {
                        self.unlink(u);
                    }
                    self.push(u, nd);
                }
            }
        }
        settled
    }

    /// Dial's algorithm over the circular entry ring. Lazy deletion: every
    /// improving relaxation appends a pool entry; stale entries (the node
    /// was re-improved or settled at a smaller key) are recognized at pop
    /// time because a node settles exactly when an entry's bucket distance
    /// equals its current distance. Weights are >= 1 (the builder bumps
    /// zeros), so draining a whole bucket before relaxing is safe — no
    /// relaxation can land back in the bucket being drained.
    ///
    /// The hot loop runs on unchecked indexing. Safety rests on CSR build
    /// invariants and arena sizing: `node_state.len() == n + 1` (primed for
    /// this
    /// graph), every pool entry's node and every CSR target is `< n`
    /// (checked by [`crate::GraphBuilder`]), `offsets.len() == n + 1`,
    /// `targets.len() == weights.len() == offsets[n]`, pool indices are
    /// `< pool_node.len()` by construction, and ring indices are masked to
    /// `< dial_head.len()`. The equivalence proptests exercise this path
    /// against the safe reference on every graph family.
    fn run_dial(&mut self, source: NodeId) -> u64 {
        let mask = self.dial_mask as u32;
        self.dirty = true;
        let Self {
            node_state,
            adj,
            dial_head,
            pool,
            ..
        } = self;
        // Zero the packed distance half; the offset half stays.
        node_state[source as usize] &= u64::from(u32::MAX);
        pool[0] = (u64::from(source) << 32) | u64::from(NO_ENTRY);
        dial_head[0] = 0;
        // Manual arena cursor: `pool` is pre-sized to `arcs + 2`, and each
        // relax writes the tail slot unconditionally, advancing `cur` only
        // when the relax improved — a predicated push with no branch.
        let mut cur: u32 = 1;
        let mut live = 1u64;
        let mut d: u32 = 0;
        let mut settled = 0u64;
        // Two-stage software pipeline over each bucket's chain. A settled
        // node's relax is deferred by two pops: pop k prefetches its
        // adjacency row, pop k+1 reads the (now arrived) row head and
        // prefetches its first relax targets' tentative distances, pop k+2
        // retires the relax with every load already in cache. Safe within a
        // bucket: all entries in it share the same key `d` and every push
        // lands at `d + w >= d + 1` (weights are >= 1), so a deferred relax
        // can neither invalidate a settle check in this bucket nor feed it.
        // The pipeline drains before the scan leaves the bucket — deferring
        // across buckets could push a key the scan has already passed.
        let mut pend_lo = usize::MAX; // stage 2: relax-ready
        let mut pend_hi = 0usize;
        let mut park_lo = usize::MAX; // stage 1: adjacency row in flight
        let mut park_hi = 0usize;
        macro_rules! relax_row {
            ($rlo:expr, $rhi:expr) => {
                for i in $rlo..$rhi {
                    let packed = *adj.get_unchecked(i);
                    let u = packed as u32 as usize;
                    let nd = d + (packed >> 32) as u32;
                    let su = node_state.get_unchecked_mut(u);
                    if nd < (*su >> 32) as u32 {
                        *su = (u64::from(nd) << 32) | (*su as u32 as u64);
                        let nb = (nd & mask) as usize;
                        *pool.get_unchecked_mut(cur as usize) =
                            (u as u64) << 32 | u64::from(*dial_head.get_unchecked(nb));
                        *dial_head.get_unchecked_mut(nb) = cur;
                        cur += 1;
                        live += 1;
                    }
                }
            };
        }
        while live > 0 {
            let b = (d & mask) as usize;
            let mut e = dial_head[b];
            if e == NO_ENTRY {
                d += 1;
                continue;
            }
            dial_head[b] = NO_ENTRY;
            loop {
                // SAFETY: see the indexing invariants in the method doc.
                unsafe {
                    if e == NO_ENTRY {
                        // Chain done: drain both pipeline stages in order,
                        // then leave the bucket.
                        if pend_lo != usize::MAX {
                            relax_row!(pend_lo, pend_hi);
                            pend_lo = usize::MAX;
                        }
                        if park_lo != usize::MAX {
                            relax_row!(park_lo, park_hi);
                            park_lo = usize::MAX;
                        }
                        break;
                    }
                    let packed_entry = *pool.get_unchecked(e as usize);
                    let v = (packed_entry >> 32) as usize;
                    e = packed_entry as u32;
                    live -= 1;
                    // Hide the pop's serial load chain: pull the next
                    // entry's node state toward the cache while this one
                    // is processed.
                    if e != NO_ENTRY {
                        let nxt = (*pool.get_unchecked(e as usize) >> 32) as usize;
                        prefetch(node_state.get_unchecked(nxt));
                    }
                    // Settle exactly when this entry is the node's latest:
                    // its key (the scan distance) matches the current dist.
                    // One packed load answers that and bounds the row.
                    let sv = *node_state.get_unchecked(v);
                    if (sv >> 32) as u32 != d {
                        continue;
                    }
                    settled += 1;
                    let lo = sv as u32 as usize;
                    let hi = *node_state.get_unchecked(v + 1) as u32 as usize;
                    // An empty row leaves `lo == hi == adj.len()` when the
                    // tail nodes have no arcs; `add` may point one past the
                    // end (sound — prefetch takes a pointer, nothing loads).
                    prefetch(adj.as_ptr().add(lo));
                    // Stage 1 -> 2: the parked row's adjacency line has had
                    // a pop of slack; start its first targets' distance
                    // loads so the relax one pop from now hits cache.
                    // `park_lo < park_hi` is false both for an empty parked
                    // row and for the MAX no-park sentinel — the `t0` load
                    // (a real dereference) needs the row to be non-empty.
                    if park_lo < park_hi {
                        let t0 = *adj.get_unchecked(park_lo) as u32 as usize;
                        prefetch(node_state.get_unchecked(t0));
                        if park_lo + 1 < park_hi {
                            let t1 = *adj.get_unchecked(park_lo + 1) as u32 as usize;
                            prefetch(node_state.get_unchecked(t1));
                        }
                    }
                    // Retire stage 2, shift the pipeline, park this node.
                    if pend_lo != usize::MAX {
                        relax_row!(pend_lo, pend_hi);
                    }
                    pend_lo = park_lo;
                    pend_hi = park_hi;
                    park_lo = lo;
                    park_hi = hi;
                }
            }
        }
        settled
    }

    /// Copy the finished row out of whichever distance array the mode
    /// filled, widening Dial's `u32` sentinel back to [`INF`]. The Dial
    /// pass restores the packed distance halves to pristine (all-[`INF32`])
    /// as it copies —
    /// one sequential sweep replacing a scattered per-touched-node reset —
    /// and clears the dirty flag.
    fn write_row(&mut self, out: &mut Vec<Dist>) {
        out.clear();
        if self.dial_mask != 0 {
            let n = self.node_state.len() - 1;
            out.extend(self.node_state[..n].iter_mut().map(|s| {
                let dv = (*s >> 32) as u32;
                // `INF32` is all-ones, so one OR restores the distance
                // half while the offset half rides along untouched.
                *s |= u64::from(INF32) << 32;
                if dv == INF32 {
                    INF
                } else {
                    Dist::from(dv)
                }
            }));
            self.dirty = false;
        } else {
            out.extend_from_slice(&self.dist);
        }
    }
}
thread_local! {
    /// One arena per thread: the oracle's worker pool runs one fill per
    /// thread at a time, so fills never contend and warm state survives
    /// across batches on the same worker.
    static ARENA: RefCell<SearchArena> = const { RefCell::new(SearchArena::empty()) };
}

/// Fill `out` with the exact one-to-all distance row from `source`
/// ([`INF`] = unreachable), element-for-element equal to
/// [`dijkstra_all`](crate::dijkstra_all). `out` is cleared first and holds
/// `g.num_nodes()` entries afterwards; reusing it keeps warm fills
/// allocation-free. Returns the number of settled nodes, which is the
/// number of finite entries. Runs on this thread's arena, which is
/// re-primed whenever `g`'s structure differs from the last graph it
/// served. `source` must be a node of `g`.
pub fn fill_row(g: &Graph, source: NodeId, out: &mut Vec<Dist>) -> u64 {
    ARENA.with(|cell| {
        let mut arena = cell.borrow_mut();
        let obs = arena_obs();
        if arena.prime(g) {
            obs.reuse.inc();
        } else {
            obs.init.inc();
        }
        let settled = arena.run(g, source);
        arena.write_row(out);
        settled
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{dijkstra_all, GraphBuilder};
    use proptest::prelude::*;

    fn sample() -> Graph {
        // Path 0 -5- 1 -1- 2 -1- 3, shortcut 0 -4- 2; node 4 isolated.
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1, 5);
        b.add_edge(1, 2, 1);
        b.add_edge(2, 3, 1);
        b.add_edge(0, 2, 4);
        b.build()
    }

    #[test]
    fn rows_match_reference_on_sample() {
        let g = sample();
        let mut out = Vec::new();
        for s in g.nodes() {
            let settled = fill_row(&g, s, &mut out);
            assert_eq!(out, dijkstra_all(&g, s), "from {s}");
            let finite = out.iter().filter(|&&d| d != INF).count() as u64;
            assert_eq!(settled, finite, "settled count from {s}");
        }
    }

    #[test]
    fn warm_refill_reuses_the_arena() {
        let g = sample();
        let mut out = Vec::new();
        fill_row(&g, 0, &mut out);
        let first = out.clone();
        fill_row(&g, 0, &mut out);
        assert_eq!(out, first);
        // Different source on the warm arena.
        fill_row(&g, 3, &mut out);
        assert_eq!(out, dijkstra_all(&g, 3));
    }

    #[test]
    fn arena_rekeys_on_structure_change() {
        let mut out = Vec::new();
        let g1 = sample();
        fill_row(&g1, 0, &mut out);
        // Same node/arc counts, one weight changed: the arena must not
        // serve state primed on g1.
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1, 5);
        b.add_edge(1, 2, 1);
        b.add_edge(2, 3, 1);
        b.add_edge(0, 2, 2);
        let g2 = b.build();
        fill_row(&g2, 0, &mut out);
        assert_eq!(out, dijkstra_all(&g2, 0));
        fill_row(&g1, 0, &mut out);
        assert_eq!(out, dijkstra_all(&g1, 0));
    }

    #[test]
    fn single_node_graph() {
        let single = GraphBuilder::new(1).build();
        let mut out = vec![7; 3];
        fill_row(&single, 0, &mut out);
        assert_eq!(out, vec![0]);
    }

    proptest! {
        /// The arena produces exact rows on adversarial random graphs:
        /// disconnected, parallel edges, zero-weight (bumped to 1) edges,
        /// wide weight ranges exercising the radix heap's high buckets.
        #[test]
        fn rows_match_reference(
            n in 1usize..24,
            edges in proptest::collection::vec(
                (0u32..24, 0u32..24, 0u64..1_000_000_000), 0..80),
        ) {
            let mut b = GraphBuilder::new(n);
            for (u, v, w) in edges {
                let (u, v) = (u % n as u32, v % n as u32);
                if u != v {
                    b.add_edge(u, v, w);
                }
            }
            let g = b.build();
            let mut out = Vec::new();
            for s in g.nodes() {
                fill_row(&g, s, &mut out);
                prop_assert_eq!(&out, &dijkstra_all(&g, s), "source {}", s);
            }
        }
    }
}
