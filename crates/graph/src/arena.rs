//! The oracle's row engine: exact one-to-all Dijkstra over a per-thread
//! reusable search arena that searches only the graph's intersections.
//!
//! Every row the [`DistanceOracle`](crate::DistanceOracle) caches is filled
//! by [`fill_row`]. Its contract is the one the equivalence suites
//! (`tests/backend_equivalence.rs`, `tests/chain_rows.rs`) pin down: the
//! row is byte-for-byte the row [`dijkstra_all`](crate::dijkstra_all)
//! would produce, on every graph, including disconnected ones, parallel
//! arcs and weight-1 (bumped zero-weight) edges. `dijkstra_all` stays the
//! plain binary-heap reference every row test compares against.
//!
//! **Contraction.** Road networks are mostly degree-2 *chain nodes*: a
//! street between two intersections is cut into several segments (the
//! paper's OSM graphs average degree 2.2–2.4). On a symmetric graph
//! ([`Graph::is_symmetric`]) a node with exactly two arcs, to two distinct
//! neighbours, is a chain node; every other node is a *core* node. Priming
//! the arena for a graph turns each maximal run of chain nodes into one
//! shortcut arc, in both directions, between the two core nodes that end
//! it, weighted with the run's length; each chain node records its ends
//! `a`, `b` and its offsets `pa`, `pb` from them. A run with no core end (a
//! pure cycle) has one node promoted to core, and a run is split, by
//! promoting the node where it would happen, before its shortcut reaches
//! the Dial bound, so contraction never moves a graph between Dial and
//! radix. Directed graphs and graphs without chain nodes contract to
//! themselves: every node is core and its table entry names itself, so
//! every graph takes the same search and the same expansion pass.
//!
//! **Search and expansion.** A fill searches the core only, seeded at the
//! source or, for a chain source, at both ends of its run (at offsets `pa`,
//! `pb`). One linear pass in node order then writes every entry as
//! `d(v) = min(D[a] + pa, D[b] + pb)` (a core node is its own end at
//! offset 0), and a walk along the source's own run lowers each of its
//! entries to the direct along-run distance where that is shorter. This is
//! exact: a shortcut weighs what its run does, so core distances are graph
//! distances, and every path to a chain node enters its run through one of
//! the run's two ends — except paths that start inside that run, which is
//! what the walk covers.
//!
//! Graphs whose max edge weight fits a bounded window run Dial's algorithm
//! on a circular power-of-two bucket ring with a lazy-deletion entry pool,
//! `u32` distances packed beside each core node's CSR offset, and a
//! software pipeline that prefetches the pop chain, adjacency rows, and
//! relax targets ahead of use; the core's arcs are packed into a copy
//! built at prime time. Graphs with huge weights fall back to a 65-bucket
//! radix heap (intrusive doubly-linked bucket lists, O(1) decrease-key by
//! relocation) whose empty-bucket scans stay bounded by 64 regardless of
//! weight magnitude; it keeps no copy of the core's arcs, but reads each
//! core node's arcs off the graph's CSR and maps them through the
//! expansion table. Either way a warm fill performs **zero allocations**
//! (guarded by a counting-allocator test in `tests/obs_overhead.rs`).
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
/// slots keep the ring's head array inside L1. It also bounds every chain
/// shortcut (runs are split before reaching it) and so every chain offset.
const DIAL_MAX_WEIGHT: Dist = 8192;
const _: () = assert!(DIAL_MAX_WEIGHT <= 1 << 16, "chain offsets are u16");
/// Radix-heap buckets for 64-bit monotone keys: bucket 0 holds keys equal
/// to the last extracted minimum, bucket `i` (1..=64) keys whose highest
/// bit differing from it is bit `i - 1`.
const NBUCKETS: usize = 65;

/// Prime-time node kinds: a chain node no run walk has reached yet, one
/// that a walk has passed, and a core node.
const CHAIN: u8 = 0;
const WALKED: u8 = 1;
const CORE: u8 = 2;

/// How one node's distance is read off the core search:
/// `min(D[a] + pa, D[b] + pb)` over core indices `a`, `b`. A core node is
/// its own end at offset 0; a chain node has offsets of at least 1 (every
/// weight is), which is how the two are told apart.
#[derive(Clone, Copy, Debug)]
struct Expand {
    a: u32,
    b: u32,
    pa: u16,
    pb: u16,
}

impl Expand {
    const fn core(index: u32) -> Self {
        Self {
            a: index,
            b: index,
            pa: 0,
            pb: 0,
        }
    }

    fn is_chain(self) -> bool {
        self.pa != 0
    }
}

/// The arc that leaves chain node `v` away from its neighbour `prev`.
#[inline]
fn step(g: &Graph, v: NodeId, prev: NodeId) -> (NodeId, Dist) {
    let (offsets, targets, weights) = g.csr();
    let lo = offsets[v as usize] as usize;
    let i = lo + usize::from(targets[lo] == prev);
    (targets[i], weights[i])
}

/// Give every chain node waiting in `segment` its far end `end`, `len`
/// away from the segment's start, and its offset from that end.
fn close_segment(segment: &mut Vec<NodeId>, expand: &mut [Expand], end: NodeId, len: Dist) {
    for c in segment.drain(..) {
        let e = &mut expand[c as usize];
        (e.b, e.pb) = (end, (len - Dist::from(e.pa)) as u16);
    }
}

/// The core arc that graph arc `from → to` of weight `w` stands for, with
/// `from` a core node given by its core index: the arc itself when `to` is
/// core, else the shortcut over `to`'s segment to the segment's far end.
#[inline]
fn core_arc(expand: &[Expand], from: u32, to: NodeId, w: Dist) -> (u32, Dist) {
    let e = expand[to as usize];
    if e.is_chain() {
        let far = if e.a == from { e.b } else { e.a };
        (far, Dist::from(e.pa) + Dist::from(e.pb))
    } else {
        (e.a, w)
    }
}

/// The expansion pass: clear `out`, write node `v` as
/// `min(D[a] + pa, D[b] + pb)` over its [`Expand`] entry, with `dist`
/// reading core distances and every value from `unreached` up read as
/// [`INF`], and return the number of finite entries. A real distance is
/// below `unreached` on either path, so a sum never reaches it by
/// accident, and a Dial sum of a `u32` distance and a `u16` offset cannot
/// overflow.
fn expand_row(
    expand: &[Expand],
    out: &mut Vec<Dist>,
    unreached: Dist,
    dist: impl Fn(u32) -> Dist,
) -> u64 {
    out.clear();
    let mut finite = 0u64;
    out.extend(expand.iter().map(|e| {
        let da = dist(e.a).saturating_add(Dist::from(e.pa));
        let d = da.min(dist(e.b).saturating_add(Dist::from(e.pb)));
        let reached = d < unreached;
        finite += u64::from(reached);
        if reached {
            d
        } else {
            INF
        }
    }));
    finite
}

/// Per-thread reusable search state over the contracted graph: the
/// expansion table, the core's CSR, and the Dial ring or radix heap that
/// searches it. Everything is sized once per graph structure, and only
/// the arrays of the graph's mode are kept; warm fills never allocate.
#[derive(Debug)]
struct SearchArena {
    graph_hash: u64,
    /// Node count the arena was last primed for.
    primed_nodes: usize,
    /// One [`Expand`] per node.
    expand: Vec<Expand>,
    /// Dial mode: per core node, packed `(dist << 32) | csr_offset`, plus a
    /// tail entry holding the arc count like CSR's sentinel offset. One
    /// cache line then serves a pop's settle check *and* its adjacency
    /// bounds. `u32` distances halve the traffic on the hottest data; the
    /// mode guard proves no reachable distance can overflow them.
    node_state: Vec<u64>,
    /// Dial mode: core arcs in core-node order, packed
    /// `(weight << 32) | target`: one sequential stream for the relax loop
    /// (every core weight is below [`DIAL_MAX_WEIGHT`]).
    adj: Vec<u64>,
    /// Dial mode: circular bucket ring of `dial_mask + 1` slots holding
    /// entry-pool indices (`NO_ENTRY` = empty). `dial_mask == 0` means the
    /// graph's weights exceed the ring bound and the radix heap is used.
    dial_mask: u64,
    dial_head: Vec<u32>,
    /// Dial entry pool, packed `(node << 32) | next_entry` so a pop is one
    /// load instead of two dependent ones; appended sequentially —
    /// relaxations append, never relocate, so the hot loop's only
    /// scattered write is the distance update itself.
    pool: Vec<u64>,
    /// Radix mode: the graph node of each core index. The radix heap keeps
    /// no copy of the core's arcs: it reads each core node's arcs off the
    /// graph's CSR and maps them through [`core_arc`].
    core_node: Vec<NodeId>,
    /// Radix mode: core distances, intrusive bucket lists and the bucket
    /// each core node sits in (`NOT_QUEUED` when absent).
    dist: Vec<Dist>,
    /// Head node of each bucket's intrusive list (`NO_NODE` = empty).
    head: [u32; NBUCKETS],
    next: Vec<u32>,
    prev: Vec<u32>,
    bucket_of: Vec<u8>,
    /// Key of the most recent extraction (radix-heap pivot).
    last: Dist,
}

impl SearchArena {
    const fn empty() -> Self {
        Self {
            graph_hash: 0,
            primed_nodes: usize::MAX,
            expand: Vec::new(),
            node_state: Vec::new(),
            adj: Vec::new(),
            dial_mask: 0,
            dial_head: Vec::new(),
            pool: Vec::new(),
            core_node: Vec::new(),
            dist: Vec::new(),
            head: [NO_NODE; NBUCKETS],
            next: Vec::new(),
            prev: Vec::new(),
            bucket_of: Vec::new(),
            last: 0,
        }
    }

    /// Size the arena for `g`, returning whether the warm state was
    /// reusable. Keyed by structural hash *and* length so that a different
    /// graph — even of identical size — is contracted afresh.
    fn prime(&mut self, g: &Graph) -> bool {
        let n = g.num_nodes();
        let h = g.structural_hash();
        if self.primed_nodes == n && self.graph_hash == h {
            return true;
        }
        self.graph_hash = h;
        self.primed_nodes = n;
        // Dial applies when every live key fits a bounded circular window
        // — keys in flight span at most [d, d + max_weight], so a
        // power-of-two ring of > max_weight slots is collision-free — and
        // when no reachable distance (< n * max_weight) can overflow the
        // `u32` distance array the Dial path runs on.
        let (_, _, weights) = g.csr();
        let max_w = weights.iter().copied().max().unwrap_or(0);
        let dial =
            max_w < DIAL_MAX_WEIGHT && (n as u64 + 1).saturating_mul(max_w) < u64::from(u32::MAX);
        // The other mode's arrays are surrendered: one mode per graph.
        if dial {
            self.core_node = Vec::new();
            self.dist = Vec::new();
            self.next = Vec::new();
            self.prev = Vec::new();
            self.bucket_of = Vec::new();
        } else {
            self.node_state = Vec::new();
            self.adj = Vec::new();
            self.dial_head = Vec::new();
            self.pool = Vec::new();
        }
        let (core, max_core_w) = self.contract(g, dial);
        if dial {
            // Floor of 64 slots keeps `dial_mask` nonzero (the mode flag)
            // even on edgeless graphs, at the cost of a 256-byte ring.
            let ring = (max_core_w + 1).next_power_of_two().max(64) as usize;
            self.dial_mask = ring as u64 - 1;
            self.dial_head.clear();
            self.dial_head.resize(ring, NO_ENTRY);
            // One entry per improving relaxation (at most one per core arc:
            // a core node settles once) plus the two seeds.
            self.pool.clear();
            self.pool.resize(self.adj.len() + 2, 0);
        } else {
            self.dial_mask = 0;
            self.dist.clear();
            self.dist.resize(core, INF);
            self.next.clear();
            self.next.resize(core, NO_NODE);
            self.prev.clear();
            self.prev.resize(core, NO_NODE);
            self.bucket_of.clear();
            self.bucket_of.resize(core, NOT_QUEUED);
        }
        false
    }

    /// Contract `g` into the expansion table, then lay out the core for the
    /// graph's mode: the Dial path's packed CSR (`node_state` offsets and
    /// `adj`), or the radix heap's `core_node`. Returns the core's node
    /// count and its heaviest arc (Dial only; 0 otherwise). Flat passes over
    /// the CSR arrays, O(n + arcs), walking every run once.
    fn contract(&mut self, g: &Graph, dial: bool) -> (usize, Dist) {
        let n = g.num_nodes();
        let (offsets, targets, weights) = g.csr();
        let arcs = |v: usize| offsets[v] as usize..offsets[v + 1] as usize;
        let symmetric = g.is_symmetric();
        let mut kind: Vec<u8> = (0..n)
            .map(|v| {
                let lo = offsets[v] as usize;
                let chain = symmetric && arcs(v).len() == 2 && targets[lo] != targets[lo + 1];
                if chain {
                    CHAIN
                } else {
                    CORE
                }
            })
            .collect();
        self.expand.clear();
        self.expand.resize(n, Expand::core(0));
        // Walk each run once, from its first core end in node order. A
        // chain node is labelled with its segment's ends (node ids until
        // the core is numbered) and its offsets from them; the node at
        // which a segment's shortcut would reach the Dial bound is promoted
        // and starts the next segment. `segment` holds the labels still
        // waiting for their far end.
        let mut segment: Vec<NodeId> = Vec::new();
        let mut label_run =
            |kind: &mut [u8], expand: &mut [Expand], from: NodeId, first: NodeId, w: Dist| {
                let (mut prev, mut cur, mut start, mut off) = (from, first, from, w);
                while kind[cur as usize] == CHAIN {
                    let (next, w) = step(g, cur, prev);
                    if off.saturating_add(w) >= DIAL_MAX_WEIGHT {
                        close_segment(&mut segment, expand, cur, off);
                        kind[cur as usize] = CORE;
                        (start, off) = (cur, 0);
                    } else {
                        kind[cur as usize] = WALKED;
                        expand[cur as usize] = Expand {
                            a: start,
                            b: start,
                            pa: off as u16,
                            pb: 0,
                        };
                        segment.push(cur);
                    }
                    (prev, cur, off) = (cur, next, off.saturating_add(w));
                }
                close_segment(&mut segment, expand, cur, off);
            };
        for v in 0..n {
            if kind[v] == CORE {
                for i in arcs(v) {
                    label_run(
                        &mut kind,
                        &mut self.expand,
                        v as NodeId,
                        targets[i],
                        weights[i],
                    );
                }
            }
        }
        // What no core end reached is a pure cycle: promote one node each.
        for v in 0..n {
            if kind[v] == CHAIN {
                kind[v] = CORE;
                let lo = offsets[v] as usize;
                label_run(
                    &mut kind,
                    &mut self.expand,
                    v as NodeId,
                    targets[lo],
                    weights[lo],
                );
            }
        }
        // Number the core in node order, then point the labels at it.
        let (mut core, mut core_arcs) = (0u32, 0);
        for (v, (e, &k)) in self.expand.iter_mut().zip(&kind).enumerate() {
            if k == CORE {
                *e = Expand::core(core);
                core += 1;
                core_arcs += arcs(v).len();
            }
        }
        for (v, &k) in kind.iter().enumerate() {
            if k != CORE {
                let e = self.expand[v];
                let (a, b) = (self.expand[e.a as usize].a, self.expand[e.b as usize].a);
                (self.expand[v].a, self.expand[v].b) = (a, b);
            }
        }
        let core_nodes = (0..n).filter(|&v| kind[v] == CORE);
        if !dial {
            self.core_node.clear();
            self.core_node.reserve(core as usize);
            self.core_node.extend(core_nodes.map(|v| v as NodeId));
            return (core as usize, 0);
        }
        // The Dial path's core CSR in core-node order: an arc to a core
        // node stays, an arc into a segment becomes the shortcut to the
        // segment's far end.
        self.node_state.clear();
        self.node_state.reserve(core as usize + 1);
        self.adj.clear();
        self.adj.reserve(core_arcs);
        let (mut max_w, mut offset) = (0, 0);
        for v in core_nodes {
            let from = self.expand[v].a;
            self.node_state.push((u64::from(INF32) << 32) | offset);
            offset += arcs(v).len() as u64;
            for i in arcs(v) {
                let (to, len) = core_arc(&self.expand, from, targets[i], weights[i]);
                max_w = max_w.max(len);
                self.adj.push((len << 32) | u64::from(to));
            }
        }
        self.node_state.push((u64::from(INF32) << 32) | offset);
        (core as usize, max_w)
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

    /// One exact Dijkstra over the core from `source`'s seeds: the source
    /// itself, or the two ends of its run at their offsets (a seed that
    /// does not improve — the second end of a loop run — is skipped).
    /// Leaves the core distances for [`write_row`](Self::write_row).
    /// Dispatches to the Dial ring when the graph's weights allow it, else
    /// the radix heap, which reads the core's arcs off `g` itself.
    fn run(&mut self, g: &Graph, source: NodeId) {
        let e = self.expand[source as usize];
        let seeds = [(e.a, Dist::from(e.pa)), (e.b, Dist::from(e.pb))];
        if self.dial_mask != 0 {
            return self.run_dial(seeds);
        }
        // Core-sized reset: cheaper than the row pass that follows.
        self.dist.fill(INF);
        self.bucket_of.fill(NOT_QUEUED);
        self.head = [NO_NODE; NBUCKETS];
        self.last = 0;
        for (v, d) in seeds {
            if d < self.dist[v as usize] {
                if self.bucket_of[v as usize] != NOT_QUEUED {
                    self.unlink(v);
                }
                self.dist[v as usize] = d;
                self.push(v, d);
            }
        }
        let (offsets, targets, weights) = g.csr();
        while let Some(c) = self.pop_min() {
            let dc = self.dist[c as usize];
            let v = self.core_node[c as usize] as usize;
            for i in offsets[v] as usize..offsets[v + 1] as usize {
                let (u, len) = core_arc(&self.expand, c, targets[i], weights[i]);
                let nd = dc + len;
                if nd < self.dist[u as usize] {
                    self.dist[u as usize] = nd;
                    if self.bucket_of[u as usize] != NOT_QUEUED {
                        self.unlink(u);
                    }
                    self.push(u, nd);
                }
            }
        }
    }

    /// Dial's algorithm over the circular entry ring. Lazy deletion: every
    /// improving relaxation appends a pool entry; stale entries (the node
    /// was re-improved or settled at a smaller key) are recognized at pop
    /// time because a node settles exactly when an entry's bucket distance
    /// equals its current distance. Weights are >= 1 (the builder bumps
    /// zeros), so draining a whole bucket before relaxing is safe — no
    /// relaxation can land back in the bucket being drained.
    ///
    /// The hot loop runs on unchecked indexing. Safety rests on the
    /// contraction's construction: `node_state` holds one entry per core
    /// node plus the tail, whose offset is `adj.len()`; offsets are
    /// nondecreasing; every `adj` target and every pool entry's node is a
    /// core index; pool indices stay below `pool.len()` (one entry per
    /// improving relaxation, at most one per core arc, plus two seeds);
    /// and ring indices are masked to `< dial_head.len()`. The equivalence
    /// suites exercise this path against the safe reference on every graph
    /// family.
    fn run_dial(&mut self, seeds: [(u32, Dist); 2]) {
        let mask = self.dial_mask as u32;
        let Self {
            node_state,
            adj,
            dial_head,
            pool,
            ..
        } = self;
        let core = node_state.len() - 1;
        // Restore pristine distance halves: `INF32` is all-ones, so one OR
        // resets the distance while the offset half rides along.
        for s in &mut node_state[..core] {
            *s |= u64::from(INF32) << 32;
        }
        let mut cur: u32 = 0;
        let mut live = 0u64;
        for (v, d) in seeds {
            let s = &mut node_state[v as usize];
            if d < *s >> 32 {
                *s = (d << 32) | (*s & u64::from(u32::MAX));
                let nb = (d as u32 & mask) as usize;
                pool[cur as usize] = (u64::from(v) << 32) | u64::from(dial_head[nb]);
                dial_head[nb] = cur;
                cur += 1;
                live += 1;
            }
        }
        let mut d = seeds[0].1.min(seeds[1].1) as u32;
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
        // Keys are summed in `u64`: a shortcut may carry a walk that is no
        // shortest path past `u32`, but such a key never improves anything
        // (every reachable distance fits `u32`), so it is never stored.
        macro_rules! relax_row {
            ($rlo:expr, $rhi:expr) => {
                for i in $rlo..$rhi {
                    let packed = *adj.get_unchecked(i);
                    let u = packed as u32 as usize;
                    let nd = u64::from(d) + (packed >> 32);
                    let su = node_state.get_unchecked_mut(u);
                    if nd < *su >> 32 {
                        *su = (nd << 32) | (*su & u64::from(u32::MAX));
                        let nb = (nd as u32 & mask) as usize;
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
    }

    /// Expand the core distances into the full row, `out` cleared first,
    /// and return its number of finite entries. One linear pass in node
    /// order writes each node as the nearer of its two ends; then the
    /// source's own run is lowered to its direct along-run distances.
    fn write_row(&self, g: &Graph, source: NodeId, out: &mut Vec<Dist>) -> u64 {
        let finite = if self.dial_mask == 0 {
            expand_row(&self.expand, out, INF, |c| self.dist[c as usize])
        } else {
            // Dial: `(dist << 32) | offset` words, `INF32` = unreached.
            let state = &self.node_state;
            expand_row(&self.expand, out, Dist::from(INF32), |c| {
                state[c as usize] >> 32
            })
        };
        if self.expand[source as usize].is_chain() {
            out[source as usize] = 0;
            let (offsets, targets, weights) = g.csr();
            for i in offsets[source as usize] as usize..offsets[source as usize + 1] as usize {
                let (mut prev, mut cur, mut len) = (source, targets[i], weights[i]);
                while self.expand[cur as usize].is_chain() {
                    let d = &mut out[cur as usize];
                    *d = (*d).min(len);
                    let (next, w) = step(g, cur, prev);
                    (prev, cur, len) = (cur, next, len + w);
                }
            }
        }
        finite
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
/// allocation-free. Returns the number of nodes the row reaches, which is
/// the number of its finite entries (what a plain Dijkstra would settle).
/// Runs on this thread's arena, which is re-primed (the graph contracted
/// afresh) whenever `g`'s structure differs from the last graph it served.
/// `source` must be a node of `g`.
pub fn fill_row(g: &Graph, source: NodeId, out: &mut Vec<Dist>) -> u64 {
    ARENA.with(|cell| {
        let mut arena = cell.borrow_mut();
        let obs = arena_obs();
        if arena.prime(g) {
            obs.reuse.inc();
        } else {
            obs.init.inc();
        }
        arena.run(g, source);
        arena.write_row(g, source, out)
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

    /// Core nodes of this thread's arena after a fill on `g`.
    fn core_size(g: &Graph) -> usize {
        fill_row(g, 0, &mut Vec::new());
        ARENA.with(|cell| {
            let arena = cell.borrow();
            if arena.dial_mask != 0 {
                arena.node_state.len() - 1
            } else {
                arena.core_node.len()
            }
        })
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
        // Nodes 1 and 0 form a loop run from node 2 back to itself.
        assert_eq!(core_size(&g), 3);
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

    /// A 12 × 12 street grid with 13 streets missing, every street cut
    /// into 1–5 segments the way `mcfs-gen` subdivides its cities. Only
    /// the intersections and dead ends (backbone degree other than 2) may
    /// stay in the core, on the Dial ring and, with one heavy street
    /// added between two crossings, on the radix heap; a change that stops
    /// contracting fails here.
    #[test]
    fn subdivided_grid_city_contracts_to_its_intersections() {
        let side = 12u32;
        let mut streets = Vec::new();
        for i in 0..side {
            for j in 0..side {
                let v = i * side + j;
                if j + 1 < side && (i * 7 + j * 5) % 11 != 0 {
                    streets.push((v, v + 1, i + j));
                }
                if i + 1 < side && (i * 5 + j * 7 + 3) % 11 != 0 {
                    streets.push((v, v + side, i * 3 + j));
                }
            }
        }
        let mut degree = vec![0usize; (side * side) as usize];
        let mut segments = Vec::new();
        let mut n = side * side;
        for &(u, v, salt) in &streets {
            degree[u as usize] += 1;
            degree[v as usize] += 1;
            let mut prev = u;
            for s in 1..1 + salt % 5 {
                segments.push((prev, n, u64::from(1 + (salt + s) % 9)));
                prev = n;
                n += 1;
            }
            segments.push((prev, v, u64::from(1 + salt % 7)));
        }
        let intersections = degree.iter().filter(|&&d| d != 2).count();
        assert_eq!((n, streets.len()), (616, 240));
        assert_eq!(intersections, 132);
        let crossings: Vec<u32> = (0..side * side)
            .filter(|&v| degree[v as usize] >= 3)
            .collect();
        let heavy = (crossings[0], crossings[crossings.len() - 1], 1 << 20);
        for (extra, dial) in [(None, true), (Some(heavy), false)] {
            let mut b = GraphBuilder::new(n as usize);
            for &(u, v, w) in segments.iter().chain(&extra) {
                b.add_edge(u, v, w);
            }
            let g = b.build();
            assert_eq!(core_size(&g), intersections);
            assert_eq!(ARENA.with(|cell| cell.borrow().dial_mask != 0), dial);
            let mut out = Vec::new();
            for s in (0..g.num_nodes() as NodeId).step_by(7) {
                let reached = fill_row(&g, s, &mut out);
                assert_eq!(out, dijkstra_all(&g, s), "from {s}");
                assert_eq!(reached, out.iter().filter(|&&d| d != INF).count() as u64);
            }
        }
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
