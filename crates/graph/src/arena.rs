//! The oracle's row engine: exact one-to-all Dijkstra over a per-thread
//! reusable search arena that searches only the graph's intersections.
//!
//! Every row the [`DistanceOracle`](crate::DistanceOracle) caches is a
//! [`Row`]: the core distances of one search over the graph's
//! [`Contraction`] (degree-2 road chains contracted to shortcuts, built
//! once per graph by [`Graph::contraction`]), read node by node on demand.
//! [`fill_row`] runs the same search and expands it into a full
//! `Vec<Dist>` in one linear pass. The contract is the one the equivalence
//! suites (`tests/backend_equivalence.rs`, `tests/chain_rows.rs`) pin down:
//! every entry a row reads is the entry [`dijkstra_all`](crate::dijkstra_all)
//! would produce, on every graph, including disconnected ones, parallel
//! arcs and weight-1 (bumped zero-weight) edges. `dijkstra_all` stays the
//! plain binary-heap reference every row test compares against.
//!
//! **Search.** A search runs over the core only, seeded at the source or,
//! for a chain source, at both ends of its run (at offsets `pa`, `pb`).
//! **Reads.** Node `v` reads `min(D[a] + pa, D[b] + pb)` off the core
//! distances `D` through its expansion entry, lowered to the direct
//! along-run distance when `v` lies on a chain source's own run (see the
//! [`contraction`](crate::contraction) docs for why this is exact). A
//! [`Row`] keeps the core distances (`core × 8` bytes) and that own run, a
//! short `(node, distance)` list, and applies the formula in
//! [`Row::get`]; [`Row::expand_into`] and [`fill_row`] apply it to every
//! node in node order.
//!
//! Graphs whose max edge weight fits a bounded window run Dial's algorithm
//! on a circular power-of-two bucket ring with a lazy-deletion entry pool,
//! `u32` distances packed beside each core node's CSR offset, and a
//! software pipeline that prefetches the pop chain, adjacency rows, and
//! relax targets ahead of use; the core's arcs are the contraction's packed
//! copy. Graphs with huge weights fall back to a 65-bucket radix heap
//! (intrusive doubly-linked bucket lists, O(1) decrease-key by relocation)
//! whose empty-bucket scans stay bounded by 64 regardless of weight
//! magnitude; it reads each core node's arcs off the graph's CSR and maps
//! them through the expansion table. The arena holds only what a search
//! writes; a warm [`fill_row`] performs **zero allocations**, and a warm
//! [`Row::new`] allocates only the row (both guarded by a
//! counting-allocator test in `tests/obs_overhead.rs`).
//!
//! Arena reuse/initialization counters land in the global
//! [`mcfs_obs::Registry`].

use std::cell::RefCell;
use std::sync::{Arc, OnceLock, Weak};

use crate::contraction::{core_arc, Contraction, Expand};
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
                "Search-arena (re)initializations for another graph",
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
/// Radix-heap buckets for 64-bit monotone keys: bucket 0 holds keys equal
/// to the last extracted minimum, bucket `i` (1..=64) keys whose highest
/// bit differing from it is bit `i - 1`.
const NBUCKETS: usize = 65;

/// The expansion pass: clear `out`, then write every node in node order
/// as its [`Expand::read`] off the core distances `core`.
fn expand_row(expand: &[Expand], core: &[Dist], out: &mut Vec<Dist>) {
    out.clear();
    out.extend(expand.iter().map(|e| e.read(|c| core[c as usize])));
}

/// Nodes a row from `source` reaches, the finite entries a full row would
/// hold, without a pass over the graph: on a symmetric graph the size of
/// the source's component (cached labels, [`Graph::components`]);
/// otherwise — a directed graph contracts nothing — the finite core
/// distances.
fn reached(g: &Graph, source: NodeId, core: &[Dist]) -> u64 {
    if g.is_symmetric() {
        let labels = g.components();
        labels.sizes[labels.of(source) as usize] as u64
    } else {
        core.iter().filter(|&&d| d != INF).count() as u64
    }
}

/// Per-thread reusable search state for one graph's contraction: the Dial
/// ring or the radix heap and the core distances a search writes. The
/// contraction itself lives on the graph. Everything is sized once per
/// graph, and only the arrays of the graph's mode are kept; warm searches
/// never allocate.
#[derive(Debug)]
struct SearchArena {
    /// The contraction the arena was last primed for. Weak, so the arena
    /// never keeps a dropped graph's tables alive; its allocation stays,
    /// so no other contraction can share the address.
    primed: Weak<Contraction>,
    /// Core distances of the last search ([`INF`] = unreached): the radix
    /// heap's own keys, or the Dial words' distance halves unpacked.
    dist: Vec<Dist>,
    /// Dial mode: per core node, packed `(dist << 32) | csr_offset`, plus a
    /// tail entry holding the arc count like CSR's sentinel offset. One
    /// cache line then serves a pop's settle check *and* its adjacency
    /// bounds. `u32` distances halve the traffic on the hottest data; the
    /// contraction's mode check proves no reachable distance can overflow
    /// them.
    node_state: Vec<u64>,
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
    /// Radix mode: head node of each bucket's intrusive list (`NO_NODE` =
    /// empty), the lists' links, and the bucket each core node sits in
    /// (`NOT_QUEUED` when absent).
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
            primed: Weak::new(),
            dist: Vec::new(),
            node_state: Vec::new(),
            dial_mask: 0,
            dial_head: Vec::new(),
            pool: Vec::new(),
            head: [NO_NODE; NBUCKETS],
            next: Vec::new(),
            prev: Vec::new(),
            bucket_of: Vec::new(),
            last: 0,
        }
    }

    /// Size the arena for contraction `c`, returning whether the warm
    /// state was reusable. Keyed by the contraction's identity, which a
    /// graph and its clones share; priming copies the core's CSR offsets
    /// into the Dial words and sizes the rest, O(core).
    fn prime(&mut self, c: &Arc<Contraction>) -> bool {
        if std::ptr::eq(self.primed.as_ptr(), Arc::as_ptr(c)) {
            return true;
        }
        self.primed = Arc::downgrade(c);
        let core = c.core_len();
        self.dist.clear();
        self.dist.resize(core, INF);
        // The other mode's arrays are surrendered: one mode per graph.
        if c.dial {
            self.next = Vec::new();
            self.prev = Vec::new();
            self.bucket_of = Vec::new();
            self.node_state.clear();
            self.node_state.extend(
                c.core_offsets
                    .iter()
                    .map(|&o| (u64::from(INF32) << 32) | u64::from(o)),
            );
            // Floor of 64 slots keeps `dial_mask` nonzero (the mode flag)
            // even on edgeless graphs, at the cost of a 256-byte ring.
            let ring = (c.max_core_w + 1).next_power_of_two().max(64) as usize;
            self.dial_mask = ring as u64 - 1;
            self.dial_head.clear();
            self.dial_head.resize(ring, NO_ENTRY);
            // One entry per improving relaxation (at most one per core arc:
            // a core node settles once) plus the two seeds.
            self.pool.clear();
            self.pool.resize(c.adj.len() + 2, 0);
        } else {
            self.node_state = Vec::new();
            self.dial_head = Vec::new();
            self.pool = Vec::new();
            self.dial_mask = 0;
            self.next.clear();
            self.next.resize(core, NO_NODE);
            self.prev.clear();
            self.prev.resize(core, NO_NODE);
            self.bucket_of.clear();
            self.bucket_of.resize(core, NOT_QUEUED);
        }
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

    /// One exact Dijkstra over the core of `c` from `source`'s seeds: the
    /// source itself, or the two ends of its run at their offsets (a seed
    /// that does not improve — the second end of a loop run — is skipped).
    /// Returns the core distances ([`INF`] = unreached). Dispatches to the
    /// Dial ring when the graph's weights allow it, else the radix heap,
    /// which reads the core's arcs off `g` itself.
    fn run(&mut self, g: &Graph, c: &Contraction, source: NodeId) -> &[Dist] {
        let e = c.expand[source as usize];
        let seeds = [(e.a, Dist::from(e.pa)), (e.b, Dist::from(e.pb))];
        if self.dial_mask != 0 {
            self.run_dial(&c.adj, seeds);
            for (d, &s) in self.dist.iter_mut().zip(&self.node_state) {
                *d = if (s >> 32) as u32 == INF32 {
                    INF
                } else {
                    s >> 32
                };
            }
            return &self.dist;
        }
        // Core-sized reset.
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
        while let Some(u) = self.pop_min() {
            let du = self.dist[u as usize];
            let v = c.core_node[u as usize] as usize;
            for i in offsets[v] as usize..offsets[v + 1] as usize {
                let (t, len) = core_arc(&c.expand, u, targets[i], weights[i]);
                let nd = du + len;
                if nd < self.dist[t as usize] {
                    self.dist[t as usize] = nd;
                    if self.bucket_of[t as usize] != NOT_QUEUED {
                        self.unlink(t);
                    }
                    self.push(t, nd);
                }
            }
        }
        &self.dist
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
    /// contraction's construction and on the arena being primed for the
    /// very contraction whose `adj` is passed (priming is keyed by its
    /// identity): `node_state` holds one entry per core node plus the
    /// tail, whose offset is `adj.len()`; offsets are
    /// nondecreasing; every `adj` target and every pool entry's node is a
    /// core index; pool indices stay below `pool.len()` (one entry per
    /// improving relaxation, at most one per core arc, plus two seeds);
    /// and ring indices are masked to `< dial_head.len()`. The equivalence
    /// suites exercise this path against the safe reference on every graph
    /// family.
    fn run_dial(&mut self, adj: &[u64], seeds: [(u32, Dist); 2]) {
        let mask = self.dial_mask as u32;
        let Self {
            node_state,
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
}

thread_local! {
    /// One arena per thread: the oracle's worker pool runs one fill per
    /// thread at a time, so fills never contend and warm state survives
    /// across batches on the same worker.
    static ARENA: RefCell<SearchArena> = const { RefCell::new(SearchArena::empty()) };
}

/// Run `f` on this thread's arena, primed for `g`'s contraction (built on
/// first use, [`Graph::contraction`]).
fn with_arena<R>(g: &Graph, f: impl FnOnce(&mut SearchArena, &Arc<Contraction>) -> R) -> R {
    let c = g.contraction();
    ARENA.with(|cell| {
        let mut arena = cell.borrow_mut();
        let obs = arena_obs();
        if arena.prime(c) {
            obs.reuse.inc();
        } else {
            obs.init.inc();
        }
        f(&mut arena, c)
    })
}

/// Fill `out` with the exact one-to-all distance row from `source`
/// ([`INF`] = unreachable), element-for-element equal to
/// [`dijkstra_all`](crate::dijkstra_all): one core search, then one linear
/// expansion pass in node order, the same reads [`Row::expand_into`]
/// makes. `out` is cleared first and holds `g.num_nodes()` entries
/// afterwards; reusing it keeps warm fills allocation-free. Returns the
/// number of nodes the row reaches, which is the number of its finite
/// entries (what a plain Dijkstra would settle). Runs on this thread's
/// arena, re-primed whenever `g` is not the graph it last served.
/// `source` must be a node of `g`.
pub fn fill_row(g: &Graph, source: NodeId, out: &mut Vec<Dist>) -> u64 {
    with_arena(g, |arena, c| {
        let core = arena.run(g, c, source);
        expand_row(&c.expand, core, out);
        c.own_run(g, source, |v, d| {
            let e = &mut out[v as usize];
            *e = (*e).min(d);
        });
        reached(g, source, core)
    })
}

/// One exact one-to-all distance row, held as the core distances of one
/// search ([module docs](self)) and read node by node on demand: the row
/// type the [`DistanceOracle`](crate::DistanceOracle) caches and shares.
///
/// A row costs `core × 8` bytes plus its source's own run, a few
/// `(node, distance)` pairs when the source is a chain node, and shares
/// the graph's [`Contraction`] through an `Arc`, so it reads correctly on
/// any thread, whatever graph that thread's arena serves next.
#[derive(Debug)]
pub struct Row {
    contraction: Arc<Contraction>,
    /// One distance per core node, [`INF`] = unreached.
    core: Box<[Dist]>,
    /// The source's own run: `(node, direct along-run distance)` for each
    /// node of a chain source's segment, source included, sorted by node.
    /// Empty for a core source.
    run: Box<[(NodeId, Dist)]>,
    /// The ends `(a, b)` every node of a chain source's segment carries,
    /// so [`get`](Self::get) searches the list only for chain nodes with
    /// these ends and touches no other memory otherwise; no pair of core
    /// indices for a core source.
    run_ends: (u32, u32),
    reached: u64,
}

impl Row {
    /// Search `g`'s core from `source` on this thread's arena and keep the
    /// core distances. A warm search allocates only the row. `source` must
    /// be a node of `g`.
    pub fn new(g: &Graph, source: NodeId) -> Self {
        with_arena(g, |arena, c| {
            let core = arena.run(g, c, source);
            // Counted first, so the list is allocated at its exact size.
            let mut run = Vec::with_capacity(c.own_run(g, source, |_, _| {}));
            c.own_run(g, source, |v, d| run.push((v, d)));
            run.sort_unstable();
            let e = c.expand[source as usize];
            Row {
                contraction: Arc::clone(c),
                core: core.into(),
                run: run.into_boxed_slice(),
                run_ends: if e.is_chain() {
                    (e.a, e.b)
                } else {
                    (u32::MAX, u32::MAX)
                },
                reached: reached(g, source, core),
            }
        })
    }

    /// Distance from the row's source to `v` ([`INF`] = unreachable):
    /// `min(D[a] + pa, D[b] + pb)` over `v`'s expansion entry, lowered by
    /// the own-run list when `v` is on the source's run. Only a chain node
    /// with the source's ends can be; a parallel run with the same ends is
    /// told apart by the list, which holds nodes.
    #[inline]
    pub fn get(&self, v: NodeId) -> Dist {
        let e = self.contraction.expand[v as usize];
        let d = e.read(|c| self.core[c as usize]);
        if !e.is_chain() || (e.a, e.b) != self.run_ends {
            return d;
        }
        match self.run.binary_search_by_key(&v, |&(u, _)| u) {
            Ok(i) => d.min(self.run[i].1),
            Err(_) => d,
        }
    }

    /// Write every node's distance into `out` (cleared first, `num_nodes`
    /// entries afterwards) in one linear pass: the full row
    /// [`dijkstra_all`](crate::dijkstra_all) would produce. For consumers
    /// that scan every node; reuse `out` across rows.
    pub fn expand_into(&self, out: &mut Vec<Dist>) {
        expand_row(&self.contraction.expand, &self.core, out);
        for &(v, d) in self.run.iter() {
            let e = &mut out[v as usize];
            *e = (*e).min(d);
        }
    }

    /// Nodes the row reaches: its finite entries, what a plain Dijkstra
    /// from the source would settle.
    pub fn reached(&self) -> u64 {
        self.reached
    }

    /// Distances the row holds: one per core node.
    pub fn core_len(&self) -> usize {
        self.core.len()
    }

    /// Nodes of the row's graph, the entries [`expand_into`](Self::expand_into)
    /// writes.
    pub fn num_nodes(&self) -> usize {
        self.contraction.expand.len()
    }
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

    /// Every entry of a core row, read one by one.
    fn read_all(row: &Row) -> Vec<Dist> {
        (0..row.num_nodes() as NodeId).map(|v| row.get(v)).collect()
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
            let row = Row::new(&g, s);
            assert_eq!(read_all(&row), out, "core row from {s}");
            assert_eq!(row.reached(), finite);
        }
        // Nodes 1 and 0 form a loop run from node 2 back to itself.
        assert_eq!(g.contraction().core_len(), 3);
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
            assert_eq!(g.contraction().core_len(), intersections);
            assert_eq!(g.contraction().dial, dial);
            let mut out = Vec::new();
            for s in (0..g.num_nodes() as NodeId).step_by(7) {
                let reached = fill_row(&g, s, &mut out);
                assert_eq!(out, dijkstra_all(&g, s), "from {s}");
                assert_eq!(reached, out.iter().filter(|&&d| d != INF).count() as u64);
                let row = Row::new(&g, s);
                assert_eq!(row.core_len(), intersections);
                assert_eq!(read_all(&row), out, "core row from {s}");
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
                prop_assert_eq!(&read_all(&Row::new(&g, s)), &out, "core row from {}", s);
            }
        }
    }
}
