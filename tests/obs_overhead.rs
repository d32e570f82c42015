//! Bench guard for the observability substrate: the tracing
//! instrumentation on the solver hot paths must be near-free when no trace
//! is active.
//!
//! Wall-clock A/B runs of a whole solve are too noisy for a CI assertion
//! (scheduler jitter on a shared runner easily exceeds 2%), so the guard is
//! computed analytically from two stable measurements on the committed
//! bikes instance:
//!
//! 1. the number of `span` call sites a single WMA solve actually executes
//!    (counted by running one solve in force-trace mode and reading the
//!    span store back), and
//! 2. the measured cost of the *disabled* `span` fast path (one relaxed
//!    atomic load), amortized over a million calls.
//!
//! Their product is the total disabled-mode tracing cost of a solve, and it
//! must stay under 2% of the solve's own median wall time. The guard also
//! checks that the force-traced solve returns the untraced solution.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fs;
use std::hint::black_box;
use std::time::Instant;

use mcfs_repro::core::{Solver, Wma};
use mcfs_repro::io::read_checkpoint;
use mcfs_repro::obs::{
    bus_enabled, flight, next_scope_id, set_force, span, subscribe, ScopeGuard,
    DEFAULT_FLIGHT_CAPACITY,
};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/bikes_small.ckpt");

/// Arming the flight recorder arms the event bus process-wide, so the
/// tests that toggle or assert on global arming state serialize here.
/// Every test in this binary holds it, so no timed probe shares the CPUs
/// with a sibling test.
static GLOBAL_ARM: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn median_ns(mut samples: Vec<u128>) -> u128 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

#[test]
fn disabled_mode_tracing_overhead_stays_under_two_percent() {
    let _arm = GLOBAL_ARM.lock().unwrap_or_else(|e| e.into_inner());
    let text = fs::read(GOLDEN).expect("committed golden checkpoint");
    let (owned, _recorded) = read_checkpoint(text.as_slice()).unwrap();
    let inst = owned.instance().unwrap();

    // Warm up allocator and caches before any timing.
    for _ in 0..2 {
        black_box(Wma::new().solve(&inst).unwrap());
    }

    // Median solve wall time with tracing disabled (the default state: no
    // guard alive, force off — `span` takes the single-atomic-load exit).
    let disabled_ns = median_ns(
        (0..9)
            .map(|_| {
                let t0 = Instant::now();
                black_box(Wma::new().solve(&inst).unwrap());
                t0.elapsed().as_nanos()
            })
            .collect(),
    );

    // Count the span call sites one solve executes, pool threads included:
    // force mode records every span process-wide, and outside a bus scope
    // each lands in the store's unscoped ring.
    set_force(true);
    flight::clear();
    let traced = black_box(Wma::new().solve(&inst).unwrap());
    let spans_per_solve = flight::dump(0).len() as u128;
    let enabled_ns = {
        let t0 = Instant::now();
        black_box(Wma::new().solve(&inst).unwrap());
        t0.elapsed().as_nanos()
    };
    set_force(false);
    flight::clear();
    assert!(
        spans_per_solve > 0,
        "a forced solve must record instrumentation spans"
    );
    assert_eq!(
        traced,
        Wma::new().solve(&inst).unwrap(),
        "a force-traced solve must return the untraced solution"
    );

    // Cost of one disabled `span` call, amortized over a million.
    const PROBE_CALLS: u128 = 1_000_000;
    let t0 = Instant::now();
    for _ in 0..PROBE_CALLS {
        black_box(span(black_box("obs.overhead.probe")));
    }
    let probe_total_ns = t0.elapsed().as_nanos();
    // Sanity: the probe really took the inert path (nothing recorded).
    assert!(
        flight::dump(0).is_empty(),
        "probe spans leaked into the ring"
    );

    let overhead_ns = spans_per_solve * probe_total_ns / PROBE_CALLS;
    let budget_ns = disabled_ns / 50; // 2%
    eprintln!(
        "obs overhead guard: solve disabled={disabled_ns}ns enabled={enabled_ns}ns \
         spans/solve={spans_per_solve} disabled-span={:.1}ns \
         => overhead {overhead_ns}ns vs budget {budget_ns}ns",
        probe_total_ns as f64 / PROBE_CALLS as f64,
    );
    assert!(
        overhead_ns < budget_ns,
        "disabled-mode tracing costs {overhead_ns}ns per solve \
         ({spans_per_solve} spans), over the 2% budget of {budget_ns}ns \
         (solve median {disabled_ns}ns)"
    );
}

/// The same analytic guard for the event bus: with zero subscribers, every
/// emission site reduces to one relaxed `bus_enabled()` load, and the sum
/// of those loads over a solve must stay under 2% of the solve itself.
#[test]
fn zero_subscriber_event_bus_overhead_stays_under_two_percent() {
    let _arm = GLOBAL_ARM.lock().unwrap_or_else(|e| e.into_inner());
    let text = fs::read(GOLDEN).expect("committed golden checkpoint");
    let (owned, _recorded) = read_checkpoint(text.as_slice()).unwrap();
    let inst = owned.instance().unwrap();

    for _ in 0..2 {
        black_box(Wma::new().solve(&inst).unwrap());
    }

    // Median solve wall time with the bus idle (no subscriber anywhere in
    // this process: this test binary never leaves one registered).
    assert!(!bus_enabled(), "bus must start disarmed in this binary");
    let disabled_ns = median_ns(
        (0..9)
            .map(|_| {
                let t0 = Instant::now();
                black_box(Wma::new().solve(&inst).unwrap());
                t0.elapsed().as_nanos()
            })
            .collect(),
    );

    // Count the events one solve publishes by actually subscribing: the
    // scope filter keeps the count exact even if something else publishes.
    let scope = next_scope_id();
    let events_per_solve = {
        let sub = subscribe(Some(scope));
        let _guard = ScopeGuard::enter(scope);
        black_box(Wma::new().solve(&inst).unwrap());
        let drain = sub.poll();
        assert_eq!(drain.dropped, 0, "default ring must hold one solve");
        drain.events.len() as u128
    };
    assert!(
        events_per_solve > 0,
        "a subscribed solve must publish iteration events"
    );
    assert!(
        !bus_enabled(),
        "dropping the only subscriber disarms the bus"
    );

    // Cost of one disarmed emission-site check, amortized over a million.
    const PROBE_CALLS: u128 = 1_000_000;
    let t0 = Instant::now();
    for _ in 0..PROBE_CALLS {
        black_box(bus_enabled());
    }
    let probe_total_ns = t0.elapsed().as_nanos();

    let overhead_ns = events_per_solve * probe_total_ns / PROBE_CALLS;
    let budget_ns = disabled_ns / 50; // 2%
    eprintln!(
        "bus overhead guard: solve disabled={disabled_ns}ns \
         events/solve={events_per_solve} disarmed-check={:.1}ns \
         => overhead {overhead_ns}ns vs budget {budget_ns}ns",
        probe_total_ns as f64 / PROBE_CALLS as f64,
    );
    assert!(
        overhead_ns < budget_ns,
        "zero-subscriber event publishing costs {overhead_ns}ns per solve \
         ({events_per_solve} emission sites), over the 2% budget of \
         {budget_ns}ns (solve median {disabled_ns}ns)"
    );
}

/// The same analytic guard for the flight recorder: while disarmed, every
/// capture hook reduces to one relaxed `flight::armed()` load (the cost
/// promised by `crates/obs/src/flight.rs`'s module docs), and the sum of
/// those loads over a solve's worth of capture sites must stay under 2%
/// of the solve itself.
#[test]
fn disarmed_flight_recorder_overhead_stays_under_two_percent() {
    let _arm = GLOBAL_ARM.lock().unwrap_or_else(|e| e.into_inner());
    let text = fs::read(GOLDEN).expect("committed golden checkpoint");
    let (owned, _recorded) = read_checkpoint(text.as_slice()).unwrap();
    let inst = owned.instance().unwrap();

    for _ in 0..2 {
        black_box(Wma::new().solve(&inst).unwrap());
    }

    // Median solve wall time with the recorder disarmed (the library
    // default: only `mcfs-serve` arms it, never a test server).
    assert!(
        !flight::armed(),
        "recorder must start disarmed in this binary"
    );
    let disabled_ns = median_ns(
        (0..9)
            .map(|_| {
                let t0 = Instant::now();
                black_box(Wma::new().solve(&inst).unwrap());
                t0.elapsed().as_nanos()
            })
            .collect(),
    );

    // Count the capture sites one solve exercises by actually arming the
    // recorder: every bus event a scoped solve publishes lands in the
    // scope's ring (capacity far above one solve so nothing is evicted).
    let scope = next_scope_id();
    let captures_per_solve = {
        flight::set_capacity(1 << 20);
        flight::enable();
        let _guard = ScopeGuard::enter(scope);
        black_box(Wma::new().solve(&inst).unwrap());
        flight::dump(scope).len() as u128
    };
    flight::disable();
    flight::set_capacity(DEFAULT_FLIGHT_CAPACITY);
    flight::forget(scope);
    assert!(
        captures_per_solve > 0,
        "an armed scoped solve must capture flight entries"
    );
    assert!(!flight::armed(), "disable() must disarm the recorder");

    // Cost of one disarmed capture-hook check, amortized over a million.
    const PROBE_CALLS: u128 = 1_000_000;
    let t0 = Instant::now();
    for _ in 0..PROBE_CALLS {
        black_box(flight::armed());
    }
    let probe_total_ns = t0.elapsed().as_nanos();

    let overhead_ns = captures_per_solve * probe_total_ns / PROBE_CALLS;
    let budget_ns = disabled_ns / 50; // 2%
    eprintln!(
        "flight overhead guard: solve disabled={disabled_ns}ns \
         captures/solve={captures_per_solve} disarmed-check={:.1}ns \
         => overhead {overhead_ns}ns vs budget {budget_ns}ns",
        probe_total_ns as f64 / PROBE_CALLS as f64,
    );
    assert!(
        overhead_ns < budget_ns,
        "disarmed flight recording costs {overhead_ns}ns per solve \
         ({captures_per_solve} capture sites), over the 2% budget of \
         {budget_ns}ns (solve median {disabled_ns}ns)"
    );
}

/// The same analytic guard for the continuous profiler, disarmed: the
/// profiler folds into the trace arming count, so with the profiler off a
/// span site must stay the single relaxed load the tracing guard above
/// already budgets — and specifically must not have grown from wiring the
/// profiler term into the re-arm check.
#[test]
fn disarmed_profiler_overhead_stays_under_two_percent() {
    use mcfs_repro::obs::profile;

    let _arm = GLOBAL_ARM.lock().unwrap_or_else(|e| e.into_inner());
    assert!(
        !profile::enabled(),
        "profiler must start disarmed in this binary"
    );
    let text = fs::read(GOLDEN).expect("committed golden checkpoint");
    let (owned, _recorded) = read_checkpoint(text.as_slice()).unwrap();
    let inst = owned.instance().unwrap();

    for _ in 0..2 {
        black_box(Wma::new().solve(&inst).unwrap());
    }
    let disabled_ns = median_ns(
        (0..9)
            .map(|_| {
                let t0 = Instant::now();
                black_box(Wma::new().solve(&inst).unwrap());
                t0.elapsed().as_nanos()
            })
            .collect(),
    );

    // Span sites one solve executes (force mode records them all).
    set_force(true);
    flight::clear();
    black_box(Wma::new().solve(&inst).unwrap());
    let spans_per_solve = flight::dump(0).len() as u128;
    set_force(false);
    flight::clear();
    assert!(spans_per_solve > 0);

    // Per-call cost of a span site with the profiler (and everything
    // else) disarmed: the one-relaxed-load inert path. A profiler that
    // left the arming count raised, or added work to the fast path, shows
    // up here.
    const PROBE_CALLS: u128 = 1_000_000;
    let t0 = Instant::now();
    for _ in 0..PROBE_CALLS {
        black_box(span(black_box("obs.profile.disarmed.probe")));
    }
    let probe_total_ns = t0.elapsed().as_nanos();
    assert!(
        flight::dump(0).is_empty(),
        "probe spans leaked into the ring"
    );
    let after = profile::snapshot();
    assert!(
        !after.merged.keys().any(|p| p.contains("profile.disarmed")),
        "disarmed probe paths leaked into the profile table"
    );

    let overhead_ns = spans_per_solve * probe_total_ns / PROBE_CALLS;
    let budget_ns = disabled_ns / 50; // 2%
    eprintln!(
        "profiler disarmed guard: solve={disabled_ns}ns spans/solve={spans_per_solve} \
         disarmed-span={:.1}ns => overhead {overhead_ns}ns vs budget {budget_ns}ns",
        probe_total_ns as f64 / PROBE_CALLS as f64,
    );
    assert!(
        overhead_ns < budget_ns,
        "disarmed-profiler span sites cost {overhead_ns}ns per solve \
         ({spans_per_solve} sites), over the 2% budget of {budget_ns}ns \
         (solve median {disabled_ns}ns)"
    );
}

/// Armed-profiler guard at the default sampling rate: with the profiler
/// on (and no trace active), a span site pays the frame push/pop against
/// its own thread slot. The sum of those over a solve's span sites must
/// stay under 5% of the solve — the price `mcfs-serve` pays for running
/// always-on. Analytic like the guards above: wall-clock A/B of whole
/// solves cannot resolve 5% on a shared CI runner, per-site probes can.
#[test]
fn armed_profiler_overhead_stays_under_five_percent() {
    use mcfs_repro::obs::profile;

    let _arm = GLOBAL_ARM.lock().unwrap_or_else(|e| e.into_inner());
    let text = fs::read(GOLDEN).expect("committed golden checkpoint");
    let (owned, _recorded) = read_checkpoint(text.as_slice()).unwrap();
    let inst = owned.instance().unwrap();

    for _ in 0..2 {
        black_box(Wma::new().solve(&inst).unwrap());
    }
    let disabled_ns = median_ns(
        (0..9)
            .map(|_| {
                let t0 = Instant::now();
                black_box(Wma::new().solve(&inst).unwrap());
                t0.elapsed().as_nanos()
            })
            .collect(),
    );

    set_force(true);
    flight::clear();
    black_box(Wma::new().solve(&inst).unwrap());
    let spans_per_solve = flight::dump(0).len() as u128;
    set_force(false);
    flight::clear();
    assert!(spans_per_solve > 0);

    // Per-call cost of a span site with the profiler armed at the default
    // rate: push_frame + pop_frame on this thread's slot. The background
    // sampler runs concurrently, as in production — its reads land on the
    // same slot and any contention it causes is part of the price.
    profile::enable(mcfs_repro::obs::DEFAULT_SAMPLE_HZ);
    const PROBE_CALLS: u128 = 1_000_000;
    let t0 = Instant::now();
    for _ in 0..PROBE_CALLS {
        black_box(span(black_box("obs.profile.armed.probe")));
    }
    let probe_total_ns = t0.elapsed().as_nanos();
    profile::disable();
    assert!(
        flight::dump(0).is_empty(),
        "profiler-armed spans must not record into the span store"
    );

    let overhead_ns = spans_per_solve * probe_total_ns / PROBE_CALLS;
    let budget_ns = disabled_ns / 20; // 5%
    eprintln!(
        "profiler armed guard: solve={disabled_ns}ns spans/solve={spans_per_solve} \
         armed-span={:.1}ns => overhead {overhead_ns}ns vs budget {budget_ns}ns",
        probe_total_ns as f64 / PROBE_CALLS as f64,
    );
    assert!(
        overhead_ns < budget_ns,
        "armed-profiler span sites cost {overhead_ns}ns per solve \
         ({spans_per_solve} sites), over the 5% budget of {budget_ns}ns \
         (solve median {disabled_ns}ns)"
    );
}

/// A [`System`] wrapper that tallies bytes requested by the current
/// thread. `try_with` keeps the hooks safe during TLS teardown and
/// re-entrant allocation.
struct CountingAlloc;

thread_local! {
    static BYTES_ALLOCATED: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = BYTES_ALLOCATED.try_with(|c| c.set(c.get() + layout.size() as u64));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let grown = new_size.saturating_sub(layout.size()) as u64;
        let _ = BYTES_ALLOCATED.try_with(|c| c.set(c.get() + grown));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn bytes_allocated_by(f: impl FnOnce()) -> u64 {
    let before = BYTES_ALLOCATED.with(|c| c.get());
    f();
    BYTES_ALLOCATED.with(|c| c.get()) - before
}

/// Allocation-churn guard for the frame parser: with a warm
/// [`mcfs_repro::server::FrameBuf`], parsing a request frame must cost at
/// most a small bounded allocation (the owned session `String` and
/// nothing proportional to line length), and strictly less than the
/// unbuffered path that builds fresh line storage per frame.
#[test]
fn buffered_frame_parsing_allocates_a_bounded_trickle() {
    use mcfs_repro::server::{FrameBuf, TracedRequest};

    let _arm = GLOBAL_ARM.lock().unwrap_or_else(|e| e.into_inner());
    const FRAMES: u64 = 4096;
    const LINE: &str = "SOLVE load-session deadline_ms=250 trace=7\n";
    let stream: String = LINE.repeat(FRAMES as usize);
    let max_payload = 1024;

    // Warm the reusable buffer so its line capacity is established before
    // the measured window.
    let mut buf = FrameBuf::new();
    {
        let mut r = std::io::Cursor::new(LINE.as_bytes());
        TracedRequest::read_buffered(&mut r, max_payload, &mut buf)
            .unwrap()
            .unwrap();
    }

    let buffered = bytes_allocated_by(|| {
        let mut r = std::io::Cursor::new(stream.as_bytes());
        let mut parsed = 0u64;
        while let Some(req) = TracedRequest::read_buffered(&mut r, max_payload, &mut buf).unwrap() {
            black_box(&req);
            parsed += 1;
        }
        assert_eq!(parsed, FRAMES);
    });

    let unbuffered = bytes_allocated_by(|| {
        let mut r = std::io::Cursor::new(stream.as_bytes());
        let mut parsed = 0u64;
        while let Some(req) = TracedRequest::read_from(&mut r, max_payload).unwrap() {
            black_box(&req);
            parsed += 1;
        }
        assert_eq!(parsed, FRAMES);
    });

    let per_frame = buffered / FRAMES;
    eprintln!(
        "frame-parse allocation: buffered {per_frame} B/frame, \
         unbuffered {} B/frame",
        unbuffered / FRAMES
    );
    assert!(
        per_frame <= 256,
        "buffered parse allocates {per_frame} B/frame (budget 256)"
    );
    assert!(
        buffered < unbuffered,
        "reusing the frame buffer must beat per-frame line storage \
         (buffered {buffered} B vs unbuffered {unbuffered} B)"
    );
}

/// Zero-allocation guard for the oracle's row engine, the arena search
/// [`fill_row`](mcfs_repro::graph::fill_row) (the `bucket` cell of
/// `backend-report`): after one fill has primed the thread-local search
/// arena for a graph (and the row buffer has its capacity), every further
/// warm fill must allocate exactly zero bytes — the arena's lazy reset
/// touches only memory it already owns.
///
/// The α = 2 synthetic graph has almost no degree-2 runs, so the guard
/// repeats on a subdivided grid city, where most nodes are chain nodes and
/// every fill searches the contracted core and expands it, including from
/// sources inside a run, and on that city with one street too heavy for the
/// Dial ring (the radix heap).
///
/// The binary-heap reference `dijkstra_all` is measured alongside as a
/// sanity check that the counting allocator actually sees row traffic: a
/// fresh `BinaryHeap` plus distance row per call cannot be free.
#[test]
fn bucket_backend_warm_row_fill_allocates_zero_bytes() {
    use mcfs_repro::gen::city::{generate_city, CitySpec, CityStyle};
    use mcfs_repro::gen::synthetic::{generate_synthetic, SyntheticConfig};
    use mcfs_repro::graph::{dijkstra_all, fill_row, GraphBuilder};

    let _arm = GLOBAL_ARM.lock().unwrap_or_else(|e| e.into_inner());
    let g = generate_synthetic(&SyntheticConfig::uniform(2_000, 2.0, 41));
    let mut row = Vec::new();

    // Prime: first fill sizes the thread-local arena for this graph, takes
    // the one-time obs-counter and TLS initialization hits, and gives the
    // row buffer its capacity.
    fill_row(&g, 0, &mut row);
    fill_row(&g, 1, &mut row);

    // Warm fills from several sources, including re-fills of a source
    // already computed: all must be allocation-free.
    let warm = bytes_allocated_by(|| {
        for source in [2u32, 3, 999, 0, 2] {
            fill_row(&g, source, &mut row);
            black_box(&row);
        }
    });
    assert_eq!(
        warm, 0,
        "warm arena row fills allocated {warm} bytes (budget: exactly 0)"
    );

    // Control: the heap reference allocates per call, proving the counter
    // is live on this thread and the zero above is meaningful.
    black_box(dijkstra_all(&g, 0));
    let reference = bytes_allocated_by(|| {
        black_box(dijkstra_all(&g, 1));
    });
    assert!(
        reference > 0,
        "heap reference fill reported zero bytes — counting allocator dead?"
    );

    let city = generate_city(&CitySpec {
        name: "ZeroAllocCity",
        target_nodes: 3_000,
        style: CityStyle::Grid,
        avg_edge_len: 15.0,
        seed: 41,
    });
    let last = city.num_nodes() as u32 - 1;
    assert_eq!(city.degree(last), 2, "the last node sits inside a street");
    fill_row(&city, 0, &mut row);
    fill_row(&city, last, &mut row);
    let warm = bytes_allocated_by(|| {
        for source in [1u32, last, last - 1, 7, last / 2, 0] {
            fill_row(&city, source, &mut row);
            black_box(&row);
        }
    });
    assert_eq!(
        warm, 0,
        "warm row fills on a subdivided city allocated {warm} bytes (budget: exactly 0)"
    );
    assert_eq!(row, dijkstra_all(&city, 0));

    // The same city with one 2^20 m street added: too heavy for the Dial
    // ring, so the fills run the radix heap, which reads the core's arcs
    // off the graph through the expansion table.
    let (offsets, targets, weights) = city.csr();
    let mut b = GraphBuilder::new(city.num_nodes());
    for u in 0..city.num_nodes() {
        for i in offsets[u] as usize..offsets[u + 1] as usize {
            b.add_arc(u as u32, targets[i], weights[i]);
        }
    }
    b.add_edge(0, last / 2, 1 << 20);
    let radix = b.build();
    fill_row(&radix, 0, &mut row);
    fill_row(&radix, last, &mut row);
    let warm = bytes_allocated_by(|| {
        for source in [1u32, last, last - 1, 7, last / 2, 0] {
            fill_row(&radix, source, &mut row);
            black_box(&row);
        }
    });
    assert_eq!(
        warm, 0,
        "warm radix-heap row fills allocated {warm} bytes (budget: exactly 0)"
    );
    assert_eq!(row, dijkstra_all(&radix, 0));
}

/// Allocation guard for the oracle's rows: a row holds only the core
/// distances of its search, so on a subdivided city a warm miss (the
/// graph's contraction and component labels built, this thread's arena
/// primed, the cache's map and queue at capacity) allocates exactly its
/// row — `core × 8` bytes, the source's own run at 16 bytes a pair, and
/// the `Arc`'d row header — and never a buffer the size of the graph.
#[test]
fn warm_oracle_miss_allocates_only_its_row() {
    use mcfs_repro::gen::city::{generate_city, CitySpec, CityStyle};
    use mcfs_repro::graph::{DistanceOracle, Graph, NodeId, Row};

    // Spans stay inert only while no other test arms the recorder.
    let _arm = GLOBAL_ARM.lock().unwrap_or_else(|e| e.into_inner());
    let city = generate_city(&CitySpec {
        name: "RowAllocCity",
        target_nodes: 3_000,
        style: CityStyle::Grid,
        avg_edge_len: 15.0,
        seed: 41,
    });
    let n = city.num_nodes();
    let core = city.contraction().core_len();
    assert!(core * 4 < n, "the city contracts: core {core} of {n} nodes");

    /// Nodes of `s`'s own run, counted off the graph: `s` and the chain
    /// nodes (two arcs, two distinct neighbours) reached from it without
    /// crossing another node. Zero when `s` is itself no chain node.
    fn own_run_len(g: &Graph, s: NodeId) -> usize {
        let chain = |v: NodeId| {
            let mut nb = g.neighbors(v).map(|(u, _)| u);
            g.degree(v) == 2 && nb.next() != nb.next()
        };
        if !chain(s) {
            return 0;
        }
        let mut len = 1;
        for (first, _) in g.neighbors(s) {
            let (mut prev, mut cur) = (s, first);
            while chain(cur) {
                len += 1;
                let next = g.neighbors(cur).map(|(u, _)| u).find(|&u| u != prev);
                (prev, cur) = (cur, next.unwrap());
            }
        }
        len
    }

    let last = n as NodeId - 1;
    let sources = [1, last, last - 1, 7, last / 2, 0];
    let oracle = DistanceOracle::new().with_threads(1);
    for &s in &sources {
        black_box(oracle.row(&city, s));
    }
    let header = std::mem::size_of::<Row>() + 2 * std::mem::size_of::<usize>();
    for &s in &sources {
        // Cleared rows leave the map and the FIFO queue their capacity.
        oracle.clear();
        let run = own_run_len(&city, s);
        let bytes = bytes_allocated_by(|| {
            black_box(oracle.row(&city, s));
        });
        let row = (core * 8 + run * 16 + header) as u64;
        assert_eq!(
            bytes, row,
            "a warm miss from {s} allocated {bytes} bytes; its row is {row} \
             (core {core} × 8, own run {run} × 16, header {header})"
        );
        assert!(bytes < (n * 8) as u64, "no n-sized buffer");
    }
    assert!(oracle.stats().misses >= 2 * sources.len() as u64);
}

/// Zero-allocation guard for the incremental matcher (`FindPair`): once
/// every edge of `G_b` is materialized and the matcher's search buffers
/// are warm, a departure (`remove_customer`) followed by one more unit of
/// demand (`find_pair`) allocates exactly zero bytes. The residual search
/// reuses the matcher's heap and visited list, and no holder list grows
/// past the load it had when every facility was full.
///
/// Control: building a fresh `Matcher` allocates, which proves the
/// counting allocator sees this thread's matcher traffic.
#[test]
fn warm_matcher_departure_and_find_pair_allocate_zero_bytes() {
    use mcfs_repro::flow::{Matcher, VecStream};

    // Spans and bus events stay inert only while no other test arms them.
    let _arm = GLOBAL_ARM.lock().unwrap_or_else(|e| e.into_inner());
    const M: usize = 12;
    const L: usize = 4;
    let rows: Vec<Vec<u64>> = (0..M)
        .map(|i| (0..L).map(|j| 1 + ((i * 7 + j * 13) % 23) as u64).collect())
        .collect();
    let streams = || rows.iter().map(|r| VecStream::from_row(r)).collect();
    let mut control = None;
    let fresh = bytes_allocated_by(|| {
        control = Some(Matcher::new(streams(), vec![3u32; L]));
    });
    assert!(
        fresh > 0,
        "building a matcher reported zero bytes — counting allocator dead?"
    );
    let mut matcher = control.unwrap();

    // Capacity is exactly M, so one unit per customer fills every facility.
    // One more unit of demand then has no free facility: that search keeps
    // pulling edges until every customer it reaches (all of them) has
    // exhausted its stream, which materializes all of G_b.
    for i in 0..M {
        matcher.find_pair(i).unwrap();
    }
    assert!(matcher.find_pair(0).is_err(), "every facility is full");
    let all_edges = (M * L) as u64;
    assert_eq!(matcher.edges_added(), all_edges);

    // Each cycle frees one unit and spends it on another customer's second
    // facility. Two cycles warm the buffers; three are measured.
    let mut cycle = |departing: usize, rising: usize| {
        matcher.remove_customer(departing);
        matcher.find_pair(rising).unwrap();
    };
    cycle(M - 1, 0);
    cycle(M - 2, 1);
    let warm = bytes_allocated_by(|| {
        cycle(M - 3, 2);
        cycle(M - 4, 3);
        cycle(M - 5, 4);
    });
    assert_eq!(
        warm, 0,
        "warm departure + find_pair cycles allocated {warm} bytes (budget: exactly 0)"
    );
    assert_eq!(matcher.edges_added(), all_edges, "no edge was pulled");
    assert_eq!(matcher.augmentations(), (M + 5) as u64);
}
