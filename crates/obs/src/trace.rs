//! The span tracing core: thread-local span stacks and monotonic
//! timestamps. Finished spans go to the per-scope span store
//! ([`crate::flight`]).
//!
//! # Model
//!
//! A *trace* is a set of spans sharing a trace id — one served request, one
//! solver run. A thread *enters* a trace with [`TraceGuard::enter`]; while
//! the guard lives, every [`span`] opened on that thread records into the
//! trace, parented to the innermost open span (a thread-local stack gives
//! well-nesting by construction). Dropping a span guard timestamps its end
//! and moves the finished [`SpanRecord`] into the ring of the thread's
//! current bus scope ([`crate::bus::ScopeGuard`]).
//!
//! # Cost when disabled
//!
//! [`span`] first reads one relaxed arming count that is non-zero only
//! while some thread is inside a trace (or force mode or the profiler is
//! on). When it is zero —
//! the overwhelmingly common case for untraced traffic — the call returns
//! an inert guard without reading the clock, allocating, or touching a
//! thread-local. `tests/obs_overhead.rs` keeps this path honest.
//!
//! # Cross-thread spans
//!
//! Work that starts on one thread and finishes on another (a queued request
//! between its connection thread and its worker) cannot use the RAII guard;
//! [`record_manual`] records a span from explicit timestamps, and
//! [`alloc_span_id`] pre-allocates an id so children can be parented to a
//! span that is recorded later.

use std::borrow::Cow;
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::OnceLock;
use std::time::Instant;

/// One finished span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Trace this span belongs to (never 0).
    pub trace: u64,
    /// Span id, unique within the process (never 0).
    pub id: u64,
    /// Parent span id within the same trace; 0 = a trace root.
    pub parent: u64,
    /// Small dense id of the recording thread.
    pub thread: u64,
    /// Start, nanoseconds since the process trace epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Dot-separated span name (e.g. `server.execute`); contains no spaces,
    /// so it can ride last on a space-separated wire line.
    pub name: Cow<'static, str>,
}

/// Live reasons for [`span`] to leave its fast path: one per entered
/// [`TraceGuard`], one while force mode is on, one while the profiler is
/// armed. Each reason adds 1 when it starts and subtracts 1 when it ends,
/// so concurrent enters and drops can never store a stale total.
/// `Relaxed` suffices: the count publishes no other data, and a thread
/// always reads its own guard's unit back.
static ARMING: AtomicUsize = AtomicUsize::new(0);
static FORCE: AtomicBool = AtomicBool::new(false);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static CURRENT_TRACE: Cell<u64> = const { Cell::new(0) };
    static CURRENT_PARENT: Cell<u64> = const { Cell::new(0) };
    static THREAD_ID: Cell<u64> = const { Cell::new(0) };
}

/// Start (`true`) or end (`false`) one reason to arm [`span`]'s slow path.
/// The profiler shares the count so a disarmed process still pays exactly
/// one relaxed load per span site; when armed, [`span_slow`] sorts out
/// which consumers (trace records, profiler stack, or both) actually want
/// the span.
pub(crate) fn arm(on: bool) {
    if on {
        ARMING.fetch_add(1, Relaxed);
    } else {
        ARMING.fetch_sub(1, Relaxed);
    }
}

/// Trace every span regardless of [`TraceGuard`]s — spans opened outside a
/// trace get a freshly minted trace id each. Meant for tests.
pub fn set_force(on: bool) {
    if FORCE.swap(on, Relaxed) != on {
        arm(on);
    }
}

/// Nanoseconds since the process trace epoch (first call wins).
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    Instant::now().duration_since(epoch).as_nanos() as u64
}

/// Mint a fresh trace id (never 0).
pub fn next_trace_id() -> u64 {
    NEXT_TRACE_ID.fetch_add(1, Relaxed)
}

/// Pre-allocate a span id (never 0: the counter starts at 1) for a later
/// [`record_manual`] call, so children can name their parent before the
/// parent is recorded. Ids are unique within the process.
pub fn alloc_span_id() -> u64 {
    NEXT_SPAN_ID.fetch_add(1, Relaxed)
}

/// The trace id this thread is currently inside (0 = none).
pub fn current_trace() -> u64 {
    CURRENT_TRACE.with(Cell::get)
}

/// Small dense id of the calling thread, assigned on first use.
pub fn thread_id() -> u64 {
    THREAD_ID.with(|t| {
        let mut id = t.get();
        if id == 0 {
            id = NEXT_THREAD_ID.fetch_add(1, Relaxed);
            t.set(id);
        }
        id
    })
}

/// Record a span from explicit timestamps (cross-thread lifecycles) under
/// the calling thread's current bus scope. Pass `id: None` to allocate
/// one; returns the span's id.
pub fn record_manual(
    trace: u64,
    name: &'static str,
    parent: u64,
    id: Option<u64>,
    start_ns: u64,
    end_ns: u64,
) -> u64 {
    let id = id.unwrap_or_else(alloc_span_id);
    crate::flight::record_span(SpanRecord {
        trace,
        id,
        parent,
        thread: thread_id(),
        start_ns,
        dur_ns: end_ns.saturating_sub(start_ns),
        name: Cow::Borrowed(name),
    });
    id
}

/// RAII scope that routes this thread's spans into a trace.
pub struct TraceGuard {
    trace: u64,
    prev_trace: u64,
    prev_parent: u64,
}

impl TraceGuard {
    /// Enter `trace` (0 mints a fresh id) with spans parented to `parent`
    /// (0 = trace root). Returns the guard; read the resolved id off it.
    pub fn enter(trace: u64, parent: u64) -> TraceGuard {
        let trace = if trace == 0 { next_trace_id() } else { trace };
        let prev_trace = CURRENT_TRACE.with(|t| t.replace(trace));
        let prev_parent = CURRENT_PARENT.with(|p| p.replace(parent));
        arm(true);
        TraceGuard {
            trace,
            prev_trace,
            prev_parent,
        }
    }

    /// The trace id this guard routes spans into.
    pub fn trace(&self) -> u64 {
        self.trace
    }
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        CURRENT_TRACE.with(|t| t.set(self.prev_trace));
        CURRENT_PARENT.with(|p| p.set(self.prev_parent));
        arm(false);
    }
}

struct SpanActive {
    trace: u64,
    id: u64,
    prev_parent: u64,
    start_ns: u64,
    name: &'static str,
}

/// An open span; dropping it records the [`SpanRecord`] (when tracing
/// wanted it) and pops the profiler's span-name stack (when the profiler
/// pushed one). Fully inert when neither consumer is armed.
pub struct Span {
    rec: Option<SpanActive>,
    pushed: bool,
}

impl Span {
    const INERT: Span = Span {
        rec: None,
        pushed: false,
    };

    /// The span's id, or 0 when no trace record is being collected.
    pub fn id(&self) -> u64 {
        self.rec.as_ref().map_or(0, |s| s.id)
    }
}

/// Open a span named `name` on the current thread. See the module docs for
/// the enablement rules and the disabled-path cost.
#[inline]
pub fn span(name: &'static str) -> Span {
    if ARMING.load(Relaxed) == 0 {
        return Span::INERT;
    }
    span_slow(name)
}

#[cold]
fn span_slow(name: &'static str) -> Span {
    // The profiler samples open spans even outside a trace, so the stack
    // push happens before the trace-enablement checks.
    let pushed = crate::profile::push_frame(name);
    let mut trace = CURRENT_TRACE.with(Cell::get);
    if trace == 0 {
        if !FORCE.load(Relaxed) {
            return Span { rec: None, pushed };
        }
        // Force mode: orphan spans each get their own trace so they remain
        // queryable; they stay roots (parent 0).
        trace = next_trace_id();
    }
    let id = alloc_span_id();
    let prev_parent = CURRENT_PARENT.with(|p| p.replace(id));
    Span {
        rec: Some(SpanActive {
            trace,
            id,
            prev_parent,
            start_ns: now_ns(),
            name,
        }),
        pushed,
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.pushed {
            crate::profile::pop_frame();
        }
        let Some(active) = self.rec.take() else {
            return;
        };
        CURRENT_PARENT.with(|p| p.set(active.prev_parent));
        let end = now_ns();
        crate::flight::record_span(SpanRecord {
            trace: active.trace,
            id: active.id,
            parent: active.prev_parent,
            thread: thread_id(),
            start_ns: active.start_ns,
            dur_ns: end.saturating_sub(active.start_ns),
            name: Cow::Borrowed(active.name),
        });
    }
}

/// Check that `spans` form well-nested trees: every span id is unique,
/// every non-root parent exists in the set, belongs to the same trace, and
/// its time interval encloses the child's.
pub fn verify_nesting(spans: &[SpanRecord]) -> Result<(), String> {
    use std::collections::HashMap;
    let mut by_id: HashMap<u64, &SpanRecord> = HashMap::with_capacity(spans.len());
    for s in spans {
        if by_id.insert(s.id, s).is_some() {
            return Err(format!(
                "span id {} ({}) appears more than once",
                s.id, s.name
            ));
        }
    }
    for s in spans {
        if s.parent == 0 {
            continue;
        }
        let parent = by_id
            .get(&s.parent)
            .ok_or_else(|| format!("span {} ({}) has unknown parent {}", s.id, s.name, s.parent))?;
        if parent.trace != s.trace {
            return Err(format!(
                "span {} ({}) in trace {} has parent {} in trace {}",
                s.id, s.name, s.trace, parent.id, parent.trace
            ));
        }
        let (ps, pe) = (parent.start_ns, parent.start_ns + parent.dur_ns);
        let (cs, ce) = (s.start_ns, s.start_ns + s.dur_ns);
        if cs < ps || ce > pe {
            return Err(format!(
                "span {} ({}) [{cs}, {ce}] escapes parent {} ({}) [{ps}, {pe}]",
                s.id, s.name, parent.id, parent.name
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flight::tests::store_lock;
    use crate::flight::{set_capacity, spans_dropped, spans_for, DEFAULT_FLIGHT_CAPACITY};

    #[test]
    fn spans_outside_a_trace_are_inert() {
        let _serial = store_lock();
        let scope = crate::bus::next_scope_id();
        let guard = crate::bus::ScopeGuard::enter(scope);
        {
            let s = span("inert.scope");
            assert_eq!(s.id(), 0);
        }
        drop(guard);
        assert!(crate::flight::dump(scope).is_empty());
    }

    #[test]
    fn nested_spans_record_parentage_and_enclosure() {
        let _serial = store_lock();
        let guard = TraceGuard::enter(0, 0);
        let trace = guard.trace();
        {
            let _outer = span("t.outer");
            let _inner = span("t.inner");
        }
        drop(guard);
        let spans = spans_for(trace);
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "t.outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "t.inner").unwrap();
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.parent, outer.id);
        verify_nesting(&spans).unwrap();
        // After the guard dropped, the thread is out of the trace.
        assert_eq!(current_trace(), 0);
        assert_eq!(span("t.after").id(), 0);
    }

    #[test]
    fn manual_records_compose_with_preallocated_parents() {
        let _serial = store_lock();
        let trace = next_trace_id();
        let root = alloc_span_id();
        let t0 = now_ns();
        let child = record_manual(trace, "m.child", root, None, t0 + 10, t0 + 20);
        record_manual(trace, "m.root", 0, Some(root), t0, t0 + 100);
        let spans = spans_for(trace);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "m.root");
        assert_eq!(spans[1].id, child);
        verify_nesting(&spans).unwrap();
    }

    #[test]
    fn concurrent_traces_stay_disjoint() {
        let _serial = store_lock();
        let handles: Vec<_> = (0..4)
            .map(|i| {
                std::thread::spawn(move || {
                    let guard = TraceGuard::enter(0, 0);
                    let trace = guard.trace();
                    for _ in 0..8 {
                        let _a = span("p.outer");
                        let _b = span("p.inner");
                    }
                    drop(guard);
                    (i, trace)
                })
            })
            .collect();
        for h in handles {
            let (_, trace) = h.join().unwrap();
            let spans = spans_for(trace);
            assert_eq!(spans.len(), 16);
            assert!(spans.iter().all(|s| s.trace == trace));
            verify_nesting(&spans).unwrap();
        }
    }

    #[test]
    fn ring_capacity_bounds_retention() {
        let _serial = store_lock();
        let guard = TraceGuard::enter(0, 0);
        let trace = guard.trace();
        set_capacity(8);
        for _ in 0..32 {
            let _s = span("cap.tick");
        }
        drop(guard);
        let kept = spans_for(trace).len();
        set_capacity(DEFAULT_FLIGHT_CAPACITY);
        assert!(kept <= 8);
    }

    #[test]
    fn verify_nesting_rejects_escapes() {
        let mk = |id, parent, start, dur| SpanRecord {
            trace: 1,
            id,
            parent,
            thread: 1,
            start_ns: start,
            dur_ns: dur,
            name: Cow::Borrowed("x"),
        };
        assert!(verify_nesting(&[mk(1, 0, 0, 100), mk(2, 1, 50, 20)]).is_ok());
        assert!(verify_nesting(&[mk(1, 0, 0, 100), mk(2, 1, 90, 20)]).is_err());
        assert!(verify_nesting(&[mk(2, 7, 0, 10)]).is_err());
        // Duplicate ids are a structural error.
        assert!(verify_nesting(&[mk(1, 0, 0, 100), mk(1, 0, 10, 10)]).is_err());
    }

    #[test]
    fn ring_eviction_is_accounted() {
        let _serial = store_lock();
        let dropped = || {
            crate::registry::Registry::global()
                .counter("mcfs_obs_spans_dropped_total", "")
                .get()
        };
        let (before, counter_before) = (spans_dropped(), dropped());
        set_capacity(4);
        let guard = TraceGuard::enter(0, 0);
        for _ in 0..12 {
            let _s = span("drop.tick");
        }
        drop(guard);
        set_capacity(DEFAULT_FLIGHT_CAPACITY);
        assert!(spans_dropped() >= before + 8, "evictions counted");
        assert!(
            dropped() >= counter_before + 8,
            "registry counter tracks evictions too"
        );
    }
}
