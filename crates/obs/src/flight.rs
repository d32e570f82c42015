//! The span store and flight recorder: one bounded ring of recent activity
//! per scope.
//!
//! # Model
//!
//! Every finished trace span is moved into the ring of the *scope* it was
//! recorded under: the recording thread's bus scope (the server maps one
//! session to one scope and records everything outside a session under
//! scope 0). While event capture is armed, published bus [`Event`]s (which
//! include queue depths) land in the same rings, so one ring holds what
//! happened to its session lately. Each ring keeps its newest
//! [`DEFAULT_FLIGHT_CAPACITY`] entries ([`set_capacity`] moves the bound)
//! and evicts the oldest first, remembering how recent the newest evicted
//! entry was, so [`request_spans`] can tell whether a request it reads back
//! is whole.
//!
//! Nothing is written anywhere until someone asks: [`dump`] snapshots one
//! scope's ring, [`spans_for`] gathers one trace from every ring, and
//! [`entry_to_json`] renders an entry as one self-describing JSON object —
//! a line of the server's `DUMP` payload.
//!
//! [`Event`]: crate::bus::Event
//!
//! # Cost
//!
//! A span reaches the store only when tracing recorded it, so an untraced
//! span site stays one relaxed load ([`crate::trace::span`]). While event
//! capture is disarmed its hooks are one relaxed [`AtomicBool`] load, the
//! same budget (`tests/obs_overhead.rs` keeps both honest). Storing an
//! entry takes one global mutex and one ring push — the cost of one
//! permanently attached bus subscriber.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::Relaxed};
use std::sync::{Mutex, OnceLock};

use crate::bus::EventRecord;
use crate::export::escape_json;
use crate::registry::{Counter, Registry};
use crate::trace::SpanRecord;

/// Default per-scope entry bound.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 4096;

static FLIGHT_ARMED: AtomicBool = AtomicBool::new(false);
static CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_FLIGHT_CAPACITY);

/// What one flight-recorder entry captured.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FlightKind {
    /// A bus event (solver progress, phase markers, queue depths, ...).
    Event(EventRecord),
    /// A finished span.
    Span(SpanRecord),
}

/// One captured entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlightEntry {
    /// Capture time (a span's end), nanoseconds since the trace epoch.
    pub ts_ns: u64,
    /// Scope the entry was recorded under (0 = unscoped).
    pub scope: u64,
    /// The captured payload.
    pub kind: FlightKind,
}

/// One scope's entries, oldest first.
#[derive(Default)]
struct Ring {
    entries: VecDeque<FlightEntry>,
    /// One past the capture time of the newest entry evicted so far (0
    /// while none was): anything that ended before it may be missing.
    evicted_until: u64,
}

impl Ring {
    fn spans(&self) -> impl DoubleEndedIterator<Item = &SpanRecord> {
        self.entries.iter().filter_map(|e| match &e.kind {
            FlightKind::Span(span) => Some(span),
            FlightKind::Event(_) => None,
        })
    }
}

fn store() -> &'static Mutex<HashMap<u64, Ring>> {
    static STORE: OnceLock<Mutex<HashMap<u64, Ring>>> = OnceLock::new();
    STORE.get_or_init(|| Mutex::new(HashMap::new()))
}

fn dropped_counter() -> &'static Counter {
    static COUNTER: OnceLock<Counter> = OnceLock::new();
    COUNTER.get_or_init(|| {
        Registry::global().counter(
            "mcfs_obs_spans_dropped_total",
            "Finished spans evicted from the span store before retrieval.",
        )
    })
}

/// Total spans evicted from any ring since process start. Also exported as
/// the global-registry counter `mcfs_obs_spans_dropped_total`.
pub fn spans_dropped() -> u64 {
    dropped_counter().get()
}

/// Whether event capture is armed. One relaxed load — the event hooks'
/// entire cost while disarmed.
#[inline]
pub fn armed() -> bool {
    FLIGHT_ARMED.load(Relaxed)
}

/// Arm event capture: every published bus event is kept in its scope's
/// ring beside the spans.
pub fn enable() {
    FLIGHT_ARMED.store(true, Relaxed);
    crate::bus::flight_rearm();
}

/// Disarm event capture. Kept entries stay dumpable until [`clear`].
pub fn disable() {
    FLIGHT_ARMED.store(false, Relaxed);
    crate::bus::flight_rearm();
}

/// Keep at most the newest `per_scope` entries (at least one) in each ring;
/// a ring over the bound sheds its oldest entries on its next push.
pub fn set_capacity(per_scope: usize) {
    CAPACITY.store(per_scope.max(1), Relaxed);
}

/// Drop everything kept (test isolation).
pub fn clear() {
    store().lock().unwrap().clear();
}

/// Drop one scope's ring (the server calls this when a session ends).
pub fn forget(scope: u64) {
    store().lock().unwrap().remove(&scope);
}

fn push(scope: u64, ts_ns: u64, kind: FlightKind) {
    let cap = CAPACITY.load(Relaxed);
    let mut store = store().lock().unwrap();
    let ring = store.entry(scope).or_default();
    let excess = (ring.entries.len() + 1).saturating_sub(cap);
    let mut dropped = 0;
    for old in ring.entries.drain(..excess) {
        ring.evicted_until = ring.evicted_until.max(old.ts_ns + 1);
        dropped += u64::from(matches!(old.kind, FlightKind::Span(_)));
    }
    ring.entries.push_back(FlightEntry { ts_ns, scope, kind });
    drop(store);
    if dropped > 0 {
        dropped_counter().add(dropped);
    }
}

/// Capture a published bus event (called by the bus once per publish while
/// armed; the event's own scope buckets it).
pub(crate) fn record_event(record: &EventRecord) {
    push(
        record.scope,
        record.ts_ns,
        FlightKind::Event(record.clone()),
    );
}

/// Keep a finished span under the calling thread's current bus scope
/// (called by the tracing core for every span it records).
pub(crate) fn record_span(record: SpanRecord) {
    push(
        crate::bus::current_scope(),
        record.start_ns + record.dur_ns,
        FlightKind::Span(record),
    );
}

/// Snapshot one scope's ring, oldest first.
pub fn dump(scope: u64) -> Vec<FlightEntry> {
    store()
        .lock()
        .unwrap()
        .get(&scope)
        .map(|ring| ring.entries.iter().cloned().collect())
        .unwrap_or_default()
}

/// All kept spans of `trace`, from every ring, ordered by start time (ties:
/// by id, which respects creation order within a thread).
pub fn spans_for(trace: u64) -> Vec<SpanRecord> {
    let mut spans: Vec<SpanRecord> = store()
        .lock()
        .unwrap()
        .values()
        .flat_map(Ring::spans)
        .filter(|s| s.trace == trace)
        .cloned()
        .collect();
    spans.sort_by_key(|s| (s.start_ns, s.id));
    spans
}

/// The traced request whose root — a parentless span named `root` — is the
/// `back`-th most recent in `scope`'s ring (`back = 0` is the newest): its
/// trace id, its spans in the ring ordered by (start, id), and whether the
/// ring has evicted an entry that ended at or after the root started, so
/// spans of it may be missing. `None` when the ring holds no more than
/// `back` such roots.
pub fn request_spans(scope: u64, root: &str, back: usize) -> Option<(u64, Vec<SpanRecord>, bool)> {
    let store = store().lock().unwrap();
    let ring = store.get(&scope)?;
    let found = ring
        .spans()
        .filter(|s| s.parent == 0 && s.name == root)
        .nth_back(back)?;
    let (trace, truncated) = (found.trace, ring.evicted_until > found.start_ns);
    let mut spans: Vec<SpanRecord> = ring.spans().filter(|s| s.trace == trace).cloned().collect();
    drop(store);
    spans.sort_by_key(|s| (s.start_ns, s.id));
    Some((trace, spans, truncated))
}

/// Render one entry as a single-line, self-describing JSON object.
pub fn entry_to_json(entry: &FlightEntry) -> String {
    match &entry.kind {
        FlightKind::Event(record) => {
            let kvs = record
                .event
                .to_kvs()
                .into_iter()
                .map(|(k, v)| format!("\"{}\":\"{}\"", escape_json(k), escape_json(&v)))
                .collect::<Vec<_>>()
                .join(",");
            format!(
                "{{\"type\":\"event\",\"ts_ns\":{},\"scope\":{},\"seq\":{},\"kind\":\"{}\",{kvs}}}",
                entry.ts_ns,
                entry.scope,
                record.seq,
                escape_json(record.event.kind()),
            )
        }
        FlightKind::Span(span) => format!(
            "{{\"type\":\"span\",\"ts_ns\":{},\"scope\":{},\"trace\":{},\"id\":{},\
             \"parent\":{},\"thread\":{},\"start_ns\":{},\"dur_ns\":{},\"name\":\"{}\"}}",
            entry.ts_ns,
            entry.scope,
            span.trace,
            span.id,
            span.parent,
            span.thread,
            span.start_ns,
            span.dur_ns,
            escape_json(&span.name),
        ),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::bus::{next_scope_id, publish_scoped, Event, ScopeGuard};
    use crate::trace::{alloc_span_id, next_trace_id, now_ns};
    use std::borrow::Cow;

    /// The store, its bound and the arming flag are process-global; the
    /// unit tests that touch them (here and in `trace.rs`) serialize on
    /// this lock, so no test shrinks the bound under another's spans.
    static STORE_TESTS: Mutex<()> = Mutex::new(());

    pub(crate) fn store_lock() -> std::sync::MutexGuard<'static, ()> {
        STORE_TESTS.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn span(trace: u64, id: u64, parent: u64, start_ns: u64, name: &'static str) -> SpanRecord {
        SpanRecord {
            trace,
            id,
            parent,
            thread: 1,
            start_ns,
            dur_ns: 5,
            name: Cow::Borrowed(name),
        }
    }

    /// A root span of a fresh trace, named `f.test`.
    fn lone_span() -> SpanRecord {
        span(next_trace_id(), alloc_span_id(), 0, now_ns(), "f.test")
    }

    #[test]
    fn disarmed_recorder_captures_no_events() {
        let _serial = store_lock();
        disable();
        let scope = next_scope_id();
        publish_scoped(scope, Event::QueueDepth { depth: 1 });
        assert!(dump(scope).is_empty());
    }

    #[test]
    fn armed_recorder_buckets_events_by_scope() {
        let _serial = store_lock();
        enable();
        let a = next_scope_id();
        let b = next_scope_id();
        publish_scoped(a, Event::QueueDepth { depth: 1 });
        publish_scoped(b, Event::QueueDepth { depth: 2 });
        publish_scoped(a, Event::QueueDepth { depth: 3 });
        let got = dump(a);
        assert_eq!(got.len(), 2);
        assert!(got
            .iter()
            .all(|e| matches!(&e.kind, FlightKind::Event(r) if r.scope == a)));
        assert_eq!(dump(b).len(), 1);
        disable();
        forget(a);
        forget(b);
    }

    #[test]
    fn capacity_bounds_each_ring() {
        let _serial = store_lock();
        enable();
        set_capacity(4);
        let scope = next_scope_id();
        for depth in 0..10 {
            publish_scoped(scope, Event::QueueDepth { depth });
        }
        let got = dump(scope);
        set_capacity(DEFAULT_FLIGHT_CAPACITY);
        disable();
        forget(scope);
        assert_eq!(got.len(), 4, "count bound holds");
        match &got.last().unwrap().kind {
            FlightKind::Event(r) => assert_eq!(r.event, Event::QueueDepth { depth: 9 }),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn spans_are_kept_under_the_current_scope_armed_or_not() {
        let _serial = store_lock();
        disable();
        let scope = next_scope_id();
        let guard = ScopeGuard::enter(scope);
        record_span(lone_span());
        drop(guard);
        let got = dump(scope);
        forget(scope);
        assert_eq!(got.len(), 1);
        assert!(matches!(&got[0].kind, FlightKind::Span(s) if s.name == "f.test"));
    }

    #[test]
    fn requests_read_back_newest_first_and_report_evictions() {
        let _serial = store_lock();
        let scope = next_scope_id();
        let guard = ScopeGuard::enter(scope);
        // A request is a child span, then its root; `t0` is the root's start.
        let request = |t0: u64| {
            let (trace, root) = (next_trace_id(), alloc_span_id());
            record_span(span(trace, alloc_span_id(), root, t0 + 1, "f.child"));
            record_span(span(trace, root, 0, t0, "f.root"));
            trace
        };
        let read = |back| request_spans(scope, "f.root", back).map(|(t, s, cut)| (t, s.len(), cut));
        let first = request(100);
        let second = request(200);
        let (_, spans, _) = request_spans(scope, "f.root", 0).unwrap();
        assert_eq!(spans[0].name, "f.root", "ordered by start");
        assert_eq!(read(0), Some((second, 2, false)));
        assert_eq!(read(1), Some((first, 2, false)));
        assert_eq!(read(2), None);
        assert!(request_spans(scope, "f.child", 0).is_none(), "roots only");

        // Three entries: the third request evicts the first whole and the
        // second's child, which ended after the second's root started.
        set_capacity(3);
        let third = request(300);
        let after = [read(0), read(1), read(2)];
        set_capacity(DEFAULT_FLIGHT_CAPACITY);
        drop(guard);
        forget(scope);
        assert_eq!(
            after,
            [Some((third, 2, false)), Some((second, 1, true)), None]
        );
    }

    #[test]
    fn jsonl_is_one_valid_object_per_line() {
        let _serial = store_lock();
        enable();
        let scope = next_scope_id();
        publish_scoped(scope, Event::QueueDepth { depth: 7 });
        let guard = ScopeGuard::enter(scope);
        record_span(lone_span());
        drop(guard);
        let lines: Vec<String> = dump(scope).iter().map(entry_to_json).collect();
        disable();
        forget(scope);
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"type\":\"event\""));
        assert!(lines[0].contains("\"depth\":\"7\""));
        assert!(lines[1].contains("\"type\":\"span\""));
        assert!(lines[1].contains("\"name\":\"f.test\""));
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
            assert!(!line.contains('\n'));
        }
    }
}
