//! The flight recorder: a bounded, always-on ring of recent activity.
//!
//! # Model
//!
//! While armed, the recorder passively captures the last slice of obs
//! activity — published bus [`Event`]s (which include queue depths) and
//! finished trace spans — bucketed by *scope* (the server maps one session
//! to one scope). Each bucket is bounded twice: by entry count and by age,
//! so the recorder holds "the last N seconds, at most C entries" per scope
//! no matter how hot the session runs.
//!
//! Nothing is written anywhere until someone asks: [`dump`] snapshots one
//! scope's ring, and [`to_jsonl`] renders a dump as one self-describing
//! JSON object per line — the payload of the server's `DUMP` verb.
//!
//! # Cost
//!
//! When disarmed the hooks are one relaxed [`AtomicBool`] load, the same
//! budget as [`crate::trace::span`] in disabled mode (`tests/obs_overhead.rs`
//! keeps both honest). When armed, recording an entry takes one global
//! mutex and one ring push — the cost of one permanently attached bus
//! subscriber.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Mutex, OnceLock};

use crate::bus::EventRecord;
use crate::trace::{now_ns, SpanRecord};

/// Default per-scope entry bound.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 4096;
/// Default retention window: 30 seconds.
pub const DEFAULT_FLIGHT_WINDOW_NS: u64 = 30_000_000_000;

static FLIGHT_ARMED: AtomicBool = AtomicBool::new(false);
static CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_FLIGHT_CAPACITY);
static WINDOW_NS: AtomicU64 = AtomicU64::new(DEFAULT_FLIGHT_WINDOW_NS);

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
    /// Capture time, nanoseconds since the trace epoch.
    pub ts_ns: u64,
    /// Scope the entry was recorded under (0 = unscoped).
    pub scope: u64,
    /// The captured payload.
    pub kind: FlightKind,
}

fn store() -> &'static Mutex<HashMap<u64, VecDeque<FlightEntry>>> {
    static STORE: OnceLock<Mutex<HashMap<u64, VecDeque<FlightEntry>>>> = OnceLock::new();
    STORE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Whether the recorder is armed. One relaxed load — the capture hooks'
/// entire cost while disarmed.
#[inline]
pub fn armed() -> bool {
    FLIGHT_ARMED.load(Relaxed)
}

/// Arm the recorder with a per-scope entry bound and a retention window.
/// Re-arming adjusts the bounds without discarding captured entries.
pub fn enable(per_scope_capacity: usize, window_ns: u64) {
    CAPACITY.store(per_scope_capacity.max(1), Relaxed);
    WINDOW_NS.store(window_ns.max(1), Relaxed);
    FLIGHT_ARMED.store(true, Relaxed);
    crate::bus::flight_rearm();
}

/// Disarm the recorder. Captured entries stay dumpable until [`clear`].
pub fn disable() {
    FLIGHT_ARMED.store(false, Relaxed);
    crate::bus::flight_rearm();
}

/// Drop everything captured (test isolation).
pub fn clear() {
    store().lock().unwrap().clear();
}

/// Drop one scope's ring (the server calls this when a session closes).
pub fn forget(scope: u64) {
    store().lock().unwrap().remove(&scope);
}

fn push(scope: u64, entry: FlightEntry) {
    let cap = CAPACITY.load(Relaxed);
    let window = WINDOW_NS.load(Relaxed);
    let horizon = entry.ts_ns.saturating_sub(window);
    let mut store = store().lock().unwrap();
    let ring = store.entry(scope).or_default();
    while ring.len() >= cap || ring.front().is_some_and(|e| e.ts_ns < horizon) {
        if ring.pop_front().is_none() {
            break;
        }
    }
    ring.push_back(entry);
}

/// Capture a published bus event (called by the bus once per publish while
/// armed; the event's own scope buckets it).
pub(crate) fn record_event(record: &EventRecord) {
    push(
        record.scope,
        FlightEntry {
            ts_ns: record.ts_ns,
            scope: record.scope,
            kind: FlightKind::Event(record.clone()),
        },
    );
}

/// Capture a finished span under the calling thread's current bus scope
/// (called by the trace ring while armed).
pub(crate) fn record_span(record: &SpanRecord) {
    let scope = crate::bus::current_scope();
    push(
        scope,
        FlightEntry {
            ts_ns: record.start_ns + record.dur_ns,
            scope,
            kind: FlightKind::Span(record.clone()),
        },
    );
}

/// Snapshot one scope's ring, oldest first, dropping entries that have aged
/// out of the window since capture.
pub fn dump(scope: u64) -> Vec<FlightEntry> {
    let window = WINDOW_NS.load(Relaxed);
    let horizon = now_ns().saturating_sub(window);
    store()
        .lock()
        .unwrap()
        .get(&scope)
        .map(|ring| {
            ring.iter()
                .filter(|e| e.ts_ns >= horizon)
                .cloned()
                .collect()
        })
        .unwrap_or_default()
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render one entry as a single-line, self-describing JSON object.
pub fn entry_to_json(entry: &FlightEntry) -> String {
    match &entry.kind {
        FlightKind::Event(record) => {
            let kvs = record
                .event
                .to_kvs()
                .into_iter()
                .map(|(k, v)| format!("\"{}\":\"{}\"", json_escape(k), json_escape(&v)))
                .collect::<Vec<_>>()
                .join(",");
            format!(
                "{{\"type\":\"event\",\"ts_ns\":{},\"scope\":{},\"seq\":{},\"kind\":\"{}\",{kvs}}}",
                entry.ts_ns,
                entry.scope,
                record.seq,
                json_escape(record.event.kind()),
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
            json_escape(&span.name),
        ),
    }
}

/// Render a dump as JSONL: one JSON object per line, oldest first.
pub fn to_jsonl(entries: &[FlightEntry]) -> String {
    let mut out = String::new();
    for entry in entries {
        out.push_str(&entry_to_json(entry));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::{next_scope_id, publish_scoped, Event};
    use std::borrow::Cow;

    /// The recorder store and its arming flag are process-global; tests
    /// serialize so enable/disable cannot interleave.
    static FLIGHT_TESTS: Mutex<()> = Mutex::new(());

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        FLIGHT_TESTS.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn span(start_ns: u64) -> SpanRecord {
        SpanRecord {
            trace: 1,
            id: crate::trace::alloc_span_id(),
            parent: 0,
            thread: 1,
            start_ns,
            dur_ns: 5,
            name: Cow::Borrowed("f.test"),
        }
    }

    #[test]
    fn disarmed_recorder_captures_nothing() {
        let _serial = lock();
        disable();
        let scope = next_scope_id();
        publish_scoped(scope, Event::QueueDepth { depth: 1 });
        assert!(dump(scope).is_empty());
    }

    #[test]
    fn armed_recorder_buckets_events_by_scope() {
        let _serial = lock();
        enable(64, u64::MAX / 2);
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
    fn capacity_and_window_bound_each_ring() {
        let _serial = lock();
        enable(4, u64::MAX / 2);
        let scope = next_scope_id();
        for depth in 0..10 {
            publish_scoped(scope, Event::QueueDepth { depth });
        }
        let got = dump(scope);
        assert_eq!(got.len(), 4, "count bound holds");
        match &got.last().unwrap().kind {
            FlightKind::Event(r) => assert_eq!(r.event, Event::QueueDepth { depth: 9 }),
            other => panic!("unexpected {other:?}"),
        }
        // Entries older than the window age out: shrink the window below
        // the age of everything captured so far, then add one fresh entry.
        enable(64, 5_000_000);
        std::thread::sleep(std::time::Duration::from_millis(10));
        publish_scoped(scope, Event::QueueDepth { depth: 99 });
        let got = dump(scope);
        assert_eq!(got.len(), 1, "window bound evicts stale entries");
        disable();
        forget(scope);
    }

    #[test]
    fn spans_are_captured_under_the_current_scope() {
        let _serial = lock();
        enable(64, u64::MAX / 2);
        let scope = next_scope_id();
        let guard = crate::bus::ScopeGuard::enter(scope);
        record_span(&span(now_ns()));
        drop(guard);
        let got = dump(scope);
        assert_eq!(got.len(), 1);
        assert!(matches!(&got[0].kind, FlightKind::Span(s) if s.name == "f.test"));
        disable();
        forget(scope);
    }

    #[test]
    fn jsonl_is_one_valid_object_per_line() {
        let _serial = lock();
        enable(64, u64::MAX / 2);
        let scope = next_scope_id();
        publish_scoped(scope, Event::QueueDepth { depth: 7 });
        let guard = crate::bus::ScopeGuard::enter(scope);
        record_span(&span(now_ns()));
        drop(guard);
        let text = to_jsonl(&dump(scope));
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"type\":\"event\""));
        assert!(lines[0].contains("\"depth\":\"7\""));
        assert!(lines[1].contains("\"type\":\"span\""));
        assert!(lines[1].contains("\"name\":\"f.test\""));
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
            assert!(!line.contains('\n'));
        }
        disable();
        forget(scope);
    }
}
