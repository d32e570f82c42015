//! The span store over the wire: what a session's ring keeps and when it
//! goes. The store's per-scope bound and its event-capture switch are
//! process-wide, so these tests live in a binary of their own and take
//! turns on one lock.

use std::sync::{Mutex, MutexGuard};

use mcfs_repro::core::McfsInstance;
use mcfs_repro::graph::GraphBuilder;
use mcfs_repro::io::write_instance;
use mcfs_repro::obs::{
    flight, next_scope_id, next_trace_id, span_from_wire_line, spans_for, SpanRecord,
    DEFAULT_FLIGHT_CAPACITY,
};
use mcfs_repro::server::{Client, OpenKind, Reply, Request, ServerConfig, ServerHandle};

static STORE: Mutex<()> = Mutex::new(());

fn store_lock() -> MutexGuard<'static, ()> {
    STORE.lock().unwrap_or_else(|e| e.into_inner())
}

/// The 3×3 grid instance of `tests/obs_integration.rs`.
fn open_instance(client: &mut Client, session: &str) {
    let mut b = GraphBuilder::new(9);
    for v in 0..9u32 {
        if v % 3 < 2 {
            b.add_edge(v, v + 1, 100);
        }
        if v < 6 {
            b.add_edge(v, v + 3, 100);
        }
    }
    let g = b.build();
    let inst = McfsInstance::builder(&g)
        .customers(vec![0, 2, 6, 8])
        .facility(4, 3)
        .facility(1, 3)
        .facility(7, 3)
        .k(2)
        .build()
        .unwrap();
    let mut buf = Vec::new();
    write_instance(&mut buf, &inst).unwrap();
    let text = String::from_utf8(buf).unwrap();
    client
        .open_text(session, OpenKind::Instance, &text)
        .unwrap();
}

/// `TRACE <session>`'s reply and the spans it carries.
fn trace(client: &mut Client, session: &str) -> (Reply, Vec<SpanRecord>) {
    let reply = client
        .request(&Request::Trace {
            session: session.into(),
            n: None,
            back: None,
            deadline_ms: None,
        })
        .unwrap();
    assert!(reply.is_ok(), "TRACE rejected: {reply:?}");
    let spans = reply
        .payload()
        .iter()
        .map(|line| span_from_wire_line(line).unwrap())
        .collect();
    (reply, spans)
}

/// A request whose spans outnumber the bound comes back as its newest
/// spans with `truncated=1`; within the bound it comes back whole, without
/// the flag.
#[test]
fn a_request_over_the_bound_returns_its_newest_spans_truncated() {
    const BOUND: usize = 10;
    let _serial = store_lock();
    flight::disable();
    let server = ServerHandle::start(ServerConfig::default());
    let mut client = server.connect().unwrap();
    open_instance(&mut client, "t");
    client.solve("t").unwrap();

    let whole = next_trace_id();
    client.solve_traced("t", whole).unwrap();
    let (reply, spans) = trace(&mut client, "t");
    assert_eq!(reply.kv("of"), Some(whole.to_string()).as_deref());
    assert_eq!(reply.kv("truncated"), None, "within the bound: {spans:?}");
    assert!(
        spans.len() > BOUND,
        "a warm SOLVE records more than {BOUND} spans: {spans:?}"
    );

    flight::set_capacity(BOUND);
    let cut = next_trace_id();
    client.solve_traced("t", cut).unwrap();
    let (reply, spans) = trace(&mut client, "t");
    flight::set_capacity(DEFAULT_FLIGHT_CAPACITY);
    assert_eq!(reply.kv("of"), Some(cut.to_string()).as_deref());
    assert_eq!(reply.kv("truncated"), Some("1"));
    assert_eq!(spans.len(), BOUND);
    assert!(spans.iter().all(|s| s.trace == cut));
    // The worker records `server.execute` and `server.queue` after the
    // solver's spans, and the connection thread records its own spans and
    // the root after the worker's: they are the newest.
    for name in [
        "server.execute",
        "server.queue",
        "server.parse",
        "server.handoff",
        "server.reply",
        "server.request",
    ] {
        assert!(
            spans.iter().any(|s| s.name == name),
            "missing {name}: {spans:?}"
        );
    }
    server.shutdown();
}

/// A session's ring goes when the session ends: a failed `OPEN` and a
/// `CLOSE` leave no ring behind, even with event capture armed and the
/// requests traced, and the `CLOSE`'s spans are kept outside any session.
#[test]
fn ended_sessions_leave_no_ring() {
    let _serial = store_lock();
    flight::enable();
    let server = ServerHandle::start(ServerConfig::default());
    let mut client = server.connect().unwrap();
    let first = next_scope_id();
    for i in 0..6 {
        let open = Request::Open {
            session: format!("bad{i}"),
            kind: OpenKind::Instance,
            payload: vec!["not an instance".into()],
        };
        let reply = if i % 2 == 0 {
            client.request_traced(&open, next_trace_id())
        } else {
            client.request(&open)
        };
        assert!(!reply.unwrap().is_ok(), "OPEN bad{i} must fail");
    }
    open_instance(&mut client, "c");
    client.solve_traced("c", next_trace_id()).unwrap();
    let close = next_trace_id();
    let reply = client
        .request_traced(
            &Request::Close {
                session: "c".into(),
            },
            close,
        )
        .unwrap();
    assert!(reply.is_ok(), "CLOSE rejected: {reply:?}");
    let last = next_scope_id();
    let kept: Vec<(u64, usize)> = (first + 1..last)
        .map(|scope| (scope, flight::dump(scope).len()))
        .filter(|&(_, n)| n > 0)
        .collect();
    flight::disable();
    assert_eq!(last - first - 1, 7, "one scope per OPEN");
    assert!(
        kept.is_empty(),
        "rings left behind (scope, entries): {kept:?}"
    );
    let close_spans = spans_for(close);
    for name in ["server.request", "server.queue", "server.execute"] {
        assert!(
            close_spans.iter().any(|s| s.name == name),
            "the CLOSE's {name} is kept: {close_spans:?}"
        );
    }
    server.shutdown();
}
