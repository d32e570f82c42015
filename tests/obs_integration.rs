//! End-to-end observability: traced requests through the real server stack
//! (wire protocol → queue → worker → resolver → matcher → oracle), the
//! `TRACE` verb, Chrome-trace export, the flight recorder's `DUMP` verb,
//! and exact reconciliation between the `METRICS` kv grid and its
//! Prometheus exposition.

use std::collections::{BTreeMap, HashSet};

use mcfs_repro::core::{Edit, McfsInstance, WmaPhase};
use mcfs_repro::graph::GraphBuilder;
use mcfs_repro::io::write_instance;
use mcfs_repro::obs::{flight, next_trace_id, to_chrome_trace, verify_nesting, SpanRecord};
use mcfs_repro::server::{Client, OpenKind, Request, ServerConfig, ServerHandle};

/// A tiny instance that solves in microseconds.
fn small_instance_text() -> String {
    let mut b = GraphBuilder::new(9);
    for r in 0..3u32 {
        for c in 0..3u32 {
            let v = r * 3 + c;
            if c < 2 {
                b.add_edge(v, v + 1, 100);
            }
            if r < 2 {
                b.add_edge(v, v + 3, 100);
            }
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
    String::from_utf8(buf).unwrap()
}

fn open_instance(client: &mut Client, session: &str) {
    client
        .open_text(session, OpenKind::Instance, &small_instance_text())
        .unwrap();
}

/// Names present in a span set.
fn names(spans: &[SpanRecord]) -> HashSet<String> {
    spans.iter().map(|s| s.name.to_string()).collect()
}

/// A single traced SOLVE produces one well-nested span tree covering the
/// whole lifecycle — connection parse, queue wait, worker execution, the
/// resolver, the incremental matcher and the distance oracle underneath,
/// and the reply write — retrievable via TRACE and loadable as a Chrome
/// trace document.
#[test]
fn traced_solve_yields_a_well_nested_lifecycle_trace() {
    let server = ServerHandle::start(ServerConfig::default());
    let mut client = server.connect().unwrap();
    open_instance(&mut client, "t");

    let trace = next_trace_id();
    let reply = client.solve_traced("t", trace).unwrap();
    assert_eq!(
        reply.kv("trace"),
        Some(trace.to_string()).as_deref(),
        "a traced request must echo its trace id"
    );

    let spans = client.trace_spans("t", None).unwrap();
    assert!(spans.iter().all(|s| s.trace == trace));
    verify_nesting(&spans).unwrap_or_else(|e| panic!("trace is not well-nested: {e}"));

    // The tree has exactly one root: the connection thread's
    // `server.request`, spanning parse through reply.
    let roots: Vec<&SpanRecord> = spans.iter().filter(|s| s.parent == 0).collect();
    assert_eq!(roots.len(), 1, "expected a single root span: {roots:?}");
    assert_eq!(roots[0].name, "server.request");

    // Every layer of the stack shows up, down to the oracle.
    let got = names(&spans);
    for expected in [
        "server.request",
        "server.parse",
        "server.queue",
        "server.execute",
        "server.reply",
        "resolve.solve",
        "resolve.selection",
        WmaPhase::PREFETCH.span,
        WmaPhase::MATCHING.span,
        WmaPhase::COVER.span,
        WmaPhase::PROVISIONS.span,
        "resolve.assignment",
        "matcher.augment",
    ] {
        assert!(
            got.contains(expected),
            "missing span {expected:?} in {got:?}"
        );
    }
    assert!(
        got.iter().any(|n| n.starts_with("oracle.")),
        "a cold solve must reach the distance oracle: {got:?}"
    );

    // `n` keeps the most recent spans (the tail of the start-ordered list).
    let tail = client.trace_spans("t", Some(3)).unwrap();
    assert_eq!(tail, spans[spans.len() - 3..].to_vec());

    // The Chrome export carries the full tree as complete events.
    let json = to_chrome_trace(&spans);
    assert!(json.starts_with("{\"traceEvents\":[") && json.ends_with("]}"));
    for name in ["server.queue", "server.execute", "resolve.solve"] {
        assert!(json.contains(&format!("\"name\":\"{name}\"")));
    }

    server.shutdown();
}

/// Satellite: concurrent sessions under the worker pool produce disjoint,
/// individually well-nested trace trees — no span leaks across traces even
/// when two traced solves run at the same time on different workers.
#[test]
fn concurrent_traced_sessions_produce_disjoint_trace_trees() {
    let server = ServerHandle::start(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    let barrier = std::sync::Barrier::new(2);
    let run = |session: &str| {
        let mut client = server.connect().unwrap();
        open_instance(&mut client, session);
        let trace = next_trace_id();
        barrier.wait();
        // Two traced EDIT+SOLVE rounds in flight concurrently with the
        // other session's; `trace` stays the session's last trace.
        client
            .request_traced(
                &mcfs_repro::server::Request::Edit {
                    session: session.to_owned(),
                    edits: vec![Edit::AddCustomer { node: 3 }],
                    deadline_ms: None,
                },
                trace,
            )
            .unwrap();
        let trace = next_trace_id();
        client.solve_traced(session, trace).unwrap();
        let spans = client.trace_spans(session, None).unwrap();
        (trace, spans)
    };
    let ((trace_a, spans_a), (trace_b, spans_b)) = std::thread::scope(|s| {
        let a = s.spawn(|| run("a"));
        let b = s.spawn(|| run("b"));
        (a.join().unwrap(), b.join().unwrap())
    });

    assert_ne!(trace_a, trace_b);
    for (trace, spans) in [(trace_a, &spans_a), (trace_b, &spans_b)] {
        assert!(!spans.is_empty());
        assert!(spans.iter().all(|s| s.trace == trace));
        verify_nesting(spans).unwrap_or_else(|e| panic!("trace {trace}: {e}"));
        let got = names(spans);
        for expected in [
            "server.request",
            "server.queue",
            "server.execute",
            "resolve.solve",
        ] {
            assert!(got.contains(expected), "trace {trace} missing {expected:?}");
        }
    }
    // Span ids are process-unique, so the trees must be fully disjoint.
    let ids_a: HashSet<u64> = spans_a.iter().map(|s| s.id).collect();
    let ids_b: HashSet<u64> = spans_b.iter().map(|s| s.id).collect();
    assert!(ids_a.is_disjoint(&ids_b), "span trees share ids");

    server.shutdown();
}

/// `TRACE back=<j>` steps back through the session's traced requests, and
/// a traced `TRACE` is not one of them: the next `TRACE` still reports the
/// request before it.
#[test]
fn trace_back_skips_traced_traces() {
    let server = ServerHandle::start(ServerConfig::default());
    let mut client = server.connect().unwrap();
    open_instance(&mut client, "b");
    let solve = next_trace_id();
    client.solve_traced("b", solve).unwrap();
    let edit = next_trace_id();
    client
        .request_traced(
            &Request::Edit {
                session: "b".into(),
                edits: vec![Edit::AddCustomer { node: 3 }],
                deadline_ms: None,
            },
            edit,
        )
        .unwrap();
    let trace_request = Request::Trace {
        session: "b".into(),
        n: None,
        back: None,
        deadline_ms: None,
    };
    let reply = client
        .request_traced(&trace_request, next_trace_id())
        .unwrap();
    assert_eq!(reply.kv("of"), Some(edit.to_string()).as_deref());

    let latest = client.trace_spans("b", None).unwrap();
    assert!(!latest.is_empty() && latest.iter().all(|s| s.trace == edit));
    let previous = client.trace_spans_back("b", None, Some(1)).unwrap();
    assert!(previous.iter().all(|s| s.trace == solve));
    verify_nesting(&previous).unwrap();
    assert!(names(&previous).contains("resolve.solve"));
    assert!(
        client.trace_spans_back("b", None, Some(2)).is_err(),
        "only two traced requests reached the session"
    );
    server.shutdown();
}

/// Whether `line` is exactly one JSON object: it opens with `{`, and the
/// brace that closes that object is its last character.
fn one_json_object(line: &str) -> bool {
    let (mut depth, mut in_string, mut escaped) = (0usize, false, false);
    for (i, c) in line.char_indices() {
        if in_string {
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' => depth += 1,
            '}' if depth == 0 => return false,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return i + 1 == line.len();
                }
            }
            _ if depth == 0 => return false,
            _ => {}
        }
    }
    false
}

/// `DUMP` over the wire: with the flight recorder armed, a traced SOLVE
/// leaves its events and spans in the session's ring, and `DUMP` returns
/// that ring as one JSON object per payload line — every span `TRACE`
/// reports for the SOLVE among them, since both read the same ring.
#[test]
fn dump_returns_the_session_flight_ring_as_jsonl() {
    flight::enable();
    let server = ServerHandle::start(ServerConfig::default());
    let mut client = server.connect().unwrap();
    open_instance(&mut client, "d");
    let trace = next_trace_id();
    client.solve_traced("d", trace).unwrap();

    let reply = client
        .request(&Request::Dump {
            session: "d".into(),
            deadline_ms: None,
        })
        .unwrap();
    assert!(reply.is_ok(), "DUMP rejected: {reply:?}");
    assert_eq!(reply.kv("armed"), Some("1"));
    let entries: usize = reply.kv("entries").unwrap().parse().unwrap();
    assert_eq!(
        entries,
        reply.payload().len(),
        "entries= counts the payload"
    );
    let trace_field = format!("\"trace\":{trace},");
    let mut traced_spans = 0;
    for line in reply.payload() {
        assert!(one_json_object(line), "not one JSON object: {line}");
        let span = line.starts_with("{\"type\":\"span\",");
        let event = line.starts_with("{\"type\":\"event\",");
        assert!(span || event, "neither an event nor a span: {line}");
        if span && line.contains(&trace_field) {
            traced_spans += 1;
        }
    }
    assert!(
        traced_spans > 0,
        "the traced SOLVE left no span in the ring"
    );
    let traced = client.trace_spans("d", None).unwrap();
    assert!(traced.iter().any(|s| s.name == "server.request"));
    for span in &traced {
        let id_field = format!("{trace_field}\"id\":{},", span.id);
        assert!(
            reply.payload().iter().any(|line| line.contains(&id_field)),
            "DUMP lacks span {} ({}) that TRACE returned",
            span.id,
            span.name
        );
    }

    flight::disable();
    server.shutdown();
}

fn kv_request_grid(lines: &[String]) -> BTreeMap<(String, String), u64> {
    lines
        .iter()
        .filter_map(|l| {
            let rest = l.strip_prefix("requests.")?;
            let (key, value) = rest.split_once(' ')?;
            let (verb, outcome) = key.split_once('.')?;
            Some(((verb.to_owned(), outcome.to_owned()), value.parse().ok()?))
        })
        .collect()
}

fn prometheus_request_grid(text: &str) -> BTreeMap<(String, String), u64> {
    text.lines()
        .filter_map(|l| {
            let rest = l.strip_prefix("mcfs_server_requests_total{verb=\"")?;
            let (verb, rest) = rest.split_once("\",outcome=\"")?;
            let (outcome, value) = rest.split_once("\"} ")?;
            Some(((verb.to_owned(), outcome.to_owned()), value.parse().ok()?))
        })
        .collect()
}

/// Acceptance: the registry-backed Prometheus exposition reconciles cell
/// for cell with the `METRICS` kv verb×outcome grid — same cells, same
/// counts (modulo the kv METRICS itself, which the later Prometheus
/// snapshot has seen).
#[test]
fn prometheus_exposition_reconciles_with_the_kv_grid() {
    let server = ServerHandle::start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let mut c = server.connect().unwrap();
    open_instance(&mut c, "m");
    c.edit("m", &[Edit::AddCustomer { node: 3 }]).unwrap();
    c.solve("m").unwrap();
    c.solve("m").unwrap();
    c.stats("m").unwrap();
    assert!(c.stats("missing").is_err()); // admission: no such session
    assert!(c.trace_spans("m", None).is_err()); // trace.err: nothing traced
    c.close("m").unwrap();

    let kv = kv_request_grid(&c.metrics().unwrap());
    let prom = prometheus_request_grid(&c.metrics_prometheus().unwrap());

    assert!(!kv.is_empty() && !prom.is_empty());
    assert_eq!(
        kv.keys().collect::<Vec<_>>(),
        prom.keys().collect::<Vec<_>>(),
        "the two views must expose the same verb×outcome cells"
    );
    for (cell, &kv_count) in &kv {
        // The kv METRICS counted itself between the two snapshots.
        let expected = kv_count + u64::from(cell.0 == "metrics" && cell.1 == "ok");
        assert_eq!(prom[cell], expected, "cell {cell:?}");
    }
    // Spot-check the script against absolute counts.
    for (verb, outcome, want) in [
        ("open", "ok", 1),
        ("edit", "ok", 1),
        ("solve", "ok", 2),
        ("stats", "ok", 1),
        ("stats", "err", 1),
        ("trace", "err", 1),
        ("close", "ok", 1),
        ("solve", "busy", 0),
    ] {
        assert_eq!(
            kv[&(verb.to_owned(), outcome.to_owned())],
            want,
            "{verb}.{outcome}"
        );
    }
    server.shutdown();
}
