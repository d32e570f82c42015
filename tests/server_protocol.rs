//! Wire-protocol robustness: property-based round-trips of request and
//! reply frames, plus malformed-input fuzzing. Whatever bytes a client
//! sends, the parser must return a structured [`ProtoError`] — never
//! panic, never misframe.

use mcfs_repro::core::Edit;
use mcfs_repro::server::{
    ErrorCode, MetricsFormat, OpenKind, ProfileFormat, Reply, Request, Verb, MAX_PROFILE_SECS,
};
use proptest::prelude::*;

/// Session-name alphabet (the full legal set).
const NAME_CHARS: &[u8] = b"abcwXYZ019_.-";
/// Payload-line alphabet: printable, includes the wire's own metacharacters
/// (spaces, `=`, `#`) to prove count-prefixed framing ignores content.
const LINE_CHARS: &[u8] = b"abz XYZ=019_.:#/ ";

fn pick_string(chars: &[u8], picks: &[usize]) -> String {
    picks
        .iter()
        .map(|&i| chars[i % chars.len()] as char)
        .collect()
}

fn build_edit(tag: usize, a: u32, b: u32) -> Edit {
    match tag % 6 {
        0 => Edit::AddCustomer { node: a },
        1 => Edit::RemoveCustomer { index: a as usize },
        2 => Edit::AddFacility {
            node: a,
            capacity: b + 1,
        },
        3 => Edit::RemoveFacility { index: a as usize },
        4 => Edit::SetCapacity {
            index: a as usize,
            capacity: b + 1,
        },
        _ => Edit::SetBudget { k: a as usize },
    }
}

fn build_request(
    variant: usize,
    session: String,
    edits: Vec<Edit>,
    payload: Vec<String>,
    deadline_ms: Option<u64>,
) -> Request {
    // Sized by `Verb::ALL` so a protocol growing a verb without a matching
    // arm here fails loudly (the `_` arm would silently absorb it — keep
    // it the *last* verb's arm and nothing else).
    match variant % Verb::ALL.len() {
        0 => Request::Open {
            session,
            kind: if deadline_ms.unwrap_or(0).is_multiple_of(2) {
                OpenKind::Instance
            } else {
                OpenKind::Checkpoint
            },
            payload,
        },
        1 => Request::Edit {
            session,
            edits,
            deadline_ms,
        },
        2 => Request::Solve {
            session,
            deadline_ms,
        },
        3 => Request::Assignment { session },
        4 => Request::Stats { session },
        5 => Request::Snapshot {
            session,
            deadline_ms,
        },
        6 => Request::Close { session },
        7 => Request::Metrics {
            format: if deadline_ms.unwrap_or(0).is_multiple_of(2) {
                MetricsFormat::Kv
            } else {
                MetricsFormat::Prometheus
            },
        },
        8 => Request::Trace {
            session,
            n: deadline_ms.map(|d| (d % 64) as usize),
            back: deadline_ms.map(|d| (d % 8) as usize),
            deadline_ms,
        },
        9 => Request::Watch {
            // `*` (watch everything) is legal on WATCH but on no other verb.
            session: if deadline_ms.unwrap_or(0).is_multiple_of(2) {
                session
            } else {
                mcfs_repro::server::WATCH_ALL.to_owned()
            },
            buffer: deadline_ms.map(|d| (d % 1000 + 1) as usize),
        },
        10 => Request::Unwatch { session },
        11 => Request::Dump {
            session,
            deadline_ms,
        },
        _ => Request::Profile {
            // `*` (whole process) is the common target; named sessions
            // round-trip too.
            session: if deadline_ms.unwrap_or(0).is_multiple_of(2) {
                session
            } else {
                mcfs_repro::server::WATCH_ALL.to_owned()
            },
            secs: deadline_ms.map_or(0, |d| d % (MAX_PROFILE_SECS + 1)),
            format: if deadline_ms.unwrap_or(0).is_multiple_of(3) {
                ProfileFormat::Speedscope
            } else {
                ProfileFormat::Folded
            },
        },
    }
}

fn roundtrip_request(req: &Request) -> Request {
    let mut buf = Vec::new();
    req.write_to(&mut buf).expect("rendering a valid request");
    let mut reader = buf.as_slice();
    let back = Request::read_from(&mut reader, 1 << 20)
        .expect("parsing a rendered request")
        .expect("a frame, not EOF");
    assert!(reader.is_empty(), "frame did not consume its own bytes");
    back
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every renderable request parses back to itself, and consumes
    /// exactly the bytes it wrote (framing stays synchronized).
    #[test]
    fn request_frames_round_trip(
        variant in 0usize..Verb::ALL.len(),
        name_picks in proptest::collection::vec(0usize..64, 1..12),
        edit_specs in proptest::collection::vec((0usize..6, 0u32..5000, 0u32..50), 0..6),
        line_specs in proptest::collection::vec(
            proptest::collection::vec(0usize..64, 0..30), 0..8),
        deadline in proptest::option::weighted(0.5, 0u64..100_000),
    ) {
        let session = pick_string(NAME_CHARS, &name_picks);
        let edits: Vec<Edit> =
            edit_specs.iter().map(|&(t, a, b)| build_edit(t, a, b)).collect();
        let payload: Vec<String> =
            line_specs.iter().map(|p| pick_string(LINE_CHARS, p)).collect();
        let req = build_request(variant, session, edits, payload, deadline);
        prop_assert_eq!(roundtrip_request(&req), req);
    }

    /// Every renderable reply parses back to itself.
    #[test]
    fn reply_frames_round_trip(
        variant in 0usize..4,
        verb_pick in 0usize..Verb::ALL.len(),
        code_pick in 0usize..11,
        kv_specs in proptest::collection::vec(
            (proptest::collection::vec(0usize..64, 1..8),
             proptest::collection::vec(0usize..64, 0..8)), 0..4),
        line_specs in proptest::collection::vec(
            proptest::collection::vec(0usize..64, 0..30), 0..6),
        msg_picks in proptest::collection::vec(0usize..64, 0..40),
    ) {
        let kvs: Vec<(String, String)> = kv_specs
            .iter()
            .enumerate()
            .map(|(i, (k, v))| {
                // Prefix with the index so keys stay unique and never
                // collide with the reserved `lines` attribute.
                (format!("k{i}{}", pick_string(NAME_CHARS, k)),
                 pick_string(NAME_CHARS, v))
            })
            .collect();
        let payload: Vec<String> =
            line_specs.iter().map(|p| pick_string(LINE_CHARS, p)).collect();
        let reply = match variant {
            0 => Reply::Ok {
                verb: Verb::ALL[verb_pick % Verb::ALL.len()],
                kvs,
                payload,
            },
            1 => Reply::Busy { kvs },
            2 => Reply::Timeout { kvs },
            _ => {
                // `err` carries the message to end-of-line, so leading and
                // trailing whitespace is not preserved; trim to the wire's
                // canonical form before comparing.
                let message = pick_string(LINE_CHARS, &msg_picks).trim().to_owned();
                Reply::Err {
                    code: ErrorCode::ALL[code_pick % ErrorCode::ALL.len()],
                    message,
                }
            }
        };
        let mut buf = Vec::new();
        reply.write_to(&mut buf).expect("rendering a valid reply");
        let mut reader = buf.as_slice();
        let back = Reply::read_from(&mut reader, 1 << 20).expect("parsing a rendered reply");
        prop_assert!(reader.is_empty(), "frame did not consume its own bytes");
        prop_assert_eq!(back, reply);
    }

    /// Arbitrary bytes never panic the request parser: they produce a
    /// request, a clean EOF, or a structured error.
    #[test]
    fn arbitrary_bytes_never_panic_the_parser(
        bytes in proptest::collection::vec(0u8..=255, 0..200),
    ) {
        let mut reader = bytes.as_slice();
        match Request::read_from(&mut reader, 64) {
            Ok(_) => {}
            Err(e) => prop_assert!(e.line >= 1),
        }
        let mut reader = bytes.as_slice();
        let _ = Reply::read_from(&mut reader, 64);
    }

    /// Near-miss frames — a valid request with one mutation — never panic
    /// and never parse as something else silently.
    #[test]
    fn mutated_valid_frames_stay_structured(
        variant in 0usize..Verb::ALL.len(),
        name_picks in proptest::collection::vec(0usize..64, 1..12),
        cut in 0usize..256,
    ) {
        let req = build_request(
            variant,
            pick_string(NAME_CHARS, &name_picks),
            vec![Edit::AddCustomer { node: 3 }],
            vec!["mcfs-instance v1".into(), "nodes 2".into()],
            Some(17),
        );
        let mut buf = Vec::new();
        req.write_to(&mut buf).unwrap();
        // Truncate mid-frame: must be EOF (empty prefix) or a structured
        // error — truncated payloads are fatal, never misframed.
        let cut = cut % (buf.len() + 1);
        let mut reader = &buf[..cut];
        match Request::read_from(&mut reader, 64) {
            Ok(Some(parsed)) => {
                if cut == buf.len() {
                    prop_assert_eq!(parsed, req);
                } else {
                    // A strict prefix can parse only when the cut landed
                    // mid-line (the parser accepts a lenient EOF-terminated
                    // final line). A prefix ending at a line boundary is
                    // missing whole promised lines and must error instead
                    // (covered by the Err arm below).
                    prop_assert!(!buf[..cut].ends_with(b"\n"));
                }
            }
            Ok(None) => prop_assert_eq!(cut, 0),
            Err(e) => prop_assert!(e.fatal || e.line >= 1),
        }
    }
}

/// Shared tiny instance for the interleaving torture below (world
/// generation is too heavy to repeat per proptest case).
fn torture_instance_text() -> &'static str {
    static TEXT: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    TEXT.get_or_init(|| {
        mcfs_repro::loadgen::WorldSpec {
            target_nodes: 150,
            customers: 20,
            stations: 6,
            k: 3,
            seed: 0x707,
            edit_headroom: 0,
        }
        .instance_text()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Interleaving torture: while a spammer connection hammers SOLVE on a
    /// watched session, the watching connection issues a random schedule of
    /// requests. Event frames may land between its replies at any point —
    /// but every reply must arrive whole (never torn mid-frame by a
    /// concurrent event write), carry the verb that was asked, and the
    /// event stream must stay in sequence order.
    #[test]
    fn watch_frames_never_tear_replies(
        buffer in 1usize..48,
        schedule in proptest::collection::vec(0u8..5, 1..24),
        spam in 4usize..12,
    ) {
        use mcfs_repro::server::{Client, EventBody, ServerConfig, ServerHandle};

        let mut server = ServerHandle::start(ServerConfig {
            workers: 2,
            queue_limit: 64,
            ..ServerConfig::default()
        });
        let addr = server.serve_tcp("127.0.0.1:0").expect("bind");
        let mut a = Client::connect_tcp(&addr.to_string()).expect("connect a");
        a.open_text("tort", OpenKind::Instance, torture_instance_text())
            .expect("open");
        a.solve("tort").expect("warmup");
        a.watch("tort", Some(buffer)).expect("watch");

        std::thread::scope(|scope| {
            let spammer = scope.spawn(move || {
                let mut b = Client::connect_tcp(&addr.to_string()).expect("connect b");
                for _ in 0..spam {
                    // Plain assert: prop_assert cannot cross the scope.
                    assert!(b.solve("tort").expect("spam solve").is_ok());
                }
            });
            for &step in &schedule {
                let req = match step {
                    0 => Request::Solve { session: "tort".into(), deadline_ms: None },
                    1 => Request::Stats { session: "tort".into() },
                    2 => Request::Metrics { format: MetricsFormat::Kv },
                    3 => Request::Snapshot { session: "tort".into(), deadline_ms: None },
                    _ => Request::Profile {
                        session: "tort".into(),
                        secs: 0,
                        format: ProfileFormat::Folded,
                    },
                };
                let reply = a.request(&req).expect("reply must parse whole");
                match reply {
                    Reply::Ok { verb, .. } => assert_eq!(verb, req.verb(), "reply verb mismatch"),
                    other => panic!("unexpected non-ok reply under clean load: {other:?}"),
                }
            }
            spammer.join().expect("spammer panicked");
        });

        a.unwatch("tort").expect("unwatch");
        let mut last_seq = None;
        for frame in a.take_events() {
            match frame.body {
                EventBody::Event { seq, .. } => {
                    if let Some(prev) = last_seq {
                        prop_assert!(seq > prev, "seq regressed: {} then {}", prev, seq);
                    }
                    last_seq = Some(seq);
                }
                EventBody::Dropped { count } => prop_assert!(count > 0),
            }
        }
        server.shutdown();
    }
}

/// A table of specific malformed frames and the line each error reports.
#[test]
fn malformed_frames_report_structured_errors() {
    let cases: &[(&str, usize, bool)] = &[
        ("FROB x\n", 1, false),                         // unknown verb
        ("OPEN\n", 1, false),                           // missing session
        ("OPEN bad!name instance lines=0\n", 1, false), // illegal name
        ("OPEN s instance\n", 1, false),                // missing lines=
        ("OPEN s tarball lines=0\n", 1, false),         // bad payload kind
        ("SOLVE s lines=1\nx\n", 1, false),             // payload on SOLVE
        ("SOLVE s deadline_ms=abc\n", 1, false),        // bad deadline
        ("CLOSE s deadline_ms=5\n", 1, false),          // deadline on CLOSE
        ("EDIT s lines=1\nfrob 1\n", 2, false),         // bad edit line
        ("EDIT s lines=2\nadd-customer 1\n", 3, true),  // truncated payload
        ("OPEN s instance lines=999\nx\n", 1, false),   // over payload bound
        ("STATS\n", 1, false),                          // missing session
        ("METRICS now\n", 1, false),                    // METRICS takes no args
        ("TRACE s back=x\n", 1, false),                 // bad back index
        ("SOLVE s back=1\n", 1, false),                 // back= is TRACE-only
        ("SOLVE *\n", 1, false),                        // * only on WATCH/UNWATCH
        ("WATCH s buffer=0\n", 1, false),               // zero buffer
        ("WATCH s deadline_ms=5\n", 1, false),          // deadline on WATCH
        ("UNWATCH s buffer=4\n", 1, false),             // buffer on UNWATCH
        ("UNWATCH\n", 1, false),                        // missing target
        ("METRICS scope=galaxy\n", 1, false),           // unknown scope
        ("TRACE s remote=2\n", 1, false),               // remote is 0|1
        ("SOLVE s remote=1\n", 1, false),               // remote= is TRACE-only
        ("SOLVE s parent=9\n", 1, false),               // parent needs trace
        ("SOLVE s trace=1 parent=0\n", 1, false),       // zero parent id
        ("SPANS\n", 1, false),                          // missing of=
        ("SPANS of=0\n", 1, false),                     // zero trace id
        ("SPANS s of=1\n", 1, false),                   // SPANS is sessionless
        ("DUMP\n", 1, false),                           // missing session
        ("DUMP s n=3\n", 1, false),                     // n= is TRACE-only
        ("PROFILE\n", 1, false),                        // missing target
        ("PROFILE s/s\n", 1, false),                    // illegal session name
        ("PROFILE s secs=abc\n", 1, false),             // bad secs
        ("PROFILE s secs=61\n", 1, false),              // secs over the 60s cap
        ("PROFILE s format=xml\n", 1, false),           // unknown profile format
        ("PROFILE s scope=galaxy\n", 1, false),         // unknown scope
        ("PROFILE s buffer=2\n", 1, false),             // buffer is WATCH-only
        ("PROFILE s lines=1\nx\n", 1, false),           // payload on PROFILE
        ("SOLVE s secs=1\n", 1, false),                 // secs= is PROFILE-only
        ("PROFILE s deadline_ms=5\n", 1, false),        // deadline on PROFILE
    ];
    for &(frame, line, fatal) in cases {
        let mut reader = frame.as_bytes();
        let err =
            Request::read_from(&mut reader, 64).expect_err(&format!("{frame:?} should not parse"));
        assert_eq!(err.line, line, "error line for {frame:?}: {err}");
        assert_eq!(err.fatal, fatal, "fatality for {frame:?}: {err}");
    }
    // Verbs and attributes removed from the wire (OPEN's `backend` in
    // v1.5; the sharded, federated and cross-process observability surface
    // in v1.6) are unknown ones like any other: a non-fatal error on the
    // verb line, after which the next frame on the same stream still
    // parses.
    for (removed, needle) in [
        (
            "OPEN s instance lines=0 backend=bucket",
            "unknown attribute \"backend\"",
        ),
        ("SHARD s", "unknown verb \"SHARD\""),
        ("MERGE s", "unknown verb \"MERGE\""),
        ("SPANS of=1", "unknown verb \"SPANS\""),
        ("SOLVE s shards=2", "unknown attribute \"shards\""),
        ("TRACE s remote=1", "unknown attribute \"remote\""),
        ("SOLVE s trace=1 parent=9", "unknown attribute \"parent\""),
        ("METRICS scope=cluster", "unknown attribute \"scope\""),
        (
            "METRICS format=snapshot",
            "unknown metrics format \"snapshot\"",
        ),
        ("PROFILE * scope=cluster", "unknown attribute \"scope\""),
    ] {
        let frames = format!("{removed}\nSTATS s\n");
        let mut reader = frames.as_bytes();
        let err = Request::read_from(&mut reader, 64).unwrap_err();
        assert_eq!((err.line, err.fatal), (1, false), "{removed:?}: {err}");
        assert!(err.message.contains(needle), "{removed:?}: {err}");
        assert_eq!(
            Request::read_from(&mut reader, 64).unwrap(),
            Some(Request::Stats {
                session: "s".into()
            }),
            "the frame after {removed:?}"
        );
    }
}

/// A rejected frame never leaves its payload behind: the lines its verb
/// line announced are consumed with it, so the next request parsed is the
/// frame after the payload — not a payload line executed as a request.
#[test]
fn rejected_frames_consume_their_announced_payload() {
    for frame in [
        // A payload on a verb that takes none.
        "SOLVE s lines=1\nCLOSE s\n",
        "STATS s lines=2\nCLOSE s\nCLOSE t\n",
        // A payload behind an unknown verb or attribute, or a bad name.
        "FROB s lines=1\nCLOSE s\n",
        "SOLVE s shards=2 lines=1\nCLOSE s\n",
        "EDIT bad!name lines=1\nCLOSE s\n",
        // A bad edit line: the rest of the script is consumed too.
        "EDIT s lines=2\nfrob 1\nCLOSE s\n",
    ] {
        let stream = format!("{frame}STATS s\n");
        let mut reader = stream.as_bytes();
        let err = Request::read_from(&mut reader, 64).unwrap_err();
        assert!(!err.fatal, "{frame:?}: {err}");
        assert_eq!(
            Request::read_from(&mut reader, 64).unwrap(),
            Some(Request::Stats {
                session: "s".into()
            }),
            "the request after {frame:?}"
        );
    }
}
