//! Wire-protocol robustness: property-based round-trips of request and
//! reply frames, the request grammar table's accept/reject matrix, and
//! malformed-input fuzzing. Whatever bytes a client sends, the parser must
//! return a structured [`ProtoError`] — never panic, never misframe.

use mcfs_repro::core::Edit;
use mcfs_repro::server::protocol::{
    render_edit, Key, Target, Value, VerbRow, GRAMMAR, KEYS, WATCH_ALL,
};
use mcfs_repro::server::{
    ErrorCode, MetricsFormat, OpenKind, ProfileFormat, Reply, Request, TracedRequest, Verb,
    MAX_PROFILE_SECS, MAX_WATCH_BUFFER,
};
use proptest::prelude::*;

/// Session-name alphabet (the full legal set).
const NAME_CHARS: &[u8] = b"abcwXYZ019_.-";
/// Payload-line alphabet: printable, includes the wire's own metacharacters
/// (spaces, `=`, `#`) to prove count-prefixed framing ignores content.
const LINE_CHARS: &[u8] = b"abz XYZ=019_.:#/ ";
/// The payload bound every parse here runs under.
const MAX_PAYLOAD: usize = 64;

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

/// Draws choices off a sampled vector of numbers (the vendored proptest
/// samples plain values, not strategies chosen mid-case).
struct Draw<'a>(std::slice::Iter<'a, usize>);

impl Draw<'_> {
    fn below(&mut self, n: usize) -> usize {
        self.0.next().copied().unwrap_or(0) % n.max(1)
    }

    fn one_in(&mut self, n: usize) -> bool {
        self.below(n) == 0
    }
}

/// A verb-line key with a value its [`KEYS`] row accepts (a word from
/// `row`'s vocabulary), plus the payload lines a `lines=` count announces.
fn valid_value(row: &VerbRow, key: Key, draw: &mut Draw) -> (String, usize) {
    let value = match KEYS[key as usize].value {
        Value::Count => {
            let n = draw.below(4);
            return (n.to_string(), n);
        }
        Value::Int(_, min, max, _) => match draw.below(3) {
            0 => min,
            1 => max,
            _ => min.saturating_add(draw.below(1000) as u64).min(max),
        },
        Value::Word => {
            let words = row.attr(key).unwrap_or(&["kv"]);
            return (words[draw.below(words.len())].to_owned(), 0);
        }
    };
    (value.to_string(), 0)
}

/// A frame for `row` built from the grammar table alone: the verb line
/// with its target, its kind and `keys` at valid values (in a random
/// order), and the payload its `lines=` announces, as edit lines (which
/// every payload verb accepts).
fn table_frame(row: &VerbRow, keys: &[Key], name: &str, draw: &mut Draw) -> String {
    let mut line = vec![row.token.to_owned()];
    match row.target {
        Target::Server => {}
        Target::Session => line.push(name.to_owned()),
        Target::SessionOrAll if draw.one_in(2) => line.push(WATCH_ALL.to_owned()),
        Target::SessionOrAll => line.push(name.to_owned()),
    }
    if !row.kinds.is_empty() {
        line.push(row.kinds[draw.below(row.kinds.len())].to_owned());
    }
    let mut attrs = Vec::new();
    let mut lines = 0;
    for &key in keys {
        let (value, n) = valid_value(row, key, draw);
        attrs.push(format!("{}={value}", KEYS[key as usize].name));
        lines += n;
    }
    for i in (1..attrs.len()).rev() {
        attrs.swap(i, draw.below(i + 1));
    }
    line.extend(attrs);
    let mut frame = line.join(" ") + "\n";
    for _ in 0..lines {
        let edit = build_edit(
            draw.below(6),
            draw.below(5000) as u32,
            draw.below(50) as u32,
        );
        frame += &(render_edit(&edit) + "\n");
    }
    frame
}

/// The keys `row` takes, each kept with probability 1/2; a payload verb
/// always keeps `lines=`.
fn accepted_keys(row: &VerbRow, draw: &mut Draw) -> Vec<Key> {
    KEYS.iter()
        .map(|k| k.key)
        .filter(|&k| row.takes(k) && (k == Key::Lines || draw.one_in(2)))
        .collect()
}

fn roundtrip_request(req: &TracedRequest) -> TracedRequest {
    let mut buf = Vec::new();
    req.write_to(&mut buf).expect("rendering a valid request");
    let mut reader = buf.as_slice();
    let back = TracedRequest::read_from(&mut reader, 1 << 20)
        .expect("parsing a rendered request")
        .expect("a frame, not EOF");
    assert!(reader.is_empty(), "frame did not consume its own bytes");
    back
}

/// A valid request built from the table (see [`table_frame`]).
fn table_request(verb_pick: usize, name: &str, draws: &[usize]) -> TracedRequest {
    let row = &GRAMMAR[verb_pick % GRAMMAR.len()];
    let mut draw = Draw(draws.iter());
    let keys = accepted_keys(row, &mut draw);
    let frame = table_frame(row, &keys, name, &mut draw);
    let mut reader = frame.as_bytes();
    match TracedRequest::read_from(&mut reader, MAX_PAYLOAD) {
        Ok(Some(req)) if reader.is_empty() => req,
        other => panic!("{frame:?} is valid by the table but read as {other:?}"),
    }
}

fn cases() -> ProptestConfig {
    ProptestConfig::with_cases(ProptestConfig::default().cases.max(128))
}

proptest! {
    #![proptest_config(cases())]

    /// Every request the table allows parses, renders back to bytes that
    /// parse to the same request, and those bytes are exactly one frame
    /// (framing stays synchronized).
    #[test]
    fn request_frames_round_trip(
        verb_pick in 0usize..GRAMMAR.len(),
        name_picks in proptest::collection::vec(0usize..64, 1..12),
        draws in proptest::collection::vec(0usize..1_000_000, 48),
    ) {
        let req = table_request(verb_pick, &pick_string(NAME_CHARS, &name_picks), &draws);
        prop_assert_eq!(req.request.verb(), GRAMMAR[verb_pick].verb);
        prop_assert_eq!(roundtrip_request(&req), req);
    }

    /// `OPEN` carries its payload verbatim, whatever the lines hold: the
    /// count on the verb line frames it, not the content.
    #[test]
    fn opaque_payload_lines_round_trip(
        name_picks in proptest::collection::vec(0usize..64, 1..12),
        line_specs in proptest::collection::vec(
            proptest::collection::vec(0usize..64, 0..30), 0..8),
        checkpoint in proptest::bool::ANY,
    ) {
        let req = TracedRequest {
            request: Request::Open {
                session: pick_string(NAME_CHARS, &name_picks),
                kind: if checkpoint { OpenKind::Checkpoint } else { OpenKind::Instance },
                payload: line_specs.iter().map(|p| pick_string(LINE_CHARS, p)).collect(),
            },
            trace: None,
        };
        prop_assert_eq!(roundtrip_request(&req), req);
    }

    /// A verb line with a random subset of every key (at valid values)
    /// parses exactly when its verb's row takes every key it carries and,
    /// for a payload verb, it announces `lines=`. Every rejection is a
    /// non-fatal error on line 1, and the frame after it still parses.
    #[test]
    fn verb_lines_parse_exactly_when_the_row_takes_their_keys(
        verb_pick in 0usize..GRAMMAR.len(),
        name_picks in proptest::collection::vec(0usize..64, 1..12),
        draws in proptest::collection::vec(0usize..1_000_000, 48),
    ) {
        let row = &GRAMMAR[verb_pick];
        let mut draw = Draw(draws.iter());
        // Keys the row takes are kept more often than the rest, so both
        // outcomes stay common.
        let keys: Vec<Key> = KEYS
            .iter()
            .map(|k| k.key)
            .filter(|&k| draw.one_in(if row.takes(k) { 2 } else { 5 }))
            .collect();
        let frame = table_frame(row, &keys, &pick_string(NAME_CHARS, &name_picks), &mut draw);
        // Read off the row itself: every verb takes `trace=`, a payload
        // verb `lines=`, and each verb the attributes it lists.
        let in_row = |k: Key| {
            k == Key::Trace
                || (k == Key::Lines && row.payload)
                || row.attrs.iter().any(|a| a.0 == k)
        };
        let valid = keys.iter().all(|&k| in_row(k))
            && (!row.payload || keys.contains(&Key::Lines));
        let stream = format!("{frame}STATS s\n");
        let mut reader = stream.as_bytes();
        match TracedRequest::read_from(&mut reader, MAX_PAYLOAD) {
            Ok(Some(req)) => {
                prop_assert!(valid, "{:?} parsed as {:?}", frame, req);
                prop_assert_eq!(req.request.verb(), row.verb);
            }
            Ok(None) => prop_assert!(false, "{:?} read as EOF", frame),
            Err(e) => {
                prop_assert!(!valid, "{:?} was rejected: {}", frame, e);
                prop_assert_eq!((e.line, e.fatal), (1, false), "{:?}: {}", frame, e);
            }
        }
        prop_assert_eq!(
            Request::read_from(&mut reader, MAX_PAYLOAD).unwrap(),
            Some(Request::Stats { session: "s".into() }),
            "the frame after {:?}", frame
        );
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
        verb_pick in 0usize..GRAMMAR.len(),
        name_picks in proptest::collection::vec(0usize..64, 1..12),
        draws in proptest::collection::vec(0usize..1_000_000, 48),
        cut in 0usize..256,
    ) {
        let req = table_request(verb_pick, &pick_string(NAME_CHARS, &name_picks), &draws);
        let mut buf = Vec::new();
        req.write_to(&mut buf).unwrap();
        // Truncate mid-frame: must be EOF (empty prefix) or a structured
        // error — truncated payloads are fatal, never misframed.
        let cut = cut % (buf.len() + 1);
        let mut reader = &buf[..cut];
        match TracedRequest::read_from(&mut reader, 64) {
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

/// Malformed request frames: the line each error reports, whether it is
/// fatal, and a substring of its message. A non-fatal rejection leaves the
/// stream in step, so a `STATS s` frame after it still parses; verbs and
/// attributes the wire dropped (OPEN's `backend` in v1.5, the sharded,
/// federated and cross-process surface in v1.6) are unknown like any
/// other. The frames exactly at a value bound parse.
#[test]
fn malformed_frames_report_structured_errors() {
    #[rustfmt::skip]
    let cases: &[(&str, usize, bool, &str)] = &[
        // The verb and its target.
        ("\n", 1, false, "empty request line"),
        ("FROB x\n", 1, false, "unknown verb \"FROB\""),
        ("WAT s\n", 1, false, "unknown verb \"WAT\""),
        ("SHARD s\n", 1, false, "unknown verb \"SHARD\""),
        ("MERGE s\n", 1, false, "unknown verb \"MERGE\""),
        ("MERGE s lines=1\nx\n", 1, false, "unknown verb \"MERGE\""),
        ("SPANS\n", 1, false, "unknown verb \"SPANS\""),
        ("SPANS of=0\n", 1, false, "unknown verb \"SPANS\""),
        ("SPANS of=1\n", 1, false, "unknown verb \"SPANS\""),
        ("SPANS of=7\n", 1, false, "unknown verb \"SPANS\""),
        ("SPANS s of=1\n", 1, false, "unknown verb \"SPANS\""),
        ("OPEN\n", 1, false, "OPEN needs a session name"),
        ("STATS\n", 1, false, "STATS needs a session name"),
        ("TRACE\n", 1, false, "TRACE needs a session name"),
        ("UNWATCH\n", 1, false, "UNWATCH needs a session name"),
        ("DUMP\n", 1, false, "DUMP needs a session name"),
        ("PROFILE\n", 1, false, "PROFILE needs a session name"),
        ("OPEN bad!name instance lines=0\n", 1, false, "bad session name"),
        ("OPEN s/s instance lines=0\n", 1, false, "bad session name"),
        ("PROFILE s/s\n", 1, false, "bad session name"),
        // `*` names every session on WATCH and UNWATCH, and the process on
        // PROFILE; on any other verb it is a bad name.
        ("SOLVE *\n", 1, false, "bad session name \"*\""),
        ("SOLVE * \n", 1, false, "bad session name \"*\""),
        // OPEN's payload kind.
        ("OPEN s tarball lines=0\n", 1, false, "bad OPEN payload kind"),
        ("OPEN s wat lines=0\n", 1, false, "bad OPEN payload kind"),
        ("OPEN bad name instance lines=0\n", 1, false, "bad OPEN payload kind \"name\""),
        // Attribute syntax and unknown attributes.
        ("METRICS now\n", 1, false, "expected key=value"),
        ("OPEN s instance lines=0 backend=bucket\n", 1, false, "unknown attribute \"backend\""),
        ("SOLVE s shards=2\n", 1, false, "unknown attribute \"shards\""),
        ("SNAPSHOT s shards=2\n", 1, false, "unknown attribute \"shards\""),
        ("TRACE s remote=1\n", 1, false, "unknown attribute \"remote\""),
        ("TRACE s remote=2\n", 1, false, "unknown attribute \"remote\""),
        ("SOLVE s remote=1\n", 1, false, "unknown attribute \"remote\""),
        ("SOLVE s parent=9\n", 1, false, "unknown attribute \"parent\""),
        ("SOLVE s trace=1 parent=9\n", 1, false, "unknown attribute \"parent\""),
        ("SOLVE s trace=1 parent=0\n", 1, false, "unknown attribute \"parent\""),
        ("METRICS scope=local\n", 1, false, "unknown attribute \"scope\""),
        ("METRICS scope=galaxy\n", 1, false, "unknown attribute \"scope\""),
        ("METRICS scope=cluster\n", 1, false, "unknown attribute \"scope\""),
        ("PROFILE s scope=galaxy\n", 1, false, "unknown attribute \"scope\""),
        ("PROFILE * scope=cluster\n", 1, false, "unknown attribute \"scope\""),
        // Attribute values, judged before whether the verb takes the key.
        ("SOLVE s deadline_ms=abc\n", 1, false, "bad deadline_ms"),
        ("SOLVE s trace=0\n", 1, false, "trace id must be nonzero"),
        ("SOLVE s trace=yes\n", 1, false, "bad trace id"),
        ("TRACE s n=abc\n", 1, false, "bad span count"),
        ("TRACE s back=no\n", 1, false, "bad back offset"),
        ("TRACE s back=x\n", 1, false, "bad back offset"),
        ("WATCH s buffer=0\n", 1, false, "buffer must be at least 1"),
        ("WATCH s buffer=65537\n", 1, false, "buffer must be at least 1 and at most 65536"),
        ("WATCH s buffer=18446744073709551615\n", 1, false, "at most 65536"),
        ("WATCH s buffer=x\n", 1, false, "bad buffer size"),
        ("PROFILE s secs=abc\n", 1, false, "bad secs"),
        ("PROFILE s secs=61\n", 1, false, "secs too large"),
        ("PROFILE s secs=999999999\n", 1, false, "secs too large"),
        // A repeated attribute, judged in token order; the payload is the
        // one its last `lines=` announces.
        ("SOLVE s deadline_ms=1 deadline_ms=2\n", 1, false, "repeated attribute \"deadline_ms\""),
        ("SOLVE s trace=1 deadline_ms=1 trace=1\n", 1, false, "repeated attribute \"trace\""),
        ("OPEN s instance lines=1 lines=0\n", 1, false, "repeated attribute \"lines\""),
        ("OPEN s instance lines=0 lines=1\nx\n", 1, false, "repeated attribute \"lines\""),
        // A count over the bound is refused before any payload line is
        // read (those lines then come back as frames of their own).
        ("OPEN s instance lines=99999999999\n", 1, false, "exceeds the limit"),
        ("OPEN s instance lines=999\nx\n", 1, false, "exceeds the limit"),
        // Keys the verb does not take.
        ("SOLVE s lines=1\nx\n", 1, false, "SOLVE takes no lines="),
        ("SOLVE s lines=3\nx\ny\nz\n", 1, false, "SOLVE takes no lines="),
        ("WATCH s lines=1\nx\n", 1, false, "WATCH takes no lines="),
        ("PROFILE s lines=1\nx\n", 1, false, "PROFILE takes no lines="),
        ("ASSIGNMENT s deadline_ms=1\n", 1, false, "ASSIGNMENT takes no deadline_ms="),
        ("CLOSE s deadline_ms=5\n", 1, false, "CLOSE takes no deadline_ms="),
        ("WATCH s deadline_ms=5\n", 1, false, "WATCH takes no deadline_ms="),
        ("PROFILE s deadline_ms=5\n", 1, false, "PROFILE takes no deadline_ms="),
        ("METRICS n=3\n", 1, false, "METRICS takes no n="),
        ("DUMP s n=3\n", 1, false, "DUMP takes no n="),
        ("PROFILE s n=3\n", 1, false, "PROFILE takes no n="),
        ("SOLVE s back=1\n", 1, false, "SOLVE takes no back="),
        ("UNWATCH s buffer=4\n", 1, false, "UNWATCH takes no buffer="),
        ("PROFILE s buffer=2\n", 1, false, "PROFILE takes no buffer="),
        ("SOLVE s secs=1\n", 1, false, "SOLVE takes no secs="),
        ("TRACE s format=kv\n", 1, false, "TRACE takes no format="),
        ("DUMP s format=kv\n", 1, false, "DUMP takes no format="),
        // A payload verb without its count.
        ("OPEN s instance\n", 1, false, "OPEN needs lines=<n>"),
        ("EDIT s\n", 1, false, "EDIT needs lines=<n>"),
        // Words outside the verb's `format=` vocabulary.
        ("METRICS format=xml\n", 1, false, "unknown metrics format"),
        ("METRICS format=folded\n", 1, false, "unknown metrics format"),
        ("METRICS format=snapshot\n", 1, false, "unknown metrics format \"snapshot\""),
        ("PROFILE s format=kv\n", 1, false, "unknown profile format"),
        ("PROFILE s format=flame\n", 1, false, "unknown profile format"),
        ("PROFILE s format=xml\n", 1, false, "unknown profile format"),
        // The payload's own lines: a bad edit names its line, and a short
        // payload desynchronizes the stream.
        ("EDIT s lines=1\nfrob 1\n", 2, false, "unknown edit"),
        ("EDIT s lines=1\nwarp-customer 1\n", 2, false, "unknown edit"),
        ("EDIT s lines=2\nadd-customer 1\n", 3, true, "truncated"),
    ];
    // The frames at a bound parse.
    for (frame, request) in [
        (
            "WATCH s buffer=65536\n",
            Request::Watch {
                session: "s".into(),
                buffer: Some(MAX_WATCH_BUFFER),
            },
        ),
        (
            "PROFILE s secs=60\n",
            Request::Profile {
                session: "s".into(),
                secs: MAX_PROFILE_SECS,
                format: ProfileFormat::Folded,
            },
        ),
    ] {
        let parsed = Request::read_from(&mut frame.as_bytes(), MAX_PAYLOAD).unwrap();
        assert_eq!(parsed, Some(request), "{frame:?}");
    }
    for &(frame, line, fatal, needle) in cases {
        let stream = if fatal {
            frame.to_owned()
        } else {
            format!("{frame}STATS s\n")
        };
        let mut reader = stream.as_bytes();
        let err = match Request::read_from(&mut reader, MAX_PAYLOAD) {
            Ok(parsed) => panic!("{frame:?} should not parse, got {parsed:?}"),
            Err(e) => e,
        };
        assert_eq!((err.line, err.fatal), (line, fatal), "{frame:?}: {err}");
        assert!(
            err.message.contains(needle),
            "{frame:?}: {err} (wanted {needle:?})"
        );
        if fatal {
            continue;
        }
        if needle == "exceeds the limit" {
            for leftover in frame.lines().skip(1) {
                let err = Request::read_from(&mut reader, MAX_PAYLOAD).unwrap_err();
                assert!(err.message.contains(leftover), "{frame:?}: {err}");
            }
        }
        assert_eq!(
            Request::read_from(&mut reader, MAX_PAYLOAD).unwrap(),
            Some(Request::Stats {
                session: "s".into()
            }),
            "the frame after {frame:?}"
        );
    }
    // Reply frames, read by the client.
    for (frame, line, fatal, needle) in [
        ("yes sir\n", 1, false, "unknown reply status"),
        ("ok warp\n", 1, false, "unknown reply verb"),
        ("err whatever boom\n", 1, false, "unknown error code"),
        ("busy lines=2\na\nb\n", 1, false, "no payload"),
        ("ok stats lines=5\nonly-one\n", 3, true, "truncated"),
    ] {
        let err = Reply::read_from(&mut frame.as_bytes(), MAX_PAYLOAD).unwrap_err();
        assert_eq!((err.line, err.fatal), (line, fatal), "{frame:?}: {err}");
        assert!(err.message.contains(needle), "{frame:?}: {err}");
    }
}

/// Edge values round-trip as explicit cases, beside the proptests that
/// reach them by chance: the largest `secs=`, a zero deadline, the largest
/// trace id, the `*` targets, every edit kind, and `err` replies with an
/// empty and a quoted message.
#[test]
fn edge_values_round_trip() {
    let requests = [
        Request::Profile {
            session: WATCH_ALL.into(),
            secs: MAX_PROFILE_SECS,
            format: ProfileFormat::Speedscope,
        },
        Request::Snapshot {
            session: "s".into(),
            deadline_ms: Some(0),
        },
        Request::Metrics {
            format: MetricsFormat::Prometheus,
        },
        Request::Watch {
            session: WATCH_ALL.into(),
            buffer: Some(1),
        },
        Request::Unwatch {
            session: WATCH_ALL.into(),
        },
        Request::Trace {
            session: "a.b-c_d".into(),
            n: Some(0),
            back: Some(0),
            deadline_ms: Some(u64::MAX),
        },
        Request::Edit {
            session: "s".into(),
            edits: (0..6).map(|tag| build_edit(tag, 7, 4)).collect(),
            deadline_ms: Some(250),
        },
    ];
    for request in requests {
        for trace in [None, Some(1), Some(u64::MAX)] {
            let req = TracedRequest {
                request: request.clone(),
                trace,
            };
            assert_eq!(roundtrip_request(&req), req);
        }
    }
    for reply in [
        Reply::Err {
            code: ErrorCode::ShuttingDown,
            message: String::new(),
        },
        Reply::Err {
            code: ErrorCode::NoSession,
            message: "no session \"x\"".into(),
        },
        Reply::Ok {
            verb: Verb::Stats,
            kvs: vec![],
            payload: vec![String::new(), "warm 1".into()],
        },
    ] {
        let mut buf = Vec::new();
        reply.write_to(&mut buf).unwrap();
        assert_eq!(
            Reply::read_from(&mut buf.as_slice(), MAX_PAYLOAD).unwrap(),
            reply
        );
    }
}

/// The module docs' `request` production is exactly what the grammar
/// table renders, one alternative per verb: the docs cannot drift from the
/// parser.
#[test]
fn grammar_docs_are_rendered_from_the_table() {
    let choice = |words: &[&str]| {
        let quoted: Vec<String> = words.iter().map(|w| format!("{w:?}")).collect();
        format!("({})", quoted.join(" | "))
    };
    let key = |key: Key| format!("{:?}", format!("{}=", KEYS[key as usize].name));
    let rendered: Vec<String> = GRAMMAR
        .iter()
        .enumerate()
        .map(|(i, row)| {
            let mut parts = vec![format!("{:?}", row.token)];
            match row.target {
                Target::Server => {}
                Target::Session => parts.push("session".into()),
                Target::SessionOrAll => parts.push(format!("(session | {WATCH_ALL:?})")),
            }
            if !row.kinds.is_empty() {
                parts.push(choice(row.kinds));
            }
            if row.payload {
                parts.push(format!("{} n", key(Key::Lines)));
            }
            for &(k, words) in row.attrs {
                let value = if words.is_empty() {
                    "n".into()
                } else {
                    choice(words)
                };
                parts.push(format!("[{} {value}]", key(k)));
            }
            if row.payload {
                parts.push("payload".into());
            }
            let lead = if i == 0 { "request  :=" } else { "          |" };
            format!("{lead} {}", parts.join(" "))
        })
        .collect();
    let docs: Vec<&str> = include_str!("../crates/server/src/protocol.rs")
        .lines()
        .filter_map(|l| l.strip_prefix("//! "))
        .skip_while(|l| !l.starts_with("request  :="))
        .take_while(|l| l.starts_with("request  :=") || l.starts_with("          |"))
        .collect();
    assert_eq!(
        docs, rendered,
        "protocol.rs's grammar block drifted from GRAMMAR"
    );
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
