//! The `mcfs-wire v1.6` protocol: a line-oriented, versioned request/reply
//! format in the style of the `mcfs-io` file formats (plain text, strict
//! parsing, line-numbered errors).
//!
//! # Grammar
//!
//! On connect the server sends one greeting line, [`WIRE_VERSION`]. After
//! that the client sends framed requests and reads one framed reply per
//! request. Every frame is a *verb line* optionally followed by a
//! count-prefixed payload: a `lines=<n>` token on the verb line announces
//! exactly `n` payload lines. Count-prefixed framing keeps the parser
//! trivial and makes truncation detectable (`n` lines promised, EOF
//! delivered).
//!
//! Requests are declared once, in two tables: [`GRAMMAR`] has one row per
//! verb and [`KEYS`] one row per attribute. One generic parser and one
//! generic writer read them, and a test renders the `request` production
//! below from them (`n` stands for a number) and fails when the two differ.
//!
//! ```text
//! request  := "OPEN" session ("instance" | "checkpoint") "lines=" n payload
//!           | "EDIT" session "lines=" n ["deadline_ms=" n] payload
//!           | "SOLVE" session ["deadline_ms=" n]
//!           | "ASSIGNMENT" session
//!           | "STATS" session
//!           | "SNAPSHOT" session ["deadline_ms=" n]
//!           | "CLOSE" session
//!           | "METRICS" ["format=" ("kv" | "prometheus")]
//!           | "TRACE" session ["n=" n] ["back=" n] ["deadline_ms=" n]
//!           | "WATCH" (session | "*") ["buffer=" n]
//!           | "UNWATCH" (session | "*")
//!           | "DUMP" session ["deadline_ms=" n]
//!           | "PROFILE" (session | "*") ["secs=" n] ["format=" ("folded" | "speedscope")]
//!
//! reply    := "ok" verb {key "=" value} ["lines=" n payload]
//!           | "busy" {key "=" value}
//!           | "timeout" {key "=" value}
//!           | "err" code message-to-end-of-line
//!
//! event    := "event" session "seq=" s "kind=" kind {key "=" value}
//!           | "event" target "dropped=" n
//! ```
//!
//! Any request verb line may additionally carry a `trace=<id>` attribute
//! (a nonzero u64 chosen by the client): the server then records the
//! request's lifecycle as spans under that trace id and echoes the id back
//! as a `trace=` kv on non-`err` replies. `TRACE <session>` returns the
//! spans of one of the session's traced requests (`back=<j>` steps back
//! through those the session's ring still holds; `back=0`, the default, is
//! the most recent), one span per payload line in the `mcfs-obs` wire
//! shape, with `truncated=1` when the ring has evicted part of it.
//! [`TracedRequest`] is the frame-with-trace pair; [`Request`] alone
//! ignores the attribute.
//!
//! # Event frames (wire v1.1)
//!
//! A connection that has issued `WATCH` receives single-line `event`
//! frames ([`EventFrame`]) interleaved *between* reply frames — never
//! inside one, so a reply's verb line and its payload stay contiguous.
//! Clients that multiplex replies with events read [`Frame`]s; the
//! `dropped=<n>` marker form reports events lost to the watcher's bounded
//! buffer (`n` counts losses since the previous marker or the `WATCH`).
//!
//! # Flight recorder (wire v1.3) and profiling (wire v1.4)
//!
//! `DUMP <session>` returns the session's ring — its traced requests'
//! spans and, while the flight recorder is armed, its events — as JSONL
//! payload lines. `PROFILE <session|*>` answers inline with the continuous
//! profiler's folded span-path table: cumulative by default, or only the
//! samples of a `secs=<n>` window.
//!
//! # Removed verbs and attributes (wire v1.5, v1.6)
//!
//! v1.5 removed `OPEN`'s `backend` attribute: every oracle row is filled
//! by the one arena search, so there is nothing to select. v1.6 removed
//! the sharded and federated solve path and its cross-process
//! observability: the `SHARD`, `MERGE` and `SPANS` verbs, the `shards=`,
//! `remote=`, `of=` and `parent=` attributes, `scope=` on `METRICS` and
//! `PROFILE`, and `METRICS format=snapshot`. Each is now an unknown verb,
//! attribute or format like any other: a non-fatal `err proto`, after
//! which the connection keeps serving.
//!
//! `OPEN` payloads are verbatim `mcfs-instance v1` / `mcfs-checkpoint v1`
//! blocks (the `mcfs-io` formats, reused as-is); `EDIT` payloads are typed
//! edit lines (`add-customer 7`, `set-capacity 2 5`, …) mapped 1:1 onto
//! [`mcfs::Edit`]. Session names are restricted to `[A-Za-z0-9_.-]`, at
//! most [`MAX_SESSION_NAME`] bytes.
//!
//! Malformed frames yield a structured [`ProtoError`] carrying the
//! frame-relative line number — never a panic: the server feeds raw client
//! bytes into this parser. The payload a verb line announces is consumed
//! before the verb line is judged, so a rejected frame never leaves its
//! payload behind to be read as requests. Errors that desynchronize the
//! framing (truncated payloads, I/O failures) set [`ProtoError`]'s `fatal`
//! flag so the connection loop knows to hang up instead of misparsing the
//! remainder of the stream.

use std::io::{self, BufRead, Write};

use mcfs::Edit;
use mcfs_graph::NodeId;

/// Greeting line the server sends on connect; also the protocol version.
pub const WIRE_VERSION: &str = "mcfs-wire v1.6";

/// The `WATCH`/`UNWATCH` target meaning "every session" (`WATCH *`).
pub const WATCH_ALL: &str = "*";

/// Longest accepted session name, in bytes.
pub const MAX_SESSION_NAME: usize = 64;

/// Bound on `lines=<n>` payload sizes. A frame promising more lines
/// than this is rejected before anything is buffered, so a one-line header
/// cannot commit the server to an unbounded allocation.
pub const DEFAULT_MAX_PAYLOAD_LINES: usize = 1 << 20;

/// The thirteen request verbs, in [`GRAMMAR`] order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Verb {
    /// Create a session from an instance or checkpoint payload.
    Open,
    /// Apply a typed edit script to a session.
    Edit,
    /// Re-solve a session (warm where possible).
    Solve,
    /// Fetch the last solution as an `mcfs-solution v1` block.
    Assignment,
    /// Fetch the last solve's `key value` statistics.
    Stats,
    /// Write a checkpoint of the session and return it.
    Snapshot,
    /// Tear a session down.
    Close,
    /// Fetch the server-wide counters and latency histogram.
    Metrics,
    /// Fetch the spans of one of a session's recently traced requests.
    Trace,
    /// Subscribe this connection to a session's live event stream.
    Watch,
    /// Cancel a `WATCH` subscription on this connection.
    Unwatch,
    /// Drain a session's flight-recorder ring as JSONL.
    Dump,
    /// Fetch the continuous profiler's folded span-path table.
    Profile,
}

impl Verb {
    /// Every verb, in wire order.
    pub const ALL: [Verb; GRAMMAR.len()] = {
        let mut all = [Verb::Open; GRAMMAR.len()];
        let mut i = 0;
        while i < all.len() {
            all[i] = GRAMMAR[i].verb;
            assert!(all[i] as usize == i, "GRAMMAR rows follow Verb's order");
            i += 1;
        }
        all
    };

    /// The verb's row of [`GRAMMAR`].
    pub fn row(self) -> &'static VerbRow {
        &GRAMMAR[self as usize]
    }

    /// The verb's position in [`Verb::ALL`] (the layout of per-verb
    /// counter grids).
    pub fn index(self) -> usize {
        self as usize
    }

    /// The lowercase wire name (used in replies and metrics keys).
    pub fn name(self) -> &'static str {
        self.row().name
    }

    /// The uppercase request token.
    pub fn token(self) -> &'static str {
        self.row().token
    }

    fn from_name(s: &str) -> Option<Verb> {
        GRAMMAR.iter().find(|row| row.name == s).map(|row| row.verb)
    }
}

/// What a verb line names after its token.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Target {
    /// Nothing: the verb addresses the server.
    Server,
    /// A session name.
    Session,
    /// A session name, or [`WATCH_ALL`] for every session (on `PROFILE`,
    /// the whole process).
    SessionOrAll,
}

/// One verb of the request grammar: a row of [`GRAMMAR`].
#[derive(Debug)]
pub struct VerbRow {
    /// The verb the row declares.
    pub verb: Verb,
    /// The uppercase request token.
    pub token: &'static str,
    /// The lowercase name that replies and metrics keys carry.
    pub name: &'static str,
    /// What the verb line names after the token.
    pub target: Target,
    /// The words of a positional token required after the target, in
    /// [`OpenKind`] order; empty when the verb takes none.
    pub kinds: &'static [&'static str],
    /// The attributes the verb takes besides `trace=` (every verb takes
    /// it), in written order, each with its words: the default first, and
    /// none for a number.
    pub attrs: &'static [(Key, &'static [&'static str])],
    /// Whether a payload follows the verb line; it then needs `lines=`.
    pub payload: bool,
    /// Whether the request enters its session's queue. The server answers
    /// the others inline, and its latency histogram times queued ones only.
    pub queued: bool,
}

const DEADLINE: (Key, &[&str]) = (Key::DeadlineMs, &[]);

/// The request grammar: one row per verb, in [`Verb`] order.
#[rustfmt::skip]
pub const GRAMMAR: [VerbRow; 13] = [
    VerbRow::new(Verb::Open, "OPEN", "open", Target::Session).kinds(&["instance", "checkpoint"]).payload(),
    VerbRow::new(Verb::Edit, "EDIT", "edit", Target::Session).attrs(&[DEADLINE]).payload(),
    VerbRow::new(Verb::Solve, "SOLVE", "solve", Target::Session).attrs(&[DEADLINE]),
    VerbRow::new(Verb::Assignment, "ASSIGNMENT", "assignment", Target::Session),
    VerbRow::new(Verb::Stats, "STATS", "stats", Target::Session),
    VerbRow::new(Verb::Snapshot, "SNAPSHOT", "snapshot", Target::Session).attrs(&[DEADLINE]),
    VerbRow::new(Verb::Close, "CLOSE", "close", Target::Session),
    VerbRow::new(Verb::Metrics, "METRICS", "metrics", Target::Server)
        .attrs(&[(Key::Format, &["kv", "prometheus"])]).inline(),
    VerbRow::new(Verb::Trace, "TRACE", "trace", Target::Session)
        .attrs(&[(Key::N, &[]), (Key::Back, &[]), DEADLINE]),
    VerbRow::new(Verb::Watch, "WATCH", "watch", Target::SessionOrAll).attrs(&[(Key::Buffer, &[])]).inline(),
    VerbRow::new(Verb::Unwatch, "UNWATCH", "unwatch", Target::SessionOrAll).inline(),
    VerbRow::new(Verb::Dump, "DUMP", "dump", Target::Session).attrs(&[DEADLINE]),
    VerbRow::new(Verb::Profile, "PROFILE", "profile", Target::SessionOrAll)
        .attrs(&[(Key::Secs, &[]), (Key::Format, &["folded", "speedscope"])]).inline(),
];

impl VerbRow {
    /// A queued verb that takes no kind, payload or attribute but `trace=`.
    const fn new(verb: Verb, token: &'static str, name: &'static str, target: Target) -> Self {
        VerbRow {
            verb,
            token,
            name,
            target,
            kinds: &[],
            attrs: &[],
            payload: false,
            queued: true,
        }
    }

    const fn kinds(self, kinds: &'static [&'static str]) -> Self {
        VerbRow { kinds, ..self }
    }

    const fn attrs(self, attrs: &'static [(Key, &'static [&'static str])]) -> Self {
        VerbRow { attrs, ..self }
    }

    const fn payload(mut self) -> Self {
        self.payload = true;
        self
    }

    const fn inline(mut self) -> Self {
        self.queued = false;
        self
    }

    /// The words `key` takes on this verb (empty for a number), if it is
    /// one of the verb's `attrs`.
    pub fn attr(&self, key: Key) -> Option<&'static [&'static str]> {
        self.attrs.iter().find(|a| a.0 == key).map(|a| a.1)
    }

    /// Whether the verb line may carry `key`.
    pub fn takes(&self, key: Key) -> bool {
        match key {
            Key::Trace => true,
            Key::Lines => self.payload,
            _ => self.attr(key).is_some(),
        }
    }
}

/// A verb-line attribute key; its row of [`KEYS`] names it and says how
/// its value is read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Key {
    Lines,
    DeadlineMs,
    Trace,
    Format,
    N,
    Back,
    Buffer,
    Secs,
}

/// How an attribute's value is read.
#[derive(Clone, Copy, Debug)]
pub enum Value {
    /// A payload line count, within the reader's payload bound.
    Count,
    /// An unsigned integer `(what, min, max, limit)`: `what` names it when
    /// it does not parse, and `limit` is the error outside `min..=max`.
    Int(&'static str, u64, u64, &'static str),
    /// A word of the verb's vocabulary for the key, checked once the keys
    /// are.
    Word,
}

impl Value {
    /// Any unsigned integer, named `what` when it does not parse.
    const fn any(what: &'static str) -> Value {
        Value::Int(what, 0, u64::MAX, "")
    }

    fn read(self, v: &str, max_payload: usize) -> Result<Val<'_>, ProtoError> {
        match self {
            Value::Count => parse_payload_count(v, max_payload).map(|n| Val::Num(n as u64)),
            Value::Int(what, min, max, limit) => match v.parse::<u64>() {
                Ok(n) if (min..=max).contains(&n) => Ok(Val::Num(n)),
                Ok(_) => Err(ProtoError::new(1, limit)),
                Err(_) => Err(ProtoError::new(1, format!("bad {what} {v:?}"))),
            },
            Value::Word => Ok(Val::Word(v)),
        }
    }
}

/// One value of an attribute as read off a verb line: a number, or a word
/// that the verb's vocabulary has yet to resolve.
#[derive(Clone, Copy)]
enum Val<'a> {
    Num(u64),
    Word(&'a str),
}

/// One attribute key of the request grammar: a row of [`KEYS`].
#[derive(Debug)]
pub struct KeyRow {
    /// The key the row declares.
    pub key: Key,
    /// The key as written before the `=`.
    pub name: &'static str,
    /// How the key's value is read.
    pub value: Value,
}

/// Every attribute key, in [`Key`] order: the order in which the keys a
/// verb does not take are reported.
#[rustfmt::skip]
pub const KEYS: [KeyRow; 8] = [
    KeyRow { key: Key::Lines, name: "lines", value: Value::Count },
    KeyRow { key: Key::DeadlineMs, name: "deadline_ms", value: Value::any("deadline_ms") },
    KeyRow { key: Key::Trace, name: "trace", value: Value::Int("trace id", 1, u64::MAX, "trace id must be nonzero") },
    KeyRow { key: Key::Format, name: "format", value: Value::Word },
    KeyRow { key: Key::N, name: "n", value: Value::any("span count") },
    KeyRow { key: Key::Back, name: "back", value: Value::any("back offset") },
    KeyRow { key: Key::Buffer, name: "buffer", value: Value::Int("buffer size", 1, MAX_WATCH_BUFFER as u64, "buffer must be at least 1 and at most 65536") },
    KeyRow { key: Key::Secs, name: "secs", value: Value::Int("secs", 0, MAX_PROFILE_SECS, "secs too large (max 60)") },
];

const _: () = {
    let mut i = 0;
    while i < KEYS.len() {
        assert!(KEYS[i].key as usize == i, "KEYS rows follow Key's order");
        i += 1;
    }
    assert!(MAX_PROFILE_SECS == 60, "the secs= limit message names 60");
    assert!(
        MAX_WATCH_BUFFER == 65_536,
        "the buffer= limit message names 65536"
    );
};

/// What an `OPEN` payload contains.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpenKind {
    /// An `mcfs-instance v1` block; the session starts unsolved.
    Instance,
    /// An `mcfs-checkpoint v1` block; the session restores warm via
    /// `ReSolver::from_solved`.
    Checkpoint,
}

/// A parsed client request. [`GRAMMAR`] declares each verb's wire form.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Create a session from an `mcfs-io` block.
    Open {
        /// Target session name.
        session: String,
        /// Payload interpretation.
        kind: OpenKind,
        /// The raw `mcfs-io` block, one entry per line.
        payload: Vec<String>,
    },
    /// Apply an edit script.
    Edit {
        /// Target session name.
        session: String,
        /// The typed script, applied atomically.
        edits: Vec<Edit>,
        /// Queued-request deadline, milliseconds from admission.
        deadline_ms: Option<u64>,
    },
    /// Re-solve the session.
    Solve {
        /// Target session name.
        session: String,
        /// Queued-request deadline, milliseconds from admission.
        deadline_ms: Option<u64>,
    },
    /// Fetch the last solution.
    Assignment {
        /// Target session name.
        session: String,
    },
    /// Fetch the last solve's statistics.
    Stats {
        /// Target session name.
        session: String,
    },
    /// Checkpoint the session.
    Snapshot {
        /// Target session name.
        session: String,
        /// Queued-request deadline, milliseconds from admission.
        deadline_ms: Option<u64>,
    },
    /// Tear the session down.
    Close {
        /// Target session name.
        session: String,
    },
    /// Fetch the server's counters.
    Metrics {
        /// Requested exposition format.
        format: MetricsFormat,
    },
    /// Fetch a traced request's spans.
    Trace {
        /// Target session name.
        session: String,
        /// Cap on returned spans (most recent first wins); `None` = all
        /// retained spans of the selected traced request.
        n: Option<usize>,
        /// Steps back through the traced requests the session's ring
        /// holds; `None`/`Some(0)` = the most recent.
        back: Option<usize>,
        /// Queued-request deadline, milliseconds from admission.
        deadline_ms: Option<u64>,
    },
    /// Subscribe this connection to live events.
    Watch {
        /// Target session name, or [`WATCH_ALL`] for every session.
        session: String,
        /// Bound on the watcher's undelivered-event buffer, at most
        /// [`MAX_WATCH_BUFFER`]; `None` = the server default
        /// ([`mcfs_obs::DEFAULT_SUBSCRIBER_CAPACITY`]).
        buffer: Option<usize>,
    },
    /// Cancel a `WATCH`.
    Unwatch {
        /// The `WATCH` target to cancel.
        session: String,
    },
    /// Fetch the session's ring as JSONL payload lines.
    Dump {
        /// Target session name.
        session: String,
        /// Queued-request deadline, milliseconds from admission.
        deadline_ms: Option<u64>,
    },
    /// Fetch the continuous profiler's folded span-path table. The
    /// profiler is process-scoped, so the target only selects addressing:
    /// `*` asks the process outright, while a session name additionally
    /// checks that the session exists (typo safety for tooling). Answered
    /// inline, never queued — a profile must be obtainable while every
    /// worker is saturated.
    Profile {
        /// Target session name, or [`WATCH_ALL`] for the whole process.
        session: String,
        /// Window length in seconds: the server collects for this long and
        /// returns only samples from the window. 0 (the default) returns
        /// the cumulative since-boot table immediately. Capped at
        /// [`MAX_PROFILE_SECS`].
        secs: u64,
        /// Requested output rendering.
        format: ProfileFormat,
    },
}

/// Largest accepted `WATCH buffer=`: 64 times the default
/// ([`mcfs_obs::DEFAULT_SUBSCRIBER_CAPACITY`]), so one lagging watcher
/// cannot make the server hold an unbounded backlog of events for it.
pub const MAX_WATCH_BUFFER: usize = 64 * mcfs_obs::DEFAULT_SUBSCRIBER_CAPACITY;

/// Longest accepted `PROFILE secs=` window. The reply is synchronous on
/// the connection, so the window is bounded to keep one client from
/// parking a connection thread indefinitely.
pub const MAX_PROFILE_SECS: u64 = 60;

/// `PROFILE` output formats, in the order of the `format=` words of its
/// [`GRAMMAR`] row.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ProfileFormat {
    /// Collapsed-stack lines `lane;name;name <samples>` (the default);
    /// pipe into `flamegraph.pl` or speedscope's folded importer.
    #[default]
    Folded,
    /// One speedscope JSON document on a single payload line.
    Speedscope,
}

/// `METRICS` exposition formats, in the order of the `format=` words of
/// its [`GRAMMAR`] row.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MetricsFormat {
    /// Legacy `key value` lines (the default).
    #[default]
    Kv,
    /// Prometheus text exposition (version 0.0.4), one metric per line.
    Prometheus,
}

/// A request taken apart along its [`GRAMMAR`] row: what the generic
/// writer renders and the generic parser builds.
struct Parts<'a> {
    verb: Verb,
    /// The target; `None` when the verb addresses the server.
    session: Option<&'a str>,
    /// The positional token, as its index in the row's `kinds`.
    kind: Option<usize>,
    /// Attribute values, by [`Key`].
    vals: [Option<Val<'a>>; KEYS.len()],
    /// The payload to write: raw lines, or typed edits.
    lines: &'a [String],
    edits: &'a [Edit],
}

impl<'a> Parts<'a> {
    fn new(verb: Verb, session: Option<&'a str>) -> Self {
        Parts {
            verb,
            session,
            kind: None,
            vals: [None; KEYS.len()],
            lines: &[],
            edits: &[],
        }
    }

    fn at(verb: Verb, session: &'a str) -> Self {
        Parts::new(verb, Some(session))
    }

    fn num(mut self, key: Key, value: Option<u64>) -> Self {
        self.vals[key as usize] = value.map(Val::Num);
        self
    }

    /// Set a word by its index in the verb's vocabulary; the default (the
    /// first word) is left unwritten.
    fn word(mut self, key: Key, index: usize) -> Self {
        if index != 0 {
            let words = self.verb.row().attr(key).unwrap_or_default();
            self.vals[key as usize] = Some(Val::Word(words[index]));
        }
        self
    }

    fn get(&self, key: Key) -> Option<u64> {
        match self.vals[key as usize] {
            Some(Val::Num(n)) => Some(n),
            _ => None,
        }
    }

    /// A word's index in the verb's vocabulary, the default when absent.
    fn word_at(&self, key: Key) -> Result<usize, ProtoError> {
        let Some(Val::Word(word)) = self.vals[key as usize] else {
            return Ok(0);
        };
        let row = self.verb.row();
        let words = row.attr(key).unwrap_or_default();
        words.iter().position(|&w| w == word).ok_or_else(|| {
            let name = KEYS[key as usize].name;
            ProtoError::new(1, format!("unknown {} {name} {word:?}", row.name))
        })
    }
}

/// A request frame together with its optional `trace=<id>` attribute.
///
/// The id is chosen by the client (any nonzero u64); the server records the
/// request lifecycle as spans under it and echoes it back on non-`err`
/// replies, which is what lets a later `TRACE` call retrieve the waterfall.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TracedRequest {
    /// The request proper.
    pub request: Request,
    /// Client-chosen trace id, if the frame carried `trace=`.
    pub trace: Option<u64>,
}

impl TracedRequest {
    /// Serialize the frame, appending ` trace=<id>` to the verb line when
    /// set.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        self.request.write_traced(w, self.trace)
    }

    /// Read one request frame, retaining any `trace=` attribute.
    /// `Ok(None)` is a clean EOF at a frame boundary.
    pub fn read_from(
        r: &mut impl BufRead,
        max_payload: usize,
    ) -> Result<Option<TracedRequest>, ProtoError> {
        let mut buf = FrameBuf::new();
        Self::read_buffered(r, max_payload, &mut buf)
    }

    /// Like [`TracedRequest::read_from`], but reusing `buf`'s line storage
    /// across calls. Long-lived read loops (one per connection) use this so
    /// each frame costs only the allocations of the parsed value itself,
    /// not a fresh line buffer per wire line.
    pub fn read_buffered(
        r: &mut impl BufRead,
        max_payload: usize,
        buf: &mut FrameBuf,
    ) -> Result<Option<TracedRequest>, ProtoError> {
        Ok(read_traced_frame(r, max_payload, buf)?.map(|(req, _)| req))
    }
}

/// Reusable line storage for frame reads, typically one per connection.
///
/// The verb/status line and the payload lines of successive frames land in
/// the same two `String`s instead of a fresh heap allocation per wire line,
/// so a read loop's steady-state allocation is just the owned parts of each
/// parsed frame. Feed it to [`TracedRequest::read_buffered`],
/// [`Reply::read_buffered`] or [`Frame::read_buffered`].
#[derive(Debug, Default)]
pub struct FrameBuf {
    /// Scratch for the verb/status line of the frame being read.
    line: String,
    /// Scratch for payload lines (each copied out at its exact size).
    payload_line: String,
}

impl FrameBuf {
    /// An empty buffer; it grows to the longest line it has seen and stays
    /// there.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Structured error codes carried by `err` replies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame itself was malformed.
    Proto,
    /// An `OPEN` payload failed `mcfs-io` parsing or verification.
    Parse,
    /// An edit script was rejected (`mcfs::EditError`).
    Edit,
    /// The named session does not exist.
    NoSession,
    /// `OPEN` of a name that is already registered.
    SessionExists,
    /// The session name violates the naming rule.
    BadName,
    /// The session's instance is infeasible.
    Infeasible,
    /// The solver failed for a non-feasibility reason.
    Solve,
    /// The request needs state the session does not have yet (e.g.
    /// `ASSIGNMENT` before the first `SOLVE`).
    State,
    /// The server is draining and no longer admits work.
    ShuttingDown,
    /// A server-side I/O failure (e.g. writing a snapshot file).
    Io,
}

impl ErrorCode {
    /// Every code, in wire order.
    pub const ALL: [ErrorCode; 11] = [
        ErrorCode::Proto,
        ErrorCode::Parse,
        ErrorCode::Edit,
        ErrorCode::NoSession,
        ErrorCode::SessionExists,
        ErrorCode::BadName,
        ErrorCode::Infeasible,
        ErrorCode::Solve,
        ErrorCode::State,
        ErrorCode::ShuttingDown,
        ErrorCode::Io,
    ];

    /// The kebab-case wire token.
    pub fn token(self) -> &'static str {
        match self {
            ErrorCode::Proto => "proto",
            ErrorCode::Parse => "parse",
            ErrorCode::Edit => "edit",
            ErrorCode::NoSession => "no-session",
            ErrorCode::SessionExists => "session-exists",
            ErrorCode::BadName => "bad-name",
            ErrorCode::Infeasible => "infeasible",
            ErrorCode::Solve => "solve",
            ErrorCode::State => "state",
            ErrorCode::ShuttingDown => "shutting-down",
            ErrorCode::Io => "io",
        }
    }

    fn from_token(s: &str) -> Option<ErrorCode> {
        ErrorCode::ALL.into_iter().find(|c| c.token() == s)
    }
}

/// A parsed server reply.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Reply {
    /// The request succeeded.
    Ok {
        /// The verb being answered.
        verb: Verb,
        /// Structured `key=value` attributes (e.g. `objective=1234`).
        kvs: Vec<(String, String)>,
        /// Optional payload block (solution text, kv lines, checkpoint).
        payload: Vec<String>,
    },
    /// Admission control shed the request: the session's queue is full.
    Busy {
        /// Structured attributes (`session`, `depth`, `limit`).
        kvs: Vec<(String, String)>,
    },
    /// The request's deadline expired while it was still queued.
    Timeout {
        /// Structured attributes (`session`, `waited_ms`).
        kvs: Vec<(String, String)>,
    },
    /// The request failed.
    Err {
        /// Structured failure class.
        code: ErrorCode,
        /// Human-readable detail (rest of the line; may be empty).
        message: String,
    },
}

impl Reply {
    /// Look up a `key=value` attribute on `ok`/`busy`/`timeout` replies.
    pub fn kv(&self, key: &str) -> Option<&str> {
        let kvs = match self {
            Reply::Ok { kvs, .. } | Reply::Busy { kvs } | Reply::Timeout { kvs } => kvs,
            Reply::Err { .. } => return None,
        };
        kvs.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// The payload block of an `ok` reply (empty otherwise).
    pub fn payload(&self) -> &[String] {
        match self {
            Reply::Ok { payload, .. } => payload,
            _ => &[],
        }
    }

    /// `true` for `ok` replies.
    pub fn is_ok(&self) -> bool {
        matches!(self, Reply::Ok { .. })
    }
}

/// A malformed frame, with the frame-relative 1-based line number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProtoError {
    /// Line within the frame (1 = the verb line).
    pub line: usize,
    /// What went wrong.
    pub message: String,
    /// `true` when the framing may be desynchronized (truncated payload,
    /// invalid UTF-8, I/O failure) and the connection should be dropped
    /// rather than parsed further.
    pub fatal: bool,
}

impl ProtoError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        Self {
            line,
            message: message.into(),
            fatal: false,
        }
    }

    fn fatal(line: usize, message: impl Into<String>) -> Self {
        Self {
            line,
            message: message.into(),
            fatal: true,
        }
    }
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ProtoError {}

/// Is `name` an acceptable session name? (`[A-Za-z0-9_.-]{1,64}`.)
pub fn valid_session_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= MAX_SESSION_NAME
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

fn check_payload_line(line: &str) -> io::Result<()> {
    if line.contains('\n') || line.contains('\r') {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "payload line contains a line break",
        ));
    }
    Ok(())
}

/// Split `text` into payload lines (the shape `lines=<n>` framing carries).
/// A single trailing newline is not an extra empty line.
pub fn text_to_lines(text: &str) -> Vec<String> {
    text.lines().map(str::to_owned).collect()
}

impl Request {
    /// The request's verb.
    pub fn verb(&self) -> Verb {
        self.parts().verb
    }

    /// The session the request addresses (`None` for `METRICS`; the
    /// [`WATCH_ALL`] token for watch-everything subscriptions).
    pub fn session(&self) -> Option<&str> {
        self.parts().session
    }

    /// The request's queued-work deadline, if any.
    pub fn deadline_ms(&self) -> Option<u64> {
        self.parts().get(Key::DeadlineMs)
    }

    /// The one per-verb match that takes a request apart.
    fn parts(&self) -> Parts<'_> {
        match self {
            Request::Open {
                session,
                kind,
                payload,
            } => Parts {
                kind: Some(*kind as usize),
                lines: payload,
                ..Parts::at(Verb::Open, session)
            },
            Request::Edit {
                session,
                edits,
                deadline_ms,
            } => Parts {
                edits,
                ..Parts::at(Verb::Edit, session).num(Key::DeadlineMs, *deadline_ms)
            },
            Request::Solve {
                session,
                deadline_ms,
            } => Parts::at(Verb::Solve, session).num(Key::DeadlineMs, *deadline_ms),
            Request::Assignment { session } => Parts::at(Verb::Assignment, session),
            Request::Stats { session } => Parts::at(Verb::Stats, session),
            Request::Snapshot {
                session,
                deadline_ms,
            } => Parts::at(Verb::Snapshot, session).num(Key::DeadlineMs, *deadline_ms),
            Request::Close { session } => Parts::at(Verb::Close, session),
            Request::Metrics { format } => {
                Parts::new(Verb::Metrics, None).word(Key::Format, *format as usize)
            }
            Request::Trace {
                session,
                n,
                back,
                deadline_ms,
            } => Parts::at(Verb::Trace, session)
                .num(Key::N, n.map(|n| n as u64))
                .num(Key::Back, back.map(|b| b as u64))
                .num(Key::DeadlineMs, *deadline_ms),
            Request::Watch { session, buffer } => {
                Parts::at(Verb::Watch, session).num(Key::Buffer, buffer.map(|b| b as u64))
            }
            Request::Unwatch { session } => Parts::at(Verb::Unwatch, session),
            Request::Dump {
                session,
                deadline_ms,
            } => Parts::at(Verb::Dump, session).num(Key::DeadlineMs, *deadline_ms),
            Request::Profile {
                session,
                secs,
                format,
            } => Parts::at(Verb::Profile, session)
                .num(Key::Secs, (*secs != 0).then_some(*secs))
                .word(Key::Format, *format as usize),
        }
    }

    /// The one per-verb match that puts a request together from its parsed
    /// parts and payload. `EDIT`'s payload lines are parsed here, and an
    /// error names the line's place in the frame.
    fn from_parts(p: Parts<'_>, payload: Vec<String>) -> Result<Request, ProtoError> {
        let session = p.session.unwrap_or_default().to_owned();
        let deadline_ms = p.get(Key::DeadlineMs);
        // Counts are 64-bit on the wire.
        let count = |key| p.get(key).map(|v| v as usize);
        Ok(match p.verb {
            Verb::Open => Request::Open {
                session,
                kind: [OpenKind::Instance, OpenKind::Checkpoint]
                    [p.kind.expect("the OPEN row requires a kind")],
                payload,
            },
            Verb::Edit => Request::Edit {
                session,
                edits: payload
                    .iter()
                    .enumerate()
                    .map(|(i, line)| parse_edit(line).map_err(|m| ProtoError::new(i + 2, m)))
                    .collect::<Result<_, _>>()?,
                deadline_ms,
            },
            Verb::Solve => Request::Solve {
                session,
                deadline_ms,
            },
            Verb::Assignment => Request::Assignment { session },
            Verb::Stats => Request::Stats { session },
            Verb::Snapshot => Request::Snapshot {
                session,
                deadline_ms,
            },
            Verb::Close => Request::Close { session },
            Verb::Metrics => Request::Metrics {
                format: [MetricsFormat::Kv, MetricsFormat::Prometheus][p.word_at(Key::Format)?],
            },
            Verb::Trace => Request::Trace {
                session,
                n: count(Key::N),
                back: count(Key::Back),
                deadline_ms,
            },
            Verb::Watch => Request::Watch {
                session,
                buffer: count(Key::Buffer),
            },
            Verb::Unwatch => Request::Unwatch { session },
            Verb::Dump => Request::Dump {
                session,
                deadline_ms,
            },
            Verb::Profile => Request::Profile {
                session,
                secs: p.get(Key::Secs).unwrap_or(0),
                format: [ProfileFormat::Folded, ProfileFormat::Speedscope]
                    [p.word_at(Key::Format)?],
            },
        })
    }

    /// Serialize the frame (verb line plus payload).
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        self.write_traced(w, None)
    }

    /// Serialize the frame, appending ` trace=<id>` to the verb line when
    /// set (the [`TracedRequest`] shape): the one generic writer of
    /// [`GRAMMAR`]. Attributes follow the row's order; an absent value, or
    /// a default word, is not written.
    fn write_traced(&self, w: &mut impl Write, trace: Option<u64>) -> io::Result<()> {
        let p = self.parts();
        let row = p.verb.row();
        write!(w, "{}", row.token)?;
        if let Some(session) = p.session {
            write!(w, " {session}")?;
        }
        if let Some(kind) = p.kind {
            write!(w, " {}", row.kinds[kind])?;
        }
        if row.payload {
            write!(w, " lines={}", p.lines.len() + p.edits.len())?;
        }
        for &(key, _) in row.attrs {
            let name = KEYS[key as usize].name;
            match p.vals[key as usize] {
                None => {}
                Some(Val::Num(n)) => write!(w, " {name}={n}")?,
                Some(Val::Word(word)) => write!(w, " {name}={word}")?,
            }
        }
        if let Some(t) = trace {
            write!(w, " trace={t}")?;
        }
        writeln!(w)?;
        for line in p.lines {
            check_payload_line(line)?;
            writeln!(w, "{line}")?;
        }
        for edit in p.edits {
            writeln!(w, "{}", render_edit(edit))?;
        }
        Ok(())
    }

    /// Read one request frame, ignoring any `trace=` attribute (use
    /// [`TracedRequest::read_from`] to retain it). `Ok(None)` is a clean
    /// EOF at a frame boundary; mid-frame EOF is a fatal [`ProtoError`].
    pub fn read_from(
        r: &mut impl BufRead,
        max_payload: usize,
    ) -> Result<Option<Request>, ProtoError> {
        let mut buf = FrameBuf::new();
        Ok(read_traced_frame(r, max_payload, &mut buf)?.map(|(t, _)| t.request))
    }
}

/// Read one request frame, returning the [`TracedRequest`] plus the
/// monotonic `mcfs_obs::now_ns` timestamp captured right after the verb
/// line arrived — the start of parsing proper, excluding however long the
/// connection sat idle waiting for the frame. The server's `server.parse`
/// span is anchored on it.
pub(crate) fn read_traced_frame(
    r: &mut impl BufRead,
    max_payload: usize,
    buf: &mut FrameBuf,
) -> Result<Option<(TracedRequest, u64)>, ProtoError> {
    let Some(line) = read_frame_line_into(r, 1, &mut buf.line)? else {
        return Ok(None);
    };
    let parse_start_ns = mcfs_obs::now_ns();
    // Consume the announced payload before judging the verb line, so a
    // frame rejected for any reason cannot leave its payload behind to be
    // parsed as the next requests.
    let payload = read_payload(r, announced_lines(line, max_payload), &mut buf.payload_line)?;
    Ok(Some((
        parse_request(line, payload, max_payload)?,
        parse_start_ns,
    )))
}

/// The payload length a verb line announces: its last `lines=` token when
/// that count parses within `max_payload`, else 0 (the verb-line parse then
/// reports the bad count, and nothing past the verb line is read).
fn announced_lines(line: &str, max_payload: usize) -> usize {
    line.split_whitespace()
        .filter_map(|t| t.strip_prefix("lines="))
        .next_back()
        .and_then(|v| parse_payload_count(v, max_payload).ok())
        .unwrap_or(0)
}

/// Parse a verb line whose announced `payload` has already been read: the
/// one generic reader of [`GRAMMAR`].
///
/// The line is judged in a fixed order: the verb, its target, the
/// positional kind, then every attribute in token order (an unknown key, a
/// repeated key or a bad value is reported there).
/// Only then come the keys the verb does not take (in [`KEYS`] order), a
/// missing `lines=`, a word outside the verb's vocabulary, and last the
/// payload's own lines.
fn parse_request(
    line: &str,
    payload: Vec<String>,
    max_payload: usize,
) -> Result<TracedRequest, ProtoError> {
    let mut tokens = line.split_whitespace();
    let head = tokens
        .next()
        .ok_or_else(|| ProtoError::new(1, "empty request line"))?;
    let row = GRAMMAR
        .iter()
        .find(|row| row.token == head)
        .ok_or_else(|| ProtoError::new(1, format!("unknown verb {head:?}")))?;
    let session = match row.target {
        Target::Server => None,
        target => {
            let session = tokens
                .next()
                .ok_or_else(|| ProtoError::new(1, format!("{head} needs a session name")))?;
            let all = target == Target::SessionOrAll && session == WATCH_ALL;
            if !all && !valid_session_name(session) {
                return Err(ProtoError::new(1, format!("bad session name {session:?}")));
            }
            Some(session)
        }
    };
    let kind = match row.kinds {
        [] => None,
        kinds => {
            let needs = || ProtoError::new(1, format!("{head} needs `{}`", kinds.join("` or `")));
            let word = tokens.next().ok_or_else(needs)?;
            let bad = || ProtoError::new(1, format!("bad {head} payload kind {word:?}"));
            Some(kinds.iter().position(|&k| k == word).ok_or_else(bad)?)
        }
    };

    let mut vals = [None; KEYS.len()];
    for token in tokens {
        let (k, v) = split_kv(token)?;
        let key = KEYS
            .iter()
            .find(|key| key.name == k)
            .ok_or_else(|| ProtoError::new(1, format!("unknown attribute {k:?}")))?;
        let val = &mut vals[key.key as usize];
        if val.is_some() {
            return Err(ProtoError::new(1, format!("repeated attribute {k:?}")));
        }
        *val = Some(key.value.read(v, max_payload)?);
    }
    for (key, value) in KEYS.iter().zip(&vals) {
        if value.is_some() && !row.takes(key.key) {
            return Err(ProtoError::new(1, format!("{head} takes no {}=", key.name)));
        }
    }
    if row.payload && vals[Key::Lines as usize].is_none() {
        return Err(ProtoError::new(1, format!("{head} needs lines=<n>")));
    }
    let parts = Parts {
        kind,
        vals,
        ..Parts::new(row.verb, session)
    };
    let trace = parts.get(Key::Trace);
    Ok(TracedRequest {
        request: Request::from_parts(parts, payload)?,
        trace,
    })
}

impl Reply {
    /// Serialize the frame (status line plus payload).
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        match self {
            Reply::Ok { verb, kvs, payload } => {
                write!(w, "ok {}", verb.name())?;
                write_kvs(w, kvs)?;
                if !payload.is_empty() {
                    write!(w, " lines={}", payload.len())?;
                }
                writeln!(w)?;
                for line in payload {
                    check_payload_line(line)?;
                    writeln!(w, "{line}")?;
                }
            }
            Reply::Busy { kvs } => {
                write!(w, "busy")?;
                write_kvs(w, kvs)?;
                writeln!(w)?;
            }
            Reply::Timeout { kvs } => {
                write!(w, "timeout")?;
                write_kvs(w, kvs)?;
                writeln!(w)?;
            }
            Reply::Err { code, message } => {
                check_payload_line(message)?;
                if message.is_empty() {
                    writeln!(w, "err {}", code.token())?;
                } else {
                    writeln!(w, "err {} {message}", code.token())?;
                }
            }
        }
        Ok(())
    }

    /// Read one reply frame. EOF at a frame boundary is a fatal error here
    /// (the client was promised a reply). An `event` frame is an error —
    /// connections that `WATCH` must read [`Frame`]s instead.
    pub fn read_from(r: &mut impl BufRead, max_payload: usize) -> Result<Reply, ProtoError> {
        let mut buf = FrameBuf::new();
        Self::read_buffered(r, max_payload, &mut buf)
    }

    /// Like [`Reply::read_from`], but reusing `buf`'s line storage across
    /// calls (see [`FrameBuf`]).
    pub fn read_buffered(
        r: &mut impl BufRead,
        max_payload: usize,
        buf: &mut FrameBuf,
    ) -> Result<Reply, ProtoError> {
        let Some(line) = read_frame_line_into(r, 1, &mut buf.line)? else {
            return Err(ProtoError::fatal(1, "connection closed before reply"));
        };
        Reply::from_head_line(line, r, max_payload, &mut buf.payload_line)
    }

    /// Parse a reply whose head line has already been read. `scratch` is
    /// the line buffer payload lines are read through.
    fn from_head_line(
        line: &str,
        r: &mut impl BufRead,
        max_payload: usize,
        scratch: &mut String,
    ) -> Result<Reply, ProtoError> {
        let tokens: Vec<&str> = line.split_whitespace().collect();
        let Some((&head, rest)) = tokens.split_first() else {
            return Err(ProtoError::new(1, "empty reply line"));
        };
        match head {
            "ok" => {
                let Some((&vn, rest)) = rest.split_first() else {
                    return Err(ProtoError::new(1, "ok reply without a verb"));
                };
                let verb = Verb::from_name(vn)
                    .ok_or_else(|| ProtoError::new(1, format!("unknown reply verb {vn:?}")))?;
                let (kvs, lines) = parse_reply_kvs(rest, max_payload)?;
                let payload = read_payload(r, lines, scratch)?;
                Ok(Reply::Ok { verb, kvs, payload })
            }
            "busy" => {
                let (kvs, lines) = parse_reply_kvs(rest, max_payload)?;
                if lines != 0 {
                    return Err(ProtoError::new(1, "busy reply carries no payload"));
                }
                Ok(Reply::Busy { kvs })
            }
            "timeout" => {
                let (kvs, lines) = parse_reply_kvs(rest, max_payload)?;
                if lines != 0 {
                    return Err(ProtoError::new(1, "timeout reply carries no payload"));
                }
                Ok(Reply::Timeout { kvs })
            }
            "err" => {
                let Some((&ct, _)) = rest.split_first() else {
                    return Err(ProtoError::new(1, "err reply without a code"));
                };
                let code = ErrorCode::from_token(ct)
                    .ok_or_else(|| ProtoError::new(1, format!("unknown error code {ct:?}")))?;
                // The message is the rest of the raw line (it may contain
                // spaces), not the rest of the token list.
                let after_code = line
                    .splitn(3, ' ')
                    .nth(2)
                    .map(str::to_owned)
                    .unwrap_or_default();
                Ok(Reply::Err {
                    code,
                    message: after_code,
                })
            }
            other => Err(ProtoError::new(
                1,
                format!("unknown reply status {other:?}"),
            )),
        }
    }
}

/// The payload of one `event` frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EventBody {
    /// A published bus event with its process-wide sequence number.
    Event {
        /// Bus sequence number ([`mcfs_obs::EventRecord::seq`]).
        seq: u64,
        /// The event payload.
        event: mcfs_obs::Event,
    },
    /// `count` events were lost to the watcher's bounded buffer since the
    /// previous marker (or the `WATCH` itself).
    Dropped {
        /// Number of events lost.
        count: u64,
    },
}

/// One single-line `event` frame, pushed to `WATCH`ing connections.
///
/// `session` names the session the event belongs to; a `Dropped` marker
/// carries the `WATCH` target instead (which may be [`WATCH_ALL`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EventFrame {
    /// Session name (or the `WATCH` target for drop markers).
    pub session: String,
    /// The frame payload.
    pub body: EventBody,
}

impl EventFrame {
    /// Serialize the frame (always exactly one line).
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        match &self.body {
            EventBody::Event { seq, event } => {
                write!(w, "event {} seq={seq} kind={}", self.session, event.kind())?;
                let kvs: Vec<(String, String)> = event
                    .to_kvs()
                    .into_iter()
                    .map(|(k, v)| (k.to_owned(), v))
                    .collect();
                write_kvs(w, &kvs)?;
                writeln!(w)
            }
            EventBody::Dropped { count } => {
                writeln!(w, "event {} dropped={count}", self.session)
            }
        }
    }

    /// Parse an `event` frame from its already-read head line.
    fn from_head_line(line: &str) -> Result<EventFrame, ProtoError> {
        let tokens: Vec<&str> = line.split_whitespace().collect();
        let Some((&session, rest)) = tokens[1..].split_first() else {
            return Err(ProtoError::new(1, "event frame without a session"));
        };
        if session != WATCH_ALL && !valid_session_name(session) {
            return Err(ProtoError::new(1, format!("bad session name {session:?}")));
        }
        let mut kvs: Vec<(String, String)> = Vec::with_capacity(rest.len());
        for t in rest {
            let (k, v) = split_kv(t)?;
            kvs.push((k.to_owned(), v.to_owned()));
        }
        let get = |key: &str| kvs.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str());
        if let Some(count) = get("dropped") {
            let count: u64 = count
                .parse()
                .map_err(|_| ProtoError::new(1, format!("bad dropped count {count:?}")))?;
            return Ok(EventFrame {
                session: session.to_owned(),
                body: EventBody::Dropped { count },
            });
        }
        let seq: u64 = get("seq")
            .ok_or_else(|| ProtoError::new(1, "event frame without seq="))?
            .parse()
            .map_err(|_| ProtoError::new(1, "bad event seq"))?;
        let kind = get("kind").ok_or_else(|| ProtoError::new(1, "event frame without kind="))?;
        let event = mcfs_obs::Event::from_kvs(kind, &kvs)
            .ok_or_else(|| ProtoError::new(1, format!("bad event payload for kind {kind:?}")))?;
        Ok(EventFrame {
            session: session.to_owned(),
            body: EventBody::Event { seq, event },
        })
    }
}

/// Anything the server can send after the greeting: a reply to a request,
/// or (on `WATCH`ing connections) a pushed event frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Frame {
    /// A reply frame.
    Reply(Reply),
    /// A pushed `event` frame.
    Event(EventFrame),
}

impl Frame {
    /// Read one frame: an `event` line or a full reply frame. EOF at a
    /// frame boundary is fatal, as for [`Reply::read_from`].
    pub fn read_from(r: &mut impl BufRead, max_payload: usize) -> Result<Frame, ProtoError> {
        let mut buf = FrameBuf::new();
        Self::read_buffered(r, max_payload, &mut buf)
    }

    /// Like [`Frame::read_from`], but reusing `buf`'s line storage across
    /// calls (see [`FrameBuf`]).
    pub fn read_buffered(
        r: &mut impl BufRead,
        max_payload: usize,
        buf: &mut FrameBuf,
    ) -> Result<Frame, ProtoError> {
        let Some(line) = read_frame_line_into(r, 1, &mut buf.line)? else {
            return Err(ProtoError::fatal(1, "connection closed before reply"));
        };
        if line.split_whitespace().next() == Some("event") {
            return Ok(Frame::Event(EventFrame::from_head_line(line)?));
        }
        Ok(Frame::Reply(Reply::from_head_line(
            line,
            r,
            max_payload,
            &mut buf.payload_line,
        )?))
    }
}

/// Render an [`Edit`] as one wire line.
pub fn render_edit(e: &Edit) -> String {
    match e {
        Edit::AddCustomer { node } => format!("add-customer {node}"),
        Edit::RemoveCustomer { index } => format!("remove-customer {index}"),
        Edit::AddFacility { node, capacity } => format!("add-facility {node} {capacity}"),
        Edit::RemoveFacility { index } => format!("remove-facility {index}"),
        Edit::SetCapacity { index, capacity } => format!("set-capacity {index} {capacity}"),
        Edit::SetBudget { k } => format!("set-budget {k}"),
    }
}

/// Parse one wire edit line.
pub fn parse_edit(line: &str) -> Result<Edit, String> {
    let tokens: Vec<&str> = line.split_whitespace().collect();
    fn num<T: std::str::FromStr>(s: &str) -> Result<T, String> {
        s.parse().map_err(|_| format!("cannot parse {s:?}"))
    }
    match tokens.as_slice() {
        ["add-customer", node] => Ok(Edit::AddCustomer {
            node: num::<NodeId>(node)?,
        }),
        ["remove-customer", index] => Ok(Edit::RemoveCustomer { index: num(index)? }),
        ["add-facility", node, capacity] => Ok(Edit::AddFacility {
            node: num::<NodeId>(node)?,
            capacity: num(capacity)?,
        }),
        ["remove-facility", index] => Ok(Edit::RemoveFacility { index: num(index)? }),
        ["set-capacity", index, capacity] => Ok(Edit::SetCapacity {
            index: num(index)?,
            capacity: num(capacity)?,
        }),
        ["set-budget", k] => Ok(Edit::SetBudget { k: num(k)? }),
        _ => Err(format!("unknown edit {line:?}")),
    }
}

fn write_kvs(w: &mut impl Write, kvs: &[(String, String)]) -> io::Result<()> {
    for (k, v) in kvs {
        if k.is_empty()
            || k == "lines"
            || k.chars().any(char::is_whitespace)
            || v.chars().any(char::is_whitespace)
            || k.contains('=')
        {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("kv {k:?}={v:?} is not wire-safe"),
            ));
        }
        write!(w, " {k}={v}")?;
    }
    Ok(())
}

/// Parse trailing reply tokens as free-form kvs plus an optional `lines=`.
fn parse_reply_kvs(
    tokens: &[&str],
    max_payload: usize,
) -> Result<(Vec<(String, String)>, usize), ProtoError> {
    let mut kvs = Vec::new();
    let mut lines = 0usize;
    for t in tokens {
        let (k, v) = split_kv(t)?;
        if k == "lines" {
            lines = parse_payload_count(v, max_payload)?;
        } else {
            kvs.push((k.to_owned(), v.to_owned()));
        }
    }
    Ok((kvs, lines))
}

fn split_kv(token: &str) -> Result<(&str, &str), ProtoError> {
    let (k, v) = token
        .split_once('=')
        .ok_or_else(|| ProtoError::new(1, format!("expected key=value, got {token:?}")))?;
    if k.is_empty() {
        return Err(ProtoError::new(1, format!("empty key in {token:?}")));
    }
    Ok((k, v))
}

fn parse_payload_count(v: &str, max_payload: usize) -> Result<usize, ProtoError> {
    let n: usize = v
        .parse()
        .map_err(|_| ProtoError::new(1, format!("bad lines count {v:?}")))?;
    if n > max_payload {
        return Err(ProtoError::new(
            1,
            format!("payload of {n} lines exceeds the limit of {max_payload}"),
        ));
    }
    Ok(n)
}

/// Read one line of a frame into `buf` (cleared first); strips the
/// trailing newline. `Ok(None)` = EOF. The returned slice borrows `buf`,
/// which retains its capacity for the next call.
fn read_frame_line_into<'a>(
    r: &mut impl BufRead,
    line_no: usize,
    buf: &'a mut String,
) -> Result<Option<&'a str>, ProtoError> {
    buf.clear();
    match r.read_line(buf) {
        Ok(0) => Ok(None),
        Ok(_) => {
            while buf.ends_with('\n') || buf.ends_with('\r') {
                buf.pop();
            }
            Ok(Some(buf.as_str()))
        }
        // Invalid UTF-8 and transport failures both land here; the stream
        // position is unknown afterwards, so the connection must close.
        Err(e) => Err(ProtoError::fatal(line_no, format!("read failed: {e}"))),
    }
}

fn read_payload(
    r: &mut impl BufRead,
    n: usize,
    scratch: &mut String,
) -> Result<Vec<String>, ProtoError> {
    let mut payload = Vec::with_capacity(n.min(4096));
    for i in 0..n {
        match read_frame_line_into(r, i + 2, scratch)? {
            Some(line) => payload.push(line.to_owned()),
            None => {
                return Err(ProtoError::fatal(
                    i + 2,
                    format!("payload truncated: promised {n} lines, got {i}"),
                ))
            }
        }
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn event_frames_round_trip_as_frames() {
        let frames = [
            EventFrame {
                session: "bikes".into(),
                body: EventBody::Event {
                    seq: 17,
                    event: mcfs_obs::Event::SolverIteration {
                        solver: "wma",
                        iteration: 2,
                        covered: 41,
                        total: 60,
                        matching_us: 900,
                        cover_us: 42,
                        demand: 66,
                        edges: 301,
                    },
                },
            },
            EventFrame {
                session: "bikes".into(),
                body: EventBody::Event {
                    seq: 18,
                    event: mcfs_obs::Event::QueueDepth { depth: 3 },
                },
            },
            EventFrame {
                session: WATCH_ALL.into(),
                body: EventBody::Dropped { count: 12 },
            },
        ];
        for frame in frames {
            let mut buf = Vec::new();
            frame.write_to(&mut buf).unwrap();
            // Exactly one line: events interleave between reply frames.
            assert_eq!(buf.iter().filter(|&&b| b == b'\n').count(), 1);
            let mut r = BufReader::new(buf.as_slice());
            let back = Frame::read_from(&mut r, DEFAULT_MAX_PAYLOAD_LINES).unwrap();
            assert_eq!(back, Frame::Event(frame));
        }
    }

    #[test]
    fn frame_reader_also_reads_replies() {
        let reply = Reply::Ok {
            verb: Verb::Watch,
            kvs: vec![("session".into(), "s".into())],
            payload: vec![],
        };
        let mut buf = Vec::new();
        reply.write_to(&mut buf).unwrap();
        let back = Frame::read_from(
            &mut BufReader::new(buf.as_slice()),
            DEFAULT_MAX_PAYLOAD_LINES,
        )
        .unwrap();
        assert_eq!(back, Frame::Reply(reply));
    }

    #[test]
    fn malformed_event_frames_are_structured_errors() {
        for (text, needle) in [
            ("event\n", "without a session"),
            ("event s!\n", "bad session name"),
            ("event s\n", "without seq"),
            ("event s seq=abc kind=queue depth=1\n", "bad event seq"),
            ("event s seq=1\n", "without kind"),
            ("event s seq=1 kind=queue\n", "bad event payload"),
            ("event s seq=1 kind=wat a=1\n", "bad event payload"),
            ("event s dropped=x\n", "bad dropped count"),
        ] {
            let err = Frame::read_from(&mut BufReader::new(text.as_bytes()), 1 << 20).unwrap_err();
            assert!(err.message.contains(needle), "{text:?} => {err:?}");
        }
    }

    #[test]
    fn traced_requests_round_trip_and_plain_reads_ignore_trace() {
        for trace in [None, Some(7u64), Some(u64::MAX)] {
            let req = TracedRequest {
                request: Request::Solve {
                    session: "s".into(),
                    deadline_ms: Some(9),
                },
                trace,
            };
            let mut buf = Vec::new();
            req.write_to(&mut buf).unwrap();
            let mut r = BufReader::new(buf.as_slice());
            let back = TracedRequest::read_from(&mut r, DEFAULT_MAX_PAYLOAD_LINES)
                .unwrap()
                .unwrap();
            assert_eq!(back, req);
            // The untraced reader accepts the same bytes, dropping the id.
            let mut r = BufReader::new(buf.as_slice());
            let plain = Request::read_from(&mut r, DEFAULT_MAX_PAYLOAD_LINES)
                .unwrap()
                .unwrap();
            assert_eq!(plain, req.request);
        }
        // Payload verbs carry the attribute on the verb line too.
        let req = TracedRequest {
            request: Request::Edit {
                session: "s".into(),
                edits: vec![Edit::AddCustomer { node: 1 }],
                deadline_ms: None,
            },
            trace: Some(42),
        };
        let mut buf = Vec::new();
        req.write_to(&mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.starts_with("EDIT s lines=1 trace=42\n"), "{text:?}");
        let back = TracedRequest::read_from(&mut BufReader::new(buf.as_slice()), 1 << 20)
            .unwrap()
            .unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn session_name_rule() {
        assert!(valid_session_name("bikes_2026-08.a"));
        assert!(!valid_session_name(""));
        assert!(!valid_session_name("has space"));
        assert!(!valid_session_name("sla/sh"));
        assert!(!valid_session_name(&"x".repeat(MAX_SESSION_NAME + 1)));
    }

    #[test]
    fn unsafe_kvs_and_payload_lines_refuse_to_render() {
        let r = Reply::Ok {
            verb: Verb::Solve,
            kvs: vec![("bad key".into(), "v".into())],
            payload: vec![],
        };
        assert!(r.write_to(&mut Vec::new()).is_err());
        let r = Reply::Ok {
            verb: Verb::Stats,
            kvs: vec![],
            payload: vec!["line\nbreak".into()],
        };
        assert!(r.write_to(&mut Vec::new()).is_err());
    }
}
