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
//! ```text
//! request  := "OPEN" session ("instance" | "checkpoint") "lines=" n payload
//!           | "EDIT" session "lines=" n ["deadline_ms=" d] payload
//!           | "SOLVE" session ["deadline_ms=" d]
//!           | "ASSIGNMENT" session
//!           | "STATS" session
//!           | "SNAPSHOT" session ["deadline_ms=" d]
//!           | "CLOSE" session
//!           | "METRICS" ["format=" ("kv" | "prometheus")]
//!           | "TRACE" session ["n=" k] ["back=" j] ["deadline_ms=" d]
//!           | "WATCH" (session | "*") ["buffer=" b]
//!           | "UNWATCH" (session | "*")
//!           | "DUMP" session ["deadline_ms=" d]
//!           | "PROFILE" (session | "*") ["secs=" n]
//!                       ["format=" ("folded" | "speedscope")]
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
//! spans of one of the session's recently traced requests (`back=<j>`
//! steps back through the retained ring; `back=0`, the default, is the
//! most recent), one span per payload line in the `mcfs-obs` wire shape.
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
//! `DUMP <session>` drains the session's flight-recorder ring as JSONL
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
//! framing (truncated payloads, I/O failures) are marked
//! [`ProtoError::fatal`] so the connection loop knows to hang up instead of
//! misparsing the remainder of the stream.

use std::io::{self, BufRead, Write};

use mcfs::Edit;
use mcfs_graph::NodeId;

/// Greeting line the server sends on connect; also the protocol version.
pub const WIRE_VERSION: &str = "mcfs-wire v1.6";

/// The `WATCH`/`UNWATCH` target meaning "every session" (`WATCH *`).
pub const WATCH_ALL: &str = "*";

/// Longest accepted session name, in bytes.
pub const MAX_SESSION_NAME: usize = 64;

/// Default bound on `lines=<n>` payload sizes. A frame promising more lines
/// than this is rejected before anything is buffered, so a one-line header
/// cannot commit the server to an unbounded allocation.
pub const DEFAULT_MAX_PAYLOAD_LINES: usize = 1 << 20;

/// The thirteen request verbs.
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
    pub const ALL: [Verb; 13] = [
        Verb::Open,
        Verb::Edit,
        Verb::Solve,
        Verb::Assignment,
        Verb::Stats,
        Verb::Snapshot,
        Verb::Close,
        Verb::Metrics,
        Verb::Trace,
        Verb::Watch,
        Verb::Unwatch,
        Verb::Dump,
        Verb::Profile,
    ];

    /// The lowercase wire name (used in replies and metrics keys).
    pub fn name(self) -> &'static str {
        match self {
            Verb::Open => "open",
            Verb::Edit => "edit",
            Verb::Solve => "solve",
            Verb::Assignment => "assignment",
            Verb::Stats => "stats",
            Verb::Snapshot => "snapshot",
            Verb::Close => "close",
            Verb::Metrics => "metrics",
            Verb::Trace => "trace",
            Verb::Watch => "watch",
            Verb::Unwatch => "unwatch",
            Verb::Dump => "dump",
            Verb::Profile => "profile",
        }
    }

    /// The uppercase request token.
    pub fn token(self) -> &'static str {
        match self {
            Verb::Open => "OPEN",
            Verb::Edit => "EDIT",
            Verb::Solve => "SOLVE",
            Verb::Assignment => "ASSIGNMENT",
            Verb::Stats => "STATS",
            Verb::Snapshot => "SNAPSHOT",
            Verb::Close => "CLOSE",
            Verb::Metrics => "METRICS",
            Verb::Trace => "TRACE",
            Verb::Watch => "WATCH",
            Verb::Unwatch => "UNWATCH",
            Verb::Dump => "DUMP",
            Verb::Profile => "PROFILE",
        }
    }

    fn from_name(s: &str) -> Option<Verb> {
        Verb::ALL.into_iter().find(|v| v.name() == s)
    }

    fn from_token(s: &str) -> Option<Verb> {
        Verb::ALL.into_iter().find(|v| v.token() == s)
    }
}

/// What an `OPEN` payload contains.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpenKind {
    /// An `mcfs-instance v1` block; the session starts unsolved.
    Instance,
    /// An `mcfs-checkpoint v1` block; the session restores warm via
    /// `ReSolver::from_solved`.
    Checkpoint,
}

impl OpenKind {
    fn token(self) -> &'static str {
        match self {
            OpenKind::Instance => "instance",
            OpenKind::Checkpoint => "checkpoint",
        }
    }
}

/// A parsed client request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// `OPEN <session> <kind> lines=<n>` + payload.
    Open {
        /// Target session name.
        session: String,
        /// Payload interpretation.
        kind: OpenKind,
        /// The raw `mcfs-io` block, one entry per line.
        payload: Vec<String>,
    },
    /// `EDIT <session> lines=<n> [deadline_ms=<d>]` + edit lines.
    Edit {
        /// Target session name.
        session: String,
        /// The typed script, applied atomically.
        edits: Vec<Edit>,
        /// Queued-request deadline, milliseconds from admission.
        deadline_ms: Option<u64>,
    },
    /// `SOLVE <session> [deadline_ms=<d>]`.
    Solve {
        /// Target session name.
        session: String,
        /// Queued-request deadline, milliseconds from admission.
        deadline_ms: Option<u64>,
    },
    /// `ASSIGNMENT <session>`.
    Assignment {
        /// Target session name.
        session: String,
    },
    /// `STATS <session>`.
    Stats {
        /// Target session name.
        session: String,
    },
    /// `SNAPSHOT <session> [deadline_ms=<d>]`.
    Snapshot {
        /// Target session name.
        session: String,
        /// Queued-request deadline, milliseconds from admission.
        deadline_ms: Option<u64>,
    },
    /// `CLOSE <session>`.
    Close {
        /// Target session name.
        session: String,
    },
    /// `METRICS [format=kv|prometheus]`.
    Metrics {
        /// Requested exposition format.
        format: MetricsFormat,
    },
    /// `TRACE <session> [n=<k>] [back=<j>] [deadline_ms=<d>]`.
    Trace {
        /// Target session name.
        session: String,
        /// Cap on returned spans (most recent first wins); `None` = all
        /// retained spans of the selected traced request.
        n: Option<usize>,
        /// Steps back through the session's ring of traced requests;
        /// `None`/`Some(0)` = the most recent.
        back: Option<usize>,
        /// Queued-request deadline, milliseconds from admission.
        deadline_ms: Option<u64>,
    },
    /// `WATCH <session|*> [buffer=<b>]`.
    Watch {
        /// Target session name, or [`WATCH_ALL`] for every session.
        session: String,
        /// Bound on the watcher's undelivered-event buffer; `None` = the
        /// server default ([`mcfs_obs::DEFAULT_SUBSCRIBER_CAPACITY`]).
        buffer: Option<usize>,
    },
    /// `UNWATCH <session|*>`.
    Unwatch {
        /// The `WATCH` target to cancel.
        session: String,
    },
    /// `DUMP <session> [deadline_ms=<d>]` — drain the session's
    /// flight-recorder ring as JSONL payload lines.
    Dump {
        /// Target session name.
        session: String,
        /// Queued-request deadline, milliseconds from admission.
        deadline_ms: Option<u64>,
    },
    /// `PROFILE <session|*> [secs=<n>] [format=folded|speedscope]` — fetch
    /// the continuous profiler's folded span-path table. The profiler is
    /// process-scoped, so the target only selects addressing: `*` asks the
    /// process outright, while a session name additionally checks that the
    /// session exists (typo safety for tooling). Answered inline, never
    /// queued — a profile must be obtainable while every worker is
    /// saturated.
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

/// Longest accepted `PROFILE secs=` window. The reply is synchronous on
/// the connection, so the window is bounded to keep one client from
/// parking a connection thread indefinitely.
pub const MAX_PROFILE_SECS: u64 = 60;

/// `PROFILE` output formats.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ProfileFormat {
    /// Collapsed-stack lines `lane;name;name <samples>` (the default);
    /// pipe into `flamegraph.pl` or speedscope's folded importer.
    #[default]
    Folded,
    /// One speedscope JSON document on a single payload line.
    Speedscope,
}

impl ProfileFormat {
    /// The wire token used in `format=<token>`.
    pub fn token(self) -> &'static str {
        match self {
            ProfileFormat::Folded => "folded",
            ProfileFormat::Speedscope => "speedscope",
        }
    }

    fn from_token(s: &str) -> Option<ProfileFormat> {
        match s {
            "folded" => Some(ProfileFormat::Folded),
            "speedscope" => Some(ProfileFormat::Speedscope),
            _ => None,
        }
    }
}

/// `METRICS` exposition formats.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MetricsFormat {
    /// Legacy `key value` lines (the default).
    #[default]
    Kv,
    /// Prometheus text exposition (version 0.0.4), one metric per line.
    Prometheus,
}

impl MetricsFormat {
    /// The wire token used in `format=<token>`.
    pub fn token(self) -> &'static str {
        match self {
            MetricsFormat::Kv => "kv",
            MetricsFormat::Prometheus => "prometheus",
        }
    }

    fn from_token(s: &str) -> Option<MetricsFormat> {
        match s {
            "kv" => Some(MetricsFormat::Kv),
            "prometheus" => Some(MetricsFormat::Prometheus),
            _ => None,
        }
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
    /// An untraced frame.
    pub fn untraced(request: Request) -> Self {
        Self {
            request,
            trace: None,
        }
    }

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
        match self {
            Request::Open { .. } => Verb::Open,
            Request::Edit { .. } => Verb::Edit,
            Request::Solve { .. } => Verb::Solve,
            Request::Assignment { .. } => Verb::Assignment,
            Request::Stats { .. } => Verb::Stats,
            Request::Snapshot { .. } => Verb::Snapshot,
            Request::Close { .. } => Verb::Close,
            Request::Metrics { .. } => Verb::Metrics,
            Request::Trace { .. } => Verb::Trace,
            Request::Watch { .. } => Verb::Watch,
            Request::Unwatch { .. } => Verb::Unwatch,
            Request::Dump { .. } => Verb::Dump,
            Request::Profile { .. } => Verb::Profile,
        }
    }

    /// The session the request addresses (`None` for `METRICS`; the
    /// [`WATCH_ALL`] token for watch-everything subscriptions).
    pub fn session(&self) -> Option<&str> {
        match self {
            Request::Open { session, .. }
            | Request::Edit { session, .. }
            | Request::Solve { session, .. }
            | Request::Assignment { session }
            | Request::Stats { session }
            | Request::Snapshot { session, .. }
            | Request::Close { session }
            | Request::Trace { session, .. }
            | Request::Watch { session, .. }
            | Request::Unwatch { session }
            | Request::Dump { session, .. }
            | Request::Profile { session, .. } => Some(session),
            Request::Metrics { .. } => None,
        }
    }

    /// The request's queued-work deadline, if any.
    pub fn deadline_ms(&self) -> Option<u64> {
        match self {
            Request::Edit { deadline_ms, .. }
            | Request::Solve { deadline_ms, .. }
            | Request::Snapshot { deadline_ms, .. }
            | Request::Trace { deadline_ms, .. }
            | Request::Dump { deadline_ms, .. } => *deadline_ms,
            _ => None,
        }
    }

    /// Serialize the frame (verb line plus payload).
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        self.write_traced(w, None)
    }

    /// Serialize the frame, appending ` trace=<id>` to the verb line when
    /// set (the [`TracedRequest`] shape).
    fn write_traced(&self, w: &mut impl Write, trace: Option<u64>) -> io::Result<()> {
        let end_line = |w: &mut dyn Write| -> io::Result<()> {
            if let Some(t) = trace {
                write!(w, " trace={t}")?;
            }
            writeln!(w)
        };
        match self {
            Request::Open {
                session,
                kind,
                payload,
            } => {
                write!(w, "OPEN {session} {} lines={}", kind.token(), payload.len())?;
                end_line(w)?;
                for line in payload {
                    check_payload_line(line)?;
                    writeln!(w, "{line}")?;
                }
            }
            Request::Edit {
                session,
                edits,
                deadline_ms,
            } => {
                write!(w, "EDIT {session} lines={}", edits.len())?;
                if let Some(d) = deadline_ms {
                    write!(w, " deadline_ms={d}")?;
                }
                end_line(w)?;
                for e in edits {
                    writeln!(w, "{}", render_edit(e))?;
                }
            }
            Request::Solve {
                session,
                deadline_ms,
            } => {
                write!(w, "SOLVE {session}")?;
                if let Some(d) = deadline_ms {
                    write!(w, " deadline_ms={d}")?;
                }
                end_line(w)?;
            }
            Request::Assignment { session } => {
                write!(w, "ASSIGNMENT {session}")?;
                end_line(w)?;
            }
            Request::Stats { session } => {
                write!(w, "STATS {session}")?;
                end_line(w)?;
            }
            Request::Snapshot {
                session,
                deadline_ms,
            } => {
                write!(w, "SNAPSHOT {session}")?;
                if let Some(d) = deadline_ms {
                    write!(w, " deadline_ms={d}")?;
                }
                end_line(w)?;
            }
            Request::Close { session } => {
                write!(w, "CLOSE {session}")?;
                end_line(w)?;
            }
            Request::Metrics { format } => {
                write!(w, "METRICS")?;
                if *format != MetricsFormat::Kv {
                    write!(w, " format={}", format.token())?;
                }
                end_line(w)?;
            }
            Request::Trace {
                session,
                n,
                back,
                deadline_ms,
            } => {
                write!(w, "TRACE {session}")?;
                if let Some(n) = n {
                    write!(w, " n={n}")?;
                }
                if let Some(b) = back {
                    write!(w, " back={b}")?;
                }
                if let Some(d) = deadline_ms {
                    write!(w, " deadline_ms={d}")?;
                }
                end_line(w)?;
            }
            Request::Watch { session, buffer } => {
                write!(w, "WATCH {session}")?;
                if let Some(b) = buffer {
                    write!(w, " buffer={b}")?;
                }
                end_line(w)?;
            }
            Request::Unwatch { session } => {
                write!(w, "UNWATCH {session}")?;
                end_line(w)?;
            }
            Request::Dump {
                session,
                deadline_ms,
            } => {
                write!(w, "DUMP {session}")?;
                if let Some(d) = deadline_ms {
                    write!(w, " deadline_ms={d}")?;
                }
                end_line(w)?;
            }
            Request::Profile {
                session,
                secs,
                format,
            } => {
                write!(w, "PROFILE {session}")?;
                if *secs != 0 {
                    write!(w, " secs={secs}")?;
                }
                if *format != ProfileFormat::Folded {
                    write!(w, " format={}", format.token())?;
                }
                end_line(w)?;
            }
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

/// Parse a verb line whose announced `payload` has already been read.
fn parse_request(
    line: &str,
    payload: Vec<String>,
    max_payload: usize,
) -> Result<TracedRequest, ProtoError> {
    let tokens: Vec<&str> = line.split_whitespace().collect();
    let Some((&head, rest)) = tokens.split_first() else {
        return Err(ProtoError::new(1, "empty request line"));
    };
    let verb = Verb::from_token(head)
        .ok_or_else(|| ProtoError::new(1, format!("unknown verb {head:?}")))?;

    // METRICS addresses the server, not a session: no name token.
    if verb == Verb::Metrics {
        let kvs = parse_frame_kvs(rest, max_payload)?;
        kvs.check(head, &[FrameKey::Format, FrameKey::Trace])?;
        let format = match kvs.format.as_deref() {
            None => MetricsFormat::default(),
            Some(t) => MetricsFormat::from_token(t)
                .ok_or_else(|| ProtoError::new(1, format!("unknown metrics format {t:?}")))?,
        };
        return Ok(TracedRequest {
            request: Request::Metrics { format },
            trace: kvs.trace,
        });
    }

    let Some((&session, rest)) = rest.split_first() else {
        return Err(ProtoError::new(1, format!("{head} needs a session name")));
    };
    // WATCH/UNWATCH accept the `*` watch-everything target; PROFILE
    // accepts it as the whole-process target.
    let watch_all =
        matches!(verb, Verb::Watch | Verb::Unwatch | Verb::Profile) && session == WATCH_ALL;
    if !watch_all && !valid_session_name(session) {
        return Err(ProtoError::new(1, format!("bad session name {session:?}")));
    }
    let session = session.to_owned();

    // OPEN has a positional payload-kind token before its kvs.
    let (kind, rest) = if verb == Verb::Open {
        let Some((&k, rest)) = rest.split_first() else {
            return Err(ProtoError::new(1, "OPEN needs `instance` or `checkpoint`"));
        };
        let kind = match k {
            "instance" => OpenKind::Instance,
            "checkpoint" => OpenKind::Checkpoint,
            other => {
                return Err(ProtoError::new(
                    1,
                    format!("bad OPEN payload kind {other:?}"),
                ))
            }
        };
        (Some(kind), rest)
    } else {
        (None, rest)
    };

    let kvs = parse_frame_kvs(rest, max_payload)?;
    let allowed: &[FrameKey] = match verb {
        Verb::Open => &[FrameKey::Lines, FrameKey::Trace],
        Verb::Edit => &[FrameKey::Lines, FrameKey::Deadline, FrameKey::Trace],
        Verb::Solve | Verb::Snapshot | Verb::Dump => &[FrameKey::Deadline, FrameKey::Trace],
        Verb::Assignment | Verb::Stats | Verb::Close | Verb::Unwatch => &[FrameKey::Trace],
        Verb::Trace => &[
            FrameKey::Count,
            FrameKey::Back,
            FrameKey::Deadline,
            FrameKey::Trace,
        ],
        Verb::Watch => &[FrameKey::Buffer, FrameKey::Trace],
        Verb::Profile => &[FrameKey::Secs, FrameKey::Format, FrameKey::Trace],
        Verb::Metrics => unreachable!("handled above"),
    };
    kvs.check(head, allowed)?;
    let wants_payload = matches!(verb, Verb::Open | Verb::Edit);
    if wants_payload && kvs.lines.is_none() {
        return Err(ProtoError::new(1, format!("{head} needs lines=<n>")));
    }

    let deadline_ms = kvs.deadline_ms;
    let request = match verb {
        Verb::Open => Request::Open {
            session,
            kind: kind.expect("set above for OPEN"),
            payload,
        },
        Verb::Edit => {
            let mut edits = Vec::with_capacity(payload.len());
            for (i, line) in payload.iter().enumerate() {
                edits.push(parse_edit(line).map_err(|m| ProtoError::new(i + 2, m))?);
            }
            Request::Edit {
                session,
                edits,
                deadline_ms,
            }
        }
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
        Verb::Trace => Request::Trace {
            session,
            n: kvs.count,
            back: kvs.back,
            deadline_ms,
        },
        Verb::Watch => Request::Watch {
            session,
            buffer: kvs.buffer,
        },
        Verb::Unwatch => Request::Unwatch { session },
        Verb::Dump => Request::Dump {
            session,
            deadline_ms,
        },
        Verb::Profile => Request::Profile {
            session,
            secs: kvs.secs.unwrap_or(0),
            format: match kvs.format.as_deref() {
                None => ProfileFormat::default(),
                Some(t) => ProfileFormat::from_token(t)
                    .ok_or_else(|| ProtoError::new(1, format!("unknown profile format {t:?}")))?,
            },
        },
        Verb::Metrics => unreachable!("handled above"),
    };
    Ok(TracedRequest {
        request,
        trace: kvs.trace,
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

/// The attributes a request verb line may carry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FrameKey {
    Lines,
    Deadline,
    Trace,
    Format,
    Count,
    Back,
    Buffer,
    Secs,
}

impl FrameKey {
    fn name(self) -> &'static str {
        match self {
            FrameKey::Lines => "lines",
            FrameKey::Deadline => "deadline_ms",
            FrameKey::Trace => "trace",
            FrameKey::Format => "format",
            FrameKey::Count => "n",
            FrameKey::Back => "back",
            FrameKey::Buffer => "buffer",
            FrameKey::Secs => "secs",
        }
    }
}

/// Parsed request-line attributes; which are *allowed* is per-verb
/// ([`FrameKvs::check`]).
#[derive(Debug, Default)]
struct FrameKvs {
    lines: Option<usize>,
    deadline_ms: Option<u64>,
    trace: Option<u64>,
    /// The raw `format=` token: `METRICS` and `PROFILE` accept disjoint
    /// format vocabularies, so the value is validated at the verb site
    /// (where the error can name the right vocabulary), not here.
    format: Option<String>,
    count: Option<usize>,
    back: Option<usize>,
    buffer: Option<usize>,
    secs: Option<u64>,
}

impl FrameKvs {
    fn check(&self, head: &str, allowed: &[FrameKey]) -> Result<(), ProtoError> {
        let present = [
            (FrameKey::Lines, self.lines.is_some()),
            (FrameKey::Deadline, self.deadline_ms.is_some()),
            (FrameKey::Trace, self.trace.is_some()),
            (FrameKey::Format, self.format.is_some()),
            (FrameKey::Count, self.count.is_some()),
            (FrameKey::Back, self.back.is_some()),
            (FrameKey::Buffer, self.buffer.is_some()),
            (FrameKey::Secs, self.secs.is_some()),
        ];
        for (key, set) in present {
            if set && !allowed.contains(&key) {
                return Err(ProtoError::new(
                    1,
                    format!("{head} takes no {}=", key.name()),
                ));
            }
        }
        Ok(())
    }
}

/// Parse trailing request tokens as the attribute kv set.
fn parse_frame_kvs(tokens: &[&str], max_payload: usize) -> Result<FrameKvs, ProtoError> {
    let mut kvs = FrameKvs::default();
    for t in tokens {
        let (k, v) = split_kv(t)?;
        match k {
            "lines" => kvs.lines = Some(parse_payload_count(v, max_payload)?),
            "deadline_ms" => {
                kvs.deadline_ms = Some(
                    v.parse::<u64>()
                        .map_err(|_| ProtoError::new(1, format!("bad deadline_ms {v:?}")))?,
                )
            }
            "trace" => {
                let id = v
                    .parse::<u64>()
                    .map_err(|_| ProtoError::new(1, format!("bad trace id {v:?}")))?;
                if id == 0 {
                    return Err(ProtoError::new(1, "trace id must be nonzero"));
                }
                kvs.trace = Some(id);
            }
            "format" => kvs.format = Some(v.to_owned()),
            "n" => {
                kvs.count = Some(
                    v.parse::<usize>()
                        .map_err(|_| ProtoError::new(1, format!("bad span count {v:?}")))?,
                )
            }
            "back" => {
                kvs.back = Some(
                    v.parse::<usize>()
                        .map_err(|_| ProtoError::new(1, format!("bad back offset {v:?}")))?,
                )
            }
            "buffer" => {
                let b = v
                    .parse::<usize>()
                    .map_err(|_| ProtoError::new(1, format!("bad buffer size {v:?}")))?;
                if b == 0 {
                    return Err(ProtoError::new(1, "buffer must be at least 1"));
                }
                kvs.buffer = Some(b);
            }
            "secs" => {
                let s = v
                    .parse::<u64>()
                    .map_err(|_| ProtoError::new(1, format!("bad secs {v:?}")))?;
                if s > MAX_PROFILE_SECS {
                    return Err(ProtoError::new(
                        1,
                        format!("secs too large (max {MAX_PROFILE_SECS})"),
                    ));
                }
                kvs.secs = Some(s);
            }
            other => return Err(ProtoError::new(1, format!("unknown attribute {other:?}"))),
        }
    }
    Ok(kvs)
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

    fn rt_request(req: Request) {
        let mut buf = Vec::new();
        req.write_to(&mut buf).unwrap();
        let mut r = BufReader::new(buf.as_slice());
        let back = Request::read_from(&mut r, DEFAULT_MAX_PAYLOAD_LINES)
            .unwrap()
            .unwrap();
        assert_eq!(back, req);
        // Exactly one frame: the stream must now be at EOF.
        assert_eq!(
            Request::read_from(&mut r, DEFAULT_MAX_PAYLOAD_LINES).unwrap(),
            None
        );
    }

    #[test]
    fn request_round_trips() {
        rt_request(Request::Open {
            session: "bikes-1".into(),
            kind: OpenKind::Instance,
            payload: vec!["mcfs-instance v1".into(), "nodes 2".into(), "end".into()],
        });
        rt_request(Request::Edit {
            session: "s".into(),
            edits: vec![
                Edit::AddCustomer { node: 7 },
                Edit::RemoveCustomer { index: 0 },
                Edit::AddFacility {
                    node: 3,
                    capacity: 9,
                },
                Edit::RemoveFacility { index: 2 },
                Edit::SetCapacity {
                    index: 1,
                    capacity: 4,
                },
                Edit::SetBudget { k: 5 },
            ],
            deadline_ms: Some(250),
        });
        rt_request(Request::Solve {
            session: "a.b-c_d".into(),
            deadline_ms: None,
        });
        rt_request(Request::Solve {
            session: "s".into(),
            deadline_ms: Some(900),
        });
        rt_request(Request::Assignment {
            session: "s".into(),
        });
        rt_request(Request::Stats {
            session: "s".into(),
        });
        rt_request(Request::Snapshot {
            session: "s".into(),
            deadline_ms: Some(0),
        });
        rt_request(Request::Close {
            session: "s".into(),
        });
        rt_request(Request::Metrics {
            format: MetricsFormat::Kv,
        });
        rt_request(Request::Metrics {
            format: MetricsFormat::Prometheus,
        });
        rt_request(Request::Trace {
            session: "s".into(),
            n: Some(32),
            back: Some(3),
            deadline_ms: Some(100),
        });
        rt_request(Request::Trace {
            session: "s".into(),
            n: None,
            back: None,
            deadline_ms: None,
        });
        rt_request(Request::Dump {
            session: "s".into(),
            deadline_ms: None,
        });
        rt_request(Request::Dump {
            session: "s".into(),
            deadline_ms: Some(40),
        });
        rt_request(Request::Watch {
            session: "s".into(),
            buffer: Some(16),
        });
        rt_request(Request::Watch {
            session: WATCH_ALL.into(),
            buffer: None,
        });
        rt_request(Request::Unwatch {
            session: "s".into(),
        });
        rt_request(Request::Unwatch {
            session: WATCH_ALL.into(),
        });
        rt_request(Request::Profile {
            session: "s".into(),
            secs: 0,
            format: ProfileFormat::Folded,
        });
        rt_request(Request::Profile {
            session: WATCH_ALL.into(),
            secs: 5,
            format: ProfileFormat::Speedscope,
        });
        rt_request(Request::Profile {
            session: WATCH_ALL.into(),
            secs: MAX_PROFILE_SECS,
            format: ProfileFormat::Folded,
        });
    }

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

    fn rt_reply(reply: Reply) {
        let mut buf = Vec::new();
        reply.write_to(&mut buf).unwrap();
        let mut r = BufReader::new(buf.as_slice());
        let back = Reply::read_from(&mut r, DEFAULT_MAX_PAYLOAD_LINES).unwrap();
        assert_eq!(back, reply);
    }

    #[test]
    fn reply_round_trips() {
        rt_reply(Reply::Ok {
            verb: Verb::Solve,
            kvs: vec![
                ("objective".into(), "1234".into()),
                ("warm".into(), "1".into()),
            ],
            payload: vec![],
        });
        rt_reply(Reply::Ok {
            verb: Verb::Stats,
            kvs: vec![],
            payload: vec!["warm 1".into(), "objective 12".into()],
        });
        rt_reply(Reply::Busy {
            kvs: vec![
                ("session".into(), "s".into()),
                ("depth".into(), "4".into()),
                ("limit".into(), "4".into()),
            ],
        });
        rt_reply(Reply::Timeout {
            kvs: vec![("waited_ms".into(), "31".into())],
        });
        rt_reply(Reply::Err {
            code: ErrorCode::NoSession,
            message: "no session \"x\"".into(),
        });
        rt_reply(Reply::Err {
            code: ErrorCode::ShuttingDown,
            message: String::new(),
        });
    }

    #[test]
    fn malformed_frames_are_structured_errors() {
        for (text, needle, fatal) in [
            ("WAT s\n", "unknown verb", false),
            ("OPEN\n", "needs a session", false),
            ("OPEN s wat lines=0\n", "payload kind", false),
            ("OPEN bad name instance lines=0\n", "payload kind", false),
            ("OPEN s/s instance lines=0\n", "bad session name", false),
            ("SOLVE s lines=3\nx\ny\nz\n", "takes no lines=", false),
            ("EDIT s\n", "needs lines=", false),
            ("EDIT s lines=2\nadd-customer 1\n", "truncated", true),
            ("EDIT s lines=1\nwarp-customer 1\n", "unknown edit", false),
            ("SOLVE s deadline_ms=abc\n", "bad deadline_ms", false),
            ("ASSIGNMENT s deadline_ms=1\n", "takes no deadline", false),
            ("METRICS now\n", "expected key=value", false),
            ("METRICS format=xml\n", "unknown metrics format", false),
            ("METRICS n=3\n", "takes no n=", false),
            ("SOLVE s trace=0\n", "trace id must be nonzero", false),
            ("SOLVE s trace=yes\n", "bad trace id", false),
            ("TRACE s n=abc\n", "bad span count", false),
            ("TRACE s format=kv\n", "takes no format=", false),
            ("TRACE\n", "needs a session", false),
            ("TRACE s back=no\n", "bad back offset", false),
            ("SOLVE s back=1\n", "takes no back=", false),
            ("SOLVE * \n", "bad session name", false),
            ("WATCH s buffer=0\n", "buffer must be at least 1", false),
            ("WATCH s buffer=x\n", "bad buffer size", false),
            ("WATCH s deadline_ms=5\n", "takes no deadline_ms=", false),
            ("WATCH s lines=1\nx\n", "takes no lines=", false),
            ("UNWATCH s buffer=4\n", "takes no buffer=", false),
            ("UNWATCH\n", "needs a session", false),
            ("SOLVE s shards=2\n", "unknown attribute \"shards\"", false),
            ("SHARD s\n", "unknown verb", false),
            ("MERGE s lines=1\nx\n", "unknown verb", false),
            ("SNAPSHOT s shards=2\n", "unknown attribute", false),
            (
                "SOLVE s trace=1 parent=9\n",
                "unknown attribute \"parent\"",
                false,
            ),
            (
                "METRICS scope=local\n",
                "unknown attribute \"scope\"",
                false,
            ),
            ("METRICS format=snapshot\n", "unknown metrics format", false),
            ("TRACE s remote=1\n", "unknown attribute \"remote\"", false),
            ("SPANS of=7\n", "unknown verb", false),
            ("DUMP\n", "needs a session", false),
            ("DUMP s format=kv\n", "takes no format=", false),
            ("PROFILE\n", "needs a session", false),
            ("PROFILE s/s\n", "bad session name", false),
            ("PROFILE s format=kv\n", "unknown profile format", false),
            ("PROFILE s format=flame\n", "unknown profile format", false),
            ("METRICS format=folded\n", "unknown metrics format", false),
            ("PROFILE s secs=abc\n", "bad secs", false),
            ("PROFILE s secs=61\n", "secs too large", false),
            ("PROFILE s secs=999999999\n", "secs too large", false),
            ("PROFILE s n=3\n", "takes no n=", false),
            ("PROFILE s lines=1\nx\n", "takes no lines=", false),
            (
                "PROFILE * scope=cluster\n",
                "unknown attribute \"scope\"",
                false,
            ),
            ("SOLVE s secs=1\n", "takes no secs=", false),
            (
                "OPEN s instance lines=99999999999\n",
                "exceeds the limit",
                false,
            ),
        ] {
            let err =
                Request::read_from(&mut BufReader::new(text.as_bytes()), 1 << 20).unwrap_err();
            assert!(
                err.message.contains(needle),
                "{text:?} => {err:?} (wanted {needle:?})"
            );
            assert_eq!(err.fatal, fatal, "{text:?}");
        }
        for (text, needle) in [
            ("yes sir\n", "unknown reply status"),
            ("ok warp\n", "unknown reply verb"),
            ("err whatever boom\n", "unknown error code"),
            ("busy lines=2\na\nb\n", "no payload"),
            ("ok stats lines=5\nonly-one\n", "truncated"),
        ] {
            let err = Reply::read_from(&mut BufReader::new(text.as_bytes()), 1 << 20).unwrap_err();
            assert!(err.message.contains(needle), "{text:?} => {err:?}");
        }
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
