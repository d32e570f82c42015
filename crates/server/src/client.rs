//! A blocking wire-protocol client. Works over any `Read`/`Write` pair —
//! the in-process pipe from [`crate::ServerHandle::connect`] or a
//! `TcpStream` — because both sides speak exactly the same bytes.

use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::TcpStream;

use mcfs::{Edit, McfsInstance, Solution};
use mcfs_io::{read_solution, write_instance};

use crate::protocol::{
    EventFrame, Frame, FrameBuf, MetricsFormat, OpenKind, ProfileFormat, ProtoError, Reply,
    Request, TracedRequest, DEFAULT_MAX_PAYLOAD_LINES, WATCH_ALL,
};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed.
    Io(io::Error),
    /// The server sent something that is not a valid reply frame.
    Proto(ProtoError),
    /// The server answered, but not with `ok` (or the payload did not
    /// parse); the reply is preserved for inspection.
    Rejected(Reply),
    /// The greeting did not announce a protocol this client speaks.
    Version(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Proto(e) => write!(f, "malformed reply: {e}"),
            ClientError::Rejected(r) => write!(f, "request rejected: {r:?}"),
            ClientError::Version(got) => write!(f, "unexpected greeting {got:?}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        ClientError::Proto(e)
    }
}

/// A connected client speaking `mcfs-wire v1.6`.
///
/// Once a `WATCH` is active the server interleaves single-line `event`
/// frames with replies; every read path here goes through
/// [`Frame::read_from`], buffering event frames aside (FIFO, see
/// [`Client::next_event`]) until the awaited reply arrives.
pub struct Client {
    reader: BufReader<Box<dyn Read + Send>>,
    /// Buffered, so a frame's many small writes leave in one transport
    /// write (one pipe chunk, one `send` on TCP) at the flush that ends
    /// each request. A frame longer than the buffer (8 KiB) leaves in
    /// roughly buffer-sized writes.
    writer: BufWriter<Box<dyn Write + Send>>,
    max_payload: usize,
    /// Event frames received while waiting for replies, oldest first.
    pending_events: std::collections::VecDeque<EventFrame>,
    /// Reusable line storage for frame reads.
    frame_buf: FrameBuf,
}

impl Client {
    /// Wrap a transport and consume the server greeting.
    pub fn new(
        reader: impl Read + Send + 'static,
        writer: impl Write + Send + 'static,
    ) -> Result<Client, ClientError> {
        let mut client = Client {
            reader: BufReader::new(Box::new(reader)),
            writer: BufWriter::new(Box::new(writer)),
            max_payload: DEFAULT_MAX_PAYLOAD_LINES,
            pending_events: std::collections::VecDeque::new(),
            frame_buf: FrameBuf::new(),
        };
        let mut greeting = String::new();
        client.reader.read_line(&mut greeting)?;
        let greeting = greeting.trim_end();
        if greeting != crate::protocol::WIRE_VERSION {
            return Err(ClientError::Version(greeting.to_owned()));
        }
        Ok(client)
    }

    /// Connect over TCP.
    pub fn connect_tcp(addr: &str) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        // Frames are small; leaving Nagle on costs a delayed-ACK round
        // trip per request under sustained load.
        stream.set_nodelay(true)?;
        let read_half = stream.try_clone()?;
        Client::new(read_half, stream)
    }

    /// Read frames until a reply arrives, buffering any event frames that
    /// precede it.
    fn read_reply(&mut self) -> Result<Reply, ClientError> {
        loop {
            match Frame::read_buffered(&mut self.reader, self.max_payload, &mut self.frame_buf)? {
                Frame::Reply(reply) => return Ok(reply),
                Frame::Event(ev) => self.pending_events.push_back(ev),
            }
        }
    }

    /// Send one request and block for its reply. This is the primitive the
    /// typed helpers below are built on.
    pub fn request(&mut self, request: &Request) -> Result<Reply, ClientError> {
        request.write_to(&mut self.writer)?;
        self.writer.flush()?;
        self.read_reply()
    }

    /// Send one request stamped with `trace=<id>`; the server records the
    /// request's span tree under that id and echoes `trace=<id>` on
    /// structured replies. Mint ids with [`mcfs_obs::next_trace_id`].
    pub fn request_traced(&mut self, request: &Request, trace: u64) -> Result<Reply, ClientError> {
        let framed = TracedRequest {
            request: request.clone(),
            trace: Some(trace),
        };
        framed.write_to(&mut self.writer)?;
        self.writer.flush()?;
        self.read_reply()
    }

    /// `WATCH`: subscribe this connection to live `event` frames for
    /// `session` (or [`crate::protocol::WATCH_ALL`] for every session).
    /// `buffer` overrides the server-side ring capacity — small buffers
    /// force `dropped=` markers, which the drop-reconciliation tests use.
    pub fn watch(&mut self, session: &str, buffer: Option<usize>) -> Result<Reply, ClientError> {
        let reply = self.request(&Request::Watch {
            session: session.to_owned(),
            buffer,
        })?;
        if reply.is_ok() {
            Ok(reply)
        } else {
            Err(ClientError::Rejected(reply))
        }
    }

    /// `UNWATCH`: end a watch. The server flushes every event published
    /// before this request ahead of the `ok unwatch` reply, so after this
    /// returns, [`Client::take_events`] holds the complete stream.
    pub fn unwatch(&mut self, session: &str) -> Result<Reply, ClientError> {
        let reply = self.request(&Request::Unwatch {
            session: session.to_owned(),
        })?;
        if reply.is_ok() {
            Ok(reply)
        } else {
            Err(ClientError::Rejected(reply))
        }
    }

    /// Pop the oldest buffered event frame without touching the transport.
    pub fn next_event(&mut self) -> Option<EventFrame> {
        self.pending_events.pop_front()
    }

    /// Drain every buffered event frame, oldest first.
    pub fn take_events(&mut self) -> Vec<EventFrame> {
        self.pending_events.drain(..).collect()
    }

    /// Block for the next event frame from the transport (or return a
    /// buffered one). Only sound while a `WATCH` is active and no request
    /// is in flight; a reply arriving here means the stream got out of
    /// sync, reported as `Rejected`.
    pub fn wait_event(&mut self) -> Result<EventFrame, ClientError> {
        if let Some(ev) = self.pending_events.pop_front() {
            return Ok(ev);
        }
        match Frame::read_buffered(&mut self.reader, self.max_payload, &mut self.frame_buf)? {
            Frame::Event(ev) => Ok(ev),
            Frame::Reply(reply) => Err(ClientError::Rejected(reply)),
        }
    }

    fn expect_ok(&mut self, request: &Request) -> Result<Reply, ClientError> {
        let reply = self.request(request)?;
        if reply.is_ok() {
            Ok(reply)
        } else {
            Err(ClientError::Rejected(reply))
        }
    }

    /// `OPEN` a session from an in-memory instance.
    pub fn open_instance(
        &mut self,
        session: &str,
        inst: &McfsInstance,
    ) -> Result<Reply, ClientError> {
        let mut buf = Vec::new();
        write_instance(&mut buf, inst)?;
        let text = String::from_utf8(buf).expect("instance text is ASCII");
        self.open_text(session, OpenKind::Instance, &text)
    }

    /// `OPEN` a session from serialized text (an `mcfs-instance v1` or
    /// `mcfs-checkpoint v1` block, per `kind`).
    pub fn open_text(
        &mut self,
        session: &str,
        kind: OpenKind,
        text: &str,
    ) -> Result<Reply, ClientError> {
        self.expect_ok(&Request::Open {
            session: session.to_owned(),
            kind,
            payload: crate::protocol::text_to_lines(text),
        })
    }

    /// `EDIT`: apply a typed edit script.
    pub fn edit(&mut self, session: &str, edits: &[Edit]) -> Result<Reply, ClientError> {
        self.expect_ok(&Request::Edit {
            session: session.to_owned(),
            edits: edits.to_vec(),
            deadline_ms: None,
        })
    }

    /// `SOLVE` and return the reply (kvs: `objective`, `warm`, `selected`,
    /// `wall_us`).
    pub fn solve(&mut self, session: &str) -> Result<Reply, ClientError> {
        self.expect_ok(&Request::Solve {
            session: session.to_owned(),
            deadline_ms: None,
        })
    }

    /// `ASSIGNMENT`: fetch and parse the current solution.
    pub fn solution(&mut self, session: &str) -> Result<Solution, ClientError> {
        let reply = self.expect_ok(&Request::Assignment {
            session: session.to_owned(),
        })?;
        let mut text = reply.payload().join("\n");
        text.push('\n');
        read_solution(text.as_bytes()).map_err(|_| ClientError::Rejected(reply))
    }

    /// `STATS`: the last run's `key value` lines.
    pub fn stats(&mut self, session: &str) -> Result<Vec<String>, ClientError> {
        let reply = self.expect_ok(&Request::Stats {
            session: session.to_owned(),
        })?;
        Ok(reply.payload().to_vec())
    }

    /// `SNAPSHOT`: checkpoint the session; returns the checkpoint text.
    pub fn snapshot(&mut self, session: &str) -> Result<String, ClientError> {
        let reply = self.expect_ok(&Request::Snapshot {
            session: session.to_owned(),
            deadline_ms: None,
        })?;
        let mut text = reply.payload().join("\n");
        text.push('\n');
        Ok(text)
    }

    /// `CLOSE` the session.
    pub fn close(&mut self, session: &str) -> Result<Reply, ClientError> {
        self.expect_ok(&Request::Close {
            session: session.to_owned(),
        })
    }

    /// `SOLVE` with a trace id: the server records the request's full span
    /// tree (queue → execute → solver → oracle) under `trace`.
    pub fn solve_traced(&mut self, session: &str, trace: u64) -> Result<Reply, ClientError> {
        let reply = self.request_traced(
            &Request::Solve {
                session: session.to_owned(),
                deadline_ms: None,
            },
            trace,
        )?;
        if reply.is_ok() {
            Ok(reply)
        } else {
            Err(ClientError::Rejected(reply))
        }
    }

    /// `TRACE`: fetch the spans of the session's most recent traced
    /// request, parsed from their wire lines. `n` keeps only the most
    /// recent `n` spans. See [`Client::trace_spans_back`] for older
    /// requests in the session's ring.
    pub fn trace_spans(
        &mut self,
        session: &str,
        n: Option<usize>,
    ) -> Result<Vec<mcfs_obs::SpanRecord>, ClientError> {
        self.trace_spans_back(session, n, None)
    }

    /// `TRACE back=<j>`: like [`Client::trace_spans`] but for the traced
    /// request `back` steps behind the most recent one, as far back as the
    /// session's ring of its newest
    /// [`mcfs_obs::DEFAULT_FLIGHT_CAPACITY`] spans and events reaches.
    pub fn trace_spans_back(
        &mut self,
        session: &str,
        n: Option<usize>,
        back: Option<usize>,
    ) -> Result<Vec<mcfs_obs::SpanRecord>, ClientError> {
        let reply = self.expect_ok(&Request::Trace {
            session: session.to_owned(),
            n,
            back,
            deadline_ms: None,
        })?;
        let spans: Option<Vec<_>> = reply
            .payload()
            .iter()
            .map(|line| mcfs_obs::span_from_wire_line(line))
            .collect();
        spans.ok_or(ClientError::Rejected(reply))
    }

    /// `DUMP`: fetch the session's ring as JSONL lines (oldest first): the
    /// spans of its traced requests and, while the flight recorder is
    /// armed, its events.
    pub fn dump(&mut self, session: &str) -> Result<Vec<String>, ClientError> {
        let reply = self.expect_ok(&Request::Dump {
            session: session.to_owned(),
            deadline_ms: None,
        })?;
        Ok(reply.payload().to_vec())
    }

    /// `METRICS`: the server's live counters as `key value` lines.
    pub fn metrics(&mut self) -> Result<Vec<String>, ClientError> {
        let reply = self.expect_ok(&Request::Metrics {
            format: MetricsFormat::Kv,
        })?;
        Ok(reply.payload().to_vec())
    }

    /// `METRICS format=prometheus`: the same counters in Prometheus text
    /// exposition format (one newline-terminated document).
    pub fn metrics_prometheus(&mut self) -> Result<String, ClientError> {
        let reply = self.expect_ok(&Request::Metrics {
            format: MetricsFormat::Prometheus,
        })?;
        let mut text = reply.payload().join("\n");
        text.push('\n');
        Ok(text)
    }

    /// `PROFILE * format=folded`: the server's cumulative span-path
    /// profile, parsed into a [`mcfs_obs::ProfileSnapshot`] (merged table
    /// only — per-thread detail stays server-side).
    pub fn profile_snapshot(&mut self) -> Result<mcfs_obs::ProfileSnapshot, ClientError> {
        let reply = self.expect_ok(&Request::Profile {
            session: WATCH_ALL.to_owned(),
            secs: 0,
            format: ProfileFormat::Folded,
        })?;
        let kv_u64 = |key: &str| reply.kv(key).and_then(|v| v.parse::<u64>().ok());
        match mcfs_obs::ProfileSnapshot::from_folded_lines(reply.payload()) {
            Ok(mut snap) => {
                snap.rate_hz = kv_u64("rate_hz").unwrap_or(0);
                snap.idle_samples = kv_u64("idle").unwrap_or(0);
                snap.dropped_samples = kv_u64("dropped").unwrap_or(0);
                Ok(snap)
            }
            Err(_) => Err(ClientError::Rejected(reply)),
        }
    }

    /// `PROFILE` with full control over the target, window and format;
    /// returns the raw reply (payload = folded lines or one speedscope JSON
    /// document).
    pub fn profile(
        &mut self,
        session: &str,
        secs: u64,
        format: ProfileFormat,
    ) -> Result<Reply, ClientError> {
        self.expect_ok(&Request::Profile {
            session: session.to_owned(),
            secs,
            format,
        })
    }
}
