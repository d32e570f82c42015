//! `mcfs-server`: a multi-session facility-selection service.
//!
//! The crate turns the incremental re-solving engine
//! ([`mcfs::ReSolver`]) into a long-running service: many named sessions,
//! each owning a live instance and its warm solver state, served by a
//! fixed pool of worker threads behind a versioned line-oriented wire
//! protocol (`mcfs-wire v1.6`).
//!
//! Layout:
//!
//! - [`protocol`] — the wire grammar: one table row per request verb
//!   ([`protocol::GRAMMAR`]) read by one generic parser and writer,
//!   request/reply framing, typed edit scripts, structured error codes.
//!   Payload blocks reuse the `mcfs-io` formats verbatim, so anything a
//!   file can hold a connection can carry.
//! - [`session`] — one served session: heap-pinned graph + borrowing
//!   resolver, dirty tracking, checkpoint serialization.
//! - `worker` — the pool: sessions are pinned to a worker at `OPEN`, which
//!   gives per-session FIFO and cross-session parallelism with zero locks
//!   on the solve path.
//! - `server` — admission control (bounded per-session queues shed with
//!   `busy`), per-request deadlines for queued work, graceful shutdown
//!   that drains in-flight requests and snapshots dirty sessions.
//! - [`metrics`] — live counters and a log2 latency histogram, backed by
//!   an `mcfs-obs` registry: the `METRICS` verb serves them as `key value`
//!   lines or Prometheus text (`format=prometheus`), and [`http`] can
//!   expose the latter on a `GET /metrics` scrape endpoint.
//! - [`client`] / [`pipe`] — a blocking client that speaks the real
//!   protocol over TCP or an in-memory byte pipe (same bytes, no socket).
//!
//! Any request may carry `trace=<id>` on its verb line; the server then
//! records the request's lifecycle (`server.parse` → `server.queue` →
//! `server.execute` → solver/matcher/oracle spans → `server.handoff` →
//! `server.reply`) into the session's bounded `mcfs-obs` ring
//! ([`mcfs_obs::flight`]) and echoes `trace=<id>` on the reply. The `TRACE`
//! verb reads one of the session's traced requests back from that ring
//! (the most recent, or `back=<j>` steps behind it) as positional span
//! lines, convertible to Chrome trace JSON via
//! [`mcfs_obs::to_chrome_trace`]; `DUMP` returns the whole ring.
//!
//! ```no_run
//! use mcfs_server::{ServerConfig, ServerHandle};
//!
//! let server = ServerHandle::start(ServerConfig::default());
//! let mut client = server.connect().unwrap();
//! let text = std::fs::read_to_string("instance.txt").unwrap();
//! client
//!     .open_text("city", mcfs_server::OpenKind::Instance, &text)
//!     .unwrap();
//! let reply = client.solve("city").unwrap();
//! println!("objective {}", reply.kv("objective").unwrap());
//! server.shutdown();
//! ```

pub mod client;
pub mod http;
pub mod metrics;
pub mod pipe;
pub mod protocol;
mod server;
pub mod session;
mod worker;

pub use client::{Client, ClientError};
pub use http::MetricsHttpHandle;
pub use metrics::{Metrics, Outcome};
pub use protocol::{
    ErrorCode, EventBody, EventFrame, Frame, FrameBuf, MetricsFormat, OpenKind, ProfileFormat,
    ProtoError, Reply, Request, TracedRequest, Verb, MAX_PROFILE_SECS, MAX_WATCH_BUFFER, WATCH_ALL,
    WIRE_VERSION,
};
pub use server::{ServerConfig, ServerHandle};
pub use session::Session;
