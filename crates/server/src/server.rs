//! Server core: session registry, admission control, connection handling
//! and lifecycle (startup, TCP accept loop, graceful shutdown).
//!
//! Requests flow: connection thread parses a frame → admission checks the
//! registry and the per-session queue bound → the job is pinned to the
//! session's worker and the connection thread blocks on the reply channel.
//! `METRICS` is answered inline so it stays responsive when workers are
//! saturated — that is the whole point of a health endpoint.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mcfs::Wma;

use crate::client::{Client, ClientError};
use crate::http::MetricsHttpHandle;
use crate::metrics::{Metrics, Outcome};
use crate::pipe::pipe;
use crate::protocol::{
    read_traced_frame, valid_session_name, ErrorCode, EventBody, EventFrame, FrameBuf,
    MetricsFormat, ProfileFormat, Reply, Request, Verb, DEFAULT_MAX_PAYLOAD_LINES, WATCH_ALL,
    WIRE_VERSION,
};
use crate::worker::{run_worker, Handoff, Job, TraceCtx};

/// Tunables for a server instance.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker threads; sessions are pinned round-robin at `OPEN`.
    pub workers: usize,
    /// Outstanding requests (queued + running) allowed per session before
    /// admission sheds with `busy`. `CLOSE` is always admitted.
    pub queue_limit: usize,
    /// Where `SNAPSHOT` and the shutdown drain write `<session>.ckpt`
    /// files. `None` disables file snapshots (`SNAPSHOT` still returns the
    /// checkpoint text inline).
    pub snapshot_dir: Option<PathBuf>,
    /// Solver template cloned into every session. Leave the oracle unset —
    /// each session's graph gets its own.
    pub solver: Wma,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 2,
            queue_limit: 8,
            snapshot_dir: None,
            // Sessions already run on parallel workers; keep each solve
            // single-threaded so concurrent sessions do not oversubscribe.
            solver: Wma::new().threads(1),
        }
    }
}

/// A registered session: which worker owns it and how deep its queue is.
#[derive(Clone)]
pub(crate) struct SessionEntry {
    worker: usize,
    /// Outstanding requests (queued + running). Incremented at admission,
    /// decremented by the worker when the job leaves the system.
    depth: Arc<AtomicUsize>,
    /// Event-bus scope minted at `OPEN`; every event published while this
    /// session's requests execute carries it, which is what `WATCH`
    /// filters on.
    scope: u64,
}

/// State shared by connection threads and workers.
pub(crate) struct ServerCore {
    pub config: ServerConfig,
    pub metrics: Arc<Metrics>,
    pub registry: Mutex<HashMap<String, SessionEntry>>,
    senders: Vec<Mutex<Option<Sender<Job>>>>,
    shutting_down: AtomicBool,
    next_worker: AtomicUsize,
}

impl ServerCore {
    fn reject(&self, verb: Verb, code: ErrorCode, message: impl Into<String>) -> Reply {
        self.metrics.record_request(verb, Outcome::Err, None);
        Reply::Err {
            code,
            message: message.into(),
        }
    }

    /// The event-bus scope of a registered session.
    pub(crate) fn scope_of(&self, session: &str) -> Option<u64> {
        self.registry.lock().unwrap().get(session).map(|e| e.scope)
    }

    /// Reverse scope lookup, for `WATCH *` pumps stamping session names
    /// onto events. Linear in the number of live sessions.
    fn session_name_of(&self, scope: u64) -> Option<String> {
        self.registry
            .lock()
            .unwrap()
            .iter()
            .find(|(_, e)| e.scope == scope)
            .map(|(name, _)| name.clone())
    }

    /// Admit, enqueue, and wait for `request`'s reply. This is the only
    /// path requests take — the in-process client and TCP connections meet
    /// here. Traced requests (`trace` set) carry their trace id and root
    /// span id into the worker (for the `server.queue` / `server.execute`
    /// spans) and echo `trace=<id>` on every structured reply so clients
    /// can correlate. The second value is what the worker handed back with
    /// the reply, `None` for untraced requests and for replies no worker
    /// produced.
    pub(crate) fn submit_traced(
        &self,
        request: Request,
        trace: Option<TraceCtx>,
    ) -> (Reply, Option<Handoff>) {
        let mut handoff = None;
        let mut reply = self.submit_inner(request, trace, &mut handoff);
        if let Some(ctx) = trace {
            match &mut reply {
                Reply::Ok { kvs, .. } | Reply::Busy { kvs } | Reply::Timeout { kvs } => {
                    kvs.push(("trace".into(), ctx.trace.to_string()));
                }
                // The err grammar is `err <code> <message...>`: no kv slots.
                Reply::Err { .. } => {}
            }
        }
        (reply, handoff)
    }

    fn submit_inner(
        &self,
        request: Request,
        trace: Option<TraceCtx>,
        handoff: &mut Option<Handoff>,
    ) -> Reply {
        let verb = request.verb();
        if let Request::Metrics { format } = &request {
            // Snapshot first, then count ourselves: the reported counters
            // describe the requests *before* this one, so a client can
            // reconcile a script exactly without racing its own METRICS.
            let payload = match format {
                MetricsFormat::Kv => self.metrics.to_kv_lines(),
                MetricsFormat::Prometheus => self
                    .metrics
                    .to_prometheus()
                    .lines()
                    .map(str::to_owned)
                    .collect(),
            };
            self.metrics.record_request(verb, Outcome::Ok, None);
            return Reply::Ok {
                verb,
                kvs: vec![],
                payload,
            };
        }
        // PROFILE is likewise answered inline: a profile must be obtainable
        // while every worker is saturated — that saturation is exactly what
        // it exists to explain.
        if let Request::Profile {
            session,
            secs,
            format,
        } = &request
        {
            // The profiler is process-scoped; a named target only guards
            // against typos in tooling.
            if session != crate::protocol::WATCH_ALL
                && !self.registry.lock().unwrap().contains_key(session.as_str())
            {
                return self.reject(
                    verb,
                    ErrorCode::NoSession,
                    format!("no session {session:?}"),
                );
            }
            let snap = if *secs == 0 {
                mcfs_obs::profile::snapshot()
            } else {
                let before = mcfs_obs::profile::snapshot();
                std::thread::sleep(Duration::from_secs(*secs));
                mcfs_obs::profile::snapshot().diff(&before)
            };
            let payload = match format {
                ProfileFormat::Folded => snap.to_folded().lines().map(str::to_owned).collect(),
                ProfileFormat::Speedscope => {
                    vec![mcfs_obs::to_speedscope(&snap, "mcfs-profile")]
                }
            };
            let kvs = vec![
                ("rate_hz".to_owned(), snap.rate_hz.to_string()),
                ("samples".to_owned(), snap.total_samples().to_string()),
                ("threads".to_owned(), snap.threads.len().to_string()),
                ("idle".to_owned(), snap.idle_samples.to_string()),
                ("dropped".to_owned(), snap.dropped_samples.to_string()),
            ];
            self.metrics.record_request(verb, Outcome::Ok, None);
            return Reply::Ok { verb, kvs, payload };
        }
        if self.shutting_down.load(Ordering::SeqCst) {
            return self.reject(verb, ErrorCode::ShuttingDown, "server is shutting down");
        }

        let session = request
            .session()
            .expect("every queued verb names a session")
            .to_owned();
        if !valid_session_name(&session) {
            return self.reject(
                verb,
                ErrorCode::BadName,
                format!("invalid session name {session:?}"),
            );
        }

        // Registry transition under the lock; queueing happens outside it.
        let entry = {
            let mut reg = self.registry.lock().unwrap();
            match verb {
                Verb::Open => {
                    if reg.contains_key(&session) {
                        drop(reg);
                        return self.reject(
                            verb,
                            ErrorCode::SessionExists,
                            format!("session {session:?} already exists"),
                        );
                    }
                    let worker =
                        self.next_worker.fetch_add(1, Ordering::Relaxed) % self.config.workers;
                    let entry = SessionEntry {
                        worker,
                        depth: Arc::new(AtomicUsize::new(0)),
                        scope: mcfs_obs::next_scope_id(),
                    };
                    reg.insert(session.clone(), entry.clone());
                    entry
                }
                Verb::Close => match reg.remove(&session) {
                    Some(entry) => entry,
                    None => {
                        drop(reg);
                        return self.reject(
                            verb,
                            ErrorCode::NoSession,
                            format!("no session {session:?}"),
                        );
                    }
                },
                _ => match reg.get(&session) {
                    Some(entry) => entry.clone(),
                    None => {
                        drop(reg);
                        return self.reject(
                            verb,
                            ErrorCode::NoSession,
                            format!("no session {session:?}"),
                        );
                    }
                },
            }
        };

        // Admission bound. CLOSE is always admitted: a client must be able
        // to tear down the very session whose queue is full.
        if verb == Verb::Close {
            let depth = entry.depth.fetch_add(1, Ordering::Relaxed) + 1;
            self.metrics.note_queue_depth(depth);
            publish_depth(entry.scope, depth);
        } else {
            let admitted = entry
                .depth
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |d| {
                    (d < self.config.queue_limit).then_some(d + 1)
                });
            match admitted {
                Ok(prev) => {
                    self.metrics.note_queue_depth(prev + 1);
                    publish_depth(entry.scope, prev + 1);
                }
                Err(depth) => {
                    // OPEN reserved the name above; un-reserve on shed.
                    // (Unreachable in practice: a fresh OPEN has depth 0.)
                    if verb == Verb::Open {
                        self.registry.lock().unwrap().remove(&session);
                    }
                    self.metrics.record_request(verb, Outcome::Busy, None);
                    return Reply::Busy {
                        kvs: vec![
                            ("session".into(), session),
                            ("depth".into(), depth.to_string()),
                            ("limit".into(), self.config.queue_limit.to_string()),
                        ],
                    };
                }
            }
        }

        let enqueued = Instant::now();
        let deadline = request
            .deadline_ms()
            .map(|ms| enqueued + Duration::from_millis(ms));
        let (reply_tx, reply_rx) = mpsc::channel();
        let job = Job {
            request,
            reply_tx,
            depth: entry.depth.clone(),
            enqueued,
            // Only traced jobs pay for the extra clock read; the worker
            // turns this into the `server.queue` span.
            enqueued_ns: if trace.is_some() {
                mcfs_obs::now_ns()
            } else {
                0
            },
            deadline,
            trace,
            scope: entry.scope,
        };
        let sent = {
            let guard = self.senders[entry.worker].lock().unwrap();
            match guard.as_ref() {
                Some(tx) => tx.send(job).is_ok(),
                None => false,
            }
        };
        if !sent {
            // Shutdown closed the queues between our flag check and the
            // send. Undo the admission and report the state honestly.
            entry.depth.fetch_sub(1, Ordering::Relaxed);
            if verb == Verb::Open {
                self.registry.lock().unwrap().remove(&session);
            }
            return self.reject(verb, ErrorCode::ShuttingDown, "server is shutting down");
        }
        match reply_rx.recv() {
            Ok((reply, stamp)) => {
                *handoff = stamp;
                reply
            }
            // Only a worker panic can drop the sender without replying.
            Err(_) => Reply::Err {
                code: ErrorCode::Io,
                message: "worker abandoned the request".into(),
            },
        }
    }
}

/// Publish a queue-depth event for a session's scope (one relaxed load
/// when nobody watches).
fn publish_depth(scope: u64, depth: usize) {
    if mcfs_obs::bus_enabled() {
        mcfs_obs::publish_scoped(
            scope,
            mcfs_obs::Event::QueueDepth {
                depth: depth as u64,
            },
        );
    }
}

/// One live `WATCH` subscription on a connection: the pump thread that
/// drains the bus subscriber into the shared connection writer, plus the
/// flag that stops it.
struct WatchHandle {
    stop: Arc<AtomicBool>,
    pump: JoinHandle<()>,
}

impl WatchHandle {
    /// Signal the pump, wait for its final drain-and-flush, and reclaim
    /// the thread. After this returns, no further event frames for this
    /// watch will be written.
    fn stop(self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = self.pump.join();
    }
}

/// How long a pump sleeps between buffer checks; also the worst-case
/// latency of an `UNWATCH` reply or connection teardown.
const PUMP_TICK: Duration = Duration::from_millis(25);

/// Spawn the pump thread for one `WATCH`. The pump owns the bus
/// subscriber; each drain is serialized into a reusable batch buffer
/// *outside* the shared writer lock, which is then held for a single
/// `write_all` + flush. Frames from concurrent pumps and the reply path
/// still interleave at whole-frame granularity only, but a connection with
/// many watchers no longer stalls its replies on per-frame formatting
/// under the lock. On the stop signal the pump drains once more (events
/// published before an `UNWATCH` was parsed are never lost) and exits;
/// dropping the subscriber unregisters it from the bus.
fn spawn_pump<W: Write + Send + 'static>(
    core: Arc<ServerCore>,
    writer: Arc<Mutex<W>>,
    target: String,
    sub: mcfs_obs::Subscriber,
    stop: Arc<AtomicBool>,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name("mcfs-watch-pump".into())
        .spawn(move || {
            let mut batch: Vec<u8> = Vec::new();
            loop {
                let stopping = stop.load(Ordering::SeqCst);
                let drain = if stopping {
                    sub.poll()
                } else {
                    sub.wait(PUMP_TICK)
                };
                if !drain.is_empty() {
                    batch.clear();
                    // The drop marker precedes the drained events: the ring
                    // sheds oldest-first, so the losses happened before them.
                    if drain.dropped > 0 {
                        core.metrics.events_dropped(drain.dropped);
                        let frame = EventFrame {
                            session: target.clone(),
                            body: EventBody::Dropped {
                                count: drain.dropped,
                            },
                        };
                        let _ = frame.write_to(&mut batch);
                    }
                    let mut streamed = 0u64;
                    for rec in &drain.events {
                        let session = if target == WATCH_ALL {
                            // Scope ids are process-global: events from
                            // sessions of *other* server instances (or from
                            // sessions closed mid-flight) resolve to nothing
                            // here and are not this server's to stream.
                            match core.session_name_of(rec.scope) {
                                Some(name) => name,
                                None => continue,
                            }
                        } else {
                            target.clone()
                        };
                        let frame = EventFrame {
                            session,
                            body: EventBody::Event {
                                seq: rec.seq,
                                event: rec.event.clone(),
                            },
                        };
                        // A Vec write only fails on a kv that is not
                        // wire-safe; such a frame is skipped, not fatal.
                        if frame.write_to(&mut batch).is_ok() {
                            streamed += 1;
                        }
                    }
                    core.metrics.events_streamed(streamed);
                    let wrote = {
                        let mut w = writer.lock().unwrap();
                        w.write_all(&batch).and_then(|()| w.flush())
                    };
                    if wrote.is_err() {
                        return; // client gone; connection loop will notice too
                    }
                }
                if stopping {
                    return;
                }
            }
        })
        .expect("spawning a watch pump thread")
}

/// Handle `WATCH`/`UNWATCH` inline on the connection thread (they bind a
/// subscription to *this* connection, so they never enter a session
/// queue).
fn handle_watch_verbs<W: Write + Send + 'static>(
    core: &Arc<ServerCore>,
    writer: &Arc<Mutex<W>>,
    watches: &mut HashMap<String, WatchHandle>,
    request: Request,
) -> Reply {
    match request {
        Request::Watch { session, buffer } => {
            if watches.contains_key(&session) {
                // Idempotent: the existing pump keeps running.
                core.metrics.record_request(Verb::Watch, Outcome::Ok, None);
                return Reply::Ok {
                    verb: Verb::Watch,
                    kvs: vec![("session".into(), session), ("already".into(), "1".into())],
                    payload: vec![],
                };
            }
            let filter = if session == WATCH_ALL {
                None
            } else {
                match core.scope_of(&session) {
                    Some(scope) => Some(scope),
                    None => {
                        return core.reject(
                            Verb::Watch,
                            ErrorCode::NoSession,
                            format!("no session {session:?}"),
                        )
                    }
                }
            };
            let capacity = buffer.unwrap_or(mcfs_obs::DEFAULT_SUBSCRIBER_CAPACITY);
            let sub = mcfs_obs::subscribe_with_capacity(filter, capacity);
            let stop = Arc::new(AtomicBool::new(false));
            let pump = spawn_pump(
                Arc::clone(core),
                Arc::clone(writer),
                session.clone(),
                sub,
                Arc::clone(&stop),
            );
            watches.insert(session.clone(), WatchHandle { stop, pump });
            core.metrics.record_request(Verb::Watch, Outcome::Ok, None);
            Reply::Ok {
                verb: Verb::Watch,
                kvs: vec![
                    ("session".into(), session),
                    ("buffer".into(), capacity.to_string()),
                ],
                payload: vec![],
            }
        }
        Request::Unwatch { session } => match watches.remove(&session) {
            Some(handle) => {
                // Joining the pump *before* replying guarantees every
                // event published before this UNWATCH was parsed is on
                // the wire ahead of the `ok unwatch`.
                handle.stop();
                core.metrics
                    .record_request(Verb::Unwatch, Outcome::Ok, None);
                Reply::Ok {
                    verb: Verb::Unwatch,
                    kvs: vec![("session".into(), session)],
                    payload: vec![],
                }
            }
            None => core.reject(
                Verb::Unwatch,
                ErrorCode::State,
                format!("not watching {session:?}"),
            ),
        },
        _ => unreachable!("only WATCH/UNWATCH are routed here"),
    }
}

/// Serve one connection: greeting, then a frame/reply loop until EOF or a
/// fatal protocol error.
///
/// The writer is shared behind a mutex with this connection's `WATCH`
/// pump threads; replies and event frames are each written whole (and
/// flushed) under the lock, so they interleave at frame granularity only.
///
/// When a frame carries `trace=<id>`, the connection thread records the
/// request's lifecycle spans: `server.parse` (verb line read → frame
/// decoded), `server.handoff` (the worker closing `server.execute` → this
/// thread starting the reply), `server.reply` (reply serialization), and
/// the enclosing root `server.request`, all recorded before the reply is
/// flushed, in the scope whose ring the worker kept its own spans in (the
/// session's, or 0 when no worker kept them). The queue/execute interval
/// in between is recorded by the worker under the same root (see
/// `worker.rs`).
pub(crate) fn handle_connection<W: Write + Send + 'static>(
    mut reader: impl BufRead,
    writer: W,
    core: Arc<ServerCore>,
) {
    let writer = Arc::new(Mutex::new(writer));
    {
        let mut w = writer.lock().unwrap();
        if writeln!(w, "{WIRE_VERSION}")
            .and_then(|()| w.flush())
            .is_err()
        {
            return;
        }
    }
    // This connection's live WATCHes, keyed by target. Stopped (which
    // unsubscribes from the bus) when the connection ends, however it ends.
    let mut watches: HashMap<String, WatchHandle> = HashMap::new();
    // One reusable line buffer per connection: frame reads retain only the
    // parsed request's own allocations (asserted by `tests/obs_overhead.rs`).
    let mut frame_buf = FrameBuf::new();
    loop {
        match read_traced_frame(&mut reader, DEFAULT_MAX_PAYLOAD_LINES, &mut frame_buf) {
            Ok(None) => break, // clean EOF
            Ok(Some((traced, parse_start_ns))) => {
                let ctx = traced.trace.map(|trace| TraceCtx {
                    trace,
                    root: mcfs_obs::alloc_span_id(),
                });
                let parse_end_ns = ctx.map_or(0, |_| mcfs_obs::now_ns());
                let (reply, handoff) = match traced.request {
                    request @ (Request::Watch { .. } | Request::Unwatch { .. }) => {
                        let mut reply = handle_watch_verbs(&core, &writer, &mut watches, request);
                        if let (Some(ctx), Reply::Ok { kvs, .. }) = (ctx, &mut reply) {
                            kvs.push(("trace".into(), ctx.trace.to_string()));
                        }
                        (reply, None)
                    }
                    request => core.submit_traced(request, ctx),
                };
                let reply_start_ns = ctx.map(|_| mcfs_obs::now_ns());
                let _scope =
                    ctx.map(|_| mcfs_obs::ScopeGuard::enter(handoff.map_or(0, |h| h.scope)));
                if let Some(ctx) = ctx {
                    let (from, to) = (parse_start_ns, parse_end_ns);
                    mcfs_obs::record_manual(ctx.trace, "server.parse", ctx.root, None, from, to);
                }
                if let (Some(ctx), Some(h), Some(to)) = (ctx, handoff, reply_start_ns) {
                    mcfs_obs::record_manual(ctx.trace, "server.handoff", ctx.root, None, h.ns, to);
                }
                let wrote = {
                    let mut w = writer.lock().unwrap();
                    let written = reply.write_to(&mut *w);
                    // Record the reply and root spans before the flush hands
                    // the reply over: a client holding the reply then always
                    // finds the trace's root.
                    if let (Some(ctx), Some(start_ns)) = (ctx, reply_start_ns) {
                        let end_ns = mcfs_obs::now_ns();
                        mcfs_obs::record_manual(
                            ctx.trace,
                            "server.reply",
                            ctx.root,
                            None,
                            start_ns,
                            end_ns,
                        );
                        // The root is recorded last, once its extent is
                        // known; children already reference it via the
                        // allocated id.
                        mcfs_obs::record_manual(
                            ctx.trace,
                            "server.request",
                            0,
                            Some(ctx.root),
                            parse_start_ns,
                            end_ns,
                        );
                    }
                    written.and_then(|()| w.flush())
                };
                if wrote.is_err() {
                    break;
                }
            }
            Err(e) => {
                core.metrics.record_unparsed();
                let reply = Reply::Err {
                    code: ErrorCode::Proto,
                    message: e.to_string(),
                };
                let wrote = {
                    let mut w = writer.lock().unwrap();
                    reply.write_to(&mut *w).and_then(|()| w.flush())
                };
                if e.fatal || wrote.is_err() {
                    break;
                }
            }
        }
    }
    // Auto-unsubscribe: a vanished or departing client must not leave bus
    // subscribers (and pump threads) behind.
    for (_, handle) in watches.drain() {
        handle.stop();
    }
}

/// A running server. Dropping the handle shuts it down gracefully (see
/// [`ServerHandle::shutdown`]).
pub struct ServerHandle {
    core: Arc<ServerCore>,
    workers: Vec<JoinHandle<()>>,
    accept: Option<(SocketAddr, JoinHandle<()>)>,
    metrics_http: Option<MetricsHttpHandle>,
    down: bool,
}

impl ServerHandle {
    /// Start the worker pool. No listener yet — use [`Self::connect`] for
    /// in-process clients or [`Self::serve_tcp`] to accept sockets.
    pub fn start(config: ServerConfig) -> ServerHandle {
        assert!(config.workers >= 1, "need at least one worker");
        assert!(config.queue_limit >= 1, "queue limit must admit something");
        let mut senders = Vec::with_capacity(config.workers);
        let mut receivers = Vec::with_capacity(config.workers);
        for _ in 0..config.workers {
            let (tx, rx) = mpsc::channel();
            senders.push(Mutex::new(Some(tx)));
            receivers.push(rx);
        }
        let core = Arc::new(ServerCore {
            config,
            metrics: Arc::new(Metrics::new()),
            registry: Mutex::new(HashMap::new()),
            senders,
            shutting_down: AtomicBool::new(false),
            next_worker: AtomicUsize::new(0),
        });
        let workers = receivers
            .into_iter()
            .enumerate()
            .map(|(i, rx)| {
                let core = Arc::clone(&core);
                std::thread::Builder::new()
                    .name(format!("mcfs-worker-{i}"))
                    .spawn(move || run_worker(rx, core))
                    .expect("spawning a worker thread")
            })
            .collect();
        ServerHandle {
            core,
            workers,
            accept: None,
            metrics_http: None,
            down: false,
        }
    }

    /// The live metrics, for embedding callers.
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.core.metrics)
    }

    /// Expose the metrics as Prometheus text on `GET /metrics` at `addr`
    /// (a scrape endpoint independent of the wire port). Returns the bound
    /// address; the listener shuts down with the server.
    pub fn serve_metrics_http(&mut self, addr: &str) -> std::io::Result<SocketAddr> {
        let handle = MetricsHttpHandle::serve(self.metrics(), addr)?;
        let local = handle.addr();
        self.metrics_http = Some(handle);
        Ok(local)
    }

    /// Connect an in-process client. The client speaks the real wire
    /// protocol over an in-memory byte pipe; a thread per connection runs
    /// the same `handle_connection` loop TCP uses.
    pub fn connect(&self) -> Result<Client, ClientError> {
        let (client_tx, server_rx) = pipe();
        let (server_tx, client_rx) = pipe();
        let core = Arc::clone(&self.core);
        std::thread::Builder::new()
            .name("mcfs-conn-pipe".into())
            .spawn(move || {
                // BufWriter coalesces a frame's many small writes into one
                // pipe chunk per flush (flushes happen at frame boundaries).
                handle_connection(BufReader::new(server_rx), BufWriter::new(server_tx), core);
            })
            .expect("spawning a connection thread");
        Client::new(client_rx, client_tx)
    }

    /// Bind `addr` and accept TCP connections until shutdown. Returns the
    /// bound address (useful with port 0).
    pub fn serve_tcp(&mut self, addr: &str) -> std::io::Result<SocketAddr> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let core = Arc::clone(&self.core);
        let accept = std::thread::Builder::new()
            .name("mcfs-accept".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    if core.shutting_down.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    // Request/reply frames are small; without NODELAY,
                    // Nagle + delayed ACK adds tens of ms per exchange.
                    stream.set_nodelay(true).ok();
                    let core = Arc::clone(&core);
                    let _ = std::thread::Builder::new()
                        .name("mcfs-conn-tcp".into())
                        .spawn(move || {
                            let Ok(read_half) = stream.try_clone() else {
                                return;
                            };
                            // BufWriter turns a frame's many small writes
                            // into one syscall per flush (frame boundary).
                            handle_connection(
                                BufReader::new(read_half),
                                BufWriter::new(stream),
                                core,
                            );
                        });
                }
            })?;
        self.accept = Some((local, accept));
        Ok(local)
    }

    /// Graceful shutdown: stop admitting, drain every queued and running
    /// request (clients get their replies), snapshot dirty sessions, join
    /// the pool. Idempotent; also runs on drop.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        if self.down {
            return;
        }
        self.down = true;
        self.core.shutting_down.store(true, Ordering::SeqCst);
        // Closing the channels is the drain signal: workers finish what was
        // admitted, then exit their recv loop and snapshot dirty sessions.
        for slot in &self.core.senders {
            slot.lock().unwrap().take();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        if let Some((addr, handle)) = self.accept.take() {
            // The accept loop only observes the flag on its next
            // connection; poke it so it wakes and exits.
            let _ = TcpStream::connect(addr);
            let _ = handle.join();
        }
        if let Some(mut http) = self.metrics_http.take() {
            http.shutdown_inner();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}
