//! The workload driver: spawns one thread per connection, replays the
//! profile's mix against a target server, and merges client-side
//! per-verb outcome counts and latency histograms.
//!
//! Every connection owns a disjoint slice of the session space (session
//! `i` belongs to connection `i % connections`): `OPEN` and `EDIT` only
//! ever touch owned sessions, while `SOLVE`, `SNAPSHOT`, and `WATCH`
//! target uniformly random sessions. Each `EDIT` is immediately followed
//! by a re-`SOLVE` of the same session, so under clean load no request
//! can hit a state error and the zero-`err` SLO is meaningful.

use std::net::SocketAddr;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use mcfs::Edit;
use mcfs_server::protocol::{MetricsFormat, OpenKind, Request, Verb};
use mcfs_server::{Client, EventBody, Outcome, ServerHandle};
use rand::{Rng, SeedableRng};

use crate::histogram::Log2Hist;
use crate::profile::{LoadProfile, OpKind};

/// Where the driver connects.
pub enum Target<'a> {
    /// In-process byte pipes via [`ServerHandle::connect`].
    InProcess(&'a ServerHandle),
    /// A TCP listener (usually the same process's [`ServerHandle::serve_tcp`]).
    Tcp(SocketAddr),
}

impl Target<'_> {
    fn connect(&self) -> Result<Client, String> {
        match self {
            Target::InProcess(handle) => handle
                .connect()
                .map_err(|e| format!("in-process connect failed: {e}")),
            Target::Tcp(addr) => Client::connect_tcp(&addr.to_string())
                .map_err(|e| format!("tcp connect to {addr} failed: {e}")),
        }
    }

    /// `"in-process"` or `"tcp"`, for the report.
    pub fn kind(&self) -> &'static str {
        match self {
            Target::InProcess(_) => "in-process",
            Target::Tcp(_) => "tcp",
        }
    }
}

/// Number of verbs in the count matrices — always the full [`Verb::ALL`]
/// width, so the layout follows the protocol when it grows verbs.
pub const VERBS: usize = Verb::ALL.len();

/// Client-observed counters for one connection (or, merged, for a run).
#[derive(Clone, Debug)]
pub struct ClientStats {
    /// `counts[verb][outcome]` with verbs in [`Verb::ALL`] order and
    /// outcomes in [`Outcome::ALL`] order.
    pub counts: [[u64; 4]; VERBS],
    /// Client-observed request latency per verb (all outcomes).
    pub hists: [Log2Hist; VERBS],
    /// Only the samples the server's histogram also contains — queued
    /// verbs with `ok`/`timeout` outcomes — for bucket reconciliation.
    pub reconcile: Log2Hist,
    /// `event` frames received on `WATCH` cycles.
    pub events_seen: u64,
    /// `dropped=` marker frames received.
    pub dropped_markers: u64,
    /// Sum of the counts those markers carried.
    pub dropped_events: u64,
}

impl Default for ClientStats {
    fn default() -> Self {
        ClientStats {
            counts: [[0; 4]; VERBS],
            hists: std::array::from_fn(|_| Log2Hist::new()),
            reconcile: Log2Hist::new(),
            events_seen: 0,
            dropped_markers: 0,
            dropped_events: 0,
        }
    }
}

impl ClientStats {
    /// Fold another connection's stats into this one.
    pub fn merge(&mut self, other: &ClientStats) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            for (x, y) in a.iter_mut().zip(b.iter()) {
                *x += y;
            }
        }
        for (a, b) in self.hists.iter_mut().zip(other.hists.iter()) {
            a.merge(b);
        }
        self.reconcile.merge(&other.reconcile);
        self.events_seen += other.events_seen;
        self.dropped_markers += other.dropped_markers;
        self.dropped_events += other.dropped_events;
    }

    /// Total requests across all verbs and outcomes.
    pub fn total(&self) -> u64 {
        self.counts.iter().flatten().sum()
    }

    /// Total for one outcome across all verbs.
    pub fn outcome_total(&self, o: Outcome) -> u64 {
        self.counts.iter().map(|row| row[o.index()]).sum()
    }

    fn record(&mut self, verb: Verb, reply: &mcfs_server::Reply, us: u64) {
        let outcome = Outcome::of(reply);
        self.counts[verb.index()][outcome.index()] += 1;
        self.hists[verb.index()].observe(us);
        // The server's histogram only times queued work: admission-path
        // `busy` records no latency, and inline verbs never enter a queue.
        if verb.row().queued && matches!(outcome, Outcome::Ok | Outcome::Timeout) {
            self.reconcile.observe(us);
        }
    }
}

/// The merged result of one load run.
pub struct RunOutput {
    /// Merged client-side stats (setup traffic included — the server
    /// counts it too, and reconciliation needs both sides to agree).
    pub stats: ClientStats,
    /// Wall-clock of the measured loop (barrier release to last reply).
    pub wall: Duration,
    /// Requests issued inside the measured loop only.
    pub measured_requests: u64,
    /// The server's final `METRICS` kv lines, fetched on a fresh
    /// connection after every load connection finished.
    pub server_kv: Vec<String>,
    /// The continuous profiler's window over the run — the `PROFILE`
    /// diff between a fetch before the barrier and one after the last
    /// connection finished. `None` when either fetch failed (e.g. a
    /// remote server with the profiler rejected mid-run).
    pub profile_window: Option<mcfs_obs::ProfileSnapshot>,
}

impl RunOutput {
    /// Measured-loop throughput in requests per second.
    pub fn throughput_rps(&self) -> f64 {
        self.measured_requests as f64 / self.wall.as_secs_f64().max(1e-9)
    }
}

struct Connection<'p> {
    client: Client,
    rng: rand::rngs::StdRng,
    profile: &'p LoadProfile,
    all_sessions: &'p [String],
    /// Indices into `all_sessions` this connection owns.
    owned: Vec<usize>,
    /// Customers added (beyond the base set) per owned session, indexed
    /// like `owned`.
    added: Vec<usize>,
    stats: ClientStats,
    measured: u64,
}

impl Connection<'_> {
    /// Send one request, record its outcome, and report whether the
    /// server actually applied it (`Reply::Ok`) — a shed (`busy`) or
    /// rejected request changed no session state, and callers tracking a
    /// model of that state must not advance it.
    fn issue(&mut self, req: &Request) -> Result<bool, String> {
        let t0 = Instant::now();
        let reply = self
            .client
            .request(req)
            .map_err(|e| format!("{} failed: {e}", req.verb().token()))?;
        let us = t0.elapsed().as_micros() as u64;
        self.stats.record(req.verb(), &reply, us);
        Ok(matches!(reply, mcfs_server::Reply::Ok { .. }))
    }

    fn open_owned(&mut self, instance_text: &str) -> Result<(), String> {
        for &si in &self.owned.clone() {
            let session = self.all_sessions[si].clone();
            self.issue(&Request::Open {
                session: session.clone(),
                kind: OpenKind::Instance,
                payload: mcfs_server::protocol::text_to_lines(instance_text),
            })?;
            // Warmup: every session holds a current solution before the
            // measured loop starts, so STATS can never race a fresh OPEN.
            self.issue(&Request::Solve {
                session,
                deadline_ms: None,
            })?;
        }
        Ok(())
    }

    fn random_session(&mut self) -> String {
        let i = self.rng.random_range(0..self.all_sessions.len());
        self.all_sessions[i].clone()
    }

    fn run_op(
        &mut self,
        op: OpKind,
        anchor: mcfs_graph::NodeId,
        base: usize,
    ) -> Result<(), String> {
        match op {
            OpKind::EditSolve => {
                let slot = self.rng.random_range(0..self.owned.len());
                let session = self.all_sessions[self.owned[slot]].clone();
                let adding = self.added[slot] < self.profile.world.edit_headroom;
                let edit = if adding {
                    Edit::AddCustomer { node: anchor }
                } else {
                    Edit::RemoveCustomer {
                        index: base + self.added[slot] - 1,
                    }
                };
                let applied = self.issue(&Request::Edit {
                    session: session.clone(),
                    edits: vec![edit],
                    deadline_ms: None,
                })?;
                // Track the session's real customer count: an edit that
                // was shed (`busy`) changed nothing, and advancing the
                // model anyway would aim a later RemoveCustomer past the
                // end of the actual customer list.
                if applied {
                    if adding {
                        self.added[slot] += 1;
                    } else {
                        self.added[slot] -= 1;
                    }
                }
                self.measured += 1;
                self.issue(&Request::Solve {
                    session,
                    deadline_ms: None,
                })?;
                self.measured += 1;
            }
            OpKind::Solve => {
                let session = self.random_session();
                self.issue(&Request::Solve {
                    session,
                    deadline_ms: None,
                })?;
                self.measured += 1;
            }
            OpKind::Stats => {
                let slot = self.rng.random_range(0..self.owned.len());
                let session = self.all_sessions[self.owned[slot]].clone();
                self.issue(&Request::Stats { session })?;
                self.measured += 1;
            }
            OpKind::Snapshot => {
                let session = self.random_session();
                self.issue(&Request::Snapshot {
                    session,
                    deadline_ms: None,
                })?;
                self.measured += 1;
            }
            OpKind::Watch => {
                let session = self.random_session();
                self.issue(&Request::Watch {
                    session: session.clone(),
                    buffer: Some(self.profile.watch_buffer),
                })?;
                self.measured += 1;
                self.issue(&Request::Solve {
                    session: session.clone(),
                    deadline_ms: None,
                })?;
                self.measured += 1;
                self.issue(&Request::Unwatch { session })?;
                self.measured += 1;
                for frame in self.client.take_events() {
                    match frame.body {
                        EventBody::Event { .. } => self.stats.events_seen += 1,
                        EventBody::Dropped { count } => {
                            self.stats.dropped_markers += 1;
                            self.stats.dropped_events += count;
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

/// Run `profile` against `target` and merge every connection's view.
///
/// The instance text is generated once; every session opens the same
/// world. Connections rendezvous on a barrier after setup (OPEN + warmup
/// SOLVE of their owned sessions), so the measured wall-clock covers only
/// steady-state traffic.
pub fn run(profile: &LoadProfile, target: &Target<'_>) -> Result<RunOutput, String> {
    if profile.connections == 0 || profile.sessions < profile.connections {
        return Err("profile needs at least one session per connection".into());
    }
    let world = profile.world.generate();
    let sessions = profile.session_names();
    // Profile-under-load: bracket the run with two `PROFILE` fetches on
    // probe connections, through the same wire path any client uses, so
    // the report can attribute the measured window. A server that cannot
    // answer (profiler disarmed is fine — that still replies) yields None.
    let profile_before = target.connect()?.profile_snapshot().ok();
    let barrier = Barrier::new(profile.connections + 1);
    let mut merged = ClientStats::default();
    let mut measured_requests = 0u64;
    let mut wall = Duration::ZERO;

    std::thread::scope(|scope| -> Result<(), String> {
        let handles: Vec<_> = (0..profile.connections)
            .map(|conn_id| {
                let barrier = &barrier;
                let world = &world;
                let sessions = &sessions;
                scope.spawn(move || -> Result<(ClientStats, u64), String> {
                    let mut conn = Connection {
                        client: target.connect()?,
                        rng: rand::rngs::StdRng::seed_from_u64(
                            profile.seed.wrapping_add(conn_id as u64),
                        ),
                        profile,
                        all_sessions: sessions,
                        owned: (conn_id..profile.sessions)
                            .step_by(profile.connections)
                            .collect(),
                        added: Vec::new(),
                        stats: ClientStats::default(),
                        measured: 0,
                    };
                    conn.added = vec![0; conn.owned.len()];
                    conn.open_owned(&world.text)?;
                    barrier.wait();
                    for _ in 0..profile.requests_per_connection {
                        let op = profile.mix.pick(&mut conn.rng);
                        conn.run_op(op, world.anchor, world.base_customers)?;
                    }
                    Ok((conn.stats, conn.measured))
                })
            })
            .collect();
        barrier.wait();
        let t0 = Instant::now();
        let mut first_err = None;
        for h in handles {
            match h.join().expect("connection thread panicked") {
                Ok((stats, measured)) => {
                    merged.merge(&stats);
                    measured_requests += measured;
                }
                Err(e) => first_err = Some(first_err.unwrap_or(e)),
            }
        }
        wall = t0.elapsed();
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    })?;

    // A fresh connection reads the final counters; METRICS snapshots
    // before counting itself, so this read is invisible to the numbers.
    let mut probe = target.connect()?;
    let reply = probe
        .request(&Request::Metrics {
            format: MetricsFormat::Kv,
        })
        .map_err(|e| format!("final METRICS failed: {e}"))?;
    if !reply.is_ok() {
        return Err(format!("final METRICS rejected: {reply:?}"));
    }
    let server_kv = reply.payload().to_vec();
    let profile_after = probe.profile_snapshot().ok();
    // The server counted the *before* PROFILE fetch ahead of the METRICS
    // read-back above; mirror it in the client matrix or clean-run count
    // reconciliation would diverge on the profile row. The *after* fetch
    // lands past the read-back snapshot, so — like the final METRICS
    // itself — it is invisible to the numbers and must not be mirrored.
    merged.counts[Verb::Profile.index()][Outcome::Ok.index()] += profile_before.is_some() as u64;
    let profile_window = match (profile_before, profile_after) {
        (Some(before), Some(after)) => Some(after.diff(&before)),
        _ => None,
    };

    Ok(RunOutput {
        stats: merged,
        wall,
        measured_requests,
        server_kv,
        profile_window,
    })
}
