//! Fault injection against a live TCP endpoint: mid-request connection
//! kills, truncated frames, slow-reader watchers, and deadline storms.
//!
//! Chaos is deliberately raw-socket (not [`mcfs_server::Client`]) for the
//! kill and truncation injections — the point is to hand the server byte
//! streams a well-behaved client can never produce. After injection,
//! [`health_check`] proves every session is still fully usable.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::Duration;

use mcfs_server::protocol::Request;
use mcfs_server::{Client, EventBody, Reply};
use rand::{seq::SliceRandom, Rng, SeedableRng};

/// How much of each fault class to inject.
#[derive(Clone, Copy, Debug)]
pub struct ChaosProfile {
    /// Connections that write a `SOLVE` head line and vanish before the
    /// reply.
    pub kill_mid_solve: usize,
    /// Connections that promise an `EDIT` payload and truncate it.
    pub truncated_frames: usize,
    /// Watchers with a tiny buffer that stop reading during a solve
    /// burst, forcing `dropped=` markers.
    pub slow_watchers: usize,
    /// `SOLVE deadline_ms=0` requests racing each other — every one that
    /// still sits queued when a worker picks it up must come back
    /// `timeout`, never `err`.
    pub deadline_storm: usize,
    /// RNG seed for target selection.
    pub seed: u64,
}

impl ChaosProfile {
    /// The default injection used by `--chaos`.
    pub fn standard(seed: u64) -> ChaosProfile {
        ChaosProfile {
            kill_mid_solve: 8,
            truncated_frames: 8,
            slow_watchers: 2,
            deadline_storm: 24,
            seed,
        }
    }
}

/// What the injection run observed, as `(key, value)` summary pairs for
/// the report's `chaos` block.
#[derive(Clone, Debug, Default)]
pub struct ChaosOutcome {
    /// Connections killed mid-`SOLVE`.
    pub killed: u64,
    /// Truncated frames written.
    pub truncated: u64,
    /// `dropped=` markers observed by the slow watchers.
    pub slow_watch_markers: u64,
    /// Events the slow watchers still received.
    pub slow_watch_events: u64,
    /// `timeout` replies from the deadline storm.
    pub storm_timeouts: u64,
    /// `ok` replies from the deadline storm (raced the deadline and won).
    pub storm_ok: u64,
    /// `err` replies from the deadline storm (must stay 0).
    pub storm_errs: u64,
    /// Sessions that solved cleanly in the post-chaos health check.
    pub healthy_sessions: u64,
}

impl ChaosOutcome {
    /// Flatten for the JSON report.
    pub fn to_kvs(&self) -> Vec<(String, u64)> {
        vec![
            ("killed_mid_solve".into(), self.killed),
            ("truncated_frames".into(), self.truncated),
            ("slow_watch_markers".into(), self.slow_watch_markers),
            ("slow_watch_events".into(), self.slow_watch_events),
            ("storm_timeouts".into(), self.storm_timeouts),
            ("storm_ok".into(), self.storm_ok),
            ("storm_errs".into(), self.storm_errs),
            ("healthy_sessions".into(), self.healthy_sessions),
        ]
    }
}

fn raw_connect(addr: SocketAddr) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("chaos connect failed: {e}"))?;
    // Consume the greeting so the server believes this is a real client.
    let mut greeting = String::new();
    BufReader::new(
        stream
            .try_clone()
            .map_err(|e| format!("chaos clone failed: {e}"))?,
    )
    .read_line(&mut greeting)
    .map_err(|e| format!("chaos greeting read failed: {e}"))?;
    Ok(stream)
}

/// Write a `SOLVE` head line, then drop the socket without reading the
/// reply. The server must finish (or shed) the queued work and reclaim
/// the connection without poisoning the session.
pub fn kill_mid_solve(addr: SocketAddr, session: &str) -> Result<(), String> {
    let mut stream = raw_connect(addr)?;
    stream
        .write_all(format!("SOLVE {session}\n").as_bytes())
        .map_err(|e| format!("chaos write failed: {e}"))?;
    stream.flush().ok();
    // Hard close both halves mid-request.
    stream.shutdown(Shutdown::Both).ok();
    Ok(())
}

/// Promise a 5-line `EDIT` payload, deliver one line, and half-close.
/// The framing layer must flag this fatal (counted in
/// `requests.unparsed`) and drop only this connection.
pub fn truncated_edit(addr: SocketAddr, session: &str) -> Result<(), String> {
    let mut stream = raw_connect(addr)?;
    stream
        .write_all(format!("EDIT {session} lines=5\nadd-customer node=0\n").as_bytes())
        .map_err(|e| format!("chaos write failed: {e}"))?;
    stream.flush().ok();
    stream.shutdown(Shutdown::Write).ok();
    // Give the server a moment to hit the truncation, then drain
    // whatever it said (nothing, or a proto err) and close.
    stream
        .set_read_timeout(Some(Duration::from_millis(500)))
        .ok();
    let mut sink = Vec::new();
    let _ = stream.take(4096).read_to_end(&mut sink);
    Ok(())
}

/// Subscribe with a tiny buffer, trigger a burst of solves from a second
/// connection while never reading, then resume reading. Returns
/// `(events_received, dropped_markers, dropped_count_sum)` — the
/// contract is lossy-but-never-corrupt: every frame parses, markers
/// account for the loss.
pub fn slow_watcher(
    addr: SocketAddr,
    session: &str,
    burst: usize,
) -> Result<(u64, u64, u64), String> {
    let mut watcher =
        Client::connect_tcp(&addr.to_string()).map_err(|e| format!("watcher connect: {e}"))?;
    watcher
        .watch(session, Some(2))
        .map_err(|e| format!("watch failed: {e}"))?;
    let mut driver =
        Client::connect_tcp(&addr.to_string()).map_err(|e| format!("driver connect: {e}"))?;
    for _ in 0..burst {
        let reply = driver
            .request(&Request::Solve {
                session: session.to_owned(),
                deadline_ms: None,
            })
            .map_err(|e| format!("burst solve failed: {e}"))?;
        if matches!(reply, Reply::Err { .. }) {
            return Err(format!("burst solve errored: {reply:?}"));
        }
    }
    // The watcher sleeps through the burst instead of reading; the
    // server-side pump keeps draining its subscriber buffer, so the
    // overflow shows up as dropped= markers, not as a stuck server.
    std::thread::sleep(Duration::from_millis(200));
    watcher
        .unwatch(session)
        .map_err(|e| format!("unwatch failed: {e}"))?;
    let mut events = 0u64;
    let mut markers = 0u64;
    let mut dropped = 0u64;
    for frame in watcher.take_events() {
        match frame.body {
            EventBody::Event { .. } => events += 1,
            EventBody::Dropped { count } => {
                markers += 1;
                dropped += count;
            }
        }
    }
    Ok((events, markers, dropped))
}

/// Fire `count` `SOLVE deadline_ms=0` requests and tally the replies.
/// Expired deadlines must surface as `timeout` (or `ok` if the worker
/// won the race) — never as `err`.
pub fn deadline_storm(
    addr: SocketAddr,
    sessions: &[String],
    count: usize,
    seed: u64,
) -> Result<(u64, u64, u64), String> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut client =
        Client::connect_tcp(&addr.to_string()).map_err(|e| format!("storm connect: {e}"))?;
    let (mut timeouts, mut oks, mut errs) = (0u64, 0u64, 0u64);
    for _ in 0..count {
        let session = sessions[rng.random_range(0..sessions.len())].clone();
        let reply = client
            .request(&Request::Solve {
                session,
                deadline_ms: Some(0),
            })
            .map_err(|e| format!("storm solve failed: {e}"))?;
        match reply {
            Reply::Timeout { .. } => timeouts += 1,
            Reply::Ok { .. } => oks += 1,
            Reply::Err { .. } => errs += 1,
            Reply::Busy { .. } => {}
        }
    }
    Ok((timeouts, oks, errs))
}

/// Solve every session once over a fresh connection; returns how many
/// answered `ok`. After chaos, this must equal the session count.
pub fn health_check(addr: SocketAddr, sessions: &[String]) -> Result<u64, String> {
    let mut client =
        Client::connect_tcp(&addr.to_string()).map_err(|e| format!("health connect: {e}"))?;
    let mut healthy = 0u64;
    for session in sessions {
        let reply = client
            .request(&Request::Solve {
                session: session.clone(),
                deadline_ms: None,
            })
            .map_err(|e| format!("health solve failed: {e}"))?;
        if reply.is_ok() {
            healthy += 1;
        }
    }
    Ok(healthy)
}

/// Run the whole injection suite against sessions that already exist.
pub fn run(
    addr: SocketAddr,
    sessions: &[String],
    profile: &ChaosProfile,
) -> Result<ChaosOutcome, String> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(profile.seed);
    let mut targets = sessions.to_vec();
    targets.shuffle(&mut rng);
    let mut out = ChaosOutcome::default();

    for i in 0..profile.kill_mid_solve {
        kill_mid_solve(addr, &targets[i % targets.len()])?;
        out.killed += 1;
    }
    for i in 0..profile.truncated_frames {
        truncated_edit(addr, &targets[i % targets.len()])?;
        out.truncated += 1;
    }
    for i in 0..profile.slow_watchers {
        let (events, markers, _dropped) = slow_watcher(addr, &targets[i % targets.len()], 12)?;
        out.slow_watch_events += events;
        out.slow_watch_markers += markers;
    }
    if profile.deadline_storm > 0 {
        let (timeouts, oks, errs) = deadline_storm(
            addr,
            sessions,
            profile.deadline_storm,
            profile.seed ^ 0xDEAD,
        )?;
        out.storm_timeouts = timeouts;
        out.storm_ok = oks;
        out.storm_errs = errs;
    }
    out.healthy_sessions = health_check(addr, sessions)?;
    Ok(out)
}
