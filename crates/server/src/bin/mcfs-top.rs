//! `mcfs-top`: a live terminal dashboard for a running `mcfs-serve`.
//!
//! ```text
//! mcfs-top [--addr 127.0.0.1:4816] [--session NAME | *] [--interval-ms N]
//!          [--once] [--kick SESSION]
//! ```
//!
//! Two connections drive the display: one holds a `WATCH` subscription
//! (by default on `*`, every session) whose `event` frames stream solver
//! iterations, phase transitions, queue depths and re-solve outcomes; the
//! other polls `METRICS format=prometheus` every refresh to derive p50/p99
//! request latency from the cumulative histogram buckets. Each refresh
//! redraws one table: per session the latest state, iteration, covered/total
//! customers, objective, queue depth, and events lost to that watcher.
//!
//! `--once` renders a single frame and exits (the CI smoke path);
//! `--kick SESSION` fires one `SOLVE` on a third connection right after
//! subscribing, so even a quiet server shows a live iteration trajectory.
//!
//! A HOT pane under the session table shows the server's five hottest span
//! paths from the continuous profiler (`PROFILE *` on the metrics poll
//! connection), each with its share of sampled wall time across all
//! registered threads. The pane reads "(profiler disarmed or idle)" when
//! the server runs `--no-profile` or has not worked since it started.

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::mpsc;
use std::time::Duration;

use mcfs_server::{Client, EventBody, EventFrame, Request, WATCH_ALL};

struct Args {
    addr: String,
    session: String,
    interval: Duration,
    once: bool,
    kick: Option<String>,
}

fn usage() -> String {
    "usage: mcfs-top [--addr HOST:PORT] [--session NAME|*] [--interval-ms N] \
     [--once] [--kick SESSION]"
        .to_owned()
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:4816".to_owned(),
        session: WATCH_ALL.to_owned(),
        interval: Duration::from_millis(1000),
        once: false,
        kick: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--help" || flag == "-h" {
            return Err(usage());
        }
        if flag == "--once" {
            args.once = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        match flag.as_str() {
            "--addr" => args.addr.clone_from(value),
            "--session" => args.session.clone_from(value),
            "--kick" => args.kick = Some(value.clone()),
            "--interval-ms" => {
                let ms: u64 = value
                    .parse()
                    .map_err(|_| format!("--interval-ms expects a number, got {value:?}"))?;
                args.interval = Duration::from_millis(ms.max(50));
            }
            other => return Err(format!("unknown flag {other:?}\n{}", usage())),
        }
    }
    Ok(args)
}

/// What the dashboard remembers about one session, updated per event.
#[derive(Default)]
struct SessionRow {
    state: String,
    iteration: u64,
    covered: u64,
    total: u64,
    objective: Option<u64>,
    queue_depth: u64,
    events: u64,
}

/// Latency quantiles parsed from the Prometheus histogram exposition.
#[derive(Default)]
struct Latency {
    p50: String,
    p99: String,
    count: u64,
}

/// Derive p50/p99 from `mcfs_server_request_latency_us_bucket{le="..."}`
/// cumulative counts. Returns bucket upper bounds as printable strings
/// (`<=N` microseconds, or `+Inf`).
fn parse_latency(prometheus: &str) -> Latency {
    let mut buckets: Vec<(String, u64)> = Vec::new();
    let mut count = 0u64;
    for line in prometheus.lines() {
        if let Some(rest) = line.strip_prefix("mcfs_server_request_latency_us_bucket{le=\"") {
            if let Some((le, tail)) = rest.split_once("\"}") {
                if let Ok(n) = tail.trim().parse::<u64>() {
                    buckets.push((le.to_owned(), n));
                }
            }
        } else if let Some(rest) = line.strip_prefix("mcfs_server_request_latency_us_count") {
            count = rest.trim().parse().unwrap_or(0);
        }
    }
    let quantile = |q: f64| -> String {
        if count == 0 {
            return "-".to_owned();
        }
        let target = (q * count as f64).ceil() as u64;
        for (le, cum) in &buckets {
            if *cum >= target {
                return format!("<={le}us");
            }
        }
        "+Inf".to_owned()
    };
    Latency {
        p50: quantile(0.50),
        p99: quantile(0.99),
        count,
    }
}

/// The HOT pane: hottest span paths from the server's continuous
/// profiler, each with its share of all samples (idle ticks included, so
/// the percentages read as share-of-wall across registered threads).
#[derive(Default)]
struct HotPane {
    /// `(path, samples)` rows, hottest first, at most five.
    rows: Vec<(String, u64)>,
    /// All samples in the window: named paths plus idle ticks.
    wall: u64,
    idle: u64,
}

impl HotPane {
    fn from_snapshot(snap: &mcfs_obs::ProfileSnapshot) -> HotPane {
        HotPane {
            rows: snap
                .hottest(5)
                .into_iter()
                .map(|(p, n)| (p.to_owned(), n))
                .collect(),
            wall: snap.total_samples() + snap.idle_samples,
            idle: snap.idle_samples,
        }
    }

    /// `samples / wall` as a printable percentage.
    fn pct(&self, samples: u64) -> String {
        if self.wall == 0 {
            return "-".to_owned();
        }
        format!("{:.1}%", samples as f64 * 100.0 / self.wall as f64)
    }
}

fn apply_event(rows: &mut BTreeMap<String, SessionRow>, frame: &EventFrame, dropped: &mut u64) {
    let row = rows.entry(frame.session.clone()).or_default();
    match &frame.body {
        EventBody::Dropped { count } => *dropped += count,
        EventBody::Event { event, .. } => {
            row.events += 1;
            match event {
                mcfs_obs::Event::SolverIteration {
                    iteration,
                    covered,
                    total,
                    ..
                } => {
                    row.state = "solving".to_owned();
                    row.iteration = *iteration;
                    row.covered = *covered;
                    row.total = *total;
                }
                mcfs_obs::Event::Phase { name, state } => {
                    row.state = match state {
                        mcfs_obs::PhaseState::Start => (*name).to_owned(),
                        mcfs_obs::PhaseState::End => format!("{name} done"),
                    };
                }
                mcfs_obs::Event::ResolveDone { warm, objective } => {
                    row.state = if *warm { "idle (warm)" } else { "idle (cold)" }.to_owned();
                    row.objective = Some(*objective);
                }
                mcfs_obs::Event::QueueDepth { depth } => row.queue_depth = *depth,
                // Shard and reconcile events come from in-process cluster
                // solves, which the server does not run.
                mcfs_obs::Event::ShardPhase { .. }
                | mcfs_obs::Event::Reconcile { .. }
                | mcfs_obs::Event::Augmentations { .. } => {}
            }
        }
    }
}

fn render(
    rows: &BTreeMap<String, SessionRow>,
    latency: &Latency,
    hot: &HotPane,
    dropped: u64,
    target: &str,
    clear: bool,
) {
    if clear {
        // Home + clear-to-end keeps the frame flicker-free on real terminals.
        print!("\x1b[H\x1b[2J");
    }
    println!(
        "mcfs-top  watching {target}  requests={}  p50={}  p99={}  dropped={dropped}",
        latency.count, latency.p50, latency.p99
    );
    println!(
        "{:<16} {:<16} {:>5} {:>9} {:>10} {:>6} {:>7}",
        "SESSION", "STATE", "ITER", "COVERED", "OBJECTIVE", "QUEUE", "EVENTS"
    );
    if rows.is_empty() {
        println!("(no events yet)");
    }
    for (name, row) in rows {
        println!(
            "{:<16} {:<16} {:>5} {:>9} {:>10} {:>6} {:>7}",
            name,
            if row.state.is_empty() {
                "-"
            } else {
                &row.state
            },
            row.iteration,
            format!("{}/{}", row.covered, row.total),
            row.objective
                .map_or_else(|| "-".to_owned(), |o| o.to_string()),
            row.queue_depth,
            row.events,
        );
    }
    println!();
    println!("{:<58} {:>8} {:>6}", "HOT PATHS", "SAMPLES", "%WALL");
    if hot.rows.is_empty() {
        println!("(profiler disarmed or idle)");
    }
    for (path, samples) in &hot.rows {
        println!("{path:<58} {samples:>8} {:>6}", hot.pct(*samples));
    }
    if hot.idle > 0 {
        println!("{:<58} {:>8} {:>6}", "(idle)", hot.idle, hot.pct(hot.idle));
    }
}

fn run(args: &Args) -> Result<(), String> {
    // Connection 1: the WATCH stream, drained by a reader thread into a
    // channel (so the main loop can multiplex it with the refresh timer).
    let mut watcher = Client::connect_tcp(&args.addr)
        .map_err(|e| format!("cannot connect to {}: {e}", args.addr))?;
    watcher
        .watch(&args.session, None)
        .map_err(|e| format!("WATCH {} failed: {e}", args.session))?;
    let (event_tx, event_rx) = mpsc::channel::<EventFrame>();
    std::thread::spawn(move || {
        while let Ok(frame) = watcher.wait_event() {
            if event_tx.send(frame).is_err() {
                return;
            }
        }
    });

    // Connection 2: METRICS polling.
    let mut poller =
        Client::connect_tcp(&args.addr).map_err(|e| format!("metrics connection: {e}"))?;

    // Connection 3 (optional): fire one SOLVE so the stream shows a live
    // trajectory immediately; it runs in the background.
    if let Some(session) = args.kick.clone() {
        let mut kicker =
            Client::connect_tcp(&args.addr).map_err(|e| format!("kick connection: {e}"))?;
        std::thread::spawn(move || {
            let _ = kicker.request(&Request::Solve {
                session,
                deadline_ms: None,
            });
        });
    }

    let mut rows: BTreeMap<String, SessionRow> = BTreeMap::new();
    let mut hot = HotPane::default();
    let mut dropped = 0u64;
    loop {
        // Sleep one refresh interval on the event channel, folding in
        // whatever streamed while we waited.
        let deadline = std::time::Instant::now() + args.interval;
        loop {
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            if left.is_zero() {
                break;
            }
            match event_rx.recv_timeout(left) {
                Ok(frame) => apply_event(&mut rows, &frame, &mut dropped),
                Err(mpsc::RecvTimeoutError::Timeout) => break,
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    return Err("server closed the watch connection".to_owned())
                }
            }
        }
        let latency = match poller.metrics_prometheus() {
            Ok(text) => parse_latency(&text),
            Err(e) => return Err(format!("METRICS poll failed: {e}")),
        };
        // HOT pane: the profiler's cumulative table. A failed fetch keeps
        // the last good pane.
        if let Ok(snap) = poller.profile_snapshot() {
            hot = HotPane::from_snapshot(&snap);
        }
        render(&rows, &latency, &hot, dropped, &args.session, !args.once);
        if args.once {
            return Ok(());
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("mcfs-top: {msg}");
            ExitCode::FAILURE
        }
    }
}
