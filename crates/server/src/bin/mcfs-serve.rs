//! `mcfs-serve`: run the facility-selection service on a TCP port.
//!
//! ```text
//! mcfs-serve [--addr 127.0.0.1:4816] [--workers N] [--queue-limit N]
//!            [--snapshot-dir PATH] [--restore] [--solver-threads N]
//!            [--metrics-addr HOST:PORT] [--no-flight] [--profile-hz N]
//!            [--no-profile]
//! ```
//!
//! `--metrics-addr` additionally serves the live counters as Prometheus
//! text on `GET /metrics` at the given address (a scrape endpoint separate
//! from the wire port).
//!
//! `--restore` re-opens every `<session>.ckpt` found in `--snapshot-dir`
//! at startup (each as a warm session named after the file), so a restart
//! resumes where the previous shutdown's snapshot drain left off.
//!
//! Each session keeps its newest 4,096 spans and events in one ring, which
//! `TRACE` reads a traced request back from and `DUMP <session>` returns.
//! Event capture into it (the flight recorder) is armed by default;
//! `--no-flight` disarms event capture only, and traced requests still
//! keep their spans.
//!
//! The continuous profiler is likewise armed by default, sampling every
//! thread's open span path at 997 Hz into a bounded folded table; fetch it
//! with `PROFILE <session|*>` or `GET /profile` on the metrics address.
//! `--profile-hz N` retunes the rate, `--no-profile` disarms sampling.
//!
//! The process serves until stdin reports EOF or a line reading
//! `shutdown`, then drains in-flight work, snapshots dirty sessions (when
//! `--snapshot-dir` is set), and prints the final metrics to stdout.

use std::io::BufRead;
use std::path::PathBuf;
use std::process::ExitCode;

use mcfs_server::{ServerConfig, ServerHandle};

struct Args {
    addr: String,
    metrics_addr: Option<String>,
    restore: bool,
    flight: bool,
    profile: bool,
    profile_hz: u64,
    config: ServerConfig,
}

fn usage() -> String {
    "usage: mcfs-serve [--addr HOST:PORT] [--workers N] [--queue-limit N] \
     [--snapshot-dir PATH] [--restore] [--solver-threads N] \
     [--metrics-addr HOST:PORT] [--no-flight] \
     [--profile-hz N] [--no-profile]"
        .to_owned()
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:4816".to_owned(),
        metrics_addr: None,
        restore: false,
        flight: true,
        profile: true,
        profile_hz: mcfs_obs::DEFAULT_SAMPLE_HZ,
        config: ServerConfig::default(),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--help" || flag == "-h" {
            return Err(usage());
        }
        if flag == "--restore" {
            args.restore = true;
            continue;
        }
        if flag == "--no-flight" {
            args.flight = false;
            continue;
        }
        if flag == "--no-profile" {
            args.profile = false;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let num = || -> Result<usize, String> {
            value
                .parse::<usize>()
                .map_err(|_| format!("{flag} expects a number, got {value:?}"))
        };
        match flag.as_str() {
            "--addr" => args.addr.clone_from(value),
            "--workers" => args.config.workers = num()?.max(1),
            "--queue-limit" => args.config.queue_limit = num()?.max(1),
            "--snapshot-dir" => args.config.snapshot_dir = Some(PathBuf::from(value)),
            "--metrics-addr" => args.metrics_addr = Some(value.clone()),
            "--solver-threads" => {
                args.config.solver = args.config.solver.clone().threads(num()?.max(1));
            }
            "--profile-hz" => args.profile_hz = num()?.max(1) as u64,
            other => return Err(format!("unknown flag {other:?}\n{}", usage())),
        }
    }
    Ok(args)
}

/// Open every `<session>.ckpt` in `dir` as a warm session named after the
/// file, through the same wire path a client would use.
fn restore_sessions(server: &ServerHandle, dir: &std::path::Path) -> Result<Vec<String>, String> {
    let mut names = Vec::new();
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "ckpt"))
        .collect();
    entries.sort();
    let mut client = server.connect().map_err(|e| e.to_string())?;
    for path in entries {
        let Some(name) = path.file_stem().and_then(|s| s.to_str()) else {
            continue;
        };
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        client
            .open_text(name, mcfs_server::OpenKind::Checkpoint, &text)
            .map_err(|e| format!("cannot restore {}: {e}", path.display()))?;
        names.push(name.to_owned());
    }
    Ok(names)
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
    if let Some(dir) = &args.config.snapshot_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!(
                "mcfs-serve: cannot create snapshot dir {}: {e}",
                dir.display()
            );
            return ExitCode::FAILURE;
        }
    }

    if args.flight {
        // Always-on in production: the ring is bounded per session and the
        // capture hooks cost one atomic load per event while nothing else
        // subscribes, so arming it up front is the intended default.
        mcfs_obs::flight::enable();
    }
    if args.profile {
        // Same always-on contract as the flight recorder: the folded table
        // is bounded, sampling is off-thread, and the span-site overhead
        // is guarded (<5% armed) in tests/obs_overhead.rs.
        mcfs_obs::profile::enable(args.profile_hz);
    }

    let snapshot_dir = args.config.snapshot_dir.clone();
    let mut server = ServerHandle::start(args.config);
    if args.restore {
        let Some(dir) = &snapshot_dir else {
            eprintln!("mcfs-serve: --restore needs --snapshot-dir");
            return ExitCode::FAILURE;
        };
        match restore_sessions(&server, dir) {
            Ok(names) => {
                for name in names {
                    println!("mcfs-serve restored session {name}");
                }
            }
            Err(e) => {
                eprintln!("mcfs-serve: restore failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let addr = match server.serve_tcp(&args.addr) {
        Ok(addr) => addr,
        Err(e) => {
            eprintln!("mcfs-serve: cannot bind {}: {e}", args.addr);
            return ExitCode::FAILURE;
        }
    };
    println!("mcfs-serve listening on {addr}");
    if let Some(metrics_addr) = &args.metrics_addr {
        match server.serve_metrics_http(metrics_addr) {
            Ok(bound) => println!("mcfs-serve metrics on http://{bound}/metrics"),
            Err(e) => {
                eprintln!("mcfs-serve: cannot bind metrics addr {metrics_addr}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!("type 'shutdown' (or close stdin) for a graceful stop");

    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        match line {
            Ok(l) if l.trim() == "shutdown" => break,
            Ok(_) => continue,
            Err(_) => break,
        }
    }

    let metrics = server.metrics();
    server.shutdown();
    println!("mcfs-serve: drained; final metrics:");
    for line in metrics.to_kv_lines() {
        println!("{line}");
    }
    ExitCode::SUCCESS
}
