//! `mcfs-loadgen` — drive sustained traffic at an `mcfs-server`, emit
//! `BENCH_LOAD.json`, and gate on SLOs.
//!
//! ```text
//! mcfs-loadgen [--profile ci|acceptance] [--mix NAME] [--connections N]
//!              [--sessions N] [--requests N] [--seed N]
//!              [--tcp ADDR | --in-process] [--workers N] [--queue-limit N]
//!              [--nodes N] [--customers N] [--stations N] [--k N]
//!              [--watch-buffer N] [--chaos] [--out PATH]
//!              [--gate-min-throughput RPS] [--gate-max-p99-us US]
//!              [--gate-reconcile] [--gate-profile]
//! ```
//!
//! Without `--tcp`, the tool starts its own server (on TCP by default so
//! chaos injection works; `--in-process` switches to byte pipes and
//! disables chaos). Exit codes: 0 ok, 1 usage/run error, 2 gate breach.

use std::net::SocketAddr;
use std::process::ExitCode;

use mcfs_loadgen::{chaos, driver, ChaosProfile, Gates, LoadProfile, LoadReport, Mix, Target};
use mcfs_server::{ServerConfig, ServerHandle};

struct Args {
    profile: LoadProfile,
    tcp: Option<SocketAddr>,
    in_process: bool,
    workers: usize,
    queue_limit: usize,
    run_chaos: bool,
    out: String,
    gates: Gates,
}

fn usage() -> String {
    "usage: mcfs-loadgen [--profile ci|acceptance] [--mix solve-heavy|edit-heavy|watch-heavy|mixed]\n\
     \x20                 [--connections N] [--sessions N] [--requests N] [--seed N]\n\
     \x20                 [--tcp ADDR | --in-process] [--workers N] [--queue-limit N]\n\
     \x20                 [--nodes N] [--customers N] [--stations N] [--k N] [--watch-buffer N]\n\
     \x20                 [--chaos] [--out PATH] [--gate-min-throughput RPS]\n\
     \x20                 [--gate-max-p99-us US] [--gate-reconcile] [--gate-profile]"
        .into()
}

fn parse_args() -> Result<Args, String> {
    let mut profile = LoadProfile::ci(42);
    let mut tcp = None;
    let mut in_process = false;
    let mut workers = 4;
    let mut queue_limit = 64;
    let mut run_chaos = false;
    let mut out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_LOAD.json").to_owned();
    let mut gates = Gates::default();

    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let need = |i: &mut usize, argv: &[String], flag: &str| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--profile" => {
                let name = need(&mut i, &argv, "--profile")?;
                profile = match name.as_str() {
                    "ci" => LoadProfile::ci(profile.seed),
                    "acceptance" => LoadProfile::acceptance(profile.seed),
                    other => return Err(format!("unknown profile {other:?}\n{}", usage())),
                };
            }
            "--mix" => {
                let name = need(&mut i, &argv, "--mix")?;
                profile.mix = Mix::named(&name)
                    .ok_or_else(|| format!("unknown mix {name:?}\n{}", usage()))?;
            }
            "--connections" => {
                profile.connections = need(&mut i, &argv, "--connections")?
                    .parse()
                    .map_err(|e| format!("bad --connections: {e}"))?;
            }
            "--sessions" => {
                profile.sessions = need(&mut i, &argv, "--sessions")?
                    .parse()
                    .map_err(|e| format!("bad --sessions: {e}"))?;
            }
            "--requests" => {
                profile.requests_per_connection = need(&mut i, &argv, "--requests")?
                    .parse()
                    .map_err(|e| format!("bad --requests: {e}"))?;
            }
            "--seed" => {
                let seed: u64 = need(&mut i, &argv, "--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?;
                profile.seed = seed;
                profile.world.seed = seed ^ 0x5EED;
            }
            "--tcp" => {
                tcp = Some(
                    need(&mut i, &argv, "--tcp")?
                        .parse()
                        .map_err(|e| format!("bad --tcp address: {e}"))?,
                );
            }
            "--in-process" => in_process = true,
            "--workers" => {
                workers = need(&mut i, &argv, "--workers")?
                    .parse()
                    .map_err(|e| format!("bad --workers: {e}"))?;
            }
            "--queue-limit" => {
                queue_limit = need(&mut i, &argv, "--queue-limit")?
                    .parse()
                    .map_err(|e| format!("bad --queue-limit: {e}"))?;
            }
            "--nodes" => {
                profile.world.target_nodes = need(&mut i, &argv, "--nodes")?
                    .parse()
                    .map_err(|e| format!("bad --nodes: {e}"))?;
            }
            "--customers" => {
                profile.world.customers = need(&mut i, &argv, "--customers")?
                    .parse()
                    .map_err(|e| format!("bad --customers: {e}"))?;
            }
            "--stations" => {
                profile.world.stations = need(&mut i, &argv, "--stations")?
                    .parse()
                    .map_err(|e| format!("bad --stations: {e}"))?;
            }
            "--k" => {
                profile.world.k = need(&mut i, &argv, "--k")?
                    .parse()
                    .map_err(|e| format!("bad --k: {e}"))?;
            }
            "--watch-buffer" => {
                profile.watch_buffer = need(&mut i, &argv, "--watch-buffer")?
                    .parse()
                    .map_err(|e| format!("bad --watch-buffer: {e}"))?;
            }
            "--chaos" => run_chaos = true,
            "--out" => out = need(&mut i, &argv, "--out")?,
            "--gate-min-throughput" => {
                gates.min_throughput_rps = need(&mut i, &argv, "--gate-min-throughput")?
                    .parse()
                    .map_err(|e| format!("bad --gate-min-throughput: {e}"))?;
            }
            "--gate-max-p99-us" => {
                gates.max_p99_us = need(&mut i, &argv, "--gate-max-p99-us")?
                    .parse()
                    .map_err(|e| format!("bad --gate-max-p99-us: {e}"))?;
            }
            "--gate-reconcile" => gates.require_reconciliation = true,
            "--gate-profile" => gates.require_profile = true,
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown flag {other:?}\n{}", usage())),
        }
        i += 1;
    }
    if in_process && run_chaos {
        return Err(
            "--chaos needs a TCP transport (raw-socket injection); drop --in-process".into(),
        );
    }
    if in_process && tcp.is_some() {
        return Err("--in-process and --tcp are mutually exclusive".into());
    }
    Ok(Args {
        profile,
        tcp,
        in_process,
        workers,
        queue_limit,
        run_chaos,
        out,
        gates,
    })
}

fn run() -> Result<ExitCode, String> {
    let args = parse_args()?;
    let profile = &args.profile;

    // Arm the continuous profiler: for own-server runs (in-process or
    // own TCP) the server shares this process, so the `PROFILE` window
    // the driver takes — and the `--gate-profile` check on it — sees the
    // solver under real load. Against an external `--tcp` server the
    // verb reads that server's profiler instead and this arm is inert.
    mcfs_obs::profile::enable(mcfs_obs::DEFAULT_SAMPLE_HZ);

    // Own server unless --tcp points at an external one.
    let mut own: Option<ServerHandle> = None;
    let (target, transport): (Target<'_>, &'static str);
    let mut own_addr = None;
    if let Some(addr) = args.tcp {
        target = Target::Tcp(addr);
        transport = "tcp";
        own_addr = Some(addr);
    } else {
        let handle = ServerHandle::start(ServerConfig {
            workers: args.workers,
            queue_limit: args.queue_limit,
            ..ServerConfig::default()
        });
        own = Some(handle);
        let own_ref = own.as_mut().unwrap();
        if args.in_process {
            transport = "in-process";
        } else {
            let addr = own_ref
                .serve_tcp("127.0.0.1:0")
                .map_err(|e| format!("serve_tcp failed: {e}"))?;
            own_addr = Some(addr);
            transport = "tcp";
        }
        let own_ref = own.as_ref().unwrap();
        target = match own_addr {
            Some(addr) if !args.in_process => Target::Tcp(addr),
            _ => Target::InProcess(own_ref),
        };
    }

    eprintln!(
        "mcfs-loadgen: mix={} transport={transport} connections={} sessions={} requests/conn={}",
        profile.mix.name, profile.connections, profile.sessions, profile.requests_per_connection
    );
    let output = driver::run(profile, &target)?;

    let mut chaos_kvs = Vec::new();
    if args.run_chaos {
        let addr = own_addr.ok_or("--chaos needs a TCP address")?;
        eprintln!("mcfs-loadgen: injecting chaos");
        let outcome = chaos::run(
            addr,
            &profile.session_names(),
            &ChaosProfile::standard(profile.seed ^ 0xC0A5),
        )?;
        if outcome.healthy_sessions != profile.sessions as u64 {
            return Err(format!(
                "post-chaos health check: {}/{} sessions solvable",
                outcome.healthy_sessions, profile.sessions
            ));
        }
        if outcome.storm_errs != 0 {
            return Err(format!(
                "deadline storm produced {} err replies (expected timeout/ok only)",
                outcome.storm_errs
            ));
        }
        chaos_kvs = outcome.to_kvs();
    }

    let report = LoadReport::new(
        profile.mix.name,
        transport,
        profile.connections,
        profile.sessions,
        profile.seed,
        output,
        chaos_kvs,
    );
    std::fs::write(&args.out, report.to_json())
        .map_err(|e| format!("writing {} failed: {e}", args.out))?;

    eprintln!(
        "mcfs-loadgen: {} requests in {:?} ({:.0} rps), ok={} busy={} timeout={} err={}",
        report.run.measured_requests,
        report.run.wall,
        report.run.throughput_rps(),
        report.run.stats.outcome_total(mcfs_server::Outcome::Ok),
        report.run.stats.outcome_total(mcfs_server::Outcome::Busy),
        report
            .run
            .stats
            .outcome_total(mcfs_server::Outcome::Timeout),
        report.run.stats.outcome_total(mcfs_server::Outcome::Err),
    );
    eprintln!(
        "mcfs-loadgen: reconciliation p50Δ={} p99Δ={} counts_match={} → {}",
        report.reconciliation.p50_bucket_delta,
        report.reconciliation.p99_bucket_delta,
        report.reconciliation.counts_match,
        if report.reconciliation.within_one_bucket {
            "within one bucket"
        } else {
            "DIVERGED"
        }
    );
    eprintln!(
        "mcfs-loadgen: profile window: available={} samples={} named={:.1}% idle={} dropped={}",
        report.profile.available,
        report.profile.samples,
        report.profile.named_ppm as f64 / 1e4,
        report.profile.idle,
        report.profile.dropped,
    );
    eprintln!("mcfs-loadgen: wrote {}", args.out);

    let violations = report.gate_violations(&args.gates);
    if let Some(handle) = own.take() {
        handle.shutdown();
    }
    if violations.is_empty() {
        Ok(ExitCode::SUCCESS)
    } else {
        for v in &violations {
            eprintln!("mcfs-loadgen: GATE BREACH: {v}");
        }
        Ok(ExitCode::from(2))
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("mcfs-loadgen: {msg}");
            ExitCode::FAILURE
        }
    }
}
