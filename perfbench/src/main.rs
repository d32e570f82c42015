//! Host-normalized benchmark of the mcfs-repro library.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig6a --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Prints a human-readable report on stderr and, as the last line of
//! stdout, one JSON object: `correct`, `attempted`, `failed` and `metrics`
//! (the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`). Exits 1 when any correctness check fails, 2 on bad
//! arguments. See README.md for the workloads and the method.

mod host;
mod metrics;
mod reference;
mod rng;
mod runner;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use metrics::{Spec, END_TO_END, PER_LAYER};
use runner::Runner;
use stats::{median, percentile, R_NOMINAL_MS};
use workloads::{Kind, Workload, MIN_OPS};

struct Args {
    workload: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Kind::parse(value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|&s| s >= 1)
                        .ok_or(format!("bad seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(20),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
            eprintln!(
                "error: {e}\nusage: perfbench --workload <{}> [--seed N] [--seconds N] [--trace 0|1]",
                names.join("|")
            );
            return ExitCode::from(2);
        }
    };

    // Pin before anything spawns a thread: threads inherit the mask.
    let mut fingerprint = host::Fingerprint::read();
    let pinned = if args.workload.pinned() {
        let cpu = fingerprint.affinity.last().copied();
        cpu.filter(|&c| host::pin_to(c))
    } else {
        None
    };
    fingerprint.affinity = host::allowed_cpus();

    let steal_before = host::steal_ms();
    let mut runner = Runner::new(args.workload.ref_units(), args.trace);
    let mut workload = Workload::new(args.workload, args.seed);
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut passes = 0;
    loop {
        if let Err(e) = workload.pass(&mut runner) {
            runner.fail(e);
            break;
        }
        passes += 1;
        if runner.ops.len() >= MIN_OPS && start.elapsed() >= budget {
            break;
        }
    }
    let measured_s = start.elapsed().as_secs_f64();
    let steal = host::steal_ms() - steal_before;

    let values = collect(&runner, &workload);
    let attempted = runner.ops.len() as u64;
    let failed = runner.ops.iter().filter(|o| !o.norm_ms.is_finite()).count() as u64;

    eprintln!(
        "perfbench {} seed={} seconds={} trace={} passes={passes} measured={measured_s:.1}s",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );
    eprintln!(
        "host: nproc={} cpu={:?} kernel={} affinity={:?} pinned={} R_NOMINAL={R_NOMINAL_MS} ms \
         steal={steal:.0}ms ref_units={}",
        fingerprint.nproc,
        fingerprint.cpu_model,
        fingerprint.kernel,
        fingerprint.affinity,
        pinned.map_or("no".into(), |c| format!("cpu{c}")),
        args.workload.ref_units(),
    );
    let samples = sample_counts(&runner);
    eprintln!(
        "{:<26} {:>16} {:<6} {:>7}",
        "metric", "value", "unit", "samples"
    );
    // Timed runs also show the host diagnostics; traced runs show every
    // per-layer metric (host diagnostics included).
    let specs: &[Spec] = if args.trace { PER_LAYER } else { END_TO_END };
    let host_rows = PER_LAYER
        .iter()
        .filter(|s| !args.trace && s.name.starts_with("host."));
    for s in specs.iter().chain(host_rows) {
        let n = samples.get(s.name).copied().unwrap_or(1);
        eprintln!(
            "{:<26} {:>16.4} {:<6} {:>7}",
            s.name, values[s.name], s.unit, n
        );
    }
    eprintln!(
        "{:<26} {:>16.4} {:<6} {:>7}",
        "failed_ratio",
        failed as f64 / attempted.max(1) as f64,
        "ratio",
        attempted
    );
    if args.trace {
        let table = layer_table(&runner);
        eprint!("{table}");
        if let Err(e) = write_trace_files(args.workload, &runner, &table) {
            runner.fail(format!("writing trace output: {e}"));
        }
    }
    for f in &runner.failures {
        eprintln!("FAILED: {f}");
    }

    let correct = runner.failures.is_empty() && attempted > 0;
    println!(
        "{}",
        metrics::result_line(correct, attempted, failed, specs, &values)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every metric of the catalogue, from one run.
fn collect(r: &Runner, w: &Workload) -> BTreeMap<&'static str, f64> {
    let norm: Vec<f64> = r.ops.iter().map(|o| o.norm_ms).collect();
    let raw: Vec<f64> = r.ops.iter().map(|o| o.raw_ms).collect();
    let setup = |f: fn(&runner::SetupSample) -> f64| -> f64 {
        median(&r.setups.iter().map(f).collect::<Vec<_>>())
    };
    let mut v = BTreeMap::new();
    v.insert("latency_p50_ms", percentile(&norm, 50.0));
    v.insert("latency_p90_ms", percentile(&norm, 90.0));
    v.insert("setup_s", setup(|s| s.total_s));
    v.insert("objective", w.objective().map_or(f64::NAN, |o| o as f64));
    v.insert("peak_rss_mb", host::peak_rss_mb());

    // Shares of the traced operations' time spent in each named call.
    let traced_ms: f64 = r.ops.iter().filter(|o| o.traced).map(|o| o.raw_ms).sum();
    for s in PER_LAYER.iter().filter(|s| s.unit == "%") {
        let span = s.name.trim_end_matches("_pct");
        let ms = r.tracer.total(span).as_secs_f64() * 1e3;
        v.insert(
            s.name,
            if traced_ms > 0.0 {
                100.0 * ms / traced_ms
            } else {
                0.0
            },
        );
    }
    // Per-operation counts (median over traced operations); a layer the
    // workload never reached counts 0.
    for s in PER_LAYER
        .iter()
        .filter(|s| matches!(s.unit, "count" | "ppm"))
    {
        let c = r.counts.get(s.name).map_or(0.0, |c| median(c));
        v.insert(s.name, c);
    }
    let (warm, solves) = w.warm;
    v.insert(
        "core.warm_ratio",
        if solves > 0 {
            warm as f64 / solves as f64
        } else {
            0.0
        },
    );
    v.insert("core.first_solve_ms", setup(|s| s.first_solve_ms));
    v.insert("io.open_ms", setup(|s| s.open_ms));
    v.insert("gen.inputs_ms", setup(|s| s.gen_ms));
    v.insert(
        "graph.row_fill_ms",
        if r.probe_ms.is_empty() {
            f64::NAN
        } else {
            median(&r.probe_ms)
        },
    );
    v.insert("host.ref_ms", median(&r.ref_ms));
    v.insert("host.ref_discarded", r.ref_discarded as f64);
    v.insert("host.raw_p50_ms", percentile(&raw, 50.0));
    v.insert("host.raw_p90_ms", percentile(&raw, 90.0));
    v.insert("host.ops", r.ops.len() as f64);
    let p50 = |traced: bool| {
        let s: Vec<f64> = r
            .ops
            .iter()
            .filter(|o| o.traced == traced)
            .map(|o| o.norm_ms)
            .collect();
        percentile(&s, 50.0)
    };
    v.insert("trace.overhead_ms", p50(true) - p50(false));
    v
}

/// Samples behind each metric, for the report.
fn sample_counts(r: &Runner) -> BTreeMap<&'static str, usize> {
    let traced = r.ops.iter().filter(|o| o.traced).count();
    let mut n = BTreeMap::new();
    for s in PER_LAYER {
        n.insert(s.name, traced);
    }
    for name in [
        "latency_p50_ms",
        "latency_p90_ms",
        "host.raw_p50_ms",
        "host.raw_p90_ms",
    ] {
        n.insert(name, r.ops.len());
    }
    for name in [
        "setup_s",
        "core.first_solve_ms",
        "io.open_ms",
        "gen.inputs_ms",
    ] {
        n.insert(name, r.setups.len());
    }
    n.insert("graph.row_fill_ms", r.probe_ms.len());
    n.insert("host.ref_ms", r.ref_ms.len());
    n.insert("host.ops", r.ops.len());
    n
}

/// Self time and share of the traced operations, per span name.
fn layer_table(r: &Runner) -> String {
    let traced: Vec<f64> = r
        .ops
        .iter()
        .filter(|o| o.traced)
        .map(|o| o.raw_ms)
        .collect();
    let total: f64 = traced.iter().sum();
    let ops = traced.len().max(1) as f64;
    let mut out = format!(
        "layer self time over {} traced operations ({:.3} ms each on average)\n\
         {:<10} {:<22} {:>12} {:>8}\n",
        traced.len(),
        total / ops,
        "layer",
        "span",
        "ms/op",
        "share%"
    );
    let mut by_layer: BTreeMap<&str, f64> = BTreeMap::new();
    for (name, d) in r.tracer.self_times() {
        let ms = d.as_secs_f64() * 1e3;
        *by_layer.entry(trace::layer_of(name)).or_default() += ms;
        out.push_str(&format!(
            "{:<10} {:<22} {:>12.4} {:>8.2}\n",
            trace::layer_of(name),
            name,
            ms / ops,
            100.0 * ms / total.max(f64::MIN_POSITIVE)
        ));
    }
    for (layer, ms) in by_layer {
        out.push_str(&format!(
            "{:<10} {:<22} {:>12.4} {:>8.2}\n",
            layer,
            "(layer total)",
            ms / ops,
            100.0 * ms / total.max(f64::MIN_POSITIVE)
        ));
    }
    out
}

/// Write `out/<workload>.trace.json` (Chrome trace) and
/// `out/<workload>.layers.txt` next to this package's manifest.
fn write_trace_files(kind: Kind, r: &Runner, table: &str) -> std::io::Result<()> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    std::fs::write(
        dir.join(format!("{}.trace.json", kind.name())),
        r.tracer.to_chrome_json(),
    )?;
    std::fs::write(dir.join(format!("{}.layers.txt", kind.name())), table)?;
    Ok(())
}
