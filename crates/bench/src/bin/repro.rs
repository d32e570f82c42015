//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro <experiment-id>... [--scale S] [--out FILE]
//! repro all [--scale S] [--out FILE]
//! repro list
//! repro solve INSTANCE.mcfs [--solver NAME] [--solution FILE]
//! ```
//!
//! Experiment ids mirror the paper (`fig6a`…`fig13b`, `table3`, `table4`).
//! `--scale` shrinks problem sizes uniformly (default 0.25); `--out` appends
//! the markdown tables to a file (e.g. EXPERIMENTS.md) in addition to
//! stdout; `--csv DIR` additionally writes one `<id>.csv` per experiment
//! for plotting scripts.

use std::io::Write;

use mcfs_bench::experiments::{run_experiment, ALL_IDS};

/// Solvers selectable from the command line.
fn solver_by_name(name: &str) -> Option<Box<dyn mcfs::Solver>> {
    use mcfs::refine::LocalSearch;
    Some(match name {
        "wma" => Box::new(mcfs::Wma::new()),
        "wma-ls" => Box::new(LocalSearch::default().wrap(mcfs::Wma::new())),
        "naive" => Box::new(mcfs::WmaNaive::new()),
        "uf" => Box::new(mcfs::UniformFirst::new()),
        "hilbert" => Box::new(mcfs_baselines::HilbertBaseline::new()),
        "brnn" => Box::new(mcfs_baselines::BrnnBaseline::new()),
        "exact" => Box::new(mcfs_exact::BranchAndBound::new()),
        _ => return None,
    })
}

/// `repro solve`: load an instance file, solve, verify, report, and
/// optionally archive the solution.
fn solve_file(args: &[String]) -> Result<(), String> {
    let mut path: Option<&str> = None;
    let mut solver_name = "wma".to_string();
    let mut out: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--solver" => solver_name = it.next().ok_or("--solver needs a name")?.clone(),
            "--solution" => out = Some(it.next().ok_or("--solution needs a path")?.clone()),
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            other => path = Some(other),
        }
    }
    let path = path.ok_or("solve needs an instance file")?;
    let solver = solver_by_name(&solver_name).ok_or_else(|| {
        format!("unknown solver {solver_name:?} (wma|wma-ls|naive|uf|hilbert|brnn|exact)")
    })?;

    let file = std::fs::File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let owned = mcfs_io::read_instance(std::io::BufReader::new(file))
        .map_err(|e| format!("cannot parse {path}: {e}"))?;
    let inst = owned
        .instance()
        .map_err(|e| format!("invalid instance: {e}"))?;
    eprintln!(
        "instance: {} nodes, {} customers, {} candidates, k={}",
        inst.graph().num_nodes(),
        inst.num_customers(),
        inst.num_facilities(),
        inst.k()
    );
    let t0 = std::time::Instant::now();
    let sol = solver
        .solve(&inst)
        .map_err(|e| format!("{} failed: {e}", solver.name()))?;
    let dt = t0.elapsed();
    inst.verify(&sol)
        .map_err(|e| format!("solution failed verification: {e:?}"))?;
    println!(
        "{}: objective {} with {} facilities in {dt:.2?} (verified)",
        solver.name(),
        sol.objective,
        sol.facilities.len()
    );
    if let Some(out) = out {
        let mut f = std::fs::File::create(&out).map_err(|e| format!("cannot create {out}: {e}"))?;
        mcfs_io::write_solution(&mut f, &sol).map_err(|e| format!("cannot write {out}: {e}"))?;
        eprintln!("solution archived to {out}");
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage_and_exit();
    }

    let mut ids: Vec<String> = Vec::new();
    let mut scale = 0.25f64;
    let mut out: Option<String> = None;
    let mut csv_dir: Option<String> = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                scale = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--scale needs a number"));
            }
            "--out" => {
                out = Some(it.next().unwrap_or_else(|| die("--out needs a path")));
            }
            "--csv" => {
                csv_dir = Some(it.next().unwrap_or_else(|| die("--csv needs a directory")));
            }
            "list" => {
                for id in ALL_IDS {
                    println!("{id}");
                }
                return;
            }
            "solve" => {
                let rest: Vec<String> = it.collect();
                if let Err(e) = solve_file(&rest) {
                    die(&e);
                }
                return;
            }
            "all" => ids.extend(ALL_IDS.iter().map(|s| s.to_string())),
            other if other.starts_with("--") => die(&format!("unknown flag {other}")),
            other => ids.push(other.to_string()),
        }
    }
    if ids.is_empty() {
        usage_and_exit();
    }
    // Check every id before running any: a typo late in the list must not
    // surface only after the earlier experiments have run.
    let unknown: Vec<&str> = ids
        .iter()
        .map(String::as_str)
        .filter(|id| !ALL_IDS.contains(id))
        .collect();
    if !unknown.is_empty() {
        die(&format!(
            "unknown experiment id: {} (try `repro list`)",
            unknown.join(", ")
        ));
    }

    let mut file = out.map(|p| {
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&p)
            .unwrap_or_else(|e| die(&format!("cannot open {p}: {e}")))
    });

    for id in &ids {
        eprintln!("== running {id} (scale {scale}) ==");
        let report = run_experiment(id, scale).expect("ids are checked against ALL_IDS");
        report.print();
        if let Some(f) = file.as_mut() {
            writeln!(f, "{}", report.to_markdown()).expect("write report");
        }
        if let Some(dir) = &csv_dir {
            std::fs::create_dir_all(dir).expect("create csv dir");
            let path = std::path::Path::new(dir).join(format!("{id}.csv"));
            std::fs::write(&path, report.to_csv()).expect("write csv");
        }
    }
}

fn usage_and_exit() -> ! {
    eprintln!("usage: repro <id>...|all|list [--scale S] [--out FILE] [--csv DIR]");
    eprintln!("       repro solve INSTANCE.mcfs [--solver NAME] [--solution FILE]");
    std::process::exit(2);
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}
