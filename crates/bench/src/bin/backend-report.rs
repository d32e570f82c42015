//! `backend-report`: the machine-readable row-engine speed report.
//!
//! ```text
//! cargo run --release -p mcfs-bench --bin backend-report \
//!     [-- --out PATH] [--sizes 10000,100000,1000000] [--reps N]
//! ```
//!
//! Generates dense-grid city networks at each size and times cold
//! one-to-all row fills two ways: the binary-heap reference
//! ([`dijkstra_all`], cell `heap`) and the oracle's arena search
//! ([`fill_row`], cell `bucket`). Sampling is *paired*: each rep times
//! both engines back to back from the same source before moving to the
//! next source, so machine-load drift lands on both equally and cancels
//! out of the per-rep ratio. The engine that runs first alternates from
//! rep to rep: each fill evicts the other's working set from the cache,
//! so a fixed order would always time one engine cold and the other warm.
//! The published `speedup_vs_heap` is the median
//! of those per-rep ratios; `row_fill_ms` is the per-engine median. Arena
//! warm-up runs outside the timed window — what is measured is the
//! steady-state per-customer cost solvers pay. The arena is cross-checked
//! against the reference on the first and last sources, so a
//! wrong-but-fast fill can never produce a flattering report.
//!
//! Output lands in `BENCH_PR7.json` at the repository root (or `--out`):
//!
//! ```json
//! {
//!   "100000": {
//!     "heap":   {"row_fill_ms": ..., "speedup_vs_heap": 1.0, ...},
//!     "bucket": {"row_fill_ms": ..., "speedup_vs_heap": ...}
//!   },
//!   ...
//! }
//! ```
//!
//! The CI `backend-suites` job gates on `bucket.speedup_vs_heap >= 3.0`
//! at the 100k size.

use std::process::ExitCode;
use std::time::Instant;

use mcfs_gen::city::{generate_city, CitySpec, CityStyle};
use mcfs_graph::{dijkstra_all, fill_row, Dist, Graph, NodeId};

/// A one-to-all row fill from `source` into `out`.
type Fill = fn(&Graph, NodeId, &mut Vec<Dist>);

/// The two engines, reference first; the name is the JSON cell key.
const ENGINES: [(&str, Fill); 2] = [
    ("heap", |g, s, out| *out = dijkstra_all(g, s)),
    ("bucket", |g, s, out| {
        fill_row(g, s, out);
    }),
];

struct Cell {
    name: &'static str,
    row_fill_ms: f64,
    speedup_vs_heap: f64,
}

fn city(target_nodes: usize) -> Graph {
    generate_city(&CitySpec {
        name: "BackendReportCity",
        target_nodes,
        style: CityStyle::Grid,
        // Dense urban core: short blocks keep edge weights small, the
        // regime the bucket ring is sized for and road networks live in.
        avg_edge_len: 15.0,
        seed: 0x7_BEAC + target_nodes as u64,
    })
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs[xs.len() / 2]
}

/// Paired measurement of both engines on `g` over `reps` sources.
fn measure(g: &Graph, reps: usize) -> Vec<Cell> {
    let n = g.num_nodes() as u32;
    let mut row = Vec::new();
    // One untimed fill each: arena sizing, buffer capacity.
    for (_, fill) in ENGINES {
        fill(g, 0, &mut row);
    }
    let stride = (n / reps.max(1) as u32).max(1) | 1;
    // Paired reps: both engines fill from the same source back to back,
    // so within-run machine drift cancels out of the per-rep ratio. Even
    // reps run the heap first, odd reps the arena first.
    let mut samples = vec![Vec::with_capacity(reps); ENGINES.len()];
    for i in 0..reps {
        let source = (1 + i as u32 * stride) % n;
        for e in 0..ENGINES.len() {
            let engine = (e + i) % ENGINES.len();
            let t0 = Instant::now();
            (ENGINES[engine].1)(g, source, &mut row);
            samples[engine].push(t0.elapsed().as_secs_f64() * 1e3);
        }
    }
    // Exactness spot-check on the first and last timed sources.
    for i in [0, reps - 1] {
        let source = (1 + i as u32 * stride) % n;
        let reference = dijkstra_all(g, source);
        fill_row(g, source, &mut row);
        assert_eq!(
            row, reference,
            "the arena produced a wrong row from {source} on {n} nodes"
        );
    }
    ENGINES
        .iter()
        .enumerate()
        .map(|(bi, &(name, _))| Cell {
            name,
            row_fill_ms: median(samples[bi].clone()),
            speedup_vs_heap: median(
                samples[0]
                    .iter()
                    .zip(&samples[bi])
                    .map(|(h, b)| h / b)
                    .collect(),
            ),
        })
        .collect()
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_PR7.json").to_owned();
    let mut sizes: Vec<usize> = vec![10_000, 100_000, 1_000_000];
    let mut reps = 11usize;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        match (flag.as_str(), it.next()) {
            ("--out", Some(v)) => out_path.clone_from(v),
            ("--sizes", Some(v)) => {
                sizes = v
                    .split(',')
                    .map(|s| s.trim().parse().expect("--sizes wants integers"))
                    .collect();
            }
            ("--reps", Some(v)) => reps = v.parse().expect("--reps wants an integer"),
            (other, _) => {
                eprintln!(
                    "unknown or incomplete flag {other:?}\n\
                     usage: backend-report [--out PATH] [--sizes A,B,C] [--reps N]"
                );
                return ExitCode::FAILURE;
            }
        }
    }

    let mut out = String::from("{\n");
    for (si, &size) in sizes.iter().enumerate() {
        let g = city(size);
        eprintln!(
            "# {size}-node request -> {} nodes / {} arcs",
            g.num_nodes(),
            g.num_arcs()
        );
        let cells = measure(&g, reps);
        out.push_str(&format!("  \"{size}\": {{\n"));
        for (ci, cell) in cells.iter().enumerate() {
            eprintln!(
                "  {:>6}: {:.3} ms/row ({:.2}x vs heap)",
                cell.name, cell.row_fill_ms, cell.speedup_vs_heap
            );
            out.push_str(&format!(
                "    \"{}\": {{\"row_fill_ms\": {:.4}, \"speedup_vs_heap\": {:.3}, \
                 \"nodes\": {}, \"arcs\": {}}}{}\n",
                cell.name,
                cell.row_fill_ms,
                cell.speedup_vs_heap,
                g.num_nodes(),
                g.num_arcs(),
                if ci + 1 == cells.len() { "" } else { "," }
            ));
        }
        out.push_str(&format!(
            "  }}{}\n",
            if si + 1 == sizes.len() { "" } else { "," }
        ));
    }
    out.push_str("}\n");
    print!("{out}");
    if let Err(e) = std::fs::write(&out_path, &out) {
        eprintln!("cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("# wrote {out_path}");
    ExitCode::SUCCESS
}
