//! The four workloads: their inputs, one pass of each, and the checks
//! that every result must pass.
//!
//! A run is a sequence of passes. Each pass is one set-up (generate the
//! inputs, hand them to the library as instance text, run one untimed
//! warm-up operation) followed by a fixed number of timed operations, so
//! every pass replays the same operation sequence and a run measures
//! several set-ups. Every operation is closed-loop from this one thread.

use std::time::{Duration, Instant};

use mcfs_repro::cluster::{ClusterOutcome, ClusterSolver};
use mcfs_repro::core::{Edit, Facility, McfsInstance, Solution, SolveStats, Wma, WmaRun};
use mcfs_repro::gen::bikes::generate_stations;
use mcfs_repro::gen::customers::uniform_customers;
use mcfs_repro::gen::{generate_city, generate_synthetic, CitySpec, CityStyle, SyntheticConfig};
use mcfs_repro::graph::{connected_components, DistanceOracle, NodeId};
use mcfs_repro::io::{read_instance, write_instance, OwnedInstance};
use mcfs_repro::server::{Client, OpenKind, ServerConfig, ServerHandle};

use crate::rng::SplitMix;
use crate::runner::{Probe, Runner, SetupParts};

/// Fewest timed operations in a run: the p90 then has at least ten samples
/// beyond it.
pub const MIN_OPS: usize = 100;

/// Session name used by `served`.
const SESSION: &str = "city";
/// Customers each `served` what-if moves.
const MOVED: usize = 4;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Cold WMA solve of repro's Fig. 6a instance at n = 4096.
    Fig6a,
    /// Cold WMA solve of the report city (lazy distance streams).
    City,
    /// The same city through the in-process cluster solver, two shards.
    CitySharded,
    /// Planner what-ifs (EDIT, SOLVE, ASSIGNMENT) against an in-process
    /// server holding the city.
    Served,
}

impl Kind {
    /// Every workload the command runs. `BENCHMARK.json` lists all but
    /// `fig6a`, whose normalized latency is not steady enough on the
    /// development host (see README.md).
    pub const ALL: [Kind; 4] = [Kind::Fig6a, Kind::City, Kind::CitySharded, Kind::Served];

    /// Name as given to `--workload`.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Fig6a => "fig6a",
            Kind::City => "city",
            Kind::CitySharded => "city-sharded",
            Kind::Served => "served",
        }
    }

    /// Parse a `--workload` value.
    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Whether the run is pinned to one CPU. Single-threaded solves and the
    /// served path (about a dozen cross-thread hand-offs per what-if) are;
    /// the sharded solve exists to use both CPUs.
    pub fn pinned(self) -> bool {
        self != Kind::CitySharded
    }

    /// Reference units per sample. Longer samples track the host better
    /// (they average over more of its short-term speed changes); the batch
    /// operations are long enough to afford about 25 ms of reference
    /// between them, while a `served` what-if takes about as long as one
    /// unit.
    pub fn ref_units(self) -> usize {
        match self {
            Kind::Served => 1,
            _ => 2,
        }
    }

    /// Timed operations per pass: a few seconds of work, so a run holds
    /// several set-ups. On `served` it also bounds the oracle cache to
    /// `128 + 4·(ops + 1)` rows (≈170 MB), so a pass never reaches the
    /// cache's 4096-row eviction bound.
    pub fn pass_ops(self) -> usize {
        match self {
            Kind::Fig6a | Kind::CitySharded => 20,
            Kind::City => 25,
            Kind::Served => 150,
        }
    }
}

/// Repro's Fig. 6a instance at n = 4096: α = 2, m = 0.1n, k = 0.1m, c = 20,
/// every node a candidate, with the seed `repro fig6a` uses at that size.
pub fn fig6a_inputs() -> OwnedInstance {
    let seed = 0x6A + 3;
    let graph = generate_synthetic(&SyntheticConfig::uniform(4096, 2.0, seed));
    let customers = uniform_customers(&graph, 409, seed ^ 0xC057);
    let facilities = graph
        .nodes()
        .map(|node| Facility { node, capacity: 20 })
        .collect();
    OwnedInstance {
        graph,
        customers,
        facilities,
        k: 41,
    }
}

/// The grid city of `backend-report`/`shard-report` at 30k target nodes
/// (28 100 nodes), with 128 uniform customers and 16 stations of capacity
/// 22, k = 12.
pub fn city_inputs() -> OwnedInstance {
    let target = 30_000;
    let graph = generate_city(&CitySpec {
        name: "BackendReportCity",
        target_nodes: target,
        style: CityStyle::Grid,
        avg_edge_len: 15.0,
        seed: 0x7_BEAC + target as u64,
    });
    let customers = uniform_customers(&graph, 128, 0xC11 + target as u64);
    let k = 12;
    let capacity = (customers.len() * 2).div_ceil(k) as u32;
    let facilities = generate_stations(&graph, 16, 0xB1 + target as u64)
        .into_iter()
        .map(|s| Facility {
            node: s.node,
            capacity,
        })
        .collect();
    OwnedInstance {
        graph,
        customers,
        facilities,
        k,
    }
}

/// Serialize inputs as the instance text the library reads.
pub fn instance_text(inputs: &OwnedInstance) -> Result<String, String> {
    let inst = inputs.instance().map_err(|e| format!("inputs: {e}"))?;
    let mut buf = Vec::new();
    write_instance(&mut buf, &inst).map_err(|e| format!("write_instance: {e}"))?;
    String::from_utf8(buf).map_err(|e| format!("instance text: {e}"))
}

/// The `served` edit script: `MOVED` fresh nodes per what-if, drawn
/// without replacement from the nodes of station-holding components that
/// are not base customers, so every arrival fills a new oracle row and the
/// instance stays feasible.
#[derive(Debug, PartialEq, Eq)]
pub struct EditScript {
    nodes: Vec<NodeId>,
}

impl EditScript {
    /// Script for `whatifs` what-ifs (the warm-up is what-if 0).
    pub fn new(inputs: &OwnedInstance, whatifs: usize, seed: u64) -> Result<EditScript, String> {
        let cc = connected_components(&inputs.graph);
        let mut served = vec![false; cc.count];
        for f in &inputs.facilities {
            served[cc.of(f.node) as usize] = true;
        }
        let mut taken = vec![false; inputs.graph.num_nodes()];
        for &c in &inputs.customers {
            taken[c as usize] = true;
        }
        let mut pool: Vec<NodeId> = inputs
            .graph
            .nodes()
            .filter(|&v| served[cc.of(v) as usize] && !taken[v as usize])
            .collect();
        let want = whatifs * MOVED;
        if pool.len() < want {
            return Err(format!(
                "only {} free nodes for {want} arrivals",
                pool.len()
            ));
        }
        let mut rng = SplitMix(seed);
        for i in 0..want {
            let j = i + rng.below(pool.len() - i);
            pool.swap(i, j);
        }
        pool.truncate(want);
        Ok(EditScript { nodes: pool })
    }

    /// Arrivals of what-if `i`.
    pub fn arrivals(&self, i: usize) -> &[NodeId] {
        &self.nodes[i * MOVED..(i + 1) * MOVED]
    }
}

/// Cross-pass state of a run: what every pass must reproduce.
pub struct Workload {
    kind: Kind,
    seed: u64,
    /// Objective of each operation of the first pass; later passes must
    /// match it position by position.
    expected: Vec<u64>,
    /// Last solution that passed `verify` (identical ones are not
    /// re-verified).
    verified: Option<Solution>,
    /// `served`: (warm SOLVEs, SOLVEs) over timed operations.
    pub warm: (u64, u64),
}

impl Workload {
    /// Fresh state for `kind`.
    pub fn new(kind: Kind, seed: u64) -> Workload {
        Workload {
            kind,
            seed,
            expected: Vec::new(),
            verified: None,
            warm: (0, 0),
        }
    }

    /// The end-to-end objective, once a pass has completed: the per-solve
    /// cost of a batch workload, the sum over one pass's SOLVEs on `served`.
    pub fn objective(&self) -> Option<u64> {
        match self.kind {
            Kind::Served => (!self.expected.is_empty()).then(|| self.expected.iter().sum()),
            _ => self.expected.first().copied(),
        }
    }

    /// Run one pass. An `Err` aborts the run (set-up failed, or the pass
    /// can no longer continue meaningfully); operation failures are
    /// recorded in the runner and the pass goes on where it can.
    pub fn pass(&mut self, r: &mut Runner) -> Result<(), String> {
        match self.kind {
            Kind::Served => self.served_pass(r),
            _ => self.batch_pass(r),
        }
    }

    /// Check an operation's objective against the first pass.
    fn check_objective(&mut self, index: usize, objective: u64) -> Result<(), String> {
        let want = match self.kind {
            Kind::Served => index,
            _ => 0,
        };
        match self.expected.get(want) {
            Some(&e) if e != objective => Err(format!("objective {objective}, expected {e}")),
            Some(_) => Ok(()),
            None => {
                self.expected.push(objective);
                Ok(())
            }
        }
    }

    /// `verify` a solution unless it is identical to the last verified one.
    fn verify(&mut self, inst: &McfsInstance, sol: &Solution) -> Result<(), String> {
        if self.verified.as_ref() == Some(sol) {
            return Ok(());
        }
        inst.verify(sol).map_err(|e| format!("verify: {e}"))?;
        self.verified = Some(sol.clone());
        Ok(())
    }

    fn batch_pass(&mut self, r: &mut Runner) -> Result<(), String> {
        let setup = r.begin_setup();
        let mut parts = SetupParts::default();
        let t = Instant::now();
        let inputs = match self.kind {
            Kind::Fig6a => fig6a_inputs(),
            _ => city_inputs(),
        };
        let text = instance_text(&inputs)?;
        drop(inputs);
        parts.gen = t.elapsed();
        setup_span(r, setup.span(), "gen.inputs", t);

        let t = Instant::now();
        let owned = read_instance(text.as_bytes()).map_err(|e| format!("read_instance: {e}"))?;
        let inst = owned.instance().map_err(|e| format!("instance: {e}"))?;
        parts.open = t.elapsed();
        setup_span(r, setup.span(), "io.read_instance", t);

        let t = Instant::now();
        let warmup = batch_op(self.kind, &inst, r.traced(), None)?;
        parts.first_solve = t.elapsed();
        setup_span(r, setup.span(), "core.first_solve", t);
        r.end_setup(setup, parts);
        self.check_batch(&inst, &warmup)?;

        if r.traced() {
            probe_oracle(r, &owned);
        }
        for i in 0..self.kind.pass_ops() {
            // Odd operations of the traced run are traced; the even ones
            // time the same work untraced, for the overhead figure.
            let traced = i % 2 == 1;
            let done = r.time_op(traced, |p| batch_op(self.kind, &inst, traced, p));
            if let Some(result) = done {
                if let Err(e) = self.check_batch(&inst, &result) {
                    r.fail_last(e);
                }
            }
        }
        Ok(())
    }

    fn check_batch(&mut self, inst: &McfsInstance, result: &BatchResult) -> Result<(), String> {
        let sol = match result {
            BatchResult::Single(run) => &run.solution,
            BatchResult::Sharded(out) => {
                if out.gap_bound_ppm().is_none() {
                    return Err("sharded solve carries no gap_bound_ppm".into());
                }
                &out.solution
            }
        };
        self.verify(inst, sol)?;
        self.check_objective(0, sol.objective)
    }

    fn served_pass(&mut self, r: &mut Runner) -> Result<(), String> {
        let whatifs = self.kind.pass_ops();
        let setup = r.begin_setup();
        let mut parts = SetupParts::default();
        let t = Instant::now();
        let inputs = city_inputs();
        let text = instance_text(&inputs)?;
        let script = EditScript::new(&inputs, whatifs + 1, self.seed)?;
        parts.gen = t.elapsed();
        setup_span(r, setup.span(), "gen.inputs", t);

        let server = ServerHandle::start(ServerConfig::default());
        let mut client = server.connect().map_err(|e| format!("connect: {e}"))?;
        let t = Instant::now();
        client
            .open_text(SESSION, OpenKind::Instance, &text)
            .map_err(|e| format!("OPEN: {e}"))?;
        parts.open = t.elapsed();
        setup_span(r, setup.span(), "io.open", t);

        let t = Instant::now();
        client
            .solve(SESSION)
            .map_err(|e| format!("first SOLVE: {e}"))?;
        parts.first_solve = t.elapsed();
        setup_span(r, setup.span(), "core.first_solve", t);

        // The local replica of the session's customer list.
        let base = inputs.customers.len();
        let mut customers = inputs.customers.clone();
        let warmup: Vec<Edit> = script
            .arrivals(0)
            .iter()
            .map(|&node| Edit::AddCustomer { node })
            .collect();
        client
            .edit(SESSION, &warmup)
            .and_then(|_| client.solve(SESSION))
            .and_then(|_| client.solution(SESSION))
            .map_err(|e| format!("warm-up what-if: {e}"))?;
        customers.extend_from_slice(script.arrivals(0));
        r.end_setup(setup, parts);

        if r.traced() {
            probe_oracle(r, &inputs);
        }
        let mut last: Option<Solution> = None;
        for i in 1..=whatifs {
            let mut edits = vec![Edit::RemoveCustomer { index: base }; MOVED];
            edits.extend(
                script
                    .arrivals(i)
                    .iter()
                    .map(|&node| Edit::AddCustomer { node }),
            );
            customers.truncate(base);
            customers.extend_from_slice(script.arrivals(i));
            let traced = i % 2 == 0;
            let Some(w) = r.time_op(traced, |p| whatif(&mut client, &edits, p)) else {
                // The session state is unknown after a failed what-if.
                return Err(format!("what-if {i} failed; pass abandoned"));
            };
            self.warm.1 += 1;
            self.warm.0 += u64::from(w.warm);
            let check = if w.objective != w.solution.objective {
                Err(format!(
                    "SOLVE objective {} but ASSIGNMENT objective {}",
                    w.objective, w.solution.objective
                ))
            } else if w.solution.assignment.len() != customers.len() {
                Err("assignment does not cover the edited customer list".into())
            } else {
                self.check_objective(i - 1, w.objective)
            };
            if let Err(e) = check {
                r.fail_last(e);
            }
            last = Some(w.solution);
        }
        drop(client);
        server.shutdown();

        // The replayed instance must accept the final solution, at the cost
        // a cold solve of it reaches.
        let replay = OwnedInstance {
            customers,
            ..inputs
        };
        let inst = replay
            .instance()
            .map_err(|e| format!("replayed instance: {e}"))?;
        let sol = last.ok_or("no what-if completed")?;
        if let Err(e) = inst.verify(&sol) {
            r.fail(format!("final served solution: verify: {e}"));
        }
        match Wma::new().threads(1).run(&inst) {
            Ok(cold) if cold.solution.objective == sol.objective => {}
            Ok(cold) => r.fail(format!(
                "final served objective {} but a cold solve of the replayed instance gives {}",
                sol.objective, cold.solution.objective
            )),
            Err(e) => r.fail(format!("cold solve of the replayed instance: {e}")),
        }
        Ok(())
    }
}

/// One batch solve; with a probe, record its call span, phase split
/// and counts.
fn batch_op(
    kind: Kind,
    inst: &McfsInstance,
    with_stats: bool,
    probe: Option<&mut Probe>,
) -> Result<BatchResult, String> {
    let wma = if with_stats {
        Wma::new().threads(1).with_stats()
    } else {
        Wma::new().threads(1)
    };
    let start = Instant::now();
    let result = if kind == Kind::CitySharded {
        ClusterSolver::new(2)
            .solver(wma)
            .solve(inst)
            .map(BatchResult::Sharded)
    } else {
        wma.run(inst).map(BatchResult::Single)
    };
    let result = result.map_err(|e| format!("solve: {e}"))?;
    let Some(p) = probe else {
        return Ok(result);
    };
    let end = Instant::now();
    match &result {
        BatchResult::Single(run) => {
            let span = p.span("core.wma_run", start, end);
            p.phases(
                span,
                &phase_spans(&run.solve_stats, &CORE_PHASES, "core.other"),
            );
            record_solve_counts(p, &run.solve_stats);
            p.count("core.iterations", run.stats.num_iterations() as u64);
            let last = run.stats.iterations.last();
            p.count(
                "flow.residual_searches",
                last.map_or(0, |s| s.dijkstra_runs),
            );
            p.count("flow.edges_added", last.map_or(0, |s| s.edges_in_gb));
        }
        BatchResult::Sharded(out) => {
            let span = p.span("cluster.solve", start, end);
            p.phases(
                span,
                &phase_spans(&out.stats, &CLUSTER_PHASES, "cluster.other"),
            );
            record_solve_counts(p, &out.stats);
            p.count("cluster.boundary_moved", out.boundary_moved as u64);
            p.count("cluster.budget_moves", out.budget_moves as u64);
            p.count("cluster.gap_ppm", out.gap_bound_ppm().unwrap_or(0));
        }
    }
    Ok(result)
}

/// A batch operation's result.
enum BatchResult {
    Single(WmaRun),
    Sharded(ClusterOutcome),
}

/// What one `served` what-if returns.
struct WhatIf {
    objective: u64,
    warm: bool,
    solution: Solution,
}

/// One planner what-if: EDIT, SOLVE, ASSIGNMENT (plus STATS when traced).
fn whatif(
    client: &mut Client,
    edits: &[Edit],
    probe: Option<&mut Probe>,
) -> Result<WhatIf, String> {
    let t0 = Instant::now();
    client
        .edit(SESSION, edits)
        .map_err(|e| format!("EDIT: {e}"))?;
    let t1 = Instant::now();
    let reply = client.solve(SESSION).map_err(|e| format!("SOLVE: {e}"))?;
    let t2 = Instant::now();
    let solution = client
        .solution(SESSION)
        .map_err(|e| format!("ASSIGNMENT: {e}"))?;
    let t3 = Instant::now();
    let kv = |key: &str| -> Result<u64, String> {
        reply
            .kv(key)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("SOLVE reply lacks {key}"))
    };
    let out = WhatIf {
        objective: kv("objective")?,
        warm: kv("warm")? == 1,
        solution,
    };
    let Some(p) = probe else {
        return Ok(out);
    };
    let wall = Duration::from_micros(kv("wall_us")?);
    let stats = client.stats(SESSION).map_err(|e| format!("STATS: {e}"))?;
    let t4 = Instant::now();
    p.span("server.edit", t0, t1);
    let solve = p.span("server.solve", t1, t2);
    p.span("server.assignment", t2, t3);
    p.span("server.stats", t3, t4);
    let stat = |key: &str| -> u64 {
        stats
            .iter()
            .find_map(|l| l.strip_prefix(key)?.strip_prefix(' ')?.parse().ok())
            .unwrap_or(0)
    };
    // The round trip minus the server's own solve wall is parse, queueing,
    // hand-offs and reply; the solve's phases follow it.
    let mut split = vec![("server.overhead", (t2 - t1).saturating_sub(wall))];
    for (phase, name) in CORE_PHASES {
        split.push((
            name,
            Duration::from_micros(stat(&format!("phase.{phase}_us"))),
        ));
    }
    p.phases(solve, &split);
    p.count("graph.rows_filled", stat("cache_misses"));
    p.count("graph.row_hits", stat("cache_hits"));
    p.count("graph.nodes_settled", stat("oracle_nodes_settled"));
    p.count("flow.augmentations", stat("augmentations"));
    Ok(out)
}

/// `SolveStats` phase names and their span names.
const CORE_PHASES: [(&str, &str); 5] = [
    ("prefetch", "core.prefetch"),
    ("matching", "core.matching"),
    ("cover", "core.cover"),
    ("provisions", "core.provisions"),
    ("assignment", "core.assignment"),
];
const CLUSTER_PHASES: [(&str, &str); 5] = [
    ("partition", "cluster.partition"),
    ("shard_solve", "cluster.shard_solve"),
    ("refine", "cluster.refine"),
    ("reconcile", "cluster.reconcile"),
    ("bound", "cluster.bound"),
];

/// A call's phase split as span names, in recording order; a phase the
/// table does not know is named `other`.
fn phase_spans(
    stats: &SolveStats,
    table: &[(&str, &'static str)],
    other: &'static str,
) -> Vec<(&'static str, Duration)> {
    stats
        .phases
        .iter()
        .map(|p| {
            let name = table
                .iter()
                .find(|(phase, _)| *phase == p.name)
                .map_or(other, |&(_, span)| span);
            (name, p.wall)
        })
        .collect()
}

fn record_solve_counts(p: &mut Probe, stats: &SolveStats) {
    p.count("flow.augmentations", stats.augmentations);
    p.count("graph.rows_filled", stats.cache_misses);
    p.count("graph.row_hits", stats.cache_hits);
    p.count("graph.nodes_settled", stats.oracle_nodes_settled);
}

/// Record a set-up part that ran from `start` until now.
fn setup_span(r: &mut Runner, parent: Option<usize>, name: &'static str, start: Instant) {
    if let Some(t) = r.tracer() {
        t.record(name, start, Instant::now(), parent, 0);
    }
}

/// Fill one oracle row per customer on a fresh single-threaded oracle:
/// the graph layer's row cost on this workload's graph.
fn probe_oracle(r: &mut Runner, inputs: &OwnedInstance) {
    r.time_probe("graph.oracle_probe", || {
        let oracle = DistanceOracle::new().with_threads(1);
        std::hint::black_box(oracle.distances_for_sources(&inputs.graph, &inputs.customers));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_byte_identical_inputs() {
        assert_eq!(
            instance_text(&fig6a_inputs()).unwrap(),
            instance_text(&fig6a_inputs()).unwrap()
        );
        let a = city_inputs();
        let b = city_inputs();
        assert_eq!(instance_text(&a).unwrap(), instance_text(&b).unwrap());
        assert_eq!(
            EditScript::new(&a, 50, 7).unwrap(),
            EditScript::new(&b, 50, 7).unwrap()
        );
        assert_ne!(
            EditScript::new(&a, 50, 7).unwrap(),
            EditScript::new(&a, 50, 8).unwrap()
        );
    }

    #[test]
    fn edit_script_arrivals_are_fresh_and_reachable() {
        let inputs = city_inputs();
        let script = EditScript::new(&inputs, 151, 42).unwrap();
        let mut nodes = script.nodes.clone();
        nodes.sort_unstable();
        nodes.dedup();
        assert_eq!(nodes.len(), 151 * MOVED, "arrivals repeat");
        assert!(nodes.iter().all(|n| !inputs.customers.contains(n)));
        // The last what-if's instance is feasible.
        let mut customers = inputs.customers.clone();
        customers.extend_from_slice(script.arrivals(150));
        let edited = OwnedInstance {
            customers,
            ..inputs
        };
        edited.instance().unwrap().check_feasibility().unwrap();
    }

    #[test]
    fn workload_names_round_trip() {
        for k in Kind::ALL {
            assert_eq!(Kind::parse(k.name()), Some(k));
        }
        assert_eq!(Kind::parse("nope"), None);
    }
}
