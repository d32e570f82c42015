//! Federated cluster solving: the coordinator side of `SOLVE shards=<n>`
//! when peer servers are configured.
//!
//! The coordinator partitions the session's instance with the same
//! [`mcfs_cluster::partition`] machinery the in-process path uses, then
//! delegates each shard to a peer `mcfs-serve` node round-robin over
//! [`crate::ServerConfig::peers`]. A shard solve on a peer is an ordinary
//! wire conversation — `OPEN` the shard sub-instance, `SOLVE`, fetch the
//! `ASSIGNMENT`, probe `±1` budgets via `EDIT set-budget` re-solves (warm
//! on the peer), `CLOSE` — so a peer needs no special role: any reachable
//! `mcfs-serve` is a valid shard worker.
//!
//! Peer failure is handled by *local re-solve*: if any step of a shard's
//! remote conversation errors (connect refused, connection dropped
//! mid-`SOLVE`, a structured error reply), the coordinator solves that
//! shard in-process with [`mcfs_cluster::solve_shard_local`] and marks the
//! shard `recovered`. The merge/reconcile/certify pipeline is shared with
//! the in-process path ([`mcfs_cluster::finish`]), so a federated solve
//! and an in-process solve of the same instance produce identical
//! solutions — federation only changes *where* shard work runs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use mcfs::{run_oracle, Edit, McfsInstance, SolveError, Wma};
use mcfs_cluster::{
    finish, partition, refine_budgets, shard_attr_ns, solve_shard_local, split_budget,
    ClusterOutcome, ClusterSolver, Shard, ShardRun,
};

use crate::client::{Client, ClientError};

/// Log2 bucket count for the per-peer conversation-wall histogram: 28
/// buckets cover 1µs .. ~2 minutes with a catch-all tail.
const PEER_RTT_BUCKETS: usize = 28;

/// Bump `mcfs_cluster_peer_requests_total{to=}` — one per federated shard
/// conversation attempted against `peer`, success or not. The label is
/// `to=` (not `peer=`) because the cluster-metrics merge reserves `peer=`
/// for the snapshot's source and rejects cells that already carry it.
fn note_peer_request(peer: &str) {
    mcfs_obs::Registry::global()
        .counter_with(
            "mcfs_cluster_peer_requests_total",
            "federated shard conversations attempted, by peer",
            &[("to", peer)],
        )
        .inc();
}

/// Record a successful shard conversation against `peer`: observe the
/// whole conversation wall in `mcfs_cluster_peer_rtt_us{to=}` and stamp
/// `mcfs_cluster_peer_last_seen_ns{to=}` with the current monotonic
/// clock (the mcfs-top PEERS pane turns this into an age).
fn note_peer_ok(peer: &str, wall: std::time::Duration) {
    let reg = mcfs_obs::Registry::global();
    reg.histogram_log2_with(
        "mcfs_cluster_peer_rtt_us",
        "federated shard conversation wall time in microseconds, by peer",
        PEER_RTT_BUCKETS,
        &[("to", peer)],
    )
    .observe(wall.as_micros() as u64);
    reg.gauge_with(
        "mcfs_cluster_peer_last_seen_ns",
        "monotonic ns timestamp of the last successful conversation, by peer",
        &[("to", peer)],
    )
    .set(mcfs_obs::now_ns());
}

/// Bump `mcfs_cluster_peer_recovered_total{to=}` — a shard delegated to
/// `peer` failed mid-conversation and was re-solved locally.
fn note_peer_recovered(peer: &str) {
    mcfs_obs::Registry::global()
        .counter_with(
            "mcfs_cluster_peer_recovered_total",
            "shard solves recovered locally after a peer failure, by peer",
            &[("to", peer)],
        )
        .inc();
}

/// Monotonic discriminator appended to peer-side session names, so
/// concurrent (or retried) federated solves from one coordinator never
/// collide on a peer's registry.
static FED_SEQ: AtomicU64 = AtomicU64::new(0);

/// Solve `inst` as a cluster of up to `want` shards, delegating shard
/// solves to `peers` (round-robin); shards whose peer fails are re-solved
/// locally. `wma` configures the local fallback and the reconciliation
/// pass.
pub(crate) fn federated_solve(
    inst: &McfsInstance,
    want: usize,
    peers: &[String],
    wma: &Wma,
) -> Result<ClusterOutcome, SolveError> {
    let fed_span = mcfs_obs::span("cluster.federate");
    inst.check_feasibility().map_err(SolveError::Infeasible)?;
    let scope = mcfs_obs::current_scope();
    // Distributed-trace context for the shard threads: each enters the
    // coordinator's trace under the federate span, opens a `cluster.rpc`
    // span, and propagates (trace, rpc-span-id) over the wire so the
    // peer's whole handling subtree splices in underneath it.
    let trace = mcfs_obs::current_trace();
    let fed_id = fed_span.id();

    let t_partition = Instant::now();
    shard_phase(
        scope,
        0,
        want as u64,
        "cluster.partition",
        mcfs_obs::PhaseState::Start,
    );
    let part = partition(inst, want);
    let n = part.num_shards() as u64;
    shard_phase(scope, n, n, "cluster.partition", mcfs_obs::PhaseState::End);
    if part.shards.is_empty() {
        // Unsharded fallback: nothing to federate, solve in-process.
        return ClusterSolver::new(1).solver(wma.clone()).solve(inst);
    }
    let mut stats = mcfs::SolveStats::default();
    stats.add_phase("partition", t_partition.elapsed());

    let budgets = split_budget(&part, inst.k());
    let probe = part.shards.len() > 1;
    let mut local_wma = wma.clone();
    // A shared full-graph oracle would panic on the salted shard
    // sub-graphs; the local fallback builds per-shard oracles instead.
    local_wma.oracle = None;

    let t_solve = Instant::now();
    let results: Vec<Option<Result<ShardRun, SolveError>>> = std::thread::scope(|sc| {
        let handles: Vec<_> = part
            .shards
            .iter()
            .enumerate()
            .map(|(s, shard)| {
                if shard.customers.is_empty() {
                    return None;
                }
                let peer = &peers[s % peers.len()];
                let wma = &local_wma;
                let base_k = budgets[s];
                Some(sc.spawn(move || {
                    // Adopt the coordinator's trace on this worker thread;
                    // the RPC span is the anchor the peer's spans splice
                    // under.
                    let _tg = (trace != 0).then(|| mcfs_obs::TraceGuard::enter(trace, fed_id));
                    let rpc = mcfs_obs::span("cluster.rpc");
                    let ctx = (trace != 0).then(|| (trace, rpc.id()));
                    shard_phase(
                        scope,
                        s as u64,
                        n,
                        "cluster.solve",
                        mcfs_obs::PhaseState::Start,
                    );
                    note_peer_request(peer);
                    let t_conv = Instant::now();
                    let out = match solve_shard_remote(peer, shard, base_k, probe, ctx) {
                        Ok(run) => {
                            let wall = t_conv.elapsed();
                            note_peer_ok(peer, wall);
                            shard_attr_ns("solve", s, wall.as_nanos() as u64);
                            Ok(run)
                        }
                        // Any peer failure — refused connect, dropped
                        // socket mid-SOLVE, structured error — degrades to
                        // an in-process solve of the same shard.
                        Err(_) => {
                            note_peer_recovered(peer);
                            solve_shard_local(shard, s, base_k, probe, wma).map(|mut run| {
                                run.recovered = true;
                                run
                            })
                        }
                    };
                    shard_phase(
                        scope,
                        s as u64,
                        n,
                        "cluster.solve",
                        mcfs_obs::PhaseState::End,
                    );
                    out
                }))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.map(|h| h.join().expect("federated shard thread panicked")))
            .collect()
    });
    let mut runs: Vec<Option<ShardRun>> = Vec::with_capacity(results.len());
    let mut recovered = 0usize;
    for r in results {
        match r {
            None => runs.push(None),
            Some(Ok(run)) => {
                stats.augmentations += run.augmentations;
                if run.recovered {
                    recovered += 1;
                }
                runs.push(Some(run));
            }
            Some(Err(e)) => return Err(e),
        }
    }
    stats.add_phase("shard_solve", t_solve.elapsed());

    let t_refine = Instant::now();
    let mut budgets = budgets;
    let moves = refine_budgets(&runs, &mut budgets);
    stats.add_phase("refine", t_refine.elapsed());

    let oracle = run_oracle(wma.threads, wma.oracle.as_ref());
    stats.threads = oracle.threads();
    finish(
        inst, &part, &runs, &budgets, &oracle, stats, moves, recovered,
    )
}

/// Publish a shard event onto the observability bus under `scope`.
fn publish(scope: u64, event: mcfs_obs::Event) {
    if mcfs_obs::bus_enabled() {
        mcfs_obs::publish_scoped(scope, event);
    }
}

fn shard_phase(
    scope: u64,
    shard: u64,
    shards: u64,
    name: &'static str,
    state: mcfs_obs::PhaseState,
) {
    publish(
        scope,
        mcfs_obs::Event::ShardPhase {
            shard,
            shards,
            name,
            state,
        },
    );
}

/// Solve one shard on a peer server over the wire. Every step that can
/// fail surfaces a [`ClientError`] the caller turns into a local re-solve.
/// When `ctx = Some((trace, parent))`, every request of the conversation
/// carries `trace=`/`parent=`, so the peer records its handling spans
/// under the coordinator's distributed trace.
fn solve_shard_remote(
    peer: &str,
    shard: &Shard,
    base_k: usize,
    probe: bool,
    ctx: Option<(u64, u64)>,
) -> Result<ShardRun, ClientError> {
    let mut client = Client::connect_tcp(peer)?;
    if let Some((trace, parent)) = ctx {
        client.set_context(trace, Some(parent));
    }
    let name = format!(
        "fed-{:016x}-{}",
        shard.graph.id_salt(),
        FED_SEQ.fetch_add(1, Ordering::Relaxed)
    );
    let inst = shard
        .instance(base_k)
        .expect("split_budget grants budgets within the shard's feasible range");
    client.open_instance(&name, &inst)?;
    let mut run = ShardRun {
        by_k: std::collections::BTreeMap::new(),
        base_k,
        warm_probes: 0,
        augmentations: 0,
        recovered: false,
    };
    record_remote(&mut client, &name, shard, &mut run, base_k)?;
    if probe {
        let lo = shard.min_facilities.max(1);
        let hi = shard.num_facilities();
        for k in [base_k.wrapping_sub(1), base_k + 1] {
            if k < lo || k > hi || k == base_k {
                continue;
            }
            client.edit(&name, &[Edit::SetBudget { k }])?;
            record_remote(&mut client, &name, shard, &mut run, k)?;
        }
    }
    // Best-effort tidy-up; the shard result is already complete.
    let _ = client.close(&name);
    Ok(run)
}

/// One `SOLVE` + `ASSIGNMENT` round against a peer, translated into the
/// shard's global indices.
fn record_remote(
    client: &mut Client,
    name: &str,
    shard: &Shard,
    run: &mut ShardRun,
    k: usize,
) -> Result<(), ClientError> {
    let reply = client.solve(name)?;
    if reply.kv("warm") == Some("1") {
        run.warm_probes += 1;
    }
    let sol = client.solution(name)?;
    run.by_k.insert(
        k,
        mcfs_cluster::ShardSolution {
            selection: sol
                .facilities
                .iter()
                .map(|&j| shard.facilities[j as usize])
                .collect(),
            assignment: sol.assignment,
            objective: sol.objective,
        },
    );
    Ok(())
}
