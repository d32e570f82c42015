//! Criterion benches for the observability substrate: WMA solve wall time
//! with tracing disabled (the default — `span` exits on one relaxed atomic
//! load) versus force-enabled (every span on every thread records into the
//! span store), plus the raw cost of the disabled `span` fast path.
//!
//! The enforceable half of this guard lives in `tests/obs_overhead.rs`,
//! which asserts the disabled-mode overhead stays under 2% of a solve on
//! the committed bikes instance; this group reports the actual numbers.

use std::hint::black_box;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};

use mcfs::{Facility, McfsInstance, Solver, Wma};
use mcfs_gen::bikes::{docking_demand, generate_flow_field, generate_stations};
use mcfs_gen::city::{generate_city, CitySpec, CityStyle};
use mcfs_gen::customers::{mask_to_reachable, sample_weighted};
use mcfs_graph::{Graph, NodeId};
use mcfs_obs::{bus_enabled, flight, set_force, span, subscribe, ScopeGuard};

/// The same deterministic bikes world the golden checkpoint was recorded
/// from (`tests/data/bikes_small.ckpt`), rebuilt here so the bench crate
/// does not depend on a test-data path.
fn bikes_world() -> (Graph, Vec<NodeId>, Vec<Facility>, usize) {
    let spec = CitySpec {
        name: "golden-bikes",
        target_nodes: 320,
        style: CityStyle::Grid,
        avg_edge_len: 90.0,
        seed: 0x601D,
    };
    let g = generate_city(&spec);
    let stations: Vec<Facility> = generate_stations(&g, 16, 3)
        .into_iter()
        .map(|s| Facility {
            node: s.node,
            capacity: s.capacity,
        })
        .collect();
    let field = generate_flow_field(&g, 5);
    let demand = docking_demand(&g, &field);
    let anchors: Vec<NodeId> = stations.iter().map(|f| f.node).collect();
    let weights = mask_to_reachable(&g, &demand, &anchors);
    let customers = sample_weighted(&weights, 60, 9);
    (g, customers, stations, 6)
}

fn bench_obs(c: &mut Criterion) {
    let (graph, customers, stations, k) = bikes_world();
    let inst = McfsInstance::builder(&graph)
        .customers(customers.iter().copied())
        .facilities(stations.iter().copied())
        .k(k)
        .build()
        .unwrap();

    // Both modes must compute the same answer; pin that outside the loops.
    let reference = Wma::new().solve(&inst).unwrap().objective;
    set_force(true);
    assert_eq!(Wma::new().solve(&inst).unwrap().objective, reference);
    set_force(false);
    flight::clear();

    let mut g = c.benchmark_group("obs_tracing");
    g.sample_size(20)
        .measurement_time(Duration::from_secs(4))
        .warm_up_time(Duration::from_millis(500));

    g.bench_function("wma_solve_tracing_disabled", |b| {
        b.iter(|| black_box(Wma::new().solve(&inst).unwrap().objective))
    });

    g.bench_function("wma_solve_tracing_enabled", |b| {
        set_force(true);
        b.iter(|| black_box(Wma::new().solve(&inst).unwrap().objective));
        set_force(false);
        flight::clear();
    });

    // The disabled fast path itself, amortized over 1k calls per iteration.
    g.bench_function("disabled_span_call_x1000", |b| {
        b.iter(|| {
            for _ in 0..1000 {
                black_box(span(black_box("obs.bench.probe")));
            }
        })
    });

    // Event-bus counterpart: a solve with a live subscriber draining the
    // published iteration events (the `WATCH` server path minus the wire),
    // versus the disarmed emission-site check on its own.
    g.bench_function("wma_solve_bus_subscribed", |b| {
        let scope = mcfs_obs::next_scope_id();
        let sub = subscribe(Some(scope));
        let _guard = ScopeGuard::enter(scope);
        b.iter(|| {
            let objective = black_box(Wma::new().solve(&inst).unwrap().objective);
            black_box(sub.poll());
            objective
        });
    });

    g.bench_function("disarmed_bus_check_x1000", |b| {
        b.iter(|| {
            for _ in 0..1000 {
                black_box(bus_enabled());
            }
        })
    });

    g.finish();
}

criterion_group!(benches, bench_obs);
criterion_main!(benches);
