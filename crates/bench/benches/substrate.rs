//! Criterion benches for the substrate layers: shortest-path engines,
//! bipartite matching, and persistence. These track the hot primitives the
//! figure-level benches compose, so a regression is attributable to a layer
//! before it shows up in a figure.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};

use mcfs::{Facility, McfsInstance, Solver, Wma};
use mcfs_baselines::BrnnBaseline;
use mcfs_flow::{solve_transportation, Matcher, TransportProblem, VecStream};
use mcfs_gen::city::{generate_city, CitySpec, CityStyle};
use mcfs_gen::customers::uniform_customers;
use mcfs_gen::synthetic::{generate_synthetic, SyntheticConfig};
use mcfs_graph::{dijkstra_all, fill_row, DistanceOracle, Graph};
use mcfs_io::{read_instance, write_instance};

fn city() -> Graph {
    generate_city(&CitySpec {
        name: "SubstrateCity",
        target_nodes: 4000,
        style: CityStyle::Organic,
        avg_edge_len: 35.0,
        seed: 0x5b57,
    })
}

fn grp<'c>(
    c: &'c mut Criterion,
    name: &str,
) -> criterion::BenchmarkGroup<'c, criterion::measurement::WallTime> {
    let mut g = c.benchmark_group(name);
    g.sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(300));
    g
}

/// One-to-all rows on a city network: the binary-heap reference vs. the
/// oracle's warm arena fill.
fn shortest_paths(c: &mut Criterion) {
    let g = city();
    let s = 0u32;
    let mut grp = grp(c, "substrate_shortest_paths");
    grp.bench_function("dijkstra_one_to_all", |b| b.iter(|| dijkstra_all(&g, s)));
    let mut row = Vec::new();
    grp.bench_function("arena_one_to_all", |b| b.iter(|| fill_row(&g, s, &mut row)));
    grp.finish();
}

/// Dense SSPA vs. the incremental matcher on identical random instances.
fn matching(c: &mut Criterion) {
    let (m, l) = (200usize, 120usize);
    let rows: Vec<Vec<u64>> = (0..m)
        .map(|i| {
            (0..l)
                .map(|j| ((i * 37 + j * 101) % 1000) as u64 + 1)
                .collect()
        })
        .collect();
    let caps = vec![3u32; l];
    let mut grp = grp(c, "substrate_matching");
    grp.bench_function("dense_transportation", |b| {
        let p = TransportProblem::from_rows(&rows, caps.clone());
        b.iter(|| solve_transportation(&p).unwrap())
    });
    grp.bench_function("incremental_matcher", |b| {
        b.iter(|| {
            let streams: Vec<VecStream> = rows.iter().map(|r| VecStream::from_row(r)).collect();
            let mut matcher = Matcher::new(streams, caps.clone());
            for i in 0..m {
                matcher.find_pair(i).unwrap();
            }
            matcher.total_cost()
        })
    });
    grp.finish();
}

/// Instance persistence round-trips and refinement.
fn io_and_refine(c: &mut Criterion) {
    let g = city();
    let customers = uniform_customers(&g, 100, 3);
    let inst = McfsInstance::builder(&g)
        .customers(customers)
        .facilities(
            g.nodes()
                .step_by(5)
                .map(|node| Facility { node, capacity: 5 }),
        )
        .k(25)
        .build()
        .unwrap();
    let mut grp = grp(c, "substrate_io_refine");
    grp.bench_function("write_instance", |b| {
        b.iter(|| {
            let mut buf = Vec::with_capacity(1 << 20);
            write_instance(&mut buf, &inst).unwrap();
            buf.len()
        })
    });
    let mut buf = Vec::new();
    write_instance(&mut buf, &inst).unwrap();
    grp.bench_function("read_instance", |b| {
        b.iter(|| read_instance(buf.as_slice()).unwrap())
    });
    let base = Wma::new().solve(&inst).unwrap();
    grp.bench_function("local_search_refine", |b| {
        b.iter(|| {
            mcfs::refine::LocalSearch::default()
                .refine(&inst, &base)
                .unwrap()
        })
    });
    grp.finish();
}

/// The parallel distance substrate. On the Fig. 6 synthetic workload
/// (400-node uniform network, 40 customers, facilities everywhere):
/// 1-thread vs. N-thread batched oracle row queries, and BRNN on its
/// per-query searches vs. its customer rows. On the 4000-node city with 12
/// stations (ℓ ≤ m on a symmetric graph): end-to-end WMA at 1 and 4
/// threads, both filling one facility row per station, so the pair times
/// the row fill fan-out. Solutions are asserted identical across thread
/// counts on both instances — the thread knob may only move wall time.
fn oracle_substrate(c: &mut Criterion) {
    let g = generate_synthetic(&SyntheticConfig::uniform(400, 2.0, 11));
    let customers = uniform_customers(&g, 40, 3);
    let inst = McfsInstance::builder(&g)
        .customers(customers.iter().copied())
        .facilities(g.nodes().map(|node| Facility { node, capacity: 5 }))
        .k(10)
        .build()
        .unwrap();
    let city = city();
    let stations = McfsInstance::builder(&city)
        .customers(uniform_customers(&city, 200, 5))
        .facilities(
            city.nodes()
                .step_by(city.num_nodes() / 12 + 1)
                .map(|node| Facility { node, capacity: 25 }),
        )
        .k(10)
        .build()
        .unwrap();

    for inst in [&inst, &stations] {
        let reference = Wma::new().threads(1).solve(inst).unwrap();
        for threads in [2usize, 4] {
            let sol = Wma::new().threads(threads).solve(inst).unwrap();
            assert_eq!(reference, sol, "threads must not change the solution");
        }
    }
    for threads in [1usize, 4] {
        let run = Wma::new().threads(threads).run(&stations).unwrap();
        assert_eq!(
            run.solve_stats.cache_misses,
            stations.num_facilities() as u64,
            "one facility row per station at {threads} threads"
        );
    }

    let mut grp = grp(c, "substrate_oracle");
    // Fresh oracle per iteration: measures the batched fan-out itself
    // (40 independent Dijkstra expansions), not cache hits.
    for threads in [1usize, 4] {
        grp.bench_function(&format!("rows_cold_{threads}_threads"), |b| {
            b.iter(|| {
                let oracle = DistanceOracle::new().with_threads(threads);
                oracle.distances_for_sources(&g, &customers)
            })
        });
    }
    // Warm oracle: the per-iteration cost once WMA/refine/baselines share
    // the cache.
    let warm = DistanceOracle::new().with_threads(4);
    warm.distances_for_sources(&g, &customers);
    grp.bench_function("rows_warm_cached", |b| {
        b.iter(|| warm.distances_for_sources(&g, &customers))
    });
    // End-to-end WMA on the stations instance: 12 facility rows per solve,
    // filled by one worker or fanned out over four.
    for threads in [1usize, 4] {
        grp.bench_function(&format!("wma_station_rows_{threads}_threads"), |b| {
            b.iter(|| Wma::new().threads(threads).solve(&stations).unwrap())
        });
    }
    grp.bench_function("brnn_legacy_1_thread", |b| {
        b.iter(|| BrnnBaseline::new().threads(1).solve(&inst).unwrap())
    });
    grp.bench_function("brnn_oracle_4_threads", |b| {
        b.iter(|| BrnnBaseline::new().threads(4).solve(&inst).unwrap())
    });
    grp.finish();
}

criterion_group!(
    benches,
    shortest_paths,
    matching,
    io_and_refine,
    oracle_substrate
);
criterion_main!(benches);
