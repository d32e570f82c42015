//! End-to-end checks for the continuous span-path profiler
//! (`mcfs_obs::profile`): sampling a real solve attributes ≥90% of
//! non-idle samples to fully named span paths, the per-thread fold is
//! deterministic under hand-driven ticks, and `PROFILE` interleaves with an
//! active `WATCH` stream without tearing either.
//!
//! The profiler's table, slot registry, and armed bit are process-global,
//! so every test here serializes on [`TESTS`] and restores the default
//! state (disarmed, auto-sampling on) before releasing it.

use std::fs;
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use mcfs_repro::core::{Facility, McfsInstance, Solver, Wma};
use mcfs_repro::graph::GraphBuilder;
use mcfs_repro::io::read_checkpoint;
use mcfs_repro::obs::profile;
use mcfs_repro::obs::ProfileSnapshot;
use mcfs_repro::server::{
    Client, EventBody, OpenKind, ProfileFormat, Reply, Request, ServerConfig, ServerHandle, Verb,
    WATCH_ALL,
};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/bikes_small.ckpt");

/// Serializes the tests in this binary: they arm/disarm the process-global
/// profiler and would otherwise race each other's windows.
static TESTS: Mutex<()> = Mutex::new(());

/// RAII reset: whatever a test did to the global profiler, the next test
/// starts from disarmed + auto-sampling, with an empty table.
struct ProfilerReset;

impl Drop for ProfilerReset {
    fn drop(&mut self) {
        profile::disable();
        profile::set_auto_sample(true);
        profile::reset();
    }
}

/// `true` when every frame of a merged `lane;name;name` path resolved to
/// a real span name (no torn-read `unknown` placeholder).
fn fully_named(path: &str) -> bool {
    path.split(';').skip(1).all(|f| f != "unknown")
}

/// A small multi-component world (two 4×4 grid cities) whose sharded
/// solve exercises partition → shard solve → reconcile on the server.
fn world_text() -> String {
    let side = 4u32;
    let cities = 2u32;
    let mut b = GraphBuilder::new((side * side * cities) as usize);
    for city in 0..cities {
        let base = city * side * side;
        for y in 0..side {
            for x in 0..side {
                let v = base + y * side + x;
                if x + 1 < side {
                    b.add_edge(v, v + 1, 10);
                }
                if y + 1 < side {
                    b.add_edge(v, v + side, 10);
                }
            }
        }
    }
    let g = b.build();
    let mut customers = Vec::new();
    let mut facilities = Vec::new();
    for city in 0..cities {
        let base = city * side * side;
        customers.extend((0..side * side).step_by(2).map(|v| base + v));
        facilities.push(Facility {
            node: base + 5,
            capacity: 8,
        });
        facilities.push(Facility {
            node: base + 10,
            capacity: 8,
        });
    }
    let inst = McfsInstance::builder(&g)
        .customers(customers)
        .facilities(facilities)
        .k(2 * cities as usize)
        .build()
        .expect("city world is well-formed");
    let mut buf = Vec::new();
    mcfs_repro::io::write_instance(&mut buf, &inst).expect("Vec write cannot fail");
    String::from_utf8(buf).expect("instance text is ASCII")
}

/// Sampling a live WMA solve at a dense rate attributes at least 90% of
/// the window's non-idle samples to fully resolved span paths — the
/// acceptance bar for "the profiler sees the solver by name, not as
/// `unknown` noise".
#[test]
fn solve_window_is_at_least_ninety_percent_named() {
    let _serial = TESTS.lock().unwrap_or_else(|e| e.into_inner());
    let _reset = ProfilerReset;

    let text = fs::read(GOLDEN).expect("committed golden checkpoint");
    let (owned, _recorded) = read_checkpoint(text.as_slice()).unwrap();
    let inst = owned.instance().unwrap();

    profile::set_auto_sample(true);
    profile::enable(4001);
    let before = profile::snapshot();

    // Solve repeatedly until the sampler has a statistically meaningful
    // window (or a generous wall cap, so a slow runner fails loudly on
    // the assertion rather than hanging).
    let start = Instant::now();
    let mut window = ProfileSnapshot::default();
    while start.elapsed() < Duration::from_secs(20) {
        std::hint::black_box(Wma::new().solve(&inst).expect("solve"));
        window = profile::snapshot().diff(&before);
        if window.total_samples() >= 50 {
            break;
        }
    }

    let total = window.total_samples();
    assert!(
        total >= 50,
        "sampler produced only {total} samples across 20s of solving"
    );
    let named: u64 = window
        .merged
        .iter()
        .filter(|(path, _)| fully_named(path))
        .map(|(_, &n)| n)
        .sum();
    assert!(
        named * 10 >= total * 9,
        "only {named}/{total} samples landed on fully named paths:\n{}",
        window.to_folded()
    );
    // The solver runs under known span roots; at least one hot path must
    // name one of them rather than some unrelated harness frame.
    assert!(
        window
            .merged
            .keys()
            .any(|p| p.contains("wma.") || p.contains("resolve.") || p.contains("oracle.")),
        "no solver span in the window:\n{}",
        window.to_folded()
    );
}

/// With the background sampler paused, hand-driven ticks are exactly
/// countable: three ticks over two pinned threads yield exactly three
/// samples per pinned path, classed `cpu`/`io` by thread name, and the
/// folded rendering round-trips losslessly.
#[test]
fn hand_driven_ticks_fold_deterministically() {
    let _serial = TESTS.lock().unwrap_or_else(|e| e.into_inner());
    let _reset = ProfilerReset;

    profile::enable(997);
    profile::set_auto_sample(false);
    // One in-flight background tick may still complete after the pause;
    // give it time to land before the baseline snapshot.
    std::thread::sleep(Duration::from_millis(60));
    let before = profile::snapshot();

    let (ready_tx, ready_rx) = mpsc::channel::<()>();
    let (done_tx, done_rx) = mpsc::channel::<()>();
    let io_thread = std::thread::Builder::new()
        .name("obsprofile-conn-reader".into()) // "conn" → io class
        .spawn(move || {
            let _guard = mcfs_repro::obs::span("obsprofile.iowait");
            ready_tx.send(()).expect("main alive");
            done_rx.recv().expect("main alive");
        })
        .expect("spawn io thread");
    ready_rx.recv().expect("io thread alive");

    {
        let _outer = mcfs_repro::obs::span("obsprofile.outer");
        let _inner = mcfs_repro::obs::span("obsprofile.inner");
        for _ in 0..3 {
            profile::tick_for_test();
        }
    }
    let window = profile::snapshot().diff(&before);
    done_tx.send(()).expect("io thread alive");
    io_thread.join().expect("io thread");

    assert_eq!(
        window
            .merged
            .get("cpu;obsprofile.outer;obsprofile.inner")
            .copied(),
        Some(3),
        "main-thread path must carry exactly the 3 hand ticks:\n{}",
        window.to_folded()
    );
    assert_eq!(
        window.merged.get("io;obsprofile.iowait").copied(),
        Some(3),
        "conn-named thread must be classed io with exactly 3 ticks:\n{}",
        window.to_folded()
    );

    // Per-thread detail agrees with the merged fold.
    let io = window
        .threads
        .values()
        .find(|t| t.paths.contains_key("obsprofile.iowait"))
        .expect("io thread table present");
    assert_eq!(io.class, "io");
    assert_eq!(io.paths["obsprofile.iowait"], 3);
    let cpu = window
        .threads
        .values()
        .find(|t| t.paths.contains_key("obsprofile.outer;obsprofile.inner"))
        .expect("main thread table present");
    assert_eq!(cpu.class, "cpu");

    // Rendering is deterministic and the wire shape round-trips.
    let folded = window.to_folded();
    assert_eq!(folded, window.to_folded(), "to_folded must be stable");
    let lines: Vec<&str> = folded.lines().collect();
    let back = ProfileSnapshot::from_folded_lines(&lines).expect("parse own rendering");
    assert_eq!(back.merged, window.merged, "folded round-trip lost paths");
}

/// `PROFILE` on a connection with an active `WATCH` subscription, while
/// another connection hammers `SOLVE`: every reply parses whole (folded
/// and speedscope alike), and the event stream's sequence numbers never
/// regress — neither side tears the other.
#[test]
fn profile_during_active_watch_never_tears() {
    let _serial = TESTS.lock().unwrap_or_else(|e| e.into_inner());
    let _reset = ProfilerReset;

    profile::set_auto_sample(true);
    profile::enable(997);

    let text = world_text();
    let mut server = ServerHandle::start(ServerConfig::default());
    let addr = server.serve_tcp("127.0.0.1:0").expect("bind");

    let mut watcher = Client::connect_tcp(&addr.to_string()).expect("connect watcher");
    watcher
        .open_text("w", OpenKind::Instance, &text)
        .expect("open");
    watcher.solve("w").expect("warmup solve");
    watcher.watch("w", Some(64)).expect("watch");

    std::thread::scope(|scope| {
        let spammer = scope.spawn(|| {
            let mut b = Client::connect_tcp(&addr.to_string()).expect("connect spammer");
            for _ in 0..24 {
                assert!(b.solve("w").expect("spam solve").is_ok());
            }
        });
        for i in 0..32 {
            let format = if i % 2 == 0 {
                ProfileFormat::Folded
            } else {
                ProfileFormat::Speedscope
            };
            let req = Request::Profile {
                session: WATCH_ALL.to_owned(),
                secs: 0,
                format,
            };
            let reply = watcher.request(&req).expect("reply must parse whole");
            let Reply::Ok { verb, payload, .. } = reply else {
                panic!("non-ok PROFILE under watch load: {reply:?}");
            };
            assert_eq!(verb, Verb::Profile);
            match format {
                ProfileFormat::Folded => {
                    ProfileSnapshot::from_folded_lines(&payload)
                        .expect("folded payload parses mid-watch");
                }
                ProfileFormat::Speedscope => {
                    assert_eq!(payload.len(), 1, "speedscope is one JSON document");
                    assert!(
                        payload[0].starts_with('{') && payload[0].ends_with('}'),
                        "speedscope document torn: {:?}",
                        &payload[0][..payload[0].len().min(80)]
                    );
                }
            }
        }
        spammer.join().expect("spammer panicked");
    });

    watcher.unwatch("w").expect("unwatch");
    let mut last_seq = None;
    let mut events = 0u64;
    for frame in watcher.take_events() {
        if let EventBody::Event { seq, .. } = frame.body {
            if let Some(prev) = last_seq {
                assert!(seq > prev, "seq regressed: {prev} then {seq}");
            }
            last_seq = Some(seq);
            events += 1;
        }
    }
    assert!(events > 0, "watch stream stayed silent through 24 solves");
    server.shutdown();
}
