//! End-to-end tests of `mcfs-server`: the worker pool, admission control,
//! deadlines, graceful shutdown and metrics reconciliation, all driven
//! through the real wire protocol (in-process pipes and TCP).

use std::io::{BufRead, BufReader, Write};
use std::time::Instant;

use mcfs_repro::core::{Edit, Facility, McfsInstance, ReSolver, Wma};
use mcfs_repro::gen::bikes::generate_stations;
use mcfs_repro::gen::customers::uniform_customers;
use mcfs_repro::gen::{generate_city, CitySpec, CityStyle};
use mcfs_repro::graph::GraphBuilder;
use mcfs_repro::io::{read_checkpoint, write_instance};
use mcfs_repro::obs::{Event, PhaseState};
use mcfs_repro::server::{
    Client, EventBody, Reply, Request, ServerConfig, ServerHandle, WIRE_VERSION,
};

/// A tiny instance that solves in microseconds.
fn small_instance_text() -> String {
    let mut b = GraphBuilder::new(9);
    for r in 0..3u32 {
        for c in 0..3u32 {
            let v = r * 3 + c;
            if c < 2 {
                b.add_edge(v, v + 1, 100);
            }
            if r < 2 {
                b.add_edge(v, v + 3, 100);
            }
        }
    }
    let g = b.build();
    let inst = McfsInstance::builder(&g)
        .customers(vec![0, 2, 6, 8])
        .facility(4, 3)
        .facility(1, 3)
        .facility(7, 3)
        .k(2)
        .build()
        .unwrap();
    let mut buf = Vec::new();
    write_instance(&mut buf, &inst).unwrap();
    String::from_utf8(buf).unwrap()
}

/// A deliberately heavy instance whose cold solve takes long enough to
/// observe overlap, queueing and draining: at `scale` 2 about 150 ms in an
/// unoptimized test build and about 14 ms optimized on a 2-vCPU host.
/// `scale` trades runtime for timing margin.
fn heavy_instance_text(scale: usize) -> String {
    let spec = CitySpec {
        name: "server-load",
        target_nodes: 2500 * scale,
        style: CityStyle::Grid,
        avg_edge_len: 90.0,
        seed: 7,
    };
    let g = generate_city(&spec);
    let facilities: Vec<Facility> = generate_stations(&g, 40, 3)
        .into_iter()
        .map(|s| Facility {
            node: s.node,
            capacity: 200, // generous capacity keeps the instance feasible
        })
        .collect();
    let customers = uniform_customers(&g, 500 * scale, 11);
    let inst = McfsInstance::builder(&g)
        .customers(customers)
        .facilities(facilities)
        .k(15)
        .build()
        .unwrap();
    let mut buf = Vec::new();
    write_instance(&mut buf, &inst).unwrap();
    String::from_utf8(buf).unwrap()
}

fn open_instance(client: &mut mcfs_repro::server::Client, session: &str, text: &str) {
    client
        .open_text(session, mcfs_repro::server::OpenKind::Instance, text)
        .unwrap();
}

/// Block until `watcher`, which WATCHes `session`, sees that session's
/// event `want`. Events arrive in publish order, so this orders the
/// caller's next request after the server-side step that published it.
/// Panics instead of waiting forever when a solve of the session finishes
/// first.
fn wait_for_event(watcher: &mut Client, session: &str, want: impl Fn(&Event) -> bool) {
    loop {
        let frame = watcher.wait_event().unwrap();
        let EventBody::Event { event, .. } = &frame.body else {
            panic!("watcher dropped events");
        };
        if frame.session != session {
            continue;
        }
        if want(event) {
            return;
        }
        if let Event::ResolveDone { .. } = event {
            panic!("a solve of {session} finished before the awaited event");
        }
    }
}

/// `want` for [`wait_for_event`]: a solve of the session began executing
/// on its worker (it is running, not queued).
fn solve_started(event: &Event) -> bool {
    matches!(
        event,
        Event::Phase {
            name: "resolve.selection",
            state: PhaseState::Start,
        }
    )
}

fn metric(lines: &[String], key: &str) -> u64 {
    lines
        .iter()
        .find_map(|l| l.strip_prefix(&format!("{key} ")))
        .unwrap_or_else(|| panic!("metric {key} missing"))
        .parse()
        .unwrap()
}

#[test]
fn two_sessions_solve_concurrently_on_separate_workers() {
    let server = ServerHandle::start(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    let mut slow = server.connect().unwrap();
    let mut fast = server.connect().unwrap();
    let mut watcher = server.connect().unwrap();
    // Round-robin pinning: the first OPEN lands on worker 0, the second on
    // worker 1, so the sessions cannot serialize behind each other.
    open_instance(&mut slow, "heavy", &heavy_instance_text(2));
    open_instance(&mut fast, "light", &small_instance_text());
    watcher.watch("heavy", None).unwrap();

    let (light_done, heavy_done) = std::thread::scope(|s| {
        let heavy = s.spawn(move || {
            slow.solve("heavy").unwrap();
            Instant::now()
        });
        // The heavy solve is running, not queued, before the light one is
        // sent.
        wait_for_event(&mut watcher, "heavy", solve_started);
        fast.solve("light").unwrap();
        let light_done = Instant::now();
        (light_done, heavy.join().unwrap())
    });
    assert!(
        light_done < heavy_done,
        "the light session's solve should complete while the heavy one is \
         still running — sessions must not share a queue"
    );
    server.shutdown();
}

#[test]
fn flood_beyond_queue_bound_is_shed_with_busy() {
    let server = ServerHandle::start(ServerConfig {
        workers: 1,
        queue_limit: 2,
        ..ServerConfig::default()
    });
    let mut opener = server.connect().unwrap();
    open_instance(&mut opener, "big", &heavy_instance_text(2));

    let mut c1 = server.connect().unwrap();
    let mut c2 = server.connect().unwrap();
    let mut c3 = server.connect().unwrap();
    let mut watcher = server.connect().unwrap();
    watcher.watch("big", None).unwrap();
    let shed = std::thread::scope(|s| {
        let running = s.spawn(move || c1.solve("big").unwrap());
        wait_for_event(&mut watcher, "big", solve_started);
        // Queued behind the running solve: depth is now at the limit.
        let queued = s.spawn(move || c2.solve("big").unwrap());
        wait_for_event(&mut watcher, "big", |e| {
            matches!(e, Event::QueueDepth { depth: 2 })
        });
        let shed = c3
            .request(&Request::Solve {
                session: "big".into(),
                deadline_ms: None,
            })
            .unwrap();
        running.join().unwrap();
        queued.join().unwrap();
        shed
    });
    match &shed {
        Reply::Busy { .. } => {
            assert_eq!(shed.kv("limit"), Some("2"));
            assert_eq!(shed.kv("depth"), Some("2"));
        }
        other => panic!("expected busy, got {other:?}"),
    }
    // The shed did not poison anything: the session still answers.
    let mut after = server.connect().unwrap();
    after.stats("big").unwrap();
    let lines = after.metrics().unwrap();
    assert_eq!(metric(&lines, "requests.solve.busy"), 1);
    assert_eq!(metric(&lines, "queue_depth_highwater"), 2);
    server.shutdown();
}

#[test]
fn expired_deadline_times_out_queued_work_and_session_survives() {
    let server = ServerHandle::start(ServerConfig::default());
    let mut client = server.connect().unwrap();
    open_instance(&mut client, "s", &small_instance_text());

    // deadline_ms=0 expires the instant the request is admitted, so the
    // worker must refuse to start it — deterministically.
    let reply = client
        .request(&Request::Solve {
            session: "s".into(),
            deadline_ms: Some(0),
        })
        .unwrap();
    match &reply {
        Reply::Timeout { .. } => assert_eq!(reply.kv("session"), Some("s")),
        other => panic!("expected timeout, got {other:?}"),
    }

    // The session is fully usable afterwards.
    let solved = client.solve("s").unwrap();
    assert!(solved.kv("objective").is_some());
    let lines = client.metrics().unwrap();
    assert_eq!(metric(&lines, "requests.solve.timeout"), 1);
    assert_eq!(metric(&lines, "requests.solve.ok"), 1);
    server.shutdown();
}

#[test]
fn graceful_shutdown_drains_in_flight_work_and_snapshot_restores() {
    let dir = std::env::temp_dir().join(format!("mcfs-shutdown-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let server = ServerHandle::start(ServerConfig {
        workers: 1,
        snapshot_dir: Some(dir.clone()),
        ..ServerConfig::default()
    });
    let mut client = server.connect().unwrap();
    let text = heavy_instance_text(1);
    open_instance(&mut client, "drain", &text);

    let objective = std::thread::scope(|s| {
        let solving = s.spawn(move || {
            let reply = client.solve("drain").unwrap();
            reply.kv("objective").unwrap().parse::<u64>().unwrap()
        });
        // Shut down while the solve is (very likely) still running; the
        // reply must arrive regardless — drain, not abort.
        std::thread::sleep(std::time::Duration::from_millis(80));
        server.shutdown();
        solving.join().unwrap()
    });

    // The solve marked the session dirty after its last snapshot (there was
    // none), so shutdown wrote one; it must restore warm at the same cost.
    let ckpt = std::fs::read(dir.join("drain.ckpt")).expect("shutdown snapshot missing");
    let (owned, recorded) = read_checkpoint(ckpt.as_slice()).unwrap();
    assert_eq!(recorded.objective, objective);
    let inst = owned.instance().unwrap();
    let mut restored = ReSolver::from_solved(&inst, Wma::new(), &recorded).unwrap();
    let rerun = restored.solve().unwrap();
    assert!(rerun.warm);
    assert_eq!(rerun.solution.objective, objective);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn metrics_reconcile_with_the_request_script() {
    let server = ServerHandle::start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let mut c = server.connect().unwrap();
    let text = small_instance_text();

    // The script below sends a known number of requests per (verb,
    // outcome); METRICS must report exactly those counts.
    open_instance(&mut c, "s", &text); // open.ok = 1
    c.edit("s", &[Edit::AddCustomer { node: 3 }]).unwrap(); // edit.ok = 1
    let bad_edit = c.edit("s", &[Edit::RemoveCustomer { index: 999 }]);
    assert!(bad_edit.is_err(), "out-of-range edit must be rejected");
    c.solve("s").unwrap(); // solve.ok = 1 (cold)
    c.solve("s").unwrap(); // solve.ok = 2 (warm)
    c.stats("s").unwrap(); // stats.ok = 1
    c.solution("s").unwrap(); // assignment.ok = 1
    c.snapshot("s").unwrap(); // snapshot.ok = 1
    let ghost = c.stats("missing"); // stats.err = 1 (admission: no-session)
    assert!(ghost.is_err());
    c.close("s").unwrap(); // close.ok = 1

    let lines = c.metrics().unwrap(); // counted after this snapshot
    for (key, want) in [
        ("requests.open.ok", 1),
        ("requests.edit.ok", 1),
        ("requests.edit.err", 1),
        ("requests.solve.ok", 2),
        ("requests.stats.ok", 1),
        ("requests.stats.err", 1),
        ("requests.assignment.ok", 1),
        ("requests.snapshot.ok", 1),
        ("requests.close.ok", 1),
        ("requests.metrics.ok", 0), // this METRICS is not yet in its own report
        ("requests.solve.busy", 0),
        ("requests.unparsed", 0),
        ("solves.cold", 1),
        ("solves.warm", 1),
        ("sessions.open", 0),
        ("sessions.opened_total", 1),
    ] {
        assert_eq!(metric(&lines, key), want, "metric {key}");
    }
    // Every worker-executed request recorded exactly one latency sample:
    // open, edit ok, edit err, solve x2, stats ok, assignment, snapshot,
    // close = 9. (The no-session stats was rejected at admission.)
    let histogram_total: u64 = lines
        .iter()
        .filter(|l| l.starts_with("latency_us."))
        .map(|l| l.split_whitespace().nth(1).unwrap().parse::<u64>().unwrap())
        .sum();
    assert_eq!(histogram_total, 9);

    // A second METRICS sees the first one.
    let lines = c.metrics().unwrap();
    assert_eq!(metric(&lines, "requests.metrics.ok"), 1);
    server.shutdown();
}

#[test]
fn tcp_round_trip_and_malformed_input_does_not_kill_the_server() {
    let mut server = ServerHandle::start(ServerConfig::default());
    let addr = server.serve_tcp("127.0.0.1:0").unwrap();

    // A rude client: garbage verb, then a valid frame on the same socket.
    let stream = std::net::TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut greeting = String::new();
    reader.read_line(&mut greeting).unwrap();
    assert_eq!(greeting.trim_end(), WIRE_VERSION);
    writer.write_all(b"FROB nonsense\n").unwrap();
    let reply = Reply::read_from(&mut reader, 1 << 20).unwrap();
    match reply {
        Reply::Err { ref message, .. } => {
            assert!(message.contains("unknown verb"), "got {message:?}")
        }
        other => panic!("expected err, got {other:?}"),
    }
    writer.write_all(b"METRICS\n").unwrap();
    let reply = Reply::read_from(&mut reader, 1 << 20).unwrap();
    assert!(reply.is_ok(), "server must keep serving after garbage");
    drop(writer);

    // A well-behaved client over the same listener does real work.
    let mut client = mcfs_repro::server::Client::connect_tcp(&addr.to_string()).unwrap();
    open_instance(&mut client, "tcp", &small_instance_text());
    let solved = client.solve("tcp").unwrap();
    let objective: u64 = solved.kv("objective").unwrap().parse().unwrap();
    let solution = client.solution("tcp").unwrap();
    assert_eq!(solution.objective, objective);
    let lines = client.metrics().unwrap();
    assert_eq!(metric(&lines, "requests.unparsed"), 1);
    server.shutdown();
}
