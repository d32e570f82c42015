//! Live progress streaming, end to end: `WATCH`/`UNWATCH` over the real
//! wire, event-frame round-trips under proptest, interleaving safety with
//! concurrent watchers, and drop-marker reconciliation against the bus.
//!
//! The acceptance property for the whole substrate lives in
//! [`watched_solve_streams_every_wma_iteration`]: a `WATCH`ed `SOLVE`
//! streams one `iter` event per WMA main-loop iteration whose `covered`
//! count matches the post-hoc `IterationStats` of an identical local solve
//! exactly — the live stream and the post-hoc trace are the same numbers.

use mcfs_repro::core::{Facility, McfsInstance, Wma};
use mcfs_repro::gen::bikes::{docking_demand, generate_flow_field, generate_stations};
use mcfs_repro::gen::customers::{mask_to_reachable, sample_weighted};
use mcfs_repro::gen::{generate_city, CitySpec, CityStyle};
use mcfs_repro::graph::{Graph, NodeId};
use mcfs_repro::io::write_instance;
use mcfs_repro::obs::{Event, PhaseState};
use mcfs_repro::server::{
    Client, ErrorCode, EventBody, EventFrame, Frame, OpenKind, Reply, ServerConfig, ServerHandle,
    WATCH_ALL,
};
use proptest::prelude::*;

/// The deterministic bikes world the golden checkpoint was recorded from
/// (same parameters as `tests/golden.rs`).
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

fn bikes_instance(g: &Graph) -> McfsInstance<'_> {
    let (_, customers, stations, k) = bikes_world();
    McfsInstance::builder(g)
        .customers(customers)
        .facilities(stations)
        .k(k)
        .build()
        .unwrap()
}

fn instance_text(inst: &McfsInstance<'_>) -> String {
    let mut buf = Vec::new();
    write_instance(&mut buf, inst).unwrap();
    String::from_utf8(buf).unwrap()
}

/// The `iter` events of one session, in arrival order.
fn iter_events(frames: &[EventFrame], session: &str) -> Vec<(u64, u64, u64)> {
    frames
        .iter()
        .filter(|f| f.session == session)
        .filter_map(|f| match &f.body {
            EventBody::Event {
                seq,
                event:
                    Event::SolverIteration {
                        solver: "wma",
                        iteration,
                        covered,
                        ..
                    },
            } => Some((*seq, *iteration, *covered)),
            _ => None,
        })
        .collect()
}

#[test]
fn watched_solve_streams_every_wma_iteration() {
    let (g, ..) = bikes_world();
    let inst = bikes_instance(&g);
    let server = ServerHandle::start(ServerConfig::default());
    let mut client = server.connect().unwrap();
    client
        .open_text("bikes", OpenKind::Instance, &instance_text(&inst))
        .unwrap();
    client.watch("bikes", None).unwrap();
    let reply = client.solve("bikes").unwrap();
    let objective: u64 = reply.kv("objective").unwrap().parse().unwrap();
    client.unwatch("bikes").unwrap();
    let frames = client.take_events();
    server.shutdown();

    // The same solve, run locally with per-iteration stats: the server's
    // config template is Wma::new().threads(1), so mirror it exactly.
    let local = Wma::new().threads(1).with_stats().run(&inst).unwrap();
    assert_eq!(local.solution.objective, objective);

    let live = iter_events(&frames, "bikes");
    assert_eq!(
        live.len(),
        local.stats.iterations.len(),
        "one live iter event per WMA main-loop iteration"
    );
    for (got, want) in live.iter().zip(&local.stats.iterations) {
        assert_eq!(got.1, want.iteration as u64, "iteration numbers agree");
        assert_eq!(
            got.2, want.covered_customers as u64,
            "live covered count matches post-hoc IterationStats at iteration {}",
            want.iteration
        );
    }
    // Seqs arrive in publish order.
    for w in live.windows(2) {
        assert!(w[0].0 < w[1].0, "event seq is strictly increasing");
    }
    // The resolve-layer events rode along under the same watch.
    assert!(
        frames.iter().any(|f| matches!(
            &f.body,
            EventBody::Event {
                event: Event::ResolveDone { .. },
                ..
            }
        )),
        "a ResolveDone event closes the solve"
    );
    assert!(
        frames.iter().any(|f| matches!(
            &f.body,
            EventBody::Event {
                event: Event::Phase {
                    name: "resolve.selection",
                    state: PhaseState::Start,
                },
                ..
            }
        )),
        "phase transitions stream too"
    );
}

#[test]
fn two_concurrent_watchers_see_identical_untorn_streams() {
    let (g, ..) = bikes_world();
    let inst = bikes_instance(&g);
    let server = ServerHandle::start(ServerConfig::default());
    let mut driver = server.connect().unwrap();
    driver
        .open_text("shared", OpenKind::Instance, &instance_text(&inst))
        .unwrap();
    let mut w1 = server.connect().unwrap();
    let mut w2 = server.connect().unwrap();
    // One names the session, the other watches everything: both observe
    // the same bus stream through different subscription filters.
    w1.watch("shared", None).unwrap();
    w2.watch(WATCH_ALL, None).unwrap();

    driver.solve("shared").unwrap();

    w1.unwatch("shared").unwrap();
    w2.unwatch(WATCH_ALL).unwrap();
    let f1 = w1.take_events();
    let f2 = w2.take_events();
    server.shutdown();

    // Every frame already parsed cleanly (Frame::read_from rejects torn
    // lines); beyond that, both watchers must agree on the stream itself.
    let live1 = iter_events(&f1, "shared");
    let live2 = iter_events(&f2, "shared");
    assert!(!live1.is_empty(), "the solve produced iteration events");
    assert_eq!(
        live1, live2,
        "both watchers see the same (seq, iteration, covered) stream"
    );
    assert!(
        !f1.iter()
            .any(|f| matches!(f.body, EventBody::Dropped { .. })),
        "default buffers do not overflow on one solve"
    );
}

#[test]
fn dropped_markers_reconcile_with_a_full_size_watcher() {
    let (g, ..) = bikes_world();
    let inst = bikes_instance(&g);
    let server = ServerHandle::start(ServerConfig::default());
    let mut driver = server.connect().unwrap();
    driver
        .open_text("lossy", OpenKind::Instance, &instance_text(&inst))
        .unwrap();
    let mut big = server.connect().unwrap();
    let mut small = server.connect().unwrap();
    big.watch("lossy", None).unwrap();
    // A one-slot ring: any burst of more than one event between pump
    // drains sheds, and every shed event must surface as a dropped= count.
    small.watch("lossy", Some(1)).unwrap();

    let before = mcfs_repro::obs::bus::dropped_total();
    for _ in 0..3 {
        driver.solve("lossy").unwrap();
        driver
            .edit("lossy", &[mcfs_repro::core::Edit::AddCustomer { node: 1 }])
            .unwrap();
    }
    driver.solve("lossy").unwrap();

    big.unwatch("lossy").unwrap();
    small.unwatch("lossy").unwrap();
    let big_frames = big.take_events();
    let small_frames = small.take_events();
    let after = mcfs_repro::obs::bus::dropped_total();
    server.shutdown();

    let count_events = |frames: &[EventFrame]| {
        frames
            .iter()
            .filter(|f| matches!(f.body, EventBody::Event { .. }))
            .count() as u64
    };
    let count_dropped = |frames: &[EventFrame]| {
        frames
            .iter()
            .map(|f| match f.body {
                EventBody::Dropped { count } => count,
                _ => 0,
            })
            .sum::<u64>()
    };
    assert_eq!(count_dropped(&big_frames), 0, "the big ring never sheds");
    // Conservation: everything published to the session either reached the
    // small watcher or was accounted for by a dropped= marker.
    assert_eq!(
        count_events(&small_frames) + count_dropped(&small_frames),
        count_events(&big_frames),
        "received + dropped reconciles against a lossless watcher"
    );
    // And every wire-reported loss is visible in the bus's own counter
    // (other concurrent tests may add to it, hence >=).
    assert!(
        after - before >= count_dropped(&small_frames),
        "bus drop counter covers the wire-reported losses"
    );
}

#[test]
fn watch_lifecycle_errors_are_structured() {
    let server = ServerHandle::start(ServerConfig::default());
    let mut client = server.connect().unwrap();
    // Unknown session.
    match client.watch("ghost", None) {
        Err(mcfs_repro::server::ClientError::Rejected(Reply::Err { code, .. })) => {
            assert_eq!(code, ErrorCode::NoSession)
        }
        other => panic!("expected no-session error, got {other:?}"),
    }
    // Unwatch without a watch.
    match client.unwatch(WATCH_ALL) {
        Err(mcfs_repro::server::ClientError::Rejected(Reply::Err { code, .. })) => {
            assert_eq!(code, ErrorCode::State)
        }
        other => panic!("expected state error, got {other:?}"),
    }
    // Re-watching the same target is idempotent, not an error.
    client.watch(WATCH_ALL, None).unwrap();
    let again = client.watch(WATCH_ALL, None).unwrap();
    assert_eq!(again.kv("already"), Some("1"));
    client.unwatch(WATCH_ALL).unwrap();
    server.shutdown();
}

/// Watching a session keeps streaming across the connection that issued
/// the solve — the watch lives on its own connection and survives other
/// clients' traffic; closing the watcher's connection unsubscribes it.
#[test]
fn watcher_connection_close_unsubscribes() {
    let (g, ..) = bikes_world();
    let inst = bikes_instance(&g);
    let server = ServerHandle::start(ServerConfig::default());
    let mut driver = server.connect().unwrap();
    driver
        .open_text("brief", OpenKind::Instance, &instance_text(&inst))
        .unwrap();
    {
        let mut watcher = server.connect().unwrap();
        watcher.watch("brief", None).unwrap();
        // Dropping the client closes the pipe; the server must tear the
        // subscription down on its own.
    }
    // The solve after the watcher vanished must not wedge on a dead pipe.
    driver.solve("brief").unwrap();
    driver.solve("brief").unwrap();
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Event-frame round-trips under proptest (PROPTEST_CASES scales the run).
// ---------------------------------------------------------------------------

/// Tokens the emission sites actually use; round-trips are exact on these
/// (anything else interns to `"other"`).
const SOLVER_TOKENS: &[&str] = &["wma", "wma-naive"];
const PHASE_TOKENS: &[&str] = &["uf.attempt", "resolve.selection", "resolve.assignment"];

fn build_event(variant: usize, a: u64, b: u64, pick: usize, flag: bool) -> Event {
    match variant % 5 {
        0 => Event::SolverIteration {
            solver: SOLVER_TOKENS[pick % SOLVER_TOKENS.len()],
            iteration: a % 1000,
            covered: b % 5000,
            total: b % 5000 + a % 7,
            matching_us: a,
            cover_us: b,
            demand: a.wrapping_mul(3),
            edges: b.wrapping_mul(7),
        },
        1 => Event::Phase {
            name: PHASE_TOKENS[pick % PHASE_TOKENS.len()],
            state: if flag {
                PhaseState::Start
            } else {
                PhaseState::End
            },
        },
        2 => Event::ResolveDone {
            warm: flag,
            objective: a,
        },
        3 => Event::QueueDepth { depth: a % 64 },
        _ => Event::Augmentations { total: b },
    }
}

proptest! {
    /// Any event frame the server can emit — session-bound events, `*`
    /// targets, dropped markers — survives the wire byte-for-byte, and the
    /// frame reader consumes exactly the bytes written.
    #[test]
    fn event_frames_round_trip_on_the_wire(
        frames in proptest::collection::vec(
            (0usize..6, 0u64..u64::MAX / 8, 0u64..u64::MAX / 8, 0usize..8, proptest::bool::ANY),
            1..20),
    ) {
        let built: Vec<EventFrame> = frames
            .iter()
            .map(|&(variant, a, b, pick, flag)| {
                let session = if flag {
                    WATCH_ALL.to_owned()
                } else {
                    format!("s{}", pick)
                };
                let body = if variant == 5 {
                    EventBody::Dropped { count: a }
                } else {
                    EventBody::Event {
                        seq: b,
                        event: build_event(variant, a, b, pick, flag),
                    }
                };
                EventFrame { session, body }
            })
            .collect();
        let mut buf = Vec::new();
        for f in &built {
            f.write_to(&mut buf).unwrap();
            // Interleaving safety rests on this: one frame, one line.
            prop_assert_eq!(
                buf.iter().filter(|&&c| c == b'\n').count(),
                1,
                "an event frame is exactly one line"
            );
            let mut reader = buf.as_slice();
            match Frame::read_from(&mut reader, 64).unwrap() {
                Frame::Event(back) => prop_assert_eq!(&back, f),
                Frame::Reply(r) => prop_assert!(false, "misread as reply: {:?}", r),
            }
            prop_assert!(reader.is_empty(), "frame consumed its own bytes exactly");
            buf.clear();
        }
    }
}

/// A tiny direct check that the in-process client really buffers events
/// that arrive ahead of a reply (the pump races the reply writer).
#[test]
fn client_buffers_events_interleaved_with_replies() {
    let (g, ..) = bikes_world();
    let inst = bikes_instance(&g);
    let server = ServerHandle::start(ServerConfig::default());
    let mut client: Client = server.connect().unwrap();
    client
        .open_text("inline", OpenKind::Instance, &instance_text(&inst))
        .unwrap();
    client.watch("inline", None).unwrap();
    client.solve("inline").unwrap();
    client.solve("inline").unwrap();
    client.unwatch("inline").unwrap();
    // Whatever the interleaving was, nothing is lost and nothing tore:
    // every buffered frame belongs to the watched session.
    let frames = client.take_events();
    assert!(!frames.is_empty());
    assert!(frames.iter().all(|f| f.session == "inline"));
    assert!(
        client.next_event().is_none(),
        "take_events drained the queue"
    );
    server.shutdown();
}
