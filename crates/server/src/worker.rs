//! Worker threads: each owns the sessions pinned to it and executes their
//! requests strictly in arrival order.
//!
//! A session's [`crate::session::Session`] is `!Send`, so it is created on
//! its worker and lives in that worker's private map — FIFO-per-session
//! falls out of the single mpsc queue, and cross-session concurrency falls
//! out of having several workers. A worker exits when its channel closes
//! (graceful shutdown): the `recv` loop naturally *drains* everything that
//! was admitted before the close, and then dirty sessions are checkpointed
//! to the configured snapshot directory.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::time::Instant;

use mcfs::SolveError;
use mcfs_io::{read_checkpoint, read_instance, write_solution};

use crate::metrics::Outcome;
use crate::protocol::{ErrorCode, OpenKind, Reply, Request, Verb};
use crate::server::ServerCore;
use crate::session::Session;

/// Trace identity a traced request carries across threads: the client's
/// trace id plus the pre-allocated id of the connection thread's root
/// `server.request` span, so worker-side spans parent correctly even
/// though the root is recorded last.
#[derive(Clone, Copy, Debug)]
pub(crate) struct TraceCtx {
    pub trace: u64,
    pub root: u64,
}

/// What a worker hands back with a traced request's reply: the
/// `mcfs_obs::now_ns()` stamp taken as `server.execute` closed (the start
/// of the connection thread's `server.handoff` span) and the scope whose
/// ring keeps the request's spans.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Handoff {
    pub ns: u64,
    pub scope: u64,
}

/// One admitted request, in flight from a connection thread to a worker.
pub(crate) struct Job {
    pub request: Request,
    pub reply_tx: Sender<(Reply, Option<Handoff>)>,
    /// The owning session's outstanding-request counter; decremented when
    /// the job leaves the system (completed, timed out, or shed).
    pub depth: Arc<AtomicUsize>,
    pub enqueued: Instant,
    /// `mcfs_obs::now_ns()` at admission when traced (0 otherwise); start
    /// of the worker-recorded `server.queue` span.
    pub enqueued_ns: u64,
    /// Absolute expiry for queued (not yet running) work.
    pub deadline: Option<Instant>,
    /// Set when the request carried `trace=<id>` on the wire.
    pub trace: Option<TraceCtx>,
    /// The owning session's event-bus scope (0 for sessionless work),
    /// whose ring `TRACE` and `DUMP` read; entered for the execution so
    /// solver events carry the session.
    pub scope: u64,
}

/// Body of one worker thread.
pub(crate) fn run_worker(rx: Receiver<Job>, core: Arc<ServerCore>) {
    let mut sessions: HashMap<String, Session> = HashMap::new();
    while let Ok(job) = rx.recv() {
        process(&mut sessions, job, &core);
    }
    // Channel closed and fully drained: snapshot what would otherwise be
    // lost, then let the thread end.
    shutdown_snapshot(&mut sessions, &core);
}

fn process(sessions: &mut HashMap<String, Session>, job: Job, core: &ServerCore) {
    let verb = job.request.verb();
    // The queue interval ends the moment the worker picks the job up,
    // whether it then runs or is aborted as expired.
    let dequeued_ns = job.trace.map_or(0, |_| mcfs_obs::now_ns());
    // A TRACE must not become the request the next TRACE reports, and a
    // CLOSE ends the session's ring, so neither records into it. Neither
    // publishes events either, so they run outside the session's scope.
    let scope = match verb {
        Verb::Trace | Verb::Close => 0,
        _ => job.scope,
    };

    // A request that expired while queued is aborted, not run: the client
    // stopped waiting, so burning a solve on it only delays the queue.
    // Running work is never interrupted — deadlines are a queue property.
    let reply = match job.deadline {
        Some(d) if Instant::now() >= d => Reply::Timeout {
            kvs: vec![
                (
                    "session".into(),
                    job.request.session().unwrap_or_default().into(),
                ),
                (
                    "waited_ms".into(),
                    job.enqueued.elapsed().as_millis().to_string(),
                ),
            ],
        },
        _ => {
            // While the guard lives, every `mcfs_obs::span` opened on this
            // thread — down through solver, matcher, and oracle — lands in
            // the request's trace under `server.execute`.
            let _guard = job
                .trace
                .map(|ctx| mcfs_obs::TraceGuard::enter(ctx.trace, ctx.root));
            let _scope = mcfs_obs::ScopeGuard::enter(scope);
            let _span = mcfs_obs::span("server.execute");
            execute(sessions, &job, core)
        }
    };
    // `server.execute` has closed: the rest of the way to the connection
    // thread's `server.reply` is the hand-off, named on that thread. A
    // request that ran (an expired one replies `timeout`) keeps its spans
    // in its session's ring while the session lives; every other request
    // keeps them under scope 0.
    let handoff = job.trace.map(|ctx| {
        let ran = !matches!(reply, Reply::Timeout { .. });
        let live = ran && sessions.contains_key(job.request.session().unwrap_or_default());
        let handoff = Handoff {
            ns: mcfs_obs::now_ns(),
            scope: if live { scope } else { 0 },
        };
        let _scope = mcfs_obs::ScopeGuard::enter(handoff.scope);
        let (from, to) = (job.enqueued_ns, dequeued_ns);
        mcfs_obs::record_manual(ctx.trace, "server.queue", ctx.root, None, from, to);
        handoff
    });

    core.metrics
        .record_request(verb, Outcome::of(&reply), Some(job.enqueued.elapsed()));
    let was = job.depth.fetch_sub(1, Ordering::Relaxed);
    if mcfs_obs::bus_enabled() {
        mcfs_obs::publish_scoped(
            job.scope,
            mcfs_obs::Event::QueueDepth {
                depth: was.saturating_sub(1) as u64,
            },
        );
    }
    // A session's ring ends with the session — a successful CLOSE or a
    // failed OPEN — after the last event published under its scope.
    if matches!(
        (verb, reply.is_ok()),
        (Verb::Close, true) | (Verb::Open, false)
    ) {
        mcfs_obs::flight::forget(job.scope);
    }
    // A vanished client (dropped connection) is not an error for the server.
    let _ = job.reply_tx.send((reply, handoff));
}

fn err(code: ErrorCode, message: impl Into<String>) -> Reply {
    Reply::Err {
        code,
        message: message.into(),
    }
}

fn execute(sessions: &mut HashMap<String, Session>, job: &Job, core: &ServerCore) -> Reply {
    match &job.request {
        Request::Open {
            session,
            kind,
            payload,
        } => {
            let reply = open_session(sessions, session, *kind, payload, core);
            if !reply.is_ok() {
                // Admission reserved the name; a failed open must free it.
                core.registry.lock().unwrap().remove(session);
            }
            reply
        }
        Request::Edit { session, edits, .. } => {
            with_session(sessions, session, |s| match s.apply(edits) {
                Ok(()) => Reply::Ok {
                    verb: Verb::Edit,
                    kvs: vec![("applied".into(), edits.len().to_string())],
                    payload: vec![],
                },
                Err(e) => err(ErrorCode::Edit, e.to_string()),
            })
        }
        Request::Solve { session, .. } => with_session(sessions, session, |s| match s.solve() {
            Ok(run) => {
                core.metrics.record_solve(run.warm, &run.solve_stats);
                Reply::Ok {
                    verb: Verb::Solve,
                    kvs: vec![
                        ("objective".into(), run.solution.objective.to_string()),
                        ("warm".into(), u8::from(run.warm).to_string()),
                        ("selected".into(), run.solution.facilities.len().to_string()),
                        (
                            "wall_us".into(),
                            run.solve_stats.total_wall().as_micros().to_string(),
                        ),
                    ],
                    payload: vec![],
                }
            }
            Err(e) => solve_err(e),
        }),
        Request::Assignment { session } => {
            with_session(sessions, session, |s| match s.current_run() {
                Some(run) => {
                    let mut buf = Vec::new();
                    write_solution(&mut buf, &run.solution).expect("Vec write cannot fail");
                    Reply::Ok {
                        verb: Verb::Assignment,
                        kvs: vec![("objective".into(), run.solution.objective.to_string())],
                        payload: crate::protocol::text_to_lines(
                            &String::from_utf8(buf).expect("solution text is ASCII"),
                        ),
                    }
                }
                None => err(
                    ErrorCode::State,
                    "no solution for the current instance (SOLVE first)",
                ),
            })
        }
        Request::Stats { session } => with_session(sessions, session, |s| match s.current_run() {
            Some(run) => Reply::Ok {
                verb: Verb::Stats,
                kvs: vec![],
                payload: run.to_kv_lines(),
            },
            None => err(
                ErrorCode::State,
                "no solution for the current instance (SOLVE first)",
            ),
        }),
        Request::Snapshot { session, .. } => {
            let text = match sessions.get_mut(session.as_str()) {
                Some(s) => match s.checkpoint_text() {
                    Ok(text) => text,
                    Err(e) => return solve_err(e),
                },
                None => return err(ErrorCode::NoSession, format!("no session {session:?}")),
            };
            let mut written = false;
            if let Some(dir) = &core.config.snapshot_dir {
                let path = dir.join(format!("{session}.ckpt"));
                if let Err(e) = std::fs::write(&path, &text) {
                    return err(ErrorCode::Io, format!("writing {}: {e}", path.display()));
                }
                core.metrics.snapshot_written();
                written = true;
            }
            Reply::Ok {
                verb: Verb::Snapshot,
                kvs: vec![("written".into(), u8::from(written).to_string())],
                payload: crate::protocol::text_to_lines(&text),
            }
        }
        Request::Close { session } => match sessions.remove(session.as_str()) {
            Some(_) => {
                core.metrics.session_closed();
                Reply::Ok {
                    verb: Verb::Close,
                    kvs: vec![],
                    payload: vec![],
                }
            }
            None => err(ErrorCode::NoSession, format!("no session {session:?}")),
        },
        Request::Trace {
            session, n, back, ..
        } => {
            let back = back.unwrap_or(0);
            let found = mcfs_obs::flight::request_spans(job.scope, "server.request", back);
            with_session(sessions, session, |_| match found {
                Some((trace, mut spans, truncated)) => {
                    let mut kvs = vec![
                        ("of".into(), trace.to_string()),
                        ("back".into(), back.to_string()),
                    ];
                    if let Some(n) = *n {
                        // Keep the *most recent* n spans (tail of the
                        // start-ordered list).
                        if spans.len() > n {
                            spans.drain(..spans.len() - n);
                        }
                    }
                    kvs.push(("spans".into(), spans.len().to_string()));
                    // The session's ring is bounded; if it has evicted part
                    // of this request, the waterfall is partial and the
                    // client must be told, not left guessing.
                    if truncated {
                        kvs.push(("truncated".into(), "1".into()));
                    }
                    Reply::Ok {
                        verb: Verb::Trace,
                        kvs,
                        payload: spans.iter().map(mcfs_obs::span_to_wire_line).collect(),
                    }
                }
                None => err(
                    ErrorCode::State,
                    "no traced request retained that far back (send trace=<id> first)",
                ),
            })
        }
        Request::Dump { session, .. } => with_session(sessions, session, |_s| {
            let payload: Vec<String> = mcfs_obs::flight::dump(job.scope)
                .iter()
                .map(mcfs_obs::flight::entry_to_json)
                .collect();
            Reply::Ok {
                verb: Verb::Dump,
                kvs: vec![
                    ("entries".into(), payload.len().to_string()),
                    (
                        "armed".into(),
                        u8::from(mcfs_obs::flight::armed()).to_string(),
                    ),
                ],
                payload,
            }
        }),
        // METRICS and PROFILE are answered inline by the connection layer;
        // a worker never sees them. WATCH/UNWATCH bind to a connection, not
        // a session queue, and are likewise handled there.
        Request::Metrics { .. } => err(ErrorCode::Proto, "METRICS is not a queued verb"),
        Request::Profile { .. } => err(ErrorCode::Proto, "PROFILE is not a queued verb"),
        Request::Watch { .. } | Request::Unwatch { .. } => err(
            ErrorCode::Proto,
            "WATCH/UNWATCH bind to a connection, not a session queue",
        ),
    }
}

fn with_session(
    sessions: &mut HashMap<String, Session>,
    name: &str,
    f: impl FnOnce(&mut Session) -> Reply,
) -> Reply {
    match sessions.get_mut(name) {
        Some(s) => f(s),
        // The registry said the session exists, but registration and
        // execution are not atomic (a CLOSE can be admitted in between).
        None => err(ErrorCode::NoSession, format!("no session {name:?}")),
    }
}

fn open_session(
    sessions: &mut HashMap<String, Session>,
    name: &str,
    kind: OpenKind,
    payload: &[String],
    core: &ServerCore,
) -> Reply {
    let mut text = payload.join("\n");
    text.push('\n');
    let solver = &core.config.solver;
    let built = match kind {
        OpenKind::Instance => read_instance(text.as_bytes())
            .map_err(|e| e.to_string())
            .and_then(|owned| {
                Session::open_instance(owned, solver.clone()).map_err(|e| e.to_string())
            }),
        OpenKind::Checkpoint => read_checkpoint(text.as_bytes())
            .map_err(|e| e.to_string())
            .and_then(|(owned, sol)| {
                Session::open_checkpoint(owned, sol, solver.clone()).map_err(|e| e.to_string())
            }),
    };
    match built {
        Ok(session) => {
            let kvs = vec![
                ("customers".into(), session.num_customers().to_string()),
                ("facilities".into(), session.num_facilities().to_string()),
                ("k".into(), session.k().to_string()),
                ("warm".into(), u8::from(session.restored()).to_string()),
            ];
            sessions.insert(name.to_owned(), session);
            core.metrics.session_opened();
            Reply::Ok {
                verb: Verb::Open,
                kvs,
                payload: vec![],
            }
        }
        Err(message) => err(ErrorCode::Parse, message),
    }
}

fn solve_err(e: SolveError) -> Reply {
    match e {
        SolveError::Infeasible(i) => err(ErrorCode::Infeasible, i.to_string()),
        other => err(ErrorCode::Solve, other.to_string()),
    }
}

fn shutdown_snapshot(sessions: &mut HashMap<String, Session>, core: &ServerCore) {
    let Some(dir) = &core.config.snapshot_dir else {
        return;
    };
    // Deterministic order makes operator logs and tests predictable.
    let mut names: Vec<&String> = sessions.keys().collect();
    names.sort();
    let names: Vec<String> = names.into_iter().cloned().collect();
    for name in names {
        let session = sessions.get_mut(&name).expect("collected from the map");
        if !session.dirty() {
            continue;
        }
        match session.checkpoint_text() {
            Ok(text) => {
                let path = dir.join(format!("{name}.ckpt"));
                match std::fs::write(&path, &text) {
                    Ok(()) => core.metrics.snapshot_written(),
                    Err(e) => eprintln!(
                        "mcfs-server: shutdown snapshot of {name:?} failed: {e} ({})",
                        path.display()
                    ),
                }
            }
            Err(e) => {
                eprintln!("mcfs-server: shutdown snapshot of {name:?} could not solve: {e}")
            }
        }
    }
}
