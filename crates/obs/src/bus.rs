//! The live event bus: bounded broadcast of solver and server progress.
//!
//! # Model
//!
//! Hot paths *publish* [`Event`]s; interested parties *subscribe* and drain
//! them. Every event is stamped with a process-wide sequence number and a
//! *scope* — the session-analog of a trace id: a server worker enters a
//! [`ScopeGuard`] for the session it is executing, and every event the
//! solver publishes on that thread inherits the session's scope, so a
//! `WATCH`ed connection can filter the firehose down to one session.
//!
//! # Backpressure
//!
//! Each subscriber owns a bounded ring. When a slow consumer falls behind,
//! the *oldest* events are dropped (a dashboard wants the freshest state)
//! and a per-subscriber drop counter advances; the next [`Subscriber::poll`]
//! reports how many events were lost since the previous drain. Publishers
//! never block on a consumer and never allocate on behalf of one beyond the
//! ring bound.
//!
//! # Cost when nobody subscribes
//!
//! [`publish`] — and the [`bus_enabled`] pre-check emission sites use to
//! skip building the event at all — is one relaxed [`AtomicBool`] load
//! while the subscriber list is empty, mirroring the disabled-tracing
//! discipline of [`crate::trace::span`]. `tests/obs_overhead.rs` keeps this
//! path honest.

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Duration;

/// Default bound on a subscriber's ring of undelivered events.
pub const DEFAULT_SUBSCRIBER_CAPACITY: usize = 1024;

/// Whether a [`Event::Phase`] marks the beginning or the end of a phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PhaseState {
    /// The phase just started.
    Start,
    /// The phase just finished.
    End,
}

impl PhaseState {
    /// Stable wire token (`start` / `end`).
    pub fn token(self) -> &'static str {
        match self {
            PhaseState::Start => "start",
            PhaseState::End => "end",
        }
    }

    /// Parse a wire token produced by [`PhaseState::token`].
    pub fn from_token(token: &str) -> Option<PhaseState> {
        match token {
            "start" => Some(PhaseState::Start),
            "end" => Some(PhaseState::End),
            _ => None,
        }
    }
}

/// One progress event. Every payload field is numeric or a fixed token, so
/// events serialize onto space-separated `k=v` wire lines without quoting.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// One solver main-loop iteration; mirrors the fields of
    /// `IterationStats` so a live consumer sees exactly what the post-hoc
    /// stats record.
    SolverIteration {
        /// Which solver loop published (`wma`, `wma-naive`).
        solver: &'static str,
        /// 1-based iteration number.
        iteration: u64,
        /// Customers covered by the tentative selection this iteration.
        covered: u64,
        /// Total customers in the instance.
        total: u64,
        /// Wall time of the matching phase, microseconds.
        matching_us: u64,
        /// Wall time of the set-cover check, microseconds.
        cover_us: u64,
        /// Total demand requested this iteration.
        demand: u64,
        /// Edges materialized in the bipartite graph so far.
        edges: u64,
    },
    /// A named phase started or finished (`resolve.selection`,
    /// `resolve.assignment`, `uf.attempt`, ...).
    Phase {
        /// Dot-separated phase name; contains no whitespace.
        name: &'static str,
        /// Whether the phase started or ended.
        state: PhaseState,
    },
    /// A re-solve finished, with its warm/cold outcome and objective.
    ResolveDone {
        /// Whether the warm path (dual certificate held) was taken.
        warm: bool,
        /// Objective value of the resulting assignment.
        objective: u64,
    },
    /// A session's outstanding-request queue depth changed.
    QueueDepth {
        /// Requests queued (admitted, not yet replied) for the session.
        depth: u64,
    },
    /// Matching substrate progress: cumulative augmenting paths committed.
    Augmentations {
        /// Total augmentations since the matcher was built.
        total: u64,
    },
    /// A cluster solve entered or left a named stage for one shard.
    /// `shard == shards` stands for cluster-wide stages (partition,
    /// reconcile) that are not attributable to a single shard.
    ShardPhase {
        /// 0-based shard index, or `shards` for cluster-wide stages.
        shard: u64,
        /// Total shards in this cluster solve.
        shards: u64,
        /// Stage name (`cluster.partition`, `cluster.solve`,
        /// `cluster.reconcile`); contains no whitespace.
        name: &'static str,
        /// Whether the stage started or ended.
        state: PhaseState,
    },
    /// Reconciliation progress of a cluster solve: how many boundary
    /// customers have been re-matched globally, and how many moved.
    Reconcile {
        /// Boundary customers re-examined so far.
        done: u64,
        /// Boundary customers in the partition.
        total: u64,
        /// Re-examined customers whose assignment changed.
        moved: u64,
    },
}

impl Event {
    /// Stable wire token for the event kind.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::SolverIteration { .. } => "iter",
            Event::Phase { .. } => "phase",
            Event::ResolveDone { .. } => "resolve",
            Event::QueueDepth { .. } => "queue",
            Event::Augmentations { .. } => "augment",
            Event::ShardPhase { .. } => "shard",
            Event::Reconcile { .. } => "reconcile",
        }
    }

    /// Payload as ordered `(key, value)` pairs; values are wire-safe (no
    /// whitespace). The inverse of [`Event::from_kvs`].
    pub fn to_kvs(&self) -> Vec<(&'static str, String)> {
        match self {
            Event::SolverIteration {
                solver,
                iteration,
                covered,
                total,
                matching_us,
                cover_us,
                demand,
                edges,
            } => vec![
                ("solver", (*solver).to_string()),
                ("iteration", iteration.to_string()),
                ("covered", covered.to_string()),
                ("total", total.to_string()),
                ("matching_us", matching_us.to_string()),
                ("cover_us", cover_us.to_string()),
                ("demand", demand.to_string()),
                ("edges", edges.to_string()),
            ],
            Event::Phase { name, state } => vec![
                ("name", (*name).to_string()),
                ("state", state.token().to_string()),
            ],
            Event::ResolveDone { warm, objective } => vec![
                ("warm", u64::from(*warm).to_string()),
                ("objective", objective.to_string()),
            ],
            Event::QueueDepth { depth } => vec![("depth", depth.to_string())],
            Event::Augmentations { total } => vec![("total", total.to_string())],
            Event::ShardPhase {
                shard,
                shards,
                name,
                state,
            } => vec![
                ("shard", shard.to_string()),
                ("shards", shards.to_string()),
                ("name", (*name).to_string()),
                ("state", state.token().to_string()),
            ],
            Event::Reconcile { done, total, moved } => vec![
                ("done", done.to_string()),
                ("total", total.to_string()),
                ("moved", moved.to_string()),
            ],
        }
    }

    /// Rebuild an event from its kind token and payload pairs. Unknown
    /// kinds, missing keys, or unparsable values yield `None`; extra keys
    /// are ignored for forward compatibility. Dynamic string fields
    /// (`solver`, `name`) are interned against the known emission-site
    /// vocabulary; an unknown token maps to a stable `"other"` so decoding
    /// stays total over `&'static str` fields.
    pub fn from_kvs(kind: &str, kvs: &[(String, String)]) -> Option<Event> {
        fn get<'a>(kvs: &'a [(String, String)], key: &str) -> Option<&'a str> {
            kvs.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
        }
        fn num(kvs: &[(String, String)], key: &str) -> Option<u64> {
            get(kvs, key)?.parse().ok()
        }
        match kind {
            "iter" => Some(Event::SolverIteration {
                solver: intern(get(kvs, "solver")?),
                iteration: num(kvs, "iteration")?,
                covered: num(kvs, "covered")?,
                total: num(kvs, "total")?,
                matching_us: num(kvs, "matching_us")?,
                cover_us: num(kvs, "cover_us")?,
                demand: num(kvs, "demand")?,
                edges: num(kvs, "edges")?,
            }),
            "phase" => Some(Event::Phase {
                name: intern(get(kvs, "name")?),
                state: PhaseState::from_token(get(kvs, "state")?)?,
            }),
            "resolve" => Some(Event::ResolveDone {
                warm: match num(kvs, "warm")? {
                    0 => false,
                    1 => true,
                    _ => return None,
                },
                objective: num(kvs, "objective")?,
            }),
            "queue" => Some(Event::QueueDepth {
                depth: num(kvs, "depth")?,
            }),
            "augment" => Some(Event::Augmentations {
                total: num(kvs, "total")?,
            }),
            "shard" => Some(Event::ShardPhase {
                shard: num(kvs, "shard")?,
                shards: num(kvs, "shards")?,
                name: intern(get(kvs, "name")?),
                state: PhaseState::from_token(get(kvs, "state")?)?,
            }),
            "reconcile" => Some(Event::Reconcile {
                done: num(kvs, "done")?,
                total: num(kvs, "total")?,
                moved: num(kvs, "moved")?,
            }),
            _ => None,
        }
    }
}

/// The vocabulary of `&'static str` tokens emission sites use; decoding
/// maps wire strings back onto it (see [`Event::from_kvs`]).
const TOKENS: &[&str] = &[
    "wma",
    "wma-naive",
    "uf.attempt",
    "resolve.selection",
    "resolve.assignment",
    "cluster.partition",
    "cluster.solve",
    "cluster.reconcile",
];

fn intern(s: &str) -> &'static str {
    TOKENS.iter().find(|t| **t == s).copied().unwrap_or("other")
}

/// One published event with its bus stamps.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EventRecord {
    /// Process-wide publish sequence number (never 0, strictly increasing
    /// across all scopes).
    pub seq: u64,
    /// Scope the publishing thread was inside (0 = unscoped).
    pub scope: u64,
    /// Publish time, nanoseconds since the trace epoch
    /// ([`crate::trace::now_ns`]).
    pub ts_ns: u64,
    /// The event payload.
    pub event: Event,
}

static BUS_ARMED: AtomicBool = AtomicBool::new(false);
static NEXT_SEQ: AtomicU64 = AtomicU64::new(1);
static NEXT_SCOPE: AtomicU64 = AtomicU64::new(1);
static DROPPED_TOTAL: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static CURRENT_SCOPE: Cell<u64> = const { Cell::new(0) };
}

struct SubscriberState {
    ring: VecDeque<EventRecord>,
    /// Events dropped since the last drain (reported, then reset).
    dropped_pending: u64,
}

struct SubscriberShared {
    /// Only events with this scope are enqueued; `None` = all scopes.
    filter: Option<u64>,
    capacity: usize,
    state: Mutex<SubscriberState>,
    wakeup: Condvar,
    dropped_total: AtomicU64,
}

fn subscribers() -> &'static Mutex<Vec<Arc<SubscriberShared>>> {
    static SUBS: OnceLock<Mutex<Vec<Arc<SubscriberShared>>>> = OnceLock::new();
    SUBS.get_or_init(|| Mutex::new(Vec::new()))
}

/// Whether anyone is listening — a live subscriber or the armed flight
/// recorder. One relaxed atomic load: emission sites check this before
/// assembling an [`Event`] so the nobody-listening cost stays within the
/// disabled-tracing budget.
#[inline]
pub fn bus_enabled() -> bool {
    BUS_ARMED.load(Relaxed)
}

/// Recompute the armed flag after the flight recorder toggles: the bus
/// stays hot while either subscribers exist or the recorder is armed.
pub(crate) fn flight_rearm() {
    let subs = subscribers().lock().unwrap();
    BUS_ARMED.store(!subs.is_empty() || crate::flight::armed(), Relaxed);
}

/// Mint a fresh scope id (never 0). The server mints one per session.
pub fn next_scope_id() -> u64 {
    NEXT_SCOPE.fetch_add(1, Relaxed)
}

/// The scope the calling thread is currently inside (0 = none).
pub fn current_scope() -> u64 {
    CURRENT_SCOPE.with(Cell::get)
}

/// Total events dropped across all subscribers since process start.
pub fn dropped_total() -> u64 {
    DROPPED_TOTAL.load(Relaxed)
}

/// RAII scope that stamps this thread's published events with `scope`.
pub struct ScopeGuard {
    prev: u64,
}

impl ScopeGuard {
    /// Enter `scope`; restored to the previous scope on drop.
    pub fn enter(scope: u64) -> ScopeGuard {
        let prev = CURRENT_SCOPE.with(|s| s.replace(scope));
        ScopeGuard { prev }
    }
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        CURRENT_SCOPE.with(|s| s.set(self.prev));
    }
}

/// Publish `event` under the calling thread's current scope. A single
/// relaxed load and immediate return when nobody subscribes.
#[inline]
pub fn publish(event: Event) {
    if !BUS_ARMED.load(Relaxed) {
        return;
    }
    publish_slow(current_scope(), event);
}

/// Publish `event` under an explicit `scope` (for call sites that hold the
/// session's scope but run outside the worker thread, e.g. admission).
#[inline]
pub fn publish_scoped(scope: u64, event: Event) {
    if !BUS_ARMED.load(Relaxed) {
        return;
    }
    publish_slow(scope, event);
}

#[cold]
fn publish_slow(scope: u64, event: Event) {
    let subs = subscribers().lock().unwrap();
    // The sequence number is minted under the subscriber lock: publishers
    // racing on different threads would otherwise insert into the rings in
    // a different order than their seqs, and a drained stream must be
    // strictly seq-monotone.
    let record = EventRecord {
        seq: NEXT_SEQ.fetch_add(1, Relaxed),
        scope,
        ts_ns: crate::trace::now_ns(),
        event,
    };
    for sub in subs.iter() {
        if let Some(want) = sub.filter {
            if want != scope {
                continue;
            }
        }
        let mut state = sub.state.lock().unwrap();
        while state.ring.len() >= sub.capacity.max(1) {
            state.ring.pop_front();
            state.dropped_pending += 1;
            sub.dropped_total.fetch_add(1, Relaxed);
            DROPPED_TOTAL.fetch_add(1, Relaxed);
        }
        state.ring.push_back(record.clone());
        drop(state);
        sub.wakeup.notify_one();
    }
    drop(subs);
    if crate::flight::armed() {
        crate::flight::record_event(&record);
    }
}

/// A batch drained from a subscriber's ring.
#[derive(Debug, Default)]
pub struct Drain {
    /// Events in publish order.
    pub events: Vec<EventRecord>,
    /// Events lost to ring overflow since the previous drain. Losses sit
    /// *before* `events` in publish order (the ring drops oldest-first).
    pub dropped: u64,
}

impl Drain {
    /// True when the drain carried neither events nor a drop notice.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.dropped == 0
    }
}

/// A live subscription; unregisters (and disarms the bus if it was the
/// last subscriber) on drop.
pub struct Subscriber {
    shared: Arc<SubscriberShared>,
}

/// Subscribe to events of `scope` (`None` = all scopes) with the default
/// ring capacity.
pub fn subscribe(scope: Option<u64>) -> Subscriber {
    subscribe_with_capacity(scope, DEFAULT_SUBSCRIBER_CAPACITY)
}

/// Subscribe with an explicit ring bound (clamped to at least 1).
pub fn subscribe_with_capacity(scope: Option<u64>, capacity: usize) -> Subscriber {
    let shared = Arc::new(SubscriberShared {
        filter: scope,
        capacity: capacity.max(1),
        state: Mutex::new(SubscriberState {
            ring: VecDeque::new(),
            dropped_pending: 0,
        }),
        wakeup: Condvar::new(),
        dropped_total: AtomicU64::new(0),
    });
    let mut subs = subscribers().lock().unwrap();
    subs.push(Arc::clone(&shared));
    // Arm while still holding the list lock so a racing publish on another
    // thread cannot observe armed-without-subscribers or vice versa in a
    // way that strands this subscriber permanently silent.
    BUS_ARMED.store(true, Relaxed);
    drop(subs);
    Subscriber { shared }
}

impl Subscriber {
    /// Drain everything currently buffered without blocking.
    pub fn poll(&self) -> Drain {
        let mut state = self.shared.state.lock().unwrap();
        Drain {
            events: state.ring.drain(..).collect(),
            dropped: std::mem::take(&mut state.dropped_pending),
        }
    }

    /// Block until at least one event (or drop notice) is buffered, or
    /// `timeout` elapses; then drain. An empty [`Drain`] means timeout.
    pub fn wait(&self, timeout: Duration) -> Drain {
        let mut state = self.shared.state.lock().unwrap();
        if state.ring.is_empty() && state.dropped_pending == 0 {
            let (guard, _timed_out) = self
                .shared
                .wakeup
                .wait_timeout(state, timeout)
                .unwrap_or_else(|e| e.into_inner());
            state = guard;
        }
        Drain {
            events: state.ring.drain(..).collect(),
            dropped: std::mem::take(&mut state.dropped_pending),
        }
    }

    /// Total events this subscriber has lost to overflow, including losses
    /// already reported by [`Subscriber::poll`].
    pub fn dropped_total(&self) -> u64 {
        self.shared.dropped_total.load(Relaxed)
    }
}

impl Drop for Subscriber {
    fn drop(&mut self) {
        let mut subs = subscribers().lock().unwrap();
        subs.retain(|s| !Arc::ptr_eq(s, &self.shared));
        if subs.is_empty() && !crate::flight::armed() {
            BUS_ARMED.store(false, Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tick(n: u64) -> Event {
        Event::QueueDepth { depth: n }
    }

    #[test]
    fn publish_without_subscribers_is_inert() {
        // Other tests in this binary may hold live subscribers; rely on
        // scope isolation instead of global emptiness.
        let scope = next_scope_id();
        publish_scoped(scope, tick(1));
        let sub = subscribe(Some(scope));
        let drain = sub.poll();
        assert!(drain.is_empty(), "pre-subscribe publish must not buffer");
    }

    #[test]
    fn events_arrive_in_order_with_stamps() {
        let scope = next_scope_id();
        let sub = subscribe(Some(scope));
        let _guard = ScopeGuard::enter(scope);
        assert!(bus_enabled());
        publish(tick(1));
        publish(tick(2));
        let drain = sub.poll();
        assert_eq!(drain.dropped, 0);
        assert_eq!(drain.events.len(), 2);
        assert!(drain.events[0].seq < drain.events[1].seq);
        assert!(drain.events.iter().all(|e| e.scope == scope));
        assert_eq!(drain.events[1].event, tick(2));
    }

    #[test]
    fn scope_filter_excludes_other_scopes() {
        let mine = next_scope_id();
        let other = next_scope_id();
        let sub = subscribe(Some(mine));
        publish_scoped(other, tick(7));
        publish_scoped(mine, tick(8));
        let drain = sub.poll();
        assert_eq!(drain.events.len(), 1);
        assert_eq!(drain.events[0].event, tick(8));
    }

    #[test]
    fn overflow_drops_oldest_and_counts() {
        let scope = next_scope_id();
        let sub = subscribe_with_capacity(Some(scope), 2);
        for i in 0..10 {
            publish_scoped(scope, tick(i));
        }
        let drain = sub.poll();
        assert_eq!(drain.events.len(), 2);
        assert_eq!(drain.dropped, 8);
        assert_eq!(sub.dropped_total(), 8);
        // The freshest events survive.
        assert_eq!(drain.events[1].event, tick(9));
        // events + dropped reconcile with what was published.
        assert_eq!(drain.events.len() as u64 + drain.dropped, 10);
        // A later drain does not re-report old losses.
        assert_eq!(sub.poll().dropped, 0);
    }

    #[test]
    fn scope_guard_nests_and_restores() {
        assert_eq!(current_scope(), 0);
        let outer = next_scope_id();
        let inner = next_scope_id();
        let _a = ScopeGuard::enter(outer);
        assert_eq!(current_scope(), outer);
        {
            let _b = ScopeGuard::enter(inner);
            assert_eq!(current_scope(), inner);
        }
        assert_eq!(current_scope(), outer);
    }

    #[test]
    fn wait_wakes_on_publish() {
        let scope = next_scope_id();
        let sub = subscribe(Some(scope));
        let publisher = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            publish_scoped(scope, tick(3));
        });
        let drain = sub.wait(Duration::from_secs(5));
        assert_eq!(drain.events.len(), 1);
        publisher.join().unwrap();
        // And a wait with nothing pending times out empty.
        assert!(sub.wait(Duration::from_millis(10)).is_empty());
    }

    #[test]
    fn kv_round_trip_all_variants() {
        let events = [
            Event::SolverIteration {
                solver: "wma",
                iteration: 3,
                covered: 42,
                total: 60,
                matching_us: 1200,
                cover_us: 80,
                demand: 77,
                edges: 512,
            },
            Event::Phase {
                name: "resolve.selection",
                state: PhaseState::Start,
            },
            Event::Phase {
                name: "resolve.assignment",
                state: PhaseState::End,
            },
            Event::ResolveDone {
                warm: true,
                objective: 123_456,
            },
            Event::QueueDepth { depth: 5 },
            Event::Augmentations { total: 999 },
            Event::ShardPhase {
                shard: 2,
                shards: 4,
                name: "cluster.solve",
                state: PhaseState::Start,
            },
            Event::ShardPhase {
                shard: 4,
                shards: 4,
                name: "cluster.reconcile",
                state: PhaseState::End,
            },
            Event::Reconcile {
                done: 10,
                total: 24,
                moved: 3,
            },
        ];
        for event in events {
            let kvs: Vec<(String, String)> = event
                .to_kvs()
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect();
            let back = Event::from_kvs(event.kind(), &kvs).unwrap();
            assert_eq!(back, event);
        }
    }

    #[test]
    fn from_kvs_rejects_junk() {
        assert!(Event::from_kvs("nope", &[]).is_none());
        assert!(Event::from_kvs("queue", &[]).is_none());
        let bad = [("depth".to_string(), "x".to_string())];
        assert!(Event::from_kvs("queue", &bad).is_none());
        let warm2 = [
            ("warm".to_string(), "2".to_string()),
            ("objective".to_string(), "1".to_string()),
        ];
        assert!(Event::from_kvs("resolve", &warm2).is_none());
    }

    #[test]
    fn unknown_tokens_intern_to_other() {
        let kvs = [
            ("name".to_string(), "mystery.phase".to_string()),
            ("state".to_string(), "start".to_string()),
        ];
        let event = Event::from_kvs("phase", &kvs).unwrap();
        assert_eq!(
            event,
            Event::Phase {
                name: "other",
                state: PhaseState::Start
            }
        );
    }
}
