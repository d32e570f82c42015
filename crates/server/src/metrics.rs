//! Live service metrics: lock-free counters and a log2 latency histogram.
//!
//! Every reply site records exactly one `(verb, outcome)` event, so the
//! counters reconcile with the requests clients actually sent — the
//! integration suite asserts this. Counters are plain relaxed atomics: the
//! metrics path must never contend with the solve path.
//!
//! Since the `mcfs-obs` substrate landed, [`Metrics`] is a thin view over a
//! per-server [`mcfs_obs::Registry`]: every cell below is a registry handle
//! (family `mcfs_server_*`), so the same numbers are available both as the
//! legacy `key value` lines of the `METRICS` verb and as Prometheus text
//! exposition ([`Metrics::to_prometheus`], which also appends the
//! process-global registry that the oracle/matcher/solver layers feed).
//! Each server owns its own registry, so two servers in one process never
//! mix their request counters.

use std::sync::Arc;
use std::time::Duration;

use mcfs::SolveStats;
use mcfs_obs::{Counter, Gauge, Histogram, Registry};

use crate::protocol::{Reply, Verb};

/// Reply outcomes, mirroring the four reply statuses on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// `ok` reply.
    Ok,
    /// `busy` shed by admission control.
    Busy,
    /// `timeout` of a queued request.
    Timeout,
    /// `err` reply.
    Err,
}

impl Outcome {
    /// Every outcome, in wire order.
    pub const ALL: [Outcome; 4] = [Outcome::Ok, Outcome::Busy, Outcome::Timeout, Outcome::Err];

    /// The lowercase name used in metrics keys.
    pub fn name(self) -> &'static str {
        match self {
            Outcome::Ok => "ok",
            Outcome::Busy => "busy",
            Outcome::Timeout => "timeout",
            Outcome::Err => "err",
        }
    }

    /// The outcome's position in [`Outcome::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }

    /// The outcome a reply reports.
    pub fn of(reply: &Reply) -> Outcome {
        match reply {
            Reply::Ok { .. } => Outcome::Ok,
            Reply::Busy { .. } => Outcome::Busy,
            Reply::Timeout { .. } => Outcome::Timeout,
            Reply::Err { .. } => Outcome::Err,
        }
    }
}

const VERBS: usize = Verb::ALL.len();
const OUTCOMES: usize = Outcome::ALL.len();

/// Number of histogram buckets: bucket `i < LATENCY_BUCKETS - 1` counts
/// requests whose wall time was in `[2^(i-1), 2^i)` microseconds (bucket 0
/// is `< 1µs`); the last bucket is the catch-all.
pub const LATENCY_BUCKETS: usize = 28;

/// The shared, live counter set — a view over this server's registry.
#[derive(Debug)]
pub struct Metrics {
    registry: Arc<Registry>,
    /// `(verb, outcome)` grid, flattened row-major over [`Verb::ALL`].
    requests: Vec<Counter>,
    latency: Histogram,
    queue_depth_highwater: Gauge,
    solves_warm: Counter,
    solves_cold: Counter,
    oracle_cache_hits: Counter,
    oracle_cache_misses: Counter,
    oracle_nodes_settled: Counter,
    sessions_open: Gauge,
    sessions_opened_total: Counter,
    snapshots_written: Counter,
    /// Event frames written to `WATCH`ing connections.
    events_streamed: Counter,
    /// Events shed by subscriber rings and reported as `dropped=` markers.
    events_dropped: Counter,
    /// Frames that never parsed to a verb (counted outside the grid).
    unparsed: Counter,
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics {
    /// Fresh, all-zero counters over a private registry.
    pub fn new() -> Self {
        let registry = Arc::new(Registry::new());
        let mut requests = Vec::with_capacity(VERBS * OUTCOMES);
        for verb in Verb::ALL {
            for outcome in Outcome::ALL {
                requests.push(registry.counter_with(
                    "mcfs_server_requests_total",
                    "Replies sent, by request verb and reply outcome",
                    &[("verb", verb.name()), ("outcome", outcome.name())],
                ));
            }
        }
        let latency = registry.histogram_log2(
            "mcfs_server_request_latency_us",
            "Admission-to-reply wall time of queued requests, microseconds",
            LATENCY_BUCKETS,
        );
        Self {
            requests,
            latency,
            queue_depth_highwater: registry.gauge(
                "mcfs_server_queue_depth_highwater",
                "Highest per-session queue depth observed",
            ),
            solves_warm: registry.counter_with(
                "mcfs_server_solves_total",
                "Solver runs executed on behalf of SOLVE requests",
                &[("mode", "warm")],
            ),
            solves_cold: registry.counter_with(
                "mcfs_server_solves_total",
                "Solver runs executed on behalf of SOLVE requests",
                &[("mode", "cold")],
            ),
            oracle_cache_hits: registry.counter(
                "mcfs_server_oracle_cache_hits_total",
                "Oracle row-cache hits attributed to served solves",
            ),
            oracle_cache_misses: registry.counter(
                "mcfs_server_oracle_cache_misses_total",
                "Oracle row-cache misses attributed to served solves",
            ),
            oracle_nodes_settled: registry.counter(
                "mcfs_server_oracle_nodes_settled_total",
                "Nodes settled by the oracle on behalf of served solves",
            ),
            sessions_open: registry.gauge("mcfs_server_sessions_open", "Sessions currently open"),
            sessions_opened_total: registry
                .counter("mcfs_server_sessions_opened_total", "Sessions ever opened"),
            snapshots_written: registry.counter(
                "mcfs_server_snapshots_written_total",
                "Checkpoint files written (SNAPSHOT verb or shutdown drain)",
            ),
            events_streamed: registry.counter(
                "mcfs_server_events_streamed_total",
                "Event frames written to WATCHing connections",
            ),
            events_dropped: registry.counter(
                "mcfs_server_events_dropped_total",
                "Events shed by subscriber rings (reported as dropped= markers)",
            ),
            unparsed: registry.counter(
                "mcfs_server_requests_unparsed_total",
                "Frames that failed protocol parsing before reaching a verb",
            ),
            registry,
        }
    }

    /// The registry backing this server's counters (family `mcfs_server_*`).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Record one reply. `latency` is admission-to-reply wall time where it
    /// is meaningful (queued requests); inline replies pass `None`.
    pub fn record_request(&self, verb: Verb, outcome: Outcome, latency: Option<Duration>) {
        self.requests[verb.index() * OUTCOMES + outcome.index()].inc();
        if let Some(lat) = latency {
            let us = lat.as_micros().min(u64::MAX as u128) as u64;
            self.latency.observe(us);
        }
    }

    /// Record a frame that failed protocol parsing — it has no verb, so it
    /// lives outside the `(verb, outcome)` grid.
    pub fn record_unparsed(&self) {
        self.unparsed.inc();
    }

    /// Track the per-session queue-depth high-water mark.
    pub fn note_queue_depth(&self, depth: usize) {
        self.queue_depth_highwater.set_max(depth as u64);
    }

    /// Account one solver run: warm/cold classification and the oracle
    /// cache activity its [`SolveStats`] attribute to it.
    pub fn record_solve(&self, warm: bool, stats: &SolveStats) {
        if warm {
            self.solves_warm.inc();
        } else {
            self.solves_cold.inc();
        }
        self.oracle_cache_hits.add(stats.cache_hits);
        self.oracle_cache_misses.add(stats.cache_misses);
        self.oracle_nodes_settled.add(stats.oracle_nodes_settled);
    }

    /// A session was created.
    pub fn session_opened(&self) {
        self.sessions_open.inc();
        self.sessions_opened_total.inc();
    }

    /// A session was closed.
    pub fn session_closed(&self) {
        self.sessions_open.dec();
    }

    /// A checkpoint file was written (SNAPSHOT verb or shutdown drain).
    pub fn snapshot_written(&self) {
        self.snapshots_written.inc();
    }

    /// Number of snapshots written so far.
    pub fn snapshots(&self) -> u64 {
        self.snapshots_written.get()
    }

    /// Account `n` event frames streamed to a `WATCH`ing connection.
    pub fn events_streamed(&self, n: u64) {
        self.events_streamed.add(n);
    }

    /// Account `n` events shed by a subscriber ring before delivery.
    pub fn events_dropped(&self, n: u64) {
        self.events_dropped.add(n);
    }

    /// Render the counters as stable `key value` lines — the `METRICS`
    /// reply payload. Zero counters are included so clients can reconcile
    /// against the full verb × outcome grid without special-casing.
    pub fn to_kv_lines(&self) -> Vec<String> {
        let mut out = Vec::with_capacity(VERBS * OUTCOMES + LATENCY_BUCKETS + 12);
        for verb in Verb::ALL {
            for outcome in Outcome::ALL {
                out.push(format!(
                    "requests.{}.{} {}",
                    verb.name(),
                    outcome.name(),
                    self.requests[verb.index() * OUTCOMES + outcome.index()].get()
                ));
            }
        }
        out.push(format!("requests.unparsed {}", self.unparsed.get()));
        out.push(format!(
            "queue_depth_highwater {}",
            self.queue_depth_highwater.get()
        ));
        out.push(format!("solves.warm {}", self.solves_warm.get()));
        out.push(format!("solves.cold {}", self.solves_cold.get()));
        out.push(format!(
            "oracle.cache_hits {}",
            self.oracle_cache_hits.get()
        ));
        out.push(format!(
            "oracle.cache_misses {}",
            self.oracle_cache_misses.get()
        ));
        out.push(format!(
            "oracle.nodes_settled {}",
            self.oracle_nodes_settled.get()
        ));
        out.push(format!("sessions.open {}", self.sessions_open.get()));
        out.push(format!(
            "sessions.opened_total {}",
            self.sessions_opened_total.get()
        ));
        out.push(format!(
            "snapshots.written {}",
            self.snapshots_written.get()
        ));
        out.push(format!("events.streamed {}", self.events_streamed.get()));
        out.push(format!("events.dropped {}", self.events_dropped.get()));
        for i in 0..LATENCY_BUCKETS {
            let label = if i + 1 == LATENCY_BUCKETS {
                format!("latency_us.ge_{}", 1u64 << (LATENCY_BUCKETS - 2))
            } else {
                format!("latency_us.lt_{}", 1u64 << i)
            };
            out.push(format!("{label} {}", self.latency.bucket_count(i)));
        }
        out
    }

    /// Render this server's counters plus the process-global solver-side
    /// families (`mcfs_oracle_*`, `mcfs_matcher_*`, `mcfs_wma_*`,
    /// `mcfs_resolve_*`) in the Prometheus text exposition format.
    pub fn to_prometheus(&self) -> String {
        let mut out = self.registry.render_prometheus();
        out.push_str(&Registry::global().render_prometheus());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_land_in_the_right_cells() {
        let m = Metrics::new();
        m.record_request(Verb::Solve, Outcome::Ok, Some(Duration::from_micros(3)));
        m.record_request(Verb::Solve, Outcome::Ok, Some(Duration::from_micros(900)));
        m.record_request(Verb::Solve, Outcome::Busy, None);
        m.record_request(Verb::Open, Outcome::Err, None);
        m.note_queue_depth(3);
        m.note_queue_depth(2);
        let lines = m.to_kv_lines();
        let get = |key: &str| -> u64 {
            lines
                .iter()
                .find_map(|l| l.strip_prefix(&format!("{key} ")))
                .unwrap_or_else(|| panic!("missing {key}"))
                .parse()
                .unwrap()
        };
        assert_eq!(get("requests.solve.ok"), 2);
        assert_eq!(get("requests.solve.busy"), 1);
        assert_eq!(get("requests.open.err"), 1);
        assert_eq!(get("requests.close.ok"), 0);
        assert_eq!(get("queue_depth_highwater"), 3);
        // 3µs lands in [2,4) = lt_4; 900µs in [512,1024) = lt_1024.
        assert_eq!(get("latency_us.lt_4"), 1);
        assert_eq!(get("latency_us.lt_1024"), 1);
    }

    #[test]
    fn solve_accounting_accumulates_oracle_activity() {
        let m = Metrics::new();
        let mut s = SolveStats::for_threads(1);
        s.cache_hits = 5;
        s.cache_misses = 2;
        s.oracle_nodes_settled = 100;
        m.record_solve(true, &s);
        m.record_solve(false, &s);
        let lines = m.to_kv_lines();
        assert!(lines.contains(&"solves.warm 1".to_string()));
        assert!(lines.contains(&"solves.cold 1".to_string()));
        assert!(lines.contains(&"oracle.cache_hits 10".to_string()));
        assert!(lines.contains(&"oracle.nodes_settled 200".to_string()));
    }

    #[test]
    fn latency_extremes_hit_the_edge_buckets() {
        let m = Metrics::new();
        m.record_request(Verb::Stats, Outcome::Ok, Some(Duration::ZERO));
        m.record_request(Verb::Stats, Outcome::Ok, Some(Duration::from_secs(10_000)));
        let lines = m.to_kv_lines();
        assert!(lines.contains(&"latency_us.lt_1 1".to_string()));
        assert!(lines
            .iter()
            .any(|l| l.starts_with("latency_us.ge_") && l.ends_with(" 1")));
    }

    #[test]
    fn prometheus_view_reconciles_with_kv_lines() {
        let m = Metrics::new();
        m.record_request(Verb::Solve, Outcome::Ok, Some(Duration::from_micros(7)));
        m.record_request(Verb::Solve, Outcome::Err, None);
        m.record_unparsed();
        m.session_opened();
        let text = m.to_prometheus();
        assert!(text.contains("# TYPE mcfs_server_requests_total counter"));
        assert!(
            text.contains("mcfs_server_requests_total{verb=\"solve\",outcome=\"ok\"} 1\n"),
            "missing solve/ok cell in:\n{text}"
        );
        assert!(text.contains("mcfs_server_requests_total{verb=\"solve\",outcome=\"err\"} 1\n"));
        assert!(text.contains("mcfs_server_requests_unparsed_total 1\n"));
        assert!(text.contains("mcfs_server_sessions_open 1\n"));
        assert!(text.contains("mcfs_server_request_latency_us_count 1\n"));
        assert!(text.contains("mcfs_server_request_latency_us_sum 7\n"));
        // Two servers in one process do not share cells.
        let other = Metrics::new();
        assert!(other
            .to_prometheus()
            .contains("mcfs_server_requests_unparsed_total 0\n"));
    }
}
