//! Run reports: parse the server's `METRICS` kv read-back, reconcile it
//! against the client-side view, render `BENCH_LOAD.json`, and check SLO
//! gates.

use mcfs_server::protocol::Verb;
use mcfs_server::Outcome;

use crate::driver::{RunOutput, VERBS};
use crate::histogram::{Log2Hist, BUCKETS};

/// The server-side counters a run cares about, parsed from `METRICS` kv
/// lines.
#[derive(Clone, Debug, Default)]
pub struct ServerView {
    /// `requests.<verb>.<outcome>`, indexed like the client matrix.
    pub counts: [[u64; 4]; VERBS],
    /// The server's latency histogram (queued requests only).
    pub hist: Log2Hist,
    /// `events.streamed`.
    pub events_streamed: u64,
    /// `events.dropped`.
    pub events_dropped: u64,
    /// `requests.unparsed`.
    pub unparsed: u64,
    /// `queue_depth_highwater`.
    pub queue_highwater: u64,
    /// `sessions.opened_total`.
    pub sessions_opened: u64,
}

impl ServerView {
    /// Parse the kv lines the `METRICS` verb returns.
    pub fn parse(lines: &[String]) -> ServerView {
        let mut view = ServerView::default();
        let mut buckets = [0u64; BUCKETS];
        let get = |lines: &[String], key: &str| -> u64 {
            lines
                .iter()
                .find_map(|l| l.strip_prefix(key).and_then(|r| r.strip_prefix(' ')))
                .and_then(|v| v.parse().ok())
                .unwrap_or(0)
        };
        for (vi, verb) in Verb::ALL.into_iter().enumerate() {
            for (oi, outcome) in Outcome::ALL.into_iter().enumerate() {
                view.counts[vi][oi] = get(
                    lines,
                    &format!("requests.{}.{}", verb.name(), outcome.name()),
                );
            }
        }
        for (i, cell) in buckets.iter_mut().enumerate() {
            let key = if i + 1 == BUCKETS {
                format!("latency_us.ge_{}", 1u64 << (BUCKETS - 2))
            } else {
                format!("latency_us.lt_{}", 1u64 << i)
            };
            *cell = get(lines, &key);
        }
        view.hist = Log2Hist::from_buckets(buckets);
        view.events_streamed = get(lines, "events.streamed");
        view.events_dropped = get(lines, "events.dropped");
        view.unparsed = get(lines, "requests.unparsed");
        view.queue_highwater = get(lines, "queue_depth_highwater");
        view.sessions_opened = get(lines, "sessions.opened_total");
        view
    }

    /// Total server-side count for one outcome across all verbs.
    pub fn outcome_total(&self, o: Outcome) -> u64 {
        let oi = Outcome::ALL.iter().position(|&x| x == o).unwrap();
        self.counts.iter().map(|row| row[oi]).sum()
    }
}

/// The result of reconciling client and server views of the same run.
#[derive(Clone, Debug)]
pub struct Reconciliation {
    /// Per-(verb, outcome) counts agree exactly.
    pub counts_match: bool,
    /// Count cells that disagree, as `(key, client, server)`.
    pub count_mismatches: Vec<(String, u64, u64)>,
    /// Client p50 bucket minus server p50 bucket (client-side includes
    /// wire time, so a small positive skew is expected).
    pub p50_bucket_delta: i64,
    /// Same for p99.
    pub p99_bucket_delta: i64,
    /// Both sample counts, for context.
    pub client_samples: u64,
    /// Server histogram sample count.
    pub server_samples: u64,
    /// `|p50 delta| ≤ 1 && |p99 delta| ≤ 1` (and counts on clean runs).
    pub within_one_bucket: bool,
}

/// Reconcile a run's client view against the server's read-back.
///
/// `strict_counts` should be true only for clean (non-chaos) runs where
/// the driver's connections were the server's sole traffic — killed
/// connections and truncated frames legitimately desynchronize counts.
pub fn reconcile(run: &RunOutput, server: &ServerView, strict_counts: bool) -> Reconciliation {
    let mut mismatches = Vec::new();
    for (vi, verb) in Verb::ALL.into_iter().enumerate() {
        for (oi, outcome) in Outcome::ALL.into_iter().enumerate() {
            let (c, s) = (run.stats.counts[vi][oi], server.counts[vi][oi]);
            if c != s {
                mismatches.push((format!("{}.{}", verb.name(), outcome.name()), c, s));
            }
        }
    }
    let delta = |p: f64| -> i64 {
        let c = run.stats.reconcile.percentile_bucket(p).unwrap_or(0) as i64;
        let s = server.hist.percentile_bucket(p).unwrap_or(0) as i64;
        c - s
    };
    let (d50, d99) = (delta(0.50), (delta(0.99)));
    let counts_match = mismatches.is_empty();
    Reconciliation {
        counts_match,
        count_mismatches: mismatches,
        p50_bucket_delta: d50,
        p99_bucket_delta: d99,
        client_samples: run.stats.reconcile.count(),
        server_samples: server.hist.count(),
        within_one_bucket: d50.abs() <= 1 && d99.abs() <= 1 && (counts_match || !strict_counts),
    }
}

/// What the run's continuous-profiler window showed, distilled from the
/// `PROFILE` diff the driver takes across the measured loop.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProfileCheck {
    /// Both bracketing `PROFILE` fetches round-tripped.
    pub available: bool,
    /// Non-idle samples inside the window.
    pub samples: u64,
    /// Share of those samples on fully-named span paths (no `unknown`
    /// frame), in ppm.
    pub named_ppm: u64,
    /// Idle (no-open-span) samples inside the window.
    pub idle: u64,
    /// Samples lost to path-table overflow inside the window.
    pub dropped: u64,
}

impl ProfileCheck {
    /// Distill the driver's window diff.
    pub fn from_window(window: Option<&mcfs_obs::ProfileSnapshot>) -> ProfileCheck {
        let Some(w) = window else {
            return ProfileCheck::default();
        };
        let samples = w.total_samples();
        let named: u64 = w
            .merged
            .iter()
            .filter(|(path, _)| path.split(';').skip(1).all(|f| f != "unknown"))
            .map(|(_, &n)| n)
            .sum();
        ProfileCheck {
            available: true,
            samples,
            named_ppm: (named * 1_000_000).checked_div(samples).unwrap_or(0),
            idle: w.idle_samples,
            dropped: w.dropped_samples,
        }
    }
}

/// SLO gates checked by `mcfs-loadgen` (exit code 2 on breach) and CI.
#[derive(Clone, Copy, Debug)]
pub struct Gates {
    /// Measured-loop throughput floor in requests/second (0 = off).
    pub min_throughput_rps: f64,
    /// Client p99 ceiling in µs across queued verbs (0 = off).
    pub max_p99_us: u64,
    /// Require client/server reconciliation within one bucket.
    pub require_reconciliation: bool,
    /// Require the profiler to have sampled the run: `PROFILE`
    /// round-trips under load, the window holds samples, ≥90% of them on
    /// fully-named span paths, and none lost to table overflow.
    pub require_profile: bool,
}

impl Default for Gates {
    fn default() -> Self {
        Gates {
            min_throughput_rps: 0.0,
            max_p99_us: 0,
            require_reconciliation: false,
            require_profile: false,
        }
    }
}

/// Everything `BENCH_LOAD.json` records about one run.
pub struct LoadReport {
    /// Profile name / mix token.
    pub mix: &'static str,
    /// `"in-process"` or `"tcp"`.
    pub transport: &'static str,
    /// Connections driven.
    pub connections: usize,
    /// Sessions opened.
    pub sessions: usize,
    /// Master seed.
    pub seed: u64,
    /// The run itself.
    pub run: RunOutput,
    /// Parsed server read-back.
    pub server: ServerView,
    /// Client-vs-server reconciliation.
    pub reconciliation: Reconciliation,
    /// Profiler window distilled (zeroed when `PROFILE` never answered).
    pub profile: ProfileCheck,
    /// Chaos summary lines (empty on clean runs), as `(key, value)`.
    pub chaos: Vec<(String, u64)>,
}

impl LoadReport {
    /// Build a report (reconciling strictly unless chaos ran).
    pub fn new(
        mix: &'static str,
        transport: &'static str,
        connections: usize,
        sessions: usize,
        seed: u64,
        run: RunOutput,
        chaos: Vec<(String, u64)>,
    ) -> LoadReport {
        let server = ServerView::parse(&run.server_kv);
        let reconciliation = reconcile(&run, &server, chaos.is_empty());
        let profile = ProfileCheck::from_window(run.profile_window.as_ref());
        LoadReport {
            mix,
            transport,
            connections,
            sessions,
            seed,
            run,
            server,
            reconciliation,
            profile,
            chaos,
        }
    }

    /// Gate violations, empty when the run passes.
    pub fn gate_violations(&self, gates: &Gates) -> Vec<String> {
        let mut v = Vec::new();
        let rps = self.run.throughput_rps();
        if gates.min_throughput_rps > 0.0 && rps < gates.min_throughput_rps {
            v.push(format!(
                "throughput {rps:.1} rps below floor {:.1}",
                gates.min_throughput_rps
            ));
        }
        if gates.max_p99_us > 0 {
            let p99 = self
                .run
                .stats
                .reconcile
                .percentile_upper_us(0.99)
                .unwrap_or(0);
            if p99 > gates.max_p99_us {
                v.push(format!(
                    "client p99 ≤{p99}µs above ceiling {}µs",
                    gates.max_p99_us
                ));
            }
        }
        if gates.require_reconciliation && !self.reconciliation.within_one_bucket {
            v.push(format!(
                "client/server reconciliation failed: p50 delta {}, p99 delta {}, {} count mismatches",
                self.reconciliation.p50_bucket_delta,
                self.reconciliation.p99_bucket_delta,
                self.reconciliation.count_mismatches.len()
            ));
        }
        if gates.require_profile {
            if !self.profile.available {
                v.push("PROFILE did not round-trip under load".into());
            } else if self.profile.samples == 0 {
                v.push("profiler saw no samples during the measured loop".into());
            } else {
                if self.profile.named_ppm < 900_000 {
                    v.push(format!(
                        "only {:.1}% of profile samples on fully-named span paths (need 90%)",
                        self.profile.named_ppm as f64 / 1e4
                    ));
                }
                if self.profile.dropped > 0 {
                    v.push(format!(
                        "profiler dropped {} samples to path-table overflow under load",
                        self.profile.dropped
                    ));
                }
            }
        }
        v
    }

    /// Render the report as pretty-printed JSON (hand-rolled; the repo
    /// carries no serde).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let push = |out: &mut String, s: &str| out.push_str(s);
        push(&mut out, "  \"schema\": \"mcfs-bench-load-v1\",\n");
        push(&mut out, &format!("  \"mix\": \"{}\",\n", self.mix));
        push(
            &mut out,
            &format!("  \"transport\": \"{}\",\n", self.transport),
        );
        push(
            &mut out,
            &format!("  \"connections\": {},\n", self.connections),
        );
        push(&mut out, &format!("  \"sessions\": {},\n", self.sessions));
        push(&mut out, &format!("  \"seed\": {},\n", self.seed));
        push(
            &mut out,
            &format!("  \"wall_ms\": {},\n", self.run.wall.as_millis()),
        );
        push(
            &mut out,
            &format!("  \"measured_requests\": {},\n", self.run.measured_requests),
        );
        push(
            &mut out,
            &format!("  \"throughput_rps\": {:.2},\n", self.run.throughput_rps()),
        );
        out.push_str("  \"verbs\": {\n");
        let mut verb_blocks = Vec::new();
        for (vi, verb) in Verb::ALL.into_iter().enumerate() {
            let row = &self.run.stats.counts[vi];
            if row.iter().all(|&c| c == 0) {
                continue;
            }
            let h = &self.run.stats.hists[vi];
            verb_blocks.push(format!(
                "    \"{}\": {{ \"ok\": {}, \"busy\": {}, \"timeout\": {}, \"err\": {}, \
                 \"p50_us\": {}, \"p99_us\": {}, \"p999_us\": {} }}",
                verb.name(),
                row[0],
                row[1],
                row[2],
                row[3],
                h.percentile_upper_us(0.50).unwrap_or(0),
                h.percentile_upper_us(0.99).unwrap_or(0),
                h.percentile_upper_us(0.999).unwrap_or(0),
            ));
        }
        out.push_str(&verb_blocks.join(",\n"));
        out.push_str("\n  },\n");
        push(
            &mut out,
            &format!(
                "  \"totals\": {{ \"ok\": {}, \"busy\": {}, \"timeout\": {}, \"err\": {} }},\n",
                self.run.stats.outcome_total(Outcome::Ok),
                self.run.stats.outcome_total(Outcome::Busy),
                self.run.stats.outcome_total(Outcome::Timeout),
                self.run.stats.outcome_total(Outcome::Err),
            ),
        );
        push(
            &mut out,
            &format!(
                "  \"events\": {{ \"seen\": {}, \"dropped_markers\": {}, \"dropped_events\": {} }},\n",
                self.run.stats.events_seen,
                self.run.stats.dropped_markers,
                self.run.stats.dropped_events,
            ),
        );
        push(
            &mut out,
            &format!(
                "  \"profile\": {{ \"available\": {}, \"samples\": {}, \"named_ppm\": {}, \
                 \"idle\": {}, \"dropped\": {} }},\n",
                self.profile.available,
                self.profile.samples,
                self.profile.named_ppm,
                self.profile.idle,
                self.profile.dropped,
            ),
        );
        push(
            &mut out,
            &format!(
                "  \"server\": {{ \"histogram_samples\": {}, \"events_streamed\": {}, \
                 \"events_dropped\": {}, \"unparsed\": {}, \"queue_highwater\": {}, \
                 \"sessions_opened\": {} }},\n",
                self.server.hist.count(),
                self.server.events_streamed,
                self.server.events_dropped,
                self.server.unparsed,
                self.server.queue_highwater,
                self.server.sessions_opened,
            ),
        );
        push(
            &mut out,
            &format!(
                "  \"reconciliation\": {{ \"counts_match\": {}, \"p50_bucket_delta\": {}, \
                 \"p99_bucket_delta\": {}, \"client_samples\": {}, \"server_samples\": {}, \
                 \"within_one_bucket\": {} }},\n",
                self.reconciliation.counts_match,
                self.reconciliation.p50_bucket_delta,
                self.reconciliation.p99_bucket_delta,
                self.reconciliation.client_samples,
                self.reconciliation.server_samples,
                self.reconciliation.within_one_bucket,
            ),
        );
        out.push_str("  \"chaos\": {");
        if !self.chaos.is_empty() {
            let kvs: Vec<String> = self
                .chaos
                .iter()
                .map(|(k, v)| format!(" \"{k}\": {v}"))
                .collect();
            out.push_str(&kvs.join(","));
            out.push(' ');
        }
        out.push_str("}\n");
        out.push_str("}\n");
        out
    }
}
