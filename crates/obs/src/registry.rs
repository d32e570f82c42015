//! The metrics registry: named families of relaxed-atomic counters, gauges
//! and log2 histograms, rendered in the Prometheus text exposition format.
//!
//! The design generalizes the server's original hand-rolled counter grid:
//! a [`Registry`] owns *families* (one Prometheus `# TYPE` block each), a
//! family owns *cells* (one per distinct label set), and registration hands
//! back a cheap cloneable handle ([`Counter`], [`Gauge`], [`Histogram`])
//! that is a bare `Arc<AtomicU64>` (or a few of them) — the increment path
//! never touches the registry lock, so instrumented hot loops pay one
//! relaxed atomic add per event.
//!
//! Registration is idempotent: asking for the same family + label set again
//! returns a handle to the *same* cell, which is what lets independent
//! subsystems (and thin views like the server's `Metrics`) share counters
//! without coordination. Re-registering a name with a different metric kind
//! panics — that is a programming error, not an operational condition.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock};

/// A monotonically increasing counter handle.
#[derive(Clone, Debug)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Relaxed);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

/// A gauge handle: a value that can move both ways (or track a high-water
/// mark via [`Gauge::set_max`]).
#[derive(Clone, Debug)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Set the value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Relaxed);
    }

    /// Raise the value to `v` if it is higher (high-water tracking).
    pub fn set_max(&self, v: u64) {
        self.0.fetch_max(v, Relaxed);
    }

    /// Increment by one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Relaxed);
    }

    /// Decrement by one (saturating at zero is the caller's problem — a
    /// gauge that can underflow is being driven by unbalanced events).
    pub fn dec(&self) {
        self.0.fetch_sub(1, Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

#[derive(Debug)]
pub(crate) struct HistogramCell {
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
    count: AtomicU64,
}

/// A log2 histogram handle: bucket `0` counts observations `< 1`, bucket
/// `i` counts `[2^(i-1), 2^i)`, and the last bucket is the catch-all —
/// exactly the bucketing of the server's original latency histogram.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramCell>);

impl Histogram {
    /// Record one observation.
    #[inline]
    pub fn observe(&self, value: u64) {
        let cell = &*self.0;
        let bucket = if value == 0 {
            0
        } else {
            (64 - value.leading_zeros() as usize).min(cell.buckets.len() - 1)
        };
        cell.buckets[bucket].fetch_add(1, Relaxed);
        cell.sum.fetch_add(value, Relaxed);
        cell.count.fetch_add(1, Relaxed);
    }

    /// Number of buckets (including the catch-all).
    pub fn num_buckets(&self) -> usize {
        self.0.buckets.len()
    }

    /// Count in bucket `i` alone (not cumulative).
    pub fn bucket_count(&self, i: usize) -> u64 {
        self.0.buckets[i].load(Relaxed)
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Relaxed)
    }
}

/// One labeled cell of a family.
#[derive(Debug)]
enum Cell {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<HistogramCell>),
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn token(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

#[derive(Debug)]
struct Family {
    kind: Kind,
    help: String,
    /// BTreeMap keys give the exposition a stable label order for free.
    cells: BTreeMap<Vec<(String, String)>, Cell>,
}

/// A set of metric families. See the [module docs](self).
#[derive(Debug, Default)]
pub struct Registry {
    families: Mutex<BTreeMap<String, Family>>,
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && !name.starts_with(|c: char| c.is_ascii_digit())
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b':')
}

fn valid_label(name: &str) -> bool {
    !name.is_empty()
        && !name.starts_with(|c: char| c.is_ascii_digit())
        && name.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_')
}

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-wide registry that library-internal instrumentation
    /// (oracle, matcher, solver counters) registers into.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    fn cell(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        kind: Kind,
        buckets: usize,
    ) -> Cell {
        assert!(valid_name(name), "invalid metric name {name:?}");
        for (k, _) in labels {
            assert!(valid_label(k), "invalid label name {k:?}");
        }
        let key: Vec<(String, String)> = labels
            .iter()
            .map(|&(k, v)| (k.to_owned(), v.to_owned()))
            .collect();
        let mut families = self.families.lock().unwrap();
        let family = families.entry(name.to_owned()).or_insert_with(|| Family {
            kind,
            help: help.to_owned(),
            cells: BTreeMap::new(),
        });
        assert_eq!(
            family.kind,
            kind,
            "metric {name:?} already registered as a {}",
            family.kind.token()
        );
        let cell = family.cells.entry(key).or_insert_with(|| match kind {
            Kind::Counter => Cell::Counter(Arc::new(AtomicU64::new(0))),
            Kind::Gauge => Cell::Gauge(Arc::new(AtomicU64::new(0))),
            Kind::Histogram => Cell::Histogram(Arc::new(HistogramCell {
                buckets: (0..buckets).map(|_| AtomicU64::new(0)).collect(),
                sum: AtomicU64::new(0),
                count: AtomicU64::new(0),
            })),
        });
        match cell {
            Cell::Counter(c) => Cell::Counter(Arc::clone(c)),
            Cell::Gauge(g) => Cell::Gauge(Arc::clone(g)),
            Cell::Histogram(h) => Cell::Histogram(Arc::clone(h)),
        }
    }

    /// Register (or look up) an unlabeled counter.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_with(name, help, &[])
    }

    /// Register (or look up) a labeled counter cell.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.cell(name, help, labels, Kind::Counter, 0) {
            Cell::Counter(c) => Counter(c),
            _ => unreachable!("cell() returns the requested kind"),
        }
    }

    /// Register (or look up) an unlabeled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_with(name, help, &[])
    }

    /// Register (or look up) a labeled gauge cell.
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.cell(name, help, labels, Kind::Gauge, 0) {
            Cell::Gauge(g) => Gauge(g),
            _ => unreachable!("cell() returns the requested kind"),
        }
    }

    /// Register (or look up) an unlabeled log2 histogram with `buckets`
    /// buckets (the last is the catch-all). Asking again with a different
    /// bucket count returns the original cell unchanged.
    pub fn histogram_log2(&self, name: &str, help: &str, buckets: usize) -> Histogram {
        self.histogram_log2_with(name, help, buckets, &[])
    }

    /// Register (or look up) a labeled log2 histogram cell.
    pub fn histogram_log2_with(
        &self,
        name: &str,
        help: &str,
        buckets: usize,
        labels: &[(&str, &str)],
    ) -> Histogram {
        assert!(buckets >= 2, "a histogram needs at least two buckets");
        match self.cell(name, help, labels, Kind::Histogram, buckets) {
            Cell::Histogram(h) => Histogram(h),
            _ => unreachable!("cell() returns the requested kind"),
        }
    }

    /// A point-in-time copy of every family, detached from the live
    /// atomics so it can be rendered later.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let families = self.families.lock().unwrap();
        let mut out = RegistrySnapshot::default();
        for (name, family) in families.iter() {
            let cells = family
                .cells
                .iter()
                .map(|(labels, cell)| {
                    let value = match cell {
                        Cell::Counter(v) => CellValue::Counter(v.load(Relaxed)),
                        Cell::Gauge(v) => CellValue::Gauge(v.load(Relaxed)),
                        Cell::Histogram(h) => CellValue::Histogram {
                            buckets: h.buckets.iter().map(|b| b.load(Relaxed)).collect(),
                            sum: h.sum.load(Relaxed),
                            count: h.count.load(Relaxed),
                        },
                    };
                    (labels.clone(), value)
                })
                .collect();
            out.families.insert(
                name.clone(),
                FamilySnapshot {
                    kind: family.kind.token().to_owned(),
                    help: family.help.clone(),
                    cells,
                },
            );
        }
        out
    }

    /// Render every family in the Prometheus text exposition format
    /// (version 0.0.4). Families and cells appear in lexicographic order,
    /// so the output is byte-stable for a fixed set of values.
    pub fn render_prometheus(&self) -> String {
        self.snapshot().to_prometheus()
    }
}

/// One cell's value inside a [`RegistrySnapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CellValue {
    /// Monotonic counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(u64),
    /// Log2 histogram: raw (non-cumulative) per-bucket counts plus totals.
    Histogram {
        /// Raw count per bucket (last is the catch-all).
        buckets: Vec<u64>,
        /// Sum of observed values.
        sum: u64,
        /// Total observations.
        count: u64,
    },
}

/// One family inside a [`RegistrySnapshot`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FamilySnapshot {
    /// `counter` | `gauge` | `histogram`.
    pub kind: String,
    /// Help text (may contain spaces, no newlines).
    pub help: String,
    /// Cells keyed by their label set.
    pub cells: BTreeMap<Vec<(String, String)>, CellValue>,
}

/// A detached copy of a [`Registry`]'s contents.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RegistrySnapshot {
    /// Families keyed by metric name.
    pub families: BTreeMap<String, FamilySnapshot>,
}

impl RegistrySnapshot {
    /// Render in the Prometheus text exposition format (version 0.0.4),
    /// byte-identical to what [`Registry::render_prometheus`] produces for
    /// the same values.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, family) in &self.families {
            out.push_str(&format!("# HELP {name} {}\n", family.help));
            out.push_str(&format!("# TYPE {name} {}\n", family.kind));
            for (labels, value) in &family.cells {
                match value {
                    CellValue::Counter(v) | CellValue::Gauge(v) => {
                        out.push_str(&format!("{name}{} {v}\n", render_labels(labels, None)));
                    }
                    CellValue::Histogram {
                        buckets,
                        sum,
                        count,
                    } => {
                        let mut cumulative = 0u64;
                        let n = buckets.len();
                        for (i, bucket) in buckets.iter().enumerate() {
                            cumulative += bucket;
                            // Bucket i counts values < 2^i, i.e. le = 2^i - 1
                            // in integer terms; the catch-all is +Inf.
                            let le = if i + 1 == n {
                                "+Inf".to_owned()
                            } else {
                                ((1u64 << i) - 1).to_string()
                            };
                            out.push_str(&format!(
                                "{name}_bucket{} {cumulative}\n",
                                render_labels(labels, Some(&le))
                            ));
                        }
                        out.push_str(&format!(
                            "{name}_sum{} {sum}\n",
                            render_labels(labels, None)
                        ));
                        out.push_str(&format!(
                            "{name}_count{} {count}\n",
                            render_labels(labels, None)
                        ));
                    }
                }
            }
        }
        out
    }
}

fn render_labels(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    if let Some(le) = le {
        parts.push(format!("le=\"{le}\""));
    }
    format!("{{{}}}", parts.join(","))
}

fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_cells_and_render_stably() {
        let r = Registry::new();
        let a = r.counter_with("mcfs_test_total", "help text", &[("verb", "solve")]);
        let b = r.counter_with("mcfs_test_total", "help text", &[("verb", "solve")]);
        let other = r.counter_with("mcfs_test_total", "help text", &[("verb", "open")]);
        a.inc();
        b.add(2);
        other.inc();
        assert_eq!(a.get(), 3, "same family+labels share one cell");
        let text = r.render_prometheus();
        assert_eq!(
            text,
            "# HELP mcfs_test_total help text\n\
             # TYPE mcfs_test_total counter\n\
             mcfs_test_total{verb=\"open\"} 1\n\
             mcfs_test_total{verb=\"solve\"} 3\n"
        );
    }

    #[test]
    fn gauge_set_max_tracks_high_water() {
        let r = Registry::new();
        let g = r.gauge("mcfs_depth", "queue depth");
        g.set_max(3);
        g.set_max(2);
        assert_eq!(g.get(), 3);
        g.inc();
        g.dec();
        g.dec();
        assert_eq!(g.get(), 2);
    }

    #[test]
    fn histogram_buckets_match_the_log2_rule() {
        let r = Registry::new();
        let h = r.histogram_log2("mcfs_lat_us", "latency", 6);
        // value 0 -> bucket 0; 1 -> bucket 1 ([1,2)); 3 -> bucket 2 ([2,4));
        // 900 -> catch-all (bucket 5).
        for v in [0, 1, 3, 900] {
            h.observe(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 904);
        assert_eq!(h.bucket_count(0), 1);
        assert_eq!(h.bucket_count(1), 1);
        assert_eq!(h.bucket_count(2), 1);
        assert_eq!(h.bucket_count(5), 1);
        let text = r.render_prometheus();
        assert!(text.contains("mcfs_lat_us_bucket{le=\"0\"} 1\n"));
        assert!(text.contains("mcfs_lat_us_bucket{le=\"1\"} 2\n"));
        assert!(text.contains("mcfs_lat_us_bucket{le=\"+Inf\"} 4\n"));
        assert!(text.contains("mcfs_lat_us_sum 904\n"));
        assert!(text.contains("mcfs_lat_us_count 4\n"));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("mcfs_thing", "as counter");
        r.gauge("mcfs_thing", "as gauge");
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn bad_names_are_rejected() {
        Registry::new().counter("9starts-with-digit", "bad");
    }

    #[test]
    fn label_values_are_escaped() {
        let r = Registry::new();
        r.counter_with("mcfs_esc_total", "h", &[("k", "a\"b\\c")])
            .inc();
        let text = r.render_prometheus();
        assert!(text.contains("mcfs_esc_total{k=\"a\\\"b\\\\c\"} 1"));
    }

    fn sample_registry() -> Registry {
        let r = Registry::new();
        r.counter_with("mcfs_req_total", "requests", &[("verb", "solve")])
            .add(3);
        r.gauge("mcfs_depth", "queue depth").set(5);
        let h = r.histogram_log2("mcfs_lat", "latency", 6);
        for v in [0, 1, 3, 900] {
            h.observe(v);
        }
        r
    }

    #[test]
    fn snapshot_renders_like_the_live_registry() {
        let r = sample_registry();
        assert_eq!(r.snapshot().to_prometheus(), r.render_prometheus());
    }
}
