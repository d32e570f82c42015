//! Spans recorded by the benchmark around its own calls into the library.
//!
//! Used only by the traced run. Spans are kept in memory and written once,
//! at the end, as a Chrome trace. A call that returns its own phase split
//! (`SolveStats` phases, `STATS` kv lines) gets those phases as child spans,
//! laid end to end from the start of the call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded interval.
struct Span {
    /// `layer.what`; the layer is the part before the first dot.
    name: &'static str,
    /// Offset from the tracer's epoch.
    start: Duration,
    /// Offset from the tracer's epoch.
    end: Duration,
    /// Index of the enclosing span, if any.
    parent: Option<usize>,
    /// Operation the span belongs to (0 = set-up and probes).
    op: u64,
}

impl Span {
    fn len(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// In-memory span store.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// Empty store whose epoch is now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Record a span between two instants; returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        op: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start: start.saturating_duration_since(self.epoch),
            end: end.saturating_duration_since(self.epoch),
            parent,
            op,
        });
        self.spans.len() - 1
    }

    /// Open a span now; [`close`](Self::close) sets its end.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, op: u64) -> usize {
        let now = Instant::now();
        self.record(name, now, now, parent, op)
    }

    /// End a span opened with [`open`](Self::open) now.
    pub fn close(&mut self, span: usize) {
        self.spans[span].end = self.epoch.elapsed();
    }

    /// Lay `phases` end to end under `parent`, starting at its start. Each
    /// phase is clipped to the parent's interval, so children never cover
    /// more than the call they came from.
    pub fn phases(&mut self, parent: usize, phases: &[(&'static str, Duration)]) {
        let (p_start, p_end, op) = {
            let p = &self.spans[parent];
            (p.start, p.end, p.op)
        };
        let mut at = p_start;
        for &(name, len) in phases {
            let end = (at + len).min(p_end);
            self.spans.push(Span {
                name,
                start: at,
                end,
                parent: Some(parent),
                op,
            });
            at = end;
        }
    }

    /// Total duration of all spans named `name` within operations (op > 0).
    pub fn total(&self, name: &str) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.op > 0 && s.name == name)
            .map(Span::len)
            .sum()
    }

    /// Self time per span name, within operations: each span's duration
    /// minus the part its direct children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, Duration> {
        let mut child_cover = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_cover[p] += s.len();
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.op == 0 {
                continue;
            }
            *out.entry(s.name).or_insert(Duration::ZERO) += s.len().saturating_sub(child_cover[i]);
        }
        out
    }

    /// The spans as a Chrome trace (`chrome://tracing`, Perfetto): one
    /// complete event per span, the layer as its category.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":1,\"args\":{{\"span\":{i},\"parent\":{parent},\"op\":{}}}}}",
                s.name,
                layer_of(s.name),
                s.start.as_secs_f64() * 1e6,
                s.len().as_secs_f64() * 1e6,
                s.op
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// The layer a span name belongs to.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::new();
        let e = t.epoch;
        let ms = Duration::from_millis;
        let root = t.record("bench.op", e, e + ms(10), None, 1);
        let call = t.record("core.wma_run", e + ms(1), e + ms(9), Some(root), 1);
        t.phases(call, &[("core.matching", ms(5)), ("core.cover", ms(5))]);
        let st = t.self_times();
        assert_eq!(st["bench.op"], ms(2));
        assert_eq!(st["core.wma_run"], ms(0));
        assert_eq!(st["core.matching"], ms(5));
        // The second phase is clipped to the end of the call.
        assert_eq!(st["core.cover"], ms(3));
        assert_eq!(t.total("core.wma_run"), ms(8));
        let json = t.to_chrome_json();
        assert!(json.contains("\"name\":\"core.cover\",\"cat\":\"core\""));
        assert_eq!(layer_of("server.solve"), "server");
    }
}
