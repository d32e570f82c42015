//! Span and profile exporters: Chrome trace-event JSON (loadable in
//! `about://tracing` and Perfetto), the one-line wire shape the `TRACE`
//! verb carries, and the profiler's collapsed-stack ("folded") and
//! speedscope renderings.
//!
//! The wire line is deliberately positional —
//!
//! ```text
//! <trace> <id> <parent> <thread> <start_ns> <dur_ns> <name>
//! ```
//!
//! — with the name last, so the protocol layer needs no quoting (span
//! names contain no whitespace by construction).

use std::borrow::Cow;

use crate::profile::ProfileSnapshot;
use crate::trace::SpanRecord;

/// Escape `s` for use inside a JSON string literal.
pub(crate) fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Microseconds with nanosecond remainder, as Chrome's `ts`/`dur` expect.
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Render spans as a Chrome trace-event JSON document (complete `"X"`
/// events inside a `traceEvents` array, every span on `pid:1`). Load the
/// output in Perfetto or `about://tracing` to see the request waterfall.
pub fn to_chrome_trace(spans: &[SpanRecord]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"mcfs\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
             \"pid\":1,\"tid\":{},\"args\":{{\"trace\":{},\"span\":{},\"parent\":{}}}}}",
            escape_json(&s.name),
            us(s.start_ns),
            us(s.dur_ns),
            s.thread,
            s.trace,
            s.id,
            s.parent,
        ));
    }
    out.push_str("]}");
    out
}

/// Render one span as the positional wire line the `TRACE` verb returns.
pub fn span_to_wire_line(s: &SpanRecord) -> String {
    format!(
        "{} {} {} {} {} {} {}",
        s.trace, s.id, s.parent, s.thread, s.start_ns, s.dur_ns, s.name
    )
}

/// Parse a [`span_to_wire_line`] line back into a record.
pub fn span_from_wire_line(line: &str) -> Option<SpanRecord> {
    let mut it = line.split_whitespace();
    let trace = it.next()?.parse().ok()?;
    let id = it.next()?.parse().ok()?;
    let parent = it.next()?.parse().ok()?;
    let thread = it.next()?.parse().ok()?;
    let start_ns = it.next()?.parse().ok()?;
    let dur_ns = it.next()?.parse().ok()?;
    let name = it.next()?.to_owned();
    if it.next().is_some() {
        return None;
    }
    Some(SpanRecord {
        trace,
        id,
        parent,
        thread,
        start_ns,
        dur_ns,
        name: Cow::Owned(name),
    })
}

/// Render a profile as collapsed-stack ("folded") lines — `lane;name;name
/// <samples>`, sorted — directly consumable by `flamegraph.pl` and
/// speedscope's folded importer. Thin alias over
/// [`ProfileSnapshot::to_folded`] so both exporters live here.
pub fn to_folded(snap: &ProfileSnapshot) -> String {
    snap.to_folded()
}

/// Render a profile as a speedscope JSON document (one `sampled` profile;
/// load at <https://www.speedscope.app> or with `speedscope <file>`).
///
/// Each folded path becomes one weighted sample whose frame list is the
/// `;`-split path (root first); weights are sample counts, so with the
/// rate attached (`snap.rate_hz`) a frame's share of total weight is its
/// share of sampled wall time.
pub fn to_speedscope(snap: &ProfileSnapshot, name: &str) -> String {
    let mut frame_ids: std::collections::HashMap<&str, usize> = std::collections::HashMap::new();
    let mut frames: Vec<&str> = Vec::new();
    let mut samples = String::new();
    let mut weights = String::new();
    let mut total = 0u64;
    let mut first = true;
    for (path, &count) in &snap.merged {
        if !first {
            samples.push(',');
            weights.push(',');
        }
        first = false;
        samples.push('[');
        let mut first_frame = true;
        for frame in path.split(';') {
            let id = *frame_ids.entry(frame).or_insert_with(|| {
                frames.push(frame);
                frames.len() - 1
            });
            if !first_frame {
                samples.push(',');
            }
            first_frame = false;
            samples.push_str(&id.to_string());
        }
        samples.push(']');
        weights.push_str(&count.to_string());
        total += count;
    }
    let frames_json = frames
        .iter()
        .map(|f| format!("{{\"name\":\"{}\"}}", escape_json(f)))
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"$schema\":\"https://www.speedscope.app/file-format-schema.json\",\
         \"name\":\"{name}\",\"exporter\":\"mcfs-obs\",\
         \"shared\":{{\"frames\":[{frames_json}]}},\
         \"profiles\":[{{\"type\":\"sampled\",\"name\":\"{name}\",\"unit\":\"none\",\
         \"startValue\":0,\"endValue\":{total},\
         \"samples\":[{samples}],\"weights\":[{weights}]}}]}}",
        name = escape_json(name),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<SpanRecord> {
        vec![
            SpanRecord {
                trace: 3,
                id: 10,
                parent: 0,
                thread: 1,
                start_ns: 1_500,
                dur_ns: 2_000_250,
                name: Cow::Borrowed("server.execute"),
            },
            SpanRecord {
                trace: 3,
                id: 11,
                parent: 10,
                thread: 1,
                start_ns: 2_000,
                dur_ns: 900,
                name: Cow::Borrowed("resolve.solve"),
            },
        ]
    }

    #[test]
    fn chrome_trace_has_complete_events_in_microseconds() {
        let json = to_chrome_trace(&sample());
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"name\":\"server.execute\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":1.500"));
        assert!(json.contains("\"dur\":2000.250"));
        assert!(json.contains("\"parent\":10"));
    }

    #[test]
    fn wire_line_round_trips() {
        for s in sample() {
            let line = span_to_wire_line(&s);
            let back = span_from_wire_line(&line).unwrap();
            assert_eq!(back, s);
        }
        assert!(span_from_wire_line("1 2 3").is_none());
        assert!(span_from_wire_line("1 2 3 4 5 6 name extra").is_none());
        assert!(span_from_wire_line("x 2 3 4 5 6 name").is_none());
    }

    fn profile() -> ProfileSnapshot {
        let mut snap = ProfileSnapshot {
            rate_hz: 997,
            ..ProfileSnapshot::default()
        };
        snap.merged.insert("cpu;wma.run".into(), 10);
        snap.merged.insert("cpu;wma.run;oracle.batch".into(), 30);
        snap.merged.insert("io;server.execute".into(), 5);
        snap
    }

    #[test]
    fn folded_export_matches_snapshot_rendering() {
        let snap = profile();
        assert_eq!(to_folded(&snap), snap.to_folded());
        assert_eq!(
            to_folded(&snap),
            "cpu;wma.run 10\ncpu;wma.run;oracle.batch 30\nio;server.execute 5\n"
        );
    }

    #[test]
    fn speedscope_export_is_well_formed_and_weighted() {
        let json = to_speedscope(&profile(), "solve-100k");
        assert!(json.contains("\"$schema\":\"https://www.speedscope.app/file-format-schema.json\""));
        assert!(json.contains("\"type\":\"sampled\""));
        assert!(json.contains("\"name\":\"solve-100k\""));
        // Shared frame table deduplicates: wma.run appears once.
        assert_eq!(json.matches("{\"name\":\"wma.run\"}").count(), 1);
        assert!(json.contains("\"endValue\":45"));
        assert!(json.contains("\"weights\":[10,30,5]"));
        // Path cpu;wma.run;oracle.batch shares frames [0,1] with cpu;wma.run.
        assert!(json.contains("\"samples\":[[0,1],[0,1,2],[3,4]]"));
    }

    #[test]
    fn speedscope_export_of_empty_profile_is_valid() {
        let json = to_speedscope(&ProfileSnapshot::default(), "empty");
        assert!(json.contains("\"frames\":[]"));
        assert!(json.contains("\"samples\":[]"));
        assert!(json.contains("\"weights\":[]"));
        assert!(json.contains("\"endValue\":0"));
    }
}
