//! Metric catalogue and the result line.
//!
//! The names and units here are the ones `BENCHMARK.json` declares; a test
//! keeps the two in step.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A metric's name and unit.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Metric name (`[A-Za-z0-9_.-]`, starting with a letter or digit).
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
}

const fn spec(name: &'static str, unit: &'static str) -> Spec {
    Spec { name, unit }
}

/// What a user of the library sees; printed by timed runs (`--trace 0`).
pub const END_TO_END: &[Spec] = &[
    spec("latency_p50_ms", "ms"),
    spec("latency_p90_ms", "ms"),
    spec("setup_s", "s"),
    spec("objective", "cost"),
    spec("peak_rss_mb", "MB"),
];

/// Single-layer metrics; printed by traced runs (`--trace 1`).
///
/// Layer phase times are shares (`_pct`) of the operation: a layer that a
/// workload bypasses reads exactly 0 there, and a time that reads the same
/// in every run is indistinguishable from a made-up one. Times that every
/// workload measures stay in ms.
pub const PER_LAYER: &[Spec] = &[
    spec("core.prefetch_pct", "%"),
    spec("core.matching_pct", "%"),
    spec("core.cover_pct", "%"),
    spec("core.provisions_pct", "%"),
    spec("core.assignment_pct", "%"),
    spec("core.iterations", "count"),
    spec("core.warm_ratio", "ratio"),
    spec("core.first_solve_ms", "ms"),
    spec("flow.augmentations", "count"),
    spec("flow.residual_searches", "count"),
    spec("flow.edges_added", "count"),
    spec("graph.rows_filled", "count"),
    spec("graph.row_hits", "count"),
    spec("graph.nodes_settled", "count"),
    spec("graph.row_fill_ms", "ms"),
    spec("cluster.partition_pct", "%"),
    spec("cluster.shard_solve_pct", "%"),
    spec("cluster.refine_pct", "%"),
    spec("cluster.reconcile_pct", "%"),
    spec("cluster.bound_pct", "%"),
    spec("cluster.boundary_moved", "count"),
    spec("cluster.budget_moves", "count"),
    spec("cluster.gap_ppm", "ppm"),
    spec("server.edit_pct", "%"),
    spec("server.solve_pct", "%"),
    spec("server.assignment_pct", "%"),
    spec("server.overhead_pct", "%"),
    spec("io.open_ms", "ms"),
    spec("gen.inputs_ms", "ms"),
    spec("host.ref_ms", "ms"),
    spec("host.ref_discarded", "count"),
    spec("host.raw_p50_ms", "ms"),
    spec("host.raw_p90_ms", "ms"),
    spec("host.ops", "count"),
    spec("trace.overhead_ms", "ms"),
];

/// Whether `name` is a valid metric name.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The final stdout line: `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`
/// with one entry per spec, in catalogue order.
///
/// Panics if a spec has no value: every run must produce every metric it
/// declares, and a missing one is a bug in the benchmark.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    specs: &[Spec],
    values: &BTreeMap<&'static str, f64>,
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, s) in specs.iter().enumerate() {
        let v = values
            .get(s.name)
            .unwrap_or_else(|| panic!("metric {} was not measured", s.name));
        debug_assert!(valid_name(s.name), "bad metric name {}", s.name);
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            s.name,
            json_number(*v),
            s.unit
        );
    }
    out.push_str("}}");
    out
}

/// JSON has no infinities or NaN; a metric that could not be measured (all
/// operations failed) is written as `null` and the run is marked incorrect.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_follow_the_grammar_and_are_unique() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|s| s.name).collect();
        for name in &all {
            assert!(valid_name(name), "bad metric name {name:?}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "metric names repeat");
        for bad in ["", ".x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?} accepted");
        }
        assert!(valid_name("host.raw_p50_ms"));
        assert!(valid_name("9-lives_v1.2"));
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let squashed: String = text.split_whitespace().collect();
        for s in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\":\"{}\",\"unit\":\"{}\"", s.name, s.unit);
            assert!(
                squashed.contains(&entry),
                "{} missing from BENCHMARK.json",
                s.name
            );
        }
        assert_eq!(
            squashed.matches("\"unit\":").count(),
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json declares metrics the benchmark does not print"
        );
    }

    #[test]
    fn result_line_lists_every_spec_in_order() {
        let specs = [spec("b_ms", "ms"), spec("a", "count")];
        let mut values = BTreeMap::new();
        values.insert("a", 3.0);
        values.insert("b_ms", 1.25);
        let line = result_line(true, 10, 0, &specs, &values);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"b_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \"a\": {\"value\": 3, \"unit\": \"count\"}}}"
        );
        values.insert("a", f64::INFINITY);
        assert!(result_line(false, 1, 1, &specs, &values).contains("\"value\": null"));
    }
}
