//! Stress test for the span fast path's arming: other threads entering and
//! dropping [`TraceGuard`]s must never disarm a thread that is inside a
//! trace. Every span a traced thread opens has to reach the span store,
//! however the other threads' guards interleave with its own enters and
//! drops.
//!
//! This binary holds one test, so nothing else records into (or clears)
//! the store's unscoped ring while it counts, and raising the store's
//! process-wide bound touches no other test.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::Arc;

use mcfs_repro::obs::{flight, span, FlightKind, TraceGuard};

#[test]
fn churning_guards_never_lose_a_traced_threads_spans() {
    const ROUNDS: usize = 20_000;
    const SPANS_PER_ROUND: usize = 3;
    const CHURNERS: usize = 2;
    flight::set_capacity(2 * ROUNDS * SPANS_PER_ROUND);

    // Churners enter and drop empty guards as fast as they can, so the
    // arming state keeps changing under the traced thread's own guards.
    let stop = Arc::new(AtomicBool::new(false));
    let churners: Vec<_> = (0..CHURNERS)
        .map(|_| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut churned = 0u64;
                while !stop.load(Relaxed) {
                    drop(TraceGuard::enter(0, 0));
                    churned += 1;
                }
                churned
            })
        })
        .collect();

    // The traced thread enters a fresh trace per round, so each of its
    // enters races the churners' drops.
    let traces: Vec<u64> = (0..ROUNDS)
        .map(|_| {
            let guard = TraceGuard::enter(0, 0);
            for _ in 0..SPANS_PER_ROUND {
                drop(span("arming.stress"));
            }
            guard.trace()
        })
        .collect();
    stop.store(true, Relaxed);
    let churned: u64 = churners.into_iter().map(|h| h.join().unwrap()).sum();

    let mut recorded: HashMap<u64, usize> = HashMap::new();
    // The traced thread runs outside any bus scope: its spans land in
    // scope 0's ring.
    for entry in flight::dump(0) {
        if let FlightKind::Span(s) = entry.kind {
            *recorded.entry(s.trace).or_default() += 1;
        }
    }
    let short = traces
        .iter()
        .filter(|t| recorded.get(t).copied().unwrap_or(0) != SPANS_PER_ROUND)
        .count();
    eprintln!("arming stress: {ROUNDS} traced rounds, {churned} churned guards");
    assert_eq!(
        short, 0,
        "{short} of {ROUNDS} traces lost spans while {churned} other guards churned"
    );
}
