//! # mcfs-obs
//!
//! The unified observability substrate for the MCFS reproduction: one
//! metrics registry and one tracing core shared by every layer, from the
//! distance oracle at the bottom to the wire protocol at the top.
//!
//! * [`registry`] — named families of relaxed-atomic counters, gauges and
//!   log2 histograms with a stable Prometheus text-exposition renderer.
//!   [`Registry::global`] hosts library-internal counters (oracle row-cache
//!   traffic, matcher augmentations, solver iterations); embedding layers
//!   like the server create their own [`Registry`] per instance so
//!   instance-scoped counters never bleed between servers in one process.
//! * [`trace`] — spans with thread-local stacks and monotonic timestamps.
//!   Near-zero cost when no trace is active: [`span`] is one relaxed
//!   atomic load on the disabled path.
//! * [`export`] — Chrome trace-event JSON (Perfetto-loadable) and the
//!   positional wire line the server's `TRACE` verb carries.
//! * [`bus`] — a bounded broadcast bus for live progress events (solver
//!   iterations, resolve phases, queue depth). Slow subscribers lose the
//!   oldest events (with drop accounting) instead of blocking publishers;
//!   with no subscriber, [`publish`] is one relaxed atomic load.
//! * [`flight`] — the span store and flight recorder: one bounded ring per
//!   scope that keeps every finished span and, while armed, every event;
//!   the server's `TRACE` verb reads a request back from it and its `DUMP`
//!   verb returns it as JSONL for postmortems.
//! * [`profile`] — the continuous span-path sampling profiler: a sampler
//!   thread folds every thread's open-span path into a bounded
//!   `path → samples` table, exported as collapsed stacks or speedscope
//!   JSON (the server's `PROFILE` verb and `GET /profile`).
//!
//! The crate is dependency-free (std only) so every other crate in the
//! workspace can instrument itself without weight.
//!
//! ```
//! use mcfs_obs::{span, Registry, TraceGuard};
//!
//! let solves = Registry::global().counter("mcfs_doc_solves_total", "example");
//! let guard = TraceGuard::enter(0, 0);
//! {
//!     let _solve = span("doc.solve");
//!     solves.inc();
//! }
//! let spans = mcfs_obs::spans_for(guard.trace());
//! assert_eq!(spans.len(), 1);
//! assert_eq!(spans[0].name, "doc.solve");
//! ```

#![warn(missing_docs)]

pub mod bus;
pub mod export;
pub mod flight;
pub mod profile;
pub mod registry;
pub mod trace;

pub use bus::{
    bus_enabled, current_scope, next_scope_id, publish, publish_scoped, subscribe,
    subscribe_with_capacity, Event, EventRecord, PhaseState, ScopeGuard, Subscriber,
    DEFAULT_SUBSCRIBER_CAPACITY,
};
pub use export::{
    span_from_wire_line, span_to_wire_line, to_chrome_trace, to_folded, to_speedscope,
};
pub use flight::{spans_dropped, spans_for, FlightEntry, FlightKind, DEFAULT_FLIGHT_CAPACITY};
pub use profile::{ProfileSnapshot, ThreadProfile, DEFAULT_SAMPLE_HZ};
pub use registry::{
    CellValue, Counter, FamilySnapshot, Gauge, Histogram, Registry, RegistrySnapshot,
};
pub use trace::{
    alloc_span_id, current_trace, next_trace_id, now_ns, record_manual, set_force, span, thread_id,
    verify_nesting, Span, SpanRecord, TraceGuard,
};
