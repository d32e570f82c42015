//! `mcfs-loadgen`: sustained-traffic load generation, fault injection,
//! and SLO regression gating for the `mcfs-server` serving stack.
//!
//! The crate drives the real wire protocol — in-process byte pipes via
//! [`mcfs_server::ServerHandle::connect`] or TCP — with hundreds of
//! concurrent sessions spread over many connections, then reconciles the
//! client-observed latency distribution against the server's own
//! `METRICS` histogram bucket-for-bucket.
//!
//! Layout:
//!
//! - [`profile`] — verb mixes (`solve-heavy`, `edit-heavy`,
//!   `watch-heavy`, `mixed`), deterministic world generation with edit
//!   headroom, and named load profiles (`ci`, `acceptance`).
//! - [`histogram`] — a client-side log2 histogram using exactly the
//!   server's bucket function, so percentiles reconcile within a bucket.
//! - [`driver`] — the closed-loop workload driver (each connection sends
//!   its next request when the previous reply arrives): per-connection
//!   threads, session ownership, barrier-timed steady-state throughput.
//! - [`chaos`] — raw-socket fault injection: mid-`SOLVE` kills,
//!   truncated frames, slow-reader watchers, deadline storms, plus a
//!   post-chaos health check.
//! - [`report`] — `BENCH_LOAD.json` rendering, client/server
//!   reconciliation, and the [`report::Gates`] the CI job enforces.

#![warn(missing_docs)]

pub mod chaos;
pub mod driver;
pub mod histogram;
pub mod profile;
pub mod report;

pub use chaos::{ChaosOutcome, ChaosProfile};
pub use driver::{run, ClientStats, RunOutput, Target};
pub use histogram::{bucket_of, bucket_upper_us, Log2Hist, BUCKETS};
pub use profile::{GeneratedWorld, LoadProfile, Mix, OpKind, WorldSpec, MIXES};
pub use report::{reconcile, Gates, LoadReport, ProfileCheck, Reconciliation, ServerView};
