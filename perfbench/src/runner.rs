//! The timing protocol shared by every workload.
//!
//! Reference samples sit between consecutive timed intervals, so each
//! operation (and each set-up) is bracketed by the sample before it and
//! the sample after it; its host-normalized time divides by their mean.
//! Verification runs after the closing sample and before the next timed
//! interval, so it is never timed and never lands inside a reference
//! sample.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::reference::Reference;
use crate::stats::normalize;
use crate::trace::Tracer;

/// One timed operation.
pub struct OpSample {
    /// Wall time; `INFINITY` if the operation failed.
    pub raw_ms: f64,
    /// Host-normalized time; `INFINITY` if the operation failed.
    pub norm_ms: f64,
    /// Whether spans and phase stats were recorded for it.
    pub traced: bool,
}

/// One set-up, host-normalized, with its parts (same normalization).
pub struct SetupSample {
    /// Start of set-up to the first timed operation.
    pub total_s: f64,
    /// Input generation.
    pub gen_ms: f64,
    /// Making the instance solvable: the `OPEN` round trip, or
    /// `read_instance` plus the instance build.
    pub open_ms: f64,
    /// The set-up's first (cold) solve.
    pub first_solve_ms: f64,
}

/// Raw durations a workload measures inside its set-up.
#[derive(Default)]
pub struct SetupParts {
    /// Input generation.
    pub gen: Duration,
    /// `OPEN`, or `read_instance` plus the instance build.
    pub open: Duration,
    /// First solve.
    pub first_solve: Duration,
}

/// An open set-up interval.
pub struct Setup {
    start: Instant,
    span: Option<usize>,
}

impl Setup {
    /// The set-up's root span, when tracing.
    pub fn span(&self) -> Option<usize> {
        self.span
    }
}

/// Recording handle passed to a traced operation.
pub struct Probe<'a> {
    tracer: &'a mut Tracer,
    root: usize,
    op: u64,
    counts: &'a mut BTreeMap<&'static str, Vec<f64>>,
}

impl Probe<'_> {
    /// Record a call into the library under the operation's root span.
    pub fn span(&mut self, name: &'static str, start: Instant, end: Instant) -> usize {
        self.tracer
            .record(name, start, end, Some(self.root), self.op)
    }

    /// Attach the phase split a call returned (see [`Tracer::phases`]).
    pub fn phases(&mut self, parent: usize, phases: &[(&'static str, Duration)]) {
        self.tracer.phases(parent, phases);
    }

    /// Record a per-operation count.
    pub fn count(&mut self, name: &'static str, value: u64) {
        self.counts.entry(name).or_default().push(value as f64);
    }
}

/// Timing state of one run.
pub struct Runner {
    reference: Reference,
    units: usize,
    /// Spans of the traced run (empty in timed runs).
    pub tracer: Tracer,
    traced: bool,
    ref_prev: f64,
    /// Every accepted reference sample, ms.
    pub ref_ms: Vec<f64>,
    /// Reference samples thrown away by the quietness guard.
    pub ref_discarded: u64,
    /// One per set-up.
    pub setups: Vec<SetupSample>,
    /// One per timed operation.
    pub ops: Vec<OpSample>,
    /// Host-normalized oracle-probe times (traced runs).
    pub probe_ms: Vec<f64>,
    /// Per-operation counts from traced operations.
    pub counts: BTreeMap<&'static str, Vec<f64>>,
    /// Why operations or checks failed.
    pub failures: Vec<String>,
}

impl Runner {
    /// Build and warm the reference. Each reference sample runs `units`
    /// reference units; `traced` selects the traced run.
    pub fn new(units: usize, traced: bool) -> Runner {
        let mut reference = Reference::new();
        for _ in 0..3 {
            reference.sample(units);
        }
        let mut r = Runner {
            reference,
            units,
            tracer: Tracer::new(),
            traced,
            ref_prev: 0.0,
            ref_ms: Vec::new(),
            ref_discarded: 0,
            setups: Vec::new(),
            ops: Vec::new(),
            probe_ms: Vec::new(),
            counts: BTreeMap::new(),
            failures: Vec::new(),
        };
        r.ref_prev = r.reference_sample();
        r
    }

    fn reference_sample(&mut self) -> f64 {
        let (ms, discarded) = self.reference.quiet_sample(self.units);
        self.ref_discarded += discarded;
        self.ref_ms.push(ms);
        ms
    }

    /// Take the sample that closes the current bracket (and opens the next
    /// one); returns `raw` host-normalized by the bracket.
    fn close_bracket(&mut self, raw: f64) -> f64 {
        let ref_next = self.reference_sample();
        let norm = normalize(raw, self.ref_prev, ref_next);
        self.ref_prev = ref_next;
        norm
    }

    /// Whether this is the traced run.
    pub fn traced(&self) -> bool {
        self.traced
    }

    /// The tracer, in the traced run.
    pub fn tracer(&mut self) -> Option<&mut Tracer> {
        self.traced.then_some(&mut self.tracer)
    }

    /// Start a set-up: everything from here to [`end_setup`](Self::end_setup)
    /// is its time. It opens with a fresh reference sample, since
    /// end-of-pass checks may have run since the last one.
    pub fn begin_setup(&mut self) -> Setup {
        self.ref_prev = self.reference_sample();
        let span = self
            .traced
            .then(|| self.tracer.open("bench.setup", None, 0));
        Setup {
            start: Instant::now(),
            span,
        }
    }

    /// Close a set-up; its closing reference sample opens the first
    /// operation's bracket.
    pub fn end_setup(&mut self, setup: Setup, parts: SetupParts) {
        let raw_s = setup.start.elapsed().as_secs_f64();
        if let Some(span) = setup.span {
            self.tracer.close(span);
        }
        let total_s = self.close_bracket(raw_s);
        let ms = |d: Duration| d.as_secs_f64() * 1e3 * total_s / raw_s;
        self.setups.push(SetupSample {
            total_s,
            gen_ms: ms(parts.gen),
            open_ms: ms(parts.open),
            first_solve_ms: ms(parts.first_solve),
        });
    }

    /// Time one operation. `f` gets a [`Probe`] when the operation is
    /// traced. A failed operation counts as infinitely slow.
    pub fn time_op<T>(
        &mut self,
        traced: bool,
        f: impl FnOnce(Option<&mut Probe>) -> Result<T, String>,
    ) -> Option<T> {
        let op = self.ops.len() as u64 + 1;
        let traced = traced && self.traced;
        let root = traced.then(|| self.tracer.open("bench.op", None, op));
        let start = Instant::now();
        let result = match root {
            Some(root) => f(Some(&mut Probe {
                tracer: &mut self.tracer,
                root,
                op,
                counts: &mut self.counts,
            })),
            None => f(None),
        };
        let raw_ms = start.elapsed().as_secs_f64() * 1e3;
        if let Some(root) = root {
            self.tracer.close(root);
        }
        let norm_ms = self.close_bracket(raw_ms);
        let (raw_ms, norm_ms) = match result {
            Ok(_) => (raw_ms, norm_ms),
            Err(_) => (f64::INFINITY, f64::INFINITY),
        };
        self.ops.push(OpSample {
            raw_ms,
            norm_ms,
            traced,
        });
        result
            .map_err(|e| self.failures.push(format!("op {op}: {e}")))
            .ok()
    }

    /// Mark the last operation failed (its result did not verify).
    pub fn fail_last(&mut self, why: String) {
        if let Some(last) = self.ops.last_mut() {
            last.raw_ms = f64::INFINITY;
            last.norm_ms = f64::INFINITY;
        }
        self.failures.push(format!("op {}: {why}", self.ops.len()));
    }

    /// Record a failure outside any operation (set-up or end-of-pass
    /// checks); the run is then incorrect.
    pub fn fail(&mut self, why: String) {
        self.failures.push(why);
    }

    /// Time a call made between operations (the traced run's oracle
    /// probe), host-normalized.
    pub fn time_probe<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let span = self.traced.then(|| self.tracer.open(name, None, 0));
        let start = Instant::now();
        let out = f();
        let raw_ms = start.elapsed().as_secs_f64() * 1e3;
        if let Some(span) = span {
            self.tracer.close(span);
        }
        let norm_ms = self.close_bracket(raw_ms);
        self.probe_ms.push(norm_ms);
        out
    }
}
