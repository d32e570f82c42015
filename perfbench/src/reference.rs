//! The host yardstick: textbook binary-heap Dijkstra over a fixed grid,
//! sharing no code with the library under test.
//!
//! Every timed operation is divided by the mean of the reference samples
//! taken just before and just after it (see [`crate::stats::normalize`]).
//! One reference unit searches the same grid twice: once with row-major
//! node labels (cache-friendly, like a generated city) and once with the
//! labels shuffled (every relaxation a cache miss). The host's slow phases
//! slow memory-latency-bound code more than cache-resident code; the
//! library's operations sit between the two, and the pair tracks them
//! more closely than either search alone.
//!
//! A reference sample only measures the host if the process is otherwise
//! idle while it runs: program work still running after a call returns
//! would slow the yardstick and make the program look faster. The
//! quietness guard therefore discards any sample during which another
//! thread of this process used CPU.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

use crate::rng::SplitMix;

/// Grid side: 192 × 192 = 36 864 nodes, 4-neighbour arcs; about the size
/// of the city graph.
const SIDE: usize = 192;
/// Weight and label-shuffle seed; the grids are the same in every run.
const SEED: u64 = 0x05EE_D0F6_121D;
/// Attempts at a quiet sample before the last one is accepted anyway.
const MAX_ATTEMPTS: usize = 20;

/// One reference sample.
#[derive(Clone, Copy, Debug)]
pub struct RefSample {
    /// Wall time per reference unit.
    pub ms: f64,
    /// Whether no other thread of the process used CPU during it.
    pub quiet: bool,
}

/// A weighted graph in compressed adjacency form.
struct Csr {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    weights: Vec<u32>,
    /// Search source: the grid's centre cell under this labeling.
    source: u32,
}

impl Csr {
    /// The grid with cell `v` labeled `label[v]`.
    fn grid(right: &[u32], down: &[u32], label: &[u32]) -> Csr {
        let n = SIDE * SIDE;
        let mut cell_of = vec![0usize; n];
        for (v, &l) in label.iter().enumerate() {
            cell_of[l as usize] = v;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(4 * n);
        let mut weights = Vec::with_capacity(4 * n);
        offsets.push(0);
        for &v in &cell_of {
            let (r, c) = (v / SIDE, v % SIDE);
            let mut arc = |u: usize, w: u32| {
                targets.push(label[u]);
                weights.push(w);
            };
            if c > 0 {
                arc(v - 1, right[v - 1]);
            }
            if c + 1 < SIDE {
                arc(v + 1, right[v]);
            }
            if r > 0 {
                arc(v - SIDE, down[v - SIDE]);
            }
            if r + 1 < SIDE {
                arc(v + SIDE, down[v]);
            }
            offsets.push(targets.len() as u32);
        }
        Csr {
            offsets,
            targets,
            weights,
            source: label[SIDE * (SIDE / 2) + SIDE / 2],
        }
    }
}

/// The reference grids plus their search state.
pub struct Reference {
    grids: [Csr; 2],
    dist: Vec<u64>,
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    own_tid: String,
    checksum: Option<u64>,
}

impl Reference {
    /// Build the grids. Must be called on the thread that will take samples
    /// (the quietness guard excludes the calling thread only).
    pub fn new() -> Reference {
        let n = SIDE * SIDE;
        let mut rng = SplitMix(SEED);
        // Undirected grid: one weight in 1..=100 per edge, on both arcs.
        let mut weight = || 1 + rng.below(100) as u32;
        let right: Vec<u32> = (0..n).map(|_| weight()).collect();
        let down: Vec<u32> = (0..n).map(|_| weight()).collect();
        let ordered: Vec<u32> = (0..n as u32).collect();
        let mut shuffled = ordered.clone();
        for i in (1..n).rev() {
            shuffled.swap(i, rng.below(i + 1));
        }
        Reference {
            grids: [
                Csr::grid(&right, &down, &ordered),
                Csr::grid(&right, &down, &shuffled),
            ],
            dist: vec![u64::MAX; n],
            heap: BinaryHeap::new(),
            own_tid: own_tid(),
            checksum: None,
        }
    }

    /// One reference unit: a full one-to-all search on each grid. Returns
    /// the sum of all distances found.
    fn search(&mut self) -> u64 {
        self.search_grid(0).wrapping_add(self.search_grid(1))
    }

    /// Full one-to-all search on grid `i`; returns the sum of distances.
    fn search_grid(&mut self, i: usize) -> u64 {
        let g = &self.grids[i];
        self.dist.fill(u64::MAX);
        self.heap.clear();
        self.dist[g.source as usize] = 0;
        self.heap.push(Reverse((0, g.source)));
        while let Some(Reverse((d, u))) = self.heap.pop() {
            if d > self.dist[u as usize] {
                continue;
            }
            let (lo, hi) = (
                g.offsets[u as usize] as usize,
                g.offsets[u as usize + 1] as usize,
            );
            for e in lo..hi {
                let v = g.targets[e] as usize;
                let nd = d + u64::from(g.weights[e]);
                if nd < self.dist[v] {
                    self.dist[v] = nd;
                    self.heap.push(Reverse((nd, v as u32)));
                }
            }
        }
        self.dist.iter().sum()
    }

    /// Take one sample of `units` back-to-back reference units and report
    /// the time per unit and whether the process stayed quiet throughout.
    pub fn sample(&mut self, units: usize) -> RefSample {
        // Give threads that still have work queued (a server finishing a
        // reply) the CPU to run it now rather than during the sample.
        std::thread::sleep(Duration::from_micros(100));
        let before = other_threads_cpu_ns(&self.own_tid);
        let t = Instant::now();
        let mut sums = Vec::with_capacity(units);
        for _ in 0..units {
            sums.push(std::hint::black_box(self.search()));
        }
        let ms = t.elapsed().as_secs_f64() * 1e3 / units as f64;
        let after = other_threads_cpu_ns(&self.own_tid);
        // The yardstick itself must never change: a different checksum
        // means the reference computed something else and its times are
        // not comparable.
        for sum in sums {
            match self.checksum {
                None => self.checksum = Some(sum),
                Some(c) => assert_eq!(c, sum, "reference search is not deterministic"),
            }
        }
        RefSample {
            ms,
            quiet: before == after,
        }
    }

    /// Take samples until one is quiet. Returns the accepted sample and the
    /// number discarded on the way (after `MAX_ATTEMPTS` the last sample is
    /// accepted as it is, so a permanently busy helper thread cannot stall
    /// the run).
    pub fn quiet_sample(&mut self, units: usize) -> (f64, u64) {
        let mut discarded = 0;
        loop {
            let s = self.sample(units);
            if s.quiet || discarded + 1 >= MAX_ATTEMPTS as u64 {
                return (s.ms, discarded);
            }
            discarded += 1;
        }
    }
}

/// This thread's id, as named under `/proc/self/task`.
fn own_tid() -> String {
    std::fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|p| p.file_name().map(|f| f.to_string_lossy().into_owned()))
        .unwrap_or_default()
}

/// CPU time (ns, first field of `schedstat`) of every other thread of the
/// process, sorted by thread id. A thread that exits between two readings
/// makes them differ, which is what the guard wants: it ran.
fn other_threads_cpu_ns(own_tid: &str) -> Vec<(u32, u64)> {
    let mut out = Vec::new();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name == own_tid {
            continue;
        }
        let Ok(tid) = name.parse::<u32>() else {
            continue;
        };
        let ns = std::fs::read_to_string(entry.path().join("schedstat"))
            .ok()
            .and_then(|s| s.split_whitespace().next()?.parse().ok())
            .unwrap_or(0);
        out.push((tid, ns));
    }
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::{Arc, Barrier};

    #[test]
    fn reference_is_deterministic_and_takes_measurable_time() {
        let mut r = Reference::new();
        let a = r.search();
        let b = r.search();
        assert_eq!(a, b);
        // Relabeling changes the memory layout, never a distance.
        assert_eq!(r.search_grid(0), r.search_grid(1));
        assert!(r.sample(2).ms > 0.0);
    }

    #[test]
    fn a_spinning_helper_thread_forces_a_discard() {
        let mut r = Reference::new();
        let stop = Arc::new(AtomicBool::new(false));
        let spins = Arc::new(AtomicU64::new(0));
        let started = Arc::new(Barrier::new(2));
        let helper = {
            let (stop, spins, started) = (stop.clone(), spins.clone(), started.clone());
            std::thread::spawn(move || {
                started.wait();
                while !stop.load(Ordering::Relaxed) {
                    spins.fetch_add(1, Ordering::Relaxed);
                }
            })
        };
        started.wait();
        while spins.load(Ordering::Relaxed) == 0 {
            std::hint::spin_loop();
        }
        // The helper spins for the whole call, so the guard must throw away
        // at least one of the attempts (on a saturated machine the helper
        // may miss a short sample, so not necessarily all of them).
        let (_, discarded) = r.quiet_sample(1);
        stop.store(true, Ordering::Relaxed);
        helper.join().expect("helper thread panicked");
        assert!(discarded > 0, "samples taken while a helper spun were kept");
    }
}
