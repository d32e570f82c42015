//! The continuous span-path sampling profiler.
//!
//! # Model
//!
//! Every thread that opens [`crate::span`]s maintains a small fixed-depth
//! stack of *span names* (interned to `u32` ids) alongside the span
//! machinery. A single sampler thread wakes at the configured rate
//! ([`DEFAULT_SAMPLE_HZ`], a prime so the tick never phase-locks with
//! millisecond-periodic work), walks every registered thread's stack, and
//! bumps a bounded folded table `path -> samples` — per thread, tagged
//! with the thread's scheduling class (`cpu` for workers and solver
//! threads, `io` for connection/accept/stream threads).
//!
//! This samples the *span path*, not the native call stack: no unwinding,
//! no signal handlers, no unsafe. The trade-off is granularity — time
//! inside a leaf span is attributed to that span no matter which helper
//! function is hot — which is exactly the phase-level attribution the
//! solver's instrumentation needs (see DESIGN.md §15 for the bias
//! discussion).
//!
//! # Cost
//!
//! With the profiler disabled, [`push_frame`] is one relaxed atomic load
//! (and [`crate::span`] itself stays a single relaxed load when nothing
//! else arms tracing). Enabled, a span push is an intern lookup (a read
//! lock over a small map of `&'static str` call sites) plus two relaxed
//! stores; the sampler's work is off-thread. `tests/obs_overhead.rs`
//! keeps both paths honest analytically.
//!
//! # Windows
//!
//! The table is cumulative. A profile *window* is the difference of two
//! [`snapshot`]s ([`ProfileSnapshot::diff`]).

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::Ordering::{Acquire, Relaxed, Release};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize};
use std::sync::{Arc, Mutex, OnceLock, RwLock, Weak};
use std::time::Duration;

/// Default sampling rate. 997 is prime, so the sampler cannot alias with
/// work that recurs on round millisecond periods.
pub const DEFAULT_SAMPLE_HZ: u64 = 997;

/// Span nesting deeper than this is attributed to the deepest tracked
/// frame (the stack keeps counting depth, so pops stay balanced).
pub const MAX_TRACKED_DEPTH: usize = 32;

/// Bound on distinct `(thread, path)` entries across the whole table;
/// samples that would mint a new entry past the bound are counted in
/// [`ProfileSnapshot::dropped_samples`] instead of growing without limit.
pub const MAX_TRACKED_PATHS: usize = 8192;

/// Rendered path component for a frame the sampler could not resolve
/// (a torn read of a slot mid-push).
pub const UNKNOWN_FRAME: &str = "unknown";

static ENABLED: AtomicBool = AtomicBool::new(false);
static RATE_HZ: AtomicU64 = AtomicU64::new(DEFAULT_SAMPLE_HZ);
static SAMPLER_STARTED: AtomicBool = AtomicBool::new(false);
static AUTO_SAMPLE: AtomicBool = AtomicBool::new(true);

// ---------------------------------------------------------------------
// Name interning: span names are `&'static str` literals from a small
// fixed set of call sites, so (address, length) identifies one.

#[derive(Default)]
struct NameTable {
    by_site: HashMap<(usize, usize), u32>,
    names: Vec<&'static str>,
}

/// Ways of the per-thread memo in front of the shared name table.
const MEMO_WAYS: usize = 16;

thread_local! {
    /// This thread's recently interned sites `(address, length, id)`,
    /// direct-mapped by address, so an armed span site skips the shared
    /// table's lock and hash. Ids never change once assigned, so an entry
    /// is never stale.
    static MEMO: [Cell<(usize, usize, u32)>; MEMO_WAYS] =
        const { [const { Cell::new((0, 0, 0)) }; MEMO_WAYS] };
}

fn names() -> &'static RwLock<NameTable> {
    static NAMES: OnceLock<RwLock<NameTable>> = OnceLock::new();
    NAMES.get_or_init(|| RwLock::new(NameTable::default()))
}

fn intern(name: &'static str) -> u32 {
    let site = (name.as_ptr() as usize, name.len());
    MEMO.with(|memo| {
        let way = &memo[site.0 % MEMO_WAYS];
        let (ptr, len, id) = way.get();
        if (ptr, len) == site {
            return id;
        }
        let id = intern_shared(site, name);
        way.set((site.0, site.1, id));
        id
    })
}

fn intern_shared(site: (usize, usize), name: &'static str) -> u32 {
    if let Some(&id) = names().read().unwrap().by_site.get(&site) {
        return id;
    }
    let mut table = names().write().unwrap();
    if let Some(&id) = table.by_site.get(&site) {
        return id;
    }
    let id = table.names.len() as u32 + 1; // 0 = unresolved
    table.names.push(name);
    table.by_site.insert(site, id);
    id
}

fn resolve(id: u32) -> &'static str {
    if id == 0 {
        return UNKNOWN_FRAME;
    }
    names()
        .read()
        .unwrap()
        .names
        .get(id as usize - 1)
        .copied()
        .unwrap_or(UNKNOWN_FRAME)
}

// ---------------------------------------------------------------------
// Per-thread stacks and the registry the sampler walks.

struct ThreadSlot {
    thread: u64,
    class: &'static str,
    /// Logical depth; may exceed [`MAX_TRACKED_DEPTH`] (deeper frames are
    /// untracked but the counter keeps pushes and pops balanced).
    depth: AtomicUsize,
    frames: [AtomicU32; MAX_TRACKED_DEPTH],
}

fn slots() -> &'static Mutex<Vec<Weak<ThreadSlot>>> {
    static SLOTS: OnceLock<Mutex<Vec<Weak<ThreadSlot>>>> = OnceLock::new();
    SLOTS.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static SLOT: std::cell::OnceCell<Arc<ThreadSlot>> = const { std::cell::OnceCell::new() };
}

/// Scheduling class derived from the thread's name: connection, accept,
/// HTTP and watch-pump threads are `io`; everything else (workers, shard
/// solver threads, bench mains) is `cpu`.
fn classify(name: Option<&str>) -> &'static str {
    match name {
        Some(n)
            if n.contains("conn")
                || n.contains("accept")
                || n.contains("http")
                || n.contains("watch") =>
        {
            "io"
        }
        _ => "cpu",
    }
}

fn register_current_thread() -> Arc<ThreadSlot> {
    let slot = Arc::new(ThreadSlot {
        thread: crate::trace::thread_id(),
        class: classify(std::thread::current().name()),
        depth: AtomicUsize::new(0),
        frames: std::array::from_fn(|_| AtomicU32::new(0)),
    });
    let mut v = slots().lock().unwrap();
    v.retain(|w| w.strong_count() > 0);
    v.push(Arc::downgrade(&slot));
    slot
}

/// Push `name` onto the calling thread's span-name stack. Returns whether
/// a frame was pushed (the caller must [`pop_frame`] exactly when it was).
/// One relaxed atomic load when the profiler is disabled.
#[inline]
pub(crate) fn push_frame(name: &'static str) -> bool {
    if !ENABLED.load(Relaxed) {
        return false;
    }
    push_frame_slow(name);
    true
}

#[cold]
fn push_frame_slow(name: &'static str) {
    let id = intern(name);
    SLOT.with(|cell| {
        let slot = cell.get_or_init(register_current_thread);
        let d = slot.depth.load(Relaxed);
        if d < MAX_TRACKED_DEPTH {
            slot.frames[d].store(id, Release);
        }
        slot.depth.store(d + 1, Release);
    });
}

/// Pop the frame a matching [`push_frame`] pushed.
pub(crate) fn pop_frame() {
    SLOT.with(|cell| {
        if let Some(slot) = cell.get() {
            let d = slot.depth.load(Relaxed);
            slot.depth.store(d.saturating_sub(1), Release);
        }
    });
}

// ---------------------------------------------------------------------
// The sampler and its folded table.

#[derive(Default)]
struct ThreadTable {
    class: &'static str,
    idle: u64,
    paths: HashMap<Vec<u32>, u64>,
}

#[derive(Default)]
struct Table {
    threads: HashMap<u64, ThreadTable>,
    path_count: usize,
    dropped: u64,
}

fn table() -> &'static Mutex<Table> {
    static TABLE: OnceLock<Mutex<Table>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(Table::default()))
}

/// Read one thread's current path. `None` = idle (no open span). The read
/// races the owning thread's pushes; a change in depth mid-read retries
/// once, after which the (at worst one-frame-stale) path is accepted —
/// sampling noise, not corruption, since every slot holds a valid id.
fn read_path(slot: &ThreadSlot) -> Option<Vec<u32>> {
    let mut path = Vec::new();
    for _attempt in 0..2 {
        let d0 = slot.depth.load(Acquire);
        if d0 == 0 {
            return None;
        }
        let n = d0.min(MAX_TRACKED_DEPTH);
        path.clear();
        for frame in &slot.frames[..n] {
            path.push(frame.load(Acquire));
        }
        if slot.depth.load(Acquire) == d0 {
            break;
        }
    }
    Some(path)
}

/// Pseudo-thread ids the tables of *dead* threads are folded into, one
/// per class. Real ids come from a dense counter and can never collide
/// with these.
const RETIRED_CPU: u64 = u64::MAX;
const RETIRED_IO: u64 = u64::MAX - 1;

fn retired_id(class: &str) -> u64 {
    if class == "io" {
        RETIRED_IO
    } else {
        RETIRED_CPU
    }
}

/// One sampler tick: walk the live slots, fold each path into the table.
fn sample_once() {
    let mut live: Vec<Arc<ThreadSlot>> = Vec::new();
    {
        let mut v = slots().lock().unwrap();
        v.retain(|w| match w.upgrade() {
            Some(s) => {
                live.push(s);
                true
            }
            None => false,
        });
    }
    let mut guard = table().lock().unwrap();
    // Split borrows: the per-thread entry must not alias the shared
    // path-count/dropped counters.
    let Table {
        threads,
        path_count,
        dropped,
    } = &mut *guard;
    if live.is_empty() && threads.is_empty() {
        return;
    }
    for slot in &live {
        let tt = threads.entry(slot.thread).or_default();
        tt.class = slot.class;
        match read_path(slot) {
            None => tt.idle += 1,
            Some(path) => match tt.paths.entry(path) {
                std::collections::hash_map::Entry::Occupied(mut e) => *e.get_mut() += 1,
                std::collections::hash_map::Entry::Vacant(e) => {
                    if *path_count < MAX_TRACKED_PATHS {
                        e.insert(1);
                        *path_count += 1;
                    } else {
                        *dropped += 1;
                    }
                }
            },
        }
    }
    // Per-connection and per-shard threads are short-lived; left alone,
    // every one of them would keep a `threads` entry forever and a busy
    // server would grow the table without bound. Fold dead
    // threads' tables into one retired pseudo-thread per class — every
    // count is preserved, only the per-thread identity is given up.
    let live_ids: HashSet<u64> = live.iter().map(|s| s.thread).collect();
    let dead: Vec<u64> = threads
        .keys()
        .copied()
        .filter(|&id| id < RETIRED_IO && !live_ids.contains(&id))
        .collect();
    for id in dead {
        let tt = threads.remove(&id).expect("key came from the map");
        *path_count -= tt.paths.len();
        let agg = threads.entry(retired_id(tt.class)).or_default();
        agg.class = if tt.class == "io" { "io" } else { "cpu" };
        agg.idle += tt.idle;
        for (path, n) in tt.paths {
            match agg.paths.entry(path) {
                std::collections::hash_map::Entry::Occupied(mut e) => *e.get_mut() += n,
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(n);
                    *path_count += 1;
                }
            }
        }
    }
}

fn ensure_sampler() {
    if SAMPLER_STARTED.swap(true, Relaxed) {
        return;
    }
    std::thread::Builder::new()
        .name("mcfs-profile-sampler".into())
        .spawn(|| loop {
            if !ENABLED.load(Relaxed) || !AUTO_SAMPLE.load(Relaxed) {
                std::thread::sleep(Duration::from_millis(20));
                continue;
            }
            let hz = RATE_HZ.load(Relaxed).max(1);
            std::thread::sleep(Duration::from_nanos(1_000_000_000 / hz));
            if ENABLED.load(Relaxed) && AUTO_SAMPLE.load(Relaxed) {
                sample_once();
            }
        })
        .expect("cannot spawn mcfs-profile-sampler");
}

/// Arm the profiler at `hz` samples per second (clamped to at least 1) and
/// start the sampler thread if it is not running yet. Idempotent; a second
/// call just retunes the rate.
pub fn enable(hz: u64) {
    RATE_HZ.store(hz.max(1), Relaxed);
    if !ENABLED.swap(true, Relaxed) {
        crate::trace::arm(true);
    }
    ensure_sampler();
}

/// Disarm the profiler: span pushes return to one relaxed load and the
/// sampler idles. The accumulated table is kept.
pub fn disable() {
    if ENABLED.swap(false, Relaxed) {
        crate::trace::arm(false);
    }
}

/// Whether the profiler is armed.
pub fn enabled() -> bool {
    ENABLED.load(Relaxed)
}

/// The configured sampling rate in Hz.
pub fn sample_rate_hz() -> u64 {
    RATE_HZ.load(Relaxed)
}

/// Drop every accumulated sample (test isolation).
pub fn reset() {
    let mut t = table().lock().unwrap();
    *t = Table::default();
}

/// Pause (`false`) or resume (`true`) the background sampler thread
/// without disarming the profiler — deterministic tests pause it and
/// drive ticks through [`tick_for_test`] instead.
pub fn set_auto_sample(on: bool) {
    AUTO_SAMPLE.store(on, Relaxed);
}

/// Force one sampler tick from the calling thread (deterministic tests;
/// the live sampler calls the same code).
pub fn tick_for_test() {
    sample_once();
}

// ---------------------------------------------------------------------
// Snapshots: the resolved, wire-friendly view.

/// One thread's resolved folded table.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ThreadProfile {
    /// Scheduling class (`cpu` | `io`).
    pub class: String,
    /// Samples taken while the thread had no open span.
    pub idle_samples: u64,
    /// `name;name;...` (root first) → samples.
    pub paths: BTreeMap<String, u64>,
}

/// A resolved point-in-time copy of the profiler's folded table.
///
/// `merged` is the canonical folded view: `lane;name;name → samples`,
/// where the lane is the thread class (`cpu`/`io`). [`Self::diff`]
/// turns two snapshots into a window; [`Self::to_folded`] renders the
/// collapsed-stack text `flamegraph.pl` and speedscope consume.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProfileSnapshot {
    /// Sampling rate the table was collected at (0 when parsed from wire
    /// lines that did not carry it).
    pub rate_hz: u64,
    /// Per-thread tables, keyed by the dense `mcfs_obs` thread id. Empty
    /// for snapshots parsed back from folded wire lines.
    pub threads: BTreeMap<u64, ThreadProfile>,
    /// The merged folded table: `lane;path → samples`, deterministic
    /// (BTreeMap) so the same samples always render identically.
    pub merged: BTreeMap<String, u64>,
    /// Samples that found a registered thread idle.
    pub idle_samples: u64,
    /// Samples dropped by the [`MAX_TRACKED_PATHS`] bound.
    pub dropped_samples: u64,
}

impl ProfileSnapshot {
    /// Total non-idle samples in the merged table.
    pub fn total_samples(&self) -> u64 {
        self.merged.values().sum()
    }

    /// The window between `earlier` and `self`: per-path saturating
    /// difference, zero entries dropped.
    pub fn diff(&self, earlier: &ProfileSnapshot) -> ProfileSnapshot {
        let diff_map = |now: &BTreeMap<String, u64>, then: &BTreeMap<String, u64>| {
            now.iter()
                .filter_map(|(k, &v)| {
                    let d = v.saturating_sub(then.get(k).copied().unwrap_or(0));
                    (d > 0).then(|| (k.clone(), d))
                })
                .collect::<BTreeMap<String, u64>>()
        };
        let empty = ThreadProfile::default();
        let threads = self
            .threads
            .iter()
            .map(|(&id, tp)| {
                let then = earlier.threads.get(&id).unwrap_or(&empty);
                (
                    id,
                    ThreadProfile {
                        class: tp.class.clone(),
                        idle_samples: tp.idle_samples.saturating_sub(then.idle_samples),
                        paths: diff_map(&tp.paths, &then.paths),
                    },
                )
            })
            .collect();
        ProfileSnapshot {
            rate_hz: self.rate_hz,
            threads,
            merged: diff_map(&self.merged, &earlier.merged),
            idle_samples: self.idle_samples.saturating_sub(earlier.idle_samples),
            dropped_samples: self.dropped_samples.saturating_sub(earlier.dropped_samples),
        }
    }

    /// Render the merged table as collapsed-stack ("folded") lines:
    /// `lane;name;name <samples>`, sorted by path — the exact shape
    /// `flamegraph.pl` and speedscope's folded importer consume.
    pub fn to_folded(&self) -> String {
        let mut out = String::new();
        for (path, count) in &self.merged {
            out.push_str(path);
            out.push(' ');
            out.push_str(&count.to_string());
            out.push('\n');
        }
        out
    }

    /// Parse folded lines (the `PROFILE` reply payload) back into a
    /// snapshot. Only the merged table travels; per-thread detail stays on
    /// the process that collected it.
    pub fn from_folded_lines<S: AsRef<str>>(lines: &[S]) -> Result<ProfileSnapshot, String> {
        let mut merged = BTreeMap::new();
        for line in lines {
            let line = line.as_ref().trim();
            if line.is_empty() {
                continue;
            }
            let (path, count) = line
                .rsplit_once(' ')
                .ok_or_else(|| format!("folded line without a count: {line:?}"))?;
            let count: u64 = count
                .parse()
                .map_err(|_| format!("bad sample count in folded line {line:?}"))?;
            if path.is_empty() || path.contains(char::is_whitespace) {
                return Err(format!("bad folded path {path:?}"));
            }
            *merged.entry(path.to_owned()).or_insert(0) += count;
        }
        Ok(ProfileSnapshot {
            merged,
            ..ProfileSnapshot::default()
        })
    }

    /// The `n` hottest paths, heaviest first (ties broken by path so the
    /// order is total).
    pub fn hottest(&self, n: usize) -> Vec<(&str, u64)> {
        let mut rows: Vec<(&str, u64)> =
            self.merged.iter().map(|(p, &c)| (p.as_str(), c)).collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        rows.truncate(n);
        rows
    }
}

/// Resolve the profiler's current cumulative table into a snapshot.
pub fn snapshot() -> ProfileSnapshot {
    let t = table().lock().unwrap();
    let mut threads: BTreeMap<u64, ThreadProfile> = BTreeMap::new();
    let mut merged: BTreeMap<String, u64> = BTreeMap::new();
    let mut idle = 0u64;
    for (&thread, tt) in &t.threads {
        let mut paths = BTreeMap::new();
        for (path, &count) in &tt.paths {
            let joined = path
                .iter()
                .map(|&id| resolve(id))
                .collect::<Vec<_>>()
                .join(";");
            *paths.entry(joined.clone()).or_insert(0) += count;
            *merged.entry(format!("{};{joined}", tt.class)).or_insert(0) += count;
        }
        idle += tt.idle;
        threads.insert(
            thread,
            ThreadProfile {
                class: tt.class.to_owned(),
                idle_samples: tt.idle,
                paths,
            },
        );
    }
    ProfileSnapshot {
        rate_hz: sample_rate_hz(),
        threads,
        merged,
        idle_samples: idle,
        dropped_samples: t.dropped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The table and arming state are process-global; profiler tests
    /// serialize so ticks cannot interleave.
    static PROFILE_TESTS: Mutex<()> = Mutex::new(());

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        let guard = PROFILE_TESTS.lock().unwrap_or_else(|e| e.into_inner());
        // Unit tests drive ticks by hand; a live sampler would race them.
        set_auto_sample(false);
        guard
    }

    #[test]
    fn interning_tells_apart_sites_sharing_a_memo_way() {
        // Sites 16 bytes apart share a way; a prefix shares its address.
        let text: &'static str = "memo.a__________memo.b__________";
        let (a, b, prefix) = (&text[..6], &text[16..22], &text[..4]);
        for _ in 0..3 {
            for name in [a, b, prefix, a] {
                assert_eq!(resolve(intern(name)), name);
            }
        }
        assert_ne!(intern(a), intern(b));
        assert_ne!(intern(a), intern(prefix));
    }

    #[test]
    fn frames_fold_into_paths_and_snapshots_diff() {
        let _serial = lock();
        reset();
        enable(DEFAULT_SAMPLE_HZ);
        let outer = crate::span("prof.outer");
        let inner = crate::span("prof.inner");
        tick_for_test();
        tick_for_test();
        let s1 = snapshot();
        assert!(s1.rate_hz >= 1);
        let key = "cpu;prof.outer;prof.inner";
        assert!(
            s1.merged.get(key).is_some_and(|&c| c >= 2),
            "missing {key} in {:?}",
            s1.merged
        );
        drop(inner);
        tick_for_test();
        let s2 = snapshot();
        let window = s2.diff(&s1);
        assert_eq!(window.merged.get("cpu;prof.outer"), Some(&1));
        assert_eq!(window.merged.get(key), None, "inner path closed");
        drop(outer);
        disable();
    }

    #[test]
    fn idle_threads_do_not_pollute_paths() {
        let _serial = lock();
        reset();
        enable(DEFAULT_SAMPLE_HZ);
        {
            let _s = crate::span("prof.idle-check");
        }
        tick_for_test();
        let snap = snapshot();
        assert!(snap.idle_samples >= 1, "open-span-free tick counts idle");
        assert!(!snap.merged.keys().any(|k| k.contains("idle-check")));
        disable();
    }

    #[test]
    fn dead_threads_retire_into_per_class_pseudo_threads() {
        let _serial = lock();
        reset();
        enable(DEFAULT_SAMPLE_HZ);
        let before = snapshot();
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let t = std::thread::Builder::new()
            .name("prof-retire-conn".into()) // "conn" → io class
            .spawn(move || {
                let _s = crate::span("prof.retire");
                tick_for_test();
                tick_for_test();
                rx.recv().ok();
            })
            .expect("spawn");
        tx.send(()).expect("worker alive");
        t.join().expect("worker");
        // The worker is dead; the next tick must fold its table into the
        // io retired pseudo-thread without losing a single count.
        tick_for_test();
        let window = snapshot().diff(&before);
        assert_eq!(
            window.merged.get("io;prof.retire"),
            Some(&2),
            "retirement must preserve the dead thread's counts: {:?}",
            window.merged
        );
        let keys: Vec<u64> = snapshot().threads.keys().copied().collect();
        assert!(
            !keys.is_empty() && keys.iter().any(|&id| id >= RETIRED_IO),
            "dead thread's table should live under a retired pseudo-id: {keys:?}"
        );
        // Churning more short-lived threads must not grow the thread map.
        let threads_now = snapshot().threads.len();
        for _ in 0..8 {
            let t = std::thread::Builder::new()
                .name("prof-retire-conn".into())
                .spawn(|| {
                    let _s = crate::span("prof.retire");
                    tick_for_test();
                })
                .expect("spawn");
            t.join().expect("worker");
            tick_for_test();
        }
        assert!(
            snapshot().threads.len() <= threads_now,
            "thread churn grew the table: {} -> {}",
            threads_now,
            snapshot().threads.len()
        );
        disable();
    }

    #[test]
    fn folded_round_trips() {
        let mut a = ProfileSnapshot::default();
        a.merged.insert("cpu;wma.run;oracle.batch".into(), 30);
        a.merged.insert("cpu;wma.run".into(), 10);
        let folded = a.to_folded();
        assert_eq!(folded, "cpu;wma.run 10\ncpu;wma.run;oracle.batch 30\n");
        let lines: Vec<&str> = folded.lines().collect();
        let back = ProfileSnapshot::from_folded_lines(&lines).unwrap();
        assert_eq!(back.merged, a.merged);
    }

    #[test]
    fn malformed_folded_lines_are_rejected() {
        for bad in ["justapath", "path notanumber", " 12", "a b 12"] {
            assert!(
                ProfileSnapshot::from_folded_lines(&[bad]).is_err(),
                "{bad:?} should not parse"
            );
        }
        // Blank lines are tolerated (trailing newline artifacts).
        assert!(ProfileSnapshot::from_folded_lines(&["", "cpu;x 1"]).is_ok());
    }

    #[test]
    fn hottest_orders_by_weight_then_path() {
        let mut s = ProfileSnapshot::default();
        s.merged.insert("cpu;b".into(), 5);
        s.merged.insert("cpu;a".into(), 5);
        s.merged.insert("cpu;c".into(), 9);
        assert_eq!(
            s.hottest(2),
            vec![("cpu;c", 9), ("cpu;a", 5)],
            "weight desc, then path asc"
        );
    }

    #[test]
    fn deep_nesting_saturates_but_stays_balanced() {
        let _serial = lock();
        reset();
        enable(DEFAULT_SAMPLE_HZ);
        {
            let mut guards = Vec::new();
            for _ in 0..(MAX_TRACKED_DEPTH + 8) {
                guards.push(crate::span("prof.deep"));
            }
            tick_for_test();
            let snap = snapshot();
            let deep: Vec<&String> = snap
                .merged
                .keys()
                .filter(|k| k.contains("prof.deep"))
                .collect();
            assert!(!deep.is_empty());
            for k in deep {
                assert!(k.split(';').count() <= MAX_TRACKED_DEPTH + 1);
            }
        }
        // All guards dropped: the stack must be empty again.
        tick_for_test();
        let before = snapshot();
        tick_for_test();
        let after = snapshot();
        assert_eq!(
            after
                .diff(&before)
                .merged
                .iter()
                .find(|(k, _)| k.contains("prof.deep")),
            None,
            "unwound stack no longer samples"
        );
        disable();
    }
}
