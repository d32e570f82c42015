//! Host diagnostics: CPU pinning, memory high-water mark, steal time and
//! the fingerprint printed with every run.

/// Words in glibc's `cpu_set_t` (1024 CPUs).
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sysconf(name: i32) -> i64;
}

/// `_SC_CLK_TCK` on Linux.
const SC_CLK_TCK: i32 = 2;

/// CPUs the calling thread may run on.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the byte size passed,
    // and pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * 64)
        .filter(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
        .collect()
}

/// Restrict the calling thread, and every thread it spawns afterwards, to
/// `cpu`. Returns whether the kernel accepted the mask.
pub fn pin_to(cpu: usize) -> bool {
    if cpu >= MASK_WORDS * 64 {
        return false;
    }
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of exactly the byte size passed,
    // and pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").map_or(f64::NAN, |kb| kb as f64 / 1024.0)
}

fn status_kb(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// Host-wide steal time since boot, in ms (`/proc/stat`, all CPUs).
pub fn steal_ms() -> f64 {
    let ticks = std::fs::read_to_string("/proc/stat").ok().and_then(|s| {
        let cpu = s.lines().next()?;
        // cpu user nice system idle iowait irq softirq steal ...
        cpu.split_whitespace().nth(8)?.parse::<u64>().ok()
    });
    // SAFETY: sysconf takes no pointers and has no preconditions.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    match ticks {
        Some(t) if hz > 0 => t as f64 * 1e3 / hz as f64,
        _ => f64::NAN,
    }
}

/// What the numbers of a run were measured on.
pub struct Fingerprint {
    /// `available_parallelism` of the process.
    pub nproc: usize,
    /// First `model name` in `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Kernel release.
    pub kernel: String,
    /// CPUs the run was allowed to use.
    pub affinity: Vec<usize>,
}

impl Fingerprint {
    /// Read the fingerprint of the calling thread's host and affinity.
    pub fn read() -> Fingerprint {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".into());
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_owned())
            .unwrap_or_else(|_| "unknown".into());
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            kernel,
            affinity: allowed_cpus(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_plausible_values() {
        assert!(peak_rss_mb() > 0.0);
        assert!(steal_ms() >= 0.0);
        let fp = Fingerprint::read();
        assert!(fp.nproc >= 1);
        assert!(!fp.affinity.is_empty());
    }
}
