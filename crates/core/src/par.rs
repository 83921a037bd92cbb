//! Honest thread detection.
//!
//! The only parallelism in the workspace is job-level: independent
//! experiment cells and simulations fanned across a scoped-thread pool
//! (`tora_bench::pool`). That pool sizes itself through this module, so the
//! worker count is decided in exactly one place, with one precedence:
//!
//! 1. **`TORA_THREADS`** — explicit operator override (≥ 1);
//! 2. **cgroup CPU quota** — inside a container the kernel caps runnable
//!    CPUs at `quota / period`, regardless of how many cores the host
//!    advertises. Both cgroup v2 (`cpu.max`) and v1
//!    (`cpu.cfs_quota_us` / `cpu.cfs_period_us`) are parsed;
//! 3. **[`std::thread::available_parallelism`]** — the hardware answer.
//!
//! The detected count is *capped* by the quota, never raised: claiming 32
//! threads on a half-core container is how a benchmark reports a parallel
//! "speedup" of 0.97×. `BENCH.json` records both `threads_detected` (this
//! module's answer) and `threads_used` (what a run actually spent), so a
//! 1-core box honestly reports `threads_used: 1` instead of a fake speedup.

use std::num::NonZeroUsize;

/// Parse a cgroup v2 `cpu.max` line (`"<quota> <period>"` or `"max ..."`)
/// into a usable thread cap. `None` means unlimited or unparseable.
fn parse_cpu_max(line: &str) -> Option<usize> {
    let mut parts = line.split_whitespace();
    let quota: f64 = parts.next()?.parse().ok()?; // "max" fails the parse ⇒ unlimited
    let period: f64 = parts.next().and_then(|p| p.parse().ok()).unwrap_or(1e5);
    quota_threads(quota, period)
}

/// Parse cgroup v1 `cpu.cfs_quota_us` / `cpu.cfs_period_us` contents.
/// A quota of `-1` means unlimited.
fn parse_cfs(quota: &str, period: &str) -> Option<usize> {
    let quota: f64 = quota.trim().parse().ok()?;
    if quota < 0.0 {
        return None;
    }
    let period: f64 = period.trim().parse().ok().filter(|p| *p > 0.0)?;
    quota_threads(quota, period)
}

/// `ceil(quota / period)`, floored at one thread.
fn quota_threads(quota: f64, period: f64) -> Option<usize> {
    if !(quota > 0.0 && period > 0.0) {
        return None;
    }
    Some(((quota / period).ceil() as usize).max(1))
}

/// The container CPU quota as a thread count, if one is imposed.
///
/// Reads cgroup v2 first (`/sys/fs/cgroup/cpu.max`), then v1
/// (`/sys/fs/cgroup/cpu/cpu.cfs_{quota,period}_us`). `None` outside a
/// quota-limited cgroup (or on non-Linux systems).
pub fn cgroup_quota() -> Option<usize> {
    if let Ok(line) = std::fs::read_to_string("/sys/fs/cgroup/cpu.max") {
        if let Some(n) = parse_cpu_max(&line) {
            return Some(n);
        }
    }
    let quota = std::fs::read_to_string("/sys/fs/cgroup/cpu/cpu.cfs_quota_us").ok()?;
    let period = std::fs::read_to_string("/sys/fs/cgroup/cpu/cpu.cfs_period_us").ok()?;
    parse_cfs(&quota, &period)
}

/// The number of worker threads this process should use: the
/// `TORA_THREADS` override when set (≥ 1), otherwise the available
/// parallelism capped by the cgroup CPU quota.
pub fn detected_threads() -> usize {
    if let Some(n) = std::env::var("TORA_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
    {
        return n;
    }
    let hardware = std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1);
    match cgroup_quota() {
        Some(quota) => hardware.min(quota),
        None => hardware,
    }
}

/// Worker threads to use for `jobs` independent items: the detected count,
/// never more than the job count, never less than one.
pub fn thread_count(jobs: usize) -> usize {
    detected_threads().min(jobs.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_max_parsing() {
        // v2 syntax: "<quota> <period>" with "max" meaning unlimited.
        assert_eq!(parse_cpu_max("max 100000"), None);
        assert_eq!(parse_cpu_max("100000 100000"), Some(1));
        assert_eq!(parse_cpu_max("150000 100000"), Some(2)); // 1.5 CPUs → 2
        assert_eq!(parse_cpu_max("400000 100000"), Some(4));
        assert_eq!(parse_cpu_max("50000 100000"), Some(1)); // half a CPU → 1
        assert_eq!(parse_cpu_max(""), None);
        assert_eq!(parse_cpu_max("garbage"), None);
    }

    #[test]
    fn cfs_parsing() {
        // v1 syntax: quota -1 means unlimited.
        assert_eq!(parse_cfs("-1", "100000"), None);
        assert_eq!(parse_cfs("200000", "100000"), Some(2));
        assert_eq!(parse_cfs("100000\n", "100000\n"), Some(1));
        assert_eq!(parse_cfs("100000", "0"), None);
        assert_eq!(parse_cfs("x", "100000"), None);
    }

    #[test]
    fn detection_and_bounds() {
        assert!(detected_threads() >= 1);
        assert_eq!(thread_count(1), 1);
        assert!(thread_count(0) >= 1);
        assert!(thread_count(2) <= 2);
    }
}
