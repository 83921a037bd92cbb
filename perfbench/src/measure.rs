//! Timing, percentile and machine helpers shared by every workload.

use std::time::Instant;

/// Nearest-rank percentile (`q` in `[0, 1]`) of `samples`, sorted in place.
/// `NaN` when there are no samples.
pub fn percentile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.sort_by(f64::total_cmp);
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

/// Median of `values` (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Smallest of `values` (`+inf` when empty).
pub fn min_of(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Geometric mean of positive values (`NaN` when empty).
pub fn geomean(values: &[f64]) -> f64 {
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Seconds elapsed since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Per-operation times over the passes of a run, two ways.
///
/// Throughput uses each operation's best (smallest) time over the passes.
/// Every pass repeats the same operations in the same order, and noise from
/// the machine only ever adds time, so the minimum estimates an operation's
/// cost with the noise removed; on a shared machine whose speed drifts by
/// tens of percent over seconds, these minima vary far less from run to run
/// than any per-pass mean. That buffer holds one entry per operation, so its
/// size never depends on how many passes a run fits.
///
/// Percentiles are taken within each pass, so a stall that hits a different
/// operation in each pass still reaches that pass's tail, and then reduced
/// over passes: the benchmark reports the quietest pass (the minimum), and
/// the median pass beside it.
#[derive(Debug, Default)]
pub struct BestTimes {
    best: Vec<f64>,
    next: usize,
    /// The current pass's times.
    pass: Vec<f64>,
    /// Each closed pass's p50, p99 and count of times beyond its p99.
    per_pass: Vec<(f64, f64, f64)>,
    /// Passes recorded.
    pub passes: u64,
}

impl BestTimes {
    /// Record the next operation's time in the current pass.
    pub fn push(&mut self, us: f64) {
        match self.best.get_mut(self.next) {
            Some(b) => *b = b.min(us),
            None => self.best.push(us),
        }
        self.next += 1;
        self.pass.push(us);
    }

    /// Close the current pass.
    pub fn end_pass(&mut self) {
        let p50 = percentile(&mut self.pass, 0.50);
        let p99 = percentile(&mut self.pass, 0.99);
        let above = self.pass.iter().filter(|&&v| v > p99).count() as f64;
        self.per_pass.push((p50, p99, above));
        self.pass.clear();
        self.next = 0;
        self.passes += 1;
    }

    /// Operations per pass.
    pub fn len(&self) -> usize {
        self.best.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.best.is_empty()
    }

    /// Each operation's best time, in operation order.
    pub fn times(&self) -> &[f64] {
        &self.best
    }

    /// Sum of the operations' best times.
    pub fn total(&self) -> f64 {
        self.best.iter().sum()
    }

    /// The p99 of the last closed pass.
    pub fn last_p99(&self) -> f64 {
        self.per_pass.last().map_or(f64::NAN, |p| p.1)
    }

    /// Each pass's p50, p99 and count of times beyond its p99, each reduced
    /// over the passes by `reduce` ([`min_of`] or [`median`]).
    pub fn pass_percentiles(&self, reduce: fn(&[f64]) -> f64) -> (f64, f64, f64) {
        let of = |f: fn(&(f64, f64, f64)) -> f64| {
            reduce(&self.per_pass.iter().map(f).collect::<Vec<_>>())
        };
        (of(|p| p.0), of(|p| p.1), of(|p| p.2))
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Deterministic sub-seed `k` of a run seed (SplitMix64 finalizer).
pub fn sub_seed(seed: u64, k: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(k.wrapping_add(1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` that is a pure function of its inputs.
pub fn unit_hash(seed: u64, a: u64, b: u64) -> f64 {
    (sub_seed(sub_seed(seed, a), b) >> 11) as f64 / (1u64 << 53) as f64
}

/// FNV-1a over bytes: a cheap digest for byte-identity checks.
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(hash, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01B3))
}

/// FNV-1a offset basis.
pub const FNV_START: u64 = 0xCBF2_9CE4_8422_2325;

/// The machine and build the figures were measured on.
pub fn fingerprint() -> serde_json::Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    use serde_json::Value;
    crate::obj([
        ("nproc", Value::UInt(nproc as u64)),
        (
            "detected_threads",
            Value::UInt(tora::alloc::par::detected_threads() as u64),
        ),
        ("rustc", crate::jstr(rustc_version())),
        ("commit", crate::jstr(commit())),
        ("os", crate::jstr(std::env::consts::OS)),
        ("arch", crate::jstr(std::env::consts::ARCH)),
    ])
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The checked-out commit: `git rev-parse` when the tree is a repository,
/// otherwise `unknown` (an exported tree carries no history).
fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 0.5), 50.0);
        assert_eq!(percentile(&mut v, 0.99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }

    #[test]
    fn best_times_keep_minima_and_per_pass_percentiles() {
        let mut t = BestTimes::default();
        for pass in [[4.0, 1.0, 9.0], [2.0, 3.0, 5.0], [3.0, 2.0, 7.0]] {
            pass.into_iter().for_each(|us| t.push(us));
            t.end_pass();
        }
        assert_eq!(t.times(), &[2.0, 1.0, 5.0]);
        assert_eq!(t.total(), 8.0);
        // p50 of the passes: 4, 3, 3; p99: 9, 5, 7; nothing lies beyond p99.
        assert_eq!(t.pass_percentiles(min_of), (3.0, 5.0, 0.0));
        assert_eq!(t.pass_percentiles(median), (3.0, 7.0, 0.0));
        assert_eq!(t.passes, 3);
    }

    #[test]
    fn sub_seeds_are_distinct_and_stable() {
        assert_ne!(sub_seed(1, 0), sub_seed(1, 1));
        assert_ne!(sub_seed(1, 0), sub_seed(2, 0));
        assert_eq!(sub_seed(7, 3), sub_seed(7, 3));
        let u = unit_hash(1, 2, 3);
        assert!((0.0..1.0).contains(&u));
    }
}
