//! A serial driver that calls the `Allocator` API directly over a workload's
//! own task stream and times each call — the paper's Table I accounting
//! (per-allocation compute cost) for every paper algorithm.
//!
//! For each task in order: `predict_first`; while the enforcement model
//! kills the attempt, `predict_retry` on the exhausted axes; then `observe`
//! the completed record. Once the stream is done, a retry probe calls
//! `predict_retry` once per task as a memory-exhaustion retry from half the
//! task's peak, so the retry path is timed for every algorithm — including
//! those whose first attempts never fail.

use std::hint::black_box;
use std::time::Instant;
use tora::prelude::*;

/// Kill-and-retry rounds before a task is given up on (a task larger than
/// the machine can never fit).
const MAX_ATTEMPTS: usize = 32;

/// Call counts and total nanoseconds per timed allocator call.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CallTimes {
    /// `predict_first` calls and nanoseconds.
    pub first: (u64, u64),
    /// `predict_retry` probe calls and nanoseconds.
    pub retry: (u64, u64),
    /// `observe` calls and nanoseconds.
    pub observe: (u64, u64),
}

impl CallTimes {
    /// Fold `other` into `self`.
    pub fn add(&mut self, other: &CallTimes) {
        for (a, b) in [
            (&mut self.first, other.first),
            (&mut self.retry, other.retry),
            (&mut self.observe, other.observe),
        ] {
            a.0 += b.0;
            a.1 += b.1;
        }
    }

    /// Mean microseconds per call, in [`crate::ALLOC_CALLS`] order.
    pub fn means_us(&self) -> [f64; 3] {
        [self.first, self.retry, self.observe].map(|(n, ns)| crate::per(ns as f64 * 1e-3, n as f64))
    }
}

/// Drive one fresh allocator over `tasks` (one workflow's stream).
pub fn drive(
    algorithm: AlgorithmKind,
    seed: u64,
    worker: WorkerSpec,
    tasks: &[TaskSpec],
) -> CallTimes {
    let config = AllocatorConfig {
        machine: worker,
        ..AllocatorConfig::default()
    };
    let mut alloc = Allocator::with_config(algorithm, config, seed);
    let enforcement = EnforcementModel::default();
    let mut times = CallTimes::default();
    for task in tasks {
        let ctx = TaskContext::from(task);
        let t = Instant::now();
        let mut decision = alloc.predict_first(ctx);
        times.first.1 += t.elapsed().as_nanos() as u64;
        times.first.0 += 1;
        for _ in 0..MAX_ATTEMPTS {
            let verdict = enforcement.judge(task, &decision.alloc);
            if verdict.success || decision.infeasible {
                break;
            }
            decision = alloc.predict_retry(ctx, &decision.alloc, &verdict.exhausted);
        }
        let record = ResourceRecord::from_task(task);
        let t = Instant::now();
        black_box(alloc.observe(&record));
        times.observe.1 += t.elapsed().as_nanos() as u64;
        times.observe.0 += 1;
    }
    let exhausted = ResourceMask::only(ResourceKind::MemoryMb);
    for task in tasks {
        let prev = task.peak.scale(0.5);
        let t = Instant::now();
        black_box(alloc.predict_retry(TaskContext::from(task), &prev, &exhausted));
        times.retry.1 += t.elapsed().as_nanos() as u64;
        times.retry.0 += 1;
    }
    times
}
