//! `tora bench`: a self-contained performance report for the hot paths.
//!
//! Three layers, mirroring the performance architecture in DESIGN.md:
//!
//! 1. **prediction throughput** — steady-state `first()` allocations per
//!    second against a warm (already-bucketed) estimator, where the fast
//!    kernels have amortized everything away and a request is a table walk;
//! 2. **rebucket latency** — one full `partition()` of n pre-sorted records
//!    at Table I scales, fast kernel vs the paper-faithful quadratic scan,
//!    with the speedup ratio (the headline number of this report);
//! 3. **end-to-end and matrix throughput** — simulated tasks per second
//!    through the discrete-event engine, and the wall-clock speedup of the
//!    parallel experiment runner over a forced-sequential run of the same
//!    matrix, cross-checked byte-identical.
//!
//! [`run_bench`] produces a serializable [`BenchReport`]; the `tora bench`
//! subcommand renders it and writes `BENCH.json`.

use std::time::{Duration, Instant};

use serde::Serialize;
use tora_alloc::exhaustive::ExhaustiveBucketing;
use tora_alloc::greedy::GreedyBucketing;
use tora_alloc::partition::Partitioner;
use tora_alloc::policy::BucketingEstimator;
use tora_alloc::record::{RecordList, ScalarRecord};
use tora_alloc::ValueEstimator;
use tora_sim::{simulate, SimConfig, Simulation};
use tora_workloads::SyntheticKind;

use crate::experiments::{run_matrix_on, MatrixConfig};
use crate::figdag::{fig_dag_rows, FigDagRow};
use crate::figlearned::{fig_learned_rows, FigLearnedRow};
use crate::timing::sample_values;
use tora_alloc::allocator::{AlgorithmKind, Allocator};
use tora_alloc::resources::ResourceVector;
use tora_alloc::task::{ResourceRecord, TaskSpec};
use tora_workloads::PaperWorkflow;

/// Steady-state prediction throughput of one warm estimator.
#[derive(Debug, Clone, Serialize)]
pub struct PredictionRate {
    /// Partitioner name behind the estimator.
    pub algorithm: String,
    /// Records loaded before timing.
    pub records: usize,
    /// `first()` allocations per second with a warm bucketing state.
    pub allocs_per_sec: f64,
}

/// Fast vs faithful `partition()` latency at one record count.
#[derive(Debug, Clone, Serialize)]
pub struct RebucketRow {
    /// Partitioner family ("greedy-bucketing" / "exhaustive-bucketing").
    pub partitioner: String,
    /// Record count.
    pub records: usize,
    /// Mean fast-kernel partition latency, microseconds.
    pub fast_us: f64,
    /// Mean paper-faithful partition latency, microseconds.
    pub faithful_us: f64,
    /// `faithful_us / fast_us`.
    pub speedup: f64,
}

/// End-to-end engine throughput.
#[derive(Debug, Clone, Serialize)]
pub struct EndToEndRow {
    /// Workflow name.
    pub workflow: String,
    /// Task count.
    pub tasks: usize,
    /// Wall-clock seconds for one engine run.
    pub wall_s: f64,
    /// Simulated tasks per wall-clock second.
    pub tasks_per_sec: f64,
}

/// One point on the engine scaling curve.
#[derive(Debug, Clone, Serialize)]
pub struct ScalingRow {
    /// Task count of the streamed workload.
    pub tasks: usize,
    /// Wall-clock seconds for one engine run (generation included — the
    /// source streams into the engine on demand).
    pub wall_s: f64,
    /// Simulated tasks per wall-clock second.
    pub tasks_per_sec: f64,
}

/// Parallel experiment-runner speedup over a sequential reference run
/// (both with explicit thread counts — no environment mutation).
#[derive(Debug, Clone, Serialize)]
pub struct MatrixSpeedup {
    /// Cells in the measured matrix.
    pub cells: usize,
    /// Worker threads the parallel run used.
    pub threads: usize,
    /// Sequential wall-clock seconds (explicit `threads = 1`).
    pub sequential_s: f64,
    /// Parallel wall-clock seconds.
    pub parallel_s: f64,
    /// `sequential_s / parallel_s`.
    pub speedup: f64,
    /// Whether both runs serialized to byte-identical JSON.
    pub identical: bool,
}

/// Per-request prediction latency of a warm serve-style allocator: the
/// quantiles a `tora serve` tenant sees when every answer comes from
/// [`Allocator::predict_first`] against a 10k-record estimator bank.
#[derive(Debug, Clone, Serialize)]
pub struct ServeLatencyRow {
    /// Categories in the requested batch (1 = a single `Submit`, larger =
    /// a `Workload` burst or `Predict` batch).
    pub batch: usize,
    /// Records loaded (and committed) before timing.
    pub records: usize,
    /// Category shards the records are spread over.
    pub categories: usize,
    /// Timed request count.
    pub samples: usize,
    /// Median per-request latency, microseconds.
    pub p50_us: f64,
    /// 99th-percentile per-request latency, microseconds.
    pub p99_us: f64,
    /// Worst observed per-request latency, microseconds.
    pub max_us: f64,
}

/// The full `tora bench` report, serialized to `BENCH.json`.
#[derive(Debug, Clone, Serialize)]
pub struct BenchReport {
    /// Seed behind every measurement.
    pub seed: u64,
    /// Whether this was a `--quick` run (fewer iterations, smaller matrix).
    pub quick: bool,
    /// Steady-state prediction throughput per bucketing estimator.
    pub prediction: Vec<PredictionRate>,
    /// Rebucket latency, fast vs faithful, at Table I-like scales.
    pub rebucket: Vec<RebucketRow>,
    /// Engine throughput.
    pub end_to_end: EndToEndRow,
    /// Engine scaling curve over the streaming workload path
    /// (quick: 10k/100k; full adds the million-task point).
    pub scaling: Vec<ScalingRow>,
    /// Worker threads detected on this machine (`TORA_THREADS` override,
    /// else the available parallelism capped by the cgroup CPU quota).
    pub threads_detected: usize,
    /// Worker threads the parallel experiment runner actually ran on
    /// (detected, capped by the matrix's cell count). On a 1-core box this
    /// honestly reads `1` — the speedup alongside it is measured, not
    /// assumed.
    pub threads_used: usize,
    /// Parallel-runner speedup with the byte-identical cross-check.
    pub matrix: MatrixSpeedup,
    /// Per-request prediction latency quantiles of a warm serve-style
    /// allocator (the `tora serve` hot path).
    pub serve_latency: Vec<ServeLatencyRow>,
    /// Critical-path sensitivity on a diamond DAG: the same allocation
    /// error on vs off the critical chain, per bucketing algorithm.
    pub fig_dag: Vec<FigDagRow>,
    /// Feature-conditioning payoff on the bimodal workload: memory AWE of
    /// the category-global baselines vs the TaskContext-reading comparators.
    pub fig_learned: Vec<FigLearnedRow>,
}

fn sorted_records(n: usize, seed: u64) -> RecordList {
    sample_values(n, seed)
        .into_iter()
        .enumerate()
        .map(|(i, v)| (v, (i + 1) as f64))
        .collect()
}

fn partition_time<P: Partitioner>(p: &P, records: &[ScalarRecord], iters: usize) -> Duration {
    // One warm-up outside the window so allocator effects don't skew iters=1.
    std::hint::black_box(p.partition(records));
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(p.partition(records));
    }
    start.elapsed() / iters as u32
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn prediction_rate<P: Partitioner>(
    partitioner: P,
    n: usize,
    iters: usize,
    seed: u64,
) -> PredictionRate {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let algorithm = partitioner.name().to_string();
    let mut est = BucketingEstimator::new(partitioner);
    for (i, v) in sample_values(n, seed).into_iter().enumerate() {
        est.observe(v, (i + 1) as f64);
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA110C);
    // First request commits the records and builds the bucketing state; the
    // timed window below measures the steady-state per-allocation cost.
    let _ = est.first(rng.gen());
    let start = Instant::now();
    let mut sink = 0.0;
    for _ in 0..iters {
        sink += est.first(rng.gen()).unwrap_or(0.0);
    }
    let elapsed = start.elapsed();
    std::hint::black_box(sink);
    PredictionRate {
        algorithm,
        records: n,
        allocs_per_sec: iters as f64 / elapsed.as_secs_f64(),
    }
}

fn rebucket_rows(quick: bool, seed: u64) -> Vec<RebucketRow> {
    let sizes: &[usize] = if quick {
        &[1000, 5000]
    } else {
        &[1000, 5000, 10_000]
    };
    let mut rows = Vec::new();
    for &n in sizes {
        let list = sorted_records(n, seed);
        let records = list.sorted();
        // Keep iteration counts small at large n: the faithful greedy scan is
        // quadratic, which is the very thing being measured.
        let iters = if quick { 1 } else { (10_000 / n).max(1) };
        let fast_iters = iters * 16;
        type PartitionerPair = (&'static str, Box<dyn Partitioner>, Box<dyn Partitioner>);
        let pairs: [PartitionerPair; 2] = [
            (
                "greedy-bucketing",
                Box::new(GreedyBucketing::new()),
                Box::new(GreedyBucketing::faithful()),
            ),
            (
                "exhaustive-bucketing",
                Box::new(ExhaustiveBucketing::new()),
                Box::new(ExhaustiveBucketing::faithful()),
            ),
        ];
        for (name, fast, faithful) in pairs {
            let fast_us = micros(partition_time(&fast, records, fast_iters));
            let faithful_us = micros(partition_time(&faithful, records, iters));
            rows.push(RebucketRow {
                partitioner: name.to_string(),
                records: n,
                fast_us,
                faithful_us,
                speedup: faithful_us / fast_us.max(f64::MIN_POSITIVE),
            });
        }
    }
    rows
}

fn end_to_end(quick: bool, seed: u64) -> EndToEndRow {
    let tasks = if quick { 600 } else { 2000 };
    let wf = SyntheticKind::Bimodal
        .catalog_workflow()
        .spec(seed)
        .tasks(tasks)
        .materialize()
        .unwrap();
    let config = SimConfig::paper_like(seed);
    // Warm-up run so the report measures steady-state engine throughput.
    std::hint::black_box(simulate(&wf, AlgorithmKind::ExhaustiveBucketing, config));
    let start = Instant::now();
    let result = simulate(&wf, AlgorithmKind::ExhaustiveBucketing, config);
    let wall_s = start.elapsed().as_secs_f64();
    std::hint::black_box(result.makespan_s);
    EndToEndRow {
        workflow: wf.name.clone(),
        tasks,
        wall_s,
        tasks_per_sec: tasks as f64 / wall_s.max(f64::MIN_POSITIVE),
    }
}

/// The scaling curve: stream a bimodal workload through the engine at
/// growing task counts. Streaming means generation overlaps simulation and
/// the curve measures the whole pipeline, not just the event loop.
fn scaling_curve(quick: bool, seed: u64) -> Vec<ScalingRow> {
    let sizes: &[usize] = if quick {
        &[10_000, 100_000]
    } else {
        &[10_000, 100_000, 1_000_000]
    };
    sizes
        .iter()
        .map(|&tasks| {
            let source = SyntheticKind::Bimodal
                .catalog_workflow()
                .spec(seed)
                .tasks(tasks)
                .stream()
                .expect("synthetic workloads stream");
            let config = SimConfig::paper_like(seed);
            let start = Instant::now();
            let result =
                Simulation::from_source(source, AlgorithmKind::ExhaustiveBucketing, config).run();
            let wall_s = start.elapsed().as_secs_f64();
            std::hint::black_box(result.makespan_s);
            ScalingRow {
                tasks,
                wall_s,
                tasks_per_sec: tasks as f64 / wall_s.max(f64::MIN_POSITIVE),
            }
        })
        .collect()
}

/// An allocator with `n` records spread round-robin over `categories`
/// categories, estimators still holding everything as pending.
fn multi_category_allocator(n: usize, categories: usize, seed: u64) -> Allocator {
    let mut allocator = Allocator::new(AlgorithmKind::ExhaustiveBucketing, seed);
    for (i, v) in sample_values(n, seed).into_iter().enumerate() {
        let peak = ResourceVector::new(1.0 + (i % 4) as f64, v, v * 0.5);
        let task = TaskSpec::new(i as u64, (i % categories) as u32, peak, 10.0);
        allocator.observe(&ResourceRecord::from_task(&task));
    }
    allocator
}

/// The `tora serve` hot path: per-request latency quantiles of a batch of
/// `predict_first` calls against a warm 10k-record, 8-category allocator.
/// The bank is rebucketed before timing (a daemon's steady state — pending
/// records committed, bucket tables built), then each timed request is one
/// batch, exactly what a `Submit`/`Predict` line costs the daemon.
fn serve_latency_rows(quick: bool, seed: u64) -> Vec<ServeLatencyRow> {
    use tora_alloc::task::CategoryId;
    let records = 10_000;
    let categories = 8;
    let samples = if quick { 300 } else { 3000 };
    let mut allocator = multi_category_allocator(records, categories, seed);
    // Commit the pending records and build every bucket table up front;
    // the first prediction would otherwise pay the one-time rebucket cost.
    std::hint::black_box(allocator.rebucket_all());
    [1usize, 64]
        .into_iter()
        .map(|batch| {
            let requests: Vec<CategoryId> = (0..batch)
                .map(|i| CategoryId((i % categories) as u32))
                .collect();
            let request = |allocator: &mut Allocator| {
                for &c in &requests {
                    std::hint::black_box(allocator.predict_first(c));
                }
            };
            // Warm-up outside the window.
            for _ in 0..8 {
                request(&mut allocator);
            }
            let mut lat_us: Vec<f64> = (0..samples)
                .map(|_| {
                    let start = Instant::now();
                    request(&mut allocator);
                    micros(start.elapsed())
                })
                .collect();
            lat_us.sort_by(f64::total_cmp);
            let at = |q: f64| lat_us[((lat_us.len() as f64 * q) as usize).min(lat_us.len() - 1)];
            ServeLatencyRow {
                batch,
                records,
                categories,
                samples,
                p50_us: at(0.50),
                p99_us: at(0.99),
                max_us: *lat_us.last().expect("samples > 0"),
            }
        })
        .collect()
}

fn matrix_speedup(quick: bool, seed: u64) -> MatrixSpeedup {
    let (workflows, algorithms): (&[PaperWorkflow], &[AlgorithmKind]) = if quick {
        (
            &[PaperWorkflow::Uniform, PaperWorkflow::Bimodal],
            &[
                AlgorithmKind::MaxSeen,
                AlgorithmKind::GreedyBucketing,
                AlgorithmKind::ExhaustiveBucketing,
            ],
        )
    } else {
        (&PaperWorkflow::ALL, &AlgorithmKind::PAPER_SET)
    };
    let config = MatrixConfig {
        seed,
        ..MatrixConfig::default()
    };
    let threads = crate::pool::thread_count(workflows.len() * algorithms.len());

    // Sequential reference run and parallel run take their worker counts as
    // explicit parameters — mutating `TORA_THREADS` around a call was a
    // race waiting for a second thread (and unsound under Rust 2024 env
    // semantics).
    let start = Instant::now();
    let sequential = run_matrix_on(workflows, algorithms, &config, 1);
    let sequential_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let parallel = run_matrix_on(workflows, algorithms, &config, threads);
    let parallel_s = start.elapsed().as_secs_f64();

    let identical =
        serde_json::to_string(&sequential).ok() == serde_json::to_string(&parallel).ok();
    MatrixSpeedup {
        cells: sequential.len(),
        threads,
        sequential_s,
        parallel_s,
        speedup: sequential_s / parallel_s.max(f64::MIN_POSITIVE),
        identical,
    }
}

/// Run the full benchmark suite. `quick` shrinks iteration counts and the
/// matrix so the whole thing finishes in a few seconds (the CI smoke mode).
/// The parallel experiment runner sizes itself from
/// [`tora_alloc::par::detected_threads`] (`TORA_THREADS` override).
pub fn run_bench(quick: bool, seed: u64) -> BenchReport {
    let (pred_n, pred_iters) = if quick {
        (1000, 20_000)
    } else {
        (5000, 200_000)
    };
    let prediction = vec![
        prediction_rate(GreedyBucketing::new(), pred_n, pred_iters, seed),
        prediction_rate(ExhaustiveBucketing::new(), pred_n, pred_iters, seed),
    ];
    let matrix = matrix_speedup(quick, seed);
    BenchReport {
        seed,
        quick,
        prediction,
        rebucket: rebucket_rows(quick, seed),
        end_to_end: end_to_end(quick, seed),
        scaling: scaling_curve(quick, seed),
        threads_detected: tora_alloc::par::detected_threads(),
        threads_used: matrix.threads,
        matrix,
        serve_latency: serve_latency_rows(quick, seed),
        // Cheap either way (6 runs of a 34-task diamond) — quick keeps it.
        fig_dag: fig_dag_rows(seed),
        // Four serial replays of a 600-task workload — also cheap enough
        // for quick runs, and ci.sh asserts its directional result.
        fig_learned: fig_learned_rows(seed),
    }
}

impl BenchReport {
    /// Render the report as the tables `tora bench` prints.
    pub fn render(&self) -> String {
        use tora_metrics::Table;
        let mut out = String::new();
        let mut t = Table::new(
            "steady-state prediction throughput",
            &["estimator", "records", "allocs/sec"],
        );
        for p in &self.prediction {
            t.row(&[
                p.algorithm.clone(),
                p.records.to_string(),
                format!("{:.2e}", p.allocs_per_sec),
            ]);
        }
        out.push_str(&t.render());
        out.push('\n');
        let mut t = Table::new(
            "rebucket latency: fast kernel vs paper-faithful scan",
            &[
                "partitioner",
                "records",
                "fast (µs)",
                "faithful (µs)",
                "speedup",
            ],
        );
        for r in &self.rebucket {
            t.row(&[
                r.partitioner.clone(),
                r.records.to_string(),
                format!("{:.1}", r.fast_us),
                format!("{:.1}", r.faithful_us),
                format!("{:.1}×", r.speedup),
            ]);
        }
        out.push_str(&t.render());
        out.push('\n');
        let e = &self.end_to_end;
        out.push_str(&format!(
            "end-to-end engine: {} × {} tasks in {:.2} s = {:.0} simulated tasks/sec\n",
            e.workflow, e.tasks, e.wall_s, e.tasks_per_sec
        ));
        let mut t = Table::new(
            "engine scaling (streamed bimodal workload)",
            &["tasks", "wall (s)", "tasks/sec"],
        );
        for r in &self.scaling {
            t.row(&[
                r.tasks.to_string(),
                format!("{:.2}", r.wall_s),
                format!("{:.0}", r.tasks_per_sec),
            ]);
        }
        out.push_str(&t.render());
        out.push('\n');
        let mut t = Table::new(
            "serve prediction latency (warm 10k-record bank)",
            &["batch", "samples", "p50 (µs)", "p99 (µs)", "max (µs)"],
        );
        for r in &self.serve_latency {
            t.row(&[
                r.batch.to_string(),
                r.samples.to_string(),
                format!("{:.1}", r.p50_us),
                format!("{:.1}", r.p99_us),
                format!("{:.1}", r.max_us),
            ]);
        }
        out.push_str(&t.render());
        out.push('\n');
        let mut t = Table::new(
            "fig_dag: critical-path sensitivity (depth-dominated diamond)",
            &[
                "algorithm",
                "scenario",
                "makespan (s)",
                "vs baseline",
                "inflation",
                "waste on/off path (MB·s)",
            ],
        );
        for r in &self.fig_dag {
            t.row(&[
                r.algorithm.clone(),
                r.scenario.clone(),
                format!("{:.1}", r.makespan_s),
                format!("{:.3}×", r.makespan_vs_baseline),
                format!("{:.2}×", r.inflation),
                format!("{:.0} / {:.0}", r.on_path_waste_mb_s, r.off_path_waste_mb_s),
            ]);
        }
        out.push_str(&t.render());
        out.push('\n');
        let mut t = Table::new(
            "fig_learned: feature conditioning on the bimodal workload",
            &[
                "algorithm",
                "features",
                "memory AWE",
                "retries",
                "vs greedy",
            ],
        );
        for r in &self.fig_learned {
            t.row(&[
                r.algorithm.clone(),
                if r.feature_conditioned { "yes" } else { "no" }.to_string(),
                format!("{:.4}", r.memory_awe),
                r.retries.to_string(),
                format!("{:.3}×", r.awe_vs_greedy),
            ]);
        }
        out.push_str(&t.render());
        out.push('\n');
        out.push_str(&format!(
            "threads detected: {} / used: {}\n",
            self.threads_detected, self.threads_used
        ));
        let m = &self.matrix;
        out.push_str(&format!(
            "parallel runner: {} cells on {} threads — {:.2} s sequential vs {:.2} s \
             parallel ({:.1}× speedup), outputs {}\n",
            m.cells,
            m.threads,
            m.sequential_s,
            m.parallel_s,
            m.speedup,
            if m.identical {
                "byte-identical"
            } else {
                "DIFFER (bug!)"
            }
        ));
        out
    }

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_bench_produces_consistent_report() {
        let report = run_bench(true, 7);
        assert_eq!(report.prediction.len(), 2);
        assert!(report
            .prediction
            .iter()
            .all(|p| p.allocs_per_sec > 0.0 && p.allocs_per_sec.is_finite()));
        // quick: 2 sizes × 2 partitioner families.
        assert_eq!(report.rebucket.len(), 4);
        for r in &report.rebucket {
            assert!(r.fast_us > 0.0 && r.faithful_us > 0.0, "{r:?}");
            assert!(r.speedup.is_finite());
        }
        assert!(report.end_to_end.tasks_per_sec > 0.0);
        // quick: 10k and 100k scaling points, streamed.
        assert_eq!(
            report.scaling.iter().map(|r| r.tasks).collect::<Vec<_>>(),
            vec![10_000, 100_000]
        );
        assert!(report
            .scaling
            .iter()
            .all(|r| r.tasks_per_sec > 0.0 && r.wall_s > 0.0));
        assert!(report.threads_detected >= 1);
        assert!(report.threads_used >= 1);
        assert!(report.threads_used <= report.threads_detected);
        assert_eq!(report.matrix.cells, 6);
        assert!(
            report.matrix.identical,
            "sequential and parallel matrix runs must agree byte-for-byte"
        );
        // Serve latency: batch-of-1 and batch-of-64 rows over a warm
        // 10k-record bank, quantiles ordered and positive.
        assert_eq!(
            report
                .serve_latency
                .iter()
                .map(|r| r.batch)
                .collect::<Vec<_>>(),
            vec![1, 64]
        );
        for r in &report.serve_latency {
            assert_eq!(r.records, 10_000);
            assert!(r.p50_us > 0.0, "{r:?}");
            assert!(r.p50_us <= r.p99_us && r.p99_us <= r.max_us, "{r:?}");
        }
        // fig_learned rides in every report, with the headline comparison
        // (the directional assertion itself lives in `figlearned::tests`).
        assert_eq!(report.fig_learned.len(), 4);
        let json = report.to_json().expect("serializes");
        assert!(json.contains("\"rebucket\""));
        assert!(json.contains("\"fig_dag\""));
        assert!(json.contains("\"fig_learned\""));
        assert!(!report.render().is_empty());
    }
}
