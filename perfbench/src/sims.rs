//! The two simulation workloads: `paper-fig5` and `stream-dag`.
//!
//! A workload is a fixed list of engine runs generated from the seed. The
//! timed phase repeats the whole list (a pass) until the requested seconds
//! have elapsed; set-up — generating the workloads — is redone and timed
//! before every pass. Every pass must reproduce the first one exactly.

use std::collections::BTreeMap;
use std::time::Instant;

use tora::prelude::*;

use crate::alloc_driver::{self, CallTimes};
use crate::measure::{geomean, median, min_of, secs, sub_seed, BestTimes};
use crate::spans::{LayerCounts, Recorder};
use crate::{per, Options, Outcome, Scale, Workload};

/// Seeds of the §V matrix per run.
const FIG5_SEEDS: u64 = 3;
/// Width and depth of the streamed DAG (width × depth tasks).
const DAG_SHAPE: (u32, u32) = (250, 800);
/// Tasks of a streamed DAG that the serial allocator driver replays.
const DAG_DRIVER_TASKS: usize = 10_000;

/// One workflow of a workload: what to generate and how to run it.
struct Instance {
    spec: WorkloadSpec,
    /// Seed of the engine runs over this workflow.
    sim_seed: u64,
}

/// The workflows a workload's runs are built from.
fn instances(workload: Workload, seed: u64, scale: Scale) -> Vec<Instance> {
    let tiny = scale == Scale::Tiny;
    match workload {
        Workload::PaperFig5 => {
            let seeds = if tiny { 1 } else { FIG5_SEEDS };
            (0..seeds)
                .flat_map(|k| {
                    let s = sub_seed(seed, k);
                    PaperWorkflow::ALL.into_iter().map(move |wf| Instance {
                        spec: if tiny {
                            wf.spec(s).tasks(40)
                        } else {
                            wf.spec(s)
                        },
                        sim_seed: s,
                    })
                })
                .collect()
        }
        Workload::StreamDag => {
            let (w, d) = if tiny { (8, 12) } else { DAG_SHAPE };
            let s = sub_seed(seed, 0);
            vec![Instance {
                spec: PaperWorkflow::ColmenaXtb
                    .spec(s)
                    .dag_shape(DagShape::random_layered(w, d)),
                sim_seed: s,
            }]
        }
        Workload::ServeTenants => unreachable!("serve-tenants is not a simulation workload"),
    }
}

/// The algorithms run over every workflow of a workload.
fn algorithms(workload: Workload) -> &'static [AlgorithmKind] {
    match workload {
        Workload::PaperFig5 => &AlgorithmKind::PAPER_SET,
        // Greedy Bucketing: its kill rate is steady from seed to seed on
        // this DAG, where Exhaustive Bucketing's varies by about a third.
        _ => &[AlgorithmKind::GreedyBucketing],
    }
}

fn config(workload: Workload, seed: u64) -> SimConfig {
    let mut config = SimConfig::paper_like(seed);
    if workload == Workload::StreamDag {
        // Backfilling scans the whole ready queue, so every dispatch after
        // an observation re-predicts the DAG's ready layer as one batch
        // through `Allocator::predict_first_batch` — the engine's parallel
        // path. Under FIFO only the queue head is ever predicted.
        config.queue_policy = QueuePolicy::FifoBackfill;
    }
    config
}

/// A run's input, as built by set-up.
enum Input {
    Workflow(std::rc::Rc<Workflow>),
    Source(Box<dyn TaskSource>),
}

struct Job {
    algorithm: AlgorithmKind,
    config: SimConfig,
    input: Input,
    tasks: usize,
}

/// Set-up: generate every workflow (materialized for the matrix, streamed
/// otherwise) and pair it with its algorithms.
fn setup(workload: Workload, seed: u64, scale: Scale) -> Result<Vec<Job>, String> {
    let mut jobs = Vec::new();
    for inst in instances(workload, seed, scale) {
        let config = config(workload, inst.sim_seed);
        if workload == Workload::PaperFig5 {
            let wf = std::rc::Rc::new(inst.spec.materialize().map_err(|e| e.to_string())?);
            for &algorithm in algorithms(workload) {
                jobs.push(Job {
                    algorithm,
                    config,
                    tasks: wf.len(),
                    input: Input::Workflow(wf.clone()),
                });
            }
        } else {
            for &algorithm in algorithms(workload) {
                let source = inst.spec.stream().map_err(|e| e.to_string())?;
                jobs.push(Job {
                    algorithm,
                    config,
                    tasks: source.total_tasks(),
                    input: Input::Source(source),
                });
            }
        }
    }
    Ok(jobs)
}

fn build(job: Job) -> Simulation {
    match job.input {
        Input::Workflow(wf) => Simulation::new(&wf, job.algorithm, job.config),
        Input::Source(source) => Simulation::from_source(source, job.algorithm, job.config),
    }
}

/// What a run decided, compared bit for bit across passes.
#[derive(Debug, Clone, PartialEq)]
struct RunSummary {
    algorithm: &'static str,
    expected: usize,
    completed: usize,
    dead_lettered: usize,
    consumption_mb_s: f64,
    allocation_mb_s: f64,
    makespan_s: f64,
    stats: SimStats,
}

impl RunSummary {
    fn of(result: &SimResult, algorithm: &'static str, expected: usize) -> Self {
        RunSummary {
            algorithm,
            expected,
            completed: result.metrics.len(),
            dead_lettered: result.metrics.dead_lettered_count(),
            consumption_mb_s: result.metrics.total_consumption(ResourceKind::MemoryMb),
            allocation_mb_s: result.metrics.total_allocation(ResourceKind::MemoryMb),
            makespan_s: result.makespan_s,
            stats: result.stats.clone(),
        }
    }

    fn conserved(&self) -> bool {
        self.stats.submitted as usize == self.expected
            && self.stats.submitted as usize == self.completed + self.dead_lettered
    }

    fn failed_attempts(&self) -> u64 {
        let f = &self.stats.faults;
        self.stats.failures + f.crashed_attempts + f.straggler_kills
    }
}

/// Totals over one pass.
#[derive(Debug, Default)]
struct Totals {
    submitted: u64,
    completed: u64,
    dispatches: u64,
    failed_attempts: u64,
}

fn totals(runs: &[RunSummary]) -> Totals {
    let mut t = Totals::default();
    for r in runs {
        t.submitted += r.stats.submitted;
        t.completed += r.completed as u64;
        t.dispatches += r.stats.dispatches;
        t.failed_attempts += r.failed_attempts();
    }
    t
}

/// One untraced pass: per-run wall times go to `best`.
fn pass(jobs: Vec<Job>, best: &mut BestTimes) -> (Vec<RunSummary>, f64) {
    let mut wall = 0.0;
    let mut runs = Vec::with_capacity(jobs.len());
    for job in jobs {
        let (label, expected) = (job.algorithm.label(), job.tasks);
        let t = Instant::now();
        let result = build(job).run();
        let s = secs(t);
        wall += s;
        best.push(s * 1e6);
        runs.push(RunSummary::of(&result, label, expected));
    }
    best.end_pass();
    (runs, wall)
}

/// One traced pass: the same runs with a counting sink attached and a span
/// around each call into the engine. Returns the summaries, the summed
/// decision counts, the engine's share of the wall time, and the first
/// reconciliation mismatch, if any.
fn traced_pass(
    jobs: Vec<Job>,
    rec: &mut Recorder,
    group0: u32,
) -> (Vec<RunSummary>, LayerCounts, f64, Option<String>) {
    let mut runs = Vec::with_capacity(jobs.len());
    let mut counts = LayerCounts::default();
    let mut engine_s = 0.0;
    let mut mismatch = None;
    for (i, job) in jobs.into_iter().enumerate() {
        let group = group0 + i as u32;
        let (label, expected) = (job.algorithm.label(), job.tasks);
        let root = rec.open("sim.cell", group, None);
        let sim = rec.time("engine.new", group, Some(root), || {
            build(job).with_sink((TraceStats::new(), LayerCounts::default()))
        });
        let t = Instant::now();
        let (result, (trace, layer)) =
            rec.time("engine.run", group, Some(root), || sim.run_traced());
        engine_s += secs(t);
        rec.close(root);
        if let Err(lines) = result.stats.reconcile(&trace) {
            mismatch.get_or_insert_with(|| lines.join("; "));
        }
        counts.add(&layer);
        runs.push(RunSummary::of(&result, label, expected));
    }
    (runs, counts, engine_s, mismatch)
}

/// Run a simulation workload.
pub fn run(workload: Workload, opts: &Options) -> Result<Outcome, String> {
    if opts.trace {
        traced(workload, opts)
    } else {
        untraced(workload, opts)
    }
}

fn untraced(workload: Workload, opts: &Options) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut best = BestTimes::default();
    let mut wall = 0.0;
    let mut first: Option<Vec<RunSummary>> = None;
    let mut repeat_ok = true;
    let mut conserved = true;
    while first.is_none() || wall < opts.seconds {
        let mut jobs = Vec::new();
        for _ in 0..crate::SETUP_REPS {
            let t = Instant::now();
            jobs = setup(workload, opts.seed, opts.scale)?;
            setup_s.push(secs(t));
        }
        let (runs, w) = pass(jobs, &mut best);
        wall += w;
        out.attempted += runs.len() as u64;
        out.failed += runs.iter().filter(|r| !r.conserved()).count() as u64;
        conserved &= runs.iter().all(RunSummary::conserved);
        match &first {
            None => first = Some(runs),
            Some(f) => repeat_ok &= *f == runs,
        }
    }
    let runs = first.expect("at least one pass ran");
    let t = totals(&runs);
    out.check(
        "conservation",
        conserved,
        format!(
            "every run: submitted = completed + dead-lettered ({} runs per pass)",
            runs.len()
        ),
    );
    out.check(
        "repeat_identical",
        repeat_ok,
        format!(
            "{} passes reproduced every run's stats, AWE and makespan bit for bit",
            best.passes
        ),
    );
    out.metric("setup_s", median(&setup_s));
    // Throughput over each run's best time: see `BestTimes`.
    let best_s = best.total() * 1e-6;
    out.metric("tasks_per_s", per(t.completed as f64, best_s));
    out.metric("requests_per_s", per(runs.len() as f64, best_s));
    // The quietest pass's percentiles: see `BestTimes`.
    let (p50, p99, _) = best.pass_percentiles(min_of);
    out.metric("latency_p50_us", p50);
    out.metric("latency_p99_us", p99);
    // The mean over runs, as Fig. 5 reports it: a workload-wide ratio of
    // sums would be dominated by the most wasteful algorithm's largest runs.
    let awe: Vec<f64> = runs
        .iter()
        .map(|r| per(r.consumption_mb_s, r.allocation_mb_s))
        .collect();
    out.metric("memory_awe", awe.iter().sum::<f64>() / awe.len() as f64);
    out.metric(
        "failed_attempt_share",
        per(t.failed_attempts as f64, t.dispatches as f64),
    );
    out.metric(
        "completed_share",
        per(t.completed as f64, t.submitted as f64),
    );
    // Geometric mean: per-run makespans span modes (algorithms, workflow
    // sizes) and heavy tails, which move an arithmetic mean or a median
    // from seed to seed far more.
    let makespans: Vec<f64> = runs.iter().map(|r| r.makespan_s).collect();
    out.metric("makespan_s", geomean(&makespans));
    out.samples("setup_s", setup_s.len() as u64);
    out.samples(
        "runs per pass (latency samples of each pass)",
        best.len() as u64,
    );
    out.samples("passes (latency percentiles are the quietest)", best.passes);
    let (m50, m99, beyond) = best.pass_percentiles(median);
    out.samples(
        "runs beyond p99 (median over passes)",
        beyond.round() as u64,
    );
    out.extra("latency_p50_us.median_pass", "us", m50);
    out.extra("latency_p99_us.median_pass", "us", m99);
    out.extra("timed_s", "s", wall);
    if workload == Workload::PaperFig5 {
        us_per_task(&runs, &best, &mut out);
    }
    Ok(out)
}

/// `alloc.<algorithm>.us_per_task`: each algorithm's best run times summed
/// over its runs, per completed task.
fn us_per_task(runs: &[RunSummary], best: &BestTimes, out: &mut Outcome) {
    let mut per_alg: BTreeMap<&str, (f64, usize)> = BTreeMap::new();
    for (run, us) in runs.iter().zip(best.times()) {
        let e = per_alg.entry(run.algorithm).or_default();
        e.0 += us;
        e.1 += run.completed;
    }
    for (label, (us, tasks)) in per_alg {
        out.extra(
            format!("alloc.{label}.us_per_task"),
            "us",
            per(us, tasks as f64),
        );
    }
}

/// The workload layer alone: turn every spec into a source, drain it, and
/// keep the tasks, each stream with its allocator seed, for the serial
/// allocator driver.
pub fn drain_sources(
    specs: impl IntoIterator<Item = (WorkloadSpec, u64)>,
    rec: &mut Recorder,
    out: &mut Outcome,
) -> Result<Vec<(Vec<TaskSpec>, WorkerSpec, u64)>, String> {
    let (mut build_s, mut drain_s, mut n) = (0.0, 0.0, 0u64);
    let mut streams = Vec::new();
    for (i, (spec, seed)) in specs.into_iter().enumerate() {
        let t = Instant::now();
        let mut source = rec
            .time("workloads.stream", i as u32, None, || spec.stream())
            .map_err(|e| e.to_string())?;
        build_s += secs(t);
        let t = Instant::now();
        let tasks = rec.time("workloads.drain", i as u32, None, || {
            let mut tasks = Vec::with_capacity(source.total_tasks());
            while let Some(task) = source.next_task() {
                tasks.push(task);
            }
            tasks
        });
        drain_s += secs(t);
        n += tasks.len() as u64;
        streams.push((tasks, source.worker(), seed));
    }
    out.metric("workloads.build_s", build_s);
    out.metric("workloads.next_task_us", per(drain_s * 1e6, n as f64));
    out.samples("workloads.next_task_us (tasks)", n);
    Ok(streams)
}

/// Time every paper algorithm's allocator calls over the workload's own
/// task streams and record `alloc.<algorithm>.*`.
pub fn drive_allocators(
    streams: &[(Vec<TaskSpec>, WorkerSpec, u64)],
    cap: usize,
    rec: &mut Recorder,
    out: &mut Outcome,
) {
    for (a, alg) in AlgorithmKind::PAPER_SET.into_iter().enumerate() {
        let mut times = CallTimes::default();
        for (tasks, worker, seed) in streams {
            let tasks = &tasks[..tasks.len().min(cap)];
            let t = rec.time("alloc.driver", a as u32, None, || {
                alloc_driver::drive(alg, *seed, *worker, tasks)
            });
            times.add(&t);
        }
        for (call, mean) in crate::ALLOC_CALLS.iter().zip(times.means_us()) {
            out.metric(&format!("alloc.{}.{call}", alg.label()), mean);
        }
        out.samples(
            format!("alloc.{}.* (calls each)", alg.label()),
            times.first.0,
        );
    }
}

fn traced(workload: Workload, opts: &Options) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut rec = Recorder::default();
    let specs = instances(workload, opts.seed, opts.scale)
        .into_iter()
        .map(|inst| (inst.spec, inst.sim_seed));
    let streams = drain_sources(specs, &mut rec, &mut out)?;
    let cap = if workload == Workload::StreamDag {
        DAG_DRIVER_TASKS
    } else {
        usize::MAX
    };
    drive_allocators(&streams, cap, &mut rec, &mut out);
    drop(streams);

    // Untraced and traced passes alternate; their difference is the
    // tracing overhead, and the traced pass must decide exactly as the
    // untraced one did.
    let (mut untraced_s, mut traced_s, mut engine_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut best = BestTimes::default();
    let mut first: Option<(Vec<RunSummary>, LayerCounts)> = None;
    let (mut same, mut mismatch) = (true, None);
    let start = Instant::now();
    let mut group = 0u32;
    while first.is_none() || secs(start) < opts.seconds {
        let (plain, w) = pass(setup(workload, opts.seed, opts.scale)?, &mut best);
        untraced_s.push(w);
        let jobs = setup(workload, opts.seed, opts.scale)?;
        let n = jobs.len() as u32;
        let t = Instant::now();
        let (runs, counts, engine, bad) = traced_pass(jobs, &mut rec, group);
        traced_s.push(secs(t));
        engine_s.push(engine);
        group += n;
        if mismatch.is_none() {
            mismatch = bad;
        }
        same &= plain == runs;
        out.attempted += runs.len() as u64;
        out.failed += runs.iter().filter(|r| !r.conserved()).count() as u64;
        match &first {
            None => first = Some((runs, counts)),
            Some(f) => same &= f.0 == runs && f.1 == counts,
        }
    }
    let (runs, counts) = first.expect("at least one traced pass ran");
    let t = totals(&runs);
    out.check(
        "conservation",
        runs.iter().all(RunSummary::conserved),
        "every run: submitted = completed + dead-lettered",
    );
    out.check(
        "reconcile",
        mismatch.is_none(),
        mismatch.unwrap_or_else(|| "TraceStats reconcile with SimStats on every run".into()),
    );
    out.check(
        "repeat_identical",
        same,
        format!(
            "{} traced and untraced passes made identical decisions and counts",
            traced_s.len()
        ),
    );
    let tasks = t.submitted as f64;
    out.metric(
        "alloc.predicts_per_task",
        per(counts.predicts as f64, tasks),
    );
    out.metric(
        "alloc.escalations_per_task",
        per(counts.escalations as f64, tasks),
    );
    out.metric(
        "alloc.feedback_per_task",
        per(counts.feedback as f64, tasks),
    );
    out.metric(
        "alloc.rebuckets_per_task",
        per(counts.rebuckets as f64, tasks),
    );
    out.metric(
        "alloc.rebucket_records_per_task",
        per(counts.rebucket_records as f64, tasks),
    );
    out.metric(
        "engine.dispatches_per_task",
        per(t.dispatches as f64, tasks),
    );
    let completions: u64 = runs.iter().map(|r| r.stats.completions).sum();
    out.metric(
        "engine.attempt_yield",
        per(completions as f64, t.dispatches as f64),
    );
    let fault =
        |f: fn(&FaultCounts) -> u64| runs.iter().map(|r| f(&r.stats.faults)).sum::<u64>() as f64;
    out.metric("engine.crashed_attempts", fault(|f| f.crashed_attempts));
    out.metric("engine.dispatch_failures", fault(|f| f.dispatch_failures));
    out.metric("engine.straggler_kills", fault(|f| f.straggler_kills));
    out.metric("engine.dead_lettered", fault(|f| f.dead_lettered));
    out.metric("engine.replayed", fault(|f| f.replayed));
    let inflation: Vec<f64> = runs
        .iter()
        .filter_map(|r| r.stats.critical_path.as_ref().map(|c| c.inflation))
        .collect();
    out.metric(
        "engine.critical_path_inflation",
        per(inflation.iter().sum(), inflation.len() as f64),
    );
    out.metric("serve.grants_per_request", 0.0);
    out.metric("serve.journal_ops", 0.0);
    out.metric("serve.errors", 0.0);
    let (u, tr) = (median(&untraced_s), median(&traced_s));
    out.metric("trace.untraced_s", u);
    out.metric("trace.traced_s", tr);
    out.metric("trace.overhead_s", tr - u);
    out.samples("trace passes (each side)", traced_s.len() as u64);
    let engine = median(&engine_s);
    out.extra("engine.run_s", "s", engine);
    out.extra(
        "engine.us_per_dispatch",
        "us",
        per(engine * 1e6, t.dispatches as f64),
    );
    out.extra("alloc.predicts", "count", counts.predicts as f64);
    out.extra("alloc.rebuckets", "count", counts.rebuckets as f64);
    out.extra(
        "alloc.rebucket_records",
        "count",
        counts.rebucket_records as f64,
    );
    out.extra("engine.dispatches", "count", t.dispatches as f64);
    out.extra("engine.failed_attempts", "count", t.failed_attempts as f64);
    if workload == Workload::PaperFig5 {
        us_per_task(&runs, &best, &mut out);
    }
    out.spans = rec;
    Ok(out)
}
