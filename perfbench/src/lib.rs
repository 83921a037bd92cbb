//! The `tora` benchmark: three workloads, each chosen so that a different
//! layer of the system does most of the work, driven only through the
//! workspace's public entry points.
//!
//! A run with tracing off measures the end-to-end metrics
//! ([`END_TO_END`]); a run with tracing on records spans around each call
//! into a layer plus exact decision counts, and reports the per-layer
//! metrics ([`per_layer`]). Both check the program's outputs. See
//! `README.md` in this directory for what each metric means on each
//! workload.

pub mod alloc_driver;
pub mod measure;
pub mod serve_tenants;
pub mod shadow;
pub mod sims;
pub mod spans;

use std::fmt;

use tora::alloc::AlgorithmKind;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The §V matrix: 7 workflows × 7 algorithms over several seeds.
    PaperFig5,
    /// A large, fault-free, streamed random-layered DAG.
    StreamDag,
    /// An in-process serve session driven closed-loop by one client.
    ServeTenants,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperFig5,
        Workload::StreamDag,
        Workload::ServeTenants,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperFig5 => "paper-fig5",
            Workload::StreamDag => "stream-dag",
            Workload::ServeTenants => "serve-tenants",
        }
    }

    /// Look a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size. `Full` is what the benchmark measures; `Tiny` runs every code
/// path in well under a second, for the smoke test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Benchmark size.
    Full,
    /// Smoke-test size.
    Tiny,
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the timed phase, in seconds (at least one full pass runs).
    pub seconds: f64,
    /// Run the traced variant (per-layer metrics) instead of the untraced
    /// one (end-to-end metrics).
    pub trace: bool,
    /// Input size.
    pub scale: Scale,
}

/// A named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// One output check.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// What was checked.
    pub name: &'static str,
    /// Whether it held.
    pub ok: bool,
    /// Evidence (counts compared, or the first mismatch).
    pub detail: String,
}

/// The result of one invocation.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: simulation runs, or requests sent to the serve
    /// session.
    pub attempted: u64,
    /// Operations that failed: runs that broke conservation, or `Error`
    /// responses. Tasks a run dead-letters under injected faults are an
    /// outcome of the workload, reported by `completed_share`.
    pub failed: u64,
    /// The `BENCHMARK.json` metrics of this mode ([`END_TO_END`] or [`per_layer`]).
    pub metrics: Vec<Metric>,
    /// Workload-specific figures reported beside the `BENCHMARK.json` metrics.
    pub extra: Vec<Metric>,
    /// Output checks.
    pub checks: Vec<Check>,
    /// Observations that inform the figures but gate nothing.
    pub notes: Vec<String>,
    /// Sample count behind each timing figure.
    pub samples: Vec<(String, u64)>,
    /// The traced run's spans (empty with tracing off).
    pub spans: spans::Recorder,
}

impl Outcome {
    /// Whether every check held.
    pub fn correct(&self) -> bool {
        !self.checks.is_empty() && self.checks.iter().all(|c| c.ok)
    }

    /// Record a check.
    pub fn check(&mut self, name: &'static str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name,
            ok,
            detail: detail.into(),
        });
    }

    /// Record a note.
    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// Record a metric under its catalogued unit.
    pub fn metric(&mut self, name: &str, value: f64) {
        let unit = unit_of(name).unwrap_or_else(|| panic!("metric `{name}` is not catalogued"));
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value,
        });
    }

    /// Record a workload-specific figure.
    pub fn extra(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.extra.push(Metric {
            name: name.into(),
            unit,
            value,
        });
    }

    /// Record the sample count behind a timing.
    pub fn samples(&mut self, what: impl Into<String>, n: u64) {
        self.samples.push((what.into(), n));
    }
}

impl fmt::Display for Metric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:<44} {:>16.6} {}", self.name, self.value, self.unit)
    }
}

/// Set-ups timed before each pass (the last one's inputs are run); the
/// median over all of them is `setup_s`.
pub const SETUP_REPS: usize = 3;

/// End-to-end metrics, measured with tracing off: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("tasks_per_s", "1/s"),
    ("requests_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("memory_awe", "ratio"),
    ("failed_attempt_share", "ratio"),
    ("completed_share", "ratio"),
    ("makespan_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics that are not per algorithm: `(name, unit)`.
const LAYER_FIXED: [(&str, &str); 21] = [
    ("workloads.build_s", "s"),
    ("workloads.next_task_us", "us"),
    ("alloc.predicts_per_task", "1/task"),
    ("alloc.escalations_per_task", "1/task"),
    ("alloc.feedback_per_task", "1/task"),
    ("alloc.rebuckets_per_task", "1/task"),
    ("alloc.rebucket_records_per_task", "1/task"),
    ("engine.dispatches_per_task", "1/task"),
    ("engine.attempt_yield", "ratio"),
    ("engine.crashed_attempts", "count"),
    ("engine.dispatch_failures", "count"),
    ("engine.straggler_kills", "count"),
    ("engine.dead_lettered", "count"),
    ("engine.replayed", "count"),
    ("engine.critical_path_inflation", "ratio"),
    ("serve.grants_per_request", "ratio"),
    ("serve.journal_ops", "count"),
    ("serve.errors", "count"),
    ("trace.traced_s", "s"),
    ("trace.untraced_s", "s"),
    ("trace.overhead_s", "s"),
];

/// The timed allocator calls of the serial driver, per paper algorithm.
pub const ALLOC_CALLS: [&str; 3] = ["predict_first_us", "predict_retry_us", "observe_us"];

/// Per-layer metrics, measured by the traced run: `(name, unit)`.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = LAYER_FIXED
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    for alg in AlgorithmKind::PAPER_SET {
        for call in ALLOC_CALLS {
            out.push((format!("alloc.{}.{call}", alg.label()), "us"));
        }
    }
    out
}

/// The unit a `BENCHMARK.json` metric is reported in.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
        .or_else(|| {
            per_layer()
                .into_iter()
                .find(|(n, _)| n == name)
                .map(|(_, u)| u)
        })
}

/// Run one invocation.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    if !(opts.seconds.is_finite() && opts.seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {}", opts.seconds));
    }
    let mut out = match opts.workload {
        Workload::ServeTenants => serve_tenants::run(opts)?,
        sim => sims::run(sim, opts)?,
    };
    if !opts.trace {
        out.metric("peak_rss_mb", measure::peak_rss_mb()?);
    }
    Ok(out)
}

/// A JSON object with fields in the given order.
pub fn obj<const N: usize>(fields: [(&str, serde_json::Value); N]) -> serde_json::Value {
    serde_json::Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// A JSON string.
pub fn jstr(s: impl Into<String>) -> serde_json::Value {
    serde_json::Value::Str(s.into())
}

/// Per-task ratio with an explicit zero for an empty denominator.
pub fn per(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
