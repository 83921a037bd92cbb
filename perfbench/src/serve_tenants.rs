//! The `serve-tenants` workload: an in-process `Session` driven closed-loop
//! by one client speaking JSON lines.
//!
//! Three tenants share a 20-worker pool: Exhaustive Bucketing on
//! ColmenaXTB truth, Greedy Bucketing on TopEFT truth, and feature-binned
//! allocation on Bimodal truth with input signals. The client is a small
//! discrete-event executor: it keeps a window of tasks outstanding per
//! tenant, runs every granted attempt against the task's true peak under
//! the engine's enforcement model, and reports the earliest-finishing
//! attempt next — `Complete` when the grant covered the peak, `Fault`
//! exhaustion when it did not, and a `Fault` crash at a seeded rate.
//! Every 1024th request is a multi-category `Predict` and every 4096th a
//! `Stats`. Set-up generates the truth, opens the tenants and warms them
//! with the first tenth of the tasks; the rest of the stream is timed.
//! `README.md` gives the basis of each constant below.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

use tora::prelude::*;
use tora::serve::{Grant, Request, Response, ServeConfig, Session};

use crate::measure::{fnv1a, median, min_of, secs, sub_seed, unit_hash, BestTimes, FNV_START};
use crate::shadow::Shadow;
use crate::sims::{drain_sources, drive_allocators};
use crate::spans::{LayerCounts, Recorder};
use crate::{per, Options, Outcome, Scale};

/// The pool of the serve smoke in `ci.sh` and of the serve protocol tests.
const WORKERS: usize = 20;
/// Tasks per tenant.
const TASKS: usize = 5_000;
/// Tasks each tenant keeps submitted but unfinished: enough that the pool
/// stays full and a backlog waits for admission behind it.
const WINDOW: usize = 128;
/// Per-attempt crash probability: the per-source rate of the `light` fault
/// preset.
const CRASH_RATE: f64 = 0.02;
/// Advisory and monitoring requests, rare enough (under 0.13% of requests
/// together) that the latency tail belongs to the task lifecycle.
const PREDICT_EVERY: u64 = 1024;
const STATS_EVERY: u64 = 4096;
/// Share of the stream run during set-up.
const WARM_SHARE: f64 = 0.1;
/// Share of the stream submitted before the restore check's snapshot (500
/// tasks at full size). Kept small because `Session::restore` parses the
/// snapshot in time quadratic in its size.
const RESTORE_SHARE: f64 = 1.0 / 30.0;
/// Requests answered after the snapshot in the restore check.
const RESTORE_TAIL: usize = 2_000;

/// One tenant's name, algorithm and ground truth.
struct Tenant {
    name: &'static str,
    algorithm: AlgorithmKind,
    seed: u64,
    signals: bool,
    categories: Vec<u32>,
    tasks: Vec<TaskSpec>,
}

fn truth_specs(seed: u64, scale: Scale) -> [(&'static str, AlgorithmKind, bool, WorkloadSpec); 3] {
    let n = if scale == Scale::Tiny { 60 } else { TASKS };
    [
        (
            "eb",
            AlgorithmKind::ExhaustiveBucketing,
            false,
            PaperWorkflow::ColmenaXtb,
        ),
        (
            "gb",
            AlgorithmKind::GreedyBucketing,
            false,
            PaperWorkflow::TopEft,
        ),
        (
            "fb",
            AlgorithmKind::FeatureBinned,
            true,
            PaperWorkflow::Bimodal,
        ),
    ]
    .map(|(name, alg, signals, wf)| {
        let k = name.as_bytes()[0] as u64;
        (name, alg, signals, wf.spec(sub_seed(seed, k)).tasks(n))
    })
}

fn tenants(seed: u64, scale: Scale) -> Result<Vec<Tenant>, String> {
    truth_specs(seed, scale)
        .into_iter()
        .enumerate()
        .map(|(i, (name, algorithm, signals, spec))| {
            let wf = spec.materialize().map_err(|e| e.to_string())?;
            Ok(Tenant {
                name,
                algorithm,
                seed: sub_seed(seed, 100 + i as u64),
                signals,
                categories: (0..wf.categories.len() as u32).collect(),
                tasks: wf.tasks,
            })
        })
        .collect()
}

/// How a granted attempt ends.
#[derive(Debug, Clone, PartialEq)]
enum End {
    Complete,
    Crash,
    Exhausted(ResourceMask),
}

/// A running attempt, ordered by finish time then grant order.
#[derive(Debug, Clone)]
struct Attempt {
    finish: f64,
    seq: u64,
    tenant: usize,
    task: u64,
    end: End,
}

impl PartialEq for Attempt {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for Attempt {}
impl PartialOrd for Attempt {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Attempt {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.finish
            .total_cmp(&other.finish)
            .then(self.seq.cmp(&other.seq))
    }
}

/// What one pass decided, compared bit for bit across passes.
#[derive(Debug, Clone, Default, PartialEq)]
struct Tally {
    requests: u64,
    by_kind: [u64; 5],
    transcript: u64,
    tasks: u64,
    completed: u64,
    abandoned: u64,
    grants: u64,
    crashes: u64,
    exhaustions: u64,
    errors: u64,
    /// Most attempts running at once.
    peak_running: u64,
    /// Most submitted tasks waiting for admission at once.
    peak_queued: u64,
    consumption: f64,
    allocation: f64,
    makespan_s: f64,
}

const KINDS: [&str; 5] = ["submit", "complete", "fault", "predict", "stats"];

fn kind_index(request: &Request) -> usize {
    match request {
        Request::Submit { .. } => 0,
        Request::Complete { .. } => 1,
        Request::Fault { .. } => 2,
        Request::Predict { .. } => 3,
        _ => 4,
    }
}

/// The closed-loop client.
struct Client {
    seed: u64,
    tenants: Vec<Tenant>,
    next: Vec<usize>,
    outstanding: Vec<usize>,
    attempts: Vec<Vec<u32>>,
    running: BinaryHeap<Reverse<Attempt>>,
    clock: f64,
    seq: u64,
    rr: usize,
    tally: Tally,
    /// Shadow allocators, in the traced run only.
    shadow: Option<Shadow>,
}

impl Client {
    fn new(seed: u64, tenants: Vec<Tenant>) -> Self {
        let n = tenants.len();
        Client {
            seed,
            attempts: tenants.iter().map(|t| vec![0; t.tasks.len()]).collect(),
            tally: Tally {
                tasks: tenants.iter().map(|t| t.tasks.len() as u64).sum(),
                transcript: FNV_START,
                ..Tally::default()
            },
            tenants,
            next: vec![0; n],
            outstanding: vec![0; n],
            running: BinaryHeap::new(),
            clock: 0.0,
            seq: 0,
            rr: 0,
            shadow: None,
        }
    }

    fn submitted(&self) -> usize {
        self.next.iter().sum()
    }

    /// The requests that open every tenant.
    fn open_requests(&self) -> Vec<Request> {
        self.tenants
            .iter()
            .map(|t| Request::Open {
                tenant: t.name.to_string(),
                algorithm: t.algorithm.label().to_string(),
                seed: t.seed,
            })
            .collect()
    }

    /// The next request, or `None` once every task has finished.
    fn next_request(&mut self) -> Result<Option<Request>, String> {
        let i = self.tally.requests + 1;
        let n = self.tenants.len();
        if i.is_multiple_of(STATS_EVERY) {
            return Ok(Some(Request::Stats {}));
        }
        if i.is_multiple_of(PREDICT_EVERY) {
            let t = &self.tenants[(i / PREDICT_EVERY) as usize % n];
            return Ok(Some(Request::Predict {
                tenant: t.name.to_string(),
                categories: t.categories.clone(),
            }));
        }
        for k in 0..n {
            let ti = (self.rr + k) % n;
            let t = &self.tenants[ti];
            if self.outstanding[ti] < WINDOW && self.next[ti] < t.tasks.len() {
                let task = &t.tasks[self.next[ti]];
                self.next[ti] += 1;
                self.outstanding[ti] += 1;
                self.rr = (ti + 1) % n;
                return Ok(Some(Request::Submit {
                    tenant: t.name.to_string(),
                    task: task.id.0,
                    category: task.category.0,
                    input_signal: if t.signals {
                        task.features.input_signal
                    } else {
                        0.0
                    },
                    depth: 0,
                }));
            }
        }
        let Some(Reverse(a)) = self.running.pop() else {
            if self.outstanding.iter().any(|&o| o > 0) {
                return Err("tasks are outstanding but none is running".into());
            }
            return Ok(None);
        };
        self.clock = a.finish;
        let t = &self.tenants[a.tenant];
        let spec = &t.tasks[a.task as usize];
        Ok(Some(match a.end {
            End::Complete => Request::Complete {
                tenant: t.name.to_string(),
                task: a.task,
                cores: spec.peak.cores(),
                memory_mb: spec.peak.memory_mb(),
                disk_mb: spec.peak.disk_mb(),
                duration_s: spec.duration_s,
            },
            End::Crash => Request::Fault {
                tenant: t.name.to_string(),
                task: a.task,
                kind: "crash".into(),
                exhausted: Vec::new(),
            },
            End::Exhausted(mask) => Request::Fault {
                tenant: t.name.to_string(),
                task: a.task,
                kind: "exhaustion".into(),
                exhausted: mask.iter().map(|k| k.label().to_string()).collect(),
            },
        }))
    }

    /// Start every granted attempt.
    fn start(&mut self, grants: &[Grant]) -> Result<(), String> {
        for g in grants {
            let ti = self
                .tenants
                .iter()
                .position(|t| t.name == g.tenant)
                .ok_or_else(|| format!("grant for unknown tenant `{}`", g.tenant))?;
            let spec = self.tenants[ti]
                .tasks
                .get(g.task as usize)
                .ok_or_else(|| format!("grant for unknown task {}", g.task))?;
            if let Some(shadow) = &mut self.shadow {
                shadow.grant(ti, g);
            }
            let attempt = &mut self.attempts[ti][g.task as usize];
            *attempt += 1;
            let alloc = ResourceVector::from(g.alloc);
            let u = unit_hash(self.seed, (ti as u64) << 32 | g.task, *attempt as u64);
            let (end, charged) = if u < CRASH_RATE {
                self.tally.crashes += 1;
                (End::Crash, spec.duration_s * u / CRASH_RATE)
            } else {
                let verdict = EnforcementModel::default().judge(spec, &alloc);
                if verdict.success {
                    (End::Complete, verdict.charged_time_s)
                } else {
                    self.tally.exhaustions += 1;
                    (End::Exhausted(verdict.exhausted), verdict.charged_time_s)
                }
            };
            self.tally.grants += 1;
            self.tally.allocation += alloc.memory_mb() * charged;
            self.seq += 1;
            self.running.push(Reverse(Attempt {
                finish: self.clock + charged,
                seq: self.seq,
                tenant: ti,
                task: g.task,
                end,
            }));
        }
        let running = self.running.len() as u64;
        let queued = self.outstanding.iter().sum::<usize>() as u64 - running;
        self.tally.peak_running = self.tally.peak_running.max(running);
        self.tally.peak_queued = self.tally.peak_queued.max(queued);
        Ok(())
    }

    /// Fold one answered request into the client state.
    fn answer(&mut self, request: &Request, response: &Response, line: &str) -> Result<(), String> {
        self.tally.requests += 1;
        self.tally.by_kind[kind_index(request)] += 1;
        self.tally.transcript = fnv1a(fnv1a(self.tally.transcript, line.as_bytes()), b"\n");
        let tenant_of = |name: &str| self.tenants.iter().position(|t| t.name == name);
        if let (Some(shadow), Some(ti)) = (
            &mut self.shadow,
            request_tenant(request).and_then(tenant_of),
        ) {
            if !matches!(response, Response::Error { .. }) {
                shadow.mirror(ti, request, response);
            }
        }
        match response {
            Response::Submitted { granted, .. } => self.start(granted)?,
            Response::Completed {
                tenant,
                task,
                admitted,
            } => {
                let ti = tenant_of(tenant).ok_or("completion for an unknown tenant")?;
                let spec = &self.tenants[ti].tasks[*task as usize];
                self.tally.consumption += spec.peak.memory_mb() * spec.duration_s;
                self.tally.completed += 1;
                self.outstanding[ti] -= 1;
                self.start(admitted)?;
            }
            Response::Retried {
                tenant,
                infeasible,
                admitted,
                ..
            } => {
                if *infeasible {
                    let ti = tenant_of(tenant).ok_or("fault for an unknown tenant")?;
                    self.tally.abandoned += 1;
                    self.outstanding[ti] -= 1;
                }
                self.start(admitted)?;
            }
            Response::Error { .. } => self.tally.errors += 1,
            _ => {}
        }
        self.tally.makespan_s = self.clock;
        Ok(())
    }
}

fn request_tenant(request: &Request) -> Option<&str> {
    match request {
        Request::Submit { tenant, .. }
        | Request::Complete { tenant, .. }
        | Request::Fault { tenant, .. }
        | Request::Predict { tenant, .. } => Some(tenant),
        _ => None,
    }
}

fn line_of(request: &Request) -> Result<String, String> {
    serde_json::to_string(request).map_err(|e| format!("request serialization failed: {e}"))
}

/// Answer one request line as a daemon would: parse, handle, serialize.
fn answer_line(session: &mut Session, line: &str) -> Result<(Response, String), String> {
    let (response, _) = session.handle_line(line);
    let out = serde_json::to_string(&response)
        .map_err(|e| format!("response serialization failed: {e}"))?;
    Ok((response, out))
}

/// Split timing of one request, for the traced run.
#[derive(Debug, Default)]
struct ServeTimes {
    parse_ns: u64,
    serialize_ns: u64,
    handle_ns: [u64; 5],
}

/// Answer one request line with a span around each layer call.
fn answer_line_traced(
    session: &mut Session,
    line: &str,
    kind: usize,
    times: &mut ServeTimes,
    rec: Option<(&mut Recorder, u32)>,
) -> Result<(Response, String), String> {
    let t0 = Instant::now();
    let parsed = serde_json::from_str::<Request>(line);
    let t1 = Instant::now();
    let response = match parsed {
        Ok(request) => session.handle(request),
        Err(e) => Response::error("bad-request", format!("unparseable request: {e}")),
    };
    let t2 = Instant::now();
    let out = serde_json::to_string(&response)
        .map_err(|e| format!("response serialization failed: {e}"))?;
    let t3 = Instant::now();
    let ns = |a: Instant, b: Instant| b.duration_since(a).as_nanos() as u64;
    times.parse_ns += ns(t0, t1);
    times.handle_ns[kind] += ns(t1, t2);
    times.serialize_ns += ns(t2, t3);
    if let Some((rec, group)) = rec {
        // The spans are laid down after the fact from the same instants, so
        // recording them adds nothing to the timed calls themselves.
        rec.push_span("serve.request", group, None, t0, t3);
        let root = rec.spans().len() as u32 - 1;
        rec.push_span("serve.parse", group, Some(root), t0, t1);
        rec.push_span(KIND_SPANS[kind], group, Some(root), t1, t2);
        rec.push_span("serve.serialize", group, Some(root), t2, t3);
    }
    Ok((response, out))
}

const KIND_SPANS: [&str; 5] = [
    "serve.handle.submit",
    "serve.handle.complete",
    "serve.handle.fault",
    "serve.handle.predict",
    "serve.handle.stats",
];

/// Set-up: generate the truth, open the tenants, and run the stream until
/// `warm_share` of the tasks are submitted. With `shadow`, the client
/// mirrors every operation into shadow allocators.
fn setup(opts: &Options, shadow: bool, warm_share: f64) -> Result<(Session, Client), String> {
    let mut session = Session::new(&ServeConfig {
        workers: WORKERS,
        threads: 0,
    });
    let mut client = Client::new(opts.seed, tenants(opts.seed, opts.scale)?);
    if shadow {
        let tenants: Vec<_> = client
            .tenants
            .iter()
            .map(|t| (t.algorithm, t.seed))
            .collect();
        client.shadow = Some(Shadow::new(&tenants));
    }
    for open in client.open_requests() {
        let (response, _) = answer_line(&mut session, &line_of(&open)?)?;
        if !matches!(response, Response::Opened { .. }) {
            return Err(format!("Open failed: {response:?}"));
        }
    }
    let warm = (client.tally.tasks as f64 * warm_share) as usize;
    while client.submitted() < warm {
        let Some(request) = client.next_request()? else {
            break;
        };
        let (response, out) = answer_line(&mut session, &line_of(&request)?)?;
        client.answer(&request, &response, &out)?;
    }
    Ok((session, client))
}

/// How a pass answers each request.
enum Mode<'a> {
    Plain(&'a mut BestTimes),
    Traced(&'a mut ServeTimes, Option<&'a mut Recorder>),
}

/// The timed rest of one pass.
struct Timed {
    /// The pass's final tally (set-up included).
    tally: Tally,
    /// Wall seconds of the timed window.
    wall: f64,
    /// Requests answered inside the timed window.
    requests: u64,
    /// Tasks completed inside the timed window.
    completed: u64,
    /// Requests of each kind inside the timed window.
    kinds: [u64; 5],
    /// Requests of each kind slower than the pass's p99 (untraced passes).
    tail: [u64; 5],
    /// The client's shadow allocators, if it had them.
    shadow: Option<Shadow>,
}

/// Run the timed rest of the stream.
fn pass(session: &mut Session, mut client: Client, mut mode: Mode<'_>) -> Result<Timed, String> {
    let before = client.tally.clone();
    let mut latencies: Vec<(f64, usize)> = Vec::new();
    let start = Instant::now();
    while let Some(request) = client.next_request()? {
        let line = line_of(&request)?;
        let (response, out) = match &mut mode {
            Mode::Plain(lat) => {
                let t = Instant::now();
                let answered = answer_line(session, &line)?;
                let us = t.elapsed().as_nanos() as f64 * 1e-3;
                lat.push(us);
                latencies.push((us, kind_index(&request)));
                answered
            }
            Mode::Traced(times, rec) => {
                let group = client.tally.requests as u32;
                let rec = rec.as_deref_mut().map(|r| (r, group));
                answer_line_traced(session, &line, kind_index(&request), times, rec)?
            }
        };
        client.answer(&request, &response, &out)?;
    }
    let wall = secs(start);
    let mut tail = [0u64; 5];
    if let Mode::Plain(lat) = mode {
        lat.end_pass();
        let p99 = lat.last_p99();
        for &(_, k) in latencies.iter().filter(|l| l.0 > p99) {
            tail[k] += 1;
        }
    }
    let (tally, shadow) = (client.tally, client.shadow);
    Ok(Timed {
        shadow,
        wall,
        tail,
        requests: tally.requests - before.requests,
        completed: tally.completed - before.completed,
        kinds: std::array::from_fn(|k| tally.by_kind[k] - before.by_kind[k]),
        tally,
    })
}

/// Snapshot a warmed session, then answer a fixed tail of requests both on the
/// live session and on one restored from the snapshot; the two response
/// transcripts must match byte for byte.
fn restore_check(opts: &Options) -> Result<(bool, String), String> {
    let (mut live, mut client) = setup(opts, false, RESTORE_SHARE)?;
    let snapshot = live.snapshot_json()?;
    let mut tail = Vec::new();
    while tail.len() < RESTORE_TAIL {
        let Some(request) = client.next_request()? else {
            break;
        };
        let line = line_of(&request)?;
        let (response, out) = answer_line(&mut live, &line)?;
        client.answer(&request, &response, &out)?;
        tail.push((line, out));
    }
    let mut restored = Session::restore(
        &ServeConfig {
            workers: WORKERS,
            threads: 0,
        },
        &snapshot,
    )?;
    for (i, (line, expected)) in tail.iter().enumerate() {
        let (_, out) = answer_line(&mut restored, line)?;
        if &out != expected {
            return Ok((
                false,
                format!("tail request {i} diverged: {out} != {expected}"),
            ));
        }
    }
    Ok((
        !tail.is_empty(),
        format!(
            "{} tail responses byte-identical after snapshot_json -> restore",
            tail.len()
        ),
    ))
}

/// One untimed pass with shadow allocators: exact decision counts, and the
/// journal length from the daemon's own `Stats`. Whether the shadows agreed
/// with the daemon is reported as a note, not checked (see [`Shadow`]).
/// Also returns whether the pass repeated the timed passes' tally.
fn shadow_counts(
    opts: &Options,
    expect: &Tally,
    out: &mut Outcome,
) -> Result<(LayerCounts, u64, bool), String> {
    let (mut session, client) = setup(opts, true, WARM_SHARE)?;
    let timed = pass(
        &mut session,
        client,
        Mode::Traced(&mut ServeTimes::default(), None),
    )?;
    let shadow = timed.shadow.expect("the shadow pass keeps its shadow");
    let ops = match session.handle(Request::Stats {}) {
        Response::StatsReport { tenants, .. } => tenants.iter().map(|t| t.ops).sum(),
        other => return Err(format!("Stats failed: {other:?}")),
    };
    out.extra(
        "alloc.shadow_agrees",
        "bool",
        if shadow.mismatch.is_none() { 1.0 } else { 0.0 },
    );
    out.note(match &shadow.mismatch {
        None => "shadow allocators matched every grant and prediction: alloc.* counts are exact"
            .to_string(),
        Some(m) => format!("shadow allocators diverged, alloc.* counts are approximate: {m}"),
    });
    Ok((shadow.counts(), ops, timed.tally == *expect))
}

fn common_checks(
    out: &mut Outcome,
    tally: &Tally,
    repeat_ok: bool,
    passes: u64,
    opts: &Options,
) -> Result<(), String> {
    out.check(
        "no_error_responses",
        tally.errors == 0,
        format!(
            "{} Error responses in {} requests",
            tally.errors, tally.requests
        ),
    );
    out.check(
        "conservation",
        tally.completed + tally.abandoned == tally.tasks,
        format!(
            "{} tasks = {} completed + {} abandoned",
            tally.tasks, tally.completed, tally.abandoned
        ),
    );
    out.check(
        "repeat_identical",
        repeat_ok,
        format!("{passes} passes produced the same response transcript and tallies"),
    );
    let (ok, detail) = restore_check(opts)?;
    out.check("snapshot_restore", ok, detail);
    Ok(())
}

/// Run the serve workload.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    if opts.trace {
        traced(opts)
    } else {
        untraced(opts)
    }
}

fn untraced(opts: &Options) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut lat = BestTimes::default();
    let mut setup_s = Vec::new();
    // Throughput is taken from the fastest pass; every pass answers the same
    // requests (see `BestTimes`).
    let (mut wall, mut fastest) = (0.0, f64::INFINITY);
    let (mut completed, mut requests, mut kinds) = (0, 0, [0; 5]);
    let mut tail = [0u64; 5];
    let mut first: Option<Tally> = None;
    let mut repeat_ok = true;
    while first.is_none() || wall < opts.seconds {
        let mut state = None;
        for _ in 0..crate::SETUP_REPS {
            let t = Instant::now();
            state = Some(setup(opts, false, WARM_SHARE)?);
            setup_s.push(secs(t));
        }
        let (mut session, client) = state.expect("set-up ran");
        let timed = pass(&mut session, client, Mode::Plain(&mut lat))?;
        drop(session);
        wall += timed.wall;
        fastest = fastest.min(timed.wall);
        (completed, requests, kinds) = (timed.completed, timed.requests, timed.kinds);
        for (t, n) in tail.iter_mut().zip(timed.tail) {
            *t += n;
        }
        let tally = timed.tally;
        out.attempted += tally.requests;
        out.failed += tally.errors;
        match &first {
            None => first = Some(tally),
            Some(f) => repeat_ok &= *f == tally,
        }
    }
    let tally = first.expect("at least one pass ran");
    common_checks(&mut out, &tally, repeat_ok, lat.passes, opts)?;
    out.metric("setup_s", median(&setup_s));
    out.metric("tasks_per_s", per(completed as f64, fastest));
    out.metric("requests_per_s", per(requests as f64, fastest));
    // The quietest pass's percentiles: see `BestTimes`.
    let (p50, p99, _) = lat.pass_percentiles(min_of);
    out.metric("latency_p50_us", p50);
    out.metric("latency_p99_us", p99);
    out.metric("memory_awe", per(tally.consumption, tally.allocation));
    out.metric(
        "failed_attempt_share",
        per(
            (tally.crashes + tally.exhaustions) as f64,
            tally.grants as f64,
        ),
    );
    out.metric(
        "completed_share",
        per(tally.completed as f64, tally.tasks as f64),
    );
    out.metric("makespan_s", tally.makespan_s);
    out.samples("setup_s", setup_s.len() as u64);
    out.samples(
        "requests per pass (latency samples of each pass)",
        lat.len() as u64,
    );
    out.samples("passes (latency percentiles are the quietest)", lat.passes);
    let (m50, m99, beyond) = lat.pass_percentiles(median);
    out.samples(
        "requests beyond p99 (median over passes)",
        beyond.round() as u64,
    );
    out.extra("latency_p50_us.median_pass", "us", m50);
    out.extra("latency_p99_us.median_pass", "us", m99);
    out.extra("timed_s", "s", wall);
    out.extra("requests_per_pass", "count", tally.requests as f64);
    // Which requests the timed window is made of, and which of them lie
    // beyond each pass's p99.
    let tail_n: u64 = tail.iter().sum();
    for (k, kind) in KINDS.iter().enumerate() {
        out.extra(
            format!("serve.request_share.{kind}"),
            "ratio",
            per(kinds[k] as f64, requests as f64),
        );
        out.extra(
            format!("serve.p99_tail_share.{kind}"),
            "ratio",
            per(tail[k] as f64, tail_n as f64),
        );
    }
    out.extra("serve.peak_running", "count", tally.peak_running as f64);
    out.extra("serve.peak_queued", "count", tally.peak_queued as f64);
    Ok(out)
}

fn traced(opts: &Options) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut rec = Recorder::default();

    // Workloads layer alone, then the serial allocator driver over the
    // tenants' own task streams.
    let specs = truth_specs(opts.seed, opts.scale)
        .into_iter()
        .enumerate()
        .map(|(i, (_, _, _, spec))| (spec, sub_seed(opts.seed, 100 + i as u64)));
    let streams = drain_sources(specs, &mut rec, &mut out)?;
    drive_allocators(&streams, usize::MAX, &mut rec, &mut out);
    drop(streams);

    let (mut untraced_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut times = ServeTimes::default();
    let mut lat = BestTimes::default();
    let mut first: Option<Tally> = None;
    let mut repeat_ok = true;
    let mut kinds = [0u64; 5];
    let start = Instant::now();
    while first.is_none() || secs(start) < opts.seconds {
        let (mut session, client) = setup(opts, false, WARM_SHARE)?;
        let plain = pass(&mut session, client, Mode::Plain(&mut lat))?;
        untraced_s.push(plain.wall);
        drop(session);
        let (mut session, client) = setup(opts, false, WARM_SHARE)?;
        // Spans are kept for the first traced pass only, which bounds the
        // recorder's memory; later passes still pay the same timing calls.
        let spans = first.is_none().then_some(&mut rec);
        let timed = pass(&mut session, client, Mode::Traced(&mut times, spans))?;
        traced_s.push(timed.wall);
        for (k, n) in kinds.iter_mut().zip(timed.kinds) {
            *k += n;
        }
        let (plain, tally) = (plain.tally, timed.tally);
        out.attempted += tally.requests;
        out.failed += tally.errors;
        repeat_ok &= plain == tally;
        match &first {
            None => first = Some(tally),
            Some(f) => repeat_ok &= *f == tally,
        }
    }
    let tally = first.expect("at least one traced pass ran");
    let (counts, ops, same) = shadow_counts(opts, &tally, &mut out)?;
    repeat_ok &= same;
    common_checks(&mut out, &tally, repeat_ok, traced_s.len() as u64, opts)?;
    let tasks = tally.tasks as f64;
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
        per(tally.grants as f64, tasks),
    );
    out.metric(
        "engine.attempt_yield",
        per(tally.completed as f64, tally.grants as f64),
    );
    out.metric("engine.crashed_attempts", tally.crashes as f64);
    out.metric("engine.dispatch_failures", 0.0);
    out.metric("engine.straggler_kills", 0.0);
    out.metric("engine.dead_lettered", tally.abandoned as f64);
    out.metric("engine.replayed", 0.0);
    out.metric("engine.critical_path_inflation", 0.0);
    out.metric(
        "serve.grants_per_request",
        per(tally.grants as f64, tally.requests as f64),
    );
    out.metric("serve.journal_ops", ops as f64);
    out.metric("serve.errors", tally.errors as f64);
    let (u, tr) = (median(&untraced_s), median(&traced_s));
    out.metric("trace.untraced_s", u);
    out.metric("trace.traced_s", tr);
    out.metric("trace.overhead_s", tr - u);
    out.samples("trace passes (each side)", traced_s.len() as u64);

    let all: u64 = kinds.iter().sum();
    out.extra(
        "serve.parse_us",
        "us",
        per(times.parse_ns as f64 * 1e-3, all as f64),
    );
    out.extra(
        "serve.serialize_us",
        "us",
        per(times.serialize_ns as f64 * 1e-3, all as f64),
    );
    for (k, kind) in KINDS.iter().enumerate() {
        out.extra(
            format!("serve.handle_us.{kind}"),
            "us",
            per(times.handle_ns[k] as f64 * 1e-3, kinds[k] as f64),
        );
        out.samples(format!("serve.handle_us.{kind} (requests)"), kinds[k]);
    }
    out.extra("serve.requests", "count", tally.requests as f64);
    out.extra("serve.grants", "count", tally.grants as f64);
    out.extra("alloc.predicts", "count", counts.predicts as f64);
    out.extra("alloc.rebuckets", "count", counts.rebuckets as f64);
    out.spans = rec;
    Ok(out)
}
