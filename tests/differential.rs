//! Differential suite: the event engine against the analytic replay.
//!
//! `replay` processes tasks strictly serially — predict, enforce, retry
//! until success, observe. The engine reproduces exactly that schedule when
//! an application driver feeds it one task at a time over a fixed
//! single-worker pool: every allocator call then happens in the same order
//! with the same inputs, so the resulting [`WorkflowMetrics`] must be
//! byte-identical, for every algorithm. This pins the two execution paths
//! together far more tightly than the aggregate-identity checks in
//! `accounting.rs` — any divergence in retry logic, charging, or RNG
//! consumption shows up as a JSON diff.

use tora::prelude::*;

/// Every allocator the workspace ships, paper set and extensions alike.
const ALL_ALGORITHMS: [AlgorithmKind; 11] = [
    AlgorithmKind::WholeMachine,
    AlgorithmKind::MaxSeen,
    AlgorithmKind::MinWaste,
    AlgorithmKind::MaxThroughput,
    AlgorithmKind::QuantizedBucketing,
    AlgorithmKind::GreedyBucketing,
    AlgorithmKind::ExhaustiveBucketing,
    AlgorithmKind::GreedyBucketingIncremental,
    AlgorithmKind::KMeansBucketing,
    AlgorithmKind::FeatureBinned,
    AlgorithmKind::SemiBandit,
];

const SEEDS: [u64; 3] = [1, 7, 23];

/// Feeds the engine one task per completion: task 0 at start, task k+1 when
/// task k completes. With a single worker this makes the engine's allocator
/// call sequence identical to the serial replay's.
struct SerialDriver {
    tasks: Vec<TaskSpec>,
    next: usize,
}

impl Driver for SerialDriver {
    fn on_start(&mut self, api: &mut SubmitApi) {
        if let Some(t) = self.tasks.first() {
            api.submit_featured(t.category.0, t.features, t.peak, t.duration_s, Vec::new());
        }
        self.next = 1;
    }

    fn on_task_complete(&mut self, _task: &TaskSpec, api: &mut SubmitApi) {
        if let Some(t) = self.tasks.get(self.next) {
            api.submit_featured(t.category.0, t.features, t.peak, t.duration_s, Vec::new());
        }
        self.next += 1;
    }
}

/// Run `wf` through the engine serially and return the metrics as JSON.
fn engine_serial_json(
    wf: &Workflow,
    algorithm: AlgorithmKind,
    seed: u64,
    fault_policy: Option<FaultPolicy>,
) -> String {
    let driver = Box::new(SerialDriver {
        tasks: wf.tasks.clone(),
        next: 0,
    });
    let config = SimConfig {
        churn: ChurnConfig::fixed(1),
        faults: FaultPlan::none(),
        fault_policy,
        seed,
        ..SimConfig::default()
    };
    let result = Simulation::with_driver(driver, wf.worker, algorithm, config).run();
    assert_eq!(result.metrics.len(), wf.len(), "{algorithm} seed {seed}");
    serde_json::to_string(&result.metrics).expect("metrics serialize")
}

#[test]
fn engine_matches_replay_for_every_algorithm_and_seed() {
    let wf = SyntheticKind::Bimodal
        .catalog_workflow()
        .spec(3)
        .tasks(120)
        .materialize()
        .unwrap();
    for algorithm in ALL_ALGORITHMS {
        for seed in SEEDS {
            let replayed = tora::sim::replay(&wf, algorithm, EnforcementModel::default(), seed);
            let want = serde_json::to_string(&replayed).expect("metrics serialize");
            let got = engine_serial_json(&wf, algorithm, seed, None);
            assert_eq!(got, want, "{algorithm} seed {seed}: engine vs replay");
        }
    }
}

#[test]
fn fault_policy_with_zero_observed_faults_changes_nothing() {
    // The feedback channel compiled in (policy set) but never fed — the
    // fault plan is all-zero, so `observe_outcome` is never called and the
    // padding/escalation factors stay exactly 1.0. Metrics must remain
    // byte-identical to both the bare engine and the replay.
    let wf = SyntheticKind::Exponential
        .catalog_workflow()
        .spec(9)
        .tasks(120)
        .materialize()
        .unwrap();
    for algorithm in ALL_ALGORITHMS {
        for seed in SEEDS {
            let bare = engine_serial_json(&wf, algorithm, seed, None);
            let with_policy =
                engine_serial_json(&wf, algorithm, seed, Some(FaultPolicy::default()));
            assert_eq!(bare, with_policy, "{algorithm} seed {seed}: policy no-op");
            let replayed = tora::sim::replay(&wf, algorithm, EnforcementModel::default(), seed);
            let want = serde_json::to_string(&replayed).expect("metrics serialize");
            assert_eq!(
                with_policy, want,
                "{algorithm} seed {seed}: policy vs replay"
            );
        }
    }
}

/// FNV-1a (64-bit) offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold `bytes` into a running FNV-1a (64-bit) hash.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Run a multi-category workflow through the engine under backfill
/// scheduling (so every dispatch re-predicts the whole ready queue), heavy
/// faults and fault feedback, with a tracing sink attached, and fold every
/// comparable output into `hash`: the engine stats, the §II-C metrics, the
/// allocator trace stream, and the fault report. Returns the new hash and
/// the stats JSON.
fn traced_run_digest(
    hash: u64,
    wf: &Workflow,
    algorithm: AlgorithmKind,
    seed: u64,
) -> (u64, String) {
    let config = SimConfig {
        churn: ChurnConfig::fixed(4),
        queue_policy: QueuePolicy::FifoBackfill,
        faults: FaultPlan::named("heavy").expect("preset exists"),
        fault_policy: Some(FaultPolicy::default()),
        seed,
        ..SimConfig::default()
    };
    let (result, sink) = Simulation::new(wf, algorithm, config)
        .with_sink(MemorySink::new())
        .run_traced();
    assert!(
        !sink.events.is_empty(),
        "{algorithm} seed {seed}: trace empty"
    );
    let stats = serde_json::to_string(&result.stats).expect("stats serialize");
    let metrics = serde_json::to_string(&result.metrics).expect("metrics serialize");
    let report = FaultReport::from_result(&result, &config, algorithm.label());
    let report = serde_json::to_string(&report).expect("report serialize");
    let mut hash = fnv1a(hash, stats.as_bytes());
    hash = fnv1a(hash, metrics.as_bytes());
    for event in &sink.events {
        hash = fnv1a(
            hash,
            serde_json::to_string(event)
                .expect("event serializes")
                .as_bytes(),
        );
    }
    hash = fnv1a(hash, report.as_bytes());
    (hash, stats)
}

// Expected digests of the backfill runs below. They were recorded with the
// same test bodies on the last build that still fanned batched predictions
// across threads — where these outputs were pinned byte-identical at 1 and
// 4 threads — so they pin the serial allocator to that behaviour.
const FLAT_BACKFILL_DIGEST: u64 = 0x3b43_b67a_7f54_98b7;
const DIAMOND_BACKFILL_DIGEST: u64 = 0x1499_5b4c_de47_0c29;
const RANDOM_LAYERED_BACKFILL_DIGEST: u64 = 0x8d47_6452_2c09_cd67;

#[test]
fn backfill_dispatch_matches_the_recorded_digest() {
    // A multi-category workflow under backfill scheduling (so dispatch
    // predicts batches, not single tasks), heavy faults, and fault
    // feedback: engine stats, metrics, trace streams and fault reports of
    // every algorithm and seed fold into one digest.
    let wf = PaperWorkflow::ColmenaXtb
        .spec(5)
        .category_tasks(vec![60, 60])
        .materialize()
        .unwrap();
    let mut digest = FNV_OFFSET;
    for algorithm in ALL_ALGORITHMS {
        for seed in SEEDS {
            digest = traced_run_digest(digest, &wf, algorithm, seed).0;
        }
    }
    assert_eq!(digest, FLAT_BACKFILL_DIGEST, "digest {digest:#018x}");
}

#[test]
fn backfill_dispatch_on_dag_shapes_matches_the_recorded_digests() {
    // The same pin under *structural* pressure: dependency gating holds
    // tasks back, so backfill batches form differently and the dead-letter
    // cascade (heavy faults) rides the dependency edges. The multi-category
    // colmena mix keeps the per-category shards honest, and the
    // critical-path stats ride inside the stats/report JSON, so they are
    // pinned here too.
    let shaped = [
        (
            DagShape::diamond(3, 6).with_loopback(2),
            DIAMOND_BACKFILL_DIGEST,
        ),
        (
            DagShape::random_layered(4, 5).with_loopback(1),
            RANDOM_LAYERED_BACKFILL_DIGEST,
        ),
    ];
    for (shape, want) in shaped {
        let wf = PaperWorkflow::ColmenaXtb
            .spec(5)
            .dag_shape(shape)
            .materialize()
            .unwrap();
        assert!(wf.has_dependencies());
        let mut digest = FNV_OFFSET;
        for algorithm in ALL_ALGORITHMS {
            let (next, stats) = traced_run_digest(digest, &wf, algorithm, 7);
            assert!(
                stats.contains("critical_path"),
                "{algorithm} on {}: critical-path stats missing",
                wf.name
            );
            digest = next;
        }
        assert_eq!(digest, want, "{shape:?}: digest {digest:#018x}");
    }
}

#[test]
fn differential_parity_extends_to_production_shaped_traces() {
    // The synthetic distributions exercise the bucketing math; the
    // production-shaped traces exercise multi-category learning. Same
    // parity requirement, smaller algorithm set to keep the suite quick.
    let wf = PaperWorkflow::ColmenaXtb.build(11);
    for algorithm in [
        AlgorithmKind::GreedyBucketing,
        AlgorithmKind::ExhaustiveBucketing,
        AlgorithmKind::MaxSeen,
    ] {
        let replayed = tora::sim::replay(&wf, algorithm, EnforcementModel::default(), 11);
        let want = serde_json::to_string(&replayed).expect("metrics serialize");
        let got = engine_serial_json(&wf, algorithm, 11, Some(FaultPolicy::default()));
        assert_eq!(got, want, "{algorithm}: production trace parity");
    }
}
