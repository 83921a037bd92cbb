//! Per-category allocator shards.
//!
//! The paper's allocator "treats each category of tasks independently and
//! uses a separate instance of a bucketing manager per category" (§IV-D).
//! A [`CategoryShard`] is that partition made concrete: one category's
//! estimator bank, record count, **and its own RNG stream**, with no
//! reference to any other category.
//!
//! ## Determinism
//!
//! * **Per-category RNG streams.** Each shard's RNG is seeded
//!   `seed ^ category`, so the draws one category consumes are independent
//!   of how calls to *other* categories interleave. A single-category
//!   workflow (category 0) sees the very same stream an allocator-global
//!   RNG would produce, since `seed ^ 0 == seed`.
//! * **Buffered trace events.** The prediction cores never emit into a sink;
//!   they append to a caller-supplied buffer (`None` compiles tracing out,
//!   preserving the zero-cost guarantee), which the allocator then emits.

use crate::estimator::{double_allocation, AllocSource, RebucketInfo, ValueEstimator};
use crate::resources::{ResourceKind, ResourceMask, ResourceVector};
use crate::task::{CategoryId, TaskContext, TaskFeatures};
use crate::trace::{AllocEvent, AxisProvenance, PredictKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::types::{AllocationDecision, AllocatorConfig, EstimatorFactory};

/// One category's slice of allocator state: estimator bank, record count,
/// and a private RNG stream.
pub(crate) struct CategoryShard {
    category: CategoryId,
    estimators: Vec<(ResourceKind, Box<dyn ValueEstimator>)>,
    records: usize,
    rng: StdRng,
}

impl CategoryShard {
    /// Build the shard for `category`: one estimator per managed axis and
    /// an RNG stream derived as `seed ^ category`.
    pub(crate) fn new(
        category: CategoryId,
        config: &AllocatorConfig,
        factory: &EstimatorFactory,
        seed: u64,
    ) -> Self {
        let machine = config.machine;
        CategoryShard {
            category,
            estimators: config
                .managed
                .iter()
                .map(|&k| (k, factory(k, &machine)))
                .collect(),
            records: 0,
            rng: StdRng::seed_from_u64(seed ^ u64::from(category.0)),
        }
    }

    /// The category this shard owns.
    pub(crate) fn category(&self) -> CategoryId {
        self.category
    }

    /// Records observed so far.
    pub(crate) fn records(&self) -> usize {
        self.records
    }

    /// Feed one validated record into every axis estimator, features
    /// attached (the category-global estimators ignore them).
    pub(crate) fn observe(&mut self, peak: &ResourceVector, sig: f64, features: &TaskFeatures) {
        for (kind, est) in self.estimators.iter_mut() {
            est.observe_ctx(features, peak[*kind], sig);
        }
        self.records += 1;
    }

    /// Read-only bucket snapshot for one axis.
    pub(crate) fn snapshot_axis(&self, kind: ResourceKind) -> Option<crate::bucket::BucketSet> {
        self.estimators
            .iter()
            .find(|(k, _)| *k == kind)
            .and_then(|(_, est)| est.snapshot())
    }

    /// Force one axis estimator to fold pending observations into a fresh
    /// bucketing configuration.
    pub(crate) fn rebucket_axis(&mut self, kind: ResourceKind) -> Option<RebucketInfo> {
        let (_, est) = self.estimators.iter_mut().find(|(k, _)| *k == kind)?;
        est.rebucket()
    }

    /// Force every axis estimator to rebucket, in managed-axis order.
    pub(crate) fn rebucket_all_axes(&mut self) -> Vec<(ResourceKind, RebucketInfo)> {
        self.estimators
            .iter_mut()
            .filter_map(|(kind, est)| est.rebucket().map(|info| (*kind, info)))
            .collect()
    }

    /// Steady-state first prediction (§IV-A steps 2–3) for this category.
    ///
    /// The exploratory check happens in the caller (an exploratory
    /// prediction touches no shard and consumes no draws). `events` buffers
    /// trace events in emission order; `None` constructs none.
    pub(crate) fn predict_first_steady(
        &mut self,
        ctx: &TaskContext,
        config: &AllocatorConfig,
        pad: f64,
        exploratory_alloc: ResourceVector,
        mut events: Option<&mut Vec<AllocEvent>>,
    ) -> AllocationDecision {
        let machine_cap = config.machine.capacity;
        let n = config.managed.len();
        let mut draws: Vec<f64> = Vec::with_capacity(n);
        for _ in 0..n {
            draws.push(self.rng.gen::<f64>());
        }
        let category = self.category;
        let mut alloc = machine_cap;
        let mut provenance = Vec::with_capacity(n);
        for (i, (kind, est)) in self.estimators.iter_mut().enumerate() {
            let (value, source) = match est.predict_first(ctx, draws[i]) {
                Some(p) => (p.value, p.source),
                None => {
                    // No records for this axis: fall back to the exploratory
                    // allocation (probe or capacity, per policy).
                    let v = exploratory_alloc[*kind];
                    let source = if v >= machine_cap[*kind] {
                        AllocSource::Capacity
                    } else {
                        AllocSource::Probe
                    };
                    (v, source)
                }
            };
            if let Some(buf) = events.as_deref_mut() {
                if let Some(info) = est.take_rebucket() {
                    buf.push(AllocEvent::rebucket(category, *kind, &info));
                }
            }
            let value = value * pad;
            alloc[*kind] = value;
            provenance.push(AxisProvenance {
                resource: *kind,
                source,
                draw: Some(draws[i]),
                clamped: value > machine_cap[*kind],
            });
        }
        let alloc = alloc.clamp_to(&machine_cap);
        if let Some(buf) = events {
            buf.push(AllocEvent::predict(
                category,
                PredictKind::First,
                alloc,
                provenance.clone(),
            ));
        }
        AllocationDecision {
            alloc,
            kind: PredictKind::First,
            provenance,
            infeasible: false,
        }
    }

    /// Retry prediction after `prev` was killed having exhausted the
    /// `exhausted` dimensions (§IV-A: each resource escalates
    /// independently; non-exhausted axes hold).
    ///
    /// Draws are consumed for every managed axis even in exploration mode —
    /// the doubling path discards them — matching the serial allocator's
    /// historical RNG consumption exactly.
    pub(crate) fn predict_retry_core(
        &mut self,
        ctx: &TaskContext,
        config: &AllocatorConfig,
        prev: &ResourceVector,
        exhausted: &ResourceMask,
        esc: f64,
        mut events: Option<&mut Vec<AllocEvent>>,
    ) -> AllocationDecision {
        let machine_cap = config.machine.capacity;
        let in_exploration = self.records < config.exploratory_records;
        let n = config.managed.len();
        let mut draws: Vec<f64> = Vec::with_capacity(n);
        for _ in 0..n {
            draws.push(self.rng.gen::<f64>());
        }
        let category = self.category;
        let mut alloc = *prev;
        let mut provenance = Vec::with_capacity(n);
        for (i, (kind, est)) in self.estimators.iter_mut().enumerate() {
            if !exhausted.contains(*kind) {
                provenance.push(AxisProvenance {
                    resource: *kind,
                    source: AllocSource::Held,
                    draw: None,
                    clamped: false,
                });
                continue;
            }
            let (value, source, consumed) = if in_exploration {
                (double_allocation(prev[*kind]), AllocSource::Doubling, false)
            } else {
                match est.predict_retry(ctx, prev[*kind], draws[i]) {
                    Some(p) => (p.value, p.source, true),
                    None => (double_allocation(prev[*kind]), AllocSource::Doubling, true),
                }
            };
            if let Some(buf) = events.as_deref_mut() {
                if let Some(info) = est.take_rebucket() {
                    buf.push(AllocEvent::rebucket(category, *kind, &info));
                }
            }
            let raised = (value * esc).max(prev[*kind]);
            alloc[*kind] = raised;
            provenance.push(AxisProvenance {
                resource: *kind,
                source,
                draw: if consumed { Some(draws[i]) } else { None },
                clamped: raised > machine_cap[*kind],
            });
        }
        // An exhausted axis outside the managed set has no estimator to
        // escalate it; left alone the retry would return the same allocation
        // and the engine would re-kill the task forever. Raise such axes
        // straight to machine capacity — the most any retry could grant.
        for kind in exhausted.iter() {
            if config.managed.contains(&kind) {
                continue;
            }
            let raised = machine_cap[kind].max(alloc[kind]);
            provenance.push(AxisProvenance {
                resource: kind,
                source: AllocSource::Capacity,
                draw: None,
                clamped: raised > machine_cap[kind],
            });
            alloc[kind] = raised;
        }
        let alloc = alloc.clamp_to(&machine_cap);
        // If no exhausted axis actually grew, the retry is a guaranteed
        // repeat kill (everything exhausted already sat at capacity).
        let infeasible = exhausted.any() && !exhausted.iter().any(|k| alloc[k] > prev[k]);
        if let Some(buf) = events {
            for &kind in &config.managed {
                if exhausted.contains(kind) {
                    buf.push(AllocEvent::escalate(
                        category,
                        kind,
                        prev[kind],
                        alloc[kind],
                    ));
                }
            }
            buf.push(AllocEvent::predict(
                category,
                PredictKind::Retry,
                alloc,
                provenance.clone(),
            ));
        }
        AllocationDecision {
            alloc,
            kind: PredictKind::Retry,
            provenance,
            infeasible,
        }
    }
}
