//! Shadow allocators for the traced serve run: exact decision counts for the
//! daemon's allocators, taken from outside the session.

use std::collections::HashMap;

use tora::prelude::*;
use tora::serve::{Grant, Request, Response, WireVector};

use crate::spans::LayerCounts;

/// Per-tenant allocators fed the same allocator calls the daemon makes, with
/// a counting sink attached: exact decision counts for the daemon's
/// allocators, taken from outside the session. Every grant and advisory
/// prediction the daemon answers is compared with the shadow's own; the
/// first disagreement is reported beside the counts (which it makes
/// approximate), but it does not fail the run: how the daemon maps requests
/// to allocator calls is its own business and may change.
pub struct Shadow {
    allocs: Vec<Allocator<LayerCounts>>,
    /// Per tenant: task → (context, allocation the daemon books for it).
    booked: Vec<HashMap<u64, (TaskContext, ResourceVector)>>,
    threads: usize,
    /// The first disagreement with the daemon, if any.
    pub mismatch: Option<String>,
}

impl Shadow {
    /// One shadow allocator per tenant, built as the daemon builds it.
    pub fn new(tenants: &[(AlgorithmKind, u64)]) -> Self {
        Shadow {
            allocs: tenants
                .iter()
                .map(|&(algorithm, seed)| {
                    Allocator::builder(algorithm)
                        .seed(seed)
                        .sink(LayerCounts::default())
                })
                .collect(),
            booked: tenants.iter().map(|_| HashMap::new()).collect(),
            threads: tora::alloc::par::detected_threads(),
            mismatch: None,
        }
    }

    fn differ(&mut self, what: String) {
        self.mismatch.get_or_insert(what);
    }

    /// Check a grant against the allocation the shadow predicted.
    pub fn grant(&mut self, ti: usize, g: &Grant) {
        let booked = self.booked[ti].get(&g.task).map(|b| WireVector::from(b.1));
        if booked != Some(g.alloc) {
            self.differ(format!(
                "grant for task {} books {:?}, shadow {booked:?}",
                g.task, g.alloc
            ));
        }
    }

    /// Apply the allocator calls the daemon makes for `request`.
    pub fn mirror(&mut self, ti: usize, request: &Request, response: &Response) {
        let threads = self.threads;
        let alloc = &mut self.allocs[ti];
        match request {
            Request::Submit {
                task,
                category,
                input_signal,
                depth,
                ..
            } => {
                let features = TaskFeatures::with_input_signal(*input_signal).at_depth(*depth);
                let ctx = TaskContext::new(CategoryId(*category), features);
                let decision = &alloc.predict_first_batch(&[ctx], threads)[0];
                self.booked[ti].insert(*task, (ctx, decision.alloc));
            }
            Request::Complete {
                task,
                cores,
                memory_mb,
                disk_mb,
                duration_s,
                ..
            } => {
                let Some((ctx, _)) = self.booked[ti].remove(task) else {
                    return self.differ(format!("completion of unbooked task {task}"));
                };
                let peak = ResourceVector::new(*cores, *memory_mb, *disk_mb);
                let spec = TaskSpec::new(*task, ctx.category.0, peak, *duration_s)
                    .with_features(ctx.features);
                alloc.observe(&ResourceRecord::from_task(&spec));
                alloc.observe_outcome(ctx.category, AttemptFeedback::Success, None);
            }
            Request::Fault {
                task,
                kind,
                exhausted,
                ..
            } => {
                let Some(&(ctx, prev)) = self.booked[ti].get(task) else {
                    return self.differ(format!("fault of unbooked task {task}"));
                };
                let (feedback, mask) = if kind == "crash" {
                    (AttemptFeedback::Crash, ResourceMask::NONE)
                } else {
                    let mut mask = ResourceMask::NONE;
                    for k in ResourceKind::ALL
                        .into_iter()
                        .filter(|k| exhausted.iter().any(|l| l == k.label()))
                    {
                        mask.set(k, true);
                    }
                    (AttemptFeedback::Exhaustion, mask)
                };
                alloc.observe_outcome(ctx.category, feedback, None);
                if mask.any() {
                    let decision = alloc.predict_retry(ctx, &prev, &mask);
                    if decision.infeasible {
                        self.booked[ti].remove(task);
                    } else {
                        self.booked[ti].insert(*task, (ctx, decision.alloc));
                    }
                }
            }
            Request::Predict { categories, .. } => {
                let contexts: Vec<TaskContext> = categories
                    .iter()
                    .map(|&c| TaskContext::from(CategoryId(c)))
                    .collect();
                let ours = alloc.predict_first_batch(&contexts, threads);
                if let Response::Predictions { predictions, .. } = response {
                    let same = predictions.len() == ours.len()
                        && predictions
                            .iter()
                            .zip(&ours)
                            .all(|(p, d)| p.alloc == WireVector::from(d.alloc));
                    if !same {
                        self.differ(format!("Predict {categories:?} answered differently"));
                    }
                }
            }
            _ => {}
        }
    }

    /// Decision counts summed over the tenants.
    pub fn counts(&self) -> LayerCounts {
        let mut total = LayerCounts::default();
        for a in &self.allocs {
            total.add(a.sink());
        }
        total
    }
}
