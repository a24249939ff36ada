//! The fault-injecting [`DataSource`] decorator.
//!
//! [`FaultingDataSource`] wraps any engine data source and replays the
//! fault plan *at the source boundary*, retrying internally with the
//! policy's capped backoff. Because [`DataSource`] is infallible by
//! contract, recovery happens inside the decorator; the engine above it
//! runs completely unmodified — which is exactly the idempotency argument
//! the cluster's task-level recovery rests on, exercised at engine scope.

use crate::plan::FaultPlan;
use crate::retry::RetryPolicy;
use benu_engine::DataSource;
use benu_graph::{AdjSet, VertexId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A [`DataSource`] with a [`FaultPlan`] and internal retry in front of
/// it.
pub struct FaultingDataSource<S> {
    inner: S,
    plan: Arc<FaultPlan>,
    shards: usize,
    policy: RetryPolicy,
    faults: AtomicU64,
    retries: AtomicU64,
    backoff_nanos: AtomicU64,
}

impl<S: DataSource> FaultingDataSource<S> {
    /// Wraps `inner`, mapping vertices onto `shards` fault domains by id
    /// (mirroring the store's round-robin sharding).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or the policy is invalid.
    pub fn new(inner: S, plan: Arc<FaultPlan>, shards: usize, policy: RetryPolicy) -> Self {
        assert!(shards >= 1, "need at least one fault domain");
        policy.validate();
        FaultingDataSource {
            inner,
            plan,
            shards,
            policy,
            faults: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            backoff_nanos: AtomicU64::new(0),
        }
    }

    /// The wrapped source.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Faults injected so far.
    pub fn faults(&self) -> u64 {
        self.faults.load(Ordering::Relaxed)
    }

    /// Retries issued so far.
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Total virtual backoff accumulated by the internal retries.
    pub fn virtual_backoff(&self) -> Duration {
        Duration::from_nanos(self.backoff_nanos.load(Ordering::Relaxed))
    }

    /// Runs the retry loop for `v`; returns once an attempt is clean.
    ///
    /// # Panics
    ///
    /// Panics if every attempt faults (the infallible [`DataSource`]
    /// contract leaves no error channel; at any rate < 1 this needs
    /// `max_attempts` consecutive independent faults).
    fn admit(&self, v: VertexId) {
        let shard = v as usize % self.shards;
        for attempt in 0..self.policy.max_attempts {
            if self.plan.fault_for(shard, v as u64, attempt).is_none() {
                return;
            }
            self.faults.fetch_add(1, Ordering::Relaxed);
            if attempt + 1 >= self.policy.max_attempts {
                panic!(
                    "shard {shard} unavailable for vertex {v}: {} attempts exhausted",
                    self.policy.max_attempts
                );
            }
            self.retries.fetch_add(1, Ordering::Relaxed);
            let wait = self.policy.backoff(self.plan.seed(), v as u64, attempt + 1);
            self.backoff_nanos
                .fetch_add(wait.as_nanos() as u64, Ordering::Relaxed);
        }
    }
}

impl<S: DataSource> DataSource for FaultingDataSource<S> {
    fn num_vertices(&self) -> usize {
        self.inner.num_vertices()
    }

    fn get_adj(&self, v: VertexId) -> Arc<AdjSet> {
        self.admit(v);
        self.inner.get_adj(v)
    }

    fn get_adj_batch(&self, vs: &[VertexId]) -> Vec<Arc<AdjSet>> {
        for &v in vs {
            self.admit(v);
        }
        self.inner.get_adj_batch(vs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use benu_engine::InMemorySource;
    use benu_graph::gen;

    fn source(rate: f64, seed: u64) -> FaultingDataSource<InMemorySource> {
        let g = gen::complete(6);
        FaultingDataSource::new(
            InMemorySource::from_graph(&g),
            Arc::new(FaultPlan::builder(seed).transient_rate(rate).build()),
            4,
            RetryPolicy::default(),
        )
    }

    #[test]
    fn faulty_source_still_answers_correctly() {
        let src = source(0.4, 9);
        for v in 0..6u32 {
            assert_eq!(src.get_adj(v).len(), 5);
        }
        assert!(src.faults() > 0, "rate 0.4 over 6 gets must fault");
        assert_eq!(src.retries(), src.faults(), "every fault was retried");
        assert!(src.virtual_backoff() > Duration::ZERO);
    }

    #[test]
    fn engine_counts_are_fault_invariant() {
        use benu_engine::{CompiledPlan, CountingConsumer, LocalEngine};
        use benu_pattern::queries;
        use benu_plan::PlanBuilder;
        let g = gen::erdos_renyi_gnm(30, 90, 4);
        let plan = PlanBuilder::new(&queries::triangle()).best_plan();
        let clean = benu_engine::count_embeddings(&plan, &g);
        let src = FaultingDataSource::new(
            InMemorySource::from_graph(&g),
            Arc::new(FaultPlan::builder(17).transient_rate(0.2).build()),
            4,
            RetryPolicy::default(),
        );
        let compiled = CompiledPlan::compile(&plan);
        let order = benu_graph::TotalOrder::new(&g);
        let mut engine = LocalEngine::new(&compiled, &src, &order);
        let mut consumer = CountingConsumer;
        let got = engine.run_all_vertices(&mut consumer).matches;
        assert_eq!(got, clean, "fault injection must not change results");
        assert!(src.faults() > 0);
    }

    #[test]
    fn benign_plan_never_retries() {
        let src = source(0.0, 0);
        for v in 0..6u32 {
            src.get_adj(v);
        }
        assert_eq!(src.faults(), 0);
        assert_eq!(src.retries(), 0);
    }

    #[test]
    #[should_panic(expected = "attempts exhausted")]
    fn certain_faults_exhaust_attempts() {
        let g = gen::complete(3);
        let src = FaultingDataSource::new(
            InMemorySource::from_graph(&g),
            Arc::new(FaultPlan::builder(0).transient_rate(0.999).build()),
            1,
            RetryPolicy {
                max_attempts: 2,
                ..RetryPolicy::default()
            },
        );
        for v in 0..3u32 {
            src.get_adj(v);
        }
    }
}
