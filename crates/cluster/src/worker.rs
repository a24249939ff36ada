//! The worker thread body and the worker's data source.
//!
//! Each simulated worker machine runs `threads_per_worker` OS threads,
//! all executing [`Worker::run_thread`]: pull a task from the scheduler,
//! optionally prefetch its frontier in one batched round trip, run it on
//! a thread-local engine, accumulate metrics. Failures are structured —
//! a vertex missing from the store, a store shard that outlasts the
//! retry policy, or a panicking task aborts the whole run with a
//! [`WorkerError`] carrying the task, shard and attempt context instead
//! of failing a thread join. Injected worker crashes are *not* errors:
//! the thread books them with the run's `RecoveryCtx` and stops, and
//! the runtime re-executes the lost tasks in a recovery pass.

use crate::config::{ClusterConfig, ExecMode};
use crate::recovery::{RecoveryCtx, TaskFate};
use crate::schedule::Scheduler;
use crate::transport::{FetchError, Transport, TransportError};
use benu_cache::DbCache;
use benu_engine::{
    CollectingConsumer, CompiledPlan, CountingConsumer, DataSource, FrontierEngine, FrontierStats,
    LocalEngine, MatchConsumer, MemoryBudget, PoolStats, SearchTask, TaskMetrics,
};
use benu_graph::{AdjSet, TotalOrder, VertexId};
use benu_kvstore::{CorruptValue, KvStore};
use parking_lot::Mutex;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Renders the task context of an error: `task v3`, `task v3[2/5]`, or
/// `no task` for failures outside task execution.
struct TaskLabel(Option<SearchTask>);

impl std::fmt::Display for TaskLabel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.0 {
            Some(t) => {
                write!(f, "task v{}", t.start)?;
                if let Some(split) = t.split {
                    write!(f, "[{}/{}]", split.index + 1, split.total)?;
                }
                Ok(())
            }
            None => f.write_str("no task"),
        }
    }
}

/// Why a cluster run aborted. Every variant names the worker; task-level
/// failures additionally carry the task being executed, the shard
/// involved and the execution attempt (1 = first pass, +1 per recovery
/// pass), so a one-line log message localises the failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WorkerError {
    /// A task queried a vertex the store does not hold — the data graph
    /// and the task list disagree (corrupted load or bad task input).
    MissingVertex {
        /// The worker that issued the query.
        worker: usize,
        /// The unknown vertex.
        vertex: VertexId,
        /// The shard that would own the vertex.
        shard: usize,
        /// The task being executed, if the failure happened inside one.
        task: Option<SearchTask>,
        /// The execution attempt (1-based; >1 means a recovery pass).
        attempt: u32,
    },
    /// A store request failed past every recovery the configuration
    /// offers: transient faults outlasted the retry policy, or a
    /// persistent shard outage darkened *every* replica of a placement
    /// group. With `replication >= 2` a whole-shard outage is absorbed
    /// by ring failover and never reaches this error — only total data
    /// loss (all `R` copies dark) aborts the run.
    StoreUnavailable {
        /// The worker that gave up.
        worker: usize,
        /// The exhausted request.
        error: TransportError,
        /// The task being executed, if the failure happened inside one.
        task: Option<SearchTask>,
        /// The execution attempt (1-based).
        attempt: u32,
    },
    /// A stored adjacency value failed to decode — the shard's data is
    /// rotten. Every replica mirrors the same bytes, so neither retries
    /// nor ring failover can recover; the run aborts like any other
    /// unrecoverable store fault, with the codec error as context.
    CorruptValue {
        /// The worker whose fetch hit the rotten value.
        worker: usize,
        /// The decode failure, naming vertex, shard and codec error.
        error: CorruptValue,
        /// The task being executed, if the failure happened inside one.
        task: Option<SearchTask>,
        /// The execution attempt (1-based).
        attempt: u32,
    },
    /// A task panicked inside the engine.
    TaskPanicked {
        /// The worker executing the task.
        worker: usize,
        /// The panicking task.
        task: SearchTask,
        /// The execution attempt (1-based).
        attempt: u32,
    },
    /// A worker thread died outside of task execution.
    ThreadPanicked {
        /// The worker whose thread died.
        worker: usize,
    },
    /// Every worker crashed with work still queued — nothing is left to
    /// run the recovery pass on.
    ClusterLost {
        /// Tasks that were awaiting re-execution.
        outstanding: usize,
    },
}

impl std::fmt::Display for WorkerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkerError::MissingVertex {
                worker,
                vertex,
                shard,
                task,
                attempt,
            } => {
                write!(
                    f,
                    "worker {worker}: vertex {vertex} missing from the store \
                     (shard {shard}, {}, attempt {attempt})",
                    TaskLabel(*task)
                )
            }
            WorkerError::StoreUnavailable {
                worker,
                error,
                task,
                attempt,
            } => {
                write!(
                    f,
                    "worker {worker}: {error} ({}, attempt {attempt})",
                    TaskLabel(*task)
                )
            }
            WorkerError::CorruptValue {
                worker,
                error,
                task,
                attempt,
            } => {
                write!(
                    f,
                    "worker {worker}: {error} ({}, attempt {attempt})",
                    TaskLabel(*task)
                )
            }
            WorkerError::TaskPanicked {
                worker,
                task,
                attempt,
            } => {
                write!(
                    f,
                    "worker {worker}: {} panicked (attempt {attempt})",
                    TaskLabel(Some(*task))
                )
            }
            WorkerError::ThreadPanicked { worker } => {
                write!(f, "worker {worker}: thread panicked outside task execution")
            }
            WorkerError::ClusterLost { outstanding } => {
                write!(
                    f,
                    "every worker crashed with {outstanding} tasks outstanding"
                )
            }
        }
    }
}

impl std::error::Error for WorkerError {}

impl WorkerError {
    /// The run-aborting error for a fetch that failed while `worker`
    /// executed `task` as execution `attempt`.
    pub(crate) fn from_fetch(
        worker: usize,
        store: &KvStore,
        error: FetchError,
        task: Option<SearchTask>,
        attempt: u32,
    ) -> Self {
        match error {
            FetchError::Missing { vertex } => WorkerError::MissingVertex {
                worker,
                vertex,
                shard: store.shard_of(vertex),
                task,
                attempt,
            },
            FetchError::Unavailable(error) => WorkerError::StoreUnavailable {
                worker,
                error,
                task,
                attempt,
            },
            FetchError::Corrupt(error) => WorkerError::CorruptValue {
                worker,
                error,
                task,
                attempt,
            },
        }
    }
}

/// First-error slot shared by every thread of a run. Recording an error
/// raises the abort flag; threads poll it between tasks and bail out, so
/// one failure drains the whole cluster quickly but cleanly.
pub(crate) struct ErrorSlot {
    error: Mutex<Option<WorkerError>>,
    abort: AtomicBool,
}

impl ErrorSlot {
    pub(crate) fn new() -> Self {
        ErrorSlot {
            error: Mutex::new(None),
            abort: AtomicBool::new(false),
        }
    }

    /// Records `err` if it is the first, and raises the abort flag.
    pub(crate) fn record(&self, err: WorkerError) {
        let mut slot = self.error.lock();
        if slot.is_none() {
            *slot = Some(err);
        }
        self.abort.store(true, Ordering::Release);
    }

    /// True once any thread has failed.
    pub(crate) fn aborted(&self) -> bool {
        self.abort.load(Ordering::Acquire)
    }

    /// The first recorded error, if any.
    pub(crate) fn first(&self) -> Option<WorkerError> {
        self.error.lock().clone()
    }
}

/// The engine's view of the data graph from inside one worker machine:
/// the machine's database cache in front of its [`Transport`]. Every
/// cache miss is a counted store round trip — the paper's
/// communication-cost metric. A fetch that fails — a vertex the store
/// does not hold, a shard that outlasts the retry policy, a value that
/// fails to decode — is returned as a [`FetchError`]; the caller owns
/// the task context and decides what the failure means.
pub struct WorkerSource<'a> {
    transport: &'a Transport,
    cache: &'a DbCache,
}

impl<'a> WorkerSource<'a> {
    /// Fronts `transport` with `cache`.
    pub fn new(transport: &'a Transport, cache: &'a DbCache) -> Self {
        WorkerSource { transport, cache }
    }

    /// The transport behind the cache.
    pub fn transport(&self) -> &'a Transport {
        self.transport
    }

    /// Warms the cache for a task starting at `start`: fetches the start
    /// vertex, then pulls all its uncached neighbours in one batched
    /// round trip. Prefetched entries enter the cache without counting a
    /// miss (their later lookups count as hits); the byte accounting is
    /// exact either way. May fetch neighbours the task never expands —
    /// prefetching trades bytes for round trips.
    ///
    /// # Errors
    ///
    /// The first failed fetch, as for [`DataSource::get_adj`].
    pub(crate) fn prefetch_frontier(&self, start: VertexId) -> Result<(), FetchError> {
        let adj = self.get_adj(start)?;
        let missing: Vec<VertexId> = adj
            .iter()
            .copied()
            .filter(|&w| !self.cache.contains(w))
            .collect();
        if !missing.is_empty() {
            self.fetch_into_cache(&missing)?;
        }
        Ok(())
    }

    /// Fetches `keys` in one batched round trip per touched shard and
    /// caches every value.
    fn fetch_into_cache(&self, keys: &[VertexId]) -> Result<Vec<Arc<AdjSet>>, FetchError> {
        let values = self.transport.fetch_many(keys)?;
        keys.iter()
            .zip(values)
            .map(|(&vertex, value)| {
                let adj = value.ok_or(FetchError::Missing { vertex })?;
                self.cache.insert(vertex, Arc::clone(&adj));
                Ok(adj)
            })
            .collect()
    }
}

impl DataSource for WorkerSource<'_> {
    type Error = FetchError;

    fn num_vertices(&self) -> usize {
        self.transport.store().num_vertices()
    }

    fn get_adj(&self, v: VertexId) -> Result<Arc<AdjSet>, FetchError> {
        self.cache.get_or_fetch(v, || {
            self.transport
                .fetch(v)?
                .ok_or(FetchError::Missing { vertex: v })
        })
    }

    fn get_adj_batch(&self, vs: &[VertexId]) -> Result<Vec<Arc<AdjSet>>, FetchError> {
        let mut out: Vec<Option<Arc<AdjSet>>> = Vec::with_capacity(vs.len());
        let mut missing_slots = Vec::new();
        let mut missing_keys = Vec::new();
        for (i, &v) in vs.iter().enumerate() {
            let hit = self.cache.get(v);
            if hit.is_none() {
                missing_slots.push(i);
                missing_keys.push(v);
            }
            out.push(hit);
        }
        if !missing_keys.is_empty() {
            for (slot, adj) in missing_slots
                .into_iter()
                .zip(self.fetch_into_cache(&missing_keys)?)
            {
                out[slot] = Some(adj);
            }
        }
        Ok(out
            .into_iter()
            .map(|slot| slot.expect("every slot filled"))
            .collect())
    }
}

/// What one thread accumulated over its share of the run.
pub struct ThreadResult {
    pub(crate) metrics: TaskMetrics,
    pub(crate) busy: Duration,
    pub(crate) executed: usize,
    pub(crate) task_times: Vec<Duration>,
    /// Per-task durations with task identity; only recorded when
    /// straggler speculation is configured.
    pub(crate) timed_tasks: Vec<(SearchTask, Duration)>,
    /// Per-task deterministic costs (vticks) with task identity; only
    /// recorded when the cost profile is being collected, and only under
    /// DFS execution (the hybrid engine reports batch-level metrics).
    pub(crate) task_costs: Vec<(SearchTask, u64)>,
    pub(crate) tri_stats: benu_cache::CacheStats,
    pub(crate) pool: PoolStats,
    pub(crate) frontier: FrontierStats,
    pub(crate) matches: Option<Vec<Vec<VertexId>>>,
}

impl ThreadResult {
    fn empty() -> Self {
        ThreadResult {
            metrics: TaskMetrics::default(),
            busy: Duration::ZERO,
            executed: 0,
            task_times: Vec::new(),
            timed_tasks: Vec::new(),
            task_costs: Vec::new(),
            tri_stats: benu_cache::CacheStats::default(),
            pool: PoolStats::default(),
            frontier: FrontierStats::default(),
            matches: None,
        }
    }
}

/// Tasks pulled per hybrid batch: enough siblings to share hub fetches,
/// small enough that a crash loses little booked work.
const FRONTIER_TASK_BATCH: usize = 64;

/// One worker machine's execution context, shared by its threads.
pub struct Worker<'a> {
    pub(crate) id: usize,
    pub(crate) scheduler: &'a dyn Scheduler,
    pub(crate) transport: &'a Transport,
    pub(crate) cache: &'a DbCache,
    pub(crate) order: &'a TotalOrder,
    pub(crate) compiled: &'a CompiledPlan,
    pub(crate) config: &'a ClusterConfig,
    pub(crate) errors: &'a ErrorSlot,
    /// Crash bookkeeping; `None` when no fault plan is installed.
    pub(crate) recovery: Option<&'a RecoveryCtx>,
    /// Execution attempt this pass runs as (1 = first pass).
    pub(crate) attempt: u32,
}

impl<'a> Worker<'a> {
    /// The thread body: pulls tasks from the scheduler until exhaustion,
    /// abort, or an injected crash of this worker. `collect` switches
    /// from counting to materialising matches. Task durations include
    /// the virtual latency (retry backoff, slow shards) their store
    /// traffic was charged.
    pub fn run_thread(&self, collect: bool) -> Result<ThreadResult, WorkerError> {
        match self.config.exec_mode {
            ExecMode::Dfs => self.run_thread_dfs(collect),
            ExecMode::Hybrid => self.run_thread_hybrid(collect),
        }
    }

    /// A thread-local engine over `source`, configured per the run.
    fn engine<'s>(&self, source: &'s WorkerSource<'a>) -> LocalEngine<'s, WorkerSource<'a>> {
        LocalEngine::with_triangle_cache(
            self.compiled,
            source,
            self.order,
            self.config.triangle_cache_entries,
        )
        .with_pooling(self.config.pooled_buffers)
    }

    /// Records `err` as this run's failure (first error wins) and
    /// returns it.
    fn fail(&self, err: WorkerError) -> WorkerError {
        self.errors.record(err.clone());
        err
    }

    /// [`Worker::fail`] for a fetch that failed while running `task`.
    fn fail_fetch(&self, error: FetchError, task: SearchTask) -> WorkerError {
        self.fail(WorkerError::from_fetch(
            self.id,
            self.transport.store(),
            error,
            Some(task),
            self.attempt,
        ))
    }

    /// Classic task-at-a-time DFS (the paper's execution model).
    fn run_thread_dfs(&self, collect: bool) -> Result<ThreadResult, WorkerError> {
        let source = WorkerSource::new(self.transport, self.cache);
        let mut engine = self.engine(&source);
        let mut counting = CountingConsumer;
        let mut collecting = CollectingConsumer::default();
        let mut result = ThreadResult::empty();
        let prefetch = self.config.prefetch_frontier && self.config.cache_capacity_bytes > 0;
        let record_timed = self.config.speculate_quantile.is_some();
        let _ = Transport::take_task_penalty();
        while !self.errors.aborted() {
            if self.recovery.is_some_and(|rc| rc.is_dead(self.id)) {
                break;
            }
            let Some(task) = self.scheduler.next(self.id) else {
                break;
            };
            if prefetch {
                if let Err(error) = source.prefetch_frontier(task.start) {
                    return Err(self.fail_fetch(error, task));
                }
            }
            let t0 = Instant::now();
            let run = catch_unwind(AssertUnwindSafe(|| {
                let consumer: &mut dyn MatchConsumer = if collect {
                    &mut collecting
                } else {
                    &mut counting
                };
                engine.try_run_task(task, consumer)
            }));
            let dt = t0.elapsed() + Transport::take_task_penalty();
            match run {
                Ok(Ok(metrics)) => {
                    result.metrics += metrics;
                    result.executed += 1;
                    if self.config.collect_cost_profile {
                        result
                            .task_costs
                            .push((task, crate::balance::vticks(&metrics)));
                    }
                }
                Ok(Err(error)) => return Err(self.fail_fetch(error, task)),
                Err(_) => {
                    return Err(self.fail(WorkerError::TaskPanicked {
                        worker: self.id,
                        task,
                        attempt: self.attempt,
                    }));
                }
            }
            result.busy += dt;
            if self.config.collect_task_times {
                result.task_times.push(dt);
            }
            if record_timed {
                result.timed_tasks.push((task, dt));
            }
            if let Some(rc) = self.recovery {
                match rc.task_done(self.id, task) {
                    TaskFate::Counted => {}
                    TaskFate::Crashed => {
                        // The machine dies at this task boundary: its
                        // queue goes down with it.
                        rc.requeue_all(self.scheduler.drain(self.id));
                        break;
                    }
                    TaskFate::Lost => break,
                }
            }
        }
        result.tri_stats = engine.triangle_cache_stats();
        result.pool = engine.pool_stats();
        if collect {
            result.matches = Some(collecting.into_matches());
        }
        // Another thread may have failed while this one drained cleanly:
        // surface that error so the run aborts deterministically.
        match self.errors.first() {
            Some(err) => Err(err),
            None => Ok(result),
        }
    }

    /// Memory-bounded BFS/DFS hybrid: pulls tasks in batches and expands
    /// them level-synchronously through a [`FrontierEngine`], so sibling
    /// tasks share one deduplicated batched store read per expansion
    /// level. The per-worker byte budget is split evenly across the
    /// worker's threads; exceeding it makes the frontier spill back to
    /// DFS at the current batch, which always runs to completion — crash
    /// recovery requeues whole tasks, and spills land on task boundaries.
    fn run_thread_hybrid(&self, collect: bool) -> Result<ThreadResult, WorkerError> {
        let source = WorkerSource::new(self.transport, self.cache);
        let per_thread = self.config.memory_budget_bytes / self.config.threads_per_worker.max(1);
        let mut fe = FrontierEngine::new(self.engine(&source), MemoryBudget::bytes(per_thread));
        let mut counting = CountingConsumer;
        let mut collecting = CollectingConsumer::default();
        let mut result = ThreadResult::empty();
        let record_timed = self.config.speculate_quantile.is_some();
        let _ = Transport::take_task_penalty();
        'batches: while !self.errors.aborted() {
            if self.recovery.is_some_and(|rc| rc.is_dead(self.id)) {
                break;
            }
            let mut batch = Vec::new();
            while batch.len() < FRONTIER_TASK_BATCH {
                match self.scheduler.next(self.id) {
                    Some(task) => batch.push(task),
                    None => break,
                }
            }
            if batch.is_empty() {
                break;
            }
            let t0 = Instant::now();
            let run = catch_unwind(AssertUnwindSafe(|| {
                let consumer: &mut dyn MatchConsumer = if collect {
                    &mut collecting
                } else {
                    &mut counting
                };
                fe.try_run_batch(&batch, consumer)
            }));
            let dt = t0.elapsed() + Transport::take_task_penalty();
            // Errors name the batch head; the batch shares its store
            // traffic, so a finer attribution does not exist.
            match run {
                Ok(Ok(metrics)) => {
                    result.metrics += metrics;
                    result.executed += batch.len();
                }
                Ok(Err(error)) => return Err(self.fail_fetch(error, batch[0])),
                Err(_) => {
                    return Err(self.fail(WorkerError::TaskPanicked {
                        worker: self.id,
                        task: batch[0],
                        attempt: self.attempt,
                    }));
                }
            }
            result.busy += dt;
            let share = dt / batch.len() as u32;
            if self.config.collect_task_times {
                result.task_times.extend(batch.iter().map(|_| share));
            }
            if record_timed {
                result.timed_tasks.extend(batch.iter().map(|&t| (t, share)));
            }
            if let Some(rc) = self.recovery {
                // Book the whole completed batch in pull order. A crash
                // boundary inside it kills the machine: `task_done`
                // requeues everything booked so far, and the rest of the
                // batch — executed but never booked — must be requeued
                // here (the dead worker's results are discarded
                // wholesale, so nothing double-counts).
                for (i, &task) in batch.iter().enumerate() {
                    match rc.task_done(self.id, task) {
                        TaskFate::Counted => {}
                        TaskFate::Crashed => {
                            rc.requeue_all(batch[i + 1..].to_vec());
                            rc.requeue_all(self.scheduler.drain(self.id));
                            break 'batches;
                        }
                        TaskFate::Lost => {
                            rc.requeue_all(batch[i + 1..].to_vec());
                            break 'batches;
                        }
                    }
                }
            }
        }
        result.tri_stats = fe.triangle_cache_stats();
        result.pool = fe.pool_stats();
        result.frontier = fe.stats();
        if collect {
            result.matches = Some(collecting.into_matches());
        }
        match self.errors.first() {
            Some(err) => Err(err),
            None => Ok(result),
        }
    }

    /// Executes one task speculatively: same engine, throwaway consumer,
    /// result discarded. Returns the attempt's duration (wall time plus
    /// charged virtual latency), or `None` if the attempt panicked or a
    /// fetch failed. Nothing is recorded in the run's error slot, so a
    /// failed speculative attempt never fails the completed run.
    pub(crate) fn run_speculative(&self, task: SearchTask) -> Option<Duration> {
        let source = WorkerSource::new(self.transport, self.cache);
        let mut engine = self.engine(&source);
        let mut consumer = CountingConsumer;
        let _ = Transport::take_task_penalty();
        let t0 = Instant::now();
        let run = catch_unwind(AssertUnwindSafe(|| {
            engine.try_run_task(task, &mut consumer)
        }));
        let dt = t0.elapsed() + Transport::take_task_penalty();
        matches!(run, Ok(Ok(_))).then_some(dt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use benu_engine::SplitSpec;
    use benu_graph::gen;

    fn harness(shards: usize) -> (Transport, DbCache) {
        let g = gen::complete(5);
        (
            Transport::new(Arc::new(KvStore::from_graph(&g, shards))),
            DbCache::new(1 << 16, 2),
        )
    }

    #[test]
    fn missing_vertex_returns_a_structured_error() {
        let (transport, cache) = harness(2);
        let source = WorkerSource::new(&transport, &cache);
        let err = source.get_adj(99).unwrap_err();
        assert_eq!(err, FetchError::Missing { vertex: 99 });
        assert_eq!(
            WorkerError::from_fetch(3, transport.store(), err, None, 1),
            WorkerError::MissingVertex {
                worker: 3,
                vertex: 99,
                shard: 1,
                task: None,
                attempt: 1,
            }
        );
    }

    #[test]
    fn missing_vertex_fails_single_and_batched_lookups_alike() {
        let g = gen::complete(6);
        let mut store = KvStore::from_graph(&g, 3);
        assert!(store.remove_vertex(4), "corrupt the store");
        let transport = Transport::new(Arc::new(store));
        let cache = DbCache::new(1 << 16, 2);
        let source = WorkerSource::new(&transport, &cache);
        assert_eq!(source.get_adj(4), Err(FetchError::Missing { vertex: 4 }));
        assert_eq!(
            source.get_adj_batch(&[0, 4, 5]),
            Err(FetchError::Missing { vertex: 4 })
        );
        assert_eq!(source.get_adj(5).unwrap().as_slice(), g.neighbors(5));
    }

    #[test]
    fn fetch_errors_carry_the_task_context() {
        let (transport, _) = harness(2);
        let task = SearchTask {
            start: 3,
            split: Some(SplitSpec { index: 1, total: 5 }),
        };
        let err = WorkerError::from_fetch(
            0,
            transport.store(),
            FetchError::Missing { vertex: 42 },
            Some(task),
            2,
        );
        match err {
            WorkerError::MissingVertex {
                task: t, attempt, ..
            } => {
                assert_eq!(t, Some(task));
                assert_eq!(attempt, 2);
            }
            other => panic!("expected MissingVertex, got {other:?}"),
        }
    }

    #[test]
    fn error_slot_keeps_the_first_error() {
        let slot = ErrorSlot::new();
        assert!(!slot.aborted());
        slot.record(WorkerError::ThreadPanicked { worker: 1 });
        slot.record(WorkerError::ThreadPanicked { worker: 2 });
        assert_eq!(
            slot.first(),
            Some(WorkerError::ThreadPanicked { worker: 1 })
        );
    }

    #[test]
    fn batch_lookup_serves_cache_hits_without_round_trips() {
        let (transport, cache) = harness(2);
        let source = WorkerSource::new(&transport, &cache);
        source.get_adj(0).unwrap();
        let before = transport.requests();
        let sets = source.get_adj_batch(&[0, 1, 2]).unwrap();
        assert_eq!(sets.len(), 3);
        assert_eq!(sets[0].len(), 4);
        // Vertex 0 was cached; 1 and 2 arrive via one batched trip each
        // shard (1 on shard 1, 2 on shard 0 → 2 round trips).
        assert_eq!(transport.requests() - before, 2);
        assert_eq!(transport.batch_round_trips(), 2);
    }

    #[test]
    fn prefetch_warms_the_cache_in_one_batched_trip() {
        let (transport, cache) = harness(1);
        let source = WorkerSource::new(&transport, &cache);
        source.prefetch_frontier(0).unwrap();
        // Start vertex + its 4 neighbours are now cached.
        for v in 0..5 {
            assert!(cache.contains(v));
        }
        // 1 single fetch for the start + 1 batched trip (single shard).
        assert_eq!(transport.requests(), 2);
        assert_eq!(transport.batch_round_trips(), 1);
        // Re-prefetching is free.
        source.prefetch_frontier(0).unwrap();
        assert_eq!(transport.requests(), 2);
    }

    #[test]
    fn exhausted_store_returns_unavailable_with_context() {
        use benu_fault::{FaultPlan, RetryPolicy};
        let g = gen::complete(5);
        let transport = Transport::with_faults(
            Arc::new(KvStore::from_graph(&g, 1)),
            Arc::new(FaultPlan::builder(0).transient_rate(0.995).build()),
            RetryPolicy {
                max_attempts: 2,
                ..RetryPolicy::default()
            },
        );
        let cache = DbCache::new(0, 2);
        let source = WorkerSource::new(&transport, &cache);
        let err = (0..5)
            .find_map(|v| source.get_adj(v).err())
            .expect("rate 0.995 with 2 attempts must exhaust");
        match WorkerError::from_fetch(1, transport.store(), err, Some(SearchTask::whole(4)), 1) {
            WorkerError::StoreUnavailable {
                worker,
                error,
                task,
                ..
            } => {
                assert_eq!(worker, 1);
                assert_eq!(error.attempts, 2);
                assert_eq!(task, Some(SearchTask::whole(4)));
            }
            other => panic!("expected StoreUnavailable, got {other:?}"),
        }
        let _ = Transport::take_task_penalty();
    }

    #[test]
    fn worker_error_displays_context() {
        let e = WorkerError::MissingVertex {
            worker: 2,
            vertex: 7,
            shard: 1,
            task: Some(SearchTask::whole(7)),
            attempt: 1,
        };
        assert_eq!(
            e.to_string(),
            "worker 2: vertex 7 missing from the store (shard 1, task v7, attempt 1)"
        );
        let e = WorkerError::TaskPanicked {
            worker: 0,
            task: SearchTask {
                start: 3,
                split: Some(SplitSpec { index: 1, total: 5 }),
            },
            attempt: 2,
        };
        assert_eq!(e.to_string(), "worker 0: task v3[2/5] panicked (attempt 2)");
        let e = WorkerError::StoreUnavailable {
            worker: 4,
            error: TransportError {
                shard: 3,
                vertex: 9,
                attempts: 8,
            },
            task: None,
            attempt: 1,
        };
        assert_eq!(
            e.to_string(),
            "worker 4: shard 3 unavailable for vertex 9 after 8 attempts (no task, attempt 1)"
        );
        let e = WorkerError::CorruptValue {
            worker: 1,
            error: CorruptValue {
                vertex: 5,
                shard: 2,
                error: benu_kvstore::CodecError::Truncated,
            },
            task: Some(SearchTask::whole(5)),
            attempt: 1,
        };
        assert_eq!(
            e.to_string(),
            "worker 1: corrupt value for vertex 5 on shard 2: truncated payload \
             (task v5, attempt 1)"
        );
        let e = WorkerError::ClusterLost { outstanding: 12 };
        assert_eq!(
            e.to_string(),
            "every worker crashed with 12 tasks outstanding"
        );
    }

    #[test]
    fn corrupt_value_returns_a_structured_error() {
        let g = gen::complete(5);
        let mut store = KvStore::from_graph(&g, 2);
        assert!(store.corrupt_value(2));
        let transport = Transport::new(Arc::new(store));
        let cache = DbCache::new(1 << 16, 2);
        let source = WorkerSource::new(&transport, &cache);
        let err = source.get_adj(2).unwrap_err();
        match WorkerError::from_fetch(4, transport.store(), err, Some(SearchTask::whole(2)), 1) {
            WorkerError::CorruptValue {
                worker,
                error,
                task,
                attempt,
            } => {
                assert_eq!(worker, 4);
                assert_eq!(error.vertex, 2);
                assert_eq!(task, Some(SearchTask::whole(2)));
                assert_eq!(attempt, 1);
            }
            other => panic!("expected CorruptValue, got {other:?}"),
        }
    }

    #[test]
    fn worker_source_counts_misses_only() {
        let g = gen::complete(5);
        let store = Arc::new(KvStore::from_graph(&g, 2));
        let transport = Transport::new(Arc::clone(&store));
        let cache = DbCache::new(1 << 16, 2);
        let src = WorkerSource::new(&transport, &cache);
        for _ in 0..3 {
            src.get_adj(0).unwrap();
        }
        assert_eq!(store.stats().requests, 1, "two hits served by the cache");
        assert_eq!(cache.stats().hits, 2);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn worker_source_batch_groups_round_trips_and_warms_the_cache() {
        let g = gen::complete(6);
        let store = Arc::new(KvStore::from_graph(&g, 3));
        let transport = Transport::new(Arc::clone(&store));
        let cache = DbCache::new(1 << 16, 2);
        let src = WorkerSource::new(&transport, &cache);
        let all: Vec<VertexId> = g.vertices().collect();
        let sets = src.get_adj_batch(&all).unwrap();
        for (&v, adj) in all.iter().zip(&sets) {
            assert_eq!(adj.as_slice(), g.neighbors(v));
        }
        let cold = store.stats();
        assert_eq!(cold.requests, 3, "one round trip per touched shard");
        assert_eq!(cold.keys, 6);
        // A second batch is fully served by the cache.
        src.get_adj_batch(&all).unwrap();
        assert_eq!(store.stats().requests, cold.requests);
    }

    #[test]
    fn worker_source_batch_with_repeated_ids_stays_aligned_and_dedups() {
        let g = gen::complete(6);
        let store = Arc::new(KvStore::from_graph(&g, 3));
        let transport = Transport::new(Arc::clone(&store));
        // Cache disabled: every occurrence reaches the store's batch path.
        let cache = DbCache::new(0, 1);
        let src = WorkerSource::new(&transport, &cache);
        let keys = [5u32, 2, 5, 5, 2, 0];
        let sets = src.get_adj_batch(&keys).unwrap();
        for (i, &v) in keys.iter().enumerate() {
            assert_eq!(
                sets[i].as_slice(),
                g.neighbors(v),
                "slot {i} must still hold vertex {v}"
            );
        }
        let stats = store.stats();
        assert_eq!(stats.keys, 3, "hub repeats are served once");
        assert_eq!(stats.deduped_keys, 3, "saved lookups are counted");
    }

    #[test]
    fn worker_source_with_disabled_cache_hits_store_every_time() {
        let g = gen::complete(4);
        let store = Arc::new(KvStore::from_graph(&g, 1));
        let transport = Transport::new(Arc::clone(&store));
        let cache = DbCache::new(0, 1);
        let src = WorkerSource::new(&transport, &cache);
        src.get_adj(1).unwrap();
        src.get_adj(1).unwrap();
        assert_eq!(store.stats().requests, 2);
    }

    #[test]
    fn frontier_batches_cut_store_round_trips() {
        use benu_pattern::queries;
        use benu_plan::PlanBuilder;
        let g = gen::barabasi_albert(150, 4, 3);
        let plan = PlanBuilder::new(&queries::q5()).best_plan();
        let compiled = CompiledPlan::compile(&plan);
        let order = TotalOrder::new(&g);
        let tasks = benu_engine::task::generate_tasks(&g, 0, compiled.second_adjacent);

        let dfs_store = Arc::new(KvStore::from_graph(&g, 4));
        let dfs_transport = Transport::new(Arc::clone(&dfs_store));
        let dfs_cache = DbCache::new(0, 1);
        let dfs_src = WorkerSource::new(&dfs_transport, &dfs_cache);
        let mut dfs = LocalEngine::new(&compiled, &dfs_src, &order);
        let mut cd = CountingConsumer;
        let mut dm = TaskMetrics::default();
        for &t in &tasks {
            dm += dfs.try_run_task(t, &mut cd).unwrap();
        }

        let fr_store = Arc::new(KvStore::from_graph(&g, 4));
        let fr_transport = Transport::new(Arc::clone(&fr_store));
        let fr_cache = DbCache::new(0, 1);
        let fr_src = WorkerSource::new(&fr_transport, &fr_cache);
        let engine = LocalEngine::new(&compiled, &fr_src, &order);
        let mut fe = FrontierEngine::new(engine, MemoryBudget::unbounded());
        let mut cf = CountingConsumer;
        let fm = fe.try_run_batch(&tasks, &mut cf).unwrap();

        assert_eq!(fm, dm, "kv-backed frontier diverges from DFS");
        let (d, f) = (dfs_store.stats(), fr_store.stats());
        assert!(
            f.requests < d.requests / 4,
            "batching should collapse round trips: dfs {} vs frontier {}",
            d.requests,
            f.requests
        );
        assert!(
            f.keys <= d.keys,
            "deduplicated levels fetch no more keys than DFS"
        );
    }
}
