//! The fallible `DataSource` contract: a failed lookup ends the task (or
//! the frontier batch) at that fetch, comes back as the error value, and
//! leaves the engine reusable — its next clean run reports exactly what
//! a fresh engine reports.

use benu_engine::task::generate_tasks;
use benu_engine::{
    CompiledPlan, CountingConsumer, DataSource, FrontierEngine, InMemorySource, LocalEngine,
    MemoryBudget, SearchTask, TaskMetrics,
};
use benu_graph::{gen, AdjSet, Graph, TotalOrder, VertexId};
use benu_pattern::queries;
use benu_plan::PlanBuilder;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// The error of [`FailOnce`]: the refused vertex.
#[derive(Debug, PartialEq, Eq)]
struct Refused(VertexId);

/// An in-memory source that refuses the first lookup of one chosen
/// vertex and logs every lookup it is asked for.
struct FailOnce {
    inner: InMemorySource,
    bad: VertexId,
    armed: AtomicBool,
    log: Mutex<Vec<VertexId>>,
}

impl FailOnce {
    fn new(g: &Graph, bad: VertexId) -> Self {
        FailOnce {
            inner: InMemorySource::from_graph(g),
            bad,
            armed: AtomicBool::new(true),
            log: Mutex::new(Vec::new()),
        }
    }

    fn take_log(&self) -> Vec<VertexId> {
        std::mem::take(&mut self.log.lock().unwrap())
    }
}

impl DataSource for FailOnce {
    type Error = Refused;

    fn num_vertices(&self) -> usize {
        self.inner.num_vertices()
    }

    fn get_adj(&self, v: VertexId) -> Result<Arc<AdjSet>, Refused> {
        self.log.lock().unwrap().push(v);
        if v == self.bad && self.armed.swap(false, Ordering::Relaxed) {
            return Err(Refused(v));
        }
        let Ok(adj) = self.inner.get_adj(v);
        Ok(adj)
    }
}

/// A graph, the q5 plan over it, and its total order.
struct Setup {
    g: Graph,
    compiled: CompiledPlan,
    order: TotalOrder,
}

fn setup() -> Setup {
    let g = gen::barabasi_albert(80, 4, 21);
    let compiled = CompiledPlan::compile(&PlanBuilder::new(&queries::q5()).best_plan());
    let order = TotalOrder::new(&g);
    Setup { g, compiled, order }
}

/// The lookups a clean DFS run of `task` issues, with its metrics.
fn clean_dfs(s: &Setup, task: SearchTask) -> (Vec<VertexId>, TaskMetrics) {
    let source = FailOnce::new(&s.g, VertexId::MAX);
    let mut engine = LocalEngine::new(&s.compiled, &source, &s.order);
    let metrics = engine.try_run_task(task, &mut CountingConsumer).unwrap();
    (source.take_log(), metrics)
}

/// The vertex whose first lookup in `log` comes last, and the index of
/// that lookup: failing it stops a run as late as a failure can.
fn pick_bad(log: &[VertexId]) -> (VertexId, usize) {
    let first = (0..log.len())
        .rev()
        .find(|&i| !log[..i].contains(&log[i]))
        .unwrap();
    assert!(first > 0, "the run must fetch more than one vertex");
    (log[first], first)
}

/// The unsplit task with the most lookups.
fn busiest_task(s: &Setup) -> SearchTask {
    s.g.vertices()
        .map(SearchTask::whole)
        .max_by_key(|&t| clean_dfs(s, t).0.len())
        .unwrap()
}

#[test]
fn try_run_task_returns_the_error_and_stops_fetching() {
    let s = setup();
    let task = busiest_task(&s);
    let (clean_log, _) = clean_dfs(&s, task);
    let (bad, first) = pick_bad(&clean_log);

    let source = FailOnce::new(&s.g, bad);
    let mut engine = LocalEngine::new(&s.compiled, &source, &s.order);
    let err = engine.try_run_task(task, &mut CountingConsumer);
    assert_eq!(err, Err(Refused(bad)));
    assert_eq!(
        source.take_log(),
        clean_log[..=first],
        "the failing lookup must be the task's last"
    );
}

#[test]
fn engine_after_an_error_matches_a_fresh_engine() {
    let s = setup();
    let task = busiest_task(&s);
    let (clean_log, fresh) = clean_dfs(&s, task);
    let (bad, _) = pick_bad(&clean_log);

    let source = FailOnce::new(&s.g, bad);
    let mut engine = LocalEngine::new(&s.compiled, &source, &s.order);
    assert!(engine.try_run_task(task, &mut CountingConsumer).is_err());
    source.take_log();
    // The source only refuses once: the rerun is clean.
    let rerun = engine.try_run_task(task, &mut CountingConsumer).unwrap();
    assert_eq!(rerun, fresh, "rerun metrics must equal a fresh engine's");
    assert_eq!(source.take_log(), clean_log, "and issues the same lookups");
    // Every task on the reused engine agrees with a fresh engine.
    for v in 1..8 {
        let t = SearchTask::whole(v);
        let got = engine.try_run_task(t, &mut CountingConsumer).unwrap();
        assert_eq!(got, clean_dfs(&s, t).1, "task v{v} after the error");
    }
}

#[test]
fn try_run_batch_fails_fast_and_leaves_the_frontier_reusable() {
    let s = setup();
    let tasks = generate_tasks(&s.g, 0, s.compiled.second_adjacent);
    let tasks = &tasks[..24];

    let clean_source = FailOnce::new(&s.g, VertexId::MAX);
    let mut fresh = FrontierEngine::new(
        LocalEngine::new(&s.compiled, &clean_source, &s.order),
        MemoryBudget::unbounded(),
    );
    let fresh_metrics = fresh.try_run_batch(tasks, &mut CountingConsumer).unwrap();
    let clean_log = clean_source.take_log();
    let (bad, first) = pick_bad(&clean_log);

    let source = FailOnce::new(&s.g, bad);
    let mut fe = FrontierEngine::new(
        LocalEngine::new(&s.compiled, &source, &s.order),
        MemoryBudget::unbounded(),
    );
    let err = fe.try_run_batch(tasks, &mut CountingConsumer);
    assert_eq!(err, Err(Refused(bad)));
    assert_eq!(
        source.take_log(),
        clean_log[..=first],
        "the failing lookup must be the batch's last"
    );
    let after_error = fe.pool_stats();
    assert!(
        after_error.returns > 0,
        "frozen buffers thaw back into the pool on error: {after_error:?}"
    );

    let rerun = fe.try_run_batch(tasks, &mut CountingConsumer).unwrap();
    assert_eq!(
        rerun, fresh_metrics,
        "rerun metrics must equal a fresh engine's"
    );
    assert!(
        fe.pool_stats().hits > after_error.hits,
        "the rerun reuses the thawed buffers"
    );
}

#[test]
fn try_run_batch_error_clears_the_adjacency_override() {
    let s = setup();
    let tasks = generate_tasks(&s.g, 0, s.compiled.second_adjacent);
    let tasks = &tasks[..24];
    let probe = tasks[0];
    let (probe_log, probe_metrics) = clean_dfs(&s, probe);

    let clean_source = FailOnce::new(&s.g, VertexId::MAX);
    let mut clean = FrontierEngine::new(
        LocalEngine::new(&s.compiled, &clean_source, &s.order),
        MemoryBudget::unbounded(),
    );
    clean.try_run_batch(tasks, &mut CountingConsumer).unwrap();
    let (bad, _) = pick_bad(&clean_source.take_log());

    let source = FailOnce::new(&s.g, bad);
    let mut fe = FrontierEngine::new(
        LocalEngine::new(&s.compiled, &source, &s.order),
        MemoryBudget::unbounded(),
    );
    assert!(fe.try_run_batch(tasks, &mut CountingConsumer).is_err());
    source.take_log();
    // A stale override would serve the probe's fetches from the failed
    // batch's level instead of the source.
    let mut engine = fe.into_inner();
    let got = engine.try_run_task(probe, &mut CountingConsumer).unwrap();
    assert_eq!(got, probe_metrics);
    assert_eq!(source.take_log(), probe_log);
}
