//! Per-layer probes for the traced run. Each probe times calls into one
//! crate's public functions from outside, or reduces the counters the
//! program already exposes (`RunOutcome`, `WorkerReport`, `QueryResult`,
//! the `ObsHub` registry). Nothing is added inside the crates.

use crate::stats::{median, ratio, Sheet};
use crate::trace::Tracer;
use benu_cluster::{Cluster, ClusterConfig, RunOutcome};
use benu_engine::{CompiledPlan, CountingConsumer, InMemorySource, LocalEngine, TaskMetrics};
use benu_graph::view::{self, GraphViews};
use benu_graph::{ops, Graph, TotalOrder, VertexId};
use benu_kvstore::{CodecKind, KvStore};
use benu_obs::{ObsHub, Registry};
use benu_pattern::Pattern;
use benu_plan::{ExecutionPlan, PlanBuilder};
use benu_service::QueryResult;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Repetitions of each short probe; the median is reported.
pub const PROBE_REPS: usize = 5;

/// Times `f` `PROBE_REPS` times and returns the median in seconds.
fn median_secs(mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..PROBE_REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// One pattern the workload runs, with its plan and expected count.
pub struct Query<'a> {
    pub pattern: &'a Pattern,
    pub compressed: bool,
    pub plan: &'a ExecutionPlan,
    pub expected: u64,
}

/// `plan.search_s` and `plan.compile_s`: median `PlanBuilder::best_plan`
/// and `CompiledPlan::compile` time, summed over the workload's patterns.
pub fn plan(sheet: &mut Sheet, tracer: &mut Tracer, g: &Graph, queries: &[Query<'_>]) {
    let (mut search, mut compile) = (0.0, 0.0);
    for q in queries {
        search += tracer.span("plan", "PlanBuilder::best_plan", None, || {
            median_secs(|| {
                black_box(
                    PlanBuilder::new(q.pattern)
                        .graph_stats(g.num_vertices(), g.num_edges())
                        .compressed(q.compressed)
                        .best_plan(),
                );
            })
        });
        compile += tracer.span("plan", "CompiledPlan::compile", None, || {
            median_secs(|| {
                black_box(CompiledPlan::compile(q.plan));
            })
        });
    }
    sheet.put("plan.search_s", "s", search, PROBE_REPS);
    sheet.put("plan.compile_s", "s", compile, PROBE_REPS);
}

/// `kvstore.load_s`, `kvstore.value_bytes` and `kvstore.decode_ns_per_key`
/// (a timed `get_many` sweep over every vertex under the workload codec).
pub fn kvstore(sheet: &mut Sheet, tracer: &mut Tracer, g: &Graph, shards: usize, codec: CodecKind) {
    let load_s = tracer.span("kvstore", "KvStore::from_graph_with", None, || {
        median_secs(|| {
            black_box(KvStore::from_graph_with(g, shards, 1, codec));
        })
    });
    let store = KvStore::from_graph_with(g, shards, 1, codec);
    let keys: Vec<VertexId> = g.vertices().collect();
    let sweep_s = tracer.span("kvstore", "KvStore::get_many", None, || {
        median_secs(|| {
            let out = store.get_many(&keys);
            assert!(
                out.values.iter().all(Option::is_some),
                "every vertex is stored"
            );
            black_box(out);
        })
    });
    sheet.put("kvstore.load_s", "s", load_s, PROBE_REPS);
    sheet.put(
        "kvstore.value_bytes",
        "bytes",
        store.total_value_bytes() as f64,
        1,
    );
    sheet.put(
        "kvstore.decode_ns_per_key",
        "ns",
        ratio(sweep_s * 1e9, keys.len() as f64),
        PROBE_REPS,
    );
}

/// `graph.intersect_{scalar,view}_ns_per_pair`: the scalar merge and the
/// view (block) kernels over every pair of the 48 highest-degree vertices.
/// Returns an error if the kernels disagree.
pub fn kernels(sheet: &mut Sheet, tracer: &mut Tracer, g: &Graph) -> Result<(), String> {
    const HUBS: usize = 48;
    let mut hubs: Vec<VertexId> = g.vertices().collect();
    hubs.sort_unstable_by_key(|&v| (std::cmp::Reverse(g.degree(v)), v));
    hubs.truncate(HUBS);
    let views = GraphViews::build(g);
    let pairs = hubs.len() * hubs.len().saturating_sub(1) / 2;
    let mut out: Vec<VertexId> = Vec::new();
    let mut pass = |use_view: bool| -> u64 {
        let mut sum = 0u64;
        for (i, &a) in hubs.iter().enumerate() {
            for &b in &hubs[i + 1..] {
                if use_view {
                    view::intersect_into(views.view(g, a), views.view(g, b), &mut out);
                } else {
                    ops::intersect_into(g.neighbors(a), g.neighbors(b), &mut out);
                }
                sum = sum
                    .wrapping_add(out.len() as u64)
                    .wrapping_add(u64::from(out.last().copied().unwrap_or(0)));
            }
        }
        black_box(sum)
    };
    let (scalar_sum, view_sum) = (pass(false), pass(true));
    // About 50k intersections per timing: tens of milliseconds.
    let passes = (50_000 / pairs.max(1)).max(1);
    let scalar_s = tracer.span("graph", "ops::intersect_into", None, || {
        median_secs(|| {
            (0..passes).for_each(|_| {
                pass(false);
            })
        })
    });
    let view_s = tracer.span("graph", "view::intersect_into", None, || {
        median_secs(|| {
            (0..passes).for_each(|_| {
                pass(true);
            })
        })
    });
    let per_pair = |s: f64| ratio(s * 1e9, (pairs * passes) as f64);
    sheet.put(
        "graph.intersect_scalar_ns_per_pair",
        "ns",
        per_pair(scalar_s),
        PROBE_REPS,
    );
    sheet.put(
        "graph.intersect_view_ns_per_pair",
        "ns",
        per_pair(view_s),
        PROBE_REPS,
    );
    if scalar_sum == view_sum {
        Ok(())
    } else {
        Err("scalar and view intersection kernels disagree on the hub pairs".into())
    }
}

/// `engine.taskgen_s` (`task::generate_tasks`) and `engine.exec_s`: one
/// single-thread `LocalEngine::run_task` pass over every task on an
/// `InMemorySource`, summed over the workload's queries. Returns an
/// error if a replay count differs from the expected count.
pub fn engine(
    sheet: &mut Sheet,
    tracer: &mut Tracer,
    g: &Graph,
    config: &ClusterConfig,
    queries: &[Query<'_>],
) -> Result<(), String> {
    let source = InMemorySource::from_graph(g);
    let order = TotalOrder::new(g);
    let (mut taskgen, mut exec) = (0.0, 0.0);
    for q in queries {
        let compiled = CompiledPlan::compile(q.plan);
        let tau = if compiled.second_vertex.is_some() {
            config.tau
        } else {
            0
        };
        taskgen += tracer.span("engine", "task::generate_tasks", None, || {
            median_secs(|| {
                black_box(benu_engine::task::generate_tasks(
                    g,
                    tau,
                    compiled.second_adjacent,
                ));
            })
        });
        let tasks = benu_engine::task::generate_tasks(g, tau, compiled.second_adjacent);
        let mut engine = LocalEngine::with_triangle_cache(
            &compiled,
            &source,
            &order,
            config.triangle_cache_entries,
        )
        .with_pooling(config.pooled_buffers);
        let mut consumer = CountingConsumer::default();
        let t = Instant::now();
        let matches: u64 = tracer.span("engine", "LocalEngine::run_task", None, || {
            tasks
                .iter()
                .map(|&task| engine.run_task(task, &mut consumer).matches)
                .sum()
        });
        exec += t.elapsed().as_secs_f64();
        if matches != q.expected {
            return Err(format!(
                "single-thread replay found {matches} matches, expected {}",
                q.expected
            ));
        }
    }
    sheet.put("engine.taskgen_s", "s", taskgen, PROBE_REPS);
    sheet.put("engine.exec_s", "s", exec, 1);
    Ok(())
}

/// Engine counters summed over committed work: `engine.enu_candidates`,
/// `engine.int_executions` and `engine.survivor_ratio`.
pub fn engine_counters(sheet: &mut Sheet, metrics: &[&TaskMetrics]) {
    let enu: u64 = metrics.iter().map(|m| m.enu_candidates).sum();
    let int: u64 = metrics.iter().map(|m| m.int_executions).sum();
    let (mut candidates, mut survivors) = (0u64, 0u64);
    for m in metrics {
        for slot in &m.obs.slots {
            candidates += slot.candidates;
            survivors += slot.survivors;
        }
    }
    sheet.put("engine.enu_candidates", "count", enu as f64, metrics.len());
    sheet.put("engine.int_executions", "count", int as f64, metrics.len());
    sheet.put(
        "engine.survivor_ratio",
        "ratio",
        ratio(survivors as f64, candidates as f64),
        metrics.len(),
    );
}

/// Cluster, pool and per-worker cache counters over a set of runs:
/// `cluster.*`, `engine.tasks`, `engine.pool_hit_rate` and
/// `cache.triangle.hit_rate`.
pub fn cluster_counters(sheet: &mut Sheet, runs: &[&RunOutcome]) {
    let workers = runs.iter().map(|r| r.workers.len()).max().unwrap_or(0);
    let mut busy = vec![0.0; workers];
    let mut vticks = vec![0.0; workers];
    let (mut overhead, mut steals, mut tasks) = (0.0, 0u64, 0u64);
    let (mut pool_hits, mut pool_misses, mut tri_hits, mut tri_misses) = (0u64, 0u64, 0u64, 0u64);
    for r in runs {
        for (i, w) in r.workers.iter().enumerate() {
            busy[i] += w.busy_time.as_secs_f64();
            vticks[i] += benu_cluster::balance::vticks(&w.metrics) as f64;
            tri_hits += w.triangle_cache.hits;
            tri_misses += w.triangle_cache.misses;
        }
        overhead += r.elapsed.saturating_sub(r.makespan()).as_secs_f64();
        steals += r.total_steals();
        tasks += r.total_tasks as u64;
        let pool = r.pool_stats();
        pool_hits += pool.hits;
        pool_misses += pool.misses;
    }
    let imbalance = |xs: &[f64]| {
        let mean = ratio(xs.iter().sum(), xs.len() as f64);
        ratio(xs.iter().cloned().fold(0.0, f64::max), mean)
    };
    let n = runs.len();
    sheet.put("cluster.work_imbalance", "ratio", imbalance(&busy), n);
    sheet.put("cluster.vtick_imbalance", "ratio", imbalance(&vticks), n);
    sheet.put("cluster.sched_overhead_s", "s", overhead, n);
    sheet.put("cluster.steals", "count", steals as f64, n);
    sheet.put("engine.tasks", "count", tasks as f64, n);
    sheet.put(
        "engine.pool_hit_rate",
        "ratio",
        ratio(pool_hits as f64, (pool_hits + pool_misses) as f64),
        n,
    );
    sheet.put(
        "cache.triangle.hit_rate",
        "ratio",
        ratio(tri_hits as f64, (tri_hits + tri_misses) as f64),
        n,
    );
}

/// Store and DB-cache counters of one batch run: `kvstore.requests`,
/// `kvstore.keys`, `cache.db.hit_rate` and `cache.db.evictions`.
pub fn store_counters_of_run(sheet: &mut Sheet, run: &RunOutcome) {
    let evictions: u64 = run.workers.iter().map(|w| w.cache.evictions).sum();
    sheet.put("kvstore.requests", "count", run.kv.requests as f64, 1);
    sheet.put("kvstore.keys", "count", run.kv.keys as f64, 1);
    sheet.put("cache.db.hit_rate", "ratio", run.cache_hit_rate(), 1);
    sheet.put("cache.db.evictions", "count", evictions as f64, 1);
}

/// The same store and DB-cache counters read from an `ObsHub` registry
/// (the serving workload's view), plus the bytes the store shipped.
pub fn store_counters_of_registry(sheet: &mut Sheet, registry: &Registry, shards: usize) -> u64 {
    let sum = |what: &str| -> u64 {
        (0..shards)
            .map(|i| registry.counter(&format!("store.shard.{i}.{what}")).get())
            .sum()
    };
    let hits = registry.counter("cache.db.hits").get();
    let misses = registry.counter("cache.db.misses").get();
    sheet.put("kvstore.requests", "count", sum("requests") as f64, 1);
    sheet.put("kvstore.keys", "count", sum("keys") as f64, 1);
    sheet.put(
        "cache.db.hit_rate",
        "ratio",
        ratio(hits as f64, (hits + misses) as f64),
        1,
    );
    sheet.put(
        "cache.db.evictions",
        "count",
        registry.counter("cache.db.evictions").get() as f64,
        1,
    );
    sum("bytes")
}

/// Serving-layer numbers over a set of queries: `service.*` and
/// `plan.cache_hit_rate`.
pub fn service_counters(
    sheet: &mut Sheet,
    results: &[QueryResult],
    submit_s: &[f64],
    queue_depths: &[f64],
    plan_cache: benu_service::PlanCacheStats,
) {
    let committed: usize = results.iter().map(|r| r.chunks_committed).sum();
    let discarded: usize = results.iter().map(|r| r.chunks_discarded).sum();
    let vticks: Vec<f64> = results.iter().map(|r| r.vticks as f64).collect();
    let lookups = plan_cache.hits + plan_cache.misses;
    sheet.put("service.submit_s", "s", median(submit_s), submit_s.len());
    sheet.put(
        "service.queue_depth",
        "chunks",
        median(queue_depths),
        queue_depths.len(),
    );
    sheet.put(
        "service.chunk_waste_ratio",
        "ratio",
        ratio(discarded as f64, (committed + discarded) as f64),
        results.len(),
    );
    sheet.put(
        "service.vticks_p50",
        "vticks",
        median(&vticks),
        vticks.len(),
    );
    sheet.put(
        "plan.cache_hit_rate",
        "ratio",
        ratio(plan_cache.hits as f64, lookups as f64),
        lookups as usize,
    );
}

/// `obs.overhead_frac`: the median time of one pass over the workload's
/// plans on a cluster with an `ObsHub` attached, against a bare cluster,
/// as a share of the bare time. Passes alternate between the two.
pub fn obs_overhead(
    sheet: &mut Sheet,
    tracer: &mut Tracer,
    g: &Graph,
    config: ClusterConfig,
    plans: &[&ExecutionPlan],
    pairs: usize,
) -> Result<(), String> {
    let bare = Cluster::new(g, config);
    let observed = Cluster::new_observed(g, config, Arc::new(ObsHub::new()));
    let pass = |cluster: &Cluster| -> Result<(f64, u64), String> {
        let mut wall = 0.0;
        let mut matches = 0;
        for plan in plans {
            cluster.clear_caches();
            let t = Instant::now();
            let out = cluster.run(plan).map_err(|e| format!("run failed: {e}"))?;
            wall += t.elapsed().as_secs_f64();
            matches += out.total_matches;
        }
        Ok((wall, matches))
    };
    let (mut bare_s, mut observed_s) = (Vec::new(), Vec::new());
    for _ in 0..pairs {
        let (b, bm) = tracer.span("cluster", "Cluster::run", None, || pass(&bare))?;
        let (o, om) = tracer.span("cluster", "Cluster::run", None, || pass(&observed))?;
        if bm != om {
            return Err(format!("observed cluster counted {om} matches, bare {bm}"));
        }
        bare_s.push(b);
        observed_s.push(o);
    }
    let base = median(&bare_s);
    sheet.put(
        "obs.overhead_frac",
        "ratio",
        ratio(median(&observed_s) - base, base),
        pairs,
    );
    Ok(())
}

/// Per-layer self time derived from the recorded spans: `self_s.<layer>`.
pub fn self_times(sheet: &mut Sheet, tracer: &Tracer) {
    let by_layer = crate::trace::self_seconds_by_layer(tracer.spans());
    for layer in LAYERS {
        let name = format!("self_s.{layer}");
        sheet.put(
            &name,
            "s",
            by_layer.get(layer).copied().unwrap_or(0.0),
            tracer.spans().len(),
        );
    }
}

/// The layers spans are attributed to.
pub const LAYERS: [&str; 7] = [
    "plan", "kvstore", "cache", "graph", "engine", "cluster", "service",
];
