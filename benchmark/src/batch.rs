//! The batch workloads: repeated `Cluster::run`s of one plan in a closed
//! loop, caches cleared before each run so every run does the same work.

use crate::layers::{self, Query};
use crate::stats::{median, quantile, Ledger, Sheet};
use crate::trace::Tracer;
use crate::{inputs, oracle, peak_rss_mib, Run};
use benu_cluster::{Cluster, ClusterConfig, RunOutcome};
use benu_graph::datasets::Dataset;
use benu_graph::Graph;
use benu_kvstore::CodecKind;
use benu_pattern::queries;
use benu_service::{QueryOptions, QueryService, ResultMode, ServiceConfig, Terminal};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Simulated workers and threads per worker: one thread per core of the
/// two-core reference host.
pub const WORKERS: usize = 2;
/// Set-ups timed before each timed run; `setup_s` is their median.
const SETUPS_PER_RUN: usize = 3;
/// Timed runs per run of the benchmark, at least.
const MIN_RUNS: usize = 5;
/// Bare/observed pass pairs behind `obs.overhead_frac`.
const OBS_PAIRS: usize = 3;

/// A batch workload.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub dataset: Dataset,
    pub scale: f64,
    pub pattern: &'static str,
    /// VCBC-compressed plan.
    pub compressed: bool,
    pub codec: CodecKind,
    /// Per-worker DB-cache capacity as a share of the graph's adjacency
    /// bytes; `None` keeps the default capacity.
    pub cache_share: Option<f64>,
    /// Pooled engine buffers (the default; off only in the sensitivity
    /// check).
    pub pooled: bool,
}

/// Compute-bound: hub-heavy 5-cycle enumeration, store nearly idle.
pub const ENUM_Q5_UK: Spec = Spec {
    dataset: Dataset::Uk2002,
    scale: 0.05,
    pattern: "q5",
    compressed: false,
    codec: CodecKind::RawU32,
    cache_share: None,
    pooled: true,
};

/// Store-bound: the working set is 20x the capped DB cache.
pub const FETCH_Q4_LJ: Spec = Spec {
    dataset: Dataset::LiveJournal,
    scale: 0.3,
    pattern: "q4",
    compressed: true,
    codec: CodecKind::DeltaVarint,
    cache_share: Some(0.05),
    pooled: true,
};

impl Spec {
    pub fn config(&self, g: &Graph) -> ClusterConfig {
        let mut b = ClusterConfig::builder()
            .workers(WORKERS)
            .threads_per_worker(1)
            .codec(self.codec)
            .pooled_buffers(self.pooled);
        if let Some(share) = self.cache_share {
            b = b.cache_capacity_bytes((g.adjacency_bytes() as f64 * share) as usize);
        }
        b.build()
    }
}

/// What one timed `Cluster::run` produced.
struct Sample {
    late_s: f64,
    run_s: f64,
    outcome: Result<RunOutcome, String>,
}

/// Runs a batch workload: set up, time `Cluster::run` for `seconds`,
/// check every outcome against the oracle and, when tracing, probe each
/// layer.
pub fn run(spec: &Spec, seed: u64, seconds: f64, tracer: &mut Tracer) -> Run {
    let base = spec.dataset.build(spec.scale);
    let g = inputs::seeded_graph(&base, seed);
    let pattern = queries::by_name(spec.pattern).expect("workload pattern exists");
    let config = spec.config(&g);

    let cluster = Cluster::new(&g, config);
    let plan = cluster
        .plan_builder(&pattern)
        .compressed(spec.compressed)
        .best_plan();
    // One set-up: graph to store plus plan search, dropped at once. Runs
    // between timed runs so its median sees the same host as `run_s`.
    let set_up = |tracer: &mut Tracer| -> f64 {
        let t = Instant::now();
        let span = tracer.enter("driver", "setup", None);
        let cluster = tracer.span("cluster", "Cluster::new", None, || Cluster::new(&g, config));
        tracer.span("plan", "PlanBuilder::best_plan", None, || {
            black_box(
                cluster
                    .plan_builder(&pattern)
                    .compressed(spec.compressed)
                    .best_plan(),
            )
        });
        tracer.exit(span);
        t.elapsed().as_secs_f64()
    };
    let run_once = |tracer: &mut Tracer, due: Instant| -> Sample {
        tracer.span("cache", "Cluster::clear_caches", None, || {
            cluster.clear_caches()
        });
        let t = Instant::now();
        let outcome = tracer.span("cluster", "Cluster::run", None, || cluster.run(&plan));
        let run_s = t.elapsed().as_secs_f64();
        Sample {
            late_s: t.duration_since(due).as_secs_f64(),
            run_s,
            outcome: outcome.map_err(|e| format!("Cluster::run failed: {e}")),
        }
    };
    // One untimed run (and set-up) settles the allocator and page cache;
    // the run is checked like the others.
    set_up(tracer);
    let warm = run_once(tracer, Instant::now());
    let mut setup = Vec::new();
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < MIN_RUNS || start.elapsed() < Duration::from_secs_f64(seconds) {
        setup.extend((0..SETUPS_PER_RUN).map(|_| set_up(tracer)));
        samples.push(run_once(tracer, Instant::now()));
    }
    let peak_rss = peak_rss_mib();

    // Checks, outside the timed region.
    let expected = oracle::count(&base, spec.pattern, &pattern);
    let mut ledger = Ledger::default();
    let first = samples[0].outcome.as_ref().ok().cloned();
    for (i, s) in std::iter::once(&warm).chain(&samples).enumerate() {
        ledger.record(check_run(i, &s.outcome, expected, first.as_ref()));
    }

    let mut sheet = Sheet::default();
    let n = samples.len();
    let run_s: Vec<f64> = samples.iter().map(|s| s.run_s).collect();
    println!(
        "run_s samples: {}",
        run_s
            .iter()
            .map(|t| format!("{t:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let latency: Vec<f64> = samples.iter().map(|s| s.late_s + s.run_s).collect();
    let comm: Vec<f64> = samples
        .iter()
        .filter_map(|s| s.outcome.as_ref().ok())
        .map(|o| o.communication_bytes() as f64)
        .collect();
    sheet.put("setup_s", "s", median(&setup), setup.len());
    sheet.put("run_s", "s", median(&run_s), n);
    sheet.put("comm_bytes", "bytes", median(&comm), comm.len());
    sheet.put("query_p50_s", "s", median(&latency), n);
    sheet.put("query_p95_s", "s", quantile(&latency, 0.95), n);
    sheet.put("peak_rss_mib", "MiB", peak_rss, 1);

    if tracer.enabled() {
        let late: Vec<f64> = samples.iter().map(|s| s.late_s).collect();
        sheet.put("driver.late_s", "s", median(&late), n);
        if let Some(first) = &first {
            layers::store_counters_of_run(&mut sheet, first);
            layers::cluster_counters(&mut sheet, &[first]);
            layers::engine_counters(&mut sheet, &[&first.metrics]);
        }
        let q = Query {
            pattern: &pattern,
            compressed: spec.compressed,
            plan: &plan,
            expected,
        };
        drop(cluster);
        layers::plan(&mut sheet, tracer, &g, std::slice::from_ref(&q));
        layers::kvstore(&mut sheet, tracer, &g, WORKERS, spec.codec);
        ledger.record(layers::kernels(&mut sheet, tracer, &g));
        ledger.record(layers::engine(
            &mut sheet,
            tracer,
            &g,
            &config,
            std::slice::from_ref(&q),
        ));
        ledger.record(layers::obs_overhead(
            &mut sheet,
            tracer,
            &g,
            config,
            &[&plan],
            OBS_PAIRS,
        ));
        service_probe(
            &mut sheet,
            &mut ledger,
            tracer,
            spec,
            &g,
            &pattern,
            expected,
        );
        layers::self_times(&mut sheet, tracer);
    }
    Run {
        sheet,
        ledger,
        graph: format!(
            "{} x{} ({} vertices, {} edges)",
            spec.dataset.abbrev(),
            spec.scale,
            g.num_vertices(),
            g.num_edges()
        ),
    }
}

/// One run passes when it succeeded, found the oracle's count, and
/// repeated the first run's deterministic counters exactly.
fn check_run(
    i: usize,
    outcome: &Result<RunOutcome, String>,
    expected: u64,
    first: Option<&RunOutcome>,
) -> Result<(), String> {
    let o = outcome.as_ref().map_err(|e| format!("run {i}: {e}"))?;
    if o.total_matches != expected {
        return Err(format!(
            "run {i}: {} matches, oracle {expected}",
            o.total_matches
        ));
    }
    if let Some(f) = first {
        let key = |o: &RunOutcome| {
            (
                o.communication_bytes(),
                o.kv.requests,
                o.metrics.enu_candidates,
                o.total_tasks,
            )
        };
        if key(o) != key(f) {
            return Err(format!(
                "run {i}: (comm_bytes, requests, enu_candidates, tasks) = {:?}, first run {:?}",
                key(o),
                key(f)
            ));
        }
    }
    Ok(())
}

/// The serving layer on a batch workload: the workload's pattern as an
/// exhaustive count, then relabeled as a `TopK(100)` (a plan-cache hit).
fn service_probe(
    sheet: &mut Sheet,
    ledger: &mut Ledger,
    tracer: &mut Tracer,
    spec: &Spec,
    g: &Graph,
    pattern: &benu_pattern::Pattern,
    expected: u64,
) {
    const K: usize = 100;
    let mut b = ServiceConfig::builder()
        .workers(WORKERS)
        .codec(spec.codec)
        .pooled_buffers(spec.pooled);
    if let Some(share) = spec.cache_share {
        b = b.cache_capacity_bytes((g.adjacency_bytes() as f64 * share) as usize);
    }
    let service = tracer.span("service", "QueryService::new", None, || {
        QueryService::new(g, b.build())
    });
    let perm: Vec<usize> = (0..pattern.num_vertices()).rev().collect();
    let relabeled = pattern.relabeled(&perm);
    let submissions = [
        (pattern.clone(), QueryOptions::new()),
        (relabeled, QueryOptions::new().mode(ResultMode::TopK(K))),
    ];
    let (mut ids, mut submit_s, mut depths) = (Vec::new(), Vec::new(), Vec::new());
    for (p, opts) in &submissions {
        depths.push(service.queue_depth() as f64);
        let t = Instant::now();
        ids.push(tracer.span("service", "QueryService::submit", None, || {
            service.submit(p, opts.clone())
        }));
        submit_s.push(t.elapsed().as_secs_f64());
    }
    let results: Vec<_> = ids
        .iter()
        .map(|&id| {
            tracer.span("service", "QueryService::wait", Some(id), || {
                service.wait(id)
            })
        })
        .collect();
    for ((p, opts), r) in submissions.iter().zip(&results) {
        let want = match opts.mode {
            ResultMode::TopK(k) => (k as u64).min(expected),
            _ => expected,
        };
        let outcome = if r.terminal != Terminal::Completed {
            Err(format!(
                "service probe query {}: terminal {}",
                r.id,
                r.terminal.name()
            ))
        } else if r.matches_found != want {
            Err(format!(
                "service probe query {}: {} matches, want {want}",
                r.id, r.matches_found
            ))
        } else if matches!(opts.mode, ResultMode::TopK(_)) && r.matches.len() as u64 != want {
            Err(format!(
                "service probe query {}: {} rows, want {want}",
                r.id,
                r.matches.len()
            ))
        } else {
            oracle::check_embeddings(g, p, &r.matches)
        };
        ledger.record(outcome);
    }
    layers::service_counters(
        sheet,
        &results,
        &submit_s,
        &depths,
        service.plan_cache_stats(),
    );
}
