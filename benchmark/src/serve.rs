//! The serving workload: one `QueryService` driven closed loop by a
//! seeded stream of the mixed queries in [`inputs::MIX`].
//!
//! The driver thread keeps [`IN_FLIGHT`] queries submitted, blocks on the
//! oldest, refills its slot, then checks the result it got back. A
//! query's latency is the `submit` call plus the service's own
//! `QueryResult::wall` (submission to terminal state). The stream has a
//! fixed length per `--seconds`, so the work and the retained results are
//! the same in every run of a seed.
//!
//! Closed loop and one serving worker, because nothing else could be
//! measured steadily on the two-core reference host: with two workers
//! the latency swung with how the two woken worker threads shared the
//! two cores. Quartile spreads of `query_p50_s` / `query_p95_s` over
//! 30-second runs: open loop with two workers, 29% / 64% at 10 queries/s
//! (five seeds), 20% / 35% at 20 (ten seeds), 40% / 73% at 30 (five
//! seeds); closed loop with two workers, 32% / 16% with four in flight
//! (ten seeds), 19% / 13% with eight (five seeds); closed loop with one
//! worker and two in flight, 14% / 11% (ten seeds, percentiles as
//! segment medians).

use crate::inputs::{self, Mode, MIX};
use crate::layers::{self, Query};
use crate::stats::{median, quantile, Ledger, Sheet};
use crate::trace::{Span, Tracer};
use crate::{oracle, peak_rss_mib, Run};
use benu_cluster::{Cluster, ClusterConfig};
use benu_graph::datasets::Dataset;
use benu_graph::Graph;
use benu_obs::ObsHub;
use benu_pattern::Pattern;
use benu_plan::{ExecutionPlan, PlanBuilder};
use benu_service::{
    QueryId, QueryOptions, QueryResult, QueryService, ResultMode, ServiceConfig, Terminal,
};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Serving workers, one thread each.
const WORKERS: usize = 1;
/// Queries the driver keeps in flight: two per worker, so the worker
/// always has the next query queued.
pub const IN_FLIGHT: usize = 2 * WORKERS;
const DATASET: Dataset = Dataset::AsSkitter;
const SCALE: f64 = 0.25;
/// Bare/observed pass pairs behind `obs.overhead_frac`.
const OBS_PAIRS: usize = 3;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 41;
/// Queries per second of `--seconds`: about what the reference host
/// completes, so a run lasts about `--seconds` there.
const QUERIES_PER_SECOND: f64 = 38.0;
/// Submitting stops after this many times `--seconds`, so a much slower
/// build still ends in time (and reports fewer queries).
const OVERRUN: f64 = 4.0;

fn options(mode: Mode) -> QueryOptions {
    QueryOptions::new().mode(match mode {
        Mode::Count => ResultMode::CountOnly,
        Mode::Collect => ResultMode::Collect,
        Mode::TopK(k) => ResultMode::TopK(k),
    })
}

/// A submitted query the driver has not collected yet.
struct Pending {
    index: usize,
    id: QueryId,
    submit_s: f64,
    refill_s: f64,
    submitted_at: Instant,
}

/// What the driver keeps of a collected query: the result with its rows
/// dropped once they were checked.
struct Served {
    index: usize,
    result: QueryResult,
    rows: usize,
    rows_valid: Result<(), String>,
    submit_s: f64,
    refill_s: f64,
    submitted_at: Instant,
}

/// Runs the serving workload: `QUERIES_PER_SECOND * seconds` queries.
pub fn run(seed: u64, seconds: f64, tracer: &mut Tracer) -> Run {
    let base = DATASET.build(SCALE);
    let g = inputs::seeded_graph(&base, seed);
    let names = inputs::mix_patterns();
    let patterns: Vec<Pattern> = names.iter().map(|n| inputs::mix_pattern(n)).collect();
    let config = ServiceConfig::builder().workers(WORKERS).build();

    // The service keeps an `ObsHub` attached: its registry is the only
    // public view of the store traffic behind `comm_bytes`.
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    // Rep 0 warms the allocator and is not timed.
    for rep in 0..=SETUP_REPS {
        drop(built.take());
        let t = Instant::now();
        let span = tracer.enter("driver", "setup", None);
        let hub = Arc::new(ObsHub::new());
        let service = tracer.span("service", "QueryService::new_observed", None, || {
            QueryService::new_observed(&g, config.clone(), Arc::clone(&hub))
        });
        let plans: Vec<ExecutionPlan> = patterns
            .iter()
            .map(|p| {
                tracer.span("plan", "PlanBuilder::best_plan", None, || {
                    PlanBuilder::new(p)
                        .graph_stats(g.num_vertices(), g.num_edges())
                        .best_plan()
                })
            })
            .collect();
        tracer.exit(span);
        if rep > 0 {
            setup.push(t.elapsed().as_secs_f64());
        }
        built = Some((service, hub, plans));
    }
    let (service, hub, plans) = built.expect("at least one set-up");

    let n = ((seconds * QUERIES_PER_SECOND).round() as usize).max(IN_FLIGHT);
    let mut stream = inputs::stream(seed, n.div_ceil(inputs::BLOCK));
    stream.truncate(n);
    let submitted: Vec<Pattern> = stream.iter().map(|q| q.pattern()).collect();
    let mut pending: VecDeque<Pending> = VecDeque::with_capacity(IN_FLIGHT);
    let mut served: Vec<Served> = Vec::new();
    let mut depths = Vec::new();
    let mut next = 0;
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds * OVERRUN);
    let mut freed = start;
    let mut fill = |pending: &mut VecDeque<Pending>, tracer: &mut Tracer, freed: Instant| {
        while pending.len() < IN_FLIGHT && next < stream.len() && Instant::now() < end {
            depths.push(service.queue_depth() as f64);
            let opts = options(MIX[stream[next].class].mode);
            let t = Instant::now();
            let id = tracer.span("service", "QueryService::submit", None, || {
                service.submit(&submitted[next], opts)
            });
            pending.push_back(Pending {
                index: next,
                id,
                submit_s: t.elapsed().as_secs_f64(),
                refill_s: t.duration_since(freed).as_secs_f64(),
                submitted_at: t,
            });
            next += 1;
        }
    };
    fill(&mut pending, tracer, freed);
    while let Some(p) = pending.pop_front() {
        let mut result = tracer.span("driver", "QueryService::wait", Some(p.id), || {
            service.wait(p.id)
        });
        freed = Instant::now();
        fill(&mut pending, tracer, freed);
        let rows = result.matches.len();
        let rows_valid = oracle::check_embeddings(&g, &submitted[p.index], &result.matches);
        result.matches = Vec::new();
        served.push(Served {
            index: p.index,
            result,
            rows,
            rows_valid,
            submit_s: p.submit_s,
            refill_s: p.refill_s,
            submitted_at: p.submitted_at,
        });
    }
    let peak_rss = peak_rss_mib();
    let n = served.len();
    for s in &served {
        let start_ns = tracer.offset_ns(s.submitted_at);
        tracer.record(Span {
            layer: "service",
            name: "query in service",
            start_ns,
            end_ns: start_ns + ((s.submit_s + s.result.wall.as_secs_f64()) * 1e9) as u64,
            parent: None,
            query: Some(s.result.id),
        });
    }

    // Count checks, outside the timed region.
    let solo: Vec<u64> = names
        .iter()
        .zip(&patterns)
        .map(|(n, p)| oracle::count(&base, n, p))
        .collect();
    let mut ledger = Ledger::default();
    for s in &served {
        let class = MIX[stream[s.index].class];
        let want = solo[names
            .iter()
            .position(|&n| n == class.pattern)
            .expect("mix pattern is listed")];
        ledger.record(check_query(
            class.mode,
            &s.result,
            s.rows,
            &s.rows_valid,
            want,
        ));
    }

    let mut sheet = Sheet::default();
    let wall: Vec<f64> = served.iter().map(|s| s.result.wall.as_secs_f64()).collect();
    let latency: Vec<f64> = served
        .iter()
        .zip(&wall)
        .map(|(s, w)| s.submit_s + w)
        .collect();
    for (i, class) in MIX.iter().enumerate() {
        let own: Vec<f64> = served
            .iter()
            .zip(&latency)
            .filter(|(s, _)| stream[s.index].class == i)
            .map(|(_, &l)| l)
            .collect();
        println!(
            "class {}/{:?}: n={} latency p50 {:.4} s, max {:.4} s",
            class.pattern,
            class.mode,
            own.len(),
            median(&own),
            quantile(&own, 1.0)
        );
    }
    let mut probe = Sheet::default();
    let comm = layers::store_counters_of_registry(
        &mut probe,
        &hub.registry,
        config.resolved_store_shards(),
    );
    sheet.put("setup_s", "s", median(&setup), SETUP_REPS);
    sheet.put("run_s", "s", median(&wall), n);
    sheet.put("comm_bytes", "bytes", comm as f64, 1);
    sheet.put("query_p50_s", "s", segment_median(&latency, 0.5), n);
    sheet.put("query_p95_s", "s", segment_median(&latency, 0.95), n);
    sheet.put("peak_rss_mib", "MiB", peak_rss, 1);

    if tracer.enabled() {
        for m in probe.metrics() {
            sheet.put(&m.name, m.unit, m.value, m.samples);
        }
        let refill: Vec<f64> = served.iter().map(|s| s.refill_s).collect();
        let submit: Vec<f64> = served.iter().map(|s| s.submit_s).collect();
        let results: Vec<QueryResult> = served.into_iter().map(|s| s.result).collect();
        sheet.put("driver.late_s", "s", median(&refill), n);
        layers::service_counters(
            &mut sheet,
            &results,
            &submit,
            &depths,
            service.plan_cache_stats(),
        );
        layers::engine_counters(
            &mut sheet,
            &results.iter().map(|r| &r.metrics).collect::<Vec<_>>(),
        );
        drop(service);
        let queries: Vec<Query<'_>> = patterns
            .iter()
            .zip(&plans)
            .zip(&solo)
            .map(|((pattern, plan), &expected)| Query {
                pattern,
                compressed: false,
                plan,
                expected,
            })
            .collect();
        solo_cluster_runs(&mut sheet, &mut ledger, tracer, &g, &queries);
        layers::plan(&mut sheet, tracer, &g, &queries);
        layers::kvstore(
            &mut sheet,
            tracer,
            &g,
            config.resolved_store_shards(),
            config.codec,
        );
        ledger.record(layers::kernels(&mut sheet, tracer, &g));
        let cluster_config = solo_config();
        ledger.record(layers::engine(
            &mut sheet,
            tracer,
            &g,
            &cluster_config,
            &queries,
        ));
        let plan_refs: Vec<&ExecutionPlan> = plans.iter().collect();
        ledger.record(layers::obs_overhead(
            &mut sheet,
            tracer,
            &g,
            cluster_config,
            &plan_refs,
            OBS_PAIRS,
        ));
        layers::self_times(&mut sheet, tracer);
    }
    Run {
        sheet,
        ledger,
        graph: format!(
            "{} x{} ({} vertices, {} edges), {n} queries, {IN_FLIGHT} in flight",
            DATASET.abbrev(),
            SCALE,
            g.num_vertices(),
            g.num_edges()
        ),
    }
}

/// Queries per latency segment, at least: ten lie beyond its p95.
const SEGMENT_QUERIES: usize = 200;

/// The `p`-quantile of `latency` taken over consecutive segments of at
/// least [`SEGMENT_QUERIES`] queries (five at most), and the median of
/// those: one transient slow phase of a shared host then moves one
/// segment, not the figure.
pub fn segment_median(latency: &[f64], p: f64) -> f64 {
    let segments = (latency.len() / SEGMENT_QUERIES).clamp(1, 5);
    let len = latency.len().div_ceil(segments);
    let per_segment: Vec<f64> = latency.chunks(len.max(1)).map(|c| quantile(c, p)).collect();
    median(&per_segment)
}

/// The batch workloads' cluster shape, for the solo runs.
fn solo_config() -> ClusterConfig {
    ClusterConfig::builder()
        .workers(crate::batch::WORKERS)
        .threads_per_worker(1)
        .build()
}

/// The cluster layer on the serving workload: each mix pattern run solo
/// through `Cluster::run`, checked against the oracle.
fn solo_cluster_runs(
    sheet: &mut Sheet,
    ledger: &mut Ledger,
    tracer: &mut Tracer,
    g: &Graph,
    queries: &[Query<'_>],
) {
    let cluster = tracer.span("cluster", "Cluster::new", None, || {
        Cluster::new(g, solo_config())
    });
    let mut runs = Vec::new();
    for q in queries {
        let out = tracer.span("cluster", "Cluster::run", None, || cluster.run(q.plan));
        ledger.record(match out {
            Ok(o) if o.total_matches == q.expected => {
                runs.push(o);
                Ok(())
            }
            Ok(o) => Err(format!(
                "solo run: {} matches, oracle {}",
                o.total_matches, q.expected
            )),
            Err(e) => Err(format!("solo run failed: {e}")),
        });
    }
    layers::cluster_counters(sheet, &runs.iter().collect::<Vec<_>>());
}

/// One served query passes when it completed (a shed or failed query
/// never does) with the solo count, and, when it returns rows, exactly
/// `min(k, total)` of them, all distinct valid embeddings (`rows_valid`).
pub fn check_query(
    mode: Mode,
    r: &QueryResult,
    rows: usize,
    rows_valid: &Result<(), String>,
    solo: u64,
) -> Result<(), String> {
    if r.terminal != Terminal::Completed {
        return Err(format!("query {}: terminal {}", r.id, r.terminal.name()));
    }
    let want = match mode {
        Mode::Count | Mode::Collect => solo,
        Mode::TopK(k) => (k as u64).min(solo),
    };
    if r.matches_found != want {
        return Err(format!(
            "query {}: {} matches, want {want}",
            r.id, r.matches_found
        ));
    }
    if mode != Mode::Count && rows as u64 != want {
        return Err(format!("query {}: {rows} rows, want {want}", r.id));
    }
    rows_valid
        .clone()
        .map_err(|e| format!("query {}: {e}", r.id))
}

#[cfg(test)]
mod tests {
    use super::*;
    use benu_engine::TaskMetrics;
    use benu_graph::gen;
    use benu_pattern::queries;

    fn result(terminal: Terminal, matches_found: u64) -> QueryResult {
        QueryResult {
            id: 0,
            terminal,
            matches_found,
            matches: Vec::new(),
            vticks: 0,
            chunks_committed: 1,
            chunks_discarded: 0,
            plan_cache_hit: false,
            exhaustive: true,
            dark_shards: Vec::new(),
            completion_index: 0,
            metrics: TaskMetrics::default(),
            wall: Duration::ZERO,
        }
    }

    #[test]
    fn segment_median_ignores_one_slow_segment() {
        let mut latency = vec![1.0; 1000];
        latency[..200].iter_mut().for_each(|l| *l = 9.0);
        assert_eq!(segment_median(&latency, 0.95), 1.0);
        assert_eq!(quantile(&latency, 0.95), 9.0);
        // Short streams form a single segment.
        assert_eq!(segment_median(&[1.0, 2.0, 3.0], 0.5), 2.0);
    }

    #[test]
    fn shed_failed_and_wrong_queries_count_as_failures() {
        let mut ledger = Ledger::default();
        let shed = Terminal::Rejected {
            retry_after_vticks: 10,
        };
        let check = |r: QueryResult| check_query(Mode::Count, &r, 0, &Ok(()), 4);
        ledger.record(check(result(Terminal::Completed, 4)));
        ledger.record(check(result(shed, 0)));
        ledger.record(check(result(Terminal::Cancelled, 4)));
        ledger.record(check(result(Terminal::Completed, 3)));
        assert_eq!((ledger.attempted(), ledger.failed()), (4, 3));
        assert_eq!(ledger.failed_frac(), 0.75);
    }

    #[test]
    fn row_modes_need_exactly_min_k_total_valid_rows() {
        let g = gen::complete(4);
        let tri = queries::triangle();
        let check = |mode, found, rows: &[Vec<u32>]| {
            let valid = oracle::check_embeddings(&g, &tri, rows);
            check_query(
                mode,
                &result(Terminal::Completed, found),
                rows.len(),
                &valid,
                4,
            )
        };
        let rows = [vec![0, 1, 2], vec![0, 1, 3]];
        assert!(check(Mode::TopK(2), 2, &rows).is_ok());
        assert!(check(Mode::TopK(3), 2, &rows).is_err());
        assert!(check(Mode::Collect, 4, &rows).is_err());
        assert!(check(Mode::TopK(2), 2, &[vec![0, 1, 2], vec![0, 1, 2]]).is_err());
        assert!(check(Mode::TopK(2), 2, &[vec![0, 1, 2], vec![3, 3, 2]]).is_err());
    }
}
