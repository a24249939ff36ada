//! Hot-loop perf-regression harness: embeddings/sec and heap traffic of
//! the single-threaded engine, pooled vs unpooled execution buffers.
//!
//! Runs fig9-style workloads (q5 with the triangle cache, clique4 with
//! the clique-cache extension) through one [`LocalEngine`] per arm over
//! the full §V-B task list. Each arm gets one warmup pass (fills the
//! per-thread caches and the buffer pool), then `--iters` measured
//! passes; the report keeps the best wall time and the *minimum*
//! allocation delta — the steady state, which for the pooled arm should
//! be ~0 allocations per task. Heap traffic is metered by installing
//! [`benu_obs::alloc::CountingAllocator`] as the global allocator, so
//! the numbers cover everything the process does inside the measured
//! region, not just the paths we remembered to instrument.
//!
//! ```text
//! cargo run --release -p benu-bench --bin hotpath -- \
//!     [--dataset uk] [--scale 0.05] [--tau 32] [--iters 3] \
//!     [--exec-mode dfs|hybrid] [--memory-budget 256k] \
//!     [--codec raw-u32|delta-varint] \
//!     [--json BENCH_hotpath.json] [--check-against BENCH_hotpath.json]
//! ```
//!
//! Beyond the pooled/unpooled arms, the bin reports the data-plane
//! numbers behind them: every row carries a `wire_bytes` column — the
//! encoded store footprint of the dataset under `--codec`, i.e. the
//! bytes one full adjacency sweep ships — and a dedicated
//! intersection-kernel A/B times the block (bitset) kernels against the
//! scalar merge over the dataset's densest vertex pairs (the clique4
//! hot loop in isolation).
//!
//! `--exec-mode hybrid` drives the same task list through a
//! [`FrontierEngine`] under `--memory-budget` (shared CLI parser with
//! `degradation_curve`/`budget_sweep`); the default is the DFS engine,
//! which is what the committed `--check-against` baseline measures.
//!
//! `--check-against` compares this run's pooled throughput per workload
//! against a previously committed report and exits nonzero on a >20%
//! regression — the CI `perf-smoke` gate.

use benu_bench::cli::Args;
use benu_bench::impl_to_json;
use benu_bench::{load_dataset, print_table};
use benu_cluster::ExecMode;
use benu_engine::{
    CompiledPlan, CountingConsumer, FrontierEngine, InMemorySource, LocalEngine, MemoryBudget,
    PoolStats,
};
use benu_graph::datasets::Dataset;
use benu_graph::ops;
use benu_graph::view::{self, GraphViews};
use benu_graph::{TotalOrder, VertexId};
use benu_kvstore::{CodecKind, KvStore};
use benu_obs::alloc::{AllocSnapshot, CountingAllocator};
use benu_obs::safe_ratio;
use benu_pattern::queries;
use benu_plan::optimize::OptimizeOptions;
use benu_plan::PlanBuilder;
use std::time::Instant;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// Throughput regression (relative to the committed baseline) that fails
/// the `--check-against` gate.
const MAX_REGRESSION: f64 = 0.20;

struct Row {
    workload: String,
    arm: String,
    matches: u64,
    tasks: u64,
    best_wall_s: f64,
    matches_per_sec: f64,
    allocs_per_task: f64,
    alloc_bytes_per_task: f64,
    pool_hits: u64,
    pool_misses: u64,
    pool_returns: u64,
    wire_bytes: u64,
}

impl_to_json!(Row {
    workload,
    arm,
    matches,
    tasks,
    best_wall_s,
    matches_per_sec,
    allocs_per_task,
    alloc_bytes_per_task,
    pool_hits,
    pool_misses,
    pool_returns,
    wire_bytes
});

/// One workload's fixed measurement inputs, shared by both arms.
struct Workload<'a> {
    name: &'a str,
    compiled: &'a CompiledPlan,
    source: &'a InMemorySource,
    order: &'a TotalOrder,
    tasks: &'a [benu_engine::SearchTask],
    iters: usize,
    mode: ExecMode,
    budget: usize,
}

/// The measured execution driver: the plain DFS engine, or the hybrid
/// frontier engine batching `FRONTIER_BATCH` tasks per `run_batch`.
enum Driver<'a> {
    Dfs(LocalEngine<'a, InMemorySource>),
    Hybrid(FrontierEngine<'a, InMemorySource>),
}

const FRONTIER_BATCH: usize = 64;

impl Driver<'_> {
    fn run_pass(
        &mut self,
        tasks: &[benu_engine::SearchTask],
        consumer: &mut CountingConsumer,
    ) -> u64 {
        match self {
            Driver::Dfs(engine) => {
                let mut total = 0;
                for &task in tasks {
                    total += engine.run_task(task, consumer).matches;
                }
                total
            }
            Driver::Hybrid(fe) => tasks
                .chunks(FRONTIER_BATCH)
                .map(|chunk| fe.run_batch(chunk, consumer).matches)
                .sum(),
        }
    }

    fn pool_stats(&self) -> PoolStats {
        match self {
            Driver::Dfs(engine) => engine.pool_stats(),
            Driver::Hybrid(fe) => fe.pool_stats(),
        }
    }
}

/// One measured arm: warmup pass, then `iters` timed passes keeping the
/// best wall time and the steady-state (minimum) allocation delta.
fn measure(w: &Workload<'_>, arm: &str, pooled: bool, wire_bytes: u64) -> Row {
    let Workload {
        name: workload,
        compiled,
        source,
        order,
        tasks,
        iters,
        mode,
        budget,
    } = *w;
    // Oversize the per-thread caches relative to the workload: the bench
    // measures the interpreter's hot loop, and LRU evictions would
    // re-run cache compute closures (which allocate) every pass.
    let engine =
        LocalEngine::with_triangle_cache(compiled, source, order, 1 << 18).with_pooling(pooled);
    let mut driver = match mode {
        ExecMode::Dfs => Driver::Dfs(engine),
        ExecMode::Hybrid => {
            Driver::Hybrid(FrontierEngine::new(engine, MemoryBudget::bytes(budget)))
        }
    };
    let mut consumer = CountingConsumer;

    // Warmup: fills the triangle/clique caches and the buffer pool so the
    // measured passes see the steady state both arms would reach in a
    // long-running worker.
    let warm = driver.run_pass(tasks, &mut consumer);

    let mut matches = warm;
    let mut best_wall = f64::INFINITY;
    let mut steady = AllocSnapshot {
        allocs: u64::MAX,
        bytes: u64::MAX,
    };
    for _ in 0..iters {
        let before = ALLOC.snapshot();
        let start = Instant::now();
        matches = driver.run_pass(tasks, &mut consumer);
        let wall = start.elapsed().as_secs_f64();
        let delta = ALLOC.snapshot().delta_since(&before);
        best_wall = best_wall.min(wall);
        steady.allocs = steady.allocs.min(delta.allocs);
        steady.bytes = steady.bytes.min(delta.bytes);
    }

    let stats = driver.pool_stats();
    let n_tasks = tasks.len() as f64;
    Row {
        workload: workload.to_string(),
        arm: arm.to_string(),
        matches,
        tasks: tasks.len() as u64,
        best_wall_s: best_wall,
        matches_per_sec: safe_ratio(matches as f64, best_wall),
        allocs_per_task: safe_ratio(steady.allocs as f64, n_tasks),
        alloc_bytes_per_task: safe_ratio(steady.bytes as f64, n_tasks),
        pool_hits: stats.hits,
        pool_misses: stats.misses,
        pool_returns: stats.returns,
        wire_bytes,
    }
}

/// The intersection-kernel A/B: times the block (bitset) kernels against
/// the scalar merge over every unordered pair of the dataset's densest
/// vertices — the clique4 hot loop in isolation. Returns
/// `(pairs, scalar_wall, bitset_wall)` for the best of `iters` passes,
/// after asserting the two kernels agree on every pair.
fn kernel_ab(g: &benu_graph::Graph, iters: usize) -> (u64, f64, f64) {
    const HUBS: usize = 48;
    let mut by_degree: Vec<VertexId> = g.vertices().collect();
    by_degree.sort_unstable_by_key(|&v| std::cmp::Reverse(g.neighbors(v).len()));
    by_degree.truncate(HUBS);
    let hubs = by_degree;
    let views = GraphViews::build(g);
    let mut out: Vec<VertexId> = Vec::new();
    let mut run = |bitset: bool| -> (f64, u64) {
        let mut best = f64::INFINITY;
        let mut checksum = 0u64;
        for _ in 0..iters.max(1) {
            let start = Instant::now();
            let mut sum = 0u64;
            for (i, &a) in hubs.iter().enumerate() {
                for &b in &hubs[i + 1..] {
                    if bitset {
                        view::intersect_into(views.view(g, a), views.view(g, b), &mut out);
                    } else {
                        ops::intersect_into(g.neighbors(a), g.neighbors(b), &mut out);
                    }
                    sum = sum.wrapping_add(out.len() as u64);
                    sum = sum.wrapping_add(out.last().copied().unwrap_or(0) as u64);
                }
            }
            best = best.min(start.elapsed().as_secs_f64());
            checksum = sum;
        }
        (best, checksum)
    };
    let (scalar_wall, scalar_sum) = run(false);
    let (bitset_wall, bitset_sum) = run(true);
    assert_eq!(
        scalar_sum, bitset_sum,
        "the kernels must agree on every hub pair"
    );
    let pairs = (hubs.len() * hubs.len().saturating_sub(1) / 2) as u64;
    (pairs, scalar_wall, bitset_wall)
}

/// Pulls `matches_per_sec` for the pooled arm of `workload` out of a
/// previously written report by string scanning the canonical pretty
/// JSON (row objects list `workload`, then `arm`, then the numbers).
fn baseline_throughput(json: &str, workload: &str) -> Option<f64> {
    let mut at = 0;
    let key = format!("\"workload\": \"{workload}\"");
    while let Some(pos) = json[at..].find(&key) {
        let obj = &json[at + pos..];
        let end = obj.find('}').unwrap_or(obj.len());
        let obj = &obj[..end];
        if obj.contains("\"arm\": \"pooled\"") {
            let v = obj.split("\"matches_per_sec\": ").nth(1)?;
            let num: String = v
                .chars()
                .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-' || *c == 'e')
                .collect();
            return num.parse().ok();
        }
        at += pos + key.len();
    }
    None
}

fn main() {
    let args = Args::parse();
    let scale: f64 = args.get("scale", 0.05);
    let tau: usize = args.get("tau", 32);
    let iters: usize = args.get("iters", 3);
    let mode = args.exec_mode().unwrap_or(ExecMode::Dfs);
    let budget = args.memory_budget_bytes().unwrap_or(0);
    let codec = args.codec().unwrap_or(CodecKind::RawU32);
    let dataset =
        Dataset::from_abbrev(args.get_str("dataset").unwrap_or("uk")).expect("unknown dataset");
    let g = load_dataset(dataset, scale);
    let source = InMemorySource::from_graph(&g);
    let order = TotalOrder::new(&g);
    // Bytes on the wire: the encoded store footprint under `--codec` —
    // what one full adjacency sweep ships from a cold store.
    let wire_bytes = KvStore::from_graph_with(&g, 1, 1, codec).total_value_bytes() as u64;

    // Fig. 9-style workloads, uncompressed so the measured loop is the
    // backtracking interpreter itself rather than VCBC code expansion.
    let workloads = [
        ("q5", queries::q5(), OptimizeOptions::all()),
        (
            "clique4",
            queries::clique(4),
            OptimizeOptions::all_with_clique_cache(),
        ),
    ];

    let mut rows = Vec::new();
    let mut table = Vec::new();
    let mut speedups: Vec<(String, f64)> = Vec::new();
    for (name, pattern, opts) in &workloads {
        let plan = PlanBuilder::new(pattern)
            .graph_stats(g.num_vertices(), g.num_edges())
            .optimizations(*opts)
            .compressed(false)
            .best_plan();
        let compiled = CompiledPlan::compile(&plan);
        let tasks = benu_engine::task::generate_tasks(&g, tau, compiled.second_adjacent);
        let w = Workload {
            name,
            compiled: &compiled,
            source: &source,
            order: &order,
            tasks: &tasks,
            iters,
            mode,
            budget,
        };

        let pooled = measure(&w, "pooled", true, wire_bytes);
        let unpooled = measure(&w, "unpooled", false, wire_bytes);
        assert_eq!(
            pooled.matches, unpooled.matches,
            "{name}: pooled and unpooled arms must count identically"
        );
        assert_eq!(
            unpooled.pool_hits + unpooled.pool_misses + unpooled.pool_returns,
            0,
            "{name}: a disabled pool must be inert"
        );
        // The hybrid driver allocates frontier entries per pass, so the
        // allocation-free steady-state bar applies to the DFS loop only.
        assert!(
            mode == ExecMode::Hybrid || pooled.allocs_per_task < 1.0,
            "{name}: pooled steady state should be allocation-free, saw {:.2} allocs/task",
            pooled.allocs_per_task
        );

        let speedup = safe_ratio(pooled.matches_per_sec, unpooled.matches_per_sec);
        speedups.push((name.to_string(), speedup));
        for r in [&pooled, &unpooled] {
            table.push(vec![
                r.workload.clone(),
                r.arm.clone(),
                r.matches.to_string(),
                r.tasks.to_string(),
                format!("{:.4}s", r.best_wall_s),
                format!("{:.0}", r.matches_per_sec),
                format!("{:.2}", r.allocs_per_task),
                format!("{:.1}", r.alloc_bytes_per_task),
                r.pool_hits.to_string(),
                r.wire_bytes.to_string(),
            ]);
        }
        rows.push(pooled);
        rows.push(unpooled);
    }

    println!(
        "\nHot-path throughput on {} (scale {scale}, tau {tau}, {mode}, codec {codec}, \
         best of {iters}):",
        dataset.abbrev()
    );
    print_table(
        &[
            "workload",
            "arm",
            "matches",
            "tasks",
            "best wall",
            "matches/s",
            "allocs/task",
            "bytes/task",
            "pool hits",
            "wire bytes",
        ],
        &table,
    );
    for (name, speedup) in &speedups {
        println!("{name}: pooled throughput = {speedup:.2}x unpooled");
    }

    let (pairs, scalar_wall, bitset_wall) = kernel_ab(&g, iters);
    let kernel_speedup = safe_ratio(scalar_wall, bitset_wall);
    println!(
        "kernel A/B over {pairs} hub pairs: scalar {:.0} pairs/s, bitset {:.0} pairs/s \
         — bitset = {kernel_speedup:.2}x scalar",
        safe_ratio(pairs as f64, scalar_wall),
        safe_ratio(pairs as f64, bitset_wall),
    );

    if let Some(path) = args.get_str("json") {
        let mut report = benu_bench::report::BenchReport::new("hotpath");
        report
            .param("dataset", dataset.abbrev())
            .param("scale", scale)
            .param("tau", tau as u64)
            .param("iters", iters as u64)
            .param("exec_mode", mode.name())
            .param("memory_budget_bytes", budget as u64)
            .param("codec", codec.name())
            .param("wire_bytes", wire_bytes)
            .param("kernel.hub_pairs", pairs)
            .param(
                "kernel.scalar_pairs_per_sec",
                safe_ratio(pairs as f64, scalar_wall),
            )
            .param(
                "kernel.bitset_pairs_per_sec",
                safe_ratio(pairs as f64, bitset_wall),
            )
            .param("kernel.bitset_speedup", kernel_speedup);
        for (name, speedup) in &speedups {
            report.param(&format!("{name}.pooled_speedup"), *speedup);
        }
        for r in &rows {
            report.push_row(r);
        }
        report.write(path).expect("write json");
    }

    if let Some(path) = args.get_str("check-against") {
        let baseline = std::fs::read_to_string(path).expect("read baseline report");
        let mut failed = false;
        for r in rows.iter().filter(|r| r.arm == "pooled") {
            let Some(base) = baseline_throughput(&baseline, &r.workload) else {
                eprintln!("[check] {}: no pooled baseline row, skipping", r.workload);
                continue;
            };
            let floor = base * (1.0 - MAX_REGRESSION);
            let verdict = if r.matches_per_sec < floor {
                failed = true;
                "REGRESSION"
            } else {
                "ok"
            };
            eprintln!(
                "[check] {}: {:.0} matches/s vs baseline {:.0} (floor {:.0}) — {verdict}",
                r.workload, r.matches_per_sec, base, floor
            );
        }
        if failed {
            eprintln!(
                "[check] throughput regressed more than {:.0}%",
                MAX_REGRESSION * 100.0
            );
            std::process::exit(1);
        }
    }
}
