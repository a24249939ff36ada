//! Count-only leaf evaluation (DESIGN.md §4l) must be invisible: a run
//! with a [`CountingConsumer`] reports exactly the matches and the
//! [`TaskMetrics`] — per-slot `obs` included — of a run that enumerates
//! every match into a [`CollectingConsumer`], for DFS and the frontier
//! engine, pooled and unpooled, unsplit and split tasks.

use benu_engine::reference;
use benu_engine::task::generate_tasks;
use benu_engine::{
    CollectingConsumer, CompiledPlan, CountingConsumer, FrontierEngine, InMemorySource,
    LocalEngine, MatchConsumer, MemoryBudget, PoolStats, SearchTask, TaskMetrics,
};
use benu_graph::gen::{self, PowerLawConfig};
use benu_graph::{Graph, TotalOrder, VertexId};
use benu_pattern::{queries, Pattern, SymmetryBreaking};
use benu_plan::{ExecutionPlan, FilterCond, Instruction, PlanBuilder, ResultItem, SetVar};

#[derive(Clone, Copy, Debug)]
enum Driver {
    Dfs,
    Frontier(MemoryBudget),
}

fn drivers() -> [Driver; 3] {
    [
        Driver::Dfs,
        Driver::Frontier(MemoryBudget::bytes(256)),
        Driver::Frontier(MemoryBudget::unbounded()),
    ]
}

/// One run of `tasks`; returns the metrics and the engine's pool
/// counters.
fn run_one(
    compiled: &CompiledPlan,
    g: &Graph,
    labels: Option<&[u32]>,
    tasks: &[SearchTask],
    driver: Driver,
    pooled: bool,
    consumer: &mut dyn MatchConsumer,
) -> (TaskMetrics, PoolStats) {
    let source = InMemorySource::from_graph(g);
    let order = TotalOrder::new(g);
    let mut engine = LocalEngine::new(compiled, &source, &order).with_pooling(pooled);
    if let Some(labels) = labels {
        engine = engine.with_data_labels(labels);
    }
    match driver {
        Driver::Dfs => {
            let mut total = TaskMetrics::default();
            for &t in tasks {
                total += engine.run_task(t, consumer);
            }
            (total, engine.pool_stats())
        }
        Driver::Frontier(budget) => {
            let mut fe = FrontierEngine::new(engine, budget);
            let mut total = TaskMetrics::default();
            for batch in tasks.chunks(16) {
                total += fe.run_batch(batch, consumer);
            }
            (total, fe.pool_stats())
        }
    }
}

/// Runs `plan` on `g` under every driver, pooling mode and task split
/// (τ = 0 and τ = 3) with both consumers, asserting that all of them
/// report byte-equal metrics. Returns the match count.
fn assert_count_equivalent(
    name: &str,
    plan: &ExecutionPlan,
    g: &Graph,
    labels: Option<&[u32]>,
) -> u64 {
    let compiled = CompiledPlan::compile(plan);
    let mut count = None;
    for tau in [0, 3] {
        let tasks = generate_tasks(g, tau, compiled.second_adjacent);
        let mut baseline: Option<TaskMetrics> = None;
        for driver in drivers() {
            for pooled in [false, true] {
                let mut collect = CollectingConsumer::default();
                let (cm, _) = run_one(&compiled, g, labels, &tasks, driver, pooled, &mut collect);
                assert_eq!(
                    collect.matches().len() as u64,
                    cm.matches,
                    "{name}: collected matches disagree with the metrics"
                );
                let (km, _) = run_one(
                    &compiled,
                    g,
                    labels,
                    &tasks,
                    driver,
                    pooled,
                    &mut CountingConsumer,
                );
                let at = format!("{name}, tau {tau}, {driver:?}, pooled {pooled}");
                assert_eq!(km, cm, "{at}: counting and collecting metrics differ");
                match &baseline {
                    None => baseline = Some(cm),
                    Some(b) => assert_eq!(&cm, b, "{at}: metrics differ from the DFS baseline"),
                }
            }
        }
        let m = baseline.expect("at least one run").matches;
        assert_eq!(
            *count.get_or_insert(m),
            m,
            "{name}: split tasks change the count"
        );
    }
    count.expect("at least one task set")
}

fn er_graph() -> Graph {
    gen::erdos_renyi_gnm(36, 150, 21)
}

fn power_law_graph() -> Graph {
    gen::chung_lu_power_law(PowerLawConfig {
        n: 48,
        m: 190,
        gamma: 2.2,
        clustering: 0.5,
        seed: 5,
    })
}

#[test]
fn catalogue_counts_match_enumeration_on_seeded_graphs() {
    for (gname, g) in [("er", er_graph()), ("power-law", power_law_graph())] {
        for (name, p) in queries::catalogue() {
            let plan = PlanBuilder::new(&p).best_plan();
            assert_count_equivalent(&format!("{gname}/{name}"), &plan, &g, None);
        }
    }
}

#[test]
fn counting_runs_take_no_buffer_for_the_leaf() {
    // q5's best plan ends `C := Intersect(T)[..] → Foreach → Report`: the
    // counting run never materialises that leaf, so it draws fewer
    // buffers from the pool than the enumerating run.
    let g = power_law_graph();
    let compiled = CompiledPlan::compile(&PlanBuilder::new(&queries::q5()).best_plan());
    let tasks = generate_tasks(&g, 0, compiled.second_adjacent);
    let mut collect = CollectingConsumer::default();
    let (cm, cp) = run_one(&compiled, &g, None, &tasks, Driver::Dfs, true, &mut collect);
    let (km, kp) = run_one(
        &compiled,
        &g,
        None,
        &tasks,
        Driver::Dfs,
        true,
        &mut CountingConsumer,
    );
    assert_eq!(km, cm);
    assert!(
        kp.hits + kp.misses < cp.hits + cp.misses,
        "leaf count must not take buffers: counting {kp:?} vs collecting {cp:?}"
    );
}

/// A hand-built plan for a 4-vertex path `u0 − u1 − u2 − u3` in order
/// `u0, u1, u2, u3`, breaking the reversal symmetry with `f0 ≺ f3`.
/// The leaf `C3 := Intersect(A2)[|≠f1, ≠f0, >f0]` meets every kind of
/// `≠` image: `f1` always lies in `A2` and passes `>f0` or not; `f0`
/// lies in `A2` only inside a triangle and always fails `>f0`.
fn path4_plan() -> ExecutionPlan {
    let pattern = Pattern::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
    let symmetry = SymmetryBreaking::compute(&pattern);
    ExecutionPlan {
        pattern,
        matching_order: vec![0, 1, 2, 3],
        symmetry,
        instructions: vec![
            Instruction::Init { vertex: 0 },
            Instruction::GetAdj { vertex: 0 },
            Instruction::Intersect {
                target: SetVar::Cand(1),
                operands: vec![SetVar::Adj(0)],
                filters: vec![],
            },
            Instruction::Foreach {
                vertex: 1,
                source: SetVar::Cand(1),
            },
            Instruction::GetAdj { vertex: 1 },
            Instruction::Intersect {
                target: SetVar::Cand(2),
                operands: vec![SetVar::Adj(1)],
                filters: vec![FilterCond::not_equal(0)],
            },
            Instruction::Foreach {
                vertex: 2,
                source: SetVar::Cand(2),
            },
            Instruction::GetAdj { vertex: 2 },
            Instruction::Intersect {
                target: SetVar::Cand(3),
                operands: vec![SetVar::Adj(2)],
                filters: vec![
                    FilterCond::not_equal(1),
                    FilterCond::not_equal(0),
                    FilterCond::greater(0),
                ],
            },
            Instruction::Foreach {
                vertex: 3,
                source: SetVar::Cand(3),
            },
            Instruction::ReportMatch {
                items: (0..4).map(ResultItem::Vertex).collect(),
            },
        ],
        compressed: false,
    }
}

#[test]
fn neq_images_outside_the_operands_or_failing_the_order_filters() {
    let plan = path4_plan();
    // Triangle-free (f0 ∉ A2), triangle-rich (f0 ∈ A2 but f0 ⊀ f0) and
    // random graphs; the count is the number of 4-paths either way.
    for (gname, g) in [
        ("grid", gen::grid(4, 5)),
        ("complete", gen::complete(6)),
        ("er", er_graph()),
    ] {
        let got = assert_count_equivalent(&format!("path4/{gname}"), &plan, &g, None);
        assert_eq!(
            got,
            reference::count_subgraphs(&g, &plan.pattern),
            "path4/{gname}"
        );
    }
}

#[test]
fn leaf_over_all_vertices() {
    // An edge plus an isolated vertex: the leaf has no adjacency operand,
    // `C2 := Intersect(V(G))[|≠f0, ≠f1]`, so its count is n − 2 for every
    // edge (f0 ≺ f1 breaks the edge's swap symmetry).
    let pattern = Pattern::from_edges(3, &[(0, 1)]);
    let symmetry = SymmetryBreaking::compute(&pattern);
    let plan = ExecutionPlan {
        pattern,
        matching_order: vec![0, 1, 2],
        symmetry,
        instructions: vec![
            Instruction::Init { vertex: 0 },
            Instruction::GetAdj { vertex: 0 },
            Instruction::Intersect {
                target: SetVar::Cand(1),
                operands: vec![SetVar::Adj(0)],
                filters: vec![FilterCond::greater(0)],
            },
            Instruction::Foreach {
                vertex: 1,
                source: SetVar::Cand(1),
            },
            Instruction::Intersect {
                target: SetVar::Cand(2),
                operands: vec![SetVar::AllVertices],
                filters: vec![FilterCond::not_equal(0), FilterCond::not_equal(1)],
            },
            Instruction::Foreach {
                vertex: 2,
                source: SetVar::Cand(2),
            },
            Instruction::ReportMatch {
                items: (0..3).map(ResultItem::Vertex).collect(),
            },
        ],
        compressed: false,
    };
    for g in [er_graph(), power_law_graph()] {
        let got = assert_count_equivalent("edge+vertex", &plan, &g, None);
        assert_eq!(got, g.num_edges() as u64 * (g.num_vertices() as u64 - 2));
    }
}

#[test]
fn labeled_leaf_vertices() {
    // A labeled leaf vertex admits only some candidates, so the leaf loop
    // checks each one's label instead of counting the set arithmetically.
    let g = er_graph();
    let data_labels: Vec<u32> = (0..g.num_vertices() as u32)
        .map(|v| (v * 7 + 3) % 3)
        .collect();
    for (name, base) in [
        ("triangle", queries::triangle()),
        ("q5", queries::q5()),
        ("clique4", queries::clique(4)),
    ] {
        let n = base.num_vertices() as u32;
        let p = base.with_labels((0..n).map(|i| i % 3).collect());
        let plan = PlanBuilder::new(&p).best_plan();
        let got = assert_count_equivalent(name, &plan, &g, Some(&data_labels));
        assert_eq!(
            got,
            reference::count_subgraphs_labeled(&g, &p, &data_labels),
            "{name}: labeled count"
        );
    }
}

#[test]
fn split_edge_pattern_counts_its_is_second_leaf() {
    // Two vertices: the leaf `Foreach` is the split point itself, so split
    // tasks count only their share of its candidates.
    let edge = Pattern::from_edges(2, &[(0, 1)]);
    let plan = PlanBuilder::new(&edge).best_plan();
    let compiled = CompiledPlan::compile(&plan);
    assert!(compiled.second_vertex.is_some());
    for g in [gen::star(12), power_law_graph()] {
        let tasks = generate_tasks(&g, 3, compiled.second_adjacent);
        assert!(tasks.iter().any(|t| t.split.is_some()), "hubs must split");
        let got = assert_count_equivalent("edge", &plan, &g, None);
        assert_eq!(got, g.num_edges() as u64);
    }
}

fn binomial(n: u64, k: u64) -> u64 {
    (0..k).fold(1, |acc, i| acc * (n - i) / (i + 1))
}

#[test]
fn closed_forms_on_complete_graphs() {
    for n in [5usize, 7] {
        let g = gen::complete(n);
        let count = |p: &Pattern| {
            assert_count_equivalent(&format!("K{n}"), &PlanBuilder::new(p).best_plan(), &g, None)
        };
        assert_eq!(count(&queries::triangle()), binomial(n as u64, 3));
        assert_eq!(count(&queries::clique(4)), binomial(n as u64, 4));
        for p in [queries::q2(), queries::q5()] {
            assert_eq!(count(&p), reference::count_subgraphs(&g, &p));
        }
    }
}

#[test]
fn counting_consumer_is_never_called() {
    // The engine reports counts through its metrics only; a counting run
    // must never fall back to per-match delivery.
    struct Tripwire;
    impl MatchConsumer for Tripwire {
        fn on_match(&mut self, _f: &[VertexId]) {
            panic!("on_match called although needs_matches is false");
        }
        fn needs_matches(&self) -> bool {
            false
        }
    }
    let g = er_graph();
    for (_, p) in queries::catalogue() {
        for compressed in [false, true] {
            let plan = PlanBuilder::new(&p).compressed(compressed).best_plan();
            let compiled = CompiledPlan::compile(&plan);
            let tasks = generate_tasks(&g, 3, compiled.second_adjacent);
            for pooled in [false, true] {
                run_one(
                    &compiled,
                    &g,
                    None,
                    &tasks,
                    Driver::Dfs,
                    pooled,
                    &mut Tripwire,
                );
            }
        }
    }
}
