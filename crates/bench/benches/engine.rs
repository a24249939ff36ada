//! Whole-engine micro-benchmarks: enumeration throughput on a clustered
//! power-law graph, compressed vs uncompressed, and the reference
//! comparison point.

use benu_engine::{CompiledPlan, CountingConsumer, InMemorySource, LocalEngine};
use benu_graph::{gen, TotalOrder};
use benu_pattern::queries;
use benu_plan::PlanBuilder;
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine");
    group.sample_size(10);
    let g = gen::chung_lu_power_law(gen::PowerLawConfig {
        n: 1_500,
        m: 9_000,
        gamma: 2.4,
        clustering: 0.3,
        seed: 7,
    });
    let source = InMemorySource::from_graph(&g);
    let order = TotalOrder::new(&g);

    for (name, pattern) in [
        ("triangle", queries::triangle()),
        ("q1", queries::q1()),
        ("q4", queries::q4()),
        ("q5", queries::q5()),
    ] {
        for compressed in [false, true] {
            let plan = PlanBuilder::new(&pattern)
                .graph_stats(g.num_vertices(), g.num_edges())
                .compressed(compressed)
                .best_plan();
            let compiled = CompiledPlan::compile(&plan);
            let label = if compressed { "compressed" } else { "plain" };
            group.bench_function(format!("{name}/{label}"), |b| {
                b.iter(|| {
                    let mut engine = LocalEngine::new(&compiled, &source, &order);
                    let mut consumer = CountingConsumer;
                    black_box(engine.run_all_vertices(&mut consumer).matches)
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
