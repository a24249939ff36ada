//! Integration tests of VCBC compression: semantic equivalence, code
//! accounting, and the compression ratios the technique exists for.

use benu::engine::{CompiledPlan, CountingConsumer, InMemorySource, LocalEngine};
use benu::graph::{gen, TotalOrder};
use benu::pattern::queries;
use benu::plan::PlanBuilder;

#[test]
fn compressed_output_is_smaller_than_expanded() {
    // Clique-dense graph: q2 (tailed K4) compresses its pendant tail.
    let g = gen::chung_lu_power_law(gen::PowerLawConfig {
        n: 150,
        m: 1000,
        gamma: 2.4,
        clustering: 0.5,
        seed: 77,
    });
    let p = queries::q2();
    let plan = PlanBuilder::new(&p).compressed(true).best_plan();
    let compiled = CompiledPlan::compile(&plan);
    let source = InMemorySource::from_graph(&g);
    let order = TotalOrder::new(&g);
    let mut engine = LocalEngine::new(&compiled, &source, &order);
    let mut consumer = CountingConsumer;
    let m = engine.run_all_vertices(&mut consumer);

    assert!(m.matches > 0, "workload must produce matches");
    assert!(m.codes < m.matches, "codes must compress matches");
    let expanded_bytes = m.matches * (p.num_vertices() as u64) * 4;
    assert!(
        m.code_bytes < expanded_bytes,
        "compressed {} vs expanded {} bytes",
        m.code_bytes,
        expanded_bytes
    );
}

#[test]
fn compression_ratio_grows_with_non_cover_count() {
    // A star's cover is just its centre: n-1 vertices compress away,
    // giving the extreme compression VCBC is designed for.
    let g = gen::barabasi_albert(200, 4, 9);
    let star3 = queries::star(3); // cover = centre
    let plan = PlanBuilder::new(&star3).compressed(true).best_plan();
    let compiled = CompiledPlan::compile(&plan);
    let source = InMemorySource::from_graph(&g);
    let order = TotalOrder::new(&g);
    let mut engine = LocalEngine::new(&compiled, &source, &order);
    let mut consumer = CountingConsumer;
    let m = engine.run_all_vertices(&mut consumer);
    // One code per centre vertex with degree ≥ 3.
    let centres = g.vertices().filter(|&v| g.degree(v) >= 3).count() as u64;
    assert_eq!(m.codes, centres);
    // Matches = Σ C(d, 3) over centres (leaves are SE ⇒ fully chained).
    let expected: u64 = g
        .vertices()
        .filter(|&v| g.degree(v) >= 3)
        .map(|v| {
            let d = g.degree(v) as u64;
            d * (d - 1) * (d - 2) / 6
        })
        .sum();
    assert_eq!(m.matches, expected);
}

#[test]
fn every_catalogue_query_compresses_losslessly_on_dense_input() {
    let g = gen::chung_lu_power_law(gen::PowerLawConfig {
        n: 80,
        m: 420,
        gamma: 2.2,
        clustering: 0.5,
        seed: 123,
    });
    for (name, p) in queries::catalogue() {
        let plain = PlanBuilder::new(&p).best_plan();
        let compressed = PlanBuilder::new(&p).compressed(true).best_plan();
        assert_eq!(
            benu::engine::collect_embeddings(&plain, &g),
            benu::engine::collect_embeddings(&compressed, &g),
            "{name}: compressed expansion must reproduce the exact match set"
        );
    }
}

#[test]
fn clique_compression_matches_binomial_structure() {
    // K_n data graph, K_k pattern: count = C(n, k).
    let g = gen::complete(12);
    for k in 3..=5 {
        let p = queries::clique(k);
        let plan = PlanBuilder::new(&p).compressed(true).best_plan();
        let expected: u64 = {
            let mut c = 1u64;
            for i in 0..k as u64 {
                c = c * (12 - i) / (i + 1);
            }
            c
        };
        assert_eq!(
            benu::engine::count_embeddings(&plan, &g),
            expected,
            "K{k} in K12"
        );
    }
}
