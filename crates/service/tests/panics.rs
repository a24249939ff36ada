//! A chunk whose engine run panics must fail its query, not the service:
//! the panic is caught at the chunk boundary, the query settles
//! `Failed(ChunkPanicked)`, `wait` returns, and the serving workers live
//! on to run the next query.

use benu_cluster::ExecMode;
use benu_graph::gen;
use benu_pattern::queries;
use benu_service::{QueryOptions, QueryService, ServiceConfig, ServiceError, Terminal};
use std::sync::mpsc;
use std::time::Duration;

#[test]
fn labeled_pattern_fails_its_query_instead_of_hanging_the_service() {
    let g = gen::barabasi_albert(200, 4, 3);
    let plan = benu_plan::PlanBuilder::new(&queries::triangle()).best_plan();
    let expected = benu_engine::count_embeddings(&plan, &g);
    for mode in [ExecMode::Dfs, ExecMode::Hybrid] {
        let g = g.clone();
        let (tx, rx) = mpsc::channel();
        // The service runs on its own thread so a hang fails the test at
        // the timeout instead of stalling the suite.
        std::thread::spawn(move || {
            let service = QueryService::new(
                &g,
                ServiceConfig::builder()
                    .workers(2)
                    .chunk_tasks(8)
                    .exec_mode(mode)
                    .build(),
            );
            // The resident graph carries no vertex labels, so every
            // engine run of a labeled plan panics.
            let labeled = queries::triangle().with_labels(vec![0, 1, 2]);
            let failed = service.wait(service.submit(&labeled, QueryOptions::new()));
            let after = service.wait(service.submit(&queries::triangle(), QueryOptions::new()));
            tx.send((failed, after)).unwrap();
        });
        let (failed, after) = rx
            .recv_timeout(Duration::from_secs(60))
            .unwrap_or_else(|_| panic!("{mode:?}: wait() did not return after a chunk panicked"));
        assert_eq!(
            failed.terminal,
            Terminal::Failed(ServiceError::ChunkPanicked { chunk: 0 }),
            "{mode:?}"
        );
        assert_eq!(failed.matches_found, 0, "{mode:?}");
        assert_eq!(
            after.terminal,
            Terminal::Completed,
            "{mode:?}: the workers survived"
        );
        assert_eq!(after.matches_found, expected, "{mode:?}");
    }
}
