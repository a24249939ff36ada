//! The serving-layer error taxonomy.
//!
//! Every failure the request path can hit maps onto one structured
//! [`ServiceError`]; the variants mirror the transport/worker taxonomy
//! of the batch cluster (`benu_cluster::WorkerError`) but are scoped to
//! *one query*: a query that hits any of these settles with
//! [`crate::Terminal::Failed`] (or, for an unrecoverable shard outage
//! under graceful degradation, [`crate::Terminal::DegradedPartial`])
//! while every other in-flight query keeps running. Nothing on the
//! request path panics.

use benu_cluster::FetchError;
use benu_graph::VertexId;

/// Why one query failed. Carried inside [`crate::Terminal::Failed`];
/// never aborts the process or any sibling query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServiceError {
    /// A store request kept faulting (transient errors / timeouts) for
    /// longer than the retry policy allows. Retryable faults were
    /// retried with virtual backoff; this surfaces only once the
    /// attempt budget is spent.
    RetryExhausted {
        /// The vertex whose fetch (or whose shard batch) failed.
        vertex: VertexId,
        /// The shard that kept refusing.
        shard: usize,
        /// Attempts spent before giving up.
        attempts: u32,
    },
    /// Every replica of the vertex's placement group is persistently
    /// dark (shard outage) — retrying cannot help, so the request
    /// failed fast without spending retry budget. With
    /// [`crate::ServiceConfig::graceful_degradation`] enabled this is
    /// the one error class a query can absorb: affected chunks go dark
    /// and the query settles as [`crate::Terminal::DegradedPartial`].
    StoreUnavailable {
        /// The vertex whose placement group is dark.
        vertex: VertexId,
        /// The dark primary shard.
        shard: usize,
    },
    /// The stored value is unusable: its bytes failed to decode, or the
    /// vertex is missing from the resident store entirely while the
    /// task list still names it. Permanent — every replica mirrors the
    /// same value, so neither retry nor failover can help.
    CorruptValue {
        /// The vertex whose value is rotten or gone.
        vertex: VertexId,
        /// What was wrong with it (stable, human-readable).
        detail: String,
    },
    /// The serving worker executing this query's chunk crashed and no
    /// survivor could take the work over (the whole pool is dead).
    /// While survivors remain, a crash never surfaces: the uncommitted
    /// chunk is requeued and re-executed elsewhere.
    WorkerLost {
        /// The lane that died.
        lane: usize,
        /// The chunk it was holding.
        chunk: usize,
    },
    /// The engine panicked while executing this query's chunk — an
    /// input the engine cannot run (for example a labeled pattern on a
    /// graph served without labels). The panic is caught at the chunk
    /// boundary: the serving worker survives and the query fails.
    ChunkPanicked {
        /// The chunk whose execution panicked.
        chunk: usize,
    },
}

impl ServiceError {
    /// Stable lower-case name (reports, logs, counters).
    pub fn name(&self) -> &'static str {
        match self {
            ServiceError::RetryExhausted { .. } => "retry_exhausted",
            ServiceError::StoreUnavailable { .. } => "store_unavailable",
            ServiceError::CorruptValue { .. } => "corrupt_value",
            ServiceError::WorkerLost { .. } => "worker_lost",
            ServiceError::ChunkPanicked { .. } => "chunk_panicked",
        }
    }

    /// True for the one error class graceful degradation can absorb:
    /// a persistent shard outage. Availability exhaustion and data rot
    /// always fail the query — a degraded result must still be the
    /// deterministic truth about the shards that *were* reachable.
    pub(crate) fn is_degradable(&self) -> bool {
        matches!(self, ServiceError::StoreUnavailable { .. })
    }

    /// The dark shard behind a degradable error.
    pub(crate) fn dark_shard(&self) -> Option<usize> {
        match self {
            ServiceError::StoreUnavailable { shard, .. } => Some(*shard),
            _ => None,
        }
    }
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::RetryExhausted {
                vertex,
                shard,
                attempts,
            } => write!(
                f,
                "shard {shard} unavailable for vertex {vertex} after {attempts} attempts"
            ),
            ServiceError::StoreUnavailable { vertex, shard } => write!(
                f,
                "every replica of vertex {vertex} (primary shard {shard}) is down"
            ),
            ServiceError::CorruptValue { vertex, detail } => {
                write!(f, "unusable value for vertex {vertex}: {detail}")
            }
            ServiceError::WorkerLost { lane, chunk } => write!(
                f,
                "serving worker {lane} crashed on chunk {chunk} with no survivors"
            ),
            ServiceError::ChunkPanicked { chunk } => {
                write!(f, "execution of chunk {chunk} panicked")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

/// A failed fetch from a worker's cache-fronted store: the worker's
/// serve path has no fault plan, so an unavailable shard means the store
/// itself refused, surfaced with the transport's own attempt accounting.
impl From<FetchError> for ServiceError {
    fn from(err: FetchError) -> Self {
        match err {
            FetchError::Unavailable(err) => ServiceError::RetryExhausted {
                vertex: err.vertex,
                shard: err.shard,
                attempts: err.attempts,
            },
            FetchError::Corrupt(err) => ServiceError::CorruptValue {
                vertex: err.vertex,
                detail: err.error.to_string(),
            },
            FetchError::Missing { vertex } => ServiceError::CorruptValue {
                vertex,
                detail: "missing from the resident store".into(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_display_are_stable() {
        let errs = [
            ServiceError::RetryExhausted {
                vertex: 3,
                shard: 1,
                attempts: 8,
            },
            ServiceError::StoreUnavailable {
                vertex: 4,
                shard: 2,
            },
            ServiceError::CorruptValue {
                vertex: 5,
                detail: "missing from the resident store".into(),
            },
            ServiceError::WorkerLost { lane: 0, chunk: 9 },
        ];
        assert_eq!(errs[0].name(), "retry_exhausted");
        assert_eq!(errs[1].name(), "store_unavailable");
        assert_eq!(errs[2].name(), "corrupt_value");
        assert_eq!(errs[3].name(), "worker_lost");
        assert!(errs[0].to_string().contains("after 8 attempts"));
        assert!(errs[2].to_string().contains("vertex 5"));
    }

    #[test]
    fn only_outages_are_degradable() {
        assert!(ServiceError::StoreUnavailable {
            vertex: 0,
            shard: 3
        }
        .is_degradable());
        assert_eq!(
            ServiceError::StoreUnavailable {
                vertex: 0,
                shard: 3
            }
            .dark_shard(),
            Some(3)
        );
        assert!(!ServiceError::WorkerLost { lane: 0, chunk: 0 }.is_degradable());
        assert!(!ServiceError::CorruptValue {
            vertex: 0,
            detail: String::new()
        }
        .is_degradable());
    }
}
