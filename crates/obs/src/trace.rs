//! Span-based phase tracing on a virtual clock.
//!
//! The cluster runtime already accounts fault-injected delays as
//! *virtual* time (deterministic nanoseconds charged, never slept) so a
//! seeded faulted run replays exactly. Tracing follows the same rule: a
//! [`Tracer`] stamps every span enter/exit with a monotonically advanced
//! [`VirtualClock`] reading plus a sequence number — never the wall
//! clock — so the trace of a seeded run is byte-identical across
//! executions. Wall durations, when interesting, belong in wall-flagged
//! registry histograms, not in the trace.
//!
//! Spans are scoped via [`SpanGuard`] (RAII: exit recorded on drop) and
//! are intended for coordinator-thread phases — store load, plan
//! compile, task generation, enumeration passes, recovery passes — not
//! for per-task hot paths (those use counters).

use crate::report::{Report, Value};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A deterministic clock: advanced explicitly by virtual nanoseconds
/// (fault penalties, logical phase ticks), never by the wall clock.
#[derive(Debug, Default)]
pub struct VirtualClock {
    nanos: AtomicU64,
}

impl VirtualClock {
    /// A clock at zero.
    pub fn new() -> Self {
        VirtualClock::default()
    }

    /// Advances the clock by `nanos` virtual nanoseconds.
    pub fn advance(&self, nanos: u64) {
        self.nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// The current virtual time in nanoseconds.
    pub fn now(&self) -> u64 {
        self.nanos.load(Ordering::Relaxed)
    }
}

/// One trace event: a span boundary on the virtual clock.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Global sequence number (total order of recording).
    pub seq: u64,
    /// Virtual-clock reading when recorded.
    pub virtual_nanos: u64,
    /// Span name (e.g. `"pass.0"`, `"store_load"`).
    pub span: String,
    /// `true` for span enter, `false` for exit.
    pub enter: bool,
}

/// Records span enter/exit events stamped with sequence numbers and
/// virtual time. Cheap enough for phase granularity; not meant for
/// per-task hot paths.
#[derive(Debug, Default)]
pub struct Tracer {
    clock: VirtualClock,
    seq: AtomicU64,
    events: Mutex<Vec<TraceEvent>>,
}

impl Tracer {
    /// A tracer with a zeroed clock and empty event log.
    pub fn new() -> Self {
        Tracer::default()
    }

    /// The tracer's virtual clock (advance it with deterministic
    /// penalties; it is shared with the spans).
    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    fn record(&self, span: &str, enter: bool) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let event = TraceEvent {
            seq,
            virtual_nanos: self.clock.now(),
            span: span.to_string(),
            enter,
        };
        self.events.lock().expect("tracer lock").push(event);
    }

    /// Enters a span; the returned guard records the exit on drop.
    pub fn span(&self, name: &str) -> SpanGuard<'_> {
        self.record(name, true);
        SpanGuard {
            tracer: self,
            name: name.to_string(),
        }
    }

    /// A copy of all recorded events, in sequence order.
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut out = self.events.lock().expect("tracer lock").clone();
        out.sort_by_key(|e| e.seq);
        out
    }

    /// The trace as a [`Report`] list: each event is
    /// `[seq, virtual_nanos, span, enter]`.
    pub fn to_report(&self) -> Report {
        let mut report = Report::new();
        report.set(
            "events",
            Value::List(
                self.events()
                    .into_iter()
                    .map(|e| {
                        Value::List(vec![
                            Value::UInt(e.seq),
                            Value::UInt(e.virtual_nanos),
                            Value::Str(e.span),
                            Value::Bool(e.enter),
                        ])
                    })
                    .collect(),
            ),
        );
        report
    }
}

/// RAII guard for an open span; records the exit event when dropped.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    name: String,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.tracer.record(&self.name, false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_exit_on_drop() {
        let t = Tracer::new();
        {
            let _outer = t.span("run");
            t.clock().advance(100);
            {
                let _inner = t.span("pass.0");
                t.clock().advance(50);
            }
        }
        let events = t.events();
        assert_eq!(events.len(), 4);
        assert_eq!(
            events
                .iter()
                .map(|e| (e.span.as_str(), e.enter, e.virtual_nanos))
                .collect::<Vec<_>>(),
            vec![
                ("run", true, 0),
                ("pass.0", true, 100),
                ("pass.0", false, 150),
                ("run", false, 150),
            ]
        );
        // Sequence numbers are a total order starting at 0.
        assert_eq!(
            events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
    }

    #[test]
    fn trace_is_deterministic_without_wall_clock() {
        let run = || {
            let t = Tracer::new();
            let _a = t.span("store_load");
            t.clock().advance(7);
            drop(_a);
            let _b = t.span("enumeration");
            t.clock().advance(13);
            drop(_b);
            t.to_report()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn to_report_encodes_events_as_lists() {
        let t = Tracer::new();
        drop(t.span("x"));
        let report = t.to_report();
        match report.get("events") {
            Some(Value::List(events)) => {
                assert_eq!(events.len(), 2);
                match &events[0] {
                    Value::List(fields) => {
                        assert_eq!(fields[0], Value::UInt(0));
                        assert_eq!(fields[2], Value::Str("x".to_string()));
                        assert_eq!(fields[3], Value::Bool(true));
                    }
                    other => panic!("expected list, got {other:?}"),
                }
            }
            other => panic!("expected events list, got {other:?}"),
        }
    }
}
