//! The sink contract: where trace events go.

use crate::event::TraceEvent;
use crate::snapshot::Snapshot;
use crate::span::TraceMeta;
use std::sync::Arc;

/// A consumer of [`TraceEvent`]s.
///
/// The contract instrumented layers rely on:
///
/// * `record` must be cheap and non-blocking — it runs on request hot
///   paths. Aggregate into atomics (see [`crate::Recorder`]) or push into
///   a bounded buffer; never do I/O inline.
/// * `enabled` lets call sites skip event construction (and the
///   engine's layer-boundary clock reads) entirely. A sink that
///   returns `false` must also tolerate `record` being called anyway —
///   cheap events may be emitted unguarded.
/// * `snapshot` returns an aggregate view when the sink keeps one;
///   pass-through or logging sinks return `None` (the default). Hosts use
///   this to serve `telemetry_snapshot()` without knowing the concrete
///   sink type.
///
/// Sinks are injected explicitly — through `SessionSpec`, codec and
/// monitor builders — never discovered ambiently, which keeps the
/// session engine sans-I/O-friendly and deterministic under test.
pub trait TelemetrySink: Send + Sync {
    /// Whether events are worth constructing at all.
    fn enabled(&self) -> bool {
        true
    }

    /// Consumes one event.
    fn record(&self, event: &TraceEvent<'_>);

    /// A point-in-time metric aggregate, when this sink maintains one.
    fn snapshot(&self) -> Option<Snapshot> {
        None
    }

    /// Consumes one event with its causal metadata (session id,
    /// monotonic timestamp, span tree position). The default discards
    /// the metadata and forwards to [`TelemetrySink::record`], so
    /// aggregate sinks keep counting traced events without change;
    /// the trace-aware [`crate::TraceBuffer`] overrides it.
    fn record_traced(&self, meta: &TraceMeta, event: &TraceEvent<'_>) {
        let _ = meta;
        self.record(event);
    }

    /// Whether this sink retains traces. Emitting layers only mint a
    /// [`crate::SessionTracer`] — and so only pay its timestamping, span
    /// bookkeeping and [`TraceEvent::MessageSnapshot`] rendering — when
    /// this returns `true`, so purely aggregate deployments keep their
    /// aggregate-only cost profile. Defaults to `false`.
    fn wants_spans(&self) -> bool {
        false
    }
}

/// The default sink: drops everything and reports `enabled() == false`,
/// so instrumented hot paths cost one virtual call per site.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopSink;

impl TelemetrySink for NoopSink {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&self, _event: &TraceEvent<'_>) {}
}

/// A shared no-op sink (convenience for default fields).
pub fn noop_sink() -> Arc<dyn TelemetrySink> {
    Arc::new(NoopSink)
}

/// Broadcasts every event to several sinks; `snapshot()` returns the
/// first child snapshot available. Used by hosts to keep a caller's
/// custom sink while still maintaining the host's own [`crate::Recorder`].
pub struct FanoutSink {
    sinks: Vec<Arc<dyn TelemetrySink>>,
}

impl FanoutSink {
    /// A fanout over the given sinks.
    pub fn new(sinks: Vec<Arc<dyn TelemetrySink>>) -> FanoutSink {
        FanoutSink { sinks }
    }
}

impl TelemetrySink for FanoutSink {
    fn enabled(&self) -> bool {
        self.sinks.iter().any(|s| s.enabled())
    }

    fn record(&self, event: &TraceEvent<'_>) {
        for sink in &self.sinks {
            sink.record(event);
        }
    }

    fn record_traced(&self, meta: &TraceMeta, event: &TraceEvent<'_>) {
        for sink in &self.sinks {
            sink.record_traced(meta, event);
        }
    }

    fn snapshot(&self) -> Option<Snapshot> {
        self.sinks.iter().find_map(|s| s.snapshot())
    }

    fn wants_spans(&self) -> bool {
        self.sinks.iter().any(|s| s.wants_spans())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;

    #[test]
    fn noop_is_disabled_and_snapshotless() {
        let s = NoopSink;
        assert!(!s.enabled());
        s.record(&TraceEvent::SessionStarted);
        assert!(s.snapshot().is_none());
    }

    #[test]
    fn fanout_forwards_and_snapshots() {
        let recorder = Arc::new(Recorder::new());
        let fan = FanoutSink::new(vec![Arc::new(NoopSink), recorder]);
        assert!(fan.enabled());
        fan.record(&TraceEvent::SessionStarted);
        let snap = fan.snapshot().expect("recorder child snapshots");
        assert_eq!(snap.counter("starlink_sessions_started_total"), 1);
    }
}
