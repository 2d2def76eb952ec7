//! Structured tracing + metrics for the Starlink runtime.
//!
//! The paper's evaluation (§6) reports per-phase costs — parse, compose,
//! γ translation — and this crate makes those phases observable at
//! runtime instead of only in offline benchmarks:
//!
//! * [`TraceEvent`] — the event taxonomy: session lifecycle (every
//!   traversal finishes, fails or is abandoned), automaton transitions
//!   (with color info), closed [`Layer`] spans — the one timed event —,
//!   dispatch probe outcomes, wire bytes in/out, buffer-pool reuse, and
//!   mediator-host health (queue depth, accept errors, worker panics).
//!   Events borrow their string data, so *emitting* one never
//!   allocates.
//! * [`TelemetrySink`] — where events go. Sinks are always injected
//!   explicitly (via `SessionSpec`, codec and monitor builders, …), never
//!   ambient. The [`NoopSink`] default reports `enabled() == false` so
//!   instrumented hot paths skip event construction entirely; its cost is
//!   one virtual call per instrumentation site.
//! * [`Counter`] / [`Gauge`] / [`Histogram`] — lock-free atomic metric
//!   primitives (fixed-bucket latency histograms, no allocation on the
//!   observe path).
//! * [`Recorder`] — the batteries-included sink: aggregates every event
//!   into the metric primitives and keeps a bounded ring buffer of recent
//!   events for debugging.
//! * [`Snapshot`] — a point-in-time aggregate with Prometheus-style text
//!   exposition ([`Snapshot::render_text`]) and a round-tripping parser
//!   ([`Snapshot::parse_text`]) so the format is stable and scriptable
//!   (the `starlink stats` CLI renders either a live endpoint or a saved
//!   exposition file).
//! * Per-session causal tracing — [`SessionTracer`] mints a
//!   [`SessionTraceId`] per accepted connection and stamps every event
//!   with a [`TraceMeta`] (session id, monotonic timestamp, span +
//!   parent span), [`TraceBuffer`] retains the last N completed session
//!   span trees, [`FlightRecorder`] captures abstract-message field
//!   values pre-/post-γ behind a redaction hook, and the exporters
//!   ([`chrome_events`] + [`render_chrome_json`], [`render_timeline`])
//!   render a trace as Chrome `trace_event` JSON (loadable in
//!   `chrome://tracing`/Perfetto) or a plain-text timeline, with a
//!   zero-dep validating parser ([`validate_chrome_trace`]) for smoke
//!   tests.
//! * The operations plane — [`WindowAggregator`] buckets lifecycle
//!   events into a sliding window (rates over the last N seconds,
//!   labelled per merged-automaton pair), and the health model
//!   ([`PairHealth`], [`HealthThresholds`], [`evaluate_pair`])
//!   reduces windows + snapshot gauges + the stall watchdog's count to
//!   a three-valued [`HealthStatus`] with per-check reasons, exported as
//!   snapshot gauges that `MediatorHost::expose_diagnostics` serves and
//!   the `starlink health` CLI reads.
//!
//! This crate has **zero dependencies** (not even on `starlink-message`)
//! so every layer of the workspace — codecs, monitors, the session
//! engine — can emit events without dependency cycles.
//!
//! See `docs/observability.md` for the full taxonomy, the sink contract,
//! and measured overhead numbers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod export;
mod flight;
mod health;
mod metrics;
mod recorder;
mod sink;
mod snapshot;
mod span;
mod window;

pub use event::{AbandonReason, Layer, ProbeOutcome, TraceEvent, TransitionKind};
pub use export::{
    chrome_events, parse_chrome_trace, render_chrome_json, render_timeline, validate_chrome_trace,
    ChromeEvent, TraceStats,
};
pub use flight::{FlightRecorder, MessageCapture, RedactionFn};
pub use health::{
    evaluate_pair, HealthCheck, HealthInputs, HealthStatus, HealthThresholds, PairHealth,
};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, DURATION_BUCKET_BOUNDS_NS};
pub use recorder::Recorder;
pub use sink::{noop_sink, FanoutSink, NoopSink, TelemetrySink};
pub use snapshot::{ExpositionError, MetricFamily, MetricKind, Sample, Snapshot};
pub use span::{
    SessionTrace, SessionTraceId, SessionTracer, SpanGuard, SpanId, SpanScopedSink, TraceBuffer,
    TraceMeta, TraceRecord, TraceRecordKind,
};
pub use window::{window_families, WindowAggregator, WindowConfig, WindowCounts};
