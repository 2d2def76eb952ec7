//! The batteries-included sink: aggregates events into lock-free metrics.

use crate::event::{AbandonReason, Layer, ProbeOutcome, TraceEvent, TransitionKind};
use crate::metrics::{Counter, Gauge, Histogram, DURATION_BUCKET_BOUNDS_NS};
use crate::sink::TelemetrySink;
use crate::snapshot::{MetricFamily, MetricKind, Sample, Snapshot};
use std::sync::Mutex;

/// Count and summed nanoseconds of closed spans of one (layer, color).
#[derive(Debug, Default)]
struct LayerTotals {
    count: Counter,
    sum_ns: Counter,
}

/// Per-(layer, color) span totals: a fixed table with a slot for every
/// color, so recording is two atomic adds — no lock, no allocation.
#[derive(Debug)]
struct LayerTable([[LayerTotals; 256]; Layer::ALL.len()]);

impl Default for LayerTable {
    fn default() -> Self {
        LayerTable(std::array::from_fn(|_| {
            std::array::from_fn(|_| LayerTotals::default())
        }))
    }
}

/// A [`TelemetrySink`] that aggregates every event into counters, gauges
/// and fixed-bucket histograms, and snapshots them on demand. Recording
/// is lock-free and allocation-free except for a failed traversal, which
/// takes a short mutex to count it under its stage label.
#[derive(Debug, Default)]
pub struct Recorder {
    sessions_started: Counter,
    sessions_finished: Counter,
    /// Failed traversals by stage label, in first-seen order. Stage
    /// labels are a small fixed set, so the list stays short.
    sessions_failed: Mutex<Vec<(String, u64)>>,
    /// Abandoned traversals, indexed like [`AbandonReason::ALL`].
    sessions_abandoned: [Counter; AbandonReason::ALL.len()],
    exchanges: Counter,
    transitions_receive: Counter,
    transitions_send: Counter,
    transitions_gamma: Counter,
    /// Span durations, indexed like [`Layer::ALL`].
    layer_duration_ns: [Histogram; Layer::ALL.len()],
    layer_totals: LayerTable,
    monitor_violations: Counter,
    probe_hit: Counter,
    probe_miss: Counter,
    probe_fallback: Counter,
    wire_bytes_in: Counter,
    wire_bytes_out: Counter,
    wire_messages_in: Counter,
    wire_messages_out: Counter,
    wire_buf_reused: Counter,
    wire_buf_alloc: Counter,
    service_connects: Counter,
    sessions_accepted: Counter,
    accept_errors: Counter,
    worker_panics: Counter,
    active_sessions: Gauge,
    queue_depth: Gauge,
    sessions_stalled: Counter,
    stalled_sessions: Gauge,
}

impl Recorder {
    /// A fresh recorder with every metric at zero.
    pub fn new() -> Recorder {
        Recorder::default()
    }

    fn count_failure(&self, stage: &str) {
        let mut failed = self
            .sessions_failed
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        match failed.iter_mut().find(|(s, _)| s == stage) {
            Some((_, n)) => *n += 1,
            None => failed.push((stage.to_owned(), 1)),
        }
    }

    /// Builds the snapshot (also available through the
    /// [`TelemetrySink::snapshot`] trait method).
    pub fn snapshot(&self) -> Snapshot {
        let counter = |name: &str, c: &Counter| {
            MetricFamily::simple(name, MetricKind::Counter, vec![Sample::plain(c.get())])
        };
        let gauge = |name: &str, value: u64| {
            MetricFamily::simple(name, MetricKind::Gauge, vec![Sample::plain(value)])
        };
        let histogram = |name: &str, h: &Histogram| {
            let snap = h.snapshot();
            let mut samples = Vec::with_capacity(snap.cumulative_counts.len());
            for (i, &cumulative) in snap.cumulative_counts.iter().enumerate() {
                let le = DURATION_BUCKET_BOUNDS_NS
                    .get(i)
                    .map(|b| b.to_string())
                    .unwrap_or_else(|| "+Inf".to_owned());
                samples.push(Sample::labelled("le", &le, cumulative));
            }
            MetricFamily {
                name: name.to_owned(),
                kind: MetricKind::Histogram,
                samples,
                sum: Some(snap.sum),
                count: Some(snap.count),
            }
        };
        let mut families = vec![
            counter("starlink_sessions_started_total", &self.sessions_started),
            counter("starlink_sessions_finished_total", &self.sessions_finished),
            MetricFamily::simple(
                "starlink_sessions_failed_total",
                MetricKind::Counter,
                self.sessions_failed
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .iter()
                    .map(|(stage, n)| Sample::labelled("stage", stage, *n))
                    .collect(),
            ),
            MetricFamily::simple(
                "starlink_sessions_abandoned_total",
                MetricKind::Counter,
                AbandonReason::ALL
                    .iter()
                    .zip(&self.sessions_abandoned)
                    .map(|(reason, c)| Sample::labelled("reason", reason.label(), c.get()))
                    .collect(),
            ),
            counter("starlink_exchanges_total", &self.exchanges),
            MetricFamily::simple(
                "starlink_transitions_total",
                MetricKind::Counter,
                vec![
                    Sample::labelled("kind", "receive", self.transitions_receive.get()),
                    Sample::labelled("kind", "send", self.transitions_send.get()),
                    Sample::labelled("kind", "gamma", self.transitions_gamma.get()),
                ],
            ),
            counter(
                "starlink_monitor_violations_total",
                &self.monitor_violations,
            ),
            MetricFamily::simple(
                "starlink_dispatch_probe_total",
                MetricKind::Counter,
                vec![
                    Sample::labelled("outcome", "hit", self.probe_hit.get()),
                    Sample::labelled("outcome", "miss", self.probe_miss.get()),
                    Sample::labelled("outcome", "fallback", self.probe_fallback.get()),
                ],
            ),
            counter("starlink_wire_bytes_in_total", &self.wire_bytes_in),
            counter("starlink_wire_bytes_out_total", &self.wire_bytes_out),
            counter("starlink_wire_messages_in_total", &self.wire_messages_in),
            counter("starlink_wire_messages_out_total", &self.wire_messages_out),
            counter("starlink_wire_buf_reused_total", &self.wire_buf_reused),
            counter("starlink_wire_buf_alloc_total", &self.wire_buf_alloc),
            counter("starlink_service_connects_total", &self.service_connects),
            counter("starlink_sessions_accepted_total", &self.sessions_accepted),
            counter("starlink_accept_errors_total", &self.accept_errors),
            counter("starlink_worker_panics_total", &self.worker_panics),
            gauge("starlink_active_sessions", self.active_sessions.get()),
            gauge("starlink_active_sessions_peak", self.active_sessions.max()),
            gauge("starlink_queue_depth", self.queue_depth.get()),
            gauge("starlink_queue_depth_peak", self.queue_depth.max()),
            counter("starlink_sessions_stalled_total", &self.sessions_stalled),
            gauge("starlink_sessions_stalled", self.stalled_sessions.get()),
            gauge(
                "starlink_sessions_stalled_peak",
                self.stalled_sessions.max(),
            ),
        ];
        for (layer, h) in Layer::ALL.iter().zip(&self.layer_duration_ns) {
            families.push(histogram(
                &format!("starlink_{}_duration_ns", layer.label()),
                h,
            ));
        }
        // Per-(layer, color) totals ride as labelled count/sum counters
        // (a summary without quantiles); pairs never seen are left out.
        let mut counts = Vec::new();
        let mut sums = Vec::new();
        for (layer, row) in Layer::ALL.iter().zip(&self.layer_totals.0) {
            for (color, totals) in row.iter().enumerate() {
                let count = totals.count.get();
                if count == 0 {
                    continue;
                }
                let labels = vec![
                    ("layer".to_owned(), layer.label().to_owned()),
                    ("color".to_owned(), color.to_string()),
                ];
                sums.push(Sample {
                    labels: labels.clone(),
                    value: totals.sum_ns.get(),
                });
                counts.push(Sample {
                    labels,
                    value: count,
                });
            }
        }
        if !counts.is_empty() {
            families.push(MetricFamily::simple(
                "starlink_layer_count",
                MetricKind::Counter,
                counts,
            ));
            families.push(MetricFamily::simple(
                "starlink_layer_sum_ns",
                MetricKind::Counter,
                sums,
            ));
        }
        Snapshot { families }
    }
}

impl TelemetrySink for Recorder {
    fn record(&self, event: &TraceEvent<'_>) {
        match *event {
            TraceEvent::SessionStarted => self.sessions_started.inc(),
            TraceEvent::SessionFinished { exchanges, .. } => {
                self.sessions_finished.inc();
                self.exchanges.add(exchanges as u64);
            }
            TraceEvent::SessionFailed { stage, .. } => self.count_failure(stage),
            TraceEvent::SessionAbandoned { reason } => {
                self.sessions_abandoned[reason as usize].inc();
            }
            TraceEvent::Transition { kind, .. } => match kind {
                TransitionKind::Receive => self.transitions_receive.inc(),
                TransitionKind::Send => self.transitions_send.inc(),
                TransitionKind::Gamma => self.transitions_gamma.inc(),
            },
            TraceEvent::SpanClosed {
                layer,
                color,
                nanos,
            } => {
                self.layer_duration_ns[layer as usize].observe(nanos);
                let totals = &self.layer_totals.0[layer as usize][color as usize];
                totals.count.inc();
                totals.sum_ns.add(nanos);
            }
            TraceEvent::MonitorViolation { .. } => self.monitor_violations.inc(),
            TraceEvent::DispatchProbe { outcome } => match outcome {
                ProbeOutcome::Hit => self.probe_hit.inc(),
                ProbeOutcome::Miss => self.probe_miss.inc(),
                ProbeOutcome::Fallback => self.probe_fallback.inc(),
            },
            TraceEvent::WireIn { bytes, .. } => {
                self.wire_bytes_in.add(bytes as u64);
                self.wire_messages_in.inc();
            }
            TraceEvent::WireOut { bytes, .. } => {
                self.wire_bytes_out.add(bytes as u64);
                self.wire_messages_out.inc();
            }
            TraceEvent::WireBufReused => self.wire_buf_reused.inc(),
            TraceEvent::WireBufAllocated => self.wire_buf_alloc.inc(),
            TraceEvent::ServiceConnected { .. } => self.service_connects.inc(),
            TraceEvent::SessionAccepted => self.sessions_accepted.inc(),
            TraceEvent::AcceptError => self.accept_errors.inc(),
            TraceEvent::WorkerPanic => self.worker_panics.inc(),
            TraceEvent::ActiveSessions { count } => self.active_sessions.set(count as u64),
            TraceEvent::QueueDepth { depth } => self.queue_depth.set(depth as u64),
            TraceEvent::SessionStalled { .. } => self.sessions_stalled.inc(),
            TraceEvent::StalledSessions { count } => self.stalled_sessions.set(count as u64),
            // Tracing structure and message captures are the
            // TraceBuffer's business; the aggregate view needs only
            // closed spans.
            TraceEvent::SpanOpened { .. } | TraceEvent::MessageSnapshot { .. } => {}
        }
    }

    fn snapshot(&self) -> Option<Snapshot> {
        Some(Recorder::snapshot(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_aggregate_into_the_snapshot() {
        let r = Recorder::new();
        r.record(&TraceEvent::SessionStarted);
        r.record(&TraceEvent::SessionFinished {
            final_state: "s9",
            exchanges: 4,
        });
        r.record(&TraceEvent::Transition {
            from: "s0",
            to: "s1",
            kind: TransitionKind::Receive,
            color: 1,
        });
        r.record(&TraceEvent::DispatchProbe {
            outcome: ProbeOutcome::Miss,
        });
        r.record(&TraceEvent::SpanClosed {
            layer: Layer::Parse,
            color: 1,
            nanos: 1_500,
        });
        r.record(&TraceEvent::SpanClosed {
            layer: Layer::Parse,
            color: 1,
            nanos: 500,
        });
        r.record(&TraceEvent::SessionAbandoned {
            reason: AbandonReason::Closed,
        });
        r.record(&TraceEvent::QueueDepth { depth: 5 });
        r.record(&TraceEvent::QueueDepth { depth: 2 });

        let snap = r.snapshot();
        assert_eq!(snap.counter("starlink_sessions_started_total"), 1);
        assert_eq!(snap.counter("starlink_sessions_finished_total"), 1);
        assert_eq!(snap.counter("starlink_exchanges_total"), 4);
        assert_eq!(
            snap.value("starlink_transitions_total", &[("kind", "receive")]),
            Some(1)
        );
        assert_eq!(
            snap.value("starlink_dispatch_probe_total", &[("outcome", "miss")]),
            Some(1)
        );
        let parse = snap.family("starlink_parse_duration_ns").unwrap();
        assert_eq!(parse.count, Some(2));
        assert_eq!(parse.sum, Some(2_000));
        let labels = [("layer", "parse"), ("color", "1")];
        assert_eq!(snap.value("starlink_layer_count", &labels), Some(2));
        assert_eq!(snap.value("starlink_layer_sum_ns", &labels), Some(2_000));
        // Pairs never seen are not exported.
        assert_eq!(
            snap.value(
                "starlink_layer_count",
                &[("layer", "parse"), ("color", "2")]
            ),
            None
        );
        assert_eq!(
            snap.value("starlink_sessions_abandoned_total", &[("reason", "closed")]),
            Some(1)
        );
        assert_eq!(
            snap.value(
                "starlink_sessions_abandoned_total",
                &[("reason", "timeout")]
            ),
            Some(0)
        );
        assert_eq!(snap.counter("starlink_queue_depth"), 2);
        assert_eq!(snap.counter("starlink_queue_depth_peak"), 5);
    }

    #[test]
    fn gauge_peaks_render_and_round_trip() {
        let r = Recorder::new();
        r.record(&TraceEvent::ActiveSessions { count: 8 });
        r.record(&TraceEvent::ActiveSessions { count: 3 });
        let snap = r.snapshot();
        let text = snap.render_text();
        assert!(text.contains("# TYPE starlink_active_sessions_peak gauge"));
        assert!(text.contains("starlink_active_sessions_peak 8"));
        assert!(text.contains("starlink_active_sessions 3"));
        let back = Snapshot::parse_text(&text).unwrap();
        assert_eq!(back.counter("starlink_active_sessions_peak"), 8);
        assert_eq!(back.counter("starlink_queue_depth_peak"), 0);
    }

    #[test]
    fn snapshot_round_trips_through_exposition() {
        let r = Recorder::new();
        r.record(&TraceEvent::SessionStarted);
        r.record(&TraceEvent::SpanClosed {
            layer: Layer::Gamma,
            color: 2,
            nanos: 999,
        });
        let snap = r.snapshot();
        let back = Snapshot::parse_text(&snap.render_text()).unwrap();
        assert_eq!(back, snap);
    }
}
