//! End-to-end exposition check: a recorder fed a realistic event mix
//! renders text that parses back to the identical snapshot.

use starlink_telemetry::{
    AbandonReason, Layer, ProbeOutcome, Recorder, Snapshot, TelemetrySink, TraceEvent,
    TransitionKind,
};

#[test]
fn realistic_event_mix_round_trips() {
    let r = Recorder::new();
    for i in 0..50u64 {
        r.record(&TraceEvent::SessionStarted);
        r.record(&TraceEvent::Transition {
            from: "s0",
            to: "s1",
            kind: TransitionKind::Receive,
            color: 1,
        });
        r.record(&TraceEvent::DispatchProbe {
            outcome: if i % 7 == 0 {
                ProbeOutcome::Fallback
            } else {
                ProbeOutcome::Hit
            },
        });
        r.record(&TraceEvent::SpanClosed {
            layer: Layer::Parse,
            color: 1,
            nanos: 900 * (i + 1),
        });
        r.record(&TraceEvent::SpanClosed {
            layer: Layer::Gamma,
            color: 1,
            nanos: 40_000 + i,
        });
        r.record(&TraceEvent::SpanClosed {
            layer: Layer::Compose,
            color: 2,
            nanos: 2_500,
        });
        r.record(&TraceEvent::WireOut {
            color: 1,
            bytes: 300,
        });
        r.record(&TraceEvent::ActiveSessions {
            count: (i % 9) as usize,
        });
        r.record(&TraceEvent::SessionFinished {
            final_state: "s9",
            exchanges: 2,
        });
    }
    for stage in ["net", "mdl", "net"] {
        r.record(&TraceEvent::SessionFailed {
            stage,
            layer: Layer::Wait,
        });
    }
    r.record(&TraceEvent::SessionAbandoned {
        reason: AbandonReason::Timeout,
    });

    let snap = TelemetrySink::snapshot(&r).expect("recorder snapshots");
    let text = snap.render_text();
    let parsed = Snapshot::parse_text(&text).expect("own exposition parses");
    assert_eq!(parsed, snap);

    assert_eq!(parsed.counter("starlink_sessions_started_total"), 50);
    assert_eq!(parsed.counter("starlink_sessions_finished_total"), 50);
    // Failures are counted per stage; the family total sums them.
    assert_eq!(parsed.counter("starlink_sessions_failed_total"), 3);
    assert_eq!(
        parsed.value("starlink_sessions_failed_total", &[("stage", "net")]),
        Some(2)
    );
    assert_eq!(
        parsed.value("starlink_dispatch_probe_total", &[("outcome", "fallback")]),
        Some(8)
    );
    assert_eq!(parsed.counter("starlink_active_sessions_peak"), 8);
    assert_eq!(
        parsed.value(
            "starlink_sessions_abandoned_total",
            &[("reason", "timeout")]
        ),
        Some(1)
    );
    let parse_hist = parsed.family("starlink_parse_duration_ns").unwrap();
    assert_eq!(parse_hist.count, Some(50));
    assert_eq!(
        parsed.value(
            "starlink_layer_sum_ns",
            &[("layer", "compose"), ("color", "2")]
        ),
        Some(50 * 2_500)
    );
    assert_eq!(
        parsed.value(
            "starlink_layer_count",
            &[("layer", "gamma"), ("color", "1")]
        ),
        Some(50)
    );
}
