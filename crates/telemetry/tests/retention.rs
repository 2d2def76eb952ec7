//! Retention behaviour of the bounded trace store, plus a property
//! check that the exposition format stays lossless when the operations
//! plane's window and health families ride along in a snapshot.

use proptest::prelude::*;
use starlink_telemetry::{
    chrome_events, evaluate_pair, render_chrome_json, validate_chrome_trace, window_families,
    HealthInputs, HealthThresholds, Layer, Recorder, SessionTraceId, SessionTracer, Snapshot,
    TelemetrySink, TraceBuffer, TraceEvent, WindowCounts,
};
use std::time::Instant;

#[test]
fn trace_buffer_counts_every_truncated_record_exactly() {
    // Floor of 16 records per trace: open(1) + 25 events + close(1) is
    // 27 attempts. The first 16 and the root's close are kept, so
    // exactly 10 must be dropped and tallied.
    let buffer = TraceBuffer::with_capacity(1, 16);
    let tracer = SessionTracer::new();
    let root = tracer.open(&buffer, Layer::Session, 1, Instant::now());
    for i in 0..25u64 {
        tracer.record(
            &buffer,
            &TraceEvent::WireOut {
                color: 1,
                bytes: i as usize,
            },
        );
    }
    tracer.close(&buffer, root, Instant::now(), 0);

    assert_eq!(buffer.truncated_records(), 10);
    let trace = buffer.latest().expect("root close completes the trace");
    assert_eq!(trace.records.len(), 17);
    // The drop policy is keep-oldest, but the root's close survives, so
    // the export of a truncated trace stays balanced and valid.
    assert_eq!(buffer.traces().len(), 1);
    let json = render_chrome_json(&chrome_events(&trace));
    let stats = validate_chrome_trace(&json).expect("truncated trace exports validly");
    assert_eq!(stats.span_pairs, 1);

    // A second, smaller session on the same buffer leaves the tally
    // untouched — truncation is counted per record, not per trace.
    let tracer = SessionTracer::new();
    let root = tracer.open(&buffer, Layer::Session, 1, Instant::now());
    tracer.close(&buffer, root, Instant::now(), 0);
    assert_eq!(buffer.truncated_records(), 10);
    assert_eq!(buffer.traces().len(), 1, "capacity 1 evicts the old trace");
}

/// One traversal on a fresh session, failing under `stage` when given.
fn traversal(buffer: &TraceBuffer, failed_stage: Option<&str>) -> SessionTraceId {
    let tracer = SessionTracer::new();
    let root = tracer.open(buffer, Layer::Session, 1, Instant::now());
    if let Some(stage) = failed_stage {
        let event = TraceEvent::SessionFailed {
            stage,
            layer: Layer::Gamma,
        };
        tracer.record(buffer, &event);
    }
    tracer.close(buffer, root, Instant::now(), 0);
    tracer.session()
}

#[test]
fn failed_traces_are_kept_apart_four_per_stage() {
    let buffer = TraceBuffer::with_capacity(2, 64);
    let mtl: Vec<SessionTraceId> = (0..5).map(|_| traversal(&buffer, Some("mtl"))).collect();
    let net = traversal(&buffer, Some("net"));
    let good: Vec<SessionTraceId> = (0..5).map(|_| traversal(&buffer, None)).collect();
    // The last four failures of each stage outlive later successes, and
    // every kept trace comes back in completion order.
    let kept: Vec<SessionTraceId> = buffer.traces().iter().map(|t| t.session).collect();
    let expected: Vec<SessionTraceId> = mtl[1..]
        .iter()
        .chain([&net, &good[3], &good[4]])
        .copied()
        .collect();
    assert_eq!(kept, expected);
    let trace = buffer.trace(net).expect("a kept failure is found by id");
    let failure = trace.records.iter().find(|r| r.name == "session-failed");
    assert_eq!(failure.unwrap().detail, "stage=net layer=gamma");
    assert_eq!(buffer.latest().unwrap().session, good[4]);
}

const STAGES: [&str; 4] = ["parse", "translate", "net", "stalled"];

proptest! {
    /// A recorder snapshot with window and health families appended —
    /// exactly what the diagnostics endpoint serves — survives
    /// render→parse without loss.
    #[test]
    fn snapshot_with_window_and_health_families_round_trips(
        sessions in 0u64..500,
        failed in 0u64..500,
        accept_errors in 0u64..100,
        stalled in 0u64..50,
        queue_depth in 0u64..64,
        stage_counts in proptest::collection::vec(1u64..1_000, 0..4),
    ) {
        let recorder = Recorder::new();
        for _ in 0..sessions {
            recorder.record(&TraceEvent::SessionStarted);
            recorder.record(&TraceEvent::SessionFinished { final_state: "s9", exchanges: 1 });
        }
        let mut snapshot = TelemetrySink::snapshot(&recorder).expect("recorder snapshots");

        let counts = WindowCounts {
            window_secs: 60,
            started: sessions + failed,
            finished: sessions,
            failed,
            abandoned: sessions / 2,
            accepted: sessions + failed,
            accept_errors,
            stalled,
            failures_by_stage: stage_counts
                .iter()
                .enumerate()
                .map(|(i, &n)| (STAGES[i].to_owned(), n))
                .collect(),
        };
        snapshot.families.extend(window_families("A~B", &counts));

        let pair = evaluate_pair(
            &HealthInputs {
                pair: "A~B".to_owned(),
                window: counts,
                queue_depth,
                queue_capacity: 64,
                stalled_now: stalled,
            },
            &HealthThresholds::default(),
        );
        snapshot.families.extend(pair.families());

        let text = snapshot.render_text();
        let parsed = Snapshot::parse_text(&text).expect("own exposition parses");
        prop_assert_eq!(parsed, snapshot);
    }
}
