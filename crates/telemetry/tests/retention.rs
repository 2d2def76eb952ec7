//! Retention behaviour of the bounded trace stores, plus a property
//! check that the exposition format stays lossless when the operations
//! plane's window and health families ride along in a snapshot.

use proptest::prelude::*;
use starlink_telemetry::{
    evaluate_pair, window_families, HealthInputs, HealthThresholds, Layer, Recorder, SessionTracer,
    Snapshot, TelemetrySink, TraceBuffer, TraceEvent, WindowCounts,
};
use std::time::Instant;

/// Parses a lifecycle-ring entry's `+<nanos>ns ` prefix.
fn ring_offset_ns(entry: &str) -> u64 {
    let rest = entry.strip_prefix('+').expect("entry starts with +");
    let (digits, _) = rest.split_once("ns ").expect("entry has ns marker");
    digits.parse().expect("offset is an integer")
}

#[test]
fn trace_buffer_counts_every_truncated_record_exactly() {
    // Floor of 16 records per trace: open(1) + 25 events + close(1) is
    // 27 attempts, so exactly 11 must be dropped and tallied.
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

    assert_eq!(buffer.truncated_records(), 11);
    let trace = buffer.latest().expect("root close completes the trace");
    assert_eq!(trace.records.len(), 16);
    // The drop policy is keep-oldest: the root open survives, the close
    // marker is among the truncated tail.
    assert_eq!(buffer.traces().len(), 1);

    // A second, smaller session on the same buffer leaves the tally
    // untouched — truncation is counted per record, not per trace.
    let tracer = SessionTracer::new();
    let root = tracer.open(&buffer, Layer::Session, 1, Instant::now());
    tracer.close(&buffer, root, Instant::now(), 0);
    assert_eq!(buffer.truncated_records(), 11);
    assert_eq!(buffer.traces().len(), 1, "capacity 1 evicts the old trace");
}

#[test]
fn recorder_lifecycle_ring_wraps_and_stays_monotonic() {
    let recorder = Recorder::with_ring_capacity(4);
    for i in 0..7usize {
        recorder.record(&TraceEvent::SessionFinished {
            final_state: "s9",
            exchanges: i,
        });
    }
    let recent = recorder.recent();
    assert_eq!(recent.len(), 4, "ring keeps only the newest entries");
    // The oldest three entries were evicted: what remains are the
    // records for exchanges 3..=6, in order.
    for (entry, exchanges) in recent.iter().zip(3usize..) {
        assert!(
            entry.contains(&format!("exchanges: {exchanges}")),
            "expected exchanges {exchanges} in {entry}"
        );
    }
    // Offsets are stamped from one epoch, so they never go backwards —
    // even across the wraparound.
    let offsets: Vec<u64> = recent.iter().map(|e| ring_offset_ns(e)).collect();
    assert!(
        offsets.windows(2).all(|w| w[0] <= w[1]),
        "ring offsets must be monotonic: {offsets:?}"
    );
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
