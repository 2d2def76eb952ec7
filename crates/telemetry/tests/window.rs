//! The sliding window derived from cumulative counters: the cases of
//! the event-counting window it replaced (accumulate, expire, long gap,
//! racing timestamps), driven through an injected clock offset, the
//! span its counts cover, plus the lifetime counts it samples from a
//! recorder snapshot.

use starlink_telemetry::{
    window_families, CounterWindow, Layer, Recorder, Snapshot, TelemetrySink, TraceEvent,
    WindowConfig, WindowCounts,
};
use std::time::Duration;

fn secs(s: u64) -> Duration {
    Duration::from_secs(s)
}

fn window() -> CounterWindow {
    // 10 s window, 5 slots of 2 s.
    CounterWindow::new(WindowConfig {
        length: secs(10),
        slots: 5,
    })
}

fn started(n: u64) -> WindowCounts {
    WindowCounts {
        started: n,
        ..WindowCounts::default()
    }
}

fn failed(stages: &[(&str, u64)]) -> WindowCounts {
    WindowCounts {
        failed: stages.iter().map(|(_, n)| n).sum(),
        failures_by_stage: stages.iter().map(|(s, n)| (s.to_string(), *n)).collect(),
        ..WindowCounts::default()
    }
}

#[test]
fn counts_accumulate_within_the_window() {
    let w = window();
    w.observe(secs(1), started(1));
    w.observe(secs(3), started(2));
    let cumulative = WindowCounts {
        started: 2,
        abandoned: 1,
        ..failed(&[("mdl", 2), ("net", 1)])
    };
    let c = w.observe(secs(5), cumulative);
    assert_eq!(c.window_secs, 10);
    assert_eq!(c.started, 2);
    assert_eq!(c.failed, 3);
    assert_eq!(c.abandoned, 1);
    assert_eq!(
        c.failures_by_stage,
        vec![("mdl".to_owned(), 2), ("net".to_owned(), 1)]
    );
}

#[test]
fn old_counts_expire_as_time_advances() {
    let w = window();
    let one = failed(&[("mdl", 1)]);
    assert_eq!(w.observe(secs(2), one.clone()).failed, 1);
    // Younger than the window: the baseline is the zero sample.
    assert_eq!(w.observe(secs(9), one.clone()).failed, 1);
    // The window now starts at 20 s, after the 9 s sample.
    let c = w.observe(secs(30), one);
    assert_eq!(c.failed, 0);
    assert!(c.failures_by_stage.is_empty());
}

#[test]
fn a_long_gap_clears_the_whole_window() {
    let w = window();
    for s in 0..5 {
        w.observe(secs(s * 2), started(s + 1));
    }
    assert_eq!(w.observe(secs(9), started(5)).started, 5);
    assert_eq!(w.observe(secs(500), started(5)).started, 0);
}

#[test]
fn racing_earlier_timestamps_do_not_rewind_the_ring() {
    let w = window();
    w.observe(secs(8), started(1));
    // A reader that took its offset before the 8 s sample landed.
    assert_eq!(w.observe(secs(2), started(2)).started, 2);
    assert_eq!(w.observe(secs(9), started(2)).started, 2);
    // The window starts at 1 s. Had the 2 s sample been kept, it would
    // be the baseline here; the 8 s sample is.
    assert_eq!(w.observe(secs(11), started(3)).started, 2);
}

#[test]
fn the_window_never_covers_more_than_its_length() {
    let w = window();
    w.observe(secs(2), started(1));
    w.observe(secs(4), started(2));
    // The window starts at 2.5 s: the 2 s sample is outside it, so the
    // baseline is the 4 s sample and the counts cover 8.5 s, not 10.5 s.
    let c = w.observe(Duration::from_millis(12_500), started(5));
    assert_eq!((c.window_secs, c.started), (10, 3));
}

#[test]
fn a_sample_is_due_once_per_slot() {
    let w = window();
    assert!(!w.due(secs(1)));
    assert!(w.due(secs(2)));
    w.observe(secs(2), started(0));
    assert!(!w.due(secs(3)));
    assert!(w.due(secs(4)));
}

#[test]
fn lifetime_counts_come_from_the_recorder_snapshot() {
    let r = Recorder::new();
    r.record(&TraceEvent::SessionAccepted);
    for _ in 0..3 {
        r.record(&TraceEvent::SessionStarted);
    }
    r.record(&TraceEvent::SessionFinished {
        final_state: "s9",
        exchanges: 2,
    });
    for stage in ["net", "mdl", "net"] {
        r.record(&TraceEvent::SessionFailed {
            stage,
            layer: Layer::Wait,
        });
    }
    r.record(&TraceEvent::AcceptError);
    r.record(&TraceEvent::SessionStalled {
        state: "s2",
        waited_ms: 700,
    });
    // Events outside the lifecycle leave the counts alone.
    r.record(&TraceEvent::QueueDepth { depth: 3 });
    let c = WindowCounts::from_snapshot(&r.snapshot());
    assert_eq!((c.window_secs, c.accepted, c.started), (0, 1, 3));
    assert_eq!((c.finished, c.failed), (1, 3));
    assert_eq!((c.accept_errors, c.stalled, c.abandoned), (1, 1, 0));
    assert_eq!(
        c.failures_by_stage,
        vec![("mdl".to_owned(), 1), ("net".to_owned(), 2)]
    );
}

#[test]
fn families_round_trip_through_exposition() {
    let w = window();
    let c = w.observe(secs(1), failed(&[("gamma", 1)]));
    let snap = Snapshot {
        families: window_families("Add~Plus", &c),
    };
    let back = Snapshot::parse_text(&snap.render_text()).unwrap();
    assert_eq!(back, snap);
    assert_eq!(
        back.value("starlink_window_seconds", &[("pair", "Add~Plus")]),
        Some(10)
    );
    assert_eq!(
        back.value(
            "starlink_window_session_failures",
            &[("pair", "Add~Plus"), ("stage", "gamma")]
        ),
        Some(1)
    );
}
