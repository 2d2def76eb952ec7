//! Sliding-window aggregation: event counts over the last N seconds.
//!
//! The [`crate::Recorder`] answers "how much, ever" — cumulative counters
//! since deployment. An operator watching a live bridge needs "how much,
//! *lately*": a mediator that failed a thousand sessions last week but
//! none in the past minute is healthy; one failing ten per second right
//! now is not. [`WindowAggregator`] is a [`TelemetrySink`] that buckets
//! the lifecycle events the health model cares about (sessions
//! started/finished/failed/abandoned, accepts, accept errors, stalls, per-stage
//! failures) into a ring of fixed-width time slots and sums the live
//! slots on demand, yielding counts over a sliding window.
//!
//! The window rides the existing event stream — nothing new is emitted;
//! the aggregator is simply fanned out next to the recorder by
//! `Mediator::enable_ops`. When no sink is installed the engine's no-op
//! gate skips event construction entirely, so windows cost nothing in
//! uninstrumented deployments.

use crate::event::TraceEvent;
use crate::sink::TelemetrySink;
use crate::snapshot::{MetricFamily, MetricKind, Sample};
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Shape of a sliding window: total length and slot count (resolution).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowConfig {
    /// Total window length; counts older than this fall out.
    pub length: Duration,
    /// Number of ring slots the window is divided into. More slots mean
    /// smoother expiry at slightly more memory; the slot width is
    /// `length / slots`.
    pub slots: usize,
}

impl Default for WindowConfig {
    fn default() -> Self {
        WindowConfig {
            length: Duration::from_secs(60),
            slots: 12,
        }
    }
}

impl WindowConfig {
    /// A window of `length` with the default slot count.
    pub fn over(length: Duration) -> WindowConfig {
        WindowConfig {
            length,
            ..WindowConfig::default()
        }
    }
}

/// One slot's worth of counts.
#[derive(Debug, Default, Clone)]
struct Slot {
    started: u64,
    finished: u64,
    failed: u64,
    abandoned: u64,
    accepted: u64,
    accept_errors: u64,
    stalled: u64,
    /// Failure counts keyed by `CoreError::stage_label` (low
    /// cardinality by construction).
    by_stage: HashMap<String, u64>,
}

struct Ring {
    slots: Vec<Slot>,
    /// Absolute index of the slot currently being written (monotonic;
    /// `head % slots.len()` is the ring position).
    head: u64,
}

/// Event counts observed within the window, summed over live slots.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WindowCounts {
    /// The window these counts cover, in seconds.
    pub window_secs: u64,
    /// Traversals started.
    pub started: u64,
    /// Traversals that reached an accepting state.
    pub finished: u64,
    /// Traversals that failed (orderly ends excluded at the source).
    pub failed: u64,
    /// Traversals that ended without finishing or failing (timeout,
    /// closed connection, dropped session).
    pub abandoned: u64,
    /// Client connections accepted.
    pub accepted: u64,
    /// Transient accept-loop errors.
    pub accept_errors: u64,
    /// Sessions flagged stalled by a watchdog.
    pub stalled: u64,
    /// Failures by stage label, sorted by stage name.
    pub failures_by_stage: Vec<(String, u64)>,
}

/// A [`TelemetrySink`] maintaining sliding-window counts of lifecycle
/// events, labelled with the merged-automaton pair it observes.
///
/// `record` takes one short mutex (windows sit next to the recorder on
/// already-instrumented deployments; the guarded work is a handful of
/// integer increments). Events outside the health model's interest are
/// filtered before the lock.
pub struct WindowAggregator {
    /// Label applied to every exposed family: the merged automaton
    /// (protocol pair) this window observes.
    pair: String,
    slot_len: Duration,
    slots: usize,
    epoch: Instant,
    ring: Mutex<Ring>,
}

impl WindowAggregator {
    /// A window for the given merged-automaton pair label.
    pub fn new(pair: &str, config: WindowConfig) -> WindowAggregator {
        let slots = config.slots.max(2);
        let slot_len = (config.length / slots as u32).max(Duration::from_millis(1));
        WindowAggregator {
            pair: pair.to_owned(),
            slot_len,
            slots,
            epoch: Instant::now(),
            ring: Mutex::new(Ring {
                slots: vec![Slot::default(); slots],
                head: 0,
            }),
        }
    }

    /// The merged-automaton pair label this window carries.
    pub fn pair(&self) -> &str {
        &self.pair
    }

    /// The total window length.
    pub fn length(&self) -> Duration {
        self.slot_len * self.slots as u32
    }

    /// Records an event as if it happened `offset` after the aggregator
    /// was created. Deterministic-time entry point used by tests;
    /// [`TelemetrySink::record`] feeds it `epoch.elapsed()`.
    pub fn record_at(&self, offset: Duration, event: &TraceEvent<'_>) {
        // Filter before locking: most events are not windowed.
        let stage: Option<&str> = match *event {
            TraceEvent::SessionStarted
            | TraceEvent::SessionFinished { .. }
            | TraceEvent::SessionAbandoned { .. }
            | TraceEvent::SessionAccepted
            | TraceEvent::AcceptError
            | TraceEvent::SessionStalled { .. } => None,
            TraceEvent::SessionFailed { stage } => Some(stage),
            _ => return,
        };
        let idx = (offset.as_nanos() / self.slot_len.as_nanos().max(1)) as u64;
        let mut ring = self
            .ring
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        advance(&mut ring, idx);
        let len = ring.slots.len();
        let slot = &mut ring.slots[(idx % len as u64) as usize];
        match *event {
            TraceEvent::SessionStarted => slot.started += 1,
            TraceEvent::SessionFinished { .. } => slot.finished += 1,
            TraceEvent::SessionAbandoned { .. } => slot.abandoned += 1,
            TraceEvent::SessionFailed { .. } => {
                slot.failed += 1;
                let stage = stage.unwrap_or("unknown");
                *slot.by_stage.entry(stage.to_owned()).or_insert(0) += 1;
            }
            TraceEvent::SessionAccepted => slot.accepted += 1,
            TraceEvent::AcceptError => slot.accept_errors += 1,
            TraceEvent::SessionStalled { .. } => slot.stalled += 1,
            _ => unreachable!("filtered above"),
        }
    }

    /// Counts over the window as of `offset` after creation
    /// (deterministic-time entry point; [`WindowAggregator::counts`]
    /// feeds it `epoch.elapsed()`). Slots older than the window are
    /// expired first.
    pub fn counts_at(&self, offset: Duration) -> WindowCounts {
        let idx = (offset.as_nanos() / self.slot_len.as_nanos().max(1)) as u64;
        let mut ring = self
            .ring
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        advance(&mut ring, idx);
        let mut counts = WindowCounts {
            window_secs: self.length().as_secs(),
            ..WindowCounts::default()
        };
        let mut by_stage: HashMap<&str, u64> = HashMap::new();
        for slot in &ring.slots {
            counts.started += slot.started;
            counts.finished += slot.finished;
            counts.failed += slot.failed;
            counts.abandoned += slot.abandoned;
            counts.accepted += slot.accepted;
            counts.accept_errors += slot.accept_errors;
            counts.stalled += slot.stalled;
            for (stage, n) in &slot.by_stage {
                *by_stage.entry(stage).or_insert(0) += n;
            }
        }
        counts.failures_by_stage = by_stage
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect();
        counts.failures_by_stage.sort();
        counts
    }

    /// Counts over the window ending now.
    pub fn counts(&self) -> WindowCounts {
        self.counts_at(self.epoch.elapsed())
    }

    /// The window rendered as gauge families (counts over the last N
    /// seconds, *not* cumulative), each sample labelled with the pair.
    /// Merged into the diagnostics snapshot next to the recorder's
    /// lifetime families.
    pub fn families(&self) -> Vec<MetricFamily> {
        window_families(&self.pair, &self.counts())
    }
}

/// Renders windowed counts as labelled gauge families. Split out so the
/// exposition shape is testable without an aggregator (and so health
/// snapshots built from parsed text can re-render identically).
pub fn window_families(pair: &str, counts: &WindowCounts) -> Vec<MetricFamily> {
    let sample = |value: u64| Sample {
        labels: vec![("pair".to_owned(), pair.to_owned())],
        value,
    };
    let gauge =
        |name: &str, value: u64| MetricFamily::simple(name, MetricKind::Gauge, vec![sample(value)]);
    let mut families = vec![
        gauge("starlink_window_seconds", counts.window_secs),
        gauge("starlink_window_sessions_started", counts.started),
        gauge("starlink_window_sessions_finished", counts.finished),
        gauge("starlink_window_sessions_failed", counts.failed),
        gauge("starlink_window_sessions_abandoned", counts.abandoned),
        gauge("starlink_window_sessions_accepted", counts.accepted),
        gauge("starlink_window_accept_errors", counts.accept_errors),
        gauge("starlink_window_sessions_stalled", counts.stalled),
    ];
    if !counts.failures_by_stage.is_empty() {
        let samples = counts
            .failures_by_stage
            .iter()
            .map(|(stage, n)| Sample {
                labels: vec![
                    ("pair".to_owned(), pair.to_owned()),
                    ("stage".to_owned(), stage.clone()),
                ],
                value: *n,
            })
            .collect();
        families.push(MetricFamily::simple(
            "starlink_window_session_failures",
            MetricKind::Gauge,
            samples,
        ));
    }
    families
}

fn advance(ring: &mut Ring, idx: u64) {
    if idx <= ring.head {
        return; // same slot, or a racing earlier timestamp: keep it
    }
    let len = ring.slots.len() as u64;
    // Clear every slot between the old head and the new one; a jump
    // longer than the ring clears everything once.
    let steps = (idx - ring.head).min(len);
    for i in 1..=steps {
        let pos = ((ring.head + i) % len) as usize;
        ring.slots[pos] = Slot::default();
    }
    ring.head = idx;
}

impl TelemetrySink for WindowAggregator {
    fn record(&self, event: &TraceEvent<'_>) {
        self.record_at(self.epoch.elapsed(), event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> Duration {
        Duration::from_secs(s)
    }

    fn window() -> WindowAggregator {
        // 10 s window, 5 slots of 2 s.
        WindowAggregator::new(
            "Add~Plus",
            WindowConfig {
                length: secs(10),
                slots: 5,
            },
        )
    }

    #[test]
    fn counts_accumulate_within_the_window() {
        let w = window();
        w.record_at(secs(1), &TraceEvent::SessionStarted);
        w.record_at(secs(3), &TraceEvent::SessionStarted);
        w.record_at(
            secs(3),
            &TraceEvent::SessionAbandoned {
                reason: crate::AbandonReason::Closed,
            },
        );
        w.record_at(secs(3), &TraceEvent::SessionFailed { stage: "mdl" });
        w.record_at(secs(4), &TraceEvent::SessionFailed { stage: "net" });
        w.record_at(secs(4), &TraceEvent::SessionFailed { stage: "mdl" });
        let c = w.counts_at(secs(5));
        assert_eq!(c.started, 2);
        assert_eq!(c.failed, 3);
        assert_eq!(c.abandoned, 1);
        assert_eq!(
            c.failures_by_stage,
            vec![("mdl".to_owned(), 2), ("net".to_owned(), 1)]
        );
    }

    #[test]
    fn old_slots_expire_as_time_advances() {
        let w = window();
        w.record_at(secs(1), &TraceEvent::SessionFailed { stage: "mdl" });
        assert_eq!(w.counts_at(secs(2)).failed, 1);
        // 1 s lands in slot 0; the window is 10 s with 2 s slots, so the
        // failure expires once the head has moved 5 slots past it.
        assert_eq!(w.counts_at(secs(9)).failed, 1);
        assert_eq!(w.counts_at(secs(30)).failed, 0);
        assert!(w.counts_at(secs(30)).failures_by_stage.is_empty());
    }

    #[test]
    fn a_long_gap_clears_the_whole_ring() {
        let w = window();
        for s in 0..5 {
            w.record_at(secs(s * 2), &TraceEvent::SessionStarted);
        }
        assert_eq!(w.counts_at(secs(9)).started, 5);
        assert_eq!(w.counts_at(secs(500)).started, 0);
    }

    #[test]
    fn uninteresting_events_are_ignored() {
        let w = window();
        w.record_at(
            secs(1),
            &TraceEvent::SpanClosed {
                layer: crate::Layer::Parse,
                color: 1,
                nanos: 100,
            },
        );
        w.record_at(secs(1), &TraceEvent::QueueDepth { depth: 3 });
        assert_eq!(w.counts_at(secs(1)), {
            WindowCounts {
                window_secs: 10,
                ..WindowCounts::default()
            }
        });
    }

    #[test]
    fn stalls_and_accept_errors_are_windowed() {
        let w = window();
        w.record_at(
            secs(1),
            &TraceEvent::SessionStalled {
                state: "s2",
                waited_ms: 700,
            },
        );
        w.record_at(secs(1), &TraceEvent::AcceptError);
        w.record_at(secs(2), &TraceEvent::SessionAccepted);
        let c = w.counts_at(secs(3));
        assert_eq!(c.stalled, 1);
        assert_eq!(c.accept_errors, 1);
        assert_eq!(c.accepted, 1);
    }

    #[test]
    fn families_round_trip_through_exposition() {
        let w = window();
        w.record_at(secs(1), &TraceEvent::SessionStarted);
        w.record_at(secs(1), &TraceEvent::SessionFailed { stage: "gamma" });
        let snap = crate::Snapshot {
            families: w.families(),
        };
        let back = crate::Snapshot::parse_text(&snap.render_text()).unwrap();
        assert_eq!(back, snap);
        assert_eq!(
            back.value("starlink_window_sessions_started", &[("pair", "Add~Plus")]),
            Some(1)
        );
        assert_eq!(
            back.value(
                "starlink_window_session_failures",
                &[("pair", "Add~Plus"), ("stage", "gamma")]
            ),
            Some(1)
        );
    }

    #[test]
    fn racing_earlier_timestamps_do_not_rewind_the_head() {
        let w = window();
        w.record_at(secs(8), &TraceEvent::SessionStarted);
        // A thread that computed its offset before the head advanced.
        w.record_at(secs(2), &TraceEvent::SessionStarted);
        assert_eq!(w.counts_at(secs(9)).started, 2);
    }
}
