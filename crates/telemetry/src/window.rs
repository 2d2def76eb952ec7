//! Sliding-window counts, derived from the cumulative counters.
//!
//! The [`crate::Recorder`] answers "how much, ever" — cumulative counters
//! since deployment. An operator watching a live bridge needs "how much,
//! *lately*": a mediator that failed a thousand sessions last week but
//! none in the past minute is healthy; one failing ten per second right
//! now is not. [`CounterWindow`] answers that from the same counters
//! instead of counting events a second time: it keeps a small ring of
//! cumulative samples ([`WindowCounts::from_snapshot`]), at most one per
//! slot, and a window's counts are the newest sample minus the oldest
//! sample at or after `now - length`, so they never cover more than the
//! window's length. While the host is younger than the window, the
//! baseline is the zero sample taken at creation.
//!
//! Sampling is the host's business: it samples on every read and
//! whenever a slot boundary passes ([`CounterWindow::due`]), so the
//! event path pays nothing for windows.

use crate::snapshot::{MetricFamily, MetricKind, Sample, Snapshot};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Shape of a sliding window: total length and slot count (resolution).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowConfig {
    /// Total window length; counts older than this fall out.
    pub length: Duration,
    /// Number of slots the window is divided into: the ring keeps one
    /// cumulative sample per slot, so more slots mean smoother expiry at
    /// slightly more memory; the slot width is `length / slots`.
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

/// Lifecycle counts over a window (or, with `window_secs` 0, over the
/// host's lifetime).
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

impl WindowCounts {
    /// Lifetime counts read from a snapshot's cumulative counters, as a
    /// window of unspecified length (`window_secs` 0). Failures by stage
    /// come from the `stage` labels of `starlink_sessions_failed_total`.
    pub fn from_snapshot(snap: &Snapshot) -> WindowCounts {
        let mut failures_by_stage: Vec<(String, u64)> = snap
            .family("starlink_sessions_failed_total")
            .into_iter()
            .flat_map(|family| &family.samples)
            .filter_map(|sample| Some((sample.labels.first()?.1.clone(), sample.value)))
            .collect();
        failures_by_stage.sort();
        WindowCounts {
            window_secs: 0,
            started: snap.counter("starlink_sessions_started_total"),
            finished: snap.counter("starlink_sessions_finished_total"),
            failed: snap.counter("starlink_sessions_failed_total"),
            abandoned: snap.counter("starlink_sessions_abandoned_total"),
            accepted: snap.counter("starlink_sessions_accepted_total"),
            accept_errors: snap.counter("starlink_accept_errors_total"),
            stalled: snap.counter("starlink_sessions_stalled_total"),
            failures_by_stage,
        }
    }

    /// What accrued from cumulative `baseline` to cumulative `self`;
    /// stages without new failures are left out.
    fn since(&self, baseline: &WindowCounts) -> WindowCounts {
        let base_failures = |stage: &str| {
            baseline
                .failures_by_stage
                .iter()
                .find(|(s, _)| s == stage)
                .map_or(0, |(_, n)| *n)
        };
        WindowCounts {
            window_secs: self.window_secs,
            started: self.started.saturating_sub(baseline.started),
            finished: self.finished.saturating_sub(baseline.finished),
            failed: self.failed.saturating_sub(baseline.failed),
            abandoned: self.abandoned.saturating_sub(baseline.abandoned),
            accepted: self.accepted.saturating_sub(baseline.accepted),
            accept_errors: self.accept_errors.saturating_sub(baseline.accept_errors),
            stalled: self.stalled.saturating_sub(baseline.stalled),
            failures_by_stage: self
                .failures_by_stage
                .iter()
                .map(|(stage, n)| (stage.clone(), n.saturating_sub(base_failures(stage))))
                .filter(|(_, n)| *n > 0)
                .collect(),
        }
    }
}

/// A sliding window over cumulative lifecycle counts: a ring of
/// cumulative samples, at most one per slot, from which
/// [`CounterWindow::observe`] subtracts the oldest sample at or after
/// the window's start.
///
/// [`CounterWindow::due`] is one atomic load, so a host loop can ask it
/// on every wake-up; the sample ring's mutex is taken only to sample.
/// The slot index is only written under that mutex, so a stale read
/// costs at most one extra locked check.
pub struct CounterWindow {
    length: Duration,
    slot_len: Duration,
    epoch: Instant,
    /// Slot index of the newest sample.
    newest_slot: AtomicU64,
    /// `(offset since epoch, cumulative counts)`, oldest first; starts
    /// with a zero sample at offset 0.
    samples: Mutex<VecDeque<(Duration, WindowCounts)>>,
}

impl CounterWindow {
    /// A window of the given shape whose clock starts now, holding the
    /// zero sample.
    pub fn new(config: WindowConfig) -> CounterWindow {
        let slots = config.slots.max(2);
        let slot_len = (config.length / slots as u32).max(Duration::from_millis(1));
        let mut samples = VecDeque::with_capacity(slots + 2);
        samples.push_back((Duration::ZERO, WindowCounts::default()));
        CounterWindow {
            length: slot_len * slots as u32,
            slot_len,
            epoch: Instant::now(),
            newest_slot: AtomicU64::new(0),
            samples: Mutex::new(samples),
        }
    }

    /// Time since the window was created: the offset to pass to
    /// [`CounterWindow::due`] and [`CounterWindow::observe`].
    pub fn elapsed(&self) -> Duration {
        self.epoch.elapsed()
    }

    fn slot(&self, offset: Duration) -> u64 {
        (offset.as_nanos() / self.slot_len.as_nanos()) as u64
    }

    /// Whether a slot boundary has passed since the newest sample, i.e.
    /// whether a sample taken at `offset` would be kept.
    pub fn due(&self, offset: Duration) -> bool {
        self.slot(offset) > self.newest_slot.load(Ordering::Relaxed)
    }

    /// Takes `cumulative` as the sample at `offset` — kept when it is the
    /// first of its slot — and returns the counts over the window ending
    /// at `offset`. A racing caller whose offset predates the newest
    /// sample still gets its counts, but never rewinds the ring.
    pub fn observe(&self, offset: Duration, cumulative: WindowCounts) -> WindowCounts {
        let mut samples = self
            .samples
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let start = offset.checked_sub(self.length);
        let within = |at: &Duration| start.is_none_or(|start| *at >= start);
        // No sample inside the window (a long gap): nothing is known to
        // have happened in it.
        let baseline = samples
            .iter()
            .find(|(at, _)| within(at))
            .map_or(&cumulative, |(_, counts)| counts);
        let mut counts = cumulative.since(baseline);
        counts.window_secs = self.length.as_secs();
        let slot = self.slot(offset);
        if slot > self.newest_slot.load(Ordering::Relaxed) {
            self.newest_slot.store(slot, Ordering::Relaxed);
            // Samples before the window's start can never be a baseline
            // again.
            while samples.front().is_some_and(|(at, _)| !within(at)) {
                samples.pop_front();
            }
            samples.push_back((offset, cumulative));
        }
        counts
    }
}

/// Renders windowed counts as gauge families (counts over the last N
/// seconds, *not* cumulative), each sample labelled with the pair. The
/// diagnostics snapshot carries them next to the recorder's lifetime
/// families.
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
