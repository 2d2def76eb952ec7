//! Operations-plane configuration and the live session directory.
//!
//! The telemetry crate owns the *mechanisms* — the host's one aggregate
//! ([`starlink_telemetry::Recorder`]), the sliding window derived from
//! its counters ([`starlink_telemetry::CounterWindow`]), the health model
//! ([`starlink_telemetry::PairHealth`]) — while this module owns the
//! *policy* a deployment opts into: the window's shape, how long an
//! awaiting session may sit silent before the watchdog flags it
//! ([`WatchdogConfig`]), whether a flagged session is merely observed or
//! aborted so its worker slot is reclaimed ([`StallPolicy`]), which
//! thresholds grade the health report, and the [`SessionDirectory`] the
//! diagnostics endpoint renders for the `sessions` selector.
//!
//! The window adds no sink: the host samples the recorder's cumulative
//! counters on each diagnostics read and whenever its accept loop (or
//! the multiplexed coordinator) wakes past a slot boundary.
//!
//! Everything here is opt-in via `Mediator::enable_ops`; a mediator that
//! never calls it pays nothing (the engine's no-op-sink gate stays one
//! branch per instrumentation site).

use crate::error::CoreError;
use crate::session_core::SessionCore;
use crate::Result;
use starlink_telemetry::{
    CounterWindow, HealthThresholds, Snapshot, TelemetrySink, TraceEvent, WindowConfig,
    WindowCounts,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// What a watchdog does with a session it has flagged as stalled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StallPolicy {
    /// Flag only: emit `TraceEvent::SessionStalled`, raise the gauge,
    /// degrade health — but leave the session alone (it may still
    /// recover, and the mediator's receive timeout will eventually
    /// restart it).
    #[default]
    Observe,
    /// Flag, then abort the session with [`crate::CoreError::Stalled`]
    /// so its worker slot (and parked-connection entry) is reclaimed.
    /// The root span closes, completing the trace; the failure counts
    /// under stage `"stalled"`.
    Abort,
}

/// Stall-watchdog configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// How long a session may sit awaiting a receive before it is
    /// flagged. Must be shorter than the mediator's receive timeout to
    /// fire before the timeout restarts the traversal (the watchdog
    /// clamps itself to that invariant at deploy time).
    pub stall_after: Duration,
    /// What to do with a flagged session.
    pub policy: StallPolicy,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            stall_after: Duration::from_secs(10),
            policy: StallPolicy::Observe,
        }
    }
}

/// Everything `Mediator::enable_ops` installs: window shape, watchdog
/// policy, and health thresholds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OpsConfig {
    /// Sliding-window shape for the windowed counts.
    pub window: WindowConfig,
    /// Stall watchdog; `None` disables the sweep (windows and health
    /// still work, minus the stalled-session signal).
    pub watchdog: Option<WatchdogConfig>,
    /// Health-check thresholds.
    pub thresholds: HealthThresholds,
}

impl OpsConfig {
    /// Observe-only ops plane with default window and thresholds and a
    /// watchdog flagging sessions silent for `stall_after`.
    pub fn watching(stall_after: Duration) -> OpsConfig {
        OpsConfig {
            watchdog: Some(WatchdogConfig {
                stall_after,
                policy: StallPolicy::Observe,
            }),
            ..OpsConfig::default()
        }
    }

    /// Like [`OpsConfig::watching`], but stalled sessions are aborted so
    /// their worker slots are reclaimed.
    pub fn aborting(stall_after: Duration) -> OpsConfig {
        OpsConfig {
            watchdog: Some(WatchdogConfig {
                stall_after,
                policy: StallPolicy::Abort,
            }),
            ..OpsConfig::default()
        }
    }
}

/// The operations plane a deployed host threads through to its drivers:
/// the counter window, the stall watchdog's policy and live gauge, the
/// session directory, and the host's aggregating sink, which the window
/// samples and the watchdog emits gauge updates through. Built once per
/// deployment from the mediator's [`OpsConfig`]; hosts and drivers share
/// it behind an `Arc`.
pub(crate) struct OpsRuntime {
    window: CounterWindow,
    pub thresholds: HealthThresholds,
    pub watchdog: Option<WatchdogConfig>,
    pub directory: SessionDirectory,
    pub sink: Arc<dyn TelemetrySink>,
    stalled_now: AtomicUsize,
    next_id: AtomicU64,
}

impl OpsRuntime {
    pub(crate) fn new(
        window: WindowConfig,
        thresholds: HealthThresholds,
        watchdog: Option<WatchdogConfig>,
        sink: Arc<dyn TelemetrySink>,
    ) -> OpsRuntime {
        OpsRuntime {
            window: CounterWindow::new(window),
            thresholds,
            watchdog,
            directory: SessionDirectory::new(),
            sink,
            stalled_now: AtomicUsize::new(0),
            next_id: AtomicU64::new(0),
        }
    }

    /// Counts over the window ending now, sampling `lifetime` (the host
    /// sink's snapshot) on the way.
    pub(crate) fn window_counts(&self, lifetime: &Snapshot) -> WindowCounts {
        let now = self.window.elapsed();
        self.window
            .observe(now, WindowCounts::from_snapshot(lifetime))
    }

    /// Called by the host loops on every wake-up: samples the counters
    /// once a slot boundary has passed, so the window keeps its
    /// baselines however rarely it is read.
    pub(crate) fn tick(&self) {
        let now = self.window.elapsed();
        if self.window.due(now) {
            let lifetime = self.sink.snapshot().unwrap_or_default();
            self.window
                .observe(now, WindowCounts::from_snapshot(&lifetime));
        }
    }

    /// Registers a freshly accepted session in the directory under the
    /// next id (accept order) and returns its watch.
    pub(crate) fn watch_new_session(self: &Arc<Self>) -> SessionWatch {
        let id = self.next_id.fetch_add(1, Ordering::SeqCst) + 1;
        self.directory.upsert(SessionEntry {
            id,
            state: "accepted".to_owned(),
            awaiting: None,
            since: Instant::now(),
            stalled: false,
        });
        SessionWatch {
            ops: self.clone(),
            id,
        }
    }

    /// Sessions flagged stalled right now.
    pub(crate) fn stalled_now(&self) -> usize {
        self.stalled_now.load(Ordering::SeqCst)
    }

    /// Raises the stalled gauge by one (a stall episode began) and emits
    /// the new count so recorder gauges track it.
    pub(crate) fn stall_raised(&self) {
        let count = self.stalled_now.fetch_add(1, Ordering::SeqCst) + 1;
        self.sink.record(&TraceEvent::StalledSessions { count });
    }

    /// Lowers the stalled gauge by one (the episode ended: bytes arrived,
    /// the traversal timed out and restarted, or the session was
    /// aborted). Calls are balanced against [`OpsRuntime::stall_raised`].
    pub(crate) fn stall_lowered(&self) {
        let count = self
            .stalled_now
            .fetch_sub(1, Ordering::SeqCst)
            .saturating_sub(1);
        self.sink.record(&TraceEvent::StalledSessions { count });
    }
}

/// One session's view of the operations plane: the host's shared
/// runtime plus the session's directory id. Both host shapes hold one
/// per session when ops are enabled (`None` otherwise, so a plain host
/// pays one `Option` check per receive). Dropping it removes the
/// session from the directory, however the session ended.
pub(crate) struct SessionWatch {
    ops: Arc<OpsRuntime>,
    id: u64,
}

impl SessionWatch {
    /// Records that the session now waits at `state` for a receive on
    /// `awaiting`; the stall clock of the directory entry restarts.
    pub(crate) fn awaiting(&self, state: &str, awaiting: Option<u8>) {
        self.ops.directory.upsert(SessionEntry {
            id: self.id,
            state: state.to_owned(),
            awaiting,
            since: Instant::now(),
            stalled: false,
        });
    }

    /// The stall deadline a waiting session is checked against, if a
    /// watchdog is configured.
    pub(crate) fn stall_after(&self) -> Option<Duration> {
        self.ops.watchdog.map(|wd| wd.stall_after)
    }

    /// The stall watchdog, shared by both host shapes. Once a receive has
    /// waited past the deadline the session is flagged, once per episode:
    /// the core emits `SessionStalled`, the directory entry is marked,
    /// and the stalled gauge rises. Under [`StallPolicy::Abort`] the wait
    /// then fails with [`CoreError::Stalled`].
    pub(crate) fn check_stall(&self, core: &mut SessionCore, waited: Duration) -> Result<()> {
        let Some(wd) = self.ops.watchdog else {
            return Ok(());
        };
        if waited < wd.stall_after || core.stall_flagged() {
            return Ok(());
        }
        let waited_ms = waited.as_millis() as u64;
        if core.note_stalled(waited_ms) {
            self.ops.directory.mark_stalled(self.id);
            self.ops.stall_raised();
        }
        if wd.policy == StallPolicy::Abort {
            return Err(CoreError::Stalled {
                state: core.current_state().to_owned(),
                waited_ms,
            });
        }
        Ok(())
    }

    /// Ends a wait: a flagged stall episode is over however the wait
    /// ended (bytes arrived, the traversal timed out, the connection
    /// died, or the watchdog aborted it), so the gauge comes back down.
    pub(crate) fn wait_ended(&self, core: &SessionCore) {
        if core.stall_flagged() {
            self.ops.stall_lowered();
        }
    }
}

impl Drop for SessionWatch {
    fn drop(&mut self) {
        self.ops.directory.remove(self.id);
    }
}

/// What one live session is doing right now, as shown by the `sessions`
/// diagnostics selector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionEntry {
    /// Host-assigned session number (accept order).
    pub id: u64,
    /// The automaton state the session is currently at.
    pub state: String,
    /// The color the session is awaiting a receive on, if any.
    pub awaiting: Option<u8>,
    /// When the entry last changed (entered its current state /
    /// started awaiting).
    pub since: Instant,
    /// Whether the stall watchdog has flagged it.
    pub stalled: bool,
}

/// A live registry of in-flight sessions, maintained by the hosts and
/// rendered by the diagnostics endpoint. Lock scope is a handful of map
/// operations; only coordinator/driver threads touch it.
#[derive(Debug, Default)]
pub struct SessionDirectory {
    entries: Mutex<HashMap<u64, SessionEntry>>,
}

impl SessionDirectory {
    /// An empty directory.
    pub fn new() -> SessionDirectory {
        SessionDirectory::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<u64, SessionEntry>> {
        self.entries
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Registers or updates a session's entry.
    pub fn upsert(&self, entry: SessionEntry) {
        self.lock().insert(entry.id, entry);
    }

    /// Marks a session stalled (no-op if it is not registered).
    pub fn mark_stalled(&self, id: u64) {
        if let Some(entry) = self.lock().get_mut(&id) {
            entry.stalled = true;
        }
    }

    /// Removes a session (finished, failed, or aborted).
    pub fn remove(&self, id: u64) {
        self.lock().remove(&id);
    }

    /// Live session count.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether no sessions are live.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// Renders the directory for the `sessions` diagnostics selector:
    /// one `session <id> state <state> [awaiting <color>] age <secs>s
    /// [stalled]` line per live session (sorted by id), bracketed by a
    /// count header and `end`.
    pub fn render_text(&self) -> String {
        let mut entries: Vec<SessionEntry> = self.lock().values().cloned().collect();
        entries.sort_by_key(|e| e.id);
        let mut out = format!("starlink-sessions {}\n", entries.len());
        let now = Instant::now();
        for e in &entries {
            out.push_str(&format!("session {} state {}", e.id, e.state));
            if let Some(color) = e.awaiting {
                out.push_str(&format!(" awaiting {color}"));
            }
            let age = now.saturating_duration_since(e.since);
            out.push_str(&format!(" age {:.1}s", age.as_secs_f64()));
            if e.stalled {
                out.push_str(" stalled");
            }
            out.push('\n');
        }
        out.push_str("end\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(id: u64, stalled: bool) -> SessionEntry {
        SessionEntry {
            id,
            state: format!("s{id}"),
            awaiting: Some(1),
            since: Instant::now(),
            stalled,
        }
    }

    #[test]
    fn directory_tracks_upsert_mark_remove() {
        let dir = SessionDirectory::new();
        assert!(dir.is_empty());
        dir.upsert(entry(1, false));
        dir.upsert(entry(2, false));
        assert_eq!(dir.len(), 2);
        dir.mark_stalled(2);
        dir.mark_stalled(99); // unknown: no-op
        assert!(dir
            .render_text()
            .contains("session 2 state s2 awaiting 1 age "));
        assert!(dir
            .render_text()
            .lines()
            .nth(2)
            .unwrap()
            .ends_with(" stalled"));
        dir.remove(2);
        assert_eq!(dir.len(), 1);
        assert!(!dir.render_text().contains("stalled"));
    }

    #[test]
    fn render_lists_sessions_in_id_order() {
        let dir = SessionDirectory::new();
        dir.upsert(entry(7, true));
        dir.upsert(entry(3, false));
        let text = dir.render_text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "starlink-sessions 2");
        assert!(lines[1].starts_with("session 3 state s3 awaiting 1 age "));
        assert!(lines[2].starts_with("session 7 state s7 awaiting 1 age "));
        assert!(lines[2].ends_with(" stalled"));
        assert_eq!(lines[3], "end");
    }

    #[test]
    fn ops_config_presets_set_policy() {
        let observe = OpsConfig::watching(Duration::from_millis(100));
        assert_eq!(observe.watchdog.unwrap().policy, StallPolicy::Observe);
        let abort = OpsConfig::aborting(Duration::from_millis(100));
        assert_eq!(abort.watchdog.unwrap().policy, StallPolicy::Abort);
        assert_eq!(OpsConfig::default().watchdog, None);
    }
}
