//! Blocking driver for the sans-I/O [`SessionCore`]: owns the sockets,
//! executes the core's [`SessionIo`] instructions with blocking calls,
//! and reproduces the behaviour of the original fused engine loop —
//! existing integration tests run against it unchanged through
//! [`crate::Mediator::run_session`] and the thread-per-connection
//! [`crate::MediatorHost`].

use crate::error::CoreError;
use crate::ops::SessionWatch;
use crate::session_core::{
    SessionCore, SessionEvent, SessionIo, SessionOutcome, SessionPersist, SessionSpec,
};
use crate::Result;
use starlink_mtl::TranslationCache;
use starlink_net::{Connection, Endpoint, NetworkEngine};
use starlink_telemetry::SessionTracer;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Mutable per-connection state shared across successive traversals on
/// the same client connection (the translation cache persists so that
/// e.g. photo ids minted in one traversal resolve in the next).
pub(crate) struct ConnectionState {
    pub cache: TranslationCache,
    pub service_conns: HashMap<u8, Box<dyn Connection>>,
    pub host_override: Option<String>,
    /// Recycled wire buffers carried between traversals so composing
    /// stays allocation-free in steady state.
    pub wire_pool: Vec<Vec<u8>>,
    /// Per-connection tracer so successive traversals on one client
    /// connection share a session trace id (minted at accept time by
    /// the host, or lazily by the first traversal).
    pub tracer: Option<SessionTracer>,
}

impl ConnectionState {
    pub(crate) fn new() -> ConnectionState {
        ConnectionState {
            cache: TranslationCache::new(),
            service_conns: HashMap::new(),
            host_override: None,
            wire_pool: Vec::new(),
            tracer: None,
        }
    }
}

/// Granularity at which a stoppable blocking receive re-checks the stop
/// flag, so host shutdown interrupts sessions promptly.
const STOP_POLL: Duration = Duration::from_millis(50);

/// Runs one automaton traversal to completion over blocking I/O.
///
/// `stop` (when given) makes the driver abandon the session promptly on
/// host shutdown instead of sleeping out the full receive timeout.
pub(crate) fn run_blocking(
    spec: &Arc<SessionSpec>,
    net: &NetworkEngine,
    timeout: Duration,
    client_conn: &mut dyn Connection,
    state: &mut ConnectionState,
    stop: Option<&AtomicBool>,
    watch: Option<&SessionWatch>,
) -> Result<SessionOutcome> {
    let persist = SessionPersist {
        cache: std::mem::replace(&mut state.cache, TranslationCache::new()),
        connected: state.service_conns.keys().copied().collect(),
        host_override: state.host_override.take(),
        wire_pool: std::mem::take(&mut state.wire_pool),
        tracer: state.tracer.take(),
    };
    let mut core = SessionCore::new(spec.clone(), persist)?;
    let result = drive(
        &mut core,
        spec,
        net,
        timeout,
        client_conn,
        state,
        stop,
        watch,
    );
    if let Err(err) = &result {
        core.record_failure(err);
    }
    // Persistent state flows back even when the traversal failed — a
    // timeout-and-retry must keep the translation cache.
    let persist = core.into_persist();
    state.cache = persist.cache;
    state.host_override = persist.host_override;
    state.wire_pool = persist.wire_pool;
    state.tracer = persist.tracer;
    result
}

#[allow(clippy::too_many_arguments)]
fn drive(
    core: &mut SessionCore,
    spec: &Arc<SessionSpec>,
    net: &NetworkEngine,
    timeout: Duration,
    client_conn: &mut dyn Connection,
    state: &mut ConnectionState,
    stop: Option<&AtomicBool>,
    watch: Option<&SessionWatch>,
) -> Result<SessionOutcome> {
    let mut ios = core.start()?;
    loop {
        let mut need: Option<u8> = None;
        for io in ios {
            match io {
                SessionIo::Finished(outcome) => return Ok(outcome),
                SessionIo::NeedRecv { color } => need = Some(color),
                SessionIo::SendWire { color, bytes } => {
                    if color == spec.client_color {
                        client_conn.send(&bytes)?;
                    } else {
                        let conn = state.service_conns.get_mut(&color).ok_or_else(|| {
                            CoreError::Aborted {
                                reason: format!("send on color {color} with no connection"),
                            }
                        })?;
                        conn.send(&bytes)?;
                    }
                    core.recycle_wire_buf(bytes);
                }
                SessionIo::ConnectService { color, endpoint } => {
                    let endpoint: Endpoint = endpoint.parse()?;
                    let conn = net.connect(&endpoint)?;
                    state.service_conns.insert(color, conn);
                }
            }
        }
        let Some(color) = need else {
            return Err(CoreError::Aborted {
                reason: "session core yielded without finishing or requesting input".to_owned(),
            });
        };
        if let Some(w) = watch {
            w.awaiting(core.current_state(), Some(color));
        }
        let wire = if color == spec.client_color {
            receive_watched(client_conn, timeout, stop, watch, core)?
        } else {
            let conn = state
                .service_conns
                .get_mut(&color)
                .ok_or_else(|| CoreError::Aborted {
                    reason: format!("receive on color {color} before any request was sent"),
                })?;
            receive_watched(conn.as_mut(), timeout, stop, watch, core)?
        };
        ios = core.step(SessionEvent::WireReceived { color, bytes: wire })?;
    }
}

/// Blocking receive that honours an optional stop flag and an optional
/// stall watchdog by receiving in short slices. Timeout and close
/// semantics match a plain `receive_timeout` call. The watchdog check
/// itself is [`SessionWatch::check_stall`], shared with the multiplexed
/// host; however the wait ends, [`SessionWatch::wait_ended`] closes a
/// flagged stall episode.
fn receive_watched(
    conn: &mut dyn Connection,
    timeout: Duration,
    stop: Option<&AtomicBool>,
    watch: Option<&SessionWatch>,
    core: &mut SessionCore,
) -> Result<Vec<u8>> {
    let stall_after = watch.and_then(SessionWatch::stall_after);
    if stop.is_none() && stall_after.is_none() {
        return Ok(conn.receive_timeout(timeout)?);
    }
    let start = Instant::now();
    let deadline = start + timeout;
    let result = loop {
        if stop.is_some_and(|stop| stop.load(Ordering::SeqCst)) {
            break Err(CoreError::HostStopped);
        }
        let now = Instant::now();
        if let Some(w) = watch {
            if let Err(err) = w.check_stall(core, now.saturating_duration_since(start)) {
                break Err(err);
            }
        }
        if now >= deadline {
            break Err(CoreError::Net(starlink_net::NetError::Timeout));
        }
        let mut slice = STOP_POLL.min(deadline - now);
        if let Some(after) = stall_after {
            // Wake in time to flag the stall, not a full poll slice late.
            let stall_at = start + after;
            if stall_at > now {
                slice = slice.min(stall_at - now);
            }
        }
        match conn.receive_timeout(slice) {
            Ok(wire) => break Ok(wire),
            Err(starlink_net::NetError::Timeout) => continue,
            Err(e) => break Err(e.into()),
        }
    };
    if let Some(w) = watch {
        w.wait_ended(core);
    }
    result
}
