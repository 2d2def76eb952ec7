use starlink_telemetry::AbandonReason;
use std::fmt;

/// Errors produced by the Starlink runtime.
#[derive(Debug)]
#[non_exhaustive]
pub enum CoreError {
    /// Message-model failure (field paths, values).
    Message(starlink_message::MessageError),
    /// MDL spec or codec failure.
    Mdl(starlink_mdl::MdlError),
    /// Automaton model failure.
    Automaton(starlink_automata::AutomatonError),
    /// MTL translation failure.
    Mtl(starlink_mtl::MtlLangError),
    /// Network engine failure.
    Net(starlink_net::NetError),
    /// A registry lookup failed.
    NotRegistered {
        /// What kind of model was looked up (`"mdl"`, `"automaton"`).
        kind: &'static str,
        /// The name that missed.
        name: String,
    },
    /// The automaton reached a state whose outgoing transitions cannot
    /// process the situation (e.g. an unexpected message arrived).
    UnexpectedMessage {
        /// The state the engine was in.
        state: String,
        /// The (application-level) message that arrived.
        received: String,
        /// The action labels that were acceptable.
        expected: Vec<String>,
    },
    /// The engine reached a state with no outgoing transition that is
    /// not final.
    Stuck {
        /// The state in question.
        state: String,
    },
    /// A binding could not translate between application and protocol
    /// levels.
    Binding {
        /// Human-readable description.
        message: String,
    },
    /// The session was aborted by the peer or by a handler.
    Aborted {
        /// Why.
        reason: String,
    },
    /// A sans-I/O [`crate::SessionCore`] was fed an event it did not ask
    /// for (wrong color, bytes after finishing, step before start).
    UnexpectedEvent {
        /// What was wrong.
        detail: String,
    },
    /// The host rejected new work because it is shutting down.
    HostStopped,
    /// A stall watchdog aborted the session: it had been awaiting a
    /// receive beyond the configured stall deadline (see
    /// `WatchdogConfig` / `StallPolicy::Abort`). *Not* an orderly end —
    /// a stall is exactly the failure mode the operations plane exists
    /// to surface.
    Stalled {
        /// The automaton state the session was stuck in.
        state: String,
        /// How long it had been awaiting, in milliseconds.
        waited_ms: u64,
    },
}

impl CoreError {
    /// A stable, low-cardinality label naming the failure stage, used as
    /// the `stage` of [`starlink_telemetry::TraceEvent::SessionFailed`]
    /// events (and therefore safe to aggregate on).
    pub fn stage_label(&self) -> &'static str {
        match self {
            CoreError::Message(_) => "message",
            CoreError::Mdl(_) => "mdl",
            CoreError::Automaton(_) => "automaton",
            CoreError::Mtl(_) => "mtl",
            CoreError::Net(_) => "net",
            CoreError::NotRegistered { .. } => "not-registered",
            CoreError::UnexpectedMessage { .. } => "unexpected-message",
            CoreError::Stuck { .. } => "stuck",
            CoreError::Binding { .. } => "binding",
            CoreError::Aborted { .. } => "aborted",
            CoreError::UnexpectedEvent { .. } => "unexpected-event",
            CoreError::HostStopped => "host-stopped",
            CoreError::Stalled { .. } => "stalled",
        }
    }

    /// Why a traversal ending in this error was abandoned, when the
    /// error is part of normal operation rather than a failure worth
    /// reporting: receive timeouts restart the traversal, a closed
    /// connection is how clients hang up, and
    /// [`CoreError::HostStopped`] is orderly shutdown.
    pub fn abandon_reason(&self) -> Option<AbandonReason> {
        match self {
            CoreError::Net(starlink_net::NetError::Timeout) => Some(AbandonReason::Timeout),
            CoreError::Net(starlink_net::NetError::Closed) | CoreError::HostStopped => {
                Some(AbandonReason::Closed)
            }
            _ => None,
        }
    }
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Message(e) => write!(f, "message error: {e}"),
            CoreError::Mdl(e) => write!(f, "mdl error: {e}"),
            CoreError::Automaton(e) => write!(f, "automaton error: {e}"),
            CoreError::Mtl(e) => write!(f, "mtl error: {e}"),
            CoreError::Net(e) => write!(f, "network error: {e}"),
            CoreError::NotRegistered { kind, name } => {
                write!(f, "no {kind} registered under `{name}`")
            }
            CoreError::UnexpectedMessage {
                state,
                received,
                expected,
            } => write!(
                f,
                "unexpected message `{received}` in state `{state}` (expected one of: {})",
                expected.join(", ")
            ),
            CoreError::Stuck { state } => {
                write!(f, "automaton stuck in non-final state `{state}`")
            }
            CoreError::Binding { message } => write!(f, "binding error: {message}"),
            CoreError::Aborted { reason } => write!(f, "session aborted: {reason}"),
            CoreError::UnexpectedEvent { detail } => {
                write!(f, "unexpected session event: {detail}")
            }
            CoreError::HostStopped => write!(f, "mediator host is shutting down"),
            CoreError::Stalled { state, waited_ms } => write!(
                f,
                "session stalled in state `{state}` ({waited_ms} ms awaiting a receive)"
            ),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Message(e) => Some(e),
            CoreError::Mdl(e) => Some(e),
            CoreError::Automaton(e) => Some(e),
            CoreError::Mtl(e) => Some(e),
            CoreError::Net(e) => Some(e),
            _ => None,
        }
    }
}

impl From<starlink_message::MessageError> for CoreError {
    fn from(e: starlink_message::MessageError) -> Self {
        CoreError::Message(e)
    }
}

impl From<starlink_mdl::MdlError> for CoreError {
    fn from(e: starlink_mdl::MdlError) -> Self {
        CoreError::Mdl(e)
    }
}

impl From<starlink_automata::AutomatonError> for CoreError {
    fn from(e: starlink_automata::AutomatonError) -> Self {
        CoreError::Automaton(e)
    }
}

impl From<starlink_mtl::MtlLangError> for CoreError {
    fn from(e: starlink_mtl::MtlLangError) -> Self {
        CoreError::Mtl(e)
    }
}

impl From<starlink_net::NetError> for CoreError {
    fn from(e: starlink_net::NetError) -> Self {
        CoreError::Net(e)
    }
}
