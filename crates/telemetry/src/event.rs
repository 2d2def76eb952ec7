//! The trace-event taxonomy.
//!
//! Events borrow their string data (`&'a str`) so constructing one on the
//! hot path never allocates; sinks that need to retain an event own the
//! copy themselves (see [`crate::TraceBuffer`]).

/// How a compiled dispatch probe fared for one `parse` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeOutcome {
    /// The probe admitted a variant and that variant parsed the wire.
    Hit,
    /// The probe rejected a variant without running its parser.
    Miss,
    /// No probed variant parsed; the codec fell back to the exhaustive
    /// try-all loop.
    Fallback,
}

impl ProbeOutcome {
    /// Stable label used in metric exposition.
    pub fn label(self) -> &'static str {
        match self {
            ProbeOutcome::Hit => "hit",
            ProbeOutcome::Miss => "miss",
            ProbeOutcome::Fallback => "fallback",
        }
    }
}

/// The kind of automaton transition an engine crossed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransitionKind {
    /// A receiving state consumed a matching message.
    Receive,
    /// A sending state emitted its message.
    Send,
    /// A no-action (γ) translation state.
    Gamma,
}

impl TransitionKind {
    /// Stable label used in metric exposition.
    pub fn label(self) -> &'static str {
        match self {
            TransitionKind::Receive => "receive",
            TransitionKind::Send => "send",
            TransitionKind::Gamma => "gamma",
        }
    }
}

/// A timed layer of one mediated traversal: the paper's §6 cost split
/// (parse, translate, compose) plus the binding steps and the wait for
/// the peer, under one `session` root per traversal.
///
/// Leaf layers tile the root: each layer boundary is one clock read that
/// ends one layer and starts the next, so from its first leaf on a
/// traversal's leaf spans cover its `session` span without gaps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One automaton traversal, from (re)start to finish, failure or
    /// abandonment (the root span).
    Session,
    /// Awaiting a message from the peer on a color: the client's next
    /// request, or a service's reply (the service round trip).
    Wait,
    /// MDL parse of one received wire message.
    Parse,
    /// Binding rules lifting a protocol message to its application
    /// message.
    Unbind,
    /// A γ-transition's MTL translation.
    Gamma,
    /// Binding rules lowering an application message to its protocol
    /// message.
    Bind,
    /// MDL compose of one outgoing wire message.
    Compose,
}

impl Layer {
    /// Every layer in declaration order: the root first, then the
    /// leaves in the order a request meets them.
    pub const ALL: [Layer; 7] = [
        Layer::Session,
        Layer::Wait,
        Layer::Parse,
        Layer::Unbind,
        Layer::Gamma,
        Layer::Bind,
        Layer::Compose,
    ];

    /// Stable label used as span name and in metric names.
    pub fn label(self) -> &'static str {
        match self {
            Layer::Session => "session",
            Layer::Wait => "wait",
            Layer::Parse => "parse",
            Layer::Unbind => "unbind",
            Layer::Gamma => "gamma",
            Layer::Bind => "bind",
            Layer::Compose => "compose",
        }
    }
}

/// Why a traversal ended without finishing or failing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbandonReason {
    /// The peer closed the connection, or the host stopped.
    Closed,
    /// The driver dropped the session without a result.
    Dropped,
    /// A receive deadline expired and the traversal restarted.
    Timeout,
}

impl AbandonReason {
    /// Every reason, in declaration (and label) order.
    pub const ALL: [AbandonReason; 3] = [
        AbandonReason::Closed,
        AbandonReason::Dropped,
        AbandonReason::Timeout,
    ];

    /// Stable label used in metric exposition.
    pub fn label(self) -> &'static str {
        match self {
            AbandonReason::Timeout => "timeout",
            AbandonReason::Closed => "closed",
            AbandonReason::Dropped => "dropped",
        }
    }
}

/// One structured trace event, emitted by an instrumented layer into a
/// [`crate::TelemetrySink`].
///
/// [`TraceEvent::SpanClosed`] is the only event carrying a duration.
/// The taxonomy is `#[non_exhaustive]`: sinks must tolerate events they
/// do not know (typically by ignoring them).
#[derive(Debug, Clone, Copy)]
#[non_exhaustive]
pub enum TraceEvent<'a> {
    /// An automaton traversal began (per traversal, including restarts
    /// on a kept-alive connection).
    SessionStarted,
    /// A traversal reached an accepting state.
    SessionFinished {
        /// The accepting state.
        final_state: &'a str,
        /// Application messages exchanged during the traversal.
        exchanges: usize,
    },
    /// A traversal aborted with an engine, codec, translation or I/O
    /// error.
    SessionFailed {
        /// Coarse failure stage (an error-variant label such as `"mdl"`,
        /// `"net"`, `"unexpected-message"`).
        stage: &'a str,
        /// The layer the traversal was in when the error arose: the open
        /// leaf span's layer, or [`Layer::Session`] outside any leaf.
        layer: Layer,
    },
    /// A traversal ended without finishing or failing. Every started
    /// traversal ends exactly once: finished, failed or abandoned.
    SessionAbandoned {
        /// Why it ended.
        reason: AbandonReason,
    },
    /// The engine crossed an automaton transition.
    Transition {
        /// Source state.
        from: &'a str,
        /// Target state.
        to: &'a str,
        /// Receive / send / γ.
        kind: TransitionKind,
        /// The color driving the transition (for γ-transitions at
        /// bi-colored states: the color of the source state's first
        /// coloring).
        color: u8,
    },
    /// A conformance monitor rejected an observed action.
    MonitorViolation {
        /// The monitor's current state.
        state: &'a str,
        /// The offending action label (e.g. `"!flickr.photos.search"`).
        action: &'a str,
    },
    /// A dispatch-probe outcome inside a codec `parse`.
    DispatchProbe {
        /// Hit, miss, or fallback to try-all.
        outcome: ProbeOutcome,
    },
    /// A framed message arrived at the session engine.
    WireIn {
        /// Automaton color the bytes arrived on.
        color: u8,
        /// Frame payload size in bytes.
        bytes: usize,
    },
    /// A framed message left the session engine.
    WireOut {
        /// Automaton color the bytes left on.
        color: u8,
        /// Frame payload size in bytes.
        bytes: usize,
    },
    /// A send reused a pooled wire buffer (allocation-free compose).
    WireBufReused,
    /// A send had to allocate a fresh wire buffer (pool empty).
    WireBufAllocated,
    /// A session opened its connection to a service color.
    ServiceConnected {
        /// The service color connected.
        color: u8,
    },
    /// A host accepted a client connection.
    SessionAccepted,
    /// A host's accept loop hit a (transient) accept error.
    AcceptError,
    /// A worker thread panicked (observed via a poisoned lock or a
    /// failed join at shutdown).
    WorkerPanic,
    /// Multiplexed-host coordinator: sessions currently parked plus
    /// in-flight (sampled when the count changes).
    ActiveSessions {
        /// Session count.
        count: usize,
    },
    /// Multiplexed-host coordinator: jobs handed to the worker pool and
    /// not yet handed back (sampled when the count changes).
    QueueDepth {
        /// Outstanding job count.
        depth: usize,
    },
    /// A watchdog flagged a session as stalled: the traversal has been
    /// awaiting a receive beyond the configured stall deadline. Emitted
    /// once per stall episode (a session that stays stuck is not
    /// re-flagged until it makes progress and stalls again).
    SessionStalled {
        /// The automaton state the session is stuck in.
        state: &'a str,
        /// How long the session had been awaiting when flagged, in
        /// milliseconds.
        waited_ms: u64,
    },
    /// Watchdog sweep: sessions currently flagged stalled (sampled when
    /// the count changes, like [`TraceEvent::ActiveSessions`]).
    StalledSessions {
        /// Stalled session count.
        count: usize,
    },
    /// A layer span opened. Only recorded through a
    /// [`crate::SessionTracer`] (the span/parent ids travel in the
    /// accompanying [`crate::TraceMeta`]); aggregate sinks need only the
    /// close.
    SpanOpened {
        /// The layer.
        layer: Layer,
        /// The automaton color the layer works on.
        color: u8,
    },
    /// A layer span closed: the one timed event.
    SpanClosed {
        /// The layer.
        layer: Layer,
        /// The automaton color the layer worked on.
        color: u8,
        /// Wall-clock duration in nanoseconds.
        nanos: u64,
    },
    /// A capture of an abstract message crossing the mediator. Only
    /// emitted through a [`crate::SessionTracer`] — rendering fields is
    /// the most expensive instrumentation the engine does, so it is paid
    /// only where traces are retained.
    MessageSnapshot {
        /// Pipeline stage: `"received"`, `"pre-gamma"`, `"post-gamma"`,
        /// `"sent"`.
        stage: &'a str,
        /// Abstract message name.
        message: &'a str,
        /// Rendered fields, one `label=value` pair per line.
        fields: &'a str,
    },
}
