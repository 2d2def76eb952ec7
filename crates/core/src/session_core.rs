//! Sans-I/O automata engine: the paper's state machine (§4.2) with the
//! sockets cut away.
//!
//! "There are three types of states: i) a receiving state waits to
//! receive a message and will only follow a matching receive transition
//! when a matching message is received; ii) a sending state sends a
//! message described in the single transition; iii) a no-action state is
//! a translation state that translates data from the fields on one or
//! more of the prior messages into the message to be constructed."
//!
//! [`SessionCore`] executes exactly that — classifying states, applying
//! binding rules at the edges (parse→unbind on receive, bind→compose on
//! send), recording the session [`History`], and running MTL programs at
//! γ-transitions — but performs no I/O. It consumes [`SessionEvent`]s
//! (wire bytes arrived, or time passed) and emits [`SessionIo`]
//! instructions (read this color, write these bytes, connect to this
//! endpoint, traversal finished) for a driver to carry out. Two drivers
//! exist: the blocking driver behind [`crate::Mediator::run_session`]
//! reproducing the original thread-per-connection engine, and the
//! multiplexed [`crate::MediatorHost`] interleaving many sessions over a
//! bounded worker pool. Deterministic replay tests drive the core with
//! scripted bytes and no sockets at all.
//!
//! This module deliberately has **zero dependencies on `starlink_net`**:
//! endpoints travel as strings, connections as color numbers.

use crate::binding::ProtocolBinding;
use crate::error::CoreError;
use crate::Result;
use starlink_automata::{Action, Automaton, Transition};
use starlink_mdl::MessageCodec;
use starlink_message::{AbstractMessage, Direction, History, Value};
use starlink_mtl::{MtlContext, MtlProgram, TranslationCache};
use starlink_telemetry::{
    AbandonReason, Layer, SessionTracer, SpanGuard, SpanScopedSink, TelemetrySink, TraceEvent,
    TransitionKind,
};
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Per-color protocol configuration as the sans-I/O core sees it: how to
/// read/write that color's wire format and (for service colors) where
/// the service lives — as a string, since the core never touches the
/// network itself.
#[derive(Clone)]
pub struct ColorConfig {
    /// Binding between application actions and the color's protocol.
    pub binding: ProtocolBinding,
    /// The color's message codec.
    pub codec: Arc<dyn MessageCodec>,
    /// For service-facing colors: the endpoint the driver should connect
    /// to (e.g. `"memory://plus-service"`). `None` for the client-facing
    /// color.
    pub endpoint: Option<String>,
}

/// Everything a session needs that outlives any single traversal:
/// the merged automaton, per-color protocol configurations, pre-parsed
/// γ-programs and message templates. Shared (via [`Arc`]) by every
/// concurrent session a host runs.
pub struct SessionSpec {
    /// The merged k-colored automaton to execute.
    pub automaton: Arc<Automaton>,
    /// The color whose peer is the mediator's client.
    pub client_color: u8,
    /// Per-color protocol configuration.
    pub colors: HashMap<u8, ColorConfig>,
    /// Pre-parsed MTL program per γ-transition `(from, to)`.
    pub gammas: HashMap<(String, String), MtlProgram>,
    /// Application message templates by message name.
    pub templates: HashMap<String, AbstractMessage>,
    /// Where the engine reports trace events. Injected explicitly (the
    /// engine never discovers a sink ambiently); defaults to
    /// [`starlink_telemetry::NoopSink`] via [`Mediator::new`][crate::Mediator::new],
    /// whose disabled fast path keeps instrumentation cost negligible.
    pub telemetry: Arc<dyn TelemetrySink>,
}

/// What a completed session looked like.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionOutcome {
    /// The accepting state the automaton finished in.
    pub final_state: String,
    /// Application messages received + sent during the session.
    pub exchanges: usize,
}

/// An input to [`SessionCore::step`].
#[derive(Debug, Clone)]
pub enum SessionEvent {
    /// Wire bytes arrived on the connection of `color` (the one the
    /// core most recently asked for via [`SessionIo::NeedRecv`]).
    WireReceived {
        /// Color the bytes arrived on.
        color: u8,
        /// One whole framed protocol message.
        bytes: Vec<u8>,
    },
    /// The driver's receive deadline expired. The core abandons the
    /// current traversal and restarts from the initial state (the
    /// connection-scoped translation cache survives), mirroring the
    /// original engine's behaviour of re-running the automaton after a
    /// timeout.
    Tick,
}

/// An instruction emitted by the core for its driver to execute.
#[derive(Debug)]
pub enum SessionIo {
    /// Wait for one framed message on `color`'s connection, then feed it
    /// back via [`SessionEvent::WireReceived`] (or [`SessionEvent::Tick`]
    /// on timeout).
    NeedRecv {
        /// Color to read.
        color: u8,
    },
    /// Write these bytes to `color`'s connection.
    SendWire {
        /// Color to write to.
        color: u8,
        /// Framed protocol message.
        bytes: Vec<u8>,
    },
    /// Open a connection for `color` to `endpoint` before the following
    /// [`SessionIo::SendWire`] for that color. Emitted at most once per
    /// color per connection (honouring a `sethost` override issued by an
    /// MTL program earlier in the session).
    ConnectService {
        /// Service color to connect.
        color: u8,
        /// Endpoint text (e.g. `"tcp://127.0.0.1:9050"`).
        endpoint: String,
    },
    /// The traversal reached an accepting state. The driver may start a
    /// fresh traversal on the same connection via [`SessionCore::restart`].
    Finished(SessionOutcome),
}

/// Session state that persists across traversals on one client
/// connection: the translation cache (photo ids minted in one traversal
/// resolve in the next), which service colors already have connections,
/// and a `sethost` override.
#[derive(Default)]
pub struct SessionPersist {
    /// MTL `cache`/`getcache` storage.
    pub cache: TranslationCache,
    /// Service colors the driver already holds connections for.
    pub connected: HashSet<u8>,
    /// `sethost` override for subsequent service connections.
    pub host_override: Option<String>,
    /// Recycled wire buffers: [`SessionIo::SendWire`] bytes come from
    /// here (composed in place via `compose_into`) and drivers return
    /// them with [`SessionCore::recycle_wire_buf`] after writing, so
    /// steady-state sends reuse capacity instead of allocating.
    pub wire_pool: Vec<Vec<u8>>,
    /// Per-session trace context. Minted by drivers at accept time (or
    /// lazily by [`SessionCore::new`]) when the sink retains traces;
    /// `None` for purely aggregate sinks, keeping their per-event cost
    /// unchanged. Lives here so successive traversals on a kept-alive
    /// connection share one session trace id.
    pub tracer: Option<SessionTracer>,
}

impl SessionPersist {
    /// Fresh state for a new client connection.
    pub fn new() -> SessionPersist {
        SessionPersist::default()
    }
}

/// An open layer span: what it times, since when, and (when a span
/// sink is tracing) its tracer guard.
struct LayerSpan {
    layer: Layer,
    color: u8,
    since: Instant,
    guard: Option<SpanGuard>,
}

/// One automaton traversal as a pure state machine.
///
/// Create with [`SessionCore::new`], kick off with [`SessionCore::start`],
/// then alternate: execute the returned [`SessionIo`]s, feed the next
/// [`SessionEvent`] to [`SessionCore::step`]. The core never blocks and
/// never touches a socket.
pub struct SessionCore {
    spec: Arc<SessionSpec>,
    persist: SessionPersist,
    current: String,
    /// Color the core is waiting to receive on, if any.
    awaiting: Option<u8>,
    started: bool,
    finished: bool,
    history: History,
    pending: HashMap<String, AbstractMessage>,
    /// Last protocol-level request per color (for reply correlation).
    last_request_proto: HashMap<u8, AbstractMessage>,
    /// Pending application operation per service color.
    pending_op: HashMap<u8, String>,
    exchanges: usize,
    /// The traversal's `session` root span, open from start/restart
    /// until the traversal finishes, fails or is abandoned. `None` while
    /// the sink is disabled (nothing is timed) and between traversals,
    /// so it doubles as "this traversal has not ended yet".
    root: Option<LayerSpan>,
    /// The leaf layer running now. Each layer boundary is one clock
    /// read that closes it and opens the next, so the leaves tile the
    /// root.
    leaf: Option<LayerSpan>,
    /// Whether a stall watchdog has flagged the current await. Cleared
    /// when bytes arrive or the traversal restarts, so a session that
    /// recovers and stalls again is flagged (and counted) again.
    stall_flagged: bool,
}

impl SessionCore {
    /// Creates a core at the automaton's initial state.
    ///
    /// # Errors
    ///
    /// [`CoreError::Automaton`] if the automaton has no initial state.
    pub fn new(spec: Arc<SessionSpec>, mut persist: SessionPersist) -> Result<SessionCore> {
        let initial = spec
            .automaton
            .initial()
            .ok_or_else(|| {
                CoreError::Automaton(starlink_automata::AutomatonError::NoInitialState {
                    automaton: spec.automaton.name().to_owned(),
                })
            })?
            .to_owned();
        if persist.tracer.is_none() {
            // Drivers normally mint the tracer at accept time; cover
            // direct/embedded use here so replay tests trace too.
            persist.tracer = SessionTracer::for_sink(spec.telemetry.as_ref());
        }
        Ok(SessionCore {
            spec,
            persist,
            current: initial,
            awaiting: None,
            started: false,
            finished: false,
            history: History::new(),
            pending: HashMap::new(),
            last_request_proto: HashMap::new(),
            pending_op: HashMap::new(),
            exchanges: 0,
            root: None,
            leaf: None,
            stall_flagged: false,
        })
    }

    /// Begins the traversal: advances through sending and no-action
    /// states until the core needs input ([`SessionIo::NeedRecv`]) or
    /// finishes.
    ///
    /// # Errors
    ///
    /// Any engine failure (binding, codec, MTL, stuck automaton).
    pub fn start(&mut self) -> Result<Vec<SessionIo>> {
        if self.started {
            return Err(CoreError::UnexpectedEvent {
                detail: "start() called on a running session".to_owned(),
            });
        }
        self.started = true;
        self.begin_traversal();
        let mut ios = Vec::new();
        self.advance(&mut ios)?;
        Ok(ios)
    }

    /// Begins a new traversal on the same connection after the previous
    /// one finished (or timed out), keeping persistent state. Each
    /// traversal forms its own root span (sharing the connection's
    /// session trace id); an unfinished traversal is abandoned here with
    /// reason `timeout`, completing its trace.
    ///
    /// # Errors
    ///
    /// Any engine failure while advancing the fresh traversal.
    pub fn restart(&mut self) -> Result<Vec<SessionIo>> {
        self.end_traversal(AbandonReason::Timeout);
        self.reset_traversal();
        self.begin_traversal();
        let mut ios = Vec::new();
        self.advance(&mut ios)?;
        Ok(ios)
    }

    /// Feeds one event and returns the instructions it unlocks.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnexpectedEvent`] when the event does not match what
    /// the core asked for; otherwise any engine failure.
    pub fn step(&mut self, event: SessionEvent) -> Result<Vec<SessionIo>> {
        if !self.started {
            return Err(CoreError::UnexpectedEvent {
                detail: "step() before start()".to_owned(),
            });
        }
        match event {
            SessionEvent::WireReceived { color, bytes } => {
                if self.finished {
                    return Err(CoreError::UnexpectedEvent {
                        detail: "wire bytes after the traversal finished".to_owned(),
                    });
                }
                match self.awaiting {
                    Some(expected) if expected == color => {}
                    Some(expected) => {
                        return Err(CoreError::UnexpectedEvent {
                            detail: format!(
                                "wire bytes on color {color} while waiting on color {expected}"
                            ),
                        })
                    }
                    None => {
                        return Err(CoreError::UnexpectedEvent {
                            detail: format!("unsolicited wire bytes on color {color}"),
                        })
                    }
                }
                self.awaiting = None;
                self.stall_flagged = false;
                let mut ios = Vec::new();
                self.enter(Layer::Parse, color);
                self.consume_wire(color, &bytes)?;
                self.advance(&mut ios)?;
                Ok(ios)
            }
            SessionEvent::Tick => self.restart(),
        }
    }

    /// Whether the current traversal reached an accepting state.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// The state the traversal is currently at.
    pub fn current_state(&self) -> &str {
        &self.current
    }

    /// Hands back the connection-scoped persistent state, abandoning a
    /// traversal still in flight.
    pub fn into_persist(mut self) -> SessionPersist {
        self.abandon();
        std::mem::take(&mut self.persist)
    }

    /// The session's trace id, when tracing is active.
    pub fn trace_id(&self) -> Option<starlink_telemetry::SessionTraceId> {
        self.persist.tracer.as_ref().map(SessionTracer::session)
    }

    /// Records one event — through the tracer (stamping session id,
    /// timestamp and span) when tracing is active, plainly otherwise.
    fn emit(&self, event: &TraceEvent<'_>) {
        match &self.persist.tracer {
            Some(tracer) => tracer.record(self.spec.telemetry.as_ref(), event),
            None => self.spec.telemetry.record(event),
        }
    }

    /// Whether this traversal is observed: its sink was enabled when it
    /// began, so it is timed and its events are worth constructing.
    fn observed(&self) -> bool {
        self.root.is_some()
    }

    /// When the sink is enabled, opens the traversal's root span and
    /// reports the start; its end is then reported exactly once.
    fn begin_traversal(&mut self) {
        if self.spec.telemetry.enabled() {
            let root = self.open_span(Layer::Session, self.spec.client_color, Instant::now());
            self.root = Some(root);
            self.emit(&TraceEvent::SessionStarted);
        }
    }

    /// A layer boundary: one clock read closes the running leaf layer
    /// and opens `layer` on `color` at the same instant. No-op while
    /// nothing is timed.
    fn enter(&mut self, layer: Layer, color: u8) {
        if !self.observed() {
            return;
        }
        let now = Instant::now();
        if let Some(leaf) = self.leaf.take() {
            self.close_span(leaf, now);
        }
        self.leaf = Some(self.open_span(layer, color, now));
    }

    /// Starts a span at `at`; the open is only recorded for span sinks.
    fn open_span(&self, layer: Layer, color: u8, at: Instant) -> LayerSpan {
        let guard = self
            .persist
            .tracer
            .as_ref()
            .filter(|_| self.spec.telemetry.wants_spans())
            .map(|t| t.open(self.spec.telemetry.as_ref(), layer, color, at));
        LayerSpan {
            layer,
            color,
            since: at,
            guard,
        }
    }

    /// Ends a span at `at`, recording [`TraceEvent::SpanClosed`].
    fn close_span(&self, span: LayerSpan, at: Instant) {
        let nanos = at.saturating_duration_since(span.since).as_nanos() as u64;
        match (&self.persist.tracer, span.guard) {
            (Some(tracer), Some(guard)) => {
                tracer.close(self.spec.telemetry.as_ref(), guard, at, nanos);
            }
            _ => self.emit(&TraceEvent::SpanClosed {
                layer: span.layer,
                color: span.color,
                nanos,
            }),
        }
    }

    /// Closes the running leaf and then the root at one clock read,
    /// completing the traversal's trace in any span-retaining sink.
    fn close_root(&mut self) {
        let Some(root) = self.root.take() else {
            return;
        };
        let now = Instant::now();
        if let Some(leaf) = self.leaf.take() {
            self.close_span(leaf, now);
        }
        self.close_span(root, now);
    }

    /// Ends a traversal that neither finished nor failed. Each traversal
    /// ends once: a no-op when none is open.
    fn end_traversal(&mut self, reason: AbandonReason) {
        if self.observed() {
            self.emit(&TraceEvent::SessionAbandoned { reason });
            self.close_root();
        }
    }

    /// Reports a traversal failure, naming the layer it arose in (the
    /// open leaf, or the session itself outside any leaf), and completes
    /// the trace. The outcomes that are part of normal operation count
    /// as abandoned instead: a receive timeout restarts the traversal, a
    /// closed connection is how clients hang up, and
    /// [`CoreError::HostStopped`] is orderly shutdown.
    pub(crate) fn record_failure(&mut self, err: &CoreError) {
        if let Some(reason) = err.abandon_reason() {
            self.end_traversal(reason);
        } else if self.observed() {
            self.emit(&TraceEvent::SessionFailed {
                stage: err.stage_label(),
                layer: self.leaf.as_ref().map_or(Layer::Session, |leaf| leaf.layer),
            });
            self.close_root();
        }
    }

    /// Ends tracing for a session being dropped without a result (e.g.
    /// its connection died while parked), so its partial trace completes
    /// instead of lingering as an active session.
    pub(crate) fn abandon(&mut self) {
        self.end_traversal(AbandonReason::Dropped);
    }

    /// Captures an abstract message crossing the mediator as a
    /// [`TraceEvent::MessageSnapshot`] — only when the session is traced,
    /// since rendering fields is the most expensive instrumentation the
    /// engine performs.
    fn snapshot_message(&self, stage: &'static str, msg: &AbstractMessage) {
        let Some(tracer) = &self.persist.tracer else {
            return;
        };
        let mut fields = String::new();
        for field in msg.fields() {
            let value = field.value().to_string();
            let _ = writeln!(
                fields,
                "{}={}",
                field.label(),
                // One `label=value` pair per line; keep embedded
                // newlines from forging extra pairs.
                value.replace('\n', "\\n")
            );
        }
        tracer.record(
            self.spec.telemetry.as_ref(),
            &TraceEvent::MessageSnapshot {
                stage,
                message: msg.name(),
                fields: &fields,
            },
        );
    }

    /// Returns a cleared wire buffer from the session's recycle pool, or
    /// a fresh one when the pool is empty.
    fn take_wire_buf(&mut self) -> Vec<u8> {
        match self.persist.wire_pool.pop() {
            Some(buf) => {
                self.emit(&TraceEvent::WireBufReused);
                buf
            }
            None => {
                self.emit(&TraceEvent::WireBufAllocated);
                Vec::new()
            }
        }
    }

    /// Returns a [`SessionIo::SendWire`] buffer to the recycle pool once
    /// the driver has written it, so the next compose reuses its
    /// capacity. The pool is bounded; surplus buffers are dropped.
    pub fn recycle_wire_buf(&mut self, mut buf: Vec<u8>) {
        const MAX_POOLED: usize = 4;
        if self.persist.wire_pool.len() < MAX_POOLED {
            buf.clear();
            self.persist.wire_pool.push(buf);
        }
    }

    fn reset_traversal(&mut self) {
        self.current = self
            .spec
            .automaton
            .initial()
            .expect("validated at construction")
            .to_owned();
        self.awaiting = None;
        self.started = true;
        self.finished = false;
        self.history = History::new();
        self.pending.clear();
        self.last_request_proto.clear();
        self.pending_op.clear();
        self.exchanges = 0;
        self.stall_flagged = false;
    }

    /// Called by a stall watchdog: flags the current await as stalled
    /// and emits [`TraceEvent::SessionStalled`] — once per stall episode
    /// (the flag clears when bytes arrive or the traversal restarts).
    /// Returns whether this call newly flagged the session, so callers
    /// can maintain a stalled-session count.
    pub(crate) fn note_stalled(&mut self, waited_ms: u64) -> bool {
        if self.stall_flagged {
            return false;
        }
        self.stall_flagged = true;
        let state = self.current.clone();
        self.emit(&TraceEvent::SessionStalled {
            state: &state,
            waited_ms,
        });
        true
    }

    /// Whether a watchdog has flagged the current await as stalled.
    pub(crate) fn stall_flagged(&self) -> bool {
        self.stall_flagged
    }

    /// Parses + unbinds an incoming wire message, matches it against the
    /// expected receive transitions, and records it in the history. The
    /// caller has entered the parse layer.
    fn consume_wire(&mut self, color: u8, wire: &[u8]) -> Result<()> {
        // Local handle so borrows of the spec don't pin `self`.
        let spec = Arc::clone(&self.spec);
        let cfg = color_config(&spec, color)?;
        let traced = self.observed();
        if traced {
            self.emit(&TraceEvent::WireIn {
                color,
                bytes: wire.len(),
            });
        }
        let proto = match &self.persist.tracer {
            // Through a span-scoped sink so dispatch-probe events carry
            // the session's causal metadata.
            Some(tracer) => {
                let scoped = SpanScopedSink::new(tracer, spec.telemetry.as_ref());
                cfg.codec.parse_with_sink(wire, &scoped)?
            }
            None => cfg.codec.parse(wire)?,
        };
        self.enter(Layer::Unbind, color);
        let app = if color == spec.client_color {
            let app = cfg
                .binding
                .unbind_request(&proto, |action| spec.templates.get(action))?;
            self.last_request_proto.insert(color, proto);
            app
        } else {
            let op = self.pending_op.get(&color).cloned().unwrap_or_default();
            let template = spec.templates.get(&format!("{op}.reply"));
            cfg.binding.unbind_reply(&proto, &op, template)?
        };
        self.snapshot_message("received", &app);
        let outgoing: Vec<&Transition> = spec.automaton.transitions_from(&self.current).collect();
        let matching = outgoing.iter().find(|t| {
            t.action
                .message()
                .map(|m| m.name() == app.name())
                .unwrap_or(false)
        });
        let t = matching.ok_or_else(|| CoreError::UnexpectedMessage {
            state: self.current.clone(),
            received: app.name().to_owned(),
            expected: outgoing.iter().map(|t| t.action.label()).collect(),
        })?;
        let to = t.to.clone();
        if traced {
            self.emit(&TraceEvent::Transition {
                from: &self.current,
                to: &to,
                kind: TransitionKind::Receive,
                color,
            });
        }
        self.history.record(to.clone(), Direction::Received, app);
        self.exchanges += 1;
        self.current = to;
        Ok(())
    }

    /// Advances through sending and no-action states until input is
    /// needed or the traversal ends, appending instructions to `ios`.
    fn advance(&mut self, ios: &mut Vec<SessionIo>) -> Result<()> {
        // Local handle so borrows of the spec don't pin `self`.
        let spec = Arc::clone(&self.spec);
        loop {
            let outgoing: Vec<&Transition> =
                spec.automaton.transitions_from(&self.current).collect();
            if outgoing.is_empty() {
                if spec.automaton.is_final(&self.current) {
                    self.finished = true;
                    // Emitted before the driver executes any sends still
                    // in `ios`, so the completion counter is ahead of the
                    // final reply reaching the wire (docs/engine.md).
                    if self.observed() {
                        self.emit(&TraceEvent::SessionFinished {
                            final_state: &self.current,
                            exchanges: self.exchanges,
                        });
                        self.close_root();
                    }
                    ios.push(SessionIo::Finished(SessionOutcome {
                        final_state: self.current.clone(),
                        exchanges: self.exchanges,
                    }));
                    return Ok(());
                }
                return Err(CoreError::Stuck {
                    state: self.current.clone(),
                });
            }
            match &outgoing[0].action {
                Action::Receive(_) => {
                    let color = state_color(&spec.automaton, &self.current)?;
                    if color != spec.client_color && !self.persist.connected.contains(&color) {
                        return Err(CoreError::Aborted {
                            reason: format!("receive on color {color} before any request was sent"),
                        });
                    }
                    self.awaiting = Some(color);
                    self.enter(Layer::Wait, color);
                    ios.push(SessionIo::NeedRecv { color });
                    return Ok(());
                }
                Action::Gamma { .. } => {
                    let t = outgoing[0];
                    let to = t.to.clone();
                    let from = t.from.clone();
                    self.gamma_step(&spec, &from, &to)?;
                    self.current = to;
                }
                Action::Send(_) => {
                    self.current = self.send_step(&spec, outgoing[0], ios)?;
                }
            }
        }
    }

    /// Runs one γ-transition `from → to`: executes its MTL program over
    /// the session history, honouring `sethost` overrides and parking
    /// the produced message for the next send. The caller advances
    /// `self.current` on success.
    fn gamma_step(&mut self, spec: &Arc<SessionSpec>, from: &str, to: &str) -> Result<()> {
        let traced = self.observed();
        // The γ's color is only reported, so only looked up when traced.
        let color = if traced {
            state_color(&spec.automaton, from).unwrap_or(0)
        } else {
            0
        };
        self.enter(Layer::Gamma, color);
        // The message the γ translates *from* is the most recently
        // observed one.
        if let Some(entry) = self.history.last() {
            self.snapshot_message("pre-gamma", &entry.message);
        }
        let program = spec
            .gammas
            .get(&(from.to_owned(), to.to_owned()))
            .cloned()
            .unwrap_or_else(MtlProgram::empty);
        let (executed, host, output) = {
            let mut ctx = MtlContext::new(&self.history, &mut self.persist.cache);
            // Pre-register the message the next send will need, composed
            // at the γ's target state.
            if let Some(send_template) = next_send_template(&spec.automaton, to) {
                ctx.add_output(to.to_owned(), AbstractMessage::new(send_template.name()));
            }
            let executed = program.execute(&mut ctx);
            let host = ctx.host_override().map(str::to_owned);
            let output = ctx.take_output(to);
            (executed, host, output)
        };
        executed?;
        if traced {
            self.emit(&TraceEvent::Transition {
                from,
                to,
                kind: TransitionKind::Gamma,
                color,
            });
        }
        if let Some(host) = host {
            self.persist.host_override = Some(host);
        }
        if let Some(msg) = output {
            self.snapshot_message("post-gamma", &msg);
            self.pending.insert(to.to_owned(), msg);
        }
        Ok(())
    }

    /// Executes one send transition out of `self.current`, appending the
    /// connect/send instructions to `ios`. Returns the target state; the
    /// caller advances `self.current` on success.
    fn send_step(
        &mut self,
        spec: &Arc<SessionSpec>,
        t: &Transition,
        ios: &mut Vec<SessionIo>,
    ) -> Result<String> {
        let traced = self.observed();
        let color = state_color(&spec.automaton, &self.current)?;
        self.enter(Layer::Bind, color);
        let template = t.action.message().expect("send actions carry a message");
        let mut app = self
            .pending
            .remove(&self.current)
            .unwrap_or_else(|| AbstractMessage::new(template.name()));
        app.set_name(template.name());
        self.snapshot_message("sent", &app);
        let cfg = color_config(spec, color)?;
        let to_client = color == spec.client_color;
        let proto = if to_client {
            // Reply to the client.
            cfg.binding
                .bind_reply(&app, self.last_request_proto.get(&color))?
        } else {
            // Request to a service.
            let mut proto = cfg.binding.bind_request(&app)?;
            if let Some(corr) = &cfg.binding.correlation {
                if proto.get_path(corr).is_err() {
                    proto.set_path(corr, Value::UInt(self.exchanges as u64 + 1))?;
                }
            }
            proto
        };
        self.enter(Layer::Compose, color);
        let mut bytes = self.take_wire_buf();
        cfg.codec.compose_into(&proto, &mut bytes)?;
        if traced {
            self.emit(&TraceEvent::WireOut {
                color,
                bytes: bytes.len(),
            });
        }
        if !to_client && !self.persist.connected.contains(&color) {
            let endpoint = service_endpoint(spec, &self.persist, color)?;
            self.persist.connected.insert(color);
            if traced {
                self.emit(&TraceEvent::ServiceConnected { color });
            }
            ios.push(SessionIo::ConnectService { color, endpoint });
        }
        ios.push(SessionIo::SendWire { color, bytes });
        if !to_client {
            self.last_request_proto.insert(color, proto);
            self.pending_op.insert(color, app.name().to_owned());
        }
        if traced {
            self.emit(&TraceEvent::Transition {
                from: &self.current,
                to: &t.to,
                kind: TransitionKind::Send,
                color,
            });
        }
        self.history
            .record(self.current.clone(), Direction::Sent, app);
        self.exchanges += 1;
        Ok(t.to.clone())
    }
}

impl Drop for SessionCore {
    /// A core dropped mid-traversal (host shutdown with sessions parked,
    /// a replay that stops early) abandons it, so every started
    /// traversal is counted as ended exactly once.
    fn drop(&mut self) {
        self.abandon();
    }
}

/// The endpoint the driver should connect `color`'s service at,
/// honouring a `sethost` override issued earlier in the session.
fn service_endpoint(spec: &SessionSpec, persist: &SessionPersist, color: u8) -> Result<String> {
    if let Some(host) = &persist.host_override {
        return Ok(host.clone());
    }
    match &color_config(spec, color)?.endpoint {
        Some(ep) => Ok(ep.clone()),
        None => Err(CoreError::Binding {
            message: format!("color {color} has no service endpoint"),
        }),
    }
}

fn color_config(spec: &SessionSpec, color: u8) -> Result<&ColorConfig> {
    spec.colors
        .get(&color)
        .ok_or_else(|| CoreError::NotRegistered {
            kind: "color runtime",
            name: color.to_string(),
        })
}

/// The color that drives network activity at a state (single-colored
/// states only; bi-colored states carry γ-transitions, which touch no
/// network).
fn state_color(automaton: &Automaton, state_id: &str) -> Result<u8> {
    let state = automaton.state(state_id).ok_or_else(|| {
        CoreError::Automaton(starlink_automata::AutomatonError::UnknownState {
            automaton: automaton.name().to_owned(),
            state: state_id.to_owned(),
        })
    })?;
    Ok(state.colors[0])
}

/// The message template of the send transition leaving `state`, if the
/// state is a sending state.
fn next_send_template<'a>(automaton: &'a Automaton, state: &str) -> Option<&'a AbstractMessage> {
    automaton
        .transitions_from(state)
        .find_map(|t| match &t.action {
            Action::Send(m) => Some(m),
            _ => None,
        })
}
