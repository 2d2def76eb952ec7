//! The traced run's timing wrappers, attached from outside through the
//! public traits:
//!
//! * [`TapTransport`] wraps a [`Transport`] registered in the
//!   `NetworkEngine`, and every [`Listener`] and [`Connection`] it hands
//!   out, knowing each connection's [`Role`];
//! * [`TimedCodec`] wraps one mediator color's [`MessageCodec`].
//!
//! Both forward every trait method to the wrapped value unchanged (the
//! codec's `compose_into` and `parse_with_sink` included, so the mediator
//! stays on its buffer-reusing path) and append one [`Span`] per call to a
//! shared [`SpanLog`].

use starlink_mdl::{MdlError, MessageCodec};
use starlink_message::AbstractMessage;
use starlink_net::{Connection, Endpoint, Listener, Transport};
use starlink_telemetry::TelemetrySink;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Which end of which hop a connection is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Role {
    /// The client application's connection to the mediator.
    Client,
    /// The mediator's side of a client connection (client color).
    MediatorClient,
    /// The mediator's connection to the service (service color).
    MediatorService,
    /// The service's side of the mediator's connection.
    Service,
}

impl Role {
    /// Whether the connection belongs to the mediator.
    pub fn is_mediator(self) -> bool {
        matches!(self, Role::MediatorClient | Role::MediatorService)
    }
}

/// Which of the mediator's two colors a codec call served.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    /// The client-facing color.
    Client,
    /// The service-facing color.
    Service,
}

/// What one span timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// `Transport::connect` made by a connection of this role.
    Connect(Role),
    /// A listener yielded a connection of this role.
    Accept(Role),
    /// `Connection::send`.
    Send(Role),
    /// A receive-family call that returned a frame.
    Recv(Role),
    /// A receive-family call that returned no frame (poll miss, timeout
    /// slice, or the peer closing).
    Poll(Role),
    /// `parse` / `parse_with_sink` on one mediator color's codec.
    Parse(Side),
    /// `compose` / `compose_into` on one mediator color's codec.
    Compose(Side),
    /// The load generator began a unit.
    UnitStart,
    /// The load generator finished a unit.
    UnitEnd,
    /// The client application began one call.
    CallStart,
    /// The client application's call returned.
    CallEnd,
}

/// One timed call: start and end in nanoseconds since the log's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What was timed.
    pub op: Op,
    /// When the call started.
    pub start: u64,
    /// When the call returned (equal to `start` for markers).
    pub end: u64,
    /// Frame or wire bytes the call carried.
    pub bytes: u32,
    /// Whether the call succeeded (polls always count as succeeded).
    pub ok: bool,
}

/// A frame seen on a tapped connection, kept for offline replay and for
/// the transparency test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The mediator session (client connection accepted by the mediator)
    /// that was current when the frame passed.
    pub session: u32,
    /// The connection that carried it.
    pub role: Role,
    /// Whether the frame was sent (`true`) or received on that connection.
    pub sent: bool,
    /// The frame payload.
    pub bytes: Vec<u8>,
}

/// Which listener a tapped endpoint belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// A deployed mediator host.
    Mediator,
    /// The service the mediator calls.
    Service,
}

/// The shared record every wrapper appends to.
pub struct SpanLog {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    tiers: Mutex<HashMap<String, Tier>>,
    capture: AtomicBool,
    frames: Mutex<Vec<Frame>>,
    session: AtomicU32,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock()
        .expect("a thread panicked while holding the span log")
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> Arc<SpanLog> {
        Arc::new(SpanLog {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::with_capacity(1 << 16)),
            tiers: Mutex::new(HashMap::new()),
            capture: AtomicBool::new(false),
            frames: Mutex::new(Vec::new()),
            session: AtomicU32::new(0),
        })
    }

    /// Nanoseconds since the log's epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Appends one span.
    pub fn record(&self, op: Op, start: u64, bytes: usize, ok: bool) {
        let end = self.now();
        lock(&self.spans).push(Span {
            op,
            start,
            end,
            bytes: bytes as u32,
            ok,
        });
    }

    /// Appends a zero-length marker.
    pub fn mark(&self, op: Op) {
        let t = self.now();
        lock(&self.spans).push(Span {
            op,
            start: t,
            end: t,
            bytes: 0,
            ok: true,
        });
    }

    /// Drains every span recorded so far.
    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut *lock(&self.spans))
    }

    /// Declares which tier listens at `endpoint`. Connections accepted
    /// there, or made to it, get their role from this.
    pub fn assign(&self, endpoint: &Endpoint, tier: Tier) {
        lock(&self.tiers).insert(endpoint.to_string(), tier);
    }

    fn tier(&self, endpoint: &Endpoint) -> Option<Tier> {
        lock(&self.tiers).get(&endpoint.to_string()).copied()
    }

    /// Starts or stops keeping frame payloads.
    pub fn set_capture(&self, on: bool) {
        self.capture.store(on, Ordering::SeqCst);
    }

    /// Drains the frames kept so far.
    pub fn take_frames(&self) -> Vec<Frame> {
        std::mem::take(&mut *lock(&self.frames))
    }

    fn keep(&self, role: Role, sent: bool, bytes: &[u8]) {
        if self.capture.load(Ordering::SeqCst) {
            lock(&self.frames).push(Frame {
                session: self.session.load(Ordering::SeqCst),
                role,
                sent,
                bytes: bytes.to_vec(),
            });
        }
    }
}

/// A [`Transport`] wrapper timing every connect, accept, send and receive.
pub struct TapTransport {
    inner: Arc<dyn Transport>,
    log: Arc<SpanLog>,
}

impl TapTransport {
    /// Wraps `inner`, recording into `log`.
    pub fn new(inner: Arc<dyn Transport>, log: Arc<SpanLog>) -> TapTransport {
        TapTransport { inner, log }
    }
}

impl Transport for TapTransport {
    fn scheme(&self) -> &str {
        self.inner.scheme()
    }

    fn listen(&self, endpoint: &Endpoint) -> starlink_net::Result<Box<dyn Listener>> {
        Ok(Box::new(TapListener {
            inner: self.inner.listen(endpoint)?,
            log: self.log.clone(),
        }))
    }

    fn connect(&self, endpoint: &Endpoint) -> starlink_net::Result<Box<dyn Connection>> {
        let role = match self.log.tier(endpoint) {
            Some(Tier::Mediator) => Role::Client,
            Some(Tier::Service) => Role::MediatorService,
            // Not a benchmark endpoint: pass through untimed.
            None => return self.inner.connect(endpoint),
        };
        let start = self.log.now();
        let conn = self.inner.connect(endpoint);
        self.log.record(Op::Connect(role), start, 0, conn.is_ok());
        Ok(Box::new(TapConnection {
            inner: conn?,
            role,
            log: self.log.clone(),
        }))
    }
}

struct TapListener {
    inner: Box<dyn Listener>,
    log: Arc<SpanLog>,
}

impl TapListener {
    fn wrap(&self, conn: Box<dyn Connection>, start: u64) -> Box<dyn Connection> {
        let role = match self.log.tier(&self.inner.local_endpoint()) {
            Some(Tier::Mediator) => Role::MediatorClient,
            Some(Tier::Service) => Role::Service,
            None => return conn,
        };
        if role == Role::MediatorClient {
            self.log.session.fetch_add(1, Ordering::SeqCst);
        }
        self.log.record(Op::Accept(role), start, 0, true);
        Box::new(TapConnection {
            inner: conn,
            role,
            log: self.log.clone(),
        })
    }
}

impl Listener for TapListener {
    fn accept(&self) -> starlink_net::Result<Box<dyn Connection>> {
        let start = self.log.now();
        let conn = self.inner.accept()?;
        Ok(self.wrap(conn, start))
    }

    fn try_accept(&self) -> starlink_net::Result<Option<Box<dyn Connection>>> {
        let start = self.log.now();
        Ok(self.inner.try_accept()?.map(|conn| self.wrap(conn, start)))
    }

    fn local_endpoint(&self) -> Endpoint {
        self.inner.local_endpoint()
    }
}

struct TapConnection {
    inner: Box<dyn Connection>,
    role: Role,
    log: Arc<SpanLog>,
}

impl TapConnection {
    fn received(&self, start: u64, result: &starlink_net::Result<Vec<u8>>) {
        match result {
            Ok(frame) => {
                self.log
                    .record(Op::Recv(self.role), start, frame.len(), true);
                self.log.keep(self.role, false, frame);
            }
            Err(_) => self.log.record(Op::Poll(self.role), start, 0, true),
        }
    }
}

impl Connection for TapConnection {
    fn send(&mut self, data: &[u8]) -> starlink_net::Result<()> {
        let start = self.log.now();
        let result = self.inner.send(data);
        self.log
            .record(Op::Send(self.role), start, data.len(), result.is_ok());
        self.log.keep(self.role, true, data);
        result
    }

    fn receive(&mut self) -> starlink_net::Result<Vec<u8>> {
        let start = self.log.now();
        let result = self.inner.receive();
        self.received(start, &result);
        result
    }

    fn receive_timeout(&mut self, timeout: Duration) -> starlink_net::Result<Vec<u8>> {
        let start = self.log.now();
        let result = self.inner.receive_timeout(timeout);
        self.received(start, &result);
        result
    }

    fn try_receive(&mut self) -> starlink_net::Result<Option<Vec<u8>>> {
        let start = self.log.now();
        let result = self.inner.try_receive();
        match &result {
            Ok(Some(frame)) => {
                self.log
                    .record(Op::Recv(self.role), start, frame.len(), true);
                self.log.keep(self.role, false, frame);
            }
            Ok(None) | Err(_) => self.log.record(Op::Poll(self.role), start, 0, true),
        }
        result
    }

    fn peer(&self) -> String {
        self.inner.peer()
    }
}

/// A [`MessageCodec`] wrapper timing every parse and compose of one
/// mediator color.
pub struct TimedCodec {
    inner: Arc<dyn MessageCodec>,
    side: Side,
    log: Arc<SpanLog>,
}

impl TimedCodec {
    /// Wraps `inner`, the codec of the mediator color facing `side`.
    pub fn new(inner: Arc<dyn MessageCodec>, side: Side, log: Arc<SpanLog>) -> TimedCodec {
        TimedCodec { inner, side, log }
    }
}

impl MessageCodec for TimedCodec {
    fn parse(&self, data: &[u8]) -> Result<AbstractMessage, MdlError> {
        let start = self.log.now();
        let result = self.inner.parse(data);
        self.log
            .record(Op::Parse(self.side), start, data.len(), result.is_ok());
        result
    }

    fn compose(&self, msg: &AbstractMessage) -> Result<Vec<u8>, MdlError> {
        let start = self.log.now();
        let result = self.inner.compose(msg);
        let bytes = result.as_ref().map_or(0, Vec::len);
        self.log
            .record(Op::Compose(self.side), start, bytes, result.is_ok());
        result
    }

    fn compose_into(&self, msg: &AbstractMessage, out: &mut Vec<u8>) -> Result<(), MdlError> {
        let start = self.log.now();
        let result = self.inner.compose_into(msg, out);
        self.log
            .record(Op::Compose(self.side), start, out.len(), result.is_ok());
        result
    }

    fn message_names(&self) -> &[String] {
        self.inner.message_names()
    }

    fn parse_with_sink(
        &self,
        data: &[u8],
        sink: &dyn TelemetrySink,
    ) -> Result<AbstractMessage, MdlError> {
        let start = self.log.now();
        let result = self.inner.parse_with_sink(data, sink);
        self.log
            .record(Op::Parse(self.side), start, data.len(), result.is_ok());
        result
    }
}
