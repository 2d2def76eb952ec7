//! Mediator construction and deployment.
//!
//! A [`Mediator`] packages a merged k-colored automaton with per-color
//! runtime configurations into a shared [`SessionSpec`]; a
//! [`MediatorHost`] deploys it "in the network" (paper §5.1): it listens
//! at the client-facing endpoint and runs one engine session per client
//! automaton traversal. Combined with a redirect proxy (see the apps
//! crate) this reproduces the paper's deployment, where unmodified
//! Flickr clients were pointed at the local Starlink mediator.
//!
//! Two deployment shapes share the same sans-I/O [`SessionCore`]:
//!
//! * [`MediatorHost::deploy`] — thread per client connection, blocking
//!   I/O (the original engine's shape);
//! * [`MediatorHost::deploy_multiplexed`] — one coordinator polling
//!   connection readiness plus a bounded worker pool stepping session
//!   cores, so many idle clients cost no threads.

use crate::driver::{self, ConnectionState};
use crate::engine::ColorRuntime;
use crate::error::CoreError;
use crate::ops::{OpsConfig, OpsRuntime, SessionWatch};
use crate::session_core::{
    ColorConfig, SessionCore, SessionEvent, SessionIo, SessionOutcome, SessionPersist, SessionSpec,
};
use crate::Result;
use starlink_automata::{Action, Automaton};
use starlink_mtl::MtlProgram;
use starlink_net::channel::{self, Receiver, Sender};
use starlink_net::{Connection, Endpoint, NetError, NetworkEngine};
use starlink_telemetry::{
    chrome_events, evaluate_pair, render_chrome_json, FanoutSink, FlightRecorder, HealthInputs,
    PairHealth, Recorder, SessionTracer, Snapshot, TelemetrySink, TraceBuffer, TraceEvent,
    WindowAggregator, WindowCounts,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long the accept/coordinator loops sleep when nothing is ready.
const IDLE_POLL: Duration = Duration::from_millis(1);

/// How long the accept loop backs off after a transient accept error.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(5);

/// How long the diagnostics endpoint waits for a client's selector frame
/// before answering with an `error:` frame. The endpoint serves one
/// client at a time, so a silent client holds it at most this long.
const SELECTOR_TIMEOUT: Duration = Duration::from_secs(1);

/// A deployable mediator: merged automaton + per-color runtimes.
pub struct Mediator {
    spec: Arc<SessionSpec>,
    net: NetworkEngine,
    /// Per-exchange receive timeout.
    pub timeout: Duration,
    /// Installed by [`Mediator::enable_tracing`]; handed to the host at
    /// deployment so callers can read traces back.
    trace_buffer: Option<Arc<TraceBuffer>>,
    flight: Option<Arc<FlightRecorder>>,
    /// Installed by [`Mediator::enable_ops`]; handed to the host at
    /// deployment, which builds the watchdog/health runtime from it.
    ops: Option<OpsConfig>,
    window: Option<Arc<WindowAggregator>>,
}

impl Mediator {
    /// Builds a mediator, pre-parsing every γ-transition's MTL program
    /// and collecting the application message templates the binding
    /// rules need.
    ///
    /// # Errors
    ///
    /// Automaton validation failures (including mixed-kind states, which
    /// the engine cannot execute) and MTL syntax errors (reported at
    /// deployment time, not mid-session).
    pub fn new(
        automaton: Automaton,
        client_color: u8,
        runtimes: Vec<ColorRuntime>,
        net: NetworkEngine,
    ) -> Result<Mediator> {
        automaton.validate()?;
        let mut gammas = HashMap::new();
        let mut templates = HashMap::new();
        for t in automaton.transitions() {
            match &t.action {
                Action::Gamma { mtl } => {
                    let program = MtlProgram::parse(mtl)?;
                    gammas.insert((t.from.clone(), t.to.clone()), program);
                }
                Action::Send(m) | Action::Receive(m) => {
                    templates.insert(m.name().to_owned(), m.clone());
                }
            }
        }
        let colors = runtimes
            .into_iter()
            .map(|r| {
                (
                    r.color,
                    ColorConfig {
                        binding: r.binding,
                        codec: r.codec,
                        endpoint: r.endpoint.map(|e| e.to_string()),
                    },
                )
            })
            .collect();
        Ok(Mediator {
            spec: Arc::new(SessionSpec {
                automaton: Arc::new(automaton),
                client_color,
                colors,
                gammas,
                templates,
                telemetry: starlink_telemetry::noop_sink(),
            }),
            net,
            timeout: Duration::from_secs(10),
            trace_buffer: None,
            flight: None,
            ops: None,
            window: None,
        })
    }

    /// Switches on the operations plane: installs a sliding-window
    /// aggregator (labelled with the merged automaton's name) next to
    /// whatever sink is already injected, and records the watchdog
    /// policy and health thresholds for the host to pick up at
    /// deployment. Returns the window; after deployment the host serves
    /// its rates, the stall watchdog, the live session directory and the
    /// health gauges through [`MediatorHost::expose_diagnostics`].
    /// Idempotent — calling twice returns the already-installed window
    /// (the first config wins).
    pub fn enable_ops(&mut self, config: OpsConfig) -> Arc<WindowAggregator> {
        if let Some(window) = &self.window {
            return window.clone();
        }
        let window = Arc::new(WindowAggregator::new(
            self.spec.automaton.name(),
            config.window,
        ));
        self.add_sinks(vec![window.clone()]);
        self.ops = Some(config);
        self.window = Some(window.clone());
        window
    }

    /// Switches on per-session causal tracing: installs a
    /// [`TraceBuffer`] (span trees of the last N completed sessions) and
    /// a [`FlightRecorder`] (bounded per-session message captures pre-
    /// and post-γ), fanned out with whatever sink is already injected.
    /// Returns both stores; after deployment they are also reachable via
    /// [`MediatorHost::trace_buffer`] and
    /// [`MediatorHost::flight_recorder`]. Idempotent — calling twice
    /// returns the already-installed pair.
    pub fn enable_tracing(&mut self) -> (Arc<TraceBuffer>, Arc<FlightRecorder>) {
        if let (Some(buffer), Some(flight)) = (&self.trace_buffer, &self.flight) {
            return (buffer.clone(), flight.clone());
        }
        let buffer = Arc::new(TraceBuffer::new());
        let flight = Arc::new(FlightRecorder::new());
        self.add_sinks(vec![buffer.clone(), flight.clone()]);
        self.trace_buffer = Some(buffer.clone());
        self.flight = Some(flight.clone());
        (buffer, flight)
    }

    /// The merged automaton this mediator executes.
    pub fn automaton(&self) -> &Automaton {
        &self.spec.automaton
    }

    /// The sink sessions report into (the no-op sink unless one was
    /// injected).
    pub fn telemetry(&self) -> Arc<dyn TelemetrySink> {
        self.spec.telemetry.clone()
    }

    /// Injects the telemetry sink every session driven from this mediator
    /// reports into. Rebuilds the shared [`SessionSpec`]; call before
    /// deploying (sessions already running keep the old sink).
    pub fn set_telemetry(&mut self, sink: Arc<dyn TelemetrySink>) {
        self.spec = Arc::new(SessionSpec {
            automaton: self.spec.automaton.clone(),
            client_color: self.spec.client_color,
            colors: self.spec.colors.clone(),
            gammas: self.spec.gammas.clone(),
            templates: self.spec.templates.clone(),
            telemetry: sink,
        });
    }

    /// Installs `added` next to the current sink, which is kept only when
    /// enabled; a [`FanoutSink`] joins them when more than one remains.
    /// Returns the installed sink.
    fn add_sinks(&mut self, added: Vec<Arc<dyn TelemetrySink>>) -> Arc<dyn TelemetrySink> {
        let existing = self.telemetry();
        let mut sinks = Vec::with_capacity(added.len() + 1);
        if existing.enabled() {
            sinks.push(existing);
        }
        sinks.extend(added);
        let sink: Arc<dyn TelemetrySink> = match sinks.len() {
            1 => sinks.remove(0),
            _ => Arc::new(FanoutSink::new(sinks)),
        };
        self.set_telemetry(sink.clone());
        sink
    }

    /// Builder-style [`Mediator::set_telemetry`].
    #[must_use]
    pub fn with_telemetry(mut self, sink: Arc<dyn TelemetrySink>) -> Mediator {
        self.set_telemetry(sink);
        self
    }

    /// The shared session specification, for driving [`SessionCore`]
    /// directly (deterministic replay tests, custom drivers).
    pub fn session_spec(&self) -> Arc<SessionSpec> {
        self.spec.clone()
    }

    /// Runs one full automaton traversal against an already-accepted
    /// client connection (testing / embedded use).
    ///
    /// # Errors
    ///
    /// Any engine failure; the connection should be dropped afterwards.
    pub fn run_session(&self, client_conn: &mut dyn Connection) -> Result<SessionOutcome> {
        let mut state = ConnectionState::new();
        driver::run_blocking(
            &self.spec,
            &self.net,
            self.timeout,
            client_conn,
            &mut state,
            None,
            None,
        )
    }
}

/// A deployed mediator: listening at the client-facing endpoint, running
/// one engine session per client automaton traversal — either on a
/// thread per connection ([`MediatorHost::deploy`]) or multiplexed over
/// a bounded worker pool ([`MediatorHost::deploy_multiplexed`]).
pub struct MediatorHost {
    endpoint: Endpoint,
    stop: Arc<AtomicBool>,
    /// Present when [`Mediator::enable_tracing`] ran before deployment.
    flight: Option<Arc<FlightRecorder>>,
    /// Everything the diagnostics endpoint needs (including the host's
    /// sink), cloneable into its serving thread.
    diag: DiagState,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

/// Ensures the mediator's sink can snapshot: keeps an
/// already-aggregating sink as-is, otherwise installs a fresh
/// [`Recorder`] (fanned out with the caller's sink when one is present).
fn install_recorder(mediator: &mut Mediator) -> Arc<dyn TelemetrySink> {
    let existing = mediator.telemetry();
    if existing.snapshot().is_some() {
        return existing;
    }
    mediator.add_sinks(vec![Arc::new(Recorder::new())])
}

/// Builds the deployment's operations runtime from the mediator's
/// [`OpsConfig`], clamping the watchdog's stall deadline inside the
/// receive timeout so a stall is flagged before the timeout restarts the
/// traversal (which would reset the wait unobserved).
fn build_ops(mediator: &Mediator, telemetry: &Arc<dyn TelemetrySink>) -> Option<Arc<OpsRuntime>> {
    let config = mediator.ops?;
    let window = mediator.window.clone()?;
    let watchdog = config.watchdog.map(|mut wd| {
        if wd.stall_after >= mediator.timeout {
            wd.stall_after = (mediator.timeout / 2).max(Duration::from_millis(1));
        }
        wd
    });
    Some(Arc::new(OpsRuntime::new(
        window,
        config.thresholds,
        watchdog,
        telemetry.clone(),
    )))
}

/// Accept-time bookkeeping both host shapes share: mints the session's
/// tracer here, so the accept event lands in the session's own trace,
/// records `SessionAccepted`, and registers the session in the directory
/// when ops are enabled.
fn admit(
    sink: &dyn TelemetrySink,
    ops: Option<&Arc<OpsRuntime>>,
) -> (Option<SessionTracer>, Option<SessionWatch>) {
    let tracer = SessionTracer::for_sink(sink);
    match &tracer {
        Some(t) => t.record(sink, &TraceEvent::SessionAccepted),
        None => sink.record(&TraceEvent::SessionAccepted),
    }
    (tracer, ops.map(OpsRuntime::watch_new_session))
}

/// The diagnostics endpoint's view of a deployed host: enough shared
/// state to answer every selector without touching the host itself (the
/// serving thread outlives borrows of [`MediatorHost`]).
#[derive(Clone)]
struct DiagState {
    /// The sink the host's sessions report into; deployment guarantees
    /// it aggregates (see [`install_recorder`]).
    telemetry: Arc<dyn TelemetrySink>,
    trace_buffer: Option<Arc<TraceBuffer>>,
    /// The merged-automaton pair this host serves, labelling health and
    /// window families.
    pair: String,
    /// Jobs handed to the worker pool and not yet handed back (always 0
    /// for the thread-per-connection host).
    queue_depth: Arc<AtomicUsize>,
    /// Bounded job-channel capacity (0 = no bounded queue: threaded host).
    queue_capacity: usize,
    ops: Option<Arc<OpsRuntime>>,
}

impl DiagState {
    /// Deployment set-up both host shapes share: guarantees an
    /// aggregating sink and builds the operations runtime.
    fn new(mediator: &mut Mediator, queue_capacity: usize) -> DiagState {
        let telemetry = install_recorder(mediator);
        let ops = build_ops(mediator, &telemetry);
        DiagState {
            telemetry,
            trace_buffer: mediator.trace_buffer.clone(),
            pair: mediator.spec.automaton.name().to_owned(),
            queue_depth: Arc::new(AtomicUsize::new(0)),
            queue_capacity,
            ops,
        }
    }

    /// Lifecycle counts feeding the health model: the sliding window
    /// when ops are enabled, else lifetime counters recast as a window
    /// of unspecified length (`window_secs` 0 — absolute thresholds
    /// still grade, rate-denominated ones see totals).
    fn window_counts(&self, lifetime: &Snapshot) -> WindowCounts {
        match &self.ops {
            Some(ops) => ops.window.counts(),
            None => WindowCounts {
                window_secs: 0,
                started: lifetime.counter("starlink_sessions_started_total"),
                finished: lifetime.counter("starlink_sessions_finished_total"),
                failed: lifetime.counter("starlink_sessions_failed_total"),
                abandoned: lifetime.counter("starlink_sessions_abandoned_total"),
                accepted: lifetime.counter("starlink_sessions_accepted_total"),
                accept_errors: lifetime.counter("starlink_accept_errors_total"),
                stalled: lifetime.counter("starlink_sessions_stalled_total"),
                failures_by_stage: Vec::new(),
            },
        }
    }

    fn health(&self, lifetime: &Snapshot) -> PairHealth {
        let thresholds = self.ops.as_ref().map(|o| o.thresholds).unwrap_or_default();
        let stalled_now = self
            .ops
            .as_ref()
            .map(|o| o.stalled_now() as u64)
            .unwrap_or(0);
        let inputs = HealthInputs {
            pair: self.pair.clone(),
            window: self.window_counts(lifetime),
            queue_depth: self.queue_depth.load(Ordering::SeqCst) as u64,
            queue_capacity: self.queue_capacity as u64,
            stalled_now,
        };
        evaluate_pair(&inputs, &thresholds)
    }

    /// The recorder's lifetime families plus windowed rates and health
    /// gauges — the `stats` selector's payload.
    fn snapshot(&self) -> Snapshot {
        let mut snap = self.telemetry.snapshot().unwrap_or_default();
        let health = self.health(&snap);
        if let Some(ops) = &self.ops {
            snap.families.extend(ops.window.families());
        }
        snap.families.extend(health.families());
        snap
    }

    /// Answers one diagnostics request frame.
    fn respond(&self, selector: &str) -> Vec<u8> {
        match selector {
            "stats" => self.snapshot().render_text().into_bytes(),
            "sessions" => match &self.ops {
                Some(ops) => ops.directory.render_text().into_bytes(),
                None => {
                    b"error: session directory not enabled (call Mediator::enable_ops before deploying)\n"
                        .to_vec()
                }
            },
            "traces" => match &self.trace_buffer {
                Some(buffer) => {
                    let events: Vec<_> = buffer.traces().iter().flat_map(chrome_events).collect();
                    render_chrome_json(&events).into_bytes()
                }
                None => {
                    b"error: tracing not enabled (call Mediator::enable_tracing before deploying)\n"
                        .to_vec()
                }
            },
            "" => b"error: no diagnostics selector sent (expected stats, traces or sessions)\n"
                .to_vec(),
            other => format!(
                "error: unknown diagnostics selector `{other}` (expected stats, traces or sessions)\n"
            )
            .into_bytes(),
        }
    }
}

impl MediatorHost {
    /// Deploys the mediator at `listen`, thread-per-connection.
    ///
    /// The accept loop polls so that [`MediatorHost::shutdown`] takes
    /// effect promptly, tolerates transient accept errors (backing off
    /// briefly instead of dying), and exits only on shutdown or when the
    /// listener itself closes.
    ///
    /// # Errors
    ///
    /// Bind failures.
    pub fn deploy(mut mediator: Mediator, listen: &Endpoint) -> Result<MediatorHost> {
        let listener = mediator.net.listen(listen)?;
        let endpoint = listener.local_endpoint();
        let diag = DiagState::new(&mut mediator, 0);
        let flight = mediator.flight.clone();
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = stop.clone();
        let accept_ops = diag.ops.clone();
        let mediator = Arc::new(mediator);
        let accept_thread = std::thread::spawn(move || {
            let sink = mediator.spec.telemetry.clone();
            let mut session_threads: Vec<JoinHandle<()>> = Vec::new();
            while !accept_stop.load(Ordering::SeqCst) {
                let mut conn = match listener.try_accept() {
                    Ok(Some(c)) => c,
                    Ok(None) => {
                        std::thread::sleep(IDLE_POLL);
                        continue;
                    }
                    Err(NetError::Closed) => break,
                    Err(_) => {
                        // Transient (e.g. EMFILE, aborted handshake):
                        // keep serving.
                        sink.record(&TraceEvent::AcceptError);
                        std::thread::sleep(ACCEPT_BACKOFF);
                        continue;
                    }
                };
                reap_finished(&mut session_threads);
                let (tracer, watch) = admit(sink.as_ref(), accept_ops.as_ref());
                let mediator = mediator.clone();
                let stop = accept_stop.clone();
                session_threads.push(std::thread::spawn(move || {
                    // The translation cache persists across traversals on
                    // the same connection (getInfo after search).
                    let mut state = ConnectionState::new();
                    state.tracer = tracer;
                    while !stop.load(Ordering::SeqCst) {
                        let run = driver::run_blocking(
                            &mediator.spec,
                            &mediator.net,
                            mediator.timeout,
                            conn.as_mut(),
                            &mut state,
                            Some(&stop),
                            watch.as_ref(),
                        );
                        // Completions are counted by the session core
                        // itself (`SessionFinished` fires before the
                        // final reply hits the wire); failures by the
                        // driver.
                        match run {
                            Ok(_) => {}
                            Err(CoreError::Net(NetError::Timeout)) => continue,
                            Err(_) => break,
                        }
                    }
                }));
            }
            for t in session_threads {
                let _ = t.join();
            }
        });
        Ok(MediatorHost {
            endpoint,
            stop,
            flight,
            diag,
            threads: Mutex::new(vec![accept_thread]),
        })
    }

    /// Deploys the mediator at `listen`, multiplexing all client
    /// connections over a pool of at most `max_workers` worker threads.
    ///
    /// A coordinator thread polls the listener and parked connections
    /// for readiness; sessions with input ready are handed to workers
    /// over a bounded channel (blocking the coordinator when all workers
    /// are busy — natural backpressure). Idle connections cost no
    /// threads, so the host serves far more concurrent clients than
    /// workers.
    ///
    /// # Errors
    ///
    /// Bind failures.
    pub fn deploy_multiplexed(
        mut mediator: Mediator,
        listen: &Endpoint,
        max_workers: usize,
    ) -> Result<MediatorHost> {
        let listener = mediator.net.listen(listen)?;
        let endpoint = listener.local_endpoint();
        let max_workers = max_workers.max(1);
        // Bounded: when every worker is busy and the buffer is full, the
        // coordinator's send blocks until a slot frees up.
        let queue_capacity = max_workers * 2;
        let diag = DiagState::new(&mut mediator, queue_capacity);
        let flight = mediator.flight.clone();
        let stop = Arc::new(AtomicBool::new(false));
        let (jobs_tx, jobs_rx) = channel::bounded::<Job>(queue_capacity);
        let (done_tx, done_rx) = channel::unbounded::<MuxSession>();
        // Jobs handed to the pool and not yet handed back; shared so the
        // coordinator and workers keep the queue-depth gauge honest.
        let queue_depth = diag.queue_depth.clone();
        let mediator = Arc::new(mediator);
        let mut threads = Vec::with_capacity(max_workers + 1);
        for _ in 0..max_workers {
            let jobs_rx = jobs_rx.clone();
            let done_tx = done_tx.clone();
            let mediator = mediator.clone();
            let stop = stop.clone();
            let queue_depth = queue_depth.clone();
            threads.push(std::thread::spawn(move || {
                worker_loop(&jobs_rx, &done_tx, &mediator, &stop, &queue_depth);
            }));
        }
        drop(jobs_rx);
        drop(done_tx);
        let coord_stop = stop.clone();
        let coord_ops = diag.ops.clone();
        threads.push(std::thread::spawn(move || {
            coordinator_loop(
                listener.as_ref(),
                &jobs_tx,
                &done_rx,
                &mediator,
                &coord_stop,
                &queue_depth,
                coord_ops.as_ref(),
            );
        }));
        Ok(MediatorHost {
            endpoint,
            stop,
            flight,
            diag,
            threads: Mutex::new(threads),
        })
    }

    /// The endpoint the mediator is reachable at.
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// The sink this host's sessions report into (always able to
    /// snapshot; see [`MediatorHost::telemetry_snapshot`]).
    pub fn telemetry(&self) -> Arc<dyn TelemetrySink> {
        self.diag.telemetry.clone()
    }

    /// Span trees of the last N completed sessions, when
    /// [`Mediator::enable_tracing`] ran before deployment.
    pub fn trace_buffer(&self) -> Option<Arc<TraceBuffer>> {
        self.diag.trace_buffer.clone()
    }

    /// Per-session message captures (pre-/post-γ), when
    /// [`Mediator::enable_tracing`] ran before deployment.
    pub fn flight_recorder(&self) -> Option<Arc<FlightRecorder>> {
        self.flight.clone()
    }

    /// A point-in-time aggregate of everything the host reports: session
    /// lifecycle counts (`starlink_sessions_finished_total` counts
    /// completed traversals), transition and γ-translation rates,
    /// parse/compose latency histograms, wire volume, pool reuse,
    /// host-level accept/queue gauges, the operations plane's windowed
    /// rates (when ops are enabled) and the health gauges. This is what
    /// the `stats` diagnostics selector serves; render with
    /// [`Snapshot::render_text`] for the Prometheus-style exposition the
    /// `starlink stats` and `starlink health` commands consume.
    pub fn telemetry_snapshot(&self) -> Snapshot {
        self.diag.snapshot()
    }

    /// The host's health: the sliding window's failure and accept-error
    /// rates, queue saturation and the stall watchdog's live count
    /// graded against the configured [`crate::OpsConfig`] thresholds
    /// (defaults when ops were not enabled). The same verdict is
    /// exported as the `starlink_health_*` gauges of
    /// [`MediatorHost::telemetry_snapshot`].
    pub fn health_report(&self) -> PairHealth {
        self.diag
            .health(&self.diag.telemetry.snapshot().unwrap_or_default())
    }

    /// Serves the diagnostics endpoint at `listen`. Every accepted
    /// connection must send one request frame naming a selector —
    /// `stats` ([`MediatorHost::telemetry_snapshot`] as exposition
    /// text), `traces` (Chrome `trace_event` JSON, when tracing is
    /// enabled) or `sessions` (the live session directory, when ops are
    /// enabled) — and receives one reply frame. A missing, empty or
    /// unknown selector, or one whose surface is not enabled, gets an
    /// `error: …` frame. Returns the bound endpoint; the serving thread
    /// is joined at [`MediatorHost::shutdown`].
    ///
    /// # Errors
    ///
    /// Bind failures.
    pub fn expose_diagnostics(&self, net: &NetworkEngine, listen: &Endpoint) -> Result<Endpoint> {
        let listener = net.listen(listen)?;
        let endpoint = listener.local_endpoint();
        let stop = self.stop.clone();
        let diag = self.diag.clone();
        let handle = std::thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                match listener.try_accept() {
                    Ok(Some(mut conn)) => {
                        let selector = conn
                            .receive_timeout(SELECTOR_TIMEOUT)
                            .map(|frame| String::from_utf8_lossy(&frame).trim().to_owned())
                            .unwrap_or_default();
                        let _ = conn.send(&diag.respond(&selector));
                    }
                    Ok(None) => std::thread::sleep(IDLE_POLL),
                    Err(NetError::Closed) => break,
                    Err(_) => std::thread::sleep(ACCEPT_BACKOFF),
                }
            }
        });
        self.threads
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(handle);
        Ok(endpoint)
    }

    /// Shuts the host down and waits for its threads: no new sessions
    /// start, in-flight sessions are interrupted at their next receive
    /// slice, and the accept/coordinator/worker threads are joined.
    ///
    /// Robust against worker panics: a poisoned thread-list lock is
    /// recovered (the panicking thread only ever pushed complete
    /// handles), and each panic is recorded as a `WorkerPanic` telemetry
    /// event instead of propagating out of shutdown.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        let telemetry = &self.diag.telemetry;
        let handles: Vec<JoinHandle<()>> = {
            let mut guard = match self.threads.lock() {
                Ok(guard) => guard,
                Err(poisoned) => {
                    telemetry.record(&TraceEvent::WorkerPanic);
                    poisoned.into_inner()
                }
            };
            guard.drain(..).collect()
        };
        for h in handles {
            if h.join().is_err() {
                telemetry.record(&TraceEvent::WorkerPanic);
            }
        }
    }
}

impl Drop for MediatorHost {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Joins the session threads that have exited, so a long-running accept
/// loop keeps handles — and the exited threads' stacks — only for live
/// connections. A panicked session's join error is dropped, as at
/// shutdown.
fn reap_finished(threads: &mut Vec<JoinHandle<()>>) {
    let mut i = 0;
    while i < threads.len() {
        if threads[i].is_finished() {
            let _ = threads.swap_remove(i).join();
        } else {
            i += 1;
        }
    }
}

/// One client connection multiplexed over the worker pool: its session
/// core plus the sockets the core's instructions refer to.
struct MuxSession {
    core: SessionCore,
    client: Box<dyn Connection>,
    services: HashMap<u8, Box<dyn Connection>>,
    /// Color the session is parked waiting to receive on.
    awaiting: Option<u8>,
    /// When the parked receive times out (triggering [`SessionEvent::Tick`]).
    deadline: Instant,
    /// When the current receive wait began (the stall watchdog measures
    /// from here; unlike `deadline` it is not pushed out by config).
    awaiting_since: Instant,
    /// The session's operations-plane watch (directory entry and stall
    /// watchdog); dropping the session drops its directory entry.
    watch: Option<SessionWatch>,
}

/// A unit of work for the pool: step this session with this event
/// (`None` = start the session's first traversal).
struct Job {
    session: MuxSession,
    event: Option<SessionEvent>,
}

fn worker_loop(
    jobs: &Receiver<Job>,
    done: &Sender<MuxSession>,
    mediator: &Arc<Mediator>,
    stop: &AtomicBool,
    queue_depth: &AtomicUsize,
) {
    while let Ok(job) = jobs.recv() {
        let Job { mut session, event } = job;
        let stepped = match event {
            None => session.core.start(),
            Some(event) => session.core.step(event),
        };
        // On engine or I/O failure the session (and its connections) is
        // dropped, mirroring the thread-per-connection host; otherwise it
        // parked awaiting input — hand it back for polling.
        let parked = match stepped.and_then(|ios| pump(&mut session, ios, mediator, stop)) {
            Ok(()) => true,
            Err(err) => {
                session.core.record_failure(&err);
                false
            }
        };
        let depth = queue_depth.fetch_sub(1, Ordering::SeqCst).saturating_sub(1);
        mediator
            .spec
            .telemetry
            .record(&TraceEvent::QueueDepth { depth });
        if parked && done.send(session).is_err() {
            return;
        }
    }
}

/// Executes a batch of core instructions with quick blocking I/O,
/// restarting the traversal whenever one finishes, until the session
/// parks on a receive.
fn pump(
    session: &mut MuxSession,
    mut ios: Vec<SessionIo>,
    mediator: &Arc<Mediator>,
    stop: &AtomicBool,
) -> Result<()> {
    loop {
        // Completions are counted by the core's `SessionFinished` event,
        // emitted during `advance()` — i.e. before this loop executes the
        // batch's sends, so once the final reply is on the wire the
        // counter already agrees.
        let finished = ios.iter().any(|io| matches!(io, SessionIo::Finished(_)));
        for io in ios {
            match io {
                SessionIo::Finished(_) => {}
                SessionIo::NeedRecv { color } => {
                    session.awaiting = Some(color);
                    let now = Instant::now();
                    session.deadline = now + mediator.timeout;
                    session.awaiting_since = now;
                }
                SessionIo::SendWire { color, bytes } => {
                    if color == mediator.spec.client_color {
                        session.client.send(&bytes)?;
                    } else {
                        let conn =
                            session
                                .services
                                .get_mut(&color)
                                .ok_or_else(|| CoreError::Aborted {
                                    reason: format!("send on color {color} with no connection"),
                                })?;
                        conn.send(&bytes)?;
                    }
                    session.core.recycle_wire_buf(bytes);
                }
                SessionIo::ConnectService { color, endpoint } => {
                    let endpoint: Endpoint = endpoint.parse()?;
                    let conn = mediator.net.connect(&endpoint)?;
                    session.services.insert(color, conn);
                }
            }
        }
        if !finished {
            // Advance stopped at a NeedRecv: park.
            return Ok(());
        }
        if stop.load(Ordering::SeqCst) {
            return Err(CoreError::HostStopped);
        }
        // Traversal done; begin the next one on the same connection
        // (persistent translation cache survives inside the core).
        ios = session.core.restart()?;
    }
}

/// What the coordinator decided to do with a parked session this poll.
enum Ready {
    /// Connection closed or failed: drop the session.
    Drop,
    /// The stall watchdog's abort policy fired: fail the session.
    Abort(CoreError),
    /// Input (or a timeout tick) is ready: hand to the pool.
    Step(SessionEvent),
}

fn coordinator_loop(
    listener: &dyn starlink_net::Listener,
    jobs: &Sender<Job>,
    done: &Receiver<MuxSession>,
    mediator: &Arc<Mediator>,
    stop: &AtomicBool,
    queue_depth: &AtomicUsize,
    ops: Option<&Arc<OpsRuntime>>,
) {
    let sink = mediator.spec.telemetry.clone();
    let mut parked: HashMap<u64, MuxSession> = HashMap::new();
    let mut next_id: u64 = 0;
    let mut last_active = usize::MAX;
    // Submitting a job before `jobs.send` keeps the gauge an upper bound
    // even while the send blocks on a full channel.
    let submit = |session: MuxSession, event: Option<SessionEvent>| {
        let depth = queue_depth.fetch_add(1, Ordering::SeqCst) + 1;
        sink.record(&TraceEvent::QueueDepth { depth });
        jobs.send(Job { session, event }).is_ok()
    };
    while !stop.load(Ordering::SeqCst) {
        let mut progressed = false;
        // 1. Workers hand back sessions parked on a receive.
        while let Ok(session) = done.try_recv() {
            next_id += 1;
            if let Some(w) = &session.watch {
                w.awaiting(session.core.current_state(), session.awaiting);
            }
            parked.insert(next_id, session);
            progressed = true;
        }
        // 2. New client connections start fresh sessions.
        match listener.try_accept() {
            Ok(Some(client)) => {
                let (tracer, watch) = admit(sink.as_ref(), ops);
                let mut persist = SessionPersist::new();
                persist.tracer = tracer;
                if let Ok(core) = SessionCore::new(mediator.spec.clone(), persist) {
                    let session = MuxSession {
                        core,
                        client,
                        services: HashMap::new(),
                        awaiting: None,
                        deadline: Instant::now() + mediator.timeout,
                        awaiting_since: Instant::now(),
                        watch,
                    };
                    if !submit(session, None) {
                        return;
                    }
                    progressed = true;
                }
            }
            Ok(None) => {}
            Err(NetError::Closed) => break,
            Err(_) => {
                sink.record(&TraceEvent::AcceptError);
                std::thread::sleep(ACCEPT_BACKOFF);
            }
        }
        // 3. Poll parked sessions for readiness (or timeout), running
        //    the stall watchdog over sessions still waiting.
        let now = Instant::now();
        let mut ready: Vec<(u64, Ready)> = Vec::new();
        for (&id, session) in parked.iter_mut() {
            let Some(color) = session.awaiting else {
                ready.push((id, Ready::Drop));
                continue;
            };
            let conn = if color == mediator.spec.client_color {
                Some(session.client.as_mut())
            } else {
                session.services.get_mut(&color).map(|c| c.as_mut())
            };
            let Some(conn) = conn else {
                ready.push((id, Ready::Drop));
                continue;
            };
            match conn.try_receive() {
                Ok(Some(bytes)) => {
                    ready.push((id, Ready::Step(SessionEvent::WireReceived { color, bytes })));
                }
                Ok(None) => {
                    if let Some(w) = &session.watch {
                        let waited = now.saturating_duration_since(session.awaiting_since);
                        if let Err(err) = w.check_stall(&mut session.core, waited) {
                            ready.push((id, Ready::Abort(err)));
                            continue;
                        }
                    }
                    if now >= session.deadline {
                        ready.push((id, Ready::Step(SessionEvent::Tick)));
                    }
                }
                // Closed or failed connection: drop the session.
                Err(_) => ready.push((id, Ready::Drop)),
            }
        }
        for (id, action) in ready {
            let mut session = parked.remove(&id).expect("session is parked");
            progressed = true;
            if let Some(w) = &session.watch {
                w.wait_ended(&session.core);
            }
            match action {
                // Connection closed or failed: the session is dropped
                // here, so close its trace instead of leaking an
                // open-ended span tree.
                Ready::Drop => session.core.abandon(),
                // Stall abort: count the failure under stage "stalled",
                // close the root span, and drop the session so its
                // connections and pool slot free up.
                Ready::Abort(err) => session.core.record_failure(&err),
                Ready::Step(event) => {
                    session.awaiting = None;
                    if !submit(session, Some(event)) {
                        return;
                    }
                }
            }
        }
        // Sessions this host is responsible for right now: parked here
        // plus handed to the pool; sampled whenever it moves.
        let active = parked.len() + queue_depth.load(Ordering::SeqCst);
        if active != last_active {
            last_active = active;
            sink.record(&TraceEvent::ActiveSessions { count: active });
        }
        if !progressed {
            std::thread::sleep(IDLE_POLL);
        }
    }
    // Dropping `jobs` (by returning) lets workers drain and exit; the
    // host joins them after the coordinator.
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wait_finished(thread: &JoinHandle<()>) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !thread.is_finished() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(thread.is_finished(), "thread did not exit in time");
    }

    #[test]
    fn reap_finished_joins_only_exited_threads() {
        let (release, released) = std::sync::mpsc::channel::<()>();
        let mut threads = vec![
            std::thread::spawn(|| {}),
            std::thread::spawn(move || {
                let _ = released.recv();
            }),
        ];
        wait_finished(&threads[0]);
        reap_finished(&mut threads);
        assert_eq!(threads.len(), 1, "the live session thread is kept");
        assert!(!threads[0].is_finished());

        release.send(()).unwrap();
        wait_finished(&threads[0]);
        reap_finished(&mut threads);
        assert!(threads.is_empty());
    }
}
