//! The Starlink runtime: binding models to protocols, generating
//! mediators, and executing k-colored automata against the network.
//!
//! This crate is the paper's primary contribution (Fig. 6): a "runtime
//! middleware framework which provides an engine to dynamically interpret
//! and execute middleware models".
//!
//! * [`ProtocolBinding`] — the action/data rules of §4.3 (Fig. 7) that
//!   bind an abstract API-usage automaton to a concrete protocol: where
//!   the action label lives in the protocol message, and how application
//!   parameters map onto protocol fields,
//! * [`ModelRegistry`] — named MDL codecs and automata, the deployable
//!   model bundle,
//! * [`concretize`] — produces the concrete application-middleware
//!   automaton of Fig. 7/8 (protocol message templates on transitions,
//!   MTL rewritten onto protocol field paths) for inspection and export,
//! * [`RpcClient`] / [`RpcServer`] — application endpoints executing
//!   their side of an application-middleware automaton (used to build
//!   the case study's heterogeneous clients and services),
//! * [`SessionCore`] — the automata engine of §4.2 as a pure, I/O-free
//!   state machine: receiving states park on a [`SessionIo::NeedRecv`]
//!   instruction, no-action (γ) states run MTL translations, sending
//!   states compose and emit [`SessionIo::SendWire`] instructions,
//! * [`Mediator`] / [`MediatorHost`] — deployment: a mediator packages
//!   the merged automaton with per-color runtimes into a shared
//!   [`SessionSpec`]; a host drives sessions either on a thread per
//!   client connection or multiplexed over a bounded worker pool
//!   (see `docs/engine.md`).
//!
//! Execution note: the engine applies binding rules *at the network
//! edges* (parse→unbind on receive, bind→compose on send) and runs MTL on
//! application-level messages. This is semantically the concrete merged
//! automaton of Fig. 8 — `concretize` materialises that view — but keeps
//! translation programs independent of protocol field layouts, which is
//! exactly the property §5.2 claims for the approach.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod binding;
mod concrete;
mod driver;
mod engine;
mod error;
mod mediator;
mod monitor;
mod ops;
mod registry;
mod rpc;
mod session_core;

pub use binding::{percent_decode, percent_encode};
pub use binding::{ActionRule, ParamRule, ProtocolBinding, ReplyAction, RestRoute};
pub use concrete::concretize;
pub use engine::ColorRuntime;
pub use error::CoreError;
pub use mediator::{Mediator, MediatorHost};
pub use monitor::ProtocolMonitor;
pub use ops::{OpsConfig, SessionDirectory, SessionEntry, StallPolicy, WatchdogConfig};
pub use registry::ModelRegistry;
pub use rpc::{RpcClient, RpcServer, ServiceHandler, ServiceInterface};
pub use session_core::{
    ColorConfig, SessionCore, SessionEvent, SessionIo, SessionOutcome, SessionPersist, SessionSpec,
};
// Telemetry types appearing in this crate's public API (sinks are
// injected through `SessionSpec` / `Mediator::with_telemetry`; snapshots
// come back out of `MediatorHost::telemetry_snapshot`; traces come back
// out of `MediatorHost::trace_buffer` / `flight_recorder` after
// `Mediator::enable_tracing`).
pub use starlink_telemetry::{
    noop_sink, FanoutSink, FlightRecorder, HealthCheck, HealthStatus, HealthThresholds,
    MessageCapture, NoopSink, PairHealth, Recorder, SessionTrace, SessionTraceId, SessionTracer,
    Snapshot, TelemetrySink, TraceBuffer, TraceEvent, TraceRecord, TraceRecordKind,
    WindowAggregator, WindowConfig, WindowCounts,
};

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, CoreError>;
