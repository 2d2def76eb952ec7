//! The multiplexed mediator host over real TCP sockets: many concurrent
//! GIOP `Add` clients served through a SOAP `Plus` service by a host
//! running a bounded pool of worker threads (see `docs/engine.md`).
//!
//! Run: `cargo run --example multiplexed_host`
//!
//! Operations-plane knobs (all optional, plain runs are unaffected):
//!
//! * `STARLINK_DIAG_ADDR=tcp://127.0.0.1:7070` — enable the ops plane
//!   and serve the unified diagnostics endpoint there (poll it with
//!   `starlink health tcp://127.0.0.1:7070`),
//! * `STARLINK_HOLD_SECS=<n>` — keep the host (and the diagnostics
//!   endpoint) up for `n` seconds after the workload completes,
//! * `STARLINK_STALL_DEMO=1` — hold one silent client connection so the
//!   stall watchdog flags it and health degrades while holding.

use starlink::apps::calculator::{add_plus_mediator, run_add_workload, PlusService};
use starlink::core::{MediatorHost, OpsConfig, TraceBuffer};
use starlink::net::{Endpoint, NetworkEngine, TcpTransport};
use starlink::telemetry::{chrome_events, render_chrome_json, render_timeline};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CLIENTS: usize = 32;
const REQUESTS: usize = 5;
const WORKERS: usize = 4;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("=== Multiplexed mediator host (GIOP ⇄ SOAP over TCP) ===\n");

    let mut net = NetworkEngine::new();
    net.register(Arc::new(TcpTransport::new()));

    let plus = PlusService::deploy(&net, &Endpoint::tcp("127.0.0.1", 0))?;
    println!("SOAP Plus service at {}", plus.endpoint());

    let diag_addr = std::env::var("STARLINK_DIAG_ADDR").ok();
    let stall_demo = std::env::var("STARLINK_STALL_DEMO").is_ok();
    let hold_secs: u64 = std::env::var("STARLINK_HOLD_SECS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);

    let mut mediator = add_plus_mediator(net.clone(), plus.endpoint().clone())?;
    // Captured field values are retained and served verbatim; a buffer
    // built with `TraceBuffer::with_redaction` rewrites them first.
    let traces = mediator.enable_tracing(TraceBuffer::new());
    if diag_addr.is_some() || stall_demo {
        mediator.enable_ops(OpsConfig::watching(Duration::from_secs(1)));
    }
    if stall_demo {
        // Keep the silent session parked (and the stall gauge raised)
        // for the whole hold instead of timing it out mid-demo.
        mediator.timeout = Duration::from_secs(600);
    }
    let host = MediatorHost::deploy_multiplexed(mediator, &Endpoint::tcp("127.0.0.1", 0), WORKERS)?;
    println!(
        "mediator (GIOP face) at {} — {WORKERS} worker threads\n",
        host.endpoint()
    );
    if let Some(addr) = &diag_addr {
        let diag = host.expose_diagnostics(&net, &addr.parse()?)?;
        println!("diagnostics endpoint at {diag}");
    }
    let _silent = if stall_demo {
        println!("stall demo: holding one silent client connection");
        Some(net.connect(host.endpoint())?)
    } else {
        None
    };

    let started = Instant::now();
    let completed = run_add_workload(&net, host.endpoint(), CLIENTS, REQUESTS);
    let elapsed = started.elapsed();

    println!("{CLIENTS} clients × {REQUESTS} calls: {completed} correct replies in {elapsed:?}");
    println!(
        "host counted {} completed sessions",
        host.telemetry_snapshot()
            .counter("starlink_sessions_finished_total")
    );
    assert_eq!(completed, CLIENTS * REQUESTS);

    if hold_secs > 0 {
        println!("holding host for {hold_secs}s (diagnostics pollable)…");
        std::thread::sleep(Duration::from_secs(hold_secs));
    }
    host.shutdown();
    println!("\nhost shut down cleanly; all threads joined.");

    // Every started traversal ended exactly once. Each client leaves one
    // traversal open when it hangs up, counted as abandoned.
    let snap = host.telemetry_snapshot();
    let started = snap.counter("starlink_sessions_started_total");
    let finished = snap.counter("starlink_sessions_finished_total");
    let failed = snap.counter("starlink_sessions_failed_total");
    let abandoned = snap.counter("starlink_sessions_abandoned_total");
    println!("traversals: {started} started = {finished} finished + {failed} failed + {abandoned} abandoned");
    assert_eq!(started, finished + failed + abandoned);

    println!("\n--- telemetry snapshot ---");
    print!("{}", snap.render_text());

    // Per-session causal trace of one completed session: the wait,
    // parse, unbind, γ, bind and compose layers on each color, as a
    // span tree under the session root.
    // The very latest trace is the empty traversal parked when the
    // client hung up, so show the latest one that did translation work.
    let traced = traces
        .traces()
        .into_iter()
        .rev()
        .find(|t| t.span_names().contains(&"gamma"));
    if let Some(trace) = traced {
        println!("\n--- latest session trace ---");
        print!("{}", render_timeline(&chrome_events(&trace)));
        // The trace carries the messages it captured, fields included.
        let captures: Vec<_> = trace
            .records
            .iter()
            .filter(|r| r.name == "message")
            .collect();
        println!("--- message captures ({}) ---", captures.len());
        for c in &captures {
            let fields: Vec<String> = c.args.iter().map(|(k, v)| format!("{k}={v}")).collect();
            println!("  {} {}", c.detail, fields.join(" "));
        }
    }

    // STARLINK_TRACE_OUT=<path> dumps every completed session trace as
    // Chrome trace_event JSON (load in chrome://tracing or Perfetto).
    if let Ok(path) = std::env::var("STARLINK_TRACE_OUT") {
        let events: Vec<_> = traces.traces().iter().flat_map(chrome_events).collect();
        std::fs::write(&path, render_chrome_json(&events))?;
        println!("\nwrote Chrome trace ({} events) to {path}", events.len());
    }
    Ok(())
}
