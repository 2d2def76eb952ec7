//! Every started traversal ends exactly once: after the 32 × 5 `Add`
//! workload, on both host shapes, the lifetime counters balance as
//! started = finished + failed + abandoned — before shutdown (once the
//! host has seen every client hang up) and after it.

use starlink::apps::calculator::{add_plus_mediator, run_add_workload, PlusService};
use starlink::core::{Mediator, MediatorHost, Snapshot};
use starlink::net::{Endpoint, MemoryTransport, NetworkEngine};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CLIENTS: usize = 32;
const REQUESTS: usize = 5;

/// `(started, finished + failed + abandoned)`.
fn balance(snap: &Snapshot) -> (u64, u64) {
    (
        snap.counter("starlink_sessions_started_total"),
        snap.counter("starlink_sessions_finished_total")
            + snap.counter("starlink_sessions_failed_total")
            + snap.counter("starlink_sessions_abandoned_total"),
    )
}

fn check_balance(name: &str, deploy: impl FnOnce(Mediator, &Endpoint) -> MediatorHost) {
    let mut net = NetworkEngine::new();
    net.register(Arc::new(MemoryTransport::new()));
    let plus = PlusService::deploy(&net, &Endpoint::memory(format!("{name}-plus"))).unwrap();
    let mediator = add_plus_mediator(net.clone(), plus.endpoint().clone()).unwrap();
    let host = deploy(mediator, &Endpoint::memory(format!("{name}-bridge")));

    let completed = run_add_workload(&net, host.endpoint(), CLIENTS, REQUESTS);
    assert_eq!(completed, CLIENTS * REQUESTS, "{name}");

    // Every client has hung up. Each connection started one more
    // traversal after its last reply; the host abandons it once it
    // notices the hang-up.
    let settled = |snap: &Snapshot| {
        let (started, ended) = balance(snap);
        started == ended && snap.counter("starlink_sessions_abandoned_total") == CLIENTS as u64
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut snap = host.telemetry_snapshot();
    while !settled(&snap) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
        snap = host.telemetry_snapshot();
    }
    let (started, ended) = balance(&snap);
    assert_eq!(
        started,
        ended,
        "{name} before shutdown:\n{}",
        snap.render_text()
    );
    assert_eq!(
        snap.counter("starlink_sessions_finished_total"),
        (CLIENTS * REQUESTS) as u64,
        "{name}"
    );
    assert_eq!(snap.counter("starlink_sessions_failed_total"), 0, "{name}");
    assert_eq!(
        snap.counter("starlink_sessions_abandoned_total"),
        CLIENTS as u64,
        "{name}"
    );

    host.shutdown();
    let snap = host.telemetry_snapshot();
    let (started, ended) = balance(&snap);
    assert_eq!(
        started,
        ended,
        "{name} after shutdown:\n{}",
        snap.render_text()
    );
}

#[test]
fn threaded_host_balances_started_against_ended() {
    check_balance("balance-threaded", |mediator, listen| {
        MediatorHost::deploy(mediator, listen).unwrap()
    });
}

#[test]
fn multiplexed_host_balances_started_against_ended() {
    check_balance("balance-mux", |mediator, listen| {
        MediatorHost::deploy_multiplexed(mediator, listen, 4).unwrap()
    });
}
