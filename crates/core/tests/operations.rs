//! Operations-plane behaviour: the stall watchdog (observe and abort
//! policies, both host shapes), health degrading on stalls, and the
//! diagnostics endpoint's request/reply selectors.

use starlink_automata::merge::{template, MergeBuilder};
use starlink_core::{
    ActionRule, ColorRuntime, HealthStatus, Mediator, MediatorHost, OpsConfig, PairHealth,
    ParamRule, ProtocolBinding, ReplyAction, RpcClient, RpcServer, ServiceHandler,
    ServiceInterface, Snapshot, TraceBuffer,
};
use starlink_mdl::MdlCodec;
use starlink_message::{AbstractMessage, Value};
use starlink_net::{Endpoint, MemoryTransport, NetworkEngine};
use std::sync::Arc;
use std::time::{Duration, Instant};

const GIOPISH_MDL: &str = "\
<Message:GIOPRequest>\n\
<Rule:MessageType=0>\n\
<MessageType:8><RequestID:32>\n\
<OperationLength:32><Operation:OperationLength>\n\
<align:64><ParameterArray:eof:valueseq>\n\
<End:Message>\n\
<Message:GIOPReply>\n\
<Rule:MessageType=1>\n\
<MessageType:8><RequestID:32>\n\
<align:64><ParameterArray:eof:valueseq>\n\
<End:Message>";

const SOAPISH_MDL: &str = "\
<Dialect:xml>\n\
<Message:SOAPRequest>\n\
<Root:soap:Envelope>\n\
<RootAttr:xmlns:soap=http://schemas.xmlsoap.org/soap/envelope/>\n\
<Name:MethodName=Body>\n\
<List:Params=Body/{MethodName}/*>\n\
<End:Message>\n\
<Message:SOAPReply>\n\
<Root:soap:ReplyEnvelope>\n\
<Name:MethodName=Body>\n\
<List:Params=Body/{MethodName}/*>\n\
<End:Message>";

fn giop_binding() -> ProtocolBinding {
    ProtocolBinding {
        name: "IIOP".into(),
        mdl: "GIOP.mdl".into(),
        request_message: "GIOPRequest".into(),
        reply_message: "GIOPReply".into(),
        request_action: ActionRule::Field("Operation".parse().unwrap()),
        reply_action: ReplyAction::Correlated,
        request_params: ParamRule::PositionalArray("ParameterArray".parse().unwrap()),
        reply_params: ParamRule::PositionalArray("ParameterArray".parse().unwrap()),
        correlation: Some("RequestID".parse().unwrap()),
        request_defaults: Vec::new(),
        reply_defaults: Vec::new(),
        request_message_overrides: Vec::new(),
        reply_message_overrides: Vec::new(),
    }
}

fn soap_binding() -> ProtocolBinding {
    ProtocolBinding {
        name: "SOAP".into(),
        mdl: "SOAP.mdl".into(),
        request_message: "SOAPRequest".into(),
        reply_message: "SOAPReply".into(),
        request_action: ActionRule::Field("MethodName".parse().unwrap()),
        reply_action: ReplyAction::Field("MethodName".parse().unwrap()),
        request_params: ParamRule::PositionalArray("Params".parse().unwrap()),
        reply_params: ParamRule::PositionalArray("Params".parse().unwrap()),
        correlation: None,
        request_defaults: Vec::new(),
        reply_defaults: Vec::new(),
        request_message_overrides: Vec::new(),
        reply_message_overrides: Vec::new(),
    }
}

fn plus_interface() -> ServiceInterface {
    let mut plus = AbstractMessage::new("Plus");
    plus.set_field("x", Value::Null);
    plus.set_field("y", Value::Null);
    let mut reply = AbstractMessage::new("Plus.reply");
    reply.set_field("z", Value::Null);
    ServiceInterface::new().with_operation(plus, reply)
}

fn add_interface() -> ServiceInterface {
    let mut add = AbstractMessage::new("Add");
    add.set_field("x", Value::Null);
    add.set_field("y", Value::Null);
    let mut reply = AbstractMessage::new("Add.reply");
    reply.set_field("z", Value::Null);
    ServiceInterface::new().with_operation(add, reply)
}

fn plus_handler() -> Arc<ServiceHandler> {
    Arc::new(|req| {
        let x: i64 = req
            .get("x")
            .map(Value::to_text)
            .and_then(|t| t.parse().ok())
            .ok_or("bad x")?;
        let y: i64 = req
            .get("y")
            .map(Value::to_text)
            .and_then(|t| t.parse().ok())
            .ok_or("bad y")?;
        let mut reply = AbstractMessage::new("Plus.reply");
        reply.set_field("z", Value::Int(x + y));
        Ok(reply)
    })
}

fn add_plus_merged() -> starlink_automata::Automaton {
    let mut b = MergeBuilder::new("Add+Plus", 1, 2);
    b.intertwined(
        template("Add", &["x", "y"]),
        template("Add.reply", &["z"]),
        template("Plus", &["x", "y"]),
        template("Plus.reply", &["z"]),
        "m2.x = m1.x\nm2.y = m1.y",
        "m5.z = m4.z",
    )
    .unwrap();
    b.finish().unwrap().0
}

/// Deploys the Plus service on a fresh memory network and builds the
/// Add↔Plus mediator against it, with a short receive timeout so stall
/// tests finish quickly.
fn service_and_mediator(ns: &str) -> (NetworkEngine, Mediator) {
    let mut net = NetworkEngine::new();
    net.register(Arc::new(MemoryTransport::new()));
    let giop_codec = Arc::new(MdlCodec::from_text(GIOPISH_MDL).unwrap());
    let soap_codec = Arc::new(MdlCodec::from_text(SOAPISH_MDL).unwrap());
    let service_ep = Endpoint::memory(format!("{ns}-plus"));
    let service = RpcServer::serve(
        &net,
        &service_ep,
        soap_codec.clone(),
        soap_binding(),
        plus_interface(),
        plus_handler(),
    )
    .unwrap();
    std::mem::forget(service);
    let mut mediator = Mediator::new(
        add_plus_merged(),
        1,
        vec![
            ColorRuntime {
                color: 1,
                binding: giop_binding(),
                codec: giop_codec,
                endpoint: None,
            },
            ColorRuntime {
                color: 2,
                binding: soap_binding(),
                codec: soap_codec,
                endpoint: Some(service_ep),
            },
        ],
        net.clone(),
    )
    .unwrap();
    mediator.timeout = Duration::from_secs(3);
    (net, mediator)
}

fn giop_client(net: &NetworkEngine, endpoint: &Endpoint) -> RpcClient {
    RpcClient::connect(
        net,
        endpoint,
        Arc::new(MdlCodec::from_text(GIOPISH_MDL).unwrap()),
        giop_binding(),
        add_interface(),
    )
    .unwrap()
}

fn call_add(net: &NetworkEngine, endpoint: &Endpoint, x: i64, y: i64) -> String {
    let mut client = giop_client(net, endpoint);
    let mut request = AbstractMessage::new("Add");
    request.set_field("x", Value::Int(x));
    request.set_field("y", Value::Int(y));
    let reply = client.call(&request).unwrap();
    reply.get("z").unwrap().to_text()
}

const STALL_AFTER: Duration = Duration::from_millis(100);
const DEADLINE: Duration = Duration::from_secs(2);

/// Polls until `probe` returns `Some`, panicking with `what` past the
/// deadline — stall detection must happen well within the configured
/// stall deadline's order of magnitude, not the receive timeout's.
fn wait_for<T>(what: &str, mut probe: impl FnMut() -> Option<T>) -> T {
    let started = Instant::now();
    loop {
        if let Some(v) = probe() {
            return v;
        }
        assert!(started.elapsed() < DEADLINE, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn stalled_check(pair: &PairHealth) -> Option<(HealthStatus, String)> {
    let check = pair.checks.iter().find(|c| c.name == "stalled-sessions")?;
    (check.status != HealthStatus::Healthy).then(|| (check.status, check.reason.clone()))
}

#[test]
fn multiplexed_watchdog_reports_silent_peer_and_degrades_health() {
    let (net, mediator) = service_and_mediator("wd-mux");
    let mut mediator = mediator;
    mediator.enable_ops(OpsConfig::watching(STALL_AFTER));
    let host =
        MediatorHost::deploy_multiplexed(mediator, &Endpoint::memory("wd-mux-bridge"), 2).unwrap();

    // A client that connects and never sends: the session parks awaiting
    // the client receive and the watchdog flags it within the deadline.
    let _silent = net.connect(host.endpoint()).unwrap();
    let (status, reason) = wait_for("health to notice the stall", || {
        stalled_check(&host.health_report())
    });
    assert_eq!(status, HealthStatus::Degraded);
    assert!(
        reason.contains("stalled"),
        "reason should mention the stall: {reason}"
    );
    assert_eq!(host.health_report().status, HealthStatus::Degraded);

    // The event surfaced as a counter, the live gauge, and the window.
    let snap = host.telemetry_snapshot();
    assert!(snap.counter("starlink_sessions_stalled_total") >= 1);
    assert!(snap.value("starlink_sessions_stalled", &[]).unwrap_or(0) >= 1);
    assert!(
        snap.value("starlink_window_sessions_stalled", &[("pair", "Add+Plus")])
            .unwrap_or(0)
            >= 1
    );
    // Health families carry the same verdict (1 = degraded).
    assert_eq!(
        snap.value("starlink_health_status", &[("pair", "Add+Plus")]),
        Some(1)
    );
    host.shutdown();
}

#[test]
fn abort_policy_reclaims_the_slot_and_later_sessions_succeed() {
    let (net, mediator) = service_and_mediator("wd-abort");
    let mut mediator = mediator;
    mediator.enable_ops(OpsConfig::aborting(STALL_AFTER));
    let host = MediatorHost::deploy_multiplexed(mediator, &Endpoint::memory("wd-abort-bridge"), 1)
        .unwrap();

    let _silent = net.connect(host.endpoint()).unwrap();
    // The watchdog aborts the hung session: it counts as a failure under
    // stage "stalled" and the stalled gauge returns to zero.
    wait_for("the stalled session to be aborted", || {
        let snap = host.telemetry_snapshot();
        (snap.counter("starlink_sessions_failed_total") >= 1
            && snap.counter("starlink_sessions_stalled_total") >= 1
            && snap.value("starlink_sessions_stalled", &[]) == Some(0))
        .then_some(())
    });
    let snap = host.telemetry_snapshot();
    assert!(
        snap.value(
            "starlink_window_session_failures",
            &[("pair", "Add+Plus"), ("stage", "stalled")]
        )
        .unwrap_or(0)
            >= 1
    );

    // The worker slot is free again: a real client is served.
    assert_eq!(call_add(&net, host.endpoint(), 20, 22), "42");
    host.shutdown();
}

#[test]
fn threaded_host_watchdog_flags_silent_peer() {
    let (net, mediator) = service_and_mediator("wd-threaded");
    let mut mediator = mediator;
    mediator.enable_ops(OpsConfig::watching(STALL_AFTER));
    let host = MediatorHost::deploy(mediator, &Endpoint::memory("wd-threaded-bridge")).unwrap();

    let _silent = net.connect(host.endpoint()).unwrap();
    let (status, _) = wait_for("health to notice the stall", || {
        stalled_check(&host.health_report())
    });
    assert_eq!(status, HealthStatus::Degraded);
    assert!(
        host.telemetry_snapshot()
            .counter("starlink_sessions_stalled_total")
            >= 1
    );
    host.shutdown();
}

#[test]
fn diagnostics_endpoint_answers_every_selector() {
    let (net, mediator) = service_and_mediator("diag");
    let mut mediator = mediator;
    mediator.enable_tracing(TraceBuffer::new());
    mediator.enable_ops(OpsConfig::default());
    let host =
        MediatorHost::deploy_multiplexed(mediator, &Endpoint::memory("diag-bridge"), 2).unwrap();
    let diag_ep = host
        .expose_diagnostics(&net, &Endpoint::memory("diag-endpoint"))
        .unwrap();
    assert_eq!(call_add(&net, host.endpoint(), 1, 2), "3");

    let ask = |selector: &str| -> String {
        let mut conn = net.connect(&diag_ep).unwrap();
        conn.send(selector.as_bytes()).unwrap();
        String::from_utf8(conn.receive_timeout(Duration::from_secs(5)).unwrap()).unwrap()
    };

    // stats: the full snapshot including window and health families.
    let stats = Snapshot::parse_text(&ask("stats")).unwrap();
    assert!(stats.counter("starlink_sessions_finished_total") >= 1);
    assert_eq!(
        stats.value("starlink_window_seconds", &[("pair", "Add+Plus")]),
        Some(60)
    );
    assert!(stats.family("starlink_health_status").is_some());

    // Health rides in the stats snapshot: healthy after a clean workload.
    assert_eq!(
        stats.value("starlink_health_status", &[("pair", "Add+Plus")]),
        Some(HealthStatus::Healthy.gauge_value())
    );

    // sessions: the live directory (no live sessions once calls drain,
    // but the framing is always present).
    let sessions = ask("sessions");
    assert!(
        sessions.starts_with("starlink-sessions "),
        "unexpected sessions frame: {sessions}"
    );
    assert!(sessions.trim_end().ends_with("end"));

    // traces: Chrome trace JSON for the completed session.
    let traces = ask("traces");
    assert!(traces.contains("traceEvents"), "not a trace: {traces}");

    // Unknown selectors get a one-line error, not a hang.
    let err = ask("bogus");
    assert!(err.starts_with("error: unknown diagnostics selector"));

    // The selector is mandatory: an empty one gets an error frame, and
    // so does a client that sends nothing.
    let empty = ask("");
    assert!(empty.starts_with("error: "), "unexpected frame: {empty}");
    let mut silent = net.connect(&diag_ep).unwrap();
    let frame = silent.receive_timeout(Duration::from_secs(5)).unwrap();
    let frame = String::from_utf8(frame).unwrap();
    assert!(frame.starts_with("error: "), "unexpected frame: {frame}");

    host.shutdown();
}

#[test]
fn stats_selector_without_ops_serves_health_but_no_windows() {
    let (net, mediator) = service_and_mediator("stats-no-ops");
    let host =
        MediatorHost::deploy_multiplexed(mediator, &Endpoint::memory("no-ops-bridge"), 2).unwrap();
    let diag_ep = host
        .expose_diagnostics(&net, &Endpoint::memory("no-ops-diag"))
        .unwrap();
    assert_eq!(call_add(&net, host.endpoint(), 2, 3), "5");
    let mut conn = net.connect(&diag_ep).unwrap();
    conn.send(b"stats").unwrap();
    let text = String::from_utf8(conn.receive_timeout(Duration::from_secs(5)).unwrap()).unwrap();
    let snap = Snapshot::parse_text(&text).unwrap();
    assert!(snap.counter("starlink_sessions_finished_total") >= 1);
    // Ops were not enabled: health families still present (graded with
    // defaults over lifetime counters), window families absent.
    assert!(snap.family("starlink_health_status").is_some());
    assert!(snap.family("starlink_window_seconds").is_none());
    host.shutdown();
}
