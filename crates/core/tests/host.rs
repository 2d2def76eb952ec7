//! Mediator host deployment behaviour: the multiplexed worker-pool host
//! serving many concurrent clients with few threads, and prompt,
//! bounded-time shutdown for both host shapes.

use starlink_automata::merge::{template, MergeBuilder};
use starlink_core::{
    ActionRule, ColorRuntime, Mediator, MediatorHost, ParamRule, ProtocolBinding, ReplyAction,
    RpcClient, RpcServer, ServiceHandler, ServiceInterface,
};
use starlink_mdl::MdlCodec;
use starlink_message::{AbstractMessage, Value};
use starlink_net::{Endpoint, MemoryTransport, NetworkEngine};
use std::sync::{Arc, Barrier};
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
/// Add↔Plus mediator against it.
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
    let mediator = Mediator::new(
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

const CLIENTS: usize = 64;
const WORKERS: usize = 8;

#[test]
fn multiplexed_host_serves_64_concurrent_clients_on_8_workers() {
    let (net, mediator) = service_and_mediator("mux");
    let host = MediatorHost::deploy_multiplexed(mediator, &Endpoint::memory("mux-bridge"), WORKERS)
        .unwrap();
    let endpoint = host.endpoint().clone();

    // All clients connect and hold their connections before any of them
    // issues a request: the host really is carrying 64 concurrent
    // sessions on its 8 workers.
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let mut handles = Vec::new();
    for i in 0..CLIENTS {
        let net = net.clone();
        let endpoint = endpoint.clone();
        let barrier = barrier.clone();
        handles.push(std::thread::spawn(move || {
            let mut client = giop_client(&net, &endpoint);
            barrier.wait();
            let mut request = AbstractMessage::new("Add");
            request.set_field("x", Value::Int(i as i64));
            request.set_field("y", Value::Int(1));
            let reply = client.call(&request).unwrap();
            assert_eq!(reply.get("z").unwrap().to_text(), (i + 1).to_string());
            // A second traversal on the same connection also works.
            let reply2 = client.call(&request).unwrap();
            assert_eq!(reply2.get("z").unwrap().to_text(), (i + 1).to_string());
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let completed = host
        .telemetry_snapshot()
        .counter("starlink_sessions_finished_total");
    assert!(
        completed >= 2 * CLIENTS as u64,
        "expected {} sessions, saw {completed}",
        2 * CLIENTS
    );
}

#[test]
fn threaded_host_shutdown_is_prompt_and_joins() {
    let (net, mediator) = service_and_mediator("shutdown-threaded");
    let host = MediatorHost::deploy(mediator, &Endpoint::memory("t-bridge")).unwrap();
    // A connected-but-silent client parks a session mid-receive; shutdown
    // must still complete promptly rather than waiting out the 10 s
    // receive timeout.
    let _idle = net.connect(host.endpoint()).unwrap();
    let started = Instant::now();
    host.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "shutdown took {:?}",
        started.elapsed()
    );
}

#[test]
fn multiplexed_host_shutdown_is_prompt_and_joins() {
    let (net, mediator) = service_and_mediator("shutdown-mux");
    let host =
        MediatorHost::deploy_multiplexed(mediator, &Endpoint::memory("m-bridge"), 4).unwrap();
    let _idle = net.connect(host.endpoint()).unwrap();
    let started = Instant::now();
    host.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "shutdown took {:?}",
        started.elapsed()
    );
}

#[test]
fn accept_loop_survives_clients_that_vanish() {
    // A client that connects and immediately disappears must not take
    // the accept loop down with it; later clients are still served.
    let (net, mediator) = service_and_mediator("flaky");
    let host = MediatorHost::deploy(mediator, &Endpoint::memory("flaky-bridge")).unwrap();
    for _ in 0..3 {
        let conn = net.connect(host.endpoint()).unwrap();
        drop(conn);
    }
    let mut client = giop_client(&net, host.endpoint());
    let mut request = AbstractMessage::new("Add");
    request.set_field("x", Value::Int(2));
    request.set_field("y", Value::Int(2));
    let reply = client.call(&request).unwrap();
    assert_eq!(reply.get("z").unwrap().to_text(), "4");
}

#[test]
fn telemetry_snapshot_aggregates_and_serves_over_the_wire() {
    let (net, mediator) = service_and_mediator("telemetry");
    let host =
        MediatorHost::deploy_multiplexed(mediator, &Endpoint::memory("tel-bridge"), 2).unwrap();
    let diag_endpoint = host
        .expose_diagnostics(&net, &Endpoint::memory("tel-diag"))
        .unwrap();

    let mut client = giop_client(&net, host.endpoint());
    let mut request = AbstractMessage::new("Add");
    request.set_field("x", Value::Int(20));
    request.set_field("y", Value::Int(22));
    let reply = client.call(&request).unwrap();
    assert_eq!(reply.get("z").unwrap().to_text(), "42");

    let snap = host.telemetry_snapshot();
    assert!(snap.counter("starlink_sessions_started_total") >= 1);
    assert!(snap.counter("starlink_sessions_finished_total") >= 1);
    assert!(snap.counter("starlink_sessions_accepted_total") >= 1);
    // The whole mediation is visible: client request in, service leg
    // out+in, client reply out — with a γ-translation in between.
    assert!(snap.counter("starlink_wire_messages_in_total") >= 2);
    assert!(snap.counter("starlink_wire_messages_out_total") >= 2);
    assert!(snap.counter("starlink_wire_bytes_in_total") > 0);
    // Both legs are timed layer by layer: parse on each color, and the
    // two γ-translations.
    for color in ["1", "2"] {
        let labels = [("layer", "parse"), ("color", color)];
        assert!(snap.value("starlink_layer_count", &labels) >= Some(1));
    }
    let gamma = snap.family("starlink_gamma_duration_ns").unwrap();
    assert!(gamma.count >= Some(2), "{gamma:?}");

    // The `stats` selector serves the same exposition, one frame per
    // connection, parseable back into a snapshot.
    let mut stats_conn = net.connect(&diag_endpoint).unwrap();
    stats_conn.send(b"stats").unwrap();
    let frame = stats_conn.receive().unwrap();
    let text = String::from_utf8(frame).unwrap();
    let parsed = starlink_core::Snapshot::parse_text(&text).unwrap();
    assert!(parsed.counter("starlink_sessions_finished_total") >= 1);

    host.shutdown();
}

#[test]
fn injected_sink_receives_events_alongside_host_recorder() {
    let (net, mediator) = service_and_mediator("fanout");
    let recorder = Arc::new(starlink_core::Recorder::new());
    let mediator =
        mediator.with_telemetry(recorder.clone() as Arc<dyn starlink_core::TelemetrySink>);
    let host = MediatorHost::deploy(mediator, &Endpoint::memory("fanout-bridge")).unwrap();

    let mut client = giop_client(&net, host.endpoint());
    let mut request = AbstractMessage::new("Add");
    request.set_field("x", Value::Int(1));
    request.set_field("y", Value::Int(2));
    client.call(&request).unwrap();

    // The caller's sink already aggregates, so the host adopts it
    // directly: both views are the same counter.
    let via_host = host.telemetry_snapshot();
    let via_caller = starlink_core::TelemetrySink::snapshot(recorder.as_ref()).unwrap();
    assert!(via_caller.counter("starlink_sessions_finished_total") >= 1);
    assert_eq!(
        via_host.counter("starlink_sessions_finished_total"),
        via_caller.counter("starlink_sessions_finished_total")
    );
    host.shutdown();
}
