//! Per-session causal tracing, end to end: a replayed Add→Plus session
//! must yield a span tree of wait → parse → unbind → γ → bind → compose
//! layers on both colors, tiling the session root, with monotonic
//! timestamps, the
//! flight recorder must show each message before and after γ, and the
//! exported Chrome trace must validate with balanced span pairs.

use starlink_automata::merge::{template, MergeBuilder};
use starlink_automata::Automaton;
use starlink_core::{
    ActionRule, ColorRuntime, Mediator, MediatorHost, ParamRule, ProtocolBinding, ReplyAction,
    RpcClient, RpcServer, ServiceHandler, ServiceInterface, SessionCore, SessionEvent,
    SessionPersist,
};
use starlink_mdl::{MdlCodec, MessageCodec};
use starlink_message::{AbstractMessage, Value};
use starlink_net::{Endpoint, MemoryTransport, NetworkEngine};
use starlink_telemetry::{
    chrome_events, render_chrome_json, validate_chrome_trace, TraceRecordKind,
};
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

fn add_plus_merged() -> Automaton {
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

fn giop_add_request(request_id: u64, x: i64, y: i64) -> Vec<u8> {
    let codec = MdlCodec::from_text(GIOPISH_MDL).unwrap();
    let mut app = AbstractMessage::new("Add");
    app.set_field("x", Value::Int(x));
    app.set_field("y", Value::Int(y));
    let mut proto = giop_binding().bind_request(&app).unwrap();
    proto
        .set_path(&"RequestID".parse().unwrap(), Value::UInt(request_id))
        .unwrap();
    codec.compose(&proto).unwrap()
}

fn soap_plus_reply(z: i64) -> Vec<u8> {
    let codec = MdlCodec::from_text(SOAPISH_MDL).unwrap();
    let mut app = AbstractMessage::new("Plus.reply");
    app.set_field("z", Value::Int(z));
    let proto = soap_binding().bind_reply(&app, None).unwrap();
    codec.compose(&proto).unwrap()
}

fn color_runtimes(service_ep: Endpoint) -> Vec<ColorRuntime> {
    vec![
        ColorRuntime {
            color: 1,
            binding: giop_binding(),
            codec: Arc::new(MdlCodec::from_text(GIOPISH_MDL).unwrap()),
            endpoint: None,
        },
        ColorRuntime {
            color: 2,
            binding: soap_binding(),
            codec: Arc::new(MdlCodec::from_text(SOAPISH_MDL).unwrap()),
            endpoint: Some(service_ep),
        },
    ]
}

#[test]
fn replayed_session_produces_full_causal_trace() {
    let mut mediator = Mediator::new(
        add_plus_merged(),
        1,
        color_runtimes(Endpoint::memory("plus-service")),
        NetworkEngine::new(), // never touched: the core does no I/O
    )
    .unwrap();
    let (traces, flight) = mediator.enable_tracing();

    let mut core = SessionCore::new(mediator.session_spec(), SessionPersist::new()).unwrap();
    core.start().unwrap();
    core.step(SessionEvent::WireReceived {
        color: 1,
        bytes: giop_add_request(7, 30, 12),
    })
    .unwrap();
    core.step(SessionEvent::WireReceived {
        color: 2,
        bytes: soap_plus_reply(42),
    })
    .unwrap();
    assert!(core.is_finished());

    let trace = traces.latest().expect("one completed trace");
    assert_eq!(traces.traces().len(), 1);
    assert_eq!(Some(trace.session), core.trace_id());

    // Span tree: one root session span; each leg (client request,
    // service reply) crosses every leaf layer once, and the engine waits
    // once on each color.
    let names = trace.span_names();
    let count = |n: &str| names.iter().filter(|&&s| s == n).count();
    assert_eq!(count("session"), 1, "spans: {names:?}");
    for layer in ["wait", "parse", "unbind", "gamma", "bind", "compose"] {
        assert_eq!(count(layer), 2, "{layer} spans: {names:?}");
    }
    let opens: Vec<_> = trace
        .records
        .iter()
        .filter(|r| r.kind == TraceRecordKind::SpanOpen)
        .collect();
    let waits: Vec<&str> = opens
        .iter()
        .filter(|r| r.name == "wait")
        .map(|r| r.detail.as_str())
        .collect();
    assert_eq!(waits, vec!["color 1", "color 2"]);

    // Balanced: every open has exactly one close, and every leaf is a
    // direct child of the root.
    let closes: Vec<_> = trace
        .records
        .iter()
        .filter(|r| r.kind == TraceRecordKind::SpanClose)
        .collect();
    assert_eq!(opens.len(), closes.len());
    let root = opens[0];
    for open in &opens {
        assert_eq!(
            closes
                .iter()
                .filter(|c| c.meta.span == open.meta.span)
                .count(),
            1,
            "{} span {:?} not closed once",
            open.name,
            open.meta.span
        );
        if open.name != "session" {
            assert_eq!(open.meta.parent, root.meta.span, "{}", open.name);
        }
    }

    // Timestamps are monotonic over the whole record stream.
    let ts: Vec<u64> = trace.records.iter().map(|r| r.meta.ts_ns).collect();
    assert!(ts.windows(2).all(|w| w[0] <= w[1]), "non-monotonic: {ts:?}");

    // The leaves tile the root: from the first leaf's start, each layer
    // boundary ends one leaf and starts the next at one clock read.
    let duration = |open: &&starlink_telemetry::TraceRecord| {
        let close = closes
            .iter()
            .find(|c| c.meta.span == open.meta.span)
            .unwrap();
        close.meta.ts_ns - open.meta.ts_ns
    };
    let leaves: u64 = opens[1..].iter().map(duration).sum();
    let lead_in = opens[1].meta.ts_ns - root.meta.ts_ns;
    assert_eq!(leaves + lead_in, duration(&root));
    let details_of = |name: &str| -> Vec<&str> {
        trace
            .records
            .iter()
            .filter(|r| r.name == name)
            .map(|r| r.detail.as_str())
            .collect()
    };
    for name in ["wire-in", "wire-out"] {
        let details = details_of(name);
        for color in ["color 1", "color 2"] {
            assert!(
                details.iter().any(|d| d.contains(color)),
                "{name} missing {color}: {details:?}"
            );
        }
    }
    assert!(trace.records.iter().any(|r| r.name == "session-finished"));

    // Flight recorder: both γ-translations captured before and after
    // translation, with field values.
    let caps = flight.captures(trace.session);
    let stages: Vec<(&str, &str)> = caps
        .iter()
        .map(|c| (c.stage.as_str(), c.message.as_str()))
        .collect();
    assert_eq!(
        stages,
        vec![
            ("received", "Add"),
            ("pre-gamma", "Add"),
            ("post-gamma", "Plus"),
            ("sent", "Plus"),
            ("received", "Plus.reply"),
            ("pre-gamma", "Plus.reply"),
            ("post-gamma", "Add.reply"),
            ("sent", "Add.reply"),
        ]
    );
    let pre = &caps[1];
    assert!(pre.fields.contains(&("x".into(), "30".into())), "{pre:?}");
    assert!(pre.fields.contains(&("y".into(), "12".into())), "{pre:?}");
    let post = &caps[6];
    assert!(post.fields.contains(&("z".into(), "42".into())), "{post:?}");

    // Chrome export: valid, balanced, one session track.
    let json = render_chrome_json(&chrome_events(&trace));
    let stats = validate_chrome_trace(&json).expect("valid Chrome trace");
    assert_eq!(stats.span_pairs, 13);
    assert_eq!(stats.tracks, 1);
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

/// Deploys the Plus service on a fresh memory network and builds the
/// Add↔Plus mediator against it.
fn service_and_mediator(ns: &str) -> (NetworkEngine, Mediator) {
    let mut net = NetworkEngine::new();
    net.register(Arc::new(MemoryTransport::new()));
    let service_ep = Endpoint::memory(format!("{ns}-plus"));
    let service = RpcServer::serve(
        &net,
        &service_ep,
        Arc::new(MdlCodec::from_text(SOAPISH_MDL).unwrap()),
        soap_binding(),
        plus_interface(),
        plus_handler(),
    )
    .unwrap();
    std::mem::forget(service);
    let mediator = Mediator::new(
        add_plus_merged(),
        1,
        color_runtimes(service_ep),
        net.clone(),
    )
    .unwrap();
    (net, mediator)
}

#[test]
fn host_exposes_traces_as_chrome_json_over_the_network() {
    let (net, mut mediator) = service_and_mediator("traced");
    mediator.enable_tracing();
    let host =
        MediatorHost::deploy_multiplexed(mediator, &Endpoint::memory("traced-bridge"), 2).unwrap();
    let traces = host.trace_buffer().expect("tracing was enabled");
    assert!(host.flight_recorder().is_some());
    let diag_ep = host
        .expose_diagnostics(&net, &Endpoint::memory("traced-diag"))
        .unwrap();

    let mut client = RpcClient::connect(
        &net,
        host.endpoint(),
        Arc::new(MdlCodec::from_text(GIOPISH_MDL).unwrap()),
        giop_binding(),
        add_interface(),
    )
    .unwrap();
    let mut request = AbstractMessage::new("Add");
    request.set_field("x", Value::Int(20));
    request.set_field("y", Value::Int(22));
    let reply = client.call(&request).unwrap();
    assert_eq!(reply.get("z").unwrap().to_text(), "42");

    // The traversal's trace completes when its root span closes; give
    // the pump a moment to get there.
    let deadline = Instant::now() + Duration::from_secs(5);
    while traces.traces().is_empty() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(!traces.traces().is_empty(), "no trace completed in time");

    let mut conn = net.connect(&diag_ep).unwrap();
    conn.send(b"traces").unwrap();
    let frame = conn.receive().unwrap();
    let json = String::from_utf8(frame).unwrap();
    let stats = validate_chrome_trace(&json).expect("served trace is valid Chrome JSON");
    assert!(stats.events > 0);
    assert!(stats.span_pairs >= 13, "span pairs: {}", stats.span_pairs);
    host.shutdown();
}

#[test]
fn untraced_host_has_no_trace_surface() {
    let (net, mediator) = service_and_mediator("untraced");
    let host = MediatorHost::deploy(mediator, &Endpoint::memory("untraced-bridge")).unwrap();
    assert!(host.trace_buffer().is_none());
    assert!(host.flight_recorder().is_none());
    let diag_ep = host
        .expose_diagnostics(&net, &Endpoint::memory("untraced-diag"))
        .unwrap();
    let mut conn = net.connect(&diag_ep).unwrap();
    conn.send(b"traces").unwrap();
    let frame = String::from_utf8(conn.receive().unwrap()).unwrap();
    assert!(
        frame.starts_with("error: tracing not enabled"),
        "unexpected frame: {frame}"
    );
    host.shutdown();
}
