//! End-to-end mediation through the automata engine: an IIOP-style `Add`
//! client interoperates with a SOAP-style `Plus` service through a
//! generated mediator — the paper's Fig. 8 scenario, executed.

use starlink_automata::merge::{template, MergeBuilder};
use starlink_core::{
    ActionRule, ColorRuntime, Mediator, MediatorHost, ParamRule, ProtocolBinding, ReplyAction,
    RpcClient, RpcServer, ServiceHandler, ServiceInterface,
};
use starlink_mdl::MdlCodec;
use starlink_message::{AbstractMessage, Value};
use starlink_net::{Endpoint, MemoryTransport, NetworkEngine};
use std::sync::Arc;

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

/// The SOAP `Plus` service: adds two integers (params arrive as text over
/// XML).
fn plus_handler() -> Arc<ServiceHandler> {
    Arc::new(|req| {
        if req.name() != "Plus" {
            return Err(format!("unknown operation {}", req.name()));
        }
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
        // State id scheme: m1 = client request received, m2 = service
        // request composed, m4 = service reply received, m5 = client
        // reply composed.
        "m2.x = m1.x\nm2.y = m1.y",
        "m5.z = m4.z",
    )
    .unwrap();
    let (merged, report) = b.finish().unwrap();
    assert_eq!(report.intertwined_count(), 1);
    merged
}

/// Shared network with one memory namespace so mediator, client and
/// service all see each other.
fn shared_network() -> NetworkEngine {
    let mut net = NetworkEngine::new();
    net.register(Arc::new(MemoryTransport::new()));
    net
}

#[test]
fn add_client_reaches_plus_service_through_mediator() {
    let net = shared_network();
    let giop_codec = Arc::new(MdlCodec::from_text(GIOPISH_MDL).unwrap());
    let soap_codec = Arc::new(MdlCodec::from_text(SOAPISH_MDL).unwrap());

    // Deploy the SOAP Plus service.
    let service_ep = Endpoint::memory("plus-service");
    let _service = RpcServer::serve(
        &net,
        &service_ep,
        soap_codec.clone(),
        soap_binding(),
        plus_interface(),
        plus_handler(),
    )
    .unwrap();

    // Generate and deploy the mediator.
    let mediator = Mediator::new(
        add_plus_merged(),
        1,
        vec![
            ColorRuntime {
                color: 1,
                binding: giop_binding(),
                codec: giop_codec.clone(),
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
    let host = MediatorHost::deploy(mediator, &Endpoint::memory("add-mediator")).unwrap();

    // The unmodified IIOP Add client talks to the mediator.
    let mut client = RpcClient::connect(
        &net,
        host.endpoint(),
        giop_codec,
        giop_binding(),
        add_interface(),
    )
    .unwrap();
    let mut request = AbstractMessage::new("Add");
    request.set_field("x", Value::Int(30));
    request.set_field("y", Value::Int(12));
    let reply = client.call(&request).unwrap();
    assert_eq!(reply.name(), "Add.reply");
    assert_eq!(reply.get("z").unwrap().to_text(), "42");

    // A second traversal on the same connection also works.
    let reply2 = client.call(&request).unwrap();
    assert_eq!(reply2.get("z").unwrap().to_text(), "42");
    assert!(
        host.telemetry_snapshot()
            .counter("starlink_sessions_finished_total")
            >= 1
    );
}

#[test]
fn mediator_rejects_unexpected_operation() {
    let net = shared_network();
    let giop_codec = Arc::new(MdlCodec::from_text(GIOPISH_MDL).unwrap());
    let soap_codec = Arc::new(MdlCodec::from_text(SOAPISH_MDL).unwrap());
    let service_ep = Endpoint::memory("plus-service");
    let _service = RpcServer::serve(
        &net,
        &service_ep,
        soap_codec.clone(),
        soap_binding(),
        plus_interface(),
        plus_handler(),
    )
    .unwrap();
    let mediator = Mediator::new(
        add_plus_merged(),
        1,
        vec![
            ColorRuntime {
                color: 1,
                binding: giop_binding(),
                codec: giop_codec.clone(),
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
    let host = MediatorHost::deploy(mediator, &Endpoint::memory("add-mediator")).unwrap();

    let mut client = RpcClient::connect(
        &net,
        host.endpoint(),
        giop_codec,
        giop_binding(),
        add_interface(),
    )
    .unwrap();
    client.timeout = std::time::Duration::from_millis(300);
    // `Multiply` is not part of the merged automaton: the mediator drops
    // the session, the client times out or sees the connection close.
    let mut request = AbstractMessage::new("Multiply");
    request.set_field("x", Value::Int(3));
    request.set_field("y", Value::Int(4));
    assert!(client.call(&request).is_err());
}

#[test]
fn direct_session_runner_works_without_host() {
    // Exercise Mediator::run_session against a manually accepted
    // connection (the embedded deployment mode).
    let net = shared_network();
    let giop_codec = Arc::new(MdlCodec::from_text(GIOPISH_MDL).unwrap());
    let soap_codec = Arc::new(MdlCodec::from_text(SOAPISH_MDL).unwrap());
    let service_ep = Endpoint::memory("plus-service");
    let _service = RpcServer::serve(
        &net,
        &service_ep,
        soap_codec.clone(),
        soap_binding(),
        plus_interface(),
        plus_handler(),
    )
    .unwrap();
    let mediator = Mediator::new(
        add_plus_merged(),
        1,
        vec![
            ColorRuntime {
                color: 1,
                binding: giop_binding(),
                codec: giop_codec.clone(),
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

    let listen = Endpoint::memory("manual-mediator");
    let listener = net.listen(&listen).unwrap();
    let client_thread = {
        let net = net.clone();
        std::thread::spawn(move || {
            let mut client =
                RpcClient::connect(&net, &listen, giop_codec, giop_binding(), add_interface())
                    .unwrap();
            let mut request = AbstractMessage::new("Add");
            request.set_field("x", Value::Int(1));
            request.set_field("y", Value::Int(2));
            client.call(&request).unwrap()
        })
    };
    let mut conn = listener.accept().unwrap();
    let outcome = mediator.run_session(conn.as_mut()).unwrap();
    assert_eq!(outcome.exchanges, 4);
    let reply = client_thread.join().unwrap();
    assert_eq!(reply.get("z").unwrap().to_text(), "3");
}
