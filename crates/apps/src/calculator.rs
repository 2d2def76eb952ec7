//! The running example of paper §4.3–4.4: an IIOP client invoking
//! `int Add(int, int)` made to interoperate with a SOAP service exposing
//! `int Plus(int, int)` — the application difference is the operation
//! name, the middleware difference is GIOP vs SOAP.

use starlink_automata::merge::{intertwine, MergeOptions, MergeReport};
use starlink_automata::{linear_usage_protocol, Automaton};
use starlink_core::{
    ColorRuntime, CoreError, Mediator, Result, RpcClient, RpcServer, ServiceHandler,
    ServiceInterface,
};
use starlink_mdl::MessageCodec;
use starlink_message::equiv::SemanticRegistry;
use starlink_message::{AbstractMessage, Value};
use starlink_net::{Endpoint, NetworkEngine};
use starlink_protocols::giop::{giop_binding, giop_codec};
use starlink_protocols::soap::{soap_binding, soap_codec};
use std::sync::Arc;

/// The IIOP client's application interface: `Add(x, y) → z`.
pub fn add_interface() -> ServiceInterface {
    let mut add = AbstractMessage::new("Add");
    add.set_field("x", Value::Null);
    add.set_field("y", Value::Null);
    let mut reply = AbstractMessage::new("Add.reply");
    reply.set_field("z", Value::Null);
    ServiceInterface::new().with_operation(add, reply)
}

/// The SOAP service's application interface: `Plus(x, y) → z`.
pub fn plus_interface() -> ServiceInterface {
    let mut plus = AbstractMessage::new("Plus");
    plus.set_field("x", Value::Null);
    plus.set_field("y", Value::Null);
    let mut reply = AbstractMessage::new("Plus.reply");
    reply.set_field("z", Value::Null);
    ServiceInterface::new().with_operation(plus, reply)
}

/// The Add usage automaton (Fig. 7 top-left).
pub fn add_usage_automaton() -> Automaton {
    linear_usage_protocol(
        "AddClient",
        1,
        &[(
            add_interface().operations()[0].0.clone(),
            add_interface().operations()[0].1.clone(),
        )],
    )
}

/// The Plus usage automaton.
pub fn plus_usage_automaton() -> Automaton {
    linear_usage_protocol(
        "PlusService",
        2,
        &[(
            plus_interface().operations()[0].0.clone(),
            plus_interface().operations()[0].1.clone(),
        )],
    )
}

/// The only semantic declaration this example needs: `Add ≅ Plus`
/// (parameters already share names, so field equivalence is implicit —
/// the merge generates the Fig. 8 MTL automatically).
pub fn calculator_registry() -> SemanticRegistry {
    let mut reg = SemanticRegistry::new();
    reg.declare_message_concept("addition", ["Add", "Plus"]);
    reg
}

/// Automatically merges Add⊕Plus (Fig. 8 left) with generated MTL.
///
/// # Errors
///
/// Never fails for these fixed models.
pub fn merged_add_plus() -> Result<(Automaton, MergeReport)> {
    Ok(intertwine(
        &add_usage_automaton(),
        &plus_usage_automaton(),
        &calculator_registry(),
        &MergeOptions::default(),
    )?)
}

/// The SOAP `Plus` service.
pub struct PlusService {
    server: RpcServer,
}

impl PlusService {
    /// Deploys the service.
    ///
    /// # Errors
    ///
    /// Bind failures.
    pub fn deploy(net: &NetworkEngine, endpoint: &Endpoint) -> Result<PlusService> {
        let codec: Arc<dyn MessageCodec> =
            Arc::new(soap_codec("calc.example.org", "/calc").map_err(CoreError::Mdl)?);
        let handler: Arc<ServiceHandler> = Arc::new(|req| {
            if req.name() != "Plus" {
                return Err(format!("unknown operation `{}`", req.name()));
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
        });
        let server = RpcServer::serve(
            net,
            endpoint,
            codec,
            soap_binding(),
            plus_interface(),
            handler,
        )?;
        Ok(PlusService { server })
    }

    /// The endpoint the service is reachable at.
    pub fn endpoint(&self) -> &Endpoint {
        self.server.endpoint()
    }
}

/// A native IIOP `Add` service (for direct-call baselines).
pub struct AddService {
    server: RpcServer,
}

impl AddService {
    /// Deploys the service.
    ///
    /// # Errors
    ///
    /// Bind failures.
    pub fn deploy(net: &NetworkEngine, endpoint: &Endpoint) -> Result<AddService> {
        let codec: Arc<dyn MessageCodec> = Arc::new(giop_codec().map_err(CoreError::Mdl)?);
        let handler: Arc<ServiceHandler> = Arc::new(|req| {
            if req.name() != "Add" {
                return Err(format!("unknown operation `{}`", req.name()));
            }
            let x = req.get("x").and_then(Value::as_int).ok_or("bad x")?;
            let y = req.get("y").and_then(Value::as_int).ok_or("bad y")?;
            let mut reply = AbstractMessage::new("Add.reply");
            reply.set_field("z", Value::Int(x + y));
            Ok(reply)
        });
        let server = RpcServer::serve(
            net,
            endpoint,
            codec,
            giop_binding(),
            add_interface(),
            handler,
        )?;
        Ok(AddService { server })
    }

    /// The endpoint the service is reachable at.
    pub fn endpoint(&self) -> &Endpoint {
        self.server.endpoint()
    }
}

/// The IIOP `Add` client application.
pub struct AddClient {
    rpc: RpcClient,
}

impl AddClient {
    /// Connects over GIOP.
    ///
    /// # Errors
    ///
    /// Connect failures.
    pub fn connect(net: &NetworkEngine, endpoint: &Endpoint) -> Result<AddClient> {
        let codec: Arc<dyn MessageCodec> = Arc::new(giop_codec().map_err(CoreError::Mdl)?);
        let rpc = RpcClient::connect(net, endpoint, codec, giop_binding(), add_interface())?;
        Ok(AddClient { rpc })
    }

    /// Invokes `Add(x, y)`.
    ///
    /// # Errors
    ///
    /// RPC failures or a malformed reply.
    pub fn add(&mut self, x: i64, y: i64) -> Result<i64> {
        let mut req = AbstractMessage::new("Add");
        req.set_field("x", Value::Int(x));
        req.set_field("y", Value::Int(y));
        let reply = self.rpc.call(&req)?;
        reply
            .get("z")
            .map(Value::to_text)
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| CoreError::Binding {
                message: "Add reply carried no integer z".into(),
            })
    }
}

/// Builds the Add→Plus mediator of Fig. 8: GIOP on the client color,
/// SOAP on the service color.
///
/// # Errors
///
/// Model-compilation failures.
pub fn add_plus_mediator(net: NetworkEngine, plus_endpoint: Endpoint) -> Result<Mediator> {
    let (merged, _) = merged_add_plus()?;
    Mediator::new(
        merged,
        1,
        vec![
            ColorRuntime {
                color: 1,
                binding: giop_binding(),
                codec: Arc::new(giop_codec().map_err(CoreError::Mdl)?),
                endpoint: None,
            },
            ColorRuntime {
                color: 2,
                binding: soap_binding(),
                codec: Arc::new(soap_codec("calc.example.org", "/calc").map_err(CoreError::Mdl)?),
                endpoint: Some(plus_endpoint),
            },
        ],
        net,
    )
}

/// Drives `clients` concurrent `Add` workloads of `requests` calls each
/// against `endpoint` (a service or a deployed mediator host), returning
/// the number of calls that completed with the correct sum. The
/// throughput benchmarks and the host scale tests share this generator.
pub fn run_add_workload(
    net: &NetworkEngine,
    endpoint: &Endpoint,
    clients: usize,
    requests: usize,
) -> usize {
    let mut handles = Vec::with_capacity(clients);
    for _ in 0..clients {
        let net = net.clone();
        let endpoint = endpoint.clone();
        handles.push(std::thread::spawn(move || {
            let Ok(mut client) = AddClient::connect(&net, &endpoint) else {
                return 0;
            };
            let mut ok = 0;
            for i in 0..requests {
                if matches!(client.add(i as i64, 1), Ok(z) if z == i as i64 + 1) {
                    ok += 1;
                }
            }
            ok
        }));
    }
    handles.into_iter().map(|h| h.join().unwrap_or(0)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use starlink_automata::Action;
    use starlink_net::MemoryTransport;

    fn net() -> NetworkEngine {
        let mut n = NetworkEngine::new();
        n.register(Arc::new(MemoryTransport::new()));
        n
    }

    #[test]
    fn merge_generates_fig8_mtl_automatically() {
        let (merged, report) = merged_add_plus().unwrap();
        assert_eq!(report.intertwined_count(), 1);
        let gammas: Vec<&str> = merged
            .transitions()
            .iter()
            .filter_map(|t| match &t.action {
                Action::Gamma { mtl } => Some(mtl.as_str()),
                _ => None,
            })
            .collect();
        assert!(gammas[0].contains("m2.x = m1.x"));
        assert!(gammas[0].contains("m2.y = m1.y"));
        assert!(gammas[1].contains("m5.z = m4.z"));
    }

    #[test]
    fn iiop_add_client_against_iiop_service() {
        let net = net();
        let service = AddService::deploy(&net, &Endpoint::memory("add")).unwrap();
        let mut client = AddClient::connect(&net, service.endpoint()).unwrap();
        assert_eq!(client.add(19, 23).unwrap(), 42);
    }

    #[test]
    fn add_client_to_plus_service_via_mediator() {
        let net = net();
        let plus = PlusService::deploy(&net, &Endpoint::memory("plus")).unwrap();
        let mediator = add_plus_mediator(net.clone(), plus.endpoint().clone()).unwrap();
        let host =
            starlink_core::MediatorHost::deploy(mediator, &Endpoint::memory("add-bridge")).unwrap();
        let mut client = AddClient::connect(&net, host.endpoint()).unwrap();
        assert_eq!(client.add(40, 2).unwrap(), 42);
        assert_eq!(client.add(-5, 5).unwrap(), 0);
    }

    #[test]
    fn workload_generator_through_multiplexed_host() {
        let net = net();
        let plus = PlusService::deploy(&net, &Endpoint::memory("plus")).unwrap();
        let mediator = add_plus_mediator(net.clone(), plus.endpoint().clone()).unwrap();
        let host = starlink_core::MediatorHost::deploy_multiplexed(
            mediator,
            &Endpoint::memory("add-bridge"),
            2,
        )
        .unwrap();
        let completed = run_add_workload(&net, host.endpoint(), 8, 3);
        assert_eq!(completed, 24);
        assert!(
            host.telemetry_snapshot()
                .counter("starlink_sessions_finished_total")
                >= 24
        );
    }
}
