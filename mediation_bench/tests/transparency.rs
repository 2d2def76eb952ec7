//! The timing wrappers must be transparent: they forward every trait
//! method to the wrapped value, and a workload run through them puts
//! byte-identical frames on every connection.

use mediation_bench::tap::{Frame, Role, Side, SpanLog, TapTransport, Tier, TimedCodec};
use mediation_bench::workload::{Driver, Outcome, Shape, Workload, World};
use starlink_mdl::{MdlError, MessageCodec};
use starlink_message::AbstractMessage;
use starlink_net::{Connection, Endpoint, Listener, MemoryTransport, Transport};
use starlink_telemetry::TelemetrySink;
use std::sync::{Arc, Mutex};
use std::time::Duration;

type Calls = Arc<Mutex<Vec<&'static str>>>;

fn called(calls: &Calls, name: &'static str) {
    calls.lock().unwrap().push(name);
}

/// A codec that records which of its methods ran.
struct RecordingCodec {
    calls: Calls,
    names: Vec<String>,
}

impl MessageCodec for RecordingCodec {
    fn parse(&self, _data: &[u8]) -> Result<AbstractMessage, MdlError> {
        called(&self.calls, "parse");
        Ok(AbstractMessage::new("M"))
    }

    fn compose(&self, _msg: &AbstractMessage) -> Result<Vec<u8>, MdlError> {
        called(&self.calls, "compose");
        Ok(b"composed".to_vec())
    }

    fn compose_into(&self, _msg: &AbstractMessage, out: &mut Vec<u8>) -> Result<(), MdlError> {
        called(&self.calls, "compose_into");
        out.clear();
        out.extend_from_slice(b"in place");
        Ok(())
    }

    fn message_names(&self) -> &[String] {
        called(&self.calls, "message_names");
        &self.names
    }

    fn parse_with_sink(
        &self,
        _data: &[u8],
        _sink: &dyn TelemetrySink,
    ) -> Result<AbstractMessage, MdlError> {
        called(&self.calls, "parse_with_sink");
        Ok(AbstractMessage::new("M"))
    }
}

#[test]
fn codec_wrapper_forwards_every_method() {
    let calls = Calls::default();
    let inner = Arc::new(RecordingCodec {
        calls: calls.clone(),
        names: vec!["M".to_owned()],
    });
    let codec = TimedCodec::new(inner, Side::Client, SpanLog::new());
    let msg = AbstractMessage::new("M");
    codec.parse(b"x").unwrap();
    codec
        .parse_with_sink(b"x", starlink_telemetry::noop_sink().as_ref())
        .unwrap();
    assert_eq!(codec.compose(&msg).unwrap(), b"composed");
    let mut out = Vec::new();
    codec.compose_into(&msg, &mut out).unwrap();
    assert_eq!(
        out, b"in place",
        "compose_into must not fall back to compose"
    );
    assert_eq!(codec.message_names(), ["M".to_owned()]);
    assert_eq!(
        *calls.lock().unwrap(),
        [
            "parse",
            "parse_with_sink",
            "compose",
            "compose_into",
            "message_names"
        ]
    );
}

/// A transport over the in-memory one that records every method its
/// listeners and connections serve.
struct RecordingTransport {
    inner: MemoryTransport,
    calls: Calls,
}

struct RecordingListener {
    inner: Box<dyn Listener>,
    calls: Calls,
}

struct RecordingConnection {
    inner: Box<dyn Connection>,
    calls: Calls,
}

impl Transport for RecordingTransport {
    fn scheme(&self) -> &str {
        called(&self.calls, "scheme");
        self.inner.scheme()
    }

    fn listen(&self, endpoint: &Endpoint) -> starlink_net::Result<Box<dyn Listener>> {
        called(&self.calls, "listen");
        Ok(Box::new(RecordingListener {
            inner: self.inner.listen(endpoint)?,
            calls: self.calls.clone(),
        }))
    }

    fn connect(&self, endpoint: &Endpoint) -> starlink_net::Result<Box<dyn Connection>> {
        called(&self.calls, "connect");
        Ok(Box::new(RecordingConnection {
            inner: self.inner.connect(endpoint)?,
            calls: self.calls.clone(),
        }))
    }
}

impl Listener for RecordingListener {
    fn accept(&self) -> starlink_net::Result<Box<dyn Connection>> {
        called(&self.calls, "accept");
        Ok(Box::new(RecordingConnection {
            inner: self.inner.accept()?,
            calls: self.calls.clone(),
        }))
    }

    fn try_accept(&self) -> starlink_net::Result<Option<Box<dyn Connection>>> {
        called(&self.calls, "try_accept");
        Ok(self.inner.try_accept()?.map(|inner| {
            Box::new(RecordingConnection {
                inner,
                calls: self.calls.clone(),
            }) as Box<dyn Connection>
        }))
    }

    fn local_endpoint(&self) -> Endpoint {
        called(&self.calls, "local_endpoint");
        self.inner.local_endpoint()
    }
}

impl Connection for RecordingConnection {
    fn send(&mut self, data: &[u8]) -> starlink_net::Result<()> {
        called(&self.calls, "send");
        self.inner.send(data)
    }

    fn receive(&mut self) -> starlink_net::Result<Vec<u8>> {
        called(&self.calls, "receive");
        self.inner.receive()
    }

    fn receive_timeout(&mut self, timeout: Duration) -> starlink_net::Result<Vec<u8>> {
        called(&self.calls, "receive_timeout");
        self.inner.receive_timeout(timeout)
    }

    fn try_receive(&mut self) -> starlink_net::Result<Option<Vec<u8>>> {
        called(&self.calls, "try_receive");
        self.inner.try_receive()
    }

    fn peer(&self) -> String {
        called(&self.calls, "peer");
        self.inner.peer()
    }
}

#[test]
fn transport_wrapper_forwards_every_method() {
    let calls = Calls::default();
    let log = SpanLog::new();
    let tap = TapTransport::new(
        Arc::new(RecordingTransport {
            inner: MemoryTransport::new(),
            calls: calls.clone(),
        }),
        log.clone(),
    );
    let ep = Endpoint::memory("forwarding");
    assert_eq!(tap.scheme(), "memory");
    let listener = tap.listen(&ep).unwrap();
    log.assign(&listener.local_endpoint(), Tier::Mediator);
    let mut client = tap.connect(&ep).unwrap();
    let mut server = listener.accept().unwrap();
    let _second = tap.connect(&ep).unwrap();
    assert!(listener.try_accept().unwrap().is_some());
    client.send(b"one").unwrap();
    client.send(b"two").unwrap();
    client.send(b"three").unwrap();
    assert_eq!(server.receive().unwrap(), b"one");
    assert_eq!(
        server.receive_timeout(Duration::from_secs(1)).unwrap(),
        b"two"
    );
    assert_eq!(server.try_receive().unwrap().unwrap(), b"three");
    assert_eq!(server.peer(), "memory-client");
    let calls = calls.lock().unwrap().clone();
    for method in [
        "scheme",
        "listen",
        "connect",
        "accept",
        "try_accept",
        "local_endpoint",
        "send",
        "receive",
        "receive_timeout",
        "try_receive",
        "peer",
    ] {
        assert!(
            calls.contains(&method),
            "{method} was not forwarded: {calls:?}"
        );
    }
}

/// Runs `units` units of `workload` through a `shape` host and returns
/// every frame the client and the service sent and received, plus (when
/// `wrapped`) the mediator's own frames. Unwrapped, only the client and
/// service are tapped: the mediator runs on the plain transport with
/// plain codecs, exactly as in an untraced run.
fn frames(workload: Workload, shape: Shape, wrapped: bool, units: usize) -> Vec<Frame> {
    let log = SpanLog::new();
    let world = World::new(workload, 7, Some(log.clone())).unwrap();
    let mediator_log = wrapped.then_some(&log);
    let (mediator, _) = world
        .build_mediator(world.mediator_net(mediator_log), mediator_log)
        .unwrap();
    let host = world.deploy_host(mediator, shape, Some(&log)).unwrap();
    log.set_capture(true);
    let mut driver = Driver::new(&world, host.endpoint().clone(), 1);
    for _ in 0..units {
        let (_, outcome) = driver.unit();
        assert_eq!(outcome, Outcome::Correct);
    }
    driver.disconnect();
    host.shutdown();
    log.take_frames()
}

fn on(frames: &[Frame], role: Role, sent: bool) -> Vec<Vec<u8>> {
    frames
        .iter()
        .filter(|f| f.role == role && f.sent == sent)
        .map(|f| f.bytes.clone())
        .collect()
}

#[test]
fn wrapped_and_unwrapped_runs_put_identical_frames_on_every_connection() {
    for workload in Workload::ALL {
        for shape in Shape::ALL {
            let what = format!("{} on {}", workload.name(), shape.name());
            let plain = frames(workload, shape, false, 12);
            let timed = frames(workload, shape, true, 12);
            for role in [Role::Client, Role::Service] {
                for sent in [true, false] {
                    let a = on(&plain, role, sent);
                    assert!(!a.is_empty(), "{what}: no {role:?} frames");
                    assert_eq!(a, on(&timed, role, sent), "{what}: {role:?} sent={sent}");
                }
            }
            // The mediator's wrapped connections carry exactly what its
            // peers sent and received.
            let pairs = [
                (Role::MediatorClient, Role::Client),
                (Role::MediatorService, Role::Service),
            ];
            for (mediator, peer) in pairs {
                assert_eq!(
                    on(&timed, mediator, false),
                    on(&timed, peer, true),
                    "{what}"
                );
                assert_eq!(
                    on(&timed, mediator, true),
                    on(&timed, peer, false),
                    "{what}"
                );
            }
        }
    }
}
