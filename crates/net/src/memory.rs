//! Deterministic in-memory transport with fault injection and simulated
//! multicast — the test/bench substrate standing in for the paper's LAN
//! testbed (DESIGN.md §2).

use crate::channel::{unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use crate::connection::{Connection, Listener, Transport};
use crate::endpoint::Endpoint;
use crate::{NetError, Result};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Deterministic fault plan applied to every connection of a
/// [`MemoryTransport`]. Counters are global to the transport instance so
/// tests can express "drop the 3rd message".
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// 1-based indexes (over all sends through the transport) of messages
    /// to drop silently.
    pub drop_nth: Vec<u64>,
    /// 1-based indexes of messages to deliver twice.
    pub duplicate_nth: Vec<u64>,
    /// Fixed delay added before each delivery.
    pub delay: Option<Duration>,
}

#[derive(Default)]
struct FaultState {
    plan: FaultPlan,
    counter: u64,
}

type Frame = Vec<u8>;

struct Registry {
    listeners: HashMap<String, Sender<MemDuplex>>,
    multicast: HashMap<String, Vec<Sender<Frame>>>,
}

/// A pair of channels forming one side of a connection.
struct MemDuplex {
    tx: Sender<Frame>,
    rx: Receiver<Frame>,
    peer: String,
}

/// The in-memory transport. Each instance has its own namespace: two
/// transports never see each other's endpoints, keeping tests isolated.
#[derive(Clone)]
pub struct MemoryTransport {
    registry: Arc<Mutex<Registry>>,
    faults: Arc<Mutex<FaultState>>,
}

impl Default for MemoryTransport {
    fn default() -> Self {
        MemoryTransport::new()
    }
}

impl MemoryTransport {
    /// Creates a fault-free transport.
    pub fn new() -> MemoryTransport {
        MemoryTransport {
            registry: Arc::new(Mutex::new(Registry {
                listeners: HashMap::new(),
                multicast: HashMap::new(),
            })),
            faults: Arc::new(Mutex::new(FaultState::default())),
        }
    }

    /// Creates a transport applying the given fault plan.
    pub fn with_faults(plan: FaultPlan) -> MemoryTransport {
        let t = MemoryTransport::new();
        t.faults.lock().unwrap().plan = plan;
        t
    }

    /// Joins a multicast group, returning a receiver of datagrams.
    pub fn join_multicast(&self, group: &str) -> MulticastGroup {
        let (tx, rx) = unbounded();
        self.registry
            .lock()
            .unwrap()
            .multicast
            .entry(group.to_owned())
            .or_default()
            .push(tx);
        MulticastGroup {
            group: group.to_owned(),
            rx,
        }
    }

    /// Sends a datagram to every member of a multicast group.
    pub fn send_multicast(&self, group: &str, data: &[u8]) {
        let registry = self.registry.lock().unwrap();
        if let Some(members) = registry.multicast.get(group) {
            for m in members {
                // Dead members are ignored; they are pruned lazily.
                let _ = m.send(data.to_vec());
            }
        }
    }

    /// Applies the fault plan to an outgoing frame: returns how many
    /// copies to deliver (0 = dropped) and an optional delay.
    fn apply_faults(&self, _data: &[u8]) -> (usize, Option<Duration>) {
        let mut state = self.faults.lock().unwrap();
        state.counter += 1;
        let n = state.counter;
        let copies = if state.plan.drop_nth.contains(&n) {
            0
        } else if state.plan.duplicate_nth.contains(&n) {
            2
        } else {
            1
        };
        (copies, state.plan.delay)
    }
}

/// A joined multicast group handle (receive side).
pub struct MulticastGroup {
    group: String,
    rx: Receiver<Frame>,
}

impl MulticastGroup {
    /// The group's name.
    pub fn group(&self) -> &str {
        &self.group
    }

    /// Blocks up to `timeout` for the next datagram.
    ///
    /// # Errors
    ///
    /// [`NetError::Timeout`] on expiry; [`NetError::Closed`] if the
    /// transport is gone.
    pub fn receive_timeout(&self, timeout: Duration) -> Result<Vec<u8>> {
        match self.rx.recv_timeout(timeout) {
            Ok(f) => Ok(f),
            Err(RecvTimeoutError::Timeout) => Err(NetError::Timeout),
            Err(RecvTimeoutError::Disconnected) => Err(NetError::Closed),
        }
    }
}

struct MemConnection {
    duplex: MemDuplex,
    transport: MemoryTransport,
}

impl Connection for MemConnection {
    fn send(&mut self, data: &[u8]) -> Result<()> {
        let (copies, delay) = self.transport.apply_faults(data);
        if let Some(d) = delay {
            std::thread::sleep(d);
        }
        for _ in 0..copies {
            self.duplex
                .tx
                .send(data.to_vec())
                .map_err(|_| NetError::Closed)?;
        }
        Ok(())
    }

    fn receive(&mut self) -> Result<Vec<u8>> {
        self.duplex.rx.recv().map_err(|_| NetError::Closed)
    }

    fn receive_timeout(&mut self, timeout: Duration) -> Result<Vec<u8>> {
        match self.duplex.rx.recv_timeout(timeout) {
            Ok(f) => Ok(f),
            Err(RecvTimeoutError::Timeout) => Err(NetError::Timeout),
            Err(RecvTimeoutError::Disconnected) => Err(NetError::Closed),
        }
    }

    fn try_receive(&mut self) -> Result<Option<Vec<u8>>> {
        match self.duplex.rx.try_recv() {
            Ok(f) => Ok(Some(f)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(NetError::Closed),
        }
    }

    fn peer(&self) -> String {
        self.duplex.peer.clone()
    }
}

struct MemListener {
    endpoint: Endpoint,
    rx: Receiver<MemDuplex>,
    transport: MemoryTransport,
}

impl Listener for MemListener {
    fn accept(&self) -> Result<Box<dyn Connection>> {
        let duplex = self.rx.recv().map_err(|_| NetError::Closed)?;
        Ok(Box::new(MemConnection {
            duplex,
            transport: self.transport.clone(),
        }))
    }

    fn try_accept(&self) -> Result<Option<Box<dyn Connection>>> {
        match self.rx.try_recv() {
            Ok(duplex) => Ok(Some(Box::new(MemConnection {
                duplex,
                transport: self.transport.clone(),
            }))),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(NetError::Closed),
        }
    }

    fn local_endpoint(&self) -> Endpoint {
        self.endpoint.clone()
    }
}

impl Transport for MemoryTransport {
    fn scheme(&self) -> &str {
        "memory"
    }

    fn listen(&self, endpoint: &Endpoint) -> Result<Box<dyn Listener>> {
        let key = endpoint.authority();
        let mut registry = self.registry.lock().unwrap();
        if registry.listeners.contains_key(&key) {
            return Err(NetError::AlreadyBound {
                endpoint: endpoint.to_string(),
            });
        }
        let (tx, rx) = unbounded();
        registry.listeners.insert(key, tx);
        Ok(Box::new(MemListener {
            endpoint: endpoint.clone(),
            rx,
            transport: self.clone(),
        }))
    }

    fn connect(&self, endpoint: &Endpoint) -> Result<Box<dyn Connection>> {
        let key = endpoint.authority();
        let registry = self.registry.lock().unwrap();
        let acceptor = registry
            .listeners
            .get(&key)
            .ok_or_else(|| NetError::NotListening {
                endpoint: endpoint.to_string(),
            })?;
        let (client_tx, server_rx) = unbounded();
        let (server_tx, client_rx) = unbounded();
        let server_side = MemDuplex {
            tx: server_tx,
            rx: server_rx,
            peer: "memory-client".to_owned(),
        };
        acceptor
            .send(server_side)
            .map_err(|_| NetError::NotListening {
                endpoint: endpoint.to_string(),
            })?;
        Ok(Box::new(MemConnection {
            duplex: MemDuplex {
                tx: client_tx,
                rx: client_rx,
                peer: endpoint.to_string(),
            },
            transport: self.clone(),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connect_send_receive() {
        let t = MemoryTransport::new();
        let ep = Endpoint::memory("svc");
        let listener = t.listen(&ep).unwrap();
        let mut client = t.connect(&ep).unwrap();
        client.send(b"hi").unwrap();
        let mut server = listener.accept().unwrap();
        assert_eq!(server.receive().unwrap(), b"hi");
        server.send(b"yo").unwrap();
        assert_eq!(client.receive().unwrap(), b"yo");
    }

    #[test]
    fn connect_without_listener_fails() {
        let t = MemoryTransport::new();
        assert!(matches!(
            t.connect(&Endpoint::memory("ghost")),
            Err(NetError::NotListening { .. })
        ));
    }

    #[test]
    fn double_bind_fails() {
        let t = MemoryTransport::new();
        let ep = Endpoint::memory("svc");
        let _l = t.listen(&ep).unwrap();
        assert!(matches!(t.listen(&ep), Err(NetError::AlreadyBound { .. })));
    }

    #[test]
    fn namespaces_are_isolated() {
        let t1 = MemoryTransport::new();
        let t2 = MemoryTransport::new();
        let ep = Endpoint::memory("svc");
        let _l = t1.listen(&ep).unwrap();
        assert!(t2.connect(&ep).is_err());
    }

    #[test]
    fn receive_timeout_expires() {
        let t = MemoryTransport::new();
        let ep = Endpoint::memory("svc");
        let _l = t.listen(&ep).unwrap();
        let mut client = t.connect(&ep).unwrap();
        assert!(matches!(
            client.receive_timeout(Duration::from_millis(10)),
            Err(NetError::Timeout)
        ));
    }

    #[test]
    fn drop_fault_swallows_message() {
        let t = MemoryTransport::with_faults(FaultPlan {
            drop_nth: vec![1],
            ..FaultPlan::default()
        });
        let ep = Endpoint::memory("svc");
        let listener = t.listen(&ep).unwrap();
        let mut client = t.connect(&ep).unwrap();
        client.send(b"lost").unwrap();
        client.send(b"kept").unwrap();
        let mut server = listener.accept().unwrap();
        assert_eq!(server.receive().unwrap(), b"kept");
    }

    #[test]
    fn duplicate_fault_delivers_twice() {
        let t = MemoryTransport::with_faults(FaultPlan {
            duplicate_nth: vec![1],
            ..FaultPlan::default()
        });
        let ep = Endpoint::memory("svc");
        let listener = t.listen(&ep).unwrap();
        let mut client = t.connect(&ep).unwrap();
        client.send(b"x").unwrap();
        let mut server = listener.accept().unwrap();
        assert_eq!(server.receive().unwrap(), b"x");
        assert_eq!(server.receive().unwrap(), b"x");
    }

    #[test]
    fn try_receive_polls_without_blocking() {
        let t = MemoryTransport::new();
        let ep = Endpoint::memory("svc");
        let listener = t.listen(&ep).unwrap();
        let mut client = t.connect(&ep).unwrap();
        assert!(client.try_receive().unwrap().is_none());
        client.send(b"req").unwrap();
        let mut server = listener.accept().unwrap();
        assert_eq!(server.try_receive().unwrap().unwrap(), b"req");
        server.send(b"resp").unwrap();
        assert_eq!(client.try_receive().unwrap().unwrap(), b"resp");
        drop(server);
        assert!(matches!(client.try_receive(), Err(NetError::Closed)));
    }

    #[test]
    fn try_accept_polls_without_blocking() {
        let t = MemoryTransport::new();
        let ep = Endpoint::memory("svc");
        let listener = t.listen(&ep).unwrap();
        assert!(listener.try_accept().unwrap().is_none());
        let _client = t.connect(&ep).unwrap();
        assert!(listener.try_accept().unwrap().is_some());
        assert!(listener.try_accept().unwrap().is_none());
    }

    #[test]
    fn multicast_reaches_all_members() {
        let t = MemoryTransport::new();
        let a = t.join_multicast("ssdp");
        let b = t.join_multicast("ssdp");
        let other = t.join_multicast("elsewhere");
        t.send_multicast("ssdp", b"M-SEARCH");
        assert_eq!(
            a.receive_timeout(Duration::from_millis(100)).unwrap(),
            b"M-SEARCH"
        );
        assert_eq!(
            b.receive_timeout(Duration::from_millis(100)).unwrap(),
            b"M-SEARCH"
        );
        assert!(matches!(
            other.receive_timeout(Duration::from_millis(10)),
            Err(NetError::Timeout)
        ));
        assert_eq!(a.group(), "ssdp");
    }
}
