use crate::connection::{Connection, Listener, Transport};
use crate::endpoint::Endpoint;
use crate::{NetError, Result};
use std::net::{SocketAddr, UdpSocket};
use std::sync::Arc;
use std::time::Duration;

/// UDP transport.
///
/// Datagrams are messages — no framing layer is needed. The listener's
/// [`Listener::accept`] waits for the first datagram from a new peer and
/// returns a connection bound to that peer (sharing the server socket),
/// which is the natural shape for the request/response discovery
/// protocols Starlink bridges over UDP.
#[derive(Clone, Default)]
pub struct UdpTransport;

impl UdpTransport {
    /// Creates the transport.
    pub fn new() -> UdpTransport {
        UdpTransport
    }
}

const MAX_DATAGRAM: usize = 64 * 1024;

struct UdpClientConnection {
    socket: UdpSocket,
    peer: SocketAddr,
}

impl Connection for UdpClientConnection {
    fn send(&mut self, data: &[u8]) -> Result<()> {
        self.socket.send_to(data, self.peer)?;
        Ok(())
    }

    fn receive(&mut self) -> Result<Vec<u8>> {
        self.socket.set_read_timeout(None)?;
        let mut buf = vec![0u8; MAX_DATAGRAM];
        let (n, _) = self.socket.recv_from(&mut buf)?;
        buf.truncate(n);
        Ok(buf)
    }

    fn receive_timeout(&mut self, timeout: Duration) -> Result<Vec<u8>> {
        self.socket.set_read_timeout(Some(timeout))?;
        let mut buf = vec![0u8; MAX_DATAGRAM];
        let r = self.socket.recv_from(&mut buf);
        let _ = self.socket.set_read_timeout(None);
        let (n, _) = r?;
        buf.truncate(n);
        Ok(buf)
    }

    fn try_receive(&mut self) -> Result<Option<Vec<u8>>> {
        Ok(try_recv_from(&self.socket)?.map(|(data, _)| data))
    }

    fn peer(&self) -> String {
        self.peer.to_string()
    }
}

/// One non-blocking `recv_from`; `Ok(None)` when no datagram is queued.
fn try_recv_from(socket: &UdpSocket) -> Result<Option<(Vec<u8>, SocketAddr)>> {
    socket.set_nonblocking(true)?;
    let mut buf = vec![0u8; MAX_DATAGRAM];
    let r = socket.recv_from(&mut buf);
    let _ = socket.set_nonblocking(false);
    match r {
        Ok((n, from)) => {
            buf.truncate(n);
            Ok(Some((buf, from)))
        }
        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(None),
        Err(e) => Err(e.into()),
    }
}

struct UdpServerConnection {
    socket: Arc<UdpSocket>,
    peer: SocketAddr,
    pending: Option<Vec<u8>>,
}

impl Connection for UdpServerConnection {
    fn send(&mut self, data: &[u8]) -> Result<()> {
        self.socket.send_to(data, self.peer)?;
        Ok(())
    }

    fn receive(&mut self) -> Result<Vec<u8>> {
        if let Some(first) = self.pending.take() {
            return Ok(first);
        }
        loop {
            let mut buf = vec![0u8; MAX_DATAGRAM];
            self.socket.set_read_timeout(None)?;
            let (n, from) = self.socket.recv_from(&mut buf)?;
            if from == self.peer {
                buf.truncate(n);
                return Ok(buf);
            }
            // Datagram from another peer: drop (single-peer connection).
        }
    }

    fn receive_timeout(&mut self, timeout: Duration) -> Result<Vec<u8>> {
        if let Some(first) = self.pending.take() {
            return Ok(first);
        }
        self.socket.set_read_timeout(Some(timeout))?;
        let mut buf = vec![0u8; MAX_DATAGRAM];
        let r = self.socket.recv_from(&mut buf);
        let _ = self.socket.set_read_timeout(None);
        let (n, from) = r?;
        if from != self.peer {
            return Err(NetError::Timeout);
        }
        buf.truncate(n);
        Ok(buf)
    }

    fn try_receive(&mut self) -> Result<Option<Vec<u8>>> {
        if let Some(first) = self.pending.take() {
            return Ok(Some(first));
        }
        // Datagrams from other peers are dropped, matching the blocking
        // receive path of this single-peer connection.
        while let Some((data, from)) = try_recv_from(&self.socket)? {
            if from == self.peer {
                return Ok(Some(data));
            }
        }
        Ok(None)
    }

    fn peer(&self) -> String {
        self.peer.to_string()
    }
}

struct UdpListenerWrapper {
    socket: Arc<UdpSocket>,
    endpoint: Endpoint,
}

impl Listener for UdpListenerWrapper {
    fn accept(&self) -> Result<Box<dyn Connection>> {
        let mut buf = vec![0u8; MAX_DATAGRAM];
        self.socket.set_read_timeout(None)?;
        let (n, from) = self.socket.recv_from(&mut buf)?;
        buf.truncate(n);
        Ok(Box::new(UdpServerConnection {
            socket: self.socket.clone(),
            peer: from,
            pending: Some(buf),
        }))
    }

    fn try_accept(&self) -> Result<Option<Box<dyn Connection>>> {
        Ok(try_recv_from(&self.socket)?.map(|(data, from)| {
            Box::new(UdpServerConnection {
                socket: self.socket.clone(),
                peer: from,
                pending: Some(data),
            }) as Box<dyn Connection>
        }))
    }

    fn local_endpoint(&self) -> Endpoint {
        self.endpoint.clone()
    }
}

impl Transport for UdpTransport {
    fn scheme(&self) -> &str {
        "udp"
    }

    fn listen(&self, endpoint: &Endpoint) -> Result<Box<dyn Listener>> {
        let socket = UdpSocket::bind(endpoint.authority())?;
        let actual = socket.local_addr()?;
        Ok(Box::new(UdpListenerWrapper {
            socket: Arc::new(socket),
            endpoint: Endpoint::new("udp", actual.ip().to_string(), Some(actual.port())),
        }))
    }

    fn connect(&self, endpoint: &Endpoint) -> Result<Box<dyn Connection>> {
        let socket = UdpSocket::bind("0.0.0.0:0")?;
        let peer: SocketAddr = endpoint
            .authority()
            .parse()
            .map_err(|e| NetError::BadEndpoint {
                text: endpoint.to_string(),
                message: format!("{e}"),
            })?;
        Ok(Box::new(UdpClientConnection { socket, peer }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datagram_roundtrip() {
        let t = UdpTransport::new();
        let listener = t.listen(&"udp://127.0.0.1:0".parse().unwrap()).unwrap();
        let ep = listener.local_endpoint();
        let handle = std::thread::spawn(move || {
            let mut server = listener.accept().unwrap();
            let req = server.receive().unwrap();
            assert_eq!(req, b"ping");
            server.send(b"pong").unwrap();
        });
        let mut client = t.connect(&ep).unwrap();
        client.send(b"ping").unwrap();
        assert_eq!(
            client.receive_timeout(Duration::from_secs(5)).unwrap(),
            b"pong"
        );
        handle.join().unwrap();
    }

    #[test]
    fn client_timeout() {
        let t = UdpTransport::new();
        let listener = t.listen(&"udp://127.0.0.1:0".parse().unwrap()).unwrap();
        let ep = listener.local_endpoint();
        let mut client = t.connect(&ep).unwrap();
        assert!(matches!(
            client.receive_timeout(Duration::from_millis(20)),
            Err(NetError::Timeout)
        ));
    }

    #[test]
    fn try_accept_and_try_receive_poll() {
        let t = UdpTransport::new();
        let listener = t.listen(&"udp://127.0.0.1:0".parse().unwrap()).unwrap();
        let ep = listener.local_endpoint();
        assert!(listener.try_accept().unwrap().is_none());
        let mut client = t.connect(&ep).unwrap();
        assert!(client.try_receive().unwrap().is_none());
        client.send(b"ping").unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let mut server = None;
        while server.is_none() && std::time::Instant::now() < deadline {
            server = listener.try_accept().unwrap();
            if server.is_none() {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        let mut server = server.expect("datagram should arrive");
        // The accepting datagram is buffered on the new connection.
        assert_eq!(server.try_receive().unwrap().unwrap(), b"ping");
        assert!(server.try_receive().unwrap().is_none());
        server.send(b"pong").unwrap();
        assert_eq!(
            client.receive_timeout(Duration::from_secs(5)).unwrap(),
            b"pong"
        );
    }

    #[test]
    fn bad_peer_address() {
        let t = UdpTransport::new();
        assert!(t
            .connect(&Endpoint::new("udp", "not-an-ip", Some(1)))
            .is_err());
    }
}
