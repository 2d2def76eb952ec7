use crate::connection::{Connection, Listener, Transport};
use crate::endpoint::Endpoint;
use crate::framing::{Framing, LengthPrefixFraming};
use crate::{NetError, Result};
use std::io::{Read, Write};
use std::net::{TcpListener as StdListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// TCP transport with pluggable framing.
///
/// The default framing is the 4-byte length prefix; construct with
/// [`TcpTransport::with_framing`] (e.g. HTTP framing) to carry
/// self-delimiting protocols verbatim.
pub struct TcpTransport {
    framing: Arc<dyn Framing>,
}

impl Default for TcpTransport {
    fn default() -> Self {
        TcpTransport::new()
    }
}

impl TcpTransport {
    /// Length-prefix framed TCP.
    pub fn new() -> TcpTransport {
        TcpTransport {
            framing: Arc::new(LengthPrefixFraming::default()),
        }
    }

    /// TCP with custom framing.
    pub fn with_framing(framing: Arc<dyn Framing>) -> TcpTransport {
        TcpTransport { framing }
    }
}

struct TcpConnection {
    stream: TcpStream,
    framing: Arc<dyn Framing>,
    buffer: Vec<u8>,
    /// Scratch buffer for wrapping outgoing frames; its capacity is
    /// reused across `send` calls so steady-state sends don't allocate.
    write_buf: Vec<u8>,
    peer: String,
}

impl TcpConnection {
    fn new(stream: TcpStream, framing: Arc<dyn Framing>) -> TcpConnection {
        let peer = stream
            .peer_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "<unknown>".to_owned());
        TcpConnection {
            stream,
            framing,
            buffer: Vec::new(),
            write_buf: Vec::new(),
            peer,
        }
    }

    fn read_frame(&mut self) -> Result<Vec<u8>> {
        loop {
            if let Some(frame) = self.extract_buffered()? {
                return Ok(frame);
            }
            let mut chunk = [0u8; 8192];
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(NetError::Closed);
            }
            self.buffer.extend_from_slice(&chunk[..n]);
        }
    }

    fn extract_buffered(&mut self) -> Result<Option<Vec<u8>>> {
        self.framing.extract_from(&mut self.buffer)
    }
}

impl Connection for TcpConnection {
    fn send(&mut self, data: &[u8]) -> Result<()> {
        let mut wire = std::mem::take(&mut self.write_buf);
        self.framing.wrap_into(data, &mut wire);
        let r = self
            .stream
            .write_all(&wire)
            .and_then(|()| self.stream.flush());
        self.write_buf = wire;
        r?;
        Ok(())
    }

    fn receive(&mut self) -> Result<Vec<u8>> {
        self.stream.set_read_timeout(None)?;
        self.read_frame()
    }

    fn receive_timeout(&mut self, timeout: Duration) -> Result<Vec<u8>> {
        self.stream.set_read_timeout(Some(timeout))?;
        let r = self.read_frame();
        let _ = self.stream.set_read_timeout(None);
        r
    }

    fn try_receive(&mut self) -> Result<Option<Vec<u8>>> {
        if let Some(frame) = self.extract_buffered()? {
            return Ok(Some(frame));
        }
        // Drain whatever the kernel has without blocking, then re-try
        // the framer. A peer close only counts once buffered frames are
        // exhausted.
        self.stream.set_nonblocking(true)?;
        let drained = loop {
            let mut chunk = [0u8; 8192];
            match self.stream.read(&mut chunk) {
                Ok(0) => break Err(NetError::Closed),
                Ok(n) => self.buffer.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break Ok(()),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => break Err(e.into()),
            }
        };
        let _ = self.stream.set_nonblocking(false);
        if let Some(frame) = self.extract_buffered()? {
            return Ok(Some(frame));
        }
        drained.map(|()| None)
    }

    fn peer(&self) -> String {
        self.peer.clone()
    }
}

struct TcpListenerWrapper {
    listener: StdListener,
    framing: Arc<dyn Framing>,
    endpoint: Endpoint,
}

impl Listener for TcpListenerWrapper {
    fn accept(&self) -> Result<Box<dyn Connection>> {
        let (stream, _) = self.listener.accept()?;
        stream.set_nodelay(true).ok();
        stream.set_nonblocking(false).ok();
        Ok(Box::new(TcpConnection::new(stream, self.framing.clone())))
    }

    fn try_accept(&self) -> Result<Option<Box<dyn Connection>>> {
        self.listener.set_nonblocking(true)?;
        let r = self.listener.accept();
        let _ = self.listener.set_nonblocking(false);
        match r {
            Ok((stream, _)) => {
                stream.set_nodelay(true).ok();
                // Accepted sockets inherit the listener's non-blocking
                // flag on some platforms; force blocking mode.
                stream.set_nonblocking(false)?;
                Ok(Some(Box::new(TcpConnection::new(
                    stream,
                    self.framing.clone(),
                ))))
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    fn local_endpoint(&self) -> Endpoint {
        self.endpoint.clone()
    }
}

impl Transport for TcpTransport {
    fn scheme(&self) -> &str {
        "tcp"
    }

    fn listen(&self, endpoint: &Endpoint) -> Result<Box<dyn Listener>> {
        let listener = StdListener::bind(endpoint.authority())?;
        let actual = listener.local_addr()?;
        Ok(Box::new(TcpListenerWrapper {
            listener,
            framing: self.framing.clone(),
            endpoint: Endpoint::tcp(actual.ip().to_string(), actual.port()),
        }))
    }

    fn connect(&self, endpoint: &Endpoint) -> Result<Box<dyn Connection>> {
        let stream = TcpStream::connect(endpoint.authority())?;
        stream.set_nodelay(true).ok();
        Ok(Box::new(TcpConnection::new(stream, self.framing.clone())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framing::HttpFraming;

    #[test]
    fn loopback_roundtrip() {
        let t = TcpTransport::new();
        let listener = t.listen(&Endpoint::tcp("127.0.0.1", 0)).unwrap();
        let ep = listener.local_endpoint();
        let handle = std::thread::spawn(move || {
            let mut server = listener.accept().unwrap();
            let req = server.receive().unwrap();
            server.send(&[req.as_slice(), b" world"].concat()).unwrap();
        });
        let mut client = t.connect(&ep).unwrap();
        client.send(b"hello").unwrap();
        assert_eq!(client.receive().unwrap(), b"hello world");
        handle.join().unwrap();
    }

    #[test]
    fn http_framing_over_tcp() {
        let t = TcpTransport::with_framing(Arc::new(HttpFraming::default()));
        let listener = t.listen(&Endpoint::tcp("127.0.0.1", 0)).unwrap();
        let ep = listener.local_endpoint();
        let handle = std::thread::spawn(move || {
            let mut server = listener.accept().unwrap();
            let req = server.receive().unwrap();
            assert!(req.starts_with(b"POST /x HTTP/1.1"));
            server
                .send(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
                .unwrap();
        });
        let mut client = t.connect(&ep).unwrap();
        client
            .send(b"POST /x HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello")
            .unwrap();
        let resp = client.receive().unwrap();
        assert!(resp.ends_with(b"ok"));
        handle.join().unwrap();
    }

    #[test]
    fn timeout_reported() {
        let t = TcpTransport::new();
        let listener = t.listen(&Endpoint::tcp("127.0.0.1", 0)).unwrap();
        let ep = listener.local_endpoint();
        let mut client = t.connect(&ep).unwrap();
        assert!(matches!(
            client.receive_timeout(Duration::from_millis(20)),
            Err(NetError::Timeout)
        ));
    }

    #[test]
    fn connect_refused() {
        let t = TcpTransport::new();
        // Port 1 is essentially never open.
        assert!(t.connect(&Endpoint::tcp("127.0.0.1", 1)).is_err());
    }

    #[test]
    fn try_receive_polls_without_blocking() {
        let t = TcpTransport::new();
        let listener = t.listen(&Endpoint::tcp("127.0.0.1", 0)).unwrap();
        let ep = listener.local_endpoint();
        let mut client = t.connect(&ep).unwrap();
        let mut server = listener.accept().unwrap();
        assert!(server.try_receive().unwrap().is_none());
        client.send(b"one").unwrap();
        client.send(b"two").unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let mut got = Vec::new();
        while got.len() < 2 && std::time::Instant::now() < deadline {
            if let Some(frame) = server.try_receive().unwrap() {
                got.push(frame);
            } else {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        assert_eq!(got, vec![b"one".to_vec(), b"two".to_vec()]);
        // Blocking receive still works after polling.
        client.send(b"three").unwrap();
        assert_eq!(server.receive().unwrap(), b"three");
    }

    #[test]
    fn try_accept_polls_without_blocking() {
        let t = TcpTransport::new();
        let listener = t.listen(&Endpoint::tcp("127.0.0.1", 0)).unwrap();
        let ep = listener.local_endpoint();
        assert!(listener.try_accept().unwrap().is_none());
        let _client = t.connect(&ep).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let mut accepted = None;
        while accepted.is_none() && std::time::Instant::now() < deadline {
            accepted = listener.try_accept().unwrap();
            if accepted.is_none() {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        assert!(accepted.is_some());
    }

    #[test]
    fn peer_closed_detected() {
        let t = TcpTransport::new();
        let listener = t.listen(&Endpoint::tcp("127.0.0.1", 0)).unwrap();
        let ep = listener.local_endpoint();
        let mut client = t.connect(&ep).unwrap();
        let server = listener.accept().unwrap();
        drop(server);
        assert!(matches!(client.receive(), Err(NetError::Closed)));
    }
}
