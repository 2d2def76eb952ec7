//! The deployment proxy of paper §5.1: "we deployed a simple proxy to
//! redirect the Flickr requests (originally directed to the Flickr
//! servers) to the local Starlink mediator."
//!
//! The proxy is protocol-agnostic: it relays whole wire messages between
//! the client connection and the redirect target, alternating
//! request/response (the RPC interaction pattern every protocol in this
//! reproduction uses).

use starlink_core::Result;
use starlink_net::{Endpoint, NetError, NetworkEngine};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long the accept loop sleeps when no connection is pending.
const IDLE_POLL: Duration = Duration::from_millis(1);

/// How long the accept loop backs off after a transient accept error.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(5);

/// A running redirect proxy.
pub struct RedirectProxy {
    endpoint: Endpoint,
    stop: Arc<AtomicBool>,
    relayed: Arc<AtomicUsize>,
    accept_thread: Mutex<Option<JoinHandle<()>>>,
}

impl RedirectProxy {
    /// Deploys a proxy listening at `listen` and forwarding every
    /// request to `target`.
    ///
    /// Like [`starlink_core::MediatorHost`], the accept loop polls the
    /// listener (so shutdown takes effect promptly) and tolerates
    /// transient accept failures instead of dying on the first.
    ///
    /// # Errors
    ///
    /// Bind failures.
    pub fn deploy(
        net: &NetworkEngine,
        listen: &Endpoint,
        target: &Endpoint,
    ) -> Result<RedirectProxy> {
        let listener = net.listen(listen)?;
        let endpoint = listener.local_endpoint();
        let stop = Arc::new(AtomicBool::new(false));
        let relayed = Arc::new(AtomicUsize::new(0));
        let accept_stop = stop.clone();
        let counter = relayed.clone();
        let net = net.clone();
        let target = target.clone();
        let accept_thread = std::thread::spawn(move || {
            let mut relay_threads: Vec<JoinHandle<()>> = Vec::new();
            while !accept_stop.load(Ordering::SeqCst) {
                let mut client = match listener.try_accept() {
                    Ok(Some(c)) => c,
                    Ok(None) => {
                        std::thread::sleep(IDLE_POLL);
                        continue;
                    }
                    Err(NetError::Closed) => break,
                    Err(_) => {
                        std::thread::sleep(ACCEPT_BACKOFF);
                        continue;
                    }
                };
                let mut upstream = match net.connect(&target) {
                    Ok(u) => u,
                    Err(_) => continue,
                };
                let stop = accept_stop.clone();
                let counter = counter.clone();
                relay_threads.push(std::thread::spawn(move || {
                    while !stop.load(Ordering::SeqCst) {
                        let request = match client.receive_timeout(Duration::from_millis(500)) {
                            Ok(r) => r,
                            Err(starlink_net::NetError::Timeout) => continue,
                            Err(_) => return,
                        };
                        if upstream.send(&request).is_err() {
                            return;
                        }
                        let reply = match upstream.receive_timeout(Duration::from_secs(10)) {
                            Ok(r) => r,
                            Err(_) => return,
                        };
                        // Count before the reply goes out: a client that
                        // has its reply must already see the exchange.
                        counter.fetch_add(1, Ordering::SeqCst);
                        if client.send(&reply).is_err() {
                            return;
                        }
                    }
                }));
            }
            for t in relay_threads {
                let _ = t.join();
            }
        });
        Ok(RedirectProxy {
            endpoint,
            stop,
            relayed,
            accept_thread: Mutex::new(Some(accept_thread)),
        })
    }

    /// The endpoint clients should be pointed at.
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// Number of request/response pairs relayed so far.
    pub fn relayed_exchanges(&self) -> usize {
        self.relayed.load(Ordering::SeqCst)
    }

    /// Shuts the proxy down and joins its accept and relay threads.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        let handle = self.accept_thread.lock().unwrap().take();
        if let Some(h) = handle {
            let _ = h.join();
        }
    }
}

impl Drop for RedirectProxy {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calculator::{AddClient, AddService};
    use starlink_net::MemoryTransport;

    #[test]
    fn proxy_relays_rpc_traffic_transparently() {
        let mut net = NetworkEngine::new();
        net.register(Arc::new(MemoryTransport::new()));
        let service = AddService::deploy(&net, &Endpoint::memory("add")).unwrap();
        let proxy = RedirectProxy::deploy(
            &net,
            &Endpoint::memory("flickr-lookalike"),
            service.endpoint(),
        )
        .unwrap();
        // The client believes it talks to the original endpoint.
        let mut client = AddClient::connect(&net, proxy.endpoint()).unwrap();
        assert_eq!(client.add(20, 22).unwrap(), 42);
        assert_eq!(client.add(1, 1).unwrap(), 2);
        assert_eq!(proxy.relayed_exchanges(), 2);
    }

    #[test]
    fn proxy_shutdown_is_prompt_and_joins() {
        let mut net = NetworkEngine::new();
        net.register(Arc::new(MemoryTransport::new()));
        let service = AddService::deploy(&net, &Endpoint::memory("add")).unwrap();
        let proxy =
            RedirectProxy::deploy(&net, &Endpoint::memory("front"), service.endpoint()).unwrap();
        // An idle relay thread is parked in a receive slice; shutdown
        // must interrupt it and join within a bounded time.
        let _idle = net.connect(proxy.endpoint()).unwrap();
        let started = std::time::Instant::now();
        proxy.shutdown();
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "shutdown took {:?}",
            started.elapsed()
        );
    }
}
