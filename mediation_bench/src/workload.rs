//! The three workloads: how each deploys its service, builds and deploys
//! its mediator, and drives one closed-loop client through units whose
//! replies are checked against an oracle.

use crate::tap::{Op, Side, SpanLog, TapTransport, Tier, TimedCodec};
use starlink_apps::calculator::{merged_add_plus, AddClient, AddService, PlusService};
use starlink_apps::flickr::{
    flickr_binding, flickr_codec, FlickrClient, FlickrFlavor, FlickrService,
};
use starlink_apps::models::merged_flickr_picasa;
use starlink_apps::picasa::PicasaService;
use starlink_apps::store::{Photo, PhotoStore};
use starlink_automata::merge::into_service_loop;
use starlink_core::{ColorRuntime, Mediator, MediatorHost};
use starlink_mdl::MessageCodec;
use starlink_net::{Endpoint, MemoryTransport, NetworkEngine, TcpTransport, Transport};
use starlink_protocols::gdata::{rest_binding, rest_codec};
use starlink_protocols::giop::{giop_binding, giop_codec};
use starlink_protocols::soap::{soap_binding, soap_codec};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Photos in the `photo-browse` store.
pub const STORE_PHOTOS: usize = 4000;
/// Keywords `photo-browse` searches for (every stored photo carries one).
pub const TAGS: [&str; 6] = ["tree", "oak", "beach", "city", "sky", "river"];
/// Result counts `photo-browse` asks for.
pub const PAGE_SIZES: [u32; 4] = [4, 16, 32, 64];
/// One block of `photo-browse` result counts, shuffled per block from
/// the seed. The fixed 1:2:3:2 mix puts the median browse inside the
/// 32-result mode instead of on the edge between two modes, where a
/// uniform mix would leave it.
pub const PAGE_BLOCK: [u32; 8] = [4, 16, 16, 32, 32, 32, 64, 64];
/// `getInfo` calls per browse, on the first results.
pub const INFO_PER_BROWSE: usize = 4;
/// Every this many browses also posts a comment.
pub const COMMENT_EVERY: u64 = 4;
/// `photo-browse` clients reconnect (outside unit timing) every this many
/// browses, bounding the per-connection translation cache.
pub const BROWSES_PER_CONNECTION: u64 = 256;
/// `add-tcp` clients open a fresh connection (inside unit timing) every
/// this many calls.
pub const TCP_RECONNECT_EVERY: u64 = 8;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Calculator Add over the in-memory transport.
    AddMem,
    /// Flickr XML-RPC browsing against Picasa REST over memory.
    PhotoBrowse,
    /// Calculator Add over loopback TCP with periodic reconnects.
    AddTcp,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 3] = [Workload::AddMem, Workload::PhotoBrowse, Workload::AddTcp];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AddMem => "add-mem",
            Workload::PhotoBrowse => "photo-browse",
            Workload::AddTcp => "add-tcp",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The transport scheme every hop uses.
    pub fn transport(self) -> &'static str {
        match self {
            Workload::AddTcp => "tcp",
            _ => "memory",
        }
    }

    fn endpoint(self, name: &str) -> Endpoint {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        match self {
            Workload::AddTcp => Endpoint::tcp("127.0.0.1", 0),
            // In-memory endpoints stay bound for the transport's lifetime.
            _ => Endpoint::memory(format!("{name}-{}", NEXT.fetch_add(1, Ordering::Relaxed))),
        }
    }
}

/// A mediator host shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `MediatorHost::deploy`: a thread per client connection.
    Threaded,
    /// `MediatorHost::deploy_multiplexed` with [`MUX_WORKERS`] workers.
    Mux,
}

/// Worker-pool size of the multiplexed host.
pub const MUX_WORKERS: usize = 2;

impl Shape {
    /// Both shapes, in reporting order.
    pub const ALL: [Shape; 2] = [Shape::Threaded, Shape::Mux];

    /// The metric-name prefix.
    pub fn name(self) -> &'static str {
        match self {
            Shape::Threaded => "threaded",
            Shape::Mux => "mux",
        }
    }

    /// The worker count, as printed with each result.
    pub fn workers(self) -> String {
        match self {
            Shape::Threaded => "per-connection".to_owned(),
            Shape::Mux => MUX_WORKERS.to_string(),
        }
    }
}

/// Deterministic generator (splitmix64) for every seeded input.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound`.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound.max(1)
    }
}

/// What `photo-browse` searches must return: the twin store's results.
pub type Expected = HashMap<(&'static str, u32), Vec<Photo>>;

/// Set-up times of one mediator construction.
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildTimes {
    /// Merging the two usage automata (`intertwine`).
    pub merge: Duration,
    /// Compiling both colors' MDL codecs.
    pub codec: Duration,
    /// `Mediator::new`.
    pub mediator: Duration,
}

/// A deployed service plus everything a client needs to reach it.
pub struct World {
    /// The workload.
    pub workload: Workload,
    /// The seed every input derives from.
    pub seed: u64,
    transport: Arc<dyn Transport>,
    log: Option<Arc<SpanLog>>,
    /// The network engine clients and the service use.
    pub apps_net: NetworkEngine,
    /// The service endpoint.
    pub service_endpoint: Endpoint,
    /// The `photo-browse` oracle (empty for Add workloads).
    pub expected: Arc<Expected>,
    /// Whether the service is the direct (unmediated) baseline.
    pub direct: bool,
    _service: Box<dyn std::any::Any + Send + Sync>,
}

impl World {
    /// Deploys the workload's mediated service (the mediator's service
    /// color). With `log`, clients and the service run over tapped
    /// connections.
    ///
    /// # Errors
    ///
    /// Deployment failures.
    pub fn new(workload: Workload, seed: u64, log: Option<Arc<SpanLog>>) -> Result<World, String> {
        World::deploy(workload, seed, log, false)
    }

    /// Deploys the direct baseline: the service the client speaks natively
    /// (`AddService` over GIOP, or `FlickrService` over XML-RPC).
    ///
    /// # Errors
    ///
    /// Deployment failures.
    pub fn direct(workload: Workload, seed: u64) -> Result<World, String> {
        World::deploy(workload, seed, None, true)
    }

    fn deploy(
        workload: Workload,
        seed: u64,
        log: Option<Arc<SpanLog>>,
        direct: bool,
    ) -> Result<World, String> {
        let transport: Arc<dyn Transport> = match workload {
            Workload::AddTcp => Arc::new(TcpTransport::new()),
            _ => Arc::new(MemoryTransport::new()),
        };
        let apps_net = net_over(&transport, log.as_ref());
        let ep = workload.endpoint("service");
        let mut expected = Expected::new();
        let (service, service_endpoint): (Box<dyn std::any::Any + Send + Sync>, Endpoint) =
            match (workload, direct) {
                (Workload::PhotoBrowse, _) => {
                    let twin = PhotoStore::with_random_photos(STORE_PHOTOS, seed);
                    for tag in TAGS {
                        for n in PAGE_SIZES {
                            expected.insert((tag, n), twin.search(tag, n as usize));
                        }
                    }
                    let store = PhotoStore::with_random_photos(STORE_PHOTOS, seed);
                    if direct {
                        let s = FlickrService::deploy(&apps_net, &ep, FlickrFlavor::XmlRpc, store)
                            .map_err(|e| format!("deploy flickr service: {e}"))?;
                        let ep = s.endpoint().clone();
                        (Box::new(s), ep)
                    } else {
                        let s = PicasaService::deploy(&apps_net, &ep, store)
                            .map_err(|e| format!("deploy picasa service: {e}"))?;
                        let ep = s.endpoint().clone();
                        (Box::new(s), ep)
                    }
                }
                (_, true) => {
                    let s = AddService::deploy(&apps_net, &ep)
                        .map_err(|e| format!("deploy add service: {e}"))?;
                    let ep = s.endpoint().clone();
                    (Box::new(s), ep)
                }
                (_, false) => {
                    let s = PlusService::deploy(&apps_net, &ep)
                        .map_err(|e| format!("deploy plus service: {e}"))?;
                    let ep = s.endpoint().clone();
                    (Box::new(s), ep)
                }
            };
        if let Some(log) = &log {
            log.assign(&service_endpoint, Tier::Service);
        }
        Ok(World {
            workload,
            seed,
            transport,
            log,
            apps_net,
            service_endpoint,
            expected: Arc::new(expected),
            direct,
            _service: service,
        })
    }

    /// The span log the clients and service record into, if traced.
    pub fn log(&self) -> Option<&Arc<SpanLog>> {
        self.log.as_ref()
    }

    /// A network engine for a mediator over the same transport instance,
    /// tapped when `log` is given.
    pub fn mediator_net(&self, log: Option<&Arc<SpanLog>>) -> NetworkEngine {
        net_over(&self.transport, log)
    }

    /// Builds the workload's mediator from its models with `Mediator::new`
    /// and public `ColorRuntime`s, wrapping both colors' codecs when `log`
    /// is given.
    ///
    /// # Errors
    ///
    /// Merge, codec or mediator construction failures.
    pub fn build_mediator(
        &self,
        net: NetworkEngine,
        log: Option<&Arc<SpanLog>>,
    ) -> Result<(Mediator, BuildTimes), String> {
        let t0 = Instant::now();
        let (automaton, client_binding, service_binding) = match self.workload {
            Workload::PhotoBrowse => {
                let (merged, _) =
                    merged_flickr_picasa().map_err(|e| format!("merge flickr/picasa: {e}"))?;
                let looped =
                    into_service_loop(&merged).map_err(|e| format!("service loop: {e}"))?;
                (looped, flickr_binding(FlickrFlavor::XmlRpc), rest_binding())
            }
            _ => {
                let (merged, _) = merged_add_plus().map_err(|e| format!("merge add/plus: {e}"))?;
                (merged, giop_binding(), soap_binding())
            }
        };
        let t1 = Instant::now();
        let (client_codec, service_codec): (Arc<dyn MessageCodec>, Arc<dyn MessageCodec>) =
            match self.workload {
                Workload::PhotoBrowse => (
                    flickr_codec(FlickrFlavor::XmlRpc).map_err(|e| format!("xmlrpc codec: {e}"))?,
                    Arc::new(
                        rest_codec("picasaweb.google.com")
                            .map_err(|e| format!("rest codec: {e}"))?,
                    ),
                ),
                _ => (
                    Arc::new(giop_codec().map_err(|e| format!("giop codec: {e}"))?),
                    Arc::new(
                        soap_codec("calc.example.org", "/calc")
                            .map_err(|e| format!("soap codec: {e}"))?,
                    ),
                ),
            };
        let t2 = Instant::now();
        let wrap = |codec: Arc<dyn MessageCodec>, side: Side| -> Arc<dyn MessageCodec> {
            match log {
                Some(log) => Arc::new(TimedCodec::new(codec, side, log.clone())),
                None => codec,
            }
        };
        let mediator = Mediator::new(
            automaton,
            1,
            vec![
                ColorRuntime {
                    color: 1,
                    binding: client_binding,
                    codec: wrap(client_codec, Side::Client),
                    endpoint: None,
                },
                ColorRuntime {
                    color: 2,
                    binding: service_binding,
                    codec: wrap(service_codec, Side::Service),
                    endpoint: Some(self.service_endpoint.clone()),
                },
            ],
            net,
        )
        .map_err(|e| format!("Mediator::new: {e}"))?;
        let t3 = Instant::now();
        Ok((
            mediator,
            BuildTimes {
                merge: t1 - t0,
                codec: t2 - t1,
                mediator: t3 - t2,
            },
        ))
    }

    /// Deploys `mediator` in the given host shape, registering the host's
    /// endpoint with `log` when traced.
    ///
    /// # Errors
    ///
    /// Bind failures.
    pub fn deploy_host(
        &self,
        mediator: Mediator,
        shape: Shape,
        log: Option<&Arc<SpanLog>>,
    ) -> Result<MediatorHost, String> {
        let ep = self.workload.endpoint("bridge");
        let host = match shape {
            Shape::Threaded => MediatorHost::deploy(mediator, &ep),
            Shape::Mux => MediatorHost::deploy_multiplexed(mediator, &ep, MUX_WORKERS),
        }
        .map_err(|e| format!("deploy {} host: {e}", shape.name()))?;
        if let Some(log) = log {
            log.assign(host.endpoint(), Tier::Mediator);
        }
        Ok(host)
    }
}

fn net_over(transport: &Arc<dyn Transport>, log: Option<&Arc<SpanLog>>) -> NetworkEngine {
    let mut net = NetworkEngine::new();
    match log {
        Some(log) => net.register(Arc::new(TapTransport::new(transport.clone(), log.clone()))),
        None => net.register(transport.clone()),
    }
    net
}

/// How one unit ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Every reply was correct.
    Correct,
    /// A call failed.
    Error(String),
    /// A reply was wrong.
    Wrong(String),
}

enum App {
    Add(AddClient),
    Photo(FlickrClient),
}

fn photo(app: &mut App) -> &mut FlickrClient {
    match app {
        App::Photo(c) => c,
        App::Add(_) => unreachable!("photo-browse connects Flickr clients"),
    }
}

/// The reply data of one unit, checked after its clock stops.
enum Replies {
    Sum {
        x: i64,
        y: i64,
        z: i64,
    },
    Search {
        tag: &'static str,
        n: u32,
        ids: Vec<String>,
    },
    Browse {
        tag: &'static str,
        n: u32,
        ids: Vec<String>,
        infos: Vec<starlink_apps::flickr::PhotoInfo>,
        comment: Option<String>,
    },
}

/// One closed-loop client: performs units back to back on its own
/// connection, generating inputs from its own seeded stream.
pub struct Driver<'w> {
    world: &'w World,
    endpoint: Endpoint,
    rng: Rng,
    app: Option<App>,
    units: u64,
    pages: Vec<u32>,
}

impl<'w> Driver<'w> {
    /// A client of `world` targeting `endpoint` (a mediator host, or the
    /// world's own service for the direct baseline), with input stream
    /// `stream` of the world's seed.
    pub fn new(world: &'w World, endpoint: Endpoint, stream: u64) -> Driver<'w> {
        Driver {
            world,
            endpoint,
            rng: Rng::new(world.seed, stream),
            app: None,
            units: 0,
            pages: Vec::new(),
        }
    }

    fn connect(&mut self) -> Result<(), String> {
        self.app = None;
        let net = &self.world.apps_net;
        self.app = Some(match self.world.workload {
            Workload::PhotoBrowse => App::Photo(
                FlickrClient::connect(net, &self.endpoint, FlickrFlavor::XmlRpc)
                    .map_err(|e| format!("connect: {e}"))?,
            ),
            _ => App::Add(
                AddClient::connect(net, &self.endpoint).map_err(|e| format!("connect: {e}"))?,
            ),
        });
        Ok(())
    }

    /// Closes the client connection.
    pub fn disconnect(&mut self) {
        self.app = None;
    }

    fn mark(&self, op: Op) {
        if let Some(log) = self.world.log() {
            log.mark(op);
        }
    }

    /// Connects and makes one call, checking its reply: the "first
    /// correct reply" that ends a set-up.
    pub fn first_reply(&mut self) -> Outcome {
        if let Err(e) = self.connect() {
            return Outcome::Error(e);
        }
        let replies = match self.world.workload {
            Workload::PhotoBrowse => {
                let (tag, n) = (TAGS[0], PAGE_SIZES[0]);
                self.call(|app| photo(app).search(tag, n))
                    .map(|ids| Replies::Search { tag, n, ids })
            }
            _ => self
                .call(|app| match app {
                    App::Add(c) => c.add(40, 2),
                    App::Photo(_) => unreachable!("add workloads connect Add clients"),
                })
                .map(|z| Replies::Sum { x: 40, y: 2, z }),
        };
        match replies {
            Ok(replies) => self.check(replies),
            Err(e) => Outcome::Error(e),
        }
    }

    /// Runs one unit: its latency and whether every reply was correct.
    /// Connections opened between units (first use, `photo-browse`'s
    /// periodic reconnect, recovery after an error) are not timed;
    /// `add-tcp`'s every-8th-call reconnect is.
    pub fn unit(&mut self) -> (Duration, Outcome) {
        let index = self.units;
        self.units += 1;
        let periodic = index > 0 && index.is_multiple_of(BROWSES_PER_CONNECTION);
        if self.app.is_none() || (self.world.workload == Workload::PhotoBrowse && periodic) {
            if let Err(e) = self.connect() {
                return (Duration::ZERO, Outcome::Error(e));
            }
        }
        let start = Instant::now();
        self.mark(Op::UnitStart);
        let replies = match self.world.workload {
            Workload::PhotoBrowse => self.browse(index),
            _ => self.add(index),
        };
        self.mark(Op::UnitEnd);
        let elapsed = start.elapsed();
        let outcome = match replies {
            Ok(replies) => self.check(replies),
            Err(e) => {
                // Start the next unit on a fresh connection.
                self.app = None;
                Outcome::Error(e)
            }
        };
        (elapsed, outcome)
    }

    fn call<T>(
        &mut self,
        f: impl FnOnce(&mut App) -> starlink_core::Result<T>,
    ) -> Result<T, String> {
        self.mark(Op::CallStart);
        let app = self.app.as_mut().ok_or("not connected")?;
        let result = f(app).map_err(|e| e.to_string());
        self.mark(Op::CallEnd);
        result
    }

    fn add(&mut self, index: u64) -> Result<Replies, String> {
        if self.world.workload == Workload::AddTcp
            && index % TCP_RECONNECT_EVERY == TCP_RECONNECT_EVERY - 1
        {
            self.connect()?;
        }
        let x = self.rng.below(2_000_001) as i64 - 1_000_000;
        let y = self.rng.below(2_000_001) as i64 - 1_000_000;
        let z = self.call(|app| match app {
            App::Add(c) => c.add(x, y),
            App::Photo(_) => unreachable!("add workloads connect Add clients"),
        })?;
        Ok(Replies::Sum { x, y, z })
    }

    fn browse(&mut self, index: u64) -> Result<Replies, String> {
        let tag = TAGS[self.rng.below(TAGS.len() as u64) as usize];
        if self.pages.is_empty() {
            self.pages = PAGE_BLOCK.to_vec();
            for i in (1..self.pages.len()).rev() {
                let j = self.rng.below(i as u64 + 1) as usize;
                self.pages.swap(i, j);
            }
        }
        let n = self.pages.pop().expect("refilled above");
        let ids = self.call(|app| photo(app).search(tag, n))?;
        let mut infos = Vec::with_capacity(INFO_PER_BROWSE);
        for id in ids.iter().take(INFO_PER_BROWSE) {
            infos.push(self.call(|app| photo(app).get_info(id))?);
        }
        let comment = if index % COMMENT_EVERY == COMMENT_EVERY - 1 {
            let first = ids.first().ok_or("search returned no photos")?.clone();
            let text = format!("browse {index} of seed {}", self.world.seed);
            Some(self.call(|app| photo(app).add_comment(&first, &text))?)
        } else {
            None
        };
        Ok(Replies::Browse {
            tag,
            n,
            ids,
            infos,
            comment,
        })
    }

    /// The reply oracle.
    fn check(&self, replies: Replies) -> Outcome {
        match replies {
            Replies::Sum { x, y, z } if z == x + y => Outcome::Correct,
            Replies::Sum { x, y, z } => Outcome::Wrong(format!("Add({x}, {y}) returned {z}")),
            Replies::Search { tag, n, ids } => self.check_search(tag, n, &ids),
            Replies::Browse {
                tag,
                n,
                ids,
                infos,
                comment,
            } => {
                let search = self.check_search(tag, n, &ids);
                if search != Outcome::Correct {
                    return search;
                }
                let expected = &self.world.expected[&(tag, n)];
                if infos.len() != expected.len().min(INFO_PER_BROWSE) {
                    return Outcome::Wrong("missing getInfo replies".to_owned());
                }
                for ((info, id), photo) in infos.iter().zip(&ids).zip(expected) {
                    if info.id != *id || info.title != photo.title || info.url != photo.url {
                        return Outcome::Wrong(format!(
                            "getInfo({id}) returned {info:?}, expected {} {}",
                            photo.title, photo.url
                        ));
                    }
                }
                match comment {
                    Some(id) if id.is_empty() => Outcome::Wrong("addComment returned no id".into()),
                    _ => Outcome::Correct,
                }
            }
        }
    }

    /// Search results must match the twin store: the same ids from the
    /// native service, one fresh distinct id per result from the mediator.
    fn check_search(&self, tag: &'static str, n: u32, ids: &[String]) -> Outcome {
        let expected = &self.world.expected[&(tag, n)];
        if ids.len() != expected.len() {
            return Outcome::Wrong(format!(
                "search({tag}, {n}) returned {} ids, expected {}",
                ids.len(),
                expected.len()
            ));
        }
        let ok = if self.world.direct {
            ids.iter().zip(expected).all(|(id, p)| *id == p.id)
        } else {
            let mut distinct = ids.to_vec();
            distinct.sort_unstable();
            distinct.dedup();
            distinct.len() == ids.len() && ids.iter().all(|id| !id.is_empty())
        };
        if ok {
            Outcome::Correct
        } else {
            Outcome::Wrong(format!("search({tag}, {n}) returned ids {ids:?}"))
        }
    }
}
