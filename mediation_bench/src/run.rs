//! The two kinds of run: untraced (end-to-end metrics) and traced
//! (per-layer metrics), each a sequence of closed-loop phases.

use crate::layers::{breakdown, replay_engine, Breakdown, SEGMENTS, TOLERANCE};
use crate::stats::{median, nproc, peak_rss_mib, process_cpu_us, quantile};
use crate::tap::SpanLog;
use crate::workload::{BuildTimes, Driver, Outcome, Shape, Workload, World};
use starlink_net::Endpoint;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Set-ups per round of an untraced run (and per shape in a traced
/// run); `setup_s` is the median of all of them.
pub const SETUP_REPS: usize = 2;
/// Rounds of an untraced run. Each round runs one slice of every phase,
/// on fresh client connections (so fresh mediator and service threads).
/// Medians over slices spread across the whole run keep a disturbance of
/// a few seconds, or one unlucky thread placement, from moving a metric.
pub const ROUNDS: usize = 10;
/// Share of each phase spent warming up before timing starts.
pub const WARMUP: f64 = 0.1;
/// Samples beyond each tail percentile: a group of slices holds at least
/// `TAIL_BEYOND / (1 - q)` units.
pub const TAIL_BEYOND: f64 = 10.0;

/// The one-client tail percentile reported per host shape, as
/// `(label, q)`: the highest that stays off a step of the latency
/// distribution on every workload. On `mux`, about 1% of `add-mem` units
/// need a third 1 ms coordinator poll, so p99 straddles the step between
/// two- and three-poll units. On `threaded`, `add-tcp`'s reconnect
/// mode (12.5% of units) is fast or slow depending on the accept thread's
/// poll phase, so p95 straddles that, while p99 sits at its top.
pub fn tail(shape: Shape) -> (&'static str, f64) {
    match shape {
        Shape::Threaded => ("p99", 0.99),
        Shape::Mux => ("p95", 0.95),
    }
}
/// Concurrent clients of the throughput phases.
pub const C2_CLIENTS: u64 = 2;
/// Units of the traced phase whose frames are kept for the offline
/// γ/binding replay.
pub const CAPTURE_UNITS: usize = 1000;
/// Most units a traced phase records (bounds the span log's memory).
pub const TRACED_UNIT_CAP: usize = 20_000;

/// Untraced run: share of `--seconds` per phase, in the order each round
/// runs them: threaded c1, mux c1, threaded c2, mux c2. Mux c1 gets the
/// most: its slowest workload (`photo-browse`, ~6.5 ms a unit) needs
/// the most time for a steady tail.
const UNTRACED_SHARES: [f64; 4] = [0.2, 0.35, 0.25, 0.2];
/// Traced run: direct baseline, then per shape untraced c1, untraced c2
/// and traced c1.
const DIRECT_SHARE: f64 = 0.1;
const TRACED_SHARES: [f64; 3] = [0.12, 0.08, 0.25];

/// Better direction of a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// As written in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// The end-to-end metrics (untraced runs): name, unit, better direction.
pub fn end_to_end_schema() -> Vec<(String, &'static str, Better)> {
    let mut v = Vec::new();
    for shape in Shape::ALL {
        let s = shape.name();
        v.push((format!("{s}.c1.p50_us"), "us", Better::Lower));
        v.push((format!("{s}.c1.{}_us", tail(shape).0), "us", Better::Lower));
        v.push((format!("{s}.c2.rps"), "1/s", Better::Higher));
    }
    v.push(("setup_s".to_owned(), "s", Better::Lower));
    v.push(("peak_rss_mib".to_owned(), "MiB", Better::Lower));
    v
}

const COUNTS: [(&str, &str, Better); 6] = [
    ("net.frames_per_unit", "count", Better::Lower),
    ("net.bytes_per_unit", "B", Better::Lower),
    ("net.polls_per_unit", "count", Better::Lower),
    ("net.poll_hit_ratio", "ratio", Better::Higher),
    ("mdl.failed_ratio", "ratio", Better::Lower),
    ("mdl.parse_ns_per_byte.service", "ns/B", Better::Lower),
];

/// The per-layer metrics (traced runs): name, unit, better direction.
pub fn per_layer_schema() -> Vec<(String, &'static str, Better)> {
    let mut v = Vec::new();
    for shape in Shape::ALL {
        let s = shape.name();
        v.push((format!("{s}.trace.p50_us"), "us", Better::Lower));
        v.push((format!("{s}.trace.mean_us"), "us", Better::Lower));
        for seg in SEGMENTS {
            if seg != "core.unattributed_us" {
                v.push((format!("{s}.{seg}"), "us", Better::Lower));
            }
            v.push((format!("{s}.{seg}.per_unit"), "us", Better::Lower));
        }
        for (name, unit, better) in COUNTS {
            v.push((format!("{s}.{name}"), unit, better));
        }
        v.push((format!("{s}.setup.deploy_us"), "us", Better::Lower));
        v.push((format!("{s}.proc.cpu_us_per_unit"), "us", Better::Lower));
        v.push((format!("{s}.trace.overhead_us"), "us", Better::Lower));
    }
    for name in [
        "mtl.gamma_us",
        "mtl.gamma_us.per_unit",
        "core.binding_us",
        "core.binding_us.per_unit",
        "apps.direct.p50_us",
        "setup.merge_us",
        "setup.codec_us",
        "setup.mediator_us",
    ] {
        v.push((name.to_owned(), "us", Better::Lower));
    }
    v
}

/// Units attempted and failed over every phase of a run.
#[derive(Default)]
pub struct Tally {
    attempted: AtomicU64,
    failed: AtomicU64,
    first_failure: Mutex<Option<String>>,
}

impl Tally {
    /// Counts one unit; returns whether it was correct.
    pub fn note(&self, outcome: &Outcome) -> bool {
        self.attempted.fetch_add(1, Ordering::Relaxed);
        let failure = match outcome {
            Outcome::Correct => return true,
            Outcome::Error(e) => format!("error: {e}"),
            Outcome::Wrong(w) => format!("wrong reply: {w}"),
        };
        self.failed.fetch_add(1, Ordering::Relaxed);
        self.first_failure
            .lock()
            .expect("a client thread panicked while recording a failure")
            .get_or_insert(failure);
        false
    }

    /// Units attempted.
    pub fn attempted(&self) -> u64 {
        self.attempted.load(Ordering::Relaxed)
    }

    /// Units that failed or returned a wrong reply.
    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }

    /// The first failure seen, if any.
    pub fn first_failure(&self) -> Option<String> {
        self.first_failure
            .lock()
            .expect("a client thread panicked while recording a failure")
            .clone()
    }
}

/// Everything one run produces.
pub struct Report {
    /// Metric name, value, unit — exactly the schema of the run's kind.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Human-readable lines printed before the result.
    pub text: String,
    /// Units attempted and failed.
    pub tally: Tally,
}

impl Report {
    fn new() -> Report {
        Report {
            metrics: Vec::new(),
            text: String::new(),
            tally: Tally::default(),
        }
    }

    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push((name.into(), value, unit));
    }

    fn line(&mut self, line: impl AsRef<str>) {
        self.text.push_str(line.as_ref());
        self.text.push('\n');
    }
}

/// A single-client phase: unit latencies in completion order.
pub struct C1 {
    /// Latency of each correct measured unit, µs.
    pub latencies_us: Vec<f64>,
    /// Log time at which measuring began (0 when untraced).
    pub measure_from: u64,
    /// Units whose frames were kept.
    pub captured: usize,
}

impl C1 {
    /// Median latency, µs.
    pub fn p50(&self) -> f64 {
        median(&self.latencies_us)
    }
}

/// Runs one closed-loop client for `seconds` (warm-up included) or until
/// `unit_cap` units were measured. Keeps the frames of the first
/// `capture` units when the world is traced.
pub fn closed_loop_c1(
    world: &World,
    endpoint: &Endpoint,
    seconds: f64,
    tally: &Tally,
    stream: u64,
    unit_cap: usize,
    capture: usize,
) -> C1 {
    let mut driver = Driver::new(world, endpoint.clone(), stream);
    let log = world.log();
    let mut kept = 0;
    let keep = |on: bool| {
        if let Some(log) = log {
            log.set_capture(on);
        }
    };
    keep(capture > 0);
    let mut one = |driver: &mut Driver| {
        let (elapsed, outcome) = driver.unit();
        kept += 1;
        if kept == capture {
            keep(false);
        }
        tally.note(&outcome).then_some(elapsed)
    };
    let start = Instant::now();
    let warm = Duration::from_secs_f64(seconds * WARMUP);
    while start.elapsed() < warm {
        one(&mut driver);
    }
    let measure_from = log.map_or(0, |l| l.now());
    let end = start + Duration::from_secs_f64(seconds);
    let mut latencies_us = Vec::new();
    let mut measured = 0usize;
    while Instant::now() < end && measured < unit_cap {
        measured += 1;
        if let Some(elapsed) = one(&mut driver) {
            latencies_us.push(elapsed.as_nanos() as f64 / 1e3);
        }
    }
    driver.disconnect();
    if let Some(log) = log {
        log.set_capture(false);
    }
    C1 {
        latencies_us,
        measure_from,
        captured: kept.min(capture),
    }
}

/// A multi-client closed-loop phase.
pub struct C2 {
    /// Correct units per second after warm-up.
    pub rps: f64,
    /// Process CPU per measured unit, µs.
    pub cpu_us_per_unit: f64,
}

/// Runs [`C2_CLIENTS`] closed-loop clients for `seconds` (warm-up
/// included).
pub fn closed_loop_c2(
    world: &World,
    endpoint: &Endpoint,
    seconds: f64,
    tally: &Tally,
    stream: u64,
) -> C2 {
    let start = Instant::now();
    let warm = Duration::from_secs_f64(seconds * WARMUP);
    let end = Duration::from_secs_f64(seconds);
    let cpu_at_warm = Mutex::new(None);
    let done: Vec<Vec<Duration>> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..C2_CLIENTS)
            .map(|k| {
                let cpu_at_warm = &cpu_at_warm;
                scope.spawn(move || {
                    let mut driver = Driver::new(world, endpoint.clone(), stream + k);
                    let mut completions = Vec::new();
                    loop {
                        let now = start.elapsed();
                        if now >= end {
                            break;
                        }
                        if now >= warm {
                            cpu_at_warm
                                .lock()
                                .expect("a client thread panicked")
                                .get_or_insert_with(process_cpu_us);
                        }
                        let (_, outcome) = driver.unit();
                        if tally.note(&outcome) {
                            completions.push(start.elapsed());
                        }
                    }
                    driver.disconnect();
                    completions
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("a client thread panicked"))
            .collect()
    });
    let cpu = process_cpu_us()
        - cpu_at_warm
            .into_inner()
            .expect("a client thread panicked")
            .unwrap_or_default();
    let mut times: Vec<Duration> = done
        .into_iter()
        .flatten()
        .filter(|&t| t >= warm && t < end)
        .collect();
    times.sort_unstable();
    let measured = times.len();
    // Completions per second between the first and the last completion
    // after warm-up: a true rate, not a count quantised by the slice length.
    let span = match (times.first(), times.last()) {
        (Some(&first), Some(&last)) if last > first => (last - first).as_secs_f64(),
        _ => f64::INFINITY,
    };
    C2 {
        rps: measured.saturating_sub(1) as f64 / span,
        cpu_us_per_unit: cpu / measured.max(1) as f64,
    }
}

/// Times of one set-up: build, deploy, first correct reply.
struct Setup {
    build: BuildTimes,
    deploy: Duration,
    total: Duration,
}

fn setup_once(world: &World, shape: Shape, tally: &Tally) -> Result<Setup, String> {
    let start = Instant::now();
    let (mediator, build) = world.build_mediator(world.mediator_net(None), None)?;
    let built = Instant::now();
    let host = world.deploy_host(mediator, shape, None)?;
    let mut driver = Driver::new(world, host.endpoint().clone(), u64::MAX);
    let outcome = driver.first_reply();
    let done = Instant::now();
    driver.disconnect();
    host.shutdown();
    if !tally.note(&outcome) {
        return Err(format!("set-up probe failed: {outcome:?}"));
    }
    Ok(Setup {
        build,
        deploy: done - built,
        total: done - start,
    })
}

fn header(report: &mut Report, workload: Workload, seed: u64, seconds: u64, trace: bool) {
    report.line(format!(
        "# mediation benchmark: workload={} transport={} seed={seed} nproc={} seconds={seconds} trace={}",
        workload.name(),
        workload.transport(),
        nproc(),
        u8::from(trace),
    ));
}

fn phase_line(report: &mut Report, workload: Workload, seed: u64, shape: Shape, what: &str) {
    report.line(format!(
        "{:<9} {:<14} {:<8} transport={} seed={seed} nproc={} {what}",
        shape.name(),
        format!("workers={}", shape.workers()),
        workload.name(),
        workload.transport(),
        nproc(),
    ));
}

/// One host shape's slices over the rounds of an untraced run.
#[derive(Default)]
struct Slices {
    /// Correct unit latencies of each one-client slice, µs.
    c1: Vec<Vec<f64>>,
    /// Correct units per second of each two-client slice.
    c2: Vec<f64>,
}

impl Slices {
    /// Median of the slices' median latencies.
    fn p50(slices: &[Vec<f64>]) -> f64 {
        let p50s: Vec<f64> = slices.iter().map(|s| median(s)).collect();
        median(&p50s)
    }

    /// Median of the `q`-quantiles of consecutive slice groups, each
    /// group holding enough units for [`TAIL_BEYOND`] samples beyond its
    /// quantile where the run has that many.
    fn tail(&self, q: f64) -> f64 {
        let units: usize = self.c1.iter().map(Vec::len).sum();
        let min_units = (TAIL_BEYOND / (1.0 - q)).round() as usize;
        let groups = (units / min_units).clamp(1, self.c1.len().max(1));
        let tails: Vec<f64> = self
            .c1
            .chunks(self.c1.len().div_ceil(groups).max(1))
            .map(|group| quantile(&group.concat(), q))
            .collect();
        median(&tails)
    }
}

/// The untraced run: [`ROUNDS`] rounds, each timing [`SETUP_REPS`]
/// set-ups and then one slice of every phase: one client on each host
/// shape, then two clients on each.
///
/// # Errors
///
/// Deployment failures and failed set-up probes.
pub fn untraced(workload: Workload, seed: u64, seconds: u64) -> Result<Report, String> {
    let mut report = Report::new();
    header(&mut report, workload, seed, seconds, false);
    let world = World::new(workload, seed, None)?;
    let mut hosts = Vec::with_capacity(Shape::ALL.len());
    for shape in Shape::ALL {
        let (mediator, _) = world.build_mediator(world.mediator_net(None), None)?;
        hosts.push(world.deploy_host(mediator, shape, None)?);
    }
    let slice = seconds as f64 / ROUNDS as f64;
    let mut setups = Vec::with_capacity(ROUNDS * SETUP_REPS);
    let mut slices: Vec<Slices> = Shape::ALL.iter().map(|_| Slices::default()).collect();
    let mut stream = 0;
    for _ in 0..ROUNDS {
        for _ in 0..SETUP_REPS {
            let threaded = setup_once(&world, Shape::Threaded, &report.tally)?;
            let mux = setup_once(&world, Shape::Mux, &report.tally)?;
            setups.push((threaded.total + mux.total).as_secs_f64());
        }
        for (i, host) in hosts.iter().enumerate() {
            stream += 1;
            let c1 = closed_loop_c1(
                &world,
                host.endpoint(),
                slice * UNTRACED_SHARES[i],
                &report.tally,
                stream,
                usize::MAX,
                0,
            );
            slices[i].c1.push(c1.latencies_us);
        }
        for (i, host) in hosts.iter().enumerate() {
            stream += C2_CLIENTS;
            let c2 = closed_loop_c2(
                &world,
                host.endpoint(),
                slice * UNTRACED_SHARES[2 + i],
                &report.tally,
                stream,
            );
            slices[i].c2.push(c2.rps);
        }
    }
    for host in &hosts {
        host.shutdown();
    }
    let setup_s = median(&setups);
    report.line(format!(
        "setup     both shapes to first correct reply: median {setup_s:.6} s over {}",
        setups.len()
    ));
    for (shape, s) in Shape::ALL.into_iter().zip(&slices) {
        let (tail_name, q) = tail(shape);
        let (first, second) = s.c1.split_at(s.c1.len() / 2);
        let units: usize = s.c1.iter().map(Vec::len).sum();
        let p50s: Vec<String> = s.c1.iter().map(|l| format!("{:.0}", median(l))).collect();
        phase_line(
            &mut report,
            workload,
            seed,
            shape,
            &format!(
                "c1 slices={} units={units} p50={:.1}us {tail_name}={:.1}us p50 1st/2nd half={:.1}/{:.1}us per slice [{}]",
                s.c1.len(),
                Slices::p50(&s.c1),
                s.tail(q),
                Slices::p50(first),
                Slices::p50(second),
                p50s.join(" "),
            ),
        );
        let (first, second) = s.c2.split_at(s.c2.len() / 2);
        let rps: Vec<String> = s.c2.iter().map(|r| format!("{r:.0}")).collect();
        phase_line(
            &mut report,
            workload,
            seed,
            shape,
            &format!(
                "c2 clients={C2_CLIENTS} slices={} rps median={:.1} 1st/2nd half={:.1}/{:.1} per slice [{}]",
                s.c2.len(),
                median(&s.c2),
                median(first),
                median(second),
                rps.join(" ")
            ),
        );
        let name = shape.name();
        report.put(format!("{name}.c1.p50_us"), Slices::p50(&s.c1), "us");
        report.put(format!("{name}.c1.{tail_name}_us"), s.tail(q), "us");
        report.put(format!("{name}.c2.rps"), median(&s.c2), "1/s");
    }
    report.put("setup_s", setup_s, "s");
    report.put("peak_rss_mib", peak_rss_mib(), "MiB");
    Ok(report)
}

/// The traced run: set-up breakdown, the direct baseline, then per host
/// shape an untraced reference phase and a traced one-client phase cut
/// into segments.
///
/// # Errors
///
/// Deployment failures, failed set-up probes, and a decomposition whose
/// unattributed share exceeds [`TOLERANCE`].
pub fn traced(workload: Workload, seed: u64, seconds: u64) -> Result<Report, String> {
    let mut report = Report::new();
    header(&mut report, workload, seed, seconds, true);
    let s = seconds as f64;
    let plain = World::new(workload, seed, None)?;

    let (mut merge, mut codec, mut mediator) = (Vec::new(), Vec::new(), Vec::new());
    let mut deploy = [Vec::new(), Vec::new()];
    for _ in 0..SETUP_REPS * ROUNDS {
        for (i, shape) in Shape::ALL.into_iter().enumerate() {
            let setup = setup_once(&plain, shape, &report.tally)?;
            merge.push(setup.build.merge.as_secs_f64() * 1e6);
            codec.push(setup.build.codec.as_secs_f64() * 1e6);
            mediator.push(setup.build.mediator.as_secs_f64() * 1e6);
            deploy[i].push(setup.deploy.as_secs_f64() * 1e6);
        }
    }

    let direct = World::direct(workload, seed)?;
    let base = closed_loop_c1(
        &direct,
        &direct.service_endpoint,
        s * DIRECT_SHARE,
        &report.tally,
        100,
        usize::MAX,
        0,
    );
    drop(direct);
    report.line(format!(
        "direct    {:<14} {:<8} c1 units={} p50={:.1}us (no mediator)",
        "",
        workload.name(),
        base.latencies_us.len(),
        base.p50()
    ));

    let mut replay = None;
    for (i, shape) in Shape::ALL.into_iter().enumerate() {
        let name = shape.name();
        let stream = 200 + 10 * i as u64;
        let (m, _) = plain.build_mediator(plain.mediator_net(None), None)?;
        let host = plain.deploy_host(m, shape, None)?;
        let reference = closed_loop_c1(
            &plain,
            host.endpoint(),
            s * TRACED_SHARES[0],
            &report.tally,
            stream,
            usize::MAX,
            0,
        );
        let c2 = closed_loop_c2(
            &plain,
            host.endpoint(),
            s * TRACED_SHARES[1],
            &report.tally,
            stream + 1,
        );
        host.shutdown();

        let log = SpanLog::new();
        let world = World::new(workload, seed, Some(log.clone()))?;
        let (m, _) = world.build_mediator(world.mediator_net(Some(&log)), Some(&log))?;
        let host = world.deploy_host(m, shape, Some(&log))?;
        let capture = if replay.is_none() { CAPTURE_UNITS } else { 0 };
        let phase = closed_loop_c1(
            &world,
            host.endpoint(),
            s * TRACED_SHARES[2],
            &report.tally,
            stream + 2,
            TRACED_UNIT_CAP,
            capture,
        );
        host.shutdown();
        let b = breakdown(&log.take_spans(), phase.measure_from);
        if replay.is_none() {
            let (m, _) = world.build_mediator(world.mediator_net(None), None)?;
            let frames = log.take_frames();
            let r = replay_engine(&m.session_spec(), &frames);
            if r.failed > 0 {
                return Err(format!("offline engine replay: {} steps failed", r.failed));
            }
            replay = Some((r, phase.captured));
        }
        segment_table(&mut report, workload, seed, shape, &b);
        let share = b.unattributed_share();
        if share > TOLERANCE || b.units == 0 {
            return Err(format!(
                "{name}: segments leave {:.1}% of the mean latency unattributed (tolerance {:.0}%)",
                share * 100.0,
                TOLERANCE * 100.0
            ));
        }
        report.put(format!("{name}.trace.p50_us"), b.p50_us, "us");
        report.put(format!("{name}.trace.mean_us"), b.mean_us, "us");
        for seg in SEGMENTS {
            if seg != "core.unattributed_us" {
                let median = b.medians.get(seg).copied().unwrap_or(0.0);
                report.put(format!("{name}.{seg}"), median, "us");
            }
            report.put(format!("{name}.{seg}.per_unit"), b.per_unit[seg], "us");
        }
        for (count, unit, _) in COUNTS {
            report.put(format!("{name}.{count}"), b.counts[count], unit);
        }
        report.put(format!("{name}.setup.deploy_us"), median(&deploy[i]), "us");
        report.put(
            format!("{name}.proc.cpu_us_per_unit"),
            c2.cpu_us_per_unit,
            "us",
        );
        report.put(
            format!("{name}.trace.overhead_us"),
            b.p50_us - reference.p50(),
            "us",
        );
    }
    let (replay, captured) = replay.expect("the first shape replays the engine");
    let units = captured.max(1) as f64;
    report.line(format!(
        "engine (offline replay of {} frames): gamma median {:.2}us x{}, binding median {:.2}us x{}",
        replay.frames,
        median(&replay.gamma_us),
        replay.gamma_us.len(),
        median(&replay.binding_us),
        replay.binding_us.len()
    ));
    report.put("mtl.gamma_us", median(&replay.gamma_us), "us");
    report.put(
        "mtl.gamma_us.per_unit",
        replay.gamma_us.iter().sum::<f64>() / units,
        "us",
    );
    report.put("core.binding_us", median(&replay.binding_us), "us");
    report.put(
        "core.binding_us.per_unit",
        replay.binding_us.iter().sum::<f64>() / units,
        "us",
    );
    report.put("apps.direct.p50_us", base.p50(), "us");
    report.put("setup.merge_us", median(&merge), "us");
    report.put("setup.codec_us", median(&codec), "us");
    report.put("setup.mediator_us", median(&mediator), "us");
    Ok(report)
}

/// Prints where one shape's traced latency went.
fn segment_table(report: &mut Report, workload: Workload, seed: u64, shape: Shape, b: &Breakdown) {
    phase_line(
        report,
        workload,
        seed,
        shape,
        &format!(
            "traced c1 units={} p50={:.1}us mean={:.1}us",
            b.units, b.p50_us, b.mean_us
        ),
    );
    let mut table = String::new();
    let _ = writeln!(
        table,
        "  {:<26} {:>12} {:>14} {:>8}",
        "segment", "median_us", "mean/unit_us", "share"
    );
    for seg in SEGMENTS {
        let per_unit = b.per_unit[seg];
        let median = b
            .medians
            .get(seg)
            .map_or_else(|| "-".to_owned(), |m| format!("{m:.2}"));
        let _ = writeln!(
            table,
            "  {seg:<26} {median:>12} {per_unit:>14.2} {:>7.1}%",
            100.0 * per_unit / b.mean_us.max(f64::MIN_POSITIVE)
        );
    }
    let _ = write!(
        table,
        "  {:<26} {:>12} {:>14.2} {:>7.1}%  (tolerance: unattributed <= {:.0}%)",
        "sum of segments",
        "",
        b.segment_sum(),
        100.0 * b.segment_sum() / b.mean_us.max(f64::MIN_POSITIVE),
        TOLERANCE * 100.0
    );
    report.line(table);
}
