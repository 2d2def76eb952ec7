//! Per-layer breakdown of a traced phase.
//!
//! With one client and one outstanding unit, every span the wrappers
//! record belongs to the current unit. Each unit's span end points are
//! sorted by time and every gap between consecutive points is charged to
//! the segment named by the point that closes it ([`segment_of`]), so
//! the per-unit segment means add up to the mean unit latency exactly;
//! gaps no segment names (the host dispatching a composed frame to its
//! socket) land in `core.unattributed_us`.
//!
//! γ (MTL) and protocol binding run inside the engine, which no public
//! trait exposes, so they are timed offline ([`replay_engine`]): the
//! frames the mediator received are parsed again, unbound, walked through
//! the merged automaton with each γ program executed over the rebuilt
//! `History`, and bound again.

use crate::stats::{mean, median, us};
use crate::tap::{Frame, Op, Role, Side, Span};
use starlink_automata::Action;
use starlink_core::SessionSpec;
use starlink_message::{AbstractMessage, Direction, History};
use starlink_mtl::{MtlContext, MtlProgram, TranslationCache};
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// The latency segments, in hop order (`core.unattributed_us` last).
pub const SEGMENTS: [&str; 17] = [
    "apps.client_us",
    "net.connect_us",
    "core.accept_us",
    "core.hop_in_us",
    "core.handoff_us",
    "mdl.parse_us.client",
    "core.engine_req_us",
    "core.engine_local_us",
    "mdl.compose_us.service",
    "net.send_us",
    "core.service_rtt_us",
    "apps.service_us",
    "mdl.parse_us.service",
    "core.engine_reply_us",
    "mdl.compose_us.client",
    "core.hop_out_us",
    "core.unattributed_us",
];

/// The largest share of the mean unit latency that may stay
/// unattributed before the traced run fails its self-check.
pub const TOLERANCE: f64 = 0.10;

/// An instant at which something observable happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Point {
    Start(Op),
    End(Op),
}

/// The segment a gap closed by `point` belongs to. `last_parse` tracks
/// which color the engine parsed last, which tells a reply apart from a
/// locally answered request.
fn segment_of(point: Point, last_parse: &mut Option<Side>) -> &'static str {
    use Op::*;
    use Point::{End, Start};
    match point {
        End(UnitEnd | CallStart | CallEnd) | Start(Connect(Role::Client) | Send(Role::Client)) => {
            "apps.client_us"
        }
        End(Connect(_)) => "net.connect_us",
        End(Accept(Role::MediatorClient)) => "core.accept_us",
        End(Send(Role::Client) | Recv(Role::MediatorClient)) => "core.hop_in_us",
        Start(Parse(_)) => "core.handoff_us",
        End(Parse(side)) => {
            *last_parse = Some(side);
            match side {
                Side::Client => "mdl.parse_us.client",
                Side::Service => "mdl.parse_us.service",
            }
        }
        Start(Compose(Side::Service)) => "core.engine_req_us",
        Start(Compose(Side::Client)) if *last_parse == Some(Side::Service) => {
            "core.engine_reply_us"
        }
        Start(Compose(Side::Client)) => "core.engine_local_us",
        End(Compose(Side::Client)) => "mdl.compose_us.client",
        End(Compose(Side::Service)) => "mdl.compose_us.service",
        End(Send(Role::MediatorClient | Role::MediatorService)) => "net.send_us",
        End(
            Accept(Role::Service)
            | Recv(Role::Service)
            | Send(Role::Service)
            | Recv(Role::MediatorService),
        ) => "core.service_rtt_us",
        Start(Send(Role::Service)) => "apps.service_us",
        End(Recv(Role::Client)) => "core.hop_out_us",
        _ => "core.unattributed_us",
    }
}

/// The points a span contributes: calls whose duration is a segment
/// contribute their start and end, receives and accepts only the instant
/// they returned. Poll misses contribute nothing.
fn points(span: &Span) -> impl Iterator<Item = (u64, Point)> {
    let (start, end) = match span.op {
        Op::Poll(_) => (None, None),
        Op::Recv(_) | Op::Accept(_) | Op::UnitEnd | Op::CallStart | Op::CallEnd => {
            (None, Some(span.end))
        }
        Op::UnitStart => (None, None),
        _ => (Some(span.start), Some(span.end)),
    };
    start
        .map(|t| (t, Point::Start(span.op)))
        .into_iter()
        .chain(end.map(|t| (t, Point::End(span.op))))
}

/// One traced phase, cut into segments.
#[derive(Debug, Default)]
pub struct Breakdown {
    /// Units measured (after warm-up).
    pub units: usize,
    /// Mean unit latency, µs.
    pub mean_us: f64,
    /// Median unit latency, µs.
    pub p50_us: f64,
    /// Per segment: mean time per unit, µs (sums to `mean_us`).
    pub per_unit: BTreeMap<&'static str, f64>,
    /// Per segment: median of one occurrence, µs.
    pub medians: BTreeMap<&'static str, f64>,
    /// Counts per unit and ratios (`net.*`, `mdl.*`).
    pub counts: BTreeMap<&'static str, f64>,
}

impl Breakdown {
    /// Share of the mean latency no segment names.
    pub fn unattributed_share(&self) -> f64 {
        let un = self
            .per_unit
            .get("core.unattributed_us")
            .copied()
            .unwrap_or(0.0);
        if self.mean_us > 0.0 {
            un / self.mean_us
        } else {
            1.0
        }
    }

    /// Sum of every segment's per-unit mean, µs.
    pub fn segment_sum(&self) -> f64 {
        self.per_unit.values().sum()
    }
}

/// Cuts the spans of one traced phase into segments. Units that started
/// before `measure_from` (warm-up) are left out, except that connects and
/// accepts, which happen mostly when a phase opens its connections, are
/// taken from the whole phase.
pub fn breakdown(spans: &[Span], measure_from: u64) -> Breakdown {
    let mut points: Vec<(u64, Point)> = spans.iter().flat_map(points).collect();
    points.sort_by_key(|&(t, _)| t);

    // Unit windows.
    let mut starts = spans
        .iter()
        .filter(|s| s.op == Op::UnitStart)
        .map(|s| s.start);
    let ends = spans.iter().filter(|s| s.op == Op::UnitEnd).map(|s| s.end);
    let mut windows = Vec::new();
    let mut latencies = Vec::new();
    for end in ends {
        let Some(start) = starts.next() else { break };
        if start >= measure_from {
            windows.push((start, end));
            latencies.push(us(end - start));
        }
    }
    let mut out = Breakdown {
        units: windows.len(),
        mean_us: mean(&latencies),
        p50_us: median(&latencies),
        ..Breakdown::default()
    };
    if windows.is_empty() {
        return out;
    }
    let units = windows.len() as f64;

    // Tiling: charge every gap inside a unit to the segment closing it.
    let mut totals: HashMap<&'static str, u64> = HashMap::new();
    let mut i = 0;
    for &(start, end) in &windows {
        while i < points.len() && points[i].0 <= start {
            i += 1;
        }
        let mut prev = start;
        let mut last_parse = None;
        while i < points.len() && points[i].0 <= end {
            let (t, point) = points[i];
            *totals
                .entry(segment_of(point, &mut last_parse))
                .or_default() += t - prev;
            prev = t;
            i += 1;
        }
        // The UnitEnd marker closes the window, so `prev == end` here.
        *totals.entry("apps.client_us").or_default() += end - prev;
    }
    for seg in SEGMENTS {
        let total = totals.get(seg).copied().unwrap_or(0);
        out.per_unit.insert(seg, us(total) / units);
    }

    // Occurrence medians, one definition per segment.
    let mut occ: HashMap<&'static str, Vec<f64>> = HashMap::new();
    let mut latest: HashMap<Point, u64> = HashMap::new();
    let at = |latest: &HashMap<Point, u64>, p: Point| latest.get(&p).copied();
    let mut last_parse = None;
    for &(t, point) in &points {
        let measured = t >= measure_from;
        let mut push = |seg: &'static str, since: Option<u64>| {
            if let Some(since) = since.filter(|&s| s <= t) {
                occ.entry(seg).or_default().push(us(t - since));
            }
        };
        match point {
            Point::End(Op::Accept(Role::MediatorClient)) => {
                push(
                    "core.accept_us",
                    at(&latest, Point::End(Op::Connect(Role::Client))),
                );
            }
            Point::End(Op::Recv(Role::MediatorClient)) if measured => {
                push(
                    "core.hop_in_us",
                    at(&latest, Point::Start(Op::Send(Role::Client))),
                );
            }
            Point::Start(Op::Parse(_)) if measured => {
                let client = at(&latest, Point::End(Op::Recv(Role::MediatorClient)));
                let service = at(&latest, Point::End(Op::Recv(Role::MediatorService)));
                push("core.handoff_us", client.max(service));
            }
            Point::Start(Op::Compose(_)) if measured => {
                let parsed = at(&latest, Point::End(Op::Parse(Side::Client)))
                    .max(at(&latest, Point::End(Op::Parse(Side::Service))));
                let seg = segment_of(point, &mut last_parse);
                push(seg, parsed);
            }
            Point::End(Op::Recv(Role::MediatorService)) if measured => {
                let sent = at(&latest, Point::End(Op::Send(Role::MediatorService)));
                let served = match (
                    at(&latest, Point::End(Op::Recv(Role::Service))),
                    at(&latest, Point::Start(Op::Send(Role::Service))),
                ) {
                    (Some(r), Some(s)) if s >= r => s - r,
                    _ => 0,
                };
                if let Some(sent) = sent.filter(|&s| s + served <= t) {
                    occ.entry("core.service_rtt_us")
                        .or_default()
                        .push(us(t - sent - served));
                }
            }
            Point::Start(Op::Send(Role::Service)) if measured => {
                push(
                    "apps.service_us",
                    at(&latest, Point::End(Op::Recv(Role::Service))),
                );
            }
            Point::End(Op::Recv(Role::Client)) if measured => {
                push(
                    "core.hop_out_us",
                    at(&latest, Point::End(Op::Send(Role::MediatorClient))),
                );
            }
            Point::End(Op::Parse(_)) => {
                segment_of(point, &mut last_parse);
            }
            _ => {}
        }
        latest.insert(point, t);
    }

    // Durations of single calls.
    let (mut service_parse_ns, mut service_parse_bytes) = (0u64, 0u64);
    let (mut codec_calls, mut codec_failed) = (0u64, 0u64);
    let (mut frames, mut bytes, mut polls, mut hits) = (0u64, 0u64, 0u64, 0u64);
    let last_end = windows.last().map_or(0, |w| w.1);
    let mut call_start = None;
    let mut exchange: Option<(u64, u64)> = None;
    for span in spans {
        let d = us(span.end - span.start);
        let in_phase = span.start >= measure_from && span.end <= last_end;
        match span.op {
            Op::Connect(Role::Client | Role::MediatorService) => {
                occ.entry("net.connect_us").or_default().push(d);
            }
            Op::Send(role) if role.is_mediator() && in_phase => {
                occ.entry("net.send_us").or_default().push(d);
                frames += 1;
                bytes += u64::from(span.bytes);
            }
            Op::Recv(role) if role.is_mediator() && in_phase => {
                frames += 1;
                bytes += u64::from(span.bytes);
                polls += 1;
                hits += 1;
            }
            Op::Poll(role) if role.is_mediator() && in_phase => polls += 1,
            Op::Parse(side) | Op::Compose(side) if in_phase => {
                codec_calls += 1;
                codec_failed += u64::from(!span.ok);
                let seg = match (span.op, side) {
                    (Op::Parse(_), Side::Client) => "mdl.parse_us.client",
                    (Op::Parse(_), Side::Service) => {
                        service_parse_ns += span.end - span.start;
                        service_parse_bytes += u64::from(span.bytes);
                        "mdl.parse_us.service"
                    }
                    (_, Side::Client) => "mdl.compose_us.client",
                    (_, Side::Service) => "mdl.compose_us.service",
                };
                occ.entry(seg).or_default().push(d);
            }
            Op::CallStart if span.start >= measure_from => {
                call_start = Some(span.start);
                exchange = None;
            }
            Op::Send(Role::Client) if call_start.is_some() => {
                exchange = Some((span.start, span.start));
            }
            Op::Recv(Role::Client) => {
                if let Some((sent, _)) = exchange {
                    exchange = Some((sent, span.end));
                }
            }
            Op::CallEnd => {
                if let (Some(start), Some((sent, received))) = (call_start.take(), exchange) {
                    let wire = received.saturating_sub(sent);
                    occ.entry("apps.client_us")
                        .or_default()
                        .push(us((span.end - start).saturating_sub(wire)));
                }
            }
            _ => {}
        }
    }
    for seg in SEGMENTS {
        if let Some(values) = occ.get(seg) {
            out.medians.insert(seg, median(values));
        }
    }
    out.counts
        .insert("net.frames_per_unit", frames as f64 / units);
    out.counts
        .insert("net.bytes_per_unit", bytes as f64 / units);
    out.counts
        .insert("net.polls_per_unit", polls as f64 / units);
    out.counts
        .insert("net.poll_hit_ratio", hits as f64 / polls.max(1) as f64);
    out.counts.insert(
        "mdl.failed_ratio",
        codec_failed as f64 / codec_calls.max(1) as f64,
    );
    out.counts.insert(
        "mdl.parse_ns_per_byte.service",
        service_parse_ns as f64 / service_parse_bytes.max(1) as f64,
    );
    out
}

/// Offline timings of the engine's γ and binding steps.
#[derive(Debug, Default)]
pub struct EngineReplay {
    /// One `MtlProgram::execute` each, µs.
    pub gamma_us: Vec<f64>,
    /// One `ProtocolBinding` bind/unbind each, µs.
    pub binding_us: Vec<f64>,
    /// Frames replayed.
    pub frames: usize,
    /// Steps that failed (a frame that did not parse or unbind, or a γ
    /// that did not execute).
    pub failed: usize,
}

/// Replays the frames the mediator received (client requests and service
/// replies, per mediator session) through the merged automaton of `spec`,
/// timing `MtlProgram::execute` and the binding calls.
pub fn replay_engine(spec: &SessionSpec, frames: &[Frame]) -> EngineReplay {
    let mut out = EngineReplay::default();
    let mut sessions: BTreeMap<u32, Vec<&Frame>> = BTreeMap::new();
    for f in frames {
        if !f.sent && f.role.is_mediator() {
            sessions.entry(f.session).or_default().push(f);
        }
    }
    for frames in sessions.values() {
        // The translation cache lives as long as the client connection.
        let mut cache = TranslationCache::new();
        let mut next = 0;
        while next < frames.len() {
            if replay_traversal(spec, frames, &mut next, &mut cache, &mut out).is_none() {
                break;
            }
        }
    }
    out
}

fn replay_traversal(
    spec: &SessionSpec,
    frames: &[&Frame],
    next: &mut usize,
    cache: &mut TranslationCache,
    out: &mut EngineReplay,
) -> Option<()> {
    let automaton = &spec.automaton;
    let mut state = automaton.initial()?.to_owned();
    let mut history = History::new();
    let mut pending: HashMap<String, AbstractMessage> = HashMap::new();
    let mut request_proto: HashMap<u8, AbstractMessage> = HashMap::new();
    let mut pending_op: HashMap<u8, String> = HashMap::new();
    let empty = MtlProgram::empty();
    let timed = |sink: &mut Vec<f64>, f: &mut dyn FnMut() -> bool| -> bool {
        let start = Instant::now();
        let ok = f();
        sink.push(start.elapsed().as_nanos() as f64 / 1e3);
        ok
    };
    loop {
        let outgoing: Vec<_> = automaton.transitions_from(&state).collect();
        let Some(first) = outgoing.first() else {
            return automaton.is_final(&state).then_some(());
        };
        let color = automaton.state(&state)?.colors[0];
        let cfg = spec.colors.get(&color)?;
        match &first.action {
            Action::Receive(_) => {
                let frame = frames.get(*next)?;
                *next += 1;
                out.frames += 1;
                let client = color == spec.client_color;
                let side_ok = (frame.role == Role::MediatorClient) == client;
                let Some(proto) = side_ok
                    .then(|| cfg.codec.parse(&frame.bytes).ok())
                    .flatten()
                else {
                    out.failed += 1;
                    return None;
                };
                let mut app = None;
                timed(&mut out.binding_us, &mut || {
                    app = if client {
                        cfg.binding
                            .unbind_request(&proto, |action| spec.templates.get(action))
                            .ok()
                    } else {
                        let op = pending_op.get(&color).cloned().unwrap_or_default();
                        let template = spec.templates.get(&format!("{op}.reply"));
                        cfg.binding.unbind_reply(&proto, &op, template).ok()
                    };
                    app.is_some()
                });
                let Some(app) = app else {
                    out.failed += 1;
                    return None;
                };
                if client {
                    request_proto.insert(color, proto);
                }
                let t = outgoing
                    .iter()
                    .find(|t| t.action.message().is_some_and(|m| m.name() == app.name()))?;
                history.record(t.to.clone(), Direction::Received, app);
                state = t.to.clone();
            }
            Action::Gamma { .. } => {
                let to = first.to.clone();
                let program = spec
                    .gammas
                    .get(&(state.clone(), to.clone()))
                    .unwrap_or(&empty);
                let mut ctx = MtlContext::new(&history, cache);
                let next_send = automaton
                    .transitions_from(&to)
                    .find_map(|t| match &t.action {
                        Action::Send(m) => Some(m.name().to_owned()),
                        _ => None,
                    });
                if let Some(name) = next_send {
                    ctx.add_output(to.clone(), AbstractMessage::new(name));
                }
                if !timed(&mut out.gamma_us, &mut || program.execute(&mut ctx).is_ok()) {
                    out.failed += 1;
                    return None;
                }
                if let Some(msg) = ctx.take_output(&to) {
                    pending.insert(to.clone(), msg);
                }
                state = to;
            }
            Action::Send(template) => {
                let mut app = pending
                    .remove(&state)
                    .unwrap_or_else(|| AbstractMessage::new(template.name()));
                app.set_name(template.name());
                let ok = timed(&mut out.binding_us, &mut || {
                    if color == spec.client_color {
                        cfg.binding
                            .bind_reply(&app, request_proto.get(&color))
                            .is_ok()
                    } else {
                        cfg.binding.bind_request(&app).is_ok()
                    }
                });
                if !ok {
                    out.failed += 1;
                    return None;
                }
                if color != spec.client_color {
                    pending_op.insert(color, app.name().to_owned());
                }
                history.record(state.clone(), Direction::Sent, app);
                state = first.to.clone();
            }
        }
    }
}
