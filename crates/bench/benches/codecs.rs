//! B2 — parser/composer cost per protocol family (binary vs text vs
//! XML), versus message size. Regenerates the implicit claim that
//! spec-driven generic codecs are cheap enough for the request path.
//!
//! Also measures the two perf levers of the codec pipeline and records
//! every measurement to `BENCH_codec.json` (override the path with
//! `BENCH_CODEC_JSON`):
//!
//! * `dispatch/*` — probe-directed variant dispatch ([`MessageCodec::parse`])
//!   against the exhaustive try-all loop ([`MdlCodec::parse_try_all`]),
//!   on wires whose variant is *not* declared first.
//! * `compose-reuse/*` — buffer-reusing [`MessageCodec::compose_into`]
//!   against the allocating [`MessageCodec::compose`].
//! * `sink-overhead/*` — the instrumented `parse` with a no-op / live
//!   telemetry sink against the uninstrumented loop
//!   ([`MdlCodec::parse_uninstrumented`]); in fast mode the no-op path
//!   is asserted to stay within 5% of the baseline. The `tracing-sink`
//!   case prices the full per-session tracing stack (span-scoped
//!   metadata fanned out to recorder + trace buffer + flight recorder)
//!   a deployment with `Mediator::enable_tracing` pays on the same path.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use starlink_bench::{
    gdata_feed, giop_reply, giop_request, http_get, http_response, soap_request, xmlrpc_call,
};
use starlink_mdl::MessageCodec;
use starlink_protocols::gdata::gdata_document_codec;
use starlink_protocols::giop::giop_codec;
use starlink_protocols::http::http_codec;
use starlink_protocols::soap::soap_envelope_codec;
use starlink_protocols::xmlrpc::xmlrpc_document_codec;

fn bench_compose(c: &mut Criterion) {
    let giop = giop_codec().unwrap();
    let http = http_codec().unwrap();
    let xmlrpc = xmlrpc_document_codec().unwrap();
    let soap = soap_envelope_codec().unwrap();
    let gdata = gdata_document_codec().unwrap();

    let mut group = c.benchmark_group("compose");
    for size in [1usize, 8, 64] {
        group.bench_with_input(BenchmarkId::new("giop-binary", size), &size, |b, &s| {
            let msg = giop_request(s);
            b.iter(|| giop.compose(&msg).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("xmlrpc-xml", size), &size, |b, &s| {
            let msg = xmlrpc_call(s);
            b.iter(|| xmlrpc.compose(&msg).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("soap-xml", size), &size, |b, &s| {
            let msg = soap_request(s);
            b.iter(|| soap.compose(&msg).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("gdata-xml", size), &size, |b, &s| {
            let msg = gdata_feed(s);
            b.iter(|| gdata.compose(&msg).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("http-text", size), &size, |b, &s| {
            let msg = http_get(s * 8);
            b.iter(|| http.compose(&msg).unwrap());
        });
    }
    group.finish();
}

fn bench_parse(c: &mut Criterion) {
    let giop = giop_codec().unwrap();
    let http = http_codec().unwrap();
    let xmlrpc = xmlrpc_document_codec().unwrap();
    let soap = soap_envelope_codec().unwrap();
    let gdata = gdata_document_codec().unwrap();

    let mut group = c.benchmark_group("parse");
    for size in [1usize, 8, 64] {
        let giop_wire = giop.compose(&giop_request(size)).unwrap();
        let xmlrpc_wire = xmlrpc.compose(&xmlrpc_call(size)).unwrap();
        let soap_wire = soap.compose(&soap_request(size)).unwrap();
        let gdata_wire = gdata.compose(&gdata_feed(size)).unwrap();
        let http_wire = http.compose(&http_get(size * 8)).unwrap();

        group.throughput(Throughput::Bytes(giop_wire.len() as u64));
        group.bench_with_input(BenchmarkId::new("giop-binary", size), &size, |b, _| {
            b.iter(|| giop.parse(&giop_wire).unwrap());
        });
        group.throughput(Throughput::Bytes(xmlrpc_wire.len() as u64));
        group.bench_with_input(BenchmarkId::new("xmlrpc-xml", size), &size, |b, _| {
            b.iter(|| xmlrpc.parse(&xmlrpc_wire).unwrap());
        });
        group.throughput(Throughput::Bytes(soap_wire.len() as u64));
        group.bench_with_input(BenchmarkId::new("soap-xml", size), &size, |b, _| {
            b.iter(|| soap.parse(&soap_wire).unwrap());
        });
        group.throughput(Throughput::Bytes(gdata_wire.len() as u64));
        group.bench_with_input(BenchmarkId::new("gdata-xml", size), &size, |b, _| {
            b.iter(|| gdata.parse(&gdata_wire).unwrap());
        });
        group.throughput(Throughput::Bytes(http_wire.len() as u64));
        group.bench_with_input(BenchmarkId::new("http-text", size), &size, |b, _| {
            b.iter(|| http.parse(&http_wire).unwrap());
        });
    }
    group.finish();
}

fn bench_dispatch(c: &mut Criterion) {
    let giop = giop_codec().unwrap();
    let http = http_codec().unwrap();
    let soap = soap_envelope_codec().unwrap();

    // Wires whose message is NOT the first declared variant, so a
    // try-all parser pays for at least one full failed attempt while the
    // probe table skips straight to the right program.
    let cases: Vec<(&str, &starlink_mdl::MdlCodec, Vec<u8>)> = vec![
        ("giop-reply", &giop, giop.compose(&giop_reply(8)).unwrap()),
        (
            "http-response",
            &http,
            http.compose(&http_response(64)).unwrap(),
        ),
        (
            "soap-request",
            &soap,
            soap.compose(&soap_request(8)).unwrap(),
        ),
    ];

    let mut group = c.benchmark_group("dispatch");
    for (name, codec, wire) in &cases {
        // Dispatch and try-all must agree before we time them.
        let fast = codec.parse(wire).unwrap();
        let slow = codec.parse_try_all(wire).unwrap();
        assert_eq!(fast, slow, "{name}: dispatch result diverged");

        group.throughput(Throughput::Bytes(wire.len() as u64));
        group.bench_with_input(BenchmarkId::new("probed", name), wire, |b, wire| {
            b.iter(|| codec.parse(wire).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("try-all", name), wire, |b, wire| {
            b.iter(|| codec.parse_try_all(wire).unwrap());
        });
    }
    group.finish();
}

fn bench_compose_reuse(c: &mut Criterion) {
    let giop = giop_codec().unwrap();
    let http = http_codec().unwrap();
    let soap = soap_envelope_codec().unwrap();

    let cases: Vec<(
        &str,
        &starlink_mdl::MdlCodec,
        starlink_message::AbstractMessage,
    )> = vec![
        ("giop-reply", &giop, giop_reply(8)),
        ("http-response", &http, http_response(64)),
        ("soap-request", &soap, soap_request(8)),
    ];

    let mut group = c.benchmark_group("compose-reuse");
    for (name, codec, msg) in &cases {
        group.bench_with_input(BenchmarkId::new("alloc", name), msg, |b, msg| {
            b.iter(|| codec.compose(msg).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("reuse", name), msg, |b, msg| {
            let mut buf = Vec::new();
            b.iter(|| codec.compose_into(msg, &mut buf).unwrap());
        });
    }
    group.finish();
}

/// Measures what telemetry instrumentation costs on the codec hot path:
/// the pre-instrumentation parse loop ([`MdlCodec::parse_uninstrumented`]),
/// the instrumented [`MessageCodec::parse`] with the default no-op sink
/// (one `enabled()` check, then delegation to the uninstrumented loop),
/// and `parse` with a live [`Recorder`] aggregating every probe outcome.
///
/// In fast mode this doubles as a regression gate: the no-op-sink path
/// must stay within 5% of the uninstrumented baseline (plus a small
/// absolute epsilon so sub-microsecond parses don't flake on timer
/// granularity).
fn bench_sink_overhead(c: &mut Criterion) {
    use starlink_telemetry::{
        FanoutSink, Recorder, SessionTracer, SpanScopedSink, TelemetrySink, TraceBuffer,
    };
    use std::sync::Arc;

    let giop = giop_codec().unwrap();
    let soap = soap_envelope_codec().unwrap();
    let giop_traced = giop_codec()
        .unwrap()
        .with_telemetry(Arc::new(Recorder::new()));
    let soap_traced = soap_envelope_codec()
        .unwrap()
        .with_telemetry(Arc::new(Recorder::new()));

    let cases: Vec<(
        &str,
        &starlink_mdl::MdlCodec,
        &starlink_mdl::MdlCodec,
        Vec<u8>,
    )> = vec![
        (
            "giop-reply",
            &giop,
            &giop_traced,
            giop.compose(&giop_reply(8)).unwrap(),
        ),
        (
            "soap-request",
            &soap,
            &soap_traced,
            soap.compose(&soap_request(8)).unwrap(),
        ),
    ];

    let mut group = c.benchmark_group("sink-overhead");
    for (name, plain, traced, wire) in &cases {
        group.throughput(Throughput::Bytes(wire.len() as u64));
        group.bench_with_input(BenchmarkId::new("uninstrumented", name), wire, |b, wire| {
            b.iter(|| plain.parse_uninstrumented(wire).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("noop-sink", name), wire, |b, wire| {
            b.iter(|| plain.parse(wire).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("recorder-sink", name), wire, |b, wire| {
            b.iter(|| traced.parse(wire).unwrap());
        });
        // The full stack of a traced host (`Mediator::enable_tracing`
        // next to the host's recorder): every probe event carries span
        // metadata and fans out to the one aggregate and the one
        // retention (per-trace bounded, so steady state is buffer churn).
        group.bench_with_input(BenchmarkId::new("tracing-sink", name), wire, |b, wire| {
            let stack: Arc<dyn TelemetrySink> = Arc::new(FanoutSink::new(vec![
                Arc::new(Recorder::new()) as Arc<dyn TelemetrySink>,
                Arc::new(TraceBuffer::new()) as Arc<dyn TelemetrySink>,
            ]));
            let tracer =
                SessionTracer::for_sink(stack.as_ref()).expect("tracing stack wants spans");
            let scoped = SpanScopedSink::new(&tracer, stack.as_ref());
            b.iter(|| plain.parse_with_sink(wire, &scoped).unwrap());
        });
    }
    group.finish();

    if criterion::fast_mode() {
        for (name, plain, _, wire) in &cases {
            assert_noop_overhead(name, plain, wire);
        }
    }
}

/// Paired measurement for the fast-mode gate: interleaves baseline and
/// no-op-sink rounds (so clock drift hits both equally) and compares the
/// best round of each. The criterion samples above are too short in fast
/// mode to assert on directly.
fn assert_noop_overhead(name: &str, codec: &starlink_mdl::MdlCodec, wire: &[u8]) {
    use std::time::Instant;

    let round = |f: &mut dyn FnMut()| {
        let mut iters = 0u64;
        let start = Instant::now();
        while start.elapsed() < std::time::Duration::from_millis(10) {
            for _ in 0..64 {
                f();
            }
            iters += 64;
        }
        start.elapsed().as_nanos() as f64 / iters as f64
    };

    let mut base = f64::INFINITY;
    let mut noop = f64::INFINITY;
    for _ in 0..5 {
        base = base.min(round(&mut || {
            criterion::black_box(codec.parse_uninstrumented(wire).unwrap());
        }));
        noop = noop.min(round(&mut || {
            criterion::black_box(codec.parse(wire).unwrap());
        }));
    }
    println!("sink-overhead gate: {name}: base {base:.1} ns, noop-sink {noop:.1} ns");
    assert!(
        noop <= base * 1.05 + 50.0,
        "{name}: no-op sink overhead too high: {noop:.1} ns vs {base:.1} ns baseline"
    );
}

/// Last target: dumps everything measured in this process to
/// `BENCH_codec.json` at the repo root (or `$BENCH_CODEC_JSON`).
fn emit_baseline(_c: &mut Criterion) {
    let path = std::env::var("BENCH_CODEC_JSON").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_codec.json").to_owned()
    });
    let path = std::path::PathBuf::from(path);
    criterion::save_json(&path).expect("write bench baseline");
    println!("baseline written to {}", path.display());
}

fn bench_spec_compilation(c: &mut Criterion) {
    // Deploying a mediator compiles its MDL specs; this must be cheap
    // enough for runtime deployment ("dynamically generate parsers").
    c.bench_function("compile/giop-spec", |b| {
        b.iter(|| giop_codec().unwrap());
    });
    c.bench_function("compile/http-spec", |b| {
        b.iter(|| http_codec().unwrap());
    });
    c.bench_function("compile/xmlrpc-spec", |b| {
        b.iter(|| xmlrpc_document_codec().unwrap());
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_compose, bench_parse, bench_dispatch, bench_compose_reuse,
        bench_sink_overhead, bench_spec_compilation, emit_baseline
}
criterion_main!(benches);
