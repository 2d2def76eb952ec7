//! End-to-end tests of the `starlink` CLI binary.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_starlink-tool"))
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("starlink-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const CLIENT_ATM: &str = "\
automaton AClient color=1 {
  states s0 s1 s2
  initial s0
  final s2
  s0 -> s1 : !client.search(text)
  s1 -> s2 : ?client.search.reply(items)
}";

const SERVICE_ATM: &str = "\
automaton AService color=2 {
  states s0 s1 s2
  initial s0
  final s2
  s0 -> s1 : !service.find(q)
  s1 -> s2 : ?service.find.reply(results)
}";

const REGISTRY: &str = "\
message search = client.search, service.find
field keyword = text, q
field result-set = items, results
";

#[test]
fn validate_accepts_good_models() {
    let dir = temp_dir("validate");
    let model = dir.join("client.atm");
    std::fs::write(&model, CLIENT_ATM).unwrap();
    let output = bin().arg("validate").arg(&model).output().unwrap();
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("AClient"));
    assert!(stdout.contains("3 states"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn validate_rejects_broken_models() {
    let dir = temp_dir("validate-bad");
    let model = dir.join("bad.atm");
    std::fs::write(&model, "automaton X color=1 {\n  initial s0\n}").unwrap();
    let output = bin().arg("validate").arg(&model).output().unwrap();
    assert!(!output.status.success());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dot_prints_graphviz() {
    let dir = temp_dir("dot");
    let model = dir.join("client.atm");
    std::fs::write(&model, CLIENT_ATM).unwrap();
    let output = bin().arg("dot").arg(&model).output().unwrap();
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.starts_with("digraph"));
    assert!(stdout.contains("!client.search"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn merge_produces_loadable_model() {
    let dir = temp_dir("merge");
    let client = dir.join("client.atm");
    let service = dir.join("service.atm");
    let registry = dir.join("registry.txt");
    let merged = dir.join("merged.atm");
    std::fs::write(&client, CLIENT_ATM).unwrap();
    std::fs::write(&service, SERVICE_ATM).unwrap();
    std::fs::write(&registry, REGISTRY).unwrap();

    let output = bin()
        .args(["merge"])
        .arg(&client)
        .arg(&service)
        .arg("--registry")
        .arg(&registry)
        .arg("--out")
        .arg(&merged)
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("Strong"));

    // The emitted model validates through the CLI again.
    let output = bin().arg("validate").arg(&merged).output().unwrap();
    assert!(output.status.success());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn merge_loop_form_validates() {
    let dir = temp_dir("merge-loop");
    let client = dir.join("client.atm");
    let service = dir.join("service.atm");
    let registry = dir.join("registry.txt");
    std::fs::write(&client, CLIENT_ATM).unwrap();
    std::fs::write(&service, SERVICE_ATM).unwrap();
    std::fs::write(&registry, REGISTRY).unwrap();
    let output = bin()
        .args(["merge", "--loop"])
        .arg(&client)
        .arg(&service)
        .arg("--registry")
        .arg(&registry)
        .output()
        .unwrap();
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("-service"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mdl_check_lists_variants() {
    let dir = temp_dir("mdl");
    let spec = dir.join("wire.mdl");
    std::fs::write(
        &spec,
        "<Message:Req><Kind:8><End:Message>\n<Message:Rep><Kind:8><End:Message>",
    )
    .unwrap();
    let output = bin().arg("mdl-check").arg(&spec).output().unwrap();
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("Req, Rep"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn models_summarises_bundle() {
    let dir = temp_dir("models");
    std::fs::write(dir.join("wire.mdl"), "<Message:Req><Kind:8><End:Message>").unwrap();
    std::fs::write(dir.join("client.atm"), CLIENT_ATM).unwrap();
    let output = bin().arg("models").arg(&dir).output().unwrap();
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("loaded 2 model file(s)"));
    assert!(stdout.contains("wire.mdl"));
    assert!(stdout.contains("AClient"));
    let _ = std::fs::remove_dir_all(&dir);
}

fn sample_snapshot_text() -> String {
    use starlink_telemetry::{Recorder, TelemetrySink, TraceEvent};
    let recorder = Recorder::new();
    recorder.record(&TraceEvent::SessionStarted);
    recorder.record(&TraceEvent::SessionFinished {
        final_state: "s2",
        exchanges: 2,
    });
    recorder.record(&TraceEvent::DispatchProbe {
        outcome: starlink_telemetry::ProbeOutcome::Hit,
    });
    recorder.snapshot().render_text()
}

#[test]
fn stats_renders_snapshot_file() {
    let dir = temp_dir("stats-file");
    let file = dir.join("snapshot.prom");
    std::fs::write(&file, sample_snapshot_text()).unwrap();
    let output = bin().arg("stats").arg(&file).output().unwrap();
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("# sessions: 1 started, 1 finished, 0 failed"));
    assert!(stdout.contains("# dispatch: 1 hit, 0 miss, 0 fallback"));
    assert!(stdout.contains("starlink_sessions_finished_total 1"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A one-shot diagnostics endpoint on an ephemeral TCP port: accepts one
/// connection, reads its selector frame, answers with `reply`. The
/// handle yields the selector the client sent.
fn serve_once(reply: String) -> (String, std::thread::JoinHandle<String>) {
    let listener = starlink_net::NetworkEngine::with_defaults()
        .listen(&"tcp://127.0.0.1:0".parse().unwrap())
        .unwrap();
    let endpoint = listener.local_endpoint().to_string();
    let server = std::thread::spawn(move || {
        let mut conn = listener.accept().unwrap();
        let selector = conn.receive().unwrap();
        conn.send(reply.as_bytes()).unwrap();
        String::from_utf8(selector).unwrap()
    });
    (endpoint, server)
}

#[test]
fn stats_fetches_snapshot_over_tcp() {
    let (endpoint, server) = serve_once(sample_snapshot_text());
    let output = bin().arg("stats").arg(&endpoint).output().unwrap();
    assert_eq!(server.join().unwrap(), "stats");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("starlink_sessions_started_total 1"));
}

#[test]
fn health_reads_gauges_from_the_stats_selector() {
    use starlink_telemetry::{HealthCheck, HealthStatus, PairHealth, Snapshot};
    let pair = PairHealth {
        pair: "Add+Plus".to_owned(),
        status: HealthStatus::Degraded,
        checks: vec![HealthCheck {
            name: "stalled-sessions".to_owned(),
            status: HealthStatus::Degraded,
            reason: "1 stalled now, 1 stall events (last 60s)".to_owned(),
        }],
    };
    let mut snapshot = Snapshot::parse_text(&sample_snapshot_text()).unwrap();
    snapshot.families.extend(pair.families());
    let (endpoint, server) = serve_once(snapshot.render_text());
    let output = bin().arg("health").arg(&endpoint).output().unwrap();
    assert_eq!(server.join().unwrap(), "stats");
    assert_eq!(output.status.code(), Some(1), "{output:?}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("overall: degraded"), "{stdout}");
    assert!(
        stdout.contains("stalled-sessions  degraded  1 stalled now, 1 stall events (last 60s)"),
        "{stdout}"
    );
}

#[test]
fn error_frames_are_reported_as_errors() {
    let reply = "error: tracing not enabled (call Mediator::enable_tracing before deploying)\n";
    let (endpoint, server) = serve_once(reply.to_owned());
    let output = bin().arg("trace").arg(&endpoint).output().unwrap();
    assert_eq!(server.join().unwrap(), "traces");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("tracing not enabled"), "{stderr}");

    // `health` keeps its contract: any fetch failure is exit 3.
    let (endpoint, server) = serve_once(reply.to_owned());
    let output = bin().arg("health").arg(&endpoint).output().unwrap();
    server.join().unwrap();
    assert_eq!(output.status.code(), Some(3), "{output:?}");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("tracing not enabled"), "{stderr}");
}

/// A saved Chrome trace holding one good traversal and, on another
/// session, one that failed in γ after receiving its request. Returns
/// the file's path and the failed session's id.
fn saved_trace_with_one_failure(dir: &std::path::Path) -> (PathBuf, u64) {
    use starlink_telemetry::{
        chrome_events, render_chrome_json, Layer, SessionTracer, TraceBuffer, TraceEvent,
        TransitionKind,
    };
    use std::time::Instant;
    let buffer = TraceBuffer::new();
    let good = SessionTracer::new();
    let root = good.open(&buffer, Layer::Session, 1, Instant::now());
    good.record(
        &buffer,
        &TraceEvent::SessionFinished {
            final_state: "s6",
            exchanges: 4,
        },
    );
    good.close(&buffer, root, Instant::now(), 0);

    let failing = SessionTracer::new();
    let root = failing.open(&buffer, Layer::Session, 1, Instant::now());
    failing.record(
        &buffer,
        &TraceEvent::Transition {
            from: "s0",
            to: "s1",
            kind: TransitionKind::Receive,
            color: 1,
        },
    );
    for stage in ["received", "pre-gamma"] {
        failing.record(
            &buffer,
            &TraceEvent::MessageSnapshot {
                stage,
                message: "Add",
                fields: "x=30\ny=12",
            },
        );
    }
    let gamma = failing.open(&buffer, Layer::Gamma, 1, Instant::now());
    failing.record(
        &buffer,
        &TraceEvent::SessionFailed {
            stage: "mtl",
            layer: Layer::Gamma,
        },
    );
    failing.close(&buffer, gamma, Instant::now(), 0);
    failing.close(&buffer, root, Instant::now(), 0);

    let events: Vec<_> = buffer.traces().iter().flat_map(chrome_events).collect();
    let path = dir.join("trace.json");
    std::fs::write(&path, render_chrome_json(&events)).unwrap();
    (path, failing.session().0)
}

#[test]
fn trace_failed_explains_the_failed_traversal() {
    let dir = temp_dir("trace-failed");
    let (path, failed) = saved_trace_with_one_failure(&dir);
    let output = bin()
        .arg("trace")
        .arg("--failed")
        .arg(&path)
        .output()
        .unwrap();
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains(&format!(
            "session {failed} failed: stage mtl layer gamma\n  state: s1\n  message pre-gamma: Add\n    x = 30\n    y = 12\n"
        )),
        "{stdout}"
    );
    assert_eq!(stdout.matches(" failed: ").count(), 1, "{stdout}");

    // Without --failed the same file prints the timeline.
    let output = bin().arg("trace").arg(&path).output().unwrap();
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("session-failed stage=mtl layer=gamma"),
        "{stdout}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_failed_reports_a_clean_trace() {
    let dir = temp_dir("trace-clean");
    let path = dir.join("trace.json");
    std::fs::write(&path, r#"{"traceEvents":[]}"#).unwrap();
    let output = bin()
        .arg("trace")
        .arg("--failed")
        .arg(&path)
        .output()
        .unwrap();
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("# no failed traces"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stats_rejects_non_snapshot_file() {
    let dir = temp_dir("stats-bad");
    let file = dir.join("garbage.txt");
    std::fs::write(&file, "this is not an exposition\n").unwrap();
    let output = bin().arg("stats").arg(&file).output().unwrap();
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("stats"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_command_fails_with_usage() {
    let output = bin().arg("frobnicate").output().unwrap();
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("USAGE"));
}

#[test]
fn help_prints_usage() {
    let output = bin().arg("help").output().unwrap();
    assert!(output.status.success());
    assert!(String::from_utf8_lossy(&output.stdout).contains("USAGE"));
}
