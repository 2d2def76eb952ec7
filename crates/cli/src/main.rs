//! `starlink` — command-line tools for Starlink models.
//!
//! ```text
//! starlink validate <model.atm>…         validate automaton models
//! starlink dot <model.atm>               print Graphviz DOT
//! starlink mdl-check <spec.mdl>…         compile MDL specs, list variants
//! starlink mtl-check <program.mtl>…      parse MTL programs
//! starlink merge <client.atm> <service.atm> [options]
//!     --registry <file>   semantic declarations (see below)
//!     --loop              emit the deployable service-loop form
//!     --out <file>        write the merged model (DSL) instead of stdout
//! starlink models <dir>                  load a model bundle, summarise
//! starlink stats <endpoint-or-file>      fetch or parse a telemetry snapshot
//! starlink trace <endpoint-or-file> [--export-json <path>]
//!                                        fetch or parse a Chrome trace, validate,
//!                                        print a per-session timeline
//! starlink health <endpoint-or-file> [--watch] [--interval <secs>] [--count <n>]
//!                                        read the health gauges of a snapshot; exit
//!                                        code 0 healthy / 1 degraded / 2 unhealthy
//!                                        (3 = could not fetch or parse)
//! ```
//!
//! An endpoint is a mediator's diagnostics endpoint
//! (`MediatorHost::expose_diagnostics`): `stats` and `health` send it the
//! `stats` selector, `trace` sends `traces`, and an `error: …` reply is
//! reported as the command's error.
//!
//! Registry file format (one declaration per line):
//!
//! ```text
//! # comments allowed
//! message photo-search = flickr.photos.search, picasa.photos.search
//! field keyword = text, q
//! ```

use starlink_automata::merge::{intertwine, into_service_loop, MergeOptions};
use starlink_automata::{dsl, Automaton};
use starlink_core::ModelRegistry;
use starlink_mdl::{MdlCodec, MessageCodec};
use starlink_message::equiv::SemanticRegistry;
use starlink_mtl::MtlProgram;
use starlink_net::{Endpoint, NetError, NetworkEngine};
use starlink_telemetry::{
    parse_chrome_trace, render_timeline, validate_chrome_trace, HealthCheck, HealthStatus, Layer,
    PairHealth, Sample, Snapshot,
};
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("validate") => cmd_validate(&args[1..]).map(|()| ExitCode::SUCCESS),
        Some("dot") => cmd_dot(&args[1..]).map(|()| ExitCode::SUCCESS),
        Some("mdl-check") => cmd_mdl_check(&args[1..]).map(|()| ExitCode::SUCCESS),
        Some("mtl-check") => cmd_mtl_check(&args[1..]).map(|()| ExitCode::SUCCESS),
        Some("merge") => cmd_merge(&args[1..]).map(|()| ExitCode::SUCCESS),
        Some("models") => cmd_models(&args[1..]).map(|()| ExitCode::SUCCESS),
        Some("stats") => cmd_stats(&args[1..]).map(|()| ExitCode::SUCCESS),
        Some("trace") => cmd_trace(&args[1..]).map(|()| ExitCode::SUCCESS),
        Some("health") => cmd_health(&args[1..]),
        Some("help") | Some("--help") | Some("-h") | None => {
            print!("{}", USAGE);
            Ok(ExitCode::SUCCESS)
        }
        Some(other) => Err(format!("unknown command `{other}`\n\n{USAGE}")),
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("starlink: {message}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
starlink — tools for Starlink interoperability models

USAGE:
  starlink validate <model.atm>...       validate automaton models
  starlink dot <model.atm>               print Graphviz DOT
  starlink mdl-check <spec.mdl>...       compile MDL specs, list variants
  starlink mtl-check <program.mtl>...    parse MTL programs
  starlink merge <client.atm> <service.atm> [--registry <file>] [--loop] [--out <file>]
  starlink models <dir>                  load a model bundle, summarise
  starlink stats <endpoint-or-file>      fetch or parse a telemetry snapshot
  starlink trace <endpoint-or-file> [--export-json <path>]
                                         fetch or parse a Chrome trace, validate,
                                         print a per-session timeline
  starlink health <endpoint-or-file> [--watch] [--interval <secs>] [--count <n>]
                                         read the health gauges of a snapshot; exit
                                         code 0 healthy / 1 degraded / 2 unhealthy
                                         (3 = could not fetch or parse)

An <endpoint> (e.g. tcp://127.0.0.1:7070) is a mediator's diagnostics
endpoint: stats and health send it the `stats` selector, trace sends
`traces`. A <file> is a saved snapshot or Chrome trace.
";

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn load_automaton(path: &str) -> Result<Automaton, String> {
    let text = read(path)?;
    dsl::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn cmd_validate(files: &[String]) -> Result<(), String> {
    if files.is_empty() {
        return Err("validate: no model files given".into());
    }
    for file in files {
        let automaton = load_automaton(file)?;
        automaton.validate().map_err(|e| format!("{file}: {e}"))?;
        println!(
            "{file}: ok — {} ({} states, {} transitions, {} γ, colors {:?})",
            automaton.name(),
            automaton.states().len(),
            automaton.transitions().len(),
            automaton.gamma_count(),
            {
                let mut colors: Vec<u8> = automaton
                    .states()
                    .iter()
                    .flat_map(|s| s.colors.clone())
                    .collect();
                colors.sort_unstable();
                colors.dedup();
                colors
            }
        );
    }
    Ok(())
}

fn cmd_dot(files: &[String]) -> Result<(), String> {
    let [file] = files else {
        return Err("dot: exactly one model file expected".into());
    };
    let automaton = load_automaton(file)?;
    print!("{}", automaton.to_dot());
    Ok(())
}

fn cmd_mdl_check(files: &[String]) -> Result<(), String> {
    if files.is_empty() {
        return Err("mdl-check: no spec files given".into());
    }
    for file in files {
        let text = read(file)?;
        let codec = MdlCodec::from_text(&text).map_err(|e| format!("{file}: {e}"))?;
        println!(
            "{file}: ok — variants: {}",
            codec.message_names().join(", ")
        );
    }
    Ok(())
}

fn cmd_mtl_check(files: &[String]) -> Result<(), String> {
    if files.is_empty() {
        return Err("mtl-check: no program files given".into());
    }
    for file in files {
        let text = read(file)?;
        let program = MtlProgram::parse(&text).map_err(|e| format!("{file}: {e}"))?;
        println!("{file}: ok — {} statements", program.statements.len());
    }
    Ok(())
}

/// Parses the registry declaration format documented in the crate docs.
fn parse_registry(text: &str) -> Result<SemanticRegistry, String> {
    let mut registry = SemanticRegistry::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let err = |msg: &str| format!("registry line {}: {msg}: `{raw}`", i + 1);
        let (kind, rest) = line
            .split_once(' ')
            .ok_or_else(|| err("expected `message`/`field` declaration"))?;
        let (concept, names) = rest
            .split_once('=')
            .ok_or_else(|| err("expected `concept = name, name`"))?;
        let concept = concept.trim();
        let names: Vec<&str> = names.split(',').map(str::trim).collect();
        match kind {
            "message" => registry.declare_message_concept(concept, names),
            "field" => registry.declare_field_concept(concept, names),
            other => return Err(err(&format!("unknown declaration kind `{other}`"))),
        }
    }
    Ok(registry)
}

fn cmd_merge(args: &[String]) -> Result<(), String> {
    let mut files = Vec::new();
    let mut registry_file = None;
    let mut out_file = None;
    let mut loop_form = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--registry" => {
                registry_file = Some(
                    args.get(i + 1)
                        .ok_or("merge: --registry needs a file")?
                        .clone(),
                );
                i += 2;
            }
            "--out" => {
                out_file = Some(args.get(i + 1).ok_or("merge: --out needs a file")?.clone());
                i += 2;
            }
            "--loop" => {
                loop_form = true;
                i += 1;
            }
            other if other.starts_with("--") => {
                return Err(format!("merge: unknown option `{other}`"));
            }
            _ => {
                files.push(args[i].clone());
                i += 1;
            }
        }
    }
    let [client_file, service_file] = files.as_slice() else {
        return Err("merge: expected <client.atm> <service.atm>".into());
    };
    let client = load_automaton(client_file)?;
    let service = load_automaton(service_file)?;
    let registry = match registry_file {
        Some(f) => parse_registry(&read(&f)?)?,
        None => SemanticRegistry::new(),
    };
    let (merged, report) = intertwine(&client, &service, &registry, &MergeOptions::default())
        .map_err(|e| e.to_string())?;
    eprintln!(
        "merge: {:?} — {} intertwined pair(s)",
        report.class,
        report.intertwined_count()
    );
    for r in &report.resolutions {
        eprintln!("  {r:?}");
    }
    let final_model = if loop_form {
        into_service_loop(&merged).map_err(|e| e.to_string())?
    } else {
        merged
    };
    let text = dsl::print(&final_model);
    match out_file {
        Some(f) => {
            std::fs::write(&f, text).map_err(|e| format!("cannot write {f}: {e}"))?;
            eprintln!("merge: wrote {f}");
        }
        None => print!("{text}"),
    }
    Ok(())
}

/// How long a fetch waits for the endpoint's reply frame.
const FETCH_TIMEOUT: Duration = Duration::from_secs(5);

/// Fetches one reply frame from a diagnostics endpoint by sending it
/// `selector`, or reads a file. Errors name the endpoint tried,
/// distinguish a refused connection from an endpoint that accepted but
/// never answered (or answered empty), and carry an `error: …` reply as
/// the error itself.
fn fetch_or_read(cmd: &str, target: &str, selector: &str) -> Result<String, String> {
    if !target.contains("://") {
        return read(target);
    }
    let endpoint: Endpoint = target
        .parse()
        .map_err(|e| format!("{cmd}: {target}: {e}"))?;
    let mut conn = NetworkEngine::with_defaults().connect(&endpoint).map_err(|e| {
        format!("{cmd}: cannot connect to {target}: {e} (is the endpoint exposed and the host running?)")
    })?;
    conn.send(selector.as_bytes())
        .map_err(|e| format!("{cmd}: sending request to {target}: {e}"))?;
    let frame = match conn.receive_timeout(FETCH_TIMEOUT) {
        Ok(frame) => frame,
        Err(NetError::Closed) => {
            return Err(format!(
                "{cmd}: {target} closed the connection without sending a frame \
                 (endpoint reachable, but not serving this protocol?)"
            ));
        }
        Err(NetError::Timeout) => {
            return Err(format!(
                "{cmd}: no frame from {target} within {}s",
                FETCH_TIMEOUT.as_secs()
            ));
        }
        Err(e) => return Err(format!("{cmd}: receiving from {target}: {e}")),
    };
    if frame.is_empty() {
        return Err(format!("{cmd}: {target} sent an empty frame"));
    }
    let text =
        String::from_utf8(frame).map_err(|_| format!("{cmd}: {target}: frame is not UTF-8"))?;
    match text.strip_prefix("error:") {
        Some(message) => Err(format!("{cmd}: {target}: {}", message.trim())),
        None => Ok(text),
    }
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let [target] = args else {
        return Err("stats: exactly one <endpoint> or <snapshot file> expected".into());
    };
    let text = fetch_or_read("stats", target, "stats")?;
    let snapshot = Snapshot::parse_text(&text).map_err(|e| format!("stats: {target}: {e}"))?;
    print!("{}", summarise_snapshot(&snapshot));
    print!("{}", snapshot.render_text());
    Ok(())
}

/// A short human-readable digest printed ahead of the raw exposition text.
fn summarise_snapshot(snap: &Snapshot) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "# sessions: {} started, {} finished, {} failed, {} abandoned\n",
        snap.counter("starlink_sessions_started_total"),
        snap.counter("starlink_sessions_finished_total"),
        snap.counter("starlink_sessions_failed_total"),
        snap.counter("starlink_sessions_abandoned_total"),
    ));
    let probe = |outcome| {
        snap.value("starlink_dispatch_probe_total", &[("outcome", outcome)])
            .unwrap_or(0)
    };
    out.push_str(&format!(
        "# dispatch: {} hit, {} miss, {} fallback\n",
        probe("hit"),
        probe("miss"),
        probe("fallback"),
    ));
    out.push_str(&format!(
        "# wire: {} msg in / {} msg out, {} B in / {} B out\n",
        snap.counter("starlink_wire_messages_in_total"),
        snap.counter("starlink_wire_messages_out_total"),
        snap.counter("starlink_wire_bytes_in_total"),
        snap.counter("starlink_wire_bytes_out_total"),
    ));
    // Latency quantiles estimated from the cumulative buckets of every
    // duration histogram present in the snapshot.
    for family in &snap.families {
        if !family.name.ends_with("_duration_ns") {
            continue;
        }
        let (Some(p50), Some(p90), Some(p99)) = (
            family.quantile(0.50),
            family.quantile(0.90),
            family.quantile(0.99),
        ) else {
            continue;
        };
        let stage = family
            .name
            .trim_start_matches("starlink_")
            .trim_end_matches("_duration_ns");
        out.push_str(&format!(
            "# {stage} latency: p50 {} / p90 {} / p99 {} (n={})\n",
            format_ns(p50),
            format_ns(p90),
            format_ns(p99),
            family.count.unwrap_or(0),
        ));
    }
    out.push_str(&layer_breakdown(snap));
    out
}

/// Where the time went: one line per (layer, color) with its span count
/// and mean, in the order a request meets the layers.
fn layer_breakdown(snap: &Snapshot) -> String {
    let Some(counts) = snap.family("starlink_layer_count") else {
        return String::new();
    };
    let label = |sample: &Sample, key: &str| -> String {
        sample
            .labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
            .unwrap_or_default()
    };
    let mut rows: Vec<(usize, u64, String, String, u64)> = counts
        .samples
        .iter()
        .filter_map(|sample| {
            let layer = label(sample, "layer");
            let order = Layer::ALL[1..].iter().position(|l| l.label() == layer)?;
            let color = label(sample, "color");
            Some((order, color.parse().ok()?, layer, color, sample.value))
        })
        .collect();
    rows.sort();
    let mut out = String::new();
    for (_, _, layer, color, count) in rows {
        let sum = snap
            .value(
                "starlink_layer_sum_ns",
                &[("layer", &layer), ("color", &color)],
            )
            .unwrap_or(0);
        out.push_str(&format!(
            "# layer {layer:<7} color {color}: {count} span(s), mean {:.1}µs\n",
            sum as f64 / count.max(1) as f64 / 1_000.0
        ));
    }
    out
}

/// Renders a nanosecond quantity with an adaptive unit.
fn format_ns(ns: f64) -> String {
    if ns >= 1_000_000_000.0 {
        format!("{:.2}s", ns / 1_000_000_000.0)
    } else if ns >= 1_000_000.0 {
        format!("{:.2}ms", ns / 1_000_000.0)
    } else if ns >= 1_000.0 {
        format!("{:.1}µs", ns / 1_000.0)
    } else {
        format!("{ns:.0}ns")
    }
}

fn cmd_trace(args: &[String]) -> Result<(), String> {
    let mut target: Option<String> = None;
    let mut export = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--export-json" => {
                export = Some(
                    args.get(i + 1)
                        .ok_or("trace: --export-json needs a file")?
                        .clone(),
                );
                i += 2;
            }
            other if other.starts_with("--") => {
                return Err(format!("trace: unknown option `{other}`"));
            }
            _ => {
                if target.replace(args[i].clone()).is_some() {
                    return Err("trace: exactly one <endpoint> or <trace file> expected".into());
                }
                i += 1;
            }
        }
    }
    let Some(target) = target else {
        return Err("trace: exactly one <endpoint> or <trace file> expected".into());
    };
    let json = fetch_or_read("trace", &target, "traces")?;
    let stats = validate_chrome_trace(&json).map_err(|e| format!("trace: {target}: {e}"))?;
    println!(
        "# trace: {} event(s), {} span pair(s), {} session track(s)",
        stats.events, stats.span_pairs, stats.tracks
    );
    let events = parse_chrome_trace(&json).map_err(|e| format!("trace: {target}: {e}"))?;
    print!("{}", render_timeline(&events));
    if let Some(path) = export {
        std::fs::write(&path, &json).map_err(|e| format!("trace: cannot write {path}: {e}"))?;
        eprintln!("trace: wrote {path} ({} bytes)", json.len());
    }
    Ok(())
}

fn cmd_health(args: &[String]) -> Result<ExitCode, String> {
    let mut target: Option<String> = None;
    let mut watch = false;
    let mut interval = Duration::from_secs(2);
    let mut count: Option<u64> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--watch" => {
                watch = true;
                i += 1;
            }
            "--interval" => {
                let secs: u64 = args
                    .get(i + 1)
                    .ok_or("health: --interval needs a number of seconds")?
                    .parse()
                    .map_err(|_| "health: --interval needs a number of seconds".to_owned())?;
                interval = Duration::from_secs(secs.max(1));
                i += 2;
            }
            "--count" => {
                let n: u64 = args
                    .get(i + 1)
                    .ok_or("health: --count needs a number of polls")?
                    .parse()
                    .map_err(|_| "health: --count needs a number of polls".to_owned())?;
                count = Some(n.max(1));
                i += 2;
            }
            other if other.starts_with("--") => {
                return Err(format!("health: unknown option `{other}`"));
            }
            _ => {
                if target.replace(args[i].clone()).is_some() {
                    return Err("health: exactly one <endpoint> or <snapshot file> expected".into());
                }
                i += 1;
            }
        }
    }
    let Some(target) = target else {
        return Err("health: exactly one <endpoint> or <snapshot file> expected".into());
    };
    if !watch {
        let health = fetch_health(&target);
        match &health {
            Ok(pairs) => print!("{}", render_health(pairs)),
            Err(e) => eprintln!("starlink: {e}"),
        }
        return Ok(ExitCode::from(health_exit_code(&health)));
    }
    // Watch mode: poll at the interval, printing one line per poll with
    // the checks that changed status since the previous one. The exit
    // code reflects the last poll.
    let mut last: Option<Vec<PairHealth>> = None;
    let mut last_code;
    let mut polls = 0u64;
    loop {
        let health = fetch_health(&target);
        last_code = health_exit_code(&health);
        match health {
            Ok(pairs) => {
                println!("{}", watch_line(&pairs, last.as_deref()));
                last = Some(pairs);
            }
            Err(e) => {
                eprintln!("starlink: {e}");
                last = None;
            }
        }
        polls += 1;
        if count.is_some_and(|c| polls >= c) {
            break;
        }
        std::thread::sleep(interval);
    }
    Ok(ExitCode::from(last_code))
}

/// Fetches (with the `stats` selector) or reads one snapshot and decodes
/// its health gauges.
fn fetch_health(target: &str) -> Result<Vec<PairHealth>, String> {
    let text = fetch_or_read("health", target, "stats")?;
    health_from_snapshot(&text).map_err(|e| format!("health: {target}: {e}"))
}

/// Decodes the health gauges of a rendered snapshot: one [`PairHealth`]
/// per `starlink_health_status{pair}` sample, with its checks from
/// `starlink_health_check{pair,check,reason}`.
fn health_from_snapshot(text: &str) -> Result<Vec<PairHealth>, String> {
    let snap = Snapshot::parse_text(text).map_err(|e| e.to_string())?;
    let samples = |name: &str| {
        snap.family(name)
            .map(|f| f.samples.as_slice())
            .unwrap_or_default()
    };
    let label = |labels: &[(String, String)], key: &str| {
        labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
            .ok_or_else(|| format!("health gauge without a `{key}` label"))
    };
    let status = |value: u64| match value {
        0 => Ok(HealthStatus::Healthy),
        1 => Ok(HealthStatus::Degraded),
        2 => Ok(HealthStatus::Unhealthy),
        other => Err(format!("health gauge value {other} is not 0, 1 or 2")),
    };
    let mut pairs = samples("starlink_health_status")
        .iter()
        .map(|s| {
            Ok(PairHealth {
                pair: label(&s.labels, "pair")?,
                status: status(s.value)?,
                checks: Vec::new(),
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    if pairs.is_empty() {
        return Err("snapshot has no starlink_health_status gauge".to_owned());
    }
    for s in samples("starlink_health_check") {
        let pair = label(&s.labels, "pair")?;
        let Some(owner) = pairs.iter_mut().find(|p| p.pair == pair) else {
            continue;
        };
        owner.checks.push(HealthCheck {
            name: label(&s.labels, "check")?,
            status: status(s.value)?,
            reason: label(&s.labels, "reason")?,
        });
    }
    Ok(pairs)
}

/// The worst status across pairs (the overall verdict).
fn overall(pairs: &[PairHealth]) -> HealthStatus {
    pairs
        .iter()
        .map(|p| p.status)
        .max()
        .unwrap_or(HealthStatus::Healthy)
}

/// The `starlink health` exit code: the overall verdict's 0/1/2, or 3
/// when the health could not be fetched or decoded.
fn health_exit_code(health: &Result<Vec<PairHealth>, String>) -> u8 {
    health
        .as_ref()
        .map_or(3, |pairs| overall(pairs).exit_code())
}

/// Full human-readable report: overall verdict, then each pair's checks.
fn render_health(pairs: &[PairHealth]) -> String {
    let mut out = format!("overall: {}\n", overall(pairs));
    for pair in pairs {
        out.push_str(&format!("pair {}: {}\n", pair.pair, pair.status));
        for check in &pair.checks {
            out.push_str(&format!(
                "  {:<17} {:<9} {}\n",
                check.name,
                check.status.label(),
                check.reason
            ));
        }
    }
    out
}

/// One `--watch` line: the overall verdict plus deltas — checks whose
/// status changed since the previous poll (or, on the first poll, every
/// check that is not healthy).
fn watch_line(pairs: &[PairHealth], last: Option<&[PairHealth]>) -> String {
    let mut line = format!("health {}", overall(pairs));
    for pair in pairs {
        let prev_pair = last.and_then(|l| l.iter().find(|p| p.pair == pair.pair));
        for check in &pair.checks {
            let prev = prev_pair
                .and_then(|p| p.checks.iter().find(|c| c.name == check.name))
                .map(|c| c.status);
            match (last, prev) {
                // First poll: surface anything not healthy.
                (None, _) if check.status != HealthStatus::Healthy => {
                    line.push_str(&format!(
                        "  [{} {}: {}]",
                        check.name,
                        check.status.label(),
                        check.reason
                    ));
                }
                // Later polls: surface transitions only.
                (Some(_), prev) if prev != Some(check.status) => {
                    line.push_str(&format!(
                        "  [{} {} -> {}: {}]",
                        check.name,
                        prev.map(HealthStatus::label).unwrap_or("new"),
                        check.status.label(),
                        check.reason
                    ));
                }
                _ => {}
            }
        }
    }
    line
}

fn cmd_models(args: &[String]) -> Result<(), String> {
    let [dir] = args else {
        return Err("models: exactly one directory expected".into());
    };
    let mut registry = ModelRegistry::new();
    let loaded = registry
        .load_dir(Path::new(dir))
        .map_err(|e| e.to_string())?;
    println!("{dir}: loaded {loaded} model file(s)");
    for name in registry.codec_names() {
        println!("  mdl      {name}");
    }
    for name in registry.automaton_names() {
        println!("  automaton {name}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_format_parses() {
        let reg = parse_registry(
            "# comment\nmessage search = a.search, b.find\nfield keyword = text, q\n",
        )
        .unwrap();
        assert!(reg.message_names_equivalent("a.search", "b.find"));
        assert_eq!(reg.field_concept("text"), reg.field_concept("q"));
    }

    #[test]
    fn registry_format_rejects_garbage() {
        assert!(parse_registry("bogus line").is_err());
        assert!(parse_registry("message missing-equals").is_err());
        assert!(parse_registry("widget x = a, b").is_err());
    }

    #[test]
    fn stats_digest_includes_latency_quantiles() {
        use starlink_telemetry::{Recorder, TelemetrySink, TraceEvent};
        let recorder = Recorder::new();
        let closed = |layer, color, nanos| {
            recorder.record(&TraceEvent::SpanClosed {
                layer,
                color,
                nanos,
            })
        };
        for nanos in [800, 1_500, 3_000, 9_000, 40_000] {
            closed(Layer::Parse, 1, nanos);
        }
        closed(Layer::Compose, 1, 4_000);
        closed(Layer::Wait, 2, 90_000);
        closed(Layer::Wait, 2, 110_000);
        closed(Layer::Wait, 1, 7_000);
        closed(Layer::Session, 1, 300_000);
        let snap = TelemetrySink::snapshot(&recorder).unwrap();
        let digest = summarise_snapshot(&snap);
        assert!(
            digest.contains("parse latency: p50"),
            "missing quantile line in:\n{digest}"
        );
        assert!(digest.contains("(n=5)"), "missing count in:\n{digest}");
        // The layer table: request order, colors ascending within a
        // layer, count and mean; the session root is not a leaf row.
        let table: Vec<&str> = digest
            .lines()
            .filter(|l| l.starts_with("# layer "))
            .collect();
        assert_eq!(
            table,
            vec![
                "# layer wait    color 1: 1 span(s), mean 7.0µs",
                "# layer wait    color 2: 2 span(s), mean 100.0µs",
                "# layer parse   color 1: 5 span(s), mean 10.9µs",
                "# layer compose color 1: 1 span(s), mean 4.0µs",
            ],
            "{digest}"
        );
    }

    #[test]
    fn health_verdict_and_exit_code_come_from_snapshot_gauges() {
        let rendered = |status: HealthStatus, reason: &str| {
            let pair = PairHealth {
                pair: "Add Client ~ Plus\\Service".to_owned(),
                status,
                checks: vec![HealthCheck {
                    name: "failure-rate".to_owned(),
                    status,
                    reason: reason.to_owned(),
                }],
            };
            Snapshot {
                families: pair.families(),
            }
            .render_text()
        };
        for (status, code) in [
            (HealthStatus::Healthy, 0),
            (HealthStatus::Degraded, 1),
            (HealthStatus::Unhealthy, 2),
        ] {
            let health = health_from_snapshot(&rendered(status, "failure ratio below threshold"));
            assert_eq!(health_exit_code(&health), code, "{status}");
        }

        // Reasons are label text: spaces, quotes and backslashes survive.
        let reason = r#"3 failed / 9 started (last 60s), worst stage "mdl \ parse"=3"#;
        let pairs = health_from_snapshot(&rendered(HealthStatus::Degraded, reason)).unwrap();
        assert_eq!(pairs[0].pair, "Add Client ~ Plus\\Service");
        assert_eq!(pairs[0].checks[0].name, "failure-rate");
        assert_eq!(pairs[0].checks[0].reason, reason);
        let report = render_health(&pairs);
        assert!(report.starts_with("overall: degraded\n"), "{report}");
        assert!(report.contains(reason), "{report}");

        // The overall verdict is the worst status sample.
        let two_pairs = "# TYPE starlink_health_status gauge\n\
                         starlink_health_status{pair=\"A\"} 0\n\
                         starlink_health_status{pair=\"B\"} 2\n";
        assert_eq!(health_exit_code(&health_from_snapshot(two_pairs)), 2);

        // No status gauge, or no snapshot at all: exit 3.
        let no_health = "# TYPE starlink_sessions_started_total counter\n\
                         starlink_sessions_started_total 4\n";
        let missing = health_from_snapshot(no_health);
        assert!(missing
            .as_ref()
            .unwrap_err()
            .contains("starlink_health_status"));
        assert_eq!(health_exit_code(&missing), 3);
        assert_eq!(health_exit_code(&health_from_snapshot("not a snapshot")), 3);
    }
}
