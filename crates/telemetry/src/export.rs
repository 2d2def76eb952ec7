//! Trace exporters: Chrome `trace_event` JSON and a plain-text timeline.
//!
//! The JSON exporter emits the subset of the Trace Event Format that
//! `chrome://tracing` and Perfetto load: an object with a `traceEvents`
//! array of duration (`B`/`E`) and instant (`i`) events, timestamps in
//! microseconds. Thread id is the session trace
//! id, so one host dump shows each mediated session as its own track;
//! timestamps are relative to each session's tracer epoch (its accept
//! time), not to a shared clock.
//!
//! The module also carries a validating parser for the same subset —
//! written here (zero-dep crate) so smoke tests and the CLI can check
//! an export round-trips and its span pairs balance without pulling in
//! a JSON dependency.

use crate::span::{SessionTrace, TraceRecordKind};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Process id used for all exported events (one mediator host).
const EXPORT_PID: u64 = 1;
/// Category tag on every exported event.
const EXPORT_CATEGORY: &str = "starlink";

/// One Chrome `trace_event` entry.
#[derive(Debug, Clone, PartialEq)]
pub struct ChromeEvent {
    /// Event name.
    pub name: String,
    /// Category list (comma-separated by convention).
    pub cat: String,
    /// Phase: `B` (begin), `E` (end), `i` (instant).
    pub ph: char,
    /// Timestamp in microseconds.
    pub ts_us: f64,
    /// Process id.
    pub pid: u64,
    /// Thread id (the session trace id).
    pub tid: u64,
    /// Argument key/value pairs (string-valued).
    pub args: Vec<(String, String)>,
}

/// Lowers one completed session trace into Chrome trace events.
///
/// Span opens/closes become `B`/`E` pairs and point events become `i`
/// instants.
pub fn chrome_events(trace: &SessionTrace) -> Vec<ChromeEvent> {
    let tid = trace.session.0;
    let mut events = Vec::with_capacity(trace.records.len());
    for record in &trace.records {
        let mut args = Vec::new();
        if !record.detail.is_empty() {
            args.push(("detail".to_owned(), record.detail.clone()));
        }
        args.push(("span".to_owned(), record.meta.span.0.to_string()));
        args.push(("parent".to_owned(), record.meta.parent.0.to_string()));
        let ph = match record.kind {
            TraceRecordKind::SpanOpen => 'B',
            TraceRecordKind::SpanClose => 'E',
            TraceRecordKind::Instant => 'i',
        };
        events.push(ChromeEvent {
            name: record.name.clone(),
            cat: EXPORT_CATEGORY.to_owned(),
            ph,
            ts_us: record.meta.ts_ns as f64 / 1_000.0,
            pid: EXPORT_PID,
            tid,
            args,
        });
    }
    events
}

fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Renders events as a Chrome trace JSON document
/// (`{"traceEvents": [...]}`).
pub fn render_chrome_json(events: &[ChromeEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 128 + 32);
    out.push_str("{\"traceEvents\":[");
    for (i, ev) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":\"");
        escape_json(&ev.name, &mut out);
        out.push_str("\",\"cat\":\"");
        escape_json(&ev.cat, &mut out);
        let _ = write!(
            out,
            "\",\"ph\":\"{}\",\"ts\":{:.3},\"pid\":{},\"tid\":{}",
            ev.ph, ev.ts_us, ev.pid, ev.tid
        );
        out.push_str(",\"args\":{");
        for (j, (key, value)) in ev.args.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push('"');
            escape_json(key, &mut out);
            out.push_str("\":\"");
            escape_json(value, &mut out);
            out.push('"');
        }
        out.push_str("}}");
    }
    out.push_str("]}");
    out
}

// ---------------------------------------------------------------------
// Minimal JSON reader (enough for the trace subset we emit).

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct JsonReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> JsonReader<'a> {
    fn new(text: &'a str) -> JsonReader<'a> {
        JsonReader {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn error(&self, message: &str) -> String {
        format!("invalid JSON at byte {}: {message}", self.pos)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", byte as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected '{text}'")))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.error("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.error("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.error("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.error("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not emitted by our
                            // renderer; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.error("unknown escape")),
                    }
                }
                _ => {
                    // Re-decode UTF-8 from this byte.
                    let start = self.pos - 1;
                    let mut end = self.pos;
                    while end < self.bytes.len() && self.bytes[end] & 0xc0 == 0x80 {
                        end += 1;
                    }
                    let s = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| self.error("invalid UTF-8"))?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.error("invalid number"))
    }
}

/// Parses a Chrome trace JSON document (the subset this module emits:
/// an object with a `traceEvents` array, or a bare event array).
pub fn parse_chrome_trace(text: &str) -> Result<Vec<ChromeEvent>, String> {
    let mut reader = JsonReader::new(text);
    let root = reader.value()?;
    reader.skip_ws();
    if reader.pos != reader.bytes.len() {
        return Err(reader.error("trailing data"));
    }
    let items = match &root {
        Json::Arr(items) => items,
        Json::Obj(_) => match root.get("traceEvents") {
            Some(Json::Arr(items)) => items,
            _ => return Err("missing \"traceEvents\" array".to_owned()),
        },
        _ => return Err("root must be an object or array".to_owned()),
    };
    let mut events = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let field = |key: &str| {
            item.get(key)
                .ok_or_else(|| format!("event {i}: missing \"{key}\""))
        };
        let ph_str = field("ph")?
            .as_str()
            .ok_or_else(|| format!("event {i}: \"ph\" must be a string"))?;
        let mut chars = ph_str.chars();
        let ph = match (chars.next(), chars.next()) {
            (Some(c), None) => c,
            _ => return Err(format!("event {i}: \"ph\" must be one character")),
        };
        let num = |key: &str| -> Result<f64, String> {
            field(key)?
                .as_f64()
                .ok_or_else(|| format!("event {i}: \"{key}\" must be a number"))
        };
        let mut args = Vec::new();
        if let Some(Json::Obj(pairs)) = item.get("args") {
            for (key, value) in pairs {
                let rendered = match value {
                    Json::Str(s) => s.clone(),
                    Json::Num(n) => n.to_string(),
                    Json::Bool(b) => b.to_string(),
                    Json::Null => "null".to_owned(),
                    other => format!("{other:?}"),
                };
                args.push((key.clone(), rendered));
            }
        }
        events.push(ChromeEvent {
            name: field("name")?
                .as_str()
                .ok_or_else(|| format!("event {i}: \"name\" must be a string"))?
                .to_owned(),
            cat: item
                .get("cat")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_owned(),
            ph,
            ts_us: num("ts")?,
            pid: num("pid")? as u64,
            tid: num("tid")? as u64,
            args,
        });
    }
    Ok(events)
}

/// Summary statistics from [`validate_chrome_trace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStats {
    /// Total events in the document.
    pub events: usize,
    /// Matched begin/end span pairs.
    pub span_pairs: usize,
    /// Distinct (pid, tid) tracks — i.e. sessions.
    pub tracks: usize,
}

/// Parses a Chrome trace document and checks its structural invariants:
/// every `E` closes the most recent open `B` with the same name on its
/// track, no track ends with open spans, and every other event is an `i`
/// instant. Returns summary stats on success.
pub fn validate_chrome_trace(text: &str) -> Result<TraceStats, String> {
    let events = parse_chrome_trace(text)?;
    let mut stacks: HashMap<(u64, u64), Vec<String>> = HashMap::new();
    let mut span_pairs = 0;
    for (i, ev) in events.iter().enumerate() {
        let track = (ev.pid, ev.tid);
        match ev.ph {
            'B' => stacks.entry(track).or_default().push(ev.name.clone()),
            'E' => {
                let open = stacks.entry(track).or_default().pop().ok_or_else(|| {
                    format!("event {i}: 'E' for \"{}\" with no open span", ev.name)
                })?;
                if open != ev.name {
                    return Err(format!(
                        "event {i}: 'E' for \"{}\" but innermost open span is \"{open}\"",
                        ev.name
                    ));
                }
                span_pairs += 1;
            }
            'i' => {
                stacks.entry(track).or_default();
            }
            other => return Err(format!("event {i}: unsupported phase '{other}'")),
        }
    }
    if let Some(((pid, tid), stack)) = stacks.iter().find(|(_, stack)| !stack.is_empty()) {
        return Err(format!(
            "track pid={pid} tid={tid} ends with {} unclosed span(s): {:?}",
            stack.len(),
            stack
        ));
    }
    Ok(TraceStats {
        events: events.len(),
        span_pairs,
        tracks: stacks.len(),
    })
}

fn format_us(us: f64) -> String {
    if us >= 1_000.0 {
        format!("{:.3}ms", us / 1_000.0)
    } else {
        format!("{us:.1}µs")
    }
}

/// Renders Chrome events as a plain-text timeline: one section per
/// session track, one line per event indented by span depth, with
/// session-relative timestamps, each event's detail, and each span's
/// duration on its closing line.
pub fn render_timeline(events: &[ChromeEvent]) -> String {
    let mut tids: Vec<u64> = events.iter().map(|e| e.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    let mut out = String::new();
    for tid in tids {
        let _ = writeln!(out, "session {tid}");
        // Begin timestamps of the enclosing spans; its length is the depth.
        let mut open: Vec<f64> = Vec::new();
        for ev in events.iter().filter(|e| e.tid == tid) {
            let detail = ev
                .args
                .iter()
                .find(|(key, _)| key == "detail")
                .map_or(String::new(), |(_, value)| value.clone());
            let (marker, depth, text) = match ev.ph {
                'B' => {
                    open.push(ev.ts_us);
                    ("▶", open.len() - 1, detail)
                }
                'E' => {
                    let begin = open.pop().unwrap_or(ev.ts_us);
                    (
                        "◀",
                        open.len(),
                        format!("[{}]", format_us(ev.ts_us - begin)),
                    )
                }
                _ => ("·", open.len(), detail),
            };
            let _ = writeln!(
                out,
                "{:>11}  {}{marker} {} {text}",
                format_us(ev.ts_us),
                "  ".repeat(depth),
                ev.name
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Layer, TraceEvent};
    use crate::span::{SessionTracer, TraceBuffer};
    use std::time::{Duration, Instant};

    /// A session root holding one 2 µs parse span and one instant.
    fn sample_trace() -> SessionTrace {
        let buffer = TraceBuffer::new();
        let tracer = SessionTracer::new();
        let t0 = Instant::now();
        let root = tracer.open(&buffer, Layer::Session, 1, t0);
        let parse = tracer.open(&buffer, Layer::Parse, 1, t0);
        tracer.close(&buffer, parse, t0 + Duration::from_micros(2), 2_000);
        tracer.record(
            &buffer,
            &TraceEvent::WireOut {
                color: 2,
                bytes: 40,
            },
        );
        tracer.close(&buffer, root, t0 + Duration::from_micros(5), 5_000);
        buffer.latest().expect("completed trace")
    }

    #[test]
    fn export_round_trips_through_the_parser() {
        let trace = sample_trace();
        let events = chrome_events(&trace);
        let json = render_chrome_json(&events);
        let parsed = parse_chrome_trace(&json).expect("valid JSON");
        assert_eq!(parsed.len(), events.len());
        for (a, b) in events.iter().zip(&parsed) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.ph, b.ph);
            assert_eq!(a.tid, b.tid);
            assert_eq!(a.args, b.args);
            assert!((a.ts_us - b.ts_us).abs() < 0.002);
        }
    }

    #[test]
    fn validator_accepts_balanced_and_rejects_unbalanced() {
        let trace = sample_trace();
        let json = render_chrome_json(&chrome_events(&trace));
        let stats = validate_chrome_trace(&json).expect("balanced trace");
        assert_eq!(stats.span_pairs, 2);
        assert_eq!(stats.tracks, 1);
        assert!(stats.events >= 5);

        let unbalanced = r#"{"traceEvents":[
            {"name":"a","ph":"B","ts":0,"pid":1,"tid":1},
            {"name":"b","ph":"E","ts":1,"pid":1,"tid":1}
        ]}"#;
        assert!(validate_chrome_trace(unbalanced).is_err());

        let dangling = r#"{"traceEvents":[
            {"name":"a","ph":"B","ts":0,"pid":1,"tid":1}
        ]}"#;
        assert!(validate_chrome_trace(dangling).is_err());
    }

    #[test]
    fn escaping_survives_hostile_strings() {
        let events = vec![ChromeEvent {
            name: "quote\" \\ tab\t π".to_owned(),
            cat: "c".to_owned(),
            ph: 'i',
            ts_us: 1.5,
            pid: 1,
            tid: 9,
            args: vec![("k\n".to_owned(), "v\u{0001}".to_owned())],
        }];
        let json = render_chrome_json(&events);
        let parsed = parse_chrome_trace(&json).expect("valid JSON");
        assert_eq!(parsed[0].name, events[0].name);
        assert_eq!(parsed[0].args, events[0].args);
    }

    #[test]
    fn spans_export_as_begin_end_pairs_at_their_instants() {
        let trace = sample_trace();
        let events = chrome_events(&trace);
        assert!(events.iter().all(|e| matches!(e.ph, 'B' | 'E' | 'i')));
        let at = |ph: char| {
            events
                .iter()
                .find(|e| e.name == "parse" && e.ph == ph)
                .map(|e| e.ts_us)
                .unwrap()
        };
        assert!((at('E') - at('B') - 2.0).abs() < 0.002);
    }

    #[test]
    fn timeline_renders_depth_and_durations() {
        let trace = sample_trace();
        let text = render_timeline(&chrome_events(&trace));
        assert!(text.starts_with(&format!("session {}\n", trace.session.0)));
        assert!(text.contains("▶ session color 1"));
        assert!(text.contains("  ▶ parse color 1"));
        assert!(text.contains("  ◀ parse [2.0µs]"));
        assert!(text.contains("  · wire-out color 2, 40 B"));
        assert!(text.contains("◀ session [5.0µs]"));
    }
}
