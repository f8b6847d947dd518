//! Chrome trace-event JSON export and validation.
//!
//! [`TaskTraceSet::to_chrome_json`] renders recorded task lifecycles in
//! the Chrome trace-event format (the JSON Array Format wrapped in a
//! `traceEvents` object), loadable in `chrome://tracing` and Perfetto.
//! Timed stages become complete events (`"ph":"X"`) and instant stages
//! become thread-scoped instants (`"ph":"i"`); each task maps to one
//! `tid`, so the viewer shows one lane per task with its pipeline stages
//! laid end to end. Timestamps are virtual microseconds, so same-seed
//! runs export byte-identical documents.
//!
//! [`validate_chrome_trace`] is the matching in-tree checker used by CI's
//! trace smoke: a minimal recursive-descent JSON parser (no external
//! crates, mirroring the workspace's zero-dependency telemetry rule) that
//! verifies the schema rather than trusting the exporter.

use std::fmt::Write as _;

use crate::task::TaskTraceSet;

impl TaskTraceSet {
    /// Render the trace set as deterministic Chrome trace-event JSON.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(256 + 128 * self.traces.len());
        out.push_str("{\"traceEvents\":[");
        let mut first = true;
        for trace in &self.traces {
            for span in &trace.spans {
                if !first {
                    out.push(',');
                }
                first = false;
                let detail = span.detail.unwrap_or("");
                if span.start_ms == span.end_ms {
                    let _ = write!(
                        out,
                        "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":1,\
                         \"tid\":{},\"args\":{{\"detail\":\"{}\"}}}}",
                        span.stage.label(),
                        span.start_ms * 1000,
                        trace.task,
                        detail
                    );
                } else {
                    let _ = write!(
                        out,
                        "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\
                         \"tid\":{},\"args\":{{\"detail\":\"{}\"}}}}",
                        span.stage.label(),
                        span.start_ms * 1000,
                        (span.end_ms - span.start_ms) * 1000,
                        trace.task,
                        detail
                    );
                }
            }
            if let Some((end, at_ms)) = trace.end {
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(
                    out,
                    "{{\"name\":\"end:{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":1,\
                     \"tid\":{},\"args\":{{\"detail\":\"\"}}}}",
                    end.label(),
                    at_ms * 1000,
                    trace.task
                );
            }
        }
        let _ = write!(
            out,
            "],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"sample_every\":\"{}\",\
             \"scenario\":",
            self.sample_every
        );
        crate::export::push_json_str(&mut out, &self.scenario);
        out.push_str("}}");
        out
    }
}

/// Summary statistics [`validate_chrome_trace`] returns on success.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChromeTraceStats {
    /// Total events in `traceEvents`.
    pub events: usize,
    /// Complete (`"ph":"X"`) events.
    pub complete: usize,
    /// Instant (`"ph":"i"`) events.
    pub instants: usize,
    /// Distinct `tid` lanes (tasks).
    pub lanes: usize,
}

/// Validate that `text` is a well-formed Chrome trace-event document:
/// a JSON object with a `traceEvents` array whose entries carry `name`,
/// `ph`, `ts`, `pid`, and `tid`, where `"X"` events also carry `dur`.
/// Returns summary stats or a description of the first violation.
pub fn validate_chrome_trace(text: &str) -> Result<ChromeTraceStats, String> {
    let value = JsonParser::parse(text)?;
    let Json::Object(top) = &value else {
        return Err("top level is not a JSON object".to_owned());
    };
    let Some(Json::Array(events)) = lookup(top, "traceEvents") else {
        return Err("missing traceEvents array".to_owned());
    };
    let mut stats = ChromeTraceStats { events: events.len(), ..Default::default() };
    let mut lanes: Vec<i64> = Vec::new();
    for (i, event) in events.iter().enumerate() {
        let Json::Object(fields) = event else {
            return Err(format!("traceEvents[{i}] is not an object"));
        };
        let ph = match lookup(fields, "ph") {
            Some(Json::String(ph)) => ph.as_str(),
            _ => return Err(format!("traceEvents[{i}] missing string ph")),
        };
        if !matches!(lookup(fields, "name"), Some(Json::String(_))) {
            return Err(format!("traceEvents[{i}] missing string name"));
        }
        for key in ["ts", "pid", "tid"] {
            if !matches!(lookup(fields, key), Some(Json::Number(_))) {
                return Err(format!("traceEvents[{i}] missing numeric {key}"));
            }
        }
        match ph {
            "X" => {
                if !matches!(lookup(fields, "dur"), Some(Json::Number(_))) {
                    return Err(format!("traceEvents[{i}] is ph=X without numeric dur"));
                }
                stats.complete += 1;
            }
            "i" => stats.instants += 1,
            other => return Err(format!("traceEvents[{i}] has unsupported ph {other:?}")),
        }
        if let Some(Json::Number(tid)) = lookup(fields, "tid") {
            let tid = *tid as i64;
            if !lanes.contains(&tid) {
                lanes.push(tid);
            }
        }
    }
    stats.lanes = lanes.len();
    Ok(stats)
}

fn lookup<'a>(fields: &'a [(String, Json)], key: &str) -> Option<&'a Json> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Minimal JSON value for the validator.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> JsonParser<'a> {
    fn parse(text: &'a str) -> Result<Json, String> {
        let mut parser = JsonParser { bytes: text.as_bytes(), pos: 0 };
        let value = parser.value()?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(format!("trailing data at byte {}", parser.pos));
        }
        Ok(value)
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes.get(self.pos).copied().ok_or_else(|| "unexpected end of input".to_owned())
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek()? != byte {
            return Err(format!("expected {:?} at byte {}", byte as char, self.pos));
        }
        self.pos += 1;
        Ok(())
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek()? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(Json::String(self.string()?)),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            b'-' | b'0'..=b'9' => self.number(),
            other => Err(format!("unexpected byte {:?} at {}", other as char, self.pos)),
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while matches!(
            self.bytes.get(self.pos),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Number)
            .ok_or_else(|| format!("invalid number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos).copied() {
                None => return Err("unterminated string".to_owned()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos).copied() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(byte) => {
                    // Multi-byte UTF-8 passes through unmodified.
                    let len = match byte {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let chunk = self
                        .bytes
                        .get(self.pos..self.pos + len)
                        .and_then(|c| std::str::from_utf8(c).ok())
                        .ok_or_else(|| format!("invalid utf-8 at byte {}", self.pos))?;
                    out.push_str(chunk);
                    self.pos += len;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                other => return Err(format!("expected , or ] got {:?}", other as char)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value()?));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                other => return Err(format!("expected , or }} got {:?}", other as char)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{Stage, TaskEnd, TaskTracer};

    fn demo_set() -> TaskTraceSet {
        let tracer = TaskTracer::new(1);
        tracer.instant(0, Stage::Arrival, 100, None);
        tracer.instant(0, Stage::CacheLookup, 100, Some("hit"));
        tracer.span(0, Stage::Queue, 100, 400, None);
        tracer.instant(0, Stage::Admission, 400, Some("telecom"));
        tracer.span(0, Stage::Fetch, 400, 1300, None);
        tracer.finish(0, TaskEnd::Completed, 1300);
        tracer.snapshot()
    }

    #[test]
    fn exported_trace_validates() {
        let json = demo_set().to_chrome_json();
        let stats = validate_chrome_trace(&json).expect("valid chrome trace");
        assert_eq!(stats.complete, 2);
        assert_eq!(stats.instants, 4);
        assert_eq!(stats.events, 6);
        assert_eq!(stats.lanes, 1);
    }

    #[test]
    fn export_is_byte_identical_across_snapshots() {
        assert_eq!(demo_set().to_chrome_json(), demo_set().to_chrome_json());
    }

    #[test]
    fn context_is_stamped_in_other_data() {
        let mut set = demo_set();
        assert!(set.to_chrome_json().contains("\"scenario\":\"\""));
        set.set_context("cernet-heavy");
        let json = set.to_chrome_json();
        assert!(json.contains("\"scenario\":\"cernet-heavy\""));
        validate_chrome_trace(&json).expect("stamped trace still validates");
    }

    #[test]
    fn timestamps_are_microseconds() {
        let json = demo_set().to_chrome_json();
        // 400 ms fetch start → 400000 µs; 900 ms duration → 900000 µs.
        assert!(json.contains("\"ts\":400000,\"dur\":900000"));
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{}").unwrap_err().contains("traceEvents"));
        assert!(validate_chrome_trace(
            "{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"X\",\"ts\":1,\"pid\":1,\"tid\":1}]}"
        )
        .unwrap_err()
        .contains("dur"));
        assert!(validate_chrome_trace("{\"traceEvents\":[1]}").is_err());
    }

    #[test]
    fn validator_accepts_hand_written_documents() {
        let stats = validate_chrome_trace(
            "{\"traceEvents\":[\n  {\"name\":\"fetch\",\"ph\":\"X\",\"ts\":0,\"dur\":5,\
             \"pid\":1,\"tid\":2},\n  {\"name\":\"mark\",\"ph\":\"i\",\"s\":\"t\",\"ts\":3,\
             \"pid\":1,\"tid\":3}\n]}",
        )
        .expect("valid");
        assert_eq!(stats.events, 2);
        assert_eq!(stats.lanes, 2);
    }
}
