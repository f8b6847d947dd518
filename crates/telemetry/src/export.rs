//! Deterministic JSON and CSV exporters.
//!
//! Hand-rolled so the byte stream depends only on recorded data:
//! metric maps serialize in name order, floats through Rust's
//! shortest-round-trip formatter, strings with minimal escaping.
//! Same-seed runs therefore export byte-identical documents.

use std::fmt::Write as _;

use crate::registry::Snapshot;

/// Append `s` to `out` as a JSON string literal, with minimal escaping:
/// quotes, backslashes and control characters.
pub fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

/// Deterministic float formatting; non-finite values become `null`.
pub(crate) fn push_json_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
        // `{}` omits a decimal point for integral floats; that is still
        // valid JSON, so leave it.
    } else {
        out.push_str("null");
    }
}

impl Snapshot {
    /// The deterministic sections of the snapshot as a compact JSON
    /// document. Wall-clock measurements ([`Snapshot::wall`]) are omitted
    /// so same-seed runs export byte-identical documents; use
    /// [`Snapshot::to_json_full`] when perf numbers should ride along.
    pub fn to_json(&self) -> String {
        self.render_json(false)
    }

    /// The whole snapshot — including the nondeterministic `wall` section —
    /// as a compact JSON document. Not byte-stable across runs; meant for
    /// perf reports (`repro bench`), not for snapshot diffing.
    pub fn to_json_full(&self) -> String {
        self.render_json(true)
    }

    fn render_json(&self, include_wall: bool) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\"counters\":{");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_str(&mut out, name);
            let _ = write!(out, ":{value}");
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, value)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_str(&mut out, name);
            out.push(':');
            push_json_f64(&mut out, *value);
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_str(&mut out, name);
            let _ = write!(
                out,
                ":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"buckets\":[",
                h.count, h.sum, h.min, h.max, h.p50, h.p90, h.p99
            );
            for (j, (lower, count)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{lower},{count}]");
            }
            out.push_str("]}");
        }
        out.push('}');
        if include_wall {
            out.push_str(",\"wall\":{");
            for (i, (name, value)) in self.wall.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_json_str(&mut out, name);
                out.push(':');
                push_json_f64(&mut out, *value);
            }
            out.push('}');
        }
        let _ = write!(out, ",\"trace\":{{\"dropped\":{},\"events\":[", self.trace.dropped);
        for (i, event) in self.trace.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"id\":{},\"name\":", event.id);
            push_json_str(&mut out, &event.name);
            let _ = write!(out, ",\"kind\":\"{}\",\"at_ms\":{}}}", event.kind.label(), event.at_ms);
        }
        out.push_str("]}}");
        out
    }

    /// Counters, gauges, and histogram summaries as
    /// `kind,name,field,value` CSV rows (name-ordered).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("kind,name,field,value\n");
        for (name, value) in &self.counters {
            let _ = writeln!(out, "counter,{name},value,{value}");
        }
        for (name, value) in &self.gauges {
            let _ = writeln!(out, "gauge,{name},value,{value}");
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(out, "histogram,{name},count,{}", h.count);
            let _ = writeln!(out, "histogram,{name},sum,{}", h.sum);
            let _ = writeln!(out, "histogram,{name},min,{}", h.min);
            let _ = writeln!(out, "histogram,{name},max,{}", h.max);
            let _ = writeln!(out, "histogram,{name},p50,{}", h.p50);
            let _ = writeln!(out, "histogram,{name},p90,{}", h.p90);
            let _ = writeln!(out, "histogram,{name},p99,{}", h.p99);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::Registry;

    #[test]
    fn json_shape_and_determinism() {
        let build = || {
            let registry = Registry::new();
            registry.counter("cloud.cache.hit").add(89);
            registry.counter("cloud.cache.miss").add(11);
            registry.gauge("cloud.hit_ratio").set(0.89);
            registry.histogram("speed").record(740);
            let span = registry.tracer().open("replay", 0);
            registry.tracer().close("replay", span, 1000);
            registry.snapshot().to_json()
        };
        let a = build();
        let b = build();
        assert_eq!(a, b, "same recording must export byte-identical JSON");
        assert!(a.starts_with("{\"counters\":{"));
        assert!(a.contains("\"cloud.cache.hit\":89"));
        assert!(a.contains("\"cloud.hit_ratio\":0.89"));
        assert!(a.contains("\"kind\":\"close\",\"at_ms\":1000"));
        assert!(a.ends_with("]}}"));
    }

    #[test]
    fn wall_section_only_in_full_export() {
        let registry = Registry::new();
        registry.counter("events").add(7);
        registry.set_wall("sim.events_per_sec", 123456.5);
        let snap = registry.snapshot();
        let stable = snap.to_json();
        assert!(!stable.contains("events_per_sec"), "wall metrics must not leak: {stable}");
        let full = snap.to_json_full();
        assert!(full.contains("\"wall\":{\"sim.events_per_sec\":123456.5}"), "{full}");
        assert!(full.contains("\"events\":7"));
        // CSV export likewise stays wall-free.
        assert!(!snap.to_csv().contains("events_per_sec"));
    }

    #[test]
    fn json_escapes_strings() {
        let registry = Registry::new();
        registry.tracer().instant("we\"ird\\name\n", 1);
        let json = registry.snapshot().to_json();
        assert!(json.contains("we\\\"ird\\\\name\\n"));
    }

    #[test]
    fn csv_lists_all_metric_kinds() {
        let registry = Registry::new();
        registry.counter("c").inc();
        registry.gauge("g").set(1.5);
        registry.histogram("h").record(3);
        let csv = registry.snapshot().to_csv();
        assert!(csv.starts_with("kind,name,field,value\n"));
        assert!(csv.contains("counter,c,value,1\n"));
        assert!(csv.contains("gauge,g,value,1.5\n"));
        assert!(csv.contains("histogram,h,count,1\n"));
        assert!(csv.contains("histogram,h,p99,3\n"));
    }
}
