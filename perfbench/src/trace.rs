//! The traced mode's span recorder. Spans are opened and closed by the
//! benchmark around its own calls into each layer's public functions;
//! nothing is recorded inside the program. Spans stay in memory and are
//! written out once, when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Above this many spans the recorder keeps aggregating durations but
/// stops storing individual spans, bounding its memory.
const MAX_SPANS: usize = 2_000_000;

pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<(Option<usize>, &'static str, Instant)>,
    dropped: u64,
    totals: BTreeMap<&'static str, (Duration, u64)>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            dropped: 0,
            totals: BTreeMap::new(),
        }
    }

    /// Open a span named `name` under the innermost open span.
    pub fn begin(&mut self, name: &'static str) {
        let idx = if self.spans.len() < MAX_SPANS {
            let parent = self.open.last().and_then(|o| o.0);
            self.spans.push(Span {
                name,
                parent,
                start_ns: 0,
                end_ns: 0,
            });
            Some(self.spans.len() - 1)
        } else {
            self.dropped += 1;
            None
        };
        self.open.push((idx, name, Instant::now()));
    }

    /// Close the innermost open span and return its duration.
    pub fn end(&mut self) -> Duration {
        let end = Instant::now();
        let (idx, name, start) = self.open.pop().expect("end() without begin()");
        let d = end - start;
        if let Some(i) = idx {
            self.spans[i].start_ns = (start - self.t0).as_nanos() as u64;
            self.spans[i].end_ns = (end - self.t0).as_nanos() as u64;
        }
        let t = self.totals.entry(name).or_default();
        t.0 += d;
        t.1 += 1;
        d
    }

    /// Record an already measured call of duration `d`, ending now, as a
    /// span under the innermost open span.
    pub fn record(&mut self, name: &'static str, d: Duration) {
        self.begin(name);
        let (_, _, start) = self.open.last_mut().expect("just opened");
        *start -= d;
        self.end();
    }

    /// Run `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// Mean duration of the closed spans named `name`, in µs (0 if none).
    pub fn mean_us(&self, name: &str) -> f64 {
        match self.totals.get(name) {
            Some(&(d, n)) if n > 0 => d.as_secs_f64() * 1e6 / n as f64,
            _ => 0.0,
        }
    }

    /// Total duration of the closed spans named `name`.
    pub fn total(&self, name: &str) -> Duration {
        self.totals.get(name).map_or(Duration::ZERO, |t| t.0)
    }

    /// Write every span (name, id, parent, start, end in ns since the
    /// recorder started) and the run's per-layer metrics as one JSON
    /// document.
    pub fn write(
        &self,
        path: &std::path::Path,
        header: &str,
        metrics: &BTreeMap<&'static str, f64>,
    ) -> std::io::Result<()> {
        let mut s = String::with_capacity(self.spans.len() * 64 + 4096);
        s.push_str("{\"header\":");
        push_str_json(&mut s, header);
        s.push_str(",\"metrics\":{");
        for (i, (k, v)) in metrics.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\"{k}\":{}", json_num(*v));
        }
        let _ = write!(s, "}},\"dropped_spans\":{},\"spans\":[", self.dropped);
        for (i, sp) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push_str(",\n");
            }
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                sp.name, sp.start_ns, sp.end_ns
            );
        }
        s.push_str("]}\n");
        std::fs::write(path, s)
    }
}

/// A JSON number; non-finite values become 0 (JSON has no NaN).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

pub fn push_str_json(s: &mut String, text: &str) {
    s.push('"');
    for c in text.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(s, "\\u{:04x}", c as u32);
            }
            c => s.push(c),
        }
    }
    s.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_aggregate() {
        let mut tr = Tracer::new();
        tr.begin("round");
        tr.span("inner", || std::hint::black_box(1 + 1));
        tr.span("inner", || ());
        tr.end();
        assert_eq!(tr.spans.len(), 3);
        assert_eq!(tr.spans[0].parent, None);
        assert_eq!(tr.spans[1].parent, Some(0));
        assert_eq!(tr.spans[2].parent, Some(0));
        assert!(tr.spans[0].end_ns >= tr.spans[2].end_ns);
        assert_eq!(tr.totals["inner"].1, 2);
        assert!(tr.total("round") >= tr.total("inner"));
        assert_eq!(tr.mean_us("absent"), 0.0);
    }

    #[test]
    fn json_escapes() {
        let mut s = String::new();
        push_str_json(&mut s, "a\"b\\c\nd");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_num(f64::NAN), "0");
        assert_eq!(json_num(1.5), "1.5");
    }
}
