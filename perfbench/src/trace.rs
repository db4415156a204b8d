//! The benchmark's own spans.
//!
//! Every call the benchmark makes into a layer goes through
//! [`Tracer::time`], which always measures the call's host duration (the
//! untraced run needs it for the end-to-end metrics) and, when tracing is
//! on, also records a span: name, host start and end, parent span, and the
//! request id for serving. Spans stay in memory and are written out once,
//! when the run ends.

use crate::report::json_str;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span; times are host seconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Boundary name, `<layer>.<call>`.
    pub name: &'static str,
    /// Host start.
    pub start: f64,
    /// Host end.
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Serving request the span belongs to.
    pub request: Option<u64>,
}

impl Span {
    /// Host duration in seconds.
    pub fn seconds(&self) -> f64 {
        self.end - self.start
    }
}

/// Per-name totals over the recorded spans.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanTotals {
    /// Spans recorded under the name.
    pub count: usize,
    /// Summed span durations.
    pub total_s: f64,
    /// Summed self time: each span minus what its children cover.
    pub self_s: f64,
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records spans only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turns recording on or off for subsequent calls.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Whether calls are currently recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` as the span `name` and returns its result with the host
    /// seconds it took. Spans opened inside `f` become its children.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        request: Option<u64>,
        f: impl FnOnce(&mut Self) -> R,
    ) -> (R, f64) {
        let record = self.enabled;
        let idx = self.spans.len();
        if record {
            self.spans.push(Span {
                name,
                start: 0.0,
                end: 0.0,
                parent: self.open.last().copied(),
                request,
            });
            self.open.push(idx);
        }
        let t0 = Instant::now();
        let out = f(self);
        let t1 = Instant::now();
        if record {
            self.open.pop();
            let span = &mut self.spans[idx];
            span.start = t0.duration_since(self.epoch).as_secs_f64();
            span.end = t1.duration_since(self.epoch).as_secs_f64();
        }
        (out, t1.duration_since(t0).as_secs_f64())
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every recorded span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect()
    }

    /// Count, total and self time per span name. The benchmark is single
    /// threaded, so a span's children never overlap one another and the
    /// part of the parent they cover is the sum of their durations.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_s = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_s[p] += s.seconds();
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_s) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_s += s.seconds();
            t.self_s += s.seconds() - covered;
        }
        out
    }

    /// The spans as a Chrome trace-event document (`chrome://tracing`,
    /// Perfetto), with each span's index, parent and request in `args`.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{i}",
                json_str(s.name),
                json_str(s.name.split('.').next().unwrap_or(s.name)),
                s.start * 1e6,
                s.seconds() * 1e6,
            );
            if let Some(p) = s.parent {
                let _ = write!(out, ",\"parent\":{p}");
            }
            if let Some(r) = s.request {
                let _ = write!(out, ",\"request\":{r}");
            }
            out.push_str("}}");
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(seconds: f64) {
        let t = Instant::now();
        while t.elapsed().as_secs_f64() < seconds {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn disabled_tracer_times_but_records_nothing() {
        let mut tr = Tracer::new(false);
        let (v, s) = tr.time("a.b", None, |_| {
            spin(0.001);
            7
        });
        assert_eq!(v, 7);
        assert!(s >= 0.001);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn children_link_to_parents_and_self_time_excludes_them() {
        let mut tr = Tracer::new(true);
        tr.time("outer.run", Some(3), |tr| {
            spin(0.002);
            tr.time("inner.a", Some(3), |_| spin(0.002));
            tr.time("inner.b", None, |tr| {
                tr.time("leaf.c", None, |_| spin(0.001))
            });
        });
        tr.time("outer.run", None, |_| ());
        let spans = tr.spans();
        assert_eq!(spans.len(), 5);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert_eq!(spans[4].parent, None);
        assert_eq!(spans[1].request, Some(3));
        assert!(spans.iter().all(|s| s.end >= s.start));
        let totals = tr.totals();
        let outer = &totals["outer.run"];
        assert_eq!(outer.count, 2);
        let covered = spans[1].seconds() + spans[2].seconds();
        assert!((outer.total_s - outer.self_s - covered).abs() < 1e-12);
        assert!(outer.self_s >= 0.002);
        assert!(
            (totals["inner.b"].self_s - (spans[2].seconds() - spans[3].seconds())).abs() < 1e-12
        );
        assert_eq!(tr.durations("inner.a").len(), 1);
    }

    #[test]
    fn chrome_json_carries_parent_and_request() {
        let mut tr = Tracer::new(true);
        tr.time("serve.request", Some(9), |tr| {
            tr.time("serve.drain", Some(9), |_| ())
        });
        let doc = tr.to_chrome_json();
        assert!(doc.starts_with("{\"traceEvents\":["));
        assert!(doc.contains("\"name\":\"serve.drain\""));
        assert!(doc.contains("\"parent\":0"));
        assert!(doc.contains("\"request\":9"));
    }
}
