//! Spans recorded around the benchmark's calls into each layer.
//!
//! The program under test is not instrumented: every span here wraps
//! one public call made from the benchmark's own code. Spans are kept in
//! memory and written as JSONL (`id`, `parent`, `name`, `start_ns`,
//! `end_ns`, optional numeric `attrs`) when the run ends. A disabled
//! tracer records nothing and only calls the wrapped closure.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub attrs: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span recorder shared by every thread of a run.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` under `parent`. `f` gets the
    /// new span's id (0 when disabled) so it can open children.
    pub fn span<T>(&self, name: &'static str, parent: Option<u64>, f: impl FnOnce(u64) -> T) -> T {
        self.span_with(name, parent, |id| (f(id), Vec::new()))
    }

    /// [`Tracer::span`] whose closure also returns numeric attributes
    /// (counts measured at the same boundary) to store on the span.
    pub fn span_with<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        f: impl FnOnce(u64) -> (T, Vec<(&'static str, f64)>),
    ) -> T {
        if !self.enabled {
            return f(0).0;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let (out, attrs) = f(id);
        let end_ns = self.now_ns();
        self.spans
            .lock()
            .expect("span list lock poisoned by a panicking span")
            .push(Span {
                id,
                parent,
                name,
                start_ns,
                end_ns,
                attrs,
            });
        out
    }

    /// Every span recorded so far, ordered by id.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("span list lock poisoned by a panicking span")
            .clone();
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Renders spans as JSONL, one object per line.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}",
            s.id, parent, s.name, s.start_ns, s.end_ns
        );
        if !s.attrs.is_empty() {
            let attrs: Vec<String> = s
                .attrs
                .iter()
                .map(|(k, v)| format!("\"{k}\":{v}"))
                .collect();
            let _ = write!(out, ",\"attrs\":{{{}}}", attrs.join(","));
        }
        out.push_str("}\n");
    }
    out
}

/// Durations (µs) of every span named `name`.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect()
}

/// Values of attribute `attr` on every span named `name`.
pub fn attr_values(spans: &[Span], name: &str, attr: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .filter_map(|s| s.attrs.iter().find(|(k, _)| *k == attr).map(|(_, v)| *v))
        .collect()
}

/// Self time (ns) of each span: its duration minus the part of it that
/// its direct children cover. Children of one parent never overlap in
/// this benchmark (they are sequential calls), so a plain sum is exact.
pub fn self_times_ns(spans: &[Span]) -> Vec<(u64, &'static str, i64)> {
    spans
        .iter()
        .map(|s| {
            let children: u64 = spans
                .iter()
                .filter(|c| c.parent == Some(s.id))
                .map(Span::duration_ns)
                .sum();
            (s.id, s.name, s.duration_ns() as i64 - children as i64)
        })
        .collect()
}

/// Explains the last traced `root` span by the self times of its
/// direct children, against the untraced wall time, and names the
/// largest layer.
pub fn account(spans: &[Span], root: &str, untraced_wall: f64) -> Vec<String> {
    let selfs = self_times_ns(spans);
    let roots: Vec<&Span> = spans.iter().filter(|s| s.name == root).collect();
    let Some(last) = roots.last() else {
        return Vec::new();
    };
    let mut parts: Vec<(&str, f64)> = selfs
        .iter()
        .filter(|(id, _, _)| {
            spans
                .iter()
                .any(|s| s.id == *id && s.parent == Some(last.id))
        })
        .map(|(_, name, ns)| (*name, *ns as f64 / 1e9))
        .collect();
    let covered: f64 = parts.iter().map(|(_, s)| s).sum();
    let total = last.duration_ns() as f64 / 1e9;
    parts.sort_by(|a, b| b.1.total_cmp(&a.1));
    let breakdown: Vec<String> = parts
        .iter()
        .map(|(n, s)| format!("{n} {:.3}s ({:.0}%)", s, 100.0 * s / total))
        .collect();
    let mut notes = vec![format!(
        "account {root}: traced {total:.3}s = timed calls {covered:.3}s + between calls {:.3}s; \
         untraced wall_s {untraced_wall:.3}s; calls/untraced = {:.3}",
        total - covered,
        covered / untraced_wall
    )];
    notes.push(format!(
        "account {root} by self time: {}",
        breakdown.join(", ")
    ));
    if let Some((name, _)) = parts.first() {
        notes.push(format!("largest layer on {root}: {name}"));
    }
    notes
}

/// A trace that contradicts itself: a derived layer time came out
/// negative, so the parts were not measured on the same work.
#[derive(Debug, Clone, PartialEq)]
pub struct BadTrace {
    pub metric: &'static str,
    pub value: f64,
}

impl std::fmt::Display for BadTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "bad trace: {} derived as {:.3}, below zero",
            self.metric, self.value
        )
    }
}

/// `whole − Σ parts` for a layer timed only as the remainder of a call
/// (`pipeline.compile_ms`, `store.payload_ms`). A negative remainder is
/// reported as a bad trace, never clamped to zero.
pub fn remainder(metric: &'static str, whole: f64, parts: &[f64]) -> Result<f64, BadTrace> {
    let value = whole - parts.iter().sum::<f64>();
    if value < 0.0 {
        Err(BadTrace { metric, value })
    } else {
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remainder_subtracts_parts() {
        assert_eq!(
            remainder("pipeline.compile_ms", 10.0, &[2.0, 3.0, 1.0]),
            Ok(4.0)
        );
        assert_eq!(remainder("store.payload_ms", 5.0, &[5.0]), Ok(0.0));
    }

    #[test]
    fn negative_remainder_is_a_bad_trace_not_zero() {
        let err = remainder("pipeline.compile_ms", 5.0, &[3.0, 4.0]).unwrap_err();
        assert_eq!(err.metric, "pipeline.compile_ms");
        assert_eq!(err.value, -2.0);
        assert!(err.to_string().contains("bad trace"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let v = t.span("outer", None, |id| {
            assert_eq!(id, 0);
            7
        });
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let t = Tracer::new(true);
        t.span("outer", None, |outer| {
            t.span("inner", Some(outer), |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            std::thread::sleep(std::time::Duration::from_millis(5));
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        let selfs = self_times_ns(&spans);
        let outer_self = selfs.iter().find(|(id, _, _)| *id == outer.id).unwrap().2;
        assert_eq!(
            outer_self,
            outer.duration_ns() as i64 - inner.duration_ns() as i64
        );
        let jsonl = to_jsonl(&spans);
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.contains("\"name\":\"inner\""));
    }
}
