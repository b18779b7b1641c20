//! In-memory span recorder for the traced run.
//!
//! The benchmark records a span around each call it makes into a layer:
//! name, start, end, parent span and request id. Spans stay in memory and
//! are written once, at exit. A span's self time is its duration minus
//! the time its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Index of a recorded span; [`NO_SPAN`] when tracing is off or a span
/// has no parent.
pub type SpanId = usize;

/// "No span".
pub const NO_SPAN: SpanId = usize::MAX;

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary the span wraps (`"backend"`, `"serve.submit"`, ...).
    pub name: &'static str,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
    /// Enclosing span, or [`NO_SPAN`].
    pub parent: SpanId,
    /// Request the span belongs to (call or job index).
    pub req: u64,
}

/// The recorder. When off, every method is a no-op returning
/// [`NO_SPAN`], so untraced runs pay only a branch.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

/// Per-layer totals of a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    /// Spans of this name.
    pub count: u64,
    /// Summed duration, seconds.
    pub total_s: f64,
    /// Summed self time (duration minus child coverage), seconds.
    pub self_s: f64,
}

impl Tracer {
    /// A recorder; `on == false` records nothing.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Nanoseconds of `t` since the recorder started.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished span between two instants.
    pub fn span(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: SpanId,
        req: u64,
    ) -> SpanId {
        if !self.on {
            return NO_SPAN;
        }
        let span = Span {
            name,
            start: self.ns(start),
            end: self.ns(end),
            parent,
            req,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Set the end of span `id` (recorded before its children, closed
    /// after them).
    pub fn close(&mut self, id: SpanId, end: Instant) {
        if id != NO_SPAN {
            self.spans[id].end = self.ns(end);
        }
    }

    /// Every recorded span, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name duration and self-time totals.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_SPAN {
                let p = self.spans[s.parent];
                let lo = s.start.max(p.start);
                let hi = s.end.min(p.end);
                covered[s.parent] += hi.saturating_sub(lo);
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, cov) in self.spans.iter().zip(&covered) {
            let dur = s.end.saturating_sub(s.start);
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_s += dur as f64 * 1e-9;
            e.self_s += dur.saturating_sub(*cov) as f64 * 1e-9;
        }
        out
    }

    /// Self time of each span named `name` as a share of its duration —
    /// the part of a call no child span accounts for.
    pub fn unattributed_shares(&self, name: &str) -> Vec<f64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_SPAN {
                covered[s.parent] += s.end.saturating_sub(s.start);
            }
        }
        self.spans
            .iter()
            .zip(&covered)
            .filter(|(s, _)| s.name == name && s.end > s.start)
            .map(|(s, cov)| {
                let dur = s.end - s.start;
                dur.saturating_sub(*cov) as f64 / dur as f64
            })
            .collect()
    }

    /// Write `header` then up to `limit` spans as JSON lines.
    pub fn write_jsonl(
        &self,
        path: &std::path::Path,
        header: &str,
        limit: usize,
    ) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "{header}")?;
        for (i, s) in self.spans.iter().take(limit).enumerate() {
            let parent = if s.parent == NO_SPAN {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start, s.end, s.req
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_child_coverage() {
        let mut t = Tracer::new(true);
        let t0 = t.epoch;
        let at = |us: u64| t0 + Duration::from_micros(us);
        let call = t.span("call", at(0), at(100), NO_SPAN, 7);
        t.span("predictor", at(1), at(21), call, 7);
        t.span("backend", at(22), at(98), call, 7);
        let st = t.self_times();
        assert_eq!(st["call"].count, 1);
        assert!((st["call"].self_s - 4e-6).abs() < 1e-12);
        assert!((st["backend"].self_s - 76e-6).abs() < 1e-12);
        let un = t.unattributed_shares("call");
        assert!((un[0] - 0.04).abs() < 1e-12);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        let now = Instant::now();
        assert_eq!(t.span("call", now, now, NO_SPAN, 0), NO_SPAN);
        assert!(t.spans().is_empty());
    }
}
