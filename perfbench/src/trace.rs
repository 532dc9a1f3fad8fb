//! The benchmark's own spans: recorded around each call it makes into
//! a layer's public functions, kept in memory, and written out once at
//! the end of a traced run. A layer's self time is its spans' duration
//! minus the part of that interval its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// The layers a span can be charged to, in report order. `bench` is
/// the harness itself (phase roots, generators, audits).
pub const LAYERS: [&str; 9] = [
    "bench",
    "cli",
    "vpd-scenario",
    "vpd-serve",
    "vpd-core",
    "vpd-circuit",
    "vpd-numeric",
    "vpd-report",
    "vpd-obs",
];

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// What was called.
    pub name: String,
    /// Which of [`LAYERS`] the call belongs to.
    pub layer: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
}

/// In-memory span recorder. When off, every method still runs the
/// timed call but records nothing.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder that keeps spans only when `on`.
    #[must_use]
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Recorded spans, in start order of their `enter`/`record` calls.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span that later spans nest under until [`Tracer::exit`].
    pub fn enter(&mut self, layer: &'static str, name: &str) {
        if !self.on {
            return;
        }
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name: name.to_owned(),
            layer,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
        });
        self.stack.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let idx = self.stack.pop().expect("exit without enter");
        self.spans[idx].end_ns = self.ns(Instant::now());
    }

    /// Times one call into `layer`, records it under the open span,
    /// and returns the call's result with its duration.
    pub fn time<T>(
        &mut self,
        layer: &'static str,
        name: &str,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        let end = Instant::now();
        self.record(layer, name, start, end);
        (out, end - start)
    }

    /// Records an interval measured elsewhere (another thread, a child
    /// process) under the open span.
    pub fn record(&mut self, layer: &'static str, name: &str, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let span = Span {
            name: name.to_owned(),
            layer,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.stack.last().copied(),
        };
        self.spans.push(span);
    }

    /// Self time per layer in milliseconds: each span's duration minus
    /// the union of its children's intervals inside it.
    #[must_use]
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, f64> = LAYERS.iter().map(|&l| (l, 0.0)).collect();
        for (s, kids) in self.spans.iter().zip(children.iter_mut()) {
            kids.sort_unstable();
            let (mut covered, mut cur) = (0u64, None::<(u64, u64)>);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                if b <= a {
                    continue;
                }
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered);
            *out.entry(s.layer).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    /// The spans as NDJSON, one object per line.
    #[must_use]
    pub fn to_ndjson(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"parent\":{parent},\"layer\":\"{}\",\"name\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.layer,
                vpd_report::Json::from(s.name.as_str()),
                s.start_ns,
                s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new(true);
        let e = t.epoch;
        let at = |ms: u64| e + Duration::from_millis(ms);
        t.spans.push(Span {
            name: "root".into(),
            layer: "bench",
            start_ns: 0,
            end_ns: 10_000_000,
            parent: None,
        });
        t.stack.push(0);
        // Two overlapping children cover 2..7 ms of the root.
        t.record("vpd-serve", "a", at(2), at(6));
        t.record("vpd-serve", "b", at(4), at(7));
        let s = t.self_ms();
        assert!((s["bench"] - 5.0).abs() < 1e-9, "{s:?}");
        assert!((s["vpd-serve"] - 7.0).abs() < 1e-9, "{s:?}");
    }
}
