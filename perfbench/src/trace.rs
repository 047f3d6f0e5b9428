//! In-memory spans around every library call the benchmark makes.
//!
//! Every timed call goes through [`Tracer::time`], which always returns
//! the call's wall time (the untraced runs need it for the end-to-end
//! metrics) and, when tracing is on, also keeps a span: name, start,
//! end, enclosing span and request id. Spans stay in memory until
//! [`Tracer::write_jsonl`] runs at the end of the benchmark.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified call name, e.g. `core.sensitivity`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request (or pipeline repetition) the call served; 0 for calls
    /// shared by many requests, such as a batched step.
    pub req: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder. With `enabled == false` it only measures.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that keeps spans only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns span keeping on or off (for the untraced half of a traced run).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    fn since_origin(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f`, returning its result and wall time; keeps a span when
    /// tracing is on.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        if self.enabled {
            let span = Span {
                name,
                start_ns: self.since_origin(t0),
                end_ns: self.since_origin(t1),
                parent: self.open.last().copied(),
                req,
            };
            self.spans.push(span);
        }
        (out, t1 - t0)
    }

    /// Opens an enclosing span; spans recorded until the matching
    /// [`Tracer::close`] become its children.
    pub fn open(&mut self, name: &'static str, req: u64) {
        if self.enabled {
            let start_ns = self.since_origin(Instant::now());
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: self.open.last().copied(),
                req,
            });
            self.open.push(self.spans.len() - 1);
        }
    }

    /// Closes the innermost span opened with [`Tracer::open`].
    pub fn close(&mut self) {
        if self.enabled {
            if let Some(i) = self.open.pop() {
                self.spans[i].end_ns = self.since_origin(Instant::now());
            }
        }
    }

    /// Durations in milliseconds of every kept span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Per span name: number of spans and total self time in
    /// milliseconds (duration minus the time covered by child spans).
    pub fn self_times(&self) -> BTreeMap<&'static str, (usize, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64)> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&child_ns) {
            let e = out.entry(s.name).or_insert((0, 0.0));
            e.0 += 1;
            e.1 += s.duration_ns().saturating_sub(*c) as f64 / 1e6;
        }
        out
    }

    /// Writes every span as one JSON object per line, followed by one
    /// line per span name with its count and total self time.
    pub fn write_jsonl(&self, path: &std::path::Path) -> Result<(), String> {
        let mut text = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req
            );
        }
        for (name, (count, self_ms)) in self.self_times() {
            let _ = writeln!(
                text,
                "{{\"self_time\":\"{name}\",\"count\":{count},\"self_ms\":{self_ms}}}"
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        }
        std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut tr = Tracer::new(true);
        tr.open("outer", 1);
        tr.time("inner", 1, || std::thread::sleep(Duration::from_millis(2)));
        tr.close();
        let st = tr.self_times();
        let outer_total = tr.durations_ms("outer")[0];
        let inner_total = tr.durations_ms("inner")[0];
        assert!(inner_total >= 2.0);
        assert!((st["outer"].1 - (outer_total - inner_total)).abs() < 1e-6);
        assert_eq!(tr.spans[1].parent, Some(0));
    }

    #[test]
    fn disabled_tracer_only_measures() {
        let mut tr = Tracer::new(false);
        tr.open("outer", 1);
        let (v, dt) = tr.time("inner", 1, || 7);
        tr.close();
        assert_eq!(v, 7);
        assert!(dt >= Duration::ZERO);
        assert!(tr.spans.is_empty());
    }
}
