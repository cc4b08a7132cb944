//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name, an op id, a parent, start and end times and a work
//! count. Gauges are per-op observations a span cannot carry (chunk
//! counts, resident bytes, per-session frame times). With tracing off
//! every call is a plain pass-through: no clock reads, no allocation.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work the call did (events, bytes), 0 when not counted.
    pub count: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

#[derive(Clone)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    op: u64,
    stack: Vec<usize>,
    pub spans: Vec<Span>,
    pub gauges: BTreeMap<&'static str, Vec<f64>>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            op: 0,
            stack: Vec::new(),
            spans: Vec::new(),
            gauges: BTreeMap::new(),
        }
    }

    /// Turn recording on or off for later calls.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Ids of later spans belong to op `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`; `count` reads the work done
    /// off the result.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> T,
        count: impl FnOnce(&T) -> u64,
    ) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
            count: 0,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.count = count(&out);
        out
    }

    /// [`Self::span`] without a work count.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.span(name, f, |_| 0)
    }

    pub fn gauge(&mut self, name: &'static str, value: f64) {
        if self.on {
            self.gauges.entry(name).or_default().push(value);
        }
    }

    /// Fold another thread's spans and gauges into this tracer.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
        for (k, v) in other.gauges {
            self.gauges.entry(k).or_default().extend(v);
        }
    }

    /// Durations (ms) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Total count over total seconds of every span called `name`.
    pub fn rate(&self, name: &str) -> f64 {
        let (count, ns) = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0u64, 0u64), |(c, t), s| {
                (c + s.count, t + (s.end_ns - s.start_ns))
            });
        if ns == 0 {
            0.0
        } else {
            count as f64 / (ns as f64 / 1e9)
        }
    }

    /// Median of the gauge `name`, 0 when never observed.
    pub fn gauge_median(&self, name: &str) -> f64 {
        self.gauges.get(name).map_or(0.0, |v| median(v))
    }

    /// Self time per span name (ms): each span's duration minus the
    /// part its children cover, summed by name.
    pub fn self_ms_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(c);
            *out.entry(s.name).or_default() += own as f64 / 1e6;
        }
        out
    }

    /// The spans as a JSON array, one object per line.
    pub fn spans_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"count\": {}}}",
                s.name, s.op, s.start_ns, s.end_ns, s.count
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push(']');
        out
    }
}

/// Median of `values` (mean of the middle pair for even counts), 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0..=1) of `values`, 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}
