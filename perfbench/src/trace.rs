//! Spans recorded around the benchmark's calls into each layer, and the
//! sample statistics every metric is computed with.
//!
//! A [`Trace`] belongs to one thread. With tracing off every method is a
//! no-op, so untraced runs pay one branch per call site. With tracing on a
//! span is pushed on `begin` and closed on `end`; its parent is the span
//! open below it on the same thread, and every span carries the id of the
//! operation (one quantification, one epoch step, one frame …) it served.
//! Spans stay in memory until the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within the run (thread index in the high bits).
    pub id: u64,
    /// Enclosing span on the same thread, 0 for a root.
    pub parent: u64,
    /// Operation the span belongs to, 0 for set-up work.
    pub op: u64,
    /// Class of that operation (`welded_or_epoch`, `read`, `setup`, …).
    pub class: &'static str,
    /// Layer call, e.g. `analyst.refresh`.
    pub name: &'static str,
    /// Nanoseconds since the run's origin.
    pub start: u64,
    /// Nanoseconds since the run's origin.
    pub end: u64,
}

/// Per-thread span recorder.
pub struct Trace {
    on: bool,
    origin: Instant,
    next_id: u64,
    op: u64,
    class: &'static str,
    open: Vec<Span>,
    closed: Vec<Span>,
}

impl Trace {
    /// A recorder for thread `thread` of a run that started at `origin`.
    pub fn new(on: bool, origin: Instant, thread: u64) -> Self {
        Self {
            on,
            origin,
            next_id: (thread << 48) | 1,
            op: 0,
            class: "setup",
            open: Vec::new(),
            closed: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Sets the operation id and class later spans carry.
    pub fn set_op(&mut self, op: u64, class: &'static str) {
        self.op = op;
        self.class = class;
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn begin(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let parent = self.open.last().map_or(0, |s| s.id);
        let id = self.next_id;
        self.next_id += 1;
        let start = self.now();
        self.open.push(Span {
            id,
            parent,
            op: self.op,
            class: self.class,
            name,
            start,
            end: start,
        });
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let mut span = self.open.pop().expect("end() matches a begin()");
        span.end = self.now();
        self.closed.push(span);
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.begin(name);
        let r = f();
        self.end();
        r
    }

    /// Records an already measured interval as a closed child of the
    /// innermost open span (used for the solver time a refresh reports).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let parent = self.open.last().map_or(0, |s| s.id);
        let id = self.next_id;
        self.next_id += 1;
        let at = |t: Instant| u64::try_from(t.duration_since(self.origin).as_nanos()).unwrap_or(0);
        self.closed.push(Span {
            id,
            parent,
            op: self.op,
            class: self.class,
            name,
            start: at(start),
            end: at(end),
        });
    }

    /// The closed spans, consuming the recorder.
    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "every span was closed");
        self.closed
    }
}

/// Median, quartiles and percentiles over a set of samples.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn values(&self) -> &[f64] {
        &self.0
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    /// Linear-interpolated quantile `p` in `[0, 1]`; 0 with no samples.
    pub fn quantile(&self, p: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let pos = p * (v.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }
}

/// Per-layer figures folded from the spans of all threads.
#[derive(Debug, Default)]
pub struct LayerTable {
    /// Per span name: every duration (µs) and the summed self time (µs).
    pub layers: BTreeMap<&'static str, (Samples, f64)>,
    /// Per (span name, operation class): every duration (µs).
    pub by_class: BTreeMap<(&'static str, &'static str), Samples>,
}

impl LayerTable {
    /// Folds `spans`: a span's self time is its duration minus the part of
    /// it its child spans cover.
    pub fn fold(spans: &[Span]) -> Self {
        let mut child_time: BTreeMap<u64, u64> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.parent != 0) {
            *child_time.entry(s.parent).or_default() += s.end - s.start;
        }
        let mut table = Self::default();
        for s in spans {
            let dur = (s.end - s.start) as f64 / 1e3;
            let children = *child_time.get(&s.id).unwrap_or(&0) as f64 / 1e3;
            let entry = table.layers.entry(s.name).or_default();
            entry.0.push(dur);
            entry.1 += (dur - children).max(0.0);
            table
                .by_class
                .entry((s.name, s.class))
                .or_default()
                .push(dur);
        }
        table
    }

    /// Median duration of the spans named `name`, in µs, over the
    /// operations of `class` or of all classes (0 if none ran).
    pub fn median_us(&self, name: &'static str, class: Option<&'static str>) -> f64 {
        match class {
            Some(c) => self.by_class.get(&(name, c)).map_or(0.0, Samples::median),
            None => self.layers.get(name).map_or(0.0, |(s, _)| s.median()),
        }
    }

    /// Prints one line per layer: count, total, self time and median.
    pub fn print(&self) {
        println!(
            "{:<34} {:>8} {:>12} {:>12} {:>12}",
            "layer", "count", "total_ms", "self_ms", "median_us"
        );
        for (name, (s, self_us)) in &self.layers {
            println!(
                "{:<34} {:>8} {:>12.3} {:>12.3} {:>12.3}",
                name,
                s.len(),
                s.sum() / 1e3,
                self_us / 1e3,
                s.median()
            );
        }
    }
}

/// Writes every span as one tab-separated line.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "op\tclass\tid\tparent\tname\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.op, s.class, s.id, s.parent, s.name, s.start, s.end
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut s = Samples::default();
        for v in 1..=100 {
            s.push(f64::from(v));
        }
        assert_eq!(s.median(), 50.5);
        assert_eq!(s.quantile(0.0), 1.0);
        assert!((s.quantile(0.9) - 90.1).abs() < 1e-9);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Trace::new(true, Instant::now(), 1);
        t.begin("outer");
        t.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end();
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, outer.id);
        let table = LayerTable::fold(&spans);
        let (_, outer_self) = &table.layers["outer"];
        assert!(*outer_self < table.median_us("outer", None));
    }
}
