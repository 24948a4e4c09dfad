//! What a run measured, and the one JSON line it ends with.
//!
//! Every workload has two classes of timed update and a read class, and
//! every workload reports every metric, so the metrics are named by class:
//! `welded_or_epoch` is a welded quantification on `quantify` and a table
//! epoch on `live` and `serve`; `decomposed_or_knowledge` is a decomposed
//! quantification on `quantify` and a knowledge step on the others.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::checks::Worst;
use crate::trace::{LayerTable, Samples, Span};

/// Attempted and failed counts of one kind of operation.
#[derive(Debug, Default, Clone, Copy)]
pub struct OpCount {
    pub attempted: u64,
    pub failed: u64,
}

/// Everything one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Per kind of operation, in a fixed order.
    pub ops: Vec<(&'static str, OpCount)>,
    /// The first failed output check, if any.
    pub check: Option<String>,
    /// Worst errors the passing checks saw.
    pub worst: Worst,
    /// Set-up repetitions, seconds.
    pub setup_s: Samples,
    /// Welded quantifications or table epochs, milliseconds.
    pub welded_or_epoch_ms: Samples,
    /// Decomposed quantifications or knowledge steps, milliseconds.
    pub decomposed_or_knowledge_ms: Samples,
    /// The update samples split by table, where a workload quantifies
    /// several: their p50 is the geometric mean of the per-table medians,
    /// so no table's share of the samples moves it.
    pub welded_or_epoch_tables: Vec<Samples>,
    pub decomposed_or_knowledge_tables: Vec<Samples>,
    /// One 256-query batch answered, microseconds.
    pub query_us: Samples,
    /// Queries answered per second: the median over read phases of each
    /// phase's rate.
    pub query_qps: f64,
    /// Peak resident memory at the end of the measured phase, before the
    /// final checks, in MiB.
    pub peak_rss_mb: f64,
    /// Per-layer figures taken from the stats the calls return, by metric
    /// name.
    pub stats: BTreeMap<&'static str, Samples>,
    /// Spans of every thread (traced runs only).
    pub spans: Vec<Span>,
}

impl Outcome {
    pub fn op(&mut self, kind: &'static str) -> &mut OpCount {
        if let Some(i) = self.ops.iter().position(|(k, _)| *k == kind) {
            return &mut self.ops[i].1;
        }
        self.ops.push((kind, OpCount::default()));
        &mut self.ops.last_mut().expect("just pushed").1
    }

    pub fn stat(&mut self, name: &'static str, v: f64) {
        self.stats.entry(name).or_default().push(v);
    }

    /// Records the first failed check; later ones add nothing new.
    pub fn fail_check(&mut self, what: impl Into<String>) {
        if self.check.is_none() {
            self.check = Some(what.into());
        }
    }

    pub fn checked(&mut self, r: Result<impl Sized, String>) {
        if let Err(e) = r {
            self.fail_check(e);
        }
    }

    /// A refreshed-estimate check: failures as `checked`, worst errors kept.
    pub fn checked_estimate(&mut self, r: Result<Worst, String>) {
        match r {
            Ok(w) => self.worst = self.worst.max(w),
            Err(e) => self.fail_check(e),
        }
    }
}

/// Where a per-layer metric comes from.
enum Src {
    /// Median duration of the spans of this call, scaled from µs; with a
    /// class, only the spans of that class's operations.
    Span(&'static str, Option<&'static str>, f64),
    /// Median of the samples the workload recorded under the metric's name.
    Stat,
    /// Sum of one recorded series over the sum of another.
    Ratio(&'static str, &'static str),
    /// A tail percentile of an end-to-end series.
    Tail(fn(&Outcome) -> &Samples, f64),
}

const MS: f64 = 1e-3;
const US: f64 = 1.0;

/// The per-layer metrics: name, unit, better, source. `BENCHMARK.json`
/// lists the same names (a test keeps the two in step).
const PER_LAYER: &[(&str, &str, &str, Src)] = &[
    (
        "compile.build_ms",
        "ms",
        "lower",
        Src::Span("compile.build", None, MS),
    ),
    ("compile.terms", "count", "lower", Src::Stat),
    ("compile.invariant_rows", "count", "lower", Src::Stat),
    ("compile.components", "count", "higher", Src::Stat),
    (
        "persist.save_ms",
        "ms",
        "lower",
        Src::Span("persist.save", None, MS),
    ),
    (
        "persist.load_ms",
        "ms",
        "lower",
        Src::Span("persist.load", None, MS),
    ),
    (
        "persist.wal_append_us",
        "us",
        "lower",
        Src::Span("persist.wal_append", None, US),
    ),
    (
        "persist.recover_ms",
        "ms",
        "lower",
        Src::Span("persist.recover", None, MS),
    ),
    (
        "delta.apply_us",
        "us",
        "lower",
        Src::Span("delta.apply", None, US),
    ),
    (
        "rebase.us",
        "us",
        "lower",
        Src::Span("analyst.rebase", None, US),
    ),
    ("rebase.recompiled", "count", "lower", Src::Stat),
    ("rebase.changed", "count", "lower", Src::Stat),
    ("rebase.carried", "count", "higher", Src::Stat),
    (
        "analyst.open_us",
        "us",
        "lower",
        Src::Span("analyst.open", None, US),
    ),
    (
        "welded_or_epoch.analyst.add_batch_ms",
        "ms",
        "lower",
        Src::Span("analyst.add_batch", Some("welded_or_epoch"), MS),
    ),
    (
        "decomposed_or_knowledge.analyst.add_batch_ms",
        "ms",
        "lower",
        Src::Span("analyst.add_batch", Some("decomposed_or_knowledge"), MS),
    ),
    (
        "analyst.add_us",
        "us",
        "lower",
        Src::Span("analyst.add", None, US),
    ),
    (
        "analyst.remove_us",
        "us",
        "lower",
        Src::Span("analyst.remove", None, US),
    ),
    (
        "analyst.report_us",
        "us",
        "lower",
        Src::Span("analyst.report", None, US),
    ),
    (
        "welded_or_epoch.refresh.solver_ms",
        "ms",
        "lower",
        Src::Stat,
    ),
    ("welded_or_epoch.refresh.other_ms", "ms", "lower", Src::Stat),
    (
        "welded_or_epoch.solver.iterations",
        "count",
        "lower",
        Src::Stat,
    ),
    (
        "welded_or_epoch.solver.max_residual",
        "records",
        "lower",
        Src::Stat,
    ),
    (
        "welded_or_epoch.refresh.components",
        "count",
        "higher",
        Src::Stat,
    ),
    (
        "welded_or_epoch.refresh.resolved",
        "count",
        "lower",
        Src::Stat,
    ),
    (
        "welded_or_epoch.refresh.closed_form",
        "count",
        "lower",
        Src::Stat,
    ),
    (
        "welded_or_epoch.refresh.reused",
        "count",
        "higher",
        Src::Stat,
    ),
    (
        "welded_or_epoch.refresh.resolved_share",
        "ratio",
        "lower",
        Src::Ratio(
            "welded_or_epoch.refresh.resolved",
            "welded_or_epoch.refresh.components",
        ),
    ),
    (
        "decomposed_or_knowledge.refresh.solver_ms",
        "ms",
        "lower",
        Src::Stat,
    ),
    (
        "decomposed_or_knowledge.refresh.other_ms",
        "ms",
        "lower",
        Src::Stat,
    ),
    (
        "decomposed_or_knowledge.solver.iterations",
        "count",
        "lower",
        Src::Stat,
    ),
    (
        "decomposed_or_knowledge.solver.max_residual",
        "records",
        "lower",
        Src::Stat,
    ),
    (
        "decomposed_or_knowledge.refresh.components",
        "count",
        "higher",
        Src::Stat,
    ),
    (
        "decomposed_or_knowledge.refresh.resolved",
        "count",
        "lower",
        Src::Stat,
    ),
    (
        "decomposed_or_knowledge.refresh.closed_form",
        "count",
        "lower",
        Src::Stat,
    ),
    (
        "decomposed_or_knowledge.refresh.reused",
        "count",
        "higher",
        Src::Stat,
    ),
    (
        "decomposed_or_knowledge.refresh.resolved_share",
        "ratio",
        "lower",
        Src::Ratio(
            "decomposed_or_knowledge.refresh.resolved",
            "decomposed_or_knowledge.refresh.components",
        ),
    ),
    (
        "estimate.batch_us",
        "us",
        "lower",
        Src::Span("estimate.batch", None, US),
    ),
    (
        "registry.dispatch_us",
        "us",
        "lower",
        Src::Span("registry.dispatch", None, US),
    ),
    (
        "protocol.encode_request_us",
        "us",
        "lower",
        Src::Span("protocol.encode_request", None, US),
    ),
    (
        "protocol.decode_request_us",
        "us",
        "lower",
        Src::Span("protocol.decode_request", None, US),
    ),
    (
        "protocol.encode_response_us",
        "us",
        "lower",
        Src::Span("protocol.encode_response", None, US),
    ),
    (
        "protocol.decode_response_us",
        "us",
        "lower",
        Src::Span("protocol.decode_response", None, US),
    ),
    ("transport_us", "us", "lower", Src::Stat),
    (
        "welded_or_epoch_tail_ms",
        "ms",
        "lower",
        Src::Tail(|o| &o.welded_or_epoch_ms, 0.9),
    ),
    (
        "decomposed_or_knowledge_tail_ms",
        "ms",
        "lower",
        Src::Tail(|o| &o.decomposed_or_knowledge_ms, 0.9),
    ),
    (
        "query_tail_us",
        "us",
        "lower",
        Src::Tail(|o| &o.query_us, 0.99),
    ),
];

/// Names of the per-layer metrics, in output order.
#[cfg(test)]
pub fn per_layer_names() -> Vec<(&'static str, &'static str, &'static str)> {
    PER_LAYER.iter().map(|(n, u, b, _)| (*n, *u, *b)).collect()
}

/// The percentile `p`, or — when fewer than ten samples lie beyond it —
/// the highest percentile that has ten beyond it; 0 below forty samples,
/// where no percentile is a tail.
fn tail(s: &Samples, p: f64) -> f64 {
    let n = s.len() as f64;
    if n < 40.0 {
        return 0.0;
    }
    s.quantile(p.min(1.0 - 10.0 / n))
}

/// The process's peak resident memory so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `nproc`, CPU model and kernel, printed with every run.
pub fn host_fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|m| m.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |k| k.trim().to_string());
    format!("host nproc={nproc} cpu=\"{cpu}\" kernel={kernel}")
}

fn metric(out: &mut String, name: &str, value: f64, unit: &str) {
    if !out.ends_with('{') {
        out.push_str(", ");
    }
    let value = if value.is_finite() { value } else { 0.0 };
    let _ = write!(
        out,
        "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
    );
}

fn p50(pooled: &Samples, tables: &[Samples]) -> f64 {
    if tables.is_empty() {
        return pooled.median();
    }
    let logs: f64 = tables.iter().map(|s| s.median().ln()).sum();
    (logs / tables.len() as f64).exp()
}

/// The end-to-end metrics as `(name, value, unit)`.
pub fn end_to_end(o: &Outcome) -> Vec<(&'static str, f64, &'static str)> {
    vec![
        ("setup_s", o.setup_s.median(), "s"),
        ("peak_rss_mb", o.peak_rss_mb, "MiB"),
        (
            "welded_or_epoch_p50_ms",
            p50(&o.welded_or_epoch_ms, &o.welded_or_epoch_tables),
            "ms",
        ),
        (
            "decomposed_or_knowledge_p50_ms",
            p50(
                &o.decomposed_or_knowledge_ms,
                &o.decomposed_or_knowledge_tables,
            ),
            "ms",
        ),
        ("query_p50_us", o.query_us.median(), "us"),
        ("query_qps", o.query_qps, "queries/s"),
    ]
}

/// Prints the human-readable lines, then the result as the last line.
pub fn print(o: &Outcome, traced: bool) {
    let attempted: u64 = o.ops.iter().map(|(_, c)| c.attempted).sum();
    let failed: u64 = o.ops.iter().map(|(_, c)| c.failed).sum();
    for (kind, c) in &o.ops {
        println!(
            "ops {kind:<14} attempted={:<8} failed={}",
            c.attempted, c.failed
        );
    }
    println!(
        "samples welded_or_epoch={} decomposed_or_knowledge={} query={}",
        o.welded_or_epoch_ms.len(),
        o.decomposed_or_knowledge_ms.len(),
        o.query_us.len()
    );
    for (t, (h, l)) in o
        .welded_or_epoch_tables
        .iter()
        .zip(&o.decomposed_or_knowledge_tables)
        .enumerate()
    {
        println!(
            "table {t}: welded_or_epoch_p50_ms={:.3} decomposed_or_knowledge_p50_ms={:.3}",
            h.median(),
            l.median()
        );
    }
    println!(
        "worst check errors: invariants {:e} records, knowledge {:e} records ({:e} in probability)",
        o.worst.invariant_records, o.worst.knowledge_records, o.worst.knowledge_probability
    );
    if let Some(e) = &o.check {
        println!("CHECK FAILED: {e}");
    }
    let mut e2e = String::from("{");
    for (name, v, unit) in end_to_end(o) {
        metric(&mut e2e, name, v, unit);
    }
    e2e.push('}');
    let metrics = if traced {
        println!("traced-e2e {e2e}");
        let layers = LayerTable::fold(&o.spans);
        layers.print();
        let mut m = String::from("{");
        for (name, unit, _, src) in PER_LAYER {
            let v = match src {
                Src::Span(span, class, scale) => layers.median_us(span, *class) * scale,
                Src::Stat => o.stats.get(name).map_or(0.0, Samples::median),
                Src::Ratio(num, den) => {
                    let d = o.stats.get(den).map_or(0.0, Samples::sum);
                    if d > 0.0 {
                        o.stats.get(num).map_or(0.0, Samples::sum) / d
                    } else {
                        0.0
                    }
                }
                Src::Tail(series, p) => tail(series(o), *p),
            };
            metric(&mut m, name, v, unit);
        }
        m.push('}');
        m
    } else {
        e2e
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics}}}",
        o.check.is_none() && attempted > 0
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-layer and end-to-end names in BENCHMARK.json are exactly the
    /// ones a run prints.
    #[test]
    fn benchmark_json_lists_every_printed_metric() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits beside the benchmark's directory");
        let listed: Vec<&str> = json
            .split("\"name\": \"")
            .skip(1)
            .filter_map(|s| s.split('"').next())
            .collect();
        let mut printed: Vec<&str> = vec!["quantify", "live", "serve"];
        printed.extend(end_to_end(&Outcome::default()).iter().map(|(n, _, _)| *n));
        printed.extend(per_layer_names().iter().map(|(n, _, _)| *n));
        assert_eq!(listed, printed);
        for (name, unit, better) in per_layer_names() {
            let entry =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }
}
