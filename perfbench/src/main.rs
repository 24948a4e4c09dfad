//! The repository's benchmark: one workload per run, end to end or layer
//! by layer.
//!
//! ```text
//! perfbench --workload quantify|live|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object: whether every
//! output check passed, how many operations were attempted and failed, and
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). See `README.md` beside this crate.

mod checks;
mod inputs;
mod live;
mod quantify;
mod report;
mod serve;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use privacy_maxent::engine::Estimate;
use privacy_maxent::{CompiledTable, EngineConfig, RefreshStats};

use crate::report::Outcome;
use crate::trace::Trace;

/// What every workload is given.
pub struct Ctx {
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    pub origin: Instant,
}

/// Engine threads, connections and server workers: one per core this
/// process may run on.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The engine configuration every workload compiles with: the defaults,
/// on one thread per core.
pub fn engine_config() -> EngineConfig {
    EngineConfig::builder().threads(threads()).build()
}

/// Records the compile statistics of a freshly built artifact.
pub fn record_compile(out: &mut Outcome, artifact: &CompiledTable) {
    let s = artifact.stats();
    out.stat("compile.terms", s.terms as f64);
    out.stat("compile.invariant_rows", s.invariant_rows as f64);
    out.stat("compile.components", s.components as f64);
}

/// Records what one refresh reports under `class`. Its solver time is the
/// per-component solve times summed over threads; the solver's share of
/// the wall is taken as its critical path, the larger of that sum spread
/// over the engine threads and the longest single solve.
pub fn record_refresh(
    tr: &mut Trace,
    out: &mut Outcome,
    class: &'static str,
    stats: &RefreshStats,
    est: &Estimate,
    skip: bool,
) {
    let longest = est
        .stats
        .component_stats
        .iter()
        .map(|s| s.elapsed)
        .max()
        .unwrap_or_default();
    let solver_wall = (stats.solver / threads() as u32)
        .max(longest)
        .min(stats.wall);
    let now = Instant::now();
    tr.record("refresh.solver", now - solver_wall, now);
    if skip {
        return;
    }
    let names = if class == "welded_or_epoch" {
        [
            "welded_or_epoch.refresh.solver_ms",
            "welded_or_epoch.refresh.other_ms",
            "welded_or_epoch.solver.iterations",
            "welded_or_epoch.solver.max_residual",
            "welded_or_epoch.refresh.components",
            "welded_or_epoch.refresh.resolved",
            "welded_or_epoch.refresh.closed_form",
            "welded_or_epoch.refresh.reused",
        ]
    } else {
        [
            "decomposed_or_knowledge.refresh.solver_ms",
            "decomposed_or_knowledge.refresh.other_ms",
            "decomposed_or_knowledge.solver.iterations",
            "decomposed_or_knowledge.solver.max_residual",
            "decomposed_or_knowledge.refresh.components",
            "decomposed_or_knowledge.refresh.resolved",
            "decomposed_or_knowledge.refresh.closed_form",
            "decomposed_or_knowledge.refresh.reused",
        ]
    };
    let residual = est
        .stats
        .component_stats
        .iter()
        .map(|s| s.final_residual)
        .fold(0.0, f64::max);
    let values = [
        stats.solver.as_secs_f64() * 1e3,
        (stats.wall - solver_wall).as_secs_f64() * 1e3,
        est.stats.total_iterations() as f64,
        residual,
        stats.components as f64,
        stats.resolved as f64,
        stats.closed_form as f64,
        stats.reused as f64,
    ];
    for (name, v) in names.into_iter().zip(values) {
        out.stat(name, v);
    }
}

fn usage() -> ExitCode {
    eprintln!("usage: perfbench --workload quantify|live|serve --seed N --seconds S --trace 0|1");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("mine") {
        let n = |i: usize| {
            args.get(i)
                .and_then(|v| v.parse().ok())
                .expect("mine SEED ARITY K")
        };
        inputs::mine_child(n(1) as u64, n(2), n(3));
        return ExitCode::SUCCESS;
    }
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    for pair in args.chunks(2) {
        let [flag, value] = pair else { return usage() };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => traced = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => return usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(traced)) =
        (workload, seed, seconds, traced)
    else {
        return usage();
    };
    let ctx = Ctx {
        seed,
        seconds: Duration::from_secs_f64(seconds),
        trace: traced,
        origin: Instant::now(),
    };
    println!("{}", report::host_fingerprint());
    println!(
        "workload={workload} seed={seed} seconds={seconds} trace={}",
        u8::from(traced)
    );

    // Snapshots, WALs and span files stay inside the benchmark's own
    // directory of the checkout.
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let state = out_dir.join(format!("state-{workload}-{}", std::process::id()));
    std::fs::create_dir_all(&state).expect("the state directory can be made");
    let outcome = match workload.as_str() {
        "quantify" => quantify::run(&ctx),
        "live" => live::run(&ctx, &state),
        "serve" => serve::run(&ctx, &state),
        _ => {
            let _ = std::fs::remove_dir_all(&state);
            return usage();
        }
    };
    let _ = std::fs::remove_dir_all(&state);
    if traced {
        let path = out_dir.join(format!("spans-{workload}-{seed}.tsv"));
        match trace::write_spans(&path, &outcome.spans) {
            Ok(()) => println!(
                "spans {} written to {}",
                outcome.spans.len(),
                path.display()
            ),
            Err(e) => eprintln!("spans not written: {e}"),
        }
    }
    report::print(&outcome, traced);
    ExitCode::SUCCESS
}
