//! `quantify`: cold offline quantification (§7), alternating the two
//! regimes of Figure 6's arity axis on a few full-scale Adult tables.
//!
//! * decomposed (class `decomposed_or_knowledge`) — arity-4 Top-(150,150):
//!   ~2,600 components, none dominant, so per-component overhead and
//!   parallelism set the time;
//! * welded (class `welded_or_epoch`) — arity-2 Top-(25,25): one welded
//!   component takes nearly all of it, so the solver kernel sets the time
//!   and parallelism cannot help.

use std::sync::Arc;
use std::time::Instant;

use privacy_maxent::{Analyst, CompiledTable, Knowledge};

use crate::checks::{self, CheckedItem};
use crate::inputs::{self, Rng, BATCH};
use crate::report::{self, Outcome};
use crate::trace::{Samples, Trace};
use crate::{engine_config, record_compile, record_refresh, Ctx};

/// Tables quantified, each compiled once.
const TABLES: usize = 2;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPEATS: usize = 11;
/// Batches read from each quantified estimate.
const READS_PER_OP: usize = 128;

struct Regime {
    class: &'static str,
    arity: usize,
    k: usize,
}

const REGIMES: [Regime; 2] = [
    Regime {
        class: "decomposed_or_knowledge",
        arity: 4,
        k: 150,
    },
    Regime {
        class: "welded_or_epoch",
        arity: 2,
        k: 25,
    },
];

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let mut tr = Trace::new(ctx.trace, ctx.origin, 0);
    let config = engine_config();

    // Inputs: tables and the two Top-K sets of each.
    let mut tables = Vec::new();
    let mut sets: Vec<[Vec<Knowledge>; 2]> = Vec::new();
    for &seed in &inputs::TABLE_SEEDS[..TABLES] {
        tables.push(inputs::publish(&inputs::dataset(seed)));
        sets.push(REGIMES.map(|r| inputs::mine(seed, r.arity, r.k).top(r.k)));
    }

    // Set-up: compile every table, several times over.
    let mut artifacts: Vec<Arc<CompiledTable>> = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        artifacts = tables
            .iter()
            .map(|table| {
                let built = tr.span("compile.build", || {
                    CompiledTable::build(table.clone(), config.clone())
                });
                Arc::new(built.expect("an Anatomy table compiles"))
            })
            .collect();
        out.setup_s.push(t.elapsed().as_secs_f64());
    }
    drop(tables);
    let mut checked: Vec<[Vec<CheckedItem>; 2]> = Vec::new();
    for (artifact, set) in artifacts.iter().zip(&sets) {
        record_compile(&mut out, artifact);
        out.checked(checks::baseline(
            artifact.table(),
            &*artifact.baseline_estimate(),
        ));
        checked.push([0, 1].map(|r| {
            set[r]
                .iter()
                .map(|k| CheckedItem::new(k, artifact.table()))
                .collect()
        }));
    }

    // Whole rounds: every table in both regimes, in a seeded order.
    let mut rng = Rng::new(ctx.seed ^ 0x9ae7);
    let mut order: Vec<(usize, usize)> = (0..TABLES).flat_map(|t| [(t, 0), (t, 1)]).collect();
    out.welded_or_epoch_tables = vec![Default::default(); TABLES];
    out.decomposed_or_knowledge_tables = vec![Default::default(); TABLES];
    let mut queries = Vec::with_capacity(BATCH);
    let mut phase_qps = Samples::default();
    let mut op_id = 0u64;
    let deadline = Instant::now() + ctx.seconds;
    let mut warm = true;
    while warm || Instant::now() < deadline {
        inputs::shuffle(&mut order, rng.next_u64());
        for &(t, r) in &order {
            let (artifact, regime) = (&artifacts[t], &REGIMES[r]);
            {
                op_id += 1;
                tr.set_op(op_id, regime.class);
                let count = out.op("quantification");
                count.attempted += 1;
                tr.begin("op.quantify");
                let t0 = Instant::now();
                let mut session = tr.span("analyst.open", || Analyst::open(Arc::clone(artifact)));
                let added = tr.span("analyst.add_batch", || {
                    session.add_knowledge_batch(&sets[t][r])
                });
                tr.begin("analyst.refresh");
                let refreshed = session.refresh();
                if let Ok(stats) = &refreshed {
                    record_refresh(
                        &mut tr,
                        &mut out,
                        regime.class,
                        stats,
                        session.estimate(),
                        warm,
                    );
                }
                tr.end();
                let report = tr.span("analyst.report", || session.report());
                let elapsed = t0.elapsed();
                tr.end();
                std::hint::black_box(report);
                if added.is_err() || refreshed.is_err() {
                    out.op("quantification").failed += 1;
                    continue;
                }
                if !warm {
                    let ms = elapsed.as_secs_f64() * 1e3;
                    if regime.class == "welded_or_epoch" {
                        out.welded_or_epoch_ms.push(ms);
                        out.welded_or_epoch_tables[t].push(ms);
                    } else {
                        out.decomposed_or_knowledge_ms.push(ms);
                        out.decomposed_or_knowledge_tables[t].push(ms);
                    }
                }

                tr.set_op(op_id, "read");
                let table = artifact.table();
                let mut phase_s = 0.0;
                for _ in 0..READS_PER_OP {
                    inputs::fill_queries(
                        &mut rng,
                        &mut queries,
                        table.interner().distinct(),
                        table.sa_cardinality(),
                    );
                    let t = Instant::now();
                    let ps = tr.span("estimate.batch", || session.batch(&queries));
                    let dt = t.elapsed().as_secs_f64();
                    std::hint::black_box(ps);
                    phase_s += dt;
                    if !warm {
                        out.query_us.push(dt * 1e6);
                    }
                }
                if !warm {
                    phase_qps.push((READS_PER_OP * BATCH) as f64 / phase_s);
                }
                let items: Vec<&CheckedItem> = checked[t][r].iter().collect();
                out.checked_estimate(checks::refreshed(table, session.estimate(), &items));
            }
        }
        warm = false;
    }
    out.query_qps = phase_qps.median();
    out.peak_rss_mb = report::peak_rss_mb();
    out.spans = tr.into_spans();
    out
}
