//! `live`: resident sessions kept current in process.
//!
//! Several sessions, each holding its own arity-4 Top-(K,K) set, share one
//! artifact that has a snapshot and an `EpochWal`. A seeded tape drives
//! them in whole rounds of eight steps:
//!
//! * epoch (class `welded_or_epoch`) — a single-record table delta:
//!   `CompiledTable::apply` → `EpochWal::append` → every session's
//!   `rebase` + `refresh`;
//! * knowledge (class `decomposed_or_knowledge`) — a single-rule
//!   `add_knowledge` or `remove_knowledge` on one session + its `refresh`.
//!
//! Each step re-solves a handful of components, so the delta, rebase,
//! overlay and WAL layers carry most of the time, not the solver.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use privacy_maxent::persist::{recover, EpochWal, SNAPSHOT_FILE};
use privacy_maxent::{Analyst, CompiledTable, Knowledge, KnowledgeHandle};

use crate::checks::{self, CheckedItem};
use crate::inputs::{self, DeltaTape, Rng, BATCH};
use crate::report::{self, Outcome};
use crate::trace::{Samples, Trace};
use crate::{engine_config, record_compile, record_refresh, Ctx};

/// Top-(K,K) of each session's arity-4 knowledge set.
const SESSION_K: [usize; 4] = [25, 50, 100, 150];
/// Rules ranked past every session's set, added and removed one at a time.
const POOL: (usize, usize) = (150, 200);
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Batches read after every step, round-robin over the sessions.
const READS_PER_STEP: usize = 8;

#[derive(Clone, Copy)]
enum Step {
    Epoch,
    Add,
    Remove,
}

/// One round: most steps are table deltas, with one knowledge add and its
/// removal between them.
const ROUND: [Step; 8] = [
    Step::Epoch,
    Step::Epoch,
    Step::Epoch,
    Step::Add,
    Step::Epoch,
    Step::Epoch,
    Step::Epoch,
    Step::Remove,
];

struct Session {
    analyst: Analyst,
    base: Vec<CheckedItem>,
    extra: Option<(KnowledgeHandle, usize)>,
}

pub fn run(ctx: &Ctx, dir: &Path) -> Outcome {
    let mut out = Outcome::default();
    let mut tr = Trace::new(ctx.trace, ctx.origin, 0);
    let config = engine_config();

    let table_seed = inputs::TABLE_SEEDS[0];
    let data = inputs::dataset(table_seed);
    let table = inputs::publish(&data);
    let mined = inputs::mine(table_seed, 4, POOL.1);
    let sets: Vec<Vec<Knowledge>> = SESSION_K.iter().map(|&k| mined.top(k)).collect();
    let mut pool = mined.ranks(POOL.0, POOL.1);
    inputs::shuffle(&mut pool, ctx.seed);
    drop(mined);
    let pool_checked: Vec<CheckedItem> = pool.iter().map(|k| CheckedItem::new(k, &table)).collect();
    let set_checked: Vec<Vec<CheckedItem>> = sets
        .iter()
        .map(|set| set.iter().map(|k| CheckedItem::new(k, &table)).collect())
        .collect();
    let matched = checks::matched(set_checked.iter().flatten().chain(&pool_checked), &table);
    let mut tape = DeltaTape::new(&data, &table, &matched, ctx.seed);
    drop(data);

    // Set-up: build, snapshot, WAL, and every session opened and refreshed.
    let mut state = None;
    for _ in 0..SETUP_REPEATS {
        drop(state.take());
        let t = Instant::now();
        let built = tr.span("compile.build", || {
            CompiledTable::build(table.clone(), config.clone())
        });
        let artifact = Arc::new(built.expect("an Anatomy table compiles"));
        tr.span("persist.save", || artifact.save(dir.join(SNAPSHOT_FILE)))
            .expect("the snapshot saves");
        let wal = tr
            .span("persist.wal_create", || {
                EpochWal::create(dir, artifact.epoch())
            })
            .expect("the WAL opens");
        let mut sessions = Vec::new();
        for set in &sets {
            let mut analyst = tr.span("analyst.open", || Analyst::open(Arc::clone(&artifact)));
            tr.span("analyst.add_batch", || analyst.add_knowledge_batch(set))
                .expect("mined knowledge compiles");
            tr.span("analyst.refresh", || analyst.refresh())
                .expect("mined knowledge is feasible");
            sessions.push(Session {
                analyst,
                base: Vec::new(),
                extra: None,
            });
        }
        out.setup_s.push(t.elapsed().as_secs_f64());
        state = Some((artifact, wal, sessions));
    }
    let (mut artifact, mut wal, mut sessions) = state.expect("set-up ran");
    let base_artifact = Arc::clone(&artifact);
    record_compile(&mut out, &artifact);
    out.checked(checks::baseline(
        artifact.table(),
        &*artifact.baseline_estimate(),
    ));
    for (session, checked) in sessions.iter_mut().zip(set_checked) {
        session.base = checked;
    }
    drop(table);

    let mut rng = Rng::new(ctx.seed ^ 0x11fe);
    let mut queries = Vec::with_capacity(BATCH);
    let mut phase_qps = Samples::default();
    let mut op_id = 0u64;
    let mut pool_next = 0usize;
    let mut round = 0usize;
    let deadline = Instant::now() + ctx.seconds;
    while Instant::now() < deadline {
        for step in ROUND {
            op_id += 1;
            let touched: Vec<usize> = match step {
                Step::Epoch => {
                    tr.set_op(op_id, "welded_or_epoch");
                    out.op("epoch").attempted += 1;
                    let (delta, _) = tape.next_delta();
                    tr.begin("op.epoch");
                    let t0 = Instant::now();
                    let mut ok = true;
                    match tr.span("delta.apply", || artifact.apply(&delta)) {
                        Ok(next) => {
                            let applied = next
                                .applied_delta()
                                .expect("a fresh epoch carries its delta");
                            if tr
                                .span("persist.wal_append", || {
                                    wal.append(next.epoch(), &delta, applied)
                                })
                                .is_err()
                            {
                                ok = false;
                            }
                            artifact = Arc::new(next);
                            for session in &mut sessions {
                                match tr
                                    .span("analyst.rebase", || session.analyst.rebase(&artifact))
                                {
                                    Ok(r) => {
                                        out.stat("rebase.recompiled", r.recompiled as f64);
                                        out.stat("rebase.changed", r.changed as f64);
                                        out.stat("rebase.carried", r.carried as f64);
                                    }
                                    Err(_) => ok = false,
                                }
                                tr.begin("analyst.refresh");
                                match session.analyst.refresh() {
                                    Ok(stats) => record_refresh(
                                        &mut tr,
                                        &mut out,
                                        "welded_or_epoch",
                                        &stats,
                                        session.analyst.estimate(),
                                        false,
                                    ),
                                    Err(_) => ok = false,
                                }
                                tr.end();
                            }
                        }
                        Err(_) => ok = false,
                    }
                    let elapsed = t0.elapsed();
                    tr.end();
                    if ok {
                        out.welded_or_epoch_ms.push(elapsed.as_secs_f64() * 1e3);
                    } else {
                        out.op("epoch").failed += 1;
                    }
                    (0..sessions.len()).collect()
                }
                Step::Add | Step::Remove => {
                    tr.set_op(op_id, "decomposed_or_knowledge");
                    let j = round % sessions.len();
                    let session = &mut sessions[j];
                    let kind = if matches!(step, Step::Add) {
                        "knowledge_add"
                    } else {
                        "knowledge_remove"
                    };
                    out.op(kind).attempted += 1;
                    tr.begin("op.knowledge");
                    let t0 = Instant::now();
                    let changed = if matches!(step, Step::Add) {
                        let p = pool_next % pool.len();
                        pool_next += 1;
                        let added = tr.span("analyst.add", || {
                            session.analyst.add_knowledge(pool[p].clone())
                        });
                        added.map(|h| session.extra = Some((h, p))).is_ok()
                    } else {
                        let (h, _) = session.extra.take().expect("a remove follows its add");
                        tr.span("analyst.remove", || session.analyst.remove_knowledge(h))
                            .is_ok()
                    };
                    tr.begin("analyst.refresh");
                    let refreshed = session.analyst.refresh();
                    if let Ok(stats) = &refreshed {
                        record_refresh(
                            &mut tr,
                            &mut out,
                            "decomposed_or_knowledge",
                            stats,
                            session.analyst.estimate(),
                            false,
                        );
                    }
                    tr.end();
                    let elapsed = t0.elapsed();
                    tr.end();
                    if changed && refreshed.is_ok() {
                        out.decomposed_or_knowledge_ms
                            .push(elapsed.as_secs_f64() * 1e3);
                    } else {
                        out.op(kind).failed += 1;
                    }
                    vec![j]
                }
            };

            tr.set_op(op_id, "read");
            let t = artifact.table();
            let mut phase_s = 0.0;
            for i in 0..READS_PER_STEP {
                let session = &sessions[(op_id as usize + i) % sessions.len()];
                inputs::fill_queries(
                    &mut rng,
                    &mut queries,
                    t.interner().distinct(),
                    t.sa_cardinality(),
                );
                let t0 = Instant::now();
                let ps = tr.span("estimate.batch", || session.analyst.batch(&queries));
                let dt = t0.elapsed().as_secs_f64();
                std::hint::black_box(ps);
                out.query_us.push(dt * 1e6);
                phase_s += dt;
            }
            phase_qps.push((READS_PER_STEP * BATCH) as f64 / phase_s);

            for j in touched {
                let s = &sessions[j];
                let mut items: Vec<&CheckedItem> = s.base.iter().collect();
                items.extend(s.extra.map(|(_, p)| &pool_checked[p]));
                out.checked_estimate(checks::refreshed(t, s.analyst.estimate(), &items));
            }
        }
        round += 1;
    }
    out.query_qps = phase_qps.median();
    out.peak_rss_mb = report::peak_rss_mb();

    // The final state against independent reconstructions: each session
    // against a fresh session on a from-scratch build of the final table,
    // and the artifact against recovery from snapshot + WAL.
    out.checked(checks::baseline(
        artifact.table(),
        &*artifact.baseline_estimate(),
    ));
    let built = tr.span("compile.build", || {
        CompiledTable::build(artifact.table().clone(), config.clone())
    });
    let scratch = Arc::new(built.expect("the final table compiles"));
    for (j, s) in sessions.iter().enumerate() {
        let items: Vec<Knowledge> = s.analyst.knowledge().map(|(_, k)| k.clone()).collect();
        let mut fresh = Analyst::open(Arc::clone(&scratch));
        let same = fresh.add_knowledge_batch(&items).is_ok()
            && fresh.refresh().is_ok()
            && fresh.estimate().term_values() == s.analyst.estimate().term_values();
        if !same {
            out.fail_check(format!(
                "session {j} differs from a fresh session on the rebuilt final table"
            ));
        }
    }
    match tr.span("persist.load", || {
        CompiledTable::load(dir.join(SNAPSHOT_FILE))
    }) {
        Ok(loaded)
            if loaded.baseline_estimate().term_values()
                == base_artifact.baseline_estimate().term_values() => {}
        _ => out.fail_check("the snapshot does not load back to the built artifact"),
    }
    match tr.span("persist.recover", || recover(dir)) {
        Ok(r)
            if r.artifact.epoch() == artifact.epoch()
                && r.artifact.baseline_estimate().term_values()
                    == artifact.baseline_estimate().term_values() => {}
        _ => out.fail_check("snapshot + WAL do not recover the final epoch"),
    }
    out.spans = tr.into_spans();
    out
}
