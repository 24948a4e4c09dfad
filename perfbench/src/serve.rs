//! `serve`: `pmx serve` on loopback inside the benchmark process.
//!
//! The artifact is loaded from a snapshot and the `Registry` journals
//! table deltas through an `EpochWal`. The process first pins itself to
//! one CPU (see [`pin_to_one_cpu`]), so it runs one connection, one
//! reactor worker and one engine thread. The connection drives a closed
//! loop as one tenant, sending its next frame only after the previous
//! reply. Every round is a read phase of 256-query `Batch` frames followed
//! by one write step, alternating
//!
//! * epoch (class `welded_or_epoch`): a `TableDelta` frame + `Refresh`
//!   (the delta journaled, published, and the tenant rebased and refreshed
//!   onto the new epoch);
//! * knowledge (class `decomposed_or_knowledge`): a single-rule
//!   `AddKnowledge` or `Remove` frame + `Refresh`.
//!
//! A batch's dispatch takes about a microsecond while its socket round
//! trip takes tens, so reactor, protocol and transport dominate the reads.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use pm_microdata::value::Value;
use pm_serve::client::Client;
use pm_serve::protocol::{
    decode_request, decode_response, encode_request, encode_response, Request, Response,
    WireDeltaOp, WireKnowledge, FRAME_HEADER_LEN,
};
use pm_serve::registry::{Limits, Registry};
use pm_serve::server::{Backend, Server};
use privacy_maxent::persist::{recover, EpochWal, SNAPSHOT_FILE};
use privacy_maxent::{Analyst, CompiledTable, Knowledge, KnowledgeHandle};

use crate::checks::{self, CheckedItem};
use crate::inputs::{self, DeltaTape, Rng, BATCH};
use crate::report::{self, Outcome};
use crate::trace::{Samples, Trace};
use crate::{engine_config, record_compile, threads, Ctx};

/// Top-(K,K) of the tenant's arity-4 knowledge set.
const TENANT_K: usize = 50;
/// Rules ranked past the tenant's set, added and removed one at a time.
const POOL: (usize, usize) = (150, 200);
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPEATS: usize = 25;
/// Batch frames per read phase.
const READS_PER_ROUND: usize = 16;
/// Every this many rounds, the first batch of the read phase is kept and
/// checked against a direct replay.
const SAMPLE_EVERY: usize = 32;

/// What the connection did, in order, for the replay.
enum Event {
    Add(usize),
    Remove,
    Delta,
    Refreshed(u64),
    Sample(Vec<(usize, Value)>, Vec<f64>),
}

fn wire(k: &Knowledge) -> WireKnowledge {
    WireKnowledge::from_knowledge(k).expect("mined knowledge fits the wire")
}

/// Traced runs only: the in-process dispatch and the codec on the same
/// batch, and the transport time that leaves of the round trip.
fn measure_layers(
    tr: &mut Trace,
    out: &mut Outcome,
    registry: &Registry,
    tenant: &pm_serve::registry::Tenant,
    req: &Request,
    rtt_us: f64,
) {
    let part = |tr: &mut Trace, name: &'static str, f: &mut dyn FnMut()| {
        let t = Instant::now();
        tr.span(name, f);
        t.elapsed().as_secs_f64() * 1e6
    };
    let mut frame = Vec::new();
    let mut resp = None;
    let mut bytes = Vec::new();
    let mut spent = part(tr, "protocol.encode_request", &mut || {
        frame = encode_request(7, req)
    });
    spent += part(tr, "protocol.decode_request", &mut || {
        std::hint::black_box(decode_request(&frame[FRAME_HEADER_LEN..]).is_ok());
    });
    spent += part(tr, "registry.dispatch", &mut || {
        resp = registry.dispatch(tenant, req).ok()
    });
    let resp = resp.unwrap_or(Response::Pong);
    spent += part(tr, "protocol.encode_response", &mut || {
        bytes = encode_response(7, &resp)
    });
    spent += part(tr, "protocol.decode_response", &mut || {
        std::hint::black_box(decode_response(&bytes[FRAME_HEADER_LEN..]).is_ok());
    });
    if let Request::Batch { queries } = req {
        tr.span("estimate.batch", || {
            let snap = tenant.snapshot();
            let ps: Vec<f64> = queries
                .iter()
                .map(|&(q, s)| snap.conditional(q as usize, s))
                .collect();
            std::hint::black_box(ps);
        });
    }
    out.stat("transport_us", rtt_us - spent);
}

fn record_summary(out: &mut Outcome, class: &'static str, r: &pm_serve::protocol::RefreshSummary) {
    let names = if class == "welded_or_epoch" {
        [
            "welded_or_epoch.refresh.components",
            "welded_or_epoch.refresh.resolved",
            "welded_or_epoch.refresh.closed_form",
            "welded_or_epoch.refresh.reused",
        ]
    } else {
        [
            "decomposed_or_knowledge.refresh.components",
            "decomposed_or_knowledge.refresh.resolved",
            "decomposed_or_knowledge.refresh.closed_form",
            "decomposed_or_knowledge.refresh.reused",
        ]
    };
    for (name, v) in names
        .into_iter()
        .zip([r.components, r.resolved, r.closed_form, r.reused])
    {
        out.stat(name, v as f64);
    }
}

/// Pins the calling thread, and every thread it starts afterwards, to the
/// first CPU it may run on.
///
/// On the virtual machines this benchmark was built on, a wake-up that
/// crosses cores costs tens of microseconds and varies several-fold from
/// minute to minute with the host's load: a 256-query frame's round trip
/// measured 59–77 µs across three runs unpinned and 34.7–35.3 µs pinned,
/// with the same one connection and one worker. Every frame hands off
/// between the client, the reactor and a worker, so unpinned the host,
/// not the program, set the reads' figures.
fn pin_to_one_cpu() -> bool {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    // SAFETY: `mask` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return false;
    }
    let Some(word) = mask.iter().position(|&w| w != 0) else {
        return false;
    };
    let mut one = [0u64; 16];
    one[word] = 1 << mask[word].trailing_zeros();
    // SAFETY: `one` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) == 0 }
}

pub fn run(ctx: &Ctx, dir: &Path) -> Outcome {
    let mut out = Outcome::default();
    if !pin_to_one_cpu() {
        out.fail_check("the process could not pin itself to one CPU");
    }
    let mut tr = Trace::new(ctx.trace, ctx.origin, 0);

    // Inputs: the table compiled and saved as the snapshot the server loads.
    let table_seed = inputs::TABLE_SEEDS[0];
    let data = inputs::dataset(table_seed);
    let table = inputs::publish(&data);
    let mined = inputs::mine(table_seed, 4, POOL.1);
    let set = mined.top(TENANT_K);
    let mut pool = mined.ranks(POOL.0, POOL.1);
    inputs::shuffle(&mut pool, ctx.seed);
    drop(mined);
    let set_checked: Vec<CheckedItem> = set.iter().map(|k| CheckedItem::new(k, &table)).collect();
    let pool_checked: Vec<CheckedItem> = pool.iter().map(|k| CheckedItem::new(k, &table)).collect();
    let matched = checks::matched(set_checked.iter().chain(&pool_checked), &table);
    // One tape drives the server, an identical one the replay.
    let mut tape = DeltaTape::new(&data, &table, &matched, ctx.seed);
    let replay_tape = DeltaTape::new(&data, &table, &matched, ctx.seed);
    drop(data);
    let built = tr.span("compile.build", || {
        CompiledTable::build(table.clone(), engine_config())
    });
    let built = built.expect("an Anatomy table compiles");
    record_compile(&mut out, &built);
    tr.span("persist.save", || built.save(dir.join(SNAPSHOT_FILE)))
        .expect("the snapshot saves");
    drop((built, table));

    // Set-up (ROADMAP path 1): snapshot load → bind → hello → first answer.
    let mut running = None;
    let mut queries = Vec::with_capacity(BATCH);
    let mut rng = Rng::new(ctx.seed);
    for _ in 0..SETUP_REPEATS {
        if let Some((mut server, _, _)) = running.take() {
            Server::shutdown(&mut server);
        }
        let t = Instant::now();
        let artifact = tr.span("persist.load", || {
            CompiledTable::load(dir.join(SNAPSHOT_FILE))
        });
        let artifact = Arc::new(artifact.expect("the snapshot loads"));
        let wal = EpochWal::create(dir, artifact.epoch()).expect("the WAL opens");
        let registry = Arc::new(Registry::new(
            Arc::clone(&artifact),
            Some(wal),
            Limits::default(),
        ));
        let server = Server::bind_with(
            "127.0.0.1:0",
            registry,
            Backend::Reactor { workers: threads() },
        )
        .expect("a loopback port binds");
        let mut client = Client::connect(server.addr(), "t0").expect("the handshake completes");
        let h = client.hello();
        inputs::fill_queries(
            &mut rng,
            &mut queries,
            h.distinct_qi as usize,
            h.sa_cardinality as usize,
        );
        let answer = client.batch(queries.iter().map(|&(q, s)| (q as u32, s)).collect());
        out.setup_s.push(t.elapsed().as_secs_f64());
        if answer.is_err() {
            out.fail_check("the first query after start-up was not answered");
        }
        running = Some((server, artifact, client));
    }
    let (mut server, base, mut client) = running.expect("set-up ran");
    let registry = Arc::clone(server.registry());
    out.checked(checks::baseline(base.table(), &*base.baseline_estimate()));

    // Warm-up: the tenant takes its Top-K set.
    if client
        .add_knowledge(set.iter().map(wire).collect())
        .is_err()
        || client.refresh().is_err()
    {
        out.fail_check("the tenant could not take its knowledge set");
    }
    let tenant = registry.open_tenant("t0").expect("the tenant is resident");
    let hello = client.hello();
    let (distinct_qi, sa) = (hello.distinct_qi as usize, hello.sa_cardinality as usize);

    let mut events = Vec::new();
    let mut held: Vec<(u64, usize)> = Vec::new();
    let mut pool_next = 0usize;
    let mut phase_qps = Samples::default();
    let mut round = 0usize;
    let deadline = Instant::now() + ctx.seconds;
    while Instant::now() < deadline {
        let op_base = (round as u64) << 8;
        let (mut phase_s, mut phase_n) = (0.0, 0usize);
        for i in 0..READS_PER_ROUND {
            tr.set_op(op_base | i as u64, "read");
            inputs::fill_queries(&mut rng, &mut queries, distinct_qi, sa);
            let req = Request::Batch {
                queries: queries.iter().map(|&(q, s)| (q as u32, s)).collect(),
            };
            out.op("query_frame").attempted += 1;
            tr.begin("serve.batch_frame");
            let t0 = Instant::now();
            let resp = client.call(&req);
            let rtt = t0.elapsed();
            tr.end();
            let ps = match resp {
                Ok(Response::Batch { ps }) if ps.len() == BATCH => ps,
                _ => {
                    out.op("query_frame").failed += 1;
                    continue;
                }
            };
            out.query_us.push(rtt.as_secs_f64() * 1e6);
            phase_s += rtt.as_secs_f64();
            phase_n += BATCH;
            if tr.on() {
                measure_layers(
                    &mut tr,
                    &mut out,
                    &registry,
                    &tenant,
                    &req,
                    rtt.as_secs_f64() * 1e6,
                );
            }
            if i == 0 && round.is_multiple_of(SAMPLE_EVERY) {
                events.push(Event::Sample(queries.clone(), ps));
            }
        }
        if phase_n > 0 {
            phase_qps.push(phase_n as f64 / phase_s);
        }

        let op = op_base | 0xff;
        if round.is_multiple_of(2) {
            tr.set_op(op, "welded_or_epoch");
            let (delta, _) = tape.next_delta();
            let ops: Vec<WireDeltaOp> = delta.ops().iter().map(WireDeltaOp::from_op).collect();
            out.op("table_delta_frame").attempted += 1;
            tr.begin("op.epoch");
            let t0 = Instant::now();
            let applied = tr.span("serve.table_delta_frame", || client.table_delta(ops));
            let refreshed = tr.span("serve.refresh_frame", || client.refresh());
            let elapsed = t0.elapsed();
            tr.end();
            if applied.is_ok() {
                events.push(Event::Delta);
            }
            match (applied, refreshed) {
                (Ok(_), Ok(r)) => {
                    events.push(Event::Refreshed(r.epoch));
                    out.welded_or_epoch_ms.push(elapsed.as_secs_f64() * 1e3);
                    record_summary(&mut out, "welded_or_epoch", &r);
                }
                _ => out.op("table_delta_frame").failed += 1,
            }
        } else {
            tr.set_op(op, "decomposed_or_knowledge");
            let add = held.is_empty();
            let kind = if add {
                "knowledge_add"
            } else {
                "knowledge_remove"
            };
            out.op(kind).attempted += 1;
            tr.begin("op.knowledge");
            let t0 = Instant::now();
            let changed = if add {
                let p = pool_next % pool.len();
                pool_next += 1;
                let r = tr.span("serve.add_frame", || {
                    client.add_knowledge(vec![wire(&pool[p])])
                });
                match r {
                    Ok(h) if h.len() == 1 => {
                        held.push((h[0], p));
                        events.push(Event::Add(p));
                        true
                    }
                    _ => false,
                }
            } else {
                let (h, p) = held.pop().expect("a remove follows its add");
                let removed = tr.span("serve.remove_frame", || client.remove(h)).is_ok();
                if removed {
                    events.push(Event::Remove);
                } else {
                    held.push((h, p));
                }
                removed
            };
            let refreshed = tr.span("serve.refresh_frame", || client.refresh());
            let elapsed = t0.elapsed();
            tr.end();
            match refreshed {
                Ok(r) => {
                    events.push(Event::Refreshed(r.epoch));
                    if changed {
                        out.decomposed_or_knowledge_ms
                            .push(elapsed.as_secs_f64() * 1e3);
                        record_summary(&mut out, "decomposed_or_knowledge", &r);
                    } else {
                        out.op(kind).failed += 1;
                    }
                }
                Err(_) => {
                    out.op(kind).failed += 1;
                    if add && changed {
                        // A rolled-back add: take the item out again.
                        let (h, _) = held.pop().expect("the add was held");
                        if client.remove(h).is_ok() {
                            events.push(Event::Remove);
                        }
                    }
                }
            }
        }
        round += 1;
    }
    out.query_qps = phase_qps.median();
    out.peak_rss_mb = report::peak_rss_mb();
    server.shutdown();
    drop((server, registry, tenant));

    replay(
        &mut out,
        &mut tr,
        &base,
        replay_tape,
        &set,
        &pool,
        (&set_checked, &pool_checked),
        &events,
        dir,
    );
    out.spans = tr.into_spans();
    out
}

/// Replays the tenant on a direct `Analyst` session over the same epoch
/// chain and compares each sampled response bit for bit; then recovers the
/// server's snapshot + WAL and compares it with the chain's last epoch.
#[allow(clippy::too_many_arguments)]
fn replay(
    out: &mut Outcome,
    tr: &mut Trace,
    base: &Arc<CompiledTable>,
    mut tape: DeltaTape,
    set: &[Knowledge],
    pool: &[Knowledge],
    (set_checked, pool_checked): (&[CheckedItem], &[CheckedItem]),
    events: &[Event],
    dir: &Path,
) {
    tr.set_op(0, "check");
    let mut analyst = Analyst::open(Arc::clone(base));
    analyst
        .add_knowledge_batch(set)
        .expect("the replayed set compiles");
    let mut held: Vec<(KnowledgeHandle, usize)> = Vec::new();
    let mut chain = Arc::clone(base);
    // Refreshing only where a sample is compared keeps the replay short:
    // the estimate depends on the epoch and the knowledge set alone, not
    // on when refreshes ran.
    let mut stale = true;
    let mut samples = 0usize;
    for ev in events {
        match ev {
            Event::Add(p) => {
                let h = tr.span("analyst.add", || analyst.add_knowledge(pool[*p].clone()));
                held.push((h.expect("the replayed add compiles"), *p));
            }
            Event::Remove => {
                let (h, _) = held.pop().expect("a remove follows its add");
                let _ = tr.span("analyst.remove", || analyst.remove_knowledge(h));
            }
            Event::Delta => {
                let (delta, _) = tape.next_delta();
                let next = tr.span("delta.apply", || chain.apply(&delta));
                chain = Arc::new(next.expect("the replayed delta applies"));
                if tr
                    .span("analyst.rebase", || analyst.rebase(&chain))
                    .is_err()
                {
                    out.fail_check("the replayed session does not rebase");
                }
            }
            Event::Refreshed(epoch) => {
                if *epoch != chain.epoch() {
                    out.fail_check(format!(
                        "the server refreshed onto epoch {epoch}, the replay is at {}",
                        chain.epoch()
                    ));
                }
                stale = true;
            }
            Event::Sample(queries, ps) => {
                if std::mem::take(&mut stale)
                    && tr.span("analyst.refresh", || analyst.refresh()).is_err()
                {
                    out.fail_check("the replayed session does not refresh");
                }
                samples += 1;
                let got = analyst.batch(queries);
                if got
                    .iter()
                    .map(|p| p.to_bits())
                    .ne(ps.iter().map(|p| p.to_bits()))
                {
                    out.fail_check("a served batch differs from the direct replay");
                }
                let mut items: Vec<&CheckedItem> = set_checked.iter().collect();
                items.extend(held.iter().map(|&(_, p)| &pool_checked[p]));
                out.checked_estimate(checks::refreshed(chain.table(), analyst.estimate(), &items));
            }
        }
    }
    if samples == 0 {
        out.fail_check("no served response was sampled");
    }
    match tr.span("persist.recover", || recover(dir)) {
        Ok(r)
            if r.artifact.epoch() == chain.epoch()
                && r.artifact.baseline_estimate().term_values()
                    == chain.baseline_estimate().term_values() => {}
        _ => out.fail_check("snapshot + WAL do not recover the served final epoch"),
    }
}
