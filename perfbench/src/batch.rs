//! `batch_update`: the in-memory `Engine` serving skewed arrival batches
//! through `run_batch_report` under `Parallelism::Auto`, with one
//! maintenance write after every fixed number of batches.
//!
//! Batch dedup, the result cache and the plan cache run on their hit
//! paths between writes and on their generation-invalidation paths right
//! after each one.  Every batched answer must equal `Engine::run` on the
//! same engine at the same generation (computed outside the timed region,
//! after which the plan cache is emptied again so the measured requests
//! see it as they would have), and each write must be visible to the
//! first query after it.

use crate::bench::{Ctx, ROUNDS};
use crate::corpus::{self, Class, Shape, Terms};
use crate::probe::parse_and_build;
use crate::serve::{answer, plan_span};
use crate::stats::fingerprint;
use crate::update::Writer;
use crate::Measured;
use std::collections::BTreeSet;
use std::time::Instant;
use xtk_core::plan::compile;
use xtk_core::{BatchItem, BatchOptions, Engine, Parallelism, QueryRequest};

pub const EXEC_SPAN: &str = "batch.run";
const DISTINCT: usize = 400;
/// Arrivals per batch.
pub const BATCH: usize = 128;
/// Batches between two maintenance writes.
pub const WRITE_EVERY: usize = 50;

/// Line forms whose cost varies little from line to line, so a batch's
/// time depends on how many of its lines execute, which is what the batch
/// layer decides (high+`lf100` top-K lines, which the hybrid routes either
/// way at a 20x cost difference, are left to `topk_memory`).
fn classes() -> Vec<Class> {
    let class = |terms, shape, slca| Class { terms, shape, slca };
    let mut out = Vec::new();
    for slca in [false, true] {
        out.push(class(Terms::HighBand(10), Shape::TopK(10), slca));
        out.push(class(Terms::HighBand(1_000), Shape::TopK(10), !slca));
        out.push(class(
            Terms::HighTwoBands(100, 1_000),
            Shape::TopK(10),
            slca,
        ));
        out.push(class(Terms::HighBand(100), Shape::Complete, !slca));
        out.push(class(Terms::TwoBands(100, 1_000), Shape::Complete, slca));
    }
    out
}

/// `Engine::run` answers for every line at the engine's current
/// generation; the plan cache is emptied afterwards.
fn references(engine: &Engine, lines: &[String]) -> Result<Vec<u64>, String> {
    let refs = lines
        .iter()
        .map(|l| {
            answer(engine.index(), l, |q, r| Ok(engine.run(q, r)))
                .map(|resp| fingerprint(&resp.results))
        })
        .collect();
    engine.planner().cache().clear();
    refs
}

pub fn run(ctx: &mut Ctx) -> Result<Measured, String> {
    let xml = corpus::corpus_xml(ctx.seed);
    let lines = corpus::lines(ctx.seed, &classes(), DISTINCT);
    let schedule = corpus::skewed_schedule(lines.len(), 400_000, ctx.seed);
    let opts = BatchOptions {
        parallelism: Parallelism::Auto,
        ..BatchOptions::default()
    };

    let mut rounds = Vec::with_capacity(ROUNDS);
    let mut cursor = 0usize;
    let mut store_bytes = 0;
    let mut dropped_plans = 0u64;
    let mut stale_plans = 0u64;
    let mut writes = 0usize;
    let mut traced_writes = 0u64;
    for r in 0..ROUNDS {
        let mut round = ctx.start_round(r);
        let t = Instant::now();
        let root = ctx.tr.request("setup");
        let s = ctx.tr.begin("xml.parse");
        let tree = xtk_xml::parse(&xml).map_err(|e| format!("corpus XML does not parse: {e}"))?;
        ctx.tr.end(s);
        let s = ctx.tr.begin("maintain.open");
        let mut writer = Writer::new(tree.clone(), &lines, ctx.seed ^ r as u64);
        ctx.tr.end(s);
        let s = ctx.tr.begin("index.build");
        let ix = xtk_index::XmlIndex::build(tree);
        ctx.tr.end(s);
        let s = ctx.tr.begin("engine.open");
        let mut engine = Engine::from_index(ix).with_parallelism(Parallelism::Auto);
        ctx.tr.end(s);
        ctx.tr.end(root);
        round.setup_s = t.elapsed().as_secs_f64();
        if r == 0 {
            store_bytes =
                xtk_index::disk::persisted_file_bytes(engine.index(), crate::probe::STORE_FORMAT);
        }

        let mut refs = references(&engine, &lines)?;
        // Lines already answered at this generation: an arrival of any
        // other line is executed (not served by dedup or the result cache).
        let mut answered: BTreeSet<usize> = BTreeSet::new();
        let plans_before = engine.planner().cache().stats();
        let mut batches = 0usize;
        let deadline = Instant::now() + ctx.slice();
        while Instant::now() < deadline {
            let arrivals: Vec<usize> = (0..BATCH)
                .map(|j| schedule[(cursor + j) % schedule.len()])
                .collect();
            cursor += BATCH;
            let root = ctx.tr.request("batch");
            let t0 = Instant::now();
            let mut items = Vec::with_capacity(BATCH);
            for &i in &arrivals {
                let s = ctx.tr.begin("plan.compile");
                let compiled = compile(engine.index(), &lines[i], &QueryRequest::default());
                ctx.tr.end(s);
                match compiled {
                    Ok((q, req)) => items.push(BatchItem::new(q, req)),
                    Err(e) => return Err(format!("`{}` does not compile: {e}", lines[i])),
                }
            }
            if ctx.tr.enabled() {
                let distinct: BTreeSet<usize> = (0..items.len())
                    .filter(|&j| !arrivals[..j].contains(&arrivals[j]))
                    .collect();
                for j in distinct {
                    let ix = engine.index();
                    let s = ctx.tr.begin("plan.spec_for");
                    let (_, source) = engine.planner().spec_for(
                        ix,
                        &items[j].query,
                        &items[j].request,
                        ix.generation(),
                        0,
                    );
                    ctx.tr.end_as(s, plan_span(source));
                }
            }
            let s = ctx.tr.begin(EXEC_SPAN);
            let report = engine.run_batch_report(&items, &opts);
            ctx.tr.end(s);
            let dt = t0.elapsed();
            ctx.tr.end(root);
            round.busy_s += dt.as_secs_f64();
            round
                .latencies_us
                .extend(std::iter::repeat_n(dt.as_secs_f64() * 1e6, arrivals.len()));
            if ctx.tr.enabled() {
                ctx.traced_calls += 1;
            }
            ctx.count(&report.metrics);
            for (j, &i) in arrivals.iter().enumerate() {
                let resp = report.responses.get(j);
                if answered.insert(i) {
                    if let Some(resp) = resp {
                        ctx.count(&resp.metrics);
                    }
                }
                let ok = resp.is_some_and(|resp| fingerprint(&resp.results) == refs[i]);
                ctx.check(ok, || {
                    format!("batched `{}` differs from Engine::run", lines[i])
                });
            }

            batches += 1;
            if batches.is_multiple_of(WRITE_EVERY) {
                writes += 1;
                let cached = engine.planner().cache().stats();
                let done = writer.write(ctx, |ctx, ix, check| {
                    let s = ctx.tr.begin("engine.replace_index");
                    engine.replace_index(ix);
                    ctx.tr.end(s);
                    let s = ctx.tr.begin("update.query");
                    let resp = answer(engine.index(), check, |q, r| Ok(engine.run(q, r)));
                    ctx.tr.end(s);
                    resp.ok().map(|r| r.results)
                });
                if let Some(ms) = done {
                    round.updates_ms.push(ms);
                }
                if round.traced {
                    // `replace_index` drops every cached plan with the old
                    // generation's statistics.
                    dropped_plans += cached.entries;
                    traced_writes += 1;
                }
                refs = references(&engine, &lines)?;
                answered.clear();
            }
        }
        if round.traced {
            stale_plans +=
                engine.planner().cache().stats().invalidations - plans_before.invalidations;
        }
        rounds.push(round);
    }

    if ctx.traced_run {
        ctx.tr.set_enabled(true);
        crate::probe::batch_layers(ctx, ctx.traced_calls);
        ctx.layer(
            "plan.invalidations",
            crate::stats::ratio((dropped_plans + stale_plans) as f64, traced_writes as f64),
            format!("per write: {dropped_plans} plans dropped by replace_index + {stale_plans} stale-generation drops over {traced_writes} traced writes"),
        );
        for name in ["cache.hit_rate", "cache.evictions", "cache.resident_bytes"] {
            ctx.layer(name, 0.0, "no block cache on this path");
        }
        let ix = parse_and_build(ctx, &xml)?;
        crate::probe::disk(ctx, &ix, &crate::probe::distinct_terms(&lines))?;
    }
    ctx.fact("distinct_lines", lines.len());
    ctx.fact("batch_arrivals", BATCH);
    ctx.fact("batches_per_write", WRITE_EVERY);
    ctx.fact("writes", writes);
    Ok(Measured {
        rounds,
        xml_bytes: xml.len() as u64,
        store_bytes,
    })
}
