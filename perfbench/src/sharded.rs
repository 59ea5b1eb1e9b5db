//! `topk_sharded`: `ShardedEngine` over two document shards sharing one
//! block cache that holds everything.
//!
//! About 200 distinct lines in `shard_bench`'s mix — top-5 ELCA, top-2
//! SLCA, top-10 ELCA and complete ELCA over point, equal-band and
//! correlated keyword sets — drawn uniformly.  Shard scatter and the TA
//! merge do the work.  The scatter is serial: with `Parallelism::Auto`
//! the two shard executions run on the pool, and on a shared two-core
//! host the pool's wake-up jitter, not the shard work, set the tail
//! (p99 spread across seeds about 0.9, and a slower median than serial).  Each answer must equal the unsharded reference:
//! the complete join, level-1 results dropped, ranked, cut at `k`.

use crate::bench::{Ctx, ROUNDS};
use crate::corpus::{self, Class, Shape, Terms};
use crate::probe::{bytes_on_disk, parse_and_build, STORE_FORMAT};
use crate::serve::request;
use crate::stats::{fingerprint, ratio};
use crate::update::{Writer, WRITES_PER_ROUND};
use crate::Measured;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use xtk_core::plan::compile;
use xtk_core::result::sort_ranked;
use xtk_core::shard::{shard_dir_name, write_sharded_with, STORE_FILE};
use xtk_core::{Engine, Executor, Parallelism, QueryAlgorithm, QueryRequest, ShardedEngine};
use xtk_index::cache::{BlockCache, CacheStats, ShardedLruCache};
use xtk_index::XmlIndex;

pub const EXEC_SPAN: &str = "sharded.execute";
const DISTINCT: usize = 200;
pub const SHARDS: usize = 2;

fn classes() -> Vec<Class> {
    let shapes = [
        (Shape::TopK(5), false),
        (Shape::TopK(2), true),
        (Shape::TopK(10), false),
        (Shape::Complete, false),
    ];
    let terms = [
        Terms::HighBand(10),
        Terms::HighTwoBands(100, 100),
        Terms::ThreeOfBand(1_000),
        Terms::Correlated,
    ];
    // Shape and keyword set rotate at different speeds, so every pairing occurs.
    (0..16)
        .map(|i| Class {
            terms: terms[i % 4],
            shape: shapes[(i + i / 4) % 4].0,
            slca: shapes[(i + i / 4) % 4].1,
        })
        .collect()
}

/// Writes `ix` as `shards` shards under `dir` and opens them behind `cache`.
fn write_and_open<'a>(
    ctx: &mut Ctx,
    ix: &'a XmlIndex,
    dir: &Path,
    shards: usize,
    cache: Arc<dyn BlockCache>,
) -> Result<ShardedEngine<'a>, String> {
    let s = ctx.tr.begin("shard.write_sharded");
    write_sharded_with(ix, dir, shards, STORE_FORMAT).map_err(|e| format!("write shards: {e}"))?;
    ctx.tr.end(s);
    let s = ctx.tr.begin("shard.open");
    let engine = ShardedEngine::open_with_cache(ix, dir, cache)
        .map_err(|e| format!("open shards: {e}"))?
        .with_parallelism(Parallelism::Serial);
    ctx.tr.end(s);
    Ok(engine)
}

/// The unsharded reference answer of `line`.
fn reference(engine: &Engine, line: &str) -> Result<u64, String> {
    let (q, req) =
        compile(engine.index(), line, &QueryRequest::default()).map_err(|e| e.to_string())?;
    let complete = QueryRequest::complete(req.semantics)
        .with_variant(req.variant)
        .with_algorithm(QueryAlgorithm::JoinBased);
    let mut rs: Vec<_> = engine
        .run(&q, &complete)
        .results
        .into_iter()
        .filter(|r| r.level > 1)
        .collect();
    sort_ranked(&mut rs);
    if let Some(k) = req.k {
        rs.truncate(k);
    }
    Ok(fingerprint(&rs))
}

/// Block decodes for one pass over `lines` on a freshly opened engine.
fn decodes_per_pass(
    ctx: &mut Ctx,
    engine: &ShardedEngine<'_>,
    ix: &XmlIndex,
    lines: &[String],
) -> u64 {
    let mut decodes = 0;
    for line in lines {
        match crate::serve::answer(ix, line, |q, r| engine.execute(q, r)) {
            Ok(resp) => decodes += resp.metrics.get("store.decodes"),
            Err(e) => ctx.check(false, || format!("`{line}`: {e}")),
        }
    }
    decodes
}

pub fn run(ctx: &mut Ctx) -> Result<Measured, String> {
    let xml = corpus::corpus_xml(ctx.seed);
    let lines = corpus::lines(ctx.seed, &classes(), DISTINCT);
    let schedule = corpus::uniform_schedule(lines.len(), 200_000, ctx.seed);

    let unsharded = Engine::from_index(XmlIndex::build(
        xtk_xml::parse(&xml).map_err(|e| e.to_string())?,
    ));
    let refs = lines
        .iter()
        .map(|l| reference(&unsharded, l))
        .collect::<Result<Vec<_>, _>>()?;
    drop(unsharded);

    let mut rounds = Vec::with_capacity(ROUNDS);
    let mut cursor = 0usize;
    let mut store_bytes = 0;
    let mut cache_totals = CacheStats::default();
    let mut dir = ctx.tmp.clone();
    for r in 0..ROUNDS {
        let mut round = ctx.start_round(r);
        dir = ctx.tmp.join(format!("shards-{r}"));
        let cache: Arc<dyn BlockCache> = Arc::new(ShardedLruCache::unbounded());
        let t = Instant::now();
        let root = ctx.tr.request("setup");
        let ix = parse_and_build(ctx, &xml)?;
        let engine = write_and_open(ctx, &ix, &dir, SHARDS, Arc::clone(&cache))?;
        ctx.tr.end(root);
        round.setup_s = t.elapsed().as_secs_f64();
        store_bytes = bytes_on_disk(&dir);

        let salt = engine.topology_salt();
        let deadline = Instant::now() + ctx.slice();
        while Instant::now() < deadline {
            let i = schedule[cursor % schedule.len()];
            cursor += 1;
            let (dt, resp) = request(
                ctx,
                &ix,
                engine.planner(),
                salt,
                &lines[i],
                EXEC_SPAN,
                |q, r| engine.execute(q, r),
            );
            round.busy_s += dt.as_secs_f64();
            round.latencies_us.push(dt.as_secs_f64() * 1e6);
            let ok = matches!(&resp, Ok(resp) if fingerprint(&resp.results) == refs[i]);
            ctx.check(ok, || format!("`{}`: {:?}", lines[i], resp.err()));
        }
        if round.traced {
            crate::probe::add_cache(&mut cache_totals, cache.stats());
        }

        let mut writer = Writer::new(ix.tree().clone(), &lines, ctx.seed ^ r as u64);
        let update_dir = ctx.tmp.join(format!("update-{r}"));
        for _ in 0..WRITES_PER_ROUND {
            if let Some(ms) = writer.write(ctx, |ctx, ix, check| {
                let s = ctx.tr.begin("engine.replace_index");
                let cache: Arc<dyn BlockCache> = Arc::new(ShardedLruCache::unbounded());
                let engine = write_and_open(ctx, &ix, &update_dir, SHARDS, cache).ok()?;
                ctx.tr.end(s);
                let s = ctx.tr.begin("update.query");
                let resp = crate::serve::answer(&ix, check, |q, r| engine.execute(q, r));
                ctx.tr.end(s);
                resp.ok().map(|r| r.results)
            }) {
                round.updates_ms.push(ms);
            }
        }
        std::fs::remove_dir_all(&update_dir).ok();
        rounds.push(round);
    }

    if ctx.traced_run {
        ctx.tr.set_enabled(true);
        crate::probe::cache_layers(ctx, &cache_totals);
        let shard0 = dir.join(shard_dir_name(0)).join(STORE_FILE);
        crate::probe::codec(ctx, &shard0, &crate::probe::distinct_terms(&lines))?;

        // Decode amplification: one pass over every line, cold, on two
        // shards and on the same corpus as one shard.
        let ix = parse_and_build(ctx, &xml)?;
        ctx.tr.set_enabled(false);
        let two = ShardedEngine::open_with_cache(&ix, &dir, Arc::new(ShardedLruCache::unbounded()))
            .map_err(|e| format!("reopen shards: {e}"))?;
        let sharded = decodes_per_pass(ctx, &two, &ix, &lines);
        let one_dir = ctx.tmp.join("one-shard");
        let one = write_and_open(
            ctx,
            &ix,
            &one_dir,
            1,
            Arc::new(ShardedLruCache::unbounded()),
        )?;
        let single = decodes_per_pass(ctx, &one, &ix, &lines);
        drop(one);
        ctx.tr.set_enabled(true);
        ctx.layer(
            "shard.decode_amplification",
            ratio(sharded as f64, single as f64),
            format!("{sharded} decodes on {SHARDS} shards vs {single} on one, one cold pass over {} lines", lines.len()),
        );

        crate::probe::batch(ctx, two, &ix, &lines)?;
        crate::probe::star_join(ctx, ix)?;
    }
    ctx.fact("distinct_lines", lines.len());
    ctx.fact("shards", SHARDS);
    Ok(Measured {
        rounds,
        xml_bytes: xml.len() as u64,
        store_bytes,
    })
}
