//! `complete_disk`: `DiskEngine` over a v3 store behind a block cache
//! far smaller than the blocks the workload touches.
//!
//! About 400 distinct complete-set ELCA/SLCA lines, drawn uniformly.
//! `diskexec`, `codec`, `diskcol` and the block cache do the work; the
//! top-K path is bypassed.  Each answer must equal the in-memory engine's
//! answer bit for bit.

use crate::bench::{Ctx, ROUNDS};
use crate::corpus::{self, Class, Shape, Terms};
use crate::probe::{bytes_on_disk, parse_and_build, STORE_FORMAT};
use crate::serve::{answer, request};
use crate::stats::fingerprint;
use crate::update::{Writer, WRITES_PER_ROUND};
use crate::Measured;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use xtk_core::{DiskEngine, Engine, Executor};
use xtk_index::cache::{BlockCache, CacheStats, ShardedLruCache};
use xtk_index::disk::write_index;
use xtk_index::diskcol::DiskColumnStore;
use xtk_index::XmlIndex;

pub const EXEC_SPAN: &str = "disk.execute";
const DISTINCT: usize = 400;
/// Block-cache capacity, about a tenth of the blocks the lines touch.
pub const CACHE_BLOCKS: usize = 16;

fn classes() -> Vec<Class> {
    let all = |terms, slca| Class {
        terms,
        shape: Shape::Complete,
        slca,
    };
    let mut out = Vec::new();
    for slca in [false, true] {
        out.push(all(Terms::HighBand(100), slca));
        out.push(all(Terms::HighBand(1_000), !slca));
        out.push(all(Terms::TwoBands(100, 1_000), slca));
        out.push(all(Terms::HighTwoBands(100, 1_000), !slca));
        out.push(all(Terms::HighCorrelated, slca));
        out.push(all(Terms::TwoBands(1_000, 1_000), !slca));
    }
    out
}

fn bounded_cache() -> Arc<dyn BlockCache> {
    Arc::new(ShardedLruCache::with_block_capacity(CACHE_BLOCKS))
}

/// Writes `ix` to `path` as a v3 store.
fn write_store(ctx: &mut Ctx, ix: &XmlIndex, path: &Path) -> Result<(), String> {
    let s = ctx.tr.begin("disk.write_index");
    write_index(ix, path, STORE_FORMAT).map_err(|e| format!("write store: {e}"))?;
    ctx.tr.end(s);
    Ok(())
}

/// Opens the store at `path` behind a fresh bounded cache.
fn open_store(path: &Path) -> Result<DiskColumnStore, String> {
    DiskColumnStore::open_with_cache(path, bounded_cache()).map_err(|e| format!("open store: {e}"))
}

/// Blocks in every column of `terms`.
fn blocks_of(store: &DiskColumnStore, terms: &[String]) -> usize {
    terms
        .iter()
        .flat_map(|t| (1..=store.levels_of(t)).filter_map(move |l| store.column(t, l)))
        .map(|c| c.block_count())
        .sum()
}

pub fn run(ctx: &mut Ctx) -> Result<Measured, String> {
    let xml = corpus::corpus_xml(ctx.seed);
    let lines = corpus::lines(ctx.seed, &classes(), DISTINCT);
    let schedule = corpus::uniform_schedule(lines.len(), 400_000, ctx.seed);
    let terms = crate::probe::distinct_terms(&lines);

    let reference = Engine::from_index(XmlIndex::build(
        xtk_xml::parse(&xml).map_err(|e| e.to_string())?,
    ));
    let mut refs = Vec::with_capacity(lines.len());
    for line in &lines {
        let resp = answer(reference.index(), line, |q, r| Ok(reference.run(q, r)))?;
        refs.push(fingerprint(&resp.results));
    }
    drop(reference);

    let mut rounds = Vec::with_capacity(ROUNDS);
    let mut cursor = 0usize;
    let mut store_bytes = 0;
    let mut cache = CacheStats::default();
    let mut store_path = ctx.tmp.clone();
    for r in 0..ROUNDS {
        let mut round = ctx.start_round(r);
        store_path = ctx.tmp.join(format!("store-{r}.bin"));
        let t = Instant::now();
        let root = ctx.tr.request("setup");
        let ix = parse_and_build(ctx, &xml)?;
        write_store(ctx, &ix, &store_path)?;
        let s = ctx.tr.begin("diskcol.open");
        let store = open_store(&store_path)?;
        let engine = DiskEngine::new(&ix, &store);
        ctx.tr.end(s);
        ctx.tr.end(root);
        round.setup_s = t.elapsed().as_secs_f64();
        store_bytes = bytes_on_disk(&store_path);
        if r == 0 {
            ctx.fact("working_set_blocks", blocks_of(&store, &terms));
            ctx.fact("cache_blocks", CACHE_BLOCKS);
        }

        let deadline = Instant::now() + ctx.slice();
        while Instant::now() < deadline {
            let i = schedule[cursor % schedule.len()];
            cursor += 1;
            let (dt, resp) = request(
                ctx,
                &ix,
                engine.planner(),
                0,
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
            crate::probe::add_cache(&mut cache, store.cache_stats());
        }

        let mut writer = Writer::new(ix.tree().clone(), &lines, ctx.seed ^ r as u64);
        let update_path = ctx.tmp.join(format!("update-{r}.bin"));
        for _ in 0..WRITES_PER_ROUND {
            if let Some(ms) = writer.write(ctx, |ctx, ix, check| {
                let s = ctx.tr.begin("engine.replace_index");
                write_store(ctx, &ix, &update_path).ok()?;
                let s2 = ctx.tr.begin("diskcol.open");
                let store = open_store(&update_path).ok()?;
                let engine = DiskEngine::new(&ix, &store);
                ctx.tr.end(s2);
                ctx.tr.end(s);
                let s = ctx.tr.begin("update.query");
                let resp = answer(&ix, check, |q, r| engine.execute(q, r));
                ctx.tr.end(s);
                resp.ok().map(|r| r.results)
            }) {
                round.updates_ms.push(ms);
            }
        }
        std::fs::remove_file(&update_path).ok();
        rounds.push(round);
    }

    if ctx.traced_run {
        ctx.tr.set_enabled(true);
        crate::probe::cache_layers(ctx, &cache);
        crate::probe::codec(ctx, &store_path, &terms)?;
        // The batch layer, on one batch of every distinct line.
        let ix = parse_and_build(ctx, &xml)?;
        let store = open_store(&store_path)?;
        crate::probe::batch(ctx, DiskEngine::new(&ix, &store), &ix, &lines)?;
    }
    ctx.fact("distinct_lines", lines.len());
    Ok(Measured {
        rounds,
        xml_bytes: xml.len() as u64,
        store_bytes,
    })
}
