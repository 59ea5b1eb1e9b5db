//! Shared set-up steps and the traced run's layer probes.
//!
//! A traced run reports every per-layer metric on every workload.  A
//! layer the workload's own requests never reach (the disk layers under
//! an in-memory workload, the batch layer under a one-request-at-a-time
//! workload, the star join under the sharded executor) is measured by a
//! probe after the last round, on the same corpus and query lines, so
//! its figures describe this workload's data.

use crate::bench::Ctx;
use crate::stats::median;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use xtk_core::plan::compile;
use xtk_core::{BatchExecutor, BatchItem, BatchOptions, Executor, QueryRequest};
use xtk_index::cache::{CacheStats, ShardedLruCache};
use xtk_index::disk::{write_index, FormatVersion, WriteIndexOptions};
use xtk_index::diskcol::DiskColumnStore;
use xtk_index::XmlIndex;

/// The store format every disk-backed workload writes.
pub const STORE_FORMAT: WriteIndexOptions = WriteIndexOptions {
    include_scores: true,
    format: FormatVersion::V3,
};

/// `xtk_xml::parse` then `XmlIndex::build`, each under its own span.
pub fn parse_and_build(ctx: &mut Ctx, xml: &str) -> Result<XmlIndex, String> {
    let s = ctx.tr.begin("xml.parse");
    let tree = xtk_xml::parse(xml).map_err(|e| format!("corpus XML does not parse: {e}"))?;
    ctx.tr.end(s);
    let s = ctx.tr.begin("index.build");
    let ix = XmlIndex::build(tree);
    ctx.tr.end(s);
    Ok(ix)
}

/// Bytes of every file under `path` (a file or a directory tree).
pub fn bytes_on_disk(path: &Path) -> u64 {
    let Ok(meta) = std::fs::metadata(path) else {
        return 0;
    };
    if meta.is_file() {
        return meta.len();
    }
    std::fs::read_dir(path)
        .map(|rd| rd.flatten().map(|e| bytes_on_disk(&e.path())).sum())
        .unwrap_or(0)
}

/// The distinct keywords of a line set.
pub fn distinct_terms(lines: &[String]) -> Vec<String> {
    let mut terms: Vec<String> = lines
        .iter()
        .flat_map(|l| crate::corpus::line_keywords(l))
        .collect();
    terms.sort();
    terms.dedup();
    terms
}

/// `codec.ns_per_block`: every column of `terms` scanned through a
/// one-block cache (so every block decodes), three passes, median of the
/// per-pass time per decoded block.
pub fn codec(ctx: &mut Ctx, path: &Path, terms: &[String]) -> Result<(), String> {
    let store =
        DiskColumnStore::open_with_cache(path, Arc::new(ShardedLruCache::with_block_capacity(1)))
            .map_err(|e| format!("reopen store: {e}"))?;
    let mut per_block = Vec::new();
    let mut decodes = 0;
    for _ in 0..3 {
        let before = store.reads();
        let t = Instant::now();
        for term in terms {
            for level in 1..=store.levels_of(term) {
                if let Some(col) = store.column(term, level) {
                    std::hint::black_box(col.scan().map_err(|e| format!("scan {term}: {e}"))?);
                }
            }
        }
        let ns = t.elapsed().as_nanos() as f64;
        decodes = store.reads() - before;
        per_block.push(ns / decodes.max(1) as f64);
    }
    ctx.layer(
        "codec.ns_per_block",
        median(&per_block),
        format!("{decodes} block decodes per pass, 3 passes"),
    );
    Ok(())
}

/// For workloads without a store: writes and opens a v3 store of `ix`
/// (spans `disk.write_index`, `diskcol.open`) and runs the codec probe.
pub fn disk(ctx: &mut Ctx, ix: &XmlIndex, terms: &[String]) -> Result<(), String> {
    let path = ctx.tmp.join("probe.bin");
    let s = ctx.tr.begin("disk.write_index");
    write_index(ix, &path, STORE_FORMAT).map_err(|e| format!("write probe store: {e}"))?;
    ctx.tr.end(s);
    let s = ctx.tr.begin("diskcol.open");
    let store = DiskColumnStore::open(&path).map_err(|e| format!("open probe store: {e}"))?;
    let engine = xtk_core::DiskEngine::new(ix, &store);
    ctx.tr.end(s);
    drop(engine);
    codec(ctx, &path, terms)?;
    std::fs::remove_file(&path).ok();
    Ok(())
}

/// The batch probe: every distinct line once, as one batch through
/// `exec` (spans `batch.run`), then the `batch.*` metrics.
pub fn batch<E: Executor + Sync>(
    ctx: &mut Ctx,
    exec: E,
    ix: &XmlIndex,
    lines: &[String],
) -> Result<(), String> {
    let mut items = Vec::with_capacity(lines.len());
    for line in lines {
        match compile(ix, line, &QueryRequest::default()) {
            Ok((q, req)) => items.push(BatchItem::new(q, req)),
            Err(e) => ctx.check(false, || format!("`{line}`: {e}")),
        }
    }
    let s = ctx.tr.request("batch.run");
    let report = BatchExecutor::with_options(exec, BatchOptions::default())
        .run(&items)
        .map_err(|e| format!("batch probe: {e}"))?;
    ctx.tr.end(s);
    ctx.count(&report.metrics);
    batch_layers(ctx, 1);
    Ok(())
}

/// Sets the `batch.*` metrics from the `BatchReport` counters summed
/// over `batches` batches.
pub fn batch_layers(ctx: &mut Ctx, batches: u64) {
    let hits = ctx.counter("batch.result_hits");
    let misses = ctx.counter("batch.result_misses");
    let dedup = ctx.counter("batch.dedup_hits");
    let lookups = hits + misses + dedup;
    ctx.layer(
        "batch.result_hit_rate",
        crate::stats::ratio(hits, lookups),
        format!("{hits} hits of {lookups} arrivals"),
    );
    for name in [
        "batch.dedup_hits",
        "batch.invalidations",
        "batch.prefetch_pinned",
    ] {
        let v = ctx.counter(name);
        ctx.layer(
            name,
            crate::stats::ratio(v, batches as f64),
            format!("mean per batch, {batches} batches"),
        );
    }
}

/// Sets the `cache.*` metrics from block-cache counters summed over the
/// traced rounds (`resident_bytes` as the last traced round left it);
/// call after the traced rounds.
pub fn cache_layers(ctx: &mut Ctx, c: &CacheStats) {
    let lookups = c.hits + c.misses;
    ctx.layer(
        "cache.hit_rate",
        crate::stats::ratio(c.hits as f64, lookups as f64),
        format!("{} hits of {lookups} block lookups", c.hits),
    );
    let calls = ctx.traced_calls;
    ctx.layer(
        "cache.evictions",
        crate::stats::ratio(c.evictions as f64, calls as f64),
        format!(
            "mean per executor call, {} evictions in {calls} traced calls",
            c.evictions
        ),
    );
    ctx.layer(
        "cache.resident_bytes",
        c.resident_bytes as f64,
        "at the end of the last traced round",
    );
}

/// Adds one traced round's block-cache counters to `total`.
pub fn add_cache(total: &mut CacheStats, round: CacheStats) {
    total.hits += round.hits;
    total.misses += round.misses;
    total.evictions += round.evictions;
    total.resident_bytes = round.resident_bytes;
}

/// The star-join probe: `topk_memory`'s lines for this seed, once each,
/// through the in-memory `Engine` (whose hybrid routes each to the star
/// join or the complete join), setting the `topk.*`, `starjoin.*` and
/// `hybrid.*` metrics as means per request.
pub fn star_join(ctx: &mut Ctx, ix: XmlIndex) -> Result<(), String> {
    let engine = xtk_core::Engine::from_index(ix);
    let mut sums: std::collections::BTreeMap<&str, u64> = std::collections::BTreeMap::new();
    let names = [
        "topk.rows_retrieved",
        "topk.candidates",
        "topk.emitted_early",
        "starjoin.inserts",
        "starjoin.completions",
        "hybrid.route_topk",
        "hybrid.route_complete",
        "query.results",
    ];
    let mut requests = 0u64;
    for line in crate::memory::lines(ctx.seed) {
        let resp = crate::serve::answer(engine.index(), &line, |q, r| Ok(engine.run(q, r)))?;
        requests += 1;
        for name in names {
            *sums.entry(name).or_default() += resp.metrics.get(name);
        }
    }
    let base = format!(
        "star-join probe: mean per request over {requests} topk_memory lines on the in-memory engine"
    );
    for name in &names[..7] {
        let v = crate::stats::ratio(sums[name] as f64, requests as f64);
        ctx.layer(name, v, base.clone());
    }
    let (rows, results) = (sums["topk.rows_retrieved"], sums["query.results"]);
    ctx.layer(
        "topk.rows_per_result",
        crate::stats::ratio(rows as f64, results as f64),
        format!("star-join probe: {rows} rows for {results} results"),
    );
    Ok(())
}
