//! Differential tests for the disk executor: the answer to a query must
//! not depend on the cache capacity, the worker count, or the file format
//! version.  Results are compared **bit-identically** (nodes, levels,
//! `f32` score bits, join stats) against a serial run over an unbounded
//! cache, and the decode counters are pinned where the design makes them
//! deterministic (unbounded cache: every block decoded at most once, by
//! whichever worker gets there first).

use std::sync::Arc;
use xtk_core::diskexec::join_search_disk;
use xtk_core::joinbased::{JoinOptions, JoinPlan};
use xtk_core::pool::Parallelism;
use xtk_core::query::{Query, Semantics};
use xtk_core::request::{DiskEngine, Executor, QueryRequest};
use xtk_core::shard::{write_sharded, ShardedEngine};
use xtk_core::result::ScoredResult;
use xtk_index::cache::{BlockCache, ShardedLruCache, DEFAULT_CAPACITY_BLOCKS};
use xtk_index::disk::{write_index, FormatVersion, WriteIndexOptions};
use xtk_index::diskcol::DiskColumnStore;
use xtk_index::XmlIndex;
use xtk_xml::testutil::TempPath;

const PARS: [Parallelism; 3] =
    [Parallelism::Fixed(2), Parallelism::Fixed(8), Parallelism::Auto];

/// A corpus wide enough that the intermediate result crosses the
/// parallel-probe threshold and the long lists span many blocks.
fn corpus(n: usize) -> String {
    let mut xml = String::from("<r>");
    for i in 0..n {
        xml.push_str(&format!(
            "<conf><p><t>common topic{}</t></p><p>rare{}</p></conf>",
            i % 7,
            i % 91
        ));
    }
    xml.push_str("</r>");
    xml
}

fn write_tmp(ix: &XmlIndex, tag: &str, format: FormatVersion) -> TempPath {
    let path = TempPath::new(&format!("diskdiff_{tag}"));
    write_index(ix, &path, WriteIndexOptions { include_scores: true, format }).unwrap();
    path
}

fn assert_bit_identical(base: &[ScoredResult], got: &[ScoredResult], what: &str) {
    assert_eq!(base.len(), got.len(), "{what}: result count");
    for (a, b) in base.iter().zip(got) {
        assert_eq!(a.node, b.node, "{what}: node");
        assert_eq!(a.level, b.level, "{what}: level");
        assert_eq!(a.score.to_bits(), b.score.to_bits(), "{what}: score bits");
    }
}

#[test]
fn results_invariant_under_cache_capacity_and_parallelism() {
    let xml = corpus(900);
    let ix = XmlIndex::build(xtk_xml::parse(&xml).unwrap());
    let path = write_tmp(&ix, "cap", FormatVersion::V2);
    let queries = [
        vec!["common", "rare17"],
        vec!["common", "topic3"],
        vec!["topic1", "rare5", "common"],
    ];
    type CacheCtor = fn() -> Arc<dyn BlockCache>;
    let caches: Vec<(&str, CacheCtor)> = vec![
        ("one-block", || Arc::new(ShardedLruCache::with_block_capacity(1))),
        ("default", || {
            Arc::new(ShardedLruCache::with_block_capacity(DEFAULT_CAPACITY_BLOCKS))
        }),
        ("tiny-bytes", || Arc::new(ShardedLruCache::with_byte_capacity(1 << 13))),
        ("unbounded", || Arc::new(ShardedLruCache::unbounded())),
    ];

    for words in &queries {
        let q = Query::from_words(&ix, words).unwrap();
        for semantics in [Semantics::Elca, Semantics::Slca] {
            // Baseline: serial over an unbounded cache, cold.
            let base_store =
                DiskColumnStore::open_with_cache(&path, Arc::new(ShardedLruCache::unbounded()))
                    .unwrap();
            let base_opts =
                JoinOptions { semantics, with_scores: true, ..Default::default() };
            let (base, base_stats, base_reads) =
                join_search_disk(&ix, &base_store, &q, &base_opts).unwrap();
            assert!(base_reads > 0, "cold baseline must decode blocks");

            for (name, mk_cache) in &caches {
                for par in [Parallelism::Serial, PARS[0], PARS[1], PARS[2]] {
                    let store = DiskColumnStore::open_with_cache(&path, mk_cache()).unwrap();
                    let opts = JoinOptions { parallelism: par, ..base_opts };
                    let (got, stats, reads) =
                        join_search_disk(&ix, &store, &q, &opts).unwrap();
                    let what = format!("{words:?} {semantics:?} cache={name} par={par}");
                    assert_bit_identical(&base, &got, &what);
                    assert_eq!(base_stats, stats, "{what}: join stats");
                    assert!(reads > 0, "{what}: cold run must decode");
                    if *name == "unbounded" {
                        // Every needed block is decoded exactly once —
                        // the double-checked insert makes the count equal
                        // to the serial one even with racing workers.
                        assert_eq!(base_reads, reads, "{what}: decode count");
                    }
                }
            }
        }
    }
}

#[test]
fn capacity_one_still_terminates_and_repeats_deterministically() {
    // The worst cache (one block) forces re-decodes; two identical runs
    // on one store must still agree with each other bit for bit.
    let xml = corpus(400);
    let ix = XmlIndex::build(xtk_xml::parse(&xml).unwrap());
    let path = write_tmp(&ix, "cap1", FormatVersion::V2);
    let store = DiskColumnStore::open_with_cache(
        &path,
        Arc::new(ShardedLruCache::with_block_capacity(1)),
    )
    .unwrap();
    let q = Query::from_words(&ix, &["common", "rare17"]).unwrap();
    let opts = JoinOptions { with_scores: true, ..Default::default() };
    let (a, sa, _) = join_search_disk(&ix, &store, &q, &opts).unwrap();
    let (b, sb, _) = join_search_disk(&ix, &store, &q, &opts).unwrap();
    assert_bit_identical(&a, &b, "repeat on capacity-1 cache");
    assert_eq!(sa, sb);
    assert!(store.cache_stats().evictions > 0, "capacity 1 must evict");
}

#[test]
fn v3_packed_lanes_bit_identical_to_v2_across_caches_and_parallelism() {
    // The bit-packed (v3) block layout changes only the wire encoding:
    // answers, join stats, and — under an unbounded cache — the cold
    // decode counts must match the varint (v2) layout bit for bit, under
    // every cache shape and worker count.
    let xml = corpus(900);
    let ix = XmlIndex::build(xtk_xml::parse(&xml).unwrap());
    let p2 = write_tmp(&ix, "lanes_v2", FormatVersion::V2);
    let p3 = write_tmp(&ix, "lanes_v3", FormatVersion::V3);
    let queries = [
        vec!["common", "rare17"],
        vec!["common", "topic3"],
        vec!["topic1", "rare5", "common"],
    ];
    type CacheCtor = fn() -> Arc<dyn BlockCache>;
    let caches: Vec<(&str, CacheCtor)> = vec![
        ("one-block", || Arc::new(ShardedLruCache::with_block_capacity(1))),
        ("tiny-bytes", || Arc::new(ShardedLruCache::with_byte_capacity(1 << 13))),
        ("unbounded", || Arc::new(ShardedLruCache::unbounded())),
    ];

    for words in &queries {
        let q = Query::from_words(&ix, words).unwrap();
        for semantics in [Semantics::Elca, Semantics::Slca] {
            let opts = JoinOptions { semantics, with_scores: true, ..Default::default() };
            // Baseline: serial v2 over an unbounded cache, cold.
            let base_store =
                DiskColumnStore::open_with_cache(&p2, Arc::new(ShardedLruCache::unbounded()))
                    .unwrap();
            let (base, base_stats, base_reads) =
                join_search_disk(&ix, &base_store, &q, &opts).unwrap();
            assert!(base_reads > 0, "cold v2 baseline must decode blocks");
            // v3 reference for the decode-count pin: block cuts differ
            // between the layouts (packed lanes fill blocks differently),
            // so the count is pinned against a serial v3 run, not v2.
            let v3_store =
                DiskColumnStore::open_with_cache(&p3, Arc::new(ShardedLruCache::unbounded()))
                    .unwrap();
            let (_, _, v3_reads) = join_search_disk(&ix, &v3_store, &q, &opts).unwrap();
            assert!(v3_reads > 0, "cold v3 baseline must decode blocks");

            for (name, mk_cache) in &caches {
                for par in [Parallelism::Serial, PARS[0], PARS[2]] {
                    let store = DiskColumnStore::open_with_cache(&p3, mk_cache()).unwrap();
                    let run_opts = JoinOptions { parallelism: par, ..opts };
                    let (got, stats, reads) =
                        join_search_disk(&ix, &store, &q, &run_opts).unwrap();
                    let what = format!("{words:?} {semantics:?} v3 cache={name} par={par}");
                    assert_bit_identical(&base, &got, &what);
                    assert_eq!(base_stats, stats, "{what}: join stats");
                    if *name == "unbounded" {
                        // Unbounded cache: every needed block decoded at
                        // most once, so the count matches the serial v3
                        // reference even with racing workers.
                        assert_eq!(v3_reads, reads, "{what}: decode count");
                    }
                }
            }
        }
    }
}

#[test]
fn v2_footers_cut_cold_decodes_versus_v1() {
    // Same corpus, same queries, both formats: identical answers, and the
    // v2 row-prefix directory must decode strictly fewer blocks cold.
    // The probing keyword lives only in the last few documents, so every
    // index-join probe lands in the *final* blocks of the long list —
    // v1 pays for decoding blocks `0..b` to recover the row prefix, v2
    // reads it straight from the directory.
    let mut xml = String::from("<r>");
    let n = 6000;
    for i in 0..n {
        if i >= n - 5 {
            xml.push_str(&format!("<conf><p><t>common tail</t></p><p>x{i}</p></conf>"));
        } else {
            xml.push_str(&format!(
                "<conf><p><t>common topic{}</t></p><p>rare{}</p></conf>",
                i % 7,
                i % 91
            ));
        }
    }
    xml.push_str("</r>");
    let ix = XmlIndex::build(xtk_xml::parse(&xml).unwrap());
    let p1 = write_tmp(&ix, "v1", FormatVersion::V1);
    let p2 = write_tmp(&ix, "v2", FormatVersion::V2);
    let s1 = DiskColumnStore::open(&p1).unwrap();
    let s2 = DiskColumnStore::open(&p2).unwrap();
    let q = Query::from_words(&ix, &["common", "tail"]).unwrap();
    let opts = JoinOptions { with_scores: true, ..Default::default() };
    let (r1, st1, reads1) = join_search_disk(&ix, &s1, &q, &opts).unwrap();
    let (r2, st2, reads2) = join_search_disk(&ix, &s2, &q, &opts).unwrap();
    assert_bit_identical(&r1, &r2, "v1 vs v2");
    assert_eq!(st1, st2);
    assert!(!r1.is_empty(), "tail query must produce results");
    assert!(
        reads2 < reads1,
        "v2 must decode fewer blocks cold: v1 {reads1} vs v2 {reads2}"
    );
}

/// `plan=merge|index` reaches the disk join steps: with block skipping
/// on, merge-only never probes and index-only never merges, on one store
/// and on a 2-shard store, and both return what the dynamic plan returns.
///
/// `alpha` and `beta` share 100 early confs and `common` is everywhere,
/// so under the dynamic plan each level merges `alpha` with `beta` and
/// probes `common`.  Cost gating is off so that push-probes always fire
/// and the join plan reaches the executor unchanged.
#[test]
fn disk_and_sharded_engines_honour_the_join_plan() {
    let mut xml = String::from("<r>");
    for i in 0..3000 {
        xml.push_str(&format!("<conf><p><t>common topic{}</t></p>", i % 7));
        if i < 100 {
            xml.push_str("<p><t>alpha beta</t></p>");
        }
        xml.push_str("</conf>");
    }
    xml.push_str("</r>");
    let ix = XmlIndex::build(xtk_xml::parse(&xml).unwrap());
    let path = write_tmp(&ix, "plan", FormatVersion::V3);
    let store = DiskColumnStore::open(&path).unwrap();
    let dir = TempPath::new("diskdiff_plan_shards");
    write_sharded(&ix, &dir, 2).unwrap();
    let sharded = ShardedEngine::open(&ix, &dir).unwrap().with_cost_gating(false);
    let disk = DiskEngine::new(&ix, &store).with_cost_gating(false);
    let engines: [(&str, &dyn Executor); 2] = [("disk", &disk), ("2 shards", &sharded)];
    let q = Query::from_words(&ix, &["common", "alpha", "beta"]).unwrap();
    for (name, engine) in engines {
        let run = |plan| {
            let req = QueryRequest::complete(Semantics::Elca).with_plan(plan);
            let resp = engine.execute(&q, &req).unwrap();
            let joins = (resp.metrics.get("join.merge_joins"), resp.metrics.get("join.index_joins"));
            (resp.results, joins)
        };
        let (dynamic, (merges, probes)) = run(JoinPlan::Dynamic);
        assert!(merges > 0 && probes > 0, "{name}: dynamic takes both steps ({merges}, {probes})");
        let (merge_only, (_, probes)) = run(JoinPlan::MergeOnly);
        assert_eq!(probes, 0, "{name}: plan=merge probed");
        assert_bit_identical(&dynamic, &merge_only, &format!("{name} plan=merge"));
        let (index_only, (merges, _)) = run(JoinPlan::IndexOnly);
        assert_eq!(merges, 0, "{name}: plan=index merged");
        assert_bit_identical(&dynamic, &index_only, &format!("{name} plan=index"));
    }
}
