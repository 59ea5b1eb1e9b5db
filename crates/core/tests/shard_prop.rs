//! Property tests for the sharded scatter-gather merge: on random
//! corpora × k × shard counts × semantics, the TA threshold's early-stop
//! decision never drops a result that the naive full-merge reference
//! includes in the top-K, and both agree bit-for-bit with the filtered
//! unsharded engine — also over indexes built with a JDewey gap, where a
//! shard's values are the corpus numbers shifted, not renumbered.

mod common;

use xtk_core::result::{sort_ranked, ScoredResult};
use xtk_core::shard::{write_sharded, ShardedEngine};
use xtk_core::{
    Engine, Executor, Query, QueryAlgorithm, QueryRequest, Semantics,
};
use xtk_index::IndexOptions;
use xtk_xml::testutil::{prop_check, TempPath};


/// A fresh scratch directory per case (cases run in one process).
fn scratch(tag: &str) -> TempPath {
    TempPath::new(&format!("shard_prop_{tag}"))
}

fn assert_bit_identical(label: &str, got: &[ScoredResult], want: &[ScoredResult]) {
    assert_eq!(got.len(), want.len(), "{label}: result count");
    for (i, (a, b)) in got.iter().zip(want).enumerate() {
        assert_eq!(a.node, b.node, "{label}: node at rank {i}");
        assert_eq!(a.level, b.level, "{label}: level at rank {i}");
        assert_eq!(
            a.score.to_bits(),
            b.score.to_bits(),
            "{label}: score bits at rank {i}"
        );
    }
}

/// The unsharded reference: complete join, level-1 results (which only
/// the unpartitioned tree can produce) filtered out, ranked, truncated.
fn reference(engine: &Engine, q: &Query, req: &QueryRequest) -> Vec<ScoredResult> {
    let complete = QueryRequest::complete(req.semantics)
        .with_variant(req.variant)
        .with_algorithm(QueryAlgorithm::JoinBased);
    let mut rs: Vec<ScoredResult> = engine
        .run(q, &complete)
        .results
        .into_iter()
        .filter(|r| r.level > 1)
        .collect();
    sort_ranked(&mut rs);
    if let Some(k) = req.k {
        rs.truncate(k);
    }
    rs
}

#[test]
fn ta_early_stop_never_drops_a_topk_result() {
    prop_check(0xA5A5_0001, 500, |g| {
        let (shape, placements, kws) = common::corpus(g);
        let ix = common::build_corpus(&shape, &placements, kws);
        let q = common::query(&ix, kws);
        let semantics = if g.gen_bool(0.5) { Semantics::Elca } else { Semantics::Slca };
        let k = g.gen_range(1..7usize);
        let shards = g.gen_range(1..5usize);
        let req = QueryRequest::top_k(k, semantics).with_algorithm(QueryAlgorithm::JoinBased);

        let dir = scratch("ta");
        write_sharded(&ix, &dir, shards).expect("write sharded corpus");
        let pruned = ShardedEngine::open(&ix, &dir)
            .expect("open sharded corpus")
            .execute(&q, &req)
            .expect("pruned scatter-gather");
        let naive = ShardedEngine::open(&ix, &dir)
            .expect("open sharded corpus")
            .with_pruning(false)
            .execute(&q, &req)
            .expect("naive full merge");

        // The TA theorem: early stop changes nothing, bit for bit.
        assert_bit_identical("pruned vs full merge", &pruned.results, &naive.results);
        // Cross-check against the unsharded engine (deterministic
        // rebuild of the same corpus).
        let engine = Engine::from_index(common::build_corpus(&shape, &placements, kws));
        let want = reference(&engine, &q, &req);
        assert_bit_identical("sharded vs unsharded", &pruned.results, &want);
        // Every emitted result sits below the shard roots.
        assert!(pruned.results.iter().all(|r| r.level > 1));
        // Accounting: executed + pruned + skipped covers the topology.
        let m = &pruned.metrics;
        assert_eq!(
            m.get("shard.executed") + m.get("shard.pruned") + m.get("shard.skipped"),
            m.get("shard.shards"),
        );
    });
}

#[test]
fn complete_requests_never_prune_and_match_unsharded() {
    prop_check(0xA5A5_0002, 120, |g| {
        let (shape, placements, kws) = common::corpus(g);
        let ix = common::build_corpus(&shape, &placements, kws);
        let q = common::query(&ix, kws);
        let semantics = if g.gen_bool(0.5) { Semantics::Elca } else { Semantics::Slca };
        let shards = g.gen_range(1..5usize);
        let req = QueryRequest::complete(semantics).with_algorithm(QueryAlgorithm::JoinBased);

        let dir = scratch("complete");
        write_sharded(&ix, &dir, shards).expect("write sharded corpus");
        let resp = ShardedEngine::open(&ix, &dir)
            .expect("open sharded corpus")
            .execute(&q, &req)
            .expect("complete scatter-gather");

        assert_eq!(resp.metrics.get("shard.pruned"), 0, "complete sets gather every shard");
        let engine = Engine::from_index(common::build_corpus(&shape, &placements, kws));
        let want = reference(&engine, &q, &req);
        assert_bit_identical("complete sharded vs unsharded", &resp.results, &want);
    });
}

#[test]
fn jdewey_gaps_shift_shard_values_without_changing_answers() {
    let gapped = || IndexOptions { jdewey_gap: 3, ..Default::default() };
    prop_check(0xA5A5_0003, 80, |g| {
        let (shape, placements, kws) =
            if g.gen_bool(0.5) { common::corpus(g) } else { common::deep_corpus(g) };
        let ix = common::build_corpus_with(&shape, &placements, kws, gapped());
        assert_eq!(ix.jd().gap(), 3);
        let q = common::query(&ix, kws);
        let semantics = if g.gen_bool(0.5) { Semantics::Elca } else { Semantics::Slca };
        let k = g.gen_range(1..7usize);
        let engine =
            Engine::from_index(common::build_corpus_with(&shape, &placements, kws, gapped()));
        for shards in [1, 2, 4, 8] {
            let dir = scratch("gap");
            write_sharded(&ix, &dir, shards).expect("write sharded corpus");
            let sharded = ShardedEngine::open(&ix, &dir).expect("open sharded corpus");
            for req in [
                QueryRequest::top_k(k, semantics),
                QueryRequest::complete(semantics),
            ] {
                let req = req.with_algorithm(QueryAlgorithm::JoinBased);
                let got = sharded.execute(&q, &req).expect("gapped scatter-gather");
                let want = reference(&engine, &q, &req);
                let label = format!("gap 3, {shards} shards, k {:?}", req.k);
                assert_bit_identical(&label, &got.results, &want);
            }
        }
    });
}
