//! Robustness of the sharded-corpus open/query path: a missing,
//! truncated, or version-mismatched shard directory must surface as
//! `Err` — never a panic — and the same holds under randomized byte
//! corruption of the manifest and the shard stores (extending the
//! persisted-index corruption prop-test one layer up).

use std::fs;
use std::path::Path;
use xtk_core::shard::{
    shard_dir_name, write_sharded, ShardedEngine, MANIFEST_FILE, MANIFEST_HEADER, STORE_FILE,
};
use xtk_core::{Executor, Query, QueryRequest, Semantics};
use xtk_index::XmlIndex;
use xtk_xml::parse;
use xtk_xml::testutil::{prop_check, TempPath};

const DOC: &str = "<bib><conf><paper><title>xml keyword search</title></paper>\
                   <paper><title>top k join</title></paper></conf>\
                   <conf><paper><title>xml top k</title></paper></conf>\
                   <conf><paper><title>keyword ranking</title></paper></conf></bib>";


fn scratch(tag: &str) -> TempPath {
    TempPath::new(&format!("shard_corrupt_{tag}"))
}

fn corpus() -> XmlIndex {
    XmlIndex::build(parse(DOC).unwrap())
}

fn written(tag: &str, ix: &XmlIndex, shards: usize) -> TempPath {
    let dir = scratch(tag);
    write_sharded(ix, &dir, shards).expect("write sharded corpus");
    dir
}

/// Open must fail cleanly; on the off chance a mutation keeps the layout
/// well-formed, querying through it must still never panic.
fn open_never_panics(ix: &XmlIndex, dir: &Path) {
    if let Ok(engine) = ShardedEngine::open(ix, dir) {
        let q = Query::from_words(ix, &["xml", "top"]).expect("vocab");
        let _ = engine.execute(&q, &QueryRequest::top_k(2, Semantics::Elca));
    }
}

#[test]
fn missing_directory_and_missing_manifest_err() {
    let ix = corpus();
    assert!(ShardedEngine::open(&ix, &scratch("nowhere")).is_err());
    let dir = scratch("empty");
    fs::create_dir_all(&dir).unwrap();
    assert!(ShardedEngine::open(&ix, &dir).is_err(), "no manifest");
}

#[test]
fn missing_and_truncated_shard_stores_err() {
    let ix = corpus();
    // Missing shard directory.
    let dir = written("missing_shard", &ix, 3);
    fs::remove_dir_all(dir.join(shard_dir_name(1))).unwrap();
    assert!(ShardedEngine::open(&ix, &dir).is_err());
    // Truncated store file: every prefix length must fail cleanly.
    let dir = written("truncated", &ix, 2);
    let store = dir.join(shard_dir_name(1)).join(STORE_FILE);
    let bytes = fs::read(&store).unwrap();
    for cut in [0, 1, bytes.len() / 4, bytes.len() / 2, bytes.len() - 1] {
        fs::write(&store, &bytes[..cut]).unwrap();
        let r = ShardedEngine::open(&ix, &dir);
        assert!(r.is_err(), "truncated store at {cut} bytes must not open");
    }
}

#[test]
fn version_mismatched_manifest_errs() {
    let ix = corpus();
    let dir = written("version", &ix, 2);
    let manifest = dir.join(MANIFEST_FILE);
    let text = fs::read_to_string(&manifest).unwrap();
    // An older writer's manifest (no corpus hash) and a future one.
    for header in ["xtk-shard-manifest v1", "xtk-shard-manifest v3"] {
        fs::write(&manifest, text.replacen(MANIFEST_HEADER, header, 1)).unwrap();
        let err = ShardedEngine::open(&ix, &dir).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{header}");
    }
}

#[test]
fn manifest_corpus_mismatch_errs() {
    let ix = corpus();
    let dir = written("mismatch", &ix, 2);
    // A different corpus must not open someone else's shard directory.
    let other = XmlIndex::build(
        parse("<bib><conf><paper><title>entirely other corpus</title></paper></conf></bib>")
            .unwrap(),
    );
    let err = ShardedEngine::open(&other, &dir).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    // A manifest claiming a different topology than its own writer's
    // partition is rejected too.
    let manifest = dir.join(MANIFEST_FILE);
    let text = fs::read_to_string(&manifest).unwrap();
    fs::write(&manifest, text.replacen("shard 0 0 2", "shard 0 0 3", 1)).unwrap();
    assert!(ShardedEngine::open(&ix, &dir).is_err());
}

#[test]
fn stale_directory_of_a_same_shaped_corpus_errs() {
    let doc = "<bib><conf><paper><title>xml keyword search</title></paper>\
               <paper><title>top k join</title></paper></conf>\
               <conf><paper><title>xml top k</title></paper></conf>\
               <conf><paper><title>keyword top search</title></paper></conf></bib>";
    // `search` and `join` trade places between the first two titles.
    let swapped =
        doc.replacen("keyword search", "keyword join", 1).replacen("k join", "k search", 1);
    let ix = XmlIndex::build(parse(doc).unwrap());
    let edited = XmlIndex::build(parse(&swapped).unwrap());
    assert_ne!(doc, swapped);
    // Same node, document and term counts: only the corpus hash tells.
    assert_eq!(ix.tree().len(), edited.tree().len());
    assert_eq!(ix.vocab_size(), edited.vocab_size());
    let dir = written("stale", &ix, 2);
    let err = ShardedEngine::open(&edited, &dir).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    // The directory still serves the corpus it was cut from: the first
    // title holds both words there, while in the edited corpus only
    // their conference does — the answer a stale open got wrong.
    let elca = QueryRequest::complete(Semantics::Elca);
    let answer = |resp: xtk_core::QueryResponse| -> Vec<(u32, u16)> {
        resp.results.iter().filter(|r| r.level > 1).map(|r| (r.node.0, r.level)).collect()
    };
    let q = Query::from_words(&ix, &["keyword", "search"]).unwrap();
    let own = ShardedEngine::open(&ix, &dir).unwrap().execute(&q, &elca).unwrap();
    assert_eq!(answer(own), [(11, 4), (3, 4)]);
    let q = Query::from_words(&edited, &["keyword", "search"]).unwrap();
    let unsharded = xtk_core::Engine::from_index(edited).run(&q, &elca);
    assert_eq!(answer(unsharded), [(11, 4), (1, 2)]);
}

#[test]
fn prop_manifest_byte_flips_never_panic() {
    let ix = corpus();
    let dir = written("prop_manifest", &ix, 2);
    let manifest = dir.join(MANIFEST_FILE);
    let pristine = fs::read(&manifest).unwrap();
    prop_check(0xC0_0001, 64, |g| {
        let mut bytes = pristine.clone();
        for _ in 0..g.gen_range(1..4u32) {
            let at = g.gen_range(0..bytes.len());
            bytes[at] ^= 1 << g.gen_range(0..8u32);
        }
        fs::write(&manifest, &bytes).unwrap();
        open_never_panics(&ix, &dir);
    });
    fs::write(&manifest, &pristine).unwrap();
    assert!(ShardedEngine::open(&ix, &dir).is_ok(), "pristine manifest restored");
}

#[test]
fn prop_store_byte_flips_never_panic() {
    let ix = corpus();
    let dir = written("prop_store", &ix, 2);
    let store = dir.join(shard_dir_name(0)).join(STORE_FILE);
    let pristine = fs::read(&store).unwrap();
    prop_check(0xC0_0002, 48, |g| {
        let mut bytes = pristine.clone();
        let at = g.gen_range(0..bytes.len());
        bytes[at] ^= 1 << g.gen_range(0..8u32);
        fs::write(&store, &bytes).unwrap();
        open_never_panics(&ix, &dir);
    });
    fs::write(&store, &pristine).unwrap();
    assert!(ShardedEngine::open(&ix, &dir).is_ok(), "pristine store restored");
}
