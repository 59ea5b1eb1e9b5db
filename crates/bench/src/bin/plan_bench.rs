//! Planning-path benchmark: cross-query plan-cache speedup and the
//! cost-gated rewriter's decode counts against the always-fire PR 9
//! pipeline, on the `query_io` corpus.
//!
//! ```text
//! plan_bench [--out FILE] [--check FILE] [--update]
//!
//!   --out FILE    write the trajectory JSON (default BENCH_plan.json)
//!   --check FILE  compare cold decode counts against a committed
//!                 baseline; exit non-zero on a >20 % regression.
//!                 Does not write unless --update is also given.
//!   --update      with --check: rewrite the baseline after checking
//! ```
//!
//! The run itself asserts the two contracts the planner ships under:
//! a plan served from the cache must be ≥ 5× faster than planning cold
//! (parse → canonicalize → bind → cost-rewrite → lower), and the
//! cost-gated rewriter must decode **no more** cold blocks than the
//! always-fire configuration on the mixed-depth pruning workloads —
//! with bit-identical results.  Decode counts are exact and
//! deterministic (seeded corpus, serial execution) and sit under the
//! 20 % ratchet; wall times are recorded in the trajectory but never
//! compared against the baseline.

use std::fmt::Write as _;
use std::time::Instant;
use xtk_bench::{
    band_term, correlated_groups, extract_u64, high_term, point_queries, Fingerprint, Scale,
    TERMS_PER_BAND,
};
use xtk_core::plan::Planner;
use xtk_core::query::Query;
use xtk_core::request::{DiskEngine, Executor, QueryRequest};
use xtk_core::Semantics;
use xtk_datagen::dblp::{generate as gen_dblp, DblpConfig};
use xtk_datagen::PlantedTerm;
use xtk_index::disk::{write_index, FormatVersion, WriteIndexOptions};
use xtk_index::diskcol::DiskColumnStore;
use xtk_index::XmlIndex;

/// The `query_io` benchmark corpus, rebuilt verbatim so the gated
/// decode counts here are directly comparable to the committed
/// `chk_pruning_probed` baseline in `BENCH_query.json`.
fn build_corpus() -> XmlIndex {
    let mut planted = Vec::new();
    for i in 0..4 {
        planted.push(PlantedTerm::new(high_term(i), 50_000));
    }
    for &f in &[4, 10, 100, 1_000, 10_000] {
        for i in 0..TERMS_PER_BAND {
            planted.push(PlantedTerm::new(band_term(f, i), f));
        }
    }
    for (terms, freqs, rho) in correlated_groups() {
        for (j, (&t, &f)) in terms.iter().zip(&freqs).enumerate() {
            if j == 0 {
                planted.push(PlantedTerm::new(t, f / 2));
            } else {
                planted.push(PlantedTerm::correlated(t, f / 2, terms[0], rho));
            }
        }
    }
    let cfg = DblpConfig {
        conferences: 200,
        years_per_conf: 10,
        papers_per_year: 30,
        title_words: 6,
        authors_per_paper: 1,
        vocab_size: 10_000,
        planted,
        ..Default::default()
    };
    XmlIndex::build(gen_dblp(&cfg).tree)
}

/// The `query_io` pruning workload: mixed-depth conference-name ×
/// high-frequency-title pairs plus the index-heavy point queries.
fn pruning_queries(scale: Scale) -> Vec<Vec<String>> {
    let mut queries: Vec<Vec<String>> =
        (0..4).map(|i| vec![format!("conf{}", 17 * i), high_term(i)]).collect();
    queries.extend(point_queries(scale, 2, 4, 8));
    queries.extend(point_queries(scale, 2, 10, 8));
    queries
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = String::from("BENCH_plan.json");
    let mut check: Option<String> = None;
    let mut update = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out = it.next().expect("--out FILE").clone(),
            "--check" => check = Some(it.next().expect("--check FILE").clone()),
            "--update" => update = true,
            other => panic!("unknown flag {other} (see --help in the module docs)"),
        }
    }

    eprintln!("plan_bench: building the DBLP benchmark corpus…");
    let ix = build_corpus();
    let path = std::env::temp_dir().join(format!("xtk_plan_bench_{}.bin", std::process::id()));
    write_index(
        &ix,
        &path,
        WriteIndexOptions { include_scores: true, format: FormatVersion::V3 },
    )
    .expect("write v3 index");

    let words = pruning_queries(Scale::Small);
    let queries: Vec<Query> = words
        .iter()
        .map(|w| Query::from_words(&ix, w).expect("workload term resolves"))
        .collect();
    let req = QueryRequest::complete(Semantics::Elca);

    // -- planning latency: cold pipeline vs plan-cache hit ------------
    // Every rep plans the whole query mix; the cold loop drops the
    // cache first so each spec is parsed, bound, cost-rewritten and
    // lowered from scratch, the cached loop replays warm fingerprints.
    let store = DiskColumnStore::open(&path).expect("open v3 store");
    let planner = Planner::from_store(&ix, &store);
    let generation = ix.generation();
    const REPS: u32 = 50;
    let t = Instant::now();
    for _ in 0..REPS {
        planner.cache().clear();
        for q in &queries {
            let (_, src) = planner.spec_for(&ix, q, &req, generation, 0);
            assert_eq!(src.as_str(), "cold");
        }
    }
    let cold_ns = t.elapsed().as_nanos();
    for q in &queries {
        planner.spec_for(&ix, q, &req, generation, 0);
    }
    let t = Instant::now();
    for _ in 0..REPS {
        for q in &queries {
            let (_, src) = planner.spec_for(&ix, q, &req, generation, 0);
            assert_eq!(src.as_str(), "cached");
        }
    }
    let cached_ns = t.elapsed().as_nanos();
    let per_query = |total: u128| total / (REPS as u128 * queries.len() as u128);
    let (cold_nsq, cached_nsq) = (per_query(cold_ns), per_query(cached_ns));
    let speedup = cold_nsq as f64 / (cached_nsq.max(1)) as f64;
    let cache_stats = planner.cache().stats();
    eprintln!(
        "plan_bench: planning {cold_nsq} ns/query cold vs {cached_nsq} ns/query cached ({speedup:.1}x)"
    );
    assert!(
        speedup >= 5.0,
        "plan-cache hits must be >=5x faster than cold planning: \
         cold {cold_nsq} ns/query, cached {cached_nsq} ns/query ({speedup:.1}x)"
    );
    drop(store);

    // -- cost gating: gated vs always-fire cold decodes ---------------
    // Each query runs against a fresh (empty-cache) store in both
    // configurations.  The gate may only *withhold* a rewrite the
    // footers predict to be useless, so it can never decode more than
    // the always-fire pipeline — and results stay bit-identical.
    let mut gated_total = 0u64;
    let mut always_total = 0u64;
    let mut gated_fp = Fingerprint::new();
    let mut always_fp = Fingerprint::new();
    for q in &queries {
        for (gating, sink, fp) in [
            (true, &mut gated_total, &mut gated_fp),
            (false, &mut always_total, &mut always_fp),
        ] {
            let store = DiskColumnStore::open(&path).expect("open v3 store");
            let disk = DiskEngine::new(&ix, &store).with_cost_gating(gating);
            let resp = disk.execute(q, &req).expect("disk execute");
            for r in &resp.results {
                fp.push(r.node.0);
                fp.push(r.level as u32);
                fp.push(r.score.to_bits());
            }
            *sink += resp.metrics.get("store.decodes");
        }
    }
    assert_eq!(
        gated_fp.0, always_fp.0,
        "cost gating changed results on the pruning workloads"
    );
    assert!(
        gated_total <= always_total,
        "cost-gated rewriting must not decode more cold blocks than \
         always-fire: gated {gated_total}, always-fire {always_total}"
    );
    eprintln!(
        "plan_bench: cold decodes gated {gated_total} vs always-fire {always_total}"
    );

    let mut json = String::from("{\n  \"schema\": 1,\n  \"corpus\": \"dblp-bench\",\n");
    let _ = writeln!(
        json,
        "  \"planning\": {{\"queries\": {}, \"reps\": {REPS}, \"cold_ns_per_query\": {cold_nsq}, \"cached_ns_per_query\": {cached_nsq}, \"speedup\": {speedup:.1}, \"cache_hits\": {}, \"cache_misses\": {}}},",
        queries.len(),
        cache_stats.hits,
        cache_stats.misses,
    );
    let _ = writeln!(
        json,
        "  \"gating\": {{\"gated_cold_decodes\": {gated_total}, \"alwaysfire_cold_decodes\": {always_total}}},"
    );
    let check_lines: Vec<(&str, u64)> = vec![
        ("chk_gated_cold_decodes", gated_total),
        ("chk_alwaysfire_cold_decodes", always_total),
        ("chk_total", gated_total + always_total),
    ];
    json.push_str("  \"check\": {\n");
    for (i, (key, value)) in check_lines.iter().enumerate() {
        let _ = write!(json, "    \"{key}\": {value}");
        json.push_str(if i + 1 == check_lines.len() { "\n" } else { ",\n" });
    }
    json.push_str("  }\n}\n");

    std::fs::remove_file(&path).ok();

    if let Some(baseline_path) = &check {
        let baseline = std::fs::read_to_string(baseline_path)
            .unwrap_or_else(|e| panic!("--check {baseline_path}: {e}"));
        let mut failed = false;
        for (key, value) in &check_lines {
            let Some(base) = extract_u64(&baseline, key) else {
                eprintln!("plan_bench: baseline lacks {key} — treating as new");
                continue;
            };
            // >20 % more cold decodes than the committed baseline fails.
            let limit = base + base.div_ceil(5);
            let status = if *value > limit { "REGRESSION" } else { "ok" };
            eprintln!("plan_bench: {key}: {value} vs baseline {base} (limit {limit}) {status}");
            if *value > limit {
                failed = true;
            }
        }
        if failed && !update {
            eprintln!("plan_bench: cold decode regression against {baseline_path}");
            std::process::exit(1);
        }
        if update {
            std::fs::write(baseline_path, &json).expect("rewrite baseline");
            eprintln!("plan_bench: baseline {baseline_path} updated");
        }
    } else {
        std::fs::write(&out, &json).expect("write trajectory");
        eprintln!("plan_bench: wrote {out}");
    }
}
