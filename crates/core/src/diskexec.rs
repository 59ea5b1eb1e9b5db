//! Disk-resident execution of Algorithm 1 (paper §III-B: "Algorithm 1 is
//! I/O optimized ... the algorithm does not read the whole JDewey
//! sequences from the disk at once").
//!
//! The level loop is [`algorithm1`], shared with the in-memory engine;
//! this module is its on-disk column source, decoding blocks of a
//! [`DiskColumnStore`] on demand.  The driving (smallest) column of each
//! level is **scanned**; larger columns are **probed** through the sparse
//! keys (at most one fresh block per probe) when the candidates are much
//! fewer than the column's rows, and merged otherwise, decoding only the
//! blocks whose footer range covers a candidate.  The loop starts at
//! `l_0 = min_i l_m^i`, so keywords that only meet high up never touch
//! the leaf-most blocks of the deeper lists.  Block decodes are counted
//! per query, so tests and benches can check these I/O claims.

use crate::joinbased::{algorithm1, ColumnSource, JoinOptions, JoinPlan, JoinStats, LevelColumn};
use crate::query::Query;
use crate::result::ScoredResult;
use std::borrow::Cow;
use std::io;
use xtk_index::columnar::Run;
use xtk_index::diskcol::{DiskColumn, DiskColumnStore, IoSession};
use xtk_index::{TermData, TermId, XmlIndex};
use xtk_obs::{EventKind, JoinStrategy, Obs};

/// The physical access-path configuration the plan lowering hands the
/// disk executor (see `plan::lower`).  The legacy entry points run with
/// `block_skip` on and `prescan` off — the optimized pipeline.
#[derive(Debug, Clone, Copy)]
pub struct DiskJoinSpec {
    /// Semantics, variant, join plan, scoring and parallelism of the join.
    pub join: JoinOptions,
    /// Allow the index-probe access path and let merge steps skip blocks
    /// through the v2/v3 last-value footers.  Off reproduces the
    /// plain full-scan merge join (the `push-probes` rule disabled).
    pub block_skip: bool,
    /// Decode every block of every level of every keyword before joining
    /// — the paper's §III-B whole-sequence strawman (the `prune-columns`
    /// rule disabled).  Results are unchanged; only I/O grows.
    pub prescan: bool,
}

/// Runs Algorithm 1 against an on-disk columnar index.
///
/// `ix` supplies the document tree, the JDewey directory and the scoring
/// data (in a deployed system those live beside the lists; the lists
/// themselves are read from `store`).  Returns the results, the join
/// statistics and the number of cache-missing block decodes.  I/O errors
/// and corrupt blocks surface as `Err` instead of panicking.
pub fn join_search_disk(
    ix: &XmlIndex,
    store: &DiskColumnStore,
    query: &Query,
    opts: &JoinOptions,
) -> io::Result<(Vec<ScoredResult>, JoinStats, u64)> {
    let spec = DiskJoinSpec { join: *opts, block_skip: true, prescan: false };
    join_search_disk_spec(ix, store, query, &spec, &Obs::default())
}

/// [`join_search_disk`] with the full access-path spec and
/// observability.  Results are bit-identical across every spec; only
/// the I/O counters move.  Join counters flush under the same `join.*`
/// names as in memory, the query's I/O under `store.*`, and a live
/// tracer also records one `store_io` event.  Decode counts are
/// parallelism-invariant under the store's default unbounded cache
/// (decode-once); with a small bounded shared cache eviction timing can
/// legitimately vary them, which is why the trace-determinism gate runs
/// against the unbounded regime.
pub fn join_search_disk_spec(
    ix: &XmlIndex,
    store: &DiskColumnStore,
    query: &Query,
    spec: &DiskJoinSpec,
    obs: &Obs,
) -> io::Result<(Vec<ScoredResult>, JoinStats, u64)> {
    let source = DiskSource::new(store, spec, &[], &[]);
    let (results, stats) = algorithm1(ix, query, &spec.join, &source, obs)?;
    Ok((results, stats, source.session.stats().decodes))
}

/// The on-disk column source: [`DiskColumn`] reads scoped to one query's
/// [`IoSession`].  For a store holding a row range of the corpus lists (a
/// document shard), `rows` gives per query term the corpus row of its
/// store row 0 and `values` per level (index 0 = level 1) how far its
/// values sit below the corpus JDewey numbers; both empty otherwise.
pub(crate) struct DiskSource<'a> {
    store: &'a DiskColumnStore,
    session: IoSession,
    block_skip: bool,
    prescan: bool,
    rows: &'a [u32],
    values: &'a [u32],
}

impl<'a> DiskSource<'a> {
    pub(crate) fn new(
        store: &'a DiskColumnStore,
        spec: &DiskJoinSpec,
        rows: &'a [u32],
        values: &'a [u32],
    ) -> Self {
        // Per-query I/O accounting: concurrent queries on a shared store
        // (a parallel batch) cannot inflate each other's counts.
        let session = IoSession::default();
        Self { store, session, block_skip: spec.block_skip, prescan: spec.prescan, rows, values }
    }
}

impl ColumnSource for DiskSource<'_> {
    type Column<'s>
        = DiskLevel<'s>
    where
        Self: 's;

    fn start_level(&self, terms: &[&TermData]) -> io::Result<u16> {
        if self.prescan {
            // Whole-sequence materialization: every level of every
            // keyword, including the levels above `l0` the join never
            // consumes.
            for t in terms {
                for l in 1..=self.store.levels_of(&t.term) {
                    if let Some(col) = self.store.column(&t.term, l) {
                        col.scoped(&self.session).scan()?;
                    }
                }
            }
        }
        Ok(terms.iter().map(|t| self.store.levels_of(&t.term)).min().unwrap_or(0))
    }

    fn column<'s>(&'s self, term: &'s TermData, level: u16) -> Option<DiskLevel<'s>> {
        let col = self.store.column(&term.term, level)?.scoped(&self.session);
        Some(DiskLevel { col, block_skip: self.block_skip })
    }

    fn finish(&self, obs: &Obs) {
        let io = self.session.stats();
        obs.event(EventKind::StoreIo { store: self.store.store_id() as u32, decodes: io.decodes });
        io.publish(&obs.metrics);
    }

    fn row_base(&self, term: usize) -> usize {
        self.rows.get(term).map_or(0, |&r| r as usize)
    }

    fn value_base(&self, level: u16) -> u32 {
        self.values.get(usize::from(level).wrapping_sub(1)).copied().unwrap_or(0)
    }
}

/// One on-disk column plus the spec's `block_skip` switch.
pub(crate) struct DiskLevel<'a> {
    col: DiskColumn<'a>,
    block_skip: bool,
}

impl LevelColumn for DiskLevel<'_> {
    // A probe can cost a block decode, so parallel steps pay off early
    // (the store and its block cache are thread-safe, so workers share
    // decodes instead of repeating them).
    const PAR_STEP_MIN: usize = 256;
    // The match phase stays serial: disk queries are mostly served from
    // inside a batch's pool, where a nested spawn per level costs more
    // than the range checks it would spread (measured on `serve_bench`).
    const PAR_MATCH_MIN: usize = usize::MAX;

    fn size(&self) -> usize {
        self.col.row_count()
    }

    /// Index join when the intermediate is much smaller than the column
    /// (a probe costs ~1 block decode, amortized); the merge path always
    /// gallops over the decoded runs.  With block skipping off there
    /// are no probes, whatever the plan.
    fn strategy(&self, plan: JoinPlan, values: usize) -> JoinStrategy {
        let probe = match plan {
            JoinPlan::Dynamic => values * 16 < self.col.row_count(),
            JoinPlan::MergeOnly => false,
            JoinPlan::IndexOnly => true,
        };
        if self.block_skip && probe {
            JoinStrategy::IndexProbe
        } else {
            JoinStrategy::Gallop
        }
    }

    fn scan(&self) -> io::Result<Cow<'_, [Run]>> {
        self.col.scan().map(Cow::Owned)
    }

    /// With block skipping the merge decodes only the blocks whose footer
    /// range covers a probed value; without it, every block.
    fn scan_matching(&self, values: &[u32]) -> io::Result<Cow<'_, [Run]>> {
        if self.block_skip {
            self.col.scan_matching(values).map(Cow::Owned)
        } else {
            self.scan()
        }
    }

    fn find(&self, value: u32, _hint: &mut usize) -> io::Result<Option<Run>> {
        self.col.find(value)
    }
}

/// The cross-query prefetch pass: warms and pins every column block of the
/// given terms (a batch passes the union of its distinct queries' terms)
/// so execution runs entirely against resident blocks and cannot evict its
/// own working set.  Ids outside the vocabulary pin nothing.  Returns the
/// total number of blocks pinned.  Balance with [`release_terms`].
pub fn prefetch_terms(
    ix: &XmlIndex,
    store: &DiskColumnStore,
    terms: &[TermId],
) -> io::Result<u64> {
    let mut pinned = 0u64;
    for t in terms.iter().filter_map(|&t| ix.get_term(t)) {
        pinned += store.prefetch_term(&t.term)?;
    }
    Ok(pinned)
}

/// Releases the pins taken by [`prefetch_terms`] (same term set).
pub fn release_terms(ix: &XmlIndex, store: &DiskColumnStore, terms: &[TermId]) {
    for t in terms.iter().filter_map(|&t| ix.get_term(t)) {
        store.unpin_term(&t.term);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::joinbased::join_search;
    use crate::query::{ElcaVariant, Semantics};
    use xtk_index::disk::{write_index, WriteIndexOptions};
    use xtk_xml::parse;
    use xtk_xml::testutil::TempPath;

    fn setup(xml: &str) -> (XmlIndex, DiskColumnStore, TempPath) {
        let ix = XmlIndex::build(parse(xml).unwrap());
        let path = TempPath::new("diskexec");
        write_index(&ix, &path, WriteIndexOptions { include_scores: true, ..Default::default() }).unwrap();
        let store = DiskColumnStore::open(&path).unwrap();
        (ix, store, path)
    }

    fn corpus(n: usize) -> String {
        let mut xml = String::from("<r>");
        for i in 0..n {
            xml.push_str(&format!("<conf><p><t>common topic{}</t></p><p>rare{}</p></conf>", i % 7, i % 91));
        }
        xml.push_str("</r>");
        xml
    }

    #[test]
    fn disk_execution_matches_in_memory() {
        let xml = corpus(300);
        let (ix, store, _path) = setup(&xml);
        for words in [vec!["common", "rare0"], vec!["common", "topic3"], vec!["topic1", "rare5", "common"]] {
            let q = Query::from_words(&ix, &words).unwrap();
            for semantics in [Semantics::Elca, Semantics::Slca] {
                for variant in [ElcaVariant::Operational, ElcaVariant::Formal] {
                    let opts = JoinOptions { semantics, variant, with_scores: true, ..Default::default() };
                    let (mem, _) = join_search(&ix, &q, &opts);
                    let (disk, _, _) = join_search_disk(&ix, &store, &q, &opts).unwrap();
                    assert_eq!(mem.len(), disk.len(), "{words:?} {semantics:?} {variant:?}");
                    let mut m = mem.clone();
                    let mut d = disk.clone();
                    m.sort_by_key(|r| r.node);
                    d.sort_by_key(|r| r.node);
                    for (a, b) in m.iter().zip(&d) {
                        assert_eq!(a.node, b.node);
                        assert!((a.score - b.score).abs() < 1e-5);
                    }
                }
            }
        }
    }

    #[test]
    fn selective_query_touches_few_blocks() {
        // A long list ("common": ~600 postings over many blocks at leaf
        // level) probed by a short one must not decode every block of the
        // long list's leaf column... with prefix decoding for row bases the
        // guarantee is that block reads are bounded by the file's block
        // count; assert the counter works and a repeat run is free.
        let xml = corpus(800);
        let (ix, store, _path) = setup(&xml);
        let q = Query::from_words(&ix, &["common", "rare17"]).unwrap();
        let opts = JoinOptions::default();
        let (_, _, reads1) = join_search_disk(&ix, &store, &q, &opts).unwrap();
        assert!(reads1 > 0, "cold run must hit the disk");
        let (_, _, reads2) = join_search_disk(&ix, &store, &q, &opts).unwrap();
        assert_eq!(reads2, 0, "hot-cache run decodes nothing");
    }

    #[test]
    fn access_path_spec_never_changes_results() {
        let xml = corpus(400);
        let (ix, store, _path) = setup(&xml);
        let opts = JoinOptions { with_scores: true, ..Default::default() };
        for words in [vec!["common", "rare17"], vec!["common", "topic3", "rare5"]] {
            let q = Query::from_words(&ix, &words).unwrap();
            let (base, _, _) = join_search_disk(&ix, &store, &q, &opts).unwrap();
            for (block_skip, prescan) in
                [(true, false), (false, false), (true, true), (false, true)]
            {
                let spec = DiskJoinSpec { join: opts, block_skip, prescan };
                let (rs, _, _) =
                    join_search_disk_spec(&ix, &store, &q, &spec, &Obs::default()).unwrap();
                assert_eq!(base.len(), rs.len(), "{words:?} {block_skip} {prescan}");
                for (a, b) in base.iter().zip(&rs) {
                    assert_eq!(a.node, b.node);
                    assert_eq!(a.score.to_bits(), b.score.to_bits());
                }
            }
        }
    }

    #[test]
    fn prescan_decodes_strictly_more_blocks() {
        let xml = corpus(600);
        let (ix, _store, path) = setup(&xml);
        let q = Query::from_words(&ix, &["common", "rare17"]).unwrap();
        let opts = JoinOptions::default();
        // Fresh stores per run: the shared block cache would otherwise
        // absorb the second run's decodes.
        let lean_store = DiskColumnStore::open(&path).unwrap();
        let lean_spec = DiskJoinSpec { join: opts, block_skip: true, prescan: false };
        let (_, _, lean) =
            join_search_disk_spec(&ix, &lean_store, &q, &lean_spec, &Obs::default()).unwrap();
        let fat_store = DiskColumnStore::open(&path).unwrap();
        let fat_spec = DiskJoinSpec { join: opts, block_skip: false, prescan: true };
        let (_, _, fat) =
            join_search_disk_spec(&ix, &fat_store, &q, &fat_spec, &Obs::default()).unwrap();
        assert!(
            lean < fat,
            "optimized pipeline must decode fewer blocks ({lean} vs {fat})"
        );
    }

    #[test]
    fn stats_reflect_plan_choices() {
        let xml = corpus(500);
        let (ix, store, _path) = setup(&xml);
        let q = Query::from_words(&ix, &["common", "rare3"]).unwrap();
        let (_, stats, _) = join_search_disk(&ix, &store, &q, &JoinOptions::default()).unwrap();
        assert!(stats.levels >= 1);
        assert!(stats.merge_joins + stats.index_joins >= stats.levels / 2);
    }
}
