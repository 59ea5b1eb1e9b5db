//! Building the unified index.
//!
//! One pass over the tree tokenizes every node's direct text and produces,
//! per distinct term, all physical structures the four systems under
//! evaluation need:
//!
//! * `postings` — node ids in document order (the Dewey inverted list; node
//!   id order equals Dewey order because the arena is in pre-order),
//! * `scores` — normalized tf–idf local scores `g(v, w)`,
//! * `columns` — the JDewey column-per-level run representation (§III),
//! * `segments` — the score-sorted length groups of Fig. 7 (§IV),
//! * `score_rows` — the full score-descending permutation RDIL scans.

use crate::columnar::{build_columns, Column};
use crate::histogram::{Histogram, HISTOGRAM_MIN_ROWS};
use crate::score::{Damping, TfIdf};
use crate::scored::{build_segments, score_order, Segment};
use crate::text::{token_counts, tokenize};
use std::collections::HashMap;
use std::ops::Range;
use xtk_xml::dewey::DeweyIndex;
use xtk_xml::jdewey::JDeweyAssignment;
use xtk_xml::pool::{chunk_ranges, parallel_map, Parallelism};
use xtk_xml::tree::{NodeId, XmlTree};

/// Deterministic per-node "global importance" in `[0.7, 1.0)` — a
/// splitmix64 hash of the node id, standing in for the link-based node
/// score real systems would mix into `g(v, w)` (paper §II-B).
pub fn node_quality(node: NodeId) -> f32 {
    let mut z = node.0 as u64 ^ 0x9E3779B97F4A7C15;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^= z >> 31;
    0.7 + 0.3 * ((z >> 40) as f32 / (1u64 << 24) as f32)
}

/// Identifier of a term in the index vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TermId(pub u32);

/// All physical index structures for one term.
#[derive(Debug, Clone)]
pub struct TermData {
    /// The term text.
    pub term: Box<str>,
    /// Nodes directly containing the term, in document order.
    pub postings: Vec<NodeId>,
    /// Local score `g(v, w)` per posting (aligned with `postings`).
    pub scores: Vec<f32>,
    /// JDewey columns (index 0 = level 1); `columns.len()` = max depth of
    /// any posting (`l_m` in the paper).
    pub columns: Vec<Column>,
    /// Score-sorted length groups (top-K join input).
    pub segments: Vec<Segment>,
    /// Full score-descending row permutation (RDIL input).
    pub score_rows: Vec<u32>,
    /// Per-level value histograms for cardinality estimation (§V-D);
    /// `None` for levels whose column is short enough to probe directly.
    pub histograms: Vec<Option<Histogram>>,
}

impl TermData {
    /// Posting-list length (the term's frequency in the corpus).
    #[inline]
    pub fn len(&self) -> usize {
        self.postings.len()
    }

    /// `true` iff the term has no postings (cannot happen for indexed
    /// terms but keeps clippy's `len_without_is_empty` honest).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.postings.is_empty()
    }

    /// Maximum JDewey sequence length over the postings (`l_m`).
    #[inline]
    pub fn max_len(&self) -> u16 {
        self.columns.len() as u16
    }
}

/// The local scoring function `g(v, w)` (paper §II-B: "the function g can
/// take multiple factors into account ... and combine them in an
/// arbitrary way" — the algorithms only need monotonicity of the
/// combiner).  All variants produce scores in `(0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LocalScorer {
    /// Normalized tf–idf times the per-node importance factor
    /// [`node_quality`] — the default, closest to a deployed ranker.
    #[default]
    TfIdfQuality,
    /// Pure normalized tf–idf (deterministic given tf/df only); useful for
    /// tests that reason about exact score values.
    TfIdf,
    /// Every occurrence scores 1.0 — degenerates ranking to "fewest damped
    /// levels win"; exercises tie handling in the top-K machinery.
    Uniform,
}

/// Options for [`XmlIndex::build_with`].
#[derive(Debug, Clone)]
pub struct IndexOptions {
    /// Damping function for score propagation (default λ = 0.9).
    pub damping: Damping,
    /// JDewey reservation gap (spare numbers per parent; default 0 —
    /// static corpora need no reserve and Table I reports it separately).
    pub jdewey_gap: u32,
    /// The local scoring function `g(v, w)`.
    pub scorer: LocalScorer,
    /// Worker threads for the build (tokenization and per-term structure
    /// construction).  The built index is bit-identical for every setting;
    /// see [`Parallelism`].
    pub parallelism: Parallelism,
}

impl Default for IndexOptions {
    fn default() -> Self {
        Self {
            damping: Damping::paper_default(),
            jdewey_gap: 0,
            scorer: LocalScorer::default(),
            parallelism: Parallelism::Serial,
        }
    }
}

/// Distinct terms of one tokenizer chunk, in first-occurrence order:
/// `(term, postings, tfs)`.
#[derive(Default)]
struct ChunkTokens {
    n_docs: u64,
    terms: Vec<(Box<str>, Vec<NodeId>, Vec<u32>)>,
    /// Position of each term in `terms`.
    local: HashMap<Box<str>, usize>,
    /// The current token, lowercased into a buffer reused across tokens.
    buf: String,
}

impl ChunkTokens {
    /// Pass 1 for one node: every token of its direct `text` adds the
    /// node to the term's postings with tf 1 on its first occurrence in
    /// the node and bumps that tf after — [`token_counts`]'s `(token, tf)`
    /// list, without a `String` per token.  Only a term this chunk has
    /// not seen yet allocates.
    fn add_node(&mut self, id: NodeId, text: &str) {
        if text.is_empty() {
            return;
        }
        self.n_docs += 1;
        let mut tokens = tokenize(text);
        while let Some(tok) = tokens.next_into(&mut self.buf) {
            let ti = match self.local.get(tok) {
                Some(&ti) => ti,
                None => {
                    let name: Box<str> = tok.into();
                    self.local.insert(name.clone(), self.terms.len());
                    self.terms.push((name, Vec::new(), Vec::new()));
                    self.terms.len() - 1
                }
            };
            let Some((_, posts, tfs)) = self.terms.get_mut(ti) else { continue };
            match (posts.last(), tfs.last_mut()) {
                (Some(&last), Some(tf)) if last == id => *tf += 1,
                _ => {
                    posts.push(id);
                    tfs.push(1);
                }
            }
        }
    }
}

/// Everything Pass 3 derives for one term (the parts computed from
/// borrowed postings/scores; zipped back with the owned vectors serially).
struct TermStructures {
    scores: Vec<f32>,
    columns: Vec<Column>,
    segments: Vec<Segment>,
    score_rows: Vec<u32>,
    histograms: Vec<Option<Histogram>>,
}

/// The unified in-memory index over one XML document.
///
/// Owns the tree plus the Dewey and JDewey encodings, the vocabulary, and
/// per-term physical structures for all four evaluated systems.
#[derive(Debug)]
pub struct XmlIndex {
    tree: XmlTree,
    dewey: DeweyIndex,
    jd: JDeweyAssignment,
    damping: Damping,
    vocab: HashMap<Box<str>, TermId>,
    terms: Vec<TermData>,
    /// `subtree_size[i]` = number of nodes in the subtree rooted at node
    /// `i` (inclusive).  Because the arena is pre-order, the subtree of `v`
    /// is exactly the id range `[v, v + subtree_size[v])`.
    subtree_size: Vec<u32>,
    /// Number of nodes with non-empty direct text ("documents" for idf).
    n_docs: u64,
    /// Index generation for result-cache invalidation: a fresh build is
    /// generation 0; rebuilds after incremental maintenance are stamped by
    /// the caller (see `JDeweyMaintainer::generation` in `xtk-xml`).  The
    /// batch result cache stores the generation a response was computed
    /// against and drops entries whose stamp no longer matches.
    generation: u64,
}

impl XmlIndex {
    /// Builds the index with default options.
    pub fn build(tree: XmlTree) -> Self {
        Self::build_with(tree, IndexOptions::default())
    }

    /// Builds the index with explicit options.
    ///
    /// With `opts.parallelism` above [`Parallelism::Serial`] the three
    /// passes fan out over worker threads; the resulting index is
    /// **bit-identical** to the serial build:
    ///
    /// * Pass 1 tokenizes contiguous node-id chunks independently, then
    ///   merges the chunk vocabularies *in chunk order* — postings stay in
    ///   document order and [`TermId`]s are assigned in global
    ///   first-occurrence order, exactly as the serial loop does;
    /// * Pass 2/3 are per-term maps whose results are merged by term index.
    pub fn build_with(tree: XmlTree, opts: IndexOptions) -> Self {
        let dewey = DeweyIndex::build(&tree);
        let jd = JDeweyAssignment::assign(&tree, opts.jdewey_gap);
        let par = opts.parallelism;

        // Pass 1: postings with term frequencies.  Over-split (4 chunks
        // per worker) so text-heavy regions don't straggle.
        let n_chunks = if par.workers() <= 1 { 1 } else { par.workers() * 4 };
        let chunks = chunk_ranges(tree.len(), n_chunks);
        let tree_ref = &tree;
        let chunked: Vec<ChunkTokens> = parallel_map(par, &chunks, |_, range| {
            let mut chunk = ChunkTokens::default();
            for i in range.clone() {
                let id = NodeId(i as u32);
                chunk.add_node(id, tree_ref.text(id));
            }
            chunk
        });
        // Deterministic merge: chunks in document order, terms in their
        // first-occurrence order within each chunk — global TermIds come
        // out identical to the single-pass serial assignment.
        let mut vocab: HashMap<Box<str>, TermId> = HashMap::new();
        let mut raw: Vec<(Vec<NodeId>, Vec<u32>)> = Vec::new();
        let mut names: Vec<Box<str>> = Vec::new();
        let mut n_docs = 0u64;
        for chunk in chunked {
            n_docs += chunk.n_docs;
            for (tok, mut posts, mut tfs) in chunk.terms {
                match vocab.entry(tok) {
                    std::collections::hash_map::Entry::Occupied(e) => {
                        let (p, t) = &mut raw[e.get().0 as usize];
                        p.append(&mut posts);
                        t.append(&mut tfs);
                    }
                    std::collections::hash_map::Entry::Vacant(e) => {
                        names.push(e.key().clone());
                        e.insert(TermId(raw.len() as u32));
                        raw.push((posts, tfs));
                    }
                }
            }
        }

        // Pass 2: tf-idf scores, normalized into (0, 1] by the global max.
        // Per-term map; the global max folds over per-term maxima in term
        // order (f64 max is exact — no rounding-order concerns).
        let model = TfIdf { n_docs: n_docs.max(1) };
        let scored: Vec<(Vec<f64>, f64)> = parallel_map(par, &raw, |_, (posts, tfs)| {
            let df = posts.len() as u64;
            let scores: Vec<f64> = tfs.iter().map(|&tf| model.raw(tf, df)).collect();
            let mx = scores.iter().fold(f64::MIN_POSITIVE, |a, &s| a.max(s));
            (scores, mx)
        });
        let max_raw = scored.iter().fold(f64::MIN_POSITIVE, |a, &(_, mx)| a.max(mx));
        let all_scores: Vec<Vec<f64>> = scored.into_iter().map(|(s, _)| s).collect();

        // Pass 3: physical structures per term.  The local score combines
        // the normalized tf-idf with a per-node "global importance" factor
        // (the paper's g may mix IR scores with link-based node scores);
        // a deterministic hash stands in for PageRank-style importance and
        // keeps scores spread out — without it, planted tf=1 terms would
        // all tie and every top-K threshold would be degenerate.
        let jd_ref = &jd;
        let built: Vec<TermStructures> = parallel_map(par, &raw, |i, (postings, _tfs)| {
            let scores: Vec<f32> = all_scores[i]
                .iter()
                .zip(postings)
                .map(|(&s, &node)| match opts.scorer {
                    LocalScorer::TfIdfQuality => (s / max_raw) as f32 * node_quality(node),
                    LocalScorer::TfIdf => (s / max_raw) as f32,
                    LocalScorer::Uniform => 1.0,
                })
                .collect();
            let columns = build_columns(tree_ref, jd_ref, postings);
            let segments = build_segments(tree_ref, postings, &scores);
            let score_rows = score_order(&scores);
            let histograms = columns
                .iter()
                .map(|c| {
                    if c.row_count() >= HISTOGRAM_MIN_ROWS {
                        Histogram::build(c)
                    } else {
                        None
                    }
                })
                .collect();
            TermStructures { scores, columns, segments, score_rows, histograms }
        });
        let mut terms = Vec::with_capacity(raw.len());
        for (i, ((postings, _tfs), built)) in raw.into_iter().zip(built).enumerate() {
            terms.push(TermData {
                term: std::mem::take(&mut names[i]),
                postings,
                scores: built.scores,
                columns: built.columns,
                segments: built.segments,
                score_rows: built.score_rows,
                histograms: built.histograms,
            });
        }

        // Subtree sizes from a reverse pass (children have larger ids).
        let mut subtree_size = vec![1u32; tree.len()];
        for i in (0..tree.len()).rev() {
            let id = NodeId(i as u32);
            if let Some(p) = tree.parent(id) {
                subtree_size[p.index()] += subtree_size[i];
            }
        }

        Self { tree, dewey, jd, damping: opts.damping, vocab, terms, subtree_size, n_docs, generation: 0 }
    }

    /// Index generation (0 for a fresh build; see the field docs).
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Stamps the index generation after a maintenance rebuild.
    pub fn set_generation(&mut self, generation: u64) {
        self.generation = generation;
    }

    /// Builder-style [`XmlIndex::set_generation`].
    pub fn with_generation(mut self, generation: u64) -> Self {
        self.generation = generation;
        self
    }

    /// The indexed tree.
    #[inline]
    pub fn tree(&self) -> &XmlTree {
        &self.tree
    }

    /// Dewey ids of every node.
    #[inline]
    pub fn dewey(&self) -> &DeweyIndex {
        &self.dewey
    }

    /// The JDewey assignment.
    #[inline]
    pub fn jd(&self) -> &JDeweyAssignment {
        &self.jd
    }

    /// The damping function used when propagating scores.
    #[inline]
    pub fn damping(&self) -> &Damping {
        &self.damping
    }

    /// Number of "documents" (nodes with direct text).
    #[inline]
    pub fn doc_count(&self) -> u64 {
        self.n_docs
    }

    /// Number of distinct terms.
    #[inline]
    pub fn vocab_size(&self) -> usize {
        self.terms.len()
    }

    /// Looks a term up in the vocabulary (terms are stored lowercased).
    pub fn term_id(&self, term: &str) -> Option<TermId> {
        if term.chars().any(|c| c.is_uppercase()) {
            self.vocab.get(term.to_lowercase().as_str()).copied()
        } else {
            self.vocab.get(term).copied()
        }
    }

    /// The physical structures of a term.
    #[inline]
    pub fn term(&self, id: TermId) -> &TermData {
        &self.terms[id.0 as usize]
    }

    /// The physical structures of a term, if `id` is in the vocabulary.
    #[inline]
    pub fn get_term(&self, id: TermId) -> Option<&TermData> {
        self.terms.get(id.0 as usize)
    }

    /// Sorts row ranges of terms into the order [`build_with`](Self::build_with)
    /// numbers terms when it indexes just those rows: by first posting,
    /// and terms first met in one node in that node's token order.  An
    /// index of a document range (a shard) numbers its terms this way.
    pub(crate) fn sort_by_first_occurrence(&self, ranges: &mut [(TermId, Range<u32>)]) {
        let first = |(id, rows): &(TermId, Range<u32>)| {
            self.get_term(*id).and_then(|t| t.postings.get(rows.start as usize)).copied()
        };
        ranges.sort_by_key(|r| (first(r), r.0));
        for group in ranges.chunk_by_mut(|a, b| first(a) == first(b)) {
            if let (Some(node), [_, _, ..]) = (group.first().and_then(first), &*group) {
                let tokens = token_counts(self.tree.text(node));
                let name = |id: TermId| self.get_term(id).map(|t| &*t.term);
                let position = |id: TermId| tokens.iter().position(|(w, _)| name(id) == Some(w));
                group.sort_by_key(|(id, _)| position(*id));
            }
        }
    }

    /// Convenience: term data by string, if indexed.
    pub fn term_by_str(&self, term: &str) -> Option<&TermData> {
        self.term_id(term).map(|t| self.term(t))
    }

    /// Iterates over all `(TermId, TermData)` pairs.
    pub fn terms(&self) -> impl Iterator<Item = (TermId, &TermData)> {
        self.terms.iter().enumerate().map(|(i, t)| (TermId(i as u32), t))
    }

    /// The arena id range `[v, end)` covered by the subtree of `v`.
    /// Valid because the arena is in pre-order.
    pub fn subtree_range(&self, v: NodeId) -> std::ops::Range<NodeId> {
        let end = v.0 + self.subtree_size[v.index()];
        v..NodeId(end)
    }

    /// Resolves a `(level, JDewey number)` pair to its node.
    #[inline]
    pub fn node_at(&self, level: u16, number: u32) -> Option<NodeId> {
        self.jd.node_at(level, number)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtk_xml::parse;

    fn index(xml: &str) -> XmlIndex {
        XmlIndex::build(parse(xml).unwrap())
    }

    #[test]
    fn vocabulary_and_postings() {
        let ix = index("<r><a>xml data</a><b>xml</b><c>keyword search</c></r>");
        assert_eq!(ix.vocab_size(), 4);
        let xml = ix.term_by_str("xml").unwrap();
        assert_eq!(xml.len(), 2);
        assert_eq!(ix.term_by_str("data").unwrap().len(), 1);
        assert!(ix.term_by_str("missing").is_none());
        // Case-insensitive lookup.
        assert!(ix.term_id("XML").is_some());
    }

    #[test]
    fn postings_in_document_order() {
        let ix = index("<r><a>w</a><b><c>w</c></b><d>w</d></r>");
        let t = ix.term_by_str("w").unwrap();
        let mut sorted = t.postings.clone();
        sorted.sort();
        assert_eq!(t.postings, sorted);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn scores_are_normalized_and_positive() {
        let ix = index("<r><a>rare</a><b>common common</b><c>common</c></r>");
        for (_, t) in ix.terms() {
            for &s in &t.scores {
                assert!(s > 0.0 && s <= 1.0, "score {s} out of range");
            }
        }
        // A rarer term outscores a more common one at equal tf.
        let rare = ix.term_by_str("rare").unwrap().scores[0];
        let common = ix.term_by_str("common").unwrap().scores[1]; // tf=1 occurrence
        assert!(rare > common);
        // Higher tf outscores lower tf for the same term.
        let t = ix.term_by_str("common").unwrap();
        assert!(t.scores[0] > t.scores[1]);
    }

    #[test]
    fn columns_match_posting_depths() {
        let ix = index("<r><a><p>deep</p></a><b>deep</b></r>");
        let t = ix.term_by_str("deep").unwrap();
        assert_eq!(t.max_len(), 3);
        assert_eq!(t.columns[0].row_count(), 2); // both under root
        assert_eq!(t.columns[2].row_count(), 1); // only the level-3 posting
    }

    #[test]
    fn segments_and_score_rows_are_consistent() {
        let ix = index("<r><a>w</a><b><c>w</c></b><d>w w w</d></r>");
        let t = ix.term_by_str("w").unwrap();
        let seg_rows: usize = t.segments.iter().map(|s| s.rows.len()).sum();
        assert_eq!(seg_rows, t.len());
        assert_eq!(t.score_rows.len(), t.len());
        // score_rows is score-descending.
        for w in t.score_rows.windows(2) {
            assert!(t.scores[w[0] as usize] >= t.scores[w[1] as usize]);
        }
    }

    #[test]
    fn subtree_ranges_cover_descendants() {
        let ix = index("<r><a><p>x</p><q>x</q></a><b>x</b></r>");
        let tree = ix.tree();
        let a = tree.children(tree.root())[0];
        let range = ix.subtree_range(a);
        let members: Vec<NodeId> = tree.descendants_or_self(a).collect();
        for m in &members {
            assert!(range.contains(m));
        }
        assert_eq!(range.end.0 - range.start.0, members.len() as u32);
    }

    #[test]
    fn doc_count_counts_text_nodes() {
        let ix = index("<r><a>x</a><b/><c>y</c></r>");
        assert_eq!(ix.doc_count(), 2);
    }

    #[test]
    fn parallel_build_is_bit_identical_to_serial() {
        // Enough text nodes to spread across many chunks, with terms that
        // recur across chunk boundaries so the vocabulary merge is
        // actually exercised.
        let mut xml = String::from("<r>");
        for i in 0..300 {
            xml.push_str(&format!("<p>shared term{} shared{} x</p>", i % 17, i % 5));
        }
        xml.push_str("</r>");
        let tree = parse(&xml).unwrap();
        let serial = XmlIndex::build_with(tree.clone(), IndexOptions::default());
        for par in [Parallelism::Fixed(2), Parallelism::Fixed(8), Parallelism::Auto] {
            let p = XmlIndex::build_with(
                tree.clone(),
                IndexOptions { parallelism: par, ..Default::default() },
            );
            assert_eq!(p.vocab_size(), serial.vocab_size(), "{par}");
            assert_eq!(p.doc_count(), serial.doc_count(), "{par}");
            for ((_, a), (_, b)) in serial.terms().zip(p.terms()) {
                // Same TermId order, same postings, bit-identical scores,
                // same physical structures.
                assert_eq!(a.term, b.term, "{par}");
                assert_eq!(a.postings, b.postings, "{par} {}", a.term);
                let sa: Vec<u32> = a.scores.iter().map(|s| s.to_bits()).collect();
                let sb: Vec<u32> = b.scores.iter().map(|s| s.to_bits()).collect();
                assert_eq!(sa, sb, "{par} {}", a.term);
                assert_eq!(a.columns, b.columns, "{par} {}", a.term);
                assert_eq!(a.score_rows, b.score_rows, "{par} {}", a.term);
            }
        }
    }

    #[test]
    fn pass_one_tokenizes_like_token_counts() {
        // Pieces whose lowercase depends on more than the char itself: a
        // word-final `Σ` lowercases to `ς`, `İ` to two chars, and `ß`,
        // Arabic-Indic digits and CJK are alphanumeric but not ASCII.
        const PIECES: &[&str] = &[
            "Σ", "ΟΔΟΣ", "σ", "İ", "İstanbul", "ß", "STRASSE", "٣", "٠١٢", "Ab", "xml", "XML",
            "É", "中文", "7", " ", " ", "-", ",", "\u{a0}", "'", "Σ-Σ",
        ];
        const RUNS: &[&str] = &["é", "Σ", "İ", "中", "٣", "ß", "A"];
        xtk_xml::testutil::prop_check(0x70C, 200, |g| {
            let mut text = String::new();
            for _ in 0..g.len_at_least(1) {
                if g.gen_bool(0.3) {
                    // A run long enough to straddle the 64-byte clamp at
                    // a varying offset.
                    let ascii = g.gen_range(0..66usize);
                    text.push_str(&"a".repeat(ascii));
                    let c = RUNS[g.gen_range(0..RUNS.len())];
                    text.push_str(&c.repeat(g.gen_range(1..70usize)));
                } else {
                    text.push_str(PIECES[g.gen_range(0..PIECES.len())]);
                }
            }
            let mut chunk = ChunkTokens::default();
            chunk.add_node(NodeId(7), &text);
            let mut got = Vec::new();
            for (term, posts, tfs) in &chunk.terms {
                xtk_xml::prop_assert_eq!(posts.as_slice(), &[NodeId(7)], "{text:?}");
                xtk_xml::prop_assert_eq!(tfs.len(), 1, "{text:?}");
                got.push((term.to_string(), tfs[0]));
            }
            xtk_xml::prop_assert_eq!(got, token_counts(&text), "{text:?}");
        });
    }

    #[test]
    fn attribute_text_is_indexed() {
        let ix = index(r#"<r><paper year="2010">xml</paper></r>"#);
        assert!(ix.term_by_str("2010").is_some());
        assert!(ix.term_by_str("xml").is_some());
    }

    #[test]
    fn scorer_variants_produce_expected_ranges() {
        let tree = parse("<r><a>x x y</a><b>x</b></r>").unwrap();
        for scorer in [LocalScorer::TfIdfQuality, LocalScorer::TfIdf, LocalScorer::Uniform] {
            let ix = XmlIndex::build_with(
                tree.clone(),
                IndexOptions { scorer, ..Default::default() },
            );
            for (_, t) in ix.terms() {
                for &s in &t.scores {
                    assert!(s > 0.0 && s <= 1.0, "{scorer:?}: {s}");
                }
            }
            if scorer == LocalScorer::Uniform {
                assert!(ix.term_by_str("x").unwrap().scores.iter().all(|&s| s == 1.0));
            }
            if scorer == LocalScorer::TfIdf {
                // tf=2 occurrence outscores tf=1 deterministically.
                let x = ix.term_by_str("x").unwrap();
                assert!(x.scores[0] > x.scores[1]);
            }
        }
    }
}
