//! The join-based algorithm (paper §III, Algorithm 1).
//!
//! Keyword query evaluation is reduced to relational joins over the JDewey
//! columns: for each level `l` from `min_i l_m^i` down to the root, the `k`
//! per-keyword columns are equality-joined on the JDewey number.  A number
//! matched in all `k` columns identifies an LCA at level `l`; because
//! processing is bottom-up, the semantic pruning is a *local* range check
//! (§III-E) against the rows erased by lower matches — no document-order
//! scan, no stack.
//!
//! Join plan (§III-C): per level, keywords are ordered shortest column
//! first (left-deep); each subsequent join picks **merge** or **index**
//! dynamically from the actual intermediate size, which is the paper's
//! "context-aware" optimization — the same query can use the index join at
//! the paper level and the merge join at the conference level.
//!
//! The runs of a column are exactly the compressed `(v, r, c)` triples, so
//! duplicate numbers cost one probe ("the second compression scheme groups
//! the same value in indexing time and saves the online computation",
//! §III-D).
//!
//! The level loop ([`algorithm1`]) is written once, generic over a
//! [`ColumnSource`]: a resident column and one decoded block by block
//! from disk ([`diskexec`](crate::diskexec)) differ only in where the
//! runs come from and in what a merge or a probe costs.
//!
//! # Parallel execution
//!
//! With [`JoinOptions::parallelism`] above [`Parallelism::Serial`], two
//! phases of each level run on the scoped pool while staying bit-identical
//! to the serial engine:
//!
//! * each join step partitions the candidate list into contiguous ranges
//!   and joins each range independently (results concatenate in range
//!   order — the same ascending value order the serial join emits);
//! * the matched values are *evaluated* in parallel against the
//!   level-entry erasure state, then *committed* sequentially in
//!   ascending value order (see [`algorithm1`]).

use crate::eraser::Eraser;
use crate::pool::{chunk_ranges, parallel_map, phase_chunks, Parallelism};
use crate::query::{ElcaVariant, Query, Semantics};
use crate::result::ScoredResult;
use std::borrow::Cow;
use std::io;
use std::ops::Range;
use xtk_index::columnar::{gallop_lower_bound, Column, Run};
use xtk_index::{TermData, XmlIndex};
use xtk_obs::{EventKind, JoinStrategy, Obs};

/// Adaptive merge-vs-gallop chooser, derived from the per-level
/// cardinalities the `JoinStep` trace events record (probe values vs
/// column runs).
///
/// Galloping pays off when the scanned side is much longer than the
/// probe side: each probe skips `skip = runs / values` entries on
/// average, and the exponential bracket + binary search finds the next
/// candidate in about `2·(⌊log₂ skip⌋ + 1)` comparisons.  The
/// two-pointer merge walks both inputs once for about `runs + values`
/// comparisons total.  Gallop is chosen exactly when its modeled cost is
/// lower:
///
/// ```text
/// 2 · values · (⌊log₂ skip⌋ + 1)  <  runs + values      (skip ≥ 2)
/// ```
///
/// At `skip = 8` this reproduces the fixed `GALLOP_RATIO = 8` crossover
/// the chooser used before (8·m model cost vs 9·m merge cost); away
/// from that point it adapts — a 100×-longer column gallops even with a
/// mid-sized probe list, and near-equal cardinalities always merge.
/// Strategy choice never affects results, only cost — the differential
/// tests pin that.
///
/// `⌊log₂ skip⌋` is found by doubling (`m·2^k ≤ runs`) rather than by
/// dividing, keeping this hot module free of division panic sites; the
/// identity `2^k ≤ ⌊runs/m⌋ ⟺ m·2^k ≤ runs` makes the two forms exact
/// equals.
pub fn use_gallop(values: usize, runs: usize) -> bool {
    let m = values.max(1) as u64;
    let runs64 = runs as u64;
    // skip < 2, i.e. runs/m < 2.
    if runs64 < m.saturating_mul(2) {
        return false;
    }
    // log = ⌊log₂(runs/m)⌋, at least 1 here.
    let mut log = 1u64;
    while log < 62 && m.saturating_mul(1 << (log + 1)) <= runs64 {
        log += 1;
    }
    let gallop_cost = m.saturating_mul(2).saturating_mul(log + 1);
    gallop_cost < runs64 + values as u64
}

/// Join-plan selection for the per-level joins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JoinPlan {
    /// Choose merge vs index per join from intermediate cardinalities
    /// (the paper's dynamic optimization).  Default.
    #[default]
    Dynamic,
    /// Force the merge join everywhere.
    MergeOnly,
    /// Force the index join everywhere.
    IndexOnly,
}

/// Options for [`join_search`].
#[derive(Debug, Clone, Copy)]
pub struct JoinOptions {
    /// ELCA or SLCA.
    pub semantics: Semantics,
    /// ELCA exclusion variant (ignored for SLCA).
    pub variant: ElcaVariant,
    /// Join plan selection.
    pub plan: JoinPlan,
    /// Compute ranking scores for each result (costs one pass over the
    /// matched runs' rows; leave off for pure semantic evaluation).
    pub with_scores: bool,
    /// Worker threads for the per-level joins and match evaluation.
    /// Results are bit-identical for every setting.
    pub parallelism: Parallelism,
}

impl Default for JoinOptions {
    fn default() -> Self {
        Self {
            semantics: Semantics::Elca,
            variant: ElcaVariant::Operational,
            plan: JoinPlan::Dynamic,
            with_scores: false,
            parallelism: Parallelism::Serial,
        }
    }
}

/// Execution counters, for tests, ablations and the experiment harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JoinStats {
    /// Levels (columns) processed.
    pub levels: u32,
    /// Merge joins performed across all levels.
    pub merge_joins: u32,
    /// Index joins performed across all levels.
    pub index_joins: u32,
    /// Values matched in all `k` columns (LCA candidates hit).
    pub matches: u64,
    /// Results emitted.
    pub results: u64,
}

/// Runs Algorithm 1 and returns results in emission order: level
/// descending (bottom-up), JDewey number ascending within a level.
pub fn join_search(
    ix: &XmlIndex,
    query: &Query,
    opts: &JoinOptions,
) -> (Vec<ScoredResult>, JoinStats) {
    join_search_obs(ix, query, opts, &Obs::default())
}

/// [`join_search`] with observability: counters flush into
/// `obs.metrics` under the `join.*` names and, when the tracer is live,
/// the per-level join structure is recorded as events.
///
/// Events are only emitted from the sequential driver loop, and the
/// recorded join strategy is the one decided over the *full* probe list,
/// so the event sequence is bit-identical across `Parallelism` settings.
pub fn join_search_obs(
    ix: &XmlIndex,
    query: &Query,
    opts: &JoinOptions,
    obs: &Obs,
) -> (Vec<ScoredResult>, JoinStats) {
    // Resident columns never fail, so the error arm is unreachable.
    algorithm1(ix, query, opts, &Resident, obs).unwrap_or_default()
}

/// Where Algorithm 1 reads its columns from.  Generic, not `dyn`, so
/// each source monomorphizes into its own hot path.
pub(crate) trait ColumnSource: Sync {
    type Column<'s>: LevelColumn
    where
        Self: 's;

    /// `l_0`, the deepest level every keyword reaches: no result sits
    /// below it, so the bottom-up loop starts there.
    fn start_level(&self, terms: &[&TermData]) -> io::Result<u16>;

    /// The column of `term` at `level` (1-based).
    fn column<'s>(&'s self, term: &'s TermData, level: u16) -> Option<Self::Column<'s>>;

    /// Closing hook, run after the last level and before `QueryEnd`.
    fn finish(&self, _obs: &Obs) {}

    /// The corpus posting row of row 0 of query term `term`'s columns
    /// (a document shard reads a row range of each list).
    fn row_base(&self, _term: usize) -> usize {
        0
    }

    /// What a level-`level` value is short of its corpus JDewey number.
    fn value_base(&self, _level: u16) -> u32 {
        0
    }
}

/// One keyword's column at one level.
pub(crate) trait LevelColumn: Sync {
    /// Below this many candidates a join step runs serially.
    const PAR_STEP_MIN: usize;
    /// Below this many matches a level is evaluated serially.
    const PAR_MATCH_MIN: usize;

    /// The driver order key (smallest first), traced as `column_runs`.
    fn size(&self) -> usize;

    /// The access path of a join step probing `values` candidates.
    fn strategy(&self, plan: JoinPlan, values: usize) -> JoinStrategy;

    /// Every run, in value order (the driver scan).
    fn scan(&self) -> io::Result<Cow<'_, [Run]>>;

    /// The merge input: value-ordered runs including every run whose
    /// value is in the ascending `values`.
    fn scan_matching(&self, _values: &[u32]) -> io::Result<Cow<'_, [Run]>> {
        self.scan()
    }

    /// The run for `value`; `hint` carries the position across the
    /// ascending probes of one step.
    fn find(&self, value: u32, hint: &mut usize) -> io::Result<Option<Run>>;
}

/// The resident index: borrowed runs, nothing decoded, nothing fails.
struct Resident;

impl ColumnSource for Resident {
    type Column<'s> = &'s Column;

    fn start_level(&self, terms: &[&TermData]) -> io::Result<u16> {
        Ok(terms.iter().map(|t| t.max_len()).min().unwrap_or(0))
    }

    fn column<'s>(&'s self, term: &'s TermData, level: u16) -> Option<&'s Column> {
        (level as usize).checked_sub(1).and_then(|i| term.columns.get(i))
    }
}

impl LevelColumn for &Column {
    const PAR_STEP_MIN: usize = 2048;
    const PAR_MATCH_MIN: usize = 48;

    fn size(&self) -> usize {
        self.runs.len()
    }

    fn strategy(&self, plan: JoinPlan, values: usize) -> JoinStrategy {
        let runs = self.runs.len();
        let use_index = match plan {
            JoinPlan::MergeOnly => false,
            JoinPlan::IndexOnly => true,
            JoinPlan::Dynamic => {
                // Index join costs |values| * log |runs| probes; merge join
                // walks both inputs.  The crossover with the constant-factor
                // gap between a probe and a scan step is roughly here:
                let probes = values as u64 * (runs.max(2).ilog2() as u64 + 1);
                probes * 4 < (values + runs) as u64
            }
        };
        if use_index {
            JoinStrategy::IndexProbe
        } else if use_gallop(values, runs) {
            JoinStrategy::Gallop
        } else {
            JoinStrategy::Merge
        }
    }

    fn scan(&self) -> io::Result<Cow<'_, [Run]>> {
        Ok(Cow::Borrowed(&self.runs))
    }

    fn find(&self, value: u32, hint: &mut usize) -> io::Result<Option<Run>> {
        let (lb, hit) = self.find_hinted(value, *hint);
        *hint = lb;
        Ok(hit.copied())
    }
}

/// A level's candidates: values ascending, each with its `k` per-keyword
/// runs in one flat stride-`k` buffer (unjoined slots hold a placeholder).
#[derive(Default)]
struct Candidates {
    values: Vec<u32>,
    runs: Vec<Run>,
}

impl Candidates {
    fn clear(&mut self) {
        self.values.clear();
        self.runs.clear();
    }

    /// Appends `value` with the runs of `row`, slot `slot` set to `run`.
    fn push(&mut self, value: u32, row: &[Run], slot: usize, run: Run) {
        let base = self.runs.len();
        self.values.push(value);
        self.runs.extend_from_slice(row);
        if let Some(s) = self.runs.get_mut(base + slot) {
            *s = run;
        }
    }

    fn append(&mut self, mut other: Candidates) {
        self.values.append(&mut other.values);
        self.runs.append(&mut other.runs);
    }

    /// The candidates `range` (by candidate index) as `(values, runs)`.
    fn slice(&self, range: Range<usize>, k: usize) -> (&[u32], &[Run]) {
        let values = self.values.get(range.clone()).unwrap_or(&[]);
        let runs = self.runs.get(range.start * k..range.end * k).unwrap_or(&[]);
        (values, runs)
    }
}

/// Algorithm 1 over any column source: for each level from `l_0` up to
/// the root, a left-deep join from the smallest column, then the
/// per-match semantic pruning in ascending value order.
pub(crate) fn algorithm1<S: ColumnSource>(
    ix: &XmlIndex,
    query: &Query,
    opts: &JoinOptions,
    source: &S,
    obs: &Obs,
) -> io::Result<(Vec<ScoredResult>, JoinStats)> {
    let mut stats = JoinStats::default();
    let terms: Vec<&TermData> = query.terms.iter().map(|&t| ix.term(t)).collect();
    let k = terms.len();
    if k == 0 || terms.iter().any(|t| t.is_empty()) {
        return Ok((Vec::new(), stats));
    }
    let l0 = source.start_level(&terms)?;
    obs.event(EventKind::QueryStart { keywords: k as u32, start_level: l0 as u32 });
    let term_of = |i: usize| query.terms.get(i).map_or(u32::MAX, |t| t.0);
    let par = opts.parallelism;
    let mut erasers: Vec<Eraser> = (0..k).map(|_| Eraser::new()).collect();
    let mut results = Vec::new();
    // Per-query scratch, reused across levels and join steps.
    let mut cols: Vec<S::Column<'_>> = Vec::with_capacity(k);
    let mut order: Vec<usize> = Vec::with_capacity(k);
    let mut cand = Candidates::default();
    let mut next = Candidates::default();
    let blank_row = vec![Run { value: 0, start: 0, len: 0 }; k];

    for l in (1..=l0).rev() {
        stats.levels += 1;
        let matches_before = stats.matches;
        let results_before = stats.results;
        cols.clear();
        cols.extend(terms.iter().filter_map(|t| source.column(t, l)));
        if cols.len() != k {
            continue; // unreachable: every list reaches level l <= l0
        }
        // Left-deep from the smallest column; ties keep query order.
        order.clear();
        order.extend(0..k);
        order.sort_by_key(|&i| cols.get(i).map_or(usize::MAX, |c| c.size()));
        let Some((&driver_kw, steps)) = order.split_first() else { continue };
        let Some(driver) = cols.get(driver_kw) else { continue };
        let driver_runs = driver.scan()?;
        obs.event(EventKind::LevelStart {
            level: l as u32,
            driver_term: term_of(driver_kw),
            driver_runs: driver_runs.len() as u64,
        });
        cand.clear();
        for r in driver_runs.iter() {
            cand.push(r.value, &blank_row, driver_kw, *r);
        }

        for &i in steps {
            if cand.values.is_empty() {
                break;
            }
            let Some(col) = cols.get(i) else { continue };
            let input_values = cand.values.len();
            let strategy = col.strategy(opts.plan, input_values);
            let probe = strategy == JoinStrategy::IndexProbe;
            *if probe { &mut stats.index_joins } else { &mut stats.merge_joins } += 1;
            let scanned = if probe { None } else { Some(col.scan_matching(&cand.values)?) };
            let join_range = |values: &[u32], runs: &[Run], out: &mut Candidates| {
                join_step(values, runs, k, i, col, scanned.as_deref(), strategy, out)
            };
            next.clear();
            if par.workers() > 1 && input_values >= S::Column::PAR_STEP_MIN {
                // Range outputs concatenate in range order: the serial
                // join's ascending value order.
                let ranges = chunk_ranges(input_values, phase_chunks(par));
                obs.metrics.add("pool.join_phases", 1);
                obs.metrics.add("pool.join_tasks", ranges.len() as u64);
                let parts = parallel_map(par, &ranges, |_, r| {
                    let (values, runs) = cand.slice(r.clone(), k);
                    let mut part = Candidates::default();
                    join_range(values, runs, &mut part).map(|()| part)
                });
                for part in parts {
                    next.append(part?);
                }
            } else {
                join_range(&cand.values, &cand.runs, &mut next)?;
            }
            std::mem::swap(&mut cand, &mut next);
            obs.event(EventKind::JoinStep {
                level: l as u32,
                term: term_of(i),
                column_runs: col.size() as u64,
                input_values: input_values as u64,
                output_values: cand.values.len() as u64,
                strategy,
            });
        }

        // Large levels evaluate every match on the pool against the
        // level-entry erasure state — same-level runs of distinct values
        // are disjoint, so that is what the value-order loop would see.
        // Commits run in ascending value order either way, so emission
        // order and the erasure state evolve exactly serially.
        let n = cand.values.len();
        let pooled = (par.workers() > 1 && n >= S::Column::PAR_MATCH_MIN).then(|| {
            obs.metrics.add("pool.match_phases", 1);
            obs.metrics.add("pool.match_items", n as u64);
            parallel_map(par, &chunk_ranges(n, phase_chunks(par)), |_, r| {
                let (_, runs) = cand.slice(r.clone(), k);
                let mut out = Vec::with_capacity(r.len());
                out.extend(runs.chunks_exact(k).map(|row| {
                    evaluate_match(ix, source, &terms, &erasers, row, l, opts)
                }));
                out
            })
        });
        let mut pooled = pooled.into_iter().flatten().flatten();
        for (v, row) in cand.values.iter().copied().zip(cand.runs.chunks_exact(k)) {
            let (emit, erase, score) = pooled
                .next()
                .unwrap_or_else(|| evaluate_match(ix, source, &terms, &erasers, row, l, opts));
            stats.matches += 1;
            // Every matched value identifies a node in a consistent index.
            let number = v.checked_add(source.value_base(l)).filter(|_| emit);
            if let Some(node) = number.and_then(|n| ix.node_at(l, n)) {
                results.push(ScoredResult { node, level: l, score });
                stats.results += 1;
            }
            if erase {
                for (r, e) in row.iter().zip(erasers.iter_mut()) {
                    e.erase(r.start, r.end());
                }
            }
        }
        obs.event(EventKind::LevelEnd {
            level: l as u32,
            matches: stats.matches - matches_before,
            results: stats.results - results_before,
        });
    }
    source.finish(obs);
    obs.event(EventKind::QueryEnd { results: stats.results });
    obs.metrics.add("join.levels", stats.levels as u64);
    obs.metrics.add("join.merge_joins", stats.merge_joins as u64);
    obs.metrics.add("join.index_joins", stats.index_joins as u64);
    obs.metrics.add("join.matches", stats.matches);
    obs.metrics.add("join.results", stats.results);
    Ok((results, stats))
}

/// One join step over a range of candidates: keeps those `col` holds,
/// with their run in slot `slot`.  `scanned` is the merge input (`None`
/// when probing).
#[allow(clippy::too_many_arguments)]
fn join_step<C: LevelColumn>(
    values: &[u32],
    rows: &[Run],
    k: usize,
    slot: usize,
    col: &C,
    scanned: Option<&[Run]>,
    strategy: JoinStrategy,
    out: &mut Candidates,
) -> io::Result<()> {
    let mut keep = |c: usize, run: Run| {
        if let (Some(&v), Some(row)) = (values.get(c), rows.get(c * k..(c + 1) * k)) {
            out.push(v, row, slot, run);
        }
    };
    match scanned {
        Some(runs) => walk(values, runs, strategy == JoinStrategy::Gallop, keep),
        None => {
            // Values ascend, so each probe starts where the last ended.
            let mut hint = 0usize;
            for (c, &v) in values.iter().enumerate() {
                if let Some(run) = col.find(v, &mut hint)? {
                    keep(c, run);
                }
            }
        }
    }
    Ok(())
}

/// Merges the ascending `values` against `runs`, calling `hit` with the
/// index of each value some run carries and that run.  The cursor moves
/// by exponential search when galloping, by a linear walk otherwise.
fn walk(values: &[u32], runs: &[Run], gallop: bool, mut hit: impl FnMut(usize, Run)) {
    let mut j = values.first().map_or(0, |&lo| runs.partition_point(|r| r.value < lo));
    for (c, &v) in values.iter().enumerate() {
        if gallop {
            j = gallop_lower_bound(runs, j, v);
        }
        while runs.get(j).is_some_and(|r| r.value < v) {
            j += 1;
        }
        match runs.get(j) {
            None => break,
            Some(r) if r.value == v => hit(c, *r),
            _ => {}
        }
    }
}

/// A match's verdict `(emit, erase, score)`: the ELCA/SLCA range checks
/// and (when emitting with scores) the ranking score, against the
/// erasure state as of entering this match.  Read-only, so distinct
/// same-level values (disjoint runs) can be evaluated concurrently.
fn evaluate_match<S: ColumnSource>(
    ix: &XmlIndex,
    source: &S,
    terms: &[&TermData],
    erasers: &[Eraser],
    runs: &[Run],
    level: u16,
    opts: &JoinOptions,
) -> (bool, bool, f32) {
    let (emit, erase) = match opts.semantics {
        Semantics::Slca => {
            // SLCA range check (§III-F): any erased row under this node
            // means a descendant match exists.
            let clean = runs
                .iter()
                .zip(erasers.iter())
                .all(|(r, e)| !e.any_in(r.start, r.end()));
            (clean, true)
        }
        Semantics::Elca => {
            // ELCA range check (§III-E): survive iff at least one
            // non-erased occurrence per keyword.
            let alive = runs
                .iter()
                .zip(erasers.iter())
                .all(|(r, e)| e.count_in(r.start, r.end()) < r.len);
            let erase = match opts.variant {
                ElcaVariant::Formal => true,
                ElcaVariant::Operational => alive,
            };
            (alive, erase)
        }
    };
    let score = if emit && opts.with_scores {
        score_of(ix, source, terms, erasers, runs, level)
    } else {
        0.0
    };
    (emit, erase, score)
}

/// Intersection of a sorted value list with a column, picking linear vs
/// galloping adaptively from the cardinalities (see [`use_gallop`]).
pub fn intersect(values: &[u32], col: &Column) -> Vec<u32> {
    intersect_with(values, col, use_gallop(values.len(), col.runs.len()))
}

/// Galloping intersection: for each probe value, exponential search from
/// the current column position.  O(m log(n/m)) for m probes over n runs —
/// the win when the column dwarfs the probe list.
pub fn gallop_intersect(values: &[u32], col: &Column) -> Vec<u32> {
    intersect_with(values, col, true)
}

/// Two-pointer intersection of a sorted value list with a column,
/// starting the column scan at the first run that can match.
pub fn merge_intersect(values: &[u32], col: &Column) -> Vec<u32> {
    intersect_with(values, col, false)
}

fn intersect_with(values: &[u32], col: &Column, gallop: bool) -> Vec<u32> {
    let mut out = Vec::new();
    walk(values, &col.runs, gallop, |_, r| out.push(r.value));
    out
}

/// Ranking score of an emitted result: per keyword (in query order), the
/// maximum damped score over the *non-erased* rows of its run — exactly
/// the occurrences that belong to this result rather than to a lower one.
fn score_of<S: ColumnSource>(
    ix: &XmlIndex,
    source: &S,
    terms: &[&TermData],
    erasers: &[Eraser],
    runs: &[Run],
    level: u16,
) -> f32 {
    let damping = ix.damping();
    let mut total = 0.0f32;
    for (i, ((term, eraser), run)) in terms.iter().zip(erasers).zip(runs).enumerate() {
        let base = source.row_base(i);
        let mut best = 0.0f32;
        let mut row = run.start;
        while row < run.end() {
            if eraser.is_erased(row) {
                row = eraser.next_clear(row).min(run.end());
                continue;
            }
            let at = base + row as usize;
            if let (Some(&node), Some(&score)) = (term.postings.get(at), term.scores.get(at)) {
                let damped = damping.damp(score, ix.tree().depth(node), level);
                if damped > best {
                    best = damped;
                }
            }
            row += 1;
        }
        debug_assert!(best > 0.0, "emitted results have a live occurrence per keyword");
        total += best;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantics::{naive_elca, naive_slca};
    use xtk_xml::parse;
    use xtk_xml::tree::NodeId;

    fn run(
        xml: &str,
        words: &[&str],
        semantics: Semantics,
        variant: ElcaVariant,
    ) -> (Vec<NodeId>, Vec<NodeId>) {
        let ix = XmlIndex::build(parse(xml).unwrap());
        let q = Query::from_words(&ix, words).unwrap();
        let opts = JoinOptions { semantics, variant, ..Default::default() };
        let (mut rs, _) = join_search(&ix, &q, &opts);
        rs.sort_by_key(|r| r.node);
        let got: Vec<NodeId> = rs.iter().map(|r| r.node).collect();
        let lists: Vec<&[NodeId]> =
            q.terms.iter().map(|&t| ix.term(t).postings.as_slice()).collect();
        let want = match semantics {
            Semantics::Elca => naive_elca(ix.tree(), &lists, variant),
            Semantics::Slca => naive_slca(ix.tree(), &lists),
        };
        (got, want)
    }

    #[test]
    fn elca_matches_naive_on_fig1_style_doc() {
        let xml = "<root><paper><sec>xml</sec><body><t1>xml</t1><t2>data</t2></body></paper>\
                   <paper><t>data</t></paper></root>";
        for v in [ElcaVariant::Operational, ElcaVariant::Formal] {
            let (got, want) = run(xml, &["xml", "data"], Semantics::Elca, v);
            assert_eq!(got, want, "{v:?}");
        }
    }

    #[test]
    fn slca_matches_naive() {
        let xml = "<r><a><x>p q</x></a><b><y>p</y><z>q</z></b>p q</r>";
        let (got, want) = run(xml, &["p", "q"], Semantics::Slca, ElcaVariant::Operational);
        assert_eq!(got, want);
    }

    #[test]
    fn variants_disagree_exactly_where_expected() {
        // The counterexample from the semantics tests: raw-full non-ELCA
        // descendant w.
        let xml = "<u><w><aa>a b</aa><x1>a</x1></w><c>b</c></u>";
        let (got_op, want_op) =
            run(xml, &["a", "b"], Semantics::Elca, ElcaVariant::Operational);
        assert_eq!(got_op, want_op);
        assert_eq!(got_op.len(), 2, "operational keeps the root");
        let (got_fo, want_fo) = run(xml, &["a", "b"], Semantics::Elca, ElcaVariant::Formal);
        assert_eq!(got_fo, want_fo);
        assert_eq!(got_fo.len(), 1, "formal prunes the root");
    }

    #[test]
    fn three_keywords() {
        let xml = "<r><p>a b c</p><q><s>a</s><t>b</t><u>c</u></q><v>a c</v></r>";
        for sem in [Semantics::Elca, Semantics::Slca] {
            let (got, want) = run(xml, &["a", "b", "c"], sem, ElcaVariant::Operational);
            assert_eq!(got, want, "{sem:?}");
        }
    }

    #[test]
    fn missing_keyword_gives_empty() {
        let ix = XmlIndex::build(parse("<r><a>x y</a></r>").unwrap());
        let q = Query::from_words(&ix, &["x", "y"]).unwrap();
        // Both present: fine. Now a query over one term only:
        let q1 = Query::from_words(&ix, &["x"]).unwrap();
        let (rs, _) = join_search(&ix, &q1, &JoinOptions::default());
        assert_eq!(rs.len(), 1);
        let (rs, _) = join_search(&ix, &q, &JoinOptions::default());
        assert_eq!(rs.len(), 1);
    }

    #[test]
    fn emission_order_is_bottom_up() {
        let xml = "<r>a b<x>a b</x></r>";
        let ix = XmlIndex::build(parse(xml).unwrap());
        let q = Query::from_words(&ix, &["a", "b"]).unwrap();
        let (rs, _) = join_search(&ix, &q, &JoinOptions::default());
        assert_eq!(rs.len(), 2);
        assert!(rs[0].level > rs[1].level, "deeper results first");
    }

    #[test]
    fn plans_agree() {
        let xml = "<r><c1><y1><p>top k</p><p>top</p></y1></c1><c2><y2><p>k</p><p>top k</p></y2></c2></r>";
        let ix = XmlIndex::build(parse(xml).unwrap());
        let q = Query::from_words(&ix, &["top", "k"]).unwrap();
        let mut outs = Vec::new();
        for plan in [JoinPlan::Dynamic, JoinPlan::MergeOnly, JoinPlan::IndexOnly] {
            let opts = JoinOptions { plan, ..Default::default() };
            let (mut rs, stats) = join_search(&ix, &q, &opts);
            rs.sort_by_key(|r| r.node);
            match plan {
                JoinPlan::MergeOnly => assert_eq!(stats.index_joins, 0),
                JoinPlan::IndexOnly => assert_eq!(stats.merge_joins, 0),
                JoinPlan::Dynamic => {}
            }
            outs.push(rs.iter().map(|r| r.node).collect::<Vec<_>>());
        }
        assert_eq!(outs[0], outs[1]);
        assert_eq!(outs[1], outs[2]);
    }

    #[test]
    fn scores_are_positive_and_damped() {
        // Result at the root (level 1) with occurrences at level 2:
        // score < 2.0 because of damping, > 0.
        let ix = XmlIndex::build(parse("<r><a>p</a><b>q</b></r>").unwrap());
        let q = Query::from_words(&ix, &["p", "q"]).unwrap();
        let opts = JoinOptions { with_scores: true, ..Default::default() };
        let (rs, _) = join_search(&ix, &q, &opts);
        assert_eq!(rs.len(), 1);
        assert!(rs[0].score > 0.0);
        let lambda = ix.damping().lambda();
        assert!(rs[0].score <= 2.0 * lambda + 1e-6, "both occurrences damped once");
    }

    #[test]
    fn stats_count_levels_and_matches() {
        let ix = XmlIndex::build(parse("<r><a>p q</a></r>").unwrap());
        let q = Query::from_words(&ix, &["p", "q"]).unwrap();
        let (_, stats) = join_search(&ix, &q, &JoinOptions::default());
        assert_eq!(stats.levels, 2);
        assert_eq!(stats.matches, 2); // node a and the root both match raw
        assert_eq!(stats.results, 1); // only a survives the pruning
    }
}
