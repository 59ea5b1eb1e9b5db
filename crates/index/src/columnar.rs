//! Column-oriented JDewey inverted lists (paper §III-A, Fig. 2(a)).
//!
//! A keyword's inverted list is the sequence of JDewey sequences of the
//! nodes directly containing it, sorted in JDewey order (= document order).
//! Stored by column: column `l` holds, for every posting whose node is at
//! depth `>= l`, the JDewey number of its level-`l` ancestor.
//!
//! Because the list is sorted, every column is itself sorted
//! (Property 3.1), and equal numbers are **contiguous** — so a column is
//! represented as a vector of [`Run`]s `(value, start_row, len)`, which is
//! exactly the paper's second compression scheme made into the in-memory
//! layout.  Rows are global posting indices, so a run in column `l-1`
//! either *contains* or is *disjoint from* any run in column `l`
//! (§III-E: the partial-overlap cases of Fig. 4(b) cannot occur), the
//! property range checking relies on.

use xtk_xml::jdewey::JDeweyAssignment;
use xtk_xml::tree::{NodeId, XmlTree};

/// A maximal group of consecutive rows sharing one JDewey number at one
/// level — the in-memory form of the paper's `(v, r, c)` triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    /// The shared JDewey number (identifies the ancestor node at this
    /// column's level).
    pub value: u32,
    /// First global row (posting index) of the run.
    pub start: u32,
    /// Number of rows in the run (>= 1).
    pub len: u32,
}

impl Run {
    /// One-past-the-end row of the run.
    #[inline]
    pub fn end(&self) -> u32 {
        self.start + self.len
    }

    /// Row range covered by the run.
    #[inline]
    pub fn rows(&self) -> std::ops::Range<u32> {
        self.start..self.end()
    }
}

/// One column of a keyword's inverted list: the level-`l` JDewey numbers of
/// all postings at depth `>= l`, as sorted runs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Column {
    /// Runs in increasing `value` (and `start`) order.
    pub runs: Vec<Run>,
}

impl Column {
    /// Total number of rows present at this level.
    pub fn row_count(&self) -> u64 {
        self.runs.iter().map(|r| r.len as u64).sum()
    }

    /// Number of distinct JDewey numbers in the column.
    #[inline]
    pub fn distinct(&self) -> usize {
        self.runs.len()
    }

    /// Binary-searches the run with the given JDewey number.
    pub fn find(&self, value: u32) -> Option<&Run> {
        self.runs
            .binary_search_by_key(&value, |r| r.value)
            .ok()
            .map(|i| &self.runs[i])
    }

    /// Index of the first run with `value >= v` (for merge restarts and
    /// index joins).
    pub fn lower_bound(&self, v: u32) -> usize {
        self.runs.partition_point(|r| r.value < v)
    }

    /// The JDewey number of a given global row at this level, if the row is
    /// present (its posting is at least this deep).
    pub fn value_of_row(&self, row: u32) -> Option<u32> {
        let i = self.runs.partition_point(|r| r.end() <= row);
        match self.runs.get(i) {
            Some(r) if r.start <= row => Some(r.value),
            _ => None,
        }
    }

    /// [`find`](Self::find) with a galloping restart: searches from run
    /// index `hint` (validated, so a stale hint is safe) and returns the
    /// lower-bound index alongside the hit, for the caller to carry as
    /// the next hint.  With ascending probe values the whole probe
    /// sequence costs O(m log(n/m)) instead of O(m log n).
    pub fn find_hinted(&self, value: u32, hint: usize) -> (usize, Option<&Run>) {
        let from = if hint == 0
            || self.runs.get(hint.wrapping_sub(1)).is_some_and(|r| r.value < value)
        {
            hint.min(self.runs.len())
        } else {
            0 // stale hint (probe went backwards): restart
        };
        let lb = gallop_lower_bound(&self.runs, from, value);
        let hit = self.runs.get(lb).filter(|r| r.value == value);
        (lb, hit)
    }

    /// [`value_of_row`](Self::value_of_row) with a galloping restart from
    /// run index `hint`; returns the located run index for the caller to
    /// carry as the next hint.  Ascending row probes (the top-K batch
    /// drain pattern) then cost amortized O(1)–O(log) per probe.
    pub fn value_of_row_hinted(&self, row: u32, hint: usize) -> (usize, Option<u32>) {
        let from = if hint == 0
            || self.runs.get(hint.wrapping_sub(1)).is_some_and(|r| r.end() <= row)
        {
            hint.min(self.runs.len())
        } else {
            0
        };
        let i = gallop_partition_point(&self.runs, from, |r| r.end() <= row);
        let hit = match self.runs.get(i) {
            Some(r) if r.start <= row => Some(r.value),
            _ => None,
        };
        (i, hit)
    }

    /// The runs fully contained in the row range `[start, end)`.
    ///
    /// Containment-or-disjointness (§III-E) means a binary search on
    /// `start` suffices; the returned slice is every run of this column
    /// whose rows lie under the ancestor run `[start, end)` of the
    /// *previous* (higher) column.
    pub fn runs_in_rows(&self, start: u32, end: u32) -> &[Run] {
        let lo = self.runs.partition_point(|r| r.start < start);
        let hi = self.runs.partition_point(|r| r.start < end);
        debug_assert!(self.runs[lo..hi].iter().all(|r| r.end() <= end));
        &self.runs[lo..hi]
    }

    /// Rows `rows` of the column as a column of their own: rows counted
    /// from `rows.start`, values counted from `base`.  A run straddling
    /// either end keeps only its rows inside the range.
    pub(crate) fn clip(&self, rows: std::ops::Range<u32>, base: u32) -> Column {
        let from = self.runs.partition_point(|r| r.end() <= rows.start);
        let to = self.runs.partition_point(|r| r.start < rows.end);
        let clip = |r: &Run| {
            let start = r.start.max(rows.start);
            let end = r.end().min(rows.end);
            Run { value: r.value.saturating_sub(base), start: start - rows.start, len: end - start }
        };
        Column { runs: self.runs.get(from..to).unwrap_or(&[]).iter().map(clip).collect() }
    }
}

/// Galloping (exponential) variant of `partition_point` that starts at
/// `from`: doubles the step until `pred` first fails, then binary-searches
/// the bracketed window.  Requires the usual partition precondition (`pred`
/// is true on a prefix) **and** that every index `< from` satisfies `pred`;
/// cost is O(log d) where `d` is the distance from `from` to the answer —
/// the win over a plain binary search when probes advance monotonically.
pub fn gallop_partition_point<F: Fn(&Run) -> bool>(runs: &[Run], from: usize, pred: F) -> usize {
    let n = runs.len();
    match runs.get(from) {
        None => return n, // `from` at or past the end
        Some(r) if !pred(r) => return from,
        _ => {}
    }
    // runs[from] satisfies pred; gallop until the first failure.
    let mut last_true = from;
    let mut step = 1usize;
    loop {
        let cand = from.saturating_add(step);
        match runs.get(cand) {
            Some(r) if pred(r) => {
                last_true = cand;
                step = step.saturating_mul(2);
            }
            _ => {
                // Answer lies in (last_true, min(cand, n)].
                let hi = cand.min(n);
                let window = runs.get(last_true + 1..hi).unwrap_or(&[]);
                return last_true + 1 + window.partition_point(|r| pred(r));
            }
        }
    }
}

/// Index of the first run with `value >= v`, galloping from `from` (all
/// runs before `from` must have `value < v`).
pub fn gallop_lower_bound(runs: &[Run], from: usize, value: u32) -> usize {
    gallop_partition_point(runs, from, |r| r.value < value)
}

/// Builds the per-level columns for one keyword from its posting list
/// (nodes in document order) and the tree's JDewey assignment.
///
/// Returns the columns (index 0 = level 1) — `columns.len()` is the
/// maximum posting depth `l_m` for the keyword.
pub fn build_columns(tree: &XmlTree, jd: &JDeweyAssignment, postings: &[NodeId]) -> Vec<Column> {
    let max_len = postings.iter().map(|&n| tree.depth(n)).max().unwrap_or(0) as usize;
    let mut columns = vec![Column::default(); max_len];
    // One pass per posting: walk the ancestor chain once, filling every
    // level.  Equal values are contiguous, so runs can be extended in place.
    let mut chain: Vec<u32> = Vec::with_capacity(max_len);
    for (row, &node) in postings.iter().enumerate() {
        let row = row as u32;
        chain.clear();
        let mut cur = Some(node);
        while let Some(c) = cur {
            chain.push(jd.number(c));
            cur = tree.parent(c);
        }
        chain.reverse();
        for (i, &value) in chain.iter().enumerate() {
            let col = &mut columns[i];
            match col.runs.last_mut() {
                Some(last) if last.value == value && last.end() == row => last.len += 1,
                _ => {
                    debug_assert!(
                        col.runs.last().is_none_or(|r| r.value < value),
                        "postings must be sorted in JDewey order"
                    );
                    col.runs.push(Run { value, start: row, len: 1 });
                }
            }
        }
    }
    columns
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtk_xml::parse;

    /// Tree: root -> a(x2 postings via children), b; postings at various
    /// depths including a non-leaf.
    fn setup() -> (xtk_xml::XmlTree, JDeweyAssignment) {
        let t = parse("<r><a><p/><q/></a><b><s><u/></s></b></r>").unwrap();
        let jd = JDeweyAssignment::assign(&t, 0);
        (t, jd)
    }

    #[test]
    fn columns_follow_ancestor_chains() {
        let (t, jd) = setup();
        // Postings: p, q (depth 3) and u (depth 4), all in doc order.
        let ids: Vec<NodeId> = t.ids().collect();
        let (p, q, u) = (ids[2], ids[3], ids[6]);
        let cols = build_columns(&t, &jd, &[p, q, u]);
        assert_eq!(cols.len(), 4);
        // Level 1: all three rows under root (number 1) -> one run of len 3.
        assert_eq!(cols[0].runs, vec![Run { value: 1, start: 0, len: 3 }]);
        // Level 2: rows 0-1 under a (1), row 2 under b (2).
        assert_eq!(
            cols[1].runs,
            vec![Run { value: 1, start: 0, len: 2 }, Run { value: 2, start: 2, len: 1 }]
        );
        // Level 3: p=1, q=2, s=3 (u's parent).
        assert_eq!(cols[2].row_count(), 3);
        assert_eq!(cols[2].distinct(), 3);
        // Level 4: only u.
        assert_eq!(cols[3].row_count(), 1);
    }

    #[test]
    fn clip_rebases_rows_and_values() {
        let col = Column {
            runs: vec![
                Run { value: 1, start: 0, len: 3 },
                Run { value: 4, start: 3, len: 2 },
                Run { value: 6, start: 6, len: 1 },
            ],
        };
        // Rows 2..6: the first run is cut to its last row, the third
        // lies outside.
        assert_eq!(
            col.clip(2..6, 1).runs,
            vec![Run { value: 0, start: 0, len: 1 }, Run { value: 3, start: 1, len: 2 }]
        );
        assert_eq!(col.clip(0..7, 0), col);
        assert!(col.clip(5..6, 0).runs.is_empty());
    }

    #[test]
    fn shallow_postings_skip_deep_columns() {
        let (t, jd) = setup();
        let ids: Vec<NodeId> = t.ids().collect();
        let (a, u) = (ids[1], ids[6]); // depth 2 and depth 4
        let cols = build_columns(&t, &jd, &[a, u]);
        assert_eq!(cols.len(), 4);
        assert_eq!(cols[1].row_count(), 2); // both present at level 2
        assert_eq!(cols[2].row_count(), 1); // only u's chain reaches level 3
        assert_eq!(cols[2].runs[0].start, 1, "row coordinates stay global");
    }

    #[test]
    fn find_and_lower_bound() {
        let col = Column {
            runs: vec![
                Run { value: 2, start: 0, len: 3 },
                Run { value: 5, start: 3, len: 1 },
                Run { value: 9, start: 4, len: 2 },
            ],
        };
        assert_eq!(col.find(5).unwrap().start, 3);
        assert!(col.find(4).is_none());
        assert_eq!(col.lower_bound(1), 0);
        assert_eq!(col.lower_bound(3), 1);
        assert_eq!(col.lower_bound(9), 2);
        assert_eq!(col.lower_bound(10), 3);
    }

    #[test]
    fn runs_in_rows_containment() {
        let child = Column {
            runs: vec![
                Run { value: 1, start: 0, len: 2 },
                Run { value: 4, start: 2, len: 1 },
                Run { value: 7, start: 3, len: 3 },
            ],
        };
        // Ancestor run covering rows [0,3): contains the first two runs.
        let inside = child.runs_in_rows(0, 3);
        assert_eq!(inside.len(), 2);
        assert_eq!(inside[1].value, 4);
        // Ancestor run covering rows [3,6): only the last run.
        let inside = child.runs_in_rows(3, 6);
        assert_eq!(inside.len(), 1);
        assert_eq!(inside[0].value, 7);
        assert!(child.runs_in_rows(6, 9).is_empty());
    }

    #[test]
    fn gallop_matches_partition_point_everywhere() {
        let runs: Vec<Run> = (0..200u32)
            .map(|i| Run { value: i * 3, start: i * 2, len: 2 })
            .collect();
        for from in [0usize, 1, 7, 100, 199, 200, 500] {
            for v in 0..=620u32 {
                // Precondition: every index < from has value < v.
                if !runs[..from.min(runs.len())].iter().all(|r| r.value < v) {
                    continue;
                }
                let want = runs.partition_point(|r| r.value < v);
                assert_eq!(gallop_lower_bound(&runs, from, v), want, "from={from} v={v}");
            }
        }
        assert_eq!(gallop_lower_bound(&[], 0, 5), 0);
    }

    #[test]
    fn find_hinted_agrees_with_find() {
        let col = Column {
            runs: vec![
                Run { value: 2, start: 0, len: 3 },
                Run { value: 5, start: 3, len: 1 },
                Run { value: 9, start: 4, len: 2 },
                Run { value: 14, start: 6, len: 1 },
            ],
        };
        let mut hint = 0;
        for v in 0..20u32 {
            let (lb, hit) = col.find_hinted(v, hint);
            assert_eq!(hit, col.find(v), "v={v}");
            hint = lb;
        }
        // Stale (backwards) hints restart safely.
        assert_eq!(col.find_hinted(2, 3).1, col.find(2));
        assert_eq!(col.find_hinted(0, 4).1, None);
    }

    #[test]
    fn value_of_row_hinted_agrees_with_value_of_row() {
        let col = Column {
            runs: vec![
                Run { value: 2, start: 0, len: 3 },
                Run { value: 5, start: 5, len: 2 },
                Run { value: 9, start: 7, len: 1 },
            ],
        };
        let mut hint = 0;
        for row in 0..10u32 {
            let (i, v) = col.value_of_row_hinted(row, hint);
            assert_eq!(v, col.value_of_row(row), "row={row}");
            hint = i;
        }
        // Backwards probe with a now-stale hint.
        assert_eq!(col.value_of_row_hinted(0, 2).1, col.value_of_row(0));
    }

    #[test]
    fn empty_postings_give_no_columns() {
        let (t, jd) = setup();
        assert!(build_columns(&t, &jd, &[]).is_empty());
    }

    #[test]
    fn duplicate_values_merge_into_one_run() {
        let (t, jd) = setup();
        let ids: Vec<NodeId> = t.ids().collect();
        // Two postings in the same subtree: level-1 and level-2 runs merge.
        let cols = build_columns(&t, &jd, &[ids[2], ids[3]]);
        assert_eq!(cols[0].distinct(), 1);
        assert_eq!(cols[1].distinct(), 1);
        assert_eq!(cols[2].distinct(), 2);
    }
}
