//! The maintenance write: `JDeweyMaintainer::insert_child_auto` adds a
//! paper whose title carries a workload line's keywords plus a fresh
//! marker word, `compact` produces the new tree, `XmlIndex::build`
//! rebuilds the index with the generation bumped, an executor-specific
//! swap makes it live, and a query for the marker must return the new
//! title.  The write is timed from the insert call to that answer.

use crate::bench::Ctx;
use crate::corpus::{line_keywords, sub_seed};
use std::time::Instant;
use xtk_core::ScoredResult;
use xtk_index::XmlIndex;
use xtk_xml::maintain::JDeweyMaintainer;
use xtk_xml::testutil::Rng;
use xtk_xml::{NodeId, XmlTree};

/// Writes each read-only workload makes at the end of every round.
pub const WRITES_PER_ROUND: usize = 3;

/// Spare JDewey numbers the maintainer reserves per parent, so inserts
/// rarely need the partial re-encode.
const GAP: u32 = 8;

pub struct Writer {
    maint: JDeweyMaintainer,
    years: Vec<NodeId>,
    keywords: Vec<Vec<String>>,
    rng: Rng,
    writes: u64,
}

impl Writer {
    /// A writer over `tree` whose papers borrow keywords from `lines`.
    pub fn new(tree: XmlTree, lines: &[String], seed: u64) -> Self {
        let years = tree.ids().filter(|&id| tree.label(id) == "year").collect();
        Self {
            maint: JDeweyMaintainer::new(tree, GAP),
            years,
            keywords: lines.iter().map(|l| line_keywords(l)).collect(),
            rng: Rng::seed_from_u64(sub_seed(seed, 4)),
            writes: 0,
        }
    }

    /// One write, made live by `swap(index, check line)`, which returns
    /// the answer of the first query after the swap.  Returns the write's
    /// duration in ms, or `None` when the new paper did not show up.
    pub fn write(
        &mut self,
        ctx: &mut Ctx,
        swap: impl FnOnce(&mut Ctx, XmlIndex, &str) -> Option<Vec<ScoredResult>>,
    ) -> Option<f64> {
        self.writes += 1;
        let year = self.years[self.rng.gen_range(0..self.years.len())];
        let words = self.keywords[self.rng.gen_range(0..self.keywords.len())].clone();
        let marker = format!("upd{}x{}", self.rng.gen_range(0..1_000_000u64), self.writes);
        let check = format!("{marker} {} sem=slca", words[0]);

        let root = ctx.tr.request("update");
        let t0 = Instant::now();
        let s = ctx.tr.begin("maintain.insert");
        let title = self
            .maint
            .insert_child_auto(year, "paper")
            .and_then(|paper| self.maint.insert_child_auto(paper, "title"));
        let title = match title {
            Ok(t) => t,
            Err(e) => {
                ctx.tr.end(root);
                ctx.check(false, || format!("insert failed: {e}"));
                return None;
            }
        };
        self.maint
            .tree_mut()
            .append_text(title, &format!("{} {marker}", words.join(" ")));
        ctx.tr.end(s);

        let s = ctx.tr.begin("maintain.compact");
        let (tree, map) = self.maint.compact();
        ctx.tr.end(s);
        let new_title = map.get(title.index()).copied().flatten();

        let s = ctx.tr.begin("index.build");
        let ix = XmlIndex::build(tree).with_generation(self.maint.generation());
        ctx.tr.end(s);

        let answer = swap(ctx, ix, &check);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        ctx.tr.end(root);
        let seen = match (&answer, new_title) {
            (Some(rs), Some(id)) => rs.iter().any(|r| r.node == id),
            _ => false,
        };
        ctx.check(seen, || {
            format!("write {} not visible to `{check}`", self.writes)
        });
        seen.then_some(ms)
    }
}
