//! Physical lowering: rewritten logical plan → executor configuration.
//!
//! [`lower`] collapses the rewritten IR into an [`ExecSpec`]: which top-K
//! execution runs ([`TopKExec`]), how the join accesses columns (the
//! effective [`JoinPlan`], footer block skipping, whole-sequence
//! prescan), and how the output is shaped (scoring, truncation).
//! [`execute_memory`] and [`execute_disk`] are the lowered drivers behind
//! [`Engine::run`](crate::Engine::run) and the on-disk
//! [`Executor`](crate::Executor) — the procedural per-algorithm dispatch
//! they replace lives on only for the baselines (stack, index, RDIL)
//! that the plan does not cover.  [`explain`] keeps the logical tree,
//! the rewrite log, the rewritten tree and the physical spec as one
//! [`PlanExplain`]; it renders them byte-stably for the EXPLAIN snapshot
//! gate, and [`annotate_executed`] renders the same tree with a trace's
//! actuals as the executed plan.
//!
//! The lowering contract (DESIGN.md §14): for a fixed rule set the
//! lowered execution returns bit-identical results to the procedural
//! dispatch it replaced, and for any two rule sets the results are
//! bit-identical to each other — rules move work, never answers.

use crate::diskexec::{join_search_disk_spec, DiskJoinSpec};
use crate::hybrid::{hybrid_topk_planned, PlannedEngine};
use crate::joinbased::{join_search_obs, JoinOptions, JoinPlan};
use crate::plan::bind;
use crate::plan::cost::{self, CostSummary, PlanStats};
use crate::plan::logical::{join_plan_name, LevelRange, PlanNode, ScanMode, TopKStrategy};
use crate::plan::rewrite::{rewrite_costed, AppliedRule, COST_MODEL};
use crate::pool::Parallelism;
use crate::query::{ElcaVariant, Query, Semantics};
use crate::request::{obs_for, respond, ExecutedEngine, QueryRequest, QueryResponse, ScoreMode};
use crate::result::sort_ranked;
use crate::topk::{topk_search_obs, ThresholdKind, TopKOptions};
use std::fmt::Write as _;
use std::io;
use xtk_index::diskcol::DiskColumnStore;
use xtk_index::XmlIndex;
use xtk_obs::{EventKind, Trace, TraceEvent};

/// Which top-K execution the physical plan runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopKExec {
    /// The §V-D cost-based choice between the star join and the complete
    /// sort, decided from the cardinality estimate at run time.
    Hybrid {
        /// Result budget.
        k: usize,
    },
    /// The §IV top-K star join, forced.
    Star {
        /// Result budget.
        k: usize,
    },
    /// Compute the complete set (sort and truncate per the spec).
    Complete {
        /// True when noop elimination proved a cost-based top-K complete
        /// (`k >=` candidate bound): the in-memory driver then emulates
        /// the hybrid planner's complete route — scored, operational
        /// exclusion — without paying for the cardinality estimate.
        elided: bool,
    },
}

/// The physical execution recipe a plan lowers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecSpec {
    /// Top-K execution mode.
    pub topk: TopKExec,
    /// ELCA or SLCA.
    pub semantics: Semantics,
    /// ELCA exclusion variant.
    pub variant: ElcaVariant,
    /// The effective join plan: the plan node's choice when probe leaves
    /// survive (or the query is single-keyword), merge-only when the
    /// probe pushdown is disabled.
    pub plan: JoinPlan,
    /// Unseen-result bound for the star join.
    pub threshold: ThresholdKind,
    /// Whether the complete path scores and rank-sorts its results.
    pub scored: bool,
    /// `Some(k)` truncates the complete path's output.
    pub truncate: Option<usize>,
    /// Disk: decode every block of every level of every keyword up front
    /// (the §III-B whole-sequence strawman; true when any leaf is an
    /// unpruned materializing scan).
    pub prescan: bool,
    /// Disk: probe leaves may skip blocks through the v2/v3 last-value
    /// footers and the index-probe access path is enabled.
    pub block_skip: bool,
}

/// Leaf census used to derive the access-path flags.
#[derive(Default)]
struct Census {
    leaves: usize,
    probes: usize,
    materialized: usize,
}

fn leaf_census(node: &PlanNode, c: &mut Census) {
    match node {
        PlanNode::Scan(leaf) => {
            c.leaves += 1;
            if leaf.mode == ScanMode::Materialize {
                c.materialized += 1;
            }
        }
        PlanNode::IndexProbe(_) => {
            c.leaves += 1;
            c.probes += 1;
        }
        PlanNode::Join { inputs, .. } => {
            for i in inputs {
                leaf_census(i, c);
            }
        }
        PlanNode::Filter { input, .. }
        | PlanNode::TopK { input, .. }
        | PlanNode::Merge { input, .. } => leaf_census(input, c),
    }
}

/// Lowers a (rewritten) plan to its execution spec.  Nodes elided by the
/// rewrites fall back to the request's knobs, so a collapsed join or
/// top-K still lowers to the execution the request asked for.
pub fn lower(plan: &PlanNode, req: &QueryRequest) -> ExecSpec {
    let mut semantics = req.semantics;
    let mut variant = req.variant;
    let mut join_plan = req.plan;
    let mut threshold = req.threshold;
    let mut scores = req.scores;
    let mut k = req.k;
    let mut strategy = match (req.algorithm, req.k) {
        (crate::request::QueryAlgorithm::Auto, Some(_)) => TopKStrategy::Auto,
        (crate::request::QueryAlgorithm::TopKJoin, Some(_)) => TopKStrategy::StarJoin,
        _ => TopKStrategy::SortComplete,
    };
    let mut bound = None;
    let mut node = plan;
    loop {
        match node {
            PlanNode::TopK {
                input,
                k: nk,
                strategy: ns,
                threshold: nt,
                scores: nsc,
                bound: nb,
            } => {
                k = *nk;
                strategy = *ns;
                threshold = *nt;
                scores = *nsc;
                bound = *nb;
                node = input;
            }
            PlanNode::Merge { input, .. } => node = input,
            PlanNode::Filter { input, semantics: s, variant: v } => {
                semantics = *s;
                variant = *v;
                node = input;
            }
            PlanNode::Join { plan: p, .. } => {
                join_plan = *p;
                break;
            }
            PlanNode::Scan(_) | PlanNode::IndexProbe(_) => break,
        }
    }
    let mut census = Census::default();
    leaf_census(plan, &mut census);
    // No surviving probe leaves on a multi-keyword join: the pushdown is
    // off, so the physical join must not take the index-probe path.
    let plan_effective = if census.probes == 0 && census.leaves >= 2 {
        JoinPlan::MergeOnly
    } else {
        join_plan
    };
    let scored = scores == ScoreMode::Ranked;
    let topk = match (strategy, k) {
        (TopKStrategy::Auto, Some(k)) => TopKExec::Hybrid { k },
        (TopKStrategy::StarJoin, Some(k)) => TopKExec::Star { k },
        (TopKStrategy::SortComplete, _)
        | (TopKStrategy::Auto | TopKStrategy::StarJoin, None) => {
            TopKExec::Complete { elided: bound.is_some() }
        }
    };
    ExecSpec {
        topk,
        semantics,
        variant,
        plan: plan_effective,
        threshold,
        scored,
        truncate: k,
        prescan: census.materialized > 0,
        block_skip: census.probes > 0,
    }
}

/// Everything one costed planning pass produces: the spec plus the
/// rewrite/gate/advice logs and per-node estimates EXPLAIN renders.
pub(crate) struct Planned {
    /// The execution recipe.
    pub spec: ExecSpec,
    /// The rewritten logical tree.
    pub rewritten: PlanNode,
    /// Rules that fired.
    pub applied: Vec<AppliedRule>,
    /// Enabled rules the cost model gated off.
    pub gated: Vec<AppliedRule>,
    /// Physical choices the cost model forced (index-only join).
    pub advice: Vec<AppliedRule>,
    /// Per-node estimates (absent without statistics).
    pub summary: Option<CostSummary>,
}

/// Binds the logical plan for `query`, rewrites it under the request's
/// rule set — costed against `stats` when a snapshot is supplied — and
/// lowers it.  `index_advice` lets the cost model force the index-only
/// join when the statistics prove the runtime chooser would take the
/// index path at every level anyway (only the single-store disk executor
/// passes true: its runtime chooser is the one the proof models).
pub(crate) fn lower_query_costed(
    ix: &XmlIndex,
    query: &Query,
    req: &QueryRequest,
    stats: Option<&PlanStats>,
    index_advice: bool,
) -> Planned {
    let logical = bind::logical_plan(ix, query, req);
    let bound = bind::candidate_bound(ix, query);
    plan_costed(logical, Some(bound), req, stats, index_advice, false)
}

/// The rewrite → lower → advise core shared by [`lower_query_costed`]
/// and [`explain`] (which inserts the scatter-gather merge first).
/// `want_summary` gates the rendered per-node estimate lines: only
/// EXPLAIN reads them, so the serving path skips the string building.
fn plan_costed(
    logical: PlanNode,
    bound: Option<u64>,
    req: &QueryRequest,
    stats: Option<&PlanStats>,
    index_advice: bool,
    want_summary: bool,
) -> Planned {
    let rw = rewrite_costed(logical, req.rules, bound, stats);
    let mut spec = lower(&rw.plan, req);
    let mut advice = Vec::new();
    if let Some(stats) = stats {
        if index_advice {
            apply_index_advice(stats, &rw.plan, &mut spec, &mut advice);
        }
    }
    let summary =
        if want_summary { stats.map(|s| cost::summarize(s, &rw.plan)) } else { None };
    Planned { spec, rewritten: rw.plan, applied: rw.applied, gated: rw.gated, advice, summary }
}

/// Uncosted [`lower_query_costed`]: the PR 9 pipeline, kept for the
/// stat-less callers and tests.
pub(crate) fn lower_query(ix: &XmlIndex, query: &Query, req: &QueryRequest) -> ExecSpec {
    lower_query_costed(ix, query, req, None, false).spec
}

/// The lowered in-memory driver for the join-family algorithms (Auto,
/// JoinBased, TopKJoin).  The baselines keep their procedural dispatch in
/// `request.rs`.
pub(crate) fn execute_memory(
    ix: &XmlIndex,
    parallelism: Parallelism,
    query: &Query,
    req: &QueryRequest,
) -> QueryResponse {
    execute_memory_spec(ix, parallelism, query, req, lower_query(ix, query, req))
}

/// [`execute_memory`] with a pre-lowered spec (planner/plan-cache path).
pub(crate) fn execute_memory_spec(
    ix: &XmlIndex,
    parallelism: Parallelism,
    query: &Query,
    req: &QueryRequest,
    spec: ExecSpec,
) -> QueryResponse {
    let obs = obs_for(req);
    match spec.topk {
        TopKExec::Hybrid { k } => {
            let (rs, planned) =
                hybrid_topk_planned(ix, query, k, spec.semantics, parallelism, spec.plan, &obs);
            let engine = match planned {
                PlannedEngine::TopKJoin => ExecutedEngine::TopKJoin,
                PlannedEngine::CompleteJoin => ExecutedEngine::JoinBased,
            };
            respond(obs, rs, engine)
        }
        TopKExec::Star { k } => {
            let opts = TopKOptions {
                k,
                semantics: spec.semantics,
                threshold: spec.threshold,
                parallelism,
            };
            let (rs, _) = topk_search_obs(ix, query, &opts, &obs);
            respond(obs, rs, ExecutedEngine::TopKJoin)
        }
        TopKExec::Complete { elided } => {
            // An elided cost-based top-K reproduces the hybrid planner's
            // complete route bit for bit: scored, operational exclusion.
            let (with_scores, variant) =
                if elided { (true, ElcaVariant::Operational) } else { (spec.scored, spec.variant) };
            let opts = JoinOptions {
                semantics: spec.semantics,
                variant,
                plan: spec.plan,
                with_scores,
                parallelism,
            };
            let (mut rs, _) = join_search_obs(ix, query, &opts, &obs);
            if with_scores {
                sort_ranked(&mut rs);
            }
            if let Some(k) = spec.truncate {
                rs.truncate(k);
            }
            respond(obs, rs, ExecutedEngine::JoinBased)
        }
    }
}

/// The [`DiskJoinSpec`] a lowered spec drives the disk executor with.
pub(crate) fn disk_join_spec(spec: &ExecSpec, parallelism: Parallelism) -> DiskJoinSpec {
    DiskJoinSpec {
        join: JoinOptions {
            semantics: spec.semantics,
            variant: spec.variant,
            plan: spec.plan,
            with_scores: spec.scored,
            parallelism,
        },
        block_skip: spec.block_skip,
        prescan: spec.prescan,
    }
}

/// The lowered on-disk driver.  The disk executor implements the
/// join-based algorithm only, so a cost-based top-K lowers to the
/// complete join (sort + truncate) exactly as [`DiskEngine`] always has,
/// and a forced star join is rejected.
///
/// [`DiskEngine`]: crate::DiskEngine
pub(crate) fn execute_disk_spec(
    ix: &XmlIndex,
    store: &DiskColumnStore,
    parallelism: Parallelism,
    query: &Query,
    req: &QueryRequest,
    spec: ExecSpec,
) -> io::Result<QueryResponse> {
    if let TopKExec::Star { .. } = spec.topk {
        return Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "the on-disk executor implements the join-based algorithm only",
        ));
    }
    let obs = obs_for(req);
    let dspec = disk_join_spec(&spec, parallelism);
    let (mut rs, _, _) = join_search_disk_spec(ix, store, query, &dspec, &obs)?;
    if spec.scored {
        sort_ranked(&mut rs);
    }
    if let Some(k) = spec.truncate {
        rs.truncate(k);
    }
    Ok(respond(obs, rs, ExecutedEngine::JoinBased))
}

/// Which backend an EXPLAIN renders the physical plan for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExplainTarget {
    /// The in-memory engine.
    Memory,
    /// The single-store disk engine.
    Disk,
    /// The sharded scatter-gather engine.
    Sharded {
        /// Shard count.
        shards: usize,
        /// Whether the TA-style bound prunes dominated shards.
        ta_prune: bool,
    },
}

/// A full EXPLAIN: the plan before and after rewriting, the rewrite log,
/// and the physical plan it lowers to.  The plans are kept as the IR, so
/// one tree renders both the plan ([`Display`](std::fmt::Display)) and
/// the executed plan ([`annotate_executed`]).  Every section renders
/// byte-stably, so the whole report can be snapshot-gated.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanExplain {
    /// The binder's unrewritten logical tree.
    pub logical: PlanNode,
    /// The rule applications, in firing order.
    pub applied: Vec<AppliedRule>,
    /// Enabled rules the cost model gated off.
    pub gated: Vec<AppliedRule>,
    /// Physical choices the cost model forced (index-only join).
    pub advice: Vec<AppliedRule>,
    /// Per-node cost estimates of the rewritten plan.
    pub cost: Option<CostSummary>,
    /// The tree after all enabled rules.
    pub rewritten: PlanNode,
    /// The execution recipe the rewritten tree lowers to.
    pub spec: ExecSpec,
    /// The backend the physical plan is rendered for.
    pub target: ExplainTarget,
    /// Where the executed plan came from (`Some("cold")` / `Some("cached")`)
    /// when a planner reported it; `None` for a planner-less EXPLAIN.
    pub provenance: Option<&'static str>,
}

impl std::fmt::Display for PlanExplain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "== logical plan ==")?;
        f.write_str(&self.logical.render())?;
        writeln!(f, "== rewrites ==")?;
        if self.applied.is_empty() {
            writeln!(f, "(none)")?;
        }
        for a in &self.applied {
            writeln!(f, "{}: {}", a.rule, a.detail)?;
        }
        if self.cost.is_some() {
            writeln!(f, "== cost decisions ==")?;
            if self.gated.is_empty() && self.advice.is_empty() {
                writeln!(f, "(none)")?;
            }
            for g in &self.gated {
                writeln!(f, "gated {}: {}", g.rule, g.detail)?;
            }
            for a in &self.advice {
                writeln!(f, "{}: {}", a.rule, a.detail)?;
            }
        }
        writeln!(f, "== rewritten plan ==")?;
        f.write_str(&self.rewritten.render())?;
        if let Some(cost) = &self.cost {
            writeln!(f, "== cost estimates ==")?;
            for line in &cost.lines {
                writeln!(f, "{line}")?;
            }
        }
        writeln!(f, "== physical plan ==")?;
        f.write_str(&render_physical(self, None))?;
        if let Some(src) = self.provenance {
            writeln!(f, "== plan cache ==")?;
            writeln!(f, "source: {src}")?;
        }
        Ok(())
    }
}

/// Applies the cost model's physical advice to a lowered spec: forces
/// the index-only join when [`cost::index_only_decisive`] proves the
/// runtime chooser would take the index path at every level anyway.
fn apply_index_advice(
    stats: &PlanStats,
    rewritten: &PlanNode,
    spec: &mut ExecSpec,
    advice: &mut Vec<AppliedRule>,
) {
    if spec.block_skip
        && spec.plan == JoinPlan::Dynamic
        && cost::index_only_decisive(stats, rewritten)
    {
        spec.plan = JoinPlan::IndexOnly;
        advice.push(AppliedRule {
            rule: COST_MODEL,
            detail: format!(
                "join: plan=index-only (driver runs x {} < rows at every probed level)",
                cost::INDEX_JOIN_ADVANTAGE
            ),
        });
    }
}

/// Builds the EXPLAIN report for a bound query against `target`,
/// costed against an in-memory statistics snapshot (so the report is a
/// pure function of the index and the request, never of I/O state).
pub fn explain(
    ix: &XmlIndex,
    query: &Query,
    req: &QueryRequest,
    target: ExplainTarget,
) -> PlanExplain {
    explain_costed(ix, query, req, target, Some(&PlanStats::from_index(ix)))
}

/// [`explain`] against a given statistics snapshot; `None` explains the
/// uncosted plan an ungated [`Planner`](crate::plan::Planner) serves.
pub(crate) fn explain_costed(
    ix: &XmlIndex,
    query: &Query,
    req: &QueryRequest,
    target: ExplainTarget,
    stats: Option<&PlanStats>,
) -> PlanExplain {
    let mut logical = bind::logical_plan(ix, query, req);
    if let ExplainTarget::Sharded { shards, ta_prune } = target {
        logical = insert_merge(logical, shards, ta_prune);
    }
    let bound = bind::candidate_bound(ix, query);
    // Index-only forcing models the single-store disk chooser; the
    // other targets never apply it, and neither does their EXPLAIN.
    let planned =
        plan_costed(logical.clone(), Some(bound), req, stats, target == ExplainTarget::Disk, true);
    PlanExplain {
        logical,
        applied: planned.applied,
        gated: planned.gated,
        advice: planned.advice,
        cost: planned.summary,
        rewritten: planned.rewritten,
        spec: planned.spec,
        target,
        provenance: None,
    }
}

/// Renders the executed plan: the physical plan of `explain` with the
/// trace's actuals on its `Exec*` lines, then one `io:` line per store,
/// each followed by the §III-C record of the join executions that read
/// it — start level, per level the driver and its runs, every join step
/// (strategy, term, column runs, input → output values), and matched →
/// emitted.  The tree is rendered once however many shards executed:
/// the sharded gather maps store ids to shard ids and term ids to the
/// global query's, so shards differ only below their `io: shard=N` line.
pub fn annotate_executed(explain: &PlanExplain, trace: &Trace) -> String {
    let exec = Executed::gather(trace);
    let mut out = render_physical(explain, Some(&exec));
    let leaves = explain.rewritten.leaves();
    let name = |id: u32| match leaves.iter().find(|l| l.term.0 == id) {
        Some(leaf) => leaf.name.clone(),
        None => format!("term#{id}"),
    };
    if exec.stores.len() <= 1 {
        let _ = writeln!(out, "io: decodes={}", exec.decodes);
        for seg in &exec.segments {
            render_levels(&mut out, seg.events, &name);
        }
    } else {
        for &(store, decodes) in &exec.stores {
            let _ = writeln!(out, "io: shard={store} decodes={decodes}");
            for seg in exec.segments.iter().filter(|s| s.store == Some(store)) {
                render_levels(&mut out, seg.events, &name);
            }
        }
    }
    out
}

/// The totals and join executions of one executed trace.
struct Executed<'t> {
    events: &'t [TraceEvent],
    /// Decodes per store id, ascending by store.
    stores: Vec<(u32, u64)>,
    decodes: u64,
    matches: u64,
    /// The `query_start` … `query_end` segments that ran join levels.
    segments: Vec<Segment<'t>>,
}

/// One join execution: the store it read (none in memory) and its events.
struct Segment<'t> {
    store: Option<u32>,
    events: &'t [TraceEvent],
}

impl<'t> Executed<'t> {
    fn gather(trace: &'t Trace) -> Self {
        let events = trace.events.as_slice();
        let mut ex =
            Executed { events, stores: Vec::new(), decodes: 0, matches: 0, segments: Vec::new() };
        // (first event, store read, whether a join level ran)
        let mut open: Option<(usize, Option<u32>, bool)> = None;
        for (i, e) in events.iter().enumerate() {
            match e.kind {
                EventKind::QueryStart { .. } => open = Some((i, None, false)),
                EventKind::LevelStart { .. } => {
                    if let Some((_, _, levels)) = open.as_mut() {
                        *levels = true;
                    }
                }
                EventKind::LevelEnd { matches, .. } => {
                    ex.matches = ex.matches.saturating_add(matches);
                }
                EventKind::StoreIo { store, decodes } => {
                    ex.decodes = ex.decodes.saturating_add(decodes);
                    match ex.stores.iter_mut().find(|(s, _)| *s == store) {
                        Some((_, d)) => *d = d.saturating_add(decodes),
                        None => ex.stores.push((store, decodes)),
                    }
                    if let Some((_, s, _)) = open.as_mut() {
                        *s = Some(store);
                    }
                }
                EventKind::QueryEnd { .. } => {
                    if let Some((start, store, true)) = open.take() {
                        let events = events.get(start..=i).unwrap_or(&[]);
                        ex.segments.push(Segment { store, events });
                    }
                }
                _ => {}
            }
        }
        ex.stores.sort_unstable();
        ex
    }
}

/// The per-level lines of one join execution.
fn render_levels(out: &mut String, events: &[TraceEvent], name: &dyn Fn(u32) -> String) {
    for e in events {
        let _ = match e.kind {
            EventKind::QueryStart { start_level, .. } => {
                writeln!(out, "start level: {start_level}")
            }
            EventKind::LevelStart { level, driver_term, driver_runs } => {
                writeln!(out, "level {level}: drive {} ({driver_runs} runs)", name(driver_term))
            }
            EventKind::JoinStep {
                term, column_runs, input_values, output_values, strategy, ..
            } => {
                writeln!(
                    out,
                    "  {}-join {} ({column_runs} runs): {input_values} -> {output_values} values",
                    strategy.as_str(),
                    name(term)
                )
            }
            EventKind::LevelEnd { matches, results, .. } => {
                writeln!(out, "  matched {matches} -> emitted {results}")
            }
            _ => Ok(()),
        };
    }
}

/// Wraps the scatter-gather merge between the top-K gather and the
/// per-shard pipeline, mirroring where the sharded engine merges.
fn insert_merge(plan: PlanNode, shards: usize, ta_prune: bool) -> PlanNode {
    match plan {
        PlanNode::TopK { input, k, strategy, threshold, scores, bound } => PlanNode::TopK {
            input: Box::new(PlanNode::Merge { input, shards, ta_prune }),
            k,
            strategy,
            threshold,
            scores,
            bound,
        },
        other => PlanNode::Merge { input: Box::new(other), shards, ta_prune },
    }
}

fn onoff(b: bool) -> &'static str {
    if b {
        "on"
    } else {
        "off"
    }
}

/// Renders the physical plan of `ex`, byte-stable (no floats, no hash
/// order, no parallelism — the same request renders identically on any
/// machine), with the executed actuals appended when `exec` is given.
fn render_physical(ex: &PlanExplain, exec: Option<&Executed<'_>>) -> String {
    let spec = &ex.spec;
    let mut out = String::new();
    let target_name = match ex.target {
        ExplainTarget::Memory => "memory",
        ExplainTarget::Disk => "disk",
        ExplainTarget::Sharded { .. } => "sharded",
    };
    let thr = match spec.threshold {
        ThresholdKind::Tight => "tight",
        ThresholdKind::Classic => "classic",
    };
    let memory = ex.target == ExplainTarget::Memory;
    let mode = match spec.topk {
        TopKExec::Star { k } => format!("star-join k={k} threshold={thr}"),
        TopKExec::Hybrid { k } if memory => format!("hybrid k={k}"),
        // The disk and sharded executors have no star join: the
        // cost-based choice degenerates to the complete sort.
        TopKExec::Hybrid { k } => format!("sort-complete k={k}"),
        TopKExec::Complete { elided } => {
            let mut s = String::from(if spec.scored || (elided && memory) {
                "sort-complete"
            } else {
                "complete"
            });
            if let Some(k) = spec.truncate {
                let _ = write!(s, " k={k}");
            }
            if elided && memory {
                s.push_str(" (hybrid elided)");
            }
            s
        }
    };
    let _ = writeln!(out, "ExecTopK: target={target_name} mode={mode}");
    let mut depth = 1usize;
    if let ExplainTarget::Sharded { shards, ta_prune } = ex.target {
        let _ = writeln!(out, "  ExecMerge: shards={shards} ta-prune={}", onoff(ta_prune));
        depth = 2;
    }
    for _ in 0..depth {
        out.push_str("  ");
    }
    let _ = write!(
        out,
        "ExecJoin: plan={} semantics={} variant={} scored={} block-skip={} prescan={}",
        join_plan_name(spec.plan),
        match spec.semantics {
            Semantics::Elca => "elca",
            Semantics::Slca => "slca",
        },
        match spec.variant {
            ElcaVariant::Operational => "operational",
            ElcaVariant::Formal => "formal",
        },
        if spec.scored { "yes" } else { "no" },
        onoff(spec.block_skip),
        onoff(spec.prescan),
    );
    if let Some(exec) = exec {
        let _ = write!(out, " [actual decodes={} matches={}", exec.decodes, exec.matches);
        if let Some(c) = &ex.cost {
            let _ = write!(out, "; est blocks={}", c.est_blocks);
        }
        out.push(']');
    }
    out.push('\n');
    render_leaves(&ex.rewritten, exec, &mut out, depth + 1);
    out
}

fn render_leaves(node: &PlanNode, exec: Option<&Executed<'_>>, out: &mut String, depth: usize) {
    let leaf = match node {
        PlanNode::Scan(leaf) | PlanNode::IndexProbe(leaf) => leaf,
        PlanNode::Join { inputs, .. } => {
            for i in inputs {
                render_leaves(i, exec, out, depth);
            }
            return;
        }
        PlanNode::Filter { input, .. }
        | PlanNode::TopK { input, .. }
        | PlanNode::Merge { input, .. } => return render_leaves(input, exec, out, depth),
    };
    for _ in 0..depth {
        out.push_str("  ");
    }
    let levels = LevelRange(leaf.levels);
    let _ = match (node, leaf.mode) {
        (PlanNode::IndexProbe(_), _) => {
            write!(out, "ExecProbe: term=\"{}\" levels={levels} skip=footers", leaf.name)
        }
        (_, ScanMode::Materialize) => {
            write!(out, "ExecScan: term=\"{}\" levels={levels} mode=materialize", leaf.name)
        }
        (_, ScanMode::Stream) => {
            write!(out, "ExecScan: term=\"{}\" levels={levels} mode=stream", leaf.name)
        }
    };
    if let Some(exec) = exec {
        leaf_actuals(out, exec.events, leaf.term.0);
    }
    out.push('\n');
}

/// The executed join steps of one leaf — or, when it never joined in,
/// the levels it drove.
fn leaf_actuals(out: &mut String, events: &[TraceEvent], term: u32) {
    let (mut steps, mut out_values, mut driver_levels, mut driver_runs) = (0u64, 0u64, 0u64, 0u64);
    let mut strategies: Vec<&'static str> = Vec::new();
    for e in events {
        match e.kind {
            EventKind::JoinStep { term: t, output_values, strategy, .. } if t == term => {
                steps = steps.saturating_add(1);
                out_values = out_values.saturating_add(output_values);
                if !strategies.contains(&strategy.as_str()) {
                    strategies.push(strategy.as_str());
                }
            }
            EventKind::LevelStart { driver_term, driver_runs: r, .. } if driver_term == term => {
                driver_levels = driver_levels.saturating_add(1);
                driver_runs = driver_runs.saturating_add(r);
            }
            _ => {}
        }
    }
    if steps > 0 {
        strategies.sort_unstable();
        let _ = write!(
            out,
            " [actual steps={steps} out={out_values} strategy={}]",
            strategies.join("+")
        );
    } else if driver_levels > 0 {
        let _ = write!(out, " [actual driver levels={driver_levels} runs={driver_runs}]");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::rewrite::RuleSet;
    use xtk_xml::parse as parse_xml;

    fn ix() -> XmlIndex {
        XmlIndex::build(
            parse_xml(
                "<bib><conf><paper><title>xml keyword search</title></paper>\
                 <paper><title>top k search</title></paper></conf></bib>",
            )
            .unwrap(),
        )
    }

    fn bound(ix: &XmlIndex, text: &str) -> (Query, QueryRequest) {
        bind::compile(ix, text, &QueryRequest::default()).unwrap()
    }

    #[test]
    fn default_rules_lower_to_the_probing_pipeline() {
        let ix = ix();
        let (q, req) = bound(&ix, "xml search k=2");
        let spec = lower_query(&ix, &q, &req);
        assert_eq!(spec.topk, TopKExec::Hybrid { k: 2 });
        assert!(spec.block_skip, "pushdown fired");
        assert!(!spec.prescan, "no whole-sequence reads");
        assert_eq!(spec.plan, JoinPlan::Dynamic);
    }

    #[test]
    fn no_rules_lower_to_the_strawman_pipeline() {
        let ix = ix();
        let (q, mut req) = bound(&ix, "xml search k=2");
        req.rules = RuleSet::none();
        let spec = lower_query(&ix, &q, &req);
        assert!(!spec.block_skip);
        assert!(spec.prescan, "materializing scans survive");
        assert_eq!(spec.plan, JoinPlan::MergeOnly, "no probe access path");
        assert!(explain(&ix, &q, &req, ExplainTarget::Memory).applied.is_empty());
    }

    #[test]
    fn elision_emulates_the_hybrid_complete_route() {
        let ix = ix();
        // k far above anything the corpus can produce: elim must fire.
        let (q, req) = bound(&ix, "xml search k=1000");
        let spec = lower_query(&ix, &q, &req);
        assert_eq!(spec.topk, TopKExec::Complete { elided: true });
        let on = execute_memory(&ix, Parallelism::Serial, &q, &req);
        let mut off_req = req;
        off_req.rules = RuleSet::none();
        let off = execute_memory(&ix, Parallelism::Serial, &q, &off_req);
        assert_eq!(on.engine, off.engine);
        assert_eq!(on.results.len(), off.results.len());
        for (a, b) in on.results.iter().zip(&off.results) {
            assert_eq!(a.node, b.node);
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
    }

    #[test]
    fn explain_is_byte_stable_and_sectioned() {
        let ix = ix();
        let (q, req) = bound(&ix, "xml search k=2");
        let a = explain(&ix, &q, &req, ExplainTarget::Memory).to_string();
        let b = explain(&ix, &q, &req, ExplainTarget::Memory).to_string();
        assert_eq!(a, b);
        for section in [
            "== logical plan ==",
            "== rewrites ==",
            "== cost decisions ==",
            "== rewritten plan ==",
            "== cost estimates ==",
            "== physical plan ==",
        ] {
            assert!(a.contains(section), "{a}");
        }
        // Single-block columns: footer skipping cannot eliminate
        // anything, so the cost model gates push-probes off.
        assert!(a.contains("gated push-probes:"), "{a}");
        assert!(!a.contains("ExecProbe:"), "{a}");
        assert!(a.contains("join: est blocks="), "{a}");
        let sharded =
            explain(&ix, &q, &req, ExplainTarget::Sharded { shards: 3, ta_prune: true })
                .to_string();
        assert!(sharded.contains("ExecMerge: shards=3 ta-prune=on"), "{sharded}");
        assert!(sharded.contains("LogicalMerge: shards=3"), "{sharded}");
    }

    #[test]
    fn cost_gate_disables_probes_on_single_block_columns() {
        let ix = ix();
        let (q, req) = bound(&ix, "xml search k=2");
        let stats = PlanStats::from_index(&ix);
        let planned = lower_query_costed(&ix, &q, &req, Some(&stats), false);
        assert!(!planned.spec.block_skip, "gate must strip the probe path");
        assert_eq!(planned.spec.plan, JoinPlan::MergeOnly);
        assert_eq!(planned.gated.len(), 1, "{:?}", planned.gated);
        assert_eq!(planned.gated[0].rule, crate::plan::rewrite::PUSH_PROBES);
        // The serving path skips the rendered estimates (EXPLAIN-only).
        assert!(planned.summary.is_none());
        // Stat-less lowering is the PR 9 pipeline: probes fire.
        assert!(lower_query(&ix, &q, &req).block_skip);
    }

    #[test]
    fn executed_annotations_attach_actuals_to_one_tree() {
        let ix = ix();
        for text in ["xml search", "xml"] {
            let (q, req) = bound(&ix, text);
            let req = req.with_trace(xtk_obs::TraceLevel::Events);
            let resp = execute_memory(&ix, Parallelism::Serial, &q, &req);
            let trace = resp.trace.expect("trace requested");
            let ex = explain(&ix, &q, &req, ExplainTarget::Memory);
            let annotated = annotate_executed(&ex, &trace);
            assert_eq!(
                annotated.matches("ExecJoin:").count(),
                1,
                "one tree regardless of backend: {annotated}"
            );
            assert!(annotated.contains("[actual decodes="), "{annotated}");
            assert!(annotated.contains("io: decodes="), "{annotated}");
            let again = annotate_executed(&ex, &trace);
            assert_eq!(annotated, again, "annotations are byte-stable");
            if q.terms.len() == 1 {
                // A single keyword drives every level and joins nothing.
                assert!(annotated.contains("\nlevel 1: drive xml"), "{annotated}");
                assert!(!annotated.contains("-join "), "{annotated}");
            }
        }
    }

    /// The per-level record of the executed plan (§III-C): one block per
    /// `level_start`, the smallest column drives, the selective leaf
    /// level index-joins, and the matches add up to the join's own count
    /// — byte-identically under serial and pooled execution.
    #[test]
    fn executed_plan_records_each_level() {
        use crate::joinbased::join_search;
        let mut xml = String::from("<r>");
        for i in 0..80 {
            xml.push_str(&format!("<conf><p>frequent w{}</p></conf>", i % 9));
        }
        xml.push_str("<conf><p>frequent scarce</p></conf></r>");
        let ix = XmlIndex::build(parse_xml(&xml).unwrap());
        let base = QueryRequest::complete(Semantics::Elca).with_trace(xtk_obs::TraceLevel::Events);
        let (q, req) = bind::compile(&ix, "frequent scarce", &base).unwrap();
        let ex = explain(&ix, &q, &req, ExplainTarget::Memory);
        let run = |par| {
            let trace = execute_memory(&ix, par, &q, &req).trace.expect("trace requested");
            (annotate_executed(&ex, &trace), trace)
        };
        let (text, trace) = run(Parallelism::Serial);
        assert_eq!(text, run(Parallelism::Auto).0, "identical across parallelism");
        let record: Vec<&str> = text.lines().skip_while(|l| !l.starts_with("io:")).collect();
        assert_eq!(record.get(1).copied(), Some("start level: 3"), "{text}");

        let levels: Vec<&str> =
            record.iter().copied().filter(|l| l.starts_with("level ")).collect();
        assert_eq!(levels.len(), trace.of_kind("level_start").len(), "{text}");
        assert_eq!(levels.len(), 3, "{text}");
        // Root level: both columns collapse to one run, a tie.
        for l in &levels[..2] {
            assert!(l.contains(": drive scarce (1 runs)"), "{l}");
        }
        assert!(record.contains(&"  index-join frequent (81 runs): 1 -> 1 values"), "{text}");

        let matched: u64 = record
            .iter()
            .filter_map(|l| l.strip_prefix("  matched "))
            .map(|l| l.split(' ').next().unwrap().parse::<u64>().unwrap())
            .sum();
        assert_eq!(matched, join_search(&ix, &q, &JoinOptions::default()).1.matches);
    }
}
