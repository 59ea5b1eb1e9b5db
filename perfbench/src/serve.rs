//! One closed-loop request: query line in, answer out.

use crate::bench::Ctx;
use std::io;
use std::time::{Duration, Instant};
use xtk_core::plan::{compile, PlanSource, Planner};
use xtk_core::{Query, QueryRequest, QueryResponse};
use xtk_index::XmlIndex;

/// Compiles `line` against `ix` and runs it through `exec` (the
/// executor call, recorded as span `exec_span`).  In traced rounds the
/// plan is looked up first through `planner` with the executor's own
/// generation and topology salt, so planning and execution get separate
/// spans and the executor's internal lookup is a plan-cache hit.
/// Returns the request's duration and its response.
pub fn request(
    ctx: &mut Ctx,
    ix: &XmlIndex,
    planner: &Planner,
    salt: u64,
    line: &str,
    exec_span: &'static str,
    exec: impl FnOnce(&Query, &QueryRequest) -> io::Result<QueryResponse>,
) -> (Duration, Result<QueryResponse, String>) {
    let root = ctx.tr.request("request");
    let t0 = Instant::now();
    let s = ctx.tr.begin("plan.compile");
    let compiled = compile(ix, line, &QueryRequest::default());
    ctx.tr.end(s);
    let out = match compiled {
        Err(e) => Err(e.to_string()),
        Ok((query, req)) => {
            if ctx.tr.enabled() {
                let s = ctx.tr.begin("plan.spec_for");
                let (_, source) = planner.spec_for(ix, &query, &req, ix.generation(), salt);
                ctx.tr.end_as(s, plan_span(source));
            }
            let s = ctx.tr.begin(exec_span);
            let resp = exec(&query, &req);
            ctx.tr.end(s);
            resp.map_err(|e| e.to_string())
        }
    };
    let elapsed = t0.elapsed();
    ctx.tr.end(root);
    if let Ok(resp) = &out {
        if ctx.tr.enabled() {
            ctx.traced_calls += 1;
        }
        ctx.count(&resp.metrics);
    }
    (elapsed, out)
}

pub fn plan_span(source: PlanSource) -> &'static str {
    match source {
        PlanSource::Cached => "plan.spec_for.hit",
        PlanSource::Cold => "plan.spec_for.miss",
    }
}

/// Answers `line` once, untimed and untraced, for reference answers and
/// post-write checks.
pub fn answer(
    ix: &XmlIndex,
    line: &str,
    exec: impl FnOnce(&Query, &QueryRequest) -> io::Result<QueryResponse>,
) -> Result<QueryResponse, String> {
    let (query, req) = compile(ix, line, &QueryRequest::default()).map_err(|e| e.to_string())?;
    exec(&query, &req).map_err(|e| e.to_string())
}
