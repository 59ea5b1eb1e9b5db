//! EXPLAIN for keyword queries: see which join algorithm the dynamic
//! optimizer picks at each tree level — the paper's "context-aware" join
//! selection (§III-C) made visible.  The same query can use the index
//! join at the paper level (keywords rarely co-occur in one paper) and
//! the merge join at the conference level (every database conference
//! covers both topics).
//!
//! ```text
//! cargo run --release --example explain_plans
//! ```

use xtk::core::engine::Engine;
use xtk::core::plan::{annotate_executed, compile};
use xtk::core::query::Semantics;
use xtk::core::request::QueryRequest;
use xtk::core::{PlanExplain, TraceLevel};
use xtk::datagen::dblp::{generate, DblpConfig};
use xtk::datagen::PlantedTerm;

/// Plans `line` and executes it with event tracing: returns the plan
/// and the executed plan — the physical tree with actuals, then the
/// per-level driver, join steps and matched → emitted counts.
fn explain_executed(engine: &Engine, line: &str) -> (PlanExplain, String) {
    let base = QueryRequest::complete(Semantics::Elca).with_trace(TraceLevel::Events);
    let (q, req) =
        compile(engine.index(), line, &base).unwrap_or_else(|e| panic!("{}", e.render(line)));
    let report = engine.explain_plan(&q, &req);
    let trace = engine.run(&q, &req).trace.unwrap_or_default();
    let executed = annotate_executed(&report, &trace);
    (report, executed)
}

fn main() {
    // "topk" and "rewriting" are rare per paper but present in most
    // conferences — the paper's own running example for dynamic join
    // selection.
    let cfg = DblpConfig {
        conferences: 120,
        years_per_conf: 6,
        papers_per_year: 40,
        planted: vec![
            PlantedTerm::new("topk", 800),
            PlantedTerm::new("rewriting", 2_500),
            PlantedTerm::new("xml", 9_000),
        ],
        ..Default::default()
    };
    // The cost gate drops the probe access path when the disk footers
    // would skip no block, and these columns are too dense for that;
    // the always-fire planner keeps it, so each line's `plan=` reaches
    // the join and the dynamic plan chooses per level.
    let engine = Engine::new(generate(&cfg).tree).with_cost_gating(false);

    println!("=== dynamic plan (the default) ===");
    let (report, executed) = explain_executed(&engine, "topk rewriting xml");
    print!("{report}\n== executed plan ==\n{executed}");

    for (title, line) in [
        ("forced merge-only", "topk rewriting xml plan=merge"),
        ("forced index-only", "topk rewriting xml plan=index"),
    ] {
        println!("\n=== {title} ===");
        // The per-level record follows the executed tree's `io:` line.
        let (_, executed) = explain_executed(&engine, line);
        for l in executed.lines().skip_while(|l| !l.starts_with("io:")).skip(1) {
            println!("{l}");
        }
    }
}
