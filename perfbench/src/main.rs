//! End-to-end and per-layer benchmark for xtk.
//!
//! ```text
//! xtk-perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Generates the DBLP-like corpus and the workload's query lines from the
//! seed, hands the program only the XML text and the query-language lines,
//! checks every answer against a reference computed outside the timed
//! region, and prints one JSON object as the last line of standard output:
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics taken from
//! the benchmark's own spans (`--trace 1`).  A human-readable summary goes
//! to standard error and a report (plus, when traced, every span) to
//! `.bench_out/` under the working directory.  See `perfbench/README.md`.

mod batch;
mod bench;
mod corpus;
mod disk;
mod memory;
mod probe;
mod serve;
mod sharded;
mod stats;
mod trace;
mod update;

use bench::{Ctx, Round};
use stats::{median, median_ns, quantile, ratio};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

/// What a workload hands back besides what it recorded in the context.
pub struct Measured {
    pub rounds: Vec<Round>,
    pub xml_bytes: u64,
    /// Bytes of the workload's store, or for the in-memory workloads the
    /// exact size a v3 store of its index would have.
    pub store_bytes: u64,
}

const WORKLOADS: [&str; 4] = [
    "topk_memory",
    "complete_disk",
    "topk_sharded",
    "batch_update",
];

/// The per-layer metrics, in output order, with their units.
const PER_LAYER: [(&str, &str); 41] = [
    ("parser.parse_ms", "ms"),
    ("builder.build_ms", "ms"),
    ("disk.write_ms", "ms"),
    ("diskcol.open_ms", "ms"),
    ("diskcol.decodes_per_query", "count"),
    ("codec.ns_per_block", "ns"),
    ("cache.hit_rate", "ratio"),
    ("cache.evictions", "count"),
    ("cache.resident_bytes", "bytes"),
    ("plan.compile_us", "us"),
    ("plan.spec_hit_us", "us"),
    ("plan.spec_miss_us", "us"),
    ("plan.cache_hit_rate", "ratio"),
    ("plan.invalidations", "count"),
    ("topk.rows_retrieved", "count"),
    ("topk.candidates", "count"),
    ("topk.emitted_early", "count"),
    ("starjoin.inserts", "count"),
    ("starjoin.completions", "count"),
    ("hybrid.route_topk", "count"),
    ("hybrid.route_complete", "count"),
    ("topk.rows_per_result", "ratio"),
    ("execute_us", "us"),
    ("join.matches", "count"),
    ("join.levels", "count"),
    ("join.merge_joins", "count"),
    ("join.index_joins", "count"),
    ("join.matches_per_result", "ratio"),
    ("shard.executed", "count"),
    ("shard.pruned", "count"),
    ("shard.prune_ratio", "ratio"),
    ("shard.decode_amplification", "ratio"),
    ("batch.run_ms", "ms"),
    ("batch.result_hit_rate", "ratio"),
    ("batch.dedup_hits", "count"),
    ("batch.invalidations", "count"),
    ("batch.prefetch_pinned", "count"),
    ("maintain.insert_us", "us"),
    ("maintain.compact_ms", "ms"),
    ("engine.replace_index_ms", "ms"),
    ("trace.qps_ratio", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => {
                return Err(format!(
                    "unknown workload {value} (one of {})",
                    WORKLOADS.join(", ")
                ))
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or(format!("bad --seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (0 or 1)")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Median over the spans named `names` (any root), in `per_ns` units.
fn span_median(spans: &SpanMap, names: &[&str], per_ns: f64, self_time: bool) -> (f64, usize) {
    let mut v = Vec::new();
    for ((_, name), s) in spans {
        if names.contains(name) {
            v.extend_from_slice(if self_time {
                &s.self_times_ns
            } else {
                &s.durations_ns
            });
        }
    }
    (median_ns(&v, per_ns), v.len())
}

type SpanMap = std::collections::BTreeMap<(&'static str, &'static str), trace::SpanStats>;

/// The per-layer metrics every workload derives the same way: span
/// medians and counters per executor call.
fn common_layers(ctx: &mut Ctx, exec_span: &str, rounds: &[Round]) {
    let spans = ctx.tr.stats();
    let timed: [(&'static str, &[&str], f64, bool); 12] = [
        ("parser.parse_ms", &["xml.parse"], 1e6, false),
        ("builder.build_ms", &["index.build"], 1e6, false),
        (
            "disk.write_ms",
            &["disk.write_index", "shard.write_sharded"],
            1e6,
            false,
        ),
        (
            "diskcol.open_ms",
            &["diskcol.open", "shard.open"],
            1e6,
            false,
        ),
        ("plan.compile_us", &["plan.compile"], 1e3, false),
        ("plan.spec_hit_us", &["plan.spec_for.hit"], 1e3, false),
        ("plan.spec_miss_us", &["plan.spec_for.miss"], 1e3, false),
        ("execute_us", &[exec_span], 1e3, true),
        ("batch.run_ms", &["batch.run"], 1e6, false),
        ("maintain.insert_us", &["maintain.insert"], 1e3, false),
        ("maintain.compact_ms", &["maintain.compact"], 1e6, false),
        (
            "engine.replace_index_ms",
            &["engine.replace_index"],
            1e6,
            false,
        ),
    ];
    for (metric, names, per, self_time) in timed {
        let (value, n) = span_median(&spans, names, per, self_time);
        if !ctx.layers.contains_key(metric) {
            let what = if self_time { "self time" } else { "duration" };
            ctx.layer(
                metric,
                value,
                format!("median {what} of {n} `{}` spans", names.join("`/`")),
            );
        }
    }
    if !ctx.layers.contains_key("plan.invalidations") {
        ctx.layer(
            "plan.invalidations",
            0.0,
            "no generation change while the workload serves",
        );
    }
    let (_, hits) = span_median(&spans, &["plan.spec_for.hit"], 1.0, false);
    let (_, misses) = span_median(&spans, &["plan.spec_for.miss"], 1.0, false);
    ctx.layer(
        "plan.cache_hit_rate",
        ratio(hits as f64, (hits + misses) as f64),
        format!("{hits} hits of {} plan lookups", hits + misses),
    );

    let calls = ctx.traced_calls as f64;
    let per_call = format!("mean per executor call, {} traced calls", ctx.traced_calls);
    for (metric, counter) in [
        ("diskcol.decodes_per_query", "store.decodes"),
        ("topk.rows_retrieved", "topk.rows_retrieved"),
        ("topk.candidates", "topk.candidates"),
        ("topk.emitted_early", "topk.emitted_early"),
        ("starjoin.inserts", "starjoin.inserts"),
        ("starjoin.completions", "starjoin.completions"),
        ("hybrid.route_topk", "hybrid.route_topk"),
        ("hybrid.route_complete", "hybrid.route_complete"),
        ("join.matches", "join.matches"),
        ("join.levels", "join.levels"),
        ("join.merge_joins", "join.merge_joins"),
        ("join.index_joins", "join.index_joins"),
        ("shard.executed", "shard.executed"),
        ("shard.pruned", "shard.pruned"),
    ] {
        if !ctx.layers.contains_key(metric) {
            let v = ratio(ctx.counter(counter), calls);
            ctx.layer(metric, v, per_call.clone());
        }
    }
    let results = ctx.counter("query.results");
    if !ctx.layers.contains_key("topk.rows_per_result") {
        let rows = ctx.counter("topk.rows_retrieved");
        ctx.layer(
            "topk.rows_per_result",
            ratio(rows, results),
            format!("{rows} rows for {results} results"),
        );
    }
    let matches = ctx.counter("join.matches");
    ctx.layer(
        "join.matches_per_result",
        ratio(matches, results),
        format!("{matches} matches for {results} results"),
    );
    let (pruned, eligible) = (ctx.counter("shard.pruned"), ctx.counter("shard.eligible"));
    ctx.layer(
        "shard.prune_ratio",
        ratio(pruned, eligible),
        format!("{pruned} pruned of {eligible} eligible shards"),
    );

    let qps = |traced: bool| {
        let (n, busy) = rounds
            .iter()
            .filter(|r| r.traced == traced)
            .fold((0usize, 0.0), |(n, b), r| {
                (n + r.latencies_us.len(), b + r.busy_s)
            });
        ratio(n as f64, busy)
    };
    let (traced, untraced) = (qps(true), qps(false));
    ctx.layer(
        "trace.qps_ratio",
        ratio(traced, untraced),
        format!("traced {traced:.1} req/s over untraced {untraced:.1} req/s"),
    );
}

/// End-to-end metrics of the untraced rounds: (name, value, unit, per-round values).
fn end_to_end(
    m: &Measured,
    peak_rss: f64,
    error_rate: f64,
) -> Vec<(&'static str, f64, &'static str, Vec<f64>)> {
    let rounds: Vec<&Round> = m.rounds.iter().filter(|r| !r.traced).collect();
    let pooled: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.latencies_us.iter().copied())
        .collect();
    let updates: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.updates_ms.iter().copied())
        .collect();
    let busy: f64 = rounds.iter().map(|r| r.busy_s).sum();
    let per_round = |f: &dyn Fn(&Round) -> f64| rounds.iter().map(|r| f(r)).collect::<Vec<_>>();
    vec![
        (
            "setup_s",
            median(&per_round(&|r| r.setup_s)),
            "s",
            per_round(&|r| r.setup_s),
        ),
        (
            "latency_p50_us",
            quantile(&pooled, 0.5),
            "us",
            per_round(&|r| quantile(&r.latencies_us, 0.5)),
        ),
        (
            "latency_p99_us",
            quantile(&pooled, 0.99),
            "us",
            per_round(&|r| quantile(&r.latencies_us, 0.99)),
        ),
        (
            "throughput_qps",
            ratio(pooled.len() as f64, busy),
            "req/s",
            per_round(&|r| ratio(r.latencies_us.len() as f64, r.busy_s)),
        ),
        (
            "update_p50_ms",
            median(&updates),
            "ms",
            per_round(&|r| median(&r.updates_ms)),
        ),
        (
            "store_bytes_per_xml_byte",
            ratio(m.store_bytes as f64, m.xml_bytes as f64),
            "ratio",
            Vec::new(),
        ),
        ("peak_rss_mb", peak_rss, "MB", Vec::new()),
        ("error_rate", error_rate, "fraction", Vec::new()),
    ]
}

fn json_metric(out: &mut String, name: &str, value: f64, unit: &str) {
    if !out.ends_with('{') {
        out.push_str(", ");
    }
    let value = if value.is_finite() { value } else { 0.0 };
    let _ = write!(
        out,
        "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
    );
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let out_dir = PathBuf::from(".bench_out");
    let tmp = out_dir.join(format!("tmp-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).map_err(|e| format!("create {}: {e}", tmp.display()))?;
    let mut ctx = Ctx::new(args.seed, args.seconds, args.trace, tmp.clone());
    let (measured, exec_span) = match args.workload.as_str() {
        "topk_memory" => (memory::run(&mut ctx), memory::EXEC_SPAN),
        "complete_disk" => (disk::run(&mut ctx), disk::EXEC_SPAN),
        "topk_sharded" => (sharded::run(&mut ctx), sharded::EXEC_SPAN),
        _ => (batch::run(&mut ctx), batch::EXEC_SPAN),
    };
    std::fs::remove_dir_all(&tmp).ok();
    let measured = measured?;
    let peak_rss = stats::peak_rss_mb();
    if args.trace {
        common_layers(&mut ctx, exec_span, &measured.rounds);
    }

    let error_rate = ratio(ctx.failed as f64, ctx.attempted as f64);
    let e2e = end_to_end(&measured, peak_rss, error_rate);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let samples: usize = measured
        .rounds
        .iter()
        .filter(|r| !r.traced)
        .map(|r| r.latencies_us.len())
        .sum();
    let updates: usize = measured
        .rounds
        .iter()
        .filter(|r| !r.traced)
        .map(|r| r.updates_ms.len())
        .sum();

    // Human-readable summary: each metric with its per-round quartiles.
    eprintln!(
        "perfbench: {} seed {} trace {} — nproc {nproc}, {} rounds, {samples} latency samples and {updates} writes in untraced rounds, {} of {} responses wrong",
        args.workload,
        args.seed,
        u8::from(args.trace),
        measured.rounds.len(),
        ctx.failed,
        ctx.attempted
    );
    let mut report = String::from("{\n");
    let _ = writeln!(
        report,
        "  \"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"nproc\": {nproc},",
        args.workload, args.seed, args.trace
    );
    let _ = writeln!(
        report,
        "  \"rounds\": {}, \"latency_samples\": {samples}, \"writes\": {updates},",
        measured.rounds.len()
    );
    let _ = writeln!(
        report,
        "  \"attempted\": {}, \"failed\": {},",
        ctx.attempted, ctx.failed
    );
    for (k, v) in &ctx.facts {
        let _ = writeln!(report, "  \"{k}\": \"{v}\",");
        eprintln!("perfbench:   {k} = {v}");
    }
    report.push_str("  \"end_to_end\": {\n");
    for (i, (name, value, unit, rounds)) in e2e.iter().enumerate() {
        let (q1, q2, q3) = (
            quantile(rounds, 0.25),
            median(rounds),
            quantile(rounds, 0.75),
        );
        eprintln!("perfbench:   {name:<26} {value:>14.4} {unit:<8} per round: median {q2:.4} [q1 {q1:.4}, q3 {q3:.4}] of {}", rounds.len());
        let sep = if i + 1 == e2e.len() { "" } else { "," };
        let _ = writeln!(
            report,
            "    \"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\", \"per_round\": {rounds:?}, \"round_median\": {q2}, \"round_q1\": {q1}, \"round_q3\": {q3}}}{sep}"
        );
    }
    report.push_str("  }");
    if args.trace {
        report.push_str(",\n  \"per_layer\": {\n");
        for (i, (name, unit)) in PER_LAYER.iter().enumerate() {
            let (value, base) = ctx
                .layers
                .get(name)
                .map_or((0.0, "not on this workload's path"), |l| {
                    (l.value, l.base.as_str())
                });
            eprintln!("perfbench:   {name:<28} {value:>14.4} {unit:<6} ({base})");
            let sep = if i + 1 == PER_LAYER.len() { "" } else { "," };
            let _ = writeln!(report, "    \"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\", \"base\": \"{base}\"}}{sep}");
        }
        report.push_str("  },\n  \"self_time\": [\n");
        let spans = ctx.tr.stats();
        let mut root_ns: std::collections::BTreeMap<&str, u64> = std::collections::BTreeMap::new();
        for ((root, name), s) in &spans {
            if root == name {
                *root_ns.entry(root).or_default() += s.total_ns;
            }
        }
        let n = spans.len();
        for (i, ((root, name), s)) in spans.iter().enumerate() {
            let share = ratio(s.self_ns as f64, *root_ns.get(root).unwrap_or(&0) as f64);
            eprintln!(
                "perfbench:   self {root:>10} > {name:<24} n {:>7}  self {:>10.3} ms  {:>5.1} % of `{root}`  median {:>9.2} us",
                s.count,
                s.self_ns as f64 / 1e6,
                100.0 * share,
                median_ns(&s.durations_ns, 1e3)
            );
            let sep = if i + 1 == n { "" } else { "," };
            let _ = writeln!(
                report,
                "    {{\"root\": \"{root}\", \"span\": \"{name}\", \"count\": {}, \"total_ns\": {}, \"self_ns\": {}, \"self_share_of_root\": {share}}}{sep}",
                s.count, s.total_ns, s.self_ns
            );
        }
        report.push_str("  ]");
        let mut lines = String::new();
        ctx.tr.write_json_lines(&mut lines);
        let spans_path = out_dir.join(format!("{}-seed{}-spans.jsonl", args.workload, args.seed));
        std::fs::write(&spans_path, lines)
            .map_err(|e| format!("write {}: {e}", spans_path.display()))?;
        eprintln!(
            "perfbench:   {} spans written to {}",
            ctx.tr.len(),
            spans_path.display()
        );
    }
    report.push_str("\n}\n");
    let suffix = if args.trace { "-trace" } else { "" };
    let report_path = out_dir.join(format!("{}-seed{}{suffix}.json", args.workload, args.seed));
    std::fs::write(&report_path, report)
        .map_err(|e| format!("write {}: {e}", report_path.display()))?;

    let mut metrics = String::from("{");
    if args.trace {
        for (name, unit) in PER_LAYER {
            json_metric(
                &mut metrics,
                name,
                ctx.layers.get(name).map_or(0.0, |l| l.value),
                unit,
            );
        }
    } else {
        for (name, value, unit, _) in e2e.iter().filter(|m| m.0 != "error_rate") {
            json_metric(&mut metrics, name, *value, unit);
        }
    }
    metrics.push('}');
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        ctx.failed == 0 && ctx.attempted > 0,
        ctx.attempted.max(1),
        ctx.failed
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
