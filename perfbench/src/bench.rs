//! What every workload shares: the run context (seed, time budget,
//! tracer, correctness tally) and the per-round measurements.

use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;
use xtk_core::MetricsSnapshot;

/// Rounds per run.  Each round sets the workload up from the XML text
/// again and then serves for an equal share of `--seconds`, so set-up
/// time, latency and update time are each measured several times per
/// process.  A traced run alternates untraced and traced rounds in the
/// order U T T U, so the two halves see the same warm-up.
pub const ROUNDS: usize = 4;

/// One round's measurements.
#[derive(Default)]
pub struct Round {
    pub traced: bool,
    pub setup_s: f64,
    /// One sample per answered request, in µs.
    pub latencies_us: Vec<f64>,
    /// Time the client spent inside requests (batches for
    /// `batch_update`), in s; writes are timed separately.
    pub busy_s: f64,
    /// Maintenance writes, insert call to first query returning the new node, in ms.
    pub updates_ms: Vec<f64>,
}

/// A per-layer metric with the base its ratio or average is taken over.
pub struct Layer {
    pub value: f64,
    pub base: String,
}

pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub traced_run: bool,
    /// Scratch directory for stores, removed when the run ends.
    pub tmp: PathBuf,
    pub tr: Tracer,
    /// `QueryResponse`/`BatchReport` counters summed over traced rounds.
    pub counters: BTreeMap<String, u64>,
    /// Executor calls made in traced rounds (the base of per-query counts).
    pub traced_calls: u64,
    pub attempted: u64,
    pub failed: u64,
    pub layers: BTreeMap<&'static str, Layer>,
    /// Workload facts for the report (sizes, capacities, sample counts).
    pub facts: Vec<(String, String)>,
}

impl Ctx {
    pub fn new(seed: u64, seconds: f64, traced_run: bool, tmp: PathBuf) -> Self {
        Self {
            seed,
            seconds,
            traced_run,
            tmp,
            tr: Tracer::new(),
            counters: BTreeMap::new(),
            traced_calls: 0,
            attempted: 0,
            failed: 0,
            layers: BTreeMap::new(),
            facts: Vec::new(),
        }
    }

    /// Starts round `r`: traced rounds are the middle two of a traced run.
    pub fn start_round(&mut self, r: usize) -> Round {
        let traced = self.traced_run && (r == 1 || r == 2);
        self.tr.set_enabled(traced);
        Round {
            traced,
            ..Round::default()
        }
    }

    /// Serving time of one round.
    pub fn slice(&self) -> Duration {
        Duration::from_secs_f64(self.seconds / ROUNDS as f64)
    }

    /// Adds an executor's counters to the traced totals.
    pub fn count(&mut self, metrics: &MetricsSnapshot) {
        if self.tr.enabled() {
            for (name, v) in metrics.iter() {
                *self.counters.entry(name.to_string()).or_default() += v;
            }
        }
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }

    /// Tallies one checked response.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("perfbench: wrong or failed response: {}", what());
            }
        }
    }

    pub fn layer(&mut self, name: &'static str, value: f64, base: impl Into<String>) {
        self.layers.insert(
            name,
            Layer {
                value,
                base: base.into(),
            },
        );
    }

    pub fn fact(&mut self, name: &str, value: impl ToString) {
        self.facts.push((name.to_string(), value.to_string()));
    }
}
