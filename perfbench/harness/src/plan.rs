//! The `plan` workload: a sequential stream of seeded capacity-planning
//! queries, each one `optimize_pruned` over `DesignSpace::expanded(N)`.

use crate::checks::{check_frontier, same_frontier};
use crate::report::{counters, peak_rss_mb, Metrics, Outcome};
use crate::rng::Rng;
use crate::stats::{median, percentile, tail};
use crate::trace::Tracer;
use hmcs_core::batch::BatchOptions;
use hmcs_core::optimize::{
    self, Constraints, DesignSpace, OptimizeOutcome, OptimizeSpec, Workload,
};
use hmcs_core::scenario::{Scenario, PAPER_LAMBDA_PER_US};
use std::time::{Duration, Instant};

/// Divisor-rich node counts; every round asks the same number of
/// queries of each, so the mix of space sizes never depends on the seed.
pub const NODE_COUNTS: [usize; 4] = [64, 96, 128, 256];
/// Seeded queries per node count in one round.
pub const QUERIES_PER_NODE_COUNT: usize = 16;
/// Message sizes a query may carry, bytes.
const MESSAGE_BYTES: [u64; 5] = [256, 512, 1024, 2048, 4096];
/// Workers of every query. The kernel's batches then run inline; on a
/// two-core host that is both faster and steadier than two workers.
pub const WORKERS: usize = 1;

/// A random permutation of `0..n`.
fn permutation(rng: &mut Rng, n: usize) -> Vec<usize> {
    let mut items: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        items.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    items
}

/// One round of queries for `seed`: message size, λ, SLO and budget
/// vary, in ranges where every query has a non-empty frontier (the
/// cheapest design meeting a 5 ms SLO at 4096 B and 4× the paper's λ
/// costs 1042 USD per node, below the lowest budget). Per
/// node count the draws are a Latin hypercube: each parameter's range
/// is cut into one stratum per query and every stratum is drawn once,
/// so the seed moves the inputs but not their spread.
pub fn queries(seed: u64) -> Vec<OptimizeSpec> {
    let mut rng = Rng::new(seed, 0x504C_414E);
    let k = QUERIES_PER_NODE_COUNT;
    let mut out = Vec::new();
    // First, a fixed corner query per node count: the largest candidate
    // set, so the allocator's high-water mark does not depend on the
    // seed (without it `peak_rss_mb` split 10.4 / 13 MiB by seed).
    for &total_nodes in &NODE_COUNTS {
        out.push(OptimizeSpec {
            workload: Workload {
                scenario: Scenario::Case1,
                total_nodes,
                message_bytes: 4096,
                lambda_per_us: PAPER_LAMBDA_PER_US * 4.0,
            },
            constraints: Constraints {
                slo_latency_us: Some(50_000.0),
                budget_usd: Some(total_nodes as f64 * 3000.0),
                require_unsaturated: false,
            },
            space: DesignSpace::expanded(total_nodes),
        });
    }
    for &total_nodes in &NODE_COUNTS {
        let [sizes, loads, slos, budgets] = [(); 4].map(|_| permutation(&mut rng, k));
        let mut stratum = |perm: &[usize], i: usize| (perm[i] as f64 + rng.unit()) / k as f64;
        for i in 0..k {
            let workload = Workload {
                scenario: Scenario::Case1,
                total_nodes,
                message_bytes: MESSAGE_BYTES[sizes[i] * MESSAGE_BYTES.len() / k],
                lambda_per_us: PAPER_LAMBDA_PER_US * 16f64.powf(stratum(&loads, i)) / 4.0,
            };
            let constraints = Constraints {
                slo_latency_us: Some(1000.0 * (5.0 + 45.0 * stratum(&slos, i))),
                budget_usd: Some(total_nodes as f64 * (1200.0 + 1800.0 * stratum(&budgets, i))),
                require_unsaturated: false,
            };
            out.push(OptimizeSpec {
                workload,
                constraints,
                space: DesignSpace::expanded(total_nodes),
            });
        }
    }
    out
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64())
}

struct Answers {
    /// The first answer to each query; every later answer must match it
    /// bit for bit, and [`check_first`] checks it.
    first: Vec<OptimizeOutcome>,
    attempted: u64,
    failed: u64,
    wrong: u64,
}

impl Answers {
    /// Runs one pruned query and compares it with the first answer
    /// (outside the timed interval). Returns the query's seconds.
    fn ask(&mut self, i: usize, spec: &OptimizeSpec, options: BatchOptions) -> Option<f64> {
        self.attempted += 1;
        let (outcome, seconds) = timed(|| optimize::optimize_pruned(spec, options));
        match outcome {
            Ok(outcome) => {
                if !same_frontier(&outcome, &self.first[i]) {
                    self.wrong += 1;
                }
                Some(seconds)
            }
            Err(_) => {
                self.failed += 1;
                None
            }
        }
    }

    fn outcome(&self, metrics: Metrics) -> Outcome {
        Outcome {
            correct: self.wrong == 0,
            attempted: self.attempted,
            failed: self.failed,
            metrics,
        }
    }

    /// Checks each query's first answer against the exhaustive
    /// optimizer and the frontier properties. Runs after the measured
    /// phase, so its allocations stay out of `peak_rss_mb`.
    fn check_first(&mut self, specs: &[OptimizeSpec], options: BatchOptions) {
        for (spec, answer) in specs.iter().zip(&self.first) {
            let checked = optimize::optimize(spec, options)
                .map_err(|e| e.to_string())
                .and_then(|exhaustive| check_frontier(spec, answer, &exhaustive));
            if let Err(e) = checked {
                eprintln!("plan query failed its check: {e}");
                self.wrong += 1;
            }
        }
    }
}

/// The set-up: every query answered once, timed; that time is
/// `setup_s`. The answers become the first answers.
fn setup(specs: &[OptimizeSpec], options: BatchOptions) -> Result<(Answers, f64), String> {
    let mut first = Vec::with_capacity(specs.len());
    let mut spent = 0.0;
    for spec in specs {
        let (outcome, seconds) = timed(|| optimize::optimize_pruned(spec, options));
        spent += seconds;
        first.push(outcome.map_err(|e| e.to_string())?);
    }
    Ok((Answers { first, attempted: specs.len() as u64, failed: 0, wrong: 0 }, spent))
}

/// Whole rounds of queries until `seconds` have been spent querying.
fn measure(
    specs: &[OptimizeSpec],
    answers: &mut Answers,
    options: BatchOptions,
    seconds: f64,
) -> Vec<f64> {
    let mut times = Vec::new();
    let mut spent = 0.0;
    while spent < seconds {
        let answered = times.len();
        for (i, spec) in specs.iter().enumerate() {
            if let Some(t) = answers.ask(i, spec, options) {
                spent += t;
                times.push(t);
            }
        }
        if times.len() == answered {
            break; // every query failed; the failures are counted
        }
    }
    times
}

/// One cold set-up in this process, checked; it reports `setup_s` only.
pub fn run_setup(seed: u64) -> Result<Outcome, String> {
    let specs = queries(seed);
    let options = BatchOptions::with_workers(WORKERS);
    let (mut answers, setup_s) = setup(&specs, options)?;
    answers.check_first(&specs, options);
    let mut m = Metrics::default();
    m.push("setup_s", setup_s);
    Ok(answers.outcome(m))
}

pub fn run(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let specs = queries(seed);
    let options = BatchOptions::with_workers(WORKERS);
    let (mut answers, setup_s) = setup(&specs, options)?;
    let times = measure(&specs, &mut answers, options, seconds);
    let peak_rss_mb = peak_rss_mb()?;
    answers.check_first(&specs, options);
    let mut m = Metrics::default();
    m.push("setup_s", setup_s);
    m.push("peak_rss_mb", peak_rss_mb);
    m.push("p50_ms", median(&times) * 1e3);
    m.push("throughput_per_s", times.len() as f64 / times.iter().sum::<f64>());
    Ok(answers.outcome(m))
}

/// The traced run: an untraced half measuring the query stream and
/// the kernel counters, then a half where each query is traced and
/// also answered by the exhaustive optimizer.
pub fn run_traced(seed: u64, seconds: f64, trace_out: &std::path::Path) -> Result<Outcome, String> {
    let specs = queries(seed);
    let options = BatchOptions::with_workers(WORKERS);
    let (mut answers, _) = setup(&specs, options)?;
    answers.check_first(&specs, options);

    let before = counters();
    let untraced = measure(&specs, &mut answers, options, seconds / 2.0);
    let after = counters();
    let queries_a = untraced.len() as f64;
    let spent_a: f64 = untraced.iter().sum();
    let lanes = after.solves - before.solves;
    let decided: usize =
        specs.iter().zip(&answers.first).map(|(s, o)| s.space.len() - o.diagnostics.invalid).sum();
    let pruned_share = specs
        .iter()
        .zip(&answers.first)
        .map(|(s, o)| o.diagnostics.pruned as f64 / s.space.len() as f64)
        .sum::<f64>()
        / specs.len() as f64;

    // Each query untraced, traced, then exhaustively; the first two
    // give the tracing overhead on the same stretch of the run.
    let mut tracer = Tracer::new();
    let mut plain_ms = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds / 2.0);
    while Instant::now() < deadline {
        for (i, spec) in specs.iter().enumerate() {
            if let Some(t) = answers.ask(i, spec, options) {
                plain_ms.push(t * 1e3);
            }
            answers.attempted += 2;
            let pruned =
                tracer.span("optimize.pruned", |_| optimize::optimize_pruned(spec, options));
            let exhaustive =
                tracer.span("optimize.exhaustive", |_| optimize::optimize(spec, options));
            match (pruned, exhaustive) {
                (Ok(p), Ok(e)) => {
                    if !same_frontier(&p, &answers.first[i]) || !same_frontier(&e, &p) {
                        answers.wrong += 1;
                    }
                }
                _ => answers.failed += 2,
            }
        }
    }
    tracer.write(trace_out).map_err(|e| e.to_string())?;
    let span_ms = |name: &str| -> Vec<f64> {
        tracer
            .spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    };
    let pruned_ms = span_ms("optimize.pruned");
    let exhaustive_ms = span_ms("optimize.exhaustive");
    let untraced_ms: Vec<f64> = untraced.iter().map(|t| t * 1e3).collect();

    let mut m = Metrics::default();
    m.push("optimize.exhaustive_ms", median(&exhaustive_ms));
    m.push(
        "optimize.prune_speedup",
        exhaustive_ms.iter().sum::<f64>() / pruned_ms.iter().sum::<f64>(),
    );
    m.push("optimize.pruned_share", pruned_share);
    m.push("optimize.decided_per_s", decided as f64 / specs.len() as f64 * queries_a / spent_a);
    m.push("kernel.lanes", lanes as f64 / queries_a);
    m.push(
        "kernel.iterations_per_lane",
        (after.iterations - before.iterations) as f64 / lanes.max(1) as f64,
    );
    m.push("kernel.lanes_per_s", lanes as f64 / spent_a);
    m.push("batch.worker_busy_ms", (after.busy_us - before.busy_us) / 1e3 / queries_a);
    m.push("batch.worker_idle_ms", (after.idle_us - before.idle_us) / 1e3 / queries_a);
    m.push("query.p99_ms", percentile(&untraced_ms, 99.0));
    m.push_tail(tail(&untraced_ms), untraced_ms.len());
    m.push("trace.overhead_ms", median(&pruned_ms) - median(&plain_ms));
    Ok(answers.outcome(m))
}
