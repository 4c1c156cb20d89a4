//! One traced `reproduce all` pass, in process: the same library calls
//! the `reproduce` binary makes for `all`, each inside a span, with the
//! topology pipeline's stages called one by one. The process is fresh,
//! so the simulation cache starts cold, as in a `reproduce all` process.

use crate::checks::check_claims_dir;
use crate::report::{counters, Metrics, Outcome};
use crate::trace::Tracer;
use hmcs_bench::experiments::{self, RunOptions, ALL_FIGURES};
use hmcs_bench::topology::{case_spec, TOPOLOGY_CASES, VALIDATION_UTILIZATION};
use hmcs_core::batch::BatchOptions;
use hmcs_core::identify::{self, FitOptions, IdentifyOptions};
use hmcs_core::optimize::{self, Constraints, DesignSpace, OptimizeSpec, Workload};
use hmcs_core::scenario::{Scenario, PAPER_CLUSTER_COUNTS};
use hmcs_core::service::ServiceTimes;
use hmcs_core::solver::saturation_lambda;
use hmcs_core::{qna, sensitivity, SystemConfig};
use hmcs_sim::config::SimConfig;
use hmcs_sim::replication::SimBudget;
use hmcs_sim::shard::{run_sharded_with, HopDelays, ShardOptions};
use hmcs_topology::transmission::Architecture;
use std::path::Path;
use std::time::Instant;

/// Worst analysis-vs-simulation error each figure may show, in percent
/// (the ceilings EXPERIMENTS.md states for Figures 4–7).
const FIGURE_CEILINGS_PCT: [f64; 4] = [12.0, 15.0, 12.0, 30.0];
/// Largest analysis-vs-sharded-simulation gap a topology case may show.
const TOPOLOGY_GAP: f64 = 0.10;
/// The optimize artefact's SLO (ms) and budget (USD).
const OPTIMIZE_SLO_MS: f64 = 30.0;
const OPTIMIZE_BUDGET_USD: f64 = 60_000.0;

type Res<T> = Result<T, String>;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The three optimize variants `reproduce optimize` runs.
fn optimize_specs(lambda_per_us: f64) -> [OptimizeSpec; 3] {
    let slo = Some(OPTIMIZE_SLO_MS * 1000.0);
    let workload = Workload { lambda_per_us, ..Workload::paper_default() };
    let space = DesignSpace::paper_default(workload.total_nodes);
    let spec = |workload, constraints| OptimizeSpec { workload, constraints, space: space.clone() };
    [
        spec(workload, Constraints { slo_latency_us: slo, ..Default::default() }),
        spec(
            workload,
            Constraints {
                slo_latency_us: slo,
                budget_usd: Some(OPTIMIZE_BUDGET_USD),
                ..Default::default()
            },
        ),
        spec(
            Workload { lambda_per_us: lambda_per_us / 10.0, ..workload },
            Constraints { slo_latency_us: slo, require_unsaturated: true, ..Default::default() },
        ),
    ]
}

struct Found {
    problems: Vec<String>,
    shard_messages: u64,
}

fn experiments_pass(t: &mut Tracer, opts: &RunOptions, found: &mut Found) -> Res<()> {
    let _ = (experiments::table1(), experiments::table2());
    t.span("experiments.figures", |_| -> Res<()> {
        for (spec, ceiling) in ALL_FIGURES.into_iter().zip(FIGURE_CEILINGS_PCT) {
            let data = experiments::run_figure(spec, opts).map_err(err)?;
            for row in &data.rows {
                for (a, s) in
                    [(row.analysis_512_ms, row.sim_512_ms), (row.analysis_1024_ms, row.sim_1024_ms)]
                {
                    let s = s.ok_or("figure row without simulation")?;
                    if (a - s).abs() / s * 100.0 > ceiling {
                        found.problems.push(format!(
                            "{} C={}: analysis {a} vs sim {s}",
                            spec.id, row.clusters
                        ));
                    }
                }
            }
        }
        Ok(())
    })?;
    let claims = t.span("experiments.claims", |_| experiments::run_claims(opts)).map_err(err)?;
    if claims.iter().any(|r| r.blocking_ms <= r.nonblocking_ms) {
        found.problems.push("a blocking latency does not exceed its non-blocking one".to_string());
    }
    t.span("experiments.ablations", |_| -> Res<()> {
        experiments::run_ablation_accounting(opts).map_err(err)?;
        experiments::run_ablation_hops(opts).map_err(err)?;
        experiments::run_ablation_service(opts).map_err(err)?;
        Ok(())
    })?;
    let packet =
        t.span("experiments.packet", |_| experiments::run_packet_validation(opts)).map_err(err)?;
    if packet.iter().any(|r| !(r.packet_ms > 0.0 && r.packet_ms < r.flow_ms)) {
        found.problems.push("packet latency not in (0, flow latency)".to_string());
    }
    t.span("experiments.coc", |_| experiments::run_coc_validation(opts)).map_err(err)?;
    t.span("experiments.bounds", |_| experiments::run_bounds(opts)).map_err(err)?;
    t.span("optimize.paper", |_| -> Res<()> {
        for spec in optimize_specs(opts.lambda_per_us) {
            let outcome = optimize::optimize(&spec, BatchOptions::default()).map_err(err)?;
            if outcome.frontier.is_empty() {
                found.problems.push("empty optimize frontier".to_string());
            }
        }
        Ok(())
    })?;
    t.span("sensitivity", |_| -> Res<()> {
        for arch in [Architecture::NonBlocking, Architecture::Blocking] {
            for &clusters in &PAPER_CLUSTER_COUNTS {
                let config = SystemConfig::paper_preset(Scenario::Case1, clusters, arch)
                    .map_err(err)?
                    .with_lambda(opts.lambda_per_us);
                sensitivity::evaluate(&config).map_err(err)?;
                sensitivity::lambda_for_latency(&config, OPTIMIZE_SLO_MS * 1000.0).map_err(err)?;
            }
        }
        Ok(())
    })
}

fn topology_pass(t: &mut Tracer, seed: u64, budget: SimBudget, found: &mut Found) -> Res<()> {
    for case in &TOPOLOGY_CASES {
        t.span("topology.case", |t| -> Res<()> {
            let spec = case_spec(case, seed).map_err(err)?;
            let source = t.span("topology.generate", |_| spec.source()).map_err(err)?;
            let planted = source.partition();
            let identified = t
                .span("topology.identify", |_| {
                    identify::identify(&source, &IdentifyOptions::default())
                })
                .map_err(err)?;
            if identified.partition != planted {
                found.problems.push(format!("{}: planted partition not recovered", case.name));
            }
            let fitted = t.span("topology.fit", |_| -> Res<SystemConfig> {
                let fitted =
                    identify::fitted_config(&identified, &FitOptions::default()).map_err(err)?;
                let service = ServiceTimes::compute(&fitted).map_err(err)?;
                Ok(fitted
                    .with_lambda(VALIDATION_UTILIZATION * saturation_lambda(&fitted, &service)))
            })?;
            let analysis = t.span("topology.qna", |_| qna::evaluate(&fitted)).map_err(err)?;
            let (messages, warmup) = budget.single_run();
            let sim_cfg =
                SimConfig::new(fitted).with_messages(messages).with_warmup(warmup).with_seed(seed);
            let hop = HopDelays {
                source: &source,
                intra_centre_us: identified.intra_median_us,
                inter_centre_us: identified.inter_median_us.unwrap_or(identified.intra_median_us),
            };
            let summary = t
                .span("topology.shard", |_| {
                    run_sharded_with(
                        &sim_cfg,
                        &identified.partition,
                        Some(hop),
                        &ShardOptions::default(),
                    )
                })
                .map_err(err)?;
            found.shard_messages += summary.total_messages();
            let (a, s) = (analysis.latency.mean_message_latency_us, summary.mean_latency_us());
            let agrees = (a - s).abs() <= TOPOLOGY_GAP * s;
            if !agrees {
                found
                    .problems
                    .push(format!("{}: analysis {a} us vs sharded sim {s} us", case.name));
            }
            Ok(())
        })?;
    }
    Ok(())
}

/// Runs the pass, traced or not, and reports its per-layer numbers
/// (zeros untraced); the pass's wall time is `trace.pass_ms`.
pub fn run(seed: u64, traced: bool, trace_out: &Path) -> Res<Outcome> {
    let budget = SimBudget::from_env();
    let (messages, warmup) = budget.single_run();
    let opts = RunOptions { messages, warmup, seed, ..RunOptions::default() };
    let mut found = Found { problems: Vec::new(), shard_messages: 0 };
    let mut t = if traced { Tracer::new() } else { Tracer::disabled() };
    let started = Instant::now();
    t.span("reproduce.pass", |t| -> Res<()> {
        experiments_pass(t, &opts, &mut found)?;
        topology_pass(t, seed, budget, &mut found)
    })?;
    let pass_ms = started.elapsed().as_secs_f64() * 1e3;
    if traced {
        t.write(trace_out).map_err(err)?;
    }
    for p in &found.problems {
        eprintln!("traced pass check failed: {p}");
    }

    let c = counters();
    let layers = t.layers();
    let ms = |name: &str| layers.get(name).map_or(0.0, |l| l.self_ms());
    let simulating_ms: f64 = [
        "experiments.figures",
        "experiments.ablations",
        "experiments.packet",
        "experiments.coc",
        "experiments.bounds",
    ]
    .iter()
    .map(|n| ms(n))
    .sum();
    let events = (c.flow_events + c.packet_events) as f64;
    let lookups = (c.cache_hits + c.cache_misses) as f64;

    let mut m = Metrics::default();
    for (span, metric) in LAYER_METRICS {
        m.push(metric, ms(span));
    }
    m.push("topology.shard_msgs_per_s", found.shard_messages as f64 / (ms("topology.shard") / 1e3));
    m.push("sim.flow.events", c.flow_events as f64);
    m.push("sim.packet.events", c.packet_events as f64);
    m.push("sim.events_per_s", events / (simulating_ms / 1e3));
    m.push("simcache.hit_ratio", if lookups > 0.0 { c.cache_hits as f64 / lookups } else { 0.0 });
    m.push("batch.worker_busy_ms", c.busy_us / 1e3);
    m.push("batch.worker_idle_ms", c.idle_us / 1e3);
    m.push("kernel.lanes", c.solves as f64);
    m.push("kernel.iterations_per_lane", c.iterations as f64 / (c.solves.max(1)) as f64);
    m.push("kernel.lanes_per_s", c.solves as f64 / (pass_ms / 1e3));
    m.push("trace.pass_ms", pass_ms);
    Ok(Outcome { correct: found.problems.is_empty(), attempted: 1, failed: 0, metrics: m })
}

/// Span names and the per-layer metric each one's self time feeds.
const LAYER_METRICS: [(&str, &str); 13] = [
    ("experiments.figures", "experiments.figures_ms"),
    ("experiments.ablations", "experiments.ablations_ms"),
    ("experiments.packet", "experiments.packet_ms"),
    ("experiments.coc", "experiments.coc_ms"),
    ("experiments.bounds", "experiments.bounds_ms"),
    ("experiments.claims", "experiments.claims_ms"),
    ("optimize.paper", "optimize.paper_ms"),
    ("sensitivity", "sensitivity_ms"),
    ("topology.generate", "topology.generate_ms"),
    ("topology.identify", "topology.identify_ms"),
    ("topology.fit", "topology.fit_ms"),
    ("topology.qna", "topology.qna_ms"),
    ("topology.shard", "topology.shard_ms"),
];

/// Checks each pass directory with the claims checker; one failed
/// directory per line on stderr. Returns how many failed.
pub fn check_dirs(dirs: &[String]) -> usize {
    let mut failed = 0;
    for dir in dirs {
        if let Err(e) = check_claims_dir(Path::new(dir)) {
            eprintln!("{dir}: {e}");
            failed += 1;
        }
    }
    failed
}
