//! Output checkers computed apart from the program: the paper's
//! equations recomputed from a request and its response, the
//! properties a Pareto frontier must have, and the claims registry
//! over a pass's CSVs. Each returns `Err` with the first violation.

use crate::json::{self, Json};
use hmcs_core::batch;
use hmcs_core::config::SystemConfig;
use hmcs_core::error::ModelError;
use hmcs_core::model::PerformanceReport;
use hmcs_core::optimize::{OptimizeOutcome, OptimizeSpec};
use hmcs_core::scenario::Scenario;
use hmcs_topology::transmission::Architecture;
use std::path::Path;

/// One model input point, as a request names it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    pub scenario: Scenario,
    pub architecture: Architecture,
    pub clusters: usize,
    pub nodes_per_cluster: usize,
    pub message_bytes: u64,
    pub lambda_per_us: f64,
}

impl Point {
    pub fn config(&self) -> Result<SystemConfig, ModelError> {
        SystemConfig::new(
            self.clusters,
            self.nodes_per_cluster,
            self.message_bytes,
            self.lambda_per_us,
            self.scenario,
            self.architecture,
        )
    }

    pub fn architecture_name(&self) -> &'static str {
        match self.architecture {
            Architecture::NonBlocking => "nonblocking",
            Architecture::Blocking => "blocking",
        }
    }

    /// The request's JSON fields, without braces. `{}` on an `f64`
    /// prints the shortest decimal that parses back to the same bits.
    pub fn json_fields(&self) -> String {
        let scenario = match self.scenario {
            Scenario::Case1 => "case1",
            Scenario::Case2 => "case2",
        };
        format!(
            "\"scenario\":\"{scenario}\",\"architecture\":\"{}\",\"clusters\":{},\
             \"nodes_per_cluster\":{},\"message_bytes\":{},\"lambda_per_us\":{}",
            self.architecture_name(),
            self.clusters,
            self.nodes_per_cluster,
            self.message_bytes,
            self.lambda_per_us
        )
    }
}

/// The model outputs the equations relate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelOutput {
    pub external_probability: f64,
    pub sojourn_icn1_us: f64,
    pub sojourn_ecn1_us: f64,
    pub sojourn_icn2_us: f64,
    pub mean_latency_us: f64,
    pub lambda_eff: f64,
    pub total_waiting: f64,
    pub retained_fraction: f64,
    pub throughput_per_us: f64,
    pub utilization: [f64; 3],
    pub bottleneck: f64,
}

impl ModelOutput {
    fn from_evaluate(doc: &Json) -> Result<Self, String> {
        Ok(ModelOutput {
            external_probability: doc.num(&["external_probability"])?,
            sojourn_icn1_us: doc.num(&["latency_us", "sojourn_icn1"])?,
            sojourn_ecn1_us: doc.num(&["latency_us", "sojourn_ecn1"])?,
            sojourn_icn2_us: doc.num(&["latency_us", "sojourn_icn2"])?,
            mean_latency_us: doc.num(&["latency_us", "mean"])?,
            lambda_eff: doc.num(&["solver", "lambda_eff"])?,
            total_waiting: doc.num(&["solver", "total_waiting"])?,
            retained_fraction: doc.num(&["solver", "retained_fraction"])?,
            throughput_per_us: doc.num(&["throughput_per_us"])?,
            utilization: [
                doc.num(&["utilization", "icn1"])?,
                doc.num(&["utilization", "ecn1"])?,
                doc.num(&["utilization", "icn2"])?,
            ],
            bottleneck: doc.num(&["utilization", "bottleneck"])?,
        })
    }

    fn from_report(report: &PerformanceReport) -> Self {
        let eq = &report.equilibrium;
        let lat = &report.latency;
        ModelOutput {
            external_probability: lat.external_probability,
            sojourn_icn1_us: lat.sojourn_icn1_us,
            sojourn_ecn1_us: lat.sojourn_ecn1_us,
            sojourn_icn2_us: lat.sojourn_icn2_us,
            mean_latency_us: lat.mean_message_latency_us,
            lambda_eff: eq.lambda_eff,
            total_waiting: eq.total_waiting,
            retained_fraction: eq.retained_fraction,
            throughput_per_us: report.throughput_per_us,
            utilization: [eq.icn1.utilization, eq.ecn1.utilization, eq.icn2.utilization],
            bottleneck: eq.bottleneck_utilization(),
        }
    }
}

fn close(what: &str, got: f64, want: f64, rel: f64) -> Result<(), String> {
    if got.is_finite() && (got - want).abs() <= rel * want.abs().max(f64::MIN_POSITIVE) {
        Ok(())
    } else {
        Err(format!("{what}: got {got}, equation gives {want}"))
    }
}

/// Eq. 8's external probability, `P = (C−1)·N₀ / (C·N₀ − 1)`.
pub fn external_probability(clusters: usize, nodes_per_cluster: usize) -> f64 {
    let (c, n0) = (clusters as f64, nodes_per_cluster as f64);
    if c * n0 <= 1.0 {
        return 0.0;
    }
    (c - 1.0) * n0 / (c * n0 - 1.0)
}

/// Eqs. 7, 8 and 9 plus the throughput identities, recomputed from the
/// point and the outputs, and the unsaturated operating point.
pub fn check_equations(point: &Point, out: &ModelOutput) -> Result<(), String> {
    let n = (point.clusters * point.nodes_per_cluster) as f64;
    let lambda = point.lambda_per_us;
    let p = external_probability(point.clusters, point.nodes_per_cluster);
    close("eq. 8 external probability", out.external_probability, p, 1e-12)?;
    let eq9 =
        (1.0 - p) * out.sojourn_icn1_us + p * (out.sojourn_icn2_us + 2.0 * out.sojourn_ecn1_us);
    close("eq. 9 mean latency", out.mean_latency_us, eq9, 1e-12)?;
    // The fixed point is solved by bisection to a tolerance, so eq. 7
    // holds to 1e-6 of λ, as the solver's own contract states.
    let eq7 = lambda * (n - out.total_waiting) / n;
    let holds = (out.lambda_eff - eq7).abs() <= 1e-6 * lambda;
    if !holds {
        return Err(format!("eq. 7 lambda_eff: got {}, equation gives {eq7}", out.lambda_eff));
    }
    close("throughput = N·lambda_eff", out.throughput_per_us, n * out.lambda_eff, 1e-12)?;
    close("retained = lambda_eff/lambda", out.retained_fraction, out.lambda_eff / lambda, 1e-12)?;
    let max_util = out.utilization.iter().copied().fold(0.0, f64::max);
    close("bottleneck utilization", out.bottleneck, max_util, 0.0)?;
    if !(out.bottleneck > 0.0 && out.bottleneck < 1.0) {
        return Err(format!("bottleneck utilization {} is not in (0, 1)", out.bottleneck));
    }
    if !(out.sojourn_icn1_us > 0.0 && out.sojourn_ecn1_us > 0.0 && out.sojourn_icn2_us > 0.0) {
        return Err("non-positive sojourn time".to_string());
    }
    Ok(())
}

/// Checks a `/v1/evaluate` response body against its request point.
pub fn check_evaluate(point: &Point, body: &str) -> Result<(), String> {
    let doc = json::parse(body)?;
    let echo = |key: &str| doc.num(&["config", key]);
    if echo("clusters")? != point.clusters as f64
        || echo("nodes_per_cluster")? != point.nodes_per_cluster as f64
        || echo("message_bytes")? != point.message_bytes as f64
        || echo("lambda_per_us")?.to_bits() != point.lambda_per_us.to_bits()
        || doc.str(&["config", "architecture"])? != point.architecture_name()
    {
        return Err("response config does not echo the request".to_string());
    }
    check_equations(point, &ModelOutput::from_evaluate(&doc)?)
}

/// The points of a λ sweep over `base`: one per value, as `(x, point)`.
pub fn sweep_points(base: &Point, lambdas: &[f64]) -> Vec<(f64, Point)> {
    lambdas.iter().map(|&l| (l, Point { lambda_per_us: l, ..*base })).collect()
}

/// Checks a `/v1/sweep` response over λ: every point must carry the
/// bits of the same point evaluated on its own, and that evaluation
/// must satisfy the equations.
pub fn check_sweep(base: &Point, lambdas: &[f64], body: &str) -> Result<(), String> {
    let doc = json::parse(body)?;
    if doc.str(&["parameter"])? != "lambda" {
        return Err("sweep parameter does not echo the request".to_string());
    }
    let Some(Json::Arr(served)) = doc.get("points") else {
        return Err("sweep response has no points array".to_string());
    };
    let expected = sweep_points(base, lambdas);
    if served.len() != expected.len() {
        return Err(format!("{} sweep points served, {} requested", served.len(), expected.len()));
    }
    for (i, (served, (x, point))) in served.iter().zip(&expected).enumerate() {
        let config = point.config().map_err(|e| format!("sweep point {i}: {e}"))?;
        let (report, _) = batch::evaluate_one(&config, None, None)
            .map_err(|e| format!("sweep point {i}: {e}"))?;
        let reference = ModelOutput::from_report(&report);
        check_equations(point, &reference).map_err(|e| format!("sweep point {i}: {e}"))?;
        let fields = [
            ("x", *x),
            ("mean_latency_us", reference.mean_latency_us),
            ("throughput_per_us", reference.throughput_per_us),
            ("bottleneck_utilization", reference.bottleneck),
            ("retained_fraction", reference.retained_fraction),
        ];
        for (key, want) in fields {
            let got = served.num(&[key])?;
            if got.to_bits() != want.to_bits() {
                return Err(format!("sweep point {i}: {key} {got} differs from {want}"));
            }
        }
    }
    Ok(())
}

/// Checks a pruned optimizer answer: a non-empty frontier with cost
/// strictly rising and latency strictly falling, every point within
/// the SLO and budget, and bit-identical to the exhaustive answer.
pub fn check_frontier(
    spec: &OptimizeSpec,
    pruned: &OptimizeOutcome,
    exhaustive: &OptimizeOutcome,
) -> Result<(), String> {
    let frontier = &pruned.frontier;
    if frontier.is_empty() {
        return Err("empty frontier".to_string());
    }
    for pair in frontier.windows(2) {
        if !(pair[1].cost_usd > pair[0].cost_usd && pair[1].latency_us < pair[0].latency_us) {
            return Err(format!(
                "frontier not strictly cost-rising and latency-falling at {}",
                pair[1].design.key()
            ));
        }
    }
    for point in frontier {
        if spec.constraints.slo_latency_us.is_some_and(|slo| point.latency_us > slo) {
            return Err(format!("{} breaks the SLO", point.design.key()));
        }
        if spec.constraints.budget_usd.is_some_and(|budget| point.cost_usd > budget) {
            return Err(format!("{} breaks the budget", point.design.key()));
        }
    }
    if !same_frontier(pruned, exhaustive) {
        return Err("pruned frontier differs from the exhaustive one".to_string());
    }
    Ok(())
}

/// Bit-for-bit equality of two frontiers.
pub fn same_frontier(a: &OptimizeOutcome, b: &OptimizeOutcome) -> bool {
    a.frontier.len() == b.frontier.len()
        && a.frontier.iter().zip(&b.frontier).all(|(x, y)| {
            x.design.key() == y.design.key()
                && [
                    (x.cost_usd, y.cost_usd),
                    (x.latency_us, y.latency_us),
                    (x.throughput_per_us, y.throughput_per_us),
                    (x.retained_fraction, y.retained_fraction),
                    (x.bottleneck_utilization, y.bottleneck_utilization),
                    (x.saturation_lambda, y.saturation_lambda),
                ]
                .iter()
                .all(|(u, v)| u.to_bits() == v.to_bits())
        })
}

/// Claims a full `reproduce all` registry evaluates.
pub const REGISTRY_CLAIMS: usize = 20;

/// Runs the claims registry over a pass's CSV directory and recomputes
/// the blocking/non-blocking ratio column of `claims.csv` from its two
/// latency columns. Returns the number of claims that passed.
pub fn check_claims_dir(dir: &Path) -> Result<usize, String> {
    let results = hmcs_bench::claims::evaluate_dir(dir)?;
    if let Some(failed) = results.iter().find(|r| !r.passed) {
        return Err(format!("claim {} failed: {}", failed.id, failed.detail));
    }
    if results.len() < REGISTRY_CLAIMS {
        return Err(format!("{} claims evaluated, {REGISTRY_CLAIMS} expected", results.len()));
    }
    let text = std::fs::read_to_string(dir.join("claims.csv")).map_err(|e| e.to_string())?;
    for (i, line) in text.lines().skip(1).enumerate() {
        let cells: Vec<&str> = line.split(',').collect();
        let num = |j: usize| -> Result<f64, String> {
            cells.get(j).and_then(|c| c.trim().parse().ok()).ok_or(format!("claims.csv row {i}"))
        };
        let (nonblocking, blocking, ratio) = (num(2)?, num(3)?, num(4)?);
        // The cells are rounded to 3 and 2 decimals.
        let recomputed = blocking / nonblocking;
        if !(blocking > nonblocking && (ratio - recomputed).abs() <= 0.006 + 1e-4 * ratio) {
            return Err(format!(
                "claims.csv row {i}: ratio {ratio} vs blocking/non-blocking {recomputed}"
            ));
        }
    }
    Ok(results.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmcs_core::batch::BatchOptions;
    use hmcs_core::optimize::{self, Constraints, DesignSpace, Workload};
    use hmcs_serve::api;

    fn point() -> Point {
        Point {
            scenario: Scenario::Case2,
            architecture: Architecture::Blocking,
            clusters: 8,
            nodes_per_cluster: 16,
            message_bytes: 512,
            lambda_per_us: 1.5e-4,
        }
    }

    /// Replaces the number after `"key":` in `body` with `f(number)`.
    fn perturb(body: &str, key: &str, f: impl Fn(f64) -> f64) -> String {
        let tag = format!("\"{key}\":");
        let start = body.find(&tag).expect("key present") + tag.len();
        let len = body[start..].find([',', '}']).expect("number ends");
        let value: f64 = body[start..start + len].parse().unwrap();
        format!("{}{}{}", &body[..start], f(value), &body[start + len..])
    }

    #[test]
    fn evaluate_checker_accepts_served_body_and_rejects_corruption() {
        let p = point();
        let body = api::evaluate_response(&p.config().unwrap()).unwrap();
        check_evaluate(&p, &body).unwrap();

        let bad = perturb(&body, "lambda_eff", |x| x * (1.0 + 1e-3));
        let err = check_evaluate(&p, &bad).unwrap_err();
        assert!(err.contains("eq. 7"), "{err}");

        let bad = perturb(&body, "sojourn_ecn1", |x| x * 1.01);
        let err = check_evaluate(&p, &bad).unwrap_err();
        assert!(err.contains("eq. 9"), "{err}");

        let other = Point { lambda_per_us: 1.6e-4, ..p };
        assert!(check_evaluate(&other, &body).is_err(), "a body for another point must fail");
    }

    #[test]
    fn sweep_checker_accepts_served_body_and_rejects_corruption() {
        let p = point();
        let lambdas = [5e-5, 1e-4, 1.5e-4];
        let spec = api::SweepSpec::Lambda(lambdas.to_vec());
        let body = api::sweep_response(&p.config().unwrap(), &spec).unwrap();
        check_sweep(&p, &lambdas, &body).unwrap();
        let bad = perturb(&body, "mean_latency_us", |x| x * (1.0 + 1e-9));
        assert!(check_sweep(&p, &lambdas, &bad).is_err());
    }

    fn small_spec() -> OptimizeSpec {
        let workload = Workload { total_nodes: 64, ..Workload::paper_default() };
        OptimizeSpec {
            workload,
            constraints: Constraints {
                slo_latency_us: Some(40_000.0),
                budget_usd: Some(100_000.0),
                ..Constraints::default()
            },
            space: DesignSpace::paper_default(64),
        }
    }

    #[test]
    fn frontier_checker_accepts_answer_and_rejects_swapped_points() {
        let spec = small_spec();
        let options = BatchOptions::sequential();
        let pruned = optimize::optimize_pruned(&spec, options).unwrap();
        let exhaustive = optimize::optimize(&spec, options).unwrap();
        assert!(pruned.frontier.len() >= 3);
        check_frontier(&spec, &pruned, &exhaustive).unwrap();

        let mut swapped = pruned.clone();
        swapped.frontier.swap(0, 1);
        let err = check_frontier(&spec, &swapped, &exhaustive).unwrap_err();
        assert!(err.contains("strictly"), "{err}");

        let mut tight = spec.clone();
        tight.constraints.budget_usd = Some(pruned.frontier[1].cost_usd);
        assert!(check_frontier(&tight, &pruned, &exhaustive).is_err(), "budget breach");
    }

    fn copy_results(name: &str) -> std::path::PathBuf {
        let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        let dir = std::env::temp_dir().join(format!("perfbench_{name}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for entry in std::fs::read_dir(&src).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == "csv") {
                std::fs::copy(&path, dir.join(path.file_name().unwrap())).unwrap();
            }
        }
        dir
    }

    #[test]
    fn claims_checker_accepts_committed_results_and_rejects_a_flipped_cell() {
        let dir = copy_results("claims_ok");
        assert_eq!(check_claims_dir(&dir).unwrap(), REGISTRY_CLAIMS);
        std::fs::remove_dir_all(&dir).ok();

        // Swap the two latency cells of one claims.csv row.
        let dir = copy_results("claims_flipped");
        let path = dir.join("claims.csv");
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        let mut cells: Vec<String> = lines[4].split(',').map(str::to_string).collect();
        cells.swap(2, 3);
        lines[4] = cells.join(",");
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        assert!(check_claims_dir(&dir).is_err());

        // A ratio cell the registry's own bounds still accept must fail
        // the recomputation from the latency cells.
        let mut cells: Vec<String> = lines[4].split(',').map(str::to_string).collect();
        cells.swap(2, 3);
        cells[4] = "30.70".to_string();
        lines[4] = cells.join(",");
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        let err = check_claims_dir(&dir).unwrap_err();
        assert!(err.contains("ratio 30.7"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
