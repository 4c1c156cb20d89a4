//! What a workload run hands back to `run.py`, and the process-level
//! readings it is built from.

use hmcs_core::metrics;
use std::fmt::Write as _;

/// Named measured values, in the order they were taken. Units live in
/// `BENCHMARK.json`; `run.py` attaches them.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(&'static str, f64)>);

impl Metrics {
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    /// The highest percentile with at least ten samples beyond it, its
    /// value and the sample count (zeros when there is no tail).
    pub fn push_tail(&mut self, tail: Option<(f64, f64)>, samples: usize) {
        let (percentile, ms) = tail.unwrap_or((0.0, 0.0));
        self.push("tail.percentile", percentile);
        self.push("tail.ms", ms);
        self.push("tail.samples", samples as f64);
    }
}

/// One run's result.
#[derive(Debug)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

impl Outcome {
    /// The single JSON line `run.py` reads.
    pub fn to_json(&self, info: &[(&str, String)]) -> String {
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"values\":{{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value)) in self.metrics.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            // Non-finite values are not JSON; they can only come from a
            // division by an empty phase and are reported as 0.
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(out, "{sep}\"{name}\":{value:?}");
        }
        out.push_str("},\"info\":{");
        for (i, (key, value)) in info.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\"{key}\":\"{value}\"");
        }
        out.push_str("}}");
        out
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// The program's own counters this benchmark reads, from
/// `hmcs_core::metrics::global()`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub solves: u64,
    pub iterations: u64,
    pub busy_us: f64,
    pub idle_us: f64,
    pub request_count: u64,
    pub request_us: u64,
    pub coalesce_hits: u64,
    pub coalesce_computations: u64,
    pub flow_events: u64,
    pub packet_events: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
}

pub fn counters() -> Counters {
    let snap = metrics::global().snapshot();
    let counter = |k: &str| snap.counters.get(k).copied().unwrap_or(0);
    let hist = |k: &str| snap.histograms.get(k).map_or((0, 0), |h| (h.count, h.sum));
    Counters {
        solves: counter(metrics::keys::SOLVER_SOLVES),
        iterations: hist(metrics::keys::SOLVER_ITERATIONS).1,
        busy_us: hist(metrics::keys::BATCH_WORKER_BUSY_US).1 as f64,
        idle_us: hist(metrics::keys::BATCH_WORKER_IDLE_US).1 as f64,
        request_count: hist(hmcs_serve::keys::REQUEST_US).0,
        request_us: hist(hmcs_serve::keys::REQUEST_US).1,
        coalesce_hits: counter(hmcs_serve::keys::COALESCE_HITS),
        coalesce_computations: counter(hmcs_serve::keys::COALESCE_COMPUTATIONS),
        flow_events: counter(hmcs_sim::metrics_keys::FLOW_EVENTS),
        packet_events: counter(hmcs_sim::metrics_keys::PACKET_EVENTS),
        cache_hits: counter(hmcs_bench::simcache::SIM_CACHE_HITS),
        cache_misses: counter(hmcs_bench::simcache::SIM_CACHE_MISSES),
    }
}
