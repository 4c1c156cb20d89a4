//! The in-process half of the perfbench benchmark. `run.py` builds it
//! and calls it; see `perfbench/README.md`.
//!
//! ```text
//! perfbench-harness plan  --seed N --seconds S [--trace 0|1] [--trace-out PATH]
//! perfbench-harness serve --seed N --seconds S [--trace 0|1] [--trace-out PATH]
//! perfbench-harness plan-setup  --seed N
//! perfbench-harness serve-setup --seed N
//! perfbench-harness reproduce-pass --seed N [--trace 0|1] [--trace-out PATH]
//! perfbench-harness check-claims DIR...
//! ```
//!
//! Each workload mode prints one JSON line: `correct`, `attempted`,
//! `failed`, the measured `values` by metric name, and `info`. The
//! `*-setup` modes run only the workload's cold, checked set-up and
//! report its `setup_s`.

mod checks;
mod json;
mod pass;
mod plan;
mod report;
mod rng;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    mode: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: PathBuf,
    rest: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let mode = argv.next().ok_or("missing mode")?;
    let mut args = Args {
        mode,
        seed: 1,
        seconds: 10.0,
        trace: false,
        trace_out: PathBuf::from("trace.jsonl"),
        rest: Vec::new(),
    };
    while let Some(arg) = argv.next() {
        let mut value = |name: &str| argv.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--seed" => args.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value("--trace")? == "1",
            "--trace-out" => args.trace_out = PathBuf::from(value("--trace-out")?),
            other => args.rest.push(other.to_string()),
        }
    }
    Ok(args)
}

fn run(args: &Args) -> Result<(), String> {
    let (seed, seconds, out) = (args.seed, args.seconds, &args.trace_out);
    let (outcome, info) = match (args.mode.as_str(), args.trace) {
        ("plan", false) => (plan::run(seed, seconds)?, ("workers", plan::WORKERS)),
        ("plan", true) => (plan::run_traced(seed, seconds, out)?, ("workers", plan::WORKERS)),
        ("plan-setup", _) => (plan::run_setup(seed)?, ("workers", plan::WORKERS)),
        ("serve", false) => (serve::run(seed, seconds)?, ("callers", serve::callers())),
        ("serve", true) => (serve::run_traced(seed, seconds, out)?, ("callers", serve::callers())),
        ("serve-setup", _) => (serve::run_setup(seed)?, ("callers", serve::callers())),
        ("reproduce-pass", traced) => {
            (pass::run(seed, traced, out)?, ("traced", usize::from(traced)))
        }
        ("check-claims", _) => {
            let failed = pass::check_dirs(&args.rest);
            println!("{{\"checked\":{},\"failed\":{failed}}}", args.rest.len());
            return Ok(());
        }
        (other, _) => return Err(format!("unknown mode {other}")),
    };
    println!("{}", outcome.to_json(&[(info.0, info.1.to_string())]));
    Ok(())
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench-harness: {e}");
            ExitCode::FAILURE
        }
    }
}
