#!/usr/bin/env python3
"""perfbench: one benchmark for the repository's three user paths.

    python3 perfbench/run.py --workload {reproduce,plan,serve} --seed N \
        --seconds S --trace {0,1}

Run it from the repository root. It builds the `reproduce` binary from
the repository's workspace and the in-process harness in
`perfbench/harness/` (both into `$CARGO_TARGET_DIR`, default
`.bench_build`), runs one workload, checks every output and prints, as
its last line, one JSON object with `correct`, `attempted`, `failed`
and `metrics`. With `--trace 0` the metrics are the end-to-end ones of
`BENCHMARK.json`; with `--trace 1` they are the per-layer ones, and
spans go to `.perfbench_out/`. The line before it holds the host facts.
See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import tomllib

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(REPO, ".perfbench_out")
HARNESS_MANIFEST = os.path.join("perfbench", "harness", "Cargo.toml")
# Environment the program reads; unset so every run uses the paper
# simulation budget, the default worker pool and no metrics printout.
PROGRAM_ENV = ("HMCS_SIM_BUDGET", "HMCS_POOL_WORKERS", "HMCS_METRICS")
# Cold set-ups per untraced run, each in a fresh process; `setup_s` is
# their median.
SETUP_PROCESSES = 5


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def program_env():
    env = dict(os.environ)
    for key in PROGRAM_ENV:
        env.pop(key, None)
    return env


def target_dir():
    return os.path.join(REPO, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def release_profile_env():
    """The repository's `[profile.release]` as `CARGO_PROFILE_RELEASE_*`
    variables, so the harness links the library crates built the way the
    repository builds its own binaries."""
    with open(os.path.join(REPO, "Cargo.toml"), "rb") as f:
        profile = tomllib.load(f).get("profile", {}).get("release", {})
    env = {}
    for key, value in profile.items():
        if isinstance(value, dict):
            continue
        if isinstance(value, bool):
            value = "true" if value else "false"
        env["CARGO_PROFILE_RELEASE_" + key.upper().replace("-", "_")] = str(value)
    return env


def cargo(args, extra_env=None):
    env = program_env()
    env["CARGO_TARGET_DIR"] = target_dir()
    env.update(extra_env or {})
    done = subprocess.run(["cargo", *args], cwd=REPO, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        raise BenchError(f"cargo {' '.join(args)} failed with exit code {done.returncode}")


def build():
    if not os.path.isfile(os.path.join(REPO, "Cargo.toml")):
        raise BenchError("no Cargo.toml at the repository root; nothing to build")
    cargo(["build", "--release", "--offline", "-p", "hmcs-bench", "--bin", "reproduce"])
    try:
        profile = release_profile_env()
    except (OSError, tomllib.TOMLDecodeError) as e:
        raise BenchError(f"cannot read the release profile: {e}") from e
    cargo(["build", "--release", "--offline", "--manifest-path", HARNESS_MANIFEST], profile)
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "reproduce"), os.path.join(release, "perfbench-harness")


def harness_json(harness, args):
    done = subprocess.run([harness, *args], cwd=REPO, env=program_env(),
                          stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise BenchError(f"harness {args[0]} failed with exit code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"harness {args[0]} printed nothing")
    return json.loads(lines[-1])


def reproduce_pass(binary, seed, csv_dir):
    """One fresh `reproduce all` process: (seconds, exit ok, peak RSS KiB)."""
    with open(csv_dir + ".stderr", "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen([binary, "all", "--seed", str(seed), "--csv", csv_dir],
                                cwd=REPO, env=program_env(), stdout=subprocess.DEVNULL,
                                stderr=err)
        # wait4 reaps the child and returns its own resource usage.
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)  # keeps Popen from waiting again
    return seconds, proc.returncode == 0, usage.ru_maxrss


def check_claims(harness, dirs):
    """Runs the claims checker over every pass directory; returns the
    number of directories whose outputs fail it."""
    if not dirs:
        return 0
    return harness_json(harness, ["check-claims", *dirs])["failed"]


def run_reproduce(binary, harness, seed, seconds, trace, scratch):
    passes = []  # (dir, seconds, ok, rss_kib)

    def one_pass():
        csv_dir = os.path.join(scratch, f"pass-{len(passes)}")
        passes.append((csv_dir, *reproduce_pass(binary, seed, csv_dir)))
        return passes[-1]

    if not trace:
        warmup = [one_pass()[1] for _ in range(SETUP_PROCESSES)]
        measured = []
        while sum(measured) < seconds:
            measured.append(one_pass()[1])
        values = {
            "setup_s": statistics.median(warmup),
            "peak_rss_mb": max(p[3] for p in passes) / 1024.0,
            "p50_ms": statistics.median(measured) * 1e3,
            "throughput_per_s": len(measured) / sum(measured),
        }
        traced = []
    else:
        # Alternate traced and untraced in-process passes, each a fresh
        # harness process so the simulation cache starts cold; their
        # difference is the tracing overhead. A `reproduce all` process
        # per round keeps the claims registry checked.
        traced, untraced = [], []
        started = time.perf_counter()
        while not traced or time.perf_counter() - started < seconds:
            out = os.path.join(OUT, f"trace-reproduce-{seed}-{len(traced)}.jsonl")
            for trace_flag, runs in (("1", traced), ("0", untraced)):
                runs.append(harness_json(harness, ["reproduce-pass", "--seed", str(seed),
                                                   "--trace", trace_flag, "--trace-out", out]))
            one_pass()
        values = {name: statistics.median(t["values"][name] for t in traced)
                  for name in traced[0]["values"]}
        values["trace.overhead_ms"] = values.pop("trace.pass_ms") - statistics.median(
            u["values"]["trace.pass_ms"] for u in untraced)
        traced += untraced
    failed = sum(1 for p in passes if not p[2])
    wrong = check_claims(harness, [p[0] for p in passes if p[2]])
    wrong += sum(1 for t in traced if not t["correct"])
    return {
        "correct": wrong == 0,
        "attempted": len(passes) + len(traced),
        "failed": failed + sum(t["failed"] for t in traced),
        "values": values,
        "info": {"workers": str(len(os.sched_getaffinity(0)))},
    }


def run_in_process(harness, workload, seed, seconds, trace):
    """`plan` or `serve`: one harness process runs the workload and
    reports its own cold set-up. An untraced run first starts
    SETUP_PROCESSES - 1 more processes that only set up, so `setup_s`
    is a median over fresh processes."""
    setups = [] if trace else [harness_json(harness, [workload + "-setup", "--seed", str(seed)])
                               for _ in range(SETUP_PROCESSES - 1)]
    trace_out = os.path.join(OUT, f"trace-{workload}-{seed}.jsonl")
    result = harness_json(harness, [workload, "--seed", str(seed), "--seconds", str(seconds),
                                    "--trace", str(trace), "--trace-out", trace_out])
    if setups:
        result["values"]["setup_s"] = statistics.median(
            r["values"]["setup_s"] for r in setups + [result])
    for r in setups:
        result["correct"] = result["correct"] and r["correct"]
        result["attempted"] += r["attempted"]
        result["failed"] += r["failed"]
    return result


def host_facts(workload, seed, info):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), cpu)
    except OSError:
        pass
    rustc = subprocess.run(["rustc", "--version"], stdout=subprocess.PIPE, text=True).stdout.strip()
    return {"workload": workload, "cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "rustc": rustc, "budget": "paper", "seed": seed, **info}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["reproduce", "plan", "serve"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")

    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    binary, harness = build()
    os.makedirs(OUT, exist_ok=True)
    scratch = os.path.join(OUT, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(scratch)
    try:
        if args.workload == "reproduce":
            result = run_reproduce(binary, harness, args.seed, args.seconds, args.trace, scratch)
        else:
            result = run_in_process(harness, args.workload, args.seed, args.seconds, args.trace)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    values = result["values"]
    unknown = set(values) - set(units)
    if unknown:
        raise BenchError(f"measured metrics missing from BENCHMARK.json: {sorted(unknown)}")
    # A layer the workload never calls reads 0.
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in units.items()}
    print("host " + json.dumps(host_facts(args.workload, args.seed, result["info"])))
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    try:
        main()
    except (BenchError, OSError, ValueError, KeyError) as e:
        log(f"perfbench: {e}")
        sys.exit(1)
