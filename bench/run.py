"""The proxnet benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Writes the workload's seeded inputs, then runs `proxnet run` on them in
fresh processes, one after another (a closed loop with one client), for S
seconds.  Every run's output is checked.  Each metric is printed by name
and unit; the last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  With --trace 1, untraced
and traced runs alternate, so the tracing overhead is measured too.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = BENCH / "reference"

DEFAULT_SEED = 0
MIN_RUNS = 3  # per kind of run (untraced, traced)
TIME_LIMIT_S = 165.0  # no run starts or continues past this; an invocation has 180 s

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "proxnet" / "__init__.py").is_file():
        print(f"error: no proxnet source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from check import check_trace
    from tracer import LAYER_UNITS, layer_metrics
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    reference = None
    if args.seed == DEFAULT_SEED:
        reference = (REFERENCE / f"{args.workload}.csv").read_text(encoding="utf-8")

    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        config_text = WORKLOADS[args.workload](args.seed, work)
        config = work / "run.conf"
        config.write_text(config_text, encoding="utf-8")
        max_iter = int(re.search(r"^algo\.max_iter = (\d+)$", config_text, re.M)[1])
        env = child_env()

        untraced, traced, failures, durations = [], [], [], []
        untraced_csv = None
        attempt = 0
        deadline = time.perf_counter() + args.seconds
        while True:
            # Start another run only if a typical one would end by the deadline.
            now = time.perf_counter()
            enough = len(untraced) >= MIN_RUNS and (
                not args.trace or len(traced) >= MIN_RUNS
            )
            typical = statistics.median(durations) if durations else 0.0
            if (enough and now + typical > deadline) or now - started >= TIME_LIMIT_S:
                break
            is_traced = bool(args.trace) and attempt % 2 == 1
            outcome = one_run(
                work, config, attempt, is_traced, env,
                timeout=TIME_LIMIT_S - (now - started),
            )
            durations.append(time.perf_counter() - now)
            attempt += 1
            if isinstance(outcome, str):
                failures.append(outcome)
                print(f"run {attempt - 1} failed: {outcome}")
                continue
            result, csv_text = outcome
            problems = check_trace(csv_text, max_iter, reference)
            if is_traced and untraced_csv is not None and csv_text != untraced_csv:
                problems.append("traced trace CSV differs from the untraced one")
            if problems:
                failures.append(problems[0])
                print(f"run {attempt - 1} failed the output check: {problems[:3]}")
                continue
            if is_traced:
                layers = layer_metrics(result["spans"])
                layers["diagnostics.trace_bytes"] = len(csv_text.encode("utf-8"))
                traced.append({**result, "layers": layers})
            else:
                untraced_csv = untraced_csv or csv_text
                untraced.append(result)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    attempted, failed = attempt, len(failures)
    print(
        f"workload {args.workload} seed {args.seed} trace {args.trace}: "
        f"{attempted} runs in {time.perf_counter() - started:.1f} s"
    )
    if not untraced or (args.trace and not traced):
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": failed, "metrics": {}}))
        return 1

    e2e = {name: [run[name] for run in untraced] for name in END_TO_END}
    for name, unit in END_TO_END.items():
        print(_describe(name, e2e[name], unit))
    print(f"fail_rate {failed / attempted!r} ratio ({failed} failed of {attempted})")
    metrics = {
        name: {"value": statistics.median(e2e[name]), "unit": unit}
        for name, unit in END_TO_END.items()
    }
    record = {
        "provenance": _provenance(args, len(untraced), env),
        "end_to_end": {name: _summary(values) for name, values in e2e.items()},
        "fail_rate": failed / attempted,
    }
    if args.trace:
        absent = sorted({name for run in traced for name in run["absent"]})
        if absent:
            print(f"absent layers (reported as 0): {', '.join(absent)}")
        # median_low keeps counts whole; they repeat exactly anyway.
        layers = {
            name: statistics.median_low(run["layers"][name] for run in traced)
            for name in traced[0]["layers"]
        }
        layers["trace.overhead_s"] = (
            statistics.median(run["wall_s"] for run in traced)
            - metrics["wall_s"]["value"]
        )
        for name, unit in LAYER_UNITS.items():
            print(f"{name} {layers[name]!r} {unit} (median of {len(traced)} traced runs)")
        metrics = {
            name: {"value": layers[name], "unit": unit}
            for name, unit in LAYER_UNITS.items()
        }
        record["per_layer"] = layers
        record["absent"] = absent
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def one_run(work, config, attempt, traced, env, timeout):
    """One probe process; returns (result, trace CSV text) or a failure reason."""
    trace_csv = work / f"trace-{attempt}.csv"
    result_json = work / f"result-{attempt}.json"
    cmd = [sys.executable, str(BENCH / "probe.py"), str(SRC), str(config),
           str(trace_csv), str(result_json)]
    if traced:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, cwd=work, env=env, capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return f"timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        tail = (proc.stderr.strip().splitlines() or ["no message"])[-1]
        return f"exit code {proc.returncode}: {tail}"
    result = json.loads(result_json.read_text(encoding="utf-8"))
    if "setup_s" not in result:
        return "proxnet.cli.run was not entered exactly once"
    csv_text = trace_csv.read_text(encoding="utf-8")
    for path in (trace_csv, result_json, trace_csv.with_suffix(".summary.txt")):
        path.unlink(missing_ok=True)
    return result, csv_text


def child_env() -> dict[str, str]:
    """The environment of each run: BLAS threads at most the usable cores."""
    env = dict(os.environ)
    env.pop("OUTPUT_DIR", None)
    threads = _nproc()
    for var in BLAS_THREAD_VARS:
        if env.get(var, "").isdigit() and int(env[var]) > 0:
            threads = min(threads, int(env[var]))
    env.update({var: str(threads) for var in BLAS_THREAD_VARS})
    return env


def _nproc() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _tail_percentile(values):
    """The highest percentile with at least ten samples beyond it, or None."""
    ordered = sorted(values)
    if len(ordered) < 11:
        return None
    rank = len(ordered) - 10
    return 100.0 * rank / len(ordered), ordered[rank - 1]


def _summary(values) -> dict:
    summary = {"median": statistics.median(values), "n": len(values), "values": values}
    tail = _tail_percentile(values)
    if tail is not None:
        summary[f"p{tail[0]:.0f}"] = tail[1]
    return summary


def _describe(name, values, unit) -> str:
    tail = _tail_percentile(values)
    tail_text = (
        f"p{tail[0]:.0f} {tail[1]!r} {unit}"
        if tail is not None
        else "no tail percentile (needs 11 runs)"
    )
    return (
        f"{name} median {statistics.median(values)!r} {unit}, {tail_text}, "
        f"n={len(values)}"
    )


def _provenance(args, samples, env) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    digest = hashlib.sha256()
    for path in sorted((SRC / "proxnet").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": samples,
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": int(env[BLAS_THREAD_VARS[0]]),
        "nproc": _nproc(),
    }


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


if __name__ == "__main__":
    sys.exit(main())
