"""upkit's benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Each iteration runs the workload's op list in a fresh worker
process (``worker.py``), so every iteration starts with cold caches, the
way a user's command does.  With ``--trace 0`` iterations repeat while the
next one is expected to end within ``--seconds`` (at least MIN_ITERATIONS
of them), and the end-to-end metrics are medians over them.  With
``--trace 1`` the op list runs once untraced and once traced, and the
per-layer metrics come from the traced run.  Outputs are checked after the
timed runs (``checks.py``).

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  A results record with provenance goes to ``perfbench/out/``.
``--workload all`` runs every workload in turn.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

if not (SRC / "upkit" / "cli.py").is_file():
    raise SystemExit(f"perfbench: no upkit sources under {SRC}; run from the root of a source checkout")
sys.path.insert(0, str(SRC))
import checks  # noqa: E402  (imports upkit from SRC)
import tracing  # noqa: E402
import workloads  # noqa: E402

# Interpreter starts timed before each iteration, so the setup_s samples
# spread over the whole run rather than one burst at its start.
SETUP_STARTS_PER_ITERATION = 3
# A median of fewer than three iterations follows single slow runs, so
# every run makes at least three even when they outlast --seconds.
MIN_ITERATIONS = 3
SETUP_CODE = "import upkit.cli\nimport time\nprint(repr(time.monotonic()))"
DEADLINE_S = 170

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "peak_rss_mb": "MB",
}


class HarnessError(Exception):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    # fixed string hashing, so set iteration order is the same in every run
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv: list[str], stdin: str, deadline: float) -> str:
    """Run a child in its own process group, killed at the deadline."""
    with subprocess.Popen(
        argv,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=child_env(),
        cwd=ROOT,
        start_new_session=True,
    ) as proc:
        try:
            out, err = proc.communicate(stdin, timeout=max(1.0, deadline - time.monotonic()))
        except BaseException as exc:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise HarnessError(f"{argv[1]} did not finish before the deadline")
            raise
    if proc.returncode != 0:
        raise HarnessError(f"{argv[1]} exited with {proc.returncode}: {err.strip()[-2000:]}")
    return out


def measure_setup(starts: int, deadline: float) -> list[float]:
    """Seconds from spawning a fresh interpreter to ``import upkit.cli`` done,
    once per start."""
    argv = [sys.executable, "-c", SETUP_CODE]
    samples = []
    for _ in range(starts):
        t0 = time.monotonic()
        samples.append(float(run_child(argv, "", deadline)) - t0)
    return samples


def run_worker(ops: list[list[str]], trace: bool, deadline: float, spans=None) -> dict:
    request = {"src": str(SRC), "ops": ops, "trace": trace, "spans": spans and str(spans)}
    out = run_child([sys.executable, str(HERE / "worker.py")], json.dumps(request), deadline)
    return json.loads(out)


def check_outputs(queries, ops, iterations) -> tuple[int, list[str]]:
    """Failed op count over all iterations, and the problems found.

    The first iteration's outputs are checked; every later iteration must
    reproduce them byte for byte.
    """
    first = iterations[0]["ops"]
    problems = []
    bad = set()
    for i, (argv, op) in enumerate(zip(ops, first)):
        try:
            found = checks.check_query(queries[i], op) if queries else checks.check_batch(argv, op)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            found = [f"unreadable output: {exc!r}"]
        if found:
            bad.add(i)
            problems.append(f"{' '.join(argv)}: {'; '.join(found)}")
    failed = 0
    for k, it in enumerate(iterations):
        for i, op in enumerate(it["ops"]):
            same = (op["rc"], op["stdout"], op["stderr"]) == (
                first[i]["rc"], first[i]["stdout"], first[i]["stderr"]
            )
            if not same:
                problems.append(f"iteration {k}: output of op {i} differs from iteration 0")
            failed += i in bad or not same
    return failed, problems


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q / 100 * len(sorted_values)) - 1)]


def git_commit() -> str:
    """HEAD of the checkout's own repository, or "unknown" outside a clone."""
    try:
        return subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def provenance(workload: str, seed: int, seconds: int, trace: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "commit": git_commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def measure(ops, seconds: int, deadline: float) -> tuple[dict, list[dict], dict]:
    measure_setup(1, deadline)  # writes the bytecode cache; not counted
    setup, iterations = [], []
    start = time.monotonic()
    while True:
        setup += measure_setup(SETUP_STARTS_PER_ITERATION, deadline)
        iterations.append(run_worker(ops, False, deadline))
        elapsed = time.monotonic() - start
        if len(iterations) >= MIN_ITERATIONS and elapsed + elapsed / len(iterations) > seconds:
            break
    walls = [it["wall_s"] for it in iterations]
    wall = statistics.median(walls)
    # percentiles within each iteration, then the median over iterations
    latencies = [sorted(op["elapsed_s"] for op in it["ops"]) for it in iterations]
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "ops_per_s": len(ops) / wall,
        "op_p50_ms": statistics.median(statistics.median(lat) for lat in latencies) * 1e3,
        "op_p99_ms": statistics.median(percentile(lat, 99) for lat in latencies) * 1e3,
        "peak_rss_mb": statistics.median(
            (it["rss_self_kb"] + it["rss_children_kb"]) / 1024 for it in iterations
        ),
    }
    verify = [i for i, argv in enumerate(ops) if argv[0] == "verify"]
    detail = {
        "iterations": len(iterations),
        "setup_samples": setup,
        "wall_samples": walls,
        "ops_per_iteration": len(ops),
    }
    if verify:
        checked = sum(checks.checked_count(iterations[0]["ops"][i]) for i in verify)
        detail["checks_per_iteration"] = checked
        detail["checks_per_s"] = statistics.median(
            checked / sum(it["ops"][i]["elapsed_s"] for i in verify) for it in iterations
        )
    return metrics, iterations, detail


def measure_traced(workload: str, ops, deadline: float) -> tuple[dict, list[dict], dict]:
    untraced = run_worker(ops, False, deadline)
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{workload}.tsv.gz"
    traced = run_worker(ops, True, deadline, spans)
    overhead = traced["wall_s"] - untraced["wall_s"]
    metrics = {
        **traced["layers"],
        "trace.overhead_s": overhead,
        "trace.overhead_share": overhead / untraced["wall_s"],
    }
    detail = {
        "untraced_wall_s": untraced["wall_s"],
        "traced_wall_s": traced["wall_s"],
        "spans_file": str(spans.relative_to(ROOT)),
    }
    return metrics, [untraced, traced], detail


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    queries = workloads.build_queries(seed) if workload == "queries" else None
    ops = [workloads.argv_of(q) for q in queries] if queries else workloads.batch_ops(workload)
    if trace:
        metrics, iterations, detail = measure_traced(workload, ops, deadline)
        units = {name: unit for name, unit, _ in tracing.metric_names()}
    else:
        metrics, iterations, detail = measure(ops, seconds, deadline)
        units = E2E_UNITS
    failed, problems = check_outputs(queries, ops, iterations)
    attempted = len(ops) * len(iterations)
    if queries:
        detail["revisit_share"] = sum(q["revisit"] for q in queries) / len(queries)
    record = {
        **provenance(workload, seed, seconds, trace),
        **detail,
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "problems": problems[:50],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    report(record)
    return record


def report(record: dict) -> None:
    """Every metric by name and unit, for a person reading the output."""
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"commit {record['commit'][:12]}  python {record['python']}  nproc {record['nproc']}")
    for name, m in record["metrics"].items():
        print(f"  {name:<52} {m['value']:>14.6g} {m['unit']}")
    if "iterations" in record:
        print(f"  iterations {record['iterations']}, {record['ops_per_iteration']} ops each; "
              f"setup_s is the median of {len(record['setup_samples'])} interpreter starts; "
              f"op percentiles over the {record['ops_per_iteration']} ops of each iteration")
    if "checks_per_s" in record:
        print(f"  {'checks_per_s':<52} {record['checks_per_s']:>14.6g} 1/s "
              f"({record['checks_per_iteration']} checks per iteration)")
    elif "iterations" in record:
        print(f"  {'checks_per_s':<52} {'n/a':>14} 1/s (no verify command in this workload)")
    if "untraced_wall_s" in record:
        print(f"  tracing overhead: {record['traced_wall_s']:.3f} s traced against "
              f"{record['untraced_wall_s']:.3f} s untraced; spans in {record['spans_file']}")
    if "revisit_share" in record:
        print(f"  revisit share {record['revisit_share']:.3f}")
    print(f"  {'error_rate':<52} {record['error_rate']:>14.6g} ratio "
          f"({record['failed']} of {record['attempted']} ops failed)")
    for line in record["problems"]:
        print(f"  problem: {line}")


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)  # so the running child is killed too
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = workloads.WORKLOADS if args.workload == "all" else [args.workload]
    if any(name not in workloads.WORKLOADS for name in names):
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)} or all")
    try:
        records = [run_workload(name, args.seed, args.seconds, args.trace) for name in names]
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    result = {
        r["workload"]: {k: r[k] for k in ("correct", "attempted", "failed", "metrics")}
        for r in records
    }
    print(json.dumps(result[args.workload] if args.workload != "all" else result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
