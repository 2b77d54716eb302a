"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench -t perfbench
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class SelfTimeTest(unittest.TestCase):
    def test_recursion_and_childless_cache_hits(self):
        # 0 verify_almost_intro [0, 100]
        #   1 _run_decompositions [10, 60]
        #     2 _run_decompositions [20, 50]       recursive call
        #       3 _run_decompositions [25, 30]     cache hit, no children
        #     4 _run_decompositions [52, 55]       cache hit, no children
        #   5 block_structure [70, 71]             cache hit, no children
        # 6 classify [120, 130]                    a second root
        parent = [-1, 0, 1, 2, 1, 0, -1]
        start = [0, 10, 20, 25, 52, 70, 120]
        end = [100, 60, 50, 30, 55, 71, 130]
        own = tracing.self_times(parent, start, end)
        self.assertEqual(own, [49, 17, 25, 5, 3, 1, 10])
        self.assertEqual(sum(own), 100 + 10)

    def test_wrapped_recursive_cached_function(self):
        tracer = tracing.Tracer()

        @functools.lru_cache(maxsize=None)
        def fib(n):
            return n if n < 2 else traced(n - 1) + traced(n - 2)

        traced = tracing.wrap(tracer, "params._run_decompositions", fib)
        self.assertEqual(traced(12), 144)
        # every call is a span: 13 cache misses, 10 childless hits
        info = fib.cache_info()
        self.assertEqual((info.misses, info.hits), (13, 10))
        self.assertEqual(tracer.calls, [23])
        self.assertEqual(len(tracer.start), 23)
        own = tracing.self_times(tracer.parent, tracer.start, tracer.end)
        self.assertTrue(all(t >= 0 for t in own))
        self.assertEqual(sum(own), tracer.end[0] - tracer.start[0])
        children = {p for p in tracer.parent if p >= 0}
        for i in set(range(23)) - children:
            self.assertEqual(own[i], tracer.end[i] - tracer.start[i])


class QueryStreamTest(unittest.TestCase):
    def test_seed_determines_the_list(self):
        def argvs(seed):
            return [workloads.argv_of(q) for q in workloads.build_queries(seed, 200)]

        self.assertEqual(argvs(7), argvs(7))
        self.assertNotEqual(argvs(7), argvs(8))

    def test_shares(self):
        queries = workloads.query_stream(1, 1600)
        staircases = {workloads.triangular(k) for k in workloads.TRIANGULAR_K}
        self.assertGreaterEqual(sum(q["parts"] in staircases for q in queries), 100)
        revisits = sum(q["revisit"] for q in queries) / len(queries)
        self.assertAlmostEqual(revisits, workloads.REVISIT_SHARE, delta=0.06)
        for q in queries:
            self.assertTrue(workloads.is_class(q["dual"], q["parts"]))
            if q["kind"] == "springer":
                self.assertTrue(all(workloads.good_parity(q["dual"], v) for v in q["parts"]))


class TracedRunTest(unittest.TestCase):
    def test_tracing_changes_no_output(self):
        ops = [workloads.argv_of(q) for q in workloads.build_queries(3, 60)]
        ops += [["verify", "--suite", "all", "--maxN", "6"], ["classes", "--dual", "B", "--N", "11"]]
        deadline = run.time.monotonic() + 120
        plain = run.run_worker(ops, False, deadline)
        traced = run.run_worker(ops, True, deadline)
        strip = [{k: op[k] for k in ("rc", "stdout", "stderr")} for op in plain["ops"]]
        self.assertEqual(strip, [{k: op[k] for k in ("rc", "stdout", "stderr")} for op in traced["ops"]])
        self.assertTrue(all(op["rc"] == 0 for op in plain["ops"]))
        names = [n for n, _, _ in tracing.metric_names()]
        self.assertEqual(sorted(traced["layers"]), sorted(set(names) - {"trace.overhead_s", "trace.overhead_share"}))
        self.assertGreater(traced["layers"]["partitions.partitions_of.yields"], 0)
        self.assertGreater(traced["layers"]["cli.main.calls"], 0)


class BenchmarkFileTest(unittest.TestCase):
    def test_metrics_match_the_harness(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], list(run.E2E_UNITS.items()))
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]], tracing.metric_names()
        )
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))

    def test_fails_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "queries", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
