"""The measured process: runs one op list through ``upkit.cli.main``.

Reads a JSON request on stdin::

    {"src": ..., "ops": [[argv...], ...], "trace": bool, "spans": path or null}

imports ``upkit.cli`` from ``src``, runs the ops one after another with
stdout and stderr captured per op, and writes one JSON result on stdout.
With ``trace`` set, spans are recorded around the layer entry points (see
``tracing.py``) and the result carries the per-layer metrics and the
cache census.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def run_op(main, argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            traceback.print_exc()
            rc = "exception"
    elapsed = time.perf_counter() - start
    return {"rc": rc, "elapsed_s": elapsed, "stdout": out.getvalue(), "stderr": err.getvalue()}


def main() -> int:
    request = json.load(sys.stdin)
    src = Path(request["src"]).resolve()
    sys.path.insert(0, str(src))
    import upkit.cli

    if Path(upkit.cli.__file__).resolve().parent.parent != src:
        print(f"upkit imported from {upkit.cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    tracer = caches = None
    if request["trace"]:
        import tracing

        tracer = tracing.Tracer()
        caches = tracing.install(tracer)
    results = []
    start = time.perf_counter()
    for op_id, argv in enumerate(request["ops"]):
        if tracer is not None:
            tracer.op_id = op_id
        results.append(run_op(upkit.cli.main, argv))
    wall = time.perf_counter() - start
    record = {
        "wall_s": wall,
        "ops": results,
        "rss_self_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "rss_children_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }
    if tracer is not None:
        record["layers"] = {**tracing.layer_metrics(tracer), **tracing.cache_census(caches)}
        if request.get("spans"):
            tracing.write_spans(tracer, request["spans"])
    json.dump(record, sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
