"""Spans around upkit's layer entry points, recorded from outside the package.

``install`` replaces each function in TARGETS by a wrapper that records a
span (name, start, end, parent span, op id) per call.  ``cli``, ``params``,
``moeglin``, ``pieces``, ``springer`` and the package ``__init__`` bind
these functions with ``from .x import y``, so the wrapper is written into
every ``upkit`` namespace that holds the original, including the defining
module: calls inside a module (``enumerate_classes`` -> ``classify``, the
recursion of ``_run_decompositions``) are spans too.  Spans stay in memory
in flat arrays and are written out once, by ``write_spans``.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
from array import array
from time import perf_counter_ns

# The entry points each layer is entered through from other layers, plus
# the private functions whose cost the per-layer metrics name.  Small
# helpers called hundreds of thousands of times (springer.defect,
# wreps.e_rep) are left out: their time counts towards their caller.
TARGETS = {
    "cli": ("main", "_parser", "_verify_cell"),
    "partitions": ("partitions_of", "classify", "enumerate_classes"),
    "components": ("block_structure", "full_group", "char_group", "canonical_subgroup"),
    "pieces": ("bvls_dual", "special_piece", "special_closure", "T_up", "piece_data", "is_special"),
    "params": (
        "verify_almost_intro",
        "enumerate_lparams_with_inf_char",
        "_run_decompositions",
        "weak_packet",
        "packets_containing",
        "near_tempered_table",
    ),
    "moeglin": ("merge_chain", "tempered_intersection", "arthur_character"),
    "springer": (
        "springer_data",
        "is_springer_type",
        "gamma_seq",
        "green_tableaux",
        "weakly_spherical",
        "weakly_spherical_general",
        "springer_bipartition",
    ),
    "wreps": ("e_family", "oracle_mult", "induce_table", "invariant_dim", "bipartitions_of"),
}
LAYERS = tuple(TARGETS)

# The live lru_cache functions; their cache_info() is read at the end.
CACHED = (
    ("components", "block_structure"),
    ("components", "full_group"),
    ("components", "char_group"),
    ("components", "canonical_subgroup"),
    ("pieces", "bvls_dual"),
    ("params", "_run_decompositions"),
    ("wreps", "_lr_count"),
    ("wreps", "_sym_table"),
    ("wreps", "_wn_table"),
)

RAISED = -1

# A count taken from a span's return value, stored as the span's value.
MEASURES = {
    "partitions.enumerate_classes": len,
    "springer.is_springer_type": int,
    "params.enumerate_lparams_with_inf_char": len,
}


class Tracer:
    """Spans as parallel arrays; a span's index is its id.

    ``value`` holds the count from MEASURES, 1 for a generator resume that
    yielded (0 when it finished), and RAISED when the call raised.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.calls: list[int] = []
        self.name = array("H")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.value = array("q")
        self.stack = [-1]
        self.op_id = -1

    def intern(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        return len(self.names) - 1

    def begin(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        self.value.append(0)
        self.end.append(0)
        self.stack.append(i)
        self.start.append(perf_counter_ns())
        return i

    def finish(self, i: int, value: int) -> None:
        self.end[i] = perf_counter_ns()
        self.value[i] = value
        self.stack.pop()


def wrap(tracer: Tracer, name: str, fn):
    nid = tracer.intern(name)
    measure = MEASURES.get(name)
    if inspect.isgeneratorfunction(fn):
        # each resume of the generator is one span
        @functools.wraps(fn)
        def traced_generator(*args, **kwargs):
            tracer.calls[nid] += 1
            it = fn(*args, **kwargs)
            while True:
                i = tracer.begin(nid)
                try:
                    item = next(it)
                except StopIteration:
                    tracer.finish(i, 0)
                    return
                except BaseException:
                    tracer.finish(i, RAISED)
                    raise
                tracer.finish(i, 1)
                yield item

        return traced_generator

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.calls[nid] += 1
        i = tracer.begin(nid)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.finish(i, RAISED)
            raise
        tracer.finish(i, measure(result) if measure else 0)
        return result

    return traced


def install(tracer: Tracer) -> dict:
    """Wrap every TARGETS function in every upkit namespace binding it.

    Returns the lru_cache objects of CACHED, for :func:`cache_census`.
    """
    caches = {
        f"{mod}.{fn}": getattr(importlib.import_module(f"upkit.{mod}"), fn)
        for mod, fn in CACHED
    }
    wrapper_of = {}
    for layer, names in TARGETS.items():
        module = importlib.import_module(f"upkit.{layer}")
        for fn_name in names:
            original = getattr(module, fn_name)
            wrapper_of[id(original)] = (original, wrap(tracer, f"{layer}.{fn_name}", original))
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "upkit" and not mod_name.startswith("upkit."):
            continue
        for attr, value in list(vars(module).items()):
            hit = wrapper_of.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
    return caches


def cache_census(caches: dict) -> dict[str, float]:
    out = {}
    for name, fn in caches.items():
        info = fn.cache_info()
        lookups = info.hits + info.misses
        out[f"{name}.hit_ratio"] = info.hits / lookups if lookups else 0.0
        out[f"{name}.cache_entries"] = info.currsize
    return out


def self_times(parent, start, end) -> list[int]:
    """Each span's duration minus the durations of its direct children.

    Spans of one thread nest, so the children of a span are disjoint and
    their durations add up to the part of its interval they cover.
    """
    child = [0] * len(start)
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += end[i] - start[i]
    return [e - s - c for s, e, c in zip(start, end, child)]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer and per-function metrics of one traced op list."""
    names = tracer.names
    own = self_times(tracer.parent, tracer.start, tracer.end)
    self_ns = [0] * len(names)
    total = [0] * len(names)
    raised = [0] * len(names)
    for i, nid in enumerate(tracer.name):
        self_ns[nid] += own[i]
        v = tracer.value[i]
        if v == RAISED:
            raised[nid] += 1
        else:
            total[nid] += v
    nid = {n: k for k, n in enumerate(names)}
    out: dict[str, float] = {}
    for layer in LAYERS:
        ids = [k for k, n in enumerate(names) if n.startswith(layer + ".")]
        out[f"{layer}.calls"] = sum(tracer.calls[k] for k in ids)
        out[f"{layer}.self_s"] = sum(self_ns[k] for k in ids) / 1e9
    for k, n in enumerate(names):
        out[f"{n}.calls"] = tracer.calls[k]
        out[f"{n}.self_s"] = self_ns[k] / 1e9

    def ratio(a, b):
        return a / b if b else 0.0

    enum_id, gen_id = nid["partitions.enumerate_classes"], nid["partitions.partitions_of"]
    visited = sum(
        1
        for i, k in enumerate(tracer.name)
        if k == gen_id and tracer.value[i] == 1
        and tracer.parent[i] >= 0 and tracer.name[tracer.parent[i]] == enum_id
    )
    classify = nid["partitions.classify"]
    springer_type = nid["springer.is_springer_type"]
    out["partitions.partitions_of.yields"] = total[gen_id]
    out["partitions.class_yield_ratio"] = ratio(total[enum_id], visited)
    out["partitions.classify.reject_ratio"] = ratio(raised[classify], tracer.calls[classify])
    out["springer.is_springer_type.true_ratio"] = ratio(
        total[springer_type], tracer.calls[springer_type]
    )
    out["params.enumerate_lparams_with_inf_char.returned"] = total[
        nid["params.enumerate_lparams_with_inf_char"]
    ]
    out["trace.spans"] = len(tracer.start)
    return out


def metric_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric a traced run reports, in order."""
    out = []
    for layer in LAYERS:
        out += [(f"{layer}.calls", "count", "lower"), (f"{layer}.self_s", "s", "lower")]
    for layer, names in TARGETS.items():
        for fn in names:
            out += [(f"{layer}.{fn}.calls", "count", "lower"), (f"{layer}.{fn}.self_s", "s", "lower")]
    out += [
        ("partitions.partitions_of.yields", "count", "lower"),
        ("partitions.class_yield_ratio", "ratio", "higher"),
        ("partitions.classify.reject_ratio", "ratio", "lower"),
        ("springer.is_springer_type.true_ratio", "ratio", "higher"),
        ("params.enumerate_lparams_with_inf_char.returned", "count", "lower"),
    ]
    for mod, fn in CACHED:
        out += [(f"{mod}.{fn}.hit_ratio", "ratio", "higher"), (f"{mod}.{fn}.cache_entries", "count", "lower")]
    out += [
        ("trace.spans", "count", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.overhead_share", "ratio", "lower"),
    ]
    return out


def write_spans(tracer: Tracer, path) -> None:
    """One span per line: id, op, parent, name, start_ns, end_ns, value."""
    with gzip.open(path, "wt", compresslevel=1) as f:
        f.write("id\top\tparent\tname\tstart_ns\tend_ns\tvalue\n")
        names = tracer.names
        for i in range(len(tracer.start)):
            f.write(
                f"{i}\t{tracer.op[i]}\t{tracer.parent[i]}\t{names[tracer.name[i]]}\t"
                f"{tracer.start[i]}\t{tracer.end[i]}\t{tracer.value[i]}\n"
            )
