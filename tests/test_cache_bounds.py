"""Every lru_cache in upkit has the one bound, except the ones listed here.

An unbounded cache grows with every class a sweep visits.  The caches in
``UNBOUNDED`` are keyed by group types, degrees, bipartitions and run
multisets, not by classes; every other cache has the bound
``CLASS_CACHE_SIZE``, so a new cache cannot bring a bound of its own.
"""

import importlib
import pkgutil

import upkit
from upkit.components import CLASS_CACHE_SIZE
from upkit.verify import check_firstrow, check_theoremC, every_group

UNBOUNDED = {
    # keyed by group type
    "upkit.springer._e_pairs",
    "upkit.params._run_decompositions",
    "upkit.wreps._lr_count",
    "upkit.wreps.e_family",
    "upkit.wreps._sym_table",
    "upkit.wreps._wn_table",
}

CLASS_KEYED = {
    "upkit.components.block_structure",
    "upkit.components.full_group",
    "upkit.components.char_group",
    "upkit.components.canonical_subgroup",
    "upkit.pieces.bvls_dual",
}


def _caches():
    """(qualified name, function) of each lru_cache defined at module level."""
    for info in pkgutil.iter_modules(upkit.__path__, "upkit."):
        module = importlib.import_module(info.name)
        for name, value in vars(module).items():
            if hasattr(value, "cache_parameters") and value.__module__ == info.name:
                yield f"{info.name}.{name}", value


def test_new_caches_are_bounded():
    maxsizes = {name: fn.cache_parameters()["maxsize"] for name, fn in _caches()}
    # no third bound: a cache is either listed unbounded or class-keyed
    assert maxsizes.keys() - UNBOUNDED == CLASS_KEYED
    assert {maxsizes[name] for name in UNBOUNDED} == {None}
    assert {maxsizes[name] for name in CLASS_KEYED} == {CLASS_CACHE_SIZE}


def test_sweeps_read_no_class_keyed_cache():
    # theoremC reads the canonical subsets, not the cached CharFn tuples,
    # and the Springer index reads the block classes, not block_structure
    caches = dict(_caches())
    for name in CLASS_KEYED:
        caches[name].cache_clear()
    for gt in every_group(30):
        check_theoremC(gt)
        check_firstrow(gt)
    sizes = {name: caches[name].cache_info().currsize for name in CLASS_KEYED}
    assert sizes == dict.fromkeys(CLASS_KEYED, 0)
