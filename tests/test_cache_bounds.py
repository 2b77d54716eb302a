"""Every lru_cache in upkit is bounded, except the ones listed here.

An unbounded cache grows with every class a sweep visits.  The caches
below predate this rule; a cache that gets a bound leaves the list, and a
new one needs a ``maxsize``.
"""

import importlib
import pkgutil

import upkit

UNBOUNDED = {
    "upkit.components.block_structure",
    "upkit.components.full_group",
    "upkit.components.char_group",
    "upkit.components.canonical_subgroup",
    "upkit.params._run_decompositions",
    "upkit.pieces.bvls_dual",
    "upkit.wreps._lr_count",
    "upkit.wreps.e_family",
    "upkit.wreps._sym_table",
    "upkit.wreps._wn_table",
}


def _caches():
    """(qualified name, maxsize) of each lru_cache defined at module level."""
    for info in pkgutil.iter_modules(upkit.__path__, "upkit."):
        module = importlib.import_module(info.name)
        for name, value in vars(module).items():
            params = getattr(value, "cache_parameters", None)
            if params is not None and value.__module__ == info.name:
                yield f"{info.name}.{name}", params()["maxsize"]


def test_new_caches_are_bounded():
    caches = dict(_caches())
    assert "upkit.springer._class_index" in caches
    unbounded = {name for name, maxsize in caches.items() if maxsize is None}
    assert unbounded <= UNBOUNDED, sorted(unbounded - UNBOUNDED)
