"""Every lru_cache in upkit has the one bound, except the ones listed here.

An unbounded cache grows with every class a sweep visits.  The caches in
``UNBOUNDED`` are keyed by group types, degrees, bipartitions and run
multisets, not by classes; every other cache has the bound
``CLASS_CACHE_SIZE``, so a new cache cannot bring a bound of its own.
"""

import contextlib
import importlib
import io
import pkgutil

import pytest

import upkit
from upkit.cli import main
from upkit.components import CLASS_CACHE_SIZE
from upkit.params import weak_packet
from upkit.pieces import special_piece
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
    "upkit.pieces.special_piece",
    "upkit.params.weak_packet",
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


def test_a_revisit_reads_the_cached_cube_and_rows(cold_class_caches):
    queries = [
        ["weak-packet", "--dual", "B", "--partition", "9,7,5,3,1"],
        ["class-info", "--dual", "B", "--partition", "9,7,5,3,1"],
    ]

    def run_all():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert [main(argv) for argv in queries] == [0, 0]
        return out.getvalue()

    first = run_all()
    before = {fn: fn.cache_info() for fn in (special_piece, weak_packet)}
    assert run_all() == first
    for fn, info in before.items():
        after = fn.cache_info()
        assert after.hits > info.hits and after.misses == info.misses, fn
    cp = upkit.classify(upkit.Partition((9, 7, 5, 3, 1)), upkit.GroupType(1, 25))
    assert type(special_piece(cp)) is tuple and type(weak_packet(cp)) is tuple
    # a warm entry for z = 1 does not let z = 1.0 past the integer rule
    with pytest.raises(TypeError):
        weak_packet(cp, 1.0)
