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
import upkit.cli
import upkit.params
from upkit.cli import _listing, main
from upkit.components import CLASS_CACHE_SIZE
from upkit.params import weak_packet
from upkit.pieces import special_piece
from upkit.verify import check_firstrow, check_theoremC, every_group

UNBOUNDED = {
    # keyed by group type
    "upkit.springer._e_pairs",
    # keyed by the run multiset left to cover
    "upkit.params._run_decompositions",
    # keyed by the partitions lam, mu and nu of an LR coefficient
    "upkit.wreps._lr_count",
    # keyed by sign and degree
    "upkit.wreps.e_family",
    # keyed by degree
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
    "upkit.cli._listing",
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


def _run(queries):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        codes = [main(argv) for argv in queries]
    return codes, out.getvalue(), err.getvalue()


def test_a_revisit_reads_the_cached_listing(cold_class_caches, monkeypatch):
    queries = [
        ["weak-packet", "--dual", "B", "--partition", "9,7,5,3,1"],
        ["class-info", "--dual", "B", "--partition", "9,7,5,3,1"],
        ["membership", "--dual", "B", "--partition", "9,7,5,3,1", "--eps", "{1,3}"],
    ]
    calls = []

    def counted(name, real):
        def wrapper(*args):
            calls.append(name)
            return real(*args)

        return wrapper

    # every namespace the listings reach the cube and the rows through
    for module, name in [
        (upkit.cli, "special_piece"),
        (upkit.cli, "weak_packet"),
        (upkit.params, "special_piece"),
    ]:
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))

    first = _run(queries)
    assert first[0] == [0, 0, 0] and first[2] == ""
    assert {"special_piece", "weak_packet"} <= set(calls)
    calls.clear()
    assert _run(queries) == first
    # the second run prints the cached text and builds no cube or row
    assert calls == []
    assert _listing.cache_info().currsize == len(queries)
    cp = upkit.classify(upkit.Partition((9, 7, 5, 3, 1)), upkit.GroupType(1, 25))
    # the cached cube is shared between callers, so it is a tuple
    assert type(special_piece(cp)) is tuple
    # with the listing warm for z = 1, z = 1.0 still meets the integer rule
    with pytest.raises(TypeError):
        weak_packet(cp, 1.0)


def test_the_listing_cache_holds_at_most_its_bytes(cold_class_caches, monkeypatch):
    gt = upkit.GroupType(-1, 16)
    queries = [
        [command, "--dual", "C", "--partition", cp.lam.to_text()]
        for cp in list(upkit.enumerate_classes(gt))[:12]
        for command in ("class-info", "weak-packet")
    ]
    small = len(queries)
    # a listing above the bound, then revisits of the first few
    queries += [["weak-packet", "--dual", "B", "--partition", "13,11,9,7,5,3,1"]] + queries[:6]
    want = [_run([argv]) for argv in queries]
    sizes = [len(out) - 1 for _, out, _ in want]
    cap = 2 * max(sizes[:small])
    assert sizes[small] > cap and sum(sizes[:small]) > 3 * cap
    _listing.cache_clear()
    monkeypatch.setattr(upkit.cli, "LISTING_BYTES", cap)
    monkeypatch.setattr(upkit.cli, "_listed_bytes", 0)
    emptied = 0
    for argv, expected in zip(queries, want):
        held = _listing.cache_info().currsize
        assert _run([argv]) == expected, argv
        # what the cache counts is at least what it holds
        assert upkit.cli._listed_bytes <= cap, argv
        emptied += _listing.cache_info().currsize < held
    assert emptied >= 3


def test_a_refusal_is_never_cached(cold_class_caches):
    stair35 = ",".join(str(v) for v in range(69, 0, -2))
    refused = [
        # above cli.A_DAGGER_BOUND, refused before the listing is asked
        ["class-info", "--dual", "B", "--partition", stair35],
        ["weak-packet", "--dual", "B", "--partition", stair35],
        # NotCanonical, raised while the listing is built
        ["membership", "--dual", "B", "--partition", "5,3,1", "--eps", "{1,5}"],
    ]
    for argv in refused:
        first = _run([argv])
        assert first[0] == [3] and first[1] == "" and first[2].startswith("upkit: "), argv
        assert _run([argv]) == first, argv
        assert _listing.cache_info().currsize == 0, argv
