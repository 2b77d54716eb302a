import functools
from collections import Counter

import pytest

from upkit import params
from upkit.components import CharFn, block_structure, canonical_subgroup
from upkit.errors import BoundExceeded, MalformedOutput, NotCanonical, NotInJ
from upkit.params import (
    ATable,
    InfChar,
    LParam,
    chi_z_lambda,
    enumerate_lparams_with_inf_char,
    inf_char,
    l_param_of_table,
    near_tempered_table,
    packets_containing,
    tempered_table,
    verify_almost_intro,
    weak_packet,
)
from upkit.partitions import GroupType, Partition, classify, enumerate_classes
from upkit.pieces import special_piece


def B(text):
    lam = Partition.from_text(text)
    return classify(lam, GroupType(1, lam.size))


def C(text):
    lam = Partition.from_text(text)
    return classify(lam, GroupType(-1, lam.size))


def both_types(max_n):
    for N in range(1, max_n + 1, 2):
        yield from enumerate_classes(GroupType(1, N))
    for N in range(2, max_n + 1, 2):
        yield from enumerate_classes(GroupType(-1, N))


# ----------------------------------------------------------------- tables

def test_table_validation():
    gt = GroupType(1, 9)
    with pytest.raises(ValueError):
        ATable(((5, 1), (3, 1), (1, 1)), gt, z=-1)  # no center for s=+1
    with pytest.raises(ValueError):
        ATable(((5, 1), (3, 1)), gt, z=1)  # dimensions sum to 8
    with pytest.raises(ValueError):
        ATable(((2, 1), (3, 1), (4, 1)), gt, z=1)  # two bad entries, odd mult
    ATable(((2, 1), (2, 1), (5, 1)), gt, z=1)  # bad entry paired: fine
    ATable(((2, 1), (2, 1)), GroupType(-1, 4), z=-1)


def test_tempered_table_fixture():
    m = tempered_table(B("5,3,1"))
    assert m.entries == ((1, 1), (3, 1), (5, 1))
    assert m.p() == (5, 3, 1)
    assert m.near_tempered
    assert m.gp_indices == (0, 1, 2)
    assert m.to_json() == {
        "entries": [{"a": 1, "b": 1}, {"a": 3, "b": 1}, {"a": 5, "b": 1}],
        "z": 1,
    }


def test_near_tempered_table_fixture():
    m = near_tempered_table(B("5,3,1"), {4})
    assert m.entries == ((1, 1), (4, 2))
    assert m.p() == (4, 4, 1)
    m = near_tempered_table(B("7,5,3,1,1"), {2, 6})
    assert m.entries == ((1, 1), (2, 2), (6, 2))
    assert m.p() == (6, 6, 2, 2, 1)
    with pytest.raises(NotInJ):
        near_tempered_table(B("5,3,1"), {2})


def test_tables_sweep_piece_cube():
    for cp in both_types(16):
        for J, mu in special_piece(cp):
            assert near_tempered_table(cp, J).p() == mu.lam


# ------------------------------------------------------------- L-parameters

def test_l_param_fixture():
    phi = l_param_of_table(near_tempered_table(B("5,3,1"), {4}))
    assert phi.summands == ((-1, 4), (0, 1), (1, 4))
    assert phi.N == 9
    assert Partition(k for _, k in phi.summands) == (4, 4, 1)
    assert phi.to_json() == [
        {"z": 1, "j2": -1, "k": 4},
        {"z": 1, "j2": 0, "k": 1},
        {"z": 1, "j2": 1, "k": 4},
    ]


def test_l_param_of_table_refuses_nonpositive_parts():
    # a valid table may hold the bad-parity pairs (0, 1) or (-1, 1); the
    # spread refuses the nu_k with k < 1 as LParam itself does
    for entries in [((0, 1), (0, 1), (3, 1)), ((-1, 1), (-1, 1), (5, 1))]:
        m = ATable(entries, GroupType(1, 3), 1)
        with pytest.raises(ValueError, match="summand dimensions must be positive"):
            l_param_of_table(m)


def test_l_param_validation():
    with pytest.raises(ValueError):
        LParam(1, ((1, 2), (-2, 1)))  # not self-dual
    with pytest.raises(ValueError):
        LParam(1, ((0, 0),))
    with pytest.raises(ValueError):
        InfChar(1, (2, 0))  # not symmetric


def test_inf_char_fixture():
    chi = chi_z_lambda(B("5,3,1"))
    assert chi.eigen == (4, 2, 2, 0, 0, 0, -2, -2, -4)
    assert chi.to_json() == {"z": 1, "eigen": [4, 2, 2, 0, 0, 0, -2, -2, -4]}
    half = inf_char(LParam(1, ((1, 1), (-1, 1))))
    assert half.eigen == (1, -1)


def test_inf_char_constant_on_weak_packet():
    for cp in both_types(14):
        chi = chi_z_lambda(cp)
        for row in weak_packet(cp):
            assert inf_char(row.table) == chi
            assert inf_char(row.phi) == chi


# -------------------------------------------------------------- weak packets

def test_weak_packet_fixture():
    rows = weak_packet(B("5,3,1"))
    assert [(sorted(r.J), r.lpacket_size) for r in rows] == [([], 4), ([4], 1)]
    assert sum(r.lpacket_size for r in rows) == 5
    rows = weak_packet(B("9,7,5,3,1"))
    assert sorted(r.lpacket_size for r in rows) == [1, 4, 4, 16]
    assert sum(r.lpacket_size for r in rows) == 25


def test_weak_packet_z_sign():
    rows = weak_packet(C("2,2"), z=-1)
    assert all(r.table.z == -1 and r.phi.z == -1 for r in rows)
    assert [r.lpacket_size for r in rows] == [2, 1]


def test_membership_fixture():
    cp = B("5,3,1")
    eps = CharFn.from_text(cp, "(--+)")
    hits = packets_containing(cp, eps)
    assert [sorted(J) for J, _ in hits] == [[], [4]]
    assert hits[1][1].p() == (4, 4, 1)
    trivial = packets_containing(cp, CharFn.from_text(cp, "(+++)"))
    assert [sorted(J) for J, _ in trivial] == [[]]
    with pytest.raises(NotCanonical):
        packets_containing(cp, CharFn(cp, frozenset({1, 5})))


def test_packets_containing_primitive_fixture():
    # eps survives into the packet of mu = T_J(lam) exactly when J is
    # listed: t_c(eps) != 1 for every c in J
    cp = B("5,3,1")
    eps = CharFn(cp, frozenset({1, 3}))
    hits = dict(packets_containing(cp, eps))
    assert hits[frozenset({4})].p() == (4, 4, 1)  # mu = 4,4,1
    assert frozenset() in hits  # mu = lam: J empty, vacuous
    assert frozenset({4}) not in dict(packets_containing(cp, CharFn(cp, frozenset())))
    with pytest.raises(NotCanonical):
        packets_containing(cp, CharFn(cp, frozenset({1, 5})))


def test_membership_fibers_are_uniform():
    # the move characters t_c cut the canonical subgroup in independent
    # halves, so each J-packet picks up |A+| / 2^|J| canonical members
    for cp in both_types(18):
        fns = canonical_subgroup(cp)
        Jall = block_structure(cp).J_set
        per_J = {}
        for eps in fns:
            for J, _ in packets_containing(cp, eps):
                per_J[J] = per_J.get(J, 0) + 1
        assert set(per_J) == {
            frozenset(c) for c in _subsets(sorted(Jall))
        }
        for J, count in per_J.items():
            assert count * 2 ** len(J) == len(fns)


def _subsets(values):
    import itertools

    for k in range(len(values) + 1):
        yield from itertools.combinations(values, k)


# ------------------------------------------------------------- enumeration

@pytest.mark.parametrize(
    "cover",
    [((1, 1), (1, 1), (1, 1)), ((1, 1), (-1, 1))],
    ids=["not-self-dual", "unsorted"],
)
def test_enumeration_gate_refuses_bad_covers(monkeypatch, cover):
    # the covers skip LParam's validation, so the gate must catch a cover
    # that is not self-dual, and one that is but is not sorted
    monkeypatch.setattr(params, "_run_decompositions", lambda eigen: frozenset({cover}))
    with pytest.raises(MalformedOutput, match="not self-dual"):
        enumerate_lparams_with_inf_char(chi_z_lambda(B("3")), GroupType(1, 3))


def test_enumeration_rejects_bad_z():
    eigen = chi_z_lambda(B("3")).eigen
    with pytest.raises(ValueError, match="z must be"):
        enumerate_lparams_with_inf_char(InfChar(5, eigen), GroupType(1, 3))


def test_enumeration_rejects_negative_z_without_center():
    eigen = chi_z_lambda(B("3")).eigen
    with pytest.raises(ValueError, match="needs a dual group with a center"):
        enumerate_lparams_with_inf_char(InfChar(-1, eigen), GroupType(1, 3))


def _in_subset_order(Js):
    keys = [(len(J), sorted(J)) for J in Js]
    return keys == sorted(keys) and len(set(map(frozenset, Js))) == len(Js)


@pytest.mark.parametrize("N", range(1, 17))
def test_J_lists_are_smallest_first_then_lexicographic(N):
    # the CLI prints these lists as they come, without re-sorting
    gt = GroupType(1 if N % 2 else -1, N)
    for cp in enumerate_classes(gt):
        assert _in_subset_order([J for J, _ in special_piece(cp)]), cp
        assert _in_subset_order([row.J for row in weak_packet(cp)]), cp
        for eps in canonical_subgroup(cp):
            assert _in_subset_order([J for J, _ in packets_containing(cp, eps)]), (cp, eps)


def test_enumerate_small_fixture():
    gt = GroupType(1, 3)
    chi = chi_z_lambda(B("3"))
    found = enumerate_lparams_with_inf_char(chi, gt)
    assert {Partition(k for _, k in phi.summands) for phi in found} == {(3,), (1, 1, 1)}
    with pytest.raises(BoundExceeded):
        enumerate_lparams_with_inf_char(chi_z_lambda(B("17")), GroupType(1, 17))


def test_enumeration_respects_symmetry_filter():
    # (2) for s=-1: eigen {1,-1}; the cover (0,1)+(0,1) would need the
    # orthogonal summand nu_1 twice at j2=0 -- it survives; the single
    # run (0,2)... has j2=0, k=2 = symplectic: fine for s=-1.
    gt = GroupType(-1, 2)
    found = enumerate_lparams_with_inf_char(chi_z_lambda(C("2")), gt)
    assert {phi.summands for phi in found} == {
        ((0, 2),),
        ((-1, 1), (1, 1)),
    }


@functools.lru_cache(maxsize=None)
def _all_run_covers(remaining):
    # reference: every run cover of the multiset, self-dual or not
    if not remaining:
        return frozenset({()})
    counts = Counter(remaining)
    top = remaining[0]
    out = set()
    for k in range(1, len(remaining) + 1):
        run = Counter(top - 2 * i for i in range(k))
        if any(counts[v] < c for v, c in run.items()):
            break
        rest = tuple(sorted((counts - run).elements(), reverse=True))
        summand = (top - k + 1, k)
        for tail in _all_run_covers(rest):
            out.add(tuple(sorted(tail + (summand,))))
    return frozenset(out)


def _generate_and_filter(chi, gt):
    # reference: keep the self-dual covers whose wrong-symmetry j2 = 0
    # summands pair up
    found = []
    for summands in sorted(_all_run_covers(chi.eigen)):
        counts = Counter(summands)
        if counts != Counter((-j2, k) for j2, k in summands):
            continue
        if all(
            not (j2 == 0 and k % 2 == (0 if gt.s == 1 else 1) and m % 2)
            for (j2, k), m in counts.items()
        ):
            found.append(LParam(chi.z, summands))
    return found


def test_enumeration_matches_generate_and_filter():
    for cp in both_types(14):
        for z in (1,) if cp.gt.s == 1 else (1, -1):
            chi = chi_z_lambda(cp, z)
            assert enumerate_lparams_with_inf_char(chi, cp.gt) == _generate_and_filter(
                chi, cp.gt
            ), (cp, z)


def test_hand_excluded_parameter():
    # {(0,5), (1,2), (-1,2)} shares the character of (5,3,1) but its
    # SL2-partition (5,2,2) has a different dual, so almost-intro drops it
    chi = chi_z_lambda(B("5,3,1"))
    gt = GroupType(1, 9)
    all_params = enumerate_lparams_with_inf_char(chi, gt)
    stray = LParam(1, ((0, 5), (1, 2), (-1, 2)))
    assert stray in all_params
    report = verify_almost_intro(B("5,3,1"))
    assert report.ok
    assert stray not in report.found
    assert len(report.expected) == 2


def test_almost_intro_small_grid():
    for cp in both_types(12):
        report = verify_almost_intro(cp)
        assert report.ok, cp
        assert len(report.found) == len(special_piece(cp))
