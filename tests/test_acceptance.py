"""End-to-end acceptance fixtures: the desk-scale checks the library must
pass exactly, with their stated time budgets.  The property sweeps call
the suites of :mod:`upkit.verify` at their own bounds."""

import time

from upkit import verify
from upkit.components import (
    CharFn,
    canonical_subgroup,
    char_group,
    char_group_order,
)
from upkit.params import packets_containing, weak_packet
from upkit.partitions import GroupType, Partition, classify
from upkit.pieces import special_piece
from upkit.springer import springer_data, weakly_spherical
from upkit.verify import every_group


def B(text):
    lam = Partition.from_text(text)
    return classify(lam, GroupType(1, lam.size))


# 1 ------------------------------------------------------------ Sp8 fixture

def test_sp8_fixture():
    t0 = time.monotonic()
    cp = B("5,3,1")
    assert char_group_order(cp) == 4
    adag = canonical_subgroup(cp)
    assert len(adag) == 2
    assert {e.subset for e in adag} == {frozenset(), frozenset({1, 3})}
    assert {mu.lam for _, mu in special_piece(cp)} == {
        Partition([5, 3, 1]),
        Partition([4, 4, 1]),
    }
    rows = sorted(weak_packet(cp), key=lambda r: sorted(r.J))
    assert [r.lpacket_size for r in rows] == [4, 1]
    assert sum(r.lpacket_size for r in rows) == 5
    hits = packets_containing(cp, CharFn.from_text(cp, "(--+)"))
    assert {J for J, _ in hits} == {frozenset(), frozenset({4})}
    spherical = {
        eps.to_text()
        for eps in char_group(cp)
        if weakly_spherical(springer_data(cp, eps))
    }
    assert spherical == {"(+++)", "(--+)"}
    assert time.monotonic() - t0 < 1.0


# 2 ------------------------------------------------------ triangular family

def test_triangular_family():
    t0 = time.monotonic()
    for k in (1, 2, 3):
        cp = B(",".join(str(p) for p in range(4 * k + 1, 0, -2)))
        assert cp.lam.size == (2 * k + 1) ** 2
        assert char_group_order(cp) == 4**k
        assert len(canonical_subgroup(cp)) == 2**k
        assert len(special_piece(cp)) == 2**k
        assert sum(r.lpacket_size for r in weak_packet(cp)) == 5**k
    assert time.monotonic() - t0 < 30.0


# 3 -------------------------------------------------------------- d duality

def test_duality_properties():
    t0 = time.monotonic()
    for gt in every_group(24):
        verify.check_dprop(gt)
    assert time.monotonic() - t0 < 120.0


# 4 ------------------------------------------------- special piece cardinal

def test_special_piece_cardinality():
    for gt in every_group(24):
        verify.check_spc(gt)


# 5 --------------------------------------------------- parameter brute force

def test_almost_intro_enumeration():
    t0 = time.monotonic()
    for gt in every_group(14):
        verify.check_almost(gt)
    assert time.monotonic() - t0 < 300.0


# 6 -------------------------------------------------------------Weyl oracle

def test_weyl_oracle():
    pairs = sum(verify.check_lr_oracle(n) for n in range(6))
    assert pairs == 416


# 7 ------------------------------------------------------ fixed-vector dims

def test_first_reduction_dims():
    for n in range(6):
        verify.check_fixed_vectors(n)


# 8 -------------------------------------------- the sphericity equivalence

def test_weak_sphericity_equivalence():
    t0 = time.monotonic()
    checked = sum(verify.check_theoremC(gt) for gt in every_group(22))
    assert checked == 1255
    assert time.monotonic() - t0 < 600.0


# 9 ------------------------------------------- first row / maximality laws

def test_tableau_first_row_and_maximality():
    for gt in every_group(22):
        verify.check_firstrow(gt)


# 10 --------------------------------------------------- Moeglin round trip

def test_moeglin_round_trip():
    for gt in every_group(14):
        verify.check_js(gt)
