import copy
import itertools
import pickle

import pytest

from upkit.components import CharFn
from upkit.errors import BoundExceeded, NotContained, ParityViolation, WrongTotal
from upkit.moeglin import arthur_character, merge_chain
from upkit.partitions import (
    MAX_PARSED_SIZE,
    ClassPartition,
    GroupType,
    Partition,
    classify,
    difference,
    dominates,
    enumerate_classes,
    good_parity_classes,
    partitions_of,
    union,
)
from upkit.wreps import Bipartition


def P(text):
    return Partition.from_text(text)


def test_storage_is_weakly_decreasing():
    assert Partition([1, 5, 3]) == (5, 3, 1)
    assert Partition([2, 0, 2, 0]) == (2, 2)
    assert Partition() == ()


def test_negative_parts_rejected():
    with pytest.raises(ValueError):
        Partition([3, -1])


def test_text_roundtrip():
    assert P("5,3,1") == (5, 3, 1)
    assert P("7^4,5^3") == (7, 7, 7, 7, 5, 5, 5)
    assert P("") == ()
    for lam in partitions_of(11):
        assert Partition.from_text(lam.to_text()) == lam


def test_nonpositive_exponent_rejected():
    for text in ("5,1^-3,3,1", "7^-1", "5,3^0,1", "2^0"):
        with pytest.raises(ValueError):
            P(text)


def test_text_is_sized_before_it_is_expanded():
    assert P(f"1^{MAX_PARSED_SIZE}").size == MAX_PARSED_SIZE
    assert P("2,0^99999999999") == (2,)
    for text in (f"1^{MAX_PARSED_SIZE + 1}", "3^2,1^99999999999", "-1^99999999999"):
        with pytest.raises(ValueError, match="exceeds the bound"):
            P(text)


def test_basic_accessors():
    lam = P("7^2,5,3^3,1")
    assert lam.size == 7 * 2 + 5 + 3 * 3 + 1
    assert len(lam) == 7
    assert lam.mult(3) == 3 and lam.mult(2) == 0
    assert lam.supp == (1, 3, 5, 7)
    assert lam.interval(3, 5) == (5, 3, 3, 3)


def test_transpose():
    assert P("4,2,1").transpose() == (3, 2, 1, 1)
    assert P("5").transpose() == (1, 1, 1, 1, 1)
    for lam in partitions_of(9):
        assert lam.transpose().transpose() == lam
        assert lam.transpose().size == lam.size


def test_union_difference():
    a, b = P("5,3"), P("3,2")
    assert union(a, b) == (5, 3, 3, 2)
    assert difference(union(a, b), b) == a
    with pytest.raises(NotContained):
        difference(P("5,3"), P("4"))


def test_union_difference_roundtrip_exhaustive():
    # difference(union(a, b), b) == a over all pairs with |a| + |b| <= 20
    for na in range(0, 11):
        for nb in range(0, 21 - na):
            if na + nb > 20 or (na + nb) % 3:  # thin the grid, keep it honest
                continue
            for a in partitions_of(na):
                for b in partitions_of(nb):
                    assert difference(union(a, b), b) == a


def test_dominance():
    assert dominates(P("5,3,1"), P("4,4,1"))
    assert dominates(P("5,3,1"), P("5,3,1"))
    assert not dominates(P("4,4,1"), P("5,3,1"))
    assert not dominates(P("3,3"), P("5,3,1"))  # different sizes
    # plain sequences are read as partitions, whatever their order
    assert dominates((1, 3), (2, 2))
    assert not dominates([2, 2], [1, 3])
    # dominance is a partial order: antisymmetry on a small grid
    for a, b in itertools.permutations(partitions_of(7), 2):
        if dominates(a, b) and dominates(b, a):
            assert a == b


def test_group_type():
    b = GroupType(1, 9)
    c = GroupType(-1, 8)
    assert b.letter == "B" and c.letter == "C"
    assert b.n == 4 and c.n == 4
    assert GroupType.from_letter("b", 9) == b
    assert b.good_parity(3) and not b.good_parity(4)
    assert c.good_parity(4) and not c.good_parity(3)
    with pytest.raises(ValueError):
        GroupType(1, 8)
    with pytest.raises(ValueError):
        GroupType(-1, 9)


def test_classify_validation():
    gt = GroupType(1, 9)
    with pytest.raises(WrongTotal):
        classify(P("5,3"), gt)
    with pytest.raises(ParityViolation):
        classify(P("4,3,1,1"), gt)
    classify(P("4,4,1"), gt)  # even multiplicity: fine
    cp = classify(P("5,3,1"), gt)
    assert cp.S == (1, 3, 5) and cp.S0 == (1, 3, 5)


def test_classify_parity_split():
    cp = classify(P("7,4,4,3,1"), GroupType(1, 19))
    assert cp.gp == (7, 3, 1)
    assert cp.bp == (4,)
    assert cp.S == (1, 3, 7)
    assert cp.S0 == (1, 3, 7)
    cp = classify(P("10,6,3,3,2"), GroupType(-1, 24))
    assert cp.gp == (10, 6, 2)
    assert cp.bp == (3,)
    assert cp.S == (2, 6, 10)
    assert cp.S0 == (2, 6, 10)


def test_enumerate_classes_small():
    assert [cp.lam for cp in enumerate_classes(GroupType(1, 3))] == [
        (3,),
        (1, 1, 1),
    ]
    assert [cp.lam for cp in enumerate_classes(GroupType(-1, 2))] == [
        (2,),
        (1, 1),
    ]


def test_enumerate_classes_is_reverse_lex():
    seen = [cp.lam for cp in enumerate_classes(GroupType(1, 11))]
    assert seen == sorted(seen, reverse=True)


def test_enumerate_classes_counts_match_brute_force():
    # the reference: partitions_of minus every partition with a bad-parity
    # value of odd multiplicity, in the same reverse-lex order
    for s, parity in ((1, 1), (-1, 0)):
        for N in range(parity if parity else 2, 31, 2):
            gt = GroupType(s, N)
            slow = [
                lam
                for lam in partitions_of(N)
                if all(gt.good_parity(v) or lam.mult(v) % 2 == 0 for v in lam.supp)
            ]
            classes = enumerate_classes(gt)
            assert [cp.lam for cp in classes] == slow
            assert good_parity_classes(gt) == [cp for cp in classes if not cp.bp]


def test_enumerated_classes_match_classify():
    # enumeration builds each class from its runs without the validating
    # constructor; ClassPartition equality reads only lam and gt, so every
    # derived field is compared with what classify computes
    def fields(cp):
        return cp.lam, cp.gp, cp.bp, cp.S, cp.S0

    seen = 0
    for N in range(1, 37):
        gt = GroupType(1 if N % 2 else -1, N)
        for cp in enumerate_classes(gt):
            assert fields(cp) == fields(classify(Partition(cp.lam), gt)), cp
            seen += 1
        for cp in good_parity_classes(gt):
            assert fields(cp) == fields(classify(Partition(cp.lam), gt)), cp
    assert seen == 21545


def test_class_fields_match_their_definition():
    # the one builder against the definitions, for every class with N <= 24
    # however it was reached: gp the good parts, bp half of each bad value,
    # S the sorted good support, S0 the values of odd multiplicity
    def check(cp):
        lam, good = cp.lam, cp.gt.good_parity
        assert cp.gp == tuple(p for p in lam if good(p)), cp
        assert cp.bp == tuple(
            v for v in sorted(set(lam), reverse=True) if not good(v)
            for _ in range(lam.count(v) // 2)
        ), cp
        assert cp.S == tuple(sorted({p for p in lam if good(p)})), cp
        assert cp.S0 == tuple(sorted(v for v in set(lam) if lam.count(v) % 2)), cp
        assert isinstance(cp.gp, Partition) and isinstance(cp.bp, Partition)

    for N in range(1, 25):
        gt = GroupType(1 if N % 2 else -1, N)
        for cp in enumerate_classes(gt):
            check(cp)
        for lam in partitions_of(N):
            try:
                cp = classify(lam, gt)
            except ParityViolation:
                continue
            check(cp)


def test_parity_violation_names_the_smallest_value():
    # 4 and 2 both occur once; the message names the smaller
    with pytest.raises(ParityViolation, match=r"bad-parity part 2 "):
        classify(Partition([4, 2, 1, 1, 1]), GroupType(1, 9))


def test_value_types_copy_and_pickle():
    cp = classify(P("5,3,1"), GroupType(1, 9))
    # a table, an order and a parameter with their memos filled
    m, ao, mp = merge_chain(cp, CharFn(cp, frozenset({1, 3})), {4})
    arthur_character(ao, mp)
    # the chain builds its characters unvalidated, so nothing reads S(m)
    m.support
    assert {"gp_indices", "near_tempered", "support", "support_mf"} <= vars(m).keys()
    assert "_gamma_signs" in vars(ao) and {"_l_map", "_eta_map"} <= vars(mp).keys()
    values = [
        P("7^2,5,1"),
        Partition(),
        GroupType(-1, 8),
        cp,
        classify(P("4,4,3,1,1"), GroupType(1, 13)),
        CharFn(cp, frozenset({1, 5})),
        Bipartition((3, 1), (2,)),
        m,
        ao,
        mp,
    ]
    for value in values:
        for twin in (
            copy.copy(value),
            copy.deepcopy(value),
            pickle.loads(pickle.dumps(value)),
        ):
            assert type(twin) is type(value)
            assert twin == value and hash(twin) == hash(value)


def test_enumerate_classes_bound():
    with pytest.raises(BoundExceeded):
        enumerate_classes(GroupType(1, 61))
    with pytest.raises(BoundExceeded):
        good_parity_classes(GroupType(1, 61))


def test_class_counts():
    assert len(enumerate_classes(GroupType(-1, 40))) == 7336
    assert len(enumerate_classes(GroupType(-1, 50))) == 31066
    assert len(good_parity_classes(GroupType(1, 59))) == 9792


def test_s0_is_subset_of_s():
    for s, N in ((1, 13), (-1, 12)):
        for cp in enumerate_classes(GroupType(s, N)):
            assert set(cp.S0) <= set(cp.S)
            # bad-parity parts pair up, so mf parts all have good parity
            assert union(cp.gp, cp.bp, cp.bp) == cp.lam


def test_class_partition_r_parity():
    # for s = +1 the number of multiplicity-free values is odd
    for cp in enumerate_classes(GroupType(1, 15)):
        assert len(cp.S0) % 2 == 1
