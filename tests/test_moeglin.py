import itertools
import json

import pytest

from upkit import verify
from upkit.components import CharFn, block_structure, char_group
from upkit.errors import BoundExceeded, MoveNotApplicable, NotInJ
from upkit.moeglin import (
    AdmissibleOrder,
    MoeglinParam,
    TableChar,
    admissible_orders,
    arthur_character,
    gamma,
    merge_chain,
    merge_move,
    moeglin_params,
    standard_order,
    tempered_intersection,
)
from upkit.params import ATable, InfChar, LParam, near_tempered_table, tempered_table
from upkit.partitions import GroupType, Partition, classify, enumerate_classes


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


def T(entries, s, z=1):
    N = sum(a * b for a, b in entries)
    return ATable(tuple(entries), GroupType(s, N), z)


def mk(m, l, eta):
    return MoeglinParam(m, tuple(l.items()), tuple(eta.items()))


_B3 = GroupType(1, 3)

# each builder applied to a float and to a str where an integer belongs
_NON_INTEGERS = {
    "Partition": lambda x: Partition([x, 1]),
    "ATable": lambda x: ATable(((x, 1), (1, 1), (1, 1)), _B3, 1),
    "LParam": lambda x: LParam(1, ((x, 1),)),
    "InfChar": lambda x: InfChar(1, (x, 0)),
    "MoeglinParam": lambda x: MoeglinParam(ATable(((3, 1),), _B3, 1), ((0, x),), ((0, 1),)),
    "AdmissibleOrder": lambda x: AdmissibleOrder(ATable(((3, 1),), _B3, 1), (x,)),
    "GroupType.s": lambda x: GroupType(x, 3),
    "GroupType.N": lambda x: GroupType(1, x),
    "ATable.z": lambda x: ATable(((3, 1),), _B3, x),
    "LParam.z": lambda x: LParam(x, ((0, 1),)),
    "InfChar.z": lambda x: InfChar(x, (0,)),
}


@pytest.mark.parametrize("value", [2.5, "3", 1.0])
@pytest.mark.parametrize("kind", sorted(_NON_INTEGERS))
def test_constructors_refuse_non_integers(kind, value):
    # a float, integral or not, or a digit string is refused, never read
    # through int()
    with pytest.raises(TypeError):
        _NON_INTEGERS[kind](value)


def test_constructors_store_bools_as_ints():
    # a bool is an int; what is stored, and printed, is the int
    assert type(GroupType(True, 3).s) is int
    for z in (ATable(((3, 1),), _B3, True).z, LParam(True, ((0, 1),)).z, InfChar(True, (0,)).z):
        assert type(z) is int and z == 1
    assert json.dumps(ATable(((3, 1),), _B3, True).to_json()) == (
        '{"entries": [{"a": 3, "b": 1}], "z": 1}'
    )


def subsets(vals):
    vals = sorted(vals)
    for r in range(len(vals) + 1):
        for combo in itertools.combinations(vals, r):
            yield frozenset(combo)


# ----------------------------------------------------------- support sets

def test_table_support():
    m = T([(2, 1), (2, 1), (5, 1)], 1)  # (2,1) is a bad-parity pair
    assert m.support == ((5, 1),)
    assert m.support_mf == ((5, 1),)
    m = T([(1, 1), (3, 1), (3, 1)], 1)
    assert m.support == ((1, 1), (3, 1))
    assert m.support_mf == ((1, 1),)


def test_table_char_basics():
    m = T([(1, 1), (3, 1), (3, 1)], 1)
    ch = TableChar(m, frozenset({(3, 1)}))
    assert ch.indicator((3, 1)) == 1 and ch.sign((3, 1)) == -1
    assert ch.indicator((1, 1)) == 0 and ch.sign((1, 1)) == 1
    assert ch.in_P0  # S(m^mf) = {(1,1)}
    assert not TableChar(m, frozenset({(1, 1)})).in_P0
    with pytest.raises(ValueError):
        TableChar(m, frozenset({(5, 1)}))


# ------------------------------------------------------------- parameters

def test_param_validation():
    m = T([(1, 1), (4, 2)], 1)
    mk(m, {0: 0, 1: 1}, {0: 1})  # valid: R_l = {0}
    with pytest.raises(ValueError):
        mk(m, {0: 0}, {0: 1})  # l missing an index
    with pytest.raises(ValueError):
        mk(m, {0: 1, 1: 0}, {0: 1, 1: 1})  # l(0) > b_0/2
    with pytest.raises(ValueError):
        mk(m, {0: 0, 1: 1}, {0: 1, 1: 1})  # eta defined off R_l
    with pytest.raises(ValueError):
        mk(m, {0: 0, 1: 0}, {0: 1, 1: 2})  # eta value not a sign


@pytest.mark.parametrize(
    "entries,s,count",
    [
        ([(3, 1)], 1, 2),
        ([(3, 2)], -1, 3),
        ([(1, 1), (4, 2)], 1, 6),
    ],
)
def test_param_counts(entries, s, count):
    params = moeglin_params(T(entries, s))
    assert len(params) == count
    assert len(set(params)) == count


def test_param_json_and_phantom_accessors():
    m = T([(2, 1), (3, 2)], -1)
    p = mk(m, {0: 0, 1: 0}, {0: -1, 1: 1})
    assert p.to_json() == {"l": {"0": 0, "1": 0}, "eta": {"0": -1, "1": 1}}
    assert p.l_of(-1) == 0 and p.eta_of(-1) == 1  # pinned phantom
    q = mk(T([(3, 1)], 1), {0: 0}, {0: 1})
    with pytest.raises(KeyError):
        q.l_of(-1)  # no phantom entry for s = +1


def test_param_bound():
    with pytest.raises(BoundExceeded):
        moeglin_params(T([(1, 3)] * 13, 1))


# ----------------------------------------------------------------- orders

def test_admissible_order_validation():
    m = T([(1, 2), (2, 1)], -1)
    AdmissibleOrder(m, (0, 1))
    with pytest.raises(ValueError):
        AdmissibleOrder(m, (1, 0))  # (2,1) first breaks the beta clause
    with pytest.raises(ValueError):
        AdmissibleOrder(m, (0, 0))  # not a permutation


def test_admissible_orders_enumeration():
    only = admissible_orders(T([(1, 2), (2, 1)], -1))
    assert [ao.order for ao in only] == [(0, 1)]
    both = admissible_orders(T([(3, 1), (4, 2)], 1))
    assert sorted(ao.order for ao in both) == [(0, 1), (1, 0)]


def test_standard_order_sweep():
    for cp in both_types(12):
        m = tempered_table(cp)
        ao = standard_order(m)
        assert ao.standard
        a_seq = [m.entries[i][0] for i in ao.order]
        assert a_seq == sorted(a_seq)


def test_admissible_necessity_sweep():
    # Necessary conditions on admissible orders of near-tempered tables:
    # a_i <= a_j + 1 along the order, and a (2,1) head forbids a = 1.
    for cp in both_types(10):
        for J in subsets(block_structure(cp).J_set):
            m = near_tempered_table(cp, J)
            if len(m.gp_indices) > 5:
                continue
            for ao in admissible_orders(m):
                a_seq = [m.entries[i][0] for i in ao.order]
                for x in range(len(a_seq)):
                    for y in range(x + 1, len(a_seq)):
                        assert a_seq[x] <= a_seq[y] + 1
                if a_seq and m.entries[ao.order[0]] == (2, 1):
                    assert 1 not in a_seq


def test_order_bound():
    entries = [(2 * i, 1) for i in range(1, 11)]
    with pytest.raises(BoundExceeded):
        admissible_orders(T(entries, -1))


# ------------------------------------------------------------------ gamma

def test_gamma_standard_is_trivial():
    for cp in both_types(12):
        m = tempered_table(cp)
        ao = standard_order(m)
        assert all(gamma(ao, i) == 1 for i in m.gp_indices)


def test_gamma_nonstandard_fixture():
    m = T([(1, 1), (2, 2)], 1)
    ao = AdmissibleOrder(m, (1, 0))  # (2,2) placed before (1,1)
    assert gamma(ao, 0) == -1  # a neighbour at a+1 precedes
    assert gamma(ao, 1) == -1  # a neighbour at a-1 follows
    assert gamma(standard_order(m), 0) == 1
    assert gamma(standard_order(m), 1) == 1
    with pytest.raises(ValueError):
        gamma(ao, 2)  # not an entry index
    big = T([(1, 3), (1, 3), (3, 1)], 1)
    with pytest.raises(ValueError):
        gamma(standard_order(big), 2)  # not near-tempered


# ----------------------------------------------------------------- arthur

def test_arthur_formula_cases_raw():
    # s = -1 keeps the raw formula values: b=1,l=0 -> eta sign;
    # b=2,l=1 -> bit 0; b=2,l=0 -> bit 1.
    m = T([(2, 1), (3, 2)], -1)
    ao = standard_order(m)
    cases = [
        ({0: 0, 1: 1}, {0: 1}, frozenset()),
        ({0: 0, 1: 1}, {0: -1}, frozenset({(2, 1)})),
        ({0: 0, 1: 0}, {0: 1, 1: 1}, frozenset({(3, 2)})),
        ({0: 0, 1: 0}, {0: -1, 1: -1}, frozenset({(2, 1), (3, 2)})),
    ]
    for l, eta, subset in cases:
        assert arthur_character(ao, mk(m, l, eta)).subset == subset
    assert not arthur_character(ao, mk(m, {0: 0, 1: 1}, {0: -1})).in_P0


def test_arthur_s_plus_normalization():
    # For s = +1 a raw value outside P(m)_0 flips by the odd-dimensional
    # entries of S(m^mf) into the canonical coset representative.
    m = T([(1, 1), (4, 2)], 1)
    ao = standard_order(m)
    full = frozenset({(1, 1), (4, 2)})
    assert arthur_character(ao, mk(m, {0: 0, 1: 1}, {0: 1})).subset == frozenset()
    assert arthur_character(ao, mk(m, {0: 0, 1: 1}, {0: -1})).subset == frozenset()
    assert arthur_character(ao, mk(m, {0: 0, 1: 0}, {0: 1, 1: 1})).subset == full
    assert arthur_character(ao, mk(m, {0: 0, 1: 0}, {0: -1, 1: 1})).subset == full
    assert all(arthur_character(ao, p).in_P0 for p in moeglin_params(m))


def test_arthur_repeated_entry_reads_lowest_index():
    cp = B("3,3,1")
    m, ao, p = merge_chain(cp, CharFn(cp, frozenset({3})), ())
    assert m.entries == ((1, 1), (3, 1), (3, 1))
    ch = arthur_character(ao, p)
    assert ch.subset == frozenset({(3, 1)})
    assert ch.in_P0


def test_arthur_table_mismatch():
    with pytest.raises(ValueError):
        arthur_character(
            standard_order(T([(3, 1)], 1)), mk(T([(5, 1)], 1), {0: 0}, {0: 1})
        )


def test_arthur_standard_order_independent():
    m = T([(1, 1), (3, 1), (3, 1)], 1)
    standards = [ao for ao in admissible_orders(m) if ao.standard]
    assert len(standards) == 2
    for p in moeglin_params(m):
        assert len({arthur_character(ao, p).subset for ao in standards}) == 1
    for cp in both_types(9):
        m = tempered_table(cp)
        if len(m.gp_indices) > 5:
            continue
        standards = [ao for ao in admissible_orders(m) if ao.standard]
        for p in moeglin_params(m):
            assert len({arthur_character(ao, p).subset for ao in standards}) == 1


# ------------------------------------------------------------- merge move

def test_merge_move_fixture():
    m = tempered_table(B("5,3,1"))
    ao = standard_order(m)
    p = mk(m, {0: 0, 1: 0, 2: 0}, {0: 1, 1: 1, 2: -1})
    m2, ao2, p2 = merge_move(ao, p, 2)
    assert m2.entries == ((1, 1), (4, 2))
    assert ao2.order == (0, 1) and ao2.standard
    assert p2.l == ((0, 0), (1, 0))
    assert p2.eta == ((0, 1), (1, 1))  # merged entry keeps the lower sign


def test_merge_move_slot1():
    m = tempered_table(B("5,3,1"))
    ao = standard_order(m)
    p = mk(m, {0: 0, 1: 0, 2: 0}, {0: 1, 1: -1, 2: 1})
    m2, ao2, p2 = merge_move(ao, p, 1)
    assert m2.entries == ((2, 2), (5, 1))
    assert ao2.order == (0, 1)
    assert p2.l_of(0) == 0 and p2.eta_of(0) == 1  # the merged (2,2)
    assert p2.eta_of(1) == 1  # untouched (5,1)


def test_merge_move_rejections():
    m = tempered_table(B("5,3,1"))
    ao = standard_order(m)
    p = mk(m, {0: 0, 1: 0, 2: 0}, {0: 1, 1: 1, 2: -1})
    with pytest.raises(MoveNotApplicable):
        merge_move(ao, mk(m, {0: 0, 1: 0, 2: 0}, {0: 1, 1: 1, 2: 1}), 2)
    with pytest.raises(MoveNotApplicable):
        merge_move(ao, p, 1)  # signs (+,+) at slot 1
    with pytest.raises(MoveNotApplicable):
        merge_move(ao, p, 3)  # out of range
    with pytest.raises(MoveNotApplicable):
        merge_move(ao, p, 0)  # no phantom slot for s = +1


def test_merge_move_phantom():
    cp = C("2,2")
    m, ao, p = merge_chain(cp, CharFn(cp, frozenset({2})), ())
    assert m.entries == ((2, 1), (2, 1))
    m2, ao2, p2 = merge_move(ao, p, 0)
    assert m2.entries == ((1, 2), (2, 1))
    assert ao2.order == (0, 1)
    assert p2.eta_of(0) == 1 and p2.eta_of(1) == -1
    assert arthur_character(ao2, p2).subset == {(1, 2), (2, 1)}
    outside = mk(m, {0: 0, 1: 0}, {0: 1, 1: 1})
    with pytest.raises(MoveNotApplicable):
        merge_move(ao, outside, 0)


def test_merge_move_spliced_order_guard():
    # The merged entry can break admissibility of the spliced order when
    # the original order leaned on beta_first >= 0.
    m = T([(2, 1), (6, 1), (5, 2)], -1)
    p = mk(m, {0: 0, 1: 0, 2: 0}, {0: -1, 1: 1, 2: 1})
    bad = AdmissibleOrder(m, (0, 2, 1))  # (2,1), (6,1), (5,2)
    with pytest.raises(MoveNotApplicable):
        merge_move(bad, p, 0)  # splice would put beta = -1 first
    good = AdmissibleOrder(m, (0, 1, 2))  # (2,1), (5,2), (6,1)
    m2, ao2, _ = merge_move(good, p, 0)
    assert m2.entries == ((1, 2), (5, 2), (6, 1))
    assert ao2.order == (0, 1, 2)


# ------------------------------------------------------------------ moves

def applicable_merges(ao, p):
    """{slot: merge_move result} over every slot that admits a merge."""
    out = {}
    for k in range(len(ao.order)):
        try:
            out[k] = merge_move(ao, p, k)
        except MoveNotApplicable:
            pass
    return out


def test_applicable_moves_tempered_merges():
    cp = B("5,3,1")
    m, ao, p = merge_chain(cp, CharFn(cp, frozenset({1, 5})), ())
    found = applicable_merges(ao, p)
    assert sorted(found) == [1, 2]
    assert found[1][0].entries == ((2, 2), (5, 1))
    assert found[2][0].entries == ((1, 1), (4, 2))


def test_applicable_moves_phantom_slot():
    cp = C("2,2")
    m, ao, p = merge_chain(cp, CharFn(cp, frozenset({2})), ())
    found = applicable_merges(ao, p)
    assert sorted(found) == [0]
    assert found[0][0].entries == ((1, 2), (2, 1))


# ----------------------------------------------------------- intersection

def test_tempered_intersection_fixture():
    cp = B("5,3,1")
    hit = tempered_intersection(cp, {4})
    assert {eps.subset for eps in hit} == {frozenset({1, 3}), frozenset({1, 5})}
    assert len(tempered_intersection(cp, set())) == 4
    with pytest.raises(NotInJ):
        tempered_intersection(cp, {2})


def test_param_of_tempered():
    cp = B("5,3,1")
    m, ao, p = merge_chain(cp, CharFn(cp, frozenset({1, 3})), ())
    assert m == tempered_table(cp)
    assert ao.standard
    assert [p.eta_of(i) for i in m.gp_indices] == [-1, -1, 1]
    assert arthur_character(ao, p).subset == {(1, 1), (3, 1)}
    with pytest.raises(ValueError):
        merge_chain(cp, CharFn(cp, frozenset({1})), ())  # not in P_0
    with pytest.raises(ValueError):
        merge_chain(cp, CharFn(B("3,3,1"), frozenset({3})), ())


# ------------------------------------------------------------ merge chain

def test_merge_chain_fixture():
    cp = B("5,3,1")
    m, ao, p = merge_chain(cp, CharFn(cp, frozenset({1, 3})), {4})
    assert m == near_tempered_table(cp, {4})
    assert m.entries == ((1, 1), (4, 2))
    assert p.l == ((0, 0), (1, 0))
    assert p.eta_of(0) == -1  # (1,1) keeps (-1)^eps(1)
    assert p.eta_of(1) == -1  # (4,2) carries (-1)^eps(3)
    ch = arthur_character(ao, p)
    assert ch.subset == {(1, 1), (4, 2)} and ch.in_P0


def test_merge_chain_rejects_outsiders():
    cp = B("5,3,1")
    with pytest.raises(MoveNotApplicable):
        merge_chain(cp, CharFn(cp, frozenset()), {4})  # eps(3) = eps(5)
    with pytest.raises(NotInJ):
        merge_chain(cp, CharFn(cp, frozenset()), {2})


def test_merge_chain_phantom():
    cp = C("2,2")
    inside = tempered_intersection(cp, {1})
    assert [eps.subset for eps in inside] == [frozenset({2})]
    m, ao, p = merge_chain(cp, CharFn(cp, frozenset({2})), {1})
    assert m.entries == ((1, 2), (2, 1))
    assert p.eta_of(0) == 1 and p.eta_of(1) == -1
    with pytest.raises(MoveNotApplicable):
        merge_chain(cp, CharFn(cp, frozenset()), {1})


def test_merge_chain_z():
    cp = C("2,2")
    m, _, _ = merge_chain(cp, CharFn(cp, frozenset({2})), {1}, z=-1)
    assert m.z == -1
    assert m == near_tempered_table(cp, {1}, z=-1)


def _reconstruct(cp, m, p):
    """Invert a chain output back to the tempered character's subset."""
    by_entry = {}
    for i in m.gp_indices:
        e = m.entries[i]
        if e not in by_entry:
            by_entry[e] = p.eta_of(i) if 2 * p.l_of(i) < e[1] else 0
    bits = {}
    for a in sorted(cp.S):
        if (a, 1) in by_entry:
            bits[a] = 1 if by_entry[(a, 1)] == -1 else 0
        elif (a + 1, 2) in by_entry:
            bits[a] = 1 if by_entry[(a + 1, 2)] == -1 else 0
        else:  # a = c + 1 was consumed: t_c forces the opposite of eps(c-1)
            bits[a] = 1 - bits.get(a - 2, 0)
    return frozenset(a for a, bit in bits.items() if bit)


def test_merge_chain_round_trip():
    for cp in both_types(14):
        J_all = block_structure(cp).J_set
        zs = (1,) if cp.gt.s == 1 else (1, -1)
        for J in subsets(J_all):
            for z in zs:
                target = near_tempered_table(cp, J, z)
                inside = tempered_intersection(cp, J)
                for eps in char_group(cp):
                    if eps not in inside:
                        with pytest.raises(MoveNotApplicable):
                            merge_chain(cp, eps, J, z)
                        continue
                    m, ao, p = merge_chain(cp, eps, J, z)
                    assert m == target and ao.standard
                    assert all(v == 0 for _, v in p.l)
                    ch = arthur_character(ao, p)
                    assert ch.in_P0
                    for i in m.gp_indices:
                        a, b = m.entries[i]
                        if b == 1:
                            assert p.eta_of(i) == eps.sign(a)
                            assert ch.indicator((a, 1)) == eps.indicator(a)
                        else:
                            low = eps.indicator(a - 1) if a > 1 else 0
                            assert p.eta_of(i) == (-1) ** low
                            assert ch.indicator((a, 2)) == 1
                    assert _reconstruct(cp, m, p) == eps.subset


# --------------------------------------------------- parameter pinning

def test_lpacket_pinning():
    # A character avoiding the b=2 part of S(m) pins l = 1 there, and
    # conversely: bit(c,2) = 0 exactly when l(c,2) = b/2.
    for cp in both_types(10):
        for J in subsets(block_structure(cp).J_set):
            if not J:
                continue
            m = near_tempered_table(cp, J)
            ao = standard_order(m)
            flat = {e for e in m.support if e[1] == 1}
            for p in moeglin_params(m):
                ch = arthur_character(ao, p)
                pinned = all(
                    p.l_of(i) == 1
                    for i in m.gp_indices
                    if m.entries[i][1] == 2
                )
                assert (ch.subset <= flat) == pinned


# ------------------------------------------------------ switch relations

def _raw_character(ao, p):
    """Formula signs on S(m); None when copies of an entry disagree."""
    m = ao.table
    out = {}
    for i in m.gp_indices:
        a, b = m.entries[i]
        li = p.l_of(i)
        if 2 * li < b:
            s = gamma(ao, i) * (-1) ** ((b // 2 + li) % 2)
            if b % 2:
                s *= p.eta_of(i)
        else:
            s = gamma(ao, i)
        if out.setdefault((a, b), s) != s:
            return None
    return frozenset(e for e, s in out.items() if s == -1)


def test_switch_sign_propagation():
    # At an (a,2) entry with l = 0 next to its a-1 / a+1 neighbour in a
    # non-standard admissible order, the character bit at the neighbour
    # is forced by eta of the (a,2) entry.  Parameters are filtered down
    # to those a packet member can carry: consistent repeated-entry
    # values, a raw character inside P(m)_0, and the neighbour sign
    # relations.
    for cp in both_types(10):
        for J in subsets(block_structure(cp).J_set):
            if not J:
                continue
            m = near_tempered_table(cp, J)
            if len(m.gp_indices) > 5:
                continue
            mf = set(m.support_mf)
            for ao in admissible_orders(m):
                for p in moeglin_params(m):
                    raw = _raw_character(ao, p)
                    if raw is None or len(raw & mf) % 2:
                        continue
                    ch = arthur_character(ao, p)
                    assert ch.subset == raw
                    for pos, i in enumerate(ao.order):
                        a, b = m.entries[i]
                        if b != 2 or a <= 1 or p.l_of(i) != 0:
                            continue
                        nxt = ao.order[pos + 1] if pos + 1 < len(ao.order) else None
                        prv = ao.order[pos - 1] if pos > 0 else None
                        left_a = m.entries[prv][0] if prv is not None else None
                        if nxt is not None and m.entries[nxt] == (a - 1, 1):
                            if left_a is not None and left_a > a - 1:
                                continue
                            if p.eta_of(nxt) != -p.eta_of(i):
                                continue
                            assert ch.sign((a - 1, 1)) == p.eta_of(i)
                        if prv is not None and m.entries[prv] == (a + 1, 1):
                            if p.eta_of(prv) != p.eta_of(i):
                                continue
                            assert ch.sign((a + 1, 1)) == -p.eta_of(i)


def test_js_builds_one_intersection_per_J(monkeypatch):
    # the intersection is the same at both central characters, so the js
    # suite builds it once per (class, J): 18 on C8, where z runs over 1, -1
    calls = []
    real = verify.tempered_intersection

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(verify, "tempered_intersection", counted)
    assert verify.check_js(GroupType(-1, 8)) == 48
    assert len(calls) == len(set(calls)) == 18
