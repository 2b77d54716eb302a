import itertools

import pytest

from upkit.components import (
    BlockStructure,
    CharFn,
    _p0_subsets,
    _s_mask,
    _subsets_in_order,
    block_classes,
    block_structure,
    canonical_subgroup,
    canonical_subgroup_order,
    canonical_subsets,
    char_group,
    char_group_order,
    full_group,
    iota_embed,
    t_character,
)
from upkit.errors import NotCanonical, NotInJ, NotInPiece
from upkit.partitions import (
    GroupType,
    Partition,
    classify,
    difference,
    enumerate_classes,
    union,
)


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


# ---------------------------------------------------------------- classes

CLASS_FIXTURES = [
    ("B", "5,3,1", [(1, 3), (5,)]),
    ("B", "9,7,5,3,1", [(1, 3), (5, 7), (9,)]),
    ("B", "7,5,3,1,1", [(1,), (3, 5), (7,)]),
    ("B", "11,10^2,9^2,7^4,5^3,4^2,3^2,1", [(1, 3, 5), (7,), (9,), (11,)]),
    ("B", "5,5,3,3,1", [(1, 3, 5)]),
    ("C", "2,2", [(2,)]),
    ("C", "2,2,2", [(2,)]),
    ("C", "10,6,2", [(2,), (6, 10)]),
    ("C", "4,4,2", [(2,), (4,)]),
    ("C", "8,8,7,7,6,2", [(2, 6), (8,)]),
]


@pytest.mark.parametrize("letter,text,classes", CLASS_FIXTURES)
def test_class_decomposition_fixtures(letter, text, classes):
    cp = (B if letter == "B" else C)(text)
    assert list(block_structure(cp).classes) == classes


def test_classes_partition_s_consecutively():
    for cp in both_types(16):
        bs = block_structure(cp)
        flattened = [v for theta in bs.classes for v in theta]
        assert tuple(flattened) == cp.S  # disjoint, ordered, exhaustive


def _ref_spans(cp):
    # index spans of the classes: S_0 positions joined in pairs, the tail or
    # ground span added, every uncovered position a singleton, then sorted
    S = cp.S
    k = len(S)
    s0 = set(cp.S0)
    pos0 = [i for i, v in enumerate(S) if v in s0]
    r = len(pos0)
    spans = []
    if cp.gt.s == 1:
        spans += ((pos0[i], pos0[i + 1]) for i in range(0, r - 1, 2))
        if r:
            spans.append((pos0[r - 1], k - 1))
    else:
        first = r % 2
        if first:
            spans.append((0, pos0[0]))
        spans += ((pos0[i], pos0[i + 1]) for i in range(first, r - 1, 2))
    covered = set()
    for p, q in spans:
        covered.update(range(p, q + 1))
    spans.extend((i, i) for i in range(k) if i not in covered)
    spans.sort()
    return spans


def _ref_block_structure(cp):
    """The block structure of cp and its blocks, cut here from the ranges
    so that I(lam) is read off the blocks' supports."""
    lam = cp.lam
    s0 = set(cp.S0)
    classes = tuple(cp.S[p : q + 1] for p, q in _ref_spans(cp))
    odd = "tail" if cp.gt.s == 1 else "ground"
    kinds = tuple(("single", odd, "pair")[len(s0.intersection(theta))] for theta in classes)
    ranges = tuple(
        (1 if kind == "ground" else theta[0], lam[0] if kind == "tail" else theta[-1])
        for theta, kind in zip(classes, kinds)
    )
    blocks = tuple(lam.interval(lo, hi) for lo, hi in ranges)
    I_set = frozenset(
        v for blk in blocks for v in blk.supp if not cp.gt.good_parity(v)
    )
    admissible = []
    for theta in classes:
        tmin, tmax = theta[0], theta[-1]
        ok = any(other[-1] == tmin - 2 for other in classes)
        if not ok and tmin == 2:
            if tmin == tmax:
                ok = 2 not in s0
            else:
                ok = 2 in s0
        if ok:
            admissible.append(theta)
    J_set = frozenset(theta[0] - 1 for theta in admissible)
    ref = BlockStructure(
        cp=cp,
        classes=classes,
        ranges=ranges,
        admissible=tuple(admissible),
        I_set=I_set,
        J_set=J_set,
    )
    return ref, blocks


def test_class_scan_matches_span_reference():
    # every class with N <= 30, uncached, against the span-and-sort builder
    for cp in both_types(30):
        ref, blocks = _ref_block_structure(cp)
        assert block_classes(cp) == ref.classes, cp
        bs = block_structure.__wrapped__(cp)
        assert bs == ref, cp
        # the blocks are no field, so equality does not read them
        assert "blocks" not in bs.__dict__, cp
        assert bs.blocks == blocks, cp
        even = sum(len(set(cp.S0).intersection(theta)) % 2 == 0 for theta in ref.classes)
        assert canonical_subgroup_order(cp) == 2**even, cp


def test_tail_and_ground_ranges():
    # B 5,3,1: the pair {1, 3}, then the tail {5}, ceiled at lam_1 = 5
    bs = block_structure(B("5,3,1"))
    assert bs.classes == ((1, 3), (5,))
    assert bs.ranges == ((1, 3), (5, 5))
    assert bs.blocks == ((3, 1), (5,))
    # B 2,2,1: S = (1,) is the tail, ceiled at lam_1 = 2
    bs = block_structure(B("2,2,1"))
    assert bs.classes == ((1,),)
    assert bs.ranges == ((1, 2),)
    assert bs.blocks == ((2, 2, 1),)
    # C 4,2,2: S = (2, 4) is the ground class, grounded at 1
    bs = block_structure(C("4,2,2"))
    assert bs.classes == ((2, 4),)
    assert bs.ranges == ((1, 4),)
    assert bs.blocks == ((4, 2, 2),)
    # C 4,3,3: the ground class {4}, grounded at 1, catches the bad-parity 3s
    bs = block_structure(C("4,3,3"))
    assert bs.ranges == ((1, 4),)
    assert bs.blocks == ((4, 3, 3),)
    assert bs.I_set == {3}


def test_blocks_cover_lam_with_even_leftover():
    for cp in both_types(16):
        bs = block_structure(cp)
        inside = union(*bs.blocks) if bs.blocks else Partition()
        out = difference(cp.lam, inside)
        for v in out.supp:
            assert not cp.gt.good_parity(v)
            assert out.mult(v) % 2 == 0


# ------------------------------------------------------------ I, J, special

I_FIXTURES = [
    ("B", "2,2,1", {2}),
    ("B", "4,4,1", {4}),
    ("B", "2,2,2,2,1", {2}),
    ("B", "4,4,3,3,1", {4}),
    ("B", "6,6,4,4,1", {4, 6}),
    ("B", "6,6,5,3,1", {6}),
    ("B", "7,5,2,2,1", {2}),
    ("B", "11,10^2,9^2,7^4,5^3,4^2,3^2,1", {4}),
    ("C", "2,1,1", {1}),
    ("C", "2,2,2,1,1", {1}),
    ("C", "2,1^4", {1}),
    ("C", "4,1,1", {1}),
    ("C", "4,3,3", {3}),
    ("C", "4,4,4,1^4", {1}),
]

SPECIAL_FIXTURES = [
    ("B", "5,3,1"),
    ("B", "3,1,1"),
    ("B", "3,2,2,1,1"),
    ("B", "5,4,4,1,1"),
    ("B", "7,4,4,3,1"),
    ("B", "13,9,5,4,4,3,1"),
    ("B", "5,5,3,3,1"),
    ("B", "5,3,3,1,1"),
    ("B", "7,5,3,1,1"),
    ("B", "11,10^2,9^2,7^4,5^4,3^3,1"),
    ("C", "2,2"),
    ("C", "2,2,2"),
    ("C", "2,2,1,1"),
    ("C", "3,3,2"),
    ("C", "3,3,2,2"),
    ("C", "3,3,2,2,2"),
    ("C", "4,2"),
    ("C", "4,4,2"),
    ("C", "4,2,2"),
    ("C", "4,2,1,1"),
    ("C", "4,4,1,1"),
    ("C", "4,4,4,2,1,1"),
    ("C", "10,6,2"),
    ("C", "10,6,3,3,2"),
    ("C", "8,8,6,2"),
    ("C", "8,8,7,7,6,2"),
]


@pytest.mark.parametrize("letter,text,I", I_FIXTURES)
def test_obstruction_set_fixtures(letter, text, I):
    cp = (B if letter == "B" else C)(text)
    assert block_structure(cp).I_set == I


@pytest.mark.parametrize("letter,text", SPECIAL_FIXTURES)
def test_special_fixtures(letter, text):
    cp = (B if letter == "B" else C)(text)
    assert block_structure(cp).I_set == frozenset()


SHARP_FIXTURES = [
    ("B", "3,2,2,1,1", (2,)),
    ("B", "5,4,4,1,1", (4,)),
    ("C", "2,2,1,1", (1,)),
    ("C", "10,6,3,3,2", (3,)),
    ("C", "8,8,7,7,6,2", (7,)),
    ("B", "11,10^2,9^2,7^4,5^3,4^2,3^2,1", (10,)),
]


@pytest.mark.parametrize("letter,text,sharp", SHARP_FIXTURES)
def test_sharp_fixtures(letter, text, sharp):
    # the blocks leave two copies of each part of lam^#
    cp = (B if letter == "B" else C)(text)
    blocks = block_structure(cp).blocks
    out = difference(cp.lam, union(*blocks) if blocks else Partition())
    assert out == tuple(v for v in sharp for _ in range(2))


J_FIXTURES = [
    ("B", "5,3,1", {4}),
    ("B", "3,1,1", {2}),
    ("B", "3,2,2,1,1", {2}),
    ("B", "7,5,3,1,1", {2, 6}),
    ("B", "9,7,5,3,1", {4, 8}),
    ("B", "11,10^2,9^2,7^4,5^3,4^2,3^2,1", {6, 8, 10}),
    ("B", "11,10^2,9^2,7^4,5^4,3^3,1", {4, 6, 8, 10}),
    ("C", "2,2", {1}),
    ("C", "2,2,2", set()),
    ("C", "2,2,1,1", {1}),
    ("C", "4,2", {1}),
    ("C", "4,2,2", set()),
    ("C", "4,4,2", {3}),
]


@pytest.mark.parametrize("letter,text,J", J_FIXTURES)
def test_move_set_fixtures(letter, text, J):
    cp = (B if letter == "B" else C)(text)
    assert block_structure(cp).J_set == J


def test_specialness_matches_transpose_criterion():
    # independent route: lam is special iff its transpose passes the same
    # parity validity check (even parts pair up for B, odd parts for C)
    for cp in both_types(20):
        t = cp.lam.transpose()
        ok = all(
            cp.gt.good_parity(v) or t.mult(v) % 2 == 0 for v in t.supp
        )
        assert block_structure(cp).special == ok


def test_I_J_are_bad_parity_and_disjoint():
    for cp in both_types(18):
        bs = block_structure(cp)
        for c in bs.I_set | bs.J_set:
            assert not cp.gt.good_parity(c)
        assert not (bs.I_set & bs.J_set)


# ------------------------------------------------------------------ CharFn

def test_charfn_text():
    cp = B("5,3,1")
    eps = CharFn.from_text(cp, "(--+)")
    assert eps.subset == {1, 3}
    assert eps.to_text() == "(--+)"
    assert CharFn.from_text(cp, "{1,3}") == eps
    assert CharFn.from_text(cp, "(+++)").subset == frozenset()
    with pytest.raises(ValueError):
        CharFn.from_text(cp, "(--)")
    with pytest.raises(ValueError):
        CharFn(cp, frozenset({2}))


def test_charfn_empty_sign_string():
    # "()" is a sign string of length 0, not the empty set
    with pytest.raises(ValueError, match="sign string length 0 != "):
        CharFn.from_text(B("5,3,1"), "()")
    # and the text of the one character when S(lam) is empty
    cp = C("1,1")
    assert cp.S == ()
    eps = CharFn.from_text(cp, " () ")
    assert eps.subset == frozenset() and eps.to_text() == "()"
    assert CharFn.from_text(B("5,3,1"), "{}").subset == frozenset()


def test_charfn_parity():
    cp = B("5,3,1")
    a = CharFn(cp, frozenset({1, 3}))
    assert a.in_P0
    assert CharFn(cp, frozenset({5})).in_P0 is False


def test_char_group_fixture():
    cp = B("5,3,1")
    got = {fn.subset for fn in char_group(cp)}
    assert got == {
        frozenset(),
        frozenset({1, 3}),
        frozenset({1, 5}),
        frozenset({3, 5}),
    }
    assert len(full_group(cp)) == 8


def test_canonical_subgroup_fixtures():
    assert {fn.subset for fn in canonical_subgroup(B("5,3,1"))} == {
        frozenset(),
        frozenset({1, 3}),
    }
    assert {fn.subset for fn in canonical_subgroup(B("7,5,3,1,1"))} == {
        frozenset(),
        frozenset({1}),
        frozenset({3, 5}),
        frozenset({1, 3, 5}),
    }


def test_canonical_subsets_are_the_canonical_subgroup():
    # against every union of block classes that meets S_0 evenly
    for cp in both_types(20):
        classes = block_structure(cp).classes
        assert block_classes(cp) == classes
        unions = (
            frozenset(v for theta, take in zip(classes, picks) if take for v in theta)
            for picks in itertools.product((False, True), repeat=len(classes))
        )
        brute = {a for a in unions if len(a.intersection(cp.S0)) % 2 == 0}
        members = [fn.subset for fn in canonical_subgroup(cp)]
        assert canonical_subsets(cp) == set(members) == brute
        assert members == sorted(members, key=lambda a: (len(a), sorted(a)))


def test_triangular_canonical_count():
    # staircase classes: k pair classes plus the ceiled tail
    for k, text in ((1, "5,3,1"), (2, "9,7,5,3,1"), (3, "13,11,9,7,5,3,1")):
        cp = B(text)
        assert len(canonical_subgroup(cp)) == 2 ** k
        assert len(char_group(cp)) == 4 ** k


def test_char_group_is_the_P0_part_of_full_group():
    for cp in both_types(16):
        assert char_group(cp) == tuple(f for f in full_group(cp) if f.in_P0)


def test_char_group_order_formula():
    for cp in both_types(18):
        assert len(char_group(cp)) == char_group_order(cp)


def test_canonical_subgroup_order_formula():
    for cp in both_types(20):
        assert len(canonical_subsets(cp)) == canonical_subgroup_order(cp)
    # the 35-part staircase: 17 pair classes and the tail, never listed
    staircase = B(",".join(str(v) for v in range(69, 0, -2)))
    assert canonical_subgroup_order(staircase) == 2**17


def test_canonical_subgroup_is_subgroup():
    for cp in both_types(14):
        members = {fn.subset for fn in canonical_subgroup(cp)}
        assert frozenset() in members
        for a, b in itertools.product(members, repeat=2):
            assert frozenset(a ^ b) in members
        assert members <= {fn.subset for fn in char_group(cp)}


def test_lemma_head_tail():
    for cp in both_types(18):
        bs = block_structure(cp)
        members = [fn.subset for fn in canonical_subgroup(cp)]
        if cp.gt.s == 1 and cp.S:
            top = max(cp.S)
            assert all(top not in a for a in members)
        if 2 in cp.S and 1 not in bs.J_set:
            assert all(2 not in a for a in members)


# ------------------------------------------------------- t_c and primitivity

def test_t_character_fixture():
    cp = B("5,3,1")
    t4 = t_character(cp, 4)
    assert t4(CharFn(cp, frozenset({1, 3}))) == -1
    assert t4(CharFn(cp, frozenset())) == 1
    with pytest.raises(NotInJ):
        t_character(cp, 2)


def test_t_character_c_equals_1():
    cp = C("2,2")
    t1 = t_character(cp, 1)
    assert t1(CharFn(cp, frozenset({2}))) == -1
    assert t1(CharFn(cp, frozenset())) == 1


# ------------------------------------------------------------- iota embed

def test_iota_identity_and_fixture():
    lam = B("5,3,1")
    mu = B("4,4,1")
    e0 = CharFn(mu, frozenset())
    lifted = iota_embed(mu, lam, e0)
    assert lifted == CharFn(lam, frozenset())
    # image = kernel of t_4 inside the canonical subgroup
    image = {iota_embed(mu, lam, fn).subset for fn in canonical_subgroup(mu)}
    t4 = t_character(lam, 4)
    kernel = {
        fn.subset for fn in canonical_subgroup(lam) if t4(fn) == 1
    }
    assert image == kernel


def test_iota_image_and_injectivity():
    from upkit.pieces import special_piece

    for cp in both_types(14):
        piece = special_piece(cp)
        ts = {}
        for J, mu in piece:
            fns = canonical_subgroup(mu)
            image = [iota_embed(mu, cp, fn) for fn in fns]
            assert len(set(image)) == len(fns)  # injective
            expected = {
                fn.subset
                for fn in canonical_subgroup(cp)
                if all(
                    ts.setdefault(c, t_character(cp, c))(fn) == 1 for c in J
                )
            }
            assert {fn.subset for fn in image} == expected


def test_iota_composition():
    from upkit.pieces import special_piece

    for cp in both_types(12):
        for J1, mid in special_piece(cp):
            for J2, bottom in special_piece(mid):
                for fn in canonical_subgroup(bottom):
                    direct = iota_embed(bottom, cp, fn)
                    via = iota_embed(mid, cp, iota_embed(bottom, mid, fn))
                    assert direct == via


def test_iota_requires_membership():
    lam = B("5,3,1")
    mu = B("4,4,1")
    with pytest.raises(NotCanonical):
        iota_embed(mu, lam, CharFn(lam, frozenset()))
    with pytest.raises(NotInPiece):
        iota_embed(B("3,3,3"), lam, CharFn(B("3,3,3"), frozenset()))


def test_p0_walk_is_the_filtered_subset_walk():
    # _p0_subsets draws the subsets of S(lam) in the order of
    # _subsets_in_order on its own; it lists P(lam)_0 exactly as that
    # walk filtered by the P(lam)_0 rule does, each member with its
    # S-index bitmask, bit j for the j-th value of S(lam) ascending
    for cp in both_types(18):
        filtered = [a for a in _subsets_in_order(cp.S) if len(a & set(cp.S0)) % 2 == 0]
        walked = list(_p0_subsets(cp))
        assert [a for a, _ in walked] == filtered, cp
        for a, mask in walked:
            assert mask == _s_mask(cp, a) == sum(1 << cp.S.index(v) for v in a), (cp, a)
