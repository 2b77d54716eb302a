import itertools

import pytest

from upkit.components import block_structure
from upkit.errors import NotInI, NotInJ
from upkit.partitions import (
    GroupType,
    Partition,
    classify,
    dominates,
    enumerate_classes,
    partitions_of,
)
from upkit.pieces import (
    T_down,
    T_up,
    bvls_dual,
    collapse,
    is_special,
    piece_data,
    special_closure,
    special_piece,
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


# ----------------------------------------------------------------- moves

MOVE_FIXTURES = [
    ("B", "5,3,1", 4, "4,4,1"),
    ("B", "3,1,1", 2, "2,2,1"),
    ("B", "3,2,2,1,1", 2, "2^4,1"),
    ("B", "9,7,5,3,1", 4, "9,7,4,4,1"),
    ("B", "9,7,5,3,1", 8, "8,8,5,3,1"),
    ("C", "2,2", 1, "2,1,1"),
    ("C", "2,2,1,1", 1, "2,1^4"),
    ("C", "4,2", 1, "4,1,1"),
    ("C", "4,4,2", 3, "4,3,3"),
]


@pytest.mark.parametrize("letter,text,c,expect", MOVE_FIXTURES)
def test_single_move_fixtures(letter, text, c, expect):
    make = B if letter == "B" else C
    assert T_down(make(text), {c}) == make(expect)


def test_move_errors_and_identity():
    cp = B("5,3,1")
    assert T_down(cp, set()) == cp
    assert T_up(cp, set()) == cp
    with pytest.raises(NotInJ):
        T_down(cp, {2})
    with pytest.raises(NotInI):
        T_up(cp, {4})


def test_moves_invert_each_other():
    for cp in both_types(18):
        J = block_structure(cp).J_set
        for k in range(len(J) + 1):
            for combo in itertools.combinations(sorted(J), k):
                down = T_down(cp, combo)
                assert frozenset(combo) <= block_structure(down).I_set
                assert T_up(down, combo) == cp


def test_moves_transport_I_and_J():
    for cp in both_types(18):
        bs = block_structure(cp)
        for c in bs.J_set:
            down = block_structure(T_down(cp, {c}))
            assert down.I_set == bs.I_set | {c}
            assert down.J_set == bs.J_set - {c}


def test_piece_data_admissible_classes():
    assert piece_data(B("5,3,1")) is block_structure(B("5,3,1"))
    assert piece_data(B("5,3,1")).admissible == ((5,),)
    assert piece_data(C("2,2")).admissible == ((2,),)
    assert piece_data(C("2,2,2")).admissible == ()
    assert piece_data(C("4,2")).admissible == ((2, 4),)
    assert piece_data(B("9,7,5,3,1")).admissible == ((5, 7), (9,))


# ------------------------------------------------------- special closure

def test_special_closure_fixture():
    assert special_closure(B("4,4,1")) == B("5,3,1")
    assert special_closure(C("2,1,1")) == C("2,2")
    assert special_closure(C("4,3,3")) == C("4,4,2")
    assert special_closure(B("6,6,4,4,1")) == B("7,5,5,3,1")


def test_special_closure_is_minimal_special_above():
    for N, s in ((13, 1), (14, -1)):
        gt = GroupType(s, N)
        classes = enumerate_classes(gt)
        specials = [c for c in classes if is_special(c)]
        for cp in classes:
            closure = special_closure(cp)
            assert is_special(closure)
            above = [
                sp for sp in specials if dominates(sp.lam, cp.lam)
            ]
            assert closure in above
            assert all(dominates(sp.lam, closure.lam) for sp in above)


def test_closure_move_set_identity():
    # J of the closure is the disjoint union of I(lam) and J(lam)
    for cp in both_types(18):
        bs = block_structure(cp)
        closure_J = block_structure(special_closure(cp)).J_set
        assert closure_J == bs.I_set | bs.J_set


# --------------------------------------------------------- special pieces

def test_special_piece_fixture():
    piece = special_piece(B("5,3,1"))
    assert [(sorted(J), mu.lam.to_text()) for J, mu in piece] == [
        ([], "5,3,1"),
        ([4], "4^2,1"),
    ]
    piece = special_piece(B("9,7,5,3,1"))
    assert [mu.lam.to_text() for _, mu in piece] == [
        "9,7,5,3,1",
        "9,7,4^2,1",
        "8^2,5,3,1",
        "8^2,4^2,1",
    ]


def test_piece_cube_size_and_order():
    for cp in both_types(16):
        piece = special_piece(cp)
        J_all = block_structure(cp).J_set
        assert len(piece) == 2 ** len(J_all)
        assert len({mu for _, mu in piece}) == len(piece)
        members = dict((J, mu) for J, mu in piece)
        for J1, J2 in itertools.product(members, repeat=2):
            # dominance inside the cube is exactly reverse inclusion
            expected = J1 <= J2
            assert dominates(members[J1].lam, members[J2].lam) == expected


def test_pieces_partition_all_classes():
    for N, s in ((15, 1), (16, -1)):
        gt = GroupType(s, N)
        classes = enumerate_classes(gt)
        seen = {}
        for sp in (c for c in classes if is_special(c)):
            for J, mu in special_piece(sp):
                assert mu not in seen, "pieces must be disjoint"
                seen[mu] = sp
        assert set(seen) == set(classes)
        for mu, sp in seen.items():
            assert special_closure(mu) == sp


# --------------------------------------------------------------- collapse

def test_collapse_fixture():
    gtC = GroupType(-1, 8)
    assert collapse(Partition.from_text("5,2,1"), gtC) == (4, 2, 2)
    assert collapse(Partition.from_text("3,2,2,1"), gtC) == (2, 2, 2, 2)
    assert collapse(Partition.from_text("3,3,2"), gtC) == (3, 3, 2)
    assert collapse(Partition.from_text("5,3"), gtC) == (4, 4)
    gtB = GroupType(1, 9)
    assert collapse(Partition.from_text("4,4,1"), gtB) == (4, 4, 1)
    assert collapse(Partition.from_text("6,2,1"), gtB) == (5, 3, 1)
    assert collapse(Partition.from_text("2,2,2,2,1"), gtB) == (2, 2, 2, 2, 1)


def test_collapse_is_dominance_maximum():
    for N, s in ((11, 1), (12, -1)):
        gt = GroupType(s, N)
        valid = [cp.lam for cp in enumerate_classes(gt)]
        for mu in partitions_of(N):
            got = collapse(mu, gt)
            assert classify(got, gt)  # well-typed
            assert dominates(mu, got)
            for nu in valid:
                if dominates(mu, nu):
                    assert dominates(got, nu)


# ----------------------------------------------------------------- duality

DUAL_FIXTURES = [
    ("B", "5,3,1", "2,2,2,2"),
    ("B", "4,4,1", "2,2,2,2"),
    ("C", "2,2,2,2", "5,3,1"),
    ("C", "2,2", "3,1,1"),
    ("C", "2,1,1", "3,1,1"),
    ("B", "3,1,1", "2,2"),
    ("B", "2,2,1", "2,2"),
    ("C", "6", "1^7"),
    ("C", "1^6", "7"),
    ("B", "9", "1^8"),
    ("B", "1^9", "8"),
    ("B", "7,5,3,1,1", "4,4,2,2,2,2"),
]


@pytest.mark.parametrize("letter,text,expect", DUAL_FIXTURES)
def test_dual_fixtures(letter, text, expect):
    cp = (B if letter == "B" else C)(text)
    assert bvls_dual(cp).lam == Partition.from_text(expect)


def test_dual_lands_on_specials():
    for cp in both_types(18):
        assert is_special(bvls_dual(cp))


def test_dual_twice_is_special_closure():
    for cp in both_types(18):
        assert bvls_dual(bvls_dual(cp)) == special_closure(cp)


def test_dual_fibers_are_special_pieces():
    for N, s in ((15, 1), (14, -1)):
        gt = GroupType(s, N)
        fibers = {}
        for cp in enumerate_classes(gt):
            fibers.setdefault(bvls_dual(cp), set()).add(cp)
        for image, fiber in fibers.items():
            top = bvls_dual(image)
            assert fiber == {mu for _, mu in special_piece(top)}


def test_dual_image_is_all_specials():
    for N, s in ((15, 1), (16, -1)):
        gt = GroupType(s, N)
        image = {bvls_dual(cp) for cp in enumerate_classes(gt)}
        other = GroupType(-s, N - s)
        assert image == {c for c in enumerate_classes(other) if is_special(c)}


def test_dual_reverses_dominance():
    for N, s in ((11, 1), (12, -1)):
        classes = enumerate_classes(GroupType(s, N))
        for a, b in itertools.combinations(classes, 2):
            if dominates(a.lam, b.lam):
                assert dominates(bvls_dual(b).lam, bvls_dual(a).lam)
            if dominates(b.lam, a.lam):
                assert dominates(bvls_dual(a).lam, bvls_dual(b).lam)
