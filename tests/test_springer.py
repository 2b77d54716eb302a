import pytest

from upkit.components import CharFn, canonical_subgroup, char_group, full_group
from upkit.errors import BadParity, NotSpringerType
from upkit.partitions import GroupType, Partition, classify, enumerate_classes
from upkit.springer import (
    GreenTableau,
    _defects,
    defect,
    delta_tau,
    gamma_seq,
    green_tableaux,
    is_springer_type,
    lambda_seq,
    leq_dominance,
    p_set,
    springer_bipartition,
    springer_data,
    weakly_spherical,
    weakly_spherical_general,
)
from upkit.wreps import Bipartition, e_family


def B(text):
    lam = Partition.from_text(text)
    return classify(lam, GroupType(1, lam.size))


def C(text):
    lam = Partition.from_text(text)
    return classify(lam, GroupType(-1, lam.size))


def sd(cp, *vals):
    return springer_data(cp, CharFn(cp, frozenset(vals)))


def bip(text):
    return Bipartition.from_text(text)


def pure_classes(max_n):
    for N in range(1, max_n + 1):
        s = 1 if N % 2 else -1
        for cp in enumerate_classes(GroupType(s, N)):
            if not cp.bp:
                yield cp


# ------------------------------------------------------- index apparatus

def test_index_data_531():
    d = sd(B("5,3,1"), 1, 3)
    assert d.epsbar == (1, 1, -1)
    assert d.e_plus == (1, 2) and d.e_minus == (3,)
    assert d.X == (1, 2, 3) and d.X_eps == (2,)
    assert d.ebar(0) == -1 and d.ebar(2) == 1
    assert d.X_plus == (2,) and d.X_minus == (1, 3)
    assert d.X_group == (2,)


def test_smax_smin_examples():
    d = sd(B("5"))
    assert (set(d.S_max), set(d.S_min)) == (set(), {5})
    d = sd(C("2"))
    assert (set(d.S_max), set(d.S_min)) == ({2}, set())
    d = sd(B("5,3,1"))
    assert (set(d.S_max), set(d.S_min)) == ({3}, {1, 5})
    # s=-1 grounded class {2,4}: no S_min exclusion (theta_max != lam_ell)
    d = sd(C("4,2,2"))
    assert (set(d.S_max), set(d.S_min)) == ({4}, {2})
    # s=+1 exclusion also fires when lam_1 is not multiplicity-free
    d = sd(B("3,3,1"))
    assert (set(d.S_max), set(d.S_min)) == (set(), {1})


def test_springer_data_validation():
    cp, other = B("5,3,1"), B("7,1,1")
    with pytest.raises(ValueError):
        springer_data(cp, CharFn(other, frozenset()))
    mixed = B("3,2,2")
    with pytest.raises(BadParity):
        springer_data(mixed, CharFn(mixed, frozenset()))


def test_xeps_matches_ebar_description():
    for cp in pure_classes(14):
        for eps in char_group(cp):
            d = springer_data(cp, eps)
            alt = tuple(
                i for i in range(1, d.ell + 1) if d.ebar(i) == d.ebar(i - 1)
            )
            assert d.X_eps == alt


def test_x_group_is_smax_slice():
    for cp in pure_classes(18):
        d = sd(cp)
        want = tuple(i for i in d.X if d.lam[i - 1] in d.S_max)
        assert d.X_group == want


# ----------------------------------------------------------------- defect

def test_defect_examples():
    d = sd(B("5"))
    assert defect(d, 0) == 0 and defect(d, 1) == 0
    assert defect(sd(C("2"), 2), 0) == 1
    d = sd(B("5,3,1"), 1, 3)
    assert [defect(d, i) for i in range(4)] == [0, 0, -1, 0]
    assert defect(sd(B("5,3,1"), 1, 5), 0) == -2


def test_defects_match_defect():
    for cp in pure_classes(20):
        for eps in full_group(cp):
            d = springer_data(cp, eps)
            assert _defects(d) == tuple(defect(d, i) for i in range(d.ell + 1))


def test_defect_index_range():
    d = sd(B("5,3,1"))
    with pytest.raises(ValueError):
        defect(d, -1)
    with pytest.raises(ValueError):
        defect(d, 4)


def test_springer_type():
    assert is_springer_type(sd(B("5,3,1")))
    assert is_springer_type(sd(B("5,3,1"), 1, 3))
    assert not is_springer_type(sd(B("5,3,1"), 1, 5))
    assert not is_springer_type(sd(C("2"), 2))


def test_canonical_subgroup_is_springer_type():
    for cp in pure_classes(18):
        for eps in canonical_subgroup(cp):
            assert is_springer_type(springer_data(cp, eps))


# ------------------------------------------------------------------ gamma

def test_gamma_531():
    assert gamma_seq(sd(B("5,3,1"))) == (2, 2, 0)
    assert gamma_seq(sd(B("5,3,1"), 1, 3)) == (2, 2, 0)
    assert gamma_seq(sd(B("5,3,1"), 3, 5)) == (4, 0, 0)


def test_gamma_validation():
    with pytest.raises(NotSpringerType):
        gamma_seq(sd(B("5,3,1"), 1, 5))
    # {2,4} meets S_0 = {4} once: Springer-type yet outside P(lam)_0,
    # where gamma is undefined
    with pytest.raises(ValueError):
        gamma_seq(sd(C("4,2,2"), 2, 4))


# ------------------------------------------------- the bipartition sigma

@pytest.mark.parametrize("n", range(7))
def test_bipartition_regular_family(n):
    cp = B(f"{2 * n + 1}")
    assert springer_bipartition(sd(cp)) == Bipartition(
        Partition([n]), Partition([])
    )


@pytest.mark.parametrize("n", range(7))
def test_bipartition_minimal_family(n):
    cp = B(",".join("1" * (2 * n + 1)))
    assert springer_bipartition(sd(cp)) == Bipartition(
        Partition([]), Partition([1] * n)
    )


def test_bipartition_small_cases():
    assert springer_bipartition(sd(C("2"))) == bip("[1|]")
    assert springer_bipartition(sd(B("5,3,1"))) == bip("[2|2]")
    assert springer_bipartition(sd(B("5,3,1"), 1, 3)) == bip("[2,2|]")
    assert springer_bipartition(sd(B("5,3,1"), 3, 5)) == bip("[|4]")
    assert springer_bipartition(sd(B("3,1,1"))) == bip("[1|1]")
    assert springer_bipartition(sd(B("3,1,1"), 1)) == bip("[1,1|]")


def test_bipartition_not_springer_raises():
    with pytest.raises(NotSpringerType):
        springer_bipartition(sd(C("2"), 2))


def test_bipartition_sums_and_injectivity():
    # sigma is injective across orbits of a fixed group; sizes always add
    # to n (the MalformedOutput guards double as the sum check here)
    for n in range(9):
        for s in (1, -1):
            gt = GroupType(s, 2 * n + 1 if s == 1 else 2 * n)
            seen = set()
            for cp in enumerate_classes(gt):
                if cp.bp:
                    continue
                for eps in char_group(cp):
                    d = springer_data(cp, eps)
                    if not is_springer_type(d):
                        continue
                    x = springer_bipartition(d)
                    assert x.n == n
                    assert x not in seen
                    seen.add(x)


# --------------------------------------------------------------- tableaux

def test_tableau_single_row():
    for n in (1, 2, 5):
        cp = B(f"{2 * n + 1}")
        ts = green_tableaux(sd(cp), *delta_tau(cp.gt))
        assert [t.rows for t in ts] == [((1,),)]
        assert ts[0].bipartition == Bipartition(Partition([n]), Partition([]))


def test_tableau_531():
    d = sd(B("5,3,1"), 1, 3)
    (t,) = green_tableaux(d, 5, 1)
    assert t.rows == ((1, 3), (2,))
    assert t.params == (5, 1)
    assert (t.alpha, t.beta) == (Partition([2, 2]), Partition([]))
    assert t.to_json() == {"rows": [[1, 3], [2]], "alpha": [2, 2], "beta": []}


def test_tableau_branching():
    # both signs qualify at the second row start; the fork is the only
    # source of multiple tableaux, and both land on the same bipartition
    d = sd(B("5,3,1"), 3, 5)
    ts = green_tableaux(d, *delta_tau(d.base.gt))
    assert {t.rows for t in ts} == {((2,), (3,), (1,)), ((2,), (1, 3))}
    assert {t.bipartition for t in ts} == {bip("[|4]")}


def test_tableau_validation():
    d = sd(B("5,3,1"))
    with pytest.raises(ValueError):
        green_tableaux(d, 0, 1)
    with pytest.raises(ValueError):
        green_tableaux(d, 5, 0)
    with pytest.raises(NotSpringerType):
        green_tableaux(sd(B("5,3,1"), 1, 5), 5, 1)


def test_tableau_invariants():
    # rows strictly increase with alternating ebar, stay maximal, and the
    # first row is always the complement of X_eps at the group's order
    for cp in pure_classes(14):
        dt = delta_tau(cp.gt)
        for eps in char_group(cp):
            d = springer_data(cp, eps)
            if not is_springer_type(d):
                continue
            for t in green_tableaux(d, *dt):
                assert isinstance(t, GreenTableau)
                covered = [i for row in t.rows for i in row]
                assert sorted(covered) == list(range(1, d.ell + 1))
                for row in t.rows:
                    assert all(a < b for a, b in zip(row, row[1:]))
                    assert all(
                        d.ebar(a) == -d.ebar(b) for a, b in zip(row, row[1:])
                    )
                first = set(t.rows[0])
                rest = tuple(
                    sorted(set(range(1, d.ell + 1)) - first)
                )
                assert rest == d.X_eps


# ------------------------------------------------------------------ p_set

def test_p_set_examples():
    for n in (1, 3, 6):
        cp = B(f"{2 * n + 1}")
        assert p_set(sd(cp), *delta_tau(cp.gt)) == {
            Bipartition(Partition([n]), Partition([]))
        }
    cp = B("5,3,1")
    dt = delta_tau(cp.gt)
    fam = set(e_family(1, 4))
    assert p_set(sd(cp), *dt) & fam
    assert not p_set(sd(cp, 3, 5), *dt) & fam
    assert p_set(sd(cp, 3, 5), *dt) == {bip("[|4]")}
    assert p_set(sd(cp, 1, 5), *dt) == set()


def test_p_set_pairwise_incomparable():
    for cp in pure_classes(14):
        dt = delta_tau(cp.gt)
        for eps in char_group(cp):
            ps = p_set(springer_data(cp, eps), *dt)
            for x in ps:
                for y in ps:
                    if x != y:
                        assert not leq_dominance(x, y, *dt)


# -------------------------------------------------------------- the order

def test_lambda_seq():
    assert lambda_seq(bip("[|]"), 2, 1, 4) == (2, 1, 0, 0)
    assert lambda_seq(bip("[2,2|]"), 5, 1, 6) == (7, 6, 3, 2, 1, 0)
    long = lambda_seq(bip("[2,2|]"), 5, 1, 12)
    assert long[:6] == (7, 6, 3, 2, 1, 0)
    with pytest.raises(ValueError):
        lambda_seq(bip("[|]"), 2, 1, 0)


def test_leq_dominance():
    assert leq_dominance(bip("[2,2|]"), bip("[2,2|]"), 5, 1)
    assert leq_dominance(bip("[2,2|]"), bip("[3,1|]"), 5, 1)
    assert not leq_dominance(bip("[3,1|]"), bip("[2,2|]"), 5, 1)
    with pytest.raises(ValueError):
        leq_dominance(bip("[1|]"), bip("[1,1|]"), 5, 1)


@pytest.mark.parametrize("s", [1, -1])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_e_family_ordering(s, n):
    # within the E family the group's own order is reversed: j <= j' iff
    # Lambda(E_{j'}) <= Lambda(E_j)
    gt = GroupType(s, 2 * n + 1 if s == 1 else 2 * n)
    fam = e_family(s, n)
    dt = delta_tau(gt)
    for j, x in enumerate(fam):
        for k, y in enumerate(fam):
            assert leq_dominance(y, x, *dt) == (j <= k)


def test_delta_tau():
    assert delta_tau(GroupType(1, 9)) == (5, 1)
    assert delta_tau(GroupType(-1, 8)) == (5, 9)


# -------------------------------------------------------- weak sphericity

def test_weakly_spherical_531():
    cp = B("5,3,1")
    verdicts = {
        "(+++)": True,
        "(--+)": True,
        "(-+-)": False,
        "(+--)": False,
    }
    for text, want in verdicts.items():
        eps = CharFn.from_text(cp, text)
        assert weakly_spherical(springer_data(cp, eps)) is want


def test_weakly_spherical_regular():
    for n in (1, 4, 7):
        cp = B(f"{2 * n + 1}")
        assert weakly_spherical(sd(cp))
    assert weakly_spherical(sd(C("2")))


def test_weak_sphericity_is_canonical_membership():
    # the central equivalence: eps is weakly spherical precisely when it
    # lies in the canonical subgroup, with non-Springer-type characters
    # (always outside it) answering False
    for cp in pure_classes(18):
        adag = set(canonical_subgroup(cp))
        for eps in char_group(cp):
            d = springer_data(cp, eps)
            assert weakly_spherical(d) == (eps in adag)


def test_membership_closed_form():
    # eps in Adag  <=>  ebar(i_j) = s(-1)^(j-1) along X_eps
    for cp in pure_classes(14):
        s = cp.gt.s
        adag = set(canonical_subgroup(cp))
        for eps in char_group(cp):
            d = springer_data(cp, eps)
            closed = all(
                d.ebar(ij) == s * (-1) ** (j - 1)
                for j, ij in enumerate(d.X_eps, 1)
            )
            assert closed == (eps in adag)


def test_zero_tail_criterion():
    # a vanishing gamma_i at i in X with every earlier X_eps member inside
    # X^s forces membership in the canonical subgroup
    for cp in pure_classes(14):
        adag = set(canonical_subgroup(cp))
        for eps in char_group(cp):
            d = springer_data(cp, eps)
            if not is_springer_type(d):
                continue
            gam = gamma_seq(d)
            xg = set(d.X_group)
            for i in d.X:
                if gam[i - 1] == 0 and all(
                    a in xg for a in d.X_eps if a < i
                ):
                    assert eps in adag


# -------------------------------------------------------- arbitrary parity

def test_general_matches_good_parity_core():
    big, small = B("5,4,4,3,1"), B("5,3,1")
    for sub in [frozenset(), frozenset({1, 3}), frozenset({1, 5}),
                frozenset({3, 5})]:
        want = weakly_spherical(springer_data(small, CharFn(small, sub)))
        assert weakly_spherical_general(big, CharFn(big, sub)) == want


def test_general_examples():
    cp = C("10,10,4,4,2")
    assert weakly_spherical_general(cp, CharFn(cp, frozenset()))
    # pure bad parity reduces to the empty group, which is spherical
    cp = C("3,3,1,1")
    assert weakly_spherical_general(cp, CharFn(cp, frozenset()))


def test_general_agrees_on_good_parity():
    for cp in pure_classes(10):
        for eps in char_group(cp):
            assert weakly_spherical_general(cp, eps) == weakly_spherical(
                springer_data(cp, eps)
            )


def test_general_validation():
    cp, other = C("10,10,4,4,2"), C("4,2,2")
    with pytest.raises(ValueError):
        weakly_spherical_general(cp, CharFn(other, frozenset()))
