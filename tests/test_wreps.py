import math
from collections import Counter
from fractions import Fraction

import pytest

from upkit.errors import BoundExceeded
from upkit.partitions import Partition, partitions_of, union
from upkit.wreps import (
    Bipartition,
    bipartitions_of,
    dim_bipartition,
    dim_partition,
    e_family,
    e_rep,
    induce_mult,
    induce_table,
    invariant_dim,
    is_weakly_s_spherical,
    lr_mult,
    oracle_mult,
    pieri,
    sgn_hom_dim,
    _inner,
    _sym_table,
    _wn_classes,
    _wn_table,
    _zcyc,
    _zwn,
)


def P(text):
    return Partition.from_text(text)


def bip(text):
    return Bipartition.from_text(text)


def sym_induce(mu, nu, lam):
    """<ind V_mu x V_nu, V_lam> by a raw character sum over S_a x S_b."""
    mu, nu, lam = Partition(mu), Partition(nu), Partition(lam)
    a, b = mu.size, nu.size
    ta, tb, tn = _sym_table(a), _sym_table(b), _sym_table(a + b)
    acc = Fraction(0)
    for r1 in partitions_of(a):
        for r2 in partitions_of(b):
            acc += Fraction(
                ta[mu][r1] * tb[nu][r2] * tn[lam][union(r1, r2)],
                _zcyc(r1) * _zcyc(r2),
            )
    assert acc.denominator == 1
    return acc.numerator


def ind_triv_sm(pi, m):
    """ind_{W_n x S_m}^{W_{n+m}} pi x triv, using ind_{S_m}^{W_m} triv."""
    if isinstance(pi, Bipartition):
        pi = [pi]
    out = Counter()
    for bp, mult in Counter(pi).items():
        for i in range(m + 1):
            for t, k in induce_table(bp, Bipartition((i,), (m - i,))).items():
                out[t] += mult * k
    return out


# ----------------------------------------------------------- the oracle itself

@pytest.mark.parametrize("k", range(7))
def test_sym_table_is_a_character_table(k):
    table = _sym_table(k)
    rhos = tuple(partitions_of(k))
    identity = Partition([1] * k)
    assert len(table) == len(rhos)
    # rows are orthonormal class functions with positive degrees
    for l1, f in table.items():
        assert f[identity] == dim_partition(l1) > 0
        for l2, g in table.items():
            assert _inner(f, g, rhos) == (1 if l1 == l2 else 0)
    assert sum(f[identity] ** 2 for f in table.values()) == math.factorial(k)


def test_sym_table_known_rows():
    table = _sym_table(4)
    for rho in partitions_of(4):
        assert table[P("4")][rho] == 1
        assert table[P("1^4")][rho] == (-1) ** (4 - len(rho))
    # the standard representation: fixed points minus one
    std = table[P("3,1")]
    assert {rho: std[rho] for rho in partitions_of(4)} == {
        (4,): -1, (3, 1): 0, (2, 2): -1, (2, 1, 1): 1, (1, 1, 1, 1): 3,
    }


@pytest.mark.parametrize("n", range(5))
def test_wn_table_is_a_character_table(n):
    table = _wn_table(n)
    classes = _wn_classes(n)
    identity = (Partition([1] * n), Partition())
    order = 2 ** n * math.factorial(n)
    assert len(table) == len(classes)
    for b1, f in table.items():
        assert f[identity] == dim_bipartition(b1) > 0
        for b2, g in table.items():
            ip = sum(
                (Fraction(f[c] * g[c], _zwn(*c)) for c in classes), Fraction(0)
            )
            assert ip == (1 if b1 == b2 else 0)
    assert sum(f[identity] ** 2 for f in table.values()) == order


def test_wn_table_one_dimensionals():
    # trivial, sign-product, Coxeter sign (the determinant) on W_3
    table = _wn_table(3)
    for (rp, rm), v in table[bip("[3|]")].items():
        assert v == 1
    for (rp, rm), v in table[bip("[|3]")].items():
        assert v == (-1) ** len(rm)
    for (rp, rm), v in table[bip("[|1,1,1]")].items():
        assert v == (-1) ** (3 - len(rp))


def test_oracle_matches_induce_grid_small():
    checked = 0
    for n in range(5):
        for i in range(n + 1):
            for x in bipartitions_of(i):
                for y in bipartitions_of(n - i):
                    assert oracle_mult(x, y) == induce_table(x, y), (x, y)
                    checked += 1
    assert checked == 164


def test_oracle_trivial_and_sign():
    for i in range(4):
        n = 4
        triv = oracle_mult(Bipartition((i,)), Bipartition((n - i,)))
        assert triv[bip("[4|]")] == 1
        sgn = oracle_mult(
            Bipartition((), [1] * i), Bipartition((), [1] * (n - i))
        )
        assert sgn[bip("[|1,1,1,1]")] == 1


def test_oracle_bound():
    with pytest.raises(BoundExceeded):
        oracle_mult(bip("[4|]"), bip("[3|]"))


# ----------------------------------------------------------- bipartitions

def test_bipartition_basics():
    x = Bipartition((5, 3), (1, 1))
    assert x.alpha == P("5,3") and x.beta == P("1,1")
    assert x.n == 10
    assert x.to_text() == "[5,3|1,1]"
    assert Bipartition.from_text("[5,3|1,1]") == x
    assert Bipartition.from_text("5,3|1^2") == x
    assert bip("[|]") == Bipartition() == Bipartition((), ())
    assert bip("[3|]").beta == Partition()
    assert bip("[|1]").n == 1
    # storage is canonical, so unsorted input compares equal
    assert Bipartition((3, 5), (1, 1)) == x
    assert hash(Bipartition((3, 5), (1, 1))) == hash(x)


def test_bipartition_text_errors():
    with pytest.raises(ValueError):
        Bipartition.from_text("[5,3]")


@pytest.mark.parametrize(
    "n,count", [(0, 1), (1, 2), (2, 5), (3, 10), (4, 20), (5, 36)]
)
def test_bipartitions_of_counts(n, count):
    reps = list(bipartitions_of(n))
    assert len(reps) == len(set(reps)) == count
    assert all(bp.n == n for bp in reps)
    assert sum(dim_bipartition(bp) ** 2 for bp in reps) == 2 ** n * math.factorial(n)


# ----------------------------------------------------------- pieri

def test_pieri_fixed():
    assert set(pieri(P("2"), 1)) == {P("3"), P("2,1")}
    assert set(pieri(Partition(), 4)) == {P("4")}
    assert set(pieri(Partition(), 0)) == {Partition()}
    assert set(pieri(P("2,1"), 0)) == {P("2,1")}
    # frozen from the S_5 brute force in sym_induce
    assert set(pieri(P("2,1"), 2)) == {P("4,1"), P("3,2"), P("3,1,1"), P("2,2,1")}


def test_pieri_against_oracle():
    for lam in [P("2,1"), P("3,1"), P("2,2"), P("1,1,1")]:
        for k in range(3):
            got = {mu: 1 for mu in pieri(lam, k)}
            want = {
                mu: sym_induce(lam, (k,), mu)
                for mu in partitions_of(lam.size + k)
                if sym_induce(lam, (k,), mu)
            }
            assert got == want, (lam, k)


def test_pieri_shapes_are_horizontal_strips():
    for lam in partitions_of(5):
        for k in range(4):
            seen = pieri(lam, k)
            assert len(seen) == len(set(seen))
            for mu in seen:
                assert mu.size == lam.size + k
                assert len(mu) <= len(lam) + 1
                for i in range(len(mu)):
                    old = lam[i] if i < len(lam) else 0
                    assert old <= mu[i]
                    if i > 0:
                        assert mu[i] <= lam[i - 1]


def test_pieri_negative_k():
    with pytest.raises(ValueError):
        pieri(P("2"), -1)


# ----------------------------------------------------------- littlewood-richardson

def test_lr_fixed():
    assert lr_mult(P("1"), P("1"), P("2")) == 1
    assert lr_mult(P("1"), P("1"), P("1,1")) == 1
    # frozen from the S_6 character inner product in sym_induce
    assert lr_mult(P("2,1"), P("2,1"), P("3,2,1")) == 2


def test_lr_zero_cases():
    assert lr_mult(P("2"), P("1"), P("2")) == 0  # sizes mismatch
    assert lr_mult(P("2,2"), P("1"), P("3,1,1")) == 0  # mu not in lam
    assert lr_mult(P("3"), P("1"), P("2,2")) == 0


def test_lr_bound():
    with pytest.raises(BoundExceeded):
        lr_mult(P("13"), P("12"), P("25"))


def test_lr_one_row_is_pieri():
    for lam in partitions_of(4):
        for k in range(3):
            strips = set(pieri(lam, k))
            for mu in partitions_of(lam.size + k):
                assert lr_mult(lam, (k,), mu) == (1 if mu in strips else 0)


def test_lr_against_oracle_and_symmetry():
    for a in range(5):
        for mu in partitions_of(a):
            for nu in partitions_of(5 - a):
                for lam in partitions_of(5):
                    got = lr_mult(mu, nu, lam)
                    assert got == sym_induce(mu, nu, lam), (mu, nu, lam)
                    assert got == lr_mult(nu, mu, lam)


# ----------------------------------------------------------- induce_mult

def test_induce_block_mismatch_is_zero():
    x, y = bip("[1|1]"), bip("[2|]")
    assert induce_mult(x, y, bip("[2|2]")) == 0
    assert induce_mult(x, y, bip("[4|]")) == 0


def test_induce_h_i_decomposition():
    # ind triv x triv from W_i x W_{n-i} stacks E^1_0 .. E^1_{min(i, n-i)}
    for n in range(1, 7):
        for i in range(n + 1):
            table = induce_table(Bipartition((i,)), Bipartition((n - i,)))
            assert table == {
                e_rep(1, n, j): 1 for j in range(min(i, n - i) + 1)
            }


def test_induce_sgn_times_triv_is_irreducible():
    for n in range(1, 7):
        for i in range(n + 1):
            table = induce_table(Bipartition((), (i,)), Bipartition((n - i,)))
            assert table == {e_rep(-1, n, i): 1}


def _induce_table_by_scan(x, y):
    # the definition induce_table refines: scan every target of degree n
    out = {}
    for target in bipartitions_of(x.n + y.n):
        m = induce_mult(x, y, target)
        if m:
            out[target] = m
    return out


def test_induce_table_matches_full_scan():
    # past the oracle's n <= 5 in tier-1: same targets, same order
    for n in range(7):
        for i in range(n + 1):
            for x in bipartitions_of(i):
                for y in bipartitions_of(n - i):
                    table = list(induce_table(x, y).items())
                    assert table == list(_induce_table_by_scan(x, y).items()), (x, y)


def test_induce_dimension_bookkeeping():
    for n in range(5):
        for i in range(n + 1):
            for x in bipartitions_of(i):
                for y in bipartitions_of(n - i):
                    table = induce_table(x, y)
                    total = sum(m * dim_bipartition(t) for t, m in table.items())
                    index = math.comb(n, i)
                    assert total == index * dim_bipartition(x) * dim_bipartition(y)


# ----------------------------------------------------------- dimensions

def test_dim_partition_values():
    assert dim_partition(Partition()) == 1
    assert dim_partition(P("5")) == 1
    assert dim_partition(P("1^5")) == 1
    assert dim_partition(P("2,1")) == 2
    assert dim_partition(P("3,1")) == 3
    assert dim_partition(P("2,2")) == 2
    assert dim_partition(P("3,2")) == 5
    assert dim_partition(P("3,2,1")) == 16


def test_dim_bipartition_values():
    assert dim_bipartition(bip("[2|]")) == 1
    assert dim_bipartition(bip("[1|1]")) == 2
    assert dim_bipartition(bip("[2,1|1]")) == 8  # C(4,3) * 2 * 1


# ----------------------------------------------------------- the E^s family

def test_e_family_members():
    assert e_rep(1, 5, 0) == bip("[5|]") == e_rep(-1, 5, 0)
    assert e_rep(1, 5, 2) == bip("[3,2|]")
    assert e_rep(1, 5, 3) == e_rep(1, 5, 2)
    assert e_rep(-1, 5, 5) == bip("[|5]")
    assert e_rep(-1, 5, 2) == bip("[3|2]")


@pytest.mark.parametrize("n", range(7))
def test_e_family_counts(n):
    plus = e_family(1, n)
    minus = e_family(-1, n)
    assert len(plus) == len(set(plus)) == n // 2 + 1
    assert len(minus) == len(set(minus)) == n + 1
    assert plus[0] == minus[0] == Bipartition((n,))


def test_e_rep_errors():
    with pytest.raises(ValueError):
        e_rep(0, 4, 1)
    with pytest.raises(ValueError):
        e_rep(1, 4, 5)
    with pytest.raises(ValueError):
        e_family(2, 4)


# ----------------------------------------------------------- invariants and sphericity

def test_invariant_dim_trivial_rep():
    for n in range(1, 6):
        triv = Bipartition((n,))
        for i in range(n + 1):
            assert invariant_dim(triv, i) == 1


def test_invariant_dim_regular_w2():
    regular = {bp: dim_bipartition(bp) for bp in bipartitions_of(2)}
    assert invariant_dim(regular, 1) == 2
    # W_{2,0} and W_{2,2} are all of W_2, leaving only the trivial line
    assert invariant_dim(regular, 0) == 1
    assert invariant_dim(regular, 2) == 1


def test_sign_rep_has_no_sgn_homs():
    for n in range(2, 6):
        sign = Bipartition((), [1] * n)
        for i in range(n + 1):
            assert sgn_hom_dim(sign, i) == 0
        assert not is_weakly_s_spherical(sign, 1)
        assert not is_weakly_s_spherical(sign, -1)


def test_invariant_dims_against_oracle():
    # dim pi^{W_{n,i}} = <H_i, pi> and the sgn-hom dim = <E^{-1}_i, pi>,
    # both read off oracle tables of the inducing pairs
    for n in range(1, 5):
        for i in range(n + 1):
            h_i = oracle_mult(Bipartition((i,)), Bipartition((n - i,)))
            s_i = oracle_mult(Bipartition((), (i,)), Bipartition((n - i,)))
            for bp in bipartitions_of(n):
                assert invariant_dim(bp, i) == h_i.get(bp, 0), (bp, i)
                assert sgn_hom_dim(bp, i) == s_i.get(bp, 0), (bp, i)


def test_sphericity_shapes():
    assert is_weakly_s_spherical(bip("[3|]"), 1)
    assert is_weakly_s_spherical(bip("[3|]"), -1)
    assert not is_weakly_s_spherical(bip("[1,1,1|]"), 1)
    assert is_weakly_s_spherical(bip("[1,1|]"), 1)  # E^1_1 at n = 2
    assert is_weakly_s_spherical(bip("[4|1]"), -1)
    assert not is_weakly_s_spherical(bip("[4|1]"), 1)
    assert not is_weakly_s_spherical(bip("[3,1|1]"), -1)
    assert not is_weakly_s_spherical(bip("[2|2,1]"), -1)


def test_representation_argument_forms():
    triv = Bipartition((3,))
    assert invariant_dim([triv, triv], 1) == 2
    assert invariant_dim(Counter({triv: 2}), 1) == 2
    assert invariant_dim({triv: 0}, 0) == 0  # zero multiplicities drop out
    assert not is_weakly_s_spherical({}, 1)
    assert sgn_hom_dim([], 0) == 0
    with pytest.raises(ValueError):
        invariant_dim([triv, Bipartition((2,))], 1)
    with pytest.raises(ValueError):
        invariant_dim({triv: -1}, 1)
    with pytest.raises(ValueError):
        invariant_dim([P("3")], 1)
    with pytest.raises(ValueError):
        invariant_dim(triv, 4)
    with pytest.raises(ValueError):
        is_weakly_s_spherical(triv, 2)


# ----------------------------------------------------------- the induction lemma

def test_weak_sphericity_survives_sm_induction():
    # pi weakly s-spherical iff ind_{W_n x S_m} pi x triv is, n <= 5, m <= 3
    for n in range(6):
        for bp in bipartitions_of(n):
            flags = {s: is_weakly_s_spherical(bp, s) for s in (1, -1)}
            for m in range(4):
                induced = ind_triv_sm(bp, m)
                for s in (1, -1):
                    assert is_weakly_s_spherical(induced, s) == flags[s], (bp, m, s)


def test_ind_triv_sm_dimensions():
    # sanity for the helper: induction multiplies dimension by the index
    bp = bip("[2|1]")
    for m in range(4):
        induced = ind_triv_sm(bp, m)
        total = sum(k * dim_bipartition(t) for t, k in induced.items())
        index = (2 ** (bp.n + m) * math.factorial(bp.n + m)) // (
            2 ** bp.n * math.factorial(bp.n) * math.factorial(m)
        )
        assert total == index * dim_bipartition(bp)
