import contextlib
import io

import pytest

import upkit.springer
from upkit.cli import main
from upkit.components import (
    CharFn,
    _s_mask,
    block_structure,
    canonical_subgroup,
    char_group,
    full_group,
)
from upkit.errors import BadParity, MalformedOutput, NotSpringerType
from upkit.partitions import GroupType, Partition, classify, enumerate_classes
from upkit.springer import (
    GreenTableau,
    SpringerIndexData,
    _class_index,
    _defects,
    _gamma_core,
    _zero_gate,
    character_sweep,
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
    x_eps,
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


def x_group(d):
    """X^s: the members of X of the parity that the group's sign s picks,
    even for s = +1 and odd for s = -1."""
    return tuple(i for i in d.X if i % 2 == (d.s == -1))


# ------------------------------------------------------- index apparatus

def test_index_data_531():
    d = sd(B("5,3,1"), 1, 3)
    assert d.epsbar == (1, 1, -1)
    assert d.e_plus == (1, 2) and d.e_minus == (3,)
    assert d.X == (1, 2, 3) and d.X_eps == (2,)
    assert d.ebar(0) == -1 and d.ebar(2) == 1
    assert x_group(d) == (2,)


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
        assert x_group(d) == want


# ------------------------------------------- reference: per-character path
#
# The index data, gamma and tableaux as they were computed before the
# lam-only half moved into a per-class cache and the tableau walk was
# shared: everything rebuilt per character, the walk through whole rows.


def _ref_springer_data(cp, eps):
    lam = cp.lam
    ind = eps.indicator
    ebar = tuple((-1) ** (ind(lam[i - 1]) + i - 1) for i in range(1, len(lam) + 1))
    first = {}
    for i, p in enumerate(lam, 1):
        first.setdefault(p, i)
    X = tuple(sorted(first.values()))
    X_eps = tuple(i for i in X if ind(lam[i - 1]) != (ind(lam[i - 2]) if i > 1 else 0))
    bs = block_structure(cp)
    smax = {theta[-1] for theta in bs.classes}
    smin = {theta[0] for theta in bs.classes}
    if lam:
        if cp.gt.s == 1:
            smax.discard(lam[0])
        else:
            bottom = bs.classes[0]
            if bottom[-1] == lam[len(lam) - 1] and bottom[-1] in set(cp.S0):
                smin.discard(bottom[-1])
    return SpringerIndexData(
        base=cp,
        eps=eps,
        epsbar=ebar,
        e_plus=tuple(i for i in range(1, len(lam) + 1) if ebar[i - 1] == 1),
        e_minus=tuple(i for i in range(1, len(lam) + 1) if ebar[i - 1] == -1),
        X=X,
        X_eps=X_eps,
        S_max=frozenset(smax),
        S_min=frozenset(smin),
    )


def _ref_defects(d):
    ind = d.eps.indicator
    weight = {}
    for a in d.S_max:
        weight[a] = weight.get(a, 0) + ind(a)
    for a in d.S_min:
        weight[a] = weight.get(a, 0) - ind(a)
    values = sorted(weight, reverse=True)
    total = sum(weight.values())
    out = []
    j = 0
    for hi in ((d.lam[0] + 1 if d.lam else 1), *d.lam):
        while j < len(values) and values[j] >= hi:
            total -= weight[values[j]]
            j += 1
        out.append(total)
    return tuple(out)


def _ref_gamma_seq(d):
    # P(lam)_0 first: outside it gamma is undefined, Springer type or not
    if not d.eps.in_P0:
        raise ValueError("outside P(lam)_0")
    if _ref_defects(d)[0] != 0:
        raise NotSpringerType("not of Springer type")
    s = d.s
    m_off, m_on = (-2, 0) if s == 1 else (1, -1)
    ind = d.eps.indicator
    defects = _ref_defects(d)
    out = []
    for i in range(1, d.ell + 1):
        a = d.lam[i - 1]
        gtilde = a // 2 if i % 2 else (a + 1) // 2
        m = m_on if a in d.S_min else m_off
        g = gtilde - 2 * s * d.ebar(i) * defects[i] + (-1) ** i * ind(a) * m
        if g < 0:
            raise MalformedOutput("negative gamma")
        if g == 0 and defects[i] in (-1, 0, 1):
            _zero_gate(_class_index(d.base), d.eps.subset, i, a, defects[i])
        out.append(g)
    for idx in (d.e_plus, d.e_minus):
        run = [out[i - 1] for i in idx]
        if any(x < y for x, y in zip(run, run[1:])):
            raise MalformedOutput("gamma not weakly decreasing")
    return tuple(out)


def _ref_green_tableaux(d, delta, tau):
    gam = _ref_gamma_seq(d)
    ebar = d.epsbar
    out = []

    def close(rows):
        salpha, sbeta = [], []
        for r in rows:
            (salpha if ebar[r[0] - 1] == 1 else sbeta).append(sum(gam[i - 1] for i in r))
        out.append(
            GreenTableau(
                rows=tuple(tuple(r) for r in rows),
                params=(delta, tau),
                alpha=Partition(salpha),
                beta=Partition(sbeta),
            )
        )

    def expand(rows, pool_p, pool_m, start_sum):
        if not pool_p and not pool_m:
            close(rows)
            return
        starts = []
        for u, mine, other in ((1, pool_p, pool_m), (-1, pool_m, pool_p)):
            if mine and (not other or gam[mine[0] - 1] >= -u * (delta - start_sum)):
                starts.append((u, mine[0]))
        if not starts:
            raise MalformedOutput("no admissible row start")
        for u, k in starts:
            pp, pm = list(pool_p), list(pool_m)
            (pp if u == 1 else pm).remove(k)
            row = [k]
            while True:
                pool = pm if ebar[row[-1] - 1] == 1 else pp
                nxt = next((v for v in pool if v > row[-1]), None)
                if nxt is None:
                    break
                pool.remove(nxt)
                row.append(nxt)
            expand(rows + [row], pp, pm, start_sum + tau * u)

    expand([], list(d.e_plus), list(d.e_minus), 0)
    return out


def _outcome(fn, *args):
    """fn's value, or the type of what it raised."""
    try:
        return fn(*args)
    except (NotSpringerType, ValueError, MalformedOutput) as exc:
        return type(exc)


def _ref_weakly_spherical(d):
    try:
        ps = {t.bipartition for t in _ref_green_tableaux(d, *delta_tau(d.base.gt))}
    except NotSpringerType:
        return False
    return bool(ps & set(e_family(d.s, d.base.gt.n)))


def test_fast_path_matches_per_character_reference():
    # every character of P(lam), outside P(lam)_0 and off Springer type too
    for cp in pure_classes(24):
        dt = delta_tau(cp.gt)
        for eps in full_group(cp):
            d = springer_data(cp, eps)
            ref = _ref_springer_data(cp, eps)
            assert d == ref, (cp, eps)
            assert _outcome(gamma_seq, d) == _outcome(_ref_gamma_seq, ref), (cp, eps)
            assert _outcome(green_tableaux, d, *dt) == _outcome(
                _ref_green_tableaux, ref, *dt
            ), (cp, eps)
            assert _outcome(weakly_spherical, d) == _outcome(
                _ref_weakly_spherical, ref
            ), (cp, eps)


def _bits(indices):
    """The index bitmask of an index tuple, index i at bit i - 1."""
    return sum(1 << (i - 1) for i in indices)


def test_sweep_matches_per_character_path():
    for cp in pure_classes(24):
        dt = delta_tau(cp.gt)
        ci = _class_index(cp)
        chars = char_group(cp)
        swept = list(character_sweep(ci))
        assert [sub for sub, *_ in swept] == [eps.subset for eps in chars], cp
        for eps, (sub, mask, first_rows, pairs, spherical) in zip(chars, swept):
            assert mask == _s_mask(cp, sub), (cp, eps)
            d = springer_data(cp, eps)
            core = _gamma_core(ci, sub, mask)
            if _outcome(gamma_seq, d) is NotSpringerType:
                assert core is None, (cp, eps)
                assert (first_rows, pairs, spherical) == (None, None, False), (cp, eps)
                continue
            plus, gam = core
            assert plus == _bits(d.e_plus), (cp, eps)
            assert gam == gamma_seq(d), (cp, eps)
            # first rows and X_eps are index bitmasks on the sweep's side
            assert x_eps(ci, mask) == _bits(d.X_eps), (cp, eps)
            tabs = green_tableaux(d, *dt)
            assert first_rows == {_bits(t.rows[0]) for t in tabs}, (cp, eps)
            assert len(set(pairs)) == len(pairs)
            assert set(pairs) == {(t.alpha, t.beta) for t in tabs}, (cp, eps)
            assert spherical == weakly_spherical(d), (cp, eps)
    # ell = 0: the one tableau of C 0 has no rows, so its first row is 0
    empty = C("")
    ci = _class_index(empty)
    [(sub, mask, first_rows, pairs, spherical)] = character_sweep(ci)
    assert (sub, mask, first_rows) == (frozenset(), 0, {0})
    assert x_eps(ci, mask) == 0 and springer_data(empty, CharFn(empty, sub)).X_eps == ()
    with pytest.raises(BadParity):
        _class_index(B("3,2,2"))


def _patch_result(monkeypatch, name, edit):
    """Replace upkit.springer.<name> by a wrapper that edits its result."""
    real = getattr(upkit.springer, name)
    monkeypatch.setattr(upkit.springer, name, lambda *args: edit(real(*args)))


def _set_gtilde(ci, i, value):
    """ci with gtilde_i replaced by value, whether eps(lam_i) is 0 or 1.

    i is the first or the second index of its run; every later index of
    the run of i's parity repeats that entry and changes with it.
    """
    runs = list(ci.runs)
    k = max(k for k, run in enumerate(runs) if run[1] <= i)
    b, first, r, w, off, on = runs[k]
    assert i - first in (0, 1) and i - first < r, (i, runs[k])
    at = 2 * (i - first)
    off, on = ((*entry[:at], value, *entry[at + 1:]) for entry in (off, on))
    runs[k] = (b, first, r, w, off, on)
    return ci._replace(runs=tuple(runs))


def _sweep(cp):
    return list(character_sweep(upkit.springer._class_index(cp)))


def test_sweep_raises_on_negative_gamma(monkeypatch):
    _patch_result(monkeypatch, "_class_index", lambda ci: _set_gtilde(ci, 1, -5))
    with pytest.raises(MalformedOutput, match="gamma_1 = -5 < 0"):
        _sweep(B("5,3,1"))


def test_sweep_raises_when_gamma_rises_along_a_sign(monkeypatch):
    # the trivial character of B 5,3,1 has gamma (2,2,0) and e_plus (1,3)
    _patch_result(monkeypatch, "_class_index", lambda ci: _set_gtilde(ci, 3, 9))
    with pytest.raises(MalformedOutput, match="weakly decreasing along e_plus at 3"):
        _sweep(B("5,3,1"))


# C 6,4,4,4,2: the run of 4 covers the indices 2, 3 and 4, so index 3 is
# the second entry of a run, which the kernel fills by repetition.  The
# trivial character, walked first, has gamma (3,2,2,2,1) and e_plus (1,3,5).
def test_sweep_raises_on_negative_gamma_inside_a_run(monkeypatch):
    _patch_result(monkeypatch, "_class_index", lambda ci: _set_gtilde(ci, 3, -5))
    with pytest.raises(MalformedOutput, match="gamma_3 = -5 < 0"):
        _sweep(C("6,4,4,4,2"))


def test_sweep_raises_when_gamma_rises_inside_a_run(monkeypatch):
    # gamma_3 = 9 rises above gamma_1 = 3, the entry before it along e_plus
    _patch_result(monkeypatch, "_class_index", lambda ci: _set_gtilde(ci, 3, 9))
    with pytest.raises(MalformedOutput, match="weakly decreasing along e_plus at 3"):
        _sweep(C("6,4,4,4,2"))


def test_sweep_raises_without_an_admissible_row_start(monkeypatch):
    # negative gammas past the gamma gates: neither minimal index can
    # start the first row while both pools are nonempty
    def sink(core):
        return core and (core[0], tuple(-100 for _ in core[1]))

    _patch_result(monkeypatch, "_gamma_core", sink)
    with pytest.raises(MalformedOutput, match="no admissible row start"):
        _sweep(B("5,3,1"))


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
            mask = _s_mask(cp, eps.subset)
            assert tuple(_defects(_class_index(cp), mask)) == _ref_defects(d)


def test_defect_index_range():
    d = sd(B("5,3,1"))
    with pytest.raises(ValueError):
        defect(d, -1)
    with pytest.raises(ValueError):
        defect(d, 4)


def test_one_class_index_per_query(monkeypatch):
    # springer_data keeps the index it builds on its result, so defect,
    # gamma_seq and the sphericity decision build no second one
    builds = []
    real = upkit.springer._class_index

    def counted(cp):
        builds.append(cp)
        return real(cp)

    monkeypatch.setattr(upkit.springer, "_class_index", counted)
    queries = [
        ("springer --dual B --partition 5,3,1 --eps=--+", 0),
        ("springer --dual B --partition 5,3,1 --eps {1}", 3),
        ("sphericity --dual B --partition 5,3,1 --eps=-+-", 0),
        ("sphericity --dual C --partition 6,4,4,3,3,2", 0),
    ]
    for argv, code in queries:
        builds.clear()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(argv.split()) == code, argv
        assert len(builds) == 1, argv


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


def test_outside_P0_raises_before_springer_type():
    # {1} on B 5,3,1 is off Springer type and {2,4} on C 4,2,2 is of it;
    # both meet S_0 once, so both are refused as outside P(lam)_0
    for d in (sd(B("5,3,1"), 1), sd(C("4,2,2"), 2, 4)):
        assert not d.eps.in_P0
        with pytest.raises(ValueError):
            gamma_seq(d)
        with pytest.raises(ValueError):
            weakly_spherical(d)


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
        springer_bipartition(sd(B("5,3,1"), 1, 5))
    # {2} on C 2 is off Springer type and outside P(lam)_0; P(lam)_0 is
    # tested first
    with pytest.raises(ValueError):
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


def test_smallest_forking_walk():
    # B 3,3,1 at (+-) forks at its second row start, +1 branch first.
    # Both tableaux share their first row and their pair, so the sweep
    # cannot see a dropped branch; only the tableaux can.
    cp = B("3,3,1")
    d = springer_data(cp, CharFn.from_text(cp, "(+-)"))
    ts = green_tableaux(d, *delta_tau(cp.gt))
    assert [t.rows for t in ts] == [((2,), (3,), (1,)), ((2,), (1, 3))]
    assert len({(t.rows[0], t.bipartition) for t in ts}) == 1


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
            xg = set(x_group(d))
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
