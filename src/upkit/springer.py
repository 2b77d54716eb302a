"""Springer-correspondence combinatorics and the weak-sphericity decision.

Everything here runs on a good-parity class partition lam, parts written
descending (lam_1 >= ... >= lam_ell), carrying a character eps on S(lam).
The index apparatus:

    ebar(i) = (-1)^(eps(lam_i) + i - 1),          ebar(0) := -1,
    e_plus / e_minus : ascending index lists with ebar = +1 / -1,
    X       = first-occurrence indices i(a), a in S(lam),
    X_eps   = {i in X : eps(lam_i) != eps(lam_{i-1})},  eps(lam_0) := 0,

and S_max / S_min collect theta_max / theta_min over the canonical
classes of S(lam), except that lam_1 is always dropped from S_max when
s = +1 (its index 1 is odd while X^{+1} holds the even ones), and lam_ell
is dropped from S_min when s = -1 and lam_ell is the top of its own
class and multiplicity-free.  With these sets the relative defect is

    D_eps(i) = sum eps over S_max below lam_i - same over S_min,

D_eps(0) = 0 is the Springer-type condition, and

    gamma_i = gtilde_i - 2 s ebar(i) D_eps(i) + (-1)^i eps(lam_i) m,
    gtilde_i = ceil(lam_i / 2) for even i, floor(lam_i / 2) for odd i,
    m = m_G off S_min, m'_G on it; (m_G, m'_G) = (-2, 0) for s = +1,
    (1, -1) for s = -1,

splits along e_plus / e_minus into the bipartition of sigma(O_lam, eps).

Tableaux: a row continues with the minimal unused index of sign opposite
to its last entry and larger than it; a row starts at the minimal unused
index k^u of any sign u satisfying

    gamma_{k^u} >= -u (Delta - tau * sum of ebar over prior row starts)

or whose opposite sign is exhausted; both signs qualifying forks the
enumeration.  gamma summed along rows and routed by the sign of each
row start yields the bipartition set P(lam, eps, Delta, tau).  A
character that is not of Springer type carries no Springer
representation and heads an empty P-set; it is never weakly spherical
(the canonical subgroup consists of Springer-type characters only).

The order Lambda_{Delta,tau} merges Delta + alpha_i - tau(i-1) with
beta_i - tau(i-1), descending, and compares prefix sums; for fixed n a
prefix of length 2(n + Delta + 1) decides it.  Weak s-sphericity of
Sigma(O_lam, eps) holds exactly when P(lam, eps, Delta_G, tau_G) meets
the family E^s_0, ..., E^s_n, at (Delta_G, tau_G) = (n + 1, 1) for
s = +1 and (n + 1, 2n + 1) for s = -1.

:func:`character_sweep` runs gamma and the tableau walk over every
character of P(lam)_0 of one class in one pass, from per-class arrays;
the theoremC and firstrow suites of :mod:`upkit.verify` read it.
:func:`springer_data`, :func:`gamma_seq` and :func:`green_tableaux`
serve one character at a time.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .components import CharFn, _meets_evenly, _subsets_in_order, block_classes
from .errors import BadParity, MalformedOutput, NotSpringerType
from .partitions import ClassPartition, GroupType, Partition, classify
from .wreps import Bipartition, e_family

__all__ = [
    "SpringerIndexData",
    "GreenTableau",
    "springer_data",
    "x_eps",
    "defect",
    "is_springer_type",
    "gamma_seq",
    "springer_bipartition",
    "green_tableaux",
    "p_set",
    "lambda_seq",
    "leq_dominance",
    "delta_tau",
    "weakly_spherical",
    "weakly_spherical_general",
    "character_sweep",
]


@dataclass(frozen=True)
class SpringerIndexData:
    """lam, eps and every derived index set the algorithms below consume."""

    base: ClassPartition
    eps: CharFn
    epsbar: tuple[int, ...]
    e_plus: tuple[int, ...]
    e_minus: tuple[int, ...]
    X: tuple[int, ...]
    X_eps: tuple[int, ...]
    S_max: frozenset[int]
    S_min: frozenset[int]

    @property
    def lam(self) -> Partition:
        return self.base.lam

    @property
    def s(self) -> int:
        return self.base.gt.s

    @property
    def ell(self) -> int:
        return len(self.base.lam)

    def ebar(self, i: int) -> int:
        """epsbar(i) for 0 <= i <= ell, with the ebar(0) := -1 convention."""
        return -1 if i == 0 else self.epsbar[i - 1]

    @property
    def X_plus(self) -> tuple[int, ...]:
        """X^{+1}: the even members of X."""
        return tuple(i for i in self.X if i % 2 == 0)

    @property
    def X_minus(self) -> tuple[int, ...]:
        """X^{-1}: the odd members of X."""
        return tuple(i for i in self.X if i % 2 == 1)

    @property
    def X_group(self) -> tuple[int, ...]:
        """X^{s} for the group's own sign s."""
        return self.X_plus if self.s == 1 else self.X_minus


@dataclass(frozen=True)
class _ClassIndex:
    """The part of the index data that depends on lam alone.

    ``rtable`` lists the values of S_max and S_min, ascending, each with
    its weight [a in S_max] - [a in S_min] (weight-0 values left out);
    ``low[i]`` counts the table values below the threshold of D_eps(i):
    lam_0 := lam_1 + 1 for i = 0, lam_i otherwise.  For i = 1..ell,
    ``gtilde[i-1]`` is gtilde_i and ``shift[i-1]`` the term (-1)^i m that
    eps(lam_i) = 1 adds to gamma_i.
    """

    base: ClassPartition
    X: tuple[int, ...]
    S_max: frozenset[int]
    S_min: frozenset[int]
    S0: frozenset[int]
    rtable: tuple[tuple[int, int], ...]
    low: tuple[int, ...]
    gtilde: tuple[int, ...]
    shift: tuple[int, ...]


def _class_index(cp: ClassPartition) -> _ClassIndex:
    lam = cp.lam
    first: dict[int, int] = {}
    for i, p in enumerate(lam, 1):
        first.setdefault(p, i)
    classes = block_classes(cp)
    s0 = frozenset(cp.S0)
    smax = {theta[-1] for theta in classes}
    smin = {theta[0] for theta in classes}
    if lam:
        if cp.gt.s == 1:
            smax.discard(lam[0])
        else:
            bottom = classes[0]
            if bottom[-1] == lam[len(lam) - 1] and bottom[-1] in s0:
                smin.discard(bottom[-1])
    weight = {a: (a in smax) - (a in smin) for a in smax | smin}
    values = [a for a in sorted(weight) if weight[a]]
    m_off, m_on = (-2, 0) if cp.gt.s == 1 else (1, -1)
    return _ClassIndex(
        base=cp,
        X=tuple(sorted(first.values())),
        S_max=frozenset(smax),
        S_min=frozenset(smin),
        S0=s0,
        rtable=tuple((a, weight[a]) for a in values),
        low=tuple(
            bisect_left(values, hi) for hi in ((lam[0] + 1 if lam else 1), *lam)
        ),
        gtilde=tuple(a // 2 if i % 2 else (a + 1) // 2 for i, a in enumerate(lam, 1)),
        shift=tuple(
            (m_on if a in smin else m_off) * (-1) ** i for i, a in enumerate(lam, 1)
        ),
    )


def _signs(lam: Partition, sub) -> tuple[list[int], list[int], list[int]]:
    """(epsbar(1..ell), e_plus, e_minus) of the character with subset sub."""
    ebar, e_plus, e_minus = [], [], []
    for i, p in enumerate(lam, 1):
        if ((p in sub) + i) % 2:
            ebar.append(1)
            e_plus.append(i)
        else:
            ebar.append(-1)
            e_minus.append(i)
    return ebar, e_plus, e_minus


def x_eps(cp: ClassPartition, sub) -> tuple[int, ...]:
    """X_eps of the character with subset sub: the indices i in X where
    eps(lam_i) != eps(lam_{i-1}).  At an index outside X the part repeats
    the one before it, so the test alone picks X_eps out of 1..ell."""
    lam = cp.lam
    return tuple(
        i
        for i in range(1, len(lam) + 1)
        if (lam[i - 1] in sub) != (i > 1 and lam[i - 2] in sub)
    )


def springer_data(cp: ClassPartition, eps: CharFn) -> SpringerIndexData:
    """Assemble the index data of (lam, eps); lam must be of good parity."""
    if eps.base is not cp and eps.base != cp:
        raise ValueError("eps is a character of a different class partition")
    if cp.bp:
        raise BadParity(
            f"{cp.lam!r} has bad-parity parts; reduce to lam^gp first"
        )
    ci = _class_index(cp)
    ebar, e_plus, e_minus = _signs(cp.lam, eps.subset)
    return SpringerIndexData(
        base=cp,
        eps=eps,
        epsbar=tuple(ebar),
        e_plus=tuple(e_plus),
        e_minus=tuple(e_minus),
        X=ci.X,
        X_eps=x_eps(cp, eps.subset),
        S_max=ci.S_max,
        S_min=ci.S_min,
    )


def defect(sd: SpringerIndexData, i: int) -> int:
    """D_eps(i); the index 0 uses the lam_0 > lam_1 convention."""
    if not 0 <= i <= sd.ell:
        raise ValueError(f"index {i} outside 0..{sd.ell}")
    return _defects(_class_index(sd.base), sd.eps.subset)[i]


def _defects(ci: _ClassIndex, sub) -> list[int]:
    """[D_eps(0), ..., D_eps(ell)], the one computation of the defect.

    Read off the class's ascending value table: D_eps(i) sums the
    weights of the eps-values among the first ``low[i]`` entries.
    """
    below = [0]
    acc = 0
    for a, w in ci.rtable:
        if a in sub:
            acc += w
        below.append(acc)
    return [below[k] for k in ci.low]


def is_springer_type(sd: SpringerIndexData) -> bool:
    """Does eps support a Springer representation sigma(O_lam, eps)?"""
    return defect(sd, 0) == 0


def _zero_gate(ci: _ClassIndex, sub, i: int, a: int, d: int) -> None:
    # self-check on gamma_i = 0 with |D_eps(i)| <= 1; any violation is a bug
    s0 = ci.S0
    odd = i % 2 == 1
    ok = a <= 7
    if a == 2 and 2 not in ci.S_min:
        ok = odd
    elif a == 3:
        ok = not odd
    elif a == 4:
        ok = (d == 1 and 4 not in sub) or (4 not in ci.S_min and odd)
    elif a == 5:
        ok = (d == 1 and 5 not in sub) or (
            {1, 3} <= s0 and 1 in sub and 3 not in sub and 5 in sub
        )
    elif a == 6:
        ok = (d == 1 and odd) or (
            {2, 4} <= s0
            and 6 in ci.S_min
            and 2 in sub
            and 4 not in sub
            and 6 in sub
        )
    elif a == 7:
        ok = d == 1 and 7 not in ci.S_min
    if not ok:
        raise MalformedOutput(
            f"zero gamma_{i} violates the zero-part constraints "
            f"(lam_i = {a}, D = {d}) for {CharFn(ci.base, sub)!r}"
        )


def _gamma_core(ci: _ClassIndex, sub):
    """(epsbar, e_plus, e_minus, gamma) of the character of P(lam)_0 with
    subset sub, or None when it is not of Springer type (D_eps(0) != 0).

    Raises MalformedOutput when gamma fails nonnegativity, fails weak
    decrease along either sign class, or carries a zero entry violating
    the zero-part constraints -- all of which indicate a bug, never bad
    input.
    """
    cp = ci.base
    defects = _defects(ci, sub)
    if defects[0]:
        return None
    ebar, e_plus, e_minus = _signs(cp.lam, sub)
    s2 = 2 * cp.gt.s
    out = []
    for i, (a, e, d, g, m) in enumerate(
        zip(cp.lam, ebar, defects[1:], ci.gtilde, ci.shift), 1
    ):
        g -= s2 * e * d
        if a in sub:
            g += m
        if g < 0:
            raise MalformedOutput(f"gamma_{i} = {g} < 0 for {CharFn(cp, sub)!r}")
        if g == 0 and -1 <= d <= 1:
            _zero_gate(ci, sub, i, a, d)
        out.append(g)
    for idx in (e_plus, e_minus):
        run = [out[i - 1] for i in idx]
        if run != sorted(run, reverse=True):
            raise MalformedOutput(
                f"gamma not weakly decreasing along {tuple(idx)} for {CharFn(cp, sub)!r}"
            )
    return ebar, e_plus, e_minus, tuple(out)


def gamma_seq(sd: SpringerIndexData) -> tuple[int, ...]:
    """The gamma-sequence of (lam, eps), zero entries retained.

    Raises NotSpringerType unless D_eps(0) = 0, ValueError outside
    P(lam)_0, and MalformedOutput when the output fails one of the
    self-checks of :func:`_gamma_core`.
    """
    core = _gamma_core(_class_index(sd.base), sd.eps.subset) if sd.eps.in_P0 else None
    if core is None:
        d0 = defect(sd, 0)
        if d0:
            raise NotSpringerType(f"D_eps(0) = {d0} != 0 for {sd.eps!r}")
        raise ValueError(
            f"{sd.eps!r} lies outside P(lam)_0; gamma is derived there"
        )
    return core[3]


def springer_bipartition(sd: SpringerIndexData) -> Bipartition:
    """sigma(O_lam, eps) in bipartition form: gamma split along e_plus/e_minus."""
    gam = gamma_seq(sd)
    alpha = Partition(gam[i - 1] for i in sd.e_plus)
    beta = Partition(gam[i - 1] for i in sd.e_minus)
    if alpha.size + beta.size != sd.base.gt.n:
        raise MalformedOutput(
            f"|alpha| + |beta| = {alpha.size + beta.size} != n = {sd.base.gt.n}"
        )
    return Bipartition(alpha, beta)


@dataclass(frozen=True)
class GreenTableau:
    """One run of the tableau algorithm, with its output bipartition."""

    rows: tuple[tuple[int, ...], ...]
    params: tuple[int, int]
    alpha: Partition
    beta: Partition

    @property
    def bipartition(self) -> Bipartition:
        return Bipartition(self.alpha, self.beta)

    def to_json(self) -> dict:
        return {
            "rows": [list(r) for r in self.rows],
            "alpha": list(self.alpha),
            "beta": list(self.beta),
        }


def _walk_tableaux(ebar, e_plus, e_minus, gam, delta, tau, leaf) -> None:
    """Walk R(lam, eps, delta, tau) depth-first, +1 branch first.

    ``leaf(rows, alpha, beta)`` sees every finished tableau: its rows and
    the gamma sums along the rows that start on the +1 and on the -1
    side.  The lists are the walker's own and change after ``leaf``
    returns.
    """
    rows: list[list[int]] = []
    alpha: list[int] = []
    beta: list[int] = []

    def expand(pool_p, pool_m, start_sum):
        if not pool_p and not pool_m:
            leaf(rows, alpha, beta)
            return
        need = delta - start_sum
        starts = []
        if pool_p and (not pool_m or gam[pool_p[0] - 1] >= -need):
            starts.append(1)
        if pool_m and (not pool_p or gam[pool_m[0] - 1] >= need):
            starts.append(-1)
        if not starts:
            raise MalformedOutput("no admissible row start")
        for u in starts:
            # the last branch may use up this call's own pools
            pp, pm = (pool_p, pool_m) if u == starts[-1] else (pool_p[:], pool_m[:])
            k = (pp if u == 1 else pm).pop(0)
            row = [k]
            total = gam[k - 1]
            while True:
                pool = pm if ebar[k - 1] == 1 else pp
                j = bisect_right(pool, k)
                if j == len(pool):
                    break
                k = pool.pop(j)
                row.append(k)
                total += gam[k - 1]
            side = alpha if u == 1 else beta
            rows.append(row)
            side.append(total)
            expand(pp, pm, start_sum + tau * u)
            rows.pop()
            side.pop()

    expand(list(e_plus), list(e_minus), 0)


def green_tableaux(
    sd: SpringerIndexData, delta: int, tau: int
) -> list[GreenTableau]:
    """R(lam, eps, delta, tau), depth-first with the +1 branch explored first."""
    if delta < 1 or tau < 1:
        raise ValueError("delta and tau must be positive integers")
    out: list[GreenTableau] = []

    def close(rows, alpha, beta):
        out.append(
            GreenTableau(
                rows=tuple(map(tuple, rows)),
                params=(delta, tau),
                alpha=Partition(alpha),
                beta=Partition(beta),
            )
        )

    _walk_tableaux(sd.epsbar, sd.e_plus, sd.e_minus, gamma_seq(sd), delta, tau, close)
    return out


def p_set(sd: SpringerIndexData, delta: int, tau: int) -> set[Bipartition]:
    """P(lam, eps, delta, tau), deduplicated; empty off Springer type."""
    try:
        return {t.bipartition for t in green_tableaux(sd, delta, tau)}
    except NotSpringerType:
        return set()


def lambda_seq(
    x: Bipartition, delta: int, tau: int, cutoff: int
) -> tuple[int, ...]:
    """The first cutoff entries of Lambda_{delta,tau}(x), descending.

    Order decisions need cutoff >= 2(max(len(alpha), len(beta))
    + ceil(delta/tau) + 1); beyond that prefix the merged tails agree
    entrywise for any fixed (delta, tau, n).
    """
    if cutoff < 1:
        raise ValueError("cutoff must be positive")
    al, be = tuple(x.alpha), tuple(x.beta)
    ra = [delta + (al[i] if i < len(al) else 0) - tau * i for i in range(cutoff)]
    rb = [(be[i] if i < len(be) else 0) - tau * i for i in range(cutoff)]
    return tuple(sorted(ra + rb, reverse=True)[:cutoff])


def leq_dominance(x: Bipartition, y: Bipartition, delta: int, tau: int) -> bool:
    """x <=_{delta,tau} y: all prefix sums of Lambda compare favourably."""
    if x.n != y.n:
        raise ValueError("comparable bipartitions must share n")
    cutoff = 2 * (x.n + delta + 1)
    sx = sy = 0
    for u, v in zip(
        lambda_seq(x, delta, tau, cutoff), lambda_seq(y, delta, tau, cutoff)
    ):
        sx += u
        sy += v
        if sx > sy:
            return False
    return True


def delta_tau(gt: GroupType) -> tuple[int, int]:
    """(Delta_G, tau_G) for the group's own order."""
    return (gt.n + 1, 1) if gt.s == 1 else (gt.n + 1, 2 * gt.n + 1)


def weakly_spherical(sd: SpringerIndexData) -> bool:
    """Is Sigma(O_lam, eps) weakly s-spherical?

    Decided through P(lam, eps, Delta_G, tau_G) meeting the E^s family;
    characters off Springer type head an empty P-set and answer False.
    """
    if sd.base.bp:
        raise BadParity(f"{sd.lam!r} is not of pure good parity")
    gt = sd.base.gt
    try:
        gam = gamma_seq(sd)
    except NotSpringerType:
        return False
    _, pairs = _tableau_summary(sd.epsbar, sd.e_plus, sd.e_minus, gam, *delta_tau(gt))
    return not _e_pairs(gt).isdisjoint(pairs)


def _parts(values) -> tuple[int, ...]:
    """The parts tuple of Partition(values): zeros dropped, descending."""
    return tuple(sorted(filter(None, values), reverse=True))


def _tableau_summary(ebar, e_plus, e_minus, gam, delta, tau):
    """The set of first rows of R(lam, eps, delta, tau) and the distinct
    (alpha, beta) parts pairs of P(lam, eps, delta, tau), in walk order."""
    first_rows = set()
    pairs = {}

    def leaf(rows, alpha, beta):
        # the one tableau of the empty partition has no rows
        first_rows.add(tuple(rows[0]) if rows else ())
        pairs[_parts(alpha), _parts(beta)] = None

    _walk_tableaux(ebar, e_plus, e_minus, gam, delta, tau, leaf)
    return first_rows, tuple(pairs)


def _e_pairs(gt: GroupType) -> frozenset:
    """The family E^s_0, ..., E^s_n of gt as (alpha, beta) parts pairs."""
    return frozenset((e.alpha, e.beta) for e in e_family(gt.s, gt.n))


def character_sweep(cp: ClassPartition):
    """Every character of P(lam)_0 with its tableaux at (Delta_G, tau_G).

    One pass over the class, in :func:`char_group` order, building no
    :class:`CharFn` and no :class:`SpringerIndexData`.  Yields
    ``(sub, first_rows, pairs, spherical)`` per subset sub of S(lam)
    meeting S_0(lam) evenly.  Off Springer type ``first_rows`` and
    ``pairs`` are None and ``spherical`` is False.  Otherwise
    ``first_rows`` is the set of first rows of R(lam, eps, Delta_G,
    tau_G), ``pairs`` the distinct (alpha, beta) parts pairs of
    P(lam, eps, Delta_G, tau_G) in walk order, and ``spherical`` tells
    whether they meet the E^s family, as :func:`weakly_spherical` does.
    Every gamma runs the self-checks of :func:`gamma_seq`.
    """
    if cp.bp:
        raise BadParity(f"{cp.lam!r} is not of pure good parity")
    ci = _class_index(cp)
    delta, tau = delta_tau(cp.gt)
    family = _e_pairs(cp.gt)
    for sub in _subsets_in_order(cp.S):
        if not _meets_evenly(sub, cp.S0):
            continue
        core = _gamma_core(ci, sub)
        if core is None:
            yield sub, None, None, False
            continue
        first_rows, pairs = _tableau_summary(*core, delta, tau)
        yield sub, first_rows, pairs, not family.isdisjoint(pairs)


def weakly_spherical_general(cp: ClassPartition, eps: CharFn) -> bool:
    """Weak s-sphericity for arbitrary parity, via the lam^gp reduction."""
    if eps.base != cp:
        raise ValueError("eps is a character of a different class partition")
    if not cp.bp:
        return weakly_spherical(springer_data(cp, eps))
    sub = classify(cp.gp, GroupType(cp.gt.s, cp.gp.size))
    return weakly_spherical(springer_data(sub, CharFn(sub, eps.subset)))
