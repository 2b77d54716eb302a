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
"""

from __future__ import annotations

import functools
from bisect import bisect_right
from dataclasses import dataclass

from .components import CharFn, block_structure
from .errors import BadParity, MalformedOutput, NotSpringerType
from .partitions import ClassPartition, GroupType, Partition, classify
from .wreps import Bipartition, e_family

__all__ = [
    "SpringerIndexData",
    "GreenTableau",
    "springer_data",
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

    ``table`` lists the values of S_max and S_min, descending, each with
    its weight [a in S_max] - [a in S_min] (weight-0 values left out);
    ``cuts[i]`` counts the table values at or above the threshold of
    D_eps(i): lam_0 := lam_1 + 1 for i = 0, lam_i otherwise.
    """

    X: tuple[int, ...]
    S_max: frozenset[int]
    S_min: frozenset[int]
    table: tuple[tuple[int, int], ...]
    cuts: tuple[int, ...]


@functools.lru_cache(maxsize=64)
def _class_index(cp: ClassPartition) -> _ClassIndex:
    # a verify cell asks about every character of one class in a row,
    # so a few dozen classes cover every reuse
    lam = cp.lam
    first: dict[int, int] = {}
    for i, p in enumerate(lam, 1):
        first.setdefault(p, i)
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
    weight = {a: (a in smax) - (a in smin) for a in smax | smin}
    values = [a for a in sorted(weight, reverse=True) if weight[a]]
    cuts = []
    j = 0
    for hi in ((lam[0] + 1 if lam else 1), *lam):
        while j < len(values) and values[j] >= hi:
            j += 1
        cuts.append(j)
    return _ClassIndex(
        X=tuple(sorted(first.values())),
        S_max=frozenset(smax),
        S_min=frozenset(smin),
        table=tuple((a, weight[a]) for a in values),
        cuts=tuple(cuts),
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
    lam = cp.lam
    sub = eps.subset
    ebar, e_plus, e_minus = [], [], []
    for i, p in enumerate(lam, 1):
        if ((p in sub) + i) % 2:
            ebar.append(1)
            e_plus.append(i)
        else:
            ebar.append(-1)
            e_minus.append(i)
    return SpringerIndexData(
        base=cp,
        eps=eps,
        epsbar=tuple(ebar),
        e_plus=tuple(e_plus),
        e_minus=tuple(e_minus),
        X=ci.X,
        X_eps=tuple(
            i
            for i in ci.X
            if (lam[i - 1] in sub) != (i > 1 and lam[i - 2] in sub)
        ),
        S_max=ci.S_max,
        S_min=ci.S_min,
    )


def defect(sd: SpringerIndexData, i: int) -> int:
    """D_eps(i); the index 0 uses the lam_0 > lam_1 convention."""
    if not 0 <= i <= sd.ell:
        raise ValueError(f"index {i} outside 0..{sd.ell}")
    hi = (sd.lam[0] + 1 if sd.lam else 1) if i == 0 else sd.lam[i - 1]
    ind = sd.eps.indicator
    return sum(ind(a) for a in sd.S_max if a < hi) - sum(
        ind(a) for a in sd.S_min if a < hi
    )


def _defects(sd: SpringerIndexData) -> tuple[int, ...]:
    """(D_eps(0), ..., D_eps(ell)), equal to :func:`defect` at every index.

    Read off the class's descending value table: D_eps(i) sums the
    weights of the eps-values below the i-th cut.
    """
    ci = _class_index(sd.base)
    sub = sd.eps.subset
    below = [0]
    for a, w in reversed(ci.table):
        below.append(below[-1] + w if a in sub else below[-1])
    top = len(ci.table)
    return tuple(below[top - c] for c in ci.cuts)


def is_springer_type(sd: SpringerIndexData) -> bool:
    """Does eps support a Springer representation sigma(O_lam, eps)?"""
    return defect(sd, 0) == 0


def _zero_gate(sd: SpringerIndexData, i: int, a: int, d: int) -> None:
    # self-check on gamma_i = 0 with |D_eps(i)| <= 1; any violation is a bug
    ind = sd.eps.indicator
    s0 = set(sd.base.S0)
    odd = i % 2 == 1
    ok = a <= 7
    if a == 2 and 2 not in sd.S_min:
        ok = odd
    elif a == 3:
        ok = not odd
    elif a == 4:
        ok = (d == 1 and ind(4) == 0) or (4 not in sd.S_min and odd)
    elif a == 5:
        ok = (d == 1 and ind(5) == 0) or (
            {1, 3} <= s0 and ind(1) == 1 and ind(3) == 0 and ind(5) == 1
        )
    elif a == 6:
        ok = (d == 1 and odd) or (
            {2, 4} <= s0
            and 6 in sd.S_min
            and ind(2) == 1
            and ind(4) == 0
            and ind(6) == 1
        )
    elif a == 7:
        ok = d == 1 and 7 not in sd.S_min
    if not ok:
        raise MalformedOutput(
            f"zero gamma_{i} violates the zero-part constraints "
            f"(lam_i = {a}, D = {d}) for {sd.eps!r}"
        )


def gamma_seq(sd: SpringerIndexData) -> tuple[int, ...]:
    """The gamma-sequence of (lam, eps), zero entries retained.

    Raises NotSpringerType unless D_eps(0) = 0, and MalformedOutput when
    the output fails nonnegativity, fails weak decrease along either
    sign class, or carries a zero entry violating the zero-part
    constraints -- all of which indicate a bug, never bad input.
    """
    defects = _defects(sd)
    if defects[0]:
        raise NotSpringerType(
            f"D_eps(0) = {defects[0]} != 0 for {sd.eps!r}"
        )
    if not sd.eps.in_P0:
        raise ValueError(
            f"{sd.eps!r} lies outside P(lam)_0; gamma is derived there"
        )
    s = sd.s
    m_off, m_on = (-2, 0) if s == 1 else (1, -1)
    sub = sd.eps.subset
    smin = sd.S_min
    out = []
    for i, (a, e, d) in enumerate(zip(sd.lam, sd.epsbar, defects[1:]), 1):
        gtilde = a // 2 if i % 2 else (a + 1) // 2
        g = gtilde - 2 * s * e * d
        if a in sub:
            m = m_on if a in smin else m_off
            g += -m if i % 2 else m
        if g < 0:
            raise MalformedOutput(f"gamma_{i} = {g} < 0 for {sd.eps!r}")
        if g == 0 and d in (-1, 0, 1):
            _zero_gate(sd, i, a, d)
        out.append(g)
    for idx in (sd.e_plus, sd.e_minus):
        run = [out[i - 1] for i in idx]
        if any(x < y for x, y in zip(run, run[1:])):
            raise MalformedOutput(
                f"gamma not weakly decreasing along {idx} for {sd.eps!r}"
            )
    return tuple(out)


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


def _walk_tableaux(sd, gam, delta, tau, leaf) -> None:
    """Walk R(lam, eps, delta, tau) depth-first, +1 branch first.

    ``leaf(rows, alpha, beta)`` sees every finished tableau: its rows and
    the gamma sums along the rows that start on the +1 and on the -1
    side.  The lists are the walker's own and change after ``leaf``
    returns.
    """
    ebar = sd.epsbar
    rows: list[list[int]] = []
    alpha: list[int] = []
    beta: list[int] = []

    def expand(pool_p, pool_m, start_sum):
        if not pool_p and not pool_m:
            leaf(rows, alpha, beta)
            return
        starts = []
        for u, mine, other in ((1, pool_p, pool_m), (-1, pool_m, pool_p)):
            if mine and (not other or gam[mine[0] - 1] >= -u * (delta - start_sum)):
                starts.append(u)
        if not starts:
            raise MalformedOutput("no admissible row start")
        for u in starts:
            pp, pm = pool_p[:], pool_m[:]
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

    expand(list(sd.e_plus), list(sd.e_minus), 0)


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

    _walk_tableaux(sd, gamma_seq(sd), delta, tau, close)
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
    found = set()

    def collect(rows, alpha, beta):
        found.add((_parts(alpha), _parts(beta)))

    _walk_tableaux(sd, gam, *delta_tau(gt), collect)
    return any((e.alpha, e.beta) in found for e in e_family(gt.s, gt.n))


def _parts(values) -> tuple[int, ...]:
    """The parts tuple of Partition(values): zeros dropped, descending."""
    return tuple(sorted((x for x in values if x), reverse=True))


def weakly_spherical_general(cp: ClassPartition, eps: CharFn) -> bool:
    """Weak s-sphericity for arbitrary parity, via the lam^gp reduction."""
    if eps.base != cp:
        raise ValueError("eps is a character of a different class partition")
    if not cp.bp:
        return weakly_spherical(springer_data(cp, eps))
    sub = classify(cp.gp, GroupType(cp.gt.s, cp.gp.size))
    return weakly_spherical(springer_data(sub, CharFn(sub, eps.subset)))
