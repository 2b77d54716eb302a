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
enumeration.  The walk holds each row and the unused indices of each
sign as an int bitmask, index i at bit i - 1, so a step reads the lowest
set bit above k, and it runs as a loop that keeps each fork's pools on a
stack and takes the +1 branch first.  gamma summed along rows and routed
by the sign of each row start yields the bipartition set
P(lam, eps, Delta, tau).  gamma is derived on P(lam)_0 only, and a
character outside it is refused with ValueError before its Springer
type is asked.  A character of P(lam)_0 that is not of Springer type
carries no Springer representation and heads an empty P-set; it is
never weakly spherical (the canonical subgroup consists of
Springer-type characters only).

The order Lambda_{Delta,tau} merges Delta + alpha_i - tau(i-1) with
beta_i - tau(i-1), descending, and compares prefix sums; for fixed n a
prefix of length 2(n + Delta + 1) decides it.  Weak s-sphericity of
Sigma(O_lam, eps) holds exactly when P(lam, eps, Delta_G, tau_G) meets
the family E^s_0, ..., E^s_n, at (Delta_G, tau_G) = (n + 1, 1) for
s = +1 and (n + 1, 2n + 1) for s = -1.

The index data of lam alone is one record per run of lam
(:class:`_ClassIndex`).  Along a run D_eps is constant, gamma alternates
between two values, and X_eps can change only at the run's first index,
so gamma, D_eps and X_eps each cost one step per run, not per part, and
the self-checks run on a run's first two entries, which every later one
repeats.  :func:`character_sweep` runs gamma and the tableau walk over
every character of P(lam)_0 of one class in one pass, reading each
member with its S-index bitmask as :func:`components._p0_subsets` walks
them; the theoremC and firstrow suites of :mod:`upkit.verify` read it,
and firstrow compares its first rows with X_eps as index bitmasks.
:func:`springer_data`, :func:`gamma_seq` and :func:`green_tableaux`
serve one character at a time.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

from .components import CharFn, _p0_subsets, _s_bits, _s_mask, block_classes
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

    @functools.cached_property
    def _index(self) -> "_ClassIndex":
        """The index data of lam, which :func:`springer_data` builds once
        and keeps in ``__dict__``, out of the fields that equality,
        hashing and ``repr`` read."""
        return _class_index(self.base)


class _ClassIndex(NamedTuple):
    """The part of the index data that depends on lam alone.

    A subset of S(lam) is read as its S-index bitmask
    (:func:`components._s_bits`).  ``plus`` and ``minus`` mask the values
    of weight +1 and -1 in D_eps, the weight of a being
    [a in S_max] - [a in S_min].

    ``runs`` holds one record ``(b, i, r, w, off, on)`` per run of lam,
    descending: b is the bit of the run's value, i its first index, r its
    multiplicity, and w its weight.  D_eps is constant along a run:
    D_eps(i) = D_eps(i-1) - w when eps is 1 on the run, D_eps(i-1)
    otherwise.  ``off`` and ``on`` apply when eps is 0 and 1 on the run.
    Each is ``(g, c, h, e, p, q, ep)``: gamma = g + c D_eps at the indices
    of the parity of i and h + e D_eps at the others, where g and h are
    gtilde plus the term (-1)^i m when eps is 1, and c and e are
    -2 s ebar; p and q tell whether ebar = +1 at those two parities, and
    ep masks the run's indices with ebar = +1, index k at bit k - 1.
    """

    base: ClassPartition
    X: tuple[int, ...]
    S_max: frozenset[int]
    S_min: frozenset[int]
    S0: frozenset[int]
    plus: int
    minus: int
    runs: tuple[tuple[int, int, int, int, tuple, tuple], ...]

    def defect0(self, mask: int) -> int:
        """D_eps(0) of the character with S-index bitmask mask."""
        return (mask & self.plus).bit_count() - (mask & self.minus).bit_count()


def _class_index(cp: ClassPartition) -> _ClassIndex:
    """The index data of lam alone, in one pass over its runs."""
    if cp.bp:
        raise BadParity(f"{cp.lam!r} is not of pure good parity")
    lam = cp.lam
    classes = block_classes(cp)
    smax = {theta[-1] for theta in classes}
    smin = {theta[0] for theta in classes}
    if lam:
        if cp.gt.s == 1:
            smax.discard(lam[0])
        else:
            bottom = classes[0]
            if bottom[-1] == lam[-1] and bottom[-1] in cp.S0:
                smin.discard(bottom[-1])
    s2 = 2 * cp.gt.s
    m_off, m_on = (-2, 0) if cp.gt.s == 1 else (1, -1)
    X, runs = [], []
    plus = minus = 0
    i = 1
    # lam is of good parity, so S descending lists the values of its runs
    for a, b in zip(reversed(cp.S), reversed(_s_bits(cp))):
        r = lam.count(a)
        X.append(i)
        w = (a in smax) - (a in smin)
        if w > 0:
            plus |= b
        elif w < 0:
            minus |= b
        m = m_on if a in smin else m_off
        lo, hi = a // 2, (a + 1) // 2
        span = ((1 << r) - 1) << (i - 1)
        # the bits of the run's indices of the parity of i: i, i + 2, ...
        first = ((1 << (r + 1 & ~1)) - 1) // 3 << (i - 1)
        # at odd indices gtilde = floor(a/2) and ebar = +1 off eps, at
        # even ones ceil(a/2) and ebar = +1 on eps
        if i % 2:
            off = (lo, -s2, hi, s2, 1, 0, first)
            on = (lo - m, s2, hi + m, -s2, 0, 1, span ^ first)
        else:
            off = (hi, s2, lo, -s2, 0, 1, span ^ first)
            on = (hi + m, -s2, lo - m, s2, 1, 0, first)
        runs.append((b, i, r, w, off, on))
        i += r
    return _ClassIndex(
        cp, tuple(X), frozenset(smax), frozenset(smin), frozenset(cp.S0),
        plus, minus, tuple(runs),
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


def x_eps(ci: _ClassIndex, mask: int) -> int:
    """X_eps of the character with S-index bitmask mask, as an index
    bitmask (index i at bit i - 1): the first indices i of the runs of
    lam where eps(lam_i) != eps(lam_{i-1}).  Inside a run the part
    repeats the one before it, so only first indices qualify."""
    out = before = 0
    for b, i, *_ in ci.runs:
        now = mask & b and 1
        if now != before:
            out |= 1 << (i - 1)
        before = now
    return out


def _indices(bits: int) -> tuple[int, ...]:
    """The indices of an index bitmask, ascending: i for each bit i - 1."""
    out = []
    while bits:
        b = bits & -bits
        out.append(b.bit_length())
        bits ^= b
    return tuple(out)


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
    sd = SpringerIndexData(
        base=cp,
        eps=eps,
        epsbar=tuple(ebar),
        e_plus=tuple(e_plus),
        e_minus=tuple(e_minus),
        X=ci.X,
        X_eps=_indices(x_eps(ci, _s_mask(cp, eps.subset))),
        S_max=ci.S_max,
        S_min=ci.S_min,
    )
    # the value of sd._index, so that no later step builds the index again
    object.__setattr__(sd, "_index", ci)
    return sd


def defect(sd: SpringerIndexData, i: int) -> int:
    """D_eps(i); the index 0 uses the lam_0 > lam_1 convention."""
    if not 0 <= i <= sd.ell:
        raise ValueError(f"index {i} outside 0..{sd.ell}")
    return _defects(sd._index, _s_mask(sd.base, sd.eps.subset))[i]


def _defects(ci: _ClassIndex, mask: int) -> list[int]:
    """[D_eps(0), ..., D_eps(ell)] of the character with S-index bitmask
    mask.

    D_eps(0) weighs every eps-value in S_max and S_min.  Going down lam,
    each one leaves the sum at the first index of its run, from where on
    it is no longer below lam_i, so D_eps is constant along a run.
    :func:`_gamma_core` takes the same steps along its pass.
    """
    d = ci.defect0(mask)
    out = [d]
    for b, _, r, w, _, _ in ci.runs:
        if mask & b:
            d -= w
        out += [d] * r
    return out


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


def _entry_gates(ci: _ClassIndex, sub, i: int, d: int, g: int, last: int, plus: int) -> None:
    """The self-checks of gamma_i = g at D_eps(i) = d, in order: g is not
    negative, a zero passes :func:`_zero_gate`, and g does not exceed
    last, the entry before it of its sign (e_plus when plus is 1)."""
    if g < 0:
        raise MalformedOutput(f"gamma_{i} = {g} < 0 for {CharFn(ci.base, sub)!r}")
    if g == 0 and -1 <= d <= 1:
        _zero_gate(ci, sub, i, ci.base.lam[i - 1], d)
    if g > last:
        side = "e_plus" if plus else "e_minus"
        raise MalformedOutput(
            f"gamma not weakly decreasing along {side} at {i} for {CharFn(ci.base, sub)!r}"
        )


def _gamma_core(ci: _ClassIndex, sub, mask: int):
    """(e_plus, gamma) of the character of P(lam)_0 with subset sub and
    S-index bitmask mask, or None when it is not of Springer type
    (D_eps(0) != 0); e_plus is a bitmask, index i at bit i - 1.

    One pass down the runs of lam builds both, D_eps along with them.
    Along a run D_eps is constant, so gamma alternates between the
    values at the run's first two indices and every later entry repeats
    the one two before it, of its own sign.  The self-checks of
    :func:`_entry_gates` therefore run on those two entries only; they
    raise MalformedOutput when a gamma_i is negative, carries a zero entry
    violating the zero-part constraints, or exceeds the entry before it
    of its sign -- all of which indicate a bug, never bad input.
    """
    d = ci.defect0(mask)
    if d:
        return None
    e_plus, out = 0, []
    # the last entry along e_minus and along e_plus
    last = [math.inf, math.inf]
    for b, i, r, w, off, on in ci.runs:
        if mask & b:
            d -= w
            g, c, h, e, p, q, ep = on
        else:
            g, c, h, e, p, q, ep = off
        e_plus |= ep
        g += c * d
        if g <= 0 or g > last[p]:
            _entry_gates(ci, sub, i, d, g, last[p], p)
        last[p] = g
        if r == 1:
            out.append(g)
            continue
        h += e * d
        if h <= 0 or h > last[q]:
            _entry_gates(ci, sub, i + 1, d, h, last[q], q)
        last[q] = h
        out += ((g, h) * ((r + 1) >> 1))[:r]
    return e_plus, tuple(out)


def gamma_seq(sd: SpringerIndexData) -> tuple[int, ...]:
    """The gamma-sequence of (lam, eps), zero entries retained.

    Raises ValueError outside P(lam)_0, then NotSpringerType unless
    D_eps(0) = 0, and MalformedOutput when the output fails one of the
    self-checks of :func:`_gamma_core`.
    """
    return _checked_core(sd)[1]


def _checked_core(sd: SpringerIndexData):
    """:func:`_gamma_core` of (lam, eps), raising as :func:`gamma_seq` does."""
    if not sd.eps.in_P0:
        raise ValueError(
            f"{sd.eps!r} lies outside P(lam)_0; gamma is derived there"
        )
    ci = sd._index
    mask = _s_mask(sd.base, sd.eps.subset)
    core = _gamma_core(ci, sd.eps.subset, mask)
    if core is None:
        d0 = ci.defect0(mask)
        raise NotSpringerType(f"D_eps(0) = {d0} != 0 for {sd.eps!r}")
    return core


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


def _walk_tableaux(e_plus, gam, delta, tau, leaf) -> None:
    """Walk R(lam, eps, delta, tau) depth-first, +1 branch first.

    ``leaf(rows, alpha, beta)`` sees every finished tableau: its rows and
    the gamma sums along the rows that start on the +1 and on the -1
    side.  The lists are the walker's own and change after ``leaf``
    returns.

    Each row and each pool of unused indices is an int bitmask, index i
    at bit i - 1, so a row takes an index with one ``|=`` and the
    minimal unused index above k is the lowest set bit of
    ``pool >> k << k``.  ``e_plus`` is the +1 pool, as :func:`_gamma_core`
    gives it; the other indices 1..len(gam) make up the -1 pool, and a
    row alternates between the two pools.  The walk is a loop; a fork
    pushes the pools, the start sum and the depth its -1 branch resumes
    from, and copies nothing.
    """
    pool_p = e_plus
    pool_m = ((1 << len(gam)) - 1) ^ e_plus
    start_sum = 0
    rows: list[int] = []
    alpha: list[int] = []
    beta: list[int] = []
    forks = []
    while True:
        if not (pool_p or pool_m):
            leaf(rows, alpha, beta)
            if not forks:
                return
            pool_p, pool_m, start_sum, depth, plus_rows = forks.pop()
            del rows[depth:], alpha[plus_rows:], beta[depth - plus_rows:]
            u = -1
        elif not pool_m:
            u = 1
        elif not pool_p:
            u = -1
        else:
            # the minimal unused index of each sign starts a row when its
            # gamma reaches -u (delta - start_sum)
            need = delta - start_sum
            start_p = gam[(pool_p & -pool_p).bit_length() - 1] >= -need
            start_m = gam[(pool_m & -pool_m).bit_length() - 1] >= need
            if start_p:
                if start_m:
                    forks.append((pool_p, pool_m, start_sum, len(rows), len(alpha)))
                u = 1
            elif start_m:
                u = -1
            else:
                raise MalformedOutput("no admissible row start")
        mine, other = (pool_p, pool_m) if u == 1 else (pool_m, pool_p)
        b = mine & -mine
        mine ^= b
        row = b
        k = b.bit_length()
        total = gam[k - 1]
        sign = u
        while True:
            above = other >> k << k
            if not above:
                break
            b = above & -above
            other ^= b
            row |= b
            k = b.bit_length()
            total += gam[k - 1]
            mine, other, sign = other, mine, -sign
        pool_p, pool_m = (mine, other) if sign == 1 else (other, mine)
        rows.append(row)
        (alpha if u == 1 else beta).append(total)
        start_sum += tau * u


def green_tableaux(
    sd: SpringerIndexData, delta: int, tau: int
) -> list[GreenTableau]:
    """R(lam, eps, delta, tau), depth-first with the +1 branch explored
    first; each row is the tuple of its indices, ascending."""
    if delta < 1 or tau < 1:
        raise ValueError("delta and tau must be positive integers")
    out: list[GreenTableau] = []

    def close(rows, alpha, beta):
        out.append(
            GreenTableau(
                rows=tuple(map(_indices, rows)),
                params=(delta, tau),
                alpha=Partition(alpha),
                beta=Partition(beta),
            )
        )

    _walk_tableaux(*_checked_core(sd), delta, tau, close)
    return out


def p_set(sd: SpringerIndexData, delta: int, tau: int) -> set[Bipartition]:
    """P(lam, eps, delta, tau), deduplicated; empty off Springer type,
    ValueError outside P(lam)_0."""
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
    Raises ValueError outside P(lam)_0, as :func:`gamma_seq` does.
    """
    if sd.base.bp:
        raise BadParity(f"{sd.lam!r} is not of pure good parity")
    gt = sd.base.gt
    try:
        e_plus, gam = _checked_core(sd)
    except NotSpringerType:
        return False
    _, pairs = _tableau_summary(e_plus, gam, *delta_tau(gt))
    return not _e_pairs(gt).isdisjoint(pairs)


def _parts(values) -> tuple[int, ...]:
    """The parts tuple of Partition(values): zeros dropped, descending."""
    return tuple(sorted(filter(None, values), reverse=True))


def _tableau_summary(e_plus, gam, delta, tau):
    """The set of first rows of R(lam, eps, delta, tau), each an index
    bitmask (index i at bit i - 1), and the distinct (alpha, beta) parts
    pairs of P(lam, eps, delta, tau), in walk order."""
    first_rows = set()
    pairs = {}

    def leaf(rows, alpha, beta):
        # the one tableau of the empty partition has no rows
        first_rows.add(rows[0] if rows else 0)
        pairs[_parts(alpha), _parts(beta)] = None

    _walk_tableaux(e_plus, gam, delta, tau, leaf)
    return first_rows, tuple(pairs)


@functools.lru_cache(maxsize=None)
def _e_pairs(gt: GroupType) -> frozenset:
    """The family E^s_0, ..., E^s_n of gt as (alpha, beta) parts pairs,
    built once per group type."""
    return frozenset((e.alpha, e.beta) for e in e_family(gt.s, gt.n))


def character_sweep(ci: _ClassIndex):
    """Every character of P(lam)_0 with its tableaux at (Delta_G, tau_G).

    One pass over the class of the index ci, which :func:`_class_index`
    builds and refuses for a class with bad-parity parts; no
    :class:`CharFn` and no :class:`SpringerIndexData` is built.  Yields
    ``(sub, mask, first_rows, pairs, spherical)`` per member of P(lam)_0,
    its subset sub of S(lam) and S-index bitmask mask as
    :func:`components._p0_subsets` walks them, in :func:`char_group`
    order.  Off Springer type ``first_rows`` and ``pairs`` are None and
    ``spherical`` is False.  Otherwise ``first_rows`` is the set of first
    rows of R(lam, eps, Delta_G, tau_G), each an index bitmask (index i at
    bit i - 1, as :func:`x_eps` gives X_eps), ``pairs`` the distinct
    (alpha, beta) parts pairs of P(lam, eps, Delta_G, tau_G) in walk
    order, and ``spherical`` tells whether they meet the E^s family, as
    :func:`weakly_spherical` does.  Every gamma runs the self-checks of
    :func:`gamma_seq`.
    """
    gt = ci.base.gt
    delta, tau = delta_tau(gt)
    family = _e_pairs(gt)
    for sub, mask in _p0_subsets(ci.base):
        core = _gamma_core(ci, sub, mask)
        if core is None:
            yield sub, mask, None, None, False
            continue
        first_rows, pairs = _tableau_summary(*core, delta, tau)
        yield sub, mask, first_rows, pairs, not family.isdisjoint(pairs)


def weakly_spherical_general(cp: ClassPartition, eps: CharFn) -> bool:
    """Weak s-sphericity for arbitrary parity, via the lam^gp reduction."""
    if eps.base != cp:
        raise ValueError("eps is a character of a different class partition")
    if not cp.bp:
        return weakly_spherical(springer_data(cp, eps))
    sub = classify(cp.gp, GroupType(cp.gt.s, cp.gp.size))
    return weakly_spherical(springer_data(sub, CharFn(sub, eps.subset)))
