"""Irreducible representations of the hyperoctahedral group W_n.

Irr(W_n) is parameterized by ordered pairs (alpha, beta) of partitions
with |alpha| + |beta| = n.  The pair names the representation induced
from W_{|alpha|} x W_{|beta|} after extending the Specht module
V_alpha x V_beta by the product-of-signs character on the last |beta|
coordinates.  Under that model, induction multiplicities between
products of W-groups factor as a product of two symmetric-group
Littlewood-Richardson numbers, one per coordinate.

Two independent routes to the same numbers live here:

* the combinatorial route: Pieri sets, Littlewood-Richardson tableau
  counts (``lr_mult``) and the product rule (``induce_mult``);
* a brute-force oracle (``oracle_mult``) that tabulates actual
  characters of S_k and W_n over the rationals and decomposes induced
  characters by class sums.  No tableau rule enters the oracle:
  symmetric-group characters are carved out of Young permutation
  characters by orthogonalization down the dominance order, and W_n
  characters come from the defining extend-then-induce construction.

Weak s-sphericity asks for a constituent in the family
E^{+1}_i = ((n-i, i), -) resp. E^{-1}_i = ((n-i), (i)); the dimensions
of W_{n,i}-invariants (``invariant_dim``) and of sgn-isotypic homs
(``sgn_hom_dim``) are read off the same family.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import BoundExceeded, MalformedOutput
from .partitions import Partition, partitions_of, union

__all__ = [
    "LR_BOUND",
    "ORACLE_BOUND",
    "Bipartition",
    "bipartitions_of",
    "pieri",
    "lr_mult",
    "induce_mult",
    "induce_table",
    "dim_partition",
    "dim_bipartition",
    "e_rep",
    "e_family",
    "invariant_dim",
    "sgn_hom_dim",
    "is_weakly_s_spherical",
    "oracle_mult",
]

LR_BOUND = 24
ORACLE_BOUND = 6


@dataclass(frozen=True)
class Bipartition:
    """An ordered pair of partitions naming an element of Irr(W_n)."""

    alpha: Partition = Partition()
    beta: Partition = Partition()

    def __post_init__(self):
        if not isinstance(self.alpha, Partition):
            object.__setattr__(self, "alpha", Partition(self.alpha))
        if not isinstance(self.beta, Partition):
            object.__setattr__(self, "beta", Partition(self.beta))

    @property
    def n(self) -> int:
        return self.alpha.size + self.beta.size

    @classmethod
    def from_text(cls, text: str) -> "Bipartition":
        """Parse ``"[5,3|1,1]"``; brackets optional, either side may be empty."""
        text = text.strip()
        if text.startswith("[") and text.endswith("]"):
            text = text[1:-1]
        if "|" not in text:
            raise ValueError(f"bipartition text needs a '|' separator: {text!r}")
        left, _, right = text.partition("|")
        return cls(Partition.from_text(left), Partition.from_text(right))

    def to_text(self) -> str:
        """Render as ``[5,3|1,1]``, every part written out."""
        left = ",".join(str(p) for p in self.alpha)
        right = ",".join(str(p) for p in self.beta)
        return f"[{left}|{right}]"

    def __repr__(self):
        return f"Bipartition({self.to_text()!r})"


def bipartitions_of(n: int):
    """Yield all of Irr(W_n), |alpha| descending, reverse-lex within."""
    for a in range(n, -1, -1):
        betas = tuple(partitions_of(n - a))
        for alpha in partitions_of(a):
            for beta in betas:
                yield Bipartition(alpha, beta)


# ---- the combinatorial route


def pieri(lam, k: int) -> list:
    """All mu obtained from lam by adding k boxes, no two in the same column.

    Each mu occurs once in ind_{S_{n-k} x S_k}^{S_n} V_lam x V_(k), so a
    plain list is returned (reverse-lex order).
    """
    lam = lam if isinstance(lam, Partition) else Partition(lam)
    if k < 0:
        raise ValueError("k must be nonnegative")
    out = []

    def rec(i, left, prefix):
        if i == len(lam):
            if left == 0:
                out.append(Partition(prefix))
            elif not lam or left <= lam[-1]:
                # at most one fresh row fits; two would share column 0
                out.append(Partition(prefix + [left]))
            return
        lo = lam[i]
        hi = lam[i - 1] if i else lam[0] + left
        for v in range(lo, min(hi, lo + left) + 1):
            prefix.append(v)
            rec(i + 1, left - (v - lo), prefix)
            prefix.pop()

    rec(0, k, [])
    return sorted(out, reverse=True)


def lr_mult(mu, nu, lam) -> int:
    """The Littlewood-Richardson number <ind V_mu x V_nu, V_lam>.

    Counts semistandard fillings of lam/mu with content nu whose reverse
    reading word is a lattice word.  Returns 0 when the sizes do not add
    up or mu is not contained in lam; sizes above LR_BOUND raise
    :class:`BoundExceeded`.
    """
    mu = mu if isinstance(mu, Partition) else Partition(mu)
    nu = nu if isinstance(nu, Partition) else Partition(nu)
    lam = lam if isinstance(lam, Partition) else Partition(lam)
    if max(lam.size, mu.size + nu.size) > LR_BOUND:
        raise BoundExceeded(f"Littlewood-Richardson bound {LR_BOUND} exceeded")
    if mu.size + nu.size != lam.size:
        return 0
    if len(mu) > len(lam) or any(mu[i] > lam[i] for i in range(len(mu))):
        return 0
    padded = tuple(mu[i] if i < len(mu) else 0 for i in range(len(lam)))
    return _lr_count(lam, padded, nu)


@lru_cache(maxsize=None)
def _lr_count(lam, mu, nu):
    # cells in reverse reading order: rows top to bottom, right to left
    cells = [(r, c) for r in range(len(lam)) for c in range(lam[r] - 1, mu[r] - 1, -1)]
    grid = {}
    counts = [0] * (len(nu) + 1)
    remaining = list(nu)
    total = 0

    def place(idx):
        nonlocal total
        if idx == len(cells):
            total += 1
            return
        r, c = cells[idx]
        hi = grid.get((r, c + 1), len(nu))
        lo = grid[(r - 1, c)] + 1 if (r - 1, c) in grid else 1
        for v in range(lo, hi + 1):
            if not remaining[v - 1]:
                continue
            if v > 1 and counts[v - 1] <= counts[v]:
                continue  # lattice word: every prefix has #v <= #(v-1)
            grid[(r, c)] = v
            counts[v] += 1
            remaining[v - 1] -= 1
            place(idx + 1)
            remaining[v - 1] += 1
            counts[v] -= 1
            del grid[(r, c)]

    place(0)
    return total


def induce_mult(x: Bipartition, y: Bipartition, target: Bipartition) -> int:
    """<ind_{W_i x W_{n-i}}^{W_n} x x y, target>, a product of two LR numbers.

    Zero whenever the alpha/beta block sizes fail to match up.
    """
    if (
        x.alpha.size + y.alpha.size != target.alpha.size
        or x.beta.size + y.beta.size != target.beta.size
    ):
        return 0
    return lr_mult(x.alpha, y.alpha, target.alpha) * lr_mult(
        x.beta, y.beta, target.beta
    )


def induce_table(x: Bipartition, y: Bipartition) -> dict:
    """Full decomposition of ind x x y as {target: multiplicity}, zeros
    dropped, in :func:`bipartitions_of` order.  Only the targets with
    |alpha| = |x.alpha| + |y.alpha| and |beta| = |x.beta| + |y.beta| can occur."""
    nb = x.beta.size + y.beta.size
    betas = [(beta, m) for beta in partitions_of(nb) if (m := lr_mult(x.beta, y.beta, beta))]
    out = {}
    for alpha in partitions_of(x.alpha.size + y.alpha.size):
        m = lr_mult(x.alpha, y.alpha, alpha)
        if m:
            for beta, mb in betas:
                out[Bipartition(alpha, beta)] = m * mb
    return out


def dim_partition(lam) -> int:
    """dim V_lam, by the hook length formula."""
    lam = lam if isinstance(lam, Partition) else Partition(lam)
    if not lam:
        return 1
    tr = lam.transpose()
    hooks = 1
    for i, row in enumerate(lam):
        for j in range(row):
            hooks *= row - j + tr[j] - i - 1
    return math.factorial(lam.size) // hooks


def dim_bipartition(bp: Bipartition) -> int:
    """dim (alpha, beta) = C(n, |alpha|) dim V_alpha dim V_beta."""
    return (
        math.comb(bp.n, bp.alpha.size)
        * dim_partition(bp.alpha)
        * dim_partition(bp.beta)
    )


# ---- the E^s family and weak s-sphericity


def e_rep(s: int, n: int, i: int) -> Bipartition:
    """E^s_i in Irr(W_n).

    For s = +1 the pair (n-i, i) is stored sorted, so e_rep(1, n, i)
    and e_rep(1, n, n-i) agree.
    """
    if s not in (1, -1):
        raise ValueError("s must be +1 or -1")
    if not 0 <= i <= n:
        raise ValueError(f"need 0 <= i <= n = {n}, got i = {i}")
    if s == 1:
        return Bipartition(Partition((n - i, i)), Partition())
    return Bipartition(Partition((n - i,)), Partition((i,)))


@lru_cache(maxsize=None)
def e_family(s: int, n: int) -> tuple:
    """The distinct E^s_i: floor(n/2)+1 members for s = +1, n+1 for s = -1."""
    if s not in (1, -1):
        raise ValueError("s must be +1 or -1")
    top = n // 2 if s == 1 else n
    return tuple(e_rep(s, n, i) for i in range(top + 1))


def _as_counter(pi) -> Counter:
    """Normalize a representation to a multiset of bipartitions."""
    if isinstance(pi, Bipartition):
        return Counter({pi: 1})
    items = pi.items() if isinstance(pi, Mapping) else ((bp, 1) for bp in pi)
    out = Counter()
    for bp, m in items:
        if not isinstance(bp, Bipartition):
            raise ValueError(f"not a bipartition: {bp!r}")
        if m < 0:
            raise ValueError(f"negative multiplicity for {bp!r}")
        if m:
            out[bp] += m
    return out


def _degree(counts: Counter) -> int:
    ns = {bp.n for bp in counts}
    if len(ns) > 1:
        raise ValueError(f"mixed degrees in representation: {sorted(ns)}")
    return ns.pop() if ns else 0


def invariant_dim(pi, i: int) -> int:
    """dim pi^{W_{n,i}} = sum of the E^1_j multiplicities, j <= min(i, n-i)."""
    counts = _as_counter(pi)
    if not counts:
        return 0
    n = _degree(counts)
    if not 0 <= i <= n:
        raise ValueError(f"need 0 <= i <= n = {n}, got i = {i}")
    return sum(counts[e_rep(1, n, j)] for j in range(min(i, n - i) + 1))


def sgn_hom_dim(pi, i: int) -> int:
    """dim Hom_{W_{n,i}}(sgn x triv, pi) = <pi, E^{-1}_i>."""
    counts = _as_counter(pi)
    if not counts:
        return 0
    n = _degree(counts)
    if not 0 <= i <= n:
        raise ValueError(f"need 0 <= i <= n = {n}, got i = {i}")
    return counts[e_rep(-1, n, i)]


def is_weakly_s_spherical(pi, s: int) -> bool:
    """True when some E^s_i occurs in pi with nonzero multiplicity."""
    counts = _as_counter(pi)
    if not counts:
        return False
    n = _degree(counts)
    return any(counts[e] for e in e_family(s, n))


# ---- the character-theoretic oracle


def _zcyc(rho, scale: int = 1) -> int:
    """Centralizer order of the cycle type rho: prod (scale*r)^m_r m_r!."""
    z = 1
    for r in rho.supp:
        m = rho.mult(r)
        z *= (scale * r) ** m * math.factorial(m)
    return z


def _deal(cycles, targets) -> int:
    """Ways to deal a multiset of cycle lengths into rows of prescribed sums."""
    if not targets:
        return 1 if all(m == 0 for _, m in cycles) else 0
    first, rest = targets[0], targets[1:]
    total = 0

    def pick(idx, left, ways, taken):
        nonlocal total
        if idx == len(cycles):
            if left == 0:
                reduced = tuple(
                    (r, m - k) for (r, m), k in zip(cycles, taken)
                )
                total += ways * _deal(reduced, rest)
            return
        r, m = cycles[idx]
        for k in range(min(m, left // r) + 1):
            taken.append(k)
            pick(idx + 1, left - r * k, ways * math.comb(m, k), taken)
            taken.pop()

    pick(0, first, 1, [])
    return total


def _perm_char(mu, rho) -> int:
    """Value at class rho of the permutation character on S_n/S_mu."""
    cycles = tuple((r, rho.mult(r)) for r in rho.supp)
    return _deal(cycles, mu)


def _inner(f, g, rhos) -> Fraction:
    return sum((Fraction(f[rho] * g[rho], _zcyc(rho)) for rho in rhos), Fraction(0))


@lru_cache(maxsize=None)
def _sym_table(k: int) -> dict:
    """Character table of S_k as {lam: {rho: value}}.

    Built with no tableau combinatorics: Young permutation characters are
    orthogonalized in reverse-lex order, which extends dominance, so the
    residual at lam is exactly the Specht character of lam.
    """
    rhos = tuple(partitions_of(k))
    table = {}
    for lam in partitions_of(k):
        f = {rho: _perm_char(lam, rho) for rho in rhos}
        for chi in table.values():
            m = _inner(f, chi, rhos)
            if m:
                if m.denominator != 1:
                    raise MalformedOutput("non-integral Gram-Schmidt coefficient")
                f = {rho: f[rho] - m.numerator * chi[rho] for rho in rhos}
        if _inner(f, f, rhos) != 1:
            raise MalformedOutput(f"residual at {lam!r} is not irreducible")
        table[lam] = f
    return table


def _wn_classes(n: int) -> tuple:
    """Conjugacy classes of W_n: (positive, negative) cycle-type pairs."""
    return tuple((bp.alpha, bp.beta) for bp in bipartitions_of(n))


def _zwn(rp, rm) -> int:
    return _zcyc(rp, 2) * _zcyc(rm, 2)


def _splits(rho):
    """All ordered splits of the multiset rho into (sub, complement)."""
    values = rho.supp
    mults = [rho.mult(r) for r in values]
    for ks in itertools.product(*(range(m + 1) for m in mults)):
        sub = Partition(v for v, k in zip(values, ks) for _ in range(k))
        rest = Partition(
            v for v, k, m in zip(values, ks, mults) for _ in range(m - k)
        )
        yield sub, rest


def _class_terms(rp, rm, n: int) -> dict:
    """The induction-formula terms at the W_n class (rp, rm), by a.

    The extension of V_alpha x V_beta (|alpha| = a) evaluates, on a
    W_a x W_{n-a} class (sigma+, sigma-) x (tau+, tau-), to
    chi_alpha(sigma+ u sigma-) chi_beta(tau+ u tau-) (-1)^{#parts tau-}.
    Returns {a: {(sigma+ u sigma-, tau+ u tau-): weight}}, the weight
    summing sign times class size, scaled by the order of W_a x W_{n-a}
    so that it is an integer.
    """
    terms = {}
    for sp, tp in _splits(rp):
        for sm, tm in _splits(rm):
            a = sp.size + sm.size
            order = 2**n * math.factorial(a) * math.factorial(n - a)
            size, rem = divmod(order, _zwn(sp, sm) * _zwn(tp, tm))
            if rem:
                raise MalformedOutput("centralizer order does not divide the group order")
            key = (union(sp, sm), union(tp, tm))
            by_a = terms.setdefault(a, Counter())
            by_a[key] += -size if len(tm) % 2 else size
    return terms


@lru_cache(maxsize=None)
def _wn_table(n: int) -> dict:
    """Character table of W_n as {Bipartition: {class: value}}, every row
    listing the classes in :func:`_wn_classes` order.

    Class by class: the terms of a class are built once, and each value
    is one integer sum over the terms of its bipartition's a.
    """
    table = {bp: {} for bp in bipartitions_of(n)}
    for cls in _wn_classes(n):
        terms = _class_terms(*cls, n)
        z = _zwn(*cls)
        for bp, row in table.items():
            a, b = bp.alpha.size, bp.beta.size
            chi_a, chi_b = _sym_table(a)[bp.alpha], _sym_table(b)[bp.beta]
            acc = sum(chi_a[s] * chi_b[t] * w for (s, t), w in terms.get(a, {}).items())
            val, rem = divmod(acc * z, 2**n * math.factorial(a) * math.factorial(b))
            if rem:
                raise MalformedOutput("non-integral induced character value")
            row[cls] = val
    return table


@lru_cache(maxsize=None)
def _fusion(i: int, j: int) -> tuple:
    """How the classes of W_i x W_j fuse into those of W_n, n = i + j.

    One pair (positions, sizes) per class of W_i, in :func:`_wn_classes`
    order: for each class of W_j, in the same order, the position of the
    fused W_n class in that order and the size of the product class
    scaled by the order of W_i x W_j, so that it is an integer.  Depends
    on the degrees alone, so it holds no character value.
    """
    position = {cls: p for p, cls in enumerate(_wn_classes(i + j))}
    order = 2 ** (i + j) * math.factorial(i) * math.factorial(j)
    ys = [(rp, rm, _zwn(rp, rm)) for rp, rm in _wn_classes(j)]
    rows = []
    for rp1, rm1 in _wn_classes(i):
        z1 = _zwn(rp1, rm1)
        positions, sizes = [], []
        for rp2, rm2, z2 in ys:
            size, rem = divmod(order, z1 * z2)
            if rem:
                raise MalformedOutput("centralizer order does not divide the group order")
            fused = (
                tuple(sorted(rp1 + rp2, reverse=True)),
                tuple(sorted(rm1 + rm2, reverse=True)),
            )
            positions.append(position[fused])
            sizes.append(size)
        rows.append((tuple(positions), tuple(sizes)))
    return tuple(rows)


def oracle_mult(x: Bipartition, y: Bipartition) -> dict:
    """Decompose ind_{W_i x W_{n-i}}^{W_n} x x y by raw character sums.

    Returns the full table {target: multiplicity}, zeros dropped.  Works
    entirely from the rational character tables of W_i, W_{n-i} and W_n
    (no tableau rule is consulted), so it independently checks
    induce_mult.  The class fusion of W_i x W_{n-i} into W_n and the class
    sizes are built once per degree pair (:func:`_fusion`); the character
    values are read from the tables on every call.  Degrees above
    ORACLE_BOUND raise :class:`BoundExceeded` (|W_6| = 46080 is the
    largest group tabulated).
    """
    i, j = x.n, y.n
    n = i + j
    if n > ORACLE_BOUND:
        raise BoundExceeded(f"oracle limited to n <= {ORACLE_BOUND}, got {n}")
    table = _wn_table(n)
    chi_y = tuple(_wn_table(j)[y].values())
    # <x x y, res target> over W_i x W_{n-i}, class by class, scaled by the
    # group order so that every weight (character times class size) is an
    # integer.  Pieces that fuse to the same W_n class are merged at that
    # class's position in the table's rows, which all list the classes in
    # _wn_classes order, so each multiplicity is one integer dot product.
    # W_n has as many classes as irreducibles.
    weights = [0] * len(table)
    for v1, (positions, sizes) in zip(_wn_table(i)[x].values(), _fusion(i, j)):
        if v1:
            for p, w in zip(positions, map(operator.mul, sizes, chi_y)):
                weights[p] += v1 * w
    order = 2**n * math.factorial(i) * math.factorial(j)
    out = {}
    for target, chi in table.items():
        mult, rem = divmod(sum(map(operator.mul, weights, chi.values())), order)
        if rem or mult < 0:
            raise MalformedOutput("oracle produced a non-multiplicity")
        if mult:
            out[target] = mult
    return out
