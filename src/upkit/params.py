"""Integral A-parameters, L-parameters, and weak packet decompositions.

An A-parameter is encoded as a *table*: a multiset of pairs (a, b) with
sum of a*b equal to N, entry (a, b) standing for the summand
z q^. (x) nu_a (x) nu_b.  Tables here are always integral and unramified;
``z`` is the global sign label (z = -1 only occurs for s = -1, where the
dual group has a center to see it).

The near-tempered tables attached to a class partition lam are

    m_{lam, J} = {(a, 1) : a in lam minus the union of (c-1, c+1)}
                 union {(c, 2) : c in J},        J subset of J(lam),

whose partitions p(m_{lam,J}) sweep out the piece cube of lam.  Their
L-parameters share the infinitesimal character chi_{z,lam}, and among all
self-dual parameters with that character they are exactly the ones whose
SL2-partition has the same dual as lam; :func:`verify_almost_intro`
checks that equality by brute force.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass

from .components import block_structure, canonical_subgroup, char_group_order, t_character
from .errors import BoundExceeded, MalformedOutput, NotCanonical, NotInJ
from .partitions import ClassPartition, GroupType, Partition, classify, difference, dominates
from .pieces import bvls_dual, special_piece

__all__ = [
    "ATable",
    "InfChar",
    "LParam",
    "near_tempered_table",
    "tempered_table",
    "l_param_of_table",
    "inf_char",
    "chi_z_lambda",
    "WeakPacketRow",
    "weak_packet",
    "packets_containing",
    "enumerate_lparams_with_inf_char",
    "verify_almost_intro",
]

ENUM_BOUND = 16


@dataclass(frozen=True)
class ATable:
    """A multiset of (a, b) entries with the global sign z.

    Entries of *good parity* are those with a + b even for s = +1, odd
    for s = -1; a table is valid when every entry of bad parity occurs an
    even number of times (so the total representation has the right
    self-duality) and the dimensions a*b sum to N.
    """

    entries: tuple[tuple[int, int], ...]
    gt: GroupType
    z: int

    def __post_init__(self) -> None:
        entries = tuple(sorted((int(a), int(b)) for a, b in self.entries))
        object.__setattr__(self, "entries", entries)
        if self.z not in (1, -1):
            raise ValueError("z must be +1 or -1")
        if self.z == -1 and self.gt.s == 1:
            raise ValueError("z = -1 needs a dual group with a center (s = -1)")
        total = sum(a * b for a, b in entries)
        if total != self.gt.N:
            raise ValueError(f"dimensions sum to {total}, expected {self.gt.N}")
        counts = Counter(entries)
        want = 0 if self.gt.s == 1 else 1
        for (a, b), m in counts.items():
            if (a + b) % 2 != want and m % 2 == 1:
                raise ValueError(
                    f"bad-parity entry {(a, b)} has odd multiplicity {m}"
                )

    def is_good(self, entry: tuple[int, int]) -> bool:
        a, b = entry
        return (a + b) % 2 == (0 if self.gt.s == 1 else 1)

    def gp_indices(self) -> tuple[int, ...]:
        """Indices (into ``entries``) of the good-parity entries."""
        return tuple(i for i, e in enumerate(self.entries) if self.is_good(e))

    def near_tempered(self) -> bool:
        """b in {1, 2} on every good-parity entry."""
        return all(self.entries[i][1] in (1, 2) for i in self.gp_indices())

    def p(self) -> Partition:
        """The associated partition: each (a, b) contributes b parts a."""
        return Partition(a for a, b in self.entries for _ in range(b))

    def to_json(self) -> dict:
        return {
            "entries": [{"a": a, "b": b} for a, b in self.entries],
            "z": self.z,
        }


@dataclass(frozen=True)
class InfChar:
    """An infinitesimal character: the multiset of exponents, doubled.

    ``eigen`` stores integers j standing for the Frobenius eigenvalue
    z q^{j/2}; the multiset is symmetric under j -> -j.
    """

    z: int
    eigen: tuple[int, ...]

    def __post_init__(self) -> None:
        eigen = tuple(sorted(self.eigen, reverse=True))
        object.__setattr__(self, "eigen", eigen)
        if Counter(eigen) != Counter(-j for j in eigen):
            raise ValueError("eigenvalue multiset is not symmetric under j -> -j")

    def integral(self) -> bool:
        """True when every exponent j/2 is a (rational) integer, i.e. all
        stored doubles are even."""
        return all(j % 2 == 0 for j in self.eigen)

    def to_json(self) -> dict:
        return {"z": self.z, "eigen": list(self.eigen)}


@dataclass(frozen=True)
class LParam:
    """A self-dual unramified L-parameter with all signs equal to z.

    ``summands`` is a multiset of (j2, k): the twist z q^{j2/2} tensored
    with nu_k.  Self-duality means invariance under j2 -> -j2.
    """

    z: int
    summands: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        summands = tuple(sorted((int(j2), int(k)) for j2, k in self.summands))
        object.__setattr__(self, "summands", summands)
        if self.z not in (1, -1):
            raise ValueError("z must be +1 or -1")
        if Counter(summands) != Counter((-j2, k) for j2, k in summands):
            raise ValueError("summand multiset is not self-dual")
        if any(k < 1 for _, k in summands):
            raise ValueError("summand dimensions must be positive")

    @property
    def N(self) -> int:
        return sum(k for _, k in self.summands)

    def sl2_partition(self) -> Partition:
        """The restriction to the Arthur SL2 is trivial here; this is the
        partition of Frobenius-semisimplified SL2-dimensions k."""
        return Partition(k for _, k in self.summands)

    def to_json(self) -> list:
        return [{"z": self.z, "j2": j2, "k": k} for j2, k in self.summands]


def near_tempered_table(cp: ClassPartition, J, z: int = 1) -> ATable:
    """The table m_{lam, J} for J inside J(lam).

    Raises :class:`NotInJ` when J is not a subset of J(lam).
    """
    J = frozenset(J)
    allowed = block_structure(cp).J_set
    if not J <= allowed:
        raise NotInJ(f"{sorted(J - allowed)} not in J(lam) = {sorted(allowed)}")
    removed = [v for c in J for v in (c - 1, c + 1) if v >= 1]
    rest = difference(cp.lam, removed)
    entries = [(a, 1) for a in rest] + [(c, 2) for c in J]
    return ATable(tuple(entries), cp.gt, z)


def tempered_table(cp: ClassPartition, z: int = 1) -> ATable:
    """i(lam): the table of the tempered parameter of lam."""
    return near_tempered_table(cp, frozenset(), z)


def l_param_of_table(m: ATable) -> LParam:
    """Restrict the A-parameter to the Langlands SL2: each entry (a, b)
    spreads into b summands z q^{(2r - b + 1)/2} (x) nu_a."""
    summands = [
        (2 * r - b + 1, a) for a, b in m.entries for r in range(b)
    ]
    return LParam(m.z, tuple(summands))


def inf_char(x) -> InfChar:
    """The infinitesimal character of an LParam or an ATable."""
    if isinstance(x, ATable):
        x = l_param_of_table(x)
    eigen = [
        j2 + k - 1 - 2 * i for j2, k in x.summands for i in range(k)
    ]
    return InfChar(x.z, tuple(eigen))


def chi_z_lambda(cp: ClassPartition, z: int = 1) -> InfChar:
    """chi_{z, lam}: the infinitesimal character of the tempered table."""
    return inf_char(tempered_table(cp, z))


@dataclass(frozen=True)
class WeakPacketRow:
    """One L-packet inside the weak packet of lam."""

    J: frozenset[int]
    mu: ClassPartition
    table: ATable
    phi: LParam
    lpacket_size: int


def weak_packet(cp: ClassPartition, z: int = 1) -> list[WeakPacketRow]:
    """The decomposition rows of the weak packet attached to lam.

    One row per member mu = T_down(lam, J) of the piece cube; the
    L-packet sizes |P(mu)_0| sum to the weak packet cardinality.
    """
    rows = []
    for J, mu in special_piece(cp):
        table = near_tempered_table(cp, J, z)
        rows.append(
            WeakPacketRow(
                J=J,
                mu=mu,
                table=table,
                phi=l_param_of_table(table),
                lpacket_size=char_group_order(mu),
            )
        )
    return rows


def packets_containing(cp: ClassPartition, eps, z: int = 1) -> list[tuple[frozenset[int], ATable]]:
    """All (J, m_{lam,J}) whose packet contains the member labelled eps.

    ``eps`` must lie in the canonical subgroup Pdagger(lam)_0 (error
    :class:`NotCanonical`); the packet for J contains it exactly when
    t_c(eps) != 1 for every c in J, so J = empty set always qualifies.
    """
    if eps.base != cp or eps not in canonical_subgroup(cp):
        raise NotCanonical(f"{eps!r} not in the canonical subgroup of {cp.lam!r}")
    Jall = sorted(block_structure(cp).J_set)
    ts = {c: t_character(cp, c) for c in Jall}
    hits = [c for c in Jall if ts[c](eps) != 1]
    out = []
    for k in range(len(hits) + 1):
        for combo in itertools.combinations(hits, k):
            J = frozenset(combo)
            out.append((J, near_tempered_table(cp, J, z)))
    return out


@functools.lru_cache(maxsize=None)
def _run_decompositions(remaining: tuple[int, ...]) -> frozenset:
    """All self-dual ways to cover the symmetric descending multiset
    ``remaining`` by runs {j2+k-1, j2+k-3, ..., j2-k+1}; each cover is a
    sorted summand tuple (j2, k), invariant under j2 -> -j2.

    The run through the top value starts there; it is removed together
    with its mirror (-j2, k), or alone when j2 = 0, which leaves the
    remainder symmetric.
    """
    if not remaining:
        return frozenset({()})
    counts = Counter(remaining)
    top = remaining[0]
    out = set()
    for k in range(1, len(remaining) + 1):
        run = Counter(top - 2 * i for i in range(k))
        if any(counts[v] < c for v, c in run.items()):
            break  # every longer run contains this one
        j2 = top - k + 1
        pair = ((j2, k),) if j2 == 0 else ((j2, k), (-j2, k))
        # the mirror run is the negated run; the two may overlap
        used = run if j2 == 0 else run + Counter(-v for v in run.elements())
        if any(counts[v] < c for v, c in used.items()):
            continue
        rest = tuple(sorted((counts - used).elements(), reverse=True))
        for tail in _run_decompositions(rest):
            out.add(tuple(sorted(tail + pair)))
    return frozenset(out)


def enumerate_lparams_with_inf_char(
    chi: InfChar, gt: GroupType, bound: int = ENUM_BOUND
) -> list[LParam]:
    """Every self-dual L-parameter of type gt with infinitesimal character chi.

    Exhaustive search over the self-dual run covers of the eigenvalue
    multiset; kept are the covers whose j2 = 0 summands of the wrong
    symmetry (symplectic nu_k for s = +1, orthogonal for s = -1) pair up.
    Raises :class:`BoundExceeded` when the dimension exceeds ``bound``.
    """
    N = len(chi.eigen)
    if N != gt.N:
        raise ValueError(f"character has {N} eigenvalues, expected {gt.N}")
    if N > bound:
        raise BoundExceeded(f"N = {N} exceeds enumeration bound {bound}")
    if chi.z == -1 and gt.s == 1:
        raise ValueError("z = -1 needs a dual group with a center (s = -1)")
    found = []
    for summands in sorted(_run_decompositions(chi.eigen)):
        counts = Counter(summands)
        if counts != Counter((-j2, k) for j2, k in summands):
            raise MalformedOutput(f"run cover {summands} is not self-dual")
        ok = True
        for (j2, k), m in counts.items():
            if j2 == 0 and k % 2 == (0 if gt.s == 1 else 1) and m % 2 == 1:
                ok = False
                break
        if ok:
            found.append(LParam(chi.z, summands))
    return found


@dataclass(frozen=True)
class AlmostIntroReport:
    ok: bool
    expected: frozenset
    found: frozenset


def verify_almost_intro(cp: ClassPartition, z: int = 1, bound: int = ENUM_BOUND) -> AlmostIntroReport:
    """Check that the parameters with character chi_{z,lam} and the same
    dual as lam are exactly the near-tempered family of the piece cube."""
    expected = frozenset(
        l_param_of_table(near_tempered_table(cp, J, z))
        for J, _ in special_piece(cp)
    )
    d_lam = bvls_dual(cp)
    found = set()
    for phi in enumerate_lparams_with_inf_char(chi_z_lambda(cp, z), cp.gt, bound):
        lam_phi = classify(phi.sl2_partition(), cp.gt)
        if bvls_dual(lam_phi) == d_lam:
            found.add(phi)
    return AlmostIntroReport(ok=(frozenset(found) == expected), expected=expected, found=frozenset(found))


def closure_bounded(chi: InfChar, cp: ClassPartition, bound: int = ENUM_BOUND) -> bool:
    """Tempered-closure check: every parameter with character chi_{z,lam}
    has SL2-partition dominated by lam."""
    for phi in enumerate_lparams_with_inf_char(chi, cp.gt, bound):
        if not dominates(cp.lam, phi.sl2_partition()):
            return False
    return True
