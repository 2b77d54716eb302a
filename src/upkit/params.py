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
checks that equality by brute force for z = 1.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from operator import index, itemgetter

from .components import (
    _check_canonical,
    _neighbours,
    _subsets_in_order,
    _within_J,
    block_structure,
    char_group_order,
    t_character,
)
from .errors import BoundExceeded, MalformedOutput
from .partitions import ClassPartition, GroupType, Partition, cached_field, classify, difference
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


def _check_z(z: int, gt: GroupType | None = None) -> int:
    """z as an int (:class:`TypeError` for a float or a string): +1 or -1,
    and -1 only for s = -1, where the dual group has a center to see it
    (checked when gt is given)."""
    z = index(z)
    if z not in (1, -1):
        raise ValueError("z must be +1 or -1")
    if z == -1 and gt is not None and gt.s == 1:
        raise ValueError("z = -1 needs a dual group with a center (s = -1)")
    return z


@dataclass(frozen=True)
class ATable:
    """A multiset of (a, b) entries with the global sign z.

    Entries of *good parity* are those with a + b even for s = +1, odd
    for s = -1; a table is valid when every entry of bad parity occurs an
    even number of times (so the total representation has the right
    self-duality) and the dimensions a*b sum to N.  The derived data
    below are computed once per table and kept in its ``__dict__``, out
    of the fields that equality, hashing and ``repr`` read.
    """

    entries: tuple[tuple[int, int], ...]
    gt: GroupType
    z: int

    def __post_init__(self) -> None:
        entries = tuple(sorted([(index(a), index(b)) for a, b in self.entries]))
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "z", _check_z(self.z, self.gt))
        total = sum(a * b for a, b in entries)
        if total != self.gt.N:
            raise ValueError(f"dimensions sum to {total}, expected {self.gt.N}")
        # sorted, so the bad entries pair up exactly when their list
        # splits into equal neighbours
        bad = [e for e in entries if not self.is_good(e)]
        if bad[0::2] != bad[1::2]:
            entry, m = next((e, m) for e, m in Counter(bad).items() if m % 2)
            raise ValueError(f"bad-parity entry {entry} has odd multiplicity {m}")

    @classmethod
    def _trusted(cls, entries: tuple[tuple[int, int], ...], gt: GroupType, z: int) -> "ATable":
        """Build without validation, from sorted int entries whose
        dimensions sum to gt.N, every bad-parity entry of even
        multiplicity, and a z already checked against gt."""
        m = object.__new__(cls)
        object.__setattr__(m, "entries", entries)
        object.__setattr__(m, "gt", gt)
        object.__setattr__(m, "z", z)
        return m

    def is_good(self, entry: tuple[int, int]) -> bool:
        a, b = entry
        return (a + b) % 2 == (0 if self.gt.s == 1 else 1)

    @cached_field
    def gp_indices(self) -> tuple[int, ...]:
        """Indices (into ``entries``) of the good-parity entries."""
        return tuple(i for i, e in enumerate(self.entries) if self.is_good(e))

    @cached_field
    def near_tempered(self) -> bool:
        """b in {1, 2} on every good-parity entry."""
        return all(self.entries[i][1] in (1, 2) for i in self.gp_indices)

    @cached_field
    def support(self) -> tuple[tuple[int, int], ...]:
        """S(m): the distinct good-parity entries, sorted."""
        return tuple(sorted({self.entries[i] for i in self.gp_indices}))

    @cached_field
    def support_mf(self) -> tuple[tuple[int, int], ...]:
        """S(m^mf): the good-parity entries of odd multiplicity."""
        counts = Counter(self.entries[i] for i in self.gp_indices)
        return tuple(sorted(e for e, c in counts.items() if c % 2))

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
        eigen = tuple(sorted(map(index, self.eigen), reverse=True))
        object.__setattr__(self, "z", index(self.z))
        object.__setattr__(self, "eigen", eigen)
        # descending, so symmetric exactly when it reads back negated
        if eigen != tuple(-j for j in reversed(eigen)):
            raise ValueError("eigenvalue multiset is not symmetric under j -> -j")

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
        summands = tuple(sorted([(index(j2), index(k)) for j2, k in self.summands]))
        object.__setattr__(self, "summands", summands)
        object.__setattr__(self, "z", _check_z(self.z))
        if summands != tuple(sorted([(-j2, k) for j2, k in summands])):
            raise ValueError("summand multiset is not self-dual")
        if any(k < 1 for _, k in summands):
            raise ValueError("summand dimensions must be positive")

    @classmethod
    def _trusted(cls, z: int, summands: tuple[tuple[int, int], ...]) -> "LParam":
        """Build without validation, from a sorted self-dual summand tuple
        with positive k and a z already checked to be +1 or -1."""
        phi = object.__new__(cls)
        object.__setattr__(phi, "z", z)
        object.__setattr__(phi, "summands", summands)
        return phi

    @property
    def N(self) -> int:
        return sum(k for _, k in self.summands)

    def to_json(self) -> list:
        return [{"z": self.z, "j2": j2, "k": k} for j2, k in self.summands]


def near_tempered_table(cp: ClassPartition, J, z: int = 1) -> ATable:
    """The table m_{lam, J} for J inside J(lam).

    Raises :class:`NotInJ` when J is not a subset of J(lam).
    """
    J = _within_J(cp, J)
    z = _check_z(z, cp.gt)
    # a c in J(lam) has bad parity and its neighbours good parity, so
    # (c, 2) is a good entry whose dimension 2c is the sum of the parts it
    # replaces, and the bad-parity parts of lam stay paired; index() refuses
    # a float that equals a value of J(lam)
    removed = [v for c in J for v in _neighbours(c)]
    rest = difference(cp.lam, removed)
    entries = [(a, 1) for a in rest] + [(index(c), 2) for c in J]
    return ATable._trusted(tuple(sorted(entries)), cp.gt, z)


def tempered_table(cp: ClassPartition, z: int = 1) -> ATable:
    """i(lam): the table of the tempered parameter of lam."""
    return near_tempered_table(cp, frozenset(), z)


def l_param_of_table(m: ATable) -> LParam:
    """Restrict the A-parameter to the Langlands SL2: each entry (a, b)
    spreads into b summands z q^{(2r - b + 1)/2} (x) nu_a."""
    summands = sorted([(2 * r - b + 1, a) for a, b in m.entries for r in range(b)])
    # each entry spreads symmetrically about j2 = 0 and the table checked
    # its z, so of LParam's rules only the positive k is left to check
    if any(a < 1 for a, b in m.entries if b > 0):
        raise ValueError("summand dimensions must be positive")
    return LParam._trusted(m.z, tuple(summands))


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


def weak_packet(cp: ClassPartition, z: int = 1) -> tuple[WeakPacketRow, ...]:
    """The decomposition rows of the weak packet attached to lam.

    One row per member mu = T_down(lam, J) of the piece cube; the
    L-packet sizes |P(mu)_0| sum to the weak packet cardinality.  Built
    on every call; the CLI keeps its encoded listing instead.
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
    return tuple(rows)


def _member_moves(cp: ClassPartition, eps) -> frozenset[int]:
    """The c in J(lam) with t_c(eps) != 1: the packet for J contains the
    member labelled eps exactly when J lies inside this set, so J = empty
    set always qualifies.

    ``eps`` must lie in the canonical subgroup Pdagger(lam)_0 (error
    :class:`NotCanonical`).
    """
    _check_canonical(cp, eps)
    return frozenset(c for c in block_structure(cp).J_set if t_character(cp, c)(eps) != 1)


def packets_containing(cp: ClassPartition, eps, z: int = 1) -> list[tuple[frozenset[int], ATable]]:
    """All (J, m_{lam,J}) whose packet contains the member labelled eps:
    one per subset J of :func:`_member_moves`, smallest-first.  Raises
    :class:`NotCanonical` unless eps lies in Pdagger(lam)_0."""
    return [(J, near_tempered_table(cp, J, z)) for J in _subsets_in_order(_member_moves(cp, eps))]


def _take(counts: dict, values) -> bool:
    """Take each of ``values`` once from ``counts``; False when one is
    not there (the counts are then spoiled)."""
    for v in values:
        if not counts.get(v):
            return False
        counts[v] -= 1
    return True


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
    # keys in descending order, since ``remaining`` descends
    counts = {}
    for v in remaining:
        counts[v] = counts.get(v, 0) + 1
    top = remaining[0]
    out = set()
    for k in range(1, len(remaining) + 1):
        # the run's values are distinct, and the first k - 1 fit
        if top - 2 * (k - 1) not in counts:
            break  # every longer run contains this one
        j2 = top - k + 1
        run = range(top, top - 2 * k, -2)
        left = counts.copy()
        _take(left, run)
        # the mirror run is the negated run; the two may overlap
        if j2 and not _take(left, [-v for v in run]):
            continue
        pair = ((j2, k),) if j2 == 0 else ((j2, k), (-j2, k))
        rest = tuple(v for v, c in left.items() for _ in range(c))
        out.update([tuple(sorted(tail + pair)) for tail in _run_decompositions(rest)])
    return frozenset(out)


def _gated_covers(chi: InfChar, gt: GroupType):
    """Yield the run covers of chi that are L-parameters of type gt,
    unordered, in one pass over the covers.  Each must pass the self-dual
    gate, and is yielded when its j2 = 0 summands of the wrong symmetry
    (symplectic nu_k for s = +1, orthogonal for s = -1) pair up.

    Raises :class:`BoundExceeded` when the dimension exceeds ENUM_BOUND.
    """
    N = len(chi.eigen)
    if N != gt.N:
        raise ValueError(f"character has {N} eigenvalues, expected {gt.N}")
    if N > ENUM_BOUND:
        raise BoundExceeded(f"N = {N} exceeds enumeration bound {ENUM_BOUND}")
    _check_z(chi.z, gt)
    wrong = 0 if gt.s == 1 else 1  # parity of the k whose nu_k has the wrong symmetry
    for summands in _run_decompositions(chi.eigen):
        # a sorted self-dual cover equals its sorted mirror; passing this
        # gate is what lets the cover skip LParam's own validation (read
        # backwards, the mirror is nearly sorted already)
        if summands != tuple(sorted([(-j2, k) for j2, k in reversed(summands)])):
            raise MalformedOutput(f"run cover {summands} is not self-dual")
        # the cover is sorted, so the wrong-symmetry j2 = 0 summands pair
        # up when their list splits into equal neighbours
        ks = [k for j2, k in summands if j2 == 0 and k % 2 == wrong]
        if not ks or ks[0::2] == ks[1::2]:
            yield summands


def enumerate_lparams_with_inf_char(chi: InfChar, gt: GroupType) -> list[LParam]:
    """Every self-dual L-parameter of type gt with infinitesimal character chi.

    Exhaustive search over the self-dual run covers of the eigenvalue
    multiset; kept are the covers whose j2 = 0 summands of the wrong
    symmetry (symplectic nu_k for s = +1, orthogonal for s = -1) pair up.
    Raises :class:`BoundExceeded` when the dimension exceeds ENUM_BOUND.
    """
    return [LParam._trusted(chi.z, summands) for summands in sorted(_gated_covers(chi, gt))]


@dataclass(frozen=True)
class AlmostIntroReport:
    ok: bool
    expected: frozenset
    found: frozenset


def verify_almost_intro(cp: ClassPartition, duals: dict | None = None) -> AlmostIntroReport:
    """Check that the parameters with character chi_{1,lam} and the same
    dual as lam are exactly the near-tempered family of the piece cube.

    Each distinct SL2-partition is dualized once, into ``duals``: a dict
    from the ascending tuple of the partition to the partition of its
    dual.  A partition fixes its group type by its size, so a caller
    that checks many classes may pass one dict to all of them.
    """
    if duals is None:
        duals = {}
    expected = frozenset(
        l_param_of_table(near_tempered_table(cp, J))
        for J in _subsets_in_order(block_structure(cp).J_set)
    )
    d_lam = bvls_dual(cp).lam
    chi = chi_z_lambda(cp)
    found = set()
    for summands in _gated_covers(chi, cp.gt):
        ks = tuple(sorted(map(itemgetter(1), summands)))
        dual = duals.get(ks)
        if dual is None:
            dual = duals[ks] = bvls_dual(classify(Partition(ks), cp.gt)).lam
        if dual == d_lam:
            found.add(LParam._trusted(chi.z, summands))
    return AlmostIntroReport(ok=(found == expected), expected=expected, found=frozenset(found))
