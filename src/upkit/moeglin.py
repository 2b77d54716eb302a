"""Moeglin-style parameters of near-tempered A-parameters and their moves.

A member pi of the packet attached to a table m carries an invariant
(l, eta) in W(m): l(i) runs over 0..b_i/2 on the good-parity indices of
m, and eta assigns a sign wherever l(i) < b_i/2 (the set R_l).  For
s = -1 a phantom entry (a_0, b_0) = (0, 1) with pinned l = 0, eta = +1
sits below everything; it is addressed as the virtual entry index -1
and as the move slot k = 0.

A linear order x_1 < ... < x_t on the good-parity indices is
*admissible* when every i < j satisfies beta_{x_i} <= beta_{x_j}, or
the three conditions beta_{x_1} >= 0, beta_{x_i} > beta_{x_j} >= 0 and
alpha_{x_i} <= alpha_{x_j} hold; here alpha = a + b and beta = a - b.
*Standard* means the a's ascend along the order.  The sign correction

    gamma(i) = (-1)^{|Z_i|},   Z_i = {j < i : a_j = a_i + 1}
                                     cup {j > i : a_j = a_i - 1},

is identically 1 on standard orders, and the Arthur character of the
member, as a boolean function eps on the distinct good entries S(m),
is read off the parameter by

    (-1)^{eps(a_i, b_i)} = gamma(i) (-1)^{b_i//2 + l(i)} eta(i)^{b_i}

when l(i) < b_i/2, and gamma(i) alone when l(i) = b_i/2.

The move between packets: adjacent entries (a, 1), (a + 2, 1) carrying
opposite signs merge into (a + 1, 2), transporting l = 0 and the lower
sign.  Everything is restricted to near-tempered tables (b in {1, 2}
on good entries), the regime where the formulas above are closed-form.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from math import prod
from operator import index

from .components import CharFn, char_group, t_character
from .errors import BoundExceeded, MalformedOutput, MoveNotApplicable
from .params import ATable, near_tempered_table, tempered_table
from .partitions import ClassPartition, cached_field

__all__ = [
    "PHANTOM",
    "TableChar",
    "MoeglinParam",
    "AdmissibleOrder",
    "standard_order",
    "moeglin_params",
    "admissible_orders",
    "gamma",
    "arthur_character",
    "merge_move",
    "tempered_intersection",
    "merge_chains",
    "merge_chain",
]

PHANTOM = -1
PARAM_BOUND = 12
ORDER_BOUND = 9
_PARAM_CAP = 2_000_000


@dataclass(frozen=True)
class TableChar:
    """A boolean function on S(m), stored as the subset where it is 1."""

    table: ATable
    subset: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        subset = frozenset(tuple(e) for e in self.subset)
        extra = subset.difference(self.table.support)
        if extra:
            raise ValueError(f"entries {sorted(extra)} not in S(m)")
        object.__setattr__(self, "subset", subset)

    @classmethod
    def _trusted(cls, table: ATable, subset: frozenset) -> "TableChar":
        """Build without validation, from a frozenset of (a, b) tuples
        inside S(m)."""
        eps = object.__new__(cls)
        object.__setattr__(eps, "table", table)
        object.__setattr__(eps, "subset", subset)
        return eps

    def indicator(self, entry) -> int:
        return 1 if tuple(entry) in self.subset else 0

    def sign(self, entry) -> int:
        return -1 if tuple(entry) in self.subset else 1

    @property
    def in_P0(self) -> bool:
        return len(self.subset.intersection(self.table.support_mf)) % 2 == 0


@dataclass(frozen=True)
class MoeglinParam:
    """A pair (l, eta) in W(m), stored as sorted (index, value) pairs.

    The phantom index -1 is never stored; l_of/eta_of answer for it with
    the pinned values when the table has s = -1.  They read maps built
    once per parameter, kept out of the fields.
    """

    table: ATable
    l: tuple[tuple[int, int], ...]
    eta: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        l = tuple(sorted([(index(i), index(v)) for i, v in self.l]))
        eta = tuple(sorted([(index(i), index(v)) for i, v in self.eta]))
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "eta", eta)
        gp = self.table.gp_indices
        if tuple([i for i, _ in l]) != gp:
            raise ValueError(f"l must be defined exactly on the good indices {gp}")
        entries = self.table.entries
        in_R = []
        for i, v in l:
            b = entries[i][1]
            if not 0 <= 2 * v <= b:
                raise ValueError(f"l({i}) = {v} outside 0..{b}/2")
            if 2 * v < b:
                in_R.append(i)
        in_R = tuple(in_R)
        if tuple([i for i, _ in eta]) != in_R:
            raise ValueError(f"eta must be defined exactly on R_l = {in_R}")
        if any(v not in (1, -1) for _, v in eta):
            raise ValueError("eta values must be +1 or -1")

    @classmethod
    def _trusted(cls, table: ATable, l: tuple, eta: tuple) -> "MoeglinParam":
        """Build without validation, from (index, value) tuples sorted by
        index: l on exactly the good indices of the table, each value in
        0..b/2, and eta of +1 or -1 on exactly R_l."""
        mp = object.__new__(cls)
        object.__setattr__(mp, "table", table)
        object.__setattr__(mp, "l", l)
        object.__setattr__(mp, "eta", eta)
        return mp

    @cached_field
    def _l_map(self) -> dict[int, int]:
        return {**dict(self.l), PHANTOM: 0} if self.table.gt.s == -1 else dict(self.l)

    @cached_field
    def _eta_map(self) -> dict[int, int]:
        return {**dict(self.eta), PHANTOM: 1} if self.table.gt.s == -1 else dict(self.eta)

    def l_of(self, i: int) -> int:
        return self._l_map[i]

    def eta_of(self, i: int) -> int:
        return self._eta_map[i]

    def to_json(self) -> dict:
        return {
            "l": {str(i): v for i, v in self.l},
            "eta": {str(i): v for i, v in self.eta},
        }


def _admissible(m: ATable, order) -> bool:
    alpha = [m.entries[i][0] + m.entries[i][1] for i in order]
    beta = [m.entries[i][0] - m.entries[i][1] for i in order]
    for i in range(len(order)):
        for j in range(i + 1, len(order)):
            if beta[i] <= beta[j]:
                continue
            if beta[0] >= 0 and beta[j] >= 0 and alpha[i] <= alpha[j]:
                continue
            return False
    return True


@dataclass(frozen=True)
class AdmissibleOrder:
    """A linear order on the good-parity indices of a table.

    The defining beta/alpha condition is enforced on construction; the
    phantom is implicitly below the whole order and never listed.  The
    gamma signs are computed once per order, kept out of the fields.
    """

    table: ATable
    order: tuple[int, ...]

    def __post_init__(self) -> None:
        order = tuple(map(index, self.order))
        object.__setattr__(self, "order", order)
        if tuple(sorted(order)) != self.table.gp_indices:
            raise ValueError(
                f"order must permute the good indices {self.table.gp_indices}"
            )
        if not _admissible(self.table, order):
            raise ValueError(f"{order} violates the admissibility condition")

    @cached_field
    def _gamma_signs(self) -> dict[int, int]:
        """(-1)^{|Z_i|} at every index, in one pass: the entries with
        a_j = a_i + 1 before i, plus those with a_j = a_i - 1 after it."""
        a_of = [self.table.entries[i][0] for i in self.order]
        # get(), since a Counter answers a missing key through a Python call
        after = Counter(a_of)
        before = {}
        signs = {}
        for i, a in zip(self.order, a_of):
            after[a] -= 1
            signs[i] = -1 if (before.get(a + 1, 0) + after.get(a - 1, 0)) % 2 else 1
            before[a] = before.get(a, 0) + 1
        return signs

    @property
    def standard(self) -> bool:
        a = [self.table.entries[i][0] for i in self.order]
        return all(x <= y for x, y in zip(a, a[1:]))


def standard_order(m: ATable) -> AdmissibleOrder:
    """The standard admissible order: entries ascending."""
    return AdmissibleOrder(
        m, tuple(sorted(m.gp_indices, key=lambda i: (m.entries[i], i)))
    )


def moeglin_params(m: ATable) -> list[MoeglinParam]:
    """All of W(m): l(i) in 0..b_i/2, a sign wherever l(i) < b_i/2."""
    gp = m.gp_indices
    if not (m.near_tempered or len(gp) <= PARAM_BOUND):
        raise BoundExceeded(
            f"{len(gp)} entries of unbounded b; enumeration capped at {PARAM_BOUND}"
        )
    menu = []
    for i in gp:
        b = m.entries[i][1]
        opts = []
        for v in range(b // 2 + 1):
            if 2 * v < b:
                opts.extend([(v, 1), (v, -1)])
            else:
                opts.append((v, 0))
        menu.append(opts)
    if prod(len(o) for o in menu) > _PARAM_CAP:
        raise BoundExceeded(f"|W(m)| exceeds {_PARAM_CAP}")
    out = []
    for picks in itertools.product(*menu):
        l = tuple((i, v) for i, (v, _) in zip(gp, picks))
        eta = tuple((i, s) for i, (_, s) in zip(gp, picks) if s)
        out.append(MoeglinParam(m, l, eta))
    return out


def admissible_orders(m: ATable) -> list[AdmissibleOrder]:
    """Every admissible order on m, by filtered permutation scan."""
    gp = m.gp_indices
    if len(gp) > ORDER_BOUND:
        raise BoundExceeded(
            f"t = {len(gp)} good entries; the order scan is capped at {ORDER_BOUND}"
        )
    return [
        AdmissibleOrder(m, perm)
        for perm in itertools.permutations(gp)
        if _admissible(m, perm)
    ]


def gamma(ao: AdmissibleOrder, i: int) -> int:
    """The sign correction (-1)^{|Z_i|} at the entry index i."""
    if not ao.table.near_tempered:
        raise ValueError("gamma has a closed form only on near-tempered tables")
    try:
        return ao._gamma_signs[i]
    except KeyError:
        raise ValueError(f"{i} is not an index of the order {ao.order}") from None


def arthur_character(ao: AdmissibleOrder, mp: MoeglinParam) -> TableChar:
    """The character on S(m) read off a parameter via the sign formula.

    Copies of a repeated entry agree for honest packet members; the value
    at the lowest index is taken.  For s = +1 a result outside P(m)_0 is
    flipped by the odd-dimension entries of S(m^mf) into the canonical
    P(m)_0 representative; for s = -1 it is returned raw (check in_P0).
    """
    m = ao.table
    if mp.table != m:
        raise ValueError("order and parameter live on different tables")
    bits = {}
    for i in m.gp_indices:
        a, b = m.entries[i]
        if (a, b) in bits:
            continue
        li = mp.l_of(i)
        if 2 * li < b:
            sign = gamma(ao, i) * (-1) ** ((b // 2 + li) % 2)
            if b % 2:
                sign *= mp.eta_of(i)
        else:
            sign = gamma(ao, i)
        bits[(a, b)] = sign
    # bits and the flip are keyed by good-parity entries of m, so both
    # subsets lie in S(m)
    subset = frozenset(e for e, sign in bits.items() if sign == -1)
    eps = TableChar._trusted(m, subset)
    if not eps.in_P0 and m.gt.s == 1:
        flip = frozenset(e for e in m.support_mf if e[0] * e[1] % 2)
        eps = TableChar._trusted(m, subset ^ flip)
    return eps


def _replace_entries(m: ATable, removed, added):
    """Rebuild m with the removed indices swapped for the added entries.

    Returns (table, old index -> new index, added position -> new index);
    the tagged stable sort matches ATable's own entry ordering, so the
    maps are consistent with the new table.  The added good-parity
    entries must have the dimension of the removed good-parity ones, as
    a merge's do, so the table is built unvalidated.
    """
    tagged = [(e, 0, i) for i, e in enumerate(m.entries) if i not in removed]
    tagged += [(tuple(e), 1, r) for r, e in enumerate(added)]
    tagged.sort(key=lambda t: t[0])
    table = ATable._trusted(tuple(e for e, _, _ in tagged), m.gt, m.z)
    old2new, fresh = {}, {}
    for pos, (_, kind, i) in enumerate(tagged):
        (fresh if kind else old2new)[i] = pos
    return table, old2new, fresh


def merge_move(ao: AdmissibleOrder, mp: MoeglinParam, k: int):
    """Merge the entries at slot k into one (a + 1, 2) entry.

    Slots follow the 1-based order positions: k merges the k-th and
    (k+1)-th entries of the order, and k = 0 merges the phantom with the
    first entry (s = -1 only).  The merge needs two b = 1 entries with
    a-gap 2 and opposite signs; the new entry takes l = 0 and the lower
    sign, spliced in place.  Returns the (table, order, parameter) triple.
    """
    m = ao.table
    if mp.table != m:
        raise ValueError("order and parameter live on different tables")
    t = len(ao.order)
    if k == 0:
        if m.gt.s != -1 or t == 0:
            raise MoveNotApplicable("no phantom slot on this table")
        left, a_left, eta_left = PHANTOM, 0, 1
        right = ao.order[0]
    elif 1 <= k <= t - 1:
        left = ao.order[k - 1]
        a_left, b_left = m.entries[left]
        if b_left != 1:
            raise MoveNotApplicable(f"entry {m.entries[left]} at slot {k} has b != 1")
        eta_left = mp.eta_of(left)
        right = ao.order[k]
    else:
        raise MoveNotApplicable(f"slot {k} outside 0..{max(t - 1, 0)}")
    a_right, b_right = m.entries[right]
    if b_right != 1:
        raise MoveNotApplicable(f"entry {m.entries[right]} has b != 1")
    if a_right - a_left != 2:
        raise MoveNotApplicable(f"need an a-gap of 2, got {a_right} - {a_left}")
    if mp.eta_of(right) != -eta_left:
        raise MoveNotApplicable("merging entries must carry opposite signs")
    removed = {right} if left == PHANTOM else {left, right}
    table, old2new, fresh = _replace_entries(m, removed, [(a_left + 1, 2)])
    star = fresh[0]
    spliced = []
    for idx in ao.order:
        if idx == right:
            continue
        spliced.append(star if idx == left else old2new[idx])
    if left == PHANTOM:
        spliced.insert(0, star)
    try:
        order = AdmissibleOrder(table, tuple(spliced))
    except ValueError:
        raise MoveNotApplicable("the spliced order is not admissible") from None
    # the kept indices keep their b, l and eta, and the merged entry (b = 2)
    # takes l = 0 and a sign, so the parameter is valid
    l = [(old2new[i], v) for i, v in mp.l if i not in removed] + [(star, 0)]
    eta = [(old2new[i], v) for i, v in mp.eta if i not in removed] + [(star, eta_left)]
    return table, order, MoeglinParam._trusted(table, tuple(sorted(l)), tuple(sorted(eta)))


def tempered_intersection(cp: ClassPartition, J) -> tuple[CharFn, ...]:
    """Members of the tempered packet shared with the m_{lam,J} packet.

    These are the characters in P(lam)_0 with t_c != 1 for every c in J;
    J = empty set keeps everything.  They are the same at every central
    character z.
    """
    ts = [t_character(cp, c) for c in sorted(set(J))]
    return tuple(eps for eps in char_group(cp) if all(t(eps) != 1 for t in ts))


def _tempered_param(ao: AdmissibleOrder, cp: ClassPartition, eps: CharFn) -> MoeglinParam:
    """The parameter of a tempered member on the tempered table of ``ao``:
    l = 0 and eta(i) = (-1)^eps(a_i)."""
    if eps.base != cp or not eps.in_P0:
        raise ValueError(f"{eps!r} does not label a tempered member of {cp.lam!r}")
    m = ao.table
    gp = m.gp_indices
    # every entry of a tempered table has b = 1, so R_l is every good
    # index and l = 0, eta = +-1 there is a valid parameter
    return MoeglinParam._trusted(
        m,
        tuple((i, 0) for i in gp),
        tuple((i, eps.sign(m.entries[i][0])) for i in gp),
    )


def merge_chains(cp: ClassPartition, z: int = 1):
    """:func:`merge_chain` of lam at central character z, as a function
    (eps, J) -> (table, order, parameter).

    The tempered table and its standard order are built once, and the
    target m_{lam,J} once per J, the tempered table being m_{lam,empty};
    they live as long as the function.
    """
    start = standard_order(tempered_table(cp, z))
    targets = {frozenset(): start.table}

    def chain(eps: CharFn, J):
        J = frozenset(J)
        target = targets.get(J)
        if target is None:
            # raises NotInJ unless J lies inside J(lam)
            target = targets[J] = near_tempered_table(cp, J, z)
        ao, mp = start, _tempered_param(start, cp, eps)
        for c in sorted(J):
            if c == 1:
                k = 0
            else:
                m = ao.table
                slots = [p for p, i in enumerate(ao.order) if m.entries[i] == (c - 1, 1)]
                if not slots:
                    raise MoveNotApplicable(f"no (a, 1) entry left with a = {c - 1}")
                k = slots[-1] + 1
            _, ao, mp = merge_move(ao, mp, k)
        if ao.table != target:
            raise MalformedOutput(f"merge chain for J = {sorted(J)} missed its target")
        return ao.table, ao, mp

    return chain


def merge_chain(cp: ClassPartition, eps: CharFn, J, z: int = 1):
    """Drive a tempered member into the m_{lam,J} packet by merges.

    One merge per c in J, ascending: the last (c-1, 1) entry pairs with
    the first (c+1, 1) entry (adjacent in the running standard order);
    c = 1 uses the phantom slot.  Raises MoveNotApplicable exactly when
    eps fails a t_c sign condition, i.e. lies outside the intersection.
    J = empty set gives the tempered table, its standard order and the
    parameter of eps there: l = 0 and eta(i) = (-1)^eps(a_i).
    """
    return merge_chains(cp, z)(eps, J)
