"""Special partitions, special pieces, and the duality between types B and C.

A class partition is *special* when its obstruction set I(lam) is empty,
i.e. every block cut out by the canonical classes is itself a class
partition.  The moves

* ``T_down`` (by J, a subset of J(lam)): replace one part c-1 and one part
  c+1 by the bad-parity pair (c, c) for each c in J, walking down in the
  closure (dominance) order, and
* ``T_up`` (by I, a subset of I(lam)): the inverse surgery, walking up,

generate the special piece: Spc(lam) = {T_down(lam, J) : J subset of
J(lam)} is a 2^|J(lam)| hypercube whose top is lam and whose members are
exactly the classes sharing the dominance-minimal special class above
them, T_up(lam, I(lam)).

The duality ``bvls_dual`` exchanges the two types: for s = +1 remove one
box from the largest part, transpose, and collapse to type C; for s = -1
add a part 1, transpose, and collapse to type B.  Its image is the set of
special partitions and its fibers are the special pieces.
"""

from __future__ import annotations

import functools

from .components import (
    CLASS_CACHE_SIZE,
    BlockStructure,
    _subsets_in_order,
    _t_down_raw,
    _t_up_raw,
    _within_J,
    block_structure,
)
from .errors import NotInI
from .partitions import (
    ClassPartition,
    GroupType,
    Partition,
    classify,
    union,
)

__all__ = [
    "piece_data",
    "is_special",
    "T_down",
    "T_up",
    "special_closure",
    "special_piece",
    "collapse",
    "bvls_dual",
]


def piece_data(cp: ClassPartition) -> BlockStructure:
    """The move data of a class, I(lam), J(lam) and the admissible classes:
    its :class:`~upkit.components.BlockStructure`."""
    return block_structure(cp)


def is_special(cp: ClassPartition) -> bool:
    """True iff I(lam) is empty (every block is again of the right type)."""
    return block_structure(cp).special


def T_down(cp: ClassPartition, J) -> ClassPartition:
    """Apply the downward moves for J, which must lie inside J(lam)."""
    return classify(_t_down_raw(cp.lam, _within_J(cp, J)), cp.gt)


def T_up(cp: ClassPartition, I) -> ClassPartition:
    """Apply the upward moves for I, which must lie inside I(lam)."""
    I = frozenset(I)
    allowed = block_structure(cp).I_set
    if not I <= allowed:
        raise NotInI(f"{sorted(I - allowed)} not in I(lam) = {sorted(allowed)}")
    return classify(_t_up_raw(cp.lam, I), cp.gt)


def special_closure(cp: ClassPartition) -> ClassPartition:
    """T_up(lam, I(lam)): the dominance-minimal special class above lam."""
    return T_up(cp, block_structure(cp).I_set)


@functools.lru_cache(maxsize=CLASS_CACHE_SIZE)
def special_piece(cp: ClassPartition) -> tuple[tuple[frozenset[int], ClassPartition], ...]:
    """The piece cube below lam: pairs (J, T_down(lam, J)) over all
    subsets J of J(lam), listed by (|J|, sorted values).

    When lam is special this is the full special piece Spc(lam); in
    general it is the part of the piece lying under lam in the closure
    order.  Cached per class, so the tuple is shared between callers.
    """
    return tuple((J, T_down(cp, J)) for J in _subsets_in_order(block_structure(cp).J_set))


def collapse(lam: Partition, gt: GroupType) -> Partition:
    """The X-collapse: the dominance-greatest partition of type gt.s that
    is dominated by lam (same size).

    Repeatedly take the largest bad-parity value q of odd multiplicity,
    turn one copy into q-1, and re-add the lost box to the largest part
    strictly below q-1 (appending a new part 1 when there is none).
    """
    parts = list(lam)
    while True:
        bad = [v for v in set(parts) if not gt.good_parity(v) and parts.count(v) % 2]
        if not bad:
            return Partition(parts)
        q = max(bad)
        parts.remove(q)
        if q - 1 > 0:
            parts.append(q - 1)
        lower = [v for v in parts if v < q - 1]
        if lower:
            r = max(lower)
            parts.remove(r)
            parts.append(r + 1)
        else:
            parts.append(1)


@functools.lru_cache(maxsize=CLASS_CACHE_SIZE)
def bvls_dual(cp: ClassPartition) -> ClassPartition:
    """The order-reversing duality d between P^{+1}(N) and P^{-1}(N-1).

    Type B to C: remove a box from the largest part, transpose, collapse.
    Type C to B: add a part 1, transpose, collapse.  Applying d twice
    lands back on the special closure: d(d(lam)) = T_up(lam, I(lam)).
    """
    if cp.gt.s == 1:
        trimmed = Partition((cp.lam[0] - 1,) + cp.lam[1:]) if cp.lam else Partition()
        target = GroupType(-1, cp.gt.N - 1)
        pre = trimmed.transpose()
    else:
        target = GroupType(1, cp.gt.N + 1)
        pre = union(cp.lam, (1,)).transpose()
    return classify(collapse(pre, target), target)
