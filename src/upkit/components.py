"""Component groups of unipotent classes and the canonical quotient.

For a class partition ``lam`` the component group of the centralizer is an
elementary abelian 2-group modelled on subsets of ``S(lam)``.  This module
realizes three nested structures:

* ``P(lam)``   -- all subsets of S(lam), with the pairing (-1)^|A  cap  B|;
* ``P(lam)_0`` -- subsets meeting S_0(lam) evenly; this is the character
  group Ahat(O)_0 that indexes packet members uniformly in both types;
* ``Pdagger(lam)_0`` -- the block-constant members of P(lam)_0, which
  realize the character group of Lusztig's canonical quotient A+(O).

"Block-constant" refers to the canonical partition of S(lam) into
*classes* computed by :func:`block_classes`: scanning S(lam) in
increasing order, the elements of S_0(lam) are joined in consecutive
pairs, each pair span absorbing any non-multiplicity-free values lying
between its endpoints.  For ``s = +1`` the number of S_0-elements is odd
and the last one opens a class running to the top of S(lam) whose value
range is additionally ceiled at lam_1; for ``s = -1`` and an odd count,
the first S_0-element closes a class that starts at the bottom of S(lam)
and whose range is grounded at 1.  Everything else is a singleton class.

Each class theta spans the value range [theta_lo, theta_hi] (with the
grounding/ceiling extensions) and cuts the *block* lam(theta) out of lam:
all parts lying in that range.  Bad-parity values caught inside a block
form the obstruction set I(lam); ``lam`` is special exactly when I(lam)
is empty.  Admissible classes determine the move set J(lam); both sets
drive the special-piece combinatorics in :mod:`upkit.pieces`.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .errors import NotCanonical, NotInJ, NotInPiece
from .partitions import ClassPartition, Partition, _int_set, cached_field, classify, difference, union

__all__ = [
    "CharFn",
    "BlockStructure",
    "block_classes",
    "block_structure",
    "char_group",
    "full_group",
    "canonical_subsets",
    "canonical_subgroup",
    "t_character",
    "iota_embed",
    "char_group_order",
    "canonical_subgroup_order",
]


@dataclass(frozen=True)
class CharFn:
    """A character of the component group: a subset of S(lam).

    ``subset`` collects the values where the character is -1.  The text
    form is a string of signs aligned with S(lam) in increasing order,
    e.g. ``(--+)`` for the subset {1, 3} inside S = (1, 3, 5).
    """

    base: ClassPartition
    subset: frozenset[int]

    def __post_init__(self) -> None:
        if not self.subset <= set(self.base.S):
            extra = sorted(set(self.subset) - set(self.base.S))
            raise ValueError(f"values {extra} not in S(lam) = {self.base.S}")
        object.__setattr__(self, "subset", frozenset(self.subset))

    @classmethod
    def from_text(cls, cp: ClassPartition, text: str) -> "CharFn":
        """Parse a sign string ``(--+)`` or an explicit set ``{1,3}``.

        A sign string may be wrapped in one pair of parentheses and a set
        in one pair of braces; ``()`` is the sign string of an empty
        S(lam).  Parentheses anywhere else are refused with ValueError.
        """
        text = text.strip()
        wrapped = text[:1] == "(" and text[-1:] == ")"
        body = text[1:-1] if wrapped else text
        if "(" in body or ")" in body:
            raise ValueError(f"unbalanced or doubled parentheses in {text!r}")
        signs = all(ch in "+-−" for ch in body)
        if wrapped and not signs:
            raise ValueError(f"parentheses hold a sign string of + and -, not {text!r}")
        if wrapped or (body and signs):
            signs = body.replace("−", "-")
            if len(signs) != len(cp.S):
                raise ValueError(
                    f"sign string length {len(signs)} != |S(lam)| = {len(cp.S)}"
                )
            return cls(cp, frozenset(v for v, ch in zip(cp.S, signs) if ch == "-"))
        return cls(cp, _int_set(body))

    def to_text(self) -> str:
        return "(" + "".join("-" if v in self.subset else "+" for v in self.base.S) + ")"

    def indicator(self, c: int) -> int:
        """eps(c) as an element of {0, 1}; values outside S count as 0."""
        return 1 if c in self.subset else 0

    def sign(self, c: int) -> int:
        """(-1)^eps(c)."""
        return -1 if c in self.subset else 1

    @property
    def in_P0(self) -> bool:
        return _meets_evenly(self.subset, self.base.S0)

    def __repr__(self) -> str:
        return f"CharFn({sorted(self.subset)} on {self.base.lam!r})"


@dataclass(frozen=True)
class BlockStructure:
    """The canonical class decomposition of S(lam) and its derived data.

    ``classes[i]`` lists the S-values of the i-th class, ascending;
    classes are disjoint, consecutive in sorted S(lam), and ordered.
    ``ranges[i]`` is the (lo, hi) value range after grounding/ceiling and
    ``blocks[i]`` the sub-multiset of lam in it; ``admissible`` lists the
    admissible classes that J(lam) is read off.
    """

    cp: ClassPartition
    classes: tuple[tuple[int, ...], ...]
    ranges: tuple[tuple[int, int], ...]
    admissible: tuple[tuple[int, ...], ...]
    I_set: frozenset[int]
    J_set: frozenset[int]

    @property
    def special(self) -> bool:
        return not self.I_set

    @cached_field
    def blocks(self) -> tuple[Partition, ...]:
        """Cut on first read, since only ``class-info`` lists them; kept in
        ``__dict__``, out of the fields that equality and ``repr`` read."""
        return tuple(self.cp.lam.interval(lo, hi) for lo, hi in self.ranges)


# The bound on every class-keyed cache.  It holds every class of the runs
# that revisit classes: `verify --suite all --maxN 16` builds 455 block
# structures and 394 piece cubes, the 1,200 single-class queries of the
# `queries` benchmark (seed 7) 467 block structures, 362 piece cubes and
# 666 listings.  A piece-cube entry holds 2^|J(lam)| members, a listing
# of weak-packet or membership the text of as many records.  The theoremC
# and firstrow sweeps, which visit each class once, read none of these
# caches.
CLASS_CACHE_SIZE = 1024


def block_classes(cp: ClassPartition) -> tuple[tuple[int, ...], ...]:
    """The canonical classes of S(lam), ascending, without the rest of
    :class:`BlockStructure`; not cached.

    One scan up S(lam): an S_0 value opens a class and the next one
    closes it, absorbing the values in between; a value outside any open
    class is a singleton.  For s = -1 and |S_0| odd the ground class is
    open from the bottom; for s = +1 the last S_0 value opens the tail
    class, which runs to the top.
    """
    s0 = set(cp.S0)
    classes = []
    current = [] if cp.gt.s == -1 and len(s0) % 2 else None
    for v in cp.S:
        if current is not None:
            current.append(v)
            if v in s0:
                classes.append(tuple(current))
                current = None
        elif v in s0:
            current = [v]
        else:
            classes.append((v,))
    if current is not None:
        # the tail: for s = +1, |lam| odd forces |S_0| odd
        classes.append(tuple(current))
    return tuple(classes)


@functools.lru_cache(maxsize=CLASS_CACHE_SIZE)
def block_structure(cp: ClassPartition) -> BlockStructure:
    """Compute the canonical classes, their ranges, I(lam) and J(lam)."""
    s0 = set(cp.S0)
    classes = block_classes(cp)
    ranges = [(theta[0], theta[-1]) for theta in classes]
    if len(s0) % 2:
        # the one class meeting S_0 in one value: the ground class opens
        # S(lam) and is grounded at 1, the tail closes it and is ceiled at lam_1
        if cp.gt.s == 1:
            ranges[-1] = (ranges[-1][0], cp.lam[0])
        else:
            ranges[0] = (1, ranges[0][1])
    # the bad-parity values of lam are those of bp
    I_set = frozenset(v for v in set(cp.bp) if any(lo <= v <= hi for lo, hi in ranges))

    # theta is admissible when theta_min - 2 tops some class, or when it
    # starts at 2 and holds more than one value exactly when 2 is in S_0
    tops = {theta[-1] for theta in classes}
    admissible = tuple(
        theta
        for theta in classes
        if theta[0] - 2 in tops or (theta[0] == 2 and (2 in s0) == (len(theta) > 1))
    )
    return BlockStructure(
        cp=cp,
        classes=classes,
        ranges=tuple(ranges),
        admissible=admissible,
        I_set=I_set,
        J_set=frozenset(theta[0] - 1 for theta in admissible),
    )


def _meets_evenly(subset: frozenset[int], S0) -> bool:
    """The P(lam)_0 rule: the subset meets S_0(lam) in an even number of values."""
    return len(subset.intersection(S0)) % 2 == 0


def _subsets_in_order(S):
    """Every subset of S, smallest-first, then lexicographic: the one order
    in which J lists and characters are walked and listed."""
    S = sorted(S)
    for k in range(len(S) + 1):
        for combo in itertools.combinations(S, k):
            yield frozenset(combo)


def _s_bits(cp: ClassPartition) -> tuple[int, ...]:
    """The S-index bit of each value of S(lam), ascending: bit j for the
    j-th value.  A subset of S(lam) is read as the sum of the bits of its
    values, its S-index bitmask; this is the one statement of that rule."""
    return tuple(map((1).__lshift__, range(len(cp.S))))


def _s_mask(cp: ClassPartition, sub) -> int:
    """The S-index bitmask of the subset sub of S(lam)."""
    return sum(itertools.compress(_s_bits(cp), map(sub.__contains__, cp.S)))


def _p0_subsets(cp: ClassPartition):
    """P(lam)_0 in :func:`_subsets_in_order` order, each member as a pair
    (subset, S-index bitmask); not cached.  :func:`char_group` and the
    tableau sweep both walk it.

    Every subset of S(lam) is drawn as a tuple of values and one of bits,
    so the P(lam)_0 rule is a popcount and only the members become
    frozensets.
    """
    S, bits = cp.S, _s_bits(cp)
    # the bitmask of S_0(lam), as _s_mask reads it
    s0 = sum(itertools.compress(bits, map(cp.S0.__contains__, S)))
    for k in range(len(S) + 1):
        masks = map(sum, itertools.combinations(bits, k))
        for values, mask in zip(itertools.combinations(S, k), masks):
            if not (mask & s0).bit_count() & 1:
                yield frozenset(values), mask


def _within_J(cp: ClassPartition, J) -> frozenset[int]:
    """J as a frozenset; :class:`NotInJ` unless J lies inside J(lam)."""
    J = frozenset(J)
    allowed = block_structure(cp).J_set
    if not J <= allowed:
        raise NotInJ(f"{sorted(J - allowed)} not in J(lam) = {sorted(allowed)}")
    return J


@functools.lru_cache(maxsize=CLASS_CACHE_SIZE)
def full_group(cp: ClassPartition) -> tuple[CharFn, ...]:
    """P(lam): every subset of S(lam), smallest-first."""
    return tuple(CharFn(cp, a) for a in _subsets_in_order(cp.S))


@functools.lru_cache(maxsize=CLASS_CACHE_SIZE)
def char_group(cp: ClassPartition) -> tuple[CharFn, ...]:
    """P(lam)_0: the subsets meeting S_0(lam) in an even number of values.

    Same order as :func:`full_group`, but only the members are built.
    """
    return tuple(CharFn(cp, a) for a, _ in _p0_subsets(cp))


def canonical_subsets(cp: ClassPartition) -> frozenset[frozenset[int]]:
    """Pdagger(lam)_0 as subsets of S(lam): the block-constant subsets
    that meet S_0(lam) evenly; not cached.

    At most one class (the tail or ground class) meets S_0 in an odd
    number of values, so these are the unions of the other classes.
    """
    out = {frozenset()}
    for theta in block_classes(cp):
        theta = frozenset(theta)
        if _meets_evenly(theta, cp.S0):
            out |= {a | theta for a in out}
    return frozenset(out)


@functools.lru_cache(maxsize=CLASS_CACHE_SIZE)
def canonical_subgroup(cp: ClassPartition) -> tuple[CharFn, ...]:
    """Pdagger(lam)_0: block-constant members of P(lam)_0, smallest-first.

    This is the character group of the canonical quotient A+(O_lam).
    """
    subs = sorted(canonical_subsets(cp), key=lambda a: (len(a), sorted(a)))
    return tuple(CharFn(cp, a) for a in subs)


def char_group_order(cp: ClassPartition) -> int:
    """|P(lam)_0| without enumeration: 2^(|S|-1) when S_0 is nonempty."""
    k = len(cp.S)
    return 2 ** (k - 1) if cp.S0 else 2 ** k


def canonical_subgroup_order(cp: ClassPartition) -> int:
    """|Pdagger(lam)_0| without enumeration: 2^(number of classes meeting
    S_0(lam) evenly), the classes whose unions :func:`canonical_subsets` lists."""
    return 2 ** sum(_meets_evenly(frozenset(theta), cp.S0) for theta in block_classes(cp))


def t_character(cp: ClassPartition, c: int):
    """The sign character t_c on P(lam), defined for c in J(lam).

    t_c(eps) = (-1)^|eps cap {c-1, c+1}| (the value 0 never contributes,
    so for c = 1 only the neighbour 2 is consulted).  Raises
    :class:`NotInJ` for c outside J(lam).
    """
    _within_J(cp, {c})
    neighbours = frozenset(_neighbours(c))

    def t_c(eps: CharFn) -> int:
        return -1 if len(eps.subset & neighbours) % 2 else 1

    return t_c


# --- raw multiset surgery shared with upkit.pieces ------------------------

def _neighbours(c: int) -> tuple[int, ...]:
    """The parts c-1 and c+1 a move at c touches; c-1 = 0 is no part."""
    return tuple(v for v in (c - 1, c + 1) if v >= 1)


def _t_down_raw(lam: Partition, J) -> Partition:
    """lam with, for each c in J, the parts _neighbours(c) replaced by (c, c)."""
    removed = [v for c in J for v in _neighbours(c)]
    added = [v for c in J for v in (c, c)]
    return union(difference(lam, removed), added)


def _t_up_raw(lam: Partition, I) -> Partition:
    """Inverse surgery: for each c in I, replace (c, c) by (c-1, c+1)."""
    removed = [v for c in I for v in (c, c)]
    added = [v for c in I for v in _neighbours(c)]
    return union(difference(lam, removed), added)


def _as_class(mu, gt) -> ClassPartition:
    if isinstance(mu, ClassPartition):
        if mu.gt != gt:
            raise NotInPiece(f"group types differ: {mu.gt!r} vs {gt!r}")
        return mu
    return classify(mu, gt)


def _piece_move_set(cp: ClassPartition, mu: ClassPartition) -> frozenset[int]:
    """The unique J subset of J(lam) with T_J(lam) = mu, or NotInPiece."""
    J = block_structure(cp).J_set - block_structure(mu).J_set
    if _t_down_raw(cp.lam, J) != mu.lam:
        raise NotInPiece(f"{mu.lam!r} is not in the piece cube of {cp.lam!r}")
    return J


def _check_canonical(cp: ClassPartition, eps: CharFn) -> None:
    """:class:`NotCanonical` unless eps lies in Pdagger(lam)_0."""
    if eps.base != cp or eps.subset not in canonical_subsets(cp):
        raise NotCanonical(f"{eps!r} not in the canonical subgroup of {cp.lam!r}")


def _iota_step(src: ClassPartition, dst: ClassPartition, c: int, eps: CharFn) -> CharFn:
    """Single-move embedding along mu = T_{c}(lam): the two dst-classes
    meeting c-1 and c+1 have merged in src; every dst-class reads its
    value off any of its members that survived into S(src)."""
    s_src = set(src.S)
    classes = block_structure(dst).classes
    merged = [theta for theta in classes if any(m in theta for m in _neighbours(c))]
    # the merged classes read their value off the least survivor of either
    shared = min(v for theta in merged for v in theta if v in s_src)
    out = set()
    for theta in classes:
        witness = shared if theta in merged else min(v for v in theta if v in s_src)
        if eps.indicator(witness):
            out.update(theta)
    return CharFn(dst, frozenset(out))


def iota_embed(src: ClassPartition, dst: ClassPartition, eps: CharFn) -> CharFn:
    """The canonical embedding of Pdagger(src)_0 into Pdagger(dst)_0.

    ``src`` must lie in the piece cube of ``dst``.  The embedding is
    assembled one move at a time; its image consists exactly of the
    characters killed by t_c for every move value c, and composing
    embeddings along a chain of moves is path-independent.
    """
    src = _as_class(src, dst.gt)
    _check_canonical(src, eps)
    J = _piece_move_set(dst, src)
    if not J:
        return CharFn(dst, eps.subset)
    c = min(J)
    mid = classify(_t_down_raw(dst.lam, {c}), dst.gt)
    lifted = iota_embed(src, mid, eps)
    return _iota_step(mid, dst, c, lifted)
