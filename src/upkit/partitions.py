"""Integer partitions and their classification for split classical types.

A partition here is a finite multiset of positive integers, stored weakly
decreasing.  Throughout the package a partition ``lam`` of ``N`` labels a
unipotent class in the complex dual group: ``SO_N`` for ``s = +1`` (``N``
odd, dual letter B) and ``Sp_N`` for ``s = -1`` (``N`` even, dual letter C).
A part has *good parity* when it is odd (``s = +1``) or even (``s = -1``);
bad-parity parts must occur with even multiplicity for ``lam`` to label a
class at all.

The module provides the raw multiset calculus (union, difference,
intervals, transpose, dominance), the :class:`GroupType` bookkeeping, and
:func:`classify` / :func:`enumerate_classes` / :func:`good_parity_classes`,
which produce :class:`ClassPartition` objects carrying the derived data
every other module consumes:

* ``gp``  -- the good-parity part of ``lam`` (full multiplicity),
* ``bp``  -- half of the bad-parity part (which pairs up),
* ``S``   -- the support of ``gp``, ascending,
* ``S0``  -- the support of the multiplicity-free part of ``lam``,
  ascending; always a subset of ``S``.
"""

import itertools
import operator
import re

from .errors import BoundExceeded, NotContained, ParityViolation, WrongTotal

__all__ = [
    "Partition",
    "GroupType",
    "ClassPartition",
    "union",
    "difference",
    "dominates",
    "partitions_of",
    "classify",
    "enumerate_classes",
    "good_parity_classes",
]


class cached_field:
    """A derived field of a value object, computed on first read and kept
    in the instance ``__dict__``, out of the fields that equality, hashing
    and ``repr`` read; later reads find it there and skip the descriptor.

    ``functools.cached_property`` does the same, but before Python 3.12 it
    takes a lock on every first read.
    """

    def __init__(self, fn):
        self.fn = fn
        self.name = fn.__name__
        self.__doc__ = fn.__doc__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


_INT_TOKEN = re.compile(r"-?[0-9]+")


def _int_token(token):
    """An optional minus sign and ASCII digits; ``int`` alone would also
    read ``1_0``, ``+5`` and non-ASCII digits as numbers."""
    token = token.strip()
    if not _INT_TOKEN.fullmatch(token):
        raise ValueError(f"{token!r} is not an integer")
    return int(token)


def _int_set(text):
    """The integers of a set ``{a,b}``; one pair of braces or none.  A
    blank body (``{}``, ``{ }``, ``""``) is the empty set; an empty token
    inside any other body (``{1,,3}``, ``1,3,``, ``{,}``) raises
    ValueError, and a brace left inside fails as a token."""
    body = text.strip()
    if body[:1] == "{" and body[-1:] == "}":
        body = body[1:-1]
    if not body.strip():
        return frozenset()
    tokens = body.split(",")
    if not all(map(str.strip, tokens)):
        raise ValueError(f"empty entry in the set {text!r}")
    return frozenset(map(_int_token, tokens))


# The largest |lam| that Partition.from_text reads; a larger text is
# refused before its exponents are expanded.
MAX_PARSED_SIZE = 10_000


class Partition(tuple):
    """An immutable partition: a weakly decreasing tuple of positive integers.

    Accepts any iterable of nonnegative integers; zeros are dropped, the
    rest is sorted.  A part that is not an integer (a float, a string)
    raises TypeError rather than being converted.  A partition is the
    tuple of its parts, so it compares and hashes as that tuple.
    """

    __slots__ = ()

    def __new__(cls, parts=()):
        cleaned = sorted(map(operator.index, parts), reverse=True)
        while cleaned and cleaned[-1] == 0:
            cleaned.pop()
        if cleaned and cleaned[-1] < 0:
            raise ValueError("partition parts must be nonnegative integers")
        return tuple.__new__(cls, cleaned)

    @classmethod
    def _trusted(cls, parts):
        """Build without validation from positive integers that are
        already weakly decreasing."""
        return tuple.__new__(cls, parts)

    @classmethod
    def from_text(cls, text):
        """Parse ``"5,3,1"`` or exponent notation ``"7^4,5^3"``; "" is empty.

        Exponents distribute over single parts only: ``7^4`` contributes
        four parts equal to 7.  An exponent must be a positive integer;
        ``7^0`` or ``7^-1`` raises ValueError.  Every number is an optional
        minus sign and ASCII digits (``1_0``, ``+5`` and non-ASCII digits
        raise ValueError).  Whitespace around tokens is ignored.  A text
        whose parts add up to more than :data:`MAX_PARSED_SIZE` in absolute
        value raises ValueError before any exponent is expanded.
        """
        text = text.strip()
        if not text or text in ("-", "0", "()"):
            return cls()
        runs = []
        for token in text.split(","):
            token = token.strip()
            if "^" in token:
                base, _, exp = token.partition("^")
                count = _int_token(exp)
                if count <= 0:
                    raise ValueError(f"exponent in {token!r} must be positive")
                runs.append((_int_token(base), count))
            else:
                runs.append((_int_token(token), 1))
        # sized before anything is expanded; a zero part is dropped unexpanded
        size = sum(abs(v) * m for v, m in runs)
        if size > MAX_PARSED_SIZE:
            raise ValueError(f"partition size {size} exceeds the bound {MAX_PARSED_SIZE}")
        return cls(v for v, m in runs if v for _ in range(m))

    def to_text(self):
        """Inverse of :meth:`from_text`, using exponents for repeats."""
        return ",".join(f"{v}^{m}" if m > 1 else str(v) for v, m in _runs(self))

    @property
    def size(self):
        """The sum of the parts, |lam|."""
        return sum(self)

    def mult(self, c):
        """Multiplicity m(c, lam) of the value ``c``."""
        return self.count(c)

    @property
    def supp(self):
        """Distinct part values, ascending."""
        return tuple(sorted(set(self)))

    def interval(self, a, b):
        """The sub-multiset of parts c with a <= c <= b (lam_{a<->b})."""
        return Partition(p for p in self if a <= p <= b)

    def transpose(self):
        """The conjugate partition."""
        if not self:
            return Partition()
        return Partition(sum(1 for p in self if p > i) for i in range(self[0]))

    def __repr__(self):
        return f"Partition({list(self)})"


def _runs(lam):
    """The (value, multiplicity) runs of a partition, values descending."""
    return [(v, len(list(grp))) for v, grp in itertools.groupby(lam)]


def union(*lams):
    """Multiset union (multiplicities add)."""
    merged = []
    for lam in lams:
        merged.extend(lam)
    return Partition(merged)


def difference(lam, mu):
    """Multiset difference lam minus mu.

    Raises :class:`NotContained` unless every part of ``mu`` occurs in
    ``lam`` with at least its multiplicity, so that
    ``union(difference(lam, mu), mu) == lam`` always holds on success.
    """
    remaining = list(lam)
    for p in mu:
        try:
            remaining.remove(p)
        except ValueError:
            raise NotContained(f"part {p} of {mu!r} not available in {lam!r}")
    return Partition(remaining)


def dominates(lam, mu):
    """True iff |lam| == |mu| and lam >= mu in the dominance order.

    Either argument may be any iterable of parts, in any order.
    """
    a, b = Partition(lam), Partition(mu)
    if a.size != b.size:
        return False
    ta = tb = 0
    for x, y in itertools.zip_longest(a, b, fillvalue=0):
        ta += x
        tb += y
        if ta < tb:
            return False
    return True


class GroupType:
    """The sign s and integer N fixing the dual group.

    ``s = +1``: dual group SO_N, N odd, dual letter B; the p-adic group is
    split Sp_{N-1}.  ``s = -1``: dual group Sp_N, N even, dual letter C;
    the p-adic group is split SO_{N+1}.  The common rank is
    ``n = (N - s) // 2``.
    """

    __slots__ = ("s", "N")

    def __init__(self, s, N):
        # ints, never read through int(): 3.0 is refused and True stored as 1
        s, N = operator.index(s), operator.index(N)
        if s not in (1, -1):
            raise ValueError("s must be +1 or -1")
        if N < 0 or N % 2 != (1 if s == 1 else 0):
            raise ValueError(f"N={N} has the wrong parity for s={s:+d}")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "N", N)

    def __setattr__(self, name, value):
        raise AttributeError("GroupType is immutable")

    @classmethod
    def from_letter(cls, letter, N):
        """Group type from the dual letter: B means s=+1, C means s=-1."""
        if letter.upper() == "B":
            return cls(1, N)
        if letter.upper() == "C":
            return cls(-1, N)
        raise ValueError(f"unknown dual letter {letter!r}")

    @property
    def letter(self):
        return "B" if self.s == 1 else "C"

    @property
    def n(self):
        """Rank of the p-adic group (and of its Weyl group W_n)."""
        return (self.N - self.s) // 2

    def good_parity(self, c):
        """True iff the value c has good parity for this type."""
        return c % 2 == (1 if self.s == 1 else 0)

    def __eq__(self, other):
        if isinstance(other, GroupType):
            return (self.s, self.N) == (other.s, other.N)
        return NotImplemented

    def __hash__(self):
        return hash((self.s, self.N))

    def __reduce__(self):
        return GroupType, (self.s, self.N)

    def __repr__(self):
        return f"GroupType(s={self.s:+d}, N={self.N})"


class ClassPartition:
    """A partition together with its group type and derived parity data.

    Built from the (value, multiplicity) runs of ``lam``, values
    descending, by :func:`classify`, which validates them, or by
    enumeration; the constructor itself trusts its runs.
    ``lam = gp + bp + bp`` as multisets, with ``gp`` all good-parity
    parts and ``bp`` half of the bad-parity parts.
    """

    __slots__ = ("lam", "gt", "gp", "bp", "S", "S0")

    def __init__(self, runs, gt):
        good_parity = gt.good_parity
        lam, gp, bp, S, S0 = [], [], [], [], []
        for v, m in runs:
            lam += [v] * m
            if good_parity(v):
                gp += [v] * m
                S.append(v)
                if m % 2:
                    S0.append(v)
            else:
                bp += [v] * (m // 2)
        fill = object.__setattr__
        fill(self, "lam", Partition._trusted(lam))
        fill(self, "gt", gt)
        fill(self, "gp", self.lam if len(gp) == len(lam) else Partition._trusted(gp))
        fill(self, "bp", Partition._trusted(bp))
        fill(self, "S", tuple(reversed(S)))
        fill(self, "S0", tuple(reversed(S0)))

    def __setattr__(self, name, value):
        raise AttributeError("ClassPartition is immutable")

    def __eq__(self, other):
        if isinstance(other, ClassPartition):
            return self.lam == other.lam and self.gt == other.gt
        return NotImplemented

    def __hash__(self):
        return hash((self.lam, self.gt))

    def __reduce__(self):
        return classify, (self.lam, self.gt)

    def __repr__(self):
        return f"ClassPartition({self.lam!r}, {self.gt!r})"


def classify(lam, gt):
    """Validate lam as a unipotent class partition for gt.

    Raises :class:`WrongTotal` if |lam| != N and :class:`ParityViolation`
    if a bad-parity value occurs an odd number of times; the smallest
    such value is named.
    """
    if not isinstance(lam, Partition):
        lam = Partition(lam)
    if lam.size != gt.N:
        raise WrongTotal(f"|{lam!r}| = {lam.size}, expected N = {gt.N}")
    runs = _runs(lam)
    for v, m in reversed(runs):
        if m % 2 and not gt.good_parity(v):
            raise ParityViolation(f"bad-parity part {v} has odd multiplicity in {lam!r}")
    return ClassPartition(runs, gt)


def partitions_of(n):
    """Yield all partitions of n in reverse-lexicographic order.

    Reverse-lex means the all-in-one-part partition (n) comes first and
    (1, ..., 1) last, matching the listing order of enumerate_classes.
    """
    if n == 0:
        yield Partition()
        return

    def rec(remaining, cap, prefix):
        if remaining == 0:
            yield tuple(prefix)
            return
        for first in range(min(cap, remaining), 0, -1):
            prefix.append(first)
            yield from rec(remaining - first, first, prefix)
            prefix.pop()

    for parts in rec(n, n, []):
        yield Partition(parts)


DEFAULT_ENUMERATION_BOUND = 60


def _class_parts(gt, good_only):
    """Yield the class partitions of gt.N, reverse-lex.

    Part values are chosen in descending order, each with its
    multiplicity from the largest down; a bad-parity value may only take
    an even multiplicity, and is skipped altogether when ``good_only``.
    This is the subsequence of :func:`partitions_of` that :func:`classify`
    accepts, in the same order, without visiting the rejects.  Each class
    is built from the (value, multiplicity) runs chosen on the way down.

    No branch ends without a class.  The least value a part may take is
    2 for the good-parity classes of C and 1 otherwise, and it can fill
    every remainder a branch leaves: a remainder of C is even, as 2 and
    the even multiplicities of 1 need.  So that value closes each branch
    by covering the whole remainder, and a larger value opens a deeper
    frame only for a remainder that it leaves.
    """
    least = 2 if good_only and gt.s == -1 else 1
    runs = []

    def rec(remaining, cap):
        for v in range(min(cap, remaining), least, -1):
            good = gt.good_parity(v)
            if not good and good_only:
                continue
            step = 1 if good else 2
            top = remaining // v
            for m in range(top - top % step, 0, -step):
                runs.append((v, m))
                if m * v == remaining:
                    yield ClassPartition(runs, gt)
                else:
                    yield from rec(remaining - m * v, v - 1)
                runs.pop()
        runs.append((least, remaining // least))
        yield ClassPartition(runs, gt)
        runs.pop()

    if not gt.N:
        return iter((ClassPartition((), gt),))
    return rec(gt.N, gt.N)


def _check_bound(gt):
    if gt.N > DEFAULT_ENUMERATION_BOUND:
        raise BoundExceeded(f"N = {gt.N} exceeds enumeration bound {DEFAULT_ENUMERATION_BOUND}")


def enumerate_classes(gt):
    """All unipotent class partitions for gt, in reverse-lex order.

    Raises :class:`BoundExceeded` when N exceeds DEFAULT_ENUMERATION_BOUND
    (the class count grows superpolynomially; the bound of 60 keeps
    runtimes sane while covering everything the verification suites need).
    """
    _check_bound(gt)
    return list(_class_parts(gt, False))


def good_parity_classes(gt):
    """The classes of :func:`enumerate_classes` without bad-parity parts.

    Same order and same :class:`BoundExceeded` gate; the bad-parity
    classes are never generated.
    """
    _check_bound(gt)
    return list(_class_parts(gt, True))
