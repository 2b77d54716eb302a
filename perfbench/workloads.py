"""Workload definitions: the op lists each workload sends to ``upkit.cli.main``.

An op is one argv list.  The batch workloads run fixed commands whose
output counts are pinned in ``expected.json``; their inputs do not depend
on the seed.  ``queries`` draws a stream of single-class commands from the
seed; only ``build_queries`` and ``class_of`` import upkit, in the harness
process.  The measured process receives nothing but the argv lists.
"""

from __future__ import annotations

import functools
import itertools
import random

GOODPARITY = [
    "classes --dual C --N 40",
    "verify --suite theoremC --maxN 36",
    "verify --suite firstrow --maxN 36",
]

# One client, closed loop: each workload's ops run one after another in one
# fresh process, the next op starting when the previous one returns.
BATCH = {
    "goodparity-sweep": GOODPARITY,
    "verify-all": ["verify --suite all --maxN 16"],
}
WORKLOADS = tuple(BATCH) + ("queries",)

QUERY_COUNT = 1200
QUERY_KINDS = ("class-info", "weak-packet", "membership", "sphericity", "springer")
MIN_N, MAX_N = 10, 60
TRIANGULAR_K = range(1, 8)
# puts the p99 rank inside the group of costliest staircase queries,
# not at its edge (NOTES.md)
TRIANGULAR_EVERY = 6
REVISIT_SHARE = 0.5
SPRINGER_TRIES = 8


@functools.lru_cache(maxsize=None)
def _count(n: int, k: int) -> int:
    """Number of partitions of n with every part at most k."""
    if n == 0:
        return 1
    return sum(_count(n - j, j) for j in range(1, min(n, k) + 1))


def random_partition(rng: random.Random, n: int) -> tuple[int, ...]:
    """A partition of n drawn uniformly at random, parts decreasing."""
    parts, cap = [], n
    while n:
        pick = rng.randrange(_count(n, cap))
        for j in range(min(n, cap), 0, -1):
            pick -= _count(n - j, j)
            if pick < 0:
                break
        parts.append(j)
        n, cap = n - j, j
    return tuple(parts)


def good_parity(dual: str, value: int) -> bool:
    return value % 2 == (1 if dual == "B" else 0)


def is_class(dual: str, parts) -> bool:
    """Bad-parity values must occur an even number of times."""
    return all(
        good_parity(dual, v) or parts.count(v) % 2 == 0 for v in set(parts)
    )


def partition_text(parts) -> str:
    """The CLI's own notation: decreasing, repeats as ``value^count``."""
    return ",".join(
        f"{v}^{c}" if c > 1 else str(v)
        for v, c in ((v, len(list(g))) for v, g in itertools.groupby(parts))
    )


def support(dual: str, parts) -> tuple[tuple[int, ...], frozenset[int]]:
    """S(lam), the good-parity values ascending, and S0(lam), the values
    of odd multiplicity."""
    S = tuple(sorted(v for v in set(parts) if good_parity(dual, v)))
    S0 = frozenset(v for v in set(parts) if parts.count(v) % 2)
    return S, S0


def sign_text(S, subset) -> str:
    return "(" + "".join("-" if v in subset else "+" for v in S) + ")"


def random_p0(rng: random.Random, dual: str, parts) -> frozenset[int]:
    """A uniform member of P(lam)_0: subsets of S meeting S0 evenly."""
    S, S0 = support(dual, parts)
    subset = {v for v in S if rng.random() < 0.5}
    if len(subset & S0) % 2:
        subset ^= {min(S0)}
    return frozenset(subset)


def triangular(k: int) -> tuple[int, ...]:
    """The staircase (4k+1, 4k-1, ..., 1), a B class of size (2k+1)^2."""
    return tuple(range(4 * k + 1, 0, -2))


def random_class(rng: random.Random) -> tuple[str, tuple[int, ...]]:
    """A B or C class with N uniform in [MIN_N, MAX_N], its partition
    uniform among the class partitions of N."""
    dual = rng.choice("BC")
    n = rng.randrange(MIN_N + (dual == "B"), MAX_N + 1, 2)
    while True:
        parts = random_partition(rng, n)
        if is_class(dual, parts):
            return dual, parts


def query_stream(seed: int, count: int = QUERY_COUNT) -> list[dict]:
    """The seeded query list: dicts with dual, parts, kind and eps inputs.

    One query in TRIANGULAR_EVERY goes to a staircase class; those queries
    cycle through every (k, kind) pair, so the costliest queries (weak
    packets of the largest staircases) are the same share of every seed's
    stream.  The others go to random classes, fresh or revisited so that
    REVISIT_SHARE of all queries ask about a class asked about before.

    ``sphericity`` carries ``eps``, a uniform member of P(lam)_0.  The
    valid characters of ``membership`` (Pdagger(lam)_0) and ``springer``
    (Springer type) depend on the block structure, so those queries carry
    random draws from which :func:`build_queries` picks.  ``springer`` is
    only asked of classes of pure good parity.
    """
    rng = random.Random(seed)
    pairs = [(k, kind) for k in TRIANGULAR_K for kind in QUERY_KINDS]
    n_tri = count // TRIANGULAR_EVERY
    tri = [pairs[i % len(pairs)] for i in range(n_tri)]
    rng.shuffle(tri)
    tri_slots = set(rng.sample(range(count), n_tri))
    tri_revisits = n_tri - len({k for k, _ in tri})
    p_revisit = (count * REVISIT_SHARE - tri_revisits) / (count - n_tri)
    asked: list[tuple[str, tuple[int, ...]]] = []
    seen: set[tuple[str, tuple[int, ...]]] = set()
    out = []
    for i in range(count):
        if i in tri_slots:
            k, kind = tri.pop()
            dual, parts = "B", triangular(k)
        else:
            if asked and rng.random() < p_revisit:
                dual, parts = rng.choice(asked)
            else:
                dual, parts = random_class(rng)
                asked.append((dual, parts))
            kinds = QUERY_KINDS
            if not all(good_parity(dual, v) for v in parts):
                kinds = tuple(k for k in kinds if k != "springer")
            kind = rng.choice(kinds)
        q = {"dual": dual, "parts": parts, "kind": kind, "revisit": (dual, parts) in seen}
        seen.add((dual, parts))
        if kind == "sphericity":
            q["eps"] = random_p0(rng, dual, parts)
        elif kind == "membership":
            q["eps_pick"] = rng.random()
        elif kind == "springer":
            q["eps_tries"] = [random_p0(rng, dual, parts) for _ in range(SPRINGER_TRIES)]
        out.append(q)
    return out


def class_of(q: dict):
    """The query's class as upkit's ClassPartition."""
    from upkit.partitions import GroupType, Partition, classify

    parts = q["parts"]
    return classify(Partition(parts), GroupType.from_letter(q["dual"], sum(parts)))


def build_queries(seed: int, count: int = QUERY_COUNT) -> list[dict]:
    """The query stream with every character fixed.

    ``membership``: the draw indexes the Pdagger(lam)_0 subsets in sorted
    order, so the pick depends on the set and not on the order upkit lists
    it in.  ``springer``: the first draw of Springer type, else the trivial
    character, which always is.
    """
    from upkit.components import CharFn, canonical_subgroup
    from upkit.springer import is_springer_type, springer_data

    queries = query_stream(seed, count)
    for q in queries:
        if q["kind"] == "membership":
            pool = sorted(tuple(sorted(fn.subset)) for fn in canonical_subgroup(class_of(q)))
            q["eps"] = frozenset(pool[int(q["eps_pick"] * len(pool))])
        elif q["kind"] == "springer":
            cp = class_of(q)
            q["eps"] = next(
                (e for e in q["eps_tries"] if is_springer_type(springer_data(cp, CharFn(cp, e)))),
                frozenset(),
            )
    return queries


def argv_of(q: dict) -> list[str]:
    argv = [q["kind"], "--dual", q["dual"], "--partition", partition_text(q["parts"])]
    if "eps" in q:
        S, _ = support(q["dual"], q["parts"])
        argv += ["--eps", sign_text(S, q["eps"])]
    return argv


def batch_ops(workload: str) -> list[list[str]]:
    return [cmd.split() for cmd in BATCH[workload]]
