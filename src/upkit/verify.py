"""The property suites: exhaustive checks of the paper's identities.

Each ``check_*`` function runs one suite over every class of one group
type (the oracle checks: over every pair of total degree n) and returns
the number of checks it made.  A failed check raises
:class:`VerificationFailed`, whose message names the offending input.
``upkit verify`` runs the suites cell by cell from :func:`plan`; the
acceptance tests call the same functions at their own bounds.

Only the check bodies live here.  The two routes each check compares
stay apart at the call level, which ``tests/test_two_routes.py`` checks:
the canonical subgroup (``components``) imports nothing from the tableau
route (``springer``); in ``wreps`` the oracle ``oracle_mult`` reaches
none of ``pieri``, ``lr_mult`` or ``induce_table``; and in ``params`` the
brute force ``enumerate_lparams_with_inf_char`` reaches none of
``near_tempered_table``, ``special_piece`` or ``block_structure``.
"""

from __future__ import annotations

from .components import CharFn, _subsets_in_order, block_structure, canonical_subsets
from .moeglin import arthur_character, merge_chains, tempered_intersection
from .params import ENUM_BOUND, verify_almost_intro
from .partitions import (
    DEFAULT_ENUMERATION_BOUND,
    GroupType,
    enumerate_classes,
    good_parity_classes,
)
from .pieces import bvls_dual, is_special, piece_data, special_closure, special_piece
from .springer import _class_index, character_sweep, delta_tau, leq_dominance, x_eps
from .wreps import Bipartition, bipartitions_of, e_rep, induce_table, invariant_dim, oracle_mult


class VerificationFailed(AssertionError):
    """A property check failed.

    Raised explicitly rather than by ``assert``, so that the checks still
    run under ``python -O``.
    """


def _at(cp, eps=None) -> str:
    text = f"{cp.gt.letter} {cp.lam.to_text()}"
    return text if eps is None else f"{text} eps={eps.to_text()}"


def every_group(max_n: int):
    """The group type of every N in 1..max_n: B for odd N, C for even N."""
    for N in range(1, max_n + 1):
        yield GroupType(1 if N % 2 else -1, N)


# ------------------------------------------------------------------ checks


def check_dprop(gt: GroupType) -> int:
    """d(lam) is special, d(d(lam)) is the special closure T_up(lam, I(lam)),
    and the fibers of d are the special pieces."""
    checked = 0
    fibers = {}
    for cp in enumerate_classes(gt):
        d = bvls_dual(cp)
        if not is_special(d):
            raise VerificationFailed(f"d({_at(cp)}) not special")
        back = bvls_dual(d)
        if back != special_closure(cp):
            raise VerificationFailed(f"d(d({_at(cp)})) is not the special closure")
        fibers.setdefault(d, set()).add(cp)
        checked += 1
    for image, fiber in fibers.items():
        if fiber != {mu for _, mu in special_piece(bvls_dual(image))}:
            raise VerificationFailed(f"fiber over {_at(image)} is not the special piece")
    return checked


def check_spc(gt: GroupType) -> int:
    """The special piece of lam has 2^|J| distinct members."""
    checked = 0
    for cp in enumerate_classes(gt):
        if len({mu for _, mu in special_piece(cp)}) != 2 ** len(piece_data(cp).J_set):
            raise VerificationFailed(f"{_at(cp)}: special piece is not 2^|J|")
        checked += 1
    return checked


def check_js(gt: GroupType) -> int:
    """Every tempered member shared with the m_{lam,J} packet is carried to
    m_{lam,J} by its merge chain, with the Moeglin signs the merges predict,
    for every J inside J(lam) and every central character z."""
    checked = 0
    zs = (1,) if gt.s == 1 else (1, -1)
    for cp in enumerate_classes(gt):
        chains = {z: merge_chains(cp, z) for z in zs}
        for J in _subsets_in_order(block_structure(cp).J_set):
            inside = tempered_intersection(cp, J)
            for z in zs:
                for eps in inside:
                    # a chain raises MalformedOutput when it misses
                    # near_tempered_table(cp, J, z)
                    m, ao, p = chains[z](eps, J)
                    ch = arthur_character(ao, p)
                    for i in m.gp_indices:
                        a, b = m.entries[i]
                        if b == 1:
                            # untouched entries keep the tempered sign
                            ok = (
                                p.eta_of(i) == eps.sign(a)
                                and ch.indicator((a, 1)) == eps.indicator(a)
                            )
                        else:
                            # merged entries flip with eps(a-1)
                            low = eps.indicator(a - 1) if a > 1 else 0
                            ok = p.eta_of(i) == (-1) ** low
                        if not ok:
                            raise VerificationFailed(
                                f"{_at(cp, eps)} J={sorted(J)} z={z}: wrong sign at entry {(a, b)}"
                            )
                    checked += 1
    return checked


def check_almost(gt: GroupType) -> int:
    """The brute-force L-parameters with character chi_lambda and dual
    d(lam) are exactly the near-tempered family of the piece cube."""
    checked = 0
    duals = {}
    for cp in enumerate_classes(gt):
        report = verify_almost_intro(cp, duals)
        if not report.ok or len(report.found) != 2 ** len(block_structure(cp).J_set):
            raise VerificationFailed(f"{_at(cp)}: brute force disagrees with the piece cube")
        checked += 1
    return checked


def check_firstrow(gt: GroupType) -> int:
    """Green tableaux of a Springer-type pair put exactly the complement of
    X_eps in the first row, and their bipartitions are pairwise
    incomparable in the (delta, tau) dominance order."""
    checked = 0
    dt = delta_tau(gt)
    for cp in good_parity_classes(gt):
        ci = _class_index(cp)
        # first rows and X_eps are index bitmasks, index i at bit i - 1
        indices = (1 << len(cp.lam)) - 1
        for sub, mask, first_rows, pairs, _ in character_sweep(ci):
            if first_rows is None:
                continue
            # every sweep of a Springer-type character reaches a tableau
            if first_rows != {indices ^ x_eps(ci, mask)}:
                raise VerificationFailed(
                    f"{_at(cp, CharFn(cp, sub))}: first row is not the complement of X_eps"
                )
            # a single pair has nothing to be compared with
            ps = {Bipartition(a, b) for a, b in pairs} if len(pairs) > 1 else ()
            for x in ps:
                for y in ps:
                    if x != y and leq_dominance(x, y, *dt):
                        raise VerificationFailed(
                            f"{_at(cp, CharFn(cp, sub))}: {x.to_text()} <= {y.to_text()} in dominance"
                        )
            checked += 1
    return checked


def check_theoremC(gt: GroupType) -> int:
    """A character in P(lam)_0 is weakly spherical exactly when it lies in
    the canonical subgroup, for every good-parity class.

    One side is membership in the canonical subgroup, straight from the
    block structure of S(lam); the other is the tableau algorithm over the
    gamma sequence.  The two share no code beyond the index data.
    """
    checked = 0
    for cp in good_parity_classes(gt):
        adag = canonical_subsets(cp)
        for sub, _, _, _, spherical in character_sweep(_class_index(cp)):
            if spherical != (sub in adag):
                raise VerificationFailed(
                    f"{_at(cp, CharFn(cp, sub))}: weak sphericity disagrees with the canonical subgroup"
                )
            checked += 1
    return checked


def check_lr_oracle(n: int) -> int:
    """The LR induction table of every pair of bipartitions of total degree
    n equals the one the W_n character-table oracle computes."""
    checked = 0
    for i in range(n + 1):
        ys = list(bipartitions_of(n - i))
        for x in bipartitions_of(i):
            for y in ys:
                if oracle_mult(x, y) != induce_table(x, y):
                    raise VerificationFailed(
                        f"LR and oracle disagree on {x.to_text()} x {y.to_text()}"
                    )
                checked += 1
    return checked


def check_fixed_vectors(n: int) -> int:
    """The W_{n,i}-fixed-vector formula matches the multiplicities of the
    induced trivial representation, for every i and every Irr(W_n)."""
    checked = 0
    for i in range(n + 1):
        brute = oracle_mult(e_rep(1, i, 0), e_rep(1, n - i, 0))
        for pi in bipartitions_of(n):
            if invariant_dim(pi, i) != brute.get(pi, 0):
                raise VerificationFailed(f"fixed vectors of {pi.to_text()} under W_{n},{i}")
            checked += 1
    return checked


# ---------------------------------------------------------------- planning

CHECKS = {
    "dprop": check_dprop,
    "spc": check_spc,
    "js": check_js,
    "almost": check_almost,
    "firstrow": check_firstrow,
    "theoremC": check_theoremC,
}
SUITES = (*CHECKS, "oracle")

# The largest N (for the oracle: n) each suite runs at.  The oracle is
# correct through wreps.ORACLE_BOUND = 6, and its n = 6 cell (1,029
# checks) takes 0.21-0.31 s in a fresh process (five runs on a shared
# 2-core x86_64 machine, Python 3.11.7); the bound stays 5 because
# perfbench/expected.json and tests/test_cli.py pin the 792 oracle checks
# of a run through maxN >= 5.
BOUNDS = {suite: DEFAULT_ENUMERATION_BOUND for suite in CHECKS}
BOUNDS["almost"] = ENUM_BOUND
BOUNDS["oracle"] = 5


def plan(suites, max_n: int) -> list[tuple[str, int, int]]:
    """The (suite, s, N) cells of a run through max_n, in output order.

    Oracle cells carry s = 0 and stop at the oracle's bound; partition
    suites get a cell for every N, also past their bound (see
    :func:`skip_reason`).
    """
    cells = []
    for suite in suites:
        if suite == "oracle":
            cells += [("oracle", 0, n) for n in range(min(max_n, BOUNDS["oracle"]) + 1)]
        else:
            cells += [(suite, gt.s, gt.N) for gt in every_group(max_n)]
    return cells


def skip_reason(suite: str, N: int) -> str | None:
    """Why a cell is not run, or None when N is within its suite's bound."""
    if N > BOUNDS[suite]:
        return f"N = {N} exceeds the {suite} bound {BOUNDS[suite]}"
    return None


def run_cell(suite: str, s: int, N: int) -> int:
    """Run one planned cell and return its number of checks."""
    if suite == "oracle":
        return check_lr_oracle(N) + check_fixed_vectors(N)
    return CHECKS[suite](GroupType(s, N))
