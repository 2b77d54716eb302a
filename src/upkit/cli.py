"""Command-line front end: stable line-oriented JSON over the library.

Every record is a single JSON object with sorted keys (``--pretty``
re-indents for humans).  Exit codes: 0 success, 2 usage/validation,
3 domain error, 4 verification failure.  A closed stdout (``| head``)
ends the run with 0 and no traceback; for ``verify`` that is no verdict,
since only the ``summary`` record gives one.  ``UPKIT_MAX_N`` caps
``classes --N`` and ``verify --maxN``; no other command reads it.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections import Counter

from .components import (
    CLASS_CACHE_SIZE,
    CharFn,
    _within_J,
    block_structure,
    canonical_subgroup,
    canonical_subgroup_order,
    char_group_order,
)
from .errors import BoundExceeded, NotSpringerType, UpkitError
from .params import _check_z, _member_moves, packets_containing, weak_packet
from .partitions import (
    DEFAULT_ENUMERATION_BOUND,
    GroupType,
    Partition,
    _int_set,
    _int_token,
    classify,
    enumerate_classes,
)
from .pieces import bvls_dual, special_piece
from .springer import (
    defect,
    gamma_seq,
    springer_bipartition,
    springer_data,
    weakly_spherical_general,
)
from .verify import SUITES, VerificationFailed, plan, run_cell, skip_reason

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_VERIFY = 4

# The most canonical-subgroup characters a class may have for class-info,
# weak-packet and membership.  class-info lists them; the other two list
# at most 2^|J(lam)| <= 2 |Pdagger(lam)_0| rows.  The 25-part staircase
# 49,47,...,1 has exactly this many and lists in about 0.5 s; each two
# more parts multiply the count, and the time, by four.
A_DAGGER_BOUND = 2**12

# The most output text (ASCII JSON) the listing cache holds, in bytes; the
# weak-packet listing of B 49,47,...,1 alone is 4,134,655 bytes.
LISTING_BYTES = 2**25


def _max_n_cap() -> int:
    raw = os.environ.get("UPKIT_MAX_N", "")
    try:
        return _int_token(raw) if raw else DEFAULT_ENUMERATION_BOUND
    except ValueError:
        raise SystemExit(_fail(EXIT_USAGE, f"UPKIT_MAX_N={raw!r} is not an integer"))


# built once: json.dumps with options builds a new encoder for every record
_ENCODERS = {
    False: json.JSONEncoder(sort_keys=True, separators=(",", ":")),
    True: json.JSONEncoder(sort_keys=True, indent=2),
}


def _emit(obj, pretty: bool) -> None:
    print(_ENCODERS[pretty].encode(obj))


# The output text of class-info, weak-packet and membership without --J:
# ``records(cp, *options)`` encoded one record a line, kept per class so
# that a revisit prints it again without building or encoding a record.
# The commands run their gates before asking, and a record builder that
# raises leaves no entry, so a refusal is never cached.  The text built
# since the cache was last emptied bounds the text it holds.
_listed_bytes = 0


@functools.lru_cache(maxsize=CLASS_CACHE_SIZE)
def _listing(records, pretty: bool, cp, *options) -> str:
    global _listed_bytes
    text = "\n".join(map(_ENCODERS[pretty].encode, records(cp, *options)))
    _listed_bytes += len(text)
    return text


def _print_listing(records, pretty: bool, cp, *options) -> None:
    """Print the listing; empty the cache if it may hold over LISTING_BYTES."""
    global _listed_bytes
    print(_listing(records, pretty, cp, *options))
    if _listed_bytes > LISTING_BYTES:
        _listing.cache_clear()
        _listed_bytes = 0


# what str.splitlines breaks at, escaped so that every message is one line
_LINE_BREAKS = {ord(c): ascii(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"}


def _fail(code: int, message: str) -> int:
    print(f"upkit: {message.translate(_LINE_BREAKS)}", file=sys.stderr)
    return code


def _read_class(args) -> None:
    """Set args.cp, args.eps (trivial without --eps) and args.J from argv."""
    lam = Partition.from_text(args.partition)
    args.cp = classify(lam, GroupType.from_letter(args.dual, lam.size))
    eps_text = getattr(args, "eps", None)
    if eps_text is None:
        args.eps = CharFn(args.cp, frozenset())
    elif not isinstance(eps_text, str):  # argparse eats a bare "--"
        raise ValueError("empty --eps value")
    else:
        args.eps = CharFn.from_text(args.cp, eps_text)
    if getattr(args, "J", None) is not None:
        args.J = _int_set(args.J)


def _eps_fields(eps: CharFn) -> dict:
    return {"eps": sorted(eps.subset), "eps_signs": eps.to_text()}


# ---------------------------------------------------------------- commands


def cmd_classes(args) -> int:
    if args.N > _max_n_cap():
        return _fail(EXIT_USAGE, f"N={args.N} exceeds UPKIT_MAX_N cap")
    try:
        gt = GroupType.from_letter(args.dual, args.N)
    except ValueError as exc:
        return _fail(EXIT_USAGE, str(exc))
    for cp in enumerate_classes(gt):
        bs = block_structure(cp)
        _emit(
            {
                "I": sorted(bs.I_set),
                "J": sorted(bs.J_set),
                "partition": cp.lam.to_text(),
                "special": bs.special,
            },
            args.pretty,
        )
    return EXIT_OK


def _check_a_dagger(args) -> None:
    """:class:`BoundExceeded` when the canonical subgroup of args.cp has more
    than A_DAGGER_BOUND characters; counted, so nothing is built."""
    size = canonical_subgroup_order(args.cp)
    if size > A_DAGGER_BOUND:
        raise BoundExceeded(
            f"canonical subgroup has {size} characters, above the {args.command} bound {A_DAGGER_BOUND}"
        )


def cmd_class_info(args) -> int:
    _check_a_dagger(args)
    _print_listing(_class_info_records, args.pretty, args.cp)
    return EXIT_OK


def _class_info_records(cp):
    bs = block_structure(cp)
    yield {
        "A0_size": char_group_order(cp),
        "A_dagger": [sorted(e.subset) for e in canonical_subgroup(cp)],
        "A_dagger_signs": [e.to_text() for e in canonical_subgroup(cp)],
        "I": sorted(bs.I_set),
        "J": sorted(bs.J_set),
        "S": list(cp.S),
        "S0": list(cp.S0),
        "Spc": [mu.lam.to_text() for _, mu in special_piece(cp)],
        "blocks": [list(b) for b in bs.blocks],
        "d": bvls_dual(cp).lam.to_text(),
        "dual": cp.gt.letter,
        "partition": cp.lam.to_text(),
        "special": bs.special,
    }


def cmd_weak_packet(args) -> int:
    _check_a_dagger(args)
    _print_listing(_weak_packet_records, args.pretty, args.cp, args.z)
    return EXIT_OK


def _weak_packet_records(cp, z):
    rows = weak_packet(cp, z)
    for row in rows:
        yield {
            "J": sorted(row.J),
            "lpacket_size": row.lpacket_size,
            "mu": row.mu.lam.to_text(),
            "phi": row.phi.to_json(),
            "record": "lpacket",
            "table": row.table.to_json(),
        }
    yield {
        "lpacket_sizes": [r.lpacket_size for r in rows],
        "packets": len(rows),
        "record": "summary",
        "total": sum(r.lpacket_size for r in rows),
    }


def cmd_membership(args) -> int:
    _check_a_dagger(args)
    if args.J is not None:
        # the errors of the listing, in its order, without building a table
        moves = _member_moves(args.cp, args.eps)
        _check_z(args.z, args.cp.gt)
        _within_J(args.cp, args.J)
        _emit(
            {
                "J": sorted(args.J),
                "contains": args.J <= moves,
                **_eps_fields(args.eps),
                "partition": args.cp.lam.to_text(),
                "record": "membership",
            },
            args.pretty,
        )
        return EXIT_OK
    _print_listing(_membership_records, args.pretty, args.cp, args.eps, args.z)
    return EXIT_OK


def _membership_records(cp, eps, z):
    hits = packets_containing(cp, eps, z)
    for J, table in hits:
        yield {"J": sorted(J), "record": "packet", "table": table.to_json()}
    yield {"count": len(hits), "record": "summary"}


def cmd_springer(args) -> int:
    cp, eps = args.cp, args.eps
    sd = springer_data(cp, eps)
    # the command reports D_eps(0) first, in P(lam)_0 or not
    d0 = defect(sd, 0)
    if d0:
        raise NotSpringerType(f"D_eps(0) = {d0} != 0 for {eps!r}")
    sigma = springer_bipartition(sd)
    _emit(
        {
            "S_max": sorted(sd.S_max),
            "S_min": sorted(sd.S_min),
            "X": list(sd.X),
            "X_eps": list(sd.X_eps),
            "alpha": list(sigma.alpha),
            "beta": list(sigma.beta),
            "defect0": d0,
            "dual": cp.gt.letter,
            **_eps_fields(eps),
            "gamma": list(gamma_seq(sd)),
            "partition": cp.lam.to_text(),
        },
        args.pretty,
    )
    return EXIT_OK


def cmd_sphericity(args) -> int:
    cp, eps = args.cp, args.eps
    # only P(lam)_0 labels packet members; lam^gp has the same S and S_0
    if not eps.in_P0:
        raise ValueError(f"{eps!r} lies outside P(lam)_0; gamma is derived there")
    _emit(
        {
            "dual": cp.gt.letter,
            **_eps_fields(eps),
            "partition": cp.lam.to_text(),
            "weakly_spherical": weakly_spherical_general(cp, eps),
        },
        args.pretty,
    )
    return EXIT_OK


# ------------------------------------------------------------ verification


def _verify_cell(cell: tuple[str, int, int]) -> dict:
    suite, s, N = cell
    record = {
        "N": N,
        "dual": GroupType(s, N).letter if s else "-",
        "record": "check",
        "suite": suite,
    }
    reason = skip_reason(suite, N)
    if reason is not None:
        record.update(checked=0, reason=reason, status="skip")
        return record
    try:
        record["checked"] = run_cell(suite, s, N)
        record["status"] = "pass"
    except (VerificationFailed, UpkitError, ValueError) as exc:
        # a cell's inputs are all generated, so a route's own consistency
        # gate failing, or any domain error it raises, is a failed check
        # too, not the end of the run
        record["checked"] = 0
        record["status"] = "fail"
        record["detail"] = str(exc)
    return record


def cmd_verify(args) -> int:
    if args.maxN < 1:
        return _fail(EXIT_USAGE, f"maxN={args.maxN} must be at least 1")
    if args.jobs < 1:
        return _fail(EXIT_USAGE, f"jobs={args.jobs} must be at least 1")
    if args.maxN > _max_n_cap():
        return _fail(EXIT_USAGE, f"maxN={args.maxN} exceeds UPKIT_MAX_N cap")
    suites = list(SUITES) if args.suite == "all" else [args.suite]
    cells = plan(suites, args.maxN)
    statuses = Counter()

    def emit_each(records):
        # map and pool.map both yield in submission order; each record is
        # flushed as its cell ends, so a reader sees progress and a closed
        # pipe is noticed at the next cell, not at the end of the run
        for record in records:
            statuses[record["status"]] += 1
            _emit(record, args.pretty)
            sys.stdout.flush()

    if args.jobs > 1:
        # imported here, so that a serial run never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # the pool may start all its workers at once, so start no more than
        # there are cells to run and cores to run them on
        workers = min(args.jobs, len(cells), os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            try:
                emit_each(pool.map(_verify_cell, cells))
            except BrokenPipeError:
                # nobody reads the records any more: drop the cells not yet
                # started instead of waiting for them on the way out
                pool.shutdown(cancel_futures=True)
                raise
    else:
        emit_each(map(_verify_cell, cells))
    summary = {
        "maxN": args.maxN,
        "record": "summary",
        "status": "fail" if statuses["fail"] else "pass",
        "suites": suites,
    }
    if statuses["skip"]:
        summary["skipped"] = statuses["skip"]
    _emit(summary, args.pretty)
    return EXIT_VERIFY if statuses["fail"] else EXIT_OK


# -------------------------------------------------------------- the parser


class _Parser(argparse.ArgumentParser):
    """argparse's usage errors as one ``upkit: ...`` line, exit 2."""

    def error(self, message):
        raise SystemExit(_fail(EXIT_USAGE, message))


def _integer(text: str) -> int:
    try:
        return _int_token(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="upkit",
        description="unipotent classes, canonical quotients, weak packets",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, partition=True):
        p.add_argument("--dual", required=True, choices=("B", "C"))
        if partition:
            p.add_argument("--partition", required=True)
        p.add_argument("--pretty", action="store_true")

    p = sub.add_parser("classes", help="enumerate classes for a dual group")
    common(p, partition=False)
    p.add_argument("--N", type=_integer, required=True)
    p.set_defaults(fn=cmd_classes)

    p = sub.add_parser("class-info", help="canonical quotient data of a class")
    common(p)
    p.set_defaults(fn=cmd_class_info)

    p = sub.add_parser("weak-packet", help="L-packet rows of the weak packet")
    common(p)
    p.add_argument("--z", type=_integer, default=1, choices=(1, -1))
    p.set_defaults(fn=cmd_weak_packet)

    p = sub.add_parser("membership", help="packets containing a member")
    common(p)
    p.add_argument("--eps", required=True)
    p.add_argument("--z", type=_integer, default=1, choices=(1, -1))
    p.add_argument("--J")
    p.set_defaults(fn=cmd_membership)

    p = sub.add_parser("springer", help="Springer bipartition of (lam, eps)")
    common(p)
    p.add_argument("--eps")
    p.set_defaults(fn=cmd_springer)

    p = sub.add_parser("sphericity", help="weak sphericity of (lam, eps)")
    common(p)
    p.add_argument("--eps")
    p.set_defaults(fn=cmd_sphericity)

    p = sub.add_parser("verify", help="run the property suites")
    p.add_argument("--suite", default="all", choices=("all",) + SUITES)
    p.add_argument("--maxN", type=_integer, default=12)
    p.add_argument("--jobs", type=_integer, default=1)
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(fn=cmd_verify)

    return top


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = _dispatch(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (``upkit ... | head``); point the fd at
        # devnull so the interpreter's final flush cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    return code


def _dispatch(args) -> int:
    if hasattr(args, "partition"):
        try:
            _read_class(args)
        except (UpkitError, ValueError) as exc:
            return _fail(EXIT_USAGE, str(exc))
    try:
        return args.fn(args)
    except (UpkitError, ValueError) as exc:
        return _fail(EXIT_DOMAIN, str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
