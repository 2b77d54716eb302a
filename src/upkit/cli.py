"""Command-line front end: stable line-oriented JSON over the library.

Every record is a single JSON object with sorted keys (``--pretty``
re-indents for humans).  Exit codes: 0 success, 2 usage/validation,
3 domain error, 4 verification failure.  A closed stdout (``| head``)
ends the run with 0 and no traceback; for ``verify`` that is no verdict,
since only the ``summary`` record gives one.  ``UPKIT_MAX_N`` caps every
enumeration bound accepted on the command line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from dataclasses import dataclass

from .components import CharFn, block_structure, canonical_subgroup, char_group_order
from .errors import MalformedOutput, UpkitError
from .params import near_tempered_table, packets_containing, weak_packet
from .partitions import (
    DEFAULT_ENUMERATION_BOUND,
    ClassPartition,
    GroupType,
    Partition,
    _int_set,
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


@dataclass(frozen=True)
class QuerySpec:
    """Validated command inputs; built before any computation runs."""

    dual_type: str
    cp: ClassPartition
    eps: CharFn | None = None
    z: int = 1
    J: frozenset[int] | None = None


def _max_n_cap() -> int:
    raw = os.environ.get("UPKIT_MAX_N", "")
    try:
        return int(raw) if raw else DEFAULT_ENUMERATION_BOUND
    except ValueError:
        raise SystemExit(_fail(EXIT_USAGE, f"UPKIT_MAX_N={raw!r} is not an integer"))


def _emit(obj, pretty: bool) -> None:
    if pretty:
        print(json.dumps(obj, sort_keys=True, indent=2))
    else:
        print(json.dumps(obj, sort_keys=True, separators=(",", ":")))


def _fail(code: int, message: str) -> int:
    print(f"upkit: {message}", file=sys.stderr)
    return code


def _build_query(args) -> QuerySpec:
    lam = Partition.from_text(args.partition)
    gt = GroupType.from_letter(args.dual, lam.size)
    cp = classify(lam, gt)
    eps = None
    eps_text = getattr(args, "eps", None)
    if eps_text is not None:
        if not isinstance(eps_text, str):  # argparse eats a bare "--"
            raise ValueError("empty --eps value")
        eps = CharFn.from_text(cp, eps_text)
    J = None
    if getattr(args, "J", None) is not None:
        J = _int_set(args.J)
    return QuerySpec(
        dual_type=gt.letter, cp=cp, eps=eps, z=getattr(args, "z", 1), J=J
    )


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


def cmd_class_info(q: QuerySpec, args) -> int:
    cp = q.cp
    bs = block_structure(cp)
    _emit(
        {
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
            "dual": q.dual_type,
            "partition": cp.lam.to_text(),
            "special": bs.special,
        },
        args.pretty,
    )
    return EXIT_OK


def cmd_weak_packet(q: QuerySpec, args) -> int:
    rows = weak_packet(q.cp, q.z)
    for row in rows:
        _emit(
            {
                "J": sorted(row.J),
                "lpacket_size": row.lpacket_size,
                "mu": row.mu.lam.to_text(),
                "phi": row.phi.to_json(),
                "record": "lpacket",
                "table": row.table.to_json(),
            },
            args.pretty,
        )
    _emit(
        {
            "lpacket_sizes": [r.lpacket_size for r in rows],
            "packets": len(rows),
            "record": "summary",
            "total": sum(r.lpacket_size for r in rows),
        },
        args.pretty,
    )
    return EXIT_OK


def cmd_membership(q: QuerySpec, args) -> int:
    hits = packets_containing(q.cp, q.eps, q.z)
    if q.J is not None:
        near_tempered_table(q.cp, q.J, q.z)  # validates J against J(lam)
        _emit(
            {
                "J": sorted(q.J),
                "contains": q.J in {J for J, _ in hits},
                **_eps_fields(q.eps),
                "partition": q.cp.lam.to_text(),
                "record": "membership",
            },
            args.pretty,
        )
        return EXIT_OK
    for J, table in hits:
        _emit(
            {"J": sorted(J), "record": "packet", "table": table.to_json()},
            args.pretty,
        )
    _emit({"count": len(hits), "record": "summary"}, args.pretty)
    return EXIT_OK


def cmd_springer(q: QuerySpec, args) -> int:
    eps = q.eps if q.eps is not None else CharFn(q.cp, frozenset())
    sd = springer_data(q.cp, eps)
    sigma = springer_bipartition(sd)
    _emit(
        {
            "S_max": sorted(sd.S_max),
            "S_min": sorted(sd.S_min),
            "X": list(sd.X),
            "X_eps": list(sd.X_eps),
            "alpha": list(sigma.alpha),
            "beta": list(sigma.beta),
            "defect0": defect(sd, 0),
            "dual": q.dual_type,
            **_eps_fields(eps),
            "gamma": list(gamma_seq(sd)),
            "partition": q.cp.lam.to_text(),
        },
        args.pretty,
    )
    return EXIT_OK


def cmd_sphericity(q: QuerySpec, args) -> int:
    eps = q.eps if q.eps is not None else CharFn(q.cp, frozenset())
    _emit(
        {
            "dual": q.dual_type,
            **_eps_fields(eps),
            "partition": q.cp.lam.to_text(),
            "weakly_spherical": weakly_spherical_general(q.cp, eps),
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
    except (VerificationFailed, MalformedOutput) as exc:
        # a route's own consistency gate failing is a failed check too
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

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
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


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
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
    p.add_argument("--N", type=int, required=True)
    p.set_defaults(fn=cmd_classes, query=False)

    p = sub.add_parser("class-info", help="canonical quotient data of a class")
    common(p)
    p.set_defaults(fn=cmd_class_info, query=True)

    p = sub.add_parser("weak-packet", help="L-packet rows of the weak packet")
    common(p)
    p.add_argument("--z", type=int, default=1, choices=(1, -1))
    p.set_defaults(fn=cmd_weak_packet, query=True)

    p = sub.add_parser("membership", help="packets containing a member")
    common(p)
    p.add_argument("--eps", required=True)
    p.add_argument("--z", type=int, default=1, choices=(1, -1))
    p.add_argument("--J")
    p.set_defaults(fn=cmd_membership, query=True)

    p = sub.add_parser("springer", help="Springer bipartition of (lam, eps)")
    common(p)
    p.add_argument("--eps")
    p.set_defaults(fn=cmd_springer, query=True)

    p = sub.add_parser("sphericity", help="weak sphericity of (lam, eps)")
    common(p)
    p.add_argument("--eps")
    p.set_defaults(fn=cmd_sphericity, query=True)

    p = sub.add_parser("verify", help="run the property suites")
    p.add_argument("--suite", default="all", choices=("all",) + SUITES)
    p.add_argument("--maxN", type=int, default=12)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(fn=cmd_verify, query=False)

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
    if not args.query:
        try:
            return args.fn(args)
        except (UpkitError, ValueError) as exc:
            return _fail(EXIT_DOMAIN, str(exc))
    try:
        q = _build_query(args)
    except (UpkitError, ValueError) as exc:
        return _fail(EXIT_USAGE, str(exc))
    try:
        return args.fn(q, args)
    except (UpkitError, ValueError) as exc:
        return _fail(EXIT_DOMAIN, str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
