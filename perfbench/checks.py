"""Correctness of recorded outputs, checked after the timed loop.

Batch ops must reproduce the counts pinned in ``expected.json``.  Each
``queries`` kind is held against a second route computed here:

* ``sphericity``: weakly_spherical == (eps in Pdagger(lam)_0), the right
  side from ``canonical_subgroup`` (the tableau algorithm against block
  structure).
* ``class-info`` and ``weak-packet``: |Spc| and the row count both equal
  2^|J(lam)|, with J(lam) from ``block_structure``.
* ``membership``: the packets containing eps are exactly the subsets of
  {c in J(lam) : t_c(eps) = -1}, with t_c evaluated from its definition.
* ``springer``: X and X_eps recomputed from lam and eps by their
  definitions, defect0 = 0, and |alpha| + |beta| = n.

Each function returns a list of problems; an empty list means the op
passed.
"""

from __future__ import annotations

import json
from pathlib import Path

import workloads
from upkit.components import block_structure, canonical_subgroup

EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text())


def _records(op: dict) -> list[dict]:
    return [json.loads(line) for line in op["stdout"].splitlines()]


def _run_problems(op: dict) -> list[str]:
    problems = []
    if op["rc"] != 0:
        problems.append(f"exit code {op['rc']}")
    if op["stderr"]:
        problems.append("stderr: " + op["stderr"].strip().splitlines()[-1])
    return problems


def check_batch(argv: list[str], op: dict) -> list[str]:
    """Exit code 0, every record status pass, pinned counts reproduced."""
    problems = _run_problems(op)
    if problems:
        return problems
    want = EXPECTED[" ".join(argv)]
    records = _records(op)
    if "lines" in want and len(records) != want["lines"]:
        problems.append(f"{len(records)} lines, expected {want['lines']}")
    if "checked" in want:
        got: dict[str, int] = {}
        for r in records:
            if r.get("record") == "check":
                got[r["suite"]] = got.get(r["suite"], 0) + r["checked"]
        if got != want["checked"]:
            problems.append(f"checked {got}, expected {want['checked']}")
        bad = [r for r in records if r.get("status") not in (None, "pass")]
        if bad:
            problems.append(f"{len(bad)} records not pass")
        if records[-1].get("record") != "summary":
            problems.append("no summary record")
    return problems


def checked_count(op: dict) -> int:
    return sum(r.get("checked", 0) for r in _records(op))


def check_query(q: dict, op: dict) -> list[str]:
    problems = _run_problems(op)
    if problems:
        return problems
    records = _records(op)
    cp = workloads.class_of(q)
    J = sorted(block_structure(cp).J_set)
    kind = q["kind"]
    if kind == "class-info":
        (rec,) = records
        if rec["J"] != J or len(rec["Spc"]) != 2 ** len(J):
            problems.append(f"|Spc| = {len(rec['Spc'])}, J = {rec['J']}, J(lam) = {J}")
    elif kind == "weak-packet":
        *rows, summary = records
        if not len(rows) == summary["packets"] == 2 ** len(J):
            problems.append(f"{len(rows)} rows, J(lam) = {J}")
        if summary["total"] != sum(r["lpacket_size"] for r in rows):
            problems.append("summary total is not the sum of the L-packet sizes")
    elif kind == "membership":
        *packets, summary = records
        eps = q["eps"]
        hits = {c for c in J if len(eps & {c - 1, c + 1}) % 2}
        if not len(packets) == summary["count"] == 2 ** len(hits):
            problems.append(f"{len(packets)} packets, t_c(eps) = -1 on {sorted(hits)}")
        if any(not set(p["J"]) <= hits for p in packets):
            problems.append("a packet's J is not inside {c : t_c(eps) = -1}")
    elif kind == "sphericity":
        (rec,) = records
        canonical = q["eps"] in {fn.subset for fn in canonical_subgroup(cp)}
        if rec["eps"] != sorted(q["eps"]) or rec["weakly_spherical"] != canonical:
            problems.append(f"weakly_spherical {rec['weakly_spherical']}, eps in Pdagger {canonical}")
    elif kind == "springer":
        (rec,) = records
        problems += _springer_problems(q, rec)
    return problems


def _springer_problems(q: dict, rec: dict) -> list[str]:
    lam, eps = q["parts"], q["eps"]
    ind = [0] + [int(p in eps) for p in lam]
    X = [i for i in range(1, len(lam) + 1) if i == 1 or lam[i - 1] != lam[i - 2]]
    X_eps = [i for i in X if ind[i] != ind[i - 1]]
    rank = (sum(lam) - (1 if q["dual"] == "B" else -1)) // 2
    problems = []
    if rec["X"] != X or rec["X_eps"] != X_eps:
        problems.append(f"X, X_eps = {rec['X']}, {rec['X_eps']}; expected {X}, {X_eps}")
    if rec["defect0"] != 0:
        problems.append(f"defect0 = {rec['defect0']}")
    if sum(rec["alpha"]) + sum(rec["beta"]) != rank:
        problems.append(f"|alpha| + |beta| != n = {rank}")
    return problems
