import concurrent.futures
import contextlib
import json
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import upkit
import upkit.moeglin
import upkit.params
import upkit.pieces
import upkit.springer
from upkit import verify, wreps
from upkit.cli import A_DAGGER_BOUND, _verify_cell, main
from upkit.errors import MalformedOutput, MoveNotApplicable
from upkit.params import tempered_table
from upkit.partitions import MAX_PARSED_SIZE, GroupType, Partition


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    lines = [ln for ln in out.splitlines() if ln]
    return code, lines


# ----------------------------------------------------------------- classes

def test_classes_singleton(capsys):
    code, lines = run(capsys, "classes", "--dual", "B", "--N", "1")
    assert code == 0
    assert lines == ['{"I":[],"J":[],"partition":"1","special":true}']


def test_classes_c2(capsys):
    code, lines = run(capsys, "classes", "--dual", "C", "--N", "2")
    assert code == 0
    assert [json.loads(ln)["partition"] for ln in lines] == ["2", "1^2"]


def test_classes_b9_count(capsys):
    code, lines = run(capsys, "classes", "--dual", "B", "--N", "9")
    assert code == 0
    assert len(lines) == 13  # |P^{+1}(9)|
    first = json.loads(lines[0])
    assert first == {"I": [], "J": [], "partition": "9", "special": True}


def test_only_class_info_cuts_blocks(capsys, monkeypatch, cold_class_caches):
    calls = []
    interval = Partition.interval

    def counted(lam, a, b):
        calls.append((a, b))
        return interval(lam, a, b)

    monkeypatch.setattr(Partition, "interval", counted)
    code, lines = run(capsys, "classes", "--dual", "C", "--N", "12")
    assert code == 0 and len(lines) == 40
    assert calls == []
    code, lines = run(capsys, "class-info", "--dual", "B", "--partition", "9,7,5,3,1")
    assert code == 0
    assert json.loads(lines[0])["blocks"] == [[3, 1], [7, 5], [9]]
    assert calls == [(1, 3), (5, 7), (9, 9)]


def test_classes_parity_mismatch(capsys):
    code, _ = run(capsys, "classes", "--dual", "B", "--N", "8")
    assert code == 2


def test_classes_cap(capsys, monkeypatch):
    monkeypatch.setenv("UPKIT_MAX_N", "10")
    code, _ = run(capsys, "classes", "--dual", "B", "--N", "11")
    assert code == 2
    monkeypatch.setenv("UPKIT_MAX_N", "11")
    code, _ = run(capsys, "classes", "--dual", "B", "--N", "11")
    assert code == 0


def test_cap_not_an_integer(capsys, monkeypatch):
    monkeypatch.setenv("UPKIT_MAX_N", "abc")
    with pytest.raises(SystemExit) as exc:
        main(["classes", "--dual", "C", "--N", "4"])
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("upkit: ") and "'abc'" in err[0]


# -------------------------------------------------------------- class-info

GOLDEN_INFO = (
    '{"A0_size":4,"A_dagger":[[],[1,3]],"A_dagger_signs":["(+++)","(--+)"],'
    '"I":[],"J":[4],"S":[1,3,5],"S0":[1,3,5],"Spc":["5,3,1","4^2,1"],'
    '"blocks":[[3,1],[5]],"d":"2^4","dual":"B","partition":"5,3,1",'
    '"special":true}'
)


def test_class_info_golden(capsys):
    code, lines = run(capsys, "class-info", "--dual", "B", "--partition", "5,3,1")
    assert code == 0
    assert lines == [GOLDEN_INFO]


def test_class_info_golden_is_stable(capsys):
    for _ in range(2):
        _, lines = run(capsys, "class-info", "--dual", "B", "--partition", "5,3,1")
        assert lines == [GOLDEN_INFO]


def test_class_info_regular(capsys):
    code, lines = run(capsys, "class-info", "--dual", "B", "--partition", "7")
    assert code == 0
    rec = json.loads(lines[0])
    assert rec["A_dagger"] == [[]]
    assert rec["Spc"] == ["7"]
    assert rec["J"] == [] and rec["I"] == []


def test_class_info_pretty_equivalent(capsys):
    _, compact = run(capsys, "class-info", "--dual", "B", "--partition", "5,3,1")
    code = main(["class-info", "--dual", "B", "--partition", "5,3,1", "--pretty"])
    pretty = capsys.readouterr().out
    assert code == 0
    assert json.loads(pretty) == json.loads(compact[0])


def _staircase(parts):
    return ",".join(str(v) for v in range(2 * parts - 1, 0, -2))


def test_class_info_refuses_above_the_bound(capsys):
    # the 35-part staircase has 2^17 canonical characters; counted, not listed
    start = time.perf_counter()
    code = main(["class-info", "--dual", "B", "--partition", _staircase(35)])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == (
        "upkit: canonical subgroup has 131072 characters, "
        f"above the class-info bound {A_DAGGER_BOUND}\n"
    )
    assert elapsed < 1.0


def test_class_info_lists_at_the_bound(capsys):
    # the 25-part staircase has exactly 2^12 = A_DAGGER_BOUND characters
    code, lines = run(capsys, "class-info", "--dual", "B", "--partition", _staircase(25))
    assert code == 0
    rec = json.loads(lines[0])
    assert len(rec["A_dagger"]) == len(rec["A_dagger_signs"]) == A_DAGGER_BOUND
    assert rec["A_dagger"][:3] == [[], [1, 3], [5, 7]]


# -------------------------------------------------------------- weak-packet

def test_weak_packet_531(capsys):
    code, lines = run(capsys, "weak-packet", "--dual", "B", "--partition", "5,3,1")
    assert code == 0
    rows = [json.loads(ln) for ln in lines]
    assert [r["record"] for r in rows] == ["lpacket", "lpacket", "summary"]
    assert [r["J"] for r in rows[:2]] == [[], [4]]
    assert [r["mu"] for r in rows[:2]] == ["5,3,1", "4^2,1"]
    assert rows[2] == {
        "lpacket_sizes": [4, 1],
        "packets": 2,
        "record": "summary",
        "total": 5,
    }


@pytest.mark.parametrize(
    "command", [["weak-packet"], ["membership", "--eps", "{}"], ["membership", "--eps", "{}", "--J", "{}"]]
)
def test_listings_refuse_above_the_bound(capsys, command):
    # 2^|J(lam)| <= 2 |Pdagger(lam)_0|, so the class-info gate bounds the rows
    start = time.perf_counter()
    code = main([command[0], "--dual", "B", "--partition", _staircase(35), *command[1:]])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == (
        "upkit: canonical subgroup has 131072 characters, "
        f"above the {command[0]} bound {A_DAGGER_BOUND}\n"
    )
    assert elapsed < 1.0


def test_weak_packet_lists_at_the_bound(capsys):
    code, lines = run(capsys, "weak-packet", "--dual", "B", "--partition", _staircase(25))
    assert code == 0
    assert len(lines) == 2**12 + 1


# --------------------------------------------------------------- membership

def test_membership_531(capsys):
    code, lines = run(
        capsys, "membership", "--dual", "B", "--partition", "5,3,1",
        "--eps=--+",
    )
    assert code == 0
    rows = [json.loads(ln) for ln in lines]
    assert rows[-1] == {"count": 2, "record": "summary"}
    assert [r["J"] for r in rows[:-1]] == [[], [4]]


def test_membership_with_J(capsys):
    code, lines = run(
        capsys, "membership", "--dual", "B", "--partition", "5,3,1",
        "--eps=--+", "--J", "4",
    )
    assert code == 0
    assert json.loads(lines[0]) == {
        "J": [4],
        "contains": True,
        "eps": [1, 3],
        "eps_signs": "(--+)",
        "partition": "5,3,1",
        "record": "membership",
    }
    code, lines = run(
        capsys, "membership", "--dual", "B", "--partition", "5,3,1",
        "--eps=--+", "--J", "{}",
    )
    assert code == 0
    assert json.loads(lines[0])["J"] == [] and json.loads(lines[0])["contains"]


def test_membership_bad_J(capsys):
    code, _ = run(
        capsys, "membership", "--dual", "B", "--partition", "5,3,1",
        "--eps=--+", "--J", "2",
    )
    assert code == 3  # 2 is not in J(lam)


def test_membership_outside_canonical(capsys):
    code, _ = run(
        capsys, "membership", "--dual", "B", "--partition", "5,3,1",
        "--eps=+--",
    )
    assert code == 3  # {3,5} is not in the canonical subgroup


def test_membership_with_J_builds_no_table(capsys, monkeypatch, cold_class_caches):
    argv = ["membership", "--dual", "B", "--partition", "5,3,1", "--eps", "{1,3}"]
    want = {J: run(capsys, *argv, "--J", J) for J in ("{4}", "{}")}

    def refuse(*args, **kwargs):
        raise AssertionError("membership --J built a table")

    monkeypatch.setattr(upkit.params, "near_tempered_table", refuse)
    for J, result in want.items():
        assert run(capsys, *argv, "--J", J) == result


@pytest.mark.parametrize(
    "eps, J, z, message",
    [
        # not canonical comes before not in J(lam), as in the listing
        ("{3,5}", "{2}", "1", "not in the canonical subgroup"),
        ("{1,3}", "{2}", "-1", "z = -1 needs a dual group"),
        ("{1,3}", "{2}", "1", "not in J(lam)"),
    ],
)
def test_membership_with_J_error_order(capsys, eps, J, z, message):
    code = main(
        ["membership", "--dual", "B", "--partition", "5,3,1", "--eps", eps, "--J", J, "--z", z]
    )
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert len(captured.err.splitlines()) == 1 and message in captured.err


# ----------------------------------------------------------------- springer

def test_springer_golden(capsys):
    code, lines = run(
        capsys, "springer", "--dual", "B", "--partition", "5,3,1",
        "--eps=(--+)",
    )
    assert code == 0
    assert lines == [
        '{"S_max":[3],"S_min":[1,5],"X":[1,2,3],"X_eps":[2],"alpha":[2,2],'
        '"beta":[],"defect0":0,"dual":"B","eps":[1,3],"eps_signs":"(--+)",'
        '"gamma":[2,2,0],"partition":"5,3,1"}'
    ]


def test_springer_default_trivial(capsys):
    code, lines = run(capsys, "springer", "--dual", "B", "--partition", "5,3,1")
    assert code == 0
    rec = json.loads(lines[0])
    assert rec["eps"] == [] and rec["alpha"] == [2] and rec["beta"] == [2]


def test_springer_not_springer_type(capsys):
    code, _ = run(
        capsys, "springer", "--dual", "B", "--partition", "5,3,1",
        "--eps=-+-",
    )
    assert code == 3


# --------------------------------------------------------------- sphericity

@pytest.mark.parametrize(
    "eps,want",
    [("+++", True), ("--+", True), ("-+-", False), ("+--", False)],
)
def test_sphericity_531(capsys, eps, want):
    code, lines = run(
        capsys, "sphericity", "--dual", "B", "--partition", "5,3,1",
        f"--eps={eps}",
    )
    assert code == 0
    assert json.loads(lines[0])["weakly_spherical"] is want


@pytest.mark.parametrize(
    "dual, partition, eps",
    [("B", "5,3,1", "{1}"), ("C", "4,2,2", "(--)"), ("C", "10,10,4,4,2", "{2}")],
)
def test_sphericity_refuses_outside_P0(capsys, dual, partition, eps):
    # a character outside P(lam)_0 labels no packet member: no answer, not False
    code = main(["sphericity", "--dual", dual, "--partition", partition, f"--eps={eps}"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "lies outside P(lam)_0" in captured.err


def test_sphericity_mixed_parity(capsys):
    code, lines = run(
        capsys, "sphericity", "--dual", "C", "--partition", "10,10,4,4,2",
    )
    assert code == 0
    assert json.loads(lines[0])["weakly_spherical"] is True


# --------------------------------------------------------------- validation

def test_bad_partition_text(capsys):
    code, _ = run(capsys, "class-info", "--dual", "B", "--partition", "abc")
    assert code == 2


def test_nonpositive_exponent_is_usage_error(capsys):
    code, lines = run(
        capsys, "class-info", "--dual", "B", "--partition", "5,1^-3,3,1"
    )
    assert code == 2 and lines == []


@pytest.mark.parametrize(
    "argv",
    [
        ["class-info", "--dual", "B", "--partition", "1_0"],
        ["class-info", "--dual", "B", "--partition", "\u0665,\u0663,\u0661"],
        ["membership", "--dual", "B", "--partition", "5,3,1", "--eps=--+", "--J", "{0_4}"],
        ["sphericity", "--dual", "B", "--partition", "5,3,1", "--eps", "{1_0}"],
    ],
    ids=["underscore-partition", "arabic-indic-digits", "underscore-J", "underscore-eps"],
)
def test_integer_tokens_are_ascii_digits_only(capsys, argv):
    # int() alone reads 1_0 as 10, +5 as 5 and non-ASCII digits as numbers
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "is not an integer" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["membership", "--dual", "C", "--partition", "4^2,2^2", "--eps", "{}", "--J", "{1,,3}"],
        ["sphericity", "--dual", "B", "--partition", "5,3,1", "--eps", "1,3,"],
        ["membership", "--dual", "C", "--partition", "4^2,2^2", "--eps", "{}", "--J", "{,}"],
    ],
    ids=["J-doubled-comma", "eps-trailing-comma", "J-lone-comma"],
)
def test_empty_set_entry_is_usage_error(capsys, argv):
    # skipping the empty token would read {1,3}, {1,3} and {} instead
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "empty entry" in captured.err


@pytest.mark.parametrize("text", ["{ }", ""])
def test_blank_set_is_empty(capsys, text):
    # a blank body holds no empty entry; {} is covered with the --J tests
    argv = ["membership", "--dual", "C", "--partition", "4^2,2^2", "--eps", text]
    code, lines = run(capsys, *argv, "--J", text)
    assert code == 0
    record = json.loads(lines[0])
    assert record["eps"] == [] and record["J"] == []


@pytest.mark.parametrize(
    "text", ["3^2,1^99999999999", "99999999999", f"1^{MAX_PARSED_SIZE + 1}"]
)
def test_oversized_partition_is_usage_error(text):
    # refused before anything is expanded: no MemoryError, no work in |lam|
    env = {**os.environ, "PYTHONPATH": str(Path(upkit.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "upkit.cli", "class-info", "--dual", "B", "--partition", text],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert f"exceeds the bound {MAX_PARSED_SIZE}" in proc.stderr


def test_bad_parity_partition(capsys):
    # N even cannot be a B dual
    code, _ = run(capsys, "class-info", "--dual", "B", "--partition", "4,4")
    assert code == 2


def test_bad_eps_length(capsys):
    code, _ = run(
        capsys, "sphericity", "--dual", "B", "--partition", "5,3,1",
        "--eps=-+",
    )
    assert code == 2
    # argparse swallows a bare "--" value; still a clean usage error
    code, _ = run(
        capsys, "sphericity", "--dual", "B", "--partition", "5,3,1",
        "--eps=--",
    )
    assert code == 2
    # "()" is a sign string of length 0, not the trivial character
    code = main(["sphericity", "--dual", "B", "--partition", "5,3,1", "--eps", "()"])
    assert code == 2
    assert capsys.readouterr().err == "upkit: sign string length 0 != |S(lam)| = 3\n"


@pytest.mark.parametrize(
    "eps, message",
    [
        ("(1,3)", "parentheses hold a sign string of + and -, not '(1,3)'"),
        ("(+-+", "unbalanced or doubled parentheses in '(+-+'"),
        ("((+-+))", "unbalanced or doubled parentheses in '((+-+))'"),
        ("{{1,3}}", "'{1' is not an integer"),
    ],
)
def test_eps_brackets_wrap_once(capsys, eps, message):
    # a sign string sits in one pair of parentheses or none, a set in one
    # pair of braces or none; nothing else is read as either
    code = main(["sphericity", "--dual", "B", "--partition", "5,3,1", "--eps", eps])
    assert code == 2
    assert capsys.readouterr().err == f"upkit: {message}\n"


@pytest.mark.parametrize(
    "argv, key, value",
    [
        (["classes", "--dual", "C", "--N", "40"], "partition", "40"),
        # the pool must drop the cells not yet started instead of running
        # the sweep out to N = 60, which takes minutes
        (["verify", "--suite", "theoremC", "--maxN", "60", "--jobs", "2"], "N", 1),
    ],
    ids=["classes", "verify-jobs"],
)
def test_closed_pipe_exits_quietly(argv, key, value):
    # `upkit ... | head -1`: the reader goes away after one line
    env = {**os.environ, "PYTHONPATH": str(Path(upkit.__file__).parents[1])}
    env.pop("PYTHONUNBUFFERED", None)  # records must reach the pipe on their own
    proc = subprocess.Popen(
        [sys.executable, "-m", "upkit.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        start_new_session=True,
    )
    try:
        assert select.select([proc.stdout], [], [], 20)[0], "no record within 20 s"
        first = proc.stdout.readline()
        proc.stdout.close()
        assert proc.wait(timeout=20) == 0
        assert json.loads(first)[key] == value
        assert proc.stderr.read() == b""
    finally:
        # a failed run leaves pool workers behind: end the whole group
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait(timeout=20)
        proc.stdout.close()
        proc.stderr.close()


def exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize(
    "argv, cap",
    [
        (["classes", "--dual", "C", "--N", "1_0"], None),
        (["classes", "--dual", "C", "--N", "+4"], None),
        (["verify", "--suite", "spc", "--maxN", "\u0663"], None),
        (["verify", "--suite", "spc", "--maxN", "2", "--jobs", "+1"], None),
        (["weak-packet", "--dual", "B", "--partition", "5,3,1", "--z", "+1"], None),
        (["verify", "--suite", "spc", "--maxN", "2"], "+1_0"),
    ],
    ids=["N-underscore", "N-plus", "maxN-arabic-indic", "jobs-plus", "z-plus", "UPKIT_MAX_N"],
)
def test_numeric_options_take_the_integer_rule(capsys, monkeypatch, argv, cap):
    # int() alone reads each of these as a number
    if cap is not None:
        monkeypatch.setenv("UPKIT_MAX_N", cap)
    code = exit_code(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "is not an integer" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["classes", "--dual", "X", "--N", "9"],
        ["class-info", "--dual", "B"],
        ["no-such-command"],
        ["classes", "--dual", "C", "--N", "4", "x\ny"],
        ["classes", "--dual", "C", "--N", "4", "x\ry"],
    ],
    ids=["bad-choice", "missing-partition", "unknown-command", "newline-token", "return-token"],
)
def test_argparse_errors_are_one_line(capsys, argv):
    code = exit_code(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("upkit: ")


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["classes", "--dual", "X", "--N", "9"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


# ------------------------------------------------------------------- verify

def test_verify_single_suite(capsys):
    code, lines = run(capsys, "verify", "--suite", "dprop", "--maxN", "6")
    assert code == 0
    rows = [json.loads(ln) for ln in lines]
    assert rows[-1]["status"] == "pass" and rows[-1]["suites"] == ["dprop"]
    assert all(r["status"] == "pass" for r in rows[:-1])
    assert sum(r["checked"] for r in rows[:-1]) > 0


def test_verify_all_small(capsys):
    code, lines = run(capsys, "verify", "--suite", "all", "--maxN", "8")
    assert code == 0
    rows = [json.loads(ln) for ln in lines]
    checked = {}
    for r in rows[:-1]:
        checked[r["suite"]] = checked.get(r["suite"], 0) + r["checked"]
    assert checked == {
        "dprop": 42, "spc": 42, "js": 108, "almost": 42, "firstrow": 31,
        "theoremC": 32, "oracle": 792,
    }
    assert rows[-1]["status"] == "pass" and "skipped" not in rows[-1]


def test_verify_skips_cells_past_bound(capsys):
    code, lines = run(capsys, "verify", "--suite", "almost", "--maxN", "18")
    assert code == 0
    rows = [json.loads(ln) for ln in lines]
    assert [r["N"] for r in rows[:-1] if r["status"] == "pass"] == list(range(1, 17))
    skips = [r for r in rows[:-1] if r["status"] == "skip"]
    assert [(r["N"], r["checked"]) for r in skips] == [(17, 0), (18, 0)]
    assert all(r["reason"] for r in skips)
    assert rows[-1]["status"] == "pass" and rows[-1]["skipped"] == 2


def test_verify_fails_under_python_O():
    # a broken route must still fail when python -O strips assert statements
    script = (
        "import sys, upkit.cli, upkit.verify\n"
        "if __debug__: sys.exit(99)\n"
        "upkit.verify.canonical_subsets = lambda cp: frozenset()\n"
        "sys.exit(upkit.cli.main(['verify', '--suite', 'theoremC', '--maxN', '9']))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(upkit.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 4, proc.stderr
    rows = [json.loads(ln) for ln in proc.stdout.splitlines()]
    assert rows[0]["status"] == "fail" and rows[0]["detail"]
    assert rows[-1]["record"] == "summary" and rows[-1]["status"] == "fail"


def test_verify_records_broken_merge_route_as_fail(capsys, monkeypatch):
    # merge_chain's own MalformedOutput gate is a failed check, not exit 3
    monkeypatch.setattr(
        upkit.moeglin, "near_tempered_table",
        lambda cp, J, z=1: tempered_table(cp, z),
    )
    code, lines = run(capsys, "verify", "--suite", "js", "--maxN", "6")
    assert code == 4
    rows = [json.loads(ln) for ln in lines]
    fails = [r for r in rows[:-1] if r["status"] == "fail"]
    assert fails and all("missed its target" in r["detail"] for r in fails)
    assert rows[-1]["record"] == "summary" and rows[-1]["status"] == "fail"


def test_verify_records_a_route_domain_error_as_fail(capsys, monkeypatch):
    # a cell's inputs are all generated, so a domain error out of a route,
    # here a merge refused, is a failed check with its message, not exit 3
    def refused(ao, mp, k):
        raise MoveNotApplicable("merging entries must carry opposite signs")

    monkeypatch.setattr(upkit.moeglin, "merge_move", refused)
    code, lines = run(capsys, "verify", "--suite", "js", "--maxN", "6")
    assert code == 4
    rows = [json.loads(ln) for ln in lines]
    assert [r["status"] for r in rows[:-1]] == ["pass"] * 3 + ["fail"] * 3
    assert all(r["detail"] == "merging entries must carry opposite signs" for r in rows[3:-1])
    assert rows[-1]["record"] == "summary" and rows[-1]["status"] == "fail"


def test_verify_records_broken_zero_gate_as_fail(capsys, monkeypatch):
    # theoremC reaches gamma's zero-part gate in every cell through N = 8
    # but C2, whose one class (2) has gamma = (1)
    def tripped(ci, sub, i, a, d):
        raise MalformedOutput(f"zero gamma_{i} refused")

    monkeypatch.setattr(upkit.springer, "_zero_gate", tripped)
    code, lines = run(capsys, "verify", "--suite", "theoremC", "--maxN", "8")
    assert code == 4
    rows = [json.loads(ln) for ln in lines]
    fails = [r for r in rows[:-1] if r["status"] == "fail"]
    assert [r["N"] for r in fails] == [1, 3, 4, 5, 6, 7, 8]
    assert all("refused" in r["detail"] for r in fails)
    assert rows[-1]["record"] == "summary" and rows[-1]["status"] == "fail"


def test_theoremC_names_a_dropped_canonical_member(monkeypatch):
    # a canonical subgroup of B 5,3,1 missing (--+) fails at that character
    real = verify.canonical_subsets

    def short(cp):
        members = real(cp)
        if cp.lam == (5, 3, 1):
            members = members - {frozenset({1, 3})}  # (--+) on S = (1, 3, 5)
        return members

    monkeypatch.setattr(verify, "canonical_subsets", short)
    with pytest.raises(verify.VerificationFailed) as exc:
        verify.check_theoremC(GroupType(1, 9))
    assert str(exc.value) == (
        "B 5,3,1 eps=(--+): weak sphericity disagrees with the canonical subgroup"
    )


@pytest.mark.parametrize("suite", ["theoremC", "firstrow"])
def test_verify_cell_fails_on_one_zero_gate_in_the_sweep(monkeypatch, suite):
    # gamma of B 5,3,1 at eps = {1,3} is (2,2,0); only that zero is refused
    real = upkit.springer._zero_gate

    def tripped(ci, sub, i, a, d):
        if ci.base.lam == (5, 3, 1) and sub == {1, 3}:
            raise MalformedOutput(f"zero gamma_{i} refused")
        real(ci, sub, i, a, d)

    monkeypatch.setattr(upkit.springer, "_zero_gate", tripped)
    assert _verify_cell((suite, 1, 9)) == {
        "N": 9,
        "checked": 0,
        "detail": "zero gamma_3 refused",
        "dual": "B",
        "record": "check",
        "status": "fail",
        "suite": suite,
    }


def test_verify_records_broken_oracle_as_fail(capsys, monkeypatch):
    # one wrong W_3 character value trips the oracle's integrality gate,
    # also after a clean run has filled every cache the oracle keeps
    code, lines = run(capsys, "verify", "--suite", "oracle", "--maxN", "3")
    assert code == 0
    real = wreps._wn_table

    def corrupted(n):
        table = real(n)
        if n != 3:
            return table
        table = {bp: dict(values) for bp, values in table.items()}
        first = next(iter(table))
        table[first][Partition((1, 1, 1)), Partition()] += 1
        return table

    monkeypatch.setattr(wreps, "_wn_table", corrupted)
    code, lines = run(capsys, "verify", "--suite", "oracle", "--maxN", "3")
    assert code == 4
    rows = [json.loads(ln) for ln in lines]
    assert [r["status"] for r in rows[:-1]] == ["pass", "pass", "pass", "fail"]
    assert "non-multiplicity" in rows[3]["detail"]
    assert rows[-1]["status"] == "fail"


def test_verify_records_malformed_run_cover_as_fail(capsys, monkeypatch):
    # a cover that is not self-dual trips the brute force's own gate
    monkeypatch.setattr(
        upkit.params, "_run_decompositions", lambda eigen: frozenset({((1, 1),) * len(eigen)})
    )
    code, lines = run(capsys, "verify", "--suite", "almost", "--maxN", "2")
    assert code == 4
    rows = [json.loads(ln) for ln in lines]
    assert [r["status"] for r in rows] == ["fail", "fail", "fail"]
    assert all("not self-dual" in r["detail"] for r in rows[:-1])


def test_verify_spc_counts_distinct_members(capsys, monkeypatch, cold_class_caches):
    # every vertex of the piece cube collapsed onto lam: one member, not 2^|J|
    monkeypatch.setattr(upkit.pieces, "T_down", lambda cp, J: cp)
    code, lines = run(capsys, "verify", "--suite", "spc", "--maxN", "8")
    assert code == 4
    rows = [json.loads(ln) for ln in lines]
    fails = [r for r in rows[:-1] if r["status"] == "fail"]
    assert fails and all("special piece is not 2^|J|" in r["detail"] for r in fails)
    assert rows[-1]["record"] == "summary" and rows[-1]["status"] == "fail"


@pytest.mark.parametrize("flag", ["--maxN", "--jobs"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_verify_rejects_counts_below_one(capsys, flag, value):
    code, lines = run(capsys, "verify", "--suite", "theoremC", flag, value)
    assert code == 2
    assert lines == []


def test_verify_jobs_match_serial(capsys):
    _, serial = run(capsys, "verify", "--suite", "spc", "--maxN", "8")
    _, parallel = run(
        capsys, "verify", "--suite", "spc", "--maxN", "8", "--jobs", "2"
    )
    assert serial == parallel


@pytest.mark.parametrize("cores,workers", [(64, 8), (3, 3), (None, 1)])
def test_verify_jobs_capped_by_cells_and_cores(capsys, monkeypatch, cores, workers):
    # a pool that records its size and maps in this process: no process
    # starts, whatever --jobs asks for
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    _, serial = run(capsys, "verify", "--suite", "all", "--maxN", "1")
    _, pooled = run(capsys, "verify", "--suite", "all", "--maxN", "1", "--jobs", "100000")
    assert len(serial) == 8 + 1  # six suites at N = 1, oracle at n = 0 and 1
    assert sizes == [workers]
    assert pooled == serial


def test_verify_cap(capsys, monkeypatch):
    monkeypatch.setenv("UPKIT_MAX_N", "6")
    code, _ = run(capsys, "verify", "--suite", "spc", "--maxN", "8")
    assert code == 2


def test_verify_bad_suite():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nope"])
    assert exc.value.code == 2
