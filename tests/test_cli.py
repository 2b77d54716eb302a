import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import upkit
import upkit.moeglin
from upkit import wreps
from upkit.cli import main
from upkit.params import tempered_table
from upkit.partitions import Partition


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
        "upkit.verify.canonical_subgroup = lambda cp: ()\n"
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


def test_verify_records_broken_oracle_as_fail(capsys, monkeypatch):
    # one wrong W_3 character value trips the oracle's integrality gate
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


def test_verify_cap(capsys, monkeypatch):
    monkeypatch.setenv("UPKIT_MAX_N", "6")
    code, _ = run(capsys, "verify", "--suite", "spc", "--maxN", "8")
    assert code == 2


def test_verify_bad_suite():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nope"])
    assert exc.value.code == 2
