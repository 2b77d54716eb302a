"""Property test of the CLI's exit contract (needs ``hypothesis``): every
argv ends in exit 0, 2, 3 or 4 with at most one line on stderr."""

import contextlib
import io
import os

from hypothesis import given, settings
from hypothesis import strategies as st

from upkit.cli import main

COMMANDS = [
    "classes", "class-info", "weak-packet", "membership", "springer",
    "sphericity", "verify", "no-such-command",
]

# The value tokens each flag is drawn with, valid and malformed; None marks
# a switch.  Sizes stay small: --N and --maxN at most 6, partitions of at
# most 12 with exponents at most 3.  Every --jobs token is one that int()
# also reads as at most 1, so no example starts a process pool.
FLAGS = {
    "--dual": ["B", "C", "X", ""],
    "--N": ["1", "4", "5", "6", "0", "-3", "1_0", "+4", "٣", "x", ""],
    "--maxN": ["1", "3", "6", "0", "-1", "0_6", "+3", "٣", "x", ""],
    "--jobs": ["1", "0", "-2", "+1", "0_1", "١", " 1"],
    "--partition": [
        "5,3,1", "3,1,1", "6,4,2", "4,4", "2^2,1", "3^3,2,1", "1^3", "12", "",
        "abc", "1_0", "5,1^-3,3,1", "٥,٣,١", "3^0", "2,,1",
    ],
    "--eps": [
        "--+", "+", "-", "(-+)", "{1,3}", "{}", "{4}", "{1_0}", "--", "x", "x\ny", "",
        "(1,3)", "(+-+", "((+-+))",
    ],
    "--z": ["1", "-1", "2", "+1", "x"],
    "--J": ["{4}", "2", "{2,4}", "{}", "{0_4}", "x", ""],
    "--suite": ["all", "spc", "dprop", "js", "almost", "firstrow", "theoremC", "oracle", "nope"],
    "--pretty": None,
    "-h": None,
    "--bogus": None,
}
CAPS = [None, "6", "3", "0", "+1_0", "x"]


def _option(flag):
    values = FLAGS[flag]
    if values is None:
        return st.just([flag])
    return st.tuples(st.sampled_from(values), st.booleans()).map(
        lambda vj: [f"{flag}={vj[0]}"] if vj[1] else [flag, vj[0]]
    )


ARGV = st.tuples(
    st.sampled_from(COMMANDS),
    st.lists(st.sampled_from(sorted(FLAGS)).flatmap(_option), max_size=6),
).map(lambda t: [t[0], *(tok for opt in t[1] for tok in opt)])


@settings(deadline=None)
@given(ARGV, st.sampled_from(CAPS))
def test_every_argv_exits_with_a_documented_code(argv, cap):
    saved = os.environ.pop("UPKIT_MAX_N", None)
    if cap is not None:
        os.environ["UPKIT_MAX_N"] = cap
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        os.environ.pop("UPKIT_MAX_N", None)
        if saved is not None:
            os.environ["UPKIT_MAX_N"] = saved
    assert code in (0, 2, 3, 4), (argv, code)
    assert len(err.getvalue().splitlines()) <= 1, (argv, err.getvalue())
