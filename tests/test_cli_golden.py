"""The CLI's output, byte for byte, on a fixed set of fast commands.

A refactor is judged by output that stays byte-identical.  Each command
below runs through ``cli.main`` in-process twice, first with every upkit
cache cleared and then warm; both times the sha256 of its stdout, the
sha256 of its stderr and its exit code must equal the recorded values.
The set covers every subcommand, ``--pretty``, two failed domain checks,
two usage errors and the ``class-info`` refusal above
``cli.A_DAGGER_BOUND``.  A change that alters output on purpose
re-records the rows it alters.

The module needs no pytest, so the same check runs under an interpreter
without it: ``python -c "import test_cli_golden as t;
t.test_cli_output_is_unchanged()"`` with ``src`` and ``tests`` on the path.
"""

import contextlib
import hashlib
import importlib
import io
import pkgutil

import upkit
from upkit.cli import main

EMPTY = hashlib.sha256(b"").hexdigest()
STAIR15 = ",".join(str(v) for v in range(29, 0, -2))
STAIR35 = ",".join(str(v) for v in range(69, 0, -2))

# (argv, sha256 of stdout, sha256 of stderr, exit code)
GOLDEN = [
    (
        "classes --dual C --N 24",
        "4f363cb4894caa61fb3f458357466f7e4e5e4888683d67319196d288b405211b",
        EMPTY,
        0,
    ),
    (
        "classes --dual C --N 40",
        "4ca45efc113710d42f80deb09feda9ede2bab96b8a76fcf065364c2aea5de6b8",
        EMPTY,
        0,
    ),
    (
        "classes --dual B --N 25",
        "e005d58b26e551748dd3374c2f3f32d95ea7458ddc17561bc1c4963338ec78f0",
        EMPTY,
        0,
    ),
    (
        "verify --suite all --maxN 12",
        "49877358b72ffd4add1991f5004e69bc7c55e66e182019c4126ea93834c8dad8",
        EMPTY,
        0,
    ),
    (
        "verify --suite theoremC --maxN 24",
        "fce812d5d604e11dd7042f44f25fe5ecc7b6e9279c6648287e9e970bc2c6e48a",
        EMPTY,
        0,
    ),
    (
        "verify --suite firstrow --maxN 24",
        "0fb23f860ff8a9267daf59e8369234060b72039fb222e94d06f4778a27519505",
        EMPTY,
        0,
    ),
    (
        "verify --suite almost --maxN 18",
        "1a13c036caf19377338d09d038b83ebef098e20bf56705b098cc32c664b88d82",
        EMPTY,
        0,
    ),
    (
        "verify --suite oracle --maxN 5",
        "aae1425113330a75638a07acb4601c1fd025f66107e644c6a548181bd6559cc6",
        EMPTY,
        0,
    ),
    (
        "springer --dual B --partition 9,7,5,3,1 --eps {1,3}",
        "a5a4975e7a3f42c4011e97abadd88e49fa34bd317773f5c6ece05135fdeb6940",
        EMPTY,
        0,
    ),
    (
        "springer --dual B --partition 5,3,1 --eps {1}",
        EMPTY,
        "b29d63bb4f57269fd5eb25c8213bbc025679ed61a685664ed260575455e2dcf9",
        3,
    ),
    (
        "sphericity --dual C --partition 6,4,4,3,3,2",
        "7d70c7ccc54f901854951fc269b5a4f549f9d00a4cfb4c69ca8b65fa994b9b52",
        EMPTY,
        0,
    ),
    (
        f"class-info --dual B --partition {STAIR15}",
        "5a3675192616ca55a35fd1d9d094c75c025008a30cf785baacaa8074576cbc54",
        EMPTY,
        0,
    ),
    (
        "class-info --dual C --partition 10^2,8^2,6^2,4^2,2^2",
        "d9981b95369721f8127f9a45e0c2a34e30029a3557d65bf5417afb353d21e191",
        EMPTY,
        0,
    ),
    (
        f"class-info --dual B --partition {STAIR35}",
        EMPTY,
        "5eb43466eaf41181319167364ec9e89ea40533c10df02bc8bd442845d7f00627",
        3,
    ),
    (
        "weak-packet --dual C --partition 6,4,2 --z -1",
        "d984bc33dbedd045a982aaa3de2f40822a6e681d2d14a0d5e28084b40c92791c",
        EMPTY,
        0,
    ),
    (
        "membership --dual B --partition 5,3,1 --eps {1,3} --J {4}",
        "b3092d3ed12e10378b804b9c3d7e1fe49e1a2a49b423834e9bfb96758eae8e91",
        EMPTY,
        0,
    ),
    (
        "membership --dual B --partition 5,3,1 --eps {1,3}",
        "cb2ea7fe870a61657fcd3eec93fb1efc636ee32f30c5916b4075a2f2b8f8648c",
        EMPTY,
        0,
    ),
    (
        f"weak-packet --dual B --partition {STAIR15}",
        "806da6c617ee1ff6a97cf2d2f7756be68a2372f11a69ef31b609a8cd4d55dcf3",
        EMPTY,
        0,
    ),
    (
        "class-info --dual B --partition 9,7,5,3,1 --pretty",
        "59c756c688b5a2488799461e6db5d57133ea5c38feda0ee2f6ab288f19b897f7",
        EMPTY,
        0,
    ),
    (
        "weak-packet --dual C --partition 6,4,2 --z -1 --pretty",
        "18d939b994af050688a3cf53d3b749f3614b3fc614e14e38eb96e932b001ed79",
        EMPTY,
        0,
    ),
    (
        "membership --dual B --partition 5,3,1 --eps {1,5}",
        EMPTY,
        "8734938b04ffd7e6acb9dac8c5413b482e5b19f20f74518061ede129f3707b4d",
        3,
    ),
    (
        "classes --dual C --N 1_0",
        EMPTY,
        "4a62d60f954e363af10c7bd3a44a96fb0bb4fc43880f3ef521c3c813f35b7fba",
        2,
    ),
    (
        "class-info --dual B --partition 4,4",
        EMPTY,
        "49399b3101f5ca5e258b5a08532a018bc93ba14dd45aa5737bce241498f39593",
        2,
    ),
]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _run(argv) -> tuple[str, str, int]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return _sha(out.getvalue()), _sha(err.getvalue()), code


def _clear_caches() -> None:
    """Clear every module-level lru_cache in upkit."""
    for info in pkgutil.iter_modules(upkit.__path__, "upkit."):
        for value in vars(importlib.import_module(info.name)).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


def test_cli_output_is_unchanged():
    changed = []
    for argv, *want in GOLDEN:
        _clear_caches()
        for run in ("cold", "warm"):
            if _run(argv.split()) != tuple(want):
                changed.append((argv, run))
    # raised, not asserted, so that the check also fails under python -O
    if changed:
        raise AssertionError(changed)
