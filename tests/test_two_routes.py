"""The two routes of each headline identity stay apart at the call level.

``verify`` compares LR induction with the W_n character-table oracle and
the brute-force L-parameter search with the piece-cube family.  Each pair
shares a module (``wreps``, ``params``), so the invariant is checked on
names: starting from a route's entry points, follow every name that a
function or class of the same module references, and require that none
of the other route's names is reached.  Weak sphericity and the canonical
quotient live in different modules; ``components`` must not import
``springer``.
"""

import ast
from pathlib import Path

import upkit

SRC = Path(upkit.__file__).parent


def _reached(source: str, entries) -> set[str]:
    """Every name referenced from the entry definitions, following the
    module's own top-level functions and classes transitively."""
    defs = {
        node.name: node
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    seen, todo, names = set(), list(entries), set()
    while todo:
        name = todo.pop()
        if name in seen or name not in defs:
            continue
        seen.add(name)
        for node in ast.walk(defs[name]):
            if isinstance(node, ast.Name):
                names.add(node.id)
                todo.append(node.id)
    return names


def test_reach_follows_module_functions():
    source = "def f():\n    return g()\n\ndef g():\n    return lr_mult\n\ndef h():\n    pieri()\n"
    assert _reached(source, ["f"]) == {"g", "lr_mult"}


def test_oracle_reaches_no_lr_rule():
    reached = _reached((SRC / "wreps.py").read_text(), ["oracle_mult"])
    assert "_wn_table" in reached
    forbidden = {"pieri", "lr_mult", "_lr_count", "induce_mult", "induce_table"}
    assert reached.isdisjoint(forbidden), sorted(reached & forbidden)


def test_brute_force_reaches_no_piece_cube():
    reached = _reached(
        (SRC / "params.py").read_text(),
        ["enumerate_lparams_with_inf_char", "_run_decompositions"],
    )
    assert "_run_decompositions" in reached
    forbidden = {"near_tempered_table", "special_piece", "T_down", "_t_down_raw", "block_structure"}
    assert reached.isdisjoint(forbidden), sorted(reached & forbidden)


def test_components_imports_nothing_from_springer():
    tree = ast.parse((SRC / "components.py").read_text())
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            # from .springer import x, from . import springer, from upkit import springer
            base = "." * node.level + (node.module or "")
            sep = "" if base.endswith(".") else "."
            modules.add(base)
            modules.update(base + sep + alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
    assert modules.isdisjoint({".springer", "upkit.springer"}), sorted(modules)
