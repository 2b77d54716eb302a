"""Every definition in ``upkit`` is reached from the CLI or kept for a reason.

A static name walk starts at ``cli.main`` and follows every name that a
reached definition uses.  A definition is a top-level function, class or
assigned name of a module, or a method of a class.  A bare name reaches
every top-level definition of that name in any module; an attribute
reaches those and every method of its name, so a local variable never
keeps a method alive.  The dunder methods of a class go with the class.  The walk
over-approximates, so what it leaves unreached no command or suite can
call.  Each such definition is named below with the reason it stays; a
new one fails this test until it is used, deleted or listed here.
"""

import ast
from pathlib import Path

import upkit

SRC = Path(upkit.__file__).parent

KEPT = {
    # the second routes that tests compare a rule against: the brute
    # force over W(m) and over orders against merge_move, the Pieri/LR
    # induction and dimension formulas against the W_n oracle, the
    # induction lemma's statement of sphericity, and the per-character
    # tableaux against character_sweep
    "reference routes": {
        "moeglin.moeglin_params",
        "moeglin.admissible_orders",
        "moeglin.AdmissibleOrder.standard",
        "moeglin.PARAM_BOUND",
        "moeglin.ORDER_BOUND",
        "moeglin._PARAM_CAP",
        "wreps.pieri",
        "wreps.induce_mult",
        "wreps.dim_partition",
        "wreps.dim_bipartition",
        "wreps.sgn_hom_dim",
        "wreps.is_weakly_s_spherical",
        "springer.GreenTableau",
        "springer.GreenTableau.bipartition",
        "springer.green_tableaux",
        "springer.p_set",
        # p(m_{lam,J}) against the piece cube member T_down(lam, J), and
        # epsbar(i) with the epsbar(0) = -1 convention against X_eps
        "params.ATable.p",
        "springer.SpringerIndexData.ebar",
    },
    # the one-call forms of what verify runs in bulk through
    # merge_chains and _gated_covers, which tests drive; the tracer also
    # wraps merge_chain and the enumeration by name
    "single-call routes": {
        "moeglin.merge_chain",
        "params.enumerate_lparams_with_inf_char",
    },
    # perfbench/tracing.py wraps these by name (tests/test_trace_targets.py)
    "benchmark tracer targets": {
        "springer.is_springer_type",
        "components.full_group",
    },
    # exported from upkit/__init__.py
    "package exports": {
        "partitions.dominates",
        "__init__.__version__",
    },
    # the embedding of a piece member's canonical quotient into lam's,
    # kept for a verify suite of its own
    "iota embedding": {
        "components.iota_embed",
        "components._iota_step",
        "components._piece_move_set",
        "components._as_class",
        "errors.NotInPiece",
    },
    # argparse calls it on a usage error
    "called by argparse": {
        "cli._Parser.error",
    },
}


def definitions(sources) -> dict:
    """``{"module.name" or "module.Class.method": (name, is a method, nodes to walk)}``."""
    out = {}
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, ast.FunctionDef):
                out[f"{module}.{node.name}"] = (node.name, False, [node])
            elif isinstance(node, ast.ClassDef):
                own = [node.bases, node.keywords, node.decorator_list]
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                        out[f"{module}.{node.name}.{item.name}"] = (item.name, True, [item])
                    else:
                        own.append(item)
                out[f"{module}.{node.name}"] = (node.name, False, own)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name) and target.id != "__all__":
                        out[f"{module}.{target.id}"] = (target.id, False, [node])
    return out


def _used(nodes) -> tuple[set[str], set[str]]:
    """The bare names and the attribute names the nodes use."""
    names, attrs = set(), set()
    todo = list(nodes)
    while todo:
        node = todo.pop()
        if isinstance(node, list):
            todo += node
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
        todo += ast.iter_child_nodes(node)
    return names, attrs


def unreached(sources, root: str) -> set[str]:
    defs = definitions(sources)
    top, methods = {}, {}
    for key, (name, is_method, _) in defs.items():
        (methods if is_method else top).setdefault(name, []).append(key)
    seen, todo = set(), [root]
    while todo:
        key = todo.pop()
        if key in seen:
            continue
        seen.add(key)
        names, attrs = _used(defs[key][2])
        for name in names:
            todo += top.get(name, [])
        for name in attrs:
            todo += top.get(name, []) + methods.get(name, [])
    return set(defs) - seen


def test_walk_follows_names_methods_and_dunders():
    sources = {
        "a": (
            "LIMIT = 3\n"
            "def main():\n    spare = 0\n    return b.helper(Box()).size + spare\n"
            "def unused():\n    return LIMIT\n"
        ),
        "b": (
            "class Box:\n"
            "    def __init__(self):\n        self.v = fill()\n"
            "    @property\n    def size(self):\n        return 1\n"
            "    def spare(self):\n        return 2\n"
            "def helper(x):\n    return x\n"
            "def fill():\n    return 0\n"
        ),
    }
    # the local variable spare does not reach the method Box.spare
    assert unreached(sources, "a.main") == {"a.LIMIT", "a.unused", "b.Box.spare"}


def test_every_unreached_definition_is_kept_for_a_reason():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    kept = set().union(*KEPT.values())
    found = unreached(sources, "cli.main")
    assert found - kept == set(), "unreached, and kept for no reason listed here"
    assert kept - found == set(), "listed here, but reached or gone"
