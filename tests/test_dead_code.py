"""Every top-level function and class in the library is reached from a
front door.

Code that no pipeline reaches is deleted or moved into the tests as an
oracle; this guard keeps it that way.  The walk follows the names each
reached definition refers to (bare, imported from a sibling module, or
as an attribute of a sibling module such as P.mul), starting from the
front doors and from module-level code, which runs on import and holds
the command tables such as cli._COMMANDS.  Mentioning a name in an
unreached definition reaches nothing.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cyclolrs"

ALLOWED = {
    "cyclo_index",
    "find_cyclo_factor_indexes",
    "lrs_degeneracy_orders",
    "main",
    # a reference oracle, not a front door: the benchmark's self-test in
    # perfbench/tests imports it from cyclolrs.lrs, so it and its
    # resultant helpers stay in the library until that import moves
    "cdm_algorithm1",
}

_DEFINITION = (ast.FunctionDef, ast.ClassDef)


def _scope(module, tree):
    # what the names of one module stand for: name -> (module, name) for
    # its own definitions and for names imported from a sibling, and
    # alias -> module for `from . import poly as P`
    names = {node.name: (module, node.name) for node in tree.body if isinstance(node, _DEFINITION)}
    modules = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module is None:
                    modules[local] = alias.name
                else:
                    names[local] = (node.module, alias.name)
    return names, modules


def _references(node, names, modules):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id in names:
            yield names[sub.id]
        elif (
            isinstance(sub, ast.Attribute)
            and isinstance(sub.value, ast.Name)
            and sub.value.id in modules
        ):
            yield modules[sub.value.id], sub.attr


def unreached_definitions(src=SRC, allowed=ALLOWED):
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    scopes = {module: _scope(module, tree) for module, tree in trees.items()}
    defs = {
        (module, node.name): node
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, _DEFINITION)
    }
    reached = {key for key in defs if key[1] in allowed}
    todo = [(module, defs[module, name]) for module, name in reached]
    todo += [
        (module, node)
        for module, tree in trees.items()
        for node in tree.body
        if not isinstance(node, _DEFINITION)
    ]
    while todo:
        module, node = todo.pop()
        for key in _references(node, *scopes[module]):
            if key in defs and key not in reached:
                reached.add(key)
                todo.append((key[0], defs[key]))
    return sorted(f"{module}:{name}" for module, name in defs.keys() - reached)


def test_every_top_level_definition_is_used():
    unreached = unreached_definitions()
    assert not unreached, f"not reached from a front door: {unreached}"


def test_reachability_ignores_mentions_from_unreached_code(tmp_path):
    # helper is mentioned only by an oracle no front door calls, and a
    # table at module level reaches what it holds
    (tmp_path / "alg.py").write_text(
        "from . import poly as P\n\n"
        "def main():\n    return P.kernel()\n\n"
        "def oracle():\n    return helper()\n\n"
        "def helper():\n    return 1\n\n"
        "def listed():\n    return 2\n\n"
        "TABLE = {'x': listed}\n"
    )
    (tmp_path / "poly.py").write_text(
        "from .alg import helper\n\n"
        "def kernel():\n    return 0\n\n"
        "def unused():\n    return helper()\n"
    )
    assert unreached_definitions(tmp_path, {"main"}) == [
        "alg:helper", "alg:oracle", "poly:unused",
    ]


def _uses(node, skip):
    # names and attributes mentioned under node, skipping the subtree skip
    if node is skip:
        return
    if isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    for child in ast.iter_child_nodes(node):
        yield from _uses(child, skip)


def _users(tree, name):
    # top-level functions of a module that mention name outside their own
    # definition
    return {
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name != name and name in _uses(node, None)
    }


def test_lrs_has_one_twisted_gcd_test():
    # every twisted gcd of the scan goes through _twists_share_factor;
    # _twisted_norm multiplies twists without a gcd, and the only other
    # gcd is the certificate's discriminant check
    tree = ast.parse((SRC / "lrs.py").read_text())
    assert _users(tree, "_twist") == {"_twists_share_factor", "_twisted_norm"}
    assert _users(tree, "gcd_lists_mod") == {"_twists_share_factor", "_galois_certificate"}


def test_lrs_has_one_prime_source():
    # every modular test of the scan, the verifier and the certificate
    # draws its primes from _primes
    tree = ast.parse((SRC / "lrs.py").read_text())
    assert _users(tree, "find_prime_in_progression") == {"_primes"}
