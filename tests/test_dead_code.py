"""Every top-level function and class in the library has a library caller.

Code that no pipeline reaches is deleted or moved into the tests as an
oracle; this guard keeps it that way.  A name counts as used when some
module in src/cyclolrs mentions it (as a bare name or an attribute)
outside its own definition.  Importing it is not a use.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cyclolrs"

# public front doors, and the two reference oracles the tests cross-check
# the scanner against
ALLOWED = {
    "cyclo_index",
    "find_cyclo_factor_indexes",
    "lrs_degeneracy_orders",
    "main",
    "cdm_algorithm1",
    "cdm_algorithm2_first_order",
}


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


def test_every_top_level_definition_is_used():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name in ALLOWED:
                continue
            if not any(
                node.name in _uses(other, node) for other in trees.values()
            ):
                unused.append(f"{module}:{node.name}")
    assert not unused, f"no library caller: {unused}"


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
