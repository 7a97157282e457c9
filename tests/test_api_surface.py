"""No callerless public names in the package.

Every public module-level function and class under src/, and every
public method, must be referenced somewhere in src/, scripts/ or
perfbench/: as an identifier, an attribute, an imported name, or a
string constant that is not a docstring (the benchmark's tracer names
its targets by string).  A package __init__ re-export is not a caller,
so __init__ files are not searched.  A name that only tests use belongs
in the tests.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# The gradient contract every potential is checked against; tests in
# several files call it, and the package keeps it as public API.
EXEMPT = {"finite_difference_conformance"}


def _trees(*dirs):
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"))


def _public_definitions():
    found = {}
    for path, tree in _trees("src"):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                found.setdefault(node.name, path)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        found.setdefault(item.name, path)
    return {name: path for name, path in found.items() if not name.startswith("_")}


def _docstrings(tree):
    nodes = [tree] + [
        n for n in ast.walk(tree)
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]
    return {
        id(n.body[0].value) for n in nodes
        if n.body and isinstance(n.body[0], ast.Expr)
        and isinstance(n.body[0].value, ast.Constant)
        and isinstance(n.body[0].value.value, str)
    }


def _references():
    refs = set()
    for path, tree in _trees("src", "scripts", "perfbench"):
        if path.name == "__init__.py":
            continue
        skip = _docstrings(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif isinstance(node, ast.alias):
                refs.update(node.name.split("."))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in skip:
                refs.update(node.value.replace(":", ".").split("."))
    return refs


def test_every_public_name_has_a_caller_outside_tests():
    refs = _references()
    callerless = sorted(
        f"{path.relative_to(ROOT)}:{name}"
        for name, path in _public_definitions().items()
        if name not in refs and name not in EXEMPT
    )
    assert not callerless, f"public names only tests use: {callerless}"


def test_the_exemption_is_still_a_public_definition():
    assert EXEMPT <= set(_public_definitions())
