"""Every public name in the library has a caller outside the tests.

The scan parses each `src/k3degen/*.py` module with `ast` and lists its
public module-level functions and classes and the public methods of those
classes. A definition counts as called when `src/` or `bench/` refers to
its name (a bare name, an attribute or an import) somewhere other than in
its own body and in `k3degen/__init__.py`, or when a string constant in
`bench/` names it, because the benchmark's tracer binds methods by string.
A name that only tests call fails here: delete it, or give it a caller.

Names are matched bare, not by class. A method is counted as called when
any reference uses its name, so `DeltaComplex.to_json_dict` called from
`cli` also covers a `to_json_dict` on another class that nothing calls; such
a method has to be found by searching for its class's uses.

Operator dunders are invisible to the scan. `p * q` names no `__mul__`, and
every dunder starts with an underscore, so it is never listed as public;
an operator only tests use has to be found by reading.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "k3degen"

# name -> why it stays without a caller
ALLOWED = {}


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _definitions(path, tree):
    """(name, path, first line, last line) of each public module-level
    function and class, and of each public method of those classes."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append(node)
            if isinstance(node, ast.ClassDef):
                out += [n for n in node.body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return [(n.name, path, n.lineno, n.end_lineno) for n in out if not n.name.startswith("_")]


def _references(path, tree, strings):
    """(name, path, line) of each name, attribute and import in the tree,
    and of each dotted part of a string constant when strings is true."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append((node.id, path, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, path, node.lineno))
        elif isinstance(node, ast.alias):
            out.append((node.name.rpartition(".")[2], path, node.lineno))
        elif strings and isinstance(node, ast.Constant) and type(node.value) is str:
            out += [(part, path, node.lineno) for part in node.value.split(".")]
    return out


def uncalled():
    """The public definitions in the package that nothing outside the tests
    calls, as (name, file name) pairs."""
    definitions, references = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = _parse(path)
        definitions += _definitions(path, tree)
        references += _references(path, tree, strings=False)
    for path in sorted((ROOT / "bench").glob("*.py")):
        references += _references(path, _parse(path), strings=True)

    lines_by_name = {}
    for name, path, line in references:
        lines_by_name.setdefault(name, []).append((path, line))
    return [
        (name, path.name)
        for name, path, first, last in definitions
        if not any(p != path or not first <= line <= last for p, line in lines_by_name.get(name, ()))
    ]


def test_every_public_name_has_a_caller():
    unused = uncalled()
    unexpected = [(name, module) for name, module in unused if name not in ALLOWED]
    assert unexpected == [], f"public names only tests call: {unexpected}"
    # an allowed name that gains a caller, or is deleted, leaves the list
    assert sorted(ALLOWED) == sorted(name for name, _ in unused)
