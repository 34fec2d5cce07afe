"""Every failure the library raises has one of two roots.

Bad input is a `ValueError`, with its subclasses, and a refusal (valid
input that violates a mathematical constraint) is a `k3degen.Refusal`. The
CLI maps them to exit codes 1 and 2. The scan parses each
`src/k3degen/*.py` module with `ast` and fails on any class other than
`Refusal` that names `Exception` or `BaseException` as a base, so that a
third root is seen before the CLI has to learn it.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "k3degen"
ROOTS = {"Exception", "BaseException"}


def extra_roots():
    """(file name, class name) of each class but Refusal based directly on a root."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef) and node.name != "Refusal":
                names = {b.id if isinstance(b, ast.Name) else getattr(b, "attr", None) for b in node.bases}
                if names & ROOTS:
                    out.append((path.name, node.name))
    return out


def test_refusal_is_the_only_new_exception_root():
    assert extra_roots() == []
