"""Run the docstring examples of every k3degen module."""

import doctest
import importlib
import pkgutil

import k3degen

MODULES = ["k3degen"] + sorted(name for _, name, _ in pkgutil.walk_packages(k3degen.__path__, "k3degen."))


def test_docstring_examples():
    attempted = 0
    for name in MODULES:
        result = doctest.testmod(importlib.import_module(name))
        assert result.failed == 0, f"{result.failed} of {result.attempted} examples failed in {name}"
        attempted += result.attempted
    assert attempted >= 4  # the cyclotomic examples, IntPolynomial.__repr__ among them
