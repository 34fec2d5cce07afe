"""Exact stdout bytes, stderr and exit codes of the CLI on fixed inputs.

Each case's expected stdout is ``tests/golden/<case>.stdout``. The bundled
fibers are read from the package's fixture corpus; the torus fiber, a
tetrahedral fiber with integer, quoted and non-ASCII ids, the tetrahedron
with a symmetry, and the 6-vertex RP^2 of ``oracles.six_vertex_rp2`` as a
fiber and as a complex are payloads in ``tests/golden/``.
"""

import json
from pathlib import Path

import pytest

import k3degen
from k3degen.cli import run

GOLDEN = Path(__file__).resolve().parent / "golden"
FIXTURES = Path(k3degen.__file__).resolve().parent / "fixtures"


def _bundled_surface(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(json.loads((FIXTURES / f"{name}.json").read_text())["surface"]))
    return str(path)


# case -> (argv, exit code, stderr); "{smooth_fiber}" etc. name a bundled fiber's surface
CASES = {
    "classify_smooth": (
        ["classify-fiber", "{smooth_fiber}"], 0, "Type I, grw = [0, 0, 22, 0, 0]\n"),
    "classify_elliptic_chain": (
        ["classify-fiber", "{elliptic_chain_fiber}"], 0, "Type II, grw = [0, 2, 18, 2, 0]\n"),
    "classify_tetrahedral_quartic": (
        ["classify-fiber", "{tetrahedral_quartic_fiber}"], 0, "Type III, grw = [1, 0, 20, 0, 1]\n"),
    "classify_torus": (
        ["classify-fiber", str(GOLDEN / "torus_fiber.json")], 2,
        "not a Kulikov fiber: not Type I: 12 components, expected 1; not Type II: has triple points; "
        "not Type III: dual complex is not a sphere triangulation: Euler characteristic is 0, expected 2\n"),
    "classify_awkward_ids": (
        ["classify-fiber", str(GOLDEN / "awkward_ids_fiber.json")], 0, "Type III, grw = [1, 0, 20, 0, 1]\n"),
    "charpoly_char0": (
        ["charpoly", "--m", "42", "--t-rank", "12"], 0, "1 admissible characteristic polynomial(s)\n"),
    "charpoly_liftable": (
        ["charpoly", "--m", "21", "--setting", "liftable", "--p", "2", "--t-rank", "12"], 0,
        "2 admissible characteristic polynomial(s)\n"),
    "charpoly_finite_height": (
        ["charpoly", "--m", "1", "--setting", "finite-height", "--p", "3", "--t-rank", "6"], 0,
        "5 admissible characteristic polynomial(s)\n"),
    "charpoly_finite_field": (
        ["charpoly", "--m", "3", "--setting", "finite-field", "--p", "5", "--t-rank", "8"], 0,
        "2 admissible characteristic polynomial(s)\n"),
    "allowed_types_infinite_height": (
        ["allowed-types", "--height", "infinite"], 0, "allowed types: ['I']\n"),
    "classify_rp2": (
        ["classify-fiber", str(GOLDEN / "rp2_fiber.json")], 2,
        "not a Kulikov fiber: not Type I: 6 components, expected 1; not Type II: has triple points; "
        "not Type III: dual complex is not a sphere triangulation: not orientable\n"),
    "orient_rp2": (
        ["orient", str(GOLDEN / "rp2_complex.json")], 2, "non-orientable: orientation contradiction at triangle '245'\n"),
    "orient_tetrahedron_symmetry": (
        ["orient", str(GOLDEN / "tetrahedron_orient.json")], 0, "orientable, action -1\n"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden(case, capsys, tmp_path):
    argv, exit_code, stderr = CASES[case]
    if argv[1].startswith("{"):
        argv = [argv[0], _bundled_surface(tmp_path, argv[1][1:-1])]
    code = run(argv)
    captured = capsys.readouterr()
    assert (code, captured.err) == (exit_code, stderr)
    assert captured.out == (GOLDEN / f"{case}.stdout").read_text(encoding="utf-8")
