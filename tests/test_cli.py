import argparse
import contextlib
import io
import itertools
import json
import os
import re
import shutil
import subprocess
import sys
import time
import types
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from k3degen import cli, corpus
from k3degen.cli import _int_literal, _pretty, build_parser, run
from k3degen.degeneration import FIELD_CLASSES
from k3degen.dualcomplex import DeltaComplex
from k3degen.sncfiber import KINDS, SNCSurface
from test_dualcomplex import generated_complexes, open_triangle
from test_workload_digests import SEEDS, _workloads

import oracles


GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = str(Path(__file__).resolve().parent.parent / "src")
QUARTIC = Path(corpus.__file__).resolve().parent / "fixtures" / "tetrahedral_quartic_fiber.json"


def _src_env():
    """The environment with src first on PYTHONPATH, for a child interpreter."""
    return {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}


def _no_constant(name):
    raise ValueError(f"{name} is not RFC 8259 JSON")


def invoke(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    if captured.out:
        # every report is RFC 8259 JSON, printed exactly as json.dumps would pretty-print it
        report = json.loads(captured.out, parse_constant=_no_constant)
        assert captured.out == json.dumps(report, indent=2, sort_keys=True) + "\n"
    return code, captured.out, captured.err


def payload_file(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


TETRA_SURFACE = {
    "components": [{"id": f"Z{i}", "b1": 0, "b2": 7} for i in range(4)],
    "double_curves": [
        {"id": f"L{i}{j}", "components": [f"Z{i}", f"Z{j}"], "genus": 0}
        for i, j in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    ],
    "triple_points": [
        {"id": f"P{a}{b}{c}", "curves": [f"L{a}{b}", f"L{b}{c}", f"L{a}{c}"]}
        for a, b, c in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))
    ],
}


class TestClassifyFiber:
    def test_type_three_with_e1(self, capsys, tmp_path):
        path = payload_file(tmp_path, "tetra.json", TETRA_SURFACE)
        code, out, _ = invoke(capsys, ["classify-fiber", path])
        assert code == 0
        report = json.loads(out)
        assert report["result"]["type"] == "III"
        assert report["result"]["grw"] == [1, 0, 20, 0, 1]
        assert report["result"]["crosscheck"]["all_passed"] is True
        assert [row["dims"] for row in report["result"]["e1"]][2] == [4, 0, 32, 0, 4]
        assert report["input"]["components"][0]["id"] == "Z0"

    def test_unknown_field_is_bad_input(self, capsys, tmp_path):
        # a misspelled triple_points is not read as a fiber without triple points
        misspelled = {("triple_point" if key == "triple_points" else key): value for key, value in TETRA_SURFACE.items()}
        code, out, err = invoke(capsys, ["classify-fiber", payload_file(tmp_path, "tetra.json", misspelled)])
        assert (code, out, err) == (1, "", "error: payload has unknown field 'triple_point'\n")
        # the first unknown field in payload order is named
        extra = {"name": "tetra", **TETRA_SURFACE, "comment": ""}
        code, out, err = invoke(capsys, ["classify-fiber", payload_file(tmp_path, "tetra.json", extra)])
        assert (code, out, err) == (1, "", "error: payload has unknown field 'name'\n")

    def test_unknown_cell_field_is_bad_input(self, capsys, tmp_path):
        # a misspelled b2 is not read as a component without b2
        smooth = {"components": [{"id": "X", "b1": 0, "b_2": 22, "kind": "k3"}], "double_curves": []}
        code, out, err = invoke(capsys, ["classify-fiber", payload_file(tmp_path, "smooth.json", smooth)])
        assert (code, out, err) == (1, "", "error: components[0] has unknown field 'b_2'\n")
        # a given null reads as absent, so the key count differs but no key is unknown
        smooth = {"components": [{"id": "X", "b1": 0, "b2": None, "kind": None}], "double_curves": []}
        assert invoke(capsys, ["classify-fiber", payload_file(tmp_path, "smooth.json", smooth)])[0] == 0

        def with_cells(section, cells):
            return {**TETRA_SURFACE, section: [cells.get(i, c) for i, c in enumerate(TETRA_SURFACE[section])]}

        cases = [  # the first fault in payload order is named, cell by cell
            (with_cells("double_curves", {2: {"genus": 0, "note": "", **TETRA_SURFACE["double_curves"][2], "x": 1}}),
             "double_curves[2] has unknown field 'note'"),
            (with_cells("triple_points", {1: {"curves": TETRA_SURFACE["triple_points"][1]["curves"], "name": "P"}}),
             "triple_points[1] has unknown field 'name'"),
            (with_cells("components", {3: {"id": "Z3", "b1": "0"}}) | {"triple_points": [{"curves": [], "z": 0}]},
             "component 'Z3': b1 must be an integer, got '0'"),
            (with_cells("components", {1: {"id": "Z1", "b1": 0, "genus": 0}, 3: {"id": "Z3"}}),
             "components[1] has unknown field 'genus'"),
            (with_cells("components", {1: {"id": "Z1", "b1": -1}, 3: {"id": "Z3", "b1": 0, "genus": 0}}),
             "component 'Z1': Betti numbers must be nonnegative"),
        ]
        for surface, message in cases:
            code, out, err = invoke(capsys, ["classify-fiber", payload_file(tmp_path, "tetra.json", surface)])
            assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_e1_omitted_without_b2(self, capsys, tmp_path):
        surface = {
            "components": [{"id": "X", "b1": 0, "kind": "k3"}],
            "double_curves": [],
            "triple_points": [],
        }
        path = payload_file(tmp_path, "smooth.json", surface)
        code, out, _ = invoke(capsys, ["classify-fiber", path])
        assert code == 0
        assert "e1" not in json.loads(out)["result"]

    def test_not_kulikov_exits_2(self, capsys, tmp_path):
        surface = {
            "components": [{"id": "A", "b1": 3}],
            "double_curves": [],
            "triple_points": [],
        }
        path = payload_file(tmp_path, "bad.json", surface)
        code, out, _ = invoke(capsys, ["classify-fiber", path])
        assert code == 2
        assert json.loads(out)["result"]["error"]["constraint"] == "NotKulikov"

    def test_malformed_payload_exits_1(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, out, _ = invoke(capsys, ["classify-fiber", str(path)])
        assert code == 1 and out == ""
        # JSON booleans and floats are not integers, even where Python compares them as such
        chain = [{"id": "A", "b1": 0}, {"id": "B", "b1": 0}]
        for surface in (
            {"components": [{"id": "X", "b1": True, "b2": 22}], "double_curves": []},
            {"components": [{"id": "X", "b1": 0.0, "b2": 22.0}], "double_curves": []},
            {"components": [{"id": "X", "b1": 0, "b2": 22.0}], "double_curves": []},
            {"components": chain, "double_curves": [{"id": "C", "components": ["A", "B"], "genus": 1.0}]},
        ):
            path = payload_file(tmp_path, "typed.json", surface)
            code, out, _ = invoke(capsys, ["classify-fiber", path])
            assert code == 1 and out == ""

    def _classify_with_points(self, capsys, tmp_path, points):
        surface = json.loads(QUARTIC.read_text())["surface"]
        return invoke(capsys, ["classify-fiber", payload_file(tmp_path, "points.json", {**surface, "triple_points": points})])

    def test_default_triple_point_id_taken_by_another_point(self, capsys, tmp_path):
        first, second, *rest = json.loads(QUARTIC.read_text())["surface"]["triple_points"]
        unnamed = {"curves": second["curves"]}  # named t1, after its index
        assert self._classify_with_points(capsys, tmp_path, [first, unnamed, *rest])[0] == 0
        assert self._classify_with_points(capsys, tmp_path, [{**first, "id": "t1"}, unnamed, *rest]) == (
            1, "", "error: triple_points[1] has no id, and its default id 't1' is another point's id\n")

    def test_repeated_triple_point_id(self, capsys, tmp_path):
        first, second, *rest = json.loads(QUARTIC.read_text())["surface"]["triple_points"]
        assert self._classify_with_points(capsys, tmp_path, [first, {**second, "id": first["id"]}, *rest]) == (
            1, "", "error: repeated triple point id\n")

    def test_non_finite_numbers_are_bad_input(self, capsys, tmp_path, monkeypatch):
        text = json.dumps(TETRA_SURFACE)
        for bad in ("NaN", "Infinity", "-Infinity", "1e400"):
            payload = text.replace('"Z0"', bad, 1)
            path = tmp_path / "nonfinite.json"
            path.write_text(payload)
            code, out, err = invoke(capsys, ["classify-fiber", str(path)])
            assert code == 1 and out == "" and bad.lstrip("-") in err
            monkeypatch.setattr("sys.stdin", io.StringIO(payload))
            assert invoke(capsys, ["classify-fiber", "-"])[:2] == (1, "")

    @pytest.mark.parametrize("command", ["classify-fiber", "orient", "euler"])
    def test_deep_nesting_is_bad_input(self, capsys, tmp_path, monkeypatch, command):
        text = "[" * 100000 + "]" * 100000
        path = tmp_path / "deep.json"
        path.write_text(text)
        assert invoke(capsys, [command, str(path)]) == (1, "", "error: payload nests too deeply\n")
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert invoke(capsys, [command, "-"]) == (1, "", "error: payload nests too deeply\n")

    @pytest.mark.parametrize("command", ["classify-fiber", "orient", "euler"])
    def test_closed_stdin_is_bad_input(self, capsys, monkeypatch, command):
        # an interpreter started with fd 0 closed has no sys.stdin
        monkeypatch.setattr("sys.stdin", None)
        assert invoke(capsys, [command, "-"]) == (1, "", "error: payload is stdin, but stdin is closed\n")

    @pytest.mark.parametrize("command", ["classify-fiber", "orient", "euler"])
    def test_closed_stdin_in_a_child_is_bad_input(self, command):
        proc = subprocess.run(
            [sys.executable, "-m", "k3degen.cli", command, "-"],
            capture_output=True, text=True, env=_src_env(), timeout=60, preexec_fn=lambda: os.close(0),
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", "error: payload is stdin, but stdin is closed\n")

    def test_awkward_ids_round_trip(self, capsys, tmp_path):
        # brackets, quotes, a backslash, a newline and non-ASCII in every id
        tag = lambda x: x + '[]{}",:\\\n\u00e9'
        surface = {
            "components": [{**c, "id": tag(c["id"])} for c in TETRA_SURFACE["components"]],
            "double_curves": [
                {**d, "id": tag(d["id"]), "components": [tag(z) for z in d["components"]]}
                for d in TETRA_SURFACE["double_curves"]
            ],
            "triple_points": [
                {"id": tag(t["id"]), "curves": [tag(x) for x in t["curves"]]} for t in TETRA_SURFACE["triple_points"]
            ],
        }
        code, out, _ = invoke(capsys, ["classify-fiber", payload_file(tmp_path, "awkward.json", surface)])
        assert code == 0
        report = json.loads(out)
        assert report["result"]["type"] == "III"
        assert report["input"] == surface
        assert oracles.surface_json(SNCSurface.from_json_dict(report["input"])) == report["input"]

    def test_aliasing_ids_are_bad_input(self, capsys, tmp_path):
        # JSON true and 2.0 equal the ids 1 and 2 in Python, and would make this chain Type II
        surface = {
            "components": [{"id": 1, "b1": 0}, {"id": 2, "b1": 0}],
            "double_curves": [{"id": "c", "components": [True, 2.0], "genus": 1}],
        }
        code, out, err = invoke(capsys, ["classify-fiber", payload_file(tmp_path, "alias.json", surface)])
        assert (code, out) == (1, "") and "id True is not a JSON string or integer" in err
        surface["double_curves"][0]["components"] = [1, 2]
        assert invoke(capsys, ["classify-fiber", payload_file(tmp_path, "ints.json", surface)])[0] == 0

    def test_closed_stdout_keeps_the_exit_code(self, tmp_path):
        # a 1200-component chain makes a report of about 240 KB, more than a pipe buffers
        n = 1200
        surface = {
            "components": [
                {"id": f"Z{i}", "b1": 0 if i in (0, n - 1) else 2, "b2": 10 if i in (0, n - 1) else 2}
                for i in range(n)
            ],
            "double_curves": [
                {"id": f"C{i}", "components": [f"Z{i}", f"Z{i + 1}"], "genus": 1} for i in range(n - 1)
            ],
        }
        path = payload_file(tmp_path, "chain.json", surface)
        proc = subprocess.Popen(
            [sys.executable, "-m", "k3degen.cli", "classify-fiber", path],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_src_env(),
        )
        try:
            assert proc.stdout.readline() == b"{\n"
            proc.stdout.close()
            code = proc.wait(timeout=60)
        finally:
            proc.kill()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert code == 0 and err == "Type II, grw = [0, 2, 18, 2, 0]\n"
        assert not any(word in err for word in ("error:", "Traceback", "Exception ignored"))

    @pytest.mark.parametrize("point", ["x", 3, None, ["a", "b", "c"]])
    def test_triple_point_must_be_an_object(self, capsys, tmp_path, point):
        payload = dict(TETRA_SURFACE, triple_points=[point])
        code, out, err = invoke(capsys, ["classify-fiber", payload_file(tmp_path, "fiber.json", payload)])
        assert (code, out, err) == (1, "", f"error: triple_points[0] must be a JSON object, got {point!r}\n")

    def test_unhashable_curve_id_is_bad_input(self, capsys, tmp_path):
        payload = json.loads(json.dumps(TETRA_SURFACE))
        payload["triple_points"][0]["curves"][0] = {}
        code, out, err = invoke(capsys, ["classify-fiber", payload_file(tmp_path, "fiber.json", payload)])
        assert (code, out, err) == (1, "", "error: id {} is not a JSON string or integer\n")

    def test_report_too_long_to_print_is_bad_input(self, capsys, tmp_path):
        limit = sys.get_int_max_str_digits()
        # each b2 has 4300 digits, the most the decoder reads; the E1 sums of them have more than str() prints
        big = {**TETRA_SURFACE, "components": [{**c, "b2": 10**4300 - 1} for c in TETRA_SURFACE["components"]]}
        code, out, err = invoke(capsys, ["classify-fiber", payload_file(tmp_path, "big.json", big)])
        assert (code, out) == (1, "")
        assert err == f"error: result field e1 has an integer of more than {limit} digits, too long to print\n"
        # the det of E8 scaled by 10^4000 has 32001 digits, and the summary prints it first
        code, out, err = invoke(capsys, ["lattice", "E8", "--rescale", "1" + "0" * 4000])
        assert (code, out) == (1, "")
        assert err == f"error: result field det has an integer of more than {limit} digits, too long to print\n"
        # 9·10^4299 fibers of type II keep the rank at 2, and their Euler sum has 4301 digits
        fibers = payload_file(tmp_path, "fibers.json", {"fibers": {"II": 9 * 10**4299}})
        code, out, err = invoke(capsys, ["euler", fibers])
        assert (code, out) == (1, "")
        assert err == f"error: result field euler_sum has an integer of more than {limit} digits, too long to print\n"
        # a rank too long to print is still refused, and its detail does not spell it out
        fibers = payload_file(tmp_path, "fibers.json", {"fibers": {"I" + "9" * 400: 10**4000}})
        code, out, err = invoke(capsys, ["euler", fibers])
        detail = f"trivial lattice rank of more than {limit} digits exceeds the K3 bound 22"
        assert (code, err) == (2, detail + "\n")
        assert json.loads(out)["result"] == {"error": {"constraint": "ImpossibleConfiguration", "detail": detail}}

    def test_deterministic_output(self, capsys, tmp_path):
        path = payload_file(tmp_path, "tetra.json", TETRA_SURFACE)
        _, first, _ = invoke(capsys, ["classify-fiber", path])
        _, second, _ = invoke(capsys, ["classify-fiber", path])
        assert first == second


class TestAllowedTypes:
    def test_order_five(self, capsys):
        code, out, _ = invoke(capsys, ["allowed-types", "--m", "5"])
        assert code == 0
        assert json.loads(out)["result"]["allowed"] == ["I"]

    def test_all_constraints(self, capsys):
        code, out, _ = invoke(
            capsys,
            ["allowed-types", "--m", "2", "--field", "imaginary_quadratic", "--height", "2"],
        )
        assert code == 0
        result = json.loads(out)["result"]
        assert result["allowed"] == ["I", "II"] and len(result["reasons"]) == 3

    def test_infinite_height(self, capsys):
        code, out, _ = invoke(capsys, ["allowed-types", "--height", "infinite"])
        assert json.loads(out)["result"]["allowed"] == ["I"] and code == 0

    def test_residue_char_two(self, capsys):
        code, out, _ = invoke(capsys, ["allowed-types", "--m", "4", "--char", "2"])
        assert code == 0
        assert json.loads(out)["result"]["status"] == "outside theorem hypotheses"

    def test_no_constraint_is_bad_input(self, capsys):
        code, _, err = invoke(capsys, ["allowed-types"])
        assert code == 1 and "at least one" in err

    def test_non_prime_char_is_bad_input(self, capsys):
        for char in ("0", "1", "4"):
            code, out, err = invoke(capsys, ["allowed-types", "--m", "4", "--char", char])
            assert code == 1 and out == "" and "prime" in err


# one argv per integer option; {} marks the value under test
_INTEGER_OPTIONS = [
    ["allowed-types", "--m", "{}"],
    ["allowed-types", "--m", "5", "--char", "{}"],
    ["charpoly", "--m", "{}", "--t-rank", "4"],
    ["charpoly", "--m", "1", "--setting", "finite-field", "--p", "{}", "--t-rank", "4"],
    ["charpoly", "--m", "1", "--t-rank", "{}"],
    ["orders", "--max-t", "{}"],
    ["orders", "--phi-bound", "{}"],
    ["ss-check", "--m", "{}", "--p", "7"],
    ["ss-check", "--m", "5", "--p", "{}"],
    ["euler", "fibers.json", "--characteristic", "{}"],
    ["lattice", "U", "--rescale", "{}"],
]


class TestIntegerOptions:
    """An integer option takes a JSON integer literal, -?(0|[1-9][0-9]*), and nothing else."""

    @pytest.mark.parametrize("text", ["1_0", "\u0663", "+4", "007", " 7 "])
    @pytest.mark.parametrize("argv", _INTEGER_OPTIONS, ids=lambda argv: f"{argv[0]} {argv[argv.index('{}') - 1]}")
    def test_only_a_json_integer_is_read(self, capsys, argv, text):
        code, out, err = invoke(capsys, [text if a == "{}" else a for a in argv])
        assert (code, out) == (1, "")
        assert err.endswith(f"error: argument {argv[argv.index('{}') - 1]}: invalid int value: {text!r}\n")

    def test_json_integers_are_read(self):
        assert [_int_literal(t) for t in ("0", "-0", "-12", "10", "9" * 40)] == [0, 0, -12, 10, int("9" * 40)]
        with pytest.raises(argparse.ArgumentTypeError, match="invalid int value: '1{5000}'"):
            _int_literal("1" * 5000)  # more digits than int() converts

    @settings(derandomize=True, max_examples=400)
    @given(st.text(st.sampled_from("-+0019_ \u0663\u00b2x"), max_size=5) | st.integers().map(str))
    @example("")
    @example("-")
    @example("+1")
    @example(" 1")
    @example("1_0")
    @example("\u0663")
    @example("00")
    @example("-01")
    @example("-0")
    @example("1" * 5000)
    def test_int_literal_is_the_json_integer_rule(self, text):
        if re.fullmatch(r"-?(?:0|[1-9][0-9]*)", text) and len(text.lstrip("-")) <= sys.get_int_max_str_digits():
            assert _int_literal(text) == int(text)
        else:
            with pytest.raises(argparse.ArgumentTypeError) as raised:
                _int_literal(text)
            assert str(raised.value) == f"invalid int value: {text!r}"

    # the last has more digits than int() converts
    @pytest.mark.parametrize("height", [" 2", "2 ", "+2", "02", "\u0662", "2_0", pytest.param("1" + "0" * 5000, id="10**5000")])
    def test_height_is_infinite_or_a_json_integer(self, capsys, height):
        code, out, err = invoke(capsys, ["allowed-types", "--height", height])
        assert (code, out, err) == (1, "", f"error: height must be an integer in 1..10 or infinite, got {height!r}\n")

    @pytest.mark.parametrize("name", ["A\u0663", "A(\u0663)", "A007", "A(03)"])
    def test_lattice_n_is_a_json_integer(self, capsys, name):
        code, out, err = invoke(capsys, ["lattice", name])
        assert (code, out, err) == (1, "", f"error: unknown lattice name: {name!r}\n")


class TestCharpolyAndOrders:
    def test_char0(self, capsys):
        code, out, _ = invoke(capsys, ["charpoly", "--m", "42", "--t-rank", "12"])
        assert code == 0
        candidates = json.loads(out)["result"]["candidates"]
        assert candidates == [
            {
                "factors": {"42": 1},
                "coefficients": [1, 1, 0, -1, -1, 0, 1, 0, -1, -1, 0, 1, 1],
                "single_power": True,
            }
        ]

    def test_finite_height_notes_multi_factor(self, capsys):
        code, out, _ = invoke(
            capsys,
            ["charpoly", "--m", "1", "--setting", "finite-height", "--p", "3", "--t-rank", "4"],
        )
        assert code == 0
        candidates = json.loads(out)["result"]["candidates"]
        multi = [c for c in candidates if not c["single_power"]]
        assert multi and all("note" in c for c in multi)

    @pytest.mark.parametrize("setting", ["finite-field", "finite-height"])
    def test_setting_is_named_as_typed(self, capsys, setting):
        argv = ["charpoly", "--m", "1", "--setting", setting, "--t-rank", "4", "--p"]
        assert invoke(capsys, [*argv, "2"]) == (1, "", f"error: setting '{setting}' requires p > 2\n")
        err = f"error: setting '{setting}' needs a prime characteristic, got 4\n"
        assert invoke(capsys, [*argv, "4"]) == (1, "", err)

    def test_charpoly_missing_p_is_bad_input(self, capsys):
        code, _, err = invoke(capsys, ["charpoly", "--m", "1", "--setting", "liftable", "--t-rank", "4"])
        assert code == 1 and "requires --p" in err

    def test_orders_max_t(self, capsys):
        code, out, _ = invoke(capsys, ["orders", "--max-t", "21"])
        assert code == 0
        assert json.loads(out)["result"]["prime_powers"] == [
            2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 25, 27, 32,
        ]

    def test_orders_phi_bound(self, capsys):
        code, out, _ = invoke(capsys, ["orders", "--phi-bound", "20"])
        assert code == 0
        assert json.loads(out)["result"]["max"] == 66

    def test_orders_requires_exactly_one_mode(self, capsys):
        assert invoke(capsys, ["orders"])[0] == 1
        assert invoke(capsys, ["orders", "--max-t", "5", "--phi-bound", "5"])[0] == 1

    def test_orders_phi_bound_large(self, capsys):
        code, out, _ = invoke(capsys, ["orders", "--phi-bound", "3000"])
        assert code == 0
        result = json.loads(out)["result"]
        assert len(result["orders"]) == 5832 and result["max"] == 13860

    def test_orders_phi_bound_over_cap_is_bad_input(self, capsys):
        code, out, err = invoke(capsys, ["orders", "--phi-bound", "100001"])
        assert code == 1 and out == "" and "100000" in err

    def test_orders_max_t_cap(self):
        # a fresh process each, so the answer and the rejection are both timed end to end
        def orders(max_t):
            argv = [sys.executable, "-m", "k3degen.cli", "orders", "--max-t", max_t]
            return subprocess.run(argv, capture_output=True, text=True, env=_src_env(), timeout=10)

        proc = orders("100000")
        assert proc.returncode == 0
        assert len(json.loads(proc.stdout)["result"]["prime_powers"]) == 9701
        proc = orders("100001")
        assert proc.returncode == 1 and proc.stdout == "" and "1..100000" in proc.stderr

    def test_ss_check(self, capsys):
        code, out, _ = invoke(capsys, ["ss-check", "--m", "42", "--p", "2"])
        assert code == 0
        result = json.loads(out)["result"]
        assert result == {"sigma0": [], "supersingular_possible": False}

    def test_huge_m_answers_without_factoring(self, capsys):
        for extra in ([], ["--setting", "liftable", "--p", "5"]):
            argv = ["charpoly", "--m", "1000000000000000003", "--t-rank", "2"] + extra
            code, out, _ = invoke(capsys, argv)
            assert code == 0 and json.loads(out)["result"]["candidates"] == []

    def test_huge_prime_is_bad_input(self, capsys):
        huge = str(2**89 - 1)  # a Mersenne prime above the Miller-Rabin certificate's bound
        for argv in (["ss-check", "--m", "5", "--p", huge], ["allowed-types", "--m", "4", "--char", huge]):
            code, out, err = invoke(capsys, argv)
            assert code == 1 and out == "" and "3317044064679887385961981" in err

    def test_prime_near_10_18_is_decided(self, capsys):
        p = "1000000000000000003"
        code, out, _ = invoke(capsys, ["ss-check", "--m", "5", "--p", p])
        assert code == 0 and json.loads(out)["result"]["sigma0"] == [2, 6, 10]
        assert invoke(capsys, ["allowed-types", "--m", "4", "--char", p])[0] == 0


class TestOrientCommand:
    def test_orient_json_complex(self, capsys, tmp_path):
        complex_dict = {
            "vertices": ["A", "B", "C", "D"],
            "edges": [
                {"id": a + b, "v": [a, b]}
                for a, b in ("AB", "AC", "AD", "BC", "BD", "CD")
            ],
            "triangles": [
                {"id": a + b + c, "edges": [a + b, b + c, a + c], "vertices": [a, b, c]}
                for a, b, c in ("ABC", "ABD", "ACD", "BCD")
            ],
        }
        auto = {
            "vertex_map": {"A": "B", "B": "A", "C": "C", "D": "D"},
            "edge_map": {"AB": "AB", "AC": "BC", "AD": "BD", "BC": "AC", "BD": "AD", "CD": "CD"},
            "triangle_map": {"ABC": "ABC", "ABD": "ABD", "ACD": "BCD", "BCD": "ACD"},
        }
        path = payload_file(tmp_path, "tetra.json", {**complex_dict, "automorphism": auto})
        code, out, _ = invoke(capsys, ["orient", path])
        assert code == 0
        result = json.loads(out)["result"]
        assert result["orientable"] is True and result["action"] == -1

    def test_unknown_field_is_bad_input(self, capsys, tmp_path):
        # a misspelled automorphism is named, not dropped
        payload = json.loads((GOLDEN / "tetrahedron_orient.json").read_text())
        payload["automorphisms"] = payload.pop("automorphism")
        code, out, err = invoke(capsys, ["orient", payload_file(tmp_path, "tetra.json", payload)])
        assert (code, out, err) == (1, "", "error: payload has unknown field 'automorphisms'\n")

    def test_unknown_cell_field_is_bad_input(self, capsys, tmp_path):
        payload = json.loads((GOLDEN / "tetrahedron_orient.json").read_text())
        for section, k, key in (("edges", 4, "w"), ("triangles", 0, "sign"), ("triangles", 3, "signs ")):
            cells = [{**cell, key: [1, 1, 1]} if i == k else cell for i, cell in enumerate(payload[section])]
            code, out, err = invoke(capsys, ["orient", payload_file(tmp_path, "tetra.json", {**payload, section: cells})])
            assert (code, out, err) == (1, "", f"error: {section}[{k}] has unknown field {key!r}\n")

    def test_non_orientable_exits_2(self, capsys, tmp_path):
        rp2 = {
            "vertices": ["v", "w"],
            "edges": [
                {"id": "a", "v": ["v", "w"]},
                {"id": "b", "v": ["w", "v"]},
                {"id": "c", "v": ["v", "v"]},
            ],
            "triangles": [
                {"id": "U", "edges": ["c", "a", "b"], "vertices": ["v", "v", "w"], "signs": [1, 1, 1]},
                {"id": "L", "edges": ["a", "b", "c"], "vertices": ["v", "w", "v"], "signs": [1, 1, -1]},
            ],
        }
        path = payload_file(tmp_path, "rp2.json", rp2)
        code, out, _ = invoke(capsys, ["orient", path])
        assert code == 2
        assert json.loads(out)["result"]["error"]["constraint"] == "NonOrientable"

    @pytest.mark.parametrize("complex_, message", [
        (lambda: DeltaComplex(["a", "b", "c"], {}, {}), "nothing to orient: no triangles"),
        # test_dualcomplex's tetrahedron_and_lonely_vertex and wedge_of_tetrahedra, with string edge and triangle ids
        (lambda: oracles._simplicial(5, itertools.combinations(range(4), 3)), "orientation requires a connected complex"),
        (open_triangle, "edge 'e0' lies on 1 triangle sides, expected 2"),
        (
            lambda: oracles._simplicial(7, [*itertools.combinations(range(4), 3), *itertools.combinations((0, 4, 5, 6), 3)]),
            "triangles not connected through shared edges",
        ),
    ], ids=["no-triangles", "disconnected", "open-edge", "wedge"])
    def test_a_complex_orient_cannot_read_is_bad_input(self, capsys, tmp_path, complex_, message):
        path = payload_file(tmp_path, "complex.json", complex_().to_json_dict())
        code, out, err = invoke(capsys, ["orient", path])
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_bad_loop_sign_is_bad_input(self, capsys, tmp_path):
        torus = {
            "vertices": ["v"],
            "edges": [{"id": e, "v": ["v", "v"]} for e in "abc"],
            "triangles": [
                {"id": "L", "edges": ["a", "b", "c"], "vertices": ["v", "v", "v"], "signs": [5, 1, -1]},
                {"id": "U", "edges": ["c", "a", "b"], "vertices": ["v", "v", "v"], "signs": [1, -1, -1]},
            ],
        }
        path = payload_file(tmp_path, "torus.json", torus)
        code, out, err = invoke(capsys, ["orient", path])
        assert code == 1 and out == "" and "1 or -1" in err

    def test_float_vertex_is_bad_input(self, capsys, tmp_path):
        # 1.0 would otherwise stand for the vertex 1
        pillow = {
            "vertices": [0, 1, 2],
            "edges": [{"id": "a", "v": [0, 1]}, {"id": "b", "v": [1, 2]}, {"id": "c", "v": [2, 0]}],
            "triangles": [{"id": t, "edges": ["a", "b", "c"], "vertices": [0, 1, 2]} for t in ("T1", "T2")],
        }
        assert invoke(capsys, ["orient", payload_file(tmp_path, "pillow.json", pillow)])[0] == 0
        pillow["edges"][0]["v"] = [0, 1.0]
        code, out, err = invoke(capsys, ["orient", payload_file(tmp_path, "float.json", pillow)])
        assert (code, out) == (1, "") and "id 1.0 is not a JSON string or integer" in err

    def test_integer_ids_cannot_take_an_automorphism_object(self, capsys, tmp_path):
        # JSON object keys are strings, so no map can name the integer vertices
        tetra = {
            "vertices": [0, 1, 2, 3],
            "edges": [{"id": f"{a}{b}", "v": [a, b]} for a, b in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))],
            "triangles": [
                {"id": f"{a}{b}{c}", "edges": [f"{a}{b}", f"{b}{c}", f"{a}{c}"], "vertices": [a, b, c]}
                for a, b, c in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))
            ],
        }
        identity = {
            "vertex_map": {str(v): str(v) for v in tetra["vertices"]},
            "edge_map": {e["id"]: e["id"] for e in tetra["edges"]},
            "triangle_map": {t["id"]: t["id"] for t in tetra["triangles"]},
        }
        path = payload_file(tmp_path, "tetra.json", {**tetra, "automorphism": identity})
        code, out, err = invoke(capsys, ["orient", path])
        assert (code, out) == (1, "")
        assert err == "error: automorphism maps are JSON objects, so they need string ids; vertex id 0 is not a string\n"

    def test_automorphism_maps_are_objects_only(self, capsys, tmp_path):
        # a list of two-character strings reads as [id, image] pairs under dict()
        payload = json.loads((GOLDEN / "tetrahedron_orient.json").read_text())
        for key, value in (("vertex_map", ["AB", "BA", "CC", "DD"]), ("edge_map", "AB"), ("triangle_map", None)):
            changed = {**payload, "automorphism": {**payload["automorphism"], key: value}}
            code, out, err = invoke(capsys, ["orient", payload_file(tmp_path, "maps.json", changed)])
            assert (code, out, err) == (1, "", f"error: {key} must be a JSON object, got {value!r}\n")
        path = payload_file(tmp_path, "pairs.json", {**payload, "automorphism": [["A", "B"]]})
        code, out, err = invoke(capsys, ["orient", path])
        assert (code, out) == (1, "") and err.startswith("error: malformed automorphism payload: ")
        # an image is an id, so it must be a JSON string; an array or object image is not even hashable
        for key, mapping in payload["automorphism"].items():
            first = min(mapping)
            for image in ([], {}, None):
                changed = {**payload, "automorphism": {**payload["automorphism"], key: {**mapping, first: image}}}
                code, out, err = invoke(capsys, ["orient", payload_file(tmp_path, "image.json", changed)])
                assert (code, out, err) == (1, "", f"error: {key} maps {first!r} to {image!r}, not to a JSON string\n")

    def test_echo_holds_the_three_maps_only(self, capsys, tmp_path):
        # an extra key is bad input, so neither it nor its nesting reaches the report printer
        payload = json.loads((GOLDEN / "tetrahedron_orient.json").read_text())
        extra = 0
        for _ in range(600):
            extra = [extra]
        deep = {**payload, "automorphism": {"extra": extra, **payload["automorphism"], "other": 1}}
        assert invoke(capsys, ["orient", payload_file(tmp_path, "plain.json", payload)])[0] == 0
        assert invoke(capsys, ["orient", payload_file(tmp_path, "deep.json", deep)]) == (
            1, "", "error: malformed automorphism payload: unknown field 'extra'\n"
        )

    def test_repeated_edge_or_triangle_is_bad_input(self, capsys, tmp_path):
        tetra = {
            "vertices": ["A", "B", "C", "D"],
            "edges": [{"id": a + b, "v": [a, b]} for a, b in ("AB", "AC", "AD", "BC", "BD", "CD")],
            "triangles": [
                {"id": a + b + c, "edges": [a + b, b + c, a + c], "vertices": [a, b, c]}
                for a, b, c in ("ABC", "ABD", "ACD", "BCD")
            ],
        }
        assert invoke(capsys, ["orient", payload_file(tmp_path, "tetra.json", tetra)])[0] == 0
        for key, again in (("edges", {"id": "AB", "v": ["C", "D"]}), ("triangles", tetra["triangles"][0])):
            path = payload_file(tmp_path, "twice.json", {**tetra, key: [*tetra[key], again]})
            code, out, err = invoke(capsys, ["orient", path])
            assert code == 1 and out == "" and "repeated" in err


# a tetrahedron with one-character ids, so a string in place of an id array spells valid ids
_EDGES = dict(zip("pqrstu", ("ab", "ac", "ad", "bc", "bd", "cd")))
_FACES = dict(zip("ABCD", ("psq", "ptr", "qur", "sut")))
SPELLED = {
    "classify-fiber": {
        "components": [{"id": x, "b1": 0} for x in "abcd"],
        "double_curves": [{"id": e, "components": list(ends), "genus": 0} for e, ends in _EDGES.items()],
        "triple_points": [{"id": f, "curves": list(curves)} for f, curves in _FACES.items()],
    },
    "orient": {
        "vertices": list("abcd"),
        "edges": [{"id": e, "v": list(ends)} for e, ends in _EDGES.items()],
        "triangles": [
            {"id": f, "edges": list(es), "vertices": list(_EDGES[es[0]] + _EDGES[es[1]][1]), "signs": [1, 1, -1]}
            for f, es in _FACES.items()
        ],
    },
}


class TestIdArrays:
    @pytest.mark.parametrize("command, where, value, field", [
        ("classify-fiber", ("components",), {}, "components"),
        ("classify-fiber", ("double_curves",), "", "double_curves"),
        ("classify-fiber", ("triple_points",), {}, "triple_points"),
        ("classify-fiber", ("double_curves", 0, "components"), "ab", "double_curves[0].components"),
        ("classify-fiber", ("triple_points", 0, "curves"), "psq", "triple_points[0].curves"),
        ("orient", ("vertices",), "abcd", "vertices"),
        ("orient", ("edges",), {"id": "p", "v": ["a", "b"]}, "edges"),
        ("orient", ("triangles",), {"id": "A", "edges": list("psq"), "vertices": list("abc")}, "triangles"),
        ("orient", ("edges", 0, "v"), "ab", "edges[0].v"),
        ("orient", ("triangles", 0, "vertices"), "abc", "triangles[0].vertices"),
        ("orient", ("triangles", 0, "edges"), "psq", "triangles[0].edges"),
        ("orient", ("triangles", 0, "signs"), "11-", "triangles[0].signs"),
    ])
    def test_string_for_an_array_is_bad_input(self, capsys, tmp_path, command, where, value, field):
        payload = json.loads(json.dumps(SPELLED[command]))
        assert invoke(capsys, [command, payload_file(tmp_path, "arrays.json", payload)])[0] == 0
        *path, key = where
        target = payload
        for step in path:
            target = target[step]
        target[key] = value
        code, out, err = invoke(capsys, [command, payload_file(tmp_path, "string.json", payload)])
        assert (code, out, err) == (1, "", f"error: {field} must be a JSON array, got {value!r}\n")


class TestCellShapes:
    """A cell that is not a JSON object, or that misses a field, is named by section, index and field."""

    @pytest.mark.parametrize("command, section, cell", [
        ("classify-fiber", "components", "x"),
        ("classify-fiber", "double_curves", None),
        ("orient", "edges", 3),
        ("orient", "triangles", ["A", "psq"]),
    ])
    def test_cell_must_be_an_object(self, capsys, tmp_path, command, section, cell):
        payload = json.loads(json.dumps(SPELLED[command]))
        payload[section][1] = cell
        code, out, err = invoke(capsys, [command, payload_file(tmp_path, "cells.json", payload)])
        assert (code, out, err) == (1, "", f"error: {section}[1] must be a JSON object, got {cell!r}\n")

    @pytest.mark.parametrize("command, section, field", [
        ("classify-fiber", "components", "id"),
        ("classify-fiber", "components", "b1"),
        ("classify-fiber", "double_curves", "id"),
        ("classify-fiber", "double_curves", "components"),
        ("classify-fiber", "double_curves", "genus"),
        ("classify-fiber", "triple_points", "curves"),
        ("orient", "edges", "id"),
        ("orient", "edges", "v"),
        ("orient", "triangles", "id"),
        ("orient", "triangles", "vertices"),
        ("orient", "triangles", "edges"),
    ])
    def test_missing_field_is_named(self, capsys, tmp_path, command, section, field):
        payload = json.loads(json.dumps(SPELLED[command]))
        del payload[section][1][field]
        code, out, err = invoke(capsys, [command, payload_file(tmp_path, "cells.json", payload)])
        assert (code, out, err) == (1, "", f"error: {section}[1] has no field {field!r}\n")

    @pytest.mark.parametrize("command, payload, message", [
        ("classify-fiber", [], "payload must be a JSON object, got []"),
        ("classify-fiber", {"components": []}, "payload has no field 'double_curves'"),
        ("orient", "abc", "payload must be a JSON object, got 'abc'"),
        ("orient", {"vertices": [], "edges": []}, "payload has no field 'triangles'"),
    ])
    def test_payload_must_be_an_object_with_its_sections(self, capsys, tmp_path, command, payload, message):
        code, out, err = invoke(capsys, [command, payload_file(tmp_path, "payload.json", payload)])
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("ends", [["a"], ["a", "b", "c"]])
    def test_edge_needs_two_vertices(self, capsys, tmp_path, ends):
        payload = json.loads(json.dumps(SPELLED["orient"]))
        payload["edges"][1]["v"] = ends
        code, out, err = invoke(capsys, ["orient", payload_file(tmp_path, "ends.json", payload)])
        assert (code, out, err) == (1, "", f"error: edge 'q': v must list 2 vertices, got {len(ends)}\n")

    def test_faults_are_reported_cell_by_cell(self, capsys, tmp_path):
        # an earlier cell's bad value comes before a later cell's missing field, within
        # a section; and every component comes before any double curve
        payload = json.loads(json.dumps(SPELLED["classify-fiber"]))
        payload["components"][1]["b1"] = -1
        del payload["components"][2]["id"]
        payload["double_curves"][0] = "x"
        for expected in ("component 'b': Betti numbers must be nonnegative", "components[2] has no field 'id'"):
            code, out, err = invoke(capsys, ["classify-fiber", payload_file(tmp_path, "faults.json", payload)])
            assert (code, out, err) == (1, "", f"error: {expected}\n")
            payload["components"][1]["b1"] = 0


class TestEulerCommand:
    def test_generic_configuration(self, capsys, tmp_path):
        path = payload_file(tmp_path, "fibers.json", {"fibers": {"II": 1, "I1": 22}})
        code, out, _ = invoke(capsys, ["euler", path])
        assert code == 0
        result = json.loads(out)["result"]
        assert result == {"euler_sum": 24, "is_k3": True, "trivial_lattice_rank": 2}

    def test_small_characteristic_warning(self, capsys, tmp_path):
        path = payload_file(tmp_path, "fibers.json", {"fibers": {"II": 12}})
        code, out, _ = invoke(capsys, ["euler", path, "--characteristic", "2"])
        assert code == 0
        assert "warning" in json.loads(out)["result"]

    def test_impossible_configuration_exits_2(self, capsys, tmp_path):
        path = payload_file(tmp_path, "fibers.json", {"fibers": {"I24": 1}})
        code, out, _ = invoke(capsys, ["euler", path])
        assert code == 2
        assert json.loads(out)["result"]["error"]["constraint"] == "ImpossibleConfiguration"

    def test_bare_list_payload(self, capsys, tmp_path):
        path = payload_file(tmp_path, "fibers.json", ["II", "I1", "I1"])
        code, out, _ = invoke(capsys, ["euler", path])
        assert code == 0 and json.loads(out)["result"]["euler_sum"] == 4

    @pytest.mark.parametrize("label", [" I1 ", "I\u0663", "I01"])
    def test_label_is_read_as_typed(self, capsys, tmp_path, label):
        path = payload_file(tmp_path, "fibers.json", [label, "II"])
        code, out, err = invoke(capsys, ["euler", path])
        assert (code, out, err) == (1, "", f"error: cannot parse Kodaira fiber label {label!r}\n")

    def test_label_with_a_huge_index_is_named(self, capsys, tmp_path):
        label = "I" + "1" * 5000
        code, out, err = invoke(capsys, ["euler", payload_file(tmp_path, "fibers.json", [label, "II"])])
        assert (code, out, err) == (1, "", f"error: cannot parse Kodaira fiber label {label!r}\n")
        assert "set_int_max_str_digits" not in err

    def test_non_prime_characteristic_is_bad_input(self, capsys, tmp_path):
        path = payload_file(tmp_path, "fibers.json", {"fibers": {"II": 12}})
        for char in ("-5", "0", "4"):
            code, out, err = invoke(capsys, ["euler", path, "--characteristic", char])
            assert code == 1 and out == "" and "prime" in err

    def test_multiset_is_an_array_or_object(self, capsys, tmp_path):
        for payload in ("", {"fibers": ""}, 24):
            fibers = payload["fibers"] if isinstance(payload, dict) else payload
            code, out, err = invoke(capsys, ["euler", payload_file(tmp_path, "fibers.json", payload)])
            assert (code, out) == (1, "")
            assert err == f"error: fiber multiset must be a JSON array or object, got {fibers!r}\n"

    def test_huge_counts_are_counted_not_listed(self, capsys, tmp_path):
        # each label is parsed once and its count added, so no list of 10**30 labels is built
        code, out, _ = invoke(capsys, ["euler", payload_file(tmp_path, "fibers.json", {"fibers": {"I1": 10**30}})])
        assert code == 0
        assert json.loads(out)["result"] == {"euler_sum": 10**30, "is_k3": False, "trivial_lattice_rank": 2}
        code, out, _ = invoke(capsys, ["euler", payload_file(tmp_path, "fibers.json", {"fibers": {"I2": 10**30}})])
        assert code == 2
        assert json.loads(out)["result"]["error"]["constraint"] == "ImpossibleConfiguration"

    def test_fibers_stand_alone(self, capsys, tmp_path):
        # beside fibers, any other field is named, not ignored
        for payload in ({"fibers": ["I1"], "II": 5}, {"II": 5, "fibers": ["I1"]}):
            code, out, err = invoke(capsys, ["euler", payload_file(tmp_path, "fibers.json", payload)])
            assert (code, out, err) == (1, "", "error: payload has unknown field 'II'\n")

    def test_non_string_label_is_bad_input(self, capsys, tmp_path):
        path = payload_file(tmp_path, "fibers.json", ["II", 3])
        code, out, err = invoke(capsys, ["euler", path])
        assert code == 1 and out == "" and "string" in err


class TestLatticeCommand:
    def test_direct_sum_and_rescale(self, capsys):
        code, out, _ = invoke(capsys, ["lattice", "U", "--rescale", "11"])
        assert code == 0
        result = json.loads(out)["result"]
        assert result["det"] == -121 and result["gram"] == [[0, 11], [11, 0]]

    def test_k3(self, capsys):
        code, out, _ = invoke(capsys, ["lattice", "K3"])
        result = json.loads(out)["result"]
        assert result["rank"] == 22 and result["signature"] == [3, 19, 0]

    def test_unknown_name(self, capsys):
        assert invoke(capsys, ["lattice", "Z9"])[0] == 1

    @pytest.mark.parametrize("name, rank", [("e8", 8), ("u", 2), ("k3", 22), ("a3", 3), ("a(3)", 3), ("A(12)", 12)])
    def test_names_in_any_case(self, capsys, name, rank):
        code, out, _ = invoke(capsys, ["lattice", name])
        assert code == 0 and json.loads(out)["result"]["rank"] == rank

    @pytest.mark.parametrize("name", [" e8", "E8 ", "\tU", "K3\n", "A)3(", "A((3", "A(3", "A3)", "A(3))", " A(3) "])
    def test_name_is_read_as_typed(self, capsys, name):
        assert invoke(capsys, ["lattice", name]) == (1, "", f"error: unknown lattice name: {name!r}\n")

    def test_total_rank_cap(self, capsys):
        code, out, _ = invoke(capsys, ["lattice", "U", "A198"])
        assert code == 0 and json.loads(out)["result"]["rank"] == 200
        for names in (["U", "A199"], ["A201"]):
            code, _, err = invoke(capsys, ["lattice", *names])
            assert code == 1 and "200" in err
        name = "A" + "1" * 5000
        code, out, err = invoke(capsys, ["lattice", name])
        assert (code, out, err) == (1, "", f"error: A(n) requires n <= 200, got {name!r}\n")
        assert "set_int_max_str_digits" not in err

    def test_rescaled_det_too_long_to_print_ends_in_bounded_time(self):
        # the pivots of A50(10^1000) keep about 1000 digits; leading minors reach 50,000 digits
        argv = [sys.executable, "-m", "k3degen.cli", "lattice", "A50", "--rescale", "1" + "0" * 1000]
        proc = subprocess.run(argv, capture_output=True, text=True, env=_src_env(), timeout=20)
        limit = sys.get_int_max_str_digits()
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == f"error: result field det has an integer of more than {limit} digits, too long to print\n"


class TestFixturesCommand:
    def test_bundled_corpus_passes(self, capsys):
        code, out, _ = invoke(capsys, ["fixtures"])
        assert code == 0
        result = json.loads(out)["result"]
        assert result["failed"] == 0 and result["total"] >= 12

    def test_empty_directory(self, capsys, tmp_path):
        (tmp_path / "notes.txt").write_text("{}")
        code, out, err = invoke(capsys, ["fixtures", "--dir", str(tmp_path)])
        assert (code, out, err) == (1, "", f"error: no *.json fixtures in {tmp_path}\n")

    def test_empty_dir_is_not_the_working_directory(self, capsys, tmp_path, monkeypatch):
        shutil.copy(corpus.default_corpus_dir() / "grw_table.json", tmp_path)
        monkeypatch.chdir(tmp_path)
        code, out, err = invoke(capsys, ["fixtures", "--dir", ""])
        assert (code, out, err) == (1, "", "error: fixture directory not found: ''\n")

    def test_corrupted_fixture_isolated(self, capsys, tmp_path):
        for path in sorted(corpus.default_corpus_dir().glob("*.json")):
            shutil.copy(path, tmp_path / path.name)
        (tmp_path / "zz_corrupt.json").write_text("{broken")
        code, out, _ = invoke(capsys, ["fixtures", "--dir", str(tmp_path)])
        assert code == 2
        result = json.loads(out)["result"]
        assert result["failed"] == 1
        failing = [f for f in result["fixtures"] if not f["passed"]]
        assert failing == [result["fixtures"][-1]]

    def test_dir_selects_the_corpus(self, capsys, tmp_path):
        shutil.copy(corpus.default_corpus_dir() / "grw_table.json", tmp_path)
        code, out, _ = invoke(capsys, ["fixtures", "--dir", str(tmp_path)])
        assert code == 0 and json.loads(out)["result"]["fixtures"] == [
            {"name": "grw_table", "passed": True, "detail": "3 rows match"}
        ]

    def test_missing_directory_is_bad_input(self, capsys, tmp_path):
        assert invoke(capsys, ["fixtures", "--dir", str(tmp_path / "nope")])[0] == 1


def valid_argv(tmp_path, name):
    """One argv that the subcommand answers, with its payload written under tmp_path."""
    return {
        "classify-fiber": ["classify-fiber", payload_file(tmp_path, "tetra.json", TETRA_SURFACE)],
        "allowed-types": ["allowed-types", "--m", "3"],
        "charpoly": ["charpoly", "--m", "42", "--t-rank", "12"],
        "orders": ["orders", "--phi-bound", "30"],
        "ss-check": ["ss-check", "--m", "5", "--p", "7"],
        "orient": ["orient", str(GOLDEN / "tetrahedron_orient.json")],
        "euler": ["euler", payload_file(tmp_path, "fibers.json", {"fibers": {"II": 1, "I1": 22}})],
        "lattice": ["lattice", "U", "E8"],
        "fixtures": ["fixtures"],
    }[name]


def argparse_only(argv):
    """argv respelled so that the plain reader declines it and argparse reads it: the first
    option as --option=value, else -- before the positionals, else the bundled --dir."""
    if len(argv) > 2 and argv[1].startswith("--"):
        return [argv[0], f"{argv[1]}={argv[2]}", *argv[3:]]
    if len(argv) > 1:
        return [argv[0], "--", *argv[1:]]
    return [*argv, f"--dir={corpus.default_corpus_dir()}"]


class TestHandlers:
    """A handler computes and returns; run alone prints the report and maps exceptions to exit codes."""

    @pytest.mark.parametrize("name", sorted(cli._COMMANDS))
    def test_handler_returns_the_report_and_prints_nothing(self, capsys, tmp_path, name):
        argv = valid_argv(tmp_path, name)
        args = cli._command_parser(name).parse_args(argv[1:])
        returned = args.func(args)
        assert capsys.readouterr() == ("", "")
        assert type(returned) is tuple and len(returned) == 4
        _, result, summary, exit_code = returned
        code, out, err = invoke(capsys, argv)
        assert code == exit_code and err == summary + "\n"
        report = json.loads(out)
        assert report["command"] == name and report["result"] == json.loads(json.dumps(result))

    @pytest.mark.parametrize("name", sorted(cli._COMMANDS))
    def test_a_fault_in_a_handler_is_not_bad_input(self, tmp_path, name):
        # only the input errors run maps exit 1; any other exception is a fault and propagates,
        # whether the plain reader or argparse read the argv
        def faulty(args):
            raise TypeError("a fault in the handler")

        plain = valid_argv(tmp_path, name)
        spelled = argparse_only(plain)
        assert cli._read_plain(name, plain[1:]) is not None and cli._read_plain(name, spelled[1:]) is None
        entry = cli._COMMANDS[name]
        cli._COMMANDS[name] = (entry[0], faulty, entry[2])
        try:
            for readers in (cli._plain_table, cli._command_parser):
                readers.cache_clear()
            for argv in (plain, spelled):
                with pytest.raises(TypeError, match="a fault in the handler"):
                    run(argv)
        finally:
            cli._COMMANDS[name] = entry
            for readers in (cli._plain_table, cli._command_parser):
                readers.cache_clear()


class TestColdStart:
    def test_package_import_loads_no_module(self):
        # the package exports only __version__ and Refusal: each other name is imported from its module
        script = "import json, sys\nimport k3degen\nprint(json.dumps(sorted(n for n in sys.modules if 'k3degen' in n)))\n"
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=_src_env(), timeout=60
        )
        assert json.loads(proc.stdout) == ["k3degen"]

    def test_import_loads_no_dataclasses_or_fractions(self):
        # what importing the CLI adds to a fresh interpreter; fractions comes with the first lattice det or signature
        script = (
            "import gc, json, sys\n"
            "before = set(sys.modules)\n"
            "from k3degen.cli import run\n"
            "added = set(sys.modules) - before\n"
            "code = run(['lattice', 'K3'])\n"
            "cold = sorted(added & {'dataclasses', 'inspect', 'fractions', 'decimal'})\n"
            "print(json.dumps([cold, code, 'fractions' in sys.modules, gc.get_freeze_count()]), file=sys.stderr)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=_src_env(), timeout=60
        )
        result = json.loads(proc.stdout)["result"]
        assert (result["rank"], result["det"], result["signature"], result["even"]) == (22, -1, [3, 19, 0], True)
        # run never freezes the collector: only main, which exits after one command, does
        assert json.loads(proc.stderr.splitlines()[-1]) == [[], 0, True, 0]

    def test_import_without_site_loads_no_importlib_resources(self):
        # -S keeps site from preloading importlib.resources; -I ignores PYTHONPATH, so the child adds src itself;
        # -I also ignores PYTHONDONTWRITEBYTECODE, so -B keeps the child from writing bytecode into src
        script = (
            "import json, sys\n"
            f"sys.path.insert(0, {SRC!r})\n"
            "before = set(sys.modules)\n"
            "from k3degen.cli import run\n"
            "loaded = 'importlib.resources' in set(sys.modules) - before\n"
            "code = run(['fixtures'])\n"
            "print(json.dumps([loaded, code]), file=sys.stderr)\n"
        )
        proc = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", script], capture_output=True, text=True, timeout=60)
        result = json.loads(proc.stdout)["result"]
        assert (result["passed"], result["total"]) == (12, 12)
        assert json.loads(proc.stderr.splitlines()[-1]) == [False, 0]

    @pytest.mark.parametrize("argv, error, unloaded", [
        (["orders", "--max-t", "20"], None, ["argparse", "gettext", "json", "re"]),
        (["lattice", "K3"], None, ["argparse", "gettext", "json"]),  # its first det runs fractions, which imports re
        # a height that is no integer is the handler's input error, not argparse's
        (["allowed-types", "--height", "abc"], "error: height must be an integer in 1..10 or infinite, got 'abc'",
         ["argparse", "gettext", "json", "re"]),
    ], ids=["orders", "lattice", "bad-height"])
    def test_a_plain_argv_imports_no_argparse_or_json(self, argv, error, unloaded):
        # as above, -I -S -B: without site nothing preloads re; the child imports no json to report
        script = (
            "import sys\n"
            f"sys.path.insert(0, {SRC!r})\n"
            "from k3degen.cli import run\n"
            "code = run(sys.argv[1:])\n"
            f"print(code, *sorted(set({unloaded!r}) & set(sys.modules)), file=sys.stderr)\n"
        )
        proc = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", script, *argv], capture_output=True, text=True, timeout=60)
        if error is None:
            assert json.loads(proc.stdout)["command"] == argv[0]
            assert proc.stderr.splitlines()[-1] == "0"
        else:
            assert (proc.stdout, proc.stderr.splitlines()[-2:]) == ("", [error, "1"])

    _ORDERS_USAGE = "usage: k3degen orders [-h] [--max-t MAX_T] [--phi-bound PHI_BOUND]\n"

    @pytest.mark.parametrize("argv, code, out, err", [
        (["orders", "-h"], 0, _ORDERS_USAGE + (
            "\noptions:\n"
            "  -h, --help            show this help message and exit\n"
            "  --max-t MAX_T         totient bound for prime powers\n"
            "  --phi-bound PHI_BOUND\n"
            "                        totient bound for all orders\n"
        ), ""),
        (["orders", "--max-t", "x"], 1, "", _ORDERS_USAGE + "error: argument --max-t: invalid int value: 'x'\n"),
    ], ids=["help", "error"])
    def test_help_and_errors_import_argparse_on_first_use(self, argv, code, out, err):
        script = f"import sys\nsys.path.insert(0, {SRC!r})\nfrom k3degen.cli import run\nsys.exit(run(sys.argv[1:]))\n"
        proc = subprocess.run(
            [sys.executable, "-I", "-S", "-B", "-c", script, *argv],
            capture_output=True, text=True, env={**os.environ, "COLUMNS": "80"}, timeout=60,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)

    def test_a_subcommand_builds_only_its_own_parser(self):
        # in process the tests have long built the whole tree; a fresh interpreter has not
        script = (
            "import json, sys\n"
            "from k3degen import cli\n"
            "code = cli.run(['orders', '--phi-bound', '3'])\n"
            "built = [cli.build_parser.cache_info().currsize, cli._command_parser.cache_info().currsize]\n"
            "cli.run(['orders', '--phi-bound=3'])\n"
            "built.append(cli._command_parser.cache_info().currsize)\n"
            "print(json.dumps([code, *built]), file=sys.stderr)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=_src_env(), timeout=60
        )
        assert json.JSONDecoder().raw_decode(proc.stdout)[0]["result"] == {"max": 6, "orders": [1, 2, 3, 4, 6]}
        # a plain argv builds no parser; one that only argparse reads builds that command's alone
        assert json.loads(proc.stderr.splitlines()[-1]) == [0, 0, 0, 1]

    def test_a_command_runs_only_the_modules_it_uses(self, tmp_path):
        # a module that has not run is still LazyLoader's subclass of ModuleType; reading
        # any attribute of it would run it, so the child looks only at its type
        script = (
            "import json, sys, types\n"
            "import k3degen.cli\n"
            "registered = sorted(n for n in sys.modules if n.startswith('k3degen.'))\n"
            "code = k3degen.cli.run(sys.argv[1:])\n"
            "ran = sorted(n for n, m in list(sys.modules.items()) if n.startswith('k3degen.') and type(m) is types.ModuleType)\n"
            "print(json.dumps([code, registered, ran]), file=sys.stderr)\n"
        )
        fibers = tmp_path / "fibers.json"
        fibers.write_text(json.dumps({"fibers": ["I1"] * 24}))
        quartic = payload_file(tmp_path, "quartic.json", json.loads(QUARTIC.read_text())["surface"])
        # a bad input or a refusal runs no module beyond those the command has read by then
        not_kulikov = payload_file(tmp_path, "b1.json", {"components": [{"id": "X", "b1": 1}], "double_curves": []})
        no_triangles = payload_file(tmp_path, "flat.json", {"vertices": ["a", "b", "c"], "edges": [], "triangles": []})
        arithmetic = ["_record", "autorders", "cli", "cyclotomic"]
        fiber = ["cli", "degeneration", "dualcomplex", "sncfiber"]
        commands = [
            (["orders", "--max-t", "20"], 0, arithmetic),
            (["orders", "--phi-bound", "4"], 0, ["_record", "cli", "cyclotomic"]),
            (["charpoly", "--m", "3", "--t-rank", "2"], 0, arithmetic),
            (["ss-check", "--m", "5", "--p", "2"], 0, arithmetic),
            # the plain reader reads --field's choices from degeneration, which the handler runs anyway
            (["allowed-types", "--m", "4", "--field", "rational", "--height", "2", "--char", "3"], 0, arithmetic + ["degeneration"]),
            (["allowed-types", "--field", "rational"], 0, ["cli", "degeneration"]),
            (["euler", str(fibers)], 0, ["cli", "elliptic"]),
            (["euler", str(fibers), "--characteristic", "5"], 0, arithmetic + ["elliptic"]),
            (["lattice", "K3", "A2"], 0, ["_linalg", "_record", "cli", "lattice"]),
            (["classify-fiber", quartic], 0, ["_linalg", *fiber]),  # _linalg for the crosscheck's h2
            (["classify-fiber", not_kulikov], 2, fiber),
            (["orient", no_triangles], 1, ["cli", "dualcomplex"]),
        ]
        _workloads()  # puts bench/ on sys.path
        import spans

        for argv, expected, modules in commands:
            proc = subprocess.run(
                [sys.executable, "-c", script, *argv], capture_output=True, text=True, env=_src_env(), timeout=60
            )
            code, registered, ran = json.loads(proc.stderr.splitlines()[-1])
            assert code == expected, argv
            # the benchmark's tracer looks each module up in sys.modules
            assert {f"k3degen.{m}" for m in spans.MODULES} <= set(registered)
            assert ran == sorted(f"k3degen.{m}" for m in modules), argv

    @pytest.mark.parametrize("first", ["degeneration", "sncfiber"])
    def test_a_module_imported_before_the_cli_is_kept(self, first):
        # the CLI takes a module already imported as it is: one object per module, one KulikovType
        script = (
            "import enum, json, sys\n"
            f"import k3degen.{first}\n"
            f"before = sys.modules['k3degen.{first}']\n"
            "from k3degen import cli, degeneration, sncfiber\n"
            "package = sys.modules['k3degen']\n"
            "modules = {n: m for n, m in sys.modules.items() if n.startswith('k3degen.')}\n"
            "kept = sorted(n for n, m in modules.items() if getattr(package, n[8:]) is m and vars(cli).get(n[8:], m) is m)\n"
            "kinds = [c for c in enum.Enum.__subclasses__() if c.__name__ == 'KulikovType']\n"
            f"same = before is sys.modules['k3degen.{first}'] and sncfiber.KulikovType is degeneration.KulikovType\n"
            "print(json.dumps([len(modules), kept == sorted(modules), len(kinds), same]), file=sys.stderr)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=_src_env(), timeout=60
        )
        assert json.loads(proc.stderr.splitlines()[-1]) == [11, True, 1, True]


# every option of every subcommand, abbreviations, help, the separator and junk
_TOKENS = st.sampled_from([
    "--m", "--p", "--t-rank", "--setting", "--field", "--height", "--char", "--max-t", "--phi-bound",
    "--characteristic", "--rescale", "--dir", "--ph", "--he", "--ma", "--m=3", "--t", "-h", "--help", "--", "-",
    "-x", "--bogus", "U", "A3", "char0", "liftable", "rational", "infinite", "7", "-7", "1_0", "", "x.json",
]) | st.text(max_size=4)


@st.composite
def dispatch_argv(draw):
    return [draw(st.sampled_from(sorted(cli._COMMANDS))), *draw(st.lists(_TOKENS, max_size=7))]


def _parse(parser, argv):
    """The parsed namespace as a dict, or the exit code the parser raised."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit as exc:
            return exc.code


_WORDS = st.sampled_from(["U", "E8", "A3", "a(2)", "x.json", "char0", "rational", "7", "a b", "A3 "])


@st.composite
def plain_argv(draw):
    """An argv as one subcommand's table entry declares it: each option at most once (a
    required one always) with a value of its choices or an integer, the positionals in one
    run among the options. Some values are negative, so the reader declines them."""
    name = draw(st.sampled_from(sorted(cli._COMMANDS)))
    pairs, words = [], []
    for flags, options in cli._COMMANDS[name][2]:
        if not flags[0].startswith("-"):
            words = draw(st.lists(_WORDS, min_size=1, max_size=3 if options.get("nargs") == "+" else 1))
        elif options.get("required") or draw(st.booleans()):
            if "choices" in options:
                values = st.sampled_from(options["choices"])
            else:
                values = st.integers(-3, 10**6).map(str) if options.get("type") else _WORDS
            pairs.append([flags[0], draw(values)])
    pairs = draw(st.permutations(pairs))
    at = draw(st.integers(0, len(pairs)))
    return [name, *(t for pair in pairs[:at] for t in pair), *words, *(t for pair in pairs[at:] for t in pair)]


class TestPlainReader:
    """run reads a plain argv without argparse; whatever it reads, argparse reads the same way."""

    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(dispatch_argv() | plain_argv())
    @example(["lattice", "U", "--rescale", "2", "A3"])
    @example(["lattice", "--rescale", "2", "U", "A3"])
    @example(["euler", "--characteristic", "5", "x.json"])
    @example(["charpoly", "--t-rank", "3", "--setting", "liftable", "--p", "5", "--m", "2"])
    def test_reader_agrees_with_argparse(self, argv):
        read = cli._read_plain(argv[0], argv[1:])
        if read is not None:
            assert vars(read) == _parse(cli._command_parser(argv[0]), argv[1:])

    @pytest.mark.parametrize("argv", [
        ["orders", "--ph", "3"],
        ["orders", "--phi-bound=3"],
        ["orders", "-h"],
        ["lattice", "--", "U"],
        ["orders", "--phi-bound", "3", "--phi-bound", "3"],
        ["ss-check", "--m", "5"],
        ["ss-check", "--m", "5", "--p", "1_0"],
        ["charpoly", "--m", "1", "--t-rank", "2", "--setting", "char1"],
        ["lattice", "U", "--rescale", "-1"],
        ["lattice", "U", "--rescale", "2", "A3"],
        ["euler", "x.json", "y.json"],
        ["euler"],
        ["fixtures", "x"],
        ["fixtures", "--dir", ""],
        ["classify-fiber", "-"],
    ], ids=" ".join)
    def test_anything_else_is_left_to_argparse(self, argv):
        assert cli._read_plain(argv[0], argv[1:]) is None

    def test_reader_reads_every_benchmark_argv(self):
        workloads = _workloads()
        for name in workloads.WORKLOADS:
            for seed in SEEDS:
                for op in workloads.build(name, seed, quick=False):
                    argv = ["payload.json" if a == workloads.PAYLOAD else a for a in op.argv]
                    read = cli._read_plain(argv[0], argv[1:])
                    assert read is not None, argv
                    assert vars(read) == _parse(cli._command_parser(argv[0]), argv[1:])


class TestRepeatedOptions:
    @pytest.mark.parametrize("argv, option", [
        (["orders", "--phi-bound", "-883", "--phi-bound", "1"], "--phi-bound"),
        (["allowed-types", "--m", "3", "--m", "4", "--char", "2"], "--m"),
        (["orders", "--ph", "3", "--phi-bound=3"], "--phi-bound"),
        (["charpoly", "--m", "1", "--t-rank", "2", "--setting", "char0", "--setting", "char0"], "--setting"),
    ])
    def test_second_value_is_bad_input(self, capsys, argv, option):
        code, out, err = invoke(capsys, argv)
        assert (code, out) == (1, "")
        assert err.startswith(f"usage: k3degen {argv[0]} ")
        assert err.endswith(f"error: argument {option}: given more than once\n")

    def test_every_option_is_taken_once(self, capsys):
        for name, (_, _, arguments) in cli._COMMANDS.items():
            for flags, options in arguments:
                if flags[0].startswith("-"):
                    value = next(iter(options.get("choices", ["1"])))
                    code, out, err = invoke(capsys, [name, flags[0], value, flags[0], value])
                    assert (code, out) == (1, "")
                    assert err.endswith(f"error: argument {flags[0]}: given more than once\n")

    def test_namespace_holds_only_the_arguments(self):
        args = cli._command_parser("orders").parse_args(["--phi-bound", "3"])
        assert vars(args) == {"max_t": None, "phi_bound": 3, "func": cli._cmd_orders}
        args = build_parser().parse_args(["orders", "--phi-bound", "3"])
        assert vars(args) == {"subcommand": "orders", "max_t": None, "phi_bound": 3, "func": cli._cmd_orders}


class TestDispatch:
    def test_help_lists_the_exit_codes_of_the_readme(self, capsys):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        codes = re.search(r"Exit codes: .*? fails\.", readme, re.S).group(0).replace("`", "")
        assert run(["-h"]) == 0
        assert " ".join(codes.split()) in " ".join(capsys.readouterr().out.split())

    def test_unknown_subcommand(self, capsys):
        assert invoke(capsys, ["no-such-command"])[0] == 1

    def test_no_arguments(self, capsys):
        assert invoke(capsys, [])[0] == 1

    def test_unrecognized_arguments_show_the_subcommand_usage(self, capsys):
        code, out, err = invoke(capsys, ["ss-check", "--m", "5", "--p", "7", "--t-rank", "3"])
        assert (code, out) == (1, "")
        assert err == "usage: k3degen ss-check [-h] --m M --p P\nerror: unrecognized arguments: --t-rank 3\n"

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(dispatch_argv())
    @example(["lattice", "--", "U"])
    @example(["orders", "--ph", "3"])
    @example(["allowed-types", "--he", "2"])
    @example(["fixtures", "-h"])
    @example(["orders", "--phi-bound", "1", "--ph", "2"])
    def test_subcommand_parser_agrees_with_the_tree(self, argv):
        whole = _parse(build_parser(), argv)
        if type(whole) is dict:
            del whole["subcommand"]
        assert _parse(cli._command_parser(argv[0]), argv[1:]) == whole


# Report keys are always str: ids and numbers travel as values, never as keys.
_TEXT = st.text(st.sampled_from('[]{}",:\\\n\t\x00\x7f \u00e9\u2028\U0001f600az09'), max_size=6) | st.text(max_size=4)
_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.integers(2**64 - 2, 2**200) | st.integers(-(2**200), -(2**64))
    | st.floats(allow_nan=False, allow_infinity=False) | _TEXT
)
_TREES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.tuples(inner, inner) | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=40,
)


@st.composite
def json_trees(draw):
    """A JSON tree, wrapped in up to 20 further levels of lists, tuples and dicts."""
    tree = draw(_TREES)
    for _ in range(draw(st.integers(0, 20))):
        key = draw(_TEXT)
        tree = draw(st.sampled_from(([tree], [[], tree, {}], (tree,), {key: tree}, {key: tree, key + "~": {}})))
    return tree


class TestPretty:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(json_trees())
    @example({})
    @example([[], {}, [[]], {"": {}}])
    @example({"b": [1, {"c": []}], "a": ("x", None, True, 2**70)})
    @example([[[[[[[[[[[[[[[[[[[[1]]]]]]]]]]]]]]]]]]]])
    def test_matches_json_dumps(self, tree):
        assert _pretty(tree) == json.dumps(tree, indent=2, sort_keys=True)


# ids of every JSON kind the readers accept: ints past +-2**64 and text with quotes, backslashes,
# control characters and non-ASCII
_IDS = st.integers() | st.integers(2**64, 2**200) | st.integers(-(2**200), -(2**64)) | _TEXT


@st.composite
def fiber_payloads(draw):
    """(payload, triangles): a classify-fiber payload with awkward ids, and each triangle's
    vertices in the order the fiber must derive them. The strata come from a generated
    complex, keeping the triangles with three distinct vertices and the edges that are
    not loops, or from a chain or cycle of components with no triple points."""
    shape = draw(st.sampled_from(("complex", "complex", "complex", "chain", "cycle")))
    if shape == "complex":
        vertices, edges, triangles = draw(generated_complexes())
        edges = {e: ends for e, ends in edges.items() if ends[0] != ends[1]}
        triangles = {t: (verts, es) for t, (verts, es, _) in triangles.items() if len(set(verts)) == 3}
    else:
        vertices = list(range(draw(st.integers(0 if shape == "chain" else 3, 6))))
        joins = len(vertices) - (shape == "chain") if vertices else 0
        edges = {k: (k, (k + 1) % len(vertices)) for k in range(joins)}
        triangles = {}

    def relabel(cells):
        return dict(zip(cells, draw(st.lists(_IDS, min_size=len(cells), max_size=len(cells), unique=True))))

    name, curve_name = relabel(vertices), relabel(edges)
    points = []
    for verts, es in triangles.values():
        point = {"curves": [curve_name[e] for e in es]}
        if draw(st.booleans()):  # an absent id defaults to t<i>
            point = {"id": draw(_IDS), **point}
        points.append(point)
    ids = [p.get("id", f"t{i}") for i, p in enumerate(points)]
    assume(len(set(ids)) == len(ids))
    optional = lambda key, values: {key: draw(st.sampled_from(values))} if draw(st.booleans()) else {}
    payload = {
        "components": [
            {"id": name[v], "b1": draw(st.sampled_from((0, 0, 2, 1))), **optional("b2", (0, 7, 22, 10**30)),
             **optional("kind", KINDS)}
            for v in vertices
        ],
        "double_curves": [
            {"id": curve_name[e], "components": [name[a], name[b]], "genus": draw(st.sampled_from((0, 1, 3)))}
            for e, (a, b) in edges.items()
        ],
        **({"triple_points": points} if points or draw(st.booleans()) else {}),
    }
    return payload, [tuple(name[v] for v in verts) for verts, _ in triangles.values()]


class TestFiberPaths:
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(fiber_payloads())
    def test_echo_and_dual_complex_match_the_reference_paths(self, tmp_path_factory, drawn):
        payload, triangle_vertices = drawn
        path = tmp_path_factory.getbasetemp() / "fiber.json"
        path.write_text(json.dumps(payload))
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run(["classify-fiber", str(path)])
        assert code in (0, 2)
        report = json.loads(out.getvalue())
        surface = SNCSurface.from_json_dict(payload)
        assert report["input"] == oracles.surface_json(surface)
        assert out.getvalue() == json.dumps(report, indent=2, sort_keys=True) + "\n"

        fast = surface.dual_complex()
        points = payload.get("triple_points", [])
        checked = DeltaComplex(
            [c["id"] for c in payload["components"]],
            {d["id"]: d["components"] for d in payload["double_curves"]},
            {p.get("id", f"t{i}"): (verts, p["curves"]) for i, (p, verts) in enumerate(zip(points, triangle_vertices))},
        )
        for attr in ("vertices", "_eids", "_ends", "_tids", "_tedges", "_signs", "_sides"):
            assert getattr(fast, attr) == getattr(checked, attr), attr
        for attr in ("edges", "triangles", "triangle_signs"):  # the same entries in the same order
            assert list(getattr(fast, attr).items()) == list(getattr(checked, attr).items()), attr


def _kulikov_leaning(payload, every_b2):
    """payload with each b1 and genus as the Kulikov pattern its strata could fit asks, and no kinds:
    with triple points Type III's, else Type I's or a Type II chain's (b1 = 2 on a component two
    curves meet); with every_b2, a missing b2 is 22. The strata stay as drawn, so many fibers still
    match no pattern."""
    points = bool(payload.get("triple_points"))
    meets = Counter(x for curve in payload["double_curves"] for x in curve["components"])
    components = []
    for c in payload["components"]:
        component = {key: value for key, value in c.items() if key != "kind"}
        component["b1"] = 0 if points or meets[c["id"]] < 2 else 2
        if every_b2:
            component.setdefault("b2", 22)
        components.append(component)
    curves = [{**curve, "genus": 0 if points else 1} for curve in payload["double_curves"]]
    return {**payload, "components": components, "double_curves": curves}


class TestClassifiedTemplate:
    """_emit prints an accepted classify-fiber result from _classified's template, not _pretty."""

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(fiber_payloads(), st.data())
    def test_template_matches_pretty(self, tmp_path_factory, drawn, data):
        path = tmp_path_factory.getbasetemp() / "fiber.json"
        path.write_text(json.dumps(_kulikov_leaning(drawn[0], data.draw(st.booleans()))))
        _, result, _, code = cli._cmd_classify_fiber(types.SimpleNamespace(payload=str(path)))
        assume(code == 0)
        # the checks' strings and flags as any text and bool, so the template does not rely on today's ASCII details
        check = result["crosscheck"]
        awkward = [{"detail": data.draw(_TEXT), "name": data.draw(_TEXT), "passed": data.draw(st.booleans())}
                   for _ in check["checks"]]
        awkward = {**result, "crosscheck": {**check, "checks": awkward, "all_passed": data.draw(st.booleans())}}
        # with and without e1, which is printed only when every b2 is given
        for shown in (result, awkward):
            assert cli._classified(shown) == _pretty(shown, 1)
            without_e1 = {key: value for key, value in shown.items() if key != "e1"}
            assert cli._classified(without_e1) == _pretty(without_e1, 1)


class TestPachnerFibers:
    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(st.randoms(use_true_random=False), st.integers(0, 60))
    def test_random_sphere_fiber_is_type_three(self, tmp_path_factory, rng, moves):
        c = oracles.pachner_sphere(rng, moves)
        payload = {
            "components": [{"id": f"v{v}", "b1": 0, "b2": 1} for v in c.vertices],
            "double_curves": [
                {"id": e, "components": [f"v{a}", f"v{b}"], "genus": 0} for e, (a, b) in c.edges.items()
            ],
            "triple_points": [{"id": t, "curves": list(es)} for t, (_, es) in c.triangles.items()],
        }
        path = tmp_path_factory.getbasetemp() / "sphere.json"
        path.write_text(json.dumps(payload))
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            assert run(["classify-fiber", str(path)]) == 0
        result = json.loads(out.getvalue())["result"]
        assert result["type"] == "III" and result["crosscheck"]["all_passed"]


# argv values: huge, negative and zero ints, the caps and their neighbours, and junk text
_ARG_VALUES = (
    st.integers().map(str)
    | st.integers(-(10**40), 10**40).map(str)
    | st.sampled_from([0, 1, 2, 10**5, 10**5 + 1, 10**30 + 1, 3317044064679887385961981]).map(str)
    | st.sampled_from(["inf", "infinite", "1e5", "0x10", " 7 ", "1_000", "-1", "-", "", "--m", ".", "/", "\x00"])
    | st.sampled_from(list(FIELD_CLASSES) + ["char0", "finite-field", "finite-height", "liftable"])
    | st.text(max_size=8)
)
# lattice names: every named lattice and A<n> in each spelling, with small n (the caps are examples)
_LATTICE_NAMES = (
    st.sampled_from(["U", "E8", "K3", "u", " e8", "A", "A()", "A(", "A-1", "Z9"])
    | st.builds("A{}".format, st.integers(-2, 30))
    | st.builds("a({})".format, st.integers(-2, 30))
    | st.text(max_size=5)
)
_MISSING = str(Path(__file__).resolve().parent / "no-such-directory")
_MISSING_PATHS = st.text(max_size=8).map(lambda name: [f"{_MISSING}/{name}"])
# subcommand -> (its positional arguments, its options); EULER_PAYLOAD marks a valid fiber multiset
EULER_PAYLOAD = "<euler payload>"
_FUZZED = {
    "allowed-types": (st.just([]), ("--m", "--field", "--height", "--char")),
    "orders": (st.just([]), ("--max-t", "--phi-bound")),
    "charpoly": (st.just([]), ("--m", "--setting", "--p", "--t-rank")),
    "ss-check": (st.just([]), ("--m", "--p")),
    "lattice": (st.lists(_LATTICE_NAMES, min_size=1, max_size=4), ("--rescale",)),
    "euler": (st.just([EULER_PAYLOAD]), ("--characteristic",)),
    "fixtures": (st.just([]), ("--dir",)),
    "classify-fiber": (_MISSING_PATHS, ()),
    "orient": (_MISSING_PATHS, ()),
}


@st.composite
def fuzzed_argv(draw):
    command = draw(st.sampled_from(sorted(_FUZZED)))
    positionals, options = _FUZZED[command]
    argv = [command, *draw(positionals)]
    for option in draw(st.lists(st.sampled_from(options), max_size=4)) if options else ():
        argv += [option, draw(_ARG_VALUES)]
    return argv


class TestFuzzedArgv:
    """Every argv gets an answer or a rejection, with no traceback, in bounded time."""

    def test_every_subcommand_is_fuzzed(self):
        assert set(_FUZZED) == set(cli._COMMANDS)

    @settings(derandomize=True, deadline=None, max_examples=900)
    @given(fuzzed_argv())
    @example(["orders", "--max-t", "100000"])
    @example(["orders", "--phi-bound", "100000"])
    @example(["allowed-types", "--m", str(10**30 + 1), "--height", "infinite"])
    @example(["allowed-types", "--m", "4", "--char", "3317044064679887385961981"])
    @example(["lattice", "A200"])
    @example(["lattice", "U", "A198", "--rescale", "-1"])
    @example(["lattice", "A(201)"])
    @example(["lattice", "U", "A199"])
    @example(["charpoly", "--m", "2", "--setting", "finite-height", "--p", "3", "--t-rank", "21"])
    @example(["charpoly", "--m", "1", "--setting", "liftable", "--p", "3317044064679887385961979", "--t-rank", "21"])
    @example(["ss-check", "--m", str(10**40), "--p", "3317044064679887385961979"])
    @example(["euler", EULER_PAYLOAD, "--characteristic", "3317044064679887385961981"])
    @example(["fixtures", "--dir", ""])
    def test_answer_or_reject(self, tmp_path_factory, argv):
        payload = tmp_path_factory.getbasetemp() / "fuzzed_euler.json"
        if not payload.exists():
            payload.write_text(json.dumps({"fibers": {"II": 1, "I1": 22}}))
        argv = [str(payload) if a == EULER_PAYLOAD else a for a in argv]
        err = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run(argv)
        assert time.perf_counter() - start < 2, argv
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
