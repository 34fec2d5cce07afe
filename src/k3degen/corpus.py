"""Bundled fixture corpus: numeric content of the worked examples, replayed
against the library and reported fixture by fixture.

Each fixture is a JSON file with a "kind" field selecting a checker. A
fixture passes when every expectation in the file holds exactly; fixtures
are isolated, so one corrupt or failing file does not stop the others.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from . import autorders, degeneration, lattice
from ._record import Record
from .cyclotomic import CycloFactorization, bounded_orders, factor_into_cyclotomics
from .dualcomplex import ComplexAutomorphism, DeltaComplex, orientation_action
from .elliptic import FiberConfiguration
from .sncfiber import SNCSurface, crosscheck


class FixtureResult(Record):
    __slots__ = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str):
        self._set(name, passed, detail)


def default_corpus_dir() -> Path:
    from importlib import resources  # on first use: only fixtures needs it, and it loads tempfile, zipfile, typing
    return Path(str(resources.files("k3degen") / "fixtures"))


def _parse_factors(raw: dict) -> CycloFactorization:
    return CycloFactorization({int(m): int(mult) for m, mult in raw.items()})


def _check_grw_table(data):
    for name, expect in data["expect"].items():
        dims = degeneration.grw_dims(degeneration.KulikovType(name))
        if list(dims) != list(expect):
            return False, f"type {name}: got {list(dims)}, expected {expect}"
        if sum(dims) != 22 or any(dims[n] != dims[4 - n] for n in range(5)):
            return False, f"type {name}: table entry breaks duality or total"
    return True, f"{len(data['expect'])} rows match"


def _check_classify_fiber(data):
    t, report = crosscheck(SNCSurface.from_json_dict(data["surface"]))
    if str(t) != data["expect"]["type"]:
        return False, f"classified {t}, expected {data['expect']['type']}"
    dims = list(degeneration.grw_dims(t))
    if dims != data["expect"]["grw"]:
        return False, f"grw {dims}, expected {data['expect']['grw']}"
    if not report["all_passed"]:
        failed = [c["name"] for c in report["checks"] if not c["passed"]]
        return False, f"crosscheck failed: {failed}"
    return True, f"type {t}, grw {dims}, crosscheck passed"


def _check_charpoly_table(data):
    for row in data["rows"]:
        p, e, n = row["p"], row["e"], row["n"]
        label = f"p^e={p}^{e}, n={n}"
        factors = _parse_factors(row["factors"])
        if factors.total_degree() != 22:
            return False, f"{label}: total degree {factors.total_degree()} != 22"
        poly = factors.expand()
        if poly.degree() != 22 or not poly.is_monic():
            return False, f"{label}: expansion is not monic of degree 22"
        if factor_into_cyclotomics(poly) != factors:
            return False, f"{label}: factorization does not round-trip"
        order = p**e * n
        if autorders.order_decomposition(order, p) != (e, n):
            return False, f"{label}: order decomposition mismatch"
        if order not in factors.factors:
            return False, f"{label}: transcendental factor Phi_{order} missing"
        excluded = autorders.nygaard_sigma0(n, p) == []
        if excluded != row["reduction_excludes_supersingular"]:
            return False, f"{label}: supersingular exclusion is {excluded}"
    return True, f"{len(data['rows'])} rows verified"


def _check_wild_prime_powers(data):
    got = autorders.wild_prime_powers(data["max_t"])
    if got != sorted(data["expect"]):
        return False, f"got {got}, expected {sorted(data['expect'])}"
    return True, f"{len(got)} prime powers for bound {data['max_t']}"


def _check_bounded_orders(data):
    got = bounded_orders(data["bound"])
    if max(got) != data["expect_max"] or len(got) != data["expect_count"]:
        return False, f"got max {max(got)} count {len(got)}"
    return True, f"max order {max(got)}, {len(got)} orders"


def _check_moduli_dim(data):
    for case in data["cases"]:
        got = degeneration.moduli_dim(case["p"], case["rank"])
        if got != case["dim"]:
            return False, f"p={case['p']} rank={case['rank']}: got {got}, expected {case['dim']}"
    return True, f"{len(data['cases'])} dimensions match"


def _check_elliptic_configs(data):
    for case in data["cases"]:
        config = FiberConfiguration.from_json(case["fibers"])
        name = case.get("name", "?")
        if config.euler_sum() != case["expect_euler"]:
            return False, f"{name}: Euler sum {config.euler_sum()}, expected {case['expect_euler']}"
        if config.check_k3() != case["expect_k3"]:
            return False, f"{name}: is_k3 {config.check_k3()}"
        if "expect_rank" in case:
            rank = config.trivial_lattice_rank()
            if rank != case["expect_rank"]:
                return False, f"{name}: trivial lattice rank {rank}, expected {case['expect_rank']}"
            if "matches_lattice" in case:
                lat = lattice.standard_lattice(case["matches_lattice"])
                if "direct_sum_with" in case:
                    lat = lattice.direct_sum(
                        lat, *(lattice.standard_lattice(x) for x in case["direct_sum_with"])
                    )
                if lat.rank() != rank:
                    return False, f"{name}: lattice rank {lat.rank()} != trivial rank {rank}"
    return True, f"{len(data['cases'])} configurations verified"


def _check_allowed_types(data):
    for case in data["cases"]:
        got = degeneration.combine(m=case.get("m"), e=case.get("field"), h=case.get("height"))["allowed"]
        if got != sorted(case["expect"]):
            return False, f"case {case}: got {got}"
    return True, f"{len(data['cases'])} decisions match"


def _check_orientation_action(data):
    complex_ = DeltaComplex.from_json_dict(data["complex"])
    for case in data["cases"]:
        g = ComplexAutomorphism.from_json_dict(complex_, case["automorphism"])
        got = orientation_action(complex_, g)
        if got != case["expect"]:
            return False, f"{case.get('name', '?')}: action {got}, expected {case['expect']}"
    return True, f"{len(data['cases'])} actions match"


def _check_lattice_invariants(data):
    for case in data["cases"]:
        lat = lattice.direct_sum(*(lattice.standard_lattice(n) for n in case["names"]))
        if "rescale" in case:
            lat = lattice.rescale(lat, case["rescale"])
        name = "+".join(case["names"])
        for key, value in case["expect"].items():
            got = {
                "det": lat.det,
                "rank": lat.rank,
                "signature": lambda: list(lat.signature()),
                "even": lat.is_even,
            }[key]()
            if got != value:
                return False, f"{name}: {key} = {got}, expected {value}"
    return True, f"{len(data['cases'])} lattices verified"


_CHECKERS = {
    "grw_table": _check_grw_table,
    "classify_fiber": _check_classify_fiber,
    "charpoly_table": _check_charpoly_table,
    "wild_prime_powers": _check_wild_prime_powers,
    "bounded_orders": _check_bounded_orders,
    "moduli_dim": _check_moduli_dim,
    "elliptic_configs": _check_elliptic_configs,
    "allowed_types": _check_allowed_types,
    "orientation_action": _check_orientation_action,
    "lattice_invariants": _check_lattice_invariants,
}


def run_fixture(path: Path) -> FixtureResult:
    name = path.stem
    try:
        data = json.loads(path.read_text())
        kind = data["kind"]
        checker = _CHECKERS.get(kind)
        if checker is None:
            return FixtureResult(name, False, f"unknown fixture kind {kind!r}")
        passed, detail = checker(data)
        return FixtureResult(name, passed, detail)
    except Exception as exc:  # isolation: one bad fixture must not stop the rest
        return FixtureResult(name, False, f"{type(exc).__name__}: {exc}")


def run_corpus(directory) -> list[FixtureResult]:
    if not os.fspath(directory):  # Path("") would be the working directory
        raise ValueError("fixture directory not found: ''")
    directory = Path(directory)
    if not directory.is_dir():
        raise ValueError(f"fixture directory not found: {directory}")
    paths = sorted(directory.glob("*.json"))
    if not paths:
        raise ValueError(f"no *.json fixtures in {directory}")
    return [run_fixture(p) for p in paths]
