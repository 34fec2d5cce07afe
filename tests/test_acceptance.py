"""Acceptance suite: every criterion is an exact, tolerance-zero integer
check and prints one PASS line when it holds. Run with `pytest -s` to see
the lines, or plain `pytest` to just gate on them.
"""

import itertools
import random

from k3degen.autorders import nygaard_sigma0, wild_prime_powers
from k3degen.cyclotomic import (
    CycloFactorization,
    bounded_orders,
    cyclotomic_poly,
    euler_phi,
    factor_into_cyclotomics,
)
from k3degen.degeneration import KulikovType, allowed_m_from_type, allowed_types_from_m, grw_dims, moduli_dim
from k3degen.dualcomplex import orientation_action, sphere_failure
from k3degen.elliptic import FiberConfiguration
from k3degen.lattice import direct_sum, hyperbolic_plane, k3_lattice, rescale, root_lattice_a
from k3degen.sncfiber import classify

import oracles


def report(number, text):
    print(f"ACCEPTANCE {number:2d} PASS: {text}")


def test_criterion_01_grw_table():
    expected = {
        KulikovType.I: (0, 0, 22, 0, 0),
        KulikovType.II: (0, 2, 18, 2, 0),
        KulikovType.III: (1, 0, 20, 0, 1),
    }
    for t, dims in expected.items():
        got = grw_dims(t)
        assert got == dims
        assert sum(got) == 22
        assert all(got[n] == got[4 - n] for n in range(5))
    report(1, "weight-graded dimension table reproduced with duality and total 22")


def test_criterion_02_tetrahedron_fixture():
    comps = [{"id": i, "b1": 0} for i in range(4)]
    curves = [{"id": f"{i}{j}", "components": [i, j], "genus": 0} for i, j in itertools.combinations(range(4), 2)]
    points = [
        {"id": f"{a}{b}{c}", "curves": [f"{a}{b}", f"{b}{c}", f"{a}{c}"]}
        for a, b, c in itertools.combinations(range(4), 3)
    ]
    surface = oracles.fiber(comps, curves, points)
    assert classify(surface) is KulikovType.III

    complex_ = surface.dual_complex()
    assert sphere_failure(complex_) is None
    matches = 0
    for perm in itertools.permutations(range(4)):
        g = oracles.vertex_automorphism(complex_, dict(zip(range(4), perm)))
        assert orientation_action(complex_, g) == oracles.perm_sign(perm)
        matches += 1
    assert matches == 24
    report(2, "tetrahedron classifies as Type III; orientation action = sign on 24/24 of S4")


def test_criterion_03_decision_engine_truth_table():
    checked = 0
    for m in range(1, 67):
        if euler_phi(m) > 20:
            continue
        expected = (
            {KulikovType.I, KulikovType.II, KulikovType.III}
            if m in (1, 2)
            else {KulikovType.I, KulikovType.II}
            if m in (3, 4, 6)
            else {KulikovType.I}
        )
        assert allowed_types_from_m(m) == expected
        for t in KulikovType:
            assert (t in allowed_types_from_m(m)) == (m in allowed_m_from_type(t))
        checked += 1
    assert checked == 41  # every order with phi(m) <= 20
    report(3, f"order constraint matches the statement and adjointness on all {checked} orders")


def test_criterion_04_charpoly_table():
    rows = [
        {1: 10, 42: 1},
        {1: 10, 28: 1},
        {1: 2, 66: 1},
        {1: 2, 5: 1, 40: 1},
        {1: 10, 42: 1},
        {1: 2, 11: 2},
    ]
    for factors in rows:
        f = CycloFactorization(factors)
        poly = f.expand()
        assert poly.degree() == 22
        assert poly.is_monic()
        assert all(isinstance(c, int) for c in poly.coefficients)
        assert factor_into_cyclotomics(poly) == f
        assert f.total_degree() == 22
    report(4, "all six characteristic polynomials are degree-22 monic and round-trip")


def test_criterion_05_wild_prime_powers():
    expected = sorted([2, 4, 8, 16, 32, 3, 9, 27, 5, 25, 7, 11, 13, 17, 19])
    got = wild_prime_powers(21)
    assert got == expected
    assert len(got) == 15
    report(5, "prime-power enumeration at bound 21 matches the published 15-element set")


def test_criterion_06_nygaard_exclusions():
    pairs = [(42, 2), (28, 2), (66, 3), (40, 5), (42, 7)]
    for m, p in pairs:
        got = nygaard_sigma0(m, p)
        assert got == []
        # independent big-integer verification of emptiness
        for sigma0 in range(1, 11):
            assert (p**sigma0 + 1) % m != 0
    report(6, f"supersingular reduction excluded for all {len(pairs)} order/characteristic pairs")


def test_criterion_07_cyclotomic_suite():
    for m in range(1, 101):
        product = (1,)
        for d in range(1, m + 1):
            if m % d == 0:
                product = oracles.poly_mul(product, cyclotomic_poly(d).coefficients)
        assert product == oracles.x_pow_minus_one(m)
        assert cyclotomic_poly(m).degree() == euler_phi(m)

    rng = random.Random(97)
    pool = bounded_orders(12)
    trips = 0
    while trips < 200:
        factors = {}
        degree = 0
        while degree < 40:
            m = rng.choice(pool)
            if degree + euler_phi(m) > 40:
                break
            factors[m] = factors.get(m, 0) + 1
            degree += euler_phi(m)
        if not factors:
            continue
        f = CycloFactorization(factors)
        assert factor_into_cyclotomics(f.expand()) == f
        trips += 1
    report(7, "divisor products match x^m - 1 for m <= 100; 200 factorization round-trips exact")


def test_criterion_08_euler_lattice_crosscheck():
    generic = FiberConfiguration.from_json({"II": 1, "I1": 22})
    special = FiberConfiguration.from_json({"II": 12})
    boundary = FiberConfiguration.from_json({"II": 1, "I1": 11, "I11": 1})
    for config in (generic, special, boundary):
        assert config.euler_sum() == 24

    u = hyperbolic_plane()
    u_a10 = direct_sum(u, root_lattice_a(10))
    assert generic.trivial_lattice_rank() == 2 == u.rank()
    assert boundary.trivial_lattice_rank() == 12 == u_a10.rank()
    assert u.det() == -1
    assert rescale(u, 11).det() == -121
    assert u_a10.det() == -11
    assert k3_lattice().signature() == (3, 19, 0)
    report(8, "fiber configurations sum to 24 and trivial lattice ranks match U and U+A10")


def test_criterion_09_moduli_dimensions():
    cases = [(5, 2, 4), (7, 4, 2), (11, 2, 1), (11, 12, 0)]
    for p, rank, dim in cases:
        assert moduli_dim(p, rank) == dim
    report(9, "moduli dimensions (5,7,11) -> (4,2,1) and the boundary point is 0-dimensional")


def test_criterion_10_homology_suite():
    rng = random.Random(4242)
    for _ in range(50):
        c = oracles.random_delta_complex(rng)
        h0, h1, h2 = c.homology_dims()
        v, e, f = c.counts()
        assert h0 - h1 + h2 == v - e + f

    for sphere in (oracles.tetrahedron(), oracles.octahedron()):
        assert sphere_failure(sphere) is None
        assert sphere.homology_dims() == (1, 0, 1)

    tetra = oracles.tetrahedron()
    tetra_autos = oracles.vertex_symmetries(tetra)
    assert len(tetra_autos) == 24
    tetra_actions = {id(g): orientation_action(tetra, g) for g in tetra_autos}
    for g, h in itertools.product(tetra_autos, repeat=2):
        assert orientation_action(tetra, oracles.compose(g, h)) == tetra_actions[id(g)] * tetra_actions[id(h)]

    octa = oracles.octahedron()
    octa_autos = oracles.vertex_symmetries(octa)
    assert len(octa_autos) == 48
    octa_actions = {id(g): orientation_action(octa, g) for g in octa_autos}
    for g, h in itertools.product(octa_autos, repeat=2):
        assert orientation_action(octa, oracles.compose(g, h)) == octa_actions[id(g)] * octa_actions[id(h)]

    report(10, "Euler identity on 50 random complexes; homomorphism law on 24^2 + 48^2 pairs")
