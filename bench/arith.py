"""Seeded arithmetic queries for the k3degen CLI, each with its own check.

Expected answers come from this file's own tools, never from the library:
a totient sieve, a deterministic Miller-Rabin test for drawing large primes,
Phi_n(2) from the Moebius product, and the theorem tables the decision
engine encodes. Nothing in this file imports k3degen.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

SIEVE_LIMIT = 2 * 200 * 200  # bounded_orders(B) searches m <= 2 B^2


@dataclass
class Op:
    """One CLI invocation: argv (PAYLOAD marks the payload file), an optional
    JSON payload, the expected exit code, and a check of the report on
    stdout that returns a failure message or None."""

    kind: str
    argv: list
    check: object
    payload: object = None
    exit_code: int = 0


PAYLOAD = "<payload>"


class Oracle:
    """Totients and primes up to SIEVE_LIMIT, built once per set-up."""

    def __init__(self):
        phi = list(range(SIEVE_LIMIT + 1))
        for p in range(2, SIEVE_LIMIT + 1):
            if phi[p] == p:
                for m in range(p, SIEVE_LIMIT + 1, p):
                    phi[m] -= phi[m] // p
        self.phi = phi
        self.primes = [p for p in range(2, SIEVE_LIMIT + 1) if phi[p] == p - 1]

    def twisted_degrees(self, m: int, p, bound: int) -> dict:
        """index -> totient for the indices m * p^e (e >= 0, p prime, p not
        dividing m) whose totient is at most bound; always includes m."""
        degrees = {m: self.phi[m]}
        if p is not None:
            index, degree = m * p, self.phi[m] * (p - 1)
            while degree <= bound:
                degrees[index] = degree
                index, degree = index * p, degree * p
        return degrees


def is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24 (first 12 prime bases)."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in bases:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def large_prime(rng: random.Random, low: int, high: int) -> int:
    while True:
        n = rng.randrange(low, high) | 1
        if is_probable_prime(n):
            return n


def _phi_at_two(n: int) -> int:
    """Phi_n(2) as prod over d | n of (2^d - 1)^mu(n/d)."""
    num, den = 1, 1
    for d in range(1, n + 1):
        if n % d:
            continue
        mu = _moebius(n // d)
        if mu == 1:
            num *= 2**d - 1
        elif mu == -1:
            den *= 2**d - 1
    return num // den


def _moebius(n: int) -> int:
    sign, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if n > 1 else sign


def _result(report: str):
    return json.loads(report)["result"]


# -- checks --------------------------------------------------------------------


def _charpoly_check(oracle: Oracle, m: int, p, t_rank: int, multi: bool):
    degrees = oracle.twisted_degrees(m, p, t_rank)
    if multi:  # number of multisets of indices filling t_rank
        ways = [1] + [0] * t_rank
        for deg in degrees.values():
            for r in range(deg, t_rank + 1):
                ways[r] += ways[r - deg]
        expected = ways[t_rank]
    else:
        expected = sum(1 for deg in degrees.values() if deg <= t_rank and t_rank % deg == 0)

    def check(report):
        rows = _result(report)["candidates"]
        if len(rows) != expected:
            return f"{len(rows)} candidates, expected {expected}"
        seen = set()
        for row in rows:
            factors = {int(k): v for k, v in row["factors"].items()}
            if any(i not in degrees for i in factors):
                return f"factor index outside m * p^e: {sorted(factors)}"
            if sum(v * degrees[i] for i, v in factors.items()) != t_rank:
                return f"factor degrees of {factors} do not sum to t_rank {t_rank}"
            if row["single_power"] != (len(factors) == 1):
                return "single_power flag wrong"
            coeffs = row["coefficients"]
            if len(coeffs) != t_rank + 1 or coeffs[-1] != 1:
                return "expansion is not monic of degree t_rank"
            value = 1
            for i, v in factors.items():
                value *= _phi_at_two(i) ** v
            if sum(c << k for k, c in enumerate(coeffs)) != value:
                return f"expansion of {factors} is wrong at x = 2"
            key = tuple(sorted(factors.items()))
            if key in seen:
                return "repeated candidate"
            seen.add(key)
        return None

    return check


def _orders_check(oracle: Oracle, bound: int):
    expected = [m for m in range(1, 2 * bound * bound + 1) if oracle.phi[m] <= bound]

    def check(report):
        result = _result(report)
        if result["orders"] != expected or result["max"] != expected[-1]:
            return f"orders for phi-bound {bound} differ from the sieve"
        return None

    return check


def _prime_powers_check(oracle: Oracle, max_t: int):
    expected = []
    for p in oracle.primes:
        if p - 1 > max_t:
            break
        expected += [q for q in oracle.twisted_degrees(1, p, max_t) if q > 1]
    expected.sort()

    def check(report):
        if _result(report)["prime_powers"] != expected:
            return f"prime powers for max-t {max_t} differ from the sieve"
        return None

    return check


def _ss_check(m: int, p: int):
    expected = [s for s in range(1, 11) if (pow(p, s, m) + 1) % m == 0]

    def check(report):
        result = _result(report)
        if result["sigma0"] != expected or result["supersingular_possible"] != bool(expected):
            return f"sigma0 {result['sigma0']}, expected {expected}"
        return None

    return check


_BY_M = {1: "I II III", 2: "I II III", 3: "I II", 4: "I II", 6: "I II"}
_BY_FIELD = {
    "rational": "I II III",
    "imaginary_quadratic": "I II",
    "cm_degree_gt2": "I",
    "totally_real_degree_gt1": "I",
}
_BY_HEIGHT = {1: "I II III", 2: "I II"}


def _allowed_check(m, field, height, char):
    def check(report):
        result = _result(report)
        if char == 2:
            return None if result.get("status") == "outside theorem hypotheses" else "char 2 not out of scope"
        allowed = {"I", "II", "III"}
        if m is not None:
            allowed &= set(_BY_M.get(m, "I").split())
        if field is not None:
            allowed &= set(_BY_FIELD[field].split())
        if height is not None:
            allowed &= set(_BY_HEIGHT.get(height, "I").split())
        if result["allowed"] != sorted(allowed):
            return f"allowed {result['allowed']}, expected {sorted(allowed)}"
        if result["conditional"] != (field == "totally_real_degree_gt1"):
            return "conditional flag wrong"
        return None

    return check


def _lattice_check(rank: int, det: int, signature: list):
    def check(report):
        result = _result(report)
        got = (result["rank"], result["det"], result["signature"], result["even"])
        if got != (rank, det, signature, True):
            return f"lattice invariants {got}, expected {(rank, det, signature, True)}"
        return None

    return check


# Kodaira fibers: label -> (Euler number, components)
_KODAIRA = {"II": (2, 1), "III": (3, 2), "IV": (4, 3), "II*": (10, 9), "III*": (9, 8), "IV*": (8, 7)}


def _kodaira(label: str):
    if label in _KODAIRA:
        return _KODAIRA[label]
    n = int(label[1:].rstrip("*"))
    return (n + 6, n + 5) if label.endswith("*") else (n, n)


def _euler_query(rng: random.Random) -> Op:
    labels, euler, rank = [], 0, 2
    pool = list(_KODAIRA) + [f"I{n}" for n in range(2, 12)] + [f"I{n}*" for n in range(0, 5)]
    for _ in range(rng.randint(1, 4)):
        label = rng.choice(pool)
        e, c = _kodaira(label)
        if euler + e > 24 or rank + c - 1 > 22:
            continue
        labels.append(label)
        euler, rank = euler + e, rank + c - 1
    if rng.random() < 0.75:  # pad with I1 fibers to a K3
        labels += ["I1"] * (24 - euler)
        euler = 24
    if not labels:
        labels, euler = ["I1"], 1
    rng.shuffle(labels)
    payload = {"fibers": labels} if rng.random() < 0.5 else {l: labels.count(l) for l in sorted(set(labels))}
    char = rng.choice([None, None, 3, 5])
    argv = ["euler", PAYLOAD] + (["--characteristic", str(char)] if char else [])

    def check(report):
        result = _result(report)
        got = (result["euler_sum"], result["is_k3"], result["trivial_lattice_rank"], "warning" in result)
        want = (euler, euler == 24, rank, char == 3)
        return None if got == want else f"euler report {got}, expected {want}"

    return Op("euler", argv, check, payload)


def _fixtures_check(report):
    result = _result(report)
    if (result["total"], result["passed"]) != (12, 12):
        return f"fixtures {result['passed']}/{result['total']} passed, expected 12/12"
    return None


# -- the grid ----------------------------------------------------------------


def _lattice_sum_op(n: int) -> Op:
    # U + A(n), A(n) negative definite: det = -1 * (-1)^n (n + 1)
    check = _lattice_check(n + 2, (-1) ** (n + 1) * (n + 1), [1, n + 1, 0])
    return Op("lattice", ["lattice", "U", f"A{n}"], check)


def query_grid(rng: random.Random, oracle: Oracle, quick: bool, cheap: bool):
    """One pass of the arithmetic mix, in seeded order.

    Sizes are stratified so that every pass has the same cost profile; the
    seed picks orders, primes, ranks and payloads within each stratum.
    cheap drops the heavy strata (large primes, phi-bound and lattice sweeps)
    for the subprocess workload; quick shrinks every count and bound.
    """

    def times(n):
        return range(max(1, n // 4) if quick else n)

    ops = []
    small_orders = [m for m in range(1, 67) if oracle.phi[m] <= 20]
    small_primes = [3, 5, 7, 11, 13]

    for _ in times(16):
        m, r = rng.choice(small_orders), rng.randint(1, 21)
        ops.append(Op("charpoly", ["charpoly", "--m", str(m), "--t-rank", str(r)], _charpoly_check(oracle, m, None, r, False)))
    for setting in ("liftable", "finite-field"):
        for _ in times(4):
            p = rng.choice(small_primes)
            m, r = rng.choice([x for x in small_orders if x % p]), rng.randint(1, 21)
            argv = ["charpoly", "--m", str(m), "--setting", setting, "--p", str(p), "--t-rank", str(r)]
            ops.append(Op("charpoly", argv, _charpoly_check(oracle, m, p, r, False)))
    for r in times(6):  # finite-height sweep over the transcendental rank
        p, m, r = rng.choice(small_primes[:3]), rng.choice([1, 2, 4]), 21 - 2 * r
        argv = ["charpoly", "--m", str(m), "--setting", "finite-height", "--p", str(p), "--t-rank", str(r)]
        ops.append(Op("charpoly", argv, _charpoly_check(oracle, m, p, r, True)))
    for _ in times(14):
        m, p = rng.randint(2, 100), rng.choice(small_primes + [2, 17, 19, 23])
        ops.append(Op("ss-check", ["ss-check", "--m", str(m), "--p", str(p)], _ss_check(m, p)))
    for _ in times(16):
        m = rng.choice([1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 42, 66])
        field = rng.choice([None, *_BY_FIELD])
        height = rng.choice([None, 1, 2, 3, 10, "infinite"])
        char = rng.choice([None, None, 2, 3])
        argv = ["allowed-types", "--m", str(m)]
        argv += ["--field", field] if field else []
        argv += ["--height", str(height)] if height is not None else []
        argv += ["--char", str(char)] if char else []
        h = None if height is None else (99 if height == "infinite" else height)
        ops.append(Op("allowed-types", argv, _allowed_check(m, field, h, char)))
    for _ in times(10):
        t = rng.randint(10, 60)
        ops.append(Op("orders", ["orders", "--max-t", str(t)], _prime_powers_check(oracle, t)))
    for _ in times(10):
        b = rng.randint(2, 12)
        ops.append(Op("orders", ["orders", "--phi-bound", str(b)], _orders_check(oracle, b)))
    for _ in times(14):
        ops.append(_euler_query(rng))
    for _ in times(3):
        ops.append(Op("lattice", ["lattice", "K3"], _lattice_check(22, -1, [3, 19, 0])))
        ops.append(_lattice_sum_op(rng.randint(2, 12)))
    ops.append(Op("fixtures", ["fixtures"], _fixtures_check))

    if not cheap:  # heavy strata, one op per stratum, jittered by a few percent of its cost
        top_bound, top_n = (40, 20) if quick else (200, 100)
        big_low, big_high = (10**6, 11 * 10**5) if quick else (9 * 10**10, 10**11)
        for i in range(1, 5):
            b = top_bound * i // 4 - rng.randrange(3)
            ops.append(Op("orders", ["orders", "--phi-bound", str(b)], _orders_check(oracle, b)))
        for _ in range(8):
            m, p = rng.randint(2, 200), large_prime(rng, big_low, big_high)
            ops.append(Op("ss-check", ["ss-check", "--m", str(m), "--p", str(p)], _ss_check(m, p)))
        for _ in range(3):  # t_rank >= phi(m), so phi(m p) is always computed
            m, p = rng.choice(small_orders), large_prime(rng, big_low, big_high)
            r = rng.randint(oracle.phi[m], 21)
            argv = ["charpoly", "--m", str(m), "--setting", "liftable", "--p", str(p), "--t-rank", str(r)]
            ops.append(Op("charpoly", argv, _charpoly_check(oracle, m, p, r, False)))
        for i in range(1, 4):
            ops.append(_lattice_sum_op(top_n * i // 3 - rng.randrange(3)))
        ops.append(Op("fixtures", ["fixtures"], _fixtures_check))
    rng.shuffle(ops)
    return ops
