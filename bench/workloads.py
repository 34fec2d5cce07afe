"""The four benchmark workloads: one pass of ops each, built from a seed.

Each workload is a closed loop with one client issuing one op at a time.
A pass holds every op once; the sizes in a pass are fixed strata, so
passes built from different seeds cost about the same, while the seed
relabels, shuffles and draws the values inside each stratum.
"""

from __future__ import annotations

import json
import random

import arith
import shapes
from arith import PAYLOAD, Op

GRW = {"II": [0, 2, 18, 2, 0], "III": [1, 0, 20, 0, 1]}

# Per-op time limits (s): an op that runs longer is stopped and fails.
LIMIT_S = {"type3_ladder": 120.0}
DEFAULT_LIMIT_S = 30.0


def _fiber_op(fiber: shapes.Fiber) -> Op:
    def check(report):
        result = json.loads(report)["result"]
        if fiber.expect_type is None:
            error = result.get("error", {})
            if error.get("constraint") != "NotKulikov":
                return f"expected a NotKulikov rejection, got {result}"
            if not any(c in error.get("detail", "") for c in fiber.reject_clause):
                return f"rejection does not name {fiber.reject_clause}: {error.get('detail')}"
            return None
        if result.get("type") != fiber.expect_type or result.get("grw") != GRW[fiber.expect_type]:
            return f"type {result.get('type')} grw {result.get('grw')}, expected {fiber.expect_type}"
        cross = result["crosscheck"]
        if not cross["all_passed"] or cross["type"] != fiber.expect_type:
            return f"crosscheck failed: {cross}"
        if result.get("e1") != fiber.e1:
            return f"E1 page {result.get('e1')}, expected {fiber.e1}"
        return None

    exit_code = 0 if fiber.expect_type else 2
    return Op(fiber.name, ["classify-fiber", PAYLOAD], check, fiber.payload, exit_code)


def _stratified(rng: random.Random, count: int, low: int, high: int):
    """count sizes spread evenly over [low, high], each moved by up to 2 from the seed."""
    step = (high - low) / (count - 1)
    return [min(high, low + round(i * step) + rng.randrange(3)) for i in range(count)]


def type3_ladder(rng: random.Random, quick: bool):
    """Accepted fibers: subdivided octahedra (Type III) and Type II chains."""
    ladder = {0: 8, 1: 8, 2: 2} if quick else {0: 36, 1: 72, 2: 12, 3: 1}
    fibers = []
    for k, count in ladder.items():
        cx = shapes.octahedron(k)
        fibers += [shapes.surface_fiber(rng, f"octahedron{k}", cx, "III") for _ in range(count)]
    low, high, count = (10, 40, 8) if quick else (50, 200, 36)
    fibers += [shapes.elliptic_chain(rng, n) for n in _stratified(rng, count, low, high)]
    return [_fiber_op(f) for f in fibers]


def non_kulikov(rng: random.Random, quick: bool):
    """Rejected fibers: tori, Klein bottles, RP^2 and cycles of elliptic ruled components."""
    if quick:
        tori, kleins, rp2, cycles = [(4, 4), (4, 6), (6, 6)], [(3, 4), (3, 6)], [1, 2], (10, 40, 6)
        reps = 1
    else:
        tori = [(8, 8), (8, 12), (12, 12), (8, 16), (12, 16), (16, 16)]  # 128..512 triangles
        kleins = [(4, 16), (6, 16), (8, 16), (12, 12), (12, 16), (16, 16)]  # 128..512 triangles
        rp2, cycles, reps = [2, 3] * 8, (50, 200, 48), 3
    surfaces = [(f"torus{a}x{b}", shapes.torus_grid(a, b), ("Euler characteristic is 0",)) for a, b in tori]
    surfaces += [(f"klein{m}x{n}", shapes.klein_bottle(m, n), ("not orientable",)) for m, n in kleins]
    planes = {k: (f"rp2_{k}", shapes.projective_plane(k), ("not orientable",)) for k in set(rp2)}
    surfaces = surfaces * reps + [planes[k] for k in rp2]
    fibers = [shapes.surface_fiber(rng, name, cx, None, clause) for name, cx, clause in surfaces]
    fibers += [shapes.elliptic_chain(rng, n, closed=True) for n in _stratified(rng, cycles[2], cycles[0], cycles[1])]
    return [_fiber_op(f) for f in fibers]


def arithmetic_queries(rng: random.Random, quick: bool):
    return arith.query_grid(rng, arith.Oracle(), quick, cheap=False)


def cli_cold(rng: random.Random, quick: bool):
    return arith.query_grid(rng, arith.Oracle(), quick, cheap=True)


WORKLOADS = {
    "type3_ladder": type3_ladder,
    "non_kulikov": non_kulikov,
    "arithmetic_queries": arithmetic_queries,
    "cli_cold": cli_cold,
}
SUBPROCESS_WORKLOADS = {"cli_cold"}


def build(name: str, seed: int, quick: bool):
    """One pass of the workload, shuffled from the seed."""
    rng = random.Random(f"{name}:{seed}")
    ops = WORKLOADS[name](rng, quick)
    rng.shuffle(ops)
    return ops
