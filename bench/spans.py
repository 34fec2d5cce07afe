"""Per-layer tracing from outside the program.

The tracer wraps the public functions of each k3degen module (and the
methods the layer metrics need), records a span per call, and reduces the
spans to per-layer metrics. Modules bind each other's functions by name
(``from .sncfiber import classify``), so every module attribute that holds a
wrapped function is patched, and uninstall puts every original back.

A span records its name, start, end, parent span and op id. Spans that have
children are kept as they are. A span without children (a leaf such as one
euler_phi call among tens of thousands) is folded into one record per
(parent, name) with its call count and total time, which keeps memory
bounded. A span's self time is its duration minus that of its children; the
program is single-threaded, so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import sys
import time
from collections import Counter

PACKAGE = "k3degen"
MODULES = ("cli", "sncfiber", "dualcomplex", "_linalg", "cyclotomic", "autorders",
           "degeneration", "lattice", "elliptic", "corpus")
METHODS = {
    "sncfiber": {"SNCSurface": ("from_json_dict", "dual_complex")},
    "dualcomplex": {"DeltaComplex": ("__init__", "sides_of_edge", "boundary_matrices", "homology_dims")},
    "lattice": {"Lattice": ("det", "signature")},
    "elliptic": {"FiberConfiguration": ("from_json", "euler_sum", "check_k3", "trivial_lattice_rank")},
}


def _d2_size(args, result):
    d2 = result[1]
    return {"d2_entries": len(d2) * len(d2[0]) if d2 else 0, "d2_nnz": sum(1 for row in d2 for x in row if x)}


# Sizes read from a call's arguments or result after its span has closed.
COUNTERS = {
    "dualcomplex.DeltaComplex.boundary_matrices": _d2_size,
    "_linalg.exact_rank": lambda args, result: {"exact_rank_cells": len(args[0]) * len(args[0][0]) if args[0] else 0},
    "autorders.admissible_transcendental_charpolys": lambda args, result: {"candidates": len(result)},
    "corpus.run_corpus": lambda args, result: {"fixtures_passed": sum(1 for r in result if r.passed)},
}


class Tracer:
    def __init__(self):
        self.stats = {}  # name -> [calls, inclusive s, self s]
        self.errors = Counter()  # (name, exception type) -> count
        self.counters = Counter()
        self.spans = []  # (id, parent, op, name, start, end, error) of spans with children
        self.folded = {}  # (parent, name) -> [calls, total s, first start, last end, op]
        self.op_id = None
        self._stack = []  # open spans: [id, child s, has children]
        self._ids = itertools.count(1)
        self._patches = []
        self._cached = self._cache_before = None

    # -- recording -----------------------------------------------------------

    def _close(self, name, frame, start, end, error):
        span_id, child_s, has_children = frame
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += duration
            parent[2] = True
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - child_s
        if error:
            self.errors[name, error] += 1
        parent_id = parent[0] if parent else None
        if has_children or parent is None:
            self.spans.append((span_id, parent_id, self.op_id, name, start, end, error))
            return
        fold = self.folded.get((parent_id, name))
        if fold is None:
            self.folded[parent_id, name] = [1, duration, start, end, self.op_id]
        else:
            fold[0] += 1
            fold[1] += duration
            fold[3] = end

    @contextlib.contextmanager
    def op(self, op_id):
        """Root span of one op; every library span inside it is its descendant."""
        self.op_id = op_id
        frame = [next(self._ids), 0.0, False]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._close("op", frame, start, end, None)

    def _wrap(self, name, fn):
        stack, ids, close, counter = self._stack, self._ids, self._close, COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [next(ids), 0.0, False]
            stack.append(frame)
            error = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                close(name, frame, start, end, error)
            if counter is not None:
                self.counters.update(counter(args, result))
            return result

        return traced

    # -- patching --------------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self):
        self._cached = sys.modules[f"{PACKAGE}.cyclotomic"].cyclotomic_poly  # the lru_cache wrapper
        self._cache_before = self._cached.cache_info()
        wrapped = {}  # id(original) -> (original, wrapper)
        for short in MODULES:
            module = sys.modules[f"{PACKAGE}.{short}"]
            for attr, value in vars(module).items():
                if attr.startswith("_") or isinstance(value, type) or not callable(value):
                    continue
                if getattr(value, "__module__", None) == module.__name__:
                    wrapped[id(value)] = (value, self._wrap(f"{short}.{attr}", value))
            for cls_name, methods in METHODS.get(short, {}).items():
                cls = getattr(module, cls_name)
                for attr in methods:
                    raw = vars(cls)[attr]
                    name = f"{short}.{cls_name}.{attr}"
                    if isinstance(raw, classmethod):
                        self._patch(cls, attr, classmethod(self._wrap(name, raw.__func__)))
                    else:
                        self._patch(cls, attr, self._wrap(name, raw))
        package_modules = [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for module in package_modules:
            for attr, value in list(vars(module).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[1])

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------------

    def cyclotomic_poly_hit_ratio(self) -> float:
        """Share of cyclotomic_poly lookups answered by its cache while traced."""
        before, after = self._cache_before, self._cached.cache_info()
        hits, misses = after.hits - before.hits, after.misses - before.misses
        return hits / (hits + misses) if hits + misses else 0.0

    def write(self, path, header: dict):
        """All spans as JSON lines, times in seconds from the first span."""
        origin = min([s[4] for s in self.spans] + [f[2] for f in self.folded.values()], default=0.0)
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps(header) + "\n")
            for span_id, parent, op, name, start, end, error in self.spans:
                out.write(json.dumps({"id": span_id, "parent": parent, "op": op, "name": name,
                                      "start": start - origin, "end": end - origin, "error": error}) + "\n")
            for (parent, name), (calls, total, first, last, op) in self.folded.items():
                out.write(json.dumps({"parent": parent, "op": op, "name": name, "calls": calls,
                                      "total": total, "start": first - origin, "end": last - origin}) + "\n")


# Per-layer metric -> unit, in the order BENCHMARK.json lists them.
LAYER_UNITS = {
    "cli.self_ms": "ms/op",
    "cli.import_ms": "ms",
    "cli.interpreter_ms": "ms",
    "sncfiber.from_json_dict_ms": "ms/op",
    "sncfiber.e1_page_ms": "ms/op",
    "sncfiber.classify_ms": "ms/op",
    "sncfiber.classify_calls_per_op": "count/op",
    "sncfiber.dual_complex_calls_per_op": "count/op",
    "sncfiber.crosscheck_ms": "ms/op",
    "sncfiber.rejects": "count/op",
    "dualcomplex.init_ms": "ms/op",
    "dualcomplex.sides_of_edge_calls": "count/op",
    "dualcomplex.sides_of_edge_ms": "ms/op",
    "dualcomplex.is_sphere_ms": "ms/op",
    "dualcomplex.orient_ms": "ms/op",
    "dualcomplex.orient_calls_per_op": "count/op",
    "dualcomplex.homology_ms": "ms/op",
    "dualcomplex.boundary_matrices_ms": "ms/op",
    "dualcomplex.d2_entries": "count/op",
    "dualcomplex.d2_nnz": "count/op",
    "linalg.exact_rank_ms": "ms/op",
    "linalg.exact_rank_calls": "count/op",
    "linalg.exact_rank_cells": "count/op",
    "cyclotomic.euler_phi_calls": "count/op",
    "cyclotomic.euler_phi_ms": "ms/op",
    "cyclotomic.bounded_orders_ms": "ms/op",
    "cyclotomic.factor_into_cyclotomics_ms": "ms/op",
    "cyclotomic.cyclotomic_poly_hit_ratio": "ratio",
    "autorders.is_prime_calls": "count/op",
    "autorders.is_prime_ms": "ms/op",
    "autorders.charpolys_ms": "ms/op",
    "autorders.candidates": "count/op",
    "autorders.nygaard_sigma0_ms": "ms/op",
    "lattice.det_ms": "ms/op",
    "lattice.signature_ms": "ms/op",
    "degeneration.combine_ms": "ms/op",
    "elliptic.config_ms": "ms/op",
    "corpus.run_corpus_ms": "ms/op",
    "corpus.fixtures_passed": "count/call",
    "trace.overhead_frac": "ratio",
}


def layer_metrics(t: Tracer, ops: int) -> dict:
    """Per-layer metrics, per op unless the unit says otherwise.

    *_ms is the inclusive time of the named function, or self time where the
    name says self (a module's self time sums the self time of all its
    spans); *_calls counts calls. cli.import_ms, cli.interpreter_ms and
    trace.overhead_frac are measured by the runner, not from spans.
    """

    def stat(name, i):
        return t.stats.get(name, (0, 0.0, 0.0))[i] / ops

    def incl_ms(name):
        return stat(name, 1) * 1000

    def self_ms(name):
        return stat(name, 2) * 1000

    def module_self_ms(short):
        return sum(s[2] for n, s in t.stats.items() if n.startswith(short + ".")) * 1000 / ops

    corpus_runs = t.stats.get("corpus.run_corpus", (0,))[0]
    return {
        "cli.self_ms": module_self_ms("cli"),
        "sncfiber.from_json_dict_ms": incl_ms("sncfiber.SNCSurface.from_json_dict"),
        "sncfiber.e1_page_ms": incl_ms("sncfiber.e1_page"),
        "sncfiber.classify_ms": incl_ms("sncfiber.classify"),
        "sncfiber.classify_calls_per_op": stat("sncfiber.classify", 0),
        "sncfiber.dual_complex_calls_per_op": stat("sncfiber.SNCSurface.dual_complex", 0),
        "sncfiber.crosscheck_ms": self_ms("sncfiber.crosscheck"),
        "sncfiber.rejects": t.errors["sncfiber.classify", "NotKulikov"] / ops,
        "dualcomplex.init_ms": incl_ms("dualcomplex.DeltaComplex.__init__"),
        "dualcomplex.sides_of_edge_calls": stat("dualcomplex.DeltaComplex.sides_of_edge", 0),
        "dualcomplex.sides_of_edge_ms": incl_ms("dualcomplex.DeltaComplex.sides_of_edge"),
        "dualcomplex.is_sphere_ms": self_ms("dualcomplex.is_sphere_triangulation"),
        "dualcomplex.orient_ms": incl_ms("dualcomplex.orient"),
        "dualcomplex.orient_calls_per_op": stat("dualcomplex.orient", 0),
        "dualcomplex.homology_ms": self_ms("dualcomplex.DeltaComplex.homology_dims"),
        "dualcomplex.boundary_matrices_ms": incl_ms("dualcomplex.DeltaComplex.boundary_matrices"),
        "dualcomplex.d2_entries": t.counters["d2_entries"] / ops,
        "dualcomplex.d2_nnz": t.counters["d2_nnz"] / ops,
        "linalg.exact_rank_ms": incl_ms("_linalg.exact_rank"),
        "linalg.exact_rank_calls": stat("_linalg.exact_rank", 0),
        "linalg.exact_rank_cells": t.counters["exact_rank_cells"] / ops,
        "cyclotomic.euler_phi_calls": stat("cyclotomic.euler_phi", 0),
        "cyclotomic.euler_phi_ms": incl_ms("cyclotomic.euler_phi"),
        "cyclotomic.bounded_orders_ms": incl_ms("cyclotomic.bounded_orders"),
        "cyclotomic.factor_into_cyclotomics_ms": incl_ms("cyclotomic.factor_into_cyclotomics"),
        "cyclotomic.cyclotomic_poly_hit_ratio": t.cyclotomic_poly_hit_ratio(),
        "autorders.is_prime_calls": stat("autorders.is_prime", 0),
        "autorders.is_prime_ms": incl_ms("autorders.is_prime"),
        "autorders.charpolys_ms": incl_ms("autorders.admissible_transcendental_charpolys"),
        "autorders.candidates": t.counters["candidates"] / ops,
        "autorders.nygaard_sigma0_ms": incl_ms("autorders.nygaard_sigma0"),
        "lattice.det_ms": incl_ms("lattice.Lattice.det"),
        "lattice.signature_ms": incl_ms("lattice.Lattice.signature"),
        "degeneration.combine_ms": incl_ms("degeneration.combine"),
        "elliptic.config_ms": module_self_ms("elliptic"),
        "corpus.run_corpus_ms": incl_ms("corpus.run_corpus"),
        "corpus.fixtures_passed": t.counters["fixtures_passed"] / corpus_runs if corpus_runs else 0.0,
    }
