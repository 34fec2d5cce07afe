"""k3degen benchmark: seeded workloads run against the library from outside.

    python3 bench/run.py --workload type3_ladder --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): type3_ladder, non_kulikov, arithmetic_queries
run each op in process as k3degen.cli.run(argv) with stdout and stderr
captured; cli_cold runs each op as ``python -m k3degen.cli argv`` with
PYTHONPATH=src. Every answer is checked against the benchmark's own oracle
after the op's clock stops.

The run repeats whole passes over the workload's ops while another pass
fits in --seconds (at least one pass). Op latencies and set-up times are
reported at a reference interpreter speed sampled during the run (speed.py);
the run and its children are pinned to one core, where the samples are
taken. With --trace 0 the last line of
stdout reports the end-to-end metrics; with --trace 1 it reports the
per-layer metrics of spans.py, from one untraced pass followed by traced
passes. The line before it records the context: Python version, nproc,
git commit, seed, sample count and failures. --quick shrinks every
workload for the benchmark's own test.

The library is imported from src/ next to this directory; without it the
run exits 1 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import speed
import workloads
from arith import PAYLOAD

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
STARTUP_SAMPLES = 7
FAILURES_SHOWN = 5


# -- set-up ----------------------------------------------------------------------


def import_library():
    """(Re-)import k3degen.cli from src/, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "k3degen" or n.startswith("k3degen.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("k3degen.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"k3degen imported from {cli.__file__}, not from {SRC}")
    return cli


def set_up(workload: str, seed: int, quick: bool, work_dir: Path):
    """Import the library, build one pass of ops and write their payloads."""
    cli = import_library()
    ops = workloads.build(workload, seed, quick)
    for i, op in enumerate(ops):
        if op.payload is not None:
            path = work_dir / f"op{i}.json"
            path.write_text(json.dumps(op.payload), encoding="utf-8")
            op.argv = [str(path) if a == PAYLOAD else a for a in op.argv]
    return cli, ops


# -- running ops -------------------------------------------------------------------
#
# A runner returns (start, end, failure message or None) for one op; the
# answer is checked after the clock stops.


def _verdict(op, code, report):
    if code != op.exit_code:
        return f"{op.kind}: exit {code}, expected {op.exit_code}"
    try:
        problem = op.check(report)
    except (ValueError, KeyError, TypeError) as exc:
        problem = f"unreadable report: {type(exc).__name__}: {exc}"
    return f"{op.kind}: {problem}" if problem else None


def run_in_process(cli, op, limit, span, sampler):
    """cli.run(op.argv) with stdout and stderr captured in memory."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span:
            start = time.perf_counter()
            sampler.deadline = start + limit
            code = cli.run(op.argv)
            end = time.perf_counter()
    except speed.OpTimeout:
        return start, time.perf_counter(), f"{op.kind}: no answer within {limit} s"
    except Exception as exc:  # any escape from cli.run is a failed op
        return start, time.perf_counter(), f"{op.kind}: raised {type(exc).__name__}: {exc}"
    finally:
        sampler.deadline = None
    return start, end, _verdict(op, code, out.getvalue())


def _child_env():
    return dict(os.environ, PYTHONPATH="src")


_SPAWNER = r"""
import json, resource, subprocess, sys, time
for line in sys.stdin:
    argv, cwd, env, limit = json.loads(line)
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True, timeout=limit)
        code, out = proc.returncode, proc.stdout
    except subprocess.TimeoutExpired:
        code, out = None, ""
    end = time.perf_counter()
    print(json.dumps([start, end, code, out, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss]), flush=True)
"""


class Spawner:
    """A small helper process that starts child interpreters: the cli_cold ops.

    A child's ru_maxrss counts the resident set of the process it was forked
    from, and forking takes longer from a larger process, so forking from the
    benchmark process would report the benchmark's own size and cost. The
    helper is started before set-up, while this process is still small.
    perf_counter is system-wide, so the helper's start and end times share
    the speed sampler's clock. Traced runs also time interpreter start-up
    through it.
    """

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, "-c", _SPAWNER], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        self.peak_kib = 0

    def spawn(self, argv, limit):
        """Run argv in the checkout with PYTHONPATH=src: (start, end, exit code or None on timeout, stdout)."""
        self.proc.stdin.write(json.dumps([argv, str(ROOT), _child_env(), limit]) + "\n")
        self.proc.stdin.flush()
        start, end, code, out, rss = json.loads(self.proc.stdout.readline())
        self.peak_kib = max(self.peak_kib, rss)
        return start, end, code, out

    def run(self, op, limit, span):
        """``python -m k3degen.cli argv`` as one op."""
        with span:
            start, end, code, report = self.spawn([sys.executable, "-m", "k3degen.cli", *op.argv], limit)
        if code is None:
            return start, end, f"{op.kind}: no answer within {limit} s"
        return start, end, _verdict(op, code, report)

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def measure(ops, runner, seconds, tracer=None):
    """Whole passes while another one fits in `seconds`, at least one; one list of samples per pass."""
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append([runner(op, tracer.op(i) if tracer else contextlib.nullcontext()) for i, op in enumerate(ops)])
        t1 = time.perf_counter()
        if (t1 - start) + (t1 - t0) > seconds:
            return passes


def startup_ms(spawner):
    """Median bare interpreter start and median extra cost of importing k3degen.cli (ms)."""
    bare, imported = [], []
    for _ in range(STARTUP_SAMPLES):
        for code, bucket in (("pass", bare), ("import k3degen.cli", imported)):
            start, end, exit_code, _ = spawner.spawn([sys.executable, "-c", code], 60)
            if exit_code != 0:
                raise RuntimeError(f"python -c {code!r} exited with {exit_code}")
            bucket.append(end - start)
    interpreter = statistics.median(bare)
    return interpreter * 1000, (statistics.median(imported) - interpreter) * 1000


# -- context ------------------------------------------------------------------------


def git_commit() -> str:
    """HEAD of the checkout's own .git, or "unknown" (read directly, no git process)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# -- main --------------------------------------------------------------------------------


def end_to_end(latencies_s, setups_s, rss_mb):
    latencies_ms = [x * 1000 for x in latencies_s]
    return {
        "ops_per_s": {"value": len(latencies_s) / sum(latencies_s), "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(latencies_ms), "unit": "ms"},
        "op_p90_ms": {"value": statistics.quantiles(latencies_ms, n=10)[8], "unit": "ms"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        "setup_s": {"value": statistics.median(setups_s), "unit": "s"},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="small inputs for the benchmark's own test")
    args = parser.parse_args(argv)

    in_subprocess = args.workload in workloads.SUBPROCESS_WORKLOADS
    # One core for the run and its children, so the speed samples are taken where the ops run.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    limit = workloads.LIMIT_S.get(args.workload, workloads.DEFAULT_LIMIT_S)
    work_dir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    spawner = Spawner() if in_subprocess or args.trace else None
    try:
        with speed.SpeedSampler() as sampler:
            setups = []
            for _ in range(SETUP_REPEATS):
                t0 = time.perf_counter()
                cli, ops = set_up(args.workload, args.seed, args.quick, work_dir)
                setups.append((t0, time.perf_counter()))

            if in_subprocess:
                spawner.run(ops[0], limit, contextlib.nullcontext())  # bytecode caches in place

                def runner(op, span):
                    return spawner.run(op, limit, span)
            else:
                def runner(op, span):
                    return run_in_process(cli, op, limit, span, sampler)

            if args.trace:
                t0 = time.perf_counter()
                passes = measure(ops, runner, 0)
                tracer = spans.Tracer()
                tracer.install()
                try:
                    traced = measure(ops, runner, args.seconds - (time.perf_counter() - t0), tracer)
                finally:
                    tracer.uninstall()
                passes += traced
                interpreter_ms, import_ms = startup_ms(spawner)
            else:
                passes = measure(ops, runner, args.seconds)
    finally:
        if spawner is not None:
            spawner.close()
        shutil.rmtree(work_dir, ignore_errors=True)

    samples = [s for p in passes for s in p]
    failures = [s[2] for s in samples if s[2]]
    latencies = [sampler.scaled(s[0], s[1]) for s in samples]
    setups_s = [sampler.scaled(a, b) for a, b in setups]
    peak_kib = spawner.peak_kib if in_subprocess else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    raw = end_to_end([s[1] - s[0] for s in samples], [b - a for a, b in setups], peak_kib / 1024)
    if args.trace:
        traced_samples = [s for p in traced for s in p]
        layer = spans.layer_metrics(tracer, len(traced_samples))
        layer["cli.import_ms"] = import_ms
        layer["cli.interpreter_ms"] = interpreter_ms
        busy = [sum(sampler.scaled(s[0], s[1]) for s in p) for p in passes]
        layer["trace.overhead_frac"] = statistics.median(busy[1:]) / busy[0] - 1
        if in_subprocess:  # the child's spans are out of reach: what is left after start-up and import
            layer["cli.self_ms"] = statistics.median((s[1] - s[0]) * 1000 for s in traced_samples) - interpreter_ms - import_ms
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in spans.LAYER_UNITS.items()}
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl",
                     {"workload": args.workload, "seed": args.seed, "ops": len(traced_samples)})
    else:
        metrics = end_to_end(latencies, setups_s, raw["peak_rss_mb"]["value"])
    context = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "quick": args.quick, "python": platform.python_version(), "nproc": os.cpu_count(),
        "commit": git_commit(), "samples": len(samples), "passes": len(passes),
        "failed_frac": len(failures) / len(samples), "failures": failures[:FAILURES_SHOWN],
        "reference_ms": sampler.reference_ms(), "unscaled": {k: v["value"] for k, v in raw.items()},
    }
    print(json.dumps({"context": context}))
    print(json.dumps({"correct": not failures, "attempted": len(samples), "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except ImportError as exc:
        print(f"error: cannot import the library: {exc}", file=sys.stderr)
        sys.exit(1)
