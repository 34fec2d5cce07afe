"""Byte-identity of the benchmark's ops: stdout, stderr and exit code of each.

The four workloads of ``bench/workloads.py`` are built at seeds 1 and 2
(956 ops). Each op runs in process through ``cli.run``, with its payload
written to a temporary file. The payload directory and the bundled corpus
directory, which the ``fixtures`` report echoes, are replaced by fixed
placeholders. The sha256 of (exit code, stdout, stderr) of every op must
equal its entry in ``tests/golden/workload_digests.json``.

A change that means to alter output regenerates that file with
``PYTHONPATH=src python tests/regen_workload_digests.py`` and names each
op whose digest changed, and why.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from k3degen import cli, corpus

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "golden" / "workload_digests.json"
SEEDS = (1, 2)


def _workloads():
    if str(ROOT / "bench") not in sys.path:
        sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    return workloads


def digests():
    """{"<workload>:<seed>": [[op kind, sha256 hex], ...] in op order} for every workload and seed."""
    workloads = _workloads()
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        corpus_dir = str(corpus.default_corpus_dir())
        places = {tmp: "<payloads>", corpus_dir: "<corpus>"}
        for name in workloads.WORKLOADS:
            for seed in SEEDS:
                rows = out[f"{name}:{seed}"] = []
                for i, op in enumerate(workloads.build(name, seed, quick=False)):
                    path = Path(tmp) / f"op{i}.json"
                    if op.payload is not None:
                        path.write_text(json.dumps(op.payload), encoding="utf-8")
                    argv = [str(path) if a == workloads.PAYLOAD else a for a in op.argv]
                    stdout, stderr = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                        code = cli.run(argv)
                    text = json.dumps([code, stdout.getvalue(), stderr.getvalue()])
                    for place, mark in places.items():
                        text = text.replace(json.dumps(place)[1:-1], mark)
                    rows.append([op.kind, hashlib.sha256(text.encode()).hexdigest()])
    return out


def test_every_op_matches_its_digest():
    expected = json.loads(DIGESTS.read_text())
    got = digests()
    assert {key: len(rows) for key, rows in got.items()} == {key: len(rows) for key, rows in expected.items()}
    changed = [
        f"{key} op {i} ({kind})"
        for key in expected
        for i, (kind, digest) in enumerate(expected[key])
        if got[key][i] != [kind, digest]
    ]
    assert changed == [], f"{len(changed)} ops changed output: {changed[:10]}"
