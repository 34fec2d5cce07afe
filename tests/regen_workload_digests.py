"""Rewrite tests/golden/workload_digests.json from the current library.

    PYTHONPATH=src python tests/regen_workload_digests.py

Run it only for a change meant to alter CLI output, and name each op whose
digest changed.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from test_workload_digests import DIGESTS, digests  # noqa: E402

if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(digests(), indent=1) + "\n")
    print(f"wrote {DIGESTS}")
