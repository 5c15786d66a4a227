"""Reference rows for the default workload seed, made with the scan engine.

``scan`` is the reference of the engine-equivalence contract: every
engine must give the rows it gives.  For each workload the file
``reference/<workload>.json`` holds, for every spec of every pass a run
may take at :data:`~workloads.DEFAULT_SEED`, a digest of the spec key
together with the trial row the scan engine committed for it.

Regenerate (only when the program's results are meant to change)::

    python3 perfbench/reference.py                 # every workload
    python3 perfbench/reference.py sync-silence    # one workload
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from typing import List

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")


def row_digest(key: str, row: dict) -> str:
    """Digest of one committed trial row under its spec key."""
    text = key + "\n" + json.dumps(row, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def reference_path(workload: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}.json")


def load_reference(workload: str) -> List[List[str]]:
    """Per pass, the digests of its rows in spec order."""
    with open(reference_path(workload), "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return data["passes"]


def build_reference(workload) -> dict:
    """Run every pass of ``workload`` at the default seed on ``scan``."""
    from workloads import DEFAULT_SEED

    passes = []
    for j in range(workload.max_passes):
        digests = []
        for spec in workload.pass_specs(DEFAULT_SEED, j):
            row = spec.variant(engine="scan").run().to_dict()
            if not (row["silent"] and row["legitimate"]):
                raise RuntimeError(f"reference trial {spec.key()} failed")
            digests.append(row_digest(spec.key(), row))
        passes.append(digests)
    return {
        "workload": workload.name,
        "seed": DEFAULT_SEED,
        "engine": "scan",
        "passes": passes,
    }


def main(argv=None) -> int:
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    from workloads import WORKLOADS

    names = (argv if argv is not None else sys.argv[1:]) or list(WORKLOADS)
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    for name in names:
        data = build_reference(WORKLOADS[name])
        with open(reference_path(name), "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=0)
            fh.write("\n")
        print(f"{name}: {sum(map(len, data['passes']))} reference rows")
    return 0


if __name__ == "__main__":
    sys.exit(main())
