"""Regenerate ``paper_manifest.json``: the content hash of every registered
experiment at its paper defaults, which the ``paper`` workload checks.

    python3 perfbench/make_manifest.py

Rerun it only when a change is meant to alter a result (and bump that
experiment's version); an unchanged hash is how a refactor shows it kept
behaviour.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from perf_workloads import MANIFEST  # noqa: E402
from repro.api import Engine, ensure_registered, list_experiments  # noqa: E402


def main() -> int:
    ensure_registered()
    engine = Engine()
    hashes = {e.name: engine.run(e.name).content_hash for e in list_experiments()}
    with open(MANIFEST, "w") as handle:
        json.dump(hashes, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(hashes)} hashes to {MANIFEST}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
