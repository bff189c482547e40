"""Set-up probe: import the program, register it and build one workload's
fixtures in a fresh interpreter, print ``ready``, then tear down when standard
input closes.  ``run.py`` times the spawn up to ``ready`` (``setup_s``).

    python3 perfbench/setup_probe.py WORKLOAD WORKDIR
"""

import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import perf_workloads  # noqa: E402
from repro.api import ensure_registered  # noqa: E402


def main() -> int:
    workload_name, workdir = sys.argv[1], sys.argv[2]
    ensure_registered()
    workload = perf_workloads.WORKLOADS[workload_name]()
    probe_dir = tempfile.mkdtemp(prefix="setup-", dir=workdir)
    fixtures = workload.open(probe_dir)
    print("ready", flush=True)
    sys.stdin.read()
    workload.close(fixtures)
    return 0


if __name__ == "__main__":
    sys.exit(main())
