"""Set-up probe: import the simulator, build one pass's inputs, say "ready".

``run.py`` starts this script in a fresh interpreter several times and
times each start until the ``ready`` line arrives; the median is
``setup_s``.  Usage: ``python3 perfbench/setup_probe.py WORKLOAD SEED``.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:1] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import build  # noqa: E402  (imports repro)

if __name__ == "__main__":
    build(sys.argv[1], int(sys.argv[2]))
    print("ready", flush=True)
