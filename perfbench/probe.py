"""Set-up probe: what one CLI process pays before its first command runs.

Imports numpy, scipy and every cmasolve module, writes one pass's configs
for a workload, prints "ready" and exits.  run.py times it from process
start to that line.

    python3 perfbench/probe.py WORKLOAD SEED
"""

import sys
import tempfile
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def main(workload: str, seed: int) -> None:
    workloads.import_program(ROOT)
    out = ROOT / "perfbench" / "out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="probe-", dir=out) as tmp:
        workloads.build(workload, seed, Path(tmp), ROOT)
        print("ready", flush=True)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
