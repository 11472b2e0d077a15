"""Bench file: the four perfbench workloads, untraced and traced, in one JSON.

    python3 tools/bench.py LABEL

Runs ``perfbench/run.py --all`` at its defaults (seed 1, 25 s a run, so
about 8 x 25 s in all), reads the per-run results it leaves in
perfbench/results/summary.json (git-ignored) and writes BENCH_<LABEL>.json
at the repository root: each run's result as run.py reports it (correct,
attempted and failed operations, and every metric with its unit), keyed
``<workload>/trace<0|1>``, beside nproc, the python and numpy versions and
the commit.  Nothing under perfbench/ is edited.

A bench file is one run per side of a comparison: two of them show counts
(solve.nodes, mc.element_draws) reliably, but not a change in time, which
needs at least ten alternating pairs of ``perfbench/run.py --workload W``
runs of the two commits.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
NOTE = ("With more than one worker the Monte Carlo kernel runs in forked "
        "workers, so a traced run books their kernel time under mc, not kernel.")


def main(label: str) -> int:
    subprocess.run([sys.executable, "perfbench/run.py", "--all"], cwd=ROOT, check=True)
    describe = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                              capture_output=True, text=True)
    bench = {
        "label": label,
        "commit": describe.stdout.strip() or "unknown",
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": 1,
        "seconds": 25.0,
        "note": NOTE,
        "runs": json.loads((ROOT / "perfbench/results/summary.json").read_text(encoding="utf-8")),
    }
    out = ROOT / f"BENCH_{label}.json"
    out.write_text(json.dumps(bench, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
