"""Golden manifest: the sha256 of every standing output of irsplan.

    python3 tools/golden.py            # regenerate the outputs, compare with GOLDEN.json
    python3 tools/golden.py --update   # rewrite GOLDEN.json from this checkout

The standing outputs are the four benchmark workloads at full size and
seeds 1 and 2, coverage_wide at seeds 3-8, configs/tiny_custom.yaml run
through deploy, coverage, spots, stats (--ue 1 --spot 2 and --ue 2
--spot 3) and pattern-dump, and validate of tiny_custom and of the four
presets.  Each runs in this process through irsplan.cli.main against the
sources in ./src; the workload configs come from perfbench/workloads.py,
imported read-only.  Beside them it hashes the JSON of the solver plans no
standing output reaches, on the frozen matrices of tests/test_planner.py:
branch-and-bound out of node budget and with J = M, and the coverage
study's warm extension (importing that test module needs the test extra:
pytest and scipy).  The manifest records the python and numpy versions
it was made with, since float results may move with either.

Exit 0 when every output matches, 1 naming each mismatch.  Takes about
20 s on a 2-core machine.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = Path(__file__).resolve().parent / "GOLDEN.json"
TINY = ROOT / "configs" / "tiny_custom.yaml"
PRESETS = ("link_sweep", "medium_deploy", "split_1024", "widearea_coverage")
TINY_COMMANDS = {
    "deploy": ("deploy",),
    "coverage": ("coverage",),
    "spots": ("spots",),
    "stats": ("stats", "--ue", "1", "--spot", "2"),
    "stats-ue2-spot3": ("stats", "--ue", "2", "--spot", "3"),
    "pattern-dump": ("pattern-dump",),
}

sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]

import numpy as np  # noqa: E402
import yaml  # noqa: E402

import irsplan.cli  # noqa: E402
from irsplan.planner import _extend_plan, solve_bnb, solve_greedy_swap  # noqa: E402
from test_planner import COVERAGE_DROP, STALL_MATRIX, coverage_problem, rate_problem  # noqa: E402
from workloads import WORKLOADS, make_config  # noqa: E402


def runs(tmp: Path):
    """(name, irsplan argv without -o) of every standing output."""
    for name, seeds in [(w, (1, 2)) for w in WORKLOADS] + [("coverage_wide", range(3, 9))]:
        for seed in seeds:
            cfg = tmp / f"{name}-seed{seed}.yaml"
            cfg.write_text(yaml.safe_dump(make_config(name, seed), sort_keys=False),
                           encoding="utf-8")
            yield f"{name}/seed{seed}", (WORKLOADS[name][0], "-c", str(cfg))
    for label, argv in TINY_COMMANDS.items():
        yield f"tiny_custom/{label}", (argv[0], "-c", str(TINY), *argv[1:])
    yield "validate/tiny_custom", ("validate", "-c", str(TINY))
    for preset in PRESETS:
        yield f"validate/{preset}", ("validate", "--preset", preset)


def solver_plans() -> dict:
    """name -> PlanSolution of each solver path no standing output reaches."""
    two = solve_greedy_swap(coverage_problem(COVERAGE_DROP, 2))
    return {
        "solver/stall-bnb-budget1": solve_bnb(rate_problem(STALL_MATRIX, 3), node_budget=1),
        "solver/stall-bnb-budget2": solve_bnb(rate_problem(STALL_MATRIX, 3), node_budget=2),
        "solver/stall-bnb-all-spots": solve_bnb(rate_problem(STALL_MATRIX, STALL_MATRIX.shape[1])),
        "solver/coverage-drop-extend3": _extend_plan(coverage_problem(COVERAGE_DROP, 3), two),
        "solver/coverage-drop-extend4": _extend_plan(coverage_problem(COVERAGE_DROP, 4), two),
    }


def digests() -> dict[str, str]:
    """name -> sha256 of the output file or plan JSON, or an 'exit N' note
    on failure."""
    out = {}
    with tempfile.TemporaryDirectory(prefix="golden-") as tmp:
        for name, argv in runs(Path(tmp)):
            path = Path(tmp) / "out"
            rc = irsplan.cli.main([*argv, "-o", str(path)])
            # 3: a solver's node budget ran out, which a standing output may record
            ok = rc in (0, 3) and path.is_file()
            out[name] = hashlib.sha256(path.read_bytes()).hexdigest() if ok else f"exit {rc}"
            path.unlink(missing_ok=True)
            print(f"{name:30s} {out[name]}", file=sys.stderr, flush=True)
    for name, plan in solver_plans().items():
        text = json.dumps(dataclasses.asdict(plan), sort_keys=True)
        out[name] = hashlib.sha256(text.encode()).hexdigest()
        print(f"{name:30s} {out[name]}", file=sys.stderr, flush=True)
    return out


def versions() -> dict[str, str]:
    return {"python": platform.python_version(), "numpy": np.__version__}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--update", action="store_true", help="rewrite the manifest")
    args = ap.parse_args(argv)
    got = digests()
    if args.update:
        MANIFEST.write_text(json.dumps({**versions(), "sha256": got}, indent=1) + "\n",
                            encoding="utf-8")
        print(f"wrote {len(got)} digests to {MANIFEST.name}")
        return 0
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    want = manifest["sha256"]
    names = sorted(want.keys() | got.keys())
    bad = [name for name in names if want.get(name) != got.get(name)]
    for name in bad:
        print(f"MISMATCH {name}: manifest {want.get(name)}, now {got.get(name)}")
    moved = {k: (manifest.get(k), v) for k, v in versions().items() if manifest.get(k) != v}
    if bad and moved:
        print(f"note: the manifest was made under other versions {moved}")
    print(f"{len(names) - len(bad)} of {len(names)} outputs match")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
