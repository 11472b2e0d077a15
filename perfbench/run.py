"""Benchmark of the irsplan planning pipeline.

One workload, one mode:

    python3 perfbench/run.py --workload deploy_split --seed 1 --seconds 20 --trace 0

prints, as the last line of stdout, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.

All four workloads, both modes, with a table of every metric:

    python3 perfbench/run.py --all

Each round runs in a fresh child process (perfbench/child.py) against the
sources in ./src of the checkout; nothing is installed or built.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
MIN_ROUNDS = 2      # two outputs to compare byte for byte
CHILD_TIMEOUT = 170  # seconds; a round that takes longer fails the run

sys.path.insert(0, str(HERE))
from tracer import UNTRACED_SHARE  # noqa: E402
from workloads import WORKLOADS, make_config  # noqa: E402


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _spec_units(key: str) -> dict[str, str]:
    """name -> unit of the metrics BENCHMARK.json lists under ``key``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[key]}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc())
    return env


def run_child(workload: str, config: Path, out: Path, *flags: str) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(config), str(out),
           str(ROOT / "src"), *flags]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: a round ran past {CHILD_TIMEOUT} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload}: round exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """Whole rounds of one workload until ``seconds`` are used up."""
    if not (ROOT / "src" / "irsplan" / "__init__.py").is_file():
        raise BenchError(f"no irsplan sources under {ROOT / 'src'}")
    import yaml  # an irsplan dependency; present wherever irsplan runs

    RESULTS.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}" + ("" if size == "full" else f"-{size}")
    config = RESULTS / f"{stem}.yaml"
    config.write_text(yaml.safe_dump(make_config(name, seed, size), sort_keys=False),
                      encoding="utf-8")
    ext = WORKLOADS[name][1]
    spans = RESULTS / f"{stem}-spans.json"
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=RESULTS))
    try:
        rounds = []
        start = time.perf_counter()
        while True:
            traced = trace and len(rounds) % 2 == 1
            began = time.perf_counter()
            flags = ("--trace", str(spans)) if traced else ()
            r = run_child(name, config, tmp / f"out{len(rounds)}.{ext}", *flags)
            r["traced"] = traced
            rounds.append(r)
            now = time.perf_counter()
            if len(rounds) >= MIN_ROUNDS and now - start + (now - began) > seconds:
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return summarize(rounds, trace)


def summarize(rounds: list[dict], trace: bool) -> dict:
    errors = [e for r in rounds for e in r["errors"]]
    digests = {r.get("sha256") for r in rounds}
    if len(digests) != 1:
        errors.append("rounds with the same seed wrote different output")
    plain = [r for r in rounds if not r["traced"]]
    med = statistics.median
    if not trace:
        metrics = {
            "setup_s": med(r["setup_s"] for r in rounds),
            "wall_s": med(r["wall_s"] for r in plain),
            "peak_rss_mib": med(r["peak_rss_mib"] for r in plain),
        }
    else:
        traced = [r for r in rounds if r["traced"]]
        for r in traced:
            if r["layers"]["untraced.s"] > UNTRACED_SHARE * r["wall_s"]:
                errors.append(f"untraced.s {r['layers']['untraced.s']:.3f} s is more than "
                              f"{UNTRACED_SHARE:.0%} of the traced wall time {r['wall_s']:.3f} s")
        metrics = {k: med(r["layers"][k] for r in traced) for k in traced[0]["layers"]}
        proven = metrics.pop("solve.proven")
        calls = metrics["solve.calls"]
        metrics["solve.proven_ratio"] = proven / calls if calls else 0.0
        metrics["run.cpu_s"] = med(r["cpu_s"] for r in plain)
        metrics["trace.wall_s"] = med(r["wall_s"] for r in traced)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - med(r["wall_s"] for r in plain)
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    dropped = sum(r.get("counter_errors", 0) for r in rounds)
    if dropped:
        print(f"{dropped} layer counts dropped: a wrapped call no longer fits its counter",
              file=sys.stderr)
    units = _spec_units("per_layer" if trace else "end_to_end")
    return {
        "correct": not errors,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def run_all(seed: int, seconds: float) -> dict:
    """Every workload untraced and traced, printed as a table."""
    table = {}
    for name in WORKLOADS:
        for trace in (False, True):
            res = run_workload(name, seed, seconds, trace)
            table[f"{name}/trace{int(trace)}"] = res
            print(f"{name} (trace {int(trace)}): correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}", flush=True)
            for k, m in res["metrics"].items():
                print(f"  {k:24s} {m['value']:14.6g} {m['unit']}", flush=True)
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / "summary.json").write_text(json.dumps(table, indent=1), encoding="utf-8")
    return {
        "correct": all(r["correct"] for r in table.values()),
        "attempted": sum(r["attempted"] for r in table.values()),
        "failed": sum(r["failed"] for r in table.values()),
        "metrics": {f"{k}/{n}": m for k, r in table.items() for n, m in r["metrics"].items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--all", action="store_true", help="run every workload, both modes")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.all == (args.workload is not None):
        ap.error("give exactly one of --workload and --all")
    try:
        if args.all:
            result = run_all(args.seed, args.seconds)
        else:
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
