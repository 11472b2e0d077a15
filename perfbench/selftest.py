"""Fast self-test of the benchmark itself (about ten seconds):

    python3 perfbench/selftest.py

1. A run of each mode on the tiny deploy_split config reports every metric
   that BENCHMARK.json names, with correct = true and no failed operation.
2. The tiny output of every workload, produced in this process under the
   tracer, passes its checker; untraced.s stays within its share of the
   traced wall time, and a traced target that is gone stops the round.
3. Each checker rejects a deliberately corrupted copy of its output: an
   assignment to an unchosen spot, a coverage row that drops with J, and a
   sweep row moved off the closed form.  The fault is pinned on the
   corrupted entry, which then counts as one failed operation.
"""

from __future__ import annotations

import copy
import json
import sys
import tempfile
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
from tracer import TARGETS, UNTRACED_SHARE, Tracer  # noqa: E402
from workloads import WORKLOADS, make_config  # noqa: E402

FAILURES: list[str] = []


def expect(ok: bool, what: str):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def rejects(faults: list, entry: int, word: str, produced: int) -> bool:
    """The checker pins the planted fault on its entry, and only there."""
    return (any(e == entry and word in msg for e, msg in faults)
            and checks.failed_entries(faults, produced) == 1)


def metric_names():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        res = run.run_workload("deploy_split", 3, 0.0, trace, size="tiny")
        names = {m["name"] for m in spec[key]}
        expect(set(res["metrics"]) == names, f"trace {int(trace)} reports every {key} metric")
        expect(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
               f"trace {int(trace)} run is correct with no failed operation")


def traced_output(name: str, tmp: Path):
    """Run a tiny workload in this process under a fresh tracer."""
    import irsplan.cli
    import irsplan.config
    import irsplan.planner  # noqa: F401 - the tracer patches it
    import irsplan.runners  # noqa: F401
    import yaml

    cfg_path = tmp / f"{name}.yaml"
    cfg_path.write_text(yaml.safe_dump(make_config(name, 3, "tiny")), encoding="utf-8")
    out = tmp / f"{name}.{WORKLOADS[name][1]}"
    tracer = Tracer()
    originals = {(m, a): getattr(sys.modules[m], a) for m, a, *_ in TARGETS}
    tracer.install(sys.modules)
    try:
        start = time.perf_counter()
        rc = irsplan.cli.main([WORKLOADS[name][0], "-c", str(cfg_path), "-o", str(out)])
        wall = time.perf_counter() - start
    finally:
        for (m, a), fn in originals.items():
            setattr(sys.modules[m], a, fn)
    expect(rc == 0, f"{name}: tiny run exits 0")
    untraced = tracer.layer_metrics(wall)["untraced.s"]
    expect(0.0 <= untraced <= UNTRACED_SHARE * wall,
           f"{name}: untraced.s {untraced:.4f} s within {UNTRACED_SHARE:.0%} of {wall:.3f} s")
    cfg = irsplan.config.load_config(str(cfg_path))
    return cfg, irsplan.config.config_to_dict(cfg), out, tracer.captured


def missing_target():
    """A traced call that is gone stops the round instead of going untimed."""
    import irsplan.cli  # noqa: F401 - imports every traced module

    modules = {m: types.SimpleNamespace(**vars(sys.modules[m])) for m, *_ in TARGETS}
    del modules["irsplan.runners"].build_metric_matrices
    try:
        Tracer().install(modules)
    except LookupError:
        stopped = True
    else:
        stopped = False
    expect(stopped, "the tracer refuses a target that is gone")


def corruptions(tmp: Path):
    cfg, full, out, cap = traced_output("deploy_bnb", tmp)
    doc = json.loads(out.read_text(encoding="utf-8"))
    expect(not checks.check_deploy(full, doc, cap), "deploy checker passes the B&B output")

    cfg, full, out, cap = traced_output("deploy_split", tmp)
    doc = json.loads(out.read_text(encoding="utf-8"))
    expect(not checks.check_deploy(full, doc, cap), "deploy checker passes the real output")
    bad = copy.deepcopy(doc)
    plan = bad["results"][-1]
    chosen = {c["id"] for c in plan["chosen_spots"]}
    plan["assignment"][0] = min(set(range(bad["num_spots"])) - chosen)
    expect(rejects(checks.check_deploy(full, bad), len(doc["results"]) - 1, "unchosen",
                   len(doc["results"])),
           "deploy checker rejects an assignment to an unchosen spot")

    cfg, full, out, cap = traced_output("coverage_wide", tmp)
    meta, rows = checks.read_csv(str(out))
    expect(not checks.check_coverage(full, meta, rows, cap),
           "coverage checker passes the real output")
    bad = copy.deepcopy(rows)
    u = int(meta["num_ues"])
    j_rows = [i for i, r in enumerate(bad)
              if r["mode"] == "active" and r["threshold_db"] == "20.0"]
    j1, j2 = j_rows[0], j_rows[1]
    if float(bad[j1]["coverage_ratio"]) < 1.0 / u:
        bad[j1]["coverage_ratio"] = repr(1.0 / u)
    bad[j2]["coverage_ratio"] = repr(float(bad[j1]["coverage_ratio"]) - 1.0 / u)
    expect(rejects(checks.check_coverage(full, meta, bad), j2, "drops", len(rows)),
           "coverage checker rejects a row that drops with J")

    cfg, full, out, cap = traced_output("link_sweep", tmp)
    _, rows = checks.read_csv(str(out))
    expect(not checks.check_sweep(full, cfg, rows), "sweep checker passes the real output")
    bad = copy.deepcopy(rows)
    i = next(i for i, r in enumerate(bad) if r["variant"] == "passive64_q1")
    bad[i]["avg_snr_db"] = repr(float(bad[i]["avg_snr_db"]) + 3.0)
    expect(rejects(checks.check_sweep(full, cfg, bad), i, "closed form", len(rows)),
           "sweep checker rejects a row off the closed form")


def main() -> int:
    metric_names()
    missing_target()
    run.RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.RESULTS) as tmp:
        corruptions(Path(tmp))
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
