"""The benchmark harness on its tiny workloads: every traced target is in
place, every counter fits, and each output passes its recomputing check.

perfbench/ is imported read-only; each workload runs in this process under
a fresh tracer, whose wrappers are taken off again afterwards.
"""

import json
import sys
from pathlib import Path

import pytest
import yaml

import irsplan.cli
import irsplan.config
import irsplan.planner  # noqa: F401 - a traced module
import irsplan.runners  # noqa: F401 - a traced module

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_workload_passes_its_checks(tmp_path, name):
    command, suffix, _ = workloads.WORKLOADS[name]
    cfg_path = tmp_path / f"{name}.yaml"
    cfg_path.write_text(yaml.safe_dump(workloads.make_config(name, 3, "tiny")), encoding="utf-8")
    out = tmp_path / f"{name}.{suffix}"
    originals = {(m, a): getattr(sys.modules[m], a) for m, a, *_ in tracer.TARGETS}
    traced = tracer.Tracer()
    try:
        traced.install(sys.modules)
        rc = irsplan.cli.main([command, "-c", str(cfg_path), "-o", str(out)])
    finally:
        for (m, a), fn in originals.items():
            setattr(sys.modules[m], a, fn)
    assert rc == 0
    assert traced.counter_errors == 0

    cfg = irsplan.config.load_config(str(cfg_path))
    full = irsplan.config.config_to_dict(cfg)
    if command == "deploy":
        doc = json.loads(out.read_text(encoding="utf-8"))
        faults = checks.check_deploy(full, doc, traced.captured)
    elif command == "coverage":
        meta, rows = checks.read_csv(str(out))
        faults = checks.check_coverage(full, meta, rows, traced.captured)
    else:
        _, rows = checks.read_csv(str(out))
        faults = checks.check_sweep(full, cfg, rows)
    assert faults == []
