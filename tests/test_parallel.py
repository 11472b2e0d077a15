"""Builds of the MC matrices on forked workers, and the early error paths
around them.  No test starts more than two worker processes."""

import os
from pathlib import Path

import numpy as np
import pytest
import yaml

import irsplan.runners
from irsplan.cli import main
from irsplan.config import ConfigError, config_from_dict
from irsplan.planner import StatsGrid, build_metric_matrices, link_stats_grid
from irsplan.presets import build_scene
from irsplan.runners import candidate_spots, worker_count

TINY = Path(__file__).resolve().parent.parent / "configs" / "tiny_custom.yaml"


def use_cores(monkeypatch, cores: int):
    """Size the runners' pools to ``cores`` workers, even on a one-core
    machine and for configs below the serial-run threshold."""
    monkeypatch.setattr(irsplan.runners, "pool_cores", lambda: cores)
    monkeypatch.setattr(irsplan.runners, "POOL_MIN_WORK", 0)


def write_config(tmp_path, **sections) -> str:
    data = yaml.safe_load(TINY.read_text(encoding="utf-8"))
    for key, value in sections.items():
        data[key] = {**data.get(key, {}), **value}
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(data), encoding="utf-8")
    return str(path)


# --- output does not depend on the worker count ------------------------------

@pytest.mark.parametrize("command, ext", [("deploy", "json"), ("coverage", "csv")])
def test_cli_output_identical_for_one_and_two_workers(monkeypatch, tmp_path, command, ext):
    outs = []
    for cores in (1, 2):
        use_cores(monkeypatch, cores)
        out = tmp_path / f"w{cores}.{ext}"
        assert main([command, "-c", str(TINY), "-o", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def eleven_ue_grid():
    """An 11-UE scene's config and stats grid."""
    cfg = config_from_dict(
        {
            "master_seed": 3,
            "surface": {"n_elements": 8},
            "mc": {"n_mc": 8},
            "layout": {
                "kind": "custom",
                "area_x": [-60.0, 60.0],
                "area_y": [-60.0, 60.0],
                "buildings": [[20.0, -20.0, 40.0, 20.0, 15.0]],
                "num_ues": 11,
            },
        }
    )
    scene = build_scene(cfg)
    spots = candidate_spots(cfg, scene)
    assert scene.num_ues == 11 and len(spots) > 2
    return cfg, link_stats_grid(scene, spots, cfg.ap_pattern(), cfg.erp(), cfg.rf.f_c_ghz)


def matrices(cfg, grid, **kwargs):
    return build_metric_matrices(
        grid, cfg.budget(), n_elements=8, n_mc=cfg.mc.n_mc, master_seed=cfg.master_seed, **kwargs
    )


def test_pool_grid_and_matrices_match_serial():
    cfg, grid = eleven_ue_grid()
    serial = matrices(cfg, grid)
    pooled = matrices(cfg, grid, pool=irsplan.runners._fork_pool(2))
    assert set(pooled) == set(serial) == {"active", "passive"}
    for mode in serial:
        assert np.array_equal(pooled[mode].rates, serial[mode].rates)
        assert np.array_equal(pooled[mode].avg_snr_db, serial[mode].avg_snr_db)


def test_pooled_sub_grid_with_an_origin_is_a_slice_of_the_full_matrices():
    # UE rows 1-4 against the spots from 2 on, keyed by their global pairs
    cfg, grid = eleven_ue_grid()
    full = matrices(cfg, grid)
    sub = StatsGrid(grid.direct[1:5], grid.ap_irs[2:], tuple(row[2:] for row in grid.irs_ue[1:5]))
    pooled = matrices(cfg, sub, origin=(1, 2), pool=irsplan.runners._fork_pool(2))
    for mode in full:
        assert np.array_equal(pooled[mode].rates, full[mode].rates[1:5, 2:])
        assert np.array_equal(pooled[mode].avg_snr_db, full[mode].avg_snr_db[1:5, 2:])


def test_fork_map_keeps_input_order_and_raises_worker_errors():
    pool = irsplan.runners._fork_pool(2)
    assert irsplan.runners._fork_pool(1) is None  # serial below two workers
    assert pool.map(pow, range(5), [2] * 5) == [0, 1, 4, 9, 16]
    assert pool.map(abs, [-3]) == [3] and pool.map(abs, []) == []
    with pytest.raises(ZeroDivisionError):
        pool.map(divmod, [1, 2, 3], [1, 0, 1])


def test_worker_count_caps():
    assert worker_count(100, 150, 16, cores=2) == 2  # every usable core
    assert worker_count(100, 150, 16, cores=1) == 1
    assert worker_count(3, 200, 16, cores=8) == 3    # capped at the UE rows
    # below POOL_MIN_WORK (U * M * n_mc) a run stays serial
    assert worker_count(4, 152, 4, cores=8) == 1
    assert worker_count(4, 2048, 1, cores=8) == 4    # exactly at the threshold
    assert worker_count(0, 150, 16, cores=8) == 1


# --- errors before any grid, pool or MC work ----------------------------------

@pytest.mark.parametrize(
    "command, section, field",
    [
        ("deploy", {"deploy": {"splits": [1, 8]}}, "deploy.splits"),
        ("coverage", {"coverage": {"num_surfaces": [1, 5]}}, "coverage.num_surfaces"),
    ],
)
def test_plans_larger_than_spot_count_fail_fast(
    monkeypatch, tmp_path, capsys, command, section, field
):
    def no_grid(*args, **kwargs):
        raise AssertionError("the stats grid ran before the plan sizes were checked")

    monkeypatch.setattr(irsplan.runners, "link_stats_grid", no_grid)
    path = write_config(tmp_path, **section)
    assert main([command, "-c", path, "-o", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"{field}:" in err and "the 4 candidate spots" in err


def test_overfull_street_area_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "full.yaml"
    path.write_text(
        yaml.safe_dump(
            {
                "layout": {
                    "kind": "custom",
                    "area_x": [0.0, 10.0],
                    "area_y": [0.0, 10.0],
                    "buildings": [],
                    "num_ues": 100000,
                }
            }
        ),
        encoding="utf-8",
    )
    assert main(["spots", "-c", str(path)]) == 2
    assert "layout.num_ues: could not place 100000" in capsys.readouterr().err


@pytest.mark.parametrize("section", ["deploy", "coverage"])
def test_node_budget_validated_at_parse_time(section):
    with pytest.raises(ConfigError, match=f"{section}.node_budget: must be >= 1"):
        config_from_dict({section: {"node_budget": 0}})


PARENT_PID = os.getpid()


def _die(*args):
    """Stand-in row function that kills the worker process running it."""
    if os.getpid() == PARENT_PID:
        raise AssertionError("the MC rows ran in the parent, not in a worker")
    os._exit(1)


def test_dead_worker_is_an_error_line(monkeypatch, tmp_path, capsys):
    use_cores(monkeypatch, 2)
    monkeypatch.setattr("irsplan.planner._metric_rows", _die)
    assert main(["deploy", "-c", str(TINY), "-o", str(tmp_path / "o")]) == 2
    assert "error: a worker process died" in capsys.readouterr().err
