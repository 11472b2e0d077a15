"""One implementation per step: the scalar twins run the production kernel,
every (UE, spot) draw goes through one Monte Carlo path, scenes and spots
fail through one error path, and start-up needs no scipy."""

import ast
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import irsplan
from irsplan.channel import LinkStats, leg_stats
from irsplan.cli import main
from irsplan.config import config_from_dict, load_config, parse_variant
from irsplan.geometry import scatter_street_points
from irsplan.link import MODES, PowerBudget, _amp_chunk, rate_and_snr_db, snr_from_sums, snr_series
from irsplan.patterns import ErpModel
from irsplan.runners import _grid_and_matrices, run_link_sweep, scene_and_spots
from irsplan.seeds import LEG_AP_IRS, LEG_IRS_UE, STREAM_FADING, substream

from oracles import sample_fading

BUDGET = PowerBudget(p_total=0.01, p_tx_max=0.005, bandwidth=200e3, noise_psd=1e-20)
ROOT = Path(__file__).resolve().parents[1]
TINY = ROOT / "configs" / "tiny_custom.yaml"


@pytest.mark.parametrize("k_tilde", [2.5, math.inf])
@pytest.mark.parametrize("leg", [LEG_AP_IRS, LEG_IRS_UE])
def test_sample_fading_is_the_kernel_sampler(k_tilde, leg):
    # a leg with g * rho_leg == rho draws exactly what sample_fading draws
    # from the same substream, so criterion 02 tests the production sampler
    rho, n, path = 1.7, 300, (11, 3, 4, 5)
    stats = LinkStats(g=1.0, k_factor=k_tilde, g_k=1.0, rho=rho, los=True)
    twin = sample_fading(k_tilde, rho, n, substream(*path, leg, 0))
    kernel = _amp_chunk(stats, 1, n, path, leg, 0)[0]
    assert np.array_equal(twin, kernel)


def test_passive_closed_form_skips_power_sums():
    def forbidden():
        raise AssertionError("a passive surface needs no power sums")

    a, d = np.array([1e-4, 2e-4]), np.array([1e-5, 0.0])
    gamma = snr_from_sums("passive", 4, a, d, BUDGET, forbidden)
    assert np.array_equal(gamma, BUDGET.p_total * (a + d) * (a + d) / BUDGET.noise_power)
    direct = snr_from_sums("active", 0, None, d, BUDGET, forbidden)
    assert np.array_equal(direct, BUDGET.p_total * d * d / BUDGET.noise_power)


@pytest.mark.parametrize("command", ["deploy", "coverage", "stats", "spots"])
def test_sceneless_layout_is_a_config_error(command, capsys):
    assert main([command, "--preset", "link_sweep"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: layout.kind") and "no spots" in err


def test_impossible_street_count_fails_before_drawing():
    # 100 points 2 m apart cannot fit in a 10 x 10 m area; the bound trips
    # before the generator is touched
    rng = np.random.default_rng(3)
    before = rng.bit_generator.state
    with pytest.raises(RuntimeError, match="could not place 100 street points"):
        scatter_street_points((0.0, 10.0), (0.0, 10.0), (), 100, rng)
    assert rng.bit_generator.state == before


def test_cli_import_does_not_load_scipy():
    # scipy is a test-only dependency
    src = os.path.dirname(os.path.dirname(os.path.abspath(irsplan.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, irsplan.cli; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


# --- one Monte Carlo path ---------------------------------------------------

def _scopes(match) -> set[str]:
    """"module.function" (or "module" at top level) of every AST node in
    src/irsplan that ``match`` accepts; seeds.py, which defines the tags, aside."""
    found = set()

    def visit(node, module, scope):
        if match(node):
            found.add(scope)
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{module}.{child.name}"
            visit(child, module, inner)

    for path in sorted((ROOT / "src" / "irsplan").glob("*.py")):
        if path.stem != "seeds":
            visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, path.stem)
    return found


def _names(name):
    return lambda node: (isinstance(node, ast.Name) and node.id == name) or (
        isinstance(node, ast.Attribute) and node.attr == name
    )


def _calls(name):
    return lambda node: isinstance(node, ast.Call) and _names(name)(node.func)


def test_fading_substreams_are_keyed_in_one_place():
    mc = {"planner._metric_rows", "runners.direct_only_metrics"}
    assert _scopes(_names("STREAM_FADING")) == {"planner._metric_rows"}
    assert _scopes(_calls("snr_series")) == mc
    assert _scopes(_calls("rate_and_snr_db")) == mc
    cli = ast.parse((ROOT / "src" / "irsplan" / "cli.py").read_text(encoding="utf-8"))
    imported = {n.module for n in ast.walk(cli) if isinstance(n, ast.ImportFrom)}
    assert not imported & {"link", "seeds"}


def test_runners_call_the_solvers_by_their_traced_names():
    # the benchmark tracer swaps these names in runners' globals, so the
    # runners import them unrenamed and call them bare; of planner's
    # private names they import only _extend_plan
    tree = ast.parse((ROOT / "src" / "irsplan" / "runners.py").read_text(encoding="utf-8"))
    imported = {
        alias.name: alias.asname
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module == "planner"
        for alias in node.names
    }
    assert {name for name in imported if name.startswith("_")} == {"_extend_plan"}
    traced = {"solve_greedy_swap", "solve_bnb", "solve_exact", "_extend_plan"}
    assert all(name in imported and imported[name] is None for name in traced)
    funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    called = {
        node.func.id
        for name in ("_solve", "run_coverage")
        for node in ast.walk(funcs[name])
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    assert traced <= called


def test_stats_equals_its_matrix_entry(capsys):
    # stats builds a 1 x 1 grid at the pair's global index, so it must draw
    # what the deploy/coverage matrices draw for that pair
    cfg = load_config(str(TINY))
    scene, spots = scene_and_spots(cfg)
    n = cfg.surface.n_elements
    matrices, _ = _grid_and_matrices(cfg, scene, spots, [n], MODES)
    pairs = [(u, m) for u in range(scene.num_ues) for m in range(len(spots))]
    assert len(pairs) == 12
    for u, m in pairs:
        assert main(["stats", "-c", str(TINY), "--ue", str(u), "--spot", str(m)]) == 0
        metrics = json.loads(capsys.readouterr().out)["metrics"]
        assert set(metrics) == set(MODES)
        for mode in MODES:
            assert metrics[mode] == {
                "ergodic_rate_bps_hz": float(matrices[n][mode].rates[u, m]),
                "avg_snr_db": float(matrices[n][mode].avg_snr_db[u, m]),
            }


def test_sweep_rows_draw_the_distance_substream():
    # distance pi of the sweep is spot pi of a one-UE grid: (seed, FADING, 0, pi)
    cfg = config_from_dict({
        "preset": "link_sweep",
        "master_seed": 11,
        "sweep": {
            "r_ai_m": [30.0, 120.0, 210.0],
            "n_mc": 40,
            "variants": ["active8_q1", "passive16_q3", "ap_only", "passive4_q1"],
        },
    })
    sweep = cfg.sweep
    ap = (0.0, 0.0, cfg.ap.height)
    ue = (sweep.ue_x, sweep.ue_y, cfg.layout.ue_height)
    normal = (0.0, -1.0, 0.0)
    f_c = cfg.rf.f_c_ghz
    stats_d = leg_stats("ap_ue", ap, ue, f_c, False, ap_pattern=cfg.ap_pattern())
    rows = run_link_sweep(cfg)["rows"]
    assert len(rows) == len(sweep.r_ai_m) * len(sweep.variants)
    checked = 0
    for k, row in enumerate(rows):
        pi = k // len(sweep.variants)
        assert row["r_ai_m"] == sweep.r_ai_m[pi]
        assert row["variant"] == sweep.variants[k % len(sweep.variants)]
        mode, n_elements, q = parse_variant(row["variant"])
        if mode == "none":
            continue
        spot = (sweep.r_ai_m[pi], sweep.irs_y, sweep.irs_z)
        erp = ErpModel(q)
        series = snr_series(
            stats_d,
            leg_stats("ap_irs", ap, spot, f_c, True, ap_pattern=cfg.ap_pattern(), erp=erp,
                      normal=normal),
            leg_stats("irs_ue", ue, spot, f_c, True, erp=erp, normal=normal),
            n_elements,
            cfg.budget(),
            n_mc=sweep.n_mc,
            seed_path=(cfg.master_seed, STREAM_FADING, 0, pi),
            modes=(mode,),
        )[mode]
        assert (row["ergodic_rate_bps_hz"], row["avg_snr_db"]) == rate_and_snr_db(series)
        checked += 1
    assert checked == 9
