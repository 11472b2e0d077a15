"""Command-line interface: exit codes, output formats, determinism."""

import json
import math
import time
import warnings
from pathlib import Path

import pytest
import yaml

import irsplan.runners
from irsplan.cli import main, write_csv, write_json
from irsplan.config import config_from_dict, load_config, scenario_fingerprint
from irsplan.patterns import ap_average_gain
from irsplan.planner import PlanSolution, _extend_plan, solve_greedy_swap
from irsplan.presets import build_scene
from irsplan.runners import candidate_spots, parse_variant, run_coverage

TINY_CUSTOM = Path(__file__).resolve().parents[1] / "configs" / "tiny_custom.yaml"

TINY = {
    "preset": "custom",
    "master_seed": 5,
    "surface": {"n_elements": 8, "n_total": 8},
    "mc": {"n_mc": 8},
    "layout": {
        "kind": "custom",
        "area_x": [-60.0, 60.0],
        "area_y": [-60.0, 60.0],
        "buildings": [[20.0, -20.0, 40.0, 20.0, 15.0]],
        "ues_xy": [[-30.0, 0.0], [0.0, -40.0], [50.0, 30.0]],
    },
    "deploy": {"splits": [1, 2], "solver": "greedy"},
    "coverage": {"num_surfaces": [1, 2], "solver": "greedy"},
    "sweep": {
        "r_ai_m": [50.0, 100.0],
        "n_mc": 32,
        "variants": ["active8_q1", "passive8_q1", "ap_only"],
    },
}


@pytest.fixture
def tiny_cfg(tmp_path):
    path = tmp_path / "tiny.yaml"
    path.write_text(yaml.safe_dump(TINY), encoding="utf-8")
    return str(path)


def read_csv(path):
    meta, header, rows = {}, None, []
    for line in open(path, encoding="utf-8").read().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(dict(zip(header, line.split(","))))
    return meta, header, rows


# --- generic behavior -------------------------------------------------------

def test_version_flag(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0
    assert "irsplan" in capsys.readouterr().out


def test_missing_config_and_preset_fails(capsys):
    assert main(["validate"]) == 2
    assert "config error" in capsys.readouterr().err


def test_invalid_config_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump({"rf": {"nope": 1}}), encoding="utf-8")
    assert main(["validate", "-c", str(path)]) == 2
    assert "rf.nope" in capsys.readouterr().err


def _with(override: dict, base: dict = TINY) -> dict:
    """base with override merged in, section by section."""
    out = {**base}
    for key, value in override.items():
        out[key] = {**base.get(key, {}), **value} if isinstance(value, dict) else value
    return out


# Figures that are in range as typed but not once converted for the model:
# watts or a noise power that underflow to 0, a wavelength, element spacing
# or array gain out of range, an element peak gain 2 (q + 1) that overflows.
UNCONVERTIBLE = [
    ({"rf": {"noise_psd_dbm_hz": -4000.0}}, "rf.noise_psd_dbm_hz"),
    ({"rf": {"bandwidth_hz": 1e-320}}, "rf.bandwidth_hz"),
    ({"rf": {"f_c_ghz": 1e-320}}, "rf.f_c_ghz"),
    ({"rf": {"f_c_ghz": 1e300}}, "rf.f_c_ghz"),
    ({"power": {"p_total_mw": 1e-323}}, "power.p_total_mw"),
    ({"power": {"p_tx_max_mw": 1e-323}}, "power.p_tx_max_mw"),
    ({"surface": {"erp_exponent": 1e308}}, "surface.erp_exponent"),
    ({"ap": {"element_spacing_wavelengths": 1e-323}}, "ap.element_spacing_wavelengths"),
    ({"ap": {"element_max_gain": 5e-324, "tilt_deg": 89.0}}, "ap.element_max_gain"),
    ({"ap": {"element_max_gain": 1.0e308}}, "ap.element_max_gain"),  # an infinite peak gain
    ({"ap": {"num_elements": 10**400}}, "ap.num_elements"),  # no float holds M
    # an array-factor phase pi M d_e / lambda past the float range
    ({"ap": {"element_spacing_wavelengths": 1.0e308}}, "ap.element_spacing_wavelengths"),
]


@pytest.mark.parametrize(
    "override, extra, field",
    [
        ({"master_seed": -1}, [], "master_seed"),
        ({}, ["--seed", "-1"], "master_seed"),
        ({"ap": {"tilt_deg": 95.0}}, [], "ap.tilt_deg"),
        ({"ap": {"num_elements": 0}}, [], "ap.num_elements"),
        ({"ap": {"element_max_gain": 0.0}}, [], "ap.element_max_gain"),
        ({"ap": {"element_spacing_wavelengths": 0.0}}, [], "ap.element_spacing_wavelengths"),
        ({"layout": {"num_ues": -3, "ues_xy": None}}, [], "layout.num_ues"),
        ({"layout": {"num_ues": 0, "ues_xy": None}}, [], "layout.num_ues"),
        ({"layout": {"ues_xy": []}}, [], "layout.ues_xy"),
        ({"layout": {"buildings": [[40.0, -20.0, 20.0, 20.0, 15.0]]}}, [], "layout.buildings[0]"),
        ({"layout": {"area_x": [60.0, -60.0]}}, [], "layout.area_x"),
        ({"layout": {"ues_xy": [[30.0, 0.0]]}}, [], "layout.ues_xy"),   # inside the building
        ({"layout": {"ues_xy": [[90.0, 0.0]]}}, [], "layout.ues_xy"),   # outside the area
        ({"layout": {"ue_height": 30.0}}, [], "layout.ue_height"),      # above the AP
        ({"sweep": {"variants": ["foo"]}}, [], "sweep.variants"),
        ({"rf": {"noise_psd_dbm_hz": 4000.0}}, [], "rf.noise_psd_dbm_hz"),  # overflows watts
        # on candidate spot 0 of the building's -x face
        ({"layout": {"ues_xy": [[0.0, -40.0], [20.0, -15.0]], "ue_height": 8.5}}, [], "layout.ues_xy[1]"),
        *[(override, [], field) for override, field in UNCONVERTIBLE],
        # more street UEs than floats can count
        ({"layout": {"num_ues": 10**400, "ues_xy": None}}, [], "layout.num_ues"),
        ({"sweep": {"variants": ["active0_q1"]}}, [], "sweep.variants"),  # no elements
    ],
)
def test_bad_model_inputs_name_their_field(tmp_path, capsys, override, extra, field):
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(_with(override)), encoding="utf-8")
    assert main(["deploy", "-c", str(path), "-o", str(tmp_path / "o"), *extra]) == 2
    assert f"config error: {field}:" in capsys.readouterr().err


@pytest.mark.parametrize("override, field", UNCONVERTIBLE)
def test_validate_refuses_unconvertible_figures(tmp_path, capsys, override, field):
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(_with(override)), encoding="utf-8")
    assert main(["validate", "-c", str(path), "-o", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {field}:")


def test_overflowing_array_phase_warns_nothing(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text(
        yaml.safe_dump(_with({"ap": {"element_spacing_wavelengths": 1.0e308}})), encoding="utf-8"
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for command in ("validate", "deploy"):
            ap_average_gain.cache_clear()  # a cached gain would skip the quadrature
            assert main([command, "-c", str(path), "-o", str(tmp_path / "o")]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: ap.element_spacing_wavelengths:")
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize(
    "section, key, command",
    [
        ("deploy", "splits", "deploy"),
        ("deploy", "modes", "deploy"),
        ("coverage", "num_surfaces", "coverage"),
        ("coverage", "thresholds_db", "coverage"),
        ("coverage", "modes", "coverage"),
        ("sweep", "r_ai_m", "link-sweep"),
        ("sweep", "variants", "link-sweep"),
    ],
)
def test_empty_study_list_is_refused(tmp_path, capsys, section, key, command):
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(_with({section: {key: []}})), encoding="utf-8")
    for cmd in ("validate", command):
        assert main([cmd, "-c", str(path), "-o", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: {section}.{key}: must list at least one entry\n"
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "thresholds, first, second",
    [([20.0, 20.0000001], "20.0", "20.0000001"), ([20, 20], "20.0", "20.0")],
)
def test_report_thresholds_that_print_alike_are_refused(
    tmp_path, capsys, thresholds, first, second
):
    # deploy keys its coverage ratios by f"{t:g}", so one entry would be lost
    path = tmp_path / "bad.yaml"
    path.write_text(
        yaml.safe_dump(_with({"deploy": {"report_thresholds_db": thresholds}})), encoding="utf-8"
    )
    for command in ("validate", "deploy"):
        assert main([command, "-c", str(path), "-o", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            f"config error: deploy.report_thresholds_db: {first} and {second} both print as '20'\n"
        )
        assert not (tmp_path / "o").exists()


def test_sweep_exponent_whose_peak_gain_overflows(tmp_path, capsys):
    # 400 nines parse to an infinite q
    path = tmp_path / "bad.yaml"
    path.write_text(
        yaml.safe_dump(_with({"sweep": {"variants": ["active64_q" + "9" * 400]}})),
        encoding="utf-8",
    )
    for command in ("link-sweep", "validate"):
        assert main([command, "-c", str(path), "-o", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("config error: sweep.variants:")


@pytest.mark.parametrize(
    "command, base, f_c",
    [
        ("deploy", "tiny", 1.0e-300),
        ("coverage", "tiny", 1.0e-300),
        ("stats", "tiny", 1.0e-300),
        ("link-sweep", "sweep", 1.0e-300),
        # the direct leg stays finite; the 20 m AP-surface leg overflows
        ("link-sweep", "sweep", 1.0e-158),
    ],
    ids=["deploy-tiny", "coverage-tiny", "stats-tiny", "link-sweep-sweep", "link-sweep-surface-leg"],
)
def test_carrier_whose_path_gain_overflows(tmp_path, capsys, command, base, f_c):
    # 1e-300 GHz passes validate (a finite wavelength), but its path gain
    # of some +5900 dB leaves the float range on the first leg
    cfg = yaml.safe_load(TINY_CUSTOM.read_text(encoding="utf-8"))
    cfg = _with({"rf": {"f_c_ghz": f_c}}, cfg if base == "tiny" else {"preset": "link_sweep"})
    path = tmp_path / "low_carrier.yaml"
    path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    assert main(["validate", "-c", str(path), "-o", str(tmp_path / "v")]) == 0
    assert main([command, "-c", str(path), "-o", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: rf.f_c_ghz: {f_c!r} GHz")
    assert "sweep.r_ai_m" not in err


@pytest.mark.parametrize(
    "command, extra",
    [
        ("deploy", []),
        ("coverage", []),
        ("stats", ["--ue", "0", "--spot", "0"]),
        ("link-sweep", []),
    ],
    ids=["deploy", "coverage", "stats", "link-sweep"],
)
def test_snr_past_the_float_range_is_an_error_line(tmp_path, capsys, command, extra):
    # every field is in range, but the passive surface's p G / (N0 B) is inf
    cfg = _with({"power": {"p_total_mw": 1e308}}, yaml.safe_load(TINY_CUSTOM.read_text("utf-8")))
    path = tmp_path / "loud.yaml"
    path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # no numpy warning before the line
        assert main([command, "-c", str(path), *extra, "-o", str(tmp_path / "o")]) == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.startswith("error: average SNR E{gamma} = p G / (N0 B) is inf")
    assert "power.p_total_mw" in last and "rf.noise_psd_dbm_hz" in last
    assert not (tmp_path / "o").exists()


def test_unallocatable_sizes_are_an_error_line(tmp_path, capsys):
    # numpy refuses 10**13 draws per mode before allocating any of them
    path = tmp_path / "huge.yaml"
    path.write_text(yaml.safe_dump(_with({"mc": {"n_mc": 10**13}})), encoding="utf-8")
    assert main(["coverage", "-c", str(path), "-o", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_validate_writes_normalized_config(tiny_cfg, tmp_path):
    out = tmp_path / "v.json"
    assert main(["validate", "-c", tiny_cfg, "-o", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["meta"]["tool"] == "irsplan"
    assert payload["meta"]["scenario"] == scenario_fingerprint(load_config(tiny_cfg))
    assert payload["config"]["rf"]["f_c_ghz"] == 2.0
    assert payload["config"]["master_seed"] == 5
    assert payload["config"]["layout"]["kind"] == "custom"


def test_validate_defaults_to_stdout(tiny_cfg, capsys):
    assert main(["validate", "-c", tiny_cfg]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["surface"]["n_elements"] == 8


def test_seed_override(tiny_cfg, capsys):
    assert main(["validate", "-c", tiny_cfg, "--seed", "99"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["master_seed"] == 99


# --- pattern-dump -----------------------------------------------------------

def test_pattern_dump_curves(tiny_cfg, tmp_path):
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["pattern-dump", "-c", tiny_cfg, "-o", str(out_a)]) == 0
    assert main(["pattern-dump", "-c", tiny_cfg, "-o", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    meta, header, rows = read_csv(str(out_a))
    assert header == ["theta_deg", "ap_pattern", "erp"]
    assert len(rows) == 359
    thetas = [float(r["theta_deg"]) for r in rows]
    assert thetas[0] == -89.5 and thetas[-1] == 89.5
    assert all(b - a == 0.5 for a, b in zip(thetas, thetas[1:]))
    cfg = load_config(tiny_cfg)
    assert float(meta["ap_peak_gain"]) == cfg.ap_pattern().peak_gain
    assert float(meta["erp_peak_gain"]) == 4.0  # boresight gain of the q=1 element
    by_theta = {float(r["theta_deg"]): r for r in rows}
    assert float(by_theta[0.0]["erp"]) == 1.0  # normalized pattern peaks at broadside
    assert all(0.0 <= float(r["erp"]) <= 1.0 for r in rows)


# --- spots ------------------------------------------------------------------

def test_spots_csv_matches_api(tiny_cfg, tmp_path):
    out = tmp_path / "spots.csv"
    assert main(["spots", "-c", tiny_cfg, "-o", str(out)]) == 0
    meta, header, rows = read_csv(str(out))
    cfg = load_config(tiny_cfg)
    spots = candidate_spots(cfg, build_scene(cfg))
    assert int(meta["num_spots"]) == len(spots) == len(rows)
    assert [int(r["id"]) for r in rows] == list(range(len(rows)))
    for row, spot in zip(rows, spots):
        assert (float(row["x"]), float(row["y"]), float(row["z"])) == spot.position
        n = (float(row["nx"]), float(row["ny"]), float(row["nz"]))
        assert n == spot.facet_normal
        assert math.hypot(*n) == pytest.approx(1.0, rel=1e-12)
    # only the AP-facing facade of the single building survives filtering
    assert all(r["nx"] == "-1.0" for r in rows)


def test_spots_needs_a_scene(capsys):
    assert main(["spots", "--preset", "link_sweep"]) == 2
    assert "no spots" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["grid_w", "grid_h"])
def test_spots_refuses_a_grid_too_fine_to_enumerate(tmp_path, capsys, key):
    # 1e-9 m cells would cut the one facade of tiny_custom into ~1e10 spots;
    # with 1e-320 m cells the count overflows to inf
    for step in (1e-9, 1e-320):
        cfg = yaml.safe_load(TINY_CUSTOM.read_text(encoding="utf-8"))
        cfg["layout"][key] = step
        path = tmp_path / "fine.yaml"
        path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
        t0 = time.perf_counter()
        assert main(["spots", "-c", str(path), "-o", str(tmp_path / "o")]) == 2
        assert time.perf_counter() - t0 < 1.0
        assert "config error: layout.grid_w/grid_h:" in capsys.readouterr().err


# --- stats ------------------------------------------------------------------

def test_stats_reports_legs_and_metrics(tiny_cfg, tmp_path):
    out = tmp_path / "stats.json"
    assert main(["stats", "-c", tiny_cfg, "--ue", "0", "--spot", "0", "-o", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["ue"] == 0 and payload["spot"] == 0
    assert set(payload["legs"]) == {"ap_ue", "ap_irs", "irs_ue"}
    for leg in payload["legs"].values():
        assert {"path_gain_db", "k_factor", "k_tilde", "rho", "los"} <= set(leg)
        assert leg["path_gain_db"] < 0.0
        assert leg["rho"] > 0.0
    assert payload["legs"]["ap_irs"]["los"] is True
    for mode in ("active", "passive"):
        metrics = payload["metrics"][mode]
        assert metrics["ergodic_rate_bps_hz"] > 0.0
        assert math.isfinite(metrics["avg_snr_db"])


def test_stats_validates_indices(tiny_cfg, capsys):
    assert main(["stats", "-c", tiny_cfg, "--ue", "99"]) == 2
    assert "--ue" in capsys.readouterr().err
    assert main(["stats", "-c", tiny_cfg, "--spot", "99"]) == 2
    assert "--spot" in capsys.readouterr().err


# --- link-sweep -------------------------------------------------------------

def test_link_sweep_rows_and_determinism(tiny_cfg, tmp_path):
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["link-sweep", "-c", tiny_cfg, "-o", str(out_a)]) == 0
    assert main(["link-sweep", "-c", tiny_cfg, "-o", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    meta, _, rows = read_csv(str(out_a))
    assert meta["tool"] == "irsplan"
    assert len(rows) == 2 * 3  # two distances, three variants
    ap_only = [r for r in rows if r["variant"] == "ap_only"]
    assert len(ap_only) == 2
    assert ap_only[0]["ergodic_rate_bps_hz"] == ap_only[1]["ergodic_rate_bps_hz"]
    assert ap_only[0]["avg_snr_db"] == ap_only[1]["avg_snr_db"]
    active = [r for r in rows if r["variant"] == "active8_q1"]
    assert [r["mode"] for r in active] == ["active", "active"]
    assert all(int(r["n_elements"]) == 8 for r in active)
    assert all(float(r["ergodic_rate_bps_hz"]) > 0.0 for r in rows)


@pytest.mark.parametrize(
    "irs_xyz",
    [(0.0, 0.0, 25.0), (250.0, 0.0, 1.5), (0.0, 0.0, 40.0)],
    ids=["on_the_ap", "on_the_ue", "straight_above_the_ap"],
)
def test_link_sweep_surface_at_a_link_end_names_its_distance(tmp_path, capsys, irs_xyz):
    # the AP stands at (0, 0, 25) and the sweep's UE at (250, 0, 1.5)
    r_ai, irs_y, irs_z = irs_xyz
    sweep = {"r_ai_m": [50.0, r_ai], "irs_y": irs_y, "irs_z": irs_z}
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(_with({"sweep": sweep})), encoding="utf-8")
    assert main(["link-sweep", "-c", str(path), "-o", str(tmp_path / "o")]) == 2
    assert "config error: sweep.r_ai_m[1]:" in capsys.readouterr().err


def test_parse_variant_labels():
    assert parse_variant("active64_q1") == ("active", 64, 1.0)
    assert parse_variant("passive4096_q3") == ("passive", 4096, 3.0)
    assert parse_variant("ap_only") == ("none", 0, None)
    with pytest.raises(ValueError):
        parse_variant("hybrid64_q1")
    with pytest.raises(ValueError, match="element count must be positive"):
        parse_variant("active0_q1")


# --- deploy -----------------------------------------------------------------

def test_deploy_json_structure_and_determinism(tiny_cfg, tmp_path):
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["deploy", "-c", tiny_cfg, "-o", str(out_a)]) == 0
    assert main(["deploy", "-c", tiny_cfg, "-o", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    payload = json.loads(out_a.read_text())
    assert payload["budget_exhausted"] is False
    assert payload["num_ues"] == 3 and payload["n_total"] == 8
    assert set(payload["no_surface"]["coverage"]) == {"20", "30"}
    results = payload["results"]
    assert len(results) == 4  # two splits x two modes
    for entry in results:
        assert entry["mode"] in ("active", "passive")
        assert len(entry["chosen_spots"]) == entry["split"]
        assert entry["n_per_surface"] * entry["split"] == 8
        assert len(entry["assignment"]) == 3
        assert entry["optimality"] == "heuristic" and entry["solver"] == "greedy_swap"
        assert 0.0 < entry["fairness"] <= 1.0
        chosen_ids = {s["id"] for s in entry["chosen_spots"]}
        assert set(entry["assignment"]) <= chosen_ids


def test_deploy_budget_exhaustion_exit_code(monkeypatch, tiny_cfg, tmp_path):
    monkeypatch.setattr(
        "irsplan.cli.run_deployment", lambda cfg: {"budget_exhausted": True}
    )
    out = tmp_path / "x.json"
    assert main(["deploy", "-c", tiny_cfg, "-o", str(out)]) == 3
    assert json.loads(out.read_text()) == {"budget_exhausted": True}


# --- coverage ---------------------------------------------------------------

def test_coverage_ratios_monotone_in_surfaces(tiny_cfg, tmp_path):
    out = tmp_path / "cov.csv"
    assert main(["coverage", "-c", tiny_cfg, "-o", str(out)]) == 0
    meta, _, rows = read_csv(str(out))
    assert int(meta["num_ues"]) == 3
    # per threshold: one no-surface baseline plus two J values per mode
    assert len(rows) == 2 * (1 + 2 * 2)
    for r in rows:
        assert 0.0 <= float(r["coverage_ratio"]) <= 1.0
    for threshold in ("20.0", "30.0"):
        for mode in ("active", "passive"):
            ratios = [
                float(r["coverage_ratio"])
                for r in rows
                if r["mode"] == mode and r["threshold_db"] == threshold
            ]
            assert len(ratios) == 2
            assert ratios[0] <= ratios[1]
    baselines = [r for r in rows if r["mode"] == "none"]
    assert all(int(r["num_surfaces"]) == 0 for r in baselines)


def test_coverage_replaces_a_dipping_plan_by_the_warm_extension(monkeypatch):
    # a greedy J = 2 plan below J = 1's gives way to J = 1's choice plus
    # its best addition
    cfg = yaml.safe_load(TINY_CUSTOM.read_text(encoding="utf-8"))
    cfg = config_from_dict(_with({"coverage": {"solver": "greedy"}}, cfg))
    assert cfg.coverage.num_surfaces == (1, 2)
    first, extended = {}, {}

    def dipping(problem):
        key = (problem.threshold_db, problem.matrix.mode)
        if problem.num_surfaces == 1:
            first[key] = solve_greedy_swap(problem)
            return first[key]
        extended[key] = _extend_plan(problem, first[key])
        return PlanSolution((), (), -1.0, "heuristic", {"method": "dip"})

    monkeypatch.setattr(irsplan.runners, "solve_greedy_swap", dipping)
    rows = run_coverage(cfg)["rows"]
    by_key = {(r["threshold_db"], r["mode"], r["num_surfaces"]): r for r in rows}
    assert len(extended) == 4
    for (threshold, mode), plan in extended.items():
        row = by_key[threshold, mode, 2]
        assert row["coverage_ratio"] == plan.objective_value
        assert row["coverage_ratio"] >= by_key[threshold, mode, 1]["coverage_ratio"]
        assert row["optimality"] == "heuristic"


# --- serialization helpers --------------------------------------------------

def test_write_csv_formatting(tmp_path):
    path = tmp_path / "f.csv"
    write_csv(
        str(path),
        {"a": 1, "b": "x"},
        [{"u": 0.1, "v": -math.inf, "w": "s"}, {"u": 2.0, "v": math.inf, "w": "t"}],
    )
    text = path.read_text()
    assert text == "# a: 1\n# b: x\nu,v,w\n0.1,-inf,s\n2.0,inf,t\n"


def test_write_json_formatting(tmp_path):
    path = tmp_path / "f.json"
    write_json(str(path), {"b": 2, "a": 0.30000000000000004})
    text = path.read_text()
    assert text == '{\n  "a": 0.30000000000000004,\n  "b": 2\n}\n'
    assert text.index('"a"') < text.index('"b"')
