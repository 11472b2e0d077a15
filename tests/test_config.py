"""Configuration parsing, validation, derived objects, and canned scenes."""

import dataclasses
import re
from pathlib import Path

import pytest
import yaml

from irsplan.config import (
    ConfigError,
    DeployConfig,
    LayoutConfig,
    ScenarioConfig,
    SurfaceConfig,
    config_from_dict,
    config_to_dict,
    dbm_to_watts,
    experiment_preset,
    load_config,
    mw_to_watts,
    scenario_fingerprint,
)
from irsplan.presets import build_scene


def custom_layout(**overrides) -> LayoutConfig:
    base = dict(
        kind="custom",
        area_x=(-50.0, 50.0),
        area_y=(-50.0, 50.0),
        buildings=((10.0, -10.0, 30.0, 10.0, 20.0),),
        ues_xy=((-20.0, 0.0), (40.0, 5.0)),
    )
    base.update(overrides)
    return LayoutConfig(**base)


# --- defaults and unit conversions -----------------------------------------

def test_default_scenario_values():
    cfg = ScenarioConfig()
    assert cfg.rf.f_c_ghz == 2.0
    assert cfg.rf.bandwidth_hz == 200e3
    assert cfg.rf.noise_psd_dbm_hz == -174.0
    assert cfg.power.p_total_mw == 10.0
    assert cfg.power.p_tx_max_mw == 5.0
    assert cfg.surface.erp_exponent == 1.0
    assert cfg.surface.amp_power_max_mw == 5.0
    assert cfg.surface.amp_noise_psd_dbm_hz == -160.0
    assert cfg.ap.height == 25.0 and cfg.ap.tilt_deg == 10.0
    assert cfg.ap.num_elements == 8 and cfg.ap.element_max_gain == 1.64
    assert cfg.ap.element_spacing_wavelengths == 0.5
    assert cfg.mc.n_mc == 64
    assert cfg.deploy.splits == (1, 2, 4)
    assert cfg.deploy.solver == "greedy"
    assert cfg.sweep.n_mc == 10_000


def test_power_unit_conversions():
    assert dbm_to_watts(0.0) == 1e-3
    assert dbm_to_watts(30.0) == 1.0
    assert dbm_to_watts(-174.0) == 10.0 ** (-17.4) * 1e-3
    assert mw_to_watts(5.0) == 0.005


def test_derived_budget():
    budget = ScenarioConfig().budget()
    assert budget.p_total == 0.01
    assert budget.p_tx_max == 0.005
    assert budget.bandwidth == 200e3
    assert budget.noise_psd == 10.0 ** (-17.4) * 1e-3
    assert budget.noise_power == budget.noise_psd * budget.bandwidth


def test_derived_ap_pattern():
    ap = ScenarioConfig().ap_pattern()
    assert ap.wavelength == 0.15
    assert ap.num_elements == 8
    assert ap.element_spacing == 0.075
    assert ap.tilt_deg == 10.0
    assert ap.element_max_gain == 1.64


def test_derived_surface_template():
    cfg = ScenarioConfig()
    assert cfg.surface.n_elements == 256
    assert cfg.budget().amp_power_max == 0.005
    assert cfg.budget().amp_noise_psd == 10.0 ** (-16.0) * 1e-3
    assert cfg.erp().exponent == 1.0
    assert ScenarioConfig(surface=SurfaceConfig(erp_exponent=3.0)).erp().exponent == 3.0


# --- round trips and YAML ---------------------------------------------------

def test_dict_round_trip_is_exact():
    configs = (
        ScenarioConfig(),
        experiment_preset("widearea_coverage"),
        ScenarioConfig(master_seed=3, layout=custom_layout()),
    )
    for cfg in configs:
        assert config_from_dict(config_to_dict(cfg)) == cfg


def test_load_config_yaml(tmp_path):
    raw = {
        "preset": "custom",
        "master_seed": 12,
        "rf": {"f_c_ghz": 3.5},
        "surface": {"erp_exponent": 3.0, "n_elements": 64},
    }
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(raw), encoding="utf-8")
    cfg = load_config(str(path))
    assert cfg.master_seed == 12
    assert cfg.rf.f_c_ghz == 3.5
    assert cfg.rf.bandwidth_hz == 200e3  # untouched default survives
    assert cfg.surface.erp_exponent == 3.0 and cfg.surface.n_elements == 64
    assert cfg == config_from_dict(raw)


def test_load_config_rejects_malformed_yaml(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("rf: [1, 2\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="invalid YAML"):
        load_config(str(path))


def test_preset_key_loads_preset_then_overrides():
    cfg = config_from_dict({"preset": "widearea_coverage", "layout": {"num_ues": 40}})
    assert cfg.layout.kind == "wide"
    assert cfg.layout.grid_w == 20.0 and cfg.layout.grid_h == 7.0
    assert cfg.layout.num_ues == 40


# --- strict parsing ---------------------------------------------------------

def test_unknown_fields_name_their_path():
    with pytest.raises(ConfigError, match="rf.nope"):
        config_from_dict({"rf": {"nope": 1}})
    with pytest.raises(ConfigError, match="unknown section"):
        config_from_dict({"nonsense": {}})
    with pytest.raises(ConfigError, match="rf.f_c_ghz"):
        config_from_dict({"rf": {"f_c_ghz": "fast"}})
    with pytest.raises(ConfigError, match="mc.n_mc"):
        config_from_dict({"mc": {"n_mc": 2.5}})
    with pytest.raises(ConfigError, match="^config root: expected a mapping$"):
        config_from_dict([])
    with pytest.raises(ConfigError, match="^rf: expected a mapping$"):
        config_from_dict({"rf": 5})
    with pytest.raises(ConfigError, match="^layout.kind: expected a string, got 5$"):
        config_from_dict({"layout": {"kind": 5}})


def test_enum_fields_are_validated():
    with pytest.raises(ConfigError, match="preset"):
        config_from_dict({"preset": "mega"})
    with pytest.raises(ConfigError, match="layout.kind"):
        ScenarioConfig(layout=LayoutConfig(kind="sphere"))
    with pytest.raises(ConfigError, match="deploy.solver"):
        ScenarioConfig(deploy=DeployConfig(solver="milp"))
    with pytest.raises(ConfigError, match="deploy.modes"):
        ScenarioConfig(deploy=DeployConfig(modes=("hybrid",)))
    with pytest.raises(ConfigError, match="objective"):
        ScenarioConfig(deploy=DeployConfig(objective="max_rate"))
    # surface.mode was read by nothing and is gone from the schema
    with pytest.raises(ConfigError, match="surface.mode: unknown field"):
        config_from_dict({"surface": {"mode": "active"}})


def test_cross_field_constraints():
    with pytest.raises(ConfigError, match="does not divide"):
        ScenarioConfig(deploy=DeployConfig(splits=(3,)))
    with pytest.raises(ConfigError, match="building_height_range"):
        ScenarioConfig(layout=LayoutConfig(building_height_range=(0.0, 5.0)))
    with pytest.raises(ConfigError, match="building_height_range"):
        ScenarioConfig(layout=LayoutConfig(building_height_range=(22.0, 12.0)))
    with pytest.raises(ConfigError, match="area_x"):
        ScenarioConfig(layout=custom_layout(area_x=None, area_y=None))
    with pytest.raises(ConfigError, match="buildings"):
        ScenarioConfig(layout=custom_layout(buildings=None))
    with pytest.raises(ConfigError, match="mc.n_mc"):
        ScenarioConfig(mc=dataclasses.replace(ScenarioConfig().mc, n_mc=0))
    with pytest.raises(ConfigError, match="bandwidth"):
        config_from_dict({"rf": {"bandwidth_hz": -1.0}})
    # the planner, the MC kernel and the patterns take these as given
    for section, key, value in (
        ("deploy", "node_budget", 0),
        ("coverage", "node_budget", 0),
        ("sweep", "n_mc", 0),
        ("coverage", "modes", ["hybrid"]),
        ("surface", "erp_exponent", -0.5),
    ):
        with pytest.raises(ConfigError, match=f"{section}.{key}"):
            config_from_dict({section: {key: value}})


@pytest.mark.parametrize(
    "data, field",
    [
        ({"coverage": {"thresholds_db": [float("nan")]}}, "coverage.thresholds_db[0]"),
        ({"deploy": {"threshold_db": float("nan"), "objective": "coverage_count"}},
         "deploy.threshold_db"),
        ({"layout": {"building_height_range": [12.0, float("inf")]}},
         "layout.building_height_range[1]"),
        ({"rf": {"noise_psd_dbm_hz": float("inf")}}, "rf.noise_psd_dbm_hz"),
        ({"ap": {"tilt_deg": -float("inf")}}, "ap.tilt_deg"),
        ({"sweep": {"ue_x": 10**400}}, "sweep.ue_x"),  # an int no float can hold
    ],
)
def test_non_finite_numbers_are_rejected(data, field):
    with pytest.raises(ConfigError, match=re.escape(f"{field}: must be finite")):
        config_from_dict(data)


# --- fingerprint ------------------------------------------------------------

def test_fingerprint_stability():
    a = scenario_fingerprint(ScenarioConfig())
    assert a == scenario_fingerprint(ScenarioConfig())
    assert len(a) == 16 and all(c in "0123456789abcdef" for c in a)
    assert a != scenario_fingerprint(ScenarioConfig(master_seed=8))


def test_preset_fingerprints_are_frozen():
    # every output embeds these; a schema or preset edit that moves one shows here
    frozen = {
        "link_sweep": "d44cea44ababee8b",
        "medium_deploy": "9a847fb568a57b31",
        "split_1024": "4c63959a608890ad",
        "widearea_coverage": "e6ed77c68f2fe296",
        "custom": "ef5ba1bbb23abc9d",
    }
    assert {name: scenario_fingerprint(experiment_preset(name)) for name in frozen} == frozen
    tiny = Path(__file__).resolve().parents[1] / "configs" / "tiny_custom.yaml"
    assert scenario_fingerprint(load_config(str(tiny))) == "3daf0c1335290f07"


# --- presets and scenes -----------------------------------------------------

def test_experiment_presets():
    sweep = experiment_preset("link_sweep")
    assert sweep.layout.kind == "none"
    medium = experiment_preset("medium_deploy")
    assert medium.layout.kind == "medium" and medium.deploy.splits == (2,)
    split = experiment_preset("split_1024")
    assert split.deploy.splits == (1, 2, 4) and split.surface.n_total == 1024
    wide = experiment_preset("widearea_coverage")
    assert wide.layout.kind == "wide" and wide.layout.num_ues == 200
    assert wide.layout.grid_w == 20.0 and wide.layout.grid_h == 7.0
    with pytest.raises(ConfigError):
        experiment_preset("gigantic")


def test_build_scene_medium_grid():
    cfg = experiment_preset("split_1024")
    scene = build_scene(cfg)
    assert len(scene.buildings) == 16
    for b in scene.buildings:
        assert 12.0 <= b.height <= 22.0
        assert b.max_corner[0] - b.min_corner[0] == 30.0
        assert b.max_corner[1] - b.min_corner[1] == 40.0
    assert len(scene.ues) == 100
    assert all(ue[2] == 1.5 for ue in scene.ues)
    assert scene.ap_position == (0.0, 0.0, 25.0)
    assert scene.area_x == (-135.0, 135.0) and scene.area_y == (-200.0, 200.0)
    again = build_scene(cfg)
    assert again.buildings == scene.buildings and again.ues == scene.ues
    other = build_scene(dataclasses.replace(cfg, master_seed=8))
    assert other.ues != scene.ues


def test_build_scene_wide_scales_by_four():
    scene = build_scene(experiment_preset("widearea_coverage"))
    assert len(scene.buildings) == 16
    assert scene.area_x == (-540.0, 540.0) and scene.area_y == (-800.0, 800.0)
    b = scene.buildings[0]
    assert b.max_corner[0] - b.min_corner[0] == 120.0
    assert b.max_corner[1] - b.min_corner[1] == 160.0
    assert len(scene.ues) == 200


def test_build_scene_none_and_custom():
    assert build_scene(experiment_preset("link_sweep")) is None
    cfg = ScenarioConfig(layout=custom_layout())
    scene = build_scene(cfg)
    assert len(scene.buildings) == 1
    assert scene.buildings[0].min_corner == (10.0, -10.0, 0.0)
    assert scene.buildings[0].max_corner == (30.0, 10.0, 20.0)
    assert scene.ues == ((-20.0, 0.0, 1.5), (40.0, 5.0, 1.5))
