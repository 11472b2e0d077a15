"""Scenario configuration: defaults, YAML parsing, derived model objects.

The default values reproduce the reference urban-macro setup: 2 GHz
carrier, 200 kHz user bandwidth, -174 dBm/Hz receiver noise, -160 dBm/Hz
amplifier noise, a 25 m AP serving 1.5 m UEs, 10 mW AP budget without a
surface and 5 mW / 5 mW transmit/amplifier split with one.  Powers are
given in dBm or mW in configs and converted to linear watts once, when the
derived objects (PowerBudget, IrsUnit, ApArrayPattern) are built.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import types
import typing
from dataclasses import dataclass, field

import yaml

from .link import IrsUnit, PowerBudget
from .patterns import ApArrayPattern, ErpModel

PRESETS = ("link_sweep", "medium_deploy", "split_1024", "widearea_coverage", "custom")
SOLVERS = ("greedy", "bnb", "exact")


class ConfigError(ValueError):
    """Invalid configuration; the message carries the offending field path."""


def dbm_to_watts(dbm: float) -> float:
    return 1e-3 * 10.0 ** (dbm / 10.0)


def mw_to_watts(mw: float) -> float:
    return mw * 1e-3


@dataclass(frozen=True)
class RfConfig:
    f_c_ghz: float = 2.0
    bandwidth_hz: float = 200e3
    noise_psd_dbm_hz: float = -174.0


@dataclass(frozen=True)
class PowerConfig:
    p_total_mw: float = 10.0   # AP budget with no surface deployed
    p_tx_max_mw: float = 5.0   # per-UE AP transmit cap with a surface


@dataclass(frozen=True)
class SurfaceConfig:
    mode: str = "active"
    erp_exponent: float = 1.0
    n_elements: int = 256      # per surface where no element split applies
    n_total: int = 1024        # element budget shared by a split deployment
    amp_power_max_mw: float = 5.0
    amp_noise_psd_dbm_hz: float = -160.0


@dataclass(frozen=True)
class ApConfig:
    height: float = 25.0
    tilt_deg: float = 10.0
    num_elements: int = 8
    element_max_gain: float = 1.64
    element_spacing_wavelengths: float = 0.5


@dataclass(frozen=True)
class LayoutConfig:
    """Scene-generation knobs; kind picks a canned street layout.

    kind "custom" expects explicit area bounds plus buildings as
    (min_x, min_y, max_x, max_y, height) rows; UEs are either given as
    (x, y) pairs or scattered on the streets.  kind "none" (link sweep)
    builds no scene at all.
    """

    kind: str = "medium"  # medium | wide | custom | none
    num_ues: int = 100
    ue_height: float = 1.5
    grid_w: float = 10.0
    grid_h: float = 5.0
    min_mount_height: float = 6.0
    building_height_range: tuple[float, float] = (12.0, 22.0)
    area_x: tuple[float, float] | None = None
    area_y: tuple[float, float] | None = None
    buildings: tuple[tuple[float, float, float, float, float], ...] | None = None
    ues_xy: tuple[tuple[float, float], ...] | None = None


@dataclass(frozen=True)
class McConfig:
    n_mc: int = 64  # fading draws per matrix entry


@dataclass(frozen=True)
class DeployConfig:
    splits: tuple[int, ...] = (1, 2, 4)
    objective: str = "mean_ergodic_rate"
    threshold_db: float = 20.0  # objective threshold for coverage_count
    solver: str = "greedy"
    node_budget: int = 2_000_000
    modes: tuple[str, ...] = ("active", "passive")
    report_thresholds_db: tuple[float, ...] = (20.0, 30.0)


@dataclass(frozen=True)
class CoverageConfig:
    num_surfaces: tuple[int, ...] = (1, 2, 3, 4, 5)
    thresholds_db: tuple[float, ...] = (20.0, 30.0)
    solver: str = "greedy"
    node_budget: int = 2_000_000
    modes: tuple[str, ...] = ("active", "passive")


@dataclass(frozen=True)
class SweepConfig:
    r_ai_m: tuple[float, ...] = (20.0, 50.0, 80.0, 110.0, 140.0, 170.0, 200.0, 230.0)
    ue_x: float = 250.0
    ue_y: float = 0.0
    irs_y: float = 10.0
    irs_z: float = 10.0
    n_mc: int = 10_000
    variants: tuple[str, ...] = (
        "active64_q1",
        "active64_q3",
        "passive256_q1",
        "passive256_q3",
        "passive4096_q1",
        "ap_only",
    )


@dataclass(frozen=True)
class ScenarioConfig:
    preset: str = "custom"
    master_seed: int = 7
    rf: RfConfig = field(default_factory=RfConfig)
    power: PowerConfig = field(default_factory=PowerConfig)
    surface: SurfaceConfig = field(default_factory=SurfaceConfig)
    ap: ApConfig = field(default_factory=ApConfig)
    layout: LayoutConfig = field(default_factory=LayoutConfig)
    mc: McConfig = field(default_factory=McConfig)
    deploy: DeployConfig = field(default_factory=DeployConfig)
    coverage: CoverageConfig = field(default_factory=CoverageConfig)
    sweep: SweepConfig = field(default_factory=SweepConfig)

    def __post_init__(self):
        if self.preset not in PRESETS:
            raise ConfigError(f"preset: must be one of {PRESETS}, got {self.preset!r}")
        _positive = {
            "rf.f_c_ghz": self.rf.f_c_ghz,
            "rf.bandwidth_hz": self.rf.bandwidth_hz,
            "power.p_total_mw": self.power.p_total_mw,
            "power.p_tx_max_mw": self.power.p_tx_max_mw,
            "surface.amp_power_max_mw": self.surface.amp_power_max_mw,
            "layout.grid_w": self.layout.grid_w,
            "layout.grid_h": self.layout.grid_h,
            "layout.ue_height": self.layout.ue_height,
            "ap.height": self.ap.height,
            "mc.n_mc": self.mc.n_mc,
            "sweep.n_mc": self.sweep.n_mc,
        }
        for path, value in _positive.items():
            if not (value > 0):
                raise ConfigError(f"{path}: must be positive, got {value!r}")
        if self.surface.mode not in ("active", "passive"):
            raise ConfigError("surface.mode: must be 'active' or 'passive'")
        if self.surface.erp_exponent < 0:
            raise ConfigError("surface.erp_exponent: must be >= 0")
        if self.surface.n_elements < 1 or self.surface.n_total < 1:
            raise ConfigError("surface element counts must be >= 1")
        if self.layout.kind not in ("medium", "wide", "custom", "none"):
            raise ConfigError(f"layout.kind: unknown layout {self.layout.kind!r}")
        if self.layout.kind == "custom":
            if self.layout.area_x is None or self.layout.area_y is None:
                raise ConfigError("layout.area_x/area_y: required for custom layouts")
            if self.layout.buildings is None:
                raise ConfigError("layout.buildings: required for custom layouts")
        if self.layout.min_mount_height < 0:
            raise ConfigError("layout.min_mount_height: must be >= 0")
        lo, hi = self.layout.building_height_range
        if not (0 < lo <= hi):
            raise ConfigError("layout.building_height_range: need 0 < low <= high")
        for s in self.deploy.splits:
            if s < 1:
                raise ConfigError("deploy.splits: entries must be >= 1")
            if self.surface.n_total % s:
                raise ConfigError(
                    f"deploy.splits: {s} does not divide surface.n_total"
                    f" = {self.surface.n_total}"
                )
        if self.deploy.objective not in ("mean_ergodic_rate", "coverage_count"):
            raise ConfigError("deploy.objective: unknown objective")
        for path, solver in (
            ("deploy.solver", self.deploy.solver),
            ("coverage.solver", self.coverage.solver),
        ):
            if solver not in SOLVERS:
                raise ConfigError(f"{path}: must be one of {SOLVERS}")
        for path, budget in (
            ("deploy.node_budget", self.deploy.node_budget),
            ("coverage.node_budget", self.coverage.node_budget),
        ):
            if budget < 1:
                raise ConfigError(f"{path}: must be >= 1, got {budget!r}")
        for path, modes in (
            ("deploy.modes", self.deploy.modes),
            ("coverage.modes", self.coverage.modes),
        ):
            for mode in modes:
                if mode not in ("active", "passive"):
                    raise ConfigError(f"{path}: unknown mode {mode!r}")
        for jv in self.coverage.num_surfaces:
            if jv < 1:
                raise ConfigError("coverage.num_surfaces: entries must be >= 1")

    # Derived model objects -------------------------------------------------

    def budget(self) -> PowerBudget:
        return PowerBudget(
            p_total=mw_to_watts(self.power.p_total_mw),
            p_tx_max=mw_to_watts(self.power.p_tx_max_mw),
            bandwidth=self.rf.bandwidth_hz,
            noise_psd=dbm_to_watts(self.rf.noise_psd_dbm_hz),
        )

    def ap_pattern(self) -> ApArrayPattern:
        wavelength = 3.0e8 / (self.rf.f_c_ghz * 1e9)
        return ApArrayPattern(
            wavelength=wavelength,
            num_elements=self.ap.num_elements,
            element_spacing=self.ap.element_spacing_wavelengths * wavelength,
            tilt_deg=self.ap.tilt_deg,
            element_max_gain=self.ap.element_max_gain,
        )

    def erp(self, exponent: float | None = None) -> ErpModel:
        return ErpModel(self.surface.erp_exponent if exponent is None else exponent)

    def surface_template(
        self, n_elements: int | None = None, mode: str | None = None
    ) -> IrsUnit:
        mode = self.surface.mode if mode is None else mode
        return IrsUnit(
            n_elements=self.surface.n_elements if n_elements is None else n_elements,
            mode=mode,
            amp_power_max=mw_to_watts(self.surface.amp_power_max_mw),
            amp_noise_psd=dbm_to_watts(self.surface.amp_noise_psd_dbm_hz),
            erp=self.erp(),
        )

    def amp_noise_psd_w(self) -> float:
        return dbm_to_watts(self.surface.amp_noise_psd_dbm_hz)

    def amp_power_max_w(self) -> float:
        return mw_to_watts(self.surface.amp_power_max_mw)


# Parsing ------------------------------------------------------------------


def _coerce(value, ftype, path: str):
    origin = typing.get_origin(ftype)
    if ftype is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}: expected a number, got {value!r}")
        return float(value)
    if ftype is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}: expected an integer, got {value!r}")
        return int(value)
    if ftype is str:
        if not isinstance(value, str):
            raise ConfigError(f"{path}: expected a string, got {value!r}")
        return value
    if origin is typing.Union or origin is types.UnionType:  # X | None
        args = [a for a in typing.get_args(ftype) if a is not type(None)]
        if value is None:
            return None
        return _coerce(value, args[0], path)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{path}: expected a list, got {value!r}")
        args = typing.get_args(ftype)
        if len(args) == 2 and args[1] is Ellipsis:
            return tuple(_coerce(v, args[0], f"{path}[{i}]") for i, v in enumerate(value))
        if len(value) != len(args):
            raise ConfigError(f"{path}: expected {len(args)} entries")
        return tuple(
            _coerce(v, a, f"{path}[{i}]") for i, (v, a) in enumerate(zip(value, args))
        )
    raise ConfigError(f"{path}: unsupported field type {ftype!r}")


def _build_section(cls, data: dict, path: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a mapping")
    hints = typing.get_type_hints(cls)
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - names
    if unknown:
        raise ConfigError(f"{path}.{sorted(unknown)[0]}: unknown field")
    kwargs = {}
    for f in dataclasses.fields(cls):
        if f.name in data:
            kwargs[f.name] = _coerce(data[f.name], hints[f.name], f"{path}.{f.name}")
    return cls(**kwargs)


_SECTIONS = {
    "rf": RfConfig,
    "power": PowerConfig,
    "surface": SurfaceConfig,
    "ap": ApConfig,
    "layout": LayoutConfig,
    "mc": McConfig,
    "deploy": DeployConfig,
    "coverage": CoverageConfig,
    "sweep": SweepConfig,
}


def config_from_dict(data: dict) -> ScenarioConfig:
    """Build a ScenarioConfig from nested plain dicts, strictly.

    Unknown keys and wrongly typed values raise ConfigError with the field
    path.  A "preset" key first loads that preset's defaults; everything
    else overrides field by field.
    """
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError("config root: expected a mapping")
    known = set(_SECTIONS) | {"preset", "master_seed"}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"{sorted(unknown)[0]}: unknown section")
    preset = data.get("preset", "custom")
    if not isinstance(preset, str) or preset not in PRESETS:
        raise ConfigError(f"preset: must be one of {PRESETS}, got {preset!r}")
    base = experiment_preset(preset) if preset != "custom" else ScenarioConfig()
    updates: dict = {"preset": preset}
    if "master_seed" in data:
        updates["master_seed"] = _coerce(data["master_seed"], int, "master_seed")
    for key, cls in _SECTIONS.items():
        if key in data:
            section = data[key]
            if not isinstance(section, dict):
                raise ConfigError(f"{key}: expected a mapping")
            merged = dataclasses.asdict(getattr(base, key))
            # asdict turns tuples into lists; _coerce restores them
            merged.update(section)
            updates[key] = _build_section(cls, merged, key)
    return dataclasses.replace(base, **updates)


def config_to_dict(cfg: ScenarioConfig) -> dict:
    """Plain nested-dict form; config_from_dict inverts it exactly."""

    def plain(value):
        if isinstance(value, tuple):
            return [plain(v) for v in value]
        return value

    out: dict = {"preset": cfg.preset, "master_seed": cfg.master_seed}
    for key in _SECTIONS:
        out[key] = {
            f.name: plain(getattr(getattr(cfg, key), f.name))
            for f in dataclasses.fields(getattr(cfg, key))
        }
    return out


def load_config(path: str) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
    return config_from_dict(data)


def scenario_fingerprint(cfg: ScenarioConfig) -> str:
    """Short stable hash identifying the full configuration."""
    blob = json.dumps(config_to_dict(cfg), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


# Presets --------------------------------------------------------------------


def experiment_preset(name: str) -> ScenarioConfig:
    """Fully populated configuration of one canned experiment."""
    if name == "link_sweep":
        return ScenarioConfig(preset="link_sweep", layout=LayoutConfig(kind="none"))
    if name == "medium_deploy":
        return ScenarioConfig(
            preset="medium_deploy",
            layout=LayoutConfig(kind="medium"),
            deploy=DeployConfig(splits=(2,)),
        )
    if name == "split_1024":
        return ScenarioConfig(
            preset="split_1024",
            layout=LayoutConfig(kind="medium"),
            deploy=DeployConfig(splits=(1, 2, 4)),
        )
    if name == "widearea_coverage":
        return ScenarioConfig(
            preset="widearea_coverage",
            layout=LayoutConfig(
                kind="wide",
                num_ues=200,
                grid_w=20.0,
                grid_h=7.0,
            ),
        )
    if name == "custom":
        return ScenarioConfig()
    raise ConfigError(f"preset: unknown preset {name!r}")
