"""Scenario configuration: defaults, YAML parsing, derived model objects.

The dataclasses are the schema: the parser (_build) and config_to_dict walk
their fields, and a preset is a table of overrides of their defaults.  These
reproduce the reference urban-macro setup: 2 GHz carrier, 200 kHz user
bandwidth, -174 dBm/Hz receiver noise, -160 dBm/Hz amplifier noise, a 25 m
AP serving 1.5 m UEs, 10 mW AP budget without a surface and 5 mW / 5 mW
transmit/amplifier split with one.  Powers are given in dBm or mW and
converted to watts once, when the derived objects (PowerBudget,
ApArrayPattern, ErpModel) are built.  Their values are checked here, and
nowhere else, with the config field path.
"""

import dataclasses
import functools
import hashlib
import json
import math
import re
import sys
import types
import typing
from dataclasses import dataclass, field

import yaml

from .link import MODES, PowerBudget
from .patterns import ApArrayPattern, ErpModel, ap_average_gain
from .planner import OBJECTIVES

# Each preset: the defaults with these overrides, given as in a config file.
_PRESETS = {
    "link_sweep": {"layout": {"kind": "none"}},
    "medium_deploy": {"layout": {"kind": "medium"}, "deploy": {"splits": [2]}},
    "split_1024": {"layout": {"kind": "medium"}, "deploy": {"splits": [1, 2, 4]}},
    "widearea_coverage": {
        "layout": {"kind": "wide", "num_ues": 200, "grid_w": 20.0, "grid_h": 7.0}
    },
    "custom": {},
}
PRESETS = tuple(_PRESETS)
SOLVERS = ("greedy", "bnb", "exact")

_VARIANT_RE = re.compile(r"^(active|passive)(\d+)_q(\d+(?:\.\d+)?)$")
# The annotations are live types (no postponed evaluation, so no strings to
# compile on the first parse); resolving them once per class suffices.
_type_hints = functools.cache(typing.get_type_hints)
# libyaml's parser when PyYAML was built with it: ~1 ms per config instead of ~6.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


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
            "surface.amp_power_max_mw": self.surface.amp_power_max_mw,
            "layout.grid_w": self.layout.grid_w,
            "layout.grid_h": self.layout.grid_h,
            "layout.ue_height": self.layout.ue_height,
            "ap.height": self.ap.height,
            "ap.num_elements": self.ap.num_elements,
            "surface.n_elements": self.surface.n_elements,
            "surface.n_total": self.surface.n_total,
            "layout.num_ues": self.layout.num_ues,
            "mc.n_mc": self.mc.n_mc,
            "sweep.n_mc": self.sweep.n_mc,
        }
        for path, value in _positive.items():
            if not (value > 0):
                raise ConfigError(f"{path}: must be positive, got {value!r}")
        for path, dbm in (
            ("rf.noise_psd_dbm_hz", self.rf.noise_psd_dbm_hz),
            ("surface.amp_noise_psd_dbm_hz", self.surface.amp_noise_psd_dbm_hz),
        ):
            if dbm > 3000.0:  # 1e-3 * 10^(dBm/10) overflows a float above ~3082 dBm
                raise ConfigError(f"{path}: must be <= 3000 dBm, got {dbm!r}")
        if self.master_seed < 0:
            raise ConfigError(f"master_seed: must be >= 0, got {self.master_seed!r}")
        if self.surface.erp_exponent < 0:
            raise ConfigError("surface.erp_exponent: must be >= 0")
        if not (-90.0 < self.ap.tilt_deg <= 90.0):
            raise ConfigError(f"ap.tilt_deg: must lie in (-90, 90], got {self.ap.tilt_deg!r}")
        if self.layout.ue_height >= self.ap.height:
            raise ConfigError("layout.ue_height: UEs must sit below ap.height")
        if self.layout.ues_xy == ():
            raise ConfigError("layout.ues_xy: must list at least one UE")
        if self.layout.kind not in ("medium", "wide", "custom", "none"):
            raise ConfigError(f"layout.kind: unknown layout {self.layout.kind!r}")
        if self.layout.kind == "custom":
            if self.layout.area_x is None or self.layout.area_y is None:
                raise ConfigError("layout.area_x/area_y: required for custom layouts")
            if self.layout.buildings is None:
                raise ConfigError("layout.buildings: required for custom layouts")
            for path, (lo, hi) in (
                ("layout.area_x", self.layout.area_x),
                ("layout.area_y", self.layout.area_y),
            ):
                if not lo < hi:
                    raise ConfigError(f"{path}: bounds must be increasing, got [{lo}, {hi}]")
        if self.layout.min_mount_height < 0:
            raise ConfigError("layout.min_mount_height: must be >= 0")
        lo, hi = self.layout.building_height_range
        if not (0 < lo <= hi):
            raise ConfigError("layout.building_height_range: need 0 < low <= high")
        for path, entries in (  # what a study iterates over
            ("deploy.splits", self.deploy.splits),
            ("deploy.modes", self.deploy.modes),
            ("coverage.num_surfaces", self.coverage.num_surfaces),
            ("coverage.thresholds_db", self.coverage.thresholds_db),
            ("coverage.modes", self.coverage.modes),
            ("sweep.r_ai_m", self.sweep.r_ai_m),
            ("sweep.variants", self.sweep.variants),
        ):
            if not entries:
                raise ConfigError(f"{path}: must list at least one entry")
        for s in self.deploy.splits:
            if s < 1:
                raise ConfigError("deploy.splits: entries must be >= 1")
            if self.surface.n_total % s:
                raise ConfigError(
                    f"deploy.splits: {s} does not divide surface.n_total"
                    f" = {self.surface.n_total}"
                )
        printed: dict[str, float] = {}  # deploy keys its coverage ratios by f"{t:g}"
        for t in self.deploy.report_thresholds_db:
            key = f"{t:g}"
            if key in printed:
                raise ConfigError(
                    f"deploy.report_thresholds_db: {printed[key]!r} and {t!r}"
                    f" both print as {key!r}"
                )
            printed[key] = t
        if self.deploy.objective not in OBJECTIVES:
            raise ConfigError(f"deploy.objective: must be one of {OBJECTIVES}")
        for path, solver in (
            ("deploy.solver", self.deploy.solver),
            ("coverage.solver", self.coverage.solver),
        ):
            if solver not in SOLVERS:
                raise ConfigError(f"{path}: must be one of {SOLVERS}")
        for path, nodes in (
            ("deploy.node_budget", self.deploy.node_budget),
            ("coverage.node_budget", self.coverage.node_budget),
        ):
            if nodes < 1:
                raise ConfigError(f"{path}: must be >= 1, got {nodes!r}")
        for path, modes in (
            ("deploy.modes", self.deploy.modes),
            ("coverage.modes", self.coverage.modes),
        ):
            for mode in modes:
                if mode not in MODES:
                    raise ConfigError(f"{path}: unknown mode {mode!r}")
        for jv in self.coverage.num_surfaces:
            if jv < 1:
                raise ConfigError("coverage.num_surfaces: entries must be >= 1")
        for label in self.sweep.variants:
            try:
                parse_variant(label)
            except ValueError as exc:
                raise ConfigError(f"sweep.variants: {exc}") from exc
        # Figures the model objects take as given, once in SI units.
        budget, ap = self.budget(), self.ap_pattern()
        for path, what, value in (
            ("rf.f_c_ghz", "wavelength in m", ap.wavelength),
            ("ap.element_spacing_wavelengths", "element spacing in m", ap.element_spacing),
            ("surface.erp_exponent", "element peak gain 2 (q + 1)", self.erp().max_gain),
        ):
            if not (0 < value < math.inf):
                raise ConfigError(f"{path}: the {what} is {value!r}, must be finite and > 0")
        if ap.num_elements > sys.float_info.max:  # M G_e cos^2(tilt) would raise
            raise ConfigError("ap.num_elements: must lie within the float range")
        if ap.peak_gain == math.inf:  # a negative one fails the average gain below
            raise ConfigError("ap.element_max_gain: the array peak gain M G_e cos^2(tilt) is inf")
        # quadrature over the array pattern, hence after the lengths
        avg_gain = ap_average_gain(ap)
        if math.isnan(avg_gain):  # sin() of an array-factor phase past the float range
            raise ConfigError(
                "ap.element_spacing_wavelengths: the array-factor phase pi M d_e / lambda"
                " overflows (with ap.num_elements)"
            )
        for path, what, value in (
            ("power.p_total_mw", "budget in W", budget.p_total),
            ("power.p_tx_max_mw", "transmit cap in W", budget.p_tx_max),
            ("rf.noise_psd_dbm_hz", "noise PSD in W/Hz", budget.noise_psd),
            ("rf.bandwidth_hz", "noise power N0 B in W", budget.noise_power),
            ("ap.element_max_gain", "average array gain", avg_gain),
        ):
            if not (value > 0):
                raise ConfigError(f"{path}: the {what} is {value!r}, must be > 0")

    # Derived model objects -------------------------------------------------

    def budget(self) -> PowerBudget:
        return PowerBudget(
            p_total=mw_to_watts(self.power.p_total_mw),
            p_tx_max=mw_to_watts(self.power.p_tx_max_mw),
            bandwidth=self.rf.bandwidth_hz,
            noise_psd=dbm_to_watts(self.rf.noise_psd_dbm_hz),
            amp_power_max=mw_to_watts(self.surface.amp_power_max_mw),
            amp_noise_psd=dbm_to_watts(self.surface.amp_noise_psd_dbm_hz),
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

    def erp(self) -> ErpModel:
        return ErpModel(self.surface.erp_exponent)


def parse_variant(label: str) -> tuple[str, int, float | None]:
    """Decode a sweep variant label into (mode, n_elements, erp exponent)."""
    if label == "ap_only":
        return "none", 0, None
    m = _VARIANT_RE.match(label)
    if not m:
        raise ValueError(
            f"unknown sweep variant {label!r}; expected e.g. 'active64_q1' or 'ap_only'"
        )
    n, q = int(m.group(2)), float(m.group(3))
    if n == 0:
        raise ValueError(f"{label!r}: the element count must be positive")
    if math.isinf(ErpModel(q).max_gain):
        raise ValueError(f"{label!r}: the peak gain 2 (q + 1) overflows")
    return m.group(1), n, q


# Parsing ------------------------------------------------------------------


def _coerce(value, ftype, path: str):
    origin = typing.get_origin(ftype)
    if ftype is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}: expected a number, got {value!r}")
        if not abs(value) <= sys.float_info.max:  # nan, +-inf or an int beyond floats
            raise ConfigError(f"{path}: must be finite, got {value!r}")
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


def _build(cls, data, path: str):
    """cls from the fields data gives, in field order, and the defaults of
    the rest: a dataclass-typed field recurses, any other goes to _coerce.
    path is "" at the root."""
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a mapping")
    hints = _type_hints(cls)
    fields = dataclasses.fields(cls)
    unknown = set(data) - {f.name for f in fields}
    if unknown:
        name = sorted(unknown)[0]
        raise ConfigError(f"{path}.{name}: unknown field" if path else f"{name}: unknown section")
    values = {}
    for f in fields:
        if f.name in data:
            sub = f"{path}.{f.name}" if path else f.name
            if dataclasses.is_dataclass(hints[f.name]):
                values[f.name] = _build(hints[f.name], data[f.name], sub)
            else:
                values[f.name] = _coerce(data[f.name], hints[f.name], sub)
    return cls(**values)


def config_from_dict(data: dict) -> ScenarioConfig:
    """Build a ScenarioConfig from nested plain dicts, strictly.

    Unknown keys and wrongly typed values raise ConfigError with the field
    path.  A "preset" key puts that preset's overrides under the data,
    section by section; the data wins field by field.
    """
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError("config root: expected a mapping")
    name = data.get("preset", "custom")
    merged = dict(_PRESETS.get(name, {}) if isinstance(name, str) else {})
    for key, value in data.items():
        under = merged.get(key)
        merged[key] = {**under, **value} if isinstance(value, dict) and under else value
    return _build(ScenarioConfig, merged, "")


def config_to_dict(cfg: ScenarioConfig) -> dict:
    """Plain nested-dict form, tuples as lists; config_from_dict inverts it exactly."""

    def plain(value):
        if dataclasses.is_dataclass(value):
            return {f.name: plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
        if isinstance(value, tuple):
            return [plain(v) for v in value]
        return value

    return plain(cfg)


def load_config(path: str) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = yaml.load(fh, Loader=_YAML_LOADER)
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
    return config_from_dict(data)


def scenario_fingerprint(cfg: ScenarioConfig) -> str:
    """Short stable hash identifying the full configuration."""
    blob = json.dumps(config_to_dict(cfg), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def experiment_preset(name: str) -> ScenarioConfig:
    """One canned experiment; ScenarioConfig checks the name."""
    return config_from_dict({"preset": name})
