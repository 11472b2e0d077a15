"""Canned street layouts and scene construction.

Two generated grids share one shape: a 4x4 block of rectangular buildings
separated by straight streets, the AP on a mast over the central crossing.
"medium" is 270 x 400 m with 30 x 40 m buildings (30 m and 48 m streets);
"wide" scales everything by four to 1080 x 1600 m with 120 x 160 m blocks.
Building heights are drawn once per scene from the configured range, and
UEs are scattered on the streets, all from named substreams of the master
seed, so a layout is a pure function of its configuration.
"""

from __future__ import annotations

from .config import ConfigError, LayoutConfig, ScenarioConfig
from .geometry import Building, Scene, scatter_street_points
from .seeds import STREAM_HEIGHTS, STREAM_UES, substream


def _grid_layout(scale: float) -> tuple[tuple, tuple, list[tuple[float, float, float, float]]]:
    """Area bounds and building footprints of the 4x4 street grid."""
    area_x = (-135.0 * scale, 135.0 * scale)
    area_y = (-200.0 * scale, 200.0 * scale)
    x_starts = [s * scale for s in (-105.0, -45.0, 15.0, 75.0)]
    y_starts = [s * scale for s in (-152.0, -64.0, 24.0, 112.0)]
    w, d = 30.0 * scale, 40.0 * scale
    footprints = [
        (x0, y0, x0 + w, y0 + d) for x0 in x_starts for y0 in y_starts
    ]
    return area_x, area_y, footprints


def build_scene(cfg: ScenarioConfig) -> Scene | None:
    """Construct the Scene a configuration describes (None for kind "none")."""
    layout = cfg.layout
    if layout.kind == "none":
        return None
    if layout.kind in ("medium", "wide"):
        scale = 1.0 if layout.kind == "medium" else 4.0
        area_x, area_y, footprints = _grid_layout(scale)
        lo, hi = layout.building_height_range
        heights = substream(cfg.master_seed, STREAM_HEIGHTS).uniform(
            lo, hi, len(footprints)
        )
        buildings = tuple(
            Building((x0, y0, 0.0), (x1, y1, float(h)))
            for (x0, y0, x1, y1), h in zip(footprints, heights)
        )
    else:  # custom
        area_x = layout.area_x
        area_y = layout.area_y
        buildings = tuple(
            Building((x0, y0, 0.0), (x1, y1, h))
            for (x0, y0, x1, y1, h) in layout.buildings
        )
    if layout.ues_xy is not None:
        ues = tuple((x, y, layout.ue_height) for x, y in layout.ues_xy)
    else:
        try:
            ues = tuple(
                scatter_street_points(
                    area_x,
                    area_y,
                    buildings,
                    layout.num_ues,
                    substream(cfg.master_seed, STREAM_UES),
                    height=layout.ue_height,
                )
            )
        except RuntimeError as exc:  # the streets cannot hold that many UEs
            raise ConfigError(f"layout.num_ues: {exc}") from exc
    return Scene(
        ap_position=(0.0, 0.0, cfg.ap.height),
        ap_tilt_deg=cfg.ap.tilt_deg,
        buildings=buildings,
        ues=ues,
        area_x=area_x,
        area_y=area_y,
    )
