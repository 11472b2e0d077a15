"""Site geometry: axis-aligned buildings, line-of-sight tests, link angles.

Buildings are closed axis-aligned boxes standing on the ground plane z=0.
A segment is considered blocked only when its open interior crosses a box
through an interval of positive length, so rays that merely graze a face,
edge or corner keep line of sight.  Endpoints that lie exactly on a face
(e.g. a reflector mounted on a facade) are nudged a micrometer outward
along the face normal before testing, which keeps the test total and makes
links leaving a facade see past their own building.  The test
(los_clear_many) runs on arrays of segments against all boxes at once.

Points are checked once, where they enter: Building and Scene refuse
anything but finite 3D points.  link_geometry runs once per leg of the
stats grid and trusts its points and unit facet normals; it refuses only
coincident end points, which a sweep surface placed on a link end reaches.
Grid steps, mount heights and UE counts are checked by ScenarioConfig;
what is left to refuse here is a facade grid too fine to enumerate and
streets too small for their UEs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

# Endpoints within _FACE_TOL of a face plane count as lying on it and get
# pushed _FACE_NUDGE outward before the slab test.
_FACE_TOL = 1e-9
_FACE_NUDGE = 1e-6
# Minimum chord length (in the segment parameter times geometry scale) for a
# crossing to count as blockage; grazing contact stays below this.
_BLOCK_EPS = 1e-12

Point3 = tuple[float, float, float]


def _point(p) -> np.ndarray:
    a = np.asarray(p, dtype=float)
    if a.shape != (3,):
        raise ValueError(f"expected a 3D point, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("point coordinates must be finite")
    return a


@dataclass(frozen=True)
class Building:
    """Axis-aligned box from min_corner to max_corner, base on the ground."""

    min_corner: Point3
    max_corner: Point3

    def __post_init__(self):
        mn = _point(self.min_corner)
        mx = _point(self.max_corner)
        object.__setattr__(self, "min_corner", tuple(map(float, mn)))
        object.__setattr__(self, "max_corner", tuple(map(float, mx)))
        if not np.all(mx > mn):
            raise ValueError("max_corner must exceed min_corner componentwise")

    @property
    def height(self) -> float:
        return self.max_corner[2]

    def footprint_contains(self, x: float, y: float) -> bool:
        mn, mx = self.min_corner, self.max_corner
        return mn[0] <= x <= mx[0] and mn[1] <= y <= mx[1]


@dataclass(frozen=True)
class Scene:
    """Deployment site: one AP, buildings, user positions, ground area."""

    ap_position: Point3
    buildings: tuple[Building, ...]
    ues: tuple[Point3, ...]
    area_x: tuple[float, float]
    area_y: tuple[float, float]

    def __post_init__(self):
        ap = _point(self.ap_position)
        object.__setattr__(self, "ap_position", tuple(map(float, ap)))
        object.__setattr__(self, "buildings", tuple(self.buildings))
        object.__setattr__(
            self, "ues", tuple(tuple(map(float, _point(u))) for u in self.ues)
        )
        object.__setattr__(self, "area_x", tuple(map(float, self.area_x)))
        object.__setattr__(self, "area_y", tuple(map(float, self.area_y)))
        for u in self.ues:
            if not (
                self.area_x[0] <= u[0] <= self.area_x[1]
                and self.area_y[0] <= u[1] <= self.area_y[1]
            ):
                raise ValueError(f"UE {u} lies outside the scene area")
            for b in self.buildings:
                mn, mx = b.min_corner, b.max_corner
                if (
                    mn[0] < u[0] < mx[0]
                    and mn[1] < u[1] < mx[1]
                    and u[2] < mx[2]
                ):
                    raise ValueError(f"UE {u} lies inside a building")

    @cached_property
    def _boxes(self) -> tuple[np.ndarray, np.ndarray]:
        if not self.buildings:
            return np.zeros((0, 3)), np.zeros((0, 3))
        mn = np.array([b.min_corner for b in self.buildings], dtype=float)
        mx = np.array([b.max_corner for b in self.buildings], dtype=float)
        return mn, mx

    @property
    def num_ues(self) -> int:
        return len(self.ues)


@dataclass(frozen=True)
class CandidateSpot:
    """One facade-mounted candidate position for a reflecting surface."""

    id: int
    position: Point3
    facet_normal: Point3
    building_index: int
    face_index: int


@dataclass(frozen=True)
class LinkGeometry:
    """Distances and pattern angles of one link from a to b.

    depression_deg is the depression of the ray a->b below the horizontal
    (positive downward).  arrival_polar_deg is the angle between b's facet
    normal and the direction from b back toward a (None when no normal was
    given).
    """

    dist_3d: float
    dist_2d: float
    depression_deg: float
    arrival_polar_deg: float | None = None


def _nudged(p: np.ndarray, mn: np.ndarray, mx: np.ndarray) -> np.ndarray:
    """Points p (..., 3) pushed outward off every face they lie on, box by box
    in scene order; each box tests the un-nudged point."""
    q = p.copy()
    pb = p[..., None, :]
    touching = np.all((pb >= mn - _FACE_TOL) & (pb <= mx + _FACE_TOL), axis=-1)
    for b in np.nonzero(touching.any(axis=tuple(range(p.ndim - 1))))[0]:
        on_min = (np.abs(p - mn[b]) <= _FACE_TOL) & touching[..., b, None]
        on_max = (np.abs(p - mx[b]) <= _FACE_TOL) & touching[..., b, None]
        q = q - _FACE_NUDGE * on_min + _FACE_NUDGE * on_max
    return q


def los_clear_many(a, b, scene: Scene) -> np.ndarray:
    """Whether each segment a-b is free of building blockage.

    a and b are (..., 3) endpoint arrays that broadcast against each other;
    the result has their broadcast shape.  Total: coincident endpoints are
    trivially clear, endpoints on facades look past their own face, and
    grazing contact does not block.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    coincident = np.all(a == b, axis=-1)
    mn, mx = scene._boxes
    a = _nudged(a, mn, mx)[..., None, :]
    b = _nudged(b, mn, mx)[..., None, :]
    d = b - a
    t_lo = np.zeros(1)
    t_hi = np.ones(1)
    alive = np.ones(1, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for ax in range(3):
            slab = np.abs(d[..., ax]) > 1e-15
            t1 = (mn[:, ax] - a[..., ax]) / d[..., ax]
            t2 = (mx[:, ax] - a[..., ax]) / d[..., ax]
            t_lo = np.where(slab, np.maximum(t_lo, np.minimum(t1, t2)), t_lo)
            t_hi = np.where(slab, np.minimum(t_hi, np.maximum(t1, t2)), t_hi)
            # Segment runs parallel to this slab; it can only pass through
            # boxes both its ends are strictly inside of along this axis
            # (both, so that a-b and b-a agree when the ends differ by less
            # than the parallel tolerance).
            lo = np.minimum(a[..., ax], b[..., ax])
            hi = np.maximum(a[..., ax], b[..., ax])
            alive = alive & (slab | ((lo > mn[:, ax]) & (hi < mx[:, ax])))
    blocked = np.any(alive & (t_hi - t_lo > _BLOCK_EPS), axis=-1)
    return coincident | ~blocked


def link_geometry(
    a,
    b,
    *,
    source_tilt_deg: float | None = None,
    target_normal=None,
) -> LinkGeometry:
    """Distances and antenna angles for the link from a to b.

    a and b are finite 3D points and target_normal, when given, is a unit
    vector, all unchecked: callers pass points of a validated Scene, spot
    centers or the sweep's float-coerced positions, and the unit normals of
    _FACES or the sweep's (0, -1, 0).  End points whose distance is zero
    (or underflows to zero) are refused with a ValueError.

    Pass target_normal when b is a facade-mounted surface; the polar angle
    stays None otherwise.  source_tilt_deg is accepted and unused: the AP
    pattern is evaluated at the depression angle itself.
    """
    v = np.subtract(b, a, dtype=float)
    d3 = float(np.linalg.norm(v))
    if d3 <= 0.0:
        raise ValueError("link endpoints must be distinct")
    d2 = float(math.hypot(v[0], v[1]))
    depression = math.degrees(math.atan2(-v[2], d2))

    polar = None
    if target_normal is not None:
        u = -v / d3  # direction from b back toward a
        cos_polar = float(np.clip(np.dot(u, target_normal), -1.0, 1.0))
        polar = math.degrees(math.acos(cos_polar))

    return LinkGeometry(
        dist_3d=d3,
        dist_2d=d2,
        depression_deg=depression,
        arrival_polar_deg=polar,
    )


# Most facade cells generate_candidate_spots builds: ~500x the 155-201
# spots of the presets, far below a grid step that would take minutes.
MAX_FACADE_CELLS = 100_000

# The four vertical faces of a box, as (fixed axis, side, outward normal).
_FACES = (
    (0, 0, (-1.0, 0.0, 0.0)),
    (0, 1, (1.0, 0.0, 0.0)),
    (1, 0, (0.0, -1.0, 0.0)),
    (1, 1, (0.0, 1.0, 0.0)),
)


def generate_candidate_spots(
    scene: Scene,
    grid_w: float,
    grid_h: float,
    min_mount_height: float = 6.0,
) -> list[CandidateSpot]:
    """Grid the vertical facades of every building into candidate spots.

    Each face is tiled with grid_w x grid_h cells starting at the face's
    lower-left corner, keeping only full cells above min_mount_height; spot
    positions are the cell centers.  Ordering (and therefore ids) is
    deterministic: buildings in scene order, faces -x, +x, -y, +y, cells
    row-major from the bottom row up.  A grid of more than MAX_FACADE_CELLS
    cells is refused before any spot is built.
    """
    # Rows and columns are counted as floats, so a step that overflows a
    # count to inf is refused like any other grid too fine to enumerate.
    faces = []  # (building, face, fixed axis, normal, plane, width start, rows, cols)
    for bi, bld in enumerate(scene.buildings):
        mn, mx = bld.min_corner, bld.max_corner
        usable_h = bld.height - min_mount_height
        n_rows = float(np.floor(usable_h / grid_h + 1e-9)) if usable_h > 0 else 0.0
        for fi, (axis, side, normal) in enumerate(_FACES):
            wa = 1 - axis  # the face's width axis
            n_cols = float(np.floor((mx[wa] - mn[wa]) / grid_w + 1e-9))
            if n_rows and n_cols:
                plane = mx[axis] if side else mn[axis]
                faces.append((bi, fi, axis, normal, plane, mn[wa], n_rows, n_cols))
    cells = sum(rows * cols for *_, rows, cols in faces)
    if cells > MAX_FACADE_CELLS:
        raise ValueError(
            f"{cells:g} facade cells of {grid_w:g} x {grid_h:g} m exceed {MAX_FACADE_CELLS}"
        )
    spots: list[CandidateSpot] = []
    for bi, fi, axis, normal, plane, start, n_rows, n_cols in faces:
        for r in range(int(n_rows)):
            z = min_mount_height + (r + 0.5) * grid_h
            for c in range(int(n_cols)):
                pos = [0.0, 0.0, z]
                pos[axis] = plane
                pos[1 - axis] = float(start + (c + 0.5) * grid_w)
                spots.append(
                    CandidateSpot(
                        id=len(spots),
                        position=tuple(pos),
                        facet_normal=normal,
                        building_index=bi,
                        face_index=fi,
                    )
                )
    return spots


def filter_candidates_by_ap_los(
    spots: list[CandidateSpot], scene: Scene
) -> list[CandidateSpot]:
    """Keep spots that see the AP from their front side, reindexed 0..M-1.

    A spot survives when the AP lies strictly on the outward side of its
    facet and no building blocks the AP-spot segment.  Relative order is
    preserved, so the operation is idempotent apart from the renumbering.
    """
    ap = np.asarray(scene.ap_position)
    los = los_clear_many(ap, np.reshape([s.position for s in spots], (-1, 3)), scene)
    kept = []
    for s, clear in zip(spots, los.tolist()):
        to_ap = ap - np.asarray(s.position)
        if clear and float(np.dot(np.asarray(s.facet_normal), to_ap)) > 0.0:
            kept.append(replace(s, id=len(kept)))
    return kept


# Street points lie at least this far apart (m), drawn in at most this
# many rejection-sampling attempts.
STREET_SPACING = 2.0
STREET_ATTEMPTS = 200_000


def scatter_street_points(
    area_x: tuple[float, float],
    area_y: tuple[float, float],
    buildings: tuple[Building, ...],
    count: int,
    rng: np.random.Generator,
    *,
    height: float = 1.5,
) -> list[Point3]:
    """Drop points uniformly on the streets (outside every footprint).

    Rejection sampling with a minimum pairwise 2D spacing of
    STREET_SPACING, giving up after STREET_ATTEMPTS draws; deterministic
    for a given generator state.
    """
    # Disks of radius s/2 around the points are disjoint and lie in the
    # area grown by that radius, so their total area bounds count.  count
    # stays an int, compared exactly: it may lie past the float range.
    s = STREET_SPACING
    width, depth = area_x[1] - area_x[0], area_y[1] - area_y[0]
    if count > (width + s) * (depth + s) / (math.pi * s**2 / 4.0):
        raise RuntimeError(
            f"could not place {count} street points {s:g} m apart "
            f"in a {width:g} x {depth:g} m area"
        )
    pts: list[Point3] = []
    xy = np.empty((0, 2))
    attempts = 0
    while len(pts) < count:
        if attempts >= STREET_ATTEMPTS:
            raise RuntimeError(
                f"could not place {count} street points after {STREET_ATTEMPTS} draws"
            )
        attempts += 1
        x = float(rng.uniform(area_x[0], area_x[1]))
        y = float(rng.uniform(area_y[0], area_y[1]))
        if any(b.footprint_contains(x, y) for b in buildings):
            continue
        if xy.shape[0] and np.min(np.hypot(xy[:, 0] - x, xy[:, 1] - y)) < s:
            continue
        pts.append((x, y, float(height)))
        xy = np.vstack([xy, [x, y]])
    return pts
