"""Scene geometry tests: blockage, link angles, candidate spot grids."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from irsplan import geometry
from irsplan.geometry import (
    Building,
    Scene,
    filter_candidates_by_ap_los,
    generate_candidate_spots,
    link_geometry,
    los_clear_many,
    scatter_street_points,
)

from irsplan.config import experiment_preset
from irsplan.presets import build_scene

from oracles import los_clear, segment_hits_box_interior

AP = (0.0, 0.0, 25.0)


def empty_scene() -> Scene:
    return Scene(
        ap_position=AP,
        buildings=(),
        ues=(),
        area_x=(-200.0, 200.0),
        area_y=(-200.0, 200.0),
    )


def one_block_scene(height=30.0) -> Scene:
    return Scene(
        ap_position=AP,
        buildings=(Building((40.0, -10.0, 0.0), (60.0, 10.0, height)),),
        ues=(),
        area_x=(-200.0, 200.0),
        area_y=(-200.0, 200.0),
    )


coord = st.floats(min_value=-150.0, max_value=150.0, allow_nan=False, width=32)
height_c = st.floats(min_value=0.5, max_value=60.0, allow_nan=False, width=32)
point = st.tuples(coord, coord, height_c)


def boxes_strategy(max_boxes=3):
    def make_box(xy):
        x0, y0, w, d, h = xy
        return Building((x0, y0, 0.0), (x0 + w, y0 + d, h))

    side = st.floats(min_value=1.0, max_value=80.0, width=32)
    box = st.builds(
        make_box,
        st.tuples(coord, coord, side, side, st.floats(min_value=2.0, max_value=50.0, width=32)),
    )
    return st.lists(box, min_size=0, max_size=max_boxes)


def scene_of(buildings) -> Scene:
    return Scene(
        ap_position=AP,
        buildings=tuple(buildings),
        ues=(),
        area_x=(-500.0, 500.0),
        area_y=(-500.0, 500.0),
    )


# --- buildings and scenes ---------------------------------------------------

def test_building_validation():
    with pytest.raises(ValueError):
        Building((0.0, 0.0, 0.0), (0.0, 10.0, 10.0))  # zero x extent
    b = Building((0.0, 0.0, 0.0), (10.0, 20.0, 15.0))
    assert b.height == 15.0
    assert b.footprint_contains(5.0, 5.0)
    assert b.footprint_contains(0.0, 20.0)  # boundary included
    assert not b.footprint_contains(10.1, 5.0)


def test_scene_rejects_bad_ues():
    bld = Building((40.0, -10.0, 0.0), (60.0, 10.0, 30.0))
    with pytest.raises(ValueError):  # outside the area
        Scene(AP, (), ((300.0, 0.0, 1.5),), (-200.0, 200.0), (-200.0, 200.0))
    with pytest.raises(ValueError):  # inside a building
        Scene(AP, (bld,), ((50.0, 0.0, 1.5),), (-200.0, 200.0), (-200.0, 200.0))


# --- line of sight ----------------------------------------------------------

def test_los_empty_scene_is_clear():
    assert los_clear_many(AP, (100.0, 0.0, 1.5), empty_scene())


def test_los_blocked_through_interior():
    assert not los_clear_many(AP, (100.0, 0.0, 1.5), one_block_scene())


def test_los_own_face_does_not_block():
    # endpoint mounted on the x=40 face, looking back toward the AP
    scene = one_block_scene()
    assert los_clear_many((40.0, 0.0, 10.0), AP, scene)
    # the same mount point looking the other way must cross the interior
    assert not los_clear_many((40.0, 0.0, 10.0), (100.0, 0.0, 10.0), scene)


def test_los_grazing_face_stays_clear():
    # segment running exactly along the x=40 plane touches, never enters
    scene = one_block_scene()
    assert los_clear_many((40.0, -50.0, 5.0), (40.0, 50.0, 5.0), scene)


def test_los_over_the_roof():
    scene = one_block_scene(height=12.0)
    assert los_clear_many(AP, (100.0, 0.0, 14.0), scene)
    assert not los_clear_many(AP, (100.0, 0.0, 1.5), scene)


def test_los_coincident_endpoints_clear():
    assert los_clear_many((50.0, 0.0, 5.0), (50.0, 0.0, 5.0), one_block_scene())


@settings(max_examples=150, deadline=None)
@given(a=point, b=point, buildings=boxes_strategy())
# ends 8e-18 apart across the x = 0 face: inside the parallel tolerance,
# so the segment grazes the face whichever end it starts from
@example(a=(0.0, 2.0, 1.0), b=(8.078073808625457e-18, -1.0, 1.0),
         buildings=[Building((0.0, 0.0, 0.0), (1.0, 1.0, 2.0))])
def test_los_symmetry(a, b, buildings):
    scene = scene_of(buildings)
    assert los_clear_many(a, b, scene) == los_clear_many(b, a, scene)


@settings(max_examples=150, deadline=None)
@given(a=point, b=point, buildings=boxes_strategy(), extra=boxes_strategy(max_boxes=1))
def test_los_monotone_under_added_buildings(a, b, buildings, extra):
    before = los_clear_many(a, b, scene_of(buildings))
    after = los_clear_many(a, b, scene_of(list(buildings) + list(extra)))
    if not before:
        assert not after


@settings(max_examples=200, deadline=None)
@given(a=point, b=point, buildings=boxes_strategy())
def test_los_sampled_interior_oracle(a, b, buildings):
    # any sampled point strictly inside a box proves the link blocked
    scene = scene_of(buildings)
    hit = any(
        segment_hits_box_interior(a, b, bld.min_corner, bld.max_corner)
        for bld in buildings
    )
    if hit:
        assert not los_clear_many(a, b, scene)


def test_los_clear_many_equals_scalar_oracle_on_split_1024():
    # the AP legs to every raw facade spot and UE, and the spot-UE legs of
    # the first 20 UEs, in the argument order link_stats_grid uses
    cfg = experiment_preset("split_1024")
    scene = build_scene(cfg)
    lay = cfg.layout
    raw = generate_candidate_spots(scene, lay.grid_w, lay.grid_h, lay.min_mount_height)
    pos = np.array([s.position for s in raw])
    ap = scene.ap_position
    for pts in (pos, np.array(scene.ues)):
        assert los_clear_many(ap, pts, scene).tolist() == [los_clear(ap, p, scene) for p in pts]
    for ue in scene.ues[:20]:
        assert los_clear_many(pos, ue, scene).tolist() == [los_clear(p, ue, scene) for p in pos]


# Two boxes sharing part of the x = 10 face.  Coordinates snap to their
# planes (or to within the face tolerance of them) or to points off them,
# and the second endpoint is free, coincident, or the first with one
# coordinate redrawn, so segments start and run on faces, edges and corners
# of one or both boxes.
SHARED_FACE = scene_of(
    [Building((0.0, 0.0, 0.0), (10.0, 10.0, 10.0)), Building((10.0, -5.0, 0.0), (20.0, 5.0, 15.0))]
)
snap_coord = st.sampled_from(
    [v + o for v in (-5.0, 0.0, 5.0, 10.0, 15.0, 20.0) for o in (0.0, -5e-10, 5e-10)]
    + [-8.0, 2.5, 7.5, 12.5, 22.5]
)
snap_point = st.tuples(snap_coord, snap_coord, snap_coord)


@settings(max_examples=100, deadline=None)
@given(pairs=st.lists(st.tuples(snap_point, snap_point, st.integers(-2, 2)), min_size=1, max_size=7))
# on the shared face's top edge, where both boxes nudge the endpoint; and a
# point on both boxes beside a segment down the plane x = 10 below them,
# whose lower end lies on that plane but off both boxes, so stays put
@example(pairs=[((10.0, 0.0, 10.0 - 5e-10), (0.0, 20.0 - 5e-10, 0.0), 1)])
@example(pairs=[((10.0, 2.5, 5.0), (0.0, 0.0, 0.0), -1), ((10.0, 5.0, 15.0), (0.0, 0.0, -5.0 - 5e-10), 2)])
def test_los_clear_many_equals_scalar_oracle_on_shared_faces(pairs):
    a = np.array([p for p, _, _ in pairs])
    b = a.copy()
    for i, (_, q, how) in enumerate(pairs):
        if how == -2:  # free
            b[i] = q
        elif how >= 0:  # redraw one coordinate; -1 keeps b coincident
            b[i, how] = q[how]
    expected = [los_clear(x, y, SHARED_FACE) for x, y in zip(a, b)]
    assert los_clear_many(a, b, SHARED_FACE).tolist() == expected


# --- link geometry ----------------------------------------------------------

def test_link_geometry_vertical_drop():
    geom = link_geometry(AP, (0.0, 0.0, 1.5))
    assert_allclose(geom.dist_3d, 23.5, rtol=1e-15)
    assert geom.dist_2d == 0.0
    assert_allclose(geom.depression_deg, 90.0, rtol=1e-15)
    assert geom.arrival_polar_deg is None


def test_link_geometry_facade_arrival_angles():
    geom = link_geometry(
        AP, (50.0, 0.0, 10.0), source_tilt_deg=10.0, target_normal=(-1.0, 0.0, 0.0)
    )
    hand = math.degrees(math.atan2(15.0, 50.0))
    assert_allclose(geom.arrival_polar_deg, hand, rtol=1e-12)
    assert_allclose(geom.depression_deg, hand, rtol=1e-12)
    assert_allclose(geom.dist_3d, math.hypot(50.0, 15.0), rtol=1e-15)
    assert_allclose(geom.dist_2d, 50.0, rtol=1e-15)


@settings(max_examples=100, deadline=None)
@given(a=point, b=point, normal=st.sampled_from([n for *_, n in geometry._FACES]))
def test_link_geometry_distance_matches_norm(a, b, normal):
    v = np.subtract(b, a)
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        with pytest.raises(ValueError):
            link_geometry(a, b, target_normal=normal)
        return
    geom = link_geometry(a, b, target_normal=normal)
    assert_allclose(geom.dist_3d, norm, rtol=1e-12)
    assert geom.dist_2d <= geom.dist_3d + 1e-12
    # the angle domains the patterns trust without checking
    assert -90.0 <= geom.depression_deg <= 90.0
    assert 0.0 <= geom.arrival_polar_deg <= 180.0


def test_link_geometry_rejects_degenerate_input():
    with pytest.raises(ValueError):
        link_geometry((1.0, 2.0, 3.0), (1.0, 2.0, 3.0))


# --- candidate spots --------------------------------------------------------

def single_building_scene() -> Scene:
    return Scene(
        ap_position=AP,
        buildings=(Building((0.0, 0.0, 0.0), (30.0, 40.0, 20.0)),),
        ues=(),
        area_x=(-100.0, 100.0),
        area_y=(-100.0, 100.0),
    )


def test_spot_count_hand_case():
    # 30 x 40 m footprint, 20 m tall, 20 x 7 m cells above 6 m:
    # the two 40 m faces host 2 cols x 2 rows, the two 30 m faces 1 x 2
    spots = generate_candidate_spots(single_building_scene(), 20.0, 7.0, 6.0)
    assert len(spots) == 12
    per_face = {}
    for s in spots:
        per_face[s.face_index] = per_face.get(s.face_index, 0) + 1
    assert per_face == {0: 4, 1: 4, 2: 2, 3: 2}


def test_spot_positions_on_faces():
    scene = single_building_scene()
    spots = generate_candidate_spots(scene, 20.0, 7.0, 6.0)
    mn, mx = (0.0, 0.0, 0.0), (30.0, 40.0, 20.0)
    for s in spots:
        x, y, z = s.position
        nx, ny, nz = s.facet_normal
        assert nz == 0.0 and abs(math.hypot(nx, ny) - 1.0) < 1e-12
        assert z >= 6.0
        # the spot must sit on the face its normal points out of
        if nx:
            assert abs(x - (mn[0] if nx < 0 else mx[0])) < 1e-9
            assert mn[1] < y < mx[1]
        else:
            assert abs(y - (mn[1] if ny < 0 else mx[1])) < 1e-9
            assert mn[0] < x < mx[0]


def test_spot_ordering_and_determinism():
    scene = single_building_scene()
    a = generate_candidate_spots(scene, 20.0, 7.0, 6.0)
    b = generate_candidate_spots(scene, 20.0, 7.0, 6.0)
    assert a == b
    assert [s.id for s in a] == list(range(len(a)))
    keys = [(s.building_index, s.face_index, s.position[2]) for s in a]
    assert keys == sorted(keys)


def test_spot_generation_edge_cases():
    assert generate_candidate_spots(empty_scene(), 20.0, 7.0, 6.0) == []
    # a building entirely below the mounting floor yields nothing
    low = Scene(AP, (Building((0.0, 0.0, 0.0), (30.0, 40.0, 5.0)),), (),
                (-100.0, 100.0), (-100.0, 100.0))
    assert generate_candidate_spots(low, 20.0, 7.0, 6.0) == []
    # a grid too fine to enumerate is refused before any spot is built
    with pytest.raises(ValueError, match="facade cells"):
        generate_candidate_spots(single_building_scene(), 1e-9, 7.0, 6.0)
    # ... also when the cell count overflows to inf
    with pytest.raises(ValueError, match="inf facade cells"):
        generate_candidate_spots(single_building_scene(), 20.0, 1e-320, 6.0)


def test_filter_keeps_front_lit_visible_spots():
    scene = one_block_scene(height=30.0)
    spots = generate_candidate_spots(scene, 10.0, 5.0, 6.0)
    kept = filter_candidates_by_ap_los(spots, scene)
    assert kept, "front face must keep spots"
    for s in kept:
        to_ap = np.subtract(AP, s.position)
        assert float(np.dot(s.facet_normal, to_ap)) > 0.0
        assert los_clear_many(AP, s.position, scene)
    # the +x face points away from the AP at x=0; none of it survives
    assert all(s.facet_normal[0] <= 0.0 or s.position[0] < 60.0 for s in kept)
    far_face = [s for s in spots if s.facet_normal == (1.0, 0.0, 0.0)]
    assert far_face and not any(
        k.position == f.position for k in kept for f in far_face
    )


def test_filter_reindexes_and_is_idempotent():
    scene = one_block_scene(height=30.0)
    spots = generate_candidate_spots(scene, 10.0, 5.0, 6.0)
    once = filter_candidates_by_ap_los(spots, scene)
    assert [s.id for s in once] == list(range(len(once)))
    twice = filter_candidates_by_ap_los(once, scene)
    assert once == twice


def test_filter_blocked_front_spot_removed():
    # a 15 m slab between the AP and the target's front face shadows the
    # bottom mounting row; the higher rows see the AP over its roof
    blocker = Building((20.0, -50.0, 0.0), (25.0, 50.0, 15.0))
    target = Building((40.0, -10.0, 0.0), (60.0, 10.0, 30.0))
    scene = Scene(AP, (blocker, target), (), (-200.0, 200.0), (-200.0, 200.0))
    spots = [s for s in generate_candidate_spots(scene, 10.0, 5.0, 6.0)
             if s.building_index == 1]
    front = [s for s in spots if s.facet_normal == (-1.0, 0.0, 0.0)]
    assert {s.position[2] for s in front} == {8.5, 13.5, 18.5, 23.5}
    kept = filter_candidates_by_ap_los(spots, scene)
    kept_pos = {s.position for s in kept}
    assert kept_pos == {s.position for s in front if s.position[2] > 10.0}
    for s in kept:
        assert los_clear_many(AP, s.position, scene)


# --- street scatter ---------------------------------------------------------

def test_scatter_respects_constraints():
    buildings = (
        Building((-50.0, -50.0, 0.0), (0.0, 0.0, 10.0)),
        Building((10.0, 10.0, 0.0), (60.0, 60.0, 10.0)),
    )
    rng = np.random.default_rng(123)
    pts = scatter_street_points((-80.0, 80.0), (-80.0, 80.0), buildings, 40, rng)
    assert len(pts) == 40
    for x, y, z in pts:
        assert z == 1.5
        assert -80.0 <= x <= 80.0 and -80.0 <= y <= 80.0
        assert not any(b.footprint_contains(x, y) for b in buildings)
    xy = np.array([(x, y) for x, y, _ in pts])
    d = np.hypot(xy[:, None, 0] - xy[None, :, 0], xy[:, None, 1] - xy[None, :, 1])
    np.fill_diagonal(d, np.inf)
    assert d.min() >= 2.0


def test_scatter_is_deterministic_per_seed():
    args = ((-80.0, 80.0), (-80.0, 80.0), (), 25)
    a = scatter_street_points(*args, np.random.default_rng(7))
    b = scatter_street_points(*args, np.random.default_rng(7))
    assert a == b
    c = scatter_street_points(*args, np.random.default_rng(8))
    assert a != c


def test_scatter_fails_when_area_is_full(monkeypatch):
    monkeypatch.setattr(geometry, "STREET_ATTEMPTS", 500)
    blocked = (Building((-10.0, -10.0, 0.0), (10.0, 10.0, 5.0)),)
    with pytest.raises(RuntimeError):
        scatter_street_points(
            (-10.0, 10.0), (-10.0, 10.0), blocked, 3, np.random.default_rng(0)
        )
