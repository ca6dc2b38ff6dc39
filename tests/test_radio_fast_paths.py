"""Properties of the radio layer's per-sample fast paths.

* ``FloorPlan.walls_crossed`` answers a single-pair miss with one
  inlined loop over a per-plan table of wall floats; it must count
  exactly what the reference ``walls_crossed_scalar`` counts — through
  doorway edges, at the edges of a wall's z range, and along paths
  parallel to a wall.
* ``WalkRoute.position_at`` computes its segment lengths once; it must
  return exactly what the per-call formula returns, on polylines with
  zero-length segments and repeated waypoints.
* Recorded walks run on array kernels: ``WalkRoute.coords_at`` must give
  exactly ``position_at``'s positions, and
  ``PropagationModel.mean_rssi_coords`` exactly ``mean_rssi_uncached``'s
  means — inside weak slab zones, at a slab's height, on flat paths, at
  half shadow cells and through doorway edges.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.threshold import perimeter_route
from repro.experiments.synthesis import fleet_world
from repro.radio.floorplan import FLOOR_HEIGHT
from repro.radio.geometry import Point
from repro.radio.propagation import PropagationModel
from repro.radio.testbeds import WalkRoute
from repro.radio.testbeds import testbed_by_name as build_testbed

PLANS = {name: build_testbed(name).plan for name in ("house", "apartment", "office")}

coord = st.floats(-2.0, 16.0, allow_nan=False, allow_infinity=False)
height = st.floats(-0.5, 6.5, allow_nan=False, allow_infinity=False)
# Offsets around a tolerance boundary: exact hits, the 1e-9 and 1e-12
# edges and just past them.
edge = st.sampled_from((0.0, 1e-9, -1e-9, 2e-9, -2e-9, 1e-11, -1e-11, 1e-12, -1e-12,
                        1e-6, -1e-6))


def _fresh_count(plan, a, b):
    plan._crossing_cache.clear()
    return plan.walls_crossed(a, b)


def _on_wall(wall, u):
    (qx, qy), (ex, ey) = wall.start, wall.end
    return qx + (ex - qx) * u, qy + (ey - qy) * u


def _normal(wall):
    (qx, qy), (ex, ey) = wall.start, wall.end
    length = math.hypot(ex - qx, ey - qy)
    return -(ey - qy) / length, (ex - qx) / length


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(PLANS)), coord, coord, height, coord, coord, height)
def test_wall_loop_matches_scalar_on_random_segments(name, ax, ay, az, bx, by, bz):
    plan = PLANS[name]
    a, b = Point(ax, ay, az), Point(bx, by, bz)
    assert _fresh_count(plan, a, b) == plan.walls_crossed_scalar(a, b)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(PLANS)), st.data(), edge,
       st.floats(0.05, 4.0), st.floats(0.05, 4.0), st.floats(0.0, 1.0))
def test_wall_loop_matches_scalar_at_door_edges(name, data, nudge, near, far, zfrac):
    plan = PLANS[name]
    walls = [wall for wall in plan.walls if wall.doors]
    wall = data.draw(st.sampled_from(walls))
    door = data.draw(st.sampled_from(wall.doors))
    u = data.draw(st.sampled_from((door.u_start, door.u_end, 0.0, 1.0))) + nudge
    px, py = _on_wall(wall, u)
    nx, ny = _normal(wall)
    z = wall.z_low + (wall.z_high - wall.z_low) * zfrac
    a = Point(px + nx * near, py + ny * near, z)
    b = Point(px - nx * far, py - ny * far, z)
    assert _fresh_count(plan, a, b) == plan.walls_crossed_scalar(a, b)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(PLANS)), st.data(), edge, edge,
       st.floats(0.0, 1.0), st.sampled_from(("low", "high")))
def test_wall_loop_matches_scalar_at_z_edges(name, data, dz_a, dz_b, u, side):
    plan = PLANS[name]
    wall = data.draw(st.sampled_from(plan.walls))
    px, py = _on_wall(wall, u)
    nx, ny = _normal(wall)
    z = wall.z_low if side == "low" else wall.z_high
    a = Point(px + nx, py + ny, z + dz_a)
    b = Point(px - nx, py - ny, z + dz_b)
    assert _fresh_count(plan, a, b) == plan.walls_crossed_scalar(a, b)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(PLANS)), st.data(), edge, edge,
       st.floats(-0.5, 1.5), st.floats(-0.5, 1.5), height)
def test_wall_loop_matches_scalar_along_walls(name, data, off_a, off_b, u0, u1, z):
    # Equal offsets run parallel to the wall; unequal ones graze it at
    # an angle small enough to probe the 1e-12 parallel tolerance.
    plan = PLANS[name]
    wall = data.draw(st.sampled_from(plan.walls))
    nx, ny = _normal(wall)
    ax, ay = _on_wall(wall, u0)
    bx, by = _on_wall(wall, u1)
    a = Point(ax + nx * off_a, ay + ny * off_a, z)
    b = Point(bx + nx * off_b, by + ny * off_b, z)
    assert _fresh_count(plan, a, b) == plan.walls_crossed_scalar(a, b)


def _position_per_call(route, t):
    """The per-call formula: segment lengths recomputed on every call,
    the last segment found by index."""
    waypoints = route.waypoints
    if len(waypoints) == 1 or route.duration <= 0:
        return waypoints[0]
    clamped = min(max(t, 0.0), route.duration)
    lengths = []
    total = 0.0
    for a, b in zip(waypoints, waypoints[1:]):
        step = ((a.x - b.x) ** 2 + (a.y - b.y) ** 2 + (a.z - b.z) ** 2) ** 0.5
        lengths.append(step)
        total += step
    if total == 0:
        return waypoints[0]
    target = total * clamped / route.duration
    walked = 0.0
    for index, step in enumerate(lengths):
        if walked + step >= target or index == len(lengths) - 1:
            frac = 0.0 if step == 0 else (target - walked) / step
            return waypoints[index].lerp(waypoints[index + 1], min(max(frac, 0.0), 1.0))
        walked += step
    raise AssertionError("unreachable")


# Few distinct coordinates, so polylines often repeat waypoints and
# contain zero-length segments.
grid_point = st.builds(
    Point,
    st.sampled_from((0.0, 0.5, 1.3, 4.0)),
    st.sampled_from((0.0, 2.2, 7.1)),
    st.sampled_from((0.0, 3.0)),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(grid_point, min_size=1, max_size=8),
       st.sampled_from((0.0, 1e-6, 0.7, 8.0, 9.5, 28.0)),
       st.lists(st.floats(-1.0, 30.0, allow_nan=False), min_size=1, max_size=12))
def test_cached_position_matches_per_call_formula(waypoints, duration, times):
    route = WalkRoute("r", waypoints, duration=duration)
    for t in times + [duration, duration * 0.5]:
        assert route.position_at(t) == _position_per_call(route, t)


def test_repeated_closing_segment_walks_the_second_lap():
    """A two-lap perimeter repeats its closing segment; the walk must
    still go round again rather than park at the start corner."""
    room = build_testbed("house").plan.rooms["living_room"]
    route = perimeter_route(room, laps=2)
    start = route.waypoints[0]
    far = route.waypoints[2]  # the corner opposite the start
    assert far.x > start.x and far.y > start.y
    lap = route.duration / 2
    assert route.position_at(lap + lap / 2) == far
    second_lap = [route.position_at(lap + lap * i / 20) for i in range(1, 20)]
    assert all(p != start for p in second_lap)


# -- recorded-walk array kernels ----------------------------------------------
def _coords_as_points(route, times):
    xs, ys, zs = route.coords_at(np.array(times, dtype=np.float64))
    return [Point(x, y, z) for x, y, z in zip(xs.tolist(), ys.tolist(), zs.tolist())]


@settings(max_examples=400, deadline=None)
@given(st.lists(grid_point, min_size=1, max_size=8),
       st.sampled_from((0.0, 1e-6, 0.7, 8.0, 9.5, 28.0)),
       st.lists(st.floats(-1.0, 30.0, allow_nan=False), min_size=1, max_size=12))
def test_coords_at_matches_position_at(waypoints, duration, times):
    route = WalkRoute("r", waypoints, duration=duration)
    # Before the start, at the end exactly, and past the end.
    probe = times + [-0.5, 0.0, duration, duration + 1.0, duration * 0.5]
    assert _coords_as_points(route, probe) == [route.position_at(t) for t in probe]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(PLANS["house"].rooms)), st.integers(1, 3),
       st.lists(st.floats(-5.0, 120.0, allow_nan=False), min_size=1, max_size=20))
def test_coords_at_matches_position_at_on_lapped_perimeters(room_name, laps, times):
    # Two or more laps repeat the closing segment (zero-length joins).
    route = perimeter_route(PLANS["house"].rooms[room_name], laps=laps)
    probe = times + [route.duration, route.duration / laps, route.duration + 3.0]
    assert _coords_as_points(route, probe) == [route.position_at(t) for t in probe]


WORLD_PLANS = dict(PLANS, fleet_house=fleet_world("house", 0, 1.07).testbed.plan)
MODELS = {name: PropagationModel(plan, seed=11) for name, plan in WORLD_PLANS.items()}
SPEAKERS = {name: build_testbed(name).speaker_point(0) for name in PLANS}
SPEAKERS["fleet_house"] = fleet_world("house", 0, 1.07).testbed.speaker_point(0)

quarter = st.integers(-8, 64).map(lambda k: (k + 0.5) / 4)  # a half shadow cell
slab_edge = st.sampled_from((0.0, 1e-9, -1e-9, 1e-6, -1e-6))


@st.composite
def receivers(draw, name, tx):
    """Receivers for ``tx`` probing each branch of the mean's kernels."""
    plan = WORLD_PLANS[name]
    kind = draw(st.sampled_from(("random", "zone", "slab", "flat", "half", "door")))
    if kind == "random":
        return Point(draw(coord), draw(coord), draw(height))
    if kind == "zone" and plan.slab_zones:
        zone = draw(st.sampled_from(plan.slab_zones))
        # Inside the zone, on its edges, or straight above ``tx`` (a
        # vertical path pierces the slab exactly at tx's x and y).
        x = draw(st.one_of(st.floats(zone.x0, zone.x1),
                           st.sampled_from((zone.x0, zone.x1, tx.x))))
        y = draw(st.one_of(st.floats(zone.y0, zone.y1),
                           st.sampled_from((zone.y0, zone.y1, tx.y))))
        return Point(x, y, draw(st.floats(zone.slab_height, 6.5)))
    if kind == "slab":
        return Point(draw(coord), draw(coord), FLOOR_HEIGHT + draw(slab_edge))
    if kind == "flat":
        dz = draw(st.sampled_from((0.0, 2e-13, -2e-13, 1e-12, -1e-12, 2e-12, -2e-12)))
        return Point(draw(coord), draw(coord), tx.z + dz)
    if kind == "half":
        return Point(draw(quarter), draw(quarter), draw(quarter))
    walls = [wall for wall in plan.walls if wall.doors]
    if not walls:
        return Point(draw(coord), draw(coord), draw(height))
    wall = draw(st.sampled_from(walls))
    door = draw(st.sampled_from(wall.doors))
    u = draw(st.sampled_from((door.u_start, door.u_end))) + draw(edge)
    px, py = _on_wall(wall, u)
    nx, ny = _normal(wall)
    # Mirror tx through the doorway edge: the path crosses it there.
    side = nx * (tx.x - px) + ny * (tx.y - py)
    return Point(px - nx * side, py - ny * side, tx.z)


def _check_coords_mean(name, tx, points):
    model = MODELS[name]
    got = model.mean_rssi_coords(
        tx,
        np.array([p.x for p in points], dtype=np.float64),
        np.array([p.y for p in points], dtype=np.float64),
        np.array([p.z for p in points], dtype=np.float64),
    )
    assert got.tolist() == [model.mean_rssi_uncached(tx, rx) for rx in points]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(WORLD_PLANS)), st.data())
def test_coords_mean_matches_uncached_from_the_speaker(name, data):
    tx = SPEAKERS[name]
    _check_coords_mean(name, tx, data.draw(st.lists(receivers(name, tx),
                                                    min_size=1, max_size=16)))


@st.composite
def transmitters(draw, name):
    """Anywhere, on half shadow cells, below a weak zone's edge (so a
    vertical path pierces the slab on it), or a hair off a slab (so a
    near-flat path may straddle it)."""
    zones = WORLD_PLANS[name].slab_zones
    kind = draw(st.sampled_from(("random", "half", "zone_edge", "near_slab")))
    if kind == "random":
        return Point(draw(coord), draw(coord), draw(height))
    if kind == "half":
        return Point(draw(quarter), draw(quarter), draw(quarter))
    if kind == "zone_edge" and zones:
        zone = draw(st.sampled_from(zones))
        x = draw(st.sampled_from((zone.x0, zone.x1, (zone.x0 + zone.x1) / 2)))
        y = draw(st.sampled_from((zone.y0, zone.y1, (zone.y0 + zone.y1) / 2)))
        return Point(x, y, draw(st.floats(0.0, zone.slab_height - 0.1)))
    dz = draw(st.sampled_from((-6e-13, -1e-13, 1e-13, 6e-13)))
    return Point(draw(coord), draw(coord), FLOOR_HEIGHT + dz)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(WORLD_PLANS)), st.data())
def test_coords_mean_matches_uncached_from_anywhere(name, data):
    tx = data.draw(transmitters(name))
    _check_coords_mean(name, tx, data.draw(st.lists(receivers(name, tx),
                                                    min_size=1, max_size=16)))
