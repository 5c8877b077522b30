"""Independent checks on the program's outputs.

The geometry here is the benchmark's own: routes come from a breadth-first
search over the map's edges, distances from its own point-to-segment code.
Nothing is compared against a saved copy of earlier output.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

AT_WARD_RADIUS_M = 0.10   # a stopped cart lies this close to its ward node
DEV_MATCH_TOL_M = 1e-9    # own line deviation vs TraceReport.max_line_deviation
PROGRESS_TOL_M = 1e-6     # follower progress may not pass its pause point
CORPUS_MIN_ACCURACY = 0.95

LINE_PHASES = ("outbound", "returning")


def segments(track) -> np.ndarray:
    """Every guide-line segment of the map as rows (ax, ay, bx, by)."""
    rows = [(ax, ay, bx, by)
            for e in track.edges
            for (ax, ay), (bx, by) in zip(e.polyline, e.polyline[1:])]
    return np.array(rows, dtype=float)


def line_distance(segs: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Distance from each point (xs[i], ys[i]) to the nearest segment."""
    if xs.size == 0:
        return np.zeros(0)
    ax, ay, bx, by = (segs[:, k][None, :] for k in range(4))
    vx, vy = bx - ax, by - ay
    l2 = vx * vx + vy * vy
    px, py = xs[:, None], ys[:, None]
    with np.errstate(invalid="ignore", divide="ignore"):
        t = np.where(l2 > 0, ((px - ax) * vx + (py - ay) * vy) / l2, 0.0)
    t = np.clip(t, 0.0, 1.0)
    return np.hypot(px - (ax + t * vx), py - (ay + t * vy)).min(axis=1)


def route_polyline(track, ward: int) -> list[tuple[float, float]]:
    """Node positions along the unique edge path from the pharmacy to a ward."""
    adj: dict[str, list[str]] = {}
    for e in track.edges:
        adj.setdefault(e.a, []).append(e.b)
        adj.setdefault(e.b, []).append(e.a)
    goal = track.ward(ward).node
    parent = {track.pharmacy: None}
    queue = deque([track.pharmacy])
    while queue:
        node = queue.popleft()
        for nxt in sorted(adj.get(node, ())):
            if nxt not in parent:
                parent[nxt] = node
                queue.append(nxt)
    path = []
    node = goal
    while node is not None:
        path.append(track.node_pos(node))
        node = parent[node]
    return path[::-1]


def pause_distance(route: list[tuple[float, float]]) -> float:
    """Route distance of the follower's pause point: the midpoint of the
    last edge before the ward's junction."""
    lengths = [math.dist(a, b) for a, b in zip(route, route[1:])]
    return sum(lengths[:-2]) + lengths[-2] / 2.0


def route_progress(route: list[tuple[float, float]], x: float, y: float) -> float:
    """Arc distance along the route of the route point closest to (x, y)."""
    best_d = math.inf
    best_s = 0.0
    start = 0.0
    for (ax, ay), (bx, by) in zip(route, route[1:]):
        vx, vy = bx - ax, by - ay
        seg = math.hypot(vx, vy)
        t = max(0.0, min(1.0, ((x - ax) * vx + (y - ay) * vy) / (seg * seg)))
        d = math.hypot(x - (ax + t * vx), y - (ay + t * vy))
        if d < best_d:
            best_d, best_s = d, start + t * seg
        start += seg
    return best_s


def check_scenario(track, segs: np.ndarray, config, report) -> tuple[list[str], float]:
    """Check one engine run. Returns (problems, own worst line deviation in m)."""
    problems = []
    by_cart: dict[int, list] = {}
    for s in report.samples:
        by_cart.setdefault(s.cart, []).append(s)

    for i, ward in enumerate(config.wards):
        outcome = report.outcomes[i].value
        if outcome != "delivered_and_returned":
            problems.append(f"cart {i} ended {outcome} ({report.fault_reasons[i]})")
        if report.recognized[i] != ward:
            problems.append(f"cart {i} locked target {report.recognized[i]}, asked {ward}")
        nx, ny = track.node_pos(track.ward(ward).node)
        stops = [s for s in by_cart.get(i, ()) if s.phase.value == "at_ward"]
        if not stops:
            problems.append(f"cart {i} never reached at_ward")
        for s in stops:
            d = math.hypot(s.x - nx, s.y - ny)
            if d > AT_WARD_RADIUS_M:
                problems.append(f"cart {i} at_ward {d:.3f} m from ward {ward} node")

    on_line = [s for s in report.samples if s.phase.value in LINE_PHASES]
    dists = line_distance(segs, np.array([s.x for s in on_line]),
                          np.array([s.y for s in on_line]))
    dev = float(dists.max()) if dists.size else 0.0
    if abs(dev - report.max_line_deviation) > DEV_MATCH_TOL_M:
        problems.append(f"line deviation {dev!r} m, report says "
                        f"{report.max_line_deviation!r} m")
    if dev >= track.corridor_width / 2.0:
        problems.append(f"line deviation {dev:.3f} m leaves the corridor")

    if config.carts == 2:
        problems += _check_follower(track, config, by_cart)
    return problems, dev


def _check_follower(track, config, by_cart) -> list[str]:
    problems = []
    leader, follower = by_cart.get(0, []), by_cart.get(1, [])
    home_tick = next((s.tick for s in leader if s.phase.value == "returning"), None)
    if home_tick is None:
        return ["leader never turned for home"]
    route = route_polyline(track, config.wards[1])
    limit = pause_distance(route) + PROGRESS_TOL_M
    for s in follower:
        if s.tick >= home_tick:
            break
        progress = route_progress(route, s.x, s.y)
        if progress > limit:
            problems.append(f"follower {progress:.3f} m along its route at tick "
                            f"{s.tick}, pause point at {limit:.3f} m")
            break
    paused = {s.tick for s in follower if s.phase.value == "paused_at_point"}
    yellow = {s.tick for s in follower if s.led_yellow}
    if paused != yellow:
        problems.append(f"yellow LED on {len(yellow)} ticks, paused on {len(paused)}")
    return problems
