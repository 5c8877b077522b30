"""Hospital-corridor world model: guide-line graph, wards, placards, routing.

The map is a small planar graph. Nodes carry positions in meters, edges are
straight guide-line segments, wards 1..8 sit on stub nodes hanging off cross
junctions, and the pharmacy node is the start/return point. The placards
(the painted digits a cart reads at a junction) are derived from the graph
geometry when a map is loaded, so map files stay short and human-editable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from enum import Enum
from typing import Iterable, Iterator

import numpy as np

Vec2 = tuple[float, float]

# Placard layout constants (meters). Digits sit this far before their
# junction along the approach edge, offset to the side of the guide line.
PLACARD_SETBACK = 0.22
PLACARD_LATERAL = 0.12
PLACARD_STAGGER = 0.14
GLYPH_HEIGHT = 0.12
ARENA_BOUND = 50.0  # m; every node and placard lies within this of the origin on each axis
WORLD_CELL = 0.002       # world-ink raster pitch, meters
WORLD_MARGIN = 0.6       # raster extends this far beyond the node bbox
RASTER_BUDGET = 2 ** 26  # cells; a map whose world-ink raster is larger is refused


class MapError(ValueError):
    """Base class for map file problems."""


class MapParseError(MapError):
    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class MapValidationError(MapError):
    """A structurally valid file that violates a map invariant."""


class Action(Enum):
    STRAIGHT = "straight"
    LEFT = "left"
    RIGHT = "right"
    STOP = "stop"


@dataclass(frozen=True)
class PlacardEntry:
    digit: int
    x: float
    y: float
    up_angle: float  # world angle of the glyph's "up" direction, radians


@dataclass(frozen=True)
class Ward:
    id: int
    node: str


@dataclass(frozen=True)
class Edge:
    id: str
    a: str
    b: str
    polyline: tuple[Vec2, Vec2]  # the straight segment from node a to node b

    @property
    def length(self) -> float:
        (x0, y0), (x1, y1) = self.polyline
        return math.hypot(x1 - x0, y1 - y0)


@dataclass(frozen=True)
class RouteStep:
    edge_id: str | None  # None only for the degenerate zero-length route
    action: Action
    end_node: str
    length: float


@dataclass(frozen=True, eq=True)
class TrackMap:
    nodes: tuple[tuple[str, Vec2], ...]
    edges: tuple[Edge, ...]
    wards: tuple[Ward, ...]
    pharmacy: str
    corridor_width: float
    extra_digits: tuple[tuple[int, int], ...] = ()  # (host ward, shown digit)
    placards: tuple[PlacardEntry, ...] = ()  # derived by load_map, junction by junction

    def __hash__(self) -> int:
        # computed once: the renderer looks its raster up by map every frame
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash(tuple(getattr(self, f.name) for f in fields(self)))
            object.__setattr__(self, "_hash", h)
        return h

    def __getstate__(self) -> dict:
        # str hashes differ between processes, so a pickle leaves it out
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}

    def node_pos(self, node_id: str) -> Vec2:
        for nid, pos in self.nodes:
            if nid == node_id:
                return pos
        raise KeyError(node_id)

    def edge(self, edge_id: str) -> Edge:
        for e in self.edges:
            if e.id == edge_id:
                return e
        raise KeyError(edge_id)

    def ward(self, ward_id: int) -> Ward:
        for w in self.wards:
            if w.id == ward_id:
                return w
        raise KeyError(ward_id)


# --------------------------------------------------------------------------
# map text format

def iter_records(text: str) -> Iterator[tuple[int, list[str]]]:
    """Yield (lineno, tokens) for each non-blank, non-comment line."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        yield lineno, line.split()


def _parse_float(tok: str, lineno: int, what: str) -> float:
    try:
        value = float(tok)
    except ValueError:
        raise MapParseError(lineno, f"bad {what}: {tok!r}") from None
    if not math.isfinite(value):
        raise MapParseError(lineno, f"{what} must be finite: {tok!r}")
    return value


def load_map(text: str) -> TrackMap:
    """Parse map text into a validated TrackMap.

    Grammar (one record per line, ``#`` starts a comment):
        node <id> <x> <y>
        edge <id> <node-a> <node-b>           one straight segment
        ward <digit> <node> [<digit2> ...]
        pharmacy <node>
        width <meters>                        at most once; 0.30 if absent
    """
    nodes: dict[str, Vec2] = {}
    edges: list[Edge] = []
    ward_records: list[tuple[int, int, str, list[int]]] = []  # lineno, digit, node, extras
    pharmacy: str | None = None
    width: float | None = None
    saw_any = False

    for lineno, toks in iter_records(text):
        saw_any = True
        kind, args = toks[0], toks[1:]
        if kind == "node":
            if len(args) != 3:
                raise MapParseError(lineno, "node wants: node <id> <x> <y>")
            nid = args[0]
            if nid in nodes:
                raise MapParseError(lineno, f"duplicate node id {nid!r}")
            nodes[nid] = (_parse_float(args[1], lineno, "x"),
                          _parse_float(args[2], lineno, "y"))
        elif kind == "edge":
            if len(args) != 3:
                raise MapParseError(lineno, "edge wants: edge <id> <node-a> <node-b>")
            eid, a, b = args
            if any(e.id == eid for e in edges):
                raise MapParseError(lineno, f"duplicate edge id {eid!r}")
            for n in (a, b):
                if n not in nodes:
                    raise MapParseError(lineno, f"edge {eid!r} references unknown node {n!r}")
            edges.append(Edge(eid, a, b, (nodes[a], nodes[b])))
        elif kind == "ward":
            if len(args) < 2:
                raise MapParseError(lineno, "ward wants: ward <digit> <node> [<digit2> ...]")
            try:
                digit = int(args[0])
                extras = [int(t) for t in args[2:]]
            except ValueError:
                raise MapParseError(lineno, "ward digits must be integers") from None
            if args[1] not in nodes:
                raise MapParseError(lineno, f"ward references unknown node {args[1]!r}")
            ward_records.append((lineno, digit, args[1], extras))
        elif kind == "pharmacy":
            if len(args) != 1:
                raise MapParseError(lineno, "pharmacy wants: pharmacy <node>")
            if pharmacy is not None:
                raise MapParseError(lineno, "more than one pharmacy record")
            if args[0] not in nodes:
                raise MapParseError(lineno, f"pharmacy references unknown node {args[0]!r}")
            pharmacy = args[0]
        elif kind == "width":
            if len(args) != 1:
                raise MapParseError(lineno, "width wants: width <meters>")
            if width is not None:
                raise MapParseError(lineno, "more than one width record")
            width = _parse_float(args[0], lineno, "width")
        else:
            raise MapParseError(lineno, f"unknown record {kind!r}")

    if not saw_any:
        raise MapParseError(1, "empty map text")
    if pharmacy is None:
        raise MapValidationError("no pharmacy node declared")
    if width is None:
        width = 0.30
    if width <= 0:
        raise MapValidationError("corridor width must be positive")
    for nid, (x, y) in nodes.items():
        if abs(x) > ARENA_BOUND or abs(y) > ARENA_BOUND:
            raise MapValidationError(f"node {nid!r} outside plausible arena bounds")
    _, _, nx, ny = raster_box(nodes.values())
    if nx * ny > RASTER_BUDGET:
        raise MapValidationError(
            f"world-ink raster of {nx} x {ny} cells exceeds the budget of {RASTER_BUDGET}")

    seen_digits: set[int] = set()
    for lineno, digit, _, extras in ward_records:
        if not 1 <= digit <= 8:
            raise MapValidationError(f"ward id {digit} out of range 1..8")
        if digit in seen_digits:
            raise MapValidationError(f"duplicate ward {digit}")
        seen_digits.add(digit)
        for x in extras:
            if not 1 <= x <= 8:
                raise MapValidationError(f"placard digit {x} out of range 1..8")
    # by ward id, as serialize_map writes them: the placards' order then survives it
    ward_records.sort(key=lambda r: r[1])

    track = TrackMap(
        nodes=tuple(nodes.items()),
        edges=tuple(edges),
        wards=tuple(Ward(digit, node) for _, digit, node, _ in ward_records),
        pharmacy=pharmacy,
        corridor_width=width,
        extra_digits=tuple(sorted(
            (digit, x) for _, digit, _, extras in ward_records for x in extras
        )),
    )
    parents = _bfs_parents(track, pharmacy)
    missing = sorted(set(nodes) - set(parents) - {pharmacy})
    if missing:
        raise MapValidationError(f"graph not connected: unreachable nodes {missing}")
    placards = _build_placards(track, parents, ward_records)
    for entry in placards:
        if abs(entry.x) > ARENA_BOUND or abs(entry.y) > ARENA_BOUND:
            raise MapValidationError("placard pose outside plausible arena bounds")
    return replace(track, placards=placards)


def _unit(dx: float, dy: float) -> Vec2:
    n = math.hypot(dx, dy)
    if n == 0:
        return (0.0, 0.0)
    return (dx / n, dy / n)


def raster_box(points: Iterable[Vec2]) -> tuple[float, float, int, int]:
    """(x0, y0, nx, ny): the world-ink raster's corner and its size in
    WORLD_CELL cells, over the points' box plus WORLD_MARGIN."""
    xs, ys = zip(*points)
    # cell boundaries on integer multiples of WORLD_CELL keep a line
    # centered on an axis exactly symmetric in the raster
    x0 = math.floor((min(xs) - WORLD_MARGIN) / WORLD_CELL) * WORLD_CELL
    y0 = math.floor((min(ys) - WORLD_MARGIN) / WORLD_CELL) * WORLD_CELL
    return (x0, y0, int(math.ceil((max(xs) + WORLD_MARGIN - x0) / WORLD_CELL)),
            int(math.ceil((max(ys) + WORLD_MARGIN - y0) / WORLD_CELL)))


def _bfs_parents(track: TrackMap, root: str) -> dict[str, tuple[str, str]]:
    """node -> (parent node, connecting edge id), BFS tree from root."""
    adj: dict[str, list[tuple[str, str]]] = {nid: [] for nid, _ in track.nodes}
    for e in track.edges:
        adj[e.a].append((e.b, e.id))
        adj[e.b].append((e.a, e.id))
    for lst in adj.values():
        lst.sort()
    parents: dict[str, tuple[str, str]] = {}
    visited = {root}
    queue = [root]
    while queue:
        cur = queue.pop(0)
        for nxt, eid in adj[cur]:
            if nxt not in visited:
                visited.add(nxt)
                parents[nxt] = (cur, eid)
                queue.append(nxt)
    return parents


def _build_placards(track: TrackMap, parents: dict[str, tuple[str, str]],
                    ward_records: list[tuple[int, int, str, list[int]]]
                    ) -> tuple[PlacardEntry, ...]:
    """Every junction's placards, junction by junction in record order."""
    # group wards by their decision junction (BFS parent of the ward node)
    groups: dict[str, list[tuple[int, str]]] = {}
    extras_by_junction: dict[str, list[int]] = {}
    for _, digit, node, extras in ward_records:
        junction = parents[node][0] if node in parents else node
        groups.setdefault(junction, []).append((digit, node))
        if extras:
            extras_by_junction.setdefault(junction, []).extend(extras)

    placards: list[PlacardEntry] = []
    for junction, members in groups.items():
        jx, jy = track.node_pos(junction)
        if junction in parents:
            px, py = track.node_pos(parents[junction][0])
            approach = _unit(jx - px, jy - py)
        else:
            approach = (0.0, 1.0)  # junction is the pharmacy itself
        left_n = (-approach[1], approach[0])
        up_angle = math.atan2(approach[1], approach[0])

        entries: list[PlacardEntry] = []
        digits_here: set[int] = set()

        def place(digit: int, side: float, rank: int) -> None:
            setback = PLACARD_SETBACK + PLACARD_STAGGER * rank
            ex = jx - approach[0] * setback + left_n[0] * side * PLACARD_LATERAL
            ey = jy - approach[1] * setback + left_n[1] * side * PLACARD_LATERAL
            entries.append(PlacardEntry(digit, ex, ey, up_angle))

        side_rank = {1.0: 0, -1.0: 0}
        for digit, node in sorted(members):
            wx, wy = track.node_pos(node)
            stub = _unit(wx - jx, wy - jy)
            cross = approach[0] * stub[1] - approach[1] * stub[0]
            side = 1.0 if cross >= 0 else -1.0
            place(digit, side, side_rank[side])
            side_rank[side] += 1
            digits_here.add(digit)
        for i, digit in enumerate(sorted(extras_by_junction.get(junction, []))):
            if digit in digits_here:
                raise MapValidationError(f"duplicate placard digit {digit} at junction {junction!r}")
            digits_here.add(digit)
            side = 1.0 if i % 2 == 0 else -1.0
            place(digit, side, side_rank[side])
            side_rank[side] += 1
        if not 1 <= len(entries) <= 4:
            raise MapValidationError(
                f"placard group at {junction!r} has {len(entries)} entries, want 1..4")
        placards.extend(entries)
    return tuple(placards)


def serialize_map(track: TrackMap) -> str:
    """Emit map text that load_map parses back into an equal TrackMap."""
    lines = []
    for nid, (x, y) in track.nodes:
        lines.append(f"node {nid} {x!r} {y!r}")
    for e in track.edges:
        lines.append(f"edge {e.id} {e.a} {e.b}")
    extras_of: dict[int, list[int]] = {}
    for host, digit in track.extra_digits:
        extras_of.setdefault(host, []).append(digit)
    for w in track.wards:
        extra = extras_of.get(w.id, [])
        suffix = (" " + " ".join(str(d) for d in extra)) if extra else ""
        lines.append(f"ward {w.id} {w.node}{suffix}")
    lines.append(f"pharmacy {track.pharmacy}")
    lines.append(f"width {track.corridor_width!r}")
    return "\n".join(lines) + "\n"


DEFAULT_MAP_TEXT = """\
# competition-style corridor: spine north from the pharmacy, cross junctions
# at 1 m spacing, 0.5 m ward stubs, 30 cm corridor
node pharmacy 0.0 0.0
node j1 0.0 1.0
node j2 0.0 2.0
node j3 0.0 3.0
node j4 0.0 4.0
node w1 -0.5 1.0
node w2 0.5 1.0
node w3 -0.5 2.0
node w4 0.5 2.0
node w5 -0.5 3.0
node w6 0.5 3.0
node w7 -0.5 4.0
node w8 0.5 4.0
edge spine1 pharmacy j1
edge spine2 j1 j2
edge spine3 j2 j3
edge spine4 j3 j4
edge stub1 j1 w1
edge stub2 j1 w2
edge stub3 j2 w3
edge stub4 j2 w4
edge stub5 j3 w5
edge stub6 j3 w6
edge stub7 j4 w7
edge stub8 j4 w8
ward 1 w1
ward 2 w2
ward 3 w3
ward 4 w4
ward 5 w5
ward 6 w6
ward 7 w7
ward 8 w8
pharmacy pharmacy
width 0.30
"""


def default_map() -> TrackMap:
    """The built-in map: near fork {1,2}, mid fork {3,4}, far section {5..8}."""
    return load_map(DEFAULT_MAP_TEXT)


def route_to(track: TrackMap, ward_id: int) -> tuple[RouteStep, ...]:
    """Shortest route (fewest edges) from the pharmacy to a ward: its steps.

    Each step carries the action taken at the node the edge ends on:
    Straight/Left/Right at junctions, Stop on arrival at the ward node.
    """
    if not 1 <= ward_id <= 8:
        raise ValueError(f"ward id {ward_id} out of range 1..8")
    try:
        ward = track.ward(ward_id)
    except KeyError:
        raise ValueError(f"ward {ward_id} not present in map") from None

    if ward.node == track.pharmacy:
        return (RouteStep(None, Action.STOP, ward.node, 0.0),)

    parents = _bfs_parents(track, track.pharmacy)
    if ward.node not in parents:
        raise ValueError(f"ward {ward_id} unreachable from pharmacy")

    path_nodes = [ward.node]
    path_edges: list[str] = []
    cur = ward.node
    while cur != track.pharmacy:
        parent, eid = parents[cur]
        path_edges.append(eid)
        path_nodes.append(parent)
        cur = parent
    path_nodes.reverse()
    path_edges.reverse()

    steps: list[RouteStep] = []
    for i, eid in enumerate(path_edges):
        edge = track.edge(eid)
        end = path_nodes[i + 1]
        if i == len(path_edges) - 1:
            action = Action.STOP
        else:
            ax, ay = track.node_pos(path_nodes[i])
            bx, by = track.node_pos(path_nodes[i + 1])
            cx, cy = track.node_pos(path_nodes[i + 2])
            din = _unit(bx - ax, by - ay)
            dout = _unit(cx - bx, cy - by)
            cross = din[0] * dout[1] - din[1] * dout[0]
            dot = din[0] * dout[0] + din[1] * dout[1]
            if abs(cross) < 1e-9 and dot > 0:
                action = Action.STRAIGHT
            elif cross > 0:
                action = Action.LEFT
            else:
                action = Action.RIGHT
        steps.append(RouteStep(eid, action, end, edge.length))
    return tuple(steps)


def reverse_route(track: TrackMap, route: tuple[RouteStep, ...]) -> tuple[RouteStep, ...]:
    """The way back: edges reversed, Left and Right swapped, ends in Stop.
    A zero-length route is its own way back."""
    if route[0].edge_id is None:
        return route
    swap = {Action.LEFT: Action.RIGHT, Action.RIGHT: Action.LEFT,
            Action.STRAIGHT: Action.STRAIGHT}
    steps: list[RouteStep] = []
    n = len(route)
    for i, step in enumerate(reversed(route)):
        edge = track.edge(step.edge_id)
        start = edge.a if edge.b == step.end_node else edge.b
        if i < n - 1:
            action = swap[route[n - 2 - i].action]
        else:
            action = Action.STOP
        steps.append(RouteStep(step.edge_id, action, start, step.length))
    return tuple(steps)


def pause_distance(track: TrackMap, ward_id: int) -> float:
    """Where a follower pauses, as a distance along its outbound route: the
    midpoint of the last edge before the ward's junction."""
    route = route_to(track, ward_id)
    if len(route) < 2:  # also the zero-length route, whose one step has no edge
        raise ValueError(f"route to ward {ward_id} has no edge before its junction")
    return sum(s.length for s in route[:-2]) + route[-2].length / 2.0


def _project(a: Vec2, b: Vec2, p: Vec2) -> tuple[float, float]:
    """Closest point of segment ab to p: (its fraction t along ab, distance)."""
    (ax, ay), (bx, by), (px, py) = a, b, p
    vx, vy = bx - ax, by - ay
    L2 = vx * vx + vy * vy
    if L2 == 0:
        return 0.0, math.hypot(px - ax, py - ay)
    t = max(0.0, min(1.0, ((px - ax) * vx + (py - ay) * vy) / L2))
    return t, math.hypot(px - (ax + t * vx), py - (ay + t * vy))


def segments(track: TrackMap) -> np.ndarray:
    """The guide line as (edges x 4) float64 rows ax, ay, bx, by."""
    return np.array([e.polyline for e in track.edges], dtype=np.float64).reshape(-1, 4)


def project_offsets(ax, ay, bx, by, px, py) -> tuple[np.ndarray, np.ndarray]:
    """_project's clamped projection on broadcast arrays: the offset
    (dx, dy) of point p from its foot point on segment ab, in _project's
    steps. A zero-length segment projects at t = 0, without dividing."""
    vx, vy = bx - ax, by - ay
    L2 = vx * vx + vy * vy
    dot = (px - ax) * vx + (py - ay) * vy
    t = np.divide(dot, L2, out=np.zeros_like(dot), where=L2 > 0)
    t = np.maximum(0.0, np.minimum(1.0, t))
    return px - (ax + t * vx), py - (ay + t * vy)


def nearest_centerline_distance(track: TrackMap, point: Vec2) -> float:
    """Distance from a point to the nearest guide-line centerline."""
    return min((_project(*e.polyline, point)[1] for e in track.edges), default=math.inf)


def route_progress(track: TrackMap, route: tuple[RouteStep, ...], point: Vec2) -> float:
    """Arc distance along a route of the closest route point to ``point``."""
    best_d = math.inf
    best_s = 0.0
    cum = 0.0
    for step in route:
        if step.edge_id is None:
            continue
        edge = track.edge(step.edge_id)
        start = edge.a if edge.b == step.end_node else edge.b
        t, d = _project(track.node_pos(start), track.node_pos(step.end_node), point)
        if d < best_d:
            best_d = d
            best_s = cum + t * step.length
        cum += step.length
    return best_s
